//! Ablations of GNNDrive's design choices (DESIGN.md §3): each row removes
//! one mechanism and re-measures the epoch.
//!
//! * `default` — async extraction, direct I/O, joint extraction, reordering
//! * `sync-extract` — the same loop with one read in flight and the
//!   host→device copies paid inline (𝔒2 restored)
//! * `buffered-io` — page-cache feature loads instead of direct I/O (the
//!   memory-contention path, 𝔒1 partially restored)
//! * `no-joint` — one request per row even for sub-sector rows (only
//!   meaningful for dim < 128)
//! * `no-reorder` — trainer consumes mini-batches in submission order
//! * `gpu-direct` — the paper's future-work GDS path: no staging hop,
//!   4 KiB granularity

use gnndrive_bench::{
    dataset_for, env_knobs, feature_buffer_slots_for, print_table, Row, Scenario,
};
use gnndrive_core::{GnnDriveConfig, Pipeline, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::MiniDataset;
use gnndrive_storage::{MemoryGovernor, PageCache};
use std::sync::Arc;

/// One config mutation, applied to a fresh default `GnnDriveConfig`.
type Ablation = Box<dyn FnOnce(&mut GnnDriveConfig)>;

fn run(
    sc: &Scenario,
    mutate: impl FnOnce(&mut GnnDriveConfig),
    knobs: &gnndrive_bench::EnvKnobs,
) -> Result<f64, String> {
    let ds = dataset_for(sc);
    let governor = MemoryGovernor::new(sc.budget_bytes());
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let mut cfg = GnnDriveConfig {
        feature_buffer_slots: feature_buffer_slots_for(sc, 4),
        staging_bytes_per_extractor: 1024 * 1024,
        fanouts: sc.fanouts.clone(),
        batch_size: sc.batch_size,
        seed: 77,
        ..Default::default()
    };
    mutate(&mut cfg);
    let mut p = Pipeline::builder(ds, GpuDevice::rtx3090())
        .with_model(sc.model, sc.hidden)
        .with_config(cfg)
        .with_governor(governor)
        .with_page_cache(cache)
        .build()
        .map_err(|e| e.to_string())?;
    let r = p.train_epoch(0, knobs.max_batches);
    match r.error {
        Some(e) => Err(e),
        None => Ok(r.extrapolated_wall().as_secs_f64()),
    }
}

fn main() {
    let knobs = env_knobs();
    // dim 64 so joint extraction has sub-sector rows to coalesce.
    let mut sc = Scenario::default_for(MiniDataset::Papers100M, &knobs);
    sc.dim = 64;
    let ablations: Vec<(&str, Ablation)> = vec![
        ("default", Box::new(|_c: &mut GnnDriveConfig| {})),
        (
            "sync-extract",
            Box::new(|c: &mut GnnDriveConfig| c.sync_extract = true),
        ),
        (
            "buffered-io",
            Box::new(|c: &mut GnnDriveConfig| c.direct_io = false),
        ),
        (
            "no-joint",
            Box::new(|c: &mut GnnDriveConfig| c.max_joint_read_bytes = 0),
        ),
        (
            "no-reorder",
            Box::new(|c: &mut GnnDriveConfig| c.reorder = false),
        ),
        (
            "gpu-direct",
            Box::new(|c: &mut GnnDriveConfig| c.gpu_direct = true),
        ),
    ];
    let mut rows = Vec::new();
    for (name, mutate) in ablations {
        match run(&sc, mutate, &knobs) {
            Ok(secs) => {
                eprintln!("{name}: {secs:.2}s");
                rows.push(Row::new(name).secs(secs));
            }
            Err(e) => rows.push(Row::new(name).cell(format!("failed: {e}"))),
        }
    }
    print_table(
        "Ablations: GNNDrive epoch time (s), papers100m-mini dim 64, GraphSAGE",
        &["epoch_s"],
        &rows,
    );
}
