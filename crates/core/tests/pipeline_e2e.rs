//! End-to-end tests of the GNNDrive pipeline on a small on-SSD dataset.

use gnndrive_core::{GnnDriveConfig, Pipeline, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::{Dataset, DatasetSpec};
use gnndrive_nn::ModelKind;
use gnndrive_storage::{FaultPlan, MemoryGovernor, PageCache, SimSsd, SsdProfile};
use std::sync::Arc;

fn dataset(dim: usize) -> Arc<Dataset> {
    Arc::new(Dataset::build(
        DatasetSpec {
            name: "e2e".into(),
            num_nodes: 2000,
            num_edges: 16_000,
            feat_dim: dim,
            num_classes: 4,
            intra_prob: 0.8,
            feature_signal: 1.3,
            train_fraction: 0.2,
            seed: 17,
        },
        SimSsd::new(SsdProfile::instant()),
    ))
}

fn config() -> GnnDriveConfig {
    GnnDriveConfig {
        num_samplers: 2,
        num_extractors: 2,
        feature_buffer_slots: 8192,
        staging_bytes_per_extractor: 1 << 20,
        fanouts: vec![4, 4],
        batch_size: 50,
        seed: 5,
        ..Default::default()
    }
}

fn build(gpu: bool, dim: usize, cfg: GnnDriveConfig) -> Pipeline {
    let ds = dataset(dim);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let device = if gpu {
        GpuDevice::rtx3090()
    } else {
        GpuDevice::cpu()
    };
    Pipeline::builder(ds, device)
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_gpu_mode(gpu)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .expect("build")
}

#[test]
fn gpu_pipeline_trains_and_learns() {
    let mut p = build(true, 32, config());
    let acc0 = p.evaluate();
    let mut last_loss = f32::INFINITY;
    for epoch in 0..4 {
        let report = p.train_epoch(epoch, None);
        assert_eq!(report.batches, report.full_batches);
        assert!(
            report.batches >= 8,
            "expected full epoch, got {}",
            report.batches
        );
        assert!(report.loss.is_finite());
        last_loss = report.loss;
        p.feature_buffer().check_invariants();
    }
    let acc1 = p.evaluate();
    assert!(
        acc1 > acc0 + 0.2 || acc1 > 0.7,
        "training should improve accuracy: {acc0} -> {acc1} (last loss {last_loss})"
    );
}

#[test]
fn cpu_pipeline_trains_without_device() {
    let mut p = build(false, 32, config());
    let report = p.train_epoch(0, Some(5));
    assert_eq!(report.batches, 5);
    assert!(report.loss.is_finite());
    assert!(report.nodes_loaded > 0);
    p.feature_buffer().check_invariants();
}

#[test]
fn in_order_mode_processes_every_batch() {
    let cfg = GnnDriveConfig {
        reorder: false,
        ..config()
    };
    let mut p = build(true, 32, cfg);
    let report = p.train_epoch(0, None);
    assert_eq!(report.batches, report.full_batches);
    assert!(report.loss.is_finite());
}

#[test]
fn inter_batch_locality_reuses_nodes_across_epochs() {
    let mut p = build(true, 32, config());
    let r1 = p.train_epoch(0, None);
    let r2 = p.train_epoch(1, None);
    // With an 8k-slot buffer over a 2k-node graph, the second epoch should
    // be served almost entirely from the feature buffer.
    assert!(r1.nodes_loaded > 0);
    assert!(
        r2.nodes_reused > r2.nodes_loaded * 5,
        "epoch 2 should reuse: loaded {} reused {}",
        r2.nodes_loaded,
        r2.nodes_reused
    );
}

#[test]
fn sample_only_epoch_runs_without_extraction() {
    let mut p = build(true, 32, config());
    let io_before = {
        // Feature file untouched in sample-only mode; only topology reads.
        p.feature_buffer()
            .stats()
            .loads
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    let wall = p.sample_only_epoch(0, Some(4));
    assert!(wall.as_nanos() > 0);
    let io_after = p
        .feature_buffer()
        .stats()
        .loads
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(io_before, io_after, "sample-only must not touch features");
}

#[test]
fn unaligned_dim_trains_correctly() {
    // dim 20 → 80-byte rows: joint extraction + redundant tails everywhere.
    let mut p = build(true, 20, config());
    let report = p.train_epoch(0, Some(6));
    assert_eq!(report.batches, 6);
    assert!(report.loss.is_finite());
}

#[test]
fn device_oom_is_reported_at_build() {
    let ds = dataset(128);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let device = GpuDevice::k80(); // 120 MiB device memory
    let cfg = GnnDriveConfig {
        // 1M slots × 128 dims × 4 B = 512 MiB > 120 MiB.
        feature_buffer_slots: 1024 * 1024,
        ..config()
    };
    let err = Pipeline::builder(ds, device)
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .err()
        .expect("should OOM");
    assert!(format!("{err}").contains("device out of memory"));
    // The unified error chains down to the device layer.
    use std::error::Error as _;
    assert!(err.source().is_some(), "Error::Build must carry a source");
}

#[test]
fn host_oom_is_reported_at_build_for_cpu_mode() {
    let ds = dataset(128);
    let gov = MemoryGovernor::new(1024 * 1024); // 1 MiB host budget
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let device = GpuDevice::cpu();
    let err = Pipeline::builder(ds, device)
        .with_model(ModelKind::GraphSage, 16)
        .with_config(config())
        .with_gpu_mode(false)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .err()
        .expect("should OOM");
    assert!(format!("{err}").contains("out of memory"));
}

#[test]
fn transient_read_faults_are_retried_transparently() {
    // Every 5th feature read fails once; blocking-read retries recover and
    // the epoch completes without error.
    let mut p = build(true, 32, config());
    let ds = dataset(32);
    let _ = ds; // the pipeline holds its own dataset; fetch its SSD below
                // Rebuild with a handle we can poke.
    let ds = dataset(32);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let mut p2 = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(config())
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .unwrap();
    ds.ssd.set_fault_plan(
        FaultPlan::new(0)
            .with_read_fault_every(5)
            .on_file(ds.features_file.id),
    );
    let report = p2.train_epoch(0, Some(6));
    ds.ssd.clear_faults();
    assert!(
        report.error.is_none(),
        "transient faults should be retried: {:?}",
        report.error
    );
    assert_eq!(report.batches, 6);
    let _ = p.train_epoch(0, Some(1));
}

#[test]
fn persistent_read_faults_surface_as_epoch_errors_not_panics() {
    // Every feature read fails (retries included): the pipeline must
    // finish, report the error, and keep the feature buffer consistent.
    let ds = dataset(32);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let mut p = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(config())
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .unwrap();
    ds.ssd.set_fault_plan(
        FaultPlan::new(0)
            .with_read_fault_every(1)
            .on_file(ds.features_file.id),
    );
    let report = p.train_epoch(0, Some(6));
    ds.ssd.clear_faults();
    assert!(report.error.is_some(), "persistent faults must be reported");
    assert!(report.batches < 6, "failed batches are not counted as done");
    p.feature_buffer().check_invariants();
    // The device is healthy again: the next epoch trains normally.
    let recovered = p.train_epoch(1, Some(4));
    assert!(recovered.error.is_none(), "{:?}", recovered.error);
    assert_eq!(recovered.batches, 4);
}

#[test]
fn disk_path_inference_matches_offline_forward() {
    let mut p = build(true, 32, config());
    for e in 0..3 {
        p.train_epoch(e, None);
    }
    let seeds: Vec<u32> = (100..140).collect();
    let preds = p.infer(&seeds);
    assert_eq!(preds.len(), seeds.len());
    // Predictions should correlate with planted labels well above chance
    // (4 classes) after training.
    let ds = dataset(32);
    let correct = preds
        .iter()
        .zip(seeds.iter())
        .filter(|(&p, &s)| p == ds.labels[s as usize] as usize)
        .count();
    assert!(
        correct * 100 / seeds.len() > 40,
        "inference accuracy too low: {correct}/{}",
        seeds.len()
    );
    p.feature_buffer().check_invariants();
}
