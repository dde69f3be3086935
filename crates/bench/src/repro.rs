//! The paper's evaluation: every table and figure of GNNDrive (ICPP '24),
//! plus the design-choice ablations and a calibration probe, as one
//! function over the harness knobs each, listed by name in
//! [`EXPERIMENTS`] and run by `gnndrive repro <name>`.
//!
//! Every experiment prints the rows or series the paper reports on stdout
//! and its diagnostics on stderr; Figs 3 and 11 also write run reports
//! (see [`crate::artifacts`]). Cells the paper marks OOM print as NaN in a
//! series and as `OOM` in Table 2. Besides the [`EnvKnobs`], three
//! variables narrow single experiments: `REPRO_DATASETS` and
//! `REPRO_MODELS` (comma lists, Figs 8 and 9) and `REPRO_CONV_EPOCHS`
//! (Fig 14, default 6).

use crate::cli::UsageError;
use crate::scenario::build_gnndrive_workers;
use crate::{
    build_system, collect_report, dataset_by_name, dataset_for, feature_buffer_slots_for,
    model_by_name, print_series, print_table, scenario_desc, slug, write_report, EnvKnobs, Row,
    Scenario, SystemKind,
};
use gnndrive_core::{run_data_parallel, GnnDriveConfig, ParallelConfig, Pipeline, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::MiniDataset;
use gnndrive_nn::ModelKind;
use gnndrive_storage::{FileHandle, IoRing, MemoryGovernor, PageCache, SimSsd, SsdProfile};
use gnndrive_sync::Rng;
use gnndrive_telemetry::{reset, reset_metrics, set_gpu_count, Monitor};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One experiment of the harness.
pub type Experiment = fn(&EnvKnobs);

/// Every experiment by its `gnndrive repro` name. The first twelve are the
/// paper's tables and figures in the order `repro all` runs them (see
/// [`all`]); the ablations and the calibration probe run only by name.
pub const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table1", table1),
    ("appendix-b", appendix_b),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig11", fig11),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("table2", table2),
    ("ablations", ablations),
    ("calibrate", calibrate),
];

/// The experiments `gnndrive repro all` runs, in order.
pub fn all() -> &'static [(&'static str, Experiment)] {
    &EXPERIMENTS[..12]
}

/// The experiment called `name`.
pub fn lookup(name: &str) -> Result<Experiment, UsageError> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
        .ok_or_else(|| {
            UsageError(format!(
                "unknown experiment {name}; `gnndrive repro list` names them"
            ))
        })
}

/// The entries of `every` named in the comma list `$var` (unknown names
/// are skipped), in `every`'s order; `None` when `$var` is unset.
fn env_selection<T: Copy + PartialEq>(
    var: &str,
    every: &[T],
    by_name: fn(&str) -> Option<T>,
) -> Option<Vec<T>> {
    let list = std::env::var(var).ok()?;
    let named: Vec<T> = list.split(',').filter_map(|s| by_name(s.trim())).collect();
    let mut picked = every.to_vec();
    picked.retain(|x| named.contains(x));
    Some(picked)
}

/// One row of an epoch-time sweep: build each of `systems` for `sc`,
/// train one epoch (after an untimed warm-up epoch when `warm`) and take
/// its time extrapolated to the full epoch — NaN, the paper's OOM cell,
/// when the build or the epoch fails, with the reason on stderr after
/// `label`. A warmed cell also reports the rows it loaded and reused.
fn epoch_secs(
    systems: &[SystemKind],
    sc: &Scenario,
    knobs: &EnvKnobs,
    warm: bool,
    label: &str,
) -> Vec<f64> {
    let ds = dataset_for(sc);
    let mut row = Vec::with_capacity(systems.len());
    for &kind in systems {
        let epoch = build_system(kind, sc, &ds).and_then(|mut sys| {
            if warm {
                // Warm one epoch so inter-batch locality can act, then measure.
                let _ = sys.train_epoch(0, knobs.max_batches);
            }
            let mut r = sys.train_epoch(u64::from(warm), knobs.max_batches);
            match r.error.take() {
                Some(e) => Err(e),
                None => Ok(r),
            }
        });
        row.push(match epoch {
            Ok(r) => {
                if warm {
                    eprintln!(
                        "{label} {}: loaded {} reused {}",
                        kind.name(),
                        r.nodes_loaded,
                        r.nodes_reused
                    );
                }
                r.extrapolated_wall().as_secs_f64()
            }
            Err(e) => {
                eprintln!("{label} {}: {e}", kind.name());
                f64::NAN
            }
        });
    }
    row
}

/// Table 1 — "A summary of datasets".
///
/// Prints, per mini dataset analog: node count, edge count, feature
/// dimension, class count, and on-SSD topology / feature / total sizes.
/// Paper sizes are GB; the ÷1000 analogs land in MB, so the paper's column
/// `Memory (GB)` is reported here as MB.
pub fn table1(knobs: &EnvKnobs) {
    let mut rows = Vec::new();
    for d in MiniDataset::ALL {
        let sc = Scenario::default_for(d, knobs);
        let ds = dataset_for(&sc);
        let topo_mb = ds.spec.topology_file_bytes() as f64 / 1e6;
        let feat_mb = ds.spec.feature_file_bytes() as f64 / 1e6;
        rows.push(
            Row::new(d.name())
                .cell(format!("{}", ds.spec.num_nodes))
                .cell(format!("{}", ds.spec.num_edges))
                .cell(format!("{}", ds.spec.feat_dim))
                .cell(format!("{}", ds.spec.num_classes))
                .cell(format!("{topo_mb:.1}"))
                .cell(format!("{feat_mb:.1}"))
                .cell(format!("{:.1}", topo_mb + feat_mb)),
        );
    }
    print_table(
        "Table 1: dataset summary (paper GB -> repro MB at 1/1000 scale)",
        &[
            "#Node", "#Edge", "Dim.", "#Class", "Topo.MB", "Feat.MB", "Tol.MB",
        ],
        &rows,
    );
}

const APPENDIX_B_FILE_MB: usize = 30; // the paper's 30 GB file ÷1000
const APPENDIX_B_RUN_MS: u64 = 400;

/// Sync random 512 B reads with `threads` workers for a fixed duration:
/// returns (bandwidth MB/s, mean latency µs).
fn run_sync(ssd: &Arc<SimSsd>, f: FileHandle, threads: usize, direct: bool) -> (f64, f64) {
    let stop = Instant::now() + Duration::from_millis(APPENDIX_B_RUN_MS);
    let ops = AtomicU64::new(0);
    let lat_nanos = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let ssd = Arc::clone(ssd);
            let ops = &ops;
            let lat_nanos = &lat_nanos;
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(t as u64);
                let mut buf = vec![0u8; 512];
                let sectors = APPENDIX_B_FILE_MB * 1024 * 1024 / 512;
                while Instant::now() < stop {
                    let off = rng.below(sectors) as u64 * 512;
                    let t0 = Instant::now();
                    if direct {
                        ssd.read_blocking(f, off, &mut buf, true).unwrap();
                    } else {
                        // Buffered sync read without a persistent cache:
                        // page-granular (4 KiB) like an uncached fault.
                        let mut page = vec![0u8; 4096];
                        let poff = off / 4096 * 4096;
                        let n = page.len().min((f.len - poff) as usize);
                        ssd.read_blocking(f, poff, &mut page[..n], false).unwrap();
                    }
                    ops.fetch_add(1, Ordering::Relaxed);
                    lat_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            });
        }
    });
    let n = ops.load(Ordering::Relaxed).max(1);
    let secs = APPENDIX_B_RUN_MS as f64 / 1e3;
    (
        n as f64 * 512.0 / 1e6 / secs,
        lat_nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1e3,
    )
}

/// Async random 512 B reads with one thread at `depth` in-flight requests:
/// returns (bandwidth MB/s, mean latency µs).
fn run_async(ssd: &Arc<SimSsd>, f: FileHandle, depth: usize, direct: bool) -> (f64, f64) {
    let stop = Instant::now() + Duration::from_millis(APPENDIX_B_RUN_MS);
    let mut rng = Rng::seed_from_u64(42);
    let mut ring = IoRing::new(Arc::clone(ssd), depth.max(1), direct);
    let sectors = APPENDIX_B_FILE_MB * 1024 * 1024 / 512;
    let (mut ops, mut lat_nanos) = (0u64, 0u64);
    let read_len = if direct { 512 } else { 4096 };
    let prepare = |ring: &mut IoRing, rng: &mut Rng| {
        let off = rng.below(sectors) as u64 * 512;
        let off = if direct { off } else { off / 4096 * 4096 };
        let len = read_len.min((f.len - off) as usize);
        ring.prepare_read(f, off, len, 0).is_ok()
    };
    for _ in 0..depth {
        prepare(&mut ring, &mut rng);
    }
    ring.submit();
    while Instant::now() < stop {
        let Ok(Some(c)) = ring.wait_completion() else {
            break;
        };
        ops += 1;
        lat_nanos += c.latency.as_nanos() as u64;
        prepare(&mut ring, &mut rng);
        ring.submit();
    }
    ring.drain(|_| {}).expect("drain benchmark ring");
    let secs = APPENDIX_B_RUN_MS as f64 / 1e3;
    (
        ops.max(1) as f64 * 512.0 / 1e6 / secs,
        lat_nanos as f64 / ops.max(1) as f64 / 1e3,
    )
}

/// Appendix B, Figure B.1 — synchronous multi-threaded I/O vs
/// asynchronous single-threaded I/O on the simulated SSD.
///
/// Randomly reads 512 B sectors of a large file in four configurations:
/// (a) sync bandwidth vs thread count, (b) async bandwidth vs I/O depth,
/// (c) sync mean latency vs thread count, (d) async mean latency vs I/O
/// depth — each in buffered and direct modes. The paper's findings to
/// reproduce: async with one thread matches multi-threaded sync bandwidth;
/// bandwidth saturates at the device's internal parallelism; latency grows
/// with queueing; buffered vs direct narrows at depth. Takes no knobs.
pub fn appendix_b(_: &EnvKnobs) {
    let ssd = SimSsd::new(SsdProfile::pm883());
    let f = ssd.create_file((APPENDIX_B_FILE_MB * 1024 * 1024) as u64);
    let threads = [1usize, 2, 4, 8, 16, 32, 64];
    let depths = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let columns = [
        "direct MB/s",
        "buffered MB/s",
        "direct lat us",
        "buffered lat us",
    ];

    let mut sync_points = Vec::new();
    for &t in &threads {
        let (bw_d, lat_d) = run_sync(&ssd, f, t, true);
        let (bw_b, lat_b) = run_sync(&ssd, f, t, false);
        sync_points.push((t as f64, vec![bw_d, bw_b, lat_d, lat_b]));
    }
    print_series(
        "Fig B.1 (a)+(c): synchronous I/O vs thread count",
        "threads",
        &columns,
        &sync_points,
    );

    let mut async_points = Vec::new();
    for &d in &depths {
        let (bw_d, lat_d) = run_async(&ssd, f, d, true);
        let (bw_b, lat_b) = run_async(&ssd, f, d, false);
        async_points.push((d as f64, vec![bw_d, bw_b, lat_d, lat_b]));
    }
    print_series(
        "Fig B.1 (b)+(d): asynchronous (ring) I/O vs I/O depth, one thread",
        "iodepth",
        &columns,
        &async_points,
    );

    // The paper's headline claims, checked mechanically.
    let sync1 = sync_points[0].1[0];
    let sync32 = sync_points[5].1[0];
    let async32 = async_points[5].1[0];
    println!("\nsummary:");
    println!("  sync  1 thread : {sync1:8.1} MB/s");
    println!("  sync 32 threads: {sync32:8.1} MB/s");
    println!("  async depth 32 : {async32:8.1} MB/s (single thread)");
    println!(
        "  async/multi-thread-sync ratio: {:.2} (paper: ~1, async matches)",
        async32 / sync32
    );
}

/// Figure 2 — sampling time under memory contention.
///
/// For PyG+, Ginex, and GNNDrive, measures per-epoch sampling time in two
/// configurations over feature dimensions 64–512:
///
/// * `-only`: the sample stage runs alone (no extraction pressure);
/// * `-all`: sampling time measured *while the full SET pipeline runs* —
///   extract-side memory pressure evicts topology pages and slows the
///   samplers.
///
/// The paper's shape: PyG+-all ≫ PyG+-only and the gap widens with
/// dimension (5.4× at dim 128); Ginex-only ≈ Ginex-all; GNNDrive's
/// sampling barely moves with dimension.
pub fn fig2(knobs: &EnvKnobs) {
    let dims = [64usize, 128, 256, 512];
    let systems = [
        SystemKind::PygPlus,
        SystemKind::Ginex,
        SystemKind::GnnDriveGpu,
    ];
    let mut points = Vec::new();
    for &dim in &dims {
        let mut ys = Vec::new();
        for kind in systems {
            let mut sc = Scenario::default_for(MiniDataset::Papers100M, knobs);
            sc.dim = dim;
            let ds = dataset_for(&sc);

            // `-only`: pure sampling epoch.
            let only = match build_system(kind, &sc, &ds) {
                Ok(mut sys) => sys.sample_only_epoch(0, knobs.max_batches).as_secs_f64(),
                Err(_) => f64::NAN,
            };
            // `-all`: run the full pipeline, report its accumulated
            // sample-stage time.
            let all = match build_system(kind, &sc, &ds) {
                Ok(mut sys) => {
                    let r = sys.train_epoch(0, knobs.max_batches);
                    if r.error.is_some() {
                        f64::NAN
                    } else {
                        r.sample_secs
                    }
                }
                Err(_) => f64::NAN,
            };
            ys.push(only);
            ys.push(all);
            eprintln!("dim {dim} {}: only={only:.3}s all={all:.3}s", kind.name());
        }
        points.push((dim as f64, ys));
    }
    print_series(
        "Fig 2: sampling time (s) vs feature dimension, papers100m-mini",
        "dim",
        &[
            "PyG+-only",
            "PyG+-all",
            "Ginex-only",
            "Ginex-all",
            "GNNDrive-only",
            "GNNDrive-all",
        ],
        &points,
    );
}

/// Figure 3 — CPU utilization, GPU utilization, and I/O-wait ratio over a
/// window of three epochs, for PyG+, Ginex, and MariusGNN.
///
/// Paper shape: PyG+ and Ginex show long high-iowait phases with CPU and
/// GPU near idle (synchronous loading); MariusGNN has a large iowait burst
/// at the start of each epoch (data preparation) and low iowait inside the
/// epoch.
pub fn fig3(knobs: &EnvKnobs) {
    let systems = [SystemKind::PygPlus, SystemKind::Ginex, SystemKind::Marius];
    utilization("Fig 3", "fig3", &systems, knobs);
}

/// Figure 11 — CPU utilization, GPU utilization, and I/O-wait ratio over
/// three epochs for GNNDrive (GPU- and CPU-based variants).
///
/// Paper shape: compared with Fig 3's baselines, GNNDrive's iowait ratio is
/// drastically lower (asynchronous extraction keeps CPUs off the wait
/// queue) and utilization is correspondingly higher and steadier.
pub fn fig11(knobs: &EnvKnobs) {
    let systems = [SystemKind::GnnDriveGpu, SystemKind::GnnDriveCpu];
    utilization("Fig 11", "fig11", &systems, knobs);
}

/// Figs 3 and 11: per system, three epochs on papers100m-mini / GraphSAGE
/// under the utilization monitor, printed as a `{fig}: …` series plus a
/// mean line and written as the run report `{report}_utilization.<system>`.
fn utilization(fig: &str, report: &str, systems: &[SystemKind], knobs: &EnvKnobs) {
    const EPOCHS: u64 = 3;
    let sc = Scenario::default_for(MiniDataset::Papers100M, knobs);
    let ds = dataset_for(&sc);

    for &kind in systems {
        let mut sys = match build_system(kind, &sc, &ds) {
            Ok(sys) => sys,
            Err(e) => {
                eprintln!("{}: build failed: {e}", kind.name());
                continue;
            }
        };
        reset();
        reset_metrics();
        set_gpu_count(1);
        let monitor = Monitor::start(Duration::from_millis(100));
        for e in 0..EPOCHS {
            let r = sys.train_epoch(e, knobs.max_batches);
            if let Some(err) = r.error {
                eprintln!("{}: {err}", kind.name());
                break;
            }
        }
        let series = monitor.stop();
        let points: Vec<(f64, Vec<f64>)> = series
            .iter()
            .map(|p| {
                (
                    p.t_secs,
                    vec![p.cpu_util * 100.0, p.gpu_util * 100.0, p.io_wait * 100.0],
                )
            })
            .collect();
        print_series(
            &format!("{fig}: utilization over 3 epochs — {}", kind.name()),
            "t (s)",
            &["CPU %", "GPU %", "iowait %"],
            &points,
        );
        // Aggregate summary row (easier to eyeball than the series).
        let n = series.len().max(1) as f64;
        let (c, g, w) = series.iter().fold((0.0, 0.0, 0.0), |acc, p| {
            (acc.0 + p.cpu_util, acc.1 + p.gpu_util, acc.2 + p.io_wait)
        });
        println!(
            "mean: cpu {:.1}%  gpu {:.1}%  iowait {:.1}%",
            c / n * 100.0,
            g / n * 100.0,
            w / n * 100.0
        );
        let mut run = collect_report(
            &format!("{report}_utilization.{}", slug(kind.name())),
            &scenario_desc(&sc),
            series,
        );
        run.add_scalar("epochs", EPOCHS as f64);
        run.add_scalar("mean_cpu_util", c / n);
        run.add_scalar("mean_gpu_util", g / n);
        run.add_scalar("mean_io_wait", w / n);
        write_report(&run);
    }
}

/// Figure 8 — epoch runtime vs feature dimension (64–512), for every
/// dataset × model × system combination.
///
/// Paper shape to reproduce: GNNDrive-GPU wins nearly everywhere; PyG+ is
/// far more dimension-sensitive than the others (7× from 64→512 on
/// MAG240M); at small dims on small datasets (Twitter/Friendster) PyG+
/// closes in because the page cache can hold the whole feature file;
/// GNNDrive-CPU lags GPU most for GAT.
///
/// Datasets/models can be narrowed: `REPRO_DATASETS=papers100m-mini,...`
/// `REPRO_MODELS=GraphSAGE,GCN,GAT`.
pub fn fig8(knobs: &EnvKnobs) {
    let dims = [64usize, 128, 256, 512];
    let datasets = env_selection("REPRO_DATASETS", &MiniDataset::ALL, dataset_by_name)
        .unwrap_or_else(|| MiniDataset::ALL.to_vec());
    let models = env_selection("REPRO_MODELS", &ModelKind::ALL, model_by_name)
        .unwrap_or_else(|| ModelKind::ALL.to_vec());
    for dataset in datasets {
        for &model in &models {
            let mut points = Vec::new();
            for &dim in &dims {
                let mut sc = Scenario::default_for(dataset, knobs);
                sc.dim = dim;
                sc.model = model;
                if model == ModelKind::Gat {
                    // Paper: GAT samples (10,10,5); scaled (4,4,2).
                    sc.fanouts = vec![4, 4, 2];
                }
                let label = format!("{} {} dim{dim}", dataset.name(), model.name());
                let ys = epoch_secs(&SystemKind::MAIN_FOUR, &sc, knobs, false, &label);
                points.push((dim as f64, ys));
            }
            print_series(
                &format!(
                    "Fig 8: epoch time (s) vs dim — {} / {}",
                    dataset.name(),
                    model.name()
                ),
                "dim",
                &["PyG+", "Ginex", "GNNDrive-GPU", "GNNDrive-CPU"],
                &points,
            );
        }
    }
}

/// Figure 9 — epoch runtime vs host-memory capacity (8–128 GB, scaled),
/// with the large feature dimension (512).
///
/// Paper shape: all systems improve with more memory; PyG+ is the most
/// memory-sensitive (page cache); Ginex OOMs at 8 GB on Twitter; GNNDrive
/// barely moves beyond 32 GB because its extract-side footprint is fixed;
/// even at 8 GB GNNDrive-GPU stays far ahead of PyG+. `REPRO_DATASETS`
/// replaces the default papers100m-mini and twitter-mini.
pub fn fig9(knobs: &EnvKnobs) {
    let memories = [8u64, 16, 32, 64, 128];
    let datasets = env_selection("REPRO_DATASETS", &MiniDataset::ALL, dataset_by_name)
        .unwrap_or_else(|| vec![MiniDataset::Papers100M, MiniDataset::Twitter]);
    for dataset in datasets {
        let mut points = Vec::new();
        for &gb in &memories {
            let mut sc = Scenario::default_for(dataset, knobs);
            sc.dim = 512;
            sc.memory_gb = gb;
            let label = format!("{} {}GB", dataset.name(), gb);
            let ys = epoch_secs(&SystemKind::MAIN_FOUR, &sc, knobs, false, &label);
            points.push((gb as f64, ys));
        }
        print_series(
            &format!(
                "Fig 9: epoch time (s) vs memory (paper-GB), dim 512 — {} (NaN = OOM)",
                dataset.name()
            ),
            "mem GB",
            &["PyG+", "Ginex", "GNNDrive-GPU", "GNNDrive-CPU"],
            &points,
        );
    }
}

/// Figure 10 — epoch runtime vs mini-batch size.
///
/// The paper sweeps 500–4000 (default 1000); at the reproduction's ÷31
/// batch scale that is 16–128 (default 32). Paper shape: Ginex and
/// GNNDrive improve with larger batches (fewer per epoch); PyG+
/// fluctuates — larger batches demand more extract-side memory, which
/// fights its page-cached sampling; PyG+ OOMs at the largest batch on
/// Friendster with GAT.
pub fn fig10(knobs: &EnvKnobs) {
    let batches = [16usize, 32, 64, 128];
    let scenarios = [
        (MiniDataset::Papers100M, ModelKind::GraphSage),
        (MiniDataset::Friendster, ModelKind::Gat),
    ];
    let systems = [
        SystemKind::PygPlus,
        SystemKind::Ginex,
        SystemKind::GnnDriveGpu,
    ];
    for (dataset, model) in scenarios {
        let mut points = Vec::new();
        for &bs in &batches {
            let mut sc = Scenario::default_for(dataset, knobs);
            sc.model = model;
            sc.batch_size = bs;
            if model == ModelKind::Gat {
                sc.fanouts = vec![4, 4, 2];
            }
            let label = format!("{} {} bs{bs}", dataset.name(), model.name());
            let ys = epoch_secs(&systems, &sc, knobs, false, &label);
            points.push((bs as f64, ys));
        }
        print_series(
            &format!(
                "Fig 10: epoch time (s) vs mini-batch size — {} / {} (NaN = OOM)",
                dataset.name(),
                model.name()
            ),
            "batch",
            &["PyG+", "Ginex", "GNNDrive-GPU"],
            &points,
        );
    }
}

/// Figure 12 — GNNDrive epoch runtime vs feature-buffer size (1×–8× of
/// the default).
///
/// Paper shape: doubling the buffer helps (inter-batch locality: ~1.4×
/// on Twitter/GraphSAGE for the GPU variant), but beyond 2× the gains
/// flatten as management overheads offset the extra hits.
pub fn fig12(knobs: &EnvKnobs) {
    let multipliers = [1usize, 2, 4, 8];
    let datasets = [MiniDataset::Twitter, MiniDataset::Papers100M];
    let systems = [SystemKind::GnnDriveGpu, SystemKind::GnnDriveCpu];
    for dataset in datasets {
        let mut points = Vec::new();
        for &m in &multipliers {
            let mut sc = Scenario::default_for(dataset, knobs);
            let base = feature_buffer_slots_for(&sc, 4);
            sc.fb_slots_override = Some(base * m);
            let ys = epoch_secs(&systems, &sc, knobs, true, &format!("{m}x"));
            points.push((m as f64, ys));
        }
        print_series(
            &format!(
                "Fig 12: GNNDrive epoch time (s) vs feature-buffer size — {}",
                dataset.name()
            ),
            "x default",
            &["GNNDrive-GPU", "GNNDrive-CPU"],
            &points,
        );
    }
}

/// Figure 13 — GNNDrive scalability with multiple devices.
///
/// The paper's machine: eight Tesla K80s, two old Xeons, an Intel S3510
/// SSD, 256 GB host memory. Paper shape: 2 subprocesses ≈ 1.7–1.8×
/// speedup; returns diminish with more workers (gradient-sync overhead and
/// the shared SSD), flattening around 6.
pub fn fig13(knobs: &EnvKnobs) {
    let workers_sweep = [1usize, 2, 4, 6, 8];
    let mut sc = Scenario::default_for(MiniDataset::Mag240M, knobs);
    sc.ssd = SsdProfile::s3510_repro();
    let ds = dataset_for(&sc);

    for gpu in [true, false] {
        let mut points = Vec::new();
        for &w in &workers_sweep {
            let run = || -> Result<f64, String> {
                let mut pipelines = build_gnndrive_workers(&sc, &ds, w, gpu, true)?;
                // Split the training set into equal segments.
                let segments =
                    gnndrive_core::parallel::split_segments(&ds.train_idx, w, sc.batch_size)
                        .map_err(|e| e.to_string())?;
                for (p, seg) in pipelines.iter_mut().zip(segments) {
                    p.set_train_segment(seg);
                }
                let pcfg = ParallelConfig {
                    workers: w,
                    ..Default::default()
                };
                let per_worker_cap = knobs.max_batches.map(|m| (m / w).max(2));
                let report = run_data_parallel(&mut pipelines, &pcfg, 0, per_worker_cap);
                for (worker, msg) in &report.failed {
                    eprintln!("{w} workers (gpu={gpu}): worker {worker} failed: {msg}");
                }
                // Extrapolate: measured wall covers cap×w batches of
                // the full epoch.
                let full: usize = report.per_worker.iter().map(|r| r.full_batches).sum();
                let done: usize = report.per_worker.iter().map(|r| r.batches).sum();
                Ok(report.epoch_wall.as_secs_f64() * full.max(1) as f64 / done.max(1) as f64)
            };
            let y = run().unwrap_or_else(|e| {
                eprintln!("{w} workers (gpu={gpu}): {e}");
                f64::NAN
            });
            eprintln!("workers={w} gpu={gpu}: epoch {y:.2}s");
            points.push((w as f64, vec![y]));
        }
        print_series(
            &format!(
                "Fig 13: epoch time (s) vs workers — mag240m-mini / GraphSAGE / {} (K80-era)",
                if gpu { "GPU" } else { "CPU" }
            ),
            "workers",
            &["epoch s"],
            &points,
        );
        let base = points[0].1[0];
        let two = points[1].1[0];
        println!("speedup at 2 workers: {:.2}x (paper: 1.7-1.8x)", base / two);
    }
}

/// Figure 14 — time-to-accuracy with GraphSAGE on Papers100M and MAG240M.
///
/// Verifies the §5.3 claims: GNNDrive's mini-batch reordering does not
/// hurt convergence (it reaches the common accuracy target in similar or
/// fewer epochs), and the wall-clock ordering is
/// GNNDrive-GPU < GNNDrive-CPU < Ginex < PyG+. Every system trains real
/// models on the planted-label datasets; accuracy is measured by the
/// shared offline evaluator after each epoch. `REPRO_CONV_EPOCHS` sets
/// the epochs per curve (default 6).
pub fn fig14(knobs: &EnvKnobs) {
    let epochs = std::env::var("REPRO_CONV_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6u64);
    let datasets = [MiniDataset::Papers100M, MiniDataset::Mag240M];
    let systems = [
        SystemKind::GnnDriveGpu,
        SystemKind::GnnDriveCpu,
        SystemKind::Ginex,
        SystemKind::PygPlus,
    ];

    for dataset in datasets {
        let sc = Scenario::default_for(dataset, knobs);
        let ds = dataset_for(&sc);
        for kind in systems {
            match build_system(kind, &sc, &ds) {
                Ok(mut sys) => {
                    let mut points = vec![(0.0, vec![sys.evaluate() * 100.0])];
                    let mut clock = 0.0f64;
                    for e in 0..epochs {
                        let r = sys.train_epoch(e, knobs.max_batches);
                        if let Some(err) = r.error {
                            eprintln!("{} {}: {err}", dataset.name(), kind.name());
                            break;
                        }
                        // Time axis uses the extrapolated epoch cost so the
                        // curve reflects full-epoch pacing.
                        clock += r.extrapolated_wall().as_secs_f64();
                        points.push((clock, vec![sys.evaluate() * 100.0]));
                    }
                    print_series(
                        &format!(
                            "Fig 14: accuracy (%) vs training time — {} / {}",
                            dataset.name(),
                            kind.name()
                        ),
                        "t (s)",
                        &["val acc %"],
                        &points,
                    );
                }
                Err(e) => eprintln!("{} {}: build failed: {e}", dataset.name(), kind.name()),
            }
        }

        // Reordering ablation: GNNDrive with reordering disabled must reach
        // the same accuracy (the §5.3 correctness claim).
        let mut on = build_system(SystemKind::GnnDriveGpu, &sc, &ds).expect("build");
        let mut accs = Vec::new();
        for e in 0..epochs {
            on.train_epoch(e, knobs.max_batches);
            accs.push(on.evaluate());
        }
        println!(
            "\nreordering-on final accuracy ({}): {:.1}%",
            dataset.name(),
            accs.last().unwrap() * 100.0
        );
    }
}

/// One Table 2 cell triple (prep, train, overall seconds per epoch), or
/// `OOM` in all three when the build or the epoch fails.
fn table2_cells(kind: SystemKind, sc: &Scenario, knobs: &EnvKnobs) -> [String; 3] {
    let ds = dataset_for(sc);
    let mut sys = match build_system(kind, sc, &ds) {
        Ok(sys) => sys,
        Err(e) => {
            eprintln!("{} build: {e}", kind.name());
            return ["OOM".into(), "OOM".into(), "OOM".into()];
        }
    };
    let r = sys.train_epoch(0, knobs.max_batches);
    if let Some(e) = r.error {
        eprintln!("{}: {e}", kind.name());
        return ["OOM".into(), "OOM".into(), "OOM".into()];
    }
    let scale = r.full_batches.max(1) as f64 / r.batches.max(1) as f64;
    let train = (r.wall.as_secs_f64() - r.prep_secs).max(0.0) * scale;
    let prep = r.prep_secs; // once per epoch, not per batch
    [
        if prep > 0.0 {
            format!("{prep:.2}")
        } else {
            "N/A".into()
        },
        format!("{train:.2}"),
        format!("{:.2}", prep + train),
    ]
}

/// Table 2 — MariusGNN vs GNNDrive: data preparation, training, and
/// overall per-epoch time; OOM outcomes for MAG240M.
///
/// Paper shape: GNNDrive-GPU beats MariusGNN's *training* time and beats
/// its *overall* time by more (mandatory data preparation sits on the
/// critical path: 46% of MariusGNN's epoch at 32 GB); MariusGNN OOMs on
/// MAG240M at 32 GB *and* at 128 GB (prep-time OOM), while GNNDrive
/// finishes even at 8 GB.
pub fn table2(knobs: &EnvKnobs) {
    let configs = [
        ("GNNDrive-GPU", SystemKind::GnnDriveGpu, 32),
        ("GNNDrive-CPU", SystemKind::GnnDriveCpu, 32),
        ("PyG+", SystemKind::PygPlus, 32),
        ("Ginex", SystemKind::Ginex, 32),
        ("MariusGNN-32G", SystemKind::Marius, 32),
        ("MariusGNN-128G", SystemKind::Marius, 128),
    ];
    let mut rows = Vec::new();
    for (label, kind, gb) in configs {
        let mut row = Row::new(label);
        for dataset in [MiniDataset::Papers100M, MiniDataset::Mag240M] {
            let mut sc = Scenario::default_for(dataset, knobs);
            sc.memory_gb = gb;
            for cell in table2_cells(kind, &sc, knobs) {
                row = row.cell(cell);
            }
        }
        rows.push(row);
    }
    print_table(
        "Table 2: per-epoch runtime (s) — columns: Papers100M [prep, train, overall], MAG240M [prep, train, overall]",
        &["P-prep", "P-train", "P-all", "M-prep", "M-train", "M-all"],
        &rows,
    );
}

/// Ablations of GNNDrive's design choices (DESIGN.md §3): each row removes
/// one mechanism and re-measures the epoch.
///
/// * `default` — async extraction, direct I/O, joint extraction, reordering
/// * `sync-extract` — the same loop with one read in flight and the
///   host→device copies paid inline (𝔒2 restored)
/// * `buffered-io` — page-cache feature loads instead of direct I/O (the
///   memory-contention path, 𝔒1 partially restored)
/// * `no-joint` — one request per row even for sub-sector rows (only
///   meaningful for dim < 128)
/// * `no-reorder` — trainer consumes mini-batches in submission order
/// * `gpu-direct` — the paper's future-work GDS path: no staging hop,
///   4 KiB granularity
pub fn ablations(knobs: &EnvKnobs) {
    // dim 64 so joint extraction has sub-sector rows to coalesce.
    let mut sc = Scenario::default_for(MiniDataset::Papers100M, knobs);
    sc.dim = 64;
    let ablations: [(&str, Ablation); 6] = [
        ("default", |_| {}),
        ("sync-extract", |c| c.sync_extract = true),
        ("buffered-io", |c| c.direct_io = false),
        ("no-joint", |c| c.max_joint_read_bytes = 0),
        ("no-reorder", |c| c.reorder = false),
        ("gpu-direct", |c| c.gpu_direct = true),
    ];
    let mut rows = Vec::new();
    for (name, mutate) in ablations {
        match ablation_epoch_secs(&sc, mutate, knobs) {
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

/// One config mutation, applied to a fresh default `GnnDriveConfig`.
type Ablation = fn(&mut GnnDriveConfig);

/// One ablation row: a GNNDrive-GPU epoch under `mutate`d defaults.
fn ablation_epoch_secs(sc: &Scenario, mutate: Ablation, knobs: &EnvKnobs) -> Result<f64, String> {
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

/// Calibration probe: measures per-batch stage costs for every system on
/// one scenario so the simulation scales (SSD profile, compute rates,
/// buffer sizes) can be sanity-checked against the paper's shape
/// (extract ≫ sample ≈ train; GNNDrive ≫ baselines).
pub fn calibrate(knobs: &EnvKnobs) {
    let sc = Scenario::default_for(MiniDataset::Papers100M, knobs);
    eprintln!(
        "calibrating on {} scale={} dim={} budget={} MiB",
        sc.dataset.name(),
        sc.scale,
        sc.dim,
        sc.budget_bytes() / (1024 * 1024)
    );
    let t0 = Instant::now();
    let ds = dataset_for(&sc);
    eprintln!(
        "dataset built in {:?}: {} nodes, {} edges, train {}",
        t0.elapsed(),
        ds.spec.num_nodes,
        ds.spec.num_edges,
        ds.train_idx.len()
    );

    let mut rows = Vec::new();
    for kind in SystemKind::ALL {
        let t0 = Instant::now();
        match build_system(kind, &sc, &ds) {
            Ok(mut sys) => {
                let r = sys.train_epoch(0, knobs.max_batches);
                let per_batch = r.wall.as_secs_f64() / r.batches.max(1) as f64;
                rows.push(
                    Row::new(kind.name())
                        .cell(format!("{}", r.batches))
                        .secs(r.wall.as_secs_f64())
                        .secs(per_batch)
                        .secs(r.extrapolated_wall().as_secs_f64())
                        .secs(r.sample_secs)
                        .secs(r.extract_secs)
                        .secs(r.train_secs)
                        .secs(r.prep_secs)
                        .cell(format!("{:.1}", r.bytes_read as f64 / 1e6))
                        .cell(r.error.clone().unwrap_or_default()),
                );
                eprintln!("{}: {:?} total", kind.name(), t0.elapsed());
            }
            Err(e) => rows.push(Row::new(kind.name()).cell(format!("build failed: {e}"))),
        }
    }
    print_table(
        "calibration (papers100m-mini, GraphSAGE)",
        &[
            "batches",
            "wall_s",
            "s/batch",
            "epoch_s",
            "sample_s",
            "extract_s",
            "train_s",
            "prep_s",
            "MB_read",
            "err",
        ],
        &rows,
    );
}
