//! End-to-end tests of the GNNDrive pipeline on a small on-SSD dataset.

use gnndrive_core::config::EXTRACT_QUEUE_CAP;
use gnndrive_core::extractor::ExtractorContext;
use gnndrive_core::{
    extract_batch, FeatureBufferManager, GnnDriveConfig, Pipeline, TrainingSystem,
};
use gnndrive_device::{FeatureSlab, GpuDevice};
use gnndrive_graph::{Dataset, DatasetSpec};
use gnndrive_nn::ModelKind;
use gnndrive_sampling::{InMemTopo, NeighborSampler};
use gnndrive_storage::{
    DeviceHealth, FaultPlan, HealthConfig, IoPriority, MemoryGovernor, PageCache, RetryPolicy,
    SimSsd, SsdProfile,
};
use std::sync::Arc;

fn dataset(dim: usize) -> Arc<Dataset> {
    dataset_on(dim, SsdProfile::instant())
}

fn dataset_on(dim: usize, profile: SsdProfile) -> Arc<Dataset> {
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
        SimSsd::new(profile),
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
fn in_order_mode_skips_failed_batches_and_keeps_plan_order() {
    // One extractor with one read in flight and no retries: a batch fails
    // when its read and the blocking re-read behind it both fault, so a
    // four-read fault window fails exactly two batches. Two samplers still
    // hand batches over out of plan order; the trainer must skip the two
    // tombstones and train the survivors in plan order.
    let ds = dataset(32);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let cfg = GnnDriveConfig {
        reorder: false,
        batch_size: 25,
        num_extractors: 1,
        sync_extract: true,
        retry: RetryPolicy::none(),
        ..config()
    };
    let mut p = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .unwrap();
    ds.ssd.set_fault_plan(
        FaultPlan::new(0)
            .with_read_fault_every(1)
            .in_window(10..14)
            .on_file(ds.features_file.id),
    );
    let stats = p.train_epoch_range(0, 0, Some(12));
    ds.ssd.clear_faults();
    let r = &stats.report;
    assert!(r.full_batches >= 12, "the plan must cover the range");
    assert_eq!(r.failed_batches, 2, "{r:?}");
    assert_eq!(r.batches + r.failed_batches, 12);
    assert_eq!(stats.batch_attribution.len(), r.batches);
    let order: Vec<u64> = stats.batch_attribution.iter().map(|a| a.batch).collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "survivors must train in plan order: {order:?}"
    );
    assert!(r.error.is_some(), "a skipped batch must be reported");
    p.feature_buffer().check_invariants();

    let clean = p.train_epoch_range(1, 0, Some(12)).report;
    assert!(clean.error.is_none(), "{:?}", clean.error);
    assert_eq!((clean.batches, clean.failed_batches), (12, 0));
}

/// Samplers run past the extract queue's `EXTRACT_QUEUE_CAP` places only
/// on governor charges. With no headroom the horizon never holds more than
/// the places; with headroom it runs further. Either way every charge is
/// back by the end of an epoch that ends normally, one cut short by
/// `max_batches`, and one that skips tombstoned batches.
#[test]
fn samplers_run_ahead_only_on_charges_and_return_them() {
    for headroom in [false, true] {
        // A modeled SSD and one serial extractor: extraction is the slow
        // stage, so samplers get ahead of it whenever they may.
        let ds = dataset_on(32, SsdProfile::pm883_repro());
        let gov = MemoryGovernor::new(64 << 20);
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
        let cfg = GnnDriveConfig {
            batch_size: 25,
            num_extractors: 1,
            sync_extract: true,
            retry: RetryPolicy::none(),
            ..config()
        };
        let mut p = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
            .with_model(ModelKind::GraphSage, 16)
            .with_config(cfg)
            .with_governor(Arc::clone(&gov))
            .with_page_cache(cache)
            .build()
            .unwrap();
        let _rest = (!headroom).then(|| gov.charge(gov.available()).unwrap());
        let before = gov.used_anonymous();
        let mut epoch = |e: u64, max_batches: Option<usize>, faults: bool| {
            if faults {
                ds.ssd.set_fault_plan(
                    FaultPlan::new(0)
                        .with_read_fault_every(1)
                        .in_window(10..14)
                        .on_file(ds.features_file.id),
                );
            }
            let stats = p.train_epoch_range(e, 0, max_batches);
            ds.ssd.clear_faults();
            assert_eq!(gov.used_anonymous(), before, "epoch {e}: a charge leaked");
            assert_eq!(p.feature_buffer().announced_rows(), 0);
            p.feature_buffer().check_invariants();
            let r = &stats.report;
            assert_eq!(
                r.batches + r.failed_batches,
                max_batches.unwrap_or(r.full_batches)
            );
            (stats.horizon_peak, r.failed_batches)
        };
        let (whole, _) = epoch(0, None, false);
        let (cut, _) = epoch(1, Some(10), false);
        let (faulty, failed) = epoch(2, None, true);
        assert_eq!(failed, 2, "the fault window fails two batches");
        for peak in [whole, cut, faulty] {
            assert!(peak >= 1);
            if !headroom {
                assert!(
                    peak <= EXTRACT_QUEUE_CAP,
                    "no headroom, yet {peak} batches were announced"
                );
            }
        }
        if headroom {
            assert!(
                whole > EXTRACT_QUEUE_CAP,
                "with headroom the samplers run ahead: {whole}"
            );
        }
    }
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
    // Every 5th feature read fails once; blocking-read retries under the
    // default policy recover and the epoch completes without error. One
    // extractor with one read in flight makes that exact: a faulted read's
    // retry is the very next read, so it never lands on the next faulted
    // ordinal (with two extractors the other's reads can fall between the
    // attempts, and now and then three faults in a row fail the batch).
    let mut p = build(true, 32, config());
    let ds = dataset(32);
    let _ = ds; // the pipeline holds its own dataset; fetch its SSD below
                // Rebuild with a handle we can poke.
    let ds = dataset(32);
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    let cfg = GnnDriveConfig {
        num_extractors: 1,
        sync_extract: true,
        ..config()
    };
    let mut p2 = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .unwrap();
    ds.ssd.set_fault_plan(
        FaultPlan::new(0)
            .with_read_fault_every(5)
            .on_file(ds.features_file.id),
    );
    let retries = &gnndrive_telemetry::catalog::CORE_EXTRACT_RETRIES;
    let retries_before = retries.get();
    let report = p2.train_epoch(0, Some(6));
    ds.ssd.clear_faults();
    assert!(
        report.error.is_none(),
        "transient faults should be retried: {:?}",
        report.error
    );
    assert_eq!(report.batches, 6);
    assert!(
        retries.get() > retries_before,
        "faults must have been retried"
    );
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

/// Read planning, counted over one epoch of extraction: on `pm883_repro`,
/// whose ops cost more than the link bytes between scattered rows, the
/// epoch issues fewer device ops than touching-only planning would, which
/// is itself at most one op per loaded node; on an instant device (no
/// per-op cost) the same epoch issues exactly the touching-only count.
/// Batches extract one after another into a buffer larger than the graph,
/// so each batch loads exactly the nodes no earlier batch did, whatever
/// the device.
#[test]
fn epoch_read_ops_follow_the_device_op_cost() {
    const ROWS_PER_OP: usize = 16 * 1024 / 512;
    let epoch = |profile: SsdProfile| {
        let ds = dataset_on(128, profile); // 512 B rows: one sector each
        let cfg = GnnDriveConfig::default();
        let slab = Arc::new(FeatureSlab::new(4096, ds.spec.feat_dim));
        let fb = Arc::new(FeatureBufferManager::new(slab, ds.spec.num_nodes, &cfg));
        let ctx = ExtractorContext {
            ssd: Arc::clone(&ds.ssd),
            features_file: ds.features_file,
            remap: None,
            feat_dim: ds.spec.feat_dim,
            fb: Arc::clone(&fb),
            staging: None,
            transfer: None,
            direct_io: true,
            gpu_direct: false,
            sync_extract: false,
            ring_depth: cfg.ring_depth,
            max_joint_read_bytes: ROWS_PER_OP * 512,
            retry: RetryPolicy::default(),
            health: Arc::new(DeviceHealth::new(HealthConfig::default())),
            io_priority: IoPriority::Bulk,
        };
        let sampler = NeighborSampler::new(
            Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
            vec![4, 4],
        );
        let mut seen = vec![false; ds.spec.num_nodes];
        let (mut ops, mut loaded, mut touching) = (0, 0, 0);
        for (b, seeds) in ds.train_idx.chunks(50).enumerate() {
            let sample = sampler.sample(b as u64, seeds, 5);
            let mut fresh: Vec<u32> = sample
                .input_nodes
                .iter()
                .copied()
                .filter(|&v| !std::mem::replace(&mut seen[v as usize], true))
                .collect();
            fresh.sort_unstable();
            // Touching-only planning: one op per run of consecutive rows,
            // split at the request cap.
            for run in fresh.chunk_by(|a, b| a + 1 == *b) {
                touching += run.len().div_ceil(ROWS_PER_OP) as u64;
            }
            let before = ds.ssd.stats().snapshot().read_ops;
            let batch = extract_batch(&ctx, sample).expect("clean device");
            ops += ds.ssd.stats().snapshot().read_ops - before;
            assert_eq!(batch.loaded_nodes, fresh.len(), "batch {b}");
            loaded += batch.loaded_nodes as u64;
            fb.release(&batch.sample.input_nodes);
        }
        fb.check_invariants();
        (ops, loaded, touching)
    };
    let (ops, loaded, touching) = epoch(SsdProfile::pm883_repro());
    assert!(
        ops < touching && touching <= loaded,
        "pm883_repro: {ops} ops, {touching} touching-only, {loaded} nodes"
    );
    let (ops, _, touching) = epoch(SsdProfile::instant());
    assert_eq!(ops, touching, "instant: touching-only planning");
}
