//! Chaos e2e: training under seeded storage fault storms.
//!
//! Acceptance properties of the fault-tolerance and data-integrity
//! subsystems: an epoch completes (with correct accounting and visible
//! retry/skip telemetry) under a ≥5% read-fault + latency-spike plan;
//! persistent failures degrade gracefully into skipped batches instead of
//! hangs or panics, and training recovers once the storm clears; a mid-run
//! checkpoint resumes to bit-identical final weights; a *silently*
//! bit-rotting device is fully caught by checksum verification (every
//! corruption detected, zero poisoned extractions, the loss trajectory
//! identical to a clean run); and the device-health circuit breaker trips
//! on an error burst, fails batches fast, and recovers via a half-open
//! probe.

use gnndrive::prelude::*;
use gnndrive::telemetry::catalog;
use std::sync::Arc;
use std::time::Duration;

/// The integrity counters (`storage.integrity.*`) are process-global, and
/// the corruption tests assert exact detected == injected equality on
/// their deltas — so tests that inject silent corruption serialize on this
/// gate to keep each other's increments out of their windows.
static INTEGRITY_GATE: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

/// A small planted-label dataset on its own simulated SSD, so each test's
/// fault plan cannot leak into a neighbor running in the same process.
fn dataset_on(profile: SsdProfile, seed: u64) -> Arc<Dataset> {
    let ssd = SimSsd::new(profile);
    Arc::new(Dataset::build(
        DatasetSpec {
            name: format!("chaos-{seed}"),
            num_nodes: 4_000,
            num_edges: 40_000,
            feat_dim: 32,
            num_classes: 8,
            intra_prob: 0.8,
            feature_signal: 1.3,
            train_fraction: 0.2,
            seed,
        },
        ssd,
    ))
}

fn dataset(seed: u64) -> Arc<Dataset> {
    dataset_on(SsdProfile::pm883_repro(), seed)
}

fn chaos_cfg(reorder: bool, retry: RetryPolicy) -> GnnDriveConfig {
    GnnDriveConfig {
        reorder,
        retry,
        fanouts: vec![4, 4],
        batch_size: 32,
        feature_buffer_slots: 16_384,
        seed: 7,
        ..Default::default()
    }
}

fn pipeline_cfg(ds: &Arc<Dataset>, cfg: GnnDriveConfig) -> Pipeline {
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .expect("pipeline")
}

fn pipeline(ds: &Arc<Dataset>, reorder: bool, retry: RetryPolicy) -> Pipeline {
    pipeline_cfg(ds, chaos_cfg(reorder, retry))
}

#[test]
fn epoch_completes_under_seeded_fault_storm() {
    let ds = dataset(1);
    ds.ssd.set_fault_plan(
        FaultPlan::new(0xC4A05)
            .with_read_fault_prob(0.05)
            .with_latency_spikes(0.10, Duration::from_micros(200))
            .on_file(ds.features_file.id),
    );
    let faults_before = catalog::STORAGE_FAULTS.get();
    let spikes_before = catalog::STORAGE_LATENCY_SPIKES.get();
    // Faults may be absorbed at either layer: the page cache retries its
    // own degraded device reads, and only faults on the direct-I/O path
    // reach the extractor's retry loop. Which layer fires depends on where
    // the seeded faults land, so the assertion below sums both.
    let retries_before = catalog::CORE_EXTRACT_RETRIES.get() + catalog::PAGE_CACHE_RETRIES.get();

    // Extra attempts: at 5% per read the default 3 still loses the odd
    // batch; 6 makes completed-epoch progress all but certain while the
    // accounting below stays valid either way.
    let mut p = pipeline(&ds, true, RetryPolicy::default().with_max_attempts(6));
    let monitor = telemetry::Monitor::start(Duration::from_millis(10));
    let r = p.train_epoch(0, Some(10));
    let series = monitor.stop();
    ds.ssd.clear_faults();

    // Accounting must balance: every planned batch is either trained or
    // explicitly recorded as skipped — never silently lost.
    assert_eq!(
        r.batches + r.failed_batches,
        r.full_batches.min(10),
        "trained + skipped must cover the planned range: {r:?}"
    );
    assert!(r.batches >= 8, "storm should not stop the epoch: {r:?}");
    assert!(r.loss.is_finite() && r.loss > 0.0);
    assert!(
        catalog::STORAGE_FAULTS.get() > faults_before,
        "the 5% plan must actually fire"
    );
    assert!(
        catalog::STORAGE_LATENCY_SPIKES.get() > spikes_before,
        "the latency-spike plan must actually fire"
    );
    assert!(
        catalog::CORE_EXTRACT_RETRIES.get() + catalog::PAGE_CACHE_RETRIES.get() > retries_before,
        "injected faults must surface as extractor or page-cache retries"
    );

    // The retry/skip story must be visible in the run-report artifact.
    let report = gnndrive_bench::collect_report("chaos.fault_storm", "chaos e2e", series);
    let text = report.to_json().to_json_string();
    let parsed = telemetry::RunReport::parse(&text).expect("valid report JSON");
    let names = parsed.metric_names();
    for required in [
        catalog::STORAGE_FAULTS.name(),
        catalog::STORAGE_LATENCY_SPIKES.name(),
        catalog::CORE_EXTRACT_RETRIES.name(),
        catalog::PIPELINE_BATCHES_SKIPPED.name(),
        catalog::PIPELINE_BATCHES_TRAINED.name(),
    ] {
        assert!(
            names.contains(&required),
            "run report must carry {required}: {names:?}"
        );
    }
}

#[test]
fn persistent_failures_degrade_gracefully_and_recover() {
    let ds = dataset(2);
    ds.ssd.set_fault_plan(
        FaultPlan::new(9)
            .with_read_fault_prob(1.0)
            .on_file(ds.features_file.id),
    );
    let skipped_before = catalog::PIPELINE_BATCHES_SKIPPED.get();

    let mut p = pipeline(&ds, true, RetryPolicy::none());
    let r = p.train_epoch(0, Some(4));
    assert_eq!(r.batches, 0, "no batch can train through a total storm");
    assert_eq!(r.failed_batches, r.full_batches.min(4));
    assert!(r.error.is_some(), "the first failure must be reported");
    assert!(
        catalog::PIPELINE_BATCHES_SKIPPED.get() >= skipped_before + 4,
        "skips must be counted"
    );

    // The same pipeline recovers as soon as the storm clears: the feature
    // buffer was left consistent by every aborted batch.
    ds.ssd.clear_faults();
    let r2 = p.train_epoch(1, Some(4));
    assert!(r2.error.is_none(), "{:?}", r2.error);
    assert_eq!(r2.batches, r2.full_batches.min(4));
    assert_eq!(r2.failed_batches, 0);
}

#[test]
fn checkpoint_resume_reaches_identical_weights() {
    let ds = dataset(3);
    // reorder=false restores submission order, making the trajectory a
    // pure function of (weights, optimizer state, batch plan) — exactly
    // what a checkpoint freezes.
    let mut uninterrupted = pipeline(&ds, false, RetryPolicy::default());
    let mut interrupted = pipeline(&ds, false, RetryPolicy::default());

    let r = uninterrupted.train_epoch(0, Some(12));
    assert!(r.error.is_none(), "{:?}", r.error);

    // Train half the range, snapshot, and round-trip the snapshot through
    // its serialized container — the path a crash-recovery actually takes.
    let first = interrupted.train_epoch_range(0, 0, Some(6)).report;
    assert!(first.error.is_none(), "{:?}", first.error);
    let ck = interrupted.checkpoint(0, 6);
    let ck = TrainCheckpoint::from_bytes(&ck.to_bytes()).expect("container round-trip");
    assert_eq!((ck.epoch, ck.next_batch), (0, 6));

    // A fresh pipeline (fresh random init) restored from the snapshot must
    // finish the epoch exactly like the uninterrupted run...
    let mut resumed = pipeline(&ds, false, RetryPolicy::default());
    resumed.restore(&ck).expect("restore");
    let rest = resumed
        .train_epoch_range(0, ck.next_batch as usize, Some(6))
        .report;
    assert!(rest.error.is_none(), "{:?}", rest.error);
    assert_eq!(
        resumed.model_mut().save(),
        uninterrupted.model_mut().save(),
        "resumed weights must be bit-identical to the uninterrupted run"
    );

    // ...and like the pipeline that kept running without the restore.
    let second = interrupted.train_epoch_range(0, 6, Some(6)).report;
    assert!(second.error.is_none(), "{:?}", second.error);
    assert_eq!(
        interrupted.model_mut().save(),
        resumed.model_mut().save(),
        "a restore must be indistinguishable from never crashing"
    );
}

/// The corruption-storm acceptance test: a device that silently flips bits
/// on 2% of feature reads (success status, wrong bytes) must train a full
/// epoch to *exactly* the same loss and weights as a clean device — every
/// corruption caught at a read boundary and healed by a re-read, none
/// reaching a feature slab.
#[test]
fn corruption_storm_matches_clean_loss_trajectory() {
    let _gate = INTEGRITY_GATE.lock();
    // Identical datasets (same spec seed) on independent devices.
    let ds_clean = dataset_on(SsdProfile::instant(), 4);
    let ds_dirty = dataset_on(SsdProfile::instant(), 4);
    ds_dirty.ssd.set_fault_plan(
        FaultPlan::new(0xB17F11)
            .with_bit_flips(0.02)
            .on_file(ds_dirty.features_file.id),
    );
    let injected_before = catalog::STORAGE_INTEGRITY_INJECTED.get();
    let detected_before = catalog::STORAGE_INTEGRITY_DETECTED.get();

    // reorder = false → the trajectory is a pure function of the batch
    // plan, so the two runs are comparable batch for batch. Extra retry
    // attempts let a re-read that is itself corrupted heal on the next.
    let retry = RetryPolicy::default().with_max_attempts(8);
    let mut clean = pipeline_cfg(&ds_clean, chaos_cfg(false, retry));
    let mut dirty = pipeline_cfg(&ds_dirty, chaos_cfg(false, retry));
    let r_clean = clean.train_epoch(0, None);
    let r_dirty = dirty.train_epoch(0, None);
    ds_dirty.ssd.clear_faults();

    let injected = catalog::STORAGE_INTEGRITY_INJECTED.get() - injected_before;
    let detected = catalog::STORAGE_INTEGRITY_DETECTED.get() - detected_before;
    assert!(
        injected > 0,
        "a 2% bit-flip plan over a full epoch must fire"
    );
    assert_eq!(
        detected, injected,
        "every silently corrupted read must be caught by verification"
    );
    assert_eq!(
        catalog::STORAGE_INTEGRITY_ESCAPED.get(),
        0,
        "zero poisoned extractions: no corruption may pass verification"
    );

    // The storm must be invisible to training: no failed batches, the
    // same per-epoch loss, bit-identical weights.
    assert_eq!(r_dirty.failed_batches, 0, "{:?}", r_dirty.error);
    assert_eq!(r_dirty.batches, r_clean.batches);
    assert_eq!(
        r_dirty.loss.to_bits(),
        r_clean.loss.to_bits(),
        "loss diverged: clean {} vs bit-rot {}",
        r_clean.loss,
        r_dirty.loss
    );
    assert_eq!(
        dirty.model_mut().save(),
        clean.model_mut().save(),
        "weights diverged under a fully-caught corruption storm"
    );
}

/// Deterministic corruption accounting at the extraction layer: with a
/// single-threaded synchronous extractor (strictly sequential device
/// reads), a fixed fault-plan seed yields the *exact same*
/// detected/injected counts run after run, and every extracted row
/// shadow-checksums clean against the dataset's ground truth.
#[test]
fn corruption_detection_is_deterministic_and_rows_checksum_clean() {
    let _gate = INTEGRITY_GATE.lock();

    let run = || -> (u64, u64) {
        let ds = dataset_on(SsdProfile::instant(), 6);
        ds.ssd.set_fault_plan(
            FaultPlan::new(0x5EEDED)
                .with_bit_flips(0.05)
                .on_file(ds.features_file.id),
        );
        let injected_before = catalog::STORAGE_INTEGRITY_INJECTED.get();
        let detected_before = catalog::STORAGE_INTEGRITY_DETECTED.get();

        let cfg = GnnDriveConfig::default();
        let slab = Arc::new(FeatureSlab::new(8_192, ds.spec.feat_dim));
        let fb = Arc::new(FeatureBufferManager::new(
            Arc::clone(&slab),
            ds.spec.num_nodes,
            &cfg,
        ));
        // CPU-mode, synchronous, one thread: device reads are strictly
        // sequential, so fault-plan ordinals — and therefore corruption
        // counts — are a pure function of the seed.
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
            sync_extract: true,
            ring_depth: 16,
            max_joint_read_bytes: 8_192,
            retry: RetryPolicy::default().with_max_attempts(8),
            health: Arc::new(DeviceHealth::new(HealthConfig::default())),
            io_priority: IoPriority::Bulk,
        };
        let sampler = NeighborSampler::new(
            Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
            vec![4, 4],
        );
        let mut row = vec![0.0f32; ds.spec.feat_dim];
        for batch_id in 0..6u64 {
            let seeds: Vec<u32> = (0..24)
                .map(|i| (batch_id as u32 * 131 + i) % 4_000)
                .collect();
            let sample = sampler.sample(batch_id, &seeds, 99);
            let nodes = sample.input_nodes.clone();
            let batch = extract_batch(&ctx, sample).expect("storm within retry budget");
            // Shadow-checksum every extracted row against ground truth:
            // a poisoned row would change its CRC32.
            for (i, &node) in batch.sample.input_nodes.iter().enumerate() {
                fb.slab().read_row(batch.aliases[i], &mut row);
                let got: Vec<u8> = row.iter().flat_map(|v| v.to_le_bytes()).collect();
                let want: Vec<u8> = ds
                    .peek_feature_row(node)
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                assert_eq!(
                    crc32(&got),
                    crc32(&want),
                    "row for node {node} extracted poisoned bytes"
                );
            }
            fb.release(&nodes);
        }
        ds.ssd.clear_faults();
        let injected = catalog::STORAGE_INTEGRITY_INJECTED.get() - injected_before;
        let detected = catalog::STORAGE_INTEGRITY_DETECTED.get() - detected_before;
        (injected, detected)
    };

    let (injected_a, detected_a) = run();
    let (injected_b, detected_b) = run();
    assert!(injected_a > 0, "the 5% plan must fire over six batches");
    assert_eq!(detected_a, injected_a, "every corruption must be detected");
    assert_eq!(
        (injected_a, detected_a),
        (injected_b, detected_b),
        "fixed seed must reproduce exact corruption counts"
    );
    assert_eq!(
        catalog::STORAGE_INTEGRITY_ESCAPED.get(),
        0,
        "zero silent escapes"
    );
}

/// The composed disaster: a mid-epoch checkpoint is persisted durably,
/// then the device turns pathological (total read faults — the circuit
/// breaker trips and the rest of the epoch fails fast), a *second*
/// checkpoint write is cut mid-blob by process death, and the power dies —
/// tearing or dropping every unflushed sector. The restarted pipeline must
/// recover from the published slot (the torn one is skipped with a typed
/// error), resume under a silent bit-rot storm with every corruption
/// caught, and still finish with weights bit-identical to an uninterrupted
/// clean run.
#[test]
fn power_cut_composed_with_corruption_storm_and_tripped_breaker_recovers() {
    let _gate = INTEGRITY_GATE.lock();
    telemetry::crash::disarm();
    // Identical datasets (same spec seed) on independent devices.
    let ds_ref = dataset_on(SsdProfile::instant(), 12);
    let ds = dataset_on(SsdProfile::instant(), 12);

    // Reference: the uninterrupted, fault-free trajectory.
    let mut reference = pipeline(&ds_ref, false, RetryPolicy::default());
    let r = reference.train_epoch(0, Some(12));
    assert!(r.error.is_none(), "{:?}", r.error);

    // Victim: breaker-enabled, trains the first half cleanly and persists
    // a checkpoint through the full commit-record protocol (flushed, so a
    // later power cut cannot touch it).
    let mut cfg = chaos_cfg(false, RetryPolicy::none());
    cfg.num_extractors = 1;
    // Smaller window than the dedicated breaker test: the storm phase here
    // is only six batches, and the trip must land inside it.
    cfg.health = HealthConfig {
        window: 8,
        min_samples: 4,
        cooldown: Duration::from_millis(50),
        ..HealthConfig::enabled()
    };
    let mut victim = pipeline_cfg(&ds, cfg);
    let first = victim.train_epoch_range(0, 0, Some(6)).report;
    assert!(first.error.is_none(), "{:?}", first.error);
    let ck = victim.checkpoint(0, 6);
    let slot = ds.ssd.create_file(8 + ck.to_bytes().len() as u64);
    ck.write_to_slot(&ds.ssd, slot)
        .expect("published checkpoint");

    // The device turns hostile: every read faults, the window fills, the
    // breaker opens, and the rest of the epoch fails fast instead of
    // hanging — the crash arrives while the device is already degraded.
    ds.ssd.set_fault_plan(
        FaultPlan::new(0x0BAD)
            .with_read_fault_prob(1.0)
            .on_file(ds.features_file.id),
    );
    let storm = victim.train_epoch_range(0, 6, Some(6)).report;
    assert_eq!(storm.batches, 0, "no batch survives a total storm");
    assert_eq!(
        victim.device_health().state(),
        HealthState::CircuitOpen,
        "the burst must trip the breaker"
    );

    // A rescue checkpoint is mid-persist when the process dies: the crash
    // registry cuts it right after the blob lands (ordinal 1 ==
    // checkpoint.ssd.blob), before the flush — then the power goes.
    let slot2 = ds.ssd.create_file(8 + ck.to_bytes().len() as u64);
    telemetry::crash::arm(1, 0x9C);
    ck.write_to_slot(&ds.ssd, slot2)
        .expect_err("armed cut must kill the write");
    telemetry::crash::disarm();
    assert!(
        ds.ssd.dirty_sector_count() > 0,
        "the torn write must leave unflushed sectors at risk"
    );
    let power = ds.ssd.power_cut(0x50C7);
    assert!(power.dirty > 0, "{power:?}");

    // Restart. The torn slot is skipped with a typed error; recovery lands
    // on the published one.
    ds.ssd.clear_faults();
    assert!(
        TrainCheckpoint::read_from_ssd(&ds.ssd, slot2).is_err(),
        "the half-written slot must never deserialize"
    );
    let (idx, rck) =
        TrainCheckpoint::recover_from_ssd(&ds.ssd, &[slot, slot2]).expect("published slot");
    assert_eq!(idx, 0, "recovery must skip the torn slot");
    assert_eq!((rck.epoch, rck.next_batch), (0, 6));

    // Resume under a silent bit-rot storm: every corruption must be caught
    // and healed by re-reads, none reaching a feature slab.
    let injected_before = catalog::STORAGE_INTEGRITY_INJECTED.get();
    let detected_before = catalog::STORAGE_INTEGRITY_DETECTED.get();
    ds.ssd.set_fault_plan(
        FaultPlan::new(0xB17F)
            .with_bit_flips(0.02)
            .on_file(ds.features_file.id),
    );
    let mut resumed = pipeline(&ds, false, RetryPolicy::default().with_max_attempts(8));
    resumed.restore(&rck).expect("restore");
    let rest = resumed.train_epoch_range(0, 6, Some(6)).report;
    ds.ssd.clear_faults();
    assert!(rest.error.is_none(), "{:?}", rest.error);
    assert_eq!(rest.failed_batches, 0);

    let injected = catalog::STORAGE_INTEGRITY_INJECTED.get() - injected_before;
    let detected = catalog::STORAGE_INTEGRITY_DETECTED.get() - detected_before;
    assert!(injected > 0, "the resume-phase bit-flip plan must fire");
    assert_eq!(detected, injected, "every corruption must be detected");
    assert_eq!(
        catalog::STORAGE_INTEGRITY_ESCAPED.get(),
        0,
        "nothing may pass verification silently"
    );
    assert_eq!(
        resumed.model_mut().save(),
        reference.model_mut().save(),
        "recovery through the composed disaster must be bit-identical"
    );
}

/// The circuit breaker under a stall + error burst: the device stalls and
/// fails every read, the breaker trips, remaining batches fail fast (the
/// epoch completes instead of hanging), and once the device heals a
/// half-open probe closes the circuit and async-ring extraction resumes —
/// all of it visible in the RunReport JSON.
#[test]
fn circuit_breaker_trips_fails_fast_and_recovers_via_probe() {
    let ds = dataset_on(SsdProfile::instant(), 8);
    ds.ssd.set_fault_plan(
        FaultPlan::new(0x09E17)
            .with_read_fault_prob(1.0)
            .with_stall(0..u64::MAX, Duration::from_micros(500))
            .on_file(ds.features_file.id),
    );
    let trips_before = catalog::STORAGE_HEALTH_TRIPS.get();
    let recoveries_before = catalog::STORAGE_HEALTH_RECOVERIES.get();

    let mut cfg = chaos_cfg(true, RetryPolicy::none());
    // One extractor so post-recovery admission is strictly sequential:
    // the probe batch runs alone, everything after it rides the ring.
    cfg.num_extractors = 1;
    cfg.health = HealthConfig {
        window: 16,
        min_samples: 8,
        cooldown: Duration::from_millis(50),
        ..HealthConfig::enabled()
    };
    let mut p = pipeline_cfg(&ds, cfg);
    let monitor = telemetry::Monitor::start(Duration::from_millis(10));

    // Storm epoch: enough batches that the window fills and trips. Every
    // batch fails (retries exhausted or failed fast) but the epoch ENDS —
    // the breaker turns a pathological device into bounded failure.
    let r = p.train_epoch(0, Some(8));
    assert_eq!(r.batches, 0, "no batch can survive a total fault storm");
    assert_eq!(r.failed_batches, r.full_batches.min(8));
    assert!(
        catalog::STORAGE_HEALTH_TRIPS.get() > trips_before,
        "the error burst must trip the circuit"
    );
    assert_eq!(
        p.device_health().state(),
        HealthState::CircuitOpen,
        "breaker must be open after the storm"
    );

    // Device heals; after the cooldown the next epoch's first batch wins
    // the half-open probe, closes the circuit, and the rest of the epoch
    // trains normally on the async ring.
    ds.ssd.clear_faults();
    std::thread::sleep(Duration::from_millis(80));
    let r2 = p.train_epoch(1, Some(8));
    let series = monitor.stop();
    assert!(r2.error.is_none(), "{:?}", r2.error);
    assert_eq!(r2.failed_batches, 0, "healed device must train cleanly");
    assert_eq!(r2.batches, r2.full_batches.min(8));
    assert_eq!(p.device_health().state(), HealthState::Healthy);
    assert!(
        catalog::STORAGE_HEALTH_RECOVERIES.get() > recoveries_before,
        "recovery must go through a successful half-open probe"
    );

    // The whole trip/probe/recovery story lands in the run report.
    let report = gnndrive_bench::collect_report("chaos.circuit_breaker", "chaos e2e", series);
    let text = report.to_json().to_json_string();
    let parsed = telemetry::RunReport::parse(&text).expect("valid report JSON");
    let names = parsed.metric_names();
    for required in [
        catalog::STORAGE_HEALTH_STATE.name(),
        catalog::STORAGE_HEALTH_TRIPS.name(),
        catalog::STORAGE_HEALTH_PROBES.name(),
        catalog::STORAGE_HEALTH_RECOVERIES.name(),
        catalog::STORAGE_INTEGRITY_DETECTED.name(),
        catalog::PIPELINE_BATCHES_SKIPPED.name(),
    ] {
        assert!(
            names.contains(&required),
            "run report must carry {required}: {names:?}"
        );
    }
}
