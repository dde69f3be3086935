//! Bottleneck-attribution e2e: the profiler's acceptance properties.
//!
//! * Every pipeline stage (and the GPU transfer hop) emits trace spans in
//!   both extractor modes — async two-phase and the sync ablation — plus
//!   the epoch's verdict band.
//! * Conservation: each batch's decomposed parts re-sum to its wall time
//!   within 5%, in both extractor modes and under a storage fault storm.
//! * The trajectory suite's memory-tight and compute-heavy configurations
//!   drive the *same* construction path to opposite verdicts
//!   (MemoryContentionBound vs ComputeBound).

use gnndrive::prelude::*;
use gnndrive_bench::trajectory::{run_scenario, suite, validate_bench};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The trace buffer and metric registry are process-global, so tests that
/// enable tracing or reset metrics serialize on this gate.
static TELEMETRY_GATE: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

fn dataset(seed: u64) -> Arc<Dataset> {
    dataset_on(seed, SsdProfile::pm883_repro())
}

fn dataset_on(seed: u64, profile: SsdProfile) -> Arc<Dataset> {
    let ssd = SimSsd::new(profile);
    Arc::new(Dataset::build(
        DatasetSpec {
            name: format!("attr-{seed}"),
            num_nodes: 2_000,
            num_edges: 20_000,
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

fn pipeline(ds: &Arc<Dataset>, sync_extract: bool) -> Pipeline {
    let cache = PageCache::new(Arc::clone(&ds.ssd), MemoryGovernor::unlimited());
    pipeline_over(ds, sync_extract, cache)
}

fn pipeline_over(ds: &Arc<Dataset>, sync_extract: bool, cache: Arc<PageCache>) -> Pipeline {
    let gov = MemoryGovernor::unlimited();
    Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(GnnDriveConfig {
            sync_extract,
            fanouts: vec![3, 3],
            batch_size: 16,
            feature_buffer_slots: 8_192,
            seed: 13,
            ..Default::default()
        })
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .expect("pipeline")
}

#[test]
fn every_stage_emits_spans_in_both_extractor_modes() {
    let _gate = TELEMETRY_GATE.lock();
    for sync_extract in [false, true] {
        let mode = if sync_extract { "sync" } else { "async" };
        let ds = dataset(41);
        let mut p = pipeline(&ds, sync_extract);
        telemetry::trace_take(); // drop anything a neighbor left behind
        telemetry::trace_enable();
        let stats = p.train_epoch_stats(0, Some(8));
        telemetry::trace_disable();
        let spans = telemetry::trace_take();
        assert!(stats.report.error.is_none(), "{mode}: epoch failed");

        let stages: HashSet<&str> = spans
            .iter()
            .filter(|s| s.cat == "pipeline")
            .map(|s| s.stage)
            .collect();
        for stage in ["sample", "extract", "train", "release", "transfer"] {
            assert!(
                stages.contains(stage),
                "{mode}: no `{stage}` span; saw {stages:?}"
            );
        }
        // Every trained batch has a complete stage chain.
        for stage in ["sample", "extract", "train", "release"] {
            let batches: HashSet<u64> = spans
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| s.batch)
                .collect();
            assert!(
                batches.len() >= stats.report.batches,
                "{mode}: `{stage}` covered {} of {} batches",
                batches.len(),
                stats.report.batches
            );
        }
        // The epoch's bottleneck verdict rides along as a trace band.
        let verdicts: Vec<&str> = spans
            .iter()
            .filter(|s| s.cat == "verdict")
            .map(|s| s.stage)
            .collect();
        assert_eq!(
            verdicts.len(),
            1,
            "{mode}: expected one epoch verdict span, got {verdicts:?}"
        );
        assert_eq!(
            verdicts[0],
            stats.attribution.verdict.label(),
            "{mode}: trace verdict disagrees with the report"
        );
    }
}

fn assert_conserved(stats: &EpochStats, what: &str) {
    assert!(stats.report.error.is_none(), "{what}: epoch failed");
    assert!(
        !stats.batch_attribution.is_empty(),
        "{what}: no attribution records"
    );
    assert_eq!(
        stats.batch_attribution.len(),
        stats.report.batches,
        "{what}: one record per trained batch"
    );
    for rec in &stats.batch_attribution {
        let residual = rec.residual_ns() as f64;
        let wall = rec.wall_ns.max(1) as f64;
        assert!(
            residual / wall <= 0.05,
            "{what}: batch {} residual {:.1}% (wall {} ns, accounted {} ns)",
            rec.batch,
            100.0 * residual / wall,
            rec.wall_ns,
            rec.accounted_ns()
        );
    }
    assert!(
        stats.attribution.residual_fraction <= 0.05,
        "{what}: epoch residual {:.1}%",
        100.0 * stats.attribution.residual_fraction
    );
}

#[test]
fn per_batch_conservation_holds_in_both_extractor_modes() {
    let _gate = TELEMETRY_GATE.lock();
    for sync_extract in [false, true] {
        let mode = if sync_extract { "sync" } else { "async" };
        let ds = dataset(42);
        let mut p = pipeline(&ds, sync_extract);
        let stats = p.train_epoch_stats(0, Some(12));
        assert_conserved(&stats, mode);
    }
}

#[test]
fn conservation_survives_a_storage_fault_storm() {
    let _gate = TELEMETRY_GATE.lock();
    let ds = dataset(43);
    // Latency spikes stretch the wait edges and sporadic read faults force
    // retries — the decomposition must still re-sum per batch.
    ds.ssd.set_fault_plan(
        FaultPlan::new(7)
            .with_read_fault_every(37)
            .with_latency_spikes(0.2, Duration::from_micros(300)),
    );
    let mut p = pipeline(&ds, false);
    let stats = p.train_epoch_stats(0, Some(12));
    ds.ssd.set_fault_plan(FaultPlan::new(0));
    assert_conserved(&stats, "chaos");
}

/// The profiler names 𝔒1 where it bites: a sampler faulting through a
/// page cache too small for the topology spends its sample segment parked
/// on `PageFault`, and the decomposition still conserves; with the whole
/// topology resident the same pipeline reports none.
#[test]
fn page_faults_are_attributed_to_the_sample_segment() {
    let _gate = TELEMETRY_GATE.lock();
    // A device slow enough (20 ms a read) that a hop's round trip dwarfs
    // the sampler's own CPU even in an unoptimized, loaded test run.
    let ds = dataset_on(
        45,
        SsdProfile {
            read_latency: Duration::from_millis(20),
            ..SsdProfile::pm883_repro()
        },
    );
    let unlimited = MemoryGovernor::unlimited;

    let tight = PageCache::with_max_pages(Arc::clone(&ds.ssd), unlimited(), 2);
    let stats = pipeline_over(&ds, false, tight).train_epoch_stats(0, Some(8));
    assert_conserved(&stats, "tight page cache");
    let faults = stats.attribution.waits.get(telemetry::WaitKind::PageFault);
    assert!(
        2 * faults > stats.attribution.sample_ns,
        "fault wait {faults} ns must be most of the {} ns sample segment",
        stats.attribution.sample_ns
    );
    assert!(stats.attribution.mem_fraction > 0.0);

    let roomy = PageCache::new(Arc::clone(&ds.ssd), unlimited());
    let mut warm = vec![0u8; ds.indices_file.len as usize];
    roomy.read(ds.indices_file, 0, &mut warm);
    let stats = pipeline_over(&ds, false, roomy).train_epoch_stats(0, Some(8));
    assert_conserved(&stats, "warm page cache");
    assert_eq!(
        stats.attribution.waits.get(telemetry::WaitKind::PageFault),
        0
    );
}

#[test]
fn verdict_reaches_run_reports_through_the_trait() {
    let _gate = TELEMETRY_GATE.lock();
    let ds = dataset(44);
    let mut p = pipeline(&ds, false);
    let sys: &mut dyn TrainingSystem = &mut p;
    assert!(
        sys.last_attribution().is_none(),
        "no attribution before the first epoch"
    );
    let r = sys.train_epoch(0, Some(6));
    assert!(r.error.is_none(), "epoch failed");
    let attr = sys
        .last_attribution()
        .expect("pipeline caches the epoch's attribution");
    let mut report = telemetry::RunReport::new("attr-e2e");
    attr.apply_to(&mut report);
    assert_eq!(
        report.label("bottleneck_verdict"),
        Some(attr.verdict.label()),
        "verdict label folded into the run report"
    );
}

#[test]
fn memory_tight_and_compute_heavy_reach_opposite_verdicts() {
    let _gate = TELEMETRY_GATE.lock();
    let scenarios = suite();
    let tight = &scenarios[0];
    let heavy = &scenarios[1];
    assert_eq!(tight.name, "tight_memory");
    assert_eq!(heavy.name, "compute_heavy");

    let tight_doc = run_scenario(tight).expect("tight_memory run");
    let heavy_doc = run_scenario(heavy).expect("compute_heavy run");
    // validate_bench asserts each artifact's verdict matches the pinned
    // expectation (MemoryContentionBound vs ComputeBound).
    validate_bench(&tight_doc).expect("tight_memory artifact");
    validate_bench(&heavy_doc).expect("compute_heavy artifact");

    let verdict = |doc: &Json| {
        doc.get("attribution")
            .and_then(|a| a.get("verdict"))
            .and_then(Json::as_str)
            .expect("verdict in artifact")
            .to_string()
    };
    assert_eq!(verdict(&tight_doc), "memory_contention_bound");
    assert_eq!(verdict(&heavy_doc), "compute_bound");
}
