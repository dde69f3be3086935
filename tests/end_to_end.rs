//! Cross-crate integration tests: all five systems training real models on
//! shared substrates, with the paper's qualitative relationships asserted.

use gnndrive::prelude::*;
use gnndrive_bench::{build_system, dataset_for, EnvKnobs, Scenario, SystemKind};

fn knobs() -> EnvKnobs {
    EnvKnobs {
        scale: 0.05, // ~5.5k-node papers analog: fast but disk-bound
        max_batches: Some(6),
    }
}

fn scenario() -> Scenario {
    let mut sc = Scenario::default_for(MiniDataset::Papers100M, &knobs());
    sc.memory_gb = 128; // roomy: construction must succeed for everyone
    sc
}

#[test]
fn every_system_trains_and_reports() {
    let sc = scenario();
    let ds = dataset_for(&sc);
    for kind in [
        SystemKind::GnnDriveGpu,
        SystemKind::GnnDriveCpu,
        SystemKind::PygPlus,
        SystemKind::Ginex,
        SystemKind::Marius,
    ] {
        let mut sys =
            build_system(kind, &sc, &ds).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        let r = sys.train_epoch(0, Some(6));
        assert!(r.error.is_none(), "{}: {:?}", kind.name(), r.error);
        assert!(r.batches >= 1);
        assert!(r.loss.is_finite() && r.loss > 0.0, "{}", kind.name());
        assert!(r.wall.as_nanos() > 0);
    }
}

#[test]
fn systems_learn_the_planted_labels() {
    let sc = scenario();
    let ds = dataset_for(&sc);
    for kind in [SystemKind::GnnDriveGpu, SystemKind::Ginex] {
        let mut sys = build_system(kind, &sc, &ds).unwrap();
        let before = sys.evaluate();
        for e in 0..4 {
            sys.train_epoch(e, None);
        }
        let after = sys.evaluate();
        assert!(
            after > before + 0.1 || after > 0.5,
            "{}: accuracy {before} -> {after}",
            kind.name()
        );
    }
}

#[test]
fn all_three_models_run_on_gnndrive() {
    for model in [ModelKind::GraphSage, ModelKind::Gcn, ModelKind::Gat] {
        let mut sc = scenario();
        sc.model = model;
        let ds = dataset_for(&sc);
        let mut sys = build_system(SystemKind::GnnDriveGpu, &sc, &ds).unwrap();
        let r = sys.train_epoch(0, Some(4));
        assert!(r.error.is_none(), "{}: {:?}", model.name(), r.error);
        assert!(r.loss.is_finite());
    }
}

#[test]
fn gnndrive_beats_pygplus_under_memory_pressure() {
    // The headline comparison at a constrained budget. Margins are
    // generous: we assert ordering, not magnitude.
    let mut sc = Scenario::default_for(MiniDataset::Papers100M, &knobs());
    sc.memory_gb = 32;
    let ds = dataset_for(&sc);
    let gd = {
        let mut sys = build_system(SystemKind::GnnDriveGpu, &sc, &ds).unwrap();
        sys.train_epoch(0, Some(6)).extrapolated_wall()
    };
    let pyg = {
        let mut sys = build_system(SystemKind::PygPlus, &sc, &ds).unwrap();
        sys.train_epoch(0, Some(6)).extrapolated_wall()
    };
    assert!(
        gd < pyg,
        "GNNDrive ({gd:?}) should beat PyG+ ({pyg:?}) under pressure"
    );
}

#[test]
fn marius_ooms_on_mag_but_gnndrive_does_not() {
    // Table 2's robustness story at reproduction scale.
    let mut sc = Scenario::default_for(MiniDataset::Mag240M, &knobs());
    sc.scale = 0.05;
    sc.memory_gb = 32;
    let ds = dataset_for(&sc);
    assert!(
        build_system(SystemKind::Marius, &sc, &ds).is_err(),
        "MariusGNN should OOM on mag240m at 32GB-scaled"
    );
    let mut gd = build_system(SystemKind::GnnDriveGpu, &sc, &ds).expect("GNNDrive builds");
    let r = gd.train_epoch(0, Some(3));
    assert!(r.error.is_none());
}

#[test]
fn reordering_does_not_change_what_is_learned() {
    // §5.3: out-of-order mini-batches converge equivalently. Train two
    // GNNDrive instances, reorder on vs off, same data; final accuracies
    // must land in the same band.
    use std::sync::Arc;

    let sc = scenario();
    let ds = dataset_for(&sc);
    let mut accs = Vec::new();
    for reorder in [true, false] {
        let gov = MemoryGovernor::unlimited();
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
        let cfg = GnnDriveConfig {
            reorder,
            fanouts: sc.fanouts.clone(),
            batch_size: sc.batch_size,
            feature_buffer_slots: 16384,
            seed: 1,
            ..Default::default()
        };
        let mut p = Pipeline::builder(Arc::clone(&ds), GpuDevice::rtx3090())
            .with_model(ModelKind::GraphSage, 16)
            .with_config(cfg)
            .with_governor(gov)
            .with_page_cache(cache)
            .build()
            .unwrap();
        for e in 0..4 {
            p.train_epoch(e, None);
        }
        accs.push(p.evaluate());
    }
    assert!(
        (accs[0] - accs[1]).abs() < 0.2,
        "reordering changed convergence: {accs:?}"
    );
    assert!(accs.iter().all(|&a| a > 0.4), "both should learn: {accs:?}");
}

#[test]
fn run_report_artifact_covers_all_subsystems() {
    // The observability acceptance check: one GNNDrive epoch must yield a
    // JSON run report whose metric series span the storage, core, and
    // device crates, with per-stage percentiles and a utilization series.
    use gnndrive_bench::{collect_report, scenario_desc, PIPELINE_STAGES};
    use std::time::Duration;

    let sc = scenario();
    let ds = dataset_for(&sc);
    let mut sys = build_system(SystemKind::GnnDriveGpu, &sc, &ds).unwrap();
    let monitor = Monitor::start(Duration::from_millis(20));
    let r = sys.train_epoch(0, Some(6));
    assert!(r.error.is_none(), "{:?}", r.error);
    let series = monitor.stop();

    let mut report = collect_report("e2e.gnndrive_gpu", &scenario_desc(&sc), series);
    report.add_scalar("batches", r.batches as f64);
    let dir = std::env::temp_dir().join(format!("gnndrive-e2e-{}", std::process::id()));
    let path = report.write_to_dir(&dir).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let parsed = RunReport::parse(&text).expect("parse artifact");
    let _ = std::fs::remove_dir_all(&dir);

    let names = parsed.metric_names();
    assert!(
        names.len() >= 10,
        "expected >=10 metric series, got {}: {names:?}",
        names.len()
    );
    let storage = names
        .iter()
        .any(|n| n.starts_with("ssd.") || n.starts_with("page_cache."));
    let core = names
        .iter()
        .any(|n| n.starts_with("pipeline.") || n.starts_with("feature_buffer."));
    let device = names.iter().any(|n| n.starts_with("device."));
    assert!(
        storage && core && device,
        "metrics must span storage/core/device crates: {names:?}"
    );
    for stage in PIPELINE_STAGES {
        let s = parsed
            .stage(stage)
            .unwrap_or_else(|| panic!("missing stage {stage}"));
        assert!(s.count >= 1, "stage {stage} recorded nothing");
        assert!(
            s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns && s.p99_ns <= s.max_ns,
            "stage {stage} percentiles out of order: {s:?}"
        );
    }
    assert!(!parsed.series.is_empty(), "utilization series missing");
    assert_eq!(
        parsed.scalars,
        vec![("batches".to_string(), r.batches as f64)]
    );
}

#[test]
fn pipeline_epoch_exports_valid_chrome_trace() {
    // One traced epoch must produce spans for all four pipeline stages and
    // a structurally valid Chrome trace-event document.
    use telemetry::{export_chrome_trace, trace_disable, trace_enable, trace_take, Json};

    let sc = scenario();
    let ds = dataset_for(&sc);
    let mut sys = build_system(SystemKind::GnnDriveGpu, &sc, &ds).unwrap();
    let _ = trace_take(); // drop spans from any earlier traced activity
    trace_enable();
    let r = sys.train_epoch(0, Some(6));
    trace_disable();
    assert!(r.error.is_none(), "{:?}", r.error);
    let spans = trace_take();

    for stage in ["sample", "extract", "train", "release"] {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "no {stage} span in {} spans",
            spans.len()
        );
    }
    // trace_take sorts by start; bounds must be monotone and finite.
    let mut prev = 0u64;
    for s in &spans {
        assert!(s.start_ns >= prev, "spans not sorted by start");
        assert!(s.start_ns.checked_add(s.dur_ns).is_some(), "span overflows");
        prev = s.start_ns;
    }

    let text = export_chrome_trace(&spans);
    let doc = Json::parse(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len());
    for (e, s) in events.iter().zip(&spans) {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("name").and_then(Json::as_str), Some(s.stage));
        let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
        assert!(e.get("pid").and_then(Json::as_u64).is_some());
        assert!(e.get("tid").and_then(Json::as_u64).is_some());
    }
}
