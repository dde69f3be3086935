//! Crash-consistency e2e: the crash-schedule recovery harness plus
//! atomicity sweeps over the host persistence paths.
//!
//! Acceptance properties: enumerating every crash point of a checkpointed
//! training run and cutting each one (process death + seeded power cut)
//! always recovers to the *last durable* checkpoint slot with a resumed
//! trajectory bit-identical to the uninterrupted run and zero escaped
//! corruption; and no host artifact (checkpoint, access trace, dataset
//! directory) is ever observable half-written — a reader sees the complete
//! old version, the complete new version, or nothing.

use gnndrive::prelude::*;
use gnndrive::telemetry::catalog;
use gnndrive_bench::crashsim::{run_crash_sweep, sweep_doc, validate_crash_sweep};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

/// The crash-point registry and the `storage.crash.*` counters are
/// process-global, and every test here arms the registry — so they
/// serialize on this gate to keep each other's cuts out of their windows.
static CRASH_GATE: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("gnndrive-crash-e2e").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The headline sweep: one armed run per crash point of the checkpointed
/// training loop, each followed by a power cut, restart, recovery, and
/// resume — every schedule must land on the newest durable slot and finish
/// with weights byte-equal to the uninterrupted run.
#[test]
fn crash_schedule_sweep_recovers_to_last_durable_checkpoint() {
    let _g = CRASH_GATE.lock();
    telemetry::crash::disarm();
    let dir = scratch("sweep");
    let cuts_before = catalog::STORAGE_CRASH_CUTS.get();
    let recoveries_before = catalog::STORAGE_CRASH_RECOVERIES.get();
    let power_cuts_before = catalog::STORAGE_WCACHE_POWER_CUTS.get();

    let sweep = run_crash_sweep(0xDEC0DE, &dir).expect("sweep");
    assert!(
        sweep.holds(),
        "every schedule must recover bit-identically: {:#?}",
        sweep
            .outcomes
            .iter()
            .filter(|o| !o.holds())
            .collect::<Vec<_>>()
    );

    // The recorded schedule must traverse both persistence protocols end
    // to end — otherwise a cut ordinal never lands inside them and the
    // sweep silently proves less than it claims.
    for point in [
        "checkpoint.ssd.begin",
        "checkpoint.ssd.blob",
        "checkpoint.ssd.flushed",
        "checkpoint.ssd.publish",
        "checkpoint.host.begin",
        "checkpoint.host.tmp",
        "checkpoint.host.sync",
        "checkpoint.host.publish",
    ] {
        assert!(
            sweep.schedule.iter().any(|p| p == point),
            "schedule must traverse {point}: {:?}",
            sweep.schedule
        );
    }

    // The power cuts must actually have disturbed unflushed sectors
    // somewhere in the sweep; a sweep where nothing was ever at risk
    // exercises recovery but not durability.
    assert!(
        sweep
            .outcomes
            .iter()
            .any(|o| o.sectors_dropped + o.sectors_torn > 0),
        "some cut must drop or tear unflushed sectors: {:?}",
        sweep.outcomes
    );

    // Registry accounting: exactly one cut, one power cut, and one
    // recovery per schedule.
    let n = sweep.outcomes.len() as u64;
    assert_eq!(
        catalog::STORAGE_CRASH_CUTS.get() - cuts_before,
        n,
        "one registry cut per schedule"
    );
    assert_eq!(
        catalog::STORAGE_WCACHE_POWER_CUTS.get() - power_cuts_before,
        n,
        "one device power cut per schedule"
    );
    assert_eq!(
        catalog::STORAGE_CRASH_RECOVERIES.get() - recoveries_before,
        n,
        "one recorded recovery per schedule"
    );

    // The artifact document round-trips through serialization and its own
    // structural validation (what CI's --check gate runs).
    let doc = sweep_doc(&sweep);
    let parsed = Json::parse(&doc.to_json_string()).expect("valid JSON");
    validate_crash_sweep(&parsed).expect("artifact must validate");

    let _ = fs::remove_dir_all(dir);
}

/// Atomicity of [`AccessTrace::save`]: cut the save at every crash point;
/// after each cut the destination must hold exactly the old bytes or
/// exactly the new bytes, and whichever it is must parse as a complete
/// trace. Leaked temp files are allowed (a dead process cannot clean up),
/// observable torn artifacts are not.
#[test]
fn trace_save_cuts_leave_old_or_new_version_only() {
    let _g = CRASH_GATE.lock();
    telemetry::crash::disarm();
    let dir = scratch("trace");
    let path = dir.join("epoch0.trace");

    let mut old = AccessTrace::new(1, 0);
    for i in 0..64 {
        old.push(0, i);
    }
    let mut new = AccessTrace::new(2, 1);
    for i in 0..96 {
        new.push(1, i * 3);
    }

    old.save(&path).expect("seed old version");
    let old_bytes = fs::read(&path).expect("old bytes");

    telemetry::crash::start_recording();
    new.save(&path).expect("recording save");
    let schedule = telemetry::crash::stop_recording();
    assert_eq!(
        schedule,
        vec![
            "trace.save.begin",
            "trace.save.tmp",
            "trace.save.sync",
            "trace.save.publish"
        ],
        "the trace save protocol must expose all four stage points"
    );
    let new_bytes = fs::read(&path).expect("new bytes");
    assert_ne!(old_bytes, new_bytes);

    for cut_at in 0..schedule.len() as u64 {
        telemetry::crash::disarm();
        old.save(&path).expect("reset to old");
        telemetry::crash::arm(cut_at, 0xAB5E + cut_at);
        new.save(&path).expect_err("armed cut must fire");
        telemetry::crash::disarm();

        let observed = fs::read(&path).expect("destination must exist");
        assert!(
            observed == old_bytes || observed == new_bytes,
            "cut {cut_at} ({}) exposed a torn trace artifact",
            schedule[cut_at as usize]
        );
        let loaded = AccessTrace::load_from(&path).expect("observable version must parse");
        assert!(
            loaded == old || loaded == new,
            "cut {cut_at} loaded a trace that is neither generation"
        );
    }
    let _ = fs::remove_dir_all(dir);
}

/// Atomicity of [`Dataset::save_to_dir`] into a fresh directory: artifacts
/// are written in a fixed order, each crash-atomically, so after a cut at
/// any point every non-temp file present must be byte-identical to the
/// clean save's counterpart — completed artifacts are whole, the one in
/// flight is absent, never truncated.
#[test]
fn dataset_save_cuts_never_expose_partial_artifacts() {
    let _g = CRASH_GATE.lock();
    telemetry::crash::disarm();
    let root = scratch("dataset");

    let ds = Arc::new(Dataset::build(
        DatasetSpec {
            name: "crash-ds".into(),
            num_nodes: 300,
            num_edges: 2_000,
            feat_dim: 8,
            num_classes: 3,
            intra_prob: 0.8,
            feature_signal: 1.0,
            train_fraction: 0.2,
            seed: 0xD5,
        },
        SimSsd::new(SsdProfile::instant()),
    ));

    let clean = root.join("clean");
    ds.save_to_dir(&clean).expect("clean save");

    telemetry::crash::start_recording();
    ds.save_to_dir(&root.join("record"))
        .expect("recording save");
    let schedule = telemetry::crash::stop_recording();
    // 7 artifacts (spec, indptr, labels, train, val, indices, features)
    // × 4 stage points each.
    assert_eq!(
        schedule.len(),
        28,
        "dataset save must traverse every artifact's stage points: {schedule:?}"
    );

    for cut_at in 0..schedule.len() as u64 {
        let dir = root.join(format!("cut_{cut_at}"));
        telemetry::crash::arm(cut_at, 0xDA7A + cut_at);
        ds.save_to_dir(&dir).expect_err("armed cut must fire");
        telemetry::crash::disarm();

        for entry in fs::read_dir(&dir).expect("cut dir") {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") {
                continue; // leaked temp from the simulated dead process
            }
            let got = fs::read(entry.path()).expect("artifact bytes");
            let want = fs::read(clean.join(&name)).expect("clean counterpart");
            assert_eq!(
                got, want,
                "cut {cut_at} ({}) left {name} partial",
                schedule[cut_at as usize]
            );
        }
    }
    let _ = fs::remove_dir_all(root);
}
