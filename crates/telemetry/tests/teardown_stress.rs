//! Teardown-race stress test: `reset()` / `reset_metrics()` racing
//! in-flight `StateGuard` drops, late `register_thread` calls, and metrics
//! racing their own first-use registration must never panic, underflow,
//! or double-count.
//!
//! This is the shutdown/epoch-boundary scenario: the harness resets the
//! registries between systems while worker threads from the previous
//! system are still winding down.

use gnndrive_telemetry as telemetry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::catalog::{SERVE_LATENCY as LAT, SERVE_QUEUE_DEPTH as DEPTH, SERVE_REQUESTS as OPS};

#[test]
fn reset_races_inflight_guards_and_late_registration() {
    let stop = Arc::new(AtomicBool::new(false));
    let local_ops = Arc::new(AtomicU64::new(0));
    let mut workers = Vec::new();
    for i in 0..6u64 {
        let stop = Arc::clone(&stop);
        let local_ops = Arc::clone(&local_ops);
        workers.push(std::thread::spawn(move || {
            let class = if i % 2 == 0 {
                telemetry::ThreadClass::Cpu
            } else {
                telemetry::ThreadClass::Gpu
            };
            while !stop.load(Ordering::Relaxed) {
                // Late / repeated registration racing reset().
                telemetry::register_thread(class);
                {
                    let _g = telemetry::state(telemetry::State::Compute);
                    let _inner = telemetry::state(telemetry::State::IoWait);
                }
                // Mirror first so `registry <= mirror` holds at every
                // instant the main thread might snapshot.
                local_ops.fetch_add(1, Ordering::Relaxed);
                // The first of these races the other workers' first use
                // and the main thread's snapshots and resets.
                OPS.inc();
                DEPTH.set(i as i64 - 3);
                LAT.record(i * 100 + 1);
            }
        }));
    }

    let deadline = Instant::now() + Duration::from_millis(300);
    while Instant::now() < deadline {
        telemetry::reset();
        let _ = telemetry::snapshot();
        telemetry::reset_metrics();
        let snap = telemetry::snapshot_metrics();
        // Never more counted than actually performed (no double-count),
        // even while increments race the reset.
        assert!(
            snap.counter(OPS.name()) <= local_ops.load(Ordering::Relaxed),
            "registry counted more ops than the workers performed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().expect("worker panicked");
    }

    // The registry must still be consistent after the storm.
    telemetry::reset_metrics();
    assert_eq!(OPS.get(), 0, "reset_metrics left a residue");
    OPS.inc();
    assert_eq!(OPS.get(), 1);
    let snap = telemetry::snapshot_metrics();
    assert_eq!(snap.counter(OPS.name()), 1);

    // And the thread-state side still takes registrations and guards.
    telemetry::reset();
    telemetry::register_thread(telemetry::ThreadClass::Cpu);
    {
        let _g = telemetry::state(telemetry::State::Compute);
        std::thread::sleep(Duration::from_millis(2));
    }
    let totals = telemetry::snapshot();
    let nanos = totals
        .class(telemetry::ThreadClass::Cpu)
        .nanos(telemetry::State::Compute);
    assert!(
        nanos >= 1_000_000,
        "guard time lost after stress: {nanos}ns"
    );
    assert!(nanos < u64::MAX / 2, "guard time underflowed: {nanos}ns");
}
