//! Serving-tier e2e: the QoS acceptance properties.
//!
//! * A serving tier fed by the Zipfian load generator holds its latency
//!   SLO while a training loop soaks the same simulated SSD, governor,
//!   and page cache — and training keeps most of its solo throughput.
//! * Accounting is airtight: every submitted request completes or comes
//!   back with a typed error; nothing is silently lost, with or without
//!   a mid-run device fault storm.
//! * The chaos variant trips the serving pipeline's circuit breaker,
//!   requests fail fast and typed while it is open, and a half-open
//!   probe recovers the tier once the storm clears.

use gnndrive::prelude::*;
use gnndrive_bench::{run_serving_mixed, EnvKnobs, Scenario, ServingMixedConfig};
use std::time::Duration;

fn knobs() -> EnvKnobs {
    EnvKnobs {
        scale: 0.05,
        max_batches: Some(6),
    }
}

#[test]
fn serving_holds_slo_while_training_soaks_the_stack() {
    let sc = Scenario::default_for(MiniDataset::Twitter, &knobs());
    let cfg = ServingMixedConfig {
        requests: 80,
        rate_hz: 200.0,
        // Generous for CI boxes; the bench binary's --check run holds the
        // paper-facing 250 ms bar.
        slo: Duration::from_secs(2),
        ..ServingMixedConfig::default()
    };
    let outcome = run_serving_mixed(&sc, &cfg).expect("clean serving run");

    assert!(
        outcome.serve.balanced(),
        "lost requests: {:?}",
        outcome.serve
    );
    assert_eq!(outcome.serve.failed, 0, "failures on a clean stack");
    assert_eq!(outcome.serve.completed, outcome.serve.submitted);
    assert!(outcome.serve.completed > 0, "nothing served");
    assert!(
        outcome.serve.meets_slo(cfg.slo),
        "p99 {}ms blew the {}ms SLO: {:?}",
        outcome.serve.latency.p99_ns / 1_000_000,
        cfg.slo.as_millis(),
        outcome.serve
    );
    assert_eq!(outcome.serve.latency.count, outcome.serve.completed);
    // Two-lane QoS must leave training most of its solo throughput. The
    // acceptance bar is 75%; a loaded CI box adds noise, so the hard
    // floor here is lower while the bench --check run enforces 75%.
    assert!(
        outcome.training_ratio > 0.3,
        "training collapsed to {:.0}% of solo",
        outcome.training_ratio * 100.0
    );
}

#[test]
fn chaos_storm_trips_breaker_recovers_and_loses_nothing() {
    let mut sc = Scenario::default_for(MiniDataset::Twitter, &knobs());
    // A distinct scale gives this test its own cached dataset (and thus
    // its own SimSsd), so the fault storm cannot leak into the clean
    // test's device when the harness runs both concurrently.
    sc.scale = 0.06;
    let cfg = ServingMixedConfig {
        requests: 90,
        rate_hz: 200.0,
        slo: Duration::from_secs(2),
        chaos: true,
        ..ServingMixedConfig::default()
    };
    let outcome = run_serving_mixed(&sc, &cfg).expect("chaos serving run");

    assert!(
        outcome.saw_circuit_open,
        "the all-reads-fail storm must trip the breaker: {:?}",
        outcome.serve
    );
    // `recovered` is strict: it only flips once a post-storm request
    // resolves `Ok`, so it certifies the tier serves again — not merely
    // that the breaker's state machine left CircuitOpen.
    assert!(
        outcome.recovered,
        "tier never served a request again after the storm cleared"
    );
    assert!(
        outcome.serve.failed > 0,
        "storm produced no typed failures: {:?}",
        outcome.serve
    );
    // The core guarantee: every admitted request resolved, Ok or typed Err.
    assert!(
        outcome.serve.balanced(),
        "requests lost during chaos: {:?}",
        outcome.serve
    );
    // The pre-storm stream must have been served (the storm starts a
    // third of the way in, so a healthy tier completes plenty first), and
    // `recovered` above already certifies at least one post-storm `Ok`.
    assert!(
        outcome.serve.completed > 0,
        "nothing completed at all: {:?}",
        outcome.serve
    );
}
