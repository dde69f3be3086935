//! Loom models of the storage-side concurrency protocols:
//!
//! * the [`MemoryGovernor::try_charge`] CAS admission loop
//!   (`crates/storage/src/governor.rs`) — the budget is never overshot and
//!   charge/release balances to zero;
//! * the [`DeviceHealth`] window update and half-open probe slot
//!   (`crates/storage/src/health.rs`) — concurrent outcome records keep the error
//!   accounting consistent and trip the breaker exactly once, and the
//!   probe CAS admits exactly one prober per open circuit.
//!
//! The simulated SSD has no model here: it spawns no thread, and its
//! hand-off order is decided under one lock in modeled time, so the
//! deterministic tests in `crates/storage/src/ssd.rs` check it directly.
//!
//! Production code uses `std::sync` locks, which loom cannot instrument,
//! so each protocol is re-stated here over `loom::sync` primitives with the
//! same orderings. The governor model copies the Acquire/Release
//! choreography verbatim — that is the part a model checker can actually
//! falsify (all-Relaxed admission can overshoot on weakly-ordered
//! hardware).
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test --release --manifest-path
//! crates/loom-models/Cargo.toml --test storage`.
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Mutex};
use loom::thread;

// ---------------------------------------------------------------------
// Governor admission model
// ---------------------------------------------------------------------

/// Single-counter re-statement of `MemoryGovernor::try_charge`, same
/// orderings as `crates/storage/src/governor.rs`.
struct ModelGovernor {
    budget: u64,
    used: AtomicU64,
}

impl ModelGovernor {
    fn try_charge(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            if cur + bytes > self.budget {
                return false;
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let prev = self.used.fetch_sub(bytes, Ordering::AcqRel);
        assert!(prev >= bytes, "release underflow: {prev} - {bytes}");
    }
}

/// Two threads race 60-byte charges against a 100-byte budget: at most
/// one admission may win, and the counter never exceeds the budget at
/// any observable point.
#[test]
fn governor_charge_race_never_overshoots_budget() {
    loom::model(|| {
        let gov = Arc::new(ModelGovernor {
            budget: 100,
            used: AtomicU64::new(0),
        });
        let g2 = Arc::clone(&gov);
        let t = thread::spawn(move || g2.try_charge(60));
        let mine = gov.try_charge(60);
        let theirs = t.join().unwrap();
        assert!(
            !(mine && theirs),
            "both 60-byte charges admitted against a 100-byte budget"
        );
        assert!(mine || theirs, "uncontended charge must succeed");
        assert!(gov.used.load(Ordering::Acquire) <= 100);
    });
}

/// Charge/release pairs on two threads balance to zero, and a release on
/// one thread makes room observed by an admission on the other.
#[test]
fn governor_charge_release_balances() {
    loom::model(|| {
        let gov = Arc::new(ModelGovernor {
            budget: 100,
            used: AtomicU64::new(0),
        });
        let g2 = Arc::clone(&gov);
        let t = thread::spawn(move || {
            if g2.try_charge(80) {
                g2.release(80);
            }
        });
        // Retry once after the peer's possible release: with AcqRel the
        // released bytes must become visible to a later admission.
        let mut got = gov.try_charge(40);
        if !got {
            t.join().unwrap();
            got = gov.try_charge(40);
            assert!(got, "release not visible to subsequent charge");
            gov.release(40);
        } else {
            gov.release(40);
            t.join().unwrap();
        }
        assert_eq!(gov.used.load(Ordering::Acquire), 0, "leak after balance");
    });
}

// ---------------------------------------------------------------------
// DeviceHealth window + probe-slot model
// ---------------------------------------------------------------------

/// Re-statement of `DeviceHealth` (`crates/storage/src/health.rs`): the sliding window
/// lives behind a mutex, the current state is a lock-free atomic mirror
/// (Release store / Acquire load, exactly as production), and the
/// half-open probe slot is an AcqRel CAS on a flag that is released only
/// after the post-probe state settles.
struct ModelHealth {
    window: Mutex<ModelWindow>,
    /// 0 = Healthy, 2 = CircuitOpen (Degraded elided: the race under test
    /// is record-vs-record and probe-vs-probe, not threshold selection).
    state: loom::sync::atomic::AtomicU8,
    probing: loom::sync::atomic::AtomicBool,
    trips: AtomicU64,
}

struct ModelWindow {
    filled: u64,
    errors: u64,
}

impl ModelHealth {
    fn new() -> Self {
        ModelHealth {
            window: Mutex::new(ModelWindow {
                filled: 0,
                errors: 0,
            }),
            state: loom::sync::atomic::AtomicU8::new(0),
            probing: loom::sync::atomic::AtomicBool::new(false),
            trips: AtomicU64::new(0),
        }
    }

    /// `DeviceHealth::record`: push an outcome and run transitions while
    /// still holding the window lock (which is what serializes them).
    fn record_error(&self, trip_at: u64) {
        let mut w = self.window.lock().unwrap();
        w.filled += 1;
        w.errors += 1;
        assert!(w.errors <= w.filled, "error count exceeds sample count");
        if w.errors >= trip_at && self.state.load(Ordering::Acquire) == 0 {
            self.state.store(2, Ordering::Release);
            self.trips.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// `DeviceHealth::admit` for an open, cooled circuit: the probe slot
    /// CAS. Returns true when this caller won the single slot.
    fn try_probe(&self) -> bool {
        self.state.load(Ordering::Acquire) == 2
            && self
                .probing
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// `DeviceHealth::probe_result(true)`: close the circuit, then — and
    /// only then — release the probe slot.
    fn probe_success(&self) {
        let mut w = self.window.lock().unwrap();
        w.filled = 0;
        w.errors = 0;
        self.state.store(0, Ordering::Release);
        drop(w);
        self.probing.store(false, Ordering::Release);
    }
}

/// Two threads race error records through the window mutex: the counts
/// stay consistent and the breaker trips exactly once — the second
/// recorder must observe the first's transition and stay inert.
#[test]
fn health_window_race_trips_exactly_once() {
    loom::model(|| {
        let h = Arc::new(ModelHealth::new());
        let h2 = Arc::clone(&h);
        let t = thread::spawn(move || h2.record_error(2));
        h.record_error(2);
        t.join().unwrap();
        let w = h.window.lock().unwrap();
        assert_eq!((w.filled, w.errors), (2, 2), "a record was lost");
        assert_eq!(h.state.load(Ordering::Acquire), 2, "breaker must trip");
        assert_eq!(
            h.trips.load(Ordering::Acquire),
            1,
            "the trip transition must fire exactly once"
        );
    });
}

/// Two admitters race for the half-open probe slot of an open circuit:
/// exactly one wins. After its probe succeeds the circuit is closed and
/// the slot is free again — and a late admitter can no longer probe a
/// healthy device.
#[test]
fn health_probe_slot_admits_exactly_one() {
    loom::model(|| {
        let h = Arc::new(ModelHealth::new());
        h.record_error(1); // trip
        let h2 = Arc::clone(&h);
        let t = thread::spawn(move || h2.try_probe());
        let mine = h.try_probe();
        let theirs = t.join().unwrap();
        assert!(
            !(mine && theirs),
            "two probes admitted against one half-open slot"
        );
        assert!(mine || theirs, "an open cooled circuit must grant a probe");
        h.probe_success();
        assert_eq!(h.state.load(Ordering::Acquire), 0, "probe must close");
        assert!(
            !h.probing.load(Ordering::Acquire),
            "slot must be released after the state settles"
        );
        assert!(
            !h.try_probe(),
            "a closed circuit must not grant further probes"
        );
    });
}
