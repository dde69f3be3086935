//! Loom model of the GradSync arrive/leave barrier protocol
//! (`crates/core/src/parallel.rs`).
//!
//! The production type holds matrices and uses `OrderedMutex` (which wraps
//! `std::sync`, primitives loom cannot instrument), so the protocol is
//! re-stated here 1:1 over `loom::sync` primitives with a scalar payload.
//! If the logic in `parallel.rs` changes, change this model to match —
//! the invariants below are what the real barrier promises:
//!
//! * **No lost generation**: when `leave()` races the last `all_reduce`
//!   arrival, exactly one of them finalizes the round; the arrived worker
//!   always wakes with an advanced generation (never deadlocks, never
//!   observes two finalizations of one round).
//! * **Average over arrivers only**: the finalized value divides by the
//!   number of workers that actually contributed, not the configured
//!   worker count.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test --release --manifest-path
//! crates/loom-models/Cargo.toml --test sync`; the schedule exploration is
//! exhaustive.
#![cfg(loom)]

use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;

/// Scalar re-statement of `GradSync`'s `SyncState` + protocol.
struct ModelSync {
    inner: Mutex<ModelState>,
    cv: Condvar,
}

struct ModelState {
    active: usize,
    arrived: usize,
    generation: u64,
    accum: f64,
    result: f64,
    finalizations: u64,
}

impl ModelSync {
    fn new(workers: usize) -> Self {
        ModelSync {
            inner: Mutex::new(ModelState {
                active: workers,
                arrived: 0,
                generation: 0,
                accum: 0.0,
                result: 0.0,
                finalizations: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn finalize_round(st: &mut ModelState, cv: &Condvar) {
        st.result = st.accum / st.arrived as f64;
        st.accum = 0.0;
        st.generation += 1;
        st.finalizations += 1;
        st.arrived = 0;
        cv.notify_all();
    }

    /// Mirrors `GradSync::all_reduce`; returns the averaged gradient.
    fn all_reduce(&self, grad: f64) -> f64 {
        let mut st = self.inner.lock().unwrap();
        st.accum += grad;
        st.arrived += 1;
        let my_gen = st.generation;
        if st.arrived >= st.active {
            Self::finalize_round(&mut st, &self.cv);
        } else {
            while st.generation == my_gen {
                st = self.cv.wait(st).unwrap();
            }
        }
        st.result
    }

    /// Mirrors `GradSync::leave`.
    fn leave(&self) {
        let mut st = self.inner.lock().unwrap();
        st.active -= 1;
        if st.arrived > 0 && st.arrived >= st.active {
            Self::finalize_round(&mut st, &self.cv);
        }
    }
}

/// The satellite invariant: a departing worker racing the last arrival
/// never strands that arrival (lost generation / deadlock) and never
/// double-finalizes the round.
#[test]
fn leave_racing_last_arrival_never_loses_a_generation() {
    loom::model(|| {
        let sync = Arc::new(ModelSync::new(2));
        let s2 = Arc::clone(&sync);
        // Worker B finishes its segment without contributing this round.
        let b = thread::spawn(move || s2.leave());
        // Worker A contributes; whichever side runs second must finalize.
        let avg = sync.all_reduce(8.0);
        b.join().unwrap();
        assert_eq!(avg, 8.0, "sole arriver averages over itself");
        let st = sync.inner.lock().unwrap();
        assert_eq!(st.generation, 1, "round must complete exactly once");
        assert_eq!(st.finalizations, 1, "leave + arrival double-finalized");
        assert_eq!(st.arrived, 0);
    });
}

/// Full-group round: both workers arrive, both observe the same average
/// and the same (single) generation bump.
#[test]
fn concurrent_arrivals_average_once() {
    loom::model(|| {
        let sync = Arc::new(ModelSync::new(2));
        let s2 = Arc::clone(&sync);
        let b = thread::spawn(move || s2.all_reduce(2.0));
        let got_a = sync.all_reduce(4.0);
        let got_b = b.join().unwrap();
        assert_eq!(got_a, 3.0);
        assert_eq!(got_b, 3.0);
        let st = sync.inner.lock().unwrap();
        assert_eq!(st.generation, 1);
        assert_eq!(st.finalizations, 1);
    });
}

/// Three workers, one leaves mid-epoch: the remaining pair still completes
/// a round (the barrier shrinks rather than deadlocking).
#[test]
fn barrier_shrinks_when_a_worker_departs() {
    loom::model(|| {
        let sync = Arc::new(ModelSync::new(3));
        let s2 = Arc::clone(&sync);
        let s3 = Arc::clone(&sync);
        let leaver = thread::spawn(move || s3.leave());
        let b = thread::spawn(move || s2.all_reduce(1.0));
        let got_a = sync.all_reduce(3.0);
        let got_b = b.join().unwrap();
        leaver.join().unwrap();
        assert_eq!(got_a, got_b, "both survivors see the same round result");
        assert_eq!(got_a, 2.0);
        let st = sync.inner.lock().unwrap();
        assert_eq!(st.generation, 1);
        assert_eq!(st.active, 2);
    });
}
