//! Loom models of the storage-side concurrency protocols:
//!
//! * the [`MemoryGovernor::try_charge`] CAS admission loop
//!   (`crates/storage/src/governor.rs`) — the budget is never overshot and
//!   charge/release balances to zero;
//! * the SimSsd channel-worker handoff (`crates/storage/src/ssd.rs`) — submit /
//!   complete / deadline bookkeeping never loses a request, and a racing
//!   shutdown still answers every queued submission;
//! * the [`DeviceHealth`] window update and half-open probe slot
//!   (`crates/storage/src/health.rs`) — concurrent outcome records keep the error
//!   accounting consistent and trip the breaker exactly once, and the
//!   probe CAS admits exactly one prober per open circuit.
//!
//! Production code uses `std::sync` locks and the `gnndrive_sync::queue`
//! queues built on them, which loom cannot instrument, so each protocol is
//! re-stated here over `loom::sync` primitives with the same orderings.
//! The governor model copies the Acquire/Release choreography verbatim —
//! that is the part the satellite fix changed and the part a model
//! checker can actually falsify (all-Relaxed admission can overshoot on
//! weakly-ordered hardware).
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test --release --manifest-path
//! crates/loom-models/Cargo.toml --test storage`.
#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
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
// SimSsd channel-worker handoff model
// ---------------------------------------------------------------------

/// Mutex+Condvar re-statement of the submit → channel-worker → completion
/// pipeline in `crates/storage/src/ssd.rs` (real loom has no mpsc, so the queue is
/// explicit). `closed` mirrors `Shared::closed` with the same
/// Release-store / Acquire-load pairing used by `shutdown()`.
struct ModelRing {
    queue: Mutex<RingState>,
    submitted: Condvar,
    completed: Condvar,
    closed: loom::sync::atomic::AtomicBool,
}

struct RingState {
    /// Pending request deadlines (virtual clock ticks), FIFO.
    pending: Vec<u64>,
    /// (deadline, ok) completions.
    done: Vec<(u64, bool)>,
    /// The channel's virtual clock — monotone across serviced requests.
    cursor: u64,
    hung_up: bool,
}

impl ModelRing {
    fn new() -> Self {
        ModelRing {
            queue: Mutex::new(RingState {
                pending: Vec::new(),
                done: Vec::new(),
                cursor: 0,
                hung_up: false,
            }),
            submitted: Condvar::new(),
            completed: Condvar::new(),
            closed: loom::sync::atomic::AtomicBool::new(false),
        }
    }

    /// `SimSsd::submit_blocking` + `done.recv()`: enqueue, then wait for
    /// this request's completion. Returns `(deadline, ok)`.
    fn submit_and_wait(&self, service: u64) -> (u64, bool) {
        let mut st = self.queue.lock().unwrap();
        st.pending.push(service);
        self.submitted.notify_one();
        while st.done.is_empty() && !st.hung_up {
            st = self.completed.wait(st).unwrap();
        }
        if st.done.is_empty() {
            (0, false) // worker hung up without answering: must not happen
        } else {
            st.done.remove(0)
        }
    }

    /// One `channel_worker` servicing rounds until told to stop: pops a
    /// request, advances the virtual deadline cursor, completes it —
    /// failing fast (ok = false) when shutdown already closed the device.
    fn worker(&self, rounds: usize) {
        for _ in 0..rounds {
            let mut st = self.queue.lock().unwrap();
            while st.pending.is_empty() {
                st = self.submitted.wait(st).unwrap();
            }
            let service = st.pending.remove(0);
            if self.closed.load(Ordering::Acquire) {
                let at = st.cursor;
                st.done.push((at, false));
                self.completed.notify_all();
                continue;
            }
            let deadline = st.cursor + service;
            st.cursor = deadline;
            st.done.push((deadline, true));
            self.completed.notify_all();
        }
        let mut st = self.queue.lock().unwrap();
        st.hung_up = true;
        self.completed.notify_all();
    }

    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

/// Two submitters, one channel worker: every request is answered exactly
/// once and deadlines advance monotonically (the ring never hands two
/// requests the same service window).
#[test]
fn ring_submissions_complete_with_monotone_deadlines() {
    loom::model(|| {
        let ring = Arc::new(ModelRing::new());
        let w = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.worker(2))
        };
        let s2 = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.submit_and_wait(7))
        };
        let (d1, ok1) = ring.submit_and_wait(5);
        let (d2, ok2) = s2.join().unwrap();
        w.join().unwrap();
        assert!(ok1 && ok2, "open-device submissions must succeed");
        assert_ne!(d1, d2, "two requests shared one deadline slot");
        let st = ring.queue.lock().unwrap();
        assert!(st.pending.is_empty(), "request lost in the queue");
        assert_eq!(st.cursor, 12, "cursor must accumulate both services");
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

// ---------------------------------------------------------------------
// QoS lane models: priority drain + bounded bulk deference
// ---------------------------------------------------------------------

/// Re-statement of `gnndrive_sync::queue::LaneQueue`, the two-lane
/// submission queue `SimSsd` hands its channel workers: a pop drains the
/// serve lane before touching the bulk lane, under the same lock that
/// serializes submission — so "a bulk request is popped while a serve
/// request is pending" is a checkable safety violation, not a race. Like
/// production, a submission wakes the condvar only when the `parked` count
/// (kept under that same lock) is non-zero; a lost wake-up would leave the
/// worker asleep, which loom reports as a deadlock.
struct ModelLaneQueue {
    queue: Mutex<LaneQueueState>,
    submitted: Condvar,
}

struct LaneQueueState {
    serve: Vec<u64>,
    bulk: Vec<u64>,
    /// Lane of each pop, in service order (true = serve).
    pops: Vec<bool>,
    /// How many pops had already happened when the serve request landed.
    pops_at_serve_submit: usize,
    /// Workers currently waiting on `submitted`.
    parked: usize,
}

impl ModelLaneQueue {
    fn new(bulk_backlog: &[u64]) -> Self {
        ModelLaneQueue {
            queue: Mutex::new(LaneQueueState {
                serve: Vec::new(),
                bulk: bulk_backlog.to_vec(),
                pops: Vec::new(),
                pops_at_serve_submit: 0,
                parked: 0,
            }),
            submitted: Condvar::new(),
        }
    }

    fn submit_serve(&self, id: u64) {
        let mut st = self.queue.lock().unwrap();
        st.pops_at_serve_submit = st.pops.len();
        st.serve.push(id);
        if st.parked > 0 {
            self.submitted.notify_one();
        }
    }

    fn worker(&self, rounds: usize) {
        for _ in 0..rounds {
            let mut st = self.queue.lock().unwrap();
            while st.serve.is_empty() && st.bulk.is_empty() {
                st.parked += 1;
                st = self.submitted.wait(st).unwrap();
                st.parked -= 1;
            }
            let is_serve = !st.serve.is_empty();
            if is_serve {
                st.serve.remove(0);
            } else {
                st.bulk.remove(0);
            }
            st.pops.push(is_serve);
        }
    }
}

/// A serve submission racing a worker over a two-deep bulk backlog: the
/// serve request is never popped last (it overtakes at least one queued
/// bulk request), no pop ever takes bulk while serve is visible, and
/// nothing is lost.
#[test]
fn lane_queue_serve_overtakes_queued_bulk() {
    loom::model(|| {
        let q = Arc::new(ModelLaneQueue::new(&[10, 11]));
        let w = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.worker(3))
        };
        q.submit_serve(1);
        w.join().unwrap();
        let st = q.queue.lock().unwrap();
        assert!(st.serve.is_empty() && st.bulk.is_empty(), "request lost");
        assert_eq!(st.pops.len(), 3);
        // The priority property: submit and pop share the queue lock, so
        // the very next pop after the serve submission must take the
        // serve lane — it overtakes every bulk request still queued.
        let serve_pos = st.pops.iter().position(|&s| s).expect("serve pop");
        assert_eq!(
            serve_pos, st.pops_at_serve_submit,
            "a queued bulk request was serviced ahead of the pending serve request"
        );
    });
}

/// Re-statement of `MemoryGovernor::charge_waiting_lane`'s bulk-side
/// deference (`crates/storage/src/governor.rs`): a bulk waiter polls, deferring while
/// `serve_waiters > 0` (Acquire, as production) — but for at most
/// `BULK_DEFER_POLLS` rounds, after which it charges anyway. The model
/// checks both sides: bulk never admits ahead of a registered serve
/// waiter *within* its deference budget, and an exhausted budget always
/// admits (no starvation).
#[test]
fn lane_governor_bulk_defers_bounded_then_admits() {
    const DEFER_BOUND: u32 = 2;
    loom::model(|| {
        let serve_waiters = Arc::new(AtomicU64::new(0));
        let serve_done = Arc::new(loom::sync::atomic::AtomicBool::new(false));

        let sw = Arc::clone(&serve_waiters);
        let sd = Arc::clone(&serve_done);
        let server = thread::spawn(move || {
            // ServeWaiterSlot: register (AcqRel), take the memory, drop.
            sw.fetch_add(1, Ordering::AcqRel);
            sd.store(true, Ordering::Release);
            let prev = sw.fetch_sub(1, Ordering::AcqRel);
            assert!(prev >= 1, "waiter registration must balance");
        });

        // Bulk waiter: the charge_waiting_lane poll loop.
        let mut deferred = 0u32;
        let admitted_with_serve_pending = loop {
            let pending = serve_waiters.load(Ordering::Acquire) > 0;
            if pending && deferred < DEFER_BOUND {
                deferred += 1;
                thread::yield_now();
                continue;
            }
            break pending;
        };
        if admitted_with_serve_pending {
            assert_eq!(
                deferred, DEFER_BOUND,
                "bulk admitted past a serve waiter with deference budget left"
            );
        }
        server.join().unwrap();
        assert_eq!(serve_waiters.load(Ordering::Acquire), 0);
        assert!(serve_done.load(Ordering::Acquire), "serve waiter starved");
    });
}

/// Shutdown racing a submission: the submitter is always answered —
/// either serviced (submitted before the close became visible) or failed
/// fast — never left waiting on a dead ring.
#[test]
fn ring_shutdown_race_always_answers_the_submitter() {
    loom::model(|| {
        let ring = Arc::new(ModelRing::new());
        let w = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.worker(1))
        };
        let closer = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.shutdown())
        };
        let (deadline, ok) = ring.submit_and_wait(5);
        w.join().unwrap();
        closer.join().unwrap();
        if ok {
            assert_eq!(deadline, 5, "serviced request must pay full latency");
        }
        let st = ring.queue.lock().unwrap();
        assert!(st.pending.is_empty(), "request lost during shutdown race");
    });
}
