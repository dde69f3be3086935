//! Loom models of the storage-side concurrency protocols:
//!
//! * the [`MemoryGovernor::try_charge`] CAS admission loop
//!   (`crates/storage/src/governor.rs`) — the budget is never overshot and
//!   charge/release balances to zero;
//! * the SimSsd channel-worker handoff (`crates/storage/src/ssd.rs`) — a
//!   batch submit that fills the device queue, the workers' completions
//!   and a reap that drains them all in one lock never lose or duplicate a
//!   request, and a racing shutdown still answers every submission;
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

/// Mutex+Condvar re-statement of the batched submit → channel-worker →
/// completion pipeline in `crates/storage/src/ssd.rs` and `ring.rs` (real
/// loom has no mpsc, so the queues are explicit). `IoRing::submit` hands
/// its whole SQ to `SimSsd::try_submit_many`, which moves entries until the
/// device queue is full under one lock and wakes at most one parked worker
/// per entry moved (`LaneQueue::try_send_many`); a reap takes every
/// completion that has arrived under one lock (`LaneQueue::drain_into`).
/// `closed` mirrors `Shared::closed` with the same Release-store /
/// Acquire-load pairing used by `shutdown()`; `queue_closed` is the
/// `LaneQueue`'s own flag, set under its lock after the store.
struct ModelRing {
    queue: Mutex<RingState>,
    submitted: Condvar,
    completed: Condvar,
    closed: loom::sync::atomic::AtomicBool,
}

struct RingState {
    /// Device queue of `(id, service)` requests, FIFO, at most `cap` long.
    pending: Vec<(u64, u64)>,
    cap: usize,
    /// Answers not yet drained, in the order they were given.
    done: Vec<Answer>,
    queue_closed: bool,
    /// Workers parked on `submitted`: a batch wakes at most one per entry.
    parked: usize,
    /// Workers that have exited.
    hung_up: usize,
}

/// One request's completion.
#[derive(Clone, Copy, Debug)]
struct Answer {
    id: u64,
    /// The serving channel's virtual clock after it (0 when refused).
    deadline: u64,
    ok: bool,
    /// The worker that answered it; `None` when the closed queue refused it.
    channel: Option<usize>,
}

impl ModelRing {
    fn new(cap: usize) -> Self {
        ModelRing {
            queue: Mutex::new(RingState {
                pending: Vec::new(),
                cap,
                done: Vec::new(),
                queue_closed: false,
                parked: 0,
                hung_up: 0,
            }),
            submitted: Condvar::new(),
            completed: Condvar::new(),
            closed: loom::sync::atomic::AtomicBool::new(false),
        }
    }

    /// `IoRing::submit`: move the front of `sq` into the device queue until
    /// it is full, under one lock. A closed queue consumes every entry and
    /// answers it failed (`SimSsd::refuse`). Returns how many left `sq`.
    fn submit_batch(&self, sq: &mut Vec<(u64, u64)>) -> usize {
        let mut st = self.queue.lock().unwrap();
        if st.queue_closed {
            let n = sq.len();
            st.done.extend(sq.drain(..).map(|(id, _)| Answer {
                id,
                deadline: 0,
                ok: false,
                channel: None,
            }));
            self.completed.notify_all();
            return n;
        }
        let moved = (st.cap - st.pending.len()).min(sq.len());
        st.pending.extend(sq.drain(..moved));
        for _ in 0..moved.min(st.parked) {
            self.submitted.notify_one();
        }
        moved
    }

    /// The extractor's reap rounds: backfill the device from the SQ, take
    /// every completion that has arrived in one lock, and park only when
    /// none has. Returns the `n` answers in arrival order.
    fn reap(&self, sq: &mut Vec<(u64, u64)>, n: usize) -> Vec<Answer> {
        let mut cq = Vec::new();
        while cq.len() < n {
            self.submit_batch(sq);
            let mut st = self.queue.lock().unwrap();
            while st.done.is_empty() && st.hung_up == 0 {
                st = self.completed.wait(st).unwrap();
            }
            // A worker only hangs up on a closed queue, which the next
            // submit answers for whatever the SQ still holds.
            if st.done.is_empty() && sq.is_empty() {
                break; // nothing left that could answer: must not happen
            }
            cq.append(&mut st.done);
        }
        cq
    }

    /// `channel_worker` number `channel`: pops requests until the queue is
    /// closed and drained, advancing its own virtual clock by each service,
    /// and answers each — failing fast (ok = false) once shutdown has
    /// closed the device.
    fn worker(&self, channel: usize) {
        let mut cursor = 0;
        loop {
            let mut st = self.queue.lock().unwrap();
            while st.pending.is_empty() && !st.queue_closed {
                st.parked += 1;
                st = self.submitted.wait(st).unwrap();
                st.parked -= 1;
            }
            if st.pending.is_empty() {
                st.hung_up += 1;
                self.completed.notify_all();
                return;
            }
            let (id, service) = st.pending.remove(0);
            let ok = !self.closed.load(Ordering::Acquire);
            if ok {
                cursor += service;
            }
            st.done.push(Answer {
                id,
                deadline: cursor,
                ok,
                channel: Some(channel),
            });
            self.completed.notify_all();
        }
    }

    /// `SimSsd::shutdown`: flag the device closed, then close its queue so
    /// parked workers drain it and exit.
    fn shutdown(&self) {
        self.closed.store(true, Ordering::Release);
        let mut st = self.queue.lock().unwrap();
        st.queue_closed = true;
        self.submitted.notify_all();
        self.completed.notify_all();
    }
}

/// Each channel's clock sums the services it charged: the requests a
/// worker served, in its order, have strictly increasing deadlines, each
/// the running sum of that worker's services (no two share a service
/// window). `services[id]` is request `id`'s service.
fn assert_channel_clocks(answers: &[Answer], services: &[u64], channels: usize) {
    for channel in 0..channels {
        let mut clock = 0;
        for a in answers
            .iter()
            .filter(|a| a.ok && a.channel == Some(channel))
        {
            let before = clock;
            clock += services[a.id as usize];
            assert_eq!(
                a.deadline, clock,
                "channel {channel}: request {} must end at its clock",
                a.id
            );
            assert!(a.deadline > before, "channel {channel}: deadlines must rise");
        }
    }
}

/// A three-entry SQ against a two-deep device queue and two channel
/// workers: the first batch submits partially, one batch wakes both
/// parked workers (no lost wake-up — loom reports a deadlock otherwise),
/// every request is answered exactly once, and each channel's deadlines
/// advance with the services it charged — a worker that served 5 then 7
/// answers 5 and 12.
#[test]
fn batched_submissions_complete_once_each() {
    loom::model(|| {
        const SERVICES: [u64; 3] = [5, 7, 11];
        let ring = Arc::new(ModelRing::new(2));
        let workers: Vec<_> = (0..2)
            .map(|channel| {
                let r = Arc::clone(&ring);
                thread::spawn(move || r.worker(channel))
            })
            .collect();
        let mut sq: Vec<(u64, u64)> = (0..).zip(SERVICES).collect();
        assert_eq!(ring.submit_batch(&mut sq), 2, "the device queue holds two");
        let mut answers = ring.reap(&mut sq, 3);
        ring.shutdown();
        workers.into_iter().for_each(|w| w.join().unwrap());
        assert!(answers.iter().all(|a| a.ok), "open-device submissions succeed");
        assert_channel_clocks(&answers, &SERVICES, 2);
        answers.sort_unstable_by_key(|a| a.id);
        let ids: Vec<u64> = answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, [0, 1, 2], "a request was lost or answered twice");
        let st = ring.queue.lock().unwrap();
        assert!(st.pending.is_empty() && st.done.is_empty());
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

/// Shutdown racing a batch submission: each entry is answered exactly
/// once — serviced (taken before the close became visible) or failed fast,
/// by the worker or by the closed queue's refusal — and the submitter is
/// never left waiting on a dead ring.
#[test]
fn ring_shutdown_race_answers_every_batched_submission() {
    loom::model(|| {
        let ring = Arc::new(ModelRing::new(1));
        let w = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.worker(0))
        };
        let closer = {
            let r = Arc::clone(&ring);
            thread::spawn(move || r.shutdown())
        };
        const SERVICES: [u64; 2] = [5, 7];
        let mut sq: Vec<(u64, u64)> = (0..).zip(SERVICES).collect();
        let mut answers = ring.reap(&mut sq, 2);
        w.join().unwrap();
        closer.join().unwrap();
        // A serviced request pays its full latency on the channel's clock.
        assert_channel_clocks(&answers, &SERVICES, 1);
        answers.sort_unstable_by_key(|a| a.id);
        let ids: Vec<u64> = answers.iter().map(|a| a.id).collect();
        assert_eq!(ids, [0, 1], "a request was lost or answered twice");
        let st = ring.queue.lock().unwrap();
        assert!(st.pending.is_empty(), "request lost during shutdown race");
    });
}
