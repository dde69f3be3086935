//! Blocking queues between threads: [`LaneQueue`], a two-lane serve-first
//! bounded queue, and the MPMC channel ([`bounded`] / [`unbounded`]), which
//! is a `LaneQueue` used through its bulk lane plus endpoint counting.
//!
//! One mutex guards both lanes, so a bulk item is never popped while a serve
//! item is queued (what `ModelLaneQueue` in the loom models checks). It is a
//! leaf — never held across a call out of this module — hence no `LockRank`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The queue was closed (or the last receiver dropped); carries the message.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The target lane is at capacity.
    Full(T),
    Disconnected(T),
}

/// The queue is closed (or every sender dropped) and fully drained.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

struct Lanes<T> {
    /// `[serve, bulk]`; every pop takes from `serve` first.
    lanes: [VecDeque<T>; 2],
    closed: bool,
    /// Receivers parked on `not_empty` and, per lane, senders parked on
    /// `not_full`. A wake-up is a `futex_wake` syscall even with nobody
    /// waiting, so pushes and pops notify only when the count is non-zero.
    parked_recv: usize,
    parked_send: [usize; 2],
}

/// Two FIFO lanes of at most `cap` items each behind one lock. Receivers
/// always take the serve lane first; [`LaneQueue::close`] fails later sends
/// while queued items stay receivable.
pub struct LaneQueue<T> {
    state: Mutex<Lanes<T>>,
    cap: usize,
    not_empty: Condvar,
    /// Per lane, so a pop wakes a sender that can actually use the slot.
    not_full: [Condvar; 2],
}

impl<T> LaneQueue<T> {
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "rendezvous (cap 0) queues are not supported");
        LaneQueue {
            state: Mutex::new(Lanes {
                lanes: [VecDeque::new(), VecDeque::new()],
                closed: false,
                parked_recv: 0,
                parked_send: [0; 2],
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: [Condvar::new(), Condvar::new()],
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lanes<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, serve: bool, msg: T, block: bool) -> Result<(), TrySendError<T>> {
        let (lane, mut st) = (usize::from(!serve), self.lock());
        while block && !st.closed && st.lanes[lane].len() >= self.cap {
            st.parked_send[lane] += 1;
            st = self.not_full[lane]
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.parked_send[lane] -= 1;
        }
        if st.closed {
            return Err(TrySendError::Disconnected(msg));
        }
        if st.lanes[lane].len() >= self.cap {
            return Err(TrySendError::Full(msg));
        }
        st.lanes[lane].push_back(msg);
        if st.parked_recv > 0 {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Enqueue on the serve (`true`) or bulk lane; blocks while it is full.
    pub fn send(&self, serve: bool, msg: T) -> Result<(), SendError<T>> {
        self.push(serve, msg, true).map_err(|e| match e {
            TrySendError::Full(m) | TrySendError::Disconnected(m) => SendError(m),
        })
    }

    pub fn try_send(&self, serve: bool, msg: T) -> Result<(), TrySendError<T>> {
        self.push(serve, msg, false)
    }

    /// Pop serve-first, waiting until `deadline` (`None` = forever).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.lock();
        loop {
            for lane in 0..2 {
                if let Some(msg) = st.lanes[lane].pop_front() {
                    if st.parked_send[lane] > 0 {
                        self.not_full[lane].notify_one();
                    }
                    return Ok(msg);
                }
            }
            if st.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left.is_some_and(|l| l.is_zero()) {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked_recv += 1;
            st = match left {
                None => self.not_empty.wait(st),
                Some(left) => {
                    let timed = self.not_empty.wait_timeout(st, left);
                    Ok(timed.unwrap_or_else(PoisonError::into_inner).0)
                }
            }
            .unwrap_or_else(PoisonError::into_inner);
            st.parked_recv -= 1;
        }
    }

    /// Block for the next item; `Err` once the queue is closed *and* empty.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Items queued across both lanes.
    pub fn len(&self) -> usize {
        let st = self.lock();
        st.lanes[0].len() + st.lanes[1].len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.iter().for_each(Condvar::notify_all);
    }
}

struct Chan<T> {
    queue: LaneQueue<T>,
    /// Live `[Receiver, Sender]` handles.
    ends: [AtomicUsize; 2],
}

/// One end of a channel. The channel disconnects when the last handle of
/// either end drops; messages already queued are still delivered.
pub struct End<T, const TX: bool>(Arc<Chan<T>>);
pub type Sender<T> = End<T, true>;
pub type Receiver<T> = End<T, false>;

/// A FIFO channel holding at most `cap` messages; `send` blocks while full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        queue: LaneQueue::new(cap),
        ends: [AtomicUsize::new(1), AtomicUsize::new(1)],
    });
    (End(Arc::clone(&chan)), End(chan))
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    bounded(usize::MAX)
}

impl<T, const TX: bool> End<T, TX> {
    pub fn len(&self) -> usize {
        self.0.queue.len()
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Sender<T> {
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.0.queue.send(false, msg)
    }
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        self.0.queue.try_send(false, msg)
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        self.0.queue.recv()
    }
    pub fn try_recv(&self) -> Option<T> {
        self.0.queue.recv_until(Some(Instant::now())).ok()
    }
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.queue.recv_until(Some(Instant::now() + timeout))
    }
}

impl<T, const TX: bool> Clone for End<T, TX> {
    fn clone(&self) -> Self {
        self.0.ends[usize::from(TX)].fetch_add(1, Ordering::AcqRel);
        End(Arc::clone(&self.0))
    }
}

impl<T, const TX: bool> Drop for End<T, TX> {
    fn drop(&mut self) {
        if self.0.ends[usize::from(TX)].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.queue.close();
            // Drop what no receiver can take any more, and the reply senders it carries.
            while !TX && self.0.queue.recv().is_ok() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use RecvTimeoutError::{Disconnected, Timeout};
    const MS: fn(u64) -> Duration = Duration::from_millis;

    #[test]
    fn four_by_four_keeps_per_producer_fifo_and_loses_nothing() {
        let (tx, rx) = bounded::<(u32, u32)>(3);
        let seen: Vec<Vec<(u32, u32)>> = thread::scope(|s| {
            for p in 0..4 {
                let tx = tx.clone();
                s.spawn(move || (0..200).for_each(|i| tx.send((p, i)).unwrap()));
            }
            drop(tx);
            let consumers: Vec<_> = (0..4)
                .map(|_| s.spawn(|| std::iter::from_fn(|| rx.recv().ok()).collect()))
                .collect();
            consumers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for got in &seen {
            let fifo = |p| got.iter().filter(|m| m.0 == p).is_sorted();
            assert!((0..4).all(fifo), "a producer was reordered: {got:?}");
        }
        let mut all: Vec<(u32, u32)> = seen.into_iter().flatten().collect();
        all.sort_unstable();
        let sent: Vec<(u32, u32)> = (0..4).flat_map(|p| (0..200).map(move |i| (p, i))).collect();
        assert_eq!(all, sent, "a message was lost or delivered twice");
    }

    #[test]
    fn blocked_recv_wakes_on_send() {
        let (tx, rx) = bounded(1);
        thread::scope(|s| {
            let parked = s.spawn(|| rx.recv());
            thread::sleep(MS(20));
            assert!(!parked.is_finished(), "recv must block while empty");
            tx.send(7).unwrap();
            assert_eq!(parked.join().unwrap(), Ok(7));
        });
    }

    #[test]
    fn blocked_send_resumes_only_after_a_recv_on_its_lane() {
        let q = LaneQueue::new(1);
        q.send(true, "s1").unwrap();
        q.send(false, "b1").unwrap();
        thread::scope(|s| {
            let blocked = s.spawn(|| q.send(false, "b2"));
            thread::sleep(MS(20));
            assert_eq!(q.recv(), Ok("s1"));
            thread::sleep(MS(20));
            assert!(!blocked.is_finished(), "a serve pop frees no bulk slot");
            assert_eq!(q.recv(), Ok("b1"));
            blocked.join().unwrap().unwrap();
        });
        assert_eq!((q.recv(), q.len()), (Ok("b2"), 0));
    }

    #[test]
    fn full_queue_pushes_back_until_one_recv() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(3));
            thread::sleep(MS(20));
            assert!(!blocked.is_finished(), "send must block while full");
            assert_eq!(rx.recv(), Ok(1));
            blocked.join().unwrap().unwrap();
        });
        assert_eq!((rx.len(), tx.len()), (2, 2));
    }

    #[test]
    fn queued_items_outlive_the_last_sender_then_disconnect() {
        let (tx, rx) = unbounded();
        tx.clone().send("a").unwrap();
        tx.send("b").unwrap();
        drop(tx);
        let got = (rx.recv(), rx.recv(), rx.recv(), rx.try_recv());
        assert_eq!(got, (Ok("a"), Ok("b"), Err(RecvError), None));
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
        assert_eq!(tx.try_send(9), Err(TrySendError::Disconnected(9)));
    }

    #[test]
    fn recv_timeout_times_out_and_wakes_early() {
        let (tx, rx) = bounded(1);
        assert_eq!(rx.recv_timeout(MS(10)), Err(Timeout));
        thread::scope(|s| {
            s.spawn(|| {
                thread::sleep(MS(10));
                tx.send(5).unwrap();
            });
            let t = Instant::now();
            assert_eq!(rx.recv_timeout(MS(5000)), Ok(5));
            assert!(t.elapsed() < MS(4000), "send must wake the waiter");
        });
        drop(tx);
        assert_eq!(rx.recv_timeout(MS(5000)), Err(Disconnected));
    }

    #[test]
    fn serve_lane_pops_first_and_full_is_per_lane() {
        let q = LaneQueue::new(2);
        q.send(false, "b1").unwrap();
        q.send(false, "b2").unwrap();
        assert_eq!(q.try_send(false, "b3"), Err(TrySendError::Full("b3")));
        assert_eq!(q.try_send(true, "s1"), Ok(()), "the serve lane has room");
        assert_eq!(q.len(), 3);
        assert_eq!((q.recv(), q.recv()), (Ok("s1"), Ok("b1")));
        q.send(true, "s2").unwrap();
        assert_eq!((q.recv(), q.recv(), q.len()), (Ok("s2"), Ok("b2"), 0));
    }

    #[test]
    fn close_wakes_blocked_ends_and_drains_both_lanes_before_disconnecting() {
        let (q, idle) = (LaneQueue::new(1), LaneQueue::<u8>::new(1));
        q.send(false, 1).unwrap();
        q.send(true, 2).unwrap();
        thread::scope(|s| {
            let sender = s.spawn(|| q.send(false, 3));
            let receiver = s.spawn(|| idle.recv());
            thread::sleep(MS(10));
            q.close();
            idle.close();
            assert_eq!(sender.join().unwrap(), Err(SendError(3)));
            assert_eq!(receiver.join().unwrap(), Err(RecvError));
        });
        assert_eq!(q.try_send(true, 4), Err(TrySendError::Disconnected(4)));
        let drained = (q.recv(), q.recv(), q.recv());
        assert_eq!(drained, (Ok(2), Ok(1), Err(RecvError)));
    }
}
