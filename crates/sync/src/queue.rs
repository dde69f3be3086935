//! Blocking MPMC channels between threads ([`bounded`] / [`unbounded`]):
//! one FIFO behind one lock, plus endpoint counting.
//! [`Receiver::drain_into`] takes every queued message per lock, the way an
//! io_uring CQ reap crosses once.
//!
//! The lock is a leaf — never held across a call out of this module —
//! hence no `LockRank`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The queue was closed (or the last receiver dropped); carries the message.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity.
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

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Receivers parked on `not_empty` and senders parked on `not_full`.
    /// A wake-up is a `futex_wake` syscall even with nobody waiting, so
    /// pushes and pops notify only when the count is non-zero.
    parked_recv: usize,
    parked_send: usize,
}

/// A FIFO of at most `cap` items behind one lock; [`Queue::close`] fails
/// later sends while queued items stay receivable.
struct Queue<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Queue<T> {
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "rendezvous (cap 0) queues are not supported");
        Queue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
                parked_recv: 0,
                parked_send: 0,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, msg: T, block: bool) -> Result<(), TrySendError<T>> {
        let mut st = self.lock();
        while block && !st.closed && st.items.len() >= self.cap {
            st.parked_send += 1;
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.parked_send -= 1;
        }
        if st.closed {
            return Err(TrySendError::Disconnected(msg));
        }
        if st.items.len() >= self.cap {
            return Err(TrySendError::Full(msg));
        }
        st.items.push_back(msg);
        if st.parked_recv > 0 {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop everything queued into `out` under one lock, without blocking.
    /// Returns how many moved.
    fn drain_into(&self, out: &mut VecDeque<T>) -> usize {
        let mut st = self.lock();
        let n = st.items.len();
        out.extend(st.items.drain(..));
        for _ in 0..n.min(st.parked_send) {
            self.not_full.notify_one();
        }
        n
    }

    /// Pop the oldest item, waiting until `deadline` (`None` = forever).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.items.pop_front() {
                if st.parked_send > 0 {
                    self.not_full.notify_one();
                }
                return Ok(msg);
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

    fn len(&self) -> usize {
        self.lock().items.len()
    }

    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct Chan<T> {
    queue: Queue<T>,
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
        queue: Queue::new(cap),
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
        self.0.queue.push(msg, true).map_err(|e| match e {
            TrySendError::Full(m) | TrySendError::Disconnected(m) => SendError(m),
        })
    }
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        self.0.queue.push(msg, false)
    }
    /// Whether `self` and `other` send into the same channel.
    pub fn same_channel(&self, other: &Sender<T>) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        self.0.queue.recv_until(None).map_err(|_| RecvError)
    }
    pub fn try_recv(&self) -> Option<T> {
        self.0.queue.recv_until(Some(Instant::now())).ok()
    }
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.0.queue.recv_until(Some(Instant::now() + timeout))
    }
    /// Every queued message, without blocking, under one lock. Returns how
    /// many moved into `out`.
    pub fn drain_into(&self, out: &mut VecDeque<T>) -> usize {
        self.0.queue.drain_into(out)
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
            while !TX && self.0.queue.recv_until(None).is_ok() {}
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
    fn drain_frees_room_for_parked_senders() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        thread::scope(|s| {
            let blocked = s.spawn(|| tx.send(2));
            while rx.0.queue.lock().parked_send < 1 {
                thread::sleep(MS(1));
            }
            let mut out = VecDeque::new();
            assert_eq!(rx.drain_into(&mut out), 1);
            blocked.join().unwrap().unwrap();
        });
        assert_eq!(rx.try_recv(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_ends_and_drains_before_disconnecting() {
        let (q, idle) = (Queue::new(2), Queue::<u8>::new(1));
        q.push(1, false).unwrap();
        q.push(2, false).unwrap();
        thread::scope(|s| {
            let sender = s.spawn(|| q.push(3, true));
            let receiver = s.spawn(|| idle.recv_until(None));
            thread::sleep(MS(10));
            q.close();
            idle.close();
            assert_eq!(sender.join().unwrap(), Err(TrySendError::Disconnected(3)));
            assert_eq!(receiver.join().unwrap(), Err(Disconnected));
        });
        assert_eq!(q.push(4, false), Err(TrySendError::Disconnected(4)));
        let drained = (q.recv_until(None), q.recv_until(None), q.recv_until(None));
        assert_eq!(drained, (Ok(1), Ok(2), Err(Disconnected)));
    }
}
