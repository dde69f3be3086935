//! Ranked locking primitives for the GNNDrive workspace.
//!
//! Every blocking lock in the pipeline belongs to a layer of the system,
//! and the layers only ever call *downward*: the pipeline drives the
//! feature buffer, the buffer charges the memory governor, extraction
//! drives the I/O ring, the ring talks to the page cache and the SSD, and
//! everything may emit telemetry. Deadlock across layers is impossible as
//! long as locks are acquired in that descending order — so we make the
//! order machine-checkable.
//!
//! [`OrderedMutex`], [`OrderedRwLock`] and [`OrderedCondvar`] wrap the
//! `std::sync` primitives with a static [`LockRank`] (and without lock
//! poisoning: a thread that panics under a lock leaves it usable, so one
//! failed worker is reported once instead of cascading). In debug builds a
//! thread-local stack records the ranks a thread currently holds;
//! acquiring a lock whose rank is *higher* than some already-held rank is
//! a rank inversion and panics immediately with a diagnostic naming both
//! ranks — turning a potential deadlock every test run would silently risk
//! into a deterministic failure at the exact acquisition site. Release
//! builds compile the bookkeeping out entirely.
//!
//! Acquisition rule: a thread holding a lock of rank `r` may only acquire
//! locks of rank `<= r`. Equal-rank nesting is allowed (e.g. the SSD's
//! file-table lock nests inside its image lock; the telemetry registry
//! locks a container, then an element) — the rank order breaks cycles
//! *between* layers, while same-layer nesting is local enough to audit by
//! hand.
//!
//! This crate is the only place in the workspace permitted to construct
//! raw `std::sync` lock primitives; `cargo xtask lint` enforces that. It is
//! also where the workspace's other shared leaf primitives live: the
//! blocking [`queue`]s between pipeline stages and the seeded [`rng`].

pub mod queue;
pub mod rng;

pub use rng::Rng;

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::Duration;

pub use std::sync::WaitTimeoutResult;

/// The layer a lock belongs to. Locks must be acquired in *descending*
/// rank order (outer layers first), so `Sync` locks are always taken
/// before `Pipeline` locks, which precede `Buffer` locks, and so on down
/// to `Telemetry`, a leaf rank that may be taken while holding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum LockRank {
    /// Telemetry registries, trace buffers, histogram shards. Lowest rank:
    /// metrics are recorded from inside every other layer's critical
    /// sections, so these locks may be acquired while holding anything and
    /// must never acquire upward.
    Telemetry = 0,
    /// Simulated-SSD state: file table, backing image, fault plans,
    /// bandwidth cursor, I/O latency histograms.
    Storage = 1,
    /// Device-health window and circuit-breaker bookkeeping. Recorded from
    /// retry/verification paths that may hold higher-layer locks; acquires
    /// nothing below it except telemetry atomics.
    Health = 2,
    /// OS page-cache model: resident-page map, retry policy, miss tracking.
    PageCache = 3,
    /// I/O ring / transfer-engine queue state.
    Ring = 4,
    /// Memory-governor reclaim bookkeeping.
    Governor = 5,
    /// Feature-buffer, staging-credit and feature-slab locks.
    Buffer = 6,
    /// Pipeline-level state: stage timings, first-error slot, dataset
    /// caches in the bench/baseline harnesses.
    Pipeline = 7,
    /// Cross-worker gradient synchronization (the `GradSync` barrier).
    Sync = 8,
}

impl LockRank {
    /// Every rank, lowest (innermost) first. Keep in sync with
    /// [`RANK_TABLE`]; the unit tests and `cargo xtask deadlock` both fail
    /// if the two drift.
    pub const ALL: [LockRank; 9] = [
        LockRank::Telemetry,
        LockRank::Storage,
        LockRank::Health,
        LockRank::PageCache,
        LockRank::Ring,
        LockRank::Governor,
        LockRank::Buffer,
        LockRank::Pipeline,
        LockRank::Sync,
    ];

    /// The variant's name as it appears in source (`LockRank::name` sites).
    pub const fn name(self) -> &'static str {
        // Exhaustive on purpose: adding a rank without extending this match
        // (and ALL / RANK_TABLE, which the tests pin to it) fails to build.
        match self {
            LockRank::Telemetry => "Telemetry",
            LockRank::Storage => "Storage",
            LockRank::Health => "Health",
            LockRank::PageCache => "PageCache",
            LockRank::Ring => "Ring",
            LockRank::Governor => "Governor",
            LockRank::Buffer => "Buffer",
            LockRank::Pipeline => "Pipeline",
            LockRank::Sync => "Sync",
        }
    }

    pub fn from_name(name: &str) -> Option<LockRank> {
        LockRank::ALL.iter().copied().find(|r| r.name() == name)
    }
}

/// Machine-readable mirror of the [`LockRank`] lattice, lowest rank first.
///
/// `cargo xtask deadlock` parses this table out of the source text (xtask is
/// deliberately dependency-free) and validates every `LockRank::Xxx`
/// acquisition site against it, so the static analyzer and the runtime
/// checker can never disagree about the lattice. The `rank_table_matches_enum`
/// test below pins the table to the enum itself; the analyzer additionally
/// refuses to run if the table is missing or not strictly ascending.
pub const RANK_TABLE: &[(&str, u8)] = &[
    ("Telemetry", 0),
    ("Storage", 1),
    ("Health", 2),
    ("PageCache", 3),
    ("Ring", 4),
    ("Governor", 5),
    ("Buffer", 6),
    ("Pipeline", 7),
    ("Sync", 8),
];

#[cfg(debug_assertions)]
mod held {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// Check that acquiring `rank` respects descending order. Called
    /// *before* blocking on the lock so an inversion panics instead of
    /// deadlocking.
    pub fn check(rank: LockRank) {
        HELD.with(|h| {
            let h = h.borrow();
            if let Some(&min) = h.iter().min() {
                assert!(
                    rank <= min,
                    "lock rank inversion: acquiring {rank:?} (rank {}) while holding \
                     {min:?} (rank {}); locks must be acquired in descending rank order",
                    rank as u8,
                    min as u8,
                );
            }
        });
    }

    pub fn push(rank: LockRank) {
        HELD.with(|h| h.borrow_mut().push(rank));
    }

    /// Remove the most recent entry for `rank` (guards may be dropped out
    /// of stack order).
    pub fn pop(rank: LockRank) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(i) = h.iter().rposition(|&r| r == rank) {
                h.remove(i);
            }
        });
    }

    /// Ranks the current thread holds, innermost last (for diagnostics).
    pub fn snapshot() -> Vec<LockRank> {
        HELD.with(|h| h.borrow().clone())
    }
}

/// Release builds compile the bookkeeping out: same entry points, no-ops.
#[cfg(not(debug_assertions))]
mod held {
    use super::LockRank;

    pub fn check(_rank: LockRank) {}
    pub fn push(_rank: LockRank) {}
    pub fn pop(_rank: LockRank) {}
    pub fn snapshot() -> Vec<LockRank> {
        Vec::new()
    }
}

use held::{check as rank_check, pop as rank_pop, push as rank_push};

/// Ranks held by the current thread, outermost first. Always empty in
/// release builds (the tracking is debug-only).
pub fn held_ranks() -> Vec<LockRank> {
    held::snapshot()
}

/// A [`std::sync::Mutex`] carrying a static [`LockRank`].
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: sync::Mutex<T>,
}

/// Guard for [`OrderedMutex`]; releases the lock and pops the rank on drop.
/// The `std` guard sits in an `Option` only so [`OrderedCondvar`] can hand
/// it to `Condvar::wait` by value and put the reacquired one back.
pub struct OrderedMutexGuard<'a, T> {
    rank: LockRank,
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> OrderedMutex<T> {
    /// `const` so ranked mutexes can live in statics (the telemetry
    /// registries are globals).
    pub const fn new(rank: LockRank, t: T) -> Self {
        OrderedMutex {
            rank,
            inner: sync::Mutex::new(t),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> OrderedMutex<T> {
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        rank_check(self.rank);
        let g = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        rank_push(self.rank);
        OrderedMutexGuard {
            rank: self.rank,
            inner: Some(g),
        }
    }

    /// Non-blocking acquisition: never checked for inversion (it cannot be
    /// the blocked edge of a deadlock cycle), but the held rank is still
    /// recorded so locks acquired *under* it are checked.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let g = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        rank_push(self.rank);
        Some(OrderedMutexGuard {
            rank: self.rank,
            inner: Some(g),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("data", &self.inner)
            .finish()
    }
}

impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        rank_pop(self.rank);
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// A [`std::sync::Condvar`] that understands [`OrderedMutexGuard`]s:
/// the guard's rank leaves the held stack for the duration of the wait
/// (the mutex is released while parked) and returns when the wait
/// reacquires it.
pub struct OrderedCondvar {
    inner: sync::Condvar,
}

impl OrderedCondvar {
    pub const fn new() -> Self {
        OrderedCondvar {
            inner: sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut OrderedMutexGuard<'_, T>) {
        rank_pop(guard.rank);
        let g = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
        // Reacquisition is not re-checked: the thread legitimately held
        // this rank before parking, and waiting is only legal on the
        // innermost lock anyway.
        rank_push(guard.rank);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut OrderedMutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        rank_pop(guard.rank);
        let g = guard.inner.take().expect("guard present outside wait");
        let (g, res) = self
            .inner
            .wait_timeout(g, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(g);
        rank_push(guard.rank);
        res
    }

    pub fn notify_one(&self) {
        self.inner.notify_one()
    }

    pub fn notify_all(&self) {
        self.inner.notify_all()
    }
}

impl Default for OrderedCondvar {
    fn default() -> Self {
        OrderedCondvar::new()
    }
}

/// A [`std::sync::RwLock`] carrying a static [`LockRank`]. Both read and
/// write acquisitions participate in rank checking — a reader blocked
/// behind a writer deadlocks just as hard as a mutex.
pub struct OrderedRwLock<T> {
    rank: LockRank,
    inner: sync::RwLock<T>,
}

pub struct OrderedRwLockReadGuard<'a, T> {
    rank: LockRank,
    inner: sync::RwLockReadGuard<'a, T>,
}

pub struct OrderedRwLockWriteGuard<'a, T> {
    rank: LockRank,
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T> OrderedRwLock<T> {
    pub const fn new(rank: LockRank, t: T) -> Self {
        OrderedRwLock {
            rank,
            inner: sync::RwLock::new(t),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> OrderedRwLock<T> {
    pub fn rank(&self) -> LockRank {
        self.rank
    }

    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        rank_check(self.rank);
        let g = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        rank_push(self.rank);
        OrderedRwLockReadGuard {
            rank: self.rank,
            inner: g,
        }
    }

    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        rank_check(self.rank);
        let g = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        rank_push(self.rank);
        OrderedRwLockWriteGuard {
            rank: self.rank,
            inner: g,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("rank", &self.rank)
            .finish_non_exhaustive()
    }
}

impl<T> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        rank_pop(self.rank);
    }
}

impl<T> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        rank_pop(self.rank);
    }
}

impl<T> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_table_matches_enum() {
        assert_eq!(RANK_TABLE.len(), LockRank::ALL.len());
        for (i, ((name, val), rank)) in RANK_TABLE.iter().zip(LockRank::ALL).enumerate() {
            assert_eq!(*name, rank.name(), "RANK_TABLE[{i}] name drifted");
            assert_eq!(*val, rank as u8, "RANK_TABLE[{i}] value drifted");
            assert_eq!(LockRank::from_name(name), Some(rank));
        }
        // Strictly ascending: the analyzer's lattice checks assume it.
        for w in RANK_TABLE.windows(2) {
            assert!(w[0].1 < w[1].1, "RANK_TABLE not strictly ascending");
        }
        assert_eq!(LockRank::from_name("NoSuchRank"), None);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn descending_acquisition_is_allowed() {
        let outer = OrderedMutex::new(LockRank::Pipeline, 1u32);
        let inner = OrderedMutex::new(LockRank::Storage, 2u32);
        let g1 = outer.lock();
        let g2 = inner.lock();
        assert_eq!(*g1 + *g2, 3);
        assert_eq!(held_ranks(), vec![LockRank::Pipeline, LockRank::Storage]);
        drop(g2);
        drop(g1);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn equal_rank_nesting_is_allowed() {
        let a = OrderedMutex::new(LockRank::Storage, ());
        let b = OrderedRwLock::new(LockRank::Storage, ());
        let _ga = a.lock();
        let _gb = b.write();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn rank_inversion_panics_naming_both_ranks() {
        let err = std::thread::spawn(|| {
            let inner = OrderedMutex::new(LockRank::Storage, ());
            let outer = OrderedMutex::new(LockRank::Buffer, ());
            let _gi = inner.lock();
            let _go = outer.lock(); // Buffer(5) above Storage(1): inversion.
        })
        .join()
        .expect_err("inverted acquisition must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(msg.contains("rank inversion"), "got: {msg}");
        assert!(msg.contains("Buffer"), "acquired rank missing: {msg}");
        assert!(msg.contains("Storage"), "held rank missing: {msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn rwlock_read_participates_in_ranking() {
        let err = std::thread::spawn(|| {
            let low = OrderedMutex::new(LockRank::Telemetry, ());
            let high = OrderedRwLock::new(LockRank::Sync, ());
            let _gl = low.lock();
            let _gh = high.read();
        })
        .join()
        .expect_err("read acquisition above held rank must panic");
        drop(err);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "rank tracking is debug-only")]
    fn out_of_order_guard_drop_keeps_stack_consistent() {
        let a = OrderedMutex::new(LockRank::Buffer, ());
        let b = OrderedMutex::new(LockRank::Governor, ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // dropped before gb: pop must remove the right entry
        assert_eq!(held_ranks(), vec![LockRank::Governor]);
        drop(gb);
        assert!(held_ranks().is_empty());
        // The thread can still acquire normally afterwards.
        let _ = a.lock();
    }

    #[test]
    fn condvar_wait_releases_rank_while_parked() {
        use std::sync::mpsc;
        let pair = std::sync::Arc::new((
            OrderedMutex::new(LockRank::Buffer, false),
            OrderedCondvar::new(),
        ));
        let (tx, rx) = mpsc::channel();
        let p2 = std::sync::Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            tx.send(()).unwrap();
            while !*g {
                cv.wait(&mut g);
            }
            // After the wait returns the rank is held again.
            held_ranks().contains(&LockRank::Buffer) || cfg!(not(debug_assertions))
        });
        rx.recv().unwrap();
        let (m, cv) = &*pair;
        let mut g = m.lock();
        *g = true;
        cv.notify_all();
        drop(g);
        assert!(h.join().unwrap());
    }

    #[test]
    fn wait_for_times_out() {
        let m = OrderedMutex::new(LockRank::Buffer, ());
        let cv = OrderedCondvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(res.timed_out());
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = OrderedMutex::new(LockRank::Ring, 7u8);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(*m.try_lock().unwrap(), 7);
    }
}
