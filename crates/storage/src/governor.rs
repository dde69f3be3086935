//! Host-memory budget enforcement.
//!
//! The paper's evaluation constrains host memory between 8 GB and 128 GB and
//! observes both performance (Fig 9) and hard OOM failures (Ginex at 8 GB,
//! MariusGNN with MAG240M). We cannot constrain the real OS, so every
//! memory consumer in this reproduction — the page-cache model, staging
//! buffers, application caches, in-memory topology — charges a
//! [`MemoryGovernor`] instead.
//!
//! Two charge kinds mirror Linux semantics:
//!
//! * [`ChargeKind::PageCache`] — reclaimable; the page cache registers
//!   itself as a [`MemoryReclaimer`] and is shrunk when anonymous memory
//!   needs room. This is precisely the mechanism of the paper's memory
//!   contention: a growing anonymous footprint (feature buffers) evicts
//!   cached topology pages and sampling slows down.
//! * [`ChargeKind::Anonymous`] — not reclaimable; if the budget cannot be
//!   met even after reclaiming the page cache, the charge fails with
//!   [`OomError`].

use crate::error::OomError;
use gnndrive_sync::{LockRank, OrderedMutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// What kind of memory a charge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeKind {
    /// Reclaimable file-backed pages (evicted under pressure, never OOMs the
    /// charger — the cache simply shrinks).
    PageCache,
    /// Anonymous application memory (buffers, caches, tensors). Failing to
    /// satisfy it is an OOM.
    Anonymous,
}

/// Something that can give memory back under pressure (the page cache).
pub trait MemoryReclaimer: Send + Sync {
    /// Try to free at least `want` bytes; return the bytes actually freed.
    fn reclaim(&self, want: u64) -> u64;
}

/// Byte-granular host memory budget shared by all subsystems.
pub struct MemoryGovernor {
    budget: u64,
    used_anonymous: AtomicU64,
    used_page_cache: AtomicU64,
    reclaimers: OrderedMutex<Vec<Weak<dyn MemoryReclaimer>>>,
}

impl std::fmt::Debug for MemoryGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryGovernor")
            .field("budget", &self.budget)
            .field("used_anonymous", &self.used_anonymous)
            .field("used_page_cache", &self.used_page_cache)
            .finish()
    }
}

impl MemoryGovernor {
    /// A governor enforcing `budget` bytes of host memory.
    pub fn new(budget: u64) -> Arc<Self> {
        Arc::new(MemoryGovernor {
            budget,
            used_anonymous: AtomicU64::new(0),
            used_page_cache: AtomicU64::new(0),
            reclaimers: OrderedMutex::new(LockRank::Governor, Vec::new()),
        })
    }

    /// An effectively unlimited governor (tests, unconstrained runs).
    pub fn unlimited() -> Arc<Self> {
        Self::new(u64::MAX / 2)
    }

    pub fn budget(&self) -> u64 {
        self.budget
    }

    pub fn used(&self) -> u64 {
        self.used_anonymous.load(Ordering::Acquire) + self.used_page_cache.load(Ordering::Acquire)
    }

    pub fn used_anonymous(&self) -> u64 {
        self.used_anonymous.load(Ordering::Acquire)
    }

    pub fn used_page_cache(&self) -> u64 {
        self.used_page_cache.load(Ordering::Acquire)
    }

    /// Bytes still unallocated (before any reclaim).
    pub fn available(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }

    /// Register a reclaimer consulted when anonymous charges hit the budget.
    pub fn register_reclaimer(&self, r: &Arc<dyn MemoryReclaimer>) {
        self.reclaimers.lock().push(Arc::downgrade(r));
    }

    fn counter(&self, kind: ChargeKind) -> &AtomicU64 {
        match kind {
            ChargeKind::PageCache => &self.used_page_cache,
            ChargeKind::Anonymous => &self.used_anonymous,
        }
    }

    /// Attempt to reserve `bytes` without triggering reclaim.
    ///
    /// Returns `None` if the budget would be exceeded. It never reclaims
    /// and never waits: a refusal leaves every other charge, the page
    /// cache's included, as it was. Used by the page cache, which shrinks
    /// itself instead of pressuring others, and by the pipeline's samplers,
    /// which run ahead of the extract queue only on memory nobody else
    /// needs (DESIGN.md §4 item 10).
    pub fn try_charge(self: &Arc<Self>, bytes: u64, kind: ChargeKind) -> Option<MemCharge> {
        let counter = self.counter(kind);
        // Acquire/Release pairing: a successful charge publishes the new
        // byte count to every other thread's admission decision, and the
        // loads must observe releases performed by `release()` on other
        // threads — with everything Relaxed, an admission could act on a
        // stale counter and overshoot the budget on weakly-ordered
        // hardware (the hazard flagged by `cargo xtask lint`).
        let mut cur = counter.load(Ordering::Acquire);
        loop {
            let other = match kind {
                ChargeKind::PageCache => self.used_anonymous.load(Ordering::Acquire),
                ChargeKind::Anonymous => self.used_page_cache.load(Ordering::Acquire),
            };
            if cur + bytes + other > self.budget {
                return None;
            }
            match counter.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Some(MemCharge {
                        gov: Arc::clone(self),
                        bytes,
                        kind,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Reserve `bytes` of anonymous memory, reclaiming page cache if needed.
    ///
    /// This is the "malloc" of the reproduction; on failure it returns the
    /// paper's OOM outcome.
    pub fn charge(self: &Arc<Self>, bytes: u64) -> Result<MemCharge, OomError> {
        if let Some(c) = self.try_charge(bytes, ChargeKind::Anonymous) {
            return Ok(c);
        }
        // Under pressure: ask reclaimers (page cache) to shrink.
        let deficit = (self.used() + bytes).saturating_sub(self.budget);
        let mut freed = 0u64;
        {
            let mut rs = self.reclaimers.lock();
            rs.retain(|w| w.strong_count() > 0);
            let live: Vec<_> = rs.iter().filter_map(|w| w.upgrade()).collect();
            drop(rs);
            for r in live {
                if freed >= deficit {
                    break;
                }
                freed += r.reclaim(deficit - freed);
            }
        }
        self.try_charge(bytes, ChargeKind::Anonymous)
            .ok_or_else(|| OomError {
                requested: bytes,
                available: self.available(),
                budget: self.budget,
            })
    }

    /// Like [`MemoryGovernor::charge`], but wait (polling reclaim) up to
    /// `timeout` for memory to free up before declaring OOM — the
    /// behaviour of an allocation that triggers kernel reclaim and direct
    /// compaction rather than failing fast. Used by baseline loaders whose
    /// real counterparts block inside `malloc` under pressure.
    pub fn charge_waiting(
        self: &Arc<Self>,
        bytes: u64,
        timeout: std::time::Duration,
    ) -> Result<MemCharge, OomError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut stalled = None;
        loop {
            match self.charge(bytes) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if stalled.is_none() {
                        // Count admissions that had to wait (not each poll):
                        // the paper's memory-contention symptom is threads
                        // stalling at allocation, not how long the 2 ms poll
                        // loop spins. The timer spans the whole stalled
                        // admission and feeds the 𝔒1 attribution bucket.
                        stalled = Some(gnndrive_telemetry::wait_timer(
                            gnndrive_telemetry::WaitKind::MemAdmission,
                        ));
                        gnndrive_telemetry::catalog::GOVERNOR_ADMISSION_STALLS.inc();
                    }
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    let _w = gnndrive_telemetry::state(gnndrive_telemetry::State::IoWait);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
    }

    fn release(&self, bytes: u64, kind: ChargeKind) {
        let counter = self.counter(kind);
        // AcqRel: the subtraction releases this charge's bytes to other
        // threads' admission loads (which acquire), so freed memory is
        // observed together with whatever writes preceded the drop.
        let prev = counter.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "memory release underflow");
    }
}

/// RAII receipt for a memory reservation; releases on drop.
pub struct MemCharge {
    gov: Arc<MemoryGovernor>,
    bytes: u64,
    kind: ChargeKind,
}

impl std::fmt::Debug for MemCharge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemCharge")
            .field("bytes", &self.bytes)
            .field("kind", &self.kind)
            .finish()
    }
}

impl MemCharge {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for MemCharge {
    fn drop(&mut self) {
        self.gov.release(self.bytes, self.kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_and_releases_balance() {
        let gov = MemoryGovernor::new(1000);
        {
            let _a = gov.charge(400).unwrap();
            let _b = gov.charge(400).unwrap();
            assert_eq!(gov.used(), 800);
            assert!(gov.charge(400).is_err());
        }
        assert_eq!(gov.used(), 0);
        assert!(gov.charge(1000).is_ok());
    }

    #[test]
    fn page_cache_charge_never_ooms_just_fails() {
        let gov = MemoryGovernor::new(100);
        let c = gov.try_charge(80, ChargeKind::PageCache);
        assert!(c.is_some());
        assert!(gov.try_charge(30, ChargeKind::PageCache).is_none());
    }

    struct FakeCache {
        gov: Arc<MemoryGovernor>,
        held: OrderedMutex<Vec<MemCharge>>,
    }

    impl MemoryReclaimer for FakeCache {
        fn reclaim(&self, want: u64) -> u64 {
            let mut held = self.held.lock();
            let mut freed = 0;
            while freed < want {
                match held.pop() {
                    Some(c) => freed += c.bytes(),
                    None => break,
                }
            }
            freed
        }
    }

    #[test]
    fn anonymous_pressure_reclaims_page_cache() {
        let gov = MemoryGovernor::new(1000);
        let cache = Arc::new(FakeCache {
            gov: Arc::clone(&gov),
            held: OrderedMutex::new(LockRank::Buffer, Vec::new()),
        });
        for _ in 0..8 {
            let c = cache.gov.try_charge(100, ChargeKind::PageCache).unwrap();
            cache.held.lock().push(c);
        }
        let as_reclaimer: Arc<dyn MemoryReclaimer> = cache.clone();
        gov.register_reclaimer(&as_reclaimer);
        assert_eq!(gov.used_page_cache(), 800);
        // 600 anonymous doesn't fit beside 800 cached, but reclaim frees room.
        let charge = gov.charge(600).expect("reclaim should make room");
        assert_eq!(charge.bytes(), 600);
        assert!(gov.used_page_cache() < 800);
    }

    #[test]
    fn oom_when_reclaim_is_not_enough() {
        let gov = MemoryGovernor::new(100);
        let err = gov.charge(200).unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.budget, 100);
    }

    #[test]
    fn a_waiting_charge_is_admitted_once_memory_is_freed() {
        use gnndrive_telemetry::catalog::GOVERNOR_ADMISSION_STALLS;
        use std::time::Duration;
        // Budget fully held; a waiting charge stalls, counts the stall,
        // and is admitted once another thread frees the memory.
        let gov = MemoryGovernor::new(100);
        let held = gov.charge(100).unwrap();
        let stalls = GOVERNOR_ADMISSION_STALLS.get();
        let gov_w = Arc::clone(&gov);
        let waiter = std::thread::spawn(move || gov_w.charge_waiting(100, Duration::from_secs(5)));
        while GOVERNOR_ADMISSION_STALLS.get() == stalls {
            std::thread::yield_now();
        }
        drop(held);
        let charge = waiter.join().expect("waiter thread");
        assert_eq!(charge.expect("admitted once freed").bytes(), 100);
        assert_eq!(gov.used(), 0);
    }

    #[test]
    fn an_uncontended_waiting_charge_succeeds_at_once() {
        let gov = MemoryGovernor::new(100);
        let c = gov
            .charge_waiting(60, std::time::Duration::from_millis(50))
            .expect("uncontended charge");
        assert_eq!(c.bytes(), 60);
    }
}
