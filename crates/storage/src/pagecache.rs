//! OS page-cache model and memory-mapped file emulation.
//!
//! PyG+ (and GNNDrive's own sampler) access on-disk data through `mmap`:
//! touching a byte faults a 4 KiB page in from the SSD into the OS page
//! cache, and the cache evicts least-recently-used pages when memory runs
//! short. Because *all* buffered files share one cache, feature-table pages
//! evict topology pages — the paper's memory contention (𝔒1).
//!
//! We cannot bound the real OS cache from userspace, so [`PageCache`] models
//! it: a global cache of 4 KiB pages charged against the [`MemoryGovernor`]
//! as [`ChargeKind::PageCache`], registered as a [`MemoryReclaimer`] so
//! anonymous allocations shrink it — exactly Linux's reclaim behaviour.
//! Replacement is pluggable through [`crate::eviction::EvictionPolicy`]
//! (LRU by default, like Linux; trace-driven Belady for the Ginex-style
//! precomputed-epoch experiments), and the cache can record the exact
//! access sequence into an [`AccessTrace`] for that precomputation.
//!
//! Concurrency follows the kernel too: a faulting thread inserts a *pending*
//! page, drops the lock, reads from the device (real blocking I/O), then
//! publishes the page; other threads faulting the same page wait on a
//! condition variable instead of duplicating the read.

use crate::eviction::{EvictionPolicy, LruPolicy};
use crate::governor::{ChargeKind, MemCharge, MemoryGovernor, MemoryReclaimer};
use crate::retry::RetryPolicy;
use crate::trace::AccessTrace;
use crate::ssd::{FileHandle, SimSsd};
use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use gnndrive_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use telemetry::{Counter, Gauge};

/// Page size of the modeled OS (Linux default).
pub const PAGE_SIZE: usize = 4096;

/// Hit/miss counters for the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Reads served uncached because the cache had no room at all.
    pub bypasses: u64,
    /// Pages pulled in speculatively by sequential readahead.
    pub readaheads: u64,
    /// Current number of resident pages.
    pub resident_pages: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// A fault is in flight; waiters sleep on the condvar.
    Pending,
    /// Data is resident and valid.
    Ready,
}

struct PageSlot {
    key: (u32, u64),
    state: PageState,
    data: Box<[u8]>,
    charge: Option<MemCharge>,
}

struct Inner {
    map: HashMap<(u32, u64), u32>,
    slots: Vec<Option<PageSlot>>,
    free: Vec<u32>,
    /// Replacement policy over the *ready* slots (pending fills are never
    /// eviction candidates). LRU by default; see [`crate::eviction`].
    policy: Box<dyn EvictionPolicy>,
    /// When recording, every page access (hit or miss) is appended here in
    /// order — the ground truth a [`crate::eviction::BeladyPolicy`] replays.
    trace: Option<AccessTrace>,
}

/// A bounded, shared page cache over one [`SimSsd`] with pluggable
/// replacement (LRU unless built via [`PageCache::with_policy`]).
pub struct PageCache {
    ssd: Arc<SimSsd>,
    gov: Arc<MemoryGovernor>,
    /// Hard cap on resident pages, independent of the governor (models
    /// `vm` limits); usually `usize::MAX` so the governor is the bound.
    max_pages: usize,
    inner: OrderedMutex<Inner>,
    ready_cond: OrderedCondvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    readaheads: AtomicU64,
    // Registry mirrors of the counters above, plus the resident-page level
    // (`page_cache.*`), kept in lockstep so run reports see the cache.
    m_hits: Counter,
    m_misses: Counter,
    m_evictions: Counter,
    m_bypasses: Counter,
    m_readaheads: Counter,
    m_retries: Counter,
    m_read_errors: Counter,
    m_resident: Gauge,
    m_trace_recorded: Counter,
    /// Recovery policy for device reads behind a fault. On exhaustion the
    /// cache degrades: the page is served zero-filled (the mmap analog of
    /// SIGBUS would kill training; a hole in a feature table only perturbs
    /// one mini-batch) and `page_cache.read_errors` records it.
    retry: OrderedMutex<RetryPolicy>,
    /// Readahead window in pages (0 disables). Like the kernel, sequential
    /// miss patterns trigger one larger device read covering the window.
    readahead_pages: std::sync::atomic::AtomicUsize,
    /// Per-file last-miss page number for sequential-pattern detection.
    last_miss: OrderedMutex<std::collections::HashMap<u32, u64>>,
}

impl PageCache {
    /// Create a cache over `ssd` charging pages to `gov`.
    pub fn new(ssd: Arc<SimSsd>, gov: Arc<MemoryGovernor>) -> Arc<Self> {
        Self::with_max_pages(ssd, gov, usize::MAX)
    }

    /// Like [`PageCache::new`] with an explicit resident-page cap.
    pub fn with_max_pages(
        ssd: Arc<SimSsd>,
        gov: Arc<MemoryGovernor>,
        max_pages: usize,
    ) -> Arc<Self> {
        Self::with_policy(ssd, gov, max_pages, Box::new(LruPolicy::new()))
    }

    /// Like [`PageCache::with_max_pages`] with an explicit replacement
    /// policy (e.g. a trace-driven [`crate::eviction::BeladyPolicy`]).
    pub fn with_policy(
        ssd: Arc<SimSsd>,
        gov: Arc<MemoryGovernor>,
        max_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Arc<Self> {
        let cache = Arc::new(PageCache {
            ssd,
            gov: Arc::clone(&gov),
            max_pages,
            inner: OrderedMutex::new(
                LockRank::PageCache,
                Inner {
                    map: HashMap::new(),
                    slots: Vec::new(),
                    free: Vec::new(),
                    policy,
                    trace: None,
                },
            ),
            ready_cond: OrderedCondvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            readaheads: AtomicU64::new(0),
            m_hits: telemetry::counter("page_cache.hits"),
            m_misses: telemetry::counter("page_cache.misses"),
            m_evictions: telemetry::counter("page_cache.evictions"),
            m_bypasses: telemetry::counter("page_cache.bypasses"),
            m_readaheads: telemetry::counter("page_cache.readaheads"),
            m_retries: telemetry::counter("page_cache.retries"),
            m_read_errors: telemetry::counter("page_cache.read_errors"),
            m_resident: telemetry::gauge("page_cache.resident_pages"),
            m_trace_recorded: telemetry::counter("storage.trace.recorded"),
            retry: OrderedMutex::new(LockRank::PageCache, RetryPolicy::default()),
            readahead_pages: std::sync::atomic::AtomicUsize::new(4),
            last_miss: OrderedMutex::new(LockRank::PageCache, std::collections::HashMap::new()),
        });
        let as_reclaimer: Arc<dyn MemoryReclaimer> = cache.clone();
        gov.register_reclaimer(&as_reclaimer);
        cache
    }

    /// Set the sequential readahead window (pages; 0 disables).
    pub fn set_readahead(&self, pages: usize) {
        self.readahead_pages.store(pages, Ordering::Relaxed);
    }

    /// Set the recovery policy for faulting device reads.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Name of the installed replacement policy ("lru", "belady", …).
    pub fn policy_name(&self) -> &'static str {
        self.inner.lock().policy.name()
    }

    /// Start recording the page-access sequence (hits and misses alike)
    /// under the given `(seed, epoch)` schedule metadata. Any trace being
    /// recorded so far is discarded.
    pub fn start_trace(&self, seed: u64, epoch: u64) {
        self.inner.lock().trace = Some(AccessTrace::new(seed, epoch));
    }

    /// Stop recording and return the trace (None if none was started).
    pub fn finish_trace(&self) -> Option<AccessTrace> {
        self.inner.lock().trace.take()
    }

    /// Read `buf.len()` bytes at `offset` under the retry policy; degrades
    /// to zero-fill when recovery is exhausted (see field docs on `retry`).
    ///
    /// Every successful device read passes the checksum gate
    /// ([`SimSsd::verify`]) before its bytes can become resident pages: a
    /// mismatch surfaces as the transient [`crate::IoError::Corrupt`], so
    /// the retry loop re-reads from the device instead of caching (and
    /// then endlessly serving) poisoned bytes.
    fn device_read_degraded(&self, file: FileHandle, offset: u64, buf: &mut [u8]) {
        let policy = *self.retry.lock();
        let outcome = policy.run(
            || self.m_retries.inc(),
            |_| {
                self.ssd.read_blocking(file, offset, buf, false)?;
                self.ssd
                    .verify(file, offset, buf)
                    .map_err(crate::error::IoError::from)
            },
        );
        if outcome.is_err() {
            buf.fill(0);
            self.m_read_errors.inc();
        }
    }

    pub fn stats(&self) -> PageCacheStats {
        let inner = self.inner.lock();
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            readaheads: self.readaheads.load(Ordering::Relaxed),
            resident_pages: inner.map.len() as u64,
        }
    }

    /// Drop every resident page (e.g. `echo 3 > drop_caches` between runs).
    pub fn drop_all(&self) {
        let mut inner = self.inner.lock();
        let slots: Vec<u32> = inner.map.values().copied().collect();
        for s in slots {
            if matches!(
                inner.slots[s as usize].as_ref().map(|p| p.state),
                Some(PageState::Ready)
            ) {
                self.evict_slot(&mut inner, s);
            }
        }
    }

    /// Buffered read: copy `out.len()` bytes at `offset` of `file`,
    /// faulting pages through the cache as needed.
    pub fn read(&self, file: FileHandle, offset: u64, out: &mut [u8]) {
        let mut done = 0usize;
        while done < out.len() {
            let pos = offset + done as u64;
            let page_no = pos / PAGE_SIZE as u64;
            let in_page = (pos % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(out.len() - done);
            self.with_page(file, page_no, |page| {
                out[done..done + n].copy_from_slice(&page[in_page..in_page + n]);
            });
            done += n;
        }
    }

    /// Whether the page containing `offset` is currently resident (ready).
    pub fn is_resident(&self, file: FileHandle, offset: u64) -> bool {
        let inner = self.inner.lock();
        inner
            .map
            .get(&(file.id, offset / PAGE_SIZE as u64))
            .map(|&s| {
                matches!(
                    inner.slots[s as usize].as_ref().map(|p| p.state),
                    Some(PageState::Ready)
                )
            })
            .unwrap_or(false)
    }

    /// Run `f` over the (ready) page `page_no` of `file`, faulting it in if
    /// necessary. Falls back to an uncached device read when the cache
    /// cannot hold even one more page.
    ///
    /// Accounting is per *logical access* (one call = one hit or one miss),
    /// matching the oracle a recorded trace replays: a waiter whose pending
    /// page was evicted before it woke re-drives the fill, but that is the
    /// same fill attempt — it must not count a fresh miss (and the access
    /// did find the page in flight, so it counts as the hit the trace
    /// predicts).
    fn with_page(&self, file: FileHandle, page_no: u64, f: impl FnOnce(&[u8])) {
        let key = (file.id, page_no);
        let mut inner = self.inner.lock();
        if let Some(t) = inner.trace.as_mut() {
            t.push(key.0, key.1);
            self.m_trace_recorded.inc();
        }
        // Whether this access ever observed the page in flight. Both
        // accounting sites below immediately terminate the access, so each
        // call counts exactly one hit or miss.
        let mut saw_pending = false;
        loop {
            if let Some(&slot) = inner.map.get(&key) {
                let state = inner.slots[slot as usize].as_ref().unwrap().state;
                match state {
                    PageState::Ready => {
                        inner.policy.on_hit(slot, key);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.m_hits.inc();
                        let page = inner.slots[slot as usize].as_ref().unwrap();
                        f(&page.data);
                        return;
                    }
                    PageState::Pending => {
                        // Another thread is faulting this page; wait for it.
                        saw_pending = true;
                        self.ready_cond.wait(&mut inner);
                        continue;
                    }
                }
            }
            // Miss: find a slot (evict if needed), insert Pending, drop the
            // lock, do the device read, publish.
            if saw_pending {
                // Re-fault of a fill this access already waited on: the
                // page was present when the access arrived, so the trace
                // oracle scores it a hit; re-driving the fill must not
                // count a fresh miss.
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.m_hits.inc();
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.m_misses.inc();
            }
            let slot = match self.acquire_slot(&mut inner, key) {
                Some(s) => s,
                None => {
                    // No room at all: uncached read-through.
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    self.m_bypasses.inc();
                    drop(inner);
                    let data = self.read_page_from_device(file, page_no);
                    f(&data);
                    return;
                }
            };
            let sequential = {
                let mut lm = self.last_miss.lock();
                let seq = lm.get(&file.id).is_some_and(|&p| p + 1 == page_no);
                lm.insert(file.id, page_no);
                seq
            };
            drop(inner);
            let data = self.read_page_from_device(file, page_no);
            inner = self.inner.lock();
            {
                let page = inner.slots[slot as usize].as_mut().unwrap();
                page.data.copy_from_slice(&data);
                page.state = PageState::Ready;
            }
            inner.policy.on_insert(slot, key);
            self.ready_cond.notify_all();
            // Serve the faulting reader from the freshly published page
            // before any speculation — readahead below may evict it again
            // under a tight budget.
            {
                let page = inner.slots[slot as usize].as_ref().unwrap();
                f(&page.data);
            }
            // Sequential pattern: pull the readahead window in too (one
            // larger device transfer amortizes the per-request latency —
            // why buffered sequential I/O beats direct at low queue depth).
            let ra = self.readahead_pages.load(Ordering::Relaxed);
            if sequential && ra > 0 {
                let _inner = self.readahead(inner, file, page_no + 1, ra);
            }
            return;
        }
    }

    /// Speculatively fault in up to `readahead_pages` pages starting at
    /// `start`, using a single device read. Pages that are already resident
    /// or don't fit the budget are skipped. Takes and returns the inner
    /// lock guard so the caller keeps its critical section.
    fn readahead<'a>(
        &'a self,
        mut inner: OrderedMutexGuard<'a, Inner>,
        file: FileHandle,
        start: u64,
        window: usize,
    ) -> OrderedMutexGuard<'a, Inner> {
        let max_page = file.len.div_ceil(PAGE_SIZE as u64);
        let end = (start + window as u64).min(max_page);
        if start >= end {
            return inner;
        }
        // Reserve slots for the not-yet-resident pages of the window.
        let mut slots = Vec::new();
        for p in start..end {
            if inner.map.contains_key(&(file.id, p)) {
                break; // stop at the first resident page
            }
            match self.acquire_slot(&mut inner, (file.id, p)) {
                Some(s) => slots.push((p, s)),
                None => break,
            }
        }
        if slots.is_empty() {
            return inner;
        }
        drop(inner);
        // One contiguous device read covering the window.
        let first = slots[0].0;
        let n_pages = slots.len();
        let mut buf = vec![0u8; n_pages * PAGE_SIZE];
        let offset = first * PAGE_SIZE as u64;
        let valid = (file.len.saturating_sub(offset) as usize).min(buf.len());
        if valid > 0 {
            self.device_read_degraded(file, offset, &mut buf[..valid]);
        }
        let mut inner = self.inner.lock();
        for (i, &(p, slot)) in slots.iter().enumerate() {
            let page = inner.slots[slot as usize].as_mut().unwrap();
            page.data
                .copy_from_slice(&buf[i * PAGE_SIZE..(i + 1) * PAGE_SIZE]);
            page.state = PageState::Ready;
            inner.policy.on_insert(slot, (file.id, p));
        }
        self.readaheads
            .fetch_add(slots.len() as u64, Ordering::Relaxed);
        self.m_readaheads.add(slots.len() as u64);
        self.ready_cond.notify_all();
        inner
    }

    fn read_page_from_device(&self, file: FileHandle, page_no: u64) -> Box<[u8]> {
        let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        let offset = page_no * PAGE_SIZE as u64;
        // Tail pages may be shorter than PAGE_SIZE.
        let n = (PAGE_SIZE as u64).min(file.len.saturating_sub(offset)) as usize;
        if n > 0 {
            self.device_read_degraded(file, offset, &mut buf[..n]);
        }
        buf
    }

    /// Grab a free slot, asking the policy for a victim if necessary;
    /// insert a Pending entry for `key`. Returns `None` when no page can
    /// be held.
    fn acquire_slot(&self, inner: &mut Inner, key: (u32, u64)) -> Option<u32> {
        let charge = loop {
            if inner.map.len() >= self.max_pages {
                if !self.evict_one(inner) {
                    return None;
                }
                continue;
            }
            match self.gov.try_charge(PAGE_SIZE as u64, ChargeKind::PageCache) {
                Some(c) => break c,
                None => {
                    if !self.evict_one(inner) {
                        return None;
                    }
                }
            }
        };
        let slot = match inner.free.pop() {
            Some(s) => {
                inner.slots[s as usize] = Some(PageSlot {
                    key,
                    state: PageState::Pending,
                    data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                    charge: Some(charge),
                });
                s
            }
            None => {
                let s = inner.slots.len() as u32;
                inner.slots.push(Some(PageSlot {
                    key,
                    state: PageState::Pending,
                    data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                    charge: Some(charge),
                }));
                let cap = inner.slots.len();
                inner.policy.ensure_capacity(cap);
                s
            }
        };
        inner.map.insert(key, slot);
        self.m_resident.set(inner.map.len() as i64);
        Some(slot)
    }

    fn evict_one(&self, inner: &mut Inner) -> bool {
        // Pending pages are never handed to the policy, so any victim it
        // returns is safe to drop.
        match inner.policy.evict() {
            Some(slot) => {
                let page = inner.slots[slot as usize].take().expect("slot occupied");
                inner.map.remove(&page.key);
                inner.free.push(slot);
                drop(page.charge);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.m_evictions.inc();
                self.m_resident.set(inner.map.len() as i64);
                true
            }
            None => false,
        }
    }

    fn evict_slot(&self, inner: &mut Inner, slot: u32) {
        if inner.policy.forget(slot) {
            let page = inner.slots[slot as usize].take().expect("slot occupied");
            inner.map.remove(&page.key);
            inner.free.push(slot);
            self.m_resident.set(inner.map.len() as i64);
        }
    }
}

impl MemoryReclaimer for PageCache {
    fn reclaim(&self, want: u64) -> u64 {
        let mut inner = self.inner.lock();
        let mut freed = 0u64;
        while freed < want {
            if !self.evict_one(&mut inner) {
                break;
            }
            freed += PAGE_SIZE as u64;
        }
        freed
    }
}

/// Something readable as little-endian fixed-size scalars out of a page or
/// byte buffer (the subset of "plain old data" this repo needs).
pub trait Pod: Copy + Default {
    const SIZE: usize;
    fn from_le(bytes: &[u8]) -> Self;
    fn to_le(self, out: &mut [u8]);
}

macro_rules! impl_pod {
    ($t:ty) => {
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("pod size"))
            }
            fn to_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
        }
    };
}

impl_pod!(u32);
impl_pod!(u64);
impl_pod!(i64);
impl_pod!(f32);

impl Pod for u8 {
    const SIZE: usize = 1;
    fn from_le(bytes: &[u8]) -> Self {
        bytes[0]
    }
    fn to_le(self, out: &mut [u8]) {
        out[0] = self;
    }
}

/// Emulated `mmap` of an on-SSD array of `T`: element accesses fault 4 KiB
/// pages through the shared [`PageCache`], exactly like PyG+'s
/// memory-mapped tensors.
pub struct MmapArray<T: Pod> {
    cache: Arc<PageCache>,
    file: FileHandle,
    len: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Pod> MmapArray<T> {
    /// Map `file` (length must be a multiple of `T::SIZE`) through `cache`.
    pub fn new(cache: Arc<PageCache>, file: FileHandle) -> Self {
        assert_eq!(
            file.len % T::SIZE as u64,
            0,
            "file length must be a multiple of element size"
        );
        let len = (file.len / T::SIZE as u64) as usize;
        MmapArray {
            cache,
            file,
            len,
            _marker: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read element `idx` (faulting its page if non-resident).
    pub fn get(&self, idx: usize) -> T {
        assert!(idx < self.len, "index {idx} out of bounds {}", self.len);
        let mut buf = [0u8; 16];
        let bytes = &mut buf[..T::SIZE];
        self.cache.read(self.file, (idx * T::SIZE) as u64, bytes);
        T::from_le(bytes)
    }

    /// Read `out.len()` elements starting at `start`.
    pub fn read_slice(&self, start: usize, out: &mut [T]) {
        assert!(start + out.len() <= self.len, "slice out of bounds");
        let mut bytes = vec![0u8; out.len() * T::SIZE];
        self.cache
            .read(self.file, (start * T::SIZE) as u64, &mut bytes);
        for (i, o) in out.iter_mut().enumerate() {
            *o = T::from_le(&bytes[i * T::SIZE..(i + 1) * T::SIZE]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssd::SsdProfile;

    fn setup(
        budget_pages: usize,
        file_pages: usize,
    ) -> (Arc<PageCache>, FileHandle, Arc<MemoryGovernor>) {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file((file_pages * PAGE_SIZE) as u64);
        for p in 0..file_pages {
            let data = vec![(p % 251) as u8; PAGE_SIZE];
            ssd.import(f, (p * PAGE_SIZE) as u64, &data).unwrap();
        }
        let gov = MemoryGovernor::new((budget_pages * PAGE_SIZE) as u64);
        let cache = PageCache::new(ssd, Arc::clone(&gov));
        (cache, f, gov)
    }

    #[test]
    fn hit_after_miss() {
        let (cache, f, _gov) = setup(16, 4);
        let mut buf = [0u8; 8];
        cache.read(f, 0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        let s1 = cache.stats();
        assert_eq!(s1.misses, 1);
        cache.read(f, 100, &mut buf);
        let s2 = cache.stats();
        assert_eq!(s2.misses, 1);
        assert_eq!(s2.hits, s1.hits + 1);
    }

    #[test]
    fn read_spanning_pages() {
        let (cache, f, _gov) = setup(16, 4);
        let mut buf = vec![0u8; PAGE_SIZE + 100];
        cache.read(f, (PAGE_SIZE - 50) as u64, &mut buf);
        assert_eq!(buf[0], 0); // page 0 content
        assert_eq!(buf[50], 1); // page 1 content
        assert_eq!(buf[PAGE_SIZE + 49], 1);
        assert_eq!(buf[PAGE_SIZE + 50], 2); // page 2 content
    }

    #[test]
    fn lru_eviction_under_budget() {
        let (cache, f, gov) = setup(2, 4);
        cache.set_readahead(0);
        let mut b = [0u8; 1];
        cache.read(f, 0, &mut b);
        cache.read(f, PAGE_SIZE as u64, &mut b);
        assert!(cache.is_resident(f, 0));
        cache.read(f, 2 * PAGE_SIZE as u64, &mut b); // evicts page 0
        assert!(!cache.is_resident(f, 0));
        assert!(cache.is_resident(f, PAGE_SIZE as u64));
        assert!(gov.used_page_cache() <= 2 * PAGE_SIZE as u64);
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn anonymous_pressure_shrinks_cache() {
        let (cache, f, gov) = setup(4, 4);
        let mut b = [0u8; 1];
        for p in 0..4u64 {
            cache.read(f, p * PAGE_SIZE as u64, &mut b);
        }
        assert_eq!(cache.stats().resident_pages, 4);
        // Anonymous charge forces reclaim of cached pages.
        let _c = gov
            .charge(2 * PAGE_SIZE as u64)
            .expect("reclaim makes room");
        assert!(cache.stats().resident_pages <= 2);
    }

    #[test]
    fn zero_budget_reads_still_work_via_bypass() {
        let (cache, f, _gov) = setup(0, 2);
        let mut buf = [0u8; 4];
        cache.read(f, PAGE_SIZE as u64, &mut buf);
        assert_eq!(buf, [1u8; 4]);
        assert!(cache.stats().bypasses >= 1);
        assert_eq!(cache.stats().resident_pages, 0);
    }

    #[test]
    fn sequential_misses_trigger_readahead() {
        let (cache, f, _gov) = setup(16, 8);
        let mut b = [0u8; 1];
        cache.read(f, 0, &mut b); // miss, not sequential yet
        cache.read(f, PAGE_SIZE as u64, &mut b); // sequential miss
        let s = cache.stats();
        assert!(s.readaheads >= 1, "readahead should fire: {s:?}");
        // The window is now resident: the next pages are hits.
        assert!(cache.is_resident(f, 2 * PAGE_SIZE as u64));
        let before = cache.stats().misses;
        cache.read(f, 2 * PAGE_SIZE as u64, &mut b);
        assert_eq!(cache.stats().misses, before, "readahead page must hit");
        // Data correctness of a readahead page.
        let mut buf = [0u8; 4];
        cache.read(f, 3 * PAGE_SIZE as u64, &mut buf);
        assert_eq!(buf, [3u8; 4]);
    }

    #[test]
    fn random_pattern_does_not_readahead() {
        let (cache, f, _gov) = setup(16, 8);
        let mut b = [0u8; 1];
        cache.read(f, 5 * PAGE_SIZE as u64, &mut b);
        cache.read(f, 2 * PAGE_SIZE as u64, &mut b);
        cache.read(f, 7 * PAGE_SIZE as u64, &mut b);
        assert_eq!(cache.stats().readaheads, 0);
    }

    #[test]
    fn mmap_array_typed_access() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let n = 3000usize;
        let f = ssd.create_file((n * 4) as u64);
        let mut bytes = vec![0u8; n * 4];
        for i in 0..n {
            bytes[i * 4..(i + 1) * 4].copy_from_slice(&(i as u32).to_le_bytes());
        }
        ssd.import(f, 0, &bytes).unwrap();
        let gov = MemoryGovernor::unlimited();
        let cache = PageCache::new(ssd, gov);
        let arr: MmapArray<u32> = MmapArray::new(cache, f);
        assert_eq!(arr.len(), n);
        assert_eq!(arr.get(0), 0);
        assert_eq!(arr.get(1500), 1500);
        assert_eq!(arr.get(n - 1), (n - 1) as u32);
        let mut out = vec![0u32; 10];
        arr.read_slice(1020, &mut out); // spans a page boundary
        assert_eq!(out, (1020u32..1030).collect::<Vec<_>>());
    }

    #[test]
    fn transient_device_faults_recover_then_degrade_to_zero_fill() {
        use crate::fault::FaultPlan;
        use std::time::Duration;
        let (cache, f, _gov) = setup(16, 4);
        cache.set_readahead(0);
        cache.set_retry_policy(
            RetryPolicy::default()
                .with_max_attempts(3)
                .with_backoff(Duration::ZERO, Duration::ZERO),
        );
        // Every 2nd read fails: a miss's first device read may fault but a
        // single retry always lands on a healthy read.
        cache
            .ssd
            .set_fault_plan(FaultPlan::new(0).with_read_fault_every(2));
        let mut buf = [0u8; 8];
        cache.read(f, PAGE_SIZE as u64, &mut buf);
        assert_eq!(buf, [1u8; 8], "retry must recover the real data");
        // Every read fails: degradation serves zeros instead of panicking.
        cache
            .ssd
            .set_fault_plan(FaultPlan::new(0).with_read_fault_every(1));
        let mut buf = [7u8; 8];
        cache.read(f, 2 * PAGE_SIZE as u64, &mut buf);
        assert_eq!(buf, [0u8; 8], "exhausted retries degrade to zero-fill");
    }

    #[test]
    fn corrupted_fills_are_reread_before_becoming_resident() {
        use crate::fault::FaultPlan;
        use std::time::Duration;
        let (cache, f, _gov) = setup(16, 4);
        cache.set_readahead(0);
        cache.set_retry_policy(
            RetryPolicy::default()
                .with_max_attempts(8)
                .with_backoff(Duration::ZERO, Duration::ZERO),
        );
        // Half of all reads return silently flipped bits. The checksum
        // gate must catch each one and the retry loop re-read until a
        // clean fill lands — the cache never goes resident with poison.
        cache
            .ssd
            .set_fault_plan(FaultPlan::new(17).with_bit_flips(0.5));
        for page in 0..4u64 {
            let mut buf = [0u8; 8];
            cache.read(f, page * PAGE_SIZE as u64, &mut buf);
            assert_eq!(buf, [page as u8; 8], "page {page} served corrupt bytes");
        }
        cache.ssd.clear_faults();
        // Re-reads of the now-resident pages stay correct (hits).
        for page in 0..4u64 {
            let mut buf = [0u8; 8];
            cache.read(f, page * PAGE_SIZE as u64, &mut buf);
            assert_eq!(buf, [page as u8; 8]);
        }
    }

    /// A waiter whose pending page is evicted before it wakes (here: the
    /// filler's own readahead steals the slot under a 2-page budget) must
    /// not count a fresh miss for the same logical access — the page *was*
    /// in flight when the access arrived, which is what the recorded trace
    /// (and therefore the Belady oracle and the CI miss-rate gate) sees.
    #[test]
    fn waiter_refault_is_not_a_fresh_miss() {
        use std::time::Duration;
        let ssd = SimSsd::new(SsdProfile {
            read_latency: Duration::from_millis(40),
            ..SsdProfile::instant()
        });
        let f = ssd.create_file((8 * PAGE_SIZE) as u64);
        for p in 0..8 {
            let data = vec![(p % 251) as u8; PAGE_SIZE];
            ssd.import(f, (p * PAGE_SIZE) as u64, &data).unwrap();
        }
        let gov = MemoryGovernor::unlimited();
        let cache = PageCache::with_max_pages(ssd, gov, 2);
        cache.set_readahead(4);
        std::thread::scope(|s| {
            let a = {
                let c = Arc::clone(&cache);
                s.spawn(move || {
                    let mut b = [0u8; 1];
                    c.read(f, 0, &mut b); // miss page 0
                                          // Sequential miss on page 1: publish, then readahead
                                          // evicts pages 0 and 1 for its window under the
                                          // 2-page cap — all in one lock hold.
                    c.read(f, PAGE_SIZE as u64, &mut b);
                })
            };
            // Arrive while page 1's 40 ms fill is in flight and wait on it.
            std::thread::sleep(Duration::from_millis(60));
            let b = {
                let c = Arc::clone(&cache);
                s.spawn(move || {
                    let mut b = [0u8; 4];
                    c.read(f, PAGE_SIZE as u64 + 8, &mut b);
                    assert_eq!(b, [1u8; 4], "re-driven fill must serve real data");
                })
            };
            a.join().unwrap();
            b.join().unwrap();
        });
        let s = cache.stats();
        assert_eq!(
            s.misses, 2,
            "only the two first-touch faults are misses: {s:?}"
        );
        assert_eq!(
            s.hits, 1,
            "the waiter's access found the page in flight: {s:?}"
        );
    }

    /// End-to-end policy seam: record an epoch-like access pattern, build
    /// a Belady policy from the trace, replay the identical pattern at the
    /// same tight budget under both policies — Belady must hit more.
    #[test]
    fn recorded_trace_drives_belady_past_lru() {
        use crate::eviction::BeladyPolicy;
        let (recorder, f, _gov) = setup(64, 16);
        recorder.set_readahead(0);
        // A cyclic scan over 10 pages: LRU's worst case at budget 8.
        let pattern: Vec<u64> = (0..80u64).map(|i| i % 10).collect();
        recorder.start_trace(7, 0);
        let mut b = [0u8; 1];
        for &p in &pattern {
            recorder.read(f, p * PAGE_SIZE as u64, &mut b);
        }
        let trace = recorder.finish_trace().expect("trace recorded");
        assert_eq!(trace.len(), pattern.len());
        assert_eq!(trace.seed, 7);

        let replay = |policy: Box<dyn EvictionPolicy>| {
            let ssd = Arc::clone(&recorder.ssd);
            let cache = PageCache::with_policy(ssd, MemoryGovernor::unlimited(), 8, policy);
            cache.set_readahead(0);
            let mut b = [0u8; 1];
            for &p in &pattern {
                cache.read(f, p * PAGE_SIZE as u64, &mut b);
            }
            cache.stats()
        };
        let lru = replay(Box::new(LruPolicy::new()));
        let belady = replay(Box::new(BeladyPolicy::from_trace(&trace)));
        assert_eq!(lru.hits, 0, "cyclic scan must thrash LRU: {lru:?}");
        assert!(
            belady.hits > lru.hits && belady.misses < lru.misses,
            "belady {belady:?} must beat lru {lru:?}"
        );
    }

    #[test]
    fn concurrent_faults_single_read() {
        let (cache, f, _gov) = setup(16, 1);
        let cache2 = Arc::clone(&cache);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&cache2);
                s.spawn(move || {
                    let mut b = [0u8; 1];
                    c.read(f, 10, &mut b);
                    assert_eq!(b[0], 0);
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.resident_pages, 1);
    }
}
