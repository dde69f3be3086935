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
//!
//! All of that is one routine, `PageCache::fault_in`, over a list of page
//! accesses. [`PageCache::read`] is the `mmap` case — one access per fill,
//! so a reader takes its faults one synchronous round trip at a time —
//! and [`PageCache::read_vectored`] hands the whole list over at once: the
//! missing pages of a sampling hop become one batch of device requests in
//! flight together (DESIGN.md §4).

use crate::eviction::{EvictionPolicy, LruPolicy};
use crate::governor::{ChargeKind, MemCharge, MemoryGovernor, MemoryReclaimer};
use crate::retry::RetryPolicy;
use crate::ssd::{FileHandle, IoPriority, SimSsd};
use crate::trace::AccessTrace;
use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex, OrderedMutexGuard};
use gnndrive_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{catalog, WaitKind};

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
    /// Device round trips taken by faulting readers: each is one batch of
    /// requests in flight together (a single page for [`PageCache::read`],
    /// a hop's missing pages for [`PageCache::read_vectored`]).
    pub fills: u64,
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
    /// `PAGE_SIZE` bytes once ready; empty while the fill is in flight.
    data: Box<[u8]>,
    charge: Option<MemCharge>,
}

/// One logical page access of a read: `len` bytes at `in_page` of page
/// `page_no`, delivered to `out[dst..dst + len]` of the caller's buffer.
#[derive(Clone, Copy)]
struct PageAccess {
    page_no: u64,
    in_page: usize,
    len: usize,
    dst: usize,
}

/// Split the `len` bytes at `offset` at page boundaries; they land at
/// `out[dst..dst + len]` of the caller's buffer.
fn page_accesses(offset: u64, len: usize, dst: usize) -> impl Iterator<Item = PageAccess> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        let pos = offset + done as u64;
        let in_page = (pos % PAGE_SIZE as u64) as usize;
        let n = (PAGE_SIZE - in_page).min(len - done);
        let access = PageAccess {
            page_no: pos / PAGE_SIZE as u64,
            in_page,
            len: n,
            dst: dst + done,
        };
        done += n;
        (n > 0).then_some(access)
    })
}

/// Marks the calling thread parked on a page fault until dropped: I/O-wait
/// for the monitor, [`WaitKind::PageFault`] for attribution.
fn fault_wait() -> impl Sized {
    (
        telemetry::state(telemetry::State::IoWait),
        telemetry::wait_timer(WaitKind::PageFault),
    )
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
    fills: AtomicU64,
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
        // The registry mirrors the counters above, plus the resident-page
        // level, so run reports see the cache (zeros included).
        for c in [
            &catalog::PAGE_CACHE_HITS,
            &catalog::PAGE_CACHE_MISSES,
            &catalog::PAGE_CACHE_EVICTIONS,
            &catalog::PAGE_CACHE_BYPASSES,
            &catalog::PAGE_CACHE_READAHEADS,
            &catalog::PAGE_CACHE_FILLS,
            &catalog::PAGE_CACHE_RETRIES,
            &catalog::PAGE_CACHE_READ_ERRORS,
            &catalog::STORAGE_TRACE_RECORDED,
        ] {
            c.register();
        }
        catalog::PAGE_CACHE_RESIDENT_PAGES.register();
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
            fills: AtomicU64::new(0),
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
    /// ([`SimSsd::read_verified`]) before its bytes can become resident
    /// pages: a mismatch surfaces as the transient
    /// [`crate::IoError::Corrupt`], so the retry loop re-reads from the
    /// device instead of caching (and then endlessly serving) poisoned
    /// bytes.
    fn device_read_degraded(
        &self,
        file: FileHandle,
        offset: u64,
        buf: &mut [u8],
        prio: IoPriority,
    ) {
        let policy = *self.retry.lock();
        let outcome = policy.run(
            || catalog::PAGE_CACHE_RETRIES.inc(),
            |_| self.ssd.read_verified(file, offset, buf, false, prio),
        );
        if outcome.is_err() {
            buf.fill(0);
            catalog::PAGE_CACHE_READ_ERRORS.inc();
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
            fills: self.fills.load(Ordering::Relaxed),
            resident_pages: inner.map.len() as u64,
        }
    }

    /// Buffered read: copy `out.len()` bytes at `offset` of `file`,
    /// faulting pages through the cache one at a time, as `mmap` would.
    pub fn read(&self, file: FileHandle, offset: u64, out: &mut [u8]) {
        for access in page_accesses(offset, out.len(), 0) {
            self.fault_in(file, &[access], IoPriority::Bulk, true, out);
        }
    }

    /// Vectored buffered read: copy the `(offset, len)` byte `ranges` of
    /// `file` back to back into `out`, faulting every missing page of the
    /// whole list in one batch of device requests on lane `prio` — the
    /// request is the exact need, so nothing is read ahead. Pages the
    /// budget cannot hold while the batch is in flight are read uncached.
    pub fn read_vectored(
        &self,
        file: FileHandle,
        ranges: &[(u64, usize)],
        prio: IoPriority,
        out: &mut [u8],
    ) {
        let mut accesses = Vec::with_capacity(ranges.len());
        let mut dst = 0usize;
        for &(offset, len) in ranges {
            accesses.extend(page_accesses(offset, len, dst));
            dst += len;
        }
        assert_eq!(out.len(), dst, "out must hold exactly the requested ranges");
        self.fault_in(file, &accesses, prio, false, out);
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

    fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        catalog::PAGE_CACHE_HITS.inc();
    }

    /// Serve `accesses` (pages of `file`, bytes into `out`), faulting in
    /// what is missing. The one fault path of the cache.
    ///
    /// A round classifies its accesses under one lock hold: a ready page is
    /// a hit and is copied out on the spot; a page pending on another
    /// thread is set aside; a missing page takes a `Pending` slot — or,
    /// when the cache cannot hold one more page (pending pages are never
    /// victims), is marked for an uncached read-through. The round's
    /// missing pages are then read together with the lock dropped,
    /// published, and copied to the caller *at publication*, so no eviction
    /// between fill and use can force a re-fault. Only a thread that owns
    /// no pending page waits on someone else's: two threads holding
    /// disjoint pending sets therefore never wait on each other. With
    /// `speculate`, a miss that continues a sequential pattern pulls the
    /// readahead window in behind it.
    ///
    /// Accounting is per *logical access* (one access = one hit or one
    /// miss), matching the oracle a recorded trace replays: a waiter whose
    /// pending page was evicted before it woke re-drives the fill, but that
    /// is the same fill attempt — it must not count a fresh miss (and the
    /// access did find the page in flight, so it counts as the hit the
    /// trace predicts).
    fn fault_in(
        &self,
        file: FileHandle,
        accesses: &[PageAccess],
        prio: IoPriority,
        speculate: bool,
        out: &mut [u8],
    ) {
        let mut inner = self.inner.lock();
        if let Some(t) = inner.trace.as_mut() {
            for a in accesses {
                t.push(file.id, a.page_no);
            }
            catalog::STORAGE_TRACE_RECORDED.add(accesses.len() as u64);
        }
        // Accesses that found their page in flight on another thread and
        // are still to be served; `None` in round one, which takes every
        // access in request order.
        let mut waited: Option<Vec<usize>> = None;
        loop {
            // Pages this round reads from the device: `Some(slot)` to
            // publish, `None` to pass through uncached.
            let mut fetch: BTreeMap<u64, Option<u32>> = BTreeMap::new();
            // Accesses `fetch` serves, in request order.
            let mut mine: Vec<usize> = Vec::new();
            let mut foreign: Vec<usize> = Vec::new();
            let mut readahead_from = None;
            for k in 0..waited.as_ref().map_or(accesses.len(), Vec::len) {
                let i = waited.as_ref().map_or(k, |w| w[k]);
                let a = &accesses[i];
                let key = (file.id, a.page_no);
                match inner.map.get(&key).copied() {
                    Some(slot) => {
                        let page = inner.slots[slot as usize].as_ref().expect("mapped slot");
                        if page.state == PageState::Ready {
                            out[a.dst..a.dst + a.len]
                                .copy_from_slice(&page.data[a.in_page..a.in_page + a.len]);
                            inner.policy.on_hit(slot, key);
                            self.count_hit();
                        } else if fetch.contains_key(&a.page_no) {
                            // A page this round already faults: resident by
                            // the time a one-at-a-time reader got here.
                            self.count_hit();
                            mine.push(i);
                        } else {
                            foreign.push(i);
                        }
                    }
                    None => {
                        if waited.is_some() {
                            // Re-fault of a fill this access already waited
                            // on: the page was present when the access
                            // arrived, so the trace oracle scores it a hit.
                            self.count_hit();
                        } else {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            catalog::PAGE_CACHE_MISSES.inc();
                        }
                        let slot = self.acquire_slot(&mut inner, key);
                        if slot.is_none() {
                            // No room at all: uncached read-through.
                            self.bypasses.fetch_add(1, Ordering::Relaxed);
                            catalog::PAGE_CACHE_BYPASSES.inc();
                        } else if speculate {
                            let mut lm = self.last_miss.lock();
                            if lm.insert(file.id, a.page_no) == Some(a.page_no.wrapping_sub(1)) {
                                readahead_from = Some(a.page_no + 1);
                            }
                        }
                        fetch.insert(a.page_no, slot);
                        mine.push(i);
                    }
                }
            }
            if fetch.is_empty() {
                if foreign.is_empty() {
                    return;
                }
                // Nothing of ours is in flight, so parking cannot hold up
                // anyone who waits on us.
                let _parked = fault_wait();
                self.ready_cond.wait(&mut inner);
                waited = Some(foreign);
                continue;
            }
            drop(inner);
            let (pages, slots): (Vec<u64>, Vec<Option<u32>>) = fetch.into_iter().unzip();
            let mut data = self.fetch_pages(file, &pages, prio);
            inner = self.inner.lock();
            // Publish and copy out in request order, so the policy sees the
            // inserts and hits in the order a sequential reader makes them.
            for &i in &mine {
                let a = &accesses[i];
                let at = pages.binary_search(&a.page_no).expect("fetched page");
                let page: &[u8] = match slots[at] {
                    Some(slot) => {
                        let key = (file.id, a.page_no);
                        if !self.publish_page(&mut inner, slot, key, &mut data[at]) {
                            inner.policy.on_hit(slot, key);
                        }
                        &inner.slots[slot as usize]
                            .as_ref()
                            .expect("owned slot")
                            .data
                    }
                    None => &data[at],
                };
                out[a.dst..a.dst + a.len].copy_from_slice(&page[a.in_page..a.in_page + a.len]);
            }
            if slots.iter().any(Option::is_some) {
                self.ready_cond.notify_all();
            }
            // Sequential pattern: pull the readahead window in too (one
            // larger device transfer amortizes the per-request latency —
            // why buffered sequential I/O beats direct at low queue depth).
            // The faulting reader was served above; readahead may evict its
            // page again under a tight budget.
            if let Some(start) = readahead_from {
                inner = self.readahead(inner, file, start, prio);
            }
            if foreign.is_empty() {
                return;
            }
            waited = Some(foreign);
        }
    }

    /// Make the pending page in `slot` resident, taking the bytes out of
    /// `data`. Returns false (and changes nothing) if the slot is already
    /// published.
    fn publish_page(
        &self,
        inner: &mut Inner,
        slot: u32,
        key: (u32, u64),
        data: &mut Box<[u8]>,
    ) -> bool {
        let page = inner.slots[slot as usize].as_mut().expect("owned slot");
        if page.state == PageState::Ready {
            return false;
        }
        page.data = std::mem::take(data);
        page.state = PageState::Ready;
        inner.policy.on_insert(slot, key);
        true
    }

    /// Speculatively fault in up to the readahead window of pages starting
    /// at `start`, using a single device read. Pages that are already
    /// resident or don't fit the budget are skipped. Takes and returns the
    /// inner lock guard so the caller keeps its critical section.
    fn readahead<'a>(
        &'a self,
        mut inner: OrderedMutexGuard<'a, Inner>,
        file: FileHandle,
        start: u64,
        prio: IoPriority,
    ) -> OrderedMutexGuard<'a, Inner> {
        let window = self.readahead_pages.load(Ordering::Relaxed) as u64;
        let end = (start + window).min(file.len.div_ceil(PAGE_SIZE as u64));
        // Reserve slots for the not-yet-resident pages of the window.
        let mut pages = Vec::new();
        let mut slots = Vec::new();
        for p in start..end {
            if inner.map.contains_key(&(file.id, p)) {
                break; // stop at the first resident page
            }
            match self.acquire_slot(&mut inner, (file.id, p)) {
                Some(s) => {
                    pages.push(p);
                    slots.push(s);
                }
                None => break,
            }
        }
        if pages.is_empty() {
            return inner;
        }
        drop(inner);
        // Adjacent pages within the window: one contiguous device read.
        let mut data = self.fetch_pages(file, &pages, prio);
        let mut inner = self.inner.lock();
        for ((&p, &slot), page) in pages.iter().zip(&slots).zip(&mut data) {
            self.publish_page(&mut inner, slot, (file.id, p), page);
        }
        self.readaheads
            .fetch_add(pages.len() as u64, Ordering::Relaxed);
        catalog::PAGE_CACHE_READAHEADS.add(pages.len() as u64);
        self.ready_cond.notify_all();
        inner
    }

    /// One device round trip: read `pages` (ascending, distinct) of `file`,
    /// returning one `PAGE_SIZE` buffer per page (a tail page shorter than
    /// that is zero-padded). Runs of adjacent pages merge into
    /// one request, at most a readahead window long, and all requests go
    /// out before the first wait — through the blocking queue path, parked
    /// on the lane when it is full, not a sleep-poll that a saturated lane
    /// starves.
    ///
    /// A completion becomes page bytes only through the checksum gate
    /// ([`crate::Completion::verified`]); a failed or corrupt one is re-read by
    /// [`Self::device_read_degraded`], the failed attempt counting as the
    /// first retry (the extractor's ring-completion recovery, for pages).
    fn fetch_pages(&self, file: FileHandle, pages: &[u64], prio: IoPriority) -> Vec<Box<[u8]>> {
        let window = self.readahead_pages.load(Ordering::Relaxed).max(1);
        // (index of the run's first page in `pages`, pages in the run)
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, &p) in pages.iter().enumerate() {
            match runs.last_mut() {
                Some((first, n)) if *n < window && pages[*first] + *n as u64 == p => *n += 1,
                _ => runs.push((i, 1)),
            }
        }
        let requests: Vec<(u64, usize)> = runs
            .iter()
            .map(|&(first, n)| {
                let offset = pages[first] * PAGE_SIZE as u64;
                let valid = file.len.saturating_sub(offset).min((n * PAGE_SIZE) as u64);
                (offset, valid as usize)
            })
            .collect();
        self.fills.fetch_add(1, Ordering::Relaxed);
        catalog::PAGE_CACHE_FILLS.inc();
        let mut data: Vec<Box<[u8]>> = vec![Box::default(); pages.len()];
        // A single whole page becomes the cached page as is; anything else
        // (a merged run, a short tail) is cut into padded pages.
        let mut land = |run: usize, bytes: Vec<u8>| {
            let (first, n) = runs[run];
            if bytes.len() == PAGE_SIZE {
                data[first] = bytes.into_boxed_slice();
                return;
            }
            for (j, page) in data[first..first + n].iter_mut().enumerate() {
                let lo = (j * PAGE_SIZE).min(bytes.len());
                let hi = (lo + PAGE_SIZE).min(bytes.len());
                let mut padded = vec![0u8; PAGE_SIZE];
                padded[..hi - lo].copy_from_slice(&bytes[lo..hi]);
                *page = padded.into_boxed_slice();
            }
        };
        let mut landed = vec![false; runs.len()];
        let started = Instant::now();
        let done = {
            let _parked = fault_wait();
            self.ssd.submit_reads(file, &requests, prio)
        };
        loop {
            let completion = match done.try_recv() {
                Some(c) => Ok(c),
                None => {
                    let _parked = fault_wait();
                    done.recv()
                }
            };
            // Disconnected: every request has been answered.
            let Ok(c) = completion else { break };
            let run = c.user_data as usize;
            if let Ok(bytes) = c.verified(&self.ssd, file, requests[run].0) {
                land(run, bytes);
                landed[run] = true;
            }
        }
        self.ssd
            .stats()
            .add_io_wait(started.elapsed().as_nanos() as u64);
        for (run, _) in landed.iter().enumerate().filter(|(_, ok)| !**ok) {
            catalog::PAGE_CACHE_RETRIES.inc();
            let (offset, len) = requests[run];
            let mut bytes = vec![0u8; len];
            {
                let _parked = fault_wait();
                self.device_read_degraded(file, offset, &mut bytes, prio);
            }
            land(run, bytes);
        }
        data
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
                    data: Box::default(),
                    charge: Some(charge),
                });
                s
            }
            None => {
                let s = inner.slots.len() as u32;
                inner.slots.push(Some(PageSlot {
                    key,
                    state: PageState::Pending,
                    data: Box::default(),
                    charge: Some(charge),
                }));
                let cap = inner.slots.len();
                inner.policy.ensure_capacity(cap);
                s
            }
        };
        inner.map.insert(key, slot);
        catalog::PAGE_CACHE_RESIDENT_PAGES.set(inner.map.len() as i64);
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
                catalog::PAGE_CACHE_EVICTIONS.inc();
                catalog::PAGE_CACHE_RESIDENT_PAGES.set(inner.map.len() as i64);
                true
            }
            None => false,
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
        let lru = replay(Box::<LruPolicy>::default());
        let belady = replay(Box::new(BeladyPolicy::from_trace(&trace)));
        assert_eq!(lru.hits, 0, "cyclic scan must thrash LRU: {lru:?}");
        assert!(
            belady.hits > lru.hits && belady.misses < lru.misses,
            "belady {belady:?} must beat lru {lru:?}"
        );
    }

    /// Byte `i` of the property tests' file: no two pages (and no two
    /// offsets within 251 bytes of each other) look alike.
    fn pattern(i: usize) -> u8 {
        (i % 251) as u8 ^ (i / PAGE_SIZE) as u8
    }

    /// A `len`-byte file of [`pattern`] bytes behind a cache that holds at
    /// most `budget_pages` (enforced by the governor, as in production).
    fn patterned(len: usize, budget_pages: usize) -> (Arc<PageCache>, FileHandle) {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(len as u64);
        let bytes: Vec<u8> = (0..len).map(pattern).collect();
        ssd.import(f, 0, &bytes).unwrap();
        let gov = MemoryGovernor::new((budget_pages * PAGE_SIZE) as u64);
        (PageCache::new(ssd, gov), f)
    }

    /// Quiescent-state invariants: no fill left in flight, every resident
    /// page tracked by the policy and charged to the governor exactly once.
    fn check(cache: &PageCache) {
        let inner = cache.inner.lock();
        let occupied: Vec<&PageSlot> = inner.slots.iter().flatten().collect();
        assert!(
            occupied.iter().all(|p| p.state == PageState::Ready),
            "a slot was left pending"
        );
        assert!(occupied.iter().all(|p| p.data.len() == PAGE_SIZE));
        assert_eq!(occupied.len(), inner.map.len());
        assert_eq!(inner.policy.len(), inner.map.len());
        assert_eq!(
            cache.gov.used_page_cache(),
            (inner.map.len() * PAGE_SIZE) as u64,
            "governor charge must equal resident pages"
        );
    }

    /// Random `(offset, len)` lists with overlaps, repeats, empty ranges
    /// and page-straddling ranges; returns them with their logical page
    /// access count.
    fn random_ranges(rng: &mut gnndrive_sync::Rng, file_len: usize) -> (Vec<(u64, usize)>, u64) {
        let mut accesses = 0u64;
        let ranges = (0..rng.below(24))
            .map(|_| {
                let offset = rng.below(file_len);
                let len = rng.below(3 * PAGE_SIZE).min(file_len - offset);
                if len > 0 {
                    accesses += ((offset + len - 1) / PAGE_SIZE - offset / PAGE_SIZE + 1) as u64;
                }
                (offset as u64, len)
            })
            .collect();
        (ranges, accesses)
    }

    #[test]
    fn vectored_reads_match_sequential_reads_under_any_budget() {
        gnndrive_sync::rng::cases(96, |rng| {
            let file_len = 1 + rng.below(40 * PAGE_SIZE);
            // 0 pages: everything bypasses; often fewer than one request.
            let budget = [0, 1, 2, 3, 8, 64][rng.below(6)];
            let (cache, f) = patterned(file_len, budget);
            let (reference, rf) = patterned(file_len, 64);
            cache.set_readahead(rng.below(5));
            for _ in 0..6 {
                let (ranges, accesses) = random_ranges(rng, file_len);
                let total: usize = ranges.iter().map(|r| r.1).sum();
                let before = cache.stats();
                let mut got = vec![0xAAu8; total];
                cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
                let mut want = vec![0x55u8; total];
                let mut at = 0;
                for &(offset, len) in &ranges {
                    reference.read(rf, offset, &mut want[at..at + len]);
                    at += len;
                }
                assert_eq!(got, want, "budget {budget}, ranges {ranges:?}");
                let after = cache.stats();
                assert_eq!(
                    (after.hits + after.misses) - (before.hits + before.misses),
                    accesses,
                    "one hit or miss per logical page access"
                );
                assert!(after.resident_pages <= budget as u64);
                assert_eq!(after.readaheads, 0, "the request is the exact need");
                if budget == 0 {
                    assert_eq!(after.bypasses, after.misses);
                    assert_eq!(after.hits, 0);
                }
                check(&cache);
            }
        });
    }

    #[test]
    fn adjacent_missing_pages_merge_up_to_the_readahead_window() {
        let (cache, f) = patterned(16 * PAGE_SIZE, 64);
        cache.set_readahead(4);
        // Pages 0..=8 and 12 are wanted; 5 is already resident.
        let mut byte = [0u8; 1];
        cache.read(f, 5 * PAGE_SIZE as u64, &mut byte);
        let (ops, fills) = (cache.ssd.stats().snapshot().read_ops, cache.stats().fills);
        let ranges: Vec<(u64, usize)> = [0, 1, 2, 3, 4, 5, 6, 7, 8, 12]
            .iter()
            .map(|p| ((p * PAGE_SIZE + 9) as u64, 3))
            .collect();
        let mut got = vec![0u8; 30];
        cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
        // [0..4) [4] | [6..=8] | [12]: four requests, one round trip.
        assert_eq!(cache.ssd.stats().snapshot().read_ops - ops, 4);
        assert_eq!(cache.stats().fills - fills, 1);
        assert_eq!(
            got[27..],
            [
                pattern(12 * PAGE_SIZE + 9),
                pattern(12 * PAGE_SIZE + 10),
                pattern(12 * PAGE_SIZE + 11)
            ]
        );
        check(&cache);
    }

    /// Two threads whose vectored reads overlap, under a budget either one
    /// alone overflows: each holds pending pages the other wants. Because a
    /// thread publishes everything it owns before it waits, both finish.
    #[test]
    fn overlapping_vectored_reads_under_a_tiny_budget_never_wait_on_each_other() {
        let file_len = 16 * PAGE_SIZE;
        let (cache, f) = patterned(file_len, 4);
        let want: Vec<u8> = (0..file_len).map(pattern).collect();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for reverse in [false, true] {
                let (cache, want, start) = (&cache, &want, &start);
                s.spawn(move || {
                    let mut ranges: Vec<(u64, usize)> = (0..16)
                        .map(|p| ((p * PAGE_SIZE + 100) as u64, PAGE_SIZE / 2))
                        .collect();
                    if reverse {
                        ranges.reverse();
                    }
                    for _ in 0..200 {
                        start.wait();
                        let mut got = vec![0u8; 16 * (PAGE_SIZE / 2)];
                        cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
                        for (chunk, &(offset, len)) in got.chunks(PAGE_SIZE / 2).zip(&ranges) {
                            assert_eq!(chunk, &want[offset as usize..offset as usize + len]);
                        }
                    }
                });
            }
        });
        check(&cache);
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 2 * 200 * 16);
    }

    #[test]
    fn corrupted_vectored_fills_are_detected_and_reread() {
        use crate::fault::FaultPlan;
        let (cache, f) = patterned(32 * PAGE_SIZE, 64);
        cache.set_retry_policy(RetryPolicy::default().with_max_attempts(16));
        let detected = &telemetry::catalog::STORAGE_INTEGRITY_DETECTED;
        let escaped = &telemetry::catalog::STORAGE_INTEGRITY_ESCAPED;
        let (d0, e0) = (detected.get(), escaped.get());
        cache
            .ssd
            .set_fault_plan(FaultPlan::new(23).with_bit_flips(0.5).on_file(f.id));
        let ranges: Vec<(u64, usize)> = (0..32).map(|p| ((p * PAGE_SIZE) as u64, 64)).collect();
        let mut got = vec![0u8; 32 * 64];
        cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
        cache.ssd.clear_faults();
        for (chunk, &(offset, _)) in got.chunks(64).zip(&ranges) {
            let want: Vec<u8> = (offset as usize..offset as usize + 64)
                .map(pattern)
                .collect();
            assert_eq!(chunk, want, "corrupt bytes served at {offset}");
        }
        assert!(detected.get() > d0, "the checksum gate must fire");
        assert_eq!(escaped.get(), e0, "no corruption may pass it");
        check(&cache);
    }

    #[test]
    fn read_fault_storm_degrades_a_vectored_fill_to_zero_fill() {
        use crate::fault::FaultPlan;
        let (cache, f) = patterned(8 * PAGE_SIZE, 4);
        cache.set_readahead(0); // no merging: one device request per page
        cache.set_retry_policy(RetryPolicy::default().with_max_attempts(2));
        let errors = &telemetry::catalog::PAGE_CACHE_READ_ERRORS;
        let before = errors.get();
        cache
            .ssd
            .set_fault_plan(FaultPlan::new(0).with_read_fault_every(1));
        let ranges: Vec<(u64, usize)> = (0..8).map(|p| ((p * PAGE_SIZE) as u64, 16)).collect();
        let mut got = vec![7u8; 8 * 16];
        cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
        assert_eq!(got, vec![0u8; 8 * 16], "exhausted retries degrade to zeros");
        assert!(errors.get() >= before + 8);
        check(&cache);
    }

    #[test]
    fn device_shutdown_mid_fill_returns_instead_of_parking() {
        use std::time::Duration;
        let ssd = SimSsd::new(SsdProfile {
            read_latency: Duration::from_millis(20),
            channels: 1,
            ..SsdProfile::instant()
        });
        let f = ssd.create_file((64 * PAGE_SIZE) as u64);
        let cache = PageCache::new(Arc::clone(&ssd), MemoryGovernor::unlimited());
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let ranges: Vec<(u64, usize)> =
                    (0..64).map(|p| ((p * PAGE_SIZE) as u64, 8)).collect();
                let mut got = vec![0u8; 64 * 8];
                cache.read_vectored(f, &ranges, IoPriority::Bulk, &mut got);
            });
            // Misses are counted before the requests go out: once they
            // show, the fill is committed to its 64 × 20 ms of reads.
            while cache.stats().misses == 0 {
                std::thread::yield_now();
            }
            ssd.shutdown();
            reader.join().expect("the fill must return");
        });
        check(&cache);
    }

    /// The priority inversion fix: a fill on the serve lane overtakes bulk
    /// reads that were queued before it (DESIGN.md §11).
    #[test]
    fn serve_priority_fill_overtakes_queued_bulk_reads() {
        use std::time::Duration;
        // One channel, 20 ms per read: completion order == service order.
        let ssd = SimSsd::new(SsdProfile {
            read_latency: Duration::from_millis(20),
            channels: 1,
            sleep_granularity: Duration::from_micros(100),
            ..SsdProfile::instant()
        });
        let f = ssd.create_file((8 * PAGE_SIZE) as u64);
        let cache = PageCache::new(Arc::clone(&ssd), MemoryGovernor::unlimited());
        let order = OrderedMutex::new(LockRank::Buffer, Vec::new());
        std::thread::scope(|s| {
            let bulk = |tag: &'static str| {
                let (ssd, order) = (&ssd, &order);
                s.spawn(move || {
                    let mut out = [0u8; 512];
                    ssd.read_blocking(f, 0, &mut out, true).expect("bulk read");
                    order.lock().push(tag);
                });
            };
            // Occupy the single channel, then back the bulk lane up…
            bulk("head");
            std::thread::sleep(Duration::from_millis(5));
            (0..3).for_each(|_| bulk("bulk"));
            std::thread::sleep(Duration::from_millis(5));
            // …then fault a page in on the serve lane, submitted last.
            s.spawn(|| {
                let mut out = [0u8; 8];
                cache.read_vectored(f, &[(PAGE_SIZE as u64, 8)], IoPriority::Serve, &mut out);
                order.lock().push("serve");
            });
        });
        let order = order.into_inner();
        assert_eq!(order[0], "head", "the in-service read finishes first");
        assert_eq!(
            order[1], "serve",
            "the serve-lane fill must overtake queued bulk reads: {order:?}"
        );
        assert_eq!(ssd.stats().snapshot().serve_ops, 1);
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
