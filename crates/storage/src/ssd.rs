//! The simulated solid-state drive.
//!
//! This is the substitute for the paper testbed's SATA SSD (see DESIGN.md
//! §1). The device holds a real in-heap disk image and services requests
//! with `channels` worker threads. Timing follows a service model:
//!
//! * every request pays a per-operation **base latency** (flash read/program
//!   time + controller overhead),
//! * all requests share an aggregate **bandwidth** budget enforced by a
//!   global reservation cursor (the SATA link),
//! * at most `queue_depth` requests may be queued at the device (NCQ), and
//!   at most `channels` are in service concurrently (internal parallelism).
//!
//! Device workers track a per-channel virtual completion deadline and sleep
//! whenever they run more than `sleep_granularity` ahead of wall time, so
//! aggregate throughput and caller blocking times follow the model while
//! individual sleep syscall overhead stays amortized. Data movement is real:
//! reads copy bytes out of the image into the request buffer.

use crate::error::IoError;
use crate::fault::{FaultInjector, FaultPlan, FaultVerdict, SilentCorruption};
use crate::integrity::{crc32, IntegrityError, SectorChecksums};
use crate::stats::IoStats;
use crate::wcache::{DirtySector, PowerCutReport, WriteCache};
use gnndrive_sync::queue::{bounded, unbounded, LaneQueue, Receiver, Sender, TrySendError};
use gnndrive_sync::rng::mix_unit;
use gnndrive_sync::{LockRank, OrderedMutex, OrderedRwLock};
use gnndrive_telemetry as telemetry;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::catalog;

/// Legacy disk sector size; direct I/O must be aligned to this (paper §4.4).
pub const SECTOR_SIZE: u64 = 512;

/// Timing and shape parameters of a simulated device.
#[derive(Debug, Clone)]
pub struct SsdProfile {
    pub name: &'static str,
    /// Base service latency of a read request.
    pub read_latency: Duration,
    /// Base service latency of a write request.
    pub write_latency: Duration,
    /// Aggregate device bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Number of parallel internal service units (≈ NCQ effective depth).
    pub channels: usize,
    /// Capacity of the device submission queue; submitting beyond it stalls.
    pub queue_depth: usize,
    /// Workers may run at most this far ahead of wall time before sleeping.
    pub sleep_granularity: Duration,
}

impl SsdProfile {
    /// SAMSUNG PM883-like SATA SSD (the paper's main testbed device).
    pub fn pm883() -> Self {
        SsdProfile {
            name: "pm883",
            read_latency: Duration::from_micros(85),
            write_latency: Duration::from_micros(70),
            bandwidth: 520 * 1024 * 1024,
            channels: 16,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(400),
        }
    }

    /// Intel DC S3510-like SATA SSD (the paper's multi-GPU machine device,
    /// an older and slower drive).
    pub fn s3510() -> Self {
        SsdProfile {
            name: "s3510",
            read_latency: Duration::from_micros(110),
            write_latency: Duration::from_micros(95),
            bandwidth: 420 * 1024 * 1024,
            channels: 12,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(400),
        }
    }

    /// The pm883 slowed ~4× for experiment runs: the datasets are scaled
    /// ÷1000 but mini-batch neighborhoods only shrink ~÷30 (fanout
    /// expansion is scale-invariant), so a proportionally slower device
    /// keeps the paper's extract-dominates-epoch shape. See DESIGN.md.
    pub fn pm883_repro() -> Self {
        SsdProfile {
            name: "pm883-repro",
            read_latency: Duration::from_micros(340),
            write_latency: Duration::from_micros(280),
            bandwidth: 130 * 1024 * 1024,
            channels: 16,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(500),
        }
    }

    /// The s3510 slowed ~4× (multi-GPU machine experiments).
    pub fn s3510_repro() -> Self {
        SsdProfile {
            name: "s3510-repro",
            read_latency: Duration::from_micros(440),
            write_latency: Duration::from_micros(380),
            bandwidth: 105 * 1024 * 1024,
            channels: 12,
            queue_depth: 64,
            sleep_granularity: Duration::from_micros(500),
        }
    }

    /// Zero-latency device for unit tests: data movement without timing.
    pub fn instant() -> Self {
        SsdProfile {
            name: "instant",
            read_latency: Duration::ZERO,
            write_latency: Duration::ZERO,
            bandwidth: u64::MAX / 4,
            channels: 2,
            queue_depth: 1024,
            sleep_granularity: Duration::ZERO,
        }
    }

    /// What one read op costs, in link bytes: `read_latency × bandwidth /
    /// channels`, the bytes the link moves while one op holds its share of
    /// the channels. A planner that reads `b` extra bytes to save one op
    /// gains while `b` is below this (≈2.9 KB on `pm883_repro`); a device
    /// with no per-op latency (`instant`) never gains.
    pub fn op_cost_bytes(&self) -> u64 {
        let bytes = self.read_latency.as_nanos() * self.bandwidth as u128
            / 1_000_000_000
            / self.channels.max(1) as u128;
        bytes.min(u64::MAX as u128) as u64
    }
}

/// Handle to a file (extent) on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileHandle {
    pub id: u32,
    pub len: u64,
}

/// Operation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Read,
    Write,
}

/// QoS lane of a submitted request (DESIGN.md §11).
///
/// The device keeps one submission queue per lane and its channel workers
/// always drain the [`IoPriority::Serve`] queue first, so latency-critical
/// online-inference reads jump ahead of bulk training reads that are
/// already queued (but never preempt a request in service). Everything
/// that predates the serving tier submits [`IoPriority::Bulk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoPriority {
    /// Latency-critical serving reads; drained ahead of the bulk lane.
    Serve,
    /// Throughput-oriented training / maintenance traffic.
    #[default]
    Bulk,
}

/// A completed request, delivered on the submitter's completion channel.
#[derive(Debug)]
pub struct Completion {
    /// Caller-chosen tag, as in io_uring's `user_data`.
    pub user_data: u64,
    /// For reads, the buffer now filled with data; for writes, the buffer
    /// handed back. `Err` only for device shutdown races — validation errors
    /// are reported synchronously at submission.
    pub result: Result<Vec<u8>, IoError>,
    /// Modeled request latency (submission to completion deadline).
    pub latency: Duration,
    /// Enqueue→dispatch share of `latency`: how long the request sat in
    /// the submission queue before a channel picked it up. Together with
    /// `service_ns` this is the per-completion congestion/service split
    /// the attribution layer consumes (DESIGN.md §10).
    pub queue_ns: u64,
    /// Dispatch→complete share: what the device model charged (base
    /// latency, bandwidth reservation, injected fault latency).
    pub service_ns: u64,
}

impl Completion {
    /// The gate device bytes pass to become trusted bytes: a successful
    /// read completion is checked with [`SimSsd::verify`] as the contents
    /// of `file` at `offset` (a mismatch is the transient
    /// [`IoError::Corrupt`], so retry loops re-read); a failed one passes
    /// its error through.
    pub fn verified(self, ssd: &SimSsd, file: FileHandle, offset: u64) -> Result<Vec<u8>, IoError> {
        let bytes = self.result?;
        ssd.verify(file, offset, &bytes)?;
        Ok(bytes)
    }
}

pub(crate) struct Request {
    pub file: u32,
    pub offset: u64,
    pub op: IoOp,
    /// The payload of a write; empty for a read, whose `len`-byte buffer
    /// the servicing channel allocates — one allocation per read, and in
    /// the channel workers' allocator arenas: filling a submitter-allocated
    /// buffer in place measured ≈10 % more peak RSS under a tight budget,
    /// long-lived cache pages ending up among each submitter's short-lived
    /// allocations.
    pub buf: Vec<u8>,
    /// Transfer size in bytes.
    pub len: usize,
    pub user_data: u64,
    pub reply: Sender<Completion>,
    pub submitted: Instant,
    pub prio: IoPriority,
}

struct FileMeta {
    base: u64,
    len: u64,
}

/// The disk image plus its per-sector CRC table, kept in lockstep by every
/// legitimate write path (`create_file`, `import`, serviced writes). The
/// image is always sector-padded — `create_file` rounds both the base and
/// the allocation up to [`SECTOR_SIZE`] — so every table entry covers a
/// full sector.
struct DiskImage {
    bytes: Vec<u8>,
    crcs: SectorChecksums,
}

/// Device-side integrity bookkeeping. The *intent ledger* records what torn
/// writes meant to persist (the simulated analog of the controller's
/// journal/NVRAM redundancy the scrubber repairs from); the *quarantine*
/// set fences sectors whose media bytes are known-bad, so reads fail
/// decisively until the sector is repaired or rewritten.
#[derive(Default)]
struct IntegrityState {
    /// Absolute image sector index → intended full-sector contents.
    intents: HashMap<u64, Vec<u8>>,
    /// Absolute image sector indices fenced off from reads.
    quarantined: HashSet<u64>,
}

/// Result of one [`SimSsd::scrub_chunk`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubChunk {
    /// Sectors examined this pass.
    pub scanned: u64,
    /// Sectors whose media bytes disagreed with the CRC table and were
    /// restored from the intent ledger.
    pub repaired: u64,
    /// Mismatched sectors with no ledger entry to repair from; they stay
    /// quarantined.
    pub unrecoverable: u64,
    /// Where the next pass should start (wraps to 0 at the end of the
    /// image).
    pub next_sector: u64,
    /// Total sectors the image currently spans.
    pub total_sectors: u64,
}

struct Shared {
    profile: SsdProfile,
    /// Submission queue, one lane per [`IoPriority`], each at the device's
    /// NCQ depth. Workers pop the serve lane first; shutdown closes it, so
    /// they drain what is queued and exit.
    queue: LaneQueue<Request>,
    image: OrderedRwLock<DiskImage>,
    files: OrderedMutex<Vec<FileMeta>>,
    /// Intent ledger + quarantine set; always acquired *after* `image`
    /// (same rank — equal-rank nesting is allowed, order is conventional).
    integrity: OrderedMutex<IntegrityState>,
    /// Volatile write-back cache undo log; always acquired *after*
    /// `integrity` (same conventional ordering).
    wcache: OrderedMutex<WriteCache>,
    stats: IoStats,
    /// Global bandwidth reservation cursor: the instant the device link is
    /// next free. Reserving `b` bytes advances it by `b / bandwidth`.
    bw_cursor: OrderedMutex<Instant>,
    /// Active fault-injection schedule, consulted by workers per request.
    fault: OrderedRwLock<Option<FaultInjector>>,
    /// Set once [`SimSsd::shutdown`] begins; workers stop servicing and
    /// reply [`IoError::DeviceClosed`] to anything still queued.
    closed: AtomicBool,
}

/// The simulated SSD. See module docs for the timing model.
pub struct SimSsd {
    shared: Arc<Shared>,
    workers: OrderedMutex<Vec<JoinHandle<()>>>,
}

/// Outcome of a non-blocking submission attempt.
pub(crate) enum SubmitOutcome {
    Accepted,
    /// Device queue full: the request is handed back for requeueing.
    Full(Request),
    /// Device shut down: the request was consumed and its reply channel
    /// got a [`IoError::DeviceClosed`] completion.
    Closed,
}

impl SimSsd {
    /// Bring up a device with the given profile.
    pub fn new(profile: SsdProfile) -> Arc<Self> {
        // Listed from device creation on, so reports show zero escapes
        // rather than no key. `injected` counts effective corruptions
        // (bytes actually changed); `escaped` is the ground-truth tripwire:
        // corrupt bytes that passed every CRC check.
        for c in [
            &catalog::STORAGE_INTEGRITY_INJECTED,
            &catalog::STORAGE_INTEGRITY_BIT_FLIPS,
            &catalog::STORAGE_INTEGRITY_MISDIRECTS,
            &catalog::STORAGE_INTEGRITY_TORN_WRITES,
            &catalog::STORAGE_INTEGRITY_DETECTED,
            &catalog::STORAGE_INTEGRITY_ESCAPED,
            &catalog::STORAGE_INTEGRITY_QUARANTINED,
        ] {
            c.register();
        }
        let shared = Arc::new(Shared {
            profile: profile.clone(),
            queue: LaneQueue::new(profile.queue_depth),
            image: OrderedRwLock::new(
                LockRank::Storage,
                DiskImage {
                    bytes: Vec::new(),
                    crcs: SectorChecksums::default(),
                },
            ),
            files: OrderedMutex::new(LockRank::Storage, Vec::new()),
            integrity: OrderedMutex::new(LockRank::Storage, IntegrityState::default()),
            wcache: OrderedMutex::new(LockRank::Storage, WriteCache::new()),
            stats: IoStats::default(),
            bw_cursor: OrderedMutex::new(LockRank::Storage, Instant::now()),
            fault: OrderedRwLock::new(LockRank::Storage, None),
            closed: AtomicBool::new(false),
        });
        let mut workers = Vec::with_capacity(profile.channels);
        for i in 0..profile.channels {
            let sh = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("simssd-{}-{}", profile.name, i))
                    .spawn(move || channel_worker(sh))
                    .expect("spawn ssd worker"),
            );
        }
        Arc::new(SimSsd {
            shared,
            workers: OrderedMutex::new(LockRank::Storage, workers),
        })
    }

    pub fn profile(&self) -> &SsdProfile {
        &self.shared.profile
    }

    pub fn stats(&self) -> &IoStats {
        &self.shared.stats
    }

    /// Install a fault-injection schedule; replaces any active plan and
    /// resets its operation counters.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.shared.fault.write() = if plan.is_active() {
            Some(FaultInjector::new(plan))
        } else {
            None
        };
    }

    /// Remove any active fault plan (the device becomes healthy again).
    pub fn clear_faults(&self) {
        *self.shared.fault.write() = None;
    }

    /// Whether the device has been shut down (or is shutting down).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Shut the device down: in-flight and queued requests complete with
    /// [`IoError::DeviceClosed`], workers exit, and all later submissions
    /// fail fast. Idempotent; `Drop` calls it too.
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        // Closing the queue lets workers drain it and exit.
        self.shared.queue.close();
        // Take the handles out and release the lock before joining:
        // joining with the `workers` guard held would deadlock anyone
        // touching the worker list while a worker winds down.
        let mut workers = self.workers.lock();
        let handles = std::mem::take(&mut *workers);
        drop(workers);
        for h in handles {
            let _ = h.join();
        }
    }

    /// Allocate a zero-filled file of `len` bytes on the device. The base
    /// and the allocation are both rounded up to [`SECTOR_SIZE`], so
    /// file-relative sector offsets map to whole image sectors and every
    /// CRC table entry covers a full sector.
    pub fn create_file(&self, len: u64) -> FileHandle {
        let mut files = self.shared.files.lock();
        let mut image = self.shared.image.write();
        let base = (image.bytes.len() as u64).next_multiple_of(SECTOR_SIZE);
        let alloc = len.next_multiple_of(SECTOR_SIZE);
        image.bytes.resize((base + alloc) as usize, 0);
        let image_len = image.bytes.len();
        image.crcs.grow_to(image_len);
        let id = files.len() as u32;
        files.push(FileMeta { base, len });
        FileHandle { id, len }
    }

    /// Instantly place `data` at `offset` of `file`, bypassing the timing
    /// model. This stands in for preparing the dataset on disk before the
    /// experiment starts (the paper does not count dataset installation).
    pub fn import(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), IoError> {
        if data.is_empty() {
            return Ok(());
        }
        let base = self.locate(file.id, offset, data.len() as u64)? as usize;
        let mut image = self.shared.image.write();
        let end = base + data.len();
        image.bytes[base..end].copy_from_slice(data);
        let img = &mut *image;
        img.crcs.refresh(&img.bytes, base, end);
        // An import is a complete legitimate write: it heals fenced sectors.
        let sec = SECTOR_SIZE as usize;
        let lo = (base / sec) as u64;
        let hi = ((end - 1) / sec) as u64 + 1;
        let mut st = self.shared.integrity.lock();
        for s in lo..hi {
            st.quarantined.remove(&s);
            st.intents.remove(&s);
        }
        // Imports bypass the write cache entirely (dataset installation is
        // durable by definition), superseding any unflushed state.
        self.shared.wcache.lock().write_through(lo, hi);
        Ok(())
    }

    /// Instantly read without the timing model (verification/debug only).
    pub fn peek(&self, file: FileHandle, offset: u64, out: &mut [u8]) -> Result<(), IoError> {
        let base = self.locate(file.id, offset, out.len() as u64)?;
        let image = self.shared.image.read();
        out.copy_from_slice(&image.bytes[base as usize..base as usize + out.len()]);
        Ok(())
    }

    /// Verify `data`, claimed to be the contents of `file` at `offset`,
    /// against the device's per-sector CRC table. Hosts reach this through
    /// [`Completion::verified`] / [`SimSsd::read_verified`] at every read
    /// boundary (page-cache fill, extractor completion, checkpoint load);
    /// only fully-covered sectors can be checked, which for the aligned
    /// page and feature reads this stack issues is every byte.
    ///
    /// On mismatch the first failing sector is reported as a typed
    /// [`IntegrityError`]; *persistent* mismatches (the image itself
    /// disagrees with the table — media corruption, e.g. a torn write) are
    /// quarantined so later reads fail decisively until the scrubber
    /// repairs the sector or a rewrite replaces it. As a ground-truth
    /// tripwire, bytes that pass every CRC but still differ from the image
    /// bump `storage.integrity.escaped` (the simulator knows the truth; a
    /// real device would not).
    pub fn verify(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), IntegrityError> {
        if data.is_empty() {
            return Ok(());
        }
        let Ok(base) = self.locate(file.id, offset, data.len() as u64) else {
            // Out-of-range reads fail at the device; they never produce
            // data for anyone to verify.
            return Ok(());
        };
        let sec = SECTOR_SIZE;
        let start = base;
        let end = base + data.len() as u64;
        let first = start.div_ceil(sec);
        let last = end / sec;
        if first >= last {
            return Ok(());
        }
        let image = self.shared.image.read();
        let mut st = self.shared.integrity.lock();
        for s in first..last {
            let lo = (s * sec - start) as usize;
            let slice = &data[lo..lo + sec as usize];
            let expected = image.crcs.get(s as usize);
            let actual = crc32(slice);
            let fenced = st.quarantined.contains(&s);
            if actual != expected || fenced {
                catalog::STORAGE_INTEGRITY_DETECTED.inc();
                let ilo = (s * sec) as usize;
                let persistent = fenced || crc32(&image.bytes[ilo..ilo + sec as usize]) != expected;
                if persistent && st.quarantined.insert(s) {
                    catalog::STORAGE_INTEGRITY_QUARANTINED.inc();
                }
                return Err(IntegrityError {
                    file: file.id,
                    offset: s * sec - (base - offset),
                    expected,
                    actual,
                    persistent,
                });
            }
        }
        if data != &image.bytes[start as usize..end as usize] {
            catalog::STORAGE_INTEGRITY_ESCAPED.inc();
        }
        Ok(())
    }

    /// One scrubber pass over up to `max_sectors` sectors starting at
    /// `start_sector`. Sectors whose media bytes disagree with the CRC
    /// table are restored from the intent ledger when possible; mismatches
    /// with no ledger entry are unrecoverable and stay fenced. Driven by
    /// [`crate::Scrubber`], but callable directly for tests and tools.
    pub fn scrub_chunk(&self, start_sector: u64, max_sectors: u64) -> ScrubChunk {
        // Crash-schedule coverage for ledger repair: a cut here models the
        // process dying mid scrub pass. Repair is idempotent and media
        // state is only ever improved sector-at-a-time under the image
        // lock, so aborting the pass wholesale is always safe.
        if telemetry::crash::point("scrub.repair").is_err() {
            return ScrubChunk::default();
        }
        let mut image = self.shared.image.write();
        let total = image.crcs.sectors() as u64;
        let start = start_sector.min(total);
        let end = (start + max_sectors).min(total);
        let mut report = ScrubChunk {
            scanned: end.saturating_sub(start),
            repaired: 0,
            unrecoverable: 0,
            next_sector: if end >= total { 0 } else { end },
            total_sectors: total,
        };
        if start >= end {
            return report;
        }
        let sec = SECTOR_SIZE as usize;
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.shared.integrity.lock();
        let mut wc = self.shared.wcache.lock();
        for s in start..end {
            let lo = s as usize * sec;
            if crc32(&bytes[lo..lo + sec]) == crcs.get(s as usize) {
                continue;
            }
            match st.intents.remove(&s) {
                Some(intended) => {
                    bytes[lo..lo + sec].copy_from_slice(&intended);
                    st.quarantined.remove(&s);
                    // Ledger repairs go straight to media: the repaired
                    // sector is durable, not pending in the write cache.
                    wc.write_through(s, s + 1);
                    report.repaired += 1;
                }
                None => {
                    // No redundancy to repair from: fence the sector so
                    // reads fail decisively instead of serving rot.
                    if st.quarantined.insert(s) {
                        catalog::STORAGE_INTEGRITY_QUARANTINED.inc();
                    }
                    report.unrecoverable += 1;
                }
            }
        }
        report
    }

    /// Number of sectors the image currently spans (scrubber pacing).
    pub fn sector_count(&self) -> u64 {
        self.shared.image.read().crcs.sectors() as u64
    }

    /// Flush barrier over one file: every unflushed sector in `file`'s
    /// extent becomes durable (a power cut can no longer disturb it).
    /// Returns how many sectors drained. Flush timing is not modeled —
    /// the barrier is about *ordering*, which is what crash consistency
    /// depends on, not about latency.
    pub fn flush(&self, file: FileHandle) -> u64 {
        let (lo, hi) = {
            let files = self.shared.files.lock();
            let Some(meta) = files.get(file.id as usize) else {
                return 0;
            };
            let lo = meta.base / SECTOR_SIZE;
            let hi = (meta.base + meta.len.next_multiple_of(SECTOR_SIZE)) / SECTOR_SIZE;
            (lo, hi)
        };
        self.shared.wcache.lock().flush_range(lo, hi)
    }

    /// Whole-device flush barrier; returns how many sectors drained.
    pub fn flush_all(&self) -> u64 {
        self.shared.wcache.lock().drain_all()
    }

    /// Unflushed sectors currently at risk from a power cut.
    pub fn dirty_sector_count(&self) -> u64 {
        self.shared.wcache.lock().dirty_len()
    }

    /// Simulate power loss: every unflushed sector independently (and
    /// deterministically under `seed`) either drained in time (**kept**),
    /// is rolled back wholesale to its durable snapshot (**dropped**), or
    /// is left **torn** — a seeded prefix of the pending bytes over the
    /// durable suffix, with the CRC table still holding the pending
    /// checksum and the (equally volatile) intent-ledger entry lost, so
    /// every later read surfaces a typed persistent
    /// [`IntegrityError`] until the sector is rewritten. The device
    /// itself stays up — restart semantics (what the *host* lost) are the
    /// crash-point registry's job.
    pub fn power_cut(&self, seed: u64) -> PowerCutReport {
        let mut image = self.shared.image.write();
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.shared.integrity.lock();
        let mut wc = self.shared.wcache.lock();
        let dirty = wc.take_sorted();
        let mut report = PowerCutReport {
            dirty: dirty.len() as u64,
            ..Default::default()
        };
        catalog::STORAGE_WCACHE_POWER_CUTS.inc();
        let sec = SECTOR_SIZE as usize;
        for (s, snap) in dirty {
            let lo = s as usize * sec;
            let u = mix_unit(seed, s, 29);
            if u < 1.0 / 3.0 {
                // Kept: the cache line had drained; pending state (bytes,
                // CRC, ledger, fence — all already in place) is durable.
                report.kept += 1;
                catalog::STORAGE_WCACHE_SECTORS_KEPT.inc();
                continue;
            }
            if u < 2.0 / 3.0 {
                // Dropped: restore the durable snapshot wholesale so the
                // sector reads back as its consistent old version.
                bytes[lo..lo + sec].copy_from_slice(&snap.durable);
                crcs.set(s as usize, snap.durable_crc);
                match snap.durable_intent {
                    Some(intent) => {
                        st.intents.insert(s, intent);
                    }
                    None => {
                        st.intents.remove(&s);
                    }
                }
                if snap.durable_quarantined {
                    if st.quarantined.insert(s) {
                        catalog::STORAGE_INTEGRITY_QUARANTINED.inc();
                    }
                } else {
                    st.quarantined.remove(&s);
                }
                report.dropped += 1;
                catalog::STORAGE_WCACHE_SECTORS_DROPPED.inc();
                continue;
            }
            // Torn: a seeded prefix of the pending bytes made it to media
            // before the cut (same prefix machinery as injected torn
            // writes), the rest reverts to the durable suffix.
            let keep = ((mix_unit(seed, s, 31) * sec as f64) as usize).min(sec);
            let mut mixed = bytes[lo..lo + sec].to_vec();
            mixed[keep..].copy_from_slice(&snap.durable[keep..]);
            let effectively_clean = crc32(&mixed) == crcs.get(s as usize);
            bytes[lo..lo + sec].copy_from_slice(&mixed);
            if effectively_clean {
                // The durable suffix equals the pending one — the tear
                // changed nothing observable; the sector persisted intact.
                report.kept += 1;
                catalog::STORAGE_WCACHE_SECTORS_KEPT.inc();
                continue;
            }
            // The CRC table keeps the pending checksum, so the mismatch is
            // persistent and every read detects it; the controller journal
            // (intent ledger) lived in the same volatile domain, so there
            // is nothing to repair from — only fencing remains.
            st.intents.remove(&s);
            report.torn += 1;
            catalog::STORAGE_WCACHE_SECTORS_TORN.inc();
        }
        report
    }

    /// Translate (file, offset, len) to an image offset, validating range.
    fn locate(&self, file: u32, offset: u64, len: u64) -> Result<u64, IoError> {
        let files = self.shared.files.lock();
        let meta = files.get(file as usize).ok_or(IoError::NoSuchFile(file))?;
        if offset + len > meta.len {
            return Err(IoError::OutOfRange {
                file,
                offset,
                len,
                file_len: meta.len,
            });
        }
        Ok(meta.base + offset)
    }

    /// Validate a prospective request; shared by sync and ring paths.
    pub(crate) fn validate(
        &self,
        file: u32,
        offset: u64,
        len: u64,
        direct: bool,
    ) -> Result<(), IoError> {
        if direct && (!offset.is_multiple_of(SECTOR_SIZE) || !len.is_multiple_of(SECTOR_SIZE)) {
            return Err(IoError::Misaligned { offset, len });
        }
        self.locate(file, offset, len).map(|_| ())
    }

    /// Reply `DeviceClosed` on a request's completion channel (the device
    /// can no longer service it).
    fn refuse(req: Request) {
        let _ = req.reply.send(Completion {
            user_data: req.user_data,
            result: Err(IoError::DeviceClosed),
            latency: Duration::ZERO,
            queue_ns: 0,
            service_ns: 0,
        });
    }

    /// Submit without blocking; gives the request back if the device queue
    /// is full (the ring keeps it in its software SQ). A shut-down device
    /// consumes the request and completes it with `DeviceClosed`.
    pub(crate) fn try_submit(&self, req: Request) -> SubmitOutcome {
        match self
            .shared
            .queue
            .try_send(req.prio == IoPriority::Serve, req)
        {
            Ok(()) => SubmitOutcome::Accepted,
            Err(TrySendError::Full(r)) => {
                self.shared.stats.add_queue_full_stall();
                SubmitOutcome::Full(r)
            }
            Err(TrySendError::Disconnected(r)) => {
                Self::refuse(r);
                SubmitOutcome::Closed
            }
        }
    }

    /// Submit, stalling (in I/O-wait) if the device queue is full.
    pub(crate) fn submit_blocking(&self, req: Request) -> Result<(), IoError> {
        let req = match self.try_submit(req) {
            SubmitOutcome::Accepted => return Ok(()),
            SubmitOutcome::Closed => return Err(IoError::DeviceClosed),
            SubmitOutcome::Full(r) => r,
        };
        let _io = telemetry::state(telemetry::State::IoWait);
        match self.shared.queue.send(req.prio == IoPriority::Serve, req) {
            Ok(()) => Ok(()),
            Err(e) => {
                Self::refuse(e.0);
                Err(IoError::DeviceClosed)
            }
        }
    }

    /// Submit one read of `file` per `(offset, len)` run on lane `prio`, all
    /// before waiting for any, stalling (in I/O-wait) whenever the lane is
    /// full. Every run yields exactly one [`Completion`] on the returned
    /// channel, tagged with its index — a shut-down device answers
    /// [`IoError::DeviceClosed`], an out-of-range run its range error — and
    /// the channel disconnects after the last one, so a collector can never
    /// park on a reply that will not come.
    pub(crate) fn submit_reads(
        &self,
        file: FileHandle,
        runs: &[(u64, usize)],
        prio: IoPriority,
    ) -> Receiver<Completion> {
        let (reply, done) = unbounded();
        for (i, &(offset, len)) in runs.iter().enumerate() {
            // A refused request was already answered on `reply`.
            let _ = self.submit_blocking(Request {
                file: file.id,
                offset,
                op: IoOp::Read,
                buf: Vec::new(),
                len,
                user_data: i as u64,
                reply: reply.clone(),
                submitted: Instant::now(),
                prio,
            });
        }
        done
    }

    /// Synchronous read: submit one request and block until it completes.
    ///
    /// The blocking time is real (the paper's synchronous-I/O baseline
    /// behaviour) and is attributed to I/O wait.
    pub fn read_blocking(
        &self,
        file: FileHandle,
        offset: u64,
        out: &mut [u8],
        direct: bool,
    ) -> Result<(), IoError> {
        self.read_blocking_prio(file, offset, out, direct, IoPriority::Bulk)
    }

    /// [`SimSsd::read_blocking`] on an explicit QoS lane. Serving paths use
    /// [`IoPriority::Serve`] so their reads bypass queued bulk traffic.
    pub fn read_blocking_prio(
        &self,
        file: FileHandle,
        offset: u64,
        out: &mut [u8],
        direct: bool,
        prio: IoPriority,
    ) -> Result<(), IoError> {
        if out.is_empty() {
            return Ok(());
        }
        self.validate(file.id, offset, out.len() as u64, direct)?;
        let started = Instant::now();
        let done = self.submit_reads(file, &[(offset, out.len())], prio);
        let completion = {
            let _io = telemetry::state(telemetry::State::IoWait);
            done.recv().map_err(|_| IoError::DeviceClosed)?
        };
        self.shared
            .stats
            .add_io_wait(started.elapsed().as_nanos() as u64);
        let buf = completion.result?;
        out.copy_from_slice(&buf);
        Ok(())
    }

    /// [`SimSsd::read_blocking_prio`] through the checksum gate: the bytes
    /// in `out` are trusted only on `Ok` (see [`Completion::verified`]).
    pub fn read_verified(
        &self,
        file: FileHandle,
        offset: u64,
        out: &mut [u8],
        direct: bool,
        prio: IoPriority,
    ) -> Result<(), IoError> {
        self.read_blocking_prio(file, offset, out, direct, prio)?;
        Ok(self.verify(file, offset, out)?)
    }

    /// Synchronous write: block until the device has absorbed the data.
    pub fn write_blocking(
        &self,
        file: FileHandle,
        offset: u64,
        data: &[u8],
        direct: bool,
    ) -> Result<(), IoError> {
        if data.is_empty() {
            return Ok(());
        }
        self.validate(file.id, offset, data.len() as u64, direct)?;
        let (reply, done) = bounded(1);
        let started = Instant::now();
        self.submit_blocking(Request {
            file: file.id,
            offset,
            op: IoOp::Write,
            buf: data.to_vec(),
            len: data.len(),
            user_data: 0,
            reply,
            submitted: started,
            prio: IoPriority::Bulk,
        })?;
        let completion = {
            let _io = telemetry::state(telemetry::State::IoWait);
            done.recv().map_err(|_| IoError::DeviceClosed)?
        };
        self.shared
            .stats
            .add_io_wait(started.elapsed().as_nanos() as u64);
        completion.result.map(|_| ())
    }
}

impl Drop for SimSsd {
    fn drop(&mut self) {
        // Close the queue and join workers so no thread outlives the device.
        self.shutdown();
    }
}

/// Reserve `bytes` on the shared link; returns the instant the transfer
/// would complete under the bandwidth budget.
fn reserve_bandwidth(shared: &Shared, bytes: u64) -> Instant {
    let dur = Duration::from_nanos(
        (bytes as u128 * 1_000_000_000 / shared.profile.bandwidth as u128) as u64,
    );
    let mut cur = shared.bw_cursor.lock();
    let now = Instant::now();
    let start = (*cur).max(now);
    *cur = start + dur;
    *cur
}

fn channel_worker(shared: Arc<Shared>) {
    // The channel's virtual clock: the deadline of the last request it
    // serviced. It may run ahead of wall time by at most sleep_granularity.
    let mut cursor = Instant::now();
    // Serve lane first; `Err` once the queue is closed and drained, so
    // everything queued at shutdown still gets its `DeviceClosed` reply.
    while let Ok(req) = shared.queue.recv() {
        if shared.closed.load(Ordering::Acquire) {
            // Shutdown in progress: fail queued requests fast instead of
            // servicing them.
            let _ = req.reply.send(Completion {
                user_data: req.user_data,
                result: Err(IoError::DeviceClosed),
                latency: Duration::ZERO,
                queue_ns: 0,
                service_ns: 0,
            });
            continue;
        }
        let now = Instant::now();
        let base = match req.op {
            IoOp::Read => shared.profile.read_latency,
            IoOp::Write => shared.profile.write_latency,
        };
        // Fault injection happens at service time: the verdict may inflate
        // the request's latency (spikes, stalls) and/or doom its outcome.
        let verdict = shared
            .fault
            .read()
            .as_ref()
            .map(|inj| inj.assess(req.file, req.offset, req.len, req.op))
            .unwrap_or_default();
        let start = cursor.max(now);
        let bw_done = reserve_bandwidth(&shared, req.len as u64);
        let deadline = (start + base).max(bw_done) + verdict.extra_latency;
        cursor = deadline;
        // Service = what the device model charges this request; queueing =
        // how long it sat in the submission queue before a channel picked
        // it up. Completion.latency below is their sum (plus send skew).
        let service_ns = deadline.saturating_duration_since(start).as_nanos() as u64;
        let queue_ns = now.saturating_duration_since(req.submitted).as_nanos() as u64;
        shared.stats.record_op(service_ns, queue_ns);
        shared.stats.record_lane(req.prio, queue_ns);

        // Real data movement (unless the injector doomed this request —
        // media errors still pay their modeled latency below).
        let result = match verdict.fail {
            Some(e) => Err(e),
            None => do_copy(&shared, &req, &verdict),
        };

        // Sleep off accumulated virtual time beyond the granularity, or
        // fully when the queue is idle (so a lone synchronous caller sees
        // its full modeled latency).
        let ahead = deadline.saturating_duration_since(Instant::now());
        let idle = shared.queue.is_empty();
        if ahead > Duration::ZERO && (idle || ahead >= shared.profile.sleep_granularity) {
            std::thread::sleep(ahead);
        }

        match req.op {
            IoOp::Read => shared.stats.add_read(req.len as u64),
            IoOp::Write => shared.stats.add_write(req.len as u64),
        }
        let _ = req.reply.send(Completion {
            user_data: req.user_data,
            result,
            latency: deadline.saturating_duration_since(req.submitted),
            queue_ns,
            service_ns,
        });
    }
}

/// Snapshot the durable state of every sector overlapping `[lo, hi)` into
/// the write cache's undo log (no-op for sectors already dirty). Callers
/// hold the image write lock; integrity then wcache are taken here in the
/// conventional order.
fn capture_dirty(shared: &Shared, image: &DiskImage, lo: usize, hi: usize) {
    let sec = SECTOR_SIZE as usize;
    let st = shared.integrity.lock();
    let mut wc = shared.wcache.lock();
    for s in lo / sec..=(hi - 1) / sec {
        let slo = s * sec;
        wc.capture(s as u64, || DirtySector {
            durable: image.bytes[slo..slo + sec].to_vec(),
            durable_crc: image.crcs.get(s),
            durable_intent: st.intents.get(&(s as u64)).cloned(),
            durable_quarantined: st.quarantined.contains(&(s as u64)),
        });
    }
}

fn do_copy(shared: &Shared, req: &Request, verdict: &FaultVerdict) -> Result<Vec<u8>, IoError> {
    let (base, file_base, file_len) = {
        let files = shared.files.lock();
        let meta = files
            .get(req.file as usize)
            .ok_or(IoError::NoSuchFile(req.file))?;
        if req.offset + req.len as u64 > meta.len {
            return Err(IoError::OutOfRange {
                file: req.file,
                offset: req.offset,
                len: req.len as u64,
                file_len: meta.len,
            });
        }
        (meta.base + req.offset, meta.base, meta.len)
    };
    let base = base as usize;
    let len = req.len;
    match req.op {
        IoOp::Read => {
            let mut buf = vec![0u8; len];
            let image = shared.image.read();
            buf.copy_from_slice(&image.bytes[base..base + len]);
            match verdict.corrupt {
                Some(SilentCorruption::BitFlip { bit }) => {
                    let byte = (bit / 8) as usize;
                    if byte < len {
                        buf[byte] ^= 1 << (bit % 8);
                        catalog::STORAGE_INTEGRITY_INJECTED.inc();
                        catalog::STORAGE_INTEGRITY_BIT_FLIPS.inc();
                    }
                }
                Some(SilentCorruption::MisdirectedRead { shift }) => {
                    // Serve from `shift` sectors away, clamped inside the
                    // file's extent. If the clamp lands back on the true
                    // bytes the misdirect is a no-op and not counted.
                    let lo = file_base as i64;
                    let hi = ((file_base + file_len) as i64 - len as i64).max(lo);
                    let src = (base as i64 + shift * SECTOR_SIZE as i64).clamp(lo, hi) as usize;
                    if src != base && image.bytes[src..src + len] != buf[..] {
                        buf.copy_from_slice(&image.bytes[src..src + len]);
                        catalog::STORAGE_INTEGRITY_INJECTED.inc();
                        catalog::STORAGE_INTEGRITY_MISDIRECTS.inc();
                    }
                }
                _ => {}
            }
            Ok(buf)
        }
        IoOp::Write => {
            let mut image = shared.image.write();
            // Before the write mutates anything, snapshot the durable
            // state of every sector it touches into the volatile write
            // cache's undo log (first-dirty wins, so the snapshot is the
            // state as of the last flush). A later power cut rolls back
            // to these snapshots; a flush discards them.
            capture_dirty(shared, &image, base, base + len);
            if let Some(SilentCorruption::TornWrite { keep }) = verdict.corrupt {
                let keep = keep as usize;
                // A tear only matters if the dropped suffix would have
                // changed the image.
                if keep < len && image.bytes[base + keep..base + len] != req.buf[keep..] {
                    return do_torn_write(shared, &mut image, base, &req.buf, keep);
                }
            }
            image.bytes[base..base + len].copy_from_slice(&req.buf);
            let img = &mut *image;
            img.crcs.refresh(&img.bytes, base, base + len);
            // A complete rewrite heals fenced sectors.
            let sec = SECTOR_SIZE as usize;
            let mut st = shared.integrity.lock();
            for s in (base / sec) as u64..=((base + len - 1) / sec) as u64 {
                st.quarantined.remove(&s);
                st.intents.remove(&s);
            }
            Ok(Vec::new())
        }
    }
}

/// Apply a torn write: only `keep` bytes of `data` reach the image, while
/// the CRC table records the CRCs of the *intended* sector contents and the
/// intent ledger keeps those contents (the simulated analog of the
/// controller journal the scrubber repairs from). Every later read of a
/// torn sector fails verification until repair or rewrite.
fn do_torn_write(
    shared: &Shared,
    image: &mut DiskImage,
    base: usize,
    data: &[u8],
    keep: usize,
) -> Result<Vec<u8>, IoError> {
    let sec = SECTOR_SIZE as usize;
    let len = data.len();
    image.bytes[base..base + keep].copy_from_slice(&data[..keep]);
    let DiskImage { bytes, crcs } = image;
    let mut st = shared.integrity.lock();
    for s in base / sec..=(base + len - 1) / sec {
        let slo = s * sec;
        // The intended contents of this sector: its current bytes overlaid
        // with the full write (the kept prefix is already applied, so only
        // the dropped suffix can differ).
        let mut intended = bytes[slo..slo + sec].to_vec();
        let olo = slo.max(base);
        let ohi = (slo + sec).min(base + len);
        intended[olo - slo..ohi - slo].copy_from_slice(&data[olo - base..ohi - base]);
        crcs.set(s, crc32(&intended));
        if bytes[slo..slo + sec] == intended[..] {
            // Fully inside the kept prefix — this sector persisted intact.
            st.intents.remove(&(s as u64));
        } else {
            st.intents.insert(s as u64, intended);
        }
        // The ledger (or a clean persist) supersedes any earlier fencing.
        st.quarantined.remove(&(s as u64));
    }
    catalog::STORAGE_INTEGRITY_INJECTED.inc();
    catalog::STORAGE_INTEGRITY_TORN_WRITES.inc();
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_returns_imported_data() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let data: Vec<u8> = (0..255).collect();
        ssd.import(f, 100, &data).unwrap();
        let mut out = vec![0u8; 255];
        ssd.read_blocking(f, 100, &mut out, false).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn write_then_read_round_trips() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8192);
        let data = vec![7u8; 1024];
        ssd.write_blocking(f, 512, &data, true).unwrap();
        let mut out = vec![0u8; 1024];
        ssd.read_blocking(f, 512, &mut out, true).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_range_is_rejected_synchronously() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(1024);
        let mut out = vec![0u8; 512];
        let err = ssd.read_blocking(f, 1024, &mut out, false).unwrap_err();
        assert!(matches!(err, IoError::OutOfRange { .. }));
    }

    #[test]
    fn direct_io_requires_sector_alignment() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let mut out = vec![0u8; 100];
        let err = ssd.read_blocking(f, 0, &mut out, true).unwrap_err();
        assert!(matches!(err, IoError::Misaligned { .. }));
        // Same access is fine buffered.
        ssd.read_blocking(f, 0, &mut out, false).unwrap();
    }

    #[test]
    fn sync_read_pays_base_latency() {
        let mut profile = SsdProfile::pm883();
        profile.read_latency = Duration::from_millis(2);
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(65536);
        let mut out = vec![0u8; 512];
        let t0 = Instant::now();
        for i in 0..5 {
            ssd.read_blocking(f, i * 512, &mut out, true).unwrap();
        }
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(9),
            "5 serial reads at 2ms base should take >=9ms, took {elapsed:?}"
        );
    }

    #[test]
    fn bandwidth_bounds_large_transfers() {
        let mut profile = SsdProfile::instant();
        profile.bandwidth = 10 * 1024 * 1024; // 10 MiB/s
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(2 * 1024 * 1024);
        let mut out = vec![0u8; 1024 * 1024];
        let t0 = Instant::now();
        ssd.read_blocking(f, 0, &mut out, false).unwrap();
        let elapsed = t0.elapsed();
        // 1 MiB at 10 MiB/s = 100 ms.
        assert!(
            elapsed >= Duration::from_millis(80),
            "bandwidth cap not enforced: {elapsed:?}"
        );
    }

    #[test]
    fn op_cost_is_channel_time_in_link_bytes() {
        // 340 µs × 130 MiB/s / 16 channels ≈ 2 896.7 B.
        assert_eq!(SsdProfile::pm883_repro().op_cost_bytes(), 2_896);
        assert_eq!(SsdProfile::instant().op_cost_bytes(), 0);
        let one_channel = SsdProfile {
            read_latency: Duration::from_micros(10),
            bandwidth: 100_000_000,
            channels: 1,
            ..SsdProfile::instant()
        };
        assert_eq!(one_channel.op_cost_bytes(), 1_000);
    }

    #[test]
    fn injected_faults_fail_deterministically() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8192);
        ssd.set_fault_plan(FaultPlan::new(0).with_read_fault_every(3));
        let mut out = vec![0u8; 512];
        let mut failures = 0;
        for i in 0..9u64 {
            if ssd.read_blocking(f, (i % 8) * 512, &mut out, true).is_err() {
                failures += 1;
            }
        }
        assert_eq!(failures, 3, "every 3rd read fails");
        ssd.clear_faults();
        assert!(ssd.read_blocking(f, 0, &mut out, true).is_ok());
    }

    #[test]
    fn shutdown_fails_blocking_io_without_panicking() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        ssd.shutdown();
        assert!(ssd.is_closed());
        let mut out = vec![0u8; 512];
        assert_eq!(
            ssd.read_blocking(f, 0, &mut out, true).unwrap_err(),
            IoError::DeviceClosed
        );
        assert_eq!(
            ssd.write_blocking(f, 0, &out, true).unwrap_err(),
            IoError::DeviceClosed
        );
        // Idempotent.
        ssd.shutdown();
    }

    #[test]
    fn fault_plan_probabilistic_reads_fail_and_clear() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(64 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(42).with_read_fault_prob(0.5));
        let mut out = vec![0u8; 512];
        let failures = (0..64u64)
            .filter(|i| ssd.read_blocking(f, (i % 8) * 512, &mut out, true).is_err())
            .count();
        assert!(
            (10..=54).contains(&failures),
            "~50% should fail: {failures}"
        );
        ssd.clear_faults();
        assert!(ssd.read_blocking(f, 0, &mut out, true).is_ok());
    }

    #[test]
    fn latency_spikes_slow_requests_down() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        ssd.set_fault_plan(
            crate::FaultPlan::new(1).with_latency_spikes(1.0, Duration::from_millis(5)),
        );
        let mut out = vec![0u8; 512];
        let t0 = Instant::now();
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(4),
            "spike should add ~5ms, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn bit_flips_are_detected_and_heal_on_reread() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(16 * 512);
        let data: Vec<u8> = (0..16 * 512u32).map(|i| (i % 251) as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        ssd.set_fault_plan(crate::FaultPlan::new(7).with_bit_flips(1.0));
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        let err = ssd.verify(f, 0, &out).unwrap_err();
        assert!(!err.persistent, "in-flight corruption is not media damage");
        assert_ne!(out, data[..512], "the read really was corrupted");
        // A clean re-read heals it: the image and CRC table are intact.
        ssd.clear_faults();
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, data[..512]);
    }

    /// The one gate: `Completion::verified` and `read_verified` turn a
    /// corrupt read into the transient `Corrupt` (counted as detected),
    /// hand clean bytes through, and forward a device fault untouched.
    #[test]
    fn verified_gate_rejects_corrupt_passes_clean_and_forwards_faults() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(16 * 512);
        let data: Vec<u8> = (0..16 * 512u32).map(|i| (i % 251) as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        let complete = || {
            let mut ring = crate::IoRing::new(Arc::clone(&ssd), 4, true);
            ring.prepare_read(f, 512, 512, 0).unwrap();
            ring.submit();
            ring.wait_completion().unwrap().expect("completion")
        };
        let mut out = vec![0u8; 512];
        let blocking = |out: &mut [u8]| ssd.read_verified(f, 512, out, true, IoPriority::Bulk);
        let detected = &catalog::STORAGE_INTEGRITY_DETECTED;

        assert_eq!(complete().verified(&ssd, f, 512).unwrap(), data[512..1024]);
        blocking(&mut out).unwrap();
        assert_eq!(out, data[512..1024]);

        ssd.set_fault_plan(FaultPlan::new(7).with_bit_flips(1.0));
        let before = detected.get();
        let err = complete().verified(&ssd, f, 512).unwrap_err();
        assert_eq!(
            err,
            IoError::Corrupt {
                file: f.id,
                offset: 512
            }
        );
        assert!(err.is_transient());
        assert!(detected.get() > before, "the gate counts what it catches");
        let before = detected.get();
        assert!(matches!(blocking(&mut out), Err(IoError::Corrupt { .. })));
        assert!(detected.get() > before);

        ssd.set_fault_plan(FaultPlan::new(0).with_read_fault_every(1));
        let fault = complete().verified(&ssd, f, 512).unwrap_err();
        assert!(matches!(fault, IoError::DeviceFault { .. }), "{fault}");
        let fault = blocking(&mut out).unwrap_err();
        assert!(matches!(fault, IoError::DeviceFault { .. }), "{fault}");

        ssd.clear_faults();
        blocking(&mut out).unwrap();
        assert_eq!(out, data[512..1024]);
    }

    #[test]
    fn misdirected_reads_are_detected() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(64 * 512);
        // Every sector distinct so a misdirect always changes bytes.
        let data: Vec<u8> = (0..64 * 512u32).map(|i| (i / 512) as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        ssd.set_fault_plan(crate::FaultPlan::new(3).with_misdirected_reads(1.0));
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 16 * 512, &mut out, true).unwrap();
        let err = ssd.verify(f, 16 * 512, &out).unwrap_err();
        assert!(!err.persistent);
        ssd.clear_faults();
        ssd.read_blocking(f, 16 * 512, &mut out, true).unwrap();
        ssd.verify(f, 16 * 512, &out).unwrap();
    }

    #[test]
    fn torn_writes_quarantine_until_scrub_repairs() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(8 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(5).with_torn_writes(1.0));
        let data = vec![0xABu8; 4 * 512];
        ssd.write_blocking(f, 0, &data, true).unwrap();
        ssd.clear_faults();
        // The tear persisted only a prefix; reads of the torn range fail
        // verification *persistently* (the image disagrees with the table).
        let mut out = vec![0u8; 4 * 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        let err = ssd.verify(f, 0, &out).unwrap_err();
        assert!(err.persistent, "a torn write is media corruption");
        assert_ne!(out, data);
        // The scrubber repairs it from the intent ledger…
        let report = ssd.scrub_chunk(0, ssd.sector_count());
        assert!(report.repaired >= 1, "{report:?}");
        assert_eq!(report.unrecoverable, 0, "{report:?}");
        // …after which the read round-trips and verifies.
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, data);
        // A second pass finds nothing left to do.
        let report = ssd.scrub_chunk(0, ssd.sector_count());
        assert_eq!((report.repaired, report.unrecoverable), (0, 0));
    }

    #[test]
    fn rewrite_heals_torn_sectors_without_scrub() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4 * 512);
        ssd.set_fault_plan(crate::FaultPlan::new(9).with_torn_writes(1.0));
        ssd.write_blocking(f, 0, &vec![1u8; 2 * 512], true).unwrap();
        ssd.clear_faults();
        // A clean full rewrite of the same range supersedes the tear.
        let fresh = vec![2u8; 2 * 512];
        ssd.write_blocking(f, 0, &fresh, true).unwrap();
        let mut out = vec![0u8; 2 * 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        assert_eq!(out, fresh);
    }

    #[test]
    fn verify_skips_partial_sectors_and_passes_clean_reads() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(4096);
        let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        ssd.import(f, 0, &data).unwrap();
        let mut out = vec![0u8; 4096];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        ssd.verify(f, 0, &out).unwrap();
        // Sub-sector reads have no fully covered sector; verify is a no-op
        // even if the bytes are wrong (the device never corrupts them).
        let garbage = vec![0xFFu8; 100];
        ssd.verify(f, 10, &garbage).unwrap();
    }

    #[test]
    fn serve_reads_jump_ahead_of_queued_bulk_reads() {
        use gnndrive_sync::{LockRank, OrderedMutex};

        // One channel, 20 ms per read: completion order == service order.
        let mut profile = SsdProfile::instant();
        profile.channels = 1;
        profile.read_latency = Duration::from_millis(20);
        profile.sleep_granularity = Duration::from_micros(100);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(64 * 512);

        let order: Arc<OrderedMutex<Vec<&'static str>>> =
            Arc::new(OrderedMutex::new(LockRank::Buffer, Vec::new()));
        let read = move |ssd: &Arc<SimSsd>, prio: IoPriority| {
            let mut out = vec![0u8; 512];
            ssd.read_blocking_prio(f, 0, &mut out, true, prio)
                .expect("read");
        };

        // Occupy the single channel with a bulk read…
        let mut handles = Vec::new();
        {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Bulk);
                order.lock().push("head");
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
        // …queue three more bulk reads behind it…
        for _ in 0..3 {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Bulk);
                order.lock().push("bulk");
            }));
        }
        std::thread::sleep(Duration::from_millis(5));
        // …then a serve read, submitted LAST but queued in the serve lane.
        {
            let (ssd, order) = (Arc::clone(&ssd), Arc::clone(&order));
            handles.push(std::thread::spawn(move || {
                read(&ssd, IoPriority::Serve);
                order.lock().push("serve");
            }));
        }
        for h in handles {
            h.join().expect("reader thread");
        }

        let order = order.lock().clone();
        assert_eq!(order[0], "head", "the in-service read finishes first");
        assert_eq!(
            order[1], "serve",
            "the serve read must overtake queued bulk reads: {order:?}"
        );
        // And the lane split is visible in the stats counters.
        let snap = ssd.stats().snapshot();
        assert_eq!(snap.serve_ops, 1);
        assert_eq!(snap.bulk_ops, 4);
    }

    #[test]
    fn iowait_is_accounted() {
        let mut profile = SsdProfile::pm883();
        profile.read_latency = Duration::from_millis(1);
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(4096);
        let mut out = vec![0u8; 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        assert!(ssd.stats().snapshot().io_wait_nanos >= 500_000);
    }
}
