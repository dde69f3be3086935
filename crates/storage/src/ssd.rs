//! The simulated solid-state drive.
//!
//! This is the substitute for the paper testbed's SATA SSD (see DESIGN.md
//! §1). The device holds a real in-heap disk image, and timing follows a
//! service model:
//!
//! * every request pays a per-operation **base latency** (flash read/program
//!   time + controller overhead),
//! * all requests share an aggregate **bandwidth** budget enforced by a
//!   global reservation cursor (the SATA link),
//! * at most `queue_depth` requests may be queued per lane (NCQ), and
//!   at most `channels` are in service concurrently (internal parallelism).
//!
//! The device is a discrete-event model with no thread of its own: as in
//! io_uring, whoever reaps does the work. A submit queues the request with
//! its submit instant and wakes nobody. A thread that reaps or waits calls
//! `SimSsd::advance`, which hands pending requests to channels in
//! modeled-time order (each channel keeps the instant it is next free),
//! then, outside the device lock, copies the bytes and posts each
//! completion with its deadline. A completion is taken once its deadline
//! has passed, or is within `sleep_granularity` of now while requests are
//! pending; until then its reaper parks. Modeled times therefore do not
//! depend on when a thread is scheduled. Data movement is real: reads copy
//! bytes out of the image.

use crate::error::IoError;
use crate::fault::{FaultInjector, FaultPlan, FaultVerdict, SilentCorruption};
use crate::integrity::{crc32, IntegrityError, SectorChecksums};
use crate::stats::IoStats;
use crate::wcache::{DirtySector, PowerCutReport, WriteCache};
use gnndrive_sync::queue::{unbounded, Receiver, Sender};
use gnndrive_sync::rng::mix_unit;
use gnndrive_sync::{LockRank, OrderedMutex, OrderedRwLock};
use gnndrive_telemetry as telemetry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{catalog, WaitKind};

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
    /// While requests are pending, a completion is reaped once its
    /// deadline is at most this far ahead of wall time (an idle device's
    /// lone request pays its full latency).
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
/// The device keeps one pending queue per lane, and a channel that frees
/// takes a [`IoPriority::Serve`] request submitted by then ahead of every
/// queued bulk one, so latency-critical online-inference reads jump ahead
/// of bulk training reads that are already queued (but never preempt a
/// request in service). Everything that predates the serving tier submits
/// [`IoPriority::Bulk`].
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
    /// The modeled completion deadline: the completion is not reaped
    /// before it is within the device's sleep granularity of now.
    pub(crate) ready_at: Instant,
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
    /// the thread that serves it allocates: one allocation per read.
    pub buf: Vec<u8>,
    /// Transfer size in bytes.
    pub len: usize,
    pub user_data: u64,
    pub reply: Sender<Completion>,
    /// When the device accepted the request. `try_submit_many` stamps it,
    /// so time spent in a ring's software queue is not device queueing.
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

/// The device's scheduling state: everything a hand-off decides, under one
/// lock.
struct Device {
    /// Accepted requests no channel has taken yet, `[serve, bulk]`, each in
    /// submission order and at most `queue_depth` long.
    pending: [VecDeque<Request>; 2],
    /// Per channel, the instant it is next free: the deadline of the last
    /// request it took.
    free_at: Vec<Instant>,
    /// The instant the link is next free. A transfer of `b` bytes starting
    /// at `start` moves it to `max(cursor, start) + b / bandwidth`.
    bw_cursor: Instant,
    /// Active fault-injection schedule, consulted per request as a channel
    /// takes it.
    fault: Option<FaultInjector>,
}

/// A request a channel has taken: its fault verdict, start and deadline.
type Served = (Request, FaultVerdict, Instant, Instant);

/// Index of `prio`'s lane in [`Device::pending`].
fn lane(prio: IoPriority) -> usize {
    usize::from(prio == IoPriority::Bulk)
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The next hand-off in modeled time. The channel that frees first, at
/// `f`, takes at `t = max(f, oldest pending submit)` the oldest serve
/// request submitted by `t`, or else the oldest bulk one, and starts it at
/// `t`. Lane `l`'s first `skip[l]` requests count as taken. Returns
/// `(channel, lane, t)`; `None` when both lanes are empty.
fn pick(
    free_at: &[Instant],
    pending: &[VecDeque<Request>; 2],
    skip: [usize; 2],
) -> Option<(usize, usize, Instant)> {
    let fronts = [pending[0].get(skip[0]), pending[1].get(skip[1])];
    let oldest = fronts.iter().flatten().map(|r| r.submitted).min()?;
    let (channel, f) = free_at
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(_, f)| f)?;
    let t = f.max(oldest);
    let lane = usize::from(fronts[0].is_none_or(|r| r.submitted > t));
    Some((channel, lane, t))
}

/// The deadline of `req` started at `start`: its base latency or its
/// reservation on the link (which moves `link`), whichever ends later, plus
/// `extra` injected latency.
fn deadline(
    profile: &SsdProfile,
    req: &Request,
    start: Instant,
    link: &mut Instant,
    extra: Duration,
) -> Instant {
    let base = match req.op {
        IoOp::Read => profile.read_latency,
        IoOp::Write => profile.write_latency,
    };
    let transfer = req.len as u128 * 1_000_000_000 / profile.bandwidth as u128;
    *link = (*link).max(start) + Duration::from_nanos(transfer as u64);
    (start + base).max(*link) + extra
}

impl Device {
    /// Hand channels every pending request that starts by `now`, in
    /// modeled-time order.
    fn serve_until(&mut self, profile: &SsdProfile, now: Instant, served: &mut Vec<Served>) {
        while let Some((channel, lane, start)) = pick(&self.free_at, &self.pending, [0, 0]) {
            if start > now {
                return;
            }
            let Some(req) = self.pending[lane].pop_front() else {
                return;
            };
            // Fault injection happens at service time: the verdict may
            // inflate the request's latency (spikes, stalls) and/or doom
            // its outcome.
            let verdict = self
                .fault
                .as_ref()
                .map(|inj| inj.assess(req.file, req.offset, req.len, req.op))
                .unwrap_or_default();
            let deadline = deadline(
                profile,
                &req,
                start,
                &mut self.bw_cursor,
                verdict.extra_latency,
            );
            self.free_at[channel] = deadline;
            served.push((req, verdict, start, deadline));
        }
    }

    /// When the first pending request that `mine` accepts would start, were
    /// nothing more submitted and no latency injected. A lower bound: a
    /// later serve request or an injected delay only pushes it back.
    fn projected_start(
        &self,
        profile: &SsdProfile,
        mine: impl Fn(&Request) -> bool,
    ) -> Option<Instant> {
        if self.pending.iter().all(VecDeque::is_empty) {
            return None;
        }
        let mut free_at = self.free_at.clone();
        let mut link = self.bw_cursor;
        let mut taken = [0; 2];
        loop {
            let (channel, lane, start) = pick(&free_at, &self.pending, taken)?;
            let req = &self.pending[lane][taken[lane]];
            if mine(req) {
                return Some(start);
            }
            free_at[channel] = deadline(profile, req, start, &mut link, Duration::ZERO);
            taken[lane] += 1;
        }
    }
}

/// One submitter's completions: the reply channel its requests carry, and
/// what has been taken off it, due or not.
pub(crate) struct Replies {
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    got: VecDeque<Completion>,
    /// Requests submitted with `tx` and not yet reaped, `got` included.
    pub(crate) outstanding: usize,
}

impl Default for Replies {
    fn default() -> Self {
        let (tx, rx) = unbounded();
        Replies {
            tx,
            rx,
            got: VecDeque::new(),
            outstanding: 0,
        }
    }
}

impl Replies {
    /// The channel a request must reply on to be reaped here.
    pub(crate) fn sender(&self) -> Sender<Completion> {
        self.tx.clone()
    }

    /// Where in `got` a completion due at `now` is: one whose deadline has
    /// passed or, while the device has requests pending, is within its
    /// sleep granularity of now (a lone request pays its full latency).
    fn due(&self, ssd: &SimSsd, now: Instant) -> Option<usize> {
        let due_by = now + ssd.slack();
        self.got.iter().position(|c| c.ready_at <= due_by)
    }

    /// A completion due at `now`, or else when one of ours can next be
    /// due: our earliest deadline, or when our first pending request would
    /// start. The device is advanced only while nothing of ours is due and
    /// some is unanswered, so a reaper with completions in hand takes no
    /// device lock.
    fn poll(&mut self, ssd: &SimSsd, now: Instant) -> Result<Completion, Option<Instant>> {
        let mut next = None;
        if self.due(ssd, now).is_none() && self.got.len() < self.outstanding {
            self.rx.drain_into(&mut self.got);
            if self.due(ssd, now).is_none() && self.got.len() < self.outstanding {
                next = ssd.advance(now, Some(&self.tx));
                self.rx.drain_into(&mut self.got);
            }
        }
        match self.due(ssd, now).and_then(|i| self.got.remove(i)) {
            Some(c) => {
                self.outstanding -= 1;
                Ok(c)
            }
            None => Err(self.got.iter().map(|c| c.ready_at).chain(next).min()),
        }
    }

    /// Reap a due completion without blocking.
    pub(crate) fn try_reap(&mut self, ssd: &SimSsd) -> Option<Completion> {
        (self.outstanding > 0).then(|| self.poll(ssd, Instant::now()).ok())?
    }

    /// Reap a completion, parking on the reply channel until one is due or
    /// another thread posts one. `None` once nothing is outstanding, or at
    /// `deadline`. Parked time is I/O wait, attributed to `wait` if given.
    pub(crate) fn reap(
        &mut self,
        ssd: &SimSsd,
        deadline: Option<Instant>,
        wait: Option<WaitKind>,
    ) -> Option<Completion> {
        let mut parked = None;
        while self.outstanding > 0 {
            let now = Instant::now();
            let wake = match self.poll(ssd, now) {
                Ok(c) => return Some(c),
                Err(wake) => wake,
            };
            if deadline.is_some_and(|d| now >= d) {
                return None;
            }
            parked.get_or_insert_with(|| {
                (
                    telemetry::state(telemetry::State::IoWait),
                    wait.map(telemetry::wait_timer),
                )
            });
            let parked_at = Instant::now();
            let posted = match wake.into_iter().chain(deadline).min() {
                Some(at) => self
                    .rx
                    .recv_timeout(at.saturating_duration_since(parked_at))
                    .ok(),
                None => self.rx.recv().ok(),
            };
            self.got.extend(posted);
            ssd.stats.add_io_wait(nanos(parked_at.elapsed()));
        }
        None
    }
}

/// The simulated SSD. See module docs for the timing model.
pub struct SimSsd {
    profile: SsdProfile,
    /// The pending lanes, channel clocks, link cursor and fault schedule.
    device: OrderedMutex<Device>,
    image: OrderedRwLock<DiskImage>,
    files: OrderedMutex<Vec<FileMeta>>,
    /// Intent ledger + quarantine set; always acquired *after* `image`
    /// (same rank — equal-rank nesting is allowed, order is conventional).
    integrity: OrderedMutex<IntegrityState>,
    /// Volatile write-back cache undo log; always acquired *after*
    /// `integrity` (same conventional ordering).
    wcache: OrderedMutex<WriteCache>,
    stats: IoStats,
    /// Set once [`SimSsd::shutdown`] begins; submissions are answered
    /// [`IoError::DeviceClosed`] from then on.
    closed: AtomicBool,
    /// Whether requests are pending; written under the device lock.
    busy: AtomicBool,
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
        let now = Instant::now();
        Arc::new(SimSsd {
            device: OrderedMutex::new(
                LockRank::Storage,
                Device {
                    pending: Default::default(),
                    free_at: vec![now; profile.channels.max(1)],
                    bw_cursor: now,
                    fault: None,
                },
            ),
            profile,
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
            closed: AtomicBool::new(false),
            busy: AtomicBool::new(false),
        })
    }

    pub fn profile(&self) -> &SsdProfile {
        &self.profile
    }

    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Install a fault-injection schedule; replaces any active plan and
    /// resets its operation counters.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let fault = plan.is_active().then(|| FaultInjector::new(plan));
        self.device.lock().fault = fault;
    }

    /// Remove any active fault plan (the device becomes healthy again).
    pub fn clear_faults(&self) {
        self.device.lock().fault = None;
    }

    /// Whether the device has been shut down (or is shutting down).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Shut the device down: pending requests complete with
    /// [`IoError::DeviceClosed`], and so do all later submissions. A
    /// request a channel already took keeps its completion. Idempotent;
    /// `Drop` calls it too.
    pub fn shutdown(&self) {
        // Stored before the lock, so a submit that takes the lock after
        // this drain sees the flag.
        self.closed.store(true, Ordering::Release);
        let pending = {
            let mut dev = self.device.lock();
            self.busy.store(false, Ordering::Release);
            std::mem::take(&mut dev.pending)
        };
        pending.into_iter().flatten().for_each(Self::refuse);
    }

    /// How far ahead of now a completion may be reaped: the sleep
    /// granularity while requests are pending, so a busy reaper does not
    /// park for less than that, and nothing when the device is idle, so a
    /// lone request pays its full latency.
    fn slack(&self) -> Duration {
        if self.busy.load(Ordering::Acquire) {
            self.profile.sleep_granularity
        } else {
            Duration::ZERO
        }
    }

    /// Serve, in modeled-time order, every pending request a channel can
    /// start by `now`: pick each one's channel and deadline under the
    /// device lock, then, outside it, copy its bytes, count it and post its
    /// completion. Returns when the first pending request replying on
    /// `mine` (anyone's, with `None`) would start, if one is left.
    pub(crate) fn advance(
        &self,
        now: Instant,
        mine: Option<&Sender<Completion>>,
    ) -> Option<Instant> {
        let mut served = Vec::new();
        let next = {
            let mut dev = self.device.lock();
            dev.serve_until(&self.profile, now, &mut served);
            let busy = dev.pending.iter().any(|lane| !lane.is_empty());
            self.busy.store(busy, Ordering::Release);
            dev.projected_start(&self.profile, |r| {
                mine.is_none_or(|m| m.same_channel(&r.reply))
            })
        };
        for s in served {
            self.finish(s);
        }
        next
    }

    /// Serve a request a channel took: move its bytes (unless the injector
    /// doomed it; media errors still pay their modeled latency), count it
    /// and post its completion, due at its deadline.
    fn finish(&self, (req, verdict, start, deadline): Served) {
        // Service = what the device model charges this request; queueing =
        // how long it sat pending before a channel took it, in modeled
        // time. Completion.latency below is their sum.
        let queue_ns = nanos(start.saturating_duration_since(req.submitted));
        let service_ns = nanos(deadline.saturating_duration_since(start));
        self.stats.record_op(service_ns, queue_ns);
        self.stats.record_lane(req.prio, queue_ns);
        let result = match verdict.fail {
            Some(e) => Err(e),
            None => do_copy(self, &req, &verdict),
        };
        match req.op {
            IoOp::Read => self.stats.add_read(req.len as u64),
            IoOp::Write => self.stats.add_write(req.len as u64),
        }
        let _ = req.reply.send(Completion {
            user_data: req.user_data,
            result,
            latency: deadline.saturating_duration_since(req.submitted),
            queue_ns,
            service_ns,
            ready_at: deadline,
        });
    }

    /// Allocate a zero-filled file of `len` bytes on the device. The base
    /// and the allocation are both rounded up to [`SECTOR_SIZE`], so
    /// file-relative sector offsets map to whole image sectors and every
    /// CRC table entry covers a full sector.
    pub fn create_file(&self, len: u64) -> FileHandle {
        let mut files = self.files.lock();
        let mut image = self.image.write();
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
        let mut image = self.image.write();
        let end = base + data.len();
        image.bytes[base..end].copy_from_slice(data);
        let img = &mut *image;
        img.crcs.refresh(&img.bytes, base, end);
        // An import is a complete legitimate write: it heals fenced sectors.
        let sec = SECTOR_SIZE as usize;
        let lo = (base / sec) as u64;
        let hi = ((end - 1) / sec) as u64 + 1;
        let mut st = self.integrity.lock();
        for s in lo..hi {
            st.quarantined.remove(&s);
            st.intents.remove(&s);
        }
        // Imports bypass the write cache entirely (dataset installation is
        // durable by definition), superseding any unflushed state.
        self.wcache.lock().write_through(lo, hi);
        Ok(())
    }

    /// Instantly read without the timing model (verification/debug only).
    pub fn peek(&self, file: FileHandle, offset: u64, out: &mut [u8]) -> Result<(), IoError> {
        let base = self.locate(file.id, offset, out.len() as u64)?;
        let image = self.image.read();
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
        let image = self.image.read();
        let mut st = self.integrity.lock();
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
    /// with no ledger entry are unrecoverable and stay fenced. Each pass
    /// counts in `storage.scrub.*`; a caller walks the image by starting the
    /// next pass at [`ScrubChunk::next_sector`].
    pub fn scrub_chunk(&self, start_sector: u64, max_sectors: u64) -> ScrubChunk {
        // Crash-schedule coverage for ledger repair: a cut here models the
        // process dying mid scrub pass. Repair is idempotent and media
        // state is only ever improved sector-at-a-time under the image
        // lock, so aborting the pass wholesale is always safe.
        if telemetry::crash::point("scrub.repair").is_err() {
            return ScrubChunk::default();
        }
        let mut image = self.image.write();
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
        catalog::STORAGE_SCRUB_SCANNED.add(report.scanned);
        if report.next_sector == 0 && total > 0 {
            catalog::STORAGE_SCRUB_PASSES.inc();
        }
        let sec = SECTOR_SIZE as usize;
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.integrity.lock();
        let mut wc = self.wcache.lock();
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
        catalog::STORAGE_SCRUB_REPAIRED.add(report.repaired);
        catalog::STORAGE_SCRUB_UNRECOVERABLE.add(report.unrecoverable);
        report
    }

    /// Number of sectors the image currently spans (scrubber pacing).
    pub fn sector_count(&self) -> u64 {
        self.image.read().crcs.sectors() as u64
    }

    /// Flush barrier over one file: every unflushed sector in `file`'s
    /// extent becomes durable (a power cut can no longer disturb it).
    /// Returns how many sectors drained. Flush timing is not modeled —
    /// the barrier is about *ordering*, which is what crash consistency
    /// depends on, not about latency.
    pub fn flush(&self, file: FileHandle) -> u64 {
        let (lo, hi) = {
            let files = self.files.lock();
            let Some(meta) = files.get(file.id as usize) else {
                return 0;
            };
            let lo = meta.base / SECTOR_SIZE;
            let hi = (meta.base + meta.len.next_multiple_of(SECTOR_SIZE)) / SECTOR_SIZE;
            (lo, hi)
        };
        self.wcache.lock().flush_range(lo, hi)
    }

    /// Unflushed sectors currently at risk from a power cut.
    pub fn dirty_sector_count(&self) -> u64 {
        self.wcache.lock().dirty_len()
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
        let mut image = self.image.write();
        let DiskImage { bytes, crcs } = &mut *image;
        let mut st = self.integrity.lock();
        let mut wc = self.wcache.lock();
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
        let files = self.files.lock();
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
            ready_at: Instant::now(),
        });
    }

    /// Submit the front of `reqs`, in order, on lane `prio` until the lane
    /// is full, under one lock, stamping each with the submit instant; the
    /// refused tail stays in `reqs`. Wakes nobody. A shut-down device
    /// consumes every request and completes each with `DeviceClosed`.
    /// Returns how many left `reqs`.
    pub(crate) fn try_submit_many(&self, prio: IoPriority, reqs: &mut VecDeque<Request>) -> usize {
        let mut dev = self.device.lock();
        if self.is_closed() {
            drop(dev);
            let refused = reqs.len();
            reqs.drain(..).for_each(Self::refuse);
            return refused;
        }
        let queued = &mut dev.pending[lane(prio)];
        let moved = self
            .profile
            .queue_depth
            .saturating_sub(queued.len())
            .min(reqs.len());
        let now = Instant::now();
        queued.extend(reqs.drain(..moved).map(|req| Request {
            submitted: now,
            ..req
        }));
        if moved > 0 {
            self.busy.store(true, Ordering::Release);
        }
        drop(dev);
        if !reqs.is_empty() {
            self.stats.add_queue_full_stall();
        }
        moved
    }

    /// One round of waiting for room on a full lane, the way a reaper
    /// waits: sleep (in I/O-wait) until `wake`, the next hand-off an
    /// earlier round reported, capped at `deadline`; then advance. Returns
    /// the next hand-off.
    pub(crate) fn wait_for_room(
        &self,
        wake: Option<Instant>,
        deadline: Option<Instant>,
    ) -> Option<Instant> {
        if let Some(at) = wake.map(|w| deadline.map_or(w, |d| w.min(d))) {
            let _io = telemetry::state(telemetry::State::IoWait);
            let ahead = at.saturating_duration_since(Instant::now());
            std::thread::sleep(ahead);
            self.stats.add_io_wait(nanos(ahead));
        }
        self.advance(Instant::now(), None)
    }

    /// Submit one read of `file` per `(offset, len)` run on lane `prio`, all
    /// before waiting for any, waiting for room whenever the lane is full.
    /// Every run yields exactly one [`Completion`] through the returned
    /// [`Replies`], tagged with its index: a shut-down device answers
    /// [`IoError::DeviceClosed`], an out-of-range run its range error.
    pub(crate) fn submit_reads(
        &self,
        file: FileHandle,
        runs: &[(u64, usize)],
        prio: IoPriority,
    ) -> Replies {
        let ops = runs
            .iter()
            .map(|&(offset, len)| (offset, IoOp::Read, Vec::new(), len));
        self.submit_ops(file, prio, ops)
    }

    /// [`SimSsd::submit_reads`] for `(offset, op, buf, len)` requests.
    fn submit_ops(
        &self,
        file: FileHandle,
        prio: IoPriority,
        ops: impl Iterator<Item = (u64, IoOp, Vec<u8>, usize)>,
    ) -> Replies {
        let mut replies = Replies::default();
        let mut reqs: VecDeque<Request> = (0..)
            .zip(ops)
            .map(|(user_data, (offset, op, buf, len))| Request {
                file: file.id,
                offset,
                op,
                buf,
                len,
                user_data,
                reply: replies.sender(),
                submitted: Instant::now(),
                prio,
            })
            .collect();
        let mut wake = None;
        loop {
            replies.outstanding += self.try_submit_many(prio, &mut reqs);
            if reqs.is_empty() {
                return replies;
            }
            wake = self.wait_for_room(wake, None);
        }
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
        let mut replies = self.submit_reads(file, &[(offset, out.len())], prio);
        let completion = replies
            .reap(self, None, None)
            .ok_or(IoError::DeviceClosed)?;
        out.copy_from_slice(&completion.result?);
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
        let op = (offset, IoOp::Write, data.to_vec(), data.len());
        let completion = self
            .submit_ops(file, IoPriority::Bulk, std::iter::once(op))
            .reap(self, None, None)
            .ok_or(IoError::DeviceClosed)?;
        completion.result.map(|_| ())
    }
}

impl Drop for SimSsd {
    fn drop(&mut self) {
        // Answer whatever is still pending.
        self.shutdown();
    }
}

/// Snapshot the durable state of every sector overlapping `[lo, hi)` into
/// the write cache's undo log (no-op for sectors already dirty). Callers
/// hold the image write lock; integrity then wcache are taken here in the
/// conventional order.
fn capture_dirty(ssd: &SimSsd, image: &DiskImage, lo: usize, hi: usize) {
    let sec = SECTOR_SIZE as usize;
    let st = ssd.integrity.lock();
    let mut wc = ssd.wcache.lock();
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

fn do_copy(ssd: &SimSsd, req: &Request, verdict: &FaultVerdict) -> Result<Vec<u8>, IoError> {
    let (base, file_base, file_len) = {
        let files = ssd.files.lock();
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
            let image = ssd.image.read();
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
            let mut image = ssd.image.write();
            // Before the write mutates anything, snapshot the durable
            // state of every sector it touches into the volatile write
            // cache's undo log (first-dirty wins, so the snapshot is the
            // state as of the last flush). A later power cut rolls back
            // to these snapshots; a flush discards them.
            capture_dirty(ssd, &image, base, base + len);
            if let Some(SilentCorruption::TornWrite { keep }) = verdict.corrupt {
                let keep = keep as usize;
                // A tear only matters if the dropped suffix would have
                // changed the image.
                if keep < len && image.bytes[base + keep..base + len] != req.buf[keep..] {
                    return do_torn_write(ssd, &mut image, base, &req.buf, keep);
                }
            }
            image.bytes[base..base + len].copy_from_slice(&req.buf);
            let img = &mut *image;
            img.crcs.refresh(&img.bytes, base, base + len);
            // A complete rewrite heals fenced sectors.
            let sec = SECTOR_SIZE as usize;
            let mut st = ssd.integrity.lock();
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
    ssd: &SimSsd,
    image: &mut DiskImage,
    base: usize,
    data: &[u8],
    keep: usize,
) -> Result<Vec<u8>, IoError> {
    let sec = SECTOR_SIZE as usize;
    let len = data.len();
    image.bytes[base..base + keep].copy_from_slice(&data[..keep]);
    let DiskImage { bytes, crcs } = image;
    let mut st = ssd.integrity.lock();
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

    /// A one-file device on `profile`, with reads of `offsets` replying
    /// into a fresh [`Replies`], built but not submitted.
    fn reads_on(profile: SsdProfile, offsets: &[u64]) -> (Arc<SimSsd>, Replies, VecDeque<Request>) {
        let ssd = SimSsd::new(profile);
        let f = ssd.create_file(64 * 512);
        let replies = Replies::default();
        let reqs = offsets
            .iter()
            .map(|&offset| Request {
                file: f.id,
                offset,
                op: IoOp::Read,
                buf: Vec::new(),
                len: 512,
                user_data: offset / 512,
                reply: replies.sender(),
                submitted: Instant::now(),
                prio: IoPriority::Bulk,
            })
            .collect();
        (ssd, replies, reqs)
    }

    /// Everything posted to `replies` so far, in posting order.
    fn posted(replies: &Replies) -> Vec<Completion> {
        let mut got = VecDeque::new();
        replies.rx.drain_into(&mut got);
        got.into()
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Each channel's deadlines rise strictly and are the running sum of
    /// the services it charged: on two channels, reads of 5 ms and writes
    /// of 7 ms submitted together start at 0, 0, 5 and 7 ms, and the
    /// channel that served 5 then 7 answers 5 and 12.
    #[test]
    fn channel_clocks_sum_their_services() {
        let profile = SsdProfile {
            channels: 2,
            read_latency: ms(5),
            write_latency: ms(7),
            ..SsdProfile::instant()
        };
        let (ssd, replies, mut reqs) = reads_on(profile, &[0, 512, 1024, 1536]);
        for i in [1, 2] {
            reqs[i].op = IoOp::Write;
            reqs[i].buf = vec![0; 512];
        }
        assert_eq!(ssd.try_submit_many(IoPriority::Bulk, &mut reqs), 4);
        let submitted = ssd.device.lock().pending[1][0].submitted;
        assert_eq!(ssd.advance(submitted + ms(1000), None), None);
        let got = posted(&replies);
        let at = |c: &Completion| c.ready_at.duration_since(submitted);
        let start = |c: &Completion| at(c) - Duration::from_nanos(c.service_ns);
        let ids: Vec<u64> = got.iter().map(|c| c.user_data).collect();
        assert_eq!(ids, [0, 1, 2, 3], "served in submission order");
        let starts: Vec<Duration> = got.iter().map(start).collect();
        let deadlines: Vec<Duration> = got.iter().map(at).collect();
        assert_eq!(starts, [ms(0), ms(0), ms(5), ms(7)]);
        assert_eq!(deadlines, [ms(5), ms(7), ms(12), ms(12)]);
        let free_at = ssd.device.lock().free_at.clone();
        assert_eq!(free_at, [submitted + ms(12); 2]);
    }

    /// On one channel at 2 ms, three reads submitted together wait exactly
    /// 0, 2 and 4 ms of modeled time, however late the device is advanced.
    #[test]
    fn modeled_queueing_is_exact() {
        let profile = SsdProfile {
            channels: 1,
            read_latency: ms(2),
            ..SsdProfile::instant()
        };
        let (ssd, replies, mut reqs) = reads_on(profile, &[0, 512, 1024]);
        ssd.try_submit_many(IoPriority::Bulk, &mut reqs);
        assert_eq!(ssd.advance(Instant::now() + ms(1000), None), None);
        let queued: Vec<u64> = posted(&replies).iter().map(|c| c.queue_ns).collect();
        assert_eq!(queued, [0, 2_000_000, 4_000_000]);
    }

    /// A bulk read, then three more, then a serve read, all pending on one
    /// busy channel: one advance long after all of them still serves the
    /// serve read second, as a channel freeing in modeled time would have.
    #[test]
    fn a_late_advance_keeps_modeled_order() {
        let profile = SsdProfile {
            channels: 1,
            read_latency: ms(20),
            ..SsdProfile::instant()
        };
        let (ssd, replies, reqs) = reads_on(profile, &[0, 512, 1024, 1536, 2048]);
        let t0 = Instant::now();
        {
            let mut dev = ssd.device.lock();
            for (i, mut req) in reqs.into_iter().enumerate() {
                // The head at t0, three bulk reads at 1 ms, the serve read at 2 ms.
                req.submitted = t0 + ms(i.min(1) as u64 + u64::from(i == 4));
                if i == 4 {
                    req.prio = IoPriority::Serve;
                }
                dev.pending[lane(req.prio)].push_back(req);
            }
        }
        assert_eq!(ssd.advance(t0 + ms(1000), None), None);
        let ids: Vec<u64> = posted(&replies).iter().map(|c| c.user_data).collect();
        assert_eq!(
            ids,
            [0, 4, 1, 2, 3],
            "the serve read overtakes the queued bulk reads"
        );
        let snap = ssd.stats().snapshot();
        assert_eq!((snap.serve_ops, snap.bulk_ops), (1, 4));
    }

    /// Shutdown with one read in service, three pending and two not yet
    /// submitted: each of the six is answered exactly once — the one in
    /// service with its data, the rest with `DeviceClosed`.
    #[test]
    fn shutdown_mid_batch_answers_each_request_once() {
        let profile = SsdProfile {
            channels: 1,
            queue_depth: 4,
            read_latency: ms(20),
            ..SsdProfile::instant()
        };
        let (ssd, replies, mut reqs) = reads_on(profile, &[0, 512, 1024, 1536, 2048, 2560]);
        assert_eq!(ssd.try_submit_many(IoPriority::Bulk, &mut reqs), 4);
        let submitted = ssd.device.lock().pending[1][0].submitted;
        assert_eq!(ssd.advance(submitted, None), Some(submitted + ms(20)));
        ssd.shutdown();
        assert_eq!(ssd.try_submit_many(IoPriority::Bulk, &mut reqs), 2);
        assert_eq!(ssd.advance(submitted + ms(1000), None), None);
        let mut answers = [0; 6];
        for c in posted(&replies) {
            match c.result {
                Ok(_) => assert_eq!(c.user_data, 0, "only the read in service is served"),
                Err(e) => assert_eq!(e, IoError::DeviceClosed),
            }
            answers[c.user_data as usize] += 1;
        }
        assert_eq!(answers, [1; 6], "every request is answered exactly once");
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
