//! Asynchronous two-phase feature extraction (paper §4.2, Algorithm 1).
//!
//! One extractor handles one mini-batch end to end:
//!
//! 1. **Plan** — pin every input node in the
//!    [`FeatureBufferManager`]: reuse what is
//!    resident, wait-list what another extractor is loading, and take
//!    standby slots, coldest first, for the rest.
//! 2. **Phase one (SSD → staging)** — issue asynchronous direct-I/O reads
//!    through an io_uring-style [`IoRing`], one request per read group —
//!    rows whose windows touch (*joint extraction*, §4.4) or whose gap is
//!    cheaper to read through than to pay another device op for —
//!    bounded by the staging buffer's byte credits.
//! 3. **Phase two (staging → device)** — the moment a read window
//!    completes and verifies, book its host→device copy on the device's
//!    [`TransferEngine`] link and write its rows; never wait for the rest
//!    of the mini-batch. A copy carries the window's loaded rows plus its
//!    *harvested* ones — bridged rows a queued batch announced, which
//!    [`FeatureBufferManager::harvest`] takes when that costs no nearer
//!    use — and decodes each straight from the window bytes into its slot.
//!    Publish the rows' valid bits once the link says the copy has landed.
//! 4. **Wait** — for nodes on the wait list, confirm the other extractor
//!    published them, then resolve their aliases.
//!
//! The whole procedure runs on a single thread with no blocking I/O on the
//! critical path — the paper's answer to I/O congestion (𝔒2).
//!
//! It is written once. *Serial* extraction — the `sync_extract` ablation
//! (what PyG+ and Ginex do) and the load a Degraded or probed device gets
//! (DESIGN.md §9) — is a setting of the same loop: after each submit it
//! waits until nothing is outstanding, so one read is in flight, and a
//! landed window pays its host→device copy inline instead of booking it on
//! the link. Every check is shared: completions become bytes only through
//! [`gnndrive_storage::Completion::verified`], failed ones are re-read
//! under the [`RetryPolicy`], and the batch's one rollback is in
//! `extract_batch_inner` — after every copy the batch booked has landed
//! and published, so no copy can land in a slot the rollback handed back.

use crate::feature_buffer::{Announced, ExtractPlan, FeatureBufferManager};
use crate::staging::{StagingBuffer, StagingLease};
use gnndrive_device::{TransferEngine, WindowCopy};
use gnndrive_graph::NodeId;
use gnndrive_sampling::MiniBatchSample;
use gnndrive_storage::{
    Admission, Completion, DeviceHealth, FileHandle, IoError, IoPriority, IoRing, RetryPolicy,
    SimSsd, SECTOR_SIZE,
};
use gnndrive_telemetry::{self as telemetry, catalog};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything an extractor needs, shared across the extractor pool.
pub struct ExtractorContext {
    pub ssd: Arc<SimSsd>,
    pub features_file: FileHandle,
    /// Always `None`: a node's id is its row in `features_file`. Kept only
    /// because `benchmark/src/replay.rs` writes `remap: None` in a struct
    /// literal; it goes with ROADMAP item 9. Nothing reads it.
    pub remap: Option<std::convert::Infallible>,
    pub feat_dim: usize,
    pub fb: Arc<FeatureBufferManager>,
    /// `None` for CPU training (paper §4.4: CPU mode extracts straight into
    /// the host feature buffer, no staging hop) and for GPUDirect mode.
    pub staging: Option<Arc<StagingBuffer>>,
    /// `None` for CPU training and GPUDirect mode (no host→device hop).
    pub transfer: Option<Arc<TransferEngine>>,
    pub direct_io: bool,
    /// GPUDirect-Storage: 4 KiB access granularity, no staging/transfer.
    pub gpu_direct: bool,
    /// Ablation: the same extraction loop with one read in flight and the
    /// host→device copies paid inline (see the module docs).
    pub sync_extract: bool,
    pub ring_depth: usize,
    pub max_joint_read_bytes: usize,
    /// Recovery policy for feature reads: bounded retries with exponential
    /// backoff on transient faults, and a per-wait deadline on the async
    /// ring so a stalled device surfaces as [`IoError::Timeout`] instead of
    /// parking the extractor forever.
    pub retry: RetryPolicy,
    /// Device-health tracker / circuit breaker, shared by every extractor
    /// against this device. Healthy batches keep the ring deep; Degraded
    /// ones extract with one read in flight; an open circuit fails fast
    /// into the epoch's skip machinery, with one half-open probe per
    /// cooldown allowed through to test the device.
    pub health: Arc<DeviceHealth>,
    /// Which [`SimSsd`] submission lane this context's reads ride:
    /// training extraction uses [`IoPriority::Bulk`]; online inference
    /// uses [`IoPriority::Serve`], which device workers drain first so
    /// latency-sensitive reads are not stuck behind a deep training queue.
    pub io_priority: IoPriority,
}

/// Why an extraction failed.
#[derive(Debug)]
pub enum ExtractError {
    /// Unrecoverable I/O failure (after blocking-read retries).
    Io(IoError),
    /// A node another extractor was loading was aborted by that extractor;
    /// this batch must be abandoned (its planner will re-load next time).
    DependencyAborted(NodeId),
    /// The device-health circuit breaker is open: the batch was failed
    /// fast without touching the device (it lands in
    /// `EpochReport::failed_batches`).
    CircuitOpen,
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::Io(e) => write!(f, "extraction I/O failed: {e}"),
            ExtractError::DependencyAborted(n) => {
                write!(f, "dependency load aborted for node {n}")
            }
            ExtractError::CircuitOpen => {
                write!(f, "device circuit breaker open: batch failed fast")
            }
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Io(e) => Some(e),
            ExtractError::DependencyAborted(_) => None,
            ExtractError::CircuitOpen => None,
        }
    }
}

impl From<IoError> for ExtractError {
    fn from(e: IoError) -> Self {
        ExtractError::Io(e)
    }
}

/// A mini-batch whose features are resident in the feature buffer,
/// ready for the train stage.
pub struct ExtractedBatch {
    pub sample: MiniBatchSample,
    /// Node-alias list: feature-buffer slot per input node (⑥ in Fig 4).
    pub aliases: Vec<u32>,
    /// How many nodes this extraction actually loaded from SSD.
    pub loaded_nodes: usize,
    /// Blocking-edge decomposition of this extraction (DESIGN.md §10):
    /// staging/slot/ring/sync-read/transfer/ready waits accumulated by the
    /// extractor thread's wait timers.
    pub waits: telemetry::WaitTotals,
    /// Enqueue→dispatch share of the reads this batch reaped.
    pub io_queue_ns: u64,
    /// Dispatch→complete (device service) share of those reads.
    pub io_service_ns: u64,
}

/// One joint-extraction read: a contiguous SSD window covering the feature
/// rows of one or more nodes and any gaps bridged between them. Each entry
/// is a node — whose id is its row in the feature table — and the
/// feature-buffer slot the plan pinned for it.
pub struct ReadGroup {
    pub window_start: u64,
    pub window_len: usize,
    pub rows: Vec<(NodeId, u32)>,
}

impl ReadGroup {
    /// The nodes whose rows of `row_bytes` bytes lie wholly inside the
    /// window but are not in `rows`, ascending: read and verified with it,
    /// loaded by nobody.
    pub fn bridged_rows(&self, row_bytes: u64) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.window_start + self.window_len as u64;
        let first = self.window_start.div_ceil(row_bytes) as NodeId;
        let mut loaded = self.rows.iter().map(|&(node, _)| node).peekable();
        (first..(end / row_bytes) as NodeId).filter(move |&node| {
            while loaded.next_if(|&l| l < node).is_some() {}
            loaded.next_if_eq(&node).is_none()
        })
    }
}

/// How extraction reads one feature table: the row width, the access
/// granularity, the per-request cap, the file's end and the device's op
/// cost. [`ReadGeometry::plan`] is the one read planner: `load` calls it
/// for every batch, and offline replays call it for their op counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadGeometry {
    pub row_bytes: u64,
    /// 4 KiB under GPUDirect Storage (its hard requirement, §4.4), one
    /// sector under plain direct I/O, byte-exact (1) when buffered.
    pub align: u64,
    pub max_bytes: usize,
    pub file_len: u64,
    /// The device's [`SsdProfile::op_cost_bytes`](gnndrive_storage::SsdProfile::op_cost_bytes).
    pub op_cost_bytes: u64,
}

impl ReadGeometry {
    /// The geometry of `feat_dim`-wide `f32` rows in a `file_len`-byte
    /// table, read with at most `max_joint_read_bytes` a request (raised
    /// to one row and one alignment unit).
    pub fn new(
        feat_dim: usize,
        file_len: u64,
        op_cost_bytes: u64,
        max_joint_read_bytes: usize,
        direct_io: bool,
        gpu_direct: bool,
    ) -> Self {
        let row_bytes = (feat_dim * 4) as u64;
        let align = match (gpu_direct, direct_io) {
            (true, _) => 4096,
            (false, true) => SECTOR_SIZE,
            (false, false) => 1,
        };
        ReadGeometry {
            row_bytes,
            align,
            max_bytes: max_joint_read_bytes
                .max(row_bytes as usize)
                .max(align as usize),
            file_len,
            op_cost_bytes,
        }
    }

    /// The read windows for `rows`, as `plan_read_groups` plans them.
    pub fn plan(&self, rows: &[(NodeId, u32)]) -> Vec<ReadGroup> {
        plan_read_groups(
            rows,
            self.row_bytes,
            self.align,
            self.max_bytes,
            self.file_len,
            self.op_cost_bytes,
        )
    }
}

/// Plan the read windows for `rows` (`(node, slot)`, sorted by node, whose
/// id is its row): align to sectors under direct I/O and coalesce rows
/// whose windows lie within the batch's [`bridge_limit`] of each other, up
/// to `max_bytes` per request (paper §4.4 "Access Granularity").
/// `op_cost_bytes` is the device's
/// [`SsdProfile::op_cost_bytes`](gnndrive_storage::SsdProfile::op_cost_bytes);
/// at 0 only touching windows coalesce. Bridged bytes are read and
/// verified with the rest of the window; their rows are
/// [`ReadGroup::bridged_rows`], offered to the feature buffer's harvest.
fn plan_read_groups(
    rows: &[(NodeId, u32)],
    row_bytes: u64,
    align: u64,
    max_bytes: usize,
    file_len: u64,
    op_cost_bytes: u64,
) -> Vec<ReadGroup> {
    let window = |node: NodeId| {
        let off = u64::from(node) * row_bytes;
        if align > 1 {
            (
                off / align * align,
                // Clamp the aligned window at EOF (the file itself is
                // sector-aligned, so the clamped window stays direct-I/O
                // legal even when align > SECTOR_SIZE, e.g. GDS's 4 KiB).
                ((off + row_bytes).div_ceil(align) * align).min(file_len),
            )
        } else {
            (off, off + row_bytes)
        }
    };
    let limit = bridge_limit(rows.iter().map(|&(node, _)| window(node)), op_cost_bytes);
    let mut groups: Vec<ReadGroup> = Vec::new();
    for &(node, slot) in rows {
        let (start, end) = window(node);
        if let Some(last) = groups.last_mut() {
            let last_end = last.window_start + last.window_len as u64;
            let merged_len = (end - last.window_start) as usize;
            if start <= last_end + limit && merged_len <= max_bytes {
                last.window_len = last.window_len.max(merged_len);
                last.rows.push((node, slot));
                continue;
            }
        }
        groups.push(ReadGroup {
            window_start: start,
            window_len: (end - start) as usize,
            rows: vec![(node, slot)],
        });
    }
    groups
}

/// The widest gap between a batch's sorted row windows worth reading
/// through. The batch's ops hold the device's channels for `ops ×
/// op_cost_bytes` (in link-byte time) and its bytes hold the link for
/// `bytes`; the device serves both at once, so the batch costs the larger.
/// Bridging a gap trades one op for `gap` bytes: bridge the smallest gaps
/// first, equal gaps together (the merge rule is a threshold), and stop
/// before link time would pass op time by more than the widest gap
/// bridged. Past that point link time binds, and every further bridge
/// only raises it.
fn bridge_limit(windows: impl Iterator<Item = (u64, u64)>, op_cost_bytes: u64) -> u64 {
    // A free op is never worth a byte: skip building the gap list.
    if op_cost_bytes == 0 {
        return 0;
    }
    // The touching-only plan: its op count, bytes and gaps.
    let (mut ops, mut bytes, mut reach) = (0u64, 0u64, None::<u64>);
    let mut gaps = Vec::new();
    for (start, end) in windows {
        match reach {
            Some(r) if start <= r => {
                bytes += end.saturating_sub(r);
                reach = Some(r.max(end));
            }
            _ => {
                gaps.extend(reach.map(|r| start - r));
                ops += 1;
                bytes += end - start;
                reach = Some(end);
            }
        }
    }
    gaps.sort_unstable();
    let mut limit = 0;
    for run in gaps.chunk_by(|a, b| a == b) {
        let (gap, n) = (run[0], run.len() as u64);
        let (ops_after, bytes_after) = (ops - n, bytes + n * gap);
        if bytes_after > ops_after.saturating_mul(op_cost_bytes).saturating_add(gap) {
            break;
        }
        (ops, bytes, limit) = (ops_after, bytes_after, gap);
    }
    limit
}

/// Blocking feature read under the context's [`RetryPolicy`]: transient
/// faults are retried with exponential backoff (counted in
/// `core.extract.retries`) until the policy's attempt budget runs out.
///
/// Every attempt goes through the checksum gate
/// ([`SimSsd::read_verified`]): a mismatch is the transient
/// [`IoError::Corrupt`], so the loop re-reads from the device instead of
/// serving poisoned bytes. Each attempt's outcome feeds the shared
/// [`DeviceHealth`] window.
fn read_with_retries(ctx: &ExtractorContext, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
    let direct = ctx.direct_io || ctx.gpu_direct;
    ctx.retry.run(
        || catalog::CORE_EXTRACT_RETRIES.inc(),
        |_| {
            let out =
                ctx.ssd
                    .read_verified(ctx.features_file, offset, buf, direct, ctx.io_priority);
            match &out {
                Ok(()) => ctx.health.record_success(),
                Err(_) => ctx.health.record_error(),
            }
            out
        },
    )
}

/// Run Algorithm 1 for one sampled mini-batch. Returns the extracted batch
/// with its node-alias list resolved.
///
/// Before touching the device, the batch passes the [`DeviceHealth`]
/// admission gate: Healthy batches keep the ring deep; a Degraded device
/// gets the same loop with one read in flight (no deep queue to pile
/// congestion onto a struggling device); an open circuit fails the batch
/// fast with [`ExtractError::CircuitOpen`] — except for the one half-open
/// probe per cooldown, which also runs one read at a time and reports its
/// outcome back to the breaker.
pub fn extract_batch(
    ctx: &ExtractorContext,
    sample: MiniBatchSample,
) -> Result<ExtractedBatch, ExtractError> {
    extract_admitted(ctx, sample)
}

/// [`extract_batch`] for a batch taken off the extract queue: its
/// announcement holds until planning has pinned the batch's rows, so no
/// other extractor can steal them in between (DESIGN.md §4 item 10).
pub(crate) fn extract_announced<H>(
    ctx: &ExtractorContext,
    queued: Announced<'_, H>,
) -> Result<ExtractedBatch, ExtractError> {
    extract_admitted(ctx, queued)
}

/// A batch handed to extraction.
trait Batch {
    fn input_nodes(&self) -> &[NodeId];
    /// The sample, once planning has pinned every input node.
    fn pinned(self) -> MiniBatchSample;
}

impl Batch for MiniBatchSample {
    fn input_nodes(&self) -> &[NodeId] {
        &self.input_nodes
    }
    fn pinned(self) -> MiniBatchSample {
        self
    }
}

impl<H> Batch for Announced<'_, H> {
    fn input_nodes(&self) -> &[NodeId] {
        &self.sample().input_nodes
    }
    fn pinned(self) -> MiniBatchSample {
        self.withdraw()
    }
}

fn extract_admitted(
    ctx: &ExtractorContext,
    batch: impl Batch,
) -> Result<ExtractedBatch, ExtractError> {
    match ctx.health.admit() {
        Admission::Normal => extract_batch_inner(ctx, batch, ctx.sync_extract),
        Admission::Sync => extract_batch_inner(ctx, batch, true),
        Admission::FailFast => Err(ExtractError::CircuitOpen),
        Admission::Probe => {
            let out = extract_batch_inner(ctx, batch, true);
            // Only device-level failures condemn the probe; a planner-level
            // abort (dependency raced away) says nothing about the media.
            let device_ok = !matches!(out, Err(ExtractError::Io(_)));
            ctx.health.probe_result(device_ok);
            out
        }
    }
}

/// Plan → load → wait, with the batch's only rollback.
fn extract_batch_inner(
    ctx: &ExtractorContext,
    batch: impl Batch,
    serial: bool,
) -> Result<ExtractedBatch, ExtractError> {
    let _busy = telemetry::state(telemetry::State::Compute);
    // Drain any wait time a previous occupant of this thread accumulated:
    // from here to the return, the thread-local accumulator belongs to
    // this batch (one extractor owns one batch start-to-finish).
    let _ = telemetry::waits_take();
    let mut plan = ctx.fb.plan_batch(batch.input_nodes());
    let sample = batch.pinned();
    let loaded_nodes = plan.to_load.len();
    let loaded = load(ctx, &plan, sample.batch_id, serial).and_then(|io_split| {
        // Wait for nodes other extractors were loading, resolving aliases.
        ctx.fb
            .wait_ready(&mut plan)
            .map_err(ExtractError::DependencyAborted)?;
        Ok(io_split)
    });
    match loaded {
        Ok((io_queue_ns, io_service_ns)) => Ok(ExtractedBatch {
            sample,
            aliases: plan.aliases,
            loaded_nodes,
            waits: telemetry::waits_take(),
            io_queue_ns,
            io_service_ns,
        }),
        Err(e) => {
            // Every failure of the batch lands here, so the pins the plan
            // took are always returned.
            ctx.fb.abort_batch(&plan, &sample.input_nodes);
            Err(e)
        }
    }
}

/// A read window on the ring, with the staging credits it occupies.
type Reading = (ReadGroup, Option<StagingLease>);

/// A copy booked on the link: when it lands, its rows, and how many of
/// them were loaded (the rest were harvested).
type Landing = (Instant, Vec<(NodeId, u32)>, usize);

/// The loads of one batch: Algorithm 1's state, owned by one thread.
struct Loads<'a> {
    ctx: &'a ExtractorContext,
    batch_id: u64,
    /// One read in flight and copies paid inline (module docs).
    serial: bool,
    row_bytes: u64,
    ring: IoRing,
    /// Every window submitted, by id (the ring's `user_data`); `None` once
    /// reaped.
    windows: Vec<Option<Reading>>,
    /// The copies booked on the link and not yet published, in booking
    /// order.
    landing: VecDeque<Landing>,
    /// The bridged nodes of the window being harvested (reused).
    offers: Vec<NodeId>,
    /// Enqueue→dispatch and dispatch→complete time, summed over the
    /// completions reaped so far.
    io_queue_ns: u64,
    io_service_ns: u64,
}

impl Loads<'_> {
    /// One reap round, the io_uring way: when `block`, park for one
    /// completion; then take every completion already there, and launch
    /// phase two for each. A wait past the retry policy's per-op deadline
    /// is a transient timeout: the request is still outstanding, so the
    /// wait is retried with a fresh deadline, and the batch fails only
    /// once every attempt has timed out. `Ok(false)` means nothing was
    /// reaped; from a blocking round, that nothing of this batch is
    /// outstanding.
    fn reap(&mut self, block: bool) -> Result<bool, ExtractError> {
        let mut reaped = false;
        if block {
            self.ring.submit();
            let retry = self.ctx.retry;
            let waited = retry.run(
                || catalog::CORE_EXTRACT_RETRIES.inc(),
                |_| self.ring.wait_completion_deadline(Some(retry.deadline())),
            );
            let Some(c) = waited? else {
                return Ok(false);
            };
            self.launch(c)?;
            reaped = true;
        }
        while let Some(c) = self.ring.peek_completion() {
            self.launch(c)?;
            reaped = true;
        }
        Ok(reaped)
    }

    /// Phase two for one load completion: verify (re-reading on failure),
    /// harvest, write the rows into their slots, and either book the copy
    /// on the link, to publish when it lands, or pay it inline and publish.
    fn launch(&mut self, c: Completion) -> Result<(), ExtractError> {
        let ctx = self.ctx;
        self.io_queue_ns = self.io_queue_ns.saturating_add(c.queue_ns);
        self.io_service_ns = self.io_service_ns.saturating_add(c.service_ns);
        let id = c.user_data as usize;
        let Some((group, lease)) = self.windows[id].take() else {
            panic!("window {id} completed twice");
        };
        // A completion becomes bytes only through the checksum gate, here
        // at the ring boundary, so silently corrupted windows never reach a
        // feature slab. Media errors and mismatches fall back to (retried)
        // blocking reads — the firmware-reread recovery path — before
        // giving up.
        let window = match c.verified(&ctx.ssd, ctx.features_file, group.window_start) {
            Ok(b) => {
                ctx.health.record_success();
                b
            }
            Err(_) => {
                ctx.health.record_error();
                // The failed attempt makes this re-read a retry: count it
                // up front so fault recovery stays visible in
                // `core.extract.retries` even when the blocking read
                // succeeds immediately.
                catalog::CORE_EXTRACT_RETRIES.inc();
                let mut retry = vec![0u8; group.window_len];
                let _wait = telemetry::wait_timer(telemetry::WaitKind::SyncRead);
                read_with_retries(ctx, group.window_start, &mut retry)?;
                retry
            }
        };
        // Only now are the bridged bytes trusted: offer their rows to the
        // buffer.
        self.offers.clear();
        self.offers.extend(group.bridged_rows(self.row_bytes));
        let loaded = group.rows.len();
        let mut rows = group.rows;
        if !self.offers.is_empty() {
            rows.extend(ctx.fb.harvest(&self.offers));
        }
        let copy = WindowCopy {
            window,
            window_start: group.window_start,
            rows,
        };
        let slab = ctx.fb.slab();
        match &ctx.transfer {
            Some(link) if !self.serial => {
                // Book the copy before writing it, so its deadline counts
                // from the moment the read verified.
                let lands_at = link.reserve(copy.bytes(slab));
                copy.write_into(slab);
                self.landing.push_back((lands_at, copy.rows, loaded));
            }
            link => {
                // No asynchronous hop: pay the copy here if there is a
                // device link (CPU training and GPUDirect have none),
                // write the feature buffer and publish immediately. The
                // span keeps stage coverage identical to the asynchronous
                // tail's.
                if let Some(link) = link {
                    let _tspan = telemetry::span("transfer", self.batch_id);
                    let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
                    link.pay_blocking(copy.bytes(slab));
                }
                copy.write_into(slab);
                ctx.fb.publish_window(&copy.rows, loaded);
            }
        }
        // Staging credits return once the rows are written, not when the
        // copy lands.
        drop(lease);
        Ok(())
    }

    /// Publish, in booking order, every copy the link has landed by `now`:
    /// those within the link's sleep granularity of their deadline. A
    /// link's deadlines rise, so the landed copies are a prefix.
    fn land(&mut self, now: Instant) {
        let slack = self
            .ctx
            .transfer
            .as_ref()
            .map_or(Duration::ZERO, |link| link.profile().sleep_granularity);
        while let Some((_, rows, loaded)) = self.landing.pop_front_if(|(at, ..)| *at <= now + slack)
        {
            self.ctx.fb.publish_window(&rows, loaded);
        }
    }

    /// Phase one: submit every group, reaping as we go to keep the ring
    /// deep but bounded, then reap the rest. Each read goes to the device
    /// as soon as it is prepared, so a channel never idles while the
    /// extractor prepares the next (DESIGN.md §4 item 7).
    fn read(&mut self, groups: Vec<ReadGroup>) -> Result<(), ExtractError> {
        let ctx = self.ctx;
        for group in groups {
            // Staging credits. Never block in `acquire` while this
            // extractor still holds leases with reapable load completions:
            // with every extractor doing that simultaneously the pool can
            // never refill (each would wait on credits the others'
            // unreaped completions hold). Reap-then-retry until we hold
            // nothing, then block.
            let lease = match &ctx.staging {
                None => None,
                Some(staging) => loop {
                    if let Some(l) = staging.try_acquire(group.window_len as u64) {
                        break Some(l);
                    }
                    if !self.reap(true)? {
                        // We hold no leases; blocking cannot self-deadlock.
                        break Some(staging.acquire(group.window_len as u64));
                    }
                },
            };
            let id = self.windows.len() as u64;
            let (start, len) = (group.window_start, group.window_len);
            while let Err(e) = self.ring.prepare_read(ctx.features_file, start, len, id) {
                match e {
                    IoError::RingFull => self.reap(true)?,
                    e => return Err(e.into()),
                };
            }
            self.windows.push(Some((group, lease)));
            self.ring.submit();
            if self.serial {
                // Wait until the read just submitted has landed, so one is
                // in flight at a time.
                while self.reap(true)? {}
            } else {
                // Reap whatever already finished without blocking.
                self.reap(false)?;
            }
            // Publish landed copies opportunistically too.
            self.land(Instant::now());
        }
        // Wait for the remaining loads.
        while self.reap(true)? {}
        debug_assert!(
            self.windows.iter().all(Option::is_none),
            "all groups must complete"
        );
        Ok(())
    }

    /// Phase two tail: wait until every copy booked has landed, and
    /// publish it — after a failed read too, so the rollback never hands
    /// back a slot a copy is still bound for. The `transfer` span covers
    /// exactly the H2D drain left on the critical path: under healthy
    /// overlap it is near-zero; in a trace, wide transfer spans mean the
    /// device link is the bottleneck.
    fn drain_copies(mut self) {
        let Some(link) = self.ctx.transfer.as_ref().filter(|_| !self.serial) else {
            return;
        };
        let _span = telemetry::span("transfer", self.batch_id);
        let Some(&(last, ..)) = self.landing.back() else {
            return;
        };
        let ahead = last.saturating_duration_since(Instant::now());
        if ahead > link.profile().sleep_granularity {
            let _io = telemetry::state(telemetry::State::IoWait);
            let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
            std::thread::sleep(ahead);
        }
        self.land(last);
        debug_assert!(self.landing.is_empty(), "every copy lands");
    }
}

/// Phases one and two for the nodes `plan` says this extractor loads.
/// Returns the batch's (queue, service) I/O time split. Returns only once
/// every copy it booked has landed and published, whether it succeeds or
/// fails.
fn load(
    ctx: &ExtractorContext,
    plan: &ExtractPlan,
    batch_id: u64,
    serial: bool,
) -> Result<(u64, u64), ExtractError> {
    // A node's id is its row: sort by node for coalescing and
    // sequential-ish access.
    let mut to_load: Vec<(NodeId, u32)> = plan
        .to_load
        .iter()
        .map(|&(i, n)| (n, plan.aliases[i]))
        .collect();
    to_load.sort_unstable();
    let geometry = ReadGeometry::new(
        ctx.feat_dim,
        ctx.features_file.len,
        ctx.ssd.profile().op_cost_bytes(),
        ctx.max_joint_read_bytes,
        ctx.direct_io,
        ctx.gpu_direct,
    );
    let groups = geometry.plan(&to_load);

    let mut loads = Loads {
        ctx,
        batch_id,
        serial,
        row_bytes: geometry.row_bytes,
        ring: IoRing::with_priority(
            Arc::clone(&ctx.ssd),
            ctx.ring_depth.max(1),
            ctx.direct_io || ctx.gpu_direct,
            ctx.io_priority,
        ),
        windows: Vec::with_capacity(groups.len()),
        landing: VecDeque::new(),
        offers: Vec::new(),
        io_queue_ns: 0,
        io_service_ns: 0,
    };
    let read = loads.read(groups);
    let io_split = (loads.io_queue_ns, loads.io_service_ns);
    loads.drain_copies();
    read.map(|()| io_split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GnnDriveConfig;
    use gnndrive_device::{FeatureSlab, TransferProfile};
    use gnndrive_graph::{Dataset, DatasetSpec};
    use gnndrive_sampling::{InMemTopo, NeighborSampler};
    use gnndrive_storage::{HealthConfig, HealthState, MemoryGovernor, SsdProfile};

    fn tiny_dataset(dim: usize) -> Dataset {
        tiny_dataset_on(dim, SsdProfile::instant())
    }

    /// A device whose ops are worth bridging (≈2 KiB of link time each),
    /// yet fast enough for unit tests.
    fn bridging() -> SsdProfile {
        SsdProfile {
            read_latency: std::time::Duration::from_micros(2),
            bandwidth: 1 << 30,
            channels: 1,
            ..SsdProfile::instant()
        }
    }

    fn tiny_dataset_on(dim: usize, profile: SsdProfile) -> Dataset {
        Dataset::build(
            DatasetSpec {
                name: "x".into(),
                num_nodes: 300,
                num_edges: 2500,
                feat_dim: dim,
                num_classes: 4,
                intra_prob: 0.7,
                feature_signal: 1.0,
                train_fraction: 0.3,
                seed: 5,
            },
            SimSsd::new(profile),
        )
    }

    fn context(ds: &Dataset, gpu: bool, direct: bool) -> ExtractorContext {
        let cfg = GnnDriveConfig::default();
        let slab = Arc::new(FeatureSlab::new(2048, ds.spec.feat_dim));
        let fb = Arc::new(FeatureBufferManager::new(slab, ds.spec.num_nodes, &cfg));
        let gov = MemoryGovernor::unlimited();
        ExtractorContext {
            ssd: Arc::clone(&ds.ssd),
            features_file: ds.features_file,
            remap: None,
            feat_dim: ds.spec.feat_dim,
            fb,
            staging: if gpu {
                Some(StagingBuffer::new(1 << 20, &gov).unwrap())
            } else {
                None
            },
            transfer: if gpu {
                Some(TransferEngine::new(TransferProfile::host_memcpy()))
            } else {
                None
            },
            direct_io: direct,
            gpu_direct: false,
            sync_extract: false,
            ring_depth: 16,
            max_joint_read_bytes: 8192,
            retry: RetryPolicy::default(),
            health: Arc::new(DeviceHealth::new(HealthConfig::default())),
            io_priority: IoPriority::Bulk,
        }
    }

    fn sample_of(ds: &Dataset, seeds: &[u32]) -> MiniBatchSample {
        let sampler = NeighborSampler::new(
            Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
            vec![3, 3],
        );
        sampler.sample(0, seeds, 99)
    }

    /// A batch of exactly `input_nodes`.
    fn batch_of(batch_id: u64, input_nodes: Vec<NodeId>) -> MiniBatchSample {
        MiniBatchSample {
            batch_id,
            seeds: Vec::new(),
            input_nodes,
            blocks: Vec::new(),
        }
    }

    /// The slab row of resident `node` equals its feature row bit for bit.
    fn assert_resident(ds: &Dataset, fb: &FeatureBufferManager, node: NodeId) {
        let (slot, _, valid) = fb.entry(node);
        assert!(valid && slot >= 0, "node {node} is not resident");
        let mut out = vec![0.0f32; ds.spec.feat_dim];
        fb.slab().read_row(slot as u32, &mut out);
        let want = ds.peek_feature_row(node);
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "row mismatch for node {node}"
        );
    }

    fn verify_rows(ds: &Dataset, batch: &ExtractedBatch, fb: &FeatureBufferManager) {
        let mut out = vec![0.0f32; ds.spec.feat_dim];
        for (i, &node) in batch.sample.input_nodes.iter().enumerate() {
            fb.slab().read_row(batch.aliases[i], &mut out);
            let expect = ds.peek_feature_row(node);
            assert_eq!(out, expect, "row mismatch for node {node}");
        }
    }

    #[test]
    fn gpu_mode_extracts_correct_rows_dim128() {
        let ds = tiny_dataset(128); // 512 B rows: perfectly sector aligned
        let ctx = context(&ds, true, true);
        let sample = sample_of(&ds, &[1, 2, 3, 4, 5]);
        let batch = extract_batch(&ctx, sample).unwrap();
        assert!(batch.loaded_nodes > 0);
        verify_rows(&ds, &batch, &ctx.fb);
        ctx.fb.check_invariants();
    }

    /// A batch that records, when extraction takes its sample, whether
    /// every input node was pinned by then.
    struct Probe<'a> {
        fb: &'a FeatureBufferManager,
        sample: MiniBatchSample,
        pinned_at_handover: &'a std::cell::Cell<Option<bool>>,
    }

    impl Batch for Probe<'_> {
        fn input_nodes(&self) -> &[NodeId] {
            &self.sample.input_nodes
        }
        fn pinned(self) -> MiniBatchSample {
            let fb = self.fb;
            let all = self.sample.input_nodes.iter().all(|&n| fb.entry(n).1 > 0);
            self.pinned_at_handover.set(Some(all));
            self.sample
        }
    }

    /// A queued batch stays announced until planning has pinned its rows,
    /// and is withdrawn by the time its horizon closes.
    #[test]
    fn announcements_hold_until_the_batch_is_pinned() {
        let ds = tiny_dataset(32);
        let ctx = context(&ds, false, true);
        let seen = std::cell::Cell::new(None);
        let probe = Probe {
            fb: &ctx.fb,
            sample: sample_of(&ds, &[3, 4]),
            pinned_at_handover: &seen,
        };
        let batch = extract_admitted(&ctx, probe).unwrap();
        assert_eq!(seen.get(), Some(true));
        ctx.fb.release(&batch.sample.input_nodes);

        {
            let horizon = ctx.fb.horizon(0..1);
            let queued = horizon.announce(sample_of(&ds, &[5, 6]), ());
            let batch = extract_announced(&ctx, queued).unwrap();
            verify_rows(&ds, &batch, &ctx.fb);
            ctx.fb.release(&batch.sample.input_nodes);
        }
        ctx.fb.check_invariants();
    }

    #[test]
    fn joint_extraction_handles_sub_sector_rows() {
        let ds = tiny_dataset(16); // 64 B rows: 8 rows per sector
        let ctx = context(&ds, true, true);
        let sample = sample_of(&ds, &[10, 11, 12, 13]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn unaligned_dimension_loads_redundant_tails() {
        let ds = tiny_dataset(129); // 516 B rows: never sector aligned
        let ctx = context(&ds, true, true);
        let sample = sample_of(&ds, &[7, 8, 9]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn cpu_mode_skips_staging_and_transfer() {
        let ds = tiny_dataset(32);
        let ctx = context(&ds, false, true);
        let sample = sample_of(&ds, &[20, 21]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn buffered_mode_reads_exact_rows() {
        let ds = tiny_dataset(24); // 96 B rows, buffered: unaligned is fine
        let ctx = context(&ds, true, false);
        let sample = sample_of(&ds, &[30, 31, 32]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn second_extraction_reuses_resident_nodes() {
        let ds = tiny_dataset(64);
        let ctx = context(&ds, true, true);
        let s1 = sample_of(&ds, &[1, 2, 3]);
        let nodes1 = s1.input_nodes.clone();
        let b1 = extract_batch(&ctx, s1).unwrap();
        assert!(b1.loaded_nodes > 0);
        // Release and re-extract the identical batch: everything reused.
        ctx.fb.release(&nodes1);
        let s2 = sample_of(&ds, &[1, 2, 3]);
        let b2 = extract_batch(&ctx, s2).unwrap();
        assert_eq!(b2.loaded_nodes, 0, "all rows should be buffer hits");
        verify_rows(&ds, &b2, &ctx.fb);
    }

    #[test]
    fn gpu_direct_mode_extracts_correct_rows() {
        let ds = tiny_dataset(64);
        let mut ctx = context(&ds, true, true);
        ctx.gpu_direct = true;
        ctx.staging = None;
        ctx.transfer = None;
        let sample = sample_of(&ds, &[5, 6, 7]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn sync_extract_ablation_matches_async_results() {
        let ds = tiny_dataset(32);
        let mut ctx = context(&ds, true, true);
        ctx.sync_extract = true;
        let sample = sample_of(&ds, &[9, 10, 11]);
        let batch = extract_batch(&ctx, sample).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
        ctx.fb.check_invariants();
    }

    #[test]
    fn retry_exhaustion_surfaces_typed_error_and_counts_retries() {
        use gnndrive_storage::FaultPlan;
        let ds = tiny_dataset(128);
        let mut ctx = context(&ds, true, true);
        // Every read on the features file fails; two attempts then give up.
        ctx.retry = RetryPolicy::default()
            .with_max_attempts(2)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
        ds.ssd.set_fault_plan(
            FaultPlan::new(11)
                .with_read_fault_prob(1.0)
                .on_file(ds.features_file.id),
        );
        let retries_before = catalog::CORE_EXTRACT_RETRIES.get();
        let faults_before = catalog::STORAGE_FAULTS.get();
        let err = match extract_batch(&ctx, sample_of(&ds, &[1, 2, 3])) {
            Err(e) => e,
            Ok(_) => panic!("extraction must fail under a total fault storm"),
        };
        ds.ssd.clear_faults();
        assert!(
            matches!(err, ExtractError::Io(IoError::DeviceFault { .. })),
            "expected a typed device fault, got {err}"
        );
        assert!(
            catalog::CORE_EXTRACT_RETRIES.get() > retries_before,
            "retry attempts must be counted"
        );
        assert!(
            catalog::STORAGE_FAULTS.get() > faults_before,
            "injected faults must be counted"
        );
        // The buffer must be consistent after the aborted batch.
        ctx.fb.check_invariants();
        // Device healthy again: the same extraction now succeeds.
        let batch = extract_batch(&ctx, sample_of(&ds, &[1, 2, 3])).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn transient_faults_recover_within_retry_budget() {
        use gnndrive_storage::FaultPlan;
        let ds = tiny_dataset(128);
        let mut ctx = context(&ds, true, true);
        ctx.retry = RetryPolicy::default()
            .with_max_attempts(6)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO);
        // Half the targeted reads fault; six attempts make recovery all but
        // certain for every group (deterministic given the seed).
        ds.ssd.set_fault_plan(
            FaultPlan::new(3)
                .with_read_fault_prob(0.5)
                .on_file(ds.features_file.id),
        );
        let batch = extract_batch(&ctx, sample_of(&ds, &[4, 5, 6, 7])).unwrap();
        ds.ssd.clear_faults();
        verify_rows(&ds, &batch, &ctx.fb);
        ctx.fb.check_invariants();
    }

    #[test]
    fn read_group_planning_coalesces_neighbors() {
        // dim 16 → 64 B rows; rows 0..8 share sector 0.
        let rows: Vec<(NodeId, u32)> = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let groups = plan_read_groups(&rows, 64, 512, 4096, 1 << 20, 0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].window_start, 0);
        assert_eq!(groups[0].window_len, 512);
        assert_eq!(groups[0].rows, rows);
        // A distant row gets its own group.
        let groups = plan_read_groups(&[(0, 0), (100, 1)], 64, 512, 4096, 1 << 20, 0);
        assert_eq!(groups.len(), 2);
    }

    /// With a per-op cost the planner reads through the smallest gaps until
    /// link time meets op time: 512 B rows 0, 2, 3, 7 and 20 are four
    /// touching-only windows (2 560 B) with gaps of 512, 1 536 and 6 144 B.
    #[test]
    fn read_group_planning_bridges_cheap_gaps_first() {
        let rows: Vec<(NodeId, u32)> = vec![(0, 0), (2, 1), (3, 2), (7, 3), (20, 4)];
        let plan = |cost| {
            plan_read_groups(&rows, 512, 512, 1 << 20, 1 << 20, cost)
                .iter()
                .map(|g| (g.window_start, g.window_len, g.rows.len()))
                .collect::<Vec<_>>()
        };
        let touching = vec![
            (0, 512, 1),
            (1024, 1024, 2),
            (3584, 512, 1),
            (10240, 512, 1),
        ];
        assert_eq!(plan(0), touching);
        // Bridging 512 B would leave 3 072 B of link time against
        // 3 × 800 + 512 of op time: not worth it.
        assert_eq!(plan(800), touching);
        // Worth it at 1 000 B/op (3 072 ≤ 3 512); the next gap is not
        // (4 608 > 2 × 1 000 + 1 536).
        assert_eq!(
            plan(1_000),
            vec![(0, 2048, 3), (3584, 512, 1), (10240, 512, 1)]
        );
        // pm883_repro bridges 1 536 B too (4 608 ≤ 2 × 2 896 + 1 536), but
        // never 6 144 B (10 752 > 2 896 + 6 144).
        assert_eq!(plan(2_896), vec![(0, 4096, 4), (10240, 512, 1)]);
        // The request cap still splits a bridged run.
        let capped = plan_read_groups(&rows, 512, 512, 2048, 1 << 20, 2_896);
        assert_eq!(capped.len(), 3);
        assert!(capped.iter().all(|g| g.window_len <= 2048));
    }

    #[test]
    fn read_group_clamps_at_eof_for_coarse_alignment() {
        // 512 B rows, 4 KiB (GDS) alignment, file of 3 sectors: the last
        // row's window must clamp to the file end.
        let groups = plan_read_groups(&[(2, 0)], 512, 4096, 1 << 20, 3 * 512, 0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].window_start, 0);
        assert_eq!(groups[0].window_len, 3 * 512);
    }

    #[test]
    fn corrupted_ring_completions_are_reread_not_served() {
        use gnndrive_storage::FaultPlan;
        let ds = tiny_dataset(128); // 512 B rows: windows cover whole sectors
        let mut ctx = context(&ds, true, true);
        ctx.retry = RetryPolicy::default().with_max_attempts(8);
        // Half the targeted reads are silently bit-flipped: the device
        // reports success with wrong bytes. Verification at the ring
        // boundary must catch every one and heal it with a re-read.
        ds.ssd.set_fault_plan(
            FaultPlan::new(23)
                .with_bit_flips(0.5)
                .on_file(ds.features_file.id),
        );
        let detected_before = catalog::STORAGE_INTEGRITY_DETECTED.get();
        let batch = extract_batch(&ctx, sample_of(&ds, &[40, 41, 42, 43, 44])).unwrap();
        ds.ssd.clear_faults();
        verify_rows(&ds, &batch, &ctx.fb);
        assert!(
            catalog::STORAGE_INTEGRITY_DETECTED.get() > detected_before,
            "bit flips at 50% must have corrupted at least one window"
        );
        assert_eq!(
            catalog::STORAGE_INTEGRITY_ESCAPED.get(),
            0,
            "no corruption may escape verification"
        );
    }

    /// Bridged bytes are verified with the rows around them: a bit flipped
    /// in a gap no row lives in still fails the window's checksum, and the
    /// window is re-read rather than trusted.
    #[test]
    fn corruption_in_a_bridged_gap_is_reread() {
        use gnndrive_storage::FaultPlan;
        let ds = tiny_dataset_on(128, bridging());
        let ctx = context(&ds, true, true);
        // 512 B rows 10 and 12 become one 1 536 B read through row 11.
        let rows = [(10, 0), (12, 1)];
        let cost = ds.ssd.profile().op_cost_bytes();
        let plan = plan_read_groups(&rows, 512, 512, 8192, ds.features_file.len, cost);
        assert_eq!(shape(&plan), vec![(5120, 1536, rows.to_vec())]);
        // Flip a bit of the middle sector on the first read, only.
        let gap = 512 * 8..1024 * 8;
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with_bit_flips(1.0))
            .find(|p| p.bit_flip(0, 1536).is_some_and(|bit| gap.contains(&bit)))
            .expect("a seed that flips the gap")
            .in_window(0..1)
            .on_file(ds.features_file.id);
        ds.ssd.set_fault_plan(plan);
        let detected = catalog::STORAGE_INTEGRITY_DETECTED.get();
        let ops = ds.ssd.stats().snapshot().read_ops;
        // A queued batch wants row 11: the flipped gap is its row, so only
        // the re-read's bytes may be harvested.
        let horizon = ctx.fb.horizon(0..2);
        let _queued = horizon.announce(batch_of(1, vec![11]), ());
        let batch = extract_batch(&ctx, batch_of(0, vec![10, 12])).unwrap();
        ds.ssd.clear_faults();
        verify_rows(&ds, &batch, &ctx.fb);
        assert_resident(&ds, &ctx.fb, 11);
        assert_eq!(batch.loaded_nodes, 2);
        assert_eq!(
            ds.ssd.stats().snapshot().read_ops - ops,
            2,
            "one bridged read, one re-read"
        );
        assert!(catalog::STORAGE_INTEGRITY_DETECTED.get() > detected);
        assert_eq!(catalog::STORAGE_INTEGRITY_ESCAPED.get(), 0);
    }

    /// A row a bridged read brought in that a queued batch announced is
    /// harvested: resident with its exact bytes, unpinned, and reused by
    /// the announcing batch without a read — on the asynchronous copy
    /// path, the serial one and in CPU mode. The unannounced row bridged
    /// alongside is not taken.
    #[test]
    fn an_announced_bridged_row_is_harvested_with_exact_bytes() {
        let ds = tiny_dataset_on(128, bridging());
        for (gpu, serial) in [(true, false), (true, true), (false, false)] {
            let mut ctx = context(&ds, gpu, true);
            ctx.sync_extract = serial;
            // Rows 10 and 14 become one read through rows 11..14.
            let cost = ds.ssd.profile().op_cost_bytes();
            let rows = [(10, 0), (14, 1)];
            let plan = plan_read_groups(&rows, 512, 512, 8192, ds.features_file.len, cost);
            assert_eq!(shape(&plan), vec![(5120, 2560, rows.to_vec())]);
            let horizon = ctx.fb.horizon(0..2);
            let queued = horizon.announce(batch_of(1, vec![11, 13, 20]), ());
            let harvested = ctx
                .fb
                .stats()
                .harvested_rows
                .load(std::sync::atomic::Ordering::Acquire);
            let batch = extract_batch(&ctx, batch_of(0, vec![10, 14])).unwrap();
            verify_rows(&ds, &batch, &ctx.fb);
            let now = ctx
                .fb
                .stats()
                .harvested_rows
                .load(std::sync::atomic::Ordering::Acquire);
            assert_eq!(now - harvested, 2, "gpu {gpu} serial {serial}");
            for node in [11, 13] {
                assert_resident(&ds, &ctx.fb, node);
                assert_eq!(ctx.fb.entry(node).1, 0, "a landed harvest is unpinned");
            }
            assert_eq!(ctx.fb.entry(12), (-1, 0, false), "12 was not announced");
            ctx.fb.release(&batch.sample.input_nodes);
            let ops = ds.ssd.stats().snapshot().read_ops;
            let next = extract_announced(&ctx, queued).unwrap();
            // Only row 20 is read.
            assert_eq!(next.loaded_nodes, 1);
            assert_eq!(ds.ssd.stats().snapshot().read_ops - ops, 1);
            verify_rows(&ds, &next, &ctx.fb);
            ctx.fb.release(&next.sample.input_nodes);
            drop(horizon);
            ctx.fb.check_invariants();
        }
    }

    /// A batch that fails after some of its windows were booked on the
    /// (slow) link lands those copies before its rollback hands their
    /// slots back: a serial extractor that takes the freed slots right
    /// after keeps its rows. The harvested row of a landed window is
    /// published and released like a loaded one. The read fails in the
    /// same reap round as three good windows, so their copies are still
    /// in flight on the link, not yet landed, when it does.
    #[test]
    fn a_failed_batch_lands_its_copies_before_rollback() {
        use gnndrive_storage::FaultPlan;
        let ds = tiny_dataset_on(128, bridging());
        let slab = Arc::new(FeatureSlab::new(7, ds.spec.feat_dim));
        let fb = Arc::new(FeatureBufferManager::new(
            slab,
            ds.spec.num_nodes,
            &GnnDriveConfig::default(),
        ));
        let mut ctx = context(&ds, true, true);
        ctx.fb = Arc::clone(&fb);
        ctx.retry = RetryPolicy::none();
        ctx.transfer = Some(TransferEngine::new(TransferProfile {
            name: "slow",
            latency: std::time::Duration::from_millis(30),
            bandwidth: u64::MAX / 4,
            sleep_granularity: std::time::Duration::from_micros(100),
        }));
        // The serial extractor: inline writes, no staging hop.
        let mut serial = context(&ds, false, true);
        serial.fb = Arc::clone(&fb);
        serial.sync_extract = true;

        let horizon = fb.horizon(0..2);
        let _queued = horizon.announce(batch_of(1, vec![11]), ());
        // Every third read of the features file fails, in service order on
        // the device's one channel. Two warm-up reads take ordinals 0 and
        // 1; the batch's five windows — [10, 12] bridging 11, then 30, 40,
        // 50 and 60 — take 2..=6, so windows 0 and 3 fail. Window 0's read
        // stalls long enough for all five to be queued behind it, so its
        // re-read (7) queues behind the other four and passes; by then
        // windows 1..=4 have completed, so one round reaps windows 0..=3,
        // and window 3's re-read (8) fails the batch with windows 0..=2
        // still on the link.
        ds.ssd.set_fault_plan(
            FaultPlan::new(0)
                .with_read_fault_every(3)
                .with_stall(2..3, std::time::Duration::from_millis(100))
                .on_file(ds.features_file.id),
        );
        let mut sector = [0u8; 512];
        for _ in 0..2 {
            ds.ssd
                .read_blocking(ds.features_file, 0, &mut sector, true)
                .unwrap();
        }
        let failing = batch_of(0, vec![10, 12, 30, 40, 50, 60]);
        let err = extract_batch(&ctx, failing).err().expect("window 3 fails");
        ds.ssd.clear_faults();
        assert!(matches!(err, ExtractError::Io(_)), "{err}");
        fb.check_invariants();
        assert_eq!(fb.standby_len(), 7, "every pin returned");
        for node in [10, 11, 12, 30, 40] {
            assert_resident(&ds, &fb, node);
        }
        assert!(
            !fb.entry(50).2 && !fb.entry(60).2,
            "failed windows publish nothing"
        );
        // Six fresh rows take the six slots the failed batch held.
        let batch = extract_batch(&serial, batch_of(2, vec![1, 3, 5, 7, 9, 70])).unwrap();
        // Long enough for any copy still bound for those slots to land.
        std::thread::sleep(std::time::Duration::from_millis(200));
        verify_rows(&ds, &batch, &fb);
        fb.release(&batch.sample.input_nodes);
        fb.check_invariants();
    }

    #[test]
    fn open_circuit_fails_batches_fast_and_probe_recovers() {
        let ds = tiny_dataset(64);
        let mut ctx = context(&ds, true, true);
        ctx.health = Arc::new(DeviceHealth::new(HealthConfig {
            cooldown: std::time::Duration::from_millis(5),
            ..HealthConfig::enabled()
        }));
        // Simulate a burst of device errors observed by other readers.
        for _ in 0..64 {
            ctx.health.record_error();
        }
        assert_eq!(ctx.health.state(), HealthState::CircuitOpen);
        // Inside the cooldown the batch is rejected without touching the
        // device or leaking buffer pins.
        let err = match extract_batch(&ctx, sample_of(&ds, &[1, 2, 3])) {
            Err(e) => e,
            Ok(_) => panic!("open circuit must fail the batch fast"),
        };
        assert!(matches!(err, ExtractError::CircuitOpen), "got {err}");
        ctx.fb.check_invariants();
        // After the cooldown one batch rides the half-open probe; the
        // device is actually fine, so the probe closes the circuit.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let batch = extract_batch(&ctx, sample_of(&ds, &[1, 2, 3])).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
        assert_eq!(ctx.health.state(), HealthState::Healthy);
        // Healthy again: the next batch is admitted onto the async ring.
        let s = sample_of(&ds, &[4, 5, 6]);
        let batch = extract_batch(&ctx, s).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
    }

    #[test]
    fn degraded_device_routes_extraction_onto_sync_path() {
        let ds = tiny_dataset(32);
        let mut ctx = context(&ds, true, true);
        ctx.health = Arc::new(DeviceHealth::new(HealthConfig::enabled()));
        // Half the window errored: Degraded, batches still succeed (on the
        // bounded sync path) and produce correct rows.
        for _ in 0..32 {
            ctx.health.record_error();
            ctx.health.record_success();
        }
        assert_eq!(ctx.health.state(), HealthState::Degraded);
        let batch = extract_batch(&ctx, sample_of(&ds, &[12, 13, 14])).unwrap();
        verify_rows(&ds, &batch, &ctx.fb);
        ctx.fb.check_invariants();
    }

    /// One loop, two settings: over every row size class × device mode,
    /// serial and asynchronous extraction of the same sample, with a random
    /// set of rows announced by a queued batch, load the same nodes, leave bit-identical slab rows and harvest the same
    /// announced rows, each with its exact bytes — on a device that plans
    /// touching-only windows and on one that bridges gaps, which issues
    /// fewer ops for the same rows.
    #[test]
    fn serial_and_async_extraction_agree_bit_for_bit() {
        const DIMS: [usize; 5] = [16, 24, 64, 128, 129];
        let stacks: Vec<_> = DIMS
            .iter()
            .map(|&dim| {
                // The same dataset (same spec seed) on both devices.
                [SsdProfile::instant(), bridging()].map(|profile| tiny_dataset_on(dim, profile))
            })
            .collect();
        let mut case = 0usize;
        let mut ops = [0u64; 2];
        let mut harvests = 0;
        gnndrive_sync::rng::cases(40, |rng| {
            let devices = &stacks[case % 5];
            let mode = case / 5 % 4;
            case += 1;
            let n = devices[0].spec.num_nodes;
            let mut seeds: Vec<u32> = (0..1 + rng.below(12))
                .map(|_| rng.below(n) as u32)
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let announced: Vec<NodeId> = (0..n as NodeId).filter(|_| rng.bool(0.2)).collect();
            let extract = |device: usize, serial: bool| {
                let ds = &devices[device];
                // GPU staged, CPU, GPUDirect, buffered.
                let mut ctx = context(ds, mode != 1, mode != 3);
                if mode == 2 {
                    ctx.gpu_direct = true;
                    ctx.staging = None;
                    ctx.transfer = None;
                }
                ctx.sync_extract = serial;
                let horizon = ctx.fb.horizon(0..2);
                let queued = horizon.announce(batch_of(1, announced.clone()), ());
                let before = ds.ssd.stats().snapshot().read_ops;
                let batch = extract_batch(&ctx, sample_of(ds, &seeds)).unwrap();
                let issued = ds.ssd.stats().snapshot().read_ops - before;
                ctx.fb.check_invariants();
                verify_rows(ds, &batch, &ctx.fb);
                let mut row = vec![0.0f32; ds.spec.feat_dim];
                let mut bits = Vec::new();
                for &alias in &batch.aliases {
                    ctx.fb.slab().read_row(alias, &mut row);
                    bits.extend(row.iter().map(|v| v.to_bits()));
                }
                let input = &batch.sample.input_nodes;
                let harvested: Vec<NodeId> = (announced.iter().copied())
                    .filter(|n| !input.contains(n) && ctx.fb.entry(*n).2)
                    .collect();
                for &node in &harvested {
                    assert_resident(ds, &ctx.fb, node);
                }
                drop(queued);
                drop(horizon);
                ((bits, batch.loaded_nodes), harvested, issued)
            };
            // (device, serial): touching-only async first, as the reference.
            let runs = [(0, false), (0, true), (1, false), (1, true)].map(|(d, s)| extract(d, s));
            let case = format!("dim {} mode {mode}", devices[0].spec.feat_dim);
            for (i, (got, ..)) in runs.iter().enumerate() {
                assert_eq!(got, &runs[0].0, "{case} run {i}");
            }
            // Serial or not, a device plans the same groups and harvests
            // the same rows.
            assert_eq!((&runs[0].1, &runs[2].1), (&runs[1].1, &runs[3].1), "{case}");
            harvests += runs[2].1.len();
            let issued = runs.map(|(.., ops)| ops);
            assert_eq!((issued[0], issued[2]), (issued[1], issued[3]));
            ops[0] += issued[0];
            ops[1] += issued[2];
        });
        assert!(ops[1] < ops[0], "bridging never fired: {ops:?}");
        assert!(harvests > 0, "no bridged row was ever harvested");
    }

    /// Run one extraction under `retry` that may fail on the installed
    /// fault plan and check the rollback was total: invariants hold, the
    /// standby list is where it was, and the same extraction succeeds once
    /// the device is healthy and the policy patient. Returns the failure,
    /// if any.
    fn extract_and_check_rollback(
        ds: &Dataset,
        ctx: &mut ExtractorContext,
        retry: RetryPolicy,
        seeds: &[u32],
    ) -> Option<ExtractError> {
        let standby = ctx.fb.standby_len();
        ctx.retry = retry;
        let out = extract_batch(ctx, sample_of(ds, seeds));
        ds.ssd.clear_faults();
        ctx.retry = RetryPolicy::default();
        ctx.fb.check_invariants();
        let err = match out {
            Ok(batch) => {
                verify_rows(ds, &batch, &ctx.fb);
                ctx.fb.release(&batch.sample.input_nodes);
                return None;
            }
            Err(e) => e,
        };
        assert_eq!(ctx.fb.standby_len(), standby, "pins leaked by {err}");
        let batch = extract_batch(ctx, sample_of(ds, seeds)).unwrap();
        verify_rows(ds, &batch, &ctx.fb);
        ctx.fb.release(&batch.sample.input_nodes);
        ctx.fb.check_invariants();
        Some(err)
    }

    #[test]
    fn every_failed_extraction_rolls_back_completely() {
        use gnndrive_storage::FaultPlan;
        use std::time::Duration;
        let ds = tiny_dataset(128);
        for serial in [false, true] {
            let mut ctx = context(&ds, true, true);
            ctx.sync_extract = serial;
            // Media faults wherever they land: at submit-side reaps, in the
            // final drain, on the re-read.
            let mut failures = 0;
            for k in 1..=8u64 {
                ds.ssd.set_fault_plan(
                    FaultPlan::new(0)
                        .with_read_fault_every(k)
                        .on_file(ds.features_file.id),
                );
                let seeds = [k as u32, 40 + k as u32, 90, 91];
                let once = RetryPolicy::none();
                if let Some(err) = extract_and_check_rollback(&ds, &mut ctx, once, &seeds) {
                    assert!(
                        matches!(err, ExtractError::Io(IoError::DeviceFault { .. })),
                        "serial {serial} k {k}: {err}"
                    );
                    failures += 1;
                }
            }
            assert!(
                failures > 0,
                "serial {serial}: every read failing must fail"
            );
            // A stalled device: the blocking reap gives up at the policy's
            // deadline in both settings.
            let hasty = RetryPolicy::default().with_op_timeout(Duration::from_millis(5));
            ds.ssd
                .set_fault_plan(FaultPlan::new(0).with_stall(0..2, Duration::from_millis(60)));
            let err = extract_and_check_rollback(&ds, &mut ctx, hasty, &[200, 201, 202]);
            assert!(
                matches!(err, Some(ExtractError::Io(IoError::Timeout))),
                "serial {serial}: expected a timeout, got {err:?}"
            );
        }
    }

    /// A ring wait past one per-op deadline is a transient timeout, not a
    /// failed batch: a stall longer than one `op_timeout` but well inside
    /// `max_attempts` of them is waited out in both settings, the rows are
    /// exact, and each timed-out wait counts as a retry.
    #[test]
    fn a_stall_inside_the_retry_budget_is_waited_out() {
        use gnndrive_storage::FaultPlan;
        use std::time::Duration;
        let ds = tiny_dataset(128);
        for serial in [false, true] {
            let mut ctx = context(&ds, true, true);
            ctx.sync_extract = serial;
            ctx.retry = RetryPolicy::default()
                .with_op_timeout(Duration::from_millis(10))
                .with_max_attempts(10);
            ds.ssd
                .set_fault_plan(FaultPlan::new(0).with_stall(0..2, Duration::from_millis(40)));
            let retries = catalog::CORE_EXTRACT_RETRIES.get();
            let out = extract_batch(&ctx, sample_of(&ds, &[200, 201, 202]));
            ds.ssd.clear_faults();
            let batch = out.unwrap_or_else(|e| panic!("serial {serial}: {e}"));
            verify_rows(&ds, &batch, &ctx.fb);
            assert!(
                catalog::CORE_EXTRACT_RETRIES.get() > retries,
                "serial {serial}: a timed-out wait must count as a retry"
            );
            ctx.fb.release(&batch.sample.input_nodes);
            ctx.fb.check_invariants();
        }
    }

    /// Serial means one read outstanding — checked by count, not clock: a
    /// device that queues a single request never refuses one.
    #[test]
    fn serial_extraction_keeps_one_read_in_flight() {
        let ds = tiny_dataset_on(
            128,
            SsdProfile {
                queue_depth: 1,
                channels: 1,
                read_latency: std::time::Duration::from_millis(1),
                ..SsdProfile::instant()
            },
        );
        for (serial, seeds) in [(true, [1, 2, 3, 4, 5]), (false, [6, 7, 8, 9, 10])] {
            let mut ctx = context(&ds, true, true);
            ctx.sync_extract = serial;
            let before = ds.ssd.stats().snapshot();
            let batch = extract_batch(&ctx, sample_of(&ds, &seeds)).unwrap();
            verify_rows(&ds, &batch, &ctx.fb);
            let after = ds.ssd.stats().snapshot();
            assert!(
                after.read_ops - before.read_ops >= 8,
                "need a multi-group batch"
            );
            let stalls = after.queue_full_stalls - before.queue_full_stalls;
            if serial {
                assert_eq!(stalls, 0, "a second read was submitted behind the first");
            } else {
                // The same device does refuse a deep ring's submissions.
                assert!(stalls > 0, "the counter must be able to move");
            }
        }
    }

    #[test]
    fn read_group_respects_max_bytes() {
        // 512 B rows, adjacent rows, 1 KiB cap → pairs.
        let groups = plan_read_groups(
            &[(0, 0), (1, 1), (2, 2), (3, 3)],
            512,
            512,
            1024,
            1 << 20,
            0,
        );
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.window_len <= 1024));
    }

    type Shape = Vec<(u64, usize, Vec<(NodeId, u32)>)>;

    fn shape(groups: &[ReadGroup]) -> Shape {
        let shape = |g: &ReadGroup| (g.window_start, g.window_len, g.rows.clone());
        groups.iter().map(shape).collect()
    }

    /// The planner before gap bridging: the oracle a free op reproduces.
    fn touching_only(
        rows: &[(NodeId, u32)],
        row_bytes: u64,
        align: u64,
        max_bytes: usize,
        file_len: u64,
    ) -> Shape {
        let mut out: Shape = Vec::new();
        for &r in rows {
            let off = u64::from(r.0) * row_bytes;
            let start = off / align * align;
            let end = ((off + row_bytes).div_ceil(align) * align).min(file_len);
            match out.last_mut() {
                Some((s, len, rs)) if start <= *s + *len as u64 && end - *s <= max_bytes as u64 => {
                    *len = (*len).max((end - *s) as usize);
                    rs.push(r);
                }
                _ => out.push((start, (end - start) as usize, vec![r])),
            }
        }
        out
    }

    /// The planner's contract over random batches × alignments × op costs:
    /// every row lands in exactly one group, in row order; windows are
    /// aligned, clamped at EOF and within the cap; a group's bridged rows
    /// ascend, miss its loaded rows, and with them are exactly the rows
    /// wholly inside its window; a free op plans exactly the touching-only
    /// groups; and bridging goes smallest gap first and stops where link
    /// time meets op time.
    #[test]
    fn read_group_planning_properties() {
        gnndrive_sync::rng::cases(400, |rng| {
            let row_bytes = [64u64, 96, 512, 516, 2048][rng.below(5)];
            let align = [1u64, 512, 4096][rng.below(3)];
            let num_rows = 1 + rng.below(2000) as u64;
            let file_len = (num_rows * row_bytes).div_ceil(SECTOR_SIZE) * SECTOR_SIZE;
            let mut picked: Vec<NodeId> = (0..rng.below(300))
                .map(|_| rng.below(num_rows as usize) as NodeId)
                .collect();
            picked.sort_unstable();
            picked.dedup();
            let rows: Vec<(NodeId, u32)> = picked
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i as u32))
                .collect();
            let max_bytes = [4096, 16 * 1024, 1 << 20][rng.below(3)];
            let cost = [0, 512, 2_896, 100_000][rng.below(4)];
            let groups = plan_read_groups(&rows, row_bytes, align, max_bytes, file_len, cost);

            let flat: Vec<_> = groups.iter().flat_map(|g| g.rows.iter().copied()).collect();
            assert_eq!(flat, rows, "every row once, in row order");
            for g in &groups {
                let end = g.window_start + g.window_len as u64;
                assert!(end <= file_len, "past EOF");
                assert_eq!(g.window_start % align, 0);
                assert!(
                    end.is_multiple_of(align) || end == file_len,
                    "unaligned end"
                );
                // Only a single row's own window may exceed the cap.
                assert!(g.window_len <= max_bytes || g.rows.len() == 1);
                let inside = |r: &NodeId| {
                    let off = u64::from(*r) * row_bytes;
                    g.window_start <= off && off + row_bytes <= end
                };
                assert!(g.rows.iter().all(|(r, _)| inside(r)));
                let bridged: Vec<NodeId> = g.bridged_rows(row_bytes).collect();
                assert!(bridged.is_sorted(), "bridged rows ascend");
                let mut read: Vec<NodeId> = g.rows.iter().map(|&(r, _)| r).collect();
                read.extend(&bridged);
                read.sort_unstable();
                assert!(read.windows(2).all(|w| w[0] < w[1]), "bridged a loaded row");
                let first = (g.window_start / row_bytes) as NodeId;
                let whole: Vec<NodeId> = (first..=(end / row_bytes) as NodeId)
                    .filter(inside)
                    .collect();
                assert_eq!(read, whole, "loaded ∪ bridged = the rows inside");
            }
            if cost == 0 {
                let oracle = touching_only(&rows, row_bytes, align, max_bytes, file_len);
                assert_eq!(shape(&groups), oracle);
                return;
            }

            // Uncapped, each group is one bridged run: check the stopping
            // rule against the plan's own op count and link bytes.
            let runs = plan_read_groups(&rows, row_bytes, align, usize::MAX, file_len, cost);
            let (ops, link) = (
                runs.len() as u64,
                runs.iter().map(|g| g.window_len as u64).sum::<u64>(),
            );
            // The widest gap read through: between a row's window and the
            // furthest end of the windows before it in its run.
            let widest = runs
                .iter()
                .flat_map(|g| {
                    let mut reach = g.window_start;
                    g.rows.iter().map(move |&(node, _)| {
                        let row = u64::from(node);
                        let start = row * row_bytes / align * align;
                        let end = ((row + 1) * row_bytes).div_ceil(align) * align;
                        let gap = start.saturating_sub(reach);
                        reach = reach.max(end.min(file_len));
                        gap
                    })
                })
                .max()
                .unwrap_or(0);
            if widest > 0 {
                assert!(link <= ops * cost + widest, "bridged past balance");
            }
            let between: Vec<u64> = runs
                .windows(2)
                .map(|w| w[1].window_start - (w[0].window_start + w[0].window_len as u64))
                .collect();
            if let Some(&next) = between.iter().min() {
                assert!(next > widest, "a wider gap was bridged first");
                let n = between.iter().filter(|&&g| g == next).count() as u64;
                assert!(
                    link + n * next > (ops - n) * cost + next,
                    "stopped short of balance"
                );
            }
        });
    }
}
