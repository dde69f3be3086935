//! Asynchronous two-phase feature extraction (paper §4.2, Algorithm 1).
//!
//! One extractor handles one mini-batch end to end:
//!
//! 1. **Plan** — pin every input node in the
//!    [`FeatureBufferManager`](crate::FeatureBufferManager): reuse what is
//!    resident, wait-list what another extractor is loading, and take LRU
//!    standby slots for the rest.
//! 2. **Phase one (SSD → staging)** — issue asynchronous direct-I/O reads
//!    through an io_uring-style [`IoRing`], one request per node (or per
//!    *joint-extraction* group when rows are smaller than a sector, §4.4),
//!    bounded by the staging buffer's byte credits.
//! 3. **Phase two (staging → device)** — the moment a node's load
//!    completes, submit its host→device transfer; never wait for the rest
//!    of the mini-batch. Publish the node's valid bit when the transfer
//!    lands.
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
//! landed row pays its host→device copy inline instead of handing it to
//! the transfer engine. Every check is shared: completions become bytes
//! only through [`gnndrive_storage::Completion::verified`], failed ones are
//! re-read under the [`RetryPolicy`], and the batch's one rollback is in
//! `extract_batch_inner`.

use crate::feature_buffer::{ExtractPlan, FeatureBufferManager};
use crate::staging::{StagingBuffer, StagingLease};
use gnndrive_device::{TransferDone, TransferEngine};
use gnndrive_graph::NodeId;
use gnndrive_sampling::MiniBatchSample;
use gnndrive_storage::{
    Admission, DeviceHealth, FileHandle, IoError, IoPriority, IoRing, RetryPolicy, SimSsd,
    SECTOR_SIZE,
};
use gnndrive_sync::queue::{Receiver, Sender};
use gnndrive_telemetry as telemetry;
use std::sync::{Arc, OnceLock};

/// Everything an extractor needs, shared across the extractor pool.
pub struct ExtractorContext {
    pub ssd: Arc<SimSsd>,
    pub features_file: FileHandle,
    /// `node id → row index` into `features_file` when the feature table
    /// was rewritten by the layout packer (`gnndrive-graph`'s
    /// `pack_features`); `None` means the natural layout (row = node id).
    /// Read planning sorts and coalesces by *row*, so a packed layout
    /// turns hot-node scatter into dense prefix reads.
    pub remap: Option<Arc<Vec<u32>>>,
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
    /// The host→device transfer engine hung up with transfers still in
    /// flight (its thread is gone); the batch cannot be published.
    TransferEngineGone,
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
            ExtractError::TransferEngineGone => {
                write!(f, "transfer engine shut down with transfers in flight")
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
            ExtractError::TransferEngineGone => None,
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
/// rows of one or more nodes. Each entry is the on-disk row index, the node
/// it belongs to (distinct once a packed layout remaps rows) and the
/// feature-buffer slot the plan pinned for it.
struct ReadGroup {
    window_start: u64,
    window_len: usize,
    rows: Vec<(u64, NodeId, u32)>,
}

/// Plan the read windows for `rows` (`(row index, node, slot)`, sorted by
/// row): align to sectors under direct I/O and coalesce rows whose windows
/// touch, up to `max_bytes` per request (paper §4.4 "Access Granularity").
fn plan_read_groups(
    rows: &[(u64, NodeId, u32)],
    row_bytes: u64,
    align: u64,
    max_bytes: usize,
    file_len: u64,
) -> Vec<ReadGroup> {
    let mut groups: Vec<ReadGroup> = Vec::new();
    for &(row, node, slot) in rows {
        let off = row * row_bytes;
        let (start, end) = if align > 1 {
            (
                off / align * align,
                // Clamp the aligned window at EOF (the file itself is
                // sector-aligned, so the clamped window stays direct-I/O
                // legal even when align > SECTOR_SIZE, e.g. GDS's 4 KiB).
                ((off + row_bytes).div_ceil(align) * align).min(file_len),
            )
        } else {
            (off, off + row_bytes)
        };
        if let Some(last) = groups.last_mut() {
            let last_end = last.window_start + last.window_len as u64;
            let merged_len = (end - last.window_start) as usize;
            if start <= last_end && merged_len <= max_bytes {
                last.window_len = last.window_len.max(merged_len);
                last.rows.push((row, node, slot));
                continue;
            }
        }
        groups.push(ReadGroup {
            window_start: start,
            window_len: (end - start) as usize,
            rows: vec![(row, node, slot)],
        });
    }
    groups
}

/// Decode on-disk row `row` out of a group window buffer.
fn row_from_window(buf: &[u8], window_start: u64, row: u64, row_bytes: u64) -> Vec<f32> {
    let off = (row * row_bytes - window_start) as usize;
    let bytes = &buf[off..off + row_bytes as usize];
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// `core.extract.retries`, looked up once per process: the registry lookup
/// hashes the name under a lock, and this sits on the per-read path.
fn extract_retries() -> &'static telemetry::Counter {
    static RETRIES: OnceLock<telemetry::Counter> = OnceLock::new();
    RETRIES.get_or_init(|| telemetry::counter("core.extract.retries"))
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
        || extract_retries().inc(),
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
    match ctx.health.admit() {
        Admission::Normal => extract_batch_inner(ctx, sample, ctx.sync_extract),
        Admission::Sync => extract_batch_inner(ctx, sample, true),
        Admission::FailFast => Err(ExtractError::CircuitOpen),
        Admission::Probe => {
            let out = extract_batch_inner(ctx, sample, true);
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
    sample: MiniBatchSample,
    serial: bool,
) -> Result<ExtractedBatch, ExtractError> {
    let _busy = telemetry::state(telemetry::State::Compute);
    // Drain any wait time a previous occupant of this thread accumulated:
    // from here to the return, the thread-local accumulator belongs to
    // this batch (one extractor owns one batch start-to-finish).
    let _ = telemetry::waits_take();
    let mut plan = ctx.fb.plan_batch(&sample.input_nodes);
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

/// The loads of one batch: Algorithm 1's state, owned by one thread.
struct Loads<'a> {
    ctx: &'a ExtractorContext,
    batch_id: u64,
    /// One read in flight and copies paid inline (module docs).
    serial: bool,
    row_bytes: u64,
    ring: IoRing,
    /// Submitted groups by group id (the ring's `user_data`), each with the
    /// staging credits its window occupies; `None` once reaped.
    groups: Vec<Option<(ReadGroup, Option<StagingLease>)>>,
    xfer_tx: Sender<TransferDone>,
    xfer_rx: Receiver<TransferDone>,
    inflight_transfers: usize,
    /// Enqueue→dispatch and dispatch→complete time, summed over the
    /// completions reaped so far.
    io_queue_ns: u64,
    io_service_ns: u64,
}

impl Loads<'_> {
    /// Reap one load completion — parking until one arrives (bounded by the
    /// retry policy's per-wait deadline) when `block`, else only if one is
    /// already there — and launch phase two for each node its window
    /// covers. `Ok(false)` means nothing was reaped; when blocking, that
    /// nothing of this batch is outstanding.
    fn reap(&mut self, block: bool) -> Result<bool, ExtractError> {
        let ctx = self.ctx;
        let completion = if block {
            self.ring.submit();
            self.ring
                .wait_completion_deadline(Some(ctx.retry.deadline()))?
        } else {
            self.ring.peek_completion()
        };
        let Some(c) = completion else {
            return Ok(false);
        };
        self.io_queue_ns = self.io_queue_ns.saturating_add(c.queue_ns);
        self.io_service_ns = self.io_service_ns.saturating_add(c.service_ns);
        let (group, lease) = self.groups[c.user_data as usize]
            .take()
            .expect("unknown group");
        // A completion becomes bytes only through the checksum gate, here
        // at the ring boundary, so silently corrupted windows never reach a
        // feature slab. Media errors and mismatches fall back to (retried)
        // blocking reads — the firmware-reread recovery path — before
        // giving up.
        let buf = match c.verified(&ctx.ssd, ctx.features_file, group.window_start) {
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
                extract_retries().inc();
                let mut retry = vec![0u8; group.window_len];
                let _wait = telemetry::wait_timer(telemetry::WaitKind::SyncRead);
                read_with_retries(ctx, group.window_start, &mut retry)?;
                retry
            }
        };
        // Serial pays each host→device copy inline; the span keeps stage
        // coverage identical to the asynchronous tail's.
        let _tspan = (self.serial && ctx.transfer.is_some())
            .then(|| telemetry::span("transfer", self.batch_id));
        for &(disk_row, node, slot) in &group.rows {
            let row = row_from_window(&buf, group.window_start, disk_row, self.row_bytes);
            match &ctx.transfer {
                Some(engine) if !self.serial => {
                    let (slab, reply) = (Arc::clone(ctx.fb.slab()), self.xfer_tx.clone());
                    engine.submit(row, slab, slot, node as u64, reply);
                    self.inflight_transfers += 1;
                }
                engine => {
                    // No asynchronous hop: pay the copy here if there is a
                    // device link (CPU training and GPUDirect have none),
                    // write the feature buffer and publish immediately.
                    if let Some(engine) = engine {
                        let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
                        engine.pay_blocking(self.row_bytes);
                    }
                    ctx.fb.slab().write_row(slot, &row);
                    ctx.fb.publish(node);
                }
            }
        }
        // Staging credits return at hand-off, not when the transfers land.
        drop(lease);
        Ok(true)
    }
}

/// Phases one and two for the nodes `plan` says this extractor loads.
/// Returns the batch's (queue, service) I/O time split.
fn load(
    ctx: &ExtractorContext,
    plan: &ExtractPlan,
    batch_id: u64,
    serial: bool,
) -> Result<(u64, u64), ExtractError> {
    // Map nodes to on-disk rows (identity without a packed layout) and
    // sort by row for coalescing and sequential-ish access.
    let mut to_load: Vec<(u64, NodeId, u32)> = plan
        .to_load
        .iter()
        .map(|&(i, n)| {
            let row = match &ctx.remap {
                Some(r) => r[n as usize] as u64,
                None => n as u64,
            };
            (row, n, plan.aliases[i])
        })
        .collect();
    to_load.sort_unstable();
    let row_bytes = (ctx.feat_dim * 4) as u64;
    // Access granularity: 4 KiB under GPUDirect Storage (its hard
    // requirement, §4.4), one sector under plain direct I/O, byte-exact
    // when buffered.
    let align = if ctx.gpu_direct {
        4096
    } else if ctx.direct_io {
        SECTOR_SIZE
    } else {
        1
    };
    let groups = plan_read_groups(
        &to_load,
        row_bytes,
        align,
        ctx.max_joint_read_bytes
            .max(row_bytes as usize)
            .max(align as usize),
        ctx.features_file.len,
    );

    let (xfer_tx, xfer_rx) = gnndrive_sync::queue::unbounded();
    let mut loads = Loads {
        ctx,
        batch_id,
        serial,
        row_bytes,
        ring: IoRing::with_priority(
            Arc::clone(&ctx.ssd),
            ctx.ring_depth.max(1),
            ctx.direct_io || ctx.gpu_direct,
            ctx.io_priority,
        ),
        groups: Vec::with_capacity(groups.len()),
        xfer_tx,
        xfer_rx,
        inflight_transfers: 0,
        io_queue_ns: 0,
        io_service_ns: 0,
    };

    // Phase one: submit every group, reaping as we go to keep the ring
    // deep but bounded.
    for group in groups {
        // Staging credits. Never block in `acquire` while this extractor
        // still holds leases with reapable load completions: with every
        // extractor doing that simultaneously the pool can never refill
        // (each would wait on credits the others' unreaped completions
        // hold). Reap-then-retry until we hold nothing, then block.
        let lease = match &ctx.staging {
            None => None,
            Some(staging) => loop {
                if let Some(l) = staging.try_acquire(group.window_len as u64) {
                    break Some(l);
                }
                if !loads.reap(true)? {
                    // We hold no leases; blocking cannot self-deadlock.
                    break Some(staging.acquire(group.window_len as u64));
                }
            },
        };
        let id = loads.groups.len() as u64;
        let (start, len) = (group.window_start, group.window_len);
        while let Err(e) = loads.ring.prepare_read(ctx.features_file, start, len, id) {
            match e {
                IoError::RingFull => loads.reap(true)?,
                e => return Err(e.into()),
            };
        }
        loads.groups.push(Some((group, lease)));
        loads.ring.submit();
        // Serial: wait until the read just submitted has landed, so one is
        // in flight at a time. Otherwise drain whatever already finished
        // without blocking.
        while loads.reap(serial)? {}
        // Reap transfer completions opportunistically too.
        while let Some(done) = loads.xfer_rx.try_recv() {
            ctx.fb.publish(done.user_data as NodeId);
            loads.inflight_transfers -= 1;
        }
    }
    // Wait for the remaining loads.
    while loads.reap(true)? {}
    debug_assert!(
        loads.groups.iter().all(Option::is_none),
        "all groups must complete"
    );
    // Dropping our sender here leaves the engine's in-flight jobs holding
    // the only ones, so a dead engine disconnects the channel below.
    let Loads {
        xfer_rx,
        mut inflight_transfers,
        io_queue_ns,
        io_service_ns,
        ..
    } = loads;

    // Phase two tail: wait for outstanding transfers and publish. The
    // `transfer` span covers exactly the H2D drain left on the critical
    // path — under healthy overlap it is near-zero; in a trace, wide
    // transfer spans mean the device link is the bottleneck.
    if ctx.transfer.is_some() && !serial {
        let _span = telemetry::span("transfer", batch_id);
        while inflight_transfers > 0 {
            let done = {
                let _io = telemetry::state(telemetry::State::IoWait);
                let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
                xfer_rx.recv()
            }
            .map_err(|_| ExtractError::TransferEngineGone)?;
            ctx.fb.publish(done.user_data as NodeId);
            inflight_transfers -= 1;
        }
    }
    Ok((io_queue_ns, io_service_ns))
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
        let retries_before = telemetry::counter("core.extract.retries").get();
        let faults_before = telemetry::counter("storage.faults").get();
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
            telemetry::counter("core.extract.retries").get() > retries_before,
            "retry attempts must be counted"
        );
        assert!(
            telemetry::counter("storage.faults").get() > faults_before,
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
        let rows: Vec<(u64, NodeId, u32)> = vec![(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)];
        let groups = plan_read_groups(&rows, 64, 512, 4096, 1 << 20);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].window_start, 0);
        assert_eq!(groups[0].window_len, 512);
        assert_eq!(groups[0].rows, rows);
        // A distant row gets its own group.
        let groups = plan_read_groups(&[(0, 0, 0), (100, 100, 1)], 64, 512, 4096, 1 << 20);
        assert_eq!(groups.len(), 2);
    }

    /// A packed layout decouples row from node id: adjacent *rows* coalesce
    /// even when their node ids are scattered, which is the whole point of
    /// hot-first packing.
    #[test]
    fn read_group_planning_coalesces_remapped_rows() {
        let groups = plan_read_groups(
            &[(0, 9131, 5), (1, 4, 6), (2, 777, 7)],
            64,
            512,
            4096,
            1 << 20,
        );
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].rows, vec![(0, 9131, 5), (1, 4, 6), (2, 777, 7)]);
    }

    #[test]
    fn read_group_clamps_at_eof_for_coarse_alignment() {
        // 512 B rows, 4 KiB (GDS) alignment, file of 3 sectors: the last
        // row's window must clamp to the file end.
        let groups = plan_read_groups(&[(2, 2, 0)], 512, 4096, 1 << 20, 3 * 512);
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
        let detected_before = telemetry::counter("storage.integrity.detected").get();
        let batch = extract_batch(&ctx, sample_of(&ds, &[40, 41, 42, 43, 44])).unwrap();
        ds.ssd.clear_faults();
        verify_rows(&ds, &batch, &ctx.fb);
        assert!(
            telemetry::counter("storage.integrity.detected").get() > detected_before,
            "bit flips at 50% must have corrupted at least one window"
        );
        assert_eq!(
            telemetry::counter("storage.integrity.escaped").get(),
            0,
            "no corruption may escape verification"
        );
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

    /// Extraction through a packed feature layout must return exactly the
    /// rows the natural layout would: the remap points every node at its
    /// relocated row, and the packed file's CRC shadows verify at the new
    /// offsets — on both the async ring and the sync ablation path.
    #[test]
    fn packed_layout_extracts_identical_rows() {
        use gnndrive_graph::pack_features;
        let ds = tiny_dataset(64);
        let n = ds.spec.num_nodes;
        // Reverse-id frequency: the packed order is the exact reverse of
        // the natural one, so every row moves.
        let freq: Vec<u64> = (0..n as u64).collect();
        let first = vec![0u64; n];
        let layout = pack_features(&ds, &freq, &first).expect("pack");
        assert_ne!(layout.row_of(0), 0, "packing must actually move rows");
        for sync in [false, true] {
            let mut ctx = context(&ds, true, true);
            ctx.features_file = layout.file;
            ctx.remap = Some(Arc::clone(&layout.remap));
            ctx.sync_extract = sync;
            let sample = sample_of(&ds, &[1, 2, 3, 4, 5]);
            let batch = extract_batch(&ctx, sample).unwrap();
            verify_rows(&ds, &batch, &ctx.fb);
            ctx.fb.check_invariants();
        }
    }

    /// One loop, two settings: over every row size class × device mode ×
    /// feature layout, serial and asynchronous extraction of the same
    /// sample load the same nodes and leave bit-identical slab rows.
    #[test]
    fn serial_and_async_extraction_agree_bit_for_bit() {
        use gnndrive_graph::pack_features;
        const DIMS: [usize; 5] = [16, 24, 64, 128, 129];
        let stacks: Vec<_> = DIMS
            .iter()
            .map(|&dim| {
                let ds = tiny_dataset(dim);
                let n = ds.spec.num_nodes;
                // Reverse-id frequency: every row moves.
                let freq: Vec<u64> = (0..n as u64).collect();
                let layout = pack_features(&ds, &freq, &vec![0u64; n]).expect("pack");
                (ds, layout)
            })
            .collect();
        let mut case = 0usize;
        gnndrive_sync::rng::cases(40, |rng| {
            let (ds, layout) = &stacks[case % 5];
            let (mode, packed) = (case / 5 % 4, case / 20 == 1);
            case += 1;
            let mut seeds: Vec<u32> = (0..1 + rng.below(12))
                .map(|_| rng.below(ds.spec.num_nodes) as u32)
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            let extract = |serial: bool| {
                // GPU staged, CPU, GPUDirect, buffered.
                let mut ctx = context(ds, mode != 1, mode != 3);
                if mode == 2 {
                    ctx.gpu_direct = true;
                    ctx.staging = None;
                    ctx.transfer = None;
                }
                if packed {
                    ctx.features_file = layout.file;
                    ctx.remap = Some(Arc::clone(&layout.remap));
                }
                ctx.sync_extract = serial;
                let batch = extract_batch(&ctx, sample_of(ds, &seeds)).unwrap();
                ctx.fb.check_invariants();
                verify_rows(ds, &batch, &ctx.fb);
                let mut row = vec![0.0f32; ds.spec.feat_dim];
                let mut bits = Vec::new();
                for &alias in &batch.aliases {
                    ctx.fb.slab().read_row(alias, &mut row);
                    bits.extend(row.iter().map(|v| v.to_bits()));
                }
                (bits, batch.loaded_nodes)
            };
            assert_eq!(
                extract(false),
                extract(true),
                "dim {} mode {mode} packed {packed}",
                ds.spec.feat_dim
            );
        });
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
            &[(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)],
            512,
            512,
            1024,
            1 << 20,
        );
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.window_len <= 1024));
    }
}
