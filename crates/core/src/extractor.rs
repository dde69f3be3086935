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

use crate::feature_buffer::FeatureBufferManager;
use crate::staging::{StagingBuffer, StagingLease};
use gnndrive_device::{FeatureSlab, TransferEngine};
use gnndrive_graph::NodeId;
use gnndrive_sampling::MiniBatchSample;
use gnndrive_storage::{
    Admission, DeviceHealth, FileHandle, IoError, IoPriority, IoRing, RetryPolicy, SimSsd,
    SECTOR_SIZE,
};
use gnndrive_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Ablation: blocking reads instead of the async ring.
    pub sync_extract: bool,
    pub ring_depth: usize,
    pub max_joint_read_bytes: usize,
    /// Recovery policy for feature reads: bounded retries with exponential
    /// backoff on transient faults, and a per-wait deadline on the async
    /// ring so a stalled device surfaces as [`IoError::Timeout`] instead of
    /// parking the extractor forever.
    pub retry: RetryPolicy,
    /// Device-health tracker / circuit breaker, shared by every extractor
    /// against this device. Healthy batches use the async ring; Degraded
    /// ones route onto the bounded sync path; an open circuit fails fast
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
    /// Enqueue→dispatch share of the async reads this batch reaped.
    pub io_queue_ns: u64,
    /// Dispatch→complete (device service) share of those reads.
    pub io_service_ns: u64,
}

/// One joint-extraction read: a contiguous SSD window covering the feature
/// rows of one or more nodes. Each entry pairs the on-disk row index with
/// the node it belongs to — distinct once a packed layout remaps rows.
struct ReadGroup {
    window_start: u64,
    window_len: usize,
    rows: Vec<(u64, NodeId)>,
}

/// Plan the read windows for `rows` (`(row index, node)` pairs, sorted by
/// row): align to sectors under direct I/O and coalesce rows whose windows
/// touch, up to `max_bytes` per request (paper §4.4 "Access Granularity").
fn plan_read_groups(
    rows: &[(u64, NodeId)],
    row_bytes: u64,
    align: u64,
    max_bytes: usize,
    file_len: u64,
) -> Vec<ReadGroup> {
    let mut groups: Vec<ReadGroup> = Vec::new();
    for &(row, node) in rows {
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
                last.rows.push((row, node));
                continue;
            }
        }
        groups.push(ReadGroup {
            window_start: start,
            window_len: (end - start) as usize,
            rows: vec![(row, node)],
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

/// Blocking feature read under the context's [`RetryPolicy`]: transient
/// faults are retried with exponential backoff (counted in
/// `core.extract.retries`) until the policy's attempt budget runs out.
///
/// Every successful device read is checksum-verified before its bytes can
/// reach a feature slab; a mismatch surfaces as [`IoError::Corrupt`], which
/// is transient, so the retry loop re-reads from the device instead of
/// serving poisoned bytes. Each attempt's outcome feeds the shared
/// [`DeviceHealth`] window.
fn read_with_retries(ctx: &ExtractorContext, offset: u64, buf: &mut [u8]) -> Result<(), IoError> {
    let retries = telemetry::counter("core.extract.retries");
    let direct = ctx.direct_io || ctx.gpu_direct;
    ctx.retry.run(
        || retries.inc(),
        |_| {
            let out = ctx
                .ssd
                .read_blocking_prio(ctx.features_file, offset, buf, direct, ctx.io_priority)
                .and_then(|()| {
                    ctx.ssd
                        .verify(ctx.features_file, offset, buf)
                        .map_err(IoError::from)
                });
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
/// admission gate: Healthy batches use the async ring; a Degraded device
/// routes the batch onto the bounded sync path (blocking reads, no deep
/// queue to pile congestion onto a struggling device); an open circuit
/// fails the batch fast with [`ExtractError::CircuitOpen`] — except for
/// the one half-open probe per cooldown, which runs on the sync path and
/// reports its outcome back to the breaker.
pub fn extract_batch(
    ctx: &ExtractorContext,
    sample: MiniBatchSample,
) -> Result<ExtractedBatch, ExtractError> {
    match ctx.health.admit() {
        Admission::Normal => extract_batch_inner(ctx, sample, false),
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

fn extract_batch_inner(
    ctx: &ExtractorContext,
    sample: MiniBatchSample,
    force_sync: bool,
) -> Result<ExtractedBatch, ExtractError> {
    let _busy = telemetry::state(telemetry::State::Compute);
    // Drain any wait time a previous occupant of this thread accumulated:
    // from here to the return, the thread-local accumulator belongs to
    // this batch (one extractor owns one batch start-to-finish).
    let _ = telemetry::waits_take();
    let mut plan = ctx.fb.plan_batch(&sample.input_nodes);
    let loaded_nodes = plan.to_load.len();

    // Slot lookup for nodes we load (position-aligned with input_nodes).
    let slot_of: HashMap<NodeId, u32> = plan
        .to_load
        .iter()
        .map(|&(i, n)| (n, plan.aliases[i]))
        .collect();

    // Map nodes to on-disk rows (identity without a packed layout) and
    // sort by row for coalescing and sequential-ish access.
    let mut to_load: Vec<(u64, NodeId)> = plan
        .to_load
        .iter()
        .map(|&(_, n)| {
            let row = match &ctx.remap {
                Some(r) => r[n as usize] as u64,
                None => n as u64,
            };
            (row, n)
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

    let slab: Arc<FeatureSlab> = Arc::clone(ctx.fb.slab());

    // Ablation path: synchronous extraction — one blocking read per group,
    // one blocking transfer per node, everything on the critical path
    // (what PyG+/Ginex do; isolates the contribution of async extraction).
    // Also the degraded-mode path: a struggling device gets bounded,
    // serialized load instead of a deep async queue.
    if ctx.sync_extract || force_sync {
        let mut buf = Vec::new();
        for group in &groups {
            let _lease = ctx
                .staging
                .as_ref()
                .map(|s| s.acquire(group.window_len as u64));
            buf.resize(group.window_len, 0);
            let read = {
                // Attribution: on the sync path the whole blocking read
                // (including retry backoff) sits on the critical path — the
                // paper's 𝔒2 in its purest form.
                let _wait = telemetry::wait_timer(telemetry::WaitKind::SyncRead);
                read_with_retries(ctx, group.window_start, &mut buf)
            };
            if let Err(e) = read {
                ctx.fb.abort_batch(&plan, &sample.input_nodes);
                return Err(e.into());
            }
            // The sync path pays each host→device copy inline; the span
            // keeps stage coverage identical to the async path's tail.
            let _tspan = ctx
                .transfer
                .as_ref()
                .map(|_| telemetry::span("transfer", sample.batch_id));
            for &(disk_row, node) in &group.rows {
                let row = row_from_window(&buf, group.window_start, disk_row, row_bytes);
                if let Some(engine) = &ctx.transfer {
                    let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
                    engine.pay_blocking(row_bytes);
                }
                slab.write_row(slot_of[&node], &row);
                ctx.fb.publish(node);
            }
        }
        if let Err(node) = ctx.fb.wait_ready(&mut plan) {
            ctx.fb.abort_batch(&plan, &sample.input_nodes);
            return Err(ExtractError::DependencyAborted(node));
        }
        return Ok(ExtractedBatch {
            sample,
            aliases: plan.aliases,
            loaded_nodes,
            waits: telemetry::waits_take(),
            io_queue_ns: 0,
            io_service_ns: 0,
        });
    }

    let ring_direct = ctx.direct_io || ctx.gpu_direct;
    let mut ring = IoRing::with_priority(
        Arc::clone(&ctx.ssd),
        ctx.ring_depth.max(1),
        ring_direct,
        ctx.io_priority,
    );
    let (xfer_tx, xfer_rx) = gnndrive_sync::queue::unbounded();
    let mut pending_groups: HashMap<u64, (ReadGroup, Option<Arc<StagingLease>>)> = HashMap::new();
    let mut inflight_transfers = 0usize;
    // Per-completion enqueue→dispatch vs dispatch→complete split, summed
    // across this batch's reaped reads (queue wait, service time).
    let io_split = std::cell::Cell::new((0u64, 0u64));

    // Completion handler for phase one: the instant a window lands, launch
    // phase two for each node it covers.
    let handle_load_completion =
        |c: gnndrive_storage::Completion,
         pending: &mut HashMap<u64, (ReadGroup, Option<Arc<StagingLease>>)>,
         inflight_transfers: &mut usize|
         -> Result<(), IoError> {
            let (q, s) = io_split.get();
            io_split.set((q.saturating_add(c.queue_ns), s.saturating_add(c.service_ns)));
            let (group, lease) = pending.remove(&c.user_data).expect("unknown group");
            // Media errors and checksum mismatches fall back to (retried)
            // blocking reads — the standard firmware-reread recovery path —
            // before giving up. Successful completions are verified here,
            // at the ring boundary, so silently corrupted windows never
            // reach a feature slab.
            let verified = match c.result {
                Ok(b) => match ctx.ssd.verify(ctx.features_file, group.window_start, &b) {
                    Ok(()) => {
                        ctx.health.record_success();
                        Ok(b)
                    }
                    Err(e) => {
                        ctx.health.record_error();
                        Err(IoError::from(e))
                    }
                },
                Err(e) => {
                    ctx.health.record_error();
                    Err(e)
                }
            };
            let buf = match verified {
                Ok(b) => b,
                Err(_) => {
                    // The failed async attempt makes this re-read a retry:
                    // count it up front so fault recovery stays visible in
                    // `core.extract.retries` even when the blocking read
                    // succeeds immediately.
                    telemetry::counter("core.extract.retries").inc();
                    let mut retry = vec![0u8; group.window_len];
                    {
                        // The fallback re-read blocks like the sync path.
                        let _wait = telemetry::wait_timer(telemetry::WaitKind::SyncRead);
                        read_with_retries(ctx, group.window_start, &mut retry)?;
                    }
                    retry
                }
            };
            for &(disk_row, node) in &group.rows {
                let row = row_from_window(&buf, group.window_start, disk_row, row_bytes);
                let slot = slot_of[&node];
                match &ctx.transfer {
                    Some(engine) => {
                        // Async host→device copy; the staging lease rides
                        // along until the transfer completes.
                        let _ = &lease;
                        engine.submit(row, Arc::clone(&slab), slot, node as u64, xfer_tx.clone());
                        *inflight_transfers += 1;
                    }
                    None => {
                        // CPU training: write straight into the host
                        // feature buffer and publish immediately.
                        slab.write_row(slot, &row);
                        ctx.fb.publish(node);
                    }
                }
            }
            Ok(())
        };

    // Phase one: submit every group, reaping opportunistically to keep the
    // ring deep but bounded.
    for (next_group_id, group) in groups.into_iter().enumerate() {
        let next_group_id = next_group_id as u64;
        // Staging credits. Never block in `acquire` while this extractor
        // still holds leases with reapable load completions: with every
        // extractor doing that simultaneously the pool can never refill
        // (each would wait on credits the others' unreaped completions
        // hold). Reap-then-retry until we hold nothing, then block.
        let lease = match &ctx.staging {
            None => None,
            Some(staging) => loop {
                if let Some(l) = staging.try_acquire(group.window_len as u64) {
                    break Some(Arc::new(l));
                }
                if pending_groups.is_empty() {
                    // We hold no leases; blocking cannot self-deadlock.
                    break Some(Arc::new(staging.acquire(group.window_len as u64)));
                }
                ring.submit();
                match ring.wait_completion_deadline(Some(ctx.retry.deadline())) {
                    Ok(Some(c)) => {
                        if let Err(e) =
                            handle_load_completion(c, &mut pending_groups, &mut inflight_transfers)
                        {
                            ctx.fb.abort_batch(&plan, &sample.input_nodes);
                            return Err(e.into());
                        }
                    }
                    Ok(None) => {}
                    Err(e) => {
                        ctx.fb.abort_batch(&plan, &sample.input_nodes);
                        return Err(e.into());
                    }
                }
            },
        };
        loop {
            match ring.prepare_read(
                ctx.features_file,
                group.window_start,
                group.window_len,
                next_group_id,
            ) {
                Ok(()) => break,
                Err(IoError::RingFull) => {
                    ring.submit();
                    match ring.wait_completion_deadline(Some(ctx.retry.deadline())) {
                        Ok(Some(c)) => {
                            if let Err(e) = handle_load_completion(
                                c,
                                &mut pending_groups,
                                &mut inflight_transfers,
                            ) {
                                ctx.fb.abort_batch(&plan, &sample.input_nodes);
                                return Err(e.into());
                            }
                        }
                        Ok(None) => {}
                        Err(e) => {
                            ctx.fb.abort_batch(&plan, &sample.input_nodes);
                            return Err(e.into());
                        }
                    }
                }
                Err(e) => {
                    ctx.fb.abort_batch(&plan, &sample.input_nodes);
                    return Err(e.into());
                }
            }
        }
        pending_groups.insert(next_group_id, (group, lease));
        ring.submit();
        // Drain whatever already finished without blocking.
        while let Some(c) = ring.peek_completion() {
            if let Err(e) = handle_load_completion(c, &mut pending_groups, &mut inflight_transfers)
            {
                ctx.fb.abort_batch(&plan, &sample.input_nodes);
                return Err(e.into());
            }
        }
        // Reap transfer completions opportunistically too.
        while let Some(done) = xfer_rx.try_recv() {
            ctx.fb.publish(done.user_data as NodeId);
            inflight_transfers -= 1;
        }
    }
    // Wait for the remaining loads.
    ring.submit();
    loop {
        match ring.wait_completion_deadline(Some(ctx.retry.deadline())) {
            Ok(Some(c)) => {
                if let Err(e) =
                    handle_load_completion(c, &mut pending_groups, &mut inflight_transfers)
                {
                    ctx.fb.abort_batch(&plan, &sample.input_nodes);
                    return Err(e.into());
                }
            }
            Ok(None) => break,
            Err(e) => {
                ctx.fb.abort_batch(&plan, &sample.input_nodes);
                return Err(e.into());
            }
        }
    }
    debug_assert!(pending_groups.is_empty(), "all groups must complete");

    // Phase two tail: wait for outstanding transfers and publish. The
    // `transfer` span covers exactly the H2D drain left on the critical
    // path — under healthy overlap it is near-zero; in a trace, wide
    // transfer spans mean the device link is the bottleneck.
    if ctx.transfer.is_some() {
        let _span = telemetry::span("transfer", sample.batch_id);
        while inflight_transfers > 0 {
            let recv = {
                let _io = telemetry::state(telemetry::State::IoWait);
                let _wait = telemetry::wait_timer(telemetry::WaitKind::TransferWait);
                xfer_rx.recv()
            };
            let done = match recv {
                Ok(done) => done,
                Err(_) => {
                    ctx.fb.abort_batch(&plan, &sample.input_nodes);
                    return Err(ExtractError::TransferEngineGone);
                }
            };
            ctx.fb.publish(done.user_data as NodeId);
            inflight_transfers -= 1;
        }
    }

    // Wait for nodes other extractors were loading, resolving aliases.
    if let Err(node) = ctx.fb.wait_ready(&mut plan) {
        ctx.fb.abort_batch(&plan, &sample.input_nodes);
        return Err(ExtractError::DependencyAborted(node));
    }

    let (io_queue_ns, io_service_ns) = io_split.get();
    Ok(ExtractedBatch {
        sample,
        aliases: plan.aliases,
        loaded_nodes,
        waits: telemetry::waits_take(),
        io_queue_ns,
        io_service_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GnnDriveConfig;
    use gnndrive_device::TransferProfile;
    use gnndrive_graph::{Dataset, DatasetSpec};
    use gnndrive_sampling::{InMemTopo, NeighborSampler};
    use gnndrive_storage::{HealthConfig, HealthState, MemoryGovernor, SsdProfile};

    fn tiny_dataset(dim: usize) -> Dataset {
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
            SimSsd::new(SsdProfile::instant()),
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
        let rows: Vec<(u64, NodeId)> = vec![(0, 0), (1, 1), (2, 2), (3, 3)];
        let groups = plan_read_groups(&rows, 64, 512, 4096, 1 << 20);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].window_start, 0);
        assert_eq!(groups[0].window_len, 512);
        assert_eq!(groups[0].rows, rows);
        // A distant row gets its own group.
        let groups = plan_read_groups(&[(0, 0), (100, 100)], 64, 512, 4096, 1 << 20);
        assert_eq!(groups.len(), 2);
    }

    /// A packed layout decouples row from node id: adjacent *rows* coalesce
    /// even when their node ids are scattered, which is the whole point of
    /// hot-first packing.
    #[test]
    fn read_group_planning_coalesces_remapped_rows() {
        let groups = plan_read_groups(&[(0, 9131), (1, 4), (2, 777)], 64, 512, 4096, 1 << 20);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].rows, vec![(0, 9131), (1, 4), (2, 777)]);
    }

    #[test]
    fn read_group_clamps_at_eof_for_coarse_alignment() {
        // 512 B rows, 4 KiB (GDS) alignment, file of 3 sectors: the last
        // row's window must clamp to the file end.
        let groups = plan_read_groups(&[(2, 2)], 512, 4096, 1 << 20, 3 * 512);
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

    #[test]
    fn read_group_respects_max_bytes() {
        // 512 B rows, adjacent rows, 1 KiB cap → pairs.
        let groups = plan_read_groups(&[(0, 0), (1, 1), (2, 2), (3, 3)], 512, 512, 1024, 1 << 20);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.window_len <= 1024));
    }
}
