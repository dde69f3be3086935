//! The GNNDrive pipeline: samplers → extractors → trainer (paper §4.1,
//! Fig 4). The trainer also runs the release stage: it unpins a batch's
//! rows once the batch's optimizer step ends.
//!
//! Two queues connect the three stages; they carry only samples and slot
//! aliases, never feature payloads. The train queue is bounded; the extract
//! queue is bounded by the epoch's announce horizon, whose samples past
//! [`EXTRACT_QUEUE_CAP`] are charged to the host memory governor
//! (DESIGN.md §4 item 10). Samplers claim mini-batches from a shared cursor
//! and may finish out of order; extractors likewise. Mini-batch
//! *reordering* (§4.3) is therefore the default; setting
//! [`GnnDriveConfig::reorder`] to `false` makes the trainer restore
//! submission order (the ablation).
//!
//! An epoch boundary does not drain the pipeline (DESIGN.md §4 item 12):
//! while an epoch's last batches train, the same call samples and extracts
//! the next epoch's first [`TRAIN_QUEUE_CAP`] batches, and the next call
//! for that epoch starts with them in its train queue.

use crate::builder::PipelineBuilder;
use crate::checkpoint::{CheckpointError, TrainCheckpoint};
use crate::config::{GnnDriveConfig, EXTRACT_QUEUE_CAP, TRAIN_QUEUE_CAP};
use crate::error::Error;
use crate::extractor::{extract_announced, extract_batch, ExtractedBatch, ExtractorContext};
use crate::feature_buffer::{Announced, FeatureBufferManager};
use crate::staging::StagingBuffer;
use crate::system::{evaluate_model, sample_batches, EpochReport, TrainingSystem};
use gnndrive_device::{DeviceAlloc, FeatureSlab, GpuDevice};
use gnndrive_graph::{Dataset, NodeId};
use gnndrive_nn::{build_model, GnnModel};
use gnndrive_sampling::{
    AsyncTopo, BatchPlan, Block, MiniBatchSample, NeighborSampler, TopoReader,
};
use gnndrive_storage::{
    ChargeKind, DeviceHealth, IoPriority, MemCharge, MemoryGovernor, OomError, PageCache,
};
use gnndrive_sync::queue::{bounded, unbounded, Receiver};
use gnndrive_telemetry::{self as telemetry, catalog, HistSummary, State, ThreadClass};
use gnndrive_tensor::{Adam, Matrix, Optimizer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-epoch pipeline statistics (superset of [`EpochReport`]):
/// the report plus per-stage batch-latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    pub report: EpochReport,
    /// Per-batch latency distribution of each stage this epoch, in pipeline
    /// order: `sample`, `extract`, `train`, `release`.
    pub stages: Vec<(String, HistSummary)>,
    /// Critical-path bottleneck attribution for the epoch: summed per-batch
    /// wait/compute decomposition and the 𝔒1-vs-𝔒2 verdict (DESIGN.md §10).
    pub attribution: telemetry::AttributionReport,
    /// The per-batch records behind [`EpochStats::attribution`], in
    /// training-completion order — each one carries the conservation
    /// invariant (parts sum to the batch wall within the residual).
    pub batch_attribution: Vec<telemetry::BatchAttribution>,
    /// The most samples announced but not yet pinned at once: how far the
    /// samplers ran ahead of the extractors this epoch.
    pub horizon_peak: usize,
    /// Batches the call started with already extracted: the head the
    /// previous call extracted for this epoch (DESIGN.md §4 item 12).
    pub head_batches: usize,
}

impl EpochStats {
    /// Latency summary of `stage` (`sample`/`extract`/`train`/`release`).
    pub fn stage(&self, stage: &str) -> Option<&HistSummary> {
        self.stages.iter().find(|(n, _)| n == stage).map(|(_, s)| s)
    }
}

/// What one inference batch did and where its time went — the measurements
/// behind [`Pipeline::try_infer_detailed`], consumed by the serving tier's
/// per-request accounting.
#[derive(Debug, Clone, Default)]
pub struct InferenceOutcome {
    /// Predicted class per seed, in seed order.
    pub predictions: Vec<usize>,
    /// Distinct input nodes the neighborhood sample pulled in.
    pub sampled_nodes: usize,
    /// How many of those were actually loaded from SSD (the rest were
    /// feature-buffer hits).
    pub loaded_nodes: usize,
    /// Wall time of the extract phase (sampling + feature loads), in ns.
    pub extract_ns: u64,
    /// Wall time of the model forward pass, in ns.
    pub forward_ns: u64,
}

/// A batch's stage-boundary stamps on the pipeline clock (ns since the
/// pipeline was built), each taken once by the stage that crosses it and
/// carried with the batch down the queues — across calls, for a head batch.
#[derive(Clone, Copy, Default)]
struct Stamps {
    start: u64,
    sampled: u64,
    /// `PageFault` wait inside `start..sampled`.
    fault_ns: u64,
    extract_start: u64,
    extracted: u64,
}

/// What keeps a sampled batch in the epoch's horizon until an extractor
/// has pinned it: one of the [`EXTRACT_QUEUE_CAP`] uncharged places, or a
/// governor charge for the bytes it holds.
enum Hold<'a> {
    /// A place whose token the holder put in this channel; dropping the
    /// hold takes one back out.
    Place(&'a Receiver<()>),
    Charge {
        _bytes: MemCharge,
    },
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        if let Hold::Place(places) = self {
            // The holder's own token is queued, so this cannot come back
            // empty.
            let _ = places.try_recv();
        }
    }
}

/// Copy a sample's buffers to exact-size allocations, since it may wait in
/// the horizon for the rest of the epoch, and return the heap bytes it then
/// holds: what a sample beyond the uncharged places is charged. A copy, not
/// `shrink_to_fit`: the copies can fill the holes the sampler's scratch
/// left, where shrinking in place keeps each sample between them (≈1 MiB
/// more peak RSS on `host_extract`'s 45-batch horizon).
fn trim(s: &mut MiniBatchSample) -> u64 {
    s.seeds = s.seeds.to_vec();
    s.input_nodes = s.input_nodes.to_vec();
    for b in &mut s.blocks {
        b.edge_src = b.edge_src.to_vec();
        b.edge_dst = b.edge_dst.to_vec();
    }
    let words = s.seeds.len()
        + s.input_nodes.len()
        + s.blocks
            .iter()
            .map(|b| b.edge_src.len() + b.edge_dst.len())
            .sum::<usize>();
    (std::mem::size_of::<MiniBatchSample>() + s.blocks.len() * std::mem::size_of::<Block>()) as u64
        + 4 * words as u64
}

/// A batch whose extraction failed past recovery. It still reaches the
/// trainer, which counts it as skipped (graceful degradation, DESIGN.md §7).
struct Tombstone {
    error: String,
    stamps: Stamps,
}

/// The next epoch's first batches, extracted while an epoch's last ones
/// trained (DESIGN.md §4 item 12). Each batch still pins its rows; dropping
/// the head releases the batches it still holds.
struct Head {
    /// The epoch, and the training segment, whose plan the batches follow.
    epoch: u64,
    segment: Arc<Vec<NodeId>>,
    /// Ascending by plan position.
    batches: Vec<(ExtractedBatch, Stamps)>,
    fb: Arc<FeatureBufferManager>,
}

impl Drop for Head {
    fn drop(&mut self) {
        for (batch, _) in self.batches.drain(..) {
            self.fb.release(&batch.sample.input_nodes);
            catalog::PIPELINE_HEAD_DISCARDED.inc();
        }
    }
}

/// Whether the feature buffer lives on the device or in host memory.
enum FeatureBufferHome {
    Device(DeviceAlloc),
    Host(MemCharge),
}

impl FeatureBufferHome {
    /// Bytes reserved for the feature buffer, wherever it lives.
    fn bytes(&self) -> u64 {
        match self {
            FeatureBufferHome::Device(a) => a.bytes(),
            FeatureBufferHome::Host(c) => c.bytes(),
        }
    }
}

/// A fully wired GNNDrive training instance over one dataset and device.
pub struct Pipeline {
    cfg: GnnDriveConfig,
    ds: Arc<Dataset>,
    device: Arc<GpuDevice>,
    gpu_mode: bool,
    fb: Arc<FeatureBufferManager>,
    staging: Option<Arc<StagingBuffer>>,
    /// Training's topology reader: page faults ride the bulk lane.
    topo: Arc<dyn TopoReader>,
    /// Online inference's reader over the same cache: faults ride the serve
    /// lane, like its feature reads (DESIGN.md §11).
    serve_topo: Arc<dyn TopoReader>,
    model: GnnModel,
    opt: Adam,
    fb_home: FeatureBufferHome,
    _host_charges: Vec<MemCharge>,
    /// The host budget samplers charge for running past the extract queue.
    governor: Arc<MemoryGovernor>,
    /// Training set override for data-parallel segments (defaults to the
    /// dataset's full training set).
    train_segment: Arc<Vec<NodeId>>,
    /// Device-health tracker / circuit breaker shared by every extractor
    /// (and inference) against this pipeline's SSD.
    health: Arc<DeviceHealth>,
    /// Bottleneck attribution of the most recent epoch, kept so callers
    /// that only see the [`TrainingSystem`] trait (the CLI, harness bins)
    /// can still fold the verdict into their run reports.
    last_attribution: Option<telemetry::AttributionReport>,
    /// The clock every batch's `Stamps` are taken on.
    clock: Instant,
    /// The head the last training call extracted, if it still pins it.
    head: Option<Head>,
}

/// Construction failure: either host OOM (governor) or device OOM.
#[derive(Debug)]
pub enum BuildError {
    HostOom(OomError),
    DeviceOom(gnndrive_device::DeviceOom),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::HostOom(e) => write!(f, "host {e}"),
            BuildError::DeviceOom(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::HostOom(e) => Some(e),
            BuildError::DeviceOom(e) => Some(e),
        }
    }
}

impl Pipeline {
    /// Start building a pipeline over `ds` and `device`. See
    /// [`PipelineBuilder`] for the knobs; defaults are a GraphSAGE model
    /// with 16 hidden units, the paper's default config, GPU mode, an
    /// unlimited memory governor, and a fresh page cache.
    pub fn builder(ds: Arc<Dataset>, device: Arc<GpuDevice>) -> PipelineBuilder {
        PipelineBuilder::new(ds, device)
    }

    /// Wire a pipeline from its builder: charge host memory for the
    /// resident topology metadata and staging buffer, allocate the feature
    /// buffer on the device (GPU mode) or host (CPU mode), and open the
    /// on-SSD index array through the page cache for hop-batched sampling.
    ///
    /// `gpu_mode = false` selects the paper's CPU-based training
    /// architecture (§4.4): feature buffer in host memory, no staging hop,
    /// compute on the CPU model.
    pub(crate) fn from_builder(b: PipelineBuilder) -> Result<Self, BuildError> {
        let PipelineBuilder {
            ds,
            device,
            model_kind,
            hidden,
            cfg,
            gpu_mode,
            governor,
            page_cache,
        } = b;
        let governor = governor.unwrap_or_else(MemoryGovernor::unlimited);
        let page_cache = page_cache
            .unwrap_or_else(|| PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor)));
        // The page cache recovers from the same fault model the extractors
        // do; one policy governs both.
        page_cache.set_retry_policy(cfg.retry);
        let mut host_charges = Vec::new();
        // Host-resident structures the paper keeps in memory: indptr,
        // labels, train index.
        let resident = (ds.indptr.len() * 8 + ds.labels.len() * 4 + ds.train_idx.len() * 4) as u64;
        host_charges.push(governor.charge(resident).map_err(BuildError::HostOom)?);

        let dim = ds.spec.feat_dim;
        let slab = Arc::new(FeatureSlab::new(cfg.feature_buffer_slots, dim));
        let fb_home = if gpu_mode {
            FeatureBufferHome::Device(
                device
                    .memory
                    .alloc(slab.bytes())
                    .map_err(BuildError::DeviceOom)?,
            )
        } else {
            FeatureBufferHome::Host(governor.charge(slab.bytes()).map_err(BuildError::HostOom)?)
        };
        // Popularity classes for the standby list (DESIGN.md §4 item 10),
        // from the out-degrees installed beside `indptr`. They are read
        // once here: the mapping table keeps only each node's class.
        let fb = Arc::new(FeatureBufferManager::with_out_degrees(
            Arc::clone(&slab),
            &ds.out_degrees,
            &cfg,
        ));

        // GPUDirect mode has no host staging hop at all (§4.4); CPU mode
        // writes the host feature buffer directly.
        let staging = if gpu_mode && !cfg.gpu_direct {
            Some(StagingBuffer::new(cfg.staging_bytes(), &governor).map_err(BuildError::HostOom)?)
        } else {
            None
        };

        let reader = |prio| -> Arc<dyn TopoReader> {
            Arc::new(AsyncTopo::new(
                Arc::clone(&ds.indptr),
                Arc::clone(&page_cache),
                ds.indices_file,
                prio,
            ))
        };
        let (topo, serve_topo) = (reader(IoPriority::Bulk), reader(IoPriority::Serve));

        let model = build_model(
            model_kind,
            dim,
            hidden,
            ds.spec.num_classes,
            cfg.fanouts.len(),
            cfg.seed,
        );
        let train_segment = Arc::new(ds.train_idx.as_ref().clone());
        let health = Arc::new(DeviceHealth::new(cfg.health.clone()));
        Ok(Pipeline {
            cfg,
            ds,
            device,
            gpu_mode,
            fb,
            staging,
            topo,
            serve_topo,
            model,
            opt: Adam::new(0.003),
            fb_home,
            _host_charges: host_charges,
            governor,
            train_segment,
            health,
            last_attribution: None,
            clock: Instant::now(),
            head: None,
        })
    }

    /// Restrict training to a segment (multi-device data parallelism §4.3).
    /// Releases the extracted head of the old segment's next epoch.
    pub fn set_train_segment(&mut self, segment: Vec<NodeId>) {
        self.head = None;
        self.train_segment = Arc::new(segment);
    }

    pub fn feature_buffer(&self) -> &Arc<FeatureBufferManager> {
        &self.fb
    }

    /// The topology reader training samples through: an [`AsyncTopo`] on
    /// the bulk lane over the pipeline's page cache.
    pub fn topology(&self) -> &Arc<dyn TopoReader> {
        &self.topo
    }

    /// Bytes reserved for the feature buffer — against device memory in
    /// GPU mode, against the host governor in CPU mode.
    pub fn feature_buffer_bytes(&self) -> u64 {
        self.fb_home.bytes()
    }

    pub fn config(&self) -> &GnnDriveConfig {
        &self.cfg
    }

    /// The pipeline's device-health tracker: tests and operators inspect
    /// its [`state`](DeviceHealth::state), and chaos harnesses can drive
    /// it directly.
    pub fn device_health(&self) -> &Arc<DeviceHealth> {
        &self.health
    }

    pub fn model_mut(&mut self) -> &mut GnnModel {
        &mut self.model
    }

    /// The extraction context every read path of this pipeline shares;
    /// `io_priority` picks the device submission lane (training = Bulk,
    /// online inference = Serve).
    fn extractor_context(&self, io_priority: IoPriority) -> ExtractorContext {
        ExtractorContext {
            ssd: Arc::clone(&self.ds.ssd),
            features_file: self.ds.features_file,
            remap: None,
            feat_dim: self.ds.spec.feat_dim,
            fb: Arc::clone(&self.fb),
            staging: self.staging.clone(),
            transfer: if self.gpu_mode && !self.cfg.gpu_direct {
                Some(Arc::clone(&self.device.transfer))
            } else {
                None
            },
            direct_io: self.cfg.direct_io,
            gpu_direct: self.cfg.gpu_direct,
            sync_extract: self.cfg.sync_extract,
            ring_depth: self.cfg.ring_depth,
            max_joint_read_bytes: self.cfg.max_joint_read_bytes,
            retry: self.cfg.retry,
            health: Arc::clone(&self.health),
            io_priority,
        }
    }

    /// Disk-path inference: sample `seeds`' neighborhoods, extract their
    /// features through the asynchronous machinery (exactly like training,
    /// including buffer reuse), and return the predicted class per seed.
    ///
    /// This is the deployment-shaped API a downstream user of the library
    /// calls after training; it exercises the same extract path the paper
    /// optimizes, so inference inherits the same I/O behaviour — except
    /// that its reads ride the device's *serve* lane, which jumps ahead of
    /// queued bulk training reads.
    ///
    /// Panics if extraction fails past all recovery; the serving tier uses
    /// [`Pipeline::try_infer`] to get the failure as a typed error instead.
    pub fn infer(&mut self, seeds: &[NodeId]) -> Vec<usize> {
        self.try_infer(seeds).expect("inference extraction")
    }

    /// Fallible [`Pipeline::infer`]: extraction failures (device faults
    /// past the retry budget, an open circuit breaker, aborted
    /// dependencies) surface as [`Error`] instead of panicking.
    pub fn try_infer(&mut self, seeds: &[NodeId]) -> Result<Vec<usize>, Error> {
        self.try_infer_detailed(seeds).map(|o| o.predictions)
    }

    /// [`Pipeline::try_infer`] plus the measurements a serving tier needs:
    /// how much work the batch did and where its wall time went. Releases
    /// the extracted head of the next training epoch.
    pub fn try_infer_detailed(&mut self, seeds: &[NodeId]) -> Result<InferenceOutcome, Error> {
        self.head = None;
        if seeds.is_empty() {
            return Ok(InferenceOutcome::default());
        }
        let sampler = NeighborSampler::new(Arc::clone(&self.serve_topo), self.cfg.fanouts.clone());
        let sample = sampler.sample(u64::MAX, seeds, self.cfg.seed ^ 0x17FE);
        let ctx = self.extractor_context(IoPriority::Serve);
        let t_extract = Instant::now();
        let batch = extract_batch(&ctx, sample)?;
        let extract_ns = t_extract.elapsed().as_nanos() as u64;
        let t_forward = Instant::now();
        let (_r, _c, data) = self.fb.slab().gather(&batch.aliases);
        let input = Matrix::from_vec(batch.aliases.len(), self.ds.spec.feat_dim, data);
        let logits = self.model.forward(&batch.sample.blocks, &input);
        self.fb.release(&batch.sample.input_nodes);
        Ok(InferenceOutcome {
            predictions: gnndrive_tensor::ops::argmax_rows(&logits),
            sampled_nodes: batch.sample.input_nodes.len(),
            loaded_nodes: batch.loaded_nodes,
            extract_ns,
            forward_ns: t_forward.elapsed().as_nanos() as u64,
        })
    }

    /// [`Pipeline::train_epoch_range_with_sync`] without a step hook — the
    /// resume path: a checkpoint taken after batch *k* continues the epoch
    /// from batch *k* without re-training the prefix.
    pub fn train_epoch_range(
        &mut self,
        epoch: u64,
        start_batch: usize,
        max_batches: Option<usize>,
    ) -> EpochStats {
        self.train_epoch_range_with_sync(epoch, start_batch, max_batches, |_| {})
    }

    /// The general epoch driver: run batches `start_batch ..` of epoch
    /// `epoch`'s plan (at most `max_batches` of them), invoking `on_step`
    /// after each optimizer step (the data-parallel gradient synchronizer).
    ///
    /// Besides the [`EpochReport`], the returned [`EpochStats`] carries
    /// per-stage batch-latency percentiles; the same distributions are also
    /// recorded into the metrics registry (`pipeline.sample` ...), and when
    /// tracing is enabled every batch leaves `sample`/`extract`/`train`/
    /// `release` spans (plus `transfer` inside extraction).
    ///
    /// Each batch carries its own `Stamps` down the queues, and a batch
    /// whose extraction fails reaches the trainer as a `Tombstone`, so
    /// every planned batch yields exactly one trainer message. The report,
    /// the stage percentiles and the attribution are all derived from the
    /// trainer's records once the epoch ends.
    ///
    /// The epoch boundary does not drain the pipeline (DESIGN.md §4 item
    /// 12). Once the samplers have taken every batch of this call, they
    /// sample the first [`TRAIN_QUEUE_CAP`] batches of epoch `epoch + 1`
    /// (at most `max_batches`) and announce them behind every batch of this
    /// epoch
    /// ([`Horizon::announce_next`](crate::feature_buffer::Horizon::announce_next));
    /// the extractors reach them after every batch of this epoch, and the
    /// call returns once they have landed, still pinned. A call for
    /// `epoch + 1` from batch 0 on the same training segment starts with
    /// them in its train queue; any other call, a segment change, inference
    /// and drop release them. A head batch whose extraction fails is no
    /// tombstone: the next call samples it again.
    ///
    /// Pin bound: at most `num_extractors + TRAIN_QUEUE_CAP + 1` batches
    /// pin feature-buffer rows at once — one per extractor, the train queue
    /// and the batch training — as without the head. The trainer releases
    /// each batch as its step ends, so a trained batch pins nothing. A head
    /// batch of the next epoch pins only on a permit from the trainer,
    /// granted while the permits plus this epoch's batches not yet trained
    /// stay under that bound, and a head the call started with waits in
    /// the train queue.
    /// The head also leaves the `Ne × Mb` reservation whole: it is only as
    /// long as the buffer holds a worst-case batch per extractor besides
    /// it, so no extraction waits on slots only a head could free.
    pub fn train_epoch_range_with_sync(
        &mut self,
        epoch: u64,
        start_batch: usize,
        max_batches: Option<usize>,
        mut on_step: impl FnMut(&mut GnnModel) + Send,
    ) -> EpochStats {
        let plan = &BatchPlan::new(
            &self.train_segment,
            self.cfg.batch_size,
            epoch,
            self.cfg.seed,
        );
        let full_batches = plan.num_batches();
        let first = start_batch.min(full_batches);
        let end = full_batches.min(first.saturating_add(max_batches.unwrap_or(usize::MAX)));
        let batches = end - first;
        // Only this epoch from its first batch, on the segment it was
        // planned over, trains the head the last call extracted; the
        // batches past `end`, or the whole head for any other call, are
        // released here.
        let started: Vec<(ExtractedBatch, Stamps)> = match self.head.take() {
            Some(mut head)
                if head.epoch == epoch
                    && first == 0
                    && Arc::ptr_eq(&head.segment, &self.train_segment) =>
            {
                let trained = head
                    .batches
                    .partition_point(|(b, _)| b.sample.batch_id < end as u64);
                head.batches.drain(..trained).collect()
            }
            _ => Vec::new(),
        };
        if batches == 0 {
            return EpochStats::default();
        }
        let head_batches = started.len();
        let taken = &started
            .iter()
            .map(|(b, _)| b.sample.batch_id)
            .collect::<Vec<u64>>();
        let to_sample = |i: usize| !taken.contains(&(i as u64));
        let first_sampled = (first..end).find(|&i| to_sample(i)).unwrap_or(end);

        let sampler = &NeighborSampler::new(Arc::clone(&self.topo), self.cfg.fanouts.clone());
        let ctx = &self.extractor_context(IoPriority::Bulk);
        // The epoch's announce horizon: a sample's input rows are announced
        // from the moment its sampler hands it to the extract queue until
        // an extractor has pinned them (DESIGN.md §4 item 10). Every queued
        // handle borrows it, so none outlives the epoch.
        let horizon = &ctx.fb.horizon(first_sampled as u64..end as u64);
        // Samplers run ahead of the extractors (DESIGN.md §4 item 10): the
        // first `EXTRACT_QUEUE_CAP` announced samples each hold a place, a
        // token in this channel; past those, a sample is announced only
        // while the governor grants its bytes without reclaiming and the
        // announced rows stay under twice the buffer's slots. Otherwise the
        // sampler waits for a place, as at a full queue.
        let places = &bounded::<()>(EXTRACT_QUEUE_CAP);
        let max_announced_rows = 2 * ctx.fb.num_slots();
        let governor = &self.governor;
        let admit = &|sample: &mut MiniBatchSample| {
            if places.0.try_send(()).is_ok() {
                return Some(Hold::Place(&places.1));
            }
            if ctx.fb.announced_rows() < max_announced_rows {
                if let Some(c) = governor.try_charge(trim(sample), ChargeKind::Anonymous) {
                    return Some(Hold::Charge { _bytes: c });
                }
            }
            places.0.send(()).ok().map(|()| Hold::Place(&places.1))
        };

        let num_samplers = self.cfg.num_samplers.max(1);
        let num_extractors = self.cfg.num_extractors.max(1);
        // The next epoch's head and the pins it may take (see above).
        let next_epoch = epoch.wrapping_add(1);
        let next_plan = &BatchPlan::new(
            &self.train_segment,
            self.cfg.batch_size,
            next_epoch,
            self.cfg.seed,
        );
        // A worst-case batch (`Mb`): each layer keeps its destinations and
        // adds up to `fanout` sources for each.
        let worst_batch = self
            .cfg
            .fanouts
            .iter()
            .fold(self.cfg.batch_size, |n, &f| n.saturating_mul(1 + f))
            .clamp(1, self.ds.spec.num_nodes.max(1));
        let head_len = TRAIN_QUEUE_CAP
            .min(next_plan.num_batches())
            .min(max_batches.unwrap_or(usize::MAX))
            .min((ctx.fb.num_slots() / worst_batch).saturating_sub(num_extractors));
        let pin_bound = num_extractors + TRAIN_QUEUE_CAP + 1;

        let (extract_tx, extract_rx) = unbounded::<(Announced<Hold>, Stamps)>();
        let (head_tx, head_rx) = unbounded::<(Announced<Hold>, Stamps)>();
        let (train_tx, train_rx) =
            bounded::<(u64, Result<(ExtractedBatch, Stamps), Tombstone>)>(TRAIN_QUEUE_CAP);
        let (permit_tx, permit_rx) = bounded::<()>(TRAIN_QUEUE_CAP);
        let (landed_tx, landed_rx) = unbounded::<(ExtractedBatch, Stamps)>();
        // The head this call started with waits in the train queue, in plan
        // order. It is at most `TRAIN_QUEUE_CAP` batches and this thread
        // holds the receiver, so no send blocks or fails.
        for (batch, stamps) in started {
            let _ = train_tx.send((batch.sample.batch_id, Ok((batch, stamps))));
        }

        // Live depth gauges for the two queues (𝔒2 diagnostics: a
        // congested extract stage shows as a deep extract queue and an
        // empty train queue), the horizon's batches, rows and stolen rows
        // (how far the samplers ran ahead, and whether the buffer bounded
        // them), the bridged rows harvested or declined, plus registry
        // histograms of the per-batch stage latencies, each recorded by the
        // stage that measures it.
        for g in [
            &catalog::PIPELINE_EXTRACT_QUEUE_DEPTH,
            &catalog::PIPELINE_TRAIN_QUEUE_DEPTH,
            &catalog::PIPELINE_HORIZON_BATCHES,
            &catalog::FEATURE_BUFFER_ANNOUNCED_ROWS,
        ] {
            g.register();
        }
        for c in [
            &catalog::FEATURE_BUFFER_ANNOUNCED_STEALS,
            &catalog::FEATURE_BUFFER_HARVESTED_ROWS,
            &catalog::FEATURE_BUFFER_HARVEST_DECLINED,
            &catalog::PIPELINE_BATCHES_TRAINED,
            &catalog::PIPELINE_BATCHES_SKIPPED,
            &catalog::PIPELINE_HEAD_BATCHES,
            &catalog::PIPELINE_HEAD_DISCARDED,
        ] {
            c.register();
        }
        for h in [
            &catalog::PIPELINE_SAMPLE,
            &catalog::PIPELINE_EXTRACT,
            &catalog::PIPELINE_TRAIN,
            &catalog::PIPELINE_RELEASE,
        ] {
            h.register();
        }
        catalog::PIPELINE_HEAD_BATCHES.add(head_batches as u64);

        let cursor = &AtomicUsize::new(first_sampled);
        let head_cursor = &AtomicUsize::new(0);
        // The trainer's outputs: one attribution record per trained batch
        // (in training order), one tombstone per skipped batch.
        let mut records: Vec<telemetry::BatchAttribution> = Vec::with_capacity(batches);
        let mut tombstones: Vec<Tombstone> = Vec::new();
        let mut release = telemetry::Histogram::new();
        let mut loss_sum = 0.0f64;
        let (mut nodes_loaded, mut nodes_reused) = (0u64, 0u64);
        let io_before = self.ds.ssd.stats().snapshot();
        let seed = self.cfg.seed;
        let reorder = self.cfg.reorder;
        let labels = Arc::clone(&self.ds.labels);
        let slab = Arc::clone(self.fb.slab());
        let feat_dim = self.ds.spec.feat_dim;
        let model = &mut self.model;
        let opt = &mut self.opt;
        let device = Arc::clone(&self.device);
        let t0 = Instant::now();
        // The pipeline's clock: every stamp is nanoseconds since it started,
        // so a head batch's stamps telescope across the calls it spans.
        let clock = self.clock;
        let now = move || clock.elapsed().as_nanos() as u64;
        // One sample of batch `i` of `plan`, stamped.
        let sample_one = &|i: usize, plan: &BatchPlan, salt: u64| {
            let start = now();
            let sample = {
                let _span = telemetry::span("sample", i as u64);
                let _busy = telemetry::state(State::Compute);
                sampler.sample(i as u64, plan.batch(i), salt)
            };
            // The thread is new and nothing else it does is a timed wait,
            // so its accumulator holds exactly this batch's page faults.
            let stamps = Stamps {
                start,
                sampled: now(),
                fault_ns: telemetry::waits_take().get(telemetry::WaitKind::PageFault),
                ..Stamps::default()
            };
            catalog::PIPELINE_SAMPLE.record(stamps.sampled - start);
            (sample, stamps)
        };
        // One extraction of a queued batch; a landed one is stamped.
        let extract_one = &|queued: Announced<Hold>, mut stamps: Stamps| {
            let batch_id = queued.sample().batch_id;
            stamps.extract_start = now();
            let extracted = {
                let _span = telemetry::span("extract", batch_id);
                extract_announced(ctx, queued)
            };
            if extracted.is_ok() {
                stamps.extracted = now();
                catalog::PIPELINE_EXTRACT.record(stamps.extracted - stamps.extract_start);
            }
            (batch_id, extracted, stamps)
        };

        let mut landed = std::thread::scope(|s| {
            // ① Samplers.
            for w in 0..num_samplers {
                let tx = extract_tx.clone();
                let head_tx = head_tx.clone();
                std::thread::Builder::new()
                    .name(format!("sampler-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            if !to_sample(i) {
                                continue;
                            }
                            let (mut sample, stamps) = sample_one(i, plan, seed ^ epoch);
                            let Some(hold) = admit(&mut sample) else {
                                break;
                            };
                            // ② enqueue into the extracting queue. A send
                            // that fails drops, and so withdraws, the sample.
                            if tx.send((horizon.announce(sample, hold), stamps)).is_err() {
                                break;
                            }
                            catalog::PIPELINE_EXTRACT_QUEUE_DEPTH.set(tx.len() as i64);
                        }
                        // Once every sampler has hung up, the extractors turn
                        // to the head, so it queues behind all of this epoch.
                        drop(tx);
                        loop {
                            let i = head_cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= head_len {
                                break;
                            }
                            let (mut sample, stamps) = sample_one(i, next_plan, seed ^ next_epoch);
                            // Announced behind every batch of this epoch, so
                            // this epoch's tail keeps the rows it will need.
                            let Some(hold) = admit(&mut sample) else {
                                break;
                            };
                            let queued = horizon.announce_next(sample, hold);
                            if head_tx.send((queued, stamps)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn sampler");
            }
            drop(extract_tx);
            drop(head_tx);

            // ③④⑤⑥ Extractors.
            for w in 0..num_extractors {
                let rx = extract_rx.clone();
                let head_rx = head_rx.clone();
                let tx = train_tx.clone();
                let permits = permit_rx.clone();
                let landed = landed_tx.clone();
                std::thread::Builder::new()
                    .name(format!("extractor-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        while let Ok((queued, stamps)) = rx.recv() {
                            catalog::PIPELINE_EXTRACT_QUEUE_DEPTH.set(rx.len() as i64);
                            let (batch_id, extracted, stamps) = extract_one(queued, stamps);
                            let msg = match extracted {
                                Ok(batch) => Ok((batch, stamps)),
                                Err(e) => {
                                    // Graceful degradation: skip the batch
                                    // and tell the trainer with a tombstone.
                                    catalog::PIPELINE_BATCHES_SKIPPED.inc();
                                    Err(Tombstone {
                                        error: e.to_string(),
                                        stamps,
                                    })
                                }
                            };
                            if tx.send((batch_id, msg)).is_err() {
                                return;
                            }
                            catalog::PIPELINE_TRAIN_QUEUE_DEPTH.set(tx.len() as i64);
                        }
                        // Every batch of this epoch is taken: hang up so the
                        // trainer's loop can end, and extract the head.
                        drop(tx);
                        // The permit of a head batch that failed pins nothing
                        // any more, so this extractor keeps it for its next.
                        let mut permit = false;
                        while let Ok((queued, stamps)) = head_rx.recv() {
                            if !permit && permits.recv().is_err() {
                                break;
                            }
                            let (_, extracted, stamps) = extract_one(queued, stamps);
                            permit = extracted.is_err();
                            if let Ok(batch) = extracted {
                                // The trainer holds the receiver until every
                                // extractor is done.
                                let _ = landed.send((batch, stamps));
                            }
                        }
                    })
                    .expect("spawn extractor");
            }
            drop(extract_rx);
            drop(head_rx);
            drop(train_tx);
            drop(permit_rx);
            drop(landed_tx);

            // ⑦⑧⑨ Trainer (this thread), which also releases what it
            // trains: one message per planned batch, so the epoch ends when
            // the last extractor hangs up.
            telemetry::register_thread(ThreadClass::Cpu);
            let mut pending = BTreeMap::new();
            let mut next_expected = first as u64;
            // This epoch's batches not yet trained or skipped bound its
            // pinned ones, so granting a head permit only while the permits
            // and these stay under `pin_bound` keeps the pin bound.
            let (mut remaining, mut permits) = (batches, 0);
            let mut grant = |remaining: usize| {
                while permits < head_len && permits + remaining < pin_bound {
                    // The channel has room for `TRAIN_QUEUE_CAP >=
                    // head_len` permits, so this never fails.
                    let _ = permit_tx.try_send(());
                    permits += 1;
                }
            };
            grant(remaining);
            // The gathered input features: one buffer, reused by every batch.
            let mut input = Vec::new();
            while let Ok((id, msg)) = train_rx.recv() {
                catalog::PIPELINE_TRAIN_QUEUE_DEPTH.set(train_rx.len() as i64);
                pending.insert(id, msg);
                // Reordering trains each batch as it arrives (§4.3); the
                // ablation trains in plan order, and a tombstone advances
                // the cursor like a trained batch.
                while let Some(msg) = pending.remove(&if reorder { id } else { next_expected }) {
                    next_expected += 1;
                    remaining -= 1;
                    let (batch, stamps) = match msg {
                        Ok(b) => b,
                        Err(tombstone) => {
                            tombstones.push(tombstone);
                            continue;
                        }
                    };
                    let train_start = now();
                    let result = {
                        let _span = telemetry::span("train", batch.sample.batch_id);
                        slab.gather_into(&batch.aliases, &mut input);
                        let features = Matrix::from_vec(
                            batch.aliases.len(),
                            feat_dim,
                            std::mem::take(&mut input),
                        );
                        let y: Vec<usize> = batch
                            .sample
                            .seeds
                            .iter()
                            .map(|&n| labels[n as usize] as usize)
                            .collect();
                        let flops = model.flops(&batch.sample.blocks);
                        let result = device.compute.run(flops, || {
                            model.train_step(&batch.sample.blocks, &features, &y)
                        });
                        input = features.into_vec();
                        // Data-parallel hook: gradient all-reduce happens
                        // *before* the optimizer step so replicas stay in
                        // lockstep.
                        on_step(model);
                        let mut params = model.params_mut();
                        opt.step(&mut params);
                        result
                    };
                    let train_end = now();
                    loss_sum += result.loss as f64;
                    catalog::PIPELINE_TRAIN.record(train_end - train_start);
                    catalog::PIPELINE_BATCHES_TRAINED.inc();
                    nodes_loaded += batch.loaded_nodes as u64;
                    nodes_reused += (batch.sample.input_nodes.len() - batch.loaded_nodes) as u64;
                    // The batch's critical-path decomposition: its stamps
                    // share one clock and telescope, so the segments
                    // conserve wall time (DESIGN.md §10).
                    let mut sample_waits = telemetry::WaitTotals::default();
                    sample_waits.add(telemetry::WaitKind::PageFault, stamps.fault_ns);
                    let rec = telemetry::BatchAttribution {
                        batch: batch.sample.batch_id,
                        wall_ns: train_end.saturating_sub(stamps.start),
                        sample_ns: stamps.sampled - stamps.start,
                        sample_waits,
                        queue_extract_ns: stamps.extract_start.saturating_sub(stamps.sampled),
                        extract_ns: stamps.extracted - stamps.extract_start,
                        queue_train_ns: train_start.saturating_sub(stamps.extracted),
                        train_ns: train_end - train_start,
                        waits: batch.waits,
                        io_queue_ns: batch.io_queue_ns,
                        io_service_ns: batch.io_service_ns,
                    };
                    telemetry::record_batch_attribution(&rec);
                    records.push(rec);
                    // Release the batch's rows: it pins nothing from here on.
                    let t = Instant::now();
                    {
                        let _span = telemetry::span("release", batch.sample.batch_id);
                        let _busy = telemetry::state(State::Compute);
                        ctx.fb.release(&batch.sample.input_nodes);
                    }
                    let spent = t.elapsed().as_nanos() as u64;
                    catalog::PIPELINE_RELEASE.record(spent);
                    release.record(spent);
                }
                grant(remaining);
            }
            // Moved in here, the train queue's receiver and the permits'
            // sender also hang up when a step panics, which frees any
            // extractor parked on a full train queue or waiting for a head
            // permit.
            drop(train_rx);
            drop(permit_tx);
            // The head lands once every extractor is done.
            std::iter::from_fn(|| landed_rx.recv().ok()).collect::<Vec<_>>()
        });
        landed.sort_unstable_by_key(|(b, _)| b.sample.batch_id);
        if !landed.is_empty() {
            self.head = Some(Head {
                epoch: next_epoch,
                segment: Arc::clone(&self.train_segment),
                batches: landed,
                fb: Arc::clone(&self.fb),
            });
        }

        let io = self.ds.ssd.stats().snapshot().delta_since(&io_before);
        catalog::PIPELINE_EPOCHS.inc();
        let attribution = telemetry::aggregate_attribution(&records);
        self.last_attribution = Some(attribution.clone());
        // Surface the epoch's verdict as a whole-epoch trace span so the
        // Chrome timeline names the bottleneck next to the stage lanes.
        telemetry::record_span(
            attribution.verdict.label(),
            "verdict",
            epoch,
            t0,
            t0.elapsed(),
        );
        // Every batch was sampled, but only trained ones were extracted.
        let sample: telemetry::Histogram = records
            .iter()
            .map(|r| r.sample_ns)
            .chain(tombstones.iter().map(|t| t.stamps.sampled - t.stamps.start))
            .collect();
        let extract: telemetry::Histogram = records.iter().map(|r| r.extract_ns).collect();
        let train: telemetry::Histogram = records.iter().map(|r| r.train_ns).collect();
        let secs = |h: &telemetry::Histogram| h.sum() as f64 / 1e9;
        let stage = |name: &str, h: &telemetry::Histogram| (name.to_string(), HistSummary::of(h));
        let report = EpochReport {
            wall: t0.elapsed(),
            batches: records.len(),
            full_batches,
            failed_batches: tombstones.len(),
            loss: (loss_sum / records.len().max(1) as f64) as f32,
            sample_secs: secs(&sample),
            extract_secs: secs(&extract),
            train_secs: secs(&train),
            bytes_read: io.read_bytes,
            nodes_loaded,
            nodes_reused,
            prep_secs: 0.0,
            batch_latency: records.iter().map(|r| r.wall_ns).collect(),
            error: tombstones.first().map(|t| t.error.clone()),
        };
        EpochStats {
            report,
            stages: vec![
                stage("sample", &sample),
                stage("extract", &extract),
                stage("train", &train),
                stage("release", &release),
            ],
            attribution,
            batch_attribution: records,
            horizon_peak: horizon.peak_batches(),
            head_batches,
        }
    }

    /// [`Pipeline::train_epoch_range_with_sync`] from the first batch and
    /// without a step hook — one epoch with per-stage latency percentiles.
    pub fn train_epoch_stats(&mut self, epoch: u64, max_batches: Option<usize>) -> EpochStats {
        self.train_epoch_range(epoch, 0, max_batches)
    }

    /// Snapshot the training state — model weights, Adam moments and step
    /// count, and the epoch/batch cursor — into a [`TrainCheckpoint`].
    pub fn checkpoint(&mut self, epoch: u64, next_batch: u64) -> TrainCheckpoint {
        TrainCheckpoint {
            epoch,
            next_batch,
            model: self.model.save(),
            optimizer: self.opt.save(),
        }
    }

    /// Restore model weights and optimizer state from a checkpoint. Resume
    /// training at (`ck.epoch`, `ck.next_batch`) via
    /// [`Pipeline::train_epoch_range`].
    pub fn restore(&mut self, ck: &TrainCheckpoint) -> Result<(), Error> {
        self.model = GnnModel::load(&ck.model).map_err(CheckpointError::Blob)?;
        self.opt = Adam::load(&ck.optimizer).map_err(CheckpointError::Blob)?;
        Ok(())
    }
}

impl TrainingSystem for Pipeline {
    fn name(&self) -> String {
        format!("GNNDrive-{}", if self.gpu_mode { "GPU" } else { "CPU" })
    }

    fn train_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> EpochReport {
        self.train_epoch_stats(epoch, max_batches).report
    }

    fn last_attribution(&self) -> Option<telemetry::AttributionReport> {
        self.last_attribution.clone()
    }

    fn sample_only_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> Duration {
        let plan = BatchPlan::new(
            &self.train_segment,
            self.cfg.batch_size,
            epoch,
            self.cfg.seed,
        );
        let sampler = NeighborSampler::new(Arc::clone(&self.topo), self.cfg.fanouts.clone());
        sample_batches(
            &sampler,
            &plan,
            max_batches.unwrap_or(usize::MAX),
            self.cfg.num_samplers,
            self.cfg.seed ^ epoch,
        )
    }

    fn evaluate(&mut self) -> f64 {
        evaluate_model(&self.model, &self.ds, &self.cfg.fanouts, 512)
    }
}

// Head samples hold places while this epoch's last samples may still wait
// for one; leaving them at least one keeps the samplers going.
const _: () = assert!(TRAIN_QUEUE_CAP < EXTRACT_QUEUE_CAP);

// Pipeline must remain Send: data-parallel workers move replicas across
// threads (the thread scope in `run_data_parallel`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Pipeline>()
};
