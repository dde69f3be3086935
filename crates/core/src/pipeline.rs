//! The GNNDrive pipeline: samplers → extractors → trainer → releaser
//! (paper §4.1, Fig 4).
//!
//! Three bounded queues connect the four stages; since the queues carry
//! only node-id lists and slot aliases — never feature payloads — they add
//! no memory pressure. Samplers claim mini-batches from a shared cursor
//! and may finish out of order; extractors likewise. Mini-batch
//! *reordering* (§4.3) is therefore the default; setting
//! [`GnnDriveConfig::reorder`] to `false` makes the trainer restore
//! submission order (the ablation).

use crate::builder::PipelineBuilder;
use crate::checkpoint::{CheckpointError, TrainCheckpoint};
use crate::config::GnnDriveConfig;
use crate::error::Error;
use crate::extractor::{extract_batch, ExtractedBatch, ExtractorContext};
use crate::feature_buffer::FeatureBufferManager;
use crate::staging::StagingBuffer;
use crate::system::{evaluate_model, EpochReport, TrainingSystem};
use gnndrive_device::{DeviceAlloc, FeatureSlab, GpuDevice};
use gnndrive_graph::{Dataset, FeatureLayout, NodeId};
use gnndrive_nn::{build_model, GnnModel};
use gnndrive_sampling::{AsyncTopo, BatchPlan, MiniBatchSample, NeighborSampler, TopoReader};
use gnndrive_storage::{DeviceHealth, IoPriority, MemCharge, MemoryGovernor, OomError, PageCache};
use gnndrive_sync::queue::{bounded, RecvTimeoutError};
use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry::{self as telemetry, HistSummary, State, ThreadClass};
use gnndrive_tensor::{Adam, Matrix, Optimizer};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Training set override for data-parallel segments (defaults to the
    /// dataset's full training set).
    train_segment: Arc<Vec<NodeId>>,
    /// Device-health tracker / circuit breaker shared by every extractor
    /// (and inference) against this pipeline's SSD.
    health: Arc<DeviceHealth>,
    /// Packed on-disk feature layout, when the builder installed one;
    /// `None` reads the dataset's natural node-id-ordered file.
    feature_layout: Option<FeatureLayout>,
    /// Bottleneck attribution of the most recent epoch, kept so callers
    /// that only see the [`TrainingSystem`] trait (the CLI, harness bins)
    /// can still fold the verdict into their run reports.
    last_attribution: Option<telemetry::AttributionReport>,
}

/// Construction failure: either host OOM (governor) or device OOM.
#[derive(Debug)]
pub enum BuildError {
    HostOom(OomError),
    DeviceOom(gnndrive_device::DeviceOom),
    /// The builder's [`FeatureLayout`] does not describe this dataset's
    /// feature table (wrong remap length, row width, or file length).
    BadLayout(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::HostOom(e) => write!(f, "host {e}"),
            BuildError::DeviceOom(e) => write!(f, "{e}"),
            BuildError::BadLayout(why) => write!(f, "bad feature layout: {why}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::HostOom(e) => Some(e),
            BuildError::DeviceOom(e) => Some(e),
            BuildError::BadLayout(_) => None,
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
            feature_layout,
        } = b;
        if let Some(layout) = &feature_layout {
            if layout.remap.len() != ds.spec.num_nodes {
                return Err(BuildError::BadLayout(format!(
                    "remap covers {} nodes, dataset has {}",
                    layout.remap.len(),
                    ds.spec.num_nodes
                )));
            }
            if layout.row_bytes != ds.spec.feature_row_bytes() {
                return Err(BuildError::BadLayout(format!(
                    "layout row is {} B, dataset rows are {} B",
                    layout.row_bytes,
                    ds.spec.feature_row_bytes()
                )));
            }
            if layout.file.len != ds.features_file.len {
                return Err(BuildError::BadLayout(format!(
                    "packed file is {} B, feature table is {} B",
                    layout.file.len, ds.features_file.len
                )));
            }
        }
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
        let fb = Arc::new(FeatureBufferManager::new(
            Arc::clone(&slab),
            ds.spec.num_nodes,
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
            train_segment,
            health,
            feature_layout,
            last_attribution: None,
        })
    }

    /// Restrict training to a segment (multi-device data parallelism §4.3).
    pub fn set_train_segment(&mut self, segment: Vec<NodeId>) {
        self.train_segment = Arc::new(segment);
    }

    pub fn feature_buffer(&self) -> &Arc<FeatureBufferManager> {
        &self.fb
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
            features_file: self
                .feature_layout
                .as_ref()
                .map(|l| l.file)
                .unwrap_or(self.ds.features_file),
            remap: self.feature_layout.as_ref().map(|l| Arc::clone(&l.remap)),
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
    /// how much work the batch did and where its wall time went.
    pub fn try_infer_detailed(&mut self, seeds: &[NodeId]) -> Result<InferenceOutcome, Error> {
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

    /// Run one epoch with an optional per-step hook invoked after each
    /// optimizer step (the data-parallel gradient synchronizer).
    ///
    /// Besides the [`EpochReport`], the returned [`EpochStats`] carries
    /// per-stage batch-latency percentiles; the same distributions are also
    /// recorded into the metrics registry (`pipeline.sample` ...), and when
    /// tracing is enabled every batch leaves `sample`/`extract`/`train`/
    /// `release` spans (plus `transfer` inside extraction).
    pub fn train_epoch_with_sync(
        &mut self,
        epoch: u64,
        max_batches: Option<usize>,
        on_step: impl FnMut(&mut GnnModel) + Send,
    ) -> EpochStats {
        self.train_epoch_range_with_sync(epoch, 0, max_batches, on_step)
    }

    /// [`Pipeline::train_epoch_with_sync`] restricted to the batch range
    /// `start_batch ..` of the epoch's plan — the resume path: a
    /// checkpoint taken after batch *k* continues the epoch from batch *k*
    /// without re-training the prefix.
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
    /// after each optimizer step.
    pub fn train_epoch_range_with_sync(
        &mut self,
        epoch: u64,
        start_batch: usize,
        max_batches: Option<usize>,
        mut on_step: impl FnMut(&mut GnnModel) + Send,
    ) -> EpochStats {
        let plan = BatchPlan::new(
            &self.train_segment,
            self.cfg.batch_size,
            epoch,
            self.cfg.seed,
        );
        let full_batches = plan.num_batches();
        let first = start_batch.min(full_batches);
        let end = full_batches.min(first.saturating_add(max_batches.unwrap_or(usize::MAX)));
        let batches = end - first;
        if batches == 0 {
            return EpochStats::default();
        }

        let sampler = Arc::new(NeighborSampler::new(
            Arc::clone(&self.topo),
            self.cfg.fanouts.clone(),
        ));
        let ctx = Arc::new(self.extractor_context(IoPriority::Bulk));

        let (extract_tx, extract_rx) = bounded::<MiniBatchSample>(self.cfg.extract_queue_cap);
        let (train_tx, train_rx) = bounded::<ExtractedBatch>(self.cfg.train_queue_cap);
        let (release_tx, release_rx) = bounded::<(u64, Vec<NodeId>)>(64);

        // Live depth gauges for the three bounded queues (𝔒2 diagnostics:
        // a congested extract stage shows as a full extract queue and an
        // empty train queue), plus registry histograms of the per-batch
        // stage latencies. Local histograms feed this epoch's EpochStats.
        let g_extract_q = telemetry::gauge("pipeline.extract_queue.depth");
        let g_train_q = telemetry::gauge("pipeline.train_queue.depth");
        let g_release_q = telemetry::gauge("pipeline.release_queue.depth");
        let h_sample = telemetry::histogram_ns("pipeline.sample");
        let h_extract = telemetry::histogram_ns("pipeline.extract");
        let h_train = telemetry::histogram_ns("pipeline.train");
        let h_release = telemetry::histogram_ns("pipeline.release");
        let c_batches = telemetry::counter("pipeline.batches_trained");
        let c_skipped = telemetry::counter("pipeline.batches_skipped");
        let stage_sample = OrderedMutex::new(LockRank::Pipeline, telemetry::Histogram::new());
        let stage_extract = OrderedMutex::new(LockRank::Pipeline, telemetry::Histogram::new());
        let stage_release = OrderedMutex::new(LockRank::Pipeline, telemetry::Histogram::new());
        let mut stage_train = telemetry::Histogram::new();

        let cursor = AtomicUsize::new(first);
        // Per-batch sample-start stamps (nanos since t0) for the latency
        // histogram; index = batch id (absolute within the epoch plan).
        let batch_started: Vec<AtomicU64> = (0..end).map(|_| AtomicU64::new(0)).collect();
        // Stage-boundary stamps on the same shared clock; with
        // `batch_started` they telescope a batch's wall time into
        // sample / queue / extract / queue / train segments for the
        // attribution records the trainer assembles.
        let sample_ended: Vec<AtomicU64> = (0..end).map(|_| AtomicU64::new(0)).collect();
        let extract_started: Vec<AtomicU64> = (0..end).map(|_| AtomicU64::new(0)).collect();
        let extract_ended: Vec<AtomicU64> = (0..end).map(|_| AtomicU64::new(0)).collect();
        // Page-fault time inside each batch's sample segment, drained from
        // the sampler thread's wait accumulator at the batch boundary (the
        // threads are new and nothing else they do is a timed wait, so the
        // accumulator holds exactly one batch's faults).
        let sample_faults: Vec<AtomicU64> = (0..end).map(|_| AtomicU64::new(0)).collect();
        let mut attr_records: Vec<telemetry::BatchAttribution> = Vec::with_capacity(batches);
        let mut latency = gnndrive_telemetry::Histogram::new();
        let sample_nanos = AtomicU64::new(0);
        let extract_nanos = AtomicU64::new(0);
        let loaded_nodes = AtomicU64::new(0);
        let reused_nodes = AtomicU64::new(0);
        let failed_batches = AtomicUsize::new(0);
        let first_error: OrderedMutex<Option<String>> = OrderedMutex::new(LockRank::Pipeline, None);
        let mut train_secs = 0.0f64;
        let mut loss_sum = 0.0f64;
        let io_before = self.ds.ssd.stats().snapshot();
        let seed = self.cfg.seed;
        let reorder = self.cfg.reorder;
        let labels = Arc::clone(&self.ds.labels);
        let slab = Arc::clone(self.fb.slab());
        let feat_dim = self.ds.spec.feat_dim;
        let model = &mut self.model;
        let opt = &mut self.opt;
        let device = Arc::clone(&self.device);
        let fb_for_release = Arc::clone(&self.fb);
        let num_samplers = self.cfg.num_samplers.max(1);
        let num_extractors = self.cfg.num_extractors.max(1);
        let t0 = Instant::now();

        std::thread::scope(|s| {
            // ① Samplers.
            for w in 0..num_samplers {
                let plan = &plan;
                let cursor = &cursor;
                let sampler = Arc::clone(&sampler);
                let tx = extract_tx.clone();
                let sample_nanos = &sample_nanos;
                let batch_started = &batch_started;
                let sample_ended = &sample_ended;
                let sample_faults = &sample_faults;
                let h_sample = h_sample.clone();
                let g_extract_q = g_extract_q.clone();
                let stage_sample = &stage_sample;
                std::thread::Builder::new()
                    .name(format!("sampler-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= end {
                                break;
                            }
                            let t = Instant::now();
                            batch_started[i]
                                .store(t.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
                            let sample = {
                                let _span = telemetry::span("sample", i as u64);
                                let _busy = telemetry::state(State::Compute);
                                sampler.sample(i as u64, plan.batch(i), seed ^ epoch)
                            };
                            let spent = t.elapsed().as_nanos() as u64;
                            sample_faults[i].store(
                                telemetry::waits_take().get(telemetry::WaitKind::PageFault),
                                Ordering::Relaxed,
                            );
                            sample_ended[i]
                                .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            sample_nanos.fetch_add(spent, Ordering::Relaxed);
                            h_sample.record(spent);
                            stage_sample.lock().record(spent);
                            // ② enqueue into the extracting queue.
                            if tx.send(sample).is_err() {
                                break;
                            }
                            g_extract_q.set(tx.len() as i64);
                        }
                    })
                    .expect("spawn sampler");
            }
            drop(extract_tx);

            // ③④⑤⑥ Extractors.
            for w in 0..num_extractors {
                let rx = extract_rx.clone();
                let tx = train_tx.clone();
                let ctx = Arc::clone(&ctx);
                let extract_nanos = &extract_nanos;
                let loaded_nodes = &loaded_nodes;
                let reused_nodes = &reused_nodes;
                let failed_batches = &failed_batches;
                let first_error = &first_error;
                let h_extract = h_extract.clone();
                let g_extract_q = g_extract_q.clone();
                let g_train_q = g_train_q.clone();
                let c_skipped = c_skipped.clone();
                let stage_extract = &stage_extract;
                let extract_started = &extract_started;
                let extract_ended = &extract_ended;
                std::thread::Builder::new()
                    .name(format!("extractor-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        while let Ok(sample) = rx.recv() {
                            g_extract_q.set(rx.len() as i64);
                            let t = Instant::now();
                            let total = sample.input_nodes.len() as u64;
                            let batch_id = sample.batch_id;
                            extract_started[batch_id as usize]
                                .store(t.duration_since(t0).as_nanos() as u64, Ordering::Relaxed);
                            let span = telemetry::span("extract", batch_id);
                            match extract_batch(&ctx, sample) {
                                Ok(batch) => {
                                    drop(span);
                                    let spent = t.elapsed().as_nanos() as u64;
                                    extract_ended[batch_id as usize]
                                        .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                                    extract_nanos.fetch_add(spent, Ordering::Relaxed);
                                    h_extract.record(spent);
                                    stage_extract.lock().record(spent);
                                    loaded_nodes
                                        .fetch_add(batch.loaded_nodes as u64, Ordering::Relaxed);
                                    reused_nodes.fetch_add(
                                        total - batch.loaded_nodes as u64,
                                        Ordering::Relaxed,
                                    );
                                    if tx.send(batch).is_err() {
                                        break;
                                    }
                                    g_train_q.set(tx.len() as i64);
                                }
                                Err(e) => {
                                    // Graceful degradation: record the
                                    // failure, skip the batch, and keep
                                    // serving the epoch.
                                    first_error.lock().get_or_insert_with(|| e.to_string());
                                    failed_batches.fetch_add(1, Ordering::Relaxed);
                                    c_skipped.inc();
                                }
                            }
                        }
                    })
                    .expect("spawn extractor");
            }
            drop(train_tx);

            // ⑨ Releaser.
            let releaser = {
                let h_release = h_release.clone();
                let g_release_q = g_release_q.clone();
                let stage_release = &stage_release;
                std::thread::Builder::new()
                    .name("releaser".into())
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        while let Ok((batch_id, nodes)) = release_rx.recv() {
                            g_release_q.set(release_rx.len() as i64);
                            let t = Instant::now();
                            {
                                let _span = telemetry::span("release", batch_id);
                                let _busy = telemetry::state(State::Compute);
                                fb_for_release.release(&nodes);
                            }
                            let spent = t.elapsed().as_nanos() as u64;
                            h_release.record(spent);
                            stage_release.lock().record(spent);
                        }
                    })
                    .expect("spawn releaser")
            };

            // ⑦⑧ Trainer (this thread).
            telemetry::register_thread(ThreadClass::Cpu);
            let mut pending: BTreeMap<u64, ExtractedBatch> = BTreeMap::new();
            let mut next_expected = first as u64;
            let mut done = 0usize;
            // The gathered input features: one buffer, reused by every batch.
            let mut input = Vec::new();
            'train: while done + failed_batches.load(Ordering::Relaxed) < batches {
                // recv with a timeout so extraction failures (which shrink
                // the expected batch count) cannot strand the trainer.
                let recv_one =
                    |pending: &mut BTreeMap<u64, ExtractedBatch>| -> Option<ExtractedBatch> {
                        loop {
                            match train_rx.recv_timeout(std::time::Duration::from_millis(50)) {
                                Ok(b) => {
                                    g_train_q.set(train_rx.len() as i64);
                                    return Some(b);
                                }
                                Err(RecvTimeoutError::Timeout) => {
                                    if done + failed_batches.load(Ordering::Relaxed) + pending.len()
                                        >= batches
                                    {
                                        return None;
                                    }
                                }
                                Err(RecvTimeoutError::Disconnected) => return None,
                            }
                        }
                    };
                let batch = if reorder {
                    match recv_one(&mut pending) {
                        Some(b) => b,
                        None => break 'train,
                    }
                } else {
                    // Restore submission order: buffer out-of-order batches.
                    // A failed batch id never arrives; skip over it.
                    loop {
                        if let Some(b) = pending.remove(&next_expected) {
                            break b;
                        }
                        match recv_one(&mut pending) {
                            Some(b) => {
                                if b.sample.batch_id == next_expected {
                                    break b;
                                }
                                pending.insert(b.sample.batch_id, b);
                            }
                            None => match pending.pop_first() {
                                Some((id, b)) => {
                                    next_expected = id;
                                    break b;
                                }
                                None => break 'train,
                            },
                        }
                    }
                };
                next_expected = next_expected.max(batch.sample.batch_id) + 1;
                let t = Instant::now();
                let result = {
                    let _span = telemetry::span("train", batch.sample.batch_id);
                    slab.gather_into(&batch.aliases, &mut input);
                    let features =
                        Matrix::from_vec(batch.aliases.len(), feat_dim, std::mem::take(&mut input));
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
                loss_sum += result.loss as f64;
                let spent = t.elapsed();
                train_secs += spent.as_secs_f64();
                h_train.record(spent.as_nanos() as u64);
                stage_train.record(spent.as_nanos() as u64);
                c_batches.inc();
                let id = batch.sample.batch_id as usize;
                let started = batch_started[id].load(Ordering::Relaxed);
                let train_end = t0.elapsed().as_nanos() as u64;
                latency.record(train_end.saturating_sub(started));
                // Assemble the batch's critical-path decomposition from the
                // shared-clock stamps plus the waits the extractor carried
                // over; the segments telescope, so they conserve wall time
                // (DESIGN.md §10).
                let train_ns = spent.as_nanos() as u64;
                let train_start = train_end.saturating_sub(train_ns);
                let s_end = sample_ended[id].load(Ordering::Relaxed);
                let e_start = extract_started[id].load(Ordering::Relaxed);
                let e_end = extract_ended[id].load(Ordering::Relaxed);
                let mut sample_waits = telemetry::WaitTotals::default();
                sample_waits.add(
                    telemetry::WaitKind::PageFault,
                    sample_faults[id].load(Ordering::Relaxed),
                );
                let rec = telemetry::BatchAttribution {
                    batch: batch.sample.batch_id,
                    wall_ns: train_end.saturating_sub(started),
                    sample_ns: s_end.saturating_sub(started),
                    sample_waits,
                    queue_extract_ns: e_start.saturating_sub(s_end),
                    extract_ns: e_end.saturating_sub(e_start),
                    queue_train_ns: train_start.saturating_sub(e_end),
                    train_ns,
                    waits: batch.waits,
                    io_queue_ns: batch.io_queue_ns,
                    io_service_ns: batch.io_service_ns,
                };
                telemetry::record_batch_attribution(&rec);
                attr_records.push(rec);
                // ⑧ hand the original sampled node list to the releaser.
                if release_tx
                    .send((batch.sample.batch_id, batch.sample.input_nodes))
                    .is_err()
                {
                    // The releaser died (its thread panicked): without it
                    // slots are never recycled, so stop the epoch cleanly
                    // instead of deadlocking on an exhausted buffer.
                    first_error
                        .lock()
                        .get_or_insert_with(|| "releaser thread gone".to_string());
                    break 'train;
                }
                g_release_q.set(release_tx.len() as i64);
                done += 1;
            }
            drop(release_tx);
            if releaser.join().is_err() {
                first_error
                    .lock()
                    .get_or_insert_with(|| "releaser thread panicked".to_string());
            }
        });

        let io_after = self.ds.ssd.stats().snapshot();
        let io = io_after.delta_since(&io_before);
        telemetry::counter("pipeline.epochs").inc();
        let attribution = telemetry::aggregate_attribution(&attr_records);
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
        let failed = failed_batches.load(Ordering::Relaxed);
        let report = EpochReport {
            wall: t0.elapsed(),
            batches: batches - failed,
            full_batches,
            failed_batches: failed,
            loss: (loss_sum / (batches - failed).max(1) as f64) as f32,
            sample_secs: sample_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            extract_secs: extract_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            train_secs,
            bytes_read: io.read_bytes,
            nodes_loaded: loaded_nodes.load(Ordering::Relaxed),
            nodes_reused: reused_nodes.load(Ordering::Relaxed),
            prep_secs: 0.0,
            batch_latency: latency,
            error: first_error.into_inner(),
        };
        EpochStats {
            report,
            stages: vec![
                (
                    "sample".to_string(),
                    HistSummary::of(&stage_sample.into_inner()),
                ),
                (
                    "extract".to_string(),
                    HistSummary::of(&stage_extract.into_inner()),
                ),
                ("train".to_string(), HistSummary::of(&stage_train)),
                (
                    "release".to_string(),
                    HistSummary::of(&stage_release.into_inner()),
                ),
            ],
            attribution,
            batch_attribution: attr_records,
        }
    }

    /// [`Pipeline::train_epoch_with_sync`] without a step hook — one epoch
    /// with per-stage latency percentiles.
    pub fn train_epoch_stats(&mut self, epoch: u64, max_batches: Option<usize>) -> EpochStats {
        self.train_epoch_with_sync(epoch, max_batches, |_| {})
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
        self.train_epoch_with_sync(epoch, max_batches, |_| {})
            .report
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
        let batches = plan.num_batches().min(max_batches.unwrap_or(usize::MAX));
        let sampler = Arc::new(NeighborSampler::new(
            Arc::clone(&self.topo),
            self.cfg.fanouts.clone(),
        ));
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..self.cfg.num_samplers.max(1) {
                let plan = &plan;
                let cursor = &cursor;
                let sampler = Arc::clone(&sampler);
                let seed = self.cfg.seed;
                std::thread::Builder::new()
                    .name(format!("sampler-only-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= batches {
                                break;
                            }
                            let _busy = telemetry::state(State::Compute);
                            let _ = sampler.sample(i as u64, plan.batch(i), seed ^ epoch);
                        }
                    })
                    .expect("spawn sampler");
            }
        });
        t0.elapsed()
    }

    fn evaluate(&mut self) -> f64 {
        evaluate_model(&self.model, &self.ds, &self.cfg.fanouts, 512)
    }
}

/// Mutex-free helper usable by tests to run several epochs back to back.
pub fn train_epochs(p: &mut Pipeline, epochs: u64, max_batches: Option<usize>) -> Vec<EpochReport> {
    (0..epochs).map(|e| p.train_epoch(e, max_batches)).collect()
}

// Pipeline must remain Send: data-parallel workers move replicas across
// threads (the thread scope in `run_data_parallel`).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Pipeline>()
};
