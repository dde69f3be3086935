//! Ginex (Park, Min & Lee, VLDB '22) — SSD-enabled training with a
//! provably-optimal in-memory feature cache.
//!
//! Mechanisms reproduced from the GNNDrive paper's description (§2, §3,
//! §5):
//!
//! * two *separate* host caches: a degree-ordered **neighbor cache** for
//!   topology and a **feature cache** for extracted rows — this is what
//!   spares Ginex most of PyG+'s memory contention;
//! * **superbatch** processing: sample a bundle of mini-batches up front,
//!   *spill the sampling results to SSD*, then run an **inspect** pass that
//!   computes the Belady-optimal (farthest-next-use) cache replacement
//!   schedule, and finally the extract+train loop reads the spilled lists
//!   back and applies the per-batch changesets — the extra I/O and the
//!   synchronous cache initialization the paper blames for Ginex's
//!   remaining I/O congestion;
//! * cache misses are loaded with **multi-threaded synchronous direct
//!   reads** (the paper configures I/O threads at 2× the physical cores);
//! * both caches are charged to the host-memory governor at construction —
//!   at an 8 GB (scaled) budget construction fails with OOM, matching
//!   Fig 9.

use crate::common::{read_feature_row_direct, seed_labels, BaselineMetrics};
use gnndrive_core::{evaluate_model, EpochReport, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::{Dataset, NodeId};
use gnndrive_nn::{build_model, GnnModel, ModelKind};
use gnndrive_sampling::{
    BatchPlan, MiniBatchSample, MmapTopo, NeighborCacheTopo, NeighborSampler, TopoReader,
};
use gnndrive_storage::{MemCharge, MemoryGovernor, OomError, PageCache, SECTOR_SIZE};
use gnndrive_telemetry::{self as telemetry, State, ThreadClass};
use gnndrive_tensor::{Adam, Matrix, Optimizer};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ginex knobs.
#[derive(Debug, Clone)]
pub struct GinexConfig {
    /// Mini-batches per superbatch (paper default 1500; scaled here).
    pub superbatch_size: usize,
    /// Neighbor-cache budget in bytes (paper default 6 GB; scaled).
    pub neighbor_cache_bytes: u64,
    /// Feature-cache budget in bytes (paper default 24 GB; scaled).
    pub feature_cache_bytes: u64,
    /// Threads for the synchronous miss-loading (paper: 2× cores).
    pub io_threads: usize,
    pub num_samplers: usize,
    pub fanouts: Vec<usize>,
    pub batch_size: usize,
    pub seed: u64,
}

impl Default for GinexConfig {
    fn default() -> Self {
        GinexConfig {
            superbatch_size: 25,
            neighbor_cache_bytes: 6 * 1024 * 1024,
            feature_cache_bytes: 24 * 1024 * 1024,
            io_threads: 8,
            num_samplers: 4,
            fanouts: vec![10, 10, 10],
            batch_size: 100,
            seed: 7,
        }
    }
}

/// Belady changeset for one mini-batch: which nodes to admit (loading from
/// SSD) and which cached nodes to drop first.
#[derive(Debug, Default, Clone)]
struct Changeset {
    load: Vec<NodeId>,
    evict: Vec<NodeId>,
    /// Nodes of this batch that do not fit the cache at all (working set
    /// larger than capacity): loaded transiently, never cached.
    transient: Vec<NodeId>,
}

/// The Belady planner's working state: cached nodes keyed by next use,
/// plus the lazy-deletion max-heap ordering evictions farthest-first.
struct BeladyState {
    cached: HashMap<NodeId, usize>,
    heap: BinaryHeap<(usize, NodeId)>,
}

/// See module docs.
pub struct Ginex {
    cfg: GinexConfig,
    ds: Arc<Dataset>,
    device: Arc<GpuDevice>,
    topo: Arc<dyn TopoReader>,
    model: GnnModel,
    opt: Adam,
    /// The feature cache: node → row. Capacity in rows.
    feature_cache: HashMap<NodeId, Vec<f32>>,
    feature_cache_slots: usize,
    metrics: BaselineMetrics,
    _charges: Vec<MemCharge>,
}

impl Ginex {
    /// Build Ginex; fails with OOM when the two caches do not fit the host
    /// budget (the paper's Ginex-at-8GB outcome).
    pub fn new(
        ds: Arc<Dataset>,
        model_kind: ModelKind,
        hidden: usize,
        cfg: GinexConfig,
        device: Arc<GpuDevice>,
        governor: Arc<MemoryGovernor>,
        page_cache: Arc<PageCache>,
    ) -> Result<Self, OomError> {
        let charges = vec![
            governor.charge(cfg.neighbor_cache_bytes)?,
            governor.charge(cfg.feature_cache_bytes)?,
        ];

        let mmap = MmapTopo::new(Arc::clone(&ds.indptr), page_cache, ds.indices_file);
        let topo: Arc<dyn TopoReader> =
            Arc::new(NeighborCacheTopo::build(mmap, cfg.neighbor_cache_bytes));
        let feature_cache_slots =
            (cfg.feature_cache_bytes as usize / (ds.spec.feat_dim * 4)).max(1);
        let model = build_model(
            model_kind,
            ds.spec.feat_dim,
            hidden,
            ds.spec.num_classes,
            cfg.fanouts.len(),
            cfg.seed,
        );
        Ok(Ginex {
            cfg,
            ds,
            device,
            topo,
            model,
            opt: Adam::new(0.003),
            feature_cache: HashMap::new(),
            feature_cache_slots,
            metrics: BaselineMetrics::new("ginex"),
            _charges: charges,
        })
    }

    /// The inspect pass: given the access sequence of a superbatch, compute
    /// the Belady (farthest next use) schedule starting from the current
    /// cache contents.
    fn inspect(&self, samples: &[MiniBatchSample]) -> Vec<Changeset> {
        // Occurrence lists per node, in batch order.
        let mut occurrences: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (b, s) in samples.iter().enumerate() {
            for &n in &s.input_nodes {
                occurrences.entry(n).or_default().push(b);
            }
        }
        let next_use_after = |node: NodeId, b: usize| -> usize {
            occurrences
                .get(&node)
                .and_then(|v| v.iter().find(|&&x| x > b))
                .copied()
                .unwrap_or(usize::MAX)
        };

        let mut cached: HashMap<NodeId, usize> = self
            .feature_cache
            .keys()
            .map(|&n| (n, next_use_after(n, usize::MAX - 1)))
            .collect();
        // Seed the pre-existing contents with their first use in this
        // superbatch (or never).
        for (n, nu) in cached.iter_mut() {
            *nu = occurrences
                .get(n)
                .and_then(|v| v.first())
                .copied()
                .unwrap_or(usize::MAX);
        }
        // Max-heap on next use (lazy deletion).
        let heap: BinaryHeap<(usize, NodeId)> = cached.iter().map(|(&n, &nu)| (nu, n)).collect();
        let mut belady = BeladyState { cached, heap };

        let mut changesets = Vec::with_capacity(samples.len());
        for (b, s) in samples.iter().enumerate() {
            let mut cs = Changeset::default();
            // Unique nodes of the batch (input_nodes is already deduped).
            let batch_set: Vec<NodeId> = s.input_nodes.clone();
            if batch_set.len() > self.feature_cache_slots {
                // Working set exceeds the whole cache: cache what fits,
                // stream the rest transiently.
                let (fit, overflow) = batch_set.split_at(self.feature_cache_slots);
                cs.transient = overflow.to_vec();
                self.admit_all(fit, b, &mut belady, &mut cs, &next_use_after);
            } else {
                self.admit_all(&batch_set, b, &mut belady, &mut cs, &next_use_after);
            }
            changesets.push(cs);
        }
        changesets
    }

    fn admit_all(
        &self,
        nodes: &[NodeId],
        b: usize,
        belady: &mut BeladyState,
        cs: &mut Changeset,
        next_use_after: &dyn Fn(NodeId, usize) -> usize,
    ) {
        let BeladyState { cached, heap } = belady;
        // Refresh next-use of hits, admit misses.
        for &n in nodes {
            let nu = next_use_after(n, b);
            if let Some(slot) = cached.get_mut(&n) {
                *slot = nu;
                heap.push((nu, n));
            } else {
                cs.load.push(n);
                cached.insert(n, nu);
                heap.push((nu, n));
            }
        }
        // Evict down to capacity, farthest-next-use first. The current
        // batch's own nodes are in use *now* and may not be evicted; they
        // are set aside and re-pushed with their true keys afterwards.
        let current: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        let mut protected = Vec::new();
        while cached.len() > self.feature_cache_slots {
            match heap.pop() {
                Some((nu, n)) => {
                    if cached.get(&n) != Some(&nu) {
                        continue; // stale heap entry
                    }
                    if current.contains(&n) {
                        protected.push((nu, n));
                        continue;
                    }
                    cached.remove(&n);
                    cs.evict.push(n);
                }
                None => break,
            }
        }
        for e in protected {
            heap.push(e);
        }
    }

    /// Spill a superbatch's sampled node lists to SSD and return the
    /// scratch file (the extra I/O Ginex pays to enable the inspect pass).
    fn spill_samples(&self, samples: &[MiniBatchSample]) -> gnndrive_storage::FileHandle {
        let mut bytes = Vec::new();
        for s in samples {
            bytes.extend_from_slice(&(s.input_nodes.len() as u64).to_le_bytes());
            for &n in &s.input_nodes {
                bytes.extend_from_slice(&n.to_le_bytes());
            }
        }
        let padded = bytes.len().div_ceil(SECTOR_SIZE as usize) * SECTOR_SIZE as usize;
        bytes.resize(padded, 0);
        let file = self.ds.ssd.create_file(padded as u64);
        // Timed write: this is real extra I/O on Ginex's critical path.
        self.ds
            .ssd
            .write_blocking(file, 0, &bytes, true)
            .expect("spill write");
        file
    }

    /// Read the spilled lists back (Ginex re-reads them in the train loop).
    fn read_back_spill(
        &self,
        file: gnndrive_storage::FileHandle,
        samples: usize,
    ) -> Vec<Vec<NodeId>> {
        let mut buf = vec![0u8; file.len as usize];
        self.ds
            .ssd
            .read_blocking(file, 0, &mut buf, true)
            .expect("spill read");
        let mut out = Vec::with_capacity(samples);
        let mut pos = 0usize;
        for _ in 0..samples {
            let len = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()) as usize;
            pos += 8;
            let mut nodes = Vec::with_capacity(len);
            for _ in 0..len {
                nodes.push(u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()));
                pos += 4;
            }
            out.push(nodes);
        }
        out
    }

    /// Load `nodes` from SSD with `io_threads` synchronous workers;
    /// returns the rows in input order.
    fn parallel_sync_load(&self, nodes: &[NodeId]) -> Vec<(NodeId, Vec<f32>)> {
        let cursor = AtomicUsize::new(0);
        let results = gnndrive_sync::OrderedMutex::new(
            gnndrive_sync::LockRank::Pipeline,
            Vec::with_capacity(nodes.len()),
        );
        std::thread::scope(|s| {
            for _ in 0..self.cfg.io_threads.max(1) {
                let cursor = &cursor;
                let results = &results;
                let ds = &self.ds;
                let dim = self.ds.spec.feat_dim;
                s.spawn(move || {
                    telemetry::register_thread(ThreadClass::Cpu);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= nodes.len() {
                            break;
                        }
                        let row = read_feature_row_direct(&ds.ssd, ds.features_file, dim, nodes[i]);
                        results.lock().push((nodes[i], row));
                    }
                });
            }
        });
        results.into_inner()
    }

    fn sample_superbatch(
        &self,
        plan: &BatchPlan,
        range: std::ops::Range<usize>,
        epoch: u64,
    ) -> Vec<MiniBatchSample> {
        let sampler = Arc::new(NeighborSampler::new(
            Arc::clone(&self.topo),
            self.cfg.fanouts.clone(),
        ));
        let results = gnndrive_sync::OrderedMutex::new(
            gnndrive_sync::LockRank::Pipeline,
            Vec::with_capacity(range.len()),
        );
        let cursor = AtomicUsize::new(range.start);
        std::thread::scope(|s| {
            for _ in 0..self.cfg.num_samplers.max(1) {
                let cursor = &cursor;
                let results = &results;
                let sampler = Arc::clone(&sampler);
                let plan = &plan;
                let end = range.end;
                let seed = self.cfg.seed;
                s.spawn(move || {
                    telemetry::register_thread(ThreadClass::Cpu);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        let _busy = telemetry::state(State::Compute);
                        let sample = sampler.sample(i as u64, plan.batch(i), seed ^ epoch);
                        results.lock().push(sample);
                    }
                });
            }
        });
        let mut samples = results.into_inner();
        samples.sort_by_key(|s| s.batch_id);
        samples
    }
}

impl TrainingSystem for Ginex {
    fn name(&self) -> String {
        "Ginex".into()
    }

    fn train_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> EpochReport {
        telemetry::register_thread(ThreadClass::Cpu);
        let plan = BatchPlan::new(
            &self.ds.train_idx,
            self.cfg.batch_size,
            epoch,
            self.cfg.seed,
        );
        let full_batches = plan.num_batches();
        let batches = full_batches.min(max_batches.unwrap_or(usize::MAX));
        let io_before = self.ds.ssd.stats().snapshot();
        let t0 = Instant::now();
        let mut sample_secs = 0.0;
        let mut extract_secs = 0.0;
        let mut train_secs = 0.0;
        let mut loss_sum = 0.0f64;
        let mut nodes_loaded = 0u64;
        let mut nodes_reused = 0u64;
        let mut processed = 0usize;

        let mut start = 0usize;
        while start < batches {
            let end = (start + self.cfg.superbatch_size).min(batches);

            // Superbatch phase 1: sample everything, spill to SSD.
            let t = Instant::now();
            let samples = self.sample_superbatch(&plan, start..end, epoch);
            let spill = self.spill_samples(&samples);
            sample_secs += t.elapsed().as_secs_f64();

            // Phase 2: inspect (changeset computation).
            let t = Instant::now();
            let changesets = self.inspect(&samples);
            let spilled_lists = self.read_back_spill(spill, samples.len());
            extract_secs += t.elapsed().as_secs_f64();

            // Phase 3: extract (apply changesets) + train.
            for ((sample, cs), spilled) in samples.into_iter().zip(changesets).zip(spilled_lists) {
                debug_assert_eq!(spilled, sample.input_nodes);
                let t = Instant::now();
                for n in &cs.evict {
                    self.feature_cache.remove(n);
                }
                nodes_loaded += (cs.load.len() + cs.transient.len()) as u64;
                nodes_reused +=
                    (sample.input_nodes.len() - cs.load.len() - cs.transient.len()) as u64;
                let loaded = self.parallel_sync_load(&cs.load);
                for (n, row) in loaded {
                    self.feature_cache.insert(n, row);
                }
                let transient: HashMap<NodeId, Vec<f32>> =
                    self.parallel_sync_load(&cs.transient).into_iter().collect();
                // Gather the batch from the (now warm) cache.
                let dim = self.ds.spec.feat_dim;
                let mut input = Matrix::zeros(sample.input_nodes.len(), dim);
                for (i, n) in sample.input_nodes.iter().enumerate() {
                    let row = self
                        .feature_cache
                        .get(n)
                        .or_else(|| transient.get(n))
                        .expect("row resident after changeset");
                    input.row_mut(i).copy_from_slice(row);
                }
                extract_secs += t.elapsed().as_secs_f64();

                // Blocking H2D of the whole batch, then train.
                let t = Instant::now();
                let bytes = (input.rows() * input.cols() * 4) as u64;
                self.device.transfer.pay_blocking(bytes);
                let y = seed_labels(&self.ds, &sample.seeds);
                let flops = self.model.flops(&sample.blocks);
                let result = self
                    .device
                    .compute
                    .run(flops, || self.model.train_step(&sample.blocks, &input, &y));
                let mut params = self.model.params_mut();
                self.opt.step(&mut params);
                loss_sum += result.loss as f64;
                self.metrics
                    .batch_latency
                    .record(t.elapsed().as_nanos() as u64);
                self.metrics.batches.inc();
                train_secs += t.elapsed().as_secs_f64();
                processed += 1;
            }
            start = end;
        }

        let io = self.ds.ssd.stats().snapshot().delta_since(&io_before);
        self.metrics.epochs.inc();
        self.metrics.bytes_read.add(io.read_bytes);
        EpochReport {
            wall: t0.elapsed(),
            batches: processed,
            full_batches,
            failed_batches: 0,
            loss: (loss_sum / processed.max(1) as f64) as f32,
            sample_secs,
            extract_secs,
            train_secs,
            bytes_read: io.read_bytes,
            nodes_loaded,
            nodes_reused,
            prep_secs: 0.0,
            batch_latency: Default::default(),
            error: None,
        }
    }

    fn sample_only_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> Duration {
        let plan = BatchPlan::new(
            &self.ds.train_idx,
            self.cfg.batch_size,
            epoch,
            self.cfg.seed,
        );
        let batches = plan.num_batches().min(max_batches.unwrap_or(usize::MAX));
        let t0 = Instant::now();
        let mut start = 0usize;
        while start < batches {
            let end = (start + self.cfg.superbatch_size).min(batches);
            let samples = self.sample_superbatch(&plan, start..end, epoch);
            // The spill is part of Ginex's sample stage (the paper counts
            // it against sampling time).
            let _ = self.spill_samples(&samples);
            start = end;
        }
        t0.elapsed()
    }

    fn evaluate(&mut self) -> f64 {
        evaluate_model(&self.model, &self.ds, &self.cfg.fanouts, 512)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::DatasetSpec;
    use gnndrive_storage::{SimSsd, SsdProfile};

    fn setup() -> (Arc<Dataset>, Arc<MemoryGovernor>, Arc<PageCache>) {
        let ds = Arc::new(Dataset::build(
            DatasetSpec {
                name: "g".into(),
                num_nodes: 1200,
                num_edges: 9000,
                feat_dim: 16,
                num_classes: 4,
                intra_prob: 0.8,
                feature_signal: 1.2,
                train_fraction: 0.25,
                seed: 19,
            },
            SimSsd::new(SsdProfile::instant()),
        ));
        let gov = MemoryGovernor::new(512 * 1024 * 1024);
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
        (ds, gov, cache)
    }

    fn config() -> GinexConfig {
        GinexConfig {
            superbatch_size: 4,
            neighbor_cache_bytes: 64 * 1024,
            feature_cache_bytes: 40 * 1024,
            io_threads: 4,
            num_samplers: 2,
            fanouts: vec![4, 4],
            batch_size: 60,
            seed: 3,
        }
    }

    #[test]
    fn trains_and_learns() {
        let (ds, gov, cache) = setup();
        let mut sys = Ginex::new(
            Arc::clone(&ds),
            ModelKind::GraphSage,
            16,
            config(),
            GpuDevice::rtx3090(),
            gov,
            cache,
        )
        .unwrap();
        let acc0 = sys.evaluate();
        for e in 0..3 {
            let r = sys.train_epoch(e, None);
            assert!(r.error.is_none());
            assert_eq!(r.batches, r.full_batches);
            assert!(r.loss.is_finite());
            assert!(r.nodes_loaded > 0);
        }
        let acc1 = sys.evaluate();
        assert!(acc1 > acc0 || acc1 > 0.6, "{acc0} -> {acc1}");
    }

    #[test]
    fn cache_hits_grow_across_epochs() {
        let (ds, gov, cache) = setup();
        let mut cfg = config();
        cfg.feature_cache_bytes = 1 << 20; // roomy: high reuse expected
        let mut sys = Ginex::new(
            ds,
            ModelKind::GraphSage,
            8,
            cfg,
            GpuDevice::rtx3090(),
            gov,
            cache,
        )
        .unwrap();
        let r1 = sys.train_epoch(0, None);
        let r2 = sys.train_epoch(1, None);
        assert!(
            r2.nodes_reused > r1.nodes_reused / 2,
            "reuse should persist: {} then {}",
            r1.nodes_reused,
            r2.nodes_reused
        );
        assert!(r2.nodes_loaded < r1.nodes_loaded);
    }

    #[test]
    fn construction_ooms_on_small_budget() {
        let (ds, _gov, _cache) = setup();
        let gov = MemoryGovernor::new(16 * 1024); // smaller than the caches
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
        let err = Ginex::new(
            ds,
            ModelKind::GraphSage,
            8,
            config(),
            GpuDevice::rtx3090(),
            gov,
            cache,
        )
        .err()
        .expect("must OOM");
        assert!(err.requested > 0);
    }

    #[test]
    fn belady_prefers_evicting_farthest_next_use() {
        let (ds, gov, cache) = setup();
        let mut cfg = config();
        // Cache of exactly 2 rows.
        cfg.feature_cache_bytes = (2 * ds.spec.feat_dim * 4) as u64;
        let sys = Ginex::new(
            ds,
            ModelKind::GraphSage,
            8,
            cfg,
            GpuDevice::rtx3090(),
            gov,
            cache,
        )
        .unwrap();
        let mk = |id: u64, nodes: &[u32]| MiniBatchSample {
            batch_id: id,
            seeds: vec![nodes[0]],
            input_nodes: nodes.to_vec(),
            blocks: vec![gnndrive_sampling::Block {
                num_src: nodes.len(),
                num_dst: 1,
                edge_src: vec![],
                edge_dst: vec![],
            }],
        };
        // Capacity 2. Batch 0 loads {1,2}. Batch 1 uses {1,3}: both are
        // needed now, so the only evictable node is 2 — Belady drops it
        // even though it returns in batch 2 (a forced eviction). Batch 2
        // must therefore reload 2, and the victim chosen then must be the
        // never-used-again node, not the cache's other resident.
        let samples = vec![mk(0, &[1, 2]), mk(1, &[1, 3]), mk(2, &[2, 3])];
        let cs = sys.inspect(&samples);
        assert_eq!(cs[0].load, vec![1, 2]);
        assert_eq!(cs[1].load, vec![3]);
        assert_eq!(cs[1].evict, vec![2]);
        assert_eq!(cs[2].load, vec![2]);
        // Batch 2 keeps 3 (in use) and evicts 1 (never used again).
        assert_eq!(cs[2].evict, vec![1]);
    }
}
