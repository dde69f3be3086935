//! PyG+ — the memory-mapped extension of PyTorch Geometric (Park et al.,
//! VLDB '22; the paper's first baseline).
//!
//! Mechanisms reproduced from §2/§3 of the GNNDrive paper:
//!
//! * topology **and** features are memory-mapped, so both fault through the
//!   one shared OS page cache — under a tight host budget, feature pages
//!   evict topology pages and sampling slows down (𝔒1);
//! * DataLoader-style worker threads run sample+extract concurrently with
//!   training, which *worsens* the contention (the paper: "the concurrent
//!   execution of sample and extract stages in PyG+ exacerbates the
//!   problem");
//! * extraction is synchronous buffered I/O on the critical path, and the
//!   whole mini-batch is then moved to the device with one blocking
//!   transfer (𝔒2);
//! * each in-flight batch materializes its gathered features in anonymous
//!   host memory (charged to the governor) and in device memory for
//!   training — large mini-batches OOM, as in the paper's Fig 10.

use crate::common::{gather_features_mmap, seed_labels, BaselineMetrics};
use gnndrive_core::{evaluate_model, EpochReport, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::Dataset;
use gnndrive_nn::{build_model, GnnModel, ModelKind};
use gnndrive_sampling::{BatchPlan, MiniBatchSample, MmapTopo, NeighborSampler, TopoReader};
use gnndrive_storage::{MemoryGovernor, PageCache};
use gnndrive_telemetry::{self as telemetry, State, ThreadClass};
use gnndrive_tensor::{Adam, Matrix, Optimizer};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PyG+ knobs.
#[derive(Debug, Clone)]
pub struct PygPlusConfig {
    /// DataLoader workers doing sample+extract (PyG `num_workers`).
    pub num_workers: usize,
    /// Prefetch depth of the loader queue (PyG `prefetch_factor` ×
    /// workers).
    pub prefetch: usize,
    pub fanouts: Vec<usize>,
    pub batch_size: usize,
    pub seed: u64,
}

impl Default for PygPlusConfig {
    fn default() -> Self {
        PygPlusConfig {
            num_workers: 4,
            prefetch: 4,
            fanouts: vec![10, 10, 10],
            batch_size: 100,
            seed: 7,
        }
    }
}

/// See module docs.
pub struct PygPlus {
    cfg: PygPlusConfig,
    ds: Arc<Dataset>,
    device: Arc<GpuDevice>,
    governor: Arc<MemoryGovernor>,
    cache: Arc<PageCache>,
    topo: Arc<dyn TopoReader>,
    model: GnnModel,
    opt: Adam,
    metrics: BaselineMetrics,
}

impl PygPlus {
    pub fn new(
        ds: Arc<Dataset>,
        model_kind: ModelKind,
        hidden: usize,
        cfg: PygPlusConfig,
        device: Arc<GpuDevice>,
        governor: Arc<MemoryGovernor>,
        cache: Arc<PageCache>,
    ) -> Self {
        let topo: Arc<dyn TopoReader> = Arc::new(MmapTopo::new(
            Arc::clone(&ds.indptr),
            Arc::clone(&cache),
            ds.indices_file,
        ));
        let model = build_model(
            model_kind,
            ds.spec.feat_dim,
            hidden,
            ds.spec.num_classes,
            cfg.fanouts.len(),
            cfg.seed,
        );
        PygPlus {
            cfg,
            ds,
            device,
            governor,
            cache,
            topo,
            model,
            opt: Adam::new(0.003),
            metrics: BaselineMetrics::new("pygplus"),
        }
    }
}

/// One loaded batch traveling from a loader worker to the trainer.
struct LoadedBatch {
    sample: MiniBatchSample,
    features: Matrix,
    /// Host-memory charge for the gathered features (dropped after the
    /// device transfer).
    charge: gnndrive_storage::MemCharge,
}

impl TrainingSystem for PygPlus {
    fn name(&self) -> String {
        "PyG+".into()
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
        if batches == 0 {
            return EpochReport::default();
        }
        let sampler = Arc::new(NeighborSampler::new(
            Arc::clone(&self.topo),
            self.cfg.fanouts.clone(),
        ));
        let (tx, rx) = gnndrive_sync::queue::bounded::<LoadedBatch>(self.cfg.prefetch.max(1));
        let cursor = AtomicUsize::new(0);
        let sample_nanos = AtomicU64::new(0);
        let extract_nanos = AtomicU64::new(0);
        let failed = Arc::new(AtomicBool::new(false));
        let error =
            gnndrive_sync::OrderedMutex::new(gnndrive_sync::LockRank::Pipeline, None::<String>);
        let io_before = self.ds.ssd.stats().snapshot();
        let dim = self.ds.spec.feat_dim;
        let mut train_secs = 0.0;
        let mut loss_sum = 0.0f64;
        let mut processed = 0usize;
        let t0 = Instant::now();

        std::thread::scope(|s| {
            // DataLoader workers: sample then synchronously extract.
            for w in 0..self.cfg.num_workers.max(1) {
                let tx = tx.clone();
                let cursor = &cursor;
                let plan = &plan;
                let sampler = Arc::clone(&sampler);
                let cache = Arc::clone(&self.cache);
                let governor = Arc::clone(&self.governor);
                let ds = Arc::clone(&self.ds);
                let sample_nanos = &sample_nanos;
                let extract_nanos = &extract_nanos;
                let failed = Arc::clone(&failed);
                let error = &error;
                let seed = self.cfg.seed;
                std::thread::Builder::new()
                    .name(format!("pyg-loader-{w}"))
                    .spawn_scoped(s, move || {
                        telemetry::register_thread(ThreadClass::Cpu);
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                break;
                            }
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= batches {
                                break;
                            }
                            let t = Instant::now();
                            let sample = {
                                let _busy = telemetry::state(State::Compute);
                                sampler.sample(i as u64, plan.batch(i), seed ^ epoch)
                            };
                            sample_nanos
                                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);

                            let t = Instant::now();
                            // Anonymous host memory for the gathered batch.
                            let bytes = (sample.input_nodes.len() * dim * 4) as u64;
                            // Block under memory pressure like a real
                            // loader inside malloc/reclaim; only a
                            // persistent shortfall is an OOM.
                            let charge =
                                match governor.charge_waiting(bytes, Duration::from_secs(30)) {
                                    Ok(c) => c,
                                    Err(e) => {
                                        *error.lock() = Some(format!("loader OOM: {e}"));
                                        failed.store(true, Ordering::Relaxed);
                                        break;
                                    }
                                };
                            let features = {
                                let _busy = telemetry::state(State::Compute);
                                gather_features_mmap(
                                    &cache,
                                    ds.features_file,
                                    dim,
                                    &sample.input_nodes,
                                )
                            };
                            extract_nanos
                                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            if tx
                                .send(LoadedBatch {
                                    sample,
                                    features,
                                    charge,
                                })
                                .is_err()
                            {
                                break;
                            }
                        }
                    })
                    .expect("spawn loader");
            }
            drop(tx);

            // Trainer: blocking H2D transfer of the whole batch, then train.
            telemetry::register_thread(ThreadClass::Cpu);
            while let Ok(batch) = rx.recv() {
                if failed.load(Ordering::Relaxed) {
                    // Keep draining so loaders blocked in `send` on the full
                    // prefetch channel can observe the failure and exit —
                    // breaking here would leave them parked and hang the
                    // scope join.
                    continue;
                }
                let t = Instant::now();
                let bytes = (batch.features.rows() * batch.features.cols() * 4) as u64;
                // Device allocation for the batch features; OOM aborts.
                let dev_alloc = match self.device.memory.alloc(bytes) {
                    Ok(a) => a,
                    Err(e) => {
                        *error.lock() = Some(format!("device OOM: {e}"));
                        failed.store(true, Ordering::Relaxed);
                        continue;
                    }
                };
                self.device.transfer.pay_blocking(bytes);
                drop(batch.charge); // host copy freed after the transfer

                let y = seed_labels(&self.ds, &batch.sample.seeds);
                let flops = self.model.flops(&batch.sample.blocks);
                let result = self.device.compute.run(flops, || {
                    self.model
                        .train_step(&batch.sample.blocks, &batch.features, &y)
                });
                let mut params = self.model.params_mut();
                self.opt.step(&mut params);
                drop(dev_alloc);
                loss_sum += result.loss as f64;
                self.metrics
                    .batch_latency
                    .record(t.elapsed().as_nanos() as u64);
                self.metrics.batches.inc();
                train_secs += t.elapsed().as_secs_f64();
                processed += 1;
            }
        });

        let io = self.ds.ssd.stats().snapshot().delta_since(&io_before);
        self.metrics.epochs.inc();
        self.metrics.bytes_read.add(io.read_bytes);
        EpochReport {
            wall: t0.elapsed(),
            batches: processed,
            full_batches,
            failed_batches: 0,
            loss: (loss_sum / processed.max(1) as f64) as f32,
            sample_secs: sample_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            extract_secs: extract_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            train_secs,
            bytes_read: io.read_bytes,
            nodes_loaded: 0,
            nodes_reused: 0,
            prep_secs: 0.0,
            batch_latency: Default::default(),
            error: error.into_inner(),
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
        let sampler = Arc::new(NeighborSampler::new(
            Arc::clone(&self.topo),
            self.cfg.fanouts.clone(),
        ));
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for w in 0..self.cfg.num_workers.max(1) {
                let cursor = &cursor;
                let plan = &plan;
                let sampler = Arc::clone(&sampler);
                let seed = self.cfg.seed;
                std::thread::Builder::new()
                    .name(format!("pyg-sample-{w}"))
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

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::DatasetSpec;
    use gnndrive_storage::{SimSsd, SsdProfile};

    fn setup(budget: u64) -> (Arc<Dataset>, Arc<MemoryGovernor>, Arc<PageCache>) {
        let ds = Arc::new(Dataset::build(
            DatasetSpec {
                name: "p".into(),
                num_nodes: 1500,
                num_edges: 10_000,
                feat_dim: 16,
                num_classes: 4,
                intra_prob: 0.8,
                feature_signal: 1.2,
                train_fraction: 0.2,
                seed: 13,
            },
            SimSsd::new(SsdProfile::instant()),
        ));
        let gov = MemoryGovernor::new(budget);
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
        (ds, gov, cache)
    }

    #[test]
    fn trains_a_full_epoch_and_learns() {
        let (ds, gov, cache) = setup(256 * 1024 * 1024);
        let cfg = PygPlusConfig {
            num_workers: 2,
            fanouts: vec![4, 4],
            batch_size: 50,
            ..Default::default()
        };
        let mut sys = PygPlus::new(
            Arc::clone(&ds),
            ModelKind::GraphSage,
            16,
            cfg,
            GpuDevice::rtx3090(),
            gov,
            cache,
        );
        let acc0 = sys.evaluate();
        for e in 0..3 {
            let r = sys.train_epoch(e, None);
            assert!(r.error.is_none(), "{:?}", r.error);
            assert_eq!(r.batches, r.full_batches);
            assert!(r.loss.is_finite());
        }
        let acc1 = sys.evaluate();
        assert!(acc1 > acc0 || acc1 > 0.6, "{acc0} -> {acc1}");
    }

    #[test]
    fn device_oom_aborts_without_hanging_loaders() {
        // The trainer hits device OOM while loaders are blocked sending
        // into the full prefetch channel; the epoch must terminate (drain,
        // not break) and report the error.
        let (ds, gov, cache) = setup(512 * 1024 * 1024);
        let cfg = PygPlusConfig {
            num_workers: 3,
            prefetch: 2,
            fanouts: vec![6, 6],
            batch_size: 100,
            ..Default::default()
        };
        let device = Arc::new(gnndrive_device::GpuDevice {
            name: "tiny",
            memory: gnndrive_device::DeviceMemory::new(64), // nothing fits
            transfer: gnndrive_device::TransferEngine::new(
                gnndrive_device::TransferProfile::host_memcpy(),
            ),
            compute: gnndrive_device::ComputeModel::new(
                "tiny",
                gnndrive_telemetry::ThreadClass::Gpu,
                1e9,
                Duration::ZERO,
            ),
        });
        let mut sys = PygPlus::new(ds, ModelKind::GraphSage, 8, cfg, device, gov, cache);
        let r = sys.train_epoch(0, Some(8));
        assert!(r.error.unwrap().contains("device OOM"));
    }

    #[test]
    fn loader_oom_aborts_with_error() {
        // A budget so small the gathered features cannot be charged.
        let (ds, gov, cache) = setup(64 * 1024);
        let cfg = PygPlusConfig {
            num_workers: 1,
            fanouts: vec![8, 8],
            batch_size: 200,
            ..Default::default()
        };
        let mut sys = PygPlus::new(
            ds,
            ModelKind::GraphSage,
            8,
            cfg,
            GpuDevice::rtx3090(),
            gov,
            cache,
        );
        let r = sys.train_epoch(0, Some(4));
        assert!(r.error.is_some(), "expected OOM");
        assert!(r.error.unwrap().contains("OOM"));
    }
}
