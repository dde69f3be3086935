//! Multi-device data parallelism (paper §4.3, Fig 7).
//!
//! GNNDrive splits the training set into *segments*, one per device worker
//! (the paper uses subprocesses because of Python's GIL; Rust threads play
//! that role here). Each worker owns a full pipeline — its own samplers,
//! extractors, trainer, releaser, queues, and a feature buffer in its own
//! device's memory — and synchronizes gradients with the other workers in
//! the backward pass, DDP-style. The all-reduce carries a modeled
//! interconnect cost (NCCL/IPC), which is what bends the scalability curve
//! of Fig 13 at higher worker counts.

use crate::pipeline::Pipeline;
use crate::system::EpochReport;
use gnndrive_graph::NodeId;
use gnndrive_nn::GnnModel;
use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex};
use gnndrive_tensor::Matrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interconnect model for gradient synchronization.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    pub workers: usize,
    /// Fixed per-step synchronization latency (kernel launches, IPC).
    pub sync_latency: Duration,
    /// All-reduce payload bandwidth in bytes/second.
    pub interconnect_bandwidth: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            workers: 1,
            sync_latency: Duration::from_micros(150),
            interconnect_bandwidth: 6 * 1024 * 1024 * 1024,
        }
    }
}

/// Result of a data-parallel epoch.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Wall time of the slowest worker (= the epoch time).
    pub epoch_wall: Duration,
    pub per_worker: Vec<EpochReport>,
    /// Workers whose epoch panicked: `(worker index, panic message)`.
    /// A failed worker leaves the gradient barrier (so survivors finish
    /// their segments) and contributes no [`EpochReport`].
    pub failed: Vec<(usize, String)>,
}

/// `train_idx` cannot be split into the requested worker segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentError {
    pub train_nodes: usize,
    pub workers: usize,
    pub batch_size: usize,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot split {} training nodes into {} segments of at least one \
             {}-node batch each; reduce workers to at most {}",
            self.train_nodes,
            self.workers,
            self.batch_size,
            (self.train_nodes / self.batch_size.max(1)).max(1)
        )
    }
}

impl std::error::Error for SegmentError {}

struct SyncState {
    active: usize,
    arrived: usize,
    generation: u64,
    accum: Vec<Matrix>,
    result: Vec<Matrix>,
}

/// Barrier-style gradient all-reduce across worker replicas.
pub struct GradSync {
    inner: OrderedMutex<SyncState>,
    cv: OrderedCondvar,
    per_step_cost: Duration,
}

impl GradSync {
    pub fn new(cfg: &ParallelConfig, model_grad_bytes: u64) -> Arc<Self> {
        // Ring all-reduce moves ~2× the payload per step.
        let wire = Duration::from_nanos(
            (2 * model_grad_bytes as u128 * 1_000_000_000
                / cfg.interconnect_bandwidth.max(1) as u128) as u64,
        );
        Arc::new(GradSync {
            inner: OrderedMutex::new(
                LockRank::Sync,
                SyncState {
                    active: cfg.workers,
                    arrived: 0,
                    generation: 0,
                    accum: Vec::new(),
                    result: Vec::new(),
                },
            ),
            cv: OrderedCondvar::new(),
            per_step_cost: cfg.sync_latency + wire,
        })
    }

    fn finalize_round(st: &mut SyncState, cv: &OrderedCondvar) {
        let n = st.arrived as f32;
        for a in &mut st.accum {
            a.scale(1.0 / n);
        }
        st.result = std::mem::take(&mut st.accum);
        st.generation += 1;
        st.arrived = 0;
        cv.notify_all();
    }

    /// Contribute this replica's gradients, wait for everyone, and replace
    /// them with the group average.
    pub fn all_reduce(&self, model: &mut GnnModel) {
        let mut params = model.params_mut();
        let mut st = self.inner.lock();
        if st.accum.is_empty() {
            st.accum = params.iter().map(|p| p.grad.clone()).collect();
        } else {
            for (a, p) in st.accum.iter_mut().zip(params.iter()) {
                a.add_assign(&p.grad);
            }
        }
        st.arrived += 1;
        let my_gen = st.generation;
        if st.arrived >= st.active {
            Self::finalize_round(&mut st, &self.cv);
        } else {
            while st.generation == my_gen {
                self.cv.wait(&mut st);
            }
        }
        for (p, r) in params.iter_mut().zip(st.result.iter()) {
            p.grad = r.clone();
        }
        drop(st);
        // The modeled interconnect time; all replicas pay it concurrently.
        if self.per_step_cost > Duration::ZERO {
            let _io = gnndrive_telemetry::state(gnndrive_telemetry::State::IoWait);
            std::thread::sleep(self.per_step_cost);
        }
    }

    /// A worker that finished its segment leaves the group so the barrier
    /// keeps functioning for the rest.
    pub fn leave(&self) {
        let mut st = self.inner.lock();
        st.active -= 1;
        if st.arrived > 0 && st.arrived >= st.active {
            Self::finalize_round(&mut st, &self.cv);
        }
    }
}

/// Split `train_idx` into `workers` equal segments (remainder truncated so
/// every worker runs the same number of synchronized steps).
///
/// Errors when the training set cannot give every worker at least one full
/// batch (`workers > train_idx.len() / batch_size`): the old behaviour
/// silently produced empty or under-sized tail segments, which meant some
/// replicas ran zero synchronized steps while still counting toward the
/// scalability figure.
pub fn split_segments(
    train_idx: &[NodeId],
    workers: usize,
    batch_size: usize,
) -> Result<Vec<Vec<NodeId>>, SegmentError> {
    let batch = batch_size.max(1);
    if workers == 0 || train_idx.len() / batch < workers {
        return Err(SegmentError {
            train_nodes: train_idx.len(),
            workers,
            batch_size: batch,
        });
    }
    let per = (train_idx.len() / workers / batch) * batch;
    Ok((0..workers)
        .map(|w| {
            let s = w * per;
            let e = (w + 1) * per;
            train_idx[s..e].to_vec()
        })
        .collect())
}

/// Run one data-parallel epoch over pre-built worker pipelines.
///
/// Every pipeline must have been built identically (same seed) so the
/// replicas share initial weights; segments come from [`split_segments`].
pub fn run_data_parallel(
    pipelines: &mut [Pipeline],
    pcfg: &ParallelConfig,
    epoch: u64,
    max_batches: Option<usize>,
) -> ParallelReport {
    assert_eq!(pipelines.len(), pcfg.workers);
    let grad_bytes: u64 = pipelines[0]
        .model_mut()
        .params_mut()
        .iter()
        .map(|p| (p.grad.rows() * p.grad.cols() * 4) as u64)
        .sum();
    let sync = GradSync::new(pcfg, grad_bytes);
    gnndrive_telemetry::set_gpu_count(pcfg.workers);

    /// Guarantees `GradSync::leave` runs exactly once per worker, even when
    /// the worker's epoch panics — otherwise the surviving replicas would
    /// wait forever at the gradient barrier for a peer that is gone.
    struct LeaveGuard<'a>(&'a GradSync);
    impl Drop for LeaveGuard<'_> {
        fn drop(&mut self) {
            self.0.leave();
        }
    }

    let t0 = Instant::now();
    let mut reports: Vec<EpochReport> = Vec::new();
    let mut failed: Vec<(usize, String)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for p in pipelines.iter_mut() {
            let sync = Arc::clone(&sync);
            handles.push(s.spawn(move || {
                let _leave = LeaveGuard(&sync);
                p.train_epoch_with_sync(epoch, max_batches, |m| sync.all_reduce(m))
                    .report
            }));
        }
        // Every handle is joined by hand: a worker panic is a typed
        // `failed` entry, not a re-panic when the scope closes.
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(report) => reports.push(report),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("worker panicked")
                        .to_string();
                    gnndrive_telemetry::counter("parallel.worker_failures").inc();
                    failed.push((w, msg));
                }
            }
        }
    });

    ParallelReport {
        epoch_wall: t0.elapsed(),
        per_worker: reports,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_equal_and_batch_aligned() {
        let idx: Vec<NodeId> = (0..1000).collect();
        let segs = split_segments(&idx, 4, 32).unwrap();
        assert_eq!(segs.len(), 4);
        assert!(segs.iter().all(|s| s.len() == segs[0].len()));
        assert_eq!(segs[0].len() % 32, 0);
        // Disjoint.
        assert!(segs[0].iter().all(|n| !segs[1].contains(n)));
    }

    #[test]
    fn oversubscribed_split_errors_instead_of_empty_segments() {
        // 100 nodes / batch 32 = 3 full batches; 8 workers used to get
        // empty tail segments, now it is a structured error.
        let idx: Vec<NodeId> = (0..100).collect();
        let err = split_segments(&idx, 8, 32).unwrap_err();
        assert_eq!(err.train_nodes, 100);
        assert_eq!(err.workers, 8);
        assert!(err.to_string().contains("at most 3"));
        // Zero workers is also an error, not a panic.
        assert!(split_segments(&idx, 0, 32).is_err());
        // The boundary case still works: exactly one batch per worker.
        let segs = split_segments(&idx, 3, 32).unwrap();
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len() == 32));
    }

    #[test]
    fn gradsync_averages_across_replicas() {
        use gnndrive_nn::{build_model, ModelKind};
        let cfg = ParallelConfig {
            workers: 2,
            sync_latency: Duration::ZERO,
            interconnect_bandwidth: u64::MAX / 4,
        };
        let mut m1 = build_model(ModelKind::Gcn, 4, 4, 2, 1, 9);
        let mut m2 = build_model(ModelKind::Gcn, 4, 4, 2, 1, 9);
        // Plant different gradients.
        m1.params_mut()[0].grad.data_mut()[0] = 2.0;
        m2.params_mut()[0].grad.data_mut()[0] = 4.0;
        let grad_bytes = 4;
        let sync = GradSync::new(&cfg, grad_bytes);
        let s2 = Arc::clone(&sync);
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                s2.all_reduce(&mut m2);
                m2.params_mut()[0].grad.data()[0]
            });
            sync.all_reduce(&mut m1);
            let g1 = m1.params_mut()[0].grad.data()[0];
            let g2 = h.join().unwrap();
            assert_eq!(g1, 3.0);
            assert_eq!(g2, 3.0);
        });
    }

    #[test]
    fn leaving_worker_unblocks_the_rest() {
        use gnndrive_nn::{build_model, ModelKind};
        let cfg = ParallelConfig {
            workers: 2,
            sync_latency: Duration::ZERO,
            interconnect_bandwidth: u64::MAX / 4,
        };
        let sync = GradSync::new(&cfg, 4);
        let s2 = Arc::clone(&sync);
        std::thread::scope(|s| {
            let h = s.spawn(move || {
                let mut m = build_model(ModelKind::Gcn, 4, 4, 2, 1, 1);
                // Arrive first; will be released when the other leaves.
                s2.all_reduce(&mut m);
            });
            std::thread::sleep(Duration::from_millis(20));
            sync.leave();
            h.join().unwrap();
        });
    }
}
