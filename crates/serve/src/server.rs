//! The serving tier: request admission, micro-batch coalescing, and the
//! per-request accounting behind the `serve.*` metrics.

use crate::config::ServeConfig;
use gnndrive_core::{Error as CoreError, Pipeline, TrainingSystem};
use gnndrive_graph::NodeId;
use gnndrive_sync::queue::{bounded, Receiver, Sender, TrySendError};
use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry::{self as telemetry, AttributionReport, HistSummary, RunReport};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a request did not produce a prediction. Every admitted request ends
/// in exactly one of: a [`ServeResponse`], or one of these.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The admission queue is at capacity; the caller should back off.
    QueueFull,
    /// The server is shutting down (or already shut down); the request was
    /// not admitted.
    ShuttingDown,
    /// The batcher thread is gone (it panicked); the request cannot be and
    /// was not served.
    BatcherGone,
    /// The shared inference path failed past all recovery — device faults
    /// beyond the retry budget, an open circuit breaker, an aborted
    /// dependency. The inner error is the core crate's typed failure.
    Inference(Arc<CoreError>),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "serving admission queue full"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::BatcherGone => write!(f, "serving batcher thread gone"),
            ServeError::Inference(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Inference(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

/// A completed request: the prediction plus where its latency went.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Predicted class for the request's seed node.
    pub prediction: usize,
    /// Admission → micro-batch launch, in ns (coalescing + queueing).
    pub queue_ns: u64,
    /// Micro-batch launch → reply, in ns (sample + extract + forward).
    pub service_ns: u64,
    /// How many requests shared this micro-batch.
    pub batch_size: usize,
}

/// One in-flight request: redeem with [`Ticket::wait`] for the response.
pub struct Ticket {
    rx: Receiver<Result<ServeResponse, ServeError>>,
}

impl Ticket {
    /// Block until the request completes. Never hangs on a healthy server:
    /// the batcher answers every admitted request, and if the batcher dies
    /// the dropped channel surfaces as [`ServeError::BatcherGone`].
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        match self.rx.recv() {
            Ok(out) => out,
            Err(_) => Err(ServeError::BatcherGone),
        }
    }
}

/// Aggregated serving statistics, snapshot by [`Server::report`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Submissions refused with [`ServeError::QueueFull`].
    pub rejected: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Micro-batches launched.
    pub batches: u64,
    /// Completed responses slower than the configured SLO deadline.
    pub slo_violations: u64,
    /// End-to-end latency distribution (admission → reply).
    pub latency: HistSummary,
    /// Queue-wait distribution (admission → batch launch).
    pub queue_wait: HistSummary,
    /// Service distribution (batch launch → reply).
    pub service: HistSummary,
}

impl ServeReport {
    /// Did the observed p99 hold the latency objective?
    pub fn meets_slo(&self, deadline: Duration) -> bool {
        (self.latency.p99_ns as u128) <= deadline.as_nanos()
    }

    /// Accounting invariant: every admitted request was answered. Holds
    /// after [`Server::shutdown`] (in flight, it lags by the queue depth).
    pub fn balanced(&self) -> bool {
        self.submitted == self.completed + self.failed
    }

    /// Fold the serving outcome into a run report: `serve.*` scalars plus
    /// the three latency stages.
    pub fn fold_into(&self, report: &mut RunReport) {
        report.add_scalar("serve.requests", self.submitted as f64);
        report.add_scalar("serve.rejected", self.rejected as f64);
        report.add_scalar("serve.completed", self.completed as f64);
        report.add_scalar("serve.failed", self.failed as f64);
        report.add_scalar("serve.batches", self.batches as f64);
        report.add_scalar("serve.slo_violations", self.slo_violations as f64);
        report.add_stage_summary("serve.latency", self.latency);
        report.add_stage_summary("serve.queue_wait", self.queue_wait);
        report.add_stage_summary("serve.service", self.service);
    }
}

/// Mutable serving tallies, under one lock (rank `Pipeline`: the serving
/// tier sits above the storage stack, and nothing below it is ever
/// acquired while this is held).
struct ServeStats {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    batches: u64,
    slo_violations: u64,
    latency: telemetry::Histogram,
    queue_wait: telemetry::Histogram,
    service: telemetry::Histogram,
}

impl ServeStats {
    fn new() -> Self {
        ServeStats {
            submitted: 0,
            rejected: 0,
            completed: 0,
            failed: 0,
            batches: 0,
            slo_violations: 0,
            latency: telemetry::Histogram::new(),
            queue_wait: telemetry::Histogram::new(),
            service: telemetry::Histogram::new(),
        }
    }
}

/// State shared between the caller-facing handle and the batcher thread.
struct Shared {
    stats: OrderedMutex<ServeStats>,
    attribution: OrderedMutex<Option<AttributionReport>>,
}

/// One admitted request travelling to the batcher.
struct ServeRequest {
    seed: NodeId,
    enqueued: Instant,
    reply: Sender<Result<ServeResponse, ServeError>>,
}

/// An online inference server over a trained [`Pipeline`].
///
/// [`Server::start`] moves the pipeline into a dedicated batcher thread;
/// callers submit seed nodes through [`Server::submit`] (non-blocking
/// admission, bounded queue) or [`Server::infer_blocking`], and
/// [`Server::shutdown`] drains the queue — answering every admitted
/// request — and hands the pipeline back for more training.
pub struct Server {
    tx: Option<Sender<ServeRequest>>,
    handle: Option<JoinHandle<Pipeline>>,
    shared: Arc<Shared>,
    cfg: ServeConfig,
}

impl Server {
    /// Spawn the batcher thread and start accepting requests.
    pub fn start(pipeline: Pipeline, cfg: ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            stats: OrderedMutex::new(LockRank::Pipeline, ServeStats::new()),
            attribution: OrderedMutex::new(LockRank::Pipeline, pipeline.last_attribution()),
        });
        let (tx, rx) = bounded::<ServeRequest>(cfg.queue_cap);
        let handle = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("serve-batcher".into())
                .spawn(move || batcher(pipeline, cfg, rx, shared))
                .expect("spawn serve-batcher")
        };
        Server {
            tx: Some(tx),
            handle: Some(handle),
            shared,
            cfg,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Admit one request (seed node to classify). Non-blocking: a full
    /// queue rejects immediately with [`ServeError::QueueFull`] instead of
    /// absorbing unbounded latency.
    pub fn submit(&self, seed: NodeId) -> Result<Ticket, ServeError> {
        let tx = match &self.tx {
            Some(tx) => tx,
            None => return Err(ServeError::ShuttingDown),
        };
        let (reply_tx, reply_rx) = bounded(1);
        let req = ServeRequest {
            seed,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        match tx.try_send(req) {
            Ok(()) => {
                self.shared.stats.lock().submitted += 1;
                telemetry::counter("serve.requests").inc();
                telemetry::gauge("serve.queue.depth").set(tx.len() as i64);
                Ok(Ticket { rx: reply_rx })
            }
            Err(TrySendError::Full(_)) => {
                self.shared.stats.lock().rejected += 1;
                telemetry::counter("serve.rejected").inc();
                Err(ServeError::QueueFull)
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::BatcherGone),
        }
    }

    /// Submit and wait: the one-call path for closed-loop clients.
    pub fn infer_blocking(&self, seed: NodeId) -> Result<ServeResponse, ServeError> {
        self.submit(seed)?.wait()
    }

    /// Snapshot the serving statistics so far.
    pub fn report(&self) -> ServeReport {
        let st = self.shared.stats.lock();
        ServeReport {
            submitted: st.submitted,
            rejected: st.rejected,
            completed: st.completed,
            failed: st.failed,
            batches: st.batches,
            slo_violations: st.slo_violations,
            latency: HistSummary::of(&st.latency),
            queue_wait: HistSummary::of(&st.queue_wait),
            service: HistSummary::of(&st.service),
        }
    }

    /// Bottleneck attribution of the pipeline's most recent training
    /// epoch, mirrored here so serving-side observers see the same verdict
    /// surface [`TrainingSystem`] exposes.
    pub fn last_attribution(&self) -> Option<AttributionReport> {
        self.shared.attribution.lock().clone()
    }

    /// Stop admitting, drain the queue (every already-admitted request is
    /// still answered), and hand back the pipeline plus the final report.
    pub fn shutdown(mut self) -> Result<(Pipeline, ServeReport), ServeError> {
        drop(self.tx.take());
        let handle = match self.handle.take() {
            Some(h) => h,
            None => return Err(ServeError::BatcherGone),
        };
        let pipeline = handle.join().map_err(|_| ServeError::BatcherGone)?;
        let report = self.report();
        Ok((pipeline, report))
    }
}

/// The batcher loop: block on the first request, hold the micro-batch
/// open until the coalescing deadline or size cap, run one shared-stack
/// inference for the deduplicated seeds, and answer every member. Exits —
/// returning the pipeline — once the server handle drops the sender and
/// the queue is drained.
fn batcher(
    mut pipeline: Pipeline,
    cfg: ServeConfig,
    rx: Receiver<ServeRequest>,
    shared: Arc<Shared>,
) -> Pipeline {
    telemetry::register_thread(telemetry::ThreadClass::Cpu);
    let c_completed = telemetry::counter("serve.completed");
    let c_failed = telemetry::counter("serve.failed");
    let c_batches = telemetry::counter("serve.batches");
    let c_violations = telemetry::counter("serve.slo_violations");
    let h_latency = telemetry::histogram_ns("serve.latency");
    let h_queue = telemetry::histogram_ns("serve.queue_wait");
    let h_service = telemetry::histogram_ns("serve.service");
    let g_depth = telemetry::gauge("serve.queue.depth");

    while let Ok(first) = rx.recv() {
        let mut batch = vec![first];
        let deadline = Instant::now() + cfg.coalesce_deadline;
        while batch.len() < cfg.max_batch.max(1) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(req) => batch.push(req),
                Err(_) => break, // deadline hit, or shutdown drain finished
            }
        }
        g_depth.set(rx.len() as i64);

        // Deduplicate seeds: concurrent users often ask about the same hot
        // node; one extraction serves them all.
        let mut seeds: Vec<NodeId> = Vec::with_capacity(batch.len());
        let mut index_of: Vec<usize> = Vec::with_capacity(batch.len());
        for req in &batch {
            match seeds.iter().position(|&s| s == req.seed) {
                Some(i) => index_of.push(i),
                None => {
                    seeds.push(req.seed);
                    index_of.push(seeds.len() - 1);
                }
            }
        }

        let launched = Instant::now();
        // The core error is not `Clone`; put it behind an `Arc` once so
        // every member of a failed batch carries the same typed failure.
        let outcome: Result<_, Arc<CoreError>> =
            pipeline.try_infer_detailed(&seeds).map_err(Arc::new);
        let service_ns = launched.elapsed().as_nanos() as u64;
        let batch_size = batch.len();
        c_batches.inc();

        let mut st = shared.stats.lock();
        st.batches += 1;
        for (req, &idx) in batch.iter().zip(&index_of) {
            let queue_ns = launched.duration_since(req.enqueued).as_nanos() as u64;
            let latency_ns = req.enqueued.elapsed().as_nanos() as u64;
            let reply = match &outcome {
                Ok(out) => {
                    st.completed += 1;
                    c_completed.inc();
                    st.latency.record(latency_ns);
                    st.queue_wait.record(queue_ns);
                    st.service.record(service_ns);
                    h_latency.record(latency_ns);
                    h_queue.record(queue_ns);
                    h_service.record(service_ns);
                    if latency_ns as u128 > cfg.slo_deadline.as_nanos() {
                        st.slo_violations += 1;
                        c_violations.inc();
                    }
                    Ok(ServeResponse {
                        prediction: out.predictions[idx],
                        queue_ns,
                        service_ns,
                        batch_size,
                    })
                }
                Err(e) => {
                    st.failed += 1;
                    c_failed.inc();
                    Err(ServeError::Inference(Arc::clone(e)))
                }
            };
            // A receiver that gave up (dropped its ticket) is not an
            // error; the accounting above already counted the outcome.
            let _ = req.reply.send(reply);
        }
        drop(st);
    }
    // Read the pipeline's report before taking our lock: no foreign call
    // happens while the attribution guard is held.
    let attr = pipeline.last_attribution();
    *shared.attribution.lock() = attr;
    pipeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_core::{GnnDriveConfig, StackConfig};
    use gnndrive_device::GpuDevice;
    use gnndrive_graph::{Dataset, DatasetSpec};
    use gnndrive_nn::ModelKind;
    use gnndrive_storage::{HealthConfig, SimSsd, SsdProfile};

    fn pipeline(profile: SsdProfile, health: HealthConfig) -> Pipeline {
        let ds = Arc::new(Dataset::build(
            DatasetSpec {
                name: "serve-test".into(),
                num_nodes: 300,
                num_edges: 1500,
                feat_dim: 8,
                num_classes: 3,
                intra_prob: 0.8,
                feature_signal: 1.0,
                train_fraction: 0.3,
                seed: 11,
            },
            SimSsd::new(profile),
        ));
        Pipeline::builder(ds, GpuDevice::rtx3090())
            .with_model(ModelKind::GraphSage, 8)
            .with_config(GnnDriveConfig {
                fanouts: vec![3, 3],
                batch_size: 20,
                feature_buffer_slots: 4096,
                ..Default::default()
            })
            .with_stack(&StackConfig::default().with_health(health))
            .build()
            .expect("build serve-test pipeline")
    }

    #[test]
    fn every_request_is_answered_and_accounted() {
        let server = Arc::new(Server::start(
            pipeline(SsdProfile::instant(), HealthConfig::default()),
            ServeConfig::default().with_coalesce_deadline(Duration::from_millis(1)),
        ));
        let mut workers = Vec::new();
        for w in 0..4u32 {
            let server = Arc::clone(&server);
            workers.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    let resp = server
                        .infer_blocking((w * 70 + i) % 300)
                        .expect("serving a healthy stack");
                    assert!(resp.prediction < 3);
                    assert!(resp.batch_size >= 1);
                }
            }));
        }
        for h in workers {
            h.join().expect("closed-loop worker");
        }
        let server = Arc::into_inner(server).expect("sole owner after joins");
        let (_pipeline, report) = server.shutdown().expect("clean shutdown");
        assert_eq!(report.submitted, 100);
        assert_eq!(report.completed, 100);
        assert_eq!(report.failed, 0);
        assert!(report.balanced(), "accounting must balance: {report:?}");
        assert!(report.batches >= 1 && report.batches <= 100);
        assert_eq!(report.latency.count, 100);
    }

    #[test]
    fn full_queue_rejects_with_a_typed_error() {
        let mut profile = SsdProfile::instant();
        profile.read_latency = Duration::from_millis(50);
        profile.channels = 1;
        let server = Server::start(
            pipeline(profile, HealthConfig::default()),
            ServeConfig::default()
                .with_queue_cap(1)
                .with_max_batch(1)
                .with_coalesce_deadline(Duration::ZERO),
        );
        // #1 occupies the batcher (≥50 ms of device reads)…
        let t1 = server.submit(1).expect("first admission");
        std::thread::sleep(Duration::from_millis(10));
        // …#2 fills the queue, and #3 bounces off it.
        let t2 = server.submit(2).expect("second admission");
        match server.submit(3) {
            Err(ServeError::QueueFull) => {}
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got an admission"),
        }
        t1.wait().expect("first request");
        t2.wait().expect("second request");
        let (_p, report) = server.shutdown().expect("clean shutdown");
        assert_eq!(report.submitted, 2);
        assert_eq!(report.rejected, 1);
        assert!(report.balanced());
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_returns_the_pipeline() {
        let server = Server::start(
            pipeline(SsdProfile::instant(), HealthConfig::default()),
            ServeConfig::default(),
        );
        let tickets: Vec<Ticket> = (0..8).map(|i| server.submit(i).expect("admit")).collect();
        let (mut pipeline, report) = server.shutdown().expect("drain and stop");
        for t in tickets {
            t.wait().expect("drained request still answered");
        }
        assert_eq!(report.submitted, 8);
        assert_eq!(report.completed + report.failed, 8);
        // The pipeline comes back usable.
        assert_eq!(pipeline.infer(&[5]).len(), 1);
    }

    #[test]
    fn open_circuit_surfaces_as_typed_inference_errors() {
        let p = pipeline(SsdProfile::instant(), HealthConfig::enabled());
        let health = Arc::clone(p.device_health());
        let server = Server::start(p, ServeConfig::default());
        // Trip the breaker as if another reader saw an error storm.
        for _ in 0..64 {
            health.record_error();
        }
        let err = match server.infer_blocking(7) {
            Err(e) => e,
            Ok(_) => panic!("open circuit must fail the request"),
        };
        match &err {
            ServeError::Inference(core) => {
                assert!(core.to_string().contains("circuit"), "got {core}");
            }
            other => panic!("expected a typed inference error, got {other:?}"),
        }
        let (_p, report) = server.shutdown().expect("clean shutdown");
        assert_eq!(report.failed, 1);
        assert!(report.balanced());
    }
}
