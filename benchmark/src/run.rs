//! One measured run of one workload: set-up, training window, serving
//! window, output checks, and the metrics that come out.
//!
//! The untraced run (`trace = false`) yields the end-to-end metrics. The
//! traced run (`trace = true`) is the same workload with harness-side spans
//! around every call into a layer, the library's own per-batch tracer
//! switched on for every other epoch (which is how tracing overhead is
//! measured inside one process), the public per-epoch reports folded into
//! per-layer metrics, and the serial layer replay of [`crate::replay`].

use crate::metrics::catalog;
use crate::openloop::{self, Outcome, ServeSummary};
use crate::procstat;
use crate::replay::{self, ReplayMetrics};
use crate::spans::{SpanLog, NO_KEY};
use crate::stack::{build_dataset, Seeds, SharedStack};
use crate::stats::{mean, median, percentile};
use crate::workloads::{Workload, BATCH_SIZE};
use gnndrive::prelude::*;
use gnndrive::telemetry::{Histogram, MetricValue, MetricsSnapshot, WaitKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` spent training before the solo serving probe
/// (workloads that are not co-located). Epoch throughput repeats within a
/// few percent after four or five epochs, while latency percentiles need
/// every request they can get, so the probe takes the larger part.
const TRAIN_SHARE: f64 = 0.4;
/// Open-loop request rate.
const SERVE_RATE_HZ: f64 = 100.0;
/// Requests due in the first part of the serving window warm the server
/// pipeline up and are not counted.
const SERVE_WARMUP: Duration = Duration::from_millis(400);
/// Latency limit: a request answered later than this after it was due
/// counts as slow.
const SERVE_LIMIT_MS: f64 = 250.0;
/// Batches the output check walks in an untraced run.
const CHECK_BATCHES: usize = 3;
/// Batches of the traced run's serial layer replay.
const REPLAY_BATCHES: usize = 30;
/// Planted labels are learnable: even the ~60 batches a stalled sandbox
/// leaves `mem_tight` reach 0.25, against a chance level of 1/172
/// (papers100m-mini) or 1/50 (twitter-mini). The floor must hold however
/// slow the machine is, so it sits well below what a normal run reaches
/// (0.65 to 1.0; reported as `nn.val_accuracy`).
const MIN_VAL_ACCURACY: f64 = 0.1;

pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    pub violations: Vec<String>,
    /// Training batches plus counted serving requests.
    pub attempted: u64,
    /// Failed batches plus requests refused or failed with a typed error.
    pub failed: u64,
    /// `(name, value)` for every metric of the run's catalog, in order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable sample counts and observations.
    pub notes: Vec<String>,
}

/// What one set-up leaves behind.
struct Env {
    shared: SharedStack,
    trainer: Pipeline,
    /// Built up front only when serving runs beside training.
    server_pipeline: Option<Pipeline>,
    dataset_build_s: f64,
    pipeline_build_s: f64,
    warmup_loss: f32,
}

fn set_up(w: &Workload, seeds: &Seeds, log: &mut SpanLog) -> Result<Env, String> {
    let t = Instant::now();
    let ds = log.scoped("Dataset::build", "graph", NO_KEY, |_| {
        build_dataset(w, seeds)
    });
    let dataset_build_s = t.elapsed().as_secs_f64();
    let shared = SharedStack::new(w, ds);
    let t = Instant::now();
    let (mut trainer, server_pipeline) = log.scoped(
        "PipelineBuilder::build",
        "core",
        NO_KEY,
        |_| -> Result<_, String> {
            let trainer = shared.build_trainer(w, seeds)?;
            let server = match w.colocated {
                true => Some(shared.build_server_pipeline(w, seeds)?),
                false => None,
            };
            Ok((trainer, server))
        },
    )?;
    let pipeline_build_s = t.elapsed().as_secs_f64();
    let warm = log.scoped("train_epoch_stats (warm-up)", "core", 0, |_| {
        trainer.train_epoch_stats(0, Some(w.warmup_batches))
    });
    if let Some(e) = &warm.report.error {
        return Err(format!("warm-up epoch failed: {e}"));
    }
    Ok(Env {
        shared,
        trainer,
        server_pipeline,
        dataset_build_s,
        pipeline_build_s,
        warmup_loss: warm.report.loss,
    })
}

/// One measured epoch.
struct EpochSample {
    stats: EpochStats,
    /// The library's per-batch tracer was on during this epoch.
    lib_traced: bool,
    ended: Instant,
}

impl EpochSample {
    fn seeds_per_s(&self) -> f64 {
        let r = &self.stats.report;
        (r.batches * BATCH_SIZE) as f64 / r.wall.as_secs_f64().max(1e-9)
    }
}

/// Run fixed-size epochs until `stop` says so (checked between epochs, with
/// the wall time of the epoch just finished). Epoch 0 was the warm-up.
fn train_epochs(
    w: &Workload,
    trainer: &mut Pipeline,
    log: &mut SpanLog,
    trace: bool,
    mut stop: impl FnMut(usize, Duration) -> bool,
) -> Vec<EpochSample> {
    let mut epochs: Vec<EpochSample> = Vec::new();
    loop {
        let epoch_no = epochs.len() as u64 + 1;
        let lib_traced = trace && epochs.len() % 2 == 1;
        if lib_traced {
            telemetry::trace_enable();
        }
        let mut stats = log.scoped("train_epoch_stats", "core", epoch_no, |_| {
            trainer.train_epoch_stats(epoch_no, Some(w.epoch_batches))
        });
        telemetry::trace_disable();
        stats.batch_attribution = Vec::new();
        let wall = stats.report.wall;
        epochs.push(EpochSample {
            stats,
            lib_traced,
            ended: Instant::now(),
        });
        if stop(epochs.len(), wall) {
            return epochs;
        }
    }
}

struct ServeRun {
    summary: ServeSummary,
    /// Traced run: per counted request, the part of its due→reply span the
    /// server's queue/service split does not cover (generator lateness,
    /// reply hand-off, collector wake-up), in ms.
    harness_self_ms: Vec<f64>,
    report: ServeReport,
    /// When the last admitted request had resolved.
    ended: Instant,
}

/// Drive `pipeline` as a server with open-loop Poisson arrivals for about
/// `duration`, then shut it down.
fn serve(
    w: &Workload,
    shared: &SharedStack,
    pipeline: Pipeline,
    seeds: &Seeds,
    duration: Duration,
    log: &mut SpanLog,
    trace: bool,
) -> Result<ServeRun, String> {
    let server = log.scoped("Server::start", "serve", NO_KEY, |_| {
        Server::start(
            pipeline,
            ServeConfig::default()
                .with_stack(shared.config.clone())
                .with_coalesce_deadline(Duration::from_millis(2))
                .with_slo_deadline(Duration::from_millis(SERVE_LIMIT_MS as u64)),
        )
    });
    let requests = (duration.as_secs_f64() * SERVE_RATE_HZ).ceil() as usize;
    let arrivals: Vec<Arrival> = LoadGen::new(LoadGenConfig {
        users: 1_000_000,
        num_nodes: shared.ds.spec.num_nodes as u64,
        rate_hz: SERVE_RATE_HZ,
        requests,
        seed: seeds.loadgen,
    })
    .collect();
    let dues = openloop::due_times_ns(arrivals.iter().map(|a| a.delay));
    let (start, records) = openloop::run_open_loop(
        &dues,
        |i| server.submit(arrivals[i].seed_node).ok(),
        |ticket: Ticket| match ticket.wait() {
            Ok(r) => Outcome::Answered {
                queue_ns: r.queue_ns,
                service_ns: r.service_ns,
                batch_size: r.batch_size,
            },
            Err(_) => Outcome::Failed,
        },
    );
    let ended = Instant::now();
    let (_pipeline, report) = log
        .scoped("Server::shutdown", "serve", NO_KEY, |_| server.shutdown())
        .map_err(|e| format!("{}: server shutdown failed: {e}", w.name))?;
    let mut harness_self_ms = Vec::new();
    if trace {
        // One span per request (due → reply) with the server's own
        // queue/service split as children, on the harness clock. The
        // server does not say *when* it launched a batch, only how long
        // queueing and service took, so the children are laid out
        // backwards from the reply.
        let base = log.ns_since_origin(start);
        for (i, r) in records.iter().enumerate() {
            let id = log.add(
                "request",
                "serve",
                i as u64,
                None,
                base + r.due_ns,
                base + r.done_ns,
            );
            if let Outcome::Answered {
                queue_ns,
                service_ns,
                ..
            } = r.outcome
            {
                let served = base + r.done_ns;
                let launched = served.saturating_sub(service_ns);
                log.add(
                    "queue_ns",
                    "serve",
                    i as u64,
                    Some(id),
                    launched.saturating_sub(queue_ns),
                    launched,
                );
                log.add("service_ns", "serve", i as u64, Some(id), launched, served);
                if r.due_ns >= SERVE_WARMUP.as_nanos() as u64 {
                    harness_self_ms.push(log.self_ns(id) as f64 / 1e6);
                }
            }
        }
    }
    Ok(ServeRun {
        harness_self_ms,
        summary: openloop::summarize(&records, SERVE_WARMUP.as_nanos() as u64, SERVE_LIMIT_MS),
        report,
        ended,
    })
}

/// Total nanoseconds a registry histogram has seen (count × mean).
fn hist_total_ns(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.count as f64 * h.mean_ns,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let seeds = Seeds::derive(seed);
    let mut log = SpanLog::new();
    let mut violations: Vec<String> = Vec::new();
    let mut notes: Vec<String> = vec![format!(
        "host parallelism: {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    )];

    // ── set-up ───────────────────────────────────────────────────────────
    let repeats = if trace { 1 } else { SETUP_REPEATS };
    let mut setup_s: Vec<f64> = Vec::with_capacity(repeats);
    let mut env: Option<Env> = None;
    for _ in 0..repeats {
        drop(env.take());
        let t = Instant::now();
        match set_up(w, &seeds, &mut log) {
            Ok(e) => env = Some(e),
            Err(e) => return failed_run(trace, e),
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let Env {
        shared,
        mut trainer,
        server_pipeline,
        dataset_build_s,
        pipeline_build_s,
        warmup_loss,
    } = env.expect("at least one set-up");
    notes.push(format!(
        "setup_s: median of {} set-ups {:?}",
        setup_s.len(),
        setup_s
    ));

    // ── measured window ──────────────────────────────────────────────────
    let total = Duration::from_secs_f64(seconds);
    let metrics_before = telemetry::snapshot_metrics();
    let io_before = shared.ds.ssd.stats().snapshot();
    let cache_before = shared.cache.stats();
    let cpu_before = procstat::cpu_time_ms();
    let train_start = Instant::now();

    // Storage counters of the training window are read when training ends,
    // so the solo probe's reads do not blur them.
    let training_io = || {
        (
            shared.ds.ssd.stats().snapshot().delta_since(&io_before),
            shared.cache.stats(),
        )
    };
    let (epochs, val_accuracy, cpu_train_ms, (io, cache_after), served) = if w.colocated {
        let stop = AtomicBool::new(false);
        let server_pipeline =
            server_pipeline.expect("co-located workload builds its server up front");
        let origin = log.origin();
        let (epochs, served) = std::thread::scope(|s| {
            let trainer_thread = s.spawn(|| {
                // The trainer thread keeps its own span log; its spans are
                // merged below (SpanLog is single-threaded by design).
                let mut tlog = SpanLog::with_origin(origin);
                let epochs = train_epochs(w, &mut trainer, &mut tlog, trace, |_, _| {
                    stop.load(Ordering::Acquire)
                });
                (epochs, tlog)
            });
            let served = serve(w, &shared, server_pipeline, &seeds, total, &mut log, trace);
            stop.store(true, Ordering::Release);
            let (epochs, tlog) = trainer_thread.join().expect("trainer thread");
            for sp in tlog.spans() {
                log.add(sp.name, sp.layer, sp.key, None, sp.start_ns, sp.end_ns);
            }
            (epochs, served)
        });
        let cpu = procstat::cpu_time_ms() - cpu_before;
        let io = training_io();
        let acc = trainer.evaluate();
        drop(trainer);
        (epochs, acc, cpu, io, served)
    } else {
        let budget = total.mul_f64(TRAIN_SHARE);
        let epochs = train_epochs(w, &mut trainer, &mut log, trace, |done, last| {
            done >= 2 && train_start.elapsed() + last > budget
        });
        let cpu = procstat::cpu_time_ms() - cpu_before;
        let io = training_io();
        let acc = log.scoped("TrainingSystem::evaluate", "core", NO_KEY, |_| {
            trainer.evaluate()
        });
        // The probe's server pipeline takes the trainer's place on the
        // stack, so the host budget is never charged for both at once.
        drop(trainer);
        let served = shared
            .build_server_pipeline(w, &seeds)
            .and_then(|p| serve(w, &shared, p, &seeds, total - budget, &mut log, trace));
        (epochs, acc, cpu, io, served)
    };
    let served = match served {
        Ok(s) => s,
        Err(e) => return failed_run(trace, e),
    };
    let metrics_after = telemetry::snapshot_metrics();

    // Epochs that count: when serving ran beside training, only the ones
    // that finished inside the serving window were co-located throughout.
    let counted: Vec<&EpochSample> = epochs
        .iter()
        .filter(|e| !w.colocated || e.ended <= served.ended)
        .collect();
    if counted.len() < 2 {
        violations.push(format!(
            "only {} measured epoch(s); need at least 2",
            counted.len()
        ));
    }
    let batches: usize = counted.iter().map(|e| e.stats.report.batches).sum();
    let failed_batches: usize = epochs.iter().map(|e| e.stats.report.failed_batches).sum();
    let trained_seeds: usize = epochs
        .iter()
        .map(|e| e.stats.report.batches * BATCH_SIZE)
        .sum();
    let untraced_rates: Vec<f64> = counted
        .iter()
        .filter(|e| !e.lib_traced)
        .map(|e| e.seeds_per_s())
        .collect();
    let traced_rates: Vec<f64> = counted
        .iter()
        .filter(|e| e.lib_traced)
        .map(|e| e.seeds_per_s())
        .collect();
    notes.push(format!(
        "train_seeds_per_s: median of {} epochs x {} batches",
        untraced_rates.len(),
        w.epoch_batches
    ));
    notes.push(format!(
        "serve latency: {} requests counted at {SERVE_RATE_HZ} req/s, open loop, in {} one-second windows",
        served.summary.offered,
        served.summary.latency_ms_by_second.len()
    ));
    if let Some(e) = epochs.last() {
        notes.push(format!(
            "attribution verdict of the last epoch: {}",
            e.stats.attribution.verdict.label()
        ));
    }

    // ── output checks ────────────────────────────────────────────────────
    for e in &epochs {
        if let Some(err) = &e.stats.report.error {
            violations.push(format!("epoch reported an error: {err}"));
        }
        if !e.stats.report.loss.is_finite() {
            violations.push(format!("epoch loss is {}", e.stats.report.loss));
        }
    }
    let final_loss = epochs.last().map_or(f32::NAN, |e| e.stats.report.loss);
    if final_loss.is_nan() || final_loss >= warmup_loss {
        violations.push(format!(
            "loss did not fall: warm-up {warmup_loss}, last epoch {final_loss}"
        ));
    }
    if val_accuracy < MIN_VAL_ACCURACY {
        violations.push(format!(
            "val_accuracy {val_accuracy:.3} below {MIN_VAL_ACCURACY}"
        ));
    }
    if !served.report.balanced() {
        violations.push(format!(
            "server lost requests: submitted {} != completed {} + failed {}",
            served.report.submitted, served.report.completed, served.report.failed
        ));
    }
    let escaped = metrics_after.counter("storage.integrity.escaped");
    if escaped != 0 {
        violations.push(format!("storage.integrity.escaped = {escaped}"));
    }
    let gen_late_p99 = percentile(&served.summary.gen_late_ms, 0.99);
    notes.push(format!(
        "load generator lateness p99 {gen_late_p99:.2} ms; {} of {} counted requests answered later than {SERVE_LIMIT_MS} ms",
        served.summary.slow, served.summary.offered
    ));
    if served.summary.latency_ms.is_empty() {
        violations.push("no serving request was answered".into());
    }
    let replayed = replay::replay(
        w,
        &shared.ds,
        &seeds,
        &mut log,
        if trace { REPLAY_BATCHES } else { CHECK_BATCHES },
        trace,
    );
    violations.extend(replayed.violations);

    // ── metrics ──────────────────────────────────────────────────────────
    let attempted = (epochs.iter().map(|e| e.stats.report.batches).sum::<usize>() + failed_batches)
        as u64
        + served.summary.offered;
    let failed = failed_batches as u64 + served.summary.rejected + served.summary.failed;
    let values: Vec<(&'static str, f64)> = if trace {
        let lib_spans = telemetry::trace_take();
        let offset = lib_clock_offset_ns(&log);
        write_trace(w, &log, &lib_spans, offset, &mut notes);
        let rm = replayed.metrics.unwrap_or_default();
        per_layer_values(PerLayerInputs {
            shared: &shared,
            counted: &counted,
            batches,
            failed_batches,
            untraced_rates: &untraced_rates,
            traced_rates: &traced_rates,
            before: &metrics_before,
            after: &metrics_after,
            io_read_ops: io.read_ops as f64,
            io_read_bytes: io.read_bytes as f64,
            cache_hits: (cache_after.hits - cache_before.hits) as f64,
            cache_misses: (cache_after.misses - cache_before.misses) as f64,
            dataset_build_s,
            pipeline_build_s,
            val_accuracy,
            final_loss: final_loss as f64,
            served: &served.summary,
            gen_late_p99,
            harness_self_p50: percentile(&served.harness_self_ms, 0.50),
            replay: &rm,
        })
    } else {
        vec![
            ("train_seeds_per_s", median(&untraced_rates)),
            ("cpu_ms_per_seed", ratio(cpu_train_ms, trained_seeds as f64)),
            ("peak_rss_mb", procstat::peak_rss_mib()),
            ("setup_s", median(&setup_s)),
            ("serve_p50_ms", served.summary.windowed_percentile_ms(0.50)),
            ("serve_p90_ms", served.summary.windowed_percentile_ms(0.90)),
        ]
    };
    assert!(
        values
            .iter()
            .map(|v| v.0)
            .eq(catalog(trace).into_iter().map(|m| m.0)),
        "the run must report exactly its catalog's metrics, in order"
    );
    for (name, v) in &values {
        if !v.is_finite() {
            violations.push(format!("metric {name} is {v}"));
        }
    }
    RunResult {
        correct: violations.is_empty(),
        violations,
        attempted: attempted.max(1),
        failed,
        metrics: values,
        notes,
    }
}

/// A run that could not even be set up: incorrect, with every metric of
/// its catalog present (as zero) so the result line stays well formed.
fn failed_run(trace: bool, why: String) -> RunResult {
    let metrics = catalog(trace).into_iter().map(|m| (m.0, 0.0)).collect();
    RunResult {
        correct: false,
        violations: vec![why],
        attempted: 1,
        failed: 1,
        metrics,
        notes: Vec::new(),
    }
}

/// The library stamps its spans against a private origin. Recover the shift
/// to the harness clock from one probe span recorded with a known instant.
fn lib_clock_offset_ns(log: &SpanLog) -> i64 {
    let probe = Instant::now();
    telemetry::trace_enable();
    telemetry::record_span("clock-probe", "harness", NO_KEY, probe, Duration::ZERO);
    telemetry::trace_disable();
    let lib_ns = telemetry::trace_take()
        .iter()
        .find(|s| s.stage == "clock-probe")
        .map_or(0, |s| s.start_ns as i64);
    log.ns_since_origin(probe) as i64 - lib_ns
}

fn write_trace(
    w: &Workload,
    log: &SpanLog,
    lib_spans: &[gnndrive::telemetry::TraceSpan],
    offset: i64,
    notes: &mut Vec<String>,
) {
    let doc = log.to_chrome_trace(lib_spans, offset);
    notes.push(
        match crate::write_out(&format!("trace_{}.json", w.name), &doc) {
            Ok(path) => format!(
                "chrome trace: {} ({} harness spans, {} library spans)",
                path.display(),
                log.spans().len(),
                lib_spans.len()
            ),
            Err(e) => format!("chrome trace: {e}"),
        },
    );
}

struct PerLayerInputs<'a> {
    shared: &'a SharedStack,
    counted: &'a [&'a EpochSample],
    batches: usize,
    failed_batches: usize,
    untraced_rates: &'a [f64],
    traced_rates: &'a [f64],
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    io_read_ops: f64,
    io_read_bytes: f64,
    cache_hits: f64,
    cache_misses: f64,
    dataset_build_s: f64,
    pipeline_build_s: f64,
    val_accuracy: f64,
    final_loss: f64,
    served: &'a ServeSummary,
    gen_late_p99: f64,
    harness_self_p50: f64,
    replay: &'a ReplayMetrics,
}

fn per_layer_values(p: PerLayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let b = p.batches.max(1) as f64;
    let spec = &p.shared.ds.spec;
    // Batch-weighted mean of a pipeline stage's per-batch latency.
    let stage_ms = |stage: &str| {
        let (sum, n) = p.counted.iter().fold((0.0, 0.0), |(s, n), e| {
            e.stats.stage(stage).map_or((s, n), |h| {
                (s + h.mean_ns * h.count as f64, n + h.count as f64)
            })
        });
        ratio(sum, n) / 1e6
    };
    let wait_ms = |kind: WaitKind| {
        p.counted
            .iter()
            .map(|e| e.stats.attribution.waits.get(kind) as f64)
            .sum::<f64>()
            / 1e6
            / b
    };
    let mut latency = Histogram::new();
    let (mut loaded, mut reused) = (0.0, 0.0);
    for e in p.counted {
        latency.merge(&e.stats.report.batch_latency);
        loaded += e.stats.report.nodes_loaded as f64;
        reused += e.stats.report.nodes_reused as f64;
    }
    let delta = |name: &str| p.after.counter(name).saturating_sub(p.before.counter(name)) as f64;
    // Registry counters cover the whole window (training and serving);
    // per-batch normalisation uses every batch trained in it.
    let ops = delta("storage.queue.lane.serve_ops") + delta("storage.queue.lane.bulk_ops");
    let transfer_ns = hist_total_ns(p.after, "device.transfer.service")
        - hist_total_ns(p.before, "device.transfer.service");
    let nn_stage_train = stage_ms("train");
    let s = p.served;
    let r = p.replay;
    let untraced = median(p.untraced_rates);
    let traced = median(p.traced_rates);
    vec![
        ("graph.dataset_build_s", p.dataset_build_s),
        (
            "graph.feature_mb",
            spec.feature_file_bytes() as f64 / (1 << 20) as f64,
        ),
        (
            "graph.topology_mb",
            spec.topology_file_bytes() as f64 / (1 << 20) as f64,
        ),
        ("sampling.sample_ms_per_batch", r.sample_ms),
        ("sampling.stage_ms", stage_ms("sample")),
        ("sampling.input_nodes_per_batch", (loaded + reused) / b),
        ("storage.read_ops_per_batch", p.io_read_ops / b),
        (
            "storage.read_mb_per_batch",
            p.io_read_bytes / (1 << 20) as f64 / b,
        ),
        (
            "storage.bytes_per_loaded_node",
            ratio(p.io_read_bytes, loaded),
        ),
        (
            "storage.queue_ms_per_op",
            ratio(delta("storage.queue.wait_ns"), ops) / 1e6,
        ),
        (
            "storage.service_ms_per_op",
            ratio(delta("storage.queue.service_ns"), ops) / 1e6,
        ),
        (
            "storage.serve_lane_queue_ms_per_op",
            ratio(
                delta("storage.queue.lane.serve_wait_ns"),
                delta("storage.queue.lane.serve_ops"),
            ) / 1e6,
        ),
        (
            "storage.bulk_lane_queue_ms_per_op",
            ratio(
                delta("storage.queue.lane.bulk_wait_ns"),
                delta("storage.queue.lane.bulk_ops"),
            ) / 1e6,
        ),
        ("storage.ring_us_per_op", r.ring_us_per_op),
        ("storage.crc32_mb_per_s", r.crc32_mib_per_s),
        (
            "storage.pagecache_hit_rate",
            ratio(p.cache_hits, p.cache_hits + p.cache_misses),
        ),
        ("storage.pagecache_read_us", r.pagecache_read_us),
        (
            "storage.retries",
            delta("core.extract.retries") + delta("page_cache.retries"),
        ),
        (
            "storage.failed_ops",
            delta("storage.faults") + delta("page_cache.read_errors"),
        ),
        (
            "storage.integrity_escaped",
            p.after.counter("storage.integrity.escaped") as f64,
        ),
        ("core.extract_ms_per_batch", r.extract_ms),
        ("core.extract_self_ms_per_batch", r.extract_self_ms),
        ("core.stage_extract_ms", stage_ms("extract")),
        ("core.fb_plan_release_us_per_batch", r.fb_cycle_us),
        ("core.fb_reuse_ratio", ratio(reused, loaded + reused)),
        ("core.wait_slot_ms_per_batch", wait_ms(WaitKind::SlotWait)),
        ("core.wait_ring_ms_per_batch", wait_ms(WaitKind::RingWait)),
        (
            "core.wait_transfer_ms_per_batch",
            wait_ms(WaitKind::TransferWait),
        ),
        (
            "core.wait_staging_ms_per_batch",
            wait_ms(WaitKind::StagingAcquire),
        ),
        (
            "core.wait_mem_admission_ms_per_batch",
            wait_ms(WaitKind::MemAdmission),
        ),
        (
            "core.batch_latency_p50_ms",
            latency.percentile(0.50) as f64 / 1e6,
        ),
        (
            "core.batch_latency_p95_ms",
            latency.percentile(0.95) as f64 / 1e6,
        ),
        ("core.failed_batches", p.failed_batches as f64),
        ("core.pipeline_build_s", p.pipeline_build_s),
        ("device.gather_us_per_batch", r.gather_us),
        ("device.transfer_ms_per_batch", transfer_ns / 1e6 / b),
        (
            "device.train_pad_share",
            (1.0 - ratio(r.train_step_ms, nn_stage_train)).max(0.0),
        ),
        ("nn.train_step_ms_per_batch", r.train_step_ms),
        ("nn.forward_ms_per_batch", r.forward_ms),
        ("nn.stage_train_ms", nn_stage_train),
        ("nn.val_accuracy", p.val_accuracy),
        ("nn.final_loss", p.final_loss),
        ("tensor.matmul_gflops", r.matmul_gflops),
        ("serve.queue_ms_p50", percentile(&s.queue_ms, 0.50)),
        ("serve.service_ms_p50", percentile(&s.service_ms, 0.50)),
        ("serve.lat_p50_ms", percentile(&s.latency_ms, 0.50)),
        ("serve.lat_p90_ms", percentile(&s.latency_ms, 0.90)),
        ("serve.lat_p99_ms", percentile(&s.latency_ms, 0.99)),
        ("serve.lat_max_ms", percentile(&s.latency_ms, 1.0)),
        ("serve.batch_size_mean", mean(&s.batch_sizes)),
        ("serve.rejected", s.rejected as f64),
        ("serve.failed", s.failed as f64),
        ("serve.slow", s.slow as f64),
        ("serve.gen_late_ms_p99", p.gen_late_p99),
        ("serve.harness_self_ms_p50", p.harness_self_p50),
        ("train.seeds_per_s_traced", traced),
        ("train.epochs_measured", p.counted.len() as f64),
        (
            "telemetry.trace_overhead_pct",
            100.0 * ratio(untraced - traced, untraced),
        ),
    ]
}
