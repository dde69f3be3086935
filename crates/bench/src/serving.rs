//! The `serving_mixed` scenario: an online inference tier holding its
//! latency SLO while a training epoch soaks the same storage stack.
//!
//! Both sides share one simulated SSD, one memory governor, and one page
//! cache — exactly the co-location the QoS lanes exist for: serve-lane
//! reads jump the device submission queue, and serve-lane waiters get
//! freed memory first. The chaos variant storms the feature file mid-run
//! so the serving pipeline's circuit breaker trips, requests fail *fast
//! and typed* (never silently lost), and a half-open probe recovers the
//! tier once the storm clears.

use crate::{dataset_for, feature_buffer_slots_for, Scenario};
use gnndrive_core::{GnnDriveConfig, Pipeline, TrainingSystem};
use gnndrive_device::GpuDevice;
use gnndrive_graph::Dataset;
use gnndrive_serve::{LoadGen, LoadGenConfig, ServeConfig, Server, Ticket};
use gnndrive_storage::{FaultPlan, HealthConfig, PageCache};
use gnndrive_telemetry::RunReport;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of one `serving_mixed` run.
#[derive(Debug, Clone)]
pub struct ServingMixedConfig {
    /// Requests to issue in the measured window.
    pub requests: usize,
    /// Open-loop arrival rate (req/s); 0 = closed loop.
    pub rate_hz: f64,
    /// Simulated user population for the Zipfian load generator.
    pub users: u64,
    /// Serving latency SLO (p99 target).
    pub slo: Duration,
    /// Micro-batch coalescing deadline.
    pub coalesce: Duration,
    /// Storm the feature file mid-run and require breaker recovery.
    pub chaos: bool,
    /// Load-generator seed.
    pub seed: u64,
}

impl Default for ServingMixedConfig {
    fn default() -> Self {
        ServingMixedConfig {
            requests: 160,
            rate_hz: 150.0,
            users: 1_000_000,
            slo: Duration::from_millis(250),
            coalesce: Duration::from_millis(2),
            chaos: false,
            seed: 0xC0FFEE,
        }
    }
}

/// What one `serving_mixed` run produced.
#[derive(Debug)]
pub struct ServingMixedReport {
    /// The serving tier's own accounting and latency distributions.
    pub serve: gnndrive_serve::ServeReport,
    /// Training throughput alone on the stack (batches/s), over a warm
    /// epoch: one that starts with the head its predecessor extracted.
    pub solo_throughput: f64,
    /// Training throughput while serving rode along (batches/s).
    pub mixed_throughput: f64,
    /// `mixed / solo` — the acceptance bar is ≥ 0.75.
    pub training_ratio: f64,
    /// Chaos only: the breaker was observed open during the storm.
    pub saw_circuit_open: bool,
    /// Chaos only: a request completed `Ok` again after the storm —
    /// the breaker closed *and* the tier demonstrably served.
    pub recovered: bool,
    /// Whether this was the chaos variant.
    pub chaos: bool,
    /// The SLO the run was held against.
    pub slo: Duration,
}

impl ServingMixedReport {
    /// Acceptance check; returns every violated property (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.serve.balanced() {
            v.push(format!(
                "lost requests: submitted {} != completed {} + failed {}",
                self.serve.submitted, self.serve.completed, self.serve.failed
            ));
        }
        if self.chaos {
            if !self.saw_circuit_open {
                v.push("chaos storm never tripped the circuit breaker".into());
            }
            if !self.recovered {
                v.push("tier never served a request again after the storm cleared".into());
            }
            if self.serve.failed == 0 {
                v.push("storm produced no typed request failures".into());
            }
        } else {
            // SLO and throughput bars only bind on the clean variant: the
            // chaos storm is *supposed* to blow the tail out.
            if !self.serve.meets_slo(self.slo) {
                v.push(format!(
                    "p99 {}ms over the {}ms SLO",
                    self.serve.latency.p99_ns / 1_000_000,
                    self.slo.as_millis()
                ));
            }
            if self.training_ratio < 0.75 {
                v.push(format!(
                    "training throughput fell to {:.0}% of solo (floor 75%)",
                    self.training_ratio * 100.0
                ));
            }
            if self.serve.failed > 0 {
                v.push(format!(
                    "{} requests failed on a clean stack",
                    self.serve.failed
                ));
            }
        }
        v
    }

    /// Fold everything into a [`RunReport`] under the `serve.*` namespace.
    pub fn fold_into(&self, report: &mut RunReport) {
        self.serve.fold_into(report);
        report.add_scalar("serve.training_ratio", self.training_ratio);
        report.add_scalar("serve.solo_throughput", self.solo_throughput);
        report.add_scalar("serve.mixed_throughput", self.mixed_throughput);
        report.add_label("serve.chaos", if self.chaos { "on" } else { "off" });
        report.add_label("serve.recovered", if self.recovered { "yes" } else { "no" });
    }
}

/// Build the training/serving pipeline pair on one shared stack: same
/// dataset (thus same simulated SSD), same governor, same page cache.
fn build_pair(sc: &Scenario, ds: &Arc<Dataset>) -> Result<(Pipeline, Pipeline), String> {
    let stack = sc.stack();
    let governor = stack.governor();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
    let seed = 0x5E4E ^ sc.dataset.spec().seed;
    let trainer_cfg = GnnDriveConfig {
        num_samplers: 2,
        num_extractors: 2,
        feature_buffer_slots: feature_buffer_slots_for(sc, 2),
        staging_bytes_per_extractor: 256 * 1024,
        seed,
        ..Default::default()
    };
    let trainer = Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_model(sc.model, sc.hidden)
        .with_config(trainer_cfg)
        .with_stack(&stack)
        .with_governor(Arc::clone(&governor))
        .with_page_cache(Arc::clone(&cache))
        .build()
        .map_err(|e| format!("trainer: {e}"))?;
    // The serving pipeline runs with the breaker armed: under a device
    // error storm it degrades to sync-path reads, then fails fast, then
    // probes its way back — requests always get a typed answer.
    let server_cfg = GnnDriveConfig {
        num_samplers: 1,
        num_extractors: 1,
        feature_buffer_slots: feature_buffer_slots_for(sc, 2),
        staging_bytes_per_extractor: 256 * 1024,
        seed: seed ^ 1,
        ..Default::default()
    };
    let server = Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_model(sc.model, sc.hidden)
        .with_config(server_cfg)
        .with_stack(&stack.clone().with_health(HealthConfig::enabled()))
        .with_governor(governor)
        .with_page_cache(cache)
        .build()
        .map_err(|e| format!("server: {e}"))?;
    Ok((trainer, server))
}

/// Run the scenario: measure solo training throughput, then restart
/// training alongside a serving tier fed by the Zipfian load generator,
/// and (optionally) storm the device mid-run.
pub fn run_serving_mixed(
    sc: &Scenario,
    cfg: &ServingMixedConfig,
) -> Result<ServingMixedReport, String> {
    let ds = dataset_for(sc);

    // Solo baseline: the training pipeline with the stack to itself. Each
    // soak epoch after the first starts with the head its predecessor
    // extracted (DESIGN.md §4 item 12), so the timed solo epoch does too:
    // epoch 0 runs untimed and lands epoch 1's head.
    let mut solo = crate::build_gnndrive_pipeline(sc, &ds, true)?;
    let warm_up = solo.train_epoch(0, Some(24));
    let r = solo.train_epoch(1, Some(24));
    if let Some(e) = warm_up.error.or(r.error) {
        return Err(format!("solo epoch failed: {e}"));
    }
    let solo_throughput = r.batches as f64 / r.wall.as_secs_f64().max(1e-9);
    drop(solo);

    // Mixed: fresh pair on the same dataset; training soaks in a loop
    // until serving finishes.
    let (trainer, server_pipeline) = build_pair(sc, &ds)?;
    let health = Arc::clone(server_pipeline.device_health());
    // The breaker's own transition count: an open is seen even when it
    // happens after the last arrival, or a probe closes it between two
    // submits.
    let trips_before = health.trips();
    let server = Server::start(
        server_pipeline,
        ServeConfig::default()
            .with_stack(sc.stack())
            .with_coalesce_deadline(cfg.coalesce)
            .with_slo_deadline(cfg.slo),
    );

    let stop = AtomicBool::new(false);
    let num_nodes = ds.spec.num_nodes as u64;
    let mut mixed_batches = 0usize;
    let saw_open = || health.trips() > trips_before;
    let mut recovered = false;
    let mut tickets: Vec<Ticket> = Vec::with_capacity(cfg.requests);
    let mut mixed_wall = Duration::ZERO;
    let mut soak_panicked = false;

    std::thread::scope(|s| {
        let soak = s.spawn(|| {
            let mut trainer = trainer;
            let mut batches = 0usize;
            let mut epoch = 1;
            // Same per-epoch batch cap as the solo baseline, and every
            // epoch after the first starts warm, with the head the one
            // before extracted, as the timed solo epoch does.
            while !stop.load(Ordering::Acquire) {
                let r = trainer.train_epoch(epoch, Some(24));
                batches += r.batches;
                epoch += 1;
            }
            batches
        });

        let t0 = Instant::now();
        // `cfg.requests` arrivals, and more only while a storm is held.
        let arrivals = LoadGen::new(LoadGenConfig {
            users: cfg.users,
            num_nodes,
            rate_hz: cfg.rate_hz,
            requests: usize::MAX,
            seed: cfg.seed,
        });
        let storm_at = cfg.requests / 3;
        let clear_at = cfg.requests * 2 / 3;
        // The storm holds past `clear_at` until the breaker has tripped (at
        // most 5 s): on a loaded host its share of the arrivals can coalesce
        // into too few batches to put the breaker's trip count of errors
        // into its window.
        let mut storm: Option<Instant> = None;
        let storm_over = |at: Instant| saw_open() || at.elapsed() >= Duration::from_secs(5);
        for (i, a) in arrivals.enumerate() {
            if i >= clear_at && storm.is_some_and(storm_over) {
                ds.ssd.clear_faults();
                storm = None;
            }
            if i >= cfg.requests && storm.is_none() {
                break;
            }
            if cfg.chaos && i == storm_at {
                ds.ssd.set_fault_plan(
                    FaultPlan::new(cfg.seed ^ 0xBAD)
                        .with_read_fault_prob(1.0)
                        .on_file(ds.features_file.id),
                );
                storm = Some(Instant::now());
            }
            if !a.delay.is_zero() {
                std::thread::sleep(a.delay);
            }
            match server.submit(a.seed_node) {
                Ok(t) => tickets.push(t),
                Err(_rejected) => {} // counted by the server as rejected
            }
        }
        // Drain every admitted request: each must resolve Ok or typed Err.
        for t in tickets.drain(..) {
            let _ = t.wait();
        }
        // Chaos: keep poking the tier until a request completes again
        // (bounded — the breaker cooldown is 250 ms). The half-open probe
        // closing the circuit is necessary but not sufficient: the probe's
        // own batch can still fail at the planner level, so recovery is
        // only claimed once a post-storm request resolves `Ok`.
        if cfg.chaos {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(t) = server.submit((cfg.seed % num_nodes) as u32) {
                    if t.wait().is_ok() && saw_open() {
                        recovered = true;
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        mixed_wall = t0.elapsed();
        stop.store(true, Ordering::Release);
        match soak.join() {
            Ok(b) => mixed_batches = b,
            Err(_) => soak_panicked = true,
        }
    });
    if soak_panicked {
        return Err("training soak thread panicked".into());
    }

    let (_pipeline, serve) = server.shutdown().map_err(|e| format!("shutdown: {e:?}"))?;
    let mixed_throughput = mixed_batches as f64 / mixed_wall.as_secs_f64().max(1e-9);
    Ok(ServingMixedReport {
        serve,
        solo_throughput,
        mixed_throughput,
        training_ratio: mixed_throughput / solo_throughput.max(1e-9),
        saw_circuit_open: saw_open(),
        recovered,
        chaos: cfg.chaos,
        slo: cfg.slo,
    })
}
