//! Perf-trajectory bench harness: a pinned scenario suite whose artifacts
//! are comparable across commits.
//!
//! Each scenario runs the *same* GNNDrive construction path
//! ([`build_gnndrive_pipeline`]) and differs only in configuration — the
//! paper's argument in miniature: `tight_memory` starves the feature
//! buffer (slots pinned at the Ne × Mb deadlock-reservation floor) so
//! extractors stall on slot recycling (𝔒1), `compute_heavy` gives the same
//! model roomy buffers so training dominates, and `balanced` runs the
//! paper-default SSD profile. Each run writes a schema-versioned
//! `BENCH_<scenario>.json` (epoch time, per-stage percentiles, attribution
//! fractions + verdict, cache hit rate) under a stable name so a committed
//! baseline can be diffed by [`compare`].

use crate::scenario::{
    build_gnndrive_pipeline, dataset_for, worst_case_batch_nodes, EnvKnobs, Scenario,
};
use crate::{artifacts, PIPELINE_STAGES};
use gnndrive_graph::MiniDataset;
use gnndrive_nn::ModelKind;
use gnndrive_storage::SsdProfile;
use gnndrive_telemetry::{self as telemetry, AttributionReport, BottleneckVerdict, Json};
use std::path::{Path, PathBuf};

/// Version of the `BENCH_<scenario>.json` document layout. Bump when a
/// field changes meaning; [`compare`] refuses to diff across versions.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One pinned point of the trajectory suite.
pub struct TrajectoryScenario {
    /// Stable artifact stem: the file is `BENCH_<name>.json`.
    pub name: &'static str,
    pub scenario: Scenario,
    /// Batches trained (pinned — the suite must be comparable across
    /// machines, so it does not read the `REPRO_*` knobs).
    pub max_batches: usize,
    /// Verdict this configuration is constructed to produce, when the
    /// construction makes one inevitable; checked by [`validate_bench`].
    pub expected_verdict: Option<BottleneckVerdict>,
}

/// Pinned knobs for the suite (deliberately not [`crate::env_knobs`]).
fn pinned_knobs() -> EnvKnobs {
    EnvKnobs {
        scale: 0.05,
        max_batches: Some(SUITE_BATCHES),
        epochs: 1,
        full: false,
    }
}

/// Batches trained per scenario. Fewer than ~20 and the pipeline never
/// reaches steady state, which makes the attribution fractions (and so
/// the verdict) scheduling-sensitive; 30 was measured stable across
/// repeated runs.
const SUITE_BATCHES: usize = 30;

/// Shared base of the two verdict-pinned scenarios: tiny Twitter analog,
/// two-hop fanouts, and a hidden width that makes the trainer a real
/// stage. The width matters twice: heavier training is what `compute_heavy`
/// measures, and under `tight_memory` every millisecond the trainer holds
/// a batch is a millisecond all four extractors stay blocked on slot
/// recycling — so slot waits accrue at ~Ne× the training time and the
/// memory verdict is structural, not a timing accident.
fn base_scenario() -> Scenario {
    let knobs = pinned_knobs();
    Scenario {
        model: ModelKind::GraphSage,
        hidden: 512,
        batch_size: 8,
        fanouts: vec![3, 3],
        ..Scenario::default_for(MiniDataset::Twitter, &knobs)
    }
}

/// The pinned scenario suite, in reporting order.
///
/// `tight_memory` and `compute_heavy` share every knob except the memory
/// configuration (feature-buffer slots + host budget), so the differing
/// verdicts demonstrably come from memory pressure alone — the same
/// construction path with the same model, dataset, and SSD.
pub fn suite() -> Vec<TrajectoryScenario> {
    // GPU mode runs 4 extractors (see build_gnndrive_pipeline).
    let extractors = 4;
    let base = base_scenario();
    let mb = worst_case_batch_nodes(&base);
    vec![
        TrajectoryScenario {
            name: "tight_memory",
            scenario: Scenario {
                // Slots at the Ne × Mb reservation floor: every extractor
                // can hold its worst case, but nothing is spare, so
                // extract blocks on the releaser — memory contention by
                // construction. Instant SSD keeps I/O waits negligible.
                fb_slots_override: Some(extractors * mb),
                ssd: SsdProfile::instant(),
                ..base_scenario()
            },
            max_batches: SUITE_BATCHES,
            expected_verdict: Some(BottleneckVerdict::MemoryContentionBound),
        },
        TrajectoryScenario {
            name: "compute_heavy",
            scenario: Scenario {
                // Same model and dataset, but with 16× the slot floor
                // (and the host budget to match) the buffer never
                // starves; with an instant SSD the model is all that's
                // left.
                fb_slots_override: Some((16 * extractors * mb).next_power_of_two()),
                memory_gb: 512,
                ssd: SsdProfile::instant(),
                ..base_scenario()
            },
            max_batches: SUITE_BATCHES,
            expected_verdict: Some(BottleneckVerdict::ComputeBound),
        },
        TrajectoryScenario {
            name: "balanced",
            // The paper-default configuration (dim 128, GraphSAGE h16,
            // pm883 SSD profile, default buffer sizing): the reference
            // point of the trajectory, left verdict-unpinned because its
            // balance genuinely depends on the host.
            scenario: Scenario::default_for(MiniDataset::Twitter, &pinned_knobs()),
            max_batches: SUITE_BATCHES,
            expected_verdict: None,
        },
    ]
}

/// Run one scenario end to end and assemble its bench document.
pub fn run_scenario(ts: &TrajectoryScenario) -> Result<Json, String> {
    telemetry::reset_metrics();
    let ds = dataset_for(&ts.scenario);
    let mut p = build_gnndrive_pipeline(&ts.scenario, &ds, true)?;
    let stats = p.train_epoch_stats(0, Some(ts.max_batches));
    if let Some(e) = &stats.report.error {
        return Err(format!("{}: epoch error: {e}", ts.name));
    }
    let hits = telemetry::counter("page_cache.hits").get();
    let misses = telemetry::counter("page_cache.misses").get();
    let cache_hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let mut stages = Json::obj();
    for (name, summary) in &stats.stages {
        stages.set(name, summary.to_json());
    }
    let mut doc = Json::obj();
    doc.set("schema_version", BENCH_SCHEMA_VERSION.into())
        .set("kind", "bench_trajectory".into())
        .set("scenario", ts.name.into())
        .set("config", artifacts::scenario_desc(&ts.scenario).into())
        .set("epoch_secs", stats.report.wall.as_secs_f64().into())
        .set("batches", (stats.report.batches as u64).into())
        .set("cache_hit_rate", cache_hit_rate.into())
        .set("stages", stages)
        .set("attribution", stats.attribution.to_json());
    if let Some(v) = ts.expected_verdict {
        doc.set("expected_verdict", v.label().into());
    }
    Ok(doc)
}

/// The stable artifact path of a scenario under `dir`.
pub fn bench_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("BENCH_{scenario}.json"))
}

/// Structural validation of one bench document (schema + invariants).
pub fn validate_bench(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != {BENCH_SCHEMA_VERSION}"
        ));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("bench_trajectory") {
        return Err("kind != bench_trajectory".into());
    }
    if doc
        .get("scenario")
        .and_then(Json::as_str)
        .is_none_or(str::is_empty)
    {
        return Err("missing scenario".into());
    }
    let batches = doc
        .get("batches")
        .and_then(Json::as_u64)
        .ok_or("missing batches")?;
    if batches == 0 {
        return Err("batches == 0".into());
    }
    let epoch_secs = doc
        .get("epoch_secs")
        .and_then(Json::as_f64)
        .ok_or("missing epoch_secs")?;
    if !epoch_secs.is_finite() || epoch_secs < 0.0 {
        return Err(format!("bad epoch_secs {epoch_secs}"));
    }
    let rate = doc
        .get("cache_hit_rate")
        .and_then(Json::as_f64)
        .ok_or("missing cache_hit_rate")?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("cache_hit_rate {rate} outside [0,1]"));
    }
    let stages = doc.get("stages").ok_or("missing stages")?;
    for stage in PIPELINE_STAGES {
        let s = stages
            .get(stage)
            .ok_or_else(|| format!("missing stage {stage}"))?;
        let s = gnndrive_telemetry::HistSummary::from_json(s)
            .ok_or_else(|| format!("bad stage summary {stage}"))?;
        if s.count == 0 {
            return Err(format!("stage {stage} recorded no batches"));
        }
    }
    let attr = doc.get("attribution").ok_or("missing attribution")?;
    let attr = AttributionReport::from_json(attr).ok_or("bad attribution")?;
    for (name, f) in [
        ("mem_fraction", attr.mem_fraction),
        ("io_fraction", attr.io_fraction),
        ("compute_fraction", attr.compute_fraction),
    ] {
        if !(0.0..=1.0).contains(&f) {
            return Err(format!("{name} {f} outside [0,1]"));
        }
    }
    let total = attr.mem_fraction + attr.io_fraction + attr.compute_fraction;
    if attr.batches > 0 && (total - 1.0).abs() > 1e-6 {
        return Err(format!("fractions sum to {total}, expected 1"));
    }
    if let Some(want) = doc.get("expected_verdict").and_then(Json::as_str) {
        let want = BottleneckVerdict::parse(want)
            .ok_or_else(|| format!("bad expected_verdict {want:?}"))?;
        if attr.verdict != want {
            return Err(format!(
                "verdict {} != expected {}",
                attr.verdict.label(),
                want.label()
            ));
        }
    }
    Ok(())
}

/// One regression (or incomparability) found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub scenario: String,
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} regressed {:.4} -> {:.4} ({:+.0}%)",
            self.scenario,
            self.metric,
            self.baseline,
            self.current,
            (self.current / self.baseline.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        )
    }
}

/// Diff `current` against `baseline`, flagging metrics that regressed
/// beyond `threshold` (0.5 = +50%). Compared: epoch wall time and each
/// stage's p95. Verdict changes on verdict-pinned scenarios are caught by
/// [`validate_bench`], not here.
pub fn compare(baseline: &Json, current: &Json, threshold: f64) -> Result<Vec<Regression>, String> {
    for doc in [baseline, current] {
        let v = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if v != BENCH_SCHEMA_VERSION {
            return Err(format!("cannot compare across schema versions ({v})"));
        }
    }
    let scenario = baseline
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or("baseline missing scenario")?;
    if current.get("scenario").and_then(Json::as_str) != Some(scenario) {
        return Err("scenario mismatch between baseline and current".into());
    }
    let mut out = Vec::new();
    let mut check = |metric: String, base: f64, cur: f64| {
        if base > 0.0 && cur > base * (1.0 + threshold) {
            out.push(Regression {
                scenario: scenario.to_string(),
                metric,
                baseline: base,
                current: cur,
            });
        }
    };
    let pair_f64 = |key: &str| -> (f64, f64) {
        (
            baseline.get(key).and_then(Json::as_f64).unwrap_or(0.0),
            current.get(key).and_then(Json::as_f64).unwrap_or(0.0),
        )
    };
    let (b, c) = pair_f64("epoch_secs");
    check("epoch_secs".into(), b, c);
    for stage in PIPELINE_STAGES {
        let get = |doc: &Json| -> f64 {
            doc.get("stages")
                .and_then(|s| s.get(stage))
                .and_then(|s| s.get("p95_ns"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        check(
            format!("stages.{stage}.p95_ns"),
            get(baseline),
            get(current),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Json {
        let mut w = gnndrive_telemetry::WaitTotals::default();
        w.add(gnndrive_telemetry::WaitKind::RingWait, 1_000);
        let attr =
            gnndrive_telemetry::aggregate_attribution(&[gnndrive_telemetry::BatchAttribution {
                batch: 0,
                wall_ns: 10_000,
                sample_ns: 1_000,
                sample_waits: Default::default(),
                queue_extract_ns: 0,
                extract_ns: 5_000,
                queue_train_ns: 0,
                train_ns: 4_000,
                waits: w,
                io_queue_ns: 400,
                io_service_ns: 600,
            }]);
        let summary = gnndrive_telemetry::HistSummary {
            count: 10,
            mean_ns: 1_000.0,
            p50_ns: 900,
            p95_ns: 1_800,
            p99_ns: 1_900,
            max_ns: 2_000,
        };
        let mut stages = Json::obj();
        for stage in PIPELINE_STAGES {
            stages.set(stage, summary.to_json());
        }
        let mut doc = Json::obj();
        doc.set("schema_version", BENCH_SCHEMA_VERSION.into())
            .set("kind", "bench_trajectory".into())
            .set("scenario", "tight_memory".into())
            .set("config", "test".into())
            .set("epoch_secs", 0.5.into())
            .set("batches", 10u64.into())
            .set("cache_hit_rate", 0.75.into())
            .set("stages", stages)
            .set("attribution", attr.to_json());
        doc
    }

    #[test]
    fn suite_is_pinned_and_distinct() {
        let suite = suite();
        assert_eq!(suite.len(), 3);
        let names: Vec<_> = suite.iter().map(|t| t.name).collect();
        assert_eq!(names, ["tight_memory", "compute_heavy", "balanced"]);
        let tight = &suite[0].scenario;
        let roomy = &suite[1].scenario;
        assert!(tight.fb_slots_override.unwrap() < roomy.fb_slots_override.unwrap());
        // Same code path: only the config differs.
        assert_eq!(tight.model, roomy.model);
        assert_eq!(tight.batch_size, roomy.batch_size);
    }

    #[test]
    fn valid_doc_passes_validation() {
        validate_bench(&sample_doc()).unwrap();
    }

    #[test]
    fn validation_rejects_broken_docs() {
        let mut doc = sample_doc();
        doc.set("schema_version", 99u64.into());
        assert!(validate_bench(&doc).unwrap_err().contains("schema_version"));

        let mut doc = sample_doc();
        doc.set("batches", 0u64.into());
        assert!(validate_bench(&doc).is_err());

        let mut doc = sample_doc();
        doc.set("cache_hit_rate", 1.5.into());
        assert!(validate_bench(&doc).is_err());

        let mut doc = sample_doc();
        doc.set("stages", Json::obj());
        assert!(validate_bench(&doc).unwrap_err().contains("missing stage"));

        // A doc claiming a verdict its attribution does not support fails.
        let mut doc = sample_doc();
        doc.set("expected_verdict", "memory_contention_bound".into());
        assert!(validate_bench(&doc).unwrap_err().contains("verdict"));
    }

    #[test]
    fn compare_flags_only_regressions_beyond_threshold() {
        let base = sample_doc();
        let mut cur = sample_doc();
        cur.set("epoch_secs", 0.6.into()); // +20%
        assert!(compare(&base, &cur, 0.5).unwrap().is_empty());
        cur.set("epoch_secs", 1.0.into()); // +100%
        let regs = compare(&base, &cur, 0.5).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "epoch_secs");
        // Improvements never flag.
        cur.set("epoch_secs", 0.1.into());
        assert!(compare(&base, &cur, 0.5).unwrap().is_empty());
    }

    #[test]
    fn compare_refuses_mismatched_docs() {
        let base = sample_doc();
        let mut cur = sample_doc();
        cur.set("scenario", "balanced".into());
        assert!(compare(&base, &cur, 0.5).is_err());
        let mut cur = sample_doc();
        cur.set("schema_version", 2u64.into());
        assert!(compare(&base, &cur, 0.5).is_err());
    }
}
