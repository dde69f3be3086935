//! `cache_sweep` — trace-driven Belady vs LRU page-cache sweep (the
//! Fig-9-style memory-capacity comparison, applied to replacement policy).
//!
//! The pinned pipeline: pre-sample one epoch of the Twitter analog under a
//! fixed seed (`gnndrive_sampling::presample_epoch`), lower the batch
//! schedule to the exact feature-page access sequence, and replay that
//! sequence through a [`PageCache`] at several resident-page budgets —
//! once under [`LruPolicy`], once under the trace-driven [`BeladyPolicy`],
//! and once under Belady over the hot-first packed layout
//! (`gnndrive_graph::pack_features`). Per budget and policy the sweep
//! records hits, misses, hit rate, and replay wall time into a
//! schema-versioned `BENCH_cache_sweep.json`; the trace itself is saved as
//! `TRACE_cache_sweep.bin` (see `gnndrive_storage::AccessTrace`).
//!
//! Because replay is single-threaded and the policies are deterministic,
//! every hit count is a pure function of the pinned seed — the CI gate
//! compares them exactly (epoch *time* is only compared within one run,
//! Belady against LRU at the tightest budget, where it is miss-dominated).

use crate::scenario::{dataset_for, EnvKnobs, Scenario};
use crate::Row;
use gnndrive_graph::{pack_features, MiniDataset};
use gnndrive_sampling::{presample_epoch, InMemTopo, PresampleResult};
use gnndrive_storage::{
    pages_for_rows, AccessTrace, BeladyPolicy, EvictionPolicy, FileHandle, LruPolicy,
    MemoryGovernor, PageCache, SimSsd, SsdProfile,
};
use gnndrive_telemetry::Json;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Version of the `BENCH_cache_sweep.json` document layout. Bump when a
/// field changes meaning; [`compare_cache_sweep`] refuses to diff across
/// versions.
pub const CACHE_SWEEP_SCHEMA_VERSION: u64 = 1;

/// Pinned schedule seed and epoch — the whole point of the sweep is that
/// the access sequence (and so every hit count) is reproducible.
pub const SWEEP_SEED: u64 = 0xCA5E;
pub const SWEEP_EPOCH: u64 = 0;

/// Mini-batches replayed per epoch (pinned: the artifact must be
/// comparable across machines).
pub const SWEEP_BATCHES: usize = 24;

/// Resident-page budgets, as fractions of the trace's distinct pages.
/// Three points spanning starved → comfortable, all strictly below 1.0 so
/// eviction pressure is real at every point.
pub const SWEEP_BUDGET_FRACTIONS: [f64; 3] = [0.10, 0.25, 0.50];

/// Policies reported per budget, in table order. `lru` and `belady`
/// replay the natural-layout trace; `belady_packed` replays the same
/// schedule lowered onto the hot-first packed feature file.
pub const SWEEP_POLICIES: [&str; 3] = ["lru", "belady", "belady_packed"];

/// The pinned experimental point: the Twitter analog at scale 0.05 with
/// two-hop fanouts and small batches, over `profile`.
fn sweep_scenario(profile: SsdProfile) -> Scenario {
    let knobs = EnvKnobs {
        scale: 0.05,
        max_batches: Some(SWEEP_BATCHES),
    };
    Scenario {
        batch_size: 16,
        fanouts: vec![3, 3],
        ssd: profile,
        ..Scenario::default_for(MiniDataset::Twitter, &knobs)
    }
}

/// One policy's replay at one budget.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    pub policy: &'static str,
    pub hits: u64,
    pub misses: u64,
    pub epoch_secs: f64,
}

impl PolicyResult {
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Everything one sweep produces: the JSON document and the canonical
/// (natural-layout) trace artifact.
pub struct SweepOutcome {
    pub doc: Json,
    pub trace: AccessTrace,
}

/// Lower one pre-sampled epoch to a page-access trace over `file`:
/// per batch, the sorted distinct feature rows (through `row_of`) become
/// their covering pages via [`pages_for_rows`].
fn trace_of_schedule(
    pre: &PresampleResult,
    file: FileHandle,
    row_bytes: u64,
    row_of: impl Fn(u32) -> u64,
) -> AccessTrace {
    let mut trace = AccessTrace::new(pre.seed, pre.epoch);
    for batch in &pre.batches {
        let mut rows: Vec<u64> = batch.iter().map(|&n| row_of(n)).collect();
        rows.sort_unstable();
        for page in pages_for_rows(row_bytes, &rows) {
            trace.push(file.id, page);
        }
    }
    trace
}

/// Replay `trace` through a fresh cache over `ssd` capped at
/// `budget_pages`, readahead off (the sweep measures replacement, not
/// prefetch). Returns the policy-attributed counts and wall time.
fn replay(
    ssd: &Arc<SimSsd>,
    file: FileHandle,
    trace: &AccessTrace,
    budget_pages: usize,
    policy: Box<dyn EvictionPolicy>,
    label: &'static str,
) -> PolicyResult {
    let cache = PageCache::with_policy(
        Arc::clone(ssd),
        MemoryGovernor::unlimited(),
        budget_pages,
        policy,
    );
    cache.set_readahead(0);
    let mut byte = [0u8; 1];
    let start = Instant::now();
    for &(fid, page) in &trace.accesses {
        debug_assert_eq!(fid, file.id, "sweep traces are single-file");
        cache.read(file, page * trace.page_size as u64, &mut byte);
    }
    let epoch_secs = start.elapsed().as_secs_f64();
    let stats = cache.stats();
    PolicyResult {
        policy: label,
        hits: stats.hits,
        misses: stats.misses,
        epoch_secs,
    }
}

/// Run the pinned sweep over the paper-class SSD profile.
pub fn run_sweep() -> Result<SweepOutcome, String> {
    run_sweep_with_profile(SsdProfile::pm883_repro())
}

/// Run the sweep over an explicit SSD profile (tests use
/// [`SsdProfile::instant`] — hit counts are identical, only wall times
/// change, which is exactly why the gate never compares times across
/// runs).
pub fn run_sweep_with_profile(profile: SsdProfile) -> Result<SweepOutcome, String> {
    let sc = sweep_scenario(profile);
    let ds = dataset_for(&sc);
    let pre = presample_epoch(
        Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
        &ds.train_idx,
        ds.spec.num_nodes,
        sc.batch_size,
        sc.fanouts.clone(),
        SWEEP_EPOCH,
        SWEEP_SEED,
        Some(SWEEP_BATCHES),
    );
    if pre.batches.is_empty() {
        return Err("presample produced no batches".into());
    }
    let row_bytes = ds.spec.feature_row_bytes() as u64;
    let trace = trace_of_schedule(&pre, ds.features_file, row_bytes, |n| n as u64);
    let layout = pack_features(&ds, &pre.freq, &pre.first_seen).map_err(|e| e.to_string())?;
    let packed_trace = trace_of_schedule(&pre, layout.file, row_bytes, |n| layout.row_of(n));

    let unique = trace.unique_pages();
    if unique < 8 {
        return Err(format!("trace touches only {unique} pages"));
    }
    let mut budgets: Vec<Json> = Vec::new();
    for fraction in SWEEP_BUDGET_FRACTIONS {
        let budget_pages = ((unique as f64 * fraction).ceil() as usize).max(1);
        let results = [
            replay(
                &ds.ssd,
                ds.features_file,
                &trace,
                budget_pages,
                Box::new(LruPolicy::new()),
                "lru",
            ),
            replay(
                &ds.ssd,
                ds.features_file,
                &trace,
                budget_pages,
                Box::new(BeladyPolicy::from_trace(&trace)),
                "belady",
            ),
            replay(
                &ds.ssd,
                layout.file,
                &packed_trace,
                budget_pages,
                Box::new(BeladyPolicy::from_trace(&packed_trace)),
                "belady_packed",
            ),
        ];
        let mut policies = Json::obj();
        for r in &results {
            let mut p = Json::obj();
            p.set("hits", r.hits.into())
                .set("misses", r.misses.into())
                .set("hit_rate", r.hit_rate().into())
                .set("epoch_secs", r.epoch_secs.into());
            policies.set(r.policy, p);
        }
        let mut point = Json::obj();
        point
            .set("budget_pages", (budget_pages as u64).into())
            .set("fraction", fraction.into())
            .set("policies", policies);
        budgets.push(point);
    }

    let mut trace_meta = Json::obj();
    trace_meta
        .set("accesses", (trace.len() as u64).into())
        .set("unique_pages", (unique as u64).into())
        .set(
            "packed_unique_pages",
            (packed_trace.unique_pages() as u64).into(),
        )
        .set("batches", (pre.batches.len() as u64).into());
    let mut doc = Json::obj();
    doc.set("schema_version", CACHE_SWEEP_SCHEMA_VERSION.into())
        .set("kind", "bench_cache_sweep".into())
        .set("seed", SWEEP_SEED.into())
        .set("epoch", SWEEP_EPOCH.into())
        .set("config", crate::artifacts::scenario_desc(&sc).into())
        .set("trace", trace_meta)
        .set("budgets", Json::Arr(budgets));
    Ok(SweepOutcome { doc, trace })
}

/// Stable artifact paths under `dir`.
pub fn sweep_path(dir: &Path) -> PathBuf {
    dir.join("BENCH_cache_sweep.json")
}
pub fn trace_artifact_path(dir: &Path) -> PathBuf {
    dir.join("TRACE_cache_sweep.bin")
}

/// Pull `(fraction, budget_pages, per-policy results)` out of a document.
fn sweep_points(doc: &Json) -> Result<Vec<(f64, u64, Vec<PolicyResult>)>, String> {
    let budgets = doc
        .get("budgets")
        .and_then(Json::as_array)
        .ok_or("missing budgets")?;
    let mut out = Vec::new();
    for point in budgets {
        let fraction = point
            .get("fraction")
            .and_then(Json::as_f64)
            .ok_or("missing fraction")?;
        let budget_pages = point
            .get("budget_pages")
            .and_then(Json::as_u64)
            .ok_or("missing budget_pages")?;
        let policies = point.get("policies").ok_or("missing policies")?;
        let mut results = Vec::new();
        for &name in &SWEEP_POLICIES {
            let p = policies
                .get(name)
                .ok_or_else(|| format!("missing policy {name}"))?;
            let get = |k: &str| {
                p.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("policy {name} missing {k}"))
            };
            results.push(PolicyResult {
                policy: name,
                hits: get("hits")? as u64,
                misses: get("misses")? as u64,
                epoch_secs: get("epoch_secs")?,
            });
        }
        out.push((fraction, budget_pages, results));
    }
    Ok(out)
}

fn result_of<'a>(results: &'a [PolicyResult], name: &str) -> &'a PolicyResult {
    results
        .iter()
        .find(|r| r.policy == name)
        .expect("sweep_points guarantees every policy")
}

/// Structural + invariant validation of one sweep document:
/// schema version, ≥ 3 budgets, consistent access totals, hit rates in
/// [0, 1] — and the tentpole's claim itself, Belady ≥ LRU on hit rate at
/// *every* budget (it is replaying the exact future; losing to LRU means
/// the policy is broken, not the workload unlucky).
pub fn validate_cache_sweep(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != CACHE_SWEEP_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != {CACHE_SWEEP_SCHEMA_VERSION}"
        ));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("bench_cache_sweep") {
        return Err("kind != bench_cache_sweep".into());
    }
    let accesses = doc
        .get("trace")
        .and_then(|t| t.get("accesses"))
        .and_then(Json::as_u64)
        .ok_or("missing trace.accesses")?;
    if accesses == 0 {
        return Err("empty trace".into());
    }
    let points = sweep_points(doc)?;
    if points.len() < 3 {
        return Err(format!("{} budgets, need >= 3", points.len()));
    }
    for (fraction, budget_pages, results) in &points {
        if *budget_pages == 0 {
            return Err(format!("budget {fraction} has zero pages"));
        }
        for r in results {
            if !(0.0..=1.0).contains(&r.hit_rate()) || !r.epoch_secs.is_finite() {
                return Err(format!("{}@{fraction}: bad result", r.policy));
            }
            // Every policy replays the same schedule; the natural-layout
            // policies must agree on the total access count exactly.
            if r.policy != "belady_packed" && r.hits + r.misses != accesses {
                return Err(format!(
                    "{}@{fraction}: {} accesses counted, trace has {accesses}",
                    r.policy,
                    r.hits + r.misses
                ));
            }
        }
        let lru = result_of(results, "lru");
        let belady = result_of(results, "belady");
        if belady.hit_rate() < lru.hit_rate() {
            return Err(format!(
                "belady hit rate {:.4} < lru {:.4} at budget fraction {fraction}",
                belady.hit_rate(),
                lru.hit_rate()
            ));
        }
    }
    Ok(())
}

/// One hit-rate drop found by [`compare_cache_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} regressed {:.4} -> {:.4} ({:+.0}%)",
            self.metric,
            self.baseline,
            self.current,
            (self.current / self.baseline.max(f64::MIN_POSITIVE) - 1.0) * 100.0
        )
    }
}

/// Diff `current` against `baseline`: a Belady (or packed-Belady) hit
/// rate that dropped more than `epsilon` at any budget is a regression —
/// the sweep is deterministic, so any real drop means the policy, trace
/// recorder, or packer got worse. LRU is diffed too (it is the control).
pub fn compare_cache_sweep(
    baseline: &Json,
    current: &Json,
    epsilon: f64,
) -> Result<Vec<Regression>, String> {
    for doc in [baseline, current] {
        let v = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if v != CACHE_SWEEP_SCHEMA_VERSION {
            return Err(format!("cannot compare across schema versions ({v})"));
        }
    }
    let base = sweep_points(baseline)?;
    let cur = sweep_points(current)?;
    if base.len() != cur.len() {
        return Err(format!(
            "budget count changed: baseline {} vs current {}",
            base.len(),
            cur.len()
        ));
    }
    let mut out = Vec::new();
    for ((bf, _, bres), (cf, _, cres)) in base.iter().zip(&cur) {
        if (bf - cf).abs() > 1e-9 {
            return Err(format!("budget fractions differ: {bf} vs {cf}"));
        }
        for &name in &SWEEP_POLICIES {
            let b = result_of(bres, name).hit_rate();
            let c = result_of(cres, name).hit_rate();
            if c < b - epsilon {
                out.push(Regression {
                    metric: format!("{name}.hit_rate@{bf}"),
                    baseline: b,
                    current: c,
                });
            }
        }
    }
    Ok(out)
}

/// The Fig-9-style table rows of one document: one row per budget, one
/// hit-rate cell per policy plus the Belady−LRU delta.
pub fn hit_rate_rows(doc: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (fraction, budget_pages, results) in sweep_points(doc)? {
        let lru = result_of(&results, "lru").hit_rate();
        let belady = result_of(&results, "belady").hit_rate();
        let mut row = Row::new(format!("{:.0}% ({budget_pages} pages)", fraction * 100.0));
        for &name in &SWEEP_POLICIES {
            let r = result_of(&results, name);
            row = row.cell(format!("{:.4}", r.hit_rate()));
        }
        rows.push(row.cell(format!("{:+.4}", belady - lru)));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real sweep, over an instant device so the test is fast. This is
    /// the tentpole's end-to-end check: at every pinned budget the
    /// trace-driven policy beats (never ties, on this schedule) plain LRU.
    #[test]
    fn sweep_beats_lru_at_every_budget() {
        let out = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        validate_cache_sweep(&out.doc).unwrap();
        let points = sweep_points(&out.doc).unwrap();
        assert_eq!(points.len(), SWEEP_BUDGET_FRACTIONS.len());
        for (fraction, _, results) in &points {
            let lru = result_of(results, "lru").hit_rate();
            let belady = result_of(results, "belady").hit_rate();
            assert!(
                belady > lru,
                "belady {belady:.4} must strictly beat lru {lru:.4} at {fraction}"
            );
        }
        assert!(!out.trace.is_empty());
        // Determinism: a second run reproduces every hit count exactly.
        let again = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        let again_points = sweep_points(&again.doc).unwrap();
        for ((_, _, a), (_, _, b)) in points.iter().zip(&again_points) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!((x.hits, x.misses), (y.hits, y.misses), "{}", x.policy);
            }
        }
    }

    #[test]
    fn packing_concentrates_the_working_set() {
        let out = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        let t = out.doc.get("trace").unwrap();
        let unpacked = t.get("unique_pages").and_then(Json::as_u64).unwrap();
        let packed = t.get("packed_unique_pages").and_then(Json::as_u64).unwrap();
        assert!(
            packed <= unpacked,
            "hot-first packing must not widen the page working set ({packed} > {unpacked})"
        );
    }

    #[test]
    fn validation_rejects_broken_docs() {
        let out = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        let mut doc = out.doc.clone();
        doc.set("schema_version", 99u64.into());
        assert!(validate_cache_sweep(&doc)
            .unwrap_err()
            .contains("schema_version"));

        // A Belady result losing to LRU must fail validation: swap the two
        // policies' numbers at the tightest budget.
        let mut doc = out.doc.clone();
        let budgets = doc
            .get("budgets")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec();
        let mut point = budgets[0].clone();
        let policies = point.get("policies").unwrap().clone();
        let mut swapped = Json::obj();
        swapped
            .set("lru", policies.get("belady").unwrap().clone())
            .set("belady", policies.get("lru").unwrap().clone())
            .set(
                "belady_packed",
                policies.get("belady_packed").unwrap().clone(),
            );
        point.set("policies", swapped);
        let mut arr = vec![point];
        arr.extend(budgets.iter().skip(1).cloned());
        doc.set("budgets", Json::Arr(arr));
        assert!(validate_cache_sweep(&doc).unwrap_err().contains("belady"));
    }

    #[test]
    fn compare_flags_hit_rate_drops() {
        let out = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        // Identical docs: no regressions.
        assert!(compare_cache_sweep(&out.doc, &out.doc, 0.001)
            .unwrap()
            .is_empty());
        // Degrade belady at one budget beyond epsilon.
        let mut worse = out.doc.clone();
        let budgets = worse
            .get("budgets")
            .and_then(Json::as_array)
            .unwrap()
            .to_vec();
        let mut point = budgets[0].clone();
        let mut policies = point.get("policies").unwrap().clone();
        let mut belady = policies.get("belady").unwrap().clone();
        let hits = belady.get("hits").and_then(Json::as_u64).unwrap();
        let misses = belady.get("misses").and_then(Json::as_u64).unwrap();
        let degraded = hits / 2;
        belady
            .set("hits", degraded.into())
            .set("misses", (misses + hits - degraded).into())
            .set(
                "hit_rate",
                (degraded as f64 / (hits + misses) as f64).into(),
            );
        policies.set("belady", belady);
        point.set("policies", policies);
        let mut arr = vec![point];
        arr.extend(budgets.iter().skip(1).cloned());
        worse.set("budgets", Json::Arr(arr));
        let regs = compare_cache_sweep(&out.doc, &worse, 0.001).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].metric.starts_with("belady.hit_rate"));
    }

    #[test]
    fn table_rows_cover_every_budget() {
        let out = run_sweep_with_profile(SsdProfile::instant()).unwrap();
        let rows = hit_rate_rows(&out.doc).unwrap();
        assert_eq!(rows.len(), SWEEP_BUDGET_FRACTIONS.len());
        // policy columns + delta column
        assert!(rows
            .iter()
            .all(|r| r.cells.len() == SWEEP_POLICIES.len() + 1));
    }
}
