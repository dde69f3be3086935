//! Machine-readable run reports.
//!
//! Every repro binary (and the end-to-end tests) can assemble a
//! [`RunReport`] — a metrics snapshot, per-stage latency percentiles, the
//! monitor's utilization series, and free-form scalars — and write it as a
//! JSON artifact next to the existing text tables, which tests and tooling
//! read back through [`RunReport::parse`] instead of scraping text.

use crate::json::Json;
use crate::metrics::{HistSummary, MetricsSnapshot};
use crate::{Histogram, SeriesPoint};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process artifact sequence. Two runs writing the same report name
/// into the same directory used to silently overwrite each other; the
/// sequence number keeps every run's artifact distinct.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// A structured record of one benchmark/training run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Artifact name, e.g. `fig3_utilization.pygplus` (also the file stem).
    pub name: String,
    /// Free-form description of the scenario (dataset, model, budget...).
    pub scenario: String,
    /// Snapshot of the global metrics registry at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Per-stage latency percentiles, e.g. `("extract", ...)`.
    pub stages: Vec<(String, HistSummary)>,
    /// Utilization time series from [`crate::Monitor`].
    pub series: Vec<SeriesPoint>,
    /// Free-form named scalars (wall seconds, loss, epochs...).
    pub scalars: Vec<(String, f64)>,
    /// Free-form named string labels (e.g. `bottleneck_verdict`).
    pub labels: Vec<(String, String)>,
}

impl RunReport {
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            ..RunReport::default()
        }
    }

    /// Summarize `hist` as stage `name`'s latency distribution.
    pub fn add_stage(&mut self, name: &str, hist: &Histogram) {
        self.stages.push((name.to_string(), HistSummary::of(hist)));
    }

    pub fn add_stage_summary(&mut self, name: &str, summary: HistSummary) {
        self.stages.push((name.to_string(), summary));
    }

    pub fn add_scalar(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    pub fn stage(&self, name: &str) -> Option<&HistSummary> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn add_label(&mut self, name: &str, value: &str) {
        self.labels.push((name.to_string(), value.to_string()));
    }

    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn to_json(&self) -> Json {
        let mut stages = Json::obj();
        for (name, summary) in &self.stages {
            stages.set(name, summary.to_json());
        }
        let series = Json::Arr(
            self.series
                .iter()
                .map(|p| {
                    let mut o = Json::obj();
                    o.set("t_secs", p.t_secs.into())
                        .set("cpu_util", p.cpu_util.into())
                        .set("gpu_util", p.gpu_util.into())
                        .set("io_wait", p.io_wait.into());
                    o
                })
                .collect(),
        );
        let mut scalars = Json::obj();
        for (name, value) in &self.scalars {
            scalars.set(name, (*value).into());
        }
        let mut labels = Json::obj();
        for (name, value) in &self.labels {
            labels.set(name, value.as_str().into());
        }
        let mut doc = Json::obj();
        doc.set("name", self.name.as_str().into())
            .set("scenario", self.scenario.as_str().into())
            .set("metrics", self.metrics.to_json())
            .set("stages", stages)
            .set("series", series)
            .set("scalars", scalars)
            .set("labels", labels);
        doc
    }

    /// Parse a report previously produced by [`RunReport::to_json`].
    ///
    /// The metrics snapshot is returned as raw JSON via
    /// [`ParsedReport::metrics`] (a snapshot of atomics cannot be
    /// reconstructed); everything else round-trips structurally.
    pub fn parse(text: &str) -> Result<ParsedReport, String> {
        let doc = Json::parse(text)?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let scenario = doc
            .get("scenario")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let metrics = doc.get("metrics").cloned().ok_or("missing metrics")?;
        let mut stages = Vec::new();
        if let Some(obj) = doc.get("stages").and_then(Json::as_object) {
            for (stage, j) in obj {
                let summary =
                    HistSummary::from_json(j).ok_or_else(|| format!("bad stage {stage:?}"))?;
                stages.push((stage.clone(), summary));
            }
        }
        let mut series = Vec::new();
        if let Some(points) = doc.get("series").and_then(Json::as_array) {
            for p in points {
                series.push(SeriesPoint {
                    t_secs: p.get("t_secs").and_then(Json::as_f64).ok_or("bad point")?,
                    cpu_util: p.get("cpu_util").and_then(Json::as_f64).unwrap_or(0.0),
                    gpu_util: p.get("gpu_util").and_then(Json::as_f64).unwrap_or(0.0),
                    io_wait: p.get("io_wait").and_then(Json::as_f64).unwrap_or(0.0),
                });
            }
        }
        let mut scalars = Vec::new();
        if let Some(obj) = doc.get("scalars").and_then(Json::as_object) {
            for (name, v) in obj {
                scalars.push((name.clone(), v.as_f64().ok_or("bad scalar")?));
            }
        }
        let mut labels = Vec::new();
        if let Some(obj) = doc.get("labels").and_then(Json::as_object) {
            for (name, v) in obj {
                labels.push((name.clone(), v.as_str().ok_or("bad label")?.to_string()));
            }
        }
        Ok(ParsedReport {
            name,
            scenario,
            metrics,
            stages,
            series,
            scalars,
            labels,
        })
    }

    /// Write `<dir>/<name>.r<seq>.json`, creating `dir` as needed. The
    /// `r<seq>` component is a monotonic run sequence so that repeated
    /// runs of the same scenario (bench sweeps, test suites, successive
    /// CLI invocations) land as distinct artifacts instead of silently
    /// overwriting each other: a process-local counter supplies the
    /// starting sequence, and create-new publication skips over artifacts
    /// earlier processes left behind. Returns the artifact path.
    ///
    /// The write is crash-atomic: the full JSON is staged to a durable
    /// temp file first and hard-linked into its final name, so a crash at
    /// any instant leaves either a complete artifact or none — never a
    /// truncated `.json` that a later [`RunReport::parse`] would reject.
    pub fn write_to_dir(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let bytes = self.to_json().to_json_string().into_bytes();
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut path = dir.join(format!("{}.r{seq:03}.json", self.name));
        let staged = crate::persist::stage("report.save", &path, &bytes)?;
        loop {
            match staged.publish_new(&path) {
                Ok(()) => {
                    staged.discard();
                    return Ok(path);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
                    path = dir.join(format!("{}.r{seq:03}.json", self.name));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// A report read back from its JSON artifact (see [`RunReport::parse`]).
#[derive(Debug, Clone)]
pub struct ParsedReport {
    pub name: String,
    pub scenario: String,
    /// The metrics snapshot as a JSON object: metric name →
    /// `{type, value}` / `{type, count, p50_ns, ...}`.
    pub metrics: Json,
    pub stages: Vec<(String, HistSummary)>,
    pub series: Vec<SeriesPoint>,
    pub scalars: Vec<(String, f64)>,
    pub labels: Vec<(String, String)>,
}

impl ParsedReport {
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Names of all metrics in the snapshot.
    pub fn metric_names(&self) -> Vec<&str> {
        self.metrics
            .as_object()
            .map(|m| m.keys().map(String::as_str).collect())
            .unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.metrics.get(name)?.get("value")?.as_u64()
    }

    pub fn stage(&self, name: &str) -> Option<&HistSummary> {
        self.stages.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{snapshot_metrics, Counter};

    static READS: Counter = Counter::new("test.report.reads");

    #[test]
    fn report_round_trips_through_json() {
        let _g = crate::TEST_GATE.lock();
        READS.add(11);
        let mut h = Histogram::new();
        for v in [10_000u64, 20_000, 30_000] {
            h.record(v);
        }
        let mut r = RunReport::new("unit.report");
        r.scenario = "tiny".into();
        r.metrics = snapshot_metrics();
        r.add_stage("extract", &h);
        r.series.push(SeriesPoint {
            t_secs: 0.1,
            cpu_util: 0.5,
            gpu_util: 0.25,
            io_wait: 0.125,
        });
        r.add_scalar("wall_secs", 1.5);
        r.add_label("bottleneck_verdict", "compute_bound");

        let text = r.to_json().to_json_string();
        let p = RunReport::parse(&text).unwrap();
        assert_eq!(p.name, "unit.report");
        assert_eq!(p.scenario, "tiny");
        assert!(p.counter(READS.name()).unwrap() >= 11);
        let extract = p.stage("extract").unwrap();
        assert_eq!(extract.count, 3);
        assert_eq!(extract.max_ns, 30_000);
        assert_eq!(p.series.len(), 1);
        assert!((p.series[0].gpu_util - 0.25).abs() < 1e-12);
        assert_eq!(p.scalars, vec![("wall_secs".to_string(), 1.5)]);
        assert_eq!(p.scalar("wall_secs"), Some(1.5));
        assert_eq!(p.label("bottleneck_verdict"), Some("compute_bound"));
        assert_eq!(p.label("missing"), None);
    }

    #[test]
    fn reports_without_labels_still_parse() {
        // Artifacts written before the labels field existed.
        let p = RunReport::parse(r#"{"name":"old","metrics":{}}"#).unwrap();
        assert_eq!(p.name, "old");
        assert!(p.labels.is_empty());
    }

    #[test]
    fn writes_artifact_file() {
        let _g = crate::TEST_GATE.lock();
        let dir = std::env::temp_dir().join("gnndrive-report-test");
        let mut r = RunReport::new("unit.write");
        r.metrics = snapshot_metrics();
        let path = r.write_to_dir(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let p = RunReport::parse(&text).unwrap();
        assert_eq!(p.name, "unit.write");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn repeated_runs_land_as_distinct_artifacts() {
        let _g = crate::TEST_GATE.lock();
        let dir = std::env::temp_dir().join("gnndrive-report-seq-test");
        let mut r = RunReport::new("unit.seq");
        r.metrics = snapshot_metrics();
        let first = r.write_to_dir(&dir).unwrap();
        let second = r.write_to_dir(&dir).unwrap();
        assert_ne!(first, second, "same-name reports must not overwrite");
        assert!(first.exists() && second.exists());

        // Artifacts left by an *earlier process* (its RUN_SEQ restarted
        // at 0) occupy sequence slots on disk only; later writes must
        // skip over them, never truncate them. Plant sentinels on the
        // next few slots (a few, because parallel tests also consume
        // sequence numbers) and check the write lands past them.
        let next = RUN_SEQ.load(Ordering::Relaxed);
        let planted: Vec<PathBuf> = (next..next + 4)
            .map(|s| dir.join(format!("unit.seq.r{s:03}.json")))
            .collect();
        for p in &planted {
            std::fs::write(p, "sentinel").unwrap();
        }
        let third = r.write_to_dir(&dir).unwrap();
        assert!(!planted.contains(&third), "skipped the occupied slots");
        for p in &planted {
            assert_eq!(
                std::fs::read_to_string(p).unwrap(),
                "sentinel",
                "pre-existing artifacts survive later writes"
            );
        }
        for p in planted.iter().chain([&first, &second, &third]) {
            let _ = std::fs::remove_file(p);
        }
    }
}
