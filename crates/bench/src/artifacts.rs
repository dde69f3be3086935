//! Machine-readable run-report artifacts.
//!
//! Every repro binary prints text tables for eyeballing; this module lets
//! the same binaries also drop a [`RunReport`] JSON artifact (metrics
//! registry snapshot, per-stage latency percentiles, monitor utilization
//! series) that tooling can diff across runs without scraping text.
//!
//! Reports land in `$REPRO_REPORT_DIR` (default `results/reports`), one
//! file per report name. Artifact writing must never fail a run: errors
//! are printed and swallowed.

use crate::Scenario;
use gnndrive_telemetry::{self as telemetry, catalog, HistogramHandle, RunReport, SeriesPoint};
use std::path::PathBuf;

/// The four GNNDrive pipeline stages, in batch-lifecycle order, with the
/// registry histogram of their per-batch latencies.
pub static PIPELINE_STAGES: [(&str, &HistogramHandle); 4] = [
    ("sample", &catalog::PIPELINE_SAMPLE),
    ("extract", &catalog::PIPELINE_EXTRACT),
    ("train", &catalog::PIPELINE_TRAIN),
    ("release", &catalog::PIPELINE_RELEASE),
];

/// Where run reports land: `$REPRO_REPORT_DIR` or `results/reports`.
pub fn report_dir() -> PathBuf {
    std::env::var_os("REPRO_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/reports"))
}

/// A file-stem-safe slug of a system/figure name ("PyG+" → "pygplus").
pub fn slug(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '+' => out.push_str("plus"),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            _ => out.push('_'),
        }
    }
    out
}

/// One-line scenario description embedded in every artifact.
pub fn scenario_desc(sc: &Scenario) -> String {
    format!(
        "{} scale {} dim {} model {} hidden {} mem {}GB batch {} fanouts {:?}",
        sc.dataset.name(),
        sc.scale,
        sc.dim,
        sc.model.name(),
        sc.hidden,
        sc.memory_gb,
        sc.batch_size,
        sc.fanouts
    )
}

/// Assemble a report from the current registry state: metrics snapshot,
/// the monitor's utilization series, and per-stage latency percentiles
/// for every pipeline stage that recorded anything this run.
pub fn collect_report(name: &str, scenario: &str, series: Vec<SeriesPoint>) -> RunReport {
    let mut r = RunReport::new(name);
    r.scenario = scenario.to_string();
    r.metrics = telemetry::snapshot_metrics();
    r.series = series;
    for (stage, hist) in PIPELINE_STAGES {
        let h = hist.merged();
        if h.count() > 0 {
            r.add_stage(stage, &h);
        }
    }
    r
}

/// Write `report` under [`report_dir`], printing the artifact path (or
/// the error — reports are best-effort and never fail the run).
pub fn write_report(report: &RunReport) -> Option<PathBuf> {
    match report.write_to_dir(&report_dir()) {
        Ok(path) => {
            println!("report: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("report {}: not written: {e}", report.name);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slug_is_file_stem_safe() {
        assert_eq!(slug("PyG+"), "pygplus");
        assert_eq!(slug("GNNDrive-GPU"), "gnndrive_gpu");
        assert_eq!(slug("MariusGNN"), "mariusgnn");
    }
}
