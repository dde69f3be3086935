//! `run` and `aa`: the whole suite, one child process per workload (the
//! binary re-executes itself in single-workload mode), so peak memory, CPU
//! time and the library's process-global telemetry registry are
//! per-workload.

use crate::metrics::{pretty, Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::{Workload, WORKLOADS};
use gnndrive::telemetry::Json;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The parsed result line of one child run.
#[derive(Debug, Clone)]
pub struct ChildResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
    pub wall_s: f64,
}

impl ChildResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn to_json(&self) -> Json {
        let mut m = Json::obj();
        for (n, v) in &self.metrics {
            m.set(n, Json::Num(*v));
        }
        let mut o = Json::obj();
        o.set("workload", self.workload.into())
            .set("correct", Json::Bool(self.correct))
            .set("attempted", self.attempted.into())
            .set("failed", self.failed.into())
            .set("wall_s", Json::Num(self.wall_s))
            .set("metrics", m);
        o
    }
}

/// Parse the last stdout line of a single-workload run.
pub fn parse_result_line(
    workload: &'static str,
    stdout: &str,
    wall_s: f64,
) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("result line is not JSON ({e}): {line}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line has no metrics object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ChildResult {
        workload,
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: doc
            .get("attempted")
            .and_then(Json::as_u64)
            .ok_or("no attempted")?,
        failed: doc
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or("no failed")?,
        metrics,
        wall_s,
    })
}

/// Run one workload in a child process, echoing its report.
fn run_child(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let t = Instant::now();
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot start child: {e}", w.name))?;
    let wall_s = t.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    let result = parse_result_line(w.name, &stdout, wall_s)?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{}: run failed its output checks ({})",
            w.name, out.status
        ));
    }
    Ok(result)
}

fn selected(only: Option<&str>) -> Result<Vec<&'static Workload>, String> {
    match only {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => crate::workloads::find(name)
            .map(|w| vec![w])
            .ok_or_else(|| format!("unknown workload {name:?}; try --list")),
    }
}

fn write_report(file: &str, doc: &Json) -> Result<(), String> {
    let path = crate::write_out(file, &pretty(doc))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `benchmark run`: every selected workload once; prints each child's
/// metric table and writes `out/run_<untraced|traced>.json`.
pub fn run_suite(seed: u64, seconds: u64, trace: bool, only: Option<&str>) -> Result<(), String> {
    let t = Instant::now();
    let mut results = Vec::new();
    let mut errors = Vec::new();
    for w in selected(only)? {
        println!(
            "=== {} ({}, seed {seed}, {seconds} s) ===",
            w.name,
            if trace { "traced" } else { "untraced" }
        );
        match run_child(w, seed, seconds, trace, true) {
            Ok(r) => {
                println!("--- {}: {:.1} s wall", w.name, r.wall_s);
                results.push(r);
            }
            Err(e) => errors.push(e),
        }
    }
    let mut doc = Json::obj();
    doc.set("seed", seed.into())
        .set("seconds", seconds.into())
        .set("traced", Json::Bool(trace))
        .set(
            "runs",
            Json::Arr(results.iter().map(ChildResult::to_json).collect()),
        );
    write_report(
        if trace {
            "run_traced.json"
        } else {
            "run_untraced.json"
        },
        &doc,
    )?;
    println!("suite wall time: {:.1} s", t.elapsed().as_secs_f64());
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// `benchmark aa`: the untraced suite twice on one build and seed — any
/// end-to-end metric that differs by more than its bound fails — and once
/// more on another seed, whose spread against the first two is reported
/// but does not gate.
pub fn run_aa(seed: u64, seconds: u64, only: Option<&str>) -> Result<(), String> {
    let workloads = selected(only)?;
    let mut passes: Vec<Vec<ChildResult>> = Vec::new();
    for (label, s) in [("A1", seed), ("A2", seed), ("other seed", seed + 1)] {
        let mut pass = Vec::new();
        for w in &workloads {
            println!("[{label}] {} (seed {s}) ...", w.name);
            pass.push(run_child(w, s, seconds, false, false)?);
        }
        passes.push(pass);
    }
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    println!(
        "\n{:<14} {:<20} {:>12} {:>12} {:>8} {:>7} {:>12} {:>8}",
        "workload", "metric", "A1", "A2", "diff", "bound", "other seed", "spread"
    );
    for (i, w) in workloads.iter().enumerate() {
        for m in END_TO_END {
            let v: Vec<f64> = passes
                .iter()
                .map(|p| {
                    p[i].metric(m.name)
                        .ok_or_else(|| format!("{}: {} missing", w.name, m.name))
                })
                .collect::<Result<_, _>>()?;
            // Symmetric: neither run is "the parent", so take the larger
            // worsening of the two directions.
            let diff = m
                .better
                .worsening(v[0], v[1])
                .max(m.better.worsening(v[1], v[0]));
            let spread = quartile_spread(&v);
            let ok = diff <= m.bound;
            println!(
                "{:<14} {:<20} {:>12.4} {:>12.4} {:>7.1}% {:>6.0}% {:>12.4} {:>7.1}% {}",
                w.name,
                m.name,
                v[0],
                v[1],
                diff * 100.0,
                m.bound * 100.0,
                v[2],
                spread * 100.0,
                if ok { "" } else { "FAIL" }
            );
            if !ok {
                failures.push(format!(
                    "{} {}: {} vs {} differ by {:.1}% (bound {:.0}%)",
                    w.name,
                    m.name,
                    v[0],
                    v[1],
                    diff * 100.0,
                    m.bound * 100.0
                ));
            }
            let mut row = Json::obj();
            row.set("workload", w.name.into())
                .set("metric", m.name.into())
                .set("unit", m.unit.into())
                .set("a1", Json::Num(v[0]))
                .set("a2", Json::Num(v[1]))
                .set("other_seed", Json::Num(v[2]))
                .set("median", Json::Num(median(&v)))
                .set("aa_diff", Json::Num(diff))
                .set("bound", Json::Num(m.bound))
                .set("spread_3", Json::Num(spread))
                .set("within_bound", Json::Bool(ok));
            rows.push(row);
        }
    }
    let mut doc = Json::obj();
    doc.set("seed", seed.into())
        .set("seconds", seconds.into())
        .set("rows", Json::Arr(rows));
    write_report("aa.json", &doc)?;
    if failures.is_empty() {
        println!("aa: every end-to-end metric of every workload repeats within its bound");
        Ok(())
    } else {
        Err(format!("aa failed:\n{}", failures.join("\n")))
    }
}

/// `benchmark --list`.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    let arrow = |b: Better| {
        if b == Better::Higher {
            "higher is better"
        } else {
            "lower is better"
        }
    };
    out.push_str("end-to-end metrics (untraced run):\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "  {:<38} {:<12} {}, bound {:.0}%\n",
            m.name,
            m.unit,
            arrow(m.better),
            m.bound * 100.0
        ));
    }
    out.push_str("per-layer metrics (traced run):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<38} {:<12} {}\n",
            m.name,
            m.unit,
            arrow(m.better)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_workload_and_metric() {
        let text = list();
        for w in &WORKLOADS {
            assert!(text.contains(w.name), "{} missing from --list", w.name);
        }
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(
                text.lines()
                    .any(|l| l.split_whitespace().next() == Some(name)),
                "{name} missing"
            );
        }
        assert_eq!(
            text.lines().count(),
            3 + WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let stdout = "table line\n{\"attempted\":10,\"correct\":true,\"failed\":0,\"metrics\":{\"setup_s\":{\"unit\":\"s\",\"value\":1.25}}}\n";
        let r = parse_result_line("io_bound", stdout, 3.0).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert_eq!(r.metric("setup_s"), Some(1.25));
        assert_eq!(r.metric("nope"), None);
        assert!(parse_result_line("io_bound", "not json", 0.0).is_err());
        assert!(parse_result_line("io_bound", "", 0.0).is_err());
    }
}
