//! The metric catalogs: every number the benchmark reports, with its unit,
//! its good direction, and — for end-to-end metrics — the share by which it
//! may worsen before a change counts as a regression. `BENCHMARK.json` is
//! rendered from these tables, so the manifest and the program cannot
//! disagree.

use crate::workloads::WORKLOADS;
use gnndrive::telemetry::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse (negative = better)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base.abs(),
            Better::Lower => (new - base) / base.abs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [EndToEnd; 6] = [
    // Median over measured epochs of batches × 32 / epoch wall.
    EndToEnd {
        name: "train_seeds_per_s",
        unit: "seeds/s",
        better: Higher,
        bound: 0.25,
    },
    // Process CPU (user + system) per trained seed over the training window:
    // host overhead stays visible even when wall time is modeled sleep.
    EndToEnd {
        name: "cpu_ms_per_seed",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
    // Dataset build + pipeline build + warm-up epoch; median of three.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    // Due time → reply of single-seed inference requests at 100 req/s.
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer numbers from the traced run; names carry the crate as
/// prefix. "replay" in README.md marks the ones timed from outside in the
/// serial layer replay; the rest come from the library's public reports.
pub const PER_LAYER: [PerLayer; 58] = [
    layer("graph.dataset_build_s", "s", Lower),
    layer("graph.feature_mb", "MiB", Lower),
    layer("graph.topology_mb", "MiB", Lower),
    layer("sampling.sample_ms_per_batch", "ms", Lower),
    layer("sampling.stage_ms", "ms", Lower),
    layer("sampling.input_nodes_per_batch", "nodes/batch", Lower),
    layer("storage.read_ops_per_batch", "ops/batch", Lower),
    layer("storage.read_mb_per_batch", "MiB/batch", Lower),
    layer("storage.bytes_per_loaded_node", "B", Lower),
    layer("storage.queue_ms_per_op", "ms", Lower),
    layer("storage.service_ms_per_op", "ms", Lower),
    layer("storage.serve_lane_queue_ms_per_op", "ms", Lower),
    layer("storage.bulk_lane_queue_ms_per_op", "ms", Lower),
    layer("storage.ring_us_per_op", "us", Lower),
    layer("storage.crc32_mb_per_s", "MiB/s", Higher),
    layer("storage.pagecache_hit_rate", "ratio", Higher),
    layer("storage.pagecache_read_us", "us", Lower),
    layer("storage.retries", "count", Lower),
    layer("storage.failed_ops", "count", Lower),
    layer("storage.integrity_escaped", "count", Lower),
    layer("core.extract_ms_per_batch", "ms", Lower),
    layer("core.extract_self_ms_per_batch", "ms", Lower),
    layer("core.stage_extract_ms", "ms", Lower),
    layer("core.fb_plan_release_us_per_batch", "us", Lower),
    layer("core.fb_reuse_ratio", "ratio", Higher),
    layer("core.wait_slot_ms_per_batch", "ms", Lower),
    layer("core.wait_ring_ms_per_batch", "ms", Lower),
    layer("core.wait_transfer_ms_per_batch", "ms", Lower),
    layer("core.wait_staging_ms_per_batch", "ms", Lower),
    layer("core.wait_mem_admission_ms_per_batch", "ms", Lower),
    layer("core.batch_latency_p50_ms", "ms", Lower),
    layer("core.batch_latency_p95_ms", "ms", Lower),
    layer("core.failed_batches", "count", Lower),
    layer("core.pipeline_build_s", "s", Lower),
    layer("device.gather_us_per_batch", "us", Lower),
    layer("device.transfer_ms_per_batch", "ms", Lower),
    layer("device.train_pad_share", "ratio", Lower),
    layer("nn.train_step_ms_per_batch", "ms", Lower),
    layer("nn.forward_ms_per_batch", "ms", Lower),
    layer("nn.stage_train_ms", "ms", Lower),
    layer("nn.val_accuracy", "ratio", Higher),
    layer("nn.final_loss", "nats", Lower),
    layer("tensor.matmul_gflops", "GFLOP/s", Higher),
    layer("serve.queue_ms_p50", "ms", Lower),
    layer("serve.service_ms_p50", "ms", Lower),
    layer("serve.lat_p50_ms", "ms", Lower),
    layer("serve.lat_p90_ms", "ms", Lower),
    layer("serve.lat_p99_ms", "ms", Lower),
    layer("serve.lat_max_ms", "ms", Lower),
    layer("serve.batch_size_mean", "count", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.failed", "count", Lower),
    layer("serve.slow", "count", Lower),
    layer("serve.gen_late_ms_p99", "ms", Lower),
    layer("serve.harness_self_ms_p50", "ms", Lower),
    layer("train.seeds_per_s_traced", "seeds/s", Higher),
    layer("train.epochs_measured", "count", Higher),
    layer("telemetry.trace_overhead_pct", "%", Lower),
];

/// `(name, unit)` of every metric a run of the given kind reports, in
/// reporting order: per-layer for a traced run, end-to-end otherwise.
pub fn catalog(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Name charset of the manifest contract: starts with a letter or digit,
/// then letters, digits, `_`, `.`, `-`; at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Unit charset of the manifest contract.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Seconds one driver run measures (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 15;

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| (*s).into()).collect());
    let mut doc = Json::obj();
    doc.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    )
    .set("paths", strs(&["benchmark"]))
    .set("run_seconds", RUN_SECONDS.into())
    .set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", w.name.into()).set("why", w.why.into());
                    o
                })
                .collect(),
        ),
    )
    .set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", m.name.into())
                        .set("unit", m.unit.into())
                        .set("better", m.better.as_str().into())
                        .set("bound", Json::Num(m.bound));
                    o
                })
                .collect(),
        ),
    )
    .set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", m.name.into())
                        .set("unit", m.unit.into())
                        .set("better", m.better.as_str().into());
                    o
                })
                .collect(),
        ),
    );
    doc
}

/// Indented rendering of a JSON value (the library's writer is compact).
pub fn pretty(j: &Json) -> String {
    fn go(j: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match j {
            Json::Arr(v) if !v.is_empty() => {
                // Arrays of scalars stay on one line.
                if v.iter().all(|x| !matches!(x, Json::Arr(_) | Json::Obj(_))) {
                    let items: Vec<String> = v.iter().map(Json::to_json_string).collect();
                    out.push_str(&format!("[{}]", items.join(", ")));
                    return;
                }
                out.push_str("[\n");
                for (i, x) in v.iter().enumerate() {
                    out.push_str(&pad);
                    go(x, depth + 1, out);
                    out.push_str(if i + 1 < v.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(m) if !m.is_empty() => {
                // Small leaf objects stay on one line too.
                if m.values()
                    .all(|x| !matches!(x, Json::Arr(_) | Json::Obj(_)))
                    && depth > 0
                {
                    let body: Vec<String> = m
                        .iter()
                        .map(|(k, v)| {
                            format!(
                                "{}: {}",
                                Json::Str(k.clone()).to_json_string(),
                                v.to_json_string()
                            )
                        })
                        .collect();
                    out.push_str(&format!("{{{}}}", body.join(", ")));
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in m.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Json::Str(k.clone()).to_json_string());
                    out.push_str(": ");
                    go(v, depth + 1, out);
                    out.push_str(if i + 1 < m.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
            other => out.push_str(&other.to_json_string()),
        }
    }
    let mut out = String::new();
    go(j, 0, &mut out);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "train_seeds_per_s",
            "storage.read_mb_per_batch",
            "p-99",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for ok in ["ms", "seeds/s", "%", "GFLOP/s", "1/s", "MiB/batch"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "seventeen_chars_x"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn catalogs_meet_the_manifest_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
        for m in END_TO_END {
            assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}: unit {:?}", m.name, m.unit);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn worsening_follows_the_good_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(Better::Lower.worsening(0.0, 5.0), 0.0);
    }

    #[test]
    fn committed_manifest_is_the_rendered_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
        let committed = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "run `benchmark manifest > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
        let keys: Vec<&str> = committed
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    #[test]
    fn pretty_output_round_trips() {
        let doc = manifest();
        assert_eq!(Json::parse(&pretty(&doc)).expect("parses"), doc);
    }
}
