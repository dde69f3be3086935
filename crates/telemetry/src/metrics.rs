//! Global metrics registry: named counters, gauges, and latency histograms.
//!
//! Every crate in the workspace reports into one process-wide registry so a
//! single [`MetricsSnapshot`] can show the storage stack, the pipeline, and
//! the device model side by side — the unified view behind run reports.
//!
//! Hot paths stay cheap: looking a metric up by name takes a registry lock
//! once, but the returned handle is a clonable `Arc` around an atomic (or a
//! sharded histogram), so instruments cache their handles at construction
//! and the per-event cost is one relaxed atomic op (counters/gauges) or one
//! uncontended shard lock (histograms).
//!
//! Naming convention: dot-separated lowercase paths, subsystem first —
//! `ssd.read_bytes`, `page_cache.hits`, `pipeline.extract_queue.depth`.
//! Baselines report under their own prefix via [`Scope`] (`pygplus.`,
//! `ginex.`, `marius.`), GNNDrive under the bare subsystem names, so one
//! report can compare stage breakdowns across systems.

use crate::json::Json;
use crate::Histogram;
use gnndrive_sync::{LockRank, OrderedMutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing event/byte counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, resident pages, bytes in use).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn sub(&self, d: i64) {
        self.0.fetch_sub(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

const HIST_SHARDS: usize = 8;

struct ShardedHistogram {
    shards: [OrderedMutex<Histogram>; HIST_SHARDS],
}

/// Handle to a registered latency histogram (values in nanoseconds by
/// convention). Recording locks one of eight shards chosen per-thread, so
/// concurrent recorders rarely contend.
#[derive(Clone)]
pub struct HistogramHandle(Arc<ShardedHistogram>);

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramHandle")
            .field("count", &self.merged().count())
            .finish()
    }
}

thread_local! {
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % HIST_SHARDS
    };
}

impl HistogramHandle {
    pub fn record(&self, v: u64) {
        let shard = SHARD.with(|s| *s);
        self.0.shards[shard].lock().record(v);
    }

    /// Merged view across all shards.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for s in &self.0.shards {
            out.merge(&s.lock());
        }
        out
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

fn registry() -> &'static OrderedMutex<HashMap<String, Metric>> {
    static REGISTRY: OnceLock<OrderedMutex<HashMap<String, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| OrderedMutex::new(LockRank::Telemetry, HashMap::new()))
}

/// Get (or register) the counter named `name`.
///
/// Panics if `name` is already registered as a different metric kind — a
/// naming collision is a bug worth failing loudly on.
pub fn counter(name: &str) -> Counter {
    let mut reg = registry().lock();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Get (or register) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut reg = registry().lock();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Get (or register) the nanosecond histogram named `name`.
pub fn histogram_ns(name: &str) -> HistogramHandle {
    let mut reg = registry().lock();
    match reg.entry(name.to_string()).or_insert_with(|| {
        Metric::Histogram(HistogramHandle(Arc::new(ShardedHistogram {
            shards: std::array::from_fn(|_| {
                OrderedMutex::new(LockRank::Telemetry, Histogram::new())
            }),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Zero every registered metric **in place**.
///
/// Handles cached by instruments stay valid and keep pointing at the same
/// storage; only the recorded values are cleared. Used between benchmark
/// runs so each system's report starts from a clean slate.
pub fn reset_metrics() {
    let reg = registry().lock();
    for metric in reg.values() {
        match metric {
            Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                for s in &h.0.shards {
                    *s.lock() = Histogram::new();
                }
            }
        }
    }
}

/// Percentile summary of a histogram, as captured in snapshots/reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl HistSummary {
    pub fn of(h: &Histogram) -> HistSummary {
        HistSummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.percentile(0.50),
            p95_ns: h.percentile(0.95),
            p99_ns: h.percentile(0.99),
            max_ns: h.max(),
        }
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("count", self.count.into())
            .set("mean_ns", self.mean_ns.into())
            .set("p50_ns", self.p50_ns.into())
            .set("p95_ns", self.p95_ns.into())
            .set("p99_ns", self.p99_ns.into())
            .set("max_ns", self.max_ns.into());
        o
    }

    pub fn from_json(j: &Json) -> Option<HistSummary> {
        Some(HistSummary {
            count: j.get("count")?.as_u64()?,
            mean_ns: j.get("mean_ns")?.as_f64()?,
            p50_ns: j.get("p50_ns")?.as_u64()?,
            p95_ns: j.get("p95_ns")?.as_u64()?,
            p99_ns: j.get("p99_ns")?.as_u64()?,
            max_ns: j.get("max_ns")?.as_u64()?,
        })
    }
}

/// The captured value of one named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistSummary),
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Counter value by name (0 if absent or a different kind — convenient
    /// for report tables).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, value) in &self.entries {
            let v = match value {
                MetricValue::Counter(c) => {
                    let mut j = Json::obj();
                    j.set("type", "counter".into()).set("value", (*c).into());
                    j
                }
                MetricValue::Gauge(g) => {
                    let mut j = Json::obj();
                    j.set("type", "gauge".into())
                        .set("value", Json::Num(*g as f64));
                    j
                }
                MetricValue::Histogram(h) => {
                    let mut j = h.to_json();
                    j.set("type", "histogram".into());
                    j
                }
            };
            o.set(name, v);
        }
        o
    }
}

/// Capture every registered metric. Histograms are summarized (the shards
/// are merged and reduced to percentiles).
pub fn snapshot_metrics() -> MetricsSnapshot {
    let reg = registry().lock();
    let mut entries: Vec<(String, MetricValue)> = reg
        .iter()
        .map(|(name, metric)| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(HistSummary::of(&h.merged())),
            };
            (name.clone(), value)
        })
        .collect();
    drop(reg);
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { entries }
}

/// A name prefix under which a subsystem (or baseline) registers metrics:
/// `Scope::new("ginex").counter("cache.hits")` → `ginex.cache.hits`.
#[derive(Debug, Clone)]
pub struct Scope {
    prefix: String,
}

impl Scope {
    pub fn new(prefix: &str) -> Scope {
        let prefix = prefix.trim_end_matches('.');
        Scope {
            prefix: if prefix.is_empty() {
                String::new()
            } else {
                format!("{prefix}.")
            },
        }
    }

    pub fn name(&self, metric: &str) -> String {
        format!("{}{metric}", self.prefix)
    }

    pub fn counter(&self, metric: &str) -> Counter {
        counter(&self.name(metric))
    }

    pub fn gauge(&self, metric: &str) -> Gauge {
        gauge(&self.name(metric))
    }

    pub fn histogram_ns(&self, metric: &str) -> HistogramHandle {
        histogram_ns(&self.name(metric))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let _gate = crate::TEST_GATE.lock();
        let a = counter("test.metrics.ops");
        let b = counter("test.metrics.ops");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = gauge("test.metrics.depth");
        g.set(7);
        g.sub(2);
        assert_eq!(gauge("test.metrics.depth").get(), 5);
    }

    #[test]
    fn histogram_merges_across_threads() {
        let _gate = crate::TEST_GATE.lock();
        let h = histogram_ns("test.metrics.lat");
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 1..=100u64 {
                        h.record(v * 1000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let merged = h.merged();
        assert_eq!(merged.count(), 400);
        assert!(merged.percentile(0.5) >= 40_000);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let _gate = crate::TEST_GATE.lock();
        counter("test.snap.b").add(2);
        gauge("test.snap.a").set(-3);
        histogram_ns("test.snap.c").record(5);
        let snap = snapshot_metrics();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.counter("test.snap.b") >= 2);
        assert_eq!(snap.gauge("test.snap.a"), -3);
        assert!(matches!(
            snap.get("test.snap.c"),
            Some(MetricValue::Histogram(h)) if h.count >= 1
        ));
    }

    #[test]
    fn reset_keeps_handles_live() {
        let _gate = crate::TEST_GATE.lock();
        let c = counter("test.reset.ops");
        c.add(10);
        reset_metrics();
        assert_eq!(c.get(), 0);
        c.add(1);
        assert_eq!(counter("test.reset.ops").get(), 1);
    }

    #[test]
    fn scope_prefixes_names() {
        let _gate = crate::TEST_GATE.lock();
        let s = Scope::new("ginex");
        assert_eq!(s.name("cache.hits"), "ginex.cache.hits");
        s.counter("cache.hits").inc();
        assert!(snapshot_metrics().counter("ginex.cache.hits") >= 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _gate = crate::TEST_GATE.lock();
        counter("test.json.reads").add(9);
        let snap = snapshot_metrics();
        let text = snap.to_json().to_json_string();
        let back = Json::parse(&text).unwrap();
        let v = back.get("test.json.reads").unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("counter"));
        assert!(v.get("value").unwrap().as_u64().unwrap() >= 9);
    }
}
