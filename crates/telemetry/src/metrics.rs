//! Global metrics registry: named counters, gauges, and latency histograms.
//!
//! Every crate in the workspace reports into one process-wide registry so a
//! single [`MetricsSnapshot`] can show the storage stack, the pipeline, and
//! the device model side by side — the unified view behind run reports.
//!
//! Each metric is a `static` declared once in [`crate::catalog`]; the
//! constructors are private to this crate, so a name missing from the
//! catalog does not compile. A static holds its value inline (an atomic,
//! or eight histogram shards), so the per-event cost is one relaxed atomic
//! op (counters/gauges) or one uncontended shard lock (histograms), plus a
//! flag check that lists the metric in the registry on first use. A
//! snapshot therefore shows exactly the metrics a run touched.
//!
//! Naming convention: dot-separated lowercase paths, subsystem first —
//! `ssd.read_bytes`, `page_cache.hits`, `pipeline.extract_queue.depth`.
//! Baselines report under their own prefix (`pygplus.`, `ginex.`,
//! `marius.`), GNNDrive under the bare subsystem names, so one report can
//! compare stage breakdowns across systems.

use crate::json::Json;
use crate::Histogram;
use gnndrive_sync::{LockRank, OrderedMutex};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A monotonically increasing event/byte counter.
pub struct Counter {
    name: &'static str,
    listed: AtomicBool,
    value: AtomicU64,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter")
            .field(&self.name)
            .field(&self.value.load(Ordering::Relaxed))
            .finish()
    }
}

impl Counter {
    pub(crate) const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            listed: AtomicBool::new(false),
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// List this counter in snapshots from now on, even while it stays 0.
    /// Every other method does so on first use; instruments call this at
    /// construction so their reports show a zero rather than no key.
    pub fn register(&'static self) {
        if !self.listed.load(Ordering::Acquire) {
            list(&self.listed, Metric::Counter(self));
        }
    }

    pub fn inc(&'static self) {
        self.add(1);
    }

    pub fn add(&'static self, v: u64) {
        self.register();
        self.value.fetch_add(v, Ordering::Relaxed);
    }

    pub fn get(&'static self) -> u64 {
        self.register();
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, resident pages, bytes in use).
pub struct Gauge {
    name: &'static str,
    listed: AtomicBool,
    value: AtomicI64,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge")
            .field(&self.name)
            .field(&self.value.load(Ordering::Relaxed))
            .finish()
    }
}

impl Gauge {
    pub(crate) const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            listed: AtomicBool::new(false),
            value: AtomicI64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// See [`Counter::register`].
    pub fn register(&'static self) {
        if !self.listed.load(Ordering::Acquire) {
            list(&self.listed, Metric::Gauge(self));
        }
    }

    pub fn set(&'static self, v: i64) {
        self.register();
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&'static self, d: i64) {
        self.register();
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    pub fn sub(&'static self, d: i64) {
        self.register();
        self.value.fetch_sub(d, Ordering::Relaxed);
    }

    pub fn get(&'static self) -> i64 {
        self.register();
        self.value.load(Ordering::Relaxed)
    }
}

const HIST_SHARDS: usize = 8;

/// A latency histogram (values in nanoseconds by convention). Recording
/// locks one of eight shards chosen per-thread, so concurrent recorders
/// rarely contend.
pub struct HistogramHandle {
    name: &'static str,
    listed: AtomicBool,
    shards: [OrderedMutex<Histogram>; HIST_SHARDS],
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramHandle")
            .field("name", &self.name)
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
    pub(crate) const fn new(name: &'static str) -> HistogramHandle {
        HistogramHandle {
            name,
            listed: AtomicBool::new(false),
            shards: [const { OrderedMutex::new(LockRank::Telemetry, Histogram::new()) };
                HIST_SHARDS],
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// See [`Counter::register`].
    pub fn register(&'static self) {
        if !self.listed.load(Ordering::Acquire) {
            list(&self.listed, Metric::Histogram(self));
        }
    }

    pub fn record(&'static self, v: u64) {
        self.register();
        let shard = SHARD.with(|s| *s);
        // Path syntax: the shard guard's type is not stated, and
        // `cargo xtask deadlock` would resolve `.record` on it by name.
        Histogram::record(&mut self.shards[shard].lock(), v);
    }

    /// Merged view across all shards.
    pub fn merged(&'static self) -> Histogram {
        self.register();
        let mut out = Histogram::new();
        for s in &self.shards {
            out.merge(&s.lock());
        }
        out
    }
}

/// A registry entry: the catalog static a name stands for.
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static HistogramHandle),
}

impl Metric {
    fn name(self) -> &'static str {
        match self {
            Metric::Counter(c) => c.name,
            Metric::Gauge(g) => g.name,
            Metric::Histogram(h) => h.name,
        }
    }
}

/// Room in the registry: more than the catalog declares.
pub(crate) const CAPACITY: usize = 256;

/// Every metric touched so far, in first-touch order: a push-only table
/// that takes no lock, so a first touch under any caller's guard nests
/// nothing inside it.
static REGISTRY: [OnceLock<Metric>; CAPACITY] = [const { OnceLock::new() }; CAPACITY];
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// First-use slow path of `register`: claim the next registry slot.
#[cold]
fn list(listed: &AtomicBool, metric: Metric) {
    if listed.swap(true, Ordering::AcqRel) {
        return; // another thread is listing it
    }
    let i = REGISTERED.fetch_add(1, Ordering::AcqRel);
    let slot: &OnceLock<Metric> = REGISTRY.get(i).expect("more metrics than CAPACITY");
    let _ = slot.set(metric);
}

/// The metrics listed so far, in first-touch order.
fn registered() -> impl Iterator<Item = Metric> {
    let n = REGISTERED.load(Ordering::Acquire).min(CAPACITY);
    REGISTRY[..n].iter().filter_map(|slot| slot.get().copied())
}

/// Zero every registered metric **in place**.
///
/// The statics stay listed; only the recorded values are cleared. Used
/// between benchmark runs so each system's report starts from a clean
/// slate.
pub fn reset_metrics() {
    for metric in registered() {
        match metric {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                for s in &h.shards {
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
    let mut entries: Vec<(String, MetricValue)> = registered()
        .map(|metric| {
            let value = match metric {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::Histogram(h) => MetricValue::Histogram(HistSummary::of(&h.merged())),
            };
            (metric.name().to_string(), value)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    MetricsSnapshot { entries }
}

#[cfg(test)]
mod tests {
    use super::*;

    static OPS: Counter = Counter::new("test.metrics.ops");
    static DEPTH: Gauge = Gauge::new("test.metrics.depth");
    static LAT: HistogramHandle = HistogramHandle::new("test.metrics.lat");
    static UNTOUCHED: Counter = Counter::new("test.metrics.untouched");

    #[test]
    fn counters_and_gauges_register_once() {
        let _gate = crate::TEST_GATE.lock();
        let before = OPS.get();
        OPS.add(3);
        OPS.inc();
        assert_eq!(OPS.get() - before, 4);
        DEPTH.set(7);
        DEPTH.sub(2);
        assert_eq!(DEPTH.get(), 5);
    }

    #[test]
    fn histogram_merges_across_threads() {
        let _gate = crate::TEST_GATE.lock();
        reset_metrics();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for v in 1..=100u64 {
                        LAT.record(v * 1000);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let merged = LAT.merged();
        assert_eq!(merged.count(), 400);
        assert!(merged.percentile(0.5) >= 40_000);
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let _gate = crate::TEST_GATE.lock();
        OPS.add(2);
        DEPTH.set(-3);
        LAT.record(5);
        let snap = snapshot_metrics();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.counter(OPS.name()) >= 2);
        assert_eq!(snap.gauge(DEPTH.name()), -3);
        assert!(matches!(
            snap.get(LAT.name()),
            Some(MetricValue::Histogram(h)) if h.count >= 1
        ));
        assert!(snap.get(UNTOUCHED.name()).is_none());
        UNTOUCHED.register();
        assert_eq!(
            snapshot_metrics().get(UNTOUCHED.name()),
            Some(&MetricValue::Counter(0))
        );
    }

    #[test]
    fn reset_keeps_handles_live() {
        let _gate = crate::TEST_GATE.lock();
        OPS.add(10);
        reset_metrics();
        assert_eq!(OPS.get(), 0);
        OPS.add(1);
        assert_eq!(snapshot_metrics().counter(OPS.name()), 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let _gate = crate::TEST_GATE.lock();
        OPS.add(9);
        let snap = snapshot_metrics();
        let text = snap.to_json().to_json_string();
        let back = Json::parse(&text).unwrap();
        let v = back.get(OPS.name()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("counter"));
        assert!(v.get("value").unwrap().as_u64().unwrap() >= 9);
    }
}
