//! Critical-path bottleneck attribution (DESIGN.md §10).
//!
//! The paper's thesis is that disk-based GNN training pays for two
//! distinguishable pathologies — memory contention (𝔒1) and I/O congestion
//! (𝔒2) — yet per-stage latencies alone cannot say *which* one a run is
//! bound by. This module decomposes every trained batch's wall time into
//! exclusive cause-attributed parts:
//!
//! * stage segments measured from shared-clock stamps (`sample`, queue
//!   residency before extract, `extract`, queue residency before train,
//!   `train`) — these telescope, so they conserve wall time by
//!   construction;
//! * the *extract* segment further decomposed from always-on wait timers
//!   at each blocking edge ([`WaitKind`]), leaving `extract − Σwaits` as
//!   exclusive extractor compute.
//!
//! The conservation invariant (asserted by tests, tracked as the
//! `core.attr.other` residual): the decomposed parts must re-sum to the
//! measured batch wall time within 5%. A violated invariant means a timer
//! double-counts (nested guards) or a wait edge leaks outside its stage.
//!
//! Per epoch-slice the records aggregate into a [`BottleneckVerdict`] with
//! supporting fractions, emitted into [`crate::RunReport`]s and the Chrome
//! trace.

use crate::json::Json;
use crate::metrics::{histogram_ns, HistogramHandle};
use crate::report::RunReport;
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

/// A blocking edge on the batch critical path that the stage spans alone
/// cannot see. Each kind maps 1:1 to a `core.attr.*` histogram and to one
/// slot of the per-thread accumulator drained by [`waits_take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WaitKind {
    /// `MemoryGovernor` admission wait (`charge_waiting` stalled until
    /// reclaim freed budget). Memory contention, 𝔒1.
    MemAdmission,
    /// Staging-buffer credit wait (extract blocked until a lease freed).
    /// Memory contention, 𝔒1.
    StagingAcquire,
    /// Feature-buffer standby-slot wait inside `plan_batch`. Memory
    /// contention, 𝔒1.
    SlotWait,
    /// Async ring completion wait (`wait_completion_deadline` parked).
    /// I/O congestion, 𝔒2.
    RingWait,
    /// Blocking read on the synchronous/fallback extract path. I/O
    /// congestion, 𝔒2.
    SyncRead,
    /// Host→device transfer drain (async tail or blocking pacing). I/O
    /// congestion, 𝔒2.
    TransferWait,
    /// `wait_ready` dependency wait on another extractor's in-flight load.
    /// Attributed to I/O: the dependency is an outstanding read.
    ReadyWait,
    /// Page-cache fault wait: parked on this thread's own fill, or on a
    /// page another thread is filling. The page was evicted (or never fit)
    /// because the budget is short — memory contention, 𝔒1 — and it is the
    /// one edge that blocks the *sample* segment rather than extract.
    PageFault,
}

impl WaitKind {
    pub const ALL: [WaitKind; 8] = [
        WaitKind::MemAdmission,
        WaitKind::StagingAcquire,
        WaitKind::SlotWait,
        WaitKind::RingWait,
        WaitKind::SyncRead,
        WaitKind::TransferWait,
        WaitKind::ReadyWait,
        WaitKind::PageFault,
    ];

    pub(crate) const COUNT: usize = 8;

    fn index(self) -> usize {
        match self {
            WaitKind::MemAdmission => 0,
            WaitKind::StagingAcquire => 1,
            WaitKind::SlotWait => 2,
            WaitKind::RingWait => 3,
            WaitKind::SyncRead => 4,
            WaitKind::TransferWait => 5,
            WaitKind::ReadyWait => 6,
            WaitKind::PageFault => 7,
        }
    }

    /// Registry histogram fed by every [`WaitTimer`] of this kind. The
    /// `core.attr.*` namespace is a closed set enforced by `cargo xtask
    /// lint`; extend the table in DESIGN.md §10 when adding a kind.
    pub fn metric_name(self) -> &'static str {
        match self {
            WaitKind::MemAdmission => "core.attr.mem_admission",
            WaitKind::StagingAcquire => "core.attr.staging_wait",
            WaitKind::SlotWait => "core.attr.slot_wait",
            WaitKind::RingWait => "core.attr.ring_wait",
            WaitKind::SyncRead => "core.attr.sync_read_wait",
            WaitKind::TransferWait => "core.attr.transfer_wait",
            WaitKind::ReadyWait => "core.attr.ready_wait",
            WaitKind::PageFault => "core.attr.page_fault_wait",
        }
    }

    /// Short key used in JSON artifacts.
    pub fn key(self) -> &'static str {
        match self {
            WaitKind::MemAdmission => "mem_admission",
            WaitKind::StagingAcquire => "staging_wait",
            WaitKind::SlotWait => "slot_wait",
            WaitKind::RingWait => "ring_wait",
            WaitKind::SyncRead => "sync_read_wait",
            WaitKind::TransferWait => "transfer_wait",
            WaitKind::ReadyWait => "ready_wait",
            WaitKind::PageFault => "page_fault_wait",
        }
    }

    /// Which pathology this wait is evidence of.
    fn is_memory(self) -> bool {
        matches!(
            self,
            WaitKind::MemAdmission
                | WaitKind::StagingAcquire
                | WaitKind::SlotWait
                | WaitKind::PageFault
        )
    }
}

fn wait_hists() -> &'static [HistogramHandle; WaitKind::COUNT] {
    static HISTS: OnceLock<[HistogramHandle; WaitKind::COUNT]> = OnceLock::new();
    HISTS.get_or_init(|| {
        [
            histogram_ns("core.attr.mem_admission"),
            histogram_ns("core.attr.staging_wait"),
            histogram_ns("core.attr.slot_wait"),
            histogram_ns("core.attr.ring_wait"),
            histogram_ns("core.attr.sync_read_wait"),
            histogram_ns("core.attr.transfer_wait"),
            histogram_ns("core.attr.ready_wait"),
            histogram_ns("core.attr.page_fault_wait"),
        ]
    })
}

fn residual_hist() -> &'static HistogramHandle {
    static HIST: OnceLock<HistogramHandle> = OnceLock::new();
    HIST.get_or_init(|| histogram_ns("core.attr.other"))
}

thread_local! {
    // Per-thread wait accumulator. An extractor thread owns one batch
    // start-to-finish, so `waits_take()` at batch boundaries yields that
    // batch's waits; other threads just accumulate into histograms.
    static WAITS: Cell<[u64; WaitKind::COUNT]> = const { Cell::new([0; WaitKind::COUNT]) };
}

/// Exclusive blocked time per [`WaitKind`], in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitTotals {
    ns: [u64; WaitKind::COUNT],
}

impl WaitTotals {
    pub fn get(&self, kind: WaitKind) -> u64 {
        self.ns[kind.index()]
    }

    pub fn add(&mut self, kind: WaitKind, ns: u64) {
        let slot = &mut self.ns[kind.index()];
        *slot = slot.saturating_add(ns);
    }

    pub fn merge(&mut self, other: &WaitTotals) {
        for (a, b) in self.ns.iter_mut().zip(other.ns.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Total blocked time across every kind.
    pub fn sum(&self) -> u64 {
        self.ns.iter().fold(0u64, |a, v| a.saturating_add(*v))
    }

    /// Memory-contention share (𝔒1): admission + staging + slot waits.
    pub fn memory_ns(&self) -> u64 {
        WaitKind::ALL
            .iter()
            .filter(|k| k.is_memory())
            .fold(0u64, |a, k| a.saturating_add(self.get(*k)))
    }

    /// I/O-congestion share (𝔒2): ring/sync/transfer/ready waits.
    pub fn io_ns(&self) -> u64 {
        self.sum().saturating_sub(self.memory_ns())
    }
}

/// RAII wait timer. On drop, the elapsed nanoseconds are added to the
/// calling thread's accumulator (drained by [`waits_take`]) and recorded
/// into the kind's `core.attr.*` histogram. Always on: the cost is two
/// clock reads plus a sharded histogram update per blocking event, paid
/// only on paths that are already parked.
///
/// Timers must not nest — nested guards double-count the overlapped time
/// and the conservation tests will catch it.
pub struct WaitTimer {
    kind: WaitKind,
    started: Instant,
}

/// Start timing a blocking edge of `kind`.
pub fn wait_timer(kind: WaitKind) -> WaitTimer {
    WaitTimer {
        kind,
        started: Instant::now(),
    }
}

impl Drop for WaitTimer {
    fn drop(&mut self) {
        let ns = self.started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        WAITS.with(|w| {
            let mut cur = w.get();
            let slot = &mut cur[self.kind.index()];
            *slot = slot.saturating_add(ns);
            w.set(cur);
        });
        wait_hists()[self.kind.index()].record(ns);
    }
}

/// Drain the calling thread's wait accumulator, returning the totals since
/// the previous take. Called by an extractor at batch boundaries.
pub fn waits_take() -> WaitTotals {
    WAITS.with(|w| WaitTotals {
        ns: w.replace([0; WaitKind::COUNT]),
    })
}

/// One trained batch's critical-path decomposition. All fields are
/// nanoseconds on the pipeline's shared epoch clock; the stage segments
/// telescope (`wall = sample + queue_extract + extract + queue_train +
/// train` up to stamp skew), while `sample_waits` and `waits` decompose the
/// sample and extract segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchAttribution {
    pub batch: u64,
    /// Sample-start → train-end.
    pub wall_ns: u64,
    /// Total sample-stage time (decomposed by `sample_waits`).
    pub sample_ns: u64,
    /// Blocking edges inside the sample segment (page-cache faults).
    pub sample_waits: WaitTotals,
    /// Queue residency between sample end and extract start.
    pub queue_extract_ns: u64,
    /// Total extract-stage time (decomposed by `waits`).
    pub extract_ns: u64,
    /// Queue residency between extract end and train start.
    pub queue_train_ns: u64,
    /// Exclusive trainer compute (gather + kernels + optimizer).
    pub train_ns: u64,
    /// Blocking edges inside the extract segment.
    pub waits: WaitTotals,
    /// Device-queue share of the ring waits (from per-completion split).
    pub io_queue_ns: u64,
    /// Device-service share of the ring waits.
    pub io_service_ns: u64,
}

impl BatchAttribution {
    /// Exclusive sampler compute: the sample segment minus its waits.
    pub fn sample_compute_ns(&self) -> u64 {
        self.sample_ns.saturating_sub(self.sample_waits.sum())
    }

    /// Exclusive extractor compute: the extract segment minus its waits.
    pub fn extract_compute_ns(&self) -> u64 {
        self.extract_ns.saturating_sub(self.waits.sum())
    }

    /// Re-sum of the decomposed parts. If wait timers overlapped (a bug),
    /// `Σwaits` exceeds its segment and this exceeds the wall.
    pub fn accounted_ns(&self) -> u64 {
        self.sample_waits
            .sum()
            .max(self.sample_ns)
            .saturating_add(self.queue_extract_ns)
            .saturating_add(self.waits.sum().max(self.extract_ns))
            .saturating_add(self.queue_train_ns)
            .saturating_add(self.train_ns)
    }

    /// Conservation residual: |wall − Σparts|, tracked as `core.attr.other`.
    pub fn residual_ns(&self) -> u64 {
        self.wall_ns.abs_diff(self.accounted_ns())
    }
}

/// Record a finished batch's residual into the `core.attr.other` histogram.
pub fn record_batch(rec: &BatchAttribution) {
    residual_hist().record(rec.residual_ns());
}

/// Which pathology an epoch-slice was bound by (paper §2: 𝔒1 vs 𝔒2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BottleneckVerdict {
    /// Memory waits dominate (governor admission, staging credits,
    /// feature-buffer slots): the run is starved by buffer/budget sizing.
    MemoryContentionBound,
    /// I/O waits dominate (ring completions, sync reads, transfers): the
    /// run is starved by device throughput or queueing.
    IoCongestionBound,
    /// Sampler/extractor/trainer compute dominates and both wait classes
    /// are small: the pipeline is overlapping I/O successfully.
    ComputeBound,
    /// No single cause clears the dominance thresholds.
    #[default]
    Balanced,
}

impl BottleneckVerdict {
    /// Stable lowercase label used in JSON artifacts and trace spans.
    pub fn label(self) -> &'static str {
        match self {
            BottleneckVerdict::MemoryContentionBound => "memory_contention_bound",
            BottleneckVerdict::IoCongestionBound => "io_congestion_bound",
            BottleneckVerdict::ComputeBound => "compute_bound",
            BottleneckVerdict::Balanced => "balanced",
        }
    }

    pub fn parse(label: &str) -> Option<BottleneckVerdict> {
        match label {
            "memory_contention_bound" => Some(BottleneckVerdict::MemoryContentionBound),
            "io_congestion_bound" => Some(BottleneckVerdict::IoCongestionBound),
            "compute_bound" => Some(BottleneckVerdict::ComputeBound),
            "balanced" => Some(BottleneckVerdict::Balanced),
            _ => None,
        }
    }
}

/// A wait class must hold at least this fraction of attributable time,
/// and lead the rival wait class by [`DOMINANCE_RATIO`], to bind the
/// verdict (DESIGN.md §10 documents the calibration).
pub const DOMINANCE_FRACTION: f64 = 0.40;
pub const DOMINANCE_RATIO: f64 = 1.5;
/// Compute binds only when it holds this fraction and both wait classes
/// stay under [`WAIT_MINOR_FRACTION`].
pub const COMPUTE_FRACTION: f64 = 0.60;
pub const WAIT_MINOR_FRACTION: f64 = 0.25;

/// Epoch-slice aggregation of [`BatchAttribution`] records: summed parts,
/// cause fractions over attributable time, and the resulting verdict.
///
/// Fractions are over *cause-attributable* time (mem waits + io waits +
/// compute), deliberately excluding queue residency (overlapped with other
/// batches' work, not a resource cost) and the residual.
#[derive(Debug, Clone, Default)]
pub struct AttributionReport {
    pub batches: u64,
    pub wall_ns: u64,
    pub sample_ns: u64,
    pub queue_ns: u64,
    pub extract_ns: u64,
    pub extract_compute_ns: u64,
    pub train_ns: u64,
    pub waits: WaitTotals,
    pub io_queue_ns: u64,
    pub io_service_ns: u64,
    pub residual_ns: u64,
    pub mem_fraction: f64,
    pub io_fraction: f64,
    pub compute_fraction: f64,
    pub residual_fraction: f64,
    pub verdict: BottleneckVerdict,
}

/// Fold per-batch records into an [`AttributionReport`] and classify.
pub fn aggregate(records: &[BatchAttribution]) -> AttributionReport {
    let mut r = AttributionReport::default();
    let mut sample_compute = 0u64;
    for rec in records {
        r.batches += 1;
        sample_compute = sample_compute.saturating_add(rec.sample_compute_ns());
        r.wall_ns = r.wall_ns.saturating_add(rec.wall_ns);
        r.sample_ns = r.sample_ns.saturating_add(rec.sample_ns);
        r.queue_ns = r
            .queue_ns
            .saturating_add(rec.queue_extract_ns)
            .saturating_add(rec.queue_train_ns);
        r.extract_ns = r.extract_ns.saturating_add(rec.extract_ns);
        r.extract_compute_ns = r
            .extract_compute_ns
            .saturating_add(rec.extract_compute_ns());
        r.train_ns = r.train_ns.saturating_add(rec.train_ns);
        r.waits.merge(&rec.sample_waits);
        r.waits.merge(&rec.waits);
        r.io_queue_ns = r.io_queue_ns.saturating_add(rec.io_queue_ns);
        r.io_service_ns = r.io_service_ns.saturating_add(rec.io_service_ns);
        r.residual_ns = r.residual_ns.saturating_add(rec.residual_ns());
    }
    let mem = r.waits.memory_ns() as f64;
    let io = r.waits.io_ns() as f64;
    let compute = (sample_compute + r.train_ns + r.extract_compute_ns) as f64;
    let denom = mem + io + compute;
    if denom > 0.0 {
        r.mem_fraction = mem / denom;
        r.io_fraction = io / denom;
        r.compute_fraction = compute / denom;
    }
    if r.wall_ns > 0 {
        r.residual_fraction = r.residual_ns as f64 / r.wall_ns as f64;
    }
    r.verdict = if r.mem_fraction >= DOMINANCE_FRACTION
        && r.mem_fraction >= DOMINANCE_RATIO * r.io_fraction
    {
        BottleneckVerdict::MemoryContentionBound
    } else if r.io_fraction >= DOMINANCE_FRACTION
        && r.io_fraction >= DOMINANCE_RATIO * r.mem_fraction
    {
        BottleneckVerdict::IoCongestionBound
    } else if r.compute_fraction >= COMPUTE_FRACTION
        && r.mem_fraction < WAIT_MINOR_FRACTION
        && r.io_fraction < WAIT_MINOR_FRACTION
    {
        BottleneckVerdict::ComputeBound
    } else {
        BottleneckVerdict::Balanced
    };
    r
}

impl AttributionReport {
    pub fn to_json(&self) -> Json {
        let mut waits = Json::obj();
        for k in WaitKind::ALL {
            waits.set(k.key(), self.waits.get(k).into());
        }
        let mut doc = Json::obj();
        doc.set("batches", self.batches.into())
            .set("wall_ns", self.wall_ns.into())
            .set("sample_ns", self.sample_ns.into())
            .set("queue_ns", self.queue_ns.into())
            .set("extract_ns", self.extract_ns.into())
            .set("extract_compute_ns", self.extract_compute_ns.into())
            .set("train_ns", self.train_ns.into())
            .set("waits", waits)
            .set("io_queue_ns", self.io_queue_ns.into())
            .set("io_service_ns", self.io_service_ns.into())
            .set("residual_ns", self.residual_ns.into())
            .set("mem_fraction", self.mem_fraction.into())
            .set("io_fraction", self.io_fraction.into())
            .set("compute_fraction", self.compute_fraction.into())
            .set("residual_fraction", self.residual_fraction.into())
            .set("verdict", self.verdict.label().into());
        doc
    }

    pub fn from_json(j: &Json) -> Option<AttributionReport> {
        let mut waits = WaitTotals::default();
        if let Some(w) = j.get("waits") {
            for k in WaitKind::ALL {
                waits.add(k, w.get(k.key()).and_then(Json::as_u64).unwrap_or(0));
            }
        }
        Some(AttributionReport {
            batches: j.get("batches")?.as_u64()?,
            wall_ns: j.get("wall_ns").and_then(Json::as_u64).unwrap_or(0),
            sample_ns: j.get("sample_ns").and_then(Json::as_u64).unwrap_or(0),
            queue_ns: j.get("queue_ns").and_then(Json::as_u64).unwrap_or(0),
            extract_ns: j.get("extract_ns").and_then(Json::as_u64).unwrap_or(0),
            extract_compute_ns: j
                .get("extract_compute_ns")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            train_ns: j.get("train_ns").and_then(Json::as_u64).unwrap_or(0),
            waits,
            io_queue_ns: j.get("io_queue_ns").and_then(Json::as_u64).unwrap_or(0),
            io_service_ns: j.get("io_service_ns").and_then(Json::as_u64).unwrap_or(0),
            residual_ns: j.get("residual_ns").and_then(Json::as_u64).unwrap_or(0),
            mem_fraction: j.get("mem_fraction").and_then(Json::as_f64).unwrap_or(0.0),
            io_fraction: j.get("io_fraction").and_then(Json::as_f64).unwrap_or(0.0),
            compute_fraction: j
                .get("compute_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            residual_fraction: j
                .get("residual_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            verdict: j
                .get("verdict")
                .and_then(Json::as_str)
                .and_then(BottleneckVerdict::parse)
                .unwrap_or_default(),
        })
    }

    /// Fold this report into a [`RunReport`]: cause fractions as scalars,
    /// the verdict as the `bottleneck_verdict` label.
    pub fn apply_to(&self, report: &mut RunReport) {
        report.add_scalar("attr.mem_fraction", self.mem_fraction);
        report.add_scalar("attr.io_fraction", self.io_fraction);
        report.add_scalar("attr.compute_fraction", self.compute_fraction);
        report.add_scalar("attr.residual_fraction", self.residual_fraction);
        report.add_scalar("attr.batches", self.batches as f64);
        report.add_label("bottleneck_verdict", self.verdict.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(waits: WaitTotals, sample: u64, train: u64, extract: u64) -> BatchAttribution {
        BatchAttribution {
            batch: 0,
            wall_ns: sample + extract + train,
            sample_ns: sample,
            sample_waits: WaitTotals::default(),
            queue_extract_ns: 0,
            extract_ns: extract,
            queue_train_ns: 0,
            train_ns: train,
            waits,
            io_queue_ns: 0,
            io_service_ns: 0,
        }
    }

    #[test]
    fn wait_timer_accumulates_into_thread_totals() {
        let _ = waits_take();
        {
            let _t = wait_timer(WaitKind::RingWait);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let totals = waits_take();
        assert!(totals.get(WaitKind::RingWait) >= 1_000_000);
        assert_eq!(totals.get(WaitKind::SlotWait), 0);
        // Second take sees a drained accumulator.
        assert_eq!(waits_take().sum(), 0);
    }

    #[test]
    fn memory_and_io_shares_partition_the_sum() {
        let mut t = WaitTotals::default();
        for (i, k) in WaitKind::ALL.iter().enumerate() {
            t.add(*k, (i as u64 + 1) * 100);
        }
        assert_eq!(t.memory_ns() + t.io_ns(), t.sum());
        assert_eq!(t.memory_ns(), 100 + 200 + 300 + 800, "page faults are 𝔒1");
    }

    #[test]
    fn conservation_residual_is_zero_for_telescoping_parts() {
        let mut w = WaitTotals::default();
        w.add(WaitKind::RingWait, 400);
        let r = rec(w, 100, 200, 1_000);
        assert_eq!(r.extract_compute_ns(), 600);
        assert_eq!(r.accounted_ns(), r.wall_ns);
        assert_eq!(r.residual_ns(), 0);
    }

    #[test]
    fn overlapping_timers_surface_as_residual() {
        // Σwaits > extract segment: double-counted time shows up as residual.
        let mut w = WaitTotals::default();
        w.add(WaitKind::RingWait, 900);
        w.add(WaitKind::StagingAcquire, 400);
        let r = rec(w, 0, 0, 1_000);
        assert_eq!(r.residual_ns(), 300);
    }

    #[test]
    fn verdict_memory_bound_when_memory_waits_dominate() {
        let mut w = WaitTotals::default();
        w.add(WaitKind::SlotWait, 8_000);
        w.add(WaitKind::RingWait, 500);
        let r = aggregate(&[rec(w, 100, 400, 9_000)]);
        assert_eq!(r.verdict, BottleneckVerdict::MemoryContentionBound);
        assert!(r.mem_fraction > 0.5, "mem={}", r.mem_fraction);
    }

    #[test]
    fn page_fault_time_leaves_sampler_compute_and_binds_the_memory_verdict() {
        let mut faults = WaitTotals::default();
        faults.add(WaitKind::PageFault, 9_000);
        let mut r = rec(WaitTotals::default(), 10_000, 400, 600);
        r.sample_waits = faults;
        assert_eq!(r.sample_compute_ns(), 1_000);
        assert_eq!(r.residual_ns(), 0, "the sample segment still telescopes");
        let a = aggregate(&[r]);
        assert_eq!(a.waits.get(WaitKind::PageFault), 9_000);
        assert_eq!(a.verdict, BottleneckVerdict::MemoryContentionBound);
        assert!(
            (a.mem_fraction - 0.818).abs() < 0.01,
            "mem={}",
            a.mem_fraction
        );
    }

    #[test]
    fn verdict_io_bound_when_io_waits_dominate() {
        let mut w = WaitTotals::default();
        w.add(WaitKind::RingWait, 6_000);
        w.add(WaitKind::SyncRead, 2_000);
        w.add(WaitKind::SlotWait, 500);
        let r = aggregate(&[rec(w, 100, 400, 9_000)]);
        assert_eq!(r.verdict, BottleneckVerdict::IoCongestionBound);
    }

    #[test]
    fn verdict_compute_bound_when_waits_are_minor() {
        let w = WaitTotals::default();
        let r = aggregate(&[rec(w, 1_000, 8_000, 1_000)]);
        assert_eq!(r.verdict, BottleneckVerdict::ComputeBound);
        assert!(r.compute_fraction > 0.99);
    }

    #[test]
    fn verdict_balanced_when_no_cause_clears_thresholds() {
        let mut w = WaitTotals::default();
        w.add(WaitKind::SlotWait, 3_000);
        w.add(WaitKind::RingWait, 2_600);
        let r = aggregate(&[rec(w, 1_000, 2_000, 6_000)]);
        assert_eq!(r.verdict, BottleneckVerdict::Balanced);
    }

    #[test]
    fn empty_aggregate_is_balanced_with_zero_fractions() {
        let r = aggregate(&[]);
        assert_eq!(r.verdict, BottleneckVerdict::Balanced);
        assert_eq!(r.batches, 0);
        assert_eq!(r.mem_fraction, 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut w = WaitTotals::default();
        w.add(WaitKind::RingWait, 5_000);
        w.add(WaitKind::SlotWait, 100);
        let r = aggregate(&[rec(w, 200, 300, 6_000)]);
        let j = r.to_json();
        let back = AttributionReport::from_json(&j).unwrap();
        assert_eq!(back.verdict, r.verdict);
        assert_eq!(back.batches, r.batches);
        assert_eq!(back.waits, r.waits);
        assert!((back.io_fraction - r.io_fraction).abs() < 1e-12);
        // Artifacts written before a wait kind existed parse with it at 0.
        let mut old = Json::obj();
        old.set("batches", 1u64.into()).set("waits", Json::obj());
        let back = AttributionReport::from_json(&old).unwrap();
        assert_eq!(back.waits.get(WaitKind::PageFault), 0);
    }

    #[test]
    fn verdict_labels_round_trip() {
        for v in [
            BottleneckVerdict::MemoryContentionBound,
            BottleneckVerdict::IoCongestionBound,
            BottleneckVerdict::ComputeBound,
            BottleneckVerdict::Balanced,
        ] {
            assert_eq!(BottleneckVerdict::parse(v.label()), Some(v));
        }
        assert_eq!(BottleneckVerdict::parse("nope"), None);
    }
}
