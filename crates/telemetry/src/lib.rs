//! Thread-state telemetry for the GNNDrive reproduction.
//!
//! The paper's Figures 3 and 11 plot, over a window of three training epochs,
//! the CPU utilization, GPU utilization, and the ratio of time spent waiting
//! on I/O. This crate provides the measurement substrate: every worker thread
//! registers itself under a [`ThreadClass`], then brackets its activity with
//! [`StateGuard`]s. A [`Monitor`] samples the accumulated per-class,
//! per-state busy time at a fixed interval and turns the deltas into
//! utilization ratios.
//!
//! The accounting is real: a thread blocked inside the storage stack really
//! is parked, and the nanoseconds it spends parked are attributed to
//! [`State::IoWait`]. Nothing here is modeled — the model lives in the
//! storage and device crates; telemetry only observes.

pub mod attribution;
pub mod catalog;
pub mod crash;
mod histogram;
pub mod json;
pub mod metrics;
mod monitor;
pub mod persist;
mod registry;
mod report;
mod trace;

pub use attribution::{
    aggregate as aggregate_attribution, record_batch as record_batch_attribution, wait_timer,
    waits_take, AttributionReport, BatchAttribution, BottleneckVerdict, WaitKind, WaitTimer,
    WaitTotals,
};
pub use crash::CrashCut;
pub use histogram::Histogram;
pub use json::Json;
pub use metrics::{
    reset_metrics, snapshot_metrics, Counter, Gauge, HistSummary, HistogramHandle, MetricValue,
    MetricsSnapshot,
};
pub use monitor::{Monitor, SeriesPoint};
pub use persist::{atomic_write_file, StagedFile};
pub use registry::{
    register_thread, reset, set_gpu_count, snapshot, state, state_as, ClassTotals, StateGuard,
    Totals,
};
pub use report::{ParsedReport, RunReport};
pub use trace::{
    export_chrome_trace, record_span, span, span_cat, trace_disable, trace_enable, trace_enabled,
    trace_take, SpanGuard, TraceSpan,
};

/// The kind of execution resource a thread stands in for.
///
/// In the paper's testbed, sampling/extraction/training-driver threads run on
/// the CPU while CUDA kernels run on the GPU. In this reproduction the
/// "GPU" is a simulated device whose compute worker registers as
/// [`ThreadClass::Gpu`]; its busy fraction is reported as GPU utilization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadClass {
    /// Host CPU worker (samplers, extractors, releasers, loaders, ...).
    Cpu,
    /// Simulated accelerator compute worker.
    Gpu,
}

/// What a registered thread is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum State {
    /// Parked or between tasks.
    Idle,
    /// Doing useful work (sampling, math, cache management, ...).
    Compute,
    /// Blocked waiting for a storage-device or transfer completion.
    IoWait,
}

impl State {
    pub(crate) const COUNT: usize = 3;

    pub(crate) fn index(self) -> usize {
        match self {
            State::Idle => 0,
            State::Compute => 1,
            State::IoWait => 2,
        }
    }
}

impl ThreadClass {
    pub(crate) const COUNT: usize = 2;

    pub(crate) fn index(self) -> usize {
        match self {
            ThreadClass::Cpu => 0,
            ThreadClass::Gpu => 1,
        }
    }
}

/// Telemetry state is process-global: every unit test that resets,
/// snapshots or asserts on it (thread-state totals, the metrics registry,
/// the trace collector, the crash-point schedule) serializes on this gate.
#[cfg(test)]
pub(crate) static TEST_GATE: gnndrive_sync::OrderedMutex<()> =
    gnndrive_sync::OrderedMutex::new(gnndrive_sync::LockRank::Sync, ());

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn states_have_distinct_indices() {
        assert_ne!(State::Idle.index(), State::Compute.index());
        assert_ne!(State::Compute.index(), State::IoWait.index());
    }

    #[test]
    fn guard_accumulates_compute_time() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        {
            let _g = state(State::Compute);
            std::thread::sleep(Duration::from_millis(5));
        }
        let totals = snapshot();
        let cpu = totals.class(ThreadClass::Cpu);
        assert!(
            cpu.nanos(State::Compute) >= 4_000_000,
            "expected >=4ms compute, got {}ns",
            cpu.nanos(State::Compute)
        );
    }

    #[test]
    fn snapshot_includes_in_progress_interval() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        let _g = state(State::Compute);
        std::thread::sleep(Duration::from_millis(5));
        // No transition since entering Compute; snapshot must still see it.
        let totals = snapshot();
        assert!(totals.class(ThreadClass::Cpu).nanos(State::Compute) >= 4_000_000);
    }

    #[test]
    fn nested_guards_restore_previous_state() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        let _outer = state(State::Compute);
        {
            let _inner = state(State::IoWait);
            std::thread::sleep(Duration::from_millis(3));
        }
        std::thread::sleep(Duration::from_millis(3));
        let totals = snapshot();
        let cpu = totals.class(ThreadClass::Cpu);
        assert!(cpu.nanos(State::IoWait) >= 2_000_000);
        assert!(cpu.nanos(State::Compute) >= 2_000_000);
    }
}
