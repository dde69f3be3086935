//! Interval sampler turning counter deltas into utilization time series.

use crate::registry::{gpu_count, origin, snapshot, Totals};
use crate::{State, ThreadClass};
use gnndrive_sync::{LockRank, OrderedMutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One point of the utilization series (the paper's Figs 3 & 11 panels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Seconds since telemetry origin (experiment start).
    pub t_secs: f64,
    /// Fraction of CPU-thread time spent computing during the interval.
    pub cpu_util: f64,
    /// Fraction of GPU capacity busy during the interval
    /// (compute-time / (interval × number of simulated GPUs)).
    pub gpu_util: f64,
    /// Fraction of CPU-thread time spent blocked on I/O during the interval.
    pub io_wait: f64,
}

fn ratios(delta: &Totals, wall_nanos: u64) -> (f64, f64, f64) {
    let cpu = delta.class(ThreadClass::Cpu);
    let gpu = delta.class(ThreadClass::Gpu);
    let cpu_total = cpu.total_nanos().max(1) as f64;
    let gpu_capacity = (wall_nanos as f64) * gpu_count().max(1) as f64;
    (
        cpu.nanos(State::Compute) as f64 / cpu_total,
        (gpu.nanos(State::Compute) as f64 / gpu_capacity.max(1.0)).min(1.0),
        cpu.nanos(State::IoWait) as f64 / cpu_total,
    )
}

/// Background sampler. Construct with [`Monitor::start`], stop with
/// [`Monitor::stop`] to retrieve the recorded series.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    series: Arc<OrderedMutex<Vec<SeriesPoint>>>,
    handle: Option<JoinHandle<()>>,
}

impl Monitor {
    /// Start sampling every `interval`.
    pub fn start(interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let series = Arc::new(OrderedMutex::new(LockRank::Telemetry, Vec::new()));
        let stop2 = Arc::clone(&stop);
        let series2 = Arc::clone(&series);
        let start = origin();
        let handle = std::thread::Builder::new()
            .name("telemetry-monitor".into())
            .spawn(move || {
                let mut prev = snapshot();
                let mut prev_t = std::time::Instant::now();
                loop {
                    // Sleep up to `interval`, waking early on stop so short
                    // runs still flush their partial tail interval below.
                    let slice = interval
                        .min(Duration::from_millis(2))
                        .max(Duration::from_micros(100));
                    let deadline = std::time::Instant::now() + interval;
                    let mut stopping = stop2.load(Ordering::Acquire);
                    while !stopping && std::time::Instant::now() < deadline {
                        std::thread::sleep(slice);
                        stopping = stop2.load(Ordering::Acquire);
                    }
                    let now = snapshot();
                    let wall = prev_t.elapsed();
                    prev_t = std::time::Instant::now();
                    let delta = now.delta_since(&prev);
                    prev = now;
                    if !wall.is_zero() {
                        let (cpu_util, gpu_util, io_wait) = ratios(&delta, wall.as_nanos() as u64);
                        series2.lock().push(SeriesPoint {
                            t_secs: start.elapsed().as_secs_f64(),
                            cpu_util,
                            gpu_util,
                            io_wait,
                        });
                    }
                    if stopping {
                        break;
                    }
                }
            })
            .expect("spawn telemetry monitor");
        Monitor {
            stop,
            series,
            handle: Some(handle),
        }
    }

    /// Stop the sampler and return the recorded series.
    pub fn stop(mut self) -> Vec<SeriesPoint> {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        std::mem::take(&mut *self.series.lock())
    }

    /// Aggregate ratios over a whole run: `(cpu_util, gpu_util, io_wait)`
    /// from the delta between two snapshots spanning `wall` time.
    pub fn summarize(before: &Totals, after: &Totals, wall: Duration) -> (f64, f64, f64) {
        ratios(&after.delta_since(before), wall.as_nanos() as u64)
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{register_thread, reset, set_gpu_count, state, state_as, TEST_GATE};

    #[test]
    fn monitor_records_busy_and_idle_phases() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        let monitor = Monitor::start(Duration::from_millis(10));
        {
            let _g = state(State::IoWait);
            std::thread::sleep(Duration::from_millis(40));
        }
        let series = monitor.stop();
        assert!(!series.is_empty());
        let max_iowait = series.iter().map(|p| p.io_wait).fold(0.0, f64::max);
        assert!(
            max_iowait > 0.5,
            "expected an interval dominated by iowait, max was {max_iowait}"
        );
    }

    #[test]
    fn stop_flushes_partial_tail_interval() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        // Interval far longer than the run: the only point the series can
        // contain is the partial tail flushed at shutdown.
        let monitor = Monitor::start(Duration::from_secs(60));
        {
            let _g = state(State::IoWait);
            std::thread::sleep(Duration::from_millis(30));
        }
        let series = monitor.stop();
        assert!(!series.is_empty(), "tail interval lost on stop");
        assert!(
            series.last().unwrap().io_wait > 0.3,
            "tail point should reflect the stalled run: {series:?}"
        );
    }

    #[test]
    fn summarize_splits_compute_and_io() {
        let _gate = TEST_GATE.lock();
        reset();
        register_thread(ThreadClass::Cpu);
        let before = snapshot();
        let t0 = std::time::Instant::now();
        {
            let _g = state(State::Compute);
            std::thread::sleep(Duration::from_millis(10));
        }
        {
            let _g = state(State::IoWait);
            std::thread::sleep(Duration::from_millis(10));
        }
        let after = snapshot();
        let (cpu, _gpu, iow) = Monitor::summarize(&before, &after, t0.elapsed());
        assert!(cpu > 0.2 && cpu < 0.8, "cpu={cpu}");
        assert!(iow > 0.2 && iow < 0.8, "iow={iow}");
    }

    #[test]
    fn gpu_kernel_time_counts_against_gpu_capacity() {
        let _gate = TEST_GATE.lock();
        reset();
        set_gpu_count(1);
        register_thread(ThreadClass::Cpu);
        let before = snapshot();
        let t0 = std::time::Instant::now();
        {
            let _g = state_as(ThreadClass::Gpu, State::Compute);
            std::thread::sleep(Duration::from_millis(20));
        }
        std::thread::sleep(Duration::from_millis(20));
        let after = snapshot();
        let (_cpu, gpu, _iow) = Monitor::summarize(&before, &after, t0.elapsed());
        assert!(gpu > 0.25 && gpu < 0.75, "gpu={gpu}");
    }

    #[test]
    fn blocked_thread_is_visible_mid_stall() {
        // A thread parked in IoWait must show up in a snapshot taken by
        // *another* thread before the stall ends.
        let _gate = TEST_GATE.lock();
        reset();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            register_thread(ThreadClass::Cpu);
            let _g = state(State::IoWait);
            while !f2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let totals = snapshot();
        let iow = totals.class(ThreadClass::Cpu).nanos(State::IoWait);
        flag.store(true, Ordering::Relaxed);
        h.join().unwrap();
        assert!(iow >= 15_000_000, "mid-stall iowait invisible: {iow}ns");
    }
}
