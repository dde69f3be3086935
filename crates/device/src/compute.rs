//! Device compute model: real math, modeled duration.
//!
//! Kernels execute the actual f32 math on the host (training results are
//! exact), then pad the elapsed wall time up to `launch_overhead +
//! flops / rate`. The padding is what makes a simulated K80 slower than a
//! simulated 3090, and a CPU slower than both, while the time is attributed
//! to the right telemetry class so GPU utilization reads correctly.

use gnndrive_telemetry::{self as telemetry, catalog, State, ThreadClass};
use std::time::{Duration, Instant};

/// A rate-based kernel-execution model.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    name: &'static str,
    class: ThreadClass,
    flops_per_sec: f64,
    launch_overhead: Duration,
}

impl ComputeModel {
    pub fn new(
        name: &'static str,
        class: ThreadClass,
        flops_per_sec: f64,
        launch_overhead: Duration,
    ) -> Self {
        assert!(flops_per_sec > 0.0);
        ComputeModel {
            name,
            class,
            flops_per_sec,
            launch_overhead,
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn flops_per_sec(&self) -> f64 {
        self.flops_per_sec
    }

    /// Execute `f` as a kernel of `flops` floating-point operations.
    ///
    /// Runs the closure, then sleeps any remaining modeled time. If the
    /// real math is slower than the model, the real time stands (we cannot
    /// compute faster than the host).
    pub fn run<T>(&self, flops: u64, f: impl FnOnce() -> T) -> T {
        let _g = telemetry::state_as(self.class, State::Compute);
        let t0 = Instant::now();
        let out = f();
        let modeled =
            self.launch_overhead + Duration::from_secs_f64(flops as f64 / self.flops_per_sec);
        let elapsed = t0.elapsed();
        if modeled > elapsed {
            std::thread::sleep(modeled - elapsed);
        }
        catalog::DEVICE_COMPUTE_KERNELS.inc();
        catalog::DEVICE_COMPUTE_KERNEL.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// The modeled duration of `flops` without running anything (used by
    /// tests and capacity planning).
    pub fn modeled(&self, flops: u64) -> Duration {
        self.launch_overhead + Duration::from_secs_f64(flops as f64 / self.flops_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_to_modeled_duration() {
        let slow = ComputeModel::new("slow", ThreadClass::Gpu, 1e6, Duration::ZERO);
        let t0 = Instant::now();
        let v = slow.run(10_000, || 42); // modeled 10 ms
        assert_eq!(v, 42);
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn fast_model_does_not_slow_real_work() {
        let fast = ComputeModel::new("fast", ThreadClass::Gpu, 1e15, Duration::ZERO);
        let t0 = Instant::now();
        fast.run(1000, || std::thread::sleep(Duration::from_millis(5)));
        let e = t0.elapsed();
        assert!(e >= Duration::from_millis(5) && e < Duration::from_millis(50));
    }

    #[test]
    fn attributes_kernel_time_to_class() {
        telemetry::reset();
        telemetry::register_thread(ThreadClass::Cpu);
        let gpu = ComputeModel::new("g", ThreadClass::Gpu, 1e6, Duration::ZERO);
        gpu.run(5_000, || ());
        let totals = telemetry::snapshot();
        assert!(
            totals.class(ThreadClass::Gpu).nanos(State::Compute) >= 4_000_000,
            "kernel time not attributed to GPU"
        );
    }
}
