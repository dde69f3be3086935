//! Simulated training devices (GPU and CPU) for the GNNDrive reproduction.
//!
//! The paper trains on NVIDIA GPUs (RTX 3090 on the main machine, Tesla K80
//! on the multi-GPU machine) and also supports a CPU-only architecture
//! (§4.4). This container has no GPU, so the device is simulated along the
//! three axes the experiments depend on:
//!
//! * **device memory** ([`DeviceMemory`]) — a capacity-accounted pool;
//!   exceeding it is the paper's GPU OOM. GNNDrive bounds its training-queue
//!   depth by exactly this capacity;
//! * **host→device transfer** ([`TransferEngine`]) — a PCIe-like link
//!   (latency/bandwidth) on which GNNDrive's second extraction phase
//!   (staging buffer → feature buffer) books each copy: the link returns
//!   when the copy lands, and the extractor moves the bytes itself — no
//!   thread of its own;
//! * **compute** ([`ComputeModel`]) — kernels run the *real* f32 math on the
//!   host (so learning dynamics are exact), then pad elapsed time up to
//!   `flops / rate`, so a "K80" is measurably slower than a "3090" and a
//!   CPU is measurably slower than either, with kernel time attributed to
//!   the right telemetry class.
//!
//! [`FeatureSlab`] is the slot-structured feature-buffer storage shared by
//! all of the above (it lives in "device memory" for GPU training and in
//! host memory for CPU training).

pub mod compute;
pub mod memory;
pub mod slab;
pub mod transfer;

pub use compute::ComputeModel;
pub use memory::{DeviceAlloc, DeviceMemory, DeviceOom};
pub use slab::{FeatureSlab, GatherResult};
pub use transfer::{TransferEngine, TransferProfile, WindowCopy};

use gnndrive_telemetry::ThreadClass;
use std::sync::Arc;
use std::time::Duration;

/// A complete simulated accelerator.
pub struct GpuDevice {
    pub name: &'static str,
    pub memory: Arc<DeviceMemory>,
    pub transfer: Arc<TransferEngine>,
    pub compute: ComputeModel,
}

impl GpuDevice {
    /// RTX 3090-like device at reproduction scale: 24 GB → 240 MiB device
    /// memory. Device memory scales by ÷100, not the dataset's ÷1000,
    /// because mini-batch neighborhoods shrink far less than the graph
    /// (per-seed fanout expansion is scale-invariant); see DESIGN.md.
    pub fn rtx3090() -> Arc<Self> {
        Arc::new(GpuDevice {
            name: "rtx3090-sim",
            memory: DeviceMemory::new(240 * 1024 * 1024),
            transfer: TransferEngine::new(TransferProfile::pcie3_x16()),
            compute: ComputeModel::new(
                "rtx3090-sim",
                ThreadClass::Gpu,
                1.2e9,
                Duration::from_micros(30),
            ),
        })
    }

    /// Tesla K80-like device (the paper's scalability machine): 12 GB →
    /// 120 MiB device memory (÷100 scale) and roughly 6× less compute
    /// than the 3090.
    pub fn k80() -> Arc<Self> {
        Arc::new(GpuDevice {
            name: "k80-sim",
            memory: DeviceMemory::new(120 * 1024 * 1024),
            transfer: TransferEngine::new(TransferProfile::pcie3_x16()),
            compute: ComputeModel::new(
                "k80-sim",
                ThreadClass::Gpu,
                0.3e9,
                Duration::from_micros(45),
            ),
        })
    }

    /// The host CPU as a "device": unbounded memory pool (host memory is
    /// governed separately), a free transfer link, and a compute
    /// rate ~8× below the 3090 (the gap behind the paper's CPU-vs-GPU GAT
    /// results).
    pub fn cpu() -> Arc<Self> {
        Arc::new(GpuDevice {
            name: "cpu",
            memory: DeviceMemory::new(u64::MAX / 2),
            transfer: TransferEngine::new(TransferProfile::host_memcpy()),
            compute: ComputeModel::new("cpu", ThreadClass::Cpu, 0.2e9, Duration::ZERO),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_relative_rates() {
        let g = GpuDevice::rtx3090();
        let k = GpuDevice::k80();
        let c = GpuDevice::cpu();
        assert!(g.compute.flops_per_sec() >= 3.0 * k.compute.flops_per_sec());
        assert!(g.compute.flops_per_sec() >= 3.0 * c.compute.flops_per_sec());
        assert!(g.memory.capacity() > k.memory.capacity());
    }
}
