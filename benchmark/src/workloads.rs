//! The five named workloads. Each one exists to expose one layer (see the
//! `why` lines, which also go into `BENCHMARK.json`); the rest of the
//! configuration is shared so that a difference between two workloads is a
//! difference in exactly the stated knob.

use gnndrive::prelude::MiniDataset;

/// Seeds per training mini-batch (the repository's scaled-down default).
pub const BATCH_SIZE: usize = 32;

/// Which simulated SSD the dataset sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ssd {
    /// `SsdProfile::pm883_repro()`: wall time includes modeled device time.
    Modeled,
    /// `SsdProfile::instant()`: wall time is host CPU only.
    Instant,
}

/// Which simulated accelerator trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// `GpuDevice::rtx3090()`: kernels are padded to the modeled rate and
    /// transfers pay modeled PCIe time.
    Modeled,
    /// A harness-built device with an effectively infinite compute rate and
    /// free transfers: wall time is the f32 math the host really does.
    HostRate,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists / what shows on it.
    pub why: &'static str,
    pub dataset: MiniDataset,
    pub hidden: usize,
    pub fanouts: &'static [usize],
    pub ssd: Ssd,
    pub device: Device,
    /// Host-memory budget in MiB (`None` = unlimited).
    pub budget_mib: Option<u64>,
    /// Mini-batches per measured epoch; one epoch is one throughput sample.
    pub epoch_batches: usize,
    /// Mini-batches of the warm-up epoch (charged to `setup_s`).
    pub warmup_batches: usize,
    /// `true`: the serving tier runs beside the trainer for the whole
    /// window. `false`: training first, then a short solo serving probe.
    pub colocated: bool,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "io_bound",
        why: "Paper default point: extractors queue on the modeled SSD, so fewer, larger or better-scheduled reads and more feature-buffer reuse show here; kernel speed-ups do not.",
        dataset: MiniDataset::Papers100M,
        hidden: 16,
        fanouts: &[4, 4, 4],
        ssd: Ssd::Modeled,
        device: Device::Modeled,
        budget_mib: Some(32),
        epoch_batches: 32,
        warmup_batches: 16,
        colocated: false,
    },
    Workload {
        name: "mem_tight",
        why: "io_bound under a 6 MiB host budget (the topology alone is 6 MB): samplers fault through the page cache, so cache policy, locking and governor work shows here and nowhere else.",
        dataset: MiniDataset::Papers100M,
        hidden: 16,
        fanouts: &[4, 4, 4],
        ssd: Ssd::Modeled,
        device: Device::Modeled,
        budget_mib: Some(6),
        epoch_batches: 16,
        warmup_batches: 8,
        colocated: false,
    },
    Workload {
        name: "host_extract",
        why: "Instant SSD and host-rate device: wall time is the extract path's own CPU (CRC, row decode, per-row allocation, ring and channel set-up); storage scheduling tricks must not move it.",
        dataset: MiniDataset::Papers100M,
        hidden: 16,
        fanouts: &[4, 4, 4],
        ssd: Ssd::Instant,
        device: Device::HostRate,
        budget_mib: None,
        epoch_batches: 128,
        warmup_batches: 32,
        colocated: false,
    },
    Workload {
        name: "host_compute",
        why: "Wide model on an instant SSD and host-rate device: real f32 math in nn/tensor dominates, so kernel work shows here while storage and feature-buffer changes must leave it flat.",
        dataset: MiniDataset::Twitter,
        hidden: 1024,
        fanouts: &[4, 4],
        ssd: Ssd::Instant,
        device: Device::HostRate,
        budget_mib: None,
        epoch_batches: 24,
        warmup_batches: 12,
        colocated: false,
    },
    Workload {
        name: "serve_mixed",
        why: "io_bound stack shared by a looping trainer and an open-loop 100 req/s server: serve-lane latency beside bulk reads, so a bulk gain bought with deeper queues shows as worse serve_p90_ms.",
        dataset: MiniDataset::Papers100M,
        hidden: 16,
        fanouts: &[4, 4, 4],
        ssd: Ssd::Modeled,
        device: Device::Modeled,
        budget_mib: Some(32),
        epoch_batches: 32,
        warmup_batches: 16,
        colocated: true,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Worst-case distinct input nodes of one mini-batch (`Mb` in the
    /// paper's `Ne × Mb` reservation). Every layer keeps its destinations
    /// as sources and adds up to `fanout` neighbours each, so the bound is
    /// `batch × Π(1 + fanout)`.
    pub fn worst_case_batch_nodes(&self) -> usize {
        BATCH_SIZE * self.fanouts.iter().map(|f| 1 + f).product::<usize>()
    }

    /// Feature-buffer slots: room for eight worst-case batches. The
    /// pipeline pins up to seven at once (two in extraction, four queued
    /// for training, one training), so the `Ne × Mb` floor the repository's
    /// own harness uses runs dry at full dataset scale.
    pub fn feature_buffer_slots(&self) -> usize {
        (8 * self.worst_case_batch_nodes()).next_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::valid_name;

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.epoch_batches > 0 && w.warmup_batches > 0);
        }
        assert!(find("io_bound").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn feature_buffer_covers_the_pinned_batches() {
        let w = find("io_bound").expect("io_bound");
        assert_eq!(w.worst_case_batch_nodes(), 32 * 125);
        assert!(w.feature_buffer_slots() >= 7 * w.worst_case_batch_nodes());
    }
}
