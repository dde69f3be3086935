//! Building a workload's dataset, shared storage stack and pipelines from
//! public library constructors. Everything random hangs off `--seed`.

use crate::workloads::{Device, Ssd, Workload, BATCH_SIZE};
use gnndrive::device::{ComputeModel, DeviceMemory, TransferEngine, TransferProfile};
use gnndrive::prelude::*;
use gnndrive::telemetry::ThreadClass;
use std::sync::Arc;
use std::time::Duration;

/// Independent seed streams derived from the one `--seed` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    pub dataset: u64,
    pub trainer: u64,
    pub server: u64,
    pub loadgen: u64,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        let mut s = seed;
        Seeds {
            dataset: splitmix64(&mut s),
            trainer: splitmix64(&mut s),
            server: splitmix64(&mut s),
            loadgen: splitmix64(&mut s),
        }
    }
}

/// Generate the workload's graph and install it on a fresh simulated SSD.
pub fn build_dataset(w: &Workload, seeds: &Seeds) -> Arc<Dataset> {
    let mut spec = w.dataset.spec();
    spec.seed = seeds.dataset;
    let profile = match w.ssd {
        Ssd::Modeled => SsdProfile::pm883_repro(),
        Ssd::Instant => SsdProfile::instant(),
    };
    Arc::new(Dataset::build(spec, SimSsd::new(profile)))
}

pub fn device(w: &Workload) -> Arc<GpuDevice> {
    match w.device {
        Device::Modeled => GpuDevice::rtx3090(),
        // Public-field construction: a "device" that never pads a kernel
        // and never charges a transfer, so the trainer's wall time is the
        // host's own arithmetic.
        Device::HostRate => Arc::new(GpuDevice {
            name: "host-rate",
            memory: DeviceMemory::new(u64::MAX / 2),
            transfer: TransferEngine::new(TransferProfile::host_memcpy()),
            compute: ComputeModel::new("host-rate", ThreadClass::Cpu, 1e15, Duration::ZERO),
        }),
    }
}

/// What a trainer and a server co-located on one workload share: the
/// dataset (hence the SSD), the host-memory governor and the page cache.
pub struct SharedStack {
    pub ds: Arc<Dataset>,
    pub config: StackConfig,
    pub governor: Arc<MemoryGovernor>,
    pub cache: Arc<PageCache>,
}

impl SharedStack {
    pub fn new(w: &Workload, ds: Arc<Dataset>) -> SharedStack {
        let config = StackConfig::default()
            .with_memory_budget(w.budget_mib.map(|m| m << 20))
            .with_fanouts(w.fanouts.to_vec())
            .with_batch_size(BATCH_SIZE);
        let governor = config.governor();
        let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&governor));
        SharedStack {
            ds,
            config,
            governor,
            cache,
        }
    }

    /// Staging bytes per extractor: small by design (paper §4.2), and
    /// shrinking with the budget exactly like the repository's harness.
    fn staging_bytes(w: &Workload) -> u64 {
        match w.budget_mib {
            Some(m) => ((m << 20) / 32).clamp(64 << 10, 1 << 20),
            None => 1 << 20,
        }
    }

    /// Pipeline tunables for `nproc = 2`: two samplers, two extractors.
    pub fn trainer_config(w: &Workload, seed: u64) -> GnnDriveConfig {
        GnnDriveConfig {
            num_samplers: 2,
            num_extractors: 2,
            feature_buffer_slots: w.feature_buffer_slots(),
            staging_bytes_per_extractor: Self::staging_bytes(w),
            seed,
            ..Default::default()
        }
    }

    fn pipeline(
        &self,
        w: &Workload,
        cfg: GnnDriveConfig,
        stack: &StackConfig,
    ) -> Result<Pipeline, String> {
        Pipeline::builder(Arc::clone(&self.ds), device(w))
            .with_model(ModelKind::GraphSage, w.hidden)
            .with_config(cfg)
            .with_stack(stack)
            .with_governor(Arc::clone(&self.governor))
            .with_page_cache(Arc::clone(&self.cache))
            .build()
            .map_err(|e| format!("{}: pipeline build failed: {e}", w.name))
    }

    pub fn build_trainer(&self, w: &Workload, seeds: &Seeds) -> Result<Pipeline, String> {
        self.pipeline(w, Self::trainer_config(w, seeds.trainer), &self.config)
    }

    /// The serving pipeline: one sampler, one extractor, circuit breaker
    /// armed — the configuration the repository's serving scenario runs.
    pub fn build_server_pipeline(&self, w: &Workload, seeds: &Seeds) -> Result<Pipeline, String> {
        let cfg = GnnDriveConfig {
            num_samplers: 1,
            num_extractors: 1,
            feature_buffer_slots: w.feature_buffer_slots() / 4,
            staging_bytes_per_extractor: Self::staging_bytes(w).min(256 << 10),
            seed: seeds.server,
            ..Default::default()
        };
        let stack = self.config.clone().with_health(HealthConfig::enabled());
        self.pipeline(w, cfg, &stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_streams_are_deterministic_and_distinct() {
        let a = Seeds::derive(1);
        assert_eq!(a, Seeds::derive(1));
        assert_ne!(a, Seeds::derive(2));
        let all = [a.dataset, a.trainer, a.server, a.loadgen];
        for (i, x) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|y| y != x));
        }
    }
}
