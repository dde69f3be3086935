//! GNNDrive configuration.

use gnndrive_storage::{HealthConfig, MemoryGovernor, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

/// Extracting-queue capacity (paper default: 6): the uncharged part of the
/// epoch's announce horizon. Samplers may always hold this many sampled
/// batches that no extractor has pinned yet; past it, each further one is
/// charged to the host memory governor, and a sampler whose charge is
/// refused waits as at a full queue (DESIGN.md §4 item 10).
pub const EXTRACT_QUEUE_CAP: usize = 6;

/// Training-queue capacity (paper default: 4; restricted by device memory
/// to avoid OOM during training).
pub const TRAIN_QUEUE_CAP: usize = 4;

/// Tunables of a GNNDrive pipeline. Defaults follow the paper's evaluation
/// setup (§5 "Baselines"): four samplers, four extractors and one trainer,
/// which also releases each batch it trains; the queue capacities are
/// [`EXTRACT_QUEUE_CAP`] and [`TRAIN_QUEUE_CAP`].
#[derive(Debug, Clone)]
pub struct GnnDriveConfig {
    /// Sampler thread-pool size (paper default: 4).
    pub num_samplers: usize,
    /// Extractor thread-pool size (paper default: 4). Also bounds the
    /// staging buffer: its size is `num_extractors × per-extractor quota`.
    pub num_extractors: usize,
    /// Feature-buffer capacity in slots (one feature row each). Must hold
    /// at least `Ne × Mb` rows (deadlock reservation, §4.2).
    pub feature_buffer_slots: usize,
    /// Host staging-buffer quota per extractor, in bytes.
    pub staging_bytes_per_extractor: u64,
    /// Per-layer sampling fanouts (paper: (10,10,10), GAT (10,10,5)).
    pub fanouts: Vec<usize>,
    /// Seeds per mini-batch (paper default 1000; scaled here).
    pub batch_size: usize,
    /// Use direct I/O for feature loads (paper's default; `false` is the
    /// buffered ablation of Appendix B).
    pub direct_io: bool,
    /// Allow out-of-order mini-batch flow between stages (§4.3). Disabling
    /// it forces the trainer to consume batches in submission order (the
    /// ablation for the reordering design choice).
    pub reorder: bool,
    /// io_uring submission-queue depth per extractor.
    pub ring_depth: usize,
    /// Upper bound for coalesced joint-extraction reads (§4.4).
    pub max_joint_read_bytes: usize,
    /// GPUDirect-Storage mode (paper §4.4 "GPU Direct Access", listed as
    /// future work): loads go straight from SSD to the device-resident
    /// feature buffer with no host staging hop, but at GDS's 4 KiB access
    /// granularity — more redundant bytes per row.
    pub gpu_direct: bool,
    /// Ablation: run the extraction loop with one read in flight and the
    /// host→device copies paid inline (the baselines' behaviour) instead of
    /// a deep ring and copies booked on the transfer link. Isolates the
    /// contribution of §4.2; a Degraded device gets the same setting
    /// (DESIGN.md §9).
    pub sync_extract: bool,
    /// RNG seed for sampling.
    pub seed: u64,
    /// Fault-recovery policy for storage reads: attempt budget, exponential
    /// backoff, and the per-wait deadline on the async ring. Shared by the
    /// extractors and (via the builder) the page cache.
    pub retry: RetryPolicy,
    /// Device-health management: the sliding error-rate window and circuit
    /// breaker that routes extraction off the async ring when the device
    /// degrades and fails batches fast when it trips. Disabled by default
    /// ([`HealthConfig::default`]); opt in with [`HealthConfig::enabled`].
    pub health: HealthConfig,
    /// Safety valve: if an extractor waits longer than this for a standby
    /// slot, the feature buffer is undersized for the workload — fail loud
    /// rather than deadlock silently.
    pub slot_wait_timeout: Duration,
}

impl Default for GnnDriveConfig {
    fn default() -> Self {
        GnnDriveConfig {
            num_samplers: 4,
            num_extractors: 4,
            feature_buffer_slots: 64 * 1024,
            staging_bytes_per_extractor: 8 * 1024 * 1024,
            fanouts: vec![10, 10, 10],
            batch_size: 100,
            direct_io: true,
            reorder: true,
            gpu_direct: false,
            sync_extract: false,
            ring_depth: 64,
            max_joint_read_bytes: 16 * 1024,
            seed: 7,
            retry: RetryPolicy::default(),
            health: HealthConfig::default(),
            slot_wait_timeout: Duration::from_secs(20),
        }
    }
}

impl GnnDriveConfig {
    /// Feature-buffer payload bytes for dimension `dim`.
    pub fn feature_buffer_bytes(&self, dim: usize) -> u64 {
        (self.feature_buffer_slots * dim * 4) as u64
    }

    /// Total staging-buffer bytes.
    pub fn staging_bytes(&self) -> u64 {
        self.staging_bytes_per_extractor * self.num_extractors as u64
    }
}

/// The knobs every consumer of the storage stack shares — training
/// pipelines ([`PipelineBuilder`](crate::PipelineBuilder)), bench
/// scenarios, and the serving tier all sit on the same governor-metered,
/// health-managed device, so they configure it through one struct instead
/// of three drifting copies.
///
/// A `StackConfig` is *folded into* the consumer-specific config:
/// [`StackConfig::apply_to`] overlays the shared fields onto a
/// [`GnnDriveConfig`], and [`StackConfig::governor`] builds the memory
/// governor the budget describes.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Host-memory budget in bytes; `None` means unlimited.
    pub memory_budget: Option<u64>,
    /// Per-layer sampling fanouts shared by training and serving.
    pub fanouts: Vec<usize>,
    /// Seeds per training mini-batch (serving coalesces its own batches).
    pub batch_size: usize,
    /// Direct I/O for feature loads (the paper's default).
    pub direct_io: bool,
    /// Fault-recovery policy for storage reads.
    pub retry: RetryPolicy,
    /// Device-health circuit-breaker configuration.
    pub health: HealthConfig,
}

impl Default for StackConfig {
    fn default() -> Self {
        let base = GnnDriveConfig::default();
        StackConfig {
            memory_budget: None,
            fanouts: base.fanouts,
            batch_size: base.batch_size,
            direct_io: base.direct_io,
            retry: base.retry,
            health: base.health,
        }
    }
}

impl StackConfig {
    /// Host-memory budget in bytes (`None` = unlimited).
    pub fn with_memory_budget(mut self, bytes: impl Into<Option<u64>>) -> Self {
        self.memory_budget = bytes.into();
        self
    }

    /// Per-layer sampling fanouts.
    pub fn with_fanouts(mut self, fanouts: Vec<usize>) -> Self {
        self.fanouts = fanouts;
        self
    }

    /// Seeds per training mini-batch.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Direct (`true`) or buffered (`false`) feature I/O.
    pub fn with_direct_io(mut self, direct: bool) -> Self {
        self.direct_io = direct;
        self
    }

    /// Device-health management configuration.
    pub fn with_health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Overlay the shared knobs onto a pipeline config.
    pub fn apply_to(&self, mut cfg: GnnDriveConfig) -> GnnDriveConfig {
        cfg.fanouts = self.fanouts.clone();
        cfg.batch_size = self.batch_size;
        cfg.direct_io = self.direct_io;
        cfg.retry = self.retry;
        cfg.health = self.health.clone();
        cfg
    }

    /// Build the memory governor the budget describes.
    pub fn governor(&self) -> Arc<MemoryGovernor> {
        match self.memory_budget {
            Some(bytes) => MemoryGovernor::new(bytes),
            None => MemoryGovernor::unlimited(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_queue_shape() {
        let c = GnnDriveConfig::default();
        assert_eq!(c.num_samplers, 4);
        assert_eq!(c.num_extractors, 4);
        assert_eq!(EXTRACT_QUEUE_CAP, 6);
        assert_eq!(TRAIN_QUEUE_CAP, 4);
        assert!(EXTRACT_QUEUE_CAP >= c.num_samplers);
        assert!(TRAIN_QUEUE_CAP >= c.num_extractors);
        assert!(c.direct_io && c.reorder);
    }

    #[test]
    fn stack_config_overlays_shared_knobs() {
        let stack = StackConfig::default()
            .with_memory_budget(64 << 20)
            .with_fanouts(vec![5, 5])
            .with_batch_size(50)
            .with_direct_io(false)
            .with_health(HealthConfig::enabled());
        let cfg = stack.apply_to(GnnDriveConfig::default());
        assert_eq!(cfg.fanouts, vec![5, 5]);
        assert_eq!(cfg.batch_size, 50);
        assert!(!cfg.direct_io);
        assert_eq!(stack.governor().budget(), 64 << 20);
        // No budget → an effectively unlimited governor.
        let unlimited = StackConfig::default().governor();
        assert!(unlimited.budget() >= u64::MAX / 2);
    }

    #[test]
    fn derived_sizes() {
        let c = GnnDriveConfig {
            feature_buffer_slots: 100,
            staging_bytes_per_extractor: 1000,
            num_extractors: 3,
            ..Default::default()
        };
        assert_eq!(c.feature_buffer_bytes(128), 100 * 512);
        assert_eq!(c.staging_bytes(), 3000);
    }
}
