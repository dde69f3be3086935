//! Fluent construction of a [`Pipeline`].
//!
//! Replaces the old eight-positional-argument constructor: every knob has
//! a sensible default, call sites name only what they change, and the
//! result carries the crate-wide [`Error`] so construction failures chain
//! into the same handling as runtime ones.
//!
//! ```
//! use gnndrive_core::Pipeline;
//! use gnndrive_device::GpuDevice;
//! use gnndrive_graph::{Dataset, DatasetSpec};
//! use gnndrive_storage::{SimSsd, SsdProfile};
//! use std::sync::Arc;
//!
//! let ds = Arc::new(Dataset::build(
//!     DatasetSpec {
//!         name: "b".into(), num_nodes: 300, num_edges: 1500, feat_dim: 8,
//!         num_classes: 3, intra_prob: 0.8, feature_signal: 1.0,
//!         train_fraction: 0.3, seed: 2,
//!     },
//!     SimSsd::new(SsdProfile::instant()),
//! ));
//! let pipeline = Pipeline::builder(ds, GpuDevice::rtx3090())
//!     .with_model(gnndrive_nn::ModelKind::GraphSage, 8)
//!     .build()
//!     .unwrap();
//! ```

use crate::config::{GnnDriveConfig, StackConfig};
use crate::error::Error;
use crate::pipeline::Pipeline;
use gnndrive_device::GpuDevice;
use gnndrive_graph::Dataset;
use gnndrive_nn::ModelKind;
use gnndrive_storage::{MemoryGovernor, PageCache};
use std::sync::Arc;

/// Builder for [`Pipeline`]; obtained from [`Pipeline::builder`].
///
/// Defaults: GraphSAGE with 16 hidden units, [`GnnDriveConfig::default`],
/// GPU mode, an unlimited [`MemoryGovernor`], and a [`PageCache`] created
/// over the dataset's SSD under that governor.
pub struct PipelineBuilder {
    pub(crate) ds: Arc<Dataset>,
    pub(crate) device: Arc<GpuDevice>,
    pub(crate) model_kind: ModelKind,
    pub(crate) hidden: usize,
    pub(crate) cfg: GnnDriveConfig,
    pub(crate) gpu_mode: bool,
    pub(crate) governor: Option<Arc<MemoryGovernor>>,
    pub(crate) page_cache: Option<Arc<PageCache>>,
}

impl PipelineBuilder {
    pub(crate) fn new(ds: Arc<Dataset>, device: Arc<GpuDevice>) -> Self {
        PipelineBuilder {
            ds,
            device,
            model_kind: ModelKind::GraphSage,
            hidden: 16,
            cfg: GnnDriveConfig::default(),
            gpu_mode: true,
            governor: None,
            page_cache: None,
        }
    }

    /// Model architecture and hidden width.
    pub fn with_model(mut self, kind: ModelKind, hidden: usize) -> Self {
        self.model_kind = kind;
        self.hidden = hidden;
        self
    }

    /// Pipeline tunables (queue shapes, fanouts, I/O mode, retry policy …).
    pub fn with_config(mut self, cfg: GnnDriveConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// GPU-based (`true`, default) or the paper's CPU-based architecture.
    pub fn with_gpu_mode(mut self, gpu: bool) -> Self {
        self.gpu_mode = gpu;
        self
    }

    /// Host memory governor charged for resident metadata, staging, and
    /// (in CPU mode) the feature buffer. Default: unlimited.
    pub fn with_governor(mut self, governor: Arc<MemoryGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Page cache backing topology (index-array) reads. Default: a fresh
    /// cache over the dataset's SSD under the builder's governor.
    pub fn with_page_cache(mut self, cache: Arc<PageCache>) -> Self {
        self.page_cache = Some(cache);
        self
    }

    /// Apply a shared [`StackConfig`]: overlay its fanouts/batch-size/
    /// I/O-mode/retry/health knobs onto the builder's config and install
    /// the governor its memory budget describes. Call *after*
    /// [`with_config`](Self::with_config) — the overlay wins for the
    /// shared fields — and before consumer-specific overrides.
    pub fn with_stack(mut self, stack: &StackConfig) -> Self {
        self.cfg = stack.apply_to(self.cfg);
        self.governor = Some(stack.governor());
        self
    }

    /// Wire the pipeline, charging host and device memory.
    pub fn build(self) -> Result<Pipeline, Error> {
        Pipeline::from_builder(self).map_err(Error::Build)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::DatasetSpec;
    use gnndrive_storage::{SimSsd, SsdProfile};

    fn dataset() -> Arc<Dataset> {
        Arc::new(Dataset::build(
            DatasetSpec {
                name: "builder-test".into(),
                num_nodes: 200,
                num_edges: 1000,
                feat_dim: 8,
                num_classes: 3,
                intra_prob: 0.8,
                feature_signal: 1.0,
                train_fraction: 0.3,
                seed: 5,
            },
            SimSsd::new(SsdProfile::instant()),
        ))
    }

    #[test]
    fn with_stack_overlays_shared_knobs_and_governor() {
        let stack = StackConfig::default()
            .with_memory_budget(64 << 20)
            .with_fanouts(vec![2, 2])
            .with_batch_size(16);
        let b = Pipeline::builder(dataset(), GpuDevice::rtx3090()).with_stack(&stack);
        assert_eq!(b.cfg.fanouts, vec![2, 2]);
        assert_eq!(b.cfg.batch_size, 16);
        let gov = b.governor.as_ref().expect("stack installs a governor");
        assert_eq!(gov.budget(), 64 << 20);
    }
}
