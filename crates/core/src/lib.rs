//! GNNDrive — the paper's primary contribution.
//!
//! GNNDrive (Jiang, Jia & Wang, ICPP '24) is a disk-based GNN training
//! system built around two ideas:
//!
//! 1. **Minimal memory footprint for feature extraction** (§4.2): features
//!    are staged through a small, bounded host [`StagingBuffer`] into a
//!    device-resident feature buffer managed by [`FeatureBufferManager`]
//!    (mapping table, reference counts, valid bits, a reverse-mapping
//!    array, and a *standby list* that gives up cold rows first), and
//!    feature loads use **direct
//!    I/O** that bypasses the OS page cache — leaving host memory to the
//!    sampler's memory-mapped topology and eliminating the memory
//!    contention that cripples PyG+.
//!
//! 2. **Asynchronous two-phase extraction** (§4.2, Algorithm 1): one
//!    extractor thread per mini-batch keeps a deep io_uring-style ring of
//!    SSD loads in flight and launches each node's host→device transfer the
//!    moment its load lands, overlapping extraction for one mini-batch with
//!    training of others through a pipeline of bounded queues
//!    (sample → extract → train → release), with mini-batch reordering for
//!    slack absorption (§4.3) and multi-device data parallelism (§4.3).
//!
//! The [`Pipeline`] wires the four stages together, the trainer running
//! the release stage itself; [`TrainingSystem`] is
//! the harness-facing interface the baselines in `gnndrive-baselines`
//! also implement.

//!
//! ```
//! use gnndrive_core::{GnnDriveConfig, Pipeline, TrainingSystem};
//! use gnndrive_device::GpuDevice;
//! use gnndrive_graph::{Dataset, DatasetSpec};
//! use gnndrive_nn::ModelKind;
//! use gnndrive_storage::{MemoryGovernor, PageCache, SimSsd, SsdProfile};
//! use std::sync::Arc;
//!
//! let ds = Arc::new(Dataset::build(
//!     DatasetSpec {
//!         name: "doc".into(), num_nodes: 300, num_edges: 1500, feat_dim: 8,
//!         num_classes: 3, intra_prob: 0.8, feature_signal: 1.0,
//!         train_fraction: 0.3, seed: 2,
//!     },
//!     SimSsd::new(SsdProfile::instant()),
//! ));
//! let gov = MemoryGovernor::unlimited();
//! let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
//! let cfg = GnnDriveConfig {
//!     fanouts: vec![3, 3], batch_size: 30, feature_buffer_slots: 2048,
//!     ..Default::default()
//! };
//! let mut pipeline = Pipeline::builder(ds, GpuDevice::rtx3090())
//!     .with_model(ModelKind::GraphSage, 8)
//!     .with_config(cfg)
//!     .with_governor(gov)
//!     .with_page_cache(cache)
//!     .build()
//!     .unwrap();
//! let report = pipeline.train_epoch(0, Some(2));
//! assert_eq!(report.batches, 2);
//! assert!(report.loss.is_finite());
//! ```

pub mod builder;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod extractor;
pub mod feature_buffer;
pub mod parallel;
pub mod pipeline;
pub mod staging;
pub mod system;

pub use builder::PipelineBuilder;
pub use checkpoint::{CheckpointError, TrainCheckpoint};
pub use config::{GnnDriveConfig, StackConfig};
pub use error::Error;
pub use extractor::{extract_batch, ExtractError, ExtractedBatch, ReadGeometry, ReadGroup};
pub use feature_buffer::{ExtractPlan, FeatureBufferManager};
pub use parallel::{run_data_parallel, ParallelConfig, ParallelReport, SegmentError};
pub use pipeline::{BuildError, EpochStats, InferenceOutcome, Pipeline};
pub use staging::StagingBuffer;
pub use system::{evaluate_model, sample_batches, EpochReport, TrainingSystem};
