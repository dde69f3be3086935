//! GNNDrive façade crate: re-exports all subsystems under one roof.
//!
//! Two ways in:
//!
//! * [`prelude`] — the curated user-facing surface. One `use
//!   gnndrive::prelude::*;` covers everything a typical training or
//!   serving program touches: the pipeline builder, configs, datasets,
//!   the simulated device stack, and the serving tier.
//! * Module paths — every subsystem crate is re-exported by name
//!   (`gnndrive::core`, `gnndrive::storage`, …) for anything the prelude
//!   deliberately leaves out.
pub use gnndrive_baselines as baselines;
pub use gnndrive_core as core;
pub use gnndrive_device as device;
pub use gnndrive_graph as graph;
pub use gnndrive_nn as nn;
pub use gnndrive_sampling as sampling;
pub use gnndrive_serve as serve;
pub use gnndrive_storage as storage;
pub use gnndrive_sync as sync;
pub use gnndrive_telemetry as telemetry;
pub use gnndrive_tensor as tensor;

/// The user-facing surface in one import.
///
/// ```
/// use gnndrive::prelude::*;
/// let cfg = GnnDriveConfig::default();
/// assert!(!cfg.fanouts.is_empty());
/// ```
pub mod prelude {
    // Training and inference pipeline.
    pub use gnndrive_core::extractor::{extract_batch, ExtractError, ExtractorContext};
    pub use gnndrive_core::parallel::split_segments;
    pub use gnndrive_core::{
        run_data_parallel, CheckpointError, EpochStats, Error, FeatureBufferManager,
        GnnDriveConfig, InferenceOutcome, ParallelConfig, Pipeline, PipelineBuilder, StackConfig,
        TrainCheckpoint, TrainingSystem,
    };

    // Graph data and sampling.
    pub use gnndrive_graph::{Dataset, DatasetSpec, MiniDataset, NodeId};
    pub use gnndrive_sampling::{InMemTopo, NeighborSampler};

    // Device and model.
    pub use gnndrive_device::{FeatureSlab, GpuDevice};
    pub use gnndrive_nn::ModelKind;

    // Storage stack: simulated SSD, memory admission, faults and health.
    pub use gnndrive_storage::{
        crc32, DeviceHealth, FaultPlan, HealthConfig, HealthState, IoPriority, IoRing,
        MemoryGovernor, PageCache, PowerCutReport, RetryPolicy, SimSsd, SsdProfile,
    };

    // Online serving tier.
    pub use gnndrive_serve::{
        Arrival, LoadGen, LoadGenConfig, ServeConfig, ServeError, ServeReport, ServeResponse,
        Server, Ticket,
    };

    // Concurrency hygiene and telemetry.
    pub use gnndrive_sync::{LockRank, OrderedMutex};
    /// Telemetry entry points (`telemetry::catalog::SSD_READ_BYTES.get()`,
    /// `telemetry::snapshot_metrics()`, …) under the name programs already
    /// use.
    pub use gnndrive_telemetry as telemetry;
    pub use gnndrive_telemetry::{atomic_write_file, CrashCut, Json, Monitor, RunReport};
}
