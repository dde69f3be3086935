//! Graph datasets for the GNNDrive reproduction.
//!
//! The paper evaluates on four large graphs (Papers100M, Twitter,
//! Friendster, MAG240M — Table 1), stored on SSD as a CSC adjacency matrix
//! plus a dense node-feature table ordered by node id. This crate provides:
//!
//! * [`CscTopology`] — compressed-sparse-column adjacency (`indptr` +
//!   `indices`), the representation all samplers read;
//! * [`generate`] — a deterministic synthetic generator with power-law
//!   degrees and planted communities, so labels are genuinely learnable
//!   from features *and* topology (needed for the paper's time-to-accuracy
//!   experiment, Fig 14);
//! * [`Dataset`] — the on-SSD layout: `indptr` kept in host memory (the
//!   paper keeps it resident since it is small and hot), `indices` and the
//!   feature table and labels on the simulated SSD;
//! * [`catalog`] — scaled-down analogs of the paper's four datasets with
//!   matched node/edge/dimension ratios.

//!
//! ```
//! use gnndrive_graph::{Dataset, DatasetSpec};
//! use gnndrive_storage::{SimSsd, SsdProfile};
//!
//! let spec = DatasetSpec {
//!     name: "demo".into(),
//!     num_nodes: 100,
//!     num_edges: 500,
//!     feat_dim: 8,
//!     num_classes: 4,
//!     intra_prob: 0.8,
//!     feature_signal: 1.0,
//!     train_fraction: 0.2,
//!     seed: 1,
//! };
//! let ds = Dataset::build(spec, SimSsd::new(SsdProfile::instant()));
//! assert_eq!(ds.indptr.len(), 101);
//! assert_eq!(ds.peek_feature_row(0).len(), 8);
//! ```

pub mod catalog;
pub mod csc;
pub mod dataset;
pub mod generate;

pub use catalog::{scaled_memory_budget, MiniDataset};
pub use csc::CscTopology;
pub use dataset::{Dataset, DatasetSpec};
pub use generate::{generate_graph, GeneratedGraph};

/// Node identifier. The paper's graphs exceed u32 in edge count but not in
/// node count; our scaled analogs fit comfortably.
pub type NodeId = u32;
