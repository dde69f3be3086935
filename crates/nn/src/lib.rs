//! GNN models for the GNNDrive reproduction.
//!
//! The paper evaluates three models (§5 "GNN Models"): GraphSAGE, GCN, and
//! GAT, each with 3 layers, 3-hop random neighborhood sampling, and a
//! hidden dimension of 256 (ours defaults are scaled). This crate
//! implements all three with hand-written forward/backward passes over the
//! bipartite [`Block`](gnndrive_sampling::Block) stacks the sampler
//! produces, plus FLOP estimates that drive the simulated device's compute
//! model.
//!
//! Layer semantics:
//!
//! * **GraphSAGE** — `h' = ReLU(W_self · h + W_neigh · mean(h_neighbors) + b)`
//! * **GCN** — `h' = ReLU(W · mean(h_neighbors ∪ {h_self}) + b)` (the
//!   sampled-subgraph mean-normalized variant)
//! * **GAT** — single-head additive attention over sampled edges plus a
//!   self-loop, LeakyReLU(0.2) scores, per-destination softmax.

pub mod gat;
pub mod gcn;
pub mod metrics;
pub mod model;
pub mod sage;
pub mod workspace;

pub use metrics::{accuracy, confusion_matrix, macro_f1};
pub use model::{build_model, GnnModel, ModelKind, StepResult};
pub use sage::Aggregator;
pub use workspace::{LayerCache, Workspace};
