//! k-hop neighborhood sampling (the paper's *sample* stage).
//!
//! Sample-based GNN training divides the training nodes into mini-batches
//! and, for each batch, samples a bounded number of in-neighbors per node
//! per layer (e.g. fanout (10, 10, 10) for a 3-layer GraphSAGE). The
//! result is a stack of bipartite [`Block`]s plus the list of unique input
//! nodes whose features the *extract* stage must fetch.
//!
//! The sampler reads topology through a [`TopoReader`], which is where the
//! systems under test differ:
//!
//! * [`MmapTopo`] — `indptr` in host memory, `indices` memory-mapped
//!   through the shared OS page-cache model, one synchronous fault per
//!   page (how PyG+ samples, so feature-side memory pressure slows *this*
//!   path down — the paper's 𝔒1);
//! * [`AsyncTopo`] — the same files through the same cache, but a whole
//!   hop's missing pages faulted in one batch of device requests
//!   (GNNDrive's pipeline samples this way);
//! * [`NeighborCacheTopo`] — Ginex's neighbor cache: the adjacency lists of
//!   the highest-degree nodes pinned in host memory, misses falling through
//!   to the underlying reader;
//! * [`InMemTopo`] — fully resident topology (ground truth / MariusGNN's
//!   in-buffer partitions).

pub mod batches;
pub mod block;
pub mod neighbor;
pub mod topo;

pub use batches::BatchPlan;
pub use block::{Block, MiniBatchSample};
pub use neighbor::{NeighborSampler, SamplingPolicy};
pub use topo::{AsyncTopo, InMemTopo, MmapTopo, NeighborCacheTopo, TopoReader};
