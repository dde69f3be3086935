//! The buffers a training step reuses instead of allocating.

use gnndrive_tensor::{Gemm, Matrix};

/// Scratch every layer call borrows: the GEMM's packing panels, the
/// gradients that flow between layers, and unnamed temporaries each layer
/// destructures under its own names. Buffers keep their allocation between
/// calls, so after the largest batch has been seen a step allocates nothing.
#[derive(Debug, Default)]
pub struct Workspace {
    pub gemm: Gemm,
    /// Backward, in: the gradient w.r.t. the layer's output. The layer
    /// masks it in place through its activation.
    pub d_out: Matrix,
    /// Backward, out: the gradient w.r.t. the layer's input — written only
    /// when the caller asked for it.
    pub d_src: Matrix,
    pub(crate) mats: [Matrix; 2],
    pub(crate) vecs: [Vec<f32>; 4],
}

/// What a layer's forward leaves for its backward and for the next layer,
/// in buffers the next forward reuses. One type for every layer kind: a
/// kind leaves the fields it has no use for empty.
#[derive(Debug, Default)]
pub struct LayerCache {
    /// The layer's output: the next layer's input and backward's ReLU mask.
    pub out: Matrix,
    /// SAGE, GCN: the aggregated neighbor rows, one per destination.
    pub(crate) agg: Matrix,
    /// Mean aggregation: in-edges per destination.
    pub(crate) counts: Vec<u32>,
    /// Max aggregation: winning edge per `agg` cell.
    pub(crate) max_winners: Vec<i64>,
    /// GAT: the projected rows `h_src · W`.
    pub(crate) z: Matrix,
    /// GAT, per edge then per self-loop: raw pre-LeakyReLU score.
    pub(crate) raw: Vec<f32>,
    /// GAT, per edge then per self-loop: normalized attention weight.
    pub(crate) att: Vec<f32>,
}
