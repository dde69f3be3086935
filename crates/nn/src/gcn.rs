//! GCN layer (Kipf & Welling, 2017), sampled-subgraph mean variant.
//!
//! On a sampled bipartite block the symmetric-normalized adjacency of
//! full-graph GCN degenerates; the standard sampled formulation aggregates
//! the mean over the sampled in-neighbors *plus the node itself* (a
//! self-loop), then applies one shared linear transform.

use crate::workspace::{LayerCache, Workspace};
use gnndrive_sampling::Block;
use gnndrive_tensor::ops::{
    relu_backward_inplace, relu_inplace, segment_mean, segment_mean_backward,
};
use gnndrive_tensor::{xavier_uniform, Matrix, Param};

/// One GCN layer: `h' = act(mean(h_neigh ∪ {h_self}) · W + b)`.
pub struct GcnLayer {
    pub weight: Param,
    pub bias: Param,
    relu: bool,
}

impl GcnLayer {
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GcnLayer {
            weight: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            relu,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.weight.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Forward into `cache.out`.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        cache: &mut LayerCache,
        ws: &mut Workspace,
    ) {
        assert_eq!(h_src.rows(), block.num_src);
        let LayerCache {
            out, agg, counts, ..
        } = cache;
        let edges = block.edges_with_self_loops();
        segment_mean(h_src, edges, block.num_dst, agg, counts);
        ws.gemm.matmul(&*agg, &self.weight.value, out);
        out.add_row_bias(&self.bias.value);
        if self.relu {
            relu_inplace(out);
        }
    }

    /// Accumulate parameter gradients from the upstream gradient in
    /// `ws.d_out` and, if `want_input_grad`, leave the gradient w.r.t. the
    /// layer input in `ws.d_src`. `cache` is forward's.
    pub fn backward(
        &mut self,
        block: &Block,
        cache: &LayerCache,
        want_input_grad: bool,
        ws: &mut Workspace,
    ) {
        let Workspace {
            gemm,
            d_out,
            d_src,
            mats: [grad, d_agg],
            ..
        } = ws;
        if self.relu {
            relu_backward_inplace(d_out, &cache.out);
        }
        let d_out = &*d_out;
        gemm.t_matmul(&cache.agg, d_out, grad);
        self.weight.grad.add_assign(grad);
        d_out.sum_rows_into(grad);
        self.bias.grad.add_assign(grad);
        if !want_input_grad {
            return;
        }

        gemm.matmul_t(d_out, &self.weight.value, d_agg);
        d_src.reset(block.num_src, self.in_dim());
        let edges = block.edges_with_self_loops();
        segment_mean_backward(d_agg, edges, &cache.counts, d_src);
    }

    pub fn flops(&self, block: &Block) -> u64 {
        let (i, o) = (self.in_dim() as u64, self.out_dim() as u64);
        let dst = block.num_dst as u64;
        let e = (block.num_edges() + block.num_dst) as u64;
        3 * (dst * i * o * 2) + 4 * e * i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sage::tests::{
        gradcheck, gradcheck_input, objective, test_block, test_input, with_nudged, workspace_with,
        INIT_SEEDS,
    };

    fn forward(layer: &GcnLayer, block: &Block, h: &Matrix) -> LayerCache {
        let mut cache = LayerCache::default();
        layer.forward(block, h, &mut cache, &mut Workspace::default());
        cache
    }

    #[test]
    fn self_loop_is_included_in_aggregation() {
        let layer = GcnLayer::new(2, 2, false, 1);
        // dst 0 with no sampled edges: aggregation must equal its own row.
        let block = Block {
            num_src: 2,
            num_dst: 1,
            edge_src: vec![],
            edge_dst: vec![],
        };
        let h = Matrix::from_vec(2, 2, vec![3.0, -1.0, 9.0, 9.0]);
        let cache = forward(&layer, &block, &h);
        assert_eq!(cache.agg.row(0), &[3.0, -1.0]);
    }

    #[test]
    fn aggregation_is_mean_over_neighbors_and_self() {
        let layer = GcnLayer::new(3, 2, false, 2);
        let block = test_block();
        let h = test_input(4, 3);
        let cache = forward(&layer, &block, &h);
        for c in 0..3 {
            let expect = (h.get(2, c) + h.get(3, c) + h.get(0, c)) / 3.0;
            assert!(
                (cache.agg.get(0, c) - expect).abs() < 1e-6,
                "col {c}: {} vs {expect}",
                cache.agg.get(0, c)
            );
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = GcnLayer::new(3, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream = Matrix::from_fn(2, 2, |r, c| 0.4 * (r as f32 + 1.0) - 0.3 * c as f32);
            let cache = forward(&layer, &block, &h);
            let mut ws = workspace_with(&upstream);
            layer.backward(&block, &cache, true, &mut ws);
            let fwd = |m: &Matrix| forward(&layer, &block, m).out;
            gradcheck_input(&fwd, &ws.d_src, &h, &upstream, 5e-2);
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let block = test_block();
        let h = test_input(4, 3);
        let upstream = Matrix::from_fn(2, 2, |r, c| 0.2 + 0.1 * (r * 2 + c) as f32);
        for seed in INIT_SEEDS {
            let mut layer = GcnLayer::new(3, 2, true, seed);
            let cache = forward(&layer, &block, &h);
            layer.backward(&block, &cache, true, &mut workspace_with(&upstream));
            let analytic = layer.weight.grad.clone();
            gradcheck("weight", &analytic, 5e-2, |i, delta| {
                with_nudged(
                    &mut layer,
                    |l| &mut l.weight.value,
                    i,
                    delta,
                    |l| objective(&forward(l, &block, &h).out, &upstream),
                )
            });
        }
    }
}
