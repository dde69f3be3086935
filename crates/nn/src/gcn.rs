//! GCN layer (Kipf & Welling, 2017), sampled-subgraph mean variant.
//!
//! On a sampled bipartite block the symmetric-normalized adjacency of
//! full-graph GCN degenerates; the standard sampled formulation aggregates
//! the mean over the sampled in-neighbors *plus the node itself* (a
//! self-loop), then applies one shared linear transform.

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

/// Forward cache for backward.
pub struct GcnCache {
    agg: Matrix,
    output: Matrix,
    /// Gather rows including the appended self-loops.
    rows_with_self: Vec<usize>,
    segs_with_self: Vec<usize>,
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

    fn edges_with_self(block: &Block) -> (Vec<usize>, Vec<usize>) {
        let mut rows: Vec<usize> = block.edge_src.iter().map(|&s| s as usize).collect();
        let mut segs: Vec<usize> = block.edge_dst.iter().map(|&d| d as usize).collect();
        // Self-loops: dst d is source row d by the prefix convention.
        for d in 0..block.num_dst {
            rows.push(d);
            segs.push(d);
        }
        (rows, segs)
    }

    pub fn forward(&self, block: &Block, h_src: &Matrix) -> (Matrix, GcnCache) {
        assert_eq!(h_src.rows(), block.num_src);
        let (rows, segs) = Self::edges_with_self(block);
        let gathered = h_src.gather_rows(&rows);
        let agg = segment_mean(&gathered, &segs, block.num_dst);
        let mut out = agg.matmul(&self.weight.value);
        out.add_row_bias(&self.bias.value);
        if self.relu {
            relu_inplace(&mut out);
        }
        let cache = GcnCache {
            agg,
            output: out.clone(),
            rows_with_self: rows,
            segs_with_self: segs,
        };
        (out, cache)
    }

    pub fn backward(&mut self, block: &Block, cache: &GcnCache, mut d_out: Matrix) -> Matrix {
        if self.relu {
            relu_backward_inplace(&mut d_out, &cache.output);
        }
        self.weight.grad.add_assign(&cache.agg.t_matmul(&d_out));
        self.bias.grad.add_assign(&d_out.sum_rows());

        let d_agg = d_out.matmul_t(&self.weight.value);
        let d_gathered =
            segment_mean_backward(&d_agg, &cache.segs_with_self, cache.rows_with_self.len());
        let mut d_src = Matrix::zeros(block.num_src, self.in_dim());
        for (e, &row) in cache.rows_with_self.iter().enumerate() {
            let g = d_gathered.row(e);
            let o = d_src.row_mut(row);
            for (ov, &gv) in o.iter_mut().zip(g.iter()) {
                *ov += gv;
            }
        }
        d_src
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
        gradcheck, gradcheck_input, objective, test_block, test_input, with_nudged, INIT_SEEDS,
    };

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
        let (_, cache) = layer.forward(&block, &h);
        assert_eq!(cache.agg.row(0), &[3.0, -1.0]);
    }

    #[test]
    fn aggregation_is_mean_over_neighbors_and_self() {
        let layer = GcnLayer::new(3, 2, false, 2);
        let block = test_block();
        let h = test_input(4, 3);
        let (_, cache) = layer.forward(&block, &h);
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
            let (_, cache) = layer.forward(&block, &h);
            let d_src = layer.backward(&block, &cache, upstream.clone());
            let fwd = |m: &Matrix| layer.forward(&block, m).0;
            gradcheck_input(&fwd, &d_src, &h, &upstream, 5e-2);
        }
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let block = test_block();
        let h = test_input(4, 3);
        let upstream = Matrix::from_fn(2, 2, |r, c| 0.2 + 0.1 * (r * 2 + c) as f32);
        for seed in INIT_SEEDS {
            let mut layer = GcnLayer::new(3, 2, true, seed);
            let (_, cache) = layer.forward(&block, &h);
            let _ = layer.backward(&block, &cache, upstream.clone());
            let analytic = layer.weight.grad.clone();
            gradcheck("weight", &analytic, 5e-2, |i, delta| {
                with_nudged(
                    &mut layer,
                    |l| &mut l.weight.value,
                    i,
                    delta,
                    |l| objective(&l.forward(&block, &h).0, &upstream),
                )
            });
        }
    }
}
