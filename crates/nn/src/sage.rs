//! GraphSAGE layer (Hamilton et al., 2017) with mean aggregation.

use gnndrive_sampling::Block;
use gnndrive_tensor::ops::{
    relu_backward_inplace, relu_inplace, segment_max, segment_max_backward, segment_mean,
    segment_mean_backward, segment_sum, segment_sum_backward,
};
use gnndrive_tensor::{xavier_uniform, Matrix, Param};

/// Neighborhood aggregation function (the paper's background §2 names
/// "mean, max, sum, or more advanced functions").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregator {
    Mean,
    Max,
    Sum,
}

/// One GraphSAGE layer: separate self and neighbor transforms.
pub struct SageLayer {
    pub w_self: Param,
    pub w_neigh: Param,
    pub bias: Param,
    relu: bool,
    aggregator: Aggregator,
}

/// Forward-pass cache needed by backward.
pub struct SageCache {
    h_self: Matrix,
    agg: Matrix,
    output: Matrix,
    gathered_rows: Vec<usize>,
    /// Winning input row per output cell (Max aggregator only).
    max_winners: Option<Vec<i64>>,
}

impl SageLayer {
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        Self::with_aggregator(in_dim, out_dim, relu, Aggregator::Mean, seed)
    }

    pub fn with_aggregator(
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        aggregator: Aggregator,
        seed: u64,
    ) -> Self {
        SageLayer {
            w_self: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            w_neigh: Param::new(xavier_uniform(in_dim, out_dim, seed ^ 0xA5A5)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            relu,
            aggregator,
        }
    }

    pub fn aggregator(&self) -> Aggregator {
        self.aggregator
    }

    pub fn in_dim(&self) -> usize {
        self.w_self.value.rows()
    }

    pub fn out_dim(&self) -> usize {
        self.w_self.value.cols()
    }

    /// h_dst = act(h_self · W_self + mean_neigh(h_src) · W_neigh + b).
    pub fn forward(&self, block: &Block, h_src: &Matrix) -> (Matrix, SageCache) {
        assert_eq!(h_src.rows(), block.num_src);
        assert_eq!(h_src.cols(), self.in_dim());
        // Prefix convention: destinations are the first num_dst sources.
        let h_self = h_src.gather_rows(&(0..block.num_dst).collect::<Vec<_>>());
        let gathered_rows: Vec<usize> = block.edge_src.iter().map(|&s| s as usize).collect();
        let gathered = h_src.gather_rows(&gathered_rows);
        let segments: Vec<usize> = block.edge_dst.iter().map(|&d| d as usize).collect();
        let mut max_winners = None;
        let agg = match self.aggregator {
            Aggregator::Mean => segment_mean(&gathered, &segments, block.num_dst),
            Aggregator::Sum => segment_sum(&gathered, &segments, block.num_dst),
            Aggregator::Max => {
                let (m, w) = segment_max(&gathered, &segments, block.num_dst);
                max_winners = Some(w);
                m
            }
        };

        let mut out = h_self.matmul(&self.w_self.value);
        out.add_assign(&agg.matmul(&self.w_neigh.value));
        out.add_row_bias(&self.bias.value);
        if self.relu {
            relu_inplace(&mut out);
        }
        let cache = SageCache {
            h_self,
            agg,
            output: out.clone(),
            gathered_rows,
            max_winners,
        };
        (out, cache)
    }

    /// Accumulate parameter gradients and return the gradient w.r.t. h_src.
    pub fn backward(&mut self, block: &Block, cache: &SageCache, mut d_out: Matrix) -> Matrix {
        if self.relu {
            relu_backward_inplace(&mut d_out, &cache.output);
        }
        // Parameter grads.
        self.w_self.grad.add_assign(&cache.h_self.t_matmul(&d_out));
        self.w_neigh.grad.add_assign(&cache.agg.t_matmul(&d_out));
        self.bias.grad.add_assign(&d_out.sum_rows());

        // Input grads.
        let d_h_self = d_out.matmul_t(&self.w_self.value);
        let d_agg = d_out.matmul_t(&self.w_neigh.value);
        let segments: Vec<usize> = block.edge_dst.iter().map(|&d| d as usize).collect();
        let d_gathered = match self.aggregator {
            Aggregator::Mean => segment_mean_backward(&d_agg, &segments, block.num_edges()),
            Aggregator::Sum => segment_sum_backward(&d_agg, &segments, block.num_edges()),
            Aggregator::Max => segment_max_backward(
                &d_agg,
                cache.max_winners.as_ref().expect("max cache"),
                block.num_edges(),
            ),
        };

        let mut d_src = Matrix::zeros(block.num_src, self.in_dim());
        for r in 0..block.num_dst {
            d_src.row_mut(r).copy_from_slice(d_h_self.row(r));
        }
        for (e, &src_row) in cache.gathered_rows.iter().enumerate() {
            let g = d_gathered.row(e);
            let o = d_src.row_mut(src_row);
            for (ov, &gv) in o.iter_mut().zip(g.iter()) {
                *ov += gv;
            }
        }
        d_src
    }

    /// Approximate FLOPs of forward+backward for this layer on `block`.
    pub fn flops(&self, block: &Block) -> u64 {
        let (i, o) = (self.in_dim() as u64, self.out_dim() as u64);
        let dst = block.num_dst as u64;
        let e = block.num_edges() as u64;
        // Two matmuls forward + their transposed counterparts backward
        // (≈ 3x forward cost), plus gather/aggregate traffic.
        3 * (2 * dst * i * o * 2) + 4 * e * i
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small fixed block: 4 sources, 2 destinations, edges into both.
    pub(crate) fn test_block() -> Block {
        Block {
            num_src: 4,
            num_dst: 2,
            edge_src: vec![2, 3, 3, 1],
            edge_dst: vec![0, 0, 1, 1],
        }
    }

    pub(crate) fn test_input(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) % 5) as f32 * 0.3 - 0.5)
    }

    /// The scalar the gradient checks differentiate: `sum(out ⊙ upstream)`.
    pub(crate) fn objective(out: &Matrix, upstream: &Matrix) -> f32 {
        out.data()
            .iter()
            .zip(upstream.data())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Finite-difference check of `analytic` against `f(i, delta)`, the
    /// objective with coordinate `i` moved by `delta`. Kink-aware: a ReLU
    /// (or LeakyReLU) pre-activation changing sign inside `[-eps, eps]`
    /// makes the two one-sided slopes disagree, so `eps` is halved until
    /// they agree; a coordinate sitting on a kink has no derivative and is
    /// skipped. Shared by the SAGE, GCN and GAT tests.
    pub(crate) fn gradcheck(
        what: &str,
        analytic: &Matrix,
        tol: f32,
        mut f: impl FnMut(usize, f32) -> f32,
    ) {
        let (mut checked, f0) = (0, f(0, 0.0));
        for (i, &ana) in analytic.data().iter().enumerate() {
            let mut eps = 1e-2f32;
            while eps > 1e-3 {
                let (fwd, bwd) = ((f(i, eps) - f0) / eps, (f0 - f(i, -eps)) / eps);
                if (fwd - bwd).abs() < tol / 2.0 {
                    let num = (fwd + bwd) / 2.0;
                    assert!(
                        (num - ana).abs() < tol,
                        "{what} grad mismatch at {i}: numeric {num} analytic {ana}"
                    );
                    checked += 1;
                    break;
                }
                eps /= 2.0;
            }
        }
        let n = analytic.data().len();
        assert!(
            2 * checked > n,
            "{what}: only {checked}/{n} coordinates off a kink"
        );
    }

    /// [`gradcheck`] of d(objective)/d(h_src) for a layer's forward closure.
    pub(crate) fn gradcheck_input(
        forward: &dyn Fn(&Matrix) -> Matrix,
        backward_dsrc: &Matrix,
        h: &Matrix,
        upstream: &Matrix,
        tol: f32,
    ) {
        gradcheck("input", backward_dsrc, tol, |i, delta| {
            let mut moved = h.clone();
            moved.data_mut()[i] += delta;
            objective(&forward(&moved), upstream)
        });
    }

    /// Evaluate `eval` with element `i` of the parameter `pick` selects
    /// moved by `delta`, then restore it.
    pub(crate) fn with_nudged<L>(
        layer: &mut L,
        pick: fn(&mut L) -> &mut Matrix,
        i: usize,
        delta: f32,
        eval: impl Fn(&L) -> f32,
    ) -> f32 {
        let orig = pick(layer).data()[i];
        pick(layer).data_mut()[i] = orig + delta;
        let y = eval(layer);
        pick(layer).data_mut()[i] = orig;
        y
    }

    /// Init seeds every gradient check runs over (not one lucky one).
    pub(crate) const INIT_SEEDS: std::ops::Range<u64> = 0..8;

    #[test]
    fn forward_shapes_and_aggregation() {
        let layer = SageLayer::new(3, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let (out, cache) = layer.forward(&block, &h);
        assert_eq!((out.rows(), out.cols()), (2, 2));
        // agg row 0 = mean of h[2], h[3].
        for c in 0..3 {
            let expect = (h.get(2, c) + h.get(3, c)) / 2.0;
            assert!((cache.agg.get(0, c) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = SageLayer::new(3, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream = Matrix::from_fn(2, 2, |r, c| (r + c) as f32 * 0.7 + 0.1);
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
        let upstream = Matrix::from_fn(2, 2, |r, c| 0.3 * (r as f32) - 0.2 * (c as f32) + 0.5);
        for seed in INIT_SEEDS {
            let mut layer = SageLayer::new(3, 2, true, seed);
            let (_, cache) = layer.forward(&block, &h);
            let _ = layer.backward(&block, &cache, upstream.clone());
            let analytic = layer.w_neigh.grad.clone();
            gradcheck("w_neigh", &analytic, 5e-2, |i, delta| {
                with_nudged(
                    &mut layer,
                    |l| &mut l.w_neigh.value,
                    i,
                    delta,
                    |l| objective(&l.forward(&block, &h).0, &upstream),
                )
            });
        }
    }

    #[test]
    fn max_and_sum_aggregators_pass_gradcheck() {
        for aggregator in [Aggregator::Max, Aggregator::Sum] {
            for seed in INIT_SEEDS {
                let mut layer = SageLayer::with_aggregator(3, 2, true, aggregator, seed);
                let block = test_block();
                let h = test_input(4, 3);
                let upstream = Matrix::from_fn(2, 2, |r, c| 0.6 - 0.2 * (r + c) as f32);
                let (_, cache) = layer.forward(&block, &h);
                let d_src = layer.backward(&block, &cache, upstream.clone());
                let fwd = |m: &Matrix| layer.forward(&block, m).0;
                gradcheck_input(&fwd, &d_src, &h, &upstream, 5e-2);
            }
        }
    }

    #[test]
    fn max_aggregator_takes_elementwise_maxima() {
        let layer = SageLayer::with_aggregator(2, 2, false, Aggregator::Max, 9);
        let block = Block {
            num_src: 3,
            num_dst: 1,
            edge_src: vec![1, 2],
            edge_dst: vec![0, 0],
        };
        let h = Matrix::from_vec(3, 2, vec![0., 0., 5., -1., 2., 7.]);
        let (_, cache) = layer.forward(&block, &h);
        assert_eq!(cache.agg.row(0), &[5., 7.]);
    }

    #[test]
    fn destinations_with_no_edges_use_self_only() {
        let block = Block {
            num_src: 2,
            num_dst: 2,
            edge_src: vec![1],
            edge_dst: vec![0],
        };
        let layer = SageLayer::new(2, 2, false, 4);
        let h = test_input(2, 2);
        let (out, cache) = layer.forward(&block, &h);
        // dst 1 has no sampled neighbors: agg row is zero.
        assert_eq!(cache.agg.row(1), &[0.0, 0.0]);
        assert_eq!(out.rows(), 2);
    }

    #[test]
    fn flops_scale_with_block_size() {
        let layer = SageLayer::new(64, 32, true, 5);
        let small = Block {
            num_src: 10,
            num_dst: 4,
            edge_src: vec![5; 8],
            edge_dst: vec![0; 8],
        };
        let big = Block {
            num_src: 100,
            num_dst: 40,
            edge_src: vec![5; 80],
            edge_dst: vec![0; 80],
        };
        assert!(layer.flops(&big) > 5 * layer.flops(&small));
    }
}
