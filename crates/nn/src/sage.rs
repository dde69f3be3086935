//! GraphSAGE layer (Hamilton et al., 2017) with mean aggregation.

use crate::workspace::{LayerCache, Workspace};
use gnndrive_sampling::Block;
use gnndrive_tensor::ops::{
    bias_act, relu_backward_inplace, segment_max, segment_max_backward, segment_mean,
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

    /// h_dst = act(h_self · W_self + mean_neigh(h_src) · W_neigh + b), into
    /// `cache.out`.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        cache: &mut LayerCache,
        ws: &mut Workspace,
    ) {
        assert_eq!(h_src.rows(), block.num_src);
        assert_eq!(h_src.cols(), self.in_dim());
        let LayerCache {
            out,
            agg,
            counts,
            max_winners,
            ..
        } = cache;
        let (edges, num_dst) = (block.edges(), block.num_dst);
        match self.aggregator {
            Aggregator::Mean => segment_mean(h_src, edges, num_dst, agg, counts),
            Aggregator::Sum => segment_sum(h_src, edges, num_dst, agg),
            Aggregator::Max => segment_max(h_src, edges, num_dst, agg, max_winners),
        }
        // Prefix convention: destinations are the first num_dst sources.
        let gemm = &mut ws.gemm;
        gemm.matmul(h_src.top_rows(num_dst), &self.w_self.value, out);
        gemm.matmul_add(&*agg, &self.w_neigh.value, out);
        bias_act(out, &self.bias.value, self.relu);
    }

    /// Accumulate parameter gradients from the upstream gradient in
    /// `ws.d_out` and, if `want_input_grad`, leave the gradient w.r.t.
    /// `h_src` in `ws.d_src`. `h_src` and `cache` are forward's.
    pub fn backward(
        &mut self,
        block: &Block,
        h_src: &Matrix,
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
        gemm.t_matmul_add(h_src.top_rows(block.num_dst), d_out, &mut self.w_self.grad);
        gemm.t_matmul_add(&cache.agg, d_out, &mut self.w_neigh.grad);
        d_out.sum_rows_into(grad);
        self.bias.grad.add_assign(grad);
        if !want_input_grad {
            return;
        }

        // The self path lands on the destination prefix of d_src, the
        // neighbor path is scattered back along the edges on top of it.
        gemm.matmul_t(d_out, &self.w_self.value, d_src);
        d_src.set_rows(block.num_src);
        gemm.matmul_t(d_out, &self.w_neigh.value, d_agg);
        match self.aggregator {
            Aggregator::Mean => segment_mean_backward(d_agg, block.edges(), &cache.counts, d_src),
            Aggregator::Sum => segment_sum_backward(d_agg, block.edges(), d_src),
            Aggregator::Max => {
                segment_max_backward(d_agg, block.edges(), &cache.max_winners, d_src)
            }
        }
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

    /// A workspace whose upstream gradient is `upstream`.
    pub(crate) fn workspace_with(upstream: &Matrix) -> Workspace {
        Workspace {
            d_out: upstream.clone(),
            ..Workspace::default()
        }
    }

    fn forward(layer: &SageLayer, block: &Block, h: &Matrix) -> LayerCache {
        let mut cache = LayerCache::default();
        layer.forward(block, h, &mut cache, &mut Workspace::default());
        cache
    }

    /// Backward from `upstream` with the input gradient wanted; returns it.
    fn backward(
        layer: &mut SageLayer,
        block: &Block,
        h: &Matrix,
        cache: &LayerCache,
        upstream: &Matrix,
    ) -> Matrix {
        let mut ws = workspace_with(upstream);
        layer.backward(block, h, cache, true, &mut ws);
        ws.d_src
    }

    #[test]
    fn forward_shapes_and_aggregation() {
        let layer = SageLayer::new(3, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let cache = forward(&layer, &block, &h);
        assert_eq!((cache.out.rows(), cache.out.cols()), (2, 2));
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
            let cache = forward(&layer, &block, &h);
            let d_src = backward(&mut layer, &block, &h, &cache, &upstream);
            let fwd = |m: &Matrix| forward(&layer, &block, m).out;
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
            let cache = forward(&layer, &block, &h);
            backward(&mut layer, &block, &h, &cache, &upstream);
            let analytic = layer.w_neigh.grad.clone();
            gradcheck("w_neigh", &analytic, 5e-2, |i, delta| {
                with_nudged(
                    &mut layer,
                    |l| &mut l.w_neigh.value,
                    i,
                    delta,
                    |l| objective(&forward(l, &block, &h).out, &upstream),
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
                let cache = forward(&layer, &block, &h);
                let d_src = backward(&mut layer, &block, &h, &cache, &upstream);
                let fwd = |m: &Matrix| forward(&layer, &block, m).out;
                gradcheck_input(&fwd, &d_src, &h, &upstream, 5e-2);
            }
        }
    }

    #[test]
    fn a_reused_cache_and_workspace_forget_the_previous_batch() {
        // Shapes shrink and grow between calls; every result must equal a
        // run on fresh buffers.
        let blocks = [
            test_block(),
            Block {
                num_src: 9,
                num_dst: 5,
                edge_src: vec![8, 7, 6, 5, 5, 0],
                edge_dst: vec![0, 0, 1, 3, 4, 4],
            },
            test_block(),
        ];
        for aggregator in [Aggregator::Mean, Aggregator::Max, Aggregator::Sum] {
            let mut layer = SageLayer::with_aggregator(3, 2, true, aggregator, 3);
            let (mut cache, mut ws) = (LayerCache::default(), Workspace::default());
            for block in &blocks {
                let h = test_input(block.num_src, 3);
                let upstream = test_input(block.num_dst, 2);
                layer.forward(block, &h, &mut cache, &mut ws);
                ws.d_out = upstream.clone();
                layer.backward(block, &h, &cache, true, &mut ws);
                let fresh = forward(&layer, block, &h);
                assert_eq!(cache.out, fresh.out);
                assert_eq!(ws.d_src, backward(&mut layer, block, &h, &fresh, &upstream));
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
        let cache = forward(&layer, &block, &h);
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
        let cache = forward(&layer, &block, &h);
        // dst 1 has no sampled neighbors: agg row is zero.
        assert_eq!(cache.agg.row(1), &[0.0, 0.0]);
        assert_eq!(cache.out.rows(), 2);
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
