//! GAT layer (Veličković et al., 2018), single-head additive attention.
//!
//! Scores use the standard split form `e(s,d) = LeakyReLU(a_src·z_s +
//! a_dst·z_d)` with slope 0.2, softmax-normalized over each destination's
//! sampled in-edges plus a self-loop. Attention makes this layer markedly
//! more FLOP-hungry than SAGE/GCN — the paper's CPU-based GAT slowdowns
//! (§5.1) come from exactly that extra per-edge work.

use crate::workspace::{LayerCache, Workspace};
use gnndrive_sampling::Block;
use gnndrive_tensor::ops::{leaky_relu_grad, relu_backward_inplace, relu_inplace};
use gnndrive_tensor::{xavier_uniform, Matrix, Param};

const SLOPE: f32 = 0.2;

/// One single-head GAT layer.
pub struct GatLayer {
    pub weight: Param,
    pub a_src: Param,
    pub a_dst: Param,
    pub bias: Param,
    relu: bool,
}

/// `v` becomes `len` copies of `value`, reusing its allocation.
fn refill(v: &mut Vec<f32>, len: usize, value: f32) {
    v.clear();
    v.resize(len, value);
}

impl GatLayer {
    pub fn new(in_dim: usize, out_dim: usize, relu: bool, seed: u64) -> Self {
        GatLayer {
            weight: Param::new(xavier_uniform(in_dim, out_dim, seed)),
            a_src: Param::new(xavier_uniform(1, out_dim, seed ^ 0x11)),
            a_dst: Param::new(xavier_uniform(1, out_dim, seed ^ 0x22)),
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
            out, z, raw, att, ..
        } = cache;
        let Workspace {
            gemm,
            vecs: [alpha_src, alpha_dst, dst_max, dst_sum],
            ..
        } = ws;
        gemm.matmul(h_src, &self.weight.value, z);

        // Node-level attention halves.
        let dot = |row: &[f32], a: &Matrix| -> f32 {
            row.iter().zip(a.row(0)).map(|(&x, &y)| x * y).sum()
        };
        alpha_src.clear();
        alpha_src.extend((0..block.num_src).map(|i| dot(z.row(i), &self.a_src.value)));
        alpha_dst.clear();
        alpha_dst.extend((0..block.num_dst).map(|d| dot(z.row(d), &self.a_dst.value)));

        let edges = block.edges_with_self_loops();
        raw.clear();
        raw.extend(edges.clone().map(|(s, d)| alpha_src[s] + alpha_dst[d]));

        // Per-destination softmax over LeakyReLU(raw), numerically
        // stabilized by the per-dst max; `att` holds each stage in turn.
        att.clear();
        att.extend(raw.iter().map(|&r| if r >= 0.0 { r } else { SLOPE * r }));
        refill(dst_max, block.num_dst, f32::NEG_INFINITY);
        for ((_, d), &a) in edges.clone().zip(att.iter()) {
            dst_max[d] = dst_max[d].max(a);
        }
        for ((_, d), a) in edges.clone().zip(att.iter_mut()) {
            *a = (*a - dst_max[d]).exp();
        }
        refill(dst_sum, block.num_dst, 0.0);
        for ((_, d), &a) in edges.clone().zip(att.iter()) {
            dst_sum[d] += a;
        }
        for ((_, d), a) in edges.clone().zip(att.iter_mut()) {
            *a /= dst_sum[d].max(1e-12);
        }

        // Weighted aggregation.
        out.reset(block.num_dst, self.out_dim());
        for ((s, d), &a) in edges.zip(att.iter()) {
            for (o, &zv) in out.row_mut(d).iter_mut().zip(z.row(s)) {
                *o += a * zv;
            }
        }
        out.add_row_bias(&self.bias.value);
        if self.relu {
            relu_inplace(out);
        }
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
            mats: [grad, d_z],
            vecs: [d_att, dst_dot, d_alpha_src, d_alpha_dst],
        } = ws;
        if self.relu {
            relu_backward_inplace(d_out, &cache.out);
        }
        let d_out = &*d_out;
        d_out.sum_rows_into(grad);
        self.bias.grad.add_assign(grad);

        let edges = block.edges_with_self_loops();
        d_z.reset(block.num_src, self.out_dim());

        // d_att per edge, and z-gradient from the weighted sum.
        d_att.clear();
        for ((s, d), &a) in edges.clone().zip(&cache.att) {
            let dout_row = d_out.row(d);
            let zrow = cache.z.row(s);
            d_att.push(dout_row.iter().zip(zrow.iter()).map(|(&a, &b)| a * b).sum());
            for (g, &dv) in d_z.row_mut(s).iter_mut().zip(dout_row.iter()) {
                *g += a * dv;
            }
        }

        // Softmax backward per destination: d_act = att ⊙ (d_att − ⟨att, d_att⟩_dst).
        refill(dst_dot, block.num_dst, 0.0);
        for (e, (_, d)) in edges.clone().enumerate() {
            dst_dot[d] += cache.att[e] * d_att[e];
        }
        // Then through LeakyReLU to the raw scores.
        refill(d_alpha_src, block.num_src, 0.0);
        refill(d_alpha_dst, block.num_dst, 0.0);
        for (e, (s, d)) in edges.enumerate() {
            let d_act = cache.att[e] * (d_att[e] - dst_dot[d]);
            let d_raw = d_act * leaky_relu_grad(cache.raw[e], SLOPE);
            d_alpha_src[s] += d_raw;
            d_alpha_dst[d] += d_raw;
        }

        // alpha_src = z · a_srcᵀ  (and alpha_dst on the dst prefix).
        for (i, &g) in d_alpha_src.iter().enumerate() {
            let zrow = cache.z.row(i);
            if g != 0.0 {
                for (c, (&zv, &av)) in zrow.iter().zip(self.a_src.value.row(0)).enumerate() {
                    self.a_src.grad.data_mut()[c] += g * zv;
                    d_z.row_mut(i)[c] += g * av;
                }
            }
        }
        for (d, &g) in d_alpha_dst.iter().enumerate() {
            let zrow = cache.z.row(d);
            if g != 0.0 {
                for (c, (&zv, &av)) in zrow.iter().zip(self.a_dst.value.row(0)).enumerate() {
                    self.a_dst.grad.data_mut()[c] += g * zv;
                    d_z.row_mut(d)[c] += g * av;
                }
            }
        }

        // z = h_src · W: dW = h_srcᵀ · d_z, d_h = d_z · Wᵀ.
        gemm.t_matmul(h_src, &*d_z, grad);
        self.weight.grad.add_assign(grad);
        if want_input_grad {
            gemm.matmul_t(&*d_z, &self.weight.value, d_src);
        }
    }

    /// Approximate FLOPs of forward+backward on `block`; note the per-edge
    /// attention terms absent from SAGE/GCN.
    pub fn flops(&self, block: &Block) -> u64 {
        let (i, o) = (self.in_dim() as u64, self.out_dim() as u64);
        let src = block.num_src as u64;
        let e = (block.num_edges() + block.num_dst) as u64;
        3 * (2 * src * i * o) + 10 * e * o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sage::tests::{
        gradcheck, gradcheck_input, objective, test_block, test_input, with_nudged, workspace_with,
        INIT_SEEDS,
    };

    fn forward(layer: &GatLayer, block: &Block, h: &Matrix) -> LayerCache {
        let mut cache = LayerCache::default();
        layer.forward(block, h, &mut cache, &mut Workspace::default());
        cache
    }

    #[test]
    fn attention_weights_sum_to_one_per_destination() {
        let layer = GatLayer::new(3, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let cache = forward(&layer, &block, &h);
        let mut per_dst = vec![0.0f32; block.num_dst];
        for ((_, d), &a) in block.edges_with_self_loops().zip(&cache.att) {
            per_dst[d] += a;
        }
        for (d, &s) in per_dst.iter().enumerate() {
            assert!((s - 1.0).abs() < 1e-5, "dst {d} attention sums to {s}");
        }
    }

    #[test]
    fn isolated_destination_attends_only_to_itself() {
        let layer = GatLayer::new(2, 2, false, 2);
        let block = Block {
            num_src: 2,
            num_dst: 1,
            edge_src: vec![],
            edge_dst: vec![],
        };
        let h = Matrix::from_vec(2, 2, vec![1.0, 2.0, 9.0, 9.0]);
        let cache = forward(&layer, &block, &h);
        assert_eq!(cache.att, vec![1.0]);
        // Output equals z[0] (+ bias, which starts at zero).
        let z = h.matmul(&layer.weight.value);
        for c in 0..2 {
            assert!((cache.out.get(0, c) - z.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = GatLayer::new(3, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream = Matrix::from_fn(2, 2, |r, c| 0.5 * (r as f32) - 0.25 * (c as f32) + 0.4);
            let cache = forward(&layer, &block, &h);
            let mut ws = workspace_with(&upstream);
            layer.backward(&block, &h, &cache, true, &mut ws);
            let fwd = |m: &Matrix| forward(&layer, &block, m).out;
            gradcheck_input(&fwd, &ws.d_src, &h, &upstream, 6e-2);
        }
    }

    #[test]
    fn attention_param_gradients_match_finite_difference() {
        let block = test_block();
        let h = test_input(4, 3);
        let upstream = Matrix::from_fn(2, 2, |r, c| 0.3 + 0.2 * (r as f32) - 0.1 * (c as f32));
        let eval = |l: &GatLayer| objective(&forward(l, &block, &h).out, &upstream);
        for seed in INIT_SEEDS {
            let mut layer = GatLayer::new(3, 2, true, seed);
            let cache = forward(&layer, &block, &h);
            layer.backward(&block, &h, &cache, true, &mut workspace_with(&upstream));
            let (analytic_src, analytic_w) = (layer.a_src.grad.clone(), layer.weight.grad.clone());
            gradcheck("a_src", &analytic_src, 6e-2, |i, delta| {
                with_nudged(&mut layer, |l| &mut l.a_src.value, i, delta, eval)
            });
            gradcheck("weight", &analytic_w, 6e-2, |i, delta| {
                with_nudged(&mut layer, |l| &mut l.weight.value, i, delta, eval)
            });
        }
    }

    #[test]
    fn flops_grow_with_edge_count() {
        let layer = GatLayer::new(64, 32, true, 5);
        let mk = |edges: u32| Block {
            num_src: 50,
            num_dst: 10,
            edge_src: (0..edges).map(|i| i % 50).collect(),
            edge_dst: (0..edges).map(|i| i % 10).collect(),
        };
        assert!(layer.flops(&mk(200)) > layer.flops(&mk(20)));
    }
}

/// Multi-head GAT layer: `heads` independent attention heads whose outputs
/// are concatenated (the standard hidden-layer configuration of Veličković
/// et al.). Composed from verified single-head layers.
pub struct MultiHeadGat {
    heads: Vec<GatLayer>,
    out_per_head: usize,
}

/// Per-head forward caches and the concatenated output.
#[derive(Debug, Default)]
pub struct MultiHeadCache {
    pub out: Matrix,
    heads: Vec<LayerCache>,
}

impl MultiHeadGat {
    /// `out_dim` must divide evenly among `heads`.
    pub fn new(in_dim: usize, out_dim: usize, heads: usize, relu: bool, seed: u64) -> Self {
        assert!(heads >= 1);
        assert_eq!(out_dim % heads, 0, "out_dim must be divisible by heads");
        let per = out_dim / heads;
        let heads = (0..heads)
            .map(|h| GatLayer::new(in_dim, per, relu, seed.wrapping_add(h as u64 * 0x9E37)))
            .collect();
        MultiHeadGat {
            heads,
            out_per_head: per,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.heads[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.out_per_head * self.heads.len()
    }

    /// Concatenated multi-head forward into `cache.out`.
    pub fn forward(
        &self,
        block: &Block,
        h_src: &Matrix,
        cache: &mut MultiHeadCache,
        ws: &mut Workspace,
    ) {
        cache
            .heads
            .resize_with(self.heads.len(), LayerCache::default);
        cache.out.reset(block.num_dst, 0);
        for (head, hc) in self.heads.iter().zip(cache.heads.iter_mut()) {
            head.forward(block, h_src, hc, ws);
            cache.out = cache.out.hcat(&hc.out);
        }
    }

    /// Backward: split the upstream gradient in `ws.d_out` per head, sum
    /// the heads' input gradients into `ws.d_src` if wanted.
    pub fn backward(
        &mut self,
        block: &Block,
        h_src: &Matrix,
        cache: &MultiHeadCache,
        want_input_grad: bool,
        ws: &mut Workspace,
    ) {
        let d_out = std::mem::take(&mut ws.d_out);
        assert_eq!(d_out.cols(), self.out_dim());
        let per = self.out_per_head;
        let mut d_src = Matrix::zeros(block.num_src, self.in_dim());
        for (h, (head, hc)) in self.heads.iter_mut().zip(cache.heads.iter()).enumerate() {
            ws.d_out = d_out.columns(h * per..(h + 1) * per);
            head.backward(block, h_src, hc, want_input_grad, ws);
            if want_input_grad {
                d_src.add_assign(&ws.d_src);
            }
        }
        ws.d_src = d_src;
    }

    pub fn params_mut(&mut self) -> Vec<&mut gnndrive_tensor::Param> {
        self.heads
            .iter_mut()
            .flat_map(|h| vec![&mut h.weight, &mut h.a_src, &mut h.a_dst, &mut h.bias])
            .collect()
    }

    pub fn flops(&self, block: &Block) -> u64 {
        self.heads.iter().map(|h| h.flops(block)).sum()
    }
}

#[cfg(test)]
mod multihead_tests {
    use super::*;
    use crate::sage::tests::{gradcheck_input, test_block, test_input, workspace_with, INIT_SEEDS};

    fn forward(layer: &MultiHeadGat, block: &Block, h: &Matrix) -> MultiHeadCache {
        let mut cache = MultiHeadCache::default();
        layer.forward(block, h, &mut cache, &mut Workspace::default());
        cache
    }

    #[test]
    fn concatenates_head_outputs() {
        let layer = MultiHeadGat::new(3, 4, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let cache = forward(&layer, &block, &h);
        assert_eq!((cache.out.rows(), cache.out.cols()), (2, 4));
        // Each half equals the corresponding single head's output.
        let mut single = LayerCache::default();
        for (head, cols) in layer.heads.iter().zip([0..2, 2..4]) {
            head.forward(&block, &h, &mut single, &mut Workspace::default());
            assert_eq!(cache.out.columns(cols), single.out);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = MultiHeadGat::new(3, 4, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream =
                Matrix::from_fn(2, 4, |r, c| 0.2 * (r as f32 + 1.0) - 0.1 * c as f32 + 0.3);
            let cache = forward(&layer, &block, &h);
            let mut ws = workspace_with(&upstream);
            layer.backward(&block, &h, &cache, true, &mut ws);
            let fwd = |m: &Matrix| forward(&layer, &block, m).out;
            gradcheck_input(&fwd, &ws.d_src, &h, &upstream, 6e-2);
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_head_split() {
        let _ = MultiHeadGat::new(3, 5, 2, true, 1);
    }
}
