//! GAT layer (Veličković et al., 2018), single-head additive attention.
//!
//! Scores use the standard split form `e(s,d) = LeakyReLU(a_src·z_s +
//! a_dst·z_d)` with slope 0.2, softmax-normalized over each destination's
//! sampled in-edges plus a self-loop. Attention makes this layer markedly
//! more FLOP-hungry than SAGE/GCN — the paper's CPU-based GAT slowdowns
//! (§5.1) come from exactly that extra per-edge work.

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

/// Forward cache for backward.
pub struct GatCache {
    /// The layer input (needed for the weight gradient h_srcᵀ · d_z).
    input: Matrix,
    z: Matrix,
    /// Per edge (sampled + self-loops): raw pre-LeakyReLU score.
    raw: Vec<f32>,
    /// Per edge: normalized attention weight.
    att: Vec<f32>,
    edge_src: Vec<usize>,
    edge_dst: Vec<usize>,
    output: Matrix,
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

    fn edges_with_self(block: &Block) -> (Vec<usize>, Vec<usize>) {
        let mut src: Vec<usize> = block.edge_src.iter().map(|&s| s as usize).collect();
        let mut dst: Vec<usize> = block.edge_dst.iter().map(|&d| d as usize).collect();
        for d in 0..block.num_dst {
            src.push(d);
            dst.push(d);
        }
        (src, dst)
    }

    pub fn forward(&self, block: &Block, h_src: &Matrix) -> (Matrix, GatCache) {
        assert_eq!(h_src.rows(), block.num_src);
        let out_dim = self.out_dim();
        let z = h_src.matmul(&self.weight.value);

        // Node-level attention halves.
        let dot = |row: &[f32], a: &Matrix| -> f32 {
            row.iter().zip(a.row(0)).map(|(&x, &y)| x * y).sum()
        };
        let alpha_src: Vec<f32> = (0..block.num_src)
            .map(|i| dot(z.row(i), &self.a_src.value))
            .collect();
        let alpha_dst: Vec<f32> = (0..block.num_dst)
            .map(|d| dot(z.row(d), &self.a_dst.value))
            .collect();

        let (edge_src, edge_dst) = Self::edges_with_self(block);
        let raw: Vec<f32> = edge_src
            .iter()
            .zip(edge_dst.iter())
            .map(|(&s, &d)| alpha_src[s] + alpha_dst[d])
            .collect();

        // Per-destination softmax over LeakyReLU(raw), numerically
        // stabilized by the per-dst max.
        let act: Vec<f32> = raw
            .iter()
            .map(|&r| if r >= 0.0 { r } else { SLOPE * r })
            .collect();
        let mut dst_max = vec![f32::NEG_INFINITY; block.num_dst];
        for (e, &d) in edge_dst.iter().enumerate() {
            dst_max[d] = dst_max[d].max(act[e]);
        }
        let mut exp: Vec<f32> = act
            .iter()
            .zip(edge_dst.iter())
            .map(|(&a, &d)| (a - dst_max[d]).exp())
            .collect();
        let mut dst_sum = vec![0.0f32; block.num_dst];
        for (e, &d) in edge_dst.iter().enumerate() {
            dst_sum[d] += exp[e];
        }
        for (e, &d) in edge_dst.iter().enumerate() {
            exp[e] /= dst_sum[d].max(1e-12);
        }
        let att = exp;

        // Weighted aggregation.
        let mut out = Matrix::zeros(block.num_dst, out_dim);
        for (e, (&s, &d)) in edge_src.iter().zip(edge_dst.iter()).enumerate() {
            let zrow = z.row(s);
            let orow = out.row_mut(d);
            let a = att[e];
            for (o, &zv) in orow.iter_mut().zip(zrow.iter()) {
                *o += a * zv;
            }
        }
        out.add_row_bias(&self.bias.value);
        if self.relu {
            relu_inplace(&mut out);
        }

        let cache = GatCache {
            input: h_src.clone(),
            z,
            raw,
            att,
            edge_src,
            edge_dst,
            output: out.clone(),
        };
        (out, cache)
    }

    pub fn backward(&mut self, block: &Block, cache: &GatCache, mut d_out: Matrix) -> Matrix {
        if self.relu {
            relu_backward_inplace(&mut d_out, &cache.output);
        }
        self.bias.grad.add_assign(&d_out.sum_rows());

        let out_dim = self.out_dim();
        let num_edges = cache.edge_src.len();
        let mut d_z = Matrix::zeros(block.num_src, out_dim);

        // d_att per edge, and z-gradient from the weighted sum.
        let mut d_att = vec![0.0f32; num_edges];
        for (e, (&s, &d)) in cache.edge_src.iter().zip(cache.edge_dst.iter()).enumerate() {
            let dout_row = d_out.row(d);
            let zrow = cache.z.row(s);
            d_att[e] = dout_row.iter().zip(zrow.iter()).map(|(&a, &b)| a * b).sum();
            let a = cache.att[e];
            let dz_row = d_z.row_mut(s);
            for (g, &dv) in dz_row.iter_mut().zip(dout_row.iter()) {
                *g += a * dv;
            }
        }

        // Softmax backward per destination: d_act = att ⊙ (d_att − ⟨att, d_att⟩_dst).
        let mut dst_dot = vec![0.0f32; block.num_dst];
        for (e, &d) in cache.edge_dst.iter().enumerate() {
            dst_dot[d] += cache.att[e] * d_att[e];
        }
        // Then through LeakyReLU to the raw scores.
        let mut d_alpha_src = vec![0.0f32; block.num_src];
        let mut d_alpha_dst = vec![0.0f32; block.num_dst];
        for e in 0..num_edges {
            let d = cache.edge_dst[e];
            let d_act = cache.att[e] * (d_att[e] - dst_dot[d]);
            let d_raw = d_act * leaky_relu_grad(cache.raw[e], SLOPE);
            d_alpha_src[cache.edge_src[e]] += d_raw;
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
        self.weight.grad.add_assign(&cache.input.t_matmul(&d_z));
        d_z.matmul_t(&self.weight.value)
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
        gradcheck, gradcheck_input, objective, test_block, test_input, with_nudged, INIT_SEEDS,
    };

    #[test]
    fn attention_weights_sum_to_one_per_destination() {
        let layer = GatLayer::new(3, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let (_, cache) = layer.forward(&block, &h);
        let mut per_dst = vec![0.0f32; block.num_dst];
        for (e, &d) in cache.edge_dst.iter().enumerate() {
            per_dst[d] += cache.att[e];
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
        let (out, cache) = layer.forward(&block, &h);
        assert_eq!(cache.att, vec![1.0]);
        // Output equals z[0] (+ bias, which starts at zero).
        let z = h.matmul(&layer.weight.value);
        for c in 0..2 {
            assert!((out.get(0, c) - z.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = GatLayer::new(3, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream = Matrix::from_fn(2, 2, |r, c| 0.5 * (r as f32) - 0.25 * (c as f32) + 0.4);
            let (_, cache) = layer.forward(&block, &h);
            let d_src = layer.backward(&block, &cache, upstream.clone());
            let fwd = |m: &Matrix| layer.forward(&block, m).0;
            gradcheck_input(&fwd, &d_src, &h, &upstream, 6e-2);
        }
    }

    #[test]
    fn attention_param_gradients_match_finite_difference() {
        let block = test_block();
        let h = test_input(4, 3);
        let upstream = Matrix::from_fn(2, 2, |r, c| 0.3 + 0.2 * (r as f32) - 0.1 * (c as f32));
        let eval = |l: &GatLayer| objective(&l.forward(&block, &h).0, &upstream);
        for seed in INIT_SEEDS {
            let mut layer = GatLayer::new(3, 2, true, seed);
            let (_, cache) = layer.forward(&block, &h);
            let _ = layer.backward(&block, &cache, upstream.clone());
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

/// Per-head forward caches.
pub struct MultiHeadCache {
    caches: Vec<GatCache>,
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

    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    pub fn in_dim(&self) -> usize {
        self.heads[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.out_per_head * self.heads.len()
    }

    /// Concatenated multi-head forward.
    pub fn forward(&self, block: &Block, h_src: &Matrix) -> (Matrix, MultiHeadCache) {
        let mut caches = Vec::with_capacity(self.heads.len());
        let mut out: Option<Matrix> = None;
        for head in &self.heads {
            let (o, c) = head.forward(block, h_src);
            caches.push(c);
            out = Some(match out {
                None => o,
                Some(acc) => acc.hcat(&o),
            });
        }
        (out.expect("at least one head"), MultiHeadCache { caches })
    }

    /// Backward: split the upstream gradient per head, sum input gradients.
    pub fn backward(&mut self, block: &Block, cache: &MultiHeadCache, d_out: Matrix) -> Matrix {
        assert_eq!(d_out.cols(), self.out_dim());
        let per = self.out_per_head;
        let mut d_src: Option<Matrix> = None;
        for (h, (head, hc)) in self.heads.iter_mut().zip(cache.caches.iter()).enumerate() {
            let slice = d_out.columns(h * per..(h + 1) * per);
            let d = head.backward(block, hc, slice);
            d_src = Some(match d_src {
                None => d,
                Some(mut acc) => {
                    acc.add_assign(&d);
                    acc
                }
            });
        }
        d_src.expect("at least one head")
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
    use crate::sage::tests::{gradcheck_input, test_block, test_input, INIT_SEEDS};

    #[test]
    fn concatenates_head_outputs() {
        let layer = MultiHeadGat::new(3, 4, 2, false, 1);
        let block = test_block();
        let h = test_input(4, 3);
        let (out, _) = layer.forward(&block, &h);
        assert_eq!((out.rows(), out.cols()), (2, 4));
        // Each half equals the corresponding single head's output.
        let (h0, _) = layer.heads[0].forward(&block, &h);
        let (h1, _) = layer.heads[1].forward(&block, &h);
        assert_eq!(out.columns(0..2), h0);
        assert_eq!(out.columns(2..4), h1);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        for seed in INIT_SEEDS {
            let mut layer = MultiHeadGat::new(3, 4, 2, true, seed);
            let block = test_block();
            let h = test_input(4, 3);
            let upstream =
                Matrix::from_fn(2, 4, |r, c| 0.2 * (r as f32 + 1.0) - 0.1 * c as f32 + 0.3);
            let (_, cache) = layer.forward(&block, &h);
            let d_src = layer.backward(&block, &cache, upstream.clone());
            let fwd = |m: &Matrix| layer.forward(&block, m).0;
            gradcheck_input(&fwd, &d_src, &h, &upstream, 6e-2);
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_head_split() {
        let _ = MultiHeadGat::new(3, 5, 2, true, 1);
    }
}
