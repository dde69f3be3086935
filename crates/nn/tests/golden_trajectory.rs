//! Golden training trajectories: the loss bits of every Adam step and the
//! final logits, hashed, for each model kind and each GraphSAGE aggregator.
//!
//! The kernels under `train_step` promise today's arithmetic exactly
//! (ascending-`k` sums, separate multiply and add), so a rewrite of them
//! must reproduce these literals. They were captured by running this file
//! at the commit before the packed GEMM, the fused aggregation and the
//! skipped layer-0 input gradient landed; only the three `sage_*` helpers
//! differ there, by the layer call shapes.

use gnndrive_graph::generate::generate_features;
use gnndrive_graph::generate_graph;
use gnndrive_nn::sage::SageLayer;
use gnndrive_nn::{build_model, Aggregator, LayerCache, ModelKind, Workspace};
use gnndrive_sampling::{Block, InMemTopo, MiniBatchSample, NeighborSampler};
use gnndrive_tensor::{softmax_cross_entropy_into, Adam, Matrix, Optimizer};
use std::sync::Arc;

const DIM: usize = 48;
const HIDDEN: usize = 72;
const CLASSES: usize = 4;
const STEPS: u64 = 25;

struct Fixture {
    sampler: NeighborSampler,
    labels: Vec<u32>,
    feats: Vec<f32>,
}

impl Fixture {
    fn new(fanouts: &[usize]) -> Fixture {
        let g = generate_graph(400, 4000, CLASSES, 0.85, 21);
        let feats = generate_features(&g.labels, CLASSES, DIM, 1.5, 21);
        let topo = Arc::new(InMemTopo::new(Arc::new(g.topology)));
        Fixture {
            sampler: NeighborSampler::new(topo, fanouts.to_vec()),
            labels: g.labels,
            feats,
        }
    }

    /// Batch `step`: 32 seeds, a different window each step, with its
    /// input features and labels.
    fn batch(&self, step: u64) -> (MiniBatchSample, Matrix, Vec<usize>) {
        let first = (step as u32 * 29) % 360;
        let seeds: Vec<u32> = (first..first + 32).collect();
        let sample = self.sampler.sample(step, &seeds, 7);
        let mut input = Matrix::zeros(sample.input_nodes.len(), DIM);
        for (i, &v) in sample.input_nodes.iter().enumerate() {
            input
                .row_mut(i)
                .copy_from_slice(&self.feats[v as usize * DIM..(v as usize + 1) * DIM]);
        }
        let y = sample
            .seeds
            .iter()
            .map(|&s| self.labels[s as usize] as usize)
            .collect();
        (sample, input, y)
    }
}

/// FNV-1a over the little-endian bytes of each `f32`'s bit pattern.
fn hash_bits(hash: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn model_trajectory(kind: ModelKind) -> u64 {
    let fx = Fixture::new(&[4, 4, 3]);
    let mut model = build_model(kind, DIM, HIDDEN, CLASSES, 3, 11);
    let mut opt = Adam::new(0.01);
    let mut hash = FNV_OFFSET;
    for step in 0..STEPS {
        let (sample, input, y) = fx.batch(step);
        let r = model.train_step(&sample.blocks, &input, &y);
        opt.step(&mut model.params_mut());
        hash_bits(&mut hash, &[r.loss]);
    }
    let (sample, input, _) = fx.batch(STEPS);
    hash_bits(&mut hash, model.forward(&sample.blocks, &input).data());
    hash
}

fn sage_forward(
    layers: &[SageLayer; 2],
    blocks: &[Block],
    input: &Matrix,
    ws: &mut Workspace,
) -> (LayerCache, LayerCache) {
    let (mut c0, mut c1) = (LayerCache::default(), LayerCache::default());
    layers[0].forward(&blocks[0], input, &mut c0, ws);
    layers[1].forward(&blocks[1], &c0.out, &mut c1, ws);
    (c0, c1)
}

fn sage_step(layers: &mut [SageLayer; 2], blocks: &[Block], input: &Matrix, y: &[usize]) -> f32 {
    let mut ws = Workspace::default();
    let (c0, c1) = sage_forward(layers, blocks, input, &mut ws);
    let loss = softmax_cross_entropy_into(&c1.out, y, &mut ws.d_out);
    layers[1].backward(&blocks[1], &c0.out, &c1, true, &mut ws);
    std::mem::swap(&mut ws.d_out, &mut ws.d_src);
    layers[0].backward(&blocks[0], input, &c0, false, &mut ws);
    loss
}

fn sage_logits(layers: &[SageLayer; 2], blocks: &[Block], input: &Matrix) -> Matrix {
    sage_forward(layers, blocks, input, &mut Workspace::default())
        .1
        .out
}

/// `build_model` only builds mean-aggregating GraphSAGE, so Sum and Max
/// run as a hand-stacked two-layer model.
fn sage_trajectory(aggregator: Aggregator) -> u64 {
    let fx = Fixture::new(&[4, 4]);
    let mut layers = [
        SageLayer::with_aggregator(DIM, HIDDEN, true, aggregator, 5),
        SageLayer::with_aggregator(HIDDEN, CLASSES, false, aggregator, 6),
    ];
    let mut opt = Adam::new(0.01);
    let mut hash = FNV_OFFSET;
    for step in 0..STEPS {
        let (sample, input, y) = fx.batch(step);
        let loss = sage_step(&mut layers, &sample.blocks, &input, &y);
        let [l0, l1] = &mut layers;
        opt.step(&mut [
            &mut l0.w_self,
            &mut l0.w_neigh,
            &mut l0.bias,
            &mut l1.w_self,
            &mut l1.w_neigh,
            &mut l1.bias,
        ]);
        hash_bits(&mut hash, &[loss]);
    }
    let (sample, input, _) = fx.batch(STEPS);
    hash_bits(
        &mut hash,
        sage_logits(&layers, &sample.blocks, &input).data(),
    );
    hash
}

#[test]
fn trajectories_match_the_reference_kernels_bit_for_bit() {
    let got = [
        ("GraphSAGE", model_trajectory(ModelKind::GraphSage)),
        ("GCN", model_trajectory(ModelKind::Gcn)),
        ("GAT", model_trajectory(ModelKind::Gat)),
        ("SAGE-mean", sage_trajectory(Aggregator::Mean)),
        ("SAGE-sum", sage_trajectory(Aggregator::Sum)),
        ("SAGE-max", sage_trajectory(Aggregator::Max)),
    ];
    let want: [(&str, u64); 6] = [
        ("GraphSAGE", 0xE502_AB39_467D_4A4A),
        ("GCN", 0xAE3F_ECE7_6A80_17CC),
        ("GAT", 0x132A_1978_EFC5_EA81),
        ("SAGE-mean", 0x0292_64F9_F04F_F241),
        ("SAGE-sum", 0xD856_32C3_D0D3_BA84),
        ("SAGE-max", 0x7BDF_72B5_C381_8BA7),
    ];
    assert_eq!(got, want, "a training trajectory moved");
}
