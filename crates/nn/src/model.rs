//! Stacked multi-layer GNN models.

use crate::gat::GatLayer;
use crate::gcn::GcnLayer;
use crate::sage::SageLayer;
use crate::workspace::{LayerCache, Workspace};
use gnndrive_sampling::Block;
use gnndrive_tensor::{softmax_cross_entropy_into, Matrix, Param};

/// Which architecture to build (§5 "GNN Models").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    GraphSage,
    Gcn,
    Gat,
}

impl ModelKind {
    pub const ALL: [ModelKind; 3] = [ModelKind::GraphSage, ModelKind::Gcn, ModelKind::Gat];

    pub fn name(self) -> &'static str {
        match self {
            ModelKind::GraphSage => "GraphSAGE",
            ModelKind::Gcn => "GCN",
            ModelKind::Gat => "GAT",
        }
    }

    /// The paper's sampling fanouts: (10, 10, 10) for GraphSAGE/GCN,
    /// (10, 10, 5) for GAT.
    #[cfg(test)]
    pub fn paper_fanouts(self) -> Vec<usize> {
        match self {
            ModelKind::GraphSage | ModelKind::Gcn => vec![10, 10, 10],
            ModelKind::Gat => vec![10, 10, 5],
        }
    }
}

enum Layer {
    Sage(SageLayer),
    Gcn(GcnLayer),
    Gat(GatLayer),
}

impl Layer {
    fn forward(&self, block: &Block, h: &Matrix, cache: &mut LayerCache, ws: &mut Workspace) {
        match self {
            Layer::Sage(l) => l.forward(block, h, cache, ws),
            Layer::Gcn(l) => l.forward(block, h, cache, ws),
            Layer::Gat(l) => l.forward(block, h, cache, ws),
        }
    }

    /// Upstream gradient in `ws.d_out`; input gradient, if wanted, out in
    /// `ws.d_src`. `h` and `cache` are what forward took and filled.
    fn backward(
        &mut self,
        block: &Block,
        h: &Matrix,
        cache: &LayerCache,
        want_input_grad: bool,
        ws: &mut Workspace,
    ) {
        match self {
            Layer::Sage(l) => l.backward(block, h, cache, want_input_grad, ws),
            Layer::Gcn(l) => l.backward(block, cache, want_input_grad, ws),
            Layer::Gat(l) => l.backward(block, h, cache, want_input_grad, ws),
        }
    }

    fn flops(&self, block: &Block) -> u64 {
        match self {
            Layer::Sage(l) => l.flops(block),
            Layer::Gcn(l) => l.flops(block),
            Layer::Gat(l) => l.flops(block),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Layer::Sage(l) => vec![&mut l.w_self, &mut l.w_neigh, &mut l.bias],
            Layer::Gcn(l) => vec![&mut l.weight, &mut l.bias],
            Layer::Gat(l) => vec![&mut l.weight, &mut l.a_src, &mut l.a_dst, &mut l.bias],
        }
    }
}

/// The outcome of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepResult {
    pub loss: f32,
}

/// A k-layer GNN ending in a `num_classes` classifier head.
pub struct GnnModel {
    kind: ModelKind,
    layers: Vec<Layer>,
    in_dim: usize,
    num_classes: usize,
    /// One cache per layer (its output is the next layer's input).
    caches: Vec<LayerCache>,
    /// With `caches`, the model's scratch arena: every buffer a step
    /// touches lives here and grows to the largest batch seen, so a
    /// steady-state `train_step` allocates nothing.
    ws: Workspace,
}

/// Checkpoint format magic ("GNDM" + version 1).
const CHECKPOINT_MAGIC: [u8; 4] = *b"GNDM";
const CHECKPOINT_VERSION: u8 = 1;

impl ModelKind {
    fn tag(self) -> u8 {
        match self {
            ModelKind::GraphSage => 0,
            ModelKind::Gcn => 1,
            ModelKind::Gat => 2,
        }
    }

    fn from_tag(t: u8) -> Option<ModelKind> {
        match t {
            0 => Some(ModelKind::GraphSage),
            1 => Some(ModelKind::Gcn),
            2 => Some(ModelKind::Gat),
            _ => None,
        }
    }
}

/// Build a `num_layers`-deep model of the given kind.
///
/// Layer widths follow the paper: input → hidden → … → hidden → classes,
/// ReLU between layers, linear head.
pub fn build_model(
    kind: ModelKind,
    in_dim: usize,
    hidden: usize,
    num_classes: usize,
    num_layers: usize,
    seed: u64,
) -> GnnModel {
    assert!(num_layers >= 1);
    let mut layers = Vec::with_capacity(num_layers);
    for i in 0..num_layers {
        let li = if i == 0 { in_dim } else { hidden };
        let lo = if i == num_layers - 1 {
            num_classes
        } else {
            hidden
        };
        let relu = i != num_layers - 1;
        let lseed = seed.wrapping_add((i as u64 + 1) * 0x9E37);
        layers.push(match kind {
            ModelKind::GraphSage => Layer::Sage(SageLayer::new(li, lo, relu, lseed)),
            ModelKind::Gcn => Layer::Gcn(GcnLayer::new(li, lo, relu, lseed)),
            ModelKind::Gat => Layer::Gat(GatLayer::new(li, lo, relu, lseed)),
        });
    }
    GnnModel {
        kind,
        caches: layers.iter().map(|_| LayerCache::default()).collect(),
        layers,
        in_dim,
        num_classes,
        ws: Workspace::default(),
    }
}

impl GnnModel {
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Inference over the block stack: `input` rows correspond to the first
    /// block's source nodes; returns seed logits.
    pub fn forward(&self, blocks: &[Block], input: &Matrix) -> Matrix {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        // `&self` cannot lend out the model's own scratch; one cache serves
        // every layer in turn, trading outputs with `h`.
        let mut ws = Workspace::default();
        let mut cache = LayerCache::default();
        let mut h = Matrix::default();
        for (l, (layer, block)) in self.layers.iter().zip(blocks.iter()).enumerate() {
            layer.forward(block, if l == 0 { input } else { &h }, &mut cache, &mut ws);
            std::mem::swap(&mut h, &mut cache.out);
        }
        h
    }

    /// One training step: forward, softmax cross-entropy against `labels`,
    /// full backward accumulating parameter gradients. The caller applies
    /// the optimizer.
    pub fn train_step(&mut self, blocks: &[Block], input: &Matrix, labels: &[usize]) -> StepResult {
        assert_eq!(blocks.len(), self.layers.len(), "one block per layer");
        let (caches, ws) = (&mut self.caches, &mut self.ws);
        for (l, (layer, block)) in self.layers.iter().zip(blocks.iter()).enumerate() {
            let (done, rest) = caches.split_at_mut(l);
            let h = done.last().map_or(input, |c| &c.out);
            layer.forward(block, h, &mut rest[0], ws);
        }
        let logits = &caches.last().expect("at least one layer").out;
        let loss = softmax_cross_entropy_into(logits, labels, &mut ws.d_out);
        for (l, (layer, block)) in self.layers.iter_mut().zip(blocks.iter()).enumerate().rev() {
            let h = if l == 0 { input } else { &caches[l - 1].out };
            // Nothing differentiates the input features, so layer 0 stops
            // at its parameter gradients.
            layer.backward(block, h, &caches[l], l > 0, ws);
            std::mem::swap(&mut ws.d_out, &mut ws.d_src);
        }
        // An odd number of swaps leaves the two gradient buffers in each
        // other's roles; put them back so each keeps the sizes it grew to.
        if self.layers.len() % 2 == 1 {
            std::mem::swap(&mut ws.d_out, &mut ws.d_src);
        }
        StepResult { loss }
    }

    /// All trainable parameters (for the optimizer).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Serialize the architecture and all weights into a checkpoint blob.
    pub fn save(&mut self) -> Vec<u8> {
        let kind = self.kind;
        let (in_dim, num_classes, layers) = (self.in_dim, self.num_classes, self.layers.len());
        // Hidden size is recoverable from the first layer's output width
        // for multi-layer models; store it explicitly to be safe.
        let hidden = match &self.layers[0] {
            Layer::Sage(l) => l.out_dim(),
            Layer::Gcn(l) => l.out_dim(),
            Layer::Gat(l) => l.out_dim(),
        };
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.push(CHECKPOINT_VERSION);
        out.push(kind.tag());
        out.extend_from_slice(&(in_dim as u64).to_le_bytes());
        out.extend_from_slice(&(hidden as u64).to_le_bytes());
        out.extend_from_slice(&(num_classes as u64).to_le_bytes());
        out.extend_from_slice(&(layers as u64).to_le_bytes());
        for p in self.params_mut() {
            out.extend_from_slice(&p.value.to_bytes());
        }
        out
    }

    /// Rebuild a model from a [`GnnModel::save`] blob.
    pub fn load(bytes: &[u8]) -> Result<GnnModel, String> {
        if bytes.len() < 38 || bytes[0..4] != CHECKPOINT_MAGIC {
            return Err("not a GNNDrive checkpoint".into());
        }
        if bytes[4] != CHECKPOINT_VERSION {
            return Err(format!("unsupported checkpoint version {}", bytes[4]));
        }
        let kind = ModelKind::from_tag(bytes[5]).ok_or("unknown model kind")?;
        let rd = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap()) as usize;
        let (in_dim, hidden, classes, layers) = (rd(6), rd(14), rd(22), rd(30));
        let mut model = build_model(kind, in_dim, hidden, classes, layers, 0);
        let mut pos = 38;
        for p in model.params_mut() {
            let (m, used) = Matrix::from_bytes(&bytes[pos..]).ok_or("truncated checkpoint")?;
            if (m.rows(), m.cols()) != (p.value.rows(), p.value.cols()) {
                return Err("checkpoint shape mismatch".into());
            }
            p.value = m;
            pos += used;
        }
        if pos != bytes.len() {
            return Err("trailing bytes in checkpoint".into());
        }
        Ok(model)
    }

    /// Estimated forward+backward FLOPs on a block stack (drives the
    /// simulated device's compute model).
    pub fn flops(&self, blocks: &[Block]) -> u64 {
        self.layers
            .iter()
            .zip(blocks.iter())
            .map(|(l, b)| l.flops(b))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::generate_graph;
    use gnndrive_sampling::{InMemTopo, NeighborSampler};
    use gnndrive_tensor::{Adam, Optimizer};
    use std::sync::Arc;

    fn planted_setup() -> (Arc<gnndrive_graph::CscTopology>, Vec<u32>, Vec<f32>, usize) {
        let g = generate_graph(400, 4000, 4, 0.85, 21);
        let dim = 16;
        let feats = gnndrive_graph::generate::generate_features(&g.labels, 4, dim, 1.5, 21);
        (Arc::new(g.topology), g.labels, feats, dim)
    }

    fn gather_input(feats: &[f32], dim: usize, nodes: &[u32]) -> Matrix {
        let mut m = Matrix::zeros(nodes.len(), dim);
        for (i, &v) in nodes.iter().enumerate() {
            m.row_mut(i)
                .copy_from_slice(&feats[v as usize * dim..(v as usize + 1) * dim]);
        }
        m
    }

    /// Shared harness: a few epochs of mini-batch training on the planted
    /// graph must lift training accuracy well above chance (25%).
    fn learns(kind: ModelKind) {
        let (topo, labels, feats, dim) = planted_setup();
        let sampler = NeighborSampler::new(Arc::new(InMemTopo::new(Arc::clone(&topo))), vec![5, 5]);
        let mut model = build_model(kind, dim, 16, 4, 2, 3);
        let mut opt = Adam::new(0.01);
        let train: Vec<u32> = (0..200u32).collect();
        for epoch in 0..6 {
            for (bi, chunk) in train.chunks(50).enumerate() {
                let sample = sampler.sample(bi as u64, chunk, epoch);
                let input = gather_input(&feats, dim, &sample.input_nodes);
                let y: Vec<usize> = sample
                    .seeds
                    .iter()
                    .map(|&s| labels[s as usize] as usize)
                    .collect();
                model.train_step(&sample.blocks, &input, &y);
                let mut params = model.params_mut();
                opt.step(&mut params);
            }
        }
        // Evaluate on held-out nodes.
        let eval: Vec<u32> = (200..400u32).collect();
        let sample = sampler.sample(999, &eval, 123);
        let input = gather_input(&feats, dim, &sample.input_nodes);
        let logits = model.forward(&sample.blocks, &input);
        let y: Vec<usize> = sample
            .seeds
            .iter()
            .map(|&s| labels[s as usize] as usize)
            .collect();
        let acc = crate::metrics::accuracy(&logits, &y);
        assert!(
            acc > 0.55,
            "{} should beat 25% chance clearly, got {acc}",
            kind.name()
        );
    }

    #[test]
    fn graphsage_learns_planted_labels() {
        learns(ModelKind::GraphSage);
    }

    #[test]
    fn gcn_learns_planted_labels() {
        learns(ModelKind::Gcn);
    }

    #[test]
    fn gat_learns_planted_labels() {
        learns(ModelKind::Gat);
    }

    #[test]
    fn loss_decreases_over_steps() {
        let (topo, labels, feats, dim) = planted_setup();
        let sampler = NeighborSampler::new(Arc::new(InMemTopo::new(topo)), vec![4, 4]);
        let mut model = build_model(ModelKind::GraphSage, dim, 8, 4, 2, 5);
        let mut opt = Adam::new(0.02);
        let seeds: Vec<u32> = (0..64u32).collect();
        let mut first = None;
        let mut last = 0.0;
        for step in 0..30 {
            let sample = sampler.sample(step, &seeds, 7);
            let input = gather_input(&feats, dim, &sample.input_nodes);
            let y: Vec<usize> = sample
                .seeds
                .iter()
                .map(|&s| labels[s as usize] as usize)
                .collect();
            let r = model.train_step(&sample.blocks, &input, &y);
            let mut params = model.params_mut();
            opt.step(&mut params);
            if first.is_none() {
                first = Some(r.loss);
            }
            last = r.loss;
        }
        assert!(
            last < first.unwrap() * 0.7,
            "loss should drop: {} -> {last}",
            first.unwrap()
        );
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions() {
        let (topo, labels, feats, dim) = planted_setup();
        let sampler = NeighborSampler::new(Arc::new(InMemTopo::new(topo)), vec![4, 4]);
        let mut model = build_model(ModelKind::Gat, dim, 8, 4, 2, 7);
        // One training step so weights aren't pristine.
        let sample = sampler.sample(0, &[1, 2, 3, 4], 5);
        let input = gather_input(&feats, dim, &sample.input_nodes);
        let y: Vec<usize> = sample
            .seeds
            .iter()
            .map(|&s| labels[s as usize] as usize)
            .collect();
        model.train_step(&sample.blocks, &input, &y);
        let blob = model.save();
        let restored = GnnModel::load(&blob).expect("load");
        let a = model.forward(&sample.blocks, &input);
        let b = restored.forward(&sample.blocks, &input);
        assert_eq!(a, b, "restored model must predict identically");
        // Corruption is detected.
        assert!(GnnModel::load(&blob[..20]).is_err());
        let mut bad = blob.clone();
        bad[5] = 99;
        assert!(GnnModel::load(&bad).is_err());
    }

    #[test]
    fn skipping_the_input_gradient_leaves_parameter_gradients_bit_identical() {
        let (topo, _labels, feats, dim) = planted_setup();
        let sampler = NeighborSampler::new(Arc::new(InMemTopo::new(topo)), vec![5]);
        let sample = sampler.sample(0, &(0..40u32).collect::<Vec<_>>(), 1);
        let input = gather_input(&feats, dim, &sample.input_nodes);
        let upstream = Matrix::from_fn(40, 8, |r, c| ((r * 5 + c * 3) % 7) as f32 * 0.25 - 0.6);
        for kind in ModelKind::ALL {
            let mut model = build_model(kind, dim, 8, 4, 2, 9);
            let (layer, cache, ws) = (&mut model.layers[0], &mut model.caches[0], &mut model.ws);
            layer.forward(&sample.blocks[0], &input, cache, ws);
            let mut param_grads = |want_input_grad: bool| -> Vec<u32> {
                ws.d_out = upstream.clone();
                layer.backward(&sample.blocks[0], &input, cache, want_input_grad, ws);
                let mut bits = Vec::new();
                for p in layer.params_mut() {
                    bits.extend(p.grad.data().iter().map(|g| g.to_bits()));
                    p.zero_grad();
                }
                bits
            };
            let (skipped, computed) = (param_grads(false), param_grads(true));
            assert!(skipped.iter().any(|&b| b != 0), "{}: all-zero", kind.name());
            assert_eq!(skipped, computed, "{}", kind.name());
        }
    }

    #[test]
    fn paper_fanouts_match_models() {
        assert_eq!(ModelKind::GraphSage.paper_fanouts(), vec![10, 10, 10]);
        assert_eq!(ModelKind::Gat.paper_fanouts(), vec![10, 10, 5]);
    }

    #[test]
    fn gat_flops_exceed_sage_flops_on_same_blocks() {
        let (topo, _labels, _feats, _dim) = planted_setup();
        let sampler = NeighborSampler::new(Arc::new(InMemTopo::new(topo)), vec![5, 5]);
        let sample = sampler.sample(0, &(0..50u32).collect::<Vec<_>>(), 1);
        let sage = build_model(ModelKind::GraphSage, 16, 16, 4, 2, 1);
        let gat = build_model(ModelKind::Gat, 16, 16, 4, 2, 1);
        // GAT's per-edge attention work shows up in the estimate.
        assert!(gat.flops(&sample.blocks) > sage.flops(&sample.blocks) / 2);
    }
}
