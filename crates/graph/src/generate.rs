//! Deterministic synthetic graph generation.
//!
//! The paper's datasets are real-world graphs; here we substitute a
//! generator that preserves what the experiments rely on:
//!
//! * **power-law in-degrees** — sampling cost and cache behaviour are
//!   dominated by hubs;
//! * **planted communities** — node labels correlated with both features
//!   and neighborhoods, so GNN aggregation genuinely improves accuracy and
//!   the time-to-accuracy experiment (Fig 14) converges like the paper's;
//! * **class-centroid features** — feature[v] = centroid(label(v)) · s +
//!   noise, the standard planted-partition feature model. (For Twitter and
//!   Friendster the paper itself generates random features/labels; our
//!   generator covers both with the `signal` knob.)

use crate::csc::CscTopology;
use crate::NodeId;
use gnndrive_sync::Rng;

/// A generated graph plus its planted ground truth.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    pub topology: CscTopology,
    /// Planted class of each node.
    pub labels: Vec<u32>,
    pub num_classes: usize,
}

/// Generate `num_nodes` nodes and `num_edges` directed edges.
///
/// Endpoint selection uses a Zipf-like weighting (rank^-0.8) for hub-heavy
/// degrees; with probability `intra_prob` the edge stays inside the source's
/// community, otherwise the destination is free. Self-loops are avoided
/// (they carry no information for aggregation).
pub fn generate_graph(
    num_nodes: usize,
    num_edges: usize,
    num_classes: usize,
    intra_prob: f64,
    seed: u64,
) -> GeneratedGraph {
    assert!(num_nodes >= 2, "need at least two nodes");
    assert!(num_classes >= 1);
    let mut rng = Rng::seed_from_u64(seed);

    // Planted communities: contiguous id ranges would make range-partition
    // baselines unrealistically good, so shuffle the assignment.
    let mut labels: Vec<u32> = (0..num_nodes).map(|i| (i % num_classes) as u32).collect();
    rng.shuffle(&mut labels);
    // Per-class member lists for intra-community edge endpoints.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); num_classes];
    for (v, &c) in labels.iter().enumerate() {
        members[c as usize].push(v as NodeId);
    }

    // Zipf-ish sampler over node ids: rank-weighted pick via the inverse-CDF
    // trick u^k with k>1 concentrating mass on low ranks. A fixed random
    // permutation maps rank to node id so hubs are spread across ids.
    let mut rank_to_node: Vec<NodeId> = (0..num_nodes as NodeId).collect();
    rng.shuffle(&mut rank_to_node);
    let pick_weighted = |rng: &mut Rng| -> NodeId {
        let rank = ((rng.unit().powf(2.5)) * num_nodes as f64) as usize;
        rank_to_node[rank.min(num_nodes - 1)]
    };

    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        let src = pick_weighted(&mut rng);
        let dst = if rng.bool(intra_prob) {
            let community = &members[labels[src as usize] as usize];
            community[rng.below(community.len())]
        } else {
            pick_weighted(&mut rng)
        };
        if src != dst {
            edges.push((src, dst));
        }
    }

    GeneratedGraph {
        topology: CscTopology::from_edges(num_nodes, &edges),
        labels,
        num_classes,
    }
}

/// Streaming synthesis of the feature table: `feature[v] = signal ·
/// centroid(label(v)) + noise`, centroids being random ±1 patterns per
/// class. Rows come out in node order from one RNG stream (centroids drawn
/// first), so any chunking yields the same table as generating it whole.
pub struct FeatureGen {
    rng: Rng,
    centroids: Vec<f32>,
    dim: usize,
    signal: f32,
}

impl FeatureGen {
    pub fn new(num_classes: usize, dim: usize, signal: f32, seed: u64) -> FeatureGen {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5eed_f00d);
        let mut centroids = vec![0.0f32; num_classes * dim];
        for c in centroids.iter_mut() {
            *c = if rng.bool(0.5) { 1.0 } else { -1.0 };
        }
        FeatureGen {
            rng,
            centroids,
            dim,
            signal,
        }
    }

    /// Generate the rows of the next `labels.len()` nodes into `out`
    /// (row-major, `labels.len() × dim`).
    pub fn write_rows(&mut self, labels: &[u32], out: &mut [f32]) {
        let dim = self.dim;
        assert_eq!(out.len(), labels.len() * dim, "one row per label");
        for (row, &label) in out.chunks_exact_mut(dim.max(1)).zip(labels) {
            let cent = &self.centroids[label as usize * dim..(label as usize + 1) * dim];
            for (r, &c) in row.iter_mut().zip(cent.iter()) {
                *r = self.signal * c + self.rng.f32(-1.0..1.0);
            }
        }
    }
}

/// The whole feature table at once: row-major `num_nodes × dim` f32 data.
pub fn generate_features(
    labels: &[u32],
    num_classes: usize,
    dim: usize,
    signal: f32,
    seed: u64,
) -> Vec<f32> {
    let mut out = vec![0.0f32; labels.len() * dim];
    FeatureGen::new(num_classes, dim, signal, seed).write_rows(labels, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_graph(100, 500, 4, 0.7, 9);
        let b = generate_graph(100, 500, 4, 0.7, 9);
        assert_eq!(a.topology, b.topology);
        assert_eq!(a.labels, b.labels);
        let c = generate_graph(100, 500, 4, 0.7, 10);
        assert_ne!(a.topology, c.topology);
    }

    #[test]
    fn exact_node_and_edge_counts() {
        let g = generate_graph(1000, 5000, 8, 0.6, 1);
        assert_eq!(g.topology.num_nodes(), 1000);
        assert_eq!(g.topology.num_edges(), 5000);
        assert_eq!(g.labels.len(), 1000);
        assert!(g.labels.iter().all(|&l| l < 8));
    }

    #[test]
    fn degrees_are_skewed() {
        let g = generate_graph(2000, 20000, 4, 0.0, 2);
        let mut degrees: Vec<usize> = (0..2000).map(|v| g.topology.degree(v as u32)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = degrees[..20].iter().sum();
        // Hubs: the top 1% of nodes should hold far more than 1% of edges.
        assert!(
            top1pct as f64 > 0.05 * 20000.0,
            "top-1% in-degree share too small: {top1pct}"
        );
    }

    #[test]
    fn high_intra_prob_makes_homophilous_edges() {
        let g = generate_graph(1000, 10000, 5, 0.9, 3);
        let mut intra = 0usize;
        let mut total = 0usize;
        for v in 0..1000u32 {
            for &src in g.topology.neighbors(v) {
                total += 1;
                if g.labels[src as usize] == g.labels[v as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.7, "homophily too low: {frac}");
    }

    #[test]
    fn no_self_loops() {
        let g = generate_graph(500, 3000, 4, 0.5, 4);
        for v in 0..500u32 {
            assert!(!g.topology.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn features_separate_classes() {
        let labels = vec![0u32, 0, 1, 1];
        let feats = generate_features(&labels, 2, 64, 2.0, 7);
        let dot = |a: usize, b: usize| -> f32 {
            (0..64).map(|d| feats[a * 64 + d] * feats[b * 64 + d]).sum()
        };
        // Same-class rows correlate far more than cross-class rows.
        assert!(dot(0, 1) > dot(0, 2) + 50.0);
        assert!(dot(2, 3) > dot(1, 2) + 50.0);
    }

    #[test]
    fn chunked_generation_equals_the_whole_table() {
        let labels: Vec<u32> = (0..103u32).map(|v| v * 7 % 5).collect();
        let dim = 6;
        let whole = generate_features(&labels, 5, dim, 1.5, 11);
        let mut gen = FeatureGen::new(5, dim, 1.5, 11);
        let mut chunked = Vec::new();
        // 10 does not divide 103: the last chunk is short.
        for chunk in labels.chunks(10) {
            let mut rows = vec![0.0; chunk.len() * dim];
            gen.write_rows(chunk, &mut rows);
            chunked.extend(rows);
        }
        assert_eq!(chunked.len(), whole.len());
        assert!(chunked
            .iter()
            .zip(&whole)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn zero_signal_features_are_noise() {
        let labels = vec![0u32, 1];
        let feats = generate_features(&labels, 2, 32, 0.0, 5);
        assert!(feats.iter().all(|&f| (-1.0..1.0).contains(&f)));
    }
}
