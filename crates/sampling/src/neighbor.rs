//! Random k-hop neighborhood sampler.

use crate::block::{Block, MiniBatchSample};
use crate::topo::TopoReader;
use gnndrive_graph::NodeId;
use gnndrive_sync::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// How neighbors are chosen within a fanout budget. The paper notes the
/// GNNDrive sampler "supports various sampling policies ... with high
/// adaptability"; these are the common ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingPolicy {
    /// Uniform without replacement (the paper's evaluation setting).
    Uniform,
    /// Keep every neighbor (fanout ignored) — full-neighborhood blocks for
    /// evaluation or whole-graph-style layers.
    Full,
    /// Deterministically keep the highest-in-degree neighbors — a
    /// cache-friendly policy (hubs are the best-buffered nodes).
    TopDegree,
}

/// Neighbor sampler with per-layer fanouts (e.g. `(10, 10, 10)` in the
/// paper's GraphSAGE/GCN configuration) and a pluggable policy.
pub struct NeighborSampler {
    topo: Arc<dyn TopoReader>,
    /// Fanouts in forward layer order; `fanouts.len()` = number of GNN
    /// layers = number of produced blocks.
    fanouts: Vec<usize>,
    policy: SamplingPolicy,
}

impl NeighborSampler {
    pub fn new(topo: Arc<dyn TopoReader>, fanouts: Vec<usize>) -> Self {
        Self::with_sampling_policy(topo, fanouts, SamplingPolicy::Uniform)
    }

    pub fn with_sampling_policy(
        topo: Arc<dyn TopoReader>,
        fanouts: Vec<usize>,
        policy: SamplingPolicy,
    ) -> Self {
        assert!(!fanouts.is_empty());
        NeighborSampler {
            topo,
            fanouts,
            policy,
        }
    }

    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }

    pub fn policy(&self) -> SamplingPolicy {
        self.policy
    }

    /// Sample the k-hop neighborhood of `seeds`.
    ///
    /// Deterministic given `(seeds, seed_rng)`: samplers in different
    /// systems draw identical subgraphs for identical inputs, which keeps
    /// cross-system comparisons apples-to-apples.
    pub fn sample(&self, batch_id: u64, seeds: &[NodeId], rng_seed: u64) -> MiniBatchSample {
        let mut rng = Rng::seed_from_u64(rng_seed ^ batch_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        // Dedup seeds while preserving order (duplicate training ids would
        // break the local-index bijection).
        let mut seen: HashMap<NodeId, u32> = HashMap::with_capacity(seeds.len() * 2);
        let mut targets: Vec<NodeId> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            seen.entry(s).or_insert_with(|| {
                targets.push(s);
                (targets.len() - 1) as u32
            });
        }

        // Walk layers from the output inward, building blocks in reverse.
        let mut blocks_rev: Vec<Block> = Vec::with_capacity(self.fanouts.len());
        let (mut adjacency, mut bounds) = (Vec::new(), Vec::new());
        for &fanout in self.fanouts.iter().rev() {
            let num_dst = targets.len();
            // Prefix convention: sources start as a copy of the targets.
            let mut srcs: Vec<NodeId> = targets.clone();
            let mut local: HashMap<NodeId, u32> = srcs
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, i as u32))
                .collect();
            let mut edge_src = Vec::new();
            let mut edge_dst = Vec::new();

            // The whole hop's adjacency in one call, so a disk-backed
            // reader can have every missing page in flight at once.
            self.topo
                .neighbors_batch(&targets, &mut adjacency, &mut bounds);
            for (dst_local, list) in bounds.windows(2).enumerate() {
                let neighbors = &mut adjacency[list[0]..list[1]];
                let deg = neighbors.len();
                if deg == 0 {
                    continue;
                }
                let take = match self.policy {
                    SamplingPolicy::Full => deg,
                    _ => fanout.min(deg),
                };
                match self.policy {
                    SamplingPolicy::Uniform => {
                        // Partial Fisher–Yates: the first `take` entries
                        // become a uniform without-replacement sample.
                        for i in 0..take {
                            neighbors.swap(i, i + rng.below(deg - i));
                        }
                    }
                    SamplingPolicy::TopDegree => {
                        // Deterministic: highest in-degree first.
                        neighbors.sort_unstable_by_key(|&n| std::cmp::Reverse(self.topo.degree(n)));
                    }
                    SamplingPolicy::Full => {}
                }
                for &src in &neighbors[..take] {
                    let next = srcs.len() as u32;
                    let src_local = *local.entry(src).or_insert_with(|| {
                        srcs.push(src);
                        next
                    });
                    edge_src.push(src_local);
                    edge_dst.push(dst_local as u32);
                }
            }

            blocks_rev.push(Block {
                num_src: srcs.len(),
                num_dst,
                edge_src,
                edge_dst,
            });
            targets = srcs;
        }

        blocks_rev.reverse();
        // Deduped seeds in first-appearance order, from the dedup pass.
        let mut unique_seeds = vec![0 as NodeId; seen.len()];
        for (&node, &idx) in &seen {
            unique_seeds[idx as usize] = node;
        }
        let sample = MiniBatchSample {
            batch_id,
            seeds: unique_seeds,
            input_nodes: targets,
            blocks: blocks_rev,
        };
        sample.check();
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::InMemTopo;
    use gnndrive_graph::{generate_graph, CscTopology};
    use gnndrive_sync::rng::cases;

    fn reader(n: usize, edges: usize, seed: u64) -> (Arc<CscTopology>, Arc<dyn TopoReader>) {
        let g = generate_graph(n, edges, 4, 0.5, seed);
        let topo = Arc::new(g.topology);
        let r: Arc<dyn TopoReader> = Arc::new(InMemTopo::new(Arc::clone(&topo)));
        (topo, r)
    }

    #[test]
    fn produces_chained_blocks_with_prefix_convention() {
        let (topo, r) = reader(500, 4000, 1);
        let sampler = NeighborSampler::new(r, vec![5, 5]);
        let sample = sampler.sample(0, &[1, 2, 3, 4, 5], 7);
        sample.check();
        assert_eq!(sample.blocks.len(), 2);
        assert_eq!(sample.seeds, vec![1, 2, 3, 4, 5]);
        // Prefix convention at the outer block: first sources are seeds.
        let outer = sample.blocks.last().unwrap();
        assert_eq!(outer.num_dst, 5);
        // Every sampled edge is a real graph edge.
        let inner = &sample.blocks[0];
        let mid_nodes: Vec<NodeId> =
            sample.input_nodes[..inner.num_dst.min(sample.input_nodes.len())].to_vec();
        let _ = (topo, mid_nodes);
    }

    #[test]
    fn sampled_edges_exist_in_graph() {
        let (topo, r) = reader(300, 3000, 2);
        let sampler = NeighborSampler::new(r, vec![4, 4]);
        let sample = sampler.sample(3, &[10, 20, 30], 9);
        // Reconstruct node ids per layer: layer-0 srcs are input_nodes;
        // dsts of block b are the first num_dst of its srcs.
        let mut layer_nodes: Vec<Vec<NodeId>> = vec![sample.input_nodes.clone()];
        for b in &sample.blocks {
            let dsts = layer_nodes.last().unwrap()[..b.num_dst].to_vec();
            layer_nodes.push(dsts);
        }
        for (li, b) in sample.blocks.iter().enumerate() {
            let srcs = &layer_nodes[li];
            let dsts = &layer_nodes[li + 1];
            for (&s, &d) in b.edge_src.iter().zip(b.edge_dst.iter()) {
                let src_node = srcs[s as usize];
                let dst_node = dsts[d as usize];
                assert!(
                    topo.neighbors(dst_node).contains(&src_node),
                    "sampled edge {src_node}->{dst_node} not in graph"
                );
            }
        }
    }

    #[test]
    fn fanout_bounds_edges_per_destination() {
        let (_topo, r) = reader(400, 8000, 3);
        let fanout = 3;
        let sampler = NeighborSampler::new(r, vec![fanout]);
        let sample = sampler.sample(0, &(0..50u32).collect::<Vec<_>>(), 5);
        let b = &sample.blocks[0];
        let mut per_dst = vec![0usize; b.num_dst];
        for &d in &b.edge_dst {
            per_dst[d as usize] += 1;
        }
        assert!(per_dst.iter().all(|&c| c <= fanout));
    }

    #[test]
    fn without_replacement_no_duplicate_neighbors_per_dst() {
        // A simple (duplicate-free) graph: ring plus chords. On a simple
        // graph, without-replacement sampling can never repeat a neighbor.
        let n = 60u32;
        let mut edges = Vec::new();
        for v in 0..n {
            for k in 1..=12u32 {
                edges.push(((v + k) % n, v));
            }
        }
        let topo = Arc::new(CscTopology::from_edges(n as usize, &edges));
        let r: Arc<dyn TopoReader> = Arc::new(InMemTopo::new(topo));
        let sampler = NeighborSampler::new(r, vec![8]);
        let sample = sampler.sample(0, &(0..30u32).collect::<Vec<_>>(), 6);
        let b = &sample.blocks[0];
        let mut per_dst: Vec<Vec<u32>> = vec![Vec::new(); b.num_dst];
        for (&s, &d) in b.edge_src.iter().zip(b.edge_dst.iter()) {
            per_dst[d as usize].push(s);
        }
        for edges in &per_dst {
            let mut dedup = edges.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), edges.len(), "duplicate sampled neighbor");
        }
    }

    #[test]
    fn deterministic_for_same_inputs() {
        let (_topo, r) = reader(300, 3000, 5);
        let sampler = NeighborSampler::new(Arc::clone(&r), vec![5, 5]);
        let a = sampler.sample(7, &[1, 2, 3], 42);
        let b = sampler.sample(7, &[1, 2, 3], 42);
        assert_eq!(a, b);
        let c = sampler.sample(8, &[1, 2, 3], 42);
        assert_ne!(a.blocks, c.blocks);
    }

    #[test]
    fn duplicate_seeds_are_deduped() {
        let (_topo, r) = reader(100, 1000, 6);
        let sampler = NeighborSampler::new(r, vec![2]);
        let sample = sampler.sample(0, &[5, 5, 7, 5], 1);
        assert_eq!(sample.seeds, vec![5, 7]);
        sample.check();
    }

    #[test]
    fn full_policy_takes_every_neighbor() {
        let (topo, r) = reader(200, 2000, 11);
        let sampler = NeighborSampler::with_sampling_policy(r, vec![2], SamplingPolicy::Full);
        let sample = sampler.sample(0, &[3, 4, 5], 1);
        let b = &sample.blocks[0];
        let mut per_dst = vec![0usize; b.num_dst];
        for &d in &b.edge_dst {
            per_dst[d as usize] += 1;
        }
        for (d, &seed) in sample.seeds.iter().enumerate() {
            assert_eq!(per_dst[d], topo.neighbors(seed).len(), "dst {seed}");
        }
    }

    #[test]
    fn top_degree_policy_is_deterministic_and_degree_sorted() {
        let (topo, r) = reader(300, 5000, 12);
        let sampler = NeighborSampler::with_sampling_policy(
            Arc::clone(&r),
            vec![3],
            SamplingPolicy::TopDegree,
        );
        let a = sampler.sample(0, &[1, 2, 3], 5);
        let b = sampler.sample(0, &[1, 2, 3], 99); // seed-independent
        assert_eq!(a, b, "TopDegree must not depend on the RNG seed");
        // Sampled neighbors of seed 1 have max degrees among its neighbors.
        let blk = &a.blocks[0];
        let picked: Vec<u32> = blk
            .edge_src
            .iter()
            .zip(blk.edge_dst.iter())
            .filter(|&(_, &d)| d == 0)
            .map(|(&s, _)| a.input_nodes[s as usize])
            .collect();
        if !picked.is_empty() {
            let min_picked = picked.iter().map(|&n| topo.degree(n)).min().unwrap();
            let all: Vec<usize> = topo
                .neighbors(a.seeds[0])
                .iter()
                .map(|&n| topo.degree(n))
                .collect();
            let mut sorted = all.clone();
            sorted.sort_unstable_by(|x, y| y.cmp(x));
            let kth = sorted[picked.len() - 1];
            assert!(min_picked >= kth.min(*sorted.last().unwrap()));
        }
    }

    /// input_nodes must contain no duplicates and must cover every node
    /// referenced by the first block.
    #[test]
    fn input_nodes_are_unique_and_cover() {
        let (_topo, r) = reader(200, 2500, 7);
        let sampler = NeighborSampler::new(r, vec![3, 3]);
        cases(16, |rng| {
            let seeds: Vec<NodeId> = (0..1 + rng.below(39))
                .map(|_| rng.below(200) as NodeId)
                .collect();
            let salt = rng.below(100) as u64;
            let sample = sampler.sample(salt, &seeds, salt);
            let mut uniq = sample.input_nodes.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), sample.input_nodes.len());
            assert!(sample.blocks[0].num_src == sample.input_nodes.len());
        });
    }
}
