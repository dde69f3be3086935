//! Sampled mini-batch representation: stacked bipartite blocks.
//!
//! Each GNN layer trains on a bipartite graph ("block") whose destination
//! nodes are the layer's outputs and whose source nodes are the sampled
//! in-neighbors plus the destinations themselves. We keep the standard
//! *prefix convention*: the first `num_dst` source nodes of a block are its
//! destination nodes, so a layer can read "self" features as rows
//! `0..num_dst` of its input.

use gnndrive_graph::NodeId;

/// One bipartite sampling layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Number of source (input) nodes; sources `0..num_dst` are the
    /// destinations themselves (prefix convention).
    pub num_src: usize,
    /// Number of destination (output) nodes.
    pub num_dst: usize,
    /// Per sampled edge: local source index.
    pub edge_src: Vec<u32>,
    /// Per sampled edge: local destination index.
    pub edge_dst: Vec<u32>,
}

impl Block {
    pub fn num_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// The sampled edges in order, as `(source row, destination)` indices.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        let pairs = self.edge_src.iter().zip(&self.edge_dst);
        pairs.map(|(&s, &d)| (s as usize, d as usize))
    }

    /// [`Block::edges`] followed by one self-loop per destination: `d` is
    /// source row `d` by the prefix convention.
    pub fn edges_with_self_loops(&self) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.edges().chain((0..self.num_dst).map(|d| (d, d)))
    }

    /// Validate the structural invariants (debug/test helper).
    pub fn check(&self) {
        assert!(self.num_dst <= self.num_src, "prefix convention violated");
        assert_eq!(self.edge_src.len(), self.edge_dst.len());
        for (&s, &d) in self.edge_src.iter().zip(self.edge_dst.iter()) {
            assert!((s as usize) < self.num_src, "edge src out of range");
            assert!((d as usize) < self.num_dst, "edge dst out of range");
        }
    }
}

/// The product of the sample stage for one mini-batch: what the extract
/// stage needs (`input_nodes`) and what the train stage needs (`blocks`,
/// `seeds`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniBatchSample {
    /// Position of this mini-batch within the epoch (used to study
    /// reordering; see §4.3).
    pub batch_id: u64,
    /// The labeled training nodes of this batch (= destinations of the last
    /// block, in order).
    pub seeds: Vec<NodeId>,
    /// Unique graph nodes whose feature rows the extract stage must load —
    /// the sources of the first block, in local-index order.
    pub input_nodes: Vec<NodeId>,
    /// Blocks in forward order: `blocks[0]` consumes the input features,
    /// `blocks.last()` produces seed embeddings.
    pub blocks: Vec<Block>,
}

impl MiniBatchSample {
    /// Total sampled edges across layers.
    pub fn num_edges(&self) -> usize {
        self.blocks.iter().map(|b| b.num_edges()).sum()
    }

    /// Validate cross-block consistency: each block's dst count equals the
    /// next block's... (sources shrink toward the seeds).
    pub fn check(&self) {
        assert!(!self.blocks.is_empty());
        for b in &self.blocks {
            b.check();
        }
        assert_eq!(self.blocks[0].num_src, self.input_nodes.len());
        assert_eq!(self.blocks.last().unwrap().num_dst, self.seeds.len());
        for w in self.blocks.windows(2) {
            assert_eq!(
                w[0].num_dst, w[1].num_src,
                "layer interface sizes must chain"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_check_accepts_valid() {
        let b = Block {
            num_src: 5,
            num_dst: 2,
            edge_src: vec![2, 3, 4],
            edge_dst: vec![0, 1, 1],
        };
        b.check();
        assert_eq!(b.num_edges(), 3);
        let edges: Vec<_> = b.edges_with_self_loops().collect();
        assert_eq!(edges, [(2, 0), (3, 1), (4, 1), (0, 0), (1, 1)]);
        assert!(b.edges().eq(edges[..3].iter().copied()));
    }

    #[test]
    #[should_panic(expected = "edge dst out of range")]
    fn block_check_rejects_bad_dst() {
        Block {
            num_src: 5,
            num_dst: 2,
            edge_src: vec![0],
            edge_dst: vec![2],
        }
        .check();
    }

    #[test]
    #[should_panic(expected = "prefix convention violated")]
    fn block_check_rejects_more_dst_than_src() {
        Block {
            num_src: 1,
            num_dst: 2,
            edge_src: vec![],
            edge_dst: vec![],
        }
        .check();
    }

    #[test]
    fn sample_check_chains_interfaces() {
        let sample = MiniBatchSample {
            batch_id: 0,
            seeds: vec![9],
            input_nodes: vec![9, 4, 7],
            blocks: vec![
                Block {
                    num_src: 3,
                    num_dst: 2,
                    edge_src: vec![2],
                    edge_dst: vec![1],
                },
                Block {
                    num_src: 2,
                    num_dst: 1,
                    edge_src: vec![1],
                    edge_dst: vec![0],
                },
            ],
        };
        sample.check();
        assert_eq!(sample.num_edges(), 2);
    }
}
