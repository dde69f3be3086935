//! Compressed-sparse-column adjacency.
//!
//! Following the paper (§5, "Datasets"): "The topological data is stored in
//! a compressed sparse column (CSC)-formatted adjacency matrix". Column `v`
//! lists the **in-neighbors** of `v` — exactly what k-hop neighborhood
//! sampling walks backwards over.

use crate::NodeId;

/// In-memory CSC topology: `indptr[v]..indptr[v+1]` indexes into `indices`,
/// which holds the in-neighbors of `v`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CscTopology {
    indptr: Vec<u64>,
    indices: Vec<NodeId>,
}

impl CscTopology {
    /// Build from an edge list of `(src, dst)` pairs: `src` becomes an
    /// in-neighbor of `dst`. Duplicate edges are kept (they bias sampling
    /// toward heavy edges, as real multigraph dumps do).
    pub fn from_edges(num_nodes: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut counts = vec![0u64; num_nodes + 1];
        for &(_, dst) in edges {
            assert!((dst as usize) < num_nodes, "dst out of range");
            counts[dst as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let indptr = counts;
        let mut cursor = indptr.clone();
        let mut indices = vec![0 as NodeId; edges.len()];
        for &(src, dst) in edges {
            assert!((src as usize) < num_nodes, "src out of range");
            let pos = cursor[dst as usize];
            indices[pos as usize] = src;
            cursor[dst as usize] += 1;
        }
        CscTopology { indptr, indices }
    }

    pub fn num_nodes(&self) -> usize {
        self.indptr.len() - 1
    }

    pub fn num_edges(&self) -> usize {
        self.indices.len()
    }

    /// In-neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.indptr[v as usize] as usize;
        let e = self.indptr[v as usize + 1] as usize;
        &self.indices[s..e]
    }

    /// In-degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.indptr[v as usize + 1] - self.indptr[v as usize]) as usize
    }

    pub fn indptr(&self) -> &[u64] {
        &self.indptr
    }

    pub fn indices(&self) -> &[NodeId] {
        &self.indices
    }

    /// Serialize `indices` as little-endian bytes (the on-SSD layout).
    pub fn indices_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.indices.len() * 4);
        for &i in &self.indices {
            out.extend_from_slice(&i.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_sync::rng::cases;

    #[test]
    fn builds_in_neighbor_lists() {
        // Edges: 0->1, 0->2, 1->2, 2->0
        let topo = CscTopology::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        assert_eq!(topo.num_nodes(), 3);
        assert_eq!(topo.num_edges(), 4);
        assert_eq!(topo.neighbors(0), &[2]);
        assert_eq!(topo.neighbors(1), &[0]);
        let mut n2 = topo.neighbors(2).to_vec();
        n2.sort_unstable();
        assert_eq!(n2, vec![0, 1]);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbor_lists() {
        let topo = CscTopology::from_edges(4, &[(0, 1)]);
        assert_eq!(topo.neighbors(0), &[] as &[NodeId]);
        assert_eq!(topo.neighbors(2), &[] as &[NodeId]);
        assert_eq!(topo.degree(1), 1);
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let topo = CscTopology::from_edges(2, &[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(topo.degree(1), 3);
    }

    #[test]
    fn indices_bytes_round_trip() {
        let topo = CscTopology::from_edges(3, &[(2, 0), (1, 0)]);
        let bytes = topo.indices_bytes();
        assert_eq!(bytes.len(), 8);
        let back: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(back, topo.indices());
    }

    /// Every edge must appear exactly once in the CSC structure, and
    /// indptr must be a prefix-sum partition of the edge set.
    #[test]
    fn csc_is_a_permutation_of_the_edge_list() {
        cases(256, |rng| {
            let edges: Vec<(u32, u32)> = (0..rng.below(200))
                .map(|_| (rng.below(20) as u32, rng.below(20) as u32))
                .collect();
            let topo = CscTopology::from_edges(20, &edges);
            assert_eq!(topo.num_edges(), edges.len());
            let mut reconstructed: Vec<(u32, u32)> = Vec::new();
            for v in 0..20u32 {
                for &src in topo.neighbors(v) {
                    reconstructed.push((src, v));
                }
            }
            let mut expect = edges.clone();
            expect.sort_unstable();
            reconstructed.sort_unstable();
            assert_eq!(reconstructed, expect);
            // indptr monotone
            for w in topo.indptr().windows(2) {
                assert!(w[0] <= w[1]);
            }
        });
    }
}
