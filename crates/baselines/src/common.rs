//! Helpers shared by the baseline systems.

use gnndrive_graph::{Dataset, NodeId};
use gnndrive_storage::{FileHandle, PageCache, SimSsd};
use gnndrive_tensor::Matrix;

/// Gather the feature rows of `nodes` through the OS page-cache model
/// (buffered, synchronous — the memory-mapped feature access of PyG+).
pub fn gather_features_mmap(
    cache: &PageCache,
    features_file: FileHandle,
    dim: usize,
    nodes: &[NodeId],
) -> Matrix {
    let row_bytes = dim * 4;
    let mut out = Matrix::zeros(nodes.len(), dim);
    let mut buf = vec![0u8; row_bytes];
    for (i, &v) in nodes.iter().enumerate() {
        cache.read(features_file, (v as u64) * row_bytes as u64, &mut buf);
        for (c, chunk) in buf.chunks_exact(4).enumerate() {
            out.set(i, c, f32::from_le_bytes(chunk.try_into().unwrap()));
        }
    }
    out
}

/// Read one feature row synchronously with direct I/O (sector-aligned
/// window), used by Ginex's cache-miss path.
pub fn read_feature_row_direct(
    ssd: &SimSsd,
    features_file: FileHandle,
    dim: usize,
    node: NodeId,
) -> Vec<f32> {
    let row_bytes = (dim * 4) as u64;
    let off = node as u64 * row_bytes;
    let start = off / 512 * 512;
    let end = (off + row_bytes).div_ceil(512) * 512;
    let mut buf = vec![0u8; (end - start) as usize];
    ssd.read_blocking(features_file, start, &mut buf, true)
        .expect("feature row read");
    let s = (off - start) as usize;
    buf[s..s + row_bytes as usize]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Labels of a seed list as class indices.
pub fn seed_labels(ds: &Dataset, seeds: &[NodeId]) -> Vec<usize> {
    seeds
        .iter()
        .map(|&s| ds.labels[s as usize] as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_graph::DatasetSpec;
    use gnndrive_storage::{MemoryGovernor, SsdProfile};
    use std::sync::Arc;

    fn ds() -> Dataset {
        Dataset::build(
            DatasetSpec {
                name: "c".into(),
                num_nodes: 100,
                num_edges: 600,
                feat_dim: 24,
                num_classes: 3,
                intra_prob: 0.5,
                feature_signal: 1.0,
                train_fraction: 0.2,
                seed: 9,
            },
            SimSsd::new(SsdProfile::instant()),
        )
    }

    #[test]
    fn mmap_gather_matches_ground_truth() {
        let ds = ds();
        let cache = PageCache::new(Arc::clone(&ds.ssd), MemoryGovernor::unlimited());
        let m = gather_features_mmap(&cache, ds.features_file, 24, &[3, 50, 99]);
        assert_eq!(m.row(0), ds.peek_feature_row(3).as_slice());
        assert_eq!(m.row(2), ds.peek_feature_row(99).as_slice());
    }

    #[test]
    fn direct_row_read_matches_ground_truth() {
        let ds = ds();
        for node in [0u32, 7, 99] {
            let row = read_feature_row_direct(&ds.ssd, ds.features_file, 24, node);
            assert_eq!(row, ds.peek_feature_row(node), "node {node}");
        }
    }
}
