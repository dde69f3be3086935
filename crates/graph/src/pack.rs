//! Feature-layout packing: rewrite the on-disk feature table hot-first.
//!
//! DiskGNN's observation: with node features stored by node id, the rows a
//! mini-batch reads are scattered across the whole file, so even a perfect
//! cache pays one 4 KiB page per handful of useful rows. Reordering the
//! file by access frequency (hubs first, ties broken by first use, then
//! id) concentrates the hot rows on a small prefix of pages: per-batch
//! page working sets shrink, and the cold tail becomes contiguous.
//!
//! [`pack_features`] builds the packed file on the dataset's own SSD via
//! the untimed [`SimSsd::import`](gnndrive_storage::SimSsd::import) path, which installs fresh CRC shadow
//! sectors for the rewritten image — the integrity layer verifies packed
//! reads exactly like unpacked ones, against the *new* layout. The
//! resulting [`FeatureLayout`] carries the `node → packed row` remap that
//! the extractor threads through its read planning.

use crate::dataset::Dataset;
use crate::NodeId;
use gnndrive_storage::FileHandle;
use gnndrive_telemetry as telemetry;
use std::sync::Arc;

/// A (possibly re-ordered) on-disk feature table: the file plus the
/// node-id → row-index remap describing where each node's features live.
///
/// Invariants (asserted by [`pack_features`], relied on by the extractor
/// and the CRC verification at read boundaries):
///
/// * `remap` is a permutation of `0..num_nodes`;
/// * row `remap[v]` of `file` holds byte-identical features to row `v` of
///   the original file;
/// * `file.len` equals the original feature file length (sector-aligned),
///   so read planning's bounds clamping is unchanged.
#[derive(Clone)]
pub struct FeatureLayout {
    pub file: FileHandle,
    /// `remap[node] = packed row index`.
    pub remap: Arc<Vec<u32>>,
    pub row_bytes: usize,
}

impl FeatureLayout {
    /// The identity layout over the dataset's original feature file.
    pub fn identity(ds: &Dataset) -> Self {
        FeatureLayout {
            file: ds.features_file,
            remap: Arc::new((0..ds.spec.num_nodes as u32).collect()),
            row_bytes: ds.spec.feature_row_bytes(),
        }
    }

    /// Packed row index of `node`.
    pub fn row_of(&self, node: NodeId) -> u64 {
        self.remap[node as usize] as u64
    }

    /// Byte offset of `node`'s feature row in [`FeatureLayout::file`].
    pub fn offset_of(&self, node: NodeId) -> u64 {
        self.row_of(node) * self.row_bytes as u64
    }
}

/// Rewrite `ds`'s feature table ordered by `(freq desc, first_seen asc,
/// id asc)` into a new file on the same SSD, returning its layout.
///
/// `freq[v]` and `first_seen[v]` come from an offline pre-sampling pass
/// (`gnndrive-sampling`'s `presample_epoch`); nodes the epoch never
/// touches sort last in id order, keeping the permutation total.
///
/// The rewrite is restart-safe by construction: it builds a *new* file
/// and only hands out its handle on success, so a crash mid-pack (each
/// ~4 MiB import chunk is a `pack.import` crash point) strands a
/// half-filled orphan file while every existing layout stays valid — the
/// caller simply re-packs after restart.
pub fn pack_features(
    ds: &Dataset,
    freq: &[u64],
    first_seen: &[u64],
) -> std::io::Result<FeatureLayout> {
    let n = ds.spec.num_nodes;
    assert_eq!(freq.len(), n, "freq table must cover every node");
    assert_eq!(
        first_seen.len(),
        n,
        "first_seen table must cover every node"
    );
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| {
        (
            std::cmp::Reverse(freq[v as usize]),
            first_seen[v as usize],
            v,
        )
    });
    let mut remap = vec![0u32; n];
    for (new_row, &node) in order.iter().enumerate() {
        remap[node as usize] = new_row as u32;
    }

    let row_bytes = ds.spec.feature_row_bytes();
    let file = ds.ssd.create_file(ds.spec.feature_file_bytes());
    // Copy rows in packed order, batching ~4 MiB imports so CRC shadow
    // installation (and bench runs against big datasets) stay cheap.
    let rows_per_chunk = ((4 << 20) / row_bytes).max(1);
    let mut chunk = Vec::with_capacity(rows_per_chunk * row_bytes);
    let mut chunk_start_row = 0usize;
    let mut row = vec![0u8; row_bytes];
    for (new_row, &node) in order.iter().enumerate() {
        ds.ssd
            .peek(ds.features_file, (node as u64) * row_bytes as u64, &mut row)
            .map_err(std::io::Error::other)?;
        chunk.extend_from_slice(&row);
        if chunk.len() >= rows_per_chunk * row_bytes || new_row + 1 == n {
            telemetry::crash::io_point("pack.import")?;
            ds.ssd
                .import(file, (chunk_start_row * row_bytes) as u64, &chunk)
                .map_err(std::io::Error::other)?;
            chunk_start_row = new_row + 1;
            chunk.clear();
        }
    }
    debug_assert!(is_permutation(&remap));
    Ok(FeatureLayout {
        file,
        remap: Arc::new(remap),
        row_bytes,
    })
}

fn is_permutation(remap: &[u32]) -> bool {
    let mut seen = vec![false; remap.len()];
    remap.iter().all(|&r| {
        let ok = (r as usize) < seen.len() && !seen[r as usize];
        if ok {
            seen[r as usize] = true;
        }
        ok
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use gnndrive_storage::{SimSsd, SsdProfile};

    fn dataset() -> Dataset {
        Dataset::build(
            DatasetSpec {
                name: "pack-test".into(),
                num_nodes: 200,
                num_edges: 1200,
                feat_dim: 8,
                num_classes: 4,
                intra_prob: 0.8,
                feature_signal: 1.0,
                train_fraction: 0.2,
                seed: 9,
            },
            SimSsd::new(SsdProfile::instant()),
        )
    }

    #[test]
    fn remap_is_a_permutation_ordered_hot_first() {
        let ds = dataset();
        let n = ds.spec.num_nodes;
        let mut freq = vec![0u64; n];
        let mut first = vec![u64::MAX; n];
        // Node 7 hottest, then 3, then 11; the rest untouched.
        freq[7] = 10;
        freq[3] = 5;
        freq[11] = 5;
        first[7] = 0;
        first[3] = 2;
        first[11] = 1;
        let layout = pack_features(&ds, &freq, &first).expect("pack");
        assert!(is_permutation(&layout.remap));
        assert_eq!(layout.row_of(7), 0, "hottest node gets row 0");
        // Equal freq: earlier first use wins.
        assert_eq!(layout.row_of(11), 1);
        assert_eq!(layout.row_of(3), 2);
        // Untouched nodes follow in id order.
        assert_eq!(layout.row_of(0), 3);
        assert_eq!(layout.row_of(1), 4);
        assert_eq!(layout.file.len, ds.features_file.len);
    }

    /// Every node's row in the packed file must be byte-identical to its
    /// original row, and pass the device's CRC verification at its *new*
    /// offset (the shadow checksums were rewritten by the import path).
    #[test]
    fn packed_rows_round_trip_and_verify() {
        let ds = dataset();
        let n = ds.spec.num_nodes;
        let freq: Vec<u64> = (0..n as u64).map(|v| v * 7 % 13).collect();
        let first: Vec<u64> = (0..n as u64).map(|v| v % 5).collect();
        let layout = pack_features(&ds, &freq, &first).expect("pack");
        let rb = layout.row_bytes;
        for v in 0..n as u32 {
            let mut packed = vec![0u8; rb];
            ds.ssd
                .peek(layout.file, layout.offset_of(v), &mut packed)
                .expect("packed row readable");
            let mut orig = vec![0u8; rb];
            ds.ssd
                .peek(ds.features_file, ds.feature_offset(v), &mut orig)
                .expect("orig row readable");
            assert_eq!(packed, orig, "node {v} row moved with wrong bytes");
        }
        // The whole packed image must pass the per-sector CRC shadow: the
        // import path re-checksummed the rewritten layout, so the
        // integrity gate the extractor applies at read boundaries holds
        // sector-by-sector over the new file.
        let mut image = vec![0u8; layout.file.len as usize];
        ds.ssd.peek(layout.file, 0, &mut image).expect("full read");
        ds.ssd
            .verify(layout.file, 0, &image)
            .expect("packed file fails CRC shadow verification");
    }

    #[test]
    fn identity_layout_points_at_original_file() {
        let ds = dataset();
        let layout = FeatureLayout::identity(&ds);
        assert_eq!(layout.file.id, ds.features_file.id);
        assert_eq!(layout.offset_of(13), ds.feature_offset(13));
    }
}
