//! On-SSD dataset layout and builder.
//!
//! Mirrors the paper's setup (§5 "Datasets"):
//!
//! * the **index pointer array** (`indptr`) of the CSC adjacency stays in
//!   host memory — it is small (<1 GB in the paper) and hot during
//!   sampling;
//! * the **index array** (`indices`, the actual in-neighbor lists) lives on
//!   SSD and is read through the page cache by memory-mapped samplers;
//! * the **feature table** lives on SSD, one `dim × f32` row per node in
//!   ascending node-id order;
//! * labels and the train/val split are host-resident (tiny);
//! * so is each node's **out-degree**, which the installer counts while it
//!   writes the CSC, as it writes `indptr`: the feature buffer ranks
//!   retired rows by it (DESIGN.md §4 item 10).
//!
//! [`Dataset::build`] synthesizes everything deterministically from a
//! [`DatasetSpec`] and installs it on a [`SimSsd`] via the untimed import
//! path (dataset installation is not part of any measured experiment).

use crate::csc::CscTopology;
use crate::generate::{generate_graph, FeatureGen};
use crate::NodeId;
use gnndrive_storage::{FileHandle, SimSsd, SECTOR_SIZE};
use gnndrive_sync::Rng;
use std::sync::Arc;

/// Everything needed to deterministically synthesize a dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: String,
    pub num_nodes: usize,
    pub num_edges: usize,
    pub feat_dim: usize,
    pub num_classes: usize,
    /// Probability an edge stays within its community (homophily).
    pub intra_prob: f64,
    /// Feature signal-to-noise scale (0 = pure noise, like the paper's
    /// randomly-featured Twitter/Friendster).
    pub feature_signal: f32,
    /// Fraction of nodes in the training set.
    pub train_fraction: f64,
    pub seed: u64,
}

impl DatasetSpec {
    /// Change the feature dimension (the paper sweeps 64–512; Fig 8).
    pub fn with_dim(mut self, dim: usize) -> Self {
        self.feat_dim = dim;
        self
    }

    /// Bytes of one feature row.
    pub fn feature_row_bytes(&self) -> usize {
        self.feat_dim * 4
    }

    /// Size of the on-SSD feature table (sector-aligned).
    pub fn feature_file_bytes(&self) -> u64 {
        let raw = (self.num_nodes * self.feature_row_bytes()) as u64;
        raw.div_ceil(SECTOR_SIZE) * SECTOR_SIZE
    }

    /// Size of the on-SSD index array.
    pub fn topology_file_bytes(&self) -> u64 {
        let raw = (self.num_edges * 4) as u64;
        raw.div_ceil(SECTOR_SIZE) * SECTOR_SIZE
    }
}

/// A fully installed dataset: ground truth in host memory, the trainable
/// data on the simulated SSD.
pub struct Dataset {
    pub spec: DatasetSpec,
    pub ssd: Arc<SimSsd>,
    /// CSC index-pointer array (host-resident per the paper's setup).
    pub indptr: Arc<Vec<u64>>,
    /// CSC index array on SSD (u32 little-endian per edge).
    pub indices_file: FileHandle,
    /// Per node, how many in-neighbor lists of the CSC it appears in.
    /// Host-resident metadata from installation, half the size of
    /// `indptr`, so a system under test learns it without scanning
    /// `indices_file`.
    pub out_degrees: Arc<Vec<u32>>,
    /// Feature table on SSD (`num_nodes × dim × f32`, row-major).
    pub features_file: FileHandle,
    /// Node labels (host-resident; tiny).
    pub labels: Arc<Vec<u32>>,
    pub train_idx: Arc<Vec<NodeId>>,
    pub val_idx: Arc<Vec<NodeId>>,
    /// Ground-truth topology, for verification and for baselines that are
    /// defined as having the topology resident (never read by the disk
    /// paths of the systems under test).
    pub topology: Arc<CscTopology>,
}

impl Dataset {
    /// Generate and install the dataset described by `spec` onto `ssd`.
    pub fn build(spec: DatasetSpec, ssd: Arc<SimSsd>) -> Dataset {
        let g = generate_graph(
            spec.num_nodes,
            spec.num_edges,
            spec.num_classes,
            spec.intra_prob,
            spec.seed,
        );

        // Index array on SSD.
        let indices_file = ssd.create_file(spec.topology_file_bytes());
        ssd.import(indices_file, 0, &g.topology.indices_bytes())
            .expect("import indices");

        // Feature table on SSD, generated and installed in bounded chunks
        // so the whole table never sits in host memory beside the image.
        let features_file = ssd.create_file(spec.feature_file_bytes());
        let mut gen = FeatureGen::new(
            spec.num_classes,
            spec.feat_dim,
            spec.feature_signal,
            spec.seed,
        );
        let row_bytes = spec.feature_row_bytes();
        let chunk_rows = ((4 << 20) / row_bytes.max(1)).max(1); // ~4 MiB chunks
        let mut feats = Vec::new();
        let mut bytes = Vec::with_capacity(chunk_rows * row_bytes);
        for (chunk, labels) in g.labels.chunks(chunk_rows).enumerate() {
            feats.resize(labels.len() * spec.feat_dim, 0.0);
            gen.write_rows(labels, &mut feats);
            bytes.clear();
            for f in &feats {
                bytes.extend_from_slice(&f.to_le_bytes());
            }
            let offset = (chunk * chunk_rows * row_bytes) as u64;
            ssd.import(features_file, offset, &bytes)
                .expect("import features");
        }

        // Train/val split over a shuffled node order.
        let mut order: Vec<NodeId> = (0..spec.num_nodes as NodeId).collect();
        Rng::seed_from_u64(spec.seed ^ SPLIT_SEED_MIX).shuffle(&mut order);
        let n_train = ((spec.num_nodes as f64) * spec.train_fraction).round() as usize;
        let n_val = (spec.num_nodes / 20).max(1).min(spec.num_nodes - n_train);
        let train_idx: Vec<NodeId> = order[..n_train].to_vec();
        let val_idx: Vec<NodeId> = order[n_train..n_train + n_val].to_vec();

        Dataset {
            spec,
            ssd,
            indptr: Arc::new(g.topology.indptr().to_vec()),
            indices_file,
            out_degrees: Arc::new(g.topology.out_degrees()),
            features_file,
            labels: Arc::new(g.labels),
            train_idx: Arc::new(train_idx),
            val_idx: Arc::new(val_idx),
            topology: Arc::new(g.topology),
        }
    }

    /// Byte offset of node `v`'s feature row in [`Dataset::features_file`].
    pub fn feature_offset(&self, v: NodeId) -> u64 {
        (v as u64) * self.spec.feature_row_bytes() as u64
    }

    /// Persist the dataset to a host directory (spec as key=value text,
    /// host-resident arrays and the two SSD images as raw little-endian
    /// binaries). Lets long sweeps reuse built datasets across processes.
    ///
    /// Every artifact is written crash-atomically (staged, fsynced,
    /// renamed), so a crash mid-save leaves each file either complete or
    /// absent — `load_from_dir`'s length validation then rejects the
    /// directory as a whole if the set is incomplete, instead of
    /// misparsing a truncated binary.
    pub fn save_to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        use gnndrive_telemetry::atomic_write_file;
        std::fs::create_dir_all(dir)?;
        let s = &self.spec;
        let spec_text = format!(
            "name={}\nnum_nodes={}\nnum_edges={}\nfeat_dim={}\nnum_classes={}\n\
             intra_prob={}\nfeature_signal={}\ntrain_fraction={}\nseed={}\n",
            s.name,
            s.num_nodes,
            s.num_edges,
            s.feat_dim,
            s.num_classes,
            s.intra_prob,
            s.feature_signal,
            s.train_fraction,
            s.seed
        );
        atomic_write_file("dataset.spec", &dir.join("spec.txt"), spec_text.as_bytes())?;
        let dump_u64 = |v: &[u64]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        let dump_u32 = |v: &[u32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        atomic_write_file(
            "dataset.indptr",
            &dir.join("indptr.bin"),
            &dump_u64(&self.indptr),
        )?;
        atomic_write_file(
            "dataset.labels",
            &dir.join("labels.bin"),
            &dump_u32(&self.labels),
        )?;
        atomic_write_file(
            "dataset.train",
            &dir.join("train.bin"),
            &dump_u32(&self.train_idx),
        )?;
        atomic_write_file(
            "dataset.val",
            &dir.join("val.bin"),
            &dump_u32(&self.val_idx),
        )?;
        // SSD images, chunked through the untimed peek path.
        for (fname, tag, handle) in [
            ("indices.bin", "dataset.indices", self.indices_file),
            ("features.bin", "dataset.features", self.features_file),
        ] {
            let mut out = vec![0u8; handle.len as usize];
            self.ssd.peek(handle, 0, &mut out).expect("peek image");
            atomic_write_file(tag, &dir.join(fname), &out)?;
        }
        Ok(())
    }

    /// Load a dataset previously written by [`Dataset::save_to_dir`] onto a
    /// fresh simulated SSD.
    pub fn load_from_dir(dir: &std::path::Path, ssd: Arc<SimSsd>) -> std::io::Result<Dataset> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let spec_text = std::fs::read_to_string(dir.join("spec.txt"))?;
        let mut kv = std::collections::HashMap::new();
        for line in spec_text.lines() {
            if let Some((k, v)) = line.split_once('=') {
                kv.insert(k.to_string(), v.to_string());
            }
        }
        let get = |k: &str| {
            kv.get(k)
                .cloned()
                .ok_or_else(|| bad(&format!("missing {k}")))
        };
        let spec = DatasetSpec {
            name: get("name")?,
            num_nodes: get("num_nodes")?.parse().map_err(|_| bad("num_nodes"))?,
            num_edges: get("num_edges")?.parse().map_err(|_| bad("num_edges"))?,
            feat_dim: get("feat_dim")?.parse().map_err(|_| bad("feat_dim"))?,
            num_classes: get("num_classes")?
                .parse()
                .map_err(|_| bad("num_classes"))?,
            intra_prob: get("intra_prob")?.parse().map_err(|_| bad("intra_prob"))?,
            feature_signal: get("feature_signal")?
                .parse()
                .map_err(|_| bad("feature_signal"))?,
            train_fraction: get("train_fraction")?
                .parse()
                .map_err(|_| bad("train_fraction"))?,
            seed: get("seed")?.parse().map_err(|_| bad("seed"))?,
        };
        let load_u64 = |name: &str| -> std::io::Result<Vec<u64>> {
            let b = std::fs::read(dir.join(name))?;
            Ok(b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };
        let load_u32 = |name: &str| -> std::io::Result<Vec<u32>> {
            let b = std::fs::read(dir.join(name))?;
            Ok(b.chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect())
        };
        let indptr = load_u64("indptr.bin")?;
        let labels = load_u32("labels.bin")?;
        let train_idx = load_u32("train.bin")?;
        let val_idx = load_u32("val.bin")?;
        let indices_img = std::fs::read(dir.join("indices.bin"))?;
        let features_img = std::fs::read(dir.join("features.bin"))?;
        if indptr.len() != spec.num_nodes + 1 {
            return Err(bad("indptr length mismatch"));
        }
        let indices_file = ssd.create_file(indices_img.len() as u64);
        ssd.import(indices_file, 0, &indices_img)
            .expect("import indices");
        let features_file = ssd.create_file(features_img.len() as u64);
        ssd.import(features_file, 0, &features_img)
            .expect("import features");
        // Rebuild the in-memory ground-truth topology from the image.
        let edge_count = *indptr.last().unwrap() as usize;
        let indices: Vec<NodeId> = indices_img[..edge_count * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut edges = Vec::with_capacity(edge_count);
        for v in 0..spec.num_nodes {
            for &src in &indices[indptr[v] as usize..indptr[v + 1] as usize] {
                edges.push((src, v as NodeId));
            }
        }
        let topology = Arc::new(CscTopology::from_edges(spec.num_nodes, &edges));
        Ok(Dataset {
            spec,
            ssd,
            indptr: Arc::new(indptr),
            indices_file,
            out_degrees: Arc::new(topology.out_degrees()),
            features_file,
            labels: Arc::new(labels),
            train_idx: Arc::new(train_idx),
            val_idx: Arc::new(val_idx),
            topology,
        })
    }

    /// Read one feature row through the untimed verification path.
    pub fn peek_feature_row(&self, v: NodeId) -> Vec<f32> {
        let mut row = vec![0.0; self.spec.feat_dim];
        self.peek_feature_row_into(v, &mut Vec::new(), &mut row);
        row
    }

    /// [`Dataset::peek_feature_row`] decoded into `row`, staging the raw
    /// bytes in `bytes` so a caller peeking many rows allocates once.
    pub fn peek_feature_row_into(&self, v: NodeId, bytes: &mut Vec<u8>, row: &mut [f32]) {
        assert_eq!(row.len(), self.spec.feat_dim, "row dimension mismatch");
        bytes.resize(self.spec.feature_row_bytes(), 0);
        self.ssd
            .peek(self.features_file, self.feature_offset(v), bytes)
            .expect("peek feature row");
        for (x, c) in row.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes(c.try_into().expect("chunks of four"));
        }
    }
}

/// Seed-mixing constant separating the split RNG stream from the
/// topology/feature streams.
const SPLIT_SEED_MIX: u64 = 0x7_2a1_u64;

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_storage::SsdProfile;

    fn tiny_spec() -> DatasetSpec {
        DatasetSpec {
            name: "tiny".into(),
            num_nodes: 200,
            num_edges: 1000,
            feat_dim: 16,
            num_classes: 4,
            intra_prob: 0.8,
            feature_signal: 1.5,
            train_fraction: 0.2,
            seed: 11,
        }
    }

    #[test]
    fn build_installs_consistent_topology() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let ds = Dataset::build(tiny_spec(), ssd);
        assert_eq!(ds.indptr.len(), 201);
        assert_eq!(*ds.indptr.last().unwrap() as usize, 1000);
        // On-SSD indices match the in-memory ground truth.
        let mut bytes = vec![0u8; 1000 * 4];
        ds.ssd.peek(ds.indices_file, 0, &mut bytes).unwrap();
        let on_disk: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(&on_disk, ds.topology.indices());
        // Out-degrees count each node's appearances in the on-SSD lists.
        let mut counted = vec![0u32; 200];
        for &src in &on_disk {
            counted[src as usize] += 1;
        }
        assert_eq!(*ds.out_degrees, counted);
    }

    #[test]
    fn feature_rows_round_trip() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let ds = Dataset::build(tiny_spec(), ssd);
        let row = ds.peek_feature_row(7);
        assert_eq!(row.len(), 16);
        assert!(row.iter().any(|&f| f != 0.0));
        // Deterministic rebuild gives identical rows.
        let ssd2 = SimSsd::new(SsdProfile::instant());
        let ds2 = Dataset::build(tiny_spec(), ssd2);
        assert_eq!(row, ds2.peek_feature_row(7));
    }

    #[test]
    fn split_is_disjoint_and_sized() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let ds = Dataset::build(tiny_spec(), ssd);
        assert_eq!(ds.train_idx.len(), 40);
        assert_eq!(ds.val_idx.len(), 10);
        for v in ds.val_idx.iter() {
            assert!(!ds.train_idx.contains(v));
        }
    }

    #[test]
    fn save_load_round_trips_through_the_filesystem() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let ds = Dataset::build(tiny_spec(), ssd);
        let dir = std::env::temp_dir().join(format!("gnndrive-ds-test-{}", std::process::id()));
        ds.save_to_dir(&dir).unwrap();
        let ssd2 = SimSsd::new(SsdProfile::instant());
        let back = Dataset::load_from_dir(&dir, ssd2).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(back.spec.num_nodes, ds.spec.num_nodes);
        assert_eq!(back.indptr, ds.indptr);
        assert_eq!(back.labels, ds.labels);
        assert_eq!(back.train_idx, ds.train_idx);
        assert_eq!(back.topology.indices(), ds.topology.indices());
        assert_eq!(back.out_degrees, ds.out_degrees);
        for v in [0u32, 7, 199] {
            assert_eq!(back.peek_feature_row(v), ds.peek_feature_row(v));
        }
    }

    #[test]
    fn file_sizes_are_sector_aligned() {
        let spec = tiny_spec();
        assert_eq!(spec.feature_file_bytes() % SECTOR_SIZE, 0);
        assert_eq!(spec.topology_file_bytes() % SECTOR_SIZE, 0);
        assert!(spec.feature_file_bytes() >= (200 * 16 * 4) as u64);
    }
}
