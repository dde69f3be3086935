//! Offline pre-sampling: run one full epoch of the sampler ahead of time.
//!
//! Ginex's key observation is that sample-based GNN training is
//! *inspectable*: under a fixed seed, the entire epoch's mini-batch
//! schedule — and therefore every feature row the extract stage will read
//! — is known before training starts. This module replays exactly the
//! schedule the training pipeline uses ([`BatchPlan::new`] with the
//! training seed, then [`NeighborSampler::sample`] with `seed ^ epoch`)
//! and returns the per-batch input-node lists plus the aggregate access
//! statistics (frequency and first-use order) that drive:
//!
//! * the trace-driven Belady eviction policy (via page traces built from
//!   the batch lists), and
//! * the feature-layout packer (hot rows first on disk).

use crate::batches::BatchPlan;
use crate::neighbor::NeighborSampler;
use crate::topo::TopoReader;
use gnndrive_graph::NodeId;
use gnndrive_telemetry as telemetry;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// File magic for persisted pre-sample schedules.
pub const SCHEDULE_MAGIC: [u8; 8] = *b"GNNSCHD\0";

/// Current schedule format version; loaders reject other versions.
pub const SCHEDULE_VERSION: u32 = 1;

/// Why a persisted schedule failed to load.
#[derive(Debug)]
pub enum ScheduleError {
    Io(std::io::Error),
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Io(e) => write!(f, "schedule i/o error: {e}"),
            ScheduleError::BadMagic => write!(f, "not a pre-sample schedule (bad magic)"),
            ScheduleError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "schedule version {v} unsupported (expected {SCHEDULE_VERSION})"
                )
            }
            ScheduleError::Truncated => write!(f, "schedule artifact truncated"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<std::io::Error> for ScheduleError {
    fn from(e: std::io::Error) -> Self {
        ScheduleError::Io(e)
    }
}

/// Result of one pre-sampled epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresampleResult {
    /// The epoch and seed the schedule was derived from.
    pub epoch: u64,
    pub seed: u64,
    /// `input_nodes` of each mini-batch, in epoch order. These are the
    /// nodes whose feature rows the extract stage reads for that batch
    /// (already deduplicated per batch by the sampler).
    pub batches: Vec<Vec<NodeId>>,
    /// Per-node access count across the epoch.
    pub freq: Vec<u64>,
    /// Per-node index of the first batch that touches it
    /// (`u64::MAX` when the epoch never does).
    pub first_seen: Vec<u64>,
}

impl PresampleResult {
    /// Total feature-row reads in the epoch.
    pub fn total_accesses(&self) -> u64 {
        self.freq.iter().sum()
    }

    /// Number of distinct nodes touched.
    pub fn touched_nodes(&self) -> usize {
        self.freq.iter().filter(|&&c| c > 0).count()
    }

    /// Serialize to the versioned `GNNSCHD` artifact format.
    ///
    /// Layout (all integers little-endian): 8-byte magic, `u32` version,
    /// `u64` epoch, `u64` seed, `u64` num_nodes, `u64` num_batches, then
    /// each batch as `u64` length + that many `u32` node ids, then the
    /// `freq` and `first_seen` tables (`num_nodes` × `u64` each).
    pub fn to_bytes(&self) -> Vec<u8> {
        let rows: usize = self.batches.iter().map(|b| b.len()).sum();
        let mut out =
            Vec::with_capacity(44 + self.batches.len() * 8 + rows * 4 + self.freq.len() * 16);
        out.extend_from_slice(&SCHEDULE_MAGIC);
        out.extend_from_slice(&SCHEDULE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.freq.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.batches.len() as u64).to_le_bytes());
        for batch in &self.batches {
            out.extend_from_slice(&(batch.len() as u64).to_le_bytes());
            for &n in batch {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        for &f in &self.freq {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for &f in &self.first_seen {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Parse a `GNNSCHD` artifact, rejecting foreign or truncated bytes
    /// with a typed [`ScheduleError`] — never a partially-filled result.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ScheduleError> {
        let mut cur = Cursor { bytes, pos: 0 };
        if cur.take(8)? != SCHEDULE_MAGIC {
            return Err(ScheduleError::BadMagic);
        }
        let version = u32::from_le_bytes(cur.take(4)?.try_into().unwrap());
        if version != SCHEDULE_VERSION {
            return Err(ScheduleError::UnsupportedVersion(version));
        }
        let epoch = cur.u64()?;
        let seed = cur.u64()?;
        let num_nodes = usize::try_from(cur.u64()?).map_err(|_| ScheduleError::Truncated)?;
        let num_batches = usize::try_from(cur.u64()?).map_err(|_| ScheduleError::Truncated)?;
        let mut batches = Vec::new();
        for _ in 0..num_batches {
            let len = usize::try_from(cur.u64()?).map_err(|_| ScheduleError::Truncated)?;
            let raw = cur.take(len.checked_mul(4).ok_or(ScheduleError::Truncated)?)?;
            batches.push(
                raw.chunks_exact(4)
                    .map(|c| NodeId::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            );
        }
        let mut freq = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            freq.push(cur.u64()?);
        }
        let mut first_seen = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            first_seen.push(cur.u64()?);
        }
        if cur.pos != bytes.len() {
            return Err(ScheduleError::Truncated);
        }
        Ok(PresampleResult {
            epoch,
            seed,
            batches,
            freq,
            first_seen,
        })
    }

    /// Persist the schedule crash-atomically (temp file + fsync + rename
    /// via the shared `atomic_write_file` helper): a reader concurrent
    /// with — or restarting after — a crashed save sees either the old
    /// artifact or the new one, never a torn hybrid.
    pub fn save(&self, path: &Path) -> Result<(), ScheduleError> {
        telemetry::atomic_write_file("presample.save", path, &self.to_bytes())?;
        Ok(())
    }

    /// Load a schedule previously written by [`PresampleResult::save`].
    pub fn load_from(path: &Path) -> Result<Self, ScheduleError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

/// Bounds-checked byte reader for [`PresampleResult::from_bytes`].
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ScheduleError> {
        let end = self.pos.checked_add(n).ok_or(ScheduleError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ScheduleError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, ScheduleError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Run the sampler for one full epoch under the pipeline's exact schedule
/// and record every batch's input nodes.
///
/// `seed` and `epoch` must match the training run being predicted: the
/// batch plan shuffles with `(epoch, seed)` and each batch `i` samples
/// with `rng_seed = seed ^ epoch`, identical to the pipeline's
/// `train_epoch` / `sample_only_epoch` loops. `num_nodes` sizes the
/// frequency tables; `max_batches` truncates the epoch the same way the
/// bench harness truncates its pinned suites.
#[allow(clippy::too_many_arguments)]
pub fn presample_epoch(
    topo: Arc<dyn TopoReader>,
    train_idx: &[NodeId],
    num_nodes: usize,
    batch_size: usize,
    fanouts: Vec<usize>,
    epoch: u64,
    seed: u64,
    max_batches: Option<usize>,
) -> PresampleResult {
    let plan = BatchPlan::new(train_idx, batch_size, epoch, seed);
    let sampler = NeighborSampler::new(topo, fanouts);
    let end = plan.num_batches().min(max_batches.unwrap_or(usize::MAX));
    let mut batches = Vec::with_capacity(end);
    let mut freq = vec![0u64; num_nodes];
    let mut first_seen = vec![u64::MAX; num_nodes];
    for i in 0..end {
        let sample = sampler.sample(i as u64, plan.batch(i), seed ^ epoch);
        for &n in &sample.input_nodes {
            freq[n as usize] += 1;
            if first_seen[n as usize] == u64::MAX {
                first_seen[n as usize] = i as u64;
            }
        }
        batches.push(sample.input_nodes);
    }
    PresampleResult {
        epoch,
        seed,
        batches,
        freq,
        first_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::InMemTopo;
    use gnndrive_graph::generate_graph;

    fn topo() -> (Arc<dyn TopoReader>, Vec<NodeId>) {
        let g = generate_graph(300, 1800, 4, 0.8, 11);
        let topo = Arc::new(g.topology);
        let train: Vec<NodeId> = (0..60).collect();
        (Arc::new(InMemTopo::new(topo)), train)
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let (t, train) = topo();
        let a = presample_epoch(Arc::clone(&t), &train, 300, 16, vec![3, 3], 0, 42, None);
        let b = presample_epoch(Arc::clone(&t), &train, 300, 16, vec![3, 3], 0, 42, None);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.freq, b.freq);
        let c = presample_epoch(t, &train, 300, 16, vec![3, 3], 1, 42, None);
        assert_ne!(a.batches, c.batches, "epochs must reshuffle");
    }

    /// The pre-sampled schedule must be byte-identical to what the live
    /// sampler produces batch-by-batch — the whole point is predicting
    /// the training run's accesses exactly.
    #[test]
    fn matches_live_sampler_schedule() {
        let (t, train) = topo();
        let (epoch, seed) = (2u64, 7u64);
        let pre = presample_epoch(
            Arc::clone(&t),
            &train,
            300,
            16,
            vec![2, 2],
            epoch,
            seed,
            None,
        );
        let plan = BatchPlan::new(&train, 16, epoch, seed);
        let sampler = NeighborSampler::new(t, vec![2, 2]);
        for (i, seeds) in plan.iter() {
            let live = sampler.sample(i, seeds, seed ^ epoch);
            assert_eq!(pre.batches[i as usize], live.input_nodes, "batch {i}");
        }
        assert_eq!(pre.batches.len(), plan.num_batches());
    }

    #[test]
    fn freq_and_first_seen_are_consistent() {
        let (t, train) = topo();
        let pre = presample_epoch(t, &train, 300, 16, vec![3], 0, 5, Some(2));
        assert_eq!(pre.batches.len(), 2);
        let mut freq = vec![0u64; 300];
        let mut first = vec![u64::MAX; 300];
        for (bi, b) in pre.batches.iter().enumerate() {
            for &n in b {
                freq[n as usize] += 1;
                if first[n as usize] == u64::MAX {
                    first[n as usize] = bi as u64;
                }
            }
        }
        assert_eq!(pre.freq, freq);
        assert_eq!(pre.first_seen, first);
        assert_eq!(pre.total_accesses(), freq.iter().sum::<u64>());
        assert!(pre.touched_nodes() > 0);
        // Training seeds are always inputs of their own batch.
        let plan = BatchPlan::new(&train, 16, 0, 5);
        for &s in plan.batch(0) {
            assert!(pre.freq[s as usize] > 0);
        }
    }

    #[test]
    fn schedule_round_trips_through_bytes() {
        let (t, train) = topo();
        let pre = presample_epoch(t, &train, 300, 16, vec![3, 2], 4, 99, None);
        let bytes = pre.to_bytes();
        let back = PresampleResult::from_bytes(&bytes).expect("round trip");
        assert_eq!(pre, back);
    }

    #[test]
    fn loader_rejects_foreign_and_truncated_bytes() {
        let (t, train) = topo();
        let pre = presample_epoch(t, &train, 300, 16, vec![2], 0, 3, Some(2));
        let bytes = pre.to_bytes();
        assert!(matches!(
            PresampleResult::from_bytes(b"not a schedule at all..."),
            Err(ScheduleError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            PresampleResult::from_bytes(&wrong_version),
            Err(ScheduleError::UnsupportedVersion(9))
        ));
        // Every proper prefix must surface Truncated, never a partial
        // result — torn host writes land exactly here.
        for cut in (8..bytes.len()).step_by(97) {
            assert!(
                matches!(
                    PresampleResult::from_bytes(&bytes[..cut]),
                    Err(ScheduleError::BadMagic | ScheduleError::Truncated)
                ),
                "prefix of {cut} bytes must be rejected"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            PresampleResult::from_bytes(&padded),
            Err(ScheduleError::Truncated)
        ));
    }

    #[test]
    #[cfg_attr(miri, ignore = "touches the real filesystem")]
    fn save_and_load_from_disk() {
        let (t, train) = topo();
        let pre = presample_epoch(t, &train, 300, 16, vec![2, 2], 1, 17, Some(3));
        let dir = std::env::temp_dir().join(format!("gnndrive-sched-{}", std::process::id()));
        let path = dir.join("epoch1.gnnschd");
        pre.save(&path).expect("save");
        let back = PresampleResult::load_from(&path).expect("load");
        assert_eq!(pre, back);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
