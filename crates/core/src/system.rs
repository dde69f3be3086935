//! The harness-facing interface every training system implements
//! (GNNDrive itself plus the PyG+/Ginex/MariusGNN baselines).

use gnndrive_graph::Dataset;
use gnndrive_nn::GnnModel;
use gnndrive_sampling::{InMemTopo, NeighborSampler};
use gnndrive_tensor::Matrix;
use std::sync::Arc;
use std::time::Duration;

/// What one training epoch reported.
#[derive(Debug, Clone, Default)]
pub struct EpochReport {
    /// Wall time of the measured epoch portion.
    pub wall: Duration,
    /// Mini-batches actually processed (may be capped by the harness).
    pub batches: usize,
    /// Mini-batches a full epoch would contain.
    pub full_batches: usize,
    /// Mini-batches skipped after unrecoverable extraction failures
    /// (graceful degradation; these are excluded from `batches`).
    pub failed_batches: usize,
    /// Mean training loss over the processed batches.
    pub loss: f32,
    /// Accumulated per-stage busy time (seconds, summed across workers).
    pub sample_secs: f64,
    pub extract_secs: f64,
    pub train_secs: f64,
    /// Feature/topology bytes read from SSD during the epoch.
    pub bytes_read: u64,
    /// Nodes loaded from SSD vs. served from a cache/buffer.
    pub nodes_loaded: u64,
    pub nodes_reused: u64,
    /// Data-preparation time on the critical path (MariusGNN's partition
    /// ordering + preloading; zero for systems without a prep phase).
    pub prep_secs: f64,
    /// End-to-end mini-batch latency distribution (sample start → optimizer
    /// step complete), in nanoseconds. Empty for systems that don't track
    /// it.
    pub batch_latency: gnndrive_telemetry::Histogram,
    /// Set when the epoch aborted (OOM and friends); timings then cover
    /// only the portion that ran.
    pub error: Option<String>,
}

impl EpochReport {
    /// Extrapolate the measured portion to a full epoch (the harness caps
    /// batch counts to fit the container; the paper's quantities are
    /// per-epoch).
    pub fn extrapolated_wall(&self) -> Duration {
        if self.batches == 0 || self.full_batches <= self.batches {
            return self.wall;
        }
        Duration::from_secs_f64(
            self.wall.as_secs_f64() * self.full_batches as f64 / self.batches as f64,
        )
    }
}

/// A disk-based GNN training system under test.
pub trait TrainingSystem {
    fn name(&self) -> String;

    /// Run (up to `max_batches` of) one training epoch.
    fn train_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> EpochReport;

    /// Run only the sample stage of an epoch (the paper's `-only`
    /// configuration in Figs 2; isolates sampling from extract-side
    /// memory pressure). Returns the sampling wall time.
    fn sample_only_epoch(&mut self, epoch: u64, max_batches: Option<usize>) -> Duration;

    /// Validation accuracy of the current model state.
    fn evaluate(&mut self) -> f64;

    /// Bottleneck attribution of the most recent [`train_epoch`]
    /// (DESIGN.md §10), for systems that instrument their wait edges.
    /// Baselines without per-batch attribution return `None`.
    ///
    /// [`train_epoch`]: TrainingSystem::train_epoch
    fn last_attribution(&self) -> Option<gnndrive_telemetry::AttributionReport> {
        None
    }
}

/// Shared offline evaluator: forward the model over (a capped number of)
/// validation nodes using ground-truth topology and the untimed feature
/// path. Accuracy measurement is identical across systems and costs no
/// simulated I/O, so time-to-accuracy curves measure *training* speed.
pub fn evaluate_model(model: &GnnModel, ds: &Dataset, fanouts: &[usize], max_nodes: usize) -> f64 {
    let n = ds.val_idx.len().min(max_nodes).max(1);
    let seeds: Vec<u32> = ds.val_idx[..n.min(ds.val_idx.len())].to_vec();
    let sampler = NeighborSampler::new(
        Arc::new(InMemTopo::new(Arc::clone(&ds.topology))),
        fanouts.to_vec(),
    );
    let sample = sampler.sample(u64::MAX, &seeds, 0xE7A1);
    let dim = ds.spec.feat_dim;
    let mut input = Matrix::zeros(sample.input_nodes.len(), dim);
    let mut bytes = Vec::new();
    for (i, &v) in sample.input_nodes.iter().enumerate() {
        ds.peek_feature_row_into(v, &mut bytes, input.row_mut(i));
    }
    let logits = model.forward(&sample.blocks, &input);
    let labels: Vec<usize> = sample
        .seeds
        .iter()
        .map(|&s| ds.labels[s as usize] as usize)
        .collect();
    gnndrive_nn::accuracy(&logits, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_scales_by_batch_ratio() {
        let r = EpochReport {
            wall: Duration::from_secs(2),
            batches: 10,
            full_batches: 50,
            ..Default::default()
        };
        assert_eq!(r.extrapolated_wall(), Duration::from_secs(10));
        let full = EpochReport {
            wall: Duration::from_secs(2),
            batches: 50,
            full_batches: 50,
            ..Default::default()
        };
        assert_eq!(full.extrapolated_wall(), Duration::from_secs(2));
    }
}
