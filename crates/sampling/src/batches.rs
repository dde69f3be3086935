//! Epoch batching: split the training set into mini-batches.

use gnndrive_graph::NodeId;
use gnndrive_sync::Rng;

/// The mini-batch schedule of one epoch: a (possibly shuffled) permutation
/// of the training nodes cut into `batch_size` chunks.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    order: Vec<NodeId>,
    batch_size: usize,
}

impl BatchPlan {
    /// Shuffle `train_idx` with the epoch seed and batch it. The paper
    /// shuffles per epoch (standard SGD practice); shuffling is
    /// deterministic given `(epoch, seed)` so all systems train on
    /// identical batch contents.
    pub fn new(train_idx: &[NodeId], batch_size: usize, epoch: u64, seed: u64) -> Self {
        assert!(batch_size > 0);
        let mut order = train_idx.to_vec();
        Rng::seed_from_u64(seed ^ epoch.wrapping_mul(0xA24B_AED4_963E_E407)).shuffle(&mut order);
        BatchPlan { order, batch_size }
    }

    /// Number of mini-batches in the epoch (last one may be short).
    pub fn num_batches(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// The seed nodes of mini-batch `i`.
    pub fn batch(&self, i: usize) -> &[NodeId] {
        let s = i * self.batch_size;
        let e = (s + self.batch_size).min(self.order.len());
        &self.order[s..e]
    }

    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Iterate `(batch_id, seeds)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[NodeId])> + '_ {
        (0..self.num_batches()).map(move |i| (i as u64, self.batch(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_partition_the_training_set() {
        let train: Vec<NodeId> = (0..103).collect();
        let plan = BatchPlan::new(&train, 10, 0, 42);
        assert_eq!(plan.num_batches(), 11);
        let mut all: Vec<NodeId> = plan.iter().flat_map(|(_, b)| b.to_vec()).collect();
        assert_eq!(all.len(), 103);
        all.sort_unstable();
        assert_eq!(all, train);
        assert_eq!(plan.batch(10).len(), 3);
    }

    #[test]
    fn different_epochs_shuffle_differently_same_epoch_identically() {
        let train: Vec<NodeId> = (0..50).collect();
        let a = BatchPlan::new(&train, 10, 0, 1);
        let b = BatchPlan::new(&train, 10, 0, 1);
        let c = BatchPlan::new(&train, 10, 1, 1);
        assert_eq!(a.batch(0), b.batch(0));
        assert_ne!(a.order, c.order);
    }

    #[test]
    fn single_batch_when_batch_size_exceeds_set() {
        let train: Vec<NodeId> = (0..5).collect();
        let plan = BatchPlan::new(&train, 100, 0, 7);
        assert_eq!(plan.num_batches(), 1);
        assert_eq!(plan.batch(0).len(), 5);
    }
}
