//! Serving-tier configuration.

use gnndrive_core::StackConfig;
use std::time::Duration;

/// Tunables of a [`Server`](crate::Server).
///
/// The shared storage-stack knobs (memory budget, fanouts, I/O mode, retry
/// and health policy) live in the embedded [`StackConfig`] — the same
/// struct the training builder and the bench scenarios consume — so a
/// co-located trainer and server cannot drift apart on them.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shared storage-stack knobs; see [`StackConfig`].
    pub stack: StackConfig,
    /// How long the batcher holds an open micro-batch waiting for more
    /// requests before launching it. Bounds the queueing delay batching
    /// can add to any request.
    pub coalesce_deadline: Duration,
    /// Micro-batch size cap: the batcher launches as soon as this many
    /// requests are pending, deadline or not.
    pub max_batch: usize,
    /// The latency objective: responses slower than this (enqueue → reply)
    /// count into `serve.slo_violations` and the report's violation tally.
    pub slo_deadline: Duration,
    /// Admission-queue bound; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull) rather than
    /// queued into unbounded latency.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            stack: StackConfig::default(),
            coalesce_deadline: Duration::from_millis(2),
            max_batch: 32,
            slo_deadline: Duration::from_millis(250),
            queue_cap: 1024,
        }
    }
}

impl ServeConfig {
    /// Shared storage-stack knobs.
    pub fn with_stack(mut self, stack: StackConfig) -> Self {
        self.stack = stack;
        self
    }

    /// Micro-batch coalescing deadline.
    pub fn with_coalesce_deadline(mut self, deadline: Duration) -> Self {
        self.coalesce_deadline = deadline;
        self
    }

    /// Micro-batch size cap.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Latency SLO deadline.
    pub fn with_slo_deadline(mut self, deadline: Duration) -> Self {
        self.slo_deadline = deadline;
        self
    }

    /// Admission-queue capacity.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_degenerate_values() {
        let cfg = ServeConfig::default()
            .with_max_batch(0)
            .with_queue_cap(0)
            .with_coalesce_deadline(Duration::ZERO);
        assert_eq!(cfg.max_batch, 1);
        assert_eq!(cfg.queue_cap, 1);
        assert_eq!(cfg.coalesce_deadline, Duration::ZERO);
    }

    #[test]
    fn stack_rides_along() {
        let cfg =
            ServeConfig::default().with_stack(StackConfig::default().with_memory_budget(1 << 20));
        assert_eq!(cfg.stack.memory_budget, Some(1 << 20));
    }
}
