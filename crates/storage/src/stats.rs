//! Device-level I/O counters.
//!
//! [`IoStats`] is the per-device instrument. Every increment is mirrored
//! into the process-wide metrics registry under the `ssd.` prefix
//! (`ssd.read_bytes`, `ssd.service` ...), so run reports see the storage
//! stack without threading device handles around; the typed
//! [`IoStatsSnapshot`] stays as the cheap per-device view the pipeline's
//! epoch accounting diffs against.

use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::catalog;
use telemetry::{HistSummary, Histogram};

/// Cumulative counters maintained by a [`crate::SimSsd`].
///
/// `io_wait_nanos` is the summed wall time callers spent *blocked* on this
/// device (synchronous reads and `wait_completion` calls), which is the
/// quantity behind the paper's "ratio of I/O wait time" panels.
///
/// Two per-op latency distributions ride alongside the counters:
/// **service** time (what the device model charges: base latency plus
/// bandwidth reservation, excluding any time queued behind other requests)
/// and **queueing** delay (submission until a channel picks the request
/// up). Their split is what distinguishes a congested device from a slow
/// one (paper §2.2, I/O congestion).
#[derive(Debug)]
pub struct IoStats {
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    /// Wall nanoseconds callers spent blocked waiting on this device.
    pub io_wait_nanos: AtomicU64,
    /// Times a submission found the device queue full and had to stall.
    pub queue_full_stalls: AtomicU64,
    /// Requests serviced per QoS lane (DESIGN.md §11).
    pub serve_ops: AtomicU64,
    pub bulk_ops: AtomicU64,
    service: OrderedMutex<Histogram>,
    queueing: OrderedMutex<Histogram>,
}

impl Default for IoStats {
    fn default() -> Self {
        // Every device lists its whole registry set, so a report shows
        // zero stalls or serve-lane reads rather than omitting the keys.
        // The `storage.queue.*` split is what the attribution layer
        // (DESIGN.md §10) divides to tell a congested device from a slow
        // one; the lane split is the serving tier's evidence that its reads
        // jump the bulk queue.
        for c in [
            &catalog::SSD_READ_OPS,
            &catalog::SSD_READ_BYTES,
            &catalog::SSD_WRITE_OPS,
            &catalog::SSD_WRITE_BYTES,
            &catalog::SSD_IO_WAIT_NS,
            &catalog::SSD_QUEUE_FULL_STALLS,
            &catalog::STORAGE_QUEUE_WAIT_NS,
            &catalog::STORAGE_QUEUE_SERVICE_NS,
            &catalog::STORAGE_QUEUE_LANE_SERVE_OPS,
            &catalog::STORAGE_QUEUE_LANE_BULK_OPS,
            &catalog::STORAGE_QUEUE_LANE_SERVE_WAIT_NS,
            &catalog::STORAGE_QUEUE_LANE_BULK_WAIT_NS,
        ] {
            c.register();
        }
        catalog::SSD_SERVICE.register();
        catalog::SSD_QUEUE_WAIT.register();
        IoStats {
            read_ops: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            io_wait_nanos: AtomicU64::new(0),
            queue_full_stalls: AtomicU64::new(0),
            serve_ops: AtomicU64::new(0),
            bulk_ops: AtomicU64::new(0),
            service: OrderedMutex::new(LockRank::Storage, Histogram::new()),
            queueing: OrderedMutex::new(LockRank::Storage, Histogram::new()),
        }
    }
}

/// A point-in-time copy of [`IoStats`].
///
/// The `service_*`/`queue_wait_*` fields summarize the cumulative latency
/// distributions at snapshot time. Percentiles are not counter-like, so
/// [`IoStatsSnapshot::delta_since`] carries the later snapshot's values
/// through unchanged rather than subtracting them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    pub read_ops: u64,
    pub read_bytes: u64,
    pub write_ops: u64,
    pub write_bytes: u64,
    pub io_wait_nanos: u64,
    pub queue_full_stalls: u64,
    pub serve_ops: u64,
    pub bulk_ops: u64,
    pub service_p50_ns: u64,
    pub service_p99_ns: u64,
    pub queue_wait_p50_ns: u64,
    pub queue_wait_p99_ns: u64,
}

impl IoStats {
    pub fn snapshot(&self) -> IoStatsSnapshot {
        let (service_p50_ns, service_p99_ns) = {
            let h = self.service.lock();
            (h.percentile(0.50), h.percentile(0.99))
        };
        let (queue_wait_p50_ns, queue_wait_p99_ns) = {
            let h = self.queueing.lock();
            (h.percentile(0.50), h.percentile(0.99))
        };
        IoStatsSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            io_wait_nanos: self.io_wait_nanos.load(Ordering::Relaxed),
            queue_full_stalls: self.queue_full_stalls.load(Ordering::Relaxed),
            serve_ops: self.serve_ops.load(Ordering::Relaxed),
            bulk_ops: self.bulk_ops.load(Ordering::Relaxed),
            service_p50_ns,
            service_p99_ns,
            queue_wait_p50_ns,
            queue_wait_p99_ns,
        }
    }

    pub fn add_read(&self, bytes: u64) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        catalog::SSD_READ_OPS.inc();
        catalog::SSD_READ_BYTES.add(bytes);
    }

    pub fn add_write(&self, bytes: u64) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        catalog::SSD_WRITE_OPS.inc();
        catalog::SSD_WRITE_BYTES.add(bytes);
    }

    pub fn add_io_wait(&self, nanos: u64) {
        self.io_wait_nanos.fetch_add(nanos, Ordering::Relaxed);
        catalog::SSD_IO_WAIT_NS.add(nanos);
    }

    pub fn add_queue_full_stall(&self) {
        self.queue_full_stalls.fetch_add(1, Ordering::Relaxed);
        catalog::SSD_QUEUE_FULL_STALLS.inc();
    }

    /// Record one serviced request: the modeled service time and the
    /// queueing delay it saw before a channel picked it up.
    pub fn record_op(&self, service_ns: u64, queue_ns: u64) {
        self.service.lock().record(service_ns);
        self.queueing.lock().record(queue_ns);
        catalog::SSD_SERVICE.record(service_ns);
        catalog::SSD_QUEUE_WAIT.record(queue_ns);
        catalog::STORAGE_QUEUE_WAIT_NS.add(queue_ns);
        catalog::STORAGE_QUEUE_SERVICE_NS.add(service_ns);
    }

    /// Record which QoS lane a serviced request came from and the queueing
    /// delay it paid there (DESIGN.md §11).
    pub fn record_lane(&self, prio: crate::IoPriority, queue_ns: u64) {
        match prio {
            crate::IoPriority::Serve => {
                self.serve_ops.fetch_add(1, Ordering::Relaxed);
                catalog::STORAGE_QUEUE_LANE_SERVE_OPS.inc();
                catalog::STORAGE_QUEUE_LANE_SERVE_WAIT_NS.add(queue_ns);
            }
            crate::IoPriority::Bulk => {
                self.bulk_ops.fetch_add(1, Ordering::Relaxed);
                catalog::STORAGE_QUEUE_LANE_BULK_OPS.inc();
                catalog::STORAGE_QUEUE_LANE_BULK_WAIT_NS.add(queue_ns);
            }
        }
    }

    /// Percentile summary of per-op service time.
    pub fn service_summary(&self) -> HistSummary {
        HistSummary::of(&self.service.lock())
    }

    /// Percentile summary of per-op queueing delay.
    pub fn queue_wait_summary(&self) -> HistSummary {
        HistSummary::of(&self.queueing.lock())
    }
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating). Latency
    /// percentiles are distributions, not counters: the result keeps
    /// `self`'s (the later snapshot's) values.
    pub fn delta_since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            write_ops: self.write_ops.saturating_sub(earlier.write_ops),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            io_wait_nanos: self.io_wait_nanos.saturating_sub(earlier.io_wait_nanos),
            queue_full_stalls: self
                .queue_full_stalls
                .saturating_sub(earlier.queue_full_stalls),
            serve_ops: self.serve_ops.saturating_sub(earlier.serve_ops),
            bulk_ops: self.bulk_ops.saturating_sub(earlier.bulk_ops),
            service_p50_ns: self.service_p50_ns,
            service_p99_ns: self.service_p99_ns,
            queue_wait_p50_ns: self.queue_wait_p50_ns,
            queue_wait_p99_ns: self.queue_wait_p99_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = IoStats::default();
        s.add_read(512);
        s.add_read(1024);
        s.add_write(256);
        let snap = s.snapshot();
        assert_eq!(snap.read_ops, 2);
        assert_eq!(snap.read_bytes, 1536);
        assert_eq!(snap.write_ops, 1);
        assert_eq!(snap.write_bytes, 256);
    }

    #[test]
    fn delta_is_saturating_and_correct() {
        let s = IoStats::default();
        s.add_read(100);
        let a = s.snapshot();
        s.add_read(50);
        let b = s.snapshot();
        let d = b.delta_since(&a);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.read_bytes, 50);
        assert_eq!(a.delta_since(&b).read_bytes, 0);
    }

    #[test]
    fn service_and_queueing_are_separate_distributions() {
        let s = IoStats::default();
        for _ in 0..100 {
            s.record_op(100_000, 1_000_000);
        }
        let snap = s.snapshot();
        assert!(snap.service_p50_ns >= 90_000 && snap.service_p50_ns <= 100_000);
        assert!(snap.queue_wait_p50_ns >= 900_000);
        assert_eq!(s.service_summary().count, 100);
        assert_eq!(s.queue_wait_summary().count, 100);
        // Deltas keep the later snapshot's percentiles (not subtractable).
        let d = snap.delta_since(&IoStatsSnapshot::default());
        assert_eq!(d.service_p99_ns, snap.service_p99_ns);
    }

    #[test]
    fn increments_mirror_into_registry() {
        telemetry::reset_metrics();
        let s = IoStats::default();
        s.add_read(4096);
        s.add_queue_full_stall();
        s.record_op(50_000, 10_000);
        let m = telemetry::snapshot_metrics();
        assert!(m.counter(catalog::SSD_READ_BYTES.name()) >= 4096);
        assert!(m.counter(catalog::SSD_QUEUE_FULL_STALLS.name()) >= 1);
        assert!(matches!(
            m.get(catalog::SSD_SERVICE.name()),
            Some(telemetry::MetricValue::Histogram(h)) if h.count >= 1
        ));
        assert!(m.counter(catalog::STORAGE_QUEUE_WAIT_NS.name()) >= 10_000);
        assert!(m.counter(catalog::STORAGE_QUEUE_SERVICE_NS.name()) >= 50_000);
    }

    #[test]
    fn lane_counters_split_serve_from_bulk() {
        let s = IoStats::default();
        s.record_lane(crate::IoPriority::Serve, 1_000);
        s.record_lane(crate::IoPriority::Bulk, 2_000);
        s.record_lane(crate::IoPriority::Bulk, 3_000);
        let snap = s.snapshot();
        assert_eq!(snap.serve_ops, 1);
        assert_eq!(snap.bulk_ops, 2);
        let d = snap.delta_since(&IoStatsSnapshot::default());
        assert_eq!((d.serve_ops, d.bulk_ops), (1, 2));
        let m = telemetry::snapshot_metrics();
        assert!(m.counter(catalog::STORAGE_QUEUE_LANE_SERVE_OPS.name()) >= 1);
        assert!(m.counter(catalog::STORAGE_QUEUE_LANE_BULK_WAIT_NS.name()) >= 5_000);
    }
}
