//! Device-level I/O counters.
//!
//! [`IoStats`] is the per-device instrument. Every increment is mirrored
//! into the process-wide metrics registry under the `ssd.` prefix
//! (`ssd.read_bytes`, `ssd.service` ...), so run reports see the storage
//! stack without threading device handles around; the typed
//! [`IoStatsSnapshot`] stays as the cheap per-device view the pipeline's
//! epoch accounting diffs against.

use gnndrive_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::catalog;

/// Cumulative counters maintained by a [`crate::SimSsd`].
///
/// `io_wait_nanos` is the summed wall time callers spent *blocked* on this
/// device (parked waiting for a completion or for room in a full lane),
/// which is the quantity behind the paper's "ratio of I/O wait time"
/// panels.
///
/// The per-op latency distributions — **service** time (what the device
/// model charges, excluding any time queued behind other requests) and
/// **queueing** delay (submission until a channel takes the request, in
/// modeled time), whose split distinguishes a congested device from a slow
/// one (paper §2.2, I/O congestion) — live only in the process-wide registry
/// (`ssd.service`, `ssd.queue_wait`, `storage.queue.*`), which is what run
/// reports read.
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
        }
    }
}

/// A point-in-time copy of [`IoStats`].
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
}

impl IoStats {
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            read_ops: self.read_ops.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            write_ops: self.write_ops.load(Ordering::Relaxed),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            io_wait_nanos: self.io_wait_nanos.load(Ordering::Relaxed),
            queue_full_stalls: self.queue_full_stalls.load(Ordering::Relaxed),
            serve_ops: self.serve_ops.load(Ordering::Relaxed),
            bulk_ops: self.bulk_ops.load(Ordering::Relaxed),
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
}

impl IoStatsSnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_sync::{LockRank, OrderedMutex};

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

    /// The registry tests: `increments_mirror_into_registry` resets the
    /// process-wide metrics, so no other test may read them meanwhile.
    static REGISTRY: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

    #[test]
    fn service_and_queueing_are_separate_distributions() {
        let _gate = REGISTRY.lock();
        let count = |h: &'static telemetry::HistogramHandle| h.merged().count();
        let before = (
            count(&catalog::SSD_SERVICE),
            count(&catalog::SSD_QUEUE_WAIT),
        );
        let s = IoStats::default();
        for _ in 0..100 {
            s.record_op(100_000, 1_000_000);
        }
        assert!(count(&catalog::SSD_SERVICE) - before.0 >= 100);
        assert!(count(&catalog::SSD_QUEUE_WAIT) - before.1 >= 100);
    }

    #[test]
    fn increments_mirror_into_registry() {
        let _gate = REGISTRY.lock();
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
