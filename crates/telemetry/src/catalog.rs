//! The metric catalog: every registry metric, declared once.
//!
//! Emitters and readers name a metric by its static (`catalog::SSD_READ_OPS`),
//! never by its string, so a metric missing from this file does not
//! compile. Each static's identifier is its dotted name upper-cased with
//! `.` as `_`; the names themselves are what snapshots, run reports and the
//! benchmark read, so they are never renamed. A static is listed in the
//! registry the first time it is touched (see [`crate::metrics`]).

use crate::metrics::{Counter, Gauge, HistogramHandle};

// `SimSsd` I/O statistics (`IoStats`): operations, bytes, and the device's
// service and queueing time.
pub static SSD_READ_OPS: Counter = Counter::new("ssd.read_ops");
pub static SSD_READ_BYTES: Counter = Counter::new("ssd.read_bytes");
pub static SSD_WRITE_OPS: Counter = Counter::new("ssd.write_ops");
pub static SSD_WRITE_BYTES: Counter = Counter::new("ssd.write_bytes");
pub static SSD_IO_WAIT_NS: Counter = Counter::new("ssd.io_wait_ns");
pub static SSD_QUEUE_FULL_STALLS: Counter = Counter::new("ssd.queue_full_stalls");
pub static SSD_SERVICE: HistogramHandle = HistogramHandle::new("ssd.service");
pub static SSD_QUEUE_WAIT: HistogramHandle = HistogramHandle::new("ssd.queue_wait");

// The queue/service split of every completed I/O, and its QoS lane split
// (DESIGN.md §11).
pub static STORAGE_QUEUE_WAIT_NS: Counter = Counter::new("storage.queue.wait_ns");
pub static STORAGE_QUEUE_SERVICE_NS: Counter = Counter::new("storage.queue.service_ns");
pub static STORAGE_QUEUE_LANE_SERVE_OPS: Counter = Counter::new("storage.queue.lane.serve_ops");
pub static STORAGE_QUEUE_LANE_BULK_OPS: Counter = Counter::new("storage.queue.lane.bulk_ops");
pub static STORAGE_QUEUE_LANE_SERVE_WAIT_NS: Counter =
    Counter::new("storage.queue.lane.serve_wait_ns");
pub static STORAGE_QUEUE_LANE_BULK_WAIT_NS: Counter =
    Counter::new("storage.queue.lane.bulk_wait_ns");

// Injected device faults (`FaultInjector`).
pub static STORAGE_FAULTS: Counter = Counter::new("storage.faults");
pub static STORAGE_LATENCY_SPIKES: Counter = Counter::new("storage.latency_spikes");
pub static STORAGE_STALLS: Counter = Counter::new("storage.stalls");

// Silent-corruption injection and end-to-end checksum detection (DESIGN.md §9).
pub static STORAGE_INTEGRITY_INJECTED: Counter = Counter::new("storage.integrity.injected");
pub static STORAGE_INTEGRITY_BIT_FLIPS: Counter = Counter::new("storage.integrity.bit_flips");
pub static STORAGE_INTEGRITY_MISDIRECTS: Counter = Counter::new("storage.integrity.misdirects");
pub static STORAGE_INTEGRITY_TORN_WRITES: Counter = Counter::new("storage.integrity.torn_writes");
pub static STORAGE_INTEGRITY_DETECTED: Counter = Counter::new("storage.integrity.detected");
pub static STORAGE_INTEGRITY_ESCAPED: Counter = Counter::new("storage.integrity.escaped");
pub static STORAGE_INTEGRITY_QUARANTINED: Counter = Counter::new("storage.integrity.quarantined");

// Background scrubbing passes.
pub static STORAGE_SCRUB_SCANNED: Counter = Counter::new("storage.scrub.scanned");
pub static STORAGE_SCRUB_REPAIRED: Counter = Counter::new("storage.scrub.repaired");
pub static STORAGE_SCRUB_UNRECOVERABLE: Counter = Counter::new("storage.scrub.unrecoverable");
pub static STORAGE_SCRUB_PASSES: Counter = Counter::new("storage.scrub.passes");

// The device circuit breaker (`DeviceHealth`).
pub static STORAGE_HEALTH_STATE: Gauge = Gauge::new("storage.health.state");
pub static STORAGE_HEALTH_TRIPS: Counter = Counter::new("storage.health.trips");
pub static STORAGE_HEALTH_PROBES: Counter = Counter::new("storage.health.probes");
pub static STORAGE_HEALTH_RECOVERIES: Counter = Counter::new("storage.health.recoveries");

// The volatile write-back cache and power cuts (DESIGN.md §14).
pub static STORAGE_WCACHE_SECTORS_DIRTIED: Counter = Counter::new("storage.wcache.sectors_dirtied");
pub static STORAGE_WCACHE_FLUSHES: Counter = Counter::new("storage.wcache.flushes");
pub static STORAGE_WCACHE_SECTORS_FLUSHED: Counter = Counter::new("storage.wcache.sectors_flushed");
pub static STORAGE_WCACHE_POWER_CUTS: Counter = Counter::new("storage.wcache.power_cuts");
pub static STORAGE_WCACHE_SECTORS_KEPT: Counter = Counter::new("storage.wcache.sectors_kept");
pub static STORAGE_WCACHE_SECTORS_DROPPED: Counter = Counter::new("storage.wcache.sectors_dropped");
pub static STORAGE_WCACHE_SECTORS_TORN: Counter = Counter::new("storage.wcache.sectors_torn");

// Armed crash points (`crate::crash`).
pub static STORAGE_CRASH_POINTS: Counter = Counter::new("storage.crash.points");
pub static STORAGE_CRASH_CUTS: Counter = Counter::new("storage.crash.cuts");
pub static STORAGE_CRASH_RECOVERIES: Counter = Counter::new("storage.crash.recoveries");

// Page accesses recorded by `PageCache::start_trace`.
pub static STORAGE_TRACE_RECORDED: Counter = Counter::new("storage.trace.recorded");

// The OS page-cache model (`PageCache`).
pub static PAGE_CACHE_HITS: Counter = Counter::new("page_cache.hits");
pub static PAGE_CACHE_MISSES: Counter = Counter::new("page_cache.misses");
pub static PAGE_CACHE_EVICTIONS: Counter = Counter::new("page_cache.evictions");
pub static PAGE_CACHE_BYPASSES: Counter = Counter::new("page_cache.bypasses");
pub static PAGE_CACHE_READAHEADS: Counter = Counter::new("page_cache.readaheads");
pub static PAGE_CACHE_FILLS: Counter = Counter::new("page_cache.fills");
pub static PAGE_CACHE_RETRIES: Counter = Counter::new("page_cache.retries");
pub static PAGE_CACHE_READ_ERRORS: Counter = Counter::new("page_cache.read_errors");
pub static PAGE_CACHE_RESIDENT_PAGES: Gauge = Gauge::new("page_cache.resident_pages");

// Memory-governor admission: stalled admissions.
pub static GOVERNOR_ADMISSION_STALLS: Counter = Counter::new("governor.admission_stalls");

// The feature buffer's slot reuse and loads.
pub static FEATURE_BUFFER_REUSE_HITS: Counter = Counter::new("feature_buffer.reuse_hits");
pub static FEATURE_BUFFER_SHARED_LOADS: Counter = Counter::new("feature_buffer.shared_loads");
pub static FEATURE_BUFFER_LOADS: Counter = Counter::new("feature_buffer.loads");
pub static FEATURE_BUFFER_DELAYED_INVALIDATIONS: Counter =
    Counter::new("feature_buffer.delayed_invalidations");
pub static FEATURE_BUFFER_SLOTS: Gauge = Gauge::new("feature_buffer.slots");
pub static FEATURE_BUFFER_STANDBY_SLOTS: Gauge = Gauge::new("feature_buffer.standby_slots");
// The announce horizon inside the buffer: distinct rows queued batches
// announced, and slots stolen from such rows (the horizon outgrew the buffer).
pub static FEATURE_BUFFER_ANNOUNCED_ROWS: Gauge = Gauge::new("feature_buffer.announced_rows");
pub static FEATURE_BUFFER_ANNOUNCED_STEALS: Counter =
    Counter::new("feature_buffer.announced_steals");
// Bridged rows a queued batch announced: taken into the buffer straight
// from the read window, or refused because the standby front was no colder.
pub static FEATURE_BUFFER_HARVESTED_ROWS: Counter = Counter::new("feature_buffer.harvested_rows");
pub static FEATURE_BUFFER_HARVEST_DECLINED: Counter =
    Counter::new("feature_buffer.harvest_declined");

// The GNNDrive pipeline: stage latencies, queue depths, batches and epochs.
pub static PIPELINE_SAMPLE: HistogramHandle = HistogramHandle::new("pipeline.sample");
pub static PIPELINE_EXTRACT: HistogramHandle = HistogramHandle::new("pipeline.extract");
pub static PIPELINE_TRAIN: HistogramHandle = HistogramHandle::new("pipeline.train");
pub static PIPELINE_RELEASE: HistogramHandle = HistogramHandle::new("pipeline.release");
pub static PIPELINE_EXTRACT_QUEUE_DEPTH: Gauge = Gauge::new("pipeline.extract_queue.depth");
pub static PIPELINE_TRAIN_QUEUE_DEPTH: Gauge = Gauge::new("pipeline.train_queue.depth");
// Samples announced but not yet pinned: how far the samplers ran ahead.
pub static PIPELINE_HORIZON_BATCHES: Gauge = Gauge::new("pipeline.horizon_batches");
pub static PIPELINE_BATCHES_TRAINED: Counter = Counter::new("pipeline.batches_trained");
pub static PIPELINE_BATCHES_SKIPPED: Counter = Counter::new("pipeline.batches_skipped");
pub static PIPELINE_EPOCHS: Counter = Counter::new("pipeline.epochs");
// The next epoch's head, extracted at an epoch's tail: batches a call
// started with already extracted, and head batches released untrained.
pub static PIPELINE_HEAD_BATCHES: Counter = Counter::new("pipeline.head_batches");
pub static PIPELINE_HEAD_DISCARDED: Counter = Counter::new("pipeline.head_discarded");

// Extractor reads retried after a transient device error.
pub static CORE_EXTRACT_RETRIES: Counter = Counter::new("core.extract.retries");

// Critical-path attribution: one histogram per `WaitKind`, plus the
// conservation residual (DESIGN.md §10).
pub static CORE_ATTR_MEM_ADMISSION: HistogramHandle =
    HistogramHandle::new("core.attr.mem_admission");
pub static CORE_ATTR_STAGING_WAIT: HistogramHandle = HistogramHandle::new("core.attr.staging_wait");
pub static CORE_ATTR_SLOT_WAIT: HistogramHandle = HistogramHandle::new("core.attr.slot_wait");
pub static CORE_ATTR_RING_WAIT: HistogramHandle = HistogramHandle::new("core.attr.ring_wait");
pub static CORE_ATTR_SYNC_READ_WAIT: HistogramHandle =
    HistogramHandle::new("core.attr.sync_read_wait");
pub static CORE_ATTR_TRANSFER_WAIT: HistogramHandle =
    HistogramHandle::new("core.attr.transfer_wait");
pub static CORE_ATTR_READY_WAIT: HistogramHandle = HistogramHandle::new("core.attr.ready_wait");
pub static CORE_ATTR_PAGE_FAULT_WAIT: HistogramHandle =
    HistogramHandle::new("core.attr.page_fault_wait");
pub static CORE_ATTR_OTHER: HistogramHandle = HistogramHandle::new("core.attr.other");

// Data-parallel workers that failed.
pub static PARALLEL_WORKER_FAILURES: Counter = Counter::new("parallel.worker_failures");

// The simulated device: host-to-device transfers and compute kernels.
pub static DEVICE_TRANSFER_OPS: Counter = Counter::new("device.transfer.ops");
pub static DEVICE_TRANSFER_BYTES: Counter = Counter::new("device.transfer.bytes");
pub static DEVICE_TRANSFER_SERVICE: HistogramHandle =
    HistogramHandle::new("device.transfer.service");
pub static DEVICE_COMPUTE_KERNELS: Counter = Counter::new("device.compute.kernels");
pub static DEVICE_COMPUTE_KERNEL: HistogramHandle = HistogramHandle::new("device.compute.kernel");

// The serving tier (DESIGN.md §11).
pub static SERVE_REQUESTS: Counter = Counter::new("serve.requests");
pub static SERVE_REJECTED: Counter = Counter::new("serve.rejected");
pub static SERVE_COMPLETED: Counter = Counter::new("serve.completed");
pub static SERVE_FAILED: Counter = Counter::new("serve.failed");
pub static SERVE_BATCHES: Counter = Counter::new("serve.batches");
pub static SERVE_SLO_VIOLATIONS: Counter = Counter::new("serve.slo_violations");
pub static SERVE_LATENCY: HistogramHandle = HistogramHandle::new("serve.latency");
pub static SERVE_QUEUE_WAIT: HistogramHandle = HistogramHandle::new("serve.queue_wait");
pub static SERVE_SERVICE: HistogramHandle = HistogramHandle::new("serve.service");
pub static SERVE_QUEUE_DEPTH: Gauge = Gauge::new("serve.queue.depth");

// The PyG+ baseline.
pub static PYGPLUS_EPOCHS: Counter = Counter::new("pygplus.epochs");
pub static PYGPLUS_BATCHES_TRAINED: Counter = Counter::new("pygplus.batches_trained");
pub static PYGPLUS_BYTES_READ: Counter = Counter::new("pygplus.bytes_read");
pub static PYGPLUS_BATCH_LATENCY: HistogramHandle = HistogramHandle::new("pygplus.batch_latency");

// The Ginex baseline.
pub static GINEX_EPOCHS: Counter = Counter::new("ginex.epochs");
pub static GINEX_BATCHES_TRAINED: Counter = Counter::new("ginex.batches_trained");
pub static GINEX_BYTES_READ: Counter = Counter::new("ginex.bytes_read");
pub static GINEX_BATCH_LATENCY: HistogramHandle = HistogramHandle::new("ginex.batch_latency");

// The MariusGNN baseline.
pub static MARIUS_EPOCHS: Counter = Counter::new("marius.epochs");
pub static MARIUS_BATCHES_TRAINED: Counter = Counter::new("marius.batches_trained");
pub static MARIUS_BYTES_READ: Counter = Counter::new("marius.bytes_read");
pub static MARIUS_BATCH_LATENCY: HistogramHandle = HistogramHandle::new("marius.batch_latency");

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    /// Every `pub static IDENT: Type = Type::new("name");` item of this
    /// file, as `(IDENT, name)`.
    fn declarations() -> Vec<(&'static str, &'static str)> {
        let src = include_str!("catalog.rs");
        src[..src.find("#[cfg(test)]").expect("test module")]
            .split("pub static ")
            .skip(1)
            .map(|item| {
                let ident = &item[..item.find(':').expect("typed static")];
                let name = item.split('"').nth(1).expect("quoted name");
                (ident, name)
            })
            .collect()
    }

    #[test]
    fn names_are_unique_dotted_lowercase_paths() {
        let decls = declarations();
        assert!(decls.len() > 100, "parsed {} declarations", decls.len());
        assert!(decls.len() < crate::metrics::CAPACITY, "grow the registry");
        let mut seen = HashSet::new();
        for (ident, name) in decls {
            assert!(seen.insert(name), "{name} is declared twice");
            assert!(
                name.split('.').count() > 1
                    && name.split('.').all(|seg| {
                        !seg.is_empty()
                            && seg
                                .bytes()
                                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
                    }),
                "{name} is not dot-separated [a-z0-9_] segments"
            );
            assert_eq!(ident, name.to_uppercase().replace('.', "_"), "{name}");
        }
    }
}
