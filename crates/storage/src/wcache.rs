//! Volatile write-back cache bookkeeping for [`SimSsd`](crate::SimSsd).
//!
//! Real SATA/NVMe devices acknowledge writes once they land in on-device
//! DRAM; the data becomes durable only when a flush/FUA barrier forces it
//! to media. Power loss discards whatever the cache still held — possibly
//! a prefix of a sector's new contents. This module models that window as
//! an *undo log*: serviced writes mutate the disk image immediately (the
//! cache serves reads back), and for every sector touched since its last
//! flush the cache keeps a snapshot of the sector's **durable** state —
//! bytes, CRC-table entry, intent-ledger entry, and quarantine flag — so
//! [`SimSsd::power_cut`](crate::SimSsd::power_cut) can roll the media
//! back to what actually survived.
//!
//! Per dirty sector a seeded power cut does one of three things:
//!
//! - **keep** — the cache line had already drained; the pending state is
//!   simply durable now;
//! - **drop** — nothing drained; the durable snapshot (bytes *and* CRC
//!   *and* ledger entry *and* fence) is restored wholesale, so the sector
//!   reads back as its consistent old version;
//! - **tear** — a seeded prefix of the pending bytes drained before the
//!   cut. The media holds the mixed prefix+suffix while the CRC table
//!   holds the pending checksum, and the intent-ledger entry is *removed*
//!   (the controller journal was in the same volatile domain), so every
//!   later read surfaces a typed persistent
//!   [`IntegrityError`](crate::IntegrityError) and the scrubber can only
//!   fence the sector —
//!   never silently serve garbage.
//!
//! Telemetry lives in the `storage.wcache.*` statics of
//! [`gnndrive_telemetry::catalog`].

use gnndrive_telemetry::catalog;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Durable-state snapshot of one sector taken when it first went dirty.
#[derive(Debug, Clone)]
pub(crate) struct DirtySector {
    /// Media bytes as of the last flush (or original import).
    pub(crate) durable: Vec<u8>,
    /// CRC-table entry as of the last flush.
    pub(crate) durable_crc: u32,
    /// Intent-ledger entry as of the last flush.
    pub(crate) durable_intent: Option<Vec<u8>>,
    /// Whether the sector was quarantined as of the last flush.
    pub(crate) durable_quarantined: bool,
}

/// What a [`SimSsd::power_cut`](crate::SimSsd::power_cut) did to the
/// unflushed sectors it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowerCutReport {
    /// Unflushed sectors at the instant of the cut.
    pub dirty: u64,
    /// Sectors whose pending contents happened to have fully drained.
    pub kept: u64,
    /// Sectors rolled back wholesale to their durable snapshot.
    pub dropped: u64,
    /// Sectors left with a torn prefix and a mismatched CRC (detectable,
    /// unrecoverable media damage).
    pub torn: u64,
}

/// The dirty-sector undo log. Lives behind its own lock in the device's
/// shared state, always acquired *after* `image` and `integrity` (same
/// rank — equal-rank nesting is allowed, order is conventional).
pub(crate) struct WriteCache {
    /// Absolute image sector index → durable snapshot.
    dirty: HashMap<u64, DirtySector>,
}

impl WriteCache {
    pub(crate) fn new() -> Self {
        // Listed from device creation on, so reports show zero power cuts
        // rather than no key.
        for c in [
            &catalog::STORAGE_WCACHE_SECTORS_DIRTIED,
            &catalog::STORAGE_WCACHE_FLUSHES,
            &catalog::STORAGE_WCACHE_SECTORS_FLUSHED,
            &catalog::STORAGE_WCACHE_POWER_CUTS,
            &catalog::STORAGE_WCACHE_SECTORS_KEPT,
            &catalog::STORAGE_WCACHE_SECTORS_DROPPED,
            &catalog::STORAGE_WCACHE_SECTORS_TORN,
        ] {
            c.register();
        }
        WriteCache {
            dirty: HashMap::new(),
        }
    }

    /// Record `sector` as dirty, snapshotting its durable state via `make`
    /// if (and only if) this is the first unflushed write to it. The
    /// snapshot must be taken *before* the write mutates the image.
    pub(crate) fn capture(&mut self, sector: u64, make: impl FnOnce() -> DirtySector) {
        if let Entry::Vacant(slot) = self.dirty.entry(sector) {
            slot.insert(make());
            catalog::STORAGE_WCACHE_SECTORS_DIRTIED.inc();
        }
    }

    /// Number of sectors currently dirty.
    pub(crate) fn dirty_len(&self) -> u64 {
        self.dirty.len() as u64
    }

    /// Make the pending state of sectors in `[lo, hi)` durable (a flush
    /// barrier over that range). Returns how many sectors drained.
    pub(crate) fn flush_range(&mut self, lo: u64, hi: u64) -> u64 {
        let before = self.dirty.len();
        self.dirty.retain(|&s, _| s < lo || s >= hi);
        let drained = (before - self.dirty.len()) as u64;
        catalog::STORAGE_WCACHE_FLUSHES.inc();
        catalog::STORAGE_WCACHE_SECTORS_FLUSHED.add(drained);
        drained
    }

    /// Make everything durable (a whole-device flush barrier).
    pub(crate) fn drain_all(&mut self) -> u64 {
        let drained = self.dirty.len() as u64;
        self.dirty.clear();
        catalog::STORAGE_WCACHE_FLUSHES.inc();
        catalog::STORAGE_WCACHE_SECTORS_FLUSHED.add(drained);
        drained
    }

    /// Forget dirty state for sectors in `[lo, hi)` without counting a
    /// flush: used by write-through paths (`import`, scrub repair) whose
    /// mutation goes straight to durable media.
    pub(crate) fn write_through(&mut self, lo: u64, hi: u64) {
        self.dirty.retain(|&s, _| s < lo || s >= hi);
    }

    /// Remove and return every dirty sector, ordered by sector index so a
    /// seeded power cut applies deterministically.
    pub(crate) fn take_sorted(&mut self) -> Vec<(u64, DirtySector)> {
        let mut all: Vec<(u64, DirtySector)> =
            std::mem::take(&mut self.dirty).into_iter().collect();
        all.sort_by_key(|&(s, _)| s);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(tag: u8) -> DirtySector {
        DirtySector {
            durable: vec![tag; 4],
            durable_crc: tag as u32,
            durable_intent: None,
            durable_quarantined: false,
        }
    }

    #[test]
    fn capture_snapshots_only_the_first_write() {
        let mut wc = WriteCache::new();
        wc.capture(5, || snap(1));
        // A second write to the same sector must keep the first (durable)
        // snapshot, not overwrite it with intermediate pending state.
        wc.capture(5, || snap(2));
        assert_eq!(wc.dirty_len(), 1);
        let drained = wc.take_sorted();
        assert_eq!(drained[0].1.durable, vec![1; 4]);
    }

    #[test]
    fn flush_range_drains_only_the_window() {
        let mut wc = WriteCache::new();
        for s in [1u64, 4, 7, 9] {
            wc.capture(s, || snap(s as u8));
        }
        assert_eq!(wc.flush_range(4, 8), 2);
        assert_eq!(wc.dirty_len(), 2);
        assert_eq!(wc.drain_all(), 2);
        assert_eq!(wc.dirty_len(), 0);
    }

    #[test]
    fn drain_is_sorted_for_deterministic_cuts() {
        let mut wc = WriteCache::new();
        for s in [9u64, 2, 33, 5] {
            wc.capture(s, || snap(0));
        }
        let order: Vec<u64> = wc.take_sorted().into_iter().map(|(s, _)| s).collect();
        assert_eq!(order, vec![2, 5, 9, 33]);
        assert_eq!(wc.dirty_len(), 0);
    }

    #[test]
    fn write_through_forgets_without_counting_a_flush() {
        let mut wc = WriteCache::new();
        let flushes = catalog::STORAGE_WCACHE_FLUSHES.get();
        let flushed = catalog::STORAGE_WCACHE_SECTORS_FLUSHED.get();
        wc.capture(3, || snap(0));
        wc.write_through(0, 10);
        assert_eq!(wc.dirty_len(), 0);
        assert_eq!(catalog::STORAGE_WCACHE_FLUSHES.get(), flushes);
        assert_eq!(catalog::STORAGE_WCACHE_SECTORS_FLUSHED.get(), flushed);
    }
}
