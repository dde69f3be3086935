//! Versioned page-access trace artifacts.
//!
//! The pre-sampling pass (Ginex's "superbatch" idea) runs the sampler for
//! a full epoch under the training seed and records the exact sequence of
//! page keys the feature reads will fault. [`AccessTrace`] is that
//! sequence plus the metadata needed to reject a stale artifact: a magic,
//! a format version, the seed, and the epoch. The
//! [`BeladyPolicy`](crate::eviction::BeladyPolicy) consumes it; the
//! `gnndrive cache-sweep` persists it next to `BENCH_cache_sweep.json` so CI
//! can archive the evidence behind the miss-rate gate.
//!
//! Format (all little-endian): `magic[8] version:u32 page_size:u32
//! seed:u64 epoch:u64 count:u64 (file:u32 page:u64)*count`.
//!
//! Telemetry lives in the `storage.trace.*` statics of
//! [`gnndrive_telemetry::catalog`].

use crate::pagecache::PAGE_SIZE;
use gnndrive_telemetry as telemetry;
use std::fmt;
use std::path::Path;

/// File magic for trace artifacts.
pub const TRACE_MAGIC: [u8; 8] = *b"GNNDTRC\0";

/// Current trace format version. Bump on any layout change; loaders
/// reject other versions instead of misreading them.
pub const TRACE_VERSION: u32 = 1;

/// Why a trace artifact failed to load.
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace artifact (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "trace version {v} unsupported (expected {TRACE_VERSION})"
                )
            }
            TraceError::Truncated => write!(f, "trace artifact truncated"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// An ordered sequence of page accesses `(file id, page number)` recorded
/// under a pinned `(seed, epoch)` schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTrace {
    pub seed: u64,
    pub epoch: u64,
    /// Page size the trace was recorded under (always [`PAGE_SIZE`] today;
    /// stored so a future page-size change invalidates old artifacts).
    pub page_size: u32,
    pub accesses: Vec<(u32, u64)>,
}

impl AccessTrace {
    pub fn new(seed: u64, epoch: u64) -> Self {
        AccessTrace {
            seed,
            epoch,
            page_size: PAGE_SIZE as u32,
            accesses: Vec::new(),
        }
    }

    pub fn push(&mut self, file: u32, page: u64) {
        self.accesses.push((file, page));
    }

    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Number of distinct pages the trace touches.
    pub fn unique_pages(&self) -> usize {
        let mut keys: Vec<(u32, u64)> = self.accesses.clone();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.accesses.len() * 12);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.page_size.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.accesses.len() as u64).to_le_bytes());
        for &(file, page) in &self.accesses {
            out.extend_from_slice(&file.to_le_bytes());
            out.extend_from_slice(&page.to_le_bytes());
        }
        out
    }

    /// Parse the versioned binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut cur = bytes;
        let mut take = |n: usize| -> Result<&[u8], TraceError> {
            if cur.len() < n {
                return Err(TraceError::Truncated);
            }
            let (head, tail) = cur.split_at(n);
            cur = tail;
            Ok(head)
        };
        if take(8)? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = u32::from_le_bytes(take(4)?.try_into().expect("width"));
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let page_size = u32::from_le_bytes(take(4)?.try_into().expect("width"));
        let seed = u64::from_le_bytes(take(8)?.try_into().expect("width"));
        let epoch = u64::from_le_bytes(take(8)?.try_into().expect("width"));
        let count = u64::from_le_bytes(take(8)?.try_into().expect("width")) as usize;
        let mut accesses = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let file = u32::from_le_bytes(take(4)?.try_into().expect("width"));
            let page = u64::from_le_bytes(take(8)?.try_into().expect("width"));
            accesses.push((file, page));
        }
        Ok(AccessTrace {
            seed,
            epoch,
            page_size,
            accesses,
        })
    }

    /// Write the artifact to `path`. The write is crash-atomic
    /// (stage + fsync + rename via [`telemetry::atomic_write_file`]):
    /// `path` is only ever observable as its complete old or complete new
    /// version, so a crash mid-save cannot poison a later
    /// [`AccessTrace::load_from`] with a truncated artifact.
    pub fn save(&self, path: &Path) -> Result<(), TraceError> {
        telemetry::atomic_write_file("trace.save", path, &self.to_bytes())?;
        telemetry::catalog::STORAGE_TRACE_SAVED.inc();
        Ok(())
    }

    /// Load an artifact from `path`, rejecting foreign or stale formats.
    ///
    /// It is an associated function (no `self`), so `cargo xtask
    /// deadlock` never resolves a method-syntax `.load()` call, such as an
    /// atomic read under a guard, to it.
    pub fn load_from(path: &Path) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path)?;
        let trace = Self::from_bytes(&bytes)?;
        telemetry::catalog::STORAGE_TRACE_LOADED.inc();
        Ok(trace)
    }
}

/// Pages covered by fixed-size rows at the given indices: for each row,
/// the page range `[row*row_bytes, (row+1)*row_bytes)` spans, in order,
/// with consecutive duplicates removed. Callers pass rows in the order
/// they will be read (the extractor sorts ascending).
pub fn pages_for_rows(row_bytes: u64, rows: &[u64]) -> Vec<u64> {
    let mut pages = Vec::new();
    for &row in rows {
        let first = row * row_bytes / PAGE_SIZE as u64;
        let last = (row * row_bytes + row_bytes - 1) / PAGE_SIZE as u64;
        for p in first..=last {
            if pages.last() != Some(&p) {
                pages.push(p);
            }
        }
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_bytes() {
        let mut t = AccessTrace::new(0xBEEF, 3);
        for i in 0..1000u64 {
            t.push((i % 3) as u32, i * 7 % 97);
        }
        let parsed = AccessTrace::from_bytes(&t.to_bytes()).expect("round trip");
        assert_eq!(parsed, t);
        assert_eq!(parsed.page_size, PAGE_SIZE as u32);
    }

    #[test]
    fn rejects_bad_magic_and_versions() {
        let t = AccessTrace::new(1, 0);
        let mut bytes = t.to_bytes();
        assert!(matches!(
            AccessTrace::from_bytes(&bytes[..20]),
            Err(TraceError::Truncated)
        ));
        bytes[8] = 99; // version low byte
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(99))
        ));
        bytes[0] = b'X';
        assert!(matches!(
            AccessTrace::from_bytes(&bytes),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let mut t = AccessTrace::new(1, 0);
        t.push(0, 1);
        t.push(0, 2);
        let bytes = t.to_bytes();
        assert!(matches!(
            AccessTrace::from_bytes(&bytes[..bytes.len() - 1]),
            Err(TraceError::Truncated)
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("gnndrive-trace-test");
        let path = dir.join("t.bin");
        let mut t = AccessTrace::new(42, 1);
        t.push(1, 2);
        t.push(1, 3);
        t.save(&path).expect("save");
        let back = AccessTrace::load_from(&path).expect("load");
        assert_eq!(back, t);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pages_for_rows_handles_spanning_and_dedup() {
        // 512-byte rows: 8 per page. Rows 0..8 share page 0; row 8 is page 1.
        assert_eq!(pages_for_rows(512, &[0, 1, 7]), vec![0]);
        assert_eq!(pages_for_rows(512, &[0, 8]), vec![0, 1]);
        // A 3000-byte row starting mid-page spans two pages.
        assert_eq!(pages_for_rows(3000, &[1]), vec![0, 1]);
        // Non-consecutive duplicates are preserved (real re-accesses).
        assert_eq!(pages_for_rows(512, &[0, 8, 1]), vec![0, 1, 0]);
        assert_eq!(pages_for_rows(4096, &[2, 3]), vec![2, 3]);
    }

    #[test]
    fn unique_pages_counts_distinct_keys() {
        let mut t = AccessTrace::new(0, 0);
        for p in [1u64, 2, 1, 3, 2, 1] {
            t.push(0, p);
        }
        t.push(1, 1);
        assert_eq!(t.unique_pages(), 4);
    }
}
