//! Storage substrate for the GNNDrive reproduction.
//!
//! The paper trains GNNs out of a SATA SSD (SAMSUNG PM883) through two I/O
//! paths: memory-mapped buffered I/O that populates the OS page cache (the
//! PyG+ path), and `io_uring`-driven asynchronous **direct** I/O that
//! bypasses it (the GNNDrive path). This crate rebuilds that stack from
//! scratch:
//!
//! * [`SimSsd`] — a solid-state-drive model with a bounded submission queue,
//!   `channels` parallel service units, a per-request base latency, and a
//!   shared bandwidth budget. It runs no thread: whoever reaps advances
//!   the model, moving real bytes between the disk image and caller
//!   buffers, and callers blocked on the device *actually park* until the
//!   modeled completion time, so they experience real I/O wait.
//! * [`IoRing`] — an `io_uring` analog: a submission queue the caller fills
//!   with prepared reads/writes and a completion queue it reaps, allowing a
//!   single thread to keep many requests in flight (Appendix A/B of the
//!   paper).
//! * [`PageCache`] — an OS page-cache model with 4 KiB pages and global LRU
//!   replacement, shared by every buffered file. Memory-mapped access is
//!   emulated by [`MmapArray`], which faults pages through the cache. This
//!   is where the paper's **memory contention** (𝔒1) lives: topology and
//!   feature pages compete for the same bounded cache.
//! * [`MemoryGovernor`] — the host-memory budget. Page-cache pages and
//!   application buffers are charged against it; anonymous allocations that
//!   cannot be satisfied even after page-cache reclaim fail with an OOM
//!   error, reproducing the paper's OOM outcomes at small budgets.
//!
//! Everything is wall-clock real: blocking is real parking, async overlap is
//! real concurrency, only the *durations* come from the device profile.
//!
//! ```
//! use gnndrive_storage::{IoRing, SimSsd, SsdProfile};
//!
//! // A device with data, and a ring keeping eight reads in flight.
//! let ssd = SimSsd::new(SsdProfile::instant());
//! let file = ssd.create_file(8 * 512);
//! ssd.import(file, 0, &[7u8; 512]).unwrap();
//!
//! let mut ring = IoRing::new(ssd, 8, true);
//! ring.prepare_read(file, 0, 512, 42).unwrap();
//! ring.submit();
//! let completion = ring.wait_completion().unwrap().expect("one in flight");
//! assert_eq!(completion.user_data, 42);
//! assert_eq!(completion.result.unwrap()[0], 7);
//! ```
//!
//! For robustness testing, [`FaultPlan`] installs a deterministic schedule
//! of media faults, latency spikes, device stalls, and *silent* corruption
//! (bit flips, misdirected reads, torn writes) on a [`SimSsd`];
//! [`RetryPolicy`] bounds the recovery attempts readers make against it.
//! The device maintains a per-sector CRC32 table ([`SimSsd::verify`])
//! so hosts catch silent corruption at every read boundary,
//! [`SimSsd::scrub_chunk`] repairs latent media damage, and
//! [`DeviceHealth`] turns sustained error rates into a circuit breaker
//! (Healthy → Degraded → CircuitOpen with half-open probes). A volatile
//! write-back cache extends the fault model to power loss: serviced
//! writes are durable only after a [`SimSsd::flush`] barrier, and a
//! seeded [`SimSsd::power_cut`] keeps, drops, or tears whatever was
//! still pending (see [`wcache`]).

pub mod error;
pub mod fault;
pub mod governor;
pub mod health;
pub mod integrity;
pub mod lru;
pub mod next_use;
pub mod pagecache;
pub mod retry;
pub mod ring;
pub mod ssd;
pub mod stats;
pub mod wcache;

pub use error::{IoError, OomError};
pub use fault::{FaultInjector, FaultPlan, FaultVerdict, SilentCorruption};
pub use governor::{ChargeKind, MemCharge, MemoryGovernor, MemoryReclaimer};
pub use health::{Admission, DeviceHealth, HealthConfig, HealthState};
pub use integrity::{crc32, IntegrityError};
pub use lru::LruList;
pub use next_use::NextUse;
pub use pagecache::{AccessTrace, MmapArray, PageCache, PageCacheStats, Pod, PAGE_SIZE};
pub use retry::RetryPolicy;
pub use ring::IoRing;
pub use ssd::{
    Completion, FileHandle, IoOp, IoPriority, ScrubChunk, SimSsd, SsdProfile, SECTOR_SIZE,
};
pub use stats::{IoStats, IoStatsSnapshot};
pub use wcache::PowerCutReport;
