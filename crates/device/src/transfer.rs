//! Host→device transfer link (the CUDA async-memcpy analog).
//!
//! GNNDrive's second extraction phase launches a transfer from the staging
//! buffer to the device-resident feature buffer *as soon as a load
//! completes*, without waiting for the rest of the mini-batch (paper §4.2,
//! ⑤ in Fig 4). A load completion is one verified read window, a
//! [`WindowCopy`]: the window's bytes and every row to copy out of them.
//!
//! The link is a completion-time model, not a thread: [`TransferEngine`]
//! keeps one cursor, the instant the link is next free. An extractor
//! books each window on it with [`TransferEngine::reserve`] — one PCIe
//! setup latency plus the rows' bytes at the link's bandwidth, after
//! whatever copy is booked ahead of it — then decodes the rows straight
//! from the window into their slots on its own thread, and publishes them
//! once the deadline `reserve` returned has passed. Copies booked by
//! different extractors on one device serialize on the cursor, as they
//! would on one DMA engine.

use crate::slab::FeatureSlab;
use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry::{self as telemetry, catalog};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PCIe-like timing for the transfer link.
#[derive(Debug, Clone)]
pub struct TransferProfile {
    pub name: &'static str,
    /// Per-copy setup latency (DMA descriptor + doorbell).
    pub latency: Duration,
    /// Link bandwidth in bytes/second.
    pub bandwidth: u64,
    /// A copy counts as landed this close to its deadline.
    pub sleep_granularity: Duration,
}

impl TransferProfile {
    /// PCIe 3.0 ×16 (~12 GB/s), the paper's 3090/K80 link.
    pub fn pcie3_x16() -> Self {
        TransferProfile {
            name: "pcie3x16",
            latency: Duration::from_micros(12),
            bandwidth: 12 * 1024 * 1024 * 1024,
            sleep_granularity: Duration::from_micros(300),
        }
    }

    /// Host-to-host "transfer" for CPU training: effectively free — CPU
    /// training writes the feature buffer directly (paper §4.4: "without
    /// the need of transfer via a staging buffer").
    pub fn host_memcpy() -> Self {
        TransferProfile {
            name: "host",
            latency: Duration::ZERO,
            bandwidth: u64::MAX / 4,
            sleep_granularity: Duration::ZERO,
        }
    }
}

/// One verified read window bound for the feature buffer: its bytes, the
/// file offset they start at, and each `(node, slot)` to copy out of them.
/// A node's id is its row: node `n` of a table of `row_bytes`-wide rows
/// sits at byte `n × row_bytes − window_start` of the window.
#[derive(Debug)]
pub struct WindowCopy {
    pub window: Vec<u8>,
    pub window_start: u64,
    pub rows: Vec<(u32, u32)>,
}

impl WindowCopy {
    /// The bytes the copy moves into `slab`: one slot row per entry.
    pub fn bytes(&self, slab: &FeatureSlab) -> u64 {
        (self.rows.len() * slab.dim() * 4) as u64
    }

    /// Decode every row from the window into its slot of `slab`.
    pub fn write_into(&self, slab: &FeatureSlab) {
        let row_bytes = slab.dim() * 4;
        for &(node, slot) in &self.rows {
            let off = (u64::from(node) * row_bytes as u64 - self.window_start) as usize;
            slab.write_row_le(slot, &self.window[off..off + row_bytes]);
        }
    }
}

/// The transfer link. One per simulated device.
pub struct TransferEngine {
    profile: TransferProfile,
    /// The instant the link is next free: the deadline of the last copy
    /// booked on it.
    cursor: OrderedMutex<Instant>,
}

impl TransferEngine {
    pub fn new(profile: TransferProfile) -> Arc<Self> {
        Arc::new(TransferEngine {
            profile,
            cursor: OrderedMutex::new(LockRank::Ring, Instant::now()),
        })
    }

    pub fn profile(&self) -> &TransferProfile {
        &self.profile
    }

    /// Book one asynchronous copy of `bytes` on the link and return the
    /// instant it lands: its service time after the later of now and the
    /// copy booked ahead of it. The caller moves the bytes itself and
    /// treats them as landed at the returned deadline.
    pub fn reserve(&self, bytes: u64) -> Instant {
        let service = charge(&self.profile, bytes);
        let now = Instant::now();
        let mut cursor = self.cursor.lock();
        *cursor = (*cursor).max(now) + service;
        *cursor
    }

    /// Synchronously pay the cost of moving `bytes` over the link without
    /// moving anything — the baselines' blocking cudaMemcpy of a whole
    /// mini-batch. The caller sits in I/O wait for the modeled duration.
    pub fn pay_blocking(&self, bytes: u64) {
        let dur = charge(&self.profile, bytes);
        if dur > Duration::ZERO {
            let _io = telemetry::state(telemetry::State::IoWait);
            std::thread::sleep(dur);
        }
    }
}

/// Count one transfer of `bytes` and return its modeled service time: the
/// link's setup latency plus the bytes at its bandwidth.
fn charge(profile: &TransferProfile, bytes: u64) -> Duration {
    let service = profile.latency
        + Duration::from_nanos((bytes as u128 * 1_000_000_000 / profile.bandwidth as u128) as u64);
    catalog::DEVICE_TRANSFER_OPS.inc();
    catalog::DEVICE_TRANSFER_BYTES.add(bytes);
    catalog::DEVICE_TRANSFER_SERVICE.record(service.as_nanos() as u64);
    service
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The link tests read the process-wide `device.transfer.*` counters:
    /// one link test at a time.
    static LINKS: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

    /// A link whose every copy costs 1 ms, whatever its bytes.
    fn millisecond_link() -> Arc<TransferEngine> {
        TransferEngine::new(TransferProfile {
            name: "ms",
            latency: Duration::from_millis(1),
            bandwidth: u64::MAX / 4,
            sleep_granularity: Duration::from_micros(100),
        })
    }

    /// A window of `rows` consecutive `dim`-wide rows from row `first`, row
    /// `r` holding `r` in every element, copied to slot `r − first + slot0`.
    fn window(first: u32, rows: u32, dim: usize, slot0: u32) -> WindowCopy {
        let window = (first..first + rows)
            .flat_map(|r| std::iter::repeat_n(r as f32, dim))
            .flat_map(f32::to_le_bytes)
            .collect();
        WindowCopy {
            window,
            window_start: u64::from(first) * dim as u64 * 4,
            rows: (0..rows).map(|i| (first + i, slot0 + i)).collect(),
        }
    }

    #[test]
    fn windows_write_their_rows_into_their_slots() {
        let slab = FeatureSlab::new(8, 4);
        // Rows 10..14 into slots 0..4, rows 20..24 into slots 4..8.
        for copy in [window(10, 4, 4, 0), window(20, 4, 4, 4)] {
            assert_eq!(copy.bytes(&slab), 4 * 4 * 4);
            copy.write_into(&slab);
        }
        let mut out = vec![0.0; slab.dim()];
        for (slot, row) in [10, 11, 12, 13, 20, 21, 22, 23].into_iter().enumerate() {
            slab.read_row(slot as u32, &mut out);
            assert!(out.iter().all(|&v| v == row as f32), "slot {slot}: {out:?}");
        }
    }

    /// Two threads booking at once share one cursor: every deadline is at
    /// least one service after the one before it, whoever booked it.
    #[test]
    fn concurrent_reservations_serialize_on_the_link() {
        let _gate = LINKS.lock();
        let link = millisecond_link();
        let start = std::sync::Barrier::new(2);
        let booked: Vec<Vec<Instant>> = std::thread::scope(|s| {
            let book = || {
                s.spawn(|| {
                    start.wait();
                    (0..8).map(|_| link.reserve(64)).collect::<Vec<_>>()
                })
            };
            let (a, b) = (book(), book());
            vec![a.join().unwrap(), b.join().unwrap()]
        });
        for own in &booked {
            assert!(
                own.windows(2).all(|w| w[0] < w[1]),
                "a thread's deadlines rise"
            );
        }
        let mut all: Vec<Instant> = booked.concat();
        all.sort_unstable();
        for w in all.windows(2) {
            assert!(
                w[1] - w[0] >= Duration::from_millis(1),
                "two copies overlap on the link: {:?} apart",
                w[1] - w[0]
            );
        }
    }

    /// One op, its bytes and one service record per booking, however many
    /// rows the copy carries; booking moves no bytes and never sleeps.
    #[test]
    fn one_transfer_op_per_reservation() {
        let _gate = LINKS.lock();
        let link = millisecond_link();
        let (ops, bytes, service) = (
            catalog::DEVICE_TRANSFER_OPS.get(),
            catalog::DEVICE_TRANSFER_BYTES.get(),
            catalog::DEVICE_TRANSFER_SERVICE.merged().count(),
        );
        let t0 = Instant::now();
        let deadlines: Vec<Instant> = [16, 80, 48, 112].map(|b| link.reserve(b)).to_vec();
        assert!(
            t0.elapsed() < Duration::from_millis(4),
            "booking must not wait"
        );
        assert!(deadlines[3] >= t0 + Duration::from_millis(4), "four setups");
        assert_eq!(catalog::DEVICE_TRANSFER_OPS.get() - ops, 4);
        assert_eq!(catalog::DEVICE_TRANSFER_BYTES.get() - bytes, 256);
        let charged = catalog::DEVICE_TRANSFER_SERVICE.merged().count() - service;
        assert_eq!(charged, 4, "one service record per booking");
    }
}
