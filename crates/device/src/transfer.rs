//! Asynchronous host→device transfer engine (the CUDA async-memcpy analog).
//!
//! GNNDrive's second extraction phase launches a transfer from the staging
//! buffer to the device-resident feature buffer *as soon as a load
//! completes*, without waiting for the rest of the mini-batch (paper §4.2,
//! ⑤ in Fig 4). A load completion is one verified read window, a
//! [`WindowCopy`]: the window's bytes, moved in, and every row to copy out
//! of them. A job is one reap round's windows — the completions an
//! extractor reaped together — so the round crosses to the engine thread
//! and back once. The engine still charges each window its own modeled
//! PCIe setup latency plus the bytes of the rows it carries, decodes each
//! row straight from the window into its slot, and replies once per job
//! with every window's row list.

use crate::slab::FeatureSlab;
use gnndrive_sync::queue::{unbounded, Receiver, Sender};
use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry::{self as telemetry, catalog};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// PCIe-like timing for the copy engine.
#[derive(Debug, Clone)]
pub struct TransferProfile {
    pub name: &'static str,
    /// Per-job setup latency (DMA descriptor + doorbell).
    pub latency: Duration,
    /// Link bandwidth in bytes/second.
    pub bandwidth: u64,
    /// Engine may run at most this far ahead of wall time before sleeping.
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

/// A landed [`WindowCopy`]: the submitter's `user_data` and the copy's row
/// list, handed back for publishing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferDone {
    pub user_data: u64,
    pub rows: Vec<(u32, u32)>,
}

struct Job {
    /// Each window with its submitter's `user_data`.
    copies: Vec<(WindowCopy, u64)>,
    dst: Arc<FeatureSlab>,
    reply: Sender<Vec<TransferDone>>,
}

/// The copy engine. One per simulated device.
pub struct TransferEngine {
    tx: Option<Sender<Job>>,
    worker: OrderedMutex<Option<JoinHandle<()>>>,
    profile: TransferProfile,
}

impl TransferEngine {
    pub fn new(profile: TransferProfile) -> Arc<Self> {
        let (tx, rx) = unbounded::<Job>();
        let p = profile.clone();
        let worker = std::thread::Builder::new()
            .name(format!("xfer-{}", profile.name))
            .spawn(move || engine_loop(p, rx))
            .expect("spawn transfer engine");
        Arc::new(TransferEngine {
            tx: Some(tx),
            worker: OrderedMutex::new(LockRank::Ring, Some(worker)),
            profile,
        })
    }

    pub fn profile(&self) -> &TransferProfile {
        &self.profile
    }

    /// Submit one asynchronous job: each window's rows copied into their
    /// slots of `dst`, in order. One reply, every window's
    /// [`TransferDone`] in submission order, is delivered on `reply` once
    /// the last window has landed. If the engine has already shut down the
    /// job is dropped — including its `reply` sender — so the caller
    /// observes the failure as a disconnected completion channel rather
    /// than a panic here.
    pub fn submit(
        &self,
        copies: Vec<(WindowCopy, u64)>,
        dst: Arc<FeatureSlab>,
        reply: Sender<Vec<TransferDone>>,
    ) {
        if let Some(tx) = self.tx.as_ref() {
            let _ = tx.send(Job { copies, dst, reply });
        }
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

impl Drop for TransferEngine {
    fn drop(&mut self) {
        self.tx = None;
        // Take the handle out under the lock, then join with the guard
        // dropped — joining a thread while holding a mutex is exactly the
        // blocking-call-under-lock pattern `cargo xtask lint` forbids.
        let handle = self.worker.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
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

fn engine_loop(profile: TransferProfile, rx: Receiver<Job>) {
    let mut cursor = Instant::now();
    while let Ok(job) = rx.recv() {
        let mut done = Vec::with_capacity(job.copies.len());
        let mut windows = job.copies.into_iter().peekable();
        while let Some((copy, user_data)) = windows.next() {
            // Each window is its own transfer: one setup plus its bytes.
            let service = charge(&profile, copy.bytes(&job.dst));
            let deadline = cursor.max(Instant::now()) + service;
            cursor = deadline;

            copy.write_into(&job.dst);

            let ahead = deadline.saturating_duration_since(Instant::now());
            let idle = windows.peek().is_none() && rx.is_empty();
            if ahead > Duration::ZERO && (idle || ahead >= profile.sleep_granularity) {
                std::thread::sleep(ahead);
            }
            done.push(TransferDone {
                user_data,
                rows: copy.rows,
            });
        }
        let _ = job.reply.send(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine tests read the process-wide `device.transfer.*` counters:
    /// one engine test at a time.
    static ENGINES: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

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

    /// Slot `s` holds row `rows[s]` in every element.
    fn assert_slots(slab: &FeatureSlab, rows: &[u32]) {
        let mut out = vec![0.0; slab.dim()];
        for (slot, &row) in rows.iter().enumerate() {
            slab.read_row(slot as u32, &mut out);
            assert!(out.iter().all(|&v| v == row as f32), "slot {slot}: {out:?}");
        }
    }

    #[test]
    fn windows_land_in_slots_and_complete() {
        let _gate = ENGINES.lock();
        let engine = TransferEngine::new(TransferProfile::host_memcpy());
        let slab = Arc::new(FeatureSlab::new(8, 4));
        let (tx, rx) = unbounded();
        // Rows 10..14 into slots 0..4 in one job, rows 20..24 into slots
        // 4..8 in another.
        engine.submit(
            vec![(window(10, 4, 4, 0), 1)],
            Arc::clone(&slab),
            tx.clone(),
        );
        engine.submit(
            vec![(window(20, 4, 4, 4), 2)],
            Arc::clone(&slab),
            tx.clone(),
        );
        let mut done: Vec<TransferDone> = (0..2)
            .flat_map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        done.sort_by_key(|d| d.user_data);
        assert_eq!(done[0].rows, window(10, 4, 4, 0).rows);
        assert_eq!(done[1].rows, window(20, 4, 4, 4).rows);
        assert_slots(&slab, &[10, 11, 12, 13, 20, 21, 22, 23]);
    }

    /// One op per window, however many rows it carries and however many
    /// windows share a job: the op counter counts windows, the byte
    /// counter the rows' bytes, and each job gets one reply listing its
    /// windows in order.
    #[test]
    fn one_transfer_op_per_window() {
        let _gate = ENGINES.lock();
        let engine = TransferEngine::new(TransferProfile::host_memcpy());
        let slab = Arc::new(FeatureSlab::new(16, 4));
        let (tx, rx) = unbounded();
        let (ops, bytes) = (
            catalog::DEVICE_TRANSFER_OPS.get(),
            catalog::DEVICE_TRANSFER_BYTES.get(),
        );
        let (mut slot, mut jobs) = (0, [Vec::new(), Vec::new()]);
        for (w, rows) in [1, 5, 3, 7].into_iter().enumerate() {
            jobs[w / 2].push((window(100 * w as u32, rows, 4, slot), w as u64));
            slot += rows;
        }
        for job in jobs {
            engine.submit(job, Arc::clone(&slab), tx.clone());
        }
        let replies: Vec<Vec<TransferDone>> = (0..2)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        let ids = |r: &Vec<TransferDone>| r.iter().map(|d| d.user_data).collect::<Vec<_>>();
        assert_eq!(
            (ids(&replies[0]), ids(&replies[1])),
            (vec![0, 1], vec![2, 3])
        );
        assert!(rx.try_recv().is_none(), "one reply per job");
        assert_eq!(catalog::DEVICE_TRANSFER_OPS.get() - ops, 4);
        assert_eq!(catalog::DEVICE_TRANSFER_BYTES.get() - bytes, 16 * 16);
        let rows: Vec<u32> = [(0, 1), (100, 5), (200, 3), (300, 7)]
            .iter()
            .flat_map(|&(first, n)| first..first + n)
            .collect();
        assert_slots(&slab, &rows);
    }

    /// A job of four windows pays four setups, not one.
    #[test]
    fn latency_model_paces_transfers() {
        let _gate = ENGINES.lock();
        let profile = TransferProfile {
            name: "slow",
            latency: Duration::from_millis(2),
            bandwidth: u64::MAX / 4,
            sleep_granularity: Duration::from_micros(100),
        };
        let engine = TransferEngine::new(profile);
        let slab = Arc::new(FeatureSlab::new(4, 2));
        let (tx, rx) = unbounded();
        let service = catalog::DEVICE_TRANSFER_SERVICE.merged().count();
        let t0 = Instant::now();
        let job = (0..4u32).map(|i| (window(i, 1, 2, i), 0)).collect();
        engine.submit(job, Arc::clone(&slab), tx);
        let done = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(7),
            "4 transfers at 2ms each should take >=7ms, took {:?}",
            t0.elapsed()
        );
        assert_eq!(done.len(), 4);
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).ok(), None);
        let charged = catalog::DEVICE_TRANSFER_SERVICE.merged().count();
        assert_eq!(charged - service, 4, "one charge per window");
        assert_slots(&slab, &[0, 1, 2, 3]);
    }
}
