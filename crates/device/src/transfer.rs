//! Asynchronous host→device transfer engine (the CUDA async-memcpy analog).
//!
//! GNNDrive's second extraction phase launches a transfer from the staging
//! buffer to the device-resident feature buffer *as soon as each node's
//! load completes*, without waiting for the rest of the mini-batch (paper
//! §4.2, ⑤ in Fig 4). The engine mirrors that interface: submit copy jobs,
//! reap completions on a channel; a dedicated engine thread performs the
//! real copy and paces itself with a PCIe latency/bandwidth model.

use crate::slab::FeatureSlab;
use gnndrive_sync::queue::{unbounded, Receiver, Sender};
use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry as telemetry;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Registry handles for the transfer path, cached once per process —
/// `pay_blocking` runs per node in the synchronous extract path, so a
/// registry lookup per call would be measurable.
fn transfer_metrics() -> &'static (
    telemetry::Counter,
    telemetry::Counter,
    telemetry::HistogramHandle,
) {
    static METRICS: OnceLock<(
        telemetry::Counter,
        telemetry::Counter,
        telemetry::HistogramHandle,
    )> = OnceLock::new();
    METRICS.get_or_init(|| {
        (
            telemetry::counter("device.transfer.ops"),
            telemetry::counter("device.transfer.bytes"),
            telemetry::histogram_ns("device.transfer.service"),
        )
    })
}

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

/// A completed transfer, tagged with the submitter's `user_data`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferDone {
    pub user_data: u64,
}

struct Job {
    data: Vec<f32>,
    dst: Arc<FeatureSlab>,
    slot: u32,
    user_data: u64,
    reply: Sender<TransferDone>,
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

    /// Submit an asynchronous copy of `data` into `dst[slot]`. Completion
    /// is delivered on `reply`. If the engine has already shut down the
    /// job is dropped — including its `reply` sender — so the caller
    /// observes the failure as a disconnected completion channel rather
    /// than a panic here.
    pub fn submit(
        &self,
        data: Vec<f32>,
        dst: Arc<FeatureSlab>,
        slot: u32,
        user_data: u64,
        reply: Sender<TransferDone>,
    ) {
        if let Some(tx) = self.tx.as_ref() {
            let _ = tx.send(Job {
                data,
                dst,
                slot,
                user_data,
                reply,
            });
        }
    }

    /// Synchronously pay the cost of moving `bytes` over the link without
    /// moving anything — the baselines' blocking cudaMemcpy of a whole
    /// mini-batch. The caller sits in I/O wait for the modeled duration.
    pub fn pay_blocking(&self, bytes: u64) {
        let dur = self.profile.latency
            + Duration::from_nanos(
                (bytes as u128 * 1_000_000_000 / self.profile.bandwidth as u128) as u64,
            );
        let (ops, total_bytes, service) = transfer_metrics();
        ops.inc();
        total_bytes.add(bytes);
        service.record(dur.as_nanos() as u64);
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

fn engine_loop(profile: TransferProfile, rx: Receiver<Job>) {
    let (m_ops, m_bytes, m_service) = transfer_metrics();
    let mut cursor = Instant::now();
    while let Ok(job) = rx.recv() {
        let now = Instant::now();
        let bytes = job.data.len() as u64 * 4;
        let service = profile.latency
            + Duration::from_nanos(
                (bytes as u128 * 1_000_000_000 / profile.bandwidth as u128) as u64,
            );
        let start = cursor.max(now);
        let deadline = start + service;
        cursor = deadline;
        m_ops.inc();
        m_bytes.add(bytes);
        m_service.record(service.as_nanos() as u64);

        job.dst.write_row(job.slot, &job.data);

        let ahead = deadline.saturating_duration_since(Instant::now());
        if ahead > Duration::ZERO && (rx.is_empty() || ahead >= profile.sleep_granularity) {
            std::thread::sleep(ahead);
        }
        let _ = job.reply.send(TransferDone {
            user_data: job.user_data,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfers_land_in_slots_and_complete() {
        let engine = TransferEngine::new(TransferProfile::host_memcpy());
        let slab = Arc::new(FeatureSlab::new(8, 4));
        let (tx, rx) = unbounded();
        for i in 0..8u32 {
            engine.submit(
                vec![i as f32; 4],
                Arc::clone(&slab),
                i,
                i as u64,
                tx.clone(),
            );
        }
        let mut seen = [false; 8];
        for _ in 0..8 {
            let done = rx.recv_timeout(Duration::from_secs(2)).unwrap();
            seen[done.user_data as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut out = [0.0; 4];
        for i in 0..8u32 {
            slab.read_row(i, &mut out);
            assert!(out.iter().all(|&v| v == i as f32));
        }
    }

    #[test]
    fn latency_model_paces_transfers() {
        let profile = TransferProfile {
            name: "slow",
            latency: Duration::from_millis(2),
            bandwidth: u64::MAX / 4,
            sleep_granularity: Duration::from_micros(100),
        };
        let engine = TransferEngine::new(profile);
        let slab = Arc::new(FeatureSlab::new(4, 2));
        let (tx, rx) = unbounded();
        let t0 = Instant::now();
        for i in 0..4u32 {
            engine.submit(vec![0.0; 2], Arc::clone(&slab), i, i as u64, tx.clone());
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(2)).unwrap();
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(7),
            "4 transfers at 2ms each should take >=7ms, took {:?}",
            t0.elapsed()
        );
    }
}
