//! Background media scrubbing.
//!
//! Bit rot and torn writes are *latent*: they sit on the media until some
//! read trips over them, possibly mid-epoch on the critical path. A
//! scrubber converts those latent faults into repaired sectors ahead of
//! time by walking the disk image at a bounded rate, comparing every
//! sector against the device's CRC table, and restoring mismatches from
//! the intent ledger (see [`crate::SimSsd::scrub_chunk`] for the repair
//! rules).
//!
//! The walk is paced — `sectors_per_pass` sectors every `interval` — so
//! scrubbing competes only gently with foreground extraction, mirroring
//! how production scrubbers (md/raid, ZFS) throttle themselves. Progress
//! is reported through `storage.scrub.{scanned,repaired,unrecoverable}`
//! and `storage.scrub.passes` (full image sweeps completed).

use crate::ssd::SimSsd;
use gnndrive_sync::queue::{bounded, RecvTimeoutError, Sender};
use gnndrive_telemetry as telemetry;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pacing for a [`Scrubber`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubConfig {
    /// Delay between chunks.
    pub interval: Duration,
    /// Sectors examined per chunk.
    pub sectors_per_pass: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            interval: Duration::from_millis(10),
            sectors_per_pass: 1024,
        }
    }
}

/// Handle to a running background scrubber thread. Stops (and joins) on
/// [`Scrubber::stop`] or drop; also exits on its own once the device shuts
/// down.
pub struct Scrubber {
    stop: Option<Sender<()>>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Start scrubbing `ssd` with the given pacing.
    pub fn start(ssd: Arc<SimSsd>, cfg: ScrubConfig) -> Scrubber {
        let (stop_tx, stop_rx) = bounded::<()>(1);
        let c_scanned = telemetry::counter("storage.scrub.scanned");
        let c_repaired = telemetry::counter("storage.scrub.repaired");
        let c_unrecoverable = telemetry::counter("storage.scrub.unrecoverable");
        let c_passes = telemetry::counter("storage.scrub.passes");
        let handle = std::thread::Builder::new()
            .name("gnnd-scrub".into())
            .spawn(move || {
                let mut cursor = 0u64;
                loop {
                    match stop_rx.recv_timeout(cfg.interval) {
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                    if ssd.is_closed() {
                        return;
                    }
                    let chunk = ssd.scrub_chunk(cursor, cfg.sectors_per_pass.max(1));
                    c_scanned.add(chunk.scanned);
                    c_repaired.add(chunk.repaired);
                    c_unrecoverable.add(chunk.unrecoverable);
                    if chunk.next_sector == 0 && chunk.total_sectors > 0 {
                        c_passes.inc();
                    }
                    cursor = chunk.next_sector;
                }
            })
            .expect("spawn scrubber");
        Scrubber {
            stop: Some(stop_tx),
            handle: Some(handle),
        }
    }

    /// Stop the scrubber and wait for its thread to exit. Idempotent.
    pub fn stop(&mut self) {
        // Dropping the sender wakes the thread via Disconnected.
        self.stop = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssd::SsdProfile;
    use crate::FaultPlan;

    #[test]
    fn scrubber_repairs_torn_sectors_in_background() {
        let ssd = SimSsd::new(SsdProfile::instant());
        let f = ssd.create_file(64 * 512);
        ssd.set_fault_plan(FaultPlan::new(13).with_torn_writes(1.0));
        let data = vec![0x5Au8; 8 * 512];
        ssd.write_blocking(f, 0, &data, true).unwrap();
        ssd.clear_faults();
        let mut out = vec![0u8; 8 * 512];
        ssd.read_blocking(f, 0, &mut out, true).unwrap();
        assert!(ssd.verify(f, 0, &out).is_err(), "tear must be visible");

        let mut scrubber = Scrubber::start(
            Arc::clone(&ssd),
            ScrubConfig {
                interval: Duration::from_millis(1),
                sectors_per_pass: 16,
            },
        );
        // The paced walk covers the whole image well within this budget.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            ssd.read_blocking(f, 0, &mut out, true).unwrap();
            if ssd.verify(f, 0, &out).is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scrubber failed to repair the torn range in time"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(out, data);
        scrubber.stop();
    }

    #[test]
    fn scrubber_stops_cleanly_on_drop_and_closed_device() {
        let ssd = SimSsd::new(SsdProfile::instant());
        ssd.create_file(4096);
        let scrubber = Scrubber::start(
            Arc::clone(&ssd),
            ScrubConfig {
                interval: Duration::from_millis(1),
                sectors_per_pass: 4,
            },
        );
        std::thread::sleep(Duration::from_millis(5));
        drop(scrubber);
        // A scrubber over a shut-down device exits on its own.
        let mut s2 = Scrubber::start(Arc::clone(&ssd), ScrubConfig::default());
        ssd.shutdown();
        s2.stop();
    }
}
