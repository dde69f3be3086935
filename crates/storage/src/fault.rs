//! Deterministic storage fault injection.
//!
//! Long disk-based training runs (multi-hour epochs at paper scale) see
//! real media faults, latency spikes, and transient device stalls. The
//! [`FaultPlan`] describes a *schedule* of such events and the
//! [`FaultInjector`] applies it inside the [`crate::SimSsd`] workers.
//!
//! Every decision is a pure function of the plan's seed and the request's
//! global operation ordinal, so a given plan produces the same fault
//! sequence on every run regardless of thread interleaving — chaos tests
//! are reproducible by construction.
//!
//! Injected events are counted in the telemetry registry (`storage.faults`,
//! `storage.latency_spikes`, `storage.stalls`) so run reports show what a
//! run survived.

use crate::error::IoError;
use crate::ssd::IoOp;
use gnndrive_sync::rng::mix_unit;
use gnndrive_telemetry as telemetry;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A seeded schedule of storage faults. Build one with the `with_*`
/// combinators and install it via [`crate::SimSsd::set_fault_plan`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for all probabilistic decisions; two identical plans with the
    /// same seed produce identical fault sequences.
    pub seed: u64,
    /// Probability that a read fails with [`IoError::DeviceFault`].
    pub read_fault_prob: f64,
    /// Deterministic variant: every `n`-th read fails (0 disables).
    pub read_fault_every: u64,
    /// Restrict *read faults* to one file (latency events hit every file —
    /// a sick device is slow for everyone).
    pub target_file: Option<u32>,
    /// Restrict read faults to a window of read ordinals `[start, end)`;
    /// `None` means always active.
    pub fault_window: Option<Range<u64>>,
    /// Probability that any request pays an extra latency spike.
    pub latency_spike_prob: f64,
    /// Magnitude of an injected latency spike.
    pub latency_spike: Duration,
    /// A transient whole-device stall: every request whose ordinal falls in
    /// this window is delayed by `stall` (models firmware GC pauses or a
    /// link reset).
    pub stall_window: Option<Range<u64>>,
    /// Per-request delay inside the stall window.
    pub stall: Duration,
    /// Probability that a read *succeeds* with a single seeded bit flipped
    /// in the returned buffer (in-flight silent corruption; the disk image
    /// and its CRC table stay intact, so a re-read heals it).
    pub bit_flip_prob: f64,
    /// Probability that a read *succeeds* but returns bytes from a
    /// seeded wrong sector offset of the same file (a misdirected read;
    /// also in-flight — the image is untouched).
    pub misdirected_read_prob: f64,
    /// Probability that a write is *torn*: only a seeded prefix of the
    /// data reaches the image while the CRC table records the intended
    /// contents. Persistent: every later read of the torn sectors fails
    /// verification until the scrubber repairs them from the device's
    /// intent ledger (the simulated analog of controller NVRAM/ECC).
    pub torn_write_prob: f64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Fail each read with probability `p` (independent, seeded).
    pub fn with_read_fault_prob(mut self, p: f64) -> Self {
        self.read_fault_prob = p;
        self
    }

    /// Fail every `n`-th read deterministically (0 disables).
    pub fn with_read_fault_every(mut self, n: u64) -> Self {
        self.read_fault_every = n;
        self
    }

    /// Restrict read faults to file `id`.
    pub fn on_file(mut self, id: u32) -> Self {
        self.target_file = Some(id);
        self
    }

    /// Restrict read faults to read ordinals `[window.start, window.end)`.
    pub fn in_window(mut self, window: Range<u64>) -> Self {
        self.fault_window = Some(window);
        self
    }

    /// Add latency spikes: with probability `p` a request pays `extra` on
    /// top of its modeled service time.
    pub fn with_latency_spikes(mut self, p: f64, extra: Duration) -> Self {
        self.latency_spike_prob = p;
        self.latency_spike = extra;
        self
    }

    /// Add a transient device stall: requests with ordinals in `window`
    /// are each delayed by `delay`.
    pub fn with_stall(mut self, window: Range<u64>, delay: Duration) -> Self {
        self.stall_window = Some(window);
        self.stall = delay;
        self
    }

    /// Silently flip one seeded bit in each read with probability `p`.
    pub fn with_bit_flips(mut self, p: f64) -> Self {
        self.bit_flip_prob = p;
        self
    }

    /// Serve each read from a seeded wrong offset with probability `p`.
    pub fn with_misdirected_reads(mut self, p: f64) -> Self {
        self.misdirected_read_prob = p;
        self
    }

    /// Tear each write (persist only a seeded prefix) with probability `p`.
    pub fn with_torn_writes(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// The bit the plan flips in a successful `len`-byte read with targeted
    /// read ordinal `read_no`, if it flips one: seeded, and inside the
    /// read's full-sector prefix (the part the CRC table can vouch for), so
    /// sub-sector reads are never flipped.
    pub fn bit_flip(&self, read_no: u64, len: usize) -> Option<u64> {
        let usable = (len - len % crate::ssd::SECTOR_SIZE as usize) as u64;
        let flips = usable > 0
            && self.bit_flip_prob > 0.0
            && mix_unit(self.seed, read_no, 3) < self.bit_flip_prob;
        flips.then(|| {
            let bit = (mix_unit(self.seed, read_no, 4) * (usable as f64) * 8.0) as u64;
            bit.min(usable * 8 - 1)
        })
    }

    /// Whether the plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        self.read_fault_prob > 0.0
            || self.read_fault_every > 0
            || (self.latency_spike_prob > 0.0 && !self.latency_spike.is_zero())
            || (self.stall_window.is_some() && !self.stall.is_zero())
            || self.bit_flip_prob > 0.0
            || self.misdirected_read_prob > 0.0
            || self.torn_write_prob > 0.0
    }
}

/// A silent corruption the device worker must apply to an otherwise
/// successful request. Decided by [`FaultInjector::assess`]; the worker
/// applies it during data movement and counts it in the device's
/// `storage.integrity.*` metrics only when it was *effective* (actually
/// changed bytes) — corrupting a read with the same bytes it would have
/// returned anyway is not an injection anyone could detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SilentCorruption {
    /// Flip bit `bit` (0-based, within the verifiable full-sector prefix of
    /// the returned read buffer).
    BitFlip { bit: u64 },
    /// Serve the read from `shift` sectors away (positive or negative),
    /// clamped to the file's extent by the worker.
    MisdirectedRead { shift: i64 },
    /// Persist only the first `keep` bytes of the write.
    TornWrite { keep: u64 },
}

/// What the injector decided for one request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultVerdict {
    /// Extra service latency to charge (spike and/or stall).
    pub extra_latency: Duration,
    /// If set, the request must fail with this error after paying its
    /// (possibly inflated) service time — media errors are slow, not fast.
    pub fail: Option<IoError>,
    /// If set, the request *succeeds* but the worker must silently corrupt
    /// it as described. Mutually exclusive with `fail`.
    pub corrupt: Option<SilentCorruption>,
}

/// Applies a [`FaultPlan`] to a request stream. Thread-safe; owned by the
/// device and consulted once per serviced request.
pub struct FaultInjector {
    plan: FaultPlan,
    /// Global request ordinal (reads and writes), drives latency events.
    ops: AtomicU64,
    /// Read ordinal, drives read-fault and read-corruption decisions.
    reads: AtomicU64,
    /// Write ordinal, drives torn-write decisions.
    writes: AtomicU64,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        for c in [
            &telemetry::catalog::STORAGE_FAULTS,
            &telemetry::catalog::STORAGE_LATENCY_SPIKES,
            &telemetry::catalog::STORAGE_STALLS,
        ] {
            c.register();
        }
        FaultInjector {
            plan,
            ops: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Judge one request. Called by a device worker as it services the
    /// request; counters are bumped here so callers only need to honor the
    /// verdict. `len` is the request's transfer size; silent read
    /// corruption lands only in the full-sector prefix of the buffer (the
    /// part the CRC table can vouch for), so sub-sector reads are never
    /// silently corrupted.
    pub fn assess(&self, file: u32, offset: u64, len: usize, op: IoOp) -> FaultVerdict {
        let mut verdict = FaultVerdict::default();
        let ordinal = self.ops.fetch_add(1, Ordering::Relaxed);

        if self.plan.latency_spike_prob > 0.0
            && !self.plan.latency_spike.is_zero()
            && mix_unit(self.plan.seed, ordinal, 1) < self.plan.latency_spike_prob
        {
            verdict.extra_latency += self.plan.latency_spike;
            telemetry::catalog::STORAGE_LATENCY_SPIKES.inc();
        }
        if let Some(w) = &self.plan.stall_window {
            if w.contains(&ordinal) && !self.plan.stall.is_zero() {
                verdict.extra_latency += self.plan.stall;
                telemetry::catalog::STORAGE_STALLS.inc();
            }
        }

        // Only *targeted* requests advance the per-op ordinals, so "every
        // n-th read of file F" keeps meaning exactly that when other files
        // are accessed concurrently.
        let targeted = self.plan.target_file.map(|t| t == file).unwrap_or(true);
        if op == IoOp::Read && targeted {
            let read_no = self.reads.fetch_add(1, Ordering::Relaxed);
            let in_window = self
                .plan
                .fault_window
                .as_ref()
                .map(|w| w.contains(&read_no))
                .unwrap_or(true);
            if in_window {
                let every = self.plan.read_fault_every > 0
                    && (read_no + 1).is_multiple_of(self.plan.read_fault_every);
                let prob = self.plan.read_fault_prob > 0.0
                    && mix_unit(self.plan.seed, read_no, 2) < self.plan.read_fault_prob;
                if every || prob {
                    verdict.fail = Some(IoError::DeviceFault { file, offset });
                    telemetry::catalog::STORAGE_FAULTS.inc();
                }
                // Bytes only get silently corrupted when the read otherwise
                // succeeds; bit flip and misdirect are mutually exclusive.
                let sec = crate::ssd::SECTOR_SIZE as usize;
                let usable = len - len % sec;
                if verdict.fail.is_none() && usable > 0 {
                    if let Some(bit) = self.plan.bit_flip(read_no, len) {
                        verdict.corrupt = Some(SilentCorruption::BitFlip { bit });
                    } else if self.plan.misdirected_read_prob > 0.0
                        && mix_unit(self.plan.seed, read_no, 5) < self.plan.misdirected_read_prob
                    {
                        // Shift in [-8, 8] \ {0} sectors; the worker clamps
                        // to the file's extent.
                        let u = mix_unit(self.plan.seed, read_no, 6);
                        let magnitude = 1 + ((u * 8.0) as i64).min(7);
                        let shift = if u < 0.5 { -magnitude } else { magnitude };
                        verdict.corrupt = Some(SilentCorruption::MisdirectedRead { shift });
                    }
                }
            }
        }
        if op == IoOp::Write && targeted && self.plan.torn_write_prob > 0.0 {
            let write_no = self.writes.fetch_add(1, Ordering::Relaxed);
            if mix_unit(self.plan.seed, write_no, 7) < self.plan.torn_write_prob {
                // Persist a seeded strict prefix: [0, len).
                let keep = (mix_unit(self.plan.seed, write_no, 8) * len as f64) as u64;
                verdict.corrupt = Some(SilentCorruption::TornWrite {
                    keep: keep.min(len.saturating_sub(1) as u64),
                });
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let inj = FaultInjector::new(FaultPlan::new(1));
        assert!(!inj.plan().is_active());
        for i in 0..100 {
            let v = inj.assess(0, i * 512, 512, IoOp::Read);
            assert_eq!(v, FaultVerdict::default());
        }
    }

    #[test]
    fn every_nth_read_fails_deterministically() {
        let inj = FaultInjector::new(FaultPlan::new(9).with_read_fault_every(3));
        let fails: Vec<bool> = (0..9)
            .map(|i| inj.assess(0, i, 512, IoOp::Read).fail.is_some())
            .collect();
        assert_eq!(
            fails,
            vec![false, false, true, false, false, true, false, false, true]
        );
        // Writes never fail.
        assert!(inj.assess(0, 0, 512, IoOp::Write).fail.is_none());
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed| -> Vec<bool> {
            let inj = FaultInjector::new(FaultPlan::new(seed).with_read_fault_prob(0.3));
            (0..64)
                .map(|i| inj.assess(0, i, 512, IoOp::Read).fail.is_some())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different schedule");
        let hits = run(7).iter().filter(|&&b| b).count();
        assert!((5..=25).contains(&hits), "~30% of 64, got {hits}");
    }

    #[test]
    fn file_targeting_and_windows_scope_faults() {
        let inj = FaultInjector::new(
            FaultPlan::new(3)
                .with_read_fault_every(1)
                .on_file(2)
                .in_window(4..8),
        );
        let mut failed = Vec::new();
        for i in 0..16u64 {
            let file = if i % 2 == 0 { 2 } else { 5 };
            if inj.assess(file, 0, 512, IoOp::Read).fail.is_some() {
                failed.push(i);
            }
        }
        // Only file-2 reads (even iterations) advance the targeted read
        // ordinal; the window 4..8 selects targeted reads 4..8, i.e.
        // iterations 8, 10, 12, 14.
        assert_eq!(failed, vec![8, 10, 12, 14]);
    }

    #[test]
    fn latency_events_accumulate() {
        let inj = FaultInjector::new(
            FaultPlan::new(5)
                .with_latency_spikes(1.0, Duration::from_millis(2))
                .with_stall(0..4, Duration::from_millis(10)),
        );
        let v = inj.assess(0, 0, 512, IoOp::Write);
        assert_eq!(v.extra_latency, Duration::from_millis(12));
        assert!(v.fail.is_none());
        // Past the stall window only the spike remains.
        for _ in 0..4 {
            inj.assess(0, 0, 512, IoOp::Write);
        }
        let v = inj.assess(0, 0, 512, IoOp::Write);
        assert_eq!(v.extra_latency, Duration::from_millis(2));
    }

    #[test]
    fn bit_flips_are_seeded_and_sector_scoped() {
        let run = |seed| -> Vec<Option<SilentCorruption>> {
            let inj = FaultInjector::new(FaultPlan::new(seed).with_bit_flips(0.5));
            (0..64)
                .map(|i| inj.assess(0, i * 4096, 4096, IoOp::Read).corrupt)
                .collect()
        };
        assert_eq!(run(11), run(11), "same seed, same corruption schedule");
        assert_ne!(run(11), run(12));
        let hits: Vec<_> = run(11).into_iter().flatten().collect();
        assert!(
            (16..=48).contains(&hits.len()),
            "~50% of 64, got {}",
            hits.len()
        );
        for c in &hits {
            match c {
                SilentCorruption::BitFlip { bit } => assert!(*bit < 4096 * 8),
                other => panic!("unexpected corruption {other:?}"),
            }
        }
        // Sub-sector reads are never silently corrupted: the CRC table
        // cannot vouch for partial sectors, so a flip there would be a
        // guaranteed escape.
        let inj = FaultInjector::new(FaultPlan::new(11).with_bit_flips(1.0));
        assert_eq!(inj.assess(0, 0, 100, IoOp::Read).corrupt, None);
        // Writes are unaffected by read-corruption modes.
        assert_eq!(inj.assess(0, 0, 4096, IoOp::Write).corrupt, None);
    }

    #[test]
    fn misdirected_reads_shift_by_whole_sectors() {
        let inj = FaultInjector::new(FaultPlan::new(21).with_misdirected_reads(1.0));
        for i in 0..32 {
            match inj.assess(0, i * 512, 512, IoOp::Read).corrupt {
                Some(SilentCorruption::MisdirectedRead { shift }) => {
                    assert!(shift != 0 && (-8..=8).contains(&shift), "shift {shift}")
                }
                other => panic!("expected misdirect, got {other:?}"),
            }
        }
    }

    #[test]
    fn torn_writes_keep_a_strict_prefix() {
        let inj = FaultInjector::new(FaultPlan::new(33).with_torn_writes(1.0));
        for i in 0..32 {
            match inj.assess(0, i * 4096, 4096, IoOp::Write).corrupt {
                Some(SilentCorruption::TornWrite { keep }) => assert!(keep < 4096),
                other => panic!("expected torn write, got {other:?}"),
            }
            // Reads never see torn-write verdicts.
            assert_eq!(inj.assess(0, 0, 4096, IoOp::Read).corrupt, None);
        }
    }
}
