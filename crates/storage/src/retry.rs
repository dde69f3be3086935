//! Bounded retry with exponential backoff for transient storage faults.
//!
//! One [`RetryPolicy`] is shared by every recovery site in the stack — the
//! extractor's blocking and ring read paths and the page cache — so "how
//! hard do we try before declaring an I/O dead" is a single knob instead of
//! scattered hard-coded loops.

use crate::error::IoError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

impl IoError {
    /// Whether retrying the same operation can plausibly succeed.
    ///
    /// Media faults, timeouts, and checksum mismatches are transient (a
    /// re-read may hit a healthy replica window or a recovered device, and
    /// in-flight corruption heals on re-read); shape errors (range,
    /// alignment, unknown file), a full ring, and a closed device are
    /// permanent — retrying them only burns time.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IoError::DeviceFault { .. } | IoError::Timeout | IoError::Corrupt { .. }
        )
    }
}

/// Bounded attempts + exponential backoff + per-operation timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Deadline budget for one logical operation (all attempts plus
    /// asynchronous completion waits). Drives
    /// [`crate::IoRing::wait_completion_deadline`].
    pub op_timeout: Duration,
    /// Jitter applied to each backoff, in percent of the computed pause
    /// (0 disables). A seeded multiplier in `[1 - j/100, 1 + j/100]`
    /// de-synchronizes waiters: with deterministic backoff, every ring
    /// waiter that failed in the same stall window retries in lockstep —
    /// a thundering herd against the device's bounded submission queue.
    pub jitter_pct: u32,
}

/// Process-wide salt for jittered backoff: each sleeper draws a distinct
/// ordinal so concurrent waiters spread out instead of herding.
static JITTER_SALT: AtomicU64 = AtomicU64::new(0);

impl Default for RetryPolicy {
    /// Three immediate attempts with a five-second per-operation deadline.
    ///
    /// The default retries without backoff — the firmware re-read model,
    /// and what a simulated device wants (sleeping real time between
    /// attempts distorts measured epochs and widens the window in which
    /// concurrent traffic can land a retry on another injected-fault
    /// slot). Chaos experiments opt into backoff via [`Self::with_backoff`].
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::from_millis(20),
            op_timeout: Duration::from_secs(5),
            jitter_pct: 25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (first failure is final).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    pub fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    pub fn with_op_timeout(mut self, t: Duration) -> Self {
        self.op_timeout = t;
        self
    }

    /// Set backoff jitter as a percentage of the computed pause (0–100;
    /// 0 disables).
    pub fn with_jitter_pct(mut self, pct: u32) -> Self {
        self.jitter_pct = pct.min(100);
        self
    }

    /// Backoff to sleep before retry number `retry` (0-based), without
    /// jitter (the deterministic schedule tests assert against).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(16);
        (self.base_backoff * factor).min(self.max_backoff)
    }

    /// Backoff with seeded jitter applied: the exponential pause scaled by
    /// a factor in `[1 - jitter_pct/100, 1 + jitter_pct/100]` drawn from
    /// `salt` (splitmix64 — deterministic for a given salt, distinct
    /// across concurrent sleepers).
    pub fn backoff_jittered(&self, retry: u32, salt: u64) -> Duration {
        let pause = self.backoff(retry);
        if self.jitter_pct == 0 || pause.is_zero() {
            return pause;
        }
        let u = gnndrive_sync::rng::mix_unit(salt, retry as u64, 9);
        let spread = self.jitter_pct.min(100) as f64 / 100.0;
        let factor = 1.0 + spread * (2.0 * u - 1.0);
        pause.mul_f64(factor)
    }

    /// The absolute deadline an operation starting now must meet.
    pub fn deadline(&self) -> Instant {
        Instant::now() + self.op_timeout
    }

    /// Run `op` until it succeeds, fails permanently, or attempts are
    /// exhausted. `op` receives the 0-based attempt index; `on_retry` is
    /// invoked once per re-attempt (telemetry hook).
    pub fn run<T>(
        &self,
        mut on_retry: impl FnMut(),
        mut op: impl FnMut(u32) -> Result<T, IoError>,
    ) -> Result<T, IoError> {
        let mut attempt = 0u32;
        // One salt per logical operation: its retries follow one jitter
        // stream while concurrent operations land on different ones.
        let salt = JITTER_SALT.fetch_add(1, Ordering::Relaxed);
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt + 1 < self.max_attempts.max(1) => {
                    on_retry();
                    let pause = self.backoff_jittered(attempt, salt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_errors_are_retried_until_success() {
        let policy = RetryPolicy::default()
            .with_max_attempts(5)
            .with_backoff(Duration::ZERO, Duration::ZERO);
        let mut retries = 0;
        let out = policy.run(
            || retries += 1,
            |attempt| {
                if attempt < 3 {
                    Err(IoError::DeviceFault { file: 0, offset: 0 })
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out, Ok(3));
        assert_eq!(retries, 3);
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let policy = RetryPolicy::default().with_max_attempts(5);
        let mut calls = 0;
        let out: Result<(), _> = policy.run(
            || {},
            |_| {
                calls += 1;
                Err(IoError::NoSuchFile(7))
            },
        );
        assert_eq!(out, Err(IoError::NoSuchFile(7)));
        assert_eq!(calls, 1, "permanent errors must not be retried");
    }

    #[test]
    fn exhaustion_returns_last_error() {
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_backoff(Duration::ZERO, Duration::ZERO);
        let mut calls = 0;
        let out: Result<(), _> = policy.run(
            || {},
            |_| {
                calls += 1;
                Err(IoError::DeviceFault {
                    file: 1,
                    offset: 512,
                })
            },
        );
        assert_eq!(
            out,
            Err(IoError::DeviceFault {
                file: 1,
                offset: 512
            })
        );
        assert_eq!(calls, 3);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy =
            RetryPolicy::default().with_backoff(Duration::from_millis(1), Duration::from_millis(4));
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(10), Duration::from_millis(4));
    }

    #[test]
    fn transience_classification() {
        assert!(IoError::DeviceFault { file: 0, offset: 0 }.is_transient());
        assert!(IoError::Timeout.is_transient());
        assert!(IoError::Corrupt { file: 0, offset: 0 }.is_transient());
        assert!(!IoError::DeviceClosed.is_transient());
        assert!(!IoError::RingFull.is_transient());
        assert!(!IoError::Misaligned { offset: 1, len: 1 }.is_transient());
    }

    #[test]
    fn jitter_bounds_and_spreads_backoff() {
        let policy = RetryPolicy::default()
            .with_backoff(Duration::from_millis(100), Duration::from_secs(1))
            .with_jitter_pct(25);
        let lo = Duration::from_millis(75);
        let hi = Duration::from_millis(125);
        let pauses: Vec<Duration> = (0..32).map(|s| policy.backoff_jittered(0, s)).collect();
        for p in &pauses {
            assert!((lo..=hi).contains(p), "jittered pause {p:?} out of ±25%");
        }
        // Distinct salts must not herd onto one instant.
        let distinct: std::collections::HashSet<_> = pauses.iter().collect();
        assert!(distinct.len() > 16, "jitter barely spreads: {distinct:?}");
        // Deterministic per salt.
        assert_eq!(policy.backoff_jittered(1, 7), policy.backoff_jittered(1, 7));
        // Disabled jitter reproduces the pure exponential schedule.
        let plain = policy.with_jitter_pct(0);
        assert_eq!(plain.backoff_jittered(0, 42), plain.backoff(0));
    }
}
