//! Device-health tracking and the extraction circuit breaker.
//!
//! A device that is failing (media errors, checksum mismatches, timeouts)
//! should change how the host drives it *before* an epoch degenerates into
//! a retry storm: first stop keeping the async ring deep and extract with
//! one read in flight (no queue piled onto a sick device), and
//! if the error rate keeps climbing, stop submitting altogether and fail
//! batches fast into the epoch's skip machinery rather than hang.
//!
//! [`DeviceHealth`] implements that as a three-state machine driven by a
//! sliding window of per-read outcomes:
//!
//! ```text
//!          error rate ≥ degrade_ratio           error rate ≥ trip_ratio
//! Healthy ───────────────────────────▶ Degraded ─────────────────────▶ CircuitOpen
//!    ▲                                    │  ▲                             │
//!    │      error rate ≤ recover_ratio    │  │ probe success               │ cooldown
//!    └────────────────────────────────────┘  └──────── half-open probe ◀───┘
//!                                                       (one caller)
//! ```
//!
//! While the circuit is open, [`DeviceHealth::admit`] fails everything
//! fast except that after `cooldown` has elapsed exactly one caller wins
//! the *half-open probe* slot (a CAS on a flag): it runs a single bounded
//! sync-path attempt and reports back through
//! [`DeviceHealth::probe_result`]. Success closes the circuit (back to
//! Healthy with a cleared window); failure re-opens it and restarts the
//! cooldown. Hysteresis comes from `recover_ratio` sitting well below
//! `degrade_ratio`, so the state does not flap at the threshold.
//!
//! State and transitions are published through the telemetry registry:
//! `storage.health.state` (gauge: 0 healthy / 1 degraded / 2 open),
//! `storage.health.trips`, `storage.health.probes`,
//! `storage.health.recoveries`.

use gnndrive_sync::{LockRank, OrderedMutex};
use gnndrive_telemetry::catalog;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Tuning for [`DeviceHealth`]. The default plan is *disabled* — the
/// breaker observes but never changes state — so health management is
/// strictly opt-in per pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Master switch; when false the state machine stays Healthy forever.
    pub enabled: bool,
    /// Sliding window length (most recent read outcomes considered).
    pub window: usize,
    /// Minimum samples in the window before any transition fires (a single
    /// early error must not trip anything).
    pub min_samples: usize,
    /// Error rate at or above which Healthy degrades.
    pub degrade_ratio: f64,
    /// Error rate at or above which the circuit opens.
    pub trip_ratio: f64,
    /// Error rate at or below which Degraded recovers to Healthy
    /// (hysteresis: keep this well under `degrade_ratio`).
    pub recover_ratio: f64,
    /// How long the circuit stays open before a half-open probe is allowed.
    pub cooldown: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            enabled: false,
            window: 64,
            min_samples: 16,
            degrade_ratio: 0.5,
            trip_ratio: 0.9,
            recover_ratio: 0.1,
            cooldown: Duration::from_millis(250),
        }
    }
}

impl HealthConfig {
    /// The default plan with the breaker switched on.
    pub fn enabled() -> Self {
        HealthConfig {
            enabled: true,
            ..HealthConfig::default()
        }
    }
}

/// Current position of the device-health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthState {
    /// Normal operation: async-ring extraction.
    Healthy = 0,
    /// Elevated error rate: extraction keeps one read in flight.
    Degraded = 1,
    /// Error rate past the trip threshold: submissions fail fast; only
    /// half-open probes touch the device.
    CircuitOpen = 2,
}

impl HealthState {
    fn from_u8(v: u8) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::CircuitOpen,
        }
    }
}

/// What [`DeviceHealth::admit`] tells a caller to do with its next batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Proceed on the async ring.
    Normal,
    /// Proceed, but with one read in flight.
    Sync,
    /// Circuit open: fail the batch fast (it lands in the epoch's
    /// `failed_batches` skip machinery).
    FailFast,
    /// Circuit open, cooldown elapsed, and this caller won the single
    /// half-open probe slot: run one one-read-in-flight attempt and report the
    /// outcome via [`DeviceHealth::probe_result`].
    Probe,
}

/// The sliding outcome window plus circuit bookkeeping, behind one mutex
/// (rank [`LockRank::Health`]). Kept small: every guarded operation is a
/// few arithmetic steps, never I/O.
struct HealthWindow {
    /// Ring buffer of recent outcomes; `true` = error.
    outcomes: Vec<bool>,
    /// Next write position in `outcomes`.
    cursor: usize,
    /// Number of valid entries (≤ `outcomes.len()`).
    filled: usize,
    /// Errors among the valid entries (maintained incrementally).
    errors: usize,
    /// When the circuit last opened (None while closed).
    opened_at: Option<Instant>,
}

impl HealthWindow {
    fn push(&mut self, error: bool) {
        if self.filled == self.outcomes.len() {
            // Overwriting the oldest entry.
            if self.outcomes[self.cursor] {
                self.errors -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.outcomes[self.cursor] = error;
        if error {
            self.errors += 1;
        }
        self.cursor = (self.cursor + 1) % self.outcomes.len();
    }

    fn clear(&mut self) {
        self.cursor = 0;
        self.filled = 0;
        self.errors = 0;
        self.outcomes.fill(false);
    }

    fn error_rate(&self) -> Option<f64> {
        if self.filled == 0 {
            None
        } else {
            Some(self.errors as f64 / self.filled as f64)
        }
    }
}

/// Sliding-window health tracker and circuit breaker for one device. See
/// the module docs for the state machine.
pub struct DeviceHealth {
    cfg: HealthConfig,
    window: OrderedMutex<HealthWindow>,
    /// Lock-free mirror of the current state for hot-path reads.
    state: AtomicU8,
    /// Set while a half-open probe is in flight (CAS-guarded single slot).
    probing: AtomicBool,
}

impl DeviceHealth {
    pub fn new(cfg: HealthConfig) -> Self {
        let window = cfg.window.max(1);
        let h = DeviceHealth {
            cfg,
            window: OrderedMutex::new(
                LockRank::Health,
                HealthWindow {
                    outcomes: vec![false; window],
                    cursor: 0,
                    filled: 0,
                    errors: 0,
                    opened_at: None,
                },
            ),
            state: AtomicU8::new(HealthState::Healthy as u8),
            probing: AtomicBool::new(false),
        };
        catalog::STORAGE_HEALTH_STATE.set(HealthState::Healthy as i64);
        for c in [
            &catalog::STORAGE_HEALTH_TRIPS,
            &catalog::STORAGE_HEALTH_PROBES,
            &catalog::STORAGE_HEALTH_RECOVERIES,
        ] {
            c.register();
        }
        h
    }

    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Current state (lock-free).
    pub fn state(&self) -> HealthState {
        HealthState::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Record one successful device read.
    pub fn record_success(&self) {
        self.record(false);
    }

    /// Record one failed device read (device fault, timeout, or a checksum
    /// mismatch — anything the retry path had to absorb).
    pub fn record_error(&self) {
        self.record(true);
    }

    fn record(&self, error: bool) {
        if !self.cfg.enabled {
            return;
        }
        let mut w = self.window.lock();
        w.push(error);
        if w.filled < self.cfg.min_samples {
            return;
        }
        let Some(rate) = w.error_rate() else { return };
        match self.state() {
            HealthState::Healthy => {
                if rate >= self.cfg.trip_ratio {
                    self.trip(&mut w);
                } else if rate >= self.cfg.degrade_ratio {
                    self.set_state(HealthState::Degraded);
                }
            }
            HealthState::Degraded => {
                if rate >= self.cfg.trip_ratio {
                    self.trip(&mut w);
                } else if rate <= self.cfg.recover_ratio {
                    self.set_state(HealthState::Healthy);
                }
            }
            // Only a half-open probe closes an open circuit.
            HealthState::CircuitOpen => {}
        }
    }

    /// Decide what a caller should do with its next batch. Healthy and
    /// Degraded admissions are lock-free; an open circuit takes the window
    /// lock briefly to check the cooldown and claim the probe slot.
    pub fn admit(&self) -> Admission {
        match self.state() {
            HealthState::Healthy => Admission::Normal,
            HealthState::Degraded => Admission::Sync,
            HealthState::CircuitOpen => {
                let cooled = {
                    let w = self.window.lock();
                    w.opened_at
                        .map(|t| t.elapsed() >= self.cfg.cooldown)
                        .unwrap_or(true)
                };
                if cooled
                    && self
                        .probing
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    catalog::STORAGE_HEALTH_PROBES.inc();
                    Admission::Probe
                } else {
                    Admission::FailFast
                }
            }
        }
    }

    /// Report the outcome of a half-open probe granted by [`Self::admit`].
    /// Success closes the circuit (Healthy, cleared window); failure
    /// re-opens it and restarts the cooldown.
    pub fn probe_result(&self, ok: bool) {
        let mut w = self.window.lock();
        if ok {
            w.clear();
            w.opened_at = None;
            self.set_state(HealthState::Healthy);
            catalog::STORAGE_HEALTH_RECOVERIES.inc();
        } else {
            w.opened_at = Some(Instant::now());
        }
        // Release the probe slot only after the state settles, so a racing
        // admit cannot slip a second probe in between.
        self.probing.store(false, Ordering::Release);
    }

    fn trip(&self, w: &mut HealthWindow) {
        w.opened_at = Some(Instant::now());
        self.set_state(HealthState::CircuitOpen);
        catalog::STORAGE_HEALTH_TRIPS.inc();
    }

    fn set_state(&self, s: HealthState) {
        self.state.store(s as u8, Ordering::Release);
        catalog::STORAGE_HEALTH_STATE.set(s as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> HealthConfig {
        HealthConfig {
            enabled: true,
            window: 8,
            min_samples: 4,
            degrade_ratio: 0.5,
            trip_ratio: 0.9,
            recover_ratio: 0.2,
            cooldown: Duration::from_millis(1),
        }
    }

    #[test]
    fn disabled_breaker_never_leaves_healthy() {
        let h = DeviceHealth::new(HealthConfig::default());
        for _ in 0..100 {
            h.record_error();
        }
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.admit(), Admission::Normal);
    }

    #[test]
    fn error_rate_degrades_then_trips() {
        let h = DeviceHealth::new(fast_cfg());
        // Two early errors: below min_samples, no transition.
        h.record_error();
        h.record_error();
        assert_eq!(h.state(), HealthState::Healthy);
        // 50% of a full-enough window: degrade, extraction goes sync.
        h.record_success();
        h.record_success();
        assert_eq!(h.state(), HealthState::Degraded);
        assert_eq!(h.admit(), Admission::Sync);
        // Push the rate past the trip threshold: circuit opens.
        for _ in 0..8 {
            h.record_error();
        }
        assert_eq!(h.state(), HealthState::CircuitOpen);
    }

    #[test]
    fn hysteresis_requires_low_rate_to_recover() {
        let mut cfg = fast_cfg();
        cfg.window = 10;
        cfg.min_samples = 4;
        let h = DeviceHealth::new(cfg);
        for _ in 0..5 {
            h.record_error();
            h.record_success();
        }
        assert_eq!(h.state(), HealthState::Degraded);
        // Rate falls to 0.4 — between recover (0.2) and degrade (0.5): the
        // breaker must hold Degraded, not flap back.
        h.record_success();
        assert_eq!(h.state(), HealthState::Degraded);
        // Only once the window drains to ≤ 20% errors does it recover.
        for _ in 0..7 {
            h.record_success();
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn open_circuit_fails_fast_then_grants_one_probe() {
        let h = DeviceHealth::new(fast_cfg());
        for _ in 0..8 {
            h.record_error();
        }
        assert_eq!(h.state(), HealthState::CircuitOpen);
        std::thread::sleep(Duration::from_millis(2));
        // Cooldown elapsed: exactly one caller wins the probe slot, the
        // rest fail fast while it is in flight.
        assert_eq!(h.admit(), Admission::Probe);
        assert_eq!(h.admit(), Admission::FailFast);
        // Probe success closes the circuit with a clean window.
        h.probe_result(true);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.admit(), Admission::Normal);
    }

    #[test]
    fn failed_probe_reopens_and_restarts_cooldown() {
        let mut cfg = fast_cfg();
        cfg.cooldown = Duration::from_millis(30);
        let h = DeviceHealth::new(cfg);
        for _ in 0..8 {
            h.record_error();
        }
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(h.admit(), Admission::Probe);
        h.probe_result(false);
        assert_eq!(h.state(), HealthState::CircuitOpen);
        // Cooldown restarted: immediately after the failed probe the slot
        // is free again but the clock has not run down.
        assert_eq!(h.admit(), Admission::FailFast);
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(h.admit(), Admission::Probe);
        h.probe_result(true);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn errors_during_open_circuit_do_not_rearm_transitions() {
        let h = DeviceHealth::new(fast_cfg());
        for _ in 0..8 {
            h.record_error();
        }
        assert_eq!(h.state(), HealthState::CircuitOpen);
        // Stragglers completing with errors while open must not disturb
        // the state machine (only probes close the circuit).
        h.record_error();
        h.record_success();
        assert_eq!(h.state(), HealthState::CircuitOpen);
    }
}
