//! Deterministic crash-point registry for crash-consistency testing.
//!
//! Whole-process crashes (OOM kill, power loss, operator `kill -9`) are
//! the one fault class a fault-injecting device cannot model on its own:
//! they interrupt *host-side* persistence mid-sequence. Every durable-write
//! path in the stack therefore threads named [`point`] calls through its
//! critical ordering (stage temp file → fsync → publish; shadow-write blob
//! → flush barrier → commit record), and the crash harness *arms* the
//! registry to cut the run at exactly one of those points.
//!
//! A cut is simulated process death: the armed `point` call returns
//! [`CrashCut`], and — because a dead process executes nothing further —
//! every subsequent `point` call in the process keeps failing until the
//! harness calls [`disarm`] to "restart". The harness then runs recovery
//! and checks the crash-consistency contract (every artifact is the old
//! version, the new version, or a typed error — never a half-written
//! state).
//!
//! Schedules are enumerated, not guessed: a *recording* run logs the name
//! of every point the workload passes ([`start_recording`] /
//! [`stop_recording`]), and the harness re-runs the workload once per
//! recorded ordinal. Decisions are a pure function of (armed ordinal,
//! seed), so a schedule replays bit-identically.
//!
//! When the registry is disabled (the default) a `point` call is one
//! relaxed atomic load — production paths pay effectively nothing.
//!
//! Progress is visible in the `storage.crash.*` counters of [`crate::catalog`]:
//! `points` (crash points evaluated while the registry is active), `cuts`
//! (simulated crashes fired), and `recoveries` (successful post-crash
//! recoveries recorded by [`note_recovery`]).

use crate::catalog;
use gnndrive_sync::rng::mix_unit;
use gnndrive_sync::{LockRank, OrderedMutex};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};

/// A simulated process crash fired by an armed [`point`].
#[derive(Debug, Clone, PartialEq)]
pub struct CrashCut {
    /// Name of the crash point that fired (or, for the trailing errors a
    /// dead process keeps returning, the point where death happened).
    pub point: String,
    /// Ordinal of the firing point in this armed run (0-based).
    pub ordinal: u64,
    /// Seeded unit value in `[0, 1)` for partial-effect decisions at the
    /// cut site (e.g. how much of a staged temp file survives page-out).
    pub keep: f64,
}

impl fmt::Display for CrashCut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated crash cut at point {:?} (ordinal {})",
            self.point, self.ordinal
        )
    }
}

impl std::error::Error for CrashCut {}

impl From<CrashCut> for io::Error {
    fn from(cut: CrashCut) -> Self {
        io::Error::new(io::ErrorKind::Interrupted, cut)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    /// Count and log point names; never cut. The enumeration pass.
    Recording,
    /// Cut at crash-point ordinal `cut_at`; `tripped` holds the cut once
    /// it fires (the process is then "dead" and every point fails).
    Armed {
        cut_at: u64,
        seed: u64,
        tripped: Option<CrashCut>,
    },
}

struct Registry {
    mode: Option<Mode>,
    /// Points evaluated since the last [`arm`]/[`start_recording`].
    ordinal: u64,
    /// Point names seen while recording.
    log: Vec<String>,
}

/// Fast-path gate: `false` (the default) means [`point`] returns `Ok`
/// without touching the registry lock.
static ACTIVE: AtomicBool = AtomicBool::new(false);

static REGISTRY: OrderedMutex<Registry> = OrderedMutex::new(
    LockRank::Telemetry,
    Registry {
        mode: None,
        ordinal: 0,
        log: Vec::new(),
    },
);

/// Declare a crash point on a persistence path. Returns `Err` exactly when
/// an armed schedule cuts here (and on every later point of the same run —
/// a crashed process executes nothing further). With the registry disabled
/// this is a single relaxed atomic load.
pub fn point(name: &str) -> Result<(), CrashCut> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    // Counter bumps happen after the registry guard is dropped: the
    // metrics registry takes its own lock, and holding both at once would
    // invert the lock lattice for no benefit.
    let (result, fresh_cut) = {
        let mut reg = REGISTRY.lock();
        if reg.mode.is_none() {
            return Ok(());
        }
        let ordinal = reg.ordinal;
        reg.ordinal += 1;
        let mut record = false;
        let mut fresh_cut = false;
        let result = match reg.mode.as_mut() {
            Some(Mode::Recording) => {
                record = true;
                Ok(())
            }
            Some(Mode::Armed {
                cut_at,
                seed,
                tripped,
            }) => {
                if let Some(cut) = tripped {
                    // Already dead: keep failing so the error propagates out
                    // of whatever the harness is still unwinding.
                    Err(cut.clone())
                } else if ordinal == *cut_at {
                    let cut = CrashCut {
                        point: name.to_string(),
                        ordinal,
                        keep: mix_unit(*seed, ordinal, 11),
                    };
                    *tripped = Some(cut.clone());
                    fresh_cut = true;
                    Err(cut)
                } else {
                    Ok(())
                }
            }
            None => Ok(()),
        };
        if record {
            reg.log.push(name.to_string());
        }
        (result, fresh_cut)
    };
    catalog::STORAGE_CRASH_POINTS.inc();
    if fresh_cut {
        catalog::STORAGE_CRASH_CUTS.inc();
    }
    result
}

/// [`point`] for `io::Result` paths: a cut converts into an
/// `io::ErrorKind::Interrupted` error carrying the [`CrashCut`].
pub fn io_point(name: &str) -> io::Result<()> {
    point(name).map_err(io::Error::from)
}

/// Arm a schedule: the `cut_at`-th crash point (0-based) evaluated after
/// this call fires a [`CrashCut`]. Resets the point ordinal.
pub fn arm(cut_at: u64, seed: u64) {
    let mut reg = REGISTRY.lock();
    reg.mode = Some(Mode::Armed {
        cut_at,
        seed,
        tripped: None,
    });
    reg.ordinal = 0;
    reg.log.clear();
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Begin an enumeration pass: every crash point logs its name instead of
/// ever cutting. Resets the point ordinal.
pub fn start_recording() {
    let mut reg = REGISTRY.lock();
    reg.mode = Some(Mode::Recording);
    reg.ordinal = 0;
    reg.log.clear();
    ACTIVE.store(true, Ordering::Relaxed);
}

/// End an enumeration pass, returning the names of every crash point the
/// workload passed, in order. Index `i` of this log is the `cut_at`
/// ordinal that [`arm`] needs to cut there.
pub fn stop_recording() -> Vec<String> {
    let mut reg = REGISTRY.lock();
    ACTIVE.store(false, Ordering::Relaxed);
    reg.mode = None;
    reg.ordinal = 0;
    std::mem::take(&mut reg.log)
}

/// The cut the armed schedule fired, if any ("did the process die?").
pub fn tripped() -> Option<CrashCut> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    match &REGISTRY.lock().mode {
        Some(Mode::Armed { tripped, .. }) => tripped.clone(),
        _ => None,
    }
}

/// Disarm the registry ("restart the process"): crash points return to
/// their zero-cost disabled state.
pub fn disarm() {
    let mut reg = REGISTRY.lock();
    ACTIVE.store(false, Ordering::Relaxed);
    reg.mode = None;
    reg.ordinal = 0;
    reg.log.clear();
}

/// Record one successful post-crash recovery (the harness or a recovery
/// helper landed on a durable artifact after a cut).
pub fn note_recovery() {
    catalog::STORAGE_CRASH_RECOVERIES.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TEST_GATE;

    #[test]
    fn disabled_points_are_inert() {
        let _g = TEST_GATE.lock();
        disarm();
        for _ in 0..100 {
            assert_eq!(point("anything"), Ok(()));
        }
        assert_eq!(tripped(), None);
    }

    #[test]
    fn recording_logs_every_point_in_order() {
        let _g = TEST_GATE.lock();
        start_recording();
        point("a").expect("recording never cuts");
        point("b").expect("recording never cuts");
        point("a").expect("recording never cuts");
        let log = stop_recording();
        assert_eq!(log, vec!["a", "b", "a"]);
        // Stopping disarms: later points are inert again.
        assert_eq!(point("c"), Ok(()));
    }

    #[test]
    fn armed_schedule_cuts_at_the_exact_ordinal_and_stays_dead() {
        let _g = TEST_GATE.lock();
        arm(2, 0xDEAD);
        assert!(point("p0").is_ok());
        assert!(point("p1").is_ok());
        let cut = point("p2").expect_err("ordinal 2 must cut");
        assert_eq!((cut.point.as_str(), cut.ordinal), ("p2", 2));
        assert!((0.0..1.0).contains(&cut.keep));
        // A dead process stays dead: every later point also fails, with
        // the original cut.
        assert_eq!(point("p3").expect_err("still dead"), cut);
        assert_eq!(tripped(), Some(cut.clone()));
        disarm();
        assert!(point("p4").is_ok());
        assert_eq!(tripped(), None);

        // Same (ordinal, seed) → same keep fraction; different seed differs.
        arm(2, 0xDEAD);
        point("p0").ok();
        point("p1").ok();
        let again = point("p2").expect_err("replay");
        assert_eq!(again, cut, "schedules replay bit-identically");
        disarm();
        arm(2, 0xBEEF);
        point("p0").ok();
        point("p1").ok();
        let other = point("p2").expect_err("other seed");
        assert_ne!(other.keep, cut.keep, "seed must drive the keep fraction");
        disarm();
    }

    #[test]
    fn io_point_converts_to_interrupted() {
        let _g = TEST_GATE.lock();
        arm(0, 1);
        let err = io_point("host.write").expect_err("cut at 0");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let inner = err.get_ref().expect("payload");
        assert!(inner.to_string().contains("host.write"), "{inner}");
        disarm();
    }
}
