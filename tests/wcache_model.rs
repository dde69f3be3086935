//! Seeded reference-model tests for the volatile write-back cache.
//!
//! A miniature model of one file's sectors (durable bytes vs. pending
//! bytes) runs random write/flush/power-cut schedules against a real
//! [`SimSsd`] and pins the durability contract:
//!
//! * **flushed ⇒ durable**: every sector flushed before a power cut reads
//!   back bit-identical and CRC-verifies clean;
//! * **unflushed ⇒ old, new, or detected**: after a cut, a dirty sector is
//!   observable only as its complete durable version, its complete pending
//!   version, or a torn sector whose every verification fails with a typed
//!   *persistent* [`IntegrityError`] — never silently wrong bytes;
//! * rewriting a torn sector (and flushing) heals it;
//! * `storage.integrity.escaped` stays 0 through it all.

use gnndrive::prelude::*;
use gnndrive::storage::{FileHandle, SECTOR_SIZE};
use gnndrive::sync::Rng;
use gnndrive::telemetry::catalog;

/// The integrity/wcache counters are process-global and the tests below
/// assert exact deltas, so they serialize on this gate.
static WCACHE_GATE: OrderedMutex<()> = OrderedMutex::new(LockRank::Sync, ());

const SEC: usize = SECTOR_SIZE as usize;

fn sector_bytes(rng: &mut Rng) -> Vec<u8> {
    let tag = rng.next_u64();
    (0..SEC)
        .map(|i| (tag.wrapping_mul(31).wrapping_add(i as u64) >> 3) as u8)
        .collect()
}

/// Reference state of one sector: what is durable on media vs. what the
/// device acknowledged but has not flushed.
#[derive(Clone)]
struct ModelSector {
    durable: Vec<u8>,
    pending: Vec<u8>,
    dirty: bool,
}

fn read_sector(ssd: &SimSsd, file: FileHandle, s: usize) -> Vec<u8> {
    let mut buf = vec![0u8; SEC];
    ssd.peek(file, (s * SEC) as u64, &mut buf).expect("peek");
    buf
}

#[test]
fn flushed_sectors_survive_any_power_cut() {
    let _g = WCACHE_GATE.lock();
    let ssd = SimSsd::new(SsdProfile::instant());
    let mut rng = Rng::seed_from_u64(0xF1A5);
    let sectors = 16usize;
    let file = ssd.create_file((sectors * SEC) as u64);

    let image: Vec<Vec<u8>> = (0..sectors).map(|_| sector_bytes(&mut rng)).collect();
    for (s, bytes) in image.iter().enumerate() {
        ssd.write_blocking(file, (s * SEC) as u64, bytes, false)
            .expect("write");
    }
    assert!(ssd.dirty_sector_count() >= sectors as u64);
    ssd.flush(file);
    assert_eq!(ssd.dirty_sector_count(), 0, "flush must drain the file");

    // With nothing dirty the cut is a no-op: same bytes, clean CRCs.
    let report = ssd.power_cut(0xDEAD);
    assert_eq!(
        report,
        PowerCutReport::default(),
        "a cut after a flush barrier has nothing to disturb"
    );
    for (s, bytes) in image.iter().enumerate() {
        assert_eq!(&read_sector(&ssd, file, s), bytes, "sector {s}");
        ssd.verify(file, (s * SEC) as u64, bytes)
            .expect("flushed sector must verify clean");
    }
    assert_eq!(catalog::STORAGE_INTEGRITY_ESCAPED.get(), 0);
}

/// The main property run: random write/flush schedules punctuated by
/// power cuts, checked sector-by-sector against the reference model after
/// every cut, over several seeds.
#[test]
fn random_schedules_never_expose_silent_corruption() {
    let _g = WCACHE_GATE.lock();
    let escaped_before = catalog::STORAGE_INTEGRITY_ESCAPED.get();

    for seed in [3u64, 0x5EED, 0xB007, 77] {
        run_schedule(seed);
    }

    assert_eq!(
        catalog::STORAGE_INTEGRITY_ESCAPED.get(),
        escaped_before,
        "no schedule may let wrong bytes pass verification"
    );
}

fn run_schedule(seed: u64) {
    let ssd = SimSsd::new(SsdProfile::instant());
    let mut rng = Rng::seed_from_u64(seed);
    let sectors = 12usize;
    let file = ssd.create_file((sectors * SEC) as u64);

    // Establish a known durable baseline: write everything and flush.
    let mut model: Vec<ModelSector> = (0..sectors)
        .map(|_| {
            let bytes = sector_bytes(&mut rng);
            ModelSector {
                durable: bytes.clone(),
                pending: bytes,
                dirty: false,
            }
        })
        .collect();
    for (s, m) in model.iter().enumerate() {
        ssd.write_blocking(file, (s * SEC) as u64, &m.durable, false)
            .expect("baseline write");
    }
    ssd.flush(file);

    for round in 0..8 {
        // A burst of random writes and occasional flush barriers.
        for _ in 0..rng.below(24) + 4 {
            if rng.below(8) == 0 {
                ssd.flush(file);
                for m in model.iter_mut() {
                    m.durable = m.pending.clone();
                    m.dirty = false;
                }
            } else {
                let s = rng.below(sectors);
                let bytes = sector_bytes(&mut rng);
                ssd.write_blocking(file, (s * SEC) as u64, &bytes, false)
                    .expect("write");
                model[s].pending = bytes;
                model[s].dirty = true;
            }
        }
        let model_dirty = model.iter().filter(|m| m.dirty).count() as u64;
        assert_eq!(
            ssd.dirty_sector_count(),
            model_dirty,
            "seed {seed:#x} round {round}: dirty accounting diverged"
        );

        // Power loss. Fates must account for exactly the dirty set.
        let report = ssd.power_cut(rng.next_u64());
        assert_eq!(
            report.dirty, model_dirty,
            "seed {seed:#x} round {round}: cut saw a different dirty set"
        );
        assert_eq!(
            report.kept + report.dropped + report.torn,
            report.dirty,
            "seed {seed:#x} round {round}: fates must partition the dirty set"
        );
        assert_eq!(ssd.dirty_sector_count(), 0, "a cut leaves nothing pending");

        let mut torn = Vec::new();
        for (s, m) in model.iter_mut().enumerate() {
            let observed = read_sector(&ssd, file, s);
            let verified = ssd.verify(file, (s * SEC) as u64, &observed);
            if !m.dirty {
                // Flushed ⇒ durable: untouched by the cut.
                assert!(verified.is_ok(), "seed {seed:#x}: clean sector {s} fenced");
                assert_eq!(
                    observed, m.durable,
                    "seed {seed:#x}: clean sector {s} changed under a cut"
                );
                continue;
            }
            match verified {
                Ok(()) => {
                    // Whichever way the cut went, a verifiable sector must
                    // be a *complete* generation — old or new, never mixed.
                    assert!(
                        observed == m.pending || observed == m.durable,
                        "seed {seed:#x} round {round}: sector {s} verified \
                         but is neither generation"
                    );
                    // Whichever generation survived *is* the sector's state
                    // now — acknowledged and durable.
                    m.durable = observed.clone();
                    m.pending = observed;
                }
                Err(e) => {
                    // Torn: typed, persistent, and sticky until rewritten.
                    assert!(
                        e.persistent,
                        "seed {seed:#x}: torn sector {s} must be persistent"
                    );
                    assert!(
                        ssd.verify(file, (s * SEC) as u64, &observed).is_err(),
                        "seed {seed:#x}: fenced sector {s} must keep failing"
                    );
                    torn.push(s);
                }
            }
            m.dirty = false;
        }

        // Rewriting a torn sector (and flushing the barrier) heals it.
        for s in torn {
            let bytes = sector_bytes(&mut rng);
            ssd.write_blocking(file, (s * SEC) as u64, &bytes, false)
                .expect("healing rewrite");
            model[s].pending = bytes;
            model[s].dirty = true;
        }
        ssd.flush(file);
        for m in model.iter_mut() {
            m.durable = m.pending.clone();
            m.dirty = false;
        }
        for (s, m) in model.iter().enumerate() {
            assert_eq!(&read_sector(&ssd, file, s), &m.durable);
            ssd.verify(file, (s * SEC) as u64, &m.durable)
                .unwrap_or_else(|e| panic!("seed {seed:#x}: sector {s} not healed: {e:?}"));
        }
    }
}

/// The wcache telemetry namespace moves coherently: dirtied ≥ flushed,
/// and a cut's kept/dropped/torn counter deltas equal its report.
#[test]
fn wcache_counters_match_power_cut_reports() {
    let _g = WCACHE_GATE.lock();
    let ssd = SimSsd::new(SsdProfile::instant());
    let file = ssd.create_file(64 * SECTOR_SIZE);
    let mut rng = Rng::seed_from_u64(0xC0DE);

    let kept_before = catalog::STORAGE_WCACHE_SECTORS_KEPT.get();
    let dropped_before = catalog::STORAGE_WCACHE_SECTORS_DROPPED.get();
    let torn_before = catalog::STORAGE_WCACHE_SECTORS_TORN.get();
    let cuts_before = catalog::STORAGE_WCACHE_POWER_CUTS.get();

    for s in 0..64usize {
        let bytes = sector_bytes(&mut rng);
        ssd.write_blocking(file, (s * SEC) as u64, &bytes, false)
            .expect("write");
    }
    let report = ssd.power_cut(0x7E11);
    assert_eq!(report.dirty, 64);
    assert!(
        report.dropped + report.torn > 0,
        "64 dirty sectors must not all survive a cut: {report:?}"
    );
    assert_eq!(
        catalog::STORAGE_WCACHE_SECTORS_KEPT.get() - kept_before,
        report.kept
    );
    assert_eq!(
        catalog::STORAGE_WCACHE_SECTORS_DROPPED.get() - dropped_before,
        report.dropped
    );
    assert_eq!(
        catalog::STORAGE_WCACHE_SECTORS_TORN.get() - torn_before,
        report.torn
    );
    assert_eq!(catalog::STORAGE_WCACHE_POWER_CUTS.get() - cuts_before, 1);
}
