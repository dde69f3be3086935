//! Crash-schedule sweep: enumerate every crash point of a checkpointed
//! training run, cut each one (process death + power loss), and prove
//! recovery.
//!
//! The harness runs one pinned configuration (small planted-label dataset,
//! `reorder = false` so the trajectory is a pure function of the resume
//! state) in checkpointed chunks, with a recording pass first: the crash
//! registry enumerates every crash point the persistence paths traverse.
//! Then, for each ordinal `k` of that schedule, a fresh run is armed to
//! die at point `k`; the simulated SSD takes a seeded [`SimSsd::power_cut`]
//! (unflushed sectors dropped, kept, or torn), and a restarted pipeline
//! recovers via [`TrainCheckpoint::recover_from_ssd`]. The acceptance
//! properties, checked per schedule:
//!
//! * recovery lands on the **last durable** checkpoint — exactly the
//!   newest slot whose publish flush preceded the cut;
//! * the resumed trajectory is **bit-identical** to the uninterrupted
//!   run's final weights;
//! * `storage.integrity.escaped` stays 0 — every torn sector is caught by
//!   CRC verification, never silently read;
//! * the host checkpoint artifact is never observable half-written: it is
//!   absent, a complete old version, or a complete new version.

use gnndrive_core::{CheckpointError, Error, GnnDriveConfig, Pipeline, TrainCheckpoint};
use gnndrive_device::GpuDevice;
use gnndrive_graph::{Dataset, DatasetSpec};
use gnndrive_nn::ModelKind;
use gnndrive_storage::{FileHandle, MemoryGovernor, PageCache, SimSsd, SsdProfile};
use gnndrive_telemetry::{self as telemetry, catalog, Counter, Json};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version of the `CRASH_SWEEP.json` document layout.
pub const CRASH_SWEEP_SCHEMA_VERSION: u64 = 1;

/// Checkpointed chunks per run and batches trained per chunk (pinned).
pub const SWEEP_CHUNKS: usize = 3;
pub const SWEEP_CHUNK_BATCHES: usize = 4;

/// The `storage.wcache.*` counters the sweep snapshots into its artifact.
pub static WCACHE_METRICS: [&Counter; 7] = [
    &catalog::STORAGE_WCACHE_SECTORS_DIRTIED,
    &catalog::STORAGE_WCACHE_FLUSHES,
    &catalog::STORAGE_WCACHE_SECTORS_FLUSHED,
    &catalog::STORAGE_WCACHE_POWER_CUTS,
    &catalog::STORAGE_WCACHE_SECTORS_KEPT,
    &catalog::STORAGE_WCACHE_SECTORS_DROPPED,
    &catalog::STORAGE_WCACHE_SECTORS_TORN,
];

/// The artifact key of a `storage.wcache.*` counter: its last segment.
fn wcache_key(c: &Counter) -> &'static str {
    c.name().trim_start_matches("storage.wcache.")
}

/// One enumerated crash schedule: cut at `ordinal` (the `ordinal`-th crash
/// point of the run), power-cut the device, restart, recover, resume.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// 0-based crash-point ordinal the run was armed to die at
    /// (`schedule[ordinal]` is the point that fired).
    pub ordinal: u64,
    /// Name of the crash point that fired.
    pub point: String,
    /// `next_batch` of the checkpoint recovery was expected to land on
    /// (the newest slot whose publish preceded the cut).
    pub expected_next_batch: u64,
    /// `next_batch` of the checkpoint recovery actually landed on.
    pub recovered_next_batch: u64,
    /// Resumed final weights byte-equal to the uninterrupted run's.
    pub bit_identical: bool,
    /// Host checkpoint artifact was absent or parsed completely.
    pub host_artifact_clean: bool,
    /// Power-cut fate of the unflushed sectors.
    pub sectors_kept: u64,
    pub sectors_dropped: u64,
    pub sectors_torn: u64,
}

impl ScheduleOutcome {
    /// All acceptance properties of this schedule hold.
    pub fn holds(&self) -> bool {
        self.bit_identical
            && self.host_artifact_clean
            && self.recovered_next_batch == self.expected_next_batch
    }
}

/// The whole sweep: the recorded schedule plus one outcome per ordinal.
#[derive(Debug, Clone)]
pub struct CrashSweepOutcome {
    pub seed: u64,
    /// Crash points of the uninterrupted run, in traversal order.
    pub schedule: Vec<String>,
    pub outcomes: Vec<ScheduleOutcome>,
    /// `storage.integrity.escaped` after the sweep (must be 0).
    pub escaped: u64,
}

impl CrashSweepOutcome {
    /// Every schedule recovered to the last durable checkpoint with a
    /// bit-identical trajectory and clean host artifacts, and nothing
    /// escaped integrity verification.
    pub fn holds(&self) -> bool {
        self.escaped == 0
            && !self.outcomes.is_empty()
            && self.outcomes.len() == self.schedule.len()
            && self.outcomes.iter().all(ScheduleOutcome::holds)
    }
}

/// The planted-label dataset every run of the sweep rebuilds (power cuts
/// mutate the device, so runs cannot share one). Same spec seed → every
/// device starts byte-identical.
fn sweep_dataset() -> Arc<Dataset> {
    Arc::new(Dataset::build(
        DatasetSpec {
            name: "crashsim".into(),
            num_nodes: 1_500,
            num_edges: 12_000,
            feat_dim: 16,
            num_classes: 4,
            intra_prob: 0.8,
            feature_signal: 1.2,
            train_fraction: 0.2,
            seed: 0xC4A5,
        },
        SimSsd::new(SsdProfile::instant()),
    ))
}

/// `reorder = false` restores trainer submission order, making the final
/// weights a pure function of (restored state, batch plan) — the property
/// the bit-identical assertion rests on.
fn sweep_pipeline(ds: &Arc<Dataset>) -> Result<Pipeline, String> {
    let cfg = GnnDriveConfig {
        reorder: false,
        fanouts: vec![3, 3],
        batch_size: 8,
        feature_buffer_slots: 8_192,
        seed: 11,
        ..Default::default()
    };
    let gov = MemoryGovernor::unlimited();
    let cache = PageCache::new(Arc::clone(&ds.ssd), Arc::clone(&gov));
    Pipeline::builder(Arc::clone(ds), GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 16)
        .with_config(cfg)
        .with_governor(gov)
        .with_page_cache(cache)
        .build()
        .map_err(|e| format!("pipeline: {e}"))
}

/// Train `SWEEP_CHUNKS × SWEEP_CHUNK_BATCHES` batches of epoch 0 from
/// `start_chunk`, persisting each chunk's checkpoint to its slot (and to
/// the host artifact when given). Returns the first persistence error —
/// under an armed schedule, the simulated process death.
fn run_checkpointed(
    p: &mut Pipeline,
    ds: &Arc<Dataset>,
    slots: &[FileHandle],
    start_chunk: usize,
    host_ck: Option<&Path>,
) -> Result<(), String> {
    for c in start_chunk..SWEEP_CHUNKS {
        let stats = p.train_epoch_range(0, c * SWEEP_CHUNK_BATCHES, Some(SWEEP_CHUNK_BATCHES));
        if let Some(e) = stats.report.error {
            return Err(format!("chunk {c} failed: {e}"));
        }
        let ck = p.checkpoint(0, ((c + 1) * SWEEP_CHUNK_BATCHES) as u64);
        ck.write_to_slot(&ds.ssd, slots[c + 1])
            .map_err(|e| format!("chunk {c} ssd checkpoint: {e}"))?;
        if let Some(path) = host_ck {
            ck.save_file(path)
                .map_err(|e| format!("chunk {c} host checkpoint: {e}"))?;
        }
    }
    Ok(())
}

/// Allocate the fixed slot directory (slot 0 = pre-training state, slot
/// `c + 1` = chunk `c`) and publish the initial checkpoint into slot 0.
/// Runs before any crash window opens, so a restart after *any* cut finds
/// at least the initial state durable.
fn setup_slots(p: &mut Pipeline, ds: &Arc<Dataset>) -> Result<Vec<FileHandle>, String> {
    let init = p.checkpoint(0, 0);
    // Adam allocates its two moment matrices lazily, so steady-state
    // checkpoints outgrow the initial one by about twice the weight
    // payload; size every slot for that worst case up front.
    let slot_len = 8 + (init.to_bytes().len() + 2 * init.model.len() + 4_096) as u64;
    let slots: Vec<FileHandle> = (0..=SWEEP_CHUNKS)
        .map(|_| ds.ssd.create_file(slot_len))
        .collect();
    init.write_to_slot(&ds.ssd, slots[0])
        .map_err(|e| format!("initial checkpoint: {e}"))?;
    Ok(slots)
}

/// The last durable checkpoint's `next_batch` for a cut at the 0-based
/// `ordinal`: `SWEEP_CHUNK_BATCHES ×` the number of
/// `checkpoint.ssd.publish` points up to and *including* the cut — the
/// publish point fires after its commit-record flush, so a cut exactly
/// there still leaves that slot durable.
pub fn expected_next_batch(schedule: &[String], ordinal: u64) -> u64 {
    let end = (ordinal as usize).saturating_add(1).min(schedule.len());
    let published = schedule[..end]
        .iter()
        .filter(|p| *p == "checkpoint.ssd.publish")
        .count() as u64;
    published * SWEEP_CHUNK_BATCHES as u64
}

/// The host artifact contract after a cut: the path holds a complete
/// checkpoint (old or new generation — any chunk boundary), or nothing at
/// all. A typed parse failure means a torn write escaped atomicity.
fn host_artifact_clean(path: &Path) -> bool {
    match TrainCheckpoint::load_file(path) {
        Ok(ck) => ck.epoch == 0 && ck.next_batch % SWEEP_CHUNK_BATCHES as u64 == 0,
        Err(Error::Checkpoint(CheckpointError::HostIo { .. })) => true,
        Err(_) => false,
    }
}

/// Run the full sweep. `scratch` hosts the per-schedule checkpoint
/// artifacts (the caller owns cleanup). The caller must serialize access
/// to the process-global crash registry (it is armed here).
pub fn run_crash_sweep(seed: u64, scratch: &Path) -> Result<CrashSweepOutcome, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;

    // Recording pass: uninterrupted run, enumerating the crash schedule
    // and producing the reference trajectory.
    let ds = sweep_dataset();
    let mut p = sweep_pipeline(&ds)?;
    let slots = setup_slots(&mut p, &ds)?;
    telemetry::crash::start_recording();
    let recorded = run_checkpointed(&mut p, &ds, &slots, 0, Some(&scratch.join("ck_ref.gnck")));
    let schedule = telemetry::crash::stop_recording();
    recorded.map_err(|e| format!("recording pass: {e}"))?;
    if schedule.is_empty() {
        return Err("recording pass traversed no crash points".into());
    }
    let reference = p.model_mut().save();

    let mut outcomes = Vec::with_capacity(schedule.len());
    for k in 0..schedule.len() as u64 {
        let ds = sweep_dataset();
        let mut p = sweep_pipeline(&ds)?;
        let slots = setup_slots(&mut p, &ds).map_err(|e| format!("schedule {k}: {e}"))?;
        let host = scratch.join(format!("ck_{k}.gnck"));

        telemetry::crash::arm(k, seed);
        let died = run_checkpointed(&mut p, &ds, &slots, 0, Some(&host));
        let cut = telemetry::crash::tripped();
        // Power loss at the instant of death: unflushed sectors are
        // dropped, kept, or torn, deterministically per (seed, ordinal).
        let power = ds.ssd.power_cut(seed.wrapping_add(k));
        telemetry::crash::disarm();
        let cut = match (died, cut) {
            (Err(_), Some(cut)) => cut,
            (died, cut) => {
                return Err(format!(
                    "schedule {k}/{}: expected a cut, got died={died:?} tripped={cut:?}",
                    schedule.len()
                ));
            }
        };

        // Restart: a fresh pipeline on the powered-cycled device recovers
        // from the newest durable slot and resumes the epoch.
        let mut r = sweep_pipeline(&ds)?;
        let (slot_idx, ck) = TrainCheckpoint::recover_from_ssd(&ds.ssd, &slots)
            .ok_or_else(|| format!("schedule {k}: no durable checkpoint (slot 0 must survive)"))?;
        r.restore(&ck)
            .map_err(|e| format!("schedule {k}: restore: {e}"))?;
        let resumed_chunk = ck.next_batch as usize / SWEEP_CHUNK_BATCHES;
        debug_assert_eq!(resumed_chunk, slot_idx, "slot index encodes the chunk");
        if resumed_chunk < SWEEP_CHUNKS {
            run_checkpointed(&mut r, &ds, &slots, resumed_chunk, None)
                .map_err(|e| format!("schedule {k}: resume: {e}"))?;
        }

        outcomes.push(ScheduleOutcome {
            ordinal: k,
            point: cut.point,
            expected_next_batch: expected_next_batch(&schedule, k),
            recovered_next_batch: ck.next_batch,
            bit_identical: r.model_mut().save() == reference,
            host_artifact_clean: host_artifact_clean(&host),
            sectors_kept: power.kept,
            sectors_dropped: power.dropped,
            sectors_torn: power.torn,
        });
    }

    Ok(CrashSweepOutcome {
        seed,
        schedule,
        outcomes,
        escaped: catalog::STORAGE_INTEGRITY_ESCAPED.get(),
    })
}

/// Assemble the `CRASH_SWEEP.json` document from a sweep outcome.
pub fn sweep_doc(sweep: &CrashSweepOutcome) -> Json {
    let mut wcache = Json::obj();
    for c in WCACHE_METRICS {
        wcache.set(wcache_key(c), (c.get() as f64).into());
    }
    let mut rows = Vec::with_capacity(sweep.outcomes.len());
    for o in &sweep.outcomes {
        let mut row = Json::obj();
        row.set("ordinal", (o.ordinal as f64).into())
            .set("point", o.point.as_str().into())
            .set("expected_next_batch", (o.expected_next_batch as f64).into())
            .set(
                "recovered_next_batch",
                (o.recovered_next_batch as f64).into(),
            )
            .set("bit_identical", Json::Bool(o.bit_identical))
            .set("host_artifact_clean", Json::Bool(o.host_artifact_clean))
            .set("sectors_kept", (o.sectors_kept as f64).into())
            .set("sectors_dropped", (o.sectors_dropped as f64).into())
            .set("sectors_torn", (o.sectors_torn as f64).into());
        rows.push(row);
    }
    let mut doc = Json::obj();
    doc.set("schema_version", (CRASH_SWEEP_SCHEMA_VERSION as f64).into())
        .set("kind", "crash_sweep".into())
        .set("seed", (sweep.seed as f64).into())
        .set(
            "schedule",
            Json::Arr(
                sweep
                    .schedule
                    .iter()
                    .map(|s| Json::Str(s.clone()))
                    .collect(),
            ),
        )
        .set("schedules", (sweep.outcomes.len() as f64).into())
        .set("escaped", (sweep.escaped as f64).into())
        .set("holds", Json::Bool(sweep.holds()))
        .set("wcache", wcache)
        .set("outcomes", Json::Arr(rows));
    doc
}

/// Structural validation of a `CRASH_SWEEP.json` document: schema, shape,
/// and the acceptance properties themselves.
pub fn validate_crash_sweep(doc: &Json) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != CRASH_SWEEP_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != {CRASH_SWEEP_SCHEMA_VERSION}"
        ));
    }
    if doc.get("kind").and_then(Json::as_str) != Some("crash_sweep") {
        return Err("kind != crash_sweep".into());
    }
    let schedules = doc
        .get("schedules")
        .and_then(Json::as_u64)
        .ok_or("missing schedules")?;
    if schedules == 0 {
        return Err("sweep exercised no schedules".into());
    }
    let schedule = doc
        .get("schedule")
        .and_then(Json::as_array)
        .ok_or("missing schedule")?;
    if schedule.len() as u64 != schedules {
        return Err(format!(
            "schedule lists {} points but {schedules} schedules ran",
            schedule.len()
        ));
    }
    if doc.get("escaped").and_then(Json::as_u64) != Some(0) {
        return Err("escaped != 0: corruption passed verification".into());
    }
    if doc.get("holds") != Some(&Json::Bool(true)) {
        return Err("holds != true".into());
    }
    let outcomes = doc
        .get("outcomes")
        .and_then(Json::as_array)
        .ok_or("missing outcomes")?;
    if outcomes.len() as u64 != schedules {
        return Err("outcomes count != schedules".into());
    }
    for (i, o) in outcomes.iter().enumerate() {
        let expected = o.get("expected_next_batch").and_then(Json::as_u64);
        let recovered = o.get("recovered_next_batch").and_then(Json::as_u64);
        if expected.is_none() || expected != recovered {
            return Err(format!(
                "outcome {i}: recovered {recovered:?} != expected {expected:?}"
            ));
        }
        for flag in ["bit_identical", "host_artifact_clean"] {
            if o.get(flag) != Some(&Json::Bool(true)) {
                return Err(format!("outcome {i}: {flag} != true"));
            }
        }
    }
    let wcache = doc.get("wcache").ok_or("missing wcache")?;
    for c in WCACHE_METRICS {
        let key = wcache_key(c);
        if wcache.get(key).and_then(Json::as_u64).is_none() {
            return Err(format!("wcache missing {key}"));
        }
    }
    Ok(())
}

/// The stable artifact path of the sweep document under `dir`.
pub fn crash_sweep_path(dir: &Path) -> PathBuf {
    dir.join("CRASH_SWEEP.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sweep() -> CrashSweepOutcome {
        let schedule = vec![
            "checkpoint.ssd.begin".to_string(),
            "checkpoint.ssd.blob".to_string(),
            "checkpoint.ssd.flushed".to_string(),
            "checkpoint.ssd.publish".to_string(),
            "checkpoint.host.begin".to_string(),
            "checkpoint.host.tmp".to_string(),
            "checkpoint.host.sync".to_string(),
            "checkpoint.host.publish".to_string(),
        ];
        let outcomes = (0..schedule.len() as u64)
            .map(|k| ScheduleOutcome {
                ordinal: k,
                point: schedule[k as usize].clone(),
                expected_next_batch: expected_next_batch(&schedule, k),
                recovered_next_batch: expected_next_batch(&schedule, k),
                bit_identical: true,
                host_artifact_clean: true,
                sectors_kept: 1,
                sectors_dropped: 2,
                sectors_torn: 0,
            })
            .collect();
        CrashSweepOutcome {
            seed: 7,
            schedule,
            outcomes,
            escaped: 0,
        }
    }

    #[test]
    fn expected_next_batch_counts_published_slots() {
        let s = sample_sweep().schedule;
        // Cuts before the publish point leave nothing new durable...
        for k in 0..=2 {
            assert_eq!(expected_next_batch(&s, k), 0, "ordinal {k}");
        }
        // ...and from the publish point on (its flush already happened),
        // the chunk is durable.
        for k in 3..=7 {
            assert_eq!(
                expected_next_batch(&s, k),
                SWEEP_CHUNK_BATCHES as u64,
                "ordinal {k}"
            );
        }
    }

    #[test]
    fn sweep_doc_round_trips_validation() {
        let sweep = sample_sweep();
        assert!(sweep.holds());
        let doc = sweep_doc(&sweep);
        let parsed = Json::parse(&doc.to_json_string()).expect("valid JSON");
        validate_crash_sweep(&parsed).expect("valid doc");
    }

    #[test]
    fn validation_rejects_broken_docs() {
        let mut doc = sweep_doc(&sample_sweep());
        doc.set("schema_version", 99.0.into());
        assert!(validate_crash_sweep(&doc)
            .unwrap_err()
            .contains("schema_version"));

        let mut doc = sweep_doc(&sample_sweep());
        doc.set("escaped", 2.0.into());
        assert!(validate_crash_sweep(&doc).unwrap_err().contains("escaped"));

        let mut sweep = sample_sweep();
        sweep.outcomes[3].recovered_next_batch = 0;
        assert!(!sweep.holds());
        let doc = sweep_doc(&sweep);
        assert!(validate_crash_sweep(&doc).is_err());

        let mut sweep = sample_sweep();
        sweep.outcomes[0].bit_identical = false;
        assert!(validate_crash_sweep(&sweep_doc(&sweep)).is_err());
    }
}
