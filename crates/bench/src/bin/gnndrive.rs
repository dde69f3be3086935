//! `gnndrive` — command-line front end for the reproduction.
//!
//! ```text
//! gnndrive dataset build --name papers100m-mini [--dim 128] [--scale 1.0] --out DIR
//! gnndrive train [--name papers100m-mini | --data DIR] [--system gnndrive-gpu]
//!                [--model sage|gcn|gat] [--epochs 3] [--batch 32] [--dim D]
//!                [--memory-gb 32] [--max-batches N]
//!                [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//! gnndrive systems          # list available systems
//! gnndrive repro <experiment|all|list>
//! gnndrive replay [--out DIR] [--check] [--baseline DIR]
//! gnndrive crashsim [--out DIR] [--seed N] [--check]
//! gnndrive serving-mixed [--chaos] [--check]
//! ```
//!
//! Exit codes: 0 on success, 1 when a run or a `--check` gate fails, 2 on
//! a bad command line.
//!
//! Checkpointing (GNNDrive systems only): `--checkpoint-every N` snapshots
//! model weights, Adam state, and the epoch/batch cursor to `--checkpoint
//! FILE` every N trained batches; `--resume FILE` restores a snapshot and
//! continues the interrupted epoch at the exact batch it stopped before.
//!
//! `repro <name>` runs one table or figure of the paper (see
//! `gnndrive_bench::repro`; `repro list` names them). `repro all` runs the
//! paper's twelve in sequence, each in its own process (a re-execution of
//! this binary), streaming their output; a failed or panicking experiment
//! is recorded, the rest still run, and the exit code is 1. With defaults
//! this takes tens of minutes on a small container; set
//! `REPRO_MAX_BATCHES=6` and `REPRO_SCALE=0.25` for a faster pass.
//!
//! `replay` runs the deterministic I/O replay (`gnndrive_bench::replay`):
//! the `io_bound` and `mem_tight` points through the real sampler, feature
//! buffer (LRU, popularity classes, classes + run-ahead horizon) and read
//! planner, plus Belady's OPT. It prints the per-batch counts and writes
//! `BENCH_replay.json` under `--out` (default `results/reports`). With
//! `--check` it fails if:
//!
//! * OPT loads more rows than an online variant, or rows loaded break the
//!   order classes + horizon ≤ classes ≤ LRU;
//! * any count is worse than in the committed baseline (`--baseline`,
//!   default `results/baselines`) — the replay is deterministic, so any
//!   change for the worse is a regression, not noise.
//!
//! `crashsim` enumerates crash schedules over a checkpointed training run
//! and proves power-cut recovery: the recording pass (uninterrupted,
//! enumerating every crash point of the persistence paths), then one
//! armed run per schedule ordinal — cut at that point, power-cut the
//! simulated SSD, restart, recover from the newest durable checkpoint
//! slot, resume, and compare final weights against the uninterrupted run.
//! It prints one row per schedule and writes `CRASH_SWEEP.json` plus a
//! `crash_sweep` RunReport (recovery counters, write-cache fate counters)
//! under `--out` (default `results/reports`). With `--check` it fails
//! unless every schedule recovered to the last durable checkpoint with
//! bit-identical weights, every host artifact was whole, and
//! `storage.integrity.escaped` stayed 0.
//!
//! `serving-mixed` runs the online serving tier under concurrent training:
//! a training loop soaks the shared storage stack while a Zipfian load
//! generator drives the inference server; the run reports the serving
//! latency distribution against its SLO and how much training throughput
//! the co-located tier cost. `--chaos` storms the device to trip the
//! breaker; `--check` fails on any violation.

use gnndrive_bench::crashsim::{
    crash_sweep_path, run_crash_sweep, sweep_doc, validate_crash_sweep,
};
use gnndrive_bench::replay::{
    check_replay, replay_rows, run_replay, POINTS, REPLAY_FILE, REPLAY_HEADER,
};
use gnndrive_bench::{
    build_gnndrive_pipeline, build_system, collect_report, dataset_by_name, dataset_for, env_knobs,
    model_by_name, print_table, repro, run_serving_mixed, scenario_desc, slug, write_report, Flags,
    Row, Scenario, ServingMixedConfig, SystemKind, UsageError,
};
use gnndrive_core::{TrainCheckpoint, TrainingSystem};
use gnndrive_graph::{Dataset, MiniDataset};
use gnndrive_nn::ModelKind;
use gnndrive_storage::{SimSsd, SsdProfile};
use gnndrive_telemetry::{self as telemetry, Json, SeriesPoint};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

const USAGE: &str = "usage:\n  \
    gnndrive dataset build --name <mini-dataset> [--dim D] [--scale S] --out DIR\n  \
    gnndrive train [--name <mini-dataset> | --data DIR] [--system S] [--model M]\n          \
    [--epochs N] [--batch B] [--dim D] [--memory-gb G] [--max-batches K]\n          \
    [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n  \
    gnndrive systems\n  \
    gnndrive repro <experiment|all|list>\n  \
    gnndrive replay [--out DIR] [--check] [--baseline DIR]\n  \
    gnndrive crashsim [--out DIR] [--seed N] [--check]\n  \
    gnndrive serving-mixed [--chaos] [--check]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), UsageError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(UsageError("missing command".into()));
    };
    match cmd.as_str() {
        "dataset" => match rest.split_first() {
            Some((sub, flags)) if sub == "build" => {
                cmd_dataset_build(&Flags::parse(flags, &["name", "dim", "scale", "out"], &[])?)
            }
            _ => Err(UsageError("dataset: the subcommand is `build`".into())),
        },
        "train" => cmd_train(&Flags::parse(
            rest,
            &[
                "name",
                "data",
                "system",
                "model",
                "epochs",
                "batch",
                "dim",
                "memory-gb",
                "max-batches",
                "checkpoint",
                "checkpoint-every",
                "resume",
            ],
            &[],
        )?),
        "systems" => {
            Flags::parse(rest, &[], &[])?;
            for k in SystemKind::ALL {
                println!("{}", k.name());
            }
            Ok(())
        }
        "repro" => cmd_repro(rest),
        "replay" => cmd_replay(&Flags::parse(rest, &["out", "baseline"], &["check"])?),
        "crashsim" => cmd_crashsim(&Flags::parse(rest, &["out", "seed"], &["check"])?),
        "serving-mixed" => cmd_serving_mixed(&Flags::parse(rest, &[], &["chaos", "check"])?),
        other => Err(UsageError(format!("unknown command {other}"))),
    }
}

/// Print `msg` after the subcommand's name and exit 1: a failed run or
/// gate.
fn fail(cmd: &str, msg: &str) -> ! {
    eprintln!("{cmd}: {msg}");
    std::process::exit(1);
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, UsageError> {
    flags
        .get(key)
        .ok_or_else(|| UsageError(format!("--{key} is required")))
}

fn unknown_dataset(name: &str) -> UsageError {
    UsageError(format!(
        "unknown dataset {name}; available: {}",
        MiniDataset::ALL.map(|d| d.name()).join(", ")
    ))
}

fn cmd_dataset_build(flags: &Flags) -> Result<(), UsageError> {
    let name = required(flags, "name")?;
    let mini = dataset_by_name(name).ok_or_else(|| unknown_dataset(name))?;
    let out = required(flags, "out")?;
    let mut sc = Scenario::default_for(mini, &env_knobs());
    sc.dim = flags.parsed("dim")?.unwrap_or(sc.dim);
    sc.scale = flags.parsed("scale")?.unwrap_or(sc.scale);
    let t0 = std::time::Instant::now();
    let ds = dataset_for(&sc);
    ds.save_to_dir(Path::new(out)).expect("save dataset");
    println!(
        "built {} ({} nodes, {} edges, dim {}) in {:.2?} -> {out}",
        ds.spec.name,
        ds.spec.num_nodes,
        ds.spec.num_edges,
        ds.spec.feat_dim,
        t0.elapsed()
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), UsageError> {
    let knobs = env_knobs();
    let system = match flags.get("system") {
        Some(s) => {
            SystemKind::by_name(s).ok_or_else(|| UsageError(format!("unknown system {s}")))?
        }
        None => SystemKind::GnnDriveGpu,
    };
    let model = match flags.get("model") {
        Some(m) => model_by_name(m).ok_or_else(|| UsageError(format!("unknown model {m}")))?,
        None => ModelKind::GraphSage,
    };
    let epochs: u64 = flags.parsed("epochs")?.unwrap_or(3);
    let max_batches = flags.parsed("max-batches")?.or(knobs.max_batches);

    // Resolve the dataset: saved directory or named analog.
    let (mut sc, ds) = if let Some(dir) = flags.get("data") {
        let ssd = SimSsd::new(SsdProfile::pm883_repro());
        let ds = Arc::new(Dataset::load_from_dir(Path::new(dir), ssd).expect("load dataset"));
        let mini = dataset_by_name(&ds.spec.name).unwrap_or(MiniDataset::Papers100M);
        let mut sc = Scenario::default_for(mini, &knobs);
        sc.dim = ds.spec.feat_dim;
        (sc, ds)
    } else {
        let name = flags.get("name").unwrap_or("papers100m-mini");
        let mini = dataset_by_name(name).ok_or_else(|| unknown_dataset(name))?;
        let mut sc = Scenario::default_for(mini, &knobs);
        sc.dim = flags.parsed("dim")?.unwrap_or(sc.dim);
        let ds = dataset_for(&sc);
        (sc, ds)
    };
    sc.model = model;
    sc.batch_size = flags.parsed("batch")?.unwrap_or(sc.batch_size);
    sc.memory_gb = flags.parsed("memory-gb")?.unwrap_or(sc.memory_gb);

    let ck = CheckpointOpts {
        path: flags.get("checkpoint").map(PathBuf::from),
        every: flags.parsed::<usize>("checkpoint-every")?.map(|n| n.max(1)),
        resume: flags.get("resume").map(PathBuf::from),
    };
    if ck.requested() {
        let gpu = match system {
            SystemKind::GnnDriveGpu => true,
            SystemKind::GnnDriveCpu => false,
            other => {
                return Err(UsageError(format!(
                    "--checkpoint/--checkpoint-every/--resume need a GNNDrive system \
                     (got {}): only the Pipeline API exposes training state.",
                    other.name()
                )))
            }
        };
        train_checkpointed(&sc, &ds, gpu, epochs, max_batches, ck);
        return Ok(());
    }

    let mut sys = match build_system(system, &sc, &ds) {
        Ok(s) => s,
        Err(e) => fail(system.name(), &format!("failed to build: {e}")),
    };
    announce(sys.as_mut(), &sc, &ds);
    let monitor = telemetry::Monitor::start(std::time::Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let mut last_loss = 0.0f64;
    let mut total_batches = 0usize;
    for e in 0..epochs {
        let r = sys.train_epoch(e, max_batches);
        if let Some(err) = &r.error {
            eprintln!("epoch {e} aborted: {err}");
            std::process::exit(1);
        }
        println!(
            "epoch {e}: {} batches, wall {:.2?} (extrapolated {:.2?}), loss {:.3}, val acc {:.1}%",
            r.batches,
            r.wall,
            r.extrapolated_wall(),
            r.loss,
            sys.evaluate() * 100.0
        );
        last_loss = r.loss as f64;
        total_batches += r.batches;
    }
    let scalars = [
        ("epochs", epochs as f64),
        ("batches", total_batches as f64),
        ("wall_secs", t0.elapsed().as_secs_f64()),
        ("final_loss", last_loss),
    ];
    write_train_report(sys.as_mut(), &sc, monitor.stop(), &scalars);
    Ok(())
}

/// The banner every `train` run starts with.
fn announce(sys: &mut dyn TrainingSystem, sc: &Scenario, ds: &Dataset) {
    println!(
        "training {} / {} on {} (budget {} MiB, batch {})",
        sys.name(),
        sc.model.name(),
        ds.spec.name,
        sc.budget_bytes() / (1024 * 1024),
        sc.batch_size
    );
    println!("epoch -1: val acc {:.1}%", sys.evaluate() * 100.0);
}

/// The run report of a `train` run: registry snapshot, monitor `series`,
/// the run's `scalars`, final accuracy and the bottleneck verdict.
fn write_train_report(
    sys: &mut dyn TrainingSystem,
    sc: &Scenario,
    series: Vec<SeriesPoint>,
    scalars: &[(&str, f64)],
) {
    let name = format!("train.{}", slug(&sys.name()));
    let mut report = collect_report(&name, &scenario_desc(sc), series);
    for &(key, value) in scalars {
        report.add_scalar(key, value);
    }
    report.add_scalar("val_acc", sys.evaluate());
    if let Some(attr) = sys.last_attribution() {
        attr.apply_to(&mut report);
        println!("bottleneck verdict: {}", attr.verdict.label());
    }
    write_report(&report);
}

/// The CLI's fault-tolerance knobs.
struct CheckpointOpts {
    /// Where snapshots land (`--checkpoint`; defaults to the resume path,
    /// then to `gnndrive.gnck`).
    path: Option<PathBuf>,
    /// Snapshot cadence in trained batches (`--checkpoint-every`).
    every: Option<usize>,
    /// Snapshot to restore before training (`--resume`).
    resume: Option<PathBuf>,
}

impl CheckpointOpts {
    fn requested(&self) -> bool {
        self.path.is_some() || self.every.is_some() || self.resume.is_some()
    }

    fn save_path(&self) -> PathBuf {
        self.path
            .clone()
            .or_else(|| self.resume.clone())
            .unwrap_or_else(|| PathBuf::from("gnndrive.gnck"))
    }
}

/// Train a concrete GNNDrive [`gnndrive_core::Pipeline`] with periodic
/// checkpoints and/or an initial restore. Epochs run as chunks of
/// `--checkpoint-every` batches through `train_epoch_range`, snapshotting
/// the cursor after each chunk; a resumed run picks the interrupted epoch
/// back up at the exact batch the snapshot recorded.
fn train_checkpointed(
    sc: &Scenario,
    ds: &Arc<Dataset>,
    gpu: bool,
    epochs: u64,
    max_batches: Option<usize>,
    ck: CheckpointOpts,
) {
    let mut p = match build_gnndrive_pipeline(sc, ds, gpu) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("failed to build pipeline: {e}");
            std::process::exit(1);
        }
    };
    let save_path = ck.save_path();
    let (mut epoch, mut cursor) = (0u64, 0usize);
    if let Some(resume) = &ck.resume {
        // The container validates its magic, version, lengths, and CRC32
        // footer before any blob reaches a deserializer, so a corrupted or
        // foreign file dies here with a typed explanation instead of
        // resuming training from garbage weights.
        match TrainCheckpoint::load_file(resume) {
            Ok(snap) => {
                if let Err(e) = p.restore(&snap) {
                    eprintln!("cannot resume from {}: {e}", resume.display());
                    std::process::exit(1);
                }
                epoch = snap.epoch;
                cursor = snap.next_batch as usize;
                println!(
                    "resumed from {} at epoch {epoch}, batch {cursor}",
                    resume.display()
                );
            }
            Err(e) => {
                eprintln!("cannot resume from {}: {e}", resume.display());
                eprintln!(
                    "the checkpoint is unusable — retake it (or drop --resume to start fresh)"
                );
                std::process::exit(1);
            }
        }
    }

    announce(&mut p, sc, ds);
    let monitor = telemetry::Monitor::start(std::time::Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let mut last_loss = 0.0f64;
    let mut total_batches = 0usize;
    let mut snapshots = 0usize;
    while epoch < epochs {
        let limit = max_batches.unwrap_or(usize::MAX);
        let mut wall = std::time::Duration::ZERO;
        let (mut ran, mut failed, mut loss_sum) = (0usize, 0usize, 0.0f64);
        loop {
            let room = limit.saturating_sub(cursor);
            let take = ck.every.map_or(room, |n| n.min(room));
            if take == 0 {
                break;
            }
            let r = p.train_epoch_range(epoch, cursor, Some(take)).report;
            if let Some(err) = &r.error {
                eprintln!("epoch {epoch} aborted at batch {cursor}: {err}");
                std::process::exit(1);
            }
            let chunk = r.batches + r.failed_batches;
            if chunk == 0 {
                break; // past the end of the epoch's plan
            }
            cursor += chunk;
            ran += r.batches;
            failed += r.failed_batches;
            loss_sum += r.loss as f64 * r.batches as f64;
            wall += r.wall;
            if ck.every.is_some() {
                let done = cursor >= r.full_batches || cursor >= limit;
                let (e, b) = if done {
                    (epoch + 1, 0)
                } else {
                    (epoch, cursor)
                };
                if let Err(err) = p.checkpoint(e, b as u64).save_file(&save_path) {
                    eprintln!("checkpoint {}: {err}", save_path.display());
                    std::process::exit(1);
                }
                snapshots += 1;
            }
        }
        let loss = loss_sum / ran.max(1) as f64;
        let failed_note = if failed > 0 {
            format!(", {failed} skipped")
        } else {
            String::new()
        };
        println!(
            "epoch {epoch}: {ran} batches{failed_note}, wall {wall:.2?}, loss {loss:.3}, val acc {:.1}%",
            p.evaluate() * 100.0
        );
        last_loss = loss;
        total_batches += ran;
        epoch += 1;
        cursor = 0;
    }
    if ck.requested() {
        if let Err(err) = p.checkpoint(epochs, 0).save_file(&save_path) {
            eprintln!("checkpoint {}: {err}", save_path.display());
            std::process::exit(1);
        }
        snapshots += 1;
        println!(
            "checkpoint ({snapshots} snapshots) -> {}",
            save_path.display()
        );
    }

    let scalars = [
        ("epochs", epochs as f64),
        ("batches", total_batches as f64),
        ("checkpoints", snapshots as f64),
        ("wall_secs", t0.elapsed().as_secs_f64()),
        ("final_loss", last_loss),
    ];
    write_train_report(&mut p, sc, monitor.stop(), &scalars);
}

fn cmd_repro(args: &[String]) -> Result<(), UsageError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(UsageError(
            "repro: name an experiment, `all` or `list`".into(),
        ));
    };
    Flags::parse(rest, &[], &[])?;
    match name.as_str() {
        "list" => {
            for (name, _) in repro::EXPERIMENTS {
                println!("{name}");
            }
        }
        "all" => repro_all(),
        name => repro::lookup(name)?(&env_knobs()),
    }
    Ok(())
}

/// Run every experiment of [`repro::all`], each as `gnndrive repro <name>`
/// in a process of its own (its datasets are freed at exit, and a panic
/// is one recorded failure); exit 1 if any failed.
fn repro_all() {
    let me = std::env::current_exe().expect("own path");
    let mut failures = Vec::new();
    for (name, _) in repro::all() {
        println!("\n########## repro {name} ##########");
        match Command::new(&me).args(["repro", name]).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{name} FAILED: {status}");
                failures.push(*name);
            }
            Err(e) => {
                eprintln!("{name} FAILED to launch: {e}");
                failures.push(*name);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", repro::all().len());
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}

fn cmd_replay(flags: &Flags) -> Result<(), UsageError> {
    const CMD: &str = "replay";
    let out_dir = PathBuf::from(flags.get("out").unwrap_or("results/reports"));
    let baseline_dir = PathBuf::from(flags.get("baseline").unwrap_or("results/baselines"));

    let doc = run_replay(1.0, &POINTS).unwrap_or_else(|e| fail(CMD, &e));
    match replay_rows(&doc) {
        Ok(rows) => print_table("replay, per measured batch", &REPLAY_HEADER, &rows),
        Err(e) => fail(CMD, &e),
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(CMD, &format!("create {}: {e}", out_dir.display()));
    }
    let path = out_dir.join(REPLAY_FILE);
    if let Err(e) = std::fs::write(&path, doc.to_json_string() + "\n") {
        fail(CMD, &format!("write {}: {e}", path.display()));
    }
    println!("artifact: {}", path.display());

    if !flags.has("check") {
        return Ok(());
    }
    let baseline_path = baseline_dir.join(REPLAY_FILE);
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| fail(CMD, &format!("baseline {}: {e}", baseline_path.display())));
    let baseline = Json::parse(&text)
        .unwrap_or_else(|e| fail(CMD, &format!("baseline {}: {e}", baseline_path.display())));
    match check_replay(&baseline, &doc) {
        Ok(lines) if lines.is_empty() => println!("check: no count is worse than the baseline"),
        Ok(lines) => {
            for l in &lines {
                eprintln!("{CMD}: {l}");
            }
            std::process::exit(1);
        }
        Err(e) => fail(CMD, &e),
    }
    Ok(())
}

fn cmd_crashsim(flags: &Flags) -> Result<(), UsageError> {
    const CMD: &str = "crashsim";
    let out_dir = PathBuf::from(flags.get("out").unwrap_or("results/reports"));
    let seed = flags.parsed("seed")?.unwrap_or(0xC0FFEEu64);

    let scratch = out_dir.join("crashsim-scratch");
    let sweep = run_crash_sweep(seed, &scratch).unwrap_or_else(|e| fail(CMD, &e));

    let rows: Vec<Row> = sweep
        .outcomes
        .iter()
        .map(|o| Row {
            label: format!("{:>2} {}", o.ordinal, o.point),
            cells: vec![
                o.recovered_next_batch.to_string(),
                o.expected_next_batch.to_string(),
                if o.bit_identical { "yes" } else { "NO" }.to_string(),
                format!(
                    "{}k/{}d/{}t",
                    o.sectors_kept, o.sectors_dropped, o.sectors_torn
                ),
            ],
        })
        .collect();
    print_table(
        &format!("crash schedules (seed {seed:#x})"),
        &["recovered", "expected", "bit-identical", "cut sectors"],
        &rows,
    );

    let doc = sweep_doc(&sweep);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        fail(CMD, &format!("create {}: {e}", out_dir.display()));
    }
    let artifact = crash_sweep_path(&out_dir);
    if let Err(e) = telemetry::atomic_write_file(
        "crashsim.artifact",
        &artifact,
        (doc.to_json_string() + "\n").as_bytes(),
    ) {
        fail(CMD, &format!("write {}: {e}", artifact.display()));
    }
    println!("artifact: {}", artifact.display());

    // The recovery/write-cache counter story also lands as a RunReport.
    std::env::set_var("REPRO_REPORT_DIR", &out_dir);
    let report = collect_report(
        "crash_sweep",
        &format!("crash-schedule sweep, seed {seed:#x}"),
        Vec::new(),
    );
    write_report(&report);

    if !flags.has("check") {
        return Ok(());
    }
    if let Err(e) = validate_crash_sweep(&doc) {
        fail(CMD, &format!("check failed: {e}"));
    }
    println!(
        "check: {} schedules recovered to the last durable checkpoint, bit-identical, escaped=0",
        sweep.outcomes.len()
    );
    Ok(())
}

fn cmd_serving_mixed(flags: &Flags) -> Result<(), UsageError> {
    let chaos = flags.has("chaos");
    let sc = Scenario::default_for(MiniDataset::Twitter, &env_knobs());
    let cfg = ServingMixedConfig {
        chaos,
        ..ServingMixedConfig::default()
    };

    let name = if chaos {
        "serving_mixed_chaos"
    } else {
        "serving_mixed"
    };
    let outcome = match run_serving_mixed(&sc, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        }
    };

    println!("== {name}");
    println!(
        "requests: {} submitted, {} completed, {} failed, {} rejected over {} batches",
        outcome.serve.submitted,
        outcome.serve.completed,
        outcome.serve.failed,
        outcome.serve.rejected,
        outcome.serve.batches
    );
    println!(
        "latency: p50 {:.2}ms p99 {:.2}ms (SLO {}ms, {} violations)",
        outcome.serve.latency.p50_ns as f64 / 1e6,
        outcome.serve.latency.p99_ns as f64 / 1e6,
        cfg.slo.as_millis(),
        outcome.serve.slo_violations
    );
    println!(
        "training: {:.1} batches/s solo -> {:.1} mixed ({:.0}%)",
        outcome.solo_throughput,
        outcome.mixed_throughput,
        outcome.training_ratio * 100.0
    );
    if chaos {
        println!(
            "chaos: breaker open seen: {}, recovered: {}",
            outcome.saw_circuit_open, outcome.recovered
        );
    }

    let mut report = collect_report(name, &scenario_desc(&sc), Vec::new());
    outcome.fold_into(&mut report);
    let _ = write_report(&report);

    let violations = outcome.violations();
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    if flags.has("check") && !violations.is_empty() {
        std::process::exit(1);
    }
    Ok(())
}
