//! `crashsim` — enumerate crash schedules over a checkpointed training
//! run and prove power-cut recovery.
//!
//! ```text
//! crashsim [--out DIR] [--seed N] [--check]
//! ```
//!
//! Runs the recording pass (uninterrupted, enumerating every crash point
//! of the persistence paths), then one armed run per schedule ordinal:
//! cut at that point, power-cut the simulated SSD, restart, recover from
//! the newest durable checkpoint slot, resume, and compare final weights
//! against the uninterrupted run. Prints one row per schedule and writes
//! `CRASH_SWEEP.json` plus a `crash_sweep` RunReport (recovery counters,
//! write-cache fate counters) under `--out` (default `results/reports`).
//!
//! With `--check` the run exits nonzero unless every schedule recovered
//! to the last durable checkpoint with bit-identical weights, every host
//! artifact was whole, and `storage.integrity.escaped` stayed 0.

use gnndrive_bench::crashsim::{
    crash_sweep_path, run_crash_sweep, sweep_doc, validate_crash_sweep,
};
use gnndrive_bench::{print_table, Row};
use gnndrive_telemetry as telemetry;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: crashsim [--out DIR] [--seed N] [--check]");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("crashsim: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results/reports");
    let mut seed = 0xC0FFEEu64;
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = match args[i + 1].parse() {
                    Ok(s) => s,
                    Err(_) => usage(),
                };
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    let scratch = out_dir.join("crashsim-scratch");
    let sweep = match run_crash_sweep(seed, &scratch) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };

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
        fail(&format!("create {}: {e}", out_dir.display()));
    }
    let artifact = crash_sweep_path(&out_dir);
    if let Err(e) = telemetry::atomic_write_file(
        "crashsim.artifact",
        &artifact,
        (doc.to_json_string() + "\n").as_bytes(),
    ) {
        fail(&format!("write {}: {e}", artifact.display()));
    }
    println!("artifact: {}", artifact.display());

    // The recovery/write-cache counter story also lands as a RunReport.
    std::env::set_var("REPRO_REPORT_DIR", &out_dir);
    let report = gnndrive_bench::collect_report(
        "crash_sweep",
        &format!("crash-schedule sweep, seed {seed:#x}"),
        Vec::new(),
    );
    gnndrive_bench::write_report(&report);

    if !check {
        return;
    }
    if let Err(e) = validate_crash_sweep(&doc) {
        fail(&format!("check failed: {e}"));
    }
    println!(
        "check: {} schedules recovered to the last durable checkpoint, bit-identical, escaped=0",
        sweep.outcomes.len()
    );
}
