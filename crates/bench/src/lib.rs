//! Experiment harness for the GNNDrive reproduction.
//!
//! One front end, the `gnndrive` binary in `src/bin/`, runs everything
//! here: the paper's tables and figures ([`repro`], `gnndrive repro
//! <name>`), the I/O replay ([`replay`]), the crash-schedule sweep and
//! the mixed serving scenario. This library provides what they share: a
//! [`Scenario`] describing one experimental point (dataset, model,
//! dimension, memory budget, batch size, device), uniform constructors for
//! all five systems under test, one name lookup each for systems, datasets
//! and models, one command-line parser ([`cli`]), a process-wide dataset
//! cache (building a dataset is expensive and every sweep reuses them),
//! and plain-text table/series printers that emit the same rows the paper
//! reports.
//!
//! Scaling: datasets are the ÷1000 analogs of Table 1 (see
//! `gnndrive_graph::catalog`), host-memory budgets map paper-GB → MiB, and
//! the SSD runs the `pm883_repro` profile (see `SsdProfile::pm883_repro`
//! for why it is ~4× slower than the pm883 model). Harness knobs come from
//! environment variables, so every experiment runs bare:
//!
//! * `REPRO_SCALE` — extra dataset scale multiplier (default 1.0)
//! * `REPRO_MAX_BATCHES` — measured mini-batches per epoch (default 12)
//! * `REPRO_FULL=1` — full-size mini datasets, whole epochs (slow)
//! * `REPRO_REPORT_DIR` — where JSON run reports land (default
//!   `results/reports`; see [`artifacts`])

pub mod artifacts;
pub mod cli;
pub mod crashsim;
pub mod replay;
pub mod report;
pub mod repro;
pub mod scenario;
pub mod serving;

pub use artifacts::{
    collect_report, report_dir, scenario_desc, slug, write_report, PIPELINE_STAGES,
};
pub use cli::{Flags, UsageError};
pub use crashsim::{
    crash_sweep_path, run_crash_sweep, sweep_doc, validate_crash_sweep, CrashSweepOutcome,
    ScheduleOutcome, CRASH_SWEEP_SCHEMA_VERSION,
};
pub use replay::{check_replay, replay_rows, run_replay, REPLAY_FILE};
pub use report::{print_series, print_table, Row};
pub use scenario::{
    build_gnndrive_pipeline, build_system, dataset_by_name, dataset_for, env_knobs,
    feature_buffer_slots_for, model_by_name, worst_case_batch_nodes, EnvKnobs, Scenario,
    SystemKind,
};
pub use serving::{run_serving_mixed, ServingMixedConfig, ServingMixedReport};
