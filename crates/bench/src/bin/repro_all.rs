//! Run every reproduction experiment in sequence (Table 1, Figs 2/3/8/9/
//! 10/11/12/13/14, Table 2, Appendix B), streaming each binary's output.
//!
//! Honors the same `REPRO_*` environment knobs as the individual binaries.
//! With defaults this takes tens of minutes on a small container; set
//! `REPRO_MAX_BATCHES=6` and `REPRO_SCALE=0.25` for a faster pass.
//!
//! The experiments are sibling binaries next to this one, so build them
//! all first: `cargo build --release -p gnndrive-bench --bins`.

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "repro_table1_datasets",
    "repro_appendix_b_io",
    "repro_fig2_contention",
    "repro_fig3_utilization",
    "repro_fig11_utilization",
    "repro_fig8_dims",
    "repro_fig9_memory",
    "repro_fig10_batch",
    "repro_fig12_featbuf",
    "repro_fig13_scaling",
    "repro_fig14_convergence",
    "repro_table2_marius",
];

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n########## {exp} ##########");
        match Command::new(bin_dir.join(exp)).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{exp} FAILED: {status}");
                failures.push(*exp);
            }
            Err(e) => {
                eprintln!(
                    "{exp} FAILED to launch ({e}); run \
                     `cargo build --release -p gnndrive-bench --bins` first"
                );
                failures.push(*exp);
            }
        }
    }
    if failures.is_empty() {
        println!("\nall {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("\nfailed experiments: {failures:?}");
        std::process::exit(1);
    }
}
