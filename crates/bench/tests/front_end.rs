//! The `gnndrive` front end: its one flag parser, the experiment table,
//! the name lookups, and the exit code a bad command line gets.

use gnndrive_bench::{
    dataset_by_name, model_by_name, repro, EnvKnobs, Flags, SystemKind, UsageError,
};
use gnndrive_graph::MiniDataset;
use gnndrive_nn::ModelKind;
use std::collections::HashSet;
use std::process::Command;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn parse(list: &[&str]) -> Result<Flags, UsageError> {
    Flags::parse(&args(list), &["out", "seed"], &["check", "chaos"])
}

#[test]
fn parser_reads_values_and_switches() {
    let flags = parse(&["--out", "dir", "--check", "--seed", "7", "--seed", "9"]).unwrap();
    assert_eq!(flags.get("out"), Some("dir"));
    assert_eq!(
        flags.parsed::<u64>("seed"),
        Ok(Some(9)),
        "the last value wins"
    );
    assert!(flags.has("check"));
    assert!(!flags.has("chaos"));
    assert_eq!(flags.get("check"), None, "a switch takes no value");

    let flags = parse(&["--chaos", "--check"]).unwrap();
    assert!(flags.has("chaos") && flags.has("check"));
    assert_eq!(flags.get("out"), None);
    assert_eq!(flags.parsed::<u64>("seed"), Ok(None));
}

#[test]
fn parser_returns_usage_errors() {
    for bad in [
        &["--out"][..],            // missing value
        &["--bogus", "1"][..],     // unknown flag
        &["--bogus"][..],          // unknown switch
        &["stray"][..],            // not a flag
        &["--check", "extra"][..], // a switch takes no value
    ] {
        assert!(parse(bad).is_err(), "{bad:?} parsed");
    }
    let flags = parse(&["--seed", "x"]).unwrap();
    assert!(flags.parsed::<u64>("seed").is_err());
}

#[test]
fn experiment_table_has_unique_names_and_the_paper_list_for_all() {
    let names: Vec<&str> = repro::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate name in {names:?}");
    for reserved in ["all", "list"] {
        assert!(!unique.contains(reserved), "{reserved} is a repro command");
    }

    let all: Vec<&str> = repro::all().iter().map(|(n, _)| *n).collect();
    assert_eq!(
        all,
        [
            "table1",
            "appendix-b",
            "fig2",
            "fig3",
            "fig11",
            "fig8",
            "fig9",
            "fig10",
            "fig12",
            "fig13",
            "fig14",
            "table2"
        ]
    );
    assert!(!all.contains(&"ablations") && !all.contains(&"calibrate"));

    for name in names {
        assert!(repro::lookup(name).is_ok(), "{name}");
    }
    assert!(repro::lookup("fig99").is_err());
}

#[test]
fn name_lookups_accept_every_spelling() {
    for name in ["sage", "graphsage", "GraphSAGE", "GRAPHSAGE", "Sage"] {
        assert_eq!(model_by_name(name), Some(ModelKind::GraphSage), "{name}");
    }
    assert_eq!(model_by_name("gcn"), Some(ModelKind::Gcn));
    assert_eq!(model_by_name("GCN"), Some(ModelKind::Gcn));
    assert_eq!(model_by_name("gat"), Some(ModelKind::Gat));
    assert_eq!(model_by_name("GAT"), Some(ModelKind::Gat));
    assert_eq!(model_by_name("mlp"), None);

    for (name, kind) in [
        ("gnndrive", SystemKind::GnnDriveGpu),
        ("gnndrive-gpu", SystemKind::GnnDriveGpu),
        ("gnndrive-cpu", SystemKind::GnnDriveCpu),
        ("pyg+", SystemKind::PygPlus),
        ("pygplus", SystemKind::PygPlus),
        ("ginex", SystemKind::Ginex),
        ("marius", SystemKind::Marius),
        ("mariusgnn", SystemKind::Marius),
    ] {
        assert_eq!(SystemKind::by_name(name), Some(kind), "{name}");
    }
    for kind in SystemKind::ALL {
        assert_eq!(
            SystemKind::by_name(kind.name()),
            Some(kind),
            "{}",
            kind.name()
        );
    }
    assert_eq!(SystemKind::by_name("dgl"), None);

    for (name, d) in [
        ("papers100m-mini", MiniDataset::Papers100M),
        ("twitter-mini", MiniDataset::Twitter),
        ("friendster-mini", MiniDataset::Friendster),
        ("mag240m-mini", MiniDataset::Mag240M),
    ] {
        assert_eq!(dataset_by_name(name), Some(d), "{name}");
    }
    assert_eq!(dataset_by_name("papers100m"), None);
}

#[test]
fn table1_runs_at_a_tiny_scale() {
    repro::table1(&EnvKnobs {
        scale: 0.02,
        max_batches: Some(1),
    });
}

#[test]
fn bad_command_lines_exit_2() {
    for bad in [
        &["repro", "fig99"][..],
        &["repro"][..],
        &["repro", "table1", "--check"][..],
        &["replay", "--out"][..],
        &["replay", "--epsilon", "0.1"][..],
        &["crashsim", "--bogus"][..],
        &["serving-mixed", "--slo", "1"][..],
        &["train", "--model", "mlp"][..],
        &["bogus"][..],
        &[][..],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_gnndrive"))
            .args(bad)
            .status()
            .expect("run gnndrive");
        assert_eq!(status.code(), Some(2), "{bad:?}");
    }
}
