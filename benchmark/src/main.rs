//! Hermetic benchmark of the GNNDrive reproduction. See README.md.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! benchmark run [--trace] [--seed N] [--seconds S] [--only W]
//! benchmark aa  [--seed N] [--seconds S] [--only W]
//! benchmark --list
//! benchmark manifest                                        print BENCHMARK.json
//! ```

mod metrics;
mod openloop;
mod procstat;
mod replay;
mod run;
mod spans;
mod stack;
mod stats;
mod suite;
mod workloads;

use gnndrive::telemetry::Json;
use metrics::RUN_SECONDS;
use std::path::PathBuf;
use std::process::ExitCode;

/// Write a report or trace into `benchmark/out/` (git-ignored) and return
/// where it went.
fn write_out(file: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(file);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--flag value` pairs and bare words, in order of appearance.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// `valued` lists the flags that take a value.
    fn parse(raw: impl Iterator<Item = String>, valued: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.words.push(a);
            } else if a == "--trace" {
                // The driver spells it `--trace 0|1`; `run --trace` is a
                // bare switch.
                let v = raw.next_if(|n| n == "0" || n == "1");
                args.flags.push((a, Some(v.unwrap_or_else(|| "1".into()))));
            } else if valued.contains(&a.as_str()) {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a, Some(v)));
            } else {
                args.flags.push((a, None));
            }
        }
        Ok(args)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: {v:?} is not a whole number")),
        }
    }
}

const VALUED: [&str; 4] = ["--workload", "--seed", "--seconds", "--only"];
const KNOWN: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--only",
    "--list",
];

/// One workload in this process; the result line is the last line printed.
fn single(args: &Args) -> Result<bool, String> {
    let name = args.value("--workload").expect("checked by caller");
    let w =
        workloads::find(name).ok_or_else(|| format!("unknown workload {name:?}; try --list"))?;
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let trace = args.value("--trace") == Some("1");
    let result = run::run_workload(w, seed, seconds as f64, trace);

    println!(
        "{} seed {seed} {seconds} s {}",
        w.name,
        if trace { "traced" } else { "untraced" }
    );
    let mut metrics = Json::obj();
    for ((name, value), (_, unit)) in result.metrics.iter().zip(metrics::catalog(trace)) {
        println!("  {name:<38} {value:>16.4} {unit}");
        let mut m = Json::obj();
        m.set("value", Json::Num(*value))
            .set("unit", (*unit).into());
        metrics.set(name, m);
    }
    println!("  attempted {} failed {}", result.attempted, result.failed);
    for n in &result.notes {
        println!("  note: {n}");
    }
    for v in &result.violations {
        eprintln!("OUTPUT CHECK FAILED [{}]: {v}", w.name);
    }
    let mut line = Json::obj();
    line.set("correct", Json::Bool(result.correct))
        .set("attempted", result.attempted.into())
        .set("failed", result.failed.into())
        .set("metrics", metrics);
    println!("{}", line.to_json_string());
    Ok(result.correct)
}

fn dispatch() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1), &VALUED)?;
    if let Some((bad, _)) = args
        .flags
        .iter()
        .find(|(f, _)| !KNOWN.contains(&f.as_str()))
    {
        return Err(format!("unknown option {bad}"));
    }
    if args.has("--list") {
        print!("{}", suite::list());
        return Ok(true);
    }
    if args.has("--workload") {
        return single(&args);
    }
    let seed = args.number("--seed", 1)?;
    let seconds = args.number("--seconds", RUN_SECONDS)?;
    let only = args.value("--only");
    match args.words.first().map(String::as_str) {
        Some("run") => suite::run_suite(seed, seconds, args.value("--trace") == Some("1"), only).map(|()| true),
        Some("aa") => suite::run_aa(seed, seconds, only).map(|()| true),
        Some("manifest") => {
            print!("{}", metrics::pretty(&metrics::manifest()));
            Ok(true)
        }
        _ => Err("usage: benchmark (--workload W --seed N --seconds S --trace 0|1 | run [--trace] | aa | manifest | --list) [--seed N] [--seconds S] [--only W]".into()),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from), &VALUED)
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse("--workload io_bound --seed 7 --seconds 15 --trace 1").expect("parses");
        assert_eq!(a.value("--workload"), Some("io_bound"));
        assert_eq!(a.number("--seed", 1), Ok(7));
        assert_eq!(a.number("--seconds", 9), Ok(15));
        assert_eq!(a.value("--trace"), Some("1"));
        assert!(a.words.is_empty());
    }

    #[test]
    fn subcommands_flags_and_errors() {
        let a = parse("run --trace --only mem_tight").expect("parses");
        assert_eq!(a.words, ["run"]);
        // `run --trace` is a switch; only a following 0 or 1 is its value.
        assert_eq!(a.value("--trace"), Some("1"));
        assert_eq!(a.value("--only"), Some("mem_tight"));
        assert_eq!(
            parse("run --trace 0").expect("parses").value("--trace"),
            Some("0")
        );
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x")
            .expect("parses")
            .number("--seed", 1)
            .is_err());
        assert_eq!(parse("aa").expect("parses").number("--seed", 3), Ok(3));
    }
}
