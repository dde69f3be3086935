//! Workspace automation: one static analyzer with two subcommands.
//!
//! ```text
//! cargo xtask lint
//! cargo xtask deadlock [--dot PATH|-] [--json PATH|-]
//! ```
//!
//! Both run over one per-file source model ([`model`]): a single walker
//! reads and classifies every workspace source and prepares its
//! comment-stripped, test-blanked text once. `lint` runs the token-level
//! concurrency/telemetry rules over it (see [`lint`]); `deadlock` runs the
//! interprocedural tier (see [`deadlock`]): it extracts functions, locks
//! and types, builds a receiver-typed call graph, derives the static
//! lock-order graph, checks it for cycles and for consistency with the
//! `LockRank` lattice in `crates/sync`, and reports any blocking
//! operation reachable while a guard is live, with full call chains.
//! `--dot` / `--json` export the graph and findings (`-` writes to
//! stdout). Both report through one [`Diagnostic`] type and exit non-zero
//! when any fires; CI runs them as gates. DESIGN.md §8 documents the lint
//! policy, §12 the deadlock analyzer.

mod callgraph;
mod deadlock;
mod lint;
mod model;

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;

/// One step of an interprocedural witness.
#[derive(Debug, Clone)]
pub struct ChainStep {
    pub path: String,
    pub line: usize,
    pub note: String,
}

/// One finding of either analysis, displayed rustc-style.
#[derive(Debug, Clone, Default)]
pub struct Diagnostic {
    /// Stable rule id, e.g. `raw-lock` or `lock-order-inversion`.
    pub rule: &'static str,
    pub message: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based.
    pub line: usize,
    /// 1-based column of the offending token; 0 when the finding anchors
    /// to a whole line.
    pub col: usize,
    /// Qualified function the finding anchors to; empty for file rules.
    pub function: String,
    /// The offending source line, verbatim.
    pub snippet: String,
    /// Interprocedural witness, outermost frame first.
    pub chain: Vec<ChainStep>,
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The gutter widens with the line number, as rustc's does.
        let w = self.line.to_string().len().max(2);
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        write!(f, "{:w$}--> {}:{}", "", self.path, self.line)?;
        if self.col > 0 {
            write!(f, ":{}", self.col)?;
        }
        if !self.function.is_empty() {
            write!(f, " (in `{}`)", self.function)?;
        }
        writeln!(f)?;
        if !self.snippet.is_empty() {
            writeln!(f, "{:w$} |", "")?;
            writeln!(f, "{:>w$} | {}", self.line, self.snippet)?;
            writeln!(f, "{:w$} |", "")?;
        }
        for (i, s) in self.chain.iter().enumerate() {
            let (n, path, line, note) = (i + 1, &s.path, s.line, &s.note);
            writeln!(f, "{:w$} = note[{n}]: {path}:{line}: {note}", "")?;
        }
        writeln!(f, "{:w$} = help: {}", "", self.help)
    }
}

fn workspace_root() -> PathBuf {
    // cargo sets this for `cargo xtask ...`; fall back to cwd for direct
    // invocation of the binary.
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(|d| {
            let p = PathBuf::from(d);
            p.parent().map(|p| p.to_path_buf()).unwrap_or(p)
        })
        .unwrap_or_else(|| PathBuf::from("."))
}

fn usage() -> ExitCode {
    eprintln!("usage: cargo xtask lint");
    eprintln!("       cargo xtask deadlock [--dot PATH|-] [--json PATH|-]");
    ExitCode::FAILURE
}

fn write_artifact(what: &str, target: &str, content: &str) -> Result<(), String> {
    if target == "-" {
        print!("{content}");
        Ok(())
    } else {
        std::fs::write(target, content).map_err(|e| format!("cannot write {what} {target}: {e}"))
    }
}

/// Print the diagnostics and turn them into the exit code.
fn report(cmd: &str, diags: &[Diagnostic]) -> ExitCode {
    for d in diags {
        print!("{d}");
    }
    if diags.is_empty() {
        eprintln!("{cmd}: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("{cmd}: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn cmd_lint() -> ExitCode {
    match lint::run(&workspace_root()) {
        Ok(diags) => report("lint", &diags),
        Err(e) => {
            eprintln!("error: lint failed to run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_deadlock(args: &[String]) -> ExitCode {
    let mut dot: Option<String> = None;
    let mut json: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dot" => match it.next() {
                Some(p) => dot = Some(p.clone()),
                None => return usage(),
            },
            "--json" => match it.next() {
                Some(p) => json = Some(p.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let analysis = match deadlock::run(&workspace_root()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: deadlock analysis failed to run: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(target) = dot {
        if let Err(e) = write_artifact("dot artifact", &target, &deadlock::to_dot(&analysis)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(target) = json {
        if let Err(e) = write_artifact("json artifact", &target, &deadlock::to_json(&analysis)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let s = &analysis.stats;
    eprintln!(
        "deadlock: {} file(s), {} fn(s), {} lock(s), {} lock-order edge(s), \
         {}/{} call site(s) resolved",
        s.files, s.functions, s.locks, s.lock_order_edges, s.resolved_call_sites, s.call_sites
    );
    report("deadlock", &analysis.findings)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") if args.len() == 1 => cmd_lint(),
        Some("deadlock") => cmd_deadlock(&args[1..]),
        _ => usage(),
    }
}
