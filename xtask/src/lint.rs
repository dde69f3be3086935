//! Concurrency & telemetry static analysis (`cargo xtask lint`).
//!
//! Six token-level rules over the shared source model ([`crate::model`]),
//! each encoding a workspace invariant (see DESIGN.md §8 "Concurrency
//! invariants" and §9 "Integrity & device health"):
//!
//! * **raw-lock** — no `std::sync` `Mutex`/`RwLock`/`Condvar` outside
//!   `crates/sync`; every lock must be a `gnndrive_sync::Ordered*`
//!   primitive carrying a `LockRank`.
//! * **relaxed-ordering** — every file using `Ordering::Relaxed` outside
//!   tests must be allowlisted in `xtask/lint-allow.toml` with a written
//!   justification; otherwise rewrite the site to Acquire/Release.
//! * **fallible-sync** — no `.unwrap()`/`.expect(..)` on lock/channel/join
//!   results in non-test library code; use a real error path.
//! * **metric-name** — metric names at `counter`/`gauge`/`histogram_ns`/
//!   `Scope::new` call sites follow the registry scheme:
//!   dot-separated segments of `[a-z0-9_]`, and names under a closed
//!   namespace are members of it.
//! * **recovery-abort** — the integrity/recovery paths (retry, fault
//!   injection, scrubbing, device health, checksum verification,
//!   checkpoint decode) may not abort the process: no `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`, `process::exit` or
//!   `process::abort` outside tests. A corrupted page or tripped breaker
//!   is a runtime condition these modules exist to survive; they must
//!   return typed errors.
//! * **stale-allow** — an `xtask/lint-allow.toml` entry whose file no
//!   longer uses `Ordering::Relaxed` (or no longer exists) fails the
//!   lint, so written justifications cannot outlive the code they
//!   justified.
//!
//! The rules match on the model's prepared text, so comments and string
//! literals never trip them, and `#[cfg(test)]` items and
//! `tests/`/`benches/`/`examples/` sources are exempt from the code rules.
//! Blocking while a guard is live is the interprocedural pass's rule
//! (`blocking-under-lock`, [`crate::deadlock`]).

use std::collections::HashSet;
use std::path::Path;

use crate::model::{self, is_ident, SourceFile};
use crate::Diagnostic;

/// One justified `Ordering::Relaxed` exemption.
#[derive(Debug, Clone)]
pub struct RelaxedEntry {
    /// Workspace-relative path allowed to use `Ordering::Relaxed`.
    pub path: String,
    pub reason: String,
    /// 1-based line of the `[[relaxed]]` header, for stale-allow
    /// diagnostics.
    pub line: usize,
}

/// Parsed `xtask/lint-allow.toml`.
#[derive(Debug, Default, Clone)]
pub struct Allowlist {
    pub relaxed: Vec<RelaxedEntry>,
}

impl Allowlist {
    pub fn allows_relaxed(&self, path: &str) -> bool {
        self.relaxed.iter().any(|e| e.path == path)
    }

    /// Minimal TOML-subset parser: `[[relaxed]]` tables with string keys
    /// `path` and `reason`. Anything else in the file is an error so the
    /// allowlist cannot silently rot.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut out = Allowlist::default();
        let mut cur: Option<(Option<String>, Option<String>, usize)> = None;
        let flush = |cur: &mut Option<(Option<String>, Option<String>, usize)>,
                     out: &mut Allowlist|
         -> Result<(), String> {
            if let Some((path, reason, line)) = cur.take() {
                let path = path.ok_or("[[relaxed]] entry missing `path`")?;
                let reason = reason.ok_or("[[relaxed]] entry missing `reason`")?;
                if reason.trim().len() < 10 {
                    return Err(format!(
                        "[[relaxed]] entry for {path}: `reason` must be a real justification"
                    ));
                }
                out.relaxed.push(RelaxedEntry { path, reason, line });
            }
            Ok(())
        };
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[relaxed]]" {
                flush(&mut cur, &mut out)?;
                cur = Some((None, None, no + 1));
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = \"value\"`", no + 1))?;
            let val = val.trim();
            let val = val
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: value must be a quoted string", no + 1))?;
            let entry = cur
                .as_mut()
                .ok_or_else(|| format!("line {}: key outside [[relaxed]] table", no + 1))?;
            match key.trim() {
                "path" => entry.0 = Some(val.to_string()),
                "reason" => entry.1 = Some(val.to_string()),
                other => return Err(format!("line {}: unknown key `{other}`", no + 1)),
            }
        }
        flush(&mut cur, &mut out)?;
        Ok(out)
    }
}

/// Lint every workspace source file.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let allow = match std::fs::read_to_string(root.join("xtask/lint-allow.toml")) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let mut diags = Vec::new();
    let mut relaxed_used: HashSet<String> = HashSet::new();
    for file in model::load_workspace(root)? {
        // An allowlist entry is "used" only when it actually suppresses a
        // would-be finding: non-test code in that file still says
        // `Ordering::Relaxed` outside `#[cfg(test)]`.
        if !file.class.is_test_file
            && allow.allows_relaxed(&file.path)
            && file.code.contains("Ordering::Relaxed")
        {
            relaxed_used.insert(file.path.clone());
        }
        diags.extend(lint_file(&file, &allow));
    }
    diags.extend(stale_allow_diags(&allow, &relaxed_used));
    Ok(diags)
}

/// Rule `stale-allow`: every `[[relaxed]]` entry must still suppress a
/// real `Ordering::Relaxed` use; dead entries fail the lint.
pub fn stale_allow_diags(allow: &Allowlist, used: &HashSet<String>) -> Vec<Diagnostic> {
    allow
        .relaxed
        .iter()
        .filter(|e| !used.contains(&e.path))
        .map(|e| Diagnostic {
            rule: "stale-allow",
            message: format!(
                "allowlist entry for `{}` matches no `Ordering::Relaxed` use",
                e.path
            ),
            path: "xtask/lint-allow.toml".to_string(),
            line: e.line,
            col: 1,
            snippet: format!("path = \"{}\"", e.path),
            help: format!(
                "the justified code no longer exists (or moved); delete the entry — \
                 stale justifications hide future regressions (recorded reason: {})",
                e.reason
            ),
            ..Diagnostic::default()
        })
        .collect()
}

/// Lint one prepared file.
pub fn lint_file(f: &SourceFile, allow: &Allowlist) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !f.class.is_sync_crate {
        rule_raw_lock(f, &mut diags);
    }
    if !f.class.is_test_file {
        if !allow.allows_relaxed(&f.path) {
            rule_relaxed_ordering(f, &mut diags);
        }
        rule_fallible_sync(f, &mut diags);
        if f.class.is_recovery_path {
            rule_recovery_abort(f, &mut diags);
        }
    }
    // Metric names are checked in tests too: test metrics pollute the
    // registry just the same.
    rule_metric_name(f, &mut diags);
    diags
}

/// A diagnostic at byte offset `idx` of `f` (offsets are the same in all
/// of the model's texts).
fn diag(f: &SourceFile, rule: &'static str, message: String, help: &str, idx: usize) -> Diagnostic {
    let before = &f.text[..idx];
    let line = before.matches('\n').count() + 1;
    let col = before.chars().rev().take_while(|&c| c != '\n').count() + 1;
    Diagnostic {
        rule,
        message,
        path: f.path.clone(),
        line,
        col,
        snippet: f.line(line).to_string(),
        help: help.to_string(),
        ..Diagnostic::default()
    }
}

/// Rule `raw-lock`: no raw `std::sync` lock construction or import.
fn rule_raw_lock(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const HELP: &str = "use gnndrive_sync::{OrderedMutex, OrderedRwLock, OrderedCondvar} \
                        with an explicit LockRank";
    let code = &f.code;
    for (idx, _) in code.match_indices("std::sync::") {
        let after = &code[idx + 11..];
        let flagged = ["Mutex", "RwLock", "Condvar"]
            .iter()
            .find(|t| {
                after.starts_with(**t)
                    && !after.as_bytes().get(t.len()).copied().is_some_and(is_ident)
            })
            .copied();
        let brace_hit = after.starts_with('{')
            && after[..after.find('}').map(|e| e + 1).unwrap_or(after.len())]
                .split(['{', '}', ','])
                .map(str::trim)
                .any(|t| t == "Mutex" || t == "RwLock" || t == "Condvar");
        if let Some(t) = flagged {
            let msg = format!("raw `std::sync::{t}` outside the sync wrapper crate");
            diags.push(diag(f, "raw-lock", msg, HELP, idx));
        } else if brace_hit {
            let msg = "raw `std::sync` lock import outside the sync wrapper crate".into();
            diags.push(diag(f, "raw-lock", msg, HELP, idx));
        }
    }
}

/// Rule `relaxed-ordering`: `Ordering::Relaxed` requires an allowlist entry.
fn rule_relaxed_ordering(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    for (idx, _) in f.code.match_indices("Ordering::Relaxed") {
        diags.push(diag(
            f,
            "relaxed-ordering",
            "`Ordering::Relaxed` without an allowlist justification".into(),
            "either rewrite the site to Acquire/Release (required for flags and \
             admission counters other threads act on) or add a [[relaxed]] entry \
             with a `reason` to xtask/lint-allow.toml",
            idx,
        ));
    }
}

/// Rule `fallible-sync`: `.unwrap()`/`.expect(..)` on lock/channel/join.
fn rule_fallible_sync(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const METHODS: [&str; 8] = [
        "lock",
        "try_lock",
        "join",
        "send",
        "try_send",
        "recv",
        "try_recv",
        "recv_timeout",
    ];
    let code = &f.code;
    let bytes = code.as_bytes();
    let mut hits: Vec<usize> = Vec::new();
    for pat in [".unwrap", ".expect"] {
        hits.extend(code.match_indices(pat).map(|(i, _)| i));
    }
    hits.sort_unstable();
    for dot in hits {
        // Must actually be a call (`.unwrap` and `.expect` are both 7 bytes).
        let after = dot + 7;
        if bytes.get(after) != Some(&b'(') {
            continue;
        }
        // Scan backwards over the receiver: optional `)`-balanced args.
        let mut i = dot;
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        if i == 0 {
            continue;
        }
        if bytes[i - 1] == b')' {
            let mut bal = 0i32;
            while i > 0 {
                match bytes[i - 1] {
                    b')' => bal += 1,
                    b'(' => {
                        bal -= 1;
                        if bal == 0 {
                            i -= 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i -= 1;
            }
        } else {
            continue; // field access / macro — not a call result
        }
        while i > 0 && (bytes[i - 1] as char).is_whitespace() {
            i -= 1;
        }
        let end = i;
        while i > 0 && is_ident(bytes[i - 1]) {
            i -= 1;
        }
        let method = &code[i..end];
        let preceded_by_dot = i > 0 && {
            let mut j = i;
            while j > 0 && (bytes[j - 1] as char).is_whitespace() {
                j -= 1;
            }
            j > 0 && bytes[j - 1] == b'.'
        };
        if preceded_by_dot && METHODS.contains(&method) {
            diags.push(diag(
                f,
                "fallible-sync",
                format!("`.{method}(..)` result unwrapped in library code"),
                "propagate the failure (return an error, record it, or break the \
                 loop); a poisoned channel or dead peer thread is a runtime \
                 condition, not a bug",
                dot,
            ));
        }
    }
}

/// Rule `recovery-abort`: no process-aborting construct in the
/// integrity/recovery modules. These files are the error path — a
/// `panic!` there turns a survivable corrupted sector into a dead
/// trainer.
fn rule_recovery_abort(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const ABORTS: [&str; 6] = [
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "process::exit",
        "process::abort",
    ];
    const HELP: &str = "recovery paths must return a typed error (IntegrityError, \
                        CheckpointError, IoError) or degrade via DeviceHealth; \
                        aborting defeats the quarantine/retry machinery";
    let bytes = f.code.as_bytes();
    for pat in ABORTS {
        for (idx, _) in f.code.match_indices(pat) {
            // `my_panic!` or `reprocess::exit`-style identifiers are fine.
            if idx > 0 && is_ident(bytes[idx - 1]) {
                continue;
            }
            let msg = format!("`{pat}` in a recovery-path module");
            diags.push(diag(f, "recovery-abort", msg, HELP, idx));
        }
    }
}

/// Rule `metric-name`: registry names are dot-separated `[a-z0-9_]`.
fn rule_metric_name(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    const SITES: [&str; 7] = [
        "counter(",
        "gauge(",
        "histogram_ns(",
        "Scope::new(",
        "span(",
        "span_cat(",
        "record_span(",
    ];
    // Trace-span openers: the first literal is the stage name, and the
    // second literal (explicit-category variants only) must come from the
    // closed category set below.
    const CATEGORIZED_SITES: [&str; 2] = ["span_cat(", "record_span("];
    let stripped = &f.stripped;
    let bytes = stripped.as_bytes();
    for site in SITES {
        for (idx, _) in stripped.match_indices(site) {
            // Skip definitions (`fn counter(`) and longer identifiers.
            if idx > 0 && (is_ident(bytes[idx - 1]) || bytes[idx - 1] == b'.') {
                continue;
            }
            if stripped[..idx].trim_end().ends_with("fn") {
                continue;
            }
            let rest = f.text[idx + site.len()..].trim_start();
            let Some(lit) = rest.strip_prefix('"') else {
                continue; // dynamic name — checked at the construction site
            };
            let Some(close) = lit.find('"') else {
                continue;
            };
            let name = &lit[..close];
            if !valid_metric_name(name) {
                diags.push(diag(
                    f,
                    "metric-name",
                    format!("metric name \"{name}\" violates the registry scheme"),
                    "names are dot-separated segments of [a-z0-9_], subsystem \
                     first (e.g. `ssd.read_bytes`, `pipeline.extract_queue.depth`)",
                    idx,
                ));
            } else if let Some(hint) = closed_set_violation(name) {
                let msg = format!("metric name \"{name}\" is not in its closed namespace set");
                diags.push(diag(f, "metric-name", msg, hint, idx));
            }
            if CATEGORIZED_SITES.contains(&site) {
                if let Some(cat) = second_string_literal(&lit[close + 1..]) {
                    if !SPAN_CATEGORIES.contains(&cat) {
                        diags.push(diag(
                            f,
                            "metric-name",
                            format!("span category \"{cat}\" is not a known category"),
                            "trace categories are a closed set (see \
                             telemetry::span_cat and DESIGN.md §10): pipeline, \
                             verdict — extend SPAN_CATEGORIES in xtask when \
                             adding one",
                            idx,
                        ));
                    }
                }
            }
        }
    }
}

/// Closed trace-category set (`telemetry::span_cat` second argument).
const SPAN_CATEGORIES: [&str; 2] = ["pipeline", "verdict"];

/// Closed metric namespaces as `(prefix, members, hint)`. A well-formed
/// name under a prefix that is not a member is almost always a typo that
/// would silently split a time series. The longest matching prefix
/// decides, so the lane split is checked before `storage.queue.`. Add a
/// member here together with its emitter and the DESIGN.md table the hint
/// names.
const CLOSED_NAMESPACES: [(&str, &[&str], &str); 8] = [
    (
        "core.attr.",
        &[
            "mem_admission",
            "staging_wait",
            "slot_wait",
            "ring_wait",
            "sync_read_wait",
            "transfer_wait",
            "ready_wait",
            "page_fault_wait",
            "other",
        ],
        "`core.attr.*` is the closed attribution taxonomy, one histogram per \
         `WaitKind` plus the residual (DESIGN.md §10); extend CLOSED_NAMESPACES \
         in xtask and WaitKind in gnndrive-telemetry together",
    ),
    (
        "storage.queue.",
        &["wait_ns", "service_ns"],
        "`storage.queue.*` is the closed SimSsd queue/service split; extend \
         CLOSED_NAMESPACES in xtask alongside the stats counters",
    ),
    (
        "storage.queue.lane.",
        &["serve_ops", "bulk_ops", "serve_wait_ns", "bulk_wait_ns"],
        "`storage.queue.lane.*` is the closed QoS lane split (DESIGN.md §11); \
         extend CLOSED_NAMESPACES in xtask alongside the stats counters",
    ),
    (
        "storage.cache.policy.",
        &[
            "lru.evictions",
            "belady.evictions",
            "belady.lru_fallbacks",
            "belady.off_trace_accesses",
        ],
        "`storage.cache.policy.*` is the closed replacement-policy namespace \
         (DESIGN.md §13); extend CLOSED_NAMESPACES in xtask alongside the \
         EvictionPolicy impl's counters",
    ),
    (
        "storage.trace.",
        &["recorded", "saved", "loaded"],
        "`storage.trace.*` is the closed access-trace lifecycle set \
         (DESIGN.md §13); extend CLOSED_NAMESPACES in xtask alongside the \
         AccessTrace/PageCache counters",
    ),
    (
        "storage.wcache.",
        &[
            "sectors_dirtied",
            "flushes",
            "sectors_flushed",
            "power_cuts",
            "sectors_kept",
            "sectors_dropped",
            "sectors_torn",
        ],
        "`storage.wcache.*` is the closed write-back cache set (DESIGN.md \
         §14); extend CLOSED_NAMESPACES in xtask alongside the \
         WcacheCounters struct",
    ),
    (
        "storage.crash.",
        &["points", "cuts", "recoveries"],
        "`storage.crash.*` is the closed crash-registry set (DESIGN.md §14); \
         extend CLOSED_NAMESPACES in xtask alongside the registry counters",
    ),
    (
        "serve.",
        &[
            "requests",
            "rejected",
            "completed",
            "failed",
            "batches",
            "slo_violations",
            "latency",
            "queue_wait",
            "service",
            "queue.depth",
        ],
        "`serve.*` is the serving tier's closed namespace; extend \
         CLOSED_NAMESPACES in xtask alongside the Server counters and the \
         DESIGN.md §11 table",
    ),
];

/// The hint of the closed namespace `name` falls under but is not a
/// member of, by longest matching prefix.
fn closed_set_violation(name: &str) -> Option<&'static str> {
    let (prefix, members, hint) = CLOSED_NAMESPACES
        .iter()
        .filter(|(p, ..)| name.starts_with(p))
        .max_by_key(|(p, ..)| p.len())?;
    (!members.contains(&&name[prefix.len()..])).then_some(*hint)
}

/// The next `"…"` literal after a comma in `rest` (the tail following the
/// first literal's closing quote), if the very next token is one.
fn second_string_literal(rest: &str) -> Option<&str> {
    let rest = rest.trim_start().strip_prefix(',')?;
    let lit = rest.trim_start().strip_prefix('"')?;
    lit.find('"').map(|close| &lit[..close])
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(path: &str, src: &str) -> Vec<Diagnostic> {
        lint_file(&SourceFile::new(path, src), &Allowlist::default())
    }

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_at("crates/demo/src/lib.rs", src)
    }

    fn rules(src: &str) -> Vec<&'static str> {
        lint(src).into_iter().map(|d| d.rule).collect()
    }

    // -- rule a: raw-lock ------------------------------------------------

    #[test]
    fn raw_std_mutex_construction_is_flagged() {
        let src = "fn f() { let m = std::sync::Mutex::new(0); }\n";
        assert_eq!(rules(src), vec!["raw-lock"]);
    }

    #[test]
    fn raw_std_sync_lock_and_import_are_flagged() {
        let src = "use std::sync::{Arc, Mutex};\nfn f() { let c = std::sync::Condvar::new(); }\n";
        let got = rules(src);
        assert_eq!(got, vec!["raw-lock", "raw-lock"]);
    }

    #[test]
    fn sync_crate_and_atomics_are_exempt() {
        let src = "use std::sync::Mutex;\nuse std::sync::{Condvar, RwLock};\n";
        assert!(lint_at("crates/sync/src/lib.rs", src).is_empty());
        // std::sync::Arc and atomics never trip the rule.
        assert!(rules("use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n").is_empty());
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = "// std::sync::RwLock is forbidden\nfn f() { let s = \"std::sync::Mutex\"; }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn brace_less_cfg_test_item_hides_no_following_code() {
        // `#[cfg(test)] use x;` has no body: the next `fn` is shipped code.
        let src = "#[cfg(test)]\nuse x;\nfn real() { let m = std::sync::Mutex::new(0); }\n";
        assert_eq!(rules(src), vec!["raw-lock"]);
    }

    // -- rule b: relaxed-ordering ----------------------------------------

    #[test]
    fn unallowlisted_relaxed_is_flagged_and_allowlisted_is_not() {
        let src = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert_eq!(rules(src), vec!["relaxed-ordering"]);
        let allow = Allowlist {
            relaxed: vec![RelaxedEntry {
                path: "crates/demo/src/lib.rs".into(),
                reason: "monotonic counter read for reporting only".into(),
                line: 1,
            }],
        };
        let file = SourceFile::new("crates/demo/src/lib.rs", src);
        assert!(lint_file(&file, &allow).is_empty());
    }

    #[test]
    fn relaxed_inside_cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicU64) { \
                   c.load(Ordering::Relaxed); }\n}\n";
        assert!(rules(src).is_empty());
    }

    // -- rule c: fallible-sync -------------------------------------------

    #[test]
    fn unwrapped_channel_and_join_results_are_flagged() {
        let src = "fn f() {\n    rx.recv().expect(\"alive\");\n    h.join().unwrap();\n    \
                   tx.send(x).unwrap();\n}\n";
        assert_eq!(
            rules(src),
            vec!["fallible-sync", "fallible-sync", "fallible-sync"]
        );
    }

    #[test]
    fn unwrap_on_non_sync_methods_is_fine() {
        let src = "fn f() {\n    map.remove(&k).expect(\"known\");\n    \
                   std::thread::Builder::new().spawn(f).expect(\"spawn worker\");\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn test_files_and_test_modules_are_exempt_from_fallible_sync() {
        let src = "fn f() { h.join().unwrap(); }\n";
        assert!(lint_at("crates/demo/tests/t.rs", src).is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n    fn f() { h.join().unwrap(); }\n}\n";
        assert!(rules(in_mod).is_empty());
    }

    // -- rule d: metric-name ---------------------------------------------

    #[test]
    fn bad_metric_names_are_flagged() {
        for bad in [
            "telemetry::counter(\"Ssd.ReadBytes\")",
            "telemetry::gauge(\"pipeline..depth\")",
            "telemetry::histogram_ns(\"pipeline-extract\")",
            "Scope::new(\"Epoch 3\")",
        ] {
            let src = format!("fn f() {{ {bad}; }}\n");
            assert_eq!(rules(&src), vec!["metric-name"], "for {bad}");
        }
    }

    #[test]
    fn good_metric_names_and_dynamic_names_pass() {
        let src = "fn f() {\n    telemetry::counter(\"ssd.read_bytes\");\n    \
                   telemetry::gauge(\"feature_buffer.standby_slots\");\n    \
                   telemetry::counter(name);\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn metric_definition_sites_are_not_call_sites() {
        let src = "pub fn counter(name: &str) -> Counter { todo!() }\n\
                   pub fn span_cat(stage: &str, cat: &str) -> SpanGuard { todo!() }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn span_stage_names_follow_the_registry_scheme() {
        let src = "fn f() { let _s = telemetry::span(\"Extract Phase\", 3); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() {\n    let _s = telemetry::span(\"transfer\", 3);\n    \
                   telemetry::record_span(\"memory_contention_bound\", \"verdict\", 0, t, d);\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn unknown_span_categories_are_flagged() {
        let src = "fn f() { let _s = telemetry::span_cat(\"extract\", \"gpu\", 3); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() { let _s = telemetry::span_cat(\"extract\", \"pipeline\", 3); }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn closed_namespaces_accept_every_member_and_reject_typos() {
        // One well-formed typo per namespace; each must be reported with
        // its own namespace's hint (the lane typo proves longest-prefix).
        let typos = [
            "core.attr.slotwait",
            "storage.queue.depth_ns",
            "storage.queue.lane.srv_ops",
            "storage.cache.policy.lru.eviction",
            "storage.trace.record",
            "storage.wcache.sectors_teared",
            "storage.crash.recovered",
            "serve.request",
        ];
        for ((prefix, members, _), typo) in CLOSED_NAMESPACES.iter().zip(typos) {
            for m in *members {
                let src = format!("fn f() {{ telemetry::counter(\"{prefix}{m}\"); }}\n");
                assert!(rules(&src).is_empty(), "member {prefix}{m} rejected");
            }
            let src = format!("fn f() {{ telemetry::counter(\"{typo}\"); }}\n");
            let diags = lint(&src);
            assert_eq!(diags.len(), 1, "typo {typo} accepted");
            assert!(diags[0].help.starts_with(&format!("`{prefix}*`")), "{typo}");
        }
    }

    // -- rule e: recovery-abort -------------------------------------------

    fn lint_recovery(src: &str) -> Vec<Diagnostic> {
        lint_at("crates/storage/src/retry.rs", src)
    }

    #[test]
    fn aborts_in_recovery_path_files_are_flagged() {
        let src = "fn f(x: u8) {\n    if x > 3 { panic!(\"bad sector\"); }\n    \
                   match x { 0 => std::process::exit(1), _ => unreachable!() }\n}\n";
        let got: Vec<&'static str> = lint_recovery(src).into_iter().map(|d| d.rule).collect();
        assert_eq!(
            got,
            vec!["recovery-abort", "recovery-abort", "recovery-abort"]
        );
    }

    #[test]
    fn recovery_path_files_are_classified_from_their_path() {
        let class = model::FileClass::of;
        assert!(class("crates/storage/src/health.rs").is_recovery_path);
        assert!(class("crates/storage/src/wcache.rs").is_recovery_path);
        assert!(class("crates/core/src/checkpoint.rs").is_recovery_path);
        assert!(class("crates/telemetry/src/crash.rs").is_recovery_path);
        assert!(class("crates/telemetry/src/persist.rs").is_recovery_path);
        assert!(!class("crates/core/src/pipeline.rs").is_recovery_path);
    }

    #[test]
    fn aborts_outside_recovery_paths_or_in_tests_are_exempt() {
        // Same source, non-recovery file class: no diagnostic.
        let src = "fn f() { panic!(\"boom\"); }\n";
        assert!(rules(src).is_empty());
        // Inside a #[cfg(test)] module of a recovery file: also fine.
        let in_mod = "#[cfg(test)]\nmod tests {\n    fn f() { panic!(\"boom\"); }\n}\n";
        assert!(lint_recovery(in_mod).is_empty());
        // Prose and identifiers never trip the rule.
        let benign = "// a panic! here would be fatal\nfn f() { my_panic!(); }\n";
        assert!(lint_recovery(benign).is_empty());
    }

    // -- allowlist parsing ------------------------------------------------

    #[test]
    fn allowlist_parses_and_rejects_junk() {
        let good = "# comment\n[[relaxed]]\npath = \"crates/a/src/x.rs\"\n\
                    reason = \"per-thread counters aggregated at snapshot\"\n";
        let a = Allowlist::parse(good).unwrap();
        assert!(a.allows_relaxed("crates/a/src/x.rs"));
        assert!(
            Allowlist::parse("[[relaxed]]\npath = \"x\"\n").is_err(),
            "missing reason"
        );
        assert!(
            Allowlist::parse("[[relaxed]]\npath = \"x\"\nreason = \"short\"\n").is_err(),
            "reason too short"
        );
        assert!(
            Allowlist::parse("path = \"x\"\n").is_err(),
            "key outside table"
        );
    }

    // -- rule f: stale-allow ---------------------------------------------

    #[test]
    fn unused_allowlist_entries_are_flagged_with_their_line() {
        let allow = Allowlist::parse(
            "# header comment\n[[relaxed]]\npath = \"crates/live/src/hot.rs\"\n\
             reason = \"per-thread counters aggregated at snapshot\"\n\n\
             [[relaxed]]\npath = \"crates/gone/src/old.rs\"\n\
             reason = \"file was deleted, this entry must go stale\"\n",
        )
        .unwrap();
        let mut used = HashSet::new();
        used.insert("crates/live/src/hot.rs".to_string());
        let diags = stale_allow_diags(&allow, &used);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "stale-allow");
        assert_eq!(diags[0].path, "xtask/lint-allow.toml");
        assert_eq!(diags[0].line, 6, "anchors at the [[relaxed]] header");
        assert!(diags[0].message.contains("crates/gone/src/old.rs"));
    }

    #[test]
    fn used_allowlist_entries_are_not_stale() {
        let allow = Allowlist::parse(
            "[[relaxed]]\npath = \"crates/live/src/hot.rs\"\n\
             reason = \"per-thread counters aggregated at snapshot\"\n",
        )
        .unwrap();
        let mut used = HashSet::new();
        used.insert("crates/live/src/hot.rs".to_string());
        assert!(stale_allow_diags(&allow, &used).is_empty());
    }

    // -- diagnostics format ----------------------------------------------

    #[test]
    fn diagnostics_carry_position_and_snippet() {
        let src = "fn f() {\n    let m = std::sync::Mutex::new(0);\n}\n";
        let d = &lint(src)[0];
        assert_eq!(d.line, 2);
        assert!(d.snippet.contains("std::sync::Mutex::new"));
        let rendered = d.to_string();
        assert!(rendered.contains("error[raw-lock]"));
        assert!(rendered.contains("crates/demo/src/lib.rs:2:"));

        // Past line 99 the gutter shows the real line number, widened.
        let src = "\n".repeat(1233) + "fn f() { let m = std::sync::Mutex::new(0); }\n";
        let d = &lint(&src)[0];
        assert_eq!(d.line, 1234);
        let rendered = d.to_string();
        assert!(
            rendered.contains("\n1234 | fn f()"),
            "gutter must print line 1234:\n{rendered}"
        );
        assert!(rendered.contains("\n     |\n"), "{rendered}");
    }
}
