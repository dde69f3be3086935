//! Concurrency & telemetry static analysis (`cargo xtask lint`).
//!
//! Seven rules, each encoding a workspace concurrency invariant (see
//! DESIGN.md §8 "Concurrency invariants" and §9 "Integrity & device
//! health"):
//!
//! * **raw-lock** — no `std::sync` `Mutex`/`RwLock`/`Condvar` outside
//!   `crates/sync`; every lock must be a `gnndrive_sync::Ordered*`
//!   primitive carrying a [`LockRank`].
//! * **blocking-under-lock** — no `std::thread::sleep` and no blocking SSD
//!   call (`read_blocking`/`write_blocking`) while a lock guard bound by a
//!   `let` is live in the enclosing scope.
//! * **relaxed-ordering** — every file using `Ordering::Relaxed` outside
//!   tests must be allowlisted in `xtask/lint-allow.toml` with a written
//!   justification; otherwise rewrite the site to Acquire/Release.
//! * **fallible-sync** — no `.unwrap()`/`.expect(..)` on lock/channel/join
//!   results in non-test library code; use a real error path.
//! * **metric-name** — metric names at `counter`/`gauge`/`histogram_ns`/
//!   `Scope::new` call sites follow the registry scheme:
//!   dot-separated segments of `[a-z0-9_]`.
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
//!   justified. The deadlock analyzer applies the same policy to
//!   `xtask/deadlock-allow.toml`.
//!
//! The pass is a token-level scanner, not a full parser: comments and
//! string literals are blanked before matching (so prose never trips a
//! rule), `#[cfg(test)]` modules and `tests/`/`benches/`/`examples/`
//! sources are exempt from the code rules, and the guard-liveness rule
//! tracks `let` bindings per brace depth. That makes it deliberately
//! conservative: it can miss exotic constructions, but anything it flags
//! is real.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding, displayed rustc-style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule id, e.g. `raw-lock`.
    pub rule: &'static str,
    pub message: String,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The offending source line, verbatim.
    pub snippet: String,
    pub help: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(f, "  --> {}:{}:{}", self.path, self.line, self.col)?;
        writeln!(f, "   |")?;
        writeln!(f, "{:>2} | {}", self.line % 100, self.snippet)?;
        writeln!(f, "   |")?;
        writeln!(f, "   = help: {}", self.help)
    }
}

/// How the rules apply to one file.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// `tests/`, `benches/`, `examples/` or a bin under `src/bin` used
    /// only as a harness: exempt from blocking/relaxed/fallible rules.
    pub is_test_file: bool,
    /// `crates/sync` itself may construct raw `std::sync` primitives.
    pub is_sync_crate: bool,
    /// Library source on an integrity/recovery path (retry, scrub,
    /// health, checkpoint decode): the `recovery-abort` rule applies.
    pub is_recovery_path: bool,
}

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

/// Walk the workspace and lint every source file.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let allow_path = root.join("xtask/lint-allow.toml");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };

    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    collect_rs_files(&root.join("tests"), &mut files);
    files.sort();

    let mut diags = Vec::new();
    let mut relaxed_used: std::collections::HashSet<String> = std::collections::HashSet::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let class = classify(&rel);
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("cannot read {rel}: {e}"))?;
        // An allowlist entry is "used" only when it actually suppresses a
        // would-be finding: non-test code in that file still says
        // `Ordering::Relaxed` outside `#[cfg(test)]`.
        if !class.is_test_file
            && allow.allows_relaxed(&rel)
            && blank_test_modules(&strip_comments_and_strings(&source))
                .contains("Ordering::Relaxed")
        {
            relaxed_used.insert(rel.clone());
        }
        diags.extend(lint_source(&rel, &source, class, &allow));
    }
    diags.extend(stale_allow_diags(&allow, &relaxed_used));
    Ok(diags)
}

/// Rule `stale-allow`: every `[[relaxed]]` entry must still suppress a
/// real `Ordering::Relaxed` use; dead entries fail the lint.
pub fn stale_allow_diags(
    allow: &Allowlist,
    used: &std::collections::HashSet<String>,
) -> Vec<Diagnostic> {
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
        })
        .collect()
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Files whose whole purpose is surviving faults: they must degrade or
/// return typed errors, never abort the process (`recovery-abort`).
const RECOVERY_PATHS: [&str; 9] = [
    "crates/storage/src/retry.rs",
    "crates/storage/src/fault.rs",
    "crates/storage/src/integrity.rs",
    "crates/storage/src/scrub.rs",
    "crates/storage/src/health.rs",
    "crates/storage/src/wcache.rs",
    "crates/core/src/checkpoint.rs",
    "crates/telemetry/src/crash.rs",
    "crates/telemetry/src/persist.rs",
];

fn classify(rel: &str) -> FileClass {
    FileClass {
        is_test_file: rel.contains("/tests/")
            || rel.starts_with("tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/"),
        is_sync_crate: rel.starts_with("crates/sync/"),
        is_recovery_path: RECOVERY_PATHS.contains(&rel),
    }
}

/// Lint one file. Exposed for the self-tests, which feed seeded sources.
pub fn lint_source(
    path: &str,
    source: &str,
    class: FileClass,
    allow: &Allowlist,
) -> Vec<Diagnostic> {
    let stripped = strip_comments_and_strings(source);
    // Code rules ignore `#[cfg(test)]` modules; the metric-name rule runs
    // everywhere (test metrics pollute the registry just the same).
    let code = blank_test_modules(&stripped);
    let lines: Vec<&str> = source.lines().collect();

    let mut diags = Vec::new();
    if !class.is_sync_crate {
        rule_raw_lock(path, &code, &lines, &mut diags);
    }
    if !class.is_test_file {
        rule_blocking_under_lock(path, &code, &lines, &mut diags);
        rule_relaxed_ordering(path, &code, &lines, allow, &mut diags);
        rule_fallible_sync(path, &code, &lines, &mut diags);
    }
    if class.is_recovery_path && !class.is_test_file {
        rule_recovery_abort(path, &code, &lines, &mut diags);
    }
    rule_metric_name(path, &stripped, source, &lines, &mut diags);
    diags
}

fn line_col(text: &str, idx: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for (i, c) in text.char_indices() {
        if i >= idx {
            break;
        }
        if c == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

fn push_diag(
    diags: &mut Vec<Diagnostic>,
    rule: &'static str,
    message: String,
    help: &str,
    path: &str,
    lines: &[&str],
    text: &str,
    idx: usize,
) {
    let (line, col) = line_col(text, idx);
    diags.push(Diagnostic {
        rule,
        message,
        path: path.to_string(),
        line,
        col,
        snippet: lines.get(line - 1).unwrap_or(&"").trim_end().to_string(),
        help: help.to_string(),
    });
}

/// Replace comments and string/char literal *contents* with spaces,
/// preserving byte offsets, line and column positions.
pub fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let mut depth = 0;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Keep the quotes, blank the contents.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out[i] = b' ';
                        if bytes[i + 1] != b'\n' {
                            out[i + 1] = b' ';
                        }
                        i += 2;
                        continue;
                    }
                    if bytes[i] != b'\n' {
                        out[i] = b' ';
                    }
                    i += 1;
                }
                i += 1;
            }
            b'\'' => {
                // Char literal ('a', '\n') vs lifetime ('a) — a lifetime
                // has no closing quote within a couple of chars.
                if i + 2 < bytes.len() && bytes[i + 2] == b'\'' && bytes[i + 1] != b'\\' {
                    out[i + 1] = b' ';
                    i += 3;
                } else if i + 3 < bytes.len() && bytes[i + 1] == b'\\' && bytes[i + 3] == b'\'' {
                    out[i + 1] = b' ';
                    out[i + 2] = b' ';
                    i += 4;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Blank out `#[cfg(test)] mod ... { ... }` bodies (offsets preserved).
pub fn blank_test_modules(stripped: &str) -> String {
    let mut out: Vec<u8> = stripped.as_bytes().to_vec();
    let mut search = 0;
    while let Some(pos) = stripped[search..].find("#[cfg(test)]") {
        let attr = search + pos;
        search = attr + 12;
        // Find the next `{` after the attribute (the mod/fn body).
        let Some(open_rel) = stripped[attr..].find('{') else {
            break;
        };
        let open = attr + open_rel;
        let mut depth = 0usize;
        let bytes = stripped.as_bytes();
        let mut end = open;
        for i in open..bytes.len() {
            match bytes[i] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i;
                        break;
                    }
                }
                _ => {}
            }
        }
        for b in out.iter_mut().take(end).skip(open + 1) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        search = end.max(search);
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rule `raw-lock`: no raw `std::sync` lock construction or import.
fn rule_raw_lock(path: &str, code: &str, lines: &[&str], diags: &mut Vec<Diagnostic>) {
    const HELP: &str = "use gnndrive_sync::{OrderedMutex, OrderedRwLock, OrderedCondvar} \
                        with an explicit LockRank";
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
                .split(|c: char| c == '{' || c == '}' || c == ',')
                .map(str::trim)
                .any(|t| t == "Mutex" || t == "RwLock" || t == "Condvar");
        if let Some(t) = flagged {
            push_diag(
                diags,
                "raw-lock",
                format!("raw `std::sync::{t}` outside the sync wrapper crate"),
                HELP,
                path,
                lines,
                code,
                idx,
            );
        } else if brace_hit {
            push_diag(
                diags,
                "raw-lock",
                "raw `std::sync` lock import outside the sync wrapper crate".into(),
                HELP,
                path,
                lines,
                code,
                idx,
            );
        }
    }
}

/// Rule `blocking-under-lock`: no sleep/blocking-SSD call while a guard
/// bound by `let` is live in the enclosing scope.
fn rule_blocking_under_lock(path: &str, code: &str, lines: &[&str], diags: &mut Vec<Diagnostic>) {
    const BLOCKERS: [&str; 3] = ["thread::sleep", "read_blocking", "write_blocking"];
    const HELP: &str = "drop the guard (end its scope or call drop(guard)) before blocking; \
                        a sleeping lock holder stalls every contender";
    struct Guard {
        name: String,
        depth: i32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut offset = 0usize;
    for raw in code.split_inclusive('\n') {
        let line = raw.trim_end();
        let trimmed = line.trim_start();
        // Guard binding: `let [mut] name = ....lock();` (or .read()/.write()
        // /.try_lock()), empty argument list, same line.
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest.chars().take_while(|c| is_ident(*c as u8)).collect();
            let takes_guard = [".lock()", ".read()", ".write()", ".try_lock()"]
                .iter()
                .any(|m| line.contains(m));
            // `let x = *self.cfg.lock();` copies the value out — the guard
            // is a temporary dropped at the end of the statement, so it
            // does not pin the lock for the rest of the scope.
            let deref_copy = line
                .split_once('=')
                .is_some_and(|(_, rhs)| rhs.trim_start().starts_with('*'));
            if !name.is_empty() && takes_guard && line.contains('=') && !deref_copy {
                guards.push(Guard { name, depth });
            }
        }
        // Explicit early drop.
        if let Some(pos) = line.find("drop(") {
            let arg: String = line[pos + 5..]
                .chars()
                .take_while(|c| is_ident(*c as u8))
                .collect();
            guards.retain(|g| g.name != arg);
        }
        // Blocking call while any guard lives?
        for b in BLOCKERS {
            if let Some(pos) = line.find(b) {
                // `.read_blocking` as part of a longer identifier is fine.
                let pre_ok = pos == 0 || !is_ident(line.as_bytes()[pos - 1]);
                if pre_ok && !guards.is_empty() {
                    let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                    push_diag(
                        diags,
                        "blocking-under-lock",
                        format!(
                            "blocking call `{b}` while lock guard(s) [{}] are live",
                            held.join(", ")
                        ),
                        HELP,
                        path,
                        lines,
                        code,
                        offset + pos,
                    );
                }
            }
        }
        // Track scope: guards die when their block closes.
        for c in line.bytes() {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    guards.retain(|g| g.depth < depth + 1);
                }
                _ => {}
            }
        }
        offset += raw.len();
    }
}

/// Rule `relaxed-ordering`: `Ordering::Relaxed` requires an allowlist entry.
fn rule_relaxed_ordering(
    path: &str,
    code: &str,
    lines: &[&str],
    allow: &Allowlist,
    diags: &mut Vec<Diagnostic>,
) {
    if allow.allows_relaxed(path) {
        return;
    }
    for (idx, _) in code.match_indices("Ordering::Relaxed") {
        push_diag(
            diags,
            "relaxed-ordering",
            "`Ordering::Relaxed` without an allowlist justification".into(),
            "either rewrite the site to Acquire/Release (required for flags and \
             admission counters other threads act on) or add a [[relaxed]] entry \
             with a `reason` to xtask/lint-allow.toml",
            path,
            lines,
            code,
            idx,
        );
    }
}

/// Rule `fallible-sync`: `.unwrap()`/`.expect(..)` on lock/channel/join.
fn rule_fallible_sync(path: &str, code: &str, lines: &[&str], diags: &mut Vec<Diagnostic>) {
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
    let bytes = code.as_bytes();
    let mut hits: Vec<usize> = Vec::new();
    for pat in [".unwrap", ".expect"] {
        hits.extend(code.match_indices(pat).map(|(i, _)| i));
    }
    hits.sort_unstable();
    for dot in hits {
        // Must actually be a call.
        let after = dot
            + if code[dot..].starts_with(".unwrap") {
                7
            } else {
                7
            };
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
            push_diag(
                diags,
                "fallible-sync",
                format!("`.{method}(..)` result unwrapped in library code"),
                "propagate the failure (return an error, record it, or break the \
                 loop); a poisoned channel or dead peer thread is a runtime \
                 condition, not a bug",
                path,
                lines,
                code,
                dot,
            );
        }
    }
}

/// Rule `recovery-abort`: no process-aborting construct in the
/// integrity/recovery modules. These files are the error path — a
/// `panic!` there turns a survivable corrupted sector into a dead
/// trainer.
fn rule_recovery_abort(path: &str, code: &str, lines: &[&str], diags: &mut Vec<Diagnostic>) {
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
    let bytes = code.as_bytes();
    for pat in ABORTS {
        for (idx, _) in code.match_indices(pat) {
            // `my_panic!` or `reprocess::exit`-style identifiers are fine.
            if idx > 0 && is_ident(bytes[idx - 1]) {
                continue;
            }
            push_diag(
                diags,
                "recovery-abort",
                format!("`{pat}` in a recovery-path module"),
                HELP,
                path,
                lines,
                code,
                idx,
            );
        }
    }
}

/// Rule `metric-name`: registry names are dot-separated `[a-z0-9_]`.
fn rule_metric_name(
    path: &str,
    stripped: &str,
    original: &str,
    lines: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
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
    let bytes = stripped.as_bytes();
    for site in SITES {
        for (idx, _) in stripped.match_indices(site) {
            // Skip definitions (`fn counter(`) and longer identifiers.
            if idx > 0 && (is_ident(bytes[idx - 1]) || bytes[idx - 1] == b'.') {
                continue;
            }
            let before = stripped[..idx].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            let open = idx + site.len();
            let rest = original[open..].trim_start();
            let Some(lit) = rest.strip_prefix('"') else {
                continue; // dynamic name — checked at the construction site
            };
            let Some(close) = lit.find('"') else {
                continue;
            };
            let name = &lit[..close];
            if !valid_metric_name(name) {
                push_diag(
                    diags,
                    "metric-name",
                    format!("metric name \"{name}\" violates the registry scheme"),
                    "names are dot-separated segments of [a-z0-9_], subsystem \
                     first (e.g. `ssd.read_bytes`, `pipeline.extract_queue.depth`)",
                    path,
                    lines,
                    stripped,
                    idx,
                );
            } else if let Some(hint) = closed_set_violation(name) {
                push_diag(
                    diags,
                    "metric-name",
                    format!("metric name \"{name}\" is not in its closed namespace set"),
                    hint,
                    path,
                    lines,
                    stripped,
                    idx,
                );
            }
            if CATEGORIZED_SITES.contains(&site) {
                if let Some(cat) = second_string_literal(&lit[close + 1..]) {
                    if !SPAN_CATEGORIES.contains(&cat) {
                        push_diag(
                            diags,
                            "metric-name",
                            format!("span category \"{cat}\" is not a known category"),
                            "trace categories are a closed set (see \
                             telemetry::span_cat and DESIGN.md §10): pipeline, \
                             verdict — extend SPAN_CATEGORIES in xtask when \
                             adding one",
                            path,
                            lines,
                            stripped,
                            idx,
                        );
                    }
                }
            }
        }
    }
}

/// Closed trace-category set (`telemetry::span_cat` second argument).
const SPAN_CATEGORIES: [&str; 2] = ["pipeline", "verdict"];

/// Closed metric namespaces: `core.attr.*` is the bottleneck-attribution
/// taxonomy (one histogram per `WaitKind` + the conservation residual) and
/// `storage.queue.*` is the SimSsd queue/service split. A name under these
/// prefixes that is not in the set is almost always a typo that would
/// silently split a time series; add new members here and to the DESIGN.md
/// §10 table in the same change.
const KNOWN_ATTRIBUTION_METRICS: [&str; 9] = [
    "core.attr.mem_admission",
    "core.attr.staging_wait",
    "core.attr.slot_wait",
    "core.attr.ring_wait",
    "core.attr.sync_read_wait",
    "core.attr.transfer_wait",
    "core.attr.ready_wait",
    "core.attr.page_fault_wait",
    "core.attr.other",
];
const KNOWN_STORAGE_QUEUE_METRICS: [&str; 2] =
    ["storage.queue.wait_ns", "storage.queue.service_ns"];
/// The per-lane QoS split of the SimSsd submission queue (DESIGN.md §11).
const KNOWN_STORAGE_LANE_METRICS: [&str; 4] = [
    "storage.queue.lane.serve_ops",
    "storage.queue.lane.bulk_ops",
    "storage.queue.lane.serve_wait_ns",
    "storage.queue.lane.bulk_wait_ns",
];
/// The page-cache replacement-policy namespace (DESIGN.md §13): one
/// eviction counter per policy, plus Belady's fallback accounting for
/// pages its trace never saw.
const KNOWN_CACHE_POLICY_METRICS: [&str; 4] = [
    "storage.cache.policy.lru.evictions",
    "storage.cache.policy.belady.evictions",
    "storage.cache.policy.belady.lru_fallbacks",
    "storage.cache.policy.belady.off_trace_accesses",
];
/// The access-trace lifecycle counters (DESIGN.md §13): entries recorded
/// by a tracing page cache, artifacts saved, artifacts loaded.
const KNOWN_STORAGE_TRACE_METRICS: [&str; 3] = [
    "storage.trace.recorded",
    "storage.trace.saved",
    "storage.trace.loaded",
];
/// The volatile write-back cache's closed namespace (DESIGN.md §14):
/// dirty/flush accounting plus the per-power-cut sector fates.
const KNOWN_STORAGE_WCACHE_METRICS: [&str; 7] = [
    "storage.wcache.sectors_dirtied",
    "storage.wcache.flushes",
    "storage.wcache.sectors_flushed",
    "storage.wcache.power_cuts",
    "storage.wcache.sectors_kept",
    "storage.wcache.sectors_dropped",
    "storage.wcache.sectors_torn",
];
/// The crash-point registry's closed namespace (DESIGN.md §14): points
/// traversed while armed/recording, cuts fired, recoveries observed.
const KNOWN_STORAGE_CRASH_METRICS: [&str; 3] = [
    "storage.crash.points",
    "storage.crash.cuts",
    "storage.crash.recoveries",
];
/// The serving tier's closed namespace: admission counters, micro-batch
/// accounting, the SLO violation tally, the latency/queue/service
/// histograms, and the queue-depth gauge (DESIGN.md §11).
const KNOWN_SERVE_METRICS: [&str; 10] = [
    "serve.requests",
    "serve.rejected",
    "serve.completed",
    "serve.failed",
    "serve.batches",
    "serve.slo_violations",
    "serve.latency",
    "serve.queue_wait",
    "serve.service",
    "serve.queue.depth",
];

fn closed_set_violation(name: &str) -> Option<&'static str> {
    if name.starts_with("core.attr.") && !KNOWN_ATTRIBUTION_METRICS.contains(&name) {
        return Some(
            "`core.attr.*` is the closed attribution taxonomy (DESIGN.md §10); \
             extend KNOWN_ATTRIBUTION_METRICS in xtask and WaitKind in \
             gnndrive-telemetry together",
        );
    }
    // The lane sub-namespace nests inside `storage.queue.`, so it must be
    // carved out before the broader prefix check.
    if name.starts_with("storage.queue.lane.") {
        if !KNOWN_STORAGE_LANE_METRICS.contains(&name) {
            return Some(
                "`storage.queue.lane.*` is the closed QoS lane split; extend \
                 KNOWN_STORAGE_LANE_METRICS in xtask alongside the stats counters",
            );
        }
        return None;
    }
    if name.starts_with("storage.queue.") && !KNOWN_STORAGE_QUEUE_METRICS.contains(&name) {
        return Some(
            "`storage.queue.*` is the closed SimSsd queue/service split; extend \
             KNOWN_STORAGE_QUEUE_METRICS in xtask alongside the stats counters",
        );
    }
    if name.starts_with("storage.cache.policy.") && !KNOWN_CACHE_POLICY_METRICS.contains(&name) {
        return Some(
            "`storage.cache.policy.*` is the closed replacement-policy namespace \
             (DESIGN.md §13); extend KNOWN_CACHE_POLICY_METRICS in xtask alongside \
             the EvictionPolicy impl's counters",
        );
    }
    if name.starts_with("storage.trace.") && !KNOWN_STORAGE_TRACE_METRICS.contains(&name) {
        return Some(
            "`storage.trace.*` is the closed access-trace lifecycle set \
             (DESIGN.md §13); extend KNOWN_STORAGE_TRACE_METRICS in xtask \
             alongside the AccessTrace/PageCache counters",
        );
    }
    if name.starts_with("storage.wcache.") && !KNOWN_STORAGE_WCACHE_METRICS.contains(&name) {
        return Some(
            "`storage.wcache.*` is the closed write-back cache set \
             (DESIGN.md §14); extend KNOWN_STORAGE_WCACHE_METRICS in xtask \
             alongside the WcacheCounters struct",
        );
    }
    if name.starts_with("storage.crash.") && !KNOWN_STORAGE_CRASH_METRICS.contains(&name) {
        return Some(
            "`storage.crash.*` is the closed crash-registry set \
             (DESIGN.md §14); extend KNOWN_STORAGE_CRASH_METRICS in xtask \
             alongside the registry counters",
        );
    }
    if name.starts_with("serve.") && !KNOWN_SERVE_METRICS.contains(&name) {
        return Some(
            "`serve.*` is the serving tier's closed namespace; extend \
             KNOWN_SERVE_METRICS in xtask alongside the Server counters \
             and the DESIGN.md §11 table",
        );
    }
    None
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

    const LIB: FileClass = FileClass {
        is_test_file: false,
        is_sync_crate: false,
        is_recovery_path: false,
    };

    fn lint(src: &str) -> Vec<Diagnostic> {
        lint_source("crates/demo/src/lib.rs", src, LIB, &Allowlist::default())
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
        let sync_class = FileClass {
            is_test_file: false,
            is_sync_crate: true,
            is_recovery_path: false,
        };
        let src = "use std::sync::Mutex;\nuse std::sync::{Condvar, RwLock};\n";
        assert!(lint_source(
            "crates/sync/src/lib.rs",
            src,
            sync_class,
            &Allowlist::default()
        )
        .is_empty());
        // std::sync::Arc and atomics never trip the rule.
        assert!(rules("use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n").is_empty());
    }

    #[test]
    fn comments_and_strings_never_trip_rules() {
        let src = "// std::sync::RwLock is forbidden\nfn f() { let s = \"std::sync::Mutex\"; }\n";
        assert!(rules(src).is_empty());
    }

    // -- rule b: blocking-under-lock -------------------------------------

    #[test]
    fn sleep_with_live_guard_is_flagged() {
        let src = "fn f(&self) {\n    let g = self.state.lock();\n    \
                   std::thread::sleep(D);\n}\n";
        assert_eq!(rules(src), vec!["blocking-under-lock"]);
    }

    #[test]
    fn blocking_ssd_read_with_live_guard_is_flagged() {
        let src = "fn f(&self) {\n    let mut inner = self.inner.lock();\n    \
                   self.ssd.read_blocking(f, 0, &mut buf, true);\n}\n";
        let diags = lint(src);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("inner"), "{}", diags[0].message);
    }

    #[test]
    fn deref_copy_out_of_lock_is_not_a_live_guard() {
        let src = "fn f(&self) {\n    let policy = *self.retry.lock();\n    \
                   self.ssd.read_blocking(f, 0, &mut buf, false);\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn dropped_or_scoped_guards_do_not_flag() {
        let dropped = "fn f(&self) {\n    let g = self.state.lock();\n    drop(g);\n    \
                       std::thread::sleep(D);\n}\n";
        assert!(rules(dropped).is_empty());
        let scoped = "fn f(&self) {\n    {\n        let g = self.state.lock();\n    }\n    \
                      std::thread::sleep(D);\n}\n";
        assert!(rules(scoped).is_empty());
    }

    // -- rule c: relaxed-ordering ----------------------------------------

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
        assert!(lint_source("crates/demo/src/lib.rs", src, LIB, &allow).is_empty());
    }

    #[test]
    fn relaxed_inside_cfg_test_module_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(c: &AtomicU64) { \
                   c.load(Ordering::Relaxed); }\n}\n";
        assert!(rules(src).is_empty());
    }

    // -- rule d: fallible-sync -------------------------------------------

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
        let test_class = FileClass {
            is_test_file: true,
            is_sync_crate: false,
            is_recovery_path: false,
        };
        assert!(lint_source(
            "crates/demo/tests/t.rs",
            src,
            test_class,
            &Allowlist::default()
        )
        .is_empty());
        let in_mod = "#[cfg(test)]\nmod tests {\n    fn f() { h.join().unwrap(); }\n}\n";
        assert!(rules(in_mod).is_empty());
    }

    // -- rule e: metric-name ---------------------------------------------

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
    fn attribution_namespace_is_a_closed_set() {
        // A typo'd member of a closed namespace is flagged even though it
        // is a well-formed name.
        let src = "fn f() { telemetry::histogram_ns(\"core.attr.slotwait\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() { telemetry::histogram_ns(\"core.attr.pagefault_wait\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() { telemetry::counter(\"storage.queue.depth_ns\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() {\n    telemetry::histogram_ns(\"core.attr.slot_wait\");\n    \
                   telemetry::histogram_ns(\"core.attr.page_fault_wait\");\n    \
                   telemetry::histogram_ns(\"core.attr.other\");\n    \
                   telemetry::counter(\"storage.queue.wait_ns\");\n    \
                   telemetry::counter(\"storage.queue.service_ns\");\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn lane_namespace_is_a_closed_set_inside_storage_queue() {
        // The lane carve-out must match before the broader storage.queue
        // prefix: a valid lane member passes …
        let src = "fn f() { telemetry::counter(\"storage.queue.lane.serve_ops\"); }\n";
        assert!(rules(src).is_empty());
        // … a typo'd lane member is flagged as a lane violation …
        let src = "fn f() { telemetry::counter(\"storage.queue.lane.srv_ops\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        // … and all four lane counters are accepted together.
        let src = "fn f() {\n    telemetry::counter(\"storage.queue.lane.serve_ops\");\n    \
                   telemetry::counter(\"storage.queue.lane.bulk_ops\");\n    \
                   telemetry::counter(\"storage.queue.lane.serve_wait_ns\");\n    \
                   telemetry::counter(\"storage.queue.lane.bulk_wait_ns\");\n}\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn serve_namespace_is_a_closed_set() {
        let src = "fn f() {\n    telemetry::counter(\"serve.requests\");\n    \
                   telemetry::counter(\"serve.rejected\");\n    \
                   telemetry::histogram_ns(\"serve.latency\");\n    \
                   telemetry::gauge(\"serve.queue.depth\");\n}\n";
        assert!(rules(src).is_empty());
        let src = "fn f() { telemetry::counter(\"serve.request\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() { telemetry::histogram_ns(\"serve.p99\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
    }

    #[test]
    fn cache_policy_namespace_is_a_closed_set() {
        // Every member of the replacement-policy set is accepted …
        let src = "fn f() {\n    \
                   telemetry::counter(\"storage.cache.policy.lru.evictions\");\n    \
                   telemetry::counter(\"storage.cache.policy.belady.evictions\");\n    \
                   telemetry::counter(\"storage.cache.policy.belady.lru_fallbacks\");\n    \
                   telemetry::counter(\"storage.cache.policy.belady.off_trace_accesses\");\n}\n";
        assert!(rules(src).is_empty());
        // … a typo'd member is flagged even though it is well-formed …
        let src = "fn f() { telemetry::counter(\"storage.cache.policy.lru.eviction\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        // … and so is a policy the set has never heard of.
        let src = "fn f() { telemetry::counter(\"storage.cache.policy.fifo.evictions\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
    }

    #[test]
    fn storage_trace_namespace_is_a_closed_set() {
        let src = "fn f() {\n    telemetry::counter(\"storage.trace.recorded\");\n    \
                   telemetry::counter(\"storage.trace.saved\");\n    \
                   telemetry::counter(\"storage.trace.loaded\");\n}\n";
        assert!(rules(src).is_empty());
        let src = "fn f() { telemetry::counter(\"storage.trace.record\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
    }

    #[test]
    fn wcache_namespace_is_a_closed_set() {
        // Every member of the write-back cache set is accepted …
        let src = "fn f() {\n    telemetry::counter(\"storage.wcache.sectors_dirtied\");\n    \
                   telemetry::counter(\"storage.wcache.flushes\");\n    \
                   telemetry::counter(\"storage.wcache.sectors_flushed\");\n    \
                   telemetry::counter(\"storage.wcache.power_cuts\");\n    \
                   telemetry::counter(\"storage.wcache.sectors_kept\");\n    \
                   telemetry::counter(\"storage.wcache.sectors_dropped\");\n    \
                   telemetry::counter(\"storage.wcache.sectors_torn\");\n}\n";
        assert!(rules(src).is_empty());
        // … a typo'd member is flagged even though it is well-formed.
        let src = "fn f() { telemetry::counter(\"storage.wcache.sectors_teared\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
        let src = "fn f() { telemetry::counter(\"storage.wcache.flushed\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
    }

    #[test]
    fn crash_namespace_is_a_closed_set() {
        let src = "fn f() {\n    telemetry::counter(\"storage.crash.points\");\n    \
                   telemetry::counter(\"storage.crash.cuts\");\n    \
                   telemetry::counter(\"storage.crash.recoveries\");\n}\n";
        assert!(rules(src).is_empty());
        let src = "fn f() { telemetry::counter(\"storage.crash.recovered\"); }\n";
        assert_eq!(rules(src), vec!["metric-name"]);
    }

    // -- rule f: recovery-abort -------------------------------------------

    const RECOVERY: FileClass = FileClass {
        is_test_file: false,
        is_sync_crate: false,
        is_recovery_path: true,
    };

    fn lint_recovery(src: &str) -> Vec<Diagnostic> {
        lint_source(
            "crates/storage/src/retry.rs",
            src,
            RECOVERY,
            &Allowlist::default(),
        )
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
        assert!(classify("crates/storage/src/health.rs").is_recovery_path);
        assert!(classify("crates/storage/src/wcache.rs").is_recovery_path);
        assert!(classify("crates/core/src/checkpoint.rs").is_recovery_path);
        assert!(classify("crates/telemetry/src/crash.rs").is_recovery_path);
        assert!(classify("crates/telemetry/src/persist.rs").is_recovery_path);
        assert!(!classify("crates/core/src/pipeline.rs").is_recovery_path);
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

    // -- rule g: stale-allow ---------------------------------------------

    #[test]
    fn unused_allowlist_entries_are_flagged_with_their_line() {
        let allow = Allowlist::parse(
            "# header comment\n[[relaxed]]\npath = \"crates/live/src/hot.rs\"\n\
             reason = \"per-thread counters aggregated at snapshot\"\n\n\
             [[relaxed]]\npath = \"crates/gone/src/old.rs\"\n\
             reason = \"file was deleted, this entry must go stale\"\n",
        )
        .unwrap();
        let mut used = std::collections::HashSet::new();
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
        let mut used = std::collections::HashSet::new();
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
    }
}
