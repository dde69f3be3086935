//! The source model both analyses run on.
//!
//! Like everything in `xtask` this is a hand-rolled, zero-dependency token
//! scanner, not a parser. One walker ([`load_workspace`]) reads every Rust
//! source under `crates/`, `src/` and `tests/`, classifies it from its path
//! ([`FileClass`]) and prepares its text once ([`SourceFile`]): verbatim,
//! with comments and string contents blanked, and with `#[cfg(test)]`
//! items blanked as well. Byte offsets are preserved throughout, so a
//! match in any of the three maps back to the original line and column.
//! The lint's token rules ([`crate::lint`]) read those texts directly.
//!
//! For the interprocedural tier, [`Model::build`] extracts from the shipped
//! files (not tests, and not `crates/sync`, which builds the primitives on
//! raw `std::sync` locks):
//!
//! * **functions** — name, impl type, whether it takes `self`, whether the
//!   return type is an `Ordered*Guard` (guard-returning lock helpers) or an
//!   `Ordered{Mutex,RwLock}` reference (lock-accessor aliases), and an
//!   ordered event stream for the body;
//! * **lock declarations** — every `OrderedMutex::new(LockRank::R, ..)` /
//!   `OrderedRwLock::new(..)` site, keyed by the binding name (struct
//!   field, `let`, or `static`) scoped to its file, with the inner type the
//!   declaration (or, failing that, the constructor) states;
//! * **types** — the names the workspace declares or implements, its
//!   traits, struct field types, `static` item types and generic
//!   parameters, from which each method call's receiver type ([`Recv`]) is
//!   derived;
//! * **events** — lock acquisitions (`.lock()`, `.read()`, `.write()`,
//!   `try_*`), condvar waits, directly blocking operations
//!   (`thread::sleep`, `read_blocking`/`write_blocking`, channel `recv`,
//!   thread `join`, bare `.wait()`), calls that may resolve to workspace
//!   functions, `drop(guard)`, and scope open/close.
//!
//! Soundness posture (DESIGN.md §12): a conservative *may* analysis.
//! Closures handed to `spawn(..)` are split off as synthetic root
//! functions (they run on their own thread and never inherit the caller's
//! held guards). A `let`-bound guard whose receiver maps to no declared
//! lock is still modeled as held, with no rank (such receivers are counted
//! in [`ModelStats::unresolved_lock_receivers`]); anything the model sees
//! is analyzed.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};

pub type FnId = usize;
pub type LockId = usize;

// --------------------------------------------------------------------------
// source files

/// How the rules apply to one file, decided from its path alone.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// `tests/`, `benches/` or `examples/`: exempt from the library-code
    /// lint rules, and not modeled.
    pub is_test_file: bool,
    /// `crates/sync` implements the ordered primitives on raw `std::sync`
    /// locks: exempt from `raw-lock`, and not modeled.
    pub is_sync_crate: bool,
    /// Library source on an integrity/recovery path (retry, health,
    /// checkpoint decode): the `recovery-abort` rule applies.
    pub is_recovery_path: bool,
}

/// Files whose whole purpose is surviving faults: they must degrade or
/// return typed errors, never abort the process (`recovery-abort`).
const RECOVERY_PATHS: [&str; 8] = [
    "crates/storage/src/retry.rs",
    "crates/storage/src/fault.rs",
    "crates/storage/src/integrity.rs",
    "crates/storage/src/health.rs",
    "crates/storage/src/wcache.rs",
    "crates/core/src/checkpoint.rs",
    "crates/telemetry/src/crash.rs",
    "crates/telemetry/src/persist.rs",
];

impl FileClass {
    pub fn of(path: &str) -> FileClass {
        FileClass {
            is_test_file: path.contains("/tests/")
                || path.starts_with("tests/")
                || path.contains("/benches/")
                || path.contains("/examples/"),
            is_sync_crate: path.starts_with("crates/sync/"),
            is_recovery_path: RECOVERY_PATHS.contains(&path),
        }
    }
}

/// One Rust source, prepared once for every rule.
pub struct SourceFile {
    /// Workspace-relative, `/`-separated.
    pub path: String,
    pub class: FileClass,
    pub text: String,
    /// Comments and string/char literal contents blanked.
    pub stripped: String,
    /// `stripped` with `#[cfg(test)]` items blanked too: what ships.
    pub code: String,
}

impl SourceFile {
    pub fn new(path: &str, text: &str) -> SourceFile {
        let stripped = strip_comments_and_strings(text);
        let code = blank_cfg_test(&stripped);
        SourceFile {
            path: path.to_string(),
            class: FileClass::of(path),
            text: text.to_string(),
            stripped,
            code,
        }
    }

    /// The original text of 1-based `line`, right-trimmed.
    pub fn line(&self, line: usize) -> &str {
        let n = line.saturating_sub(1);
        self.text.lines().nth(n).unwrap_or("").trim_end()
    }
}

/// Read and prepare every `.rs` file under `crates/`, `src/` and `tests/`,
/// in path order.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests"] {
        collect_rs_files(&root.join(dir), &mut paths);
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {rel}: {e}"))?;
            Ok(SourceFile::new(&rel, &text))
        })
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
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

/// Blank `#[cfg(test)]` item bodies (offsets preserved): the analyses
/// cover what ships. A brace-less item (`#[cfg(test)] use x;`) has no
/// body, so the code after it stays visible.
pub fn blank_cfg_test(stripped: &str) -> String {
    const ATTR: &str = "#[cfg(test)]";
    let mut out: Vec<u8> = stripped.as_bytes().to_vec();
    let mut search = 0;
    while let Some(pos) = stripped[search..].find(ATTR) {
        let attr = search + pos;
        search = attr + ATTR.len();
        let Some(open_rel) = stripped[attr..].find('{') else {
            break;
        };
        let open = attr + open_rel;
        // A `;` before the `{` means the attribute's item ended without one.
        if stripped[attr..open].contains(';') {
            continue;
        }
        let end = match_delim(stripped, open, stripped.len()).unwrap_or(stripped.len());
        for b in out.iter_mut().take(end).skip(open + 1) {
            if *b != b'\n' {
                *b = b' ';
            }
        }
        search = end.max(search);
    }
    String::from_utf8_lossy(&out).into_owned()
}

// --------------------------------------------------------------------------
// the interprocedural model

/// One `Ordered{Mutex,RwLock}` identity: a binding name scoped to a file.
/// Distinct constructions sharing the same `(file, name)` merge (and union
/// their ranks); that is the precision limit of a token-level model.
#[derive(Debug, Clone)]
pub struct LockDef {
    pub name: String,
    pub file: String,
    pub line: usize,
    /// `LockRank` variant names seen at construction sites. Empty when the
    /// rank is not a literal `LockRank::X` (dynamic rank, accessor alias).
    pub ranks: BTreeSet<String>,
    /// The guarded type as the source states it (`OrderedMutex<Histogram>`
    /// → `Histogram`), when it does.
    pub inner: Option<String>,
}

/// What the source states about a method call's receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum Recv {
    /// Unannotated, generic, `impl Trait` or `dyn Trait`: may call any impl.
    Any,
    /// A type the workspace declares or implements methods for.
    Type(String),
    /// A concrete non-workspace type (`HashMap`, `[u8]`, `AtomicU64`): no
    /// workspace function is reachable through it.
    Foreign,
}

/// One event in a function body, in source order.
#[derive(Debug, Clone)]
pub enum Event {
    /// Acquisition of a lock guard.
    Acquire {
        /// The declared lock; `None` for a `let`-bound guard whose receiver
        /// maps to no declaration (held, but with no rank and no edges).
        lock: Option<LockId>,
        /// Receiver name, for messages.
        label: String,
        /// `let` binding holding the guard for the rest of its scope;
        /// `None` = temporary (guard dies at the end of the statement).
        bound: Option<String>,
        /// `try_*` acquisitions never park, so they cannot be the blocked
        /// edge of a deadlock cycle (held side still counts).
        blocking: bool,
        line: usize,
    },
    /// `cv.wait(&mut g)` — `g`'s mutex is released for the park duration.
    CondvarWait {
        guard: Option<String>,
        line: usize,
    },
    /// A directly blocking operation (sleep, blocking SSD I/O, recv, ...).
    Block {
        what: String,
        line: usize,
    },
    /// A call that may resolve to workspace functions.
    Call {
        name: String,
        /// `Type` (or module) for `Qual::name(..)` calls.
        qual: Option<String>,
        /// The receiver of a `.name(` method call; `None` for path calls.
        recv: Option<Recv>,
        /// `let` binding of the call result, when the call is the whole
        /// right-hand side (guard-returning helper support).
        bound: Option<String>,
        /// Bare-ident by-value arguments (guard moves into callees).
        moved: Vec<String>,
        line: usize,
    },
    Drop {
        name: String,
        line: usize,
    },
    Open {
        line: usize,
    },
    Close {
        line: usize,
    },
}

impl Event {
    pub fn line(&self) -> usize {
        match self {
            Event::Acquire { line, .. }
            | Event::CondvarWait { line, .. }
            | Event::Block { line, .. }
            | Event::Call { line, .. }
            | Event::Drop { line, .. }
            | Event::Open { line }
            | Event::Close { line } => *line,
        }
    }
}

#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    pub impl_type: Option<String>,
    /// `Type::name` or bare `name`, for diagnostics.
    pub qname: String,
    pub file: String,
    /// First parameter is `self` in some form: reachable by method syntax.
    pub takes_self: bool,
    /// Return type mentions an `Ordered*Guard`: calling this function is a
    /// lock acquisition at the call site. Accessors returning the lock
    /// itself (`fn registry() -> &'static OrderedMutex<..>`) are handled
    /// earlier, at lock collection, where the accessor name becomes a lock
    /// name. Spawn-closure bodies are split into synthetic `{spawn#k}`
    /// roots so they never inherit caller guards.
    pub returns_guard: bool,
    pub events: Vec<Event>,
}

#[derive(Debug, Default, Clone)]
pub struct ModelStats {
    pub files: usize,
    pub functions: usize,
    pub locks: usize,
    pub call_sites: usize,
    /// `.lock()`/`.try_lock()` receivers the model could not map to a
    /// declared lock (collections of locks, rebound locals, ...).
    pub unresolved_lock_receivers: usize,
    /// Constructions whose rank was not a literal `LockRank::X`.
    pub dynamic_rank_sites: usize,
}

pub struct Model {
    pub fns: Vec<FnDef>,
    pub locks: Vec<LockDef>,
    pub stats: ModelStats,
    fns_by_name: HashMap<String, Vec<FnId>>,
}

impl Model {
    /// Model the shipped files among `files`.
    pub fn build(files: &[SourceFile]) -> Model {
        let files: Vec<&SourceFile> = files
            .iter()
            .filter(|f| !f.class.is_test_file && !f.class.is_sync_crate)
            .collect();
        let mut b = Builder::default();
        // Pass 1: per-file scans that feed the global tables (types, lock
        // and condvar declarations must exist before bodies are modeled).
        let mut raw: Vec<Vec<RawFn>> = Vec::new();
        for f in &files {
            let raw_fns = extract_fns(&f.code);
            b.collect_types(&f.path, &f.code, &raw_fns);
            b.collect_locks(&f.path, &f.code, &raw_fns);
            b.collect_condvars(&f.code);
            raw.push(raw_fns);
        }
        // Pass 2: model every function body against the global tables.
        for (f, raw_fns) in files.iter().zip(&raw) {
            b.model_file(&f.path, &f.code, raw_fns);
        }
        b.finish()
    }

    pub fn fn_def(&self, id: FnId) -> &FnDef {
        &self.fns[id]
    }

    pub fn lock(&self, id: LockId) -> &LockDef {
        &self.locks[id]
    }

    /// Functions matching a bare name (no filtering).
    pub fn fns_named(&self, name: &str) -> &[FnId] {
        self.fns_by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }
}

// --------------------------------------------------------------------------
// builder

#[derive(Default)]
struct Builder {
    fns: Vec<FnDef>,
    locks: Vec<LockDef>,
    lock_by_file_name: HashMap<(String, String), LockId>,
    condvars: HashSet<String>,
    /// Every name the workspace declares as a type or implements methods for.
    types: HashSet<String>,
    traits: HashSet<String>,
    structs: HashMap<String, Vec<StructDef>>,
    /// `static NAME: Type` declarations: `(file, type)` per name.
    statics: HashMap<String, Vec<(String, String)>>,
    stats: ModelStats,
}

struct StructDef {
    file: String,
    generics: Vec<String>,
    fields: HashMap<String, String>,
}

/// A function located in pass 1: spans into the blanked source.
struct RawFn {
    name: String,
    impl_type: Option<String>,
    /// Generic parameter names in scope: the fn's own and its impl's.
    generics: Vec<String>,
    /// The parameter list, between the parens.
    params: String,
    sig_start: usize,
    /// `(open brace idx, close brace idx)`, both inclusive of the braces.
    body: (usize, usize),
    ret: String,
}

/// Per-body scanning state.
struct Body<'a> {
    path: &'a str,
    code: &'a str,
    lines: &'a [usize],
    end: usize,
    impl_type: Option<&'a str>,
    generics: &'a [String],
    /// Locals whose type the source states: annotated params and `let`s,
    /// and `let`-bound guards (their lock's inner type).
    env: HashMap<String, String>,
    /// The current `let` statement: binding, and whether the right-hand
    /// side starts with `*` (a deref copy-out).
    cur_let: Option<(String, bool)>,
}

/// One link of a receiver chain (`self.stats.lock().` is `self`,
/// `stats`, `lock()`).
enum Seg {
    Name(String),
    Call(String),
    /// Indexed or `?`-unwrapped: the name is known, its type is not.
    Opaque(String),
}

impl Seg {
    fn name(&self) -> &str {
        let (Seg::Name(n) | Seg::Call(n) | Seg::Opaque(n)) = self;
        n
    }
}

const LOCK_METHODS: [&str; 6] = ["lock", "try_lock", "read", "write", "try_read", "try_write"];

impl Builder {
    fn lock_id(&mut self, file: &str, name: &str, line: usize) -> LockId {
        let key = (file.to_string(), name.to_string());
        if let Some(&id) = self.lock_by_file_name.get(&key) {
            return id;
        }
        let id = self.locks.len();
        self.locks.push(LockDef {
            name: name.to_string(),
            file: file.to_string(),
            line,
            ranks: BTreeSet::new(),
            inner: None,
        });
        self.lock_by_file_name.insert(key, id);
        id
    }

    /// Pass 1a: type names, traits, and struct field types.
    fn collect_types(&mut self, path: &str, code: &str, raw_fns: &[RawFn]) {
        self.types
            .extend(raw_fns.iter().filter_map(|f| f.impl_type.clone()));
        let bytes = code.as_bytes();
        for kw in ["struct", "enum", "union", "type", "trait"] {
            for (idx, _) in code.match_indices(kw) {
                let after = idx + kw.len();
                if (idx > 0 && is_ident(bytes[idx - 1]))
                    || !bytes.get(after).is_some_and(u8::is_ascii_whitespace)
                {
                    continue;
                }
                let at = skip_ws(bytes, after, code.len());
                let name = read_ident(code, at);
                if name.is_empty() {
                    continue;
                }
                self.types.insert(name.clone());
                if kw == "trait" {
                    self.traits.insert(name);
                    continue;
                }
                if kw != "struct" {
                    continue;
                }
                let (generics, mut i) = generic_names(code, at + name.len());
                while i < code.len() && !matches!(bytes[i], b'{' | b';' | b'(') {
                    i += 1;
                }
                let fields = match (bytes.get(i), match_delim(code, i, code.len())) {
                    (Some(b'{'), Some(close)) => split_top(&code[i + 1..close])
                        .into_iter()
                        .filter_map(typed_binding)
                        .collect(),
                    _ => HashMap::new(),
                };
                self.structs.entry(name).or_default().push(StructDef {
                    file: path.to_string(),
                    generics,
                    fields,
                });
            }
        }
        for (idx, _) in code.match_indices("static ") {
            if idx > 0 && (is_ident(bytes[idx - 1]) || bytes[idx - 1] == b'\'') {
                continue; // a longer identifier or a `'static` lifetime
            }
            let item = &code[idx + "static ".len()..];
            let Some(eq) = item.find('=') else { continue };
            if item[..eq].contains(['{', '}']) {
                continue;
            }
            if let Some((name, ty)) = typed_binding(&item[..eq]) {
                self.statics
                    .entry(name)
                    .or_default()
                    .push((path.to_string(), ty));
            }
        }
    }

    /// Pass 1b: `Ordered{Mutex,RwLock}::new(LockRank::R, ..)` sites.
    fn collect_locks(&mut self, path: &str, code: &str, raw_fns: &[RawFn]) {
        let lines = line_starts(code);
        for pat in ["OrderedMutex::new", "OrderedRwLock::new"] {
            for (idx, _) in code.match_indices(pat) {
                if idx > 0 && is_ident(code.as_bytes()[idx - 1]) {
                    continue; // part of a longer identifier
                }
                let line = line_of(&lines, idx);
                let rank = rank_after_new(code, idx + pat.len());
                if rank.is_none() {
                    self.stats.dynamic_rank_sites += 1;
                }
                // Unbound construction inside a lock-accessor function
                // (`fn registry() -> &OrderedMutex<..> { .. new(..) .. }`):
                // the accessor's name is the lock name.
                let accessor = raw_fns
                    .iter()
                    .find(|f| f.body.0 < idx && idx < f.body.1 && returns_lock(&f.ret));
                let Some(name) =
                    binding_name_before(code, idx).or_else(|| accessor.map(|f| f.name.clone()))
                else {
                    continue;
                };
                let id = self.lock_id(path, &name, line);
                if let Some(r) = rank {
                    self.locks[id].ranks.insert(r);
                }
                if self.locks[id].inner.is_none() {
                    self.locks[id].inner = declared_inner(code, &name)
                        .or_else(|| accessor.and_then(|f| lock_inner(&f.ret)))
                        .or_else(|| ctor_value_type(code, idx + pat.len()));
                }
            }
        }
        // Lock-accessor functions without an internal construction still
        // name a lock (rank unknown: held side counts, inversion unchecked).
        for f in raw_fns.iter().filter(|f| returns_lock(&f.ret)) {
            let id = self.lock_id(path, &f.name, line_of(&lines, f.sig_start));
            if self.locks[id].inner.is_none() {
                self.locks[id].inner = lock_inner(&f.ret);
            }
        }
    }

    /// Pass 1c: condvar binding names (`freed: OrderedCondvar`, `let cv =
    /// OrderedCondvar::new()`, ...).
    fn collect_condvars(&mut self, code: &str) {
        for (idx, _) in code.match_indices("OrderedCondvar") {
            if idx > 0 && is_ident(code.as_bytes()[idx - 1]) {
                continue;
            }
            if let Some(name) = binding_name_before(code, idx) {
                self.condvars.insert(name);
            }
        }
    }

    /// Pass 2: turn each function body into an event stream.
    fn model_file(&mut self, path: &str, code: &str, raw_fns: &[RawFn]) {
        self.stats.files += 1;
        let lines = line_starts(code);
        for (i, rf) in raw_fns.iter().enumerate() {
            // Exclude nested fn bodies from the enclosing fn's events.
            let mut skip: Vec<(usize, usize)> = raw_fns
                .iter()
                .enumerate()
                .filter(|(j, o)| *j != i && o.body.0 > rf.body.0 && o.body.1 < rf.body.1)
                .map(|(_, o)| (o.sig_start, o.body.1 + 1))
                .collect();
            // Detach spawn-closure bodies into synthetic root functions.
            let spawned = spawn_closure_spans(code, rf.body, &skip);
            skip.extend(spawned.iter().copied());
            let params = split_top(&rf.params);
            let env: HashMap<String, String> =
                params.iter().copied().filter_map(typed_binding).collect();
            let mut body = Body {
                path,
                code,
                lines: &lines,
                end: rf.body.1,
                impl_type: rf.impl_type.as_deref(),
                generics: &rf.generics,
                env: env.clone(),
                cur_let: None,
            };
            let events = self.scan_events(&mut body, rf.body.0 + 1, &skip);
            let qname = match &rf.impl_type {
                Some(t) => format!("{t}::{}", rf.name),
                None => rf.name.clone(),
            };
            // `self`, `&'a mut self`, `mut self`, `self: Arc<Self>`.
            let first = peel(params[0]);
            self.stats.functions += 1;
            self.fns.push(FnDef {
                name: rf.name.clone(),
                impl_type: rf.impl_type.clone(),
                qname: qname.clone(),
                file: path.to_string(),
                takes_self: read_ident(first.strip_prefix("mut ").unwrap_or(first), 0) == "self",
                returns_guard: returns_guard(&rf.ret),
                events,
            });
            for (k, span) in spawned.iter().enumerate() {
                // The closure sees the enclosing fn's parameters.
                body.end = span.1;
                body.env = env.clone();
                body.cur_let = None;
                let events = self.scan_events(&mut body, span.0, &[]);
                self.stats.functions += 1;
                self.fns.push(FnDef {
                    name: format!("{}::{{spawn#{k}}}", rf.name),
                    impl_type: rf.impl_type.clone(),
                    qname: format!("{qname}::{{spawn#{k}}}"),
                    file: path.to_string(),
                    takes_self: false,
                    returns_guard: false,
                    events,
                });
            }
        }
    }

    /// The core body scanner: one linear pass emitting [`Event`]s.
    fn scan_events(&mut self, b: &mut Body, start: usize, skip: &[(usize, usize)]) -> Vec<Event> {
        let (code, end) = (b.code, b.end);
        let bytes = code.as_bytes();
        let mut events = Vec::new();
        let mut i = start;
        while i < end {
            if let Some((_, e)) = skip.iter().copied().find(|&(s, e)| s <= i && i < e) {
                i = e;
                continue;
            }
            match bytes[i] {
                b'{' => {
                    events.push(Event::Open {
                        line: line_of(b.lines, i),
                    });
                    i += 1;
                }
                b'}' => {
                    events.push(Event::Close {
                        line: line_of(b.lines, i),
                    });
                    i += 1;
                }
                b';' => {
                    b.cur_let = None;
                    i += 1;
                }
                c if is_ident(c) && (i == 0 || !is_ident(bytes[i - 1])) => {
                    let word_start = i;
                    while i < end && is_ident(bytes[i]) {
                        i += 1;
                    }
                    if &code[word_start..i] == "let" {
                        b.cur_let = parse_let_binding(code, i, end).map(|(name, ty, deref)| {
                            match ty {
                                Some(t) => b.env.insert(name.clone(), t),
                                None => b.env.remove(&name),
                            };
                            (name, deref)
                        });
                        continue;
                    }
                    // Identifier followed by `(` (possibly with `::<..>`
                    // turbofish) is a call of some shape.
                    let mut after = skip_ws(bytes, i, end);
                    if code[after..].starts_with("::<") {
                        if let Some(close) = match_delim(code, after + 2, end) {
                            after = skip_ws(bytes, close + 1, end);
                        }
                    }
                    if bytes.get(after) != Some(&b'(') {
                        continue;
                    }
                    // Macros (`foo!(`) never reach here: `!` breaks the
                    // ident+`(` adjacency check above.
                    if let Some(e) = self.classify_call(b, word_start, i, after) {
                        events.push(e);
                    }
                    // Do not consume the args: nested calls inside them must
                    // also be seen. Continue right after the open paren.
                    i = after + 1;
                }
                _ => i += 1,
            }
        }
        events
    }

    /// Classify `word(` at `word = code[start..end]`, open paren at `open`.
    fn classify_call(
        &mut self,
        b: &mut Body,
        start: usize,
        end: usize,
        open: usize,
    ) -> Option<Event> {
        let code = b.code;
        let bytes = code.as_bytes();
        let word = &code[start..end];
        let line = line_of(b.lines, start);
        const KEYWORDS: [&str; 14] = [
            "if", "match", "while", "for", "loop", "return", "fn", "move", "in", "as", "where",
            "else", "break", "continue",
        ];
        const CTORS: [&str; 6] = ["Some", "Ok", "Err", "None", "Box", "Vec"];
        if KEYWORDS.contains(&word) {
            return None;
        }
        let arg = skip_ws(bytes, open + 1, b.end);
        if word == "drop" {
            let name = read_ident(code, arg);
            return (!name.is_empty()).then_some(Event::Drop { name, line });
        }
        // What precedes the identifier decides the call shape.
        let before = prev_non_ws(bytes, start);
        let is_method = before.is_some_and(|j| bytes[j] == b'.');
        let qual = if !is_method
            && before.is_some_and(|j| j >= 1 && bytes[j] == b':' && bytes[j - 1] == b':')
        {
            prev_non_ws(bytes, before.unwrap() - 1).and_then(|j| {
                let q_end = j + 1;
                let q_start = ident_start(bytes, q_end);
                (q_start < q_end).then(|| code[q_start..q_end].to_string())
            })
        } else {
            None
        };
        // Binding: the call is the entire RHS of the active `let`.
        let bound = match (&b.cur_let, match_delim(code, open, b.end)) {
            (Some((name, false)), Some(c)) => {
                let mut t = skip_ws(bytes, c + 1, b.end);
                if bytes.get(t) == Some(&b'?') {
                    t = skip_ws(bytes, t + 1, b.end);
                }
                (bytes.get(t) == Some(&b';')).then(|| name.clone())
            }
            _ => None,
        };
        let block = |what: String| Some(Event::Block { what, line });
        if !is_method {
            // Free or associated call.
            if word == "sleep" && qual.as_deref() == Some("thread") {
                return block("thread::sleep".into());
            }
            // `Ordered*::new` is a lock construction, not a call.
            if CTORS.contains(&word)
                || word == "spawn"
                || qual.as_ref().is_some_and(|q| q.starts_with("Ordered"))
            {
                return None;
            }
            self.stats.call_sites += 1;
            return Some(Event::Call {
                name: word.to_string(),
                qual,
                recv: None,
                bound,
                moved: moved_args(code, open, b.end),
                line,
            });
        }
        let segs = receiver_chain(code, before.unwrap());
        let tail = segs.as_ref().and_then(|s| s.last()).map(Seg::name);
        match word {
            _ if LOCK_METHODS.contains(&word) => {
                let lock = tail.and_then(|n| self.lookup_lock(b.path, n));
                if lock.is_none() && (word == "lock" || word == "try_lock") {
                    self.stats.unresolved_lock_receivers += 1;
                }
                // `let x = *self.cfg.lock();` copies out: the guard is a
                // statement temporary.
                let bound = bound.filter(|_| !b.cur_let.as_ref().is_some_and(|(_, d)| *d));
                // An unmatched receiver still holds a guard when bound by
                // `let` (`.read()`/`.write()` with arguments are io calls).
                if lock.is_none() && (bound.is_none() || bytes.get(arg) != Some(&b')')) {
                    return None;
                }
                if let Some(name) = &bound {
                    let inner = match lock {
                        Some(id) => self.locks[id].inner.clone(),
                        None => segs
                            .as_deref()
                            .and_then(|s| self.chain_type(b, s))
                            .and_then(|t| lock_inner(&t)),
                    };
                    match inner {
                        Some(t) => b.env.insert(name.clone(), t),
                        None => b.env.remove(name),
                    };
                }
                Some(Event::Acquire {
                    lock,
                    label: tail.unwrap_or(word).to_string(),
                    bound,
                    blocking: !word.starts_with("try_"),
                    line,
                })
            }
            "wait" | "wait_for" | "wait_timeout" | "wait_while" => {
                let mut_ref = code[arg..].starts_with("&mut ");
                if tail.is_some_and(|n| self.condvars.contains(n)) || mut_ref {
                    let guard = mut_ref
                        .then(|| read_ident(code, skip_ws(bytes, arg + 5, b.end)))
                        .filter(|g| !g.is_empty());
                    return Some(Event::CondvarWait { guard, line });
                }
                // `Ticket::wait()` and friends: parks the thread.
                block(format!(".{word}()"))
            }
            "read_blocking" | "write_blocking" | "recv_timeout" | "recv_deadline" => {
                block(format!(".{word}()"))
            }
            // Empty-arg `.recv()` / `.join()` are the channel/thread
            // blockers; `path.join("x")` etc. are not.
            "recv" | "join" if bytes.get(arg) == Some(&b')') => block(format!(".{word}()")),
            "spawn" => None, // closure already detached; spawning never blocks
            _ => {
                self.stats.call_sites += 1;
                Some(Event::Call {
                    name: word.to_string(),
                    qual: None,
                    recv: Some(self.recv_of(b, segs.as_deref())),
                    bound,
                    moved: moved_args(code, open, b.end),
                    line,
                })
            }
        }
    }

    /// A receiver name resolves to a lock when its file declares one with
    /// that name, or exactly one file anywhere does. Ambiguous cross-file
    /// names (several crates each have an `inner` lock) do NOT fall back —
    /// guessing a rank would manufacture false inversions.
    fn lookup_lock(&self, file: &str, name: &str) -> Option<LockId> {
        if let Some(&id) = self
            .lock_by_file_name
            .get(&(file.to_string(), name.to_string()))
        {
            return Some(id);
        }
        let mut it = self
            .locks
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == name)
            .map(|(i, _)| i);
        match (it.next(), it.next()) {
            (Some(id), None) => Some(id),
            _ => None,
        }
    }

    /// The receiver type a method call is resolved on. `self` is the
    /// caller's impl type; anything else is typed from what the source
    /// states (see [`Builder::chain_type`]).
    fn recv_of(&self, b: &Body, segs: Option<&[Seg]>) -> Recv {
        match segs {
            Some([Seg::Name(s)]) if s == "self" => {
                b.impl_type.map_or(Recv::Any, |t| Recv::Type(t.to_string()))
            }
            Some(segs) => self
                .chain_type(b, segs)
                .map_or(Recv::Any, |t| self.classify(b, &t)),
            None => Recv::Any,
        }
    }

    /// The type a receiver chain evaluates to, where the source states it:
    /// a local's annotation (or a guard's lock), a `static`'s declared
    /// type, `self`, a struct field's declared type, and a lock's declared
    /// inner type through `.lock()` and friends. Anything else (a call's
    /// return, an index) is unknown.
    fn chain_type(&self, b: &Body, segs: &[Seg]) -> Option<String> {
        let mut ty: Option<String> = None;
        for (k, seg) in segs.iter().enumerate() {
            ty = match seg {
                Seg::Name(n) if k == 0 && n == "self" => b.impl_type.map(str::to_string),
                Seg::Name(n) if k == 0 => b
                    .env
                    .get(n)
                    .cloned()
                    .or_else(|| self.static_type(b.path, n)),
                Seg::Name(field) => self.field_type(b.path, &ty?, field),
                Seg::Call(m) if k > 0 && LOCK_METHODS.contains(&m.as_str()) => self
                    .lookup_lock(b.path, segs[k - 1].name())
                    .and_then(|id| self.locks[id].inner.clone())
                    .or_else(|| lock_inner(ty.as_deref()?)),
                _ => None,
            };
        }
        ty
    }

    /// The declared type of `ty`'s `field`, when `ty` names a workspace
    /// struct (the caller's file's own, else the only one by that name).
    /// A field typed by the struct's own generic parameter is unknown.
    fn field_type(&self, file: &str, ty: &str, field: &str) -> Option<String> {
        let defs = self.structs.get(base_name(peel(ty)))?;
        let def = defs
            .iter()
            .find(|d| d.file == file)
            .or(if defs.len() == 1 { defs.first() } else { None })?;
        let t = def.fields.get(field)?;
        let generic = def.generics.iter().any(|g| g == base_name(peel(t)));
        (!generic).then(|| t.clone())
    }

    /// The declared type of the `static` named `name`: the caller's file's
    /// own, else the only one by that name.
    fn static_type(&self, file: &str, name: &str) -> Option<String> {
        let decls = self.statics.get(name)?;
        let (_, ty) = decls
            .iter()
            .find(|(f, _)| f == file)
            .or(if decls.len() == 1 {
                decls.first()
            } else {
                None
            })?;
        Some(ty.clone())
    }

    /// What a stated type means for method resolution, after peeling
    /// references, `Arc`, `Box` and lock guards.
    fn classify(&self, b: &Body, ty: &str) -> Recv {
        let t = peel(ty);
        if t.starts_with("dyn ") || t.starts_with("impl ") {
            return Recv::Any;
        }
        match base_name(t) {
            "Self" => b.impl_type.map_or(Recv::Any, |t| Recv::Type(t.to_string())),
            n if b.generics.iter().any(|g| g == n) || self.traits.contains(n) => Recv::Any,
            n if self.types.contains(n) => Recv::Type(n.to_string()),
            _ => Recv::Foreign,
        }
    }

    fn finish(mut self) -> Model {
        self.stats.locks = self.locks.len();
        let mut fns_by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (id, f) in self.fns.iter().enumerate() {
            fns_by_name.entry(f.name.clone()).or_default().push(id);
        }
        Model {
            fns: self.fns,
            locks: self.locks,
            stats: self.stats,
            fns_by_name,
        }
    }
}

// --------------------------------------------------------------------------
// text helpers

pub fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_starts(code: &str) -> Vec<usize> {
    let mut v = vec![0];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            v.push(i + 1);
        }
    }
    v
}

fn line_of(lines: &[usize], idx: usize) -> usize {
    lines.partition_point(|&s| s <= idx)
}

fn skip_ws(bytes: &[u8], mut i: usize, end: usize) -> usize {
    while i < end && (bytes[i] as char).is_whitespace() {
        i += 1;
    }
    i
}

fn prev_non_ws(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        if !(bytes[j] as char).is_whitespace() {
            return Some(j);
        }
    }
    None
}

fn ident_start(bytes: &[u8], end: usize) -> usize {
    let mut s = end;
    while s > 0 && is_ident(bytes[s - 1]) {
        s -= 1;
    }
    s
}

fn read_ident(code: &str, i: usize) -> String {
    code[i..]
        .chars()
        .take_while(|c| is_ident(*c as u8))
        .collect()
}

/// The matching close for the `(`, `[`, `{` or `<` at `open` (the `>` of a
/// `->` inside an `Fn()` type does not close an angle).
fn match_delim(code: &str, open: usize, end: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let (o, c) = match bytes.get(open)? {
        b'(' => (b'(', b')'),
        b'[' => (b'[', b']'),
        b'{' => (b'{', b'}'),
        _ => (b'<', b'>'),
    };
    let mut depth = 0i32;
    for (i, &x) in bytes.iter().enumerate().take(end).skip(open) {
        if x == o {
            depth += 1;
        } else if x == c && !(c == b'>' && i > 0 && bytes[i - 1] == b'-') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The matching open for the `)` or `]` at `close`.
fn match_back(bytes: &[u8], close: usize) -> Option<usize> {
    let (o, c) = if bytes[close] == b')' {
        (b'(', b')')
    } else {
        (b'[', b']')
    };
    let mut depth = 0i32;
    for k in (0..=close).rev() {
        if bytes[k] == c {
            depth += 1;
        } else if bytes[k] == o {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Split at depth-0 commas; depth counts `()`, `[]`, `{}` and `<>` (the
/// `>` of `->` excluded).
fn split_top(s: &str) -> Vec<&str> {
    let b = s.as_bytes();
    let (mut out, mut depth, mut start) = (Vec::new(), 0i32, 0);
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'{' | b'<' => depth += 1,
            b'>' if i > 0 && b[i - 1] == b'-' => {}
            b')' | b']' | b'}' | b'>' => depth -= 1,
            b',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// `name: Type` (a field, parameter or annotated binding, possibly behind
/// `pub`, `mut` or attributes) → `(name, Type)`. Patterns and `self` yield
/// `None`.
fn typed_binding(item: &str) -> Option<(String, String)> {
    let b = item.as_bytes();
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' | b'[' | b'<' => depth += 1,
            b')' | b']' | b'>' => depth -= 1,
            b':' if depth == 0 && b.get(i + 1) != Some(&b':') && (i == 0 || b[i - 1] != b':') => {
                let end = item[..i].trim_end().len();
                let name = &item[ident_start(b, end)..end];
                return (!name.is_empty() && name != "self" && name != "_")
                    .then(|| (name.to_string(), item[i + 1..].trim().to_string()));
            }
            _ => {}
        }
    }
    None
}

/// Names declared by the `<..>` at `i`, if there is one, and the index
/// just past it: `<'a, R: Read, const N: usize>` → `[R, N]`.
fn generic_names(code: &str, i: usize) -> (Vec<String>, usize) {
    let i = skip_ws(code.as_bytes(), i, code.len());
    if code.as_bytes().get(i) != Some(&b'<') {
        return (Vec::new(), i);
    }
    let Some(close) = match_delim(code, i, code.len()) else {
        return (Vec::new(), i);
    };
    let names = split_top(&code[i + 1..close])
        .into_iter()
        .map(|g| g.trim().trim_start_matches("const "))
        .filter(|g| !g.starts_with('\''))
        .map(|g| read_ident(g, 0))
        .filter(|g| !g.is_empty())
        .collect();
    (names, close + 1)
}

const GUARDS: [&str; 3] = [
    "OrderedMutexGuard",
    "OrderedRwLockReadGuard",
    "OrderedRwLockWriteGuard",
];

/// Pointers and guards deref to their (last) type argument.
fn derefs(base: &str) -> bool {
    ["Arc", "Box", "Rc"].contains(&base) || GUARDS.contains(&base)
}

/// Strip references, lifetimes, and the pointers and guards that deref to
/// their content: `&'a mut Arc<Foo>` → `Foo`.
fn peel(mut t: &str) -> &str {
    loop {
        t = t.trim();
        if let Some(r) = t.strip_prefix('&') {
            let r = r.trim_start();
            let r = match r.strip_prefix('\'') {
                Some(lt) => lt.trim_start_matches(|c: char| is_ident(c as u8)),
                None => r,
            };
            t = r.trim_start().strip_prefix("mut ").unwrap_or(r);
            continue;
        }
        match t.find('<') {
            Some(open) if t.ends_with('>') && derefs(base_name(t)) => {
                t = split_top(&t[open + 1..t.len() - 1]).pop().unwrap_or("");
            }
            _ => return t,
        }
    }
}

/// The last path segment of a type, before its generic arguments:
/// `telemetry::Histogram` → `Histogram`, `HashMap<K, V>` → `HashMap`.
fn base_name(t: &str) -> &str {
    let path = &t[..t.find(['<', '(', ' ']).unwrap_or(t.len())];
    path.rsplit("::").next().unwrap_or(path)
}

/// The `T` of an `Ordered{Mutex,RwLock}<T>` mentioned in `ty`.
fn lock_inner(ty: &str) -> Option<String> {
    let open = ["OrderedMutex<", "OrderedRwLock<"]
        .iter()
        .find_map(|p| ty.find(p).map(|i| i + p.len() - 1))?;
    let close = match_delim(ty, open, ty.len())?;
    Some(ty[open + 1..close].trim().to_string())
}

/// A lock's inner type from a `name: ..Ordered{Mutex,RwLock}<T>..`
/// declaration in its file (struct field, `static`, annotated `let`).
fn declared_inner(code: &str, name: &str) -> Option<String> {
    let bytes = code.as_bytes();
    code.match_indices(name).find_map(|(idx, _)| {
        let end = idx + name.len();
        if (idx > 0 && is_ident(bytes[idx - 1])) || bytes.get(end).is_some_and(|&b| is_ident(b)) {
            return None;
        }
        let c = skip_ws(bytes, end, code.len());
        if bytes.get(c) != Some(&b':') || bytes.get(c + 1) == Some(&b':') {
            return None;
        }
        let rest = &code[c + 1..];
        lock_inner(split_top(&rest[..rest.find([';', '{', '}']).unwrap_or(rest.len())])[0])
    })
}

/// `Type` when a constructor's value argument names it:
/// `OrderedMutex::new(rank, telemetry::Histogram::new())` → `Histogram`.
fn ctor_value_type(code: &str, after_new: usize) -> Option<String> {
    let open = skip_ws(code.as_bytes(), after_new, code.len());
    let close = match_delim(code, open, code.len())?;
    let value = split_top(&code[open + 1..close]).get(1)?.trim();
    let path = &value[..value
        .find(|c: char| !(is_ident(c as u8) || c == ':'))
        .unwrap_or(value.len())];
    let ty = path
        .split("::")
        .filter(|s| s.starts_with(|c: char| c.is_ascii_uppercase()))
        .last()?;
    // `Arc::new(x)` and friends deref to a type the path does not name.
    (!derefs(ty)).then(|| ty.to_string())
}

fn returns_guard(ret: &str) -> bool {
    GUARDS.iter().any(|g| ret.contains(g))
}

fn returns_lock(ret: &str) -> bool {
    ret.contains("OrderedMutex<") || ret.contains("OrderedRwLock<")
}

/// Parse `let [mut] name [: Type]` directly after the `let` keyword;
/// returns the binding, its annotation, and whether the RHS starts with
/// `*` (deref copy-out). Complex patterns (`let (a, b) = ..`) yield `None`.
fn parse_let_binding(
    code: &str,
    after_let: usize,
    end: usize,
) -> Option<(String, Option<String>, bool)> {
    let bytes = code.as_bytes();
    let mut i = skip_ws(bytes, after_let, end);
    if code[i..].starts_with("mut ") {
        i = skip_ws(bytes, i + 4, end);
    }
    let name = read_ident(code, i);
    if name.is_empty() || name == "_" {
        return None;
    }
    let from = i + name.len();
    // Optional type ascription: skip to `=` at angle depth 0.
    let mut depth = 0i32;
    for i in from..end {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if bytes[i - 1] != b'-' => depth -= 1,
            b'=' if depth == 0 && bytes.get(i + 1) != Some(&b'=') => {
                let ty = code[from..i]
                    .trim()
                    .strip_prefix(':')
                    .map(|t| t.trim().to_string());
                let r = skip_ws(bytes, i + 1, end);
                return Some((name, ty, bytes.get(r) == Some(&b'*')));
            }
            b';' | b'{' => return None,
            _ => {}
        }
    }
    None
}

/// The receiver chain ending at the `.` at `dot`, outermost first
/// (`self.inner.lock().` → `self`, `inner`, `lock()`; `rows[i].` →
/// `rows` opaque). `None` when a link is no plain name, field or call
/// (a path call `Type::f().`, a parenthesised expression, a turbofish).
fn receiver_chain(code: &str, dot: usize) -> Option<Vec<Seg>> {
    let bytes = code.as_bytes();
    let mut segs = Vec::new();
    let mut j = dot;
    loop {
        let mut e = prev_non_ws(bytes, j)?;
        let mut opaque = false;
        while matches!(bytes[e], b'?' | b']') {
            opaque = true;
            let from = if bytes[e] == b'?' {
                e
            } else {
                match_back(bytes, e)?
            };
            e = prev_non_ws(bytes, from)?;
        }
        let call = bytes[e] == b')';
        if call {
            e = prev_non_ws(bytes, match_back(bytes, e)?)?;
        }
        let s = ident_start(bytes, e + 1);
        if s > e {
            return None;
        }
        let name = code[s..=e].to_string();
        segs.push(match (opaque, call) {
            (true, _) => Seg::Opaque(name),
            (false, true) => Seg::Call(name),
            (false, false) => Seg::Name(name),
        });
        match prev_non_ws(bytes, s) {
            Some(p) if bytes[p] == b'.' => j = p,
            _ => break,
        }
    }
    segs.reverse();
    Some(segs)
}

/// Statement-prefix scan for the binding a construction flows into: the
/// nearest preceding `field:`, `let name =`, or `static NAME` within the
/// same statement (bounded by `;`, `{`, `}` and a few hundred bytes).
fn binding_name_before(code: &str, idx: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let lo = idx.saturating_sub(400);
    let mut s = idx;
    while s > lo {
        match bytes[s - 1] {
            b';' | b'{' | b'}' => break,
            _ => s -= 1,
        }
    }
    let prefix = &code[s..idx];
    // `field: OrderedMutex::new(..)` / `name: OrderedCondvar,` — the most
    // specific shape: a trailing `name:` right before the construction.
    let trimmed = prefix.trim_end();
    let tail_ident = |t: &str| {
        let t = t.trim_end();
        t[ident_start(t.as_bytes(), t.len())..].to_string()
    };
    if let Some(rest) = trimmed.strip_suffix(':') {
        let name = tail_ident(rest);
        if !name.is_empty() {
            return Some(name);
        }
    }
    for kw in ["static ", "let "] {
        if let Some(p) = prefix.rfind(kw) {
            let rest = prefix[p + kw.len()..].trim_start();
            let name = read_ident(rest.strip_prefix("mut ").unwrap_or(rest), 0);
            if !name.is_empty() && name != "_" {
                return Some(name);
            }
        }
    }
    // `name = OrderedMutex::new(..)` re-assignment / `NAME: Ordered.. =`.
    if trimmed.ends_with('=') && !trimmed.ends_with("==") {
        let rest = trimmed[..trimmed.len() - 1].trim_end();
        // Skip over a type ascription: `NAME: OrderedMutex<()> =`.
        let name = tail_ident(rest.rfind(':').map(|c| &rest[..c]).unwrap_or(rest));
        if !name.is_empty() {
            return Some(name);
        }
    }
    None
}

/// `LockRank::R` (optionally path-prefixed) right after `new`'s `(`.
fn rank_after_new(code: &str, after_new: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut i = skip_ws(bytes, after_new, code.len());
    if bytes.get(i) != Some(&b'(') {
        return None;
    }
    i = skip_ws(bytes, i + 1, code.len());
    // Allow `gnndrive_sync::LockRank::R` and plain `LockRank::R`.
    loop {
        let word = read_ident(code, i);
        if word.is_empty() {
            return None;
        }
        i += word.len();
        if word == "LockRank" {
            if !code[i..].starts_with("::") {
                return None;
            }
            let r = read_ident(code, i + 2);
            return (!r.is_empty()).then_some(r);
        }
        if code[i..].starts_with("::") {
            i += 2;
            continue;
        }
        return None;
    }
}

/// Top-level bare-identifier arguments of the call whose `(` is at `open`
/// (by-value guard moves: `self.readahead(inner, file, ..)` consumes
/// `inner`). `&`/`&mut` borrows are not moves.
fn moved_args(code: &str, open: usize, end: usize) -> Vec<String> {
    let Some(close) = match_delim(code, open, end) else {
        return Vec::new();
    };
    let inner = &code[open + 1..close];
    let bytes = inner.as_bytes();
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for i in 0..=inner.len() {
        let flush = i == inner.len() || (bytes[i] == b',' && depth == 0);
        if i < inner.len() {
            match bytes[i] {
                b'(' | b'[' => depth += 1,
                b')' | b']' => depth -= 1,
                _ => {}
            }
        }
        if flush {
            let arg = inner[start..i].trim();
            if !arg.is_empty()
                && arg.bytes().all(is_ident)
                && !arg.as_bytes()[0].is_ascii_digit()
                && !["self", "true", "false"].contains(&arg)
            {
                out.push(arg.to_string());
            }
            start = i + 1;
        }
    }
    out
}

/// Spans of closure bodies handed to `spawn(..)` calls inside `body`
/// (excluding `skip` ranges): these run on other threads.
fn spawn_closure_spans(
    code: &str,
    body: (usize, usize),
    skip: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (idx, _) in code[body.0..body.1].match_indices("spawn") {
        let at = body.0 + idx;
        if skip.iter().any(|(s, e)| *s <= at && at < *e) {
            continue;
        }
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        let mut i = at + 5;
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        let Some(close) = match_delim(code, i, body.1) else {
            continue;
        };
        i = skip_ws(bytes, i + 1, close);
        if code[i..].starts_with("move") {
            i = skip_ws(bytes, i + 4, close);
        }
        if bytes.get(i) != Some(&b'|') {
            continue;
        }
        // Closure header `|..|`: find the closing `|`.
        let mut j = i + 1;
        while j < close && bytes[j] != b'|' {
            j += 1;
        }
        if j >= close {
            continue;
        }
        out.push((j + 1, close));
    }
    out
}

// --------------------------------------------------------------------------
// function extraction

/// Locate every `fn` item (including nested ones) with its impl context.
fn extract_fns(code: &str) -> Vec<RawFn> {
    let bytes = code.as_bytes();
    let mut out: Vec<RawFn> = Vec::new();
    // (type name, generics, depth at which the impl body opened)
    let mut impl_stack: Vec<(Option<String>, Vec<String>, i32)> = Vec::new();
    // (fn index in `out`, depth at which the body opened)
    let mut fn_stack: Vec<(usize, i32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth -= 1;
                while let Some(&(fi, d)) = fn_stack.last() {
                    if depth < d {
                        out[fi].body.1 = i;
                        fn_stack.pop();
                    } else {
                        break;
                    }
                }
                while impl_stack.last().is_some_and(|(_, _, d)| depth < *d) {
                    impl_stack.pop();
                }
                i += 1;
            }
            _ if is_ident(b) && (i == 0 || !is_ident(bytes[i - 1])) => {
                let start = i;
                while i < bytes.len() && is_ident(bytes[i]) {
                    i += 1;
                }
                let word = &code[start..i];
                if (word == "impl" || word == "trait") && fn_stack.is_empty() {
                    // `impl<T> Trait for Type {` / `impl Type {` /
                    // `trait Name<T> {` (default methods belong to the trait).
                    let Some(open_rel) = code[i..].find('{') else {
                        continue;
                    };
                    let header = &code[i..i + open_rel];
                    if header.contains(';') {
                        continue;
                    }
                    let (ty, generics) = if word == "trait" {
                        let at = skip_ws(bytes, i, code.len());
                        let name = read_ident(code, at);
                        let generics = generic_names(code, at + name.len()).0;
                        ((!name.is_empty()).then_some(name), generics)
                    } else {
                        (impl_type_name(header), generic_names(code, i).0)
                    };
                    // The `{` will be consumed by the main loop; body depth
                    // is the depth after it opens.
                    impl_stack.push((ty, generics, depth + 1));
                } else if word == "fn" {
                    if let Some((name, mut generics, params, ret, body_open)) =
                        parse_fn_sig(code, i)
                    {
                        let fi = out.len();
                        let (impl_type, impl_generics) = match impl_stack.last() {
                            Some((t, g, _)) => (t.clone(), g.clone()),
                            None => (None, Vec::new()),
                        };
                        generics.extend(impl_generics);
                        out.push(RawFn {
                            name,
                            impl_type,
                            generics,
                            params,
                            sig_start: start,
                            body: (body_open, code.len().saturating_sub(1)),
                            ret,
                        });
                        fn_stack.push((fi, depth + 1));
                        depth += 1;
                        i = body_open + 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// `impl<T> Trait for Type<..>` / `impl Type` → the implementing type name.
fn impl_type_name(header: &str) -> Option<String> {
    let rest = match header.find(" for ") {
        Some(p) => &header[p + 5..],
        // Skip leading generics `<..>`.
        None => &header[generic_names(header, 0).1..],
    };
    // First path's last segment before `<`/whitespace/`where`.
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| c == '<' || c.is_whitespace() || c == '{')
        .unwrap_or(rest.len());
    let path = &rest[..end];
    let name = path.rsplit("::").next().unwrap_or(path);
    (!name.is_empty()).then(|| name.to_string())
}

/// `(name, generic names, params, return type text, body-open index)`.
type FnSig = (String, Vec<String>, String, String, usize);

/// From just after the `fn` keyword, parse `name <..> ( .. ) [-> ret] {`,
/// or `None` for signature-only declarations (trait methods without
/// bodies).
fn parse_fn_sig(code: &str, after_fn: usize) -> Option<FnSig> {
    let bytes = code.as_bytes();
    let at = skip_ws(bytes, after_fn, code.len());
    let name = read_ident(code, at);
    if name.is_empty() {
        return None;
    }
    let (generics, i) = generic_names(code, at + name.len());
    let i = skip_ws(bytes, i, code.len());
    if bytes.get(i) != Some(&b'(') {
        return None;
    }
    let close = match_delim(code, i, code.len())?;
    // Scan from after the params to the body `{` or a `;`, capturing the
    // return type. `{` inside `<..>` (e.g. `Foo<{N}>`) is not a concern in
    // this workspace; `where` clauses pass through harmlessly.
    let mut j = close + 1;
    let mut ret_start: Option<usize> = None;
    let mut angle = 0i32;
    while j < bytes.len() {
        match bytes[j] {
            b'-' if bytes.get(j + 1) == Some(&b'>') => {
                if ret_start.is_none() {
                    ret_start = Some(j + 2);
                }
                j += 2;
                continue;
            }
            b'<' => angle += 1,
            b'>' => angle -= 1,
            b'{' if angle <= 0 => {
                let ret = ret_start
                    .map(|r| code[r..j].trim().to_string())
                    .unwrap_or_default();
                let params = code[i + 1..close].to_string();
                return Some((name, generics, params, ret, j));
            }
            b';' if angle <= 0 => return None,
            _ => {}
        }
        j += 1;
    }
    None
}
