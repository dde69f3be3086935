//! Interprocedural lock-order & blocking-reachability analysis
//! (`cargo xtask deadlock`).
//!
//! Consumes the source model ([`crate::model`]) and call graph
//! ([`crate::callgraph`]) and produces three artifacts (DESIGN.md §12):
//!
//! * a **static lock-order graph** — one edge per "lock B acquired while a
//!   guard on lock A may be live", including acquisitions reached through
//!   calls — checked for cycles and for consistency with the `LockRank`
//!   lattice declared in `crates/sync` (the analyzer parses the
//!   machine-readable `RANK_TABLE` out of that crate's source, and a unit
//!   test over there pins the table to the enum, so neither side can
//!   drift);
//! * **blocking-reachability diagnostics** — a finding whenever a function
//!   transitively reachable while a guard is live may park the thread
//!   (sleep, blocking SSD I/O, channel recv, thread join, `Ticket::wait`,
//!   condvar waits), with the full call chain printed rustc-style;
//! * **rank findings** — acquisitions whose rank exceeds a held rank
//!   (`lock-order-inversion`, the static twin of the runtime checker) and
//!   construction sites naming ranks the table does not know
//!   (`unknown-rank`).
//!
//! Findings can be suppressed via `xtask/deadlock-allow.toml`, which
//! mirrors `lint-allow.toml`: every entry carries a mandatory written
//! justification, and entries that no longer match any finding fail the
//! run (`stale-allow`) so justifications cannot rot.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::path::Path;

use crate::callgraph::{self, CallGraph, Summaries};
use crate::lint;
use crate::model::{Event, FnDef, FnId, LockId, Model};

// --------------------------------------------------------------------------
// rank table

/// Parse the machine-readable `RANK_TABLE` out of `crates/sync`'s source.
/// Works on the raw text (string literals carry the names), and validates
/// shape: non-empty, unique names, strictly ascending values.
pub fn parse_rank_table(sync_src: &str) -> Result<Vec<(String, u8)>, String> {
    let decl = sync_src
        .find("pub const RANK_TABLE")
        .ok_or("crates/sync does not declare `pub const RANK_TABLE`")?;
    let open = sync_src[decl..]
        .find("= &[")
        .map(|p| decl + p + 4)
        .ok_or("RANK_TABLE declaration has no `= &[` initializer")?;
    let close = sync_src[open..]
        .find(']')
        .map(|p| open + p)
        .ok_or("RANK_TABLE initializer is not terminated")?;
    let mut entries: Vec<(String, u8)> = Vec::new();
    let mut rest = &sync_src[open..close];
    while let Some(p) = rest.find('(') {
        let q = rest[p..]
            .find(')')
            .ok_or("unbalanced parenthesis in RANK_TABLE")?;
        let inner = &rest[p + 1..p + q];
        let (name, val) = inner
            .split_once(',')
            .ok_or_else(|| format!("malformed RANK_TABLE entry `{inner}`"))?;
        let name = name.trim().trim_matches('"').to_string();
        let val: u8 = val
            .trim()
            .parse()
            .map_err(|_| format!("non-numeric rank value in RANK_TABLE entry `{inner}`"))?;
        entries.push((name, val));
        rest = &rest[p + q + 1..];
    }
    if entries.is_empty() {
        return Err("RANK_TABLE is empty".into());
    }
    let mut names = HashSet::new();
    for w in entries.windows(2) {
        if w[1].1 <= w[0].1 {
            return Err(format!(
                "RANK_TABLE values not strictly ascending at `{}`",
                w[1].0
            ));
        }
    }
    for (n, _) in &entries {
        if !names.insert(n.clone()) {
            return Err(format!("duplicate RANK_TABLE name `{n}`"));
        }
    }
    Ok(entries)
}

// --------------------------------------------------------------------------
// allowlist

/// One justified suppression in `xtask/deadlock-allow.toml`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    /// Qualified function name (`Type::fn`); omitted = any in the file.
    pub function: Option<String>,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for stale-allow diagnostics.
    pub line: usize,
}

#[derive(Debug, Default, Clone)]
pub struct DeadlockAllow {
    pub entries: Vec<AllowEntry>,
}

impl DeadlockAllow {
    /// Minimal TOML subset: `[[allow]]` tables with string keys `rule`,
    /// `path`, optional `function`, and a mandatory non-trivial `reason`.
    pub fn parse(text: &str) -> Result<DeadlockAllow, String> {
        struct Partial {
            rule: Option<String>,
            path: Option<String>,
            function: Option<String>,
            reason: Option<String>,
            line: usize,
        }
        let mut out = DeadlockAllow::default();
        let mut cur: Option<Partial> = None;
        let flush = |cur: &mut Option<Partial>, out: &mut DeadlockAllow| -> Result<(), String> {
            if let Some(p) = cur.take() {
                let rule = p.rule.ok_or("[[allow]] entry missing `rule`")?;
                let path = p.path.ok_or("[[allow]] entry missing `path`")?;
                let reason = p.reason.ok_or("[[allow]] entry missing `reason`")?;
                if reason.trim().len() < 10 {
                    return Err(format!(
                        "[[allow]] entry for {path}: `reason` must be a real justification"
                    ));
                }
                out.entries.push(AllowEntry {
                    rule,
                    path,
                    function: p.function,
                    reason,
                    line: p.line,
                });
            }
            Ok(())
        };
        for (no, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                flush(&mut cur, &mut out)?;
                cur = Some(Partial {
                    rule: None,
                    path: None,
                    function: None,
                    reason: None,
                    line: no + 1,
                });
                continue;
            }
            let (key, val) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = \"value\"`", no + 1))?;
            let val = val
                .trim()
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| format!("line {}: value must be a quoted string", no + 1))?;
            let entry = cur
                .as_mut()
                .ok_or_else(|| format!("line {}: key outside [[allow]] table", no + 1))?;
            match key.trim() {
                "rule" => entry.rule = Some(val.to_string()),
                "path" => entry.path = Some(val.to_string()),
                "function" => entry.function = Some(val.to_string()),
                "reason" => entry.reason = Some(val.to_string()),
                other => return Err(format!("line {}: unknown key `{other}`", no + 1)),
            }
        }
        flush(&mut cur, &mut out)?;
        Ok(out)
    }
}

// --------------------------------------------------------------------------
// findings

#[derive(Debug, Clone)]
pub struct ChainStep {
    pub path: String,
    pub line: usize,
    pub note: String,
}

#[derive(Debug, Clone)]
pub struct Finding {
    /// `lock-order-inversion`, `lock-cycle`, `blocking-under-lock`,
    /// `unknown-rank`, or `stale-allow`.
    pub rule: &'static str,
    pub path: String,
    pub line: usize,
    /// Qualified name of the function the finding anchors to.
    pub function: String,
    pub message: String,
    /// Interprocedural witness, outermost frame first.
    pub chain: Vec<ChainStep>,
    pub help: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule, self.message)?;
        writeln!(
            f,
            "  --> {}:{} (in `{}`)",
            self.path, self.line, self.function
        )?;
        for (i, step) in self.chain.iter().enumerate() {
            writeln!(
                f,
                "   = note[{}]: {}:{}: {}",
                i + 1,
                step.path,
                step.line,
                step.note
            )?;
        }
        writeln!(f, "   = help: {}", self.help)
    }
}

/// One lock-order edge: `dst` acquired while a guard on `src` may be live.
#[derive(Debug, Clone)]
pub struct Edge {
    pub src: LockId,
    pub dst: LockId,
    pub path: String,
    pub line: usize,
    pub function: String,
    /// The acquisition parks (`lock`/`read`/`write`); `try_*` edges cannot
    /// deadlock and are excluded from cycle detection.
    pub blocking: bool,
    /// Callee the acquisition was reached through, if interprocedural.
    pub via: Option<String>,
}

#[derive(Debug, Default, Clone)]
pub struct AnalysisStats {
    pub files: usize,
    pub functions: usize,
    pub locks: usize,
    pub call_sites: usize,
    pub resolved_call_sites: usize,
    pub call_edges: usize,
    pub unresolved_lock_receivers: usize,
    pub dynamic_rank_sites: usize,
    pub lock_order_edges: usize,
}

pub struct Analysis {
    pub rank_table: Vec<(String, u8)>,
    /// `(name, file, line, ranks)` per lock, indexed by [`LockId`].
    pub locks: Vec<(String, String, usize, Vec<String>)>,
    pub edges: Vec<Edge>,
    pub findings: Vec<Finding>,
    pub suppressed: Vec<(Finding, String)>,
    pub stats: AnalysisStats,
}

// --------------------------------------------------------------------------
// the walk

/// A guard that may be live at the current program point.
struct Held {
    /// `let` binding, when there is one (enables `drop(g)` and moves).
    name: Option<String>,
    /// Possible lock identities (several when acquired through a helper
    /// whose summary spans multiple locks; empty = identity unknown).
    locks: Vec<LockId>,
    /// For messages: the lock name or `helper()` it came from.
    label: String,
    depth: i32,
    /// Unbound guards are statement temporaries: they expire once the walk
    /// moves past this line.
    temp_line: Option<usize>,
}

struct Ctx<'a> {
    model: &'a Model,
    cg: &'a CallGraph,
    sums: &'a Summaries,
    rank_of_name: HashMap<String, u8>,
}

impl Ctx<'_> {
    fn rank_of(&self, lock: LockId) -> Option<u8> {
        self.model
            .lock(lock)
            .ranks
            .iter()
            .filter_map(|r| self.rank_of_name.get(r).copied())
            .min()
    }

    fn rank_name(&self, r: u8) -> String {
        self.rank_of_name
            .iter()
            .find(|(_, v)| **v == r)
            .map(|(k, _)| k.clone())
            .unwrap_or_else(|| r.to_string())
    }

    fn held_rank(&self, h: &Held) -> Option<u8> {
        h.locks.iter().filter_map(|&l| self.rank_of(l)).min()
    }

    fn held_desc(&self, held: &[Held]) -> String {
        held.iter()
            .map(|h| match self.held_rank(h) {
                Some(r) => format!("`{}` ({})", h.label, self.rank_name(r)),
                None => format!("`{}`", h.label),
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

struct Sink {
    findings: Vec<Finding>,
    edges: Vec<Edge>,
    edge_seen: HashSet<(LockId, LockId, String, usize)>,
    finding_seen: HashSet<(&'static str, String, usize)>,
}

impl Sink {
    fn push_finding(&mut self, f: Finding) {
        if self.finding_seen.insert((f.rule, f.path.clone(), f.line)) {
            self.findings.push(f);
        }
    }
}

const HELP_BLOCKING: &str = "drop every guard (end its scope or drop(g)) before an operation \
     that can park the thread; a blocked lock holder stalls every contender";
const HELP_INVERSION: &str = "acquire locks in descending LockRank order (see crates/sync); \
     restructure so the higher-ranked lock is taken first, or drop the held guard";

/// Record the lock-order edges and inversion check for acquiring `lock`
/// while `held` guards may be live.
#[allow(clippy::too_many_arguments)]
fn note_acquire(
    ctx: &Ctx<'_>,
    f: &FnDef,
    held: &[Held],
    lock: LockId,
    blocking: bool,
    line: usize,
    via: Option<FnId>,
    sink: &mut Sink,
) {
    let via_name = via.map(|c| ctx.model.fn_def(c).qname.clone());
    let new_rank = ctx.rank_of(lock);
    for h in held {
        for &src in &h.locks {
            if sink.edge_seen.insert((src, lock, f.file.clone(), line)) {
                sink.edges.push(Edge {
                    src,
                    dst: lock,
                    path: f.file.clone(),
                    line,
                    function: f.qname.clone(),
                    blocking,
                    via: via_name.clone(),
                });
            }
        }
        if !blocking {
            continue; // try_* never parks: cannot be the blocked side
        }
        if let (Some(nr), Some(hr)) = (new_rank, ctx.held_rank(h)) {
            if nr > hr {
                let lock_name = ctx.model.lock(lock).name.clone();
                let mut chain = Vec::new();
                if let Some(c) = via {
                    chain.push(ChainStep {
                        path: f.file.clone(),
                        line,
                        note: format!(
                            "`{}` calls `{}` while holding [{}]",
                            f.qname,
                            ctx.model.fn_def(c).qname,
                            ctx.held_desc(std::slice::from_ref(h))
                        ),
                    });
                    for (fid, l, note) in ctx.sums.acquire_chain(ctx.model, c, lock) {
                        chain.push(ChainStep {
                            path: ctx.model.fn_def(fid).file.clone(),
                            line: l,
                            note: format!("`{}` {note}", ctx.model.fn_def(fid).qname),
                        });
                    }
                }
                sink.push_finding(Finding {
                    rule: "lock-order-inversion",
                    path: f.file.clone(),
                    line,
                    function: f.qname.clone(),
                    message: format!(
                        "`{}` (rank {}) acquired while holding [{}] — violates the \
                         LockRank lattice (new rank must be <= every held rank)",
                        lock_name,
                        ctx.rank_name(nr),
                        ctx.held_desc(std::slice::from_ref(h)),
                    ),
                    chain,
                    help: HELP_INVERSION.to_string(),
                });
            }
        }
    }
}

/// Walk one function body tracking the may-be-held guard set.
fn walk_fn(ctx: &Ctx<'_>, fid: FnId, sink: &mut Sink) {
    let f = ctx.model.fn_def(fid);
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    for (ei, ev) in f.events.iter().enumerate() {
        let line = ev.line();
        held.retain(|h| h.temp_line.is_none_or(|tl| line <= tl));
        match ev {
            Event::Open { .. } => depth += 1,
            Event::Close { .. } => {
                depth -= 1;
                held.retain(|h| h.depth <= depth);
            }
            Event::Drop { name, .. } => {
                held.retain(|h| h.name.as_deref() != Some(name.as_str()));
            }
            Event::Acquire {
                lock,
                bound,
                blocking,
                line,
                ..
            } => {
                note_acquire(ctx, f, &held, *lock, *blocking, *line, None, sink);
                held.push(Held {
                    name: bound.clone(),
                    locks: vec![*lock],
                    label: ctx.model.lock(*lock).name.clone(),
                    depth,
                    temp_line: bound.is_none().then_some(*line),
                });
            }
            Event::CondvarWait { guard, line } => {
                // The waited-on guard's mutex is released for the park.
                let mut kept = Vec::new();
                let mut released = Vec::new();
                for h in held.drain(..) {
                    if guard.is_some() && h.name == *guard {
                        released.push(h);
                    } else {
                        kept.push(h);
                    }
                }
                if !kept.is_empty() {
                    sink.push_finding(Finding {
                        rule: "blocking-under-lock",
                        path: f.file.clone(),
                        line: *line,
                        function: f.qname.clone(),
                        message: format!(
                            "condvar wait parks the thread while guard(s) [{}] stay held",
                            ctx.held_desc(&kept)
                        ),
                        chain: Vec::new(),
                        help: HELP_BLOCKING.to_string(),
                    });
                }
                held = kept;
                held.extend(released);
            }
            Event::Block { what, line } => {
                if !held.is_empty() {
                    sink.push_finding(Finding {
                        rule: "blocking-under-lock",
                        path: f.file.clone(),
                        line: *line,
                        function: f.qname.clone(),
                        message: format!(
                            "blocking operation `{what}` while guard(s) [{}] are live",
                            ctx.held_desc(&held)
                        ),
                        chain: Vec::new(),
                        help: HELP_BLOCKING.to_string(),
                    });
                }
            }
            Event::Call {
                name,
                bound,
                moved,
                line,
                ..
            } => {
                let callees = ctx.cg.resolved[fid].get(&ei);
                if let Some(callees) = callees {
                    if !held.is_empty() {
                        // Blocking reachability through the call.
                        if let Some(&c) = callees.iter().find(|&&c| ctx.sums.blocks[c].is_some()) {
                            let mut chain = vec![ChainStep {
                                path: f.file.clone(),
                                line: *line,
                                note: format!(
                                    "`{}` calls `{}` while holding [{}]",
                                    f.qname,
                                    ctx.model.fn_def(c).qname,
                                    ctx.held_desc(&held)
                                ),
                            }];
                            let mut terminal = String::new();
                            for (cfid, l, note) in ctx.sums.block_chain(ctx.model, c) {
                                let cf = ctx.model.fn_def(cfid);
                                chain.push(ChainStep {
                                    path: cf.file.clone(),
                                    line: l,
                                    note: format!("`{}` {note}", cf.qname),
                                });
                                terminal = note;
                            }
                            sink.push_finding(Finding {
                                rule: "blocking-under-lock",
                                path: f.file.clone(),
                                line: *line,
                                function: f.qname.clone(),
                                message: format!(
                                    "call to `{}` may block ({}) while guard(s) [{}] are live",
                                    ctx.model.fn_def(c).qname,
                                    terminal.trim_start_matches("blocks in "),
                                    ctx.held_desc(&held)
                                ),
                                chain,
                                help: HELP_BLOCKING.to_string(),
                            });
                        }
                        // Locks acquired inside the callees extend the
                        // lock-order graph from every held lock.
                        for &c in callees {
                            let mut acqs: Vec<(LockId, bool, usize)> = ctx.sums.acquires[c]
                                .iter()
                                .map(|(l, a)| (*l, a.blocking, a.line))
                                .collect();
                            acqs.sort_unstable();
                            for (l, blocking, _) in acqs {
                                note_acquire(ctx, f, &held, l, blocking, *line, Some(c), sink);
                            }
                        }
                    }
                    // Guard-returning helpers: the call *is* an acquisition
                    // (the lint's known false-negative class).
                    let guard_callees: Vec<FnId> = callees
                        .iter()
                        .copied()
                        .filter(|&c| ctx.model.fn_def(c).returns_guard)
                        .collect();
                    for m in moved {
                        held.retain(|h| h.name.as_deref() != Some(m.as_str()));
                    }
                    if !guard_callees.is_empty() {
                        let mut locks: BTreeSet<LockId> = BTreeSet::new();
                        for &c in &guard_callees {
                            locks.extend(ctx.sums.acquires[c].keys().copied());
                        }
                        held.push(Held {
                            name: bound.clone(),
                            locks: locks.into_iter().collect(),
                            label: format!("{name}()"),
                            depth,
                            temp_line: bound.is_none().then_some(*line),
                        });
                    }
                } else {
                    // Unresolved callee (std, external): by-value guard
                    // arguments still move out of our held set.
                    for m in moved {
                        held.retain(|h| h.name.as_deref() != Some(m.as_str()));
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// cycle detection

/// Strongly connected components of the blocking lock-order graph
/// (iterative Kosaraju; the graph has tens of nodes).
fn sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        // Iterative post-order.
        let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
        seen[s] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut radj = vec![Vec::new(); n];
    for (v, ws) in adj.iter().enumerate() {
        for &w in ws {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let id = out.len();
        let mut members = vec![s];
        comp[s] = id;
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    comp[w] = id;
                    members.push(w);
                    stack.push(w);
                }
            }
        }
        out.push(members);
    }
    out
}

fn cycle_findings(model: &Model, edges: &[Edge], sink: &mut Sink) {
    let n = model.locks.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut example: HashMap<(usize, usize), &Edge> = HashMap::new();
    for e in edges {
        if !e.blocking {
            continue;
        }
        if !adj[e.src].contains(&e.dst) {
            adj[e.src].push(e.dst);
        }
        example.entry((e.src, e.dst)).or_insert(e);
    }
    let mut emit = |members: &[usize]| {
        let set: HashSet<usize> = members.iter().copied().collect();
        let mut steps: Vec<ChainStep> = Vec::new();
        let mut names: Vec<String> = Vec::new();
        for &m in members {
            names.push(format!("`{}`", model.lock(m).name));
            for &d in &adj[m] {
                if set.contains(&d) {
                    if let Some(e) = example.get(&(m, d)) {
                        steps.push(ChainStep {
                            path: e.path.clone(),
                            line: e.line,
                            note: format!(
                                "`{}` acquires `{}` while holding `{}`",
                                e.function,
                                model.lock(d).name,
                                model.lock(m).name
                            ),
                        });
                    }
                }
            }
        }
        let anchor = steps.first().cloned();
        let (path, line, function) = anchor
            .map(|s| {
                let func = s.note.split('`').nth(1).unwrap_or("<unknown>").to_string();
                (s.path, s.line, func)
            })
            .unwrap_or_else(|| ("<graph>".into(), 0, "<graph>".into()));
        let message = if members.len() == 1 {
            format!(
                "lock {} may be re-acquired while already held — \
                 `std::sync` locks are not reentrant",
                names[0]
            )
        } else {
            format!(
                "lock-order cycle between {} — opposite acquisition orders \
                 can deadlock even at equal LockRank",
                names.join(", ")
            )
        };
        sink.push_finding(Finding {
            rule: "lock-cycle",
            path,
            line,
            function,
            message,
            chain: steps,
            help: "pick one global order for these locks and enforce it at every site \
                   (equal-rank locks are invisible to the runtime checker)"
                .to_string(),
        });
    };
    for members in sccs(n, &adj) {
        if members.len() > 1 {
            let mut sorted = members.clone();
            sorted.sort_unstable();
            emit(&sorted);
        } else if let Some(&m) = members.first() {
            if adj[m].contains(&m) {
                emit(&members);
            }
        }
    }
}

// --------------------------------------------------------------------------
// analysis driver

pub fn analyze_model(
    model: &Model,
    rank_table: &[(String, u8)],
    allow: &DeadlockAllow,
) -> Analysis {
    let cg = callgraph::build(model);
    let sums = callgraph::summaries(model, &cg);
    let ctx = Ctx {
        model,
        cg: &cg,
        sums: &sums,
        rank_of_name: rank_table.iter().cloned().collect(),
    };
    let mut sink = Sink {
        findings: Vec::new(),
        edges: Vec::new(),
        edge_seen: HashSet::new(),
        finding_seen: HashSet::new(),
    };
    // Unknown rank names at construction sites.
    for lock in &model.locks {
        for r in &lock.ranks {
            if !ctx.rank_of_name.contains_key(r) {
                sink.push_finding(Finding {
                    rule: "unknown-rank",
                    path: lock.file.clone(),
                    line: lock.line,
                    function: format!("<lock `{}`>", lock.name),
                    message: format!(
                        "lock `{}` constructed with rank `{r}` which is not in \
                         crates/sync's RANK_TABLE",
                        lock.name
                    ),
                    chain: Vec::new(),
                    help: "use a declared LockRank variant; if a new rank is needed, add it \
                           to the enum, RANK_TABLE and the DESIGN.md §8 lattice together"
                        .to_string(),
                });
            }
        }
    }
    for fid in 0..model.fns.len() {
        walk_fn(&ctx, fid, &mut sink);
    }
    let edges_snapshot = sink.edges.clone();
    cycle_findings(model, &edges_snapshot, &mut sink);

    // Allowlist: split findings into kept vs suppressed, then flag stale
    // entries so justifications cannot outlive their finding.
    let mut used = vec![false; allow.entries.len()];
    let mut kept: Vec<Finding> = Vec::new();
    let mut suppressed: Vec<(Finding, String)> = Vec::new();
    for f in sink.findings {
        let hit = allow.entries.iter().enumerate().find(|(_, e)| {
            e.rule == f.rule
                && e.path == f.path
                && e.function.as_deref().is_none_or(|func| func == f.function)
        });
        match hit {
            Some((i, e)) => {
                used[i] = true;
                suppressed.push((f, e.reason.clone()));
            }
            None => kept.push(f),
        }
    }
    for (e, _) in allow.entries.iter().zip(&used).filter(|(_, u)| !**u) {
        kept.push(Finding {
            rule: "stale-allow",
            path: "xtask/deadlock-allow.toml".into(),
            line: e.line,
            function: e.function.clone().unwrap_or_else(|| "<any>".into()),
            message: format!(
                "allowlist entry for `{}` at {} matches no current finding",
                e.rule, e.path
            ),
            chain: Vec::new(),
            help: "the justified finding no longer exists; delete the entry (stale \
                   justifications hide future regressions)"
                .to_string(),
        });
    }
    kept.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let mut edges = sink.edges;
    edges.sort_by(|a, b| (&a.path, a.line, a.src, a.dst).cmp(&(&b.path, b.line, b.src, b.dst)));

    let stats = AnalysisStats {
        files: model.stats.files,
        functions: model.stats.functions,
        locks: model.stats.locks,
        call_sites: cg.stats.call_sites,
        resolved_call_sites: cg.stats.resolved_sites,
        call_edges: cg.stats.edges,
        unresolved_lock_receivers: model.stats.unresolved_lock_receivers,
        dynamic_rank_sites: model.stats.dynamic_rank_sites,
        lock_order_edges: edges.len(),
    };
    Analysis {
        rank_table: rank_table.to_vec(),
        locks: model
            .locks
            .iter()
            .map(|l| {
                (
                    l.name.clone(),
                    l.file.clone(),
                    l.line,
                    l.ranks.iter().cloned().collect(),
                )
            })
            .collect(),
        edges,
        findings: kept,
        suppressed,
        stats,
    }
}

/// Run the analysis over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Analysis, String> {
    let sync_src = std::fs::read_to_string(root.join("crates/sync/src/lib.rs"))
        .map_err(|e| format!("cannot read crates/sync/src/lib.rs: {e}"))?;
    let rank_table = parse_rank_table(&sync_src)?;
    let allow = match std::fs::read_to_string(root.join("xtask/deadlock-allow.toml")) {
        Ok(text) => DeadlockAllow::parse(&text)?,
        Err(_) => DeadlockAllow::default(),
    };
    let mut paths = Vec::new();
    lint::collect_rs_files(&root.join("crates"), &mut paths);
    lint::collect_rs_files(&root.join("src"), &mut paths);
    paths.sort();
    let mut files: Vec<(String, String)> = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        // The sync crate implements the primitives (its internals hold raw
        // `std::sync` locks by design); tests/benches/examples are not
        // shipped concurrency surface.
        if rel.starts_with("crates/sync/")
            || rel.contains("/tests/")
            || rel.contains("/benches/")
            || rel.contains("/examples/")
        {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push((rel, text));
    }
    let model = Model::build(&files);
    Ok(analyze_model(&model, &rank_table, &allow))
}

// --------------------------------------------------------------------------
// exports

/// Graphviz DOT rendering of the lock-order graph. Solid = parking
/// acquisition, dashed = `try_*`, red = LockRank inversion.
pub fn to_dot(a: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("digraph lock_order {\n");
    out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
    let rank_of = |ranks: &[String]| -> Option<u8> {
        ranks
            .iter()
            .filter_map(|r| a.rank_table.iter().find(|(n, _)| n == r).map(|(_, v)| *v))
            .min()
    };
    for (id, (name, file, _, ranks)) in a.locks.iter().enumerate() {
        let stem = file.rsplit('/').next().unwrap_or(file);
        let rank = match ranks.as_slice() {
            [] => "rank ?".to_string(),
            rs => rs
                .iter()
                .map(|r| match rank_of(std::slice::from_ref(r)) {
                    Some(v) => format!("{r}={v}"),
                    None => format!("{r}=?"),
                })
                .collect::<Vec<_>>()
                .join(","),
        };
        out.push_str(&format!("  n{id} [label=\"{stem}::{name}\\n{rank}\"];\n"));
    }
    for e in &a.edges {
        let src_rank = rank_of(&a.locks[e.src].3);
        let dst_rank = rank_of(&a.locks[e.dst].3);
        let inverted = e.blocking && matches!((src_rank, dst_rank), (Some(s), Some(d)) if d > s);
        let mut attrs = vec![format!(
            "label=\"{}:{}\"",
            e.function.replace('"', ""),
            e.line
        )];
        if !e.blocking {
            attrs.push("style=dashed".into());
        }
        if inverted {
            attrs.push("color=red".into());
        }
        out.push_str(&format!(
            "  n{} -> n{} [{}];\n",
            e.src,
            e.dst,
            attrs.join(", ")
        ));
    }
    out.push_str("}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let chain = f
        .chain
        .iter()
        .map(|s| {
            format!(
                "{{\"path\":\"{}\",\"line\":{},\"note\":\"{}\"}}",
                json_escape(&s.path),
                s.line,
                json_escape(&s.note)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"function\":\"{}\",\
         \"message\":\"{}\",\"chain\":[{}]}}",
        f.rule,
        json_escape(&f.path),
        f.line,
        json_escape(&f.function),
        json_escape(&f.message),
        chain
    )
}

/// Hand-rolled JSON artifact (`gnndrive.deadlock.v1`): the rank table, the
/// lock-order graph, and every finding with its call chain.
pub fn to_json(a: &Analysis) -> String {
    let rank_table = a
        .rank_table
        .iter()
        .map(|(n, v)| format!("{{\"rank\":\"{}\",\"value\":{v}}}", json_escape(n)))
        .collect::<Vec<_>>()
        .join(",");
    let locks = a
        .locks
        .iter()
        .enumerate()
        .map(|(id, (name, file, line, ranks))| {
            let ranks = ranks
                .iter()
                .map(|r| format!("\"{}\"", json_escape(r)))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"id\":{id},\"name\":\"{}\",\"file\":\"{}\",\"line\":{line},\
                 \"ranks\":[{ranks}]}}",
                json_escape(name),
                json_escape(file)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let edges = a
        .edges
        .iter()
        .map(|e| {
            let via = match &e.via {
                Some(v) => format!("\"{}\"", json_escape(v)),
                None => "null".into(),
            };
            format!(
                "{{\"src\":{},\"dst\":{},\"path\":\"{}\",\"line\":{},\
                 \"function\":\"{}\",\"blocking\":{},\"via\":{via}}}",
                e.src,
                e.dst,
                json_escape(&e.path),
                e.line,
                json_escape(&e.function),
                e.blocking
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let findings = a
        .findings
        .iter()
        .map(finding_json)
        .collect::<Vec<_>>()
        .join(",");
    let suppressed = a
        .suppressed
        .iter()
        .map(|(f, reason)| {
            format!(
                "{{\"finding\":{},\"reason\":\"{}\"}}",
                finding_json(f),
                json_escape(reason)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let s = &a.stats;
    format!(
        "{{\"schema\":\"gnndrive.deadlock.v1\",\"rank_table\":[{rank_table}],\
         \"stats\":{{\"files\":{},\"functions\":{},\"locks\":{},\"call_sites\":{},\
         \"resolved_call_sites\":{},\"call_edges\":{},\"unresolved_lock_receivers\":{},\
         \"dynamic_rank_sites\":{},\"lock_order_edges\":{}}},\
         \"locks\":[{locks}],\"edges\":[{edges}],\"findings\":[{findings}],\
         \"suppressed\":[{suppressed}]}}",
        s.files,
        s.functions,
        s.locks,
        s.call_sites,
        s.resolved_call_sites,
        s.call_edges,
        s.unresolved_lock_receivers,
        s.dynamic_rank_sites,
        s.lock_order_edges
    )
}

// --------------------------------------------------------------------------
// self-tests

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_source, Allowlist, FileClass};

    /// The real lattice, as fixtures use real `LockRank` names.
    fn table() -> Vec<(String, u8)> {
        [
            ("Telemetry", 0u8),
            ("Storage", 1),
            ("Health", 2),
            ("PageCache", 3),
            ("Ring", 4),
            ("Governor", 5),
            ("Buffer", 6),
            ("Pipeline", 7),
            ("Sync", 8),
        ]
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect()
    }

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        let model = Model::build(&files);
        analyze_model(&model, &table(), &DeadlockAllow::default())
    }

    fn rules(a: &Analysis) -> Vec<&'static str> {
        a.findings.iter().map(|f| f.rule).collect()
    }

    const CLEAN: &str = include_str!("../fixtures/clean.rs");
    const CYCLIC: &str = include_str!("../fixtures/cyclic.rs");
    const CHAIN_A: &str = include_str!("../fixtures/chain_a.rs");
    const CHAIN_B: &str = include_str!("../fixtures/chain_b.rs");
    const HELPER_GUARD: &str = include_str!("../fixtures/helper_guard.rs");

    // -- seeded fixtures ---------------------------------------------------

    #[test]
    fn clean_fixture_has_zero_findings() {
        let a = analyze(&[("crates/fix/src/clean.rs", CLEAN)]);
        assert!(
            a.findings.is_empty(),
            "false positives on the clean fixture: {:#?}",
            a.findings
        );
        // The correct-order nesting still registers a lock-order edge.
        assert!(!a.edges.is_empty());
    }

    #[test]
    fn cyclic_fixture_is_detected_as_a_cycle() {
        let a = analyze(&[("crates/fix/src/cyclic.rs", CYCLIC)]);
        assert!(
            rules(&a).contains(&"lock-cycle"),
            "expected lock-cycle, got {:#?}",
            a.findings
        );
        let f = a.findings.iter().find(|f| f.rule == "lock-cycle").unwrap();
        assert!(f.message.contains("`left`") && f.message.contains("`right`"));
        // Both directions of the ABBA pattern are witnessed.
        assert!(f.chain.len() >= 2, "{:#?}", f.chain);
        // Same-rank locks: the inversion rule stays silent (this is exactly
        // the case the runtime rank checker cannot see).
        assert!(!rules(&a).contains(&"lock-order-inversion"));
    }

    #[test]
    fn cross_file_blocking_chain_is_reported_with_full_path() {
        let a = analyze(&[
            ("crates/fix_a/src/chain_a.rs", CHAIN_A),
            ("crates/fix_b/src/chain_b.rs", CHAIN_B),
        ]);
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock")
            .unwrap_or_else(|| panic!("no blocking finding: {:#?}", a.findings));
        assert_eq!(f.path, "crates/fix_a/src/chain_a.rs");
        assert!(f.function.contains("drain"), "{}", f.function);
        // drain -> stage_one -> stage_two -> read_blocking: 3 chain hops.
        assert!(f.chain.len() >= 3, "chain too short: {:#?}", f.chain);
        assert!(f.chain.last().unwrap().note.contains("read_blocking"));
        assert!(f
            .chain
            .iter()
            .any(|s| s.path == "crates/fix_b/src/chain_b.rs"));
    }

    // -- satellite 1: helper-returned guards -------------------------------

    #[test]
    fn helper_returned_guard_is_seen_interprocedurally() {
        let a = analyze(&[("crates/fix/src/helper_guard.rs", HELPER_GUARD)]);
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock")
            .unwrap_or_else(|| panic!("helper guard missed: {:#?}", a.findings));
        assert!(f.function.contains("slow_update"));
        assert!(f.message.contains("lock_state()"), "{}", f.message);
    }

    #[test]
    fn lint_scope_tracker_misses_the_helper_guard_class() {
        // Regression fixture for the known false-negative: the token-level
        // lint cannot see a guard acquired through `lock_state()`, so the
        // interprocedural pass above is the enforcing check for this class.
        let class = FileClass {
            is_test_file: false,
            is_sync_crate: false,
            is_recovery_path: false,
        };
        let diags = lint_source(
            "crates/fix/src/helper_guard.rs",
            HELPER_GUARD,
            class,
            &Allowlist::default(),
        );
        assert!(
            !diags.iter().any(|d| d.rule == "blocking-under-lock"),
            "lint now sees helper guards; update this fixture and DESIGN.md §12"
        );
    }

    // -- inversions --------------------------------------------------------

    #[test]
    fn direct_inversion_is_flagged() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct S { lo: OrderedMutex<u64>, hi: OrderedMutex<u64> }\n\
             impl S {\n\
             pub fn new() -> S { S { lo: OrderedMutex::new(LockRank::Telemetry, 0),\n\
                 hi: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn bad(&self) { let l = self.lo.lock(); let h = self.hi.lock(); \
             let _ = (*l, *h); }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/inv.rs", src)]);
        assert_eq!(rules(&a), vec!["lock-order-inversion"]);
        let f = &a.findings[0];
        assert!(f.message.contains("`hi`") && f.message.contains("Buffer"));
        assert!(f.message.contains("Telemetry"));
    }

    #[test]
    fn inversion_reached_through_a_call_carries_the_chain() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct S { lo: OrderedMutex<u64>, hi: OrderedMutex<u64> }\n\
             impl S {\n\
             fn grab_hi(&self) -> u64 { let h = self.hi.lock(); *h }\n\
             pub fn bad(&self) { let l = self.lo.lock(); let v = self.grab_hi(); \
             let _ = (*l, v); }\n\
             pub fn mk() -> (OrderedMutex<u64>, OrderedMutex<u64>) {\n\
                 let lo = OrderedMutex::new(LockRank::Telemetry, 0);\n\
                 let hi = OrderedMutex::new(LockRank::Buffer, 0);\n\
                 (lo, hi) }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/inv2.rs", src)]);
        assert!(
            rules(&a).contains(&"lock-order-inversion"),
            "{:#?}",
            a.findings
        );
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "lock-order-inversion")
            .unwrap();
        assert!(f.function.contains("bad"));
        assert!(
            !f.chain.is_empty(),
            "interprocedural inversion needs a chain"
        );
        assert!(f.chain.iter().any(|s| s.note.contains("grab_hi")));
        // And the edge is attributed through the callee.
        assert!(a
            .edges
            .iter()
            .any(|e| e.via.as_deref() == Some("S::grab_hi")));
    }

    #[test]
    fn try_acquisitions_never_invert_or_cycle() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct S { lo: OrderedMutex<u64>, hi: OrderedMutex<u64> }\n\
             impl S {\n\
             pub fn new() -> S { S { lo: OrderedMutex::new(LockRank::Telemetry, 0),\n\
                 hi: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn probe(&self) { let l = self.lo.lock(); \
             if let Some(h) = self.hi.try_lock() { let _ = (*l, *h); } }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/try.rs", src)]);
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
        // The try edge still lands in the graph, marked non-blocking.
        assert!(a.edges.iter().any(|e| !e.blocking));
    }

    // -- call-graph shapes (satellite 3) -----------------------------------

    #[test]
    fn method_call_through_reexport_resolves_by_name() {
        // b.rs calls `e.heavy()` on a type it imported through a prelude
        // re-export; resolution is name-based so the re-export is invisible.
        let a_src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct Engine;\n\
             impl Engine {\n\
             pub fn heavy(&self) { \
             std::thread::sleep(std::time::Duration::from_millis(1)); }\n\
             }\n";
        let b_src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             use crate::prelude::Engine;\n\
             pub struct Driver { m: OrderedMutex<u64> }\n\
             impl Driver {\n\
             pub fn new() -> Driver { Driver { m: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn go(&self, e: &Engine) { let g = self.m.lock(); e.heavy(); let _ = *g; }\n\
             }\n";
        let a = analyze(&[
            ("crates/fix/src/a.rs", a_src),
            ("crates/fix/src/b.rs", b_src),
        ]);
        let f = a
            .findings
            .iter()
            .find(|f| f.rule == "blocking-under-lock")
            .unwrap_or_else(|| panic!("re-export call missed: {:#?}", a.findings));
        assert!(f.message.contains("heavy"));
    }

    #[test]
    fn trait_object_dispatch_is_may_call_any_impl() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub trait Stage { fn op(&self); }\n\
             pub struct Fast;\n\
             impl Stage for Fast { fn op(&self) {} }\n\
             pub struct Slow;\n\
             impl Stage for Slow { fn op(&self) { \
             std::thread::sleep(std::time::Duration::from_millis(1)); } }\n\
             pub struct Driver { m: OrderedMutex<u64> }\n\
             impl Driver {\n\
             pub fn new() -> Driver { Driver { m: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn drive(&self, s: &dyn Stage) { let g = self.m.lock(); s.op(); \
             let _ = *g; }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/dyn.rs", src)]);
        assert!(
            rules(&a).contains(&"blocking-under-lock"),
            "conservative dispatch must include every impl: {:#?}",
            a.findings
        );
    }

    #[test]
    fn self_calls_filter_to_the_own_impl() {
        // Two types define `refresh`; only the *other* type's blocks. A
        // `self.refresh()` must bind to the caller's own impl and stay clean.
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct Quiet { m: OrderedMutex<u64> }\n\
             impl Quiet {\n\
             pub fn new() -> Quiet { Quiet { m: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             fn refresh(&self) {}\n\
             pub fn tick(&self) { let g = self.m.lock(); self.refresh(); let _ = *g; }\n\
             }\n\
             pub struct Loud;\n\
             impl Loud {\n\
             fn refresh(&self) { std::thread::sleep(std::time::Duration::from_millis(1)); }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/selfcall.rs", src)]);
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    #[test]
    fn cfg_test_and_cfg_loom_bodies_are_excluded() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub struct T { m: OrderedMutex<u64> }\n\
             impl T {\n\
             pub fn new() -> T { T { m: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn ok(&self) { let g = self.m.lock(); let _ = *g; }\n\
             }\n\
             #[cfg(test)]\nmod tests {\n\
             pub fn bad(t: &super::T) { let g = t.m.lock(); \
             std::thread::sleep(std::time::Duration::from_millis(1)); let _ = *g; }\n\
             }\n\
             #[cfg(loom)]\nmod loom_model {\n\
             pub fn also_bad(t: &super::T) { let g = t.m.lock(); \
             std::thread::sleep(std::time::Duration::from_millis(1)); let _ = *g; }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/cfg.rs", src)]);
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    // -- guard lifecycle precision -----------------------------------------

    #[test]
    fn condvar_wait_releases_its_own_guard_but_not_others() {
        let src = "use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex};\n\
             pub struct W { m: OrderedMutex<u64>, outer: OrderedMutex<u64>, \
             cv: OrderedCondvar }\n\
             impl W {\n\
             pub fn new() -> W { W { m: OrderedMutex::new(LockRank::Governor, 0),\n\
                 outer: OrderedMutex::new(LockRank::Buffer, 0),\n\
                 cv: OrderedCondvar::new(LockRank::Governor) } }\n\
             pub fn legal(&self) { let mut g = self.m.lock(); \
             while *g == 0 { self.cv.wait(&mut g); } }\n\
             pub fn illegal(&self) { let o = self.outer.lock(); \
             let mut g = self.m.lock(); self.cv.wait(&mut g); let _ = (*o, *g); }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/cv.rs", src)]);
        assert_eq!(rules(&a), vec!["blocking-under-lock"], "{:#?}", a.findings);
        let f = &a.findings[0];
        assert!(f.function.contains("illegal"), "{}", f.function);
        assert!(f.message.contains("`outer`"), "{}", f.message);
    }

    #[test]
    fn guards_moved_into_callees_leave_the_held_set() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex, OrderedMutexGuard};\n\
             pub fn consume(g: OrderedMutexGuard<'_, u64>) { drop(g); }\n\
             pub struct M { m: OrderedMutex<u64> }\n\
             impl M {\n\
             pub fn new() -> M { M { m: OrderedMutex::new(LockRank::Buffer, 0) } }\n\
             pub fn handoff(&self) { let g = self.m.lock(); consume(g); \
             std::thread::sleep(std::time::Duration::from_millis(1)); }\n\
             }\n";
        let a = analyze(&[("crates/fix/src/mv.rs", src)]);
        assert!(a.findings.is_empty(), "{:#?}", a.findings);
    }

    // -- rank table & unknown ranks ----------------------------------------

    #[test]
    fn rank_table_parses_from_sync_source_shape() {
        let src = "/// docs mentioning RANK_TABLE\n\
             pub const RANK_TABLE: &[(&str, u8)] = &[\n\
                 (\"Telemetry\", 0),\n    (\"Storage\", 1),\n    (\"Sync\", 8),\n];\n";
        let t = parse_rank_table(src).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], ("Telemetry".to_string(), 0));
        assert_eq!(t[2], ("Sync".to_string(), 8));
        assert!(parse_rank_table("fn nothing() {}").is_err());
        let bad = "pub const RANK_TABLE: &[(&str, u8)] = &[(\"A\", 1), (\"B\", 1)];";
        assert!(parse_rank_table(bad).is_err(), "non-ascending must fail");
    }

    #[test]
    fn unknown_rank_names_are_flagged() {
        let src = "use gnndrive_sync::{LockRank, OrderedMutex};\n\
             pub fn mk() -> OrderedMutex<u64> { \
             let m = OrderedMutex::new(LockRank::Bogus, 0); m }\n";
        let a = analyze(&[("crates/fix/src/unk.rs", src)]);
        assert_eq!(rules(&a), vec!["unknown-rank"]);
        assert!(a.findings[0].message.contains("Bogus"));
    }

    // -- allowlist ---------------------------------------------------------

    #[test]
    fn allowlist_suppresses_and_flags_stale_entries() {
        let allow = DeadlockAllow::parse(
            "[[allow]]\nrule = \"lock-cycle\"\npath = \"crates/fix/src/cyclic.rs\"\n\
             reason = \"seeded ABBA fixture kept on purpose for the analyzer tests\"\n\
             [[allow]]\nrule = \"blocking-under-lock\"\npath = \"crates/gone/src/x.rs\"\n\
             reason = \"this file was deleted two PRs ago, entry must go stale\"\n",
        )
        .unwrap();
        let files = vec![("crates/fix/src/cyclic.rs".to_string(), CYCLIC.to_string())];
        let model = Model::build(&files);
        let a = analyze_model(&model, &table(), &allow);
        // The cycle is suppressed with its justification...
        assert!(a
            .suppressed
            .iter()
            .any(|(f, r)| { f.rule == "lock-cycle" && r.contains("seeded ABBA") }));
        // ...and the dangling entry surfaces as stale-allow.
        assert_eq!(rules(&a), vec!["stale-allow"]);
        assert_eq!(a.findings[0].path, "xtask/deadlock-allow.toml");
    }

    #[test]
    fn allowlist_rejects_junk() {
        assert!(DeadlockAllow::parse("[[allow]]\nrule = \"x\"\npath = \"y\"\n").is_err());
        assert!(DeadlockAllow::parse(
            "[[allow]]\nrule = \"x\"\npath = \"y\"\nreason = \"short\"\n"
        )
        .is_err());
        assert!(DeadlockAllow::parse("rule = \"x\"\n").is_err());
        assert!(DeadlockAllow::parse(
            "[[allow]]\nrule = \"x\"\npath = \"y\"\nbogus = \"z\"\n\
             reason = \"long enough reason\"\n"
        )
        .is_err());
    }

    // -- exports -----------------------------------------------------------

    #[test]
    fn dot_and_json_exports_carry_the_graph() {
        let a = analyze(&[("crates/fix/src/clean.rs", CLEAN)]);
        let dot = to_dot(&a);
        assert!(dot.starts_with("digraph lock_order {"));
        assert!(dot.contains("clean.rs::outer"), "{dot}");
        assert!(dot.contains("Buffer=6"), "{dot}");
        assert!(dot.contains("->"), "edges missing: {dot}");
        let json = to_json(&a);
        assert!(json.contains("\"schema\":\"gnndrive.deadlock.v1\""));
        assert!(json.contains("\"rank\":\"Telemetry\",\"value\":0"));
        assert!(json.contains("\"findings\":[]"));
    }

    // -- the workspace itself ----------------------------------------------

    #[test]
    fn workspace_is_clean_and_lattice_consistent() {
        // The acceptance gate as a test: the real workspace must analyze
        // with zero unsuppressed findings, and the emitted blocking
        // lock-order graph must be acyclic (cycles would have surfaced as
        // `lock-cycle` findings, so an empty findings list implies both).
        // Under cargo the manifest dir locates the workspace; the offline
        // rustc harness runs from the repo root instead.
        let root = match option_env!("CARGO_MANIFEST_DIR") {
            Some(d) => Path::new(d).join(".."),
            None => Path::new(".").to_path_buf(),
        };
        assert!(
            root.join("crates/sync/src/lib.rs").exists(),
            "workspace root not found from {}",
            root.display()
        );
        let a = run(&root).expect("workspace analysis runs");
        assert!(
            a.findings.is_empty(),
            "workspace deadlock findings (fix them or justify in \
             xtask/deadlock-allow.toml):\n{}",
            a.findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(a.stats.functions > 100, "model collapsed: {:?}", a.stats);
        assert!(a.stats.locks > 10, "lock table collapsed: {:?}", a.stats);
    }
}
