//! Workspace call graph and interprocedural summaries for
//! `cargo xtask deadlock`.
//!
//! Resolution is name-based and deliberately conservative (a *may*-call
//! relation):
//!
//! * `self.helper(..)` — methods named `helper` on the caller's own impl
//!   type when any exist, otherwise every method named `helper`;
//! * `recv.method(..)` — every workspace method named `method`, which
//!   subsumes trait-object dispatch ("may call any impl") and calls made
//!   through prelude/facade re-exports (re-exports don't rename);
//! * `Type::assoc(..)` — methods named `assoc` on impl type `Type` only;
//! * `module::free(..)` / `free(..)` — free functions named `free`.
//!
//! Unresolvable names (std, external crates) simply have no candidates.
//! On top of the graph a fixpoint computes two summaries per function:
//! *may-block* (a blocking op is reachable) and *may-acquire* (the set of
//! locks transitively acquired), each carrying a witness link so
//! diagnostics can print the full call chain rustc-style.

use std::collections::HashMap;

use crate::model::{Event, FnId, LockId, Model};

pub struct CallGraph {
    /// Per function: resolved callees keyed by event index.
    pub resolved: Vec<HashMap<usize, Vec<FnId>>>,
    pub stats: CgStats,
}

#[derive(Debug, Default, Clone)]
pub struct CgStats {
    pub call_sites: usize,
    pub resolved_sites: usize,
    pub edges: usize,
}

pub fn build(model: &Model) -> CallGraph {
    let mut resolved = Vec::with_capacity(model.fns.len());
    let mut stats = CgStats::default();
    for f in &model.fns {
        let mut map: HashMap<usize, Vec<FnId>> = HashMap::new();
        for (ei, ev) in f.events.iter().enumerate() {
            let Event::Call {
                name,
                qual,
                method,
                recv_self,
                ..
            } = ev
            else {
                continue;
            };
            stats.call_sites += 1;
            let callees = resolve(
                model,
                f.impl_type.as_deref(),
                name,
                qual.as_deref(),
                *method,
                *recv_self,
            );
            if !callees.is_empty() {
                stats.resolved_sites += 1;
                stats.edges += callees.len();
                map.insert(ei, callees);
            }
        }
        resolved.push(map);
    }
    CallGraph { resolved, stats }
}

fn resolve(
    model: &Model,
    caller_impl: Option<&str>,
    name: &str,
    qual: Option<&str>,
    method: bool,
    recv_self: bool,
) -> Vec<FnId> {
    let candidates = model.fns_named(name);
    if candidates.is_empty() {
        return Vec::new();
    }
    let by = |pred: &dyn Fn(FnId) -> bool| -> Vec<FnId> {
        candidates.iter().copied().filter(|&id| pred(id)).collect()
    };
    if method {
        if recv_self {
            if let Some(t) = caller_impl {
                let own = by(&|id| model.fn_def(id).impl_type.as_deref() == Some(t));
                if !own.is_empty() {
                    return own;
                }
            }
        }
        // May-call-any-impl: every method with this name (trait objects,
        // unknown receiver types, prelude re-exports).
        return by(&|id| model.fn_def(id).impl_type.is_some());
    }
    match qual {
        Some(q) if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
            // `Type::assoc(..)`: only that type's impls. No fallback — a
            // `Vec::new(..)` must not pull in every workspace `new`.
            by(&|id| model.fn_def(id).impl_type.as_deref() == Some(q))
        }
        _ => by(&|id| model.fn_def(id).impl_type.is_none()),
    }
}

// --------------------------------------------------------------------------
// summaries

/// Witness for a may-block fact: what blocks, where, and through whom.
#[derive(Debug, Clone)]
pub struct Witness {
    /// Terminal description when `via` is `None` (e.g. `thread::sleep`);
    /// otherwise the callee's name is the hop.
    pub what: String,
    /// Line in the owning function's own file.
    pub line: usize,
    pub via: Option<FnId>,
}

/// Witness for a may-acquire fact.
#[derive(Debug, Clone)]
pub struct Acq {
    pub line: usize,
    pub via: Option<FnId>,
    /// Acquired with a parking acquisition (`lock`/`read`/`write`), as
    /// opposed to `try_*`: only parking edges can deadlock.
    pub blocking: bool,
}

pub struct Summaries {
    pub blocks: Vec<Option<Witness>>,
    pub acquires: Vec<HashMap<LockId, Acq>>,
}

impl Summaries {
    /// The full call chain from `f` down to its blocking operation.
    pub fn block_chain(&self, model: &Model, f: FnId) -> Vec<(FnId, usize, String)> {
        let mut chain = Vec::new();
        let mut cur = f;
        let mut hops = 0;
        while let Some(w) = &self.blocks[cur] {
            match w.via {
                Some(next) => {
                    chain.push((cur, w.line, format!("calls `{}`", model.fn_def(next).qname)));
                    cur = next;
                }
                None => {
                    chain.push((cur, w.line, format!("blocks in `{}`", w.what)));
                    break;
                }
            }
            hops += 1;
            if hops > 64 {
                break; // defensive: witness links cannot cycle, but cap anyway
            }
        }
        chain
    }

    /// The call chain from `f` down to the site acquiring `lock`.
    pub fn acquire_chain(
        &self,
        model: &Model,
        f: FnId,
        lock: LockId,
    ) -> Vec<(FnId, usize, String)> {
        let mut chain = Vec::new();
        let mut cur = f;
        let mut hops = 0;
        while let Some(a) = self.acquires[cur].get(&lock) {
            match a.via {
                Some(next) => {
                    chain.push((cur, a.line, format!("calls `{}`", model.fn_def(next).qname)));
                    cur = next;
                }
                None => {
                    chain.push((cur, a.line, format!("acquires `{}`", model.lock(lock).name)));
                    break;
                }
            }
            hops += 1;
            if hops > 64 {
                break;
            }
        }
        chain
    }
}

/// Fixpoint over the call graph: monotone, so iteration to quiescence
/// terminates (the lattice is finite: one bit + one lock set per fn).
pub fn summaries(model: &Model, cg: &CallGraph) -> Summaries {
    let n = model.fns.len();
    let mut blocks: Vec<Option<Witness>> = vec![None; n];
    let mut acquires: Vec<HashMap<LockId, Acq>> = vec![HashMap::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for (fid, f) in model.fns.iter().enumerate() {
            for (ei, ev) in f.events.iter().enumerate() {
                match ev {
                    Event::Block { what, line } if blocks[fid].is_none() => {
                        blocks[fid] = Some(Witness {
                            what: what.clone(),
                            line: *line,
                            via: None,
                        });
                        changed = true;
                    }
                    Event::CondvarWait { line, .. } if blocks[fid].is_none() => {
                        blocks[fid] = Some(Witness {
                            what: "condvar wait".into(),
                            line: *line,
                            via: None,
                        });
                        changed = true;
                    }
                    Event::Acquire {
                        lock,
                        blocking,
                        line,
                        ..
                    } if !acquires[fid].contains_key(lock) => {
                        acquires[fid].insert(
                            *lock,
                            Acq {
                                line: *line,
                                via: None,
                                blocking: *blocking,
                            },
                        );
                        changed = true;
                    }
                    Event::Call { line, .. } => {
                        let Some(callees) = cg.resolved[fid].get(&ei) else {
                            continue;
                        };
                        for &callee in callees {
                            if blocks[fid].is_none() && blocks[callee].is_some() {
                                blocks[fid] = Some(Witness {
                                    what: String::new(),
                                    line: *line,
                                    via: Some(callee),
                                });
                                changed = true;
                            }
                            let new: Vec<(LockId, bool)> = acquires[callee]
                                .iter()
                                .filter(|(l, _)| !acquires[fid].contains_key(l))
                                .map(|(l, a)| (*l, a.blocking))
                                .collect();
                            for (l, blocking) in new {
                                acquires[fid].insert(
                                    l,
                                    Acq {
                                        line: *line,
                                        via: Some(callee),
                                        blocking,
                                    },
                                );
                                changed = true;
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    Summaries { blocks, acquires }
}
