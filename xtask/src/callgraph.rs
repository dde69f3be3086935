//! Workspace call graph and interprocedural summaries for
//! `cargo xtask deadlock`.
//!
//! Resolution is a conservative *may*-call relation that uses a method
//! call's receiver type wherever the source states it ([`Recv`]):
//!
//! * `recv.method(..)` with a stated workspace type — that type's own
//!   methods named `method` (`self` is the caller's impl type; a field,
//!   an annotated param or `let`, a `static`, or a guard on a lock whose
//!   inner type is declared, is its stated type). A type without such a
//!   method falls back to every impl (trait defaults, blanket impls);
//! * `recv.method(..)` on a concrete non-workspace type (`HashMap`,
//!   `[u8]`, `AtomicU64`) — no callee;
//! * `recv.method(..)` on a generic, `impl Trait`, `dyn Trait` or
//!   unannotated receiver — every workspace method named `method`, which
//!   subsumes trait-object dispatch ("may call any impl") and calls made
//!   through prelude/facade re-exports (re-exports don't rename);
//! * `Type::assoc(..)` — functions named `assoc` on impl type `Type` only;
//! * `module::free(..)` / `free(..)` — free functions named `free`.
//!
//! Method syntax reaches only functions that take `self`. Unresolvable
//! names (std, external crates) simply have no candidates. On top of the
//! graph a fixpoint computes two summaries per function: *may-block* (a
//! blocking op is reachable) and *may-acquire* (the set of locks
//! transitively acquired), each carrying a witness link so diagnostics
//! can print the full call chain rustc-style.

use std::collections::HashMap;

use crate::model::{Event, FnDef, FnId, LockId, Model, Recv};

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
                name, qual, recv, ..
            } = ev
            else {
                continue;
            };
            stats.call_sites += 1;
            let callees = resolve(model, name, qual.as_deref(), recv.as_ref());
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

fn resolve(model: &Model, name: &str, qual: Option<&str>, recv: Option<&Recv>) -> Vec<FnId> {
    let by = |pred: &dyn Fn(&FnDef) -> bool| -> Vec<FnId> {
        let named = model.fns_named(name).iter().copied();
        named.filter(|&id| pred(model.fn_def(id))).collect()
    };
    match (recv, qual) {
        (Some(Recv::Foreign), _) => Vec::new(),
        (Some(Recv::Type(t)), _) => {
            let own = by(&|f| f.takes_self && f.impl_type.as_deref() == Some(t));
            if own.is_empty() {
                by(&|f| f.takes_self)
            } else {
                own
            }
        }
        (Some(Recv::Any), _) => by(&|f| f.takes_self),
        // `Type::assoc(..)`: only that type's impls. No fallback — a
        // `Vec::new(..)` must not pull in every workspace `new`.
        (None, Some(q)) if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
            by(&|f| f.impl_type.as_deref() == Some(q))
        }
        (None, _) => by(&|f| f.impl_type.is_none()),
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
                        lock: Some(lock),
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
