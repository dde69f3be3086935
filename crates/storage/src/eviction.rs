//! Pluggable page-replacement policies for the [`crate::PageCache`].
//!
//! The paper's OS page-cache model is LRU, matching Linux. Ginex showed
//! that disk-based GNN training is one of the rare workloads where the
//! *optimal offline* policy (Belady's MIN) is actually implementable: the
//! sampler is deterministic under a fixed seed, so the entire per-epoch
//! page-access sequence can be precomputed and each eviction can pick the
//! resident page whose next use is farthest in the future.
//!
//! [`EvictionPolicy`] is the seam: the cache tells the policy about
//! inserts, hits, and forced removals, and asks it for a victim when it
//! needs room. [`LruPolicy`] wraps the existing [`LruList`]; [`BeladyPolicy`]
//! consumes an [`AccessTrace`](crate::trace::AccessTrace) and falls back to
//! LRU ordering for pages the trace never mentions (e.g. serving traffic
//! arriving on top of a training epoch).
//!
//! Telemetry lives in the closed `storage.cache.policy.*` namespace.

use crate::lru::LruList;
use crate::trace::AccessTrace;
use gnndrive_telemetry as telemetry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use telemetry::Counter;

/// A page key: (file id, page number) — the same key the cache maps.
pub type PageKey = (u32, u64);

/// Replacement strategy for a bounded page cache.
///
/// The cache owns the slot table and the resident map; the policy only
/// orders the *ready* slots for eviction. Contract (upheld by
/// [`crate::PageCache`], checked by `debug_assert`s here):
///
/// * `on_insert(slot, key)` — `slot` just became ready and is not tracked;
/// * `on_hit(slot, key)` — `slot` is tracked and was accessed again;
/// * `evict()` — pick a tracked victim, untrack it, return its slot;
/// * pending (in-flight) slots are never given to the policy.
pub trait EvictionPolicy: Send {
    /// Short stable name for artifacts and telemetry ("lru", "belady").
    fn name(&self) -> &'static str;

    /// Grow internal tables so slot ids `0..slots` are addressable.
    fn ensure_capacity(&mut self, slots: usize);

    /// A page became resident in `slot` under `key`.
    fn on_insert(&mut self, slot: u32, key: PageKey);

    /// A resident page was accessed again.
    fn on_hit(&mut self, slot: u32, key: PageKey);

    /// Choose a victim, stop tracking it, and return its slot.
    fn evict(&mut self) -> Option<u32>;

    /// Number of slots currently tracked (eviction candidates).
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Least-recently-used replacement — the Linux page-cache default and the
/// policy every baseline system in the paper trains under.
pub struct LruPolicy {
    list: LruList,
    evictions: Counter,
}

impl LruPolicy {
    pub fn new() -> Self {
        LruPolicy {
            list: LruList::new(0),
            evictions: telemetry::counter("storage.cache.policy.lru.evictions"),
        }
    }
}

impl Default for LruPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictionPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn ensure_capacity(&mut self, slots: usize) {
        self.list.ensure_capacity(slots);
    }

    fn on_insert(&mut self, slot: u32, _key: PageKey) {
        self.list.push_back(slot);
    }

    fn on_hit(&mut self, slot: u32, _key: PageKey) {
        self.list.touch(slot);
    }

    fn evict(&mut self) -> Option<u32> {
        let victim = self.list.pop_front();
        if victim.is_some() {
            self.evictions.inc();
        }
        victim
    }

    fn len(&self) -> usize {
        self.list.len()
    }
}

/// "Next use" position of a page that the trace never mentions again.
const NEVER: u64 = u64::MAX;

/// Max-heap entry: evict the largest `next_use` first. `stamp` lazily
/// invalidates superseded entries (each re-prioritization bumps the slot's
/// stamp instead of searching the heap).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    next_use: u64,
    stamp: u64,
    slot: u32,
}

struct Resident {
    key: PageKey,
    stamp: u64,
    /// Tracked by the LRU fallback list instead of the heap (next use is
    /// `NEVER`: off-trace page or trace occurrences exhausted).
    in_fallback: bool,
}

/// Belady's MIN driven by a precomputed [`AccessTrace`].
///
/// Each key holds a FIFO of its positions in the trace. Every insert/hit
/// consumes the key's earliest remaining position (the access happening
/// now) and re-prioritizes the slot by the next remaining one. Eviction
/// picks, among resident pages, the one whose next use is farthest away —
/// preferring pages with *no* known next use, which are kept in an LRU
/// side-list so un-traced traffic (e.g. online serving) degrades to plain
/// LRU instead of being evicted in arbitrary order.
pub struct BeladyPolicy {
    /// Remaining trace positions per key, ascending.
    occurrences: HashMap<PageKey, VecDeque<u64>>,
    heap: BinaryHeap<HeapEntry>,
    resident: Vec<Option<Resident>>,
    fallback: LruList,
    next_stamp: u64,
    tracked: usize,
    evictions: Counter,
    lru_fallbacks: Counter,
    off_trace: Counter,
}

impl BeladyPolicy {
    /// Build the policy from a recorded epoch trace.
    pub fn from_trace(trace: &AccessTrace) -> Self {
        let mut occurrences: HashMap<PageKey, VecDeque<u64>> = HashMap::new();
        for (pos, &key) in trace.accesses.iter().enumerate() {
            occurrences.entry(key).or_default().push_back(pos as u64);
        }
        BeladyPolicy {
            occurrences,
            heap: BinaryHeap::new(),
            resident: Vec::new(),
            fallback: LruList::new(0),
            next_stamp: 0,
            tracked: 0,
            evictions: telemetry::counter("storage.cache.policy.belady.evictions"),
            lru_fallbacks: telemetry::counter("storage.cache.policy.belady.lru_fallbacks"),
            off_trace: telemetry::counter("storage.cache.policy.belady.off_trace_accesses"),
        }
    }

    /// Consume the current access of `key` and return the position of its
    /// next one (`NEVER` if the trace knows of none).
    fn advance(&mut self, key: PageKey) -> u64 {
        match self.occurrences.get_mut(&key) {
            Some(q) => {
                q.pop_front();
                let next = q.front().copied().unwrap_or(NEVER);
                if q.is_empty() {
                    self.occurrences.remove(&key);
                }
                next
            }
            None => {
                self.off_trace.inc();
                NEVER
            }
        }
    }

    /// (Re-)prioritize `slot` for `key`'s next use at `next_use`.
    fn reprioritize(&mut self, slot: u32, key: PageKey, next_use: u64) {
        self.next_stamp += 1;
        let stamp = self.next_stamp;
        let was_fallback = self.resident[slot as usize]
            .as_ref()
            .is_some_and(|r| r.in_fallback);
        let to_fallback = next_use == NEVER;
        self.resident[slot as usize] = Some(Resident {
            key,
            stamp,
            in_fallback: to_fallback,
        });
        match (was_fallback, to_fallback) {
            (false, true) => self.fallback.push_back(slot),
            (true, true) => self.fallback.touch(slot),
            (true, false) => {
                // A page can only leave the fallback by being accessed
                // again, which means the trace *did* know about it; the
                // stamp bump above already retired any stale heap entry.
                self.fallback.remove(slot);
                self.heap.push(HeapEntry {
                    next_use,
                    stamp,
                    slot,
                });
            }
            (false, false) => self.heap.push(HeapEntry {
                next_use,
                stamp,
                slot,
            }),
        }
    }
}

impl EvictionPolicy for BeladyPolicy {
    fn name(&self) -> &'static str {
        "belady"
    }

    fn ensure_capacity(&mut self, slots: usize) {
        if slots > self.resident.len() {
            self.resident.resize_with(slots, || None);
        }
        self.fallback.ensure_capacity(slots);
    }

    fn on_insert(&mut self, slot: u32, key: PageKey) {
        self.ensure_capacity(slot as usize + 1);
        debug_assert!(
            self.resident[slot as usize].is_none(),
            "slot {slot} inserted twice"
        );
        self.tracked += 1;
        let next = self.advance(key);
        self.reprioritize(slot, key, next);
    }

    fn on_hit(&mut self, slot: u32, key: PageKey) {
        debug_assert!(
            self.resident[slot as usize]
                .as_ref()
                .is_some_and(|r| r.key == key),
            "hit on untracked slot {slot}"
        );
        let next = self.advance(key);
        self.reprioritize(slot, key, next);
    }

    fn evict(&mut self) -> Option<u32> {
        if self.tracked == 0 {
            return None;
        }
        // Pages with no known next use are the farthest-future by
        // definition; among them, LRU order.
        if let Some(slot) = self.fallback.pop_front() {
            self.resident[slot as usize] = None;
            self.tracked -= 1;
            self.evictions.inc();
            self.lru_fallbacks.inc();
            return Some(slot);
        }
        while let Some(top) = self.heap.pop() {
            let live = self.resident[top.slot as usize]
                .as_ref()
                .is_some_and(|r| r.stamp == top.stamp && !r.in_fallback);
            if live {
                self.resident[top.slot as usize] = None;
                self.tracked -= 1;
                self.evictions.inc();
                return Some(top.slot);
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.tracked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_sync::Rng;
    use std::collections::VecDeque;

    fn key_of(slot: u32) -> PageKey {
        (0, slot as u64)
    }

    /// The LruList reference-model check from `lru.rs`, generalized over
    /// the [`EvictionPolicy`] trait: any policy claiming LRU semantics must
    /// track a deque model exactly — same length, same victim, under
    /// arbitrary insert/evict/hit interleavings. The page cache maps
    /// slots to keys 1:1 here, mirroring its own bookkeeping.
    fn check_lru_reference_model(make: impl Fn() -> Box<dyn EvictionPolicy>) {
        let mut rng = Rng::seed_from_u64(0x2545_f491_4f6c_dd1d);
        for round in 0..128 {
            let mut p = make();
            p.ensure_capacity(32);
            let mut model: VecDeque<u32> = VecDeque::new();
            for _ in 0..256 {
                let slot = rng.below(32) as u32;
                let op = if round % 2 == 0 && model.len() < 4 {
                    0
                } else {
                    rng.below(3)
                };
                match op {
                    0 => {
                        if !model.contains(&slot) {
                            p.on_insert(slot, key_of(slot));
                            model.push_back(slot);
                        }
                    }
                    1 => {
                        assert_eq!(p.evict(), model.pop_front());
                    }
                    _ => {
                        if model.contains(&slot) {
                            p.on_hit(slot, key_of(slot));
                            model.retain(|&s| s != slot);
                            model.push_back(slot);
                        }
                    }
                }
                assert_eq!(p.len(), model.len());
            }
        }
    }

    #[test]
    fn lru_policy_matches_reference_model() {
        check_lru_reference_model(|| Box::new(LruPolicy::new()));
    }

    /// With an empty trace every access is off-trace, so Belady must
    /// degrade to exactly LRU — same victims, same order.
    #[test]
    fn belady_off_trace_degrades_to_lru_reference_model() {
        check_lru_reference_model(|| Box::new(BeladyPolicy::from_trace(&AccessTrace::new(0, 0))));
    }

    /// Minimal cache simulator over a policy: replay `trace` with
    /// `capacity` slots, calling `on_evict(position, victim_key, resident
    /// keys)` at each eviction. Returns (hits, misses).
    fn simulate(
        policy: &mut dyn EvictionPolicy,
        trace: &[PageKey],
        capacity: usize,
        mut on_evict: impl FnMut(usize, PageKey, &[PageKey]),
    ) -> (u64, u64) {
        let mut map: HashMap<PageKey, u32> = HashMap::new();
        let mut slot_key: Vec<Option<PageKey>> = vec![None; capacity];
        let mut free: Vec<u32> = (0..capacity as u32).rev().collect();
        policy.ensure_capacity(capacity);
        let (mut hits, mut misses) = (0u64, 0u64);
        for (pos, &key) in trace.iter().enumerate() {
            if let Some(&slot) = map.get(&key) {
                hits += 1;
                policy.on_hit(slot, key);
                continue;
            }
            misses += 1;
            let slot = match free.pop() {
                Some(s) => s,
                None => {
                    let victim = policy.evict().expect("policy must yield a victim");
                    let vkey = slot_key[victim as usize].take().expect("victim resident");
                    let residents: Vec<PageKey> = slot_key.iter().flatten().copied().collect();
                    on_evict(pos, vkey, &residents);
                    map.remove(&vkey);
                    victim
                }
            };
            map.insert(key, slot);
            slot_key[slot as usize] = Some(key);
            policy.on_insert(slot, key);
        }
        (hits, misses)
    }

    /// Next occurrence of `key` in `trace` at or after `pos` (NEVER if none).
    fn next_use_at(trace: &[PageKey], pos: usize, key: PageKey) -> u64 {
        trace[pos..]
            .iter()
            .position(|&k| k == key)
            .map(|d| (pos + d) as u64)
            .unwrap_or(NEVER)
    }

    /// Seeded property (like the LruList model): on random traces, Belady
    /// never evicts a page whose next use comes *before* that of some other
    /// resident page — the MIN optimality invariant.
    #[test]
    fn belady_never_evicts_a_sooner_needed_page() {
        let mut rng = Rng::seed_from_u64(0x9e37_79b9_7f4a_7c15);
        for round in 0..64 {
            let pages = 8 + (round % 17) as u64;
            let len = 200 + (round % 7) * 50;
            let trace: Vec<PageKey> = (0..len)
                .map(|_| (0u32, rng.below(pages as usize) as u64))
                .collect();
            let art = {
                let mut t = AccessTrace::new(1, 0);
                for &(f, p) in &trace {
                    t.push(f, p);
                }
                t
            };
            let capacity = 2 + (round % 5);
            let mut policy = BeladyPolicy::from_trace(&art);
            simulate(&mut policy, &trace, capacity, |pos, victim, residents| {
                // `pos` is the access that triggered the eviction: the
                // victim's next use is judged from this position.
                let vnext = next_use_at(&trace, pos, victim);
                for &r in residents {
                    let rnext = next_use_at(&trace, pos, r);
                    assert!(
                        vnext >= rnext,
                        "round {round} pos {pos}: evicted {victim:?} (next use {vnext}) \
                         while {r:?} (next use {rnext}) stayed resident"
                    );
                }
            });
        }
    }

    /// The adversarial pattern for LRU: a cyclic scan one page wider than
    /// the cache. LRU always evicts exactly the page needed next (hit rate
    /// 0); Belady evicts the just-used page (farthest next use) and misses
    /// only once per lap.
    #[test]
    fn adversarial_cyclic_scan_thrashes_lru_but_not_belady() {
        const PAGES: u64 = 9;
        const CAPACITY: usize = 8;
        const LAPS: u64 = 20;
        let trace: Vec<PageKey> = (0..PAGES * LAPS).map(|i| (0u32, i % PAGES)).collect();
        let art = {
            let mut t = AccessTrace::new(2, 0);
            for &(f, p) in &trace {
                t.push(f, p);
            }
            t
        };

        let mut lru = LruPolicy::new();
        let (lru_hits, lru_misses) = simulate(&mut lru, &trace, CAPACITY, |_, _, _| {});
        assert_eq!(lru_hits, 0, "LRU must thrash on a cyclic scan");
        assert_eq!(lru_misses, PAGES * LAPS);

        let mut belady = BeladyPolicy::from_trace(&art);
        let (b_hits, b_misses) = simulate(&mut belady, &trace, CAPACITY, |_, _, _| {});
        // MIN warms up with CAPACITY misses, then each eviction sacrifices
        // the page needed CAPACITY accesses ahead: one miss per CAPACITY
        // accesses from there on.
        let total = PAGES * LAPS;
        let min_misses = CAPACITY as u64 + (total - CAPACITY as u64).div_ceil(CAPACITY as u64);
        assert_eq!(
            b_misses, min_misses,
            "Belady missed {b_misses} times; MIN misses {min_misses}"
        );
        assert!(
            b_hits as f64 / total as f64 > 0.7,
            "Belady hit rate {:.3} too low",
            b_hits as f64 / total as f64
        );
        assert!(b_misses < lru_misses);
    }

    /// Off-trace (serving) keys interleaved with traced keys: the policy
    /// must prefer evicting the off-trace page (no known next use) over a
    /// traced page needed soon, and never lose track of counts.
    #[test]
    fn off_trace_pages_are_sacrificed_before_soon_needed_ones() {
        // Trace knows only about key (0, 0) and (0, 1), alternating.
        let mut art = AccessTrace::new(3, 0);
        for i in 0..10u64 {
            art.push(0, i % 2);
        }
        let mut policy = BeladyPolicy::from_trace(&art);
        // Actual access stream: the two traced pages, an off-trace page
        // (file 9) forcing an eviction at capacity 2, then both traced
        // pages again.
        let trace = vec![(0u32, 0u64), (0, 1), (9, 7), (0, 0), (0, 1)];
        let mut evicted = Vec::new();
        simulate(&mut policy, &trace, 2, |_, v, _| evicted.push(v));
        // At (9,7): both residents are traced; (0,0)'s next use (pos 3)
        // precedes (0,1)'s (trace position 3 in the artifact queue), so
        // the farther page (0,1) is sacrificed.
        assert_eq!(evicted[0], (0, 1), "must evict the page needed later");
        // The re-fault of (0,1) then evicts the off-trace page (9,7),
        // which sits in the LRU fallback, not the traced survivor (0,0).
        assert_eq!(evicted[1], (9, 7), "off-trace page goes first");
    }
}
