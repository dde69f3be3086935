//! Offline Belady (MIN): the workspace's one farthest-next-use engine.
//!
//! When the whole access sequence is known ahead, the optimal cache evicts
//! the resident key needed farthest in the future. GNN training can know
//! it: the sampler is deterministic under a fixed seed, so Ginex's
//! superbatch inspects a bundle of sampled batches, and an offline replay
//! scores the online feature buffer against the ceiling. The sequence is a
//! list of *steps* (a mini-batch each), each a set of keys (node ids)
//! accessed together. A step's own keys are never evicted, so a step wider
//! than the capacity leaves the cache over it until a later step makes
//! room.

use std::collections::{BinaryHeap, HashMap, HashSet};

/// The next use of a key no later step accesses.
pub const NEVER: usize = usize::MAX;

/// Belady's MIN over a known sequence of steps. See the module docs.
pub struct NextUse {
    /// The steps that access each key, ascending.
    occurrences: HashMap<u32, Vec<usize>>,
    capacity: usize,
    /// Resident key → the step of its next use.
    resident: HashMap<u32, usize>,
    /// Max-heap on `(next use, key)`. An entry is live while it matches
    /// `resident`; superseded entries are skipped when popped.
    heap: BinaryHeap<(usize, u32)>,
}

impl NextUse {
    /// An empty cache of `capacity` keys over `steps`, the keys each step
    /// accesses in step order (each key at most once a step).
    pub fn new<'a>(steps: impl IntoIterator<Item = &'a [u32]>, capacity: usize) -> Self {
        let mut occurrences: HashMap<u32, Vec<usize>> = HashMap::new();
        for (step, keys) in steps.into_iter().enumerate() {
            for &k in keys {
                occurrences.entry(k).or_default().push(step);
            }
        }
        NextUse {
            occurrences,
            capacity,
            resident: HashMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Start from `keys` already resident, each due at its first step.
    pub fn with_resident(mut self, keys: impl IntoIterator<Item = u32>) -> Self {
        for k in keys {
            let first = self.occurrences.get(&k).map_or(NEVER, |v| v[0]);
            self.resident.insert(k, first);
            self.heap.push((first, k));
        }
        self
    }

    /// The first step after `step` that accesses `key` ([`NEVER`] if none).
    pub fn next_use_after(&self, key: u32, step: usize) -> usize {
        self.occurrences
            .get(&key)
            .and_then(|v| v.get(v.partition_point(|&s| s <= step)))
            .copied()
            .unwrap_or(NEVER)
    }

    /// Access `keys` at `step`: append each key not resident to `load`,
    /// then evict down to the capacity, farthest next use first (ties: the
    /// larger key), appending each victim to `evict`. Steps must be visited
    /// in order.
    pub fn access(&mut self, step: usize, keys: &[u32], load: &mut Vec<u32>, evict: &mut Vec<u32>) {
        for &k in keys {
            let next = self.next_use_after(k, step);
            if self.resident.insert(k, next).is_none() {
                load.push(k);
            }
            self.heap.push((next, k));
        }
        // This step's keys are in use now: set them aside while evicting
        // and put them back with their true priorities afterwards.
        let current: HashSet<u32> = keys.iter().copied().collect();
        let mut in_use = Vec::new();
        while self.resident.len() > self.capacity {
            let Some((next, k)) = self.heap.pop() else {
                break;
            };
            if self.resident.get(&k) != Some(&next) {
                continue; // superseded
            }
            if current.contains(&k) {
                in_use.push((next, k));
                continue;
            }
            self.resident.remove(&k);
            evict.push(k);
        }
        self.heap.extend(in_use);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::LruList;
    use gnndrive_sync::Rng;

    /// One key a step: returns (hits, misses), calling `on_evict(step,
    /// victim, residents)` at each eviction.
    fn simulate(
        trace: &[u32],
        capacity: usize,
        mut on_evict: impl FnMut(usize, u32, &[u32]),
    ) -> (u64, u64) {
        let mut min = NextUse::new(trace.iter().map(std::slice::from_ref), capacity);
        let mut misses = 0;
        for (step, k) in trace.iter().enumerate() {
            let (mut load, mut evict) = (Vec::new(), Vec::new());
            min.access(step, std::slice::from_ref(k), &mut load, &mut evict);
            misses += load.len() as u64;
            let residents: Vec<u32> = min.resident.keys().copied().collect();
            for &v in &evict {
                on_evict(step, v, &residents);
            }
        }
        (trace.len() as u64 - misses, misses)
    }

    /// The first step at or after `step` that accesses `key`.
    fn next_use_at(trace: &[u32], step: usize, key: u32) -> usize {
        trace[step..]
            .iter()
            .position(|&k| k == key)
            .map_or(NEVER, |d| step + d)
    }

    /// Seeded property: on random traces, MIN never evicts a key whose
    /// next use comes *before* that of a key it keeps.
    #[test]
    fn belady_never_evicts_a_sooner_needed_page() {
        let mut rng = Rng::seed_from_u64(0x9e37_79b9_7f4a_7c15);
        for round in 0..64 {
            let pages = 8 + round % 17;
            let len = 200 + (round % 7) * 50;
            let trace: Vec<u32> = (0..len).map(|_| rng.below(pages) as u32).collect();
            let capacity = 2 + round % 5;
            simulate(&trace, capacity, |step, victim, residents| {
                // The victim is judged from the access that evicted it.
                let vnext = next_use_at(&trace, step, victim);
                for &r in residents {
                    let rnext = next_use_at(&trace, step, r);
                    assert!(
                        vnext >= rnext,
                        "round {round} step {step}: evicted {victim} (next use {vnext}) \
                         while {r} (next use {rnext}) stayed resident"
                    );
                }
            });
        }
    }

    /// The adversarial pattern for LRU: a cyclic scan one page wider than
    /// the cache. LRU always evicts exactly the page needed next (hit rate
    /// 0); MIN evicts the page needed farthest ahead and misses once per
    /// `CAPACITY` accesses.
    #[test]
    fn adversarial_cyclic_scan_thrashes_lru_but_not_belady() {
        const PAGES: u32 = 9;
        const CAPACITY: usize = 8;
        const LAPS: u32 = 20;
        let trace: Vec<u32> = (0..PAGES * LAPS).map(|i| i % PAGES).collect();
        let total = trace.len() as u64;

        let mut lru = LruList::new(PAGES as usize);
        let mut lru_misses = 0u64;
        for &p in &trace {
            if lru.contains(p) {
                lru.touch(p);
                continue;
            }
            lru_misses += 1;
            if lru.len() == CAPACITY {
                lru.pop_front();
            }
            lru.push_back(p);
        }
        assert_eq!(lru_misses, total, "LRU must thrash on a cyclic scan");

        let (hits, misses) = simulate(&trace, CAPACITY, |_, _, _| {});
        let cap = CAPACITY as u64;
        let min_misses = cap + (total - cap).div_ceil(cap);
        assert_eq!(
            misses, min_misses,
            "MIN missed {misses}, expected {min_misses}"
        );
        assert!(hits as f64 / total as f64 > 0.7);
    }
}
