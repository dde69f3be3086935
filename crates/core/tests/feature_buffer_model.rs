//! Model-based and concurrency tests of the feature-buffer manager.

use gnndrive_core::{ExtractPlan, FeatureBufferManager, GnnDriveConfig};
use gnndrive_device::FeatureSlab;
use gnndrive_graph::NodeId;
use gnndrive_sampling::MiniBatchSample;
use gnndrive_sync::rng::cases;
use gnndrive_sync::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn manager(slots: usize, nodes: usize) -> FeatureBufferManager {
    let slab = Arc::new(FeatureSlab::new(slots, 2));
    let cfg = GnnDriveConfig {
        slot_wait_timeout: Duration::from_secs(5),
        ..Default::default()
    };
    FeatureBufferManager::new(slab, nodes, &cfg)
}

/// One sequential lifecycle: `batches` planned, published, and released in
/// `release_order` must preserve every structural invariant, and aliases
/// must always be distinct within a batch.
fn check_lifecycle(batches: &[BTreeSet<u32>], release_order: &[u8]) {
    // Plenty of slots: a sequential test must never block.
    let fb = manager(256, 50);
    let mut outstanding: Vec<Vec<u32>> = Vec::new();
    for (i, set) in batches.iter().enumerate() {
        let nodes: Vec<u32> = set.iter().copied().collect();
        let mut plan = fb.plan_batch(&nodes);
        // Everything this extractor must load gets published.
        for &(_, n) in &plan.to_load {
            fb.publish(n);
        }
        fb.wait_ready(&mut plan).unwrap();
        // Aliases are valid and distinct.
        let mut aliases = plan.aliases.clone();
        aliases.sort_unstable();
        aliases.dedup();
        assert_eq!(aliases.len(), nodes.len(), "alias collision");
        outstanding.push(nodes);
        fb.check_invariants();
        // Occasionally release an outstanding batch.
        let r = release_order.get(i).copied().unwrap_or(1);
        if r % 2 == 0 {
            let done = outstanding.swap_remove(r as usize % outstanding.len());
            fb.release(&done);
            fb.check_invariants();
        }
    }
    // Release the rest and confirm the ref counts drain to zero.
    for done in outstanding {
        fb.release(&done);
    }
    for n in 0u32..50 {
        assert_eq!(fb.entry(n).1, 0, "node {n} still pinned");
    }
    fb.check_invariants();
}

#[test]
fn random_batch_lifecycles_preserve_invariants() {
    // The one failure the old generator ever shrank to: fifteen batches of
    // the same node, with the first released immediately.
    check_lifecycle(&vec![BTreeSet::from([0]); 15], &[0]);
    cases(64, |rng| {
        let batches: Vec<BTreeSet<u32>> = (0..1 + rng.below(19))
            .map(|_| {
                (0..1 + rng.below(11))
                    .map(|_| rng.below(50) as u32)
                    .collect()
            })
            .collect();
        let release_order: Vec<u8> = (0..1 + rng.below(19))
            .map(|_| rng.below(256) as u8)
            .collect();
        check_lifecycle(&batches, &release_order);
    });
}

/// Reuse correctness: a node published once stays aliased to the same
/// slot for every subsequent batch until its slot is actually stolen.
#[test]
fn aliases_are_stable_until_eviction() {
    cases(64, |rng| {
        let node = rng.below(30) as u32;
        let others: BTreeSet<u32> = (0..rng.below(8)).map(|_| rng.below(30) as u32).collect();
        let fb = manager(128, 30);
        let mut p1 = fb.plan_batch(&[node]);
        for &(_, n) in &p1.to_load {
            fb.publish(n);
        }
        fb.wait_ready(&mut p1).unwrap();
        let slot = p1.aliases[0];
        fb.release(&[node]);

        let nodes: Vec<u32> = others.iter().copied().filter(|&n| n != node).collect();
        if !nodes.is_empty() {
            let mut p2 = fb.plan_batch(&nodes);
            for &(_, n) in &p2.to_load {
                fb.publish(n);
            }
            fb.wait_ready(&mut p2).unwrap();
            fb.release(&nodes);
        }
        // With 128 slots and ≤8 other nodes, `node` cannot have been
        // evicted; replanning it must reuse the same slot with no load.
        let p3 = fb.plan_batch(&[node]);
        assert!(p3.to_load.is_empty());
        assert_eq!(p3.aliases[0], slot);
        fb.release(&[node]);
    });
}

/// Concurrency stress: many threads plan/publish/release overlapping node
/// sets through a small buffer; the run must terminate (no deadlock), keep
/// invariants, and end fully drained.
#[test]
fn concurrent_extractors_stress() {
    let fb = Arc::new(manager(512, 300));
    let threads = 4;
    let iters = 60;
    std::thread::scope(|s| {
        for t in 0..threads {
            let fb = Arc::clone(&fb);
            s.spawn(move || {
                let mut rng = Rng::seed_from_u64(t);
                for i in 0..iters {
                    // Varied overlapping batches.
                    let base = rng.below(250) as u32;
                    let nodes: Vec<u32> = (0..30).map(|k| (base + k * 7) % 300).collect();
                    let mut uniq = nodes.clone();
                    uniq.sort_unstable();
                    uniq.dedup();
                    let mut plan = fb.plan_batch(&uniq);
                    for &(_, n) in &plan.to_load {
                        fb.publish(n);
                    }
                    let _ = fb.wait_ready(&mut plan);
                    // Aliases must map to this batch's nodes bijectively.
                    assert_eq!(plan.aliases.len(), uniq.len(), "iter {i}");
                    fb.release(&uniq);
                }
            });
        }
    });
    fb.check_invariants();
    for n in 0u32..300 {
        assert_eq!(fb.entry(n).1, 0, "node {n} leaked a pin");
    }
}

fn sample(batch_id: u64, input_nodes: Vec<NodeId>) -> MiniBatchSample {
    MiniBatchSample {
        batch_id,
        seeds: Vec::new(),
        input_nodes,
        blocks: Vec::new(),
    }
}

/// The naive model of the manager: plain vectors, a standby *set* and a
/// victim found by a linear scan. Every node keeps the plan offsets of
/// the queued batches that announced it, and every standby slot the time
/// it entered its current class (a release, an abort, or an announcement
/// or withdrawal that changed its owner's class); the victim is the
/// minimum over standby slots of (class, that time), where an announced
/// owner's class is 33 + 29 − its nearest offset's next-use bucket. A
/// harvest offer takes that victim for an announced, absent, unpinned node
/// only if the victim's class is strictly below the node's.
struct Model {
    class: Vec<u8>,
    slot: Vec<Option<u32>>,
    refs: Vec<u32>,
    valid: Vec<bool>,
    aborted: Vec<bool>,
    uses: Vec<Vec<u64>>,
    /// The horizon's plan span.
    span: u64,
    owner: Vec<Option<NodeId>>,
    standby: BTreeMap<u32, u64>,
    clock: u64,
    announced_steals: u64,
    harvested: u64,
    declined: u64,
}

/// What the model predicts `plan_batch` does.
struct PlanPrediction {
    to_load: Vec<NodeId>,
    wait_for: Vec<NodeId>,
    victims: Vec<u32>,
}

impl Model {
    fn new(out_degrees: &[u32], slots: usize, span: u64) -> Model {
        let n = out_degrees.len();
        Model {
            class: out_degrees
                .iter()
                .map(|&d| (u32::BITS - d.leading_zeros()) as u8)
                .collect(),
            slot: vec![None; n],
            refs: vec![0; n],
            valid: vec![false; n],
            aborted: vec![false; n],
            uses: vec![Vec::new(); n],
            span,
            owner: vec![None; slots],
            standby: (0..slots as u32).map(|s| (s, u64::from(s))).collect(),
            clock: slots as u64,
            announced_steals: 0,
            harvested: 0,
            declined: 0,
        }
    }

    fn node_class(&self, n: NodeId) -> u8 {
        match self.uses[n as usize].iter().min() {
            Some(&offset) => 33 + 29 - (offset * 30 / self.span) as u8,
            None => self.class[n as usize],
        }
    }

    fn key(&self, slot: u32) -> (u8, u64) {
        let entered = self.standby[&slot];
        match self.owner[slot as usize] {
            Some(n) => (self.node_class(n), entered),
            None => (0, entered),
        }
    }

    fn retire(&mut self, slot: u32) {
        self.clock += 1;
        self.standby.insert(slot, self.clock);
    }

    fn restamp(&mut self, node: NodeId) {
        if let Some(s) = self.slot[node as usize] {
            if self.standby.contains_key(&s) {
                self.retire(s);
            }
        }
    }

    /// `None` when the plan would block on an empty standby list.
    fn plan(&mut self, nodes: &[NodeId]) -> Option<PlanPrediction> {
        let loads = nodes
            .iter()
            .filter(|&&n| {
                !self.valid[n as usize] && (self.refs[n as usize] == 0 || self.aborted[n as usize])
            })
            .count();
        let rescued = nodes
            .iter()
            .filter(|&&n| self.valid[n as usize] && self.refs[n as usize] == 0)
            .count();
        if loads + rescued > self.standby.len() {
            return None;
        }
        let (mut to_load, mut wait_for) = (Vec::new(), Vec::new());
        for &n in nodes {
            let i = n as usize;
            if self.valid[i] {
                if self.refs[i] == 0 {
                    self.standby
                        .remove(&self.slot[i].expect("valid has a slot"));
                }
            } else if self.refs[i] > 0 && !self.aborted[i] {
                wait_for.push(n);
            } else {
                self.aborted[i] = false;
                to_load.push(n);
            }
            self.refs[i] += 1;
        }
        let mut victims = Vec::new();
        for &n in &to_load {
            let victim = self.victim().expect("checked above");
            self.take(victim, n);
            victims.push(victim);
        }
        Some(PlanPrediction {
            to_load,
            wait_for,
            victims,
        })
    }

    /// The standby slot a steal takes next.
    fn victim(&self) -> Option<u32> {
        self.standby.keys().copied().min_by_key(|&s| self.key(s))
    }

    /// Give standby slot `victim` to `n`, evicting its owner.
    fn take(&mut self, victim: u32, n: NodeId) {
        self.standby.remove(&victim);
        if let Some(prev) = self.owner[victim as usize] {
            self.valid[prev as usize] = false;
            self.slot[prev as usize] = None;
            self.announced_steals += u64::from(!self.uses[prev as usize].is_empty());
        }
        self.owner[victim as usize] = Some(n);
        self.slot[n as usize] = Some(victim);
    }

    /// What the model predicts `harvest` takes.
    fn harvest(&mut self, offers: &[NodeId]) -> Vec<(NodeId, u32)> {
        let mut taken = Vec::new();
        for &n in offers {
            let i = n as usize;
            if self.uses[i].is_empty() || self.slot[i].is_some() || self.refs[i] > 0 {
                continue;
            }
            match self.victim() {
                Some(victim) if self.key(victim).0 < self.node_class(n) => {
                    self.take(victim, n);
                    self.refs[i] = 1;
                    self.aborted[i] = false;
                    self.harvested += 1;
                    taken.push((n, victim));
                }
                _ => self.declined += 1,
            }
        }
        taken
    }

    /// A harvest's copy landed: publish and unpin.
    fn land(&mut self, taken: &[(NodeId, u32)]) {
        for &(n, _) in taken {
            self.valid[n as usize] = true;
            self.aborted[n as usize] = false;
        }
        self.release(&taken.iter().map(|&(n, _)| n).collect::<Vec<_>>());
    }

    fn release(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            let i = n as usize;
            self.refs[i] -= 1;
            if self.refs[i] == 0 {
                if let Some(s) = self.slot[i] {
                    self.retire(s);
                }
            }
        }
    }

    fn abort(&mut self, nodes: &[NodeId], to_load: &[NodeId]) {
        for &n in nodes {
            let i = n as usize;
            self.refs[i] -= 1;
            if to_load.contains(&n) && !self.valid[i] {
                if let Some(s) = self.slot[i].take() {
                    self.owner[s as usize] = None;
                    self.retire(s);
                }
                self.aborted[i] = self.refs[i] > 0;
            } else if self.refs[i] == 0 {
                if let Some(s) = self.slot[i] {
                    self.retire(s);
                }
            }
        }
    }

    /// A queued batch at `offset` announces (`add`) or withdraws `nodes`.
    fn announce(&mut self, nodes: &[NodeId], offset: u64, add: bool) {
        for &n in nodes {
            let was = self.node_class(n);
            let uses = &mut self.uses[n as usize];
            if add {
                uses.push(offset);
            } else {
                let at = uses.iter().position(|&u| u == offset).expect("announced");
                uses.swap_remove(at);
            }
            if was != self.node_class(n) {
                self.restamp(n);
            }
        }
    }
}

/// A planned batch the property still owes a publish, release or abort.
struct Outstanding {
    nodes: Vec<NodeId>,
    plan: ExtractPlan,
    to_load: Vec<NodeId>,
    published: bool,
}

/// Random plan/publish/release/announce/withdraw/abort/harvest sequences
/// through a small buffer with random out-degrees and a random horizon
/// span (plan positions sometimes outside it): every slot the manager
/// steals, for a load or a harvest offer, is the naive model's victim,
/// next-use buckets included, every offer is taken or declined as the
/// model says, and the mapping tables agree after every step.
#[test]
fn eviction_matches_the_naive_model() {
    const NODES: usize = 24;
    const SLOTS: usize = 10;
    let (mut harvested, mut declined) = (0, 0);
    cases(96, |rng| {
        let degrees: Vec<u32> = (0..NODES).map(|_| rng.below(40) as u32).collect();
        let slab = Arc::new(FeatureSlab::new(SLOTS, 2));
        let cfg = GnnDriveConfig {
            slot_wait_timeout: Duration::from_millis(50),
            ..Default::default()
        };
        let fb = FeatureBufferManager::with_out_degrees(slab, &degrees, &cfg);
        let first = rng.below(8) as u64;
        let span = 1 + rng.below(80) as u64;
        let mut model = Model::new(&degrees, SLOTS, span);
        let horizon = fb.horizon(first..first + span);
        let mut queued = Vec::new();
        let mut outstanding: Vec<Outstanding> = Vec::new();
        let mut harvests: Vec<Vec<(NodeId, u32)>> = Vec::new();
        for step in 0..200 {
            match rng.below(8) {
                0 => {
                    let nodes: Vec<NodeId> = (0..1 + rng.below(6))
                        .map(|_| rng.below(NODES) as NodeId)
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    let Some(want) = model.plan(&nodes) else {
                        continue;
                    };
                    let plan = fb.plan_batch(&nodes);
                    let got = |pairs: &[(usize, NodeId)]| {
                        pairs.iter().map(|&(_, n)| n).collect::<Vec<_>>()
                    };
                    assert_eq!(got(&plan.to_load), want.to_load, "step {step}");
                    assert_eq!(got(&plan.wait_for), want.wait_for, "step {step}");
                    let stolen: Vec<u32> =
                        plan.to_load.iter().map(|&(i, _)| plan.aliases[i]).collect();
                    assert_eq!(stolen, want.victims, "step {step}: wrong victim");
                    outstanding.push(Outstanding {
                        nodes,
                        plan,
                        to_load: want.to_load,
                        published: false,
                    });
                }
                1 if !outstanding.is_empty() => {
                    let k = rng.below(outstanding.len());
                    let o = &mut outstanding[k];
                    if !o.published {
                        for &n in &o.to_load {
                            fb.publish(n);
                            model.valid[n as usize] = true;
                            model.aborted[n as usize] = false;
                        }
                        o.published = true;
                    }
                }
                2 if !outstanding.is_empty() => {
                    let k = rng.below(outstanding.len());
                    let o = &outstanding[k];
                    let dead = |n: &NodeId| model.aborted[*n as usize] && !model.valid[*n as usize];
                    let waits: Vec<NodeId> = o.plan.wait_for.iter().map(|&(_, n)| n).collect();
                    if !o.published || !waits.iter().all(|n| model.valid[*n as usize] || dead(n)) {
                        continue; // wait_ready would block
                    }
                    let mut o = outstanding.swap_remove(k);
                    if fb.wait_ready(&mut o.plan).is_ok() {
                        fb.release(&o.nodes);
                        model.release(&o.nodes);
                    } else {
                        fb.abort_batch(&o.plan, &o.nodes);
                        model.abort(&o.nodes, &o.to_load);
                    }
                }
                3 if !outstanding.is_empty() => {
                    let o = outstanding.swap_remove(rng.below(outstanding.len()));
                    fb.abort_batch(&o.plan, &o.nodes);
                    model.abort(&o.nodes, &o.to_load);
                }
                4 => {
                    let nodes: Vec<NodeId> = (0..1 + rng.below(5))
                        .map(|_| rng.below(NODES) as NodeId)
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    let pos = rng.below((first + span + 4) as usize) as u64;
                    let offset = pos.saturating_sub(first).min(span - 1);
                    model.announce(&nodes, offset, true);
                    queued.push((
                        horizon.announce(sample(pos, nodes.clone()), ()),
                        nodes,
                        offset,
                    ));
                }
                5 if !queued.is_empty() => {
                    let (a, nodes, offset) = queued.swap_remove(rng.below(queued.len()));
                    // Taken by an extractor, or dropped unextracted.
                    if rng.bool(0.5) {
                        assert_eq!(a.withdraw().input_nodes, nodes);
                    } else {
                        drop(a);
                    }
                    model.announce(&nodes, offset, false);
                }
                6 => {
                    // A verified window's bridged rows, in row order.
                    let first = rng.below(NODES) as NodeId;
                    let offers: Vec<NodeId> = (first..NODES as NodeId)
                        .take(1 + rng.below(6))
                        .filter(|_| rng.bool(0.7))
                        .collect();
                    let want = model.harvest(&offers);
                    let taken = fb.harvest(&offers);
                    assert_eq!(taken, want, "step {step}: harvest of {offers:?}");
                    harvests.push(taken);
                }
                7 if !harvests.is_empty() => {
                    let taken = harvests.swap_remove(rng.below(harvests.len()));
                    // The loaded rows of the window are not modelled.
                    fb.publish_window(&taken, 0);
                    model.land(&taken);
                }
                _ => continue,
            }
            fb.check_invariants();
            for n in 0..NODES {
                let want_slot = model.slot[n].map_or(-1, i64::from);
                assert_eq!(
                    fb.entry(n as NodeId),
                    (want_slot, model.refs[n], model.valid[n]),
                    "step {step}: node {n}"
                );
            }
        }
        let stats = fb.stats();
        let stolen = stats.announced_steals.load(Ordering::Relaxed);
        assert_eq!(stolen, model.announced_steals);
        assert_eq!(
            stats.harvested_rows.load(Ordering::Relaxed),
            model.harvested
        );
        assert_eq!(
            stats.harvest_declined.load(Ordering::Relaxed),
            model.declined
        );
        (harvested, declined) = (harvested + model.harvested, declined + model.declined);
        drop(queued);
        drop(horizon);
        fb.check_invariants();
        assert_eq!(fb.announced_rows(), 0);
    });
    assert!(
        harvested > 0 && declined > 0,
        "{harvested} taken, {declined} declined"
    );
}
