//! The feature-buffer manager (paper §4.2, Fig 6, Algorithm 1).
//!
//! Four components, as the paper describes:
//!
//! * a **mapping table** — per graph node: slot index (none = not
//!   buffered), a reference count, and a valid bit. (slot, valid=1) means
//!   the data is ready in the slot; (slot, valid=0) means it is being
//!   extracted by some extractor; (none, valid=0) means not buffered;
//!   (none, 1) is impossible. Each 16-byte entry also holds the node's
//!   popularity class and how many queued batches announced it (below).
//! * the **buffer** itself — a [`FeatureSlab`] of fixed feature-row slots
//!   in device memory (host memory for CPU training);
//! * a **reverse mapping array** — per slot, which node currently owns it
//!   (none = free);
//! * a **standby list** of slots that are free or retired (reference count
//!   zero) but possibly still valid, enabling inter-batch reuse;
//!   invalidation of a retired node is *delayed* until its slot is actually
//!   stolen.
//!
//! Unlike the paper's LRU standby list, this one evicts cold rows first
//! (DESIGN.md §4 item 10). It is an [`LruList`] with classes: free slots
//! sit in class 0, a retired slot in its owner's *popularity class* (the
//! bit length of the node's out-degree, fixed at construction), and a
//! retired slot whose owner a queued batch has *announced* (see
//! [`Horizon`]) in the top class. A steal takes the least recently
//! retired slot of the lowest non-empty class. A manager made with
//! [`FeatureBufferManager::new`] and never announced to keeps every slot
//! in class 0: plain LRU.
//!
//! Concurrency follows Algorithm 1: an extractor plans a batch atomically
//! (reuse pass + slot allocation), loads asynchronously, publishes valid
//! bits, and other extractors wanting the same node wait instead of
//! re-extracting. The deadlock reservation (≥ `Ne × Mb` slots) is the
//! caller's responsibility; a loud timeout guards against undersizing.

use crate::config::GnnDriveConfig;
use gnndrive_device::FeatureSlab;
use gnndrive_graph::NodeId;
use gnndrive_sampling::MiniBatchSample;
use gnndrive_storage::LruList;
use gnndrive_sync::{LockRank, OrderedCondvar, OrderedMutex};
use gnndrive_telemetry as telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::catalog;

const NO_SLOT: u32 = u32::MAX;
const NO_NODE: NodeId = NodeId::MAX;

/// Standby class of a retired slot whose owner is announced: above every
/// popularity class (the bit length of a `u32` out-degree is at most 32),
/// so it is stolen last.
const ANNOUNCED: u8 = u32::BITS as u8 + 1;

/// A node's popularity class: the bit length of its out-degree, i.e. of
/// how many in-neighbour lists of the CSC it appears in (0 for none).
fn popularity_class(out_degree: u32) -> u8 {
    (u32::BITS - out_degree.leading_zeros()) as u8
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    slot: u32,
    ref_count: u32,
    /// Queued batches that announced this node: at most the live
    /// [`Announced`] handles, each owning a sample in memory.
    announced: u32,
    /// [`popularity_class`] of the node's out-degree.
    class: u8,
    valid: bool,
    /// The extractor loading this node gave up (I/O failure); waiters must
    /// error out and future planners must re-load.
    aborted: bool,
}

// One mapping-table entry per graph node: the table must not grow.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    /// The standby class this node's slot belongs in once retired.
    fn standby_class(&self) -> u8 {
        if self.announced > 0 {
            ANNOUNCED
        } else {
            self.class
        }
    }
}

struct Inner {
    map: Vec<Entry>,
    /// Per slot: owning node id, or [`NO_NODE`].
    reverse: Vec<NodeId>,
    standby: LruList,
    /// Open [`Horizon`]s: outside every one, nothing may be announced.
    horizons: u32,
}

impl Inner {
    /// The standby class `slot` belongs in: its owner's, or 0 when free.
    fn slot_class(&self, slot: u32) -> u8 {
        match self.reverse[slot as usize] {
            NO_NODE => 0,
            owner => self.map[owner as usize].standby_class(),
        }
    }

    /// Put `slot` at the most-recently-retired end of its standby class.
    fn retire(&mut self, slot: u32) {
        let class = self.slot_class(slot);
        self.standby.push_back_in(slot, class);
    }

    /// Move `node`'s slot, if it is on standby, into the class the node's
    /// entry now implies.
    fn refile(&mut self, node: NodeId) {
        let e = self.map[node as usize];
        if e.slot == NO_SLOT {
            return;
        }
        match self.standby.class_of(e.slot) {
            Some(class) if class != e.standby_class() => {
                self.standby.remove(e.slot);
                self.retire(e.slot);
            }
            _ => {}
        }
    }
}

/// The plan produced for one mini-batch: which slots alias which input
/// nodes, which nodes this extractor must load, and which nodes another
/// extractor is already loading.
#[derive(Debug)]
pub struct ExtractPlan {
    /// Final slot alias per input node (aligned with the batch's
    /// `input_nodes`). Entries for `wait_for` nodes are resolved by
    /// [`FeatureBufferManager::wait_ready`].
    pub aliases: Vec<u32>,
    /// `(position in input_nodes, node)` pairs this extractor must load.
    pub to_load: Vec<(usize, NodeId)>,
    /// `(position, node)` pairs being loaded by other extractors.
    pub wait_for: Vec<(usize, NodeId)>,
}

/// Counters for the buffer's reuse behaviour (Fig 12 diagnostics).
///
/// Increments are mirrored into the metrics registry under
/// `feature_buffer.*`; the typed struct stays as the per-manager view.
#[derive(Debug)]
pub struct FeatureBufferStats {
    /// Nodes served from the buffer without any I/O (valid hit).
    pub reuse_hits: AtomicU64,
    /// Nodes resolved by waiting on another extractor's in-flight load.
    pub shared_loads: AtomicU64,
    /// Nodes this manager asked extractors to load from SSD.
    pub loads: AtomicU64,
    /// Valid entries invalidated when their slot was stolen.
    pub delayed_invalidations: AtomicU64,
}

impl Default for FeatureBufferStats {
    fn default() -> Self {
        for c in [
            &catalog::FEATURE_BUFFER_REUSE_HITS,
            &catalog::FEATURE_BUFFER_SHARED_LOADS,
            &catalog::FEATURE_BUFFER_LOADS,
            &catalog::FEATURE_BUFFER_DELAYED_INVALIDATIONS,
        ] {
            c.register();
        }
        FeatureBufferStats {
            reuse_hits: AtomicU64::new(0),
            shared_loads: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            delayed_invalidations: AtomicU64::new(0),
        }
    }
}

impl FeatureBufferStats {
    fn add_reuse_hit(&self) {
        self.reuse_hits.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_REUSE_HITS.inc();
    }

    fn add_shared_load(&self) {
        self.shared_loads.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_SHARED_LOADS.inc();
    }

    fn add_load(&self) {
        self.loads.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_LOADS.inc();
    }

    fn add_delayed_invalidation(&self) {
        self.delayed_invalidations.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_DELAYED_INVALIDATIONS.inc();
    }
}

/// See module docs.
pub struct FeatureBufferManager {
    slab: Arc<FeatureSlab>,
    inner: OrderedMutex<Inner>,
    slot_available: OrderedCondvar,
    data_ready: OrderedCondvar,
    timeout: Duration,
    stats: FeatureBufferStats,
}

impl FeatureBufferManager {
    /// Manage `slab` for a graph of `num_nodes` nodes, every node in
    /// popularity class 0: the standby list is plain LRU.
    pub fn new(slab: Arc<FeatureSlab>, num_nodes: usize, config: &GnnDriveConfig) -> Self {
        Self::with_out_degrees(slab, &vec![0; num_nodes], config)
    }

    /// Manage `slab` for a graph whose node `v` has out-degree
    /// `out_degrees[v]`: a retired row's popularity class, the bit length
    /// of its out-degree, decides how soon its slot is stolen.
    pub fn with_out_degrees(
        slab: Arc<FeatureSlab>,
        out_degrees: &[u32],
        config: &GnnDriveConfig,
    ) -> Self {
        let num_slots = slab.num_slots();
        let mut standby = LruList::with_classes(num_slots, ANNOUNCED as usize + 1);
        for s in 0..num_slots as u32 {
            standby.push_back(s);
        }
        let map = out_degrees
            .iter()
            .map(|&d| Entry {
                slot: NO_SLOT,
                ref_count: 0,
                announced: 0,
                class: popularity_class(d),
                valid: false,
                aborted: false,
            })
            .collect();
        // The standby-list occupancy (free/retired slots) is the paper's
        // feature-buffer headroom, live in run reports.
        catalog::FEATURE_BUFFER_SLOTS.set(num_slots as i64);
        catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(num_slots as i64);
        FeatureBufferManager {
            slab,
            inner: OrderedMutex::new(
                LockRank::Buffer,
                Inner {
                    map,
                    reverse: vec![NO_NODE; num_slots],
                    standby,
                    horizons: 0,
                },
            ),
            slot_available: OrderedCondvar::new(),
            data_ready: OrderedCondvar::new(),
            timeout: config.slot_wait_timeout,
            stats: FeatureBufferStats::default(),
        }
    }

    pub fn slab(&self) -> &Arc<FeatureSlab> {
        &self.slab
    }

    pub fn num_slots(&self) -> usize {
        self.slab.num_slots()
    }

    pub fn stats(&self) -> &FeatureBufferStats {
        &self.stats
    }

    /// Slots currently in the standby list (free or retired).
    pub fn standby_len(&self) -> usize {
        self.inner.lock().standby.len()
    }

    /// Algorithm 1, lines 5–29: pin every input node, reusing valid data,
    /// queueing in-flight nodes for waiting, and taking standby slots
    /// coldest class first (with delayed invalidation of their previous
    /// owners) for the nodes this extractor must load.
    ///
    /// Blocks while the standby list is empty (waiting for the releaser);
    /// panics after the configured timeout — that means the feature buffer
    /// violates the `Ne × Mb` reservation for this workload.
    pub fn plan_batch(&self, input_nodes: &[NodeId]) -> ExtractPlan {
        let mut inner = self.inner.lock();
        let mut aliases = vec![0u32; input_nodes.len()];
        let mut to_load = Vec::new();
        let mut wait_for = Vec::new();

        // Reuse pass (lines 5–19).
        for (i, &node) in input_nodes.iter().enumerate() {
            let e = inner.map[node as usize];
            if e.valid {
                debug_assert!(e.slot != NO_SLOT, "valid entry must have a slot");
                if e.ref_count == 0 {
                    // Retired but still resident: pull its slot back out of
                    // the standby list before someone steals it.
                    inner.standby.remove(e.slot);
                }
                aliases[i] = e.slot;
                self.stats.add_reuse_hit();
            } else if e.ref_count > 0 && !e.aborted {
                // Another extractor is loading this node right now.
                wait_for.push((i, node));
                self.stats.add_shared_load();
            } else {
                // Fresh node, or one whose previous loader aborted: this
                // extractor takes over the load.
                inner.map[node as usize].aborted = false;
                to_load.push((i, node));
            }
            inner.map[node as usize].ref_count += 1;
        }

        // Allocation pass (lines 20–29).
        for &(i, node) in &to_load {
            // Attribution: an empty standby list means the slot budget —
            // i.e. available memory — is the constraint (𝔒1). Timed only
            // while actually blocked on the releaser.
            let mut slot_wait = None;
            let slot = loop {
                if let Some(slot) = inner.standby.pop_front() {
                    break slot;
                }
                if slot_wait.is_none() {
                    slot_wait = Some(gnndrive_telemetry::wait_timer(
                        gnndrive_telemetry::WaitKind::SlotWait,
                    ));
                }
                // Wait for the releaser to retire slots.
                let timed_out = self
                    .slot_available
                    .wait_for(&mut inner, self.timeout)
                    .timed_out();
                if timed_out {
                    panic!(
                        "feature buffer exhausted: no standby slot within {:?} — \
                         the buffer ({} slots) is too small for Ne × Mb of this workload",
                        self.timeout,
                        self.slab.num_slots()
                    );
                }
            };
            drop(slot_wait);
            // Delayed invalidation: evict the slot's previous owner now.
            let prev = inner.reverse[slot as usize];
            if prev != NO_NODE {
                let p = &mut inner.map[prev as usize];
                debug_assert_eq!(p.ref_count, 0, "standby slot owner must be unpinned");
                p.valid = false;
                p.slot = NO_SLOT;
                self.stats.add_delayed_invalidation();
            }
            inner.reverse[slot as usize] = node;
            inner.map[node as usize].slot = slot;
            debug_assert!(!inner.map[node as usize].valid);
            aliases[i] = slot;
            self.stats.add_load();
        }
        catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);

        ExtractPlan {
            aliases,
            to_load,
            wait_for,
        }
    }

    /// Mark `node`'s slot data as extracted (valid bit → 1) and wake
    /// waiters. Called once the node's host→device transfer completed.
    pub fn publish(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        let e = &mut inner.map[node as usize];
        debug_assert!(e.slot != NO_SLOT, "publish of unmapped node {node}");
        e.valid = true;
        e.aborted = false;
        drop(inner);
        self.data_ready.notify_all();
    }

    /// Algorithm 1, line 36: block until every `wait_for` node published,
    /// then resolve their aliases from the (now stable) mapping table.
    ///
    /// Errors if a node's loader aborted (its I/O failed permanently); the
    /// caller abandons the batch via [`FeatureBufferManager::abort_batch`].
    pub fn wait_ready(&self, plan: &mut ExtractPlan) -> Result<(), NodeId> {
        if plan.wait_for.is_empty() {
            return Ok(());
        }
        // Attribution: waiting on another extractor's in-flight load is an
        // I/O dependency (𝔒2). Timed only once a node is actually pending.
        let mut ready_wait = None;
        let mut inner = self.inner.lock();
        for &(i, node) in &plan.wait_for {
            loop {
                let e = inner.map[node as usize];
                if e.valid {
                    plan.aliases[i] = e.slot;
                    break;
                }
                if e.aborted {
                    return Err(node);
                }
                if ready_wait.is_none() {
                    ready_wait = Some(gnndrive_telemetry::wait_timer(
                        gnndrive_telemetry::WaitKind::ReadyWait,
                    ));
                }
                let timed_out = self
                    .data_ready
                    .wait_for(&mut inner, self.timeout)
                    .timed_out();
                if timed_out {
                    panic!("timed out waiting for node {node} to become valid");
                }
            }
        }
        Ok(())
    }

    /// Abandon a planned batch after an unrecoverable extraction failure:
    /// unpin every node; unpublished nodes this extractor owned either
    /// return their slot to the standby list (no other pins) or are marked
    /// aborted so waiters fail fast and the next planner re-loads them.
    pub fn abort_batch(&self, plan: &ExtractPlan, input_nodes: &[NodeId]) {
        let loading: std::collections::HashSet<NodeId> =
            plan.to_load.iter().map(|&(_, n)| n).collect();
        let mut inner = self.inner.lock();
        for &node in input_nodes {
            let e = &mut inner.map[node as usize];
            debug_assert!(e.ref_count > 0);
            e.ref_count -= 1;
            let refs = e.ref_count;
            let valid = e.valid;
            let slot = e.slot;
            if loading.contains(&node) && !valid {
                // Free the slot outright. With no other pins the entry
                // simply forgets it; with waiters it is poisoned so they
                // fail fast and the takeover loader allocates fresh.
                if slot != NO_SLOT {
                    inner.reverse[slot as usize] = NO_NODE;
                    inner.retire(slot);
                }
                let e = &mut inner.map[node as usize];
                e.slot = NO_SLOT;
                e.aborted = refs > 0;
            } else if refs == 0 && slot != NO_SLOT {
                inner.retire(slot);
            }
        }
        catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);
        drop(inner);
        self.slot_available.notify_all();
        self.data_ready.notify_all();
    }

    /// Release stage (§4.2 "Release Feature Buffer"): unpin every node of a
    /// trained batch; slots whose reference count reaches zero join the
    /// most-recently-retired end of their standby class, still valid for
    /// potential reuse.
    pub fn release(&self, input_nodes: &[NodeId]) {
        let mut inner = self.inner.lock();
        let mut freed = false;
        for &node in input_nodes {
            let e = &mut inner.map[node as usize];
            debug_assert!(e.ref_count > 0, "release underflow on node {node}");
            e.ref_count -= 1;
            if e.ref_count == 0 {
                let slot = e.slot;
                if slot != NO_SLOT {
                    inner.retire(slot);
                    freed = true;
                }
            }
        }
        catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);
        drop(inner);
        if freed {
            self.slot_available.notify_all();
        }
    }

    /// Open an announce horizon (see [`Horizon`]).
    pub fn horizon(&self) -> Horizon<'_> {
        self.inner.lock().horizons += 1;
        Horizon { fb: self }
    }

    /// Count one announcement of each of `nodes`, moving newly announced
    /// retired slots to the top class.
    fn announce_nodes(&self, nodes: &[NodeId]) {
        let mut inner = self.inner.lock();
        for &node in nodes {
            let e = &mut inner.map[node as usize];
            // One count per live `Announced`, each holding a sample in
            // memory: `u32::MAX` of them cannot exist.
            e.announced = e
                .announced
                .checked_add(1)
                .expect("announcement count overflow");
            if e.announced == 1 {
                inner.refile(node);
            }
        }
    }

    /// Undo one [`FeatureBufferManager::announce_nodes`] of `nodes`.
    fn withdraw_nodes(&self, nodes: &[NodeId]) {
        let mut inner = self.inner.lock();
        for &node in nodes {
            let e = &mut inner.map[node as usize];
            e.announced -= 1;
            if e.announced == 0 {
                inner.refile(node);
            }
        }
    }

    /// Test/diagnostic view of one node's mapping entry:
    /// `(slot, ref_count, valid)`, slot −1 when the node has none.
    pub fn entry(&self, node: NodeId) -> (i64, u32, bool) {
        let inner = self.inner.lock();
        let e = inner.map[node as usize];
        let slot = if e.slot == NO_SLOT { -1 } else { e.slot.into() };
        (slot, e.ref_count, e.valid)
    }

    /// Validate the structural invariants (test helper): the live mapping
    /// is injective, reverse mapping is consistent, every standby slot is
    /// free or owned by an unpinned node and sits in the class its owner
    /// implies (free slots in class 0), and nothing is announced while no
    /// [`Horizon`] is open.
    pub fn check_invariants(&self) {
        let inner = self.inner.lock();
        let mut seen = vec![false; inner.reverse.len()];
        for (node, e) in inner.map.iter().enumerate() {
            assert!(
                inner.horizons > 0 || e.announced == 0,
                "announcements outlived every horizon (node {node})"
            );
            if e.slot != NO_SLOT {
                let s = e.slot as usize;
                assert!(!seen[s], "two nodes share slot {s}");
                seen[s] = true;
                assert_eq!(
                    inner.reverse[s], node as NodeId,
                    "reverse mapping broken for slot {s}"
                );
            } else {
                assert!(!e.valid, "valid entry without slot (impossible state)");
            }
        }
        for slot in inner.standby.iter() {
            let owner = inner.reverse[slot as usize];
            if owner != NO_NODE {
                assert_eq!(
                    inner.map[owner as usize].ref_count, 0,
                    "pinned node's slot {slot} is in standby"
                );
            }
            assert_eq!(
                inner.standby.class_of(slot),
                Some(inner.slot_class(slot)),
                "standby slot {slot} (owner {owner}) is in the wrong class"
            );
        }
    }
}

/// An epoch's announce horizon: the batches sampled but not yet pinned by
/// an extractor, whose input rows are about to be used (Belady's "keep
/// what is used soonest" over what the pipeline already knows).
///
/// [`Horizon::announce`] moves each input node's retired slot into the
/// class stolen last; the returned [`Announced`] withdraws the
/// announcement exactly once — when an extractor has planned the batch
/// ([`Announced::withdraw`]) or when it is dropped unextracted. It borrows
/// the horizon, so no announcement outlives the epoch that made it, and
/// [`FeatureBufferManager::check_invariants`] asserts nothing is announced
/// while no horizon is open.
pub struct Horizon<'fb> {
    fb: &'fb FeatureBufferManager,
}

impl Horizon<'_> {
    /// Announce `sample`'s input nodes until the returned handle is
    /// withdrawn or dropped.
    pub fn announce(&self, sample: MiniBatchSample) -> Announced<'_> {
        self.fb.announce_nodes(&sample.input_nodes);
        Announced {
            fb: self.fb,
            sample: Some(sample),
        }
    }
}

impl Drop for Horizon<'_> {
    fn drop(&mut self) {
        self.fb.inner.lock().horizons -= 1;
    }
}

/// A sample whose input nodes are announced; see [`Horizon`].
pub struct Announced<'h> {
    fb: &'h FeatureBufferManager,
    /// `None` once withdrawn.
    sample: Option<MiniBatchSample>,
}

impl Announced<'_> {
    /// The announced sample.
    pub fn sample(&self) -> &MiniBatchSample {
        self.sample
            .as_ref()
            .expect("present until `withdraw` consumes the handle")
    }

    /// Withdraw the announcement and hand over the sample: the extractor
    /// has pinned the batch's rows.
    pub fn withdraw(mut self) -> MiniBatchSample {
        self.settle()
            .expect("withdrawn once: `withdraw` consumes the handle")
    }

    fn settle(&mut self) -> Option<MiniBatchSample> {
        let sample = self.sample.take()?;
        self.fb.withdraw_nodes(&sample.input_nodes);
        Some(sample)
    }
}

impl Drop for Announced<'_> {
    fn drop(&mut self) {
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(num_slots: usize, num_nodes: usize) -> FeatureBufferManager {
        let slab = Arc::new(FeatureSlab::new(num_slots, 4));
        let cfg = GnnDriveConfig {
            slot_wait_timeout: Duration::from_millis(300),
            ..Default::default()
        };
        FeatureBufferManager::new(slab, num_nodes, &cfg)
    }

    #[test]
    fn fresh_nodes_are_planned_for_loading() {
        let fb = manager(8, 20);
        let plan = fb.plan_batch(&[3, 5, 7]);
        assert_eq!(plan.to_load.len(), 3);
        assert!(plan.wait_for.is_empty());
        // Slots are distinct.
        let mut a = plan.aliases.clone();
        a.sort_unstable();
        a.dedup();
        assert_eq!(a.len(), 3);
        fb.check_invariants();
    }

    #[test]
    fn published_then_released_nodes_are_reused_without_io() {
        let fb = manager(8, 20);
        let mut plan = fb.plan_batch(&[3, 5]);
        for &(_, n) in &plan.to_load {
            fb.publish(n);
        }
        let _ = fb.wait_ready(&mut plan);
        fb.release(&[3, 5]);
        // Second batch over the same nodes: zero loads (inter-batch reuse).
        let plan2 = fb.plan_batch(&[5, 3]);
        assert!(plan2.to_load.is_empty());
        assert!(plan2.wait_for.is_empty());
        assert_eq!(fb.stats().reuse_hits.load(Ordering::Relaxed), 2);
        assert_eq!(plan2.aliases.len(), 2);
        fb.check_invariants();
        fb.release(&[5, 3]);
    }

    #[test]
    fn concurrent_batches_share_inflight_loads() {
        let fb = manager(8, 20);
        // Extractor A starts loading node 3.
        let plan_a = fb.plan_batch(&[3]);
        assert_eq!(plan_a.to_load.len(), 1);
        // Extractor B wants node 3 too: must wait, not re-load.
        let plan_b = fb.plan_batch(&[3]);
        assert!(plan_b.to_load.is_empty());
        assert_eq!(plan_b.wait_for.len(), 1);
        let (_, _, valid) = fb.entry(3);
        assert!(!valid);
        assert_eq!(fb.entry(3).1, 2, "both extractors pin the node");
        fb.check_invariants();
    }

    #[test]
    fn wait_ready_resolves_aliases_after_publish() {
        let fb = Arc::new(manager(8, 20));
        let plan_a = fb.plan_batch(&[7]);
        let mut plan_b = fb.plan_batch(&[7]);
        let fb2 = Arc::clone(&fb);
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            fb2.publish(7);
        });
        let _ = fb.wait_ready(&mut plan_b);
        publisher.join().unwrap();
        assert_eq!(plan_b.aliases[0], plan_a.aliases[0]);
    }

    #[test]
    fn lru_steals_oldest_retired_slot_with_delayed_invalidation() {
        let fb = manager(2, 10);
        let p1 = fb.plan_batch(&[0]);
        fb.publish(0);
        fb.release(&[0]);
        let p2 = fb.plan_batch(&[1]);
        fb.publish(1);
        fb.release(&[1]);
        // Node 0 is still valid (delayed invalidation).
        assert!(fb.entry(0).2);
        // A third node steals the LRU slot — node 0's.
        let p3 = fb.plan_batch(&[2]);
        assert_eq!(p3.aliases[0], p1.aliases[0]);
        let (slot0, _, valid0) = fb.entry(0);
        assert_eq!(slot0, -1);
        assert!(!valid0);
        // Node 1 survives.
        assert!(fb.entry(1).2);
        assert_eq!(fb.stats().delayed_invalidations.load(Ordering::Relaxed), 1);
        fb.check_invariants();
        let _ = (p2, p3);
    }

    #[test]
    fn retired_valid_node_is_rescued_from_standby_on_reuse() {
        let fb = manager(2, 10);
        fb.plan_batch(&[4]);
        fb.publish(4);
        fb.release(&[4]);
        assert_eq!(fb.standby_len(), 2);
        // Re-pinning node 4 must remove its slot from standby so an
        // allocation cannot steal it mid-use.
        let plan = fb.plan_batch(&[4]);
        assert!(plan.to_load.is_empty());
        assert_eq!(fb.standby_len(), 1);
        fb.check_invariants();
    }

    #[test]
    fn blocked_allocation_wakes_on_release() {
        let fb = Arc::new(manager(1, 10));
        let p1 = fb.plan_batch(&[0]);
        fb.publish(0);
        let fb2 = Arc::clone(&fb);
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            fb2.release(&[0]);
        });
        // Blocks until the release above frees the only slot.
        let p2 = fb.plan_batch(&[1]);
        releaser.join().unwrap();
        assert_eq!(p2.aliases[0], p1.aliases[0]);
        fb.check_invariants();
    }

    #[test]
    #[should_panic(expected = "feature buffer exhausted")]
    fn undersized_buffer_fails_loud() {
        let fb = manager(1, 10);
        let _p = fb.plan_batch(&[0]);
        // Second distinct node with zero standby slots and nobody
        // releasing: must panic after the (short) timeout.
        let _ = fb.plan_batch(&[1]);
    }

    #[test]
    fn duplicate_pins_and_releases_balance() {
        let fb = manager(4, 10);
        fb.plan_batch(&[2]);
        fb.publish(2);
        fb.plan_batch(&[2]);
        assert_eq!(fb.entry(2).1, 2);
        fb.release(&[2]);
        assert_eq!(fb.entry(2).1, 1);
        assert_eq!(fb.standby_len(), 3, "still pinned: not in standby");
        fb.release(&[2]);
        assert_eq!(fb.standby_len(), 4);
        fb.check_invariants();
    }

    fn sample(input_nodes: Vec<NodeId>) -> MiniBatchSample {
        MiniBatchSample {
            batch_id: 0,
            seeds: Vec::new(),
            input_nodes,
            blocks: Vec::new(),
        }
    }

    /// Plan, publish and release `nodes` as one batch.
    fn cycle(fb: &FeatureBufferManager, nodes: &[NodeId]) -> ExtractPlan {
        let plan = fb.plan_batch(nodes);
        for &(_, n) in &plan.to_load {
            fb.publish(n);
        }
        fb.release(nodes);
        plan
    }

    #[test]
    fn popularity_class_is_the_out_degree_bit_length() {
        let classes: Vec<u8> = [0, 1, 2, 3, 4, 1000, u32::MAX]
            .into_iter()
            .map(popularity_class)
            .collect();
        assert_eq!(classes, vec![0, 1, 2, 2, 3, 10, 32]);
        assert!(popularity_class(u32::MAX) < ANNOUNCED);
    }

    #[test]
    fn cold_rows_are_stolen_before_popular_ones() {
        // Node 0 is popular (out-degree 8), nodes 1 and 2 are cold.
        let slab = Arc::new(FeatureSlab::new(2, 4));
        let cfg = GnnDriveConfig::default();
        let fb = FeatureBufferManager::with_out_degrees(slab, &[8, 1, 1], &cfg);
        let p0 = cycle(&fb, &[0]);
        let p1 = cycle(&fb, &[1]);
        // LRU would steal node 0's slot; the classes steal the cold row's.
        let p2 = cycle(&fb, &[2]);
        assert_eq!(p2.aliases[0], p1.aliases[0]);
        assert!(fb.entry(0).2, "the popular row survives");
        assert_eq!(fb.entry(0).0, i64::from(p0.aliases[0]));
        fb.check_invariants();
    }

    #[test]
    fn announced_rows_are_stolen_last_until_withdrawn() {
        let fb = manager(2, 10);
        let p0 = cycle(&fb, &[0]);
        let p1 = cycle(&fb, &[1]);
        let horizon = fb.horizon();
        let queued = horizon.announce(sample(vec![0, 5]));
        fb.check_invariants();
        // Node 0 is the LRU row, but a queued batch needs it.
        let p2 = cycle(&fb, &[2]);
        assert_eq!(p2.aliases[0], p1.aliases[0]);
        assert!(fb.entry(0).2);
        // The extractor takes the batch: node 0 is back in its class, at
        // the most recently retired end.
        let taken = queued.withdraw();
        assert_eq!(taken.input_nodes, vec![0, 5]);
        fb.check_invariants();
        let p3 = cycle(&fb, &[3]);
        assert_eq!(
            p3.aliases[0], p2.aliases[0],
            "node 2 retired before 0 was refiled"
        );
        assert_eq!(fb.entry(0).0, i64::from(p0.aliases[0]));
        drop(horizon);
        fb.check_invariants();
    }

    #[test]
    fn a_batch_announced_but_never_planned_is_withdrawn_on_drop() {
        let fb = manager(4, 10);
        cycle(&fb, &[1, 2]);
        {
            let horizon = fb.horizon();
            let a = horizon.announce(sample(vec![1, 3]));
            let b = horizon.announce(sample(vec![1]));
            assert_eq!(fb.inner.lock().map[1].announced, 2);
            drop(a);
            assert_eq!(fb.inner.lock().map[1].announced, 1);
            fb.check_invariants();
            // Dropped unextracted, e.g. left in the queue when the trainer
            // stopped early.
            drop(b);
            fb.check_invariants();
        }
        let inner = fb.inner.lock();
        assert_eq!(inner.horizons, 0);
        assert!(inner.map.iter().all(|e| e.announced == 0));
        let slot = inner.map[1].slot;
        assert_eq!(inner.standby.class_of(slot), Some(0));
    }

    #[test]
    #[should_panic(expected = "announcements outlived every horizon")]
    fn an_announcement_leaked_past_its_horizon_is_caught() {
        let fb = manager(4, 10);
        let horizon = fb.horizon();
        std::mem::forget(horizon.announce(sample(vec![1])));
        drop(horizon);
        fb.check_invariants();
    }
}
