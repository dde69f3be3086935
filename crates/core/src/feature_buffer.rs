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
//! [`Horizon`]) in one of [`NEXT_USE_BUCKETS`] next-use classes above
//! those, the farthest next use lowest. A steal takes the least recently
//! retired slot of the lowest non-empty class. A manager made with
//! [`FeatureBufferManager::new`] and never announced to keeps every slot
//! in class 0: plain LRU.
//!
//! A verified read window also carries rows the batch did not ask for:
//! the gaps the read planner bridged. [`FeatureBufferManager::harvest`]
//! keeps those a queued batch announced, when that costs no nearer use: a
//! bridged node is taken only if it is announced, absent (no slot, not
//! pinned, not valid), and the standby front — the slot a load would steal
//! next — sits in a class strictly below the node's next-use class (a free
//! slot, a popularity class, or a farther next-use bucket). A harvested
//! row is pinned once with the valid bit clear, exactly like a load, so
//! other extractors wait for it rather than load it again; when its copy
//! lands, [`FeatureBufferManager::publish_window`] publishes and releases
//! it, which files it into its next-use bucket.
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
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::catalog;

const NO_SLOT: u32 = u32::MAX;
const NO_NODE: NodeId = NodeId::MAX;

/// Next-use classes above the popularity classes (the bit length of a
/// `u32` out-degree is at most 32): an announced row's slot is filed by
/// how soon a queued batch needs it, the soonest in the top class.
pub const NEXT_USE_BUCKETS: u8 = 30;

/// The lowest next-use class, for the farthest announced use.
const FARTHEST: u8 = u32::BITS as u8 + 1;

/// Standby classes: free (0), the popularity classes, the next-use ones.
const CLASSES: usize = FARTHEST as usize + NEXT_USE_BUCKETS as usize;

/// A node's popularity class: the bit length of its out-degree, i.e. of
/// how many in-neighbour lists of the CSC it appears in (0 for none).
fn popularity_class(out_degree: u32) -> u8 {
    (u32::BITS - out_degree.leading_zeros()) as u8
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    slot: u32,
    ref_count: u32,
    /// Bit `b` is set while a queued batch in next-use bucket `b` (0 the
    /// nearest) announced the node; further uses in a bucket are counted
    /// in [`Inner::more_uses`].
    uses: u32,
    /// [`popularity_class`] of the node's out-degree.
    class: u8,
    valid: bool,
    /// The extractor loading this node gave up (I/O failure); waiters must
    /// error out and future planners must re-load.
    aborted: bool,
}

// One mapping-table entry per graph node: the table must not grow.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);

struct Inner {
    map: Vec<Entry>,
    /// Per slot: owning node id, or [`NO_NODE`].
    reverse: Vec<NodeId>,
    standby: LruList,
    /// The side table of queued uses beyond the first of a node in a
    /// bucket: bounded by the horizon, and empty while every bucket holds
    /// at most one announced batch.
    more_uses: HashMap<(NodeId, u8), u32>,
    /// Nodes with at least one queued use.
    announced_rows: usize,
    /// Live [`Announced`] handles, and the most at once in this horizon.
    horizon_batches: usize,
    horizon_peak: usize,
    /// The open [`Horizon`]'s plan span `(first, len)`: outside it, nothing
    /// may be announced.
    span: Option<(u64, u64)>,
}

impl Inner {
    /// The standby class `node`'s slot belongs in once retired: the
    /// next-use bucket of its nearest queued use, else its popularity.
    fn node_class(&self, node: NodeId) -> u8 {
        let e = &self.map[node as usize];
        match e.uses {
            0 => e.class,
            uses => FARTHEST + NEXT_USE_BUCKETS - 1 - uses.trailing_zeros() as u8,
        }
    }

    /// The standby class `slot` belongs in: its owner's, or 0 when free.
    fn slot_class(&self, slot: u32) -> u8 {
        match self.reverse[slot as usize] {
            NO_NODE => 0,
            owner => self.node_class(owner),
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
        let slot = self.map[node as usize].slot;
        if slot == NO_SLOT {
            return;
        }
        match self.standby.class_of(slot) {
            Some(class) if class != self.node_class(node) => {
                self.standby.remove(slot);
                self.retire(slot);
            }
            _ => {}
        }
    }

    /// Unpin `node`, whose load this thread gave up, and free its slot
    /// outright. With no other pins the entry simply forgets the slot; with
    /// waiters it is poisoned so they fail fast and the takeover loader
    /// allocates fresh.
    fn drop_load(&mut self, node: NodeId) {
        let e = &mut self.map[node as usize];
        debug_assert!(e.ref_count > 0);
        e.ref_count -= 1;
        e.aborted = e.ref_count > 0;
        let slot = std::mem::replace(&mut e.slot, NO_SLOT);
        if slot != NO_SLOT {
            self.reverse[slot as usize] = NO_NODE;
            self.retire(slot);
        }
    }

    fn publish_horizon(&self) {
        catalog::PIPELINE_HORIZON_BATCHES.set(self.horizon_batches as i64);
        catalog::FEATURE_BUFFER_ANNOUNCED_ROWS.set(self.announced_rows as i64);
    }

    /// Record a queued use of `node` in next-use bucket `bucket`.
    fn add_use(&mut self, node: NodeId, bucket: u8) {
        let uses = &mut self.map[node as usize].uses;
        if *uses & 1 << bucket == 0 {
            self.announced_rows += usize::from(*uses == 0);
            *uses |= 1 << bucket;
        } else {
            *self.more_uses.entry((node, bucket)).or_insert(0) += 1;
        }
    }

    /// Drop one queued use of `node` in `bucket`.
    fn remove_use(&mut self, node: NodeId, bucket: u8) {
        // Skip hashing while no bucket holds two batches (the common case).
        let more = if self.more_uses.is_empty() {
            None
        } else {
            self.more_uses.get_mut(&(node, bucket))
        };
        if let Some(more) = more {
            *more -= 1;
            if *more == 0 {
                self.more_uses.remove(&(node, bucket));
            }
            return;
        }
        let uses = &mut self.map[node as usize].uses;
        assert!(
            *uses & 1 << bucket != 0,
            "node {node} has no use in bucket {bucket}"
        );
        *uses &= !(1 << bucket);
        self.announced_rows -= usize::from(*uses == 0);
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
    /// Slots stolen from a row a queued batch announced: the horizon
    /// outgrew the buffer.
    pub announced_steals: AtomicU64,
    /// Announced rows a bridged read brought in, taken into the buffer.
    pub harvested_rows: AtomicU64,
    /// Announced, absent bridged rows refused because the standby front
    /// was no colder than their next use.
    pub harvest_declined: AtomicU64,
}

impl Default for FeatureBufferStats {
    fn default() -> Self {
        for c in [
            &catalog::FEATURE_BUFFER_REUSE_HITS,
            &catalog::FEATURE_BUFFER_SHARED_LOADS,
            &catalog::FEATURE_BUFFER_LOADS,
            &catalog::FEATURE_BUFFER_DELAYED_INVALIDATIONS,
            &catalog::FEATURE_BUFFER_ANNOUNCED_STEALS,
            &catalog::FEATURE_BUFFER_HARVESTED_ROWS,
            &catalog::FEATURE_BUFFER_HARVEST_DECLINED,
        ] {
            c.register();
        }
        FeatureBufferStats {
            reuse_hits: AtomicU64::new(0),
            shared_loads: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            delayed_invalidations: AtomicU64::new(0),
            announced_steals: AtomicU64::new(0),
            harvested_rows: AtomicU64::new(0),
            harvest_declined: AtomicU64::new(0),
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

    fn add_announced_steal(&self) {
        self.announced_steals.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_ANNOUNCED_STEALS.inc();
    }

    fn add_harvested_row(&self) {
        self.harvested_rows.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_HARVESTED_ROWS.inc();
    }

    fn add_harvest_declined(&self) {
        self.harvest_declined.fetch_add(1, Ordering::Relaxed);
        catalog::FEATURE_BUFFER_HARVEST_DECLINED.inc();
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
        let mut standby = LruList::with_classes(num_slots, CLASSES);
        for s in 0..num_slots as u32 {
            standby.push_back(s);
        }
        let map = out_degrees
            .iter()
            .map(|&d| Entry {
                slot: NO_SLOT,
                ref_count: 0,
                uses: 0,
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
                    more_uses: HashMap::new(),
                    announced_rows: 0,
                    horizon_batches: 0,
                    horizon_peak: 0,
                    span: None,
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
            self.assign(&mut inner, slot, node);
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

    /// Hand the standby slot `slot`, just popped, to `node`, evicting its
    /// previous owner now (delayed invalidation).
    fn assign(&self, inner: &mut Inner, slot: u32, node: NodeId) {
        let prev = inner.reverse[slot as usize];
        if prev != NO_NODE {
            let p = &mut inner.map[prev as usize];
            debug_assert_eq!(p.ref_count, 0, "standby slot owner must be unpinned");
            p.valid = false;
            p.slot = NO_SLOT;
            let announced = p.uses != 0;
            self.stats.add_delayed_invalidation();
            if announced {
                self.stats.add_announced_steal();
            }
        }
        inner.reverse[slot as usize] = node;
        inner.map[node as usize].slot = slot;
        debug_assert!(!inner.map[node as usize].valid);
    }

    /// Offer the nodes whose rows a verified read window bridged (module
    /// docs): each one announced, absent and worth more than the standby
    /// front is given that slot and pinned once with its valid bit clear.
    /// Returns the `(node, slot)` pairs taken, in offer order; the caller
    /// copies their rows in and lands them with
    /// [`FeatureBufferManager::publish_window`] (or gives them back with
    /// [`FeatureBufferManager::abandon_harvest`]). Nodes outside the table
    /// (a window's tail past the last row) are ignored. Never blocks.
    pub fn harvest(&self, nodes: &[NodeId]) -> Vec<(NodeId, u32)> {
        let mut inner = self.inner.lock();
        let mut taken = Vec::new();
        for &node in nodes {
            let Some(&e) = inner.map.get(node as usize) else {
                continue;
            };
            if e.uses == 0 || e.slot != NO_SLOT || e.ref_count != 0 {
                continue;
            }
            let front = inner
                .standby
                .front()
                .and_then(|s| inner.standby.class_of(s));
            if front.is_none_or(|class| class >= inner.node_class(node)) {
                self.stats.add_harvest_declined();
                continue;
            }
            let slot = inner.standby.pop_front().expect("the front was just seen");
            self.assign(&mut inner, slot, node);
            let e = &mut inner.map[node as usize];
            e.ref_count = 1;
            e.aborted = false;
            taken.push((node, slot));
            self.stats.add_harvested_row();
        }
        if !taken.is_empty() {
            catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);
        }
        taken
    }

    /// Mark `node`'s slot data as extracted (valid bit → 1) and wake
    /// waiters: [`FeatureBufferManager::publish_window`] for one node.
    pub fn publish(&self, node: NodeId) {
        let mut inner = self.inner.lock();
        let e = &mut inner.map[node as usize];
        debug_assert!(e.slot != NO_SLOT, "publish of unmapped node {node}");
        e.valid = true;
        e.aborted = false;
        drop(inner);
        self.data_ready.notify_all();
    }

    /// Publish a landed window's rows (`(node, slot)`) under one lock:
    /// every row's valid bit goes to 1, and the rows past the first
    /// `loaded` — the window's harvested ones — drop their pin, so a
    /// harvested row with no other pin retires into its next-use bucket.
    pub fn publish_window(&self, rows: &[(NodeId, u32)], loaded: usize) {
        let mut inner = self.inner.lock();
        for &(node, _) in rows {
            let e = &mut inner.map[node as usize];
            debug_assert!(e.slot != NO_SLOT, "publish of unmapped node {node}");
            e.valid = true;
            e.aborted = false;
        }
        let harvested = &rows[loaded..];
        for &(node, _) in harvested {
            let e = &mut inner.map[node as usize];
            debug_assert!(e.ref_count > 0, "harvested node {node} is unpinned");
            e.ref_count -= 1;
            if e.ref_count == 0 {
                let slot = e.slot;
                inner.retire(slot);
            }
        }
        if !harvested.is_empty() {
            catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);
        }
        drop(inner);
        self.data_ready.notify_all();
        if !harvested.is_empty() {
            self.slot_available.notify_all();
        }
    }

    /// Give back harvested rows whose copy never landed: as a failed load,
    /// each frees its slot, and is marked aborted if another extractor
    /// waits on it.
    pub fn abandon_harvest(&self, taken: &[(NodeId, u32)]) {
        let mut inner = self.inner.lock();
        for &(node, _) in taken {
            inner.drop_load(node);
        }
        catalog::FEATURE_BUFFER_STANDBY_SLOTS.set(inner.standby.len() as i64);
        drop(inner);
        self.slot_available.notify_all();
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
            let e = inner.map[node as usize];
            if loading.contains(&node) && !e.valid {
                inner.drop_load(node);
                continue;
            }
            debug_assert!(e.ref_count > 0);
            inner.map[node as usize].ref_count -= 1;
            if e.ref_count == 1 && e.slot != NO_SLOT {
                inner.retire(e.slot);
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

    /// Open the announce horizon of the batches at plan positions `plan`
    /// (see [`Horizon`]). One horizon is open at a time.
    pub fn horizon(&self, plan: Range<u64>) -> Horizon<'_> {
        let mut inner = self.inner.lock();
        assert!(inner.span.is_none(), "one horizon at a time");
        inner.span = Some((plan.start, plan.end.saturating_sub(plan.start).max(1)));
        inner.horizon_peak = 0;
        Horizon { fb: self }
    }

    /// Distinct rows some queued batch announced.
    pub fn announced_rows(&self) -> usize {
        self.inner.lock().announced_rows
    }

    /// Record one queued use of each of `nodes` by the batch at plan
    /// position `pos`, refiling retired slots whose nearest use moved;
    /// returns the batch's next-use bucket.
    fn announce_nodes(&self, nodes: &[NodeId], pos: u64) -> u8 {
        let mut inner = self.inner.lock();
        let (first, len) = inner.span.expect("announced inside an open horizon");
        let offset = pos.saturating_sub(first).min(len - 1);
        let bucket = (offset * u64::from(NEXT_USE_BUCKETS) / len) as u8;
        for &node in nodes {
            inner.add_use(node, bucket);
            inner.refile(node);
        }
        inner.horizon_batches += 1;
        inner.horizon_peak = inner.horizon_peak.max(inner.horizon_batches);
        inner.publish_horizon();
        bucket
    }

    /// Undo one [`FeatureBufferManager::announce_nodes`] of `nodes`.
    fn withdraw_nodes(&self, nodes: &[NodeId], bucket: u8) {
        let mut inner = self.inner.lock();
        for &node in nodes {
            inner.remove_use(node, bucket);
            inner.refile(node);
        }
        inner.horizon_batches -= 1;
        inner.publish_horizon();
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
    /// implies (free slots in class 0), the announced rows are counted
    /// right, every further use of a node in a bucket has a first, and
    /// nothing is announced while no [`Horizon`] is open.
    pub fn check_invariants(&self) {
        let inner = self.inner.lock();
        let mut seen = vec![false; inner.reverse.len()];
        let mut announced_rows = 0;
        for (node, e) in inner.map.iter().enumerate() {
            assert!(
                inner.span.is_some() || e.uses == 0,
                "announcements outlived every horizon (node {node})"
            );
            announced_rows += usize::from(e.uses != 0);
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
        assert_eq!(
            inner.announced_rows, announced_rows,
            "announced rows miscounted"
        );
        for &(node, bucket) in inner.more_uses.keys() {
            assert!(
                inner.map[node as usize].uses & 1 << bucket != 0,
                "node {node} has further uses in bucket {bucket} but no first"
            );
        }
    }
}

/// An epoch's announce horizon: the batches sampled but not yet pinned by
/// an extractor, whose input rows are about to be used (Belady's "keep
/// what is used soonest" over what the pipeline already knows).
///
/// [`Horizon::announce`] files each input node's retired slot by its
/// nearest queued use: the plan position `pos` of the soonest announced
/// batch that needs it puts it in next-use bucket
/// `(pos − first) · NEXT_USE_BUCKETS / (end − first)`, the farthest bucket
/// stolen first and every bucket after the popularity classes. The
/// returned [`Announced`] withdraws the announcement exactly once — when
/// an extractor has planned the batch ([`Announced::withdraw`]) or when it
/// is dropped unextracted — and drops the caller's hold with it. It
/// borrows the horizon, so no announcement outlives the epoch that made
/// it, and [`FeatureBufferManager::check_invariants`] asserts nothing is
/// announced while no horizon is open.
pub struct Horizon<'fb> {
    fb: &'fb FeatureBufferManager,
}

impl Horizon<'_> {
    /// Announce `sample`'s input nodes, its `batch_id` being its plan
    /// position, until the returned handle is withdrawn or dropped; `hold`
    /// is dropped right after the withdrawal.
    pub fn announce<H>(&self, sample: MiniBatchSample, hold: H) -> Announced<'_, H> {
        let bucket = self.fb.announce_nodes(&sample.input_nodes, sample.batch_id);
        Announced {
            fb: self.fb,
            bucket,
            sample: Some(sample),
            hold: Some(hold),
        }
    }

    /// The most batches announced at once since the horizon opened.
    pub fn peak_batches(&self) -> usize {
        self.fb.inner.lock().horizon_peak
    }
}

impl Drop for Horizon<'_> {
    fn drop(&mut self) {
        self.fb.inner.lock().span = None;
    }
}

/// A sample whose input nodes are announced; see [`Horizon`].
pub struct Announced<'h, H> {
    fb: &'h FeatureBufferManager,
    /// The batch's next-use bucket.
    bucket: u8,
    /// `None` once withdrawn.
    sample: Option<MiniBatchSample>,
    hold: Option<H>,
}

impl<H> Announced<'_, H> {
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
        self.fb.withdraw_nodes(&sample.input_nodes, self.bucket);
        self.hold = None;
        Some(sample)
    }
}

impl<H> Drop for Announced<'_, H> {
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
        sample_at(0, input_nodes)
    }

    fn sample_at(batch_id: u64, input_nodes: Vec<NodeId>) -> MiniBatchSample {
        MiniBatchSample {
            batch_id,
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
        assert!(popularity_class(u32::MAX) < FARTHEST);
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
        let horizon = fb.horizon(0..1);
        let queued = horizon.announce(sample(vec![0, 5]), ());
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

    /// How many queued batches announced `node`.
    fn queued_uses(fb: &FeatureBufferManager, node: NodeId) -> u32 {
        let inner = fb.inner.lock();
        let uses = inner.map[node as usize].uses;
        uses.count_ones()
            + (0..NEXT_USE_BUCKETS)
                .filter_map(|b| inner.more_uses.get(&(node, b)))
                .sum::<u32>()
    }

    #[test]
    fn farther_next_uses_are_stolen_first() {
        let fb = manager(4, 10);
        let p: Vec<ExtractPlan> = (0..4).map(|n| cycle(&fb, &[n])).collect();
        // Plan positions 10..70: rows 0..3 are next used at 60, 10, 40,
        // and never; 3 goes first (popularity), then the farthest use.
        let horizon = fb.horizon(10..70);
        let _uses: Vec<_> = [(60, 0), (10, 1), (40, 2)]
            .into_iter()
            .map(|(pos, n)| horizon.announce(sample_at(pos, vec![n]), ()))
            .collect();
        fb.check_invariants();
        let order = cycle(&fb, &[4, 5, 6, 7]).aliases;
        let want: Vec<u32> = [3, 0, 2, 1].iter().map(|&n| p[n].aliases[0]).collect();
        assert_eq!(order, want);
        assert_eq!(fb.stats().announced_steals.load(Ordering::Relaxed), 3);
        fb.check_invariants();
    }

    #[test]
    fn a_withdrawn_use_refiles_the_row_by_its_next_one() {
        let fb = manager(2, 10);
        let p0 = cycle(&fb, &[0]);
        let p1 = cycle(&fb, &[1]);
        let horizon = fb.horizon(0..30);
        // Row 0 is needed now and late, row 1 in the middle.
        let now = horizon.announce(sample_at(0, vec![0]), ());
        let _late = horizon.announce(sample_at(29, vec![0]), ());
        let _mid = horizon.announce(sample_at(15, vec![1]), ());
        assert_eq!(fb.announced_rows(), 2);
        // Once the batch at 0 is pinned, row 0's next use is the farther.
        drop(now);
        fb.check_invariants();
        assert_eq!(cycle(&fb, &[2]).aliases[0], p0.aliases[0]);
        assert!(fb.entry(1).2);
        assert_eq!(fb.entry(1).0, i64::from(p1.aliases[0]));
    }

    /// Harvest takes an announced, absent row only from a slot in a class
    /// strictly below the row's next use — a free slot or a farther use,
    /// never a nearer one — and never a resident, in-flight, pinned or
    /// unannounced row. A landed harvest retires into its next-use bucket.
    #[test]
    fn harvest_never_steals_a_nearer_use() {
        let fb = manager(4, 20);
        let p0 = cycle(&fb, &[0]);
        cycle(&fb, &[1]);
        let horizon = fb.horizon(0..30);
        // Rows 0 and 1 are resident and needed next; 7 goes in flight.
        let _near = horizon.announce(sample_at(0, vec![0, 1, 7]), ());
        let in_flight = fb.plan_batch(&[7]);
        let _far = horizon.announce(sample_at(29, vec![5, 6, 8]), ());
        let stats = |fb: &FeatureBufferManager| {
            let s = fb.stats();
            let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
            (get(&s.harvested_rows), get(&s.harvest_declined))
        };
        // Resident 0, in-flight 7 and unannounced 9 are not candidates;
        // 5 takes the last free slot.
        let taken = fb.harvest(&[0, 7, 9, 5]);
        assert_eq!(taken.len(), 1);
        let (node, slot) = taken[0];
        assert_eq!(node, 5);
        assert_eq!(
            fb.entry(5),
            (i64::from(slot), 1, false),
            "pinned, not valid"
        );
        assert_eq!(stats(&fb), (1, 0));
        // Only nearer uses are left on standby: 6 is declined, and 5,
        // pinned by its harvest, is no candidate.
        assert!(fb.harvest(&[6, 5]).is_empty());
        assert_eq!(stats(&fb), (1, 1));
        assert!(fb.entry(0).2 && fb.entry(1).2, "nearer uses kept");
        fb.check_invariants();
        fb.publish_window(&[(5, slot)], 0);
        assert_eq!(fb.entry(5), (i64::from(slot), 0, true));
        fb.check_invariants();
        // 8's use is as far as 5's: no strictly colder slot.
        assert!(fb.harvest(&[8]).is_empty());
        // Once 6 is also needed sooner, 5's farther use is the colder one.
        let _mid = horizon.announce(sample_at(10, vec![6]), ());
        assert_eq!(fb.harvest(&[6]), vec![(6, slot)]);
        assert_eq!(fb.entry(5), (-1, 0, false));
        assert_eq!(fb.stats().announced_steals.load(Ordering::Relaxed), 1);
        assert_eq!(stats(&fb), (2, 2));
        fb.publish_window(&[(6, slot)], 0);
        fb.publish(7);
        fb.release(&[7]);
        assert_eq!(fb.entry(0).0, i64::from(p0.aliases[0]));
        drop(in_flight);
        fb.check_invariants();
    }

    /// A harvest whose copy never lands is given back like a failed load:
    /// its slot is freed, and a batch waiting on the row fails fast.
    #[test]
    fn an_abandoned_harvest_fails_its_waiters() {
        let fb = manager(4, 20);
        let horizon = fb.horizon(0..2);
        let queued = horizon.announce(sample_at(1, vec![3]), ());
        let taken = fb.harvest(&[3]);
        assert_eq!(taken.len(), 1);
        let mut waiter = fb.plan_batch(&[3]);
        assert_eq!(waiter.wait_for.len(), 1, "another extractor waits");
        fb.abandon_harvest(&taken);
        assert_eq!(fb.wait_ready(&mut waiter), Err(3));
        fb.abort_batch(&waiter, &[3]);
        assert_eq!(fb.entry(3), (-1, 0, false));
        assert_eq!(fb.standby_len(), 4);
        fb.check_invariants();
        // The next planner loads it afresh.
        assert_eq!(fb.plan_batch(&[3]).to_load, vec![(0, 3)]);
        drop(queued);
    }

    #[test]
    #[should_panic(expected = "one horizon at a time")]
    fn horizons_do_not_nest() {
        let fb = manager(2, 10);
        let _a = fb.horizon(0..4);
        let _b = fb.horizon(0..4);
    }

    #[test]
    fn a_batch_announced_but_never_planned_is_withdrawn_on_drop() {
        let fb = manager(4, 10);
        cycle(&fb, &[1, 2]);
        {
            let horizon = fb.horizon(0..1);
            let a = horizon.announce(sample(vec![1, 3]), ());
            let b = horizon.announce(sample(vec![1]), ());
            assert_eq!(queued_uses(&fb, 1), 2);
            assert_eq!(fb.announced_rows(), 2);
            drop(a);
            assert_eq!(queued_uses(&fb, 1), 1);
            fb.check_invariants();
            // Dropped unextracted, e.g. left in the queue when the trainer
            // stopped early.
            drop(b);
            fb.check_invariants();
        }
        let inner = fb.inner.lock();
        assert!(inner.span.is_none());
        assert!(inner.map.iter().all(|e| e.uses == 0));
        assert!(inner.more_uses.is_empty());
        assert_eq!(inner.announced_rows, 0);
        let slot = inner.map[1].slot;
        assert_eq!(inner.standby.class_of(slot), Some(0));
    }

    #[test]
    #[should_panic(expected = "announcements outlived every horizon")]
    fn an_announcement_leaked_past_its_horizon_is_caught() {
        let fb = manager(4, 10);
        let horizon = fb.horizon(0..1);
        std::mem::forget(horizon.announce(sample(vec![1]), ()));
        drop(horizon);
        fb.check_invariants();
    }
}
