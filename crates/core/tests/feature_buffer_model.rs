//! Model-based and concurrency tests of the feature-buffer manager.

use gnndrive_core::{FeatureBufferManager, GnnDriveConfig};
use gnndrive_device::FeatureSlab;
use gnndrive_sync::rng::cases;
use gnndrive_sync::Rng;
use std::collections::BTreeSet;
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
