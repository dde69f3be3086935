//! The host→device link paces asynchronous extraction: every read window
//! books one copy on the device's [`TransferEngine`], so a batch of `k`
//! windows on a 2 ms-setup link cannot return before `k` setups have
//! passed, and two batches extracting at once on one device queue behind
//! each other on that link.
//!
//! The test counts `device.transfer.ops`, a process-wide counter, so it
//! lives in its own test binary: no other test can move the counter while
//! it runs.

use gnndrive_core::extractor::ExtractorContext;
use gnndrive_core::{extract_batch, ExtractedBatch, FeatureBufferManager};
use gnndrive_core::{GnnDriveConfig, StagingBuffer};
use gnndrive_device::{FeatureSlab, TransferEngine, TransferProfile};
use gnndrive_graph::{Dataset, DatasetSpec, NodeId};
use gnndrive_sampling::MiniBatchSample;
use gnndrive_storage::{
    DeviceHealth, HealthConfig, IoPriority, MemoryGovernor, RetryPolicy, SimSsd, SsdProfile,
};
use gnndrive_telemetry::catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUP: Duration = Duration::from_millis(2);
const GRANULARITY: Duration = Duration::from_micros(100);

fn dataset() -> Dataset {
    Dataset::build(
        DatasetSpec {
            name: "link".into(),
            num_nodes: 300,
            num_edges: 2500,
            // 512 B rows: one sector each, so far-apart rows are one
            // window each.
            feat_dim: 128,
            num_classes: 4,
            intra_prob: 0.7,
            feature_signal: 1.0,
            train_fraction: 0.3,
            seed: 5,
        },
        SimSsd::new(SsdProfile::instant()),
    )
}

fn context(ds: &Dataset) -> ExtractorContext {
    let cfg = GnnDriveConfig::default();
    let slab = Arc::new(FeatureSlab::new(256, ds.spec.feat_dim));
    let gov = MemoryGovernor::unlimited();
    ExtractorContext {
        ssd: Arc::clone(&ds.ssd),
        features_file: ds.features_file,
        remap: None,
        feat_dim: ds.spec.feat_dim,
        fb: Arc::new(FeatureBufferManager::new(slab, ds.spec.num_nodes, &cfg)),
        staging: Some(StagingBuffer::new(1 << 20, &gov).unwrap()),
        transfer: Some(TransferEngine::new(TransferProfile {
            name: "slow",
            latency: SETUP,
            bandwidth: u64::MAX / 4,
            sleep_granularity: GRANULARITY,
        })),
        direct_io: true,
        gpu_direct: false,
        sync_extract: false,
        ring_depth: 16,
        max_joint_read_bytes: 8192,
        retry: RetryPolicy::default(),
        health: Arc::new(DeviceHealth::new(HealthConfig::default())),
        io_priority: IoPriority::Bulk,
    }
}

/// A batch of exactly `input_nodes`.
fn batch_of(batch_id: u64, input_nodes: Vec<NodeId>) -> MiniBatchSample {
    MiniBatchSample {
        batch_id,
        seeds: Vec::new(),
        input_nodes,
        blocks: Vec::new(),
    }
}

/// Every input node's slot holds its feature row, bit for bit.
fn verify_rows(ds: &Dataset, batch: &ExtractedBatch, fb: &FeatureBufferManager) {
    let mut out = vec![0.0f32; ds.spec.feat_dim];
    for (i, &node) in batch.sample.input_nodes.iter().enumerate() {
        fb.slab().read_row(batch.aliases[i], &mut out);
        let want = ds.peek_feature_row(node);
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "row mismatch for node {node}"
        );
    }
}

/// `k` far-apart rows from `first`: `k` windows.
fn spread(first: NodeId, k: u32) -> Vec<NodeId> {
    (0..k).map(|i| first + 10 * i).collect()
}

#[test]
fn the_link_paces_a_batch_and_serializes_concurrent_ones() {
    const K: u32 = 6;
    let ds = dataset();
    let ctx = context(&ds);

    // One batch: K windows, K copies, K setups.
    let (ops, reads) = (
        catalog::DEVICE_TRANSFER_OPS.get(),
        ds.ssd.stats().snapshot().read_ops,
    );
    let t0 = Instant::now();
    let batch = extract_batch(&ctx, batch_of(0, spread(0, K))).unwrap();
    let took = t0.elapsed();
    assert_eq!(ds.ssd.stats().snapshot().read_ops - reads, u64::from(K));
    assert_eq!(catalog::DEVICE_TRANSFER_OPS.get() - ops, u64::from(K));
    assert!(
        took >= SETUP * K - GRANULARITY,
        "{K} copies at {SETUP:?} each returned after {took:?}"
    );
    verify_rows(&ds, &batch, &ctx.fb);
    ctx.fb.release(&batch.sample.input_nodes);

    // Two batches started together on the one link: 2K copies, one after
    // another, where a link per extractor would take K setups.
    let ops = catalog::DEVICE_TRANSFER_OPS.get();
    let start = std::sync::Barrier::new(2);
    let t0 = Instant::now();
    let batches: Vec<ExtractedBatch> = std::thread::scope(|s| {
        let extract = |id: u64, first: NodeId| {
            let (ctx, start) = (&ctx, &start);
            s.spawn(move || {
                start.wait();
                extract_batch(ctx, batch_of(id, spread(first, K))).unwrap()
            })
        };
        let (a, b) = (extract(1, 100), extract(2, 200));
        vec![a.join().unwrap(), b.join().unwrap()]
    });
    let took = t0.elapsed();
    assert_eq!(catalog::DEVICE_TRANSFER_OPS.get() - ops, u64::from(2 * K));
    assert!(
        took >= SETUP * 2 * K - GRANULARITY,
        "{} copies on one link returned after {took:?}",
        2 * K
    );
    for batch in &batches {
        verify_rows(&ds, batch, &ctx.fb);
        ctx.fb.release(&batch.sample.input_nodes);
    }
    ctx.fb.check_invariants();
}
