//! Quickstart: train a GraphSAGE model with GNNDrive on a small synthetic
//! graph stored on the simulated SSD.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gnndrive::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. A synthetic dataset installed on a simulated SSD: CSC topology +
    //    a feature table, labels planted so the model has something real
    //    to learn.
    let ssd = SimSsd::new(SsdProfile::pm883());
    let dataset = Arc::new(Dataset::build(
        DatasetSpec {
            name: "quickstart".into(),
            num_nodes: 20_000,
            num_edges: 200_000,
            feat_dim: 64,
            num_classes: 8,
            intra_prob: 0.8,
            feature_signal: 1.3,
            train_fraction: 0.2,
            seed: 42,
        },
        ssd,
    ));
    println!(
        "dataset: {} nodes, {} edges, dim {}, {} train nodes",
        dataset.spec.num_nodes,
        dataset.spec.num_edges,
        dataset.spec.feat_dim,
        dataset.train_idx.len()
    );

    // 2. The host-memory budget and the OS page-cache model (sampling
    //    memory-maps the on-SSD topology through it).
    let governor = MemoryGovernor::new(64 * 1024 * 1024);
    let page_cache = PageCache::new(Arc::clone(&dataset.ssd), Arc::clone(&governor));

    // 3. A GNNDrive pipeline: 4 samplers -> 4 async extractors -> trainer
    //    (which releases each batch it trains), feature buffer in simulated
    //    GPU memory.
    let config = GnnDriveConfig {
        fanouts: vec![5, 5],
        batch_size: 64,
        feature_buffer_slots: 16_384,
        ..Default::default()
    };
    let mut pipeline = Pipeline::builder(dataset, GpuDevice::rtx3090())
        .with_model(ModelKind::GraphSage, 32) // architecture, hidden dimension
        .with_config(config)
        .with_governor(governor)
        .with_page_cache(page_cache)
        .build()
        .expect("pipeline construction");

    // 4. Train a few epochs, watching loss fall and accuracy rise.
    println!("initial accuracy: {:.1}%", pipeline.evaluate() * 100.0);
    for epoch in 0..4 {
        let report = pipeline.train_epoch(epoch, None);
        println!(
            "epoch {epoch}: {} batches in {:.2?} (loss {:.3}, {} rows loaded from SSD, {} reused)",
            report.batches, report.wall, report.loss, report.nodes_loaded, report.nodes_reused
        );
    }
    println!("final accuracy: {:.1}%", pipeline.evaluate() * 100.0);
}
