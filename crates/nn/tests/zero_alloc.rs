//! A steady-state `train_step` allocates nothing: every buffer it touches
//! lives in the model's scratch arena and only ever grows.

use gnndrive_graph::generate::generate_features;
use gnndrive_graph::generate_graph;
use gnndrive_nn::{build_model, ModelKind};
use gnndrive_sampling::{InMemTopo, MiniBatchSample, NeighborSampler};
use gnndrive_tensor::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting calls that hand out memory.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DIM: usize = 24;

fn batch(
    sampler: &NeighborSampler,
    feats: &[f32],
    labels: &[u32],
    seeds: std::ops::Range<u32>,
) -> (MiniBatchSample, Matrix, Vec<usize>) {
    let sample = sampler.sample(0, &seeds.collect::<Vec<_>>(), 3);
    let input = Matrix::from_fn(sample.input_nodes.len(), DIM, |r, c| {
        feats[sample.input_nodes[r] as usize * DIM + c]
    });
    let y = sample.seeds.iter().map(|&s| labels[s as usize] as usize);
    let y = y.collect();
    (sample, input, y)
}

// One test in this binary: a second one running in parallel would allocate
// into the same counter.
#[test]
fn train_step_allocates_nothing_once_warm() {
    let g = generate_graph(400, 4000, 4, 0.85, 21);
    let feats = generate_features(&g.labels, 4, DIM, 1.5, 21);
    let topo = Arc::new(InMemTopo::new(Arc::new(g.topology)));
    let sampler = NeighborSampler::new(topo, vec![4, 4, 3]);
    let big = batch(&sampler, &feats, &g.labels, 0..48);
    let small = batch(&sampler, &feats, &g.labels, 100..110);
    assert!(small.1.rows() < big.1.rows());

    for kind in ModelKind::ALL {
        let mut model = build_model(kind, DIM, 32, 4, 3, 5);
        let warm_up = model.train_step(&big.0.blocks, &big.1, &big.2);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let again = model.train_step(&big.0.blocks, &big.1, &big.2);
        let fewer_nodes = model.train_step(&small.0.blocks, &small.1, &small.2);
        let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(
            allocated,
            0,
            "{}: steady-state steps allocated",
            kind.name()
        );
        assert!(warm_up.loss.is_finite() && again.loss.is_finite());
        assert!(fewer_nodes.loss.is_finite());
    }
}
