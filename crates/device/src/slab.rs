//! Slot-structured feature-buffer storage.
//!
//! GNNDrive's feature buffer (paper §4.2) is an array of fixed-size slots,
//! one feature row each, living in the GPU's device memory (or host memory
//! for CPU training). Different extractor threads fill different slots
//! concurrently while the trainer gathers rows from yet other slots, so the
//! slab provides per-slot locking. The buffer-management *protocol* (who
//! may write which slot when) lives in `gnndrive-core`; the slab is just
//! the storage.

use gnndrive_sync::{LockRank, OrderedRwLock};

/// Row-major gather result: `(rows, cols, data)`. The device crate stays
/// below the tensor crate in the dependency graph, so gathers return a
/// plain buffer that `gnndrive-core` wraps into a tensor.
pub type GatherResult = (usize, usize, Vec<f32>);

/// Fixed-capacity array of feature-row slots.
pub struct FeatureSlab {
    dim: usize,
    slots: Vec<OrderedRwLock<Box<[f32]>>>,
}

impl FeatureSlab {
    /// Allocate `num_slots` slots of `dim` floats each (zero-filled).
    pub fn new(num_slots: usize, dim: usize) -> Self {
        let slots = (0..num_slots)
            .map(|_| OrderedRwLock::new(LockRank::Buffer, vec![0.0f32; dim].into_boxed_slice()))
            .collect();
        FeatureSlab { dim, slots }
    }

    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total bytes of feature payload (what device memory is charged for).
    pub fn bytes(&self) -> u64 {
        (self.slots.len() * self.dim * 4) as u64
    }

    /// Overwrite slot `slot` with `row`.
    pub fn write_row(&self, slot: u32, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.slots[slot as usize].write().copy_from_slice(row);
    }

    /// Copy slot `slot` into `out`.
    pub fn read_row(&self, slot: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim);
        out.copy_from_slice(&self.slots[slot as usize].read());
    }

    /// Gather `slots` in order into a row-major `(rows, cols, data)` buffer
    /// (the trainer's node-alias indexing step, ⑦ in the paper's Fig 4).
    pub fn gather(&self, slots: &[u32]) -> GatherResult {
        let mut data = Vec::new();
        self.gather_into(slots, &mut data);
        (slots.len(), self.dim, data)
    }

    /// [`FeatureSlab::gather`] into `data` (row-major `slots.len() × dim`),
    /// replacing its contents and reusing its allocation.
    pub fn gather_into(&self, slots: &[u32], data: &mut Vec<f32>) {
        data.clear();
        data.reserve(slots.len() * self.dim);
        for &s in slots {
            data.extend_from_slice(&self.slots[s as usize].read());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn write_read_round_trip() {
        let slab = FeatureSlab::new(4, 3);
        slab.write_row(2, &[1.0, 2.0, 3.0]);
        let mut out = [0.0; 3];
        slab.read_row(2, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0]);
        slab.read_row(0, &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn gather_orders_rows_by_request() {
        let slab = FeatureSlab::new(3, 2);
        slab.write_row(0, &[1.0, 1.0]);
        slab.write_row(1, &[2.0, 2.0]);
        slab.write_row(2, &[3.0, 3.0]);
        let (rows, cols, data) = slab.gather(&[2, 0, 2]);
        assert_eq!((rows, cols), (3, 2));
        assert_eq!(data, vec![3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn gather_into_equals_gather_and_reuses_capacity() {
        let slab = FeatureSlab::new(5, 3);
        for slot in 0..5 {
            slab.write_row(slot, &[slot as f32, 0.5, -(slot as f32)]);
        }
        let mut data = vec![9.0; 2];
        slab.gather_into(&[4, 1, 1, 0], &mut data);
        assert_eq!(data, slab.gather(&[4, 1, 1, 0]).2);
        let (buffer, capacity) = (data.as_ptr(), data.capacity());
        for slots in [&[2u32, 3][..], &[], &[0, 1, 2, 3]] {
            slab.gather_into(slots, &mut data);
            assert_eq!(data, slab.gather(slots).2);
            assert_eq!((data.as_ptr(), data.capacity()), (buffer, capacity));
        }
    }

    #[test]
    fn bytes_accounts_payload() {
        let slab = FeatureSlab::new(10, 128);
        assert_eq!(slab.bytes(), 10 * 128 * 4);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let slab = Arc::new(FeatureSlab::new(64, 16));
        std::thread::scope(|s| {
            for t in 0..4 {
                let slab = Arc::clone(&slab);
                s.spawn(move || {
                    for i in (t..64).step_by(4) {
                        let row = vec![i as f32; 16];
                        slab.write_row(i as u32, &row);
                    }
                });
            }
        });
        let mut out = vec![0.0; 16];
        for i in 0..64u32 {
            slab.read_row(i, &mut out);
            assert!(out.iter().all(|&v| v == i as f32));
        }
    }
}
