//! Device-memory capacity accounting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Device memory exhausted — the paper's GPU OOM outcome (e.g. MariusGNN
/// with GAT, PyG+ at mini-batch 4000 on Friendster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceOom {
    pub requested: u64,
    pub available: u64,
    pub capacity: u64,
}

impl fmt::Display for DeviceOom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B, available {} B of {} B",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for DeviceOom {}

/// A byte-accounted device-memory pool. Unlike the host
/// `MemoryGovernor` (gnndrive-storage) there is no reclaim: device
/// allocations either fit or OOM, as CUDA allocations do.
#[derive(Debug)]
pub struct DeviceMemory {
    capacity: u64,
    used: AtomicU64,
}

impl DeviceMemory {
    pub fn new(capacity: u64) -> Arc<Self> {
        Arc::new(DeviceMemory {
            capacity,
            used: AtomicU64::new(0),
        })
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Acquire)
    }

    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.used())
    }

    /// Reserve `bytes`, failing with [`DeviceOom`] if they do not fit.
    pub fn alloc(self: &Arc<Self>, bytes: u64) -> Result<DeviceAlloc, DeviceOom> {
        // Acquire/Release pairing, same rationale as the host governor: a
        // successful CAS publishes the new usage to other allocators, and
        // loads must observe releases from `DeviceAlloc::drop` on other
        // threads, or an admission can act on a stale counter and overshoot
        // capacity on weakly-ordered hardware.
        let mut cur = self.used.load(Ordering::Acquire);
        loop {
            if cur + bytes > self.capacity {
                return Err(DeviceOom {
                    requested: bytes,
                    available: self.capacity - cur,
                    capacity: self.capacity,
                });
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(DeviceAlloc {
                        pool: Arc::clone(self),
                        bytes,
                    })
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// RAII receipt for a device-memory reservation.
#[derive(Debug)]
pub struct DeviceAlloc {
    pool: Arc<DeviceMemory>,
    bytes: u64,
}

impl DeviceAlloc {
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DeviceAlloc {
    fn drop(&mut self) {
        // AcqRel: the subtraction releases this allocation's bytes to other
        // threads' admission loads in `alloc` (which acquire).
        let prev = self.pool.used.fetch_sub(self.bytes, Ordering::AcqRel);
        debug_assert!(prev >= self.bytes, "device memory release underflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_balance() {
        let mem = DeviceMemory::new(100);
        let a = mem.alloc(60).unwrap();
        assert_eq!(mem.available(), 40);
        assert!(mem.alloc(50).is_err());
        drop(a);
        assert!(mem.alloc(100).is_ok());
    }

    #[test]
    fn oom_reports_shortfall() {
        let mem = DeviceMemory::new(10);
        let err = mem.alloc(11).unwrap_err();
        assert_eq!(err.requested, 11);
        assert_eq!(err.capacity, 10);
        assert_eq!(err.available, 10);
    }
}
