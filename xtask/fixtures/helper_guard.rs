//! Helper-returned guard fixture for `cargo xtask deadlock`.
//!
//! The guard is acquired through an accessor — `lock_state()` returns the
//! `OrderedMutexGuard` — so no literal `.lock()` appears in
//! `slow_update`'s scope. The analyzer models `returns_guard` helpers as
//! acquisitions at the call site and must flag the sleep.

use gnndrive_sync::{LockRank, OrderedMutex, OrderedMutexGuard};

pub struct Store {
    state: OrderedMutex<u64>,
}

impl Store {
    pub fn new() -> Store {
        Store {
            state: OrderedMutex::new(LockRank::Buffer, 0),
        }
    }

    fn lock_state(&self) -> OrderedMutexGuard<'_, u64> {
        self.state.lock()
    }

    pub fn slow_update(&self) {
        let mut g = self.lock_state();
        std::thread::sleep(std::time::Duration::from_millis(1));
        *g += 1;
    }
}
