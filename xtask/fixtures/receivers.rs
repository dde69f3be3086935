//! Receiver-typed resolution fixture for `cargo xtask deadlock`.
//!
//! `Device` gives four std method names (`entry`, `record`, `fill`,
//! `load`) workspace namesakes that park the thread. `Registry::tick`
//! calls the std methods while holding a guard, each on a receiver whose
//! type the source states: a guarded `HashMap`, an
//! `OrderedMutex<Histogram>`, a `&mut [u8]` parameter and an `AtomicBool`
//! field. Its last call reaches `load` through an unannotated local by
//! method syntax, which only functions taking `self` answer. It also
//! calls `TALLY.record(..)` on a `static` whose type has its own `record`,
//! beside the namesakes `Device::record` (parks) and `Window::record`
//! (takes a lock). None may alias: `tick` must produce no finding and no
//! lock-order edge into `Window`'s lock. `generic` and `dynamic` call
//! `Stage::run` through a generic and a trait object: both must still
//! reach the impl that parks, one finding each.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gnndrive_sync::{LockRank, OrderedMutex};

fn park() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

pub struct Device {
    id: u64,
}

impl Device {
    pub fn entry(&self, _key: String) -> u64 {
        park();
        self.id
    }

    pub fn record(&self, _v: u64) {
        park();
    }

    pub fn fill(&self, _v: u8) {
        park();
    }

    /// Associated, not a method: `x.load(..)` never reaches it.
    pub fn load(_path: &str) -> Device {
        park();
        Device { id: 0 }
    }
}

pub struct Histogram {
    count: u64,
}

impl Histogram {
    pub fn record(&mut self, _v: u64) {
        self.count += 1;
    }
}

pub struct Window {
    slots: OrderedMutex<u64>,
}

impl Window {
    pub fn new() -> Window {
        Window {
            slots: OrderedMutex::new(LockRank::Health, 0),
        }
    }

    pub fn record(&self, v: u64) {
        *self.slots.lock() += v;
    }
}

pub struct Tally {
    n: AtomicU64,
}

impl Tally {
    pub fn record(&self, v: u64) {
        self.n.fetch_add(v, Ordering::Relaxed);
    }
}

pub static TALLY: Tally = Tally {
    n: AtomicU64::new(0),
};

pub trait Stage {
    fn run(&self);
}

pub struct Fast;

impl Stage for Fast {
    fn run(&self) {}
}

pub struct Slow;

impl Stage for Slow {
    fn run(&self) {
        park();
    }
}

pub struct Registry {
    names: OrderedMutex<HashMap<String, u64>>,
    hist: OrderedMutex<Histogram>,
    ready: AtomicBool,
}

impl Registry {
    pub fn new() -> Registry {
        Registry {
            names: OrderedMutex::new(LockRank::Telemetry, HashMap::new()),
            hist: OrderedMutex::new(LockRank::Telemetry, Histogram { count: 0 }),
            ready: AtomicBool::new(false),
        }
    }

    pub fn tick(&self, buf: &mut [u8]) -> bool {
        let mut names = self.names.lock();
        *names.entry("x".to_string()).or_insert(0) += 1;
        self.hist.lock().record(1);
        TALLY.record(1);
        buf.fill(0);
        let ready = &self.ready;
        self.ready.load(Ordering::Acquire) && ready.load(Ordering::Acquire)
    }

    pub fn generic<R: Stage>(&self, stage: &R) {
        let _names = self.names.lock();
        stage.run();
    }

    pub fn dynamic(&self, stage: &dyn Stage) {
        let _names = self.names.lock();
        stage.run();
    }
}
