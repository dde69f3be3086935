//! A slab-backed intrusive LRU list over dense `u32` slot ids.
//!
//! Both the OS page-cache model and GNNDrive's feature-buffer *standby list*
//! (paper §4.2) need least-recently-used ordering over a fixed universe of
//! slots with O(1) insert, remove, touch, and pop. This list stores
//! prev/next links in two flat vectors indexed by slot id, avoiding per-node
//! allocation entirely.

/// Sentinel meaning "no link" / "not in list".
const NIL: u32 = u32::MAX;

/// Intrusive doubly-linked LRU list over slot ids `0..capacity`.
///
/// The *front* is the least recently used element; the *back* is the most
/// recently used.
#[derive(Debug, Clone)]
pub struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
}

impl LruList {
    /// Create a list able to hold slot ids `0..capacity`, initially empty.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < NIL as usize, "capacity too large for u32 ids");
        LruList {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of slots currently linked in.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grow the id universe to at least `capacity`.
    pub fn ensure_capacity(&mut self, capacity: usize) {
        if capacity > self.prev.len() {
            assert!(capacity < NIL as usize);
            self.prev.resize(capacity, NIL);
            self.next.resize(capacity, NIL);
        }
    }

    /// Whether `slot` is currently in the list.
    pub fn contains(&self, slot: u32) -> bool {
        let s = slot as usize;
        s < self.prev.len() && (self.prev[s] != NIL || self.next[s] != NIL || self.head == slot)
    }

    /// Append `slot` at the back (most-recently-used end).
    ///
    /// Panics if the slot is already linked (callers track membership).
    pub fn push_back(&mut self, slot: u32) {
        debug_assert!(!self.contains(slot), "slot {slot} already in LRU list");
        let s = slot as usize;
        self.prev[s] = self.tail;
        self.next[s] = NIL;
        if self.tail != NIL {
            self.next[self.tail as usize] = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
        self.len += 1;
    }

    /// Remove and return the least-recently-used slot.
    pub fn pop_front(&mut self) -> Option<u32> {
        if self.head == NIL {
            return None;
        }
        let slot = self.head;
        self.remove(slot);
        Some(slot)
    }

    /// Peek the least-recently-used slot without removing it.
    pub fn front(&self) -> Option<u32> {
        if self.head == NIL {
            None
        } else {
            Some(self.head)
        }
    }

    /// Unlink `slot` from the list. Returns `true` if it was present.
    pub fn remove(&mut self, slot: u32) -> bool {
        if !self.contains(slot) {
            return false;
        }
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
        self.len -= 1;
        true
    }

    /// Mark `slot` most recently used (must be present).
    pub fn touch(&mut self, slot: u32) {
        if self.tail == slot {
            return;
        }
        let was = self.remove(slot);
        debug_assert!(was, "touch of slot {slot} not in list");
        self.push_back(slot);
    }

    /// Iterate from least- to most-recently-used.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let out = cur;
                cur = self.next[cur as usize];
                Some(out)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnndrive_sync::rng::cases;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order_without_touch() {
        let mut l = LruList::new(8);
        for s in [3, 1, 4] {
            l.push_back(s);
        }
        assert_eq!(l.pop_front(), Some(3));
        assert_eq!(l.pop_front(), Some(1));
        assert_eq!(l.pop_front(), Some(4));
        assert_eq!(l.pop_front(), None);
    }

    #[test]
    fn touch_moves_to_back() {
        let mut l = LruList::new(8);
        for s in [0, 1, 2] {
            l.push_back(s);
        }
        l.touch(0);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![1, 2, 0]);
    }

    #[test]
    fn remove_middle_keeps_links() {
        let mut l = LruList::new(8);
        for s in [0, 1, 2, 3] {
            l.push_back(s);
        }
        assert!(l.remove(2));
        assert!(!l.remove(2));
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn contains_head_singleton() {
        let mut l = LruList::new(4);
        l.push_back(0);
        assert!(l.contains(0));
        assert!(!l.contains(1));
        l.pop_front();
        assert!(!l.contains(0));
    }

    #[test]
    fn ensure_capacity_grows() {
        let mut l = LruList::new(1);
        l.push_back(0);
        l.ensure_capacity(10);
        l.push_back(9);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![0, 9]);
    }

    /// Apply one (op, slot) step to both the list and the deque reference
    /// model, then check every eviction-order invariant the page cache
    /// relies on: identical length, identical front (the eviction victim),
    /// and identical full order.
    fn step_and_check(l: &mut LruList, model: &mut VecDeque<u32>, op: u8, slot: u32) {
        match op {
            0 => {
                if !model.contains(&slot) {
                    l.push_back(slot);
                    model.push_back(slot);
                }
            }
            1 => {
                assert_eq!(l.pop_front(), model.pop_front());
            }
            2 => {
                if model.contains(&slot) {
                    l.touch(slot);
                    model.retain(|&s| s != slot);
                    model.push_back(slot);
                }
            }
            _ => {
                let was = model.contains(&slot);
                model.retain(|&s| s != slot);
                assert_eq!(l.remove(slot), was);
            }
        }
        assert_eq!(l.len(), model.len());
        assert_eq!(l.front(), model.front().copied());
        assert_eq!(
            l.iter().collect::<Vec<_>>(),
            model.iter().copied().collect::<Vec<_>>()
        );
    }

    /// The list must behave identically to a reference deque model under
    /// arbitrary interleavings of push/pop/touch/remove.
    #[test]
    fn matches_reference_model() {
        cases(256, |rng| {
            let mut l = LruList::new(32);
            let mut model: VecDeque<u32> = VecDeque::new();
            // Half the cases skew toward pushes while the list is short, so
            // touch/remove hit populated structure.
            let fill_first = rng.bool(0.5);
            for _ in 0..256 {
                let op = if fill_first && model.len() < 4 {
                    0
                } else {
                    rng.below(4) as u8
                };
                step_and_check(&mut l, &mut model, op, rng.below(32) as u32);
            }
        });
    }
}
