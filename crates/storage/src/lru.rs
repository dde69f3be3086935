//! A slab-backed intrusive LRU list over dense `u32` slot ids, split into
//! eviction classes.
//!
//! Both the OS page-cache model and GNNDrive's feature-buffer *standby list*
//! (paper §4.2) need least-recently-used ordering over a fixed universe of
//! slots with O(1) insert, remove, touch, and pop. This list stores
//! prev/next links in two flat vectors indexed by slot id, avoiding per-node
//! allocation entirely.
//!
//! Every slot sits in one *class*, and each class is its own LRU list.
//! [`LruList::pop_front`] takes the least recently used slot of the lowest
//! non-empty class, found in O(1) through a bitmask of non-empty classes.
//! A list made with [`LruList::new`] has one class, and every slot pushed
//! with [`LruList::push_back`] lands in class 0: plain LRU, with no
//! per-slot class byte.

/// Sentinel meaning "no link" / "not in list".
const NIL: u32 = u32::MAX;

/// Class byte of a slot that is not in a many-class list.
const UNLINKED: u8 = u8::MAX;

/// Intrusive doubly-linked LRU lists over slot ids `0..capacity`, one per
/// class.
///
/// Within a class the *front* is the least recently used element and the
/// *back* the most recently used; classes are ordered low to high.
#[derive(Debug, Clone)]
pub struct LruList {
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Per slot: its class, or [`UNLINKED`]. Empty in a one-class list,
    /// where every linked slot is in class 0.
    class: Vec<u8>,
    /// Per class: `(head, tail)`.
    ends: Vec<(u32, u32)>,
    /// Bit `c` is set while class `c` is non-empty.
    non_empty: u64,
    len: usize,
}

impl LruList {
    /// Create a one-class list able to hold slot ids `0..capacity`,
    /// initially empty.
    pub fn new(capacity: usize) -> Self {
        Self::with_classes(capacity, 1)
    }

    /// Create a list of `classes` classes (at most 64) able to hold slot
    /// ids `0..capacity`, initially empty.
    pub fn with_classes(capacity: usize, classes: usize) -> Self {
        assert!(capacity < NIL as usize, "capacity too large for u32 ids");
        assert!(
            (1..=u64::BITS as usize).contains(&classes),
            "an LRU list has 1..=64 classes, not {classes}"
        );
        let class_bytes = if classes > 1 { capacity } else { 0 };
        LruList {
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            class: vec![UNLINKED; class_bytes],
            ends: vec![(NIL, NIL); classes],
            non_empty: 0,
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
            if self.ends.len() > 1 {
                self.class.resize(capacity, UNLINKED);
            }
        }
    }

    /// Whether `slot` is currently in the list.
    pub fn contains(&self, slot: u32) -> bool {
        self.class_of(slot).is_some()
    }

    /// The class `slot` sits in, or `None` if it is not in the list.
    pub fn class_of(&self, slot: u32) -> Option<u8> {
        let s = slot as usize;
        if self.ends.len() > 1 {
            return self.class.get(s).copied().filter(|&c| c != UNLINKED);
        }
        let linked = s < self.prev.len()
            && (self.prev[s] != NIL || self.next[s] != NIL || self.ends[0].0 == slot);
        linked.then_some(0)
    }

    /// Append `slot` at the back (most-recently-used end) of class 0.
    ///
    /// Panics if the slot is already linked (callers track membership).
    pub fn push_back(&mut self, slot: u32) {
        self.push_back_in(slot, 0);
    }

    /// Append `slot` at the back (most-recently-used end) of `class`.
    pub fn push_back_in(&mut self, slot: u32, class: u8) {
        debug_assert!(!self.contains(slot), "slot {slot} already in LRU list");
        let (s, c) = (slot as usize, class as usize);
        let tail = self.ends[c].1;
        self.prev[s] = tail;
        self.next[s] = NIL;
        if let Some(b) = self.class.get_mut(s) {
            *b = class;
        }
        if tail != NIL {
            self.next[tail as usize] = slot;
        } else {
            self.ends[c].0 = slot;
            self.non_empty |= 1 << c;
        }
        self.ends[c].1 = slot;
        self.len += 1;
    }

    /// Remove and return the least-recently-used slot of the lowest
    /// non-empty class.
    pub fn pop_front(&mut self) -> Option<u32> {
        let slot = self.front()?;
        self.remove(slot);
        Some(slot)
    }

    /// Peek the slot [`LruList::pop_front`] would return, without removing it.
    pub fn front(&self) -> Option<u32> {
        (self.non_empty != 0).then(|| self.ends[self.non_empty.trailing_zeros() as usize].0)
    }

    /// Unlink `slot` from the list. Returns `true` if it was present.
    pub fn remove(&mut self, slot: u32) -> bool {
        let Some(class) = self.class_of(slot) else {
            return false;
        };
        let (s, c) = (slot as usize, class as usize);
        let (p, n) = (self.prev[s], self.next[s]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.ends[c].0 = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.ends[c].1 = p;
        }
        if self.ends[c].0 == NIL {
            self.non_empty &= !(1 << c);
        }
        self.prev[s] = NIL;
        self.next[s] = NIL;
        if let Some(b) = self.class.get_mut(s) {
            *b = UNLINKED;
        }
        self.len -= 1;
        true
    }

    /// Mark `slot` most recently used within its class (must be present).
    pub fn touch(&mut self, slot: u32) {
        let class = self.class_of(slot);
        debug_assert!(class.is_some(), "touch of slot {slot} not in list");
        let Some(class) = class else { return };
        if self.ends[class as usize].1 != slot {
            self.remove(slot);
            self.push_back_in(slot, class);
        }
    }

    /// Iterate class by class from low to high, each from least- to
    /// most-recently-used.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ends.iter().flat_map(move |&(head, _)| {
            let mut cur = head;
            std::iter::from_fn(move || {
                (cur != NIL).then(|| {
                    let out = cur;
                    cur = self.next[cur as usize];
                    out
                })
            })
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

        let mut l = LruList::with_classes(1, 4);
        l.push_back_in(0, 3);
        l.ensure_capacity(10);
        l.push_back_in(9, 1);
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![9, 0]);
        assert_eq!((l.class_of(9), l.class_of(5)), (Some(1), None));
    }

    /// Plain LRU (the page cache and its policies) costs its two link
    /// arrays and nothing per slot beyond them.
    #[test]
    fn one_class_lists_store_no_class_bytes() {
        let mut l = LruList::new(16);
        l.ensure_capacity(32);
        assert!(l.class.is_empty());
        assert_eq!(LruList::with_classes(16, 2).class.len(), 16);
    }

    #[test]
    fn pop_takes_the_lowest_non_empty_class_first() {
        let mut l = LruList::with_classes(8, 64);
        l.push_back_in(5, 63);
        l.push_back_in(1, 2);
        l.push_back_in(0, 2);
        l.push_back_in(7, 0);
        l.touch(1);
        assert_eq!(l.class_of(1), Some(2), "touch stays inside the class");
        assert_eq!(l.iter().collect::<Vec<_>>(), vec![7, 0, 1, 5]);
        let popped: Vec<u32> = std::iter::from_fn(|| l.pop_front()).collect();
        assert_eq!(popped, vec![7, 0, 1, 5]);
        assert_eq!(l.class_of(5), None);
    }

    /// Apply one (op, slot, class) step to both the list and the reference
    /// model — one deque per class — then check every eviction-order
    /// invariant the page cache and the standby list rely on: identical
    /// length, identical front (the eviction victim: the head of the lowest
    /// non-empty class), and identical full order, classes low to high.
    fn step_and_check(l: &mut LruList, model: &mut [VecDeque<u32>], op: u8, slot: u32, class: u8) {
        let holder = model.iter().position(|q| q.contains(&slot));
        match op {
            0 => {
                if holder.is_none() {
                    l.push_back_in(slot, class);
                    model[class as usize].push_back(slot);
                }
            }
            1 => {
                let victim = model.iter_mut().find_map(|q| q.pop_front());
                assert_eq!(l.pop_front(), victim);
            }
            2 => {
                if let Some(c) = holder {
                    l.touch(slot);
                    model[c].retain(|&s| s != slot);
                    model[c].push_back(slot);
                }
            }
            _ => {
                if let Some(c) = holder {
                    model[c].retain(|&s| s != slot);
                }
                assert_eq!(l.remove(slot), holder.is_some());
            }
        }
        let order: Vec<u32> = model.iter().flatten().copied().collect();
        assert_eq!(l.len(), order.len());
        assert_eq!(l.front(), order.first().copied());
        assert_eq!(l.iter().collect::<Vec<_>>(), order);
        for (c, q) in model.iter().enumerate() {
            assert!(q.iter().all(|&s| l.class_of(s) == Some(c as u8)));
        }
    }

    /// One seeded case of the reference-model property over `classes`
    /// classes. A one-class case draws exactly what the plain-LRU property
    /// always drew.
    fn model_case(rng: &mut gnndrive_sync::Rng, classes: usize) {
        let mut l = LruList::with_classes(32, classes);
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); classes];
        // Half the cases skew toward pushes while the list is short, so
        // touch/remove hit populated structure.
        let fill_first = rng.bool(0.5);
        for _ in 0..256 {
            let op = if fill_first && l.len() < 4 {
                0
            } else {
                rng.below(4) as u8
            };
            let slot = rng.below(32) as u32;
            let class = if classes > 1 { rng.below(classes) } else { 0 };
            step_and_check(&mut l, &mut model, op, slot, class as u8);
        }
    }

    /// The list must behave identically to a reference model of one deque
    /// per class under arbitrary interleavings of push/pop/touch/remove:
    /// first with one class (the plain LRU the page cache relies on), then
    /// with 2..=64.
    #[test]
    fn matches_reference_model() {
        cases(256, |rng| model_case(rng, 1));
        cases(256, |rng| {
            let classes = 2 + rng.below(63);
            model_case(rng, classes)
        });
    }
}
