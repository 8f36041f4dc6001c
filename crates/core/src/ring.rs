//! A fixed-capacity overwrite ring: [`EventRing`] retains the newest N
//! elements, which is how the telemetry subsystem keeps per-thread
//! spans without unbounded growth.

/// A fixed-capacity ring that keeps the **newest** `capacity` elements:
/// once full, each push evicts the oldest element. Single-owner (wrap it
/// in a lock for sharing); iteration yields oldest → newest.
#[derive(Clone, Debug)]
pub struct EventRing<T> {
    slots: Vec<T>,
    capacity: usize,
    /// Index of the oldest element (only meaningful once full).
    head: usize,
    /// Total elements ever pushed.
    pushed: u64,
}

impl<T> EventRing<T> {
    /// Create a ring retaining at most `capacity` (≥ 1) elements.
    pub fn new(capacity: usize) -> EventRing<T> {
        let capacity = capacity.max(1);
        EventRing {
            slots: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Maximum retained elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently retained elements (≤ capacity).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total elements ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// How many elements were evicted to make room for newer ones.
    pub fn evicted(&self) -> u64 {
        self.pushed - self.slots.len() as u64
    }

    /// Append an element, evicting the oldest if at capacity.
    pub fn push(&mut self, value: T) {
        self.pushed += 1;
        if self.slots.len() < self.capacity {
            self.slots.push(value);
        } else {
            self.slots[self.head] = value;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Retained elements, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.slots.split_at(self.head);
        older.iter().chain(newer.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ring_below_capacity_keeps_order() {
        let mut r = EventRing::new(4);
        assert!(r.is_empty());
        r.push(1);
        r.push(2);
        r.push(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.evicted(), 0);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn event_ring_wraparound_keeps_newest() {
        let mut r = EventRing::new(3);
        for v in 1..=7 {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.pushed(), 7);
        assert_eq!(r.evicted(), 4);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![5, 6, 7]);
    }

    #[test]
    fn event_ring_capacity_one_holds_latest() {
        let mut r = EventRing::new(0); // clamped to 1
        r.push("a");
        r.push("b");
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec!["b"]);
    }
}
