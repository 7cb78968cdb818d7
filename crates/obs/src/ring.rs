//! The bounded newest-kept ring behind every observability buffer: the
//! span recorder, the event log, the profiler's flight recorder and the
//! router's trace-owner map.
//!
//! A [`Ring`] keeps at most `capacity` entries. A push onto a full ring
//! evicts the oldest entry, and [`Ring::dropped`] counts every entry lost
//! that way (or refused outright at capacity 0), so a truncated buffer is
//! visible, never silent. The ring takes no lock: stores shared across
//! threads wrap it in their own.

use std::collections::{vec_deque, VecDeque};

/// A bounded buffer that keeps the newest `capacity` entries.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring keeping at most `capacity` entries (0 keeps none),
    /// with room for all of them allocated up front.
    pub fn new(capacity: usize) -> Ring<T> {
        Ring { items: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Appends `item`, evicting the oldest entry when the ring is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() == self.capacity {
            self.dropped += 1;
            if self.items.pop_front().is_none() {
                return;
            }
        }
        self.items.push_back(item);
    }

    /// The retained entries, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the ring holds no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The bound this ring was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pushed(capacity: usize, items: u32) -> Ring<u32> {
        let mut ring = Ring::new(capacity);
        (0..items).for_each(|item| ring.push(item));
        ring
    }

    #[test]
    fn a_full_ring_evicts_its_oldest_entry_and_counts_every_loss() {
        for items in 0..8 {
            let ring = pushed(3, items);
            let lost = items.saturating_sub(3);
            assert_eq!(ring.iter().copied().collect::<Vec<_>>(), (lost..items).collect::<Vec<_>>());
            assert_eq!(ring.dropped(), u64::from(lost), "after {items} pushes");
        }
    }

    #[test]
    fn capacity_zero_drops_everything() {
        let ring = pushed(0, 4);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 4);
    }
}
