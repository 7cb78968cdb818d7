//! [`BoundedMap`]: the one in-memory LRU under the run memo, the program
//! store and the translation service. Each entry weighs something in its
//! cache's own unit (run entries, image bytes, compile products). Past
//! the budget, entries are evicted in (last-use tick, key) order, so a
//! given access sequence evicts the same keys on every run, and each
//! eviction costs O(log n). The entry an operation touches is never the
//! victim, so one entry heavier than the whole budget is still admitted.
//! Pinned entries sit outside the budget. Callers supply the lock.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: u64,
    tick: u64,
}

/// A map bounded by the summed weight of its unpinned entries.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    budget: u64,
    entries: HashMap<K, Entry<V>>,
    /// Unpinned keys by (last-use tick, key): the eviction order. Pinned
    /// entries are the ones missing from it.
    order: BTreeSet<(u64, K)>,
    /// Summed weight of the unpinned entries.
    weight: u64,
    tick: u64,
    evictions: u64,
}

impl<K: Hash + Ord + Clone, V> BoundedMap<K, V> {
    /// An empty map whose unpinned entries may weigh `budget` in total.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: u64) -> BoundedMap<K, V> {
        assert!(budget >= 1, "a bounded map needs a budget of at least one");
        BoundedMap {
            budget,
            entries: HashMap::new(),
            order: BTreeSet::new(),
            weight: 0,
            tick: 0,
            evictions: 0,
        }
    }

    /// Resident entries, pinned ones included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Summed weight of the resident unpinned entries.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The value under `key`, now the most recently used.
    pub fn get(&mut self, key: &K) -> Option<&mut V> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(key)?;
        if self.order.remove(&(entry.tick, key.clone())) {
            self.order.insert((tick, key.clone()));
        }
        entry.tick = tick;
        Some(&mut entry.value)
    }

    /// The value under `key`, now the most recently used, inserting
    /// `make()` at `weight` first if it is absent.
    pub fn get_or_insert_with(&mut self, key: K, weight: u64, make: impl FnOnce() -> V) -> &mut V {
        if self.get(&key).is_none() {
            self.insert(key.clone(), make(), weight);
        }
        &mut self.entries.get_mut(&key).expect("resident").value
    }

    /// Inserts (or replaces) `value` at `weight` as the most recently used
    /// entry, then evicts others until the weight fits the budget.
    pub fn insert(&mut self, key: K, value: V, weight: u64) {
        let tick = self.next_tick();
        if let Some(old) = self.entries.remove(&key) {
            if self.order.remove(&(old.tick, key.clone())) {
                self.weight -= old.weight;
            }
        }
        self.order.insert((tick, key.clone()));
        self.weight += weight;
        self.entries.insert(key.clone(), Entry { value, weight, tick });
        self.evict_for(&key);
    }

    /// Takes the entry under `key` out of the budget for good: it is never
    /// evicted and its weight stops counting.
    pub fn pin(&mut self, key: &K) {
        if let Some(entry) = self.entries.get(key) {
            if self.order.remove(&(entry.tick, key.clone())) {
                self.weight -= entry.weight;
            }
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Evicts least recently used entries other than `keep` until the
    /// weight fits the budget or `keep` is the only one left.
    fn evict_for(&mut self, keep: &K) {
        while self.weight > self.budget {
            let Some(oldest) = self.order.iter().find(|(_, key)| key != keep).cloned() else {
                return;
            };
            self.order.remove(&oldest);
            let entry = self.entries.remove(&oldest.1).expect("ordered keys are resident");
            self.weight -= entry.weight;
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_go_least_recently_used_first() {
        let mut map = BoundedMap::new(3);
        for key in 1..=3u64 {
            map.insert(key, key * 10, 1);
        }
        assert_eq!(map.get(&1), Some(&mut 10));
        map.insert(4, 40, 1);
        assert!(map.get(&2).is_none(), "2 was the least recently used");
        assert_eq!((map.len(), map.weight(), map.evictions()), (3, 3, 1));
    }

    #[test]
    fn victim_order_on_tick_ties_is_by_key() {
        let mut map = BoundedMap::new(2);
        // Two entries stamped with the same tick: only the key can order
        // them, and the smaller key goes first whatever the insert order.
        map.insert(9u64, "nine", 1);
        map.tick -= 1;
        map.insert(5u64, "five", 1);
        assert_eq!(map.entries[&9].tick, map.entries[&5].tick);
        map.insert(7u64, "seven", 1);
        assert!(map.entries.contains_key(&9), "{:?}", map.order);
        assert!(!map.entries.contains_key(&5), "the tie broke by key: {:?}", map.order);
        assert_eq!(map.evictions(), 1);
    }

    #[test]
    fn an_entry_heavier_than_the_budget_survives_its_own_insert() {
        let mut map = BoundedMap::new(10);
        map.insert("small", 1, 4);
        map.insert("huge", 2, 25);
        assert!(map.get(&"small").is_none(), "everything else made room");
        assert_eq!(map.get(&"huge"), Some(&mut 2), "the inserted entry is never the victim");
        assert_eq!((map.weight(), map.evictions()), (25, 1));
        // The next insert evicts it like any other least recently used entry.
        map.insert("next", 3, 1);
        assert!(map.get(&"huge").is_none());
        assert_eq!((map.len(), map.weight(), map.evictions()), (1, 1, 2));
    }

    #[test]
    fn weights_add_up_and_subtract_on_eviction() {
        let mut map = BoundedMap::new(100);
        map.insert(1u64, (), 30);
        map.insert(2u64, (), 50);
        assert_eq!((map.weight(), map.evictions()), (80, 0));
        // Replacing a value swaps its weight rather than adding to it, and
        // evicts others when the new weight is over.
        map.insert(2u64, (), 75);
        assert!(map.get(&1).is_none(), "1 was evicted to fit 2's new weight");
        assert_eq!((map.weight(), map.evictions()), (75, 1));
        map.insert(2u64, (), 5);
        assert_eq!((map.len(), map.weight()), (1, 5));
        map.get_or_insert_with(3, 7, || ());
        map.get_or_insert_with(3, 99, || panic!("resident"));
        assert_eq!(map.weight(), 12, "only an insert weighs in");
    }

    #[test]
    fn pinned_entries_are_outside_the_budget_and_never_evicted() {
        let mut map = BoundedMap::new(2);
        map.insert("seed", 0, 1);
        map.pin(&"seed");
        assert_eq!(map.weight(), 0);
        for key in ["a", "b", "c", "d"] {
            map.insert(key, 1, 1);
        }
        assert_eq!(map.get(&"seed"), Some(&mut 0));
        assert_eq!((map.len(), map.weight(), map.evictions()), (3, 2, 2));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn a_zero_budget_is_rejected() {
        let _ = BoundedMap::<u64, ()>::new(0);
    }
}
