//! Memory Conflict Buffer.
//!
//! The MCB is the hardware support for memory-dependency speculation
//! (Gallagher et al., ASPLOS'94), as used by Transmeta, NVidia Denver and
//! Hybrid-DBT: speculative loads record the bytes they read; when a store
//! later touches the same bytes *and* the load originally came after the
//! store, the speculation was wrong and the block must be rolled back.

/// One recorded speculative load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    addr: u64,
    bytes: u8,
    original_seq: u32,
}

/// The Memory Conflict Buffer of the VLIW core.
///
/// # Example
///
/// ```
/// use dbt_vliw::MemoryConflictBuffer;
/// let mut mcb = MemoryConflictBuffer::new(8);
/// mcb.record_load(0x1000, 8, 5);          // speculative load, guest seq 5
/// assert!(mcb.store_conflicts(0x1000, 8, 2));  // store with seq 2 was bypassed
/// assert!(!mcb.store_conflicts(0x2000, 8, 2)); // different bytes: fine
/// assert!(!mcb.store_conflicts(0x1000, 8, 9)); // store after the load: fine
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemoryConflictBuffer {
    entries: Vec<Entry>,
    capacity: usize,
    overflowed: bool,
}

impl MemoryConflictBuffer {
    /// Creates an empty buffer with room for `capacity` speculative loads.
    pub fn new(capacity: usize) -> MemoryConflictBuffer {
        MemoryConflictBuffer { entries: Vec::with_capacity(capacity), capacity, overflowed: false }
    }

    /// Records a speculative load of `bytes` bytes at `addr`, originating
    /// from the guest instruction at position `original_seq`.
    ///
    /// If the buffer is full the overflow flag is set; a conservative core
    /// treats any subsequent checked store as conflicting.
    pub fn record_load(&mut self, addr: u64, bytes: u8, original_seq: u32) {
        if self.entries.len() >= self.capacity {
            self.overflowed = true;
            return;
        }
        self.entries.push(Entry { addr, bytes, original_seq });
    }

    /// Returns `true` if a store of `bytes` bytes at `addr`, originating from
    /// guest position `store_seq`, conflicts with a recorded speculative
    /// load that originally came *after* the store.
    ///
    /// Byte ranges do not wrap: a store that runs past the top of the
    /// address space overlaps no load near address 0. The core checks the
    /// MCB before it bounds-checks the store, so such an address is
    /// possible here; the store then faults.
    pub fn store_conflicts(&self, addr: u64, bytes: u8, store_seq: u32) -> bool {
        if self.overflowed {
            return true;
        }
        let end = |start: u64, bytes: u8| u128::from(start) + u128::from(bytes);
        let store_end = end(addr, bytes);
        self.entries.iter().any(|e| {
            e.original_seq > store_seq
                && u128::from(addr) < end(e.addr, e.bytes)
                && u128::from(e.addr) < store_end
        })
    }

    /// Number of recorded speculative loads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no speculative load is recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer overflowed since the last clear.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Clears all entries (called at block boundaries and after rollback).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.overflowed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_requires_overlap_and_order() {
        let mut mcb = MemoryConflictBuffer::new(4);
        mcb.record_load(0x100, 8, 10);
        // Overlapping bytes, store originally earlier: conflict.
        assert!(mcb.store_conflicts(0x104, 4, 3));
        // Overlapping bytes, store originally later: no conflict.
        assert!(!mcb.store_conflicts(0x104, 4, 11));
        // Disjoint bytes: no conflict.
        assert!(!mcb.store_conflicts(0x108, 8, 3));
        // Adjacent but non-overlapping below.
        assert!(!mcb.store_conflicts(0xf8, 8, 3));
        // One byte overlap at the start.
        assert!(mcb.store_conflicts(0xf9, 8, 3));
    }

    #[test]
    fn a_store_past_the_top_of_the_address_space_does_not_wrap() {
        let mut mcb = MemoryConflictBuffer::new(4);
        mcb.record_load(0x0, 8, 10);
        assert!(!mcb.store_conflicts(u64::MAX - 3, 8, 3));
        mcb.record_load(u64::MAX - 7, 8, 10);
        assert!(mcb.store_conflicts(u64::MAX - 3, 8, 3));
    }

    #[test]
    fn clear_resets_state() {
        let mut mcb = MemoryConflictBuffer::new(1);
        mcb.record_load(0, 1, 1);
        mcb.record_load(8, 1, 2); // overflow
        assert!(mcb.overflowed());
        assert!(mcb.store_conflicts(0x9999, 1, 0));
        mcb.clear();
        assert!(!mcb.overflowed());
        assert!(mcb.is_empty());
        assert!(!mcb.store_conflicts(0, 1, 0));
    }

    #[test]
    fn overflow_is_conservative() {
        let mut mcb = MemoryConflictBuffer::new(2);
        mcb.record_load(0, 8, 1);
        mcb.record_load(8, 8, 2);
        assert_eq!(mcb.len(), 2);
        mcb.record_load(16, 8, 3);
        assert_eq!(mcb.len(), 2);
        assert!(mcb.overflowed());
        // Even a store that would not overlap any entry reports a conflict.
        assert!(mcb.store_conflicts(0x4000, 8, 0));
    }
}
