//! Latency-producing data-cache front end used by the VLIW core.

use crate::config::CacheConfig;
use crate::set_assoc::SetAssocCache;
use crate::stats::CacheStats;

/// Result of a single data-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit in the cache.
    pub hit: bool,
    /// Latency of the access in cycles.
    pub latency: u64,
    /// Base address of the line that was evicted to make room, if any.
    pub evicted_line: Option<u64>,
}

/// The simulated L1 data cache.
///
/// Every load and store issued by the VLIW core goes through
/// [`DataCache::access`], which returns the access latency and updates
/// residency. Crucially, **speculative accesses also go through this path**
/// — the cache state they leave behind is exactly the Spectre leak the paper
/// exploits and mitigates.
#[derive(Debug, Clone)]
pub struct DataCache {
    cache: SetAssocCache,
    stats: CacheStats,
}

impl DataCache {
    /// Creates an empty data cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::is_valid`]).
    pub fn new(config: CacheConfig) -> DataCache {
        DataCache { cache: SetAssocCache::new(config), stats: CacheStats::default() }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        self.cache.config()
    }

    /// Performs an access (load if `is_write` is false, store otherwise).
    ///
    /// Misses allocate the line (write-allocate policy) and pay the miss
    /// latency; hits pay the hit latency.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let cfg = *self.cache.config();
        if self.cache.lookup(addr) {
            self.stats.record_hit(is_write);
            AccessOutcome { hit: true, latency: cfg.hit_latency, evicted_line: None }
        } else {
            self.stats.record_miss(is_write);
            let evicted_line = self.cache.fill(addr);
            AccessOutcome { hit: false, latency: cfg.miss_latency, evicted_line }
        }
    }

    /// Returns `true` if the line containing `addr` is resident (no LRU
    /// update, no latency).
    pub fn is_resident(&self, addr: u64) -> bool {
        self.cache.contains(addr)
    }

    /// Flushes the line containing `addr`.
    ///
    /// Returns the flush latency in cycles (flushes are modelled as cheap
    /// and constant-time).
    pub fn flush_line(&mut self, addr: u64) -> u64 {
        self.cache.flush_line(addr);
        self.stats.record_flush();
        self.cache.config().hit_latency
    }

    /// Flushes the whole cache.
    pub fn flush_all(&mut self) {
        self.cache.flush_all();
        self.stats.record_flush();
    }

    /// Access/hit/miss/flush counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets the statistics counters (residency is kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.cache.resident_lines()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_latencies() {
        let cfg = CacheConfig::default();
        let mut d = DataCache::new(cfg);
        let first = d.access(0x2000, false);
        assert!(!first.hit);
        assert_eq!(first.latency, cfg.miss_latency);
        let second = d.access(0x2004, false);
        assert!(second.hit);
        assert_eq!(second.latency, cfg.hit_latency);
    }

    #[test]
    fn stores_allocate_lines() {
        let mut d = DataCache::new(CacheConfig::default());
        let w = d.access(0x3000, true);
        assert!(!w.hit);
        assert!(d.is_resident(0x3000));
        let r = d.access(0x3008, false);
        assert!(r.hit);
    }

    #[test]
    fn flush_makes_next_access_miss() {
        let mut d = DataCache::new(CacheConfig::default());
        d.access(0x4000, false);
        assert!(d.is_resident(0x4000));
        d.flush_line(0x4000);
        assert!(!d.is_resident(0x4000));
        assert!(!d.access(0x4000, false).hit);
    }

    #[test]
    fn stats_are_accumulated() {
        let mut d = DataCache::new(CacheConfig::default());
        d.access(0x100, false);
        d.access(0x100, false);
        d.access(0x200, true);
        d.flush_line(0x100);
        let s = d.stats();
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.write_misses, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.accesses(), 3);
        d.reset_stats();
        assert_eq!(d.stats().accesses(), 0);
    }

    #[test]
    fn eviction_is_reported() {
        let cfg = CacheConfig::tiny();
        let mut d = DataCache::new(cfg);
        // Fill both ways of set 0, then one more.
        d.access(0, false);
        d.access(64, false);
        let third = d.access(128, false);
        assert_eq!(third.evicted_line, Some(0));
    }
}
