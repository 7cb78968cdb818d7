//! The content-addressed run-summary memo: whole simulated runs, cached.
//!
//! The [`TranslationService`](crate::TranslationService) already memoizes
//! *translations* across runs, but a repeated identical scenario still pays
//! the full simulation: every block is re-executed cycle by cycle. A run,
//! however, is as pure as a compile — the platform is a deterministic
//! simulator, so the observables of a run are a function of exactly two
//! inputs: the guest program bytes and the platform configuration. The
//! [`RunMemo`] closes that gap with a content-addressed cache:
//!
//! * the **key** ([`RunKey`]) is `(program fingerprint, config
//!   fingerprint)` — the config fingerprint covers the mitigation policy,
//!   every DBT and core parameter (speculation options, issue width, cache
//!   geometry, MCB capacity, rollback penalty) and the block budget, so two
//!   equal keys describe byte-identical simulations;
//! * the **value** ([`CachedRun`]) is the [`RunSummary`] plus the
//!   mitigation pattern count and (for attack programs) the bytes the
//!   side channel recovered — everything a lab report needs from a run;
//! * each key resolves to exactly **one simulation process-wide**: late
//!   askers block on the winner's `OnceLock` slot, so the hit/miss
//!   counters are deterministic for a given job list regardless of how
//!   many clients and threads demand it.
//!
//! The memo is the second cache level of the `dbt-serve` daemon (the
//! translation service being the first): a fleet of clients submitting the
//! same scenarios pays one simulation per distinct scenario, and every
//! repeat is answered from the memo.

use crate::processor::RunSummary;
use dbt_persist::BoundedMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Content address of one run: program fingerprint × config fingerprint.
///
/// Built by [`RunKey::new`] from the actual program and configuration, so
/// a key cannot be constructed from stale inputs by accident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey {
    /// [`Program::fingerprint`](dbt_riscv::Program::fingerprint) of the
    /// guest program.
    pub program: u64,
    /// [`PlatformConfig::fingerprint`](crate::PlatformConfig::fingerprint)
    /// of the platform configuration.
    pub config: u64,
}

impl RunKey {
    /// The content address of running `program` under `config`.
    pub fn new(program: &dbt_riscv::Program, config: &crate::PlatformConfig) -> RunKey {
        RunKey { program: program.fingerprint(), config: config.fingerprint() }
    }
}

/// Everything a cached run preserves about the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedRun {
    /// The run summary (cycles, blocks, rollbacks, halted, guest insts).
    pub summary: RunSummary,
    /// Spectre patterns reported by the GhostBusters analysis.
    pub patterns: usize,
    /// Bytes read back from the guest's `recovered` symbol after the run
    /// (`None` for programs without a planted secret).
    pub recovered: Option<Vec<u8>>,
}

/// Snapshot of the memo counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Runs answered from the memo.
    pub hits: u64,
    /// Runs that had to simulate (equals the number of distinct keys asked
    /// for process-wide, while the working set fits the capacity bound).
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Entries evicted to honour the capacity bound.
    pub evictions: u64,
}

impl MemoStats {
    /// Fraction of asks served from the memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Stable single-line JSON serialisation (fixed key order), used by the
    /// daemon's `stats` response.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"entries\": {}, \"evictions\": {}}}",
            self.hits, self.misses, self.entries, self.evictions
        )
    }

    /// Mirrors this snapshot into `registry` as the `dbt_runmemo_*`
    /// metric families. Called at scrape time so the Prometheus
    /// exposition and the `stats` JSON agree exactly on the same
    /// snapshot.
    pub fn export(&self, registry: &dbt_obs::MetricsRegistry) {
        registry.counter("dbt_runmemo_hits_total", "Runs answered from the memo.").set(self.hits);
        registry.counter("dbt_runmemo_misses_total", "Runs that had to simulate.").set(self.misses);
        registry
            .gauge("dbt_runmemo_entries", "Run-summary entries currently resident.")
            .set(self.entries as i64);
        registry
            .counter(
                "dbt_runmemo_evictions_total",
                "Run-summary entries evicted to honour the capacity bound.",
            )
            .set(self.evictions);
    }
}

/// One memo slot: filled exactly once, shared between waiting threads.
type Slot = Arc<OnceLock<Result<CachedRun, String>>>;

/// Default bound on resident entries. Entries are tiny (a summary, two
/// counters and at most a secret's worth of bytes), so the bound is far
/// above any standard sweep — it exists so a daemon facing an unbounded
/// scenario space (ad-hoc program uploads) cannot grow without limit.
pub const DEFAULT_MEMO_CAPACITY: usize = 4096;

/// The content-addressed, thread-safe run-summary memo.
///
/// The memo is bounded: beyond the capacity, the least recently used
/// entry is evicted (a [`BoundedMap`] weighing every entry 1, the same
/// map the program store and the `TranslationService` bound their own
/// units with). The hit/miss counters stay deterministic for a
/// given job list as long as the distinct-key working set fits the
/// capacity — once eviction engages under concurrency, the victim depends
/// on thread timing and evicted keys re-miss.
///
/// ```
/// use dbt_platform::{CachedRun, RunKey, RunMemo, RunSummary};
///
/// let memo = RunMemo::new();
/// let key = RunKey { program: 1, config: 2 };
/// let run = CachedRun {
///     summary: RunSummary {
///         cycles: 100,
///         blocks_executed: 3,
///         rollbacks: 0,
///         halted: true,
///         guest_insts: 12,
///     },
///     patterns: 0,
///     recovered: None,
/// };
/// let first = memo.get_or_run(key, || Ok(run.clone())).unwrap();
/// let second = memo.get_or_run(key, || panic!("must not re-simulate")).unwrap();
/// assert_eq!(first, second);
/// assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
/// ```
#[derive(Debug)]
pub struct RunMemo {
    slots: Mutex<BoundedMap<RunKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunMemo {
    /// An empty memo with the default capacity, behind an [`Arc`], ready
    /// to share across threads.
    pub fn new() -> Arc<RunMemo> {
        RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// A memo bounded to `capacity` resident entries (least recently used
    /// entries are evicted beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Arc<RunMemo> {
        assert!(capacity >= 1, "the run memo needs room for at least one entry");
        Arc::new(RunMemo {
            slots: Mutex::new(BoundedMap::new(capacity as u64)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// The resident slots, also after a panic elsewhere poisoned their
    /// lock: no simulation runs under it, so the map is never left half
    /// updated.
    fn slots(&self) -> MutexGuard<'_, BoundedMap<RunKey, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> MemoStats {
        let slots = self.slots();
        MemoStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            entries: slots.len(),
            evictions: slots.evictions(),
        }
    }

    /// The slot for `key`, creating it (and evicting the least recently
    /// used *other* entry if the capacity bound is exceeded) as needed.
    fn slot(&self, key: RunKey) -> Slot {
        Arc::clone(self.slots().get_or_insert_with(key, 1, Slot::default))
    }

    /// Returns the cached run for `key`, simulating it (exactly once
    /// process-wide, via `run`) if it is not resident yet.
    ///
    /// Failed runs are memoized too: a scenario that errors once errors
    /// identically — and cheaply — on every repeat.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) error of the failing simulation.
    pub fn get_or_run(
        &self,
        key: RunKey,
        run: impl FnOnce() -> Result<CachedRun, String>,
    ) -> Result<CachedRun, String> {
        let slot = self.slot(key);
        let mut computed = false;
        let result = slot
            .get_or_init(|| {
                computed = true;
                run()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::SeqCst);
        } else {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn sample_run(cycles: u64) -> CachedRun {
        CachedRun {
            summary: RunSummary {
                cycles,
                blocks_executed: 1,
                rollbacks: 0,
                halted: true,
                guest_insts: 4,
            },
            patterns: 1,
            recovered: Some(b"GB".to_vec()),
        }
    }

    #[test]
    fn distinct_keys_do_not_share_entries() {
        let memo = RunMemo::new();
        let a = memo.get_or_run(RunKey { program: 1, config: 1 }, || Ok(sample_run(10))).unwrap();
        let b = memo.get_or_run(RunKey { program: 1, config: 2 }, || Ok(sample_run(20))).unwrap();
        assert_ne!(a.summary.cycles, b.summary.cycles);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
    }

    #[test]
    fn errors_are_memoized() {
        let memo = RunMemo::new();
        let key = RunKey { program: 7, config: 7 };
        let first = memo.get_or_run(key, || Err("boom".to_string()));
        assert_eq!(first, Err("boom".to_string()));
        let second = memo.get_or_run(key, || panic!("must not re-run a failed key"));
        assert_eq!(second, Err("boom".to_string()));
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
    }

    #[test]
    fn concurrent_askers_simulate_exactly_once() {
        let memo = RunMemo::new();
        let runs = AtomicUsize::new(0);
        let key = RunKey { program: 3, config: 4 };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let got = memo
                        .get_or_run(key, || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            Ok(sample_run(42))
                        })
                        .unwrap();
                    assert_eq!(got.summary.cycles, 42);
                });
            }
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "late askers must block on the winner");
        let stats = memo.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
        assert!((stats.hit_rate() - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(
            stats.to_json(),
            "{\"hits\": 7, \"misses\": 1, \"entries\": 1, \"evictions\": 0}"
        );
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_entry() {
        let memo = RunMemo::with_capacity(2);
        for config in 1..=3u64 {
            let _ = memo.get_or_run(RunKey { program: 1, config }, || Ok(sample_run(config)));
        }
        let stats = memo.stats();
        assert_eq!(stats.entries, 2, "capacity bound holds");
        assert_eq!(stats.evictions, 1);
        // Key (1, 1) was the least recently used and must re-simulate.
        let again =
            memo.get_or_run(RunKey { program: 1, config: 1 }, || Ok(sample_run(10))).unwrap();
        assert_eq!(again.summary.cycles, 10, "the evicted entry really re-ran");
        assert_eq!(memo.stats().misses, 4);
        // The recently used keys survived.
        let kept = memo
            .get_or_run(RunKey { program: 1, config: 3 }, || panic!("must still be resident"))
            .unwrap();
        assert_eq!(kept.summary.cycles, 3);
    }

    #[test]
    fn a_poisoned_lock_still_serves_hits_inserts_and_stats() {
        let memo = RunMemo::new();
        let resident = RunKey { program: 1, config: 1 };
        let _ = memo.get_or_run(resident, || Ok(sample_run(10)));
        let poisoner = Arc::clone(&memo);
        let panicked = std::thread::spawn(move || {
            let _slots = poisoner.slots.lock().unwrap();
            panic!("a panic while the run memo's lock is held");
        })
        .join();
        assert!(panicked.is_err() && memo.slots.is_poisoned());
        let hit = memo.get_or_run(resident, || panic!("must be a hit")).unwrap();
        assert_eq!(hit.summary.cycles, 10);
        let inserted = memo.get_or_run(RunKey { program: 2, config: 1 }, || Ok(sample_run(20)));
        assert_eq!(inserted.unwrap().summary.cycles, 20);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = RunMemo::with_capacity(0);
    }
}
