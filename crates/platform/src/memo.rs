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
//!
//! With a durable tier attached ([`RunMemo::with_capacity`]), a miss
//! consults the on-disk store before simulating and publishes fresh
//! results behind the write: a restarted daemon answers its old working
//! set from disk without simulating anything. The hit/miss counters are
//! **unchanged** by the tier — a disk hit still counts as a memo miss
//! (the in-memory slot had to be filled), so a given job list produces
//! byte-identical stats whatever the disk warmth; only the persist
//! store's own counters (and the simulation count) reveal the tier.

use crate::processor::RunSummary;
use dbt_persist::codec::{ByteReader, ByteWriter};
use dbt_persist::{BoundedMap, PersistStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entry kind the memo uses in the durable store.
const RUN_KIND: &str = "run";

/// Payload format version inside a `run` entry (the store frames and
/// checksums around it; this versions the fields below).
const RUN_PAYLOAD_VERSION: u8 = 1;

/// The durable-store key: both fingerprints, concatenated as hex.
fn run_key_hex(key: RunKey) -> String {
    format!("{:016x}{:016x}", key.program, key.config)
}

/// Binary payload of one cached run (decoded by [`decode_cached_run`]).
fn encode_cached_run(run: &CachedRun) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(RUN_PAYLOAD_VERSION);
    w.put_u64(run.summary.cycles);
    w.put_u64(run.summary.blocks_executed);
    w.put_u64(run.summary.rollbacks);
    w.put_bool(run.summary.halted);
    w.put_u64(run.summary.guest_insts);
    w.put_usize(run.patterns);
    match &run.recovered {
        None => w.put_bool(false),
        Some(bytes) => {
            w.put_bool(true);
            w.put_bytes(bytes);
        }
    }
    w.finish()
}

/// Total decode of a `run` payload; `None` means the entry is torn or
/// foreign and must be quarantined and recomputed.
fn decode_cached_run(bytes: &[u8]) -> Option<CachedRun> {
    let mut r = ByteReader::new(bytes);
    if r.u8()? != RUN_PAYLOAD_VERSION {
        return None;
    }
    let summary = RunSummary {
        cycles: r.u64()?,
        blocks_executed: r.u64()?,
        rollbacks: r.u64()?,
        halted: r.bool()?,
        guest_insts: r.u64()?,
    };
    let patterns = r.usize()?;
    let recovered = if r.bool()? { Some(r.bytes()?.to_vec()) } else { None };
    r.done().then_some(CachedRun { summary, patterns, recovered })
}

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
    persist: Option<Arc<PersistStore>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunMemo {
    /// An empty memo with the default capacity and no durable tier,
    /// behind an [`Arc`], ready to share across threads.
    pub fn new() -> Arc<RunMemo> {
        RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, None)
    }

    /// A memo bounded to `capacity` resident entries (least recently used
    /// entries are evicted beyond that). With a durable tier (`persist`),
    /// misses consult it before simulating, fresh successful results are
    /// published behind the write, and entries that fail to decode are
    /// quarantined and recomputed. Failed runs are memoized in memory
    /// only — an error is never written to disk.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize, persist: Option<Arc<PersistStore>>) -> Arc<RunMemo> {
        assert!(capacity >= 1, "the run memo needs room for at least one entry");
        Arc::new(RunMemo {
            slots: Mutex::new(BoundedMap::new(capacity as u64)),
            persist,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> MemoStats {
        let slots = self.slots.lock().expect("run memo poisoned");
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
        let mut slots = self.slots.lock().expect("run memo poisoned");
        Arc::clone(slots.get_or_insert_with(key, 1, Slot::default))
    }

    /// Returns the cached run for `key`, simulating it (exactly once
    /// process-wide, via `run`) if it is not resident yet. With a durable
    /// tier attached, the disk is consulted before `run` — a valid disk
    /// entry fills the slot without simulating (still counted as a memo
    /// miss, see the module docs), and a fresh result is published to
    /// disk behind the write.
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
                if let Some(tier) = &self.persist {
                    if let Some(cached) = read_through(tier, key) {
                        return Ok(cached);
                    }
                }
                let result = run();
                if let (Some(tier), Ok(cached)) = (&self.persist, &result) {
                    tier.put(RUN_KIND, &run_key_hex(key), &encode_cached_run(cached));
                }
                result
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

/// The disk side of a memo miss: a framed entry that decodes is the run;
/// one that does not is quarantined (semantic reject — the store's own
/// checksum passed) so the simulation can re-publish cleanly.
fn read_through(tier: &PersistStore, key: RunKey) -> Option<CachedRun> {
    let hex = run_key_hex(key);
    let bytes = tier.get(RUN_KIND, &hex)?;
    match decode_cached_run(&bytes) {
        Some(cached) => Some(cached),
        None => {
            tier.quarantine(RUN_KIND, &hex, "run payload decode failed");
            None
        }
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
        let memo = RunMemo::with_capacity(2, None);
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
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = RunMemo::with_capacity(0, None);
    }

    fn fresh_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("dbt-platform-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn cached_run_payload_round_trips() {
        for run in [
            sample_run(99),
            CachedRun {
                summary: RunSummary {
                    cycles: 0,
                    blocks_executed: 0,
                    rollbacks: 3,
                    halted: false,
                    guest_insts: u64::MAX,
                },
                patterns: 0,
                recovered: None,
            },
        ] {
            let bytes = encode_cached_run(&run);
            assert_eq!(decode_cached_run(&bytes), Some(run));
        }
        assert_eq!(decode_cached_run(&[]), None);
        assert_eq!(decode_cached_run(&[9]), None, "unknown payload versions are rejected");
        let mut truncated = encode_cached_run(&sample_run(1));
        truncated.pop();
        assert_eq!(decode_cached_run(&truncated), None);
    }

    #[test]
    fn persist_tier_answers_a_restarted_memo_without_simulating() {
        let root = fresh_root("restart");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let key = RunKey { program: 0xabc, config: 0xdef };
        let first = {
            let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier)));
            memo.get_or_run(key, || Ok(sample_run(77))).unwrap()
        };
        // A new memo (a restarted daemon) over the same root: the run
        // comes back identical with the closure never invoked.
        let tier2 = dbt_persist::PersistStore::open(&root).unwrap();
        let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier2)));
        let again =
            memo.get_or_run(key, || panic!("a warm disk tier must not re-simulate")).unwrap();
        assert_eq!(first, again);
        // Still a memo *miss* (the in-memory slot was cold) — stats stay
        // byte-identical to a cold run — but a persist *hit*.
        assert_eq!((memo.stats().hits, memo.stats().misses), (0, 1));
        assert_eq!(tier2.stats().hits, 1);
        // Repeats are ordinary memo hits that never touch the disk.
        let _ = memo.get_or_run(key, || panic!("resident")).unwrap();
        assert_eq!(memo.stats().hits, 1);
        assert_eq!(tier2.stats().hits, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn errors_are_never_persisted() {
        let root = fresh_root("errors");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let key = RunKey { program: 1, config: 2 };
        {
            let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier)));
            assert!(memo.get_or_run(key, || Err("boom".to_string())).is_err());
        }
        assert_eq!(tier.stats().writes, 0);
        // A restarted memo re-runs the failed key.
        let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier)));
        let ok = memo.get_or_run(key, || Ok(sample_run(5))).unwrap();
        assert_eq!(ok.summary.cycles, 5);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn undecodable_disk_entries_are_quarantined_and_recomputed() {
        let root = fresh_root("quarantine");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let key = RunKey { program: 0x11, config: 0x22 };
        // Plant a store-valid entry whose payload is not a cached run.
        assert!(tier.put(RUN_KIND, &run_key_hex(key), b"not a run payload"));
        let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier)));
        let got = memo.get_or_run(key, || Ok(sample_run(8))).unwrap();
        assert_eq!(got.summary.cycles, 8, "the recompute answered");
        assert_eq!(tier.stats().corrupt_quarantined, 1);
        // The recompute re-published; a fresh memo now reads it back.
        let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, Some(Arc::clone(&tier)));
        let again = memo.get_or_run(key, || panic!("republished")).unwrap();
        assert_eq!(got, again);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
