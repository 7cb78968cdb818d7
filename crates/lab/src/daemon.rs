//! The lab's [`LabBackend`] implementation: what `lab serve` actually runs.
//!
//! One [`LabDaemon`] owns the three process-wide, content-addressed layers
//! every request amortizes:
//!
//! * a single shared [`TranslationService`] — every session of every
//!   request resolves its compiles through one memo, so a client fleet
//!   pays each distinct translation once per daemon lifetime, not once
//!   per request;
//! * a single content-addressed [`RunMemo`] — whole run summaries keyed by
//!   `(program fingerprint, platform-config fingerprint)`, so a repeated
//!   identical scenario skips the simulation entirely;
//! * a single [`ProgramStore`] — the daemon's program namespace. Every
//!   analyzable registry program is registered at construction and seeded
//!   lazily; `upload` requests intern ad-hoc programs under their content
//!   fingerprint (identical submissions deduplicate), and the `program`
//!   members of `run`/`analyze` requests resolve through the
//!   [`ProgramRef`] grammar (`registry:<name>`, bare names, `fp:<hex>`).
//!
//! Responses reuse the lab's byte-stable emitters verbatim: the body of a
//! daemon answer for a *cold* cache is byte-identical — including the
//! `stats` block — to what the `lab` CLI prints locally, and stays
//! byte-identical in all cycle data once the caches are warm (only the
//! warmth-dependent counters in `stats` shrink; [`strip_stats`] cuts the
//! report at that block for comparisons). The same contract extends to
//! ad-hoc programs: an uploaded program runs and analyzes byte-identically
//! to the equal program built in-process.

use crate::analyze::{analyze_built, resolve_program};
use crate::exec::{run_sweep_obs, ExecOptions};
use crate::profile::profile_built;
use crate::registry::Registry;
use crate::scenario::{PlatformOverrides, PlatformVariant, ProgramSpec, Scenario, ScenarioKind};
use dbt_obs::{EventLog, LogLevel, MetricsRegistry};
use dbt_persist::{PersistEvent, PersistStats, PersistStore};
use dbt_platform::{
    ProgramRef, ProgramStore, RunMemo, TranslationService, DEFAULT_MEMO_CAPACITY,
    DEFAULT_STORE_BUDGET_BYTES,
};
use dbt_riscv::Program;
use dbt_serve::{LabBackend, ProgramSource, RunKnobs};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use std::sync::Arc;

/// Cuts a lab report JSON at its `stats` block.
///
/// Cycle counts, slowdowns and recovery rates are pure functions of the
/// scenario; the executor counters (`simulations`, translation hits and
/// misses) also depend on how warm the daemon's caches were when the
/// request arrived. Comparisons across cache states therefore strip the
/// `stats` block — exactly like the CI sweep-determinism check — and
/// require byte-identity on everything before it.
pub fn strip_stats(report_json: &str) -> String {
    match report_json.find("  \"stats\": {") {
        Some(index) => report_json[..index].to_string(),
        None => report_json.to_string(),
    }
}

/// The daemon state behind `lab serve`.
#[derive(Debug)]
pub struct LabDaemon {
    registry: Registry,
    default_threads: usize,
    service: Arc<TranslationService>,
    memo: Arc<RunMemo>,
    store: Arc<ProgramStore>,
    /// The daemon's own metric registry: translation phase histograms,
    /// the executor's simulate span, and — mirrored at scrape time — the
    /// cache/service counters `stats_json` reports. Per daemon, not
    /// process-global, so concurrent daemons (and tests) never bleed into
    /// each other's expositions.
    obs: Arc<MetricsRegistry>,
    /// The durable cache tier beneath the three layers above, present only
    /// when the daemon was built over a cache directory (`--cache-dir`).
    /// `None` keeps every answer and counter byte-identical to a daemon
    /// built before the tier existed.
    persist: Option<Arc<PersistStore>>,
    /// The daemon's own event log, owned only alongside `persist` (cache
    /// lifecycle events land here); the server adopts it through
    /// [`LabBackend::event_log`] so persistence and server lifecycle
    /// events interleave in one `logs` stream.
    events: Option<Arc<EventLog>>,
}

impl LabDaemon {
    /// A daemon over the standard registry at `size`, with auto-sized
    /// sweep executors (one thread per CPU).
    pub fn new(size: WorkloadSize) -> LabDaemon {
        LabDaemon::with_threads(size, 0)
    }

    /// A daemon whose sweep executors default to `default_threads` worker
    /// threads (`0` = one per CPU); a request's `threads` member overrides
    /// it per sweep.
    pub fn with_threads(size: WorkloadSize, default_threads: usize) -> LabDaemon {
        LabDaemon::with_cache_dir(size, default_threads, None)
            .expect("a daemon without a cache dir cannot fail to construct")
    }

    /// [`LabDaemon::with_threads`] plus an optional durable cache tier
    /// rooted at `cache_dir`. When present, the translation service's
    /// analysis verdicts, the run memo's summaries and the program
    /// store's uploaded images all read through to (and write behind
    /// into) the directory, uploaded programs are re-seeded immediately,
    /// and cache lifecycle events (incompatible-cache reset, reseeding,
    /// quarantines, GC) land in the daemon's own event log. `None` is
    /// exactly [`LabDaemon::with_threads`].
    ///
    /// # Errors
    ///
    /// Fails only when `cache_dir` names a directory that cannot be
    /// created or written. Corrupt or incompatible *contents* of a
    /// writable directory are never an error — they are quarantined and
    /// recomputed.
    pub fn with_cache_dir(
        size: WorkloadSize,
        default_threads: usize,
        cache_dir: Option<&str>,
    ) -> Result<LabDaemon, String> {
        let obs = MetricsRegistry::new();
        let (persist, events) = match cache_dir {
            None => (None, None),
            Some(dir) => {
                let tier = PersistStore::open(dir)
                    .map_err(|e| format!("cannot open cache dir `{dir}`: {e}"))?;
                let events = Arc::new(EventLog::new());
                let log = Arc::clone(&events);
                tier.set_observer(move |event| match event {
                    PersistEvent::CorruptQuarantined { kind, key, reason } => log.log(
                        LogLevel::Warn,
                        "persist.cache",
                        "corrupt entry quarantined",
                        None,
                        &[("kind", kind), ("key", key), ("reason", reason)],
                    ),
                    PersistEvent::GcEvicted { entries, bytes } => log.log(
                        LogLevel::Info,
                        "persist.cache",
                        "gc evicted entries",
                        None,
                        &[("entries", &entries.to_string()), ("bytes", &bytes.to_string())],
                    ),
                });
                if tier.incompatible_reset() {
                    events.log(
                        LogLevel::Warn,
                        "persist.cache",
                        "incompatible cache quarantined, starting fresh",
                        None,
                        &[("root", &tier.root().display().to_string())],
                    );
                }
                (Some(tier), Some(events))
            }
        };
        let service = TranslationService::with_metrics(&obs, persist.clone());
        let memo = RunMemo::with_capacity(DEFAULT_MEMO_CAPACITY, persist.clone());
        let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, persist.clone());
        // Every analyzable program label becomes a lazily-seeded registry
        // entry of the store, so `registry:<name>` refs (and bare names)
        // resolve without building anything until first use.
        for label in analyzable_labels() {
            let spec = resolve_program(label, size).expect("registry labels resolve");
            store.register(label, move || spec.build());
        }
        // With registry names claimed, restore the previous daemon
        // lifetime's uploaded programs so `fp:` refs resolve immediately.
        if persist.is_some() {
            let reseeded = store.reseed_from_persist();
            if let Some(events) = &events {
                events.log(
                    LogLevel::Info,
                    "persist.cache",
                    "durable cache attached",
                    None,
                    &[("programs_reseeded", &reseeded.to_string())],
                );
            }
        }
        Ok(LabDaemon {
            registry: Registry::standard(size),
            default_threads,
            service,
            memo,
            store,
            obs,
            persist,
            events,
        })
    }

    /// The process-wide translation service all requests share.
    pub fn service(&self) -> &Arc<TranslationService> {
        &self.service
    }

    /// The content-addressed run-summary memo all requests share.
    pub fn memo(&self) -> &Arc<RunMemo> {
        &self.memo
    }

    /// The content-addressed program store all requests share.
    pub fn store(&self) -> &Arc<ProgramStore> {
        &self.store
    }

    /// The daemon's metric registry (what the `metrics` op renders).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// The durable cache tier, when the daemon was built over one.
    pub fn persist(&self) -> Option<&Arc<PersistStore>> {
        self.persist.as_ref()
    }

    /// The `"persist"` member of the `stats` body: `{"enabled": false}`
    /// without a cache dir, the full [`PersistStats`] snapshot (plus the
    /// flag) with one.
    fn persist_stats_json(&self) -> String {
        match &self.persist {
            None => "{\"enabled\": false}".to_string(),
            // Splice the flag in front of the stats object's own members.
            Some(tier) => format!("{{\"enabled\": true, {}", &tier.stats().to_json()[1..]),
        }
    }

    fn exec_opts(&self, threads: usize) -> ExecOptions {
        ExecOptions {
            threads: if threads == 0 { self.default_threads } else { threads },
            verbose: false,
        }
    }

    /// Parses `text` as a program ref and resolves it through the store.
    /// Returns the report label alongside the program.
    fn resolve_ref(&self, text: &str) -> Result<(String, Arc<Program>), String> {
        let program_ref = ProgramRef::parse(text)?;
        let program = self.store.resolve(&program_ref)?;
        Ok((program_ref.label(), program))
    }
}

/// Parses a wire policy label into a [`MitigationPolicy`].
fn parse_policy(policy: &str) -> Result<MitigationPolicy, String> {
    MitigationPolicy::from_label(policy).ok_or_else(|| {
        format!(
            "unknown policy `{policy}` (expected one of: {})",
            MitigationPolicy::ALL.map(|p| p.label()).join(", ")
        )
    })
}

/// Maps wire-level [`RunKnobs`] onto the lab's [`PlatformOverrides`]
/// (cache geometry is not wire-settable).
fn knob_overrides(knobs: &RunKnobs) -> PlatformOverrides {
    PlatformOverrides {
        issue_width: knobs.issue_width.map(|w| w as usize),
        hot_threshold: knobs.hot_threshold,
        branch_speculation: knobs.branch_speculation,
        memory_speculation: knobs.memory_speculation,
        cache: None,
        mcb_capacity: knobs.mcb_capacity.map(|c| c as usize),
        rollback_penalty: knobs.rollback_penalty,
        max_blocks: knobs.max_blocks,
    }
}

/// The labels the daemon registers in its program store: the whole
/// analyzable namespace (suite kernels, `ptr-matmul`, both attacks).
fn analyzable_labels() -> impl Iterator<Item = &'static str> {
    dbt_workloads::SUITE_NAMES.iter().copied().chain(["ptr-matmul", "spectre-v1", "spectre-v4"])
}

impl LabBackend for LabDaemon {
    fn run_scenario(&self, scenario: &str) -> Result<String, String> {
        let found = self
            .registry
            .find_scenario(scenario)
            .ok_or_else(|| format!("unknown scenario `{scenario}` (see `lab list`)"))?;
        let report = run_sweep_obs(
            scenario,
            std::slice::from_ref(&found),
            ExecOptions { threads: 1, verbose: false },
            &self.service,
            Some(&self.memo),
            Some(&self.obs),
        );
        Ok(report.to_json())
    }

    fn sweep(&self, name: &str, threads: usize) -> Result<String, String> {
        let sweep = self.registry.find(name).ok_or_else(|| format!("unknown sweep `{name}`"))?;
        let report = run_sweep_obs(
            &sweep.name,
            &sweep.expand(),
            self.exec_opts(threads),
            &self.service,
            Some(&self.memo),
            Some(&self.obs),
        );
        Ok(report.to_json())
    }

    fn analyze(&self, program: &str) -> Result<String, String> {
        let (label, program) = self.resolve_ref(program)?;
        analyze_built(&label, &program).map(|report| report.to_json())
    }

    fn upload(&self, source: &ProgramSource) -> Result<String, String> {
        let program = match source {
            ProgramSource::Asm(text) => dbt_riscv::parse_asm(text).map_err(|e| e.to_string())?,
            ProgramSource::Image(text) => Program::from_image(text).map_err(|e| e.to_string())?,
        };
        let (fingerprint, dedup) = self.store.upload(program);
        Ok(format!(
            "{{\"fingerprint\": \"fp:{fingerprint:016x}\", \"dedup\": {dedup}, \
             \"programs\": {}}}",
            self.store.stats().programs
        ))
    }

    fn run_program(&self, program: &str, policy: &str, knobs: &RunKnobs) -> Result<String, String> {
        let policy = parse_policy(policy)?;
        let (label, program) = self.resolve_ref(program)?;
        let secret = knobs.secret.as_ref().map(|secret| secret.as_bytes().to_vec());
        let scenario = adhoc_scenario(&label, program, policy, knob_overrides(knobs), secret);
        let name = scenario.name.clone();
        let report = run_sweep_obs(
            &name,
            std::slice::from_ref(&scenario),
            ExecOptions { threads: 1, verbose: false },
            &self.service,
            Some(&self.memo),
            Some(&self.obs),
        );
        Ok(report.to_json())
    }

    fn profile(&self, program: &str, policy: &str) -> Result<String, String> {
        let policy = parse_policy(policy)?;
        let (label, program) = self.resolve_ref(program)?;
        // Profiles run on a fresh session *without* the daemon's shared
        // translation service: the report embeds translation counters, and
        // a shared memo would make them depend on daemon warmth — the
        // profile of a program must be byte-identical however often anyone
        // asked before.
        let output = profile_built(&label, &program, policy)?;
        Ok(output.report.to_json())
    }

    fn stats_json(&self) -> String {
        let memo = self.memo.stats();
        let service = self.service.stats();
        format!(
            "{{\"run_memo\": {}, \"translation\": {{\"hits\": {}, \"misses\": {}, \
             \"programs\": {}, \"evictions\": {}}}, \"store\": {}, \"persist\": {}}}",
            memo.to_json(),
            service.hits,
            service.misses,
            service.programs,
            service.evictions,
            self.store.stats().to_json(),
            self.persist_stats_json()
        )
    }

    fn metrics_text(&self) -> String {
        // Mirror the same snapshots `stats_json` reads into the registry at
        // scrape time, so the counters in the two views agree exactly for
        // any daemon state. The global registry rides along for families
        // that cannot reach a per-daemon registry (free-standing spans and
        // the feature-gated cache sampling counters); its family names are
        // disjoint from the daemon's, so the concatenation stays a valid
        // exposition.
        self.memo.stats().export(&self.obs);
        self.service.stats().export(&self.obs);
        self.store.stats().export(&self.obs);
        // The durable tier is std-only and cannot reach dbt-obs itself, so
        // the daemon mirrors its snapshot. Only when enabled: a daemon
        // without a cache dir scrapes byte-identically to one built before
        // the tier existed.
        if let Some(tier) = &self.persist {
            export_persist(&tier.stats(), &self.obs);
        }
        format!("{}{}", self.obs.render(), MetricsRegistry::global().render())
    }

    fn event_log(&self) -> Option<Arc<EventLog>> {
        self.events.clone()
    }
}

/// Mirrors a [`PersistStats`] snapshot into `registry` as the
/// `dbt_persist_*` families (the durable-cache analogue of the in-memory
/// layers' `export` methods, kept here because `dbt-persist` is
/// dependency-free).
pub fn export_persist(stats: &PersistStats, registry: &MetricsRegistry) {
    registry
        .counter("dbt_persist_hits_total", "Durable-cache entries read back and validated.")
        .set(stats.hits);
    registry
        .counter("dbt_persist_misses_total", "Durable-cache reads that found no valid entry.")
        .set(stats.misses);
    registry
        .counter("dbt_persist_writes_total", "Durable-cache entries published.")
        .set(stats.writes);
    registry
        .counter(
            "dbt_persist_corrupt_quarantined_total",
            "Durable-cache entries rejected by validation and quarantined.",
        )
        .set(stats.corrupt_quarantined);
    registry
        .counter(
            "dbt_persist_gc_evictions_total",
            "Durable-cache entries deleted by byte-budget GC.",
        )
        .set(stats.gc_evictions);
    registry
        .gauge("dbt_persist_entries", "Durable-cache entries currently on disk.")
        .set(stats.entries as i64);
    registry
        .gauge("dbt_persist_disk_bytes", "Bytes of durable-cache entries on disk.")
        .set(stats.disk_bytes as i64);
    registry
        .gauge("dbt_persist_quarantined", "Files currently quarantined under corrupt/.")
        .set(stats.quarantined as i64);
}

/// The one-scenario job an ad-hoc `run` request expands to: the resolved
/// program under `policy`, on the default platform when `overrides` is
/// empty (a `custom` platform variant otherwise). Without a secret the
/// run is measured as a perf row (cycles and slowdown against the
/// unprotected baseline); planting a `secret` turns it into an attack row
/// (recovery rate against the planted bytes). The scenario name follows
/// the registry convention with the reserved `adhoc` sweep prefix.
pub fn adhoc_scenario(
    label: &str,
    program: Arc<Program>,
    policy: MitigationPolicy,
    overrides: PlatformOverrides,
    secret: Option<Vec<u8>>,
) -> Scenario {
    let platform = if overrides == PlatformOverrides::default() {
        PlatformVariant::default_platform()
    } else {
        PlatformVariant::new("custom", overrides)
    };
    let kind = if secret.is_some() { ScenarioKind::Attack } else { ScenarioKind::Perf };
    Scenario {
        name: format!("adhoc/{label}/{}/{}", policy.label(), platform.name),
        program_label: label.to_string(),
        program: ProgramSpec::Stored { label: label.to_string(), program, secret },
        policy,
        platform,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze_program;
    use crate::exec::run_sweep;

    #[test]
    fn cold_daemon_sweep_is_byte_identical_to_a_fresh_lab_sweep() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let cold = daemon.sweep("ptr-matmul", 0).unwrap();
        let registry = Registry::standard(WorkloadSize::Mini);
        let sweep = registry.find("ptr-matmul").unwrap();
        let fresh =
            run_sweep(&sweep.name, &sweep.expand(), ExecOptions { threads: 1, verbose: false });
        assert_eq!(cold, fresh.to_json(), "a cold daemon matches the CLI to the byte");
    }

    #[test]
    fn warm_daemon_sweeps_keep_cycle_data_identical() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let cold = daemon.sweep("ptr-matmul", 0).unwrap();
        let warm = daemon.sweep("ptr-matmul", 0).unwrap();
        assert_eq!(strip_stats(&cold), strip_stats(&warm));
        assert_ne!(cold, warm, "the stats block records the cache warmth");
        assert!(warm.contains("\"simulations\": 0"), "warm sweeps never simulate: {warm}");
        assert!(
            warm.contains("\"baseline_simulations\": 0"),
            "memo hits must not count as baseline simulations either: {warm}"
        );
        let memo = daemon.memo().stats();
        assert!(memo.hits > 0, "{memo:?}");
    }

    #[test]
    fn run_requests_share_the_memo_with_sweeps() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let first = daemon.run_scenario("ptr-matmul/gemm (flat)/fence/default").unwrap();
        let again = daemon.run_scenario("ptr-matmul/gemm (flat)/fence/default").unwrap();
        assert_eq!(strip_stats(&first), strip_stats(&again));
        let stats = daemon.memo().stats();
        assert_eq!(stats.misses, 2, "baseline + fence run, simulated once each");
        assert_eq!(stats.hits, 2, "the repeat answered both from the memo");
        // The sweep containing that scenario now partially hits too.
        let sweep = daemon.sweep("ptr-matmul", 0).unwrap();
        assert!(!sweep.is_empty());
        assert!(daemon.memo().stats().hits > stats.hits);
    }

    #[test]
    fn unknown_names_are_reported_not_panicked() {
        let daemon = LabDaemon::new(WorkloadSize::Mini);
        assert!(daemon.run_scenario("no/such/scenario").is_err());
        assert!(daemon.sweep("no-such-sweep", 0).is_err());
        assert!(daemon.analyze("no-such-program").is_err());
        assert!(daemon.analyze("fp:0000000000000000").is_err());
        assert!(daemon.run_program("gemm", "no-such-policy", &RunKnobs::default()).is_err());
        assert!(daemon.run_program("scheme:odd", "selective", &RunKnobs::default()).is_err());
        assert!(daemon.profile("no-such-program", "selective").is_err());
        assert!(daemon.profile("gemm", "no-such-policy").is_err());
    }

    #[test]
    fn stats_json_is_a_single_stable_line() {
        let daemon = LabDaemon::new(WorkloadSize::Mini);
        let stats = daemon.stats_json();
        assert!(!stats.contains('\n'));
        assert!(stats.contains(
            "\"run_memo\": {\"hits\": 0, \"misses\": 0, \"entries\": 0, \"evictions\": 0}"
        ));
        assert!(stats.contains("\"translation\""));
        assert!(stats.contains("\"store\": {\"programs\": 0"), "{stats}");
        assert!(
            stats.ends_with("\"persist\": {\"enabled\": false}}"),
            "without a cache dir the persist member is the bare flag: {stats}"
        );
    }

    #[test]
    fn uploads_intern_and_deduplicate_by_content() {
        let daemon = LabDaemon::new(WorkloadSize::Mini);
        let source = ProgramSource::Asm("li a0, 1\necall\n".to_string());
        let first = daemon.upload(&source).unwrap();
        assert!(first.contains("\"dedup\": false"), "{first}");
        assert!(first.contains("\"fingerprint\": \"fp:"), "{first}");
        let second = daemon.upload(&source).unwrap();
        assert!(second.contains("\"dedup\": true"), "{second}");
        assert_eq!(daemon.store().stats().programs, 1, "one entry for identical content");
        assert!(daemon.upload(&ProgramSource::Asm("frobnicate".to_string())).is_err());
        assert!(daemon.upload(&ProgramSource::Image("{}".to_string())).is_err());
    }

    #[test]
    fn uploaded_programs_run_and_analyze_by_fingerprint() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let source = "\
            .word table, 5, 6\n\
            la t0, table\n\
            ld a0, 0(t0)\n\
            ld a1, 8(t0)\n\
            mul a2, a0, a1\n\
            ecall\n";
        let body = daemon.upload(&ProgramSource::Asm(source.to_string())).unwrap();
        let fp = body
            .split("\"fp:")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("fingerprint in upload body");
        let fp = format!("fp:{fp}");

        let report = daemon.run_program(&fp, "selective", &RunKnobs::default()).unwrap();
        assert!(report.contains(&format!("\"scenario\": \"adhoc/{fp}/selective/default\"")));
        assert!(report.contains("\"status\": \"ok\""), "{report}");
        let again = daemon.run_program(&fp, "selective", &RunKnobs::default()).unwrap();
        assert_eq!(strip_stats(&report), strip_stats(&again));
        assert!(daemon.memo().stats().hits > 0, "the repeat must hit the run memo");

        let verdicts = daemon.analyze(&fp).unwrap();
        assert!(verdicts.contains(&format!("\"program\": \"{fp}\"")), "{verdicts}");
    }

    #[test]
    fn run_knobs_reshape_the_platform_and_name_it_custom() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let stock = daemon.run_program("gemm", "selective", &RunKnobs::default()).unwrap();
        assert!(stock.contains("\"scenario\": \"adhoc/gemm/selective/default\""), "{stock}");
        let narrow = RunKnobs { issue_width: Some(2), ..RunKnobs::default() };
        let narrowed = daemon.run_program("gemm", "selective", &narrow).unwrap();
        assert!(
            narrowed.contains("\"scenario\": \"adhoc/gemm/selective/custom\""),
            "non-default knobs must not masquerade as the default platform: {narrowed}"
        );
        assert_ne!(
            strip_stats(&stock),
            strip_stats(&narrowed),
            "halving the issue width must change the cycle data"
        );
        // The knobbed run is memoized under its own platform config: the
        // repeat hits, and equals the first to the byte outside `stats`.
        let hits = daemon.memo().stats().hits;
        let repeat = daemon.run_program("gemm", "selective", &narrow).unwrap();
        assert_eq!(strip_stats(&narrowed), strip_stats(&repeat));
        assert!(daemon.memo().stats().hits > hits);
    }

    #[test]
    fn secret_knobs_turn_adhoc_runs_into_attack_measurements() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let knobs = RunKnobs { secret: Some("GB".to_string()), ..RunKnobs::default() };
        let attack = daemon.run_program("spectre-v1", "unsafe", &knobs).unwrap();
        assert!(attack.contains("\"kind\": \"attack\""), "{attack}");
        assert!(attack.contains("\"secret_bytes\": 2,"), "{attack}");
        assert!(
            attack.contains("\"recovery_rate\": 1.000000"),
            "v1 leaks the planted secret unprotected: {attack}"
        );
        assert!(attack.contains("\"recovered\": \"GB\""), "{attack}");
        // The same request under the protective policy recovers nothing.
        let protected = daemon.run_program("spectre-v1", "our-approach", &knobs).unwrap();
        assert!(protected.contains("\"recovery_rate\": 0.000000"), "{protected}");
        // A program without a `secret` symbol reports the plant failure.
        let report = daemon.run_program("gemm", "unsafe", &knobs).unwrap();
        assert!(report.contains("no `secret` symbol"), "{report}");
    }

    #[test]
    fn daemon_profiles_are_byte_stable_whatever_the_cache_warmth() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let cold = daemon.profile("spectre-v1", "selective").unwrap();
        // Warm every daemon cache with unrelated work, then ask again: the
        // profile must be byte-identical (fresh un-shared sessions).
        daemon.run_program("spectre-v1", "selective", &RunKnobs::default()).unwrap();
        let warm = daemon.profile("spectre-v1", "selective").unwrap();
        assert_eq!(cold, warm, "profiles must not depend on daemon warmth");
        assert!(cold.contains("\"program\": \"spectre-v1\""), "{cold}");
        assert!(cold.contains("\"phases\""), "{cold}");
    }

    #[test]
    fn registry_refs_and_bare_names_analyze_identically() {
        let daemon = LabDaemon::new(WorkloadSize::Mini);
        let bare = daemon.analyze("histogram").unwrap();
        let cli = analyze_program("histogram", WorkloadSize::Mini).unwrap().to_json();
        assert_eq!(bare, cli, "daemon bare names keep the v1 byte-identity contract");
        let explicit = daemon.analyze("registry:histogram").unwrap();
        assert_eq!(explicit, cli, "the explicit scheme names the same program");
        assert_eq!(daemon.store().stats().seeded, 1, "one lazy seed for both forms");
    }

    /// Extracts the value of the sample line starting with `prefix ` from
    /// a Prometheus exposition (pass `name{labels}` for labelled samples).
    fn sample(text: &str, prefix: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(&format!("{prefix} ")))
            .unwrap_or_else(|| panic!("no `{prefix}` sample in:\n{text}"))
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("`{prefix}` is not an integer sample"))
    }

    #[test]
    fn metrics_scrape_agrees_with_stats_json_exactly() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        // A scripted sequence exercising every counter family: a cold and
        // a warm sweep (memo misses then hits), a duplicated upload (dedup
        // hit), and a bare-name analysis (lazy store seed).
        daemon.sweep("ptr-matmul", 0).unwrap();
        daemon.sweep("ptr-matmul", 0).unwrap();
        let source = ProgramSource::Asm("li a0, 1\necall\n".to_string());
        daemon.upload(&source).unwrap();
        daemon.upload(&source).unwrap();
        daemon.analyze("histogram").unwrap();

        let stats = dbt_serve::JsonValue::parse(&daemon.stats_json()).unwrap();
        let metrics = daemon.metrics_text();
        let stat = |path: [&str; 2]| {
            let mut value = &stats;
            for key in path {
                value = value.get(key).unwrap_or_else(|| panic!("stats lacks {path:?}"));
            }
            value.as_u64().unwrap_or_else(|| panic!("{path:?} is not a u64"))
        };
        for (name, path) in [
            ("dbt_runmemo_hits_total", ["run_memo", "hits"]),
            ("dbt_runmemo_misses_total", ["run_memo", "misses"]),
            ("dbt_runmemo_entries", ["run_memo", "entries"]),
            ("dbt_runmemo_evictions_total", ["run_memo", "evictions"]),
            ("dbt_translate_hits_total", ["translation", "hits"]),
            ("dbt_translate_misses_total", ["translation", "misses"]),
            ("dbt_translate_programs", ["translation", "programs"]),
            ("dbt_translate_evictions_total", ["translation", "evictions"]),
            ("dbt_store_programs", ["store", "programs"]),
            ("dbt_store_uploads_total", ["store", "uploads"]),
            ("dbt_store_dedup_hits_total", ["store", "dedup_hits"]),
            ("dbt_store_seeded_total", ["store", "seeded"]),
            ("dbt_store_evictions_total", ["store", "evictions"]),
        ] {
            assert_eq!(sample(&metrics, name), stat(path), "`{name}` diverges from stats");
        }
        // The scripted sequence left every layer demonstrably nonzero.
        assert!(sample(&metrics, "dbt_runmemo_hits_total") > 0);
        assert!(sample(&metrics, "dbt_store_dedup_hits_total") > 0);
        assert!(sample(&metrics, "dbt_store_seeded_total") > 0);

        // Phase timings: the executor's simulate span and the translation
        // service's analysis/codegen spans all saw the sweep's work.
        assert!(sample(&metrics, "dbt_lab_phase_seconds_count{phase=\"simulate\"}") > 0);
        assert!(sample(&metrics, "dbt_translate_phase_seconds_count{phase=\"analysis\"}") > 0);
        assert!(sample(&metrics, "dbt_translate_phase_seconds_count{phase=\"codegen\"}") > 0);
    }

    #[test]
    fn metrics_text_is_stable_between_scrapes() {
        let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        daemon.run_scenario("ptr-matmul/gemm (flat)/fence/default").unwrap();
        // Scraping is read-only: two back-to-back scrapes of an idle daemon
        // render byte-identical expositions.
        assert_eq!(daemon.metrics_text(), daemon.metrics_text());
    }

    fn fresh_cache_dir(tag: &str) -> String {
        let root =
            std::env::temp_dir().join(format!("dbt-lab-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root.display().to_string()
    }

    #[test]
    fn restarted_daemon_with_warm_cache_dir_never_simulates() {
        let dir = fresh_cache_dir("restart");
        let scenario = "ptr-matmul/gemm (flat)/fence/default";
        let cold_daemon = LabDaemon::with_cache_dir(WorkloadSize::Mini, 1, Some(&dir)).unwrap();
        let cold = cold_daemon.run_scenario(scenario).unwrap();
        assert!(cold_daemon.persist().unwrap().stats().writes > 0, "runs published behind");
        drop(cold_daemon);

        // A fresh process-equivalent daemon over the same directory: the
        // answer is byte-identical outside `stats`, nothing simulates, and
        // the memo counters equal the cold daemon's — disk hits still
        // count as memo misses, so warmth never skews the hit rate.
        let warm_daemon = LabDaemon::with_cache_dir(WorkloadSize::Mini, 1, Some(&dir)).unwrap();
        let warm = warm_daemon.run_scenario(scenario).unwrap();
        assert_eq!(strip_stats(&cold), strip_stats(&warm));
        assert!(warm.contains("\"simulations\": 0"), "warm restarts never simulate: {warm}");
        assert!(warm.contains("\"baseline_simulations\": 0"), "{warm}");
        let persist = warm_daemon.persist().unwrap().stats();
        assert_eq!(persist.misses, 0, "everything answered from disk: {persist:?}");
        assert!(persist.hits > 0, "{persist:?}");
        let stats = warm_daemon.stats_json();
        assert!(stats.contains("\"persist\": {\"enabled\": true, \"hits\": "), "{stats}");
        let log = warm_daemon.event_log().expect("persist daemons own an event log");
        assert!(
            log.json(LogLevel::Info).contains("durable cache attached"),
            "{}",
            log.json(LogLevel::Info)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_dir_daemon_matches_a_memoryonly_daemon_to_the_byte() {
        let dir = fresh_cache_dir("identity");
        let scenario = "ptr-matmul/gemm (flat)/fence/default";
        let plain = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        let durable = LabDaemon::with_cache_dir(WorkloadSize::Mini, 1, Some(&dir)).unwrap();
        assert_eq!(
            plain.run_scenario(scenario).unwrap(),
            durable.run_scenario(scenario).unwrap(),
            "the tier must not perturb answers, including the stats block"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_metrics_agree_with_the_stats_member() {
        let dir = fresh_cache_dir("metrics");
        let daemon = LabDaemon::with_cache_dir(WorkloadSize::Mini, 1, Some(&dir)).unwrap();
        daemon.run_scenario("ptr-matmul/gemm (flat)/fence/default").unwrap();
        let stats = dbt_serve::JsonValue::parse(&daemon.stats_json()).unwrap();
        let metrics = daemon.metrics_text();
        for (name, member) in [
            ("dbt_persist_hits_total", "hits"),
            ("dbt_persist_misses_total", "misses"),
            ("dbt_persist_writes_total", "writes"),
            ("dbt_persist_corrupt_quarantined_total", "corrupt_quarantined"),
            ("dbt_persist_gc_evictions_total", "gc_evictions"),
            ("dbt_persist_entries", "entries"),
            ("dbt_persist_disk_bytes", "disk_bytes"),
            ("dbt_persist_quarantined", "quarantined"),
        ] {
            let expected = stats
                .get("persist")
                .and_then(|p| p.get(member))
                .and_then(|v| v.as_u64())
                .unwrap_or_else(|| panic!("stats lacks persist.{member}"));
            assert_eq!(sample(&metrics, name), expected, "`{name}` diverges from stats");
        }
        assert!(sample(&metrics, "dbt_persist_writes_total") > 0);
        // A daemon without the tier exports no persist families at all.
        let plain = LabDaemon::with_threads(WorkloadSize::Mini, 1);
        assert!(!plain.metrics_text().contains("dbt_persist_"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn strip_stats_cuts_exactly_at_the_stats_block() {
        let report = "{\n  \"jobs\": [\n  ],\n  \"stats\": {\n    \"jobs\": 1\n  }\n}\n";
        assert_eq!(strip_stats(report), "{\n  \"jobs\": [\n  ],\n");
        assert_eq!(strip_stats("no stats here"), "no stats here");
    }
}
