//! The parallel sweep executor.
//!
//! Jobs are pulled from a shared queue by the calling thread and, for a
//! sweep run on `n` threads, `n - 1` `std::thread::scope` workers; results
//! land in the slot of their job index, so the report order is the
//! expansion order regardless of which worker finished first. Each
//! simulation runs on a scoped thread of its own, so a one-job request
//! answered from the run memo spawns no thread at all.
//!
//! Every run of a sweep goes through two content-addressed caches:
//!
//! * **runs** — a [`RunMemo`] (the caller's, or a fresh one per sweep)
//!   answers each `(program fingerprint, platform config)` exactly once,
//!   so a workload's unprotected baseline is simulated once however many
//!   perf jobs compare against it;
//! * **translations** — every session of the sweep shares one
//!   [`TranslationService`], so each distinct translation (per path,
//!   speculation options, policy and issue width, whichever program the
//!   path belongs to) is compiled exactly once per sweep regardless of how
//!   many jobs and threads demand it. The service's hit/miss counters land in [`ExecStats`] (and hence
//!   in the sweep JSON), so the reuse is visible in the artifacts.

use crate::scenario::{Scenario, ScenarioKind};
use dbt_obs::{Histogram, MetricsRegistry, Span, TraceHandle, DEFAULT_LATENCY_BOUNDS_MICROS};
use dbt_platform::{CachedRun, RunKey, RunMemo, Session, TranslationService};
use ghostbusters::MitigationPolicy;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Metric family of the executor's wall-clock phase timings, labelled by
/// `phase` (currently just `simulate`; the translation phases live under
/// `dbt_translate_phase_seconds` in `dbt-engine`). Wall-clock only — no
/// cycle count or any other deterministic observable depends on it.
pub const LAB_PHASE_FAMILY: &str = "dbt_lab_phase_seconds";

/// Executor knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Number of worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Print one line per finished job to stderr.
    pub verbose: bool,
}

impl ExecOptions {
    /// Resolves `threads == 0` to the machine's parallelism, capped by the
    /// number of jobs (never below 1). Auto mode uses at least two workers
    /// when there is more than one job, so the parallel path (work queue,
    /// run-memo contention) is exercised even on single-CPU machines;
    /// output is deterministic either way.
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let auto = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .max(2);
        let t = if self.threads == 0 { auto } else { self.threads };
        t.min(jobs).max(1)
    }
}

/// Measurements of a [`ScenarioKind::Perf`] job.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMetrics {
    /// Cycles under the scenario's policy.
    pub cycles: u64,
    /// Cycles of the unprotected baseline on the same program and platform.
    pub baseline_cycles: u64,
    /// MCB rollbacks under the scenario's policy.
    pub rollbacks: u64,
    /// Guest instructions retired.
    pub guest_insts: u64,
    /// Spectre patterns detected by the analysis.
    pub patterns: usize,
}

impl PerfMetrics {
    /// Relative execution time (1.0 = baseline speed).
    pub fn slowdown(&self) -> f64 {
        self.cycles as f64 / self.baseline_cycles.max(1) as f64
    }
}

/// Measurements of a [`ScenarioKind::Attack`] job.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackMetrics {
    /// The planted secret.
    pub secret: Vec<u8>,
    /// What the attacker read back through the side channel.
    pub recovered: Vec<u8>,
    /// Total cycles of the run.
    pub cycles: u64,
    /// MCB rollbacks.
    pub rollbacks: u64,
    /// Spectre patterns detected by the analysis.
    pub patterns: usize,
}

impl AttackMetrics {
    /// Number of secret bytes recovered correctly.
    pub fn correct_bytes(&self) -> usize {
        self.secret.iter().zip(&self.recovered).filter(|(a, b)| a == b).count()
    }

    /// Fraction of the secret recovered, in `[0, 1]`.
    pub fn recovery_rate(&self) -> f64 {
        if self.secret.is_empty() {
            0.0
        } else {
            self.correct_bytes() as f64 / self.secret.len() as f64
        }
    }
}

/// What one job produced.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Performance measurements.
    Perf(PerfMetrics),
    /// Attack measurements.
    Attack(AttackMetrics),
    /// The job failed (build error, platform fault, budget exhaustion).
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// One finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// What it produced.
    pub outcome: JobOutcome,
}

/// Executor counters (all deterministic for a given job list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Number of jobs run.
    pub jobs: usize,
    /// Simulations that ran (run-memo misses), baselines included.
    pub simulations: usize,
    /// Unprotected baseline simulations (one per distinct
    /// `(program, platform)` pair among the perf jobs that the run memo
    /// did not already hold).
    pub baseline_simulations: usize,
    /// Translation events of this sweep's sessions answered from the
    /// shared [`TranslationService`] memo.
    pub translation_hits: u64,
    /// Translation events that compiled — one per distinct translated
    /// block, however many jobs and threads demanded it.
    pub translation_misses: u64,
}

/// The ordered results of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LabReport {
    /// Name of the sweep that was run.
    pub sweep: String,
    /// One result per job, in expansion order (independent of completion
    /// order and worker count).
    pub results: Vec<JobResult>,
    /// Executor counters.
    pub stats: ExecStats,
}

/// Shared state of one sweep: the translation service every session of the
/// sweep attaches to, the [`RunMemo`] every run is asked through (the
/// daemon's content-addressed run cache, or a fresh one), and the
/// simulation counters.
///
/// Both caches are exactly-once under concurrency: late askers block on
/// the winner's `OnceLock`, so the counters are deterministic for a given
/// job list regardless of worker count.
struct SweepContext {
    service: Arc<TranslationService>,
    memo: Arc<RunMemo>,
    baseline_sims: AtomicUsize,
    sims: AtomicUsize,
    translation_hits: AtomicU64,
    translation_misses: AtomicU64,
    /// Wall-clock span histogram for the simulate phase, resolved from the
    /// caller's registry (`None` outside the daemon). Timing never touches
    /// the report — only the operator-facing metrics exposition.
    simulate_seconds: Option<Arc<Histogram>>,
}

impl SweepContext {
    fn new(
        service: Arc<TranslationService>,
        memo: Arc<RunMemo>,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> SweepContext {
        SweepContext {
            service,
            memo,
            baseline_sims: AtomicUsize::new(0),
            sims: AtomicUsize::new(0),
            translation_hits: AtomicU64::new(0),
            translation_misses: AtomicU64::new(0),
            simulate_seconds: metrics.map(|registry| {
                registry.histogram_with(
                    LAB_PHASE_FAMILY,
                    "Wall-clock executor phase timings.",
                    DEFAULT_LATENCY_BOUNDS_MICROS,
                    &[("phase", "simulate")],
                )
            }),
        }
    }

    /// Runs `program` under `config` through a [`Session`] attached to the
    /// sweep's shared translation service.
    ///
    /// The whole run is looked up in the [`RunMemo`] under its content
    /// address first — a run already answered (an earlier job's baseline,
    /// a repeated scenario) is served without building a session at all
    /// (so memo hits contribute neither simulations nor translation
    /// queries to the sweep's counters). `secret_len` asks for the guest's `recovered`
    /// symbol to be read back after the run, so attack observables are
    /// part of the cached value whatever kind of job populated the entry.
    ///
    /// `is_baseline` tags the simulation for the `baseline_simulations`
    /// counter; it is counted inside the closure so that, like `sims`, it
    /// records simulations that actually ran (never memo hits).
    fn simulate(
        &self,
        program: &dbt_riscv::Program,
        config: dbt_platform::PlatformConfig,
        secret_len: Option<usize>,
        is_baseline: bool,
    ) -> Result<CachedRun, String> {
        let run = || {
            // The span times only simulations that actually run: memo hits
            // never enter this closure, so the histogram's count stays in
            // lockstep with the `simulations` counter. It records the same
            // interval into the request's trace when one is being recorded.
            let _span = Span::enter("simulate", self.simulate_seconds.as_ref());
            self.sims.fetch_add(1, Ordering::SeqCst);
            if is_baseline {
                self.baseline_sims.fetch_add(1, Ordering::SeqCst);
            }
            let mut session = Session::builder()
                .program(program)
                .config(config)
                .service(&self.service)
                .build()
                .map_err(|e| e.to_string())?;
            let summary = session.run().map_err(|e| e.to_string())?;
            // The report counts only the queries this sweep's sessions issued
            // (each engine's own counters), so other users of a shared
            // service never inflate them.
            let stats = session.engine().stats();
            self.translation_hits.fetch_add(stats.service_hits, Ordering::SeqCst);
            self.translation_misses.fetch_add(stats.service_misses, Ordering::SeqCst);
            let recovered = match secret_len {
                Some(len) => {
                    Some(session.load_symbol_bytes("recovered", len).map_err(|e| e.to_string())?)
                }
                None => None,
            };
            Ok(CachedRun {
                summary,
                patterns: session.engine().mitigation_summary().patterns,
                recovered,
            })
        };
        self.memo.get_or_run(RunKey::new(program, &config), || on_own_thread(run))
    }
}

/// Runs `f` on a scoped thread of its own, in the caller's trace context,
/// and returns its result (re-raising its panic).
///
/// [`SweepContext::simulate`] runs every simulation, the executor's only
/// heavy work, through here; memo hits never reach it. Linux starts a new
/// thread on the idlest CPU, while a waking thread mostly stays near where
/// it or its waker last ran. Simulating on the daemon worker that took a
/// one-job request left a CPU of a 2-core host idle a quarter of the time
/// under `serve-miss` traffic (an eighth with a thread per simulation)
/// and cost a tenth of its throughput.
fn on_own_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let trace = TraceHandle::current();
    std::thread::scope(|scope| {
        let simulation = scope.spawn(|| {
            let _trace_scope = trace.as_ref().map(TraceHandle::enter);
            f()
        });
        simulation.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn run_job(scenario: &Scenario, ctx: &SweepContext) -> JobOutcome {
    let program = match scenario.program.build() {
        Ok(p) => p,
        Err(e) => return JobOutcome::Failed { error: e },
    };
    let config = scenario.platform.overrides.apply(scenario.policy);
    // Attack programs carry their recovered bytes through every run —
    // including perf runs — so a memo entry populated by either job kind
    // serves both.
    let secret_len = scenario.program.secret().map(<[u8]>::len);
    match scenario.kind {
        ScenarioKind::Perf => {
            let unprotected = scenario.platform.overrides.apply(MitigationPolicy::Unprotected);
            let baseline = match ctx.simulate(&program, unprotected, secret_len, true) {
                Ok(b) => b,
                Err(e) => return JobOutcome::Failed { error: format!("baseline: {e}") },
            };
            let run = if scenario.policy == MitigationPolicy::Unprotected {
                baseline.clone()
            } else {
                match ctx.simulate(&program, config, secret_len, false) {
                    Ok(r) => r,
                    Err(e) => return JobOutcome::Failed { error: e },
                }
            };
            JobOutcome::Perf(PerfMetrics {
                cycles: run.summary.cycles,
                baseline_cycles: baseline.summary.cycles,
                rollbacks: run.summary.rollbacks,
                guest_insts: run.summary.guest_insts,
                patterns: run.patterns,
            })
        }
        ScenarioKind::Attack => {
            let Some(secret) = scenario.program.secret().map(<[u8]>::to_vec) else {
                return JobOutcome::Failed {
                    error: format!("`{}` is not an attack program", scenario.program_label),
                };
            };
            match ctx.simulate(&program, config, Some(secret.len()), false) {
                Ok(run) => JobOutcome::Attack(AttackMetrics {
                    secret,
                    recovered: run.recovered.unwrap_or_default(),
                    cycles: run.summary.cycles,
                    rollbacks: run.summary.rollbacks,
                    patterns: run.patterns,
                }),
                Err(error) => JobOutcome::Failed { error },
            }
        }
    }
}

/// Runs `scenarios` on a worker pool and returns the report in expansion
/// order, with a fresh per-sweep [`TranslationService`] and [`RunMemo`].
///
/// Output is deterministic: the same scenario list produces the same report
/// (and therefore byte-identical JSON) for any worker count — including
/// the translation hit/miss counters, since every translation resolves
/// exactly once sweep-wide.
pub fn run_sweep(sweep: &str, scenarios: &[Scenario], opts: ExecOptions) -> LabReport {
    run_sweep_obs(sweep, scenarios, opts, &TranslationService::new(), None, None)
}

/// [`run_sweep`] against a caller-provided [`TranslationService`], so
/// several sweeps (or repeated invocations) can share one memo, plus an
/// optional content-addressed [`RunMemo`] and an optional
/// [`MetricsRegistry`].
///
/// The report's translation counters cover exactly the queries issued by
/// *this sweep's sessions* (summed from each engine's own counters, never
/// read off the shared service's globals — another concurrent user of the
/// service cannot inflate them). Against a pre-warmed service they shift
/// towards hits, while cycle counts and recovery rates stay identical —
/// memoized translations are pure functions of the same inputs a fresh
/// compile would see.
///
/// Every simulation is looked up under its `(program fingerprint, config
/// fingerprint)` address first, in `memo` or, without one, in a fresh
/// memo for this sweep alone. With the caller's memo, a scenario that an
/// earlier sweep (or an earlier daemon request) already ran is answered
/// without simulating — or even translating — anything. Memo hits change
/// only the *counters* of the report (`simulations` and the translation
/// hit/miss pair shrink, since no session runs); the cycle data, recovery
/// rates and every other observable are byte-identical to a fresh-memo
/// run, because the platform is a deterministic simulator and the memo
/// key covers every input it reads. This is the executor the `dbt-serve`
/// daemon drives.
///
/// With a registry attached, every simulation that actually runs (never a
/// memo hit) is timed into a `dbt_lab_phase_seconds{phase="simulate"}`
/// histogram. The timing is observation only — reports stay
/// byte-identical with or without it.
pub fn run_sweep_obs(
    sweep: &str,
    scenarios: &[Scenario],
    opts: ExecOptions,
    service: &Arc<TranslationService>,
    memo: Option<&Arc<RunMemo>>,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> LabReport {
    let jobs = scenarios.len();
    let threads = opts.effective_threads(jobs);
    let memo = memo.map_or_else(RunMemo::new, Arc::clone);
    let ctx = SweepContext::new(Arc::clone(service), memo, metrics);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<JobResult>> = Vec::new();
    slots.resize_with(jobs, || None);
    let slots = Mutex::new(slots);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        if i >= jobs {
            break;
        }
        let scenario = &scenarios[i];
        let outcome = run_job(scenario, &ctx);
        if opts.verbose {
            eprintln!("[lab] {} done", scenario.name);
        }
        slots.lock().expect("result slots poisoned")[i] =
            Some(JobResult { scenario: scenario.clone(), outcome });
    };
    // The calling thread is the first worker, so a one-job sweep spawns no
    // worker. It is already in its ambient trace context (the daemon
    // worker's, when this sweep serves a traced request); each spawned
    // worker re-enters that context so the `simulate`/`translate.*` stage
    // spans keep landing in the same trace.
    let trace = TraceHandle::current();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| {
                let _trace_scope = trace.as_ref().map(TraceHandle::enter);
                work();
            });
        }
        work();
    });

    let results: Vec<JobResult> = slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every job slot must be filled"))
        .collect();
    LabReport {
        sweep: sweep.to_string(),
        results,
        stats: ExecStats {
            jobs,
            simulations: ctx.sims.load(Ordering::SeqCst),
            baseline_simulations: ctx.baseline_sims.load(Ordering::SeqCst),
            translation_hits: ctx.translation_hits.load(Ordering::SeqCst),
            translation_misses: ctx.translation_misses.load(Ordering::SeqCst),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Sweep;
    use crate::scenario::{PlatformOverrides, PlatformVariant, ProgramSpec};
    use dbt_workloads::WorkloadSize;

    fn tiny_sweep() -> Sweep {
        Sweep::new("tiny", "two kernels under every policy", ScenarioKind::Perf)
            .program("gemm", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini })
            .program("atax", ProgramSpec::Workload { name: "atax", size: WorkloadSize::Mini })
    }

    #[test]
    fn baseline_is_simulated_once_per_program() {
        let scenarios = tiny_sweep().expand();
        let report = run_sweep("tiny", &scenarios, ExecOptions { threads: 4, verbose: false });
        assert_eq!(report.stats.jobs, 10);
        // 2 programs ⇒ 2 baselines; the 2×4 protected runs add one
        // simulation each; the 2 unprotected jobs reuse the cached baseline.
        assert_eq!(report.stats.baseline_simulations, 2);
        assert_eq!(report.stats.simulations, 10);
        // The shared translation service pays off even across policies:
        // first-pass translations (and superblock analyses under equal
        // speculation options) are policy-independent, so later runs of the
        // same program hit the memo.
        assert!(report.stats.translation_hits > 0, "{:?}", report.stats);
        assert!(report.stats.translation_misses > 0, "{:?}", report.stats);
    }

    #[test]
    fn a_baseline_is_shared_across_policies_but_not_platforms() {
        let narrow = PlatformVariant::new(
            "issue-2",
            PlatformOverrides { issue_width: Some(2), ..PlatformOverrides::default() },
        );
        let scenarios = Sweep::new("widths", "gemm on two platforms", ScenarioKind::Perf)
            .program("gemm", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini })
            .policies(&[MitigationPolicy::Unprotected, MitigationPolicy::Fence])
            .platforms(vec![PlatformVariant::default_platform(), narrow])
            .expand();
        let report = run_sweep("widths", &scenarios, ExecOptions { threads: 2, verbose: false });
        assert_eq!(report.stats.jobs, 4);
        assert_eq!(report.stats.baseline_simulations, 2, "one baseline per platform");
        assert_eq!(report.stats.simulations, 4, "two baselines and two fenced runs");
    }

    #[test]
    fn report_order_is_expansion_order_for_any_worker_count() {
        let scenarios = tiny_sweep().expand();
        let serial = run_sweep("tiny", &scenarios, ExecOptions { threads: 1, verbose: false });
        let parallel = run_sweep("tiny", &scenarios, ExecOptions { threads: 4, verbose: false });
        assert_eq!(serial.results, parallel.results);
        for (slot, scenario) in serial.results.iter().zip(&scenarios) {
            assert_eq!(&slot.scenario, scenario);
        }
    }

    #[test]
    fn unprotected_rows_have_unit_slowdown() {
        let scenarios = tiny_sweep().expand();
        let report = run_sweep("tiny", &scenarios, ExecOptions::default());
        for result in &report.results {
            let JobOutcome::Perf(metrics) = &result.outcome else {
                panic!("{}: expected perf outcome", result.scenario.name);
            };
            if result.scenario.policy == MitigationPolicy::Unprotected {
                assert_eq!(metrics.cycles, metrics.baseline_cycles);
                assert!((metrics.slowdown() - 1.0).abs() < 1e-12);
            } else {
                assert!(metrics.slowdown() >= 1.0 - 1e-9, "{}", result.scenario.name);
            }
        }
    }

    #[test]
    fn a_zero_cycle_baseline_keeps_slowdowns_finite() {
        let metrics = PerfMetrics {
            cycles: 100,
            baseline_cycles: 0,
            rollbacks: 0,
            guest_insts: 0,
            patterns: 0,
        };
        assert_eq!(metrics.slowdown(), 100.0, "the baseline is clamped to one cycle");
    }

    #[test]
    fn a_shared_run_memo_answers_repeated_sweeps_without_simulating() {
        let scenarios = tiny_sweep().expand();
        let service = TranslationService::new();
        let memo = RunMemo::new();
        let opts = ExecOptions { threads: 4, verbose: false };
        let first = run_sweep_obs("tiny", &scenarios, opts, &service, Some(&memo), None);
        let cold = memo.stats();
        // Each of the 10 jobs asks for its baseline, and the 8 protected
        // ones for their own run: 18 asks for 10 distinct runs.
        assert_eq!(cold.hits + cold.misses, 18);
        assert_eq!(cold.misses, first.stats.simulations as u64, "one entry per simulation");
        assert_eq!(cold.misses, 10);

        let second = run_sweep_obs("tiny", &scenarios, opts, &service, Some(&memo), None);
        assert_eq!(first.results, second.results, "memo hits must not change observables");
        assert_eq!(second.stats.simulations, 0, "every run was answered from the memo");
        assert_eq!(
            second.stats.translation_hits + second.stats.translation_misses,
            0,
            "memo hits never build a session, so no translation queries at all"
        );
        let warm = memo.stats();
        assert_eq!(warm.misses, cold.misses, "nothing new to simulate");
        assert_eq!(warm.hits, cold.hits + 18, "same ask list, now fully cached");

        // The memo-less report of the same job list agrees on every
        // observable (only the counters differ).
        let fresh = run_sweep("tiny", &scenarios, opts);
        assert_eq!(fresh.results, first.results);
    }

    #[test]
    fn an_attached_registry_times_exactly_the_simulations_that_ran() {
        let scenarios = tiny_sweep().expand();
        let service = TranslationService::new();
        let memo = RunMemo::new();
        let registry = MetricsRegistry::new();
        let opts = ExecOptions { threads: 2, verbose: false };
        let timed = run_sweep_obs("tiny", &scenarios, opts, &service, Some(&memo), Some(&registry));
        let histogram = registry.histogram_with(
            LAB_PHASE_FAMILY,
            "Wall-clock executor phase timings.",
            DEFAULT_LATENCY_BOUNDS_MICROS,
            &[("phase", "simulate")],
        );
        assert_eq!(histogram.count(), timed.stats.simulations as u64);

        let warm = run_sweep_obs("tiny", &scenarios, opts, &service, Some(&memo), Some(&registry));
        assert_eq!(warm.stats.simulations, 0, "the repeat is answered from the memo");
        assert_eq!(
            histogram.count(),
            timed.stats.simulations as u64,
            "memo hits never enter the simulate span"
        );

        let plain = run_sweep("tiny", &scenarios, opts);
        assert_eq!(plain.results, timed.results, "timing must not perturb observables");
    }

    #[test]
    fn broken_jobs_fail_soft() {
        let scenarios = Sweep::new("broken", "unknown kernel", ScenarioKind::Perf)
            .program("nope", ProgramSpec::Workload { name: "nope", size: WorkloadSize::Mini })
            .expand();
        let report = run_sweep("broken", &scenarios, ExecOptions::default());
        assert_eq!(report.results.len(), 5);
        for result in &report.results {
            assert!(matches!(result.outcome, JobOutcome::Failed { .. }));
        }
    }
}
