//! **dbt-lab** — the declarative, parallel scenario-sweep engine that
//! drives every experiment in the GhostBusters reproduction.
//!
//! The paper's evaluation consists of four artifacts (attack table,
//! Figure-4 slowdowns, pointer matmul, speculation ablation). Instead of
//! four serial one-off binaries, each artifact is declared here as a
//! [`Sweep`] — a cartesian product of programs × mitigation policies ×
//! platform variants — and executed by a multi-threaded work-queue
//! executor:
//!
//! * [`scenario`] — the model: [`ProgramSpec`] (what to build),
//!   [`PlatformOverrides`] (what machine to simulate), [`Scenario`]
//!   (one concrete job);
//! * [`registry`] — [`Registry::standard`] declares the paper's sweeps;
//!   new experiments are new declarations, not new binaries;
//! * [`exec`] — [`run_sweep`] fans jobs out over `std::thread::scope`
//!   workers with deterministic output ordering; every job runs through a
//!   [`dbt_platform::Session`] attached to one shared
//!   [`TranslationService`], so each workload's unprotected baseline is
//!   simulated exactly once and each distinct translation is compiled
//!   exactly once per sweep (the hit/miss counters land in the JSON);
//! * [`json`] — stable, dependency-free JSON (`BENCH_<sweep>.json`)
//!   suitable for diffing across PRs;
//! * [`daemon`] — the [`LabDaemon`] backend behind `lab serve`: one
//!   process-wide [`TranslationService`] plus a content-addressed
//!   [`RunMemo`] of whole run summaries, shared by every request the
//!   `dbt-serve` worker pool executes; the daemon carries its own
//!   `dbt-obs` registry (phase timings plus mirrored cache counters)
//!   that the `metrics` op renders as Prometheus text;
//! * [`profile`] — `lab profile`: the deterministic hot-path profile of
//!   one program (per-phase cycle attribution, speculation events,
//!   Chrome-trace export), byte-stable run to run;
//! * [`mod@bench`] — `lab bench`: one cold run per registry workload,
//!   translation included, behind the `BENCH_sim-throughput.json`
//!   artifact (deterministic cycle data, clearly-separated wall-clock
//!   lines);
//! * [`table`] — the human-readable tables of the paper (Figure 4 layout,
//!   Section V-A attack table).
//!
//! # Example
//!
//! ```
//! use dbt_lab::{run_sweep, ExecOptions, ProgramSpec, ScenarioKind, Sweep};
//! use dbt_workloads::WorkloadSize;
//!
//! let sweep = Sweep::new("demo", "one kernel, every policy", ScenarioKind::Perf)
//!     .program("gemm", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini });
//! let report = run_sweep(&sweep.name, &sweep.expand(), ExecOptions::default());
//! assert_eq!(report.results.len(), 5);
//! assert_eq!(report.stats.baseline_simulations, 1);
//! println!("{}", report.to_json());
//! ```

pub mod analyze;
pub mod bench;
pub mod daemon;
pub mod exec;
pub mod json;
pub mod profile;
pub mod registry;
pub mod scenario;
pub mod table;

pub use analyze::{analyze_built, analyze_program, resolve_program, AnalyzeReport, BlockAnalysis};
pub use bench::{run_bench, BenchReport, BenchRow};
pub use daemon::{adhoc_scenario, strip_stats, LabDaemon};
pub use dbt_platform::{
    MemoStats, ProgramRef, ProgramStore, RunMemo, ServiceStats, StoreStats, TranslationService,
};
pub use exec::{
    run_sweep, run_sweep_memo, run_sweep_obs, run_sweep_with, AttackMetrics, ExecOptions,
    ExecStats, JobOutcome, JobResult, LabReport, PerfMetrics, LAB_PHASE_FAMILY,
};
pub use profile::{canonical_label, profile_built, profile_program, ProfileOutput};
pub use registry::{Registry, Sweep, SweepProgram, DEFAULT_SECRET};
pub use scenario::{
    AttackVariant, PlatformOverrides, PlatformVariant, ProgramSpec, Scenario, ScenarioKind,
    SourceKind,
};
pub use table::{
    format_attack_table, format_table, format_variant_table, geometric_mean, measure_slowdowns,
    SlowdownRow, SlowdownTable,
};
