//! Integration tests of the `dbt-lab` sweep engine: deterministic output
//! under parallelism, baseline-cycle caching, and agreement with plain
//! serial `Session` runs.

use dbt_lab::{
    run_sweep, run_sweep_obs, AttackVariant, ExecOptions, JobOutcome, ProgramSpec, Registry,
    ScenarioKind, Sweep, TranslationService,
};
use dbt_platform::Session;
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;

fn mixed_sweep() -> Sweep {
    Sweep::new("mixed", "kernels and one attack", ScenarioKind::Perf)
        .program("gemm", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini })
        .program("atax", ProgramSpec::Workload { name: "atax", size: WorkloadSize::Mini })
        .program("jacobi-1d", ProgramSpec::Workload { name: "jacobi-1d", size: WorkloadSize::Mini })
        .program(
            "spectre-v1",
            ProgramSpec::Attack { variant: AttackVariant::SpectreV1, secret: b"GB".to_vec() },
        )
}

#[test]
fn same_sweep_twice_is_byte_identical_json_even_multithreaded() {
    let scenarios = mixed_sweep().expand();
    let opts = ExecOptions { threads: 4, verbose: false };
    let first = run_sweep("mixed", &scenarios, opts).to_json();
    let second = run_sweep("mixed", &scenarios, opts).to_json();
    assert_eq!(first, second, "same sweep must serialise to byte-identical JSON");

    // ... and the worker count must not leak into the output either.
    let serial = run_sweep("mixed", &scenarios, ExecOptions { threads: 1, verbose: false });
    assert_eq!(first, serial.to_json(), "thread count must not affect the report");
}

#[test]
fn baseline_is_simulated_once_per_workload() {
    let scenarios = mixed_sweep().expand();
    let report = run_sweep("mixed", &scenarios, ExecOptions { threads: 4, verbose: false });
    // 4 programs × 5 policies, all Perf kind (the attack program is measured
    // as a workload here).
    assert_eq!(report.stats.jobs, 20);
    assert_eq!(
        report.stats.baseline_simulations, 4,
        "one baseline per distinct (program, platform), not one per comparison"
    );
    // Each program: 1 shared baseline + 4 protected runs.
    assert_eq!(report.stats.simulations, 20);
}

#[test]
fn sweep_slowdowns_agree_with_the_legacy_serial_path() {
    let scenarios = Sweep::new("legacy", "gemm only", ScenarioKind::Perf)
        .program("gemm", ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini })
        .expand();
    let report = run_sweep("legacy", &scenarios, ExecOptions::default());
    let table = report.slowdown_table();
    assert_eq!(table.rows.len(), 1);
    assert_eq!(table.policies, MitigationPolicy::ALL.to_vec());

    // The serial path: every policy in a plain session on one fresh
    // service, one after another.
    let program = ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini }.build().unwrap();
    let service = TranslationService::new();
    let cycles = |policy| {
        Session::builder().program(&program).policy(policy).service(&service).run().unwrap().cycles
    };
    let baseline = cycles(MitigationPolicy::Unprotected);
    assert_eq!(table.rows[0].baseline_cycles, baseline);
    for (i, &policy) in MitigationPolicy::ALL.iter().enumerate() {
        let legacy = cycles(policy) as f64 / baseline.max(1) as f64;
        assert!(
            (table.rows[0].slowdown[i] - legacy).abs() < 1e-12,
            "{policy:?}: sweep {} vs legacy {legacy}",
            table.rows[0].slowdown[i],
        );
    }
}

#[test]
fn each_translation_is_compiled_exactly_once_per_service_even_multithreaded() {
    let scenarios = mixed_sweep().expand();
    let opts = ExecOptions { threads: 4, verbose: false };
    let service = TranslationService::new();
    let first = run_sweep_obs("mixed", &scenarios, opts, &service, None, None);
    assert!(
        first.stats.translation_misses > 0,
        "a cold service must compile something: {:?}",
        first.stats
    );
    // The sweep counts engine-level translation events; the service counts
    // its internal queries (codegen + the nested analysis stage), so it
    // always compiled at least as much as the sweep observed as misses.
    assert!(
        service.stats().misses >= first.stats.translation_misses,
        "sweep misses {} cannot exceed service compiles {}",
        first.stats.translation_misses,
        service.stats().misses
    );
    // Re-running the identical sweep against the same service must not
    // compile a single translation again: each (program, config) was
    // translated exactly once, and the counter proves it.
    let second = run_sweep_obs("mixed", &scenarios, opts, &service, None, None);
    assert_eq!(
        second.stats.translation_misses, 0,
        "every translation of the second sweep must be a memo hit: {:?}",
        second.stats
    );
    assert!(second.stats.translation_hits > 0);
    assert_eq!(first.results, second.results, "memo hits must not change any measurement");
}

#[test]
fn shared_and_fresh_services_produce_identical_cycles_and_stable_json() {
    let scenarios = mixed_sweep().expand();
    let opts = ExecOptions { threads: 4, verbose: false };
    // Fresh-per-sweep services (the default path): byte-identical JSON,
    // including the translation counters.
    let fresh_a = run_sweep("mixed", &scenarios, opts);
    let fresh_b = run_sweep("mixed", &scenarios, opts);
    assert_eq!(fresh_a.to_json(), fresh_b.to_json());
    // A pre-warmed shared service changes only the hit/miss split — every
    // cycle count, rollback and recovery rate stays identical.
    let service = TranslationService::new();
    let _warmup = run_sweep_obs("mixed", &scenarios, opts, &service, None, None);
    let warm = run_sweep_obs("mixed", &scenarios, opts, &service, None, None);
    assert_eq!(fresh_a.results, warm.results);
    assert_eq!(warm.stats.translation_misses, 0, "nothing left to compile: {:?}", warm.stats);
    assert!(warm.stats.translation_hits > 0);
}

#[test]
fn attack_sweep_reproduces_the_leak_and_the_mitigation() {
    let registry = Registry::standard(WorkloadSize::Mini);
    let sweep = registry.find("attack-table").unwrap();
    // Use a short secret so the test stays fast in debug builds.
    let mut sweep = sweep.clone();
    for program in &mut sweep.programs {
        if let ProgramSpec::Attack { secret, .. } = &mut program.spec {
            *secret = b"GB".to_vec();
        }
    }
    let report = run_sweep(&sweep.name, &sweep.expand(), ExecOptions::default());
    assert_eq!(report.results.len(), 10);
    for result in &report.results {
        let JobOutcome::Attack(metrics) = &result.outcome else {
            panic!("{}: expected attack outcome", result.scenario.name);
        };
        if result.scenario.policy == MitigationPolicy::Unprotected {
            assert_eq!(
                metrics.correct_bytes(),
                metrics.secret.len(),
                "{} must leak the full secret",
                result.scenario.name
            );
        } else {
            assert_eq!(metrics.correct_bytes(), 0, "{} must stop the leak", result.scenario.name);
        }
    }
}

#[test]
fn the_full_registry_sweep_fits_the_default_translation_budget() {
    // `lab sweep` runs every registry sweep on one default service. Its
    // whole working set must stay resident: an eviction would re-compile
    // what an earlier sweep paid for and shift the artifacts' hit/miss
    // counters.
    let registry = Registry::standard(WorkloadSize::Mini);
    let service = TranslationService::new();
    let opts = ExecOptions { threads: 2, verbose: false };
    for sweep in registry.sweeps() {
        let _ = run_sweep_obs(&sweep.name, &sweep.expand(), opts, &service, None, None);
    }
    let stats = service.stats();
    assert_eq!(stats.evictions, 0, "{stats:?}");
    assert_eq!(stats.products, stats.misses, "every compile product is resident");
    assert!(stats.misses <= dbt_engine::DEFAULT_SERVICE_BUDGET_PRODUCTS, "{stats:?}");
}
