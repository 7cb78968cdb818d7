//! The Figure-4 shape, asserted as an integration test at the mini problem
//! size: the fine-grained countermeasure costs (almost) nothing, disabling
//! speculation costs real performance, and the fence variant sits in
//! between (or equal) on pattern-free code.

use dbt_lab::{run_sweep, ExecOptions, JobOutcome, ProgramSpec, ScenarioKind, Sweep};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use std::collections::HashMap;

/// Runs `sweep` under every policy and returns each job's slowdown against
/// its unprotected baseline, by program label and policy.
fn slowdowns(sweep: Sweep) -> HashMap<(String, MitigationPolicy), f64> {
    let report = run_sweep(&sweep.name, &sweep.expand(), ExecOptions::default());
    let slowdown = |result: &dbt_lab::JobResult| match &result.outcome {
        JobOutcome::Perf(metrics) => metrics.slowdown(),
        other => panic!("{}: {other:?}", result.scenario.name),
    };
    report
        .results
        .iter()
        .map(|result| {
            ((result.scenario.program_label.clone(), result.scenario.policy), slowdown(result))
        })
        .collect()
}

#[test]
fn fine_grained_is_free_on_polybench_and_no_speculation_is_not() {
    let mut total_fine = 0.0;
    let mut total_nospec = 0.0;
    // A representative subset at the default problem size (the mini size
    // leaves several kernels below the hot threshold, where speculation —
    // and therefore the cost of disabling it — never kicks in).
    let names = ["gemm", "atax", "syrk", "jacobi-1d"];
    let mut sweep = Sweep::new("shape", "four dense kernels", ScenarioKind::Perf);
    for name in names {
        sweep = sweep.program(name, ProgramSpec::Workload { name, size: WorkloadSize::Small });
    }
    let slowdowns = slowdowns(sweep);
    let count = names.len() as f64;
    for name in names {
        let slowdown = |policy| slowdowns[&(name.to_string(), policy)];
        let fine = slowdown(MitigationPolicy::FineGrained);
        let fence = slowdown(MitigationPolicy::Fence);
        let nospec = slowdown(MitigationPolicy::NoSpeculation);
        assert!(
            fine <= 1.02,
            "{}: our approach should not slow down pattern-free code (got {:.3})",
            name,
            fine
        );
        assert!(
            fence <= 1.02,
            "{}: the fence variant should not slow down pattern-free code (got {:.3})",
            name,
            fence
        );
        // At the mini problem size a couple of kernels can land within noise
        // of each other; allow a 3 % tolerance on the per-kernel ordering.
        assert!(
            nospec >= fine * 0.97,
            "{}: disabling speculation should not be cheaper (nospec {:.3} vs fine {:.3})",
            name,
            nospec,
            fine
        );
        total_fine += fine;
        total_nospec += nospec;
    }
    // Average shape of Figure 4: ~1.0 for the countermeasure, clearly above
    // 1.0 for the naive approach (the paper reports +16 % on its board; the
    // exact number depends on the machine model).
    assert!(total_fine / count < 1.02);
    assert!(total_nospec / count > 1.05);
}

#[test]
fn pointer_matmul_pays_more_with_the_fence_than_with_fine_grained() {
    // The Spectre pattern only shows up in the hot loop once the kernel is
    // large enough for its superblocks to be built from a well-trained
    // profile, so this experiment uses the default (Small) size, as the
    // benchmark harness does.
    let sweep = Sweep::new("ptr", "pointer matmul", ScenarioKind::Perf)
        .program("ptr-matmul", ProgramSpec::PointerMatmul { size: WorkloadSize::Small });
    let slowdowns = slowdowns(sweep);
    let slowdown = |policy| slowdowns[&("ptr-matmul".to_string(), policy)];
    let fine = slowdown(MitigationPolicy::FineGrained);
    let fence = slowdown(MitigationPolicy::Fence);
    // With the Spectre pattern in the hot loop both countermeasures now have
    // a visible cost, and the fence is at least as expensive as the
    // fine-grained constraint (the paper reports 15 % vs 4 %).
    assert!(fine > 1.0, "fine-grained should have a measurable cost here (got {fine:.3})");
    assert!(
        fence >= fine,
        "fence must not be cheaper than fine-grained (got {fence:.3} vs {fine:.3})"
    );
}
