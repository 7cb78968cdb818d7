//! Human-readable emitters: the Figure-4 slowdown table (with a dynamic
//! policy axis) and the Section V-A attack table, both derivable from a
//! [`LabReport`].

use crate::exec::{JobOutcome, LabReport};
use crate::scenario::ScenarioKind;
use ghostbusters::MitigationPolicy;

/// One row of a slowdown table.
#[derive(Debug, Clone)]
pub struct SlowdownRow {
    /// Workload name.
    pub name: String,
    /// Cycles of the unprotected baseline.
    pub baseline_cycles: u64,
    /// Slowdown (relative execution time, 1.0 = baseline) per policy, in
    /// the column order of the owning [`SlowdownTable`].
    pub slowdown: Vec<f64>,
}

/// A complete slowdown table: the policy axis plus one row per workload.
///
/// The policy axis is data, not a constant: sweeps choose their own policy
/// lists, and the table renders whatever columns the report contains.
#[derive(Debug, Clone)]
pub struct SlowdownTable {
    /// The column axis, in first-appearance order of the report.
    pub policies: Vec<MitigationPolicy>,
    /// One row per `(program, platform)` pair, in first-appearance order.
    pub rows: Vec<SlowdownRow>,
}

/// Geometric mean of strictly positive samples (1.0 for an empty slice).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.max(f64::MIN_POSITIVE).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Formats a slowdown table in the layout of the paper's Figure 4, one
/// column per protective policy in the table's axis.
///
/// The summary reports both the arithmetic mean of relative execution times
/// (what the paper's text quotes) and the true geometric mean, each labeled
/// honestly. Missing measurements (NaN slowdowns, e.g. from failed jobs)
/// render as `n/a` and are excluded from both means.
pub fn format_table(table: &SlowdownTable) -> String {
    use std::fmt::Write as _;
    // Column 0 (the unprotected baseline) renders as raw cycles; every
    // other policy gets a percentage column wide enough for its label.
    let columns: Vec<(usize, usize)> = table
        .policies
        .iter()
        .enumerate()
        .filter(|(_, p)| **p != MitigationPolicy::Unprotected)
        .map(|(i, p)| (i, p.label().len().max(9)))
        .collect();

    fn cell(x: f64, width: usize) -> String {
        if x.is_finite() {
            format!("{:>width$.1}%", x * 100.0, width = width)
        } else {
            format!("{:>width$}", "n/a", width = width + 1)
        }
    }

    let mut out = String::new();
    let _ = write!(out, "{:<16} {:>12}", "kernel", "unsafe (cyc)");
    for (index, width) in &columns {
        let _ = write!(out, " {:>w$}", table.policies[*index].label(), w = width + 1);
    }
    out.push('\n');

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); table.policies.len()];
    for row in &table.rows {
        let _ = write!(out, "{:<16} {:>12}", row.name, row.baseline_cycles);
        for (index, width) in &columns {
            let slowdown = row.slowdown.get(*index).copied().unwrap_or(f64::NAN);
            let _ = write!(out, " {}", cell(slowdown, *width));
        }
        out.push('\n');
        for (column, &slowdown) in samples.iter_mut().zip(&row.slowdown) {
            if slowdown.is_finite() {
                column.push(slowdown);
            }
        }
    }

    let arith = |xs: &[f64]| {
        if xs.is_empty() {
            f64::NAN
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let geo = |xs: &[f64]| if xs.is_empty() { f64::NAN } else { geometric_mean(xs) };
    for (label, mean) in [("arith-mean*", &arith as &dyn Fn(&[f64]) -> f64), ("geo-mean", &geo)] {
        let _ = write!(out, "{:<16} {:>12}", label, "");
        for (index, width) in &columns {
            let _ = write!(out, " {}", cell(mean(&samples[*index]), *width));
        }
        out.push('\n');
    }
    let _ =
        writeln!(out, "(* arithmetic mean of relative execution times, as in the paper's text)");
    out
}

/// Formats a platform-axis table: one row per program, one column per
/// platform variant, cycles relative to the first variant (100% = equal).
///
/// This is the natural layout for sweeps with a single policy and several
/// platform variants (e.g. the speculation ablation).
pub fn format_variant_table(report: &LabReport) -> String {
    use std::fmt::Write as _;
    let mut variants: Vec<String> = Vec::new();
    let mut rows: Vec<(String, Vec<u64>)> = Vec::new();
    for result in &report.results {
        let JobOutcome::Perf(metrics) = &result.outcome else { continue };
        let variant = &result.scenario.platform.name;
        if !variants.iter().any(|v| v == variant) {
            variants.push(variant.clone());
        }
        let column = variants.iter().position(|v| v == variant).expect("just inserted");
        let label = &result.scenario.program_label;
        let index = rows.iter().position(|(name, _)| name == label).unwrap_or_else(|| {
            rows.push((label.clone(), Vec::new()));
            rows.len() - 1
        });
        let row = &mut rows[index].1;
        if row.len() <= column {
            row.resize(column + 1, 0);
        }
        row[column] = metrics.cycles;
    }

    let mut out = String::new();
    let _ = write!(out, "{:<16}", "kernel");
    for (i, variant) in variants.iter().enumerate() {
        if i == 0 {
            let _ = write!(out, " {:>16}", format!("{variant} (cyc)"));
        } else {
            let _ = write!(out, " {:>16}", variant);
        }
    }
    out.push('\n');
    for (name, cycles) in rows {
        let _ = write!(out, "{name:<16}");
        let base = cycles.first().copied().unwrap_or(0).max(1) as f64;
        for (i, &c) in cycles.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, " {c:>16}");
            } else {
                let _ = write!(out, " {:>15.1}%", c as f64 / base * 100.0);
            }
        }
        out.push('\n');
    }
    out
}

/// Formats the Section V-A attack table from an attack-sweep report.
pub fn format_attack_table(report: &LabReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<15} {:>10} {:>12} {:>11} {:>10}",
        "attack", "policy", "recovered", "rate", "rollbacks", "patterns"
    );
    for result in &report.results {
        match &result.outcome {
            JobOutcome::Attack(m) => {
                let _ = writeln!(
                    out,
                    "{:<12} {:<15} {:>7}/{:<3} {:>11.0}% {:>11} {:>10}",
                    result.scenario.program_label,
                    result.scenario.policy.label(),
                    m.correct_bytes(),
                    m.secret.len(),
                    m.recovery_rate() * 100.0,
                    m.rollbacks,
                    m.patterns
                );
            }
            JobOutcome::Failed { error } if result.scenario.kind == ScenarioKind::Attack => {
                let _ = writeln!(
                    out,
                    "{:<12} {:<15} failed: {error}",
                    result.scenario.program_label,
                    result.scenario.policy.label(),
                );
            }
            _ => {}
        }
    }
    out
}

impl LabReport {
    /// Collapses the perf results into a Figure-4-style table.
    ///
    /// The policy axis is collected in first-appearance order; rows are
    /// keyed by `(program label, platform)` in first-appearance order, and
    /// the platform name is appended to the row label whenever the sweep
    /// has a non-trivial platform axis. Attack-kind jobs are skipped;
    /// failed jobs leave their slot at NaN, which [`format_table`] renders
    /// as `n/a` and excludes from the means (see [`LabReport::failures`]).
    pub fn slowdown_table(&self) -> SlowdownTable {
        let mut policies: Vec<MitigationPolicy> = Vec::new();
        for result in &self.results {
            if result.scenario.kind == ScenarioKind::Perf
                && !policies.contains(&result.scenario.policy)
            {
                policies.push(result.scenario.policy);
            }
        }
        let multi_platform = {
            let mut platforms: Vec<&str> =
                self.results.iter().map(|r| r.scenario.platform.name.as_str()).collect();
            platforms.sort_unstable();
            platforms.dedup();
            platforms.len() > 1
        };
        let mut rows: Vec<SlowdownRow> = Vec::new();
        let mut keys: Vec<(String, String)> = Vec::new();
        for result in &self.results {
            let metrics = match &result.outcome {
                JobOutcome::Perf(metrics) => Some(metrics),
                JobOutcome::Failed { .. } if result.scenario.kind == ScenarioKind::Perf => None,
                _ => continue,
            };
            let key =
                (result.scenario.program_label.clone(), result.scenario.platform.name.clone());
            let index = match keys.iter().position(|k| *k == key) {
                Some(i) => i,
                None => {
                    let name = if multi_platform {
                        format!("{} [{}]", key.0, key.1)
                    } else {
                        key.0.clone()
                    };
                    keys.push(key);
                    rows.push(SlowdownRow {
                        name,
                        baseline_cycles: 0,
                        slowdown: vec![f64::NAN; policies.len()],
                    });
                    rows.len() - 1
                }
            };
            if let Some(metrics) = metrics {
                let policy_index = policies
                    .iter()
                    .position(|p| *p == result.scenario.policy)
                    .expect("policy was collected above");
                rows[index].baseline_cycles = metrics.baseline_cycles;
                rows[index].slowdown[policy_index] = metrics.slowdown();
            }
        }
        SlowdownTable { policies, rows }
    }

    /// Failed jobs of this sweep, as `(scenario name, error)` pairs — for
    /// surfacing on stderr next to tables that only mark failures as `n/a`.
    pub fn failures(&self) -> Vec<(&str, &str)> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                JobOutcome::Failed { error } => Some((r.scenario.name.as_str(), error.as_str())),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(rows: Vec<SlowdownRow>) -> SlowdownTable {
        SlowdownTable { policies: MitigationPolicy::ALL.to_vec(), rows }
    }

    fn row(name: &str, slowdown: &[f64]) -> SlowdownRow {
        SlowdownRow { name: name.to_string(), baseline_cycles: 1000, slowdown: slowdown.to_vec() }
    }

    #[test]
    fn geometric_mean_is_the_geometric_mean() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table_reports_both_means_honestly() {
        // Arithmetic mean of [1.0, 4.0] is 2.5; geometric mean is 2.0 — the
        // table must show both, labeled.
        let t =
            table(vec![row("a", &[1.0, 1.0, 1.0, 1.0, 1.0]), row("b", &[1.0, 1.0, 4.0, 4.0, 4.0])]);
        let text = format_table(&t);
        assert!(text.contains("arith-mean*"), "{text}");
        assert!(text.contains("geo-mean"), "{text}");
        let arith = text.lines().find(|l| l.starts_with("arith-mean*")).unwrap();
        let geo = text.lines().find(|l| l.starts_with("geo-mean")).unwrap();
        assert!(arith.contains("250.0%"), "{arith}");
        assert!(geo.contains("200.0%"), "{geo}");
    }

    #[test]
    fn every_protective_policy_gets_a_labeled_column() {
        let t = table(vec![row("a", &[1.0, 1.0, 1.1, 1.2, 1.3])]);
        let text = format_table(&t);
        let header = text.lines().next().unwrap();
        for policy in &MitigationPolicy::ALL[1..] {
            assert!(header.contains(policy.label()), "missing column {policy}: {header}");
        }
        assert!(header.contains("unsafe (cyc)"));
    }

    #[test]
    fn failed_jobs_render_as_na_and_do_not_poison_the_means() {
        use crate::exec::{ExecStats, JobResult, PerfMetrics};
        use crate::scenario::{PlatformVariant, ProgramSpec, Scenario};
        use dbt_workloads::WorkloadSize;
        use ghostbusters::MitigationPolicy;

        let scenario = |policy| Scenario {
            name: format!("t/gemm/{policy}/default"),
            program_label: "gemm".into(),
            program: ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini },
            policy,
            platform: PlatformVariant::default_platform(),
            kind: ScenarioKind::Perf,
        };
        let ok = |policy, cycles| JobResult {
            scenario: scenario(policy),
            outcome: JobOutcome::Perf(PerfMetrics {
                cycles,
                baseline_cycles: 1000,
                rollbacks: 0,
                guest_insts: 0,
                patterns: 0,
            }),
        };
        let report = LabReport {
            sweep: "t".into(),
            results: vec![
                ok(MitigationPolicy::Unprotected, 1000),
                ok(MitigationPolicy::Selective, 1000),
                ok(MitigationPolicy::FineGrained, 1100),
                ok(MitigationPolicy::Fence, 1200),
                JobResult {
                    scenario: scenario(MitigationPolicy::NoSpeculation),
                    outcome: JobOutcome::Failed { error: "budget exhausted".into() },
                },
            ],
            stats: ExecStats {
                jobs: 5,
                simulations: 4,
                baseline_simulations: 1,
                ..ExecStats::default()
            },
        };
        let t = report.slowdown_table();
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.policies.len(), 5);
        assert!(t.rows[0].slowdown[4].is_nan(), "failed slot must be NaN, not 0.0");
        let text = format_table(&t);
        let gemm = text.lines().find(|l| l.starts_with("gemm")).unwrap();
        assert!(gemm.contains("n/a"), "{text}");
        assert!(!text.contains(" 0.0%"), "failure must not read as a 0% slowdown: {text}");
        let geo = text.lines().find(|l| l.starts_with("geo-mean")).unwrap();
        assert!(geo.trim_end().ends_with("n/a"), "all-failed column mean must be n/a: {geo}");
        assert_eq!(report.failures(), vec![("t/gemm/no-speculation/default", "budget exhausted")]);
    }
}
