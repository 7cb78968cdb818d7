//! Hand-rolled, dependency-free JSON emission for [`LabReport`].
//!
//! The encoding is deliberately boring: fixed key order, two-space
//! indentation, floats printed with six fractional digits. Two runs of the
//! same sweep therefore produce byte-identical files, so `BENCH_<sweep>.json`
//! artifacts can be diffed across PRs.

use crate::exec::{JobOutcome, JobResult, LabReport};
use dbt_json::escape;

/// Formats a float deterministically (fixed six fractional digits).
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        // JSON has no Inf/NaN; encode as null.
        "null".to_string()
    }
}

fn push_job(out: &mut String, result: &JobResult) {
    let s = &result.scenario;
    out.push_str("    {\n");
    out.push_str(&format!("      \"scenario\": \"{}\",\n", escape(&s.name)));
    out.push_str(&format!("      \"program\": \"{}\",\n", escape(&s.program_label)));
    out.push_str(&format!("      \"policy\": \"{}\",\n", s.policy.label()));
    out.push_str(&format!("      \"platform\": \"{}\",\n", escape(&s.platform.name)));
    out.push_str(&format!("      \"kind\": \"{}\",\n", s.kind.label()));
    match &result.outcome {
        JobOutcome::Perf(m) => {
            out.push_str("      \"status\": \"ok\",\n");
            out.push_str(&format!("      \"cycles\": {},\n", m.cycles));
            out.push_str(&format!("      \"baseline_cycles\": {},\n", m.baseline_cycles));
            out.push_str(&format!("      \"slowdown\": {},\n", number(m.slowdown())));
            out.push_str(&format!("      \"rollbacks\": {},\n", m.rollbacks));
            out.push_str(&format!("      \"guest_insts\": {},\n", m.guest_insts));
            out.push_str(&format!("      \"patterns\": {}\n", m.patterns));
        }
        JobOutcome::Attack(m) => {
            out.push_str("      \"status\": \"ok\",\n");
            out.push_str(&format!("      \"cycles\": {},\n", m.cycles));
            out.push_str(&format!("      \"secret_bytes\": {},\n", m.secret.len()));
            out.push_str(&format!("      \"correct_bytes\": {},\n", m.correct_bytes()));
            out.push_str(&format!("      \"recovery_rate\": {},\n", number(m.recovery_rate())));
            out.push_str(&format!(
                "      \"recovered\": \"{}\",\n",
                escape(&String::from_utf8_lossy(&m.recovered))
            ));
            out.push_str(&format!("      \"rollbacks\": {},\n", m.rollbacks));
            out.push_str(&format!("      \"patterns\": {}\n", m.patterns));
        }
        JobOutcome::Failed { error } => {
            out.push_str("      \"status\": \"failed\",\n");
            out.push_str(&format!("      \"error\": \"{}\"\n", escape(error)));
        }
    }
    out.push_str("    }");
}

impl LabReport {
    /// Serialises the report; same report ⇒ byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbt-lab/v1\",\n");
        out.push_str(&format!("  \"sweep\": \"{}\",\n", escape(&self.sweep)));
        out.push_str("  \"jobs\": [\n");
        for (i, result) in self.results.iter().enumerate() {
            push_job(&mut out, result);
            out.push_str(if i + 1 < self.results.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"stats\": {\n");
        out.push_str(&format!("    \"jobs\": {},\n", self.stats.jobs));
        out.push_str(&format!("    \"simulations\": {},\n", self.stats.simulations));
        out.push_str(&format!(
            "    \"baseline_simulations\": {},\n",
            self.stats.baseline_simulations
        ));
        out.push_str(&format!("    \"translation_hits\": {},\n", self.stats.translation_hits));
        out.push_str(&format!("    \"translation_misses\": {}\n", self.stats.translation_misses));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecStats, PerfMetrics};
    use crate::scenario::{PlatformVariant, ProgramSpec, Scenario, ScenarioKind};
    use dbt_workloads::WorkloadSize;
    use ghostbusters::MitigationPolicy;

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_are_fixed_precision_and_total() {
        assert_eq!(number(1.0), "1.000000");
        assert_eq!(number(1.0 / 3.0), "0.333333");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn report_serialisation_is_stable_and_wellformed() {
        let scenario = Scenario {
            name: "t/gemm/unsafe/default".into(),
            program_label: "gemm".into(),
            program: ProgramSpec::Workload { name: "gemm", size: WorkloadSize::Mini },
            policy: MitigationPolicy::Unprotected,
            platform: PlatformVariant::default_platform(),
            kind: ScenarioKind::Perf,
        };
        let report = LabReport {
            sweep: "t".into(),
            results: vec![JobResult {
                scenario,
                outcome: JobOutcome::Perf(PerfMetrics {
                    cycles: 100,
                    baseline_cycles: 100,
                    rollbacks: 0,
                    guest_insts: 42,
                    patterns: 0,
                }),
            }],
            stats: ExecStats {
                jobs: 1,
                simulations: 1,
                baseline_simulations: 1,
                translation_hits: 3,
                translation_misses: 2,
            },
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"slowdown\": 1.000000"));
        assert!(a.contains("\"schema\": \"dbt-lab/v1\""));
        assert!(a.contains("\"translation_hits\": 3"));
        assert!(a.contains("\"translation_misses\": 2"));
        assert!(a.ends_with("}\n"));
    }
}
