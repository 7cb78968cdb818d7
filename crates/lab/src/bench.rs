//! `lab bench`: one cold run per registry workload.
//!
//! Runs every registry workload (the Polybench-style suite plus
//! `ptr-matmul`) once on the unprotected default platform and reports,
//! per workload, the cycle-domain result: cycles, guest instructions and
//! blocks. Every byte of the report is deterministic, so CI diffs a
//! regenerated artifact against the committed one whole. It holds no host
//! timing: the repository benchmark (`perfbench/`) is where speed is
//! measured, translation and execution apart.

use dbt_platform::Session;
use dbt_workloads::{pointer_matmul, suite, Workload, WorkloadSize};
use ghostbusters::MitigationPolicy;

/// One workload's measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Workload name.
    pub name: String,
    /// Simulated cycles (deterministic).
    pub cycles: u64,
    /// Guest instructions retired (deterministic).
    pub guest_insts: u64,
    /// Translated blocks executed (deterministic).
    pub blocks: u64,
}

/// The whole benchmark: one row per registry workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchReport {
    /// Problem-size preset the workloads were built at.
    pub size: String,
    /// One row per workload, in registry order.
    pub rows: Vec<BenchRow>,
}

impl BenchReport {
    /// Renders the artifact JSON (`BENCH_sim-throughput.json`): fixed key
    /// order, two-space indent.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbt-lab/bench/v1\",\n");
        out.push_str(&format!("  \"size\": \"{}\",\n", self.size));
        out.push_str("  \"policy\": \"unsafe\",\n");
        out.push_str("  \"workloads\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": \"{}\",\n", row.name));
            out.push_str(&format!("      \"cycles\": {},\n", row.cycles));
            out.push_str(&format!("      \"guest_insts\": {},\n", row.guest_insts));
            out.push_str(&format!("      \"blocks\": {}\n", row.blocks));
            out.push_str(&format!("    }}{comma}\n"));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// The benchmark's workload list: the full suite plus `ptr-matmul`, in
/// registry order.
fn workloads(size: WorkloadSize) -> Vec<Workload> {
    let mut all = suite(size);
    all.push(pointer_matmul(size));
    all
}

/// Runs the benchmark at `size`.
///
/// # Errors
///
/// Returns a message if a workload fails to run (cannot happen for the
/// in-repo registry; surfaced instead of panicking all the same).
pub fn run_bench(size: WorkloadSize) -> Result<BenchReport, String> {
    let mut rows = Vec::new();
    for workload in workloads(size) {
        let summary = Session::builder()
            .program(&workload.program)
            .policy(MitigationPolicy::Unprotected)
            .run()
            .map_err(|e| format!("{}: {e}", workload.name))?;
        rows.push(BenchRow {
            name: workload.name.to_string(),
            cycles: summary.cycles,
            guest_insts: summary.guest_insts,
            blocks: summary.blocks_executed,
        });
    }
    Ok(BenchReport { size: format!("{size:?}").to_lowercase(), rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_workload_gets_a_row() {
        let report = run_bench(WorkloadSize::Mini).unwrap();
        assert_eq!(report.rows.len(), dbt_workloads::SUITE_NAMES.len() + 1);
        assert_eq!(report.rows.last().unwrap().name, "ptr-matmul");
        for row in &report.rows {
            assert!(row.cycles > 0, "{row:?}");
            assert!(row.guest_insts > 0, "{row:?}");
            assert!(row.blocks > 0, "{row:?}");
        }
    }

    #[test]
    fn the_report_is_byte_stable() {
        let a = run_bench(WorkloadSize::Mini).unwrap().to_json();
        let b = run_bench(WorkloadSize::Mini).unwrap().to_json();
        assert_eq!(a, b, "every byte is deterministic");
        assert!(a.contains("\"schema\": \"dbt-lab/bench/v1\""));
    }
}
