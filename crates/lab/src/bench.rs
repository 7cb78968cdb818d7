//! `lab bench`: one cold run per registry workload.
//!
//! Runs every registry workload (the Polybench-style suite plus
//! `ptr-matmul`) once on the unprotected default platform and reports,
//! per workload, the cycle-domain result (cycles, guest instructions,
//! blocks — deterministic, diffable) alongside host-side rates (elapsed
//! wall-clock, guest instructions and simulated cycles per second —
//! machine-dependent by nature). Each run starts cold, so the rates cover
//! session set-up and translation as well as simulation; they are not
//! simulator throughput. The repository benchmark (`perfbench/`) times
//! translation and execution apart.
//!
//! The JSON layout keeps the two domains on *disjoint lines*: every
//! wall-clock member is named `elapsed_us` or `*_per_sec` and nothing
//! else shares its line, so CI can diff a regenerated artifact against
//! the committed one with the timing lines filtered out
//! (`grep -v -e '"elapsed_us"' -e '_per_sec'`) and still compare every
//! deterministic byte.

use dbt_platform::Session;
use dbt_workloads::{pointer_matmul, suite, Workload, WorkloadSize};
use ghostbusters::MitigationPolicy;
use std::time::Instant;

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
    /// Host wall-clock of the run, microseconds (machine-dependent).
    pub elapsed_us: u64,
}

impl BenchRow {
    /// Guest instructions simulated per host second (0 when the run was
    /// too fast for the clock).
    pub fn guest_insts_per_sec(&self) -> u64 {
        per_second(self.guest_insts, self.elapsed_us)
    }

    /// Simulated cycles per host second.
    pub fn cycles_per_sec(&self) -> u64 {
        per_second(self.cycles, self.elapsed_us)
    }
}

/// `count` events over `elapsed_us` microseconds, as events per second
/// in integer math (no float formatting in the artifact).
fn per_second(count: u64, elapsed_us: u64) -> u64 {
    if elapsed_us == 0 {
        return 0;
    }
    u64::try_from(count as u128 * 1_000_000 / elapsed_us as u128).unwrap_or(u64::MAX)
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
    /// order, two-space indent, wall-clock members on their own lines.
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
            out.push_str(&format!("      \"blocks\": {},\n", row.blocks));
            out.push_str(&format!("      \"elapsed_us\": {},\n", row.elapsed_us));
            out.push_str(&format!(
                "      \"guest_insts_per_sec\": {},\n",
                row.guest_insts_per_sec()
            ));
            out.push_str(&format!("      \"cycles_per_sec\": {}\n", row.cycles_per_sec()));
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
        let started = Instant::now();
        let summary = Session::builder()
            .program(&workload.program)
            .policy(MitigationPolicy::Unprotected)
            .run()
            .map_err(|e| format!("{}: {e}", workload.name))?;
        let elapsed_us = started.elapsed().as_micros() as u64;
        rows.push(BenchRow {
            name: workload.name.to_string(),
            cycles: summary.cycles,
            guest_insts: summary.guest_insts,
            blocks: summary.blocks_executed,
            elapsed_us,
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
    fn cycle_domain_bytes_are_stable_once_timing_lines_are_filtered() {
        let filter = |json: &str| -> String {
            json.lines()
                .filter(|line| !line.contains("\"elapsed_us\"") && !line.contains("_per_sec"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = run_bench(WorkloadSize::Mini).unwrap().to_json();
        let b = run_bench(WorkloadSize::Mini).unwrap().to_json();
        assert_eq!(filter(&a), filter(&b), "non-timing bytes are deterministic");
        assert!(a.contains("\"schema\": \"dbt-lab/bench/v1\""));
    }

    #[test]
    fn per_second_math_is_integer_and_overflow_safe() {
        assert_eq!(per_second(0, 0), 0);
        assert_eq!(per_second(10, 0), 0, "clock too coarse: report 0, not a division fault");
        assert_eq!(per_second(1_000_000, 1_000_000), 1_000_000);
        assert_eq!(per_second(u64::MAX, 1), u64::MAX, "saturates instead of truncating");
        assert_eq!(per_second(3, 2_000_000), 1, "integer floor");
    }
}
