//! `lab analyze`: run a program once on the unprotected platform, collect
//! the per-block leakage verdicts the DBT engine cached during translation,
//! and render them for humans (`Display`), machines (`--json`) or eyeballs
//! (`--dot`, Graphviz with the taint overlay).

use crate::registry::DEFAULT_SECRET;
use crate::scenario::{AttackVariant, ProgramSpec};
use dbt_ir::{dot, DepGraph, TaintOverlay};
use dbt_platform::{PlatformConfig, Session};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use spectaint::LeakageVerdict;
use std::fmt;
use std::sync::Arc;

/// The analysis of one optimised (speculating) translation.
#[derive(Debug, Clone)]
pub struct BlockAnalysis {
    /// Guest entry address of the block.
    pub entry_pc: u64,
    /// The verdict the engine cached at translation time.
    pub verdict: Arc<LeakageVerdict>,
    /// Graphviz rendering of the translation-time IR block with the taint
    /// overlay applied.
    pub dot: String,
}

/// Per-block verdicts of one program.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The analysed program's label.
    pub program: String,
    /// One entry per optimised translation, sorted by entry address.
    pub blocks: Vec<BlockAnalysis>,
}

/// Resolves a program label (`workload name`, `ptr-matmul`, `spectre-v1`,
/// `spectre-v4`) into a buildable spec.
///
/// # Errors
///
/// Returns a human-readable message naming the valid labels.
pub fn resolve_program(label: &str, size: WorkloadSize) -> Result<ProgramSpec, String> {
    match label {
        "ptr-matmul" => Ok(ProgramSpec::PointerMatmul { size }),
        "spectre-v1" => Ok(ProgramSpec::Attack {
            variant: AttackVariant::SpectreV1,
            secret: DEFAULT_SECRET.to_vec(),
        }),
        "spectre-v4" => Ok(ProgramSpec::Attack {
            variant: AttackVariant::SpectreV4,
            secret: DEFAULT_SECRET.to_vec(),
        }),
        name => Ok(ProgramSpec::Workload { name: suite_name(name)?, size }),
    }
}

/// Maps a user-supplied workload name onto the suite's `&'static str` name
/// (names only — no guest program is assembled for validation).
fn suite_name(name: &str) -> Result<&'static str, String> {
    dbt_workloads::SUITE_NAMES.iter().copied().find(|n| *n == name).ok_or_else(|| {
        format!(
            "unknown program `{name}`; valid programs: {}, ptr-matmul, spectre-v1, spectre-v4",
            dbt_workloads::SUITE_NAMES.join(", ")
        )
    })
}

/// Runs `label` on the unprotected platform (aggressive speculation, no
/// hardening — the verdicts describe what *would* leak) and collects every
/// cached per-block verdict.
///
/// # Errors
///
/// Returns a message if the program cannot be built or the run faults.
pub fn analyze_program(label: &str, size: WorkloadSize) -> Result<AnalyzeReport, String> {
    let spec = resolve_program(label, size)?;
    analyze_built(label, &*spec.build()?)
}

/// [`analyze_program`] for an already-built program — the entry point for
/// ad-hoc programs (uploaded over the daemon protocol or read from a `.s`
/// or image file), which exist outside the registry namespace. `label` is
/// only the report's display name; the analysis depends on nothing but
/// the program bytes, so equal programs produce byte-identical reports
/// whatever they are called from.
///
/// # Errors
///
/// Returns a message if the run faults.
pub fn analyze_built(label: &str, program: &dbt_riscv::Program) -> Result<AnalyzeReport, String> {
    let config = PlatformConfig::for_policy(MitigationPolicy::Unprotected);
    let mut session =
        Session::builder().program(program).config(config).build().map_err(|e| e.to_string())?;
    session.run().map_err(|e| e.to_string())?;

    let engine = session.engine();
    let mut blocks = Vec::new();
    for (pc, ir, verdict) in engine.tcache().analyzed() {
        // Rebuild the *unconstrained* dependency graph of the cached IR
        // block — the overlay shows the relaxable edges the analysis saw,
        // not the hardened graph the scheduler consumed.
        let graph = DepGraph::build(&ir, engine.config().speculation);
        let overlay = TaintOverlay {
            sources: verdict.sources.iter().map(|s| s.load).collect(),
            tainted: verdict.tainted_values.clone(),
            transmitters: verdict.transmitters.clone(),
        };
        blocks.push(BlockAnalysis {
            entry_pc: pc,
            verdict,
            dot: dot::render_with_overlay(&ir, &graph, &overlay),
        });
    }
    Ok(AnalyzeReport { program: label.to_string(), blocks })
}

impl AnalyzeReport {
    /// Number of blocks with at least one confirmed gadget.
    pub fn flagged_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.verdict.is_leak_free()).count()
    }

    /// Stable machine-readable form (fixed key order, deterministic).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbt-lab/analyze/v1\",\n");
        out.push_str(&format!("  \"program\": \"{}\",\n", dbt_json::escape(&self.program)));
        out.push_str(&format!("  \"flagged_blocks\": {},\n", self.flagged_blocks()));
        out.push_str("  \"blocks\": [");
        for (i, block) in self.blocks.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            // Re-indent the verdict's own JSON under the array.
            let verdict = block.verdict.to_json();
            for (j, line) in verdict.lines().enumerate() {
                if j > 0 {
                    out.push('\n');
                }
                out.push_str("    ");
                out.push_str(line);
            }
        }
        out.push_str(if self.blocks.is_empty() { "]\n" } else { "\n  ]\n" });
        out.push_str("}\n");
        out
    }

    /// The Graphviz documents, one per block, separated by blank lines.
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        for block in &self.blocks {
            out.push_str(&format!("// block @{:#x}\n", block.entry_pc));
            out.push_str(&block.dot);
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} optimised block(s), {} flagged",
            self.program,
            self.blocks.len(),
            self.flagged_blocks()
        )?;
        for block in &self.blocks {
            write!(f, "  {}", block.verdict)?;
            if block.verdict.is_leak_free() {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_programs_are_rejected_with_guidance() {
        let err = resolve_program("nope", WorkloadSize::Mini).unwrap_err();
        assert!(err.contains("nope"), "{err}");
        assert!(resolve_program("gemm", WorkloadSize::Mini).is_ok());
        assert!(resolve_program("spectre-v1", WorkloadSize::Mini).is_ok());
        assert!(resolve_program("ptr-matmul", WorkloadSize::Mini).is_ok());
    }

    #[test]
    fn histogram_blocks_are_all_leak_free() {
        let report = analyze_program("histogram", WorkloadSize::Mini).unwrap();
        assert!(!report.blocks.is_empty(), "the hot loop must produce superblocks");
        assert_eq!(report.flagged_blocks(), 0, "{report}");
        let json = report.to_json();
        assert_eq!(json, analyze_program("histogram", WorkloadSize::Mini).unwrap().to_json());
        assert!(json.contains("\"flagged_blocks\": 0"));
        let dot = report.to_dot();
        assert!(dot.contains("digraph"));
    }

    #[test]
    fn spectre_v1_is_flagged_with_a_colored_gadget() {
        let report = analyze_program("spectre-v1", WorkloadSize::Mini).unwrap();
        assert!(report.flagged_blocks() > 0, "{report}");
        assert!(report.to_json().contains("\"leak_free\": false"));
        // The flagged victim block colors its transmitter red.
        assert!(report.to_dot().contains("#e57373"));
    }
}
