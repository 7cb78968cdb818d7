//! `lab profile`: the deterministic hot-path profile of one program.
//!
//! A profile run executes one registry program (or an already-built
//! ad-hoc program) under one mitigation policy on the default platform
//! and renders the platform's [`ProfileReport`] — per-phase cycle
//! attribution, speculation events, translation counters — plus the
//! core's flight-recorder trace as a Chrome `trace_event` JSON document
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! Everything here is cycle-domain: two invocations of the same profile
//! render byte-identical reports and traces, so both can be committed
//! and diffed in CI. Each profile runs on a fresh session with its own
//! translation service — the report's translation counters describe the
//! program, not the warmth of some shared cache.

use crate::analyze::resolve_program;
use dbt_platform::{ProfileReport, Session};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;

/// One finished profile run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileOutput {
    /// The deterministic cycle-domain report.
    pub report: ProfileReport,
    /// Chrome `trace_event` JSON of the flight-recorder ring
    /// (1 simulated cycle = 1 trace microsecond).
    pub chrome_trace: String,
}

/// Canonical form of a user-supplied profile label: registry labels use
/// hyphens (`spectre-v1`), but the attack crates and paper use
/// underscores (`spectre_v1`) — accept both.
pub fn canonical_label(label: &str) -> String {
    label.replace('_', "-")
}

/// Profiles one registry program (a workload name, `ptr-matmul`,
/// `spectre-v1`/`spectre_v1`, ...) under `policy` on the default
/// platform.
///
/// # Errors
///
/// Returns a human-readable message if the label is unknown, the
/// program does not build, or the run faults.
pub fn profile_program(
    label: &str,
    policy: MitigationPolicy,
    size: WorkloadSize,
) -> Result<ProfileOutput, String> {
    let label = canonical_label(label);
    let spec = resolve_program(&label, size)?;
    profile_built(&label, &*spec.build()?, policy)
}

/// [`profile_program`] for an already-built program (ad-hoc sources,
/// daemon program refs). `label` is only the report's display name.
///
/// # Errors
///
/// Returns a message if the run faults.
pub fn profile_built(
    label: &str,
    program: &dbt_riscv::Program,
    policy: MitigationPolicy,
) -> Result<ProfileOutput, String> {
    let mut session =
        Session::builder().program(program).policy(policy).build().map_err(|e| e.to_string())?;
    let summary = session.run().map_err(|e| e.to_string())?;
    let report = session.profile_report(label, &summary);
    let chrome_trace = session.core().profiler().chrome_trace_json();
    Ok(ProfileOutput { report, chrome_trace })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_accept_both_spellings() {
        assert_eq!(canonical_label("spectre_v1"), "spectre-v1");
        assert_eq!(canonical_label("gemm"), "gemm");
        let a =
            profile_program("spectre_v1", MitigationPolicy::Selective, WorkloadSize::Mini).unwrap();
        let b =
            profile_program("spectre-v1", MitigationPolicy::Selective, WorkloadSize::Mini).unwrap();
        assert_eq!(a, b, "spelling is presentation, not identity");
        assert!(profile_program("nope", MitigationPolicy::Fence, WorkloadSize::Mini).is_err());
    }

    #[test]
    fn profiles_are_byte_stable_and_internally_consistent() {
        let run = || {
            profile_program("spectre-v1", MitigationPolicy::Selective, WorkloadSize::Mini).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert_eq!(a.report.to_text(), b.report.to_text());
        assert_eq!(a.chrome_trace, b.chrome_trace);
        assert_eq!(a.report.phases.total(), a.report.cycles, "phases partition the cycle count");
        assert_eq!(a.report.program, "spectre-v1");
        assert!(a.chrome_trace.contains("\"traceEvents\""), "{}", a.chrome_trace);
        assert!(a.chrome_trace.contains("\"clock\":\"simulated-cycles\""), "missing clock note");
    }

    #[test]
    fn attack_profiles_see_speculation_events() {
        // The v1 PoC leaks through branch speculation: the profile must
        // show mispredicted side exits and speculative loads, and under
        // the MCB-carrying policies spectre-v4 shows rollbacks.
        let v1 = profile_program("spectre-v1", MitigationPolicy::Unprotected, WorkloadSize::Mini)
            .unwrap()
            .report;
        assert!(v1.events.mispredicts > 0, "{:?}", v1.events);
        assert!(v1.events.speculative_loads > 0, "{:?}", v1.events);
        assert!(v1.events.l1d_hits + v1.events.l1d_misses > 0, "{:?}", v1.events);
        let v4 = profile_program("spectre-v4", MitigationPolicy::Unprotected, WorkloadSize::Mini)
            .unwrap()
            .report;
        assert!(v4.events.mcb_hits > 0, "{:?}", v4.events);
        assert!(v4.events.squashed_insts > 0, "{:?}", v4.events);
        assert!(v4.phases.rollback > 0, "{:?}", v4.phases);
    }
}
