//! DBT engine configuration.

use dbt_ir::DfgOptions;
use ghostbusters::MitigationPolicy;

/// Configuration of the DBT engine.
///
/// The defaults model a small Hybrid-DBT-like system: 4-wide VLIW, blocks
/// become hot after 16 executions, traces follow branches that are at least
/// 90 % biased and may grow up to 48 guest instructions (allowing a couple
/// of unrolled loop iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbtConfig {
    /// Issue width of the target VLIW core (bundle capacity).
    pub issue_width: usize,
    /// Number of executions after which a block is considered hot and
    /// re-translated as an optimised superblock.
    pub hot_threshold: u64,
    /// Minimum bias (taken-or-not ratio, in `0.5..=1.0`) a conditional
    /// branch needs before the trace builder follows it.
    pub branch_bias_threshold: f64,
    /// Maximum number of guest instructions in one block or superblock, at
    /// most `u16::MAX`: each commits at most one register, and a translated
    /// block holds at most that many commits.
    pub max_trace_guest_insts: usize,
    /// Which speculation mechanisms the optimiser may use.
    pub speculation: DfgOptions,
    /// Which Spectre countermeasure is applied before scheduling.
    pub policy: MitigationPolicy,
}

impl DbtConfig {
    /// The unsafe baseline: aggressive speculation, no countermeasure.
    pub fn unprotected() -> DbtConfig {
        DbtConfig {
            issue_width: 4,
            hot_threshold: 16,
            branch_bias_threshold: 0.9,
            max_trace_guest_insts: 48,
            speculation: DfgOptions::aggressive(),
            policy: MitigationPolicy::Unprotected,
        }
    }

    /// The paper's countermeasure on top of aggressive speculation.
    pub fn fine_grained() -> DbtConfig {
        DbtConfig { policy: MitigationPolicy::FineGrained, ..DbtConfig::unprotected() }
    }

    /// Verdict-gated hardening on top of aggressive speculation: only
    /// blocks the `spectaint` analysis flags are constrained.
    pub fn selective() -> DbtConfig {
        DbtConfig { policy: MitigationPolicy::Selective, ..DbtConfig::unprotected() }
    }

    /// Fence-on-detection variant.
    pub fn fence() -> DbtConfig {
        DbtConfig { policy: MitigationPolicy::Fence, ..DbtConfig::unprotected() }
    }

    /// The naive countermeasure: both speculation mechanisms disabled.
    pub fn no_speculation() -> DbtConfig {
        DbtConfig {
            speculation: DfgOptions::no_speculation(),
            policy: MitigationPolicy::NoSpeculation,
            ..DbtConfig::unprotected()
        }
    }

    /// Returns the configuration for a given mitigation policy, with every
    /// other parameter at its default.
    pub fn for_policy(policy: MitigationPolicy) -> DbtConfig {
        match policy {
            MitigationPolicy::Unprotected => DbtConfig::unprotected(),
            MitigationPolicy::Selective => DbtConfig::selective(),
            MitigationPolicy::FineGrained => DbtConfig::fine_grained(),
            MitigationPolicy::Fence => DbtConfig::fence(),
            MitigationPolicy::NoSpeculation => DbtConfig::no_speculation(),
        }
    }

    /// Validates parameter ranges.
    pub fn is_valid(&self) -> bool {
        self.issue_width >= 1
            && self.hot_threshold >= 1
            && (0.5..=1.0).contains(&self.branch_bias_threshold)
            && (1..=usize::from(u16::MAX)).contains(&self.max_trace_guest_insts)
    }
}

impl Default for DbtConfig {
    fn default() -> Self {
        DbtConfig::unprotected()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_distinct() {
        for config in [
            DbtConfig::unprotected(),
            DbtConfig::selective(),
            DbtConfig::fine_grained(),
            DbtConfig::fence(),
            DbtConfig::no_speculation(),
        ] {
            assert!(config.is_valid());
        }
        assert!(DbtConfig::unprotected().speculation.memory_speculation);
        assert!(!DbtConfig::no_speculation().speculation.memory_speculation);
        assert!(!DbtConfig::no_speculation().speculation.branch_speculation);
    }

    #[test]
    fn for_policy_matches_presets() {
        assert_eq!(DbtConfig::for_policy(MitigationPolicy::Fence), DbtConfig::fence());
        assert_eq!(
            DbtConfig::for_policy(MitigationPolicy::NoSpeculation),
            DbtConfig::no_speculation()
        );
    }

    #[test]
    fn invalid_ranges_are_detected() {
        let c = DbtConfig { branch_bias_threshold: 0.2, ..DbtConfig::default() };
        assert!(!c.is_valid());
        let c = DbtConfig { issue_width: 0, ..DbtConfig::default() };
        assert!(!c.is_valid());
    }

    #[test]
    fn traces_stay_within_the_commits_a_translated_block_holds() {
        let trace =
            |max_trace_guest_insts| DbtConfig { max_trace_guest_insts, ..DbtConfig::default() };
        assert!(trace(usize::from(u16::MAX)).is_valid());
        assert!(!trace(usize::from(u16::MAX) + 1).is_valid());
        assert!(!trace(0).is_valid());
    }
}
