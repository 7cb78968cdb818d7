//! Cross-crate integration tests for the GhostBusters reproduction.
//!
//! The actual tests live in the sibling `*.rs` files (declared as `[[test]]`
//! targets): end-to-end Spectre attacks and mitigations, differential
//! execution of every workload against the reference interpreter, and the
//! Figure-4 slowdown shape. This library holds what several of them share.

use dbt_platform::PlatformConfig;
use ghostbusters::MitigationPolicy;

/// The default platform for `policy`, with translator and core both
/// `issue_width` wide.
pub fn config(policy: MitigationPolicy, issue_width: usize) -> PlatformConfig {
    let mut config = PlatformConfig::for_policy(policy);
    config.dbt.issue_width = issue_width;
    config.core.issue_width = issue_width;
    config
}
