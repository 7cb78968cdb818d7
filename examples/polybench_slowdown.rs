//! Measures the slowdown of the countermeasures on the Polybench-style
//! suite (the shape of the paper's Figure 4), at the mini problem size so
//! it finishes quickly even in debug builds.
//!
//! ```sh
//! cargo run --release -p ghostbusters-examples --bin polybench_slowdown
//! ```

use dbt_platform::{PlatformError, Session, TranslationService};
use dbt_workloads::{suite, WorkloadSize};
use ghostbusters::MitigationPolicy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<12} {:>12} {:>14} {:>10} {:>16}",
        "kernel", "unsafe(cyc)", "our approach", "fence", "no speculation"
    );
    let service = TranslationService::new();
    for workload in suite(WorkloadSize::Mini) {
        let cycles = |policy| -> Result<u64, PlatformError> {
            let session = Session::builder().program(&workload.program).policy(policy);
            Ok(session.service(&service).run()?.cycles)
        };
        let unprotected = cycles(MitigationPolicy::Unprotected)?;
        let percent = |policy| -> Result<f64, PlatformError> {
            Ok(cycles(policy)? as f64 / unprotected.max(1) as f64 * 100.0)
        };
        println!(
            "{:<12} {:>12} {:>13.1}% {:>9.1}% {:>15.1}%",
            workload.name,
            unprotected,
            percent(MitigationPolicy::FineGrained)?,
            percent(MitigationPolicy::Fence)?,
            percent(MitigationPolicy::NoSpeculation)?,
        );
    }
    Ok(())
}
