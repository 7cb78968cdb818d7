//! The span API: RAII wall-clock phase timing.
//!
//! A [`Span`] notes [`Instant::now`] when created and records the
//! elapsed duration into its histogram when dropped — so timing a phase
//! is one line at the top of the scope, on a histogram resolved once:
//!
//! ```
//! # use dbt_obs::{MetricsRegistry, Span, DEFAULT_LATENCY_BOUNDS_MICROS};
//! let registry = MetricsRegistry::new();
//! let codegen =
//!     registry.histogram("dbt_codegen_seconds", "Codegen time.", DEFAULT_LATENCY_BOUNDS_MICROS);
//! {
//!     let _span = Span::on(&codegen);
//!     // ... the phase ...
//! } // drop records the elapsed wall-clock time
//! assert_eq!(codegen.count(), 1);
//! ```
//!
//! Spans read the clock and touch atomics only — they never feed back
//! into the simulated platform, so deterministic cycle outputs are
//! unaffected.

use crate::metric::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// An in-flight phase timing; records on drop.
#[derive(Debug)]
#[must_use = "a span records when dropped; binding it to _ would record immediately"]
pub struct Span {
    histogram: Arc<Histogram>,
    started: Instant,
}

impl Span {
    /// Starts a span that records into the given histogram.
    pub fn on(histogram: &Arc<Histogram>) -> Span {
        Span { histogram: Arc::clone(histogram), started: Instant::now() }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.observe(self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    #[test]
    fn span_records_exactly_once_on_drop() {
        let registry = MetricsRegistry::new();
        let histogram =
            registry.histogram("dbt_test_seconds", "t", crate::DEFAULT_LATENCY_BOUNDS_MICROS);
        {
            let _span = Span::on(&histogram);
            assert_eq!(histogram.count(), 0, "nothing recorded while in flight");
        }
        assert_eq!(histogram.count(), 1);
    }

    #[test]
    fn nested_spans_attribute_to_their_own_phases() {
        // An outer phase span stays open while an inner sub-phase span
        // opens and closes: each must record exactly once, into its own
        // labelled series, and the inner drop must not close the outer.
        let registry = MetricsRegistry::new();
        let phase = |name| {
            registry.histogram_with(
                "dbt_test_seconds",
                "t",
                crate::DEFAULT_LATENCY_BOUNDS_MICROS,
                &[("phase", name)],
            )
        };
        let (outer, inner) = (phase("outer"), phase("inner"));
        {
            let _outer = Span::on(&outer);
            {
                let _inner = Span::on(&inner);
            }
            let mid = registry.render();
            assert!(mid.contains("dbt_test_seconds_count{phase=\"inner\"} 1"), "{mid}");
            assert!(
                mid.contains("dbt_test_seconds_count{phase=\"outer\"} 0"),
                "outer span must still be in flight: {mid}"
            );
        }
        let text = registry.render();
        assert!(text.contains("dbt_test_seconds_count{phase=\"outer\"} 1"), "{text}");
        assert!(text.contains("dbt_test_seconds_count{phase=\"inner\"} 1"), "{text}");
    }
}
