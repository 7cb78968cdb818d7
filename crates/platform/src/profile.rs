//! The [`ProfileReport`]: a byte-stable, cycle-domain profile of one
//! completed [`Session`](crate::Session) run.
//!
//! The report combines the core's deterministic
//! [`Profiler`](dbt_obs::Profiler) (per-phase
//! cycle attribution, speculation events, flight recorder) with the
//! statistics the platform already keeps — `CoreStats`, the data-cache
//! counters and `EngineStats` — into one structure with stable text and
//! JSON renderings. Nothing in it is wall-clock: two runs of the same
//! program under the same configuration render byte-identical reports,
//! so a profile can be committed, diffed in CI, and compared across
//! machines.
//!
//! Two internal consistency properties hold by construction and are
//! asserted by tests: the five phase accumulators sum exactly to the
//! core's total cycle count, and every speculation-event counter equals
//! its `CoreStats`/cache twin (mispredicts = side exits taken, MCB hits
//! = rollbacks, squashed instructions = recovery ops, cache events = the
//! cache's own hit/miss totals).

use crate::processor::RunSummary;
use dbt_json::escape;
use dbt_obs::{PhaseCycles, SpecEvents};

/// A deterministic profile of one completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Label of the profiled program.
    pub program: String,
    /// Mitigation-policy label the run used.
    pub policy: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Translated blocks executed.
    pub blocks_executed: u64,
    /// Guest instructions retired.
    pub guest_insts: u64,
    /// Whether the program halted (vs. exhausting its block budget).
    pub halted: bool,
    /// Per-phase cycle attribution; sums to `cycles`.
    pub phases: PhaseCycles,
    /// Speculation / memory-system event counts.
    pub events: SpecEvents,
    /// Bundles issued by the core.
    pub bundles_issued: u64,
    /// Non-nop operations executed.
    pub ops_executed: u64,
    /// Data-cache line/full flushes.
    pub cache_flushes: u64,
    /// Basic-tier translations performed by the engine.
    pub basic_translations: u64,
    /// Superblock-tier translations performed by the engine.
    pub superblock_translations: u64,
    /// Translation-service memo hits observed by the engine.
    pub service_hits: u64,
    /// Translation-service memo misses observed by the engine.
    pub service_misses: u64,
    /// Flight-recorder events retained for trace export.
    pub trace_retained: u64,
    /// Flight-recorder events dropped (ring was full).
    pub trace_dropped: u64,
}

impl ProfileReport {
    /// Assembles a report from the core (profiler, stats, cache, cycle
    /// count), the engine statistics and the run summary. Used by
    /// `Session::profile_report`.
    pub(crate) fn assemble(
        program: &str,
        policy: &str,
        summary: &RunSummary,
        core: &dbt_vliw::VliwCore,
        engine: &dbt_engine::EngineStats,
    ) -> ProfileReport {
        let profiler = core.profiler();
        let stats = core.stats();
        ProfileReport {
            program: program.to_string(),
            policy: policy.to_string(),
            cycles: core.cycles(),
            blocks_executed: summary.blocks_executed,
            guest_insts: summary.guest_insts,
            halted: summary.halted,
            phases: profiler.phases,
            events: profiler.events,
            bundles_issued: stats.bundles_issued,
            ops_executed: stats.ops_executed,
            cache_flushes: core.dcache().stats().flushes,
            basic_translations: engine.basic_translations,
            superblock_translations: engine.superblock_translations,
            service_hits: engine.service_hits,
            service_misses: engine.service_misses,
            trace_retained: profiler.trace_len() as u64,
            trace_dropped: profiler.trace_dropped(),
        }
    }

    /// Per-mille share of `part` in this report's total cycles, rendered
    /// as a fixed `"dd.d"` percent string — integer math only, so the
    /// text report never touches float formatting.
    fn percent(&self, part: u64) -> String {
        if self.cycles == 0 {
            return "0.0".to_string();
        }
        let permille = part * 1000 / self.cycles;
        format!("{}.{}", permille / 10, permille % 10)
    }

    /// Renders the stable human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("profile: {} policy={}\n", self.program, self.policy));
        out.push_str(&format!(
            "cycles: {}  blocks: {}  guest_insts: {}  halted: {}\n",
            self.cycles, self.blocks_executed, self.guest_insts, self.halted
        ));
        out.push_str("phase cycles (sum equals total):\n");
        for (name, cycles) in self.phases.entries() {
            out.push_str(&format!("  {name:<10} {cycles:>12}  {:>5}%\n", self.percent(cycles)));
        }
        out.push_str("speculation events:\n");
        for (name, count) in self.events.entries() {
            out.push_str(&format!("  {name:<18} {count:>12}\n"));
        }
        out.push_str(&format!(
            "core: bundles_issued={} ops_executed={} cache_flushes={}\n",
            self.bundles_issued, self.ops_executed, self.cache_flushes
        ));
        out.push_str(&format!(
            "translation: basic={} superblock={} service_hits={} service_misses={}\n",
            self.basic_translations,
            self.superblock_translations,
            self.service_hits,
            self.service_misses
        ));
        out.push_str(&format!(
            "trace: retained={} dropped={}\n",
            self.trace_retained, self.trace_dropped
        ));
        out
    }

    /// Renders the stable JSON form (fixed key order, two-space indent).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbt-platform/profile/v1\",\n");
        out.push_str(&format!("  \"program\": \"{}\",\n", escape(&self.program)));
        out.push_str(&format!("  \"policy\": \"{}\",\n", escape(&self.policy)));
        out.push_str(&format!("  \"cycles\": {},\n", self.cycles));
        out.push_str(&format!("  \"blocks_executed\": {},\n", self.blocks_executed));
        out.push_str(&format!("  \"guest_insts\": {},\n", self.guest_insts));
        out.push_str(&format!("  \"halted\": {},\n", self.halted));
        out.push_str("  \"phases\": {\n");
        for (name, cycles) in self.phases.entries() {
            out.push_str(&format!("    \"{name}\": {cycles},\n"));
        }
        out.push_str(&format!("    \"total\": {}\n", self.phases.total()));
        out.push_str("  },\n");
        out.push_str("  \"events\": {\n");
        let events = self.events.entries();
        for (i, (name, count)) in events.iter().enumerate() {
            let comma = if i + 1 == events.len() { "" } else { "," };
            out.push_str(&format!("    \"{name}\": {count}{comma}\n"));
        }
        out.push_str("  },\n");
        out.push_str("  \"core\": {\n");
        out.push_str(&format!("    \"bundles_issued\": {},\n", self.bundles_issued));
        out.push_str(&format!("    \"ops_executed\": {},\n", self.ops_executed));
        out.push_str(&format!("    \"cache_flushes\": {}\n", self.cache_flushes));
        out.push_str("  },\n");
        out.push_str("  \"translation\": {\n");
        out.push_str(&format!("    \"basic\": {},\n", self.basic_translations));
        out.push_str(&format!("    \"superblock\": {},\n", self.superblock_translations));
        out.push_str(&format!("    \"service_hits\": {},\n", self.service_hits));
        out.push_str(&format!("    \"service_misses\": {}\n", self.service_misses));
        out.push_str("  },\n");
        out.push_str("  \"trace\": {\n");
        out.push_str(&format!("    \"retained\": {},\n", self.trace_retained));
        out.push_str(&format!("    \"dropped\": {}\n", self.trace_dropped));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dbt_riscv::{Assembler, Reg};
    use ghostbusters::MitigationPolicy;

    fn loop_program() -> dbt_riscv::Program {
        let mut asm = Assembler::new();
        let out = asm.alloc_data("out", 8);
        let head = asm.new_label();
        asm.li(Reg::S0, 0);
        asm.li(Reg::S1, 0);
        asm.li(Reg::S2, 50);
        asm.bind(head);
        asm.add(Reg::S1, Reg::S1, Reg::S0);
        asm.addi(Reg::S0, Reg::S0, 1);
        asm.blt(Reg::S0, Reg::S2, head);
        asm.la(Reg::A0, out);
        asm.sd(Reg::S1, Reg::A0, 0);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn phases_sum_to_cycles_and_events_match_stats() {
        let program = loop_program();
        let mut session = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::Selective)
            .build()
            .unwrap();
        let summary = session.run().unwrap();
        let report = session.profile_report("loop", &summary);
        assert_eq!(report.phases.total(), report.cycles);
        assert_eq!(report.cycles, summary.cycles);
        let stats = session.core().stats();
        assert_eq!(report.events.mispredicts, stats.side_exits_taken);
        assert_eq!(report.events.mcb_hits, stats.rollbacks);
        assert_eq!(report.events.squashed_insts, stats.recovery_ops);
        assert_eq!(report.events.speculative_loads, stats.speculative_loads);
        let cache = session.core().dcache().stats();
        assert_eq!(report.events.l1d_hits, cache.read_hits + cache.write_hits);
        assert_eq!(report.events.l1d_misses, cache.read_misses + cache.write_misses);
    }

    #[test]
    fn report_renderings_are_byte_stable_across_identical_runs() {
        let run = || {
            let program = loop_program();
            let mut session = Session::builder()
                .program(&program)
                .policy(MitigationPolicy::FineGrained)
                .build()
                .unwrap();
            let summary = session.run().unwrap();
            session.profile_report("loop", &summary)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
        assert!(a.to_json().contains("\"schema\": \"dbt-platform/profile/v1\""));
        assert!(a.to_json().contains(&format!("\"total\": {}", a.cycles)));
        assert!(a.to_text().contains("phase cycles (sum equals total):"));
    }

    #[test]
    fn labels_are_escaped_in_json() {
        let report = ProfileReport {
            program: "we\"ird\\name".to_string(),
            policy: "selective".to_string(),
            cycles: 0,
            blocks_executed: 0,
            guest_insts: 0,
            halted: true,
            phases: PhaseCycles::default(),
            events: SpecEvents::default(),
            bundles_issued: 0,
            ops_executed: 0,
            cache_flushes: 0,
            basic_translations: 0,
            superblock_translations: 0,
            service_hits: 0,
            service_misses: 0,
            trace_retained: 0,
            trace_dropped: 0,
        };
        assert!(report.to_json().contains("\"program\": \"we\\\"ird\\\\name\""));
    }
}
