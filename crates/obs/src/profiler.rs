//! The deterministic hot-path profiler: cycle attribution, speculation
//! event counting, and a bounded flight recorder with Chrome-trace export.
//!
//! Unlike the rest of this crate, nothing here touches the wall clock or
//! an atomic: a [`Profiler`] lives *inside* the simulated core and counts
//! in the **cycle domain** only, so two runs of the same program produce
//! byte-identical profiles — they are committable artifacts, not
//! observations. The two PR-6 invariants carry over:
//!
//! 1. **Observability never perturbs determinism.** The profiler is
//!    written by the core's timing model and read only after the run;
//!    the simulation never consumes it, and recording an event costs a
//!    handful of integer stores.
//! 2. **Profile counters agree with existing stats exactly.** Every
//!    speculation event is counted at the same site as its `CoreStats` /
//!    `CacheStats` twin (mispredicts ↔ `side_exits_taken`, MCB hits ↔
//!    `rollbacks`, squashed instructions ↔ `recovery_ops`, cache
//!    hits/misses ↔ the data-cache counters), so the profile can be
//!    cross-checked against the stats the attack harness already reports.
//!
//! The flight recorder is a bounded ring of the most recent
//! [`TraceEvent`]s (block executions, rollbacks, mispredicts). It never
//! grows past its capacity — old events are dropped and *counted* — and
//! exports to the Chrome `trace_event` JSON format
//! ([`Profiler::chrome_trace_json`]) where one simulated cycle maps to
//! one microsecond of trace time, so `chrome://tracing` / Perfetto render
//! the cycle timeline directly.

use crate::ring::Ring;

/// Default capacity of the flight-recorder ring.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The pipeline phases simulated cycles are attributed to.
///
/// Every cycle the core charges is attributed to exactly one phase, so
/// the five accumulators in [`PhaseCycles`] sum to the core's total
/// cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Advancing to the next bundle (one cycle per non-first bundle).
    Fetch,
    /// Scoreboard interlock stalls: waiting on an ALU-produced operand.
    Issue,
    /// Memory stalls: waiting on a load result or outstanding accesses.
    Execute,
    /// Retiring the terminator of a block (one cycle per exit).
    Commit,
    /// Rollback penalty plus sequential recovery re-execution.
    Rollback,
}

impl Phase {
    /// The stable lowercase name used in reports and trace output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Fetch => "fetch",
            Phase::Issue => "issue",
            Phase::Execute => "execute",
            Phase::Commit => "commit",
            Phase::Rollback => "rollback",
        }
    }
}

/// Simulated cycles attributed per pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Cycles spent advancing bundles.
    pub fetch: u64,
    /// Cycles stalled on scoreboard (ALU operand) interlocks.
    pub issue: u64,
    /// Cycles stalled on memory (load latency, `rdcycle` serialisation).
    pub execute: u64,
    /// Cycles retiring block terminators.
    pub commit: u64,
    /// Cycles lost to MCB rollbacks (penalty + recovery re-execution).
    pub rollback: u64,
}

impl PhaseCycles {
    /// Sum of all five phases — equals the core's total cycles.
    pub fn total(&self) -> u64 {
        self.fetch + self.issue + self.execute + self.commit + self.rollback
    }

    /// `(name, cycles)` pairs in the fixed report order.
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("fetch", self.fetch),
            ("issue", self.issue),
            ("execute", self.execute),
            ("commit", self.commit),
            ("rollback", self.rollback),
        ]
    }
}

/// Speculation and memory-system event counts.
///
/// Each counter is incremented at the same program point as an existing
/// deterministic statistic, so the two always agree exactly:
/// `mispredicts` ↔ `CoreStats::side_exits_taken`, `mcb_hits` ↔
/// `CoreStats::rollbacks`, `squashed_insts` ↔ `CoreStats::recovery_ops`,
/// `speculative_loads` ↔ `CoreStats::speculative_loads`, and the cache
/// counters ↔ `CacheStats` hit/miss totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecEvents {
    /// Side exits taken — speculation down the fall-through path was wrong.
    pub mispredicts: u64,
    /// Operations re-executed sequentially after a rollback (the work the
    /// misspeculated schedule threw away).
    pub squashed_insts: u64,
    /// Memory Conflict Buffer hits — each one forced a rollback.
    pub mcb_hits: u64,
    /// `fence` operations retired (speculation barriers).
    pub fence_stalls: u64,
    /// Loads hoisted above a potentially conflicting store.
    pub speculative_loads: u64,
    /// L1 data-cache hits (loads and stores).
    pub l1d_hits: u64,
    /// L1 data-cache misses (loads and stores).
    pub l1d_misses: u64,
}

impl SpecEvents {
    /// `(name, count)` pairs in the fixed report order.
    pub fn entries(&self) -> [(&'static str, u64); 7] {
        [
            ("mispredicts", self.mispredicts),
            ("squashed_insts", self.squashed_insts),
            ("mcb_hits", self.mcb_hits),
            ("fence_stalls", self.fence_stalls),
            ("speculative_loads", self.speculative_loads),
            ("l1d_hits", self.l1d_hits),
            ("l1d_misses", self.l1d_misses),
        ]
    }
}

/// One flight-recorder entry: a named interval on the cycle timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind (`"block"`, `"rollback"`, `"mispredict"`).
    pub kind: &'static str,
    /// Guest PC the event is anchored to.
    pub pc: u64,
    /// Cycle the interval started at.
    pub start_cycle: u64,
    /// Interval length in cycles (at least 1, so every event renders).
    pub cycles: u64,
}

/// The deterministic profiler: phase accumulators, event counters, and
/// the bounded flight recorder.
#[derive(Debug, Clone)]
pub struct Profiler {
    /// Cycle attribution per pipeline phase.
    pub phases: PhaseCycles,
    /// Speculation / memory-system event counts.
    pub events: SpecEvents,
    ring: Ring<TraceEvent>,
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new()
    }
}

impl Profiler {
    /// A profiler with the default flight-recorder capacity.
    pub fn new() -> Profiler {
        Profiler::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// A profiler whose flight recorder keeps at most `capacity` events
    /// (room for all of them is allocated up front).
    pub fn with_capacity(capacity: usize) -> Profiler {
        Profiler {
            phases: PhaseCycles::default(),
            events: SpecEvents::default(),
            ring: Ring::new(capacity),
        }
    }

    /// Attributes `cycles` simulated cycles to `phase`.
    #[inline]
    pub fn attribute(&mut self, phase: Phase, cycles: u64) {
        match phase {
            Phase::Fetch => self.phases.fetch += cycles,
            Phase::Issue => self.phases.issue += cycles,
            Phase::Execute => self.phases.execute += cycles,
            Phase::Commit => self.phases.commit += cycles,
            Phase::Rollback => self.phases.rollback += cycles,
        }
    }

    /// Appends an event to the flight recorder, evicting (and counting)
    /// the oldest event once the ring is full.
    pub fn record(&mut self, kind: &'static str, pc: u64, start_cycle: u64, cycles: u64) {
        self.ring.push(TraceEvent { kind, pc, start_cycle, cycles: cycles.max(1) });
    }

    /// The retained flight-recorder events, oldest first.
    pub fn trace_events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn trace_len(&self) -> usize {
        self.ring.len()
    }

    /// Events evicted because the ring was full — nonzero means the trace
    /// shows only the *tail* of the run.
    pub fn trace_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Renders the flight recorder in Chrome `trace_event` JSON
    /// (`chrome://tracing` / Perfetto). One simulated cycle maps to one
    /// microsecond of trace time; events are complete (`"ph":"X"`) spans
    /// on pid 1, tid 1. Output is byte-stable for a fixed event sequence.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, event) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}@{:#x}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":1,\"args\":{{\"pc\":{}}}}}",
                event.kind, event.pc, event.kind, event.start_cycle, event.cycles, event.pc
            ));
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"clock\":\"simulated-cycles\",\
             \"dropped_events\":{}}}}}",
            self.ring.dropped()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_and_report_in_fixed_order() {
        let mut p = Profiler::new();
        p.attribute(Phase::Fetch, 10);
        p.attribute(Phase::Issue, 2);
        p.attribute(Phase::Execute, 30);
        p.attribute(Phase::Commit, 4);
        p.attribute(Phase::Rollback, 24);
        assert_eq!(p.phases.total(), 70);
        let names: Vec<&str> = p.phases.entries().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["fetch", "issue", "execute", "commit", "rollback"]);
    }

    #[test]
    fn zero_length_events_render_as_one_cycle() {
        let mut p = Profiler::new();
        p.record("mispredict", 0x40, 7, 0);
        assert_eq!(p.trace_events().next().unwrap().cycles, 1);
    }

    #[test]
    fn chrome_trace_is_byte_stable_and_well_formed() {
        let mut p = Profiler::with_capacity(4);
        p.record("block", 0x1000, 0, 12);
        p.record("rollback", 0x1000, 12, 24);
        let first = p.chrome_trace_json();
        assert_eq!(first, p.chrome_trace_json(), "export must not mutate state");
        assert!(first.starts_with("{\"traceEvents\":["));
        assert!(first.contains("\"name\":\"block@0x1000\""));
        assert!(first.contains("\"ph\":\"X\""));
        assert!(first.contains("\"ts\":12,\"dur\":24"));
        assert!(first.contains("\"dropped_events\":0"));
        assert!(first.ends_with("}"));
    }

    #[test]
    fn clone_is_independent() {
        let mut p = Profiler::new();
        p.attribute(Phase::Execute, 9);
        let mut q = p.clone();
        q.attribute(Phase::Execute, 1);
        assert_eq!(p.phases.execute, 9);
        assert_eq!(q.phases.execute, 10);
    }
}
