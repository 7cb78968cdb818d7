//! The traced run's span store.
//!
//! Spans are recorded by the benchmark around its calls into each layer:
//! name, start, duration, parent span and op id, plus a call count for
//! the aggregated spans (one span per op stands for every call of a
//! per-block layer, whose individual calls are too many to keep). They
//! stay in memory and are written out once, when the run ends.
//!
//! A layer's self time is its spans' duration minus the part covered by
//! their child spans.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run, from 1).
    pub id: u32,
    /// Parent span id; 0 for an op's root span.
    pub parent: u32,
    /// The op this span belongs to.
    pub op: u32,
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration (for an aggregated span, the sum of its calls).
    pub dur_ns: u64,
    /// Calls the span stands for.
    pub count: u64,
}

/// In-memory span store with a shared time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds from the tracer's origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one span and returns its id.
    pub fn record(
        &mut self,
        op: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        dur_ns: u64,
        count: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.ns(start);
        self.spans.push(Span { id, parent, op, name, start_ns, dur_ns, count });
        id
    }

    /// Opens a span whose duration [`Tracer::close`] sets, so children can
    /// name it as their parent before it ends.
    pub fn open(&mut self, op: u32, parent: u32, name: &'static str, start: Instant) -> u32 {
        self.record(op, parent, name, start, 0, 1)
    }

    /// Ends the span `id` opened by [`Tracer::open`] at `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        let origin = self.origin;
        let span = &mut self.spans[id as usize - 1];
        let end_ns = end.saturating_duration_since(origin).as_nanos() as u64;
        span.dur_ns = end_ns.saturating_sub(span.start_ns);
    }

    /// Records a span over `[start, end]`.
    pub fn interval(
        &mut self,
        op: u32,
        parent: u32,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.record(op, parent, name, start, dur, 1)
    }

    /// Self time per layer name, in nanoseconds: each span's duration
    /// minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, i128> {
        let mut children: HashMap<u32, u64> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *children.entry(span.parent).or_default() += span.dur_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for span in &self.spans {
            let covered = children.get(&span.id).copied().unwrap_or(0);
            *totals.entry(span.name).or_default() += span.dur_ns as i128 - covered as i128;
        }
        totals
    }

    /// Writes the spans of a traced `workload` run over `ops` ops to
    /// `perfbench/out/spans-<workload>.jsonl`: a header object, then one
    /// JSON array per span, `[id, parent, op, "name", start_ns, dur_ns,
    /// count]`. Returns a note naming the file.
    pub fn write_spans(&self, workload: &str, ops: u64) -> Result<String, String> {
        let path = std::path::PathBuf::from(format!("perfbench/out/spans-{workload}.jsonl"));
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all("perfbench/out")?;
            let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
            writeln!(
                out,
                "{{\"schema\": \"perfbench/spans/v1\", \"workload\": \"{workload}\", \
                 \"ops\": {ops}, \"columns\": [\"id\", \"parent\", \"op\", \"name\", \
                 \"start_ns\", \"dur_ns\", \"count\"]}}"
            )?;
            for s in &self.spans {
                writeln!(
                    out,
                    "[{}, {}, {}, \"{}\", {}, {}, {}]",
                    s.id, s.parent, s.op, s.name, s.start_ns, s.dur_ns, s.count
                )?;
            }
            out.flush()
        };
        write().map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(format!("{} spans written to {}", self.spans.len(), path.display()))
    }
}

/// Accumulates the calls of one per-block layer within an op, recorded as
/// one aggregated span when the op ends.
#[derive(Debug, Default, Clone, Copy)]
pub struct Aggregate {
    first: Option<Instant>,
    dur_ns: u64,
    count: u64,
}

impl Aggregate {
    /// Adds one call over `[start, end]`.
    pub fn add(&mut self, start: Instant, end: Instant) {
        self.first.get_or_insert(start);
        self.dur_ns += end.saturating_duration_since(start).as_nanos() as u64;
        self.count += 1;
    }

    /// Records the aggregate under `parent` (nothing if no call happened).
    pub fn flush(self, tracer: &mut Tracer, op: u32, parent: u32, name: &'static str) {
        if let Some(first) = self.first {
            tracer.record(op, parent, name, first, self.dur_ns, self.count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let root = tracer.record(1, 0, "op", t0, 1_000, 1);
        let child = tracer.record(1, root, "child", t0, 600, 1);
        tracer.record(1, child, "grandchild", t0, 250, 1);
        tracer.record(1, root, "child", t0 + Duration::from_nanos(600), 100, 3);
        let self_ns = tracer.self_ns();
        assert_eq!(self_ns["op"], 300);
        assert_eq!(self_ns["child"], 450);
        assert_eq!(self_ns["grandchild"], 250);
        // Self times partition the root exactly.
        assert_eq!(self_ns.values().sum::<i128>(), 1_000);
    }

    #[test]
    fn aggregates_record_once_with_their_call_count() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let mut agg = Aggregate::default();
        agg.add(t0, t0 + Duration::from_nanos(40));
        agg.add(t0 + Duration::from_nanos(50), t0 + Duration::from_nanos(60));
        agg.flush(&mut tracer, 3, 0, "layer");
        Aggregate::default().flush(&mut tracer, 3, 0, "empty");
        assert_eq!(tracer.spans.len(), 1);
        let span = &tracer.spans[0];
        assert_eq!((span.dur_ns, span.count, span.op), (50, 2, 3));
    }
}
