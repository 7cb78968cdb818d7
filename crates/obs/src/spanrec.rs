//! Causal request spans, and the one RAII timer every layer uses.
//!
//! A [`Span`] times one interval. On drop it records the elapsed time into
//! an optional [`Histogram`] ("how long does this stage take in
//! aggregate") and into the trace active on its thread, if any ("where did
//! *this* request's time go"): router relay, backend queue wait,
//! translate, simulate, encode, stitched across processes by trace id.
//!
//! * [`SpanRecord`] — one completed span: trace id, span id, optional
//!   parent span id, stage label, start/duration micros.
//! * [`TraceClock`] — the injectable time source. Production uses
//!   [`TraceClock::wall`]; determinism tests use [`TraceClock::scripted`],
//!   a counter that advances a fixed step per reading, which makes whole
//!   span trees byte-stable.
//! * [`SpanRecorder`] — a bounded [`Ring`] of finished spans with an
//!   explicit dropped count, plus the `dbt-serve/trace/v1` tree renderer
//!   the `trace` protocol op serves.
//! * [`TraceHandle`] / [`TraceScope`] — ambient context propagation. A
//!   server opens a handle per traced request and *enters* it on whichever
//!   thread runs the work (handles are `Send + Clone`), and deep layers
//!   open `Span::enter("simulate", None)` without ever seeing the
//!   recorder. With no scope active a span records only into its
//!   histogram, and with no histogram either it records nothing, so local
//!   CLI runs record nothing.
//!
//! ```
//! # use dbt_obs::{MetricsRegistry, Span, SpanRecorder, TraceClock, TraceHandle};
//! # use dbt_obs::DEFAULT_LATENCY_BOUNDS_MICROS;
//! # use std::sync::Arc;
//! let registry = MetricsRegistry::new();
//! let simulate =
//!     registry.histogram("dbt_simulate_seconds", "Simulation time.", DEFAULT_LATENCY_BOUNDS_MICROS);
//! let spans = Arc::new(SpanRecorder::new(TraceClock::scripted(10)));
//! let trace = TraceHandle::new(Arc::clone(&spans), "t1", "d", None);
//! {
//!     let _scope = trace.enter();
//!     let _span = Span::enter("simulate", Some(&simulate));
//!     // ... the stage ...
//! } // drop records the interval into the histogram and the trace
//! assert_eq!(simulate.count(), 1);
//! assert_eq!(spans.spans_for("t1")[0].span_id, "d:simulate");
//! ```
//!
//! Same invariant as every other corner of `dbt-obs`: wall-clock readings
//! appear only in observability output (metrics, the `trace` op, Chrome
//! exports), never in report bodies or `BENCH_*.json` artifacts.

use crate::metric::Histogram;
use crate::ring::Ring;
use dbt_json::escape;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default bound of a [`SpanRecorder`] ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 1024;

/// Schema tag of the span-tree body served by the `trace` protocol op.
pub const TRACE_TREE_SCHEMA: &str = "dbt-serve/trace/v1";

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The request's trace id — the stitching key across processes.
    pub trace_id: String,
    /// Span id, unique within the trace on one process (`d:simulate`,
    /// `r:relay`, `d:translate.codegen.1`, …).
    pub span_id: String,
    /// Parent span id; `None` marks a root (the router reparents backend
    /// roots under its relay span when stitching).
    pub parent: Option<String>,
    /// Stage label (`relay`, `queue-wait`, `simulate`, …).
    pub stage: String,
    /// Start, in micros of the recorder's clock.
    pub start_micros: u64,
    /// Duration in micros.
    pub duration_micros: u64,
}

#[derive(Debug)]
enum ClockKind {
    Wall(Instant),
    Scripted { ticks: AtomicU64, step: u64 },
}

/// The time source behind a [`SpanRecorder`].
#[derive(Debug)]
pub struct TraceClock {
    kind: ClockKind,
}

impl TraceClock {
    /// Real wall-clock micros since clock creation (production).
    pub fn wall() -> TraceClock {
        TraceClock { kind: ClockKind::Wall(Instant::now()) }
    }

    /// A scripted clock: every reading advances by `step_micros`, so span
    /// trees built under it are byte-stable run over run.
    pub fn scripted(step_micros: u64) -> TraceClock {
        TraceClock { kind: ClockKind::Scripted { ticks: AtomicU64::new(0), step: step_micros } }
    }

    /// Current reading in micros.
    pub fn now_micros(&self) -> u64 {
        match &self.kind {
            ClockKind::Wall(epoch) => epoch.elapsed().as_micros() as u64,
            ClockKind::Scripted { ticks, step } => {
                ticks.fetch_add(1, Ordering::Relaxed).saturating_mul(*step)
            }
        }
    }
}

/// A bounded [`Ring`] of finished [`SpanRecord`]s sharing one [`TraceClock`].
///
/// Oldest spans are evicted first and counted in
/// [`SpanRecorder::dropped`], which every rendered tree surfaces — a
/// truncated trace is visible, never silent.
#[derive(Debug)]
pub struct SpanRecorder {
    clock: TraceClock,
    ring: Mutex<Ring<SpanRecord>>,
}

impl SpanRecorder {
    /// A recorder bounded at [`DEFAULT_SPAN_CAPACITY`].
    pub fn new(clock: TraceClock) -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY, clock)
    }

    /// A recorder bounded at `capacity` spans (0 drops everything).
    pub(crate) fn with_capacity(capacity: usize, clock: TraceClock) -> SpanRecorder {
        SpanRecorder { clock, ring: Mutex::new(Ring::new(capacity)) }
    }

    /// Current clock reading in micros.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The ring, also after a panic elsewhere poisoned its lock: a push
    /// leaves it valid at every step, and a [`Span`] records from `Drop`,
    /// where a panic could abort an unwinding thread.
    fn ring(&self) -> MutexGuard<'_, Ring<SpanRecord>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one finished span, evicting the oldest at capacity.
    fn record(&self, record: SpanRecord) {
        self.ring().push(record);
    }

    /// Spans evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped()
    }

    /// All retained spans of `trace_id`, in recording order.
    pub fn spans_for(&self, trace_id: &str) -> Vec<SpanRecord> {
        self.ring().iter().filter(|span| span.trace_id == trace_id).cloned().collect()
    }

    /// The `dbt-serve/trace/v1` tree of `trace_id` as a single JSON line.
    pub fn tree_json(&self, trace_id: &str) -> String {
        SpanRecorder::render_tree(trace_id, &self.spans_for(trace_id), self.dropped())
    }

    /// Renders `spans` as a `dbt-serve/trace/v1` body. Public so the
    /// router can emit the *same* format for a stitched router+backend
    /// span set.
    pub fn render_tree(trace_id: &str, spans: &[SpanRecord], dropped: u64) -> String {
        let mut body = format!(
            "{{\"schema\": \"{TRACE_TREE_SCHEMA}\", \"trace_id\": \"{}\", \"dropped\": {dropped}, \"spans\": [",
            escape(trace_id)
        );
        for (index, span) in spans.iter().enumerate() {
            if index > 0 {
                body.push_str(", ");
            }
            let parent = match &span.parent {
                Some(parent) => format!("\"{}\"", escape(parent)),
                None => "null".to_string(),
            };
            body.push_str(&format!(
                "{{\"span_id\": \"{}\", \"parent\": {parent}, \"stage\": \"{}\", \
                 \"start_micros\": {}, \"duration_micros\": {}}}",
                escape(&span.span_id),
                escape(&span.stage),
                span.start_micros,
                span.duration_micros,
            ));
        }
        body.push_str("]}");
        body
    }
}

#[derive(Debug)]
struct ActiveScope {
    handle: TraceHandle,
    /// Ids of the spans open on this thread, innermost last.
    stack: Vec<String>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// The shared identity of one traced request: recorder, trace id, span-id
/// prefix and the span new spans attach under when none is open on their
/// thread.
///
/// Cheap to clone and `Send`, so the thread that accepts a request can
/// hand the context to the threads that execute it (the sweep executor's
/// scoped workers, the simulation thread).
#[derive(Debug, Clone)]
pub struct TraceHandle {
    recorder: Arc<SpanRecorder>,
    trace_id: Arc<str>,
    prefix: Arc<str>,
    parent: Option<Arc<str>>,
    // Occurrence counts per stage label, shared across every thread that
    // enters this handle so span ids stay unique within the trace.
    counts: Arc<Mutex<HashMap<String, u64>>>,
}

impl TraceHandle {
    /// A handle recording into `recorder` under `trace_id`. Spans get ids
    /// `"{prefix}:{stage}"`; one opened while no span is open on its thread
    /// attaches under `parent` (`None` makes it a root).
    pub fn new(
        recorder: Arc<SpanRecorder>,
        trace_id: &str,
        prefix: &str,
        parent: Option<&str>,
    ) -> TraceHandle {
        TraceHandle {
            recorder,
            trace_id: trace_id.into(),
            prefix: prefix.into(),
            parent: parent.map(Into::into),
            counts: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Activates this handle on the current thread until the returned
    /// guard drops; every [`Span`] opened meanwhile records through it.
    pub fn enter(&self) -> TraceScope {
        let previous = ACTIVE.with(|active| {
            active.borrow_mut().replace(ActiveScope { handle: self.clone(), stack: Vec::new() })
        });
        TraceScope { previous }
    }

    /// The handle active on the current thread, if any, parented under
    /// the innermost span open here. Capture it before spawning threads,
    /// then [`TraceHandle::enter`] it inside each so their spans keep
    /// flowing into the same trace under the same parent.
    pub fn current() -> Option<TraceHandle> {
        ACTIVE.with(|active| {
            let active = active.borrow();
            let scope = active.as_ref()?;
            let mut handle = scope.handle.clone();
            if let Some(open) = scope.stack.last() {
                handle.parent = Some(open.as_str().into());
            }
            Some(handle)
        })
    }

    /// `"{prefix}:{stage}"` for the first occurrence of a stage in the
    /// trace, `"{prefix}:{stage}.{n}"` for repeats.
    fn next_span_id(&self, stage: &str) -> String {
        // A poisoned lock is recovered: bumping one count cannot be left
        // half done, and spans record from `Drop`, where a panic could
        // abort an unwinding thread.
        let mut counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = counts.entry(stage.to_string()).or_insert(0);
        let occurrence = *slot;
        *slot += 1;
        if occurrence == 0 {
            format!("{}:{stage}", self.prefix)
        } else {
            format!("{}:{stage}.{occurrence}", self.prefix)
        }
    }
}

/// RAII guard of an active [`TraceHandle`]; restores the thread's
/// previous scope (usually none) on drop.
#[derive(Debug)]
pub struct TraceScope {
    previous: Option<ActiveScope>,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        ACTIVE.with(|active| {
            *active.borrow_mut() = self.previous.take();
        });
    }
}

/// One timed interval; records on drop.
///
/// Under an active trace scope it reads the trace's clock twice (open and
/// close) and records one [`SpanRecord`], parented under the innermost
/// span open on this thread, and the same duration into its histogram.
/// With no scope active it times its histogram by the wall clock, and
/// with no histogram either it is inert and reads no clock.
#[derive(Debug)]
#[must_use = "a span records when dropped; binding it to _ would record immediately"]
pub struct Span {
    histogram: Option<Arc<Histogram>>,
    timing: Timing,
}

#[derive(Debug)]
enum Timing {
    Traced(OpenSpan),
    Wall(Instant),
    Inert,
}

#[derive(Debug)]
struct OpenSpan {
    handle: TraceHandle,
    span_id: String,
    parent: Option<String>,
    stage: String,
    start_micros: u64,
}

impl Span {
    /// Opens a span of `stage` that also times into `histogram`, if given.
    pub fn enter(stage: &str, histogram: Option<&Arc<Histogram>>) -> Span {
        Span::open(stage, None, None, histogram)
    }

    /// [`Span::enter`] for the `n`-th of a numbered series: its id is
    /// `"{prefix}:{stage}.{n}"`, whatever the stage's occurrence count.
    pub fn numbered(stage: &str, n: u64) -> Span {
        Span::open(stage, Some(n), None, None)
    }

    /// [`Span::enter`] whose trace record starts at `start_micros`, an
    /// earlier reading of the active trace's clock (a request's root and
    /// its decode span start before the frame naming the trace is read).
    /// With no scope active it times from now.
    pub fn since(stage: &str, start_micros: u64, histogram: Option<&Arc<Histogram>>) -> Span {
        Span::open(stage, None, Some(start_micros), histogram)
    }

    fn open(
        stage: &str,
        number: Option<u64>,
        start_micros: Option<u64>,
        histogram: Option<&Arc<Histogram>>,
    ) -> Span {
        let open = ACTIVE.with(|active| {
            let mut active = active.borrow_mut();
            let scope = active.as_mut()?;
            let handle = scope.handle.clone();
            let span_id = match number {
                Some(n) => format!("{}:{stage}.{n}", handle.prefix),
                None => handle.next_span_id(stage),
            };
            let parent =
                scope.stack.last().cloned().or_else(|| handle.parent.as_deref().map(Into::into));
            scope.stack.push(span_id.clone());
            let start_micros = start_micros.unwrap_or_else(|| handle.recorder.now_micros());
            Some(OpenSpan { handle, span_id, parent, stage: stage.to_string(), start_micros })
        });
        let timing = match open {
            Some(open) => Timing::Traced(open),
            None if histogram.is_some() => Timing::Wall(Instant::now()),
            None => Timing::Inert,
        };
        Span { histogram: histogram.cloned(), timing }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let micros = match std::mem::replace(&mut self.timing, Timing::Inert) {
            Timing::Traced(open) => open.close(),
            Timing::Wall(started) => {
                u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
            }
            Timing::Inert => return,
        };
        if let Some(histogram) = &self.histogram {
            histogram.observe_micros(micros);
        }
    }
}

impl OpenSpan {
    /// Pops the span off its thread's stack and records it; returns its
    /// duration in micros.
    fn close(self) -> u64 {
        let end = self.handle.recorder.now_micros();
        ACTIVE.with(|active| {
            if let Some(scope) = active.borrow_mut().as_mut() {
                if let Some(position) = scope.stack.iter().rposition(|id| *id == self.span_id) {
                    scope.stack.remove(position);
                }
            }
        });
        let duration_micros = end.saturating_sub(self.start_micros);
        self.handle.recorder.record(SpanRecord {
            trace_id: self.handle.trace_id.to_string(),
            span_id: self.span_id,
            parent: self.parent,
            stage: self.stage,
            start_micros: self.start_micros,
            duration_micros,
        });
        duration_micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::DEFAULT_LATENCY_BOUNDS_MICROS;

    fn recorder(capacity: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::with_capacity(capacity, TraceClock::scripted(10)))
    }

    fn histogram(registry: &MetricsRegistry, phase: &str) -> Arc<Histogram> {
        let bounds = DEFAULT_LATENCY_BOUNDS_MICROS;
        registry.histogram_with("dbt_test_seconds", "t", bounds, &[("phase", phase)])
    }

    #[test]
    fn scripted_clock_advances_a_fixed_step_per_reading() {
        let clock = TraceClock::scripted(10);
        assert_eq!(clock.now_micros(), 0);
        assert_eq!(clock.now_micros(), 10);
        assert_eq!(clock.now_micros(), 20);
    }

    #[test]
    fn a_span_records_once_into_its_histogram_and_once_into_the_trace() {
        let registry = MetricsRegistry::new();
        let codegen = histogram(&registry, "codegen");
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", Some("d:request"));
        {
            let _scope = handle.enter();
            let _span = Span::enter("translate.codegen", Some(&codegen));
            assert_eq!(codegen.count(), 0, "nothing recorded in flight");
            assert!(spans.spans_for("t1").is_empty());
        }
        let tree = spans.spans_for("t1");
        assert_eq!(tree.len(), 1);
        assert_eq!(codegen.count(), 1);
        // One interval: the histogram holds the very duration the trace does.
        assert_eq!((tree[0].duration_micros, codegen.sum_micros()), (10, 10));
    }

    #[test]
    fn nested_spans_attribute_to_their_own_phases() {
        // Without a trace scope each span times only its own histogram:
        // the inner one records at its drop, the outer one stays in flight.
        let registry = MetricsRegistry::new();
        let (outer, inner) = (histogram(&registry, "outer"), histogram(&registry, "inner"));
        {
            let _outer = Span::enter("outer", Some(&outer));
            drop(Span::enter("inner", Some(&inner)));
            assert_eq!((outer.count(), inner.count()), (0, 1), "outer still in flight");
        }
        assert_eq!((outer.count(), inner.count()), (1, 1));
    }

    #[test]
    fn spans_are_inert_without_a_scope() {
        let spans = recorder(16);
        let _idle = TraceHandle::new(Arc::clone(&spans), "t1", "d", None);
        drop(Span::enter("simulate", None));
        drop(Span::numbered("probe", 3));
        drop(Span::since("decode", 0, None));
        assert!(spans.spans_for("t1").is_empty());
        assert_eq!(spans.dropped(), 0);
        assert_eq!(spans.now_micros(), 0, "a handle not entered is never read");
    }

    #[test]
    fn stage_spans_nest_under_the_active_scope() {
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", Some("d:request"));
        {
            let _scope = handle.enter();
            let outer = Span::enter("translate", None);
            let _inner = Span::enter("translate.analysis", None);
            drop(outer);
        }
        let tree = spans.spans_for("t1");
        let analysis = tree.iter().find(|s| s.stage == "translate.analysis").unwrap();
        assert_eq!(analysis.span_id, "d:translate.analysis");
        assert_eq!(analysis.parent.as_deref(), Some("d:translate"));
        let translate = tree.iter().find(|s| s.stage == "translate").unwrap();
        assert_eq!(translate.parent.as_deref(), Some("d:request"));
    }

    #[test]
    fn a_backdated_root_parents_its_children_and_numbered_spans_keep_their_number() {
        let spans = recorder(16);
        let start = spans.now_micros();
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "r", None);
        {
            let _scope = handle.enter();
            let _root = Span::since("request", start, None);
            drop(Span::since("decode", start, None));
            drop(Span::numbered("failover-retry", 2));
        }
        let rows: Vec<(String, Option<String>, u64, u64)> = spans
            .spans_for("t1")
            .into_iter()
            .map(|s| (s.span_id, s.parent, s.start_micros, s.duration_micros))
            .collect();
        let request = Some("r:request".to_string());
        assert_eq!(
            rows,
            [
                ("r:decode".to_string(), request.clone(), 0, 10),
                ("r:failover-retry.2".to_string(), request, 20, 10),
                ("r:request".to_string(), None, 0, 40),
            ]
        );
    }

    #[test]
    fn repeated_stages_get_occurrence_suffixes() {
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", Some("d:request"));
        let _scope = handle.enter();
        drop(Span::enter("simulate", None));
        drop(Span::enter("simulate", None));
        let ids: Vec<String> = spans.spans_for("t1").into_iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec!["d:simulate", "d:simulate.1"]);
    }

    #[test]
    fn a_poisoned_span_count_lock_still_numbers_and_records_spans() {
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", None);
        let _scope = handle.enter();
        drop(Span::enter("simulate", None));
        let counts = Arc::clone(&handle.counts);
        let panicked = std::thread::spawn(move || {
            let _counts = counts.lock().unwrap();
            panic!("a panic while the span counts' lock is held");
        })
        .join();
        assert!(panicked.is_err() && handle.counts.is_poisoned());
        drop(Span::enter("simulate", None));
        let ids: Vec<String> = spans.spans_for("t1").into_iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec!["d:simulate", "d:simulate.1"]);
    }

    #[test]
    fn handles_cross_threads_and_keep_ids_unique() {
        let spans = recorder(64);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", None);
        let _scope = handle.enter();
        let _root = Span::enter("request", None);
        let captured = TraceHandle::current().expect("scope is active");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let worker = captured.clone();
                scope.spawn(move || {
                    let _scope = worker.enter();
                    drop(Span::enter("simulate", None));
                });
            }
        });
        let mut rows: Vec<(String, Option<String>)> =
            spans.spans_for("t1").into_iter().map(|s| (s.span_id, s.parent)).collect();
        rows.sort();
        let request = Some("d:request".to_string());
        assert_eq!(
            rows,
            [("d:simulate".to_string(), request.clone()), ("d:simulate.1".to_string(), request)],
            "worker spans hang under the span open where the handle was captured"
        );
    }

    #[test]
    fn tree_json_is_byte_stable_under_a_scripted_clock() {
        let render = || {
            let spans = recorder(16);
            let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", Some("d:request"));
            {
                let _scope = handle.enter();
                drop(Span::enter("simulate", None));
            }
            spans.tree_json("t1")
        };
        let first = render();
        assert_eq!(first, render(), "scripted trees must be byte-stable");
        assert_eq!(
            first,
            "{\"schema\": \"dbt-serve/trace/v1\", \"trace_id\": \"t1\", \"dropped\": 0, \
             \"spans\": [{\"span_id\": \"d:simulate\", \"parent\": \"d:request\", \
             \"stage\": \"simulate\", \"start_micros\": 0, \"duration_micros\": 10}]}"
        );
    }

    #[test]
    fn render_tree_escapes_ids_and_marks_roots_null() {
        let span = SpanRecord {
            trace_id: "t\"1".to_string(),
            span_id: "d:request".to_string(),
            parent: None,
            stage: "request".to_string(),
            start_micros: 5,
            duration_micros: 7,
        };
        let body = SpanRecorder::render_tree("t\"1", &[span], 3);
        assert!(body.contains("\"trace_id\": \"t\\\"1\""), "{body}");
        assert!(body.contains("\"parent\": null"), "{body}");
        assert!(body.contains("\"dropped\": 3"), "{body}");
    }
}
