//! Causal request spans: who spent the wall-clock time, stage by stage.
//!
//! [`Span`](crate::Span) (PR 6) answers "how long does this phase take in
//! aggregate" via histograms; this module answers "where did *this*
//! request's time go" with a per-request tree of spans — router relay,
//! backend queue wait, translate, simulate, encode — stitched across
//! processes by trace id.
//!
//! * [`SpanRecord`] — one completed span: trace id, span id, optional
//!   parent span id, stage label, start/duration micros.
//! * [`TraceClock`] — the injectable time source. Production uses
//!   [`TraceClock::wall`]; determinism tests use [`TraceClock::scripted`],
//!   a counter that advances a fixed step per reading, which makes whole
//!   span trees byte-stable.
//! * [`SpanRecorder`] — a bounded ring of finished spans with an explicit
//!   dropped count (the `Profiler` flight-recorder discipline), plus the
//!   `dbt-serve/trace/v1` tree renderer the `trace` protocol op serves.
//! * [`TraceHandle`] / [`TraceScope`] / [`StageSpan`] — ambient context
//!   propagation. A server opens a handle per traced request, *enters* it
//!   on whichever thread runs the work (worker pools included — handles
//!   are `Send + Clone`), and deep layers call
//!   `StageSpan::enter("simulate")` without ever seeing the recorder.
//!   With no scope active, `StageSpan::enter` is inert, so local CLI runs
//!   record nothing.
//!
//! Same invariant as every other corner of `dbt-obs`: wall-clock readings
//! appear only in observability output (the `trace` op, Chrome exports),
//! never in report bodies or `BENCH_*.json` artifacts.

use dbt_json::escape;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

#[derive(Debug)]
struct SpanRing {
    ring: VecDeque<SpanRecord>,
    dropped: u64,
}

/// A bounded ring of finished [`SpanRecord`]s sharing one [`TraceClock`].
///
/// Oldest spans are evicted first and counted in
/// [`SpanRecorder::dropped`], which every rendered tree surfaces — a
/// truncated trace is visible, never silent.
#[derive(Debug)]
pub struct SpanRecorder {
    capacity: usize,
    clock: TraceClock,
    inner: Mutex<SpanRing>,
}

impl SpanRecorder {
    /// A recorder bounded at [`DEFAULT_SPAN_CAPACITY`].
    pub fn new(clock: TraceClock) -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_SPAN_CAPACITY, clock)
    }

    /// A recorder bounded at `capacity` spans (0 drops everything).
    pub(crate) fn with_capacity(capacity: usize, clock: TraceClock) -> SpanRecorder {
        SpanRecorder {
            capacity,
            clock,
            inner: Mutex::new(SpanRing { ring: VecDeque::new(), dropped: 0 }),
        }
    }

    /// Current clock reading in micros.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The ring bound this recorder was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends one finished span, evicting the oldest at capacity.
    pub fn record(&self, record: SpanRecord) {
        let mut inner = self.inner.lock().expect("span ring lock poisoned");
        if self.capacity == 0 {
            inner.dropped += 1;
            return;
        }
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(record);
    }

    /// Spans evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("span ring lock poisoned").dropped
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span ring lock poisoned").ring.len()
    }

    /// True when the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All retained spans of `trace_id`, in recording order.
    pub fn spans_for(&self, trace_id: &str) -> Vec<SpanRecord> {
        let inner = self.inner.lock().expect("span ring lock poisoned");
        inner.ring.iter().filter(|span| span.trace_id == trace_id).cloned().collect()
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

struct ActiveScope {
    handle: TraceHandle,
    stack: Vec<String>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveScope>> = const { RefCell::new(None) };
}

/// The shared identity of one traced request: recorder, trace id, span-id
/// prefix and the span new stages attach under by default.
///
/// Cheap to clone and `Send`, so the thread that accepts a request can
/// hand the context to the pool threads that execute it (the daemon's
/// worker pool, the sweep executor's scoped threads).
#[derive(Debug, Clone)]
pub struct TraceHandle {
    recorder: Arc<SpanRecorder>,
    trace_id: Arc<str>,
    prefix: Arc<str>,
    parent: Arc<str>,
    // Occurrence counts per stage label, shared across every thread that
    // enters this handle so span ids stay unique within the trace.
    counts: Arc<Mutex<HashMap<String, u64>>>,
}

impl TraceHandle {
    /// A handle recording into `recorder` under `trace_id`; stage spans
    /// get ids `"{prefix}:{stage}"` and attach under `parent` when no
    /// enclosing [`StageSpan`] is active.
    pub fn new(
        recorder: Arc<SpanRecorder>,
        trace_id: &str,
        prefix: &str,
        parent: &str,
    ) -> TraceHandle {
        TraceHandle {
            recorder,
            trace_id: trace_id.into(),
            prefix: prefix.into(),
            parent: parent.into(),
            counts: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The trace id this handle records under.
    pub fn trace_id(&self) -> &str {
        &self.trace_id
    }

    /// Activates this handle on the current thread until the returned
    /// guard drops; [`StageSpan::enter`] records through it meanwhile.
    pub fn enter(&self) -> TraceScope {
        let previous = ACTIVE.with(|active| {
            active.borrow_mut().replace(ActiveScope { handle: self.clone(), stack: Vec::new() })
        });
        TraceScope { previous }
    }

    /// The handle active on the current thread, if any — capture it
    /// before spawning worker threads, then [`TraceHandle::enter`] inside
    /// each so deep-layer stage spans keep flowing into the same trace.
    pub fn current() -> Option<TraceHandle> {
        ACTIVE.with(|active| active.borrow().as_ref().map(|scope| scope.handle.clone()))
    }

    /// `"{prefix}:{stage}"` for the first occurrence of a stage in the
    /// trace, `"{prefix}:{stage}.{n}"` for repeats.
    fn next_span_id(&self, stage: &str) -> String {
        let mut counts = self.counts.lock().expect("span counts lock poisoned");
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

impl std::fmt::Debug for ActiveScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveScope").field("trace_id", &self.handle.trace_id()).finish()
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        ACTIVE.with(|active| {
            *active.borrow_mut() = self.previous.take();
        });
    }
}

/// A stage span under the thread's active trace scope; records one
/// [`SpanRecord`] on drop. Inert (and free) when no scope is active.
#[derive(Debug)]
pub struct StageSpan {
    state: Option<OpenSpan>,
}

#[derive(Debug)]
struct OpenSpan {
    handle: TraceHandle,
    span_id: String,
    parent: String,
    stage: String,
    start_micros: u64,
}

impl StageSpan {
    /// Opens a span for `stage`, parented under the innermost open
    /// [`StageSpan`] on this thread (or the handle's request root).
    pub fn enter(stage: &str) -> StageSpan {
        let state = ACTIVE.with(|active| {
            let mut active = active.borrow_mut();
            let scope = active.as_mut()?;
            let handle = scope.handle.clone();
            let span_id = handle.next_span_id(stage);
            let parent = scope.stack.last().cloned().unwrap_or_else(|| handle.parent.to_string());
            scope.stack.push(span_id.clone());
            let start_micros = handle.recorder.now_micros();
            Some(OpenSpan { handle, span_id, parent, stage: stage.to_string(), start_micros })
        });
        StageSpan { state }
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        let Some(open) = self.state.take() else { return };
        let end = open.handle.recorder.now_micros();
        ACTIVE.with(|active| {
            if let Some(scope) = active.borrow_mut().as_mut() {
                if let Some(position) = scope.stack.iter().rposition(|id| *id == open.span_id) {
                    scope.stack.remove(position);
                }
            }
        });
        open.handle.recorder.record(SpanRecord {
            trace_id: open.handle.trace_id.to_string(),
            span_id: open.span_id,
            parent: Some(open.parent),
            stage: open.stage,
            start_micros: open.start_micros,
            duration_micros: end.saturating_sub(open.start_micros),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(capacity: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder::with_capacity(capacity, TraceClock::scripted(10)))
    }

    fn record(spans: &SpanRecorder, trace: &str, id: &str) {
        spans.record(SpanRecord {
            trace_id: trace.to_string(),
            span_id: id.to_string(),
            parent: None,
            stage: id.to_string(),
            start_micros: 0,
            duration_micros: 1,
        });
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let spans = recorder(2);
        for id in ["a", "b", "c"] {
            record(&spans, "t", id);
        }
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.dropped(), 1);
        let kept: Vec<String> = spans.spans_for("t").into_iter().map(|s| s.span_id).collect();
        assert_eq!(kept, vec!["b", "c"], "oldest span must go first");
    }

    #[test]
    fn zero_capacity_recorder_drops_everything() {
        let spans = recorder(0);
        record(&spans, "t", "a");
        assert!(spans.is_empty());
        assert_eq!(spans.dropped(), 1);
    }

    #[test]
    fn scripted_clock_advances_a_fixed_step_per_reading() {
        let clock = TraceClock::scripted(10);
        assert_eq!(clock.now_micros(), 0);
        assert_eq!(clock.now_micros(), 10);
        assert_eq!(clock.now_micros(), 20);
    }

    #[test]
    fn stage_spans_nest_under_the_active_scope() {
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", "d:request");
        {
            let _scope = handle.enter();
            let outer = StageSpan::enter("translate");
            let _inner = StageSpan::enter("translate.analysis");
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
    fn repeated_stages_get_occurrence_suffixes() {
        let spans = recorder(16);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", "d:request");
        let _scope = handle.enter();
        drop(StageSpan::enter("simulate"));
        drop(StageSpan::enter("simulate"));
        let ids: Vec<String> = spans.spans_for("t1").into_iter().map(|s| s.span_id).collect();
        assert_eq!(ids, vec!["d:simulate", "d:simulate.1"]);
    }

    #[test]
    fn spans_are_inert_without_a_scope() {
        let spans = recorder(16);
        drop(StageSpan::enter("simulate"));
        assert!(spans.is_empty());
        assert_eq!(spans.dropped(), 0);
    }

    #[test]
    fn handles_cross_threads_and_keep_ids_unique() {
        let spans = recorder(64);
        let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", "d:request");
        let _scope = handle.enter();
        let captured = TraceHandle::current().expect("scope is active");
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let worker = captured.clone();
                scope.spawn(move || {
                    let _scope = worker.enter();
                    drop(StageSpan::enter("simulate"));
                });
            }
        });
        let mut ids: Vec<String> = spans.spans_for("t1").into_iter().map(|s| s.span_id).collect();
        ids.sort();
        assert_eq!(ids, vec!["d:simulate", "d:simulate.1"]);
    }

    #[test]
    fn tree_json_is_byte_stable_under_a_scripted_clock() {
        let render = || {
            let spans = recorder(16);
            let handle = TraceHandle::new(Arc::clone(&spans), "t1", "d", "d:request");
            {
                let _scope = handle.enter();
                drop(StageSpan::enter("simulate"));
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
