//! `dbt-obs` — the lab's observability layer: metrics and phase timing.
//!
//! Everything above the simulated platform wants the same three things:
//! counters (requests, cache hits, rejections), gauges (queue depth,
//! in-flight work, resident entries) and latency histograms (per-op
//! request time, per-phase pipeline time). This crate provides exactly
//! those, std-only like the rest of the workspace, plus:
//!
//! * a [`MetricsRegistry`] whose [`MetricsRegistry::render`] emits
//!   **byte-stable Prometheus text-format exposition** — the body of the
//!   daemon's protocol-v2 `metrics` op (see `docs/PROTOCOL.md`);
//! * one RAII timer, [`Span`]: on drop it records the elapsed time into
//!   an optional histogram and into the thread's active trace, if any;
//! * fixed workspace-wide latency buckets
//!   ([`DEFAULT_LATENCY_BOUNDS_MICROS`]) and deterministic bucket-edge
//!   quantiles ([`Histogram::quantile_micros`]) for the load generator's
//!   p50/p95/p99 reporting;
//! * a [`Profiler`] that lives *inside* the simulated core and counts in
//!   the **cycle domain** only — per-phase cycle attribution, speculation
//!   event counters, and a bounded flight recorder exporting Chrome
//!   `trace_event` JSON (`lab profile … --trace`);
//! * a [`SpanRecorder`] of causal per-request spans (trace id, span id,
//!   parent, stage, start/duration micros from an injectable
//!   [`TraceClock`]) with ambient cross-thread propagation
//!   ([`TraceHandle`] / [`TraceScope`]) — the daemon and router stitch
//!   these into the `trace` op's `dbt-serve/trace/v1` tree;
//! * an [`EventLog`] — a leveled, bounded ring of structured
//!   `{seq, level, target, message, fields}` records correlated by trace
//!   id, served by the `logs` op as `dbt-serve/logs/v1`;
//! * a [`Ring`] — the one bounded newest-kept buffer with a `dropped`
//!   count behind the span recorder, the event log and the flight recorder.
//!
//! Two invariants shape the design:
//!
//! 1. **Observability never perturbs determinism.** Metrics are written
//!    by wall-clock instrumentation and read only at scrape time;
//!    nothing in the simulation consumes them, and nothing timed ever
//!    lands in a `BENCH_*.json` artifact.
//! 2. **Hot paths stay hot.** Handles are resolved once at registration
//!    (the only place a lock is taken) and updated with relaxed
//!    atomics.
//!
//! Metric families follow the `dbt_<layer>_<name>` naming convention
//! (`dbt_serve_requests_total`, `dbt_runmemo_hits_total`, …).

mod eventlog;
mod metric;
mod profiler;
mod registry;
mod ring;
mod spanrec;

pub use eventlog::{EventLog, LogLevel, LogRecord, DEFAULT_EVENT_CAPACITY, EVENT_LOG_SCHEMA};
pub use metric::{micros_as_seconds, Counter, Gauge, Histogram, DEFAULT_LATENCY_BOUNDS_MICROS};
pub use profiler::{Phase, PhaseCycles, Profiler, SpecEvents, TraceEvent, DEFAULT_TRACE_CAPACITY};
pub use registry::MetricsRegistry;
pub use ring::Ring;
pub use spanrec::{
    Span, SpanRecord, SpanRecorder, TraceClock, TraceHandle, TraceScope, DEFAULT_SPAN_CAPACITY,
    TRACE_TREE_SCHEMA,
};
