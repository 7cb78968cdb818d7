//! A leveled, bounded, structured event log.
//!
//! Metrics aggregate and spans attribute; neither says *why* the router
//! failed a backend over or refused a token. [`EventLog`] is the missing
//! narrative channel: a bounded ring of structured records — sequence
//! number, level, target, message, key/value fields, optional trace id —
//! with an explicit dropped count, rendered as the single-line
//! `dbt-serve/logs/v1` body the `logs` protocol op serves.
//!
//! Same [`Ring`] as the span recorder: bounded memory, oldest-first
//! eviction surfaced as a count, wall-clock kept out entirely (ordering
//! comes from `seq`), and nothing here ever reaches a report body or a
//! `BENCH_*.json` artifact.

use crate::ring::Ring;
use dbt_json::escape;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default bound of an [`EventLog`] ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Schema tag of the body served by the `logs` protocol op.
pub const EVENT_LOG_SCHEMA: &str = "dbt-serve/logs/v1";

/// Severity of a [`LogRecord`], ordered `Debug < Info < Warn < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Chatty diagnostics.
    Debug,
    /// Normal lifecycle (listening, stopping, authenticated).
    Info,
    /// Degraded but handled (failover, probe failure, auth denial).
    Warn,
    /// Lost work or broken invariants (circuit breaker opened).
    Error,
}

impl LogLevel {
    /// The wire spelling (`"debug"`, `"info"`, `"warn"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parses the wire spelling back; `None` for anything else.
    pub fn parse(text: &str) -> Option<LogLevel> {
        match text {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Monotonic per-log sequence number (total order, no wall-clock).
    pub seq: u64,
    /// Severity.
    pub level: LogLevel,
    /// Dotted component that emitted the event (`router.failover`,
    /// `serve.lifecycle`, …).
    pub target: String,
    /// Human-readable summary.
    pub message: String,
    /// The request trace this event belongs to, when it has one.
    pub trace_id: Option<String>,
    /// Structured key/value context.
    pub fields: Vec<(String, String)>,
}

#[derive(Debug)]
struct LogRing {
    ring: Ring<LogRecord>,
    next_seq: u64,
}

/// A bounded ring of [`LogRecord`]s with oldest-first eviction.
#[derive(Debug)]
pub struct EventLog {
    inner: Mutex<LogRing>,
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

impl EventLog {
    /// A log bounded at [`DEFAULT_EVENT_CAPACITY`].
    pub fn new() -> EventLog {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A log bounded at `capacity` records (0 drops everything).
    pub(crate) fn with_capacity(capacity: usize) -> EventLog {
        EventLog { inner: Mutex::new(LogRing { ring: Ring::new(capacity), next_seq: 0 }) }
    }

    /// The ring, also after a panic elsewhere poisoned its lock: a push
    /// leaves it valid at every step (a record lost mid-append shows as a
    /// gap in `seq`, like an eviction).
    fn lock(&self) -> MutexGuard<'_, LogRing> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event. Sequence numbers keep counting across
    /// evictions, so gaps in a scrape reveal exactly what was lost.
    pub fn log(
        &self,
        level: LogLevel,
        target: &str,
        message: &str,
        trace_id: Option<&str>,
        fields: &[(&str, &str)],
    ) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.ring.push(LogRecord {
            seq,
            level,
            target: target.to_string(),
            message: message.to_string(),
            trace_id: trace_id.map(str::to_string),
            fields: fields.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        });
    }

    /// Records evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.lock().ring.dropped()
    }

    /// Retained records at or above `min_level`, oldest first.
    pub fn records(&self, min_level: LogLevel) -> Vec<LogRecord> {
        self.lock().ring.iter().filter(|record| record.level >= min_level).cloned().collect()
    }

    /// The `dbt-serve/logs/v1` body: every retained record at or above
    /// `min_level`, as a single JSON line.
    pub fn json(&self, min_level: LogLevel) -> String {
        let inner = self.lock();
        let mut body = format!(
            "{{\"schema\": \"{EVENT_LOG_SCHEMA}\", \"capacity\": {}, \"dropped\": {}, \
             \"min_level\": \"{}\", \"entries\": [",
            inner.ring.capacity(),
            inner.ring.dropped(),
            min_level.as_str(),
        );
        let records = inner.ring.iter().filter(|record| record.level >= min_level);
        for (index, record) in records.enumerate() {
            if index > 0 {
                body.push_str(", ");
            }
            let trace = match &record.trace_id {
                Some(trace) => format!("\"{}\"", escape(trace)),
                None => "null".to_string(),
            };
            let fields: Vec<String> = record
                .fields
                .iter()
                .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
                .collect();
            body.push_str(&format!(
                "{{\"seq\": {}, \"level\": \"{}\", \"target\": \"{}\", \"message\": \"{}\", \
                 \"trace_id\": {trace}, \"fields\": {{{}}}}}",
                record.seq,
                record.level.as_str(),
                escape(&record.target),
                escape(&record.message),
                fields.join(", "),
            ));
        }
        body.push_str("]}");
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_round_trip() {
        assert!(LogLevel::Debug < LogLevel::Info);
        assert!(LogLevel::Warn < LogLevel::Error);
        for level in [LogLevel::Debug, LogLevel::Info, LogLevel::Warn, LogLevel::Error] {
            assert_eq!(LogLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(LogLevel::parse("fatal"), None);
    }

    #[test]
    fn ring_is_bounded_and_seq_keeps_counting() {
        let log = EventLog::with_capacity(2);
        for message in ["a", "b", "c"] {
            log.log(LogLevel::Info, "test", message, None, &[]);
        }
        let kept: Vec<u64> = log.records(LogLevel::Debug).into_iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![1, 2], "seq must reveal the evicted head");
    }

    #[test]
    fn a_poisoned_lock_still_logs_and_renders() {
        let log = std::sync::Arc::new(EventLog::new());
        log.log(LogLevel::Info, "test", "before", None, &[]);
        let poisoner = std::sync::Arc::clone(&log);
        let panicked = std::thread::spawn(move || {
            let _inner = poisoner.inner.lock().unwrap();
            panic!("a panic while the event log's lock is held");
        })
        .join();
        assert!(panicked.is_err() && log.inner.is_poisoned());
        log.log(LogLevel::Warn, "test", "after", None, &[]);
        let kept: Vec<u64> = log.records(LogLevel::Debug).into_iter().map(|r| r.seq).collect();
        assert_eq!(kept, vec![0, 1]);
        assert!(log.json(LogLevel::Warn).contains("\"message\": \"after\""));
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn level_filter_hides_quieter_records() {
        let log = EventLog::new();
        log.log(LogLevel::Debug, "test", "noise", None, &[]);
        log.log(LogLevel::Warn, "test", "trouble", None, &[]);
        assert_eq!(log.records(LogLevel::Warn).len(), 1);
        assert_eq!(log.records(LogLevel::Debug).len(), 2);
    }

    #[test]
    fn json_body_carries_fields_trace_ids_and_drop_count() {
        let log = EventLog::with_capacity(1);
        log.log(LogLevel::Info, "router.failover", "evicted", None, &[]);
        log.log(LogLevel::Warn, "router.failover", "backend down", Some("t7"), &[("backend", "1")]);
        let body = log.json(LogLevel::Info);
        assert!(
            body.starts_with("{\"schema\": \"dbt-serve/logs/v1\", \"capacity\": 1, "),
            "{body}"
        );
        assert!(body.contains("\"dropped\": 1"), "{body}");
        assert!(body.contains("\"trace_id\": \"t7\""), "{body}");
        assert!(body.contains("\"fields\": {\"backend\": \"1\"}"), "{body}");
        assert!(!body.contains("evicted"), "{body}");
    }
}
