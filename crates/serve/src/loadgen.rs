//! The in-repo load generator: N concurrent clients hammering a daemon.
//!
//! [`drive`] opens `clients` connections, each of which submits the given
//! request list `iterations` times, and reports outcome counts. A
//! caller-supplied normalizer lets [`drive`] check *response
//! consistency* on the fly: every `ok` body is normalized (e.g. the lab
//! strips the warmth-dependent `stats` block) and compared against the
//! first body seen for the same request — so a sustained run proves not
//! just that the daemon keeps up but that every client sees identical
//! payloads.
//!
//! The outcome also carries client-observed latency percentiles and a
//! busy rate *per op* ([`OpLatency`]): each request round trip is timed
//! into a fixed-bucket histogram, and p50/p95/p99 are deterministic
//! bucket upper bounds. Timing data stays
//! out of the `BENCH_*.json` artifacts — it is operator output only, so
//! byte-stable determinism checks keep passing. Throughput is not
//! reported at all: `perfbench` is the repository's one source of speed
//! numbers.
//!
//! Every request is tagged with a deterministic trace id
//! (`c<client>-<seq>`) and the driver checks the server echoes it back
//! verbatim on the matching response — under full concurrency, a wrong or
//! missing echo means cross-request correlation broke, and is counted as
//! an error.

use crate::client::Client;
use crate::protocol::{Request, Response};
use dbt_obs::{Counter, Histogram, MetricsRegistry, Span, DEFAULT_LATENCY_BOUNDS_MICROS};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOptions {
    /// Number of concurrent client connections.
    pub clients: usize,
    /// How many times each client submits the whole request list.
    pub iterations: usize,
}

impl Default for LoadOptions {
    fn default() -> LoadOptions {
        LoadOptions { clients: 4, iterations: 8 }
    }
}

/// Per-op latency percentiles and busy rate, measured client-side over
/// one load run.
///
/// Percentiles come from a fixed-bucket histogram
/// ([`Histogram::quantile_micros`]), so they are deterministic bucket
/// upper bounds — and, the buckets starting at 50µs, always nonzero once
/// an op was exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpLatency {
    /// The request op (`run`, `sweep`, ...).
    pub op: String,
    /// Requests submitted for this op (every outcome, not just `ok`).
    pub requests: u64,
    /// `busy` answers for this op.
    pub busy: u64,
    /// Median round-trip latency, microseconds.
    pub p50_micros: u64,
    /// 95th-percentile round-trip latency, microseconds.
    pub p95_micros: u64,
    /// 99th-percentile round-trip latency, microseconds.
    pub p99_micros: u64,
    /// Round-trip micros of the slowest request observed for this op.
    pub slowest_micros: u64,
    /// Trace id of that slowest request (`c<client>-<seq>`) — the handle
    /// for fetching its span tree through the `trace` op afterwards.
    pub slowest_trace: String,
}

impl OpLatency {
    /// Fraction of this op's requests bounced with `busy`, in `[0, 1]`.
    pub fn busy_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.busy as f64 / self.requests as f64
        }
    }
}

/// What a load run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Total requests submitted.
    pub requests: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `busy` responses (bounced by backpressure).
    pub busy: u64,
    /// `error` responses and transport failures.
    pub errors: u64,
    /// `ok` bodies whose normalized form differed from the first response
    /// to the same request (must be 0 for a deterministic backend).
    pub mismatches: u64,
    /// Client-side latency percentiles and busy rate per distinct op, in
    /// op name order.
    pub per_op: Vec<OpLatency>,
}

/// Drives `opts.clients` concurrent clients against the daemon at `addr`,
/// each submitting `requests` in order `opts.iterations` times.
///
/// `normalize` maps an `ok` body to its comparison form before the
/// cross-client consistency check (identity if every body is expected to
/// be byte-identical as-is).
///
/// # Errors
///
/// Returns a message if a client cannot connect at all; per-request
/// failures are counted in the outcome instead.
pub fn drive(
    addr: SocketAddr,
    requests: &[Request],
    opts: LoadOptions,
    normalize: &(dyn Fn(&Request, &str) -> String + Sync),
) -> Result<LoadOutcome, String> {
    let ok = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let canonical: Vec<Mutex<Option<String>>> = requests.iter().map(|_| Mutex::new(None)).collect();
    // Slowest observed round trip per request slot: (micros, trace id).
    // The trace id is the handle for pulling that request's span tree
    // through the `trace` op once the run is over.
    let slowest: Vec<Mutex<(u64, String)>> =
        requests.iter().map(|_| Mutex::new((0, String::new()))).collect();

    // Per-op measurement on a run-local registry: a latency histogram plus
    // request/busy counters per distinct op, resolved once per request
    // slot so the client threads only touch atomics.
    let registry = MetricsRegistry::new();
    let measures: Vec<(Arc<Histogram>, Arc<Counter>, Arc<Counter>)> = requests
        .iter()
        .map(|request| {
            let labels = [("op", request.op())];
            (
                registry.histogram_with(
                    "dbt_loadgen_request_seconds",
                    "Client-observed round-trip latency, by op.",
                    DEFAULT_LATENCY_BOUNDS_MICROS,
                    &labels,
                ),
                registry.counter_with(
                    "dbt_loadgen_requests_total",
                    "Requests submitted, by op.",
                    &labels,
                ),
                registry.counter_with("dbt_loadgen_busy_total", "Busy answers, by op.", &labels),
            )
        })
        .collect();

    // Connect up front so a dead daemon is a hard error, not an error count.
    let mut clients = Vec::with_capacity(opts.clients);
    for i in 0..opts.clients {
        clients.push(Client::connect(addr).map_err(|e| format!("client {i} cannot connect: {e}"))?);
    }

    {
        let (ok, busy, errors, mismatches, canonical, measures, slowest) =
            (&ok, &busy, &errors, &mismatches, &canonical, &measures, &slowest);
        std::thread::scope(|scope| {
            for (client_index, mut client) in clients.drain(..).enumerate() {
                scope.spawn(move || {
                    let mut seq = 0u64;
                    for _ in 0..opts.iterations {
                        for (index, request) in requests.iter().enumerate() {
                            let (latency, submitted, busy_count) = &measures[index];
                            submitted.inc();
                            let trace_id = format!("c{client_index}-{seq}");
                            seq += 1;
                            let begun = Instant::now();
                            let traced = {
                                let _span = Span::on(latency);
                                client.request_traced(request, Some(&trace_id))
                            };
                            let took_micros = begun.elapsed().as_micros() as u64;
                            {
                                let mut slot =
                                    slowest[index].lock().expect("slowest slot poisoned");
                                if took_micros >= slot.0 {
                                    *slot = (took_micros, trace_id.clone());
                                }
                            }
                            // A wrong or missing trace echo is a broken
                            // response correlation: count it as an error,
                            // whatever the response status said.
                            let response = traced.and_then(|(response, echoed)| {
                                if echoed.as_deref() == Some(trace_id.as_str()) {
                                    Ok(response)
                                } else {
                                    Err(format!(
                                        "trace echo mismatch: sent `{trace_id}`, got {echoed:?}"
                                    ))
                                }
                            });
                            match response {
                                Ok(Response::Ok { body, .. }) => {
                                    ok.fetch_add(1, Ordering::SeqCst);
                                    let normalized = normalize(request, &body);
                                    let mut slot =
                                        canonical[index].lock().expect("canonical body poisoned");
                                    match slot.as_ref() {
                                        None => *slot = Some(normalized),
                                        Some(first) if *first == normalized => {}
                                        Some(_) => {
                                            mismatches.fetch_add(1, Ordering::SeqCst);
                                        }
                                    }
                                }
                                // A quota bounce is backpressure too: the
                                // router asked this client to slow down,
                                // exactly like a full daemon queue.
                                Ok(Response::Busy { .. } | Response::QuotaExceeded { .. }) => {
                                    busy.fetch_add(1, Ordering::SeqCst);
                                    busy_count.inc();
                                }
                                Ok(Response::Error { .. }) | Err(_) => {
                                    errors.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    // One OpLatency per distinct op, in name order (deterministic output
    // shape whatever the request mix order was).
    let mut ops: Vec<&str> = requests.iter().map(Request::op).collect();
    ops.sort_unstable();
    ops.dedup();
    let per_op = ops
        .into_iter()
        .map(|op| {
            let index = requests.iter().position(|request| request.op() == op).expect("op known");
            let (latency, submitted, busy_count) = &measures[index];
            // Several request slots may share an op; the op's slowest
            // request is the max across its slots.
            let (slowest_micros, slowest_trace) = requests
                .iter()
                .enumerate()
                .filter(|(_, request)| request.op() == op)
                .map(|(slot, _)| slowest[slot].lock().expect("slowest slot poisoned").clone())
                .max_by_key(|(micros, _)| *micros)
                .unwrap_or((0, String::new()));
            OpLatency {
                op: op.to_string(),
                requests: submitted.get(),
                busy: busy_count.get(),
                p50_micros: latency.quantile_micros(0.50),
                p95_micros: latency.quantile_micros(0.95),
                p99_micros: latency.quantile_micros(0.99),
                slowest_micros,
                slowest_trace,
            }
        })
        .collect();

    Ok(LoadOutcome {
        requests: (opts.clients * opts.iterations * requests.len()) as u64,
        ok: ok.into_inner(),
        busy: busy.into_inner(),
        errors: errors.into_inner(),
        mismatches: mismatches.into_inner(),
        per_op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve, LabBackend, ServerConfig};
    use std::sync::Arc;

    struct CountingBackend {
        runs: AtomicU64,
    }

    impl LabBackend for CountingBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            self.runs.fetch_add(1, Ordering::SeqCst);
            Ok(format!("result for {scenario}"))
        }
        fn sweep(&self, _name: &str, _threads: usize) -> Result<String, String> {
            Err("no sweeps here".to_string())
        }
        fn analyze(&self, _program: &str) -> Result<String, String> {
            Err("no analyses here".to_string())
        }
        fn stats_json(&self) -> String {
            format!("{{\"runs\": {}}}", self.runs.load(Ordering::SeqCst))
        }
    }

    #[test]
    fn drives_every_client_through_every_iteration() {
        let backend = Arc::new(CountingBackend { runs: AtomicU64::new(0) });
        let handle = serve(
            "127.0.0.1:0",
            Arc::clone(&backend) as Arc<dyn LabBackend>,
            ServerConfig { workers: 3, queue_depth: 32, ..ServerConfig::default() },
        )
        .unwrap();
        let requests = [
            Request::Run { scenario: "alpha".to_string() },
            Request::Run { scenario: "beta".to_string() },
            Request::Sweep { name: "nope".to_string(), threads: 0 },
        ];
        let outcome = drive(
            handle.addr(),
            &requests,
            LoadOptions { clients: 3, iterations: 4 },
            &|_, body| body.to_string(),
        )
        .unwrap();
        assert_eq!(outcome.requests, 36);
        assert_eq!(outcome.ok, 24, "both run requests succeed");
        assert_eq!(outcome.errors, 12, "the sweep request errors every time");
        assert_eq!(outcome.busy, 0);
        assert_eq!(outcome.mismatches, 0, "a deterministic backend never diverges");
        assert_eq!(backend.runs.load(Ordering::SeqCst), 24);

        // Per-op latency: distinct ops in name order, counts per op, and
        // nonzero monotone percentiles for every exercised op.
        let ops: Vec<&str> = outcome.per_op.iter().map(|o| o.op.as_str()).collect();
        assert_eq!(ops, ["run", "sweep"]);
        let run = &outcome.per_op[0];
        assert_eq!((run.requests, run.busy), (24, 0));
        let sweep = &outcome.per_op[1];
        assert_eq!(sweep.requests, 12, "errored requests are still measured");
        for op in &outcome.per_op {
            assert!(op.p50_micros > 0, "{op:?}");
            assert!(op.p50_micros <= op.p95_micros && op.p95_micros <= op.p99_micros, "{op:?}");
            assert_eq!(op.busy_rate(), 0.0);
            // Every exercised op remembers its slowest request's trace id.
            assert!(op.slowest_trace.starts_with('c'), "{op:?}");
        }

        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn divergent_bodies_are_counted_as_mismatches() {
        let backend = Arc::new(CountingBackend { runs: AtomicU64::new(0) });
        let handle = serve(
            "127.0.0.1:0",
            backend as Arc<dyn LabBackend>,
            ServerConfig { workers: 1, queue_depth: 8, ..ServerConfig::default() },
        )
        .unwrap();
        let requests = [Request::Run { scenario: "x".to_string() }];
        // A normalizer that leaks the (monotonic) backend call count makes
        // every response after the first "diverge".
        let outcome =
            drive(handle.addr(), &requests, LoadOptions { clients: 1, iterations: 3 }, &{
                let calls = AtomicU64::new(0);
                move |_: &Request, body: &str| {
                    format!("{}#{body}", calls.fetch_add(1, Ordering::SeqCst))
                }
            })
            .unwrap();
        assert_eq!(outcome.ok, 3);
        assert_eq!(outcome.mismatches, 2);
        handle.shutdown();
        handle.wait();
    }
}
