//! The router itself: listener, per-connection handlers, backend pools,
//! the health prober and the fleet fan-out ops.
//!
//! Request flow:
//!
//! 1. the daemon's own accept and line loops ([`spawn_acceptor`]) read
//!    one NDJSON frame, decoded with its v3 envelope ([`FrameMeta`]);
//!    every socket the router touches is a `dbt-serve` [`Conn`];
//! 2. the auth gate and the per-client token bucket run first — both off
//!    by default, both answered by the router itself (`error` /
//!    `quota_exceeded` frames), so no denied request ever reaches a
//!    backend;
//! 3. heavy ops are **relayed raw**: the client's original frame bytes
//!    (plus the router's generated trace id when the frame has none) go
//!    to the backend chosen by the consistent-hash ring, and the
//!    backend's response line comes back verbatim — byte-identical to
//!    talking to that daemon directly, trace-id echo included. Transport
//!    failures fail over along the ring's preference order with
//!    exponential backoff; `busy`/`error` answers are relayed, never
//!    retried (the backend spoke — backpressure and failures must stay
//!    visible);
//! 4. `upload` is relayed to the key's owner and then replicated to
//!    every other live backend, so `fp:` refs resolve on any shard;
//! 5. `stats`/`metrics`/`health` fan out to the whole fleet and answer a
//!    merged body (per-backend sections, `backend="<i>"` labels on
//!    merged metrics).
//!
//! Backend death is survived three ways: a periodic health prober flips
//! the per-backend `up` flag, consecutive transport failures trip a
//! circuit breaker ([`RouterConfig::failure_threshold`]), and every
//! relay walks reachable backends first. A `shutdown` frame stops the
//! router only — backends are independent processes with their own
//! lifecycle.
//!
//! The router is also the fleet's tracing front door: every heavy frame
//! gets an `r:request` root span with `r:relay` / `r:failover-retry.<n>`
//! children (probe rounds get spans of their own under the synthetic
//! `probe` trace), and the `trace` op answers a *stitched* tree — the
//! router's spans plus the owning backend's, the backend's roots
//! reparented under the successful relay span. A relayed frame without a
//! `trace_id` gets the router's generated `r<n>` spliced in, so the
//! backend records (and echoes) the same id; frames that carry one stay
//! byte-verbatim.
//! Failover, circuit-break, probe and auth decisions are narrated into a
//! structured [`EventLog`] served by the `logs` op.

use crate::limiter::TokenBucket;
use crate::merge::merge_expositions;
use crate::ring::{HashRing, DEFAULT_RING_REPLICAS};
use dbt_json::escape;
use dbt_obs::{
    Counter, EventLog, Gauge, LogLevel, MetricsRegistry, Ring, Span, SpanRecord, SpanRecorder,
    TraceClock, TraceHandle,
};
use dbt_serve::{
    logs_response, spawn_acceptor, wake_acceptor, Conn, ConnectOptions, FrameMeta, JsonValue,
    LineService, OpMetrics, Request, Response, DEFAULT_MAX_FRAME_BYTES,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The deterministic per-client rate quota (off unless set on
/// [`RouterConfig::quota`]): a token bucket per auth token (or per peer
/// IP for unauthenticated fleets), spending one token per heavy request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Refill rate, tokens per second.
    pub rate_per_sec: u64,
    /// Bucket capacity: how many requests a client may burst.
    pub burst: u64,
}

/// Router knobs. The default is a pure relay: no auth, no quota —
/// protocol-v2 clients work through it untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Virtual ring points per backend ([`DEFAULT_RING_REPLICAS`]).
    pub replicas: usize,
    /// Accepted bearer tokens; empty = auth off. With tokens configured,
    /// a connection must present one valid `auth` member before any
    /// non-`health` request is forwarded (the connection stays
    /// authenticated afterwards).
    pub auth_tokens: Vec<String>,
    /// Per-client rate quota; `None` = off.
    pub quota: Option<QuotaConfig>,
    /// How often the prober health-checks every backend.
    pub probe_interval: Duration,
    /// Connect/read timeout of one health probe.
    pub probe_timeout: Duration,
    /// Consecutive transport failures that trip a backend's circuit
    /// breaker (a successful forward or probe closes it again).
    pub failure_threshold: u32,
    /// Initial pause before retrying a failed relay on the next backend;
    /// doubles per attempt.
    pub retry_backoff: Duration,
    /// Bound on one request line, as in `dbt-serve`.
    pub max_frame_bytes: usize,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            replicas: DEFAULT_RING_REPLICAS,
            auth_tokens: Vec::new(),
            quota: None,
            probe_interval: Duration::from_secs(1),
            probe_timeout: Duration::from_millis(250),
            failure_threshold: 3,
            retry_backoff: Duration::from_millis(10),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        }
    }
}

/// Locks `mutex`, also after a panic elsewhere poisoned it: no code that
/// could leave a pool, trace-owner ring, quota bucket or the probe wake
/// flag half updated runs under the router's locks, and a request panic
/// must not turn every later relay into another panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One backend daemon: address, breaker state, connection pool and its
/// pre-registered per-backend metric handles.
struct Backend {
    index: usize,
    addr: SocketAddr,
    /// The breaker: `false` while the backend is considered dead.
    up: AtomicBool,
    /// Consecutive transport failures since the last success.
    failures: AtomicU32,
    pool: Mutex<Vec<Conn>>,
    /// `dbt_router_forwarded_total{backend="<index>"}`.
    forwarded: Arc<Counter>,
    /// `dbt_router_backend_up{backend="<index>"}`.
    up_gauge: Arc<Gauge>,
}

impl Backend {
    fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    /// Sends `line` and returns the backend's raw response line, reusing
    /// a pooled connection when one exists (one silent retry on a fresh
    /// connection covers pool entries whose daemon restarted).
    fn forward(&self, line: &str) -> std::io::Result<String> {
        let pooled = lock(&self.pool).pop();
        if let Some(mut conn) = pooled {
            if let Ok(reply) = conn.roundtrip(line) {
                self.forwarded.inc();
                lock(&self.pool).push(conn);
                return Ok(reply);
            }
            // The pooled connection went stale; fall through to a fresh one.
        }
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.roundtrip(line)?;
        self.forwarded.inc();
        lock(&self.pool).push(conn);
        Ok(reply)
    }

    /// A forward or probe succeeded: reset the breaker.
    fn record_success(&self) {
        self.failures.store(0, Ordering::SeqCst);
        self.up.store(true, Ordering::SeqCst);
        self.up_gauge.set(1);
    }

    /// A forward failed at the transport level: count it, trip the
    /// breaker at the threshold.
    fn record_failure(&self, threshold: u32) {
        let failures = self.failures.fetch_add(1, Ordering::SeqCst) + 1;
        if failures >= threshold {
            self.set_down();
        }
    }

    /// Marks the backend dead immediately (a failed health probe is
    /// definitive — `health` is answered inline by any live daemon).
    fn set_down(&self) {
        self.up.store(false, Ordering::SeqCst);
        self.up_gauge.set(0);
        // Pooled connections point at a dead peer; drop them.
        lock(&self.pool).clear();
    }
}

/// The router's own metric families on a per-router registry, resolved
/// once at startup.
struct RouterMetrics {
    registry: Arc<MetricsRegistry>,
    ops: OpMetrics,
    failovers: Arc<Counter>,
    busy_relayed: Arc<Counter>,
    auth_failures: Arc<Counter>,
    quota_exceeded: Arc<Counter>,
    probes: Arc<Counter>,
    probe_failures: Arc<Counter>,
    replications: Arc<Counter>,
    replication_failures: Arc<Counter>,
}

impl RouterMetrics {
    fn new() -> RouterMetrics {
        let registry = MetricsRegistry::new();
        let ops_help = [
            "Request frames seen by the router, by op (`invalid` = never decoded).",
            "Wall-clock request latency through the router, by op.",
        ];
        RouterMetrics {
            ops: OpMetrics::register(&registry, "dbt_router", ops_help),
            failovers: registry.counter(
                "dbt_router_failovers_total",
                "Relay attempts moved to the next backend after a transport failure.",
            ),
            busy_relayed: registry.counter(
                "dbt_router_busy_relayed_total",
                "Backend `busy` answers relayed to clients (backpressure is end-to-end).",
            ),
            auth_failures: registry.counter(
                "dbt_router_auth_failures_total",
                "Requests denied by the auth gate (missing or invalid bearer token).",
            ),
            quota_exceeded: registry.counter(
                "dbt_router_quota_exceeded_total",
                "Requests bounced by the per-client token bucket.",
            ),
            probes: registry.counter("dbt_router_probes_total", "Health probes sent to backends."),
            probe_failures: registry
                .counter("dbt_router_probe_failures_total", "Health probes that failed."),
            replications: registry.counter(
                "dbt_router_replications_total",
                "Upload frames replicated to non-owner backends.",
            ),
            replication_failures: registry.counter(
                "dbt_router_replication_failures_total",
                "Upload replications that failed (the shard misses the program until re-upload).",
            ),
            registry,
        }
    }
}

/// Where a decoded request goes.
enum Route {
    /// Relay to the key's owner, failing over along the ring preference.
    Key(String),
    /// Relay to the key's owner, then replicate to every other live
    /// backend (`upload`).
    Replicate(String),
    /// Ask every backend and answer a merged body.
    FanOut,
    /// Answered by the router itself from its own observability rings
    /// (`trace` = the stitched span tree, `logs` = the event log).
    Observe,
    /// Stop the router (backends keep running).
    Stop,
}

/// The routing key of a request: which backend serves it. Keys are
/// derived from the *program*, so every op touching the same program
/// lands on the same shard and its translation/memo caches stay warm.
fn route(request: &Request) -> Route {
    match request {
        Request::Run { scenario } => Route::Key(scenario_key(scenario)),
        Request::RunProgram { program, .. }
        | Request::Analyze { program }
        | Request::Profile { program, .. } => Route::Key(normalize_ref(program)),
        Request::Sweep { name, .. } => Route::Key(format!("sweep:{name}")),
        Request::Upload { source } => Route::Replicate(source.text().to_string()),
        Request::Stats | Request::Metrics | Request::Health => Route::FanOut,
        Request::Trace { .. } | Request::Logs { .. } => Route::Observe,
        Request::Shutdown => Route::Stop,
    }
}

/// The program segment of a `sweep/program/policy/platform` scenario
/// name — runs of the same program shard together across policies.
fn scenario_key(scenario: &str) -> String {
    scenario.split('/').nth(1).unwrap_or(scenario).to_string()
}

/// Canonicalizes a program ref so spelling variants shard identically:
/// `registry:gemm` and `gemm` are one key, and `fp:` hex is lowercased
/// zero-padded. Unparseable refs shard by their literal text (the
/// backend will answer the error).
fn normalize_ref(text: &str) -> String {
    let bare = text.strip_prefix("registry:").unwrap_or(text);
    if let Some(hex) = bare.strip_prefix("fp:") {
        if let Ok(fp) = u64::from_str_radix(hex, 16) {
            return format!("fp:{fp:016x}");
        }
    }
    bare.to_string()
}

/// Per-connection state a handler threads through its requests.
struct ConnState {
    /// Peer IP, the quota key of unauthenticated clients.
    peer: String,
    /// Set once any frame on this connection presented a valid token.
    authenticated: bool,
}

/// What a dispatched request answers with.
enum Answer {
    /// A backend's response line, relayed verbatim (trace echo and all).
    Raw(String),
    /// A router-originated response, encoded with the client's trace id.
    Local(Response),
}

/// Bound on the trace-id → owning-backend map behind stitching.
const TRACE_OWNER_CAPACITY: usize = 1024;

struct Shared {
    backends: Vec<Backend>,
    ring: HashRing,
    config: RouterConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    started: Instant,
    metrics: RouterMetrics,
    /// The router's own span ring: request roots, relay attempts, probes.
    spans: Arc<SpanRecorder>,
    /// The structured event log the `logs` op serves.
    events: EventLog,
    /// Trace id → index of the backend that answered its relay (bounded,
    /// newest kept), so `trace` knows which shard holds the other half of
    /// the tree.
    trace_owners: Mutex<Ring<(String, usize)>>,
    /// Monotonic probe counter: gives every probe span a unique id under
    /// the synthetic `probe` trace.
    probe_seq: AtomicU64,
    /// The number of the next generated trace id, `r<n>`.
    trace_seq: AtomicU64,
    /// Token buckets keyed by auth token (or peer IP when auth is off).
    quotas: Mutex<HashMap<String, TokenBucket>>,
    /// Wakes the prober early on shutdown.
    probe_wake: (Mutex<()>, Condvar),
}

impl LineService for Shared {
    type Session = ConnState;

    fn open(&self, conn: &mut Conn) -> ConnState {
        let peer = conn
            .socket()
            .peer_addr()
            .map(|addr| addr.ip().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        ConnState { peer, authenticated: false }
    }

    /// Answers one request line: the encoded response frame to write and
    /// whether the router must stop afterwards.
    fn respond(&self, conn: &mut ConnState, line: &str) -> (String, bool) {
        let start = self.spans.now_micros();
        let (decoded, meta) = match Request::decode_frame_meta(line) {
            Ok((request, meta)) => (Ok(request), meta),
            Err(error) => (Err(error), FrameMeta::default()),
        };
        // A frame without a client-chosen trace id gets the router's next
        // `r<n>`, numbered across all connections like the daemon's `t<n>`.
        let trace = meta
            .trace_id
            .clone()
            .unwrap_or_else(|| format!("r{}", self.trace_seq.fetch_add(1, Ordering::Relaxed)));
        // Heavy frames record the router's half of the tree under an
        // `r:request` root (decode through answer), parented under
        // whatever span the client put on the envelope.
        let handle = decoded.as_ref().map(Request::is_heavy).unwrap_or(false).then(|| {
            let parent = meta.parent_span.as_deref();
            TraceHandle::new(Arc::clone(&self.spans), &trace, "r", parent)
        });
        let _scope = handle.as_ref().map(TraceHandle::enter);
        let op = decoded.as_ref().map(Request::op).unwrap_or("invalid");
        let request = self.metrics.ops.count(op, start);
        let (answer, stop) = self.dispatch(line, decoded, &meta, &trace, conn);
        drop(request);
        let frame = match answer {
            Answer::Raw(reply) => reply,
            Answer::Local(response) => response.encode_with_trace(Some(&trace)),
        };
        (frame, stop)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Idempotently stops the router: flags, wakes the prober, pokes the
    /// acceptor awake.
    fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.events.log(LogLevel::Info, "router.lifecycle", "stopping", None, &[]);
            let (wake, cvar) = &self.probe_wake;
            drop(lock(wake));
            cvar.notify_all();
            wake_acceptor(self.addr);
        }
    }
}

impl Shared {
    /// The gate-then-route pipeline behind [`Shared::respond`].
    fn dispatch(
        &self,
        line: &str,
        decoded: Result<Request, String>,
        meta: &FrameMeta,
        trace: &str,
        conn: &mut ConnState,
    ) -> (Answer, bool) {
        let request = match decoded {
            Ok(request) => request,
            Err(error) => {
                return (Answer::Local(Response::Error { op: "invalid".to_string(), error }), false)
            }
        };
        if let Some(denied) = self.check_auth(&request, meta, conn) {
            return (Answer::Local(denied), false);
        }
        if let Some(bounced) = self.check_quota(&request, meta, conn) {
            return (Answer::Local(bounced), false);
        }
        let op = request.op().to_string();
        match route(&request) {
            Route::Stop => {
                (Answer::Local(Response::Ok { op, body: "{\"stopping\": true}".to_string() }), true)
            }
            Route::FanOut => {
                let body = match request {
                    Request::Stats => self.fleet_stats_body(),
                    Request::Metrics => self.fleet_metrics_body(),
                    Request::Health => self.fleet_health_body(),
                    _ => unreachable!("only fleet ops fan out"),
                };
                (Answer::Local(Response::Ok { op, body }), false)
            }
            Route::Observe => (Answer::Local(self.observe_answer(&request)), false),
            Route::Key(key) => {
                let order = self.ring.preference(&key);
                (self.relay(&with_trace_id(line, meta, trace), &op, &order, trace), false)
            }
            Route::Replicate(key) => {
                (self.replicate_upload(&with_trace_id(line, meta, trace), &key, trace), false)
            }
        }
    }

    /// Answers the router-local observability ops: `trace` serves the
    /// stitched span tree, `logs` the event log.
    fn observe_answer(&self, request: &Request) -> Response {
        match request {
            Request::Trace { target } => {
                Response::Ok { op: "trace".to_string(), body: self.stitched_trace_body(target) }
            }
            Request::Logs { level } => logs_response(&self.events, level.as_deref()),
            _ => unreachable!("only observability ops are routed here"),
        }
    }

    /// The stitched `trace` body: the router's own spans for `target`
    /// plus the owning backend's tree, the backend's parentless roots
    /// reparented under the router's last relay span so the whole request
    /// reads as one tree. Router and backend share the trace id: a relayed
    /// frame carries the client's or, spliced in, the router's `r<n>`.
    fn stitched_trace_body(&self, target: &str) -> String {
        let mut spans = self.spans.spans_for(target);
        if let Some(owner) = self.owner_of(target) {
            let anchor = spans
                .iter()
                .rev()
                .find(|span| span.stage == "relay" || span.stage == "failover-retry")
                .map(|span| span.span_id.clone());
            let fetch = Request::Trace { target: target.to_string() };
            if let Ok(body) = self.ask(&self.backends[owner], &fetch) {
                for mut span in parse_remote_spans(target, &body) {
                    if span.parent.is_none() {
                        span.parent = anchor.clone();
                    }
                    spans.push(span);
                }
            }
        }
        SpanRecorder::render_tree(target, &spans, self.spans.dropped())
    }

    /// The backend that answered `trace_id`'s relay, if still remembered.
    fn owner_of(&self, trace_id: &str) -> Option<usize> {
        let owners = lock(&self.trace_owners);
        owners.iter().rev().find(|(id, _)| id == trace_id).map(|&(_, index)| index)
    }

    /// Remembers which backend answered `trace_id` (newest kept).
    fn record_owner(&self, trace_id: &str, index: usize) {
        lock(&self.trace_owners).push((trace_id.to_string(), index));
    }

    /// Counts a transport failure against a backend, narrating the
    /// up→down transition into the event log (only the transition — a
    /// dead backend keeps failing and must not flood the ring).
    fn note_failure(&self, index: usize, cause: &str, trace: Option<&str>) {
        let backend = &self.backends[index];
        let was_up = backend.is_up();
        backend.record_failure(self.config.failure_threshold);
        if was_up && !backend.is_up() {
            self.events.log(
                LogLevel::Error,
                "router.failover",
                &format!("backend {index} ({}) circuit-broken", backend.addr),
                trace,
                &[("cause", cause), ("backend", &index.to_string())],
            );
        }
    }

    /// The auth gate. `None` = pass. Health stays open so probes and
    /// monitoring work without credentials.
    fn check_auth(
        &self,
        request: &Request,
        meta: &FrameMeta,
        conn: &mut ConnState,
    ) -> Option<Response> {
        if self.config.auth_tokens.is_empty() || matches!(request, Request::Health) {
            return None;
        }
        if let Some(token) = &meta.auth {
            if self.config.auth_tokens.iter().any(|known| known == token) {
                conn.authenticated = true;
            } else {
                self.metrics.auth_failures.inc();
                // Narrate the denial without ever logging the token.
                self.events.log(
                    LogLevel::Warn,
                    "router.auth",
                    &format!("invalid auth token from {} for `{}`", conn.peer, request.op()),
                    meta.trace_id.as_deref(),
                    &[("peer", &conn.peer)],
                );
                return Some(Response::Error {
                    op: request.op().to_string(),
                    error: "invalid auth token".to_string(),
                });
            }
        }
        if conn.authenticated {
            None
        } else {
            self.metrics.auth_failures.inc();
            self.events.log(
                LogLevel::Warn,
                "router.auth",
                &format!("unauthenticated `{}` from {} denied", request.op(), conn.peer),
                meta.trace_id.as_deref(),
                &[("peer", &conn.peer)],
            );
            Some(Response::Error {
                op: request.op().to_string(),
                error: "authentication required: send an `auth` bearer token (protocol v3)"
                    .to_string(),
            })
        }
    }

    /// The rate quota. `None` = admitted. Only heavy ops spend tokens —
    /// observability stays free.
    fn check_quota(
        &self,
        request: &Request,
        meta: &FrameMeta,
        conn: &ConnState,
    ) -> Option<Response> {
        let quota = self.config.quota.as_ref()?;
        if !request.is_heavy() {
            return None;
        }
        let key = meta.auth.clone().unwrap_or_else(|| conn.peer.clone());
        let now_micros = self.started.elapsed().as_micros() as u64;
        let mut buckets = lock(&self.quotas);
        let bucket =
            buckets.entry(key).or_insert_with(|| TokenBucket::new(quota.rate_per_sec, quota.burst));
        if bucket.try_take(now_micros) {
            None
        } else {
            self.metrics.quota_exceeded.inc();
            // The quota key may be a bearer token; log the peer instead.
            self.events.log(
                LogLevel::Warn,
                "router.quota",
                &format!("quota bounced `{}` from {}", request.op(), conn.peer),
                meta.trace_id.as_deref(),
                &[("peer", &conn.peer)],
            );
            Some(Response::QuotaExceeded { op: request.op().to_string() })
        }
    }

    /// Relays `line` along `order`, wrapping the all-failed case into an
    /// `error` frame.
    fn relay(&self, line: &str, op: &str, order: &[usize], trace: &str) -> Answer {
        match self.relay_ranked(line, op, order, trace) {
            Ok((_, reply)) => Answer::Raw(reply),
            Err(error) => Answer::Local(Response::Error { op: op.to_string(), error }),
        }
    }

    /// Relays `line` to the first backend in `order` that answers —
    /// reachable backends first, the circuit-broken rest as a last
    /// resort (a probe may simply not have run yet) — with exponential
    /// backoff between attempts. Returns the answering backend's index
    /// and raw response line. Every attempt is recorded as a span under
    /// `trace` (`r:relay`, then `r:failover-retry.<n>`), and retries are
    /// narrated into the event log.
    fn relay_ranked(
        &self,
        line: &str,
        op: &str,
        order: &[usize],
        trace: &str,
    ) -> Result<(usize, String), String> {
        let mut candidates: Vec<usize> =
            order.iter().copied().filter(|&i| self.backends[i].is_up()).collect();
        candidates.extend(order.iter().copied().filter(|&i| !self.backends[i].is_up()));
        let mut backoff = self.config.retry_backoff;
        let mut last_error = "no backends configured".to_string();
        for (attempt, &index) in candidates.iter().enumerate() {
            if attempt > 0 {
                self.metrics.failovers.inc();
                self.events.log(
                    LogLevel::Warn,
                    "router.failover",
                    &format!("retrying `{op}` on backend {index} after: {last_error}"),
                    Some(trace),
                    &[("attempt", &attempt.to_string()), ("backend", &index.to_string())],
                );
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            let backend = &self.backends[index];
            let outcome = {
                let _span = match attempt {
                    0 => Span::enter("relay", None),
                    n => Span::numbered("failover-retry", n as u64),
                };
                backend.forward(line)
            };
            match outcome {
                Ok(reply) if is_lifecycle_refusal(&reply) => {
                    // The daemon answered, but only to say it is going
                    // away and never executed the job — as retryable as
                    // a refused connection.
                    self.note_failure(index, "lifecycle-refusal", Some(trace));
                    last_error = format!("backend {index} ({}) is shutting down", backend.addr);
                }
                Ok(reply) => {
                    backend.record_success();
                    if reply.starts_with("{\"status\": \"busy\"") {
                        self.metrics.busy_relayed.inc();
                    }
                    self.record_owner(trace, index);
                    return Ok((index, reply));
                }
                Err(error) => {
                    self.note_failure(index, "transport", Some(trace));
                    last_error = format!("backend {index} ({}): {error}", backend.addr);
                }
            }
        }
        self.events.log(
            LogLevel::Error,
            "router.failover",
            &format!("no backend could answer `{op}`"),
            Some(trace),
            &[],
        );
        Err(format!("no backend could answer `{op}`: {last_error}"))
    }

    /// `upload`: relay to the key's owner (with failover), then replicate
    /// the same frame to every other live backend so `fp:` refs resolve
    /// on any shard. Replication only happens for an `ok` answer — a
    /// bounced or failed upload is not half-applied across the fleet.
    fn replicate_upload(&self, line: &str, key: &str, trace: &str) -> Answer {
        let order = self.ring.preference(key);
        let (answered_by, reply) = match self.relay_ranked(line, "upload", &order, trace) {
            Ok(answered) => answered,
            Err(error) => {
                return Answer::Local(Response::Error { op: "upload".to_string(), error })
            }
        };
        if reply.starts_with("{\"status\": \"ok\"") {
            for backend in &self.backends {
                if backend.index == answered_by || !backend.is_up() {
                    continue;
                }
                match backend.forward(line) {
                    Ok(_) => {
                        backend.record_success();
                        self.metrics.replications.inc();
                    }
                    Err(_) => {
                        self.note_failure(backend.index, "replicate", Some(trace));
                        self.metrics.replication_failures.inc();
                        self.events.log(
                            LogLevel::Warn,
                            "router.replicate",
                            &format!(
                                "upload replication to backend {} ({}) failed",
                                backend.index, backend.addr
                            ),
                            Some(trace),
                            &[("backend", &backend.index.to_string())],
                        );
                    }
                }
            }
        }
        Answer::Raw(reply)
    }

    /// Count of backends the breaker currently trusts.
    fn up_count(&self) -> usize {
        self.backends.iter().filter(|backend| backend.is_up()).count()
    }

    /// Asks one backend a cheap request and returns the `ok` body,
    /// recording breaker state either way.
    fn ask(&self, backend: &Backend, request: &Request) -> Result<String, String> {
        match backend.forward(&request.encode()) {
            Ok(reply) => match Response::decode(&reply) {
                Ok(Response::Ok { body, .. }) => {
                    backend.record_success();
                    Ok(body)
                }
                Ok(other) => Err(format!("unexpected {} answer: {other:?}", request.op())),
                Err(error) => Err(error),
            },
            Err(error) => {
                self.note_failure(backend.index, "transport", None);
                Err(error.to_string())
            }
        }
    }

    /// The fleet `stats` body: router counters plus every backend's own
    /// single-line stats body, in index order.
    fn fleet_stats_body(&self) -> String {
        let members: Vec<String> = self
            .backends
            .iter()
            .map(|backend| match self.ask(backend, &Request::Stats) {
                Ok(body) => body,
                Err(error) => format!("{{\"error\": \"{}\"}}", escape(&error)),
            })
            .collect();
        let forwarded: Vec<String> =
            self.backends.iter().map(|backend| backend.forwarded.get().to_string()).collect();
        format!(
            "{{\"router\": {{\"backends\": {}, \"up\": {}, \"requests\": {}, \
             \"forwarded\": [{}], \"failovers\": {}, \"busy_relayed\": {}, \
             \"auth_failures\": {}, \"quota_exceeded\": {}, \"replications\": {}}}, \
             \"backends\": [{}]}}",
            self.backends.len(),
            self.up_count(),
            self.metrics.ops.total(),
            forwarded.join(", "),
            self.metrics.failovers.get(),
            self.metrics.busy_relayed.get(),
            self.metrics.auth_failures.get(),
            self.metrics.quota_exceeded.get(),
            self.metrics.replications.get(),
            members.join(", ")
        )
    }

    /// The fleet `metrics` body: the router's families, then every
    /// answering backend's families with `backend="<i>"` injected.
    fn fleet_metrics_body(&self) -> String {
        let mut expositions = Vec::new();
        for backend in &self.backends {
            if let Ok(body) = self.ask(backend, &Request::Metrics) {
                expositions.push((backend.index, body));
            }
        }
        format!("{}{}", self.metrics.registry.render(), merge_expositions(&expositions))
    }

    /// The fleet `health` body: the router's own identity (uptime,
    /// version) next to per-backend liveness as observed *now* (the
    /// fan-out doubles as a probe round).
    fn fleet_health_body(&self) -> String {
        let members: Vec<String> = self
            .backends
            .iter()
            .map(|backend| match self.ask(backend, &Request::Health) {
                Ok(body) => format!("{{\"up\": true, \"health\": {body}}}"),
                Err(error) => format!("{{\"up\": false, \"error\": \"{}\"}}", escape(&error)),
            })
            .collect();
        format!(
            "{{\"router\": {{\"backends\": {}, \"up\": {}, \"uptime_secs\": {}, \
             \"version\": \"{}\"}}, \"backends\": [{}]}}",
            self.backends.len(),
            self.up_count(),
            self.started.elapsed().as_secs(),
            escape(env!("CARGO_PKG_VERSION")),
            members.join(", ")
        )
    }

    /// One probe round over every backend. Probes are background work
    /// with no client frame, so their spans live under the synthetic
    /// `probe` trace, one root span per probe.
    fn probe_all(&self) {
        let _scope = TraceHandle::new(Arc::clone(&self.spans), "probe", "r", None).enter();
        for backend in &self.backends {
            self.metrics.probes.inc();
            let seq = self.probe_seq.fetch_add(1, Ordering::Relaxed);
            let outcome = {
                let _span = Span::numbered("probe", seq);
                // A dedicated short-timeout connection: pooled relay
                // connections have no read timeout (sweeps take seconds).
                let probe = ConnectOptions {
                    read_timeout: Some(self.config.probe_timeout),
                    ..ConnectOptions::default()
                };
                Conn::connect_with(backend.addr, probe)
                    .and_then(|mut conn| conn.roundtrip(&Request::Health.encode()))
            };
            match outcome {
                Ok(_) => backend.record_success(),
                Err(_) => {
                    self.metrics.probe_failures.inc();
                    let was_up = backend.is_up();
                    backend.set_down();
                    if was_up {
                        self.events.log(
                            LogLevel::Warn,
                            "router.failover",
                            &format!(
                                "backend {} ({}) failed its health probe, marked down",
                                backend.index, backend.addr
                            ),
                            None,
                            &[("cause", "probe"), ("backend", &backend.index.to_string())],
                        );
                    }
                }
            }
        }
    }
}

/// `line` with the router's generated `trace` id spliced in when the
/// client sent no `trace_id`, so the backend records its half of the tree
/// under (and echoes) the id the router's own spans use. A frame that
/// carries a `trace_id` is relayed byte-verbatim.
fn with_trace_id<'a>(line: &'a str, meta: &FrameMeta, trace: &str) -> Cow<'a, str> {
    match line.trim_end().strip_suffix('}') {
        Some(object) if meta.trace_id.is_none() => {
            Cow::Owned(format!("{object}, \"trace_id\": \"{}\"}}", escape(trace)))
        }
        _ => Cow::Borrowed(line),
    }
}

/// Parses the `spans` array of a backend's `trace` body back into
/// records (the backend emits them through the same `dbt-obs` writer, so
/// the round trip is lossless). Unparseable bodies stitch to nothing.
fn parse_remote_spans(trace_id: &str, body: &str) -> Vec<SpanRecord> {
    let Ok(value) = JsonValue::parse(body) else { return Vec::new() };
    let Some(spans) = value.get("spans").and_then(JsonValue::as_array) else { return Vec::new() };
    spans
        .iter()
        .filter_map(|span| {
            Some(SpanRecord {
                trace_id: trace_id.to_string(),
                span_id: span.get("span_id")?.as_str()?.to_string(),
                parent: span.get("parent").and_then(JsonValue::as_str).map(str::to_string),
                stage: span.get("stage")?.as_str()?.to_string(),
                start_micros: span.get("start_micros")?.as_u64()?,
                duration_micros: span.get("duration_micros")?.as_u64()?,
            })
        })
        .collect()
}

/// `true` for the daemon answer that means "the request was never
/// executed because this daemon is going away" — a shutting-down daemon
/// keeps answering open connections, and that refusal must trigger
/// failover exactly like a refused connection. Any other `error` (a
/// request that panicked in the backend included) is the *request's*
/// failure and is relayed, never retried.
fn is_lifecycle_refusal(reply: &str) -> bool {
    reply.starts_with("{\"status\": \"error\"") && reply.contains("server is shutting down")
}

/// Handle on a running router: address, shutdown, join.
pub struct RouterHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    prober: JoinHandle<()>,
}

impl RouterHandle {
    /// The address the router actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the router to stop, without waiting. Backends keep running.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// Blocks until the router has stopped (acceptor and prober joined).
    pub fn wait(self) {
        let _ = self.acceptor.join();
        let _ = self.prober.join();
    }
}

/// Starts the router on `addr`, fronting `backends` (dbt-serve daemons,
/// in the fleet order that defines shard identity — reordering the list
/// reshuffles shard assignment).
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind; rejects an
/// empty backend list.
pub fn serve_router<A: ToSocketAddrs>(
    addr: A,
    backends: Vec<SocketAddr>,
    config: RouterConfig,
) -> std::io::Result<RouterHandle> {
    serve_router_with_clock(addr, backends, config, TraceClock::wall())
}

/// [`serve_router`] with an explicit span clock — determinism tests
/// inject [`TraceClock::scripted`] so stitched span trees are structure-
/// and byte-stable; production uses [`TraceClock::wall`].
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind; rejects an
/// empty backend list.
pub fn serve_router_with_clock<A: ToSocketAddrs>(
    addr: A,
    backends: Vec<SocketAddr>,
    config: RouterConfig,
    clock: TraceClock,
) -> std::io::Result<RouterHandle> {
    if backends.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "the router needs at least one backend",
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let metrics = RouterMetrics::new();
    let backends: Vec<Backend> = backends
        .into_iter()
        .enumerate()
        .map(|(index, addr)| {
            let label = index.to_string();
            let forwarded = metrics.registry.counter_with(
                "dbt_router_forwarded_total",
                "Frames forwarded to this backend (relays, replications and fan-outs).",
                &[("backend", &label)],
            );
            let up_gauge = metrics.registry.gauge_with(
                "dbt_router_backend_up",
                "1 while the breaker trusts this backend, 0 while it is considered dead.",
                &[("backend", &label)],
            );
            // Start optimistic: the first probe round or forward corrects us.
            up_gauge.set(1);
            Backend {
                index,
                addr,
                up: AtomicBool::new(true),
                failures: AtomicU32::new(0),
                pool: Mutex::new(Vec::new()),
                forwarded,
                up_gauge,
            }
        })
        .collect();
    let ring = HashRing::new(backends.len(), config.replicas.max(1));
    let shared = Arc::new(Shared {
        backends,
        ring,
        config,
        addr: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        metrics,
        spans: Arc::new(SpanRecorder::new(clock)),
        events: EventLog::new(),
        trace_owners: Mutex::new(Ring::new(TRACE_OWNER_CAPACITY)),
        probe_seq: AtomicU64::new(0),
        trace_seq: AtomicU64::new(0),
        quotas: Mutex::new(HashMap::new()),
        probe_wake: (Mutex::new(()), Condvar::new()),
    });
    shared.events.log(
        LogLevel::Info,
        "router.lifecycle",
        "listening",
        None,
        &[("addr", &shared.addr.to_string()), ("backends", &shared.backends.len().to_string())],
    );

    let prober = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || loop {
            {
                // The flag is checked under the lock `stop` notifies
                // under, so a stop that lands before this thread first
                // waits still ends the wait (a lost wake-up would hold
                // `wait` for a whole probe interval).
                let (wake, cvar) = &shared.probe_wake;
                let interval = shared.config.probe_interval;
                let _unused = cvar
                    .wait_timeout_while(lock(wake), interval, |_| !shared.stopping())
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            shared.probe_all();
        })
    };

    let acceptor = spawn_acceptor(listener, Arc::clone(&shared), shared.config.max_frame_bytes);
    Ok(RouterHandle { shared, acceptor, prober })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_serve::{
        serve, Client, LabBackend, ProgramSource, RunKnobs, ServerConfig, ServerHandle,
    };
    use std::sync::atomic::AtomicU64;

    /// A mock daemon backend that tags every answer with its fleet index,
    /// so tests can see which shard served a request.
    struct TagBackend {
        tag: usize,
        uploads: AtomicU64,
    }

    impl TagBackend {
        fn new(tag: usize) -> TagBackend {
            TagBackend { tag, uploads: AtomicU64::new(0) }
        }
    }

    impl LabBackend for TagBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            Ok(format!("tag{} ran {scenario}\n", self.tag))
        }
        fn sweep(&self, name: &str, _threads: usize) -> Result<String, String> {
            Ok(format!("tag{} swept {name}\n", self.tag))
        }
        fn analyze(&self, program: &str) -> Result<String, String> {
            Ok(format!("tag{} analyzed {program}\n", self.tag))
        }
        fn run_program(&self, program: &str, policy: &str, _: &RunKnobs) -> Result<String, String> {
            Ok(format!("tag{} ran {program} under {policy}\n", self.tag))
        }
        fn upload(&self, source: &ProgramSource) -> Result<String, String> {
            let count = self.uploads.fetch_add(1, Ordering::SeqCst) + 1;
            Ok(format!(
                "{{\"fingerprint\": \"fp:{:016x}\", \"dedup\": false, \"count\": {count}}}",
                crate::ring::fnv1a(source.text().as_bytes())
            ))
        }
        fn stats_json(&self) -> String {
            format!(
                "{{\"tag\": {}, \"uploads\": {}}}",
                self.tag,
                self.uploads.load(Ordering::SeqCst)
            )
        }
        fn metrics_text(&self) -> String {
            format!(
                "# HELP dbt_mock_uploads_total Mock uploads.\n\
                 # TYPE dbt_mock_uploads_total counter\n\
                 dbt_mock_uploads_total {}\n",
                self.uploads.load(Ordering::SeqCst)
            )
        }
    }

    /// A fleet of `n` mock daemons plus a router in front of them.
    fn fleet(n: usize, config: RouterConfig) -> (Vec<ServerHandle>, RouterHandle) {
        let daemons: Vec<ServerHandle> = (0..n)
            .map(|tag| {
                serve("127.0.0.1:0", Arc::new(TagBackend::new(tag)), ServerConfig::default())
                    .expect("daemon binds")
            })
            .collect();
        let addrs = daemons.iter().map(ServerHandle::addr).collect();
        let router = serve_router("127.0.0.1:0", addrs, config).expect("router binds");
        (daemons, router)
    }

    fn stop(daemons: Vec<ServerHandle>, router: RouterHandle) {
        router.shutdown();
        router.wait();
        for daemon in daemons {
            daemon.shutdown();
            daemon.wait();
        }
    }

    fn ok_body(response: Response) -> String {
        match response {
            Response::Ok { body, .. } => body,
            other => panic!("expected ok, got {other:?}"),
        }
    }

    #[test]
    fn only_a_shutdown_refusal_fails_over() {
        let frame = |error: &str| {
            let response = Response::Error { op: "run".to_string(), error: error.to_string() };
            response.encode_with_trace(Some("t0"))
        };
        assert!(is_lifecycle_refusal(&frame("server is shutting down")));
        // A request that panicked in the backend is its own failure: relay
        // it instead of replaying it on every backend.
        assert!(!is_lifecycle_refusal(&frame("the `run` request panicked: boom")));
        let ok =
            Response::Ok { op: "run".to_string(), body: "server is shutting down".to_string() };
        assert!(!is_lifecycle_refusal(&ok.encode()));
    }

    #[test]
    fn same_program_lands_on_the_same_shard_and_keys_spread() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let mut tags_seen = std::collections::BTreeSet::new();
        for i in 0..16 {
            let request = Request::Analyze { program: format!("prog-{i}") };
            let first = ok_body(client.request(&request).unwrap());
            let second = ok_body(client.request(&request).unwrap());
            assert_eq!(first, second, "one program, one shard");
            tags_seen.insert(first.starts_with("tag0"));
        }
        assert_eq!(tags_seen.len(), 2, "16 distinct programs must hit both backends");
        // Ref spellings shard identically: `registry:x` == `x`.
        let bare =
            ok_body(client.request(&Request::Analyze { program: "prog-0".to_string() }).unwrap());
        let prefixed = ok_body(
            client.request(&Request::Analyze { program: "registry:prog-0".to_string() }).unwrap(),
        );
        assert_eq!(
            bare.chars().take(4).collect::<String>(),
            prefixed.chars().take(4).collect::<String>()
        );
        stop(daemons, router);
    }

    #[test]
    fn a_hundred_sequential_round_trips_take_milliseconds_direct_and_routed() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let request = Request::Analyze { program: "p".to_string() };
        for addr in [daemons[0].addr(), router.addr()] {
            let mut client = Client::connect(addr).unwrap();
            assert!(client.socket().nodelay().unwrap(), "the client sets TCP_NODELAY");
            let started = Instant::now();
            for _ in 0..100 {
                assert!(matches!(client.request(&request).unwrap(), Response::Ok { .. }));
            }
            // A frame written as payload-then-newline without nodelay waits
            // out the peer's delayed ACK on every hop: ~9 s for this loop.
            let took = started.elapsed();
            assert!(took < Duration::from_secs(2), "100 round trips to {addr} took {took:?}");
        }
        // The router's pooled relay sockets are framed connections too.
        let mut pooled = 0;
        for backend in &router.shared.backends {
            for conn in backend.pool.lock().unwrap().iter() {
                assert!(conn.socket().nodelay().unwrap(), "a pooled relay socket lacks nodelay");
                pooled += 1;
            }
        }
        assert!(pooled > 0, "the routed loop left a pooled relay connection");
        stop(daemons, router);
    }

    #[test]
    fn a_poisoned_backend_pool_still_relays() {
        let (daemons, router) = fleet(1, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let request = Request::Analyze { program: "p".to_string() };
        assert_eq!(ok_body(client.request(&request).unwrap()), "tag0 analyzed p\n");
        let shared = Arc::clone(&router.shared);
        let panicked = std::thread::spawn(move || {
            let _pool = shared.backends[0].pool.lock().unwrap();
            panic!("a panic while a backend pool's lock is held");
        })
        .join();
        assert!(panicked.is_err() && router.shared.backends[0].pool.is_poisoned());
        for _ in 0..2 {
            assert_eq!(ok_body(client.request(&request).unwrap()), "tag0 analyzed p\n");
        }
        assert_eq!(lock(&router.shared.backends[0].pool).len(), 1, "the relay was pooled again");
        stop(daemons, router);
    }

    #[test]
    fn uploads_replicate_to_every_backend() {
        let (daemons, router) = fleet(3, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let source = ProgramSource::Asm("li a0, 1\necall\n".to_string());
        let body = ok_body(client.request(&Request::Upload { source }).unwrap());
        assert!(body.contains("\"fingerprint\": \"fp:"), "{body}");
        // Every backend's own stats now count the upload.
        let stats = ok_body(client.request(&Request::Stats).unwrap());
        for tag in 0..3 {
            assert!(stats.contains(&format!("{{\"tag\": {tag}, \"uploads\": 1}}")), "{stats}");
        }
        assert!(stats.contains("\"replications\": 2"), "{stats}");
        stop(daemons, router);
    }

    #[test]
    fn fleet_ops_fan_out_and_merge() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();

        let stats = ok_body(client.request(&Request::Stats).unwrap());
        assert!(stats.starts_with("{\"router\": {\"backends\": 2, \"up\": 2"), "{stats}");
        assert!(stats.contains("{\"tag\": 0,"), "{stats}");
        assert!(stats.contains("{\"tag\": 1,"), "{stats}");

        let health = ok_body(client.request(&Request::Health).unwrap());
        assert!(
            health.starts_with("{\"router\": {\"backends\": 2, \"up\": 2, \"uptime_secs\": "),
            "{health}"
        );
        assert!(
            health.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
            "{health}"
        );
        assert!(health.contains("\"up\": true, \"health\": {\"workers\": 2"), "{health}");

        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        assert!(metrics.contains("dbt_router_requests_total{op=\"stats\"} 1"), "{metrics}");
        assert!(metrics.contains("dbt_mock_uploads_total{backend=\"0\"} 0"), "{metrics}");
        assert!(metrics.contains("dbt_mock_uploads_total{backend=\"1\"} 0"), "{metrics}");
        assert!(
            metrics.contains("dbt_serve_requests_total{backend=\"0\",op=\"stats\"}"),
            "{metrics}"
        );
        stop(daemons, router);
    }

    #[test]
    fn auth_gates_every_op_but_health() {
        let config = RouterConfig {
            auth_tokens: vec!["fleet-secret".to_string()],
            ..RouterConfig::default()
        };
        let (daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();

        // Unauthenticated: denied before any backend sees the frame.
        let denied = client.request(&Request::Stats).unwrap();
        let Response::Error { error, .. } = denied else { panic!("expected denial: {denied:?}") };
        assert!(error.contains("authentication required"), "{error}");
        // Health stays open for probes and monitoring.
        assert!(matches!(client.request(&Request::Health).unwrap(), Response::Ok { .. }));
        // A wrong token is its own error.
        let meta = FrameMeta { auth: Some("wrong".to_string()), ..FrameMeta::default() };
        let (denied, _) = client.request_meta(&Request::Stats, &meta).unwrap();
        let Response::Error { error, .. } = denied else { panic!("expected denial: {denied:?}") };
        assert!(error.contains("invalid auth token"), "{error}");
        // A valid token authenticates the connection...
        let meta = FrameMeta { auth: Some("fleet-secret".to_string()), ..FrameMeta::default() };
        let (reply, _) = client.request_meta(&Request::Stats, &meta).unwrap();
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
        // ...and later frames on it need no token.
        assert!(matches!(client.request(&Request::Stats).unwrap(), Response::Ok { .. }));
        // A fresh connection starts unauthenticated again.
        let mut fresh = Client::connect(router.addr()).unwrap();
        assert!(matches!(fresh.request(&Request::Stats).unwrap(), Response::Error { .. }));
        stop(daemons, router);
    }

    #[test]
    fn quotas_bounce_excess_heavy_requests() {
        let config = RouterConfig {
            quota: Some(QuotaConfig { rate_per_sec: 1, burst: 1 }),
            ..RouterConfig::default()
        };
        let (daemons, router) = fleet(1, config);
        let mut client = Client::connect(router.addr()).unwrap();
        let request = Request::Analyze { program: "prog".to_string() };
        let mut admitted = 0;
        let mut bounced = 0;
        for _ in 0..5 {
            match client.request(&request).unwrap() {
                Response::Ok { .. } => admitted += 1,
                Response::QuotaExceeded { op } => {
                    assert_eq!(op, "analyze");
                    bounced += 1;
                }
                other => panic!("unexpected answer: {other:?}"),
            }
        }
        assert!(admitted >= 1, "the burst token admits the first request");
        assert!(bounced >= 1, "five immediate requests cannot all fit a 1/s, burst-1 quota");
        // Cheap ops never spend tokens.
        for _ in 0..5 {
            assert!(matches!(client.request(&Request::Stats).unwrap(), Response::Ok { .. }));
        }
        stop(daemons, router);
    }

    #[test]
    fn a_dead_backend_fails_over_and_is_circuit_broken() {
        let config = RouterConfig {
            retry_backoff: Duration::from_millis(2),
            probe_interval: Duration::from_secs(3600), // keep the prober out of this test
            ..RouterConfig::default()
        };
        let (mut daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();

        let request = Request::Analyze { program: "victim".to_string() };
        let body = ok_body(client.request(&request).unwrap());
        let owner: usize = if body.starts_with("tag0") { 0 } else { 1 };

        // Kill the owner; the same request must still answer, from the
        // other shard, and the router must count the failover.
        let dead = daemons.remove(owner);
        dead.shutdown();
        dead.wait();
        let body = ok_body(client.request(&request).unwrap());
        assert!(body.starts_with(&format!("tag{}", 1 - owner)), "{body}");
        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        assert!(metrics.contains("dbt_router_failovers_total 1"), "{metrics}");

        // After `failure_threshold` transport failures the breaker opens:
        // later requests skip the dead backend without new failovers.
        for _ in 0..4 {
            let _ = ok_body(client.request(&request).unwrap());
        }
        let metrics = ok_body(client.request(&Request::Metrics).unwrap());
        let up_line = format!("dbt_router_backend_up{{backend=\"{owner}\"}} 0");
        assert!(metrics.contains(&up_line), "{metrics}");
        stop(daemons, router);
    }

    #[test]
    fn shutdown_stops_the_router_but_not_the_fleet() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let reply = client.request(&Request::Shutdown).unwrap();
        assert_eq!(
            reply,
            Response::Ok { op: "shutdown".to_string(), body: "{\"stopping\": true}".to_string() }
        );
        router.wait();
        // The daemons are untouched and still answer directly.
        for daemon in &daemons {
            let mut direct = Client::connect(daemon.addr()).unwrap();
            assert!(matches!(direct.request(&Request::Health).unwrap(), Response::Ok { .. }));
        }
        for daemon in daemons {
            daemon.shutdown();
            daemon.wait();
        }
    }

    #[test]
    fn a_stop_before_the_first_probe_wait_still_stops_the_router() {
        // Stop each router the moment it starts, so its prober may not be
        // waiting yet: a wake-up sent before that wait must not be lost,
        // or `wait` blocks for the whole hour-long probe interval.
        let backend = TcpListener::bind("127.0.0.1:0").unwrap();
        let config =
            RouterConfig { probe_interval: Duration::from_secs(3600), ..RouterConfig::default() };
        let addr = backend.local_addr().unwrap();
        let (done, finished) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            for _ in 0..20 {
                let router = serve_router("127.0.0.1:0", vec![addr], config.clone()).unwrap();
                router.shutdown();
                router.wait();
            }
            let _ = done.send(());
        });
        let stopped = finished.recv_timeout(Duration::from_secs(10));
        assert!(
            !matches!(stopped, Err(std::sync::mpsc::RecvTimeoutError::Timeout)),
            "a router ignored a stop sent before its prober waited"
        );
        stopper.join().expect("starting and stopping the routers");
    }

    #[test]
    fn trace_ids_echo_through_relays_and_local_answers() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        // Relayed: the backend echoes the id the client put on the frame.
        let (reply, trace) = client
            .request_traced(&Request::Analyze { program: "p".to_string() }, Some("relay-1"))
            .unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("relay-1"));
        // Router-originated: the router echoes it itself.
        let (reply, trace) = client.request_traced(&Request::Stats, Some("local-1")).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("local-1"));
        // And generates `r<n>` ids, numbered over the router's id-less
        // frames, when the client sent none.
        let (_, trace) = client.request_traced(&Request::Stats, None).unwrap();
        assert_eq!(trace.as_deref(), Some("r0"));
        stop(daemons, router);
    }

    #[test]
    fn routing_keys_canonicalize_refs_and_scenarios() {
        assert_eq!(normalize_ref("registry:gemm"), "gemm");
        assert_eq!(normalize_ref("gemm"), "gemm");
        assert_eq!(normalize_ref("fp:00ABCDEF0012345f"), "fp:00abcdef0012345f");
        assert_eq!(normalize_ref("fp:nonsense"), "fp:nonsense");
        assert_eq!(scenario_key("figure4/gemm/our-approach/default"), "gemm");
        assert_eq!(scenario_key("no-slashes"), "no-slashes");
        // Scenario runs and program-ref runs of the same program share a key.
        let scenario = route(&Request::Run { scenario: "figure4/gemm/fence/default".to_string() });
        let programref = route(&Request::RunProgram {
            program: "registry:gemm".to_string(),
            policy: "fence".to_string(),
            knobs: RunKnobs::default(),
        });
        match (scenario, programref) {
            (Route::Key(a), Route::Key(b)) => assert_eq!(a, b),
            _ => panic!("both must route by key"),
        }
    }

    #[test]
    fn trace_op_stitches_router_and_backend_spans() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        let (reply, _) = client
            .request_traced(&Request::Analyze { program: "stitched".to_string() }, Some("st-1"))
            .unwrap();
        assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
        let body = ok_body(client.request(&Request::Trace { target: "st-1".to_string() }).unwrap());
        assert!(
            body.starts_with("{\"schema\": \"dbt-serve/trace/v1\", \"trace_id\": \"st-1\""),
            "{body}"
        );
        // The router's half of the tree...
        assert!(body.contains("\"span_id\": \"r:request\", \"parent\": null"), "{body}");
        assert!(body.contains("\"span_id\": \"r:relay\", \"parent\": \"r:request\""), "{body}");
        // ...and the backend's half, its root reparented under the relay
        // span so the whole request reads as one tree.
        assert!(body.contains("\"span_id\": \"d:request\", \"parent\": \"r:relay\""), "{body}");
        assert!(body.contains("\"span_id\": \"d:decode\""), "{body}");
        assert!(body.contains("\"span_id\": \"d:queue-wait\""), "{body}");
        stop(daemons, router);
    }

    #[test]
    fn generated_trace_ids_are_unique_across_connections() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let run = Request::Run { scenario: "figure4/gemm/selective/default".to_string() };
        // Two one-shot clients, each sending one id-less heavy frame.
        let ids: Vec<String> = (0..2)
            .map(|_| {
                let mut client = Client::connect(router.addr()).unwrap();
                client.request_traced(&run, None).unwrap().1.unwrap()
            })
            .collect();
        assert_eq!(ids, ["r0", "r1"]);
        let mut client = Client::connect(router.addr()).unwrap();
        for id in &ids {
            let body = ok_body(client.request(&Request::Trace { target: id.clone() }).unwrap());
            assert_eq!(body.matches("\"span_id\": \"r:request\"").count(), 1, "{body}");
            assert_eq!(body.matches("\"span_id\": \"d:request\"").count(), 1, "{body}");
            assert_eq!(body.matches("\"parent\": null").count(), 1, "one root: {body}");
        }
        stop(daemons, router);
    }

    #[test]
    fn frames_without_a_trace_id_are_traced_under_the_routers_ids() {
        let (daemons, router) = fleet(2, RouterConfig::default());
        let mut client = Client::connect(router.addr()).unwrap();
        // One scenario, so every frame rides the same pooled backend
        // connection, whose own generated ids the answers once echoed.
        let run = Request::Run { scenario: "figure4/gemm/selective/default".to_string() };
        for n in 0..3 {
            let (reply, trace) = client.request_traced(&run, None).unwrap();
            assert!(matches!(reply, Response::Ok { .. }), "{reply:?}");
            assert_eq!(trace, Some(format!("r{n}")), "the answer echoes the router's id");
        }
        let body = ok_body(client.request(&Request::Trace { target: "r1".to_string() }).unwrap());
        assert!(body.contains("\"span_id\": \"r:request\", \"parent\": null"), "{body}");
        assert!(body.contains("\"span_id\": \"d:request\", \"parent\": \"r:relay\""), "{body}");
        assert!(body.contains("\"span_id\": \"d:queue-wait\""), "{body}");
        // A client's own id travels byte-verbatim.
        let line = r#"{"op": "run", "scenario": "s", "trace_id": "c-1"}"#;
        let meta = FrameMeta { trace_id: Some("c-1".to_string()), ..FrameMeta::default() };
        assert_eq!(with_trace_id(line, &meta, "r9"), line);
        stop(daemons, router);
    }

    #[test]
    fn logs_op_narrates_failover_events() {
        let config = RouterConfig {
            retry_backoff: Duration::from_millis(2),
            probe_interval: Duration::from_secs(3600), // keep the prober out of this test
            ..RouterConfig::default()
        };
        let (mut daemons, router) = fleet(2, config);
        let mut client = Client::connect(router.addr()).unwrap();
        let request = Request::Analyze { program: "victim".to_string() };
        let body = ok_body(client.request(&request).unwrap());
        let owner: usize = if body.starts_with("tag0") { 0 } else { 1 };
        let dead = daemons.remove(owner);
        dead.shutdown();
        dead.wait();
        let _ = ok_body(client.request(&request).unwrap());

        let logs =
            ok_body(client.request(&Request::Logs { level: Some("warn".to_string()) }).unwrap());
        assert!(logs.starts_with("{\"schema\": \"dbt-serve/logs/v1\""), "{logs}");
        assert!(logs.contains("router.failover"), "{logs}");
        assert!(!logs.contains("router.lifecycle"), "lifecycle is info-level: {logs}");
        // The default level serves everything, lifecycle included.
        let all = ok_body(client.request(&Request::Logs { level: None }).unwrap());
        assert!(all.contains("\"message\": \"listening\""), "{all}");
        // Unknown levels are the client's error, never a panic.
        let denied = client.request(&Request::Logs { level: Some("loud".to_string()) }).unwrap();
        assert!(matches!(denied, Response::Error { .. }), "{denied:?}");
        stop(daemons, router);
    }
}
