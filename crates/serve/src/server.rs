//! The daemon itself: TCP listener, per-connection handlers and the
//! counting gate that bounds heavy work.
//!
//! The server is generic over a [`LabBackend`] — the object that actually
//! runs scenarios, sweeps and analyses (in this repo: `dbt-lab`'s
//! `LabDaemon`, which owns the process-wide `TranslationService` and the
//! content-addressed `RunMemo`). Keeping the backend abstract keeps this
//! crate `std`-only and lets the tests drive the concurrency machinery
//! with a controllable mock.
//!
//! Request flow:
//!
//! 1. the acceptor thread hands each connection to a detached handler
//!    thread that reads newline-delimited request frames through a
//!    [`Conn`] (these two loops are [`spawn_acceptor`]'s, shared with the
//!    `dbt-router` front door through the [`LineService`] trait);
//! 2. cheap requests (`stats`, `metrics`, `health`, `trace`, `logs`,
//!    `shutdown`) are answered inline;
//! 3. heavy requests (`run`, `profile`, `sweep`, `analyze`, `upload`) run
//!    on the handler thread that read them once a counting gate admits
//!    them: at most [`ServerConfig::workers`] run and at most
//!    [`ServerConfig::queue_depth`] wait, and the next one answers `busy`
//!    at once — explicit backpressure instead of unbounded buffering
//!    (request lines are bounded too: [`ServerConfig::max_frame_bytes`]).
//!    A backend panic answers an `error` frame naming the op.
//!
//! Shutdown (`shutdown` request or [`ServerHandle::shutdown`]) closes the
//! gate — admitted requests still run, later heavy requests answer an
//! error — and wakes the acceptor; [`ServerHandle::wait`] returns once
//! all admitted work is done.
//!
//! Every answered request is tagged with a trace id — the frame's own
//! `trace_id` when the client sent one, the server's next `t<n>` otherwise
//! (numbered across all connections, so no two requests share one) —
//! echoed on the response frame. Its latency lands in
//! the per-op `dbt_serve_request_seconds` histogram.
//!
//! Heavy requests additionally get a causal span tree keyed by that
//! trace id: a `d:request` root (attached under the frame's
//! `parent_span` when a router relayed it), with `d:decode`,
//! `d:queue-wait` (the wait at the gate) and `d:encode` children recorded
//! here, and the deeper `translate.*`/`simulate` stages recorded by the
//! lab layers through the ambient [`dbt_obs::TraceHandle`] the handler
//! enters for the whole request. One [`dbt_obs::Span`] is both the root
//! and the request's sample in the per-op latency histogram. The `trace`
//! op assembles the tree; the `logs` op serves the daemon's structured
//! [`EventLog`] (lifecycle events and request panics live there). Both
//! rings are bounded by fixed capacities
//! ([`dbt_obs::DEFAULT_SPAN_CAPACITY`], [`dbt_obs::DEFAULT_EVENT_CAPACITY`]).

use crate::conn::{Conn, Frame, FrameCounters};
use crate::protocol::{ProgramSource, Request, Response, RunKnobs};
use dbt_obs::{
    Counter, EventLog, Gauge, Histogram, LogLevel, MetricsRegistry, Span, SpanRecorder, TraceClock,
    TraceHandle, DEFAULT_LATENCY_BOUNDS_MICROS,
};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the daemon delegates actual lab work to.
///
/// Implementations must be thread-safe: connection handlers call these
/// concurrently, up to [`ServerConfig::workers`] at once. Every method
/// returns the *payload* of an `ok` response — for the report-producing
/// operations the lab's byte-stable report JSON, so a daemon answer is
/// byte-identical to what a local CLI invocation would have printed.
pub trait LabBackend: Send + Sync {
    /// Runs one scenario by full name, returning the report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn run_scenario(&self, scenario: &str) -> Result<String, String>;

    /// Runs one registered sweep (`threads == 0` = backend default),
    /// returning the report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn sweep(&self, name: &str, threads: usize) -> Result<String, String>;

    /// Analyzes one program (named by a program ref), returning the
    /// verdict report JSON.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn analyze(&self, program: &str) -> Result<String, String>;

    /// Submits a guest program into the backend's program store,
    /// returning a single-line JSON object with at least `fingerprint`
    /// (the `fp:<16-hex>` content address) and `dedup` (whether identical
    /// content was already resident).
    ///
    /// The default implementation rejects uploads, so backends without a
    /// program store keep working unchanged.
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn upload(&self, source: &ProgramSource) -> Result<String, String> {
        let _ = source;
        Err("this backend does not accept program uploads".to_string())
    }

    /// Runs an ad-hoc program named by a program ref under `policy` with
    /// the request's sparse platform `knobs`, returning the report JSON.
    /// Rejected by default, like [`LabBackend::upload`].
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn run_program(&self, program: &str, policy: &str, knobs: &RunKnobs) -> Result<String, String> {
        let _ = (program, policy, knobs);
        Err("this backend does not run ad-hoc programs".to_string())
    }

    /// Profiles one program (named by a program ref) under `policy`,
    /// returning the deterministic cycle-domain profile report JSON.
    /// Rejected by default, like [`LabBackend::upload`].
    ///
    /// # Errors
    ///
    /// A human-readable message for the `error` response frame.
    fn profile(&self, program: &str, policy: &str) -> Result<String, String> {
        let _ = (program, policy);
        Err("this backend does not profile programs".to_string())
    }

    /// Single-line JSON object with the backend's cache/service counters
    /// (embedded verbatim in the `stats` response body).
    fn stats_json(&self) -> String;

    /// Prometheus text-format exposition of the backend's own metric
    /// families, appended after the server's families in the `metrics`
    /// response body. Backends are expected to mirror the *same*
    /// snapshots [`LabBackend::stats_json`] reports, so the two views
    /// agree exactly. The default is empty: backends without metrics
    /// keep working unchanged.
    fn metrics_text(&self) -> String {
        String::new()
    }
}

/// Default bound on one request frame, in bytes. Large enough for any
/// realistic program upload (the biggest in-repo image is a few hundred
/// KiB), small enough that a hostile or broken client cannot make a
/// handler buffer unboundedly.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;

/// Daemon sizing knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Most heavy requests that run at once (at least one).
    pub workers: usize,
    /// Most heavy requests that wait for a running slot; the next one
    /// answers `busy`, so `0` makes every heavy request answer `busy`
    /// (useful to exercise the backpressure path).
    pub queue_depth: usize,
    /// Bound on one request line: longer frames are answered with a clean
    /// `error` frame and the connection is closed (the line's framing can
    /// no longer be trusted), instead of buffering without limit.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    /// Two running requests and sixteen waiting ones: enough concurrency
    /// to overlap a sweep with single-scenario queries without
    /// oversubscribing the sweep executor's own threads. Frames are capped
    /// at [`DEFAULT_MAX_FRAME_BYTES`].
    fn default() -> ServerConfig {
        ServerConfig { workers: 2, queue_depth: 16, max_frame_bytes: DEFAULT_MAX_FRAME_BYTES }
    }
}

/// The counting gate every heavy request passes before it runs on the
/// thread that read it. Parked requests and [`Gate::drain`] wait on one
/// condvar.
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
    workers: usize,
    depth: usize,
}

#[derive(Default)]
struct GateState {
    waiting: usize,
    running: usize,
    closed: bool,
}

/// Why the gate turned a heavy request away: `depth` requests already
/// wait, or the daemon is shutting down.
enum Refusal {
    Busy,
    Closed,
}

/// A running slot, freed when dropped (on unwind too).
struct Pass<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, depth: usize) -> Gate {
        Gate { state: Mutex::default(), changed: Condvar::new(), workers, depth }
    }

    /// The counters. No backend code runs under this lock, so poisoning
    /// cannot leave them half-updated.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a request if fewer than `depth` wait, then parks it until
    /// fewer than `workers` run.
    fn enter(&self) -> Result<Pass<'_>, Refusal> {
        let mut state = self.lock();
        if state.closed {
            return Err(Refusal::Closed);
        }
        if state.waiting >= self.depth {
            return Err(Refusal::Busy);
        }
        state.waiting += 1;
        while state.running >= self.workers {
            state = self.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.waiting -= 1;
        state.running += 1;
        Ok(Pass(self))
    }

    /// Requests admitted but not yet running.
    fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Admits nothing more; requests already admitted still run.
    fn close(&self) {
        self.lock().closed = true;
        self.changed.notify_all();
    }

    /// Blocks until no admitted request waits or runs.
    fn drain(&self) {
        let mut state = self.lock();
        while state.waiting + state.running > 0 {
            state = self.changed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Pass<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        // Only a parked request or a draining `wait` listens; skipping the
        // wake-up otherwise keeps an uncontended request free of syscalls.
        if state.waiting > 0 || state.closed {
            self.0.changed.notify_all();
        }
    }
}

/// The request `op` labels [`OpMetrics`] pre-registers, so every per-op
/// sample renders (at zero) from the very first scrape. `invalid` labels
/// frames that never decoded to an op.
const OP_LABELS: [&str; 12] = [
    "analyze", "health", "invalid", "logs", "metrics", "profile", "run", "shutdown", "stats",
    "sweep", "trace", "upload",
];

/// Per-op request counters and latency histograms over every request op:
/// `<prefix>_requests_total{op}` and `<prefix>_request_seconds{op}`. The
/// daemon and the router each register one, so fleet dashboards join on
/// identical label values.
pub struct OpMetrics {
    requests: Vec<Arc<Counter>>,
    latency: Vec<Arc<Histogram>>,
}

impl OpMetrics {
    /// Registers both families on `registry` with their help texts.
    pub fn register(registry: &MetricsRegistry, prefix: &str, help: [&str; 2]) -> OpMetrics {
        let [requests_help, latency_help] = help;
        let (requests, latency) =
            (format!("{prefix}_requests_total"), format!("{prefix}_request_seconds"));
        OpMetrics {
            requests: OP_LABELS
                .iter()
                .map(|op| registry.counter_with(&requests, requests_help, &[("op", op)]))
                .collect(),
            latency: OP_LABELS
                .iter()
                .map(|op| {
                    let bounds = DEFAULT_LATENCY_BOUNDS_MICROS;
                    registry.histogram_with(&latency, latency_help, bounds, &[("op", op)])
                })
                .collect(),
        }
    }

    /// Counts one frame of `op` (unknown ops count as `invalid`) and
    /// returns the `request` span that times it into the op's histogram
    /// until it drops. Under an active trace the span is also the trace's
    /// root and starts at `start_micros`, the trace-clock reading taken
    /// when the frame arrived.
    pub fn count(&self, op: &str, start_micros: u64) -> Span {
        let index = |op| OP_LABELS.iter().position(|known| *known == op);
        let index = index(op).or_else(|| index("invalid")).expect("invalid is registered");
        self.requests[index].inc();
        Span::since("request", start_micros, Some(&self.latency[index]))
    }

    /// Frames seen across every op.
    pub fn total(&self) -> u64 {
        self.requests.iter().map(|counter| counter.get()).sum()
    }
}

/// The `logs` answer over `events`: records at `level` or above (every
/// record without one).
pub fn logs_response(events: &EventLog, level: Option<&str>) -> Response {
    let op = "logs".to_string();
    match level.map_or(Some(LogLevel::Debug), LogLevel::parse) {
        Some(min_level) => Response::Ok { op, body: events.json(min_level) },
        None => Response::Error {
            op,
            error: format!(
                "unknown log level `{}` (expected debug|info|warn|error)",
                level.unwrap_or_default()
            ),
        },
    }
}

/// Span-id prefix of daemon-side spans.
const SPAN_PREFIX: &str = "d";

/// The server's own metric families, resolved once at startup on a
/// per-daemon registry (a process can host several daemons — tests do —
/// without their counters bleeding into each other).
struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    ops: OpMetrics,
    inflight: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    completed: Arc<Counter>,
    busy_rejections: Arc<Counter>,
    panics: Arc<Counter>,
    /// `dbt_serve_bytes_{read,written}_total` and
    /// `dbt_serve_frame_cap_errors_total`, counted by every connection.
    frames: FrameCounters,
}

impl ServerMetrics {
    fn new() -> ServerMetrics {
        let registry = MetricsRegistry::new();
        let ops_help = [
            "Request frames seen, by op (`invalid` = never decoded).",
            "Wall-clock request latency as observed by the connection handler, by op.",
        ];
        ServerMetrics {
            ops: OpMetrics::register(&registry, "dbt_serve", ops_help),
            inflight: registry.gauge("dbt_serve_inflight", "Requests currently being answered."),
            queue_depth: registry.gauge(
                "dbt_serve_queue_depth",
                "Heavy requests waiting at the gate for a running slot (sampled at scrape time).",
            ),
            completed: registry.counter(
                "dbt_serve_completed_total",
                "Heavy requests the backend answered, counted before the response is sent.",
            ),
            busy_rejections: registry.counter(
                "dbt_serve_busy_rejections_total",
                "Heavy requests bounced because queue_depth requests were already waiting.",
            ),
            panics: registry.counter(
                "dbt_serve_request_panics_total",
                "Heavy requests whose backend call panicked, each answered with an error frame.",
            ),
            frames: FrameCounters {
                read: registry
                    .counter("dbt_serve_bytes_read_total", "Request frame payload bytes read."),
                written: registry
                    .counter("dbt_serve_bytes_written_total", "Response frame bytes written."),
                too_long: registry.counter(
                    "dbt_serve_frame_cap_errors_total",
                    "Request frames rejected for exceeding the size cap.",
                ),
            },
            registry,
        }
    }
}

struct Shared {
    backend: Arc<dyn LabBackend>,
    gate: Gate,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    started: Instant,
    metrics: ServerMetrics,
    /// Finished request spans, served by the `trace` op.
    spans: Arc<SpanRecorder>,
    /// Structured lifecycle events, served by the `logs` op.
    events: EventLog,
    /// The number of the next generated trace id, `t<n>`.
    trace_seq: AtomicU64,
}

impl LineService for Shared {
    type Session = ();

    fn open(&self, conn: &mut Conn) {
        conn.count_into(self.metrics.frames.clone());
    }

    /// Parses and answers one request line, timing it into the per-op
    /// latency histogram. A frame without a client-chosen trace id gets
    /// the server's next `t<n>`.
    fn respond(&self, _: &mut (), line: &str) -> (String, bool) {
        self.metrics.inflight.inc();
        let start = self.spans.now_micros();
        let (decoded, meta) = match Request::decode_frame_meta(line) {
            Ok((request, meta)) => (Ok(request), meta),
            Err(error) => (Err(error), Default::default()),
        };
        let trace_id = meta
            .trace_id
            .unwrap_or_else(|| format!("t{}", self.trace_seq.fetch_add(1, Ordering::Relaxed)));
        // Heavy requests record a span tree under a `d:request` root that
        // hangs under the frame's `parent_span`; cheap ones (including the
        // `trace` fetch itself) stay span-free.
        let trace = decoded.as_ref().map(Request::is_heavy).unwrap_or(false).then(|| {
            let parent = meta.parent_span.as_deref();
            TraceHandle::new(Arc::clone(&self.spans), &trace_id, SPAN_PREFIX, parent)
        });
        let _scope = trace.as_ref().map(TraceHandle::enter);
        // Count the frame up front (under its op as soon as it is known),
        // so a `stats` or `metrics` answer includes the very request that
        // asked.
        let op = decoded.as_ref().map(Request::op).unwrap_or("invalid");
        let request = self.metrics.ops.count(op, start);
        drop(Span::since("decode", start, None));
        let (response, stop) = self.answer(decoded, &trace_id);
        let encode = Span::enter("encode", None);
        let frame = response.encode_with_trace(Some(&trace_id));
        drop(encode);
        drop(request);
        self.metrics.inflight.dec();
        (frame, stop)
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Idempotently starts the shutdown: closes the gate (admitted
    /// requests still run) and pokes the acceptor awake.
    fn stop(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.events.log(LogLevel::Info, "serve.lifecycle", "stopping", None, &[]);
            self.gate.close();
            wake_acceptor(self.addr);
        }
    }
}

impl Shared {
    /// The untimed request dispatch behind [`Shared::respond`].
    fn answer(&self, decoded: Result<Request, String>, trace_id: &str) -> (Response, bool) {
        let request = match decoded {
            Ok(request) => request,
            Err(error) => return (Response::Error { op: "invalid".to_string(), error }, false),
        };
        let op = request.op().to_string();
        match request {
            Request::Health => {
                let body = format!(
                    "{{\"workers\": {}, \"queue_depth\": {}, \"queued\": {}, \
                     \"uptime_secs\": {}, \"version\": \"{}\"}}",
                    self.config.workers,
                    self.config.queue_depth,
                    self.gate.waiting(),
                    self.started.elapsed().as_secs(),
                    env!("CARGO_PKG_VERSION")
                );
                (Response::Ok { op, body }, false)
            }
            Request::Stats => {
                let body = format!(
                    "{{\"server\": {{\"requests\": {}, \"completed\": {}, \
                     \"busy_rejections\": {}}}, \"lab\": {}}}",
                    self.metrics.ops.total(),
                    self.metrics.completed.get(),
                    self.metrics.busy_rejections.get(),
                    self.backend.stats_json()
                );
                (Response::Ok { op, body }, false)
            }
            Request::Metrics => {
                self.metrics.queue_depth.set(self.gate.waiting() as i64);
                let body =
                    format!("{}{}", self.metrics.registry.render(), self.backend.metrics_text());
                (Response::Ok { op, body }, false)
            }
            Request::Shutdown => {
                (Response::Ok { op, body: "{\"stopping\": true}".to_string() }, true)
            }
            Request::Trace { target } => {
                (Response::Ok { op, body: self.spans.tree_json(&target) }, false)
            }
            Request::Logs { level } => (logs_response(&self.events, level.as_deref()), false),
            request => (self.run_heavy(request, op, trace_id), false),
        }
    }

    /// Runs one heavy request on this thread once the gate admits it. A
    /// backend panic is caught here and answered as an `error` frame, so
    /// the connection and the gate slot survive it.
    fn run_heavy(&self, request: Request, op: String, trace_id: &str) -> Response {
        let arrived = self.spans.now_micros();
        let pass = match self.gate.enter() {
            Ok(pass) => pass,
            Err(Refusal::Busy) => {
                self.metrics.busy_rejections.inc();
                return Response::Busy { op };
            }
            Err(Refusal::Closed) => {
                return Response::Error { op, error: "server is shutting down".to_string() }
            }
        };
        // Surface the wait at the gate; the lab layers' spans land in the
        // request's trace, active on this thread since `respond` entered it.
        drop(Span::since("queue-wait", arrived, None));
        let result = catch_unwind(AssertUnwindSafe(|| execute(&*self.backend, &request)));
        drop(pass);
        match result {
            Ok(result) => {
                self.metrics.completed.inc();
                match result {
                    Ok(body) => Response::Ok { op, body },
                    Err(error) => Response::Error { op, error },
                }
            }
            Err(panic) => {
                self.metrics.panics.inc();
                let message = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                let error = format!("the `{op}` request panicked: {message}");
                self.events.log(LogLevel::Error, "serve.request", &error, Some(trace_id), &[]);
                Response::Error { op, error }
            }
        }
    }
}

/// Handle on a running daemon: address, counters, shutdown, join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port `0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Number of heavy requests waiting at the gate for a running slot
    /// (racy by nature; for observability and tests).
    pub fn queue_len(&self) -> usize {
        self.shared.gate.waiting()
    }

    /// Asks the daemon to stop, without waiting. Equivalent to a client
    /// sending a `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.stop();
    }

    /// Blocks until the daemon has stopped: the acceptor has exited and
    /// every admitted heavy request has finished. Connections still open
    /// at that point are served their remaining cheap requests; heavy
    /// requests answer an error.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        self.shared.gate.drain();
    }
}

fn execute(backend: &dyn LabBackend, request: &Request) -> Result<String, String> {
    match request {
        Request::Run { scenario } => backend.run_scenario(scenario),
        Request::RunProgram { program, policy, knobs } => {
            backend.run_program(program, policy, knobs)
        }
        Request::Profile { program, policy } => backend.profile(program, policy),
        Request::Sweep { name, threads } => backend.sweep(name, *threads),
        Request::Analyze { program } => backend.analyze(program),
        Request::Upload { source } => backend.upload(source),
        // Cheap requests are answered before the gate.
        Request::Stats
        | Request::Metrics
        | Request::Trace { .. }
        | Request::Logs { .. }
        | Request::Health
        | Request::Shutdown => Err("internal: cheap request passed the gate".to_string()),
    }
}

/// An NDJSON endpoint served by [`spawn_acceptor`]'s accept and line
/// loops. The daemon ([`serve`]) and the `dbt-router` front door both
/// are, so they frame, cap and close connections identically.
pub trait LineService: Send + Sync + 'static {
    /// Per-connection state, made when a connection is accepted.
    type Session: Send;
    /// Starts a connection's state (and may attach counters to `conn`).
    fn open(&self, conn: &mut Conn) -> Self::Session;
    /// Answers one non-blank request line of a connection: the response
    /// frame, and whether the endpoint must stop once it is sent.
    fn respond(&self, session: &mut Self::Session, line: &str) -> (String, bool);
    /// Whether the endpoint is stopping; the acceptor exits once it is.
    fn stopping(&self) -> bool;
    /// Starts stopping, idempotently, and wakes the acceptor (blocked in
    /// `accept`) with [`wake_acceptor`].
    fn stop(&self);
}

/// Lets an acceptor blocked in `accept` on `addr` observe
/// [`LineService::stopping`], through a throwaway connection.
pub fn wake_acceptor(addr: SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Serves `service` on `listener`: an acceptor thread handing every
/// accepted connection to a detached line-loop thread that caps request
/// frames at `max_frame_bytes`. The acceptor exits once the service is
/// stopping.
pub fn spawn_acceptor<S: LineService>(
    listener: TcpListener,
    service: Arc<S>,
    max_frame_bytes: usize,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        // Check the flag on *every* iteration — including accept errors —
        // so a failed or aborted wake-up connection (fd exhaustion,
        // ECONNABORTED on the immediately-dropped socket) cannot leave the
        // acceptor blocked forever, and persistent accept errors cannot
        // busy-spin past a shutdown.
        if service.stopping() {
            break;
        }
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                // Back off instead of spinning on persistent errors (e.g.
                // EMFILE while handlers hold every fd).
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        if service.stopping() {
            break;
        }
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_connection(stream, &*service, max_frame_bytes));
    })
}

/// The line loop of one accepted connection.
fn serve_connection<S: LineService>(stream: TcpStream, service: &S, max_frame_bytes: usize) {
    let Ok(mut conn) = Conn::new(stream) else { return };
    let mut session = service.open(&mut conn);
    let error = loop {
        let line = match conn.read_frame(max_frame_bytes) {
            Frame::Line(line) => line,
            Frame::Eof => return,
            Frame::Fatal(error) => break error,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (frame, stop) = service.respond(&mut session, &line);
        if conn.send(&frame).is_err() {
            return;
        }
        if stop {
            service.stop();
            return;
        }
    };
    // The one `error` frame a connection gets before a fatal close.
    let _ = conn.send(&Response::Error { op: "invalid".to_string(), error }.encode());
}

/// Starts the daemon on `addr` (use port `0` for an ephemeral port; the
/// bound address is available via [`ServerHandle::addr`]).
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind.
///
/// ```
/// use dbt_serve::{serve, Client, LabBackend, Request, Response, ServerConfig};
/// use std::sync::Arc;
///
/// struct Echo;
/// impl LabBackend for Echo {
///     fn run_scenario(&self, scenario: &str) -> Result<String, String> {
///         Ok(format!("ran {scenario}\n"))
///     }
///     fn sweep(&self, name: &str, _threads: usize) -> Result<String, String> {
///         Ok(format!("swept {name}\n"))
///     }
///     fn analyze(&self, program: &str) -> Result<String, String> {
///         Err(format!("unknown program `{program}`"))
///     }
///     fn stats_json(&self) -> String {
///         "{}".to_string()
///     }
/// }
///
/// let handle = serve("127.0.0.1:0", Arc::new(Echo), ServerConfig::default()).unwrap();
/// let mut client = Client::connect(handle.addr()).unwrap();
/// let reply = client.request(&Request::Run { scenario: "x".to_string() }).unwrap();
/// assert_eq!(reply, Response::Ok { op: "run".to_string(), body: "ran x\n".to_string() });
/// client.request(&Request::Shutdown).unwrap();
/// handle.wait();
/// ```
pub fn serve<A: ToSocketAddrs>(
    addr: A,
    backend: Arc<dyn LabBackend>,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_with_clock(addr, backend, config, TraceClock::wall())
}

/// [`serve`] with an explicit span clock — a [`TraceClock::scripted`]
/// clock makes recorded span trees structurally deterministic for tests.
///
/// # Errors
///
/// Propagates the I/O error if the listener cannot bind.
pub fn serve_with_clock<A: ToSocketAddrs>(
    addr: A,
    backend: Arc<dyn LabBackend>,
    config: ServerConfig,
    clock: TraceClock,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    // A gate with no running slot would park every admitted request:
    // clamp here so both the gate and the `health` response describe the
    // same daemon.
    let config = ServerConfig { workers: config.workers.max(1), ..config };
    let shared = Arc::new(Shared {
        backend,
        gate: Gate::new(config.workers, config.queue_depth),
        addr: listener.local_addr()?,
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
        metrics: ServerMetrics::new(),
        spans: Arc::new(SpanRecorder::new(clock)),
        events: EventLog::new(),
        trace_seq: AtomicU64::new(0),
        config,
    });
    shared.events.log(
        LogLevel::Info,
        "serve.lifecycle",
        "listening",
        None,
        &[("addr", &shared.addr.to_string()), ("workers", &shared.config.workers.to_string())],
    );
    let acceptor = spawn_acceptor(listener, Arc::clone(&shared), shared.config.max_frame_bytes);
    Ok(ServerHandle { shared, acceptor })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::DEFAULT_RUN_POLICY;
    use std::sync::mpsc;

    /// A backend whose `run_scenario` blocks until the test releases it,
    /// so gate occupancy is fully under test control (and panics when
    /// asked to run `panic`).
    struct BlockingBackend {
        started: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl LabBackend for BlockingBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            assert_ne!(scenario, "panic", "the backend was asked to panic");
            self.started.send(()).expect("test alive");
            self.release.lock().expect("lock").recv().expect("release signal");
            Ok(format!("done {scenario}"))
        }
        fn sweep(&self, name: &str, threads: usize) -> Result<String, String> {
            Ok(format!("sweep {name} on {threads}"))
        }
        fn analyze(&self, program: &str) -> Result<String, String> {
            Ok(format!("analyze {program}"))
        }
        fn stats_json(&self) -> String {
            "{\"mock\": true}".to_string()
        }
    }

    /// A [`BlockingBackend`] plus the test's ends of its two channels.
    fn blocking_backend() -> (BlockingBackend, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started, started_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        (BlockingBackend { started, release: Mutex::new(release) }, started_rx, release_tx)
    }

    fn quiet_backend() -> Arc<BlockingBackend> {
        Arc::new(blocking_backend().0)
    }

    fn run_request(name: &str) -> Request {
        Request::Run { scenario: name.to_string() }
    }

    /// The body of the `ok` answer to `request`.
    fn ok_body(client: &mut Client, request: &Request) -> String {
        match client.request(request).unwrap() {
            Response::Ok { body, .. } => body,
            other => panic!("`{}` must answer ok: {other:?}", request.op()),
        }
    }

    #[test]
    fn full_queue_answers_busy_not_hang() {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = handle.addr();

        // Job A occupies the single worker (we *know* it was popped once
        // the backend signals `started`).
        let a = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&run_request("a")).unwrap()
        });
        started_rx.recv().expect("job a must reach the backend");

        // Job B fills the single queue slot; wait until it is visibly
        // queued before provoking the rejection.
        let b = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&run_request("b")).unwrap()
        });
        while handle.queue_len() < 1 {
            std::thread::yield_now();
        }

        // Job C must bounce immediately: the queue is full.
        let mut client = Client::connect(addr).unwrap();
        let c = client.request(&run_request("c")).unwrap();
        assert_eq!(c, Response::Busy { op: "run".to_string() });

        // Cheap requests are not subject to backpressure.
        let health = client.request(&Request::Health).unwrap();
        let Response::Ok { body, .. } = health else { panic!("health must answer ok") };
        assert!(body.contains("\"queued\": 1"), "{body}");

        // Release A and B; both complete normally.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(
            a.join().unwrap(),
            Response::Ok { op: "run".to_string(), body: "done a".to_string() }
        );
        assert_eq!(
            b.join().unwrap(),
            Response::Ok { op: "run".to_string(), body: "done b".to_string() }
        );

        let stats = client.request(&Request::Stats).unwrap();
        let Response::Ok { body, .. } = stats else { panic!("stats must answer ok") };
        assert!(body.contains("\"busy_rejections\": 1"), "{body}");
        assert!(body.contains("\"mock\": true"), "backend stats embedded: {body}");

        client.request(&Request::Shutdown).unwrap();
        handle.wait();
    }

    #[test]
    fn zero_depth_queue_bounces_every_heavy_request() {
        let (started_tx, _started_rx) = mpsc::channel();
        let (_release_tx, release_rx) = mpsc::channel();
        let backend = BlockingBackend { started: started_tx, release: Mutex::new(release_rx) };
        let handle = serve(
            "127.0.0.1:0",
            Arc::new(backend),
            ServerConfig { workers: 1, queue_depth: 0, ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for _ in 0..3 {
            let reply = client.request(&run_request("x")).unwrap();
            assert_eq!(reply, Response::Busy { op: "run".to_string() });
        }
        handle.shutdown();
        handle.wait();
    }

    /// A [`BlockingBackend`] that records how many `run_scenario` calls
    /// overlapped at most.
    struct PeakBackend {
        blocking: BlockingBackend,
        running: std::sync::atomic::AtomicUsize,
        peak: std::sync::atomic::AtomicUsize,
    }

    impl LabBackend for PeakBackend {
        fn run_scenario(&self, scenario: &str) -> Result<String, String> {
            let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            let result = self.blocking.run_scenario(scenario);
            self.running.fetch_sub(1, Ordering::SeqCst);
            result
        }
        fn sweep(&self, name: &str, threads: usize) -> Result<String, String> {
            self.blocking.sweep(name, threads)
        }
        fn analyze(&self, program: &str) -> Result<String, String> {
            self.blocking.analyze(program)
        }
        fn stats_json(&self) -> String {
            self.blocking.stats_json()
        }
    }

    /// Sends `request` on a connection of its own thread.
    fn spawn_request(addr: SocketAddr, request: Request) -> JoinHandle<Response> {
        std::thread::spawn(move || Client::connect(addr).unwrap().request(&request).unwrap())
    }

    #[test]
    fn the_gate_never_runs_more_than_workers_at_once() {
        let (blocking, started, release) = blocking_backend();
        let backend = Arc::new(PeakBackend { blocking, running: 0.into(), peak: 0.into() });
        let config = ServerConfig { workers: 2, queue_depth: 8, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", Arc::clone(&backend) as Arc<dyn LabBackend>, config);
        let handle = handle.unwrap();
        let clients: Vec<_> =
            (0..5).map(|i| spawn_request(handle.addr(), run_request(&format!("c{i}")))).collect();
        // Two requests run; the other three wait at the gate, and no third
        // one reaches the backend while they do.
        (0..2).for_each(|_| started.recv().unwrap());
        while handle.queue_len() < 3 {
            std::thread::yield_now();
        }
        assert!(started.recv_timeout(std::time::Duration::from_millis(50)).is_err());
        (0..5).for_each(|_| release.send(()).unwrap());
        for client in clients {
            assert!(matches!(client.join().unwrap(), Response::Ok { .. }));
        }
        assert_eq!(backend.peak.load(Ordering::SeqCst), 2);
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn shutdown_finishes_admitted_requests_and_refuses_new_ones() {
        let (backend, started, release) = blocking_backend();
        let config = ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", Arc::new(backend), config).unwrap();
        // One request runs and one waits; a third connection stays open.
        let running = spawn_request(handle.addr(), run_request("running"));
        started.recv().unwrap();
        let waiting = spawn_request(handle.addr(), run_request("waiting"));
        while handle.queue_len() < 1 {
            std::thread::yield_now();
        }
        let mut late = Client::connect(handle.addr()).unwrap();
        ok_body(&mut late, &Request::Health);

        handle.shutdown();
        let refused = late.request(&run_request("late")).unwrap();
        assert!(
            matches!(&refused, Response::Error { error, .. } if error == "server is shutting down")
        );
        let (done_tx, done) = mpsc::channel();
        let waiter = std::thread::spawn(move || {
            handle.wait();
            done_tx.send(()).unwrap();
        });
        let early = done.recv_timeout(std::time::Duration::from_millis(50));
        assert!(early.is_err(), "wait returned while admitted requests were unfinished");
        (0..2).for_each(|_| release.send(()).unwrap());
        for (client, name) in [(running, "running"), (waiting, "waiting")] {
            let done = Response::Ok { op: "run".to_string(), body: format!("done {name}") };
            assert_eq!(client.join().unwrap(), done);
        }
        done.recv().unwrap();
        waiter.join().unwrap();
    }

    #[test]
    fn a_panicking_request_answers_an_error_and_the_daemon_keeps_serving() {
        let (backend, _started, release) = blocking_backend();
        (0..2).for_each(|_| release.send(()).unwrap());
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", Arc::new(backend), config).unwrap();
        // A panic that cost the only running slot would leave every later
        // heavy request waiting: time out instead of hanging.
        let timeout = Some(std::time::Duration::from_secs(30));
        let options = crate::conn::ConnectOptions { read_timeout: timeout, ..Default::default() };
        let mut client = Client::connect_with(handle.addr(), options).unwrap();
        let (reply, _) = client.request_traced(&run_request("panic"), Some("boom-1")).unwrap();
        let Response::Error { op, error } = reply else { panic!("expected an error frame") };
        assert_eq!(op, "run");
        assert!(error.starts_with("the `run` request panicked: "), "{error}");
        assert!(error.contains("asked to panic"), "{error}");

        let ran = Response::Ok { op: "run".to_string(), body: "done after".to_string() };
        assert_eq!(client.request(&run_request("after")).unwrap(), ran);
        let mut fresh = Client::connect_with(handle.addr(), options).unwrap();
        assert_eq!(fresh.request(&run_request("after")).unwrap(), ran);

        let metrics = ok_body(&mut fresh, &Request::Metrics);
        assert_eq!(sample_value(&metrics, "dbt_serve_request_panics_total"), 1);
        let logs = ok_body(&mut fresh, &Request::Logs { level: Some("error".to_string()) });
        assert!(logs.contains("\"trace_id\": \"boom-1\""), "{logs}");
        assert!(logs.contains("request panicked"), "{logs}");
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn completed_counts_each_heavy_request_before_its_answer() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for round in 1..=20 {
            ok_body(&mut client, &Request::Analyze { program: "p".to_string() });
            let stats = ok_body(&mut client, &Request::Stats);
            assert!(stats.contains(&format!("\"completed\": {round},")), "{round}: {stats}");
        }
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn invalid_lines_answer_an_error_frame() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let reply = client.raw_request("this is not json").unwrap();
        assert!(matches!(&reply, Response::Error { op, .. } if op == "invalid"), "{reply:?}");
        // The connection survives a bad frame.
        ok_body(&mut client, &Request::Health);
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn trace_ids_echo_and_profiles_reach_the_backend() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // Generated ids number the server's id-less frames: the first is `t0`.
        let (reply, trace) = client.request_traced(&Request::Health, None).unwrap();
        assert!(matches!(reply, Response::Ok { .. }));
        assert_eq!(trace.as_deref(), Some("t0"));
        // Client-chosen ids are echoed verbatim.
        let (_, trace) = client.request_traced(&Request::Health, Some("probe-1")).unwrap();
        assert_eq!(trace.as_deref(), Some("probe-1"));

        // `profile` reaches the backend, which rejects it by default, and
        // `request` (no trace) still works on trace-tagged response frames.
        let reply = client
            .request(&Request::Profile {
                program: "gemm".to_string(),
                policy: DEFAULT_RUN_POLICY.to_string(),
            })
            .unwrap();
        assert!(
            matches!(&reply, Response::Error { error, .. } if error.contains("does not profile")),
            "{reply:?}"
        );

        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn oversized_frames_answer_a_clean_error_and_close() {
        let config = ServerConfig { max_frame_bytes: 64, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", quiet_backend(), config).unwrap();

        // A frame under the cap still answers normally.
        let mut client = Client::connect(handle.addr()).unwrap();
        ok_body(&mut client, &Request::Health);

        // A line of *exactly* the cap is within the limit (the newline is
        // framing, not payload): it fails as bad JSON, not as oversized,
        // and the connection survives.
        let exact = "x".repeat(64);
        let reply = client.raw_request(&exact).unwrap();
        let Response::Error { error, .. } = reply else { panic!("expected an error frame") };
        assert!(!error.contains("limit"), "{error}");
        ok_body(&mut client, &Request::Health);

        // A frame over the cap gets one clean error frame, not a hang and
        // not unbounded buffering...
        let huge = format!("{{\"op\": \"analyze\", \"program\": \"{}\"}}", "x".repeat(256));
        let reply = client.raw_request(&huge).unwrap();
        let Response::Error { op, error } = reply else { panic!("expected an error frame") };
        assert_eq!(op, "invalid");
        assert!(error.contains("64-byte limit"), "{error}");

        // ...and the connection is closed afterwards (mid-line, framing
        // cannot be trusted).
        assert!(client.request(&Request::Health).is_err(), "connection must be closed");

        // Fresh connections keep working, and the rejection is visible in
        // the metrics exposition.
        let mut client = Client::connect(handle.addr()).unwrap();
        ok_body(&mut client, &Request::Health);
        let body = ok_body(&mut client, &Request::Metrics);
        assert!(body.contains("dbt_serve_frame_cap_errors_total 1"), "{body}");

        handle.shutdown();
        handle.wait();
    }

    /// A bare [`LineService`]: echoes every line, stops on `stop`, and
    /// records whether each accepted socket came with `TCP_NODELAY`.
    struct Echo {
        addr: SocketAddr,
        stopping: AtomicBool,
        nodelay: Mutex<Vec<bool>>,
    }

    impl LineService for Echo {
        type Session = ();
        fn open(&self, conn: &mut Conn) {
            self.nodelay.lock().unwrap().push(conn.socket().nodelay().unwrap());
        }
        fn respond(&self, _: &mut (), line: &str) -> (String, bool) {
            (format!("echo {line}"), line == "stop")
        }
        fn stopping(&self) -> bool {
            self.stopping.load(Ordering::SeqCst)
        }
        fn stop(&self) {
            if !self.stopping.swap(true, Ordering::SeqCst) {
                wake_acceptor(self.addr);
            }
        }
    }

    #[test]
    fn the_shared_line_loop_frames_caps_and_stops_any_service() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo =
            Arc::new(Echo { addr, stopping: AtomicBool::new(false), nodelay: Mutex::default() });
        let acceptor = spawn_acceptor(listener, Arc::clone(&echo), 16);
        let mut conn = Conn::connect(addr).unwrap();
        assert_eq!(conn.roundtrip("hello").unwrap(), "echo hello");
        // Blank lines are skipped: the next answer is the next line's.
        assert_eq!(conn.roundtrip("\nagain").unwrap(), "echo again");
        // Over the cap: one `error` frame, then the connection closes.
        let reply = conn.roundtrip(&"x".repeat(17)).unwrap();
        assert!(reply.contains("16-byte limit"), "{reply}");
        assert!(conn.read_line().is_err());
        let mut conn = Conn::connect(addr).unwrap();
        assert_eq!(conn.roundtrip("stop").unwrap(), "echo stop");
        acceptor.join().unwrap();
        assert_eq!(*echo.nodelay.lock().unwrap(), [true, true], "every accepted socket");
    }

    #[test]
    fn trace_op_assembles_the_span_tree_of_a_heavy_request() {
        use crate::protocol::FrameMeta;
        let handle = serve_with_clock(
            "127.0.0.1:0",
            quiet_backend(),
            ServerConfig::default(),
            dbt_obs::TraceClock::scripted(10),
        )
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        // A heavy request without a parent_span roots its own tree...
        let analyze = Request::Analyze { program: "p".to_string() };
        client.request_traced(&analyze, Some("job-1")).unwrap();
        let body = ok_body(&mut client, &Request::Trace { target: "job-1".to_string() });
        assert!(
            body.starts_with("{\"schema\": \"dbt-serve/trace/v1\", \"trace_id\": \"job-1\""),
            "{body}"
        );
        for span in ["d:decode", "d:queue-wait", "d:request", "d:encode"] {
            assert!(body.contains(&format!("\"span_id\": \"{span}\"")), "{body}");
        }
        assert!(
            body.contains("\"span_id\": \"d:request\", \"parent\": null"),
            "no parent_span member means the request roots the tree: {body}"
        );
        // ...while a relayed frame's `parent_span` reparents the root.
        let meta = FrameMeta {
            trace_id: Some("job-2".to_string()),
            parent_span: Some("r:relay".to_string()),
            ..FrameMeta::default()
        };
        client.request_meta(&analyze, &meta).unwrap();
        let body = ok_body(&mut client, &Request::Trace { target: "job-2".to_string() });
        assert!(body.contains("\"span_id\": \"d:request\", \"parent\": \"r:relay\""), "{body}");
        // Cheap requests record nothing: `t0` is the first trace fetch above.
        let body = ok_body(&mut client, &Request::Trace { target: "t0".to_string() });
        assert!(body.contains("\"spans\": []"), "{body}");
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn generated_trace_ids_are_unique_across_connections() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let analyze = Request::Analyze { program: "p".to_string() };
        // Two one-shot clients, each sending one id-less heavy frame.
        let ids: Vec<String> = (0..2)
            .map(|_| {
                let mut client = Client::connect(handle.addr()).unwrap();
                client.request_traced(&analyze, None).unwrap().1.unwrap()
            })
            .collect();
        assert_eq!(ids, ["t0", "t1"]);
        let mut client = Client::connect(handle.addr()).unwrap();
        for id in &ids {
            let body = ok_body(&mut client, &Request::Trace { target: id.clone() });
            assert_eq!(body.matches("\"span_id\": \"d:request\"").count(), 1, "{body}");
            assert_eq!(body.matches("\"parent\": null").count(), 1, "one root: {body}");
        }
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn logs_op_serves_leveled_lifecycle_events() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let body = ok_body(&mut client, &Request::Logs { level: None });
        assert!(body.starts_with("{\"schema\": \"dbt-serve/logs/v1\""), "{body}");
        assert!(body.contains("\"target\": \"serve.lifecycle\""), "{body}");
        assert!(body.contains("\"message\": \"listening\""), "{body}");
        // The level filter hides info-level lifecycle chatter.
        let body = ok_body(&mut client, &Request::Logs { level: Some("warn".to_string()) });
        assert!(!body.contains("listening"), "{body}");
        // Unknown levels are described, not guessed.
        let reply = client.request(&Request::Logs { level: Some("loud".to_string()) }).unwrap();
        assert!(
            matches!(&reply, Response::Error { error, .. } if error.contains("unknown log level `loud`")),
            "{reply:?}"
        );
        handle.shutdown();
        handle.wait();
    }

    /// Extracts the value of the first sample line starting with `prefix`.
    fn sample_value(text: &str, prefix: &str) -> u64 {
        let line = text
            .lines()
            .find(|line| line.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` sample in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().unwrap_or_else(|_| panic!("not a u64: {line}"))
    }

    #[test]
    fn health_reports_uptime_version_and_pool_size() {
        let config = ServerConfig { workers: 3, queue_depth: 5, ..ServerConfig::default() };
        let handle = serve("127.0.0.1:0", quiet_backend(), config).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        let body = ok_body(&mut client, &Request::Health);
        assert!(body.contains("\"workers\": 3"), "{body}");
        assert!(body.contains("\"queue_depth\": 5"), "{body}");
        assert!(body.contains("\"uptime_secs\": "), "{body}");
        assert!(
            body.contains(&format!("\"version\": \"{}\"", env!("CARGO_PKG_VERSION"))),
            "{body}"
        );
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn metrics_expose_per_op_counters_that_agree_with_stats() {
        let handle = serve("127.0.0.1:0", quiet_backend(), ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        // A scripted sequence: one analyze (heavy, completes), one health,
        // one invalid frame, then the scrape itself.
        ok_body(&mut client, &Request::Analyze { program: "p".to_string() });
        ok_body(&mut client, &Request::Health);
        assert!(matches!(client.raw_request("not json").unwrap(), Response::Error { .. }));
        let body = ok_body(&mut client, &Request::Metrics);

        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"analyze\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"health\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_requests_total{op=\"invalid\"}"), 1);
        assert_eq!(
            sample_value(&body, "dbt_serve_requests_total{op=\"metrics\"}"),
            1,
            "the scrape counts itself"
        );
        assert_eq!(
            sample_value(&body, "dbt_serve_requests_total{op=\"run\"}"),
            0,
            "pre-registered ops render at zero"
        );
        assert_eq!(sample_value(&body, "dbt_serve_request_seconds_count{op=\"analyze\"}"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_completed_total"), 1);
        assert_eq!(sample_value(&body, "dbt_serve_frame_cap_errors_total"), 0);
        assert_eq!(sample_value(&body, "dbt_serve_inflight"), 1, "the scrape itself is in flight");
        assert!(sample_value(&body, "dbt_serve_bytes_read_total") > 0);
        assert!(sample_value(&body, "dbt_serve_bytes_written_total") > 0);

        // The stats view counts the same frames: analyze + health +
        // invalid + metrics + this stats request = 5.
        let body = ok_body(&mut client, &Request::Stats);
        assert!(body.contains("\"requests\": 5"), "{body}");
        assert!(body.contains("\"completed\": 1"), "{body}");

        handle.shutdown();
        handle.wait();
    }
}
