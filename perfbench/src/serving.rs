//! The serving workloads: a closed loop of two persistent client
//! connections → in-process `dbt-router` → two in-process `LabDaemon`s at
//! their defaults.
//!
//! * `serve-hits`: `lab loadgen`'s mix, four registry-scenario `run`s and
//!   one `sweep`. Set-up answers each distinct request once, so every
//!   timed request is a run-memo hit and transport, framing, queueing and
//!   relay dominate.
//! * `serve-miss`: no key ever repeats — ad-hoc attack runs with fresh
//!   secrets, ad-hoc kernel runs with fresh knobs, uploads of gadget
//!   variants followed by a run of each, drawn in equal shares. Compute
//!   dominates.
//!
//! Each run checks the property its workload is named for: no run-memo
//! miss on `serve-hits`, no hit and one miss per run on `serve-miss`.
//!
//! Every response is checked: `serve-hits` bodies must equal set-up's
//! byte for byte after `strip_stats`; `serve-miss` bodies must equal what
//! a fresh in-process `LabDaemon` answers for the same request sequence.
//! Attack rows must recover every secret byte under `unsafe` and none
//! under a countermeasure.

use crate::inputs::{self, MissKind, MissOp, MissStream};
use crate::stats::{median, percentile, MIN_SAMPLES};
use crate::trace::Tracer;
use crate::Outcome;
use dbt_lab::{strip_stats, LabDaemon};
use dbt_platform::ProgramStore;
use dbt_router::{serve_router, HashRing, RouterConfig, RouterHandle, DEFAULT_RING_REPLICAS};
use dbt_serve::{
    serve, Client, JsonValue, LabBackend, ProgramSource, Request, Response, ServerConfig,
    ServerHandle,
};
use std::net::SocketAddr;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Concurrent client connections of the closed loop.
const CLIENTS: usize = 2;

/// Backend daemons behind the router.
const BACKENDS: usize = 2;

/// Set-ups per serve-hits run (fleet start + memo warm-up).
const HIT_SETUP_REPEATS: usize = 3;

/// Set-ups per serve-miss run (fleet start + program-store warm-up).
const MISS_SETUP_REPEATS: usize = 3;

/// Ops each client completes at least, however long the window.
const MIN_CLIENT_OPS: u64 = (MIN_SAMPLES / CLIENTS) as u64;

/// Two daemons and the router in front of them.
struct Fleet {
    daemons: Vec<Arc<LabDaemon>>,
    servers: Vec<ServerHandle>,
    router: RouterHandle,
}

impl Fleet {
    fn start() -> Result<Fleet, String> {
        let mut daemons = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..BACKENDS {
            let daemon = Arc::new(LabDaemon::new(inputs::SIZE));
            let backend: Arc<dyn LabBackend> = daemon.clone();
            servers.push(
                serve("127.0.0.1:0", backend, ServerConfig::default())
                    .map_err(|e| format!("cannot start a daemon: {e}"))?,
            );
            daemons.push(daemon);
        }
        let addrs = servers.iter().map(ServerHandle::addr).collect();
        let router = serve_router("127.0.0.1:0", addrs, RouterConfig::default())
            .map_err(|e| format!("cannot start the router: {e}"))?;
        Ok(Fleet { daemons, servers, router })
    }

    fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Stops the router, then every daemon, and waits for all of them.
    fn stop(self) {
        self.router.shutdown();
        self.router.wait();
        for server in self.servers {
            server.shutdown();
            server.wait();
        }
    }

    /// Run-memo (hits, misses) summed over the daemons.
    fn memo(&self) -> (u64, u64) {
        let stats = self.daemons.iter().map(|d| d.memo().stats());
        stats.fold((0, 0), |(hits, misses), s| (hits + s.hits, misses + s.misses))
    }

    /// Translation-service evictions summed over the daemons.
    fn evictions(&self) -> u64 {
        self.daemons.iter().map(|d| d.service().stats().evictions).sum()
    }
}

/// The router's routing key of a serve-hits request: the scenario's
/// program segment, or the sweep name.
fn route_key(request: &Request) -> String {
    match request {
        Request::Run { scenario } => scenario.split('/').nth(1).unwrap_or(scenario).to_string(),
        Request::Sweep { name, .. } => format!("sweep:{name}"),
        other => other.op().to_string(),
    }
}

/// Calls the daemon's backend in process, as a worker would.
fn call_backend(daemon: &LabDaemon, request: &Request) -> Result<String, String> {
    match request {
        Request::Run { scenario } => daemon.run_scenario(scenario),
        Request::RunProgram { program, policy, knobs } => {
            daemon.run_program(program, policy, knobs)
        }
        Request::Sweep { name, threads } => daemon.sweep(name, *threads),
        Request::Upload { source } => daemon.upload(source),
        other => Err(format!("the benchmark never sends `{}`", other.op())),
    }
}

/// One request round trip and the bytes it moved.
struct Sent {
    response: Response,
    latency: Duration,
    bytes: u64,
}

fn send(client: &mut Client, request: &Request, trace_id: &str) -> Result<Sent, String> {
    let start = Instant::now();
    let (response, echoed) = client.request_traced(request, Some(trace_id))?;
    let latency = start.elapsed();
    if echoed.as_deref() != Some(trace_id) {
        return Err(format!("trace id {trace_id} came back as {echoed:?}"));
    }
    let bytes = request.encode_with_trace(trace_id).len()
        + response.encode_with_trace(Some(trace_id)).len()
        + 2;
    Ok(Sent { response, latency, bytes: bytes as u64 })
}

/// The body of an `ok` response, or why there is none.
fn ok_body(response: &Response) -> Result<&str, String> {
    match response {
        Response::Ok { body, .. } => Ok(body),
        Response::Busy { op } => Err(format!("{op}: busy")),
        Response::QuotaExceeded { op } => Err(format!("{op}: quota_exceeded")),
        Response::Error { op, error } => Err(format!("{op}: {error}")),
    }
}

/// Checks every job of a lab report: status `ok`, attack rows recovering
/// all secret bytes under `unsafe` and none otherwise. Returns the guest
/// instructions of its perf rows.
fn check_report(body: &str) -> Result<u64, String> {
    let report = JsonValue::parse(body).map_err(|e| format!("unparseable report: {e}"))?;
    let jobs = report.get("jobs").and_then(JsonValue::as_array).ok_or("report without jobs")?;
    let mut guest_insts = 0;
    for job in jobs {
        let field = |name: &str| job.get(name).and_then(JsonValue::as_str).unwrap_or("?");
        let number = |name: &str| job.get(name).and_then(JsonValue::as_u64);
        if field("status") != "ok" {
            return Err(format!("{}: status {}", field("scenario"), field("status")));
        }
        match field("kind") {
            "perf" => guest_insts += number("guest_insts").ok_or("perf row without guest_insts")?,
            "attack" => {
                let secret = number("secret_bytes").ok_or("attack row without secret_bytes")?;
                let correct = number("correct_bytes").ok_or("attack row without correct_bytes")?;
                let want = if field("policy") == "unsafe" { secret } else { 0 };
                if secret != inputs::SECRET_LEN as u64 || correct != want {
                    return Err(format!(
                        "{}: recovered {correct}/{secret} bytes, expected {want}",
                        field("scenario")
                    ));
                }
            }
            other => return Err(format!("{}: unknown row kind {other}", field("scenario"))),
        }
    }
    Ok(guest_insts)
}

/// What one client thread measured.
#[derive(Debug, Default)]
struct ClientTally {
    latencies_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    busy: u64,
    bytes: u64,
    guest_insts: u64,
    /// Serve-hits: (summed ns, ops) of each [`Phase`].
    plain: (u64, u64),
    routed: (u64, u64),
    direct: (u64, u64),
    backend: (u64, u64),
    /// Serve-miss: the ops sent, with the body each was answered.
    sent: Vec<(MissOp, Result<String, String>)>,
}

impl ClientTally {
    /// Records a routed round trip (the caller counts the attempt).
    fn record(&mut self, sent: &Sent) {
        self.latencies_ms.push(sent.latency.as_secs_f64() * 1e3);
        self.bytes += sent.bytes;
        if matches!(sent.response, Response::Busy { .. }) {
            self.busy += 1;
        }
    }
}

/// Folds the client tallies into the end-to-end metrics; `peak_rss_mb` was
/// read right after the window, before any verification work.
fn end_to_end(
    outcome: &mut Outcome,
    tallies: &[ClientTally],
    wall: f64,
    peak_rss_mb: f64,
) -> Result<(), String> {
    let latencies: Vec<f64> = tallies.iter().flat_map(|t| t.latencies_ms.iter().copied()).collect();
    outcome.set("ops_per_s", latencies.len() as f64 / wall);
    outcome.set("op_p50_ms", percentile(&latencies, 50.0)?);
    outcome.set("op_p90_ms", percentile(&latencies, 90.0)?);
    let guest: u64 = tallies.iter().map(|t| t.guest_insts).sum();
    outcome.set("guest_minsts_per_s", guest as f64 / wall / 1e6);
    outcome.set("peak_rss_mb", peak_rss_mb);
    outcome.notes.push(format!(
        "{} ops in {wall:.3} s over {CLIENTS} connections; percentiles over {} samples",
        latencies.len(),
        latencies.len()
    ));
    Ok(())
}

/// Layer metrics both serving workloads measure at the client.
fn serving_layers(
    outcome: &mut Outcome,
    tallies: &[ClientTally],
    memo: (u64, u64),
    evictions: u64,
) {
    let routed = tallies.iter().map(|t| t.latencies_ms.len()).sum::<usize>().max(1) as f64;
    let bytes: u64 = tallies.iter().map(|t| t.bytes).sum();
    let busy: u64 = tallies.iter().map(|t| t.busy).sum();
    let (hits, misses) = memo;
    outcome.set("serve.bytes_per_op", bytes as f64 / routed);
    outcome.set("serve.busy_share", busy as f64 / routed);
    outcome.set("platform.memo.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    outcome.set("service.evictions", evictions as f64);
}

/// `serve-hits`.
pub fn run_hits(seed: u64, window: Duration, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome { checks_passed: true, ..Outcome::default() };
    let requests = inputs::serve_hit_requests();
    let mut setup_s = Vec::new();
    let mut fleet: Option<Fleet> = None;
    let mut expected: Option<Vec<String>> = None;
    let mut guest: Vec<u64> = Vec::new();
    for _ in 0..HIT_SETUP_REPEATS {
        if let Some(previous) = fleet.take() {
            previous.stop();
        }
        let start = Instant::now();
        let next = Fleet::start()?;
        let mut client = Client::connect(next.addr()).map_err(|e| e.to_string())?;
        let mut bodies = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            let sent = send(&mut client, request, &format!("warm-{i}"))?;
            bodies.push(ok_body(&sent.response)?.to_string());
        }
        setup_s.push(start.elapsed().as_secs_f64());
        let stripped: Vec<String> = bodies.iter().map(|b| strip_stats(b)).collect();
        if expected.as_ref().is_some_and(|previous| *previous != stripped) {
            outcome.fail_check("repeated set-ups answered differently".to_string());
        }
        if expected.is_none() {
            guest = bodies.iter().map(|body| check_report(body)).collect::<Result<_, _>>()?;
        }
        expected = Some(stripped);
        fleet = Some(next);
    }
    let fleet = fleet.expect("at least one set-up");
    let expected = expected.expect("at least one set-up");
    let ring = HashRing::new(BACKENDS, DEFAULT_RING_REPLICAS);
    let owners: Vec<usize> = requests.iter().map(|r| ring.owner(&route_key(r))).collect();
    let backend_addrs: Vec<SocketAddr> = fleet.servers.iter().map(ServerHandle::addr).collect();

    let memo_before = fleet.memo();
    let evictions_before = fleet.evictions();
    let tracer = Mutex::new(Tracer::new());
    let phases = Barrier::new(CLIENTS);
    let start = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ctx = HitClient {
                    c,
                    seed,
                    addr: fleet.addr(),
                    requests: &requests,
                    expected: &expected,
                    guest: &guest,
                    owners: &owners,
                    backend_addrs: &backend_addrs,
                    daemons: &fleet.daemons,
                    traced,
                    tracer: &tracer,
                    phases: &phases,
                };
                scope.spawn(move || ctx.run(window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb();
    let (hits, misses) = fleet.memo();
    let memo = (hits - memo_before.0, misses - memo_before.1);
    let evictions = fleet.evictions() - evictions_before;
    fleet.stop();

    for tally in &tallies {
        outcome.attempted += tally.attempted;
        for failure in &tally.failures {
            outcome.fail(failure.clone());
        }
    }
    // The workload's defining property, checked on every run.
    if memo.1 != 0 {
        outcome.fail_check(format!("{} run-memo misses in a hits-only window", memo.1));
    }
    if !traced {
        end_to_end(&mut outcome, &tallies, wall, peak_rss_mb)?;
        outcome.set("setup_s", median(&setup_s));
        return Ok(outcome);
    }
    serving_layers(&mut outcome, &tallies, memo, evictions);
    let mean_ms = |f: fn(&ClientTally) -> (u64, u64)| {
        let (ns, n) = tallies.iter().map(f).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        (ns as f64 / n.max(1) as f64 / 1e6, n)
    };
    let (plain, plain_ops) = mean_ms(|t| t.plain);
    let (op, traced_ops) = mean_ms(|t| t.routed);
    let (direct, direct_ops) = mean_ms(|t| t.direct);
    let (backend, backend_ops) = mean_ms(|t| t.backend);
    let (relay, transport) = (op - direct, direct - backend);
    outcome.set("router.relay.self_ms", relay);
    outcome.set("serve.transport.self_ms", transport);
    outcome.set("lab.backend.self_ms", backend);
    outcome.set("trace.op_ms", op);
    outcome.set("trace.overhead_ms", op - plain);
    // Shares are of the traced routed mean, the op time the three layers
    // add up to.
    outcome.notes.push(format!(
        "phases: {plain_ops} plain routed ops (mean {plain:.4} ms), {traced_ops} traced \
         routed, {direct_ops} direct, {backend_ops} in-process"
    ));
    outcome.notes.push(format!(
        "finding: of the traced routed mean {op:.4} ms, serve.transport.self_ms is \
         {transport:.4} ms ({:.1}%), router.relay.self_ms {relay:.4} ms ({:.1}%), \
         lab.backend.self_ms {backend:.4} ms ({:.1}%)",
        100.0 * transport / op,
        100.0 * relay / op,
        100.0 * backend / op,
    ));
    let tracer = tracer.into_inner().expect("tracer lock");
    outcome.notes.push(tracer.write_spans("serve-hits", traced_ops)?);
    Ok(outcome)
}

/// What a serve-hits client sends in one phase of its run. An untraced
/// run is one `Plain` phase; a traced run goes through all four, each over
/// a quarter of the window. Every phase drives the same closed loop over
/// one path, so each path is timed under its own traffic pattern: the
/// socket stall timers that set these round trips depend on the frames
/// just before, which interleaving the paths would change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Routed round trips, no spans: the untraced reference.
    Plain,
    /// Routed round trips, each recorded as a span.
    Routed,
    /// The same requests sent straight to the ring owner.
    Direct,
    /// The same requests as in-process calls on the owner's `LabDaemon`.
    Backend,
}

/// The phases of a traced serve-hits run, in order.
const TRACED_PHASES: [Phase; 4] = [Phase::Plain, Phase::Routed, Phase::Direct, Phase::Backend];

/// Everything one serve-hits client thread needs.
struct HitClient<'a> {
    c: usize,
    seed: u64,
    addr: SocketAddr,
    requests: &'a [Request],
    expected: &'a [String],
    guest: &'a [u64],
    owners: &'a [usize],
    backend_addrs: &'a [SocketAddr],
    daemons: &'a [Arc<LabDaemon>],
    traced: bool,
    tracer: &'a Mutex<Tracer>,
    /// Both clients enter each [`Phase`] together.
    phases: &'a Barrier,
}

impl HitClient<'_> {
    /// Connects to the router and, traced, to every backend.
    fn connect(&self) -> std::io::Result<(Client, Vec<Client>)> {
        let direct = if self.traced {
            self.backend_addrs.iter().map(Client::connect).collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        Ok((Client::connect(self.addr)?, direct))
    }

    /// Whole passes over the request list in each phase until the phase's
    /// share of the window is spent; untraced, at least
    /// [`MIN_CLIENT_OPS`] requests, traced at least one pass per phase.
    fn run(&self, window: Duration) -> ClientTally {
        let mut tally = ClientTally::default();
        let mut connections = match self.connect() {
            Ok(connections) => Some(connections),
            Err(e) => {
                tally.failures.push(format!("client {} cannot connect: {e}", self.c));
                None
            }
        };
        let plan: Vec<(Phase, Duration, u64)> = if self.traced {
            TRACED_PHASES.iter().map(|&phase| (phase, window / 4, 1)).collect()
        } else {
            vec![(Phase::Plain, window, MIN_CLIENT_OPS)]
        };
        let (mut seq, mut pass) = (0u64, 0u64);
        for (phase, length, min_ops) in plan {
            // A client that could not connect still meets the other at
            // every phase, so neither waits forever.
            self.phases.wait();
            let Some((client, direct)) = connections.as_mut() else { continue };
            let start = Instant::now();
            let mut ops = 0u64;
            while start.elapsed() < length || ops < min_ops {
                for i in inputs::hit_pass_order(self.seed, self.c, pass, self.requests.len()) {
                    seq += 1;
                    ops += 1;
                    tally.attempted += 1;
                    if let Err(error) = self.one(&mut tally, phase, client, direct, i, seq) {
                        tally.failures.push(error);
                    }
                }
                pass += 1;
            }
        }
        tally
    }

    /// Checks a body against set-up's answer for request `i`.
    fn check(&self, i: usize, response: &Response, path: &str) -> Result<(), String> {
        let body = ok_body(response)?;
        if strip_stats(body) == self.expected[i] {
            Ok(())
        } else {
            Err(format!("{path} answer to {} differs from set-up's", self.requests[i].encode()))
        }
    }

    /// Sends request `i` over the phase's path, checks the answer and
    /// times it (recording a span outside the `Plain` phase).
    fn one(
        &self,
        tally: &mut ClientTally,
        phase: Phase,
        client: &mut Client,
        direct: &mut [Client],
        i: usize,
        seq: u64,
    ) -> Result<(), String> {
        let request = &self.requests[i];
        let owner = self.owners[i];
        let id = format!("c{}-{seq}", self.c);
        let start = Instant::now();
        let (name, slot) = match phase {
            Phase::Plain | Phase::Routed => {
                let sent = send(client, request, &id)?;
                tally.record(&sent);
                self.check(i, &sent.response, "routed")?;
                tally.guest_insts += self.guest[i];
                let slot = if phase == Phase::Plain { &mut tally.plain } else { &mut tally.routed };
                ("serve.request.router", slot)
            }
            Phase::Direct => {
                let sent = send(&mut direct[owner], request, &id)?;
                self.check(i, &sent.response, "direct")?;
                ("serve.request.direct", &mut tally.direct)
            }
            Phase::Backend => {
                let body = call_backend(&self.daemons[owner], request)?;
                if strip_stats(&body) != self.expected[i] {
                    return Err(format!("in-process answer to {} differs", request.encode()));
                }
                ("lab.backend", &mut tally.backend)
            }
        };
        let ns = start.elapsed().as_nanos() as u64;
        slot.0 += ns;
        slot.1 += 1;
        if phase != Phase::Plain {
            let op = (seq * CLIENTS as u64 + self.c as u64) as u32;
            self.tracer.lock().expect("tracer lock").record(op, 0, name, start, ns, 1);
        }
        Ok(())
    }
}

/// `serve-miss`.
pub fn run_miss(seed: u64, window: Duration, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome { checks_passed: true, ..Outcome::default() };
    let mut setup_s = Vec::new();
    let mut fleet: Option<Fleet> = None;
    for _ in 0..MISS_SETUP_REPEATS {
        if let Some(previous) = fleet.take() {
            previous.stop();
        }
        let start = Instant::now();
        let next = Fleet::start()?;
        // Ready means every registry program of the mix is seeded into the
        // program store of the daemon that owns it. `analyze` seeds it and
        // runs on a session of its own, so no run-memo or translation entry
        // is warmed and every timed request still misses.
        let mut client = Client::connect(next.addr()).map_err(|e| e.to_string())?;
        for program in inputs::miss_kernels().into_iter().chain(["spectre-v1", "spectre-v4"]) {
            let request = Request::Analyze { program: program.to_string() };
            ok_body(&send(&mut client, &request, &format!("seed-{program}"))?.response)?;
        }
        setup_s.push(start.elapsed().as_secs_f64());
        fleet = Some(next);
    }
    let fleet = fleet.expect("at least one set-up");

    let memo_before = fleet.memo();
    let evictions_before = fleet.evictions();
    let start = Instant::now();
    let mut tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = fleet.addr();
                scope.spawn(move || miss_client(c, seed, addr, start, window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::peak_rss_mb();
    let (hits, misses) = fleet.memo();
    let memo = (hits - memo_before.0, misses - memo_before.1);
    let evictions = fleet.evictions() - evictions_before;
    fleet.stop();

    // Verification: each client's sequence replayed on a fresh in-process
    // daemon; every answer must match.
    let verified: Vec<Verified> = std::thread::scope(|scope| {
        let handles: Vec<_> = tallies
            .iter()
            .map(|tally| scope.spawn(move || verify_client(&tally.sent, traced)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("verifier thread panicked")).collect()
    });
    for (tally, check) in tallies.iter_mut().zip(&verified) {
        tally.guest_insts = check.guest_insts;
        outcome.attempted += tally.attempted;
        for failure in tally.failures.iter().chain(&check.failures) {
            outcome.fail(failure.clone());
        }
    }
    let kinds = |kind: MissKind| {
        tallies.iter().flat_map(|t| &t.sent).filter(|(op, _)| op.kind == kind).count() as u64
    };
    let runs = kinds(MissKind::Attack) + kinds(MissKind::Kernel) + kinds(MissKind::UploadedRun);
    outcome.notes.push(format!(
        "mix: {} attack runs, {} kernel runs, {} uploads, {} uploaded runs; {} memo misses",
        kinds(MissKind::Attack),
        kinds(MissKind::Kernel),
        kinds(MissKind::Upload),
        kinds(MissKind::UploadedRun),
        memo.1
    ));
    // The workload's defining property, checked on every run: nothing hit
    // the run memo, and every answered run missed it (a run under a
    // countermeasure misses twice, once more for its `unsafe` baseline).
    if memo.0 != 0 || memo.1 < runs {
        outcome.fail_check(format!(
            "{} run-memo hits and {} misses for {runs} runs in a misses-only window",
            memo.0, memo.1
        ));
    }
    if !traced {
        end_to_end(&mut outcome, &tallies, wall, peak_rss_mb)?;
        outcome.set("setup_s", median(&setup_s));
        return Ok(outcome);
    }
    serving_layers(&mut outcome, &tallies, memo, evictions);
    let mean_ms = |f: fn(&Verified) -> (u64, u64)| {
        let (ns, n) = verified.iter().map(f).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        ns as f64 / n.max(1) as f64 / 1e6
    };
    outcome.set("lab.backend.self_ms", mean_ms(|v| v.backend));
    outcome.set("riscv.parse_asm.self_ms", mean_ms(|v| v.parse));
    outcome.set("platform.store.upload.self_ms", mean_ms(|v| v.upload));
    let latencies: Vec<f64> = tallies.iter().flat_map(|t| t.latencies_ms.iter().copied()).collect();
    outcome.set("trace.op_ms", latencies.iter().sum::<f64>() / latencies.len().max(1) as f64);
    // The window itself runs untraced: every span is taken afterwards,
    // during verification, so tracing adds nothing to an op.
    outcome.set("trace.overhead_ms", 0.0);
    let mut tracer = Tracer::new();
    for (c, check) in verified.iter().enumerate() {
        for &(op, name, at, ns) in &check.spans {
            tracer.record(op * CLIENTS as u32 + c as u32, 0, name, at, ns, 1);
        }
    }
    outcome.notes.push(tracer.write_spans("serve-miss", outcome.attempted)?);
    Ok(outcome)
}

/// One serve-miss client: fresh keys until the window is spent (and at
/// least [`MIN_CLIENT_OPS`] requests were sent).
fn miss_client(
    c: usize,
    seed: u64,
    addr: SocketAddr,
    start: Instant,
    window: Duration,
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            tally.failures.push(format!("client {c} cannot connect: {e}"));
            return tally;
        }
    };
    let mut stream = MissStream::new(seed, c);
    let mut seq = 0u64;
    while start.elapsed() < window || tally.attempted < MIN_CLIENT_OPS {
        let op = stream.next_op();
        seq += 1;
        tally.attempted += 1;
        match send(&mut client, &op.request, &format!("c{c}-{seq}")) {
            Ok(sent) => {
                tally.record(&sent);
                let body = ok_body(&sent.response).map(str::to_string);
                tally.sent.push((op, body));
            }
            Err(error) => tally.failures.push(error),
        }
    }
    tally
}

/// What verifying one client's sequence found.
#[derive(Debug, Default)]
struct Verified {
    failures: Vec<String>,
    guest_insts: u64,
    /// (total ns, calls) of the in-process backend, `parse_asm` and
    /// `ProgramStore::upload`.
    backend: (u64, u64),
    parse: (u64, u64),
    upload: (u64, u64),
    /// (op, layer, start, ns) of every timed call (traced runs only).
    spans: Vec<(u32, &'static str, Instant, u64)>,
}

impl Verified {
    /// Times one call of `layer` into `slot` (and into the spans when
    /// tracing).
    fn time<T>(
        &mut self,
        traced: bool,
        op: u32,
        layer: &'static str,
        slot: fn(&mut Verified) -> &mut (u64, u64),
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = call();
        let ns = start.elapsed().as_nanos() as u64;
        let total = slot(self);
        total.0 += ns;
        total.1 += 1;
        if traced {
            self.spans.push((op, layer, start, ns));
        }
        value
    }
}

/// Replays one client's ops on a fresh in-process daemon and checks every
/// answer the fleet gave. Traced runs also time `parse_asm` and
/// `ProgramStore::upload` on every uploaded source, from outside.
fn verify_client(sent: &[(MissOp, Result<String, String>)], traced: bool) -> Verified {
    let daemon = LabDaemon::new(inputs::SIZE);
    let store = ProgramStore::new();
    let mut verified = Verified::default();
    for (index, (op, answer)) in sent.iter().enumerate() {
        let op_id = index as u32 + 1;
        let reference = verified.time(
            traced,
            op_id,
            "lab.backend",
            |v| &mut v.backend,
            || call_backend(&daemon, &op.request),
        );
        if let (true, Request::Upload { source: ProgramSource::Asm(text) }) = (traced, &op.request)
        {
            let parsed = verified.time(
                traced,
                op_id,
                "riscv.parse_asm",
                |v| &mut v.parse,
                || dbt_riscv::parse_asm(text),
            );
            if let Ok(program) = parsed {
                verified.time(
                    traced,
                    op_id,
                    "platform.store.upload",
                    |v| &mut v.upload,
                    || store.upload(program),
                );
            }
        }
        let checked = answer.as_ref().map_err(String::clone).and_then(|body| {
            let reference = reference.map_err(|e| format!("reference daemon: {e}"))?;
            check_miss_answer(op, body, &reference)
        });
        match checked {
            Ok(insts) => verified.guest_insts += insts,
            Err(error) => verified.failures.push(format!("{}: {error}", op.key)),
        }
    }
    verified
}

/// Checks one serve-miss answer against the reference daemon's; returns
/// the guest instructions its perf rows report.
fn check_miss_answer(op: &MissOp, body: &str, reference: &str) -> Result<u64, String> {
    if op.kind == MissKind::Upload {
        // `programs` counts the answering store's residents, which differ
        // between the fleet (uploads replicate) and the reference.
        let upload = JsonValue::parse(body).map_err(|e| format!("unparseable upload: {e}"))?;
        let fingerprint = upload.get("fingerprint").and_then(JsonValue::as_str);
        let dedup = upload.get("dedup").and_then(JsonValue::as_bool);
        return if fingerprint == Some(op.expect.as_str()) && dedup == Some(false) {
            Ok(0)
        } else {
            Err(format!("upload answered {body}, expected fresh {}", op.expect))
        };
    }
    if strip_stats(body) != strip_stats(reference) {
        return Err("answer differs from the in-process reference".to_string());
    }
    check_report(body)
}
