//! The `lab` CLI: list, run and sweep the declared scenarios — locally or
//! through the `dbt-serve` daemon.
//!
//! ```sh
//! cargo run --release -p dbt-lab -- list
//! cargo run --release -p dbt-lab -- run figure4/gemm/our-approach/default
//! cargo run --release -p dbt-lab -- sweep                 # every sweep
//! cargo run --release -p dbt-lab -- sweep figure4 --size small --threads 8
//! cargo run --release -p dbt-lab -- analyze histogram    # taint verdicts
//! cargo run --release -p dbt-lab -- analyze spectre-v1 --dot | dot -Tsvg
//!
//! # The deterministic hot-path profiler and the throughput microbench:
//! cargo run --release -p dbt-lab -- profile spectre_v1 --policy selective --trace trace.json
//! cargo run --release -p dbt-lab -- bench --json-dir artifacts
//!
//! # Ad-hoc guest programs from files (text assembly or image JSON):
//! cargo run --release -p dbt-lab -- run-file examples/spectre_v1_gadget.s --policy fence
//! cargo run --release -p dbt-lab -- analyze examples/spectre_v1_gadget.s
//!
//! # The daemon (see docs/PROTOCOL.md for the wire protocol):
//! cargo run --release -p dbt-lab -- serve --addr 127.0.0.1:4075 &
//! cargo run --release -p dbt-lab -- submit sweep figure4 --addr 127.0.0.1:4075
//! cargo run --release -p dbt-lab -- submit upload examples/spectre_v1_gadget.s --addr 127.0.0.1:4075
//! cargo run --release -p dbt-lab -- submit analyze fp:0123456789abcdef --addr 127.0.0.1:4075
//! cargo run --release -p dbt-lab -- submit stats --addr 127.0.0.1:4075
//! cargo run --release -p dbt-lab -- metrics --addr 127.0.0.1:4075
//! cargo run --release -p dbt-lab -- submit shutdown --addr 127.0.0.1:4075
//!
//! # Load-test an (in-process, unless --addr is given) daemon and emit the
//! # throughput artifact:
//! cargo run --release -p dbt-lab -- loadgen --clients 4 --iterations 8 --json-dir artifacts
//!
//! # Fleet mode (see `dbt-router`): front several daemons with the
//! # consistent-hash router, submit through it, and emit the scaling artifact:
//! cargo run --release -p dbt-lab -- router --backends 127.0.0.1:4075,127.0.0.1:4077
//! cargo run --release -p dbt-lab -- submit run figure4/gemm/selective/default --via-router
//! cargo run --release -p dbt-lab -- loadgen --fleet 3
//! cargo run --release -p dbt-lab -- router-bench --json-dir artifacts
//!
//! # Distributed tracing and the structured event log (docs/OBSERVABILITY.md):
//! cargo run --release -p dbt-lab -- submit run figure4/gemm/selective/default --via-router --trace-id job-1
//! cargo run --release -p dbt-lab -- trace job-1 --via-router --chrome stitched.json
//! cargo run --release -p dbt-lab -- logs --level warn --via-router
//! cargo run --release -p dbt-lab -- loadgen --clients 4 --latency-json latency.json
//! ```
//!
//! `sweep` writes one `BENCH_<sweep>.json` per sweep (stable bytes, diffable
//! across PRs) next to the human tables on stdout.

use dbt_lab::{
    adhoc_scenario, analyze_built, analyze_program, format_attack_table, format_table,
    format_variant_table, profile_program, run_bench, run_sweep, run_sweep_with, strip_stats,
    ExecOptions, LabDaemon, PlatformOverrides, ProgramSpec, Registry, ScenarioKind, SourceKind,
    TranslationService,
};
use dbt_router::{serve_router, QuotaConfig, RouterConfig, RouterHandle};
use dbt_serve::{
    Client, FrameMeta, JsonValue, LoadOptions, ProgramSource, Request, Response, RunKnobs,
    ServerConfig, ServerHandle, DEFAULT_RUN_POLICY,
};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    command: String,
    positional: Vec<String>,
    size: WorkloadSize,
    threads: usize,
    json_dir: Option<String>,
    quiet: bool,
    json: bool,
    dot: bool,
    addr: Option<String>,
    workers: usize,
    queue_depth: usize,
    clients: usize,
    iterations: usize,
    policy: String,
    trace: Option<String>,
    backends: Option<String>,
    auth: Option<String>,
    rate: Option<u64>,
    burst: Option<u64>,
    fleet: usize,
    via_router: bool,
    trace_id: Option<String>,
    level: Option<String>,
    chrome: Option<String>,
    latency_json: Option<String>,
    cache_dir: Option<String>,
    restart: bool,
    budget: Option<u64>,
}

/// Default daemon address when `--addr` is not given.
const DEFAULT_ADDR: &str = "127.0.0.1:4075";

/// Default router address for `lab router` and `--via-router`.
const DEFAULT_ROUTER_ADDR: &str = "127.0.0.1:4076";

fn usage() -> &'static str {
    "usage: lab <command> [options]\n\
     \n\
     commands:\n\
     \x20 list                     list declared sweeps and their scenarios\n\
     \x20 run <scenario>           run one scenario by full name\n\
     \x20 run-file <path>          run an ad-hoc guest program from a .s\n\
     \x20                          assembly or .json program-image file\n\
     \x20                          under --policy\n\
     \x20 sweep [name ...]         run the named sweeps (default: all)\n\
     \x20 profile <program>        deterministic hot-path profile of one\n\
     \x20                          program under --policy: per-phase cycle\n\
     \x20                          attribution, speculation events, and a\n\
     \x20                          Chrome-trace export via --trace\n\
     \x20 bench                    one cold run per registry workload,\n\
     \x20                          translation included (writes\n\
     \x20                          BENCH_sim-throughput.json with --json-dir)\n\
     \x20 analyze <program|path>   per-block speculative-taint verdicts\n\
     \x20                          (a workload name, ptr-matmul, spectre-v1,\n\
     \x20                          spectre-v4, or a .s/.json file path)\n\
     \x20 serve                    run the lab daemon (NDJSON over TCP)\n\
     \x20 submit <op> [arg]        send one request to a running daemon\n\
     \x20                          (run <scenario|ref> | profile [ref] |\n\
     \x20                           sweep <name> | analyze <program|ref> |\n\
     \x20                           upload <path> |\n\
     \x20                           stats | metrics | health | shutdown) and\n\
     \x20                          print the response body; refs are\n\
     \x20                          registry:<name> or fp:<hex> from a\n\
     \x20                          previous upload\n\
     \x20 metrics                  scrape a running daemon's Prometheus\n\
     \x20                          text exposition (alias of submit metrics)\n\
     \x20 trace <trace_id>         fetch the span tree of one traced request\n\
     \x20                          (stitched across router and backend with\n\
     \x20                          --via-router); --chrome exports Chrome\n\
     \x20                          trace_event JSON\n\
     \x20 logs                     fetch the daemon's (or, with --via-router,\n\
     \x20                          the router's) structured event log,\n\
     \x20                          filtered by --level\n\
     \x20 loadgen                  drive N concurrent clients against a\n\
     \x20                          daemon and emit BENCH_serve-throughput\n\
     \x20 router                   front a daemon fleet with the consistent-\n\
     \x20                          hash router (requires --backends; optional\n\
     \x20                          --auth/--rate/--burst enforce protocol v3)\n\
     \x20 router-bench             loadgen through an in-process router at\n\
     \x20                          1/2/4 in-process backends and emit\n\
     \x20                          BENCH_router-scaling with --json-dir\n\
     \x20 cache <action>           inspect or maintain a durable cache dir\n\
     \x20                          without a daemon (stats | gc | clear;\n\
     \x20                          requires --cache-dir, gc also --budget)\n\
     \n\
     options:\n\
     \x20 --size mini|small        problem-size preset (default: mini)\n\
     \x20 --policy LABEL           run-file / submit run <ref>: mitigation\n\
     \x20                          policy (default: selective)\n\
     \x20 --threads N              worker threads (default: one per CPU)\n\
     \x20 --json-dir DIR           write BENCH_<sweep>.json files to DIR\n\
     \x20 --json                   analyze/profile: stable machine-readable\n\
     \x20                          output\n\
     \x20 --trace PATH             profile: write a Chrome trace_event JSON\n\
     \x20                          file (chrome://tracing, ui.perfetto.dev)\n\
     \x20 --trace-id ID            submit: put this trace id on the frame so\n\
     \x20                          the request's span tree is fetchable with\n\
     \x20                          `lab trace ID` afterwards\n\
     \x20 --chrome PATH            trace: write the fetched span tree as a\n\
     \x20                          Chrome trace_event JSON file\n\
     \x20 --level LEVEL            logs: minimum level to fetch\n\
     \x20                          (debug|info|warn|error; default: debug)\n\
     \x20 --latency-json PATH      loadgen: write the per-op latency snapshot\n\
     \x20                          (percentiles + the slowest request's span\n\
     \x20                          tree per op) as JSON; never a BENCH file\n\
     \x20 --dot                    analyze: Graphviz with the taint overlay\n\
     \x20 --quiet                  no per-job progress on stderr\n\
     \x20 --addr HOST:PORT         daemon address (default: 127.0.0.1:4075;\n\
     \x20                          loadgen: in-process daemon when omitted)\n\
     \x20 --workers N              serve: worker pool size (default: 2)\n\
     \x20 --queue-depth N          serve: job queue bound (default: 16)\n\
     \x20 --clients N              loadgen: concurrent clients (default: 4)\n\
     \x20 --iterations N           loadgen: passes per client (default: 8)\n\
     \x20 --fleet N                loadgen: drive N in-process daemons behind\n\
     \x20                          an in-process router instead of one daemon\n\
     \x20 --backends LIST          router: comma-separated daemon addresses\n\
     \x20 --via-router             submit/metrics: default --addr becomes the\n\
     \x20                          router's 127.0.0.1:4076\n\
     \x20 --auth TOKEN             router: the one accepted bearer token\n\
     \x20                          (default: auth off); submit/metrics: the\n\
     \x20                          token to present (protocol v3)\n\
     \x20 --rate N                 router: quota refill, tokens/sec per\n\
     \x20                          client (default: quota off)\n\
     \x20 --burst N                router: quota burst (default: --rate)\n\
     \x20 --cache-dir DIR          serve/loadgen: durable content-addressed\n\
     \x20                          cache surviving daemon restarts (default:\n\
     \x20                          off; answers stay byte-identical either\n\
     \x20                          way); cache: the directory to operate on\n\
     \x20 --restart                loadgen: drive a cold daemon, tear it\n\
     \x20                          down, relaunch on the same cache dir and\n\
     \x20                          drive again; reports cold-vs-warm hit\n\
     \x20                          rates on stderr and fails on any response\n\
     \x20                          divergence (never writes BENCH files)\n\
     \x20 --budget BYTES           cache gc: the byte budget to evict down to\n"
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: args.first().cloned().ok_or_else(|| "missing command".to_string())?,
        positional: Vec::new(),
        size: WorkloadSize::Mini,
        threads: 0,
        json_dir: None,
        quiet: false,
        json: false,
        dot: false,
        addr: None,
        workers: 2,
        queue_depth: 16,
        clients: 4,
        iterations: 8,
        policy: DEFAULT_RUN_POLICY.to_string(),
        trace: None,
        backends: None,
        auth: None,
        rate: None,
        burst: None,
        fleet: 0,
        via_router: false,
        trace_id: None,
        level: None,
        chrome: None,
        latency_json: None,
        cache_dir: None,
        restart: false,
        budget: None,
    };
    let mut it = args[1..].iter();
    let number = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| format!("{flag} expects a number"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--size" => {
                parsed.size = match it.next().map(String::as_str) {
                    Some("mini") => WorkloadSize::Mini,
                    Some("small") => WorkloadSize::Small,
                    other => return Err(format!("--size expects mini|small, got {other:?}")),
                };
            }
            "--threads" => parsed.threads = number("--threads", &mut it)?,
            "--workers" => parsed.workers = number("--workers", &mut it)?,
            "--queue-depth" => parsed.queue_depth = number("--queue-depth", &mut it)?,
            "--clients" => parsed.clients = number("--clients", &mut it)?,
            "--iterations" => parsed.iterations = number("--iterations", &mut it)?,
            "--fleet" => parsed.fleet = number("--fleet", &mut it)?,
            "--rate" => parsed.rate = Some(number("--rate", &mut it)? as u64),
            "--burst" => parsed.burst = Some(number("--burst", &mut it)? as u64),
            "--backends" => {
                parsed.backends = Some(
                    it.next()
                        .ok_or_else(|| "--backends expects host:port[,host:port...]".to_string())?
                        .clone(),
                );
            }
            "--auth" => {
                parsed.auth =
                    Some(it.next().ok_or_else(|| "--auth expects a token".to_string())?.clone());
            }
            "--via-router" => parsed.via_router = true,
            "--json-dir" => {
                parsed.json_dir =
                    Some(it.next().ok_or_else(|| "--json-dir expects a path".to_string())?.clone());
            }
            "--addr" => {
                parsed.addr =
                    Some(it.next().ok_or_else(|| "--addr expects host:port".to_string())?.clone());
            }
            "--policy" => {
                parsed.policy =
                    it.next().ok_or_else(|| "--policy expects a policy label".to_string())?.clone();
            }
            "--trace" => {
                parsed.trace =
                    Some(it.next().ok_or_else(|| "--trace expects a path".to_string())?.clone());
            }
            "--trace-id" => {
                parsed.trace_id =
                    Some(it.next().ok_or_else(|| "--trace-id expects an id".to_string())?.clone());
            }
            "--level" => {
                parsed.level = Some(
                    it.next()
                        .ok_or_else(|| "--level expects debug|info|warn|error".to_string())?
                        .clone(),
                );
            }
            "--chrome" => {
                parsed.chrome =
                    Some(it.next().ok_or_else(|| "--chrome expects a path".to_string())?.clone());
            }
            "--latency-json" => {
                parsed.latency_json = Some(
                    it.next().ok_or_else(|| "--latency-json expects a path".to_string())?.clone(),
                );
            }
            "--cache-dir" => {
                parsed.cache_dir = Some(
                    it.next().ok_or_else(|| "--cache-dir expects a path".to_string())?.clone(),
                );
            }
            "--budget" => parsed.budget = Some(number("--budget", &mut it)? as u64),
            "--restart" => parsed.restart = true,
            "--quiet" => parsed.quiet = true,
            "--json" => parsed.json = true,
            "--dot" => parsed.dot = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            positional => parsed.positional.push(positional.to_string()),
        }
    }
    Ok(parsed)
}

fn cmd_list(registry: &Registry) {
    for sweep in registry.sweeps() {
        println!("{} — {} ({} scenarios)", sweep.name, sweep.description, sweep.job_count());
        for scenario in sweep.expand() {
            println!("  {}", scenario.name);
        }
    }
}

fn cmd_run(registry: &Registry, args: &Args) -> Result<(), String> {
    let name = args
        .positional
        .first()
        .ok_or_else(|| "run expects a scenario name (see `lab list`)".to_string())?;
    let scenario = registry
        .find_scenario(name)
        .ok_or_else(|| format!("unknown scenario `{name}` (see `lab list`)"))?;
    let opts = ExecOptions { threads: 1, verbose: !args.quiet };
    let report = run_sweep(name, std::slice::from_ref(&scenario), opts);
    print!("{}", report.to_json());
    Ok(())
}

fn cmd_sweep(registry: &Registry, args: &Args) -> Result<(), String> {
    let sweeps: Vec<_> = if args.positional.is_empty() {
        registry.sweeps().iter().collect()
    } else {
        args.positional
            .iter()
            .map(|name| registry.find(name).ok_or_else(|| format!("unknown sweep `{name}`")))
            .collect::<Result<_, _>>()?
    };
    let opts = ExecOptions { threads: args.threads, verbose: !args.quiet };
    // One translation service for the whole invocation: later sweeps reuse
    // every compile earlier sweeps already paid for (each report still
    // counts only the queries its own sessions issued).
    let service = TranslationService::new();
    let mut total_jobs = 0;
    let mut total_hits = 0u64;
    let mut total_misses = 0u64;
    let sweep_count = sweeps.len();
    for sweep in sweeps {
        let scenarios = sweep.expand();
        if !args.quiet {
            eprintln!(
                "[lab] sweep `{}`: {} scenarios on {} thread(s)",
                sweep.name,
                scenarios.len(),
                opts.effective_threads(scenarios.len())
            );
        }
        let report = run_sweep_with(&sweep.name, &scenarios, opts, &service);
        total_jobs += report.stats.jobs;
        total_hits += report.stats.translation_hits;
        total_misses += report.stats.translation_misses;
        for (name, error) in report.failures() {
            eprintln!("[lab] skipped {name} ({error})");
        }

        println!("== {} — {}\n", sweep.name, sweep.description);
        let has_perf = report.results.iter().any(|r| r.scenario.kind == ScenarioKind::Perf);
        let has_attack = report.results.iter().any(|r| r.scenario.kind == ScenarioKind::Attack);
        // A perf sweep with one policy and several platform variants
        // compares machines, not countermeasures — use the variant layout
        // (e.g. the speculation ablation).
        if has_perf && sweep.policies.len() == 1 && sweep.platforms.len() > 1 {
            println!("{}", format_variant_table(&report));
        } else if has_perf {
            println!("{}", format_table(&report.slowdown_table()));
        }
        if has_attack {
            println!("{}", format_attack_table(&report));
        }

        if let Some(dir) = &args.json_dir {
            let path = format!("{dir}/BENCH_{}.json", sweep.name);
            std::fs::write(&path, report.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            if !args.quiet {
                eprintln!("[lab] wrote {path}");
            }
        }
    }
    if !args.quiet {
        eprintln!(
            "[lab] {total_jobs} scenario(s) executed across {sweep_count} sweep(s); \
             translation cache: {total_hits} hits / {total_misses} misses"
        );
    }
    Ok(())
}

/// Reads an ad-hoc program source file: `.s` is text assembly, `.json` a
/// program image; anything else is sniffed (a leading `{` means image).
/// Returns the file stem (the report label), the source kind and the text.
fn load_source(path: &str) -> Result<(String, SourceKind, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kind = if path.ends_with(".json") {
        SourceKind::Image
    } else if path.ends_with(".s") {
        SourceKind::Asm
    } else if text.trim_start().starts_with('{') {
        SourceKind::Image
    } else {
        SourceKind::Asm
    };
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
        .to_string();
    Ok((stem, kind, text))
}

/// `true` when an `analyze` argument names a source file rather than a
/// registry program. Only the explicit `.s`/`.json` suffixes route to the
/// filesystem — a stray local file must never shadow a registry name.
fn looks_like_path(arg: &str) -> bool {
    arg.ends_with(".s") || arg.ends_with(".json")
}

fn cmd_run_file(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .first()
        .ok_or_else(|| "run-file expects a path (e.g. `lab run-file gadget.s`)".to_string())?;
    let policy = MitigationPolicy::from_label(&args.policy)
        .ok_or_else(|| format!("unknown policy `{}` (see the sweep tables)", args.policy))?;
    let (label, kind, text) = load_source(path)?;
    // Build once up front so parse errors carry the source diagnostics
    // instead of surfacing as a failed job row.
    let spec = ProgramSpec::Source { label: label.clone(), kind, text };
    let program = Arc::new(spec.build()?);
    let scenario = adhoc_scenario(&label, program, policy, PlatformOverrides::default(), None);
    let opts = ExecOptions { threads: 1, verbose: !args.quiet };
    let report = run_sweep(&scenario.name, std::slice::from_ref(&scenario), opts);
    print!("{}", report.to_json());
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let program = args
        .positional
        .first()
        .ok_or_else(|| "analyze expects a program name (e.g. `lab analyze gemm`)".to_string())?;
    let report = if looks_like_path(program) {
        let (label, kind, text) = load_source(program)?;
        let built = ProgramSpec::Source { label: label.clone(), kind, text }.build()?;
        analyze_built(&label, &built)?
    } else {
        analyze_program(program, args.size)?
    };
    if args.json {
        print!("{}", report.to_json());
    } else if args.dot {
        print!("{}", report.to_dot());
    } else {
        print!("{report}");
    }
    Ok(())
}

/// `lab profile`: the deterministic hot-path profile of one program —
/// per-phase cycle attribution plus speculation events, with an optional
/// Chrome-trace export for chrome://tracing / ui.perfetto.dev.
fn cmd_profile(args: &Args) -> Result<(), String> {
    let label = args
        .positional
        .first()
        .ok_or_else(|| "profile expects a program (e.g. `lab profile spectre_v1`)".to_string())?;
    let policy = MitigationPolicy::from_label(&args.policy)
        .ok_or_else(|| format!("unknown policy `{}` (see the sweep tables)", args.policy))?;
    let output = profile_program(label, policy, args.size)?;
    if let Some(path) = &args.trace {
        std::fs::write(path, &output.chrome_trace)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("[profile] wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
    }
    if args.json {
        print!("{}", output.report.to_json());
    } else {
        print!("{}", output.report.to_text());
    }
    Ok(())
}

/// `lab bench`: one cold run per registry workload, translation
/// included. The cycle/instruction columns are deterministic; the
/// wall-clock throughput members live on their own lines so CI can diff
/// the artifact with those lines excluded.
fn cmd_bench(args: &Args) -> Result<(), String> {
    let report = run_bench(args.size)?;
    let json = report.to_json();
    match &args.json_dir {
        Some(dir) => {
            let path = format!("{dir}/BENCH_sim-throughput.json");
            std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !args.quiet {
                eprintln!("[bench] wrote {path}");
            }
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let addr = args.addr.as_deref().unwrap_or(DEFAULT_ADDR);
    let daemon =
        Arc::new(LabDaemon::with_cache_dir(args.size, args.threads, args.cache_dir.as_deref())?);
    let config = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        cache_dir: args.cache_dir.clone(),
        ..ServerConfig::default()
    };
    let (workers, queue_depth) = (config.workers, config.queue_depth);
    let handle =
        dbt_serve::serve(addr, daemon, config).map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    // The listening line goes to stdout so scripts can capture the bound
    // (possibly ephemeral) port.
    println!(
        "[serve] listening on {} ({} workers, queue depth {}, size {:?})",
        handle.addr(),
        workers,
        queue_depth,
        args.size
    );
    if let (Some(dir), false) = (&args.cache_dir, args.quiet) {
        eprintln!("[serve] durable cache at {dir}");
    }
    use std::io::Write;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.wait();
    if !args.quiet {
        eprintln!("[serve] stopped");
    }
    Ok(())
}

fn cmd_submit(args: &Args) -> Result<(), String> {
    let op = args.positional.first().ok_or_else(|| {
        "submit expects an op (run|profile|sweep|analyze|upload|stats|metrics|health|shutdown)"
            .to_string()
    })?;
    let arg = |what: &str| {
        args.positional
            .get(1)
            .cloned()
            .ok_or_else(|| format!("submit {op} expects a {what} argument"))
    };
    let request = match op.as_str() {
        // A ref-shaped argument (scheme prefix) runs an ad-hoc program
        // under --policy; anything else is a scenario name as before.
        "run" => {
            let target = arg("scenario name or program ref")?;
            if target.starts_with("registry:") || target.starts_with("fp:") {
                Request::RunProgram {
                    program: target,
                    policy: args.policy.clone(),
                    knobs: RunKnobs::default(),
                }
            } else {
                Request::Run { scenario: target }
            }
        }
        "sweep" => Request::Sweep { name: arg("sweep name")?, threads: args.threads },
        "analyze" => Request::Analyze { program: arg("program name or ref")? },
        "upload" => {
            let (_, kind, text) = load_source(&arg("source file path")?)?;
            let source = match kind {
                SourceKind::Asm => ProgramSource::Asm(text),
                SourceKind::Image => ProgramSource::Image(text),
            };
            Request::Upload { source }
        }
        // Without an argument, `profile` fetches the server's trace log;
        // with one, it profiles the referenced program under --policy.
        "profile" => Request::Profile {
            program: args.positional.get(1).cloned(),
            policy: args.policy.clone(),
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "health" => Request::Health,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown submit op `{other}`")),
    };
    submit_one(args, &request)
}

/// `lab metrics`: scrape a running daemon's (or, with `--via-router`, the
/// whole fleet's merged) Prometheus text exposition.
fn cmd_metrics(args: &Args) -> Result<(), String> {
    submit_one(args, &Request::Metrics)
}

/// Sends one request to the daemon or router that `--addr`/`--via-router`
/// select — carrying the `--auth` bearer token and `--trace-id` (protocol
/// v3) when given — and returns the `ok` body.
fn request_body(args: &Args, request: &Request) -> Result<String, String> {
    let addr = args.addr.as_deref().unwrap_or(if args.via_router {
        DEFAULT_ROUTER_ADDR
    } else {
        DEFAULT_ADDR
    });
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let meta = FrameMeta {
        trace_id: args.trace_id.clone(),
        auth: args.auth.clone(),
        ..FrameMeta::default()
    };
    let (response, _trace) = client.request_meta(request, &meta)?;
    match response {
        Response::Ok { body, .. } => Ok(body),
        Response::Busy { op } => Err(format!("server busy (op `{op}`), try again later")),
        Response::QuotaExceeded { op } => {
            Err(format!("quota exceeded (op `{op}`), back off and retry"))
        }
        Response::Error { error, .. } => Err(error),
    }
}

/// [`request_body`], printed with a trailing newline.
fn submit_one(args: &Args, request: &Request) -> Result<(), String> {
    let body = request_body(args, request)?;
    print!("{body}");
    if !body.ends_with('\n') {
        println!();
    }
    Ok(())
}

/// `lab trace <trace_id>`: fetch the span tree of one traced request —
/// assembled by the daemon, or stitched across router and owning backend
/// with `--via-router` — and optionally export it as Chrome trace_event
/// JSON (`--chrome`).
fn cmd_trace(args: &Args) -> Result<(), String> {
    let target = args.positional.first().ok_or_else(|| {
        "trace expects a trace id (e.g. `lab submit run ... --trace-id job-1`, \
         then `lab trace job-1`)"
            .to_string()
    })?;
    let body = request_body(args, &Request::Trace { target: target.clone() })?;
    if let Some(path) = &args.chrome {
        let chrome = chrome_trace_json(&body)?;
        std::fs::write(path, &chrome).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("[trace] wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
    }
    println!("{body}");
    Ok(())
}

/// `lab logs`: fetch the structured event log of the daemon (or of the
/// router with `--via-router`), filtered to `--level` and above.
fn cmd_logs(args: &Args) -> Result<(), String> {
    submit_one(args, &Request::Logs { level: args.level.clone() })
}

/// Converts a `dbt-serve/trace/v1` tree body into Chrome `trace_event`
/// JSON: one complete ("X") event per span, grouped into one track per
/// span-id prefix (`r` = router, `d` = daemon). The wall-clock members
/// are emitted adjacent and unspaced (`"ts":N,"dur":N`) so determinism
/// checks can strip them with a single substitution; everything else in
/// the export is structural.
fn chrome_trace_json(tree: &str) -> Result<String, String> {
    let value = JsonValue::parse(tree)?;
    let trace_id = value.get("trace_id").and_then(JsonValue::as_str).unwrap_or("?");
    let spans = value
        .get("spans")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "trace body lacks a `spans` array".to_string())?;
    let mut tracks: Vec<String> = Vec::new();
    let mut events = Vec::new();
    for span in spans {
        let span_id = span.get("span_id").and_then(JsonValue::as_str).unwrap_or("?");
        let stage = span.get("stage").and_then(JsonValue::as_str).unwrap_or("?");
        let start = span.get("start_micros").and_then(JsonValue::as_u64).unwrap_or(0);
        let duration = span.get("duration_micros").and_then(JsonValue::as_u64).unwrap_or(0);
        let prefix = span_id.split(':').next().unwrap_or("?").to_string();
        let tid = match tracks.iter().position(|known| *known == prefix) {
            Some(position) => position + 1,
            None => {
                tracks.push(prefix.clone());
                tracks.len()
            }
        };
        events.push(format!(
            "{{\"name\": \"{stage}\", \"cat\": \"{prefix}\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {tid}, \"ts\":{start},\"dur\":{duration}, \
             \"args\": {{\"span_id\": \"{span_id}\"}}}}"
        ));
    }
    let names: Vec<String> = tracks
        .iter()
        .enumerate()
        .map(|(index, prefix)| {
            format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": \"{prefix}\"}}}}",
                index + 1
            )
        })
        .collect();
    let mut lines = names;
    lines.extend(events);
    Ok(format!(
        "{{\"displayTimeUnit\": \"ms\", \"otherData\": {{\"trace_id\": \"{trace_id}\"}}, \
         \"traceEvents\": [\n{}\n]}}\n",
        lines.join(",\n")
    ))
}

/// The loadgen request mix: repeated single-scenario queries across several
/// policies plus one full sweep, so both the run-summary memo and the
/// translation service see identical work from every client.
fn loadgen_requests(threads: usize) -> Vec<Request> {
    let scenarios = [
        "figure4/gemm/our-approach/default",
        "figure4/gemm/selective/default",
        "figure4/atax/fence/default",
        "attack-table/spectre-v1/selective/default",
    ];
    let mut requests: Vec<Request> =
        scenarios.iter().map(|s| Request::Run { scenario: (*s).to_string() }).collect();
    requests.push(Request::Sweep { name: "ptr-matmul".to_string(), threads });
    requests
}

/// Extracts `path` (e.g. `["lab", "run_memo", "hits"]`) as a u64 from a
/// parsed stats body.
fn stat_u64(stats: &JsonValue, path: &[&str]) -> Result<u64, String> {
    let mut value = stats;
    for key in path {
        value = value.get(key).ok_or_else(|| format!("stats body lacks `{}`", path.join(".")))?;
    }
    value.as_u64().ok_or_else(|| format!("`{}` is not a u64", path.join(".")))
}

fn resolve_addr(addr: &str) -> Result<std::net::SocketAddr, String> {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to nothing"))
}

/// Hosts one in-process daemon on an ephemeral port with the CLI's
/// size/threads/workers/queue knobs.
fn start_daemon(args: &Args) -> Result<ServerHandle, String> {
    start_daemon_with_cache(args, args.cache_dir.as_deref())
}

/// [`start_daemon`] over an explicit cache directory (`loadgen --restart`
/// relaunches onto a directory that is not necessarily in `Args`).
fn start_daemon_with_cache(args: &Args, cache_dir: Option<&str>) -> Result<ServerHandle, String> {
    let daemon = Arc::new(LabDaemon::with_cache_dir(args.size, args.threads, cache_dir)?);
    let config = ServerConfig {
        workers: args.workers,
        queue_depth: args.queue_depth,
        cache_dir: cache_dir.map(str::to_string),
        ..ServerConfig::default()
    };
    dbt_serve::serve("127.0.0.1:0", daemon, config)
        .map_err(|e| format!("cannot start in-process daemon: {e}"))
}

/// Hosts `n` in-process daemons behind an in-process router (default
/// config: pure relay) — the fleet that `loadgen --fleet` and
/// `router-bench` drive.
fn start_fleet(args: &Args, n: usize) -> Result<(Vec<ServerHandle>, RouterHandle), String> {
    let mut daemons = Vec::with_capacity(n);
    for _ in 0..n {
        daemons.push(start_daemon(args)?);
    }
    let backends = daemons.iter().map(ServerHandle::addr).collect();
    let router = serve_router("127.0.0.1:0", backends, RouterConfig::default())
        .map_err(|e| format!("cannot start in-process router: {e}"))?;
    Ok((daemons, router))
}

fn stop_fleet(daemons: Vec<ServerHandle>, router: RouterHandle) {
    router.shutdown();
    router.wait();
    for daemon in daemons {
        daemon.shutdown();
        daemon.wait();
    }
}

/// `lab router`: front a fleet of already-running daemons (`--backends`)
/// with the consistent-hash router; `--auth`/`--rate`/`--burst` switch on
/// the protocol-v3 enforcement, which is otherwise off (pure relay).
fn cmd_router(args: &Args) -> Result<(), String> {
    let list = args
        .backends
        .as_deref()
        .ok_or_else(|| "router expects --backends host:port[,host:port...]".to_string())?;
    let backends =
        list.split(',').map(|part| resolve_addr(part.trim())).collect::<Result<Vec<_>, _>>()?;
    let quota = match (args.rate, args.burst) {
        (None, None) => None,
        (None, Some(_)) => return Err("--burst needs --rate".to_string()),
        (Some(rate), burst) => {
            Some(QuotaConfig { rate_per_sec: rate, burst: burst.unwrap_or(rate) })
        }
    };
    let config = RouterConfig {
        auth_tokens: args.auth.iter().cloned().collect(),
        quota,
        ..RouterConfig::default()
    };
    let auth = if config.auth_tokens.is_empty() { "off" } else { "on" };
    let enforced = if config.quota.is_some() { "on" } else { "off" };
    let addr = args.addr.as_deref().unwrap_or(DEFAULT_ROUTER_ADDR);
    let handle = serve_router(addr, backends.clone(), config)
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    // Stdout like `serve`, so scripts can capture the bound port.
    println!(
        "[router] listening on {} over {} backend(s) (auth {auth}, quota {enforced})",
        handle.addr(),
        backends.len(),
    );
    use std::io::Write;
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    handle.wait();
    if !args.quiet {
        eprintln!("[router] stopped");
    }
    Ok(())
}

/// Sums the per-backend `lab` cache counters out of the router's fleet
/// `stats` body (`{"router": ..., "backends": [<daemon stats>, ...]}`).
fn fleet_cache_sums(stats: &JsonValue) -> Result<(u64, u64, u64, u64), String> {
    let members = stats
        .get("backends")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "fleet stats body lacks a `backends` array".to_string())?;
    let mut sums = (0, 0, 0, 0);
    for member in members {
        sums.0 += stat_u64(member, &["lab", "run_memo", "hits"])?;
        sums.1 += stat_u64(member, &["lab", "run_memo", "misses"])?;
        sums.2 += stat_u64(member, &["lab", "translation", "hits"])?;
        sums.3 += stat_u64(member, &["lab", "translation", "misses"])?;
    }
    Ok(sums)
}

fn cmd_loadgen(args: &Args) -> Result<(), String> {
    if args.restart {
        return cmd_loadgen_restart(args);
    }
    if args.fleet > 0 && args.addr.is_some() {
        return Err("--fleet hosts its own daemons and router; drop --addr".to_string());
    }
    // Without --addr, host an in-process daemon (or, with --fleet N, N
    // daemons behind an in-process router) on ephemeral ports so the
    // artifact can be regenerated with one command and no setup.
    let mut local = None;
    let mut fleet = None;
    let addr = if args.fleet > 0 {
        let (daemons, router) = start_fleet(args, args.fleet)?;
        let addr = router.addr();
        fleet = Some((daemons, router));
        addr
    } else if let Some(addr) = &args.addr {
        resolve_addr(addr)?
    } else {
        let handle = start_daemon(args)?;
        let addr = handle.addr();
        local = Some(handle);
        addr
    };

    let requests = loadgen_requests(args.threads);
    if !args.quiet {
        eprintln!(
            "[loadgen] {} clients x {} iterations x {} requests against {addr}",
            args.clients,
            args.iterations,
            requests.len()
        );
    }
    let outcome = dbt_serve::drive(
        addr,
        &requests,
        LoadOptions { clients: args.clients, iterations: args.iterations },
        &|_, body| strip_stats(body),
    )?;

    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let stats = match client.request(&Request::Stats)? {
        Response::Ok { body, .. } => JsonValue::parse(&body)?,
        other => return Err(format!("stats request failed: {other:?}")),
    };
    // The latency snapshot must be taken while the daemon (or fleet) is
    // still up: the slowest request's span tree lives in server-side
    // rings. It is deliberately a separate file from the BENCH artifact,
    // whose bytes stay timing-free.
    if let Some(path) = &args.latency_json {
        let snapshot = latency_snapshot(args, &outcome, &mut client)?;
        std::fs::write(path, &snapshot).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !args.quiet {
            eprintln!("[loadgen] wrote {path} (latency snapshot, not a BENCH artifact)");
        }
    }
    if let Some(handle) = local.take() {
        handle.shutdown();
        handle.wait();
    }
    if let Some((daemons, router)) = fleet.take() {
        stop_fleet(daemons, router);
    }

    // Against a router the stats body is the fleet fan-out; sum the
    // per-backend caches so the report keeps its shape.
    let (memo_hits, memo_misses, translation_hits, translation_misses) =
        if stats.get("router").is_some() {
            fleet_cache_sums(&stats)?
        } else {
            (
                stat_u64(&stats, &["lab", "run_memo", "hits"])?,
                stat_u64(&stats, &["lab", "run_memo", "misses"])?,
                stat_u64(&stats, &["lab", "translation", "hits"])?,
                stat_u64(&stats, &["lab", "translation", "misses"])?,
            )
        };
    let rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    };
    let report = format!(
        "{{\n  \"schema\": \"dbt-serve-loadgen/v1\",\n  \"clients\": {},\n  \
         \"iterations\": {},\n  \"requests\": {},\n  \"ok\": {},\n  \"busy\": {},\n  \
         \"errors\": {},\n  \"mismatches\": {},\n  \
         \"run_memo\": {{\"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.6}}},\n  \"translation\": {{\"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.6}}}\n}}\n",
        args.clients,
        args.iterations,
        outcome.requests,
        outcome.ok,
        outcome.busy,
        outcome.errors,
        outcome.mismatches,
        memo_hits,
        memo_misses,
        rate(memo_hits, memo_misses),
        translation_hits,
        translation_misses,
        rate(translation_hits, translation_misses),
    );
    match &args.json_dir {
        Some(dir) => {
            let path = format!("{dir}/BENCH_serve-throughput.json");
            std::fs::write(&path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !args.quiet {
                eprintln!("[loadgen] wrote {path}");
            }
        }
        None => print!("{report}"),
    }
    if outcome.mismatches > 0 {
        return Err(format!(
            "{} responses diverged from the first answer to the same request",
            outcome.mismatches
        ));
    }
    if outcome.errors > 0 {
        return Err(format!("{} requests failed", outcome.errors));
    }
    if !args.quiet {
        eprintln!(
            "[loadgen] {} ok / {} busy; run-memo hit rate {:.1}%, translation {:.1}%",
            outcome.ok,
            outcome.busy,
            100.0 * rate(memo_hits, memo_misses),
            100.0 * rate(translation_hits, translation_misses)
        );
        // Per-op client-observed latency percentiles (deterministic bucket
        // upper bounds) and busy rate. Operator output only: this never
        // enters the BENCH artifact, whose bytes stay timing-free.
        for op in &outcome.per_op {
            eprintln!(
                "[loadgen] {}: {} requests, p50={}us p95={}us p99={}us, busy {:.1}%",
                op.op,
                op.requests,
                op.p50_micros,
                op.p95_micros,
                op.p99_micros,
                100.0 * op.busy_rate()
            );
        }
    }
    Ok(())
}

/// What one `loadgen --restart` phase measured.
struct RestartPhase {
    memo_hits: u64,
    memo_misses: u64,
    persist_hits: u64,
    persist_misses: u64,
    persist_writes: u64,
    /// Probe bodies (one per mix request, asked of the *fresh* daemon
    /// before the load), stripped of their `stats` blocks for cross-phase
    /// byte comparison.
    probes: Vec<String>,
    /// Probe bodies whose `stats` block recorded any simulation — the
    /// cold daemon simulates its first answers, a warm restart must not.
    probes_simulated: usize,
}

impl RestartPhase {
    fn memo_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// One `--restart` phase: launch a fresh daemon on `dir`, probe every mix
/// request once (capturing the fresh daemon's answers), drive the full
/// load, snapshot the stats, and tear the daemon down.
fn restart_phase(args: &Args, dir: &str) -> Result<RestartPhase, String> {
    let handle = start_daemon_with_cache(args, Some(dir))?;
    let addr = handle.addr();
    let requests = loadgen_requests(args.threads);
    let mut client =
        Client::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let mut probes = Vec::with_capacity(requests.len());
    let mut probes_simulated = 0;
    for request in &requests {
        let body = match client.request(request)? {
            Response::Ok { body, .. } => body,
            other => return Err(format!("restart probe failed: {other:?}")),
        };
        if !body.contains("\"simulations\": 0") {
            probes_simulated += 1;
        }
        probes.push(strip_stats(&body));
    }
    let outcome = dbt_serve::drive(
        addr,
        &requests,
        LoadOptions { clients: args.clients, iterations: args.iterations },
        &|_, body| strip_stats(body),
    )?;
    let stats = match client.request(&Request::Stats)? {
        Response::Ok { body, .. } => JsonValue::parse(&body)?,
        other => return Err(format!("stats request failed: {other:?}")),
    };
    handle.shutdown();
    handle.wait();
    if outcome.errors > 0 || outcome.mismatches > 0 {
        return Err(format!(
            "restart phase: {} errors, {} mismatches",
            outcome.errors, outcome.mismatches
        ));
    }
    Ok(RestartPhase {
        memo_hits: stat_u64(&stats, &["lab", "run_memo", "hits"])?,
        memo_misses: stat_u64(&stats, &["lab", "run_memo", "misses"])?,
        persist_hits: stat_u64(&stats, &["lab", "persist", "hits"])?,
        persist_misses: stat_u64(&stats, &["lab", "persist", "misses"])?,
        persist_writes: stat_u64(&stats, &["lab", "persist", "writes"])?,
        probes,
        probes_simulated,
    })
}

/// `lab loadgen --restart`: the warm-restart equivalence check. Runs the
/// whole loadgen mix against a cold daemon over a durable cache dir,
/// tears the daemon down, relaunches onto the same directory, and runs
/// the mix again. The summary is stderr-only — this mode never writes
/// BENCH files — and the command fails if any warm answer diverges from
/// its cold counterpart or the warm daemon simulated a fresh probe.
fn cmd_loadgen_restart(args: &Args) -> Result<(), String> {
    if args.addr.is_some() || args.fleet > 0 {
        return Err("--restart owns its daemon; drop --addr/--fleet".to_string());
    }
    if args.json_dir.is_some() {
        return Err("--restart writes no BENCH files; drop --json-dir".to_string());
    }
    let (dir, ephemeral) = match &args.cache_dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let dir = std::env::temp_dir()
                .join(format!("dbt-lab-loadgen-restart-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir.display().to_string(), true)
        }
    };
    if !args.quiet {
        eprintln!(
            "[loadgen] restart: {} clients x {} iterations, cache dir {dir}",
            args.clients, args.iterations
        );
    }
    let cold = restart_phase(args, &dir)?;
    let warm = restart_phase(args, &dir)?;
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let identical = cold.probes == warm.probes;
    // The summary is the artifact here; print it even under --quiet.
    eprintln!(
        "[loadgen] restart phase cold: run-memo hit rate {:.1}%, \
         persist {} hits / {} misses / {} writes",
        100.0 * cold.memo_rate(),
        cold.persist_hits,
        cold.persist_misses,
        cold.persist_writes,
    );
    eprintln!(
        "[loadgen] restart phase warm: run-memo hit rate {:.1}%, \
         persist {} hits / {} misses / {} writes",
        100.0 * warm.memo_rate(),
        warm.persist_hits,
        warm.persist_misses,
        warm.persist_writes,
    );
    eprintln!(
        "[loadgen] restart: warm probe simulations {} of {}; responses identical: {}",
        warm.probes_simulated,
        warm.probes.len(),
        identical
    );
    if !identical {
        return Err("warm-restart responses diverged from the cold daemon's".to_string());
    }
    if warm.probes_simulated > 0 {
        return Err(format!(
            "{} warm probes simulated despite the warm cache dir",
            warm.probes_simulated
        ));
    }
    Ok(())
}

/// The `--latency-json` body: per-op percentiles plus the span tree of
/// the slowest request of each op, fetched through the `trace` op (the
/// router stitches its own spans with the owning backend's).
fn latency_snapshot(
    args: &Args,
    outcome: &dbt_serve::LoadOutcome,
    client: &mut Client,
) -> Result<String, String> {
    let ops: Vec<String> = outcome
        .per_op
        .iter()
        .map(|op| {
            let tree = if op.slowest_trace.is_empty() {
                None
            } else {
                match client.request(&Request::Trace { target: op.slowest_trace.clone() }) {
                    Ok(Response::Ok { body, .. }) => Some(body),
                    _ => None,
                }
            };
            format!(
                "    {{\n      \"op\": \"{}\",\n      \"requests\": {},\n      \"busy\": {},\n      \
                 \"p50_micros\": {},\n      \"p95_micros\": {},\n      \"p99_micros\": {},\n      \
                 \"slowest_micros\": {},\n      \"slowest_trace\": \"{}\",\n      \
                 \"slowest_tree\": {}\n    }}",
                op.op,
                op.requests,
                op.busy,
                op.p50_micros,
                op.p95_micros,
                op.p99_micros,
                op.slowest_micros,
                op.slowest_trace,
                tree.as_deref().unwrap_or("null"),
            )
        })
        .collect();
    Ok(format!(
        "{{\n  \"schema\": \"dbt-serve-loadgen/latency/v1\",\n  \"clients\": {},\n  \
         \"iterations\": {},\n  \"ops\": [\n{}\n  ]\n}}\n",
        args.clients,
        args.iterations,
        ops.join(",\n")
    ))
}

/// `lab router-bench`: the loadgen mix through an in-process router at
/// 1, 2 and 4 in-process backends. Every member is deterministic — shard
/// assignment hashes backend *indices*, so the per-backend `forwarded`
/// counts are stable run over run and CI diffs the whole artifact. Speed
/// through the router is perfbench's `serve-hits` workload, not this.
fn cmd_router_bench(args: &Args) -> Result<(), String> {
    let requests = loadgen_requests(args.threads);
    let mut runs = Vec::new();
    for fleet_size in [1usize, 2, 4] {
        if !args.quiet {
            eprintln!(
                "[router-bench] {} backend(s): {} clients x {} iterations x {} requests",
                fleet_size,
                args.clients,
                args.iterations,
                requests.len()
            );
        }
        let (daemons, router) = start_fleet(args, fleet_size)?;
        let addr = router.addr();
        let outcome = dbt_serve::drive(
            addr,
            &requests,
            LoadOptions { clients: args.clients, iterations: args.iterations },
            &|_, body| strip_stats(body),
        )?;
        let mut client =
            Client::connect(addr).map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
        let stats = match client.request(&Request::Stats)? {
            Response::Ok { body, .. } => JsonValue::parse(&body)?,
            other => return Err(format!("stats request failed: {other:?}")),
        };
        let forwarded = stats
            .get("router")
            .and_then(|router| router.get("forwarded"))
            .and_then(JsonValue::as_array)
            .ok_or_else(|| "router stats lack `router.forwarded`".to_string())?
            .iter()
            .map(|count| count.as_u64().ok_or_else(|| "`forwarded` holds a non-u64".to_string()))
            .collect::<Result<Vec<u64>, String>>()?;
        stop_fleet(daemons, router);
        if outcome.errors > 0 || outcome.mismatches > 0 {
            return Err(format!(
                "run with {fleet_size} backend(s): {} errors, {} mismatches",
                outcome.errors, outcome.mismatches
            ));
        }
        let served: Vec<String> = forwarded.iter().map(u64::to_string).collect();
        // `forwarded` counts frames the router relayed per backend: the
        // loadgen mix plus exactly one `stats` fan-out frame each.
        runs.push(format!(
            "    {{\n      \"backends\": {},\n      \"requests\": {},\n      \"ok\": {},\n      \
             \"busy\": {},\n      \"errors\": {},\n      \"mismatches\": {},\n      \
             \"forwarded\": [{}]\n    }}",
            fleet_size,
            outcome.requests,
            outcome.ok,
            outcome.busy,
            outcome.errors,
            outcome.mismatches,
            served.join(", "),
        ));
    }
    let report = format!(
        "{{\n  \"schema\": \"dbt-router/scaling/v1\",\n  \"clients\": {},\n  \
         \"iterations\": {},\n  \"request_mix\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        args.clients,
        args.iterations,
        requests.len(),
        runs.join(",\n"),
    );
    match &args.json_dir {
        Some(dir) => {
            let path = format!("{dir}/BENCH_router-scaling.json");
            std::fs::write(&path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
            if !args.quiet {
                eprintln!("[router-bench] wrote {path}");
            }
        }
        None => print!("{report}"),
    }
    Ok(())
}

/// `lab cache stats|gc|clear`: operate on a durable cache directory
/// directly, without a daemon. `stats` scans the directory (the counter
/// members are zero — counters are per-daemon-lifetime); `gc` evicts
/// least-recently-used entries down to `--budget` bytes; `clear` removes
/// every entry and quarantined file. All three print one JSON line.
fn cmd_cache(args: &Args) -> Result<(), String> {
    let action = args
        .positional
        .first()
        .map(String::as_str)
        .ok_or_else(|| "cache expects an action (stats|gc|clear)".to_string())?;
    let dir =
        args.cache_dir.as_deref().ok_or_else(|| "cache expects --cache-dir DIR".to_string())?;
    let store = dbt_persist::PersistStore::open(dir)
        .map_err(|e| format!("cannot open cache dir `{dir}`: {e}"))?;
    match action {
        "stats" => println!("{}", store.stats().to_json()),
        "gc" => {
            let budget =
                args.budget.ok_or_else(|| "cache gc expects --budget BYTES".to_string())?;
            println!("{}", store.gc(budget).to_json());
        }
        "clear" => {
            let removed = store.clear().map_err(|e| format!("cannot clear `{dir}`: {e}"))?;
            println!("{{\"removed\": {removed}}}");
        }
        other => return Err(format!("unknown cache action `{other}` (stats|gc|clear)")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let registry = Registry::standard(args.size);
    let result = match args.command.as_str() {
        "list" => {
            cmd_list(&registry);
            Ok(())
        }
        "run" => cmd_run(&registry, &args),
        "run-file" => cmd_run_file(&args),
        "sweep" => cmd_sweep(&registry, &args),
        "profile" => cmd_profile(&args),
        "bench" => cmd_bench(&args),
        "analyze" => cmd_analyze(&args),
        "serve" => cmd_serve(&args),
        "submit" => cmd_submit(&args),
        "metrics" => cmd_metrics(&args),
        "trace" => cmd_trace(&args),
        "logs" => cmd_logs(&args),
        "loadgen" => cmd_loadgen(&args),
        "router" => cmd_router(&args),
        "router-bench" => cmd_router_bench(&args),
        "cache" => cmd_cache(&args),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
