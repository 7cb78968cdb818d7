//! End-to-end tests of the program-as-data pipeline: the image codec, the
//! text-assembly frontend, and ad-hoc programs travelling over TCP into
//! the daemon's content-addressed `ProgramStore`.
//!
//! The acceptance contract: a program submitted over the wire — as text
//! assembly or as an image document — runs and analyzes **byte-identically**
//! to the same program built in-process, and a second identical submission
//! is answered from the store/run-memo instead of re-doing anything.

use dbt_lab::{
    adhoc_scenario, analyze_built, resolve_program, run_sweep, strip_stats, ExecOptions, LabDaemon,
    PlatformOverrides,
};
use dbt_riscv::{parse_asm, Program};
use dbt_serve::{
    serve, Client, ConnectOptions, JsonValue, ProgramSource, Request, Response, RunKnobs,
    ServerConfig,
};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use std::sync::Arc;
use std::time::Duration;

/// The committed `.s` twin of `spectre_v1::build(b"GhostBusters")`.
const GADGET_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/spectre_v1_gadget.s");

fn gadget_source() -> String {
    std::fs::read_to_string(GADGET_PATH).expect("committed gadget source")
}

/// Every program in the analyzable registry namespace.
fn registry_programs() -> Vec<(String, Program)> {
    dbt_workloads::SUITE_NAMES
        .iter()
        .copied()
        .chain(["ptr-matmul", "spectre-v1", "spectre-v4"])
        .map(|label| {
            let program = resolve_program(label, WorkloadSize::Mini)
                .expect("registry label resolves")
                .build()
                .expect("registry program builds");
            (label.to_string(), Arc::unwrap_or_clone(program))
        })
        .collect()
}

#[test]
fn image_codec_round_trips_the_whole_registry() {
    for (label, program) in registry_programs() {
        let image = program.to_image();
        let back = Program::from_image(&image)
            .unwrap_or_else(|e| panic!("{label}: image does not parse back: {e}"));
        assert_eq!(back, program, "{label}: image round trip must be lossless");
        assert_eq!(back.fingerprint(), program.fingerprint(), "{label}");
        assert_eq!(back.to_image(), image, "{label}: re-serialisation is byte-stable");
    }
}

#[test]
fn the_committed_gadget_reassembles_its_builder_twin_byte_identically() {
    let parsed = parse_asm(&gadget_source()).expect("committed gadget parses");
    let built = dbt_attacks::spectre_v1::build(b"GhostBusters").expect("PoC builds");
    assert_eq!(
        parsed, built,
        "the .s file must mirror the Rust builder's emission sequence exactly"
    );
    assert_eq!(parsed.fingerprint(), built.fingerprint());
    // Identical guest images too (belt and braces: Program::Eq already
    // covers code, data, bases, entry, memory size and symbols).
    let a = parsed.build_memory().expect("image builds");
    let b = built.build_memory().expect("image builds");
    assert_eq!(a.len(), b.len());
}

fn ok_body(response: Response) -> String {
    match response {
        Response::Ok { body, .. } => body,
        other => panic!("expected ok, got {other:?}"),
    }
}

fn upload(client: &mut Client, source: ProgramSource) -> (String, bool) {
    let body = ok_body(client.request(&Request::Upload { source }).expect("transport"));
    let stats = JsonValue::parse(&body).expect("upload body parses");
    let fingerprint = stats
        .get("fingerprint")
        .and_then(JsonValue::as_str)
        .expect("upload body carries the fingerprint")
        .to_string();
    let dedup = stats.get("dedup").and_then(JsonValue::as_bool).expect("dedup member");
    (fingerprint, dedup)
}

#[test]
fn uploaded_programs_run_and_analyze_byte_identically_to_in_process_builds() {
    let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
    let handle = serve("127.0.0.1:0", Arc::new(daemon), ServerConfig::default())
        .expect("ephemeral port must bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Upload the gadget as text assembly; its image form must land on the
    // same content address, and repeats must be dedup hits.
    let source = gadget_source();
    let program = parse_asm(&source).expect("gadget parses");
    let (fp, dedup) = upload(&mut client, ProgramSource::Asm(source.clone()));
    assert!(!dedup, "first upload stores the program");
    assert_eq!(fp, format!("fp:{:016x}", program.fingerprint()));
    let (fp_again, dedup) = upload(&mut client, ProgramSource::Asm(source));
    assert!(dedup, "identical source is a store dedup hit");
    assert_eq!(fp, fp_again);
    let (fp_image, dedup) = upload(&mut client, ProgramSource::Image(program.to_image()));
    assert!(dedup, "the image form of the same program shares the content address");
    assert_eq!(fp, fp_image);

    // `run` by fingerprint ref: byte-identical to the in-process run of
    // the same program under the same ad-hoc scenario.
    let request = Request::RunProgram {
        program: fp.clone(),
        policy: "selective".to_string(),
        knobs: RunKnobs::default(),
    };
    let remote = ok_body(client.request(&request).expect("transport"));
    let scenario = adhoc_scenario(
        &fp,
        Arc::new(program.clone()),
        MitigationPolicy::Selective,
        PlatformOverrides::default(),
        None,
    );
    let local = run_sweep(
        &scenario.name,
        std::slice::from_ref(&scenario),
        ExecOptions { threads: 1, verbose: false },
    );
    assert_eq!(
        strip_stats(&remote),
        strip_stats(&local.to_json()),
        "an uploaded program must run byte-identically to the in-process build"
    );
    assert!(remote.contains("\"status\": \"ok\""), "{remote}");

    // The repeat is answered from the run memo: same observables, zero
    // simulations.
    let repeat = ok_body(client.request(&request).expect("transport"));
    assert_eq!(strip_stats(&remote), strip_stats(&repeat));
    assert!(repeat.contains("\"simulations\": 0"), "warm repeats never simulate: {repeat}");

    // `analyze` by fingerprint ref: byte-identical to the local analysis
    // of the same program, and the verdict flags the leak.
    let remote =
        ok_body(client.request(&Request::Analyze { program: fp.clone() }).expect("transport"));
    let local = analyze_built(&fp, &program).expect("gadget analyzes").to_json();
    assert_eq!(remote, local, "analysis is pure; daemon and in-process agree to the byte");
    assert!(remote.contains("\"leak_free\": false"), "the gadget must be flagged: {remote}");

    // The daemon's stats surface the store counters.
    let stats = JsonValue::parse(&ok_body(client.request(&Request::Stats).expect("transport")))
        .expect("stats parse");
    let store = stats.get("lab").and_then(|lab| lab.get("store")).expect("lab.store");
    assert_eq!(store.get("uploads").and_then(JsonValue::as_u64), Some(3), "{stats}");
    assert_eq!(store.get("dedup_hits").and_then(JsonValue::as_u64), Some(2), "{stats}");

    ok_body(client.request(&Request::Shutdown).expect("transport"));
    handle.wait();
}

#[test]
fn bad_uploads_and_unknown_refs_answer_error_frames() {
    let daemon = LabDaemon::new(WorkloadSize::Mini);
    let handle = serve("127.0.0.1:0", Arc::new(daemon), ServerConfig::default())
        .expect("ephemeral port must bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let bad = client
        .request(&Request::Upload { source: ProgramSource::Asm("frobnicate a0".to_string()) })
        .expect("transport");
    assert!(
        matches!(&bad, Response::Error { error, .. } if error.contains("frobnicate")),
        "{bad:?}"
    );

    let missing = client
        .request(&Request::Analyze { program: "fp:0000000000000001".to_string() })
        .expect("transport");
    assert!(
        matches!(&missing, Response::Error { error, .. } if error.contains("upload")),
        "{missing:?}"
    );

    let bad_policy = client
        .request(&Request::RunProgram {
            program: "gemm".to_string(),
            policy: "warp-drive".to_string(),
            knobs: RunKnobs::default(),
        })
        .expect("transport");
    assert!(
        matches!(&bad_policy, Response::Error { error, .. } if error.contains("warp-drive")),
        "{bad_policy:?}"
    );

    handle.shutdown();
    handle.wait();
}

#[test]
fn invalid_run_knobs_answer_error_frames_and_keep_the_worker() {
    let daemon = LabDaemon::with_threads(WorkloadSize::Mini, 1);
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let handle = serve("127.0.0.1:0", Arc::new(daemon), config).expect("ephemeral port must bind");
    // A lost worker leaves later jobs queued forever: time out instead.
    let options =
        ConnectOptions { read_timeout: Some(Duration::from_secs(30)), ..Default::default() };
    let mut client = Client::connect_with(handle.addr(), options).expect("connect");
    let base = r#"{"op": "run", "program": "gemm", "policy": "unsafe""#;
    for knob in ["issue_width", "hot_threshold"] {
        let reply = client.raw_request(&format!("{base}, \"{knob}\": 0}}")).expect("answered");
        assert!(
            matches!(&reply, Response::Error { error, .. } if error.contains(&format!("{knob} 0"))),
            "`{knob}: 0` must be refused by name: {reply:?}"
        );
    }
    // The only worker still runs jobs.
    let body = ok_body(client.raw_request(&format!("{base}}}")).expect("answered"));
    assert!(body.contains("\"status\": \"ok\""), "{body}");
    handle.shutdown();
    handle.wait();
}

/// A program of 33 short basic blocks carrying `data` bytes of image:
/// `value` tells the variants apart, the data section makes each one
/// heavy for the program store and the blocks (two compile products
/// each) make it heavy for the translation service. Every block's code
/// depends on `value`, so no two variants share a compile product.
fn heavy_upload(value: u64, data: u64) -> String {
    let step = value + 1;
    let blocks = format!("    addi a1, a1, {step}\n    beq a1, zero, done\n").repeat(32);
    format!(
        ".data payload, {data}\n    li a0, {value}\n{blocks}done:\n    li a2, {value}\n    ecall\n"
    )
}

/// The upload answer without its `programs` member, which counts the
/// answering store's residents and so differs between a flooded daemon
/// and a fresh one.
fn upload_identity(body: &str) -> (String, bool) {
    let value = JsonValue::parse(body).expect("upload answers JSON");
    let fingerprint = value.get("fingerprint").and_then(JsonValue::as_str).expect("fingerprint");
    (fingerprint.to_string(), value.get("dedup").and_then(JsonValue::as_bool).expect("dedup"))
}

#[test]
fn a_flood_of_uploads_and_runs_stays_within_every_cache_budget() {
    use dbt_platform::{DEFAULT_MEMO_CAPACITY, DEFAULT_STORE_BUDGET_BYTES};
    use dbt_serve::LabBackend;

    let daemon = LabDaemon::new(WorkloadSize::Mini);
    // Four times the store's byte budget in distinct uploads, each run by
    // fingerprint right after it lands, as the router's replicated uploads
    // arrive at a backend.
    let data = 256 << 10;
    let uploads = 4 * DEFAULT_STORE_BUDGET_BYTES / data;
    let policies = ["unsafe", "selective", "fence"];
    for value in 0..uploads {
        let source = ProgramSource::Asm(heavy_upload(value, data));
        let policy = policies[value as usize % policies.len()];
        let body = daemon.upload(&source).expect("upload");
        let (fp, dedup) = upload_identity(&body);
        assert!(!dedup, "upload {value} is fresh");
        let ran = daemon.run_program(&fp, policy, &RunKnobs::default()).expect("run fp:");
        // Every answer equals what a fresh daemon answers for the same
        // request.
        let fresh = LabDaemon::new(WorkloadSize::Mini);
        assert_eq!(upload_identity(&fresh.upload(&source).expect("upload")), (fp.clone(), false));
        let reference = fresh.run_program(&fp, policy, &RunKnobs::default()).expect("run fp:");
        assert_eq!(strip_stats(&ran), strip_stats(&reference), "run {fp} under {policy}");
    }
    // Attack runs with distinct secrets: fresh run-memo keys, whose code
    // the translation service shares with every other secret's.
    for (index, secret) in ["FloodSecret1", "floodsecret2"].iter().enumerate() {
        let program = ["spectre-v1", "spectre-v4"][index];
        let knobs = RunKnobs { secret: Some(secret.to_string()), ..RunKnobs::default() };
        let ran = daemon.run_program(program, "unsafe", &knobs).expect("attack run");
        let fresh = LabDaemon::new(WorkloadSize::Mini);
        let reference = fresh.run_program(program, "unsafe", &knobs).expect("attack run");
        assert_eq!(strip_stats(&ran), strip_stats(&reference), "{program} with {secret}");
    }

    let store = daemon.store();
    assert!(store.stats().evictions > 0, "the flood overran the store budget");
    assert!(
        store.resident_bytes() <= DEFAULT_STORE_BUDGET_BYTES,
        "{} resident image bytes",
        store.resident_bytes()
    );
    let service = daemon.service();
    assert!(service.stats().evictions > 0, "the flood overran the product budget");
    assert!(service.stats().products <= dbt_engine::DEFAULT_SERVICE_BUDGET_PRODUCTS);
    assert!(daemon.memo().stats().entries as u64 <= DEFAULT_MEMO_CAPACITY as u64);
    // An evicted upload is gone, exactly as if it was never uploaded.
    let first = upload_identity(
        &LabDaemon::new(WorkloadSize::Mini)
            .upload(&ProgramSource::Asm(heavy_upload(0, data)))
            .expect("upload"),
    )
    .0;
    let evicted = daemon.analyze(&first).expect_err("the first upload was evicted");
    assert!(evicted.contains("upload it first"), "{evicted}");
}
