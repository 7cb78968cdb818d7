//! The in-process workloads.
//!
//! * `compile-cold`: one thread runs cold `Session::run`s back to back,
//!   each with a fresh `TranslationService`, over the seeded (program,
//!   policy) list — translation dominates.
//! * `execute-warm`: the same list, every run sharing the one service
//!   set-up filled — every translation is a memo hit, so VLIW and cache
//!   simulation dominate.
//!
//! Set-up builds the programs, checks every kernel's final architectural
//! state against the reference interpreter, and runs the list once on a
//! shared service to learn each run's reference `RunSummary`. Every timed
//! run must reproduce it exactly, and every attack run must recover all 12
//! secret bytes under `unsafe` and none under a countermeasure.
//!
//! The traced run re-drives the `Session` loop from outside (`block_for` →
//! `execute_block` → `note_block_exit`) and replays every compile the
//! engine performs through the public stage functions, checking that the
//! replayed code equals the engine's.

use crate::calib;
use crate::inputs::{self, GuestProgram};
use crate::stats::{median, percentile};
use crate::trace::{Aggregate, Tracer};
use crate::Outcome;
use dbt_engine::codegen::generate;
use dbt_engine::regalloc::RegAlloc;
use dbt_engine::schedule::schedule;
use dbt_engine::trace_builder::{build_basic_block, build_superblock};
use dbt_engine::{translate_path, DbtEngine, EngineStats};
use dbt_ir::{BlockKind, DepGraph, DfgOptions};
use dbt_platform::{PlatformConfig, RunSummary, Session, TranslationService};
use dbt_riscv::{ExitReason, GuestMemory, Interpreter, Reg};
use dbt_vliw::{TranslatedBlock, VliwCore};
use ghostbusters::{apply_with_verdict, MitigationPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Passes every timed run completes at least (170 ops: enough for a p90
/// with ten samples beyond it).
const MIN_PASSES: usize = 2;

/// Compiles a traced run needs before its replayed stage times are held
/// against the engine's compile time (`execute-warm` compiles next to
/// nothing, and a handful of compiles is too few to compare).
const MIN_COMPILES: u64 = 100;

/// Interpreter step budget of the reference runs.
const INTERPRETER_STEPS: u64 = 500_000_000;

/// The compile stages the traced run replays, in pipeline order, with the
/// metric each one's self time is reported under.
const STAGES: [(&str, &str); 8] = [
    ("engine.trace_builder", "engine.trace_builder.self_ms"),
    ("engine.translate", "engine.translate.self_ms"),
    ("ir.dfg", "ir.dfg.self_ms"),
    ("spectaint.analyze", "spectaint.analyze.self_ms"),
    ("ghostbusters.mitigate", "ghostbusters.mitigate.self_ms"),
    ("engine.schedule", "engine.schedule.self_ms"),
    ("engine.regalloc", "engine.regalloc.self_ms"),
    ("engine.codegen", "engine.codegen.self_ms"),
];

/// The other layers of the re-driven loop: (span, metric).
const LOOP_LAYERS: [(&str, &str); 6] = [
    ("vliw.execute_block", "vliw.execute_block.self_ms"),
    ("engine.block_for_hit", "engine.block_for_hit.self_ms"),
    ("service.translate_hit", "service.translate_hit.self_ms"),
    ("engine.note_block_exit", "engine.note_block_exit.self_ms"),
    ("platform.build", "platform.build.self_ms"),
    ("op", "op.other_ms"),
];

/// What set-up hands the timed phase.
struct Prepared {
    programs: Vec<GuestProgram>,
    list: Vec<(usize, MitigationPolicy)>,
    /// Reference summary of each list entry.
    reference: Vec<RunSummary>,
    /// The service the reference pass filled (`execute-warm` runs on it).
    service: Arc<TranslationService>,
    /// Cycle-domain totals of one pass over the list.
    cycles: u64,
    rollbacks: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

/// Checks an attack run's recovered bytes: all of them under `unsafe`,
/// none under any countermeasure.
fn check_attack(recovered: &[u8], secret: &[u8], policy: MitigationPolicy) -> Result<(), String> {
    let correct = recovered.iter().zip(secret).filter(|(a, b)| a == b).count();
    let want = if policy == MitigationPolicy::Unprotected { secret.len() } else { 0 };
    if correct == want {
        Ok(())
    } else {
        Err(format!(
            "recovered {correct}/{} secret bytes under {policy}, expected {want}",
            secret.len()
        ))
    }
}

/// Runs the reference interpreter to its `ecall`.
fn interpret(program: &GuestProgram) -> Result<Interpreter, String> {
    let mut interp = Interpreter::new(&program.program);
    match interp.run(INTERPRETER_STEPS) {
        Ok(ExitReason::Ecall) => Ok(interp),
        other => Err(format!("{}: interpreter ended with {other:?}", program.name)),
    }
}

/// Compares a finished session's architectural state (all registers and
/// all of guest memory) with the interpreter's.
fn check_arch_state(session: &Session, interp: &Interpreter, name: &str) -> Result<(), String> {
    for index in 0..Reg::COUNT as u8 {
        let reg = Reg::from_index(index).expect("index below Reg::COUNT");
        let (got, want) = (session.core().arch().reg(reg), interp.reg(reg));
        if got != want {
            return Err(format!("{name}: {reg} = {got:#x}, interpreter has {want:#x}"));
        }
    }
    if session.memory().as_bytes() != interp.memory().as_bytes() {
        return Err(format!("{name}: guest memory differs from the interpreter's"));
    }
    Ok(())
}

/// One set-up: build, check against the interpreter, reference pass.
fn prepare(seed: u64) -> Result<Prepared, String> {
    let programs = inputs::in_process_programs(seed)?;
    let interpreted: Vec<Option<Interpreter>> = programs
        .iter()
        .map(|p| if p.secret.is_none() { interpret(p).map(Some) } else { Ok(None) })
        .collect::<Result<_, _>>()?;
    let list = inputs::run_list(seed, programs.len());
    let service = TranslationService::new();
    let mut reference = Vec::with_capacity(list.len());
    let (mut cycles, mut rollbacks, mut l1d_accesses, mut l1d_misses) = (0, 0, 0, 0);
    for &(index, policy) in &list {
        let program = &programs[index];
        let mut session = Session::builder()
            .program(&program.program)
            .policy(policy)
            .service(&service)
            .build()
            .map_err(|e| e.to_string())?;
        let summary = session.run().map_err(|e| format!("{} under {policy}: {e}", program.name))?;
        match (&interpreted[index], &program.secret) {
            (Some(interp), _) => check_arch_state(&session, interp, &program.name)?,
            (None, Some(secret)) => {
                let recovered = session
                    .load_symbol_bytes("recovered", secret.len())
                    .map_err(|e| e.to_string())?;
                check_attack(&recovered, secret, policy)
                    .map_err(|e| format!("{}: {e}", program.name))?;
            }
            (None, None) => unreachable!("every kernel has an interpreter reference"),
        }
        let cache = session.core().dcache().stats();
        cycles += summary.cycles;
        rollbacks += summary.rollbacks;
        l1d_accesses += cache.accesses();
        l1d_misses += cache.misses();
        reference.push(summary);
    }
    Ok(Prepared { programs, list, reference, service, cycles, rollbacks, l1d_accesses, l1d_misses })
}

/// One `Session::run` of list entry `i`: the op both workloads time.
fn session_op(prepared: &Prepared, i: usize, cold: bool) -> Result<RunSummary, String> {
    let (index, policy) = prepared.list[i];
    let program = &prepared.programs[index];
    let service = if cold { TranslationService::new() } else { Arc::clone(&prepared.service) };
    let mut session = Session::builder()
        .program(&program.program)
        .policy(policy)
        .service(&service)
        .build()
        .map_err(|e| e.to_string())?;
    let summary = session.run().map_err(|e| e.to_string())?;
    if let Some(secret) = &program.secret {
        let recovered =
            session.load_symbol_bytes("recovered", secret.len()).map_err(|e| e.to_string())?;
        check_attack(&recovered, secret, policy)?;
    }
    Ok(summary)
}

/// Checks an op's summary against set-up's reference for entry `i`.
fn check_summary(prepared: &Prepared, i: usize, summary: &RunSummary) -> Result<(), String> {
    let reference = &prepared.reference[i];
    if summary == reference {
        Ok(())
    } else {
        let (index, policy) = prepared.list[i];
        Err(format!(
            "{} under {policy}: {summary:?} differs from set-up's {reference:?}",
            prepared.programs[index].name
        ))
    }
}

/// Runs a workload: repeated set-up, then the timed or traced phase.
pub fn run(cold: bool, seed: u64, window: Duration, traced: bool) -> Result<Outcome, String> {
    let mut outcome = Outcome { checks_passed: true, ..Outcome::default() };
    let mut setup_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_REPEATS {
        let (next, seconds, scale) = calib::bracket(|| prepare(seed));
        let next = next?;
        setup_s.push(seconds * scale);
        if prepared.as_ref().is_some_and(|previous| previous.reference != next.reference) {
            outcome.fail_check("repeated set-ups disagree on reference summaries".to_string());
        }
        prepared = Some(next);
    }
    let prepared = prepared.expect("at least one set-up");
    if traced {
        traced_phase(&prepared, cold, window, &mut outcome)?;
    } else {
        timed_phase(&prepared, cold, window, &mut outcome)?;
        outcome.set("setup_s", median(&setup_s));
        outcome.set("peak_rss_mb", crate::peak_rss_mb());
    }
    Ok(outcome)
}

/// The end-to-end phase: whole passes over the list until the window is
/// spent (and at least [`MIN_PASSES`] passes ran), each op timed on its
/// own. Each pass runs between two calibration jobs, and its op times are
/// scaled to the reference host ([`calib`]).
fn timed_phase(
    prepared: &Prepared,
    cold: bool,
    window: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let (mut seconds, mut raw_seconds) = (0.0, 0.0);
    let mut latencies_ms = Vec::new();
    let mut scales = Vec::new();
    let mut guest_insts = 0u64;
    let start = Instant::now();
    while start.elapsed() < window || scales.len() < MIN_PASSES {
        let (pass_ms, pass_s, scale) = calib::bracket(|| {
            let mut pass_ms = Vec::with_capacity(prepared.list.len());
            for i in 0..prepared.list.len() {
                let op_start = Instant::now();
                let result = session_op(prepared, i, cold);
                pass_ms.push(op_start.elapsed().as_secs_f64() * 1e3);
                outcome.attempted += 1;
                let checked = result.and_then(|summary| {
                    check_summary(prepared, i, &summary).map(|()| summary.guest_insts)
                });
                match checked {
                    Ok(insts) => guest_insts += insts,
                    Err(error) => outcome.fail(error),
                }
            }
            pass_ms
        });
        latencies_ms.extend(pass_ms.iter().map(|ms| ms * scale));
        seconds += pass_s * scale;
        raw_seconds += pass_s;
        scales.push(scale);
    }
    outcome.set("ops_per_s", latencies_ms.len() as f64 / seconds);
    outcome.set("op_p50_ms", percentile(&latencies_ms, 50.0)?);
    outcome.set("op_p90_ms", percentile(&latencies_ms, 90.0)?);
    outcome.set("guest_minsts_per_s", guest_insts as f64 / seconds / 1e6);
    scales.sort_by(f64::total_cmp);
    outcome.notes.push(format!(
        "{} passes of {} ops in {:.3} s, percentiles over {} samples; host speed scale \
         {:.3}-{:.3} (median {:.3}); unscaled ops_per_s {:.3}",
        scales.len(),
        prepared.list.len(),
        start.elapsed().as_secs_f64(),
        latencies_ms.len(),
        scales[0],
        scales[scales.len() - 1],
        median(&scales),
        latencies_ms.len() as f64 / raw_seconds,
    ));
    Ok(())
}

/// Compile-side counts of the traced run.
#[derive(Debug, Default)]
struct CompileCounts {
    blocks: u64,
    superblocks: u64,
    ir_insts: u64,
}

/// The traced phase: each list entry runs once untraced (for the tracing
/// overhead and the summary cross-check) and once re-driven under spans.
fn traced_phase(
    prepared: &Prepared,
    cold: bool,
    window: Duration,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mut tracer = Tracer::new();
    let mut counts = CompileCounts::default();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let (mut service_hits, mut service_queries) = (0u64, 0u64);
    let mut ops = 0u32;
    let start = Instant::now();
    while start.elapsed() < window {
        for i in 0..prepared.list.len() {
            let t0 = Instant::now();
            let plain = session_op(prepared, i, cold);
            untraced_ns += t0.elapsed().as_nanos() as u64;
            ops += 1;
            let (index, policy) = prepared.list[i];
            let program = &prepared.programs[index];
            let service =
                if cold { TranslationService::new() } else { Arc::clone(&prepared.service) };
            let redriven = redrive(&mut tracer, ops, program, policy, &service, &mut counts);
            outcome.attempted += 2;
            let redriven = match (plain, redriven) {
                (Ok(plain), Ok(redriven)) => {
                    if redriven.summary != plain {
                        outcome.fail(format!(
                            "{} under {policy}: re-driven {:?} differs from Session::run's \
                             {plain:?}",
                            program.name, redriven.summary
                        ));
                    }
                    redriven
                }
                (Err(error), _) | (_, Err(error)) => {
                    outcome.fail(error);
                    continue;
                }
            };
            if let Err(error) = check_summary(prepared, i, &redriven.summary) {
                outcome.fail(error);
            }
            traced_ns += redriven.op_ns;
            service_hits += redriven.engine.service_hits;
            service_queries += redriven.engine.service_hits + redriven.engine.service_misses;
        }
    }
    let per_op_ms = |ns: i128| ns as f64 / ops as f64 / 1e6;
    let self_ns = tracer.self_ns();
    let get = |name: &str| self_ns.get(name).copied().unwrap_or(0);
    let stage_total: i128 = STAGES.iter().map(|(span, _)| get(span)).sum();
    for (span, metric) in STAGES {
        outcome.set(metric, per_op_ms(get(span)));
    }
    let compile_other = get("engine.compile") - stage_total;
    outcome.set("engine.compile.other_ms", per_op_ms(compile_other));
    for (span, metric) in LOOP_LAYERS {
        outcome.set(metric, per_op_ms(get(span)));
    }
    // Self-tests. The layer self times plus `other` add up to the traced op
    // time by construction (self time is a span's remainder), so what can
    // fail is the nesting: a span that overlaps its siblings leaves its
    // parent a negative remainder. And the replayed stages must account
    // for the engine's own compile time within a quarter either way.
    for parent in ["op", "replay"] {
        if get(parent) < 0 {
            outcome.fail_check(format!("child spans of `{parent}` overlap ({} ns)", get(parent)));
        }
    }
    let compile = get("engine.compile");
    if counts.blocks + counts.superblocks >= MIN_COMPILES && compile_other.abs() > compile / 4 {
        outcome.fail_check(format!(
            "replayed stages take {stage_total} ns, the engine's compiles {compile} ns: \
             more than a quarter apart"
        ));
    }
    let passes = (ops as u64 / prepared.list.len() as u64).max(1);
    outcome.set("engine.blocks_compiled", (counts.blocks / passes) as f64);
    outcome.set("engine.superblocks_compiled", (counts.superblocks / passes) as f64);
    outcome.set("engine.ir_insts_compiled", (counts.ir_insts / passes) as f64);
    outcome.set("service.hit_ratio", service_hits as f64 / service_queries.max(1) as f64);
    outcome.set("vliw.cycles", prepared.cycles as f64);
    outcome.set("vliw.rollbacks", prepared.rollbacks as f64);
    outcome.set("cache.l1d_miss_ratio", prepared.l1d_misses as f64 / prepared.l1d_accesses as f64);
    outcome.set("trace.op_ms", per_op_ms(traced_ns as i128));
    outcome.set("trace.overhead_ms", per_op_ms(traced_ns as i128 - untraced_ns as i128));
    outcome.notes.push(format!(
        "{ops} traced ops ({passes} passes), each paired with an untraced Session::run"
    ));
    let (largest, _) = STAGES.iter().max_by_key(|(span, _)| get(span)).expect("stages");
    if compile > 0 {
        outcome.notes.push(format!(
            "finding: the largest compile stage is {largest} ({:.4} of {:.4} ms/op compile, \
             replayed stages {:.4}); engine.schedule is {:.1}% of the replayed stages and \
             {:.1}% of the traced op",
            per_op_ms(get(largest)),
            per_op_ms(compile),
            per_op_ms(stage_total),
            100.0 * get("engine.schedule") as f64 / stage_total.max(1) as f64,
            100.0 * get("engine.schedule") as f64 / traced_ns.max(1) as f64,
        ));
    }
    let workload = if cold { "compile-cold" } else { "execute-warm" };
    outcome.notes.push(tracer.write_spans(workload, ops as u64)?);
    Ok(())
}

/// What one re-driven run produced.
struct Redriven {
    summary: RunSummary,
    /// Op wall time minus the replays.
    op_ns: u64,
    /// The engine's counters at the end of the run.
    engine: EngineStats,
}

/// Re-drives the `Session` loop for one program under spans.
fn redrive(
    tracer: &mut Tracer,
    op: u32,
    program: &GuestProgram,
    policy: MitigationPolicy,
    service: &Arc<TranslationService>,
    counts: &mut CompileCounts,
) -> Result<Redriven, String> {
    let op_start = Instant::now();
    let root = tracer.open(op, 0, "op", op_start);
    let config = PlatformConfig::for_policy(policy);
    let guest = &program.program;
    let mut memory = guest.build_memory().map_err(|e| e.to_string())?;
    let mut core = VliwCore::new(config.core, guest.entry());
    core.arch_mut().set_reg(Reg::SP, (memory.len() as u64) & !0xf);
    let mut engine = DbtEngine::with_service(config.dbt, Arc::clone(service), guest.fingerprint());
    let mut t = Instant::now();
    tracer.interval(op, root, "platform.build", op_start, t);

    let (mut hits, mut memo_hits) = (Aggregate::default(), Aggregate::default());
    let (mut executes, mut exits) = (Aggregate::default(), Aggregate::default());
    let mut replay_ns = 0u64;
    let mut pc = core.arch().pc();
    let (mut blocks, mut guest_insts, mut halted) = (0u64, 0u64, false);
    let translations = |s: &EngineStats| s.basic_translations + s.superblock_translations;
    while blocks < config.max_blocks {
        let before = *engine.stats();
        let block = engine.block_for(pc, &memory).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let after = *engine.stats();
        let exec_start = if translations(&after) == translations(&before) {
            hits.add(t, t1);
            t1
        } else if after.service_hits > before.service_hits {
            memo_hits.add(t, t1);
            t1
        } else {
            tracer.interval(op, root, "engine.compile", t, t1);
            let superblock = after.superblock_translations > before.superblock_translations;
            let replay = tracer.open(op, root, "replay", t1);
            replay_compile(tracer, op, replay, &memory, pc, &engine, superblock, &block, counts)?;
            let t2 = Instant::now();
            tracer.close(replay, t2);
            replay_ns += t2.saturating_duration_since(t1).as_nanos() as u64;
            t2
        };
        let outcome = core.execute_block(&block, &mut memory).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        executes.add(exec_start, t3);
        engine.note_block_exit(pc, outcome.next_pc);
        let t4 = Instant::now();
        exits.add(t3, t4);
        t = t4;
        blocks += 1;
        guest_insts += block.guest_inst_count as u64;
        match outcome.next_pc {
            Some(next) => {
                core.arch_mut().set_pc(next);
                pc = next;
            }
            None => {
                halted = true;
                break;
            }
        }
    }
    if !halted {
        return Err(format!("{}: block budget exhausted after {blocks} blocks", program.name));
    }
    let summary = RunSummary {
        cycles: core.cycles(),
        blocks_executed: blocks,
        rollbacks: core.stats().rollbacks,
        halted,
        guest_insts,
    };
    if let Some(secret) = &program.secret {
        let addr = guest.symbol("recovered").ok_or("no `recovered` symbol")?;
        let recovered = memory.read_bytes(addr, secret.len()).map_err(|e| e.to_string())?;
        check_attack(&recovered, secret, policy)?;
    }
    let end = Instant::now();
    hits.flush(tracer, op, root, "engine.block_for_hit");
    memo_hits.flush(tracer, op, root, "service.translate_hit");
    executes.flush(tracer, op, root, "vliw.execute_block");
    exits.flush(tracer, op, root, "engine.note_block_exit");
    tracer.close(root, end);
    let op_ns = end.saturating_duration_since(op_start).as_nanos() as u64 - replay_ns;
    Ok(Redriven { summary, op_ns, engine: *engine.stats() })
}

/// Replays the compile the engine just performed for `pc` through the
/// public stage functions, one span per stage, and checks that the
/// replayed code (and, for superblocks, the leakage verdict) equals what
/// the engine produced.
#[allow(clippy::too_many_arguments)]
fn replay_compile(
    tracer: &mut Tracer,
    op: u32,
    parent: u32,
    memory: &GuestMemory,
    pc: u64,
    engine: &DbtEngine,
    superblock: bool,
    produced: &TranslatedBlock,
    counts: &mut CompileCounts,
) -> Result<(), String> {
    let config = engine.config();
    let s0 = Instant::now();
    let path = if superblock {
        build_superblock(memory, pc, engine.profile(), config)
    } else {
        build_basic_block(memory, pc, config)
    }
    .map_err(|e| e.to_string())?;
    let kind = if superblock {
        BlockKind::Superblock { merged_blocks: path.merged_blocks }
    } else {
        BlockKind::Basic
    };
    let s1 = Instant::now();
    tracer.interval(op, parent, "engine.trace_builder", s0, s1);
    let ir = translate_path(&path, kind);
    ir.validate().map_err(|reason| format!("replayed block {pc:#x} is invalid: {reason}"))?;
    let s2 = Instant::now();
    tracer.interval(op, parent, "engine.translate", s1, s2);
    let options = if superblock { config.speculation } else { DfgOptions::no_speculation() };
    let unhardened = DepGraph::build(&ir, options);
    let mut s3 = Instant::now();
    tracer.interval(op, parent, "ir.dfg", s2, s3);
    let mut verdict = None;
    let graph = if superblock {
        let analysed = spectaint::analyze(&ir, &unhardened);
        let s4 = Instant::now();
        tracer.interval(op, parent, "spectaint.analyze", s3, s4);
        let mut hardened = unhardened.clone();
        apply_with_verdict(&ir, &mut hardened, config.policy, Some(&analysed));
        s3 = Instant::now();
        tracer.interval(op, parent, "ghostbusters.mitigate", s4, s3);
        verdict = Some(analysed);
        hardened
    } else {
        unhardened
    };
    let sched = schedule(&ir, &graph, config.issue_width).map_err(|e| e.to_string())?;
    let s5 = Instant::now();
    tracer.interval(op, parent, "engine.schedule", s3, s5);
    let alloc = RegAlloc::allocate(&ir);
    let s6 = Instant::now();
    tracer.interval(op, parent, "engine.regalloc", s5, s6);
    let code = generate(&ir, &graph, &sched, &alloc);
    tracer.interval(op, parent, "engine.codegen", s6, Instant::now());

    if code != *produced {
        return Err(format!("replayed translation of {pc:#x} differs from the engine's"));
    }
    if let Some(verdict) = verdict {
        match engine.tcache().verdict(pc) {
            Some(cached) if *cached == verdict => {}
            _ => {
                return Err(format!(
                    "replayed leakage verdict of {pc:#x} differs from the engine's"
                ))
            }
        }
        counts.superblocks += 1;
    } else {
        counts.blocks += 1;
    }
    counts.ir_insts += ir.len() as u64;
    Ok(())
}
