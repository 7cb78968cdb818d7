//! The execute oracle: `VliwCore::execute_block` (one walk over each
//! block's lowered steps, reused scratch buffers, register commits applied
//! where the block exits) must behave exactly like
//! `VliwCore::execute_block_reference`, the per-slot scan it replaced.
//!
//! One engine drives two cores, each with its own guest memory, through
//! every registry kernel and both Spectre proofs of concept. After every
//! block the outcome, the architectural state, the core and cache
//! statistics and the profiler's phases and events must be equal; at the
//! end of each run, guest memory and the flight recorder must be too, and
//! no cycle may be charged to the issue phase: the scheduler places every
//! ALU result's consumers at least its latency later, so only memory
//! stalls. The reference exists only in debug builds.
//!
//! In every build, code generation must build every block of the same
//! programs, each with its register commits lifted out of its steps.

use dbt_engine::DbtEngine;
use dbt_platform::PlatformConfig;
use dbt_riscv::{Program, Reg};
use dbt_vliw::{Op, Operand, VliwCore};
use dbt_workloads::{pointer_matmul, suite, WorkloadSize};
use ghostbusters::MitigationPolicy;
use ghostbusters_tests::config;
use std::collections::HashSet;
use std::sync::Arc;

const SECRET: &[u8] = b"GhostBusters";

/// Every registry kernel at `small`, then both proofs of concept.
fn programs() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = suite(WorkloadSize::Small)
        .into_iter()
        .chain([pointer_matmul(WorkloadSize::Small)])
        .map(|w| (w.name.to_string(), w.program))
        .collect();
    programs.push(("spectre-v1".into(), dbt_attacks::spectre_v1::build(SECRET).unwrap()));
    programs.push(("spectre-v4".into(), dbt_attacks::spectre_v4::build(SECRET).unwrap()));
    programs
}

/// Runs `program` to its halt on both cores in lockstep.
#[cfg(debug_assertions)]
fn lockstep(name: &str, program: &Program, config: PlatformConfig) {
    let label = format!("{name} under {} at width {}", config.dbt.policy, config.core.issue_width);
    let mut memory = program.build_memory().unwrap();
    let mut core = VliwCore::new(config.core, program.entry());
    core.arch_mut().set_reg(Reg::SP, (memory.len() as u64) & !0xf);
    let (mut oracle, mut oracle_memory) = (core.clone(), memory.clone());
    let mut engine = DbtEngine::new(config.dbt);
    let mut pc = core.arch().pc();
    let mut halted = false;
    for blocks in 0..config.max_blocks {
        let block = engine.block_for(pc, &memory).unwrap();
        let outcome = core.execute_block(&block, &mut memory);
        let expected = oracle.execute_block_reference(&block, &mut oracle_memory);
        let at = || format!("{label}, block {blocks} at {pc:#x}");
        assert_eq!(outcome, expected, "{}", at());
        assert_eq!(core.arch(), oracle.arch(), "{}", at());
        assert_eq!(core.stats(), oracle.stats(), "{}", at());
        assert_eq!(core.dcache().stats(), oracle.dcache().stats(), "{}", at());
        assert_eq!(core.profiler().phases, oracle.profiler().phases, "{}", at());
        assert_eq!(core.profiler().events, oracle.profiler().events, "{}", at());
        let next = outcome.unwrap().next_pc;
        engine.note_block_exit(pc, next);
        let Some(next) = next else {
            halted = true;
            break;
        };
        core.arch_mut().set_pc(next);
        oracle.arch_mut().set_pc(next);
        pc = next;
    }
    assert!(halted, "{label} did not halt");
    assert!(memory == oracle_memory, "{label}: guest memory differs");
    assert!(
        core.profiler().trace_events().eq(oracle.profiler().trace_events()),
        "{label}: flight recorders differ"
    );
    assert_eq!(core.profiler().phases.issue, 0, "{label}: an ALU result was read too soon");
}

#[cfg(debug_assertions)]
#[test]
fn every_policy_at_issue_width_4_matches_the_reference() {
    for (name, program) in programs() {
        for policy in MitigationPolicy::ALL {
            lockstep(&name, &program, config(policy, 4));
        }
    }
}

#[cfg(debug_assertions)]
#[test]
fn issue_widths_2_and_8_match_the_reference() {
    for (name, program) in programs() {
        for policy in [MitigationPolicy::Unprotected, MitigationPolicy::Selective] {
            for width in [2, 8] {
                lockstep(&name, &program, config(policy, width));
            }
        }
    }
}

/// Code generation gives every IR value a physical register of its own,
/// and the dependency graph orders every read of a guest register's entry
/// value before that register's next commit, so every block it emits can
/// lift its commits. A register allocation, dependency or scheduling
/// change that breaks a lift condition panics in `TranslatedBlock::new`
/// here, for every policy and issue width.
#[test]
fn every_generated_block_lifts_its_commits() {
    // Distinct blocks checked, and those of them with a commit.
    let (mut blocks, mut committing) = (0, 0);
    for (_, program) in programs() {
        for policy in MitigationPolicy::ALL {
            for width in [1, 2, 4, 8] {
                let config = config(policy, width);
                let mut memory = program.build_memory().unwrap();
                let mut core = VliwCore::new(config.core, program.entry());
                core.arch_mut().set_reg(Reg::SP, (memory.len() as u64) & !0xf);
                let mut engine = DbtEngine::new(config.dbt);
                let mut seen = HashSet::new();
                let mut pc = Some(core.arch().pc());
                while let Some(at) = pc {
                    let block = engine.block_for(at, &memory).unwrap();
                    if seen.insert(Arc::as_ptr(&block)) {
                        let mut ops = block.bundles().flat_map(|bundle| bundle.iter());
                        blocks += 1;
                        committing += usize::from(ops.any(|op| matches!(op, Op::CommitReg { .. })));
                    }
                    pc = core.execute_block(&block, &mut memory).unwrap().next_pc;
                    engine.note_block_exit(at, pc);
                    if let Some(next) = pc {
                        core.arch_mut().set_pc(next);
                    }
                }
            }
        }
    }
    assert!(committing * 10 > blocks * 9, "{committing} of {blocks} blocks commit a register");
}

/// An instruction into `x0` commits nothing, so only the edge from a read
/// of a guest register's entry value to that register's next commit keeps
/// its read of `a0` before `commit $a0`. The block must read `$a0` first
/// under every policy and run like the reference.
#[cfg(debug_assertions)]
#[test]
fn a_block_reading_a_register_after_its_commit_runs_like_the_reference() {
    let program = dbt_riscv::parse_asm(
        "
.data buf, 64
    la a0, buf
    li t1, 100
    li t2, 7
    j next
next:
    div t0, t1, t2
    add x0, a0, t0
    addi a0, a0, 8
    ecall
",
    )
    .unwrap();
    for policy in MitigationPolicy::ALL {
        let config = config(policy, 4);
        let mut engine = DbtEngine::new(config.dbt);
        let memory = program.build_memory().unwrap();
        let next = program.entry() + 16;
        let block = engine.block_for(next, &memory).unwrap();
        let ops: Vec<Op> = block.bundles().flat_map(|bundle| bundle.iter()).collect();
        let reads_a0 = |op: &&Op| matches!(op, Op::Alu { a: Operand::Arch(Reg::A0), .. });
        let commit = ops.iter().position(|op| matches!(op, Op::CommitReg { reg: Reg::A0, .. }));
        let commit = commit.expect("a0 is committed");
        assert_eq!(ops[..commit].iter().filter(reads_a0).count(), 2, "{policy}:\n{block}");
        assert_eq!(ops[commit..].iter().filter(reads_a0).count(), 0, "{policy}:\n{block}");
        lockstep("x0 reader", &program, config);
    }
}
