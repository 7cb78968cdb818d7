//! The execute oracle: `VliwCore::execute_block` (one walk over each
//! block's lowered steps, reused scratch buffers) must behave exactly like
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
#![cfg(debug_assertions)]

use dbt_engine::DbtEngine;
use dbt_platform::PlatformConfig;
use dbt_riscv::{Program, Reg};
use dbt_vliw::VliwCore;
use dbt_workloads::{pointer_matmul, suite, WorkloadSize};
use ghostbusters::MitigationPolicy;

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

fn config(policy: MitigationPolicy, issue_width: usize) -> PlatformConfig {
    let mut config = PlatformConfig::for_policy(policy);
    config.dbt.issue_width = issue_width;
    config.core.issue_width = issue_width;
    config
}

/// Runs `program` to its halt on both cores in lockstep.
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

#[test]
fn every_policy_at_issue_width_4_matches_the_reference() {
    for (name, program) in programs() {
        for policy in MitigationPolicy::ALL {
            lockstep(&name, &program, config(policy, 4));
        }
    }
}

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
