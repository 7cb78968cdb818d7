//! Differential testing: whatever speculation and mitigation configuration
//! the DBT engine uses, the architectural result of every workload must be
//! identical to the reference RISC-V interpreter.
//!
//! This is the core correctness invariant of the whole system (speculation
//! and its mitigation may only change *timing* and cache state, never
//! guest-visible results).

use dbt_platform::{Session, TranslationService};
use dbt_riscv::{ExitReason, Interpreter, Program, Reg};
use dbt_workloads::{pointer_matmul, suite, WorkloadSize};
use ghostbusters::MitigationPolicy;
use ghostbusters_tests::config;

/// Issue widths the configuration-sweeping tests cover.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn reference_checksum(program: &dbt_riscv::Program) -> u64 {
    let mut interp = Interpreter::new(program);
    assert_eq!(interp.run(500_000_000).unwrap(), ExitReason::Ecall);
    interp.memory().load_u64(program.symbol("checksum").unwrap()).unwrap()
}

#[test]
fn every_workload_matches_the_reference_under_every_policy() {
    let mut workloads = suite(WorkloadSize::Mini);
    workloads.push(pointer_matmul(WorkloadSize::Mini));
    // Shared across every run: memoized translations must never change
    // architectural results, whatever policy produced them first.
    let service = TranslationService::new();
    for workload in workloads {
        let expected = reference_checksum(&workload.program);
        for policy in MitigationPolicy::ALL {
            let mut session = Session::builder()
                .program(&workload.program)
                .policy(policy)
                .service(&service)
                .build()
                .unwrap();
            let summary = session.run().unwrap();
            assert!(summary.halted, "{} under {policy} did not halt", workload.name);
            let got = session.load_symbol_u64("checksum").unwrap();
            assert_eq!(
                got, expected,
                "{} under {policy}: DBT result diverges from the reference",
                workload.name
            );
        }
    }
}

/// Runs `program` under every policy at every width in [`WIDTHS`] and
/// requires the interpreter's halt, registers and memory.
fn check_every_configuration(label: &str, program: &Program) {
    let mut interp = Interpreter::new(program);
    assert_eq!(interp.run(10_000_000).unwrap(), ExitReason::Ecall, "{label}");
    for policy in MitigationPolicy::ALL {
        for width in WIDTHS {
            let at = format!("{label} under {policy} at width {width}");
            let builder = Session::builder().program(program).config(config(policy, width));
            let mut session = builder.build().unwrap();
            let summary = session.run().unwrap_or_else(|error| panic!("{at}: {error}"));
            assert!(summary.halted, "{at} did not halt");
            for reg in Reg::all() {
                assert_eq!(session.core().arch().reg(reg), interp.reg(reg), "{at}: {reg}");
            }
            assert!(session.memory() == interp.memory(), "{at}: guest memory differs");
        }
    }
}

/// `ld x0, 0(a1)` touches the cache line at `a1` and commits nothing, and
/// the block commits a new `a1` right after it. Nothing but the edge from
/// a read of a register's entry value to that register's next commit keeps
/// the load before `commit $a1`; placed after it, the load reads the new
/// `a1`, 2^40 bytes past the buffer, and faults.
#[test]
fn a_cache_touching_load_reads_its_base_before_the_base_is_committed() {
    let program = dbt_riscv::parse_asm(
        "
.data buf, 64
    la a1, buf
    li t1, 100
    li t2, 7
    li t4, 1099511627776
    j next
next:
    div t0, t1, t2
    sd t0, 0(a1)
    ld x0, 0(a1)
    add a1, a1, t4
    addi a2, a2, 1
    addi a3, a3, 1
    addi a4, a4, 1
    ecall
",
    )
    .unwrap();
    check_every_configuration("x0 load", &program);
}

/// Minimal deterministic pseudo-random source (splitmix64), so the
/// randomized differential test needs no external dependency and replays
/// identically on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Random short straight-line-and-loop programs produce the same
/// architectural result on the DBT processor (every policy, every width in
/// [`WIDTHS`]) and on the reference interpreter.
#[test]
fn random_programs_execute_equivalently() {
    let mut rng = Rng(0x6b05_7265_6e74_u64);
    for case in 0..16 {
        let len = 4 + (rng.next() % 12) as usize;
        let seed_values: Vec<u64> = (0..len).map(|_| rng.next() % 1000).collect();
        check_every_configuration(&format!("case {case}"), &random_program(&seed_values));
    }
}

fn random_program(seed_values: &[u64]) -> Program {
    use dbt_riscv::Assembler;
    let mut asm = Assembler::new();
    let data = asm.alloc_data_u64("data", seed_values);
    let out = asm.alloc_data("out", 8);
    let n = seed_values.len() as i64;
    let head = asm.new_label();
    let skip = asm.new_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, 1);
    asm.la(Reg::S2, data);
    asm.li(Reg::S3, n);
    asm.bind(head);
    asm.slli(Reg::T0, Reg::S0, 3);
    asm.add(Reg::T0, Reg::S2, Reg::T0);
    asm.ld(Reg::T1, Reg::T0, 0);
    // Data-dependent branch plus a store, so both speculation mechanisms
    // have something to chew on.
    asm.andi(Reg::T2, Reg::T1, 1);
    asm.beqz(Reg::T2, skip);
    asm.mul(Reg::S1, Reg::S1, Reg::T1);
    asm.sd(Reg::S1, Reg::T0, 0);
    asm.bind(skip);
    asm.add(Reg::S1, Reg::S1, Reg::T1);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.blt(Reg::S0, Reg::S3, head);
    asm.la(Reg::T0, out);
    asm.sd(Reg::S1, Reg::T0, 0);
    asm.ecall();
    asm.assemble().unwrap()
}
