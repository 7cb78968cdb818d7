//! Code generation: turning a scheduled IR block into VLIW bundles plus the
//! sequential recovery code used after Memory Conflict Buffer rollbacks.

use crate::regalloc::RegAlloc;
use crate::schedule::Schedule;
use dbt_ir::{DepGraph, DepKind, InstId, IrBlock, IrOp, MemWidth, Operand as IrOperand};
use dbt_riscv::inst::AluOp;
use dbt_vliw::{AccessWidth, Bundle, Op, Operand, TranslatedBlock};

fn width(w: MemWidth) -> AccessWidth {
    AccessWidth::new(w.bytes, w.sign_extend)
}

fn operand(alloc: &RegAlloc, op: IrOperand) -> Operand {
    match op {
        IrOperand::Value(id) => Operand::Phys(alloc.reg(id).expect("operand refers to a value")),
        IrOperand::LiveIn(reg) => Operand::Arch(reg),
        IrOperand::Imm(v) => Operand::Imm(v),
    }
}

/// Returns `true` if instruction `load` is placed before `other` in the
/// schedule (and therefore executes speculatively with respect to it).
fn bypasses(schedule: &Schedule, load: InstId, other: InstId) -> bool {
    schedule.placement(load) < schedule.placement(other)
}

/// The relaxable edges a schedule bypassed, as per-instruction marks. Only
/// loads and stores read their mark.
struct SpeculationMarks {
    /// Placed before the source of a relaxable memory or control edge into
    /// it: a marked load is emitted as speculative.
    speculative: Vec<bool>,
    /// A load is placed before it across a relaxable memory edge from it: a
    /// marked store checks the Memory Conflict Buffer.
    checks_mcb: Vec<bool>,
}

impl SpeculationMarks {
    /// Computes every mark in one pass over the relaxable edges.
    fn new(block: &IrBlock, graph: &DepGraph, schedule: &Schedule) -> SpeculationMarks {
        let mut marks = SpeculationMarks {
            speculative: vec![false; block.len()],
            checks_mcb: vec![false; block.len()],
        };
        for e in graph.edges().iter().filter(|e| e.relaxable && bypasses(schedule, e.to, e.from)) {
            match e.kind {
                DepKind::Memory => {
                    marks.speculative[e.to.index()] = true;
                    marks.checks_mcb[e.from.index()] = true;
                }
                DepKind::Control => marks.speculative[e.to.index()] = true,
                DepKind::Data | DepKind::Order => {}
            }
        }
        marks
    }
}

/// Lowers one IR instruction. `marks` is `None` for the recovery sequence,
/// which never speculates.
fn lower(
    block: &IrBlock,
    alloc: &RegAlloc,
    marks: Option<&SpeculationMarks>,
    id: InstId,
) -> Option<Op> {
    let inst = block.inst(id);
    let seq = inst.original_seq as u32;
    let op = match &inst.op {
        IrOp::Const(v) => Op::Alu {
            op: AluOp::Add,
            dst: alloc.reg(id).expect("const produces a value"),
            a: Operand::Imm(*v),
            b: Operand::Imm(0),
        },
        IrOp::Alu { op, a, b } => Op::Alu {
            op: *op,
            dst: alloc.reg(id).expect("alu produces a value"),
            a: operand(alloc, *a),
            b: operand(alloc, *b),
        },
        IrOp::Load { width: w, base, offset } => Op::Load {
            width: width(*w),
            dst: alloc.reg(id).expect("load produces a value"),
            base: operand(alloc, *base),
            offset: *offset,
            speculative: marks.is_some_and(|m| m.speculative[id.index()]),
            original_seq: seq,
        },
        IrOp::Store { width: w, value, base, offset } => Op::Store {
            width: width(*w),
            value: operand(alloc, *value),
            base: operand(alloc, *base),
            offset: *offset,
            checks_mcb: marks.is_some_and(|m| m.checks_mcb[id.index()]),
            original_seq: seq,
        },
        IrOp::WriteReg { reg, value } => Op::CommitReg { reg: *reg, src: operand(alloc, *value) },
        IrOp::SideExit { cond, a, b, target } => Op::SideExit {
            cond: *cond,
            a: operand(alloc, *a),
            b: operand(alloc, *b),
            target: *target,
        },
        IrOp::Jump { target } => Op::Jump { target: *target },
        IrOp::JumpIndirect { target } => Op::JumpIndirect { target: operand(alloc, *target) },
        IrOp::Halt => Op::Halt,
        IrOp::RdCycle => Op::RdCycle { dst: alloc.reg(id).expect("rdcycle produces a value") },
        IrOp::CacheFlush { base, offset } => {
            Op::CacheFlush { base: operand(alloc, *base), offset: *offset }
        }
        IrOp::Fence => return None,
    };
    Some(op)
}

/// Generates the final [`TranslatedBlock`] from a scheduled IR block.
///
/// Loads that the schedule moved above a store or side exit they originally
/// depended on (through a relaxable edge) are emitted as speculative loads;
/// stores bypassed by at least one such load check the Memory Conflict
/// Buffer. The recovery sequence re-expresses the block in original program
/// order with speculation disabled.
pub fn generate(
    block: &IrBlock,
    graph: &DepGraph,
    schedule: &Schedule,
    alloc: &RegAlloc,
) -> TranslatedBlock {
    emit(block, schedule, alloc, &SpeculationMarks::new(block, graph, schedule))
}

fn emit(
    block: &IrBlock,
    schedule: &Schedule,
    alloc: &RegAlloc,
    marks: &SpeculationMarks,
) -> TranslatedBlock {
    let mut bundles: Vec<Bundle> = (0..schedule.cycles()).map(|_| Bundle::new()).collect();
    // Place ops cycle by cycle, keeping slot order.
    let mut order: Vec<InstId> = block.insts().iter().map(|i| i.id).collect();
    order.sort_by_key(|id| schedule.placement(*id));
    for id in order {
        if let Some(op) = lower(block, alloc, Some(marks), id) {
            let cycle = schedule.placement(id).cycle as usize;
            bundles[cycle].slots.push(op);
        }
    }
    // Drop empty bundles at the end (a fence-only cycle, for example), but
    // keep interior ones so relative cycle counts stay meaningful.
    while bundles.last().is_some_and(|b| b.slots.is_empty()) {
        bundles.pop();
    }

    let recovery: Vec<Op> =
        block.insts().iter().filter_map(|inst| lower(block, alloc, None, inst.id)).collect();

    let guest_inst_count = block.insts().iter().map(|i| i.original_seq + 1).max().unwrap_or(0);

    TranslatedBlock::new(block.entry_pc(), bundles, alloc.count(), recovery, guest_inst_count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::schedule;
    use crate::testgen;
    use dbt_ir::{BlockKind, DfgOptions};
    use dbt_riscv::Reg;

    /// The marks as `lower` used to compute them: one scan of every edge
    /// per load and per store.
    fn marks_by_edge_scan(
        block: &IrBlock,
        graph: &DepGraph,
        schedule: &Schedule,
    ) -> SpeculationMarks {
        let speculative = block
            .insts()
            .iter()
            .map(|inst| {
                let id = inst.id;
                inst.op.is_load()
                    && graph.edges().iter().any(|e| {
                        e.relaxable
                            && e.to == id
                            && matches!(e.kind, DepKind::Memory | DepKind::Control)
                            && bypasses(schedule, id, e.from)
                    })
            })
            .collect();
        let checks_mcb = block
            .insts()
            .iter()
            .map(|inst| {
                let id = inst.id;
                inst.op.is_store()
                    && graph.edges().iter().any(|e| {
                        e.relaxable
                            && e.from == id
                            && e.kind == DepKind::Memory
                            && bypasses(schedule, e.to, id)
                    })
            })
            .collect();
        SpeculationMarks { speculative, checks_mcb }
    }

    /// Guest order: slow value ; store [a0] ; v = load const-addr ;
    /// leak = load v ; commit ; jump — the Spectre v4 shape where the store
    /// waits on a long computation and the loads are hoisted above it.
    fn v4_like_block() -> IrBlock {
        let mut b = IrBlock::new(0x40, BlockKind::Basic);
        let slow = b.push(
            IrOp::Alu {
                op: AluOp::Div,
                a: IrOperand::LiveIn(Reg::A2),
                b: IrOperand::LiveIn(Reg::A3),
            },
            0x3c,
            0,
        );
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: IrOperand::Value(slow),
                base: IrOperand::LiveIn(Reg::A0),
                offset: 0,
            },
            0x40,
            1,
        );
        let c = b.push(IrOp::Const(0x2000), 0x44, 2);
        let v = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: IrOperand::Value(c), offset: 0 },
            0x44,
            2,
        );
        let addr = b.push(
            IrOp::Alu { op: AluOp::Add, a: IrOperand::Value(v), b: IrOperand::Imm(0x3000) },
            0x48,
            3,
        );
        let leak = b.push(
            IrOp::Load { width: MemWidth::BYTE_U, base: IrOperand::Value(addr), offset: 0 },
            0x48,
            3,
        );
        b.push(IrOp::WriteReg { reg: Reg::A1, value: IrOperand::Value(leak) }, 0x48, 3);
        b.push(IrOp::Jump { target: 0x4c }, 0x4c, 4);
        b
    }

    fn build(block: &IrBlock, options: DfgOptions) -> TranslatedBlock {
        let graph = DepGraph::build(block, options);
        let sched = schedule(block, &graph, 4).unwrap();
        let alloc = RegAlloc::allocate(block);
        generate(block, &graph, &sched, &alloc)
    }

    #[test]
    fn speculative_loads_and_checked_stores_are_marked() {
        let block = v4_like_block();
        let translated = build(&block, DfgOptions::aggressive());
        assert!(translated.speculative_load_count() >= 1);
        let has_checked_store = translated
            .bundles()
            .flat_map(|b| b.iter())
            .any(|op| matches!(op, Op::Store { checks_mcb: true, .. }));
        assert!(has_checked_store);
    }

    #[test]
    fn no_speculation_means_no_markers() {
        let block = v4_like_block();
        let translated = build(&block, DfgOptions::no_speculation());
        assert_eq!(translated.speculative_load_count(), 0);
        assert!(translated
            .bundles()
            .flat_map(|b| b.iter())
            .all(|op| !matches!(op, Op::Store { checks_mcb: true, .. })));
    }

    #[test]
    fn recovery_is_sequential_and_unspeculative() {
        let block = v4_like_block();
        let translated = build(&block, DfgOptions::aggressive());
        assert_eq!(translated.recovery.len(), block.len());
        assert!(translated.recovery.iter().all(|op| !matches!(
            op,
            Op::Load { speculative: true, .. } | Op::Store { checks_mcb: true, .. }
        )));
        assert!(matches!(translated.recovery.last(), Some(Op::Jump { .. })));
        // Recovery preserves original order: the store comes before the loads.
        let store_pos =
            translated.recovery.iter().position(|op| matches!(op, Op::Store { .. })).unwrap();
        let load_pos =
            translated.recovery.iter().position(|op| matches!(op, Op::Load { .. })).unwrap();
        assert!(store_pos < load_pos);
    }

    #[test]
    fn bundles_respect_issue_width_and_terminate() {
        let block = v4_like_block();
        let translated = build(&block, DfgOptions::aggressive());
        assert!(translated.bundles().all(|b| b.len() <= 4));
        let last = translated.bundles().last().unwrap();
        assert!(last.iter().any(|op| op.is_terminator()));
        assert!(translated.guest_inst_count >= 4);
        assert!(translated.phys_reg_count >= 3);
    }

    #[test]
    fn one_pass_marks_emit_what_the_per_op_scan_emitted() {
        let mut speculative_blocks = 0;
        for index in 0..2_000 {
            let case = testgen::case(index);
            let Ok(sched) = schedule(&case.block, &case.graph, case.issue_width) else {
                panic!("case {index} must schedule");
            };
            let alloc = RegAlloc::allocate(&case.block);
            let translated = generate(&case.block, &case.graph, &sched, &alloc);
            let by_scan = marks_by_edge_scan(&case.block, &case.graph, &sched);
            assert_eq!(translated, emit(&case.block, &sched, &alloc, &by_scan), "case {index}");
            if translated.speculative_load_count() > 0 {
                speculative_blocks += 1;
            }
        }
        assert!(speculative_blocks > 100, "only {speculative_blocks} blocks speculate");
    }

    /// Every oracle block, generated and then run twice (cold, then warm
    /// cache) on seeded registers and memory by the core and by its
    /// reference: equal results, errors included, and equal state,
    /// statistics and profiles.
    #[cfg(debug_assertions)]
    #[test]
    fn generated_blocks_execute_like_the_reference_core() {
        use dbt_riscv::GuestMemory;
        use dbt_vliw::{CoreConfig, CoreError, VliwCore};
        use spectaint::XorShift64;

        let (mut rollbacks, mut exits, mut ends, mut faults) = (0, 0, 0, 0);
        for index in 0..2_000 {
            let case = testgen::case(index);
            let sched = schedule(&case.block, &case.graph, case.issue_width).unwrap();
            let alloc = RegAlloc::allocate(&case.block);
            let translated = generate(&case.block, &case.graph, &sched, &alloc);
            // Addresses and stored words fall mostly inside the 16 KiB
            // image and sometimes just past it. Every third case gives all
            // four registers the blocks' constant address 0x2000, so
            // accesses alias (speculative loads conflict with checked
            // stores) and side exits comparing two registers fall through.
            let mut rng = XorShift64::new(0xc0de ^ index);
            let mut mem = GuestMemory::new(0x4000);
            for addr in (0..0x4000).step_by(8) {
                mem.store_u64(addr, rng.next_below(0x4400)).unwrap();
            }
            let config = CoreConfig { issue_width: case.issue_width, ..CoreConfig::default() };
            let mut core = VliwCore::new(config, 0x1000);
            for reg in [Reg::A0, Reg::A1, Reg::A2, Reg::A3] {
                let value = if index % 3 == 0 { 0x2000 } else { 8 * rng.next_below(0x880) };
                core.arch_mut().set_reg(reg, value);
            }
            let (mut oracle, mut oracle_mem) = (core.clone(), mem.clone());
            for run in 0..2 {
                let got = core.execute_block(&translated, &mut mem);
                let want = oracle.execute_block_reference(&translated, &mut oracle_mem);
                let at = format!("case {index}, run {run}");
                assert_eq!(got, want, "{at}");
                assert_eq!(core.arch(), oracle.arch(), "{at}");
                assert_eq!(core.stats(), oracle.stats(), "{at}");
                assert_eq!(core.dcache().stats(), oracle.dcache().stats(), "{at}");
                assert_eq!(core.profiler().phases, oracle.profiler().phases, "{at}");
                assert_eq!(core.profiler().events, oracle.profiler().events, "{at}");
                match got {
                    Ok(outcome) if outcome.rolled_back => rollbacks += 1,
                    Ok(outcome) if outcome.next_pc == Some(0x2000) => exits += 1,
                    Ok(_) => ends += 1,
                    Err(CoreError::MemFault { .. }) => faults += 1,
                    Err(_) => {}
                }
            }
            assert!(mem == oracle_mem, "case {index}: guest memory differs");
            assert!(core.profiler().trace_events().eq(oracle.profiler().trace_events()));
        }
        let counts = [rollbacks, exits, ends, faults];
        assert!(counts.iter().all(|&n| n >= 20), "rollbacks, exits, ends, faults: {counts:?}");
    }
}
