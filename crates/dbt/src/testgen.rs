//! Seeded random IR blocks for the oracle tests of the scheduler and the
//! code generator.
//!
//! Unlike `spectaint::corpus::random_block`, the generator emits every IR
//! operation: multiplies and divides, register commits, cycle-counter
//! reads, cache flushes and fences as well as loads, stores and side exits.

use dbt_ir::{BlockKind, DepGraph, DepKind, DfgOptions, InstId, IrBlock, IrOp, MemWidth, Operand};
use dbt_riscv::inst::AluOp;
use dbt_riscv::{BranchCond, Reg};
use spectaint::XorShift64;

/// Issue widths the cases cycle through.
pub(crate) const WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];

/// One oracle case.
pub(crate) struct Case {
    pub(crate) block: IrBlock,
    /// The block's dependency graph after random mitigation decisions.
    pub(crate) graph: DepGraph,
    pub(crate) issue_width: usize,
}

/// The `index`-th case. Ten consecutive indices cover every issue width
/// under both `DfgOptions::aggressive()` and `DfgOptions::no_speculation()`.
pub(crate) fn case(index: u64) -> Case {
    let mut rng = XorShift64::new(0x5eed_b10c ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let block = random_block(&mut rng);
    let options =
        [DfgOptions::aggressive(), DfgOptions::no_speculation()][(index / 5 % 2) as usize];
    let mut graph = DepGraph::build(&block, options);
    harden_some(&mut rng, &mut graph);
    Case { block, graph, issue_width: WIDTHS[(index % 5) as usize] }
}

const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Div,
    AluOp::Remu,
];
const REGS: [Reg; 4] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3];

fn pick<T: Copy>(rng: &mut XorShift64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

fn operand(rng: &mut XorShift64, values: &[InstId]) -> Operand {
    match rng.next_below(4) {
        _ if values.is_empty() => Operand::LiveIn(pick(rng, &REGS)),
        0 => Operand::LiveIn(pick(rng, &REGS)),
        1 => Operand::Imm(rng.next_below(0x100) as i64),
        _ => Operand::Value(pick(rng, values)),
    }
}

/// Address bases from a small pool, so that accesses alias provably,
/// provably not, or unknowably.
fn address(rng: &mut XorShift64, values: &[InstId]) -> (Operand, i64) {
    let base = match rng.next_below(4) {
        0 => Operand::Imm(0x2000),
        1 | 2 => Operand::LiveIn(pick(rng, &REGS[..2])),
        _ => operand(rng, values),
    };
    (base, 8 * rng.next_below(3) as i64)
}

fn random_block(rng: &mut XorShift64) -> IrBlock {
    let kind = if rng.next_below(2) == 0 {
        BlockKind::Basic
    } else {
        BlockKind::Superblock { merged_blocks: 2 }
    };
    let mut block = IrBlock::new(0x1000, kind);
    let mut values = Vec::new();
    let mut seq = 0usize;
    for _ in 0..rng.next_range(1, 40) {
        let op = match rng.next_below(13) {
            0 => IrOp::Const(rng.next_below(0x4000) as i64),
            1 | 2 => IrOp::Alu {
                op: pick(rng, &ALU_OPS),
                a: operand(rng, &values),
                b: operand(rng, &values),
            },
            3 | 4 => {
                let (base, offset) = address(rng, &values);
                let width =
                    pick(rng, &[MemWidth::BYTE_U, MemWidth::new(4, true), MemWidth::DOUBLE]);
                IrOp::Load { width, base, offset }
            }
            5 | 6 => {
                let (base, offset) = address(rng, &values);
                IrOp::Store { width: MemWidth::DOUBLE, value: operand(rng, &values), base, offset }
            }
            7 => IrOp::WriteReg { reg: pick(rng, &REGS), value: operand(rng, &values) },
            8 | 9 => IrOp::SideExit {
                cond: BranchCond::Ne,
                a: operand(rng, &values),
                b: operand(rng, &values),
                target: 0x2000,
            },
            10 => IrOp::RdCycle,
            11 => {
                let (base, offset) = address(rng, &values);
                IrOp::CacheFlush { base, offset }
            }
            _ => IrOp::Fence,
        };
        let produces_value = op.produces_value();
        let id = block.push(op, 0x1000 + 4 * seq as u64, seq);
        if produces_value {
            values.push(id);
        }
        // Translation often turns one guest instruction into several.
        if rng.next_below(3) != 0 {
            seq += 1;
        }
    }
    // The scheduler places the last instruction last whatever it is, so
    // some blocks end without a terminator.
    let terminator = match rng.next_below(8) {
        0 => None,
        1 => Some(IrOp::JumpIndirect { target: operand(rng, &values) }),
        2 => Some(IrOp::Halt),
        _ => Some(IrOp::Jump { target: 0x3000 }),
    };
    if let Some(op) = terminator {
        block.push(op, 0x1000 + 4 * seq as u64, seq);
    }
    block
}

/// Random mitigation decisions: hardens a few relaxable edges and
/// sometimes adds extra forward hard edges of any kind.
fn harden_some(rng: &mut XorShift64, graph: &mut DepGraph) {
    for _ in 0..rng.next_below(4) {
        let relaxable: Vec<_> =
            graph.edges().iter().filter(|e| e.relaxable).map(|e| (e.from, e.to)).collect();
        if relaxable.is_empty() {
            break;
        }
        let (from, to) = pick(rng, &relaxable);
        if rng.next_below(3) == 0 {
            graph.harden_all_preds(to);
        } else {
            graph.harden(from, to);
        }
    }
    let n = graph.node_count() as u64;
    if n >= 2 && rng.next_below(4) == 0 {
        for _ in 0..rng.next_range(1, 3) {
            let from = rng.next_below(n - 1);
            let to = rng.next_range(from + 1, n - 1);
            let kind =
                pick(rng, &[DepKind::Data, DepKind::Memory, DepKind::Control, DepKind::Order]);
            graph.add_hard_edge(InstId(from as usize), InstId(to as usize), kind);
        }
    }
}
