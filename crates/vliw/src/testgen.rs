//! Seeded random blocks for the execute oracle test.
//!
//! Code generation schedules every block it emits, so no ALU wait ever
//! binds in them. This generator fills bundles at random and ignores
//! latencies: multiply and divide results are read a bundle later,
//! `rdcycle` follows outstanding loads, slots read registers written
//! earlier in the same bundle or never written at all, and nops and
//! fences take up slots. Accesses share a few addresses, so speculative
//! loads conflict with checked stores, and some fall outside guest memory.
//! Some blocks hold a bundle wider than the core in mid-block, and some end
//! without a terminator. Some bundles hold only commits.
//!
//! Every case keeps to the conditions for lifting commits out of the
//! steps, which `TranslatedBlock::new` requires: no operand reads a guest
//! register after a commit to it, and no commit's physical source is
//! written after it.

use crate::isa::{AccessWidth, Bundle, Op, Operand, PhysReg, TranslatedBlock};
use dbt_riscv::inst::AluOp;
use dbt_riscv::{BranchCond, Reg};
use spectaint::XorShift64;

/// Bytes of guest memory the cases run against.
pub(crate) const MEMORY_BYTES: usize = 0x2000;
/// Where taken side exits continue; terminators never go there.
pub(crate) const SIDE_EXIT_TARGET: u64 = 0x5000;

/// Addresses accesses share; the last three fault when not speculative.
const ADDRESSES: [i64; 6] = [0, 0x40, 0x1ff8, 0x1ffc, 0x2000, -8];
const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Xor,
    AluOp::Mul,
    AluOp::Mulh,
    AluOp::Div,
    AluOp::Rem,
    AluOp::Mulw,
];
const REGS: [Reg; 4] = [Reg::A0, Reg::A1, Reg::A2, Reg::A3];
const WIDTHS: [usize; 5] = [1, 2, 3, 4, 8];
/// Physical registers the cases use.
const PHYS_REGS: u16 = 12;

fn pick<T: Copy>(rng: &mut XorShift64, items: &[T]) -> T {
    items[rng.next_below(items.len() as u64) as usize]
}

/// One oracle case.
pub(crate) struct Case {
    pub(crate) block: TranslatedBlock,
    pub(crate) issue_width: usize,
}

/// The `index`-th case.
pub(crate) fn case(index: u64) -> Case {
    let rng = XorShift64::new(0x5eed_b10c ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut gen = Generator { rng, latest: Vec::new(), earlier: Vec::new(), committed: 0, read: 0 };
    let issue_width = pick(&mut gen.rng, &WIDTHS);
    let bundle_count = 1 + gen.rng.next_below(10) as usize;
    let too_wide =
        (gen.rng.next_below(6) == 0).then(|| gen.rng.next_below(bundle_count as u64) as usize);
    let terminated = gen.rng.next_below(6) != 0;
    let mut bundles = Vec::with_capacity(bundle_count);
    for index in 0..bundle_count {
        let width = if too_wide == Some(index) {
            issue_width + 1 + gen.rng.next_below(2) as usize
        } else {
            gen.rng.next_below(issue_width as u64 + 1) as usize
        };
        let commits_only = gen.rng.next_below(8) == 0;
        let mut slots: Vec<Op> =
            (0..width).map(|_| if commits_only { gen.commit() } else { gen.op() }).collect();
        if terminated && index + 1 == bundle_count {
            let terminator = match gen.rng.next_below(3) {
                0 => Op::Halt,
                1 => Op::JumpIndirect { target: gen.operand() },
                _ => Op::Jump { target: 0x6000 },
            };
            match slots.last_mut() {
                Some(last) if width == issue_width => *last = terminator,
                _ => slots.push(terminator),
            }
        }
        gen.end_bundle();
        bundles.push(Bundle { slots });
    }
    // The recovery code replays the slots in order without speculation.
    let mut recovery: Vec<Op> = bundles.iter().flat_map(|bundle| bundle.slots.clone()).collect();
    for op in &mut recovery {
        match op {
            Op::Load { speculative, .. } => *speculative = false,
            Op::Store { checks_mcb, .. } => *checks_mcb = false,
            _ => {}
        }
    }
    recovery.push(Op::Halt);
    let block = TranslatedBlock::new(0x1000, bundles, PHYS_REGS, recovery, bundle_count);
    Case { block, issue_width }
}

struct Generator {
    rng: XorShift64,
    /// Registers written in the current bundle, so far.
    latest: Vec<u16>,
    /// Registers written in earlier bundles, the previous bundle's last.
    earlier: Vec<u16>,
    /// Guest registers committed so far, one bit each.
    committed: u32,
    /// Physical registers a commit has read so far, one bit each.
    read: u32,
}

impl Generator {
    fn end_bundle(&mut self) {
        self.earlier.append(&mut self.latest);
    }

    /// A register no commit has read.
    fn dst(&mut self) -> PhysReg {
        let free: Vec<u16> = (0..PHYS_REGS).filter(|&reg| self.read >> reg & 1 == 0).collect();
        let reg = pick(&mut self.rng, &free);
        self.latest.push(reg);
        PhysReg(reg)
    }

    /// A guest register not committed yet (an immediate once all are).
    fn arch(&mut self) -> Operand {
        let free: Vec<Reg> =
            REGS.into_iter().filter(|reg| self.committed >> reg.index() & 1 == 0).collect();
        if free.is_empty() {
            Operand::Imm(0x40)
        } else {
            Operand::Arch(pick(&mut self.rng, &free))
        }
    }

    /// A commit of some operand. Commits read at most 8 physical registers,
    /// so `dst` always has 4 left.
    fn commit(&mut self) -> Op {
        let reg = pick(&mut self.rng, &REGS);
        let mut src = self.operand();
        if let Operand::Phys(p) = src {
            if (self.read | 1 << p.0).count_ones() > 8 {
                src = Operand::Imm(i64::from(p.0));
            } else {
                self.read |= 1 << p.0;
            }
        }
        self.committed |= 1 << reg.index();
        Op::CommitReg { reg, src }
    }

    /// Mostly recent results, sometimes any register at all.
    fn operand(&mut self) -> Operand {
        match self.rng.next_below(10) {
            0..=2 if !self.earlier.is_empty() => {
                // The previous bundle's results are the latest in `earlier`.
                let back = self.rng.next_below(3.min(self.earlier.len() as u64)) as usize;
                Operand::Phys(PhysReg(self.earlier[self.earlier.len() - 1 - back]))
            }
            3 if !self.latest.is_empty() => {
                Operand::Phys(PhysReg(pick(&mut self.rng, &self.latest)))
            }
            4 => Operand::Phys(PhysReg(self.rng.next_below(u64::from(PHYS_REGS)) as u16)),
            5..=7 => self.arch(),
            _ => Operand::Imm(self.rng.next_below(0x100) as i64),
        }
    }

    /// A shared address, mostly inside guest memory; sometimes a register.
    fn address(&mut self) -> (Operand, i64) {
        match self.rng.next_below(16) {
            0 => (self.operand(), 0),
            1..=2 => (self.arch(), 8 * self.rng.next_below(2) as i64),
            3 => (Operand::Imm(pick(&mut self.rng, &ADDRESSES[3..])), 0),
            _ => (Operand::Imm(pick(&mut self.rng, &ADDRESSES[..3])), 0),
        }
    }

    fn width(&mut self) -> AccessWidth {
        pick(&mut self.rng, &[AccessWidth::DOUBLE, AccessWidth::BYTE_U, AccessWidth::new(4, true)])
    }

    fn op(&mut self) -> Op {
        match self.rng.next_below(40) {
            0..=10 => {
                let (op, a, b) = (pick(&mut self.rng, &ALU_OPS), self.operand(), self.operand());
                Op::Alu { op, dst: self.dst(), a, b }
            }
            11..=17 => {
                let (base, offset) = self.address();
                let (width, speculative) = (self.width(), self.rng.next_below(3) != 0);
                let original_seq = self.rng.next_below(8) as u32;
                Op::Load { width, dst: self.dst(), base, offset, speculative, original_seq }
            }
            18..=23 => {
                let (base, offset) = self.address();
                Op::Store {
                    width: self.width(),
                    value: self.operand(),
                    base,
                    offset,
                    checks_mcb: self.rng.next_below(3) != 0,
                    original_seq: self.rng.next_below(8) as u32,
                }
            }
            24..=27 => self.commit(),
            28..=29 => Op::SideExit {
                cond: BranchCond::Eq,
                a: Operand::Imm(0),
                b: Operand::Imm(self.rng.next_below(4) as i64),
                target: SIDE_EXIT_TARGET,
            },
            30 => Op::SideExit {
                cond: pick(&mut self.rng, &[BranchCond::Ne, BranchCond::Ltu]),
                a: self.operand(),
                b: self.operand(),
                target: SIDE_EXIT_TARGET,
            },
            31..=33 => Op::RdCycle { dst: self.dst() },
            34 => {
                let (base, offset) = self.address();
                Op::CacheFlush { base, offset }
            }
            35..=36 => Op::Nop,
            37..=38 => Op::Fence,
            _ => Op::Jump { target: 0x6000 },
        }
    }
}
