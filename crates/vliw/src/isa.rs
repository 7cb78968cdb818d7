//! The explicitly parallel (VLIW) instruction set produced by the DBT
//! engine.

use dbt_riscv::inst::AluOp;
use dbt_riscv::{BranchCond, Reg};
use std::fmt;

/// A physical register of the VLIW core.
///
/// Registers `0..32` are not used directly; architectural guest registers
/// are accessed through [`Operand::Arch`]. Physical registers hold
/// block-local temporaries, including the *hidden registers* the paper
/// mentions: results of speculatively hoisted instructions that are simply
/// dropped when the speculation turns out to be wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysReg(pub u16);

impl PhysReg {
    /// Index of the register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Width (and sign treatment) of a VLIW memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessWidth {
    /// Number of bytes accessed (1, 2, 4 or 8).
    pub bytes: u8,
    /// Whether a load of this width sign-extends into 64 bits.
    pub sign_extend: bool,
}

impl AccessWidth {
    /// 8-byte access.
    pub const DOUBLE: AccessWidth = AccessWidth { bytes: 8, sign_extend: false };
    /// 1-byte zero-extended access.
    pub const BYTE_U: AccessWidth = AccessWidth { bytes: 1, sign_extend: false };

    /// Builds an access width.
    pub fn new(bytes: u8, sign_extend: bool) -> AccessWidth {
        AccessWidth { bytes, sign_extend }
    }
}

/// An operand of a VLIW operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// A physical (block-local) register.
    Phys(PhysReg),
    /// A guest architectural register, read as of the last commit.
    Arch(Reg),
    /// An immediate.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Phys(p) => write!(f, "{p}"),
            Operand::Arch(r) => write!(f, "${r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// One VLIW operation (one slot of a bundle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Empty slot.
    Nop,
    /// ALU operation into a physical register.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: PhysReg,
        /// First operand.
        a: Operand,
        /// Second operand.
        b: Operand,
    },
    /// Load from `base + offset`.
    Load {
        /// Access width.
        width: AccessWidth,
        /// Destination register.
        dst: PhysReg,
        /// Base address operand.
        base: Operand,
        /// Constant offset.
        offset: i64,
        /// `true` if the load was hoisted above a store it may alias; the
        /// core records it in the Memory Conflict Buffer.
        speculative: bool,
        /// Position of the originating guest instruction; used by the MCB to
        /// decide whether a store conflicts with an already-executed load.
        original_seq: u32,
    },
    /// Store to `base + offset`.
    Store {
        /// Access width.
        width: AccessWidth,
        /// Value operand.
        value: Operand,
        /// Base address operand.
        base: Operand,
        /// Constant offset.
        offset: i64,
        /// `true` if speculative loads may have bypassed this store, in
        /// which case the core must check the Memory Conflict Buffer.
        checks_mcb: bool,
        /// Position of the originating guest instruction.
        original_seq: u32,
    },
    /// Commit a value to a guest architectural register.
    CommitReg {
        /// Destination architectural register.
        reg: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Conditional side exit towards `target` (guest address).
    SideExit {
        /// Branch condition.
        cond: BranchCond,
        /// First compared operand.
        a: Operand,
        /// Second compared operand.
        b: Operand,
        /// Guest address to continue at when the exit is taken.
        target: u64,
    },
    /// Unconditional end of the block, continuing at guest address `target`.
    Jump {
        /// Guest address to continue at.
        target: u64,
    },
    /// Unconditional end of the block, continuing at the guest address held
    /// in `target`.
    JumpIndirect {
        /// Operand holding the continuation address.
        target: Operand,
    },
    /// Terminate the guest program.
    Halt,
    /// Read the core cycle counter. Serialising with respect to outstanding
    /// memory accesses, like the CSR read on the real core.
    RdCycle {
        /// Destination register.
        dst: PhysReg,
    },
    /// Flush the data-cache line containing `base + offset`.
    CacheFlush {
        /// Base address operand.
        base: Operand,
        /// Constant offset.
        offset: i64,
    },
    /// Memory fence (no effect at run time; constrains the schedule).
    Fence,
}

impl Op {
    /// Destination physical register, if any.
    pub fn dst(&self) -> Option<PhysReg> {
        match self {
            Op::Alu { dst, .. } | Op::Load { dst, .. } | Op::RdCycle { dst } => Some(*dst),
            _ => None,
        }
    }

    /// Returns `true` for loads and stores.
    pub fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Returns `true` if the op ends block execution when reached (taken
    /// side exits end it dynamically).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Jump { .. } | Op::JumpIndirect { .. } | Op::Halt)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Nop => write!(f, "nop"),
            Op::Alu { op, dst, a, b } => write!(f, "{dst} = {} {a}, {b}", op.mnemonic()),
            Op::Load { width, dst, base, offset, speculative, .. } => {
                let tag = if *speculative { "spec.load" } else { "load" };
                write!(f, "{dst} = {tag}.{} {base}+{offset}", width.bytes)
            }
            Op::Store { width, value, base, offset, checks_mcb, .. } => {
                let tag = if *checks_mcb { "store.chk" } else { "store" };
                write!(f, "{tag}.{} {value} -> {base}+{offset}", width.bytes)
            }
            Op::CommitReg { reg, src } => write!(f, "commit ${reg} <- {src}"),
            Op::SideExit { cond, a, b, target } => {
                write!(f, "exit.{} {a}, {b} -> {target:#x}", cond.mnemonic())
            }
            Op::Jump { target } => write!(f, "jump -> {target:#x}"),
            Op::JumpIndirect { target } => write!(f, "jump -> [{target}]"),
            Op::Halt => write!(f, "halt"),
            Op::RdCycle { dst } => write!(f, "{dst} = rdcycle"),
            Op::CacheFlush { base, offset } => write!(f, "cflush {base}+{offset}"),
            Op::Fence => write!(f, "fence"),
        }
    }
}

/// One VLIW instruction bundle: up to `issue_width` operations issued in the
/// same cycle. Slot order is significant only for architectural commits
/// (they apply in slot order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bundle {
    /// The operations of the bundle.
    pub slots: Vec<Op>,
}

impl Bundle {
    /// Creates an empty bundle.
    pub fn new() -> Bundle {
        Bundle { slots: Vec::new() }
    }

    /// Number of non-nop operations.
    pub fn useful_ops(&self) -> usize {
        self.slots.iter().filter(|op| !matches!(op, Op::Nop)).count()
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, op) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, " }}")
    }
}

/// What one bundle waits on before it can issue, read off its slots when
/// the block is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BundleWaits {
    /// Start of the bundle's run in [`TranslatedBlock`]'s wait list.
    pub(crate) start: u32,
    /// End (exclusive) of that run.
    pub(crate) end: u32,
    /// Whether a slot is an `rdcycle`, which also waits for every
    /// outstanding memory access.
    pub(crate) rdcycle: bool,
}

/// A block of VLIW code produced by the DBT engine for one guest (super)
/// block.
///
/// [`TranslatedBlock::new`] also records, per bundle, the physical
/// registers its slots read and whether it holds an `rdcycle`: everything
/// the core's stall computation needs from the code. The core folds those
/// lists into two ready-time arrays, one for ALU-produced and one for
/// load-produced values, instead of matching every slot twice; the
/// [`core`](crate::core) module docs explain why cycle counts and phase
/// attribution stay what the per-slot scan gave. The bundles are
/// read-only once built, so the lists cannot go stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedBlock {
    /// Guest address this block translates.
    pub entry_pc: u64,
    /// The scheduled bundles.
    pub(crate) bundles: Vec<Bundle>,
    /// Number of physical registers the block uses.
    pub phys_reg_count: u16,
    /// Sequential recovery code (original program order, no speculation),
    /// re-executed after a Memory Conflict Buffer rollback.
    pub recovery: Vec<Op>,
    /// Number of guest instructions this block covers.
    pub guest_inst_count: usize,
    /// Per bundle: its run of `wait_regs` and whether it reads the cycle
    /// counter.
    pub(crate) waits: Vec<BundleWaits>,
    /// The physical registers each bundle reads, deduplicated per bundle,
    /// bundle after bundle.
    pub(crate) wait_regs: Vec<u16>,
}

/// The physical registers `op` reads.
fn phys_reads(op: &Op) -> impl Iterator<Item = PhysReg> {
    let (a, b) = match op {
        Op::Alu { a, b, .. } | Op::SideExit { a, b, .. } => (Some(*a), Some(*b)),
        Op::Store { value, base, .. } => (Some(*value), Some(*base)),
        Op::Load { base, .. } | Op::CacheFlush { base, .. } => (Some(*base), None),
        Op::CommitReg { src, .. } => (Some(*src), None),
        Op::JumpIndirect { target } => (Some(*target), None),
        Op::Nop | Op::Jump { .. } | Op::Halt | Op::Fence | Op::RdCycle { .. } => (None, None),
    };
    a.into_iter().chain(b).filter_map(|operand| match operand {
        Operand::Phys(p) => Some(p),
        Operand::Arch(_) | Operand::Imm(_) => None,
    })
}

impl TranslatedBlock {
    /// Builds a block and its per-bundle wait lists.
    pub fn new(
        entry_pc: u64,
        bundles: Vec<Bundle>,
        phys_reg_count: u16,
        recovery: Vec<Op>,
        guest_inst_count: usize,
    ) -> TranslatedBlock {
        let mut waits = Vec::with_capacity(bundles.len());
        let mut wait_regs = Vec::new();
        let mut regs = Vec::new();
        for bundle in &bundles {
            regs.clear();
            regs.extend(bundle.slots.iter().flat_map(phys_reads).map(|p| p.0));
            regs.sort_unstable();
            regs.dedup();
            let start = wait_regs.len();
            wait_regs.extend_from_slice(&regs);
            waits.push(BundleWaits {
                start: start as u32,
                end: wait_regs.len() as u32,
                rdcycle: bundle.slots.iter().any(|op| matches!(op, Op::RdCycle { .. })),
            });
        }
        TranslatedBlock {
            entry_pc,
            bundles,
            phys_reg_count,
            recovery,
            guest_inst_count,
            waits,
            wait_regs,
        }
    }

    /// The scheduled bundles.
    pub fn bundles(&self) -> &[Bundle] {
        &self.bundles
    }

    /// Total number of operations across all bundles (excluding nops).
    pub fn op_count(&self) -> usize {
        self.bundles.iter().map(Bundle::useful_ops).sum()
    }

    /// Number of speculative loads in the scheduled code.
    pub fn speculative_load_count(&self) -> usize {
        self.bundles
            .iter()
            .flat_map(|b| b.slots.iter())
            .filter(|op| matches!(op, Op::Load { speculative: true, .. }))
            .count()
    }
}

impl fmt::Display for TranslatedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "translated block @{:#x} ({} bundles):", self.entry_pc, self.bundles.len())?;
        for (i, bundle) in self.bundles.iter().enumerate() {
            writeln!(f, "  c{i:3}: {bundle}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_dst_and_classification() {
        let alu =
            Op::Alu { op: AluOp::Add, dst: PhysReg(3), a: Operand::Imm(1), b: Operand::Imm(2) };
        assert_eq!(alu.dst(), Some(PhysReg(3)));
        assert!(!alu.is_memory());
        let ld = Op::Load {
            width: AccessWidth::DOUBLE,
            dst: PhysReg(4),
            base: Operand::Arch(Reg::A0),
            offset: 8,
            speculative: true,
            original_seq: 7,
        };
        assert!(ld.is_memory());
        assert_eq!(ld.dst(), Some(PhysReg(4)));
        assert!(Op::Halt.is_terminator());
        assert!(!Op::Fence.is_terminator());
        assert_eq!(Op::Fence.dst(), None);
    }

    #[test]
    fn bundle_counts_useful_ops() {
        let mut b = Bundle::new();
        b.slots.push(Op::Nop);
        b.slots.push(Op::Halt);
        assert_eq!(b.useful_ops(), 1);
    }

    #[test]
    fn display_shows_speculation_markers() {
        let ld = Op::Load {
            width: AccessWidth::BYTE_U,
            dst: PhysReg(1),
            base: Operand::Imm(0x1000),
            offset: 0,
            speculative: true,
            original_seq: 3,
        };
        assert!(ld.to_string().contains("spec.load"));
        let st = Op::Store {
            width: AccessWidth::DOUBLE,
            value: Operand::Phys(PhysReg(1)),
            base: Operand::Arch(Reg::A0),
            offset: 0,
            checks_mcb: true,
            original_seq: 1,
        };
        assert!(st.to_string().contains("store.chk"));
    }

    #[test]
    fn translated_block_counts() {
        let block = TranslatedBlock::new(
            0x100,
            vec![
                Bundle {
                    slots: vec![
                        Op::Load {
                            width: AccessWidth::DOUBLE,
                            dst: PhysReg(0),
                            base: Operand::Imm(0),
                            offset: 0,
                            speculative: true,
                            original_seq: 2,
                        },
                        Op::Nop,
                    ],
                },
                Bundle { slots: vec![Op::Halt] },
            ],
            1,
            vec![Op::Halt],
            2,
        );
        assert_eq!(block.op_count(), 2);
        assert_eq!(block.speculative_load_count(), 1);
        assert!(block.to_string().contains("bundles"));
    }

    #[test]
    fn wait_lists_hold_each_bundles_physical_reads_once() {
        let p = |i| Operand::Phys(PhysReg(i));
        let block = TranslatedBlock::new(
            0,
            vec![
                Bundle { slots: vec![Op::RdCycle { dst: PhysReg(0) }, Op::Nop] },
                Bundle {
                    slots: vec![
                        Op::Alu { op: AluOp::Add, dst: PhysReg(2), a: p(1), b: p(0) },
                        Op::Store {
                            width: AccessWidth::DOUBLE,
                            value: p(1),
                            base: Operand::Arch(Reg::A0),
                            offset: 0,
                            checks_mcb: false,
                            original_seq: 1,
                        },
                        Op::CommitReg { reg: Reg::A1, src: Operand::Imm(3) },
                    ],
                },
                Bundle { slots: vec![Op::JumpIndirect { target: p(2) }] },
            ],
            3,
            vec![],
            3,
        );
        let lists: Vec<(&[u16], bool)> = block
            .waits
            .iter()
            .map(|w| (&block.wait_regs[w.start as usize..w.end as usize], w.rdcycle))
            .collect();
        assert_eq!(lists, [(&[][..], true), (&[0, 1][..], false), (&[2][..], false)]);
    }
}
