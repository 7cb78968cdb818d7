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

/// Cycles from issue until an ALU operation's result is ready. The
/// scheduler places every consumer at least this many bundles after its
/// producer, which is why no ALU wait binds in scheduled code.
pub fn alu_latency(op: AluOp) -> u64 {
    match op {
        AluOp::Mul | AluOp::Mulh | AluOp::Mulw => 3,
        AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 12,
        _ => 1,
    }
}

/// One VLIW instruction bundle: up to `issue_width` operations issued in the
/// same cycle. Slot order is significant only for architectural commits
/// (they apply in slot order). Bundles are what code generation hands to
/// [`TranslatedBlock::new`].
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

/// One step of a block's lowered form: a bundle's stall check, or one of
/// its slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step {
    /// Bundle `bundle` may issue late. Comes before the bundle's slots, and
    /// only for a bundle with a wait that can bind or an `rdcycle`.
    Stall {
        /// The bundle.
        bundle: u32,
        /// The physical registers it reads whose wait can bind, ascending.
        waits: Box<[u16]>,
        /// Whether a slot is an `rdcycle`, which also waits for every
        /// outstanding memory access.
        rdcycle: bool,
    },
    /// One slot of bundle `bundle`, in slot order.
    Exec {
        /// The operation.
        op: Op,
        /// The bundle.
        bundle: u32,
        /// Whether a kept wait names `op`'s destination, so the core must
        /// record when its result is ready.
        awaited: bool,
    },
}

impl Step {
    /// The bundle the step belongs to.
    pub(crate) fn bundle(&self) -> u32 {
        match self {
            Step::Stall { bundle, .. } | Step::Exec { bundle, .. } => *bundle,
        }
    }

    /// The operation of a slot step.
    fn op(&self) -> Option<&Op> {
        match self {
            Step::Exec { op, .. } => Some(op),
            Step::Stall { .. } => None,
        }
    }
}

/// The last write to a physical register in the bundles lowered so far.
#[derive(Debug, Clone, Copy)]
struct Write {
    /// The writing bundle.
    bundle: u32,
    /// Cycles from issue until the value is ready, or `None` for a load,
    /// whose hit or miss is decided at run time.
    latency: Option<u64>,
}

impl Write {
    /// Whether a read in bundle `bundle` may have to wait for this write.
    /// Each bundle issues at least one cycle after the one before it, so a
    /// value of known latency is ready once that many bundles have passed.
    fn can_bind_at(self, bundle: u32) -> bool {
        self.latency.is_none_or(|latency| u64::from(bundle - self.bundle) < latency)
    }
}

/// A block of VLIW code produced by the DBT engine for one guest (super)
/// block.
///
/// [`TranslatedBlock::new`] lowers the bundles into one flat list of steps,
/// which the core walks once per execution. Each bundle's slots become one
/// step apiece, in order, nops included. A bundle that can issue late is
/// preceded by a stall step, which holds the registers it waits on and
/// whether it reads the cycle counter. A wait is dropped when the register
/// has no earlier writer in the block, or when its last earlier writer is an
/// ALU operation or `rdcycle` at least its latency bundles back: that value
/// is ready by construction. Loads keep their waits. Slots whose destination
/// a kept wait names are marked, and only they record ready times. The
/// [`core`](crate::core) module docs explain why cycle counts and phase
/// attribution stay what a per-slot scan gives. The steps are read-only
/// once built, so the lowering cannot go stale; [`TranslatedBlock::bundles`]
/// views them as the bundles they came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedBlock {
    /// Guest address this block translates.
    pub entry_pc: u64,
    /// The scheduled bundles, lowered.
    pub(crate) steps: Vec<Step>,
    /// Number of bundles, empty ones included.
    pub(crate) bundle_count: u32,
    /// Slots in the widest bundle.
    pub(crate) widest: usize,
    /// Number of physical registers the block uses.
    pub phys_reg_count: u16,
    /// Sequential recovery code (original program order, no speculation),
    /// re-executed after a Memory Conflict Buffer rollback.
    pub recovery: Vec<Op>,
    /// Number of guest instructions this block covers.
    pub guest_inst_count: usize,
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
    /// Builds a block, lowering `bundles` into its steps.
    pub fn new(
        entry_pc: u64,
        bundles: Vec<Bundle>,
        phys_reg_count: u16,
        recovery: Vec<Op>,
        guest_inst_count: usize,
    ) -> TranslatedBlock {
        let bundle_count = u32::try_from(bundles.len()).expect("fewer than 2^32 bundles");
        let ops = || bundles.iter().flat_map(|bundle| &bundle.slots);
        let regs = ops().filter_map(Op::dst).map(|dst| dst.index() + 1).max().unwrap_or(0);
        let mut last_write: Vec<Option<Write>> = vec![None; regs];
        // Registers some kept wait names.
        let mut awaited = vec![false; regs];
        let mut stalls = Vec::new();
        let mut reads = Vec::new();
        for (index, bundle) in (0..).zip(&bundles) {
            reads.clear();
            reads.extend(bundle.slots.iter().flat_map(phys_reads).map(|p| p.0));
            reads.sort_unstable();
            reads.dedup();
            reads.retain(|&reg| {
                matches!(last_write.get(usize::from(reg)), Some(Some(w)) if w.can_bind_at(index))
            });
            let rdcycle = bundle.slots.iter().any(|op| matches!(op, Op::RdCycle { .. }));
            if rdcycle || !reads.is_empty() {
                for &reg in &reads {
                    awaited[usize::from(reg)] = true;
                }
                stalls.push(Step::Stall { bundle: index, waits: reads.as_slice().into(), rdcycle });
            }
            // Written after the bundle's waits are taken: a write earlier in
            // the same bundle does not satisfy a read in it.
            for op in &bundle.slots {
                let latency = match op {
                    Op::Alu { op, .. } => Some(alu_latency(*op)),
                    Op::Load { .. } => None,
                    _ => Some(1),
                };
                if let Some(dst) = op.dst() {
                    last_write[dst.index()] = Some(Write { bundle: index, latency });
                }
            }
        }
        let widest = bundles.iter().map(|bundle| bundle.slots.len()).max().unwrap_or(0);
        let mut steps = Vec::with_capacity(ops().count() + stalls.len());
        let mut stalls = stalls.into_iter().peekable();
        for (index, bundle) in (0..).zip(bundles) {
            steps.extend(stalls.next_if(|stall| stall.bundle() == index));
            steps.extend(bundle.slots.into_iter().map(|op| {
                let awaited = op.dst().is_some_and(|dst| awaited[dst.index()]);
                Step::Exec { op, bundle: index, awaited }
            }));
        }
        TranslatedBlock {
            entry_pc,
            steps,
            bundle_count,
            widest,
            phys_reg_count,
            recovery,
            guest_inst_count,
        }
    }

    /// The scheduled bundles, in order, each as a view of its slots.
    pub fn bundles(&self) -> impl ExactSizeIterator<Item = BundleSlots<'_>> {
        let mut rest = self.steps.as_slice();
        (0..self.bundle_count).map(move |bundle| {
            let len = rest.iter().take_while(|step| step.bundle() == bundle).count();
            let (steps, tail) = rest.split_at(len);
            rest = tail;
            BundleSlots { steps }
        })
    }

    /// The steps a core of `issue_width` runs, and the first bundle too
    /// wide for it, if any, with its slot count: the steps then end where
    /// that bundle begins.
    pub(crate) fn steps_within(&self, issue_width: usize) -> (&[Step], Option<(u32, usize)>) {
        if self.widest <= issue_width {
            return (&self.steps, None);
        }
        let (bundle, slots) = (0..)
            .zip(self.bundles())
            .find(|(_, slots)| slots.len() > issue_width)
            .map(|(bundle, slots)| (bundle, slots.len()))
            .expect("the widest bundle is too wide");
        let end = self.steps.iter().position(|step| step.bundle() == bundle).expect("it has slots");
        (&self.steps[..end], Some((bundle, slots)))
    }

    /// Every operation, bundle after bundle, in slot order.
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.steps.iter().filter_map(Step::op)
    }

    /// Total number of operations across all bundles (excluding nops).
    pub fn op_count(&self) -> usize {
        self.ops().filter(|op| !matches!(op, Op::Nop)).count()
    }

    /// Number of speculative loads in the scheduled code.
    pub fn speculative_load_count(&self) -> usize {
        self.ops().filter(|op| matches!(op, Op::Load { speculative: true, .. })).count()
    }
}

/// The slots of one bundle of a [`TranslatedBlock`], as
/// [`TranslatedBlock::bundles`] yields them.
#[derive(Debug, Clone, Copy)]
pub struct BundleSlots<'a> {
    /// The bundle's steps: its stall check, if any, then its slots.
    steps: &'a [Step],
}

impl<'a> BundleSlots<'a> {
    /// The operations, in slot order, nops included.
    pub fn iter(&self) -> impl Iterator<Item = &'a Op> {
        self.steps.iter().filter_map(Step::op)
    }

    /// Number of slots, nops included.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the bundle has no slots.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl fmt::Display for BundleSlots<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ ")?;
        for (i, op) in self.iter().enumerate() {
            if i > 0 {
                write!(f, " ; ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, " }}")
    }
}

impl fmt::Display for TranslatedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "translated block @{:#x} ({} bundles):", self.entry_pc, self.bundle_count)?;
        for (i, bundle) in self.bundles().enumerate() {
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

    fn p(index: u16) -> Operand {
        Operand::Phys(PhysReg(index))
    }

    fn alu(op: AluOp, dst: u16, a: Operand) -> Op {
        Op::Alu { op, dst: PhysReg(dst), a, b: Operand::Imm(1) }
    }

    fn load(dst: u16) -> Op {
        Op::Load {
            width: AccessWidth::DOUBLE,
            dst: PhysReg(dst),
            base: Operand::Imm(0x100),
            offset: 0,
            speculative: false,
            original_seq: 0,
        }
    }

    fn commit(src: Operand) -> Op {
        Op::CommitReg { reg: Reg::A0, src }
    }

    /// A block of `slots`, one bundle per inner vector.
    fn block(slots: Vec<Vec<Op>>) -> TranslatedBlock {
        let bundles = slots.into_iter().map(|slots| Bundle { slots }).collect();
        TranslatedBlock::new(0, bundles, 16, vec![], 1)
    }

    /// A block of `first`, then a commit of register `reg` in bundle `at`
    /// for each `(at, reg)` of `reads`, with empty bundles in between.
    fn with_reads(first: Vec<Op>, reads: &[(usize, u16)]) -> TranslatedBlock {
        let last = reads.iter().map(|&(at, _)| at).max().unwrap_or(0);
        let mut slots = vec![vec![]; last + 1];
        slots[0] = first;
        for &(at, reg) in reads {
            slots[at].push(commit(p(reg)));
        }
        block(slots)
    }

    /// The stall steps: bundle, kept waits and whether it reads the cycle
    /// counter.
    fn stalls(block: &TranslatedBlock) -> Vec<(u32, Vec<u16>, bool)> {
        block
            .steps
            .iter()
            .filter_map(|step| match step {
                Step::Stall { bundle, waits, rdcycle } => Some((*bundle, waits.to_vec(), *rdcycle)),
                Step::Exec { .. } => None,
            })
            .collect()
    }

    /// The bundle and destination of every slot marked awaited.
    fn awaited(block: &TranslatedBlock) -> Vec<(u32, u16)> {
        block
            .steps
            .iter()
            .filter_map(|step| match step {
                Step::Exec { op, bundle, awaited: true } => Some((*bundle, op.dst()?.0)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn stall_steps_hold_each_bundles_binding_reads_once() {
        let block = block(vec![
            vec![Op::RdCycle { dst: PhysReg(0) }, Op::Nop],
            vec![
                Op::Alu { op: AluOp::Mul, dst: PhysReg(2), a: p(1), b: p(0) },
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
            vec![Op::CommitReg { reg: Reg::A2, src: p(2) }, Op::JumpIndirect { target: p(2) }],
        ]);
        // Bundle 1 reads p0 a bundle after the `rdcycle` that wrote it and
        // p1 that nothing wrote: neither wait can bind.
        assert_eq!(stalls(&block), [(0, vec![], true), (2, vec![2], false)]);
        assert_eq!(awaited(&block), [(1, 2)]);
    }

    #[test]
    fn an_alu_result_read_at_least_its_latency_later_is_not_awaited() {
        let first = vec![
            alu(AluOp::Add, 0, Operand::Imm(1)),
            alu(AluOp::Mul, 1, Operand::Imm(1)),
            alu(AluOp::Div, 2, Operand::Imm(1)),
            alu(AluOp::Remu, 3, Operand::Imm(1)),
        ];
        let block = with_reads(first, &[(1, 0), (3, 1), (12, 2), (20, 3)]);
        assert_eq!(stalls(&block), []);
        assert_eq!(awaited(&block), []);
    }

    #[test]
    fn slow_alu_results_read_too_soon_are_awaited() {
        let first = vec![alu(AluOp::Mulh, 0, Operand::Imm(1)), alu(AluOp::Div, 1, Operand::Imm(1))];
        let block = with_reads(first, &[(1, 0), (2, 0), (3, 0), (11, 1), (12, 1)]);
        assert_eq!(
            stalls(&block),
            [(1, vec![0], false), (2, vec![0], false), (11, vec![1], false)]
        );
        assert_eq!(awaited(&block), [(0, 0), (0, 1)]);
    }

    #[test]
    fn loads_are_awaited_at_any_distance() {
        let block = with_reads(vec![load(0)], &[(1, 0), (40, 0)]);
        assert_eq!(stalls(&block), [(1, vec![0], false), (40, vec![0], false)]);
        assert_eq!(awaited(&block), [(0, 0)]);
    }

    #[test]
    fn registers_without_an_earlier_writer_are_not_awaited() {
        // p5 is never written; p6 only after its first read.
        let block = block(vec![vec![commit(p(5)), commit(p(6))], vec![load(6)], vec![Op::Halt]]);
        assert_eq!(stalls(&block), []);
        assert_eq!(awaited(&block), []);
    }

    #[test]
    fn a_write_earlier_in_the_same_bundle_does_not_satisfy_a_wait() {
        let block = block(vec![
            vec![load(0), alu(AluOp::Mul, 1, Operand::Imm(2))],
            vec![
                alu(AluOp::Add, 0, Operand::Imm(1)),
                alu(AluOp::Add, 1, Operand::Imm(1)),
                alu(AluOp::Add, 2, Operand::Imm(1)),
                commit(p(0)),
                commit(p(1)),
                commit(p(2)),
            ],
        ]);
        // The waits are on the load and the multiply of bundle 0; p2 has no
        // earlier writer at all.
        assert_eq!(stalls(&block), [(1, vec![0, 1], false)]);
        // Every write to an awaited register records its ready time.
        assert_eq!(awaited(&block), [(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn rdcycle_alone_makes_a_stall_step() {
        let block = block(vec![
            vec![Op::RdCycle { dst: PhysReg(0) }],
            vec![alu(AluOp::Add, 1, p(0)), Op::RdCycle { dst: PhysReg(2) }],
            vec![Op::Halt],
        ]);
        assert_eq!(stalls(&block), [(0, vec![], true), (1, vec![], true)]);
        assert_eq!(awaited(&block), []);
    }

    #[test]
    fn only_registers_a_kept_wait_names_are_awaited() {
        let block = block(vec![
            vec![load(0), load(1), alu(AluOp::Mul, 2, Operand::Imm(3))],
            vec![commit(p(0))],
            vec![Op::RdCycle { dst: PhysReg(3) }, alu(AluOp::Div, 4, Operand::Imm(3))],
            vec![commit(p(2)), commit(p(3))],
            vec![Op::Halt],
        ]);
        // p1 is never read, p2 and p3 are read once they are ready and p4
        // is never read: only p0 is awaited.
        assert_eq!(stalls(&block), [(1, vec![0], false), (2, vec![], true)]);
        assert_eq!(awaited(&block), [(0, 0)]);
    }

    #[test]
    fn bundles_view_the_input_exactly() {
        let input = vec![
            vec![load(0), Op::Nop],
            vec![],
            vec![commit(p(0)), Op::Fence, Op::Nop],
            vec![Op::RdCycle { dst: PhysReg(1) }],
            vec![Op::Halt],
            vec![],
        ];
        let block = block(input.clone());
        let views: Vec<Vec<Op>> = block.bundles().map(|b| b.iter().cloned().collect()).collect();
        assert_eq!(views, input);
        assert_eq!(block.bundles().len(), 6);
        assert_eq!(block.bundles().map(|b| b.len()).collect::<Vec<_>>(), [2, 0, 3, 1, 1, 0]);
        assert_eq!(block.widest, 3);
        assert_eq!(block.op_count(), 5);
        let text = block.to_string();
        assert!(text.starts_with("translated block @0x0 (6 bundles):\n"), "{text}");
        assert!(text.contains("  c  1: {  }\n"), "{text}");
        assert!(text.contains("  c  2: { commit $a0 <- p0 ; fence ; nop }\n"), "{text}");
    }
}
