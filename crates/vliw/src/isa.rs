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
    /// One slot of bundle `bundle` other than a commit, in slot order.
    Exec {
        /// The operation.
        op: Op,
        /// The bundle.
        bundle: u32,
        /// How many commits come before the slot.
        lifted: u16,
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

/// A register commit lifted out of a block's steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Commit {
    /// The source operand.
    pub(crate) src: Operand,
    /// The architectural register written.
    pub(crate) reg: Reg,
    /// The bundle it was scheduled in.
    pub(crate) bundle: u32,
}

impl Commit {
    /// The commit as the operation it was lifted from.
    fn op(&self) -> Op {
        Op::CommitReg { reg: self.reg, src: self.src }
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
/// a kept wait names are marked, and only they record ready times.
///
/// Register commits are lifted out of the steps into a list of their own,
/// in slot order. [`TranslatedBlock::new`] requires that no operand reads
/// an architectural register after a commit to it and that no commit's
/// physical source is written after the commit, so every commit reads what
/// it would have read in its slot, and the core applies them only where
/// the block leaves: at a taken side exit or a terminator, the last commit
/// to each register before it; on a fault, every commit before it; on a
/// rollback, none. Code generation meets both conditions by construction:
/// each IR value gets a physical register of its own, and the dependency
/// graph orders every read of a guest register's entry value before that
/// register's next commit. The [`core`](crate::core) module docs explain
/// why cycle counts, statistics, phase attribution and the architectural
/// state at every exit stay what a per-slot scan gives. The lowered form is
/// read-only once built, so it cannot go stale; [`TranslatedBlock::bundles`]
/// views it as the bundles it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatedBlock {
    /// Guest address this block translates.
    pub entry_pc: u64,
    /// The scheduled bundles, lowered.
    pub(crate) steps: Vec<Step>,
    /// The commits, in slot order.
    pub(crate) commits: Vec<Commit>,
    /// The live commits at each exit, as indices into `commits`: the last
    /// commit to each register before the exit, in slot order.
    live: Vec<u16>,
    /// Where in `live` the list of an exit after `k` commits starts (entry
    /// `k`) and ends (entry `k + 1`). The list depends only on `k`.
    live_start: Vec<u32>,
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

/// The operands `op` reads.
fn operands(op: &Op) -> impl Iterator<Item = Operand> {
    let (a, b) = match op {
        Op::Alu { a, b, .. } | Op::SideExit { a, b, .. } => (Some(*a), Some(*b)),
        Op::Store { value, base, .. } => (Some(*value), Some(*base)),
        Op::Load { base, .. } | Op::CacheFlush { base, .. } => (Some(*base), None),
        Op::CommitReg { src, .. } => (Some(*src), None),
        Op::JumpIndirect { target } => (Some(*target), None),
        Op::Nop | Op::Jump { .. } | Op::Halt | Op::Fence | Op::RdCycle { .. } => (None, None),
    };
    a.into_iter().chain(b)
}

/// The physical registers `op` reads.
fn phys_reads(op: &Op) -> impl Iterator<Item = PhysReg> {
    operands(op).filter_map(|operand| match operand {
        Operand::Phys(p) => Some(p),
        Operand::Arch(_) | Operand::Imm(_) => None,
    })
}

/// Counts the commits `ops` (a block's slots, in order) hold, checking the
/// preconditions of [`TranslatedBlock::new`] on the way. `regs` bounds the
/// physical registers written.
fn count_commits<'a>(ops: impl Iterator<Item = &'a Op>, regs: usize) -> usize {
    // Architectural registers committed so far, one bit each.
    let mut committed = 0u32;
    // Physical registers some commit so far reads.
    let mut sources = vec![false; regs];
    let mut commits = 0;
    for op in ops {
        for operand in operands(op) {
            if let Operand::Arch(reg) = operand {
                assert!(committed >> reg.index() & 1 == 0, "`{op}` reads ${reg} after its commit");
            }
        }
        if let Some(dst) = op.dst() {
            assert!(!sources[dst.index()], "`{op}` writes {dst} after a commit reads it");
        }
        if let Op::CommitReg { reg, src } = op {
            committed |= 1 << reg.index();
            // A register nothing writes cannot be written after the commit.
            if let Operand::Phys(p) = src {
                if let Some(source) = sources.get_mut(p.index()) {
                    *source = true;
                }
            }
            commits += 1;
        }
    }
    assert!(commits <= usize::from(u16::MAX), "{commits} commits, more than a step can count");
    commits
}

/// Whether `op` can end a block's execution where it stands: a side exit
/// or a terminator.
fn is_exit(op: &Op) -> bool {
    matches!(op, Op::SideExit { .. }) || op.is_terminator()
}

/// The live lists of a block's exits, flat, and where each starts. For
/// each `k` with `exits_after[k]`, the list holds the index of the last of
/// `commits[..k]` to each register, ascending; entry `k` of the starts is
/// where that list begins, entry `k + 1` where it ends.
fn live_lists(commits: &[Commit], exits_after: &[bool]) -> (Vec<u16>, Vec<u32>) {
    let mut last = [None; Reg::COUNT];
    let mut live = Vec::new();
    let mut live_start = Vec::with_capacity(exits_after.len() + 1);
    let end = |live: &Vec<u16>| u32::try_from(live.len()).expect("2^16 lists of 32 at most");
    for (k, &exit) in exits_after.iter().enumerate() {
        live_start.push(end(&live));
        if exit {
            let start = live.len();
            live.extend(last.iter().flatten());
            live[start..].sort_unstable();
        }
        if let Some(commit) = commits.get(k) {
            let k = u16::try_from(k).expect("at most `u16::MAX` commits");
            last[usize::from(commit.reg.index())] = Some(k);
        }
    }
    live_start.push(end(&live));
    (live, live_start)
}

/// Where a core stops walking a block with a bundle wider than it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TooWide {
    /// The first bundle too wide.
    pub(crate) bundle: u32,
    /// Its slots.
    pub(crate) slots: usize,
    /// The commits in the bundles before it.
    pub(crate) lifted: usize,
}

impl TranslatedBlock {
    /// Builds a block, lowering `bundles` into its steps and lifting its
    /// commits out of them.
    ///
    /// # Panics
    ///
    /// Panics unless the bundles' slots, in order, meet the conditions for
    /// lifting their commits:
    ///
    /// * no operand reads an architectural register after a commit to it;
    /// * no commit's physical source is written after the commit;
    /// * they hold at most `u16::MAX` commits.
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
        let commit_count = count_commits(ops(), regs);
        let mut steps = Vec::with_capacity(ops().count() - commit_count + stalls.len());
        let mut commits = Vec::with_capacity(commit_count);
        // Whether some exit comes after exactly `k` commits, by `k`.
        let mut exits_after = vec![false; commit_count + 1];
        let mut stalls = stalls.into_iter().peekable();
        for (index, bundle) in (0..).zip(bundles) {
            steps.extend(stalls.next_if(|stall| stall.bundle() == index));
            for op in bundle.slots {
                match op {
                    Op::CommitReg { reg, src } => commits.push(Commit { src, reg, bundle: index }),
                    op => {
                        exits_after[commits.len()] |= is_exit(&op);
                        let awaited = op.dst().is_some_and(|dst| awaited[dst.index()]);
                        let lifted = u16::try_from(commits.len())
                            .expect("`count_commits` allows at most `u16::MAX` commits");
                        steps.push(Step::Exec { op, bundle: index, lifted, awaited });
                    }
                }
            }
        }
        let (live, live_start) = live_lists(&commits, &exits_after);
        TranslatedBlock {
            entry_pc,
            steps,
            commits,
            live,
            live_start,
            bundle_count,
            widest,
            phys_reg_count,
            recovery,
            guest_inst_count,
        }
    }

    /// The commits live at an exit after `lifted` commits: the last of them
    /// to each register, in slot order.
    pub(crate) fn live_commits(&self, lifted: u16) -> impl Iterator<Item = &Commit> {
        let k = usize::from(lifted);
        let list = &self.live[self.live_start[k] as usize..self.live_start[k + 1] as usize];
        list.iter().map(|&index| &self.commits[usize::from(index)])
    }

    /// The scheduled bundles, in order, each as a view of its slots, commits
    /// included.
    pub fn bundles(&self) -> impl ExactSizeIterator<Item = BundleSlots<'_>> {
        let (mut steps, mut commits) = (self.steps.as_slice(), self.commits.as_slice());
        let mut first_commit = 0;
        (0..self.bundle_count).map(move |bundle| {
            let len = steps.iter().take_while(|step| step.bundle() == bundle).count();
            let (own_steps, rest) = steps.split_at(len);
            steps = rest;
            let len = commits.iter().take_while(|commit| commit.bundle == bundle).count();
            let (own_commits, rest) = commits.split_at(len);
            commits = rest;
            let view = BundleSlots { steps: own_steps, commits: own_commits, first_commit };
            first_commit += len;
            view
        })
    }

    /// The steps a core of `issue_width` runs, and where it stops short if
    /// a bundle is too wide for it: the steps then end where that bundle
    /// begins.
    pub(crate) fn steps_within(&self, issue_width: usize) -> (&[Step], Option<TooWide>) {
        if self.widest <= issue_width {
            return (&self.steps, None);
        }
        let (bundle, slots) = (0..)
            .zip(self.bundles())
            .map(|(bundle, slots)| (bundle, slots.len()))
            .find(|&(_, slots)| slots > issue_width)
            .expect("the widest bundle is too wide");
        let end = self.steps.partition_point(|step| step.bundle() < bundle);
        let lifted = self.commits.partition_point(|commit| commit.bundle < bundle);
        (&self.steps[..end], Some(TooWide { bundle, slots, lifted }))
    }

    /// Every operation the steps hold, bundle after bundle, in slot order.
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.steps.iter().filter_map(Step::op)
    }

    /// Total number of operations across all bundles (excluding nops).
    pub fn op_count(&self) -> usize {
        self.ops().filter(|op| !matches!(op, Op::Nop)).count() + self.commits.len()
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
    /// The bundle's steps: its stall check, if any, then its other slots.
    steps: &'a [Step],
    /// The bundle's lifted commits.
    commits: &'a [Commit],
    /// The index of the first of them among the block's lifted commits.
    first_commit: usize,
}

impl<'a> BundleSlots<'a> {
    /// The operations, in slot order, nops included.
    pub fn iter(&self) -> impl Iterator<Item = Op> + 'a {
        let BundleSlots { steps, commits, first_commit } = *self;
        // A slot step comes after `lifted` commits, so the bundle's commits
        // up to that count go before it and the rest after its last step.
        let slots = steps.iter().filter_map(move |step| match step {
            Step::Exec { op, lifted, .. } => Some((op, usize::from(*lifted) - first_commit)),
            Step::Stall { .. } => None,
        });
        let mut next = 0;
        slots.map(Some).chain([None]).flat_map(move |slot| {
            let before = slot.map_or(commits.len(), |(_, lifted)| lifted);
            let lifted = commits[next..before].iter().map(Commit::op);
            next = before;
            lifted.chain(slot.map(|(op, _)| op.clone()))
        })
    }

    /// Number of slots, nops included.
    pub fn len(&self) -> usize {
        self.steps.iter().filter_map(Step::op).count() + self.commits.len()
    }

    /// Whether the bundle has no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    use crate::core::{BlockOutcome, CoreConfig, CoreError, VliwCore};
    use dbt_riscv::GuestMemory;

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
                Step::Exec { op, bundle, awaited: true, .. } => Some((*bundle, op.dst()?.0)),
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
        let block = block(vec![
            vec![commit(p(5)), alu(AluOp::Add, 7, p(6))],
            vec![load(6)],
            vec![Op::Halt],
        ]);
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
        let views: Vec<Vec<Op>> = block.bundles().map(|b| b.iter().collect()).collect();
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

    fn commit_to(reg: Reg, src: Operand) -> Op {
        Op::CommitReg { reg, src }
    }

    fn side_exit() -> Op {
        let (a, b) = (Operand::Imm(0), Operand::Imm(1));
        Op::SideExit { cond: BranchCond::Eq, a, b, target: 0x40 }
    }

    /// The commits live at each side exit or terminator, in step order.
    fn live_at_exits(block: &TranslatedBlock) -> Vec<Vec<Op>> {
        let exits = block.steps.iter().filter_map(|step| match step {
            Step::Exec { op, lifted, .. } if is_exit(op) => Some(*lifted),
            _ => None,
        });
        exits.map(|lifted| block.live_commits(lifted).map(Commit::op).collect()).collect()
    }

    /// Whether any step is a commit.
    fn commit_steps(block: &TranslatedBlock) -> bool {
        block.ops().any(|op| matches!(op, Op::CommitReg { .. }))
    }

    /// Runs `block` once on a core of `issue_width` whose `a1` holds 77
    /// and once on its reference, requires equal results, state and
    /// counters, and returns the core.
    fn run(
        block: &TranslatedBlock,
        issue_width: usize,
    ) -> (Result<BlockOutcome, CoreError>, VliwCore) {
        let config = CoreConfig { issue_width, ..CoreConfig::default() };
        let mut core = VliwCore::new(config, 0);
        core.arch_mut().set_reg(Reg::A1, 77);
        let (mut oracle, mut mem) = (core.clone(), GuestMemory::new(0x1000));
        let mut oracle_mem = mem.clone();
        let got = core.execute_block(block, &mut mem);
        assert_eq!(got, oracle.execute_block_reference(block, &mut oracle_mem));
        assert_eq!(core.arch(), oracle.arch());
        assert_eq!(core.stats(), oracle.stats());
        assert_eq!(core.profiler().phases, oracle.profiler().phases);
        assert!(mem == oracle_mem);
        (got, core)
    }

    #[test]
    fn an_exits_live_list_holds_the_last_commit_to_each_register_in_slot_order() {
        let a1 = Operand::Arch(Reg::A1);
        let block = block(vec![
            vec![alu(AluOp::Add, 0, Operand::Imm(1)), alu(AluOp::Add, 1, Operand::Imm(2))],
            vec![commit(p(0)), commit_to(Reg::A3, a1), commit_to(Reg::A1, Operand::Imm(5))],
            vec![commit(p(1)), side_exit(), commit_to(Reg::A2, p(0))],
            vec![side_exit(), commit_to(Reg::A1, Operand::Imm(7))],
            vec![commit(Operand::Imm(9)), Op::Halt],
        ]);
        assert!(!commit_steps(&block));
        assert_eq!(block.commits.len(), 7);
        let first = vec![commit_to(Reg::A3, a1), commit_to(Reg::A1, Operand::Imm(5)), commit(p(1))];
        let second = [first.clone(), vec![commit_to(Reg::A2, p(0))]].concat();
        let last = vec![
            commit_to(Reg::A3, a1),
            commit_to(Reg::A2, p(0)),
            commit_to(Reg::A1, Operand::Imm(7)),
            commit(Operand::Imm(9)),
        ];
        assert_eq!(live_at_exits(&block), [first, second, last]);
        // a3 reads a1 before either commit to a1 reaches the state.
        let (_, core) = run(&block, 4);
        let arch = core.arch();
        let regs = [Reg::A0, Reg::A1, Reg::A2, Reg::A3].map(|reg| arch.reg(reg));
        assert_eq!(regs, [9, 7, 2, 77]);
    }

    /// A commit to a0, then a halt, with a load of `[$a0]` into a register
    /// no commit reads (like a load into `x0`) first in bundle `at`.
    fn read_a0(at: usize) -> TranslatedBlock {
        let mut slots = vec![vec![commit_to(Reg::A0, Operand::Imm(1))], vec![Op::Halt]];
        slots[at].insert(0, load(0));
        if let Op::Load { base, .. } = &mut slots[at][0] {
            *base = Operand::Arch(Reg::A0);
        }
        block(slots)
    }

    /// `count` commits to a0, then a halt, in one bundle.
    fn commits(count: usize) -> TranslatedBlock {
        let mut slots = vec![commit(Operand::Imm(1)); count];
        slots.push(Op::Halt);
        block(vec![slots])
    }

    #[test]
    fn blocks_that_meet_the_lift_conditions_run_like_the_reference() {
        // A load reads a0 before its commit.
        assert_eq!(run(&read_a0(0), 4).1.arch().reg(Reg::A0), 1);
        // An operand reads a register no commit writes.
        let other = block(vec![
            vec![commit_to(Reg::A0, Operand::Imm(1))],
            vec![alu(AluOp::Add, 0, Operand::Arch(Reg::A1)), Op::Halt],
        ]);
        assert!(run(&other, 4).0.is_ok());
        // A commit's source is written twice before the commit, never after.
        let before = block(vec![
            vec![alu(AluOp::Add, 0, Operand::Imm(1))],
            vec![alu(AluOp::Add, 0, Operand::Imm(2))],
            vec![commit(p(0)), Op::Halt],
        ]);
        let (_, core) = run(&before, 4);
        assert_eq!(core.arch().reg(Reg::A0), 3);
        // As many commits as a step can count.
        assert_eq!(commits(usize::from(u16::MAX)).commits.len(), usize::from(u16::MAX));
    }

    #[test]
    #[should_panic(expected = "`p0 = load.8 $a0+0` reads $a0 after its commit")]
    fn a_read_of_a_register_after_its_commit_panics() {
        read_a0(1);
    }

    #[test]
    #[should_panic(expected = "`p0 = load.8 256+0` writes p0 after a commit reads it")]
    fn a_physical_source_written_after_its_commit_panics() {
        // Later in the same bundle counts as after.
        block(vec![vec![commit(p(0)), load(0)], vec![Op::Halt]]);
    }

    #[test]
    #[should_panic(expected = "65536 commits, more than a step can count")]
    fn more_commits_than_a_step_can_count_panic() {
        commits(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn lifted_commits_count_into_ops_executed() {
        let slots = |exit: i64| {
            vec![
                vec![alu(AluOp::Add, 0, Operand::Imm(1)), commit(p(0)), Op::Nop, Op::Fence],
                vec![commit_to(Reg::A1, Operand::Imm(3)), commit(Operand::Imm(4))],
                vec![Op::SideExit {
                    cond: BranchCond::Eq,
                    a: Operand::Imm(0),
                    b: Operand::Imm(exit),
                    target: 0x40,
                }],
                vec![commit_to(Reg::A2, p(0)), Op::Jump { target: 0x80 }],
            ]
        };
        // Taken: the add, three commits and the exit.
        let (outcome, core) = run(&block(slots(0)), 4);
        assert_eq!(outcome.unwrap().next_pc, Some(0x40));
        assert_eq!(core.stats().ops_executed, 5);
        assert_eq!((core.arch().reg(Reg::A0), core.arch().reg(Reg::A1)), (4, 3));
        assert_eq!(core.arch().reg(Reg::A2), 0);
        // Not taken: two more.
        let (outcome, core) = run(&block(slots(1)), 4);
        assert_eq!(outcome.unwrap().next_pc, Some(0x80));
        assert_eq!(core.stats().ops_executed, 7);
        assert_eq!(core.arch().reg(Reg::A2), 2);
    }

    #[test]
    fn a_fault_applies_every_earlier_lifted_commit() {
        let mut faulting = load(1);
        if let Op::Load { base, .. } = &mut faulting {
            *base = Operand::Imm(0x2000);
        }
        let block = block(vec![
            vec![alu(AluOp::Add, 0, Operand::Imm(5)), commit(Operand::Imm(1))],
            vec![commit(p(0)), commit_to(Reg::A1, Operand::Imm(2))],
            vec![commit_to(Reg::A1, Operand::Imm(3)), faulting, commit_to(Reg::A2, p(0))],
            vec![Op::Halt],
        ]);
        let (outcome, core) = run(&block, 4);
        assert_eq!(outcome, Err(CoreError::MemFault { addr: 0x2000, bytes: 8 }));
        let arch = core.arch();
        assert_eq!((arch.reg(Reg::A0), arch.reg(Reg::A1), arch.reg(Reg::A2)), (6, 3, 0));
        assert_eq!(core.stats().ops_executed, 6);
    }

    #[test]
    fn a_rollback_restores_the_entry_state_without_a_snapshot() {
        let width = AccessWidth::DOUBLE;
        let (base, value) = (Operand::Imm(0x800), Operand::Imm(222));
        let spec = Op::Load {
            width,
            dst: PhysReg(0),
            base,
            offset: 0,
            speculative: true,
            original_seq: 2,
        };
        let store =
            |checks_mcb| Op::Store { width, value, base, offset: 0, checks_mcb, original_seq: 1 };
        let block = TranslatedBlock::new(
            0,
            vec![
                Bundle { slots: vec![spec.clone(), commit_to(Reg::A1, Operand::Imm(5))] },
                Bundle { slots: vec![commit(Operand::Imm(6)), store(true)] },
                Bundle { slots: vec![commit(p(0)), Op::Halt] },
            ],
            1,
            vec![store(false), commit(Operand::Imm(9)), Op::Halt],
            2,
        );
        let (outcome, core) = run(&block, 4);
        assert!(outcome.unwrap().rolled_back);
        // The two commits before the store never reached the state; the
        // recovery code's commit did.
        assert_eq!((core.arch().reg(Reg::A0), core.arch().reg(Reg::A1)), (9, 77));
        assert_eq!(core.stats().ops_executed, 4);
    }

    #[test]
    fn a_too_wide_bundle_of_lifted_commits_ends_the_walk_where_it_begins() {
        let block = block(vec![
            vec![alu(AluOp::Add, 0, Operand::Imm(1)), commit(p(0))],
            vec![
                commit_to(Reg::A1, Operand::Imm(1)),
                commit_to(Reg::A2, Operand::Imm(2)),
                commit_to(Reg::A3, Operand::Imm(3)),
            ],
            vec![Op::Halt],
        ]);
        let (steps, too_wide) = block.steps_within(2);
        assert_eq!(steps.len(), 1, "only the add runs");
        assert_eq!(too_wide, Some(TooWide { bundle: 1, slots: 3, lifted: 1 }));
        let (outcome, core) = run(&block, 2);
        assert_eq!(outcome, Err(CoreError::IssueWidthExceeded { entry_pc: 0, slots: 3 }));
        assert_eq!((core.arch().reg(Reg::A0), core.arch().reg(Reg::A2)), (2, 0));
        assert_eq!((core.stats().ops_executed, core.stats().bundles_issued), (2, 1));
    }

    #[test]
    fn bundles_view_lifted_commits_in_their_slots() {
        let input = vec![
            vec![commit(Operand::Imm(1)), load(0), commit_to(Reg::A1, p(0))],
            vec![commit_to(Reg::A2, Operand::Imm(2)), commit_to(Reg::A3, Operand::Imm(3))],
            vec![],
            vec![Op::Nop, commit(p(0)), side_exit(), Op::Fence, commit(Operand::Imm(4))],
            vec![Op::Halt, commit_to(Reg::A2, Operand::Imm(5))],
        ];
        let block = block(input.clone());
        assert_eq!(block.commits.len(), 7);
        let views: Vec<Vec<Op>> = block.bundles().map(|b| b.iter().collect()).collect();
        assert_eq!(views, input);
        let lens: Vec<usize> = block.bundles().map(|b| b.len()).collect();
        assert_eq!(lens, input.iter().map(Vec::len).collect::<Vec<_>>());
        assert_eq!(block.op_count(), input.iter().flatten().filter(|op| **op != Op::Nop).count());
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_step_takes_56_bytes() {
        assert_eq!(std::mem::size_of::<Step>(), 56);
        assert_eq!(std::mem::size_of::<Commit>(), 24);
    }
}
