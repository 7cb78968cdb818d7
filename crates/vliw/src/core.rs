//! The in-order VLIW core.
//!
//! The core executes [`TranslatedBlock`]s bundle by bundle. Timing follows a
//! simple scoreboarded in-order model:
//!
//! * one bundle issues per cycle, but a bundle whose operands are not ready
//!   (typically because they come from an outstanding load) stalls until
//!   they are;
//! * load results become available after the data-cache latency (hit or
//!   miss);
//! * `rdcycle` waits for all outstanding memory accesses, like the
//!   serialising CSR read of the real core.
//!
//! Speculation support is limited to the two mechanisms the paper
//! describes: results of operations hoisted above a side exit live in
//! physical (hidden) registers and are dropped when the exit is taken, and
//! speculative loads are checked by the [`MemoryConflictBuffer`]; a conflict
//! rolls the block back and re-executes its sequential recovery code.
//! In both cases the data cache keeps whatever lines the misspeculated
//! accesses fetched — the micro-architectural trace the attacks exploit.
//!
//! # The lowered form
//!
//! Which operands a bundle waits on depends only on the code, so
//! [`TranslatedBlock::new`] decides once per block where timing work is
//! needed. It lowers the bundles into one flat list of steps: every slot
//! but a register commit, which it lifts out (see below), becomes an
//! `Exec` step, and a bundle that can issue late gets a `Stall` step
//! before its slots. That step lists the physical registers whose wait can
//! bind, commits' reads included, and says whether the bundle reads the
//! cycle counter.
//!
//! The core walks the steps once. Bundle `b` issues at cycle `b + delay`,
//! where `delay` sums the stall cycles so far, and only a `Stall` step
//! changes it. Such a step folds two ready-time arrays over its waits: one
//! for values produced by an ALU operation, an `rdcycle` or a squashed
//! load, one for values produced by a load. A register's entry in the
//! array that does not match its producer is 0. An `rdcycle` also waits
//! for every outstanding memory access. The bundle issues at the latest of
//! those deadlines and the cycle after its predecessor issued.
//!
//! A dropped wait cannot bind:
//!
//! * a register with no earlier writer in the block is ready at cycle 0;
//! * a value whose last earlier writer is an ALU operation or an `rdcycle`
//!   issued at `t_j` in bundle `j` is ready at `t_j + latency`, and bundle
//!   `i` issues no earlier than `t_j + (i - j)`, because each bundle issues
//!   at least a cycle after the one before it. The wait is dropped only
//!   when `i - j >= latency`.
//!
//! Loads keep every wait, because hit or miss is decided at run time. A
//! write earlier in the same bundle does not count: the bundle's waits are
//! taken before any of its slots runs. Only slots whose destination some
//! kept wait names (`awaited`) record ready times. Every write to such a
//! register records one, so a kept wait reads what its last earlier writer
//! recorded, and no other register's ready time is ever read. The
//! scheduler places each consumer of an ALU result at least
//! [`alu_latency`] bundles after it, so in scheduled code only memory
//! waits are kept.
//!
//! The profiler charges the stall up to the ALU deadline to the issue
//! phase and the rest to the execute phase. Those two deadlines are the
//! ones the per-slot scan it replaced computes (kept for tests as
//! `VliwCore::execute_block_reference`): `max` commutes, neither a 0 entry
//! nor a dropped wait raises a deadline, and no memory access completes
//! while a bundle's waits are folded.
//!
//! Bundles issued, fetch cycles, stall cycles and operations executed are
//! added once, where the block exits, and equal the per-bundle sums the
//! scan adds. A taken side exit, a terminator, a rollback or a fault in
//! bundle `b` exits after bundles `0..=b` issued, each after the first one
//! fetch cycle behind its predecessor. Every step up to the exiting one
//! that is neither a stall check, a nop nor a fence executed an operation,
//! and so did every commit before it (each slot step records how many come
//! before it). A too-wide bundle `b` ends the walk where it begins, after
//! `b` bundles and the commits in them, even when it holds nothing but
//! commits; a block without a terminator issues
//! all of its bundles and all of its commits. So every cycle count,
//! statistic and phase attribution is unchanged.
//!
//! # Lifted commits
//!
//! A commit only writes a guest register, and until the block leaves,
//! only the block's own operands can read one. So [`TranslatedBlock::new`]
//! moves the commits out of the steps into a list in slot order. It
//! requires two conditions, and panics if either fails: no operand reads a
//! guest register after a commit to it (in slot order), and no commit's
//! physical source is written after the commit. Then every operand reads
//! the entry value of every guest
//! register, as it would in its slot, and every commit's source holds at
//! any later point the value it held in the commit's slot. Applying the
//! commits that precede an exit, in slot order, therefore leaves the state
//! the per-slot scan leaves there; a commit to a register that a later one
//! before the same exit overwrites changes nothing, so each side exit and
//! terminator applies only its live list, the last commit to each
//! register. A fault applies every commit before it, in order, and so does
//! a too-wide bundle or a missing terminator. A rollback applies none: the
//! architectural state is still the entry state, so no block needs a copy
//! of it.
//!
//! Code generation meets both conditions by construction. Each IR value
//! gets its own physical register, so nothing rewrites a commit's source.
//! An IR block never reads a guest register's entry value after
//! committing that register (`IrBlock::validate` rejects it), and the
//! dependency graph orders every such read before the register's next
//! commit. That edge matters for an instruction that commits nothing,
//! such as the cache-touching load `ld x0, 0(a1)`: nothing else orders
//! its read of `$a1` before a later `commit $a1`, and placed after the
//! commit, it would access the new address.

use crate::isa::{alu_latency, AccessWidth, Commit, Op, Operand, Step, TooWide, TranslatedBlock};
use crate::mcb::MemoryConflictBuffer;
use crate::regfile::ArchState;
use crate::stats::CoreStats;
use dbt_cache::{CacheConfig, DataCache};
use dbt_obs::{Phase, Profiler};
use dbt_riscv::GuestMemory;
#[cfg(test)]
use dbt_riscv::{inst::AluOp, Reg};
use std::fmt;

/// Configuration of the VLIW core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Maximum operations per bundle (checked when executing).
    pub issue_width: usize,
    /// Capacity of the Memory Conflict Buffer.
    pub mcb_capacity: usize,
    /// Fixed penalty, in cycles, charged when a memory conflict forces a
    /// rollback (pipeline flush + recovery dispatch).
    pub rollback_penalty: u64,
    /// Data-cache configuration.
    pub cache: CacheConfig,
}

impl CoreConfig {
    /// A 4-wide core with a 16-entry MCB and the default cache.
    pub fn new() -> CoreConfig {
        CoreConfig {
            issue_width: 4,
            mcb_capacity: 16,
            rollback_penalty: 24,
            cache: CacheConfig::default(),
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::new()
    }
}

/// Why executing a block failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A non-speculative memory access touched an address outside guest
    /// memory.
    MemFault {
        /// Faulting guest address.
        addr: u64,
        /// Size of the access.
        bytes: u8,
    },
    /// The block ran out of bundles without reaching a terminator.
    MissingTerminator {
        /// Entry PC of the offending block.
        entry_pc: u64,
    },
    /// A bundle exceeds the configured issue width.
    IssueWidthExceeded {
        /// Entry PC of the offending block.
        entry_pc: u64,
        /// Number of slots in the offending bundle.
        slots: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MemFault { addr, bytes } => {
                write!(f, "memory fault: {bytes}-byte access at {addr:#x}")
            }
            CoreError::MissingTerminator { entry_pc } => {
                write!(f, "translated block at {entry_pc:#x} has no terminator")
            }
            CoreError::IssueWidthExceeded { entry_pc, slots } => {
                write!(f, "bundle with {slots} slots in block at {entry_pc:#x} exceeds issue width")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Result of executing one translated block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOutcome {
    /// Guest address to continue at, or `None` if the program halted.
    pub next_pc: Option<u64>,
    /// Cycles spent in the block (including any rollback and recovery).
    pub cycles: u64,
    /// Whether a Memory Conflict Buffer rollback occurred.
    pub rolled_back: bool,
}

/// The in-order VLIW core with its data cache, MCB and architectural state.
#[derive(Debug, Clone)]
pub struct VliwCore {
    config: CoreConfig,
    arch: ArchState,
    dcache: DataCache,
    mcb: MemoryConflictBuffer,
    cycles: u64,
    stats: CoreStats,
    profiler: Profiler,
    scratch: Scratch,
}

/// The per-block register file and ready times, kept across blocks so
/// executing one allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Physical register values.
    phys: Vec<u64>,
    /// Ready cycle of each register an ALU operation (or a squashed load)
    /// wrote; 0 where a load wrote.
    ready_alu: Vec<u64>,
    /// Ready cycle of each register a load wrote; 0 elsewhere.
    ready_mem: Vec<u64>,
}

impl Scratch {
    /// Zero-fills all three at `len` registers, as fresh vectors would be.
    fn reset(&mut self, len: usize) {
        for values in [&mut self.phys, &mut self.ready_alu, &mut self.ready_mem] {
            values.clear();
            values.resize(len, 0);
        }
    }
}

/// How a block's execution ends at the operation it reached.
enum Exit {
    /// A terminator or a taken side exit (a mispredict).
    Leave { next_pc: Option<u64>, mispredict: bool },
    /// A checked store hit the Memory Conflict Buffer.
    Rollback,
    /// A non-speculative access faulted.
    Fault(CoreError),
}

/// Folds one operand's readiness into the bundle's stall deadlines:
/// memory-produced operands raise the memory deadline (`t_mem`, charged
/// to the execute phase), everything else raises the scoreboard deadline
/// (`t_alu`, charged to the issue phase).
#[cfg(any(test, debug_assertions))]
fn wait_operand(
    ready: &[u64],
    from_mem: &[bool],
    operand: Operand,
    t_alu: &mut u64,
    t_mem: &mut u64,
) {
    if let Operand::Phys(p) = operand {
        let i = p.index();
        let deadline = if from_mem[i] { t_mem } else { t_alu };
        *deadline = (*deadline).max(ready[i]);
    }
}

fn sign_extend_load(raw: u64, width: AccessWidth) -> u64 {
    if width.sign_extend {
        let bits = width.bytes as u32 * 8;
        (((raw << (64 - bits)) as i64) >> (64 - bits)) as u64
    } else {
        raw
    }
}

impl VliwCore {
    /// Creates a core with zeroed architectural state and a cold cache.
    pub fn new(config: CoreConfig, entry_pc: u64) -> VliwCore {
        VliwCore {
            config,
            arch: ArchState::new(entry_pc),
            dcache: DataCache::new(config.cache),
            mcb: MemoryConflictBuffer::new(config.mcb_capacity),
            cycles: 0,
            stats: CoreStats::new(),
            profiler: Profiler::new(),
            scratch: Scratch::default(),
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Architectural state (registers + PC).
    pub fn arch(&self) -> &ArchState {
        &self.arch
    }

    /// Mutable architectural state (used by the platform to seed arguments).
    pub fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The deterministic cycle-domain profiler: per-phase cycle
    /// attribution, speculation event counts, and the flight-recorder
    /// ring of recent block/rollback/mispredict events.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The data cache (exposed for statistics and residency checks).
    pub fn dcache(&self) -> &DataCache {
        &self.dcache
    }

    /// Mutable access to the data cache (used by tests and by the platform
    /// to pre-warm or flush lines).
    pub fn dcache_mut(&mut self) -> &mut DataCache {
        &mut self.dcache
    }

    fn read_operand(&self, phys: &[u64], operand: Operand) -> u64 {
        match operand {
            Operand::Phys(p) => phys[p.index()],
            Operand::Arch(r) => self.arch.reg(r),
            Operand::Imm(v) => v as u64,
        }
    }

    /// Counts one data-cache access outcome into the profiler; the
    /// counts stay exactly equal to the cache's own hit/miss stats
    /// because this is called at every access site.
    fn profile_access(&mut self, hit: bool) {
        if hit {
            self.profiler.events.l1d_hits += 1;
        } else {
            self.profiler.events.l1d_misses += 1;
        }
    }

    /// Executes one translated block against `mem`.
    ///
    /// On return the architectural state reflects every commit the guest
    /// program performed up to the exit that was taken; the data cache
    /// additionally reflects every speculative access, successful or not.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if a non-speculative access faults, a bundle
    /// exceeds the issue width, or the block is malformed.
    pub fn execute_block(
        &mut self,
        block: &TranslatedBlock,
        mem: &mut GuestMemory,
    ) -> Result<BlockOutcome, CoreError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset(block.phys_reg_count as usize);
        let outcome = self.run_block(block, mem, &mut scratch);
        self.scratch = scratch;
        outcome
    }

    fn run_block(
        &mut self,
        block: &TranslatedBlock,
        mem: &mut GuestMemory,
        scratch: &mut Scratch,
    ) -> Result<BlockOutcome, CoreError> {
        let Scratch { phys, ready_alu, ready_mem } = scratch;
        let block_start = self.cycles;
        self.mcb.clear();
        self.stats.blocks_executed += 1;
        let (steps, too_wide) = block.steps_within(self.config.issue_width);
        let mut last_mem_complete = 0u64;
        // Bundle `b` issues at cycle `b + delay`: `delay` sums the stall
        // cycles so far, `issue_stall` the part of them charged to the
        // issue phase; the rest goes to the execute phase.
        let mut delay = 0u64;
        let mut issue_stall = 0u64;
        // Steps that execute no operation: stall checks, nops and fences.
        let mut idle = 0usize;

        for (index, step) in steps.iter().enumerate() {
            let (op, bundle, lifted, awaited) = match step {
                Step::Stall { bundle, waits, rdcycle } => {
                    // `t_alu` is the deadline set by ALU-produced operands,
                    // `t_mem` the one set by memory-produced operands and
                    // `rdcycle`. Each ready-time array holds 0 where the
                    // other applies, so folding both over every awaited
                    // register raises only the producer's deadline.
                    let earliest = u64::from(*bundle) + delay;
                    let mut t_alu = earliest;
                    let mut t_mem = earliest;
                    for &reg in waits.iter() {
                        t_alu = t_alu.max(ready_alu[reg as usize]);
                        t_mem = t_mem.max(ready_mem[reg as usize]);
                    }
                    if *rdcycle {
                        t_mem = t_mem.max(last_mem_complete);
                    }
                    issue_stall += t_alu - earliest;
                    delay += t_alu.max(t_mem) - earliest;
                    idle += 1;
                    continue;
                }
                Step::Exec { op, bundle, lifted, awaited } => (op, *bundle, *lifted, *awaited),
            };
            let t = u64::from(bundle) + delay;
            let exit = match op {
                Op::Nop => {
                    idle += 1;
                    continue;
                }
                Op::Fence => {
                    idle += 1;
                    self.profiler.events.fence_stalls += 1;
                    continue;
                }
                Op::Alu { op: alu, dst, a, b } => {
                    let va = self.read_operand(phys, *a);
                    let vb = self.read_operand(phys, *b);
                    phys[dst.index()] = alu.apply(va, vb);
                    if awaited {
                        ready_alu[dst.index()] = t + alu_latency(*alu);
                        ready_mem[dst.index()] = 0;
                    }
                    continue;
                }
                Op::RdCycle { dst } => {
                    phys[dst.index()] = self.cycles + t;
                    if awaited {
                        ready_alu[dst.index()] = t + 1;
                        ready_mem[dst.index()] = 0;
                    }
                    continue;
                }
                Op::Load { width, dst, base, offset, speculative, original_seq } => {
                    let addr = self.read_operand(phys, *base).wrapping_add(*offset as u64);
                    let in_bounds = addr
                        .checked_add(width.bytes as u64)
                        .is_some_and(|end| end <= mem.len() as u64);
                    if in_bounds {
                        let outcome = self.dcache.access(addr, false);
                        self.profile_access(outcome.hit);
                        let raw = mem.load(addr, width.bytes as u64).expect("bounds checked");
                        phys[dst.index()] = sign_extend_load(raw, *width);
                        let done = t + outcome.latency;
                        if awaited {
                            ready_alu[dst.index()] = 0;
                            ready_mem[dst.index()] = done;
                        }
                        last_mem_complete = last_mem_complete.max(done);
                        if *speculative {
                            self.stats.speculative_loads += 1;
                            self.profiler.events.speculative_loads += 1;
                            self.mcb.record_load(addr, width.bytes, *original_seq);
                        }
                        continue;
                    }
                    if *speculative {
                        // Faults raised by misspeculated loads are squashed;
                        // the destination gets a dummy value and the cache
                        // is untouched.
                        phys[dst.index()] = 0;
                        if awaited {
                            ready_alu[dst.index()] = t + 1;
                            ready_mem[dst.index()] = 0;
                        }
                        continue;
                    }
                    Exit::Fault(CoreError::MemFault { addr, bytes: width.bytes })
                }
                Op::Store { width, value, base, offset, checks_mcb, original_seq } => {
                    let addr = self.read_operand(phys, *base).wrapping_add(*offset as u64);
                    if *checks_mcb && self.mcb.store_conflicts(addr, width.bytes, *original_seq) {
                        Exit::Rollback
                    } else if addr
                        .checked_add(width.bytes as u64)
                        .is_some_and(|end| end <= mem.len() as u64)
                    {
                        let value = self.read_operand(phys, *value);
                        mem.store(addr, width.bytes as u64, value).expect("bounds checked");
                        let outcome = self.dcache.access(addr, true);
                        self.profile_access(outcome.hit);
                        continue;
                    } else {
                        Exit::Fault(CoreError::MemFault { addr, bytes: width.bytes })
                    }
                }
                Op::CacheFlush { base, offset } => {
                    let addr = self.read_operand(phys, *base).wrapping_add(*offset as u64);
                    self.dcache.flush_line(addr);
                    continue;
                }
                Op::CommitReg { .. } => unreachable!("`TranslatedBlock::new` lifts every commit"),
                Op::SideExit { cond, a, b, target } => {
                    let va = self.read_operand(phys, *a);
                    let vb = self.read_operand(phys, *b);
                    if !cond.eval(va, vb) {
                        continue;
                    }
                    self.stats.side_exits_taken += 1;
                    self.profiler.events.mispredicts += 1;
                    Exit::Leave { next_pc: Some(*target), mispredict: true }
                }
                Op::Jump { target } => Exit::Leave { next_pc: Some(*target), mispredict: false },
                Op::JumpIndirect { target } => {
                    let target = self.read_operand(phys, *target);
                    Exit::Leave { next_pc: Some(target), mispredict: false }
                }
                Op::Halt => Exit::Leave { next_pc: None, mispredict: false },
            };
            let ops = index + 1 - idle + usize::from(lifted);
            self.retire(u64::from(bundle) + 1, ops, issue_stall, delay - issue_stall);
            return match exit {
                Exit::Leave { next_pc, mispredict } => {
                    self.apply(phys, block.live_commits(lifted));
                    let total = t + 1;
                    self.profiler.attribute(Phase::Commit, 1);
                    self.profiler.record("block", block.entry_pc, block_start, total);
                    if mispredict {
                        self.profiler.record("mispredict", block.entry_pc, block_start + t, 1);
                    }
                    self.cycles += total;
                    self.mcb.clear();
                    Ok(BlockOutcome { next_pc, cycles: total, rolled_back: false })
                }
                Exit::Rollback => {
                    // Memory-dependency misspeculation: roll back and
                    // re-execute sequentially. No commit has reached the
                    // architectural state yet; cache contents are
                    // intentionally NOT restored.
                    self.stats.rollbacks += 1;
                    self.profiler.events.mcb_hits += 1;
                    self.mcb.clear();
                    let penalty = t + self.config.rollback_penalty;
                    let (next_pc, recovery_cycles) = self.execute_recovery(block, mem)?;
                    let total = penalty + recovery_cycles;
                    self.profiler.attribute(Phase::Rollback, total - t);
                    self.profiler.record("block", block.entry_pc, block_start, total);
                    self.profiler.record("rollback", block.entry_pc, block_start + t, total - t);
                    self.cycles += total;
                    Ok(BlockOutcome { next_pc, cycles: total, rolled_back: true })
                }
                Exit::Fault(error) => {
                    self.apply(phys, &block.commits[..usize::from(lifted)]);
                    Err(error)
                }
            };
        }
        let (bundles, lifted, error) = match too_wide {
            Some(TooWide { bundle, slots, lifted }) => {
                (bundle, lifted, CoreError::IssueWidthExceeded { entry_pc: block.entry_pc, slots })
            }
            None => (
                block.bundle_count,
                block.commits.len(),
                CoreError::MissingTerminator { entry_pc: block.entry_pc },
            ),
        };
        self.apply(phys, &block.commits[..lifted]);
        let ops = steps.len() - idle + lifted;
        self.retire(u64::from(bundles), ops, issue_stall, delay - issue_stall);
        Err(error)
    }

    /// Applies commits in order, each reading its source as it stands.
    fn apply<'a>(&mut self, phys: &[u64], commits: impl IntoIterator<Item = &'a Commit>) {
        for commit in commits {
            let value = self.read_operand(phys, commit.src);
            self.arch.set_reg(commit.reg, value);
        }
    }

    /// Adds what a block's bundles did, counted once where the block
    /// exits: `bundles` issued (each after the first one fetch cycle
    /// behind its predecessor), `ops` executed and the stall cycles
    /// charged to the issue and execute phases.
    fn retire(&mut self, bundles: u64, ops: usize, issue: u64, execute: u64) {
        self.stats.bundles_issued += bundles;
        self.stats.ops_executed += ops as u64;
        self.profiler.attribute(Phase::Fetch, bundles.saturating_sub(1));
        self.profiler.attribute(Phase::Issue, issue);
        self.profiler.attribute(Phase::Execute, execute);
    }

    /// [`VliwCore::execute_block`] as it was before the lowered form and
    /// the scratch buffers: it walks the bundles, lifted commits back in
    /// their slots, matches every slot to find the operands a bundle waits
    /// on, runs every commit where it stands, copies the entry state for
    /// rollbacks, updates every counter per bundle and allocates its
    /// register file per block. Tests run both in lockstep and require
    /// identical outcomes, state, statistics and profiles; release builds
    /// leave it out.
    ///
    /// # Errors
    ///
    /// Those of [`VliwCore::execute_block`].
    #[cfg(any(test, debug_assertions))]
    pub fn execute_block_reference(
        &mut self,
        block: &TranslatedBlock,
        mem: &mut GuestMemory,
    ) -> Result<BlockOutcome, CoreError> {
        let entry_snapshot = self.arch.clone();
        let mut phys = vec![0u64; block.phys_reg_count as usize];
        let mut ready = vec![0u64; block.phys_reg_count as usize];
        // Producer kind per physical register: memory-produced values
        // charge their consumers' stalls to the execute phase, everything
        // else to the issue (scoreboard interlock) phase. Pure profiling
        // state — timing reads only `ready`.
        let mut from_mem = vec![false; block.phys_reg_count as usize];
        let mut last_mem_complete = 0u64;
        let mut issue_time = 0u64;
        let mut first = true;
        let block_start = self.cycles;
        self.mcb.clear();
        self.stats.blocks_executed += 1;

        for bundle in block.bundles() {
            let slots: Vec<Op> = bundle.iter().collect();
            if slots.len() > self.config.issue_width {
                return Err(CoreError::IssueWidthExceeded {
                    entry_pc: block.entry_pc,
                    slots: slots.len(),
                });
            }
            // In-order issue with scoreboard stalls. `t_alu` and `t_mem`
            // track the same deadline the pre-profiler code folded into a
            // single `t`, split by what produced the awaited operand so
            // every stall cycle is attributed to exactly one phase.
            let earliest = if first { 0 } else { issue_time + 1 };
            if !first {
                self.profiler.attribute(Phase::Fetch, 1);
            }
            first = false;
            let mut t_alu = earliest;
            let mut t_mem = earliest;
            for op in &slots {
                match op {
                    Op::Alu { a, b, .. } => {
                        wait_operand(&ready, &from_mem, *a, &mut t_alu, &mut t_mem);
                        wait_operand(&ready, &from_mem, *b, &mut t_alu, &mut t_mem);
                    }
                    Op::Load { base, .. } | Op::CacheFlush { base, .. } => {
                        wait_operand(&ready, &from_mem, *base, &mut t_alu, &mut t_mem);
                    }
                    Op::Store { value, base, .. } => {
                        wait_operand(&ready, &from_mem, *value, &mut t_alu, &mut t_mem);
                        wait_operand(&ready, &from_mem, *base, &mut t_alu, &mut t_mem);
                    }
                    Op::CommitReg { src, .. } => {
                        wait_operand(&ready, &from_mem, *src, &mut t_alu, &mut t_mem);
                    }
                    Op::SideExit { a, b, .. } => {
                        wait_operand(&ready, &from_mem, *a, &mut t_alu, &mut t_mem);
                        wait_operand(&ready, &from_mem, *b, &mut t_alu, &mut t_mem);
                    }
                    Op::RdCycle { .. } => t_mem = t_mem.max(last_mem_complete),
                    Op::JumpIndirect { target } => {
                        wait_operand(&ready, &from_mem, *target, &mut t_alu, &mut t_mem);
                    }
                    Op::Nop | Op::Jump { .. } | Op::Halt | Op::Fence => {}
                }
            }
            let t = t_alu.max(t_mem);
            self.profiler.attribute(Phase::Issue, t_alu - earliest);
            self.profiler.attribute(Phase::Execute, t - t_alu.max(earliest));
            issue_time = t;
            self.stats.bundles_issued += 1;

            for op in &slots {
                match op {
                    Op::Nop => {}
                    Op::Fence => {
                        self.profiler.events.fence_stalls += 1;
                    }
                    Op::Alu { op: alu, dst, a, b } => {
                        let va = self.read_operand(&phys, *a);
                        let vb = self.read_operand(&phys, *b);
                        phys[dst.index()] = alu.apply(va, vb);
                        ready[dst.index()] = t + alu_latency(*alu);
                        from_mem[dst.index()] = false;
                        self.stats.ops_executed += 1;
                    }
                    Op::RdCycle { dst } => {
                        phys[dst.index()] = self.cycles + t;
                        ready[dst.index()] = t + 1;
                        from_mem[dst.index()] = false;
                        self.stats.ops_executed += 1;
                    }
                    Op::Load { width, dst, base, offset, speculative, original_seq } => {
                        self.stats.ops_executed += 1;
                        let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                        let in_bounds = addr
                            .checked_add(width.bytes as u64)
                            .is_some_and(|end| end <= mem.len() as u64);
                        if !in_bounds {
                            if *speculative {
                                // Faults raised by misspeculated loads are
                                // squashed; the destination gets a dummy
                                // value and the cache is untouched.
                                phys[dst.index()] = 0;
                                ready[dst.index()] = t + 1;
                                from_mem[dst.index()] = false;
                                continue;
                            }
                            return Err(CoreError::MemFault { addr, bytes: width.bytes });
                        }
                        let outcome = self.dcache.access(addr, false);
                        self.profile_access(outcome.hit);
                        let raw = mem.load(addr, width.bytes as u64).expect("bounds checked");
                        phys[dst.index()] = sign_extend_load(raw, *width);
                        let done = t + outcome.latency;
                        ready[dst.index()] = done;
                        from_mem[dst.index()] = true;
                        last_mem_complete = last_mem_complete.max(done);
                        if *speculative {
                            self.stats.speculative_loads += 1;
                            self.profiler.events.speculative_loads += 1;
                            self.mcb.record_load(addr, width.bytes, *original_seq);
                        }
                    }
                    Op::Store { width, value, base, offset, checks_mcb, original_seq } => {
                        self.stats.ops_executed += 1;
                        let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                        if *checks_mcb && self.mcb.store_conflicts(addr, width.bytes, *original_seq)
                        {
                            // Memory-dependency misspeculation: roll back and
                            // re-execute sequentially. Cache contents are
                            // intentionally NOT restored.
                            self.stats.rollbacks += 1;
                            self.profiler.events.mcb_hits += 1;
                            self.arch = entry_snapshot;
                            self.mcb.clear();
                            let penalty = t + self.config.rollback_penalty;
                            let (next_pc, recovery_cycles) = self.execute_recovery(block, mem)?;
                            let total = penalty + recovery_cycles;
                            self.profiler.attribute(Phase::Rollback, total - t);
                            self.profiler.record("block", block.entry_pc, block_start, total);
                            self.profiler.record(
                                "rollback",
                                block.entry_pc,
                                block_start + t,
                                total - t,
                            );
                            self.cycles += total;
                            return Ok(BlockOutcome { next_pc, cycles: total, rolled_back: true });
                        }
                        let in_bounds = addr
                            .checked_add(width.bytes as u64)
                            .is_some_and(|end| end <= mem.len() as u64);
                        if !in_bounds {
                            return Err(CoreError::MemFault { addr, bytes: width.bytes });
                        }
                        let value = self.read_operand(&phys, *value);
                        mem.store(addr, width.bytes as u64, value).expect("bounds checked");
                        let outcome = self.dcache.access(addr, true);
                        self.profile_access(outcome.hit);
                    }
                    Op::CacheFlush { base, offset } => {
                        self.stats.ops_executed += 1;
                        let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                        self.dcache.flush_line(addr);
                    }
                    Op::CommitReg { reg, src } => {
                        self.stats.ops_executed += 1;
                        let value = self.read_operand(&phys, *src);
                        self.arch.set_reg(*reg, value);
                    }
                    Op::SideExit { cond, a, b, target } => {
                        self.stats.ops_executed += 1;
                        let va = self.read_operand(&phys, *a);
                        let vb = self.read_operand(&phys, *b);
                        if cond.eval(va, vb) {
                            self.stats.side_exits_taken += 1;
                            self.profiler.events.mispredicts += 1;
                            let total = t + 1;
                            self.profiler.attribute(Phase::Commit, 1);
                            self.profiler.record("block", block.entry_pc, block_start, total);
                            self.profiler.record("mispredict", block.entry_pc, block_start + t, 1);
                            self.cycles += total;
                            self.mcb.clear();
                            return Ok(BlockOutcome {
                                next_pc: Some(*target),
                                cycles: total,
                                rolled_back: false,
                            });
                        }
                    }
                    Op::Jump { target } => {
                        self.stats.ops_executed += 1;
                        let total = t + 1;
                        self.profiler.attribute(Phase::Commit, 1);
                        self.profiler.record("block", block.entry_pc, block_start, total);
                        self.cycles += total;
                        self.mcb.clear();
                        return Ok(BlockOutcome {
                            next_pc: Some(*target),
                            cycles: total,
                            rolled_back: false,
                        });
                    }
                    Op::JumpIndirect { target } => {
                        self.stats.ops_executed += 1;
                        let target = self.read_operand(&phys, *target);
                        let total = t + 1;
                        self.profiler.attribute(Phase::Commit, 1);
                        self.profiler.record("block", block.entry_pc, block_start, total);
                        self.cycles += total;
                        self.mcb.clear();
                        return Ok(BlockOutcome {
                            next_pc: Some(target),
                            cycles: total,
                            rolled_back: false,
                        });
                    }
                    Op::Halt => {
                        self.stats.ops_executed += 1;
                        let total = t + 1;
                        self.profiler.attribute(Phase::Commit, 1);
                        self.profiler.record("block", block.entry_pc, block_start, total);
                        self.cycles += total;
                        self.mcb.clear();
                        return Ok(BlockOutcome {
                            next_pc: None,
                            cycles: total,
                            rolled_back: false,
                        });
                    }
                }
            }
        }
        Err(CoreError::MissingTerminator { entry_pc: block.entry_pc })
    }

    /// Sequentially executes the recovery code of `block` (original program
    /// order, no speculation), returning the continuation PC and the cycles
    /// spent.
    fn execute_recovery(
        &mut self,
        block: &TranslatedBlock,
        mem: &mut GuestMemory,
    ) -> Result<(Option<u64>, u64), CoreError> {
        let mut phys = vec![0u64; block.phys_reg_count as usize];
        let mut t = 0u64;
        for op in &block.recovery {
            self.stats.recovery_ops += 1;
            self.profiler.events.squashed_insts += 1;
            t += 1;
            match op {
                Op::Nop => {}
                Op::Fence => {
                    self.profiler.events.fence_stalls += 1;
                }
                Op::Alu { op: alu, dst, a, b } => {
                    let va = self.read_operand(&phys, *a);
                    let vb = self.read_operand(&phys, *b);
                    phys[dst.index()] = alu.apply(va, vb);
                    t += alu_latency(*alu) - 1;
                }
                Op::RdCycle { dst } => {
                    phys[dst.index()] = self.cycles + t;
                }
                Op::Load { width, dst, base, offset, .. } => {
                    let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                    let in_bounds = addr
                        .checked_add(width.bytes as u64)
                        .is_some_and(|end| end <= mem.len() as u64);
                    if !in_bounds {
                        return Err(CoreError::MemFault { addr, bytes: width.bytes });
                    }
                    let outcome = self.dcache.access(addr, false);
                    self.profile_access(outcome.hit);
                    t += outcome.latency;
                    let raw = mem.load(addr, width.bytes as u64).expect("bounds checked");
                    phys[dst.index()] = sign_extend_load(raw, *width);
                }
                Op::Store { width, value, base, offset, .. } => {
                    let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                    let in_bounds = addr
                        .checked_add(width.bytes as u64)
                        .is_some_and(|end| end <= mem.len() as u64);
                    if !in_bounds {
                        return Err(CoreError::MemFault { addr, bytes: width.bytes });
                    }
                    let value = self.read_operand(&phys, *value);
                    mem.store(addr, width.bytes as u64, value).expect("bounds checked");
                    let outcome = self.dcache.access(addr, true);
                    self.profile_access(outcome.hit);
                }
                Op::CacheFlush { base, offset } => {
                    let addr = self.read_operand(&phys, *base).wrapping_add(*offset as u64);
                    self.dcache.flush_line(addr);
                }
                Op::CommitReg { reg, src } => {
                    let value = self.read_operand(&phys, *src);
                    self.arch.set_reg(*reg, value);
                }
                Op::SideExit { cond, a, b, target } => {
                    let va = self.read_operand(&phys, *a);
                    let vb = self.read_operand(&phys, *b);
                    if cond.eval(va, vb) {
                        self.stats.side_exits_taken += 1;
                        self.profiler.events.mispredicts += 1;
                        return Ok((Some(*target), t));
                    }
                }
                Op::Jump { target } => return Ok((Some(*target), t)),
                Op::JumpIndirect { target } => {
                    let target = self.read_operand(&phys, *target);
                    return Ok((Some(target), t));
                }
                Op::Halt => return Ok((None, t)),
            }
        }
        Err(CoreError::MissingTerminator { entry_pc: block.entry_pc })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Bundle, PhysReg};
    use dbt_riscv::BranchCond;

    fn mk_core() -> (VliwCore, GuestMemory) {
        (VliwCore::new(CoreConfig::default(), 0x1000), GuestMemory::new(0x10000))
    }

    fn bundle(slots: Vec<Op>) -> Bundle {
        Bundle { slots }
    }

    #[test]
    fn straight_line_block_commits_registers() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(
            0x1000,
            vec![
                bundle(vec![Op::Alu {
                    op: AluOp::Add,
                    dst: PhysReg(0),
                    a: Operand::Imm(40),
                    b: Operand::Imm(2),
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(0)) },
                    Op::Jump { target: 0x2000 },
                ]),
            ],
            1,
            vec![],
            2,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert_eq!(outcome.next_pc, Some(0x2000));
        assert!(!outcome.rolled_back);
        assert_eq!(core.arch().reg(Reg::A0), 42);
        assert!(outcome.cycles >= 2);
    }

    #[test]
    fn load_latency_stalls_consumer() {
        let (mut core, mut mem) = mk_core();
        mem.store_u64(0x100, 7).unwrap();
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x100),
                    offset: 0,
                    speculative: false,
                    original_seq: 0,
                }]),
                bundle(vec![Op::Alu {
                    op: AluOp::Add,
                    dst: PhysReg(1),
                    a: Operand::Phys(PhysReg(0)),
                    b: Operand::Imm(1),
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(1)) },
                    Op::Halt,
                ]),
            ],
            2,
            vec![],
            3,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert_eq!(core.arch().reg(Reg::A0), 8);
        // A cold-cache miss (60 cycles by default) must be visible.
        assert!(outcome.cycles >= CacheConfig::default().miss_latency);
    }

    #[test]
    fn cache_hits_are_faster_than_misses() {
        let (mut core, mut mem) = mk_core();
        let make_block = || {
            TranslatedBlock::new(
                0,
                vec![
                    bundle(vec![Op::Load {
                        width: AccessWidth::DOUBLE,
                        dst: PhysReg(0),
                        base: Operand::Imm(0x200),
                        offset: 0,
                        speculative: false,
                        original_seq: 0,
                    }]),
                    bundle(vec![Op::Alu {
                        op: AluOp::Add,
                        dst: PhysReg(1),
                        a: Operand::Phys(PhysReg(0)),
                        b: Operand::Imm(0),
                    }]),
                    bundle(vec![Op::Halt]),
                ],
                2,
                vec![],
                2,
            )
        };
        let cold = core.execute_block(&make_block(), &mut mem).unwrap();
        let warm = core.execute_block(&make_block(), &mut mem).unwrap();
        assert!(cold.cycles > warm.cycles);
    }

    #[test]
    fn taken_side_exit_skips_later_commits() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::SideExit {
                    cond: BranchCond::Eq,
                    a: Operand::Imm(1),
                    b: Operand::Imm(1),
                    target: 0x3000,
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Imm(99) },
                    Op::Jump { target: 0x4000 },
                ]),
            ],
            0,
            vec![],
            2,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert_eq!(outcome.next_pc, Some(0x3000));
        assert_eq!(core.arch().reg(Reg::A0), 0, "commit after a taken exit must not happen");
        assert_eq!(core.stats().side_exits_taken, 1);
    }

    #[test]
    fn speculative_load_leaves_cache_trace_even_when_exit_taken() {
        let (mut core, mut mem) = mk_core();
        // The load is scheduled before the exit (hoisted), the exit is taken:
        // architecturally nothing happens, but the line stays in the cache.
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::BYTE_U,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x5000),
                    offset: 0,
                    speculative: false,
                    original_seq: 2,
                }]),
                bundle(vec![Op::SideExit {
                    cond: BranchCond::Eq,
                    a: Operand::Imm(0),
                    b: Operand::Imm(0),
                    target: 0x9000,
                }]),
                bundle(vec![Op::Halt]),
            ],
            1,
            vec![],
            3,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert_eq!(outcome.next_pc, Some(0x9000));
        assert!(core.dcache().is_resident(0x5000));
    }

    #[test]
    fn mcb_conflict_triggers_rollback_and_recovery() {
        let (mut core, mut mem) = mk_core();
        mem.store_u64(0x800, 111).unwrap();
        // Guest order: store 222 -> [0x800] (seq 1); load [0x800] (seq 2);
        // commit a0 <- load. The schedule hoists the load above the store.
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    speculative: true,
                    original_seq: 2,
                }]),
                bundle(vec![Op::Store {
                    width: AccessWidth::DOUBLE,
                    value: Operand::Imm(222),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    checks_mcb: true,
                    original_seq: 1,
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(0)) },
                    Op::Halt,
                ]),
            ],
            1,
            vec![
                Op::Store {
                    width: AccessWidth::DOUBLE,
                    value: Operand::Imm(222),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    checks_mcb: false,
                    original_seq: 1,
                },
                Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    speculative: false,
                    original_seq: 2,
                },
                Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(0)) },
                Op::Halt,
            ],
            3,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert!(outcome.rolled_back);
        assert_eq!(outcome.next_pc, None);
        // Recovery re-executed in order: the commit sees the stored value.
        assert_eq!(core.arch().reg(Reg::A0), 222);
        assert_eq!(core.stats().rollbacks, 1);
        assert_eq!(mem.load_u64(0x800).unwrap(), 222);
        // The rollback penalty makes this much slower than a plain block.
        assert!(outcome.cycles >= core.config().rollback_penalty);
    }

    #[test]
    fn speculative_load_fault_is_squashed() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(-64i64),
                    offset: 0,
                    speculative: true,
                    original_seq: 1,
                }]),
                bundle(vec![Op::Halt]),
            ],
            1,
            vec![Op::Halt],
            1,
        );
        assert!(core.execute_block(&block, &mut mem).is_ok());
    }

    #[test]
    fn non_speculative_fault_is_an_error() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(-64i64),
                    offset: 0,
                    speculative: false,
                    original_seq: 1,
                }]),
                bundle(vec![Op::Halt]),
            ],
            1,
            vec![Op::Halt],
            1,
        );
        assert!(matches!(core.execute_block(&block, &mut mem), Err(CoreError::MemFault { .. })));
    }

    #[test]
    fn checked_store_to_a_wrapped_address_faults() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x100),
                    offset: 0,
                    speculative: true,
                    original_seq: 2,
                }]),
                bundle(vec![Op::Store {
                    width: AccessWidth::DOUBLE,
                    value: Operand::Imm(1),
                    base: Operand::Imm(-4),
                    offset: 0,
                    checks_mcb: true,
                    original_seq: 1,
                }]),
                bundle(vec![Op::Halt]),
            ],
            1,
            vec![Op::Halt],
            2,
        );
        let fault = Err(CoreError::MemFault { addr: u64::MAX - 3, bytes: 8 });
        assert_eq!(core.clone().execute_block_reference(&block, &mut mem.clone()), fault);
        assert_eq!(core.execute_block(&block, &mut mem), fault);
    }

    #[test]
    fn rdcycle_observes_memory_latency() {
        let (mut core, mut mem) = mk_core();
        // rdcycle ; load (miss) ; rdcycle ; commit the difference.
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::RdCycle { dst: PhysReg(0) }]),
                bundle(vec![Op::Load {
                    width: AccessWidth::BYTE_U,
                    dst: PhysReg(1),
                    base: Operand::Imm(0x900),
                    offset: 0,
                    speculative: false,
                    original_seq: 1,
                }]),
                bundle(vec![Op::RdCycle { dst: PhysReg(2) }]),
                bundle(vec![Op::Alu {
                    op: AluOp::Sub,
                    dst: PhysReg(3),
                    a: Operand::Phys(PhysReg(2)),
                    b: Operand::Phys(PhysReg(0)),
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(3)) },
                    Op::Halt,
                ]),
            ],
            4,
            vec![],
            5,
        );
        core.execute_block(&block, &mut mem).unwrap();
        let miss_delta = core.arch().reg(Reg::A0);
        assert!(miss_delta >= CacheConfig::default().miss_latency);

        // Run again: the line is now cached, the delta must be small.
        let mut warm = core.clone();
        warm.execute_block(&block, &mut mem).unwrap();
        let hit_delta = warm.arch().reg(Reg::A0);
        assert!(hit_delta < miss_delta);
    }

    #[test]
    fn issue_width_is_enforced() {
        let (mut core, mut mem) = mk_core();
        let too_wide = bundle(vec![Op::Nop, Op::Nop, Op::Nop, Op::Nop, Op::Halt]);
        let block = TranslatedBlock::new(0, vec![too_wide], 0, vec![], 1);
        assert!(matches!(
            core.execute_block(&block, &mut mem),
            Err(CoreError::IssueWidthExceeded { .. })
        ));
    }

    #[test]
    fn missing_terminator_is_detected() {
        let (mut core, mut mem) = mk_core();
        let block = TranslatedBlock::new(0x42, vec![bundle(vec![Op::Nop])], 0, vec![], 1);
        assert!(matches!(
            core.execute_block(&block, &mut mem),
            Err(CoreError::MissingTerminator { entry_pc: 0x42 })
        ));
    }

    /// Random blocks that ignore latencies (see [`crate::testgen`]), each
    /// run twice (cold, then warm cache) by the core and by its
    /// reference: equal results, errors included, and equal state,
    /// statistics, profiles, flight recorders and guest memory. The blocks
    /// end in every way a block can.
    #[test]
    fn packed_random_blocks_execute_like_the_reference_core() {
        use crate::testgen::{self, MEMORY_BYTES, SIDE_EXIT_TARGET};
        use spectaint::XorShift64;

        const EXITS: [&str; 6] =
            ["side exits", "terminators", "rollbacks", "faults", "too wide", "unterminated"];
        let mut exits = [0; EXITS.len()];
        let mut issue_stalls = 0;
        for index in 0..2_000 {
            let case = testgen::case(index);
            let mut rng = XorShift64::new(0xc0de ^ index);
            let mut mem = GuestMemory::new(MEMORY_BYTES);
            for addr in (0..MEMORY_BYTES as u64).step_by(8) {
                mem.store_u64(addr, rng.next_below(0x2200)).unwrap();
            }
            let config = CoreConfig { issue_width: case.issue_width, ..CoreConfig::default() };
            let mut core = VliwCore::new(config, 0x1000);
            for reg in [Reg::A0, Reg::A1, Reg::A2, Reg::A3] {
                core.arch_mut().set_reg(reg, 8 * rng.next_below(0x440));
            }
            let (mut oracle, mut oracle_mem) = (core.clone(), mem.clone());
            for run in 0..2 {
                let got = core.execute_block(&case.block, &mut mem);
                let want = oracle.execute_block_reference(&case.block, &mut oracle_mem);
                let at = format!(
                    "case {index}, run {run}, width {}:\n{}",
                    config.issue_width, case.block
                );
                assert_eq!(got, want, "{at}");
                assert_eq!(core.arch(), oracle.arch(), "{at}");
                assert_eq!(core.stats(), oracle.stats(), "{at}");
                assert_eq!(core.dcache().stats(), oracle.dcache().stats(), "{at}");
                assert_eq!(core.profiler().phases, oracle.profiler().phases, "{at}");
                assert_eq!(core.profiler().events, oracle.profiler().events, "{at}");
                let exit = match got {
                    Ok(outcome) if outcome.rolled_back => 2,
                    Ok(outcome) if outcome.next_pc == Some(SIDE_EXIT_TARGET) => 0,
                    Ok(_) => 1,
                    Err(CoreError::MemFault { .. }) => 3,
                    Err(CoreError::IssueWidthExceeded { .. }) => 4,
                    Err(CoreError::MissingTerminator { .. }) => 5,
                };
                exits[exit] += 1;
            }
            assert!(mem == oracle_mem, "case {index}: guest memory differs");
            assert!(
                core.profiler().trace_events().eq(oracle.profiler().trace_events()),
                "case {index}: flight recorders differ"
            );
            if core.profiler().phases.issue > 0 {
                issue_stalls += 1;
            }
        }
        assert!(exits.iter().all(|&n| n >= 20), "{EXITS:?}: {exits:?}");
        assert!(issue_stalls >= 20, "only {issue_stalls} cases wait on an ALU result");
    }

    /// A block that stalls on both a load (execute phase) and a slow ALU
    /// result (issue phase), ending in a halt.
    fn stall_block() -> TranslatedBlock {
        TranslatedBlock::new(
            0x1000,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x100),
                    offset: 0,
                    speculative: false,
                    original_seq: 0,
                }]),
                bundle(vec![Op::Alu {
                    op: AluOp::Mul,
                    dst: PhysReg(1),
                    a: Operand::Phys(PhysReg(0)),
                    b: Operand::Imm(3),
                }]),
                bundle(vec![Op::Alu {
                    op: AluOp::Add,
                    dst: PhysReg(2),
                    a: Operand::Phys(PhysReg(1)),
                    b: Operand::Imm(1),
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(2)) },
                    Op::Halt,
                ]),
            ],
            3,
            vec![],
            4,
        )
    }

    #[test]
    fn profiler_phases_sum_to_total_cycles() {
        let (mut core, mut mem) = mk_core();
        core.execute_block(&stall_block(), &mut mem).unwrap();
        core.execute_block(&stall_block(), &mut mem).unwrap();
        let phases = core.profiler().phases;
        assert_eq!(phases.total(), core.cycles(), "{phases:?}");
        // The cold-run load miss stalls its consumer: execute cycles must
        // dominate; the multiply interlock shows up as issue cycles; one
        // commit cycle per block exit.
        assert!(phases.execute >= CacheConfig::default().miss_latency - 1, "{phases:?}");
        assert!(phases.issue >= 2, "the 3-cycle multiply interlocks: {phases:?}");
        assert_eq!(phases.commit, 2);
        assert_eq!(phases.rollback, 0);
    }

    #[test]
    fn profiler_phases_include_rollback_and_events_match_stats() {
        let (mut core, mut mem) = mk_core();
        mem.store_u64(0x800, 111).unwrap();
        // Reuse the MCB-conflict shape: hoisted load, conflicting store,
        // sequential recovery.
        let block = TranslatedBlock::new(
            0,
            vec![
                bundle(vec![Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    speculative: true,
                    original_seq: 2,
                }]),
                bundle(vec![Op::Store {
                    width: AccessWidth::DOUBLE,
                    value: Operand::Imm(222),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    checks_mcb: true,
                    original_seq: 1,
                }]),
                bundle(vec![
                    Op::CommitReg { reg: Reg::A0, src: Operand::Phys(PhysReg(0)) },
                    Op::Halt,
                ]),
            ],
            1,
            vec![
                Op::Fence,
                Op::Load {
                    width: AccessWidth::DOUBLE,
                    dst: PhysReg(0),
                    base: Operand::Imm(0x800),
                    offset: 0,
                    speculative: false,
                    original_seq: 2,
                },
                Op::Halt,
            ],
            3,
        );
        let outcome = core.execute_block(&block, &mut mem).unwrap();
        assert!(outcome.rolled_back);
        let profiler = core.profiler();
        assert_eq!(profiler.phases.total(), core.cycles());
        assert!(profiler.phases.rollback >= core.config().rollback_penalty);
        // Every event counter agrees exactly with its CoreStats /
        // CacheStats twin.
        let stats = *core.stats();
        assert_eq!(profiler.events.mcb_hits, stats.rollbacks);
        assert_eq!(profiler.events.squashed_insts, stats.recovery_ops);
        assert_eq!(profiler.events.mispredicts, stats.side_exits_taken);
        assert_eq!(profiler.events.speculative_loads, stats.speculative_loads);
        assert_eq!(profiler.events.fence_stalls, 1, "the recovery fence is counted");
        let cache = core.dcache().stats();
        assert_eq!(profiler.events.l1d_hits, cache.read_hits + cache.write_hits);
        assert_eq!(profiler.events.l1d_misses, cache.read_misses + cache.write_misses);
    }

    #[test]
    fn flight_recorder_captures_block_and_rollback_events() {
        let (mut core, mut mem) = mk_core();
        core.execute_block(&stall_block(), &mut mem).unwrap();
        let kinds: Vec<&str> = core.profiler().trace_events().map(|e| e.kind).collect();
        assert_eq!(kinds, ["block"]);
        let event = *core.profiler().trace_events().next().unwrap();
        assert_eq!(event.pc, 0x1000);
        assert_eq!(event.start_cycle, 0);
        assert_eq!(event.cycles, core.cycles());
        // A second execution starts where the first ended.
        core.execute_block(&stall_block(), &mut mem).unwrap();
        let second = *core.profiler().trace_events().nth(1).unwrap();
        assert_eq!(second.start_cycle, event.cycles);
        assert_eq!(second.start_cycle + second.cycles, core.cycles());
    }
}
