//! List scheduler: maps IR instructions to (cycle, slot) positions on the
//! VLIW core, honouring every non-relaxable dependency edge.
//!
//! Relaxable edges are *ignored*: that is where the speculation happens. The
//! code generator later inspects which ignored edges were actually bypassed
//! by the chosen placement and marks the corresponding loads as speculative.
//!
//! # Algorithm
//!
//! [`schedule`] is a ready-set list scheduler. One pass over the hard edges
//! gives every instruction its successor list and its count of unplaced
//! predecessors, and one reverse sweep over the successor lists gives the
//! priorities: the critical-path length to the end of the block.
//!
//! Placing an instruction `p` raises the *release cycle* of each hard
//! successor, the first cycle the successor may issue in, to at least:
//!
//! * `p.cycle + latency(p)` over a data edge;
//! * `p.cycle + 1` over any other edge from a side exit or touching an
//!   `RdCycle`: a taken exit must not share a cycle with later commits, and
//!   a timed memory access must not share a cycle with the counter reads
//!   around it;
//! * `p.cycle` over every other hard edge: the successor may take a later
//!   slot of the same bundle.
//!
//! Once its last predecessor is placed, an instruction waits for its release
//! cycle and then joins the ready set, ordered by (priority descending,
//! `original_seq`, index). Each slot takes the first ready instruction, and
//! a cycle ends when its bundle is full or nothing is ready. Two rules hold
//! instructions back, and both are counted as extra predecessors:
//!
//! * the block's last instruction (its terminator) waits for every other
//!   one, so nothing lands after the end of the block;
//! * the *hoist rule*: a side exit waits for every load that has a
//!   relaxable control edge from it, so the speculation the graph allows
//!   actually happens. After 17 idle cycles in a row the rule is dropped for
//!   the rest of the block (see [`schedule`] for when that happens).
//!
//! Cycles are stepped one at a time, idle ones included, at O(1) each. The
//! rest costs O((n + E) log n) for `n` instructions and `E` edges.

use dbt_ir::{DepEdge, DepGraph, DepKind, InstId, IrBlock, IrOp};
// (IrOp is matched on below for side exits, loads and cycle-counter reads.)
use dbt_vliw::alu_latency;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Scheduling failure (defensive: a well-formed block always schedules).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The scheduler could not make progress (dependency cycle).
    NoProgress {
        /// Number of instructions left unscheduled.
        unscheduled: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NoProgress { unscheduled } => {
                write!(f, "scheduler made no progress with {unscheduled} instructions left")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Placement of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Placement {
    /// Issue cycle (relative to block entry).
    pub cycle: u64,
    /// Slot within the bundle.
    pub slot: usize,
}

/// A complete schedule for one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    placements: Vec<Placement>,
    cycles: u64,
}

impl Schedule {
    /// Placement of instruction `id`.
    pub fn placement(&self, id: InstId) -> Placement {
        self.placements[id.index()]
    }

    /// Number of cycles (bundles) the schedule occupies.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// All placements, indexed by instruction id.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Returns `true` if `a` is placed strictly before `b`.
    pub fn is_before(&self, a: InstId, b: InstId) -> bool {
        self.placement(a) < self.placement(b)
    }
}

/// Latency estimate used both for priorities and for honouring data edges.
fn latency(op: &IrOp) -> u64 {
    match op {
        IrOp::Load { .. } => 3,
        IrOp::Alu { op, .. } => alu_latency(*op),
        _ => 1,
    }
}

/// Schedules `block` under the hard edges of `graph`, with at most
/// `issue_width` operations per cycle. The [module docs](self) describe the
/// algorithm. An empty block gets an empty schedule of 0 cycles.
///
/// The hoist rule stalls when a side exit's hoistable load hard-depends on
/// that same exit. The Spectre PoCs' timed reload loop (`rdcycle; load;
/// rdcycle; exit`) does so once two iterations are merged into a
/// superblock: the next iteration's load follows the exit through the
/// order chain and the `rdcycle` → memory edges. The scheduler then idles
/// for 17 cycles before it drops the rule, and those empty bundles stay in
/// the emitted code.
///
/// # Errors
///
/// Returns [`ScheduleError::NoProgress`] if the hard-edge graph contains a
/// cycle, which cannot happen for graphs built by [`DepGraph::build`].
pub fn schedule(
    block: &IrBlock,
    graph: &DepGraph,
    issue_width: usize,
) -> Result<Schedule, ScheduleError> {
    let result = list_schedule(block, graph, issue_width);
    #[cfg(debug_assertions)]
    if !block.is_empty() {
        debug_assert_eq!(
            result,
            schedule_reference(block, graph, issue_width),
            "the ready-set scheduler diverged from the reference scheduler"
        );
    }
    result
}

/// A hard edge, stored with its source.
#[derive(Debug, Clone, Copy, Default)]
struct Succ {
    /// Target instruction index.
    to: usize,
    /// Cycles from the source's issue to the target's earliest issue.
    delay: u64,
    /// Critical-path weight: the source's latency over a data edge, 1
    /// otherwise.
    weight: u64,
}

impl Succ {
    fn new(block: &IrBlock, edge: &DepEdge) -> Succ {
        let from = &block.inst(edge.from).op;
        let (delay, weight) = match edge.kind {
            DepKind::Data => (latency(from), latency(from)),
            _ if from.is_side_exit()
                || matches!(from, IrOp::RdCycle)
                || matches!(block.inst(edge.to).op, IrOp::RdCycle) =>
            {
                (1, 1)
            }
            _ => (0, 1),
        };
        Succ { to: edge.to.index(), delay, weight }
    }
}

/// Per-instruction lists in one flat buffer: instruction `i` owns
/// `items[start[i]..start[i + 1]]`.
struct Adjacency<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy + Default> Adjacency<T> {
    /// Builds the lists from `(owner, item)` pairs in two passes.
    fn build(n: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Adjacency<T> {
        let mut start = vec![0usize; n + 1];
        for (owner, _) in pairs.clone() {
            start[owner + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut items = vec![T::default(); start[n]];
        for (owner, item) in pairs {
            items[next[owner]] = item;
            next[owner] += 1;
        }
        Adjacency { start, items }
    }

    fn of(&self, owner: usize) -> &[T] {
        &self.items[self.start[owner]..self.start[owner + 1]]
    }
}

/// Ready-set order: higher priority first, then earlier guest instruction,
/// then lower index (the order the reference scheduler sorts by).
type Key = (Reverse<u64>, usize, usize);

/// The instructions of one [`list_schedule`] run that are not placed yet.
struct ReadySet {
    keys: Vec<Key>,
    /// Predecessors of each instruction not placed yet.
    unmet: Vec<usize>,
    /// Earliest issue cycle of each instruction over its placed
    /// predecessors.
    release: Vec<u64>,
    /// Instructions with no unmet predecessor whose release cycle has come.
    ready: BinaryHeap<Reverse<Key>>,
    /// Instructions with no unmet predecessor, by release cycle.
    waiting: BinaryHeap<Reverse<(u64, usize)>>,
}

impl ReadySet {
    /// Notes that `count` predecessors of `i` are gone, the last one
    /// releasing `i` for cycle `at`. Queues `i` once none is left.
    fn satisfy(&mut self, i: usize, count: usize, at: u64, cycle: u64) {
        self.release[i] = self.release[i].max(at);
        self.unmet[i] -= count;
        if self.unmet[i] == 0 {
            if self.release[i] <= cycle {
                self.ready.push(Reverse(self.keys[i]));
            } else {
                self.waiting.push(Reverse((self.release[i], i)));
            }
        }
    }

    /// Moves every waiting instruction released by `cycle` to the ready set.
    fn advance_to(&mut self, cycle: u64) {
        while let Some(&Reverse((at, i))) = self.waiting.peek() {
            if at > cycle {
                break;
            }
            self.waiting.pop();
            self.ready.push(Reverse(self.keys[i]));
        }
    }

    /// Takes the first ready instruction.
    fn pop(&mut self) -> Option<usize> {
        self.ready.pop().map(|Reverse((_, _, i))| i)
    }
}

fn list_schedule(
    block: &IrBlock,
    graph: &DepGraph,
    issue_width: usize,
) -> Result<Schedule, ScheduleError> {
    let n = block.len();
    let Some(terminator) = n.checked_sub(1) else {
        return Ok(Schedule { placements: Vec::new(), cycles: 0 });
    };
    let insts = block.insts();
    let hard = graph.edges().iter().filter(|e| !e.relaxable);
    let succs = Adjacency::build(n, hard.map(|e| (e.from.index(), Succ::new(block, e))));
    // Each load lists the side exits that must wait for it under the hoist
    // rule: those with a relaxable control edge to it.
    let hoist = graph.edges().iter().filter(|e| {
        e.relaxable
            && e.kind == DepKind::Control
            && insts[e.from.index()].op.is_side_exit()
            && insts[e.to.index()].op.is_load()
    });
    let exits_above = Adjacency::build(n, hoist.map(|e| (e.to.index(), e.from.index())));

    // Critical-path priorities, from the end of the block backwards.
    let mut priority = vec![0u64; n];
    for index in (0..n).rev() {
        let own = latency(&insts[index].op);
        let best = succs.of(index).iter().fold(own, |best, s| best.max(s.weight + priority[s.to]));
        priority[index] = best;
    }

    let mut unmet = vec![0usize; n];
    for s in &succs.items {
        unmet[s.to] += 1;
    }
    // The terminator waits for every other instruction, and each side exit
    // for its hoistable loads while the hoist rule holds.
    unmet[terminator] += n - 1;
    // Unplaced hoistable loads of each side exit.
    let mut hoist_pending = vec![0usize; n];
    for &exit in &exits_above.items {
        hoist_pending[exit] += 1;
        unmet[exit] += 1;
    }
    let keys: Vec<Key> = (0..n).map(|i| (Reverse(priority[i]), insts[i].original_seq, i)).collect();
    let ready = (0..n).filter(|&i| unmet[i] == 0).map(|i| Reverse(keys[i])).collect();
    let mut set = ReadySet { keys, unmet, release: vec![0; n], ready, waiting: BinaryHeap::new() };

    let mut placements = vec![Placement { cycle: 0, slot: 0 }; n];
    let mut scheduled_count = 0usize;
    let mut cycle = 0u64;
    let mut idle_cycles = 0u64;
    let mut hoist_rule_enabled = true;
    while scheduled_count < n {
        set.advance_to(cycle);
        let mut slot = 0usize;
        while slot < issue_width {
            let Some(chosen) = set.pop() else { break };
            placements[chosen] = Placement { cycle, slot };
            scheduled_count += 1;
            slot += 1;
            for s in succs.of(chosen) {
                set.satisfy(s.to, 1, cycle + s.delay, cycle);
            }
            if chosen != terminator {
                set.satisfy(terminator, 1, cycle, cycle);
            }
            if hoist_rule_enabled {
                for &exit in exits_above.of(chosen) {
                    hoist_pending[exit] -= 1;
                    set.satisfy(exit, 1, cycle, cycle);
                }
            }
        }
        cycle += 1;
        if slot > 0 {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles > 16 && hoist_rule_enabled {
                // The hoist rule deadlocked (see `schedule`): drop it.
                hoist_rule_enabled = false;
                idle_cycles = 0;
                for (exit, &pending) in hoist_pending.iter().enumerate() {
                    if pending > 0 {
                        set.satisfy(exit, pending, 0, cycle);
                    }
                }
            }
        }
        if cycle > (n as u64 + 32) * 32 {
            return Err(ScheduleError::NoProgress { unscheduled: n - scheduled_count });
        }
    }
    // The last placement happened in the last cycle stepped.
    Ok(Schedule { placements, cycles: cycle })
}

/// The scan-based list scheduler [`schedule`] replaced, kept verbatim as
/// its oracle: debug builds assert that both return the same result for
/// every block, and the tests compare them on random blocks.
///
/// For every (cycle, slot) it rescans all `n` instructions and filters all
/// `E` edges, so it costs O(n² · E).
#[cfg(any(test, debug_assertions))]
fn schedule_reference(
    block: &IrBlock,
    graph: &DepGraph,
    issue_width: usize,
) -> Result<Schedule, ScheduleError> {
    let n = block.len();
    let hard_edges: Vec<_> = graph.edges().iter().filter(|e| !e.relaxable).collect();

    // Critical-path priorities over hard edges (edges always go from a lower
    // to a higher instruction id).
    let mut priority = vec![0u64; n];
    for index in (0..n).rev() {
        let own = latency(&block.inst(InstId(index)).op);
        let mut best = own;
        for edge in hard_edges.iter().filter(|e| e.from.index() == index) {
            let contribution = match edge.kind {
                DepKind::Data => own + priority[edge.to.index()],
                _ => 1 + priority[edge.to.index()],
            };
            best = best.max(contribution);
        }
        priority[index] = best;
    }

    // Aggressive trace-scheduling policy: a side exit is kept *late* so that
    // the loads the engine wants to hoist above it (those with a remaining
    // relaxable control edge from the exit) can actually be placed first.
    // This is exactly the speculation the paper describes; once GhostBusters
    // hardens an edge, the corresponding load no longer holds the exit back
    // and ends up after it. A fallback disables the rule when it blocks
    // progress, which it does when a hoistable load hard-depends on its own
    // exit (the timed reload loop of the Spectre PoCs: see `schedule`).
    let hoist_before_exit: Vec<Vec<usize>> = (0..n)
        .map(|exit_index| {
            if !block.inst(InstId(exit_index)).op.is_side_exit() {
                return Vec::new();
            }
            graph
                .edges()
                .iter()
                .filter(|e| {
                    e.relaxable
                        && e.kind == DepKind::Control
                        && e.from.index() == exit_index
                        && block.inst(e.to).op.is_load()
                })
                .map(|e| e.to.index())
                .collect()
        })
        .collect();

    let mut placements = vec![None::<Placement>; n];
    let mut scheduled_count = 0usize;
    let mut cycle = 0u64;
    let mut idle_cycles = 0u64;
    let mut hoist_rule_enabled = true;
    let terminator_index = n - 1;

    while scheduled_count < n {
        let mut slot = 0usize;
        let mut placed_this_cycle = true;
        let mut placed_any_this_cycle = false;
        while slot < issue_width && placed_this_cycle {
            placed_this_cycle = false;
            // Collect ready candidates for the current (cycle, slot).
            let mut candidates: Vec<usize> = (0..n)
                .filter(|&i| placements[i].is_none())
                .filter(|&i| {
                    // The unconditional terminator is placed only when
                    // everything else has been scheduled, so no operation can
                    // land after the end of the block.
                    if i == terminator_index && scheduled_count < n - 1 {
                        return false;
                    }
                    if hoist_rule_enabled
                        && hoist_before_exit[i].iter().any(|&load| placements[load].is_none())
                    {
                        return false;
                    }
                    hard_edges.iter().filter(|e| e.to.index() == i).all(|e| {
                        match placements[e.from.index()] {
                            None => false,
                            Some(p) => match e.kind {
                                DepKind::Data => cycle >= p.cycle + latency(&block.inst(e.from).op),
                                _ => {
                                    let from_is_exit = block.inst(e.from).op.is_side_exit();
                                    let involves_rdcycle =
                                        matches!(block.inst(e.from).op, IrOp::RdCycle)
                                            || matches!(block.inst(InstId(i)).op, IrOp::RdCycle);
                                    if from_is_exit || involves_rdcycle {
                                        // Taken exits must not share a cycle
                                        // with later commits, and timed memory
                                        // accesses must not share a cycle with
                                        // the cycle-counter reads around them.
                                        cycle > p.cycle
                                    } else {
                                        // Same-cycle is allowed as long as the
                                        // predecessor sits in an earlier slot,
                                        // which is guaranteed because it was
                                        // placed before this candidate.
                                        cycle > p.cycle || (cycle == p.cycle && p.slot < slot)
                                    }
                                }
                            },
                        }
                    })
                })
                .collect();
            candidates.sort_by_key(|&i| {
                (std::cmp::Reverse(priority[i]), block.inst(InstId(i)).original_seq, i)
            });
            if let Some(&chosen) = candidates.first() {
                placements[chosen] = Some(Placement { cycle, slot });
                scheduled_count += 1;
                slot += 1;
                placed_this_cycle = true;
                placed_any_this_cycle = true;
            }
        }
        cycle += 1;
        if placed_any_this_cycle {
            idle_cycles = 0;
        } else {
            idle_cycles += 1;
            if idle_cycles > 16 && hoist_rule_enabled {
                // Never let the hoisting preference stall the scheduler for
                // good: it deadlocks whenever a hoistable load hard-depends
                // on its exit, and 17 idle cycles later it is dropped.
                hoist_rule_enabled = false;
                idle_cycles = 0;
            }
        }
        if cycle > (n as u64 + 32) * 32 {
            return Err(ScheduleError::NoProgress { unscheduled: n - scheduled_count });
        }
    }

    let placements: Vec<Placement> =
        placements.into_iter().map(|p| p.expect("all scheduled")).collect();
    let cycles = placements.iter().map(|p| p.cycle).max().map_or(0, |c| c + 1);
    Ok(Schedule { placements, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen;
    use dbt_ir::{BlockKind, DfgOptions, MemWidth, Operand};
    use dbt_riscv::inst::AluOp;
    use dbt_riscv::{BranchCond, Reg};
    use std::mem::discriminant;

    /// slow-value store [a0] ; load addrBuf ; load buffer[v] ; halt — the
    /// Spectre v4 shape of the paper's Figure 2 (the stored value requires a
    /// long computation, so aggressive scheduling hoists the later loads
    /// above the store).
    fn spec_block() -> IrBlock {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let slow = b.push(
            IrOp::Alu { op: AluOp::Div, a: Operand::LiveIn(Reg::A2), b: Operand::LiveIn(Reg::A3) },
            0,
            0,
        );
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Value(slow),
                base: Operand::LiveIn(Reg::A0),
                offset: 0,
            },
            4,
            1,
        );
        let c = b.push(IrOp::Const(0x2000), 8, 2);
        let a = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::Value(c), offset: 0 },
            8,
            2,
        );
        let addr = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(a), b: Operand::Imm(0x3000) },
            12,
            3,
        );
        let l = b.push(
            IrOp::Load { width: MemWidth::BYTE_U, base: Operand::Value(addr), offset: 0 },
            12,
            3,
        );
        b.push(IrOp::WriteReg { reg: Reg::A1, value: Operand::Value(l) }, 12, 3);
        b.push(IrOp::Halt, 16, 4);
        b
    }

    #[test]
    fn schedule_respects_hard_edges() {
        let block = spec_block();
        let graph = DepGraph::build(&block, DfgOptions::no_speculation());
        let sched = schedule(&block, &graph, 4).unwrap();
        for edge in graph.edges().iter().filter(|e| !e.relaxable) {
            let from = sched.placement(edge.from);
            let to = sched.placement(edge.to);
            assert!(
                (from.cycle, from.slot) < (to.cycle, to.slot),
                "edge {:?} violated: {from:?} !< {to:?}",
                edge
            );
        }
    }

    #[test]
    fn speculation_shortens_the_schedule() {
        let block = spec_block();
        let unsafe_graph = DepGraph::build(&block, DfgOptions::aggressive());
        let safe_graph = DepGraph::build(&block, DfgOptions::no_speculation());
        let unsafe_sched = schedule(&block, &unsafe_graph, 4).unwrap();
        let safe_sched = schedule(&block, &safe_graph, 4).unwrap();
        assert!(
            unsafe_sched.cycles() < safe_sched.cycles(),
            "speculation must shorten the schedule of the v4 block"
        );
        // With speculation the loads move above the slow store.
        let store = block.stores()[0];
        let first_load = block.loads()[0];
        assert!(unsafe_sched.is_before(first_load, store));
        assert!(!safe_sched.is_before(first_load, store));
    }

    #[test]
    fn terminator_is_scheduled_last() {
        let block = spec_block();
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        let sched = schedule(&block, &graph, 2).unwrap();
        let last = InstId(block.len() - 1);
        for i in 0..block.len() - 1 {
            assert!(sched.placement(InstId(i)) < sched.placement(last));
        }
    }

    #[test]
    fn issue_width_is_respected() {
        let block = spec_block();
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        for width in [1usize, 2, 4, 8] {
            let sched = schedule(&block, &graph, width).unwrap();
            let mut per_cycle = std::collections::HashMap::new();
            for p in sched.placements() {
                *per_cycle.entry(p.cycle).or_insert(0usize) += 1;
                assert!(p.slot < width);
            }
            assert!(per_cycle.values().all(|&count| count <= width));
        }
    }

    #[test]
    fn narrow_machine_needs_more_cycles() {
        let block = spec_block();
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        let wide = schedule(&block, &graph, 8).unwrap();
        let narrow = schedule(&block, &graph, 1).unwrap();
        assert!(narrow.cycles() >= wide.cycles());
    }

    #[test]
    fn side_exit_order_is_strict() {
        let mut b = IrBlock::new(0, BlockKind::Superblock { merged_blocks: 2 });
        b.push(
            IrOp::SideExit {
                cond: BranchCond::Eq,
                a: Operand::LiveIn(Reg::A0),
                b: Operand::Imm(0),
                target: 0x100,
            },
            0,
            0,
        );
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(1),
                base: Operand::LiveIn(Reg::A1),
                offset: 0,
            },
            4,
            1,
        );
        b.push(IrOp::Jump { target: 0x8 }, 8, 2);
        let graph = DepGraph::build(&b, DfgOptions::aggressive());
        let sched = schedule(&b, &graph, 4).unwrap();
        // The store (a committing op) must be in a strictly later cycle than
        // the side exit, so a taken exit can never let it commit.
        assert!(sched.placement(InstId(1)).cycle > sched.placement(InstId(0)).cycle);
    }

    #[test]
    fn ready_set_matches_the_reference_on_random_blocks() {
        let mut kinds = Vec::new();
        for index in 0..2_000 {
            let case = testgen::case(index);
            assert_eq!(
                list_schedule(&case.block, &case.graph, case.issue_width),
                schedule_reference(&case.block, &case.graph, case.issue_width),
                "case {index}"
            );
            for inst in case.block.insts() {
                if !kinds.contains(&discriminant(&inst.op)) {
                    kinds.push(discriminant(&inst.op));
                }
            }
        }
        assert_eq!(kinds.len(), 12, "the generator must emit every IR operation");
    }

    #[test]
    fn empty_block_schedules_in_zero_cycles() {
        let block = IrBlock::new(0, BlockKind::Basic);
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        let sched = schedule(&block, &graph, 4).unwrap();
        assert_eq!(sched.cycles(), 0);
        assert!(sched.placements().is_empty());
    }

    #[test]
    fn a_hard_cycle_reports_no_progress_like_the_reference() {
        let block = spec_block();
        let mut graph = DepGraph::build(&block, DfgOptions::aggressive());
        // Instruction 5 reads 4, which reads 3: closing 5 → 3 makes a cycle.
        graph.add_hard_edge(InstId(5), InstId(3), DepKind::Order);
        let result = schedule(&block, &graph, 4);
        assert_eq!(result, schedule_reference(&block, &graph, 4));
        assert_eq!(result, Err(ScheduleError::NoProgress { unscheduled: 5 }));
    }

    /// Two iterations of the Spectre PoCs' timed reload loop merged into one
    /// superblock: `t1 = rdcycle; v = lbu [probe + (i << 12)]; t3 = rdcycle;
    /// exit if t3 - t1 >= best; i += 1; exit if i >= 256`.
    fn timed_reload_superblock() -> IrBlock {
        let mut b = IrBlock::new(0x400, BlockKind::Superblock { merged_blocks: 2 });
        let mut seq = 0;
        let mut push = |b: &mut IrBlock, op| {
            seq += 1;
            b.push(op, 0x400 + 4 * seq as u64, seq)
        };
        let mut index = Operand::LiveIn(Reg::S2);
        for _ in 0..2 {
            let shifted = push(&mut b, IrOp::Alu { op: AluOp::Sll, a: index, b: Operand::Imm(12) });
            let entry = push(
                &mut b,
                IrOp::Alu {
                    op: AluOp::Add,
                    a: Operand::LiveIn(Reg::S3),
                    b: Operand::Value(shifted),
                },
            );
            let t1 = push(&mut b, IrOp::RdCycle);
            let probe = push(
                &mut b,
                IrOp::Load { width: MemWidth::BYTE_U, base: Operand::Value(entry), offset: 0 },
            );
            push(&mut b, IrOp::WriteReg { reg: Reg::T2, value: Operand::Value(probe) });
            let t3 = push(&mut b, IrOp::RdCycle);
            let delta = push(
                &mut b,
                IrOp::Alu { op: AluOp::Sub, a: Operand::Value(t3), b: Operand::Value(t1) },
            );
            push(
                &mut b,
                IrOp::SideExit {
                    cond: BranchCond::Geu,
                    a: Operand::Value(delta),
                    b: Operand::LiveIn(Reg::S5),
                    target: 0x500,
                },
            );
            let next = push(&mut b, IrOp::Alu { op: AluOp::Add, a: index, b: Operand::Imm(1) });
            push(
                &mut b,
                IrOp::SideExit {
                    cond: BranchCond::Geu,
                    a: Operand::Value(next),
                    b: Operand::Imm(256),
                    target: 0x600,
                },
            );
            index = Operand::Value(next);
        }
        push(&mut b, IrOp::Jump { target: 0x400 });
        b
    }

    /// Length of the longest run of empty cycles between two placements.
    fn longest_interior_idle_run(sched: &Schedule) -> u64 {
        let mut cycles: Vec<u64> = sched.placements().iter().map(|p| p.cycle).collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0)
    }

    #[test]
    fn hoist_fallback_fires_on_the_timed_reload_superblock() {
        let block = timed_reload_superblock();
        // The first iteration's exits wait for the second iteration's load,
        // which hard-depends on them through the order chain and the
        // rdcycle → load edge: the scheduler idles until the fallback.
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        let sched = schedule(&block, &graph, 4).unwrap();
        assert_eq!(Ok(sched.clone()), schedule_reference(&block, &graph, 4));
        assert!(
            longest_interior_idle_run(&sched) >= 17,
            "the hoist fallback must leave its idle cycles in the schedule"
        );
        // Without branch speculation there is nothing to hoist and no stall.
        let graph = DepGraph::build(&block, DfgOptions::no_speculation());
        let sched = schedule(&block, &graph, 4).unwrap();
        assert!(longest_interior_idle_run(&sched) < 17);
    }
}
