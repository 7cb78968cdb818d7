//! Dependency graph over an IR block, with speculation metadata.
//!
//! Edges encode "must not execute before" constraints. Some constraints can
//! be *relaxed* by the DBT engine — that relaxation is precisely the
//! speculation the paper attacks and mitigates:
//!
//! * a relaxable [`DepKind::Memory`] edge (store → later load whose address
//!   cannot be statically disambiguated) corresponds to Memory Conflict
//!   Buffer speculation (Spectre v4 analogue);
//! * a relaxable [`DepKind::Control`] edge (side exit → later load or
//!   computation) corresponds to trace-scheduling speculation over a biased
//!   branch (Spectre v1 analogue).
//!
//! The scheduler honours every edge whose `relaxable` flag is `false` and is
//! free to ignore relaxable edges (generating the appropriate run-time check
//! for ignored memory edges). The GhostBusters mitigation *hardens* selected
//! relaxable edges before scheduling.

use crate::block::IrBlock;
use crate::inst::IrOp;
use crate::value::{InstId, Operand};
use dbt_riscv::Reg;

/// The kind of a dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// True data dependency (value flows from producer to consumer).
    Data,
    /// Memory ordering between a store (or flush) and a later access that
    /// may alias it.
    Memory,
    /// Control dependency from a side exit to a later instruction.
    Control,
    /// Program-order chain between architecturally committing instructions.
    Order,
}

/// A dependency edge `from → to`: `to` must not execute before `from`
/// unless the edge is relaxable and the engine chooses to speculate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Source instruction (the one that must come first).
    pub from: InstId,
    /// Destination instruction (the dependent one).
    pub to: InstId,
    /// Kind of constraint.
    pub kind: DepKind,
    /// Whether the DBT engine may ignore the edge (speculate).
    pub relaxable: bool,
}

/// Which speculation mechanisms the DBT engine has enabled.
///
/// Turning both off is the paper's naive "No speculation" countermeasure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DfgOptions {
    /// Allow loads and computations to be hoisted above biased conditional
    /// branches (side exits) during trace scheduling.
    pub branch_speculation: bool,
    /// Allow loads to be hoisted above stores they may alias, backed by the
    /// Memory Conflict Buffer at run time.
    pub memory_speculation: bool,
}

impl DfgOptions {
    /// Both speculation mechanisms enabled (the unsafe baseline).
    pub fn aggressive() -> DfgOptions {
        DfgOptions { branch_speculation: true, memory_speculation: true }
    }

    /// Both speculation mechanisms disabled (the paper's naive mitigation).
    pub fn no_speculation() -> DfgOptions {
        DfgOptions { branch_speculation: false, memory_speculation: false }
    }
}

impl Default for DfgOptions {
    fn default() -> Self {
        DfgOptions::aggressive()
    }
}

/// Result of the static alias check between two memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alias {
    /// The accesses provably touch disjoint bytes.
    Disjoint,
    /// The accesses provably overlap.
    Same,
    /// Nothing can be proven at translation time.
    Unknown,
}

fn access_range(op: &IrOp) -> Option<(Operand, i64, u8)> {
    match op {
        IrOp::Load { width, base, offset } => Some((*base, *offset, width.bytes)),
        IrOp::Store { width, base, offset, .. } => Some((*base, *offset, width.bytes)),
        IrOp::CacheFlush { base, offset } => Some((*base, *offset, 1)),
        _ => None,
    }
}

fn alias(a: &IrOp, b: &IrOp) -> Alias {
    let (base_a, off_a, len_a) = match access_range(a) {
        Some(x) => x,
        None => return Alias::Unknown,
    };
    let (base_b, off_b, len_b) = match access_range(b) {
        Some(x) => x,
        None => return Alias::Unknown,
    };
    // Same symbolic base: compare offsets.
    let comparable = match (base_a, base_b) {
        (Operand::Imm(x), Operand::Imm(y)) => Some((x + off_a, y + off_b)),
        _ if base_a == base_b => Some((off_a, off_b)),
        _ => None,
    };
    match comparable {
        Some((start_a, start_b)) => {
            let end_a = start_a + len_a as i64;
            let end_b = start_b + len_b as i64;
            if end_a <= start_b || end_b <= start_a {
                Alias::Disjoint
            } else {
                Alias::Same
            }
        }
        None => Alias::Unknown,
    }
}

/// The dependency graph of one IR block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    node_count: usize,
    edges: Vec<DepEdge>,
}

impl DepGraph {
    /// Builds the dependency graph of `block` under the given speculation
    /// options.
    ///
    /// The construction rules are:
    ///
    /// * **Data** edges from each value operand's definition (never
    ///   relaxable);
    /// * **Memory** edges from every store/flush to every later load, store
    ///   or flush that may alias it. Store→load edges are relaxable when
    ///   `memory_speculation` is enabled and the pair cannot be statically
    ///   disambiguated; provably-disjoint pairs get no edge at all; all
    ///   other combinations are hard;
    /// * **Control** edges from every side exit to every later
    ///   non-committing instruction, relaxable when `branch_speculation` is
    ///   enabled;
    /// * **Order** edges chaining committing instructions (stores, register
    ///   commits, exits, flushes, fences, halts) and cycle-counter reads in
    ///   program order (never relaxable);
    /// * **Order** edges from every instruction that reads a guest
    ///   register's entry value ([`Operand::LiveIn`]) and commits nothing
    ///   to the next commit of that register after it (never relaxable),
    ///   so the read comes first wherever the scheduler places it. Without
    ///   them, a reader whose result flows into no later commit of the
    ///   register (a load into `x0`, the target of a `jalr` that links to
    ///   its own base register) could be placed after that commit and read
    ///   the new value. The order chain already puts a committing reader
    ///   first.
    pub fn build(block: &IrBlock, options: DfgOptions) -> DepGraph {
        let insts = block.insts();
        let mut edges = Vec::new();

        // Data dependencies.
        for inst in insts {
            for operand in inst.op.operands() {
                if let Some(def) = operand.def() {
                    edges.push(DepEdge {
                        from: def,
                        to: inst.id,
                        kind: DepKind::Data,
                        relaxable: false,
                    });
                }
            }
        }

        // Memory dependencies.
        for (i, earlier) in insts.iter().enumerate() {
            let earlier_writes =
                earlier.op.is_store() || matches!(earlier.op, IrOp::CacheFlush { .. });
            let earlier_reads = earlier.op.is_load();
            if !earlier_writes && !earlier_reads {
                continue;
            }
            for later in &insts[i + 1..] {
                let later_writes =
                    later.op.is_store() || matches!(later.op, IrOp::CacheFlush { .. });
                let later_reads = later.op.is_load();
                if !later_writes && !later_reads {
                    continue;
                }
                // read-after-read never needs ordering.
                if earlier_reads && !earlier_writes && later_reads && !later_writes {
                    continue;
                }
                match alias(&earlier.op, &later.op) {
                    Alias::Disjoint => {}
                    Alias::Same => {
                        edges.push(DepEdge {
                            from: earlier.id,
                            to: later.id,
                            kind: DepKind::Memory,
                            relaxable: false,
                        });
                    }
                    Alias::Unknown => {
                        // Only a true store → later load pair is a speculation
                        // candidate (cache flushes are never bypassed).
                        let relaxable = options.memory_speculation
                            && earlier.op.is_store()
                            && later_reads
                            && !later_writes;
                        edges.push(DepEdge {
                            from: earlier.id,
                            to: later.id,
                            kind: DepKind::Memory,
                            relaxable,
                        });
                    }
                }
            }
        }

        // Control dependencies from side exits.
        for (i, exit) in insts.iter().enumerate() {
            if !exit.op.is_side_exit() {
                continue;
            }
            for later in &insts[i + 1..] {
                if later.op.is_committing() || matches!(later.op, IrOp::RdCycle) {
                    // Ordering with committing instructions is handled by the
                    // Order chain, which is never relaxable.
                    continue;
                }
                edges.push(DepEdge {
                    from: exit.id,
                    to: later.id,
                    kind: DepKind::Control,
                    relaxable: options.branch_speculation,
                });
            }
        }

        // Cycle-counter reads serialise with memory accesses, as the CSR
        // read does on the real in-order core (the pipeline drains before
        // the counter is sampled). Without these edges the scheduler could
        // move a timed load outside its measurement window.
        for (i, inst) in insts.iter().enumerate() {
            if !matches!(inst.op, IrOp::RdCycle) {
                continue;
            }
            for earlier in &insts[..i] {
                if earlier.op.is_memory() {
                    edges.push(DepEdge {
                        from: earlier.id,
                        to: inst.id,
                        kind: DepKind::Order,
                        relaxable: false,
                    });
                }
            }
            for later in &insts[i + 1..] {
                if later.op.is_memory() {
                    edges.push(DepEdge {
                        from: inst.id,
                        to: later.id,
                        kind: DepKind::Order,
                        relaxable: false,
                    });
                }
            }
        }

        // Program-order chain over committing instructions (and rdcycle).
        let mut previous: Option<InstId> = None;
        for inst in insts {
            if inst.op.is_committing() || matches!(inst.op, IrOp::RdCycle) {
                if let Some(prev) = previous {
                    edges.push(DepEdge {
                        from: prev,
                        to: inst.id,
                        kind: DepKind::Order,
                        relaxable: false,
                    });
                }
                previous = Some(inst.id);
            }
        }

        // Entry-value reads before each register's next commit. A reader
        // that commits is already ordered before every later commit by the
        // chain above, so only the others get an edge. Walking backwards,
        // `next_commit` holds each register's next commit; the edges are
        // then put back in the order of their readers.
        let mut next_commit = [None; Reg::COUNT];
        let anti_start = edges.len();
        for inst in insts.iter().rev() {
            if let IrOp::WriteReg { reg, .. } = inst.op {
                next_commit[usize::from(reg.index())] = Some(inst.id);
            }
            if inst.op.is_committing() {
                continue;
            }
            let reads = inst.op.operands();
            for (index, operand) in reads.iter().enumerate() {
                let Operand::LiveIn(reg) = *operand else { continue };
                // Both operands may read one register.
                if reads[..index].contains(operand) {
                    continue;
                }
                if let Some(commit) = next_commit[usize::from(reg.index())] {
                    edges.push(DepEdge {
                        from: inst.id,
                        to: commit,
                        kind: DepKind::Order,
                        relaxable: false,
                    });
                }
            }
        }
        edges[anti_start..].reverse();

        DepGraph { node_count: insts.len(), edges }
    }

    /// Number of instructions the graph spans.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Edges into `to`.
    pub fn preds(&self, to: InstId) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.to == to)
    }

    /// Edges out of `from`.
    pub fn succs(&self, from: InstId) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.from == from)
    }

    /// Relaxable edges into `to` (the speculation opportunities affecting it).
    pub fn relaxable_preds(&self, to: InstId) -> impl Iterator<Item = &DepEdge> {
        self.preds(to).filter(|e| e.relaxable)
    }

    /// Returns `true` if `id` has at least one relaxable incoming edge, i.e.
    /// the engine may execute it speculatively.
    pub fn is_speculation_candidate(&self, id: InstId) -> bool {
        self.relaxable_preds(id).next().is_some()
    }

    /// Hardens (makes non-relaxable) every relaxable edge into `to` coming
    /// from `from`. Returns the number of edges hardened.
    ///
    /// This is the primitive the GhostBusters mitigation uses to re-insert
    /// a control dependency between a risky speculative access and the
    /// instruction that causes the speculation.
    pub fn harden(&mut self, from: InstId, to: InstId) -> usize {
        let mut count = 0;
        for edge in &mut self.edges {
            if edge.from == from && edge.to == to && edge.relaxable {
                edge.relaxable = false;
                count += 1;
            }
        }
        count
    }

    /// Hardens every relaxable edge into `to`. Returns the number hardened.
    pub fn harden_all_preds(&mut self, to: InstId) -> usize {
        let mut count = 0;
        for edge in &mut self.edges {
            if edge.to == to && edge.relaxable {
                edge.relaxable = false;
                count += 1;
            }
        }
        count
    }

    /// Adds an explicit hard control edge (used by the fence mitigation).
    pub fn add_hard_edge(&mut self, from: InstId, to: InstId, kind: DepKind) {
        self.edges.push(DepEdge { from, to, kind, relaxable: false });
    }

    /// Number of relaxable edges remaining.
    pub fn relaxable_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.relaxable).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockKind;
    use crate::inst::MemWidth;
    use dbt_riscv::inst::AluOp;
    use dbt_riscv::{BranchCond, Reg};

    /// Builds the Spectre-v4-like block of the paper's Figure 3:
    ///
    /// ```text
    /// store addrBuf[k] <- ...         (unknown k)
    /// v_a   = load addrBuf[0]
    /// v_b   = load buffer[v_a]
    /// v_c   = load probe[v_b << 7]
    /// halt
    /// ```
    fn figure3_block() -> IrBlock {
        let mut b = IrBlock::new(0x1000, BlockKind::Superblock { merged_blocks: 2 });
        let addr_buf = b.push(IrOp::Const(0x2000), 0x1000, 0);
        let unknown_slot = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(addr_buf), b: Operand::LiveIn(Reg::A3) },
            0x1004,
            1,
        );
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::LiveIn(Reg::A4),
                base: Operand::Value(unknown_slot),
                offset: 0,
            },
            0x1008,
            2,
        );
        let a = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::Value(addr_buf), offset: 0 },
            0x100c,
            3,
        );
        let buffer = b.push(IrOp::Const(0x3000), 0x1010, 4);
        let addr1 = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(buffer), b: Operand::Value(a) },
            0x1014,
            5,
        );
        let bval = b.push(
            IrOp::Load { width: MemWidth::BYTE_U, base: Operand::Value(addr1), offset: 0 },
            0x1018,
            6,
        );
        let shifted = b.push(
            IrOp::Alu { op: AluOp::Sll, a: Operand::Value(bval), b: Operand::Imm(7) },
            0x101c,
            7,
        );
        let probe = b.push(IrOp::Const(0x8000), 0x1020, 8);
        let addr2 = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(probe), b: Operand::Value(shifted) },
            0x1024,
            9,
        );
        b.push(
            IrOp::Load { width: MemWidth::BYTE_U, base: Operand::Value(addr2), offset: 0 },
            0x1028,
            10,
        );
        b.push(IrOp::Halt, 0x102c, 11);
        b
    }

    #[test]
    fn figure3_loads_are_relaxable_under_memory_speculation() {
        let block = figure3_block();
        assert_eq!(block.validate(), Ok(()));
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        let loads = block.loads();
        assert_eq!(loads.len(), 3);
        for load in &loads {
            assert!(graph.is_speculation_candidate(*load), "{load} should be relaxable");
        }
        // The relaxable edges all come from the store.
        let store = block.stores()[0];
        for load in &loads {
            assert!(graph
                .relaxable_preds(*load)
                .any(|e| e.from == store && e.kind == DepKind::Memory));
        }
    }

    #[test]
    fn figure3_without_memory_speculation_has_hard_edges() {
        let block = figure3_block();
        let graph = DepGraph::build(&block, DfgOptions::no_speculation());
        assert_eq!(graph.relaxable_edge_count(), 0);
        let store = block.stores()[0];
        for load in block.loads() {
            assert!(graph
                .preds(load)
                .any(|e| e.from == store && e.kind == DepKind::Memory && !e.relaxable));
        }
    }

    #[test]
    fn harden_removes_relaxability() {
        let block = figure3_block();
        let mut graph = DepGraph::build(&block, DfgOptions::aggressive());
        let store = block.stores()[0];
        let last_load = *block.loads().last().unwrap();
        assert!(graph.is_speculation_candidate(last_load));
        assert_eq!(graph.harden(store, last_load), 1);
        assert!(graph.preds(last_load).all(|e| e.from != store || !e.relaxable));
    }

    #[test]
    fn control_edges_from_side_exits() {
        let mut b = IrBlock::new(0, BlockKind::Superblock { merged_blocks: 2 });
        let size = b.push(IrOp::Const(16), 0, 0);
        b.push(
            IrOp::SideExit {
                cond: BranchCond::Geu,
                a: Operand::LiveIn(Reg::A0),
                b: Operand::Value(size),
                target: 0x9000,
            },
            4,
            1,
        );
        let buffer = b.push(IrOp::Const(0x3000), 8, 2);
        let addr = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::Value(buffer), b: Operand::LiveIn(Reg::A0) },
            8,
            2,
        );
        let load = b.push(
            IrOp::Load { width: MemWidth::BYTE_U, base: Operand::Value(addr), offset: 0 },
            12,
            3,
        );
        b.push(IrOp::WriteReg { reg: Reg::A1, value: Operand::Value(load) }, 12, 3);
        b.push(IrOp::Jump { target: 0x10 }, 16, 4);
        assert_eq!(b.validate(), Ok(()));

        let exit = b.side_exits()[0];
        let graph = DepGraph::build(&b, DfgOptions::aggressive());
        assert!(graph
            .preds(load)
            .any(|e| e.from == exit && e.kind == DepKind::Control && e.relaxable));

        let graph =
            DepGraph::build(&b, DfgOptions { branch_speculation: false, memory_speculation: true });
        assert!(graph
            .preds(load)
            .any(|e| e.from == exit && e.kind == DepKind::Control && !e.relaxable));

        // The register commit is protected by the order chain, not by a
        // relaxable control edge.
        let commit = InstId(5);
        assert!(DepGraph::build(&b, DfgOptions::aggressive()).preds(commit).all(|e| !e.relaxable));
    }

    #[test]
    fn provably_disjoint_accesses_get_no_memory_edge() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let base = b.push(IrOp::Const(0x1000), 0, 0);
        b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(1),
                base: Operand::Value(base),
                offset: 0,
            },
            0,
            1,
        );
        let load = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::Value(base), offset: 8 },
            4,
            2,
        );
        b.push(IrOp::WriteReg { reg: Reg::A0, value: Operand::Value(load) }, 4, 2);
        b.push(IrOp::Halt, 8, 3);
        let graph = DepGraph::build(&b, DfgOptions::no_speculation());
        assert!(graph.preds(load).all(|e| e.kind != DepKind::Memory));
    }

    #[test]
    fn provably_overlapping_accesses_get_hard_memory_edge() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let base = b.push(IrOp::Const(0x1000), 0, 0);
        let store = b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(1),
                base: Operand::Value(base),
                offset: 0,
            },
            0,
            1,
        );
        let load = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::Value(base), offset: 0 },
            4,
            2,
        );
        b.push(IrOp::WriteReg { reg: Reg::A0, value: Operand::Value(load) }, 4, 2);
        b.push(IrOp::Halt, 8, 3);
        let graph = DepGraph::build(&b, DfgOptions::aggressive());
        assert!(graph
            .preds(load)
            .any(|e| e.from == store && e.kind == DepKind::Memory && !e.relaxable));
    }

    #[test]
    fn order_chain_links_committing_instructions() {
        let block = figure3_block();
        let graph = DepGraph::build(&block, DfgOptions::aggressive());
        // store (id 2) and halt (last) are chained.
        let store = block.stores()[0];
        let halt = InstId(block.len() - 1);
        assert!(graph.preds(halt).any(|e| e.from == store && e.kind == DepKind::Order));
    }

    /// The `Order` edges out of instructions that commit nothing and read
    /// no cycle counter: in blocks without `rdcycle`, the edges from entry
    /// value reads to commits.
    fn read_before_commit_edges(block: &IrBlock, graph: &DepGraph) -> Vec<(usize, usize)> {
        let reader = |id: InstId| {
            let op = &block.inst(id).op;
            !op.is_committing() && !matches!(op, IrOp::RdCycle)
        };
        let edges = graph.edges().iter().filter(|e| e.kind == DepKind::Order && reader(e.from));
        edges.map(|e| (e.from.index(), e.to.index())).collect()
    }

    #[test]
    fn an_entry_value_read_comes_before_that_registers_next_commit_only() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let a1 = b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::LiveIn(Reg::A1), offset: 0 },
            0,
            0,
        );
        b.push(IrOp::WriteReg { reg: Reg::A2, value: Operand::Value(a1) }, 0, 0);
        let bumped = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::LiveIn(Reg::A0), b: Operand::LiveIn(Reg::A0) },
            4,
            1,
        );
        // A load into `x0`: it reads a0 and commits nothing.
        b.push(
            IrOp::Load { width: MemWidth::DOUBLE, base: Operand::LiveIn(Reg::A0), offset: 0 },
            8,
            2,
        );
        b.push(IrOp::WriteReg { reg: Reg::A0, value: Operand::Value(bumped) }, 12, 3);
        b.push(IrOp::WriteReg { reg: Reg::A0, value: Operand::Imm(1) }, 16, 4);
        b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::LiveIn(Reg::A1), b: Operand::Imm(1) },
            20,
            5,
        );
        b.push(IrOp::Halt, 24, 6);
        assert_eq!(b.validate(), Ok(()));
        // Each reader of a0 gets one edge, to the first commit of a0 after
        // it; nothing goes to the second commit of a0, to the commit of a2,
        // or from the reads of a1, which nothing commits.
        for options in [DfgOptions::aggressive(), DfgOptions::no_speculation()] {
            let graph = DepGraph::build(&b, options);
            assert_eq!(read_before_commit_edges(&b, &graph), [(2, 4), (3, 4)]);
        }
    }

    #[test]
    fn a_jalr_target_reads_its_base_before_the_link_commit() {
        // `jalr ra, 0(ra)`: the target and the link both name ra.
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let target = b.push(
            IrOp::Alu { op: AluOp::Add, a: Operand::LiveIn(Reg::RA), b: Operand::Imm(0) },
            0,
            0,
        );
        let link = b.push(IrOp::Const(4), 0, 0);
        let commit = b.push(IrOp::WriteReg { reg: Reg::RA, value: Operand::Value(link) }, 0, 0);
        b.push(IrOp::JumpIndirect { target: Operand::Value(target) }, 0, 0);
        assert_eq!(b.validate(), Ok(()));
        let graph = DepGraph::build(&b, DfgOptions::aggressive());
        assert!(graph
            .preds(commit)
            .any(|e| e.from == target && e.kind == DepKind::Order && !e.relaxable));
        assert_eq!(read_before_commit_edges(&b, &graph), [(0, 2)]);
    }

    #[test]
    fn stores_to_unknown_addresses_stay_ordered() {
        let mut b = IrBlock::new(0, BlockKind::Basic);
        let s1 = b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(1),
                base: Operand::LiveIn(Reg::A0),
                offset: 0,
            },
            0,
            0,
        );
        let s2 = b.push(
            IrOp::Store {
                width: MemWidth::DOUBLE,
                value: Operand::Imm(2),
                base: Operand::LiveIn(Reg::A1),
                offset: 0,
            },
            4,
            1,
        );
        b.push(IrOp::Halt, 8, 2);
        let graph = DepGraph::build(&b, DfgOptions::aggressive());
        // store→store must never be relaxable.
        assert!(graph.preds(s2).any(|e| e.from == s1 && !e.relaxable));
    }
}
