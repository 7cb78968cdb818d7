//! Guest path selection: basic blocks for the first translation pass and
//! profile-guided superblocks (traces) for hot code.

use crate::config::DbtConfig;
use crate::engine::DbtError;
use crate::profile::Profile;
use dbt_riscv::{decode, GuestMemory, Inst, Reg};

/// One guest instruction on a path, together with the trace-formation
/// decision taken for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathElement {
    /// Guest address of the instruction.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// For conditional branches that the trace follows through:
    /// `Some(true)` if the trace follows the taken direction, `Some(false)`
    /// if it follows the fall-through. `None` for every other instruction
    /// and for a trace-ending branch.
    pub follow_taken: Option<bool>,
}

/// A selected guest path: the unit handed to the translator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GuestPath {
    /// Guest address of the first instruction.
    pub entry_pc: u64,
    /// The instructions of the path, in execution order.
    pub elements: Vec<PathElement>,
    /// Static continuation address, when the last element does not already
    /// terminate the block (`ecall`, `jalr`).
    pub fallthrough: Option<u64>,
    /// Number of guest basic blocks merged into the path.
    pub merged_blocks: usize,
}

impl GuestPath {
    /// Number of guest instructions on the path.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the path is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

fn fetch(mem: &GuestMemory, pc: u64) -> Result<Inst, DbtError> {
    let word = mem.load_u32(pc).map_err(|_| DbtError::Fetch { pc })?;
    decode(word).map_err(DbtError::Decode)
}

/// Builds the single-basic-block path starting at `entry_pc` (first-pass
/// translation: no profile information needed, no speculation applied).
///
/// # Errors
///
/// Returns [`DbtError`] if an instruction cannot be fetched or decoded.
pub fn build_basic_block(
    mem: &GuestMemory,
    entry_pc: u64,
    config: &DbtConfig,
) -> Result<GuestPath, DbtError> {
    let mut elements = Vec::new();
    let mut pc = entry_pc;
    loop {
        if elements.len() >= config.max_trace_guest_insts {
            return Ok(GuestPath { entry_pc, elements, fallthrough: Some(pc), merged_blocks: 1 });
        }
        let inst = fetch(mem, pc)?;
        match inst {
            Inst::Branch { .. } => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                return Ok(GuestPath {
                    entry_pc,
                    elements,
                    fallthrough: Some(pc + 4),
                    merged_blocks: 1,
                });
            }
            Inst::Jal { offset, .. } => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                return Ok(GuestPath {
                    entry_pc,
                    elements,
                    fallthrough: Some(pc.wrapping_add(offset as u64)),
                    merged_blocks: 1,
                });
            }
            Inst::Jalr { .. } | Inst::Ecall | Inst::Ebreak => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                return Ok(GuestPath { entry_pc, elements, fallthrough: None, merged_blocks: 1 });
            }
            _ => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                pc += 4;
            }
        }
    }
}

/// Builds a profile-guided superblock starting at `entry_pc`: basic blocks
/// are merged along branches whose bias reaches
/// [`DbtConfig::branch_bias_threshold`]; unconditional jumps are followed;
/// the trace stops at indirect jumps, `ecall`, unbiased branches or when
/// [`DbtConfig::max_trace_guest_insts`] is reached. Backward branches that
/// are biased taken naturally produce partially unrolled loop bodies.
///
/// # Errors
///
/// Returns [`DbtError`] if an instruction cannot be fetched or decoded.
pub fn build_superblock(
    mem: &GuestMemory,
    entry_pc: u64,
    profile: &Profile,
    config: &DbtConfig,
) -> Result<GuestPath, DbtError> {
    let mut elements = Vec::new();
    let mut pc = entry_pc;
    let mut merged_blocks = 1usize;
    loop {
        if elements.len() >= config.max_trace_guest_insts {
            return Ok(GuestPath { entry_pc, elements, fallthrough: Some(pc), merged_blocks });
        }
        let inst = fetch(mem, pc)?;
        match inst {
            Inst::Branch { offset, .. } => {
                match profile.biased_direction(pc, config.branch_bias_threshold) {
                    Some(true) => {
                        elements.push(PathElement { pc, inst, follow_taken: Some(true) });
                        merged_blocks += 1;
                        pc = pc.wrapping_add(offset as u64);
                    }
                    Some(false) => {
                        elements.push(PathElement { pc, inst, follow_taken: Some(false) });
                        merged_blocks += 1;
                        pc += 4;
                    }
                    None => {
                        elements.push(PathElement { pc, inst, follow_taken: None });
                        return Ok(GuestPath {
                            entry_pc,
                            elements,
                            fallthrough: Some(pc + 4),
                            merged_blocks,
                        });
                    }
                }
            }
            Inst::Jal { rd, offset } => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                let target = pc.wrapping_add(offset as u64);
                if rd == Reg::ZERO || rd == Reg::RA {
                    // Follow unconditional jumps and inline direct calls.
                    merged_blocks += 1;
                    pc = target;
                } else {
                    return Ok(GuestPath {
                        entry_pc,
                        elements,
                        fallthrough: Some(target),
                        merged_blocks,
                    });
                }
            }
            Inst::Jalr { .. } | Inst::Ecall | Inst::Ebreak => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                return Ok(GuestPath { entry_pc, elements, fallthrough: None, merged_blocks });
            }
            _ => {
                elements.push(PathElement { pc, inst, follow_taken: None });
                pc += 4;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{Assembler, Reg};

    /// a small victim: loop with a biased branch guarding two loads.
    fn sample_memory() -> (GuestMemory, u64) {
        let mut asm = Assembler::new();
        let buf = asm.alloc_data("buf", 64);
        let body = asm.new_label();
        let skip = asm.new_label();
        asm.li(Reg::T0, 10); // counter
        asm.bind(body);
        asm.li(Reg::T1, 4);
        asm.bge(Reg::T0, Reg::T1, skip); // mostly taken at first, later not
        asm.la(Reg::A0, buf);
        asm.lb(Reg::A1, Reg::A0, 0);
        asm.bind(skip);
        asm.addi(Reg::T0, Reg::T0, -1);
        asm.bnez(Reg::T0, body);
        asm.ecall();
        let program = asm.assemble().unwrap();
        let entry = program.entry();
        (program.build_memory().unwrap(), entry)
    }

    #[test]
    fn basic_block_stops_at_first_branch() {
        let (mem, entry) = sample_memory();
        let config = DbtConfig::default();
        let path = build_basic_block(&mem, entry, &config).unwrap();
        assert!(!path.is_empty());
        assert_eq!(path.merged_blocks, 1);
        assert!(matches!(path.elements.last().unwrap().inst, Inst::Branch { .. }));
        assert!(path.fallthrough.is_some());
    }

    #[test]
    fn superblock_follows_biased_branches() {
        let (mem, entry) = sample_memory();
        let config = DbtConfig::default();
        let mut profile = Profile::new();
        // Find the first branch PC by walking the basic block.
        let first = build_basic_block(&mem, entry, &config).unwrap();
        let branch_pc = first.elements.last().unwrap().pc;
        for _ in 0..20 {
            profile.record_branch(branch_pc, true);
        }
        let trace = build_superblock(&mem, entry, &profile, &config).unwrap();
        assert!(trace.merged_blocks > 1, "biased branch should be merged through");
        assert!(trace.len() > first.len());
        let element = trace.elements.iter().find(|e| e.pc == branch_pc).unwrap();
        assert_eq!(element.follow_taken, Some(true));
    }

    #[test]
    fn superblock_stops_at_unbiased_branch() {
        let (mem, entry) = sample_memory();
        let config = DbtConfig::default();
        let profile = Profile::new();
        let trace = build_superblock(&mem, entry, &profile, &config).unwrap();
        assert_eq!(trace.merged_blocks, 1);
        assert!(matches!(trace.elements.last().unwrap().inst, Inst::Branch { .. }));
    }

    #[test]
    fn trace_length_is_bounded() {
        // An infinite loop: jal to itself.
        let mut asm = Assembler::new();
        let spin = asm.new_label();
        asm.bind(spin);
        asm.nop();
        asm.jump(spin);
        let program = asm.assemble().unwrap();
        let mem = program.build_memory().unwrap();
        let config = DbtConfig { max_trace_guest_insts: 10, ..DbtConfig::default() };
        let trace = build_superblock(&mem, program.entry(), &Profile::new(), &config).unwrap();
        assert!(trace.len() <= 10);
        assert!(trace.fallthrough.is_some());
    }

    #[test]
    fn ecall_ends_path_without_fallthrough() {
        let mut asm = Assembler::new();
        asm.nop();
        asm.ecall();
        let program = asm.assemble().unwrap();
        let mem = program.build_memory().unwrap();
        let path = build_basic_block(&mem, program.entry(), &DbtConfig::default()).unwrap();
        assert_eq!(path.fallthrough, None);
        assert!(matches!(path.elements.last().unwrap().inst, Inst::Ecall));
    }

    #[test]
    fn fetch_error_is_reported() {
        let mem = GuestMemory::new(16);
        assert!(matches!(
            build_basic_block(&mem, 64, &DbtConfig::default()),
            Err(DbtError::Fetch { pc: 64 })
        ));
        // All-zero memory decodes to an invalid instruction.
        assert!(matches!(
            build_basic_block(&mem, 0, &DbtConfig::default()),
            Err(DbtError::Decode(_))
        ));
    }
}
