//! Guest instruction set: a pragmatic rv64im subset plus the two
//! platform-specific instructions used by the Spectre proof-of-concepts.

use crate::reg::Reg;
use std::fmt;

/// Width (and sign treatment) of a load instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadWidth {
    /// `lb` — sign-extended byte.
    Byte,
    /// `lbu` — zero-extended byte.
    ByteU,
    /// `lh` — sign-extended half-word.
    Half,
    /// `lhu` — zero-extended half-word.
    HalfU,
    /// `lw` — sign-extended word.
    Word,
    /// `lwu` — zero-extended word.
    WordU,
    /// `ld` — double word.
    Double,
}

impl LoadWidth {
    /// Number of bytes accessed.
    pub fn bytes(self) -> u64 {
        match self {
            LoadWidth::Byte | LoadWidth::ByteU => 1,
            LoadWidth::Half | LoadWidth::HalfU => 2,
            LoadWidth::Word | LoadWidth::WordU => 4,
            LoadWidth::Double => 8,
        }
    }

    /// Whether the loaded value is sign-extended to 64 bits.
    pub fn sign_extends(self) -> bool {
        matches!(self, LoadWidth::Byte | LoadWidth::Half | LoadWidth::Word | LoadWidth::Double)
    }
}

/// Width of a store instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreWidth {
    /// `sb` — byte.
    Byte,
    /// `sh` — half-word.
    Half,
    /// `sw` — word.
    Word,
    /// `sd` — double word.
    Double,
}

impl StoreWidth {
    /// Number of bytes accessed.
    pub fn bytes(self) -> u64 {
        match self {
            StoreWidth::Byte => 1,
            StoreWidth::Half => 2,
            StoreWidth::Word => 4,
            StoreWidth::Double => 8,
        }
    }
}

/// Condition of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `beq`
    Eq,
    /// `bne`
    Ne,
    /// `blt` (signed)
    Lt,
    /// `bge` (signed)
    Ge,
    /// `bltu` (unsigned)
    Ltu,
    /// `bgeu` (unsigned)
    Geu,
}

impl BranchCond {
    /// Evaluates the branch condition on two 64-bit register values.
    #[inline]
    pub fn eval(self, lhs: u64, rhs: u64) -> bool {
        match self {
            BranchCond::Eq => lhs == rhs,
            BranchCond::Ne => lhs != rhs,
            BranchCond::Lt => (lhs as i64) < (rhs as i64),
            BranchCond::Ge => (lhs as i64) >= (rhs as i64),
            BranchCond::Ltu => lhs < rhs,
            BranchCond::Geu => lhs >= rhs,
        }
    }

    /// The condition testing the opposite outcome.
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Ltu => BranchCond::Geu,
            BranchCond::Geu => BranchCond::Ltu,
        }
    }

    /// Assembly mnemonic (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Ltu => "bltu",
            BranchCond::Geu => "bgeu",
        }
    }
}

/// Register-register ALU operation (`op rd, rs1, rs2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`
    Add,
    /// `sub`
    Sub,
    /// `sll`
    Sll,
    /// `slt` (signed set-less-than)
    Slt,
    /// `sltu`
    Sltu,
    /// `xor`
    Xor,
    /// `srl`
    Srl,
    /// `sra`
    Sra,
    /// `or`
    Or,
    /// `and`
    And,
    /// `mul` (M extension)
    Mul,
    /// `mulh` (M extension)
    Mulh,
    /// `div` (M extension, signed)
    Div,
    /// `divu` (M extension)
    Divu,
    /// `rem` (M extension, signed)
    Rem,
    /// `remu` (M extension)
    Remu,
    /// `addw` (32-bit add, sign-extended result)
    Addw,
    /// `subw`
    Subw,
    /// `mulw`
    Mulw,
}

impl AluOp {
    /// Applies the operation to two 64-bit values.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluOp::Slt => ((a as i64) < (b as i64)) as u64,
            AluOp::Sltu => (a < b) as u64,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr((b & 0x3f) as u32),
            AluOp::Sra => ((a as i64).wrapping_shr((b & 0x3f) as u32)) as u64,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Mulh => (((a as i64 as i128).wrapping_mul(b as i64 as i128)) >> 64) as u64,
            AluOp::Div => {
                if b == 0 {
                    u64::MAX
                } else if (a as i64) == i64::MIN && (b as i64) == -1 {
                    a
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if b == 0 {
                    a
                } else if (a as i64) == i64::MIN && (b as i64) == -1 {
                    0
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            AluOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            AluOp::Addw => ((a as i32).wrapping_add(b as i32)) as i64 as u64,
            AluOp::Subw => ((a as i32).wrapping_sub(b as i32)) as i64 as u64,
            AluOp::Mulw => ((a as i32).wrapping_mul(b as i32)) as i64 as u64,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Sll => "sll",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Xor => "xor",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Or => "or",
            AluOp::And => "and",
            AluOp::Mul => "mul",
            AluOp::Mulh => "mulh",
            AluOp::Div => "div",
            AluOp::Divu => "divu",
            AluOp::Rem => "rem",
            AluOp::Remu => "remu",
            AluOp::Addw => "addw",
            AluOp::Subw => "subw",
            AluOp::Mulw => "mulw",
        }
    }
}

/// Register-immediate ALU operation (`op rd, rs1, imm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// `addi`
    Addi,
    /// `slti`
    Slti,
    /// `sltiu`
    Sltiu,
    /// `xori`
    Xori,
    /// `ori`
    Ori,
    /// `andi`
    Andi,
    /// `slli`
    Slli,
    /// `srli`
    Srli,
    /// `srai`
    Srai,
    /// `addiw`
    Addiw,
}

impl AluImmOp {
    /// Applies the operation to a register value and a sign-extended immediate.
    pub fn apply(self, a: u64, imm: i64) -> u64 {
        let b = imm as u64;
        match self {
            AluImmOp::Addi => a.wrapping_add(b),
            AluImmOp::Slti => ((a as i64) < imm) as u64,
            AluImmOp::Sltiu => (a < b) as u64,
            AluImmOp::Xori => a ^ b,
            AluImmOp::Ori => a | b,
            AluImmOp::Andi => a & b,
            AluImmOp::Slli => a.wrapping_shl((b & 0x3f) as u32),
            AluImmOp::Srli => a.wrapping_shr((b & 0x3f) as u32),
            AluImmOp::Srai => ((a as i64).wrapping_shr((b & 0x3f) as u32)) as u64,
            AluImmOp::Addiw => ((a as i32).wrapping_add(imm as i32)) as i64 as u64,
        }
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Slti => "slti",
            AluImmOp::Sltiu => "sltiu",
            AluImmOp::Xori => "xori",
            AluImmOp::Ori => "ori",
            AluImmOp::Andi => "andi",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Srai => "srai",
            AluImmOp::Addiw => "addiw",
        }
    }
}

/// A guest instruction.
///
/// The subset covers everything the Polybench-style workloads and the
/// Spectre proof-of-concepts need: integer ALU (I and M extensions), loads,
/// stores, conditional branches, `jal`/`jalr`, `lui`/`auipc`, `ecall`
/// (used as the program-exit convention), a cycle-CSR read and an explicit
/// data-cache line flush.
///
/// `RdCycle` models `csrrs rd, cycle, x0`; `CacheFlush` is a custom
/// instruction standing in for the explicit line-by-line flush the paper's
/// RISC-V attack performs (documented as a substitution in `DESIGN.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `lui rd, imm` — load upper immediate (imm is the already-shifted value).
    Lui { rd: Reg, imm: i64 },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc { rd: Reg, imm: i64 },
    /// Register-register ALU operation.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// Register-immediate ALU operation.
    AluImm { op: AluImmOp, rd: Reg, rs1: Reg, imm: i64 },
    /// Load from memory: `rd <- mem[rs1 + offset]`.
    Load { width: LoadWidth, rd: Reg, rs1: Reg, offset: i64 },
    /// Store to memory: `mem[rs1 + offset] <- rs2`.
    Store { width: StoreWidth, rs2: Reg, rs1: Reg, offset: i64 },
    /// Conditional branch: `if cond(rs1, rs2) pc += offset`.
    Branch { cond: BranchCond, rs1: Reg, rs2: Reg, offset: i64 },
    /// `jal rd, offset` — jump and link.
    Jal { rd: Reg, offset: i64 },
    /// `jalr rd, rs1, offset` — indirect jump and link.
    Jalr { rd: Reg, rs1: Reg, offset: i64 },
    /// `ecall` — environment call; the platform treats it as program exit.
    Ecall,
    /// `ebreak` — breakpoint; the platform treats it as an error stop.
    Ebreak,
    /// `fence` — memory ordering fence (also stops DBT speculation across it).
    Fence,
    /// Read the cycle CSR into `rd` (models `rdcycle rd`).
    RdCycle { rd: Reg },
    /// Flush the data-cache line containing address `rs1 + offset`.
    CacheFlush { rs1: Reg, offset: i64 },
    /// No operation (canonical `addi x0, x0, 0` is also accepted).
    Nop,
}

impl Inst {
    /// Returns `true` for instructions that terminate a basic block
    /// (branches, jumps, `ecall`, `ebreak`).
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::Jalr { .. } | Inst::Ecall | Inst::Ebreak
        )
    }

    /// Returns `true` for memory accesses (loads, stores, cache flushes).
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. } | Inst::CacheFlush { .. })
    }

    /// Destination register, if the instruction writes one.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Inst::Lui { rd, .. }
            | Inst::Auipc { rd, .. }
            | Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::RdCycle { rd } => {
                if rd.is_zero() {
                    None
                } else {
                    Some(rd)
                }
            }
            _ => None,
        }
    }

    /// Source registers read by the instruction (x0 included if encoded).
    pub fn sources(&self) -> Vec<Reg> {
        match *self {
            Inst::Alu { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::AluImm { rs1, .. } => vec![rs1],
            Inst::Load { rs1, .. } => vec![rs1],
            Inst::Store { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            Inst::Jalr { rs1, .. } => vec![rs1],
            Inst::CacheFlush { rs1, .. } => vec![rs1],
            _ => vec![],
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm),
            Inst::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm),
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic())
            }
            Inst::Load { width, rd, rs1, offset } => {
                let m = match width {
                    LoadWidth::Byte => "lb",
                    LoadWidth::ByteU => "lbu",
                    LoadWidth::Half => "lh",
                    LoadWidth::HalfU => "lhu",
                    LoadWidth::Word => "lw",
                    LoadWidth::WordU => "lwu",
                    LoadWidth::Double => "ld",
                };
                write!(f, "{m} {rd}, {offset}({rs1})")
            }
            Inst::Store { width, rs2, rs1, offset } => {
                let m = match width {
                    StoreWidth::Byte => "sb",
                    StoreWidth::Half => "sh",
                    StoreWidth::Word => "sw",
                    StoreWidth::Double => "sd",
                };
                write!(f, "{m} {rs2}, {offset}({rs1})")
            }
            Inst::Branch { cond, rs1, rs2, offset } => {
                write!(f, "{} {rs1}, {rs2}, {offset}", cond.mnemonic())
            }
            Inst::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Inst::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Inst::Ecall => write!(f, "ecall"),
            Inst::Ebreak => write!(f, "ebreak"),
            Inst::Fence => write!(f, "fence"),
            Inst::RdCycle { rd } => write!(f, "rdcycle {rd}"),
            Inst::CacheFlush { rs1, offset } => write!(f, "cflush {offset}({rs1})"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_cond_eval_and_negate() {
        assert!(BranchCond::Eq.eval(4, 4));
        assert!(!BranchCond::Eq.eval(4, 5));
        assert!(BranchCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BranchCond::Ltu.eval((-1i64) as u64, 0));
        for c in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Ltu,
            BranchCond::Geu,
        ] {
            for (a, b) in [(0u64, 0u64), (1, 2), (u64::MAX, 1)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn alu_ops_basic() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), (-1i64) as u64);
        assert_eq!(AluOp::Sll.apply(1, 4), 16);
        assert_eq!(AluOp::Sra.apply((-16i64) as u64, 2), (-4i64) as u64);
        assert_eq!(AluOp::Slt.apply((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.apply((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
    }

    #[test]
    fn division_by_zero_follows_riscv_semantics() {
        assert_eq!(AluOp::Div.apply(10, 0), u64::MAX);
        assert_eq!(AluOp::Divu.apply(10, 0), u64::MAX);
        assert_eq!(AluOp::Rem.apply(10, 0), 10);
        assert_eq!(AluOp::Remu.apply(10, 0), 10);
    }

    #[test]
    fn division_overflow_follows_riscv_semantics() {
        let min = i64::MIN as u64;
        assert_eq!(AluOp::Div.apply(min, (-1i64) as u64), min);
        assert_eq!(AluOp::Rem.apply(min, (-1i64) as u64), 0);
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(AluOp::Addw.apply(0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(AluImmOp::Addiw.apply(0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
    }

    #[test]
    fn alu_imm_ops_basic() {
        assert_eq!(AluImmOp::Addi.apply(5, -3), 2);
        assert_eq!(AluImmOp::Andi.apply(0xff, 0x0f), 0x0f);
        assert_eq!(AluImmOp::Slli.apply(3, 2), 12);
        assert_eq!(AluImmOp::Srai.apply((-8i64) as u64, 1), (-4i64) as u64);
    }

    #[test]
    fn dest_hides_x0() {
        let i = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.dest(), None);
        let i = Inst::AluImm { op: AluImmOp::Addi, rd: Reg::A0, rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.dest(), Some(Reg::A0));
    }

    #[test]
    fn classification() {
        assert!(Inst::Ecall.is_control_flow());
        assert!(Inst::Jal { rd: Reg::ZERO, offset: 8 }.is_control_flow());
        assert!(
            Inst::Load { width: LoadWidth::Byte, rd: Reg::A0, rs1: Reg::A1, offset: 0 }.is_memory()
        );
        assert!(!Inst::Nop.is_memory());
    }

    #[test]
    fn display_formats_reasonably() {
        let i = Inst::Load { width: LoadWidth::Double, rd: Reg::A0, rs1: Reg::SP, offset: 16 };
        assert_eq!(i.to_string(), "ld a0, 16(sp)");
        let b = Inst::Branch { cond: BranchCond::Ltu, rs1: Reg::A0, rs2: Reg::A1, offset: -8 };
        assert_eq!(b.to_string(), "bltu a0, a1, -8");
    }

    #[test]
    fn loadwidth_bytes_and_sign() {
        assert_eq!(LoadWidth::Byte.bytes(), 1);
        assert_eq!(LoadWidth::Double.bytes(), 8);
        assert!(LoadWidth::Word.sign_extends());
        assert!(!LoadWidth::WordU.sign_extends());
        assert_eq!(StoreWidth::Word.bytes(), 4);
    }
}
