//! Target-side model of the DBT-based processor: the VLIW ISA produced by
//! the DBT engine and the in-order core that executes it.
//!
//! The architecture mirrors the machines the paper studies (Transmeta
//! Crusoe/Efficeon, NVidia Denver, Hybrid-DBT):
//!
//! * a wide **in-order** core executes instruction [`Bundle`]s, one bundle
//!   per cycle (plus memory stalls resolved through a scoreboard);
//! * results of instructions hoisted above a side exit live in **hidden
//!   registers** ([`PhysReg`]s beyond the 32 architectural ones) and are
//!   simply discarded if the exit is taken — the hardware never rolls back
//!   for branch speculation;
//! * loads hoisted above stores are emitted as **speculative loads** and
//!   checked by the [`MemoryConflictBuffer`]: when a later store touches the
//!   same bytes, the block is rolled back and re-executed sequentially from
//!   its recovery sequence;
//! * crucially, the data cache keeps every line fetched by a misspeculated
//!   access — this is the micro-architectural state the Spectre attacks
//!   convert into an architectural leak.
//!
//! The crate knows nothing about RISC-V translation or scheduling; it only
//! executes already-translated blocks ([`TranslatedBlock`]).

pub mod core;
pub mod isa;
pub mod mcb;
pub mod regfile;
pub mod stats;
#[cfg(test)]
mod testgen;

pub use crate::core::{BlockOutcome, CoreConfig, CoreError, VliwCore};
pub use isa::{
    alu_latency, AccessWidth, Bundle, BundleSlots, Op, Operand, PhysReg, TranslatedBlock,
};
pub use mcb::MemoryConflictBuffer;
pub use regfile::ArchState;
pub use stats::CoreStats;
