//! Full-system simulator of the DBT-based processor.
//!
//! [`DbtProcessor`] wires together the three pieces built in the substrate
//! crates — the [DBT engine](dbt_engine::DbtEngine), the in-order
//! [VLIW core](dbt_vliw::VliwCore) with its data cache, and a guest memory
//! image — and drives a guest [`Program`](dbt_riscv::Program) to completion,
//! exactly like Hybrid-DBT runs RISC-V binaries on its VLIW.
//!
//! Runs are created through the [`Session`] builder — the single public
//! entry point the attack proof-of-concepts, the Polybench-style workloads
//! and the benchmark harness all go through. Sessions can share a
//! [`TranslationService`], the process-wide memo that translates each
//! `(program, config)` exactly once however many runs demand it.
//!
//! # Example
//!
//! ```
//! use dbt_platform::{Session, TranslationService};
//! use dbt_riscv::{Assembler, Reg};
//! use ghostbusters::MitigationPolicy;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! let out = asm.alloc_data("out", 8);
//! asm.li(Reg::A0, 6);
//! asm.li(Reg::A1, 7);
//! asm.mul(Reg::A2, Reg::A0, Reg::A1);
//! asm.la(Reg::A3, out);
//! asm.sd(Reg::A2, Reg::A3, 0);
//! asm.ecall();
//! let program = asm.assemble()?;
//!
//! let service = TranslationService::new();
//! let mut session = Session::builder()
//!     .program(&program)
//!     .policy(MitigationPolicy::FineGrained)
//!     .service(&service)
//!     .build()?;
//! let summary = session.run()?;
//! assert!(summary.halted);
//! assert_eq!(session.load_symbol_u64("out")?, 42);
//! # Ok(())
//! # }
//! ```

pub mod memo;
pub mod processor;
pub mod profile;
pub mod run;
pub mod session;
pub mod store;

pub use dbt_engine::{ServiceStats, TranslationService};
pub use memo::{CachedRun, MemoStats, RunKey, RunMemo, DEFAULT_MEMO_CAPACITY};
pub use processor::{DbtProcessor, PlatformConfig, PlatformError, RunSummary};
pub use profile::ProfileReport;
pub use run::PolicyComparison;
pub use session::{Session, SessionBuilder};
pub use store::{ProgramRef, ProgramStore, StoreStats, DEFAULT_STORE_BUDGET_BYTES};
