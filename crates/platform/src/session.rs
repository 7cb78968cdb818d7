//! The [`Session`] API: the one way to run a guest program on the
//! simulated DBT processor.
//!
//! A session is built declaratively — program, mitigation policy (or a
//! full [`PlatformConfig`]), optional shared [`TranslationService`], block
//! budget — and then either run in one shot or built first and run, with
//! its memory and symbols read back afterwards:
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
//! // One-shot: build + run.
//! let service = TranslationService::new();
//! let summary = Session::builder()
//!     .program(&program)
//!     .policy(MitigationPolicy::Selective)
//!     .service(&service)
//!     .max_blocks(10_000)
//!     .run()?;
//! assert!(summary.halted);
//!
//! // Stepped: build, inspect, run, read back.
//! let mut session = Session::builder()
//!     .program(&program)
//!     .policy(MitigationPolicy::FineGrained)
//!     .service(&service)
//!     .build()?;
//! session.run()?;
//! assert_eq!(session.load_symbol_u64("out")?, 42);
//! # Ok(())
//! # }
//! ```
//!
//! Sharing one [`TranslationService`] across sessions lets every run reuse
//! the translation products of earlier runs instead of recompiling them.
//! Products are keyed by their compile input alone, so two programs that
//! share code share its products; the sweep engine passes one service to
//! all of its worker threads. A session built without a service compiles
//! through a private one.

use crate::processor::{PlatformConfig, PlatformError, RunSummary};
use dbt_engine::{DbtEngine, TranslationService};
use dbt_riscv::{GuestMemory, MemError, Program, Reg};
use dbt_vliw::VliwCore;
use ghostbusters::MitigationPolicy;
use std::sync::Arc;

/// Declarative builder for a [`Session`].
///
/// Created by [`Session::builder`]. `program` is mandatory; everything
/// else defaults to the unprotected platform with no shared service.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder<'p> {
    program: Option<&'p Program>,
    config: Option<PlatformConfig>,
    max_blocks: Option<u64>,
    service: Option<Arc<TranslationService>>,
}

impl<'p> SessionBuilder<'p> {
    /// Sets the guest program to run (mandatory).
    pub fn program(mut self, program: &'p Program) -> SessionBuilder<'p> {
        self.program = Some(program);
        self
    }

    /// Selects the default platform for a mitigation policy
    /// (equivalent to `.config(PlatformConfig::for_policy(policy))`).
    pub fn policy(mut self, policy: MitigationPolicy) -> SessionBuilder<'p> {
        self.config = Some(PlatformConfig::for_policy(policy));
        self
    }

    /// Sets the complete platform configuration (overrides any earlier
    /// [`SessionBuilder::policy`] call and vice versa — the last one wins).
    pub fn config(mut self, config: PlatformConfig) -> SessionBuilder<'p> {
        self.config = Some(config);
        self
    }

    /// Overrides the block budget of the run (applies on top of whatever
    /// `policy`/`config` selected, in any call order).
    pub fn max_blocks(mut self, max_blocks: u64) -> SessionBuilder<'p> {
        self.max_blocks = Some(max_blocks);
        self
    }

    /// Attaches a shared [`TranslationService`]: translations of this run
    /// are looked up in (and published to) the service's memo instead of
    /// being compiled from scratch.
    pub fn service(mut self, service: &Arc<TranslationService>) -> SessionBuilder<'p> {
        self.service = Some(Arc::clone(service));
        self
    }

    /// Builds the session: loads the program image, points the core at the
    /// program's entry with the stack at the top of guest memory (the
    /// reference interpreter's calling convention) and attaches the engine.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::MissingProgram`] if no program was given,
    /// or [`PlatformError::Mem`] if the program image cannot be built.
    pub fn build(self) -> Result<Session, PlatformError> {
        let program = self.program.ok_or(PlatformError::MissingProgram)?;
        let mut config = self.config.unwrap_or_default();
        if let Some(max_blocks) = self.max_blocks {
            config.max_blocks = max_blocks;
        }
        let memory = program.build_memory().map_err(|_| {
            PlatformError::Mem(MemError::OutOfBounds {
                addr: 0,
                size: 0,
                limit: program.memory_size(),
            })
        })?;
        let mut core = VliwCore::new(config.core, program.entry());
        core.arch_mut().set_reg(Reg::SP, (memory.len() as u64) & !0xf);
        // `with_service` ignores its program fingerprint argument.
        let service = self.service.unwrap_or_else(TranslationService::new);
        let engine = DbtEngine::with_service(config.dbt, service, 0);
        Ok(Session { program: program.clone(), config, engine, core, memory })
    }

    /// Builds the session and runs it to completion in one shot.
    ///
    /// # Errors
    ///
    /// Propagates any [`PlatformError`] from construction or execution.
    pub fn run(self) -> Result<RunSummary, PlatformError> {
        self.build()?.run()
    }
}

/// One run of one guest program on the simulated DBT processor: the DBT
/// engine, the in-order VLIW core with its data cache, and the guest
/// memory image. See the [module docs](self) for the builder idiom.
#[derive(Debug, Clone)]
pub struct Session {
    program: Program,
    config: PlatformConfig,
    engine: DbtEngine,
    core: VliwCore,
    memory: GuestMemory,
}

impl Session {
    /// Starts building a session.
    pub fn builder<'p>() -> SessionBuilder<'p> {
        SessionBuilder::default()
    }

    /// Runs the guest program until it halts or the block budget runs out.
    ///
    /// # Errors
    ///
    /// Returns a [`PlatformError`] on translation or execution faults, or
    /// [`PlatformError::BudgetExhausted`] if the program does not halt
    /// within [`PlatformConfig::max_blocks`] blocks.
    pub fn run(&mut self) -> Result<RunSummary, PlatformError> {
        let mut pc = self.core.arch().pc();
        let mut blocks = 0u64;
        let mut guest_insts = 0u64;
        let mut halted = false;
        while blocks < self.config.max_blocks {
            let block = self.engine.block_for(pc, &self.memory)?;
            let outcome = self.core.execute_block(&block, &mut self.memory)?;
            self.engine.note_block_exit(pc, outcome.next_pc);
            blocks += 1;
            guest_insts += block.guest_inst_count as u64;
            match outcome.next_pc {
                Some(next) => {
                    self.core.arch_mut().set_pc(next);
                    pc = next;
                }
                None => {
                    halted = true;
                    break;
                }
            }
        }
        if !halted && blocks >= self.config.max_blocks {
            return Err(PlatformError::BudgetExhausted { blocks });
        }
        Ok(RunSummary {
            cycles: self.core.cycles(),
            blocks_executed: blocks,
            rollbacks: self.core.stats().rollbacks,
            halted,
            guest_insts,
        })
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The DBT engine (profiles, translation cache, mitigation reports).
    pub fn engine(&self) -> &DbtEngine {
        &self.engine
    }

    /// The VLIW core (cycle counter, cache, architectural state).
    pub fn core(&self) -> &VliwCore {
        &self.core
    }

    /// The deterministic cycle-domain profile of the run: per-phase cycle
    /// attribution, speculation events, translation counters. `program`
    /// is the label stamped into the report; `summary` is what
    /// [`Session::run`] returned.
    pub fn profile_report(&self, program: &str, summary: &RunSummary) -> crate::ProfileReport {
        crate::ProfileReport::assemble(
            program,
            self.config.dbt.policy.label(),
            summary,
            &self.core,
            self.engine.stats(),
        )
    }

    /// Guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Address of a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownSymbol`] if the program does not
    /// define it.
    pub fn symbol(&self, name: &str) -> Result<u64, PlatformError> {
        self.program
            .symbol(name)
            .ok_or_else(|| PlatformError::UnknownSymbol { name: name.to_string() })
    }

    /// Reads a 64-bit value at a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol is unknown or out of bounds.
    pub fn load_symbol_u64(&self, name: &str) -> Result<u64, PlatformError> {
        Ok(self.memory.load_u64(self.symbol(name)?)?)
    }

    /// Reads `len` bytes at a named guest symbol.
    ///
    /// # Errors
    ///
    /// Returns an error if the symbol is unknown or out of bounds.
    pub fn load_symbol_bytes(&self, name: &str, len: usize) -> Result<Vec<u8>, PlatformError> {
        Ok(self.memory.read_bytes(self.symbol(name)?, len)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{Assembler, Reg};

    fn tiny_program() -> Program {
        let mut asm = Assembler::new();
        let out = asm.alloc_data("out", 8);
        asm.li(Reg::A0, 21);
        asm.add(Reg::A0, Reg::A0, Reg::A0);
        asm.la(Reg::A1, out);
        asm.sd(Reg::A0, Reg::A1, 0);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn builder_requires_a_program() {
        assert!(matches!(
            Session::builder().policy(MitigationPolicy::Fence).build(),
            Err(PlatformError::MissingProgram)
        ));
    }

    #[test]
    fn one_shot_run_and_stepped_run_agree() {
        let program = tiny_program();
        let one_shot =
            Session::builder().program(&program).policy(MitigationPolicy::Selective).run().unwrap();
        let mut session = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::Selective)
            .build()
            .unwrap();
        let stepped = session.run().unwrap();
        assert_eq!(one_shot, stepped);
        assert_eq!(session.load_symbol_u64("out").unwrap(), 42);
    }

    #[test]
    fn max_blocks_applies_regardless_of_call_order() {
        let program = tiny_program();
        let before = Session::builder()
            .program(&program)
            .max_blocks(123)
            .policy(MitigationPolicy::Unprotected)
            .build()
            .unwrap();
        let after = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::Unprotected)
            .max_blocks(123)
            .build()
            .unwrap();
        assert_eq!(before.config().max_blocks, 123);
        assert_eq!(after.config().max_blocks, 123);
    }

    #[test]
    fn shared_service_runs_are_cycle_identical_to_fresh_runs() {
        let program = tiny_program();
        let service = TranslationService::new();
        let fresh = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::FineGrained)
            .run()
            .unwrap();
        let first = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::FineGrained)
            .service(&service)
            .run()
            .unwrap();
        let mut warm = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::FineGrained)
            .service(&service)
            .build()
            .unwrap();
        let second = warm.run().unwrap();
        assert_eq!(fresh, first, "attaching a service must not change observables");
        assert_eq!(first, second, "memo hits must not change observables");
        let stats = warm.engine().stats();
        assert!(stats.service_hits > 0, "the warm run must reuse the memo: {stats:?}");
        assert_eq!(stats.service_misses, 0, "everything was already translated");
        assert!(service.stats().hits > 0);
    }
}
