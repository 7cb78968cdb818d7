//! The Dynamic Binary Translation engine of the simulated DBT-based
//! processor.
//!
//! The engine plays the role of the software layer of Transmeta
//! Crusoe/Efficeon, NVidia Denver or Hybrid-DBT: it reads guest (RISC-V)
//! binaries from memory, translates them into the VLIW target ISA, and
//! *optimises* them using run-time profile information. Two of those
//! optimisations are speculative and are the subject of the paper:
//!
//! * **trace construction + scheduling** — hot basic blocks are merged along
//!   the profiled hot path into superblocks; conditional branches along the
//!   path become side exits, and the scheduler may hoist loads and
//!   computations above them (the results live in hidden registers);
//! * **memory-dependency speculation** — loads may be hoisted above stores
//!   the engine cannot disambiguate; the Memory Conflict Buffer detects
//!   wrong guesses at run time and triggers a rollback.
//!
//! Before scheduling, the engine hands the block's dependency graph to the
//! GhostBusters countermeasure ([`ghostbusters::apply`]) configured by
//! [`DbtConfig::policy`]; the scheduler then honours whatever constraints
//! the mitigation re-inserted.
//!
//! The main entry point is [`DbtEngine`]. Engines created through
//! [`DbtEngine::with_service`] share a process-wide, thread-safe
//! [`TranslationService`]: a memoizing query layer that compiles each
//! distinct (program, path, speculation options, policy, issue width)
//! translation exactly once and hands every later run the cached product,
//! so a multi-policy sweep does not redo identical decode/trace/analysis
//! work per run.

pub mod codegen;
pub mod config;
pub mod engine;
mod pcmap;
pub mod profile;
pub mod regalloc;
pub mod schedule;
pub mod service;
pub mod tcache;
#[cfg(test)]
mod testgen;
pub mod trace_builder;
pub mod translate;

pub use config::DbtConfig;
pub use engine::{DbtEngine, DbtError, EngineStats};
pub use profile::Profile;
pub use schedule::{Schedule, ScheduleError};
pub use service::{
    AnalysedProduct, AnalysisProduct, CompileProduct, ServiceStats, Translated, TranslationService,
    DEFAULT_SERVICE_BUDGET_PRODUCTS,
};
pub use tcache::{CachedTranslation, Tier, TranslationCache};
pub use trace_builder::{GuestPath, PathElement};
pub use translate::translate_path;
