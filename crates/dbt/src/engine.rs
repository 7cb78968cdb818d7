//! The DBT engine: ties decoding, profiling, trace construction, mitigation,
//! scheduling and code generation together.

use crate::config::DbtConfig;
use crate::pcmap::PcMap;
use crate::profile::Profile;
use crate::schedule::ScheduleError;
use crate::service::{CompileProduct, TranslationService};
use crate::tcache::{Tier, TranslationCache};
use crate::trace_builder::{build_basic_block, build_superblock, GuestPath};
use dbt_ir::BlockKind;
use dbt_riscv::{DecodeError, GuestMemory, Inst};
use dbt_vliw::TranslatedBlock;
use ghostbusters::report::MitigationSummary;
use ghostbusters::MitigationReport;
use spectaint::LeakageVerdict;
use std::fmt;
use std::sync::Arc;

/// Errors produced by the DBT engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbtError {
    /// A guest instruction word could not be fetched.
    Fetch {
        /// Faulting guest address.
        pc: u64,
    },
    /// A guest instruction word could not be decoded.
    Decode(DecodeError),
    /// The produced IR block violates a structural invariant.
    InvalidBlock {
        /// Entry PC of the block.
        pc: u64,
        /// Description of the violation.
        reason: String,
    },
    /// The scheduler failed (cannot happen for valid blocks).
    Schedule(ScheduleError),
}

impl fmt::Display for DbtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbtError::Fetch { pc } => write!(f, "cannot fetch guest instruction at {pc:#x}"),
            DbtError::Decode(e) => write!(f, "{e}"),
            DbtError::InvalidBlock { pc, reason } => {
                write!(f, "invalid IR block at {pc:#x}: {reason}")
            }
            DbtError::Schedule(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbtError {}

impl From<DecodeError> for DbtError {
    fn from(e: DecodeError) -> Self {
        DbtError::Decode(e)
    }
}

impl From<ScheduleError> for DbtError {
    fn from(e: ScheduleError) -> Self {
        DbtError::Schedule(e)
    }
}

/// Translation-side counters.
///
/// `basic_translations` and `superblock_translations` count per-run
/// translation *events* — they are identical whether the engine's
/// [`TranslationService`] is shared or private, so per-run observables
/// stay byte-stable. `service_hits` / `service_misses` record how many of
/// those events were served from the service's memo vs. compiled here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// First-pass (basic block) translations performed.
    pub basic_translations: u64,
    /// Optimised superblock translations performed.
    pub superblock_translations: u64,
    /// Guest instructions covered by all translations.
    pub guest_insts_translated: u64,
    /// Translation events answered by the service's memo.
    pub service_hits: u64,
    /// Translation events this engine had to compile.
    pub service_misses: u64,
}

/// Metadata remembered about a translated basic block so branch outcomes can
/// be attributed to the right guest branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BranchMeta {
    branch_pc: u64,
    taken_target: u64,
    fallthrough: u64,
}

/// The Dynamic Binary Translation engine.
///
/// The platform drives it with two calls per executed block:
/// [`DbtEngine::block_for`] to obtain (and, if needed, produce) a
/// translation for the current guest PC, and [`DbtEngine::note_block_exit`]
/// to feed branch outcomes back into the profile.
#[derive(Debug, Clone)]
pub struct DbtEngine {
    config: DbtConfig,
    profile: Profile,
    tcache: TranslationCache,
    branch_meta: PcMap<BranchMeta>,
    summary: MitigationSummary,
    reports: Vec<(u64, MitigationReport)>,
    stats: EngineStats,
    service: Arc<TranslationService>,
}

impl DbtEngine {
    /// Creates an engine with the given configuration and a private
    /// translation service of its own. Within one engine every
    /// translation is a distinct path, so a private service never hits:
    /// it only gives the engine the one compile path every engine uses.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see
    /// [`DbtConfig::is_valid`]).
    pub fn new(config: DbtConfig) -> DbtEngine {
        DbtEngine::with_service(config, TranslationService::new(), 0)
    }

    /// Creates an engine that resolves translations through a shared
    /// [`TranslationService`].
    ///
    /// Attaching a service never changes what a run computes — memoized
    /// products are pure functions of the same inputs a local compile would
    /// see — it only removes redundant compile work across engines.
    ///
    /// `_program_fingerprint` is ignored: the service keys products by
    /// their compile input alone, so engines running different programs
    /// share whatever code the programs share. The argument remains so
    /// that callers written against the per-program memo still build.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see
    /// [`DbtConfig::is_valid`]).
    pub fn with_service(
        config: DbtConfig,
        service: Arc<TranslationService>,
        _program_fingerprint: u64,
    ) -> DbtEngine {
        assert!(config.is_valid(), "invalid DBT configuration: {config:?}");
        DbtEngine {
            config,
            profile: Profile::new(),
            tcache: TranslationCache::new(),
            branch_meta: PcMap::default(),
            summary: MitigationSummary::new(),
            reports: Vec::new(),
            stats: EngineStats::default(),
            service,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbtConfig {
        &self.config
    }

    /// The accumulated execution profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Translation statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Aggregate of every mitigation report produced so far.
    pub fn mitigation_summary(&self) -> &MitigationSummary {
        &self.summary
    }

    /// Per-superblock mitigation reports, keyed by entry PC.
    pub fn mitigation_reports(&self) -> &[(u64, MitigationReport)] {
        &self.reports
    }

    /// The translation cache (exposed for inspection in examples/tests).
    pub fn tcache(&self) -> &TranslationCache {
        &self.tcache
    }

    /// Resolves one compile through the service's memo. Records the
    /// mitigation report (for optimised blocks) and the service counters.
    fn obtain(&mut self, path: &GuestPath, kind: BlockKind) -> Result<CompileProduct, DbtError> {
        let translated = self.service.translate(&self.config, path, kind)?;
        if translated.cache_hit {
            self.stats.service_hits += 1;
        } else {
            self.stats.service_misses += 1;
        }
        let product = translated.product;
        if let Some(analysed) = &product.analysed {
            self.summary.record(&analysed.report);
            self.reports.push((analysed.ir.entry_pc(), (*analysed.report).clone()));
        }
        Ok(product)
    }

    fn remember_branch_meta(&mut self, path: &GuestPath) {
        if let Some(last) = path.elements.last() {
            if let Inst::Branch { offset, .. } = last.inst {
                self.branch_meta.insert(
                    path.entry_pc,
                    BranchMeta {
                        branch_pc: last.pc,
                        taken_target: last.pc.wrapping_add(offset as u64),
                        fallthrough: last.pc + 4,
                    },
                );
            }
        }
    }

    /// Returns a translation for the block starting at `pc`, producing one
    /// if necessary.
    ///
    /// The first-pass translation of a block is a conservative basic block;
    /// once the block has been entered [`DbtConfig::hot_threshold`] times it
    /// is re-translated as a profile-guided superblock with speculation and
    /// the configured mitigation.
    ///
    /// # Errors
    ///
    /// Returns a [`DbtError`] if guest code cannot be fetched, decoded or
    /// translated.
    pub fn block_for(
        &mut self,
        pc: u64,
        mem: &GuestMemory,
    ) -> Result<Arc<TranslatedBlock>, DbtError> {
        if let Some((block, Tier::Optimized)) = self.tcache.lookup(pc) {
            return Ok(block);
        }
        let entries = self.profile.record_block_entry(pc);
        if entries >= self.config.hot_threshold {
            let path = build_superblock(mem, pc, &self.profile, &self.config)?;
            let kind = BlockKind::Superblock { merged_blocks: path.merged_blocks };
            let product = self.obtain(&path, kind)?;
            self.stats.superblock_translations += 1;
            self.stats.guest_insts_translated += path.len() as u64;
            let analysed = product.analysed.expect("optimised translations always carry a verdict");
            return Ok(self.tcache.insert_optimized_shared(
                pc,
                product.code,
                analysed.ir,
                analysed.verdict,
            ));
        }
        if let Some((block, Tier::Basic)) = self.tcache.lookup(pc) {
            return Ok(block);
        }
        let path = build_basic_block(mem, pc, &self.config)?;
        self.remember_branch_meta(&path);
        let product = self.obtain(&path, BlockKind::Basic)?;
        self.stats.basic_translations += 1;
        self.stats.guest_insts_translated += path.len() as u64;
        Ok(self.tcache.insert_shared(pc, Tier::Basic, product.code))
    }

    /// The leakage verdicts of every optimised translation, sorted by
    /// guest entry address.
    pub fn verdicts(&self) -> Vec<(u64, Arc<LeakageVerdict>)> {
        self.tcache.verdicts()
    }

    /// Feeds the outcome of one block execution back into the branch
    /// profile: `entry_pc` is the block that was executed, `next_pc` where
    /// execution continued.
    pub fn note_block_exit(&mut self, entry_pc: u64, next_pc: Option<u64>) {
        let Some(meta) = self.branch_meta.get(&entry_pc).copied() else { return };
        let Some(next_pc) = next_pc else { return };
        if next_pc == meta.taken_target {
            self.profile.record_branch(meta.branch_pc, true);
        } else if next_pc == meta.fallthrough {
            self.profile.record_branch(meta.branch_pc, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{Assembler, Reg};
    use ghostbusters::MitigationPolicy;

    fn victim_memory() -> (GuestMemory, u64) {
        // A loop whose body contains a bounds check guarding two dependent
        // loads — the Spectre v1 shape.
        let mut asm = Assembler::new();
        let buffer = asm.alloc_data("buffer", 16);
        let probe = asm.alloc_data("probe", 256 * 128);
        let size = asm.alloc_data_u64("size", &[16]);
        let loop_head = asm.new_label();
        let skip = asm.new_label();
        asm.li(Reg::S0, 40); // iterations
        asm.bind(loop_head);
        asm.andi(Reg::A0, Reg::S0, 0x7); // in-bounds index
        asm.la(Reg::T0, size);
        asm.ld(Reg::T0, Reg::T0, 0);
        asm.bgeu(Reg::A0, Reg::T0, skip);
        asm.la(Reg::T1, buffer);
        asm.add(Reg::T1, Reg::T1, Reg::A0);
        asm.lbu(Reg::T2, Reg::T1, 0);
        asm.slli(Reg::T2, Reg::T2, 7);
        asm.la(Reg::T3, probe);
        asm.add(Reg::T3, Reg::T3, Reg::T2);
        asm.lbu(Reg::T4, Reg::T3, 0);
        asm.bind(skip);
        asm.addi(Reg::S0, Reg::S0, -1);
        asm.bnez(Reg::S0, loop_head);
        asm.ecall();
        let program = asm.assemble().unwrap();
        (program.build_memory().unwrap(), program.entry())
    }

    #[test]
    fn basic_then_optimized_translation() {
        let (mem, entry) = victim_memory();
        let mut engine = DbtEngine::new(DbtConfig::unprotected());
        let first = engine.block_for(entry, &mem).unwrap();
        assert!(first.speculative_load_count() == 0, "first pass is conservative");
        assert_eq!(engine.stats().basic_translations, 1);
        // Drive the profile until the block is hot.
        for _ in 0..DbtConfig::default().hot_threshold + 1 {
            let _ = engine.block_for(entry, &mem).unwrap();
        }
        assert!(engine.tcache().has_optimized(entry));
        assert!(engine.stats().superblock_translations >= 1);
    }

    #[test]
    fn biased_branch_profile_produces_speculative_superblock() {
        let (mem, entry) = victim_memory();
        let mut engine = DbtEngine::new(DbtConfig::unprotected());
        // Record a heavily biased not-taken bounds check so the trace builder
        // merges the guarded loads into the superblock. We reproduce the
        // platform's feedback loop by reporting fall-through exits.
        let basic = engine.block_for(entry, &mem).unwrap();
        let _ = basic;
        // Find the branch meta the engine recorded and keep reporting
        // fall-through outcomes. (The first basic block of the loop body ends
        // at the bounds check.)
        for _ in 0..40 {
            engine.note_block_exit(entry, Some(entry + 4 * 6));
        }
        for _ in 0..DbtConfig::default().hot_threshold {
            let _ = engine.block_for(entry, &mem).unwrap();
        }
        let optimized = engine.block_for(entry, &mem).unwrap();
        assert!(engine.tcache().has_optimized(entry));
        // The superblock merges past the bounds check and speculates.
        assert!(optimized.bundles().len() > 1);
    }

    #[test]
    fn mitigation_summary_accumulates_for_superblocks() {
        let (mem, entry) = victim_memory();
        let mut engine = DbtEngine::new(DbtConfig::for_policy(MitigationPolicy::FineGrained));
        for _ in 0..40 {
            engine.note_block_exit(entry, Some(entry + 4 * 6));
        }
        for _ in 0..DbtConfig::default().hot_threshold + 1 {
            let _ = engine.block_for(entry, &mem).unwrap();
        }
        assert!(engine.mitigation_summary().blocks >= 1);
    }

    /// Heats the loop-head block (where the loop counter is a live-in, so
    /// the bounds check genuinely constrains the buffer index) and biases
    /// its bounds check towards fall-through.
    fn heat_loop_head(engine: &mut DbtEngine, mem: &GuestMemory, entry: u64) -> u64 {
        let loop_head = entry + 4; // past `li s0, 40`
        let _ = engine.block_for(loop_head, mem).unwrap();
        for _ in 0..40 {
            engine.note_block_exit(loop_head, Some(entry + 4 * 6));
        }
        for _ in 0..DbtConfig::default().hot_threshold + 1 {
            let _ = engine.block_for(loop_head, mem).unwrap();
        }
        loop_head
    }

    #[test]
    fn optimized_translations_cache_their_verdicts() {
        let (mem, entry) = victim_memory();
        let mut engine = DbtEngine::new(DbtConfig::unprotected());
        let _ = engine.block_for(entry, &mem).unwrap();
        assert!(engine.verdicts().is_empty(), "basic translations carry no verdict");
        let loop_head = heat_loop_head(&mut engine, &mem, entry);
        let verdicts = engine.verdicts();
        assert!(!verdicts.is_empty());
        // The loop body is the bounds-checked double load with a live-in
        // index: once the superblock merges past the check, the taint
        // analysis confirms the gadget.
        assert!(
            verdicts.iter().any(|(_, v)| !v.is_leak_free()),
            "the v1-shaped loop body must be flagged"
        );
        assert!(engine.tcache().verdict(loop_head).is_some());
        // Re-requesting the block must reuse the cache, not re-analyse.
        let before = engine.stats().superblock_translations;
        let _ = engine.block_for(loop_head, &mem).unwrap();
        assert_eq!(engine.stats().superblock_translations, before);
    }

    #[test]
    fn selective_policy_hardens_the_flagged_victim() {
        let (mem, entry) = victim_memory();
        let mut engine = DbtEngine::new(DbtConfig::selective());
        let _ = heat_loop_head(&mut engine, &mem, entry);
        let summary = engine.mitigation_summary();
        assert!(summary.gadgets > 0, "the victim loop carries a confirmed gadget");
        assert!(summary.hardened_edges > 0, "selective must constrain the flagged block");
    }

    #[test]
    fn fetch_outside_memory_is_an_error() {
        let mem = GuestMemory::new(64);
        let mut engine = DbtEngine::new(DbtConfig::unprotected());
        assert!(matches!(engine.block_for(0x1_0000, &mem), Err(DbtError::Fetch { .. })));
    }

    #[test]
    #[should_panic(expected = "invalid DBT configuration")]
    fn invalid_config_panics() {
        let mut config = DbtConfig::unprotected();
        config.issue_width = 0;
        let _ = DbtEngine::new(config);
    }
}
