//! The cross-run translation service: a thread-safe, process-wide memo
//! of translation products, shared by every engine that attaches it,
//! whatever program each one runs.
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
//! Every product is one entry of a [`BoundedMap`], keyed by its compile
//! input alone: the guest path's content plus the query's own inputs, and
//! never the program the path came from. Two programs that share code (a
//! proof of concept run again with a fresh secret, an uploaded variant that
//! differs only in its data) therefore share its products. The key is a
//! 64-bit hash of that input, and each entry keeps the input itself: a hit
//! must match it whole, so no two inputs can share a product even if their
//! hashes collide (a colliding ask compiles uncached and counts a miss).
//! Past the budget, single least-recently-used products are evicted. Every
//! query resolves to exactly one compile process-wide, even when several
//! sweep workers demand the same key concurrently (late askers block on
//! the winner's `OnceLock`), so hit/miss counters are deterministic for a
//! given job list regardless of thread count — *as long as the resident
//! products stay within the budget*, which
//! [`DEFAULT_SERVICE_BUDGET_PRODUCTS`] does for every in-repo working set.
//! Once eviction engages under concurrency, the LRU victim depends on
//! thread timing and evicted products re-miss.

use crate::codegen::generate;
use crate::config::DbtConfig;
use crate::engine::DbtError;
use crate::regalloc::RegAlloc;
use crate::schedule::schedule;
use crate::trace_builder::GuestPath;
use crate::translate::translate_path;
use dbt_ir::{BlockKind, DepGraph, DfgOptions, IrBlock};
use dbt_obs::{Histogram, MetricsRegistry, Span, DEFAULT_LATENCY_BOUNDS_MICROS};
use dbt_persist::BoundedMap;
use dbt_vliw::TranslatedBlock;
use ghostbusters::{apply_with_verdict, MitigationPolicy, MitigationReport};
use spectaint::LeakageVerdict;
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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
    /// Compile products currently resident: what the budget bounds.
    pub products: u64,
    /// Compile products evicted to honour the budget.
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
            .gauge("dbt_translate_products", "Compile products resident in the service.")
            .set(self.products as i64);
        registry
            .counter(
                "dbt_translate_evictions_total",
                "Compile products evicted to honour the product budget.",
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

/// Compiles a path without any memoization: the oracle the memoized
/// products are checked against.
#[cfg(test)]
fn compile_path(
    config: &DbtConfig,
    path: &GuestPath,
    kind: BlockKind,
) -> Result<CompileProduct, DbtError> {
    let analysis = run_analysis(path, kind, effective_options(config, kind))?;
    run_codegen(&analysis, config.policy, config.issue_width)
}

/// One cache slot: filled exactly once, shared between waiting threads.
type Slot<T> = Arc<OnceLock<Result<T, DbtError>>>;

/// What a compile query reads besides its guest path. With the path, it
/// is the query's whole input: a product is a pure function of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct QueryInput {
    kind: BlockKind,
    options: DfgOptions,
    /// The codegen query's own inputs, `None` for the analysis query: the
    /// policy (`None` for basic-tier blocks, which take no mitigation, so
    /// every policy shares their code) and the issue width.
    codegen: Option<(Option<MitigationPolicy>, usize)>,
}

/// One resident product with the input it was compiled from, which a hit
/// must match: the map's key is only a hash of that input.
#[derive(Debug)]
struct Entry {
    /// Shared by a path's analysis entry and the codegen entries filed
    /// with it, so the path is kept once however many policies compile it.
    path: Arc<GuestPath>,
    input: QueryInput,
    /// The product's `Slot<T>`, `T` being the query's product type.
    slot: Arc<dyn Any + Send + Sync>,
}

impl Entry {
    /// The product's slot, if this entry was compiled from `path` and
    /// `input`.
    fn slot_for(&self, path: &GuestPath, input: QueryInput) -> Option<Arc<dyn Any + Send + Sync>> {
        (self.input == input && *self.path == *path).then(|| Arc::clone(&self.slot))
    }
}

/// The entry of `path` and `input` under `key`, now the most recently
/// used: the resident one, or a new empty one that keeps `shared` (or a
/// copy of `path`). Returns its slot and path, or `None` when the key
/// holds another input.
fn resident<T: Send + Sync + 'static>(
    entries: &mut BoundedMap<u64, Entry>,
    (key, input): (u64, QueryInput),
    path: &GuestPath,
    shared: Option<Arc<GuestPath>>,
) -> Option<(Arc<dyn Any + Send + Sync>, Arc<GuestPath>)> {
    if let Some(entry) = entries.get(&key) {
        return entry.slot_for(path, input).map(|slot| (slot, Arc::clone(&entry.path)));
    }
    let path = shared.unwrap_or_else(|| Arc::new(path.clone()));
    let slot: Arc<dyn Any + Send + Sync> = Slot::<T>::default();
    entries.insert(key, Entry { path: Arc::clone(&path), input, slot: Arc::clone(&slot) }, 1);
    Some((slot, path))
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
/// counters) and hand it to every run:
///
/// ```
/// use dbt_engine::{DbtConfig, DbtEngine, TranslationService};
///
/// let service = TranslationService::new();
/// let engine = DbtEngine::with_service(DbtConfig::selective(), service.clone(), 0);
/// assert_eq!(service.stats().misses, 0, "nothing translated yet");
/// # let _ = engine;
/// ```
#[derive(Debug)]
pub struct TranslationService {
    entries: Mutex<BoundedMap<u64, Entry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    metrics: Option<ServiceMetrics>,
}

/// Default budget of resident compile products (one per analysis or
/// codegen entry). It holds every in-repo working set — the largest, the
/// full `lab sweep` on one service, is 1,091 products — while keeping a
/// daemon that faces an unbounded key space (fresh platform knobs,
/// uploads) from growing without limit.
pub const DEFAULT_SERVICE_BUDGET_PRODUCTS: u64 = 1536;

impl TranslationService {
    /// A service with the default budget.
    pub fn new() -> Arc<TranslationService> {
        TranslationService::with_budget(DEFAULT_SERVICE_BUDGET_PRODUCTS)
    }

    /// A service bounded to `products` resident compile products: beyond
    /// that, the least recently used products are evicted. The product
    /// being inserted is never the victim.
    ///
    /// # Panics
    ///
    /// Panics if `products` is zero.
    pub fn with_budget(products: u64) -> Arc<TranslationService> {
        TranslationService::build(products, None)
    }

    /// A default-budget service whose compile stages record wall-clock
    /// phase timings into `registry` (the
    /// `dbt_translate_phase_seconds{phase="analysis"|"codegen"}`
    /// families). Only *actual* compiles are timed — memoized answers
    /// never touch the clock — and the timings are pure observability:
    /// deterministic products, counters and cycle outputs are identical
    /// to an uninstrumented service.
    pub fn with_metrics(registry: &MetricsRegistry) -> Arc<TranslationService> {
        let metrics = Some(ServiceMetrics::resolve(registry));
        TranslationService::build(DEFAULT_SERVICE_BUDGET_PRODUCTS, metrics)
    }

    fn build(products: u64, metrics: Option<ServiceMetrics>) -> Arc<TranslationService> {
        assert!(products >= 1, "the translation service needs a budget of at least one product");
        Arc::new(TranslationService {
            entries: Mutex::new(BoundedMap::new(products)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            metrics,
        })
    }

    /// The resident products, also after a panic elsewhere poisoned their
    /// lock: no compile runs under it, so the map is never left half
    /// updated.
    fn entries(&self) -> MutexGuard<'_, BoundedMap<u64, Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ServiceStats {
        let entries = self.entries();
        ServiceStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            products: entries.weight(),
            evictions: entries.evictions(),
        }
    }

    /// Resolves one memoized query: the product of `path` and `input`
    /// filed under `key` (a hash of both), or computes it exactly once
    /// process-wide. A new entry weighs one product, which may evict least
    /// recently used others. An entry under `key` compiled from another
    /// input is a collision: `compute` then runs uncached.
    fn query<T: Clone + Send + Sync + 'static>(
        &self,
        key: u64,
        path: &GuestPath,
        input: QueryInput,
        compute: impl FnOnce() -> Result<T, DbtError>,
    ) -> (Result<T, DbtError>, bool) {
        let slot =
            resident::<T>(&mut self.entries(), (key, input), path, None).map(|(slot, _)| slot);
        self.resolve(slot, compute)
    }

    /// Fills `slot` with `compute` unless another ask already did, and
    /// counts a hit or a miss; without a slot (a collision) `compute` runs
    /// uncached and counts a miss.
    fn resolve<T: Clone + Send + Sync + 'static>(
        &self,
        slot: Option<Arc<dyn Any + Send + Sync>>,
        compute: impl FnOnce() -> Result<T, DbtError>,
    ) -> (Result<T, DbtError>, bool) {
        let Some(slot) =
            slot.and_then(|slot| slot.downcast::<OnceLock<Result<T, DbtError>>>().ok())
        else {
            self.misses.fetch_add(1, Ordering::SeqCst);
            return (compute(), false);
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

    /// Translates `path` under `config`, reusing memoized analysis and
    /// codegen products whenever their inputs match, whichever program
    /// they were first compiled for.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) [`DbtError`] of the failing compile stage.
    pub fn translate(
        &self,
        config: &DbtConfig,
        path: &GuestPath,
        kind: BlockKind,
    ) -> Result<Translated, DbtError> {
        let options = effective_options(config, kind);
        let optimised = matches!(kind, BlockKind::Superblock { .. });
        // Basic-tier codegen takes no mitigation, so the policy stays out of
        // its input and every policy shares the product.
        let policy = optimised.then_some(config.policy);
        let analysis_input = QueryInput { kind, options, codegen: None };
        let codegen_input =
            QueryInput { codegen: Some((policy, config.issue_width)), ..analysis_input };
        // The path is hashed once; each query's key adds its own input.
        let path_key = hash64(path);
        let analyse = || {
            let _span = Span::enter(
                "translate.analysis",
                self.metrics.as_ref().map(|m| &m.analysis_seconds),
            );
            run_analysis(path, kind, options)
        };
        let analysis_key = hash64(&(path_key, analysis_input));
        let compile = || {
            let (analysis, _) = self.query(analysis_key, path, analysis_input, analyse);
            let analysis = analysis?;
            let _span =
                Span::enter("translate.codegen", self.metrics.as_ref().map(|m| &m.codegen_seconds));
            run_codegen(&analysis, config.policy, config.issue_width)
        };
        let codegen_key = hash64(&(path_key, codegen_input));
        let slot = {
            let mut entries = self.entries();
            match entries.get(&codegen_key).map(|entry| entry.slot_for(path, codegen_input)) {
                // A hit keeps the analysis its codegen came from as recent
                // as the codegen.
                Some(slot) => {
                    entries.get(&analysis_key);
                    slot
                }
                // A miss asks for the analysis next, so its entry is touched
                // (or created empty) before the codegen's insert can evict
                // it, and both entries keep one copy of the path.
                None => {
                    let analysis = (analysis_key, analysis_input);
                    let shared = resident::<AnalysisProduct>(&mut entries, analysis, path, None);
                    let codegen = (codegen_key, codegen_input);
                    resident::<CompileProduct>(&mut entries, codegen, path, shared.map(|(_, p)| p))
                        .map(|(slot, _)| slot)
                }
            }
        };
        let (product, cache_hit) = self.resolve(slot, compile);
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
        let first = service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        assert!(!first.cache_hit);
        let second = service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
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
            service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        let selective =
            service.translate(&DbtConfig::selective(), &path, BlockKind::Basic).unwrap();
        assert!(!unprotected.cache_hit);
        assert!(
            selective.cache_hit,
            "first-pass blocks take no mitigation, so the policy must not split the key"
        );
        // Disabling speculation still shares basic-tier products: the first
        // pass is conservative under every config.
        let nospec =
            service.translate(&DbtConfig::no_speculation(), &path, BlockKind::Basic).unwrap();
        assert!(nospec.cache_hit);
    }

    #[test]
    fn memoized_products_match_the_uncached_compiler() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::fine_grained();
        let fresh = compile_path(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let memoized = service.translate(&config, &path, BlockKind::Basic).unwrap();
        assert!(memoized.cache_hit);
        assert_eq!(*fresh.code, *memoized.product.code);
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_product() {
        let (mem, entry) = straightline_memory();
        // Each basic-tier translation is two products (its codegen, then
        // the analysis that codegen asks for), so a budget of four holds
        // two paths.
        let service = TranslationService::with_budget(4);
        let config = DbtConfig::unprotected();
        let [a, b, c] = [0, 4, 8].map(|offset| basic_path(&mem, entry + offset));
        let hit = |path| service.translate(&config, path, BlockKind::Basic).unwrap().cache_hit;
        let resident = || (service.stats().products, service.stats().evictions);
        assert!(!hit(&a) && !hit(&b));
        assert_eq!(resident(), (4, 0));
        // C's two products push out A's two, the least recently used.
        assert!(!hit(&c));
        assert_eq!(resident(), (4, 2));
        assert!(hit(&b), "B was used after A");
        assert!(!hit(&a), "A was the victim and re-compiles");
        // B's codegen hit also touched B's analysis, so A's two products
        // evicted C's two, the least recently used.
        assert_eq!(resident(), (4, 4));
        assert!(hit(&b), "B's products survived");
        assert!(!hit(&c), "C's products were the victims");
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.products, stats.evictions), (2, 10, 4, 6));
    }

    #[test]
    fn retranslating_a_path_whose_analysis_is_least_recent_recompiles_only_its_codegen() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::with_budget(4);
        let wide = DbtConfig::unprotected();
        let narrow = DbtConfig { issue_width: 2, ..wide };
        let [a, b] = [0, 4].map(|offset| basic_path(&mem, entry + offset));
        let translate = |config: &DbtConfig, path| {
            service.translate(config, path, BlockKind::Basic).unwrap().cache_hit
        };
        assert!(!translate(&wide, &a) && !translate(&wide, &b));
        // B's narrow codegen reuses B's analysis and evicts A's codegen,
        // which leaves A's analysis the least recently used product.
        assert!(!translate(&narrow, &b));
        assert_eq!((service.stats().products, service.stats().evictions), (4, 1));
        let before = service.stats();
        assert!(!translate(&wide, &a), "A's codegen was evicted");
        let after = service.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 1),
            "A's analysis is touched before its codegen's insert evicts, so it stays and hits"
        );
        assert!(translate(&wide, &a) && translate(&narrow, &b), "B's wide codegen was the victim");
    }

    #[test]
    fn a_superblock_under_every_speculating_policy_keeps_one_copy_of_its_path() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let kind = BlockKind::Superblock { merged_blocks: 1 };
        let speculating = &MitigationPolicy::ALL[..4];
        assert!(!speculating.contains(&MitigationPolicy::NoSpeculation));
        for &policy in speculating {
            service.translate(&DbtConfig::for_policy(policy), &path, kind).unwrap();
        }
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.products), (3, 5, 5), "one shared analysis");
        let options = DbtConfig::unprotected().speculation;
        let key = hash64(&(hash64(&path), QueryInput { kind, options, codegen: None }));
        let mut entries = service.entries();
        let analysis = entries.get(&key).expect("the analysis is resident");
        assert_eq!(
            Arc::strong_count(&analysis.path),
            5,
            "the analysis and its four codegen entries share one path"
        );
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
        assert!(service.translate(&config, &path, BlockKind::Basic).is_ok());
        let misses = service.stats().misses;
        assert!(service.translate(&config, &path, BlockKind::Basic).is_ok());
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
        let service = TranslationService::with_metrics(&registry);
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
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
    fn stats_export_mirrors_the_snapshot() {
        let (mem, entry) = straightline_memory();
        let registry = MetricsRegistry::new();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        service.stats().export(&registry);
        let text = registry.render();
        assert!(text.contains("dbt_translate_hits_total 1"), "{text}");
        assert!(text.contains("dbt_translate_misses_total 2"), "{text}");
        assert!(text.contains("dbt_translate_products 2"), "{text}");
        assert!(text.contains("dbt_translate_evictions_total 0"), "{text}");
    }

    #[test]
    fn inputs_forced_onto_one_key_each_get_their_own_product() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let [a, b] = [0, 4].map(|offset| basic_path(&mem, entry + offset));
        let options = DfgOptions::no_speculation();
        let input = QueryInput { kind: BlockKind::Basic, options, codegen: None };
        // Every ask files under key 7, as a hash collision would.
        let analyse = |path: &GuestPath| {
            let (product, hit) =
                service.query(7, path, input, || run_analysis(path, BlockKind::Basic, options));
            (product.unwrap(), hit)
        };
        let (first, hit) = analyse(&a);
        assert!(!hit);
        let (second, hit) = analyse(&b);
        assert!(!hit, "B's path differs from the input A left under the key");
        let fresh = run_analysis(&b, BlockKind::Basic, options).unwrap();
        assert_eq!(*second.ir, *fresh.ir, "B gets its own product");
        assert_ne!(*second.ir, *first.ir);
        // A keeps the key; B compiles uncached on every ask.
        let (again, hit) = analyse(&a);
        assert!(hit && Arc::ptr_eq(&again.ir, &first.ir));
        assert!(!analyse(&b).1);
        // A codegen input on the same path and key is another input too.
        let codegen = QueryInput { codegen: Some((None, 4)), ..input };
        let config = DbtConfig::unprotected();
        let (code, hit) = service.query(7, &a, codegen, || run_codegen(&first, config.policy, 4));
        assert!(!hit);
        let fresh = compile_path(&config, &a, BlockKind::Basic).unwrap();
        assert_eq!(*code.unwrap().code, *fresh.code);
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.products), (1, 4, 1));
    }

    #[test]
    fn a_poisoned_lock_still_serves_hits_inserts_and_stats() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let config = DbtConfig::unprotected();
        let [a, b] = [0, 4].map(|offset| basic_path(&mem, entry + offset));
        service.translate(&config, &a, BlockKind::Basic).unwrap();
        let poisoner = Arc::clone(&service);
        let panicked = std::thread::spawn(move || {
            let _entries = poisoner.entries.lock().unwrap();
            panic!("a panic while the translation service's lock is held");
        })
        .join();
        assert!(panicked.is_err() && service.entries.is_poisoned());
        assert!(service.translate(&config, &a, BlockKind::Basic).unwrap().cache_hit);
        assert!(!service.translate(&config, &b, BlockKind::Basic).unwrap().cache_hit);
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.products), (1, 4, 4));
    }
}
