//! Program addressing: [`ProgramRef`] and the content-addressed, shared
//! [`ProgramStore`].
//!
//! Until this layer existed, every consumer of a guest program named it by
//! an ad-hoc string bound to the in-repo registry — there was no way to
//! hand the platform a program it had not compiled in. The store makes
//! **programs data**:
//!
//! * a [`ProgramRef`] is how requests *name* a program: a registry entry
//!   (`registry:<name>`, or a bare name), an already-resident content
//!   fingerprint (`fp:<16-hex>`), or inline source (text assembly or a
//!   program-image JSON document);
//! * the [`ProgramStore`] is where programs *live*: a thread-safe map from
//!   [`Program::fingerprint`] to the immutable program behind an `Arc`.
//!   Identical uploads deduplicate to one entry (the second submission is
//!   a `dedup` hit); registry entries are seeded **lazily** — the builder
//!   closure registered for a name runs at most once process-wide, on the
//!   first resolve that asks for it.
//!
//! The store is the third process-wide cache level of the lab daemon,
//! next to the `TranslationService` (translations) and the [`RunMemo`]
//! (whole runs): all three key by the program's content fingerprint, so a
//! program uploaded once is translated once and simulated once, however
//! many requests name it.
//!
//! [`RunMemo`]: crate::RunMemo

use dbt_persist::{BoundedMap, PersistStore};
use dbt_riscv::Program;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entry kind the store uses in the durable tier: the program-image JSON
/// (the same text `upload` ships on the wire), keyed by the program's
/// content fingerprint.
const PROG_KIND: &str = "prog";

/// The durable-store key of a program: its fingerprint as hex.
fn prog_key_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// How a request names a guest program.
///
/// The textual grammar (parsed by [`ProgramRef::parse`]):
///
/// | form | meaning |
/// |---|---|
/// | `registry:<name>` (or a bare `<name>`) | a program the store can build by name |
/// | `fp:<16-hex-digits>` | an already-resident content fingerprint |
/// | `asm:<source>` | inline text assembly |
/// | `image:<json>` | inline program-image JSON |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramRef {
    /// A named program the store knows how to build (lazily seeded).
    Registry(String),
    /// A content fingerprint of an already-resident program.
    Fingerprint(u64),
    /// Inline text-assembly source.
    InlineAsm(String),
    /// Inline program-image JSON.
    InlineImage(String),
}

impl ProgramRef {
    /// Parses the textual ref grammar. A bare name (no scheme prefix) is a
    /// registry ref, so existing name-based requests keep working.
    ///
    /// # Errors
    ///
    /// Returns a message if the `fp:` payload is not a 64-bit hex number
    /// or the scheme is unknown.
    pub fn parse(text: &str) -> Result<ProgramRef, String> {
        if let Some(name) = text.strip_prefix("registry:") {
            return Ok(ProgramRef::Registry(name.to_string()));
        }
        if let Some(hex) = text.strip_prefix("fp:") {
            let fp = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("`{hex}` is not a hex fingerprint"))?;
            return Ok(ProgramRef::Fingerprint(fp));
        }
        if let Some(source) = text.strip_prefix("asm:") {
            return Ok(ProgramRef::InlineAsm(source.to_string()));
        }
        if let Some(source) = text.strip_prefix("image:") {
            return Ok(ProgramRef::InlineImage(source.to_string()));
        }
        match text.split_once(':') {
            Some((scheme, _)) => Err(format!(
                "unknown program-ref scheme `{scheme}:` (expected registry:|fp:|asm:|image:)"
            )),
            None => Ok(ProgramRef::Registry(text.to_string())),
        }
    }

    /// Short display label for reports: the registry name, `fp:<hex>`, or
    /// an `inline-…` tag for source refs.
    pub fn label(&self) -> String {
        match self {
            ProgramRef::Registry(name) => name.clone(),
            ProgramRef::Fingerprint(fp) => format!("fp:{fp:016x}"),
            ProgramRef::InlineAsm(_) => "inline-asm".to_string(),
            ProgramRef::InlineImage(_) => "inline-image".to_string(),
        }
    }
}

impl fmt::Display for ProgramRef {
    /// The canonical textual form ([`ProgramRef::parse`] round-trips it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramRef::Registry(name) => write!(f, "registry:{name}"),
            ProgramRef::Fingerprint(fp) => write!(f, "fp:{fp:016x}"),
            ProgramRef::InlineAsm(source) => write!(f, "asm:{source}"),
            ProgramRef::InlineImage(source) => write!(f, "image:{source}"),
        }
    }
}

/// Snapshot of the store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct programs currently resident.
    pub programs: usize,
    /// Programs submitted through [`ProgramStore::upload`].
    pub uploads: u64,
    /// Uploads whose content was already resident (answered by the
    /// existing entry instead of storing a copy).
    pub dedup_hits: u64,
    /// Registry entries built by lazy seeding so far.
    pub seeded: u64,
    /// Uploaded entries evicted to honour the byte budget.
    pub evictions: u64,
}

impl StoreStats {
    /// Stable single-line JSON (fixed key order), for the daemon's `stats`
    /// response.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"programs\": {}, \"uploads\": {}, \"dedup_hits\": {}, \"seeded\": {}, \
             \"evictions\": {}}}",
            self.programs, self.uploads, self.dedup_hits, self.seeded, self.evictions
        )
    }

    /// Mirrors this snapshot into `registry` as the `dbt_store_*` metric
    /// families. Called at scrape time so the Prometheus exposition and
    /// the `stats` JSON agree exactly on the same snapshot.
    pub fn export(&self, registry: &dbt_obs::MetricsRegistry) {
        registry
            .gauge("dbt_store_programs", "Distinct programs currently resident.")
            .set(self.programs as i64);
        registry
            .counter("dbt_store_uploads_total", "Programs submitted through upload.")
            .set(self.uploads);
        registry
            .counter("dbt_store_dedup_hits_total", "Uploads whose content was already resident.")
            .set(self.dedup_hits);
        registry
            .counter("dbt_store_seeded_total", "Registry entries built by lazy seeding.")
            .set(self.seeded);
        registry
            .counter(
                "dbt_store_evictions_total",
                "Uploaded entries evicted to honour the byte budget.",
            )
            .set(self.evictions);
    }
}

/// Builds a named registry program on first use.
type Builder = Box<dyn Fn() -> Result<Program, String> + Send + Sync>;

/// One named entry: the builder plus a once-filled program slot, so lazy
/// seeding happens exactly once process-wide even under concurrency.
struct NamedEntry {
    build: Builder,
    seeded: OnceLock<Result<Arc<Program>, String>>,
}

/// Default budget of unpinned image bytes: 4 MiB, about 256 uploads of
/// the Spectre-v1 gadget (its probe array alone is 16 KiB). It exists so
/// a daemon facing replicated fleet uploads (the `dbt-router` copies
/// every upload to all backends) cannot grow without limit; pinned
/// registry seeds do not count against it.
pub const DEFAULT_STORE_BUDGET_BYTES: u64 = 4 << 20;

/// What a resident program weighs against the store's budget: its guest
/// image, four bytes per instruction plus the initialised data.
fn image_bytes(program: &Program) -> u64 {
    4 * program.len() as u64 + program.data().len() as u64
}

/// The thread-safe, content-addressed program store.
///
/// ```
/// use dbt_platform::{ProgramRef, ProgramStore};
/// use dbt_riscv::parse_asm;
///
/// let store = ProgramStore::new();
/// let program = parse_asm("li a0, 42\necall\n").unwrap();
/// let (fp, dedup) = store.upload(program.clone());
/// assert!(!dedup, "first submission stores the program");
/// let (again, dedup) = store.upload(program);
/// assert_eq!(fp, again);
/// assert!(dedup, "identical content deduplicates");
///
/// let resolved = store.resolve(&ProgramRef::Fingerprint(fp)).unwrap();
/// assert_eq!(resolved.fingerprint(), fp);
/// assert_eq!(store.stats().programs, 1);
/// ```
///
/// The store is bounded by image bytes ([`DEFAULT_STORE_BUDGET_BYTES`]
/// by default, see [`ProgramStore::with_budget`]): beyond the budget, the
/// least recently used *unpinned* entries are evicted — uploaded and
/// inline programs re-upload cheaply, while lazily-seeded registry
/// programs are pinned for the store's lifetime (their builders run at
/// most once, so an evicted seed could never come back).
pub struct ProgramStore {
    programs: Mutex<BoundedMap<u64, Arc<Program>>>,
    named: Mutex<HashMap<String, Arc<NamedEntry>>>,
    persist: Option<Arc<PersistStore>>,
    uploads: AtomicU64,
    dedup_hits: AtomicU64,
    seeded: AtomicU64,
}

impl fmt::Debug for ProgramStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramStore").field("stats", &self.stats()).finish()
    }
}

impl ProgramStore {
    /// An empty store with the default budget and no durable tier, behind
    /// an [`Arc`], ready to share across threads.
    pub fn new() -> Arc<ProgramStore> {
        ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, None)
    }

    /// A store whose unpinned programs may hold `budget_bytes` of guest
    /// image in total: beyond it, the least recently used unpinned
    /// entries are evicted on insert. The program being interned is never
    /// the victim, so an upload larger than the whole budget still
    /// resolves (until the next insert). Pinned (seeded registry) entries
    /// sit outside the budget.
    ///
    /// With a durable tier (`persist`), uploaded and inline programs are
    /// published as program images behind the write, [`ProgramStore::get`]
    /// misses read through to disk (so an evicted or restart-lost upload
    /// stays resolvable by `fp:` ref), and
    /// [`ProgramStore::reseed_from_persist`] restores the whole uploaded
    /// set at boot. Registry seeds are rebuilt by their builders, never
    /// persisted.
    ///
    /// # Panics
    ///
    /// Panics if `budget_bytes` is zero.
    pub fn with_budget(budget_bytes: u64, persist: Option<Arc<PersistStore>>) -> Arc<ProgramStore> {
        assert!(budget_bytes >= 1, "the program store needs a budget of at least one byte");
        Arc::new(ProgramStore {
            programs: Mutex::new(BoundedMap::new(budget_bytes)),
            named: Mutex::new(HashMap::new()),
            persist,
            uploads: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
        })
    }

    /// Registers a named registry entry. The builder runs lazily, at most
    /// once, on the first [`ProgramStore::resolve`] that names it.
    pub fn register(
        &self,
        name: &str,
        build: impl Fn() -> Result<Program, String> + Send + Sync + 'static,
    ) {
        self.named.lock().expect("program store poisoned").insert(
            name.to_string(),
            Arc::new(NamedEntry { build: Box::new(build), seeded: OnceLock::new() }),
        );
    }

    /// All registered names, sorted (for error messages and listings).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.named.lock().expect("program store poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let programs = self.programs.lock().expect("program store poisoned");
        StoreStats {
            programs: programs.len(),
            uploads: self.uploads.load(Ordering::SeqCst),
            dedup_hits: self.dedup_hits.load(Ordering::SeqCst),
            seeded: self.seeded.load(Ordering::SeqCst),
            evictions: programs.evictions(),
        }
    }

    /// Guest image bytes of the resident unpinned programs: what the
    /// budget bounds.
    pub fn resident_bytes(&self) -> u64 {
        self.programs.lock().expect("program store poisoned").weight()
    }

    /// Interns `program` under its content fingerprint, evicting least
    /// recently used unpinned *other* entries while the byte budget is
    /// exceeded. Returns the resident program, taken while the lock is
    /// still held (a concurrent insert may evict it right after), and
    /// whether the content was already resident. `pin` marks the entry as
    /// never-evictable (sticky: a later unpinned intern of the same
    /// content keeps the pin). `publish` writes newly resident unpinned
    /// programs behind to the durable tier (off for boot re-seeds and disk
    /// read-throughs, whose images are already on disk).
    fn intern_entry(&self, program: Program, pin: bool, publish: bool) -> (Arc<Program>, bool) {
        let fp = program.fingerprint();
        // A seed joins at weight 0 and is pinned at once, so it never
        // counts against the budget.
        let weight = if pin { 0 } else { image_bytes(&program) };
        let mut programs = self.programs.lock().expect("program store poisoned");
        let (program, resident) = match programs.get(&fp) {
            Some(resident) => (Arc::clone(resident), true),
            None => {
                let program = Arc::new(program);
                programs.insert(fp, Arc::clone(&program), weight);
                (program, false)
            }
        };
        if pin {
            programs.pin(&fp);
        }
        drop(programs);
        // Write-behind outside the lock: the publish is best-effort I/O
        // and must not serialize the store.
        if let Some(tier) = self.persist.as_ref().filter(|_| publish && !pin && !resident) {
            tier.put(PROG_KIND, &prog_key_hex(fp), program.to_image().as_bytes());
        }
        (program, resident)
    }

    /// [`ProgramStore::intern_entry`] without pinning (uploads and inline
    /// sources), published to the durable tier when one is attached.
    fn intern(&self, program: Program) -> (Arc<Program>, bool) {
        self.intern_entry(program, false, true)
    }

    /// Submits a program (the `upload` operation). Returns its content
    /// fingerprint and whether this was a dedup hit (identical content
    /// already resident).
    pub fn upload(&self, program: Program) -> (u64, bool) {
        self.uploads.fetch_add(1, Ordering::SeqCst);
        let (program, dedup) = self.intern(program);
        if dedup {
            self.dedup_hits.fetch_add(1, Ordering::SeqCst);
        }
        (program.fingerprint(), dedup)
    }

    /// The resident program with content fingerprint `fp`, if any.
    /// Counts as a use for LRU purposes.
    fn lookup(&self, fp: u64) -> Option<Arc<Program>> {
        self.programs.lock().expect("program store poisoned").get(&fp).map(|p| Arc::clone(p))
    }

    /// The program with content fingerprint `fp`, if it is resident or
    /// (with a durable tier attached) published on disk. Counts as a use
    /// for LRU purposes; a disk read-through re-interns the program
    /// without re-publishing it.
    pub fn get(&self, fp: u64) -> Option<Arc<Program>> {
        if let Some(program) = self.lookup(fp) {
            return Some(program);
        }
        let program = self.fetch_persisted(fp)?;
        Some(self.intern_entry(program, false, false).0)
    }

    /// Reads the image published under `fp` from the durable tier and
    /// decodes it. An image that does not parse, or whose content
    /// fingerprint contradicts its key, is quarantined (semantic reject —
    /// the store's own checksum passed) and reads as a miss.
    fn fetch_persisted(&self, fp: u64) -> Option<Program> {
        let tier = self.persist.as_ref()?;
        let key = prog_key_hex(fp);
        let bytes = tier.get(PROG_KIND, &key)?;
        let image = match std::str::from_utf8(&bytes) {
            Ok(image) => image,
            Err(_) => {
                tier.quarantine(PROG_KIND, &key, "program image is not UTF-8");
                return None;
            }
        };
        let program = match Program::from_image(image) {
            Ok(program) => program,
            Err(err) => {
                tier.quarantine(PROG_KIND, &key, &format!("program image decode failed: {err}"));
                return None;
            }
        };
        if program.fingerprint() != fp {
            tier.quarantine(PROG_KIND, &key, "program fingerprint contradicts entry key");
            return None;
        }
        Some(program)
    }

    /// Re-interns every program image the durable tier holds (a daemon
    /// boot step), so the uploaded set of the previous incarnation is
    /// resolvable by `fp:` ref immediately. Returns how many programs
    /// were restored; unreadable images are quarantined by the normal
    /// read path and skipped. Upload/dedup counters are untouched.
    pub fn reseed_from_persist(&self) -> usize {
        let Some(tier) = self.persist.as_ref() else {
            return 0;
        };
        let mut restored = 0;
        for key in tier.keys(PROG_KIND) {
            let Ok(fp) = u64::from_str_radix(&key, 16) else {
                continue;
            };
            if self.lookup(fp).is_some() {
                continue;
            }
            if let Some(program) = self.fetch_persisted(fp) {
                self.intern_entry(program, false, false);
                restored += 1;
            }
        }
        restored
    }

    /// Resolves a ref to its program: registry entries are lazily seeded
    /// (built at most once), fingerprints looked up, inline sources parsed
    /// and interned (so repeated identical sources share one entry).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names, non-resident fingerprints, or
    /// inline sources that do not parse.
    pub fn resolve(&self, program_ref: &ProgramRef) -> Result<Arc<Program>, String> {
        match program_ref {
            ProgramRef::Registry(name) => {
                // Look up, then drop the lock *before* any fallible work:
                // both the error message (`names` re-locks) and the
                // builder below must run lock-free.
                let entry = self.named.lock().expect("program store poisoned").get(name).cloned();
                let entry = entry.ok_or_else(|| {
                    format!("unknown program `{name}`; valid programs: {}", self.names().join(", "))
                })?;
                entry
                    .seeded
                    .get_or_init(|| {
                        let program = (entry.build)()?;
                        self.seeded.fetch_add(1, Ordering::SeqCst);
                        // Pinned: the builder never runs again, so an
                        // evicted seed could not be rebuilt. Never
                        // persisted: the builder is the durable copy.
                        Ok(self.intern_entry(program, true, false).0)
                    })
                    .clone()
            }
            ProgramRef::Fingerprint(fp) => self.get(*fp).ok_or_else(|| {
                format!("no program with fingerprint fp:{fp:016x} is resident (upload it first)")
            }),
            ProgramRef::InlineAsm(source) => {
                let program = dbt_riscv::parse_asm(source).map_err(|e| e.to_string())?;
                Ok(self.intern(program).0)
            }
            ProgramRef::InlineImage(source) => {
                let program = Program::from_image(source).map_err(|e| e.to_string())?;
                Ok(self.intern(program).0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{parse_asm, Assembler, Reg};
    use std::sync::atomic::AtomicUsize;

    fn tiny(value: i64) -> Program {
        let mut asm = Assembler::new();
        asm.li(Reg::A0, value);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn ref_grammar_round_trips() {
        for (text, parsed) in [
            ("registry:gemm", ProgramRef::Registry("gemm".to_string())),
            ("fp:00000000000000ff", ProgramRef::Fingerprint(0xff)),
            ("asm:ecall", ProgramRef::InlineAsm("ecall".to_string())),
            ("image:{}", ProgramRef::InlineImage("{}".to_string())),
        ] {
            let r = ProgramRef::parse(text).unwrap();
            assert_eq!(r, parsed, "{text}");
            assert_eq!(ProgramRef::parse(&r.to_string()).unwrap(), r, "canonical form parses");
        }
        assert_eq!(
            ProgramRef::parse("gemm").unwrap(),
            ProgramRef::Registry("gemm".to_string()),
            "bare names are registry refs"
        );
        assert!(ProgramRef::parse("fp:xyz").is_err());
        assert!(ProgramRef::parse("teleport:now").unwrap_err().contains("teleport"));
    }

    #[test]
    fn uploads_deduplicate_by_content() {
        let store = ProgramStore::new();
        let (a, dedup_a) = store.upload(tiny(1));
        let (b, dedup_b) = store.upload(tiny(1));
        let (c, dedup_c) = store.upload(tiny(2));
        assert_eq!(a, b, "identical content, identical address");
        assert_ne!(a, c);
        assert!(!dedup_a);
        assert!(dedup_b);
        assert!(!dedup_c);
        let stats = store.stats();
        assert_eq!((stats.programs, stats.uploads, stats.dedup_hits), (2, 3, 1));
        assert_eq!(
            stats.to_json(),
            "{\"programs\": 2, \"uploads\": 3, \"dedup_hits\": 1, \"seeded\": 0, \"evictions\": 0}"
        );
    }

    /// `tiny(value)` plus `data` bytes of initialised data.
    fn sized(value: i64, data: u64) -> Program {
        let mut asm = Assembler::new();
        asm.alloc_data("payload", data);
        asm.li(Reg::A0, value);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_upload() {
        // Two instructions (8 bytes) plus 1000 data bytes each: two fit.
        assert_eq!(image_bytes(&sized(1, 1000)), 1008);
        let store = ProgramStore::with_budget(2100, None);
        let (first, _) = store.upload(sized(1, 1000));
        let (second, _) = store.upload(sized(2, 1000));
        assert_eq!(store.resident_bytes(), 2016);
        // Touch the older entry so the newer one becomes the LRU victim.
        assert!(store.get(first).is_some());
        let (third, _) = store.upload(sized(3, 1000));
        let stats = store.stats();
        assert_eq!(stats.programs, 2, "the byte budget holds");
        assert_eq!(stats.evictions, 1);
        assert_eq!(store.resident_bytes(), 2016);
        assert!(store.get(first).is_some(), "recently used entries survive");
        assert!(store.get(second).is_none(), "the LRU entry was evicted");
        assert!(store.get(third).is_some());
        // An evicted program is not gone forever: re-uploading restores it
        // (as a fresh store, not a dedup hit).
        let (again, dedup) = store.upload(sized(2, 1000));
        assert_eq!(again, second);
        assert!(!dedup, "the evicted entry really left the store");
        // An upload larger than the whole budget still resolves: it evicts
        // everything else, never itself.
        let (huge, _) = store.upload(sized(4, 5000));
        assert!(store.get(huge).is_some());
        assert_eq!((store.stats().programs, store.resident_bytes()), (1, 5008));
    }

    #[test]
    fn inline_programs_resolve_while_other_inserts_evict_them() {
        // Every program outweighs the whole budget, so each insert evicts
        // all the others: a resolve that looked its program up again after
        // interning it would find another thread's insert had evicted it.
        let store = ProgramStore::with_budget(1, None);
        std::thread::scope(|scope| {
            for thread in 0..2i64 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..300 {
                        let value = thread * 1000 + i;
                        let program_ref = if i % 2 == 0 {
                            ProgramRef::InlineAsm(format!(".data p, 64\nli a0, {value}\necall\n"))
                        } else {
                            ProgramRef::InlineImage(sized(value, 64).to_image())
                        };
                        let program = store.resolve(&program_ref);
                        assert!(program.is_ok(), "{program_ref}: {:?}", program.err());
                    }
                });
            }
        });
        assert!(store.stats().evictions >= 598, "{:?}", store.stats());
    }

    #[test]
    fn seeded_registry_programs_are_pinned_against_eviction() {
        let store = ProgramStore::with_budget(1, None);
        store.register("tiny", || Ok(tiny(7)));
        let r = ProgramRef::parse("tiny").unwrap();
        let seeded_fp = store.resolve(&r).unwrap().fingerprint();
        // Flood the store with uploads far past the capacity: the seed
        // must survive every round, because its builder never re-runs.
        for value in 10..20 {
            store.upload(tiny(value));
            assert!(
                store.resolve(&r).is_ok(),
                "a seeded program must stay resolvable under upload pressure"
            );
        }
        assert!(store.get(seeded_fp).is_some());
        assert!(store.stats().evictions > 0, "unpinned uploads did get evicted");
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_capacity_is_rejected() {
        let _ = ProgramStore::with_budget(0, None);
    }

    #[test]
    fn registry_entries_seed_lazily_and_exactly_once() {
        let store = ProgramStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        store.register("tiny", move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(tiny(7))
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0, "registration must not build");
        assert_eq!(store.stats().programs, 0);

        let r = ProgramRef::parse("tiny").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let program = store.resolve(&r).unwrap();
                    assert_eq!(program.fingerprint(), tiny(7).fingerprint());
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "late askers share the winner's build");
        assert_eq!(store.stats().seeded, 1);
        assert_eq!(store.stats().programs, 1);

        // Seeded programs are also addressable by fingerprint.
        let fp = tiny(7).fingerprint();
        assert!(store.resolve(&ProgramRef::Fingerprint(fp)).is_ok());
    }

    #[test]
    fn unknown_names_and_fingerprints_are_described() {
        let store = ProgramStore::new();
        store.register("only", || Ok(tiny(0)));
        let err = store.resolve(&ProgramRef::Registry("nope".to_string())).unwrap_err();
        assert!(err.contains("nope") && err.contains("only"), "{err}");
        let err = store.resolve(&ProgramRef::Fingerprint(0xdead)).unwrap_err();
        assert!(err.contains("upload"), "{err}");
        store.register("broken", || Err("no such kernel".to_string()));
        let err = store.resolve(&ProgramRef::Registry("broken".to_string())).unwrap_err();
        assert!(err.contains("no such kernel"), "{err}");
    }

    fn fresh_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("dbt-platform-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn uploads_survive_restart_via_reseed_and_read_through() {
        let root = fresh_root("reseed");
        let fp = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(tier));
            let (fp, dedup) = store.upload(tiny(1));
            assert!(!dedup);
            fp
        };
        // A restarted store over the same root: boot re-seed restores
        // the upload, upload/dedup counters stay untouched.
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(Arc::clone(&tier)));
        assert_eq!(store.reseed_from_persist(), 1);
        assert_eq!(store.reseed_from_persist(), 0, "a second re-seed finds everything resident");
        let stats = store.stats();
        assert_eq!((stats.programs, stats.uploads, stats.dedup_hits), (1, 0, 0));
        let resolved = store.resolve(&ProgramRef::Fingerprint(fp)).unwrap();
        assert_eq!(resolved.fingerprint(), fp);
        // Re-uploading the same content is now a dedup hit, and the
        // re-seed published nothing new.
        let (again, dedup) = store.upload(tiny(1));
        assert_eq!(again, fp);
        assert!(dedup);
        assert_eq!(tier.stats().writes, 0, "re-seeds and dedups never re-publish");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn get_reads_through_without_a_boot_reseed() {
        let root = fresh_root("readthrough");
        let fp = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(tier));
            store.upload(tiny(2)).0
        };
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(tier));
        assert_eq!(store.stats().programs, 0);
        let program = store.get(fp).expect("a persisted image answers a cold get");
        assert_eq!(program.fingerprint(), fp);
        assert_eq!(store.stats().programs, 1, "the read-through re-interned the program");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_persisted_images_are_quarantined_not_errors() {
        let root = fresh_root("corrupt");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        // A store-valid entry that is not a program image at all, plus
        // one whose image decodes to a different fingerprint.
        assert!(tier.put(PROG_KIND, &prog_key_hex(0xdead), b"not an image"));
        assert!(tier.put(PROG_KIND, &prog_key_hex(0xbeef), tiny(3).to_image().as_bytes()));
        let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(Arc::clone(&tier)));
        assert_eq!(store.reseed_from_persist(), 0);
        assert!(store.get(0xdead).is_none());
        assert!(store.get(0xbeef).is_none());
        assert_eq!(tier.stats().corrupt_quarantined, 2);
        assert_eq!(tier.stats().entries, 0, "both bad entries left objects/");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn registry_seeds_are_never_published() {
        let root = fresh_root("seeds");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_budget(DEFAULT_STORE_BUDGET_BYTES, Some(Arc::clone(&tier)));
        store.register("tiny", || Ok(tiny(7)));
        let _ = store.resolve(&ProgramRef::parse("tiny").unwrap()).unwrap();
        assert_eq!(tier.stats().writes, 0, "builders are the durable copy of registry seeds");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn inline_sources_parse_and_intern() {
        let store = ProgramStore::new();
        let asm_ref = ProgramRef::InlineAsm("li a0, 5\necall\n".to_string());
        let first = store.resolve(&asm_ref).unwrap();
        let second = store.resolve(&asm_ref).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "identical source shares one entry");

        let image = parse_asm("li a0, 5\necall\n").unwrap().to_image();
        let image_ref = ProgramRef::InlineImage(image);
        let from_image = store.resolve(&image_ref).unwrap();
        assert_eq!(
            from_image.fingerprint(),
            first.fingerprint(),
            "asm and image forms of the same program share one content address"
        );
        assert_eq!(store.stats().programs, 1);

        assert!(store.resolve(&ProgramRef::InlineAsm("bad!".to_string())).is_err());
        assert!(store.resolve(&ProgramRef::InlineImage("{}".to_string())).is_err());
    }
}
