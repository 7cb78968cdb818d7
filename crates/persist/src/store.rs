//! The on-disk store: fanout layout, atomic publishes, checksum framing,
//! quarantine, manifest versioning and byte-budget LRU GC.

use crate::codec::{ByteReader, ByteWriter};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Schema identifier of the entry format, stamped into the manifest. Any
/// incompatible change to the on-disk layout bumps this string, which
/// makes older caches be ignored wholesale at open.
pub const ENTRY_SCHEMA: &str = "dbt-persist/entry/v1";

/// Version number inside each entry header (matches [`ENTRY_SCHEMA`]).
pub const ENTRY_VERSION: u32 = 1;

/// Magic bytes opening every entry file.
const MAGIC: &[u8; 4] = b"DBTP";

/// Process-wide counter making temp-file names unique even when several
/// stores in one process (a router fleet hosted in-process) share a root.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a over `bytes` — the entry checksum. Std-only, deterministic
/// across platforms, and plenty to catch torn writes and bit flips (the
/// threat model; this is not a cryptographic integrity guarantee).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Snapshot of the store's counters plus a scan of the directory.
///
/// The counters (`hits` … `gc_evictions`) are process-local — they start
/// at zero on every open, like the in-memory tiers' counters. The scanned
/// members (`entries`, `disk_bytes`, `quarantined`) describe the shared
/// directory itself, so two daemons on one root agree on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Entries read back and validated successfully.
    pub hits: u64,
    /// Reads that found no (valid) entry — includes quarantined reads.
    pub misses: u64,
    /// Entries published (atomic renames completed).
    pub writes: u64,
    /// Entries rejected by validation and moved to `corrupt/`.
    pub corrupt_quarantined: u64,
    /// Entries deleted by byte-budget GC.
    pub gc_evictions: u64,
    /// Entry files currently under `objects/`.
    pub entries: u64,
    /// Total size in bytes of the files under `objects/`.
    pub disk_bytes: u64,
    /// Files currently under `corrupt/` (individual quarantined entries
    /// plus everything inside wholesale-quarantined incompatible caches).
    pub quarantined: u64,
}

impl PersistStats {
    /// Stable single-line JSON (fixed key order), for the daemon's
    /// `stats` response and the `lab cache stats` CLI.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"hits\": {}, \"misses\": {}, \"writes\": {}, \"corrupt_quarantined\": {}, \
             \"gc_evictions\": {}, \"entries\": {}, \"disk_bytes\": {}, \"quarantined\": {}}}",
            self.hits,
            self.misses,
            self.writes,
            self.corrupt_quarantined,
            self.gc_evictions,
            self.entries,
            self.disk_bytes,
            self.quarantined
        )
    }
}

/// What one [`PersistStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries deleted this pass.
    pub evicted: u64,
    /// Bytes reclaimed this pass.
    pub reclaimed_bytes: u64,
    /// Entries remaining after the pass.
    pub remaining_entries: u64,
    /// Bytes remaining after the pass.
    pub remaining_bytes: u64,
}

impl GcOutcome {
    /// Stable single-line JSON (fixed key order), for the `lab cache gc`
    /// CLI.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"evicted\": {}, \"reclaimed_bytes\": {}, \"remaining_entries\": {}, \
             \"remaining_bytes\": {}}}",
            self.evicted, self.reclaimed_bytes, self.remaining_entries, self.remaining_bytes
        )
    }
}

/// Noteworthy store events, delivered to the observer the owner installed
/// (the lab daemon forwards them into its event log). Routine hits,
/// misses and writes are counters, not events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistEvent {
    /// An entry failed validation and was moved to `corrupt/`.
    CorruptQuarantined {
        /// Entry kind (`run`, `prog`, …).
        kind: String,
        /// Entry key (lowercase hex).
        key: String,
        /// Which check rejected it.
        reason: String,
    },
    /// A GC pass deleted entries to honour a byte budget.
    GcEvicted {
        /// Entries deleted.
        entries: u64,
        /// Bytes reclaimed.
        bytes: u64,
    },
}

type Observer = Box<dyn Fn(&PersistEvent) + Send + Sync>;

/// The durable content-addressed store. See the [crate docs](crate) for
/// the design; the short version of the contract:
///
/// * [`PersistStore::get`] / [`PersistStore::put`] never surface an
///   error — a bad read is a miss (after quarantining the entry), a bad
///   write is a dropped write. Callers always have the recompute path.
/// * The **only** publish point is an atomic rename of a fully written,
///   fsynced temp file, so concurrent daemons sharing one root can never
///   observe a half-written entry.
/// * An entry is validated in full on read: magic, version, kind, key
///   and payload checksum must all match, and no trailing bytes may
///   remain.
///
/// ```
/// let root = std::env::temp_dir().join(format!("dbt-persist-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&root);
/// let store = dbt_persist::PersistStore::open(&root).unwrap();
/// assert!(store.put("run", "00ff00ff00ff00ff", b"summary bytes"));
/// assert_eq!(store.get("run", "00ff00ff00ff00ff").as_deref(), Some(&b"summary bytes"[..]));
/// assert_eq!(store.get("run", "0000000000000000"), None, "absent keys miss");
/// let stats = store.stats();
/// assert_eq!((stats.hits, stats.misses, stats.writes, stats.entries), (1, 1, 1, 1));
/// # std::fs::remove_dir_all(&root).unwrap();
/// ```
pub struct PersistStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt_quarantined: AtomicU64,
    gc_evictions: AtomicU64,
    incompatible_reset: bool,
    observer: Mutex<Option<Observer>>,
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistStore").field("root", &self.root).finish()
    }
}

impl PersistStore {
    /// Opens (creating as needed) the store rooted at `root`.
    ///
    /// If a manifest is already present and does not match this build's
    /// schema and crate version exactly, the existing `objects/` tree is
    /// moved wholesale under `corrupt/` and a fresh cache is started —
    /// an incompatible cache is never read and never an error
    /// ([`PersistStore::incompatible_reset`] reports that it happened).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory layout cannot be created
    /// or the manifest cannot be written — an unusable root is a
    /// configuration error, unlike per-entry corruption which is handled
    /// silently.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Arc<PersistStore>> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("corrupt"))?;

        let manifest_path = root.join("manifest.json");
        let expected = format!(
            "{{\"schema\": \"{ENTRY_SCHEMA}\", \"crate_version\": \"{}\"}}\n",
            env!("CARGO_PKG_VERSION")
        );
        let mut incompatible_reset = false;
        match fs::read_to_string(&manifest_path) {
            Ok(found) if found == expected => {}
            Ok(_) => {
                // A manifest from another schema or build: quarantine the
                // whole objects tree and start fresh. A concurrent opener
                // may have won the rename; losing that race is fine, the
                // loser just finds (or recreates) an empty objects dir.
                incompatible_reset = true;
                let mut n = 0;
                let dest = loop {
                    let candidate = root.join("corrupt").join(format!("incompatible-{n}"));
                    if !candidate.exists() {
                        break candidate;
                    }
                    n += 1;
                };
                let _ = fs::rename(root.join("objects"), dest);
                fs::create_dir_all(root.join("objects"))?;
                write_atomic(&root, &manifest_path, expected.as_bytes())?;
            }
            Err(_) => write_atomic(&root, &manifest_path, expected.as_bytes())?,
        }

        Ok(Arc::new(PersistStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt_quarantined: AtomicU64::new(0),
            gc_evictions: AtomicU64::new(0),
            incompatible_reset,
            observer: Mutex::new(None),
        }))
    }

    /// The directory this store lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// True when [`PersistStore::open`] found an incompatible manifest
    /// and quarantined the previous cache wholesale.
    pub fn incompatible_reset(&self) -> bool {
        self.incompatible_reset
    }

    /// Installs the event observer (replacing any previous one). The lab
    /// daemon uses this to narrate quarantines and GC passes into its
    /// event log.
    pub fn set_observer(&self, observer: impl Fn(&PersistEvent) + Send + Sync + 'static) {
        *self.observer.lock().expect("persist observer poisoned") = Some(Box::new(observer));
    }

    fn notify(&self, event: PersistEvent) {
        if let Some(observer) = &*self.observer.lock().expect("persist observer poisoned") {
            observer(&event);
        }
    }

    /// `kind` must be a short lowercase-ASCII word and `key` lowercase
    /// hex: together they form the entry's file name, so anything else
    /// (path separators above all) is rejected outright.
    fn valid(kind: &str, key: &str) -> bool {
        !kind.is_empty()
            && kind.bytes().all(|b| b.is_ascii_lowercase())
            && key.len() >= 2
            && key.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    }

    /// `objects/<first two hex digits of key>/<kind>-<key>`.
    fn entry_path(&self, kind: &str, key: &str) -> PathBuf {
        self.root.join("objects").join(&key[..2]).join(format!("{kind}-{key}"))
    }

    /// The payload stored under `(kind, key)`, or `None` — absent and
    /// invalid entries both read as misses. A valid hit refreshes the
    /// entry's access stamp (its mtime) for LRU GC; an invalid entry is
    /// quarantined to `corrupt/` so the recompute can re-publish cleanly.
    pub fn get(&self, kind: &str, key: &str) -> Option<Vec<u8>> {
        if !PersistStore::valid(kind, key) {
            self.misses.fetch_add(1, Ordering::SeqCst);
            return None;
        }
        let path = self.entry_path(kind, key);
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                return None;
            }
        };
        match decode_entry(&data, kind, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                // Best-effort access stamp; a failed touch only skews GC
                // order, never correctness.
                if let Ok(file) = fs::File::open(&path) {
                    let _ = file.set_modified(SystemTime::now());
                }
                Some(payload)
            }
            Err(reason) => {
                self.quarantine_file(&path, kind, key, &reason);
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Publishes `payload` under `(kind, key)`: framed, written to
    /// `tmp/`, fsynced, then atomically renamed into `objects/` (the only
    /// publish point — readers and concurrent writers either see the old
    /// complete entry or the new complete entry). Best-effort: returns
    /// whether the publish happened; an I/O failure drops the write
    /// (callers always retain the recompute path).
    pub fn put(&self, kind: &str, key: &str, payload: &[u8]) -> bool {
        if !PersistStore::valid(kind, key) {
            return false;
        }
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let publish = || -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&encode_entry(kind, key, payload))?;
            file.sync_all()?;
            drop(file);
            let path = self.entry_path(kind, key);
            let fanout = path.parent().expect("entry paths have a fanout parent");
            fs::create_dir_all(fanout)?;
            fs::rename(&tmp, &path)?;
            // Make the rename itself durable; an unsynced directory only
            // risks losing the entry on power loss, never tearing it.
            if let Ok(dir) = fs::File::open(fanout) {
                let _ = dir.sync_all();
            }
            Ok(())
        };
        match publish() {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::SeqCst);
                true
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                false
            }
        }
    }

    /// Quarantines the entry under `(kind, key)` for a *semantic* reason
    /// the store cannot check itself — e.g. a payload that frames and
    /// checksums correctly but decodes to an artifact whose embedded
    /// fingerprint contradicts its key.
    pub fn quarantine(&self, kind: &str, key: &str, reason: &str) {
        if !PersistStore::valid(kind, key) {
            return;
        }
        let path = self.entry_path(kind, key);
        if path.exists() {
            self.quarantine_file(&path, kind, key, reason);
        }
    }

    fn quarantine_file(&self, path: &Path, kind: &str, key: &str, reason: &str) {
        let dest = self.root.join("corrupt").join(format!("{kind}-{key}"));
        if fs::rename(path, &dest).is_err() {
            // A concurrent quarantine of the same entry can win the
            // rename; removing the leftover keeps the miss semantics.
            let _ = fs::remove_file(path);
        }
        self.corrupt_quarantined.fetch_add(1, Ordering::SeqCst);
        self.notify(PersistEvent::CorruptQuarantined {
            kind: kind.to_string(),
            key: key.to_string(),
            reason: reason.to_string(),
        });
    }

    /// All keys currently published under `kind`, sorted. Used by the
    /// program-store boot re-seed; entries that fail to read later are
    /// handled by the normal get/quarantine path.
    pub fn keys(&self, kind: &str) -> Vec<String> {
        let prefix = format!("{kind}-");
        let mut keys: Vec<String> = scan_entries(&self.root)
            .into_iter()
            .filter_map(|entry| entry.file_name.strip_prefix(&prefix).map(|key| key.to_string()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Counter snapshot plus a directory scan (see [`PersistStats`]).
    pub fn stats(&self) -> PersistStats {
        let entries = scan_entries(&self.root);
        PersistStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            writes: self.writes.load(Ordering::SeqCst),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::SeqCst),
            gc_evictions: self.gc_evictions.load(Ordering::SeqCst),
            entries: entries.len() as u64,
            disk_bytes: entries.iter().map(|e| e.len).sum(),
            quarantined: count_files(&self.root.join("corrupt")),
        }
    }

    /// Deletes least-recently-accessed entries (by mtime, path as the
    /// deterministic tiebreak) until the store fits `budget_bytes`.
    /// Entries touched by [`PersistStore::get`] carry fresh access
    /// stamps, so the victims are the cold tail.
    pub fn gc(&self, budget_bytes: u64) -> GcOutcome {
        let mut entries = scan_entries(&self.root);
        let mut total: u64 = entries.iter().map(|e| e.len).sum();
        entries.sort_by(|a, b| (a.mtime, &a.path).cmp(&(b.mtime, &b.path)));
        let mut outcome = GcOutcome::default();
        let mut kept = entries.len() as u64;
        for entry in &entries {
            if total <= budget_bytes {
                break;
            }
            if fs::remove_file(&entry.path).is_ok() {
                total -= entry.len;
                kept -= 1;
                outcome.evicted += 1;
                outcome.reclaimed_bytes += entry.len;
            }
        }
        outcome.remaining_entries = kept;
        outcome.remaining_bytes = total;
        self.gc_evictions.fetch_add(outcome.evicted, Ordering::SeqCst);
        if outcome.evicted > 0 {
            self.notify(PersistEvent::GcEvicted {
                entries: outcome.evicted,
                bytes: outcome.reclaimed_bytes,
            });
        }
        outcome
    }

    /// Deletes every entry, every quarantined file and every leftover
    /// temp file, keeping the manifest. Returns the number of entries
    /// that were resident.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory layout cannot be rebuilt.
    pub fn clear(&self) -> io::Result<u64> {
        let entries = scan_entries(&self.root).len() as u64;
        for dir in ["objects", "corrupt", "tmp"] {
            let path = self.root.join(dir);
            let _ = fs::remove_dir_all(&path);
            fs::create_dir_all(&path)?;
        }
        Ok(entries)
    }
}

/// One scanned entry file.
struct ScannedEntry {
    path: PathBuf,
    file_name: String,
    len: u64,
    mtime: SystemTime,
}

/// Every entry file under `objects/` (two levels of fanout).
fn scan_entries(root: &Path) -> Vec<ScannedEntry> {
    let mut out = Vec::new();
    let Ok(fanouts) = fs::read_dir(root.join("objects")) else {
        return out;
    };
    for fanout in fanouts.flatten() {
        let Ok(files) = fs::read_dir(fanout.path()) else {
            continue;
        };
        for file in files.flatten() {
            let Ok(meta) = file.metadata() else {
                continue;
            };
            if !meta.is_file() {
                continue;
            }
            out.push(ScannedEntry {
                path: file.path(),
                file_name: file.file_name().to_string_lossy().into_owned(),
                len: meta.len(),
                mtime: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            });
        }
    }
    out
}

/// Recursive file count (quarantined entries plus wholesale-quarantined
/// incompatible caches, which are directories).
fn count_files(dir: &Path) -> u64 {
    let Ok(read) = fs::read_dir(dir) else {
        return 0;
    };
    let mut count = 0;
    for entry in read.flatten() {
        match entry.metadata() {
            Ok(meta) if meta.is_dir() => count += count_files(&entry.path()),
            Ok(meta) if meta.is_file() => count += 1,
            _ => {}
        }
    }
    count
}

/// Writes `bytes` to `path` via the store's tmp dir and an atomic rename
/// (the manifest uses the same publish discipline as entries).
fn write_atomic(root: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = root.join("tmp").join(format!(
        "{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Frames `payload` as a `dbt-persist/entry/v1` file: magic, version,
/// kind, key, FNV-1a checksum, then the length-prefixed payload.
fn encode_entry(kind: &str, key: &str, payload: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_raw(MAGIC);
    w.put_u32(ENTRY_VERSION);
    w.put_str(kind);
    w.put_str(key);
    w.put_u64(fnv1a64(payload));
    w.put_bytes(payload);
    w.finish()
}

/// Validates an entry file in full against the `(kind, key)` it was
/// looked up under, returning the payload or the reason it is invalid.
fn decode_entry(data: &[u8], kind: &str, key: &str) -> Result<Vec<u8>, String> {
    let mut r = ByteReader::new(data);
    match r.take(4) {
        Some(magic) if magic == MAGIC => {}
        _ => return Err("bad magic".to_string()),
    }
    match r.u32() {
        Some(ENTRY_VERSION) => {}
        Some(version) => return Err(format!("unsupported entry version {version}")),
        None => return Err("truncated header".to_string()),
    }
    match r.str() {
        Some(found) if found == kind => {}
        _ => return Err("kind mismatch".to_string()),
    }
    match r.str() {
        Some(found) if found == key => {}
        _ => return Err("key mismatch".to_string()),
    }
    let Some(checksum) = r.u64() else {
        return Err("truncated header".to_string());
    };
    let Some(payload) = r.bytes() else {
        return Err("truncated payload".to_string());
    };
    if !r.done() {
        return Err("trailing bytes".to_string());
    }
    if fnv1a64(payload) != checksum {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A fresh, empty root per test.
    fn fresh_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "dbt-persist-test-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&root);
        root
    }

    const KEY_A: &str = "00000000000000aa";
    const KEY_B: &str = "00000000000000bb";
    const KEY_C: &str = "00000000000000cc";

    #[test]
    fn round_trips_and_counts() {
        let root = fresh_root("roundtrip");
        let store = PersistStore::open(&root).unwrap();
        assert!(!store.incompatible_reset());
        assert!(store.put("run", KEY_A, b"alpha"));
        assert!(store.put("prog", KEY_A, b"beta"));
        assert_eq!(store.get("run", KEY_A).as_deref(), Some(&b"alpha"[..]));
        assert_eq!(store.get("prog", KEY_A).as_deref(), Some(&b"beta"[..]));
        assert_eq!(store.get("run", KEY_B), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (2, 1, 2));
        assert_eq!(stats.entries, 2);
        assert!(stats.disk_bytes > 0);
        assert_eq!((stats.corrupt_quarantined, stats.quarantined), (0, 0));
        assert_eq!(store.keys("run"), vec![KEY_A.to_string()]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn entries_survive_reopen() {
        let root = fresh_root("reopen");
        {
            let store = PersistStore::open(&root).unwrap();
            assert!(store.put("run", KEY_A, b"durable"));
        }
        let store = PersistStore::open(&root).unwrap();
        assert!(!store.incompatible_reset());
        assert_eq!(store.get("run", KEY_A).as_deref(), Some(&b"durable"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn bit_flips_are_quarantined_and_recomputable() {
        let root = fresh_root("bitflip");
        let store = PersistStore::open(&root).unwrap();
        assert!(store.put("run", KEY_A, b"payload-bytes"));
        let path = store.entry_path("run", KEY_A);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get("run", KEY_A), None, "a flipped entry reads as a miss");
        assert!(!path.exists(), "the bad entry left objects/");
        assert!(root.join("corrupt").join(format!("run-{KEY_A}")).exists());
        let stats = store.stats();
        assert_eq!(stats.corrupt_quarantined, 1);
        assert_eq!(stats.quarantined, 1);
        // The recompute path re-publishes over the quarantined key.
        assert!(store.put("run", KEY_A, b"payload-bytes"));
        assert_eq!(store.get("run", KEY_A).as_deref(), Some(&b"payload-bytes"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncation_is_quarantined() {
        let root = fresh_root("truncate");
        let store = PersistStore::open(&root).unwrap();
        assert!(store.put("run", KEY_A, b"a run summary worth of bytes"));
        let path = store.entry_path("run", KEY_A);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(store.get("run", KEY_A), None);
        assert_eq!(store.stats().corrupt_quarantined, 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn trailing_bytes_and_foreign_files_are_quarantined() {
        let root = fresh_root("trailing");
        let store = PersistStore::open(&root).unwrap();
        assert!(store.put("run", KEY_A, b"x"));
        let path = store.entry_path("run", KEY_A);
        let mut bytes = fs::read(&path).unwrap();
        bytes.push(0);
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get("run", KEY_A), None);

        // A file that is not an entry at all.
        fs::create_dir_all(store.entry_path("run", KEY_B).parent().unwrap()).unwrap();
        fs::write(store.entry_path("run", KEY_B), b"not an entry").unwrap();
        assert_eq!(store.get("run", KEY_B), None);
        assert_eq!(store.stats().corrupt_quarantined, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn kind_and_key_cross_checks_reject_renamed_entries() {
        let root = fresh_root("crosscheck");
        let store = PersistStore::open(&root).unwrap();
        assert!(store.put("run", KEY_A, b"for key A"));
        // Copy A's bytes over B's slot: framing and checksum are intact,
        // but the embedded key contradicts the lookup.
        let bytes = fs::read(store.entry_path("run", KEY_A)).unwrap();
        let dest = store.entry_path("run", KEY_B);
        fs::create_dir_all(dest.parent().unwrap()).unwrap();
        fs::write(&dest, &bytes).unwrap();
        assert_eq!(store.get("run", KEY_B), None);
        assert!(store.stats().corrupt_quarantined >= 1);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn incompatible_manifest_quarantines_the_whole_cache() {
        let root = fresh_root("manifest");
        {
            let store = PersistStore::open(&root).unwrap();
            assert!(store.put("run", KEY_A, b"old world"));
        }
        fs::write(root.join("manifest.json"), b"{\"schema\": \"something/else/v9\"}\n").unwrap();
        let store = PersistStore::open(&root).unwrap();
        assert!(store.incompatible_reset());
        assert_eq!(store.get("run", KEY_A), None, "old entries are ignored wholesale");
        let stats = store.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.quarantined, 1, "the old entry sits under corrupt/");
        // The new world works normally.
        assert!(store.put("run", KEY_A, b"new world"));
        assert_eq!(store.get("run", KEY_A).as_deref(), Some(&b"new world"[..]));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn gc_evicts_the_cold_tail_by_access_stamp() {
        let root = fresh_root("gc");
        let store = PersistStore::open(&root).unwrap();
        let payload = vec![7u8; 64];
        assert!(store.put("run", KEY_A, &payload));
        assert!(store.put("run", KEY_B, &payload));
        assert!(store.put("run", KEY_C, &payload));
        // Stamp explicit, well-separated access times (filesystem mtime
        // granularity is too coarse to rely on write order).
        let base = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        for (key, age) in [(KEY_A, 30u64), (KEY_B, 10), (KEY_C, 20)] {
            let file = fs::File::open(store.entry_path("run", key)).unwrap();
            file.set_modified(base - Duration::from_secs(age)).unwrap();
        }
        let entry_len = fs::metadata(store.entry_path("run", KEY_A)).unwrap().len();
        // Budget for exactly one entry: the two oldest (A then C) go.
        let outcome = store.gc(entry_len);
        assert_eq!(outcome.evicted, 2);
        assert_eq!(outcome.remaining_entries, 1);
        assert_eq!(outcome.reclaimed_bytes, 2 * entry_len);
        assert_eq!(outcome.remaining_bytes, entry_len);
        assert_eq!(store.get("run", KEY_A), None);
        assert_eq!(store.get("run", KEY_C), None);
        assert!(store.get("run", KEY_B).is_some(), "the most recently used entry survives");
        assert_eq!(store.stats().gc_evictions, 2);
        // Within budget: a second pass is a no-op.
        assert_eq!(store.gc(u64::MAX).evicted, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn clear_wipes_entries_and_quarantine() {
        let root = fresh_root("clear");
        let store = PersistStore::open(&root).unwrap();
        assert!(store.put("run", KEY_A, b"x"));
        store.quarantine("run", KEY_A, "test");
        assert!(store.put("run", KEY_B, b"y"));
        assert_eq!(store.clear().unwrap(), 1);
        let stats = store.stats();
        assert_eq!((stats.entries, stats.quarantined), (0, 0));
        assert_eq!(store.get("run", KEY_B), None);
        // The store stays usable after a clear.
        assert!(store.put("run", KEY_C, b"z"));
        assert!(store.get("run", KEY_C).is_some());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hostile_kinds_and_keys_never_touch_the_filesystem() {
        let root = fresh_root("hostile");
        let store = PersistStore::open(&root).unwrap();
        for (kind, key) in [
            ("run", "../../etc/passwd"),
            ("run", "ABCDEF0000000000"),
            ("run", "g000000000000000"),
            ("run", "0"),
            ("", KEY_A),
            ("Run", KEY_A),
            ("run/x", KEY_A),
        ] {
            assert!(!store.put(kind, key, b"nope"), "{kind}/{key} must be rejected");
            assert_eq!(store.get(kind, key), None);
        }
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_key_publish_atomically() {
        let root = fresh_root("concurrent");
        let store = PersistStore::open(&root).unwrap();
        let payload = vec![0xabu8; 512];
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        assert!(store.put("run", KEY_A, &payload));
                        let got = store.get("run", KEY_A).expect("published entries read back");
                        assert_eq!(got, payload, "no reader ever sees a torn entry");
                    }
                });
            }
        });
        assert_eq!(store.stats().corrupt_quarantined, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn observer_sees_quarantines_and_gc() {
        let root = fresh_root("observer");
        let store = PersistStore::open(&root).unwrap();
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        store.set_observer(move |event| sink.lock().unwrap().push(event.clone()));
        assert!(store.put("run", KEY_A, b"x"));
        let path = store.entry_path("run", KEY_A);
        fs::write(&path, b"garbage").unwrap();
        assert_eq!(store.get("run", KEY_A), None);
        assert!(store.put("run", KEY_B, b"y"));
        store.gc(0);
        let events = events.lock().unwrap();
        assert!(matches!(
            &events[0],
            PersistEvent::CorruptQuarantined { kind, key, .. }
                if kind == "run" && key == KEY_A
        ));
        assert!(matches!(&events[1], PersistEvent::GcEvicted { entries: 1, .. }));
    }

    #[test]
    fn stats_json_is_stable() {
        let stats = PersistStats {
            hits: 1,
            misses: 2,
            writes: 3,
            corrupt_quarantined: 4,
            gc_evictions: 5,
            entries: 6,
            disk_bytes: 7,
            quarantined: 8,
        };
        assert_eq!(
            stats.to_json(),
            "{\"hits\": 1, \"misses\": 2, \"writes\": 3, \"corrupt_quarantined\": 4, \
             \"gc_evictions\": 5, \"entries\": 6, \"disk_bytes\": 7, \"quarantined\": 8}"
        );
        let outcome =
            GcOutcome { evicted: 1, reclaimed_bytes: 2, remaining_entries: 3, remaining_bytes: 4 };
        assert_eq!(
            outcome.to_json(),
            "{\"evicted\": 1, \"reclaimed_bytes\": 2, \"remaining_entries\": 3, \
             \"remaining_bytes\": 4}"
        );
    }
}
