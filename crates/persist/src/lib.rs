//! `dbt-persist` — the durable, content-addressed cache tier.
//!
//! Every cache above the simulated platform — the `TranslationService`
//! memo, the `RunMemo`, the `ProgramStore` — lives in memory, so a daemon
//! restart is cold: the whole hot working set re-simulates and
//! re-translates until the hit rate rebuilds from scratch. This crate is
//! the missing tier between "fast while up" and "fast, period": a
//! ccache-style on-disk store that survives process lifetimes.
//!
//! The design in one paragraph: entries are addressed by the **existing**
//! content fingerprints (program fingerprint, analysis key, run-memo
//! key), stored under a two-level `objects/<xx>/<rest>` fanout, published
//! only by **atomic rename** of a checksum-framed, fsynced temp file (the
//! `dbt-persist/entry/v1` format, see [`ENTRY_SCHEMA`]), and validated in
//! full on every read — a torn, truncated or bit-flipped entry is
//! **quarantined** to `corrupt/` and reported as a miss, never as an
//! error, so the caller transparently recomputes. A manifest stamped with
//! the schema and crate version makes incompatible caches be ignored
//! wholesale, and a byte-budget LRU GC (by access-stamped mtime) bounds
//! the directory.
//!
//! [`BoundedMap`] is the in-memory LRU the tiers above share.
//!
//! The crate is bottom-level and std-only: it knows nothing about
//! programs or runs — callers bring their own binary codecs
//! (the [`codec`] module has the length-prefixed reader/writer they
//! share) and their own counters glue.
//!
//! **Determinism invariant**: the store caches *pure functions of the
//! key*. A hit returns exactly the bytes a recompute would produce, so
//! responses are byte-identical whatever the cache warmth; only
//! wall-clock and `*_persist_*` counters may differ.

mod bounded;
pub mod codec;
mod store;

pub use bounded::BoundedMap;
pub use store::{GcOutcome, PersistEvent, PersistStats, PersistStore, ENTRY_SCHEMA, ENTRY_VERSION};
