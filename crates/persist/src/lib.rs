//! `dbt-persist` — the weighted LRU map the daemon's in-memory caches
//! share.
//!
//! [`BoundedMap`] bounds the `RunMemo` (run entries), the `ProgramStore`
//! (image bytes) and the `TranslationService` (compile products), each
//! in its own unit. Eviction order is a pure function of the access
//! sequence, so a given job list evicts the same keys on every run.
//!
//! The crate is bottom-level and std-only.

mod bounded;

pub use bounded::BoundedMap;
