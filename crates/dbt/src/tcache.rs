//! Translation cache: maps guest entry addresses to translated blocks and,
//! for optimised translations, to their cached leakage verdicts.

use crate::pcmap::PcMap;
use dbt_ir::IrBlock;
use dbt_vliw::TranslatedBlock;
use spectaint::LeakageVerdict;
use std::sync::Arc;

/// The tier of a cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// First-pass translation of a single basic block, no speculation.
    Basic,
    /// Profile-guided superblock with speculation (and mitigation) applied.
    Optimized,
}

/// One optimised cache entry: the generated code plus the speculative
/// taint verdict of the block it was compiled from.
///
/// The verdict is computed exactly once, at translation time, and rides in
/// the cache so later consumers (the `Selective` policy already consumed
/// it, the `lab analyze` CLI and the differential tests read it back) never
/// re-run the analysis.
#[derive(Debug, Clone)]
pub struct CachedTranslation {
    /// The scheduled VLIW code.
    pub code: Arc<TranslatedBlock>,
    /// The IR block the code was compiled (and analysed) from, kept so the
    /// verdict can be projected back onto the exact translation-time shape
    /// (`lab analyze --dot`) without re-deriving it from a profile that has
    /// moved on since.
    pub ir: Option<Arc<IrBlock>>,
    /// The block's leakage verdict (`None` for translations inserted
    /// through the verdict-less [`TranslationCache::insert`]).
    pub verdict: Option<Arc<LeakageVerdict>>,
}

/// Cache of translated blocks, two tiers deep.
///
/// An optimised translation always shadows the basic one for the same entry
/// address.
#[derive(Debug, Clone, Default)]
pub struct TranslationCache {
    basic: PcMap<Arc<TranslatedBlock>>,
    optimized: PcMap<CachedTranslation>,
}

impl TranslationCache {
    /// Creates an empty cache.
    pub fn new() -> TranslationCache {
        TranslationCache::default()
    }

    /// Looks up the best available translation for `pc`.
    pub fn lookup(&self, pc: u64) -> Option<(Arc<TranslatedBlock>, Tier)> {
        if let Some(entry) = self.optimized.get(&pc) {
            return Some((Arc::clone(&entry.code), Tier::Optimized));
        }
        self.basic.get(&pc).map(|block| (Arc::clone(block), Tier::Basic))
    }

    /// Returns `true` if an optimised translation exists for `pc`.
    pub fn has_optimized(&self, pc: u64) -> bool {
        self.optimized.contains_key(&pc)
    }

    /// Inserts a translation at the given tier, returning a shared handle.
    ///
    /// Optimised translations inserted through this method carry no
    /// verdict; the engine uses [`TranslationCache::insert_optimized`].
    pub fn insert(&mut self, pc: u64, tier: Tier, block: TranslatedBlock) -> Arc<TranslatedBlock> {
        self.insert_shared(pc, tier, Arc::new(block))
    }

    /// Inserts an already-shared translation at the given tier (the
    /// engine's path when a translation comes out of the cross-run
    /// [`TranslationService`](crate::TranslationService) memo).
    pub fn insert_shared(
        &mut self,
        pc: u64,
        tier: Tier,
        block: Arc<TranslatedBlock>,
    ) -> Arc<TranslatedBlock> {
        match tier {
            Tier::Basic => {
                self.basic.insert(pc, Arc::clone(&block));
            }
            Tier::Optimized => {
                self.optimized.insert(
                    pc,
                    CachedTranslation { code: Arc::clone(&block), ir: None, verdict: None },
                );
            }
        };
        block
    }

    /// Inserts an optimised translation together with the IR block it was
    /// compiled from and its leakage verdict.
    pub fn insert_optimized(
        &mut self,
        pc: u64,
        block: TranslatedBlock,
        ir: IrBlock,
        verdict: LeakageVerdict,
    ) -> Arc<TranslatedBlock> {
        self.insert_optimized_shared(pc, Arc::new(block), Arc::new(ir), Arc::new(verdict))
    }

    /// [`TranslationCache::insert_optimized`] for products that are already
    /// behind `Arc`s (shared with the cross-run service memo).
    pub fn insert_optimized_shared(
        &mut self,
        pc: u64,
        code: Arc<TranslatedBlock>,
        ir: Arc<IrBlock>,
        verdict: Arc<LeakageVerdict>,
    ) -> Arc<TranslatedBlock> {
        self.optimized.insert(
            pc,
            CachedTranslation { code: Arc::clone(&code), ir: Some(ir), verdict: Some(verdict) },
        );
        code
    }

    /// The cached verdict of the optimised translation at `pc`, if any.
    pub fn verdict(&self, pc: u64) -> Option<Arc<LeakageVerdict>> {
        self.optimized.get(&pc).and_then(|entry| entry.verdict.clone())
    }

    /// Every cached verdict, sorted by entry address (deterministic).
    pub fn verdicts(&self) -> Vec<(u64, Arc<LeakageVerdict>)> {
        let mut all: Vec<(u64, Arc<LeakageVerdict>)> = self
            .optimized
            .iter()
            .filter_map(|(pc, entry)| entry.verdict.clone().map(|v| (*pc, v)))
            .collect();
        all.sort_by_key(|(pc, _)| *pc);
        all
    }

    /// Every cached `(IR block, verdict)` pair, sorted by entry address.
    pub fn analyzed(&self) -> Vec<(u64, Arc<IrBlock>, Arc<LeakageVerdict>)> {
        let mut all: Vec<(u64, Arc<IrBlock>, Arc<LeakageVerdict>)> = self
            .optimized
            .iter()
            .filter_map(|(pc, entry)| match (&entry.ir, &entry.verdict) {
                (Some(ir), Some(v)) => Some((*pc, Arc::clone(ir), Arc::clone(v))),
                _ => None,
            })
            .collect();
        all.sort_by_key(|(pc, _, _)| *pc);
        all
    }

    /// Number of cached translations (both tiers).
    pub fn len(&self) -> usize {
        self.basic.len() + self.optimized.len()
    }

    /// Returns `true` if nothing has been translated yet.
    pub fn is_empty(&self) -> bool {
        self.basic.is_empty() && self.optimized.is_empty()
    }

    /// Removes every cached translation (used when the mitigation policy is
    /// changed at run time).
    pub fn clear(&mut self) {
        self.basic.clear();
        self.optimized.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_block(pc: u64) -> TranslatedBlock {
        TranslatedBlock::new(pc, vec![], 0, vec![], 0)
    }

    fn dummy_verdict(pc: u64) -> LeakageVerdict {
        LeakageVerdict {
            entry_pc: pc,
            block_len: 1,
            sources: vec![],
            tainted_values: vec![],
            transmitters: vec![],
            gadgets: vec![],
        }
    }

    fn dummy_ir(pc: u64) -> IrBlock {
        let mut block = IrBlock::new(pc, dbt_ir::BlockKind::Basic);
        block.push(dbt_ir::IrOp::Halt, pc, 0);
        block
    }

    #[test]
    fn optimized_shadows_basic() {
        let mut cache = TranslationCache::new();
        assert!(cache.lookup(0x100).is_none());
        cache.insert(0x100, Tier::Basic, dummy_block(0x100));
        assert_eq!(cache.lookup(0x100).unwrap().1, Tier::Basic);
        cache.insert(0x100, Tier::Optimized, dummy_block(0x100));
        assert_eq!(cache.lookup(0x100).unwrap().1, Tier::Optimized);
        assert!(cache.has_optimized(0x100));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn verdicts_ride_with_optimized_entries() {
        let mut cache = TranslationCache::new();
        cache.insert(0x100, Tier::Basic, dummy_block(0x100));
        assert!(cache.verdict(0x100).is_none());
        cache.insert_optimized(0x300, dummy_block(0x300), dummy_ir(0x300), dummy_verdict(0x300));
        cache.insert_optimized(0x200, dummy_block(0x200), dummy_ir(0x200), dummy_verdict(0x200));
        assert!(cache.verdict(0x200).is_some());
        let all = cache.verdicts();
        assert_eq!(all.len(), 2);
        assert!(all[0].0 < all[1].0, "verdicts are sorted by entry pc");
        let analyzed = cache.analyzed();
        assert_eq!(analyzed.len(), 2);
        assert_eq!(analyzed[0].1.entry_pc(), 0x200);
    }

    #[test]
    fn clear_empties_both_tiers() {
        let mut cache = TranslationCache::new();
        cache.insert(0x100, Tier::Basic, dummy_block(0x100));
        cache.insert_optimized(0x200, dummy_block(0x200), dummy_ir(0x200), dummy_verdict(0x200));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.verdicts().is_empty());
    }
}
