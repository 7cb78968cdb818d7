//! Run-time profile collected by the DBT engine.

use crate::pcmap::PcMap;

/// Outcome counters of one conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchCounters {
    /// Times the branch was taken.
    pub taken: u64,
    /// Times the branch fell through.
    pub not_taken: u64,
}

impl BranchCounters {
    /// Total observations.
    pub fn total(&self) -> u64 {
        self.taken + self.not_taken
    }

    /// Fraction of taken outcomes (0.5 when never observed).
    pub fn taken_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.5
        } else {
            self.taken as f64 / total as f64
        }
    }
}

/// Execution profile: per-block entry counts and per-branch outcome
/// counters.
///
/// The profile is what turns the DBT engine into the analogue of a trained
/// branch predictor: the attacker's warm-up calls with in-bounds indexes
/// bias the bounds-check branch, so the trace builder merges the `then`
/// block into the superblock and the scheduler hoists its loads.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    block_entries: PcMap<u64>,
    branches: PcMap<BranchCounters>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records one execution of the block starting at `pc` and returns the
    /// updated count.
    pub fn record_block_entry(&mut self, pc: u64) -> u64 {
        let count = self.block_entries.entry(pc).or_insert(0);
        *count += 1;
        *count
    }

    /// Number of recorded executions of the block starting at `pc`.
    pub fn block_entries(&self, pc: u64) -> u64 {
        self.block_entries.get(&pc).copied().unwrap_or(0)
    }

    /// Records one outcome of the conditional branch at `pc`.
    pub fn record_branch(&mut self, pc: u64, taken: bool) {
        let counters = self.branches.entry(pc).or_default();
        if taken {
            counters.taken += 1;
        } else {
            counters.not_taken += 1;
        }
    }

    /// Outcome counters of the branch at `pc`.
    pub fn branch(&self, pc: u64) -> BranchCounters {
        self.branches.get(&pc).copied().unwrap_or_default()
    }

    /// Returns `Some(true)` if the branch at `pc` is biased taken with at
    /// least `threshold` confidence, `Some(false)` if biased not-taken, and
    /// `None` if it has no strong bias (or was never observed).
    pub fn biased_direction(&self, pc: u64, threshold: f64) -> Option<bool> {
        let counters = self.branch(pc);
        if counters.total() == 0 {
            return None;
        }
        let ratio = counters.taken_ratio();
        if ratio >= threshold {
            Some(true)
        } else if (1.0 - ratio) >= threshold {
            Some(false)
        } else {
            None
        }
    }

    /// Number of distinct blocks observed.
    pub fn observed_blocks(&self) -> usize {
        self.block_entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_entry_counting() {
        let mut p = Profile::new();
        assert_eq!(p.block_entries(0x100), 0);
        assert_eq!(p.record_block_entry(0x100), 1);
        assert_eq!(p.record_block_entry(0x100), 2);
        assert_eq!(p.block_entries(0x100), 2);
        assert_eq!(p.observed_blocks(), 1);
    }

    #[test]
    fn branch_bias_detection() {
        let mut p = Profile::new();
        assert_eq!(p.biased_direction(0x200, 0.9), None);
        for _ in 0..19 {
            p.record_branch(0x200, false);
        }
        p.record_branch(0x200, true);
        assert_eq!(p.branch(0x200).total(), 20);
        assert_eq!(p.biased_direction(0x200, 0.9), Some(false));
        assert_eq!(p.biased_direction(0x200, 0.99), None);

        let mut p = Profile::new();
        for _ in 0..10 {
            p.record_branch(0x300, true);
        }
        assert_eq!(p.biased_direction(0x300, 0.9), Some(true));
    }

    #[test]
    fn unbiased_branch_has_no_direction() {
        let mut p = Profile::new();
        for i in 0..10 {
            p.record_branch(0x400, i % 2 == 0);
        }
        assert_eq!(p.biased_direction(0x400, 0.9), None);
        assert!((p.branch(0x400).taken_ratio() - 0.5).abs() < 1e-9);
    }
}
