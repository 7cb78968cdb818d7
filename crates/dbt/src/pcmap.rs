//! Hash maps keyed by guest addresses.
//!
//! The run loop looks the current guest PC up in the translation cache,
//! the profile and the branch table for every executed block, and the
//! standard library's SipHash showed up in profiles of that loop. SipHash
//! resists keys crafted to collide; these maps hash with [`PcHasher`], the
//! multiply-rotate scheme of rustc's FxHash, instead. Their keys are
//! addresses inside the guest image, so a program can collide at most as
//! many keys as its image has instruction slots.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by guest address.
pub(crate) type PcMap<V> = HashMap<u64, V, BuildHasherDefault<PcHasher>>;

/// FxHash's odd multiplier (the 64-bit constant of `rustc-hash` 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Rotates each word into the state, then multiplies by [`K`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PcHasher(u64);

impl Hasher for PcHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits, which
        // are zero in aligned PCs; hash tables pick buckets from the low
        // bits, so bring the well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn aligned_pcs_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<PcHasher>::default();
        let buckets: HashSet<u64> =
            (0..1024u64).map(|i| build.hash_one(0x1_0000 + 4 * i) & 1023).collect();
        // 1,024 random keys fill about 632 of 1,024 buckets; without the
        // final rotation these fill at most 256.
        assert!(buckets.len() > 550, "{} buckets", buckets.len());
    }
}
