//! Bin hash functions and the sender-side inline-hash optimization (§IV-D).
//!
//! The three binned hash tables of §III-B are keyed by `(src, tag)`, by `tag`
//! alone, and by `src` alone. Because these keys do not depend on receiver
//! state, the sender can compute all three hashes and ship them in the
//! message header ("Inline hash values", §IV-D), saving compute on the
//! SmartNIC. [`InlineHashes`] is that header field; [`InlineHashes::of`] is
//! the computation either side performs.
//!
//! The mixer is `splitmix64` — a cheap, statistically strong 64-bit finalizer
//! well suited to the small integer keys MPI matching produces (ranks and
//! tags are typically dense small integers, which would collide catastrophically
//! under an identity hash with power-of-two bin counts).

use crate::envelope::Envelope;
use crate::types::{CommId, Rank, Tag};

/// 2⁶⁴ / φ, odd: `splitmix64`'s increment and [`IntHasher`]'s multiplier.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// `splitmix64` finalizer: a full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hash of the fully-specified key `(src, tag, comm)` — used by the
/// no-wildcard index.
#[inline]
pub fn hash_src_tag(src: Rank, tag: Tag, comm: CommId) -> u64 {
    mix64(u64::from(src.0) | (u64::from(tag.0) << 32)) ^ mix64(0x5159_0000 | u64::from(comm.0))
}

/// Hash of the key `(tag, comm)` — used by the source-wildcard index.
#[inline]
pub fn hash_tag(tag: Tag, comm: CommId) -> u64 {
    mix64(0x7461_6700_0000_0000 | u64::from(tag.0)) ^ mix64(0x5159_0000 | u64::from(comm.0))
}

/// Hash of the key `(src, comm)` — used by the tag-wildcard index.
#[inline]
pub fn hash_src(src: Rank, comm: CommId) -> u64 {
    mix64(0x7372_6300_0000_0000 | u64::from(src.0)) ^ mix64(0x5159_0000 | u64::from(comm.0))
}

/// Reduces a 64-bit hash to a bin index for a table of `bins` bins.
///
/// Bin counts in the paper's sweeps are powers of two (1, 32, 128, 256), for
/// which this compiles to a mask; arbitrary counts fall back to modulo.
#[inline]
pub fn bin_of(hash: u64, bins: usize) -> usize {
    debug_assert!(bins > 0, "a hash table needs at least one bin");
    if bins.is_power_of_two() {
        (hash as usize) & (bins - 1)
    } else {
        (hash % bins as u64) as usize
    }
}

/// Hasher for integer keys: handles and rkeys the program hands out, and trace
/// tags, which come from input (keys chosen to collide still collide). `finish`
/// is `key·G ^ ((key >> 16)·G >> 48)`, `G` odd: the first term's low bits
/// permute consecutive keys and its high bits spread them (the two ends a
/// `HashMap` reads); the second folds the key's high bits into the low 16.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl std::hash::Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = self.0.wrapping_mul(GOLDEN) ^ key;
    }

    #[inline]
    fn finish(&self) -> u64 {
        let key = self.0;
        key.wrapping_mul(GOLDEN) ^ (key >> 16).wrapping_mul(GOLDEN) >> 48
    }
}

/// The three precomputed hash values a sender inlines into the message
/// header (§IV-D) so the receiving accelerator can index its tables without
/// hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InlineHashes {
    /// `hash(src, tag)` — key of the no-wildcard index.
    pub src_tag: u64,
    /// `hash(tag)` — key of the source-wildcard index.
    pub tag: u64,
    /// `hash(src)` — key of the tag-wildcard index.
    pub src: u64,
}

impl InlineHashes {
    /// Computes the three hashes for a message envelope.
    #[inline]
    pub fn of(env: &Envelope) -> Self {
        InlineHashes {
            src_tag: hash_src_tag(env.src, env.tag, env.comm),
            tag: hash_tag(env.tag, env.comm),
            src: hash_src(env.src, env.comm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_avalanches_single_bit_flips() {
        // Flipping one input bit should flip roughly half the output bits.
        for bit in 0..64 {
            let a = mix64(0x1234_5678_9abc_def0);
            let b = mix64(0x1234_5678_9abc_def0 ^ (1 << bit));
            let flipped = (a ^ b).count_ones();
            assert!(
                (16..=48).contains(&flipped),
                "bit {bit}: only {flipped} output bits flipped"
            );
        }
    }

    #[test]
    fn hashes_are_deterministic() {
        let e = Envelope::world(Rank(3), Tag(5));
        assert_eq!(InlineHashes::of(&e), InlineHashes::of(&e));
    }

    #[test]
    fn different_keys_hash_differently() {
        let a = hash_src_tag(Rank(0), Tag(0), CommId::WORLD);
        let b = hash_src_tag(Rank(0), Tag(1), CommId::WORLD);
        let c = hash_src_tag(Rank(1), Tag(0), CommId::WORLD);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn communicator_perturbs_every_hash() {
        let w = CommId::WORLD;
        let o = CommId(1);
        assert_ne!(
            hash_src_tag(Rank(2), Tag(2), w),
            hash_src_tag(Rank(2), Tag(2), o)
        );
        assert_ne!(hash_tag(Tag(2), w), hash_tag(Tag(2), o));
        assert_ne!(hash_src(Rank(2), w), hash_src(Rank(2), o));
    }

    #[test]
    fn single_key_hashes_do_not_collide_with_pair_hash_domains() {
        // hash(tag) and hash(src) for the same numeric value must differ:
        // the two wildcard indexes use distinct key domains.
        assert_ne!(
            hash_tag(Tag(7), CommId::WORLD),
            hash_src(Rank(7), CommId::WORLD)
        );
    }

    #[test]
    fn bin_of_respects_table_size() {
        for bins in [1usize, 2, 32, 100, 128, 256] {
            for h in [0u64, 1, u64::MAX, 0xdead_beef] {
                assert!(bin_of(h, bins) < bins);
            }
        }
    }

    #[test]
    fn one_bin_degenerates_to_traditional_matching() {
        // bins=1 is the paper's "traditional tag matching" configuration of
        // Fig. 7: everything lands in bin 0.
        for h in 0..1000u64 {
            assert_eq!(bin_of(mix64(h), 1), 0);
        }
    }

    #[test]
    fn dense_small_keys_spread_over_bins() {
        // Ranks/tags are small dense integers; the mixer must spread them.
        let bins = 128;
        let mut counts = vec![0usize; bins];
        for r in 0..64u32 {
            for t in 0..16u32 {
                counts[bin_of(hash_src_tag(Rank(r), Tag(t), CommId::WORLD), bins)] += 1;
            }
        }
        let max = *counts.iter().max().unwrap();
        // 1024 keys over 128 bins: mean 8, a decent hash stays under 4x mean.
        assert!(max <= 32, "hot bin holds {max} of 1024 keys");
    }

    #[test]
    fn keys_that_differ_only_in_high_bits_spread_over_the_low_bits() {
        // A map picks its bucket with a hash's low bits. Keys `i << s` agree
        // in their low `s` bits, where a product of the key alone is zero;
        // a uniformly random hash gives 1,024 keys about 63 % of 1,024
        // low-10-bit values.
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hasher = BuildHasherDefault::<IntHasher>::default();
        for shift in [16, 20, 24, 30, 40, 50] {
            let mut hit = [false; 1 << 10];
            for i in 0..1024u64 {
                hit[(hasher.hash_one(i << shift) & 0x3ff) as usize] = true;
            }
            let distinct = hit.iter().filter(|&&h| h).count();
            assert!(
                distinct * 4 >= 3 << 10,
                "{distinct} low-10-bit values, keys i << {shift}"
            );
        }
    }

    #[test]
    fn inline_hashes_match_receiver_side_recomputation() {
        // The whole point of the optimization: sender-computed values must be
        // exactly what the receiver would compute.
        let e = Envelope::new(Rank(11), Tag(13), CommId(2));
        let inl = InlineHashes::of(&e);
        assert_eq!(inl.src_tag, hash_src_tag(e.src, e.tag, e.comm));
        assert_eq!(inl.tag, hash_tag(e.tag, e.comm));
        assert_eq!(inl.src, hash_src(e.src, e.comm));
    }
}
