//! The hasher behind every `HashMap` and `HashSet` on the check path.
//!
//! This is the multiply-rotate hash rustc uses for its own tables
//! ("Fx"): one rotate, one xor and one multiply per word, against
//! SipHash's several rounds. Check-path keys are short (interned
//! symbols, κ ids, node ids, hash-consed terms), so the hash dominates
//! a lookup. The hasher is unkeyed: keys crafted to collide degrade a
//! map to linear probing, so a time bound on hostile input rests on the
//! per-check deadline, not on the hasher. Everything persisted or
//! compared across processes (bundle and global fingerprints, cache
//! shard selection) keeps `std`'s `DefaultHasher`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier of rustc's Fx hash (an odd constant with well-mixed
/// bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An unkeyed word-at-a-time hasher; see the module docs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash + ?Sized>(x: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(x)
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_spread() {
        assert_eq!(fx("len"), fx(&String::from("len")));
        let hashes: FxHashSet<u64> = (0u32..1000).map(|i| fx(&i)).collect();
        assert_eq!(hashes.len(), 1000);
        // A tail shorter than one word still reaches the hash.
        assert_ne!(fx(&[1u8, 2, 3][..]), fx(&[1u8, 2, 4][..]));
    }
}
