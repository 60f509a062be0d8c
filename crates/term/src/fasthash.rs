//! A fast, non-cryptographic hasher for integer-heavy keys.
//!
//! The evaluator's hot loops hash interned symbols, packed chains and
//! small tuples; SipHash (the `std` default) is measurably slower for
//! such keys. We implement the well-known Fx multiply-rotate scheme
//! (as used by rustc) in ~30 lines instead of adding a dependency —
//! see ARCHITECTURE.md ("Engineering extensions" under "Design
//! decisions") for the justification.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Firefox/rustc Fx hash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher.
///
/// Not DoS-resistant; only used for in-process data structures whose
/// keys are not attacker controlled.
#[derive(Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn combine(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.combine(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.combine(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.combine(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.combine(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.combine(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.combine(i as u64);
    }

    #[inline]
    fn write_i64(&mut self, i: i64) {
        self.combine(i as u64);
    }
}

/// `HashMap` keyed with [`FastHasher`].
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` keyed with [`FastHasher`].
pub type FastHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: T) -> u64 {
        let mut h = FastHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of("hello"), hash_of("hello"));
    }

    #[test]
    fn discriminates_simple_keys() {
        // Not a statistical test, just a sanity check against the
        // all-zero-state failure mode.
        let hashes: std::collections::HashSet<u64> = (0u64..1000).map(hash_of).collect();
        assert_eq!(hashes.len(), 1000);
    }

    #[test]
    fn byte_stream_tail_is_hashed() {
        assert_ne!(hash_of([1u8, 2, 3].as_slice()), hash_of([1u8, 2, 4].as_slice()));
        assert_ne!(
            hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 9].as_slice()),
            hash_of([1u8, 2, 3, 4, 5, 6, 7, 8, 10].as_slice())
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastHashMap<u32, &str> = FastHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&2), Some(&"b"));
        assert_eq!(m.get(&3), None);
    }
}
