//! Fixed-fan-out copy-on-write shard maps — the representation behind
//! every [`crate::ObjectBase`] index.
//!
//! A `ShardedMap` splits its entries over [`SHARD_COUNT`] fixed
//! shards, each an `Arc`-wrapped hash map. Cloning the whole map
//! clones [`SHARD_COUNT`] `Arc`s — O(shards), independent of the
//! number of entries — and the first write to a shard *unshares* just
//! that shard ([`Arc::make_mut`]), so a mutated clone pays only for
//! the shards it actually dirties. This is the same structural-sharing
//! discipline the per-version `Arc<VersionState>` states already use,
//! lifted to the index level: an engine run that touches 100 objects
//! in a 50k-object base copies ~nothing up front and at most a few
//! shards' worth of index entries while it works.
//!
//! Shard routing is a pure function of the key (the crate-private
//! `ShardKey` trait), so two
//! maps with equal entries always have shard-wise equal layouts —
//! equality, iteration and serialization never observe the sharding.
//! Keys route by [`FastHasher`]'s *upper* bits (the Fx multiply mixes
//! upward, leaving the low bits weak).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ruvo_term::{FastHashMap, FastHasher};

/// Number of copy-on-write shards per index (a fixed power of two).
///
/// 16 keeps a clone at 5 × 16 `Arc` bumps for the whole object base
/// while still isolating writes: a commit that touches one
/// `(chain, method)` relation dirties one shard of each index, leaving
/// the other 15 shared with every outstanding clone.
pub const SHARD_COUNT: usize = 16;

/// Route a hashable shard discriminant to a shard index using the
/// upper bits of its [`FastHasher`] hash.
pub(crate) fn route(key: impl Hash) -> usize {
    let mut hasher = FastHasher::default();
    key.hash(&mut hasher);
    (hasher.finish() >> (64 - SHARD_COUNT.trailing_zeros())) as usize
}

/// How a key type chooses its shard. The discriminant may be a prefix
/// of the key (the key indexes route `(chain, method, value)` by
/// `(chain, method)` only), which keeps one relation's entries — the
/// unit a commit dirties — together in one shard.
pub(crate) trait ShardKey {
    /// The shard this key lives in (must be `< SHARD_COUNT`).
    fn shard(&self) -> usize;
}

/// A hash map split into [`SHARD_COUNT`] copy-on-write shards.
///
/// `Clone` is O([`SHARD_COUNT`]); all read operations are as cheap as
/// on a flat map plus one route computation; mutating operations
/// unshare (deep-copy) the one target shard on first write. Lookup
/// misses never unshare: every mutating entry point peeks through the
/// shared reference first.
pub(crate) struct ShardedMap<K, V> {
    shards: [Arc<FastHashMap<K, V>>; SHARD_COUNT],
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.shards.iter().flat_map(|s| s.iter())).finish()
    }
}

impl<K, V> Clone for ShardedMap<K, V> {
    fn clone(&self) -> Self {
        ShardedMap { shards: std::array::from_fn(|i| Arc::clone(&self.shards[i])) }
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap { shards: std::array::from_fn(|_| Arc::new(FastHashMap::default())) }
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash,
{
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.shards[key.shard()].get(key)
    }

    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.shards[key.shard()].contains_key(key)
    }

    /// Total entries (O(shards), not O(entries)).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.shards.iter().flat_map(|s| s.keys())
    }

    /// Shards of `self` still sharing their allocation with the
    /// corresponding shard of `other` (copy-on-write diagnostics).
    pub(crate) fn shards_shared_with(&self, other: &Self) -> usize {
        self.shards.iter().zip(&other.shards).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Read access to one physical shard (bulk-pass helper).
    pub(crate) fn shard_at(&self, i: usize) -> &FastHashMap<K, V> {
        &self.shards[i]
    }

    /// Per shard, whether its entries differ from the same shard of
    /// `other` — exact, by content, whatever lineage either map has.
    /// Shards still sharing one allocation skip the entry-wise
    /// comparison: O(shards) when the two share every allocation,
    /// O(entries of the unshared shards) otherwise.
    pub(crate) fn shards_differing(&self, other: &Self) -> [bool; SHARD_COUNT]
    where
        V: PartialEq,
    {
        let (a, b) = (&self.shards, &other.shards);
        std::array::from_fn(|i| !Arc::ptr_eq(&a[i], &b[i]) && a[i] != b[i])
    }

    /// Mutable access to every shard slot in shard order, for bulk
    /// passes (the bucketed batch commit, `exists` preparation) that
    /// decide per slot whether to unshare ([`Arc::make_mut`]) at all —
    /// reading through a slot first never copies.
    pub(crate) fn shard_slots_mut(&mut self) -> impl Iterator<Item = &mut Arc<FastHashMap<K, V>>> {
        self.shards.iter_mut()
    }

    /// Assert that every entry lives in the shard its key routes to
    /// (invariant-check helper; O(entries)).
    pub(crate) fn check_residency(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            for key in shard.keys() {
                assert_eq!(key.shard(), i, "entry stored in shard {i} routes to {}", key.shard());
            }
        }
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash + Clone,
    V: Clone,
{
    /// Mutable access to an entry's value. Unshares the shard — but
    /// only on a hit; a miss returns `None` without copying anything.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = key.shard();
        if !self.shards[i].contains_key(key) {
            return None;
        }
        Arc::make_mut(&mut self.shards[i]).get_mut(key)
    }

    /// The value under `key`, inserting `V::default()` first if absent
    /// (the `entry(key).or_default()` shape). Always unshares the
    /// shard: callers want the reference to write through.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        Arc::make_mut(&mut self.shards[key.shard()]).entry(key).or_default()
    }

    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        Arc::make_mut(&mut self.shards[key.shard()]).insert(key, value)
    }

    /// Remove an entry. A miss does not unshare the shard.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = key.shard();
        if !self.shards[i].contains_key(key) {
            return None;
        }
        Arc::make_mut(&mut self.shards[i]).remove(key)
    }
}

impl<K, V> PartialEq for ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash,
    V: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        // Routing is deterministic, so equal contents imply shard-wise
        // equal maps.
        self.shards_differing(other) == [false; SHARD_COUNT]
    }
}

impl<K, V> Eq for ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash,
    V: Eq,
{
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardKey for u64 {
        fn shard(&self) -> usize {
            route(self)
        }
    }

    fn filled(n: u64) -> ShardedMap<u64, u64> {
        let mut m = ShardedMap::default();
        for i in 0..n {
            m.insert(i, i * 10);
        }
        m
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = filled(100);
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&42), Some(&420));
        assert_eq!(m.remove(&42), Some(420));
        assert_eq!(m.get(&42), None);
        assert_eq!(m.len(), 99);
        assert_eq!(m.iter().count(), 99);
    }

    #[test]
    fn keys_spread_over_multiple_shards() {
        let m = filled(256);
        let used: std::collections::HashSet<usize> = m.keys().map(|k| k.shard()).collect();
        assert!(used.len() > SHARD_COUNT / 2, "only {} shards used", used.len());
        assert!(used.iter().all(|&s| s < SHARD_COUNT));
    }

    #[test]
    fn clone_shares_all_shards_until_written() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT);
        copy.insert(1000, 1);
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT - 1);
        // The original is untouched.
        assert_eq!(original.get(&1000), None);
        assert_eq!(original.len(), 64);
    }

    #[test]
    fn misses_do_not_unshare() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy.remove(&99_999), None);
        assert_eq!(copy.get_mut(&99_999), None);
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT);
    }

    #[test]
    fn equality_ignores_sharing_state() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy, original);
        copy.insert(3, 30); // same value: unshared but still equal
        assert_eq!(copy, original);
        copy.insert(3, 31);
        assert_ne!(copy, original);
    }

    #[test]
    fn shard_slots_mut_yields_every_shard_in_order() {
        let mut m = filled(64);
        let mut n = 0;
        for (i, slot) in m.shard_slots_mut().enumerate() {
            assert!(slot.keys().all(|k| k.shard() == i), "slot {i} out of shard order");
            n += 1;
        }
        assert_eq!(n, SHARD_COUNT);
    }

    #[test]
    fn shards_differing_compares_contents_not_lineage() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        // Reads, misses and same-value writes (which unshare) change
        // nothing.
        assert_eq!(copy.get_mut(&99_999), None);
        assert_eq!(copy.remove(&99_999), None);
        copy.insert(3, 30);
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        // A real write differs in exactly its shard, and undoing it
        // makes the shard equal again.
        copy.insert(1, 11);
        let differing = copy.shards_differing(&original);
        assert!((0..SHARD_COUNT).all(|i| differing[i] == (i == 1u64.shard())));
        copy.insert(1, 10);
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        // A map rebuilt from scratch shares no allocation yet is equal.
        let rebuilt = filled(64);
        assert_eq!(rebuilt.shards_shared_with(&original), 0);
        assert_eq!(rebuilt.shards_differing(&original), [false; SHARD_COUNT]);
    }

    #[test]
    fn get_or_default_inserts_once() {
        let mut m: ShardedMap<u64, Vec<u64>> = ShardedMap::default();
        m.get_or_default(7).push(1);
        m.get_or_default(7).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }
}
