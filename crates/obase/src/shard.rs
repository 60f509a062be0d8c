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
    /// Per-shard write generations: bumped every time the shard is
    /// unshared for writing (any mutating entry point that reaches
    /// [`Arc::make_mut`]). Clones inherit the counters, so comparing a
    /// map's generations against a snapshot of them taken earlier in
    /// the same lineage tells exactly which shards *may* have changed
    /// since — the dirty-set oracle behind incremental checkpoints.
    /// Over-approximation is fine (a bumped-but-equal shard is merely
    /// re-written); missing a write would be a correctness bug.
    gens: [u64; SHARD_COUNT],
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.shards.iter().flat_map(|s| s.iter())).finish()
    }
}

impl<K, V> Clone for ShardedMap<K, V> {
    fn clone(&self) -> Self {
        ShardedMap { shards: std::array::from_fn(|i| Arc::clone(&self.shards[i])), gens: self.gens }
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: std::array::from_fn(|_| Arc::new(FastHashMap::default())),
            gens: [0; SHARD_COUNT],
        }
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

    /// The current per-shard write generations (see the field docs).
    pub(crate) fn generations(&self) -> [u64; SHARD_COUNT] {
        self.gens
    }

    /// Record a write to shard `i` that bypassed the tracked entry
    /// points — used by bulk passes that take `shard_slots_mut` and
    /// know afterwards which slots they actually mutated.
    pub(crate) fn note_written(&mut self, i: usize) {
        self.gens[i] = self.gens[i].wrapping_add(1);
    }

    /// Re-anchor this map's write generations onto `prev`'s lineage:
    /// a shard whose *contents* equal the corresponding shard of
    /// `prev` inherits its generation, a differing shard advances it.
    /// Commit paths that rebuild the map from scratch (rather than
    /// mutating a clone) call this so that generation comparison
    /// stays a valid dirty-shard oracle across them — and, because
    /// the comparison is against actual contents, an *exact* one.
    /// O(entries) worst case, but so is the rebuild that precedes it.
    pub(crate) fn rebase_generations(&mut self, prev: &Self)
    where
        V: PartialEq,
    {
        for i in 0..SHARD_COUNT {
            let same = Arc::ptr_eq(&self.shards[i], &prev.shards[i])
                || self.shards[i].as_ref() == prev.shards[i].as_ref();
            self.gens[i] = if same { prev.gens[i] } else { prev.gens[i].wrapping_add(1) };
        }
    }

    /// The `Arc` slot of one physical shard, for bulk passes that
    /// decide per shard whether to unshare ([`Arc::make_mut`]) at all.
    /// Counts as a write for generation tracking — callers peek
    /// through [`ShardedMap::shard_at`] first and only take the slot
    /// when they intend to mutate.
    pub(crate) fn shard_slot(&mut self, i: usize) -> &mut Arc<FastHashMap<K, V>> {
        self.gens[i] = self.gens[i].wrapping_add(1);
        &mut self.shards[i]
    }

    /// Mutable access to every shard slot in turn, as `(shard index,
    /// slot)` pairs: the access path of the bucketed batch commit,
    /// which has already routed its mutations per shard and decides per
    /// slot whether to unshare ([`Arc::make_mut`]) at all. Bypasses
    /// generation tracking — callers mark the slots they write with
    /// [`ShardedMap::note_written`].
    pub(crate) fn shard_slots_mut(
        &mut self,
    ) -> impl Iterator<Item = (usize, &mut Arc<FastHashMap<K, V>>)> {
        self.shards.iter_mut().enumerate()
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
        self.gens[i] = self.gens[i].wrapping_add(1);
        Arc::make_mut(&mut self.shards[i]).get_mut(key)
    }

    /// The value under `key`, inserting `V::default()` first if absent
    /// (the `entry(key).or_default()` shape). Always unshares the
    /// shard: callers want the reference to write through.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = key.shard();
        self.gens[i] = self.gens[i].wrapping_add(1);
        Arc::make_mut(&mut self.shards[i]).entry(key).or_default()
    }

    #[cfg(test)]
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let i = key.shard();
        self.gens[i] = self.gens[i].wrapping_add(1);
        Arc::make_mut(&mut self.shards[i]).insert(key, value)
    }

    /// Remove an entry. A miss does not unshare the shard.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = key.shard();
        if !self.shards[i].contains_key(key) {
            return None;
        }
        self.gens[i] = self.gens[i].wrapping_add(1);
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
        // equal maps; shards still sharing one allocation skip the
        // entry-wise comparison entirely.
        self.shards
            .iter()
            .zip(&other.shards)
            .all(|(a, b)| Arc::ptr_eq(a, b) || a.as_ref() == b.as_ref())
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
    fn shard_slots_mut_covers_every_shard_once() {
        let mut m = filled(64);
        let indices: Vec<usize> = m.shard_slots_mut().map(|(i, _)| i).collect();
        assert_eq!(indices, (0..SHARD_COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn generations_track_writes_not_reads() {
        let mut m = filled(64);
        let before = m.generations();
        // Reads and misses never bump a generation.
        assert_eq!(m.get(&1), Some(&10));
        assert_eq!(m.get_mut(&99_999), None);
        assert_eq!(m.remove(&99_999), None);
        assert_eq!(m.iter().count(), 64);
        assert_eq!(m.generations(), before);
        // A hit through any mutating entry point bumps exactly the
        // target shard's generation.
        let s = 1u64.shard();
        m.insert(1, 11);
        let after = m.generations();
        assert_eq!(after[s], before[s] + 1);
        for i in 0..SHARD_COUNT {
            if i != s {
                assert_eq!(after[i], before[i], "shard {i} spuriously dirtied");
            }
        }
        *m.get_mut(&1).unwrap() += 1;
        m.remove(&1);
        assert_eq!(m.generations()[s], before[s] + 3);
    }

    #[test]
    fn clones_inherit_generations() {
        let mut m = filled(32);
        m.insert(7, 70);
        let copy = m.clone();
        assert_eq!(copy.generations(), m.generations());
        // Divergence after the clone is per-lineage.
        let mut copy = copy;
        copy.insert(8, 80);
        let s = 8u64.shard();
        assert_eq!(copy.generations()[s], m.generations()[s] + 1);
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
