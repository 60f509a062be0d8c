//! Two-level copy-on-write shard maps — the representation behind
//! every [`crate::ObjectBase`] index.
//!
//! A `ShardedMap` splits its entries over [`SHARD_COUNT`] fixed
//! shards, each an `Arc`-wrapped node of 16 lazily allocated leaves,
//! each leaf an `Arc`-wrapped hash map. Cloning the whole map clones
//! [`SHARD_COUNT`] `Arc`s — O(shards), independent of the number of
//! entries — and the first write through a clone
//! *unshares* ([`Arc::make_mut`]) just the one 16-pointer shard node
//! and the one leaf the key lives in, about 1/256 of the map. A
//! mutated clone pays only for the leaves it actually dirties: an
//! engine run that touches 100 objects in a 50k-object base copies
//! ~nothing up front and a few hundred entries per index while it
//! works. An absent leaf allocates nothing and reads as empty.
//!
//! The shard node stays the unit the outside sees: the checkpoint's
//! dirty set ([`crate::vid_shard`]) and [`crate::ObjectBase::cow_stats`]
//! count shards; leaves only bound what a write copies.
//!
//! Routing is a pure function of the key (the crate-private `ShardKey`
//! trait), so two maps with equal entries always have slot-wise equal
//! layouts — equality, iteration and serialization never observe the
//! sharding. One [`FastHasher`] pass routes a key to both levels: the
//! shard takes the hash's top bits (the Fx multiply mixes upward,
//! leaving the low bits weak), the leaf the bits below the 7 the leaf's
//! hash table keeps as its probe tag, so the keys of one leaf share no
//! more of their tag than the keys of one shard do.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ruvo_term::{FastHashMap, FastHasher};

/// Number of copy-on-write shards per index (a fixed power of two).
///
/// 16 keeps a clone at 4 × 16 `Arc` bumps for the whole object base
/// and is the dirty-set unit of shard-delta checkpoints; it is part of
/// the on-disk format.
pub const SHARD_COUNT: usize = 16;

/// Lazily allocated leaves per shard (a fixed power of two): a write
/// copies one of `SHARD_COUNT × LEAF_COUNT` leaves.
const LEAF_COUNT: usize = 16;

/// Where a key lives: its shard and the leaf within that shard.
pub(crate) type Slot = (usize, usize);

/// Hash `prefix`, then `rest`, in one pass: the prefix's hash picks the
/// shard, the whole key's the leaf. `rest = ()` routes a key by its
/// full hash at both levels.
pub(crate) fn route(prefix: impl Hash, rest: impl Hash) -> Slot {
    let mut hasher = FastHasher::default();
    prefix.hash(&mut hasher);
    let shard = (hasher.finish() >> (64 - SHARD_COUNT.trailing_zeros())) as usize;
    rest.hash(&mut hasher);
    // hashbrown's tag is the hash's top 7 bits; take the leaf below it.
    let leaf = (hasher.finish() >> (64 - 7 - LEAF_COUNT.trailing_zeros())) as usize;
    (shard, leaf & (LEAF_COUNT - 1))
}

/// How a key type chooses its slot. The shard may be chosen by a prefix
/// of the key (the key indexes route `(chain, method, value)` by
/// `(chain, method)`), which keeps one relation's entries — the unit a
/// commit dirties — together in one shard.
pub(crate) trait ShardKey {
    /// The slot this key lives in (shard `< SHARD_COUNT`, leaf
    /// `< LEAF_COUNT`).
    fn slot(&self) -> Slot;

    /// The shard this key lives in.
    fn shard(&self) -> usize {
        self.slot().0
    }
}

type Leaf<K, V> = Option<Arc<FastHashMap<K, V>>>;
type Node<K, V> = [Leaf<K, V>; LEAF_COUNT];

/// A hash map split into [`SHARD_COUNT`] copy-on-write shards of
/// [`LEAF_COUNT`] copy-on-write leaves.
///
/// `Clone` is O([`SHARD_COUNT`]); all read operations are as cheap as
/// on a flat map plus one route computation and one more pointer to
/// follow (the shard node); mutating operations
/// unshare (deep-copy) the target shard node and leaf on first write.
/// Lookup misses never unshare: every mutating entry point peeks
/// through the shared reference first.
pub(crate) struct ShardedMap<K, V> {
    shards: [Arc<Node<K, V>>; SHARD_COUNT],
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.leaves().flat_map(|l| l.iter())).finish()
    }
}

impl<K, V> ShardedMap<K, V> {
    /// The allocated leaves of shard `i` (bulk-pass helper).
    pub(crate) fn shard_at(&self, i: usize) -> impl Iterator<Item = &FastHashMap<K, V>> {
        self.shards[i].iter().flatten().map(Arc::as_ref)
    }

    /// Every allocated leaf, in slot order.
    fn leaves(&self) -> impl Iterator<Item = &FastHashMap<K, V>> {
        (0..SHARD_COUNT).flat_map(move |i| self.shard_at(i))
    }
}

impl<K, V> Clone for ShardedMap<K, V> {
    fn clone(&self) -> Self {
        ShardedMap { shards: std::array::from_fn(|i| Arc::clone(&self.shards[i])) }
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap { shards: std::array::from_fn(|_| Arc::new(std::array::from_fn(|_| None))) }
    }
}

/// Whether two leaves in the same slot hold different entries; an
/// absent leaf equals an empty one.
fn leaves_differ<K: Eq + Hash, V: PartialEq>(a: &Leaf<K, V>, b: &Leaf<K, V>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => !Arc::ptr_eq(a, b) && a != b,
        (Some(m), None) | (None, Some(m)) => !m.is_empty(),
        (None, None) => false,
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash,
{
    fn leaf(&self, (shard, leaf): Slot) -> Option<&FastHashMap<K, V>> {
        self.shards[shard][leaf].as_deref()
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.leaf(key.slot())?.get(key)
    }

    /// Total entries (O(leaves), not O(entries)).
    pub(crate) fn len(&self) -> usize {
        self.leaves().map(|l| l.len()).sum()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.leaves().flat_map(|l| l.iter())
    }

    pub(crate) fn keys(&self) -> impl Iterator<Item = &K> {
        self.leaves().flat_map(|l| l.keys())
    }

    /// Shard nodes of `self` still sharing their allocation with the
    /// corresponding node of `other` (copy-on-write diagnostics).
    pub(crate) fn shards_shared_with(&self, other: &Self) -> usize {
        self.shards.iter().zip(&other.shards).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Per shard, whether its entries differ from the same shard of
    /// `other` — exact, by content, whatever lineage either map has.
    /// A shared shard node costs one pointer comparison, a shared leaf
    /// another; only unshared leaves are compared entry-wise.
    pub(crate) fn shards_differing(&self, other: &Self) -> [bool; SHARD_COUNT]
    where
        V: PartialEq,
    {
        let (a, b) = (&self.shards, &other.shards);
        std::array::from_fn(|i| {
            !Arc::ptr_eq(&a[i], &b[i])
                && a[i].iter().zip(b[i].iter()).any(|(x, y)| leaves_differ(x, y))
        })
    }

    /// Assert that every entry lives in the shard and leaf its key
    /// routes to (invariant-check helper; O(entries)).
    pub(crate) fn check_residency(&self) {
        for (i, node) in self.shards.iter().enumerate() {
            for (j, leaf) in node.iter().enumerate() {
                for key in leaf.iter().flat_map(|l| l.keys()) {
                    let slot = key.slot();
                    assert_eq!(
                        slot,
                        (i, j),
                        "entry stored in slot {:?} routes to {slot:?}",
                        (i, j)
                    );
                }
            }
        }
    }
}

impl<K, V> ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash + Clone,
    V: Clone,
{
    /// The leaf at `slot`, unsharing its shard node and itself (and
    /// allocating it if absent).
    fn leaf_mut(&mut self, (shard, leaf): Slot) -> &mut FastHashMap<K, V> {
        let node = Arc::make_mut(&mut self.shards[shard]);
        Arc::make_mut(node[leaf].get_or_insert_with(Default::default))
    }

    /// Whether this map alone holds the slot's shard node and leaf, so
    /// that writing through them copies nothing.
    fn owns(&self, (shard, leaf): Slot) -> bool {
        // No `Weak` handle to a node or leaf is ever made, so a strong
        // count of one is sole ownership.
        Arc::strong_count(&self.shards[shard]) == 1
            && self.shards[shard][leaf].as_ref().is_some_and(|l| Arc::strong_count(l) == 1)
    }

    /// Mutable access to an entry's value. Unshares the slot — but
    /// only on a hit; a miss returns `None` without copying anything.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_mut_if(key, |_| true)
    }

    /// Mutable access to an entry's value if `write` accepts it. A slot
    /// this map already owns is probed once, and `write` is not asked:
    /// nothing is copied either way. A shared slot is peeked through
    /// first, so a miss or a refused entry unshares nothing.
    pub(crate) fn get_mut_if(&mut self, key: &K, write: impl FnOnce(&V) -> bool) -> Option<&mut V> {
        let slot = key.slot();
        if !self.owns(slot) && !self.leaf(slot).and_then(|l| l.get(key)).is_some_and(write) {
            return None;
        }
        self.leaf_mut(slot).get_mut(key)
    }

    /// The value under `key`, inserting `V::default()` first if absent
    /// (the `entry(key).or_default()` shape). Always unshares the
    /// slot: callers want the reference to write through.
    pub(crate) fn get_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        self.leaf_mut(key.slot()).entry(key).or_default()
    }

    /// Remove an entry. A miss does not unshare the slot; an owned slot
    /// is probed once.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let slot = key.slot();
        if !self.owns(slot) && !self.leaf(slot).is_some_and(|l| l.contains_key(key)) {
            return None;
        }
        self.leaf_mut(slot).remove(key)
    }
}

impl<K, V> PartialEq for ShardedMap<K, V>
where
    K: ShardKey + Eq + Hash,
    V: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        // Routing is deterministic, so equal contents imply slot-wise
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
        fn slot(&self) -> Slot {
            route(self, ())
        }
    }

    impl<K, V> ShardedMap<K, V> {
        /// Leaves of shard `i` of `self` that are not the same
        /// allocation as in `other` (two absent leaves count as
        /// shared).
        pub(crate) fn leaves_unshared_in(&self, other: &Self, i: usize) -> usize {
            let unshared = |(a, b): (&Leaf<K, V>, &Leaf<K, V>)| match (a, b) {
                (Some(a), Some(b)) => !Arc::ptr_eq(a, b),
                (a, b) => a.is_some() != b.is_some(),
            };
            self.shards[i].iter().zip(other.shards[i].iter()).filter(|&p| unshared(p)).count()
        }

        /// Leaves of `self` not shared with `other`, over all shards.
        pub(crate) fn leaves_unshared_with(&self, other: &Self) -> usize {
            (0..SHARD_COUNT).map(|i| self.leaves_unshared_in(other, i)).sum()
        }
    }

    fn filled(n: u64) -> ShardedMap<u64, u64> {
        let mut m = ShardedMap::default();
        for i in 0..n {
            *m.get_or_default(i) = i * 10;
        }
        m
    }

    /// A key routed to the same shard as `key` but another leaf.
    fn sibling_of(key: u64) -> u64 {
        let (shard, leaf) = key.slot();
        (key + 1..).find(|k| k.slot().0 == shard && k.slot().1 != leaf).unwrap()
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
    fn keys_spread_over_multiple_shards_and_leaves() {
        let m = filled(1024);
        let slots: std::collections::HashSet<Slot> = m.keys().map(|k| k.slot()).collect();
        let shards: std::collections::HashSet<usize> = slots.iter().map(|s| s.0).collect();
        assert!(shards.len() > SHARD_COUNT / 2, "only {} shards used", shards.len());
        let total = SHARD_COUNT * LEAF_COUNT;
        assert!(slots.len() > total / 2, "only {} of {total} leaves used", slots.len());
        assert!(slots.iter().all(|&(s, l)| s < SHARD_COUNT && l < LEAF_COUNT));
    }

    #[test]
    fn clone_shares_all_shards_until_written() {
        let original = filled(if cfg!(miri) { 300 } else { 2000 });
        let mut copy = original.clone();
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT);
        *copy.get_or_default(100) = 1;
        // One shard node and one of its leaves are copied; the other
        // 15 nodes and the written node's other 15 leaves stay shared.
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT - 1);
        let written = 100u64.shard();
        assert_eq!(copy.leaves_unshared_in(&original, written), 1);
        assert_eq!(copy.leaves_unshared_with(&original), 1);
        // A second write into another leaf of the same shard copies
        // that leaf only.
        *copy.get_or_default(sibling_of(100)) = 1;
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT - 1);
        assert_eq!(copy.leaves_unshared_in(&original, written), 2);
        // The original is untouched.
        assert_eq!(original.get(&100), Some(&1000));
        assert_eq!(copy.get(&100), Some(&1));
    }

    #[test]
    fn reads_and_misses_unshare_no_shard_or_leaf() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy.get(&3), Some(&30));
        assert_eq!(copy.iter().count(), 64);
        assert_eq!(copy.remove(&99_999), None);
        assert_eq!(copy.get_mut(&99_999), None);
        // A miss whose leaf is absent allocates nothing either.
        let absent = (0..).find(|k| original.leaf(k.slot()).is_none()).unwrap();
        assert_eq!(copy.remove(&absent), None);
        assert_eq!(copy.get_mut(&absent), None);
        assert_eq!(copy.shards_shared_with(&original), SHARD_COUNT);
        assert_eq!(copy.leaves_unshared_with(&original), 0);
    }

    #[test]
    fn equality_ignores_sharing_state() {
        let original = filled(64);
        let mut copy = original.clone();
        assert_eq!(copy, original);
        *copy.get_or_default(3) = 30; // same value: unshared but still equal
        assert_eq!(copy, original);
        *copy.get_or_default(3) = 31;
        assert_ne!(copy, original);
    }

    #[test]
    fn shard_at_yields_only_that_shards_leaves() {
        let m = filled(256);
        let mut n = 0;
        for i in 0..SHARD_COUNT {
            for leaf in m.shard_at(i) {
                assert!(leaf.keys().all(|k| k.shard() == i), "shard {i} yields a foreign key");
                n += leaf.len();
            }
        }
        assert_eq!(n, m.len());
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
        *copy.get_or_default(3) = 30;
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        // A real write differs in exactly its shard, and undoing it
        // makes the shard equal again.
        *copy.get_or_default(1) = 11;
        let differing = copy.shards_differing(&original);
        assert!((0..SHARD_COUNT).all(|i| differing[i] == (i == 1u64.shard())));
        *copy.get_or_default(1) = 10;
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        // A map rebuilt from scratch shares no allocation yet is equal.
        let rebuilt = filled(64);
        assert_eq!(rebuilt.shards_shared_with(&original), 0);
        assert_eq!(rebuilt.shards_differing(&original), [false; SHARD_COUNT]);
    }

    #[test]
    fn shards_differing_equates_an_absent_leaf_with_an_emptied_one() {
        let original = filled(64);
        // A key whose leaf the original never allocated.
        let key = (1000..).find(|k| original.leaf(k.slot()).is_none()).unwrap();
        let shard = key.shard();
        let mut copy = original.clone();
        *copy.get_or_default(key) = 1;
        let differing = copy.shards_differing(&original);
        assert!((0..SHARD_COUNT).all(|i| differing[i] == (i == shard)));
        assert_ne!(copy, original);
        // Emptied, the leaf stays allocated yet equals the absent one,
        // from either side.
        assert_eq!(copy.remove(&key), Some(1));
        assert!(copy.leaf(key.slot()).is_some_and(|l| l.is_empty()));
        assert_eq!(copy.shards_differing(&original), [false; SHARD_COUNT]);
        assert_eq!(original.shards_differing(&copy), [false; SHARD_COUNT]);
        assert_eq!(copy, original);
        // A non-empty leaf against an absent one differs, from either side.
        *copy.get_or_default(key) = 2;
        assert!(original.shards_differing(&copy)[shard]);
        assert!(copy.shards_differing(&original)[shard]);
    }

    #[test]
    fn shard_residency_holds_per_leaf() {
        filled(256).check_residency();
    }

    #[test]
    #[should_panic(expected = "routes to")]
    fn shard_residency_catches_an_entry_in_the_wrong_leaf() {
        let mut m = filled(64);
        // Plant a key in another leaf of its own shard: a shard-level
        // check would pass it.
        let (shard, leaf) = 7u64.slot();
        let wrong = (leaf + 1) % LEAF_COUNT;
        m.leaf_mut((shard, wrong)).insert(7, 70);
        m.check_residency();
    }

    #[test]
    fn get_or_default_inserts_once_per_shard_slot() {
        let mut m: ShardedMap<u64, Vec<u64>> = ShardedMap::default();
        m.get_or_default(7).push(1);
        m.get_or_default(7).push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }
}
