//! The counted member sets behind the key indexes' per-key entries.
//!
//! Most index keys hold one member: a distinct salary or tag names one
//! object. A [`Bag`] keeps that member inline, so building such an
//! entry allocates nothing, and neither does copying the shard that
//! holds it on write — a commit that unshares an index shard pays one
//! allocation for the table, not one per key in it. Two or more members
//! sit in an `Arc`-shared table, so copying a shard leaf shares a large
//! entry (`kind -> live` of every account) instead of cloning it: only a
//! write to that entry itself copies it.

use std::hash::Hash;
use std::sync::Arc;

use ruvo_term::FastHashMap;

/// A multiset that stores a single distinct member inline.
#[derive(Clone, Debug, Default)]
pub(crate) enum Bag<T> {
    /// No member: the default, before the first [`Bag::add`].
    #[default]
    Empty,
    /// One distinct member and its multiplicity (≥ 1).
    One(T, u32),
    /// Two or more distinct members, each with multiplicity ≥ 1.
    Many(Arc<FastHashMap<T, u32>>),
}

impl<T: Copy + Eq + Hash> Bag<T> {
    /// Add one occurrence of `x`.
    pub(crate) fn add(&mut self, x: T) {
        match self {
            Bag::Empty => *self = Bag::One(x, 1),
            Bag::One(y, n) if *y == x => *n += 1,
            Bag::One(y, n) => {
                *self = Bag::Many(Arc::new([(*y, *n), (x, 1)].into_iter().collect()));
            }
            Bag::Many(map) => *Arc::make_mut(map).entry(x).or_insert(0) += 1,
        }
    }

    /// Remove one occurrence of `x`; false if it was absent.
    pub(crate) fn remove(&mut self, x: T) -> bool {
        match self {
            Bag::One(y, n) if *y == x => {
                *n -= 1;
                if *n == 0 {
                    *self = Bag::Empty;
                }
                true
            }
            Bag::Empty | Bag::One(..) => false,
            Bag::Many(map) => {
                if !map.contains_key(&x) {
                    return false;
                }
                let map = Arc::make_mut(map);
                let n = map.get_mut(&x).expect("presence checked above");
                *n -= 1;
                if *n == 0 {
                    map.remove(&x);
                    if map.len() == 1 {
                        let (&y, &n) = map.iter().next().expect("one member left");
                        *self = Bag::One(y, n);
                    }
                }
                true
            }
        }
    }

    pub(crate) fn contains(&self, x: T) -> bool {
        match self {
            Bag::Empty => false,
            Bag::One(y, _) => *y == x,
            Bag::Many(map) => map.contains_key(&x),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        matches!(self, Bag::Empty)
    }

    /// The number of distinct members, in O(1).
    pub(crate) fn len(&self) -> usize {
        match self {
            Bag::Empty => 0,
            Bag::One(..) => 1,
            Bag::Many(map) => map.len(),
        }
    }

    /// The distinct members with their multiplicities.
    pub(crate) fn counts(&self) -> impl Iterator<Item = (T, u32)> + '_ {
        let (one, many) = match self {
            Bag::Empty => (None, None),
            Bag::One(y, n) => (Some((*y, *n)), None),
            Bag::Many(map) => (None, Some(map.iter().map(|(&y, &n)| (y, n)))),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    /// The distinct members.
    pub(crate) fn members(&self) -> impl Iterator<Item = T> + '_ {
        self.counts().map(|(y, _)| y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(bag: &Bag<u32>) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = bag.counts().collect();
        v.sort();
        v
    }

    #[test]
    fn one_member_stays_inline_through_adds_and_removes() {
        let mut bag = Bag::default();
        assert!(bag.is_empty());
        assert_eq!(bag.len(), 0);
        bag.add(7);
        bag.add(7);
        assert!(matches!(bag, Bag::One(7, 2)));
        assert!(!bag.remove(8), "an absent member is not removed");
        assert!(bag.remove(7));
        assert!(bag.contains(7));
        assert!(bag.remove(7));
        assert!(bag.is_empty() && !bag.contains(7));
    }

    #[test]
    fn a_second_member_spills_and_the_last_one_folds_back() {
        let mut bag = Bag::default();
        bag.add(1);
        bag.add(2);
        bag.add(2);
        assert!(matches!(bag, Bag::Many(_)));
        assert_eq!(bag.len(), 2, "distinct members, not occurrences");
        assert_eq!(sorted(&bag), vec![(1, 1), (2, 2)]);
        assert!(bag.remove(2));
        assert_eq!(sorted(&bag), vec![(1, 1), (2, 1)]);
        assert!(bag.remove(1));
        assert!(matches!(bag, Bag::One(2, 1)));
        assert_eq!(bag.len(), 1);
        assert_eq!(bag.members().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn a_copied_bag_shares_its_table_until_one_side_is_written() {
        let mut bag = Bag::default();
        bag.add(1);
        bag.add(2);
        let copy = bag.clone();
        let (Bag::Many(a), Bag::Many(b)) = (&bag, &copy) else { panic!("two members spill") };
        assert!(Arc::ptr_eq(a, b), "a copy shares the table");
        bag.add(3);
        assert_eq!(sorted(&copy), vec![(1, 1), (2, 1)], "writing one side leaves the other");
        assert_eq!(sorted(&bag), vec![(1, 1), (2, 1), (3, 1)]);
    }
}
