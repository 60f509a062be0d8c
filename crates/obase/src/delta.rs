//! Delta sets: which `(chain, method)` relations changed, and for
//! which objects.
//!
//! Semi-naive fixpoint evaluation re-derives only what a round's
//! version-state commits could have affected. A [`ChangedSince`]
//! records, per `(chain, method)` relation, the set of object bases
//! whose facts under that relation were added *or* removed since the
//! set was last cleared — exactly the seed a delta-driven join needs.
//!
//! The set is populated by the tracked commit
//! ([`crate::ObjectBase::replace_versions_tracked_shared`], the
//! engine's per-round state commit; `replace_version_tracked` is its
//! one-edit form), which diffs each incoming state against the one it
//! replaces so that idempotent re-commits contribute nothing.
//! Re-committing the very state handle the store already holds is
//! recognized by pointer identity and skips the diff entirely, so a
//! fixpoint round that re-applies an unchanged update set records
//! nothing at zero cost.

use ruvo_term::{Chain, Const, FastHashMap, FastHashSet, Symbol};

/// The changes accumulated since a point in time: per `(chain, method)`
/// relation, the object bases whose fact sets changed.
///
/// ```
/// use ruvo_obase::{ChangedSince, ObjectBase, VersionState, MethodApp, Args};
/// use ruvo_term::{int, oid, sym, Chain, Vid};
///
/// let mut ob = ObjectBase::parse("phil.sal -> 4000.").unwrap();
/// let mut delta = ChangedSince::new();
///
/// // Commit a new state for phil's initial version: sal changes.
/// let mut state = VersionState::new();
/// state.insert(sym("sal"), MethodApp::new(Args::empty(), int(4600)));
/// ob.replace_version_tracked(Vid::object(oid("phil")), state, &mut delta);
///
/// assert!(delta.contains(&(Chain::EMPTY, sym("sal"))));
/// assert_eq!(delta.bases(&(Chain::EMPTY, sym("sal"))).unwrap().len(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangedSince {
    map: FastHashMap<(Chain, Symbol), FastHashSet<Const>>,
}

impl ChangedSince {
    /// An empty delta set.
    pub fn new() -> ChangedSince {
        ChangedSince::default()
    }

    /// Record that `base`'s facts under `(chain, method)` changed.
    pub fn record(&mut self, chain: Chain, method: Symbol, base: Const) {
        self.map.entry((chain, method)).or_default().insert(base);
    }

    /// True if the relation changed for *some* object.
    pub fn contains(&self, key: &(Chain, Symbol)) -> bool {
        self.map.contains_key(key)
    }

    /// The objects whose facts under `key` changed, if any did.
    pub fn bases(&self, key: &(Chain, Symbol)) -> Option<&FastHashSet<Const>> {
        self.map.get(key)
    }

    /// The changed relations.
    pub fn keys(&self) -> impl Iterator<Item = &(Chain, Symbol)> {
        self.map.keys()
    }

    /// Fold another delta set into this one.
    pub fn merge(&mut self, other: &ChangedSince) {
        for (key, bases) in &other.map {
            self.map.entry(*key).or_default().extend(bases.iter().copied());
        }
    }

    /// Number of changed relations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop all recorded changes.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{oid, sym};

    #[test]
    fn record_and_query() {
        let mut d = ChangedSince::new();
        assert!(d.is_empty());
        d.record(Chain::EMPTY, sym("sal"), oid("phil"));
        d.record(Chain::EMPTY, sym("sal"), oid("bob"));
        d.record(Chain::EMPTY, sym("isa"), oid("phil"));
        assert_eq!(d.len(), 2);
        assert!(d.contains(&(Chain::EMPTY, sym("sal"))));
        assert!(!d.contains(&(Chain::EMPTY, sym("boss"))));
        assert_eq!(d.bases(&(Chain::EMPTY, sym("sal"))).unwrap().len(), 2);
    }

    #[test]
    fn merge_unions() {
        let mut a = ChangedSince::new();
        a.record(Chain::EMPTY, sym("p"), oid("x"));
        let mut b = ChangedSince::new();
        b.record(Chain::EMPTY, sym("p"), oid("y"));
        b.record(Chain::EMPTY, sym("q"), oid("z"));
        a.merge(&b);
        assert_eq!(a.bases(&(Chain::EMPTY, sym("p"))).unwrap().len(), 2);
        assert!(a.contains(&(Chain::EMPTY, sym("q"))));
        a.clear();
        assert!(a.is_empty());
    }
}
