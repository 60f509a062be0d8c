//! Delta sets: which `(chain, method)` relations changed, for which
//! objects — and, where a relation only grew, by which applications.
//!
//! Semi-naive fixpoint evaluation re-derives only what a round's
//! writes could have affected. A [`ChangedSince`] records two planes
//! per `(chain, method)` relation since it was last cleared:
//!
//! * the **object plane** — the object bases whose facts under the
//!   relation were added *or* removed: what gates rule re-evaluation
//!   and seeds the body literals that are true *because* something
//!   changed shape (`del[..]` / `mod[..]`);
//! * the **fact plane** — for a base whose version already existed and
//!   whose facts under the relation have *only grown*, exactly the
//!   applications added: the seed of a body literal that is true by
//!   membership, which can then join from the new facts alone.
//!
//! A changed base without a fact entry means "the whole version is the
//! delta": the version is new, or it lost facts (a removal can make no
//! membership literal true, so it needs no facts — but it ends the
//! "only grown" guarantee, and the entry with it).
//!
//! Both write paths of a round record here through the object base:
//! the tracked commit ([`crate::ObjectBase::replace_versions_tracked_shared`]),
//! which diffs each incoming state against the one it replaces so that
//! idempotent re-commits contribute nothing, and the tracked in-place
//! edits ([`crate::ObjectBase::insert_tracked`] /
//! [`crate::ObjectBase::remove_tracked`]), which record only effective
//! writes.

use ruvo_term::{Chain, Const, FastHashMap, FastHashSet, Symbol};

use crate::MethodApp;

/// The applications added per object base of one relation.
pub type AddedFacts = FastHashMap<Const, Vec<MethodApp>>;

/// The changes accumulated since a point in time: per `(chain, method)`
/// relation, the object bases whose fact sets changed, plus the added
/// applications of the bases that only grew.
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
/// let edit = (Vid::object(oid("phil")), Some(state.into()));
/// ob.replace_versions_tracked_shared(&[edit], &mut delta);
///
/// assert!(delta.contains(&(Chain::EMPTY, sym("sal"))));
/// assert_eq!(delta.bases(&(Chain::EMPTY, sym("sal"))).unwrap().len(), 1);
/// // 4000 disappeared, so no fact entry: the whole version is the delta.
/// assert!(delta.added(&(Chain::EMPTY, sym("sal"))).is_none());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangedSince {
    map: FastHashMap<(Chain, Symbol), FastHashSet<Const>>,
    /// The fact plane. Invariant: an entry `(key, base)` exists only if
    /// `base` is in `map[key]` and every change recorded for it since
    /// the last clear was an addition; it then lists those additions.
    facts: FastHashMap<(Chain, Symbol), AddedFacts>,
}

impl ChangedSince {
    /// An empty delta set.
    pub fn new() -> ChangedSince {
        ChangedSince::default()
    }

    /// Record that `base`'s facts under `(chain, method)` changed in a
    /// way only the whole version describes (a new version, a removal).
    /// Drops any facts recorded for it.
    pub fn record(&mut self, chain: Chain, method: Symbol, base: Const) {
        self.map.entry((chain, method)).or_default().insert(base);
        if let Some(facts) = self.facts.get_mut(&(chain, method)) {
            facts.remove(&base);
        }
    }

    /// Record that `app` was added to `base`'s facts under
    /// `(chain, method)`, the version having existed before. If the
    /// base is already recorded without facts it stays that way.
    pub fn record_added(&mut self, chain: Chain, method: Symbol, base: Const, app: MethodApp) {
        let key = (chain, method);
        if self.map.entry(key).or_default().insert(base) {
            self.facts.entry(key).or_default().insert(base, vec![app]);
        } else if let Some(apps) = self.facts.get_mut(&key).and_then(|f| f.get_mut(&base)) {
            apps.push(app);
        }
    }

    /// True if the relation changed for *some* object.
    pub fn contains(&self, key: &(Chain, Symbol)) -> bool {
        self.map.contains_key(key)
    }

    /// The objects whose facts under `key` changed, if any did.
    pub fn bases(&self, key: &(Chain, Symbol)) -> Option<&FastHashSet<Const>> {
        self.map.get(key)
    }

    /// The fact plane of `key`: per base of [`ChangedSince::bases`]
    /// that only grew, the applications added. A changed base without
    /// an entry must be read whole.
    pub fn added(&self, key: &(Chain, Symbol)) -> Option<&AddedFacts> {
        self.facts.get(key).filter(|facts| !facts.is_empty())
    }

    /// The changed relations.
    pub fn keys(&self) -> impl Iterator<Item = &(Chain, Symbol)> {
        self.map.keys()
    }

    /// Fold another delta set's object plane into this one. Facts are a
    /// round's seeds and are not accumulated: the merged-in bases read
    /// as whole-version changes.
    pub fn merge(&mut self, other: &ChangedSince) {
        for (key, bases) in &other.map {
            self.map.entry(*key).or_default().extend(bases.iter().copied());
            if let Some(facts) = self.facts.get_mut(key) {
                facts.retain(|base, _| !bases.contains(base));
            }
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
        self.facts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;
    use ruvo_term::{int, oid, sym};

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

    #[test]
    fn facts_are_kept_only_while_a_base_only_grows() {
        let key = (Chain::EMPTY, sym("p"));
        let app = |n| MethodApp::new(Args::empty(), int(n));
        let mut d = ChangedSince::new();
        d.record_added(key.0, key.1, oid("x"), app(1));
        d.record_added(key.0, key.1, oid("x"), app(2));
        d.record(key.0, key.1, oid("y"));
        d.record_added(key.0, key.1, oid("y"), app(3)); // y is already "whole"
        assert_eq!(d.bases(&key).unwrap().len(), 2);
        assert_eq!(d.added(&key).unwrap().get(&oid("x")), Some(&vec![app(1), app(2)]));
        assert!(!d.added(&key).unwrap().contains_key(&oid("y")));
        // A removal (or any whole-version record) ends x's guarantee.
        d.record(key.0, key.1, oid("x"));
        assert!(d.added(&key).is_none());
        assert!(d.bases(&key).unwrap().contains(&oid("x")));

        // Merging is object-level: no facts travel, and merged-in bases
        // lose the facts the target held for them.
        let mut round = ChangedSince::new();
        round.record_added(key.0, key.1, oid("z"), app(4));
        let mut total = ChangedSince::new();
        total.record_added(key.0, key.1, oid("z"), app(5));
        total.merge(&round);
        assert!(total.added(&key).is_none());
        assert!(total.bases(&key).unwrap().contains(&oid("z")));
    }
}
