//! Delta sets: which `(chain, method)` relations changed, for which
//! objects — and, where a relation only grew, by which applications.
//!
//! Semi-naive fixpoint evaluation re-derives only what a round's
//! writes could have affected. A [`ChangedSince`] keeps **one entry
//! per `(chain, method)` relation** changed since it was created,
//! a [`RelationDelta`], which sorts the relation's changed object bases
//! in two:
//!
//! * bases read **whole**: the version is new, or it lost facts under
//!   the relation. A removal can make no membership literal true, so it
//!   needs no facts — but it ends the "only grown" guarantee, and the
//!   base reads whole from then on. Every changed base, whole or not,
//!   seeds the body literals that are true *because* something changed
//!   shape (`del[..]` / `mod[..]`), which read only the changed bases;
//! * bases that **only grew**, with the applications they gained: the
//!   version already existed and its facts under the relation only
//!   grew. That is the seed of a body literal true by membership,
//!   which can then join from the new facts alone. The first
//!   application is held inline; a vector is allocated only from the
//!   second on.
//!
//! Recording a fact costs a hash of the relation and one of the base
//! while no base of the relation is whole (a fixpoint round that only
//! repairs versions in place), and a relation of whole bases alone is
//! a set that holds a single base inline — what the rounds of a
//! one-object commit record, whose relations mostly change for one
//! object. Both write
//! paths of a round record here through the object base: the tracked
//! commit
//! ([`crate::ObjectBase::replace_versions_tracked_shared`]), which
//! diffs each incoming state against the one it replaces so that
//! idempotent re-commits contribute nothing, and the tracked in-place
//! edits ([`crate::ObjectBase::insert_tracked`] /
//! [`crate::ObjectBase::remove_tracked`]), which record only effective
//! writes.

use std::collections::hash_map::Entry;

use ruvo_term::{Chain, Const, FastHashMap, FastHashSet, Symbol};

use crate::MethodApp;

/// What a base whose version only grew gained under one relation: one
/// application inline, two or more in a vector, in the order added.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Added {
    One(MethodApp),
    Many(Vec<MethodApp>),
}

impl Added {
    fn as_slice(&self) -> &[MethodApp] {
        match self {
            Added::One(app) => std::slice::from_ref(app),
            Added::Many(apps) => apps,
        }
    }
}

/// A set of bases that holds a single one inline: most relations a
/// commit changes, change for one object. Empty only as the default;
/// never a one-member set, so the derived `==` is content equality.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Bases {
    One(Const),
    Many(FastHashSet<Const>),
}

impl Default for Bases {
    fn default() -> Self {
        Bases::Many(FastHashSet::default())
    }
}

impl Bases {
    fn insert(&mut self, base: Const) {
        match self {
            Bases::One(one) if *one == base => {}
            Bases::One(one) => *self = Bases::Many([*one, base].into_iter().collect()),
            Bases::Many(set) if set.is_empty() => *self = Bases::One(base),
            Bases::Many(set) => {
                set.insert(base);
            }
        }
    }

    fn contains(&self, base: Const) -> bool {
        match self {
            Bases::One(one) => *one == base,
            Bases::Many(set) => set.contains(&base),
        }
    }

    fn iter(&self) -> impl Iterator<Item = Const> + '_ {
        let (one, many) = match self {
            Bases::One(one) => (Some(*one), None),
            Bases::Many(set) => (None, Some(set.iter().copied())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn len(&self) -> usize {
        match self {
            Bases::One(_) => 1,
            Bases::Many(set) => set.len(),
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Bases::Many(set) if set.is_empty())
    }
}

/// One relation's entry in a [`ChangedSince`]: the object bases whose
/// facts under the relation changed and, for a base whose version only
/// grew, the applications it gained.
///
/// Collected from bases (`FromIterator<Const>`), it marks every base
/// whole: the object-granular seed of a literal that reads several
/// relations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// The bases to read whole: their version is new, or lost facts.
    whole: Bases,
    /// The bases whose version existed and only grew, with what they
    /// gained. Disjoint from `whole`, so a base costs one hash while
    /// nothing in the relation is whole, and a relation that only
    /// holds whole bases allocates no map for facts.
    grown: FastHashMap<Const, Added>,
}

impl RelationDelta {
    /// The changed object bases.
    pub fn bases(&self) -> impl Iterator<Item = Const> + '_ {
        self.whole.iter().chain(self.grown.keys().copied())
    }

    /// True if `base` changed.
    pub fn contains(&self, base: Const) -> bool {
        self.grown.contains_key(&base) || self.whole.contains(base)
    }

    /// The applications `base` gained, if its version existed and only
    /// grew; `None` if it must be read whole (or did not change).
    pub fn added(&self, base: Const) -> Option<&[MethodApp]> {
        self.grown.get(&base).map(Added::as_slice)
    }

    /// The bases that only grew, each with what it gained.
    pub fn grown(&self) -> impl Iterator<Item = (Const, &[MethodApp])> {
        self.grown.iter().map(|(base, added)| (*base, added.as_slice()))
    }

    /// Number of changed bases.
    pub fn len(&self) -> usize {
        self.whole.len() + self.grown.len()
    }

    /// True if no base changed.
    pub fn is_empty(&self) -> bool {
        self.whole.is_empty() && self.grown.is_empty()
    }

    fn record(&mut self, base: Const) {
        if !self.grown.is_empty() {
            self.grown.remove(&base);
        }
        self.whole.insert(base);
    }

    fn record_added(&mut self, base: Const, app: MethodApp) {
        if self.whole.contains(base) {
            return;
        }
        match self.grown.entry(base) {
            Entry::Vacant(slot) => {
                slot.insert(Added::One(app));
            }
            Entry::Occupied(mut slot) => match slot.get_mut() {
                Added::One(first) => {
                    let first = first.clone();
                    slot.insert(Added::Many(vec![first, app]));
                }
                Added::Many(apps) => apps.push(app),
            },
        }
    }
}

impl FromIterator<Const> for RelationDelta {
    fn from_iter<I: IntoIterator<Item = Const>>(bases: I) -> RelationDelta {
        let mut whole = Bases::default();
        bases.into_iter().for_each(|base| whole.insert(base));
        RelationDelta { whole, grown: FastHashMap::default() }
    }
}

/// The changes accumulated since a point in time: one
/// [`RelationDelta`] per changed `(chain, method)` relation.
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
/// ob.replace_versions_tracked_shared(&[edit], Some(&mut delta));
///
/// let sal = delta.relation(&(Chain::EMPTY, sym("sal"))).unwrap();
/// assert_eq!(sal.len(), 1);
/// // 4000 disappeared, so no added facts: the whole version is the delta.
/// assert!(sal.contains(oid("phil")));
/// assert!(sal.added(oid("phil")).is_none());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChangedSince {
    map: FastHashMap<(Chain, Symbol), RelationDelta>,
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
        self.map.entry((chain, method)).or_default().record(base);
    }

    /// Record that `app` was added to `base`'s facts under
    /// `(chain, method)`, the version having existed before. If the
    /// base is already recorded whole it stays that way.
    pub fn record_added(&mut self, chain: Chain, method: Symbol, base: Const, app: MethodApp) {
        self.map.entry((chain, method)).or_default().record_added(base, app);
    }

    /// True if the relation changed for *some* object.
    pub fn contains(&self, key: &(Chain, Symbol)) -> bool {
        self.map.contains_key(key)
    }

    /// The relation's entry: which objects' facts under `key` changed,
    /// and how — if any did.
    pub fn relation(&self, key: &(Chain, Symbol)) -> Option<&RelationDelta> {
        self.map.get(key)
    }

    /// The changed relations.
    pub fn keys(&self) -> impl Iterator<Item = &(Chain, Symbol)> {
        self.map.keys()
    }

    /// Number of changed relations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Args;
    use ruvo_term::{int, oid, sym};

    fn app(n: i64) -> MethodApp {
        MethodApp::new(Args::empty(), int(n))
    }

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
        assert_eq!(d.relation(&(Chain::EMPTY, sym("sal"))).unwrap().len(), 2);
    }

    #[test]
    fn facts_are_kept_only_while_a_base_only_grows() {
        let key = (Chain::EMPTY, sym("p"));
        let mut d = ChangedSince::new();
        d.record_added(key.0, key.1, oid("x"), app(1));
        d.record_added(key.0, key.1, oid("x"), app(2));
        d.record(key.0, key.1, oid("y"));
        d.record_added(key.0, key.1, oid("y"), app(3)); // y is already "whole"
        let p = d.relation(&key).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.added(oid("x")), Some(&[app(1), app(2)][..]));
        assert!(p.added(oid("y")).is_none());
        // A removal (or any whole-version record) ends x's guarantee.
        d.record(key.0, key.1, oid("x"));
        let p = d.relation(&key).unwrap();
        assert!(p.grown().next().is_none());
        assert!(p.contains(oid("x")));
    }

    #[test]
    fn added_facts_go_from_inline_to_a_vector_in_insertion_order() {
        let key = (Chain::EMPTY, sym("p"));
        let mut d = ChangedSince::new();
        d.record_added(key.0, key.1, oid("x"), app(3));
        let added = |d: &ChangedSince| d.relation(&key).unwrap().grown[&oid("x")].clone();
        assert_eq!(added(&d), Added::One(app(3)), "the first addition is inline");
        d.record_added(key.0, key.1, oid("x"), app(1));
        assert_eq!(added(&d), Added::Many(vec![app(3), app(1)]));
        d.record_added(key.0, key.1, oid("x"), app(2));
        assert_eq!(added(&d), Added::Many(vec![app(3), app(1), app(2)]));
        assert_eq!(d.relation(&key).unwrap().added(oid("x")), Some(&[app(3), app(1), app(2)][..]));
        let grown: Vec<_> = d.relation(&key).unwrap().grown().collect();
        assert_eq!(grown, vec![(oid("x"), &[app(3), app(1), app(2)][..])]);
    }

    #[test]
    fn record_after_record_added_drops_the_facts() {
        let key = (Chain::EMPTY, sym("p"));
        let mut d = ChangedSince::new();
        d.record_added(key.0, key.1, oid("x"), app(1));
        d.record_added(key.0, key.1, oid("y"), app(2));
        d.record_added(key.0, key.1, oid("y"), app(3));
        d.record(key.0, key.1, oid("x"));
        d.record(key.0, key.1, oid("y"));
        let p = d.relation(&key).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!((p.added(oid("x")), p.added(oid("y"))), (None, None));
        assert!(p.grown.is_empty() && p.whole.len() == 2);
        // One base is held inline, two or more in a set.
        let mut one = ChangedSince::new();
        one.record(key.0, key.1, oid("x"));
        one.record(key.0, key.1, oid("x"));
        assert_eq!(one.relation(&key).unwrap().whole, Bases::One(oid("x")));
        // ...and later additions do not bring them back.
        d.record_added(key.0, key.1, oid("x"), app(4));
        assert!(d.relation(&key).unwrap().added(oid("x")).is_none());
    }

    #[test]
    fn a_relation_collected_from_bases_reads_every_base_whole() {
        let relation: RelationDelta = [oid("x"), oid("y"), oid("x")].into_iter().collect();
        assert_eq!(relation.len(), 2);
        assert!(relation.contains(oid("y")) && !relation.contains(oid("z")));
        assert!(relation.grown().next().is_none());
    }
}
