//! Per-version states.
//!
//! §2.1: "The state of a version w.r.t. a certain object-base is given
//! by the set of all ground method-applications, which can be derived
//! from its version-terms in the respective object-base."

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use ruvo_term::{Const, FastHashSet, Symbol};

use crate::Args;

/// One ground method-application `m@a1,...,ak -> r` (without the
/// version, which is the map key in [`crate::ObjectBase`]).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodApp {
    /// Ground arguments.
    pub args: Args,
    /// Ground result.
    pub result: Const,
}

impl MethodApp {
    /// Construct from parts.
    pub fn new(args: impl Into<Args>, result: Const) -> MethodApp {
        MethodApp { args: args.into(), result }
    }
}

impl fmt::Debug for MethodApp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.args.is_empty() {
            write!(f, "-> {}", self.result)
        } else {
            write!(f, "@ {} -> {}", self.args, self.result)
        }
    }
}

/// The applications of one method in a [`VersionState`]: a single one
/// inline, or an `Arc`-shared set of two or more — never an empty or a
/// one-member set, so equal contents have one representation. (`==`
/// on two handles to one set is a pointer comparison: `Arc` checks
/// identity first for an `Eq` payload.)
#[derive(Clone, PartialEq, Eq)]
enum Apps {
    One(MethodApp),
    Many(Arc<FastHashSet<MethodApp>>),
}

impl Apps {
    fn contains(&self, app: &MethodApp) -> bool {
        match self {
            Apps::One(a) => a == app,
            Apps::Many(set) => set.contains(app),
        }
    }

    fn iter(&self) -> impl Iterator<Item = &MethodApp> {
        let (one, many) = match self {
            Apps::One(a) => (Some(a), None),
            Apps::Many(set) => (None, Some(set.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// The state of one version: its method-applications, grouped by method.
///
/// A state stored in an [`crate::ObjectBase`] never holds `exists`: the
/// version's presence in the table is its `exists` fact (§3), so a
/// state may be empty (every fact deleted, §5).
///
/// The methods sit in one vector sorted by [`Symbol`]. A method with a
/// single application — almost every method of a paper base (`sal`,
/// `isa`, `boss`) — holds it inline; one with two or more holds an
/// `Arc`-shared set, and goes back inline when removals leave one.
/// Cloning a state — the frame-copy step `T_P` performs per updated
/// version — therefore allocates one vector and bumps one refcount per
/// multi-valued method instead of deep-copying any set, and a mutation
/// unshares only the one set it touches. A lookup is a binary search
/// in that vector. The form is canonical: equal contents compare equal
/// field by field, and [`VersionState::iter`] yields methods in
/// ascending symbol order. This is the innermost level of the store's
/// copy-on-write stack (index shards → version states → multi-valued
/// method sets); it also lets [`VersionState::changed_methods`] skip
/// still-shared sets by pointer identity.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VersionState {
    methods: Vec<(Symbol, Apps)>,
    fact_count: usize,
}

impl VersionState {
    /// An empty state.
    pub fn new() -> VersionState {
        VersionState::default()
    }

    /// The slot of `method` in the sorted vector, or where it would go.
    fn find(&self, method: Symbol) -> Result<usize, usize> {
        self.methods.binary_search_by_key(&method, |&(m, _)| m)
    }

    fn get(&self, method: Symbol) -> Option<&Apps> {
        self.find(method).ok().map(|i| &self.methods[i].1)
    }

    /// Add a method-application. Returns true if it was new.
    pub fn insert(&mut self, method: Symbol, app: MethodApp) -> bool {
        match self.find(method) {
            Err(i) => self.methods.insert(i, (method, Apps::One(app))),
            Ok(i) => {
                let apps = &mut self.methods[i].1;
                match apps {
                    Apps::One(a) if *a == app => return false,
                    Apps::One(a) => {
                        *apps = Apps::Many(Arc::new([a.clone(), app].into_iter().collect()))
                    }
                    // A set this state owns is hashed once, by the insert.
                    Apps::Many(set) if Arc::strong_count(set) == 1 => {
                        if !Arc::make_mut(set).insert(app) {
                            return false;
                        }
                    }
                    // Peek before copying: a duplicate insert must not
                    // unshare a shared set.
                    Apps::Many(set) if set.contains(&app) => return false,
                    Apps::Many(set) => {
                        Arc::make_mut(set).insert(app);
                    }
                }
            }
        }
        self.fact_count += 1;
        true
    }

    /// Remove a method-application. Returns true if it was present.
    pub fn remove(&mut self, method: Symbol, app: &MethodApp) -> bool {
        let Ok(i) = self.find(method) else { return false };
        let apps = &mut self.methods[i].1;
        match apps {
            // Peek before copying: a miss must not unshare the set.
            _ if !apps.contains(app) => return false,
            Apps::One(_) => {
                self.methods.remove(i);
            }
            // Back inline: the survivor is cloned out, so a shared set
            // is never copied only to be dropped.
            Apps::Many(set) if set.len() == 2 => {
                let rest = set.iter().find(|a| *a != app).expect("two applications").clone();
                *apps = Apps::One(rest);
            }
            Apps::Many(set) => {
                Arc::make_mut(set).remove(app);
            }
        }
        self.fact_count -= 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, method: Symbol, app: &MethodApp) -> bool {
        self.get(method).is_some_and(|apps| apps.contains(app))
    }

    /// [`VersionState::contains`] for an application given by parts: an
    /// inline one is compared in place; only a multi-valued set builds
    /// its key.
    pub(crate) fn contains_parts(&self, method: Symbol, args: &[Const], result: Const) -> bool {
        match self.get(method) {
            None => false,
            Some(Apps::One(a)) => a.result == result && a.args.as_slice() == args,
            Some(Apps::Many(set)) => set.contains(&MethodApp { args: Args::from(args), result }),
        }
    }

    /// True if the state defines `method` at all.
    pub fn has_method(&self, method: Symbol) -> bool {
        self.find(method).is_ok()
    }

    /// All applications of one method.
    pub fn apps(&self, method: Symbol) -> impl Iterator<Item = &MethodApp> {
        self.get(method).into_iter().flat_map(Apps::iter)
    }

    /// Results of `method` applied to exactly `args`.
    pub fn results<'a>(
        &'a self,
        method: Symbol,
        args: &'a [Const],
    ) -> impl Iterator<Item = Const> + 'a {
        self.apps(method).filter(move |a| a.args.as_slice() == args).map(|a| a.result)
    }

    /// The methods this state defines, in ascending symbol order.
    pub fn methods(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.methods.iter().map(|&(m, _)| m)
    }

    /// All `(method, application)` pairs, methods in ascending symbol
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &MethodApp)> {
        self.methods.iter().flat_map(|(m, apps)| apps.iter().map(move |a| (*m, a)))
    }

    /// Number of method-applications in the state.
    pub fn len(&self) -> usize {
        self.fact_count
    }

    /// True if the state has no method-applications at all.
    pub fn is_empty(&self) -> bool {
        self.fact_count == 0
    }

    /// The methods whose application sets differ between `self` and
    /// `other` (symmetric difference over methods, set equality within
    /// one method), in ascending symbol order — the per-commit delta
    /// the semi-naive evaluator seeds from. One merge walk of the two
    /// sorted vectors; sets the two states still share by pointer (a
    /// copy-on-write clone whose method was never written) compare in
    /// O(1).
    pub fn changed_methods(&self, other: &VersionState) -> Vec<Symbol> {
        let (a, b) = (&self.methods, &other.methods);
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    out.push(a[i].0);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j].0);
                    j += 1;
                }
                Ordering::Equal => {
                    // `Arc`'s `==` decides a still-shared set by pointer.
                    if a[i].1 != b[j].1 {
                        out.push(a[i].0);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend(a[i..].iter().chain(&b[j..]).map(|&(m, _)| m));
        out
    }
}

impl fmt::Debug for VersionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<String> = self.iter().map(|(m, a)| format!("{m} {a:?}")).collect();
        entries.sort();
        write!(f, "{{{}}}", entries.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid, sym};

    fn app(result: Const) -> MethodApp {
        MethodApp::new(Args::empty(), result)
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = VersionState::new();
        assert!(s.insert(sym("sal"), app(int(250))));
        assert!(!s.insert(sym("sal"), app(int(250))), "duplicate insert");
        assert_eq!(s.len(), 1);
        assert!(s.contains(sym("sal"), &app(int(250))));
        assert!(s.remove(sym("sal"), &app(int(250))));
        assert!(!s.remove(sym("sal"), &app(int(250))));
        assert!(s.is_empty());
        assert!(!s.has_method(sym("sal")));
    }

    #[test]
    fn set_valued_methods() {
        // §2.3's `parents` example: several results for one method.
        let mut s = VersionState::new();
        s.insert(sym("parents"), app(oid("ann")));
        s.insert(sym("parents"), app(oid("tom")));
        assert_eq!(s.len(), 2);
        let mut results: Vec<Const> = s.results(sym("parents"), &[]).collect();
        results.sort();
        assert_eq!(results, vec![oid("ann"), oid("tom")]);
    }

    #[test]
    fn results_filter_by_args() {
        let mut s = VersionState::new();
        s.insert(sym("dist"), MethodApp::new(vec![oid("a")], int(1)));
        s.insert(sym("dist"), MethodApp::new(vec![oid("b")], int(2)));
        let r: Vec<Const> = s.results(sym("dist"), &[oid("a")]).collect();
        assert_eq!(r, vec![int(1)]);
    }

    #[test]
    fn changed_methods_is_a_symmetric_method_diff() {
        let mut a = VersionState::new();
        a.insert(sym("sal"), app(int(250)));
        a.insert(sym("isa"), app(oid("empl")));
        let mut b = a.clone();
        assert!(a.changed_methods(&b).is_empty(), "identical states have no diff");
        b.insert(sym("sal"), app(int(275)));
        b.insert(sym("pos"), app(oid("mgr")));
        b.remove(sym("isa"), &app(oid("empl")));
        let mut diff = a.changed_methods(&b);
        diff.sort_by_key(|m| m.as_str().to_owned());
        assert_eq!(diff, vec![sym("isa"), sym("pos"), sym("sal")]);
    }

    /// Whether `method` holds its applications inline.
    fn inline(s: &VersionState, method: &str) -> bool {
        matches!(s.get(sym(method)), Some(Apps::One(_)))
    }

    fn set_of(s: &VersionState, method: &str) -> Arc<FastHashSet<MethodApp>> {
        match s.get(sym(method)) {
            Some(Apps::Many(set)) => Arc::clone(set),
            _ => panic!("{method} is not multi-valued"),
        }
    }

    #[test]
    fn a_method_goes_inline_to_set_and_back() {
        let mut s = VersionState::new();
        s.insert(sym("kids"), app(oid("ann")));
        assert!(inline(&s, "kids"));
        s.insert(sym("kids"), app(oid("bea")));
        s.insert(sym("kids"), app(oid("cid")));
        assert!(!inline(&s, "kids"));
        assert!(s.remove(sym("kids"), &app(oid("cid"))));
        assert!(!inline(&s, "kids"), "two applications stay a set");
        assert!(s.remove(sym("kids"), &app(oid("ann"))));
        assert!(inline(&s, "kids"), "one application goes back inline");
        assert_eq!(s.apps(sym("kids")).cloned().collect::<Vec<_>>(), vec![app(oid("bea"))]);
        assert_eq!(s.len(), 1);
        assert!(s.remove(sym("kids"), &app(oid("bea"))));
        assert!(!s.has_method(sym("kids")) && s.is_empty());
    }

    #[test]
    fn folding_a_shared_set_back_inline_leaves_the_original_alone() {
        let mut a = VersionState::new();
        a.insert(sym("kids"), app(oid("ann")));
        a.insert(sym("kids"), app(oid("bea")));
        let mut b = a.clone();
        assert_eq!(Arc::strong_count(&set_of(&a, "kids")), 3, "a, b and this handle");
        assert!(!b.remove(sym("kids"), &app(oid("cid"))), "a miss");
        assert_eq!(Arc::strong_count(&set_of(&a, "kids")), 3, "a miss copies nothing");
        assert!(b.remove(sym("kids"), &app(oid("ann"))));
        assert!(inline(&b, "kids"));
        assert_eq!(Arc::strong_count(&set_of(&a, "kids")), 2, "b dropped its share");
        assert_eq!(a.len(), 2);
        assert!(a.contains(sym("kids"), &app(oid("ann"))));
        // Growing the shared set unshares it for the writer only.
        let mut c = a.clone();
        c.insert(sym("kids"), app(oid("cid")));
        assert_eq!(set_of(&a, "kids").len(), 2);
        assert_eq!(set_of(&c, "kids").len(), 3);
    }

    #[test]
    fn equal_contents_are_equal_states_whatever_the_insertion_order() {
        let facts = [
            ("sal", app(int(250))),
            ("isa", app(oid("empl"))),
            ("isa", app(oid("hpe"))),
            ("dist", MethodApp::new(vec![oid("a")], int(1))),
            ("boss", app(oid("bob"))),
        ];
        let build = |order: &[usize]| {
            let mut s = VersionState::new();
            for &i in order {
                s.insert(sym(facts[i].0), facts[i].1.clone());
            }
            s
        };
        let a = build(&[0, 1, 2, 3, 4]);
        let b = build(&[4, 3, 2, 1, 0]);
        let c = build(&[2, 4, 0, 3, 1]);
        assert!(a == b && b == c);
        assert!(a.changed_methods(&c).is_empty());
        // A method that went through a set and back equals one that
        // never left inline.
        let mut d = build(&[0, 1, 3, 4]);
        let mut e = d.clone();
        e.insert(sym("isa"), app(oid("vip")));
        e.remove(sym("isa"), &app(oid("vip")));
        assert_eq!(d, e);
        d.insert(sym("isa"), app(oid("hpe")));
        assert_eq!(d, a);
    }

    #[test]
    fn changed_methods_compares_shared_and_unshared_sets() {
        let mut a = VersionState::new();
        a.insert(sym("kids"), app(oid("ann")));
        a.insert(sym("kids"), app(oid("bea")));
        a.insert(sym("sal"), app(int(250)));
        let shared = a.clone();
        assert!(a.changed_methods(&shared).is_empty(), "a shared set");
        let mut unshared = VersionState::new();
        unshared.insert(sym("sal"), app(int(250)));
        unshared.insert(sym("kids"), app(oid("bea")));
        unshared.insert(sym("kids"), app(oid("ann")));
        assert!(!Arc::ptr_eq(&set_of(&a, "kids"), &set_of(&unshared, "kids")));
        assert!(a.changed_methods(&unshared).is_empty(), "an unshared, equal set");
        let mut grown = a.clone();
        grown.insert(sym("kids"), app(oid("cid")));
        assert_eq!(a.changed_methods(&grown), vec![sym("kids")]);
        assert_eq!(grown.changed_methods(&a), vec![sym("kids")]);
        // Unshared by a write, then restored: equal again.
        grown.remove(sym("kids"), &app(oid("cid")));
        assert!(a.changed_methods(&grown).is_empty());
        // Set against inline, and methods on one side only.
        let mut folded = a.clone();
        folded.remove(sym("kids"), &app(oid("ann")));
        folded.insert(sym("pos"), app(oid("mgr")));
        folded.remove(sym("sal"), &app(int(250)));
        let mut diff = a.changed_methods(&folded);
        let mut expect = vec![sym("kids"), sym("pos"), sym("sal")];
        expect.sort();
        assert_eq!(diff, expect, "ascending symbol order");
        diff = folded.changed_methods(&a);
        assert_eq!(diff, expect);
    }

    #[test]
    fn iteration_order_is_fixed() {
        // `del[..].*` expands in `iter()` order: the same state must
        // iterate the same way every time it is built.
        let build = || {
            let mut s = VersionState::new();
            for (m, r) in [("sal", int(250)), ("isa", oid("empl")), ("boss", oid("bob"))] {
                s.insert(sym(m), app(r));
            }
            for k in 0..20 {
                s.insert(sym("kids"), app(int(k)));
            }
            s
        };
        let order = |s: &VersionState| s.iter().map(|(m, a)| (m, a.clone())).collect::<Vec<_>>();
        let first = order(&build());
        assert_eq!(first.len(), 23);
        for _ in 0..3 {
            assert_eq!(order(&build()), first);
        }
        let methods: Vec<Symbol> = build().methods().collect();
        assert!(methods.windows(2).all(|w| w[0] < w[1]), "methods ascend by symbol");
        // Inline methods iterate by content alone.
        let mut reversed = VersionState::new();
        for (m, r) in [("boss", oid("bob")), ("isa", oid("empl")), ("sal", int(250))] {
            reversed.insert(sym(m), app(r));
        }
        let inline_only: Vec<_> =
            first.iter().filter(|(m, _)| *m != sym("kids")).cloned().collect();
        assert_eq!(order(&reversed), inline_only);
    }
}
