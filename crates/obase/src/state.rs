//! Per-version states.
//!
//! §2.1: "The state of a version w.r.t. a certain object-base is given
//! by the set of all ground method-applications, which can be derived
//! from its version-terms in the respective object-base."

use std::fmt;
use std::sync::Arc;

use ruvo_term::{Const, FastHashMap, FastHashSet, Symbol};

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

/// The state of one version: its method-applications, grouped by method.
///
/// A state stored in an [`crate::ObjectBase`] never holds `exists`: the
/// version's presence in the table is its `exists` fact (§3), so a
/// state may be empty (every fact deleted, §5).
///
/// Each method's application set is `Arc`-shared: cloning a state — the
/// frame-copy step `T_P` performs per updated version — allocates one
/// map and bumps one refcount per method instead of deep-copying every
/// set, and a mutation unshares only the one method it touches. This
/// is the innermost level of the store's copy-on-write stack (index
/// shards → version states → method sets); it also lets
/// [`VersionState::changed_methods`] skip still-shared sets by pointer
/// identity.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct VersionState {
    methods: FastHashMap<Symbol, Arc<FastHashSet<MethodApp>>>,
    fact_count: usize,
}

impl VersionState {
    /// An empty state.
    pub fn new() -> VersionState {
        VersionState::default()
    }

    /// Add a method-application. Returns true if it was new.
    pub fn insert(&mut self, method: Symbol, app: MethodApp) -> bool {
        // Peek before copying: a duplicate insert must not unshare the
        // method's set.
        if self.methods.get(&method).is_some_and(|s| s.contains(&app)) {
            return false;
        }
        Arc::make_mut(self.methods.entry(method).or_default()).insert(app);
        self.fact_count += 1;
        true
    }

    /// Remove a method-application. Returns true if it was present.
    pub fn remove(&mut self, method: Symbol, app: &MethodApp) -> bool {
        // Peek before copying: a miss must not unshare the set.
        let Some(set) = self.methods.get_mut(&method) else { return false };
        if !set.contains(app) {
            return false;
        }
        let remaining = {
            let set = Arc::make_mut(set);
            set.remove(app);
            set.len()
        };
        self.fact_count -= 1;
        if remaining == 0 {
            self.methods.remove(&method);
        }
        true
    }

    /// Membership test.
    pub fn contains(&self, method: Symbol, app: &MethodApp) -> bool {
        self.methods.get(&method).is_some_and(|s| s.contains(app))
    }

    /// True if the state defines `method` at all.
    pub fn has_method(&self, method: Symbol) -> bool {
        self.methods.contains_key(&method)
    }

    /// All applications of one method.
    pub fn apps(&self, method: Symbol) -> impl Iterator<Item = &MethodApp> {
        self.methods.get(&method).into_iter().flat_map(|s| s.iter())
    }

    /// Results of `method` applied to exactly `args`.
    pub fn results<'a>(
        &'a self,
        method: Symbol,
        args: &'a [Const],
    ) -> impl Iterator<Item = Const> + 'a {
        self.apps(method).filter(move |a| a.args.as_slice() == args).map(|a| a.result)
    }

    /// The methods this state defines.
    pub fn methods(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.methods.keys().copied()
    }

    /// All `(method, application)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &MethodApp)> {
        self.methods.iter().flat_map(|(m, set)| set.iter().map(move |a| (*m, a)))
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
    /// one method) — the per-commit delta the semi-naive evaluator
    /// seeds from. Sets the two states still share by pointer (a
    /// copy-on-write clone whose method was never written) compare in
    /// O(1).
    pub fn changed_methods(&self, other: &VersionState) -> Vec<Symbol> {
        let mut out = Vec::new();
        for (&m, set) in &self.methods {
            match other.methods.get(&m) {
                Some(o) if Arc::ptr_eq(o, set) || o == set => {}
                _ => out.push(m),
            }
        }
        for &m in other.methods.keys() {
            if !self.methods.contains_key(&m) {
                out.push(m);
            }
        }
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
}
