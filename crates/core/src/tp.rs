//! The immediate consequence operator `T_P` (§3).
//!
//! `T_P(I)` is computed in three steps:
//!
//! 1. **Collect** (`T¹`): the set of fired ground update-terms — heads
//!    of ground rule instances whose body literals and head are true
//!    w.r.t. `I` ([`collect_rule`]; the truth of heads is
//!    [`crate::truth::update_head`]).
//! 2. **Copy** (`T²`): for each *relevant* VID `φ(v)` (one that some
//!    fired update creates), prepare a state to update — the current
//!    state of `φ(v)` if it is *active* (already exists), otherwise a
//!    copy of the state of `v*` ("by copying old states only for the
//!    objects being updated … we keep the unavoidable overhead low" —
//!    the paper's frame-problem note).
//! 3. **Apply**: inserts add method-applications, deletes remove them,
//!    modifies replace old results with new ones ([`apply_updates`]).
//!
//! Steps 2 and 3 read `I` only: every state that is *built* — a
//! version new in the round, or one a `mod` creates — is built against
//! the round's *input* base, and the states are committed together
//! before anything else is written. A version created in a round is
//! therefore never the `v*` another version of the same round copies
//! from — `T_P` is a function of `I`, not of the order versions are
//! processed in.
//!
//! Step 3 is defined over the whole `T¹` of the stratum, yet a round
//! costs what it adds (ARCHITECTURE.md, decision D7). All updates
//! creating one version have one kind and only they ever write it, so
//! for an *active* `ins(v)` / `del(v)` with state `S` the round's own
//! updates are exact — `S ∪ A = S ∪ A_δ`, `S ∖ R = S ∖ R_δ` — and the
//! version is **repaired in place**. Chained modifies are different:
//! `(a,b)` fired in round 1 and `(b,c)` in round 2 must reach `{b,c}`
//! where the delta alone gives `{c}`, so a `mod(v)` is rebuilt from its
//! accumulated updates, which the engine passes whole (idempotent:
//! `((X ∖ R) ∪ A) ∖ R ∪ A = (X ∖ R) ∪ A`).

use std::sync::Arc;

use ruvo_lang::{Rule, UpdateSpec};
use ruvo_obase::{Args, ChangedSince, MethodApp, ObjectBase, VersionState};
use ruvo_term::{ArgTerm, Bindings, Const, FastHashMap, FastHashSet, Symbol, UpdateKind, Vid};

use crate::matcher::Seed;
use crate::plan::RuleIndexPlan;
use crate::{matcher, truth};

/// A fired ground update-term (an element of `T¹`).
///
/// Only [`collect_rule`] builds one, from an admitted rule's head,
/// whose created version fits a chain; every variant is
/// `#[non_exhaustive]`, so no other crate can:
///
/// ```compile_fail,E0639
/// use ruvo_core::Fired;
/// use ruvo_term::{int, oid, sym, Vid};
/// let target = Vid::object(oid("a"));
/// let args = ruvo_obase::Args::new(Vec::new());
/// let _ = Fired::Ins { target, method: sym("p"), args, result: int(1) };
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Fired {
    /// `ins[target].method@args -> result`
    #[non_exhaustive]
    Ins {
        /// Bracketed target version `v`.
        target: Vid,
        /// Method updated.
        method: Symbol,
        /// Ground arguments.
        args: Args,
        /// Inserted result.
        result: Const,
    },
    /// `del[target].method@args -> result`
    #[non_exhaustive]
    Del {
        /// Bracketed target version `v`.
        target: Vid,
        /// Method updated.
        method: Symbol,
        /// Ground arguments.
        args: Args,
        /// Deleted result.
        result: Const,
    },
    /// `mod[target].method@args -> (from, to)`
    #[non_exhaustive]
    Mod {
        /// Bracketed target version `v`.
        target: Vid,
        /// Method updated.
        method: Symbol,
        /// Ground arguments.
        args: Args,
        /// Old result.
        from: Const,
        /// New result.
        to: Const,
    },
}

impl Fired {
    /// The update kind.
    pub fn kind(&self) -> UpdateKind {
        match self {
            Fired::Ins { .. } => UpdateKind::Ins,
            Fired::Del { .. } => UpdateKind::Del,
            Fired::Mod { .. } => UpdateKind::Mod,
        }
    }

    /// The bracketed target version `v`.
    pub fn target(&self) -> Vid {
        match self {
            Fired::Ins { target, .. } | Fired::Del { target, .. } | Fired::Mod { target, .. } => {
                *target
            }
        }
    }

    /// The *relevant* VID this update creates: `φ(v)`. Outside this
    /// module's tests only `fire_head` builds a `Fired`, with the chain
    /// of an admitted head's target, whose created version fits a chain.
    pub(crate) fn created(&self) -> Vid {
        self.target().apply(self.kind()).expect("the front end refuses an over-deep head")
    }

    /// The method updated.
    pub fn method(&self) -> Symbol {
        match self {
            Fired::Ins { method, .. } | Fired::Del { method, .. } | Fired::Mod { method, .. } => {
                *method
            }
        }
    }
}

impl std::fmt::Display for Fired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fired::Ins { target, method, args, result } => {
                write!(f, "ins[{target}].{method}")?;
                if !args.is_empty() {
                    write!(f, " @ {args}")?;
                }
                write!(f, " -> {result}")
            }
            Fired::Del { target, method, args, result } => {
                write!(f, "del[{target}].{method}")?;
                if !args.is_empty() {
                    write!(f, " @ {args}")?;
                }
                write!(f, " -> {result}")
            }
            Fired::Mod { target, method, args, from, to } => {
                write!(f, "mod[{target}].{method}")?;
                if !args.is_empty() {
                    write!(f, " @ {args}")?;
                }
                write!(f, " -> ({from}, {to})")
            }
        }
    }
}

/// The accumulated `T¹` of a stratum, with O(1) dedup.
#[derive(Clone, Debug, Default)]
pub struct FiredSet {
    set: FastHashSet<Fired>,
}

impl FiredSet {
    /// An empty set.
    pub fn new() -> FiredSet {
        FiredSet::default()
    }

    /// Insert; true if the update is new.
    pub fn insert(&mut self, fired: Fired) -> bool {
        self.set.insert(fired)
    }

    /// Make room for `additional` more updates — a round reserves its
    /// candidates' count before it inserts them.
    pub fn reserve(&mut self, additional: usize) {
        self.set.reserve(additional);
    }

    /// Membership.
    pub fn contains(&self, fired: &Fired) -> bool {
        self.set.contains(fired)
    }

    /// Number of distinct fired updates.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if nothing fired.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Iterate (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &Fired> {
        self.set.iter()
    }
}

fn ground_arg(t: ArgTerm, b: &Bindings) -> Const {
    t.ground(b).expect("safety analysis guarantees head variables are bound")
}

fn ground_args(args: &[ArgTerm], b: &Bindings) -> Args {
    Args::new(args.iter().map(|&a| ground_arg(a, b)).collect())
}

/// Step 1 for one rule: enumerate body matches, ground the head, check
/// head truth, and emit fired updates into `out`. Scans go through the
/// value-keyed method index per the rule's compile-time
/// [`RuleIndexPlan`]; with a `seed`, the scan at that plan step is
/// restricted to the seed's objects (and added facts) and executed
/// first — the semi-naive delta join (matches involving nothing of the
/// seed at that literal are skipped; the engine issues one seeded pass
/// per changed body literal).
///
/// A `del[V].*` head expands into one `Del` per stored
/// method-application of `v*` (`exists`, which is not updatable, is
/// the version table, not a stored fact) — "we write del[…]: to
/// express the deletion of all method-applications of the respective
/// version" (§2.3).
///
/// Returns the candidate versions the scans enumerated.
pub fn collect_rule(
    ob: &ObjectBase,
    rule: &Rule,
    plan: &RuleIndexPlan,
    seed: Option<&Seed<'_>>,
    out: &mut Vec<Fired>,
) -> usize {
    matcher::for_each_match(ob, rule, plan, seed, &mut |b| fire_head(ob, rule, b, out))
}

/// The seed-less [`collect_rule`]: a full evaluation of the rule.
pub fn collect_rule_planned(
    ob: &ObjectBase,
    rule: &Rule,
    plan: &RuleIndexPlan,
    out: &mut Vec<Fired>,
) {
    collect_rule(ob, rule, plan, None, out);
}

/// Ground the head under a complete body match, check §3 head truth,
/// and emit the fired update(s).
fn fire_head(ob: &ObjectBase, rule: &Rule, b: &Bindings, out: &mut Vec<Fired>) {
    let target = rule
        .head()
        .target()
        .ground(b)
        .expect("safety analysis guarantees head variables are bound");
    match rule.head().spec() {
        UpdateSpec::Ins { method, args, result } => {
            // §3: an ins head is always true.
            out.push(Fired::Ins {
                target,
                method: *method,
                args: ground_args(args, b),
                result: ground_arg(*result, b),
            });
        }
        UpdateSpec::Del { method, args, result } => {
            let args = ground_args(args, b);
            let result = ground_arg(*result, b);
            if truth::update_head(ob, UpdateKind::Del, target, *method, args.as_slice(), result) {
                out.push(Fired::Del { target, method: *method, args, result });
            }
        }
        UpdateSpec::DelAll => {
            if let Some(v_star) = ob.v_star(target) {
                if let Some(state) = ob.version(v_star) {
                    for (method, app) in state.iter() {
                        out.push(Fired::Del {
                            target,
                            method,
                            args: app.args.clone(),
                            result: app.result,
                        });
                    }
                }
            }
        }
        UpdateSpec::Mod { method, args, from, to } => {
            let args = ground_args(args, b);
            let from = ground_arg(*from, b);
            let to = ground_arg(*to, b);
            if truth::update_head(ob, UpdateKind::Mod, target, *method, args.as_slice(), from) {
                out.push(Fired::Mod { target, method: *method, args, from, to });
            }
        }
    }
}

/// Bookkeeping produced by [`apply_updates`], consumed by the engine.
#[derive(Debug, Default)]
pub struct ApplyReport {
    /// Versions whose state was (re)computed this round.
    pub touched: Vec<Vid>,
    /// How many versions did not exist before this round.
    pub created: usize,
    /// The round's semantic delta: per `(chain, method)` relation, the
    /// objects whose fact sets actually changed and — for versions that
    /// were active and only grew — the facts added (recorded by the
    /// tracked commit and the tracked in-place edits, so ineffective
    /// updates contribute nothing): the next round's semi-naive seeds.
    pub changed: ChangedSince,
    /// Method-applications copied in step 2 (frame-copy volume).
    pub facts_copied: usize,
}

/// A round's delta grouped by created version, in first-appearance
/// order. This is the **canonical apply order**: states are built,
/// committed and repaired in it, so the `touched` list and the
/// recorded delta follow the delta's order, never hash order.
///
/// One index map and one flat permutation, whatever the number of
/// groups: group `g` creates `vids[g]`, and its updates are
/// `delta[order[i]]` for `i` in `ends[g - 1]..ends[g]`, in delta order.
struct Groups {
    vids: Vec<Vid>,
    ends: Vec<usize>,
    order: Vec<usize>,
}

impl Groups {
    fn of(delta: &[Fired]) -> Groups {
        let mut index: FastHashMap<Vid, usize> =
            FastHashMap::with_capacity_and_hasher(delta.len(), Default::default());
        let (mut vids, mut ends) =
            (Vec::with_capacity(delta.len()), Vec::with_capacity(delta.len()));
        // Per update its group; `ends` counts each group's updates.
        let group_of: Vec<usize> = delta
            .iter()
            .map(|fired| {
                let created = fired.created();
                let g = *index.entry(created).or_insert_with(|| {
                    vids.push(created);
                    ends.push(0);
                    vids.len() - 1
                });
                ends[g] += 1;
                g
            })
            .collect();
        // Counts to group starts; placing each update then advances its
        // group's start to the group's end.
        let mut start = 0;
        for n in &mut ends {
            (*n, start) = (start, start + *n);
        }
        let mut order = vec![0; delta.len()];
        for (i, &g) in group_of.iter().enumerate() {
            order[ends[g]] = i;
            ends[g] += 1;
        }
        Groups { vids, ends, order }
    }

    /// Group `g`'s created version and its updates, in delta order.
    fn get<'d>(
        &'d self,
        delta: &'d [Fired],
        g: usize,
    ) -> (Vid, impl Iterator<Item = &'d Fired> + Clone) {
        let start = if g == 0 { 0 } else { self.ends[g - 1] };
        (self.vids[g], self.order[start..self.ends[g]].iter().map(move |&i| &delta[i]))
    }
}

/// Steps 2 + 3 for one created version whose state is built whole,
/// **read-only** on `ob`: the copied source state with the group's
/// updates applied (`active`: whether `created` exists already).
/// Returns the new state and the facts copied. Being a pure function
/// of `(ob, created, updates)`, it never sees a state built in the
/// same round.
fn build_state<'d>(
    ob: &ObjectBase,
    created: Vid,
    active: bool,
    updates: impl Iterator<Item = &'d Fired> + Clone,
) -> (Arc<VersionState>, usize) {
    let mut facts_copied = 0;
    // Step 2: the copy — an `Arc` alias of the source state, not a
    // deep copy. Step 3 unshares it on its first *effective* write
    // (every removal/insertion peeks first), so re-applying an
    // already-applied mod history touches nothing, and the tracked
    // commit recognizes the unchanged pointer and skips the diff and
    // the re-indexing outright.
    let mut state: Arc<VersionState> = if active {
        ob.version_shared(created).cloned().unwrap_or_default()
    } else {
        let target = updates.clone().next().expect("a group is never empty").target();
        let copied = match ob.v_star(target) {
            Some(v_star) => ob.version_shared(v_star).cloned().unwrap_or_default(),
            // Brand-new object: empty copy (ARCHITECTURE.md, decision D3).
            None => Arc::new(VersionState::new()),
        };
        facts_copied = copied.len();
        copied
    };

    // Step 3: apply. The paper defines this as set algebra — the kept
    // copies are those whose result is no del-result and no
    // mod-from-value, and every ins-result and mod-to-value is
    // unioned in. Hence two phases: all removals first, then all
    // insertions. Interleaving per update would make chained mods
    // like (a,b),(b,c) order-dependent ({c} or {a,c} instead of the
    // paper's {b,c}).
    for fired in updates.clone() {
        let removal = match fired {
            Fired::Del { method, args, result, .. } => {
                Some((*method, MethodApp::new(args.clone(), *result)))
            }
            Fired::Mod { method, args, from, .. } => {
                Some((*method, MethodApp::new(args.clone(), *from)))
            }
            Fired::Ins { .. } => None,
        };
        if let Some((method, app)) = removal {
            if state.contains(method, &app) {
                Arc::make_mut(&mut state).remove(method, &app);
            }
        }
    }
    for fired in updates {
        let insertion = match fired {
            Fired::Ins { method, args, result, .. } => {
                Some((*method, MethodApp::new(args.clone(), *result)))
            }
            Fired::Mod { method, args, to, .. } => {
                Some((*method, MethodApp::new(args.clone(), *to)))
            }
            Fired::Del { .. } => None,
        };
        if let Some((method, app)) = insertion {
            if !state.contains(method, &app) {
                Arc::make_mut(&mut state).insert(method, app);
            }
        }
    }
    (state, facts_copied)
}

/// Steps 2 + 3 for the newly fired updates of one round (for a
/// version a `mod` creates: its accumulated updates), grouped by
/// created version. Groups that need a whole state — versions new this
/// round (the frame copy) and `mod` groups — are built against the
/// round's input base and committed at once through the tracked commit
/// (`ObjectBase::replace_versions_tracked_shared`). Only *then* are
/// the `ins` / `del` groups of active versions repaired in place, fact
/// by fact, through the tracked edits — nothing built this round reads
/// them. Every update came from [`collect_rule`] (see [`Fired`]), so
/// each one's created version fits a chain.
pub fn apply_updates(ob: &mut ObjectBase, delta: &[Fired]) -> ApplyReport {
    let groups = Groups::of(delta);
    let mut report = ApplyReport::default();
    let mut edits: Vec<(Vid, Option<Arc<VersionState>>)> = Vec::new();
    let mut repairs: Vec<usize> = Vec::with_capacity(groups.vids.len());
    for g in 0..groups.vids.len() {
        let (created, updates) = groups.get(delta, g);
        let active = ob.exists_fact(created);
        let kind = updates.clone().next().expect("a group is never empty").kind();
        if active && kind != UpdateKind::Mod {
            repairs.push(g);
            continue;
        }
        let (state, facts_copied) = build_state(ob, created, active, updates);
        report.facts_copied += facts_copied;
        if !active {
            report.created += 1;
        }
        edits.push((created, Some(state)));
    }
    ob.replace_versions_tracked_shared(&edits, Some(&mut report.changed));

    for g in repairs {
        let (created, updates) = groups.get(delta, g);
        for fired in updates {
            match fired {
                Fired::Ins { method, args, result, .. } => {
                    ob.insert_tracked(created, *method, args.clone(), *result, &mut report.changed)
                }
                Fired::Del { method, args, result, .. } => {
                    ob.remove_tracked(created, *method, args, *result, &mut report.changed)
                }
                Fired::Mod { .. } => unreachable!("mod groups are built whole"),
            };
        }
    }
    report.touched = groups.vids;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_lang::Program;
    use ruvo_term::{int, oid, sym};

    fn base() -> ObjectBase {
        ObjectBase::parse(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
        )
        .unwrap()
    }

    fn collect(ob: &ObjectBase, src: &str) -> Vec<Fired> {
        let p = Program::parse(src).unwrap();
        let plan = crate::plan::IndexPlan::of(&p);
        let mut out = Vec::new();
        for (rule, plan) in p.rules.iter().zip(&plan.rules) {
            collect_rule_planned(ob, rule, plan, &mut out);
        }
        out
    }

    #[test]
    fn ins_head_fires_unconditionally() {
        let ob = base();
        let fired = collect(&ob, "ins[E].tag -> yes <= E.isa -> empl.");
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().all(|f| f.kind() == UpdateKind::Ins));
    }

    #[test]
    fn del_head_truth_filters() {
        let ob = base();
        // Deleting information that is not there does not fire.
        let fired = collect(&ob, "del[E].pos -> mgr <= E.isa -> empl.");
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].target(), Vid::object(oid("phil")));
    }

    #[test]
    fn mod_head_truth_filters() {
        let ob = base();
        let fired = collect(&ob, "mod[E].sal -> (S, S2) <= E.sal -> S & S2 = S + 1.");
        assert_eq!(fired.len(), 2);
        // A mod whose `from` is not the current value does not fire.
        let fired = collect(&ob, "mod[phil].sal -> (1234, 1).");
        assert!(fired.is_empty());
    }

    #[test]
    fn del_all_expands_to_every_application() {
        let ob = base();
        let fired = collect(&ob, "del[bob].* .");
        // bob has isa, boss, sal (`exists` is not a stored fact).
        assert_eq!(fired.len(), 3);
        assert!(fired.iter().all(|f| matches!(f, Fired::Del { .. })));
    }

    #[test]
    fn apply_ins_copies_then_adds() {
        let mut ob = base();
        let fired = vec![Fired::Ins {
            target: Vid::object(oid("phil")),
            method: sym("isa"),
            args: Args::empty(),
            result: oid("hpe"),
        }];
        let report = apply_updates(&mut ob, &fired);
        assert_eq!(report.created, 1);
        let created = fired[0].created();
        // Copy carried the old state...
        assert!(ob.contains(created, sym("sal"), &[], int(4000)));
        assert!(ob.contains(created, sym("isa"), &[], oid("empl")));
        // ...plus the insert; the new version exists.
        assert!(ob.contains(created, sym("isa"), &[], oid("hpe")));
        assert!(ob.exists_fact(created));
        // The original version is untouched (frame problem note).
        assert!(!ob.contains(Vid::object(oid("phil")), sym("isa"), &[], oid("hpe")));
        ob.check_invariants();
    }

    #[test]
    fn apply_del_removes_from_copy_only() {
        let mut ob = base();
        let fired = vec![Fired::Del {
            target: Vid::object(oid("bob")),
            method: sym("sal"),
            args: Args::empty(),
            result: int(4200),
        }];
        apply_updates(&mut ob, &fired);
        let created = fired[0].created();
        assert!(!ob.contains(created, sym("sal"), &[], int(4200)));
        assert!(ob.contains(created, sym("isa"), &[], oid("empl")));
        assert!(ob.contains(Vid::object(oid("bob")), sym("sal"), &[], int(4200)));
        ob.check_invariants();
    }

    #[test]
    fn apply_mod_replaces_result() {
        let mut ob = base();
        let fired = vec![Fired::Mod {
            target: Vid::object(oid("phil")),
            method: sym("sal"),
            args: Args::empty(),
            from: int(4000),
            to: int(4600),
        }];
        apply_updates(&mut ob, &fired);
        let created = fired[0].created();
        assert!(ob.contains(created, sym("sal"), &[], int(4600)));
        assert!(!ob.contains(created, sym("sal"), &[], int(4000)));
        assert!(ob.contains(created, sym("pos"), &[], oid("mgr")));
        ob.check_invariants();
    }

    #[test]
    fn delete_everything_keeps_exists_note() {
        let mut ob = base();
        let fired: Vec<Fired> = collect(&ob, "del[bob].* .");
        apply_updates(&mut ob, &fired);
        let del_bob = Vid::object(oid("bob")).apply(UpdateKind::Del).unwrap();
        let state = ob.version(del_bob).expect("the emptied version stays in the table");
        assert!(state.is_empty());
        assert!(ob.exists_fact(del_bob));
        ob.check_invariants();
    }

    #[test]
    fn apply_on_active_version_updates_in_place() {
        let mut ob = base();
        let target = Vid::object(oid("phil"));
        let f1 = Fired::Ins { target, method: sym("isa"), args: Args::empty(), result: oid("hpe") };
        let f2 = Fired::Ins { target, method: sym("isa"), args: Args::empty(), result: oid("vip") };
        let r1 = apply_updates(&mut ob, std::slice::from_ref(&f1));
        assert_eq!(r1.created, 1);
        // Second round: ins(phil) is now active; no copy, no creation.
        let r2 = apply_updates(&mut ob, std::slice::from_ref(&f2));
        assert_eq!(r2.created, 0);
        assert_eq!(r2.facts_copied, 0);
        let created = f1.created();
        assert!(ob.contains(created, sym("isa"), &[], oid("hpe")));
        assert!(ob.contains(created, sym("isa"), &[], oid("vip")));
        // The version round 1 created is its own delta; round 2 repaired
        // it in place and reports exactly the one application it added.
        let isa = (created.chain(), sym("isa"));
        assert!(r1.changed.relation(&isa).unwrap().contains(oid("phil")));
        assert!(r1.changed.keys().all(|k| r1
            .changed
            .relation(k)
            .unwrap()
            .grown()
            .next()
            .is_none()));
        assert_eq!(r2.changed.keys().collect::<Vec<_>>(), vec![&isa]);
        let added = r2.changed.relation(&isa).unwrap();
        assert_eq!(added.grown().count(), 1);
        assert_eq!(
            added.added(oid("phil")),
            Some(&[MethodApp::new(Args::empty(), oid("vip"))][..])
        );
        ob.check_invariants();
    }

    #[test]
    fn mod_application_is_set_defined_not_sequential() {
        // §3 step 3 is set-defined: every `from` is removed from the
        // copy, every `to` is added. For set-valued m = {a, b} with
        // fired mods (a,b) and (b,c) in ONE round, the new state is
        // {b, c} regardless of the order the updates are applied in;
        // interleaved remove/insert would give {c} or {a, c}.
        let target = Vid::object(oid("o"));
        let fired = |from: &str, to: &str| Fired::Mod {
            target,
            method: sym("m"),
            args: Args::empty(),
            from: oid(from),
            to: oid(to),
        };
        for pair in [vec![fired("a", "b"), fired("b", "c")], vec![fired("b", "c"), fired("a", "b")]]
        {
            let mut ob = ObjectBase::parse("o.m -> a. o.m -> b.").unwrap();
            apply_updates(&mut ob, &pair);
            let created = pair[0].created();
            assert!(!ob.contains(created, sym("m"), &[], oid("a")));
            assert!(ob.contains(created, sym("m"), &[], oid("b")));
            assert!(ob.contains(created, sym("m"), &[], oid("c")));
        }
    }

    #[test]
    fn mod_swap_preserves_both_values() {
        // Swapping mods (a,b) and (b,a) on m = {a, b}: step 3 removes
        // {a, b} and adds {b, a} — the state is unchanged.
        let target = Vid::object(oid("o"));
        let mut ob = ObjectBase::parse("o.m -> a. o.m -> b.").unwrap();
        let fired = vec![
            Fired::Mod {
                target,
                method: sym("m"),
                args: Args::empty(),
                from: oid("a"),
                to: oid("b"),
            },
            Fired::Mod {
                target,
                method: sym("m"),
                args: Args::empty(),
                from: oid("b"),
                to: oid("a"),
            },
        ];
        apply_updates(&mut ob, &fired);
        let created = fired[0].created();
        assert!(ob.contains(created, sym("m"), &[], oid("a")));
        assert!(ob.contains(created, sym("m"), &[], oid("b")));
    }

    #[test]
    fn new_object_creation_via_ins() {
        let mut ob = base();
        let fired = vec![Fired::Ins {
            target: Vid::object(oid("ghost")),
            method: sym("isa"),
            args: Args::empty(),
            result: oid("spirit"),
        }];
        let report = apply_updates(&mut ob, &fired);
        assert_eq!(report.facts_copied, 0);
        let created = fired[0].created();
        assert!(ob.contains(created, sym("isa"), &[], oid("spirit")));
        assert!(ob.exists_fact(created));
    }

    #[test]
    fn changed_set_covers_new_versions() {
        let mut ob = base();
        let fired = vec![Fired::Mod {
            target: Vid::object(oid("phil")),
            method: sym("sal"),
            args: Args::empty(),
            from: int(4000),
            to: int(4600),
        }];
        let report = apply_updates(&mut ob, &fired);
        let mod_chain = fired[0].created().chain();
        // All copied methods became visible under the mod(·) chain.
        for m in ["sal", "isa", "pos", "exists"] {
            assert!(report.changed.contains(&(mod_chain, sym(m))), "missing changed entry for {m}");
        }
    }
}
