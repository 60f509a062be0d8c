//! Body evaluation: enumerating ground instances of a rule whose body
//! literals are all true w.r.t. an object base (the inner loop of step 1
//! of `T_P`).
//!
//! The matcher executes the rule's safety plan ([`ruvo_lang::RulePlan`])
//! as a nested-loop join with backtracking over a single [`Bindings`]:
//!
//! * `Scan` steps enumerate candidate facts from the object base's
//!   `(chain, method)` index and bind pattern variables;
//! * `Check` steps evaluate fully-bound literals against the §3 truth
//!   relation (including negation, which per the paper is "true w.r.t.
//!   I if [the atom] is not true w.r.t. I");
//! * `Assign` steps evaluate a bound arithmetic expression and bind its
//!   target variable.
//!
//! Positive update-terms in bodies are scannable too: their §3 truth
//! conditions dictate the candidate enumeration (e.g. a `del[V].m -> R`
//! body literal with unbound `V`-base enumerates versions `del(v)` whose
//! `exists` fact is present, then reads the deleted applications from
//! `v*`).
//!
//! ## Indexed and seeded scans
//!
//! [`for_each_match`] is the one entry point. Scans follow the
//! compile-time [`ScanHint`]s of the rule's [`RuleIndexPlan`]: a scan
//! whose result or first argument is bound when it runs goes through
//! the object base's value-keyed method index instead of the full
//! relation. With a [`Seed`] — semi-naive evaluation — one chosen scan
//! step is restricted to what a previous fixpoint round changed and is
//! executed **first** (the plan order is rotated), so every enumerated
//! match joins from the delta side. The restriction is to the changed
//! object bases and, for a version-term or `ins[..]` literal whose
//! seed carries the relation's added facts, to exactly those
//! applications of each base that has them; `del[..]`/`mod[..]` and
//! `$V` scans stay object-granular.
//!
//! A full evaluation is the seed-less call, and it too may start
//! elsewhere than plan step 0. The safety order scores every constant
//! key alike, so of `A.kind -> live & A.tag -> t42` the literal written
//! first would open the join and enumerate every live account. When
//! plan step 0 is one of the rule's [start
//! candidates](RuleIndexPlan::starts), the matcher reads each
//! candidate's key count from the object base in O(1) and rotates the
//! strictly smallest to the front, with the key hint it needs there
//! ([`StartCandidate::hint`]); ties keep plan order, so the choice is a
//! function of program and base.
//!
//! Rotating a scan to the front is always sound: scans never require
//! bound variables, and every other step runs with at least the
//! bindings it had under the original order.

use std::borrow::Cow;

use ruvo_lang::{Atom, Literal, PlannedLiteral, Rule, UpdateAtom, UpdateSpec, VersionAtom};
use ruvo_obase::{exists_sym, MethodApp, ObjectBase, RelationDelta};
use ruvo_term::{ArgTerm, Bindings, Chain, Const, Vid, VidRef, VidTerm};

use crate::plan::{RuleIndexPlan, ScanHint, StartCandidate};
use crate::truth;

/// The delta side of a seeded evaluation: the scan at plan step `step`
/// enumerates only what changed.
pub struct Seed<'a> {
    /// The seeded plan step.
    pub step: usize,
    /// What changed. For a literal true by membership in one relation:
    /// that relation's entry, borrowed from the round's delta — a base
    /// that only grew ([`RelationDelta::added`]) is enumerated through
    /// its added facts alone, any other base whole. For any other
    /// literal: the changed objects of every relation it reads, each
    /// whole.
    pub delta: Cow<'a, RelationDelta>,
}

/// The shared, read-only state of one rule evaluation.
struct MatchCtx<'a> {
    ob: &'a ObjectBase,
    rule: &'a Rule,
    /// Execution order: position → plan-step index.
    order: &'a [usize],
    /// Scan hints per plan step.
    hints: &'a [ScanHint],
    /// The hint of the step at position 0 (its start hint when a start
    /// candidate was rotated there).
    first_hint: ScanHint,
    seed: Option<&'a Seed<'a>>,
}

/// Enumerate every satisfying assignment of `rule`'s body over `ob`,
/// invoking `sink` with the complete bindings for each. Scans with a
/// bound key position go through the value-keyed method index, per
/// `plan`.
///
/// With a `seed`, the scan at that plan step enumerates only the
/// seed's objects (and facts), and runs before every other step.
/// Matches that involve nothing of the seed at that literal are *not*
/// produced — the caller is responsible for covering each body
/// literal that may have changed with its own seeded pass.
///
/// Without a seed, the scan to start from is chosen by key counts
/// (see the module docs).
///
/// `sink` must read what it needs from the bindings immediately; they
/// are reused (backtracked) after it returns. Returns the number of
/// candidate versions the scans enumerated
/// ([`crate::EvalStats::scan_candidates`]).
pub fn for_each_match(
    ob: &ObjectBase,
    rule: &Rule,
    plan: &RuleIndexPlan,
    seed: Option<&Seed<'_>>,
    sink: &mut dyn FnMut(&Bindings),
) -> usize {
    let steps = rule.plan().steps.len();
    let (first, first_hint) = match seed {
        Some(s) => (Some(s.step), plan.hints[s.step]),
        None => match smallest_start(ob, &plan.starts) {
            Some(start) => (Some(start.step), start.hint),
            None => (None, plan.hints.first().copied().unwrap_or_default()),
        },
    };
    debug_assert!(first.is_none_or(|s| s < steps), "first step out of range");
    let order: Vec<usize> =
        first.into_iter().chain((0..steps).filter(|&s| Some(s) != first)).collect();
    let ctx = MatchCtx { ob, rule, order: &order, hints: &plan.hints, first_hint, seed };
    let mut bindings = Bindings::with_vid_vars(rule.vars().len(), rule.vid_vars().len());
    let mut buf = Vec::new();
    let mut cur = Cursor { b: &mut bindings, buf: &mut buf, sink, candidates: 0 };
    exec(&ctx, 0, &mut cur);
    cur.candidates
}

/// The start candidate with the smallest key count, if it is not plan
/// step 0; ties keep plan order (`min_by_key` returns the first).
fn smallest_start<'p>(ob: &ObjectBase, starts: &'p [StartCandidate]) -> Option<&'p StartCandidate> {
    let start = starts.iter().min_by_key(|c| {
        let (chain, method, key) = c.key;
        match c.hint {
            ScanHint::Arg0Key => ob.count_with_arg0(chain, method, key),
            _ => ob.count_with_result(chain, method, key),
        }
    })?;
    (start.step != 0).then_some(start)
}

/// The mutable traversal state of one rule evaluation, threaded
/// through every scan/match helper: the single backtracking
/// [`Bindings`], the reusable grounding buffer (`Check` steps run once
/// per candidate of every enclosing scan, so per-candidate argument
/// grounding must not allocate), the match sink, and the count of
/// candidate versions enumerated so far.
struct Cursor<'a> {
    b: &'a mut Bindings,
    buf: &'a mut Vec<Const>,
    sink: &'a mut dyn FnMut(&Bindings),
    candidates: usize,
}

fn exec(ctx: &MatchCtx<'_>, pos: usize, cur: &mut Cursor<'_>) {
    let Some(&si) = ctx.order.get(pos) else {
        (cur.sink)(cur.b);
        return;
    };
    match ctx.rule.plan().steps[si] {
        PlannedLiteral::Check(li) => {
            if check_literal(ctx.ob, &ctx.rule.body()[li], cur.b, cur.buf) {
                exec(ctx, pos + 1, cur);
            }
        }
        PlannedLiteral::Assign { lit, var } => {
            let Atom::Cmp(builtin) = &ctx.rule.body()[lit].atom else {
                unreachable!("Assign plan step on non-builtin literal");
            };
            // One side is the (unbound) variable, the other the value.
            let value = if builtin.lhs.as_single_var() == Some(var) {
                builtin.rhs.eval(cur.b)
            } else {
                builtin.lhs.eval(cur.b)
            };
            if let Some(value) = value {
                let mark = cur.b.mark();
                if cur.b.unify_var(var, value) {
                    exec(ctx, pos + 1, cur);
                }
                cur.b.undo_to(mark);
            }
        }
        PlannedLiteral::Scan(li) => {
            let lit = &ctx.rule.body()[li];
            debug_assert!(lit.positive, "Scan plan step on negated literal");
            let hint = if pos == 0 { ctx.first_hint } else { ctx.hints[si] };
            let seed = ctx.seed.filter(|s| s.step == si);
            let seed_bases = seed.map(|s| &*s.delta);
            match &lit.atom {
                Atom::Version(va) => scan_version(ctx, va, hint, seed, pos, cur),
                Atom::Update(ua) => match ua.spec() {
                    UpdateSpec::Ins { method, args, result } => {
                        // ins[v].m -> r ⟺ ins(v).m -> r ∈ I: scan the
                        // created version like a version-term.
                        let va = VersionAtom {
                            vid: VidRef::Term(ua.created_term()),
                            method: *method,
                            args: args.clone(),
                            result: *result,
                        };
                        scan_version(ctx, &va, hint, seed, pos, cur);
                    }
                    UpdateSpec::Del { .. } => scan_del(ctx, ua, seed_bases, pos, cur),
                    UpdateSpec::Mod { .. } => scan_mod(ctx, ua, seed_bases, pos, cur),
                    UpdateSpec::DelAll => {
                        unreachable!("del-all in a body is rejected by validation")
                    }
                },
                Atom::Cmp(_) => unreachable!("Scan plan step on builtin literal"),
            }
        }
    }
}

/// Evaluate a fully-bound literal. Positive: §3 truth. Negated: "true
/// w.r.t. I if [the atom] is not true w.r.t. I". `buf` is a reusable
/// scratch buffer for argument grounding.
fn check_literal(ob: &ObjectBase, lit: &Literal, b: &Bindings, buf: &mut Vec<Const>) -> bool {
    let truth = match &lit.atom {
        Atom::Version(va) => {
            let vid = va.vid.ground(b).expect("plan guarantees boundness at Check steps");
            ground_args_into(&va.args, b, buf);
            let result = ground_arg(va.result, b);
            truth::version_term(ob, vid, va.method, buf, result)
        }
        Atom::Update(ua) => {
            let target = ground_vid(ua.target(), b);
            match ua.spec() {
                UpdateSpec::Ins { method, args, result } => {
                    ground_args_into(args, b, buf);
                    truth::ins_body(ob, target, *method, buf, ground_arg(*result, b))
                }
                UpdateSpec::Del { method, args, result } => {
                    ground_args_into(args, b, buf);
                    truth::del_body(ob, target, *method, buf, ground_arg(*result, b))
                }
                UpdateSpec::Mod { method, args, from, to } => {
                    ground_args_into(args, b, buf);
                    truth::mod_body(
                        ob,
                        target,
                        *method,
                        buf,
                        ground_arg(*from, b),
                        ground_arg(*to, b),
                    )
                }
                UpdateSpec::DelAll => unreachable!("del-all in a body is rejected by validation"),
            }
        }
        Atom::Cmp(builtin) => match (builtin.lhs.eval(b), builtin.rhs.eval(b)) {
            (Some(l), Some(r)) => builtin.op.test(l, r),
            // Undefined arithmetic (symbol in an operator, division by
            // zero): the atom is not true.
            _ => false,
        },
    };
    truth == lit.positive
}

fn ground_vid(term: VidTerm, b: &Bindings) -> Vid {
    term.ground(b).expect("plan guarantees boundness at Check steps")
}

fn ground_arg(term: ArgTerm, b: &Bindings) -> Const {
    term.ground(b).expect("plan guarantees boundness at Check steps")
}

/// Ground `args` into the reusable buffer (hoisting the allocation out
/// of the per-candidate loop).
fn ground_args_into(args: &[ArgTerm], b: &Bindings, buf: &mut Vec<Const>) {
    buf.clear();
    buf.extend(args.iter().map(|&a| ground_arg(a, b)));
}

/// Try to match pattern args+result against ground values under the
/// cursor's bindings, then continue with the next plan step; undoes
/// bindings afterwards.
fn match_app_and_continue(
    ctx: &MatchCtx<'_>,
    pattern_args: &[ArgTerm],
    pattern_result: ArgTerm,
    ground_args: &[Const],
    ground_result: Const,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    if pattern_args.len() != ground_args.len() {
        return;
    }
    let mark = cur.b.mark();
    let mut ok = true;
    for (&pat, &val) in pattern_args.iter().zip(ground_args) {
        if !pat.matches(val, cur.b) {
            ok = false;
            break;
        }
    }
    if ok && pattern_result.matches(ground_result, cur.b) {
        exec(ctx, pos + 1, cur);
    }
    cur.b.undo_to(mark);
}

/// Enumerate the applications of `va.method` on the concrete version
/// `vid` and continue matching. Under a seed holding added facts for
/// the version's base, only those are enumerated: the version existed
/// before the delta and only grew, so every new match goes through one
/// of them. `exists` is the version table: `vid.exists -> base(vid)`
/// when `vid` is in it (§3).
fn scan_apps_of(
    ctx: &MatchCtx<'_>,
    vid: Vid,
    va: &VersionAtom,
    seed: Option<&Seed<'_>>,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    cur.candidates += 1;
    if va.method == exists_sym() {
        if ctx.ob.exists_fact(vid) {
            match_app_and_continue(ctx, &va.args, va.result, &[], vid.base(), pos, cur);
        }
        return;
    }
    let mut visit = |app: &MethodApp| {
        match_app_and_continue(ctx, &va.args, va.result, app.args.as_slice(), app.result, pos, cur)
    };
    match seed.and_then(|s| s.delta.added(vid.base())) {
        Some(apps) => apps.iter().for_each(&mut visit),
        None => ctx.ob.apps(vid, va.method).for_each(&mut visit),
    }
}

/// Match `t.base` against `vid`'s base (binding it if it is an unbound
/// variable), then scan `vid`'s applications; undoes bindings.
fn match_base_then_apps(
    ctx: &MatchCtx<'_>,
    t: VidTerm,
    vid: Vid,
    va: &VersionAtom,
    seed: Option<&Seed<'_>>,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    let mark = cur.b.mark();
    if t.base.matches(vid.base(), cur.b) {
        scan_apps_of(ctx, vid, va, seed, pos, cur);
    }
    cur.b.undo_to(mark);
}

/// Scan a version-term: enumerate versions, then their applications of
/// the method. The candidate versions come from (in order of
/// preference) the seed, the value-keyed index when a key position
/// is bound, or the full `(chain, method)` index. An unbound VID
/// variable (`$V`, the §6 extension) scans *every* version carrying
/// the method, regardless of chain.
fn scan_version(
    ctx: &MatchCtx<'_>,
    va: &VersionAtom,
    hint: ScanHint,
    seed: Option<&Seed<'_>>,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    match va.vid.ground(cur.b) {
        Some(vid) => {
            if seed.is_some_and(|s| !s.delta.contains(vid.base())) {
                return;
            }
            scan_apps_of(ctx, vid, va, seed, pos, cur);
        }
        None => match va.vid {
            VidRef::Term(t) => {
                // Seeded: the delta names the candidate objects directly.
                if let Some(s) = seed {
                    for base in s.delta.bases() {
                        let vid = Vid::new(base, t.chain);
                        match_base_then_apps(ctx, t, vid, va, seed, pos, cur);
                    }
                    return;
                }
                // Indexed: a bound key position narrows the enumeration.
                match hint {
                    ScanHint::ResultKey => {
                        if let Some(r) = va.result.ground(cur.b) {
                            for vid in ctx.ob.versions_with_result(t.chain, va.method, r) {
                                match_base_then_apps(ctx, t, vid, va, None, pos, cur);
                            }
                            return;
                        }
                    }
                    ScanHint::Arg0Key => {
                        if let Some(a0) = va.args.first().and_then(|a| a.ground(cur.b)) {
                            for vid in ctx.ob.versions_with_arg0(t.chain, va.method, a0) {
                                match_base_then_apps(ctx, t, vid, va, None, pos, cur);
                            }
                            return;
                        }
                    }
                    ScanHint::Full => {}
                }
                // Full: every version of the chain defining the method.
                for vid in ctx.ob.versions_with(t.chain, va.method) {
                    match_base_then_apps(ctx, t, vid, va, None, pos, cur);
                }
            }
            VidRef::Var(vv) => {
                // The open §6 scan streams straight off the store's
                // sharded version table — no snapshot allocation; the
                // base is immutable for the whole evaluation. It reads
                // any relation, so a seed restricts it by object only.
                for vid in ctx.ob.versions() {
                    if seed.is_some_and(|s| !s.delta.contains(vid.base())) {
                        continue;
                    }
                    let mark = cur.b.mark();
                    if cur.b.unify_vid_var(vv, vid) {
                        scan_apps_of(ctx, vid, va, None, pos, cur);
                    }
                    cur.b.undo_to(mark);
                }
            }
        },
    }
}

/// Candidate target versions for a del/mod body update-term scan:
/// the single ground target, the seed set's objects, or every base
/// having the `created` chain's version with `index_method` defined.
fn target_candidates(
    ob: &ObjectBase,
    target: VidTerm,
    created: Chain,
    index_method: ruvo_term::Symbol,
    seed: Option<&RelationDelta>,
    b: &Bindings,
) -> Vec<Vid> {
    match target.ground(b) {
        Some(vid) => {
            if seed.is_some_and(|s| !s.contains(vid.base())) {
                Vec::new()
            } else {
                vec![vid]
            }
        }
        None => match seed {
            // Seeded: candidate targets are the delta's objects; the
            // exists/`v*` checks below weed out the irrelevant ones.
            Some(s) => s.bases().map(|base| Vid::new(base, target.chain)).collect(),
            None => ob
                .versions_with(created, index_method)
                .map(|v| Vid::new(v.base(), target.chain))
                .collect(),
        },
    }
}

/// Scan `del[V].m@args -> R` in a body: §3 requires
/// `v*.m -> r ∈ I ∧ del(v).exists -> o ∈ I ∧ del(v).m -> r ∉ I`.
fn scan_del(
    ctx: &MatchCtx<'_>,
    ua: &UpdateAtom,
    seed: Option<&RelationDelta>,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    let UpdateSpec::Del { method, args, result } = ua.spec() else {
        unreachable!("scan_del on a non-del spec");
    };
    let (method, result, target, chain) = (*method, *result, ua.target(), ua.created_term().chain);
    let ob = ctx.ob;
    // Candidates must have del(v).exists: enumerate the del-chain's
    // versions through the `(chain, exists)` presence index.
    for tvid in target_candidates(ob, target, chain, exists_sym(), seed, cur.b) {
        cur.candidates += 1;
        let created = Vid::new(tvid.base(), chain);
        if !ob.exists_fact(created) {
            continue;
        }
        let Some(v_star) = ob.v_star(tvid) else { continue };
        let mark = cur.b.mark();
        if target.base.matches(tvid.base(), cur.b) {
            for app in ob.apps(v_star, method) {
                if ob.contains(created, method, app.args.as_slice(), app.result) {
                    continue; // still present: not deleted
                }
                match_app_and_continue(
                    ctx,
                    args,
                    result,
                    app.args.as_slice(),
                    app.result,
                    pos,
                    cur,
                );
            }
        }
        cur.b.undo_to(mark);
    }
}

/// Scan `mod[V].m@args -> (R, R2)` in a body, per the two §3 clauses
/// (changed and unchanged result; ARCHITECTURE.md, decision D5).
fn scan_mod(
    ctx: &MatchCtx<'_>,
    ua: &UpdateAtom,
    seed: Option<&RelationDelta>,
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    let UpdateSpec::Mod { method, args, from, to } = ua.spec() else {
        unreachable!("scan_mod on a non-mod spec");
    };
    let (method, pair) = (*method, PairPattern { args, from: *from, to: *to });
    let (target, chain, ob) = (ua.target(), ua.created_term().chain, ctx.ob);
    // Both clauses require mod(v).m defined; use it as candidate index.
    for tvid in target_candidates(ob, target, chain, method, seed, cur.b) {
        cur.candidates += 1;
        let created = Vid::new(tvid.base(), chain);
        let Some(v_star) = ob.v_star(tvid) else { continue };
        let mark = cur.b.mark();
        if target.base.matches(tvid.base(), cur.b) {
            for from_app in ob.apps(v_star, method) {
                let in_created =
                    ob.contains(created, method, from_app.args.as_slice(), from_app.result);
                // Clause r = r': v*.m -> r ∈ I and mod(v).m -> r ∈ I.
                if in_created {
                    match_pair_and_continue(
                        ctx,
                        &pair,
                        from_app.args.as_slice(),
                        (from_app.result, from_app.result),
                        pos,
                        cur,
                    );
                    continue;
                }
                // Clause r ≠ r': v*.m -> r ∈ I, mod(v).m -> r ∉ I,
                // mod(v).m -> r' ∈ I (same arguments).
                for to_app in ob.apps(created, method) {
                    if to_app.args != from_app.args || to_app.result == from_app.result {
                        continue;
                    }
                    match_pair_and_continue(
                        ctx,
                        &pair,
                        from_app.args.as_slice(),
                        (from_app.result, to_app.result),
                        pos,
                        cur,
                    );
                }
            }
        }
        cur.b.undo_to(mark);
    }
}

/// The pattern side of a body `mod` literal: `@args -> (from, to)`.
struct PairPattern<'a> {
    args: &'a [ArgTerm],
    from: ArgTerm,
    to: ArgTerm,
}

/// Match a [`PairPattern`] against ground args and a ground
/// `(from, to)` result pair, then continue; undoes bindings.
fn match_pair_and_continue(
    ctx: &MatchCtx<'_>,
    pattern: &PairPattern<'_>,
    ground_args: &[Const],
    ground_pair: (Const, Const),
    pos: usize,
    cur: &mut Cursor<'_>,
) {
    if pattern.args.len() != ground_args.len() {
        return;
    }
    let mark = cur.b.mark();
    let mut ok = true;
    for (&pat, &val) in pattern.args.iter().zip(ground_args) {
        if !pat.matches(val, cur.b) {
            ok = false;
            break;
        }
    }
    if ok && pattern.from.matches(ground_pair.0, cur.b) && pattern.to.matches(ground_pair.1, cur.b)
    {
        exec(ctx, pos + 1, cur);
    }
    cur.b.undo_to(mark);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IndexPlan;
    use ruvo_lang::Program;
    use ruvo_obase::{Args, ChangedSince};
    use ruvo_term::{int, oid, sym, Chain, FastHashSet, UpdateKind, VarId};

    fn matches_with(
        ob: &ObjectBase,
        rule_src: &str,
        plan_of: impl Fn(&Program) -> RuleIndexPlan,
    ) -> Vec<Vec<Option<Const>>> {
        let program = Program::parse(rule_src).unwrap();
        let mut out = Vec::new();
        for_each_match(ob, &program.rules[0], &plan_of(&program), None, &mut |b| {
            out.push(b.snapshot())
        });
        out.sort();
        out
    }

    fn matches(ob: &ObjectBase, rule_src: &str) -> Vec<Vec<Option<Const>>> {
        matches_with(ob, rule_src, |p| IndexPlan::of(p).rules.remove(0))
    }

    /// The same rule with every scan forced to the unindexed
    /// [`ScanHint::Full`] enumeration.
    fn matches_unindexed(ob: &ObjectBase, rule_src: &str) -> Vec<Vec<Option<Const>>> {
        matches_with(ob, rule_src, |p| {
            let mut plan = IndexPlan::of(p).rules.remove(0);
            plan.hints.fill(ScanHint::Full);
            plan
        })
    }

    /// The same rule with the start always plan step 0.
    fn matches_in_plan_order(ob: &ObjectBase, rule_src: &str) -> Vec<Vec<Option<Const>>> {
        matches_with(ob, rule_src, |p| {
            let mut plan = IndexPlan::of(p).rules.remove(0);
            plan.starts.clear();
            plan
        })
    }

    /// The plan step an unseeded evaluation of `rule_src` starts from,
    /// and the candidate versions it enumerates.
    fn start_and_candidates(ob: &ObjectBase, rule_src: &str) -> (usize, usize) {
        let program = Program::parse(rule_src).unwrap();
        let plan = IndexPlan::of(&program).rules.remove(0);
        let start = smallest_start(ob, &plan.starts).map_or(0, |c| c.step);
        (start, for_each_match(ob, &program.rules[0], &plan, None, &mut |_| {}))
    }

    /// `n` live accounts `acct0..`, each with its own `tag -> tI`, the
    /// first three also `kind -> gold`, and `acct0` and `acct1`
    /// `owner@acct0 -> yes`.
    fn accounts(n: usize) -> ObjectBase {
        let mut ob = ObjectBase::new();
        for i in 0..n {
            let v = Vid::object(oid(&format!("acct{i}")));
            ob.insert(v, sym("kind"), Args::empty(), oid("live"));
            ob.insert(v, sym("tag"), Args::empty(), oid(&format!("t{i}")));
            if i < 3 {
                ob.insert(v, sym("tier"), Args::empty(), oid("gold"));
            }
            if i < 2 {
                ob.insert(v, sym("owner"), Args::new(vec![oid("acct0")]), oid("yes"));
            }
        }
        ob
    }

    /// An object-granular seed: changed bases, no recorded facts.
    fn object_seed(step: usize, bases: &FastHashSet<Const>) -> Seed<'_> {
        Seed { step, delta: Cow::Owned(bases.iter().copied().collect()) }
    }

    fn base() -> ObjectBase {
        ObjectBase::parse(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
        )
        .unwrap()
    }

    #[test]
    fn simple_scan_binds_all_employees() {
        let ob = base();
        let m = matches(&ob, "ins[E].seen -> yes <= E.isa -> empl.");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn join_through_bound_base() {
        let ob = base();
        // bob's boss phil earns less than bob.
        let m =
            matches(&ob, "ins[E].flag -> 1 <= E.boss -> B & B.sal -> SB & E.sal -> SE & SE > SB.");
        assert_eq!(m.len(), 1);
        // E = bob.
        let e_val = m[0][0];
        assert_eq!(e_val, Some(oid("bob")));
    }

    #[test]
    fn negation_filters() {
        let ob = base();
        let m = matches(&ob, "ins[E].nm -> 1 <= E.isa -> empl & not E.pos -> mgr.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("bob")));
    }

    #[test]
    fn assignment_computes() {
        let ob = base();
        let m = matches(&ob, "mod[E].sal -> (S, S2) <= E.sal -> S & S2 = S * 2.");
        assert_eq!(m.len(), 2);
        // Each match binds S2 = 2*S.
        for snapshot in &m {
            let s = snapshot[1].unwrap().as_f64().unwrap();
            let s2 = snapshot[2].unwrap().as_f64().unwrap();
            assert_eq!(s2, 2.0 * s);
        }
    }

    #[test]
    fn arity_mismatch_never_matches() {
        let mut ob = ObjectBase::new();
        ob.insert(Vid::object(oid("g")), sym("edge"), Args::new(vec![oid("a")]), int(1));
        let m = matches(&ob, "ins[X].d -> 1 <= X.edge @ A, B -> W.");
        assert!(m.is_empty());
        let m = matches(&ob, "ins[X].d -> W <= X.edge @ A -> W.");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn repeated_variable_must_agree() {
        let mut ob = ObjectBase::new();
        ob.insert(Vid::object(oid("a")), sym("p"), Args::empty(), oid("a"));
        ob.insert(Vid::object(oid("b")), sym("p"), Args::empty(), oid("c"));
        // X.p -> X: only a.p -> a matches.
        let m = matches(&ob, "ins[X].fix -> 1 <= X.p -> X.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("a")));
    }

    #[test]
    fn scan_ins_update_term_in_body() {
        let mut ob = base();
        let ins_bob = Vid::object(oid("bob")).apply(UpdateKind::Ins).unwrap();
        ob.insert(ins_bob, sym("exists"), Args::empty(), oid("bob"));
        ob.insert(ins_bob, sym("isa"), Args::empty(), oid("hpe"));
        let m = matches(&ob, "ins[x].found -> E <= ins[E].isa -> hpe.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("bob")));
    }

    #[test]
    fn scan_del_update_term_in_body() {
        let mut ob = base();
        // Simulate del(bob) having deleted isa -> empl (exists kept).
        let del_bob = Vid::object(oid("bob")).apply(UpdateKind::Del).unwrap();
        ob.insert(del_bob, sym("exists"), Args::empty(), oid("bob"));
        ob.insert(del_bob, sym("sal"), Args::empty(), int(4200));
        let m = matches(&ob, "ins[x].fired -> E <= del[E].isa -> W.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("bob")));
        assert_eq!(m[0][1], Some(oid("empl"))); // W = empl, the deleted value
                                                // sal survived, so del[bob].sal -> 4200 is not true.
        let m2 = matches(&ob, "ins[x].fired -> E <= del[E].sal -> S.");
        assert!(m2.is_empty());
    }

    #[test]
    fn scan_mod_update_term_in_body() {
        let mut ob = base();
        let mod_phil = Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap();
        ob.insert(mod_phil, sym("exists"), Args::empty(), oid("phil"));
        ob.insert(mod_phil, sym("sal"), Args::empty(), int(4600));
        ob.insert(mod_phil, sym("isa"), Args::empty(), oid("empl"));
        ob.insert(mod_phil, sym("pos"), Args::empty(), oid("mgr"));
        let m = matches(&ob, "ins[x].raised -> E <= mod[E].sal -> (S, S2).");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("phil")));
        assert_eq!(m[0][1], Some(int(4000)));
        assert_eq!(m[0][2], Some(int(4600)));
        // Unchanged-value clause: isa was copied over (same result), and
        // the paper's r = r' case requires mod(v).m -> r ∈ I — true here.
        let m2 = matches(&ob, "ins[x].kept -> E <= mod[E].isa -> (R, R).");
        assert_eq!(m2.len(), 1);
        assert_eq!(m2[0][1], Some(oid("empl")));
    }

    #[test]
    fn builtin_on_symbols_uses_total_order() {
        let ob = base();
        // Equality on symbols works; ordering is total but unspecified.
        let m = matches(&ob, "ins[E].m -> 1 <= E.pos -> P & P = mgr.");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn undefined_arithmetic_fails_soft() {
        let ob = base();
        // mgr * 2 is undefined: no matches, no panic.
        let m = matches(&ob, "ins[E].m -> X <= E.pos -> P & X = P * 2.");
        assert!(m.is_empty());
        // Negated undefined comparison is TRUE per the paper's negation
        // (the atom is not true).
        let m2 = matches(&ob, "ins[E].m -> 1 <= E.pos -> P & not P + 1 > 0.");
        assert_eq!(m2.len(), 1);
    }

    #[test]
    fn ground_rule_body_checks() {
        let ob = base();
        let m = matches(&ob, "ins[phil].ok -> 1 <= phil.sal -> 4000.");
        assert_eq!(m.len(), 1);
        let m2 = matches(&ob, "ins[phil].ok -> 1 <= phil.sal -> 9999.");
        assert!(m2.is_empty());
    }

    #[test]
    fn result_variable_projection() {
        let ob = base();
        let program = Program::parse("ins[E].copy -> S <= E.sal -> S.").unwrap();
        let plan = IndexPlan::of(&program);
        let mut seen = Vec::new();
        for_each_match(&ob, &program.rules[0], &plan.rules[0], None, &mut |b| {
            seen.push((b.get(VarId(0)).unwrap(), b.get(VarId(1)).unwrap()));
        });
        seen.sort();
        assert_eq!(
            seen,
            vec![(oid("phil"), int(4000)), (oid("bob"), int(4200))]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn keyed_scans_agree_with_full_scans() {
        let ob = base();
        for src in [
            "ins[E].seen -> yes <= E.isa -> empl.",
            "ins[E].flag -> 1 <= E.boss -> B & B.sal -> SB & E.sal -> SE & SE > SB.",
            "ins[E].nm -> 1 <= E.isa -> empl & not E.pos -> mgr.",
            "ins[E].m -> 1 <= E.pos -> P & P = mgr.",
            "ins[E].boss_of -> B <= B.boss -> E.",
            "ins[phil].ok -> 1 <= phil.sal -> 4000.",
        ] {
            assert_eq!(matches(&ob, src), matches_unindexed(&ob, src), "program: {src}");
        }
        // Two constant keys, written in both orders: the start chosen
        // by counts changes no match.
        let ob = accounts(8);
        for src in [
            "mod[A].kind -> (K, dead) <= A.kind -> live & A.tag -> t5 & A.kind -> K.",
            "mod[A].kind -> (K, dead) <= A.tag -> t5 & A.kind -> live & A.kind -> K.",
            "ins[A].vip -> 1 <= A.kind -> live & A.tier -> gold.",
            "ins[A].vip -> 1 <= A.tier -> gold & A.kind -> live.",
            "ins[A].mine -> W <= A.kind -> live & A.owner @ acct0 -> W.",
            "ins[A].mine -> W <= A.owner @ acct0 -> W & A.kind -> live.",
            "ins[A].pair -> B <= A.kind -> live & B.tag -> t2 & A.tier -> gold.",
            "ins[A].none -> 1 <= A.kind -> live & A.tag -> t99.",
        ] {
            let indexed = matches(&ob, src);
            assert_eq!(indexed, matches_in_plan_order(&ob, src), "program: {src}");
            assert_eq!(indexed, matches_unindexed(&ob, src), "program: {src}");
        }
    }

    #[test]
    fn unseeded_join_starts_at_the_smallest_constant_key() {
        let ob = accounts(8);
        // `tag -> t5` names one account of eight live ones: it starts,
        // and each literal then reads one version.
        let credit = "mod[A].kind -> (K, dead) <= A.kind -> live & A.tag -> t5 & A.kind -> K.";
        assert_eq!(start_and_candidates(&ob, credit), (1, 3));
        // In plan order it reads every live account, then each one's tag.
        let program = Program::parse(credit).unwrap();
        let mut plan = IndexPlan::of(&program).rules.remove(0);
        plan.starts.clear();
        assert_eq!(for_each_match(&ob, &program.rules[0], &plan, None, &mut |_| {}), 8 + 8 + 1);
        // Written the other way round, the plan already starts there.
        let credit = "mod[A].kind -> (K, dead) <= A.tag -> t5 & A.kind -> live & A.kind -> K.";
        assert_eq!(start_and_candidates(&ob, credit), (0, 3));
        // A first-argument key competes the same way (2 owners vs 8).
        let owned = "ins[A].mine -> W <= A.kind -> live & A.owner @ acct0 -> W.";
        assert_eq!(start_and_candidates(&ob, owned), (1, 4));
        // An absent key counts 0 and starts: nothing is enumerated.
        let absent = "ins[A].none -> 1 <= A.kind -> live & A.tag -> t99.";
        assert_eq!(start_and_candidates(&ob, absent), (1, 0));
    }

    #[test]
    fn equal_key_counts_keep_plan_order() {
        let ob = accounts(8);
        // tag -> t1 and tag -> t2 both count 1: no rotation.
        let tied = "ins[A].x -> B <= A.tag -> t1 & B.tag -> t2.";
        assert_eq!(start_and_candidates(&ob, tied).0, 0);
        // Steps 1 and 2 tie below step 0: the earlier one starts.
        let two = "ins[A].x -> B <= A.kind -> live & A.tag -> t1 & B.tag -> t2.";
        let program = Program::parse(two).unwrap();
        let plan = IndexPlan::of(&program).rules.remove(0);
        assert_eq!(plan.starts.iter().map(|c| c.step).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(smallest_start(&ob, &plan.starts).map(|c| c.step), Some(1));
    }

    #[test]
    fn assign_first_and_ground_base_rules_are_never_rotated() {
        let ob = accounts(8);
        for src in [
            // The assignment binds X first; the kind scan is then a
            // direct lookup however many accounts are live.
            "ins[X].ok -> 1 <= X = acct4 & X.kind -> live & Y.tag -> t4.",
            // A ground base is a direct lookup already.
            "ins[x].ok -> A <= acct3.kind -> live & A.tag -> t3 & A.kind -> live.",
            // One constant key: nothing to choose between.
            "ins[A].ok -> 1 <= A.kind -> live & A.tag -> T.",
        ] {
            let program = Program::parse(src).unwrap();
            let plan = IndexPlan::of(&program).rules.remove(0);
            assert!(plan.starts.is_empty(), "{src}: {:?}", plan.starts);
            assert_eq!(start_and_candidates(&ob, src).0, 0, "{src}");
            assert_eq!(matches(&ob, src), matches_unindexed(&ob, src), "{src}");
        }
    }

    #[test]
    fn result_key_scan_narrows_enumeration() {
        // E.pos -> mgr with ResultKey only visits phil.
        let ob = base();
        let m = matches(&ob, "ins[E].m -> 1 <= E.pos -> mgr.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("phil")));
        // A key with no entries matches nothing (and does not panic).
        let m = matches(&ob, "ins[E].m -> 1 <= E.pos -> ceo.");
        assert!(m.is_empty());
    }

    #[test]
    fn arg0_key_scan_narrows_enumeration() {
        let mut ob = ObjectBase::new();
        ob.insert(Vid::object(oid("g")), sym("edge"), Args::new(vec![oid("a")]), int(1));
        ob.insert(Vid::object(oid("h")), sym("edge"), Args::new(vec![oid("b")]), int(2));
        let m = matches(&ob, "ins[X].d -> W <= X.edge @ a -> W.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0][0], Some(oid("g")));
    }

    #[test]
    fn seeded_scan_restricts_and_rotates() {
        let ob = base();
        let program =
            Program::parse("ins[E].flag -> 1 <= E.isa -> empl & E.sal -> S & S > 4100.").unwrap();
        let plan = IndexPlan::of(&program);
        let all_steps = program.rules[0].plan().steps.len();
        // Seed = {bob}: only bob's matches are produced, whichever scan
        // step is seeded.
        let mut seed = FastHashSet::default();
        seed.insert(oid("bob"));
        for step in 0..all_steps {
            if !matches!(program.rules[0].plan().steps[step], PlannedLiteral::Scan(_)) {
                continue;
            }
            let mut out = Vec::new();
            let seed = object_seed(step, &seed);
            for_each_match(&ob, &program.rules[0], &plan.rules[0], Some(&seed), &mut |b| {
                out.push(b.snapshot())
            });
            assert_eq!(out.len(), 1, "seed step {step}");
            assert_eq!(out[0][0], Some(oid("bob")), "seed step {step}");
        }
        // Seed = {phil}: phil fails the S > 4100 check — no matches.
        let mut seed = FastHashSet::default();
        seed.insert(oid("phil"));
        let mut out = Vec::new();
        let seed = object_seed(0, &seed);
        for_each_match(&ob, &program.rules[0], &plan.rules[0], Some(&seed), &mut |b| {
            out.push(b.snapshot())
        });
        assert!(out.is_empty());
    }

    #[test]
    fn fact_granular_seed_enumerates_only_added_applications() {
        // bob has three `likes`; the delta says one was added to him and
        // that phil changed without facts (a new or shrunken version).
        let mut ob = base();
        for (who, what) in [("bob", "tea"), ("bob", "jazz"), ("bob", "chess"), ("phil", "golf")] {
            ob.insert(Vid::object(oid(who)), sym("likes"), Args::empty(), oid(what));
        }
        let program = Program::parse("ins[E].fan -> L <= E.likes -> L.").unwrap();
        let plan = IndexPlan::of(&program);
        // bob only grew, by `jazz`; phil changed whole.
        let likes = (Chain::EMPTY, sym("likes"));
        let mut delta = ChangedSince::new();
        delta.record_added(
            likes.0,
            likes.1,
            oid("bob"),
            MethodApp::new(Args::empty(), oid("jazz")),
        );
        let run_seeded = |bases: &[Const]| {
            let mut delta = delta.clone();
            for &base in bases.iter().filter(|&&b| b != oid("bob")) {
                delta.record(likes.0, likes.1, base);
            }
            let seed = Seed { step: 0, delta: Cow::Borrowed(delta.relation(&likes).unwrap()) };
            let mut out = Vec::new();
            for_each_match(&ob, &program.rules[0], &plan.rules[0], Some(&seed), &mut |b| {
                out.push((b.get(VarId(0)).unwrap(), b.get(VarId(1)).unwrap()))
            });
            out.sort();
            out
        };
        // Exactly the one added application of bob...
        assert_eq!(run_seeded(&[oid("bob")]), vec![(oid("bob"), oid("jazz"))]);
        // ...while phil, recorded without facts, is enumerated whole.
        let mut expect = vec![(oid("bob"), oid("jazz")), (oid("phil"), oid("golf"))];
        expect.sort();
        assert_eq!(run_seeded(&[oid("bob"), oid("phil")]), expect);
        // The same through a ground target.
        let program = Program::parse("ins[bob].fan -> L <= bob.likes -> L.").unwrap();
        let plan = IndexPlan::of(&program);
        let seed = Seed { step: 0, delta: Cow::Borrowed(delta.relation(&likes).unwrap()) };
        let mut out = Vec::new();
        for_each_match(&ob, &program.rules[0], &plan.rules[0], Some(&seed), &mut |b| {
            out.push(b.get(VarId(0)).unwrap())
        });
        assert_eq!(out, vec![oid("jazz")]);
    }

    #[test]
    fn seeded_del_scan_restricts_targets() {
        let mut ob = base();
        let del_bob = Vid::object(oid("bob")).apply(UpdateKind::Del).unwrap();
        ob.insert(del_bob, sym("exists"), Args::empty(), oid("bob"));
        ob.insert(del_bob, sym("sal"), Args::empty(), int(4200));
        let program = Program::parse("ins[x].fired -> E <= del[E].isa -> W.").unwrap();
        let plan = IndexPlan::of(&program);
        let run_seeded = |bases: &[Const]| {
            let seed: FastHashSet<Const> = bases.iter().copied().collect();
            let seed = object_seed(0, &seed);
            let mut out = Vec::new();
            for_each_match(&ob, &program.rules[0], &plan.rules[0], Some(&seed), &mut |b| {
                out.push(b.snapshot())
            });
            out
        };
        assert_eq!(run_seeded(&[oid("bob")]).len(), 1);
        assert!(run_seeded(&[oid("phil")]).is_empty());
    }
}
