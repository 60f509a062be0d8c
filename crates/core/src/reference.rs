//! An executable specification of §3–§5: the slowest possible correct
//! interpreter, used as the oracle for differential testing.
//!
//! The optimized engine ([`crate::engine`]) earns its speed from
//! machinery the paper never mentions — relational indexes, join
//! planning, rule-level delta filtering, per-round delta application,
//! incremental linearity tracking. Every one of those is a place for a
//! semantics bug to hide (one did: see ARCHITECTURE.md, decision D7).
//! This module re-derives the result *without any of it*, transcribing
//! the paper text as directly as Rust allows:
//!
//! * **Grounding is naive**: a rule's non-assigned variables range over
//!   the active domain (every OID occurring in the current object base
//!   or the program), exactly the finite sub-domain of `O` that can
//!   satisfy a safe rule. No indexes, no join order beyond pruning of
//!   already-ground literals.
//! * **`T¹` is recomputed from scratch every round** over all rules of
//!   the stratum — no deltas, no accumulation.
//! * **Step 3 is the paper's set algebra**, computed per relevant VID
//!   from the full `T¹`.
//! * **The fixpoint test is whole-object-base equality** (`I' == I`),
//!   the most literal reading of "iterating the operator `T_P`".
//! * **Stability is checked on every stratum**: a ground update fired
//!   in one round must fire again in every later round of its stratum,
//!   or the run fails with [`EvalError::Unstable`]. For a statically
//!   stratified program this is §4's theorem, so every differential
//!   test asserts it; on the strata of
//!   [`crate::stratify::stratify_relaxed`] it is the check
//!   [`crate::CyclePolicy::RuntimeStability`] makes the engine run.
//! * **Version-linearity is checked quadratically** over all version
//!   pairs after every application, independent of the engine's
//!   incremental [`ruvo_obase::LinearityTracker`].
//!
//! The only analyses shared with the engine are the §4 stratification
//! (a static program property with its own test catalog) and the
//! arithmetic of [`Expr::eval`] (leaf evaluation). The §3 truth
//! relation, `exists`, `v*`, `T_P`, the fixpoint loop, linearity and
//! the §5 extraction are all re-implemented here from the paper text;
//! the store is only asked for its stored facts and its version list.
//!
//! Complexity is `O(|D|^vars)` per rule per round — strictly a testing
//! and documentation artifact. Keep inputs small.

use std::fmt;

use ruvo_lang::{Atom, Expr, Program, Rule, UpdateSpec};
use ruvo_obase::{exists_sym, Args, MethodApp, ObjectBase, VersionState};
use ruvo_term::{
    ArgTerm, Bindings, Const, FastHashMap, FastHashSet, Symbol, UpdateKind, VarId, Vid,
};

use crate::error::EvalError;
use crate::stratify::{stratify, Stratification};

/// Round budget per stratum; safe stratified programs terminate long
/// before this, so hitting it indicates an interpreter bug.
pub const DEFAULT_MAX_ROUNDS: usize = 100_000;

/// The result of a successful reference evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct RefOutcome {
    /// `result(P)` — every version created during evaluation.
    pub result: ObjectBase,
}

impl RefOutcome {
    /// §5 extraction, re-implemented: for each object the state of its
    /// final version is copied; objects whose final state is empty
    /// (only `exists` defined) disappear. Errors if some object's
    /// versions are not linearly ordered (only reachable if evaluation
    /// skipped the per-round check, which [`evaluate`] never does).
    pub fn new_object_base(&self) -> Result<ObjectBase, ruvo_obase::LinearityViolation> {
        let mut out = ObjectBase::new();
        for base in self.result.objects() {
            // The final version: deepest VID; every other VID of the
            // object must be one of its subterms.
            let mut final_vid = Vid::object(base);
            for v in self.result.versions_of(base) {
                if final_vid.is_subterm_of(v) {
                    final_vid = v;
                }
            }
            for v in self.result.versions_of(base) {
                if !v.is_subterm_of(final_vid) {
                    return Err(ruvo_obase::LinearityViolation {
                        object: base,
                        existing: final_vid,
                        conflicting: v,
                    });
                }
            }
            if let Some(state) = self.result.version(final_vid) {
                for (method, app) in state.iter() {
                    out.insert(Vid::object(base), method, app.args.clone(), app.result);
                }
            }
        }
        Ok(out)
    }
}

/// Evaluate `program` on `ob` under its §4 stratification, with the
/// default round budget.
pub fn evaluate(program: &Program, ob: &ObjectBase) -> Result<RefOutcome, EvalError> {
    evaluate_bounded(program, &stratify(program)?, ob, DEFAULT_MAX_ROUNDS)
}

/// Evaluate `program` on `ob` stratum by stratum in the order
/// `stratification` gives, allowing at most `max_rounds` rounds per
/// stratum and checking stability on every stratum. The strata of
/// [`crate::stratify::stratify_relaxed`] run a program only
/// [`crate::CyclePolicy::RuntimeStability`] accepts.
pub fn evaluate_bounded(
    program: &Program,
    stratification: &Stratification,
    ob: &ObjectBase,
    max_rounds: usize,
) -> Result<RefOutcome, EvalError> {
    let mut interp = ob.clone();

    for (si, stratum) in stratification.strata.iter().enumerate() {
        let mut round = 0usize;
        // The previous round's T¹; by induction it holds every update
        // fired so far in this stratum.
        let mut fired: Vec<RefUpdate> = Vec::new();
        loop {
            round += 1;
            if round > max_rounds {
                return Err(EvalError::RoundLimit { stratum: si, limit: max_rounds });
            }
            // T¹, from scratch, over all rules of the stratum.
            let domain = active_domain(&interp, program);
            let mut t1: Vec<RefUpdate> = Vec::new();
            for &r in stratum {
                collect_fired(&interp, &program.rules[r], &domain, &mut t1);
            }
            t1.sort();
            t1.dedup();
            if let Some(lost) = fired.iter().find(|u| t1.binary_search(u).is_err()) {
                return Err(EvalError::Unstable { stratum: si, round, update: lost.to_string() });
            }
            // Steps 2 + 3: a fresh object base with the states of every
            // relevant VID recomputed from the full T¹.
            let next = apply_tp(&interp, &t1);
            check_all_linear(&next)?;
            if next == interp {
                break;
            }
            interp = next;
            fired = t1;
        }
    }
    Ok(RefOutcome { result: interp })
}

/// A fired ground update-term — the reference's own `T¹` element type,
/// deliberately not shared with [`crate::tp::Fired`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum RefUpdate {
    Ins { target: Vid, method: Symbol, args: Vec<Const>, result: Const },
    Del { target: Vid, method: Symbol, args: Vec<Const>, result: Const },
    Mod { target: Vid, method: Symbol, args: Vec<Const>, from: Const, to: Const },
}

impl RefUpdate {
    fn kind(&self) -> UpdateKind {
        match self {
            RefUpdate::Ins { .. } => UpdateKind::Ins,
            RefUpdate::Del { .. } => UpdateKind::Del,
            RefUpdate::Mod { .. } => UpdateKind::Mod,
        }
    }

    fn target(&self) -> Vid {
        match self {
            RefUpdate::Ins { target, .. }
            | RefUpdate::Del { target, .. }
            | RefUpdate::Mod { target, .. } => *target,
        }
    }

    /// A fired head's target has the head target's chain, and the front
    /// end's rule-level pass refuses a head whose created version
    /// overflows a chain.
    fn created(&self) -> Vid {
        self.target().apply(self.kind()).expect("the front end refuses an over-deep head")
    }
}

/// The update-term syntax, as [`crate::tp::Fired`] prints it.
impl fmt::Display for RefUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (RefUpdate::Ins { method, args, .. }
        | RefUpdate::Del { method, args, .. }
        | RefUpdate::Mod { method, args, .. }) = self;
        write!(f, "{}[{}].{method}", self.kind(), self.target())?;
        if !args.is_empty() {
            write!(f, " @ {}", Args::new(args.clone()))?;
        }
        match self {
            RefUpdate::Ins { result, .. } | RefUpdate::Del { result, .. } => {
                write!(f, " -> {result}")
            }
            RefUpdate::Mod { from, to, .. } => write!(f, " -> ({from}, {to})"),
        }
    }
}

/// The active domain: every OID occurring in the object base (version
/// bases, method arguments, results) or anywhere in the program. For
/// safe rules this finite set contains every value a non-assigned
/// variable can take in a true ground instance.
fn active_domain(ob: &ObjectBase, program: &Program) -> Vec<Const> {
    let mut set: FastHashSet<Const> = FastHashSet::default();
    for fact in ob.iter() {
        set.insert(fact.vid.base());
        set.extend(fact.args.iter().copied());
        set.insert(fact.result);
    }
    for rule in &program.rules {
        push_arg(rule.head.target.base, &mut set);
        push_spec(&rule.head.spec, &mut set);
        for lit in &rule.body {
            match &lit.atom {
                Atom::Version(va) => {
                    if let Some(t) = va.vid.as_term() {
                        push_arg(t.base, &mut set);
                    }
                    for &a in &va.args {
                        push_arg(a, &mut set);
                    }
                    push_arg(va.result, &mut set);
                }
                Atom::Update(ua) => {
                    push_arg(ua.target.base, &mut set);
                    push_spec(&ua.spec, &mut set);
                }
                Atom::Cmp(b) => {
                    push_expr_consts(&b.lhs, &mut set);
                    push_expr_consts(&b.rhs, &mut set);
                }
            }
        }
    }
    let mut out: Vec<Const> = set.into_iter().collect();
    out.sort();
    out
}

fn push_arg(t: ArgTerm, set: &mut FastHashSet<Const>) {
    if let ArgTerm::Const(c) = t {
        set.insert(c);
    }
}

fn push_expr_consts(e: &Expr, set: &mut FastHashSet<Const>) {
    match e {
        Expr::Const(c) => {
            set.insert(*c);
        }
        Expr::Var(_) => {}
        Expr::Neg(i) => push_expr_consts(i, set),
        Expr::Binary(l, _, r) => {
            push_expr_consts(l, set);
            push_expr_consts(r, set);
        }
    }
}

fn push_spec(spec: &UpdateSpec, set: &mut FastHashSet<Const>) {
    match spec {
        UpdateSpec::Ins { args, result, .. } | UpdateSpec::Del { args, result, .. } => {
            for &a in args {
                push_arg(a, set);
            }
            push_arg(*result, set);
        }
        UpdateSpec::Mod { args, from, to, .. } => {
            for &a in args {
                push_arg(a, set);
            }
            push_arg(*from, set);
            push_arg(*to, set);
        }
        UpdateSpec::DelAll => {}
    }
}

/// §3's `exists` by definition: `v.exists -> base(v) ∈ I` iff `v` is
/// one of `I`'s versions. A scan of [`ObjectBase::versions`], not the
/// store's own `exists` reads, which the differential tests check
/// against this.
pub fn exists(ob: &ObjectBase, v: Vid) -> bool {
    ob.versions().any(|w| w == v)
}

/// §3's `v*`: the largest subterm of `v` whose version exists in `I`.
pub fn v_star(ob: &ObjectBase, v: Vid) -> Option<Vid> {
    let mut best = None;
    for chain in v.chain().prefixes() {
        let candidate = Vid::new(v.base(), chain);
        if exists(ob, candidate) {
            best = Some(candidate);
        }
    }
    best
}

/// Case 1 membership `v.m@args -> r ∈ I`, `exists` by its definition.
fn holds(ob: &ObjectBase, vid: Vid, method: Symbol, args: &[Const], result: Const) -> bool {
    if method == exists_sym() {
        return args.is_empty() && result == vid.base() && exists(ob, vid);
    }
    ob.contains(vid, method, args, result)
}

fn ground_arg(t: ArgTerm, b: &Bindings) -> Option<Const> {
    t.ground(b)
}

fn ground_args(args: &[ArgTerm], b: &Bindings) -> Option<Vec<Const>> {
    args.iter().map(|&a| ground_arg(a, b)).collect()
}

/// Truth of one fully ground body literal's atom (§3, cases 1 and 3).
fn ground_atom_true(ob: &ObjectBase, atom: &Atom, b: &Bindings) -> Option<bool> {
    match atom {
        // Case 1: a version-term is true iff it is in I.
        Atom::Version(va) => {
            let vid = va.vid.ground(b)?;
            let args = ground_args(&va.args, b)?;
            let result = ground_arg(va.result, b)?;
            Some(holds(ob, vid, va.method, &args, result))
        }
        // Case 3: update-terms in rule bodies.
        Atom::Update(ua) => {
            let target = ua.target.ground(b)?;
            match &ua.spec {
                // ins[v].m -> r  iff  ins(v).m -> r ∈ I.
                UpdateSpec::Ins { method, args, result } => {
                    let args = ground_args(args, b)?;
                    let result = ground_arg(*result, b)?;
                    Some(match target.apply(UpdateKind::Ins) {
                        Ok(created) => ob.contains(created, *method, &args, result),
                        Err(_) => false,
                    })
                }
                // del[v].m -> r  iff  v*.m -> r ∈ I and
                // del(v).exists -> o ∈ I and del(v).m -> r ∉ I.
                UpdateSpec::Del { method, args, result } => {
                    let args = ground_args(args, b)?;
                    let result = ground_arg(*result, b)?;
                    let Ok(created) = target.apply(UpdateKind::Del) else {
                        return Some(false);
                    };
                    let in_v_star = match v_star(ob, target) {
                        Some(vs) => ob.contains(vs, *method, &args, result),
                        None => false,
                    };
                    Some(
                        in_v_star
                            && exists(ob, created)
                            && !ob.contains(created, *method, &args, result),
                    )
                }
                // mod[v].m -> (r, r'): two clauses depending on r = r'.
                UpdateSpec::Mod { method, args, from, to } => {
                    let args = ground_args(args, b)?;
                    let from = ground_arg(*from, b)?;
                    let to = ground_arg(*to, b)?;
                    let Ok(created) = target.apply(UpdateKind::Mod) else {
                        return Some(false);
                    };
                    let in_v_star = match v_star(ob, target) {
                        Some(vs) => ob.contains(vs, *method, &args, from),
                        None => false,
                    };
                    Some(if from == to {
                        in_v_star && ob.contains(created, *method, &args, from)
                    } else {
                        in_v_star
                            && !ob.contains(created, *method, &args, from)
                            && ob.contains(created, *method, &args, to)
                    })
                }
                UpdateSpec::DelAll => {
                    unreachable!("validation rejects del[..].* in rule bodies")
                }
            }
        }
        Atom::Cmp(cmp) => {
            let mut vars = Vec::new();
            cmp.lhs.for_each_var(&mut |v| vars.push(v));
            cmp.rhs.for_each_var(&mut |v| vars.push(v));
            if vars.iter().any(|v| !b.is_bound(*v)) {
                return None; // not yet decidable
            }
            Some(match (cmp.lhs.eval(b), cmp.rhs.eval(b)) {
                (Some(lhs), Some(rhs)) => cmp.op.test(lhs, rhs),
                // Undefined arithmetic (symbol in an operator, division
                // by zero) fails to hold even when fully bound.
                _ => false,
            })
        }
    }
}

/// Truth of the ground head (§3, case 2) — and expansion of `del[V].*`
/// into one delete per method-application of `v*` (§2.3).
fn emit_if_head_true(ob: &ObjectBase, rule: &Rule, b: &Bindings, out: &mut Vec<RefUpdate>) {
    let Some(target) = rule.head.target.ground(b) else { return };
    match &rule.head.spec {
        // "an ins[...] in a rule-head is always true".
        UpdateSpec::Ins { method, args, result } => {
            let (Some(args), Some(result)) = (ground_args(args, b), ground_arg(*result, b)) else {
                return;
            };
            out.push(RefUpdate::Ins { target, method: *method, args, result });
        }
        // "a del[...] is true iff v*.m -> r ∈ I".
        UpdateSpec::Del { method, args, result } => {
            let (Some(args), Some(result)) = (ground_args(args, b), ground_arg(*result, b)) else {
                return;
            };
            let holds = match v_star(ob, target) {
                Some(vs) => ob.contains(vs, *method, &args, result),
                None => false,
            };
            if holds {
                out.push(RefUpdate::Del { target, method: *method, args, result });
            }
        }
        UpdateSpec::DelAll => {
            let Some(vs) = v_star(ob, target) else { return };
            let Some(state) = ob.version(vs) else { return };
            for (method, app) in state.iter() {
                out.push(RefUpdate::Del {
                    target,
                    method,
                    args: app.args.as_slice().to_vec(),
                    result: app.result,
                });
            }
        }
        // "a mod[...] is true iff v*.m -> r ∈ I".
        UpdateSpec::Mod { method, args, from, to } => {
            let (Some(args), Some(from), Some(to)) =
                (ground_args(args, b), ground_arg(*from, b), ground_arg(*to, b))
            else {
                return;
            };
            let holds = match v_star(ob, target) {
                Some(vs) => ob.contains(vs, *method, &args, from),
                None => false,
            };
            if holds {
                out.push(RefUpdate::Mod { target, method: *method, args, from, to });
            }
        }
    }
}

/// Collect the fired updates of one rule: enumerate every ground
/// instance over the active domain whose body literals are all true,
/// then check the head (§3 step 1).
fn collect_fired(ob: &ObjectBase, rule: &Rule, domain: &[Const], out: &mut Vec<RefUpdate>) {
    let mut bindings = Bindings::with_vid_vars(rule.vars.len(), rule.vid_vars.len());
    let enumerable = enumerable_vars(rule);
    enumerate(ob, rule, domain, &enumerable, &mut bindings, out);
}

/// Which variables range over the active domain: those occurring in a
/// positive version- or update-term, where safety's range restriction
/// guarantees their satisfying values appear in `I`. Every other
/// variable is an assignment target (`W = V * 10`) whose value may lie
/// *outside* the active domain — it must be computed by saturation,
/// never enumerated.
fn enumerable_vars(rule: &Rule) -> Vec<bool> {
    let mut enumerable = vec![false; rule.vars.len()];
    let mut mark = |t: ArgTerm| {
        if let ArgTerm::Var(v) = t {
            enumerable[v.index()] = true;
        }
    };
    for lit in &rule.body {
        if !lit.positive {
            continue;
        }
        match &lit.atom {
            Atom::Version(va) => {
                if let Some(t) = va.vid.as_term() {
                    mark(t.base);
                }
                for &a in &va.args {
                    mark(a);
                }
                mark(va.result);
            }
            Atom::Update(ua) => {
                mark(ua.target.base);
                match &ua.spec {
                    UpdateSpec::Ins { args, result, .. } | UpdateSpec::Del { args, result, .. } => {
                        for &a in args {
                            mark(a);
                        }
                        mark(*result);
                    }
                    UpdateSpec::Mod { args, from, to, .. } => {
                        for &a in args {
                            mark(a);
                        }
                        mark(*from);
                        mark(*to);
                    }
                    UpdateSpec::DelAll => {}
                }
            }
            Atom::Cmp(_) => {}
        }
    }
    enumerable
}

/// Recursive enumeration with two admissible shortcuts:
///
/// * `X = expr` built-ins *assign* when one side is a single unbound
///   variable and the other side is evaluable — mirroring the safety
///   rules that make such instances well-defined without enumerating
///   the (infinite) value space;
/// * literals whose variables are all bound are checked immediately,
///   pruning assignments that can never satisfy the body.
///
/// Neither changes the set of instances found: assignments pin the only
/// possible value, pruning removes only falsified instances.
fn enumerate(
    ob: &ObjectBase,
    rule: &Rule,
    domain: &[Const],
    enumerable: &[bool],
    bindings: &mut Bindings,
    out: &mut Vec<RefUpdate>,
) {
    // Saturate assignments.
    let mark = bindings.mark();
    loop {
        let mut progressed = false;
        for lit in &rule.body {
            if !lit.positive {
                continue;
            }
            let Atom::Cmp(cmp) = &lit.atom else { continue };
            if cmp.op != ruvo_lang::CmpOp::Eq {
                continue;
            }
            let try_assign =
                |var: Option<VarId>, other: &Expr, bindings: &mut Bindings| -> Option<bool> {
                    let v = var?;
                    if bindings.is_bound(v) {
                        return None;
                    }
                    let value = other.eval(bindings)?;
                    bindings.bind(v, value);
                    Some(true)
                };
            if try_assign(cmp.lhs.as_single_var(), &cmp.rhs, bindings) == Some(true)
                || try_assign(cmp.rhs.as_single_var(), &cmp.lhs, bindings) == Some(true)
            {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Check (and prune on) every literal that is ground now.
    for lit in &rule.body {
        if let Some(truth) = ground_atom_true(ob, &lit.atom, bindings) {
            if truth != lit.positive {
                bindings.undo_to(mark);
                return;
            }
        }
    }

    // Find the next unbound *enumerable* variable: those range over
    // the active domain; VID variables (§6) over every version in I.
    // Assignment targets are bound by saturation only.
    let next = (0..rule.vars.len())
        .map(|i| VarId(i as u32))
        .find(|v| enumerable[v.index()] && !bindings.is_bound(*v));
    let next_vid = (0..rule.vid_vars.len())
        .map(|i| ruvo_term::VidVarId(i as u32))
        .find(|v| !bindings.is_vid_bound(*v));
    match (next, next_vid) {
        (None, None) => {
            // Every enumerable variable is bound and saturation has
            // run. An assignment target can still be unbound when its
            // defining expression is undefined (symbol arithmetic) —
            // such instances do not fire.
            let fully = (0..rule.vars.len()).all(|i| bindings.is_bound(VarId(i as u32)));
            if fully {
                emit_if_head_true(ob, rule, bindings, out);
            }
            bindings.undo_to(mark);
        }
        (Some(var), _) => {
            for &value in domain {
                let inner = bindings.mark();
                bindings.bind(var, value);
                enumerate(ob, rule, domain, enumerable, bindings, out);
                bindings.undo_to(inner);
            }
            bindings.undo_to(mark);
        }
        (None, Some(vid_var)) => {
            let versions: Vec<Vid> = ob.versions().collect();
            for vid in versions {
                let inner = bindings.mark();
                bindings.bind_vid(vid_var, vid);
                enumerate(ob, rule, domain, enumerable, bindings, out);
                bindings.undo_to(inner);
            }
            bindings.undo_to(mark);
        }
    }
}

/// Steps 2 + 3 of `T_P` as set algebra over the full `T¹`, producing
/// the next interpretation (overwrite of relevant versions;
/// ARCHITECTURE.md, decisions D1/D7).
fn apply_tp(ob: &ObjectBase, t1: &[RefUpdate]) -> ObjectBase {
    let mut by_version: FastHashMap<Vid, Vec<&RefUpdate>> = FastHashMap::default();
    for u in t1 {
        by_version.entry(u.created()).or_default().push(u);
    }
    let mut next = ob.clone();
    for (created, updates) in by_version {
        // Step 2: the copy. Active versions copy their own state; a
        // relevant-but-not-active version copies v*.
        let mut state: VersionState = if exists(ob, created) {
            ob.version(created).cloned().unwrap_or_default()
        } else {
            match v_star(ob, updates[0].target()) {
                Some(vs) => ob.version(vs).cloned().unwrap_or_default(),
                None => VersionState::new(),
            }
        };
        // Step 3, removal half: del-results and mod-from-values.
        for u in &updates {
            match u {
                RefUpdate::Del { method, args, result, .. } => {
                    state.remove(*method, &MethodApp::new(Args::new(args.clone()), *result));
                }
                RefUpdate::Mod { method, args, from, .. } => {
                    state.remove(*method, &MethodApp::new(Args::new(args.clone()), *from));
                }
                RefUpdate::Ins { .. } => {}
            }
        }
        // Step 3, insertion half: ins-results and mod-to-values.
        for u in updates {
            match u {
                RefUpdate::Ins { method, args, result, .. } => {
                    state.insert(*method, MethodApp::new(Args::new(args.clone()), *result));
                }
                RefUpdate::Mod { method, args, to, .. } => {
                    state.insert(*method, MethodApp::new(Args::new(args.clone()), *to));
                }
                RefUpdate::Del { .. } => {}
            }
        }
        // An emptied state stays: the version exists (§3).
        next.replace_version(created, state);
    }
    next
}

/// §5's linearity condition checked the quadratic way: every pair of
/// versions of one object must be subterm-comparable.
fn check_all_linear(ob: &ObjectBase) -> Result<(), EvalError> {
    for base in ob.objects() {
        let versions: Vec<Vid> = ob.versions_of(base).collect();
        for (i, &v) in versions.iter().enumerate() {
            for &w in &versions[i + 1..] {
                if !v.comparable(w) {
                    return Err(EvalError::Linearity(ruvo_obase::LinearityViolation {
                        object: base,
                        existing: v,
                        conflicting: w,
                    }));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, Error, Outcome};
    use ruvo_term::{int, oid};

    fn run_engine(program: &Program, ob: &ObjectBase) -> Result<Outcome, Error> {
        let db = Database::open(ob.clone());
        db.evaluate(&db.prepare_program(program.clone())?)
    }

    fn run_both(ob_src: &str, prog_src: &str) -> (ObjectBase, ObjectBase) {
        let ob = ObjectBase::parse(ob_src).unwrap();
        let program = Program::parse(prog_src).unwrap();
        let engine = run_engine(&program, &ob).unwrap();
        let reference = evaluate(&program, &ob).unwrap();
        (engine.result().clone(), reference.result)
    }

    #[test]
    fn salary_raise_matches_engine() {
        let (engine, reference) = run_both(
            "henry.isa -> empl. henry.sal -> 250. mary.isa -> empl. mary.sal -> 300.",
            "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
        );
        assert_eq!(engine, reference);
    }

    #[test]
    fn enterprise_example_matches_engine() {
        let (engine, reference) = run_both(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
            "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
             rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
             rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
             rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        );
        assert_eq!(engine, reference);
    }

    #[test]
    fn recursive_ancestors_matches_engine() {
        let (engine, reference) = run_both(
            "ann.isa -> person. bea.isa -> person / parents -> ann.
             cid.isa -> person / parents -> bea.",
            "ins[X].anc -> P <= X.isa -> person / parents -> P.
             ins[X].anc -> P <= ins(X).isa -> person / anc -> A & A.isa -> person / parents -> P.",
        );
        assert_eq!(engine, reference);
    }

    #[test]
    fn chained_modify_fixpoint_is_bc() {
        // The D7 oracle case: the reference must get {b, c} on its own.
        let ob = ObjectBase::parse("o.m -> a. o.m -> b.").unwrap();
        let program = Program::parse(
            "ins[trigger].go -> 1 <= o.m -> a.
             mod[o].m -> (a, b) <= o.m -> a.
             mod[o].m -> (b, c) <= ins(trigger).go -> 1 & o.m -> b.",
        )
        .unwrap();
        let outcome = evaluate(&program, &ob).unwrap();
        let ob2 = outcome.new_object_base().unwrap();
        let mut got = ob2.lookup1(oid("o"), "m");
        got.sort();
        assert_eq!(got, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn linearity_violation_matches_engine() {
        let ob = ObjectBase::parse("o.m -> a.").unwrap();
        let program = Program::parse(
            "mod[o].m -> (a, b) <= o.m -> a.
             del[o].m -> a <= o.m -> a.",
        )
        .unwrap();
        let engine_err = run_engine(&program, &ob).unwrap_err();
        let reference_err = evaluate(&program, &ob).unwrap_err();
        match (engine_err, reference_err) {
            (Error::Linearity(a), EvalError::Linearity(b)) => {
                assert_eq!(a.object, b.object);
            }
            other => panic!("expected two linearity errors, got {other:?}"),
        }
    }

    #[test]
    fn new_object_base_extraction_matches_engine() {
        let ob = ObjectBase::parse("victim.only -> 1. other.p -> 2.").unwrap();
        let program = Program::parse("del[victim].* .").unwrap();
        let engine = run_engine(&program, &ob).unwrap();
        let reference = evaluate(&program, &ob).unwrap();
        assert_eq!(engine.new_object_base(), reference.new_object_base().unwrap());
        assert_eq!(reference.new_object_base().unwrap().lookup1(oid("other"), "p"), vec![int(2)]);
    }

    #[test]
    fn round_limit_respected() {
        let ob = ObjectBase::parse("a.p -> 1. b.x -> 9. c.x -> 9.").unwrap();
        let program = Program::parse(
            "ins[b].p -> 1 <= ins(a).p -> 1.
             ins[a].p -> 1 <= a.p -> 1.
             ins[c].p -> 1 <= ins(b).p -> 1.",
        )
        .unwrap();
        let strata = stratify(&program).unwrap();
        let capped = evaluate_bounded(&program, &strata, &ob, 2);
        assert!(matches!(capped, Err(EvalError::RoundLimit { .. })));
        assert!(evaluate(&program, &ob).is_ok());
    }

    #[test]
    fn update_facts_and_object_creation() {
        let ob = ObjectBase::new();
        let program = Program::parse("ins[adam].isa -> person. ins[adam].age -> 30.").unwrap();
        let outcome = evaluate(&program, &ob).unwrap();
        let ob2 = outcome.new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("adam"), "isa"), vec![oid("person")]);
        assert_eq!(ob2.lookup1(oid("adam"), "age"), vec![int(30)]);
    }

    #[test]
    fn active_domain_covers_base_and_program() {
        let ob = ObjectBase::parse("x.p -> 7.").unwrap();
        let program = Program::parse("ins[y].q -> 9 <= x.p -> 7.").unwrap();
        let domain = active_domain(&ob, &program);
        for c in [oid("x"), int(7), oid("y"), int(9)] {
            assert!(domain.contains(&c), "missing {c}");
        }
    }

    #[test]
    fn v_star_walks_prefixes() {
        let mut ob = ObjectBase::parse("o.m -> 1.").unwrap();
        let o = Vid::object(oid("o"));
        let mod_o = o.apply(UpdateKind::Mod).unwrap();
        let del_mod_o = mod_o.apply(UpdateKind::Del).unwrap();
        assert_eq!(v_star(&ob, del_mod_o), Some(o));
        ob.insert(mod_o, exists_sym(), Args::empty(), oid("o"));
        assert_eq!(v_star(&ob, del_mod_o), Some(mod_o));
        assert_eq!(v_star(&ob, Vid::object(oid("ghost"))), None);
    }
}
