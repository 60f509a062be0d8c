//! Stratification-aware static analysis (`ruvo check`).
//!
//! `ruvo-lang::analysis` covers everything decidable from the AST
//! alone; this module adds the analyses that need the §4
//! stratification of a [`CompiledProgram`]:
//!
//! * **write-write conflicts** — two same-stratum rules whose heads may
//!   modify the same `(version, method)` with provably different
//!   results, making the outcome depend on which rule's update-atom
//!   one reads ([`Lint::WriteWriteConflict`]);
//! * the **commutativity matrix** — a per-stratum rule×rule verdict
//!   ([`Commutativity`]), built here once per [`check`] together with
//!   the [`RuleDepGraph`] and carried by the [`CheckReport`] (in an
//!   all-`Commutes` stratum no firing order is observable);
//! * **dead rules** — a refinement of the stratifier's condition-(b)
//!   edge relation (see [`crate::stratify::edges`]): a rule whose body
//!   demands a created version no rule's head can produce, or asks
//!   about an update no rule performs, can never fire
//!   ([`Lint::DeadRule`]);
//! * **cycle-policy advisories** — a statically stratifiable program
//!   compiled under `CyclePolicy::RuntimeStability` pays for a runtime
//!   stability check it cannot need ([`Lint::NeedlessDynamicPolicy`]),
//!   and conversely a strictly rejected program that the relaxed
//!   policy would accept is reported as
//!   [`Lint::DynamicPolicyRequired`].
//!
//! ## Commutativity semantics
//!
//! Two rules *commute* when evaluating them in either order (within
//! one stratum's fixpoint) provably yields the same object base. The
//! verdict is syntactic and conservative:
//!
//! * heads creating non-unifiable versions, or updating different
//!   methods, touch disjoint state — `Commutes`;
//! * two insertions commute always (methods are set-valued, §2.1:
//!   insertion is additive), as do two deletions (anti-additive);
//! * two modifications of the same method conflict when their `from`
//!   patterns overlap but their `to` results are provably different
//!   (`Conflicts` — this is exactly what [`Lint::WriteWriteConflict`]
//!   reports); result variables are resolved through the rule's
//!   [`ruvo_lang::RulePlan`] when an `X = expr` assignment binds them
//!   to a ground constant;
//! * bodies that are provably mutually exclusive — one rule requires a
//!   version-term the other negates, under the variable correspondence
//!   forced by unifying the head targets (the paper's `rule1`/`rule2`:
//!   `E.pos -> mgr` vs `not E.pos -> mgr`) — can never fire on the
//!   same target, so the pair `Commutes`;
//! * anything else overlapping is `Unknown`.
//!
//! Rules in different strata trivially commute: the stratification
//! fixes their evaluation order.

use ruvo_lang::analysis::{self, Diagnostic, Lint};
use ruvo_lang::{Atom, PlannedLiteral, Program, Rule, UpdateSpec, VersionAtom};
use ruvo_term::{ArgTerm, BaseTerm, Bindings, Const, UpdateKind, VarId, VidTerm};

use crate::deps::{DepEdge, RuleDepGraph};
use crate::engine::{CompiledProgram, CyclePolicy};
use crate::stratify::Stratification;

/// Whether two same-stratum rules can be reordered without changing
/// the result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Commutativity {
    /// Provably order-independent.
    Commutes,
    /// Provably order-sensitive: both rules may write the same
    /// `(version, method)` with different results.
    Conflicts,
    /// The analysis cannot decide; treat as ordered.
    Unknown,
}

impl std::fmt::Display for Commutativity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Commutativity::Commutes => "commutes",
            Commutativity::Conflicts => "conflicts",
            Commutativity::Unknown => "unknown",
        })
    }
}

/// The rule×rule commutativity verdicts of a compiled program.
///
/// Only same-stratum pairs are interesting; cross-stratum pairs report
/// `Commutes` because the stratification already fixes their order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommutativityMatrix {
    n: usize,
    verdicts: Vec<Commutativity>,
}

impl CommutativityMatrix {
    /// Number of rules.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The verdict for rules `i` and `j` (symmetric; `(i, i)` commutes).
    pub fn get(&self, i: usize, j: usize) -> Commutativity {
        self.verdicts[i * self.n + j]
    }

    /// True when every same-stratum pair commutes.
    pub fn all_commute(&self) -> bool {
        self.verdicts.iter().all(|v| *v == Commutativity::Commutes)
    }

    /// All pairs `i < j` with the given verdict.
    pub fn pairs_with(&self, verdict: Commutativity) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) == verdict {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

/// Compute the commutativity matrix of `program` under `strat`.
///
/// Prefer [`CheckReport::commutativity`], which [`check`] computed
/// under the stratification the program was compiled with.
pub fn commutativity(program: &Program, strat: &Stratification) -> CommutativityMatrix {
    let n = program.rules.len();
    let mut verdicts = vec![Commutativity::Commutes; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            if strat.stratum_of(i) != strat.stratum_of(j) {
                continue; // order fixed by the stratification
            }
            let v = pair_verdict(&program.rules[i], &program.rules[j]);
            verdicts[i * n + j] = v;
            verdicts[j * n + i] = v;
        }
    }
    CommutativityMatrix { n, verdicts }
}

/// The variable correspondence forced by unifying two head targets
/// (standardized apart): at most one var↔var pairing plus at most one
/// var↦const binding per side.
struct Correspondence {
    pair: Option<(VarId, VarId)>,
    bind_left: Option<(VarId, Const)>,
    bind_right: Option<(VarId, Const)>,
}

impl Correspondence {
    fn of(left: BaseTerm, right: BaseTerm) -> Correspondence {
        let mut c = Correspondence { pair: None, bind_left: None, bind_right: None };
        match (left, right) {
            (BaseTerm::Var(a), BaseTerm::Var(b)) => c.pair = Some((a, b)),
            (BaseTerm::Var(a), BaseTerm::Const(k)) => c.bind_left = Some((a, k)),
            (BaseTerm::Const(k), BaseTerm::Var(b)) => c.bind_right = Some((b, k)),
            (BaseTerm::Const(_), BaseTerm::Const(_)) => {}
        }
        c
    }

    /// Are two object-id-terms provably equal under the correspondence?
    fn term_eq(&self, left: ArgTerm, right: ArgTerm) -> bool {
        match (left, right) {
            (BaseTerm::Const(a), BaseTerm::Const(b)) => a == b,
            (BaseTerm::Var(a), BaseTerm::Var(b)) => self.pair == Some((a, b)),
            (BaseTerm::Var(a), BaseTerm::Const(k)) => self.bind_left == Some((a, k)),
            (BaseTerm::Const(k), BaseTerm::Var(b)) => self.bind_right == Some((b, k)),
        }
    }

    fn vid_eq(&self, left: VidTerm, right: VidTerm) -> bool {
        left.chain == right.chain && self.term_eq(left.base, right.base)
    }

    fn version_atom_eq(&self, left: &VersionAtom, right: &VersionAtom) -> bool {
        let (Some(lt), Some(rt)) = (left.vid.as_term(), right.vid.as_term()) else {
            return false;
        };
        self.vid_eq(lt, rt)
            && left.method == right.method
            && left.args.len() == right.args.len()
            && left.args.iter().zip(&right.args).all(|(&a, &b)| self.term_eq(a, b))
            && self.term_eq(left.result, right.result)
    }
}

/// Resolve a head term through the rule's safety plan: a variable
/// bound by an `X = expr` assignment with a ground expression is as
/// good as the constant it evaluates to.
fn resolved(rule: &Rule, t: ArgTerm) -> ArgTerm {
    let BaseTerm::Var(v) = t else { return t };
    for step in &rule.plan.steps {
        let PlannedLiteral::Assign { lit, var } = step else { continue };
        if *var != v {
            continue;
        }
        let Atom::Cmp(b) = &rule.body[*lit].atom else { continue };
        let expr = if b.lhs.as_single_var() == Some(v) { &b.rhs } else { &b.lhs };
        if let Some(c) = expr.eval(&Bindings::new(rule.vars.len())) {
            return BaseTerm::Const(c);
        }
    }
    t
}

/// Provably different (after plan resolution): two distinct constants.
/// Variables are never provably distinct — they may unify.
fn provably_distinct(ri: &Rule, a: ArgTerm, rj: &Rule, b: ArgTerm) -> bool {
    match (resolved(ri, a), resolved(rj, b)) {
        (BaseTerm::Const(x), BaseTerm::Const(y)) => x != y,
        _ => false,
    }
}

/// Provably equal writes: same term under the correspondence, or both
/// resolving to the same constant.
fn provably_equal(corr: &Correspondence, ri: &Rule, a: ArgTerm, rj: &Rule, b: ArgTerm) -> bool {
    corr.term_eq(a, b)
        || matches!(
            (resolved(ri, a), resolved(rj, b)),
            (BaseTerm::Const(x), BaseTerm::Const(y)) if x == y
        )
}

/// One positive literal of `a` is the negation of a literal of `b`
/// (or vice versa) under the head correspondence — the two rules can
/// never fire on the same target instance.
fn mutually_exclusive(corr: &Correspondence, a: &Rule, b: &Rule) -> bool {
    let one_way = |pos_rule: &Rule, neg_rule: &Rule, flip: bool| {
        pos_rule.body.iter().filter(|l| l.positive).any(|pl| {
            neg_rule.body.iter().filter(|l| !l.positive).any(|nl| match (&pl.atom, &nl.atom) {
                (Atom::Version(va), Atom::Version(vb)) => {
                    if flip {
                        corr.version_atom_eq(vb, va)
                    } else {
                        corr.version_atom_eq(va, vb)
                    }
                }
                _ => false,
            })
        })
    };
    one_way(a, b, false) || one_way(b, a, true)
}

/// The verdict for one same-stratum pair.
fn pair_verdict(ri: &Rule, rj: &Rule) -> Commutativity {
    use Commutativity::{Commutes, Conflicts, Unknown};
    if !ri.head.created_term().unifiable(rj.head.created_term()) {
        // The heads create provably different versions.
        return Commutes;
    }
    // Same created chain ⇒ same outermost update kind.
    let corr = Correspondence::of(ri.head.target.base, rj.head.target.base);
    match (&ri.head.spec, &rj.head.spec) {
        // Insertions are additive and deletions anti-additive on
        // set-valued methods: any two commute.
        (UpdateSpec::Ins { .. }, UpdateSpec::Ins { .. }) => Commutes,
        (
            UpdateSpec::Del { .. } | UpdateSpec::DelAll,
            UpdateSpec::Del { .. } | UpdateSpec::DelAll,
        ) => Commutes,
        (
            UpdateSpec::Mod { method: mi, args: ai, from: fi, to: ti },
            UpdateSpec::Mod { method: mj, args: aj, from: fj, to: tj },
        ) => {
            if mi != mj {
                return Commutes; // different methods, disjoint state
            }
            if ai.len() != aj.len()
                || ai.iter().zip(aj).any(|(&a, &b)| provably_distinct(ri, a, rj, b))
            {
                return Commutes; // different method-applications
            }
            if mutually_exclusive(&corr, ri, rj) {
                return Commutes; // never fire on the same target
            }
            if provably_distinct(ri, *fi, rj, *fj) {
                return Commutes; // rewrite disjoint source facts
            }
            if provably_distinct(ri, *ti, rj, *tj) {
                return Conflicts; // same fact, different replacement
            }
            let same_write = ai.iter().zip(aj).all(|(&a, &b)| provably_equal(&corr, ri, a, rj, b))
                && provably_equal(&corr, ri, *fi, rj, *fj)
                && provably_equal(&corr, ri, *ti, rj, *tj);
            if same_write {
                Commutes // identical update, idempotent under sets
            } else {
                Unknown
            }
        }
        // Unreachable: unifiable created chains imply equal kinds.
        _ => Unknown,
    }
}

/// Render a version-id-term with the rule's variable names.
fn vid_str(rule: &Rule, t: VidTerm) -> String {
    let mut s = match t.base {
        BaseTerm::Var(v) => rule.vars.name(v).to_owned(),
        BaseTerm::Const(c) => c.to_string(),
    };
    for i in 0..t.chain.len() {
        s = format!("{}({s})", t.chain.get(i));
    }
    s
}

fn write_write_conflicts(
    program: &Program,
    matrix: &CommutativityMatrix,
    out: &mut Vec<Diagnostic>,
) {
    for (i, j) in matrix.pairs_with(Commutativity::Conflicts) {
        let (ri, rj) = (&program.rules[i], &program.rules[j]);
        let target = vid_str(rj, rj.head.target);
        let method = rj.head.spec.method().map(|m| m.to_string()).unwrap_or_default();
        let mut d = Diagnostic::new(
            Lint::WriteWriteConflict,
            rj.span,
            format!(
                "rules `{}` and `{}` are in the same stratum and may both modify \
                 `{target}`.{method} with different results",
                program.rule_name(i),
                program.rule_name(j),
            ),
        )
        .note(
            "within a stratum no firing order is defined; conflicting writes make \
             the result set depend on it",
        );
        if let Some(span) = ri.span {
            d = d.note(format!("`{}` is defined at {}", program.rule_name(i), span.start));
        }
        out.push(d);
    }
}

/// Does some (live) rule head satisfy a positive body requirement?
fn dead_rule_reason(program: &Program, alive: &[bool], r: usize) -> Option<String> {
    let rule = &program.rules[r];
    let creates =
        |o: usize, req: VidTerm| alive[o] && program.rules[o].head.created_term().unifiable(req);
    let creators = |req: VidTerm| (0..program.rules.len()).any(|o| creates(o, req));
    for lit in rule.body.iter().filter(|l| l.positive) {
        match &lit.atom {
            Atom::Version(va) => {
                // A created version inherits its predecessor's methods
                // (§3's v*), so only version *existence* is decidable
                // here — the method may come from the initial base.
                let Some(t) = va.vid.as_term() else { continue };
                if t.chain.is_empty() {
                    continue; // initial objects come from the base
                }
                if !creators(t) {
                    return Some(format!(
                        "its body requires version `{}`, which no rule creates",
                        vid_str(rule, t)
                    ));
                }
            }
            Atom::Update(ua) => {
                // Body update-atoms ask whether the update was
                // performed — only a rule head can perform one.
                let req = ua.created_term();
                let kind = ua.spec.kind();
                let method = ua.spec.method();
                let performed = program.rules.iter().enumerate().any(|(o, other)| {
                    creates(o, req)
                        && other.head.spec.kind() == kind
                        && (other.head.spec.method() == method
                            // `del[V].*` performs every deletion on V.
                            || (kind == UpdateKind::Del && other.head.spec.method().is_none()))
                });
                if !performed {
                    return Some(format!(
                        "its body asks about `{}[{}]`, an update no rule performs",
                        kind,
                        vid_str(rule, ua.target)
                    ));
                }
            }
            Atom::Cmp(_) => {}
        }
    }
    None
}

/// Dead rules, to a fixpoint: a rule whose body depends on a dead
/// rule's head is itself dead.
fn dead_rules(program: &Program, out: &mut Vec<Diagnostic>) {
    let n = program.rules.len();
    let mut alive = vec![true; n];
    let mut reasons: Vec<Option<String>> = vec![None; n];
    loop {
        let mut changed = false;
        for r in 0..n {
            if !alive[r] {
                continue;
            }
            if let Some(reason) = dead_rule_reason(program, &alive, r) {
                alive[r] = false;
                reasons[r] = Some(reason);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (r, reason) in reasons.into_iter().enumerate() {
        let Some(reason) = reason else { continue };
        out.push(
            Diagnostic::new(
                Lint::DeadRule,
                program.rules[r].span,
                format!("rule `{}` can never fire: {reason}", program.rule_name(r)),
            )
            .note(
                "this is decided against rule heads only; a pre-populated initial \
                 object base could still satisfy a version-term requirement",
            ),
        );
    }
}

/// A program stratifies strictly exactly when the relaxed stratifier
/// flags no stratum for the runtime check, so the compiled flags decide
/// the advisory.
fn cycle_advisories(compiled: &CompiledProgram, out: &mut Vec<Diagnostic>) {
    if compiled.cycle_policy() == CyclePolicy::RuntimeStability
        && !compiled.needs_runtime_check().contains(&true)
    {
        out.push(
            Diagnostic::new(
                Lint::NeedlessDynamicPolicy,
                None,
                "the program is statically stratifiable but was compiled under \
                 CyclePolicy::RuntimeStability",
            )
            .note(
                "CyclePolicy::Reject accepts it with identical semantics and \
                 without the per-stratum runtime stability check",
            ),
        );
    }
}

/// `order-sensitive-rules`: same-stratum pairs where one rule reads a
/// relation chain the other writes, so an engine that fired rules
/// sequentially (instead of the paper's simultaneous `T_P`) could
/// observe the write. Walks the [`RuleDepGraph`]'s edges (every such
/// pair has one) and exempts purely additive pairs (a positive read
/// where both heads insert), which is the §4(b)-sanctioned
/// ins-recursion pattern.
fn order_sensitivity(program: &Program, deps: &RuleDepGraph, out: &mut Vec<Diagnostic>) {
    // Evidence that `reader`'s result can depend on `writer`'s firing.
    let sensitive = |reader: usize, writer: usize| -> Option<String> {
        let wc = deps.writes(writer).chain;
        let reads = deps.reads(reader);
        if reads.top {
            return Some(format!(
                "`{}` reads every version through a `$V` atom, including the \
                 `{}` versions `{}` creates",
                program.rule_name(reader),
                crate::deps::chain_str(wc),
                program.rule_name(writer),
            ));
        }
        if let Some(&(c, m)) = reads.negated.iter().find(|&&(c, _)| c == wc) {
            return Some(format!(
                "`{}` negatively reads `{}`, which `{}` may write",
                program.rule_name(reader),
                crate::deps::read_str(c, m),
                program.rule_name(writer),
            ));
        }
        let additive = program.rules[reader].head.spec.kind() == UpdateKind::Ins
            && program.rules[writer].head.spec.kind() == UpdateKind::Ins;
        if additive {
            return None; // §4(b) ins-recursion: monotone, order-free
        }
        reads.keys.iter().find(|&&(c, _)| c == wc).map(|&(c, m)| {
            format!(
                "`{}` reads `{}`, which `{}` may write",
                program.rule_name(reader),
                crate::deps::read_str(c, m),
                program.rule_name(writer),
            )
        })
    };
    for &DepEdge { a, b, .. } in deps.edges() {
        let Some(why) = sensitive(a, b).or_else(|| sensitive(b, a)) else { continue };
        out.push(
            Diagnostic::new(
                Lint::OrderSensitiveRules,
                program.rules[b].span,
                format!(
                    "rules `{}` and `{}` are in the same stratum and {why}",
                    program.rule_name(a),
                    program.rule_name(b),
                ),
            )
            .note(
                "T_P fires all rules of a stratum against the same pre-state; an \
                 engine applying rules sequentially could produce different results",
            ),
        );
    }
}

/// Advisory observations from the dependency graph: self-dependent
/// rules. These are truthful statements about perfectly healthy
/// programs, so they go into [`CheckReport::advisories`], never into
/// warnings.
fn deps_advisories(program: &Program, deps: &RuleDepGraph, out: &mut Vec<Diagnostic>) {
    for r in 0..program.rules.len() {
        if !deps.self_dependent(r) {
            continue;
        }
        let (reads, wc) = (deps.reads(r), deps.writes(r).chain);
        let why = if reads.top {
            format!(
                "reads every version through a `$V` atom, including the `{}` versions \
                 its own head creates",
                crate::deps::chain_str(wc),
            )
        } else {
            let key = reads
                .keys
                .iter()
                .chain(&reads.negated)
                .find(|&&(c, _)| c == wc)
                .map(|&(c, m)| crate::deps::read_str(c, m))
                .unwrap_or_else(|| crate::deps::chain_str(wc));
            format!("reads `{key}`, which its own head writes")
        };
        out.push(
            Diagnostic::new(
                Lint::SelfDependentRule,
                program.rules[r].span,
                format!("rule `{}` {why}", program.rule_name(r)),
            )
            .note("it can fire on results of its earlier firings"),
        );
    }
}

/// Everything `ruvo check` reports for one compiled program.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// All diagnostics: the program-level front end (labels, duplicate
    /// rules, arity) plus the stratification-aware analyses above.
    pub diagnostics: Vec<Diagnostic>,
    /// Advisory notes (allow-level lints): dependency observations
    /// about healthy programs — self-dependent rules. Never escalated
    /// by `deny_lints`.
    pub advisories: Vec<Diagnostic>,
    /// The rule dependency graph the lints above were read from; it
    /// owns the commutativity matrix.
    pub deps: RuleDepGraph,
}

impl CheckReport {
    /// True if any diagnostic rejects the program.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// The rule×rule commutativity verdicts.
    pub fn commutativity(&self) -> &CommutativityMatrix {
        self.deps.commutativity()
    }
}

/// Run every static analysis over a compiled program. This is the one
/// place the commutativity matrix and the dependency graph are built.
///
/// The rules' own findings (§3 structure, safety) are not repeated
/// here: the front end decided them when it built each rule and stored
/// the plan the engine runs. This adds the program-level pass
/// ([`analysis::program_diagnostics`]) and the stratification-aware
/// analyses above.
pub fn check(compiled: &CompiledProgram) -> CheckReport {
    check_with(compiled, analysis::program_diagnostics(compiled.program()))
}

/// [`check`], continuing the program-level `diagnostics`.
fn check_with(compiled: &CompiledProgram, mut diagnostics: Vec<Diagnostic>) -> CheckReport {
    let program = compiled.program();
    let strat = compiled.stratification();
    let deps = RuleDepGraph::build(program, strat, commutativity(program, strat));
    write_write_conflicts(program, deps.commutativity(), &mut diagnostics);
    dead_rules(program, &mut diagnostics);
    cycle_advisories(compiled, &mut diagnostics);
    order_sensitivity(program, &deps, &mut diagnostics);
    let mut advisories = Vec::new();
    deps_advisories(program, &deps, &mut advisories);
    CheckReport { diagnostics, advisories, deps }
}

/// The result of checking source text (the `ruvo check` entry point).
#[derive(Clone, Debug)]
pub struct SourceCheck {
    /// The compiled program and its dependency graph (out of the same
    /// [`CheckReport`] as the diagnostics), when it compiles under the
    /// requested policy with no error-severity front-end diagnostic.
    pub compiled: Option<(CompiledProgram, RuleDepGraph)>,
    /// Everything found, front-end and compiled-level.
    pub diagnostics: Vec<Diagnostic>,
    /// Allow-level advisory notes (see [`CheckReport::advisories`]).
    pub advisories: Vec<Diagnostic>,
}

impl SourceCheck {
    /// True if any diagnostic rejects the program.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }
}

/// Check source text end to end: every front-end finding
/// ([`analysis::front_end`]), compilation under `cycles`, and the
/// compiled-program analyses. A program the strict policy rejects is
/// re-analyzed under the relaxed policy so the report still covers
/// conflicts and dead rules, with a [`Lint::DynamicPolicyRequired`]
/// diagnostic explaining the rejection.
pub fn check_source(src: &str, cycles: CyclePolicy) -> SourceCheck {
    let parsed = ruvo_lang::lexer::lex(src).and_then(|t| ruvo_lang::parser::parse_program(&t));
    let mut program = match parsed {
        Ok(program) => program,
        Err(e) => {
            return SourceCheck {
                compiled: None,
                diagnostics: vec![(&e).into()],
                advisories: Vec::new(),
            }
        }
    };
    // With no error among them, the front end's findings are exactly
    // the program-level pass's: they open the compiled report.
    let front = analysis::front_end(&mut program);
    if front.iter().any(Diagnostic::is_error) {
        return SourceCheck { compiled: None, diagnostics: front, advisories: Vec::new() };
    }
    match CompiledProgram::compile(program.clone(), cycles) {
        Ok(compiled) => {
            let CheckReport { diagnostics, advisories, deps } = check_with(&compiled, front);
            SourceCheck { compiled: Some((compiled, deps)), diagnostics, advisories }
        }
        Err(e) => {
            let mut diagnostics =
                vec![Diagnostic::new(Lint::DynamicPolicyRequired, None, e.to_string()).note(
                    "CyclePolicy::RuntimeStability (DatabaseBuilder::cycle_policy) accepts \
                 this program and verifies stability at run time",
                )];
            // The relaxed stratifier is total; reuse it so the report
            // still covers the other analyses.
            let relaxed = CompiledProgram::compile(program, CyclePolicy::RuntimeStability)
                .expect("relaxed stratification cannot fail");
            let report = check_with(&relaxed, front);
            diagnostics.extend(report.diagnostics);
            SourceCheck { compiled: None, diagnostics, advisories: report.advisories }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_lang::Program;

    /// The paper's §2.3 running example (enterprise database).
    const ENTERPRISE: &str = "
        rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S
               & S2 = S * 1.1 + 200.
        rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S
               & not E.pos -> mgr & S2 = S * 1.1.
        rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE
               & mod(B).isa -> empl / sal -> SB & SE > SB.
        rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500
               & not del[mod(E)].isa -> empl.
    ";

    fn compiled(src: &str) -> CompiledProgram {
        CompiledProgram::compile(Program::parse(src).unwrap(), CyclePolicy::Reject).unwrap()
    }

    #[test]
    fn enterprise_commutes_within_every_stratum() {
        let report = check(&compiled(ENTERPRISE));
        let m = report.commutativity();
        assert_eq!(m.len(), 4);
        // rule1/rule2 share a stratum but are mutually exclusive on
        // `E.pos -> mgr`; everything else is cross-stratum.
        assert!(m.all_commute(), "conflicts: {:?}", m.pairs_with(Commutativity::Conflicts));
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn prepared_check_equals_check_source_on_every_example() {
        // `Prepared::check` runs on a program the prepare path admitted
        // (parse, no collect-all front end); `ruvo check` runs
        // `check_source`. Both must report the same thing, under either
        // policy (`RuntimeStability` adds the needless-policy advisory).
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
        let mut sources = vec!["r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
                                r2: mod[X].price -> (P, 2) <= X.price -> P."
            .to_string()];
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rv") {
                sources.push(std::fs::read_to_string(&path).unwrap());
            }
        }
        assert!(sources.len() >= 5, "expected the shipped .rv examples");
        for policy in [CyclePolicy::Reject, CyclePolicy::RuntimeStability] {
            let db = crate::Database::builder().cycle_policy(policy).open(Default::default());
            for src in &sources {
                let report = db.prepare(src).unwrap().check();
                let source = check_source(src, policy);
                let (compiled, deps) = source.compiled.expect("every example compiles");
                assert_eq!(report.diagnostics, source.diagnostics, "{src}");
                assert_eq!(report.advisories, source.advisories, "{src}");
                assert_eq!(report.commutativity(), deps.commutativity(), "{src}");
                let program = compiled.program();
                assert_eq!(report.deps.to_json(program), deps.to_json(program), "{src}");
            }
        }
    }

    #[test]
    fn order_sensitive_rules_fire_on_negated_same_stratum_reads() {
        // The cycle forces one (relaxed) stratum; `a` negatively reads
        // `ins(·).q`, which `b` writes.
        let src = "a: ins[X].p -> 1 <= X.s -> 1 & not ins(X).q -> 1.\n\
                   b: ins[X].q -> 1 <= ins(X).p -> 1.";
        let report = check_source(src, CyclePolicy::RuntimeStability);
        let d =
            report.diagnostics.iter().find(|d| d.lint == Lint::OrderSensitiveRules).unwrap_or_else(
                || panic!("no order-sensitive diagnostic: {:?}", report.diagnostics),
            );
        assert!(d.message.contains("`a`") && d.message.contains("`b`"), "{}", d.message);
        assert!(d.message.contains("ins(·).q"), "{}", d.message);
    }

    #[test]
    fn additive_ins_recursion_is_not_order_sensitive() {
        // §4(b) ins-recursion: both heads insert, the read is positive.
        let report = check_source(
            "base: ins[X].anc -> P <= X.parents -> P.\n\
             step: ins[X].anc -> G <= ins(X).anc -> P & P.parents -> G.",
            CyclePolicy::Reject,
        );
        assert!(
            !report.diagnostics.iter().any(|d| d.lint == Lint::OrderSensitiveRules),
            "{:?}",
            report.diagnostics
        );
        // ... but `step` is truthfully advised as self-dependent.
        let d = report
            .advisories
            .iter()
            .find(|d| d.lint == Lint::SelfDependentRule)
            .unwrap_or_else(|| panic!("no self-dependent advisory: {:?}", report.advisories));
        assert!(d.message.contains("`step`"), "{}", d.message);
        assert!(d.message.contains("ins(·).anc"), "{}", d.message);
    }

    #[test]
    fn vid_variable_rule_is_self_dependent() {
        let report = check_source(
            "audit: ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.",
            CyclePolicy::Reject,
        );
        let d = report
            .advisories
            .iter()
            .find(|d| d.lint == Lint::SelfDependentRule)
            .unwrap_or_else(|| panic!("no self-dependent advisory: {:?}", report.advisories));
        assert!(d.message.contains("$V"), "{}", d.message);
    }

    #[test]
    fn seeded_write_write_conflict_detected() {
        let c = compiled(
            "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
             r2: mod[X].price -> (P, 2) <= X.price -> P.",
        );
        let report = check(&c);
        assert_eq!(report.commutativity().get(0, 1), Commutativity::Conflicts);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::WriteWriteConflict)
            .expect("conflict diagnostic");
        assert!(d.span.is_some(), "conflict diagnostics carry spans");
        assert!(d.message.contains("`r1`") && d.message.contains("`r2`"), "{}", d.message);
    }

    #[test]
    fn plan_resolved_results_conflict() {
        // The conflicting constants flow through `X = expr` assignments.
        let c = compiled(
            "r1: mod[X].price -> (P, Q) <= X.price -> P & Q = 10 * 2.\n\
             r2: mod[X].price -> (P, Q) <= X.price -> P & Q = 30.",
        );
        assert_eq!(check(&c).commutativity().get(0, 1), Commutativity::Conflicts);
    }

    #[test]
    fn disjoint_from_patterns_commute() {
        let c = compiled(
            "r1: mod[X].state -> (off, on) <= X.isa -> device.\n\
             r2: mod[X].state -> (broken, scrapped) <= X.isa -> device.",
        );
        assert_eq!(check(&c).commutativity().get(0, 1), Commutativity::Commutes);
    }

    #[test]
    fn overlapping_mods_without_proof_are_unknown() {
        let c = compiled(
            "r1: mod[X].sal -> (S, S2) <= X.isa -> empl & X.sal -> S & S2 = S + 1.\n\
             r2: mod[X].sal -> (S, S2) <= X.isa -> empl & X.sal -> S & S2 = S * 2.",
        );
        let report = check(&c);
        assert_eq!(report.commutativity().get(0, 1), Commutativity::Unknown);
        // Unknown is not reported as a conflict.
        assert!(!report.diagnostics.iter().any(|d| d.lint == Lint::WriteWriteConflict));
    }

    #[test]
    fn insertions_always_commute() {
        let c = compiled(
            "r1: ins[X].tag -> red <= X.isa -> item.\n\
             r2: ins[X].tag -> blue <= X.isa -> item.",
        );
        assert_eq!(check(&c).commutativity().get(0, 1), Commutativity::Commutes);
    }

    #[test]
    fn dead_rule_on_uncreated_version() {
        let c = compiled(
            "r1: ins[X].flag -> 1 <= X.isa -> item.\n\
             r2: ins[del(X)].flag -> 2 <= del(X).isa -> item.",
        );
        let report = check(&c);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::DeadRule)
            .expect("dead rule diagnostic");
        assert!(d.message.contains("`r2`"), "{}", d.message);
        assert!(d.message.contains("del(X)"), "{}", d.message);
    }

    #[test]
    fn dead_rules_propagate_to_a_fixpoint() {
        // r2 depends on r3's head, r3 depends on a version nobody
        // creates: both are dead.
        let c = compiled(
            "r3: ins[mod(X)].a -> 1 <= mod(X).isa -> item.\n\
             r2: ins[ins(mod(X))].b -> 1 <= ins(mod(X)).a -> 1.",
        );
        let report = check(&c);
        let dead: Vec<_> = report.diagnostics.iter().filter(|d| d.lint == Lint::DeadRule).collect();
        assert_eq!(dead.len(), 2, "{:?}", report.diagnostics);
    }

    #[test]
    fn update_atom_body_requires_a_performer() {
        // rule4-style `not del[...]` atoms are negative and never make
        // a rule dead; a positive one with no performer does.
        let c = compiled(
            "r1: ins[mod(X)].hpe -> 1 <= mod(X).isa -> empl & del[mod(X)].isa -> empl.\n\
             r0: mod[X].sal -> (S, S2) <= X.sal -> S & S2 = S + 1.",
        );
        let report = check(&c);
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::DeadRule)
            .expect("dead rule diagnostic");
        assert!(d.message.contains("del[mod(X)]"), "{}", d.message);
    }

    #[test]
    fn del_all_head_performs_every_deletion() {
        let c = compiled(
            "r1: del[mod(X)].* <= mod(X).bad -> 1.\n\
             r0: mod[X].sal -> (S, S2) <= X.sal -> S & S2 = S + 1.\n\
             r2: ins[del(mod(X))].log -> 1 <= del[mod(X)].bad -> 1.",
        );
        let report = check(&c);
        assert!(
            !report.diagnostics.iter().any(|d| d.lint == Lint::DeadRule),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn needless_dynamic_policy_advisory() {
        // Under `RuntimeStability`, the advisory fires exactly when no
        // stratum needs the runtime check: the second program is the
        // condition-(c) cycle of `dynamic_policy_required_diagnostic`.
        for (src, needless) in [
            ("r1: ins[X].a -> 1 <= X.isa -> item.", true),
            ("ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.", false),
        ] {
            let program = Program::parse(src).unwrap();
            let c = CompiledProgram::compile(program, CyclePolicy::RuntimeStability).unwrap();
            let report = check(&c);
            let found = report.diagnostics.iter().any(|d| d.lint == Lint::NeedlessDynamicPolicy);
            assert_eq!(found, needless, "{src}");
            assert!(!report.has_errors(), "{src}");
        }
    }

    #[test]
    fn dynamic_policy_required_diagnostic() {
        // Strictly non-stratifiable (from the stratify tests): a rule
        // negating the very version its head extends (condition c).
        let src = "ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.";
        let out = check_source(src, CyclePolicy::Reject);
        assert!(out.compiled.is_none());
        let d = out
            .diagnostics
            .iter()
            .find(|d| d.lint == Lint::DynamicPolicyRequired)
            .expect("policy diagnostic");
        assert!(d.is_error());
        assert!(d.message.contains("not stratifiable"), "{}", d.message);
    }

    #[test]
    fn check_source_surfaces_front_end_errors() {
        let out = check_source("r: ins[a].p -> 1. r: ins[b].p -> 2.", CyclePolicy::Reject);
        assert!(out.compiled.is_none());
        assert!(out.has_errors());
        assert!(out.diagnostics.iter().any(|d| d.lint == Lint::DuplicateLabel));
        // And parse failures:
        let out = check_source("ins[X].p ->", CyclePolicy::Reject);
        assert!(out.diagnostics.iter().any(|d| d.lint == Lint::Syntax));
    }
}
