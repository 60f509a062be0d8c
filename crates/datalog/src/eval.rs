//! Evaluation of baseline programs.
//!
//! Each module runs to a fixpoint; modules run in program order
//! ([`Semantics::Modules`]) or collapsed into one
//! ([`Semantics::Collapsed`]) — the difference is exactly the "manual
//! control" §2.4 attributes to Logres. [`Semantics::Inflationary`]
//! accumulates insertions cumulatively and defers deletions to the end
//! of the fixpoint.
//!
//! Within a module:
//!
//! * positive, insert-only rule sets are evaluated **semi-naively**
//!   (delta-driven, the standard optimization),
//! * anything with negation or deletion heads uses naive rounds
//!   `I := (I ∪ ins(I)) \ del(I)` with an oscillation guard — such
//!   programs are not confluent in general, which is the very anomaly
//!   the paper's version identities remove.

use ruvo_lang::{CmpOp, PlannedLiteral};
use ruvo_term::{Bindings, Const, FastHashMap, FastHashSet, Symbol, VarId};

use crate::ast::{DlHead, DlLiteral, DlProgram, DlRule, Module};
use crate::db::Database;

/// Evaluation mode for a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// Modules in order, each to fixpoint (manual control).
    Modules,
    /// All rules as one module (control surrendered).
    Collapsed,
    /// One module; inserts accumulate, deletes apply once at the end.
    Inflationary,
}

/// What happened during evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalReport {
    /// Total rounds across modules.
    pub rounds: usize,
    /// Facts inserted (net).
    pub inserted: usize,
    /// Facts deleted (net).
    pub deleted: usize,
    /// True if some module hit the round limit without converging
    /// (oscillating deletion program).
    pub oscillated: bool,
}

/// Evaluate `program` against `db` in place.
pub fn evaluate(
    db: &mut Database,
    program: &DlProgram,
    semantics: Semantics,
    max_rounds: usize,
) -> EvalReport {
    let mut report = EvalReport::default();
    match semantics {
        Semantics::Modules => {
            for module in &program.modules {
                let r = evaluate_module(db, module, false, max_rounds);
                merge(&mut report, r);
            }
        }
        Semantics::Collapsed => {
            let collapsed = program.collapsed();
            let r = evaluate_module(db, &collapsed.modules[0], false, max_rounds);
            merge(&mut report, r);
        }
        Semantics::Inflationary => {
            let collapsed = program.collapsed();
            let r = evaluate_module(db, &collapsed.modules[0], true, max_rounds);
            merge(&mut report, r);
        }
    }
    report
}

fn merge(total: &mut EvalReport, part: EvalReport) {
    total.rounds += part.rounds;
    total.inserted += part.inserted;
    total.deleted += part.deleted;
    total.oscillated |= part.oscillated;
}

/// Evaluate one module to fixpoint.
pub fn evaluate_module(
    db: &mut Database,
    module: &Module,
    inflationary: bool,
    max_rounds: usize,
) -> EvalReport {
    let plans: Vec<Vec<PlannedLiteral>> = module.rules.iter().map(plan_rule).collect();
    let positive_only = module.rules.iter().all(|r| {
        !r.head.is_delete()
            && r.body.iter().all(|l| !matches!(l, DlLiteral::Atom { positive: false, .. }))
    });
    if positive_only && !inflationary {
        return semi_naive(db, module, &plans, max_rounds);
    }

    let mut report = EvalReport::default();
    let mut deferred_deletes: FastHashSet<(Symbol, Vec<Const>)> = FastHashSet::default();
    loop {
        report.rounds += 1;
        if report.rounds > max_rounds {
            report.oscillated = true;
            break;
        }
        let mut ins: Vec<(Symbol, Vec<Const>)> = Vec::new();
        let mut del: Vec<(Symbol, Vec<Const>)> = Vec::new();
        for (rule, plan) in module.rules.iter().zip(&plans) {
            collect(db, rule, plan, &mut ins, &mut del);
        }
        let mut changed = false;
        for (pred, tuple) in ins {
            let added = db.insert(pred, tuple);
            changed |= added;
            if added {
                report.inserted += 1;
            }
        }
        if inflationary {
            // Deletions deferred to after the fixpoint.
            for d in del {
                deferred_deletes.insert(d);
            }
        } else {
            for (pred, tuple) in del {
                if db.remove(pred, &tuple) {
                    report.deleted += 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (pred, tuple) in deferred_deletes {
        if db.remove(pred, &tuple) {
            report.deleted += 1;
        }
    }
    report
}

/// Standard semi-naive evaluation for positive insert-only modules.
fn semi_naive(
    db: &mut Database,
    module: &Module,
    plans: &[Vec<PlannedLiteral>],
    max_rounds: usize,
) -> EvalReport {
    let mut report = EvalReport::default();
    // Round 1: full evaluation seeds the deltas.
    let mut delta: FastHashMap<Symbol, FastHashSet<Vec<Const>>> = FastHashMap::default();
    let mut ins: Vec<(Symbol, Vec<Const>)> = Vec::new();
    for (rule, plan) in module.rules.iter().zip(plans) {
        collect(db, rule, plan, &mut ins, &mut Vec::new());
    }
    report.rounds = 1;
    for (pred, tuple) in ins.drain(..) {
        if db.insert(pred, tuple.clone()) {
            report.inserted += 1;
            delta.entry(pred).or_default().insert(tuple);
        }
    }

    while !delta.is_empty() {
        report.rounds += 1;
        if report.rounds > max_rounds {
            report.oscillated = true;
            break;
        }
        let mut next_delta: FastHashMap<Symbol, FastHashSet<Vec<Const>>> = FastHashMap::default();
        for (rule, plan) in module.rules.iter().zip(plans) {
            // For each positive body atom over a delta'd predicate,
            // evaluate the rule with that atom restricted to the delta.
            for (li, lit) in rule.body.iter().enumerate() {
                let DlLiteral::Atom { positive: true, atom } = lit else { continue };
                let Some(drel) = delta.get(&atom.pred) else { continue };
                collect_restricted(db, rule, plan, li, drel, &mut ins);
            }
        }
        for (pred, tuple) in ins.drain(..) {
            if db.insert(pred, tuple.clone()) {
                report.inserted += 1;
                next_delta.entry(pred).or_default().insert(tuple);
            }
        }
        delta = next_delta;
    }
    report
}

/// Compute an evaluation plan for a rule (greedy range restriction,
/// mirroring `ruvo_lang::safety`).
///
/// # Panics
/// Panics on unsafe rules; the baseline is driven programmatically by
/// the benchmark/test suite, which only constructs safe rules.
pub fn plan_rule(rule: &DlRule) -> Vec<PlannedLiteral> {
    let mut bound = vec![false; rule.num_vars];
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut steps = Vec::new();
    let vars_of = |lit: &DlLiteral| -> Vec<VarId> {
        let mut out = Vec::new();
        match lit {
            DlLiteral::Atom { atom, .. } => {
                for t in &atom.terms {
                    if let crate::ast::DlTerm::Var(v) = t {
                        out.push(*v);
                    }
                }
            }
            DlLiteral::Builtin(b) => {
                b.lhs.for_each_var(&mut |v| out.push(v));
                b.rhs.for_each_var(&mut |v| out.push(v));
            }
        }
        out
    };
    while !remaining.is_empty() {
        let mut chosen: Option<(usize, PlannedLiteral, Vec<VarId>)> = None;
        for (ri, &li) in remaining.iter().enumerate() {
            let lit = &rule.body[li];
            let vars = vars_of(lit);
            let all_bound = vars.iter().all(|v| bound[v.index()]);
            match lit {
                DlLiteral::Builtin(b) => {
                    if all_bound {
                        chosen = Some((ri, PlannedLiteral::Check(li), vec![]));
                        break;
                    }
                    if b.op == CmpOp::Eq {
                        let mut lhs_vars = Vec::new();
                        let mut rhs_vars = Vec::new();
                        b.lhs.for_each_var(&mut |v| lhs_vars.push(v));
                        b.rhs.for_each_var(&mut |v| rhs_vars.push(v));
                        if let Some(x) = b.lhs.as_single_var() {
                            if !bound[x.index()] && rhs_vars.iter().all(|v| bound[v.index()]) {
                                chosen =
                                    Some((ri, PlannedLiteral::Assign { lit: li, var: x }, vec![x]));
                                break;
                            }
                        }
                        if let Some(x) = b.rhs.as_single_var() {
                            if !bound[x.index()] && lhs_vars.iter().all(|v| bound[v.index()]) {
                                chosen =
                                    Some((ri, PlannedLiteral::Assign { lit: li, var: x }, vec![x]));
                                break;
                            }
                        }
                    }
                }
                DlLiteral::Atom { positive: false, .. } => {
                    if all_bound {
                        chosen = Some((ri, PlannedLiteral::Check(li), vec![]));
                        break;
                    }
                }
                DlLiteral::Atom { positive: true, .. } => {}
            }
        }
        if chosen.is_none() {
            let pick = remaining
                .iter()
                .enumerate()
                .find(|(_, &li)| matches!(rule.body[li], DlLiteral::Atom { positive: true, .. }));
            if let Some((ri, &li)) = pick {
                let vars = vars_of(&rule.body[li]);
                chosen = Some((ri, PlannedLiteral::Scan(li), vars));
            }
        }
        let (ri, step, newly) = chosen.expect("unsafe baseline rule");
        remaining.swap_remove(ri);
        for v in newly {
            bound[v.index()] = true;
        }
        steps.push(step);
    }
    steps
}

/// Collect head instantiations of one rule against `db`.
fn collect(
    db: &Database,
    rule: &DlRule,
    plan: &[PlannedLiteral],
    ins: &mut Vec<(Symbol, Vec<Const>)>,
    del: &mut Vec<(Symbol, Vec<Const>)>,
) {
    let mut b = Bindings::new(rule.num_vars);
    exec(db, rule, plan, 0, None, &mut b, &mut |b| emit(rule, b, ins, del));
}

/// Like [`collect`], but literal `restrict_li` scans `delta` instead of
/// the full relation (for insert-only rules, so no `del` sink).
fn collect_restricted(
    db: &Database,
    rule: &DlRule,
    plan: &[PlannedLiteral],
    restrict_li: usize,
    delta: &FastHashSet<Vec<Const>>,
    ins: &mut Vec<(Symbol, Vec<Const>)>,
) {
    let mut b = Bindings::new(rule.num_vars);
    let mut nothing = Vec::new();
    exec(db, rule, plan, 0, Some((restrict_li, delta)), &mut b, &mut |b| {
        emit(rule, b, ins, &mut nothing)
    });
    debug_assert!(nothing.is_empty());
}

fn emit(
    rule: &DlRule,
    b: &Bindings,
    ins: &mut Vec<(Symbol, Vec<Const>)>,
    del: &mut Vec<(Symbol, Vec<Const>)>,
) {
    let atom = rule.head.atom();
    let tuple: Vec<Const> =
        atom.terms.iter().map(|t| t.ground(b).expect("plan guarantees head boundness")).collect();
    match rule.head {
        DlHead::Insert(_) => ins.push((atom.pred, tuple)),
        DlHead::Delete(_) => del.push((atom.pred, tuple)),
    }
}

fn exec(
    db: &Database,
    rule: &DlRule,
    plan: &[PlannedLiteral],
    step: usize,
    restrict: Option<(usize, &FastHashSet<Vec<Const>>)>,
    b: &mut Bindings,
    sink: &mut dyn FnMut(&Bindings),
) {
    let Some(planned) = plan.get(step) else {
        sink(b);
        return;
    };
    match *planned {
        PlannedLiteral::Check(li) => {
            if check(db, &rule.body[li], b) {
                exec(db, rule, plan, step + 1, restrict, b, sink);
            }
        }
        PlannedLiteral::Assign { lit, var } => {
            let DlLiteral::Builtin(builtin) = &rule.body[lit] else {
                unreachable!("Assign on non-builtin")
            };
            let value = if builtin.lhs.as_single_var() == Some(var) {
                builtin.rhs.eval(b)
            } else {
                builtin.lhs.eval(b)
            };
            if let Some(value) = value {
                let mark = b.mark();
                if b.unify_var(var, value) {
                    exec(db, rule, plan, step + 1, restrict, b, sink);
                }
                b.undo_to(mark);
            }
        }
        PlannedLiteral::Scan(li) => {
            let DlLiteral::Atom { atom, .. } = &rule.body[li] else {
                unreachable!("Scan on builtin")
            };
            let scan_tuple =
                |tuple: &Vec<Const>, b: &mut Bindings, sink: &mut dyn FnMut(&Bindings)| {
                    if tuple.len() != atom.terms.len() {
                        return;
                    }
                    let mark = b.mark();
                    let ok = atom.terms.iter().zip(tuple).all(|(t, &v)| t.matches(v, b));
                    if ok {
                        exec(db, rule, plan, step + 1, restrict, b, sink);
                    }
                    b.undo_to(mark);
                };
            match restrict {
                Some((rli, delta)) if rli == li => {
                    for tuple in delta {
                        scan_tuple(tuple, b, sink);
                    }
                }
                _ => {
                    // Use the first-column index when the first term is
                    // already ground under the current bindings.
                    match atom.terms.first().and_then(|t| t.ground(b)) {
                        Some(first) => {
                            for tuple in db.tuples_with_first(atom.pred, first) {
                                scan_tuple(tuple, b, sink);
                            }
                        }
                        None => {
                            for tuple in db.tuples(atom.pred) {
                                scan_tuple(tuple, b, sink);
                            }
                        }
                    }
                }
            }
        }
    }
}

fn check(db: &Database, lit: &DlLiteral, b: &Bindings) -> bool {
    match lit {
        DlLiteral::Atom { positive, atom } => {
            let tuple: Vec<Const> = atom
                .terms
                .iter()
                .map(|t| t.ground(b).expect("plan guarantees boundness"))
                .collect();
            db.contains(atom.pred, &tuple) == *positive
        }
        DlLiteral::Builtin(builtin) => match (builtin.lhs.eval(b), builtin.rhs.eval(b)) {
            (Some(l), Some(r)) => builtin.op.test(l, r),
            _ => false,
        },
    }
}

/// Convenience: evaluate an `Expr`-free positive program and return
/// the tuples of `pred`, sorted (test helper).
pub fn query_sorted(db: &Database, pred: Symbol) -> Vec<Vec<Const>> {
    let mut v: Vec<Vec<Const>> = db.tuples(pred).cloned().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_db, parse_program};
    use ruvo_term::{int, oid, sym};

    fn run(db_src: &str, prog_src: &str, semantics: Semantics) -> (Database, EvalReport) {
        let mut db = parse_db(db_src).unwrap();
        let program = parse_program(prog_src).unwrap();
        let report = evaluate(&mut db, &program, semantics, 10_000);
        (db, report)
    }

    #[test]
    fn transitive_closure_semi_naive() {
        let (db, report) = run(
            "edge(a, b). edge(b, c). edge(c, d).",
            "path(X, Y) <= edge(X, Y).
             path(X, Z) <= path(X, Y) & edge(Y, Z).",
            Semantics::Modules,
        );
        assert_eq!(db.arity_count(sym("path")), 6);
        assert!(db.contains(sym("path"), &[oid("a"), oid("d")]));
        // Semi-naive terminates in O(diameter) rounds.
        assert!(report.rounds <= 5, "rounds: {}", report.rounds);
    }

    #[test]
    fn stratified_negation_via_modules() {
        let (db, _) = run(
            "node(a). node(b). edge(a, b).",
            "module reach: reach(X) <= edge(a, X).
             module unreach: unreach(X) <= node(X) & not reach(X) & X != a.",
            Semantics::Modules,
        );
        assert!(!db.contains(sym("unreach"), &[oid("b")]));
        assert_eq!(db.arity_count(sym("unreach")), 0);
    }

    #[test]
    fn deletion_in_head() {
        let (db, report) =
            run("empl(bob). empl(phil). rich(bob).", "del empl(E) <= rich(E).", Semantics::Modules);
        assert!(!db.contains(sym("empl"), &[oid("bob")]));
        assert!(db.contains(sym("empl"), &[oid("phil")]));
        assert_eq!(report.deleted, 1);
    }

    #[test]
    fn module_order_controls_outcome() {
        // raise-then-fire vs collapsed: the §2.4 anomaly in miniature.
        // bob earns 4100, boss phil earns 4000; raises are +10% for
        // both (phil +200 extra). After raising: bob 4510, phil 4600 →
        // bob keeps his job. Without module control the fire rule can
        // see bob's *raised* salary against phil's *unraised* one.
        let db_src = "empl(bob). empl(phil). boss(bob, phil).
                      sal(bob, 4100). sal(phil, 4000). mgr(phil).";
        let prog = "module raise:
               sal2(E, S2) <= empl(E) & mgr(E) & sal(E, S) & S2 = S * 1.1 + 200 .
               sal2(E, S2) <= empl(E) & sal(E, S) & not mgr(E) & S2 = S * 1.1 .
             module fire:
               del empl(E) <= boss(E, B) & sal2(E, SE) & sal2(B, SB) & SE > SB .";
        let (ordered, _) = run(db_src, prog, Semantics::Modules);
        assert!(ordered.contains(sym("empl"), &[oid("bob")]), "bob survives with control");

        // Collapsed: round 1 derives sal2 for both; fire sees them in
        // round 2 — still fine here. The real anomaly needs the raw
        // salaries: a single-module program comparing sal/sal2
        // mid-flight; `ruvo_workload`'s `$4100` control-spectrum test
        // has the full scenario.
        let (collapsed, _) = run(db_src, prog, Semantics::Collapsed);
        assert!(collapsed.contains(sym("empl"), &[oid("bob")]));
    }

    #[test]
    fn collapsed_fire_on_unraised_salaries_is_wrong() {
        // The direct §2.4 anomaly: one module, fire compares raw
        // salaries before the raise is visible.
        let db_src = "empl(bob). empl(phil). boss(bob, phil).
                      sal(bob, 4100). sal(phil, 4000). mgr(phil).";
        let prog = "del empl(E) <= boss(E, B) & sal(E, SE) & sal(B, SB) & SE > SB .
             sal2(E, S2) <= empl(E) & mgr(E) & sal(E, S) & S2 = S * 1.1 + 200 .
             sal2(E, S2) <= empl(E) & sal(E, S) & not mgr(E) & S2 = S * 1.1 .";
        let (db, _) = run(db_src, prog, Semantics::Collapsed);
        // bob was fired on the raw comparison 4100 > 4000 — the wrong
        // outcome the paper's VIDs prevent.
        assert!(!db.contains(sym("empl"), &[oid("bob")]));
        // And because he was fired before raising, he has no sal2 from
        // the non-manager rule... except round-1 parallelism derived it
        // simultaneously. Either way the result diverges from the
        // module-ordered one — order sensitivity is the point.
    }

    #[test]
    fn inflationary_defers_deletes() {
        let (db, report) = run(
            "p(1). q(1).",
            "r(X) <= p(X) & q(X).
             del q(X) <= p(X).",
            Semantics::Inflationary,
        );
        // r(1) is derived even though q(1) gets deleted eventually.
        assert!(db.contains(sym("r"), &[int(1)]));
        assert!(!db.contains(sym("q"), &[int(1)]));
        assert_eq!(report.deleted, 1);
    }

    #[test]
    fn oscillating_program_detected() {
        let (_, report) = run(
            "p(1). on(1).",
            "on(X) <= p(X) & not off(X).
             off(X) <= p(X) & not on2(X) & on(X).
             del on(X) <= off(X).
             del off(X) <= p(X) & not on(X).",
            Semantics::Collapsed,
        );
        // This nonmonotone soup never converges; the guard fires.
        assert!(report.oscillated);
    }

    #[test]
    fn facts_only_rules() {
        let (db, _) = run("", "p(1). q(a, b).", Semantics::Modules);
        assert!(db.contains(sym("p"), &[int(1)]));
        assert!(db.contains(sym("q"), &[oid("a"), oid("b")]));
    }

    #[test]
    fn builtin_assignment_binds() {
        let (db, _) =
            run("sal(bob, 100).", "twice(E, T) <= sal(E, S) & T = S * 2.", Semantics::Modules);
        assert!(db.contains(sym("twice"), &[oid("bob"), int(200)]));
    }

    #[test]
    fn query_sorted_helper() {
        let (db, _) = run("p(2). p(1).", "", Semantics::Modules);
        assert_eq!(query_sorted(&db, sym("p")), vec![vec![int(1)], vec![int(2)]]);
    }
}
