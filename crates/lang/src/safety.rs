//! Safety analysis (range restriction) and literal ordering.
//!
//! §2.1: "We require that rules are safe (cf. \[Ull88\])." Concretely:
//!
//! * every variable of the head must be bound by the body,
//! * every variable of a negated literal must be bound by positive
//!   literals (no floundering),
//! * every variable of a comparison built-in must be bound, except that
//!   `X = expr` may *bind* `X` when all of `expr`'s variables are bound
//!   (the paper's `S' = S * 1.1`).
//!
//! The analysis doubles as a query planner: it emits the order in which
//! the evaluator processes body literals ([`RulePlan`]), choosing
//! positive atoms greedily by the number of already-bound positions
//! (a classic bound-is-easier sideways-information-passing heuristic).

use ruvo_term::{ArgTerm, BaseTerm, VarId, VidVarId};

use crate::ast::{Atom, CmpOp, Rule, UpdateSpec};

/// One step of the evaluation plan; indexes refer to `rule.body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannedLiteral {
    /// Iterate matches of a positive version-/update-term, binding its
    /// unbound variables.
    Scan(usize),
    /// Evaluate a fully-bound literal (negated atom, or comparison with
    /// every variable bound) as a boolean test.
    Check(usize),
    /// `var = expr` with `expr` fully bound: evaluate and bind.
    Assign {
        /// Body literal index.
        lit: usize,
        /// The variable being bound.
        var: VarId,
    },
}

/// The evaluation order for one rule's body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RulePlan {
    /// Steps in execution order; every body literal appears exactly once.
    pub steps: Vec<PlannedLiteral>,
}

/// The VID variable of a body atom, if any (only version atoms can
/// carry one).
fn atom_vid_var(atom: &Atom) -> Option<VidVarId> {
    match atom {
        Atom::Version(va) => va.vid.as_vid_var(),
        _ => None,
    }
}

/// Selectivity score of a positive atom given the variables bound so
/// far — the scan-selection heuristic (higher = more selective).
///
/// A bound base is worth the most: it selects a single version. Among
/// argument/result positions, one bound through a *variable* is a join
/// with an already-scanned literal and usually far more selective than
/// a constant tag shared by many facts (`E.boss -> B` with `B` bound
/// names one boss's reports; `E.isa -> empl` names every employee), so
/// bound variables outscore constants. An unbound VID variable scores
/// 0 — an open scan.
///
/// Every constant key scores the same, whatever it names, so of two
/// tied literals the one written first is planned first. The engine
/// breaks that tie at run time by the keys' counts in the object base
/// (`ruvo_core::matcher`, "Indexed and seeded scans").
fn bound_positions(atom: &Atom, bound: &[bool]) -> usize {
    const BASE: usize = 8;
    const JOIN_VAR: usize = 2;
    const CONST: usize = 1;
    let score = |t: ArgTerm| match t {
        BaseTerm::Const(_) => CONST,
        BaseTerm::Var(v) if bound[v.index()] => JOIN_VAR,
        BaseTerm::Var(_) => 0,
    };
    let base_score = |t: ArgTerm| match t {
        BaseTerm::Const(_) => BASE,
        BaseTerm::Var(v) if bound[v.index()] => BASE,
        BaseTerm::Var(_) => 0,
    };
    match atom {
        Atom::Version(va) => {
            let mut n = match va.vid.as_term() {
                Some(t) => base_score(t.base),
                None => 0,
            };
            n += va.args.iter().map(|&a| score(a)).sum::<usize>();
            n += score(va.result);
            n
        }
        Atom::Update(ua) => {
            let mut n = base_score(ua.target.base);
            match &ua.spec {
                UpdateSpec::Ins { args, result, .. } | UpdateSpec::Del { args, result, .. } => {
                    n += args.iter().map(|&a| score(a)).sum::<usize>();
                    n += score(*result);
                }
                UpdateSpec::Mod { args, from, to, .. } => {
                    n += args.iter().map(|&a| score(a)).sum::<usize>();
                    n += score(*from) + score(*to);
                }
                UpdateSpec::DelAll => {}
            }
            n
        }
        Atom::Cmp(_) => 0,
    }
}

/// Compute the evaluation plan for a rule, or say why it is unsafe.
/// The front end's rule-level pass ([`crate::analysis`]) is the one
/// caller; it stores the plan or reports the reason.
pub(crate) fn analyze(rule: &Rule) -> Result<RulePlan, String> {
    let nvars = rule.vars.len();
    let mut bound = vec![false; nvars];
    let mut vid_bound = vec![false; rule.vid_vars.len()];
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut steps = Vec::with_capacity(rule.body.len());

    let all_bound = |atom: &Atom, bound: &[bool]| {
        let mut all = true;
        atom.for_each_var(|v| all &= bound[v.index()]);
        all
    };
    let vid_ok =
        |atom: &Atom, vid_bound: &[bool]| atom_vid_var(atom).is_none_or(|v| vid_bound[v.index()]);

    while !remaining.is_empty() {
        let mut chosen: Option<(usize, PlannedLiteral)> = None;

        // Pass 1: anything that is a pure test or an assignment now.
        for (ri, &li) in remaining.iter().enumerate() {
            let lit = &rule.body[li];
            let cmp = match &lit.atom {
                Atom::Cmp(b) => Some(b),
                _ => None,
            };
            if lit.positive && cmp.is_none() {
                continue; // a scan: pass 2
            }
            if all_bound(&lit.atom, &bound) && vid_ok(&lit.atom, &vid_bound) {
                chosen = Some((ri, PlannedLiteral::Check(li)));
                break;
            }
            // X = expr (or expr = X) with the other side bound.
            let Some(b) = cmp.filter(|b| lit.positive && b.op == CmpOp::Eq) else { continue };
            let assigned = [(&b.lhs, &b.rhs), (&b.rhs, &b.lhs)].into_iter().find_map(|(x, e)| {
                let x = x.as_single_var().filter(|x| !bound[x.index()])?;
                let mut all = true;
                e.for_each_var(&mut |v| all &= bound[v.index()]);
                all.then_some(x)
            });
            if let Some(x) = assigned {
                chosen = Some((ri, PlannedLiteral::Assign { lit: li, var: x }));
                break;
            }
        }

        // Pass 2: otherwise scan the most-bound positive atom.
        if chosen.is_none() {
            let mut best: Option<(usize, usize)> = None; // (remaining-idx, score)
            for (ri, &li) in remaining.iter().enumerate() {
                let lit = &rule.body[li];
                if !lit.positive || matches!(lit.atom, Atom::Cmp(_)) {
                    continue;
                }
                let score = bound_positions(&lit.atom, &bound);
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((ri, score));
                }
            }
            if let Some((ri, _)) = best {
                chosen = Some((ri, PlannedLiteral::Scan(remaining[ri])));
            }
        }

        match chosen {
            Some((ri, step)) => {
                remaining.swap_remove(ri);
                match step {
                    PlannedLiteral::Scan(li) => {
                        let atom = &rule.body[li].atom;
                        atom.for_each_var(|v| bound[v.index()] = true);
                        if let Some(v) = atom_vid_var(atom) {
                            vid_bound[v.index()] = true;
                        }
                    }
                    PlannedLiteral::Assign { var, .. } => bound[var.index()] = true,
                    PlannedLiteral::Check(_) => {}
                }
                steps.push(step);
            }
            None => {
                // Name the variables that can never be bound, each
                // literal's once, in variable order.
                let mut stuck: Vec<String> = Vec::new();
                for &li in &remaining {
                    let mut vars = Vec::new();
                    rule.body[li].atom.for_each_var(|v| vars.push(v));
                    vars.sort_unstable();
                    vars.dedup();
                    let unbound = vars.into_iter().filter(|v| !bound[v.index()]);
                    stuck.extend(unbound.map(|v| rule.vars.name(v).to_owned()));
                }
                stuck.extend(
                    remaining
                        .iter()
                        .filter_map(|&li| atom_vid_var(&rule.body[li].atom))
                        .filter(|v| !vid_bound[v.index()])
                        .map(|v| format!("${}", rule.vid_vars.name(VarId(v.0)))),
                );
                return Err(format!(
                    "cannot bind variable(s) {:?}: negated literals and built-ins require \
                     their variables to be bound by positive version- or update-terms",
                    stuck
                ));
            }
        }
    }

    // Head variables must now be bound.
    let mut unbound_head = Vec::new();
    rule.head.for_each_var(|v| {
        if !bound[v.index()] {
            unbound_head.push(v);
        }
    });
    unbound_head.sort_unstable();
    unbound_head.dedup();
    let unbound_head: Vec<&str> = unbound_head.into_iter().map(|v| rule.vars.name(v)).collect();
    if !unbound_head.is_empty() {
        return Err(format!("head variable(s) {unbound_head:?} are not bound by the body"));
    }

    Ok(RulePlan { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Program;

    fn plan_of(src: &str) -> RulePlan {
        Program::parse(src).unwrap().rules.pop_if_single()
    }

    trait PopSingle {
        fn pop_if_single(self) -> RulePlan;
    }
    impl PopSingle for Vec<crate::ast::Rule> {
        fn pop_if_single(mut self) -> RulePlan {
            assert_eq!(self.len(), 1);
            self.pop().unwrap().plan
        }
    }

    #[test]
    fn salary_rule_plan_orders_assign_last() {
        let plan = plan_of("mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.");
        assert_eq!(plan.steps.len(), 3);
        // The assignment must come after the scan that binds S.
        let assign_pos =
            plan.steps.iter().position(|s| matches!(s, PlannedLiteral::Assign { .. })).unwrap();
        let scan_sal =
            plan.steps.iter().position(|s| matches!(s, PlannedLiteral::Scan(1))).unwrap();
        assert!(assign_pos > scan_sal);
    }

    #[test]
    fn negation_is_scheduled_after_binding() {
        let p = Program::parse(
            "ins[mod(E)].isa -> hpe <= not del[mod(E)].isa -> empl & mod(E).isa -> empl / sal -> S & S > 4500.",
        )
        .unwrap();
        let plan = &p.rules[0].plan;
        // The negated literal (body index 0) must be evaluated after E is
        // bound by a scan.
        let neg_pos = plan.steps.iter().position(|s| *s == PlannedLiteral::Check(0)).unwrap();
        let first_scan =
            plan.steps.iter().position(|s| matches!(s, PlannedLiteral::Scan(_))).unwrap();
        assert!(neg_pos > first_scan);
    }

    #[test]
    fn unbound_head_variable_is_unsafe() {
        let err = Program::parse("ins[E].a -> R <= E.p -> 1.").unwrap_err();
        assert!(err.to_string().contains("R"), "got: {err}");
    }

    #[test]
    fn unbound_negated_variable_is_unsafe() {
        let err = Program::parse("ins[e].a -> 1 <= not X.p -> 1.").unwrap_err();
        assert!(err.to_string().contains("X"), "got: {err}");
    }

    #[test]
    fn circular_assignments_are_unsafe() {
        let err = Program::parse("ins[e].a -> 1 <= X = Y + 1 & Y = X + 1.").unwrap_err();
        assert!(err.to_string().to_lowercase().contains("cannot bind"), "got: {err}");
    }

    #[test]
    fn equality_scheduled_as_test_or_assign() {
        // The planner may either bind Y := X (assignment) and scan
        // E.b -> Y with Y bound, or scan both and test X = Y; both are
        // correct. It must schedule literal 2 somehow.
        let p = Program::parse("ins[E].eq -> yes <= E.a -> X & E.b -> Y & X = Y.").unwrap();
        let plan = &p.rules[0].plan;
        assert!(plan.steps.iter().any(|s| matches!(
            s,
            PlannedLiteral::Check(2) | PlannedLiteral::Assign { lit: 2, .. }
        )));
        assert_eq!(plan.steps.len(), 3);
    }

    #[test]
    fn reversed_assignment_direction() {
        // expr = X binds X too.
        let p = Program::parse("ins[E].twice -> T <= E.v -> V & V * 2 = T.").unwrap();
        let plan = &p.rules[0].plan;
        assert!(plan.steps.iter().any(|s| matches!(s, PlannedLiteral::Assign { lit: 1, .. })));
    }

    #[test]
    fn update_facts_have_empty_plans() {
        let p = Program::parse("ins[henry].isa -> empl.").unwrap();
        assert!(p.rules[0].plan.steps.is_empty());
    }

    #[test]
    fn ground_negated_literal_is_fine() {
        let p = Program::parse("ins[e].a -> 1 <= not e.p -> 1.").unwrap();
        assert_eq!(p.rules[0].plan.steps, vec![PlannedLiteral::Check(0)]);
    }

    #[test]
    fn scan_prefers_bound_base() {
        // After scanning E.boss -> B, the second atom should be scanned
        // with its base bound (B), before the unrelated open scan.
        let p = Program::parse(
            "ins[E].flag -> 1 <= E.boss -> B & B.sal -> S & Other.unrelated -> U & S > 10 & U > 0.",
        )
        .unwrap();
        let plan = &p.rules[0].plan;
        let pos_b = plan.steps.iter().position(|s| *s == PlannedLiteral::Scan(1)).unwrap();
        let pos_other = plan.steps.iter().position(|s| *s == PlannedLiteral::Scan(2)).unwrap();
        assert!(pos_b < pos_other, "plan: {:?}", plan.steps);
    }
}
