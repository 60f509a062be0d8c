//! Temporal queries over version timelines (§6).
//!
//! "Our version-based approach has temporal characteristics. The
//! investigation of the relationship to temporal logics seems to be an
//! interesting field for further research." — this module makes the
//! relationship executable. An object's update history is a *finite
//! linear trace*: state `k` is the object's version after `k` updates
//! (state 0 is the initial version). Atomic propositions are ground
//! method-applications; over them we evaluate a propositional linear
//! temporal logic with both future operators (next / always /
//! eventually / until) and past operators (previously / historically /
//! once / since), under the usual finite-trace (LTLf) semantics:
//!
//! * `Next φ` is false in the last state (there is no next),
//! * `Until` is *strong* (the right operand must eventually hold),
//! * past operators mirror them towards state 0.
//!
//! The trace is materialized by [`Timeline::of`] from a `result(P)`
//! store — the same data [`mod@crate::history`] diffs, but with full
//! per-step states so point queries are O(1) set lookups.

use ruvo_obase::{Args, ObjectBase, VersionState};
use ruvo_term::{Const, FastHashSet, Symbol, UpdateKind, Vid};

/// A ground method-application as a temporal proposition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FactProp {
    /// Method name.
    pub method: Symbol,
    /// Ground arguments.
    pub args: Args,
    /// Result.
    pub result: Const,
}

impl FactProp {
    /// A proposition for a no-argument method-application.
    pub fn new(method: Symbol, result: Const) -> FactProp {
        FactProp { method, args: Args::empty(), result }
    }
}

/// A temporal formula over one object's timeline.
#[derive(Clone, Debug)]
pub enum Formula {
    /// The ground method-application holds in the current state.
    Fact(FactProp),
    /// Truth constant.
    True,
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// `X φ`: φ holds in the next state (false in the last state).
    Next(Box<Formula>),
    /// `Y φ`: φ held in the previous state (false in state 0).
    Prev(Box<Formula>),
    /// `G φ`: φ holds from here to the end of the trace.
    Always(Box<Formula>),
    /// `F φ`: φ holds somewhere from here to the end of the trace.
    Eventually(Box<Formula>),
    /// `H φ`: φ held in every state from 0 up to here.
    Historically(Box<Formula>),
    /// `O φ`: φ held in some state from 0 up to here.
    Once(Box<Formula>),
    /// `φ U ψ` (strong): ψ eventually holds, and φ holds until then.
    Until(Box<Formula>, Box<Formula>),
    /// `φ S ψ`: ψ held at some earlier-or-equal state, and φ has held
    /// since (the past mirror of until).
    Since(Box<Formula>, Box<Formula>),
}

impl Formula {
    /// Convenience: a no-argument fact proposition.
    pub fn fact(method: Symbol, result: Const) -> Formula {
        Formula::Fact(FactProp::new(method, result))
    }

    /// `self ∧ rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// `self ∨ rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// `F self`.
    pub fn eventually(self) -> Formula {
        Formula::Eventually(Box::new(self))
    }

    /// `G self`.
    pub fn always(self) -> Formula {
        Formula::Always(Box::new(self))
    }

    /// `self U rhs`.
    pub fn until(self, rhs: Formula) -> Formula {
        Formula::Until(Box::new(self), Box::new(rhs))
    }

    /// `self S rhs`.
    pub fn since(self, rhs: Formula) -> Formula {
        Formula::Since(Box::new(self), Box::new(rhs))
    }
}

/// One state of a timeline: the version and its full method-application
/// set.
#[derive(Clone, Debug)]
pub struct TimelineState {
    /// The version this state belongs to.
    pub vid: Vid,
    /// The update kind that produced it (`None` for state 0).
    pub kind: Option<UpdateKind>,
    facts: FastHashSet<FactProp>,
}

impl TimelineState {
    /// True if the ground method-application holds in this state.
    pub fn holds(&self, prop: &FactProp) -> bool {
        self.facts.contains(prop)
    }

    /// Iterate this state's propositions (unordered).
    pub fn facts(&self) -> impl Iterator<Item = &FactProp> {
        self.facts.iter()
    }

    /// Number of method-applications in this state.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True for a fully deleted state.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }
}

/// The materialized finite trace of one object's update process.
#[derive(Clone, Debug)]
pub struct Timeline {
    /// The object.
    pub base: Const,
    states: Vec<TimelineState>,
}

fn state_props(state: Option<&VersionState>) -> FastHashSet<FactProp> {
    let apps = state.into_iter().flat_map(VersionState::iter);
    apps.map(|(method, app)| FactProp { method, args: app.args.clone(), result: app.result })
        .collect()
}

impl Timeline {
    /// Materialize the timeline of `base` from a `result(P)` store: the
    /// versions [`mod@crate::history`] diffs, intermediate versions
    /// skipped by `v*` fallback elided. Returns `None` for unknown
    /// objects or non-version-linear stores.
    pub fn of(result: &ObjectBase, base: Const) -> Option<Timeline> {
        let states = crate::history::timeline(result, base)?
            .into_iter()
            .map(|(vid, state)| TimelineState {
                vid,
                kind: vid.chain().outermost(),
                facts: state_props(state),
            })
            .collect();
        Some(Timeline { base, states })
    }

    /// Number of states (updates + 1).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True if the timeline has no states (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state after `step` updates.
    pub fn state(&self, step: usize) -> Option<&TimelineState> {
        self.states.get(step)
    }

    /// All states in order.
    pub fn states(&self) -> &[TimelineState] {
        &self.states
    }

    /// "As of" point query: does the method-application hold after
    /// `step` updates?
    pub fn holds_at(&self, step: usize, prop: &FactProp) -> bool {
        self.states.get(step).is_some_and(|s| s.holds(prop))
    }

    /// The maximal intervals `[from, to)` of consecutive states in
    /// which `prop` holds.
    pub fn intervals(&self, prop: &FactProp) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for (i, s) in self.states.iter().enumerate() {
            match (s.holds(prop), start) {
                (true, None) => start = Some(i),
                (false, Some(from)) => {
                    out.push((from, i));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(from) = start {
            out.push((from, self.states.len()));
        }
        out
    }

    /// The steps (> 0) at which the set of applications of `method`
    /// changed relative to the previous state.
    pub fn changed_at(&self, method: Symbol) -> Vec<usize> {
        let apps = |s: &TimelineState| -> Vec<(Args, Const)> {
            let mut v: Vec<(Args, Const)> = s
                .facts
                .iter()
                .filter(|p| p.method == method)
                .map(|p| (p.args.clone(), p.result))
                .collect();
            v.sort();
            v
        };
        (1..self.states.len())
            .filter(|&i| apps(&self.states[i - 1]) != apps(&self.states[i]))
            .collect()
    }

    /// Evaluate a temporal formula at state `step` (LTLf semantics).
    ///
    /// Out-of-range steps evaluate every formula to false.
    pub fn eval(&self, step: usize, formula: &Formula) -> bool {
        if step >= self.states.len() {
            return false;
        }
        match formula {
            Formula::True => true,
            Formula::Fact(p) => self.states[step].holds(p),
            Formula::Not(f) => !self.eval(step, f),
            Formula::And(a, b) => self.eval(step, a) && self.eval(step, b),
            Formula::Or(a, b) => self.eval(step, a) || self.eval(step, b),
            Formula::Next(f) => step + 1 < self.states.len() && self.eval(step + 1, f),
            Formula::Prev(f) => step > 0 && self.eval(step - 1, f),
            Formula::Always(f) => (step..self.states.len()).all(|k| self.eval(k, f)),
            Formula::Eventually(f) => (step..self.states.len()).any(|k| self.eval(k, f)),
            Formula::Historically(f) => (0..=step).all(|k| self.eval(k, f)),
            Formula::Once(f) => (0..=step).any(|k| self.eval(k, f)),
            Formula::Until(a, b) => (step..self.states.len())
                .any(|k| self.eval(k, b) && (step..k).all(|j| self.eval(j, a))),
            Formula::Since(a, b) => {
                (0..=step).rev().any(|k| self.eval(k, b) && (k + 1..=step).all(|j| self.eval(j, a)))
            }
        }
    }

    /// Evaluate a formula in the *initial* state — "was this true of
    /// the whole update process".
    pub fn check(&self, formula: &Formula) -> bool {
        self.eval(0, formula)
    }
}

/// `¬self` via the `!` operator (also usable as `formula.not()` with
/// `std::ops::Not` in scope).
impl std::ops::Not for Formula {
    type Output = Formula;

    fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }
}

/// Build a [`FactProp`] from parts (convenience for callers outside
/// the crate).
pub fn prop(method: Symbol, args: Vec<Const>, result: Const) -> FactProp {
    FactProp { method, args: Args::new(args), result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use ruvo_lang::Program;
    use ruvo_obase::ObjectBase;
    use ruvo_term::{int, oid, sym};

    fn evaluate(db: &Database, program: Program) -> crate::Outcome {
        db.evaluate(&db.prepare_program(program).unwrap()).unwrap()
    }

    /// bob: hired at 4200, raised to 4620, then fired (all deleted).
    fn bob_timeline() -> Timeline {
        let ob = ObjectBase::parse(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
        )
        .unwrap();
        let program = Program::parse(
            "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
             rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
             rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
             rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        )
        .unwrap();
        let outcome = evaluate(&Database::open(ob), program);
        Timeline::of(outcome.result(), oid("bob")).unwrap()
    }

    #[test]
    fn states_and_point_queries() {
        let t = bob_timeline();
        // bob: initial, mod (raise), del (fired).
        assert_eq!(t.len(), 3);
        assert_eq!(t.state(1).unwrap().kind, Some(UpdateKind::Mod));
        assert_eq!(t.state(2).unwrap().kind, Some(UpdateKind::Del));
        let sal_old = FactProp::new(sym("sal"), int(4200));
        let sal_new = FactProp::new(sym("sal"), int(4620));
        assert!(t.holds_at(0, &sal_old));
        assert!(!t.holds_at(0, &sal_new));
        assert!(t.holds_at(1, &sal_new));
        assert!(!t.holds_at(2, &sal_new));
        assert!(t.state(2).unwrap().is_empty());
    }

    #[test]
    fn intervals_and_change_steps() {
        let t = bob_timeline();
        let empl = FactProp::new(sym("isa"), oid("empl"));
        assert_eq!(t.intervals(&empl), vec![(0, 2)]);
        let sal_new = FactProp::new(sym("sal"), int(4620));
        assert_eq!(t.intervals(&sal_new), vec![(1, 2)]);
        assert_eq!(t.changed_at(sym("sal")), vec![1, 2]);
        assert_eq!(t.changed_at(sym("boss")), vec![2]);
        assert_eq!(t.changed_at(sym("nonexistent")), Vec::<usize>::new());
    }

    #[test]
    fn future_operators() {
        let t = bob_timeline();
        let empl = Formula::fact(sym("isa"), oid("empl"));
        let raised = Formula::fact(sym("sal"), int(4620));
        // bob was eventually raised, but not always an employee.
        assert!(t.check(&raised.clone().eventually()));
        assert!(!t.check(&empl.clone().always()));
        // He stayed an employee *until* the raise.
        assert!(t.check(&empl.clone().until(raised.clone())));
        // Strong until: nothing satisfies `raised until never`.
        let never = Formula::fact(sym("sal"), int(-1));
        assert!(!t.check(&raised.clone().until(never)));
        // Next in the last state is false.
        assert!(!t.eval(2, &Formula::Next(Box::new(Formula::True))));
        assert!(t.eval(1, &Formula::Next(Box::new(!empl.clone()))));
    }

    #[test]
    fn past_operators() {
        let t = bob_timeline();
        let empl = Formula::fact(sym("isa"), oid("empl"));
        let sal_old = Formula::fact(sym("sal"), int(4200));
        // At the final state, bob was once an employee but is not now.
        assert!(t.eval(2, &Formula::Once(Box::new(empl.clone()))));
        assert!(t.eval(2, &!empl.clone()));
        // Historically an employee holds at state 1, not at state 2.
        assert!(t.eval(1, &Formula::Historically(Box::new(empl.clone()))));
        assert!(!t.eval(2, &Formula::Historically(Box::new(empl.clone()))));
        // Since: at state 1, "employee since the original salary held".
        assert!(t.eval(1, &empl.clone().since(sal_old.clone())));
        // Prev at state 0 is false.
        assert!(!t.eval(0, &Formula::Prev(Box::new(Formula::True))));
        assert!(t.eval(1, &Formula::Prev(Box::new(sal_old))));
    }

    #[test]
    fn until_equivalences() {
        // F φ ≡ true U φ, and G φ ≡ ¬F¬φ — check on a real trace.
        let t = bob_timeline();
        for step in 0..t.len() {
            for target in [
                Formula::fact(sym("isa"), oid("empl")),
                Formula::fact(sym("sal"), int(4620)),
                Formula::fact(sym("boss"), oid("phil")),
            ] {
                let f = Formula::Eventually(Box::new(target.clone()));
                let u = Formula::True.until(target.clone());
                assert_eq!(t.eval(step, &f), t.eval(step, &u), "step {step}");
                let g = Formula::Always(Box::new(target.clone()));
                let gn = !Formula::Eventually(Box::new(!target.clone()));
                assert_eq!(t.eval(step, &g), t.eval(step, &gn), "step {step}");
            }
        }
    }

    #[test]
    fn as_of_on_untouched_object() {
        let ob = ObjectBase::parse("a.p -> 1.").unwrap();
        let outcome = evaluate(&Database::open(ob), Program::parse("").unwrap());
        let t = Timeline::of(outcome.result(), oid("a")).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.holds_at(0, &FactProp::new(sym("p"), int(1))));
        assert!(!t.holds_at(1, &FactProp::new(sym("p"), int(1))));
    }

    #[test]
    fn non_linear_store_yields_none() {
        let ob = ObjectBase::parse("o.m -> a. mod(o).m -> b. ins(o).m -> a. ins(o).extra -> 1.")
            .unwrap();
        assert!(Timeline::of(&ob, oid("o")).is_none());
    }

    #[test]
    fn elided_intermediate_versions() {
        let ob = ObjectBase::parse("o.p -> 1. o.q -> 2.").unwrap();
        let program = Program::parse("d: del[mod(o)].p -> 1 <= o.p -> 1.").unwrap();
        let outcome = evaluate(&Database::open(ob), program);
        let t = Timeline::of(outcome.result(), oid("o")).unwrap();
        // o → del(mod(o)); mod(o) never existed and is elided.
        assert_eq!(t.len(), 2);
        assert_eq!(t.state(1).unwrap().vid.depth(), 2);
        assert!(t.holds_at(1, &FactProp::new(sym("q"), int(2))));
        assert!(!t.holds_at(1, &FactProp::new(sym("p"), int(1))));
    }
}
