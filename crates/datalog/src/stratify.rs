//! Predicate-level stratification for the baseline dialect.
//!
//! Classic stratified Datalog¬ (cf. \[Ull88\]): build the predicate
//! dependency graph — an edge `p → q` whenever `q`'s rules read `p`,
//! strict when the read is negated or when a rule *deletes* from `q`
//! while reading `p` (deletion is treated like negation: the deleting
//! rule must see its input relations completed). Programs with a
//! strict edge on a cycle are rejected.
//!
//! This gives the baseline an *automatic* module order
//! ([`auto_stratify`]), so tests can compare three levels of control:
//! manual modules (Logres), automatic predicate stratification (plain
//! stratified Datalog¬ — which rejects the enterprise update because
//! `sal` is both read and deleted through a cycle), and none
//! (collapsed/inflationary).

use ruvo_term::{FastHashMap, FastHashSet, Symbol};

use crate::ast::{DlLiteral, DlProgram, DlRule, Module};

/// The program has no predicate-level stratification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotStratifiable {
    /// Predicates on the offending cycle.
    pub cycle: Vec<String>,
}

impl std::fmt::Display for NotStratifiable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "baseline program is not predicate-stratifiable: cycle through {{{}}} \
             contains a negated or deleting dependency",
            self.cycle.join(", ")
        )
    }
}

impl std::error::Error for NotStratifiable {}

/// The predicate a rule defines (inserts into or deletes from).
fn head_pred(rule: &DlRule) -> Symbol {
    rule.head.atom().pred
}

/// Compute a stratification of all rules (ignoring existing module
/// boundaries) and return the program re-packaged as one module per
/// stratum.
pub fn auto_stratify(program: &DlProgram) -> Result<DlProgram, NotStratifiable> {
    let rules: Vec<DlRule> = program.modules.iter().flat_map(|m| m.rules.iter().cloned()).collect();

    // Dependency edges between predicates: (from, to, strict).
    let mut preds: FastHashSet<Symbol> = FastHashSet::default();
    let mut edges: FastHashSet<(Symbol, Symbol, bool)> = FastHashSet::default();
    for rule in &rules {
        let head = head_pred(rule);
        preds.insert(head);
        let deleting = rule.head.is_delete();
        for lit in &rule.body {
            if let DlLiteral::Atom { positive, atom } = lit {
                preds.insert(atom.pred);
                // A deleting rule's reads are strict: the deletion must
                // not race the production of its inputs. Reading the
                // *deleted predicate itself* is exempt — a delete rule
                // naturally reads its own target, and monotone
                // shrinking converges within the module fixpoint.
                let strict = !positive || (deleting && atom.pred != head);
                edges.insert((atom.pred, head, strict));
            }
        }
    }

    // Stratum numbers via iterated relaxation (Datalog¬ textbook
    // algorithm); n·e iterations bound, failure = negative cycle.
    let mut stratum: FastHashMap<Symbol, usize> = preds.iter().map(|&p| (p, 0usize)).collect();
    let bound = preds.len().max(1);
    for _ in 0..=bound {
        let mut changed = false;
        for &(from, to, strict) in &edges {
            let need = stratum[&from] + usize::from(strict);
            if stratum[&to] < need {
                stratum.insert(to, need);
                changed = true;
            }
        }
        if !changed {
            break;
        }
        if stratum.values().any(|&s| s > bound) {
            // A strict edge on a cycle pumps strata beyond the bound;
            // report the predicates at the frontier.
            let mut cycle: Vec<String> =
                stratum.iter().filter(|(_, &s)| s > bound).map(|(p, _)| p.to_string()).collect();
            cycle.sort();
            return Err(NotStratifiable { cycle });
        }
    }

    // Rules go to the stratum of their head predicate.
    let max = stratum.values().copied().max().unwrap_or(0);
    let mut modules: Vec<Module> = (0..=max)
        .map(|i| Module { rules: Vec::new(), name: Some(format!("stratum{i}")) })
        .collect();
    for rule in rules {
        let s = stratum[&head_pred(&rule)];
        modules[s].rules.push(rule);
    }
    modules.retain(|m| !m.rules.is_empty());
    Ok(DlProgram { modules })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_db, parse_program};
    use crate::{evaluate, Semantics};
    use ruvo_term::{oid, sym};

    #[test]
    fn negation_orders_strata() {
        let p = parse_program(
            "reach(X) <= edge(a, X).
             reach(Y) <= reach(X) & edge(X, Y).
             unreach(X) <= node(X) & not reach(X).",
        )
        .unwrap();
        let s = auto_stratify(&p).unwrap();
        assert_eq!(s.modules.len(), 2);
        // The negation consumer is in the later module.
        assert!(s.modules[1].rules.iter().any(|r| head_pred(r) == sym("unreach")));

        let mut db = parse_db("node(a). node(b). node(c). edge(a, b).").unwrap();
        evaluate(&mut db, &s, Semantics::Modules, 1_000);
        assert!(db.contains(sym("unreach"), &[oid("c")]));
        assert!(!db.contains(sym("unreach"), &[oid("b")]));
    }

    #[test]
    fn positive_recursion_shares_a_stratum() {
        let p = parse_program(
            "path(X, Y) <= edge(X, Y).
             path(X, Z) <= path(X, Y) & edge(Y, Z).",
        )
        .unwrap();
        let s = auto_stratify(&p).unwrap();
        assert_eq!(s.modules.len(), 1);
    }

    #[test]
    fn negation_cycle_rejected() {
        let p = parse_program("win(X) <= move(X, Y) & not win(Y).").unwrap();
        let err = auto_stratify(&p).unwrap_err();
        assert!(err.cycle.contains(&"win".to_string()), "got: {err}");
    }

    #[test]
    fn deletion_counts_as_strict() {
        // del sal reads sal2 which reads sal: strict cycle → rejected.
        // This is exactly why the enterprise baseline NEEDS manual
        // modules (or ruvo's version identities).
        let p = parse_program(
            "sal2(E, S2) <= sal(E, S) & S2 = S * 2 .
             del sal(E, S) <= sal(E, S) & sal2(E, S2) & S != S2 .
             sal(E, S2) <= sal2(E, S2) .",
        )
        .unwrap();
        let err = auto_stratify(&p).unwrap_err();
        assert!(err.cycle.iter().any(|p| p == "sal" || p == "sal2"), "got: {err}");
    }

    #[test]
    fn acyclic_deletion_is_accepted_and_ordered() {
        let p = parse_program(
            "flagged(E) <= bad(E).
             del empl(E) <= flagged(E) & empl(E).",
        )
        .unwrap();
        let s = auto_stratify(&p).unwrap();
        assert_eq!(s.modules.len(), 2);
        let mut db = parse_db("empl(a). empl(b). bad(a).").unwrap();
        evaluate(&mut db, &s, Semantics::Modules, 100);
        assert!(!db.contains(sym("empl"), &[oid("a")]));
        assert!(db.contains(sym("empl"), &[oid("b")]));
    }

    #[test]
    fn facts_only_program() {
        let p = parse_program("p(1). q(2).").unwrap();
        let s = auto_stratify(&p).unwrap();
        assert_eq!(s.modules.len(), 1);
    }
}
