//! A table-driven catalog of programs against the §4 stratification:
//! expected strata shapes for accepted programs, expected offending
//! conditions for rejected ones.

use ruvo::core::stratify::stratify;
use ruvo::core::Condition;
use ruvo::prelude::*;

fn strata_of(src: &str) -> Result<Vec<Vec<String>>, Condition> {
    let program = Program::parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\n{src}"));
    match stratify(&program) {
        Ok(s) => Ok(s
            .strata
            .iter()
            .map(|st| st.iter().map(|&r| s.rule_names[r].clone()).collect())
            .collect()),
        Err(e) => Err(e.condition),
    }
}

fn names(groups: &[&[&str]]) -> Vec<Vec<String>> {
    groups.iter().map(|g| g.iter().map(|s| s.to_string()).collect()).collect()
}

#[test]
fn accepted_programs() {
    let cases: Vec<(&str, Vec<Vec<String>>)> = vec![
        // Update-facts only: one stratum.
        ("a: ins[x].p -> 1. b: del[y].q -> 2.", names(&[&["a", "b"]])),
        // Chain of distinct kinds via (a).
        (
            "a: mod[o].p -> (1, 2) <= o.p -> 1.
             b: ins[mod(o)].q -> 3 <= mod(o).p -> 2.
             c: del[ins(mod(o))].q -> 3 <= ins(mod(o)).q -> 3.",
            names(&[&["a"], &["b"], &["c"]]),
        ),
        // Positive same-kind recursion shares a stratum (b).
        (
            "base: ins[X].r -> Y <= X.e -> Y.
             step: ins[X].r -> Z <= ins(X).r -> Y & Y.e -> Z.",
            names(&[&["base", "step"]]),
        ),
        // Negation on a *different* version forces separation (c).
        (
            "mk: ins[X].flag -> 1 <= X.seed -> 1.
             use: del[Y].seed -> 1 <= Y.seed -> 1 & not ins(Y).flag -> 1.",
            names(&[&["mk"], &["use"]]),
        ),
        // (d): a del-reader sits above the del-writer.
        (
            "w: del[X].p -> 1 <= X.kill -> 1 & X.p -> 1.
             r: ins[audit].saw -> X <= del(X).exists -> X.",
            names(&[&["w"], &["r"]]),
        ),
        // Two independent update pipelines interleave freely.
        (
            "a1: mod[x].p -> (1, 2) <= x.p -> 1.
             b1: mod[y].q -> (1, 2) <= y.q -> 1.
             a2: ins[mod(x)].done -> 1 <= mod(x).p -> 2.
             b2: ins[mod(y)].done -> 1 <= mod(y).q -> 2.",
            names(&[&["a1", "b1"], &["a2", "b2"]]),
        ),
        // Body update-terms (not just version-terms) drive (c)+(d).
        (
            "fire: del[mod(E)].* <= mod(E).bad -> 1.
             raise: mod[E].sal -> (S, S2) <= E.sal -> S & S2 = S + 1.
             audit: ins[log].fired -> E <= del[mod(E)].bad -> 1.",
            names(&[&["raise"], &["fire"], &["audit"]]),
        ),
    ];
    for (src, want) in cases {
        assert_eq!(strata_of(src), Ok(want), "program:\n{src}");
    }
}

#[test]
fn rejected_programs() {
    let cases: Vec<(&str, Condition)> = vec![
        // (c): rule negating the version it extends (any method).
        ("r: ins[X].p -> 1 <= X.q -> 1 & not ins(X).z -> 1.", Condition::C),
        // (c): negation cycle through two versions.
        (
            "r1: ins[X].p -> 1 <= X.o -> 1 & not del(X).q -> 1.
             r2: del[X].q -> 1 <= X.o -> 1 & not ins(X).p -> 1.",
            Condition::C,
        ),
        // (d): reading the version your own head deletes from.
        ("r: del[mod(E)].p -> 1 <= del(mod(E)).q -> 1.", Condition::D),
        // (d): mutual read/delete between two del-versions.
        (
            "r1: del[X].p -> 1 <= del(Y).marker -> X & X.p -> 1.
             r2: del[Y].p -> 1 <= del(X).marker -> Y & Y.p -> 1.",
            Condition::D,
        ),
        // (a): a rule whose head target's subterm is producible by a
        // rule that itself depends on the producer's output — copy
        // source would keep changing.
        (
            "grow: ins[X].n -> 1 <= ins(ins(X)).m -> 1.
             wrap: ins[ins(X)].m -> 1 <= ins(X).n -> 1.",
            Condition::A,
        ),
    ];
    for (src, want) in cases {
        match strata_of(src) {
            Err(got) => assert_eq!(got, want, "program:\n{src}"),
            Ok(strata) => panic!("expected rejection via {want:?}, got strata {strata:?}:\n{src}"),
        }
    }
}

/// The conditions reported by `explain` (edges) are complete enough to
/// justify every inter-stratum boundary of the enterprise program.
#[test]
fn edges_justify_strata() {
    let program = ruvo::workload::enterprise_program();
    let s = stratify(&program).unwrap();
    // For every pair of rules in different strata with lower < upper,
    // if any edge connects them it must point upward.
    for e in &s.edges {
        let (lo, hi) = (s.stratum_of(e.from), s.stratum_of(e.to));
        assert!(lo <= hi, "edge {e:?} points downward");
        if e.strict {
            assert!(lo < hi, "strict edge {e:?} not separated");
        }
    }
}
