//! §2.3's recursive ancestors: set-valued methods and recursion through
//! `ins(X)` versions, checked against a ground-truth transitive closure
//! and against the Datalog baseline.
//!
//! ```sh
//! cargo run --example ancestors
//! ```

use ruvo::datalog::{evaluate, parse_program as parse_dl, Semantics};
use ruvo::prelude::*;
use ruvo::workload::{ancestors_program, Family, FamilyConfig};

fn main() {
    let family = Family::generate(FamilyConfig {
        generations: 5,
        per_generation: 8,
        parents_per_person: 2,
        seed: 11,
    });
    println!(
        "family: {} persons over {} generations, {} parent edges",
        family.population(),
        family.generations.len(),
        family.edges.len()
    );

    let mut rdb = Database::open(family.ob.clone());
    let closure = rdb.prepare_program(ancestors_program()).expect("stratifiable");
    rdb.apply(&closure).expect("runs");
    let outcome = &rdb.last_txn().expect("committed").outcome;
    let ob2 = rdb.current();

    // Check every person against the ground-truth closure.
    let expected = family.expected_ancestors();
    for gen in &family.generations {
        for &p in gen {
            let mut got = ob2.lookup1(p, "anc");
            got.sort();
            let mut want: Vec<Const> = expected[&p].iter().copied().collect();
            want.sort();
            assert_eq!(got, want, "ancestors of {p}");
        }
    }
    println!("ancestor sets match the transitive closure ✓");

    // Cross-check cardinalities against the Datalog baseline.
    let mut db = family.as_datalog();
    let baseline = parse_dl(
        "anc(X, P) <= parents(X, P).
         anc(X, P) <= anc(X, A) & parents(A, P).",
    )
    .expect("baseline parses");
    let report = evaluate(&mut db, &baseline, Semantics::Modules, 10_000);
    let baseline_pairs = db.arity_count(sym("anc"));
    let ruvo_pairs: usize =
        family.generations.iter().flatten().map(|&p| ob2.lookup1(p, "anc").len()).sum();
    assert_eq!(baseline_pairs, ruvo_pairs);
    println!(
        "baseline agrees: {baseline_pairs} ancestor pairs (semi-naive, {} rounds)",
        report.rounds
    );

    let deepest = family.generations.last().unwrap()[0];
    println!(
        "sample: {deepest} has {} ancestors; evaluation took {} rounds total",
        ob2.lookup1(deepest, "anc").len(),
        outcome.stats().rounds
    );
}
