//! Cross-validation of the versioned engine against the independent
//! Datalog baseline on insert-only workloads.
//!
//! The random insert programs only read *initial* versions in their
//! bodies (`X.m -> R`, bare OIDs), so they have an exact Datalog
//! translation: method `m` becomes a binary EDB predicate `m(X, R)`,
//! each rule derives into a fresh IDB predicate `d_m`, and the final
//! method extension is `m ∪ d_m`. Any disagreement between the two
//! engines is a bug in one of them.

use ruvo::datalog::{evaluate, DlAtom, DlHead, DlLiteral, DlProgram, DlRule, DlTerm, Semantics};
use ruvo::prelude::*;
use ruvo::workload::{random_insert_program, random_object_base, RandomConfig};
use ruvo_lang::{Atom, UpdateSpec};
use ruvo_term::BaseTerm;

fn to_dl_term(t: BaseTerm) -> DlTerm {
    match t {
        BaseTerm::Var(v) => DlTerm::Var(v),
        BaseTerm::Const(c) => DlTerm::Const(c),
    }
}

/// Translate one insert-only rule into the baseline dialect.
fn translate_rule(rule: &ruvo_lang::Rule) -> DlRule {
    let UpdateSpec::Ins { method, result, .. } = &rule.head.spec else {
        panic!("cross-check only covers insert-only programs");
    };
    let head = DlHead::Insert(DlAtom {
        pred: sym(&format!("d_{method}")),
        terms: vec![to_dl_term(rule.head.target.base), to_dl_term(*result)],
    });
    let body = rule
        .body
        .iter()
        .map(|lit| {
            let Atom::Version(va) = &lit.atom else {
                panic!("random insert programs have version-term bodies only");
            };
            let vid = va.vid.as_term().expect("no VID variables in random insert programs");
            assert!(vid.chain.is_empty(), "bodies read initial versions only");
            assert!(lit.positive);
            DlLiteral::pos(DlAtom {
                pred: va.method,
                terms: vec![to_dl_term(vid.base), to_dl_term(va.result)],
            })
        })
        .collect();
    DlRule { head, body, num_vars: rule.vars.len() }
}

#[test]
fn insert_only_programs_agree_with_datalog() {
    for seed in 0..25u64 {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);

        // ruvo side.
        let mut db = Database::open(ob.clone());
        db.apply_program(program.clone()).unwrap();
        let ob2 = db.current();

        // Datalog side: EDB m(X, R) per method, rules derive d_m.
        let mut db = ruvo::datalog::Database::new();
        for f in ob.iter() {
            assert!(f.args.is_empty());
            db.insert(f.method, vec![f.vid.base(), f.result]);
        }
        let dl = DlProgram::single_module(program.rules.iter().map(translate_rule).collect());
        let report = evaluate(&mut db, &dl, Semantics::Modules, 100_000);
        assert!(!report.oscillated, "seed {seed}");

        // Compare extensions method by method, object by object.
        for method_id in 0..config.methods {
            let m = sym(&format!("m{method_id}"));
            let dm = sym(&format!("d_m{method_id}"));
            let mut datalog_facts: Vec<(Const, Const)> =
                db.tuples(m).chain(db.tuples(dm)).map(|t| (t[0], t[1])).collect();
            datalog_facts.sort();
            datalog_facts.dedup();

            let mut ruvo_facts: Vec<(Const, Const)> =
                ob2.iter().filter(|f| f.method == m).map(|f| (f.vid.base(), f.result)).collect();
            ruvo_facts.sort();

            assert_eq!(ruvo_facts, datalog_facts, "seed {seed}, method m{method_id}");
        }
    }
}

/// The engines also agree on a hand-written multi-hop join program.
#[test]
fn multi_hop_join_agreement() {
    let ob = ObjectBase::parse(
        "a.knows -> b. b.knows -> c. c.knows -> d.
         a.kind -> x. b.kind -> x. c.kind -> y. d.kind -> x.",
    )
    .unwrap();
    let program = Program::parse(
        "two: ins[X].fof -> Z <= X.knows -> Y & Y.knows -> Z.
         sel: ins[X].xfof -> Z <= X.knows -> Y & Y.knows -> Z & Z.kind -> x.",
    )
    .unwrap();
    let mut db = Database::open(ob);
    db.apply_program(program).unwrap();
    let ob2 = db.current();
    assert_eq!(ob2.lookup1(oid("a"), "fof"), vec![oid("c")]);
    assert_eq!(ob2.lookup1(oid("b"), "fof"), vec![oid("d")]);
    assert_eq!(ob2.lookup1(oid("a"), "xfof"), vec![], "c is kind y");
    assert_eq!(ob2.lookup1(oid("b"), "xfof"), vec![oid("d")]);

    let mut db = ruvo::datalog::parser::parse_db(
        "knows(a, b). knows(b, c). knows(c, d).
         kind(a, x). kind(b, x). kind(c, y). kind(d, x).",
    )
    .unwrap();
    let dl = ruvo::datalog::parse_program(
        "fof(X, Z) <= knows(X, Y) & knows(Y, Z).
         xfof(X, Z) <= knows(X, Y) & knows(Y, Z) & kind(Z, x).",
    )
    .unwrap();
    evaluate(&mut db, &dl, Semantics::Modules, 100);
    assert!(db.contains(sym("fof"), &[oid("a"), oid("c")]));
    assert!(db.contains(sym("xfof"), &[oid("b"), oid("d")]));
    assert!(!db.contains(sym("xfof"), &[oid("a"), oid("c")]));
}
