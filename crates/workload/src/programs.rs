//! The paper's example programs, parameterized where useful.

use ruvo_lang::Program;
use ruvo_term::UpdateKind;

/// §2.3's concrete two-person object base (phil the manager, bob whose
/// boss is phil) used by Figure 2.
pub const PAPER_ENTERPRISE_OB: &str = "
    phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
    bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4200.
";

/// §2.1: every employee gets a 10% raise — exactly once.
pub fn salary_raise_program() -> Program {
    Program::parse("raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.")
        .expect("static program parses")
}

/// §2.3's 4-rule enterprise update: raise salaries (managers +$200),
/// fire employees who out-earn a superior, group survivors over $4500
/// into `hpe`.
pub fn enterprise_program() -> Program {
    Program::parse(
        "rule1: mod[E].sal -> (S, S2) <=
             E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
         rule2: mod[E].sal -> (S, S2) <=
             E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
         rule3: del[mod(E)].* <=
             mod(E).isa -> empl / boss -> B / sal -> SE &
             mod(B).isa -> empl / sal -> SB & SE > SB.
         rule4: ins[mod(E)].isa -> hpe <=
             mod(E).isa -> empl / sal -> S & S > 4500 &
             not del[mod(E)].isa -> empl.",
    )
    .expect("static program parses")
}

/// §2.3's hypothetical-reasoning program: raise all salaries by
/// per-employee factors, revert, and record whether `who` would have
/// been the richest employee.
pub fn hypothetical_program(who: &str) -> Program {
    Program::parse(&format!(
        "rule1: mod[E].sal -> (S, S2) <= E.sal -> S / factor -> F & S2 = S * F.
         rule2: mod[mod(E)].sal -> (S2, S) <= mod(E).sal -> S2 & E.sal -> S.
         rule3: ins[mod(mod({who}))].richest -> no <=
             mod(E).sal -> SE & mod({who}).sal -> SP & SE > SP.
         rule4: ins[ins(mod(mod({who})))].richest -> yes <=
             not ins(mod(mod({who}))).richest -> no.",
    ))
    .expect("static program parses")
}

/// §2.3's recursive ancestors with set-valued `anc`/`parents`.
pub fn ancestors_program() -> Program {
    Program::parse(
        "base: ins[X].anc -> P <= X.isa -> person / parents -> P.
         step: ins[X].anc -> P <=
             ins(X).isa -> person / anc -> A & A.isa -> person / parents -> P.",
    )
    .expect("static program parses")
}

/// Figure 1: `k` consecutive groups of basic updates on one object,
/// producing the version chain `φk(...φ1(o))`.
///
/// The driver object base is `o.step -> 0. o.tag0 -> 1.` (see
/// [`chain_object_base`]). Each stage's rule is keyed to the *exact*
/// version-id-term of the previous stage, so condition (a) forces one
/// stratum per stage — precisely the figure's "k consecutive groups of
/// basic updates".
///
/// With `mixed = false` every stage inserts a fresh tag method. With
/// `mixed = true` the kinds cycle `mod, del, ins` (the figure's
/// `ins(del(mod(o)))` narrative): `mod` advances the `step` marker,
/// `ins` pushes a new tag, and `del` deletes the most recently
/// available tag (initially `tag0`).
pub fn chain_program(k: usize, mixed: bool) -> Program {
    assert!((1..=28).contains(&k), "chain length must be in 1..=28");
    let mut src = String::new();
    let mut chain = String::from("o");
    let mut marker = 0u32;
    let mut tags: Vec<String> = vec!["tag0".to_string()];
    for i in 0..k {
        let kind = if mixed {
            [UpdateKind::Mod, UpdateKind::Del, UpdateKind::Ins][i % 3]
        } else {
            UpdateKind::Ins
        };
        match kind {
            UpdateKind::Ins => {
                src.push_str(&format!(
                    "s{i}: ins[{chain}].tag{n} -> 1 <= {chain}.step -> {marker}.\n",
                    n = i + 1
                ));
                tags.push(format!("tag{}", i + 1));
            }
            UpdateKind::Mod => {
                src.push_str(&format!(
                    "s{i}: mod[{chain}].step -> ({marker}, {next}) <= {chain}.step -> {marker}.\n",
                    next = marker + 1
                ));
                marker += 1;
            }
            UpdateKind::Del => {
                let tag = tags.pop().expect("mod/del/ins cycle keeps a tag available");
                src.push_str(&format!(
                    "s{i}: del[{chain}].{tag} -> 1 <= {chain}.step -> {marker}.\n"
                ));
            }
        }
        chain = format!("{}({chain})", kind.keyword());
    }
    Program::parse(&src).expect("generated chain program parses")
}

/// The driver object base for [`chain_program`].
pub fn chain_object_base() -> ruvo_obase::ObjectBase {
    ruvo_obase::ObjectBase::parse("o.step -> 0. o.tag0 -> 1.").expect("static ob parses")
}

/// The Logres-style baseline translation of the enterprise update:
/// compute raises, apply them, fire, then classify — four
/// modules whose *manual* ordering is the control §2.4 describes.
///
/// The shape is instructive in itself: a naive single-module
/// `del sal(E,S) <= sal(E,S) & sal2(E,S2)` would delete the raised
/// values too and oscillate, so the apply module needs the `S != S2`
/// guard — update logic the paper's version identities express
/// implicitly. Collapsing the modules ([`ruvo_datalog::DlProgram::collapsed`])
/// reproduces the fire-before-raise anomaly of §2.4.
pub fn enterprise_baseline_datalog() -> ruvo_datalog::DlProgram {
    ruvo_datalog::parse_program(
        "module raise:
           sal2(E, S2) <= empl(E) & mgr(E) & sal(E, S) & S2 = S * 1.1 + 200 .
           sal2(E, S2) <= empl(E) & sal(E, S) & not mgr(E) & S2 = S * 1.1 .
         module apply:
           del sal(E, S) <= sal(E, S) & sal2(E, S2) & S != S2 .
           sal(E, S2) <= sal2(E, S2) .
         module fire:
           del empl(E) <= empl(E) & boss(E, B) & empl(B) & sal(E, SE) & sal(B, SB) & SE > SB .
         module hpe:
           hpe(E) <= empl(E) & sal(E, S) & S > 4500 .",
    )
    .expect("static baseline parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_core::{Database, Outcome};
    use ruvo_term::{int, oid, sym};

    fn evaluate(program: Program, ob: ruvo_obase::ObjectBase) -> Outcome {
        let db = Database::open(ob);
        db.evaluate(&db.prepare_program(program).unwrap()).unwrap()
    }

    #[test]
    fn paper_programs_parse_and_stratify() {
        for p in [
            salary_raise_program(),
            enterprise_program(),
            hypothetical_program("peter"),
            ancestors_program(),
        ] {
            assert!(ruvo_core::stratify::stratify(&p).is_ok());
        }
    }

    #[test]
    fn chain_program_builds_expected_depth() {
        for k in [1, 2, 3, 5, 8] {
            let ob = super::chain_object_base();
            let outcome = evaluate(chain_program(k, false), ob);
            assert_eq!(
                outcome.stratification().len(),
                k,
                "one stratum per update group (Figure 1)"
            );
            let finals = outcome.final_versions().unwrap();
            assert_eq!(finals[&oid("o")].depth(), k, "all-ins chain of length {k}");
            let ob2 = outcome.new_object_base();
            // Each stage inserted one tag; the driver step is carried.
            assert_eq!(ob2.lookup1(oid("o"), "step"), vec![int(0)]);
            assert_eq!(ob2.lookup1(oid("o"), &format!("tag{k}")), vec![int(1)]);
        }
    }

    #[test]
    fn mixed_chain_produces_linear_history() {
        for k in [1, 2, 3, 4, 6, 9] {
            let ob = super::chain_object_base();
            let outcome = evaluate(chain_program(k, true), ob);
            let finals = outcome.final_versions().unwrap();
            assert_eq!(finals[&oid("o")].depth(), k, "mixed chain of length {k}");
        }
        // k = 2: mod then del; the del removed tag0.
        let ob = super::chain_object_base();
        let outcome = evaluate(chain_program(2, true), ob);
        let ob2 = outcome.new_object_base();
        assert_eq!(ob2.lookup1(oid("o"), "tag0"), vec![]);
        assert_eq!(ob2.lookup1(oid("o"), "step"), vec![int(1)]);
    }

    #[test]
    fn baseline_program_has_four_modules() {
        let p = enterprise_baseline_datalog();
        assert_eq!(p.modules.len(), 4);
        assert_eq!(p.modules[0].name.as_deref(), Some("raise"));
        assert_eq!(p.modules[2].name.as_deref(), Some("fire"));
    }

    #[test]
    fn baseline_matches_paper_outcome_with_modules() {
        use ruvo_datalog::{evaluate, Semantics};
        let e = crate::Enterprise::generate(crate::EnterpriseConfig {
            employees: 0,
            ..Default::default()
        });
        let mut db = e.as_datalog();
        // Inject the paper's phil/bob scenario.
        db.insert(sym("empl"), vec![oid("phil")]);
        db.insert(sym("empl"), vec![oid("bob")]);
        db.insert(sym("mgr"), vec![oid("phil")]);
        db.insert(sym("sal"), vec![oid("phil"), int(4000)]);
        db.insert(sym("sal"), vec![oid("bob"), int(4200)]);
        db.insert(sym("boss"), vec![oid("bob"), oid("phil")]);
        let report = evaluate(&mut db, &enterprise_baseline_datalog(), Semantics::Modules, 1000);
        assert!(!report.oscillated);
        // phil raised to 4600, hpe; bob (4620 > 4600) fired.
        assert!(db.contains(sym("sal"), &[oid("phil"), int(4600)]));
        assert!(db.contains(sym("hpe"), &[oid("phil")]));
        assert!(!db.contains(sym("empl"), &[oid("bob")]));
    }

    /// §2.4's control spectrum on the `$4100` scenario, where rule
    /// order decides the outcome (raises first: bob 4510 < phil 4600,
    /// so bob stays and both are hpe): automatic predicate
    /// stratification cannot accept the translation at all, manually
    /// ordered modules get it right, and no control gets it wrong.
    #[test]
    fn baseline_control_spectrum_on_the_4100_scenario() {
        use ruvo_datalog::{auto_stratify, evaluate, parser::parse_db, Semantics};
        let baseline = enterprise_baseline_datalog();
        // `sal` is read and deleted through a cycle with `sal2`. (Which
        // predicates past that cycle the error names is not fixed.)
        auto_stratify(&baseline).expect_err("read/delete cycle must be rejected");

        for semantics in [Semantics::Modules, Semantics::Collapsed, Semantics::Inflationary] {
            let mut db = parse_db(
                "empl(phil). empl(bob). mgr(phil). boss(bob, phil).
                 sal(phil, 4000). sal(bob, 4100).",
            )
            .unwrap();
            // 60 rounds: ample for the module fixpoints, and a cap on
            // the inflationary 1.1^k runaway.
            evaluate(&mut db, &baseline, semantics, 60);
            let bob_sal: Vec<_> =
                db.tuples(sym("sal")).filter(|t| t[0] == oid("bob")).map(|t| t[1]).collect();
            let correct = db.contains(sym("empl"), &[oid("bob")])
                && db.contains(sym("hpe"), &[oid("bob")])
                && bob_sal == vec![int(4510)];
            assert_eq!(correct, semantics == Semantics::Modules, "{semantics:?}");
        }
    }
}
