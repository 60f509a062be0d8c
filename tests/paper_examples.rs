//! End-to-end reproduction of every worked example in the paper,
//! asserted against hand-derived expectations.

use ruvo::prelude::*;
use ruvo::workload::{
    ancestors_program, enterprise_program, hypothetical_program, salary_raise_program,
    PAPER_ENTERPRISE_OB,
};

/// `result(P)` of `program` on `ob`, nothing committed.
fn evaluate(program: Program, ob: &ObjectBase) -> Result<Outcome, Error> {
    let db = Database::open(ob.clone());
    db.evaluate(&db.prepare_program(program)?)
}

/// §2.1: "henry.salary -> 250" and the 10% raise rule; "each employee
/// gets his salary raised exactly once."
#[test]
fn section_2_1_salary_raise() {
    let ob = ObjectBase::parse("henry.isa -> empl. henry.sal -> 250.").unwrap();
    let outcome = evaluate(salary_raise_program(), &ob).unwrap();
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("henry"), "sal"), vec![int(275)]);
    assert_eq!(ob2.lookup1(oid("henry"), "isa"), vec![oid("empl")]);
    // Exactly one modify fired; exactly one new version.
    assert_eq!(outcome.stats().fired_updates, 1);
    assert_eq!(outcome.stats().versions_created, 1);
    // The mod(henry) version carries the new salary; henry the old one.
    let henry = Vid::object(oid("henry"));
    let mod_h = henry.apply(UpdateKind::Mod).unwrap();
    assert!(outcome.result().contains(mod_h, sym("sal"), &[], int(275)));
    assert!(outcome.result().contains(henry, sym("sal"), &[], int(250)));
    assert!(!outcome.result().contains(mod_h, sym("sal"), &[], int(250)));
}

/// §2.2: the version jargon walkthrough — an employee with
/// `isa -> empl` and `sal -> 100` yields `mod(e)` with `sal -> 110`
/// (modulo f64 rounding, 100·1.1 is not exactly 110).
#[test]
fn section_2_2_version_jargon() {
    let ob = ObjectBase::parse("e.isa -> empl. e.sal -> 100.").unwrap();
    let outcome = evaluate(salary_raise_program(), &ob).unwrap();
    let ob2 = outcome.new_object_base();
    let sal = ob2.lookup1(oid("e"), "sal");
    assert_eq!(sal.len(), 1);
    assert!((sal[0].as_f64().unwrap() - 110.0).abs() < 1e-9);
    assert_eq!(ob2.lookup1(oid("e"), "isa"), vec![oid("empl")]);
}

/// §2.3, Figure 2: the enterprise update on phil and bob, checking the
/// *intermediate* version states, not just the final object base.
#[test]
fn section_2_3_enterprise_figure_2() {
    let ob = ObjectBase::parse(PAPER_ENTERPRISE_OB).unwrap();
    let strata = ruvo::core::stratify::stratify(&enterprise_program()).unwrap();
    assert_eq!(strata.to_string(), "{rule1, rule2} < {rule3} < {rule4}");

    let outcome = evaluate(enterprise_program(), &ob).unwrap();
    let result = outcome.result();
    let phil = Vid::object(oid("phil"));
    let bob = Vid::object(oid("bob"));
    let mod_phil = phil.apply(UpdateKind::Mod).unwrap();
    let mod_bob = bob.apply(UpdateKind::Mod).unwrap();
    let del_mod_bob = mod_bob.apply(UpdateKind::Del).unwrap();
    let ins_mod_phil = mod_phil.apply(UpdateKind::Ins).unwrap();

    // Stratum 1 (rules 1+2): mod versions with raised salaries.
    assert!(result.contains(mod_phil, sym("sal"), &[], int(4600)), "4000·1.1+200");
    assert!(result.contains(mod_bob, sym("sal"), &[], int(4620)), "4200·1.1");
    // Copies carried isa/pos/boss over.
    assert!(result.contains(mod_phil, sym("pos"), &[], oid("mgr")));
    assert!(result.contains(mod_bob, sym("boss"), &[], oid("phil")));

    // Stratum 2 (rule 3): bob (4620 > 4600) loses everything; only its
    // existence survives. phil has no superior: no del(mod(phil)).
    let del_state = result.version(del_mod_bob).expect("del(mod(bob)) exists");
    assert!(del_state.is_empty());
    assert!(result.version(mod_phil.apply(UpdateKind::Del).unwrap()).is_none());

    // Stratum 3 (rule 4): phil (4600 > 4500, not deleted) joins hpe.
    assert!(result.contains(ins_mod_phil, sym("isa"), &[], oid("hpe")));
    assert!(result.contains(ins_mod_phil, sym("isa"), &[], oid("empl")));
    // bob got no ins version: the negated update-term blocked rule 4.
    assert!(result.version(mod_bob.apply(UpdateKind::Ins).unwrap()).is_none());

    // Final object base: the paper's stated outcome.
    let ob2 = outcome.new_object_base();
    let mut phil_isa = ob2.lookup1(oid("phil"), "isa");
    phil_isa.sort();
    let mut want = vec![oid("empl"), oid("hpe")];
    want.sort();
    assert_eq!(phil_isa, want);
    assert_eq!(ob2.lookup1(oid("phil"), "sal"), vec![int(4600)]);
    assert!(!ob2.objects().any(|o| o == oid("bob")), "bob disappears entirely");
}

/// §2.4's discussion: with bob at $4100 the raise-then-fire order must
/// keep him employed; firing first would have been wrong.
#[test]
fn section_2_4_order_control() {
    let ob = ObjectBase::parse(
        "phil.isa -> empl. phil.pos -> mgr. phil.sal -> 4000.
         bob.isa -> empl. bob.boss -> phil. bob.sal -> 4100.",
    )
    .unwrap();
    let ob2 = evaluate(enterprise_program(), &ob).unwrap().new_object_base();
    assert_eq!(ob2.lookup1(oid("bob"), "sal"), vec![int(4510)]);
    assert!(ob2.lookup1(oid("bob"), "isa").contains(&oid("empl")));
    assert!(ob2.lookup1(oid("bob"), "isa").contains(&oid("hpe")), "4510 > 4500");
}

/// §2.3's hypothetical reasoning: both answers, and salaries revert.
#[test]
fn section_2_3_hypothetical_both_answers() {
    let yes = ObjectBase::parse(
        "peter.sal -> 100. peter.factor -> 3.0.
         anna.sal -> 200. anna.factor -> 1.0.",
    )
    .unwrap();
    let outcome = evaluate(hypothetical_program("peter"), &yes).unwrap();
    let strat = outcome.stratification();
    assert_eq!(strat.len(), 4, "rule1 < rule2 < rule3 < rule4");
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("peter"), "richest"), vec![oid("yes")]);
    assert_eq!(ob2.lookup1(oid("peter"), "sal"), vec![int(100)]);
    assert_eq!(ob2.lookup1(oid("anna"), "sal"), vec![int(200)]);

    let no = ObjectBase::parse(
        "peter.sal -> 100. peter.factor -> 1.0.
         anna.sal -> 200. anna.factor -> 2.0.",
    )
    .unwrap();
    let ob2 = evaluate(hypothetical_program("peter"), &no).unwrap().new_object_base();
    assert_eq!(ob2.lookup1(oid("peter"), "richest"), vec![oid("no")]);
    assert_eq!(ob2.lookup1(oid("peter"), "sal"), vec![int(100)]);
}

/// The mod(mod(e)) version must equal the original e state (the
/// "performed and revised right away" claim of §2.3).
#[test]
fn hypothetical_mod_mod_equals_original() {
    let ob =
        ObjectBase::parse("a.sal -> 500. a.factor -> 1.4. b.sal -> 900. b.factor -> 1.1.").unwrap();
    let outcome = evaluate(hypothetical_program("a"), &ob).unwrap();
    for name in ["a", "b"] {
        let base = Vid::object(oid(name));
        let mm = base.apply(UpdateKind::Mod).unwrap().apply(UpdateKind::Mod).unwrap();
        let original: Vec<Const> = outcome.result().results(base, sym("sal"), &[]).collect();
        let reverted: Vec<Const> = outcome.result().results(mm, sym("sal"), &[]).collect();
        assert_eq!(original, reverted, "mod(mod({name})) reverted to the original salary");
    }
}

/// §2.3's recursive ancestors on the paper's shape of data, plus
/// set-valued methods (two parents).
#[test]
fn section_2_3_ancestors_recursive() {
    let ob = ObjectBase::parse(
        "ann.isa -> person.
         ben.isa -> person.
         cay.isa -> person. cay.parents -> ann. cay.parents -> ben.
         dee.isa -> person. dee.parents -> cay.",
    )
    .unwrap();
    let outcome = evaluate(ancestors_program(), &ob).unwrap();
    assert_eq!(outcome.stratification().len(), 1, "single recursive stratum");
    let ob2 = outcome.new_object_base();
    let mut dee_anc = ob2.lookup1(oid("dee"), "anc");
    dee_anc.sort();
    let mut want = vec![oid("ann"), oid("ben"), oid("cay")];
    want.sort();
    assert_eq!(dee_anc, want);
    let mut cay_anc = ob2.lookup1(oid("cay"), "anc");
    cay_anc.sort();
    let mut want = vec![oid("ann"), oid("ben")];
    want.sort();
    assert_eq!(cay_anc, want);
    assert!(ob2.lookup1(oid("ann"), "anc").is_empty());
}

/// §5's rejected program: mod and del firing on the same object.
#[test]
fn section_5_version_linearity_rejection() {
    let ob = ObjectBase::parse("o.m -> a. o.n -> x.").unwrap();
    let program = Program::parse(
        "mod[o].m -> (a, b) <= o.m -> a.
         del[o].m -> a <= o.n -> x.",
    )
    .unwrap();
    let err = evaluate(program, &ob).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("version-linearity"), "got: {msg}");
    assert!(msg.contains("mod(o)") && msg.contains("del(o)"), "got: {msg}");
}
