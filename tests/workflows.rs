//! End-to-end library workflows: transactional databases, snapshot
//! persistence across "restarts", history inspection, and derived
//! views — the integration surface a downstream application would use.

use ruvo::core::history;
use ruvo::datalog::{evaluate, ob_to_db, parse_program as parse_dl, Semantics};
use ruvo::obase::snapshot;
use ruvo::prelude::*;

/// A payroll quarter: three transactional updates, a savepoint-guarded
/// what-if, snapshot persistence, then a derived-view report.
#[test]
fn payroll_quarter() {
    let mut payroll = Database::open_src(
        "ann.isa -> empl.  ann.sal -> 3000.  ann.dept -> eng.
         ben.isa -> empl.  ben.sal -> 3500.  ben.dept -> eng.
         eva.isa -> empl.  eva.sal -> 5200.  eva.dept -> sales.",
    )
    .unwrap();

    // Txn 1: engineering raise.
    payroll
        .apply_src(
            "raise_eng: mod[E].sal -> (S, S2) <=
                 E.isa -> empl & E.dept -> eng & E.sal -> S & S2 = S + 500.",
        )
        .unwrap();
    assert_eq!(payroll.current().lookup1(oid("ann"), "sal"), vec![int(3500)]);

    // What-if under a savepoint: fire everyone over 5000, then change
    // our mind.
    let sp = payroll.savepoint();
    payroll.apply_src("cut: del[E].* <= E.isa -> empl & E.sal -> S & S > 5000.").unwrap();
    assert!(!payroll.current().objects().any(|o| o == oid("eva")));
    payroll.rollback_to(sp).unwrap();
    assert_eq!(payroll.current().lookup1(oid("eva"), "sal"), vec![int(5200)]);

    // Txn 2: tag high earners instead.
    payroll
        .apply_src(
            "tag: ins[E].band -> high <= E.isa -> empl & E.sal -> S & S > 5000.
             tag2: ins[E].band -> standard <= E.isa -> empl & E.sal -> S & S =< 5000.",
        )
        .unwrap();

    // History of the last transaction shows the insert for eva.
    let txn = payroll.last_txn().unwrap();
    let h = history(txn.outcome.result(), oid("eva")).unwrap();
    assert_eq!(h.updates(), 1);
    assert!(h.steps[1].added.iter().any(|(m, _, r)| *m == sym("band") && *r == oid("high")));

    // Persist, "restart", and continue in a fresh database.
    let bytes = snapshot::write(payroll.current());
    let restored = snapshot::read(&bytes).unwrap();
    assert_eq!(&restored, payroll.current());
    let mut restarted = Database::open(restored);
    restarted
        .apply_src("bonus: mod[E].sal -> (S, S2) <= E.band -> high & E.sal -> S & S2 = S + 1000.")
        .unwrap();
    assert_eq!(restarted.current().lookup1(oid("eva"), "sal"), vec![int(6200)]);
    assert_eq!(restarted.current().lookup1(oid("ann"), "sal"), vec![int(3500)]);

    // Derived-view report over the final flat base.
    let mut db = ob_to_db(restarted.current()).unwrap();
    let views = parse_dl("dept_high(D, E) <= dept(E, D) & band(E, high).").unwrap();
    evaluate(&mut db, &views, Semantics::Modules, 100);
    assert!(db.contains(sym("dept_high"), &[oid("sales"), oid("eva")]));
    assert_eq!(db.arity_count(sym("dept_high")), 1);
}

/// Replaying the same program through a database twice is idempotent
/// when the rules are guarded by current state (the §2.1 termination
/// story lifted to the transaction level).
#[test]
fn guarded_replay_is_idempotent() {
    let mut s = Database::open_src("doc.rev -> 1.").unwrap();
    let bump = "bump: mod[D].rev -> (R, R2) <= D.rev -> R & R < 3 & R2 = R + 1.";
    for expected in [2, 3, 3, 3] {
        s.apply_src(bump).unwrap();
        assert_eq!(s.current().lookup1(oid("doc"), "rev"), vec![int(expected)]);
    }
    assert_eq!(s.len(), 4);
}

/// The `Database` facade and the compile-once entry point agree.
#[test]
fn run_entry_points_agree() {
    use ruvo::core::{run_compiled, CompiledProgram, CyclePolicy, EngineConfig};
    let ob = ObjectBase::parse("a.p -> 1. b.q -> 2.").unwrap();
    let program = Program::parse("x: ins[X].r -> V <= X.p -> V.").unwrap();
    let db = Database::open(ob.clone());
    let by_ref = db.evaluate(&db.prepare_program(program.clone()).unwrap()).unwrap();
    let compiled = CompiledProgram::compile(program, CyclePolicy::Reject).unwrap();
    let pre = run_compiled(&compiled, &EngineConfig::default(), ob).unwrap();
    assert_eq!(by_ref.result(), pre.result());
}
