//! Integration tests of the `ruvo::Database` facade: prepared
//! programs, snapshot isolation, savepoints, transactions, and the
//! unified error type — all through the public `ruvo` prelude.

use ruvo::prelude::*;

const ENTERPRISE: &str = "
    phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
    bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4200.
";

const RAISE: &str = "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.";

#[test]
fn prepare_once_apply_many_matches_oneshot() {
    // The prepared path must agree exactly with the one-shot one.
    let ob = ObjectBase::parse(ENTERPRISE).unwrap();
    let mut oneshot = Database::open(ob.clone());
    oneshot.apply_src(RAISE).unwrap();

    let mut db = Database::open(ob);
    let raise = db.prepare(RAISE).unwrap();
    db.apply(&raise).unwrap();
    assert_eq!(db.current(), oneshot.current());

    // Reuse across ten applications: each sees the flat committed base.
    let mut db = Database::open_src("acct.v -> 0.").unwrap();
    let incr = db.prepare("mod[A].v -> (V, V2) <= A.v -> V & V2 = V + 1.").unwrap();
    for expected in 1..=10i64 {
        assert_eq!(db.apply(&incr).unwrap().outcome.stats().fired_updates, 1);
        assert_eq!(db.current().lookup1(oid("acct"), "v"), vec![int(expected)]);
    }
    assert_eq!(db.len(), 10);
}

#[test]
fn prepared_stratification_is_computed_once_and_correct() {
    let db = Database::open_src(ENTERPRISE).unwrap();
    let program = db
        .prepare(
            "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
             rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
             rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
             rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        )
        .unwrap();
    // The paper's §2.3 strata: {rule1, rule2} < {rule3} < {rule4}.
    assert_eq!(program.stratification().strata.len(), 3);
    assert_eq!(program.program().len(), 4);
}

#[test]
fn snapshot_isolation_across_transactions() {
    let mut db = Database::open_src(ENTERPRISE).unwrap();
    let raise = db.prepare(RAISE).unwrap();

    let s0 = db.snapshot();
    db.apply(&raise).unwrap();
    let s1 = db.snapshot();
    db.apply(&raise).unwrap();

    // Each reader keeps the exact state it captured.
    assert_eq!(s0.lookup1(oid("bob"), "sal"), vec![int(4200)]);
    assert_eq!(s1.lookup1(oid("bob"), "sal"), vec![int(4620)]);
    // The committed head has moved past both snapshots: it equals one
    // more application of the raise to s1's state.
    let mut expected = Database::open(s1.object_base().clone());
    expected.apply_src(RAISE).unwrap();
    assert_eq!(db.current(), expected.current());
    assert_ne!(db.current(), s1.object_base());

    // Snapshots survive the database itself.
    drop(db);
    assert_eq!(s0.lookup1(oid("phil"), "sal"), vec![int(4000)]);

    // And they are usable from other threads.
    let handle = std::thread::spawn(move || s1.lookup1(oid("phil"), "sal"));
    assert_eq!(handle.join().unwrap(), vec![int(4400)]);
}

#[test]
fn snapshot_is_constant_size_handle() {
    // Taking a snapshot shares storage: the view's version states
    // alias the committed base's allocations (no deep copy).
    let mut src = String::new();
    for i in 0..500 {
        src.push_str(&format!("o{i}.isa -> empl. o{i}.sal -> {i}.\n"));
    }
    let db = Database::open_src(&src).unwrap();
    let snap = db.snapshot();
    let vid = Vid::object(oid("o123"));
    assert!(std::ptr::eq(db.current().version(vid).unwrap(), snap.version(vid).unwrap(),));
}

#[test]
fn savepoint_rollback_through_database() {
    let mut db = Database::open_src(ENTERPRISE).unwrap();
    let sp = db.savepoint();
    db.apply_src("del[bob].* .").unwrap();
    assert!(db.current().lookup1(oid("bob"), "sal").is_empty());
    db.rollback_to(sp).unwrap();
    assert_eq!(db.current().lookup1(oid("bob"), "sal"), vec![int(4200)]);
    assert!(db.is_empty());

    // The savepoint stays valid for repeated rollbacks.
    db.apply_src("ins[bob].note -> 1 <= bob.isa -> empl.").unwrap();
    db.rollback_to(sp).unwrap();
    assert!(db.current().lookup1(oid("bob"), "note").is_empty());

    // A dangling savepoint from a parallel history errors cleanly.
    let mut other = Database::open_src(ENTERPRISE).unwrap();
    let foreign = other.savepoint();
    other.rollback_to(foreign).unwrap();
    let sp2 = db.savepoint();
    db.rollback_to(sp).unwrap(); // invalidates sp2
    assert_eq!(db.rollback_to(sp2).unwrap_err().kind(), ErrorKind::UnknownSavepoint);
}

#[test]
fn transact_rolls_back_partial_work() {
    let mut db = Database::open_src("acct.balance -> 100.").unwrap();
    let credit = db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 25.").unwrap();

    // Success path: both applications commit.
    db.transact(|txn| {
        txn.apply(&credit)?;
        txn.apply(&credit)
    })
    .unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);

    // Failure path: the first application is rolled back too.
    let err = db
        .transact(|txn| {
            txn.apply(&credit)?;
            txn.apply_src(
                "mod[A].balance -> (B, 0) <= A.balance -> B.
                           del[A].balance -> B <= A.balance -> B.",
            )
        })
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Linearity);
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
    assert_eq!(db.len(), 2);
}

#[test]
fn error_kind_mapping() {
    let mut db = Database::open_src("o.m -> a. o.n -> b.").unwrap();

    // Parse failure.
    let err = db.prepare("this is not an update-program").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Parse);

    // Validation failure (the system method is unupdatable).
    let err = db.prepare("ins[o].exists -> o.").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Validate);

    // Safety failure (unbound head variable).
    let err = db.prepare("ins[X].m -> Free <= X.m -> a.").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Safety);

    // Non-stratifiable program (negation through the rule's own head).
    let err = db.prepare("ins[X].p -> 1 <= X.m -> a & not ins(X).p -> 1.").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Stratify);

    // Non-linear result (mod and del branch off the same version).
    let err =
        db.apply_src("mod[o].m -> (a, b) <= o.m -> a. del[o].n -> b <= o.n -> b.").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Linearity);

    // Every kind renders a non-empty message and the database is
    // untouched throughout.
    assert!(db.is_empty());
    assert_eq!(db.current().lookup1(oid("o"), "m"), vec![oid("a")]);
}

/// An update-term whose created version would hold 33 update
/// applications is a validation error of every prepare, never a panic
/// of the stratifier or the planner.
#[test]
fn over_deep_update_terms_fail_prepare_with_a_typed_error() {
    let target = (0..32).fold("X".to_owned(), |t, _| format!("mod({t})"));
    let db = Database::open_src("x.q -> 1.").unwrap();
    let serving = ServingDatabase::open_src("x.q -> 1.").unwrap();
    for src in [
        format!("r: ins[{target}].p -> 1 <= X.q -> 1."),
        format!("r: ins[x].p -> 1 <= ins[{target}].q -> 1."),
    ] {
        for err in [db.prepare(&src).unwrap_err(), serving.prepare(&src).unwrap_err()] {
            assert_eq!(err.kind(), ErrorKind::Validate, "{src}");
            assert!(err.to_string().contains("version-id-term nests too deeply"), "{err}");
        }
    }
}

/// Every `Rule` passed the front end's rule-level pass when it was
/// built, and its fields cannot be edited, so a `Program` assembled from
/// admitted rules can be refused only as a whole: the entries that take
/// one refuse two rules sharing a label with a typed error, and nothing
/// is committed.
#[test]
fn edited_programs_fail_prepare_with_a_typed_error() {
    let admitted = Program::parse("r: ins[X].p -> 1 <= X.q -> 1.").unwrap();
    let program = Program { rules: vec![admitted.rules[0].clone(), admitted.rules[0].clone()] };
    let mut db = Database::open_src("x.q -> 1.").unwrap();
    let errors = [
        db.prepare_program(program.clone()).map(drop).unwrap_err(),
        db.apply_program(program.clone()).map(drop).unwrap_err(),
        db.transact(|tx| tx.apply_program(program)).unwrap_err(),
    ];
    for err in errors {
        assert_eq!(err.kind(), ErrorKind::Validate, "{err}");
        assert!(err.to_string().contains("duplicate rule label `r`"), "{err}");
    }
    assert!(db.is_empty());
    assert_eq!(db.current().lookup1(oid("x"), "p"), vec![]);
}

#[test]
fn errors_unify_the_layer_types() {
    use ruvo::core::store::StorageError;
    use ruvo::core::EvalError;
    use ruvo::lang::LangError;

    // From<LangError>, From<EvalError>, From<StorageError> all land on
    // the same unified type with the right kind.
    let parse: LangError = Program::parse("nope").unwrap_err();
    let e: Error = parse.into();
    assert_eq!(e.kind(), ErrorKind::Parse);

    let eval = EvalError::RoundLimit { stratum: 0, limit: 7 };
    let e: Error = eval.into();
    assert_eq!(e.kind(), ErrorKind::RoundLimit);
    assert!(e.to_string().contains("7 rounds"));

    let e: Error = StorageError::Misuse("x").into();
    assert_eq!(e.kind(), ErrorKind::Storage);

    // The session under every handle reports the same type: a
    // savepoint this database never took is unknown, and a commit the
    // §5 gate refuses is a linearity error.
    let mut db = Database::open_src(BRANCHING_SEED).unwrap();
    let foreign = Database::open(ObjectBase::new()).savepoint();
    let e = db.rollback_to(foreign).unwrap_err();
    assert_eq!(e.kind(), ErrorKind::UnknownSavepoint);
    assert!(e.to_string().contains("unknown or invalidated savepoint"));
    let unrelated = db.prepare(UNRELATED).unwrap();
    let outcome = db.evaluate(&unrelated).unwrap();
    let e: Error = db.session().clone().commit(outcome).map(|_| ()).unwrap_err();
    assert_eq!(e.kind(), ErrorKind::Linearity);
}

#[test]
fn builder_knobs_flow_through() {
    use ruvo::core::CyclePolicy;

    // Traces need no knob: every transaction records them.
    let mut db = Database::open_src(ENTERPRISE).unwrap();
    let raise = db.prepare(RAISE).unwrap();
    db.apply(&raise).unwrap();
    let txn = db.last_txn().unwrap();
    assert!(!txn.outcome.round_traces().is_empty());
    assert!(!txn.outcome.stratum_traces().is_empty());

    // cycle_policy at build time changes what prepare accepts.
    let strict = Database::open_src("a.m -> 1. a.trigger -> 1.").unwrap();
    let dynamic = Database::builder()
        .cycle_policy(CyclePolicy::RuntimeStability)
        .open_src("a.m -> 1. a.trigger -> 1.")
        .unwrap();
    let cyclic = "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
                  r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.";
    assert_eq!(strict.prepare(cyclic).unwrap_err().kind(), ErrorKind::Stratify);
    assert!(dynamic.prepare(cyclic).is_ok());
}

#[test]
fn naive_and_seminaive_paths_agree_on_random_programs() {
    use ruvo::core::reference;
    use ruvo::workload::{random_insert_program, random_object_base, RandomConfig};
    // The indexed, delta-seeded evaluator must be observationally
    // identical to the naive §3 reference interpreter on arbitrary
    // insert programs.
    for seed in 0..10 {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);

        let slow = reference::evaluate(&program, &ob).unwrap();
        let mut fast = Database::open(ob);
        let fast_prog = fast.prepare_program(program).unwrap();
        fast.apply(&fast_prog).unwrap();

        assert_eq!(*fast.current(), slow.new_object_base().unwrap(), "ob′ diverged on seed {seed}");
        assert_eq!(
            fast.last_txn().unwrap().outcome.result(),
            &slow.result,
            "result(P), seed {seed}"
        );
        fast.current().check_invariants();
    }
}

#[test]
fn naive_and_seminaive_agree_on_multistratum_enterprise() {
    use ruvo::obase::Args;
    use ruvo::workload::{enterprise_program, Enterprise, EnterpriseConfig};
    // The paper's 3-stratum enterprise program exercises del/mod update
    // atoms in bodies, negation, and del[..].* heads. The oracle is the
    // generator's own tables: raise everyone (managers get 200 more),
    // drop whoever then out-earns the boss, tag survivors above 4500.
    let ent = Enterprise::generate(EnterpriseConfig { employees: 300, ..Default::default() });
    let raised =
        |i: usize| ent.salaries[i] as f64 * 1.1 + if ent.is_manager[i] { 200.0 } else { 0.0 };
    let mut expected = ObjectBase::new();
    for (i, &e) in ent.employees.iter().enumerate() {
        if ent.boss[i].is_some_and(|b| raised(i) > raised(b)) {
            continue;
        }
        let v = Vid::object(e);
        // Whole results are stored as integers.
        let sal = if raised(i).fract() == 0.0 { int(raised(i) as i64) } else { num(raised(i)) };
        expected.insert(v, sym("isa"), Args::empty(), oid("empl"));
        expected.insert(v, sym("sal"), Args::empty(), sal);
        if ent.is_manager[i] {
            expected.insert(v, sym("pos"), Args::empty(), oid("mgr"));
        }
        if let Some(b) = ent.boss[i] {
            expected.insert(v, sym("boss"), Args::empty(), ent.employees[b]);
        }
        if raised(i) > 4500.0 {
            expected.insert(v, sym("isa"), Args::empty(), oid("hpe"));
        }
    }
    let mut db = Database::open(ent.ob.clone());
    let program = db.prepare_program(enterprise_program()).unwrap();
    db.apply(&program).unwrap();
    assert_eq!(*db.current(), expected);
}

#[test]
fn database_roundtrips_binary_snapshots() {
    let mut db = Database::open_src(ENTERPRISE).unwrap();
    let raise = db.prepare(RAISE).unwrap();
    db.apply(&raise).unwrap();

    let bytes = db.snapshot().to_bytes();
    let restored = Database::open_bytes(&bytes).unwrap();
    assert_eq!(restored.current(), db.current());

    let err = Database::open_bytes(b"definitely not a snapshot").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Snapshot);
}

/// A seeded head whose object `o` has two incomparable versions.
const BRANCHING_SEED: &str = "o.m -> a. ins(o).m -> b. del(o).m -> c. z.q -> 0.";
/// A program that never touches `o`.
const UNRELATED: &str = "ins[z].r -> 1 <= z.q -> 0.";

/// Panic-path audit: the run-time §5 check rejects every non-linear
/// version a run creates, so only a branching seeded head reaches
/// extraction non-linear, and every library path that meets one must
/// surface `ErrorKind::Linearity`.
#[test]
fn branching_seed_surfaces_errors_instead_of_panicking() {
    // Path 1: apply — the commit gate rejects the result.
    let mut db = Database::open_src(BRANCHING_SEED).unwrap();
    let head = db.current().clone();
    let unrelated = db.prepare(UNRELATED).unwrap();
    assert_eq!(db.apply(&unrelated).unwrap_err().kind(), ErrorKind::Linearity);
    assert!(db.is_empty(), "failed apply must not commit");
    assert_eq!(db.current(), &head);

    // Path 2: evaluate — the dry run succeeds, extraction reports.
    let outcome = db.evaluate(&unrelated).unwrap();
    let violation = outcome.try_new_object_base().unwrap_err();
    assert_eq!(Error::from(violation).kind(), ErrorKind::Linearity);

    // Path 3: the serving layer — same gate, same error kind, and the
    // published head never moves.
    let serving = Database::open_src(BRANCHING_SEED).unwrap().into_serving();
    let unrelated = serving.prepare(UNRELATED).unwrap();
    assert_eq!(serving.apply(&unrelated).unwrap_err().kind(), ErrorKind::Linearity);
    assert_eq!(serving.epoch(), 0);
    assert_eq!(serving.commits(), 0);
    assert_eq!(&*serving.current(), &head);
}

/// Every prepare entry goes through one gate: a denied lint refuses the
/// program on `Database::prepare`, `Database::prepare_program` (and the
/// `apply_program` built on it) and `ServingDatabase::prepare`, while a
/// handle that denies nothing prepares it and reports the finding only
/// when asked.
#[test]
fn a_denied_lint_refuses_through_every_prepare_entry() {
    const CONFLICT: &str = "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
                            r2: mod[X].price -> (P, 2) <= X.price -> P.";
    let program = || Program::parse(CONFLICT).unwrap();
    let lenient = Database::open_src("item.price -> 10.").unwrap();
    let report = lenient.prepare_program(program()).unwrap().check();
    assert!(report.diagnostics.iter().any(|d| d.lint == Lint::WriteWriteConflict));

    let mut strict = Database::builder()
        .deny_lints([Lint::WriteWriteConflict])
        .open_src("item.price -> 10.")
        .unwrap();
    assert_eq!(strict.config().deny_lints, vec![Lint::WriteWriteConflict]);
    let refused = |r: Result<Prepared, Error>| match r.unwrap_err() {
        Error::DeniedLint { diagnostics } => {
            assert!(!diagnostics.is_empty());
            assert!(diagnostics.iter().all(|d| d.is_error() && d.lint == Lint::WriteWriteConflict));
        }
        other => panic!("expected a denied lint, got {other}"),
    };
    refused(strict.prepare(CONFLICT));
    refused(strict.prepare_program(program()));
    assert_eq!(strict.apply_program(program()).unwrap_err().kind(), ErrorKind::Lint);
    assert!(strict.prepare(RAISE).is_ok(), "a clean program passes the gate");
    let serving = strict.into_serving();
    refused(serving.prepare(CONFLICT));
    assert_eq!(serving.commits(), 0);
}
