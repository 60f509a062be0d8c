//! Differential battery for demand-driven queries: for random
//! programs, bases and goals, `Database::query` (the magic-set rewrite
//! over the seeded matcher) must return exactly the goal's matches
//! against the *full* evaluation's `result(P)`.
//!
//! Error parity caveat: a demand query may succeed where the full
//! evaluation fails (e.g. a linearity violation among undemanded
//! objects), so the comparison only applies when the full evaluation
//! succeeds.
//!
//! The golden half of the suite pins the rewrite itself:
//! `QueryPlan::describe()` snapshots for the paper's enterprise
//! program and the `examples/*.rv` programs live under
//! `tests/golden/` (re-generate with `BLESS=1 cargo test`).

use proptest::prelude::*;
use ruvo::core::match_goal;
use ruvo::prelude::*;
use ruvo::workload::{
    enterprise_program, query_workload, random_insert_program, random_object_base, QueryConfig,
    RandomConfig,
};

/// Compare the demand path with the oracle (goal matched against the
/// full evaluation's `result(P)`). Skips silently when the full
/// evaluation errors (error parity).
fn assert_query_matches_oracle(ob: &ObjectBase, program_src: &str, goal_src: &str) {
    let db = Database::open(ob.clone());
    let prepared = db
        .prepare(program_src)
        .unwrap_or_else(|e| panic!("program does not compile: {e}\n{program_src}"));
    let goal =
        Goal::parse(goal_src).unwrap_or_else(|e| panic!("goal does not parse: {e}\n{goal_src}"));
    let Ok(full) = db.evaluate(&prepared) else {
        return;
    };
    let oracle = match_goal(full.result(), &goal);
    let fast = db.query(&prepared, goal).expect("demand query runs");
    assert_eq!(fast.vars, oracle.vars, "columns diverge for {goal_src}");
    assert_eq!(fast.rows, oracle.rows, "answers diverge for {goal_src}");
}

// ----- random programs × goal shapes ---------------------------------

/// A goal over the random-workload vocabulary (`o0..`, `m0..`),
/// sweeping every adornment class: all-bound, partially bound, free,
/// ground, path-joined, and negation-carrying.
fn goal_for(shape: usize, a: usize, i: usize, j: usize, k: i64) -> String {
    match shape % 7 {
        0 => format!("?- ins(o{a}).m{i} -> R."),
        1 => format!("?- o{a}.m{i} -> R."),
        2 => format!("?- ins(X).m{i} -> R."),
        3 => format!("?- X.m{i} -> V & ins(X).m{j} -> W."),
        4 => format!("?- ins(o{a}).m{i} -> R & R.m{j} -> S."),
        5 => format!("?- ins(o{a}).m{i} -> {k}."),
        _ => format!("?- X.m{i} -> R & not ins(X).m{j} -> R."),
    }
}

/// Ask every goal shape twice, in the order of `keys`, against one
/// `Prepared` — the rewrites it compiles for one goal serve every later
/// goal that keeps the same rules — and hold each answer to the oracle.
/// Returns how many seeded plans named an object the base lacks (the
/// base has `o0..o19`; constants reach `o24`), each of which ran the
/// pruned fallback.
fn ask_every_shape_of_one_prepared(
    seed: u64,
    consts: &[(usize, usize, usize, i64)],
    keys: &[u64],
) -> usize {
    let config = RandomConfig { seed, ..Default::default() };
    let ob = random_object_base(config);
    let db = Database::open(ob.clone());
    let prepared = db.prepare(&random_insert_program(config).to_string()).unwrap();
    let Ok(full) = db.evaluate(&prepared) else {
        return 0;
    };
    let mut goals: Vec<(u64, String, usize)> = consts
        .iter()
        .zip(keys)
        .enumerate()
        .map(|(n, (&(a, i, j, k), &key))| (key, goal_for(n % 7, a, i, j, k), a))
        .collect();
    goals.sort();
    let mut missing = 0;
    for (_, goal_src, a) in &goals {
        let goal = Goal::parse(goal_src).unwrap();
        let oracle = match_goal(full.result(), &goal);
        let plan = prepared.query_plan(goal);
        let names_missing = *a >= 20 && goal_src.contains(&format!("o{a}"));
        missing += usize::from(plan.mode() == QueryMode::Seeded && names_missing);
        let fast = db.run_query_plan(&plan).expect("demand query runs");
        assert_eq!(fast, oracle, "seed {seed}: answers diverge for {goal_src}");
    }
    missing
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random insert-only programs, every goal shape.
    #[test]
    fn random_programs_random_goals_match_full_evaluation(
        seed in 0u64..400,
        shape in 0usize..7,
        a in 0usize..20,
        i in 0usize..5,
        j in 0usize..5,
        k in 0i64..100,
    ) {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        assert_query_matches_oracle(&ob, &program.to_string(), &goal_for(shape, a, i, j, k));
    }

    /// Goals into the negation-carrying stratum of a two-stratum
    /// program: `neg` derives onto `ins(ins(X))` from the *absence* of
    /// a fact the lower stratum derives onto `ins(X)`.
    #[test]
    fn negation_strata_goals_match_full_evaluation(
        seed in 0u64..200,
        a in 0usize..5,
        b in 0usize..5,
        target in 0usize..20,
        shape in 0usize..3,
    ) {
        let ob = random_object_base(RandomConfig { seed, ..Default::default() });
        let program = format!(
            "base: ins[X].p -> R <= X.m{a} -> R.
             neg:  ins[ins(X)].lonely -> 1 <= X.m{b} -> V & not ins(X).p -> V."
        );
        let goal = match shape {
            0 => format!("?- ins(ins(o{target})).lonely -> 1."),
            1 => "?- ins(ins(X)).lonely -> L.".to_string(),
            _ => format!("?- X.m{a} -> V & ins(ins(X)).lonely -> L."),
        };
        assert_query_matches_oracle(&ob, &program, &goal);
    }

    /// The query workload's independently computed reference answers
    /// (ancestor walks over the generator's own boss forest) match the
    /// demand path at arbitrary sizes and seeds.
    #[test]
    fn query_workload_reference_answers_hold(
        seed in 0u64..100,
        employees in 2usize..120,
    ) {
        let w = query_workload(QueryConfig { employees, queries: 4, seed });
        let db = Database::open(w.enterprise.ob.clone());
        let prepared = db.prepare(w.program).unwrap();
        for q in &w.queries {
            let answers = db.query_src(&prepared, &q.goal).unwrap();
            prop_assert_eq!(&answers.rows, &q.expected, "goal {}", &q.goal);
        }
    }

    /// Every goal shape against one `Prepared`, in random order with
    /// varied constants.
    #[test]
    fn one_prepared_program_answers_every_shape_in_any_order(
        seed in 0u64..400,
        consts in proptest::collection::vec((0usize..25, 0usize..5, 0usize..5, 0i64..100), 14),
        keys in proptest::collection::vec(0u64..1000, 14),
    ) {
        ask_every_shape_of_one_prepared(seed, &consts, &keys);
    }
}

/// The same with pinned inputs, which must also reach the fallback a
/// seeded plan takes for an object the base lacks.
#[test]
fn one_prepared_program_pinned_sweep() {
    let mut missing = 0;
    for seed in 0..24u64 {
        let s = seed as usize;
        let consts: Vec<_> =
            (0..14).map(|n| ((s + 3 * n) % 25, (s + n) % 5, n % 5, (s * n) as i64 % 100)).collect();
        let keys: Vec<u64> = (0..14).map(|n| (seed * 7 + n * 13) % 17).collect();
        missing += ask_every_shape_of_one_prepared(seed, &consts, &keys);
    }
    assert!(missing > 0, "no seeded plan named a missing object");
}

/// Deterministic seed sweep, mirroring the proptest battery with
/// pinned inputs so CI failures reproduce without a proptest seed.
#[test]
fn pinned_seed_sweep() {
    for seed in 0..24u64 {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config).to_string();
        for shape in 0..7 {
            let goal =
                goal_for(shape, seed as usize % 20, (seed as usize + shape) % 5, shape % 5, 42);
            assert_query_matches_oracle(&ob, &program, &goal);
        }
    }
}

// ----- the paper's enterprise program --------------------------------

/// Point and pair goals over §2.3's 3-stratum enterprise program,
/// against the paper's own base and a generated 200-employee one.
#[test]
fn enterprise_goals_match_full_evaluation() {
    let program = enterprise_program().to_string();
    let goals = [
        "?- mod(phil).sal -> S.",
        "?- mod[bob].sal -> (S, S2).",
        "?- mod(E).isa -> hpe.",
        "?- ins(mod(E)).isa -> hpe.",
        "?- del[mod(bob)].sal -> S.",
        "?- mod(E).sal -> S & S > 4400.",
    ];
    let paper = ObjectBase::parse(ruvo::workload::PAPER_ENTERPRISE_OB).unwrap();
    let generated = ruvo::workload::Enterprise::generate(ruvo::workload::EnterpriseConfig {
        employees: 200,
        ..Default::default()
    })
    .ob;
    for ob in [&paper, &generated] {
        for goal in goals {
            assert_query_matches_oracle(ob, &program, goal);
        }
    }
}

/// The fallback hierarchy lands where the analysis says it should.
#[test]
fn modes_cover_the_fallback_hierarchy() {
    let db = Database::open(ObjectBase::new());
    let enterprise = db.prepare(&enterprise_program().to_string()).unwrap();
    // Selective point goal: seeded.
    let plan = enterprise.query_plan(Goal::parse("?- mod(phil).sal -> S.").unwrap());
    assert_eq!(plan.mode(), QueryMode::Seeded);
    assert!(plan.reason().is_none());
    // Goal over base-only chains: everything pruned away.
    let plan = enterprise.query_plan(Goal::parse("?- phil.pos -> mgr.").unwrap());
    assert_eq!(plan.mode(), QueryMode::Pruned);
    assert_eq!(plan.kept_rules(), &[] as &[usize]);
    // A `$V` program defeats the chain analysis: full evaluation.
    let audit = db
        .prepare("audit: ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.")
        .unwrap();
    let plan = audit.query_plan(Goal::parse("?- ins(audit).flagged -> O.").unwrap());
    assert_eq!(plan.mode(), QueryMode::Full);
    assert!(plan.reason().is_some());
}

// ----- golden rewrites -----------------------------------------------

/// Compare (or, with `BLESS=1`, rewrite) a golden snapshot under
/// `tests/golden/`.
fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with BLESS=1 to create it"));
    assert_eq!(actual, expected, "rewrite drifted for {name}; run with BLESS=1 to re-bless");
}

fn describe(program_src: &str, goal_src: &str) -> String {
    let db = Database::open(ObjectBase::new());
    let prepared = db.prepare(program_src).unwrap();
    prepared.query_plan(Goal::parse(goal_src).unwrap()).describe()
}

fn example_src(name: &str) -> String {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn golden_rewrite_enterprise_point() {
    golden(
        "enterprise_point",
        &describe(&enterprise_program().to_string(), "?- mod(phil).sal -> S."),
    );
}

#[test]
fn golden_rewrite_enterprise_free() {
    golden(
        "enterprise_free",
        &describe(&enterprise_program().to_string(), "?- ins(mod(E)).isa -> hpe."),
    );
}

#[test]
fn golden_rewrite_example_ancestors() {
    golden("example_ancestors", &describe(&example_src("ancestors.rv"), "?- ins(mary).anc -> A."));
}

#[test]
fn golden_rewrite_example_audit() {
    golden("example_audit", &describe(&example_src("audit.rv"), "?- ins(audit).flagged -> O."));
}

#[test]
fn golden_rewrite_example_enterprise() {
    golden("example_enterprise", &describe(&example_src("enterprise.rv"), "?- mod(bob).sal -> S."));
}

#[test]
fn golden_rewrite_example_hypothetical() {
    golden(
        "example_hypothetical",
        &describe(&example_src("hypothetical.rv"), "?- ins(ins(mod(mod(peter)))).richest -> R."),
    );
}

/// Every golden rewrite's program text must itself re-parse — the
/// printed magic-set program is durable-WAL-safe
/// (`CompiledProgram::source_text` round-trips).
#[test]
fn golden_rewrites_reparse() {
    let cases = [
        (enterprise_program().to_string(), "?- mod(phil).sal -> S."),
        (example_src("ancestors.rv"), "?- ins(mary).anc -> A."),
        (example_src("enterprise.rv"), "?- mod(bob).sal -> S."),
        (example_src("hypothetical.rv"), "?- ins(ins(mod(mod(peter)))).richest -> R."),
    ];
    for (program_src, goal_src) in cases {
        let db = Database::open(ObjectBase::new());
        let prepared = db.prepare(&program_src).unwrap();
        let plan = prepared.query_plan(Goal::parse(goal_src).unwrap());
        let printed = plan.program().program().to_string();
        Program::parse(&printed)
            .unwrap_or_else(|e| panic!("rewritten program does not re-parse: {e}\n{printed}"));
    }
}
