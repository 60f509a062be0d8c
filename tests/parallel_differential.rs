//! Parallel-vs-sequential differential battery.
//!
//! The engine's determinism contract (ARCHITECTURE.md §"Parallel
//! evaluation") says parallel evaluation is **bit-identical** to
//! serial for every thread count: same `result(P)`, same `ob'`, same
//! change deltas, same logical counters, same traces. These tests
//! enforce that over randomized update-programs — including deletes,
//! modifies and negation strata, where an ordering bug would actually
//! change answers — and over workloads with wide per-round deltas and
//! with dependent rules sharing a round.
//!
//! CI caps the sweep with `RUVO_TEST_THREADS` (it runs on small
//! hosts); locally the full {1, 2, 4, 8} sweep runs by default.

use proptest::prelude::*;
use ruvo::core::{run_compiled, CompiledProgram, CyclePolicy, DepEdge, DepEdgeKind, TraceLevel};
use ruvo::prelude::*;
use ruvo::workload::{
    random_insert_program, random_object_base, random_update_program, RandomConfig,
};

/// Thread counts to sweep: {1, 2, 4, 8} capped by `RUVO_TEST_THREADS`.
/// Width 1 stays in the list on purpose: `parallel(true).threads(1)`
/// must be the serial run under another name.
fn thread_counts() -> Vec<usize> {
    let cap = std::env::var("RUVO_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(8)
        .max(1);
    [1, 2, 4, 8].into_iter().filter(|&n| n <= cap).collect()
}

/// Run `program` serially, then at every swept thread count, and
/// assert every observable output is identical. Returns the serial
/// outcome.
fn assert_parallel_matches(program: &Program, ob: &ObjectBase, cycles: CyclePolicy) -> Outcome {
    let compiled = CompiledProgram::compile(program.clone(), cycles).expect("program compiles");
    let base_cfg = EngineConfig { cycles, trace: TraceLevel::Rounds, ..EngineConfig::default() };
    let serial = run_compiled(&compiled, &base_cfg, ob.clone()).expect("serial run succeeds");
    for n in thread_counts() {
        let cfg = EngineConfig { parallel: true, threads: n, ..base_cfg.clone() };
        let par = run_compiled(&compiled, &cfg, ob.clone())
            .unwrap_or_else(|e| panic!("threads={n}: {e}"));
        assert_eq!(par.result(), serial.result(), "result(P) diverged at threads={n}");
        assert_eq!(par.changed(), serial.changed(), "change deltas diverged at threads={n}");
        assert_eq!(par.new_object_base(), serial.new_object_base(), "ob' diverged at threads={n}");
        assert_eq!(
            par.round_traces(),
            serial.round_traces(),
            "round traces diverged at threads={n}"
        );
        assert_eq!(
            par.stratum_traces(),
            serial.stratum_traces(),
            "stratum traces diverged at threads={n}"
        );
        let (p, s) = (par.stats(), serial.stats());
        assert_eq!(
            (p.strata, p.rounds, p.fired_updates, p.versions_created, p.facts_copied),
            (s.strata, s.rounds, s.fired_updates, s.versions_created, s.facts_copied),
            "evaluation counters diverged at threads={n}"
        );
        assert_eq!(
            p.fired_candidates, s.fired_candidates,
            "step-1 candidate count diverged at threads={n}"
        );
        assert_eq!(
            (p.rule_evaluations, p.rule_evaluations_skipped, p.rule_evaluations_seeded),
            (s.rule_evaluations, s.rule_evaluations_skipped, s.rule_evaluations_seeded),
            "rule-evaluation counters diverged at threads={n}"
        );
        // One scan path: every width issues the same (non-empty) job
        // list, the serial run included.
        assert_ne!(s.parallel.scan_subtasks, 0, "serial run recorded no scan jobs");
        assert_eq!(
            p.parallel.scan_subtasks, s.parallel.scan_subtasks,
            "scan job count diverged at threads={n}"
        );
        par.result().check_invariants();
    }
    serial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The full battery: layered programs with ins/del/mod heads and
    /// negation strata over random bases. An evaluation-order bug in
    /// the parallel path changes answers here, not just timings.
    #[test]
    fn parallel_matches_sequential_on_update_programs(
        seed in 0u64..10_000,
        objects in 15usize..50,
        facts in 60usize..160,
        rules in 6usize..12,
    ) {
        let config = RandomConfig { objects, facts, rules, methods: 4, seed };
        let ob = random_object_base(config);
        let program = random_update_program(config);
        assert_parallel_matches(&program, &ob, CyclePolicy::Reject);
    }

    /// Insert-only programs over wider bases: monotone growth keeps
    /// per-round deltas (and so the seeded scans) large.
    #[test]
    fn parallel_matches_sequential_on_bulk_inserts(
        seed in 0u64..10_000,
        objects in 48usize..96,
        facts in 160usize..320,
    ) {
        let config = RandomConfig { objects, facts, rules: 8, methods: 4, seed };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        assert_parallel_matches(&program, &ob, CyclePolicy::Reject);
    }
}

/// Statically stratifiable programs must also run identically under
/// the runtime-stability cycle policy (which forces full per-round
/// re-evaluation — a different scan workload for the pool).
#[test]
fn parallel_matches_sequential_under_runtime_stability() {
    for seed in 0..8 {
        let config = RandomConfig { objects: 24, facts: 90, rules: 8, methods: 4, seed };
        let ob = random_object_base(config);
        let program = random_update_program(config);
        assert_parallel_matches(&program, &ob, CyclePolicy::RuntimeStability);
    }
}

/// One round of `T_P` is a function of the round's input `I`: step 2
/// copies `v*` w.r.t. `I`, so a version created in a round is never
/// the source another version of the *same* round copies from — at any
/// width, whatever order the round's versions are grouped in. Here
/// `ins(O)` and `mod(ins(O))` are both created in round 1 (one flagged
/// stratum under the runtime stability check); `mod(ins(O))` is a copy
/// of `O`, which has no `a`.
#[test]
fn same_round_versions_copy_from_the_round_input() {
    let ob = ObjectBase::parse("o.isa -> t. o.sal -> 10. p.isa -> t. p.sal -> 20.").unwrap();
    let program = Program::parse(
        "r1: ins[O].a -> 1 <= O.isa -> t & not mod(ins(O)).zzz -> 1.
         r2: mod[ins(O)].sal -> (S, S2) <= O.isa -> t & O.sal -> S & S2 = S + 1.",
    )
    .unwrap();
    let outcome = assert_parallel_matches(&program, &ob, CyclePolicy::RuntimeStability);
    for (object, raised) in [("o", 11), ("p", 21)] {
        let ins = Vid::object(oid(object)).apply(UpdateKind::Ins).unwrap();
        let mod_ins = ins.apply(UpdateKind::Mod).unwrap();
        assert!(outcome.result().contains(ins, sym("a"), &[], int(1)));
        assert!(outcome.result().contains(mod_ins, sym("sal"), &[], int(raised)));
        assert!(
            !outcome.result().contains(mod_ins, sym("a"), &[], int(1)),
            "mod(ins({object})) was copied from a version of its own round"
        );
    }
}

/// Guards bit-identity at every width on a transitive-closure chain
/// whose per-round delta — the seed of the next round's one scan job —
/// spans ~all objects.
#[test]
fn seed_splitting_triggers_and_stays_identical() {
    let n = 96;
    let mut src = String::new();
    for i in 0..n - 1 {
        src.push_str(&format!("o{i}.next -> o{}.\n", i + 1));
    }
    let ob = ObjectBase::parse(&src).unwrap();
    let program = Program::parse(
        "tc1: ins[X].reach -> R <= X.next -> R.
         tc2: ins[X].reach -> S <= ins(X).reach -> R & R.next -> S.",
    )
    .unwrap();
    assert_parallel_matches(&program, &ob, CyclePolicy::Reject);
}

/// Guards bit-identity at every width when dependent rules scan as
/// separate jobs of one round: a stratum mixing independent rules with
/// a conflicting-write pair (linked by a `ww` edge), plus a negation
/// stratum.
#[test]
fn component_scheduling_bundles_and_stays_identical() {
    let mut src = String::new();
    for i in 0..24 {
        // `o*` objects get `ins` versions, `m*` objects `mod` ones:
        // one update chain per object keeps the result version-linear.
        src.push_str(&format!(
            "o{i}.s -> 1. o{i}.t -> 2. m{i}.u -> 1. m{i}.v -> 2. m{i}.price -> {i}.\n"
        ));
    }
    let ob = ObjectBase::parse(&src).unwrap();
    let program = Program::parse(
        // Two independent rules (disjoint read/write namespaces),
        // then a write-write conflicting pair the commutativity
        // matrix cannot prove commutes (a `ww` edge), then a
        // strictly-later negation stratum keeping the multi-stratum
        // path hot. `e` negates `ins(X).q` so it lands above `a`..`d`;
        // its reads must not leak edges into the earlier stratum.
        "a: ins[X].p -> 1 <= X.s -> 1.
         b: ins[X].q -> 2 <= X.t -> 2.
         c: mod[X].price -> (P, 1) <= X.price -> P & X.u -> 1.
         d: mod[X].price -> (P, 2) <= X.price -> P & X.v -> 2.
         e: ins[ins(X)].flag -> 1 <= ins(X).p -> 1 & not ins(X).q -> 9.",
    )
    .unwrap();
    assert_parallel_matches(&program, &ob, CyclePolicy::Reject);

    let compiled = CompiledProgram::compile(program, CyclePolicy::Reject).unwrap();
    let report = ruvo::core::check::check(&compiled);
    // The only edge: `ww` between c and d. None between a and b, and
    // none from the negating rule e into the earlier stratum.
    assert_eq!(report.deps.edges(), [DepEdge { a: 2, b: 3, kind: DepEdgeKind::WriteWrite }]);
}
