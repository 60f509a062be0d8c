//! Differential testing: the optimized engine against the executable
//! specification in `ruvo::core::reference`.
//!
//! Programs are assembled from a pool of rule *templates* covering
//! every language feature — ins/del/mod heads, chained targets,
//! update-terms in bodies (positive and negated), negation, `del[..].*`,
//! arithmetic, set-valued methods — with proptest choosing template
//! parameters (method/object indices, constants). This gives shrinking:
//! a disagreement minimizes to the smallest program + object base that
//! exhibits it.
//!
//! For every generated case, engine and reference must agree on:
//!
//! * success vs failure, and the failure kind (linearity / round limit),
//! * the full `result(P)` (every version state),
//! * the extracted new object base, and the head `Database::apply`
//!   commits (either commit path),
//!
//! The reference recomputes `T¹` from scratch every round and checks
//! stability on every stratum, so its success also asserts §4's
//! theorem: on a stratifiable program no fired update un-fires. The
//! store's own `exists` and `v*` reads on that result are checked
//! against the §3 definition the reference keeps (a scan of the version
//! list), not assumed.
//!
//! Generated bases are version-linear but not always flat: an object
//! may carry an `ins(oN)` → `mod(ins(oN))` or a `mod(oN)` line, so §5's
//! final version is read from the starting base as well as the run.
//!
//! Fixed cases and [`random_update_program`]'s layered programs follow
//! the template battery: a runtime-stability round that creates a
//! version and a version of it at once, an unstable run both sides
//! reject, a closure chain, a stratum mixing independent rules with a
//! conflicting `mod` pair, and random deletes, modifies and negation
//! strata.

use proptest::prelude::*;
use ruvo::core::stratify::{stratify, stratify_relaxed};
use ruvo::core::{reference, CompiledProgram, CyclePolicy, DepEdge, DepEdgeKind};
use ruvo::prelude::*;
use ruvo::workload::{random_object_base, random_update_program, RandomConfig};

/// `result(P)` of `program` on `ob` under `builder`'s configuration,
/// nothing committed.
fn evaluate_with(
    program: Program,
    builder: DatabaseBuilder,
    ob: &ObjectBase,
) -> Result<Outcome, Error> {
    let db = builder.open(ob.clone());
    db.evaluate(&db.prepare_program(program)?)
}

fn evaluate(program: Program, ob: &ObjectBase) -> Result<Outcome, Error> {
    evaluate_with(program, Database::builder(), ob)
}

/// The store answers `exists` and `v*` from its version table; check
/// every such read against [`reference::exists`] / [`reference::v_star`]
/// on `ob`'s versions, their prefixes and one-update extensions.
fn assert_exists_reads_match_definition(ob: &ObjectBase) {
    let exists = ruvo::obase::exists_sym();
    let mut probes: Vec<Vid> = Vec::new();
    for v in ob.versions() {
        probes.extend(v.subterms());
        probes.extend(
            [UpdateKind::Ins, UpdateKind::Del, UpdateKind::Mod]
                .into_iter()
                .filter_map(|k| v.apply(k).ok()),
        );
    }
    for v in probes {
        let defined = reference::exists(ob, v);
        assert_eq!(ob.exists_fact(v), defined, "exists_fact({v})");
        assert_eq!(ob.contains(v, exists, &[], v.base()), defined, "contains({v}.exists)");
        assert_eq!(
            ob.results(v, exists, &[]).collect::<Vec<_>>(),
            if defined { vec![v.base()] } else { vec![] }
        );
        let keyed: Vec<Vid> = ob.versions_with_result(v.chain(), exists, v.base()).collect();
        assert_eq!(keyed, if defined { vec![v] } else { vec![] }, "versions_with_result({v})");
        assert_eq!(ob.count_with_result(v.chain(), exists, v.base()), keyed.len(), "count {v}");
        assert_eq!(ob.v_star(v), reference::v_star(ob, v), "v_star({v})");
        let mut scanned: Vec<Vid> = ob.versions_with(v.chain(), exists).collect();
        let mut listed: Vec<Vid> = ob.versions().filter(|w| w.chain() == v.chain()).collect();
        scanned.sort();
        listed.sort();
        assert_eq!(scanned, listed, "versions_with({}, exists)", v.chain());
    }
}

/// One template instantiation. `h`, `a`, `b` pick method names, `obj`
/// picks a constant object, `k` a small integer constant.
#[derive(Clone, Debug)]
struct TRule {
    template: usize,
    h: usize,
    a: usize,
    b: usize,
    obj: usize,
    k: i64,
}

const NUM_TEMPLATES: usize = 21;

fn render(r: &TRule) -> String {
    let TRule { template, h, a, b, obj, k } = *r;
    match template {
        // Plain copies and constant inserts.
        0 => format!("ins[X].m{h} -> R <= X.m{a} -> R."),
        1 => format!("ins[X].m{h} -> {k} <= X.m{a} -> R."),
        2 => format!("ins[X].m{h} -> Z <= X.m{a} -> Y & Y.m{b} -> Z."),
        // Deletes on initial versions.
        3 => format!("del[X].m{a} -> R <= X.m{a} -> R & X.m{b} -> S & S > R."),
        4 => format!("del[X].m{a} -> {k} <= X.m{a} -> {k}."),
        // Modifies on initial versions.
        5 => format!("mod[X].m{a} -> (R, {k}) <= X.m{a} -> R."),
        6 => format!("mod[X].m{a} -> (R, S) <= X.m{a} -> R & S = R + 1."),
        7 => format!("mod[X].m{a} -> (R, R) <= X.m{a} -> R."),
        // Second-stage rules over mod(·) versions.
        8 => format!("ins[mod(X)].m{h} -> {k} <= mod(X).m{a} -> R."),
        9 => format!("del[mod(X)].m{a} -> R <= mod(X).m{a} -> R & mod(X).m{b} -> {k}."),
        // Negation of version- and update-terms.
        10 => format!("ins[X].m{h} -> 1 <= X.m{a} -> R & not X.m{b} -> {k}."),
        11 => format!("ins[mod(X)].m{h} -> 1 <= mod(X).m{a} -> R & not del[mod(X)].m{a} -> R."),
        // Recursion through ins(·).
        12 => format!("ins[X].m{h} -> R <= ins(X).m{a} -> R & X.m{b} -> R."),
        // del-all and ground facts.
        13 => format!("del[o{obj}].* <= o{obj}.m{a} -> R."),
        14 => format!("ins[o{obj}].m{h} -> {k}."),
        // The hypothetical-reasoning revert shape (mod over mod).
        15 => format!("mod[mod(X)].m{a} -> (S, R) <= mod(X).m{a} -> S & X.m{a} -> R."),
        // Computed head value whose variable id precedes its input
        // (caught a reference-interpreter enumeration bug).
        16 => format!("ins[X].m{h} -> W <= X.m{a} -> V & W = V * 10 + {k}."),
        // §6 VID variable: flag the base object of any version whose
        // method exceeds a threshold.
        17 => format!("ins[O].m{h} -> {k} <= $V.m{a} -> R & $V.exists -> O & R > {k}."),
        // Two constant keys, so the join may start at either: an int
        // and an object result, on initial versions, on mod(·) versions
        // joined back to their objects, and after an assignment.
        18 => format!("ins[X].m{h} -> 1 <= X.m{a} -> {k} & X.m{b} -> o{obj}."),
        19 => format!(
            "ins[mod(X)].m{h} -> R <= mod(X).m{a} -> {k} & mod(X).m{b} -> o{obj} & X.m{a} -> R."
        ),
        20 => format!("ins[X].m{h} -> R <= X = o{obj} & X.m{a} -> R & X.m{b} -> {k}."),
        _ => unreachable!("template index out of range"),
    }
}

fn arb_rule() -> impl Strategy<Value = TRule> {
    (0..NUM_TEMPLATES, 0usize..3, 0usize..3, 0usize..3, 0usize..4, 0i64..6)
        .prop_map(|(template, h, a, b, obj, k)| TRule { template, h, a, b, obj, k })
}

/// The version lines a seeded object can hold, deepest last: flat, an
/// `ins(oN)` → `mod(ins(oN))` chain, or a `mod(oN)` chain. Each line is
/// linear, so every generated base is.
const LINES: [&[&str]; 3] = [&["{}"], &["{}", "ins({})", "mod(ins({}))"], &["{}", "mod({})"]];

/// A small, version-linear object base: facts `v.m{j} -> value` where
/// `v` is a version of `o{i}` on that object's line (see [`LINES`]) and
/// value is an int or an object (so joins through results are
/// possible).
fn arb_base() -> impl Strategy<Value = String> {
    let facts = proptest::collection::vec(
        (
            0usize..4,
            0usize..3,
            0usize..3,
            prop_oneof![
                (0i64..6).prop_map(|v| v.to_string()),
                (0usize..4).prop_map(|o| format!("o{o}")),
            ],
        ),
        0..10,
    );
    (proptest::collection::vec(0..LINES.len(), 4), facts).prop_map(|(lines, facts)| {
        facts
            .iter()
            .map(|&(o, depth, m, ref v)| {
                let line = LINES[lines[o]];
                let version = line[depth.min(line.len() - 1)].replace("{}", &format!("o{o}"));
                format!("{version}.m{m} -> {v}.")
            })
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_global_rejects: 65536,
        ..ProptestConfig::default()
    })]

    #[test]
    fn engine_matches_reference(ob_src in arb_base(), rules in proptest::collection::vec(arb_rule(), 1..5)) {
        let prog_src = rules.iter().map(render).collect::<Vec<_>>().join("\n");
        let program = Program::parse(&prog_src)
            .unwrap_or_else(|e| panic!("template program must parse: {e}\n{prog_src}"));
        // Non-stratifiable template combinations are rejected identically
        // by both sides (they share the static analysis); skip them.
        prop_assume!(stratify(&program).is_ok());
        let ob = ObjectBase::parse(&ob_src).unwrap();

        let engine = evaluate(program.clone(), &ob);
        let reference = reference::evaluate(&program, &ob);

        match (engine, reference) {
            (Ok(e), Ok(r)) => {
                prop_assert_eq!(
                    e.result(), &r.result,
                    "result(P) differs\nprogram:\n{}\nbase: {}", prog_src, ob_src
                );
                assert_exists_reads_match_definition(e.result());
                let expected = r.new_object_base().unwrap();
                prop_assert_eq!(
                    &e.try_new_object_base().unwrap(), &expected,
                    "ob' differs\nprogram:\n{}\nbase: {}", prog_src, ob_src
                );
                // The head a commit installs is the same `ob′`, by
                // either commit path.
                let mut db = Database::open(ob.clone());
                let prepared = db.prepare_program(program.clone()).unwrap();
                db.apply(&prepared).unwrap();
                prop_assert_eq!(
                    db.current(), &expected,
                    "committed head differs\nprogram:\n{}\nbase: {}", prog_src, ob_src
                );
            }
            // The reference checks stability on every stratum: an
            // Unstable error there while the engine succeeds lands in
            // the mismatch arm below — a stratifier bug.
            (Err(ee), Err(re)) => {
                prop_assert_eq!(
                    ee.kind(), Error::from(re.clone()).kind(),
                    "error kinds differ: engine {:?} vs reference {:?}\nprogram:\n{}\nbase: {}",
                    ee, re, prog_src, ob_src
                );
            }
            (e, r) => {
                return Err(TestCaseError::fail(format!(
                    "engine {e:?} vs reference {r:?}\nprogram:\n{prog_src}\nbase: {ob_src}"
                )));
            }
        }
    }
}

/// Deterministic seeds for quick CI coverage of the same machinery
/// (proptest uses random seeds; these pin a fixed spread).
#[test]
fn fixed_seed_differential_sweep() {
    let mut checked = 0usize;
    for seed in 0..40u64 {
        // A tiny xorshift so the sweep is reproducible without rand.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        let mut ob_src = String::new();
        for _ in 0..next(9) {
            let o = next(4);
            let m = next(3);
            let v = if next(2) == 0 { format!("{}", next(6)) } else { format!("o{}", next(4)) };
            ob_src.push_str(&format!("o{o}.m{m} -> {v}. "));
        }
        let mut prog_src = String::new();
        for _ in 0..1 + next(4) {
            let r = TRule {
                template: next(NUM_TEMPLATES as u64) as usize,
                h: next(3) as usize,
                a: next(3) as usize,
                b: next(3) as usize,
                obj: next(4) as usize,
                k: next(6) as i64,
            };
            prog_src.push_str(&render(&r));
            prog_src.push('\n');
        }
        let program = Program::parse(&prog_src).unwrap();
        if stratify(&program).is_err() {
            continue;
        }
        let ob = ObjectBase::parse(&ob_src).unwrap();
        let engine = evaluate(program.clone(), &ob);
        let reference = reference::evaluate(&program, &ob);
        match (engine, reference) {
            (Ok(e), Ok(r)) => {
                assert_eq!(e.result(), &r.result, "seed {seed}\n{prog_src}\n{ob_src}");
                assert_exists_reads_match_definition(e.result());
                checked += 1;
            }
            (Err(ee), Err(re)) => {
                assert_eq!(ee.kind(), Error::from(re).kind(), "seed {seed}\n{prog_src}\n{ob_src}");
                checked += 1;
            }
            (e, r) => panic!("seed {seed}: engine {e:?} vs reference {r:?}\n{prog_src}\n{ob_src}"),
        }
    }
    assert!(checked >= 20, "too few stratifiable seeds: {checked}");
}

/// The engine under `cycles` against the reference on the strata the
/// same policy gives: equal `result(P)` and `ob′`, and a `result(P)`
/// that keeps the store's invariants. Returns the engine's outcome.
fn assert_engine_matches_reference(
    program: &Program,
    ob: &ObjectBase,
    cycles: CyclePolicy,
) -> Outcome {
    let strata = match cycles {
        CyclePolicy::Reject => stratify(program).unwrap(),
        CyclePolicy::RuntimeStability => stratify_relaxed(program).stratification,
    };
    let engine = evaluate_with(program.clone(), Database::builder().cycle_policy(cycles), ob)
        .unwrap_or_else(|e| panic!("engine: {e}\n{program}"));
    let r = reference::evaluate_bounded(program, &strata, ob, reference::DEFAULT_MAX_ROUNDS)
        .unwrap_or_else(|e| panic!("reference: {e}\n{program}"));
    assert_eq!(engine.result(), &r.result, "result(P) differs\n{program}");
    assert_eq!(
        engine.try_new_object_base().unwrap(),
        r.new_object_base().unwrap(),
        "ob' differs\n{program}"
    );
    engine.result().check_invariants();
    engine
}

/// One round of `T_P` is a function of the round's input `I`: step 2
/// copies `v*` w.r.t. `I`, so a version created in a round is never
/// the source another version of the *same* round copies from. Here
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
    assert!(stratify(&program).is_err(), "the case needs the runtime stability policy");
    let outcome = assert_engine_matches_reference(&program, &ob, CyclePolicy::RuntimeStability);
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

/// Stability parity: a program only the runtime stability policy
/// accepts, on a base where it is unstable. `r2` fires `ins[a].go -> 1`
/// in round 1; once `r1` deletes `m` from `ins(a)` in round 2, `r2`'s
/// negated update-term holds and the insert stops firing in round 3.
/// The engine (on its flagged stratum) and the reference (on every
/// stratum) reject the run alike.
#[test]
fn unstable_runs_are_rejected_by_engine_and_reference_alike() {
    let ob = ObjectBase::parse("a.m -> 1. a.trigger -> 1.").unwrap();
    let program = Program::parse(
        "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
         r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 1.",
    )
    .unwrap();
    assert!(stratify(&program).is_err(), "the case needs the runtime stability policy");
    let dynamic = Database::builder().cycle_policy(CyclePolicy::RuntimeStability);
    let engine = evaluate_with(program.clone(), dynamic, &ob).unwrap_err();
    let strata = stratify_relaxed(&program).stratification;
    let reference =
        reference::evaluate_bounded(&program, &strata, &ob, reference::DEFAULT_MAX_ROUNDS)
            .unwrap_err();
    assert_eq!(engine.kind(), ErrorKind::Unstable);
    assert_eq!(Error::from(reference), engine);
    let Error::Unstable { stratum, round, update } = engine else { unreachable!() };
    assert_eq!((stratum, round, update.as_str()), (0, 3, "ins[a].go -> 1"));
}

/// A transitive-closure chain: after round 1 every round is one seeded
/// pass, seeded with the facts the previous round added.
#[test]
fn closure_chain_matches_reference() {
    let n = 32;
    let chain: String = (0..n - 1).map(|i| format!("o{i}.next -> o{}.\n", i + 1)).collect();
    let ob = ObjectBase::parse(&chain).unwrap();
    let program = Program::parse(
        "tc1: ins[X].reach -> R <= X.next -> R.
         tc2: ins[X].reach -> S <= ins(X).reach -> R & R.next -> S.",
    )
    .unwrap();
    let outcome = assert_engine_matches_reference(&program, &ob, CyclePolicy::Reject);
    assert_eq!(outcome.stats().fired_updates, n * (n - 1) / 2);
}

/// A stratum mixing independent rules with a conflicting-write pair
/// (linked by a `ww` edge), plus a negation stratum.
#[test]
fn mixed_strata_match_reference_with_one_ww_edge() {
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
        // strictly-later negation stratum. `e` negates `ins(X).q` so
        // it lands above `a`..`d`; its reads must not leak edges into
        // the earlier stratum.
        "a: ins[X].p -> 1 <= X.s -> 1.
         b: ins[X].q -> 2 <= X.t -> 2.
         c: mod[X].price -> (P, 1) <= X.price -> P & X.u -> 1.
         d: mod[X].price -> (P, 2) <= X.price -> P & X.v -> 2.
         e: ins[ins(X)].flag -> 1 <= ins(X).p -> 1 & not ins(X).q -> 9.",
    )
    .unwrap();
    let outcome = assert_engine_matches_reference(&program, &ob, CyclePolicy::Reject);
    assert_eq!(outcome.stratification().strata.len(), 2);

    let compiled = CompiledProgram::compile(program, CyclePolicy::Reject).unwrap();
    let report = ruvo::core::check::check(&compiled);
    // The only edge: `ww` between c and d. None between a and b, and
    // none from the negating rule e into the earlier stratum.
    assert_eq!(report.deps.edges(), [DepEdge { a: 2, b: 3, kind: DepEdgeKind::WriteWrite }]);
}

/// The `random_update_program` cases both update-program tests run:
/// seeds 0..200 at two base sizes.
fn random_update_cases() -> impl Iterator<Item = (RandomConfig, ObjectBase, Program)> {
    [(6, 20, 6), (10, 36, 8)].into_iter().flat_map(|(objects, facts, rules)| {
        (0..200).map(move |seed| {
            let config = RandomConfig { objects, facts, rules, seed, ..RandomConfig::default() };
            (config, random_object_base(config), random_update_program(config))
        })
    })
}

/// Layered update-programs — deletes, modifies and negation strata,
/// where an evaluation-order bug changes answers — against the
/// reference.
#[test]
fn random_update_programs_match_reference() {
    for (_, ob, program) in random_update_cases() {
        assert_engine_matches_reference(&program, &ob, CyclePolicy::Reject);
    }
}

/// The same programs under the runtime stability policy, which
/// re-evaluates every rule in full each round: each is statically
/// stratifiable, so the engine must match the reference on the relaxed
/// strata and reach the `result(P)` of the static run.
#[test]
fn random_update_programs_match_reference_under_runtime_stability() {
    for (config, ob, program) in random_update_cases() {
        let relaxed = assert_engine_matches_reference(&program, &ob, CyclePolicy::RuntimeStability);
        let stratified = evaluate(program, &ob).unwrap();
        assert_eq!(
            relaxed.result(),
            stratified.result(),
            "seed {}, {} objects",
            config.seed,
            config.objects
        );
    }
}
