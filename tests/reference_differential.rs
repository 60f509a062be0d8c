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
//! * the extracted new object base,
//!
//! and all engine configurations (delta filtering on/off, parallel
//! on/off) must produce that same result. The store's own `exists` and
//! `v*` reads on that result are checked against the §3 definition the
//! reference keeps (a scan of the version list), not assumed.

use proptest::prelude::*;
use ruvo::core::reference;
use ruvo::prelude::*;

/// `result(P)` of `program` on `ob` under `config`, nothing committed.
fn evaluate_with(
    program: Program,
    config: EngineConfig,
    ob: &ObjectBase,
) -> Result<Outcome, Error> {
    let db = Database::builder().config(config).open(ob.clone());
    db.evaluate(&db.prepare_program(program)?)
}

fn evaluate(program: Program, ob: &ObjectBase) -> Result<Outcome, Error> {
    evaluate_with(program, EngineConfig::default(), ob)
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

const NUM_TEMPLATES: usize = 18;

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
        _ => unreachable!("template index out of range"),
    }
}

fn arb_rule() -> impl Strategy<Value = TRule> {
    (0..NUM_TEMPLATES, 0usize..3, 0usize..3, 0usize..3, 0usize..4, 0i64..6)
        .prop_map(|(template, h, a, b, obj, k)| TRule { template, h, a, b, obj, k })
}

/// A small object base: facts `o{i}.m{j} -> value` where value is an
/// int or an object (so joins through results are possible).
fn arb_base() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (
            0usize..4,
            0usize..3,
            prop_oneof![
                (0i64..6).prop_map(|v| v.to_string()),
                (0usize..4).prop_map(|o| format!("o{o}")),
            ],
        ),
        0..10,
    )
    .prop_map(|facts| {
        facts.iter().map(|(o, m, v)| format!("o{o}.m{m} -> {v}.")).collect::<Vec<_>>().join(" ")
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
        prop_assume!(ruvo::core::stratify::stratify(&program).is_ok());
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
                prop_assert_eq!(
                    e.try_new_object_base().unwrap(),
                    r.new_object_base().unwrap(),
                    "ob' differs\nprogram:\n{}\nbase: {}", prog_src, ob_src
                );
                // On version-linear results, every final-version policy
                // coincides with the paper's extraction.
                for policy in [
                    ruvo::core::FinalVersionPolicy::DeepestWins,
                    ruvo::core::FinalVersionPolicy::MergeMaximal,
                ] {
                    prop_assert_eq!(
                        e.new_object_base_with(policy).unwrap(),
                        e.try_new_object_base().unwrap(),
                        "policy {:?} diverges on a linear result\nprogram:\n{}\nbase: {}",
                        policy, prog_src, ob_src
                    );
                }
                // All engine configurations agree with the reference.
                // verify_stability additionally asserts the §4 theorem:
                // on stratifiable programs, fired updates never un-fire
                // (an Unstable error here is a stratifier bug).
                for (parallel, verify) in [(true, false), (false, true)] {
                    let cfg = EngineConfig {
                        parallel,
                        verify_stability: verify,
                        ..EngineConfig::default()
                    };
                    let variant = evaluate_with(program.clone(), cfg, &ob)
                        .expect("variant config must succeed when default does");
                    prop_assert_eq!(
                        variant.result(), &r.result,
                        "config (parallel={}, verify={}) differs\nprogram:\n{}\nbase: {}",
                        parallel, verify, prog_src, ob_src
                    );
                }
            }
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
        if ruvo::core::stratify::stratify(&program).is_err() {
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
