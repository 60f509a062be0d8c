//! Semantic corner cases of §3/§4: footnote 2, the truth relation for
//! update-terms, overwrite fixpoints, `exists` protection, object
//! creation and deletion.

use ruvo::prelude::*;

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

fn run(ob: &str, program: &str) -> Outcome {
    let ob = ObjectBase::parse(ob).unwrap();
    let program = Program::parse(program).unwrap();
    evaluate(program, &ob).unwrap()
}

/// Footnote 2: a negated *version-term* `not del(mod(E)).isa -> empl`
/// is also satisfied when the delete never happened AND when it did
/// (the fact is gone either way) — so it cannot express "no delete was
/// performed". The negated *update-term* can.
#[test]
fn footnote_2_negated_version_vs_update_term() {
    // Object e was modified, then everything deleted (fired).
    let fired_ob = "e.isa -> empl. e.sal -> 10. boss.isa -> empl. boss.sal -> 5.
                    e.boss -> boss.";
    let setup = "
        rule1: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 2.
        rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE &
                                mod(B).isa -> empl / sal -> SB & SE > SB.
    ";
    // Both variants record survivors on a separate `report` object so
    // the comparison is about truth values, not about linearity.
    // Variant A: negated update-term (the paper's correct reading).
    let with_update_term = format!(
        "{setup}
         rule4: ins[report].survivor -> E <= mod(E).isa -> empl & not del[mod(E)].isa -> empl."
    );
    // Variant B: negated version-term (the footnote's wrong variant).
    let with_version_term = format!(
        "{setup}
         rule4: ins[report].survivor -> E <= mod(E).isa -> empl & not del(mod(E)).isa -> empl."
    );

    // e out-earns boss → e is deleted. With the update-term, only boss
    // survives.
    let ob2a = run(fired_ob, &with_update_term).new_object_base();
    assert_eq!(ob2a.lookup1(oid("report"), "survivor"), vec![oid("boss")]);

    // With the negated version-term, the deleted e *also* qualifies —
    // del(mod(e)).isa -> empl is false (the fact was deleted!), so the
    // negation holds and e is wrongly reported as a survivor.
    let ob2b = run(fired_ob, &with_version_term).new_object_base();
    let mut survivors = ob2b.lookup1(oid("report"), "survivor");
    survivors.sort();
    let mut both = vec![oid("boss"), oid("e")];
    both.sort();
    assert_eq!(survivors, both, "the footnote's wrong variant really is different");

    // Bonus: the paper's *original* rule-4 shape (ins[mod(E)]) with the
    // wrong negation does not merely compute a wrong answer — it fires
    // ins on an object whose mod-version was already deleted, which the
    // §5 runtime check rejects as non-version-linear.
    let original_shape = format!(
        "{setup}
         rule4: ins[mod(E)].survivor -> yes <= mod(E).isa -> empl & not del(mod(E)).isa -> empl."
    );
    let err =
        evaluate(Program::parse(&original_shape).unwrap(), &ObjectBase::parse(fired_ob).unwrap())
            .unwrap_err();
    assert!(err.to_string().contains("version-linearity"), "got: {err}");
}

/// The body truth of `mod[v].m -> (r, r)` (unchanged result, D5): holds
/// exactly for carried-over results of a modified version.
#[test]
fn mod_body_unchanged_result_clause() {
    let outcome = run(
        "e.sal -> 10. e.tag -> keep.",
        "m: mod[e].sal -> (10, 20) <= e.sal -> 10.
         probe1: ins[x].carried -> R <= mod[e].tag -> (R, R).
         probe2: ins[y].changed -> A <= mod[e].sal -> (A, B) & A != B.",
    );
    let ob2 = outcome.new_object_base();
    // tag -> keep was copied unchanged into mod(e): the (R, R) clause.
    assert_eq!(ob2.lookup1(oid("x"), "carried"), vec![oid("keep")]);
    // sal was changed 10 → 20: the (r, r') clause.
    assert_eq!(ob2.lookup1(oid("y"), "changed"), vec![int(10)]);
    // But sal -> (10, 10) must NOT hold (it did change).
    let bad = run(
        "e.sal -> 10.",
        "m: mod[e].sal -> (10, 20) <= e.sal -> 10.
         probe: ins[x].wrong -> 1 <= mod[e].sal -> (10, 10).",
    );
    assert_eq!(bad.new_object_base().lookup1(oid("x"), "wrong"), vec![]);
}

/// Deleting the last method-application keeps the version — it still
/// exists — and `del[v].m -> r` in a body still reports the transition
/// (§3's "loss of information" discussion).
#[test]
fn exists_note_survives_total_deletion() {
    let outcome = run(
        "victim.only -> 1.",
        "kill: del[victim].* <= victim.only -> 1.
         probe: ins[x].killed -> V <= del[V].only -> 1.",
    );
    let result = outcome.result();
    let del_v = Vid::object(oid("victim")).apply(UpdateKind::Del).unwrap();
    assert!(result.exists_fact(del_v), "the emptied version still exists");
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("x"), "killed"), vec![oid("victim")]);
    assert!(!ob2.objects().any(|o| o == oid("victim")));
}

/// An emptied version holds no stored fact yet exists: `result(P)`'s
/// text and snapshot write it as its one `v.exists -> o` fact and read
/// it back as an empty present version — on §2.3's enterprise run
/// (`del(mod(bob))`) and on a `del[o].*` run.
#[test]
fn emptied_versions_round_trip_through_text_and_snapshots() {
    let enterprise = evaluate(
        ruvo::workload::enterprise_program(),
        &ObjectBase::parse(ruvo::workload::PAPER_ENTERPRISE_OB).unwrap(),
    )
    .unwrap();
    let del_all = run("o.p -> 1. o.q -> 2. keep.p -> 3.", "del[o].* <= o.p -> 1.");
    let del_mod_bob = Vid::object(oid("bob"))
        .apply(UpdateKind::Mod)
        .and_then(|v| v.apply(UpdateKind::Del))
        .unwrap();
    let del_o = Vid::object(oid("o")).apply(UpdateKind::Del).unwrap();
    for (outcome, emptied) in [(&enterprise, del_mod_bob), (&del_all, del_o)] {
        let result = outcome.result();
        result.check_invariants();
        assert!(result.version(emptied).unwrap().is_empty());
        let text = result.to_string();
        let canonical = format!("{emptied}.exists -> {} .", emptied.base());
        assert_eq!(
            text.lines().filter(|l| l.contains(".exists ->")).collect::<Vec<_>>(),
            [canonical]
        );
        let back = ObjectBase::parse(&text).unwrap();
        assert_eq!(&back, result, "text was:\n{text}");
        assert_eq!(back.len(), result.len());
        let bytes = ruvo::obase::snapshot::write(result);
        let decoded = ruvo::obase::snapshot::read(&bytes).unwrap();
        assert_eq!(&decoded, result);
        decoded.check_invariants();
        assert_eq!(ruvo::obase::snapshot::write(&decoded), bytes);
    }
}

/// The only `exists` fact an object base can name is `v.exists -> o`:
/// any other is a typed parse error, never stored.
#[test]
fn non_canonical_exists_facts_do_not_parse() {
    for bad in ["o.exists -> p.", "o.exists @ o -> o.", "mod(o).exists -> 3."] {
        let err = ObjectBase::parse(bad).unwrap_err();
        assert!(err.to_string().contains("exists"), "{bad}: {err}");
    }
    let ob = ObjectBase::parse("o.exists -> o. o.p -> 1.").unwrap();
    assert_eq!(ob, ObjectBase::parse("o.p -> 1.").unwrap());
}

/// `exists` cannot be updated (§3): validation rejects it in heads.
#[test]
fn exists_is_not_updatable() {
    assert!(Program::parse("ins[x].exists -> x.").is_err());
    assert!(Program::parse("del[x].exists -> x <= x.p -> 1.").is_err());
    assert!(Program::parse("mod[x].exists -> (x, y) <= x.p -> 1.").is_err());
    // And del-all skips it rather than deleting it.
    let outcome = run("v.p -> 1.", "del[v].* <= v.p -> 1.");
    let del_v = Vid::object(oid("v")).apply(UpdateKind::Del).unwrap();
    assert!(outcome.result().exists_fact(del_v));
}

/// D1: a delete whose body only becomes true in a later round of the
/// same stratum still takes effect (overwrite, not union).
#[test]
fn late_delete_same_stratum() {
    let outcome = run(
        "a.seed -> 1. b.data -> 7. b.data -> 8.",
        "r1: ins[a].go -> 1 <= a.seed -> 1.
         r2: ins[a].go2 -> 1 <= ins(a).go -> 1.
         r3: del[b].data -> 7 <= ins(a).go2 -> 1.",
    );
    // All three rules share a stratum; r3 fires in round 3.
    assert_eq!(outcome.stratification().len(), 1);
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("b"), "data"), vec![int(8)]);
}

/// Deletes only remove what the head states; del-head truth requires
/// the information to exist ("a delete of information is only then
/// allowed, if the to-be-deleted information indeed exists").
#[test]
fn delete_requires_existing_information() {
    let outcome = run("a.p -> 1.", "phantom: del[a].p -> 99 <= a.p -> 1.");
    // The head is never true (a.p -> 99 does not exist): nothing fires,
    // not even a del(a) version.
    assert_eq!(outcome.stats().fired_updates, 0);
    let del_a = Vid::object(oid("a")).apply(UpdateKind::Del).unwrap();
    assert!(outcome.result().version(del_a).is_none());
}

/// Mod-head truth requires the old value; a stale `from` never fires.
#[test]
fn modify_requires_current_value() {
    let outcome = run("a.p -> 1.", "stale: mod[a].p -> (2, 3) <= a.p -> 1.");
    assert_eq!(outcome.stats().fired_updates, 0);
}

/// Two modifies of the same method with different from-values both
/// apply (set semantics of §2.1).
#[test]
fn set_valued_modify() {
    let outcome = run(
        "a.p -> 1. a.p -> 2.",
        "m1: mod[a].p -> (1, 10) <= a.p -> 1.
         m2: mod[a].p -> (2, 20) <= a.p -> 2.",
    );
    let mut got = outcome.new_object_base().lookup1(oid("a"), "p");
    got.sort();
    assert_eq!(got, vec![int(10), int(20)]);
}

/// Creating a brand-new object via ins on a never-seen OID (D3).
#[test]
fn object_creation_from_nothing() {
    let outcome = run(
        "seed.go -> 1.",
        "create: ins[phoenix].born -> yes <= seed.go -> 1.
         chain: ins[ins(phoenix)].grew -> yes <= ins(phoenix).born -> yes.",
    );
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("phoenix"), "born"), vec![oid("yes")]);
    assert_eq!(ob2.lookup1(oid("phoenix"), "grew"), vec![oid("yes")]);
}

/// Method arguments participate in matching and update identity.
#[test]
fn methods_with_arguments() {
    let outcome = run(
        "g.edge @ a, b -> 1. g.edge @ b, c -> 1.",
        "w: mod[g].edge @ a, b -> (1, 5) <= g.edge @ a, b -> 1.",
    );
    let result = outcome.result();
    let mod_g = Vid::object(oid("g")).apply(UpdateKind::Mod).unwrap();
    assert!(result.contains(mod_g, sym("edge"), &[oid("a"), oid("b")], int(5)));
    // The other argument tuple is untouched.
    assert!(result.contains(mod_g, sym("edge"), &[oid("b"), oid("c")], int(1)));
    assert!(!result.contains(mod_g, sym("edge"), &[oid("a"), oid("b")], int(1)));
}

/// The engine leaves the input object base untouched.
#[test]
fn input_object_base_is_immutable() {
    let ob = ObjectBase::parse("a.p -> 1.").unwrap();
    let before = ob.clone();
    let program = Program::parse("x: ins[a].q -> 2 <= a.p -> 1.").unwrap();
    let _ = evaluate(program, &ob).unwrap();
    assert_eq!(ob, before);
}

/// Update-facts (empty bodies) fire once, in the first round.
#[test]
fn update_facts_fire_once() {
    let outcome = run("", "f1: ins[a].p -> 1. f2: ins[a].p -> 2. f3: ins[b].q -> 3.");
    assert_eq!(outcome.stats().fired_updates, 3);
    let ob2 = outcome.new_object_base();
    let mut got = ob2.lookup1(oid("a"), "p");
    got.sort();
    assert_eq!(got, vec![int(1), int(2)]);
}

/// A deeper pipeline across strata: ins → mod → del on one object,
/// verifying the final version chain and each intermediate state.
#[test]
fn three_stage_pipeline() {
    let outcome = run(
        "acct.balance -> 100.",
        "s1: ins[acct].flagged -> yes <= acct.balance -> 100.
         s2: mod[ins(acct)].balance -> (100, 50) <= ins(acct).flagged -> yes.
         s3: del[mod(ins(acct))].flagged -> yes <= mod(ins(acct)).balance -> 50.",
    );
    assert_eq!(outcome.stratification().len(), 3);
    let base = Vid::object(oid("acct"));
    let v1 = base.apply(UpdateKind::Ins).unwrap();
    let v2 = v1.apply(UpdateKind::Mod).unwrap();
    let v3 = v2.apply(UpdateKind::Del).unwrap();
    let result = outcome.result();
    assert!(result.contains(v1, sym("flagged"), &[], oid("yes")));
    assert!(result.contains(v1, sym("balance"), &[], int(100)));
    assert!(result.contains(v2, sym("balance"), &[], int(50)));
    assert!(result.contains(v2, sym("flagged"), &[], oid("yes")));
    assert!(result.contains(v3, sym("balance"), &[], int(50)));
    assert!(!result.contains(v3, sym("flagged"), &[], oid("yes")));
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("acct"), "balance"), vec![int(50)]);
    assert!(ob2.lookup1(oid("acct"), "flagged").is_empty());
}

/// Round-limit safety valve.
#[test]
fn round_limit_is_enforced() {
    let ob = ObjectBase::parse("p0.isa -> person. p1.isa -> person. p1.parents -> p0.
                                p2.isa -> person. p2.parents -> p1. p3.isa -> person. p3.parents -> p2.").unwrap();
    let program = ruvo::workload::ancestors_program();
    let err =
        evaluate_with(program, Database::builder().max_rounds_per_stratum(1), &ob).unwrap_err();
    assert!(err.to_string().contains("fixpoint"), "got: {err}");
}
