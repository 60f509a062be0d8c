//! The §6 VID-quantification extension (`$V` variables), end to end.
//!
//! "More expressive power can be gained by allowing to quantify over
//! VIDs in addition to OIDs. However, such an extension must be done
//! carefully not to destroy the termination properties of the
//! evaluation process." — the implementation restricts VID variables
//! to *body version-terms*: they can read any version ever created,
//! but never name the target of an update, so the set of creatable
//! versions stays exactly as in the base language.

use ruvo::core::{reference, CyclePolicy};
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

#[test]
fn parses_and_pretty_prints() {
    let src = "ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.";
    let p1 = Program::parse(src).unwrap();
    assert_eq!(p1.rules[0].vid_vars.len(), 1);
    assert_eq!(p1.rules[0].vars.len(), 2);
    let printed = p1.to_string();
    assert!(printed.contains("$V"), "printed: {printed}");
    let p2 = Program::parse(&printed).unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn rejected_everywhere_but_body_version_terms() {
    // Head target.
    assert!(Program::parse("ins[$V].m -> 1 <= $V.p -> 1.").is_err());
    // Update-term target in a body.
    assert!(Program::parse("ins[x].m -> 1 <= del[$V].p -> 1.").is_err());
    // Result position.
    assert!(Program::parse("ins[x].m -> $V <= x.p -> 1.").is_err());
    // Argument position.
    assert!(Program::parse("ins[x].m @ $V -> 1 <= x.p -> 1.").is_err());
    // Ground facts.
    assert!(ObjectBase::parse("$V.m -> 1.").is_err());
}

#[test]
fn negated_vid_var_must_be_bound() {
    // $V appears only under negation: unsafe.
    let err = Program::parse("ins[x].m -> 1 <= x.p -> 1 & not $V.q -> 1.").unwrap_err();
    assert!(err.to_string().contains("$V"), "got: {err}");
    // Bound by a positive atom first: fine.
    assert!(Program::parse("ins[x].m -> 1 <= $V.p -> 1 & not $V.q -> 1.").is_ok());
}

/// The motivating use case: audit every version any object ever had.
/// `$V` sees pre- and post-update salaries alike.
#[test]
fn audit_example_sees_all_versions() {
    let ob = ObjectBase::parse(
        "henry.isa -> empl. henry.sal -> 600.
         mary.isa -> empl.  mary.sal -> 1200.",
    )
    .unwrap();
    let program = Program::parse(
        "raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 2.
         audit: ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.",
    )
    .unwrap();
    let outcome = evaluate(program.clone(), &ob).unwrap();
    // The wildcard forces `audit` strictly above the mod-rule.
    assert_eq!(outcome.stratification().strata.len(), 2);
    let ob2 = outcome.new_object_base();
    let mut flagged = ob2.lookup1(oid("audit"), "flagged");
    flagged.sort();
    // mary's initial 1200, mod(henry)'s 1200 and mod(mary)'s 2400 all
    // exceed 1000 — henry is flagged only thanks to $V seeing the
    // post-update version.
    assert_eq!(flagged, vec![oid("henry"), oid("mary")]);

    // The reference interpreter agrees.
    let r = reference::evaluate(&program, &ob).unwrap();
    assert_eq!(outcome.result(), &r.result);
    assert_eq!(ob2, r.new_object_base().unwrap());
}

#[test]
fn termination_is_preserved() {
    // Without the body-only restriction, `ins[$V]...` would create
    // ever-deeper versions. The closest legal program creates exactly
    // one ins-version per *object* and terminates.
    let ob = ObjectBase::parse("a.p -> 1. b.p -> 2.").unwrap();
    let program = Program::parse("ins[O].seen -> 1 <= $V.exists -> O.").unwrap();
    let outcome = evaluate(program, &ob).unwrap();
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("a"), "seen"), vec![int(1)]);
    assert_eq!(ob2.lookup1(oid("b"), "seen"), vec![int(1)]);
}

#[test]
fn wildcard_in_del_rule_needs_dynamic_mode() {
    // A del-head rule reading $V gets a strict (d) self-edge: the
    // version $V denotes might be the one the rule is still shrinking.
    // Statically rejected; stable at runtime on this base.
    let ob = ObjectBase::parse("o.m -> 1.").unwrap();
    let program = Program::parse("del[X].m -> R <= $V.m -> R & $V.exists -> X.").unwrap();
    let err = evaluate(program.clone(), &ob).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Stratify);

    let dynamic = Database::builder().cycle_policy(CyclePolicy::RuntimeStability);
    let outcome = evaluate_with(program, dynamic, &ob).unwrap();
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("o"), "m"), vec![]);
}

#[test]
fn repeated_vid_var_selects_one_version() {
    // Both atoms constrain the same $V: the version must carry both
    // methods. Only mod(o) does (o itself lacks q).
    let ob = ObjectBase::parse("o.p -> 1. x.trigger -> 1.").unwrap();
    let program = Program::parse(
        "setup: ins[o].q -> 2 <= o.p -> 1.
         find: ins[hit].both -> S <= $V.p -> S & $V.q -> 2.",
    )
    .unwrap();
    let outcome = evaluate(program.clone(), &ob).unwrap();
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("hit"), "both"), vec![int(1)]);
    let r = reference::evaluate(&program, &ob).unwrap();
    assert_eq!(outcome.result(), &r.result);
}

#[test]
fn wildcard_rules_agree_with_the_reference() {
    let ob = ObjectBase::parse("a.isa -> t. a.v -> 1. b.isa -> t. b.v -> 5. c.isa -> t. c.v -> 9.")
        .unwrap();
    let program = Program::parse(
        "grow: ins[X].v2 -> W <= X.isa -> t & X.v -> V & W = V * 10.
         scan: ins[collect].seen -> O <= $V.v2 -> W & $V.exists -> O & W > 40.",
    )
    .unwrap();
    // The reference re-evaluates every rule in full each round; the
    // engine must not skip or under-seed the trigger-less `scan` rule.
    let r = reference::evaluate(&program, &ob).unwrap();
    assert_eq!(evaluate(program, &ob).unwrap().result(), &r.result);
}

/// `$V.exists -> O` enumerates exactly the versions of `result(P)`, an
/// emptied one included: `exists` is the version table (§3).
#[test]
fn vid_exists_scan_enumerates_every_version() {
    use ruvo::term::{VarId, VidVarId};
    let ob = ObjectBase::parse("o.p -> 1. o.q -> 2. k.p -> 3.").unwrap();
    let program =
        Program::parse("wipe: del[o].* <= o.p -> 1. tag: ins[k].t -> 1 <= k.p -> 3.").unwrap();
    let outcome = evaluate(program, &ob).unwrap();
    let result = outcome.result();
    let del_o = Vid::object(oid("o")).apply(UpdateKind::Del).unwrap();
    assert!(result.version(del_o).unwrap().is_empty(), "del(o) is emptied");

    let scan = Program::parse("s: ins[x].seen -> O <= $V.exists -> O.").unwrap();
    let plan = ruvo::core::IndexPlan::of(&scan);
    let mut seen = Vec::new();
    ruvo::core::matcher::for_each_match(result, &scan.rules[0], &plan.rules[0], None, &mut |b| {
        let v = b.get_vid(VidVarId(0)).expect("$V is bound");
        assert_eq!(b.get(VarId(0)), Some(v.base()), "O is the object of $V");
        seen.push(v);
    });
    seen.sort();
    let mut versions: Vec<Vid> = result.versions().collect();
    versions.sort();
    assert_eq!(seen, versions);
    assert!(seen.contains(&del_o));
}
