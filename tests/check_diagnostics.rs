//! Golden-file tests for `ruvo check` diagnostics (exact rendered
//! output and JSON), plus the differential commutativity property:
//! a program whose same-stratum rule pairs all commute must produce
//! the identical final object base when its rules run in reverse
//! order.

use proptest::prelude::*;
use ruvo::core::check::{check_source, Commutativity};
use ruvo::core::CyclePolicy;
use ruvo::lang::analysis::{json_array, render_all};
use ruvo::prelude::*;

/// Render every diagnostic for `src` exactly as the CLI would.
fn rendered(src: &str) -> String {
    let report = check_source(src, CyclePolicy::Reject);
    render_all(&report.diagnostics, Some(src), Some("prog.rv"))
}

// ----- golden renders: one malformed program per lint ----------------

#[test]
fn golden_syntax_error() {
    assert_eq!(
        rendered("ins[X].p -> ??? .\n"),
        "error[syntax]: unexpected character '?' (did you mean `?-`?)\n \
         --> prog.rv:1:13\n  \
         |\n\
         1 | ins[X].p -> ??? .\n  \
         |             ^\n"
    );
}

#[test]
fn golden_duplicate_label() {
    assert_eq!(
        rendered("r: ins[a].p -> 1.\nr: ins[b].p -> 2.\n"),
        "error[duplicate-label]: duplicate rule label `r` (first used by rule 1)\n \
         --> prog.rv:2:1\n  \
         |\n\
         2 | r: ins[b].p -> 2.\n  \
         | ^^^^^^^^^^^^^^^^^\n  \
         = note: first definition at 1:1\n"
    );
}

#[test]
fn golden_exists_update() {
    assert_eq!(
        rendered("ins[x].exists -> x.\n"),
        "error[exists-update]: rule `rule1`: the system method `exists` cannot be updated\n \
         --> prog.rv:1:1\n  \
         |\n\
         1 | ins[x].exists -> x.\n  \
         | ^^^^^^^^^^^^^^^^^^^\n  \
         = note: \u{a7}3 reserves `exists`: `o.exists -> o` is maintained by the engine\n"
    );
}

#[test]
fn golden_unsafe_rule() {
    assert_eq!(
        rendered("ins[X].p -> Y <= X.q -> 1.\n"),
        "error[unsafe-rule]: unsafe rule rule1: head variable(s) [\"Y\"] are not bound by the body\n \
         --> prog.rv:1:1\n  \
         |\n\
         1 | ins[X].p -> Y <= X.q -> 1.\n  \
         | ^^^^^^^^^^^^^^^^^^^^^^^^^^\n  \
         = note: \u{a7}2.1 requires rules to be safe (range-restricted, cf. [Ull88])\n"
    );
}

#[test]
fn golden_dead_rule() {
    assert_eq!(
        rendered("r1: ins[x].p -> 1 <= ins(y).q -> 1.\n"),
        "warning[dead-rule]: rule `r1` can never fire: its body requires version `ins(y)`, \
         which no rule creates\n \
         --> prog.rv:1:1\n  \
         |\n\
         1 | r1: ins[x].p -> 1 <= ins(y).q -> 1.\n  \
         | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n  \
         = note: this is decided against rule heads only; a pre-populated initial object \
         base could still satisfy a version-term requirement\n"
    );
}

#[test]
fn golden_dynamic_policy_required() {
    // Condition (c) cycle: compiled under CyclePolicy::Reject, so the
    // check explains which policy would accept the program. No span:
    // stratification is a whole-program property.
    assert_eq!(
        rendered("ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.\n"),
        "error[dynamic-policy-required]: program is not stratifiable: rules {rule1} are \
         mutually dependent but condition (c) requires rule1 to be in a strictly lower \
         stratum than rule1\n  \
         = note: CyclePolicy::RuntimeStability (DatabaseBuilder::cycle_policy) accepts \
         this program and verifies stability at run time\n"
    );
}

#[test]
fn golden_arity_mismatch() {
    assert_eq!(
        rendered("a: ins[x].m @ 1 -> 2.\nb: ins[y].m -> 3.\n"),
        "warning[arity-mismatch]: method `m` is used with 0 argument(s) in rule `b` but \
         with 1 argument(s) in rule `a`\n \
         --> prog.rv:2:1\n  \
         |\n\
         2 | b: ins[y].m -> 3.\n  \
         | ^^^^^^^^^^^^^^^^^\n  \
         = note: method-applications with different argument counts never match each \
         other; this is usually a typo\n"
    );
}

#[test]
fn golden_duplicate_rule() {
    // Alpha-equivalent duplicates: same rule up to variable renaming.
    assert_eq!(
        rendered("r1: ins[X].p -> 1 <= X.q -> 1.\nr2: ins[Y].p -> 1 <= Y.q -> 1.\n"),
        "warning[duplicate-rule]: rule `r2` duplicates rule `r1` (identical head and body)\n \
         --> prog.rv:2:1\n  \
         |\n\
         2 | r2: ins[Y].p -> 1 <= Y.q -> 1.\n  \
         | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n  \
         = note: both rules fire on exactly the same instances; the later one is shadowed\n"
    );
}

const CONFLICT: &str = "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
                        r2: mod[X].price -> (P, 2) <= X.price -> P.\n";

#[test]
fn golden_write_write_conflict() {
    assert_eq!(
        rendered(CONFLICT),
        "warning[write-write-conflict]: rules `r1` and `r2` are in the same stratum and \
         may both modify `X`.price with different results\n \
         --> prog.rv:2:1\n  \
         |\n\
         2 | r2: mod[X].price -> (P, 2) <= X.price -> P.\n  \
         | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^\n  \
         = note: within a stratum no firing order is defined; conflicting writes make \
         the result set depend on it\n  \
         = note: `r1` is defined at 1:1\n"
    );
}

#[test]
fn golden_json_output() {
    let report = check_source(CONFLICT, CyclePolicy::Reject);
    assert_eq!(
        json_array(&report.diagnostics),
        "[{\"lint\":\"write-write-conflict\",\"severity\":\"warning\",\
         \"span\":{\"line\":2,\"col\":1,\"end_line\":2,\"end_col\":43},\
         \"message\":\"rules `r1` and `r2` are in the same stratum and may both modify \
         `X`.price with different results\",\
         \"notes\":[\"within a stratum no firing order is defined; conflicting writes \
         make the result set depend on it\",\"`r1` is defined at 1:1\"]}]"
    );
}

// ----- prepare-time surfacing ----------------------------------------

#[test]
fn prepare_attaches_warnings_and_deny_lints_escalates() {
    let db = Database::open_src("item.price -> 10.").unwrap();
    let report = db.prepare(CONFLICT).unwrap().check();
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].lint, Lint::WriteWriteConflict);
    assert_eq!(report.commutativity().pairs_with(Commutativity::Conflicts), vec![(0, 1)]);

    let strict = Database::builder()
        .deny_lints([Lint::WriteWriteConflict])
        .open_src("item.price -> 10.")
        .unwrap();
    let err = strict.prepare(CONFLICT).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Lint);
    assert!(err.to_string().contains("write-write"), "got: {err}");

    // The serving handle keeps the gate: neither entry point accepts
    // the program, and nothing is committed.
    let serving = strict.into_serving();
    assert_eq!(serving.prepare(CONFLICT).unwrap_err().kind(), ErrorKind::Lint);
    assert_eq!(serving.apply_src(CONFLICT).unwrap_err().kind(), ErrorKind::Lint);
    assert_eq!(serving.commits(), 0);
}

/// The CI `ruvo check` gate, reproducible locally: every shipped
/// example program must check completely clean.
#[test]
fn shipped_examples_check_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rv") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let report = check_source(&src, CyclePolicy::Reject);
        assert!(
            report.diagnostics.is_empty(),
            "{} has diagnostics:\n{}",
            path.display(),
            render_all(&report.diagnostics, Some(&src), path.to_str())
        );
        assert!(report.compiled.is_some(), "{} must compile", path.display());
        checked += 1;
    }
    assert!(checked >= 4, "expected the shipped .rv examples, found {checked}");
}

// ----- fail-fast equals collect-all ----------------------------------

/// Malformed programs: each deny-by-default front-end lint alone, then
/// several errors spread over several rules. Stratification errors are
/// left out: `Program::parse` does not stratify.
const MALFORMED: [&str; 10] = [
    "ins[X].p -> ??? .",
    "ins[x].exists -> x.",
    "ins[E].a -> 1 <= E.isa -> empl & ins[E].exists -> E.",
    "ins[E].a -> 1 <= E.isa -> empl & del[mod(E)].* .",
    "r: ins[a].p -> 1. r: ins[b].p -> 2.",
    "ins[X].p -> Y <= X.q -> 1.",
    // An unsafe rule before a structural one: the structural one wins.
    "r1: ins[X].p -> Y <= X.q -> 1.\nr2: ins[x].exists -> x.",
    // An unsafe rule and a duplicate label: the label wins.
    "r: ins[X].p -> Y <= X.q -> 1.\nr: ins[a].p -> 1.\ns: ins[e].a -> 1 <= not X.p -> 1.",
    // Three errors over three rules.
    "a: ins[X].p -> Y <= X.q -> 1.\n\
     b: ins[E].a -> 1 <= E.isa -> e & del[E].* .\n\
     a: ins[Z].q -> 1 <= Z.r -> 1.",
    "ins[X].p -> Y <= X.q -> 1.\nins[e].a -> 1 <= not X.p -> 1.",
];

/// `Program::parse` and `Database::prepare` stop at the first error
/// `ruvo check` lists: the same front end decides both.
#[test]
fn fail_fast_and_collect_all_agree() {
    let db = Database::open_src("x.q -> 1.").unwrap();
    let clean = [
        "r1: ins[X].p -> 1 <= X.q -> 1.",
        "r1: ins[X].p -> 1 <= X.q -> 1.\nr2: ins[Y].p -> 1 <= Y.q -> 1.",
    ];
    for src in MALFORMED.iter().chain(&clean) {
        let report = check_source(src, CyclePolicy::Reject);
        let first = report.diagnostics.iter().find(|d| d.is_error());
        assert_eq!(
            Program::parse(src).is_err(),
            first.is_some(),
            "{src}: {:?}",
            report.diagnostics
        );
        let Some(first) = first else { continue };
        let kind = match first.lint {
            Lint::Syntax => ErrorKind::Parse,
            Lint::ExistsUpdate | Lint::DelAllInBody | Lint::DuplicateLabel => ErrorKind::Validate,
            Lint::UnsafeRule => ErrorKind::Safety,
            lint => panic!("{src}: {lint} is not a front-end error"),
        };
        assert_eq!(db.prepare(src).unwrap_err().kind(), kind, "{src}: first error {first}");
    }
}

#[test]
fn check_lists_every_unsafe_rule() {
    let report = check_source(MALFORMED[9], CyclePolicy::Reject);
    let unsafe_rules: Vec<_> =
        report.diagnostics.iter().filter(|d| d.lint == Lint::UnsafeRule).collect();
    assert_eq!(unsafe_rules.len(), 2, "{:?}", report.diagnostics);
    assert!(unsafe_rules[0].message.starts_with("unsafe rule rule1:"), "{}", unsafe_rules[0]);
    assert!(unsafe_rules[1].message.starts_with("unsafe rule rule2:"), "{}", unsafe_rules[1]);
}

// ----- duplicate rules: the structural hash agrees with `==` ---------

/// Whether `ruvo check` flags the second rule of `src` as a duplicate
/// of the first, checked against `==` on head and body and against the
/// structural hash the scan buckets by.
fn flagged_duplicate(src: &str) -> bool {
    use std::hash::{BuildHasher, RandomState};
    let program = Program::parse(src).unwrap();
    let [a, b] = &program.rules[..] else { panic!("{src} must have two rules") };
    let equal = a.head == b.head && a.body == b.body;
    let hasher = RandomState::new();
    if equal {
        assert_eq!(hasher.hash_one((&a.head, &a.body)), hasher.hash_one((&b.head, &b.body)));
    }
    let flagged = check_source(src, CyclePolicy::Reject)
        .diagnostics
        .iter()
        .any(|d| d.lint == Lint::DuplicateRule);
    assert_eq!(flagged, equal, "{src}");
    flagged
}

#[test]
fn duplicate_rules_are_flagged_exactly_when_equal() {
    let rule = Program::parse("r1: ins[X].p -> 1 <= X.q -> 1 & not X.s -> 2.").unwrap();
    // Re-parsed from its pretty-print with other line breaks: the
    // spans moved, the rule did not.
    let reprinted =
        rule.rules[0].to_string().replacen("r1:", "\n\nr2:", 1).replace(" & ", "\n  & ");
    let cases = [
        ("r1: ins[X].p -> 1 <= X.q -> 1.\nr2: ins[Y].p -> 1 <= Y.q -> 1.", true),
        (&*format!("{}\n{reprinted}", rule.rules[0]), true),
        ("a: ins[X].p -> 1 <= X.q -> 1.\nb: ins[X].p -> 1 <= X.q -> 1.", true),
        ("r1: ins[X].p -> 1 <= X.q -> 0.0.\nr2: ins[X].p -> 1 <= X.q -> -0.0.", true),
        // Literal order is part of a rule's identity today. Syntax
        // independence (ROADMAP items 6 and 15: a body as a set of
        // literals) is where this could change.
        (
            "r1: ins[X].p -> 1 <= X.q -> 1 & X.r -> 2.\nr2: ins[X].p -> 1 <= X.r -> 2 & X.q -> 1.",
            false,
        ),
        ("r1: ins[X].p -> 1 <= X.q -> 1.\nr2: ins[X].p -> 2 <= X.q -> 1.", false),
    ];
    for (src, duplicate) in cases {
        assert_eq!(flagged_duplicate(src), duplicate, "{src}");
    }
}

// ----- differential commutativity ------------------------------------

/// The paper's §2.3 enterprise program: three strata, and within each
/// stratum every pair commutes (rule1/rule2 by mutual exclusion on
/// `E.pos -> mgr`). This is the acceptance bar for the analysis.
const ENTERPRISE: &str = "
rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
";

const ENTERPRISE_BASE: &str = "
phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4200.
mary.isa -> empl.  mary.sal -> 4300.
";

fn run_reversed_matches(src: &str, base: &str) {
    let ob = ObjectBase::parse(base).unwrap();
    let program = Program::parse(src).unwrap();
    let mut reversed = program.clone();
    reversed.rules.reverse();
    let db = Database::open(ob);
    let a = db.evaluate(&db.prepare_program(program).unwrap()).unwrap();
    let b = db.evaluate(&db.prepare_program(reversed).unwrap()).unwrap();
    assert_eq!(a.result(), b.result());
    assert_eq!(a.new_object_base(), b.new_object_base());
}

#[test]
fn enterprise_commutes_and_is_order_independent() {
    let db = Database::open_src(ENTERPRISE_BASE).unwrap();
    let prepared = db.prepare(ENTERPRISE).unwrap();
    assert_eq!(prepared.stratification().len(), 3);
    let report = prepared.check();
    assert!(report.commutativity().all_commute());
    assert!(report.diagnostics.is_empty(), "got: {:?}", report.diagnostics);
    run_reversed_matches(ENTERPRISE, ENTERPRISE_BASE);
}

/// A pool of rules that pairwise commute: insertions (additive),
/// deletions (anti-additive, and distinct created versions from the
/// insertions), and a mutually-exclusive pair of modifications.
const POOL: [&str; 8] = [
    "p0: ins[X].tag -> low <= X.isa -> empl.",
    "p1: ins[X].tag -> hi <= X.isa -> empl.",
    "p2: ins[X].score -> 1 <= X.sal -> S & S > 100.",
    "p3: del[X].* <= X.isa -> tmp.",
    "p4: del[X].flag -> 1 <= X.flag -> 1.",
    "p5: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 2.",
    "p6: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S + 5.",
    "p7: ins[X].seen -> yes <= X.flag -> 1.",
];

const POOL_BASE: &str = "
phil.isa -> empl.  phil.pos -> mgr.  phil.sal -> 4000.
bob.isa -> empl.   bob.sal -> 200.   bob.flag -> 1.
tmp1.isa -> tmp.   tmp1.note -> x.   tmp1.flag -> 1.
";

proptest! {
    /// Any subset of the pool is all-`Commutes`, and reversing the
    /// rule order leaves the final object base identical.
    #[test]
    fn all_commutes_subsets_are_order_independent(mask in 1u8..=255) {
        let src: String = POOL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, r)| format!("{r}\n"))
            .collect();
        let db = Database::open_src(POOL_BASE).unwrap();
        let report = db.prepare(&src).unwrap().check();
        prop_assert!(
            report.commutativity().all_commute(),
            "pool subset {mask:#010b} must be all-Commutes"
        );
        run_reversed_matches(&src, POOL_BASE);
    }

    /// Adding a conflicting modification turns the verdict: the pair
    /// is flagged, and `all_commute` is false.
    #[test]
    fn conflicting_pair_is_always_flagged(mask in 0u8..=255) {
        let mut rules: Vec<&str> = POOL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, r)| *r)
            .collect();
        rules.push("c1: mod[X].price -> (P, 1) <= X.price -> P.");
        rules.push("c2: mod[X].price -> (P, 2) <= X.price -> P.");
        let src: String = rules.iter().map(|r| format!("{r}\n")).collect();
        let db = Database::open_src(POOL_BASE).unwrap();
        let report = db.prepare(&src).unwrap().check();
        let matrix = report.commutativity();
        prop_assert!(!matrix.all_commute());
        let n = rules.len();
        prop_assert_eq!(matrix.pairs_with(Commutativity::Conflicts), vec![(n - 2, n - 1)]);
        prop_assert!(report.diagnostics.iter().any(|d| d.lint == Lint::WriteWriteConflict));
    }
}
