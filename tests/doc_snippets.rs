//! Cross-checks for the documentation: every snippet
//! `docs/LANGUAGE.md` presents as accepted must parse (and behave as
//! described), every construct it presents as rejected must be
//! rejected, the claims `docs/ARCHITECTURE.md` and `README.md` make
//! about one evaluation round must hold, every
//! design decision the code cites must be written down, and no
//! document may name a retired entry point. Keep this file in sync
//! with the documents.

use ruvo::prelude::*;

fn parses(src: &str) {
    Program::parse(src).unwrap_or_else(|e| panic!("doc snippet rejected: {e}\n{src}"));
}

fn rejected(src: &str) {
    assert!(Program::parse(src).is_err(), "doc claims this is rejected:\n{src}");
}

#[test]
fn object_base_snippets_parse() {
    for src in [
        "% comments run to end of line
         phil.isa -> empl.   phil.pos -> mgr.    phil.sal -> 4000.
         bob.isa -> empl.    bob.boss -> phil.   bob.sal -> 4200.",
        "x.dist @ a, b -> 7.",
        "bea.parents -> ann. bea.parents -> tom.",
        "phil.isa -> empl / pos -> mgr / sal -> 4000.",
        "mod(phil).sal -> 4600.",
        "x.k -> 0.5. y.name -> 'Value X'.",
    ] {
        ObjectBase::parse(src).unwrap_or_else(|e| panic!("doc ob snippet rejected: {e}\n{src}"));
    }
    // Set-valued accumulation, as described.
    let ob = ObjectBase::parse("bea.parents -> ann. bea.parents -> tom.").unwrap();
    assert_eq!(ob.lookup1(oid("bea"), "parents").len(), 2);
}

#[test]
fn rule_snippets_parse() {
    for src in [
        "ins[henry].isa -> empl.",
        "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
        "ins[child].parents -> founder <= founder.isa -> person.",
        "ins[x].fired -> E <= del[E].sal -> S.",
        "ins[x].raised -> E <= mod[E].sal -> (S, S2).",
        "del[victim].* .",
        "ins[E].nm -> 1 <= E.isa -> empl & not E.pos -> mgr.",
        "ins[E].half -> H <= E.v -> V & H = V / 2 & H >= 1.",
        "ins[X].tag -> 1 <= ins(mod(X)).tag -> 1.",
        "ins[E].seen -> yes <= E.p -> _ & E.q -> _.",
        "ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.",
        "ins[a].p @ x, 3 -> -7.",
    ] {
        parses(src);
    }
}

#[test]
fn enterprise_example_stratifies_as_documented() {
    let src = "
        rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
        rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
        rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
        rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
    ";
    let db = Database::open(ObjectBase::new());
    let prepared = db.prepare(src).unwrap();
    // {rule1, rule2} < {rule3} < {rule4}, exactly as the doc claims.
    assert_eq!(prepared.stratification().strata.len(), 3);
}

#[test]
fn rejections_match_the_document() {
    // exists cannot be updated.
    rejected("ins[x].exists -> x.");
    // del-all is head-only.
    rejected("ins[E].a -> 1 <= E.isa -> empl & del[mod(E)].* .");
    // Unsafe rules: unbound head var, unbound negated var, circular
    // assignment.
    rejected("ins[E].a -> R <= E.p -> 1.");
    rejected("ins[e].a -> 1 <= not X.p -> 1.");
    rejected("ins[e].a -> 1 <= X = Y + 1 & Y = X + 1.");
    // Negated paths are not allowed.
    rejected("ins[E].a -> b <= not E.x -> 1 / y -> 2.");
    // Duplicate labels.
    rejected("r: ins[a].p -> 1. r: ins[b].p -> 2.");
}

#[test]
fn lint_appendix_examples_are_minimal_and_triggering() {
    use ruvo::core::check::check_source;
    use ruvo::core::CyclePolicy;

    let doc = include_str!("../docs/LANGUAGE.md");
    // (lint name, doc example, policy to check under). Each example
    // must appear verbatim in Appendix A and must trigger exactly the
    // lint the appendix files it under. Allow-level lints report
    // through the advisories channel instead of diagnostics.
    let appendix: [(&str, &str, CyclePolicy); 13] = [
        ("syntax", "ins[X].p -> ??? .", CyclePolicy::Reject),
        ("duplicate-label", "r: ins[a].p -> 1.\nr: ins[b].p -> 2.", CyclePolicy::Reject),
        ("exists-update", "ins[x].exists -> x.", CyclePolicy::Reject),
        ("del-all-in-body", "ins[X].p -> 1 <= del[X].* .", CyclePolicy::Reject),
        ("unsafe-rule", "ins[X].p -> Y <= X.q -> 1.", CyclePolicy::Reject),
        (
            "dynamic-policy-required",
            "ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.",
            CyclePolicy::Reject,
        ),
        ("arity-mismatch", "a: ins[x].m @ 1 -> 2.\nb: ins[y].m -> 3.", CyclePolicy::Reject),
        (
            "write-write-conflict",
            "r1: mod[X].price -> (P, 1) <= X.price -> P.\nr2: mod[X].price -> (P, 2) <= X.price -> P.",
            CyclePolicy::Reject,
        ),
        ("dead-rule", "r1: ins[x].p -> 1 <= ins(y).q -> 1.", CyclePolicy::Reject),
        (
            "duplicate-rule",
            "r1: ins[X].p -> 1 <= X.q -> 1.\nr2: ins[Y].p -> 1 <= Y.q -> 1.",
            CyclePolicy::Reject,
        ),
        // The advisory only fires when the *relaxed* policy was asked
        // for, as `ruvo run --dynamic` does.
        ("needless-dynamic-policy", "ins[x].p -> 1.", CyclePolicy::RuntimeStability),
        // The cycle needs the relaxed policy; collapsed into one
        // stratum, `a`'s negated read meets `b`'s write.
        (
            "order-sensitive-rules",
            "a: ins[X].p -> 1 <= X.s -> 1 & not ins(X).q -> 1.\nb: ins[X].q -> 1 <= ins(X).p -> 1.",
            CyclePolicy::RuntimeStability,
        ),
        (
            "self-dependent-rule",
            "step: ins[X].anc -> G <= ins(X).anc -> P & P.parents -> G.",
            CyclePolicy::Reject,
        ),
    ];
    let mut documented: Vec<&str> = Vec::new();
    for (name, example, policy) in appendix {
        assert!(
            doc.contains(&format!("### `{name}`")),
            "LANGUAGE.md appendix is missing a section for lint `{name}`"
        );
        assert!(
            doc.contains(example),
            "LANGUAGE.md appendix does not show this example for `{name}`:\n{example}"
        );
        let report = check_source(example, policy);
        let advisory = Lint::from_name(name).unwrap().default_level() == ruvo::Level::Allow;
        let channel = if advisory { &report.advisories } else { &report.diagnostics };
        assert!(
            channel.iter().any(|d| d.lint.name() == name),
            "appendix example for `{name}` does not trigger it; got: {:?} / {:?}",
            report.diagnostics,
            report.advisories
        );
        documented.push(name);
    }
    // The appendix is complete: every registered lint is documented.
    for lint in Lint::ALL {
        assert!(documented.contains(&lint.name()), "lint `{}` has no appendix entry", lint.name());
    }
}

#[test]
fn query_goal_snippets_behave_as_documented() {
    // §8: accepted goal shapes.
    for src in [
        "?- ins(e17).chief -> C.",
        "?- X.isa -> empl & X.sal -> S & not X.pos -> mgr & S > 100.",
        "?- mod[bob].sal -> (S, S2).",
        "?- del[mod(E)].sal -> S.",
    ] {
        Goal::parse(src).unwrap_or_else(|e| panic!("doc goal snippet rejected: {e}\n{src}"));
    }
    // The `?-` prefix is optional in the API.
    assert_eq!(Goal::parse("?- x.m -> R.").unwrap(), Goal::parse("x.m -> R.").unwrap());
    // §8: goal-rejected constructs.
    assert!(Goal::parse("?- $V.sal -> S.").is_err(), "VID variables must be goal-rejected");
    assert!(Goal::parse("?- del[mod(E)].* .").is_err(), "del-all must be goal-rejected");
    assert!(Goal::parse("?- not X.p -> 1.").is_err(), "unsafe goals must be rejected");

    // Ground goals answer yes/no; queries never commit.
    let db = Database::open_src("henry.isa -> empl. henry.sal -> 250.").unwrap();
    let raise =
        db.prepare("mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.").unwrap();
    assert_eq!(db.query_src(&raise, "?- mod(henry).sal -> 275.").unwrap().to_string(), "yes");
    assert_eq!(db.query_src(&raise, "?- mod(henry).sal -> 999.").unwrap().to_string(), "no");
    let answers = db.query_src(&raise, "?- mod(E).sal -> S.").unwrap();
    assert_eq!(answers.vars, vec!["E".to_string(), "S".to_string()]);
    assert_eq!(answers.rows, vec![vec![oid("henry"), int(275)]]);
    assert!(db.is_empty(), "a query must not commit");
}

#[test]
fn parallel_evaluation_docs_match_behavior() {
    // Evaluation is serial: the round section states the order on its
    // own terms, and no document offers a parallel knob.
    let arch = include_str!("../docs/ARCHITECTURE.md");
    let section =
        arch.split("## One round").nth(1).expect("ARCHITECTURE.md lost its round section");
    let section = section.split("\n## ").next().unwrap().split_whitespace().collect::<Vec<_>>();
    let section = section.join(" ");
    for claim in [
        "pre-round base",
        "first-appearance order",
        "on the caller",
        "serial stage timings",
        "pool.speedup_x",
    ] {
        assert!(section.contains(claim), "ARCHITECTURE.md round section lost claim: {claim}");
    }
    let readme = include_str!("../README.md");
    assert!(readme.contains("\"One round\""), "README.md must point at the round section");
    for doc in [arch, readme] {
        for knob in ["--threads", ":set threads", "parallel(true)", "## Parallel evaluation"] {
            assert!(!doc.contains(knob), "a document still offers {knob}");
        }
    }

    // The documented behavior: one scan job per round task — both rules
    // in round 1, then one seeded `step` pass per round — and two
    // serial stage timings that fit inside the run's wall time. Every
    // logical counter repeats between runs.
    let src = "chief: ins[X].chief -> B <= X.boss -> B.
               step:  ins[X].chief -> C <= ins(X).chief -> B & B.boss -> C.";
    let db = Database::open_src("bob.boss -> phil. phil.boss -> mary.").unwrap();
    let prepared = db.prepare(src).unwrap();
    let outcome = db.evaluate(&prepared).unwrap();
    let stats = outcome.stats();
    assert_eq!((stats.rounds, stats.parallel.scan_subtasks), (3, 4), "{stats}");
    assert!(stats.parallel.scan_wall + stats.parallel.apply_wall <= stats.elapsed, "{stats}");
    let again = db.evaluate(&prepared).unwrap();
    let logical = |s: &ruvo::core::EvalStats| {
        (
            s.rounds,
            s.fired_updates,
            s.fired_candidates,
            s.rule_evaluations,
            s.parallel.scan_subtasks,
        )
    };
    assert_eq!(logical(again.stats()), logical(stats));
    assert_eq!(again.result(), outcome.result());
}

/// Every `.rs` / `.md` file under `dir`, recursively.
fn text_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            text_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "md") {
            out.push(path);
        }
    }
}

#[test]
fn design_decisions_are_cited_where_they_are_written() {
    // The decisions live in ARCHITECTURE.md; there never was a
    // DESIGN.md, so nothing may send a reader there.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    for dir in ["crates", "src", "docs"] {
        text_files(&root.join(dir), &mut files);
    }
    let arch = include_str!("../docs/ARCHITECTURE.md");
    assert!(arch.contains("## Design decisions"), "ARCHITECTURE.md lost its decisions section");
    let mut cited = std::collections::BTreeSet::new();
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.contains("DESIGN.md"), "{} cites the nonexistent DESIGN.md", path.display());
        // "decision D1" / "decisions D1/D7", across comment line breaks.
        let words: Vec<&str> =
            text.split_whitespace().filter(|w| !matches!(*w, "//" | "///" | "//!")).collect();
        for pair in words.windows(2) {
            if pair[0].trim_start_matches('(') == "decision" || pair[0] == "decisions" {
                for d in pair[1].split('/') {
                    let d = d.trim_end_matches(|c: char| !c.is_ascii_digit());
                    if d.starts_with('D') && d[1..].parse::<u32>().is_ok() {
                        cited.insert((d.to_owned(), path.display().to_string()));
                    }
                }
            }
        }
    }
    assert!(!cited.is_empty(), "no decision citations found: the scan is broken");
    for (decision, path) in cited {
        assert!(
            arch.contains(&format!("### {decision} — ")),
            "{path} cites decision {decision}, which has no heading in ARCHITECTURE.md"
        );
    }
}

#[test]
fn retired_entry_points_are_not_named() {
    // `Session` is the writer core under every handle and public only
    // for driving the engine by hand; no document may send a reader to
    // the entry points and the error type it no longer has, nor to a
    // deleted configuration value or store helper.
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("docs/ARCHITECTURE.md", include_str!("../docs/ARCHITECTURE.md")),
        ("docs/LANGUAGE.md", include_str!("../docs/LANGUAGE.md")),
    ];
    let retired = [
        "SessionError",
        "Session::apply",
        "Session::apply_src",
        "Session::parse",
        "rollback_to_unlogged",
        "TraceLevel",
        "verify_stability",
        "compact_fraction",
        "max_delta_generations",
        "deny_lint",
        "clear_versions_shard",
        "delta_info",
        "Prepared::compile",
        "Prepared::warnings",
        "Prepared::commutativity",
        "Prepared::advisories",
        "Prepared::deps",
        "Outcome::changed",
        "LintLevels",
        ".log()",
        "log_tail",
        "Outcome::trim",
        "EveryN",
        "Outcome::new_object_base",
        "analysis::admit",
        "parser::parse_program",
    ];
    for (name, text) in docs {
        for entry in retired {
            // A whole name, not the prefix of a longer one.
            let named = text.match_indices(entry).any(|(at, _)| {
                !text[at + entry.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            });
            assert!(!named, "{name} names the retired `{entry}`");
        }
    }
}

#[test]
fn arithmetic_behaves_as_documented() {
    // Integral results normalize to Int; Int and Num compare equal.
    let mut db = Database::open_src("x.base -> 100.").unwrap();
    db.apply_src("ins[x].v -> V <= x.base -> B & V = B * 1.5.").unwrap();
    assert_eq!(db.current().lookup1(oid("x"), "v"), vec![int(150)]);

    // Undefined arithmetic is false; its negation is true.
    let mut db = Database::open_src("e.pos -> mgr.").unwrap();
    db.apply_src("ins[E].m -> 1 <= E.pos -> P & not P + 1 > 0.").unwrap();
    assert_eq!(db.current().lookup1(oid("e"), "m"), vec![int(1)]);
}
