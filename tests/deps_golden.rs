//! Golden snapshots and structural validity of the rule dependency
//! graph renders (`RuleDepGraph::to_dot` / `to_json`).
//!
//! The DOT and JSON for the paper's enterprise example are pinned
//! under `tests/golden/`; re-bless with `BLESS=1 cargo test --test
//! deps_golden`. Every shipped example must additionally render to
//! structurally valid DOT (balanced braces, edges only between
//! declared nodes) and JSON (balanced, correctly quoted) — the same
//! property `ruvo check --deps --dot` relies on in CI.

use ruvo::prelude::*;
use ruvo::RuleDepGraph;

fn example_src(name: &str) -> String {
    let path = format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Prepare `src` and ask for its dependency graph.
fn prepare(src: &str) -> (Prepared, RuleDepGraph) {
    let prepared = Database::default().prepare(src).expect("example prepares");
    let deps = prepared.check().deps;
    (prepared, deps)
}

/// Compare (or, with `BLESS=1`, rewrite) a golden snapshot under
/// `tests/golden/`. `name` carries its own extension (.dot/.json).
fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("BLESS").is_ok() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with BLESS=1 to create it"));
    assert_eq!(actual, expected, "render drifted for {name}; run with BLESS=1 to re-bless");
}

#[test]
fn golden_enterprise_deps_dot() {
    let (prepared, deps) = prepare(&example_src("enterprise.rv"));
    golden("enterprise_deps.dot", &deps.to_dot(prepared.program()));
}

#[test]
fn golden_enterprise_deps_json() {
    let (prepared, deps) = prepare(&example_src("enterprise.rv"));
    golden("enterprise_deps.json", &deps.to_json(prepared.program()));
}

// ----- structural re-parse checks ------------------------------------

/// Minimal DOT re-parse: the graph header, balanced braces, and every
/// edge endpoint (`rN -- rM`) referring to a declared node `rN [`.
fn assert_valid_dot(dot: &str, context: &str) {
    assert!(dot.starts_with("graph ruvo_deps {"), "{context}: bad header:\n{dot}");
    let mut depth = 0i32;
    for (i, ch) in dot.char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                assert!(depth >= 0, "{context}: unbalanced '}}' at byte {i}:\n{dot}");
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "{context}: unbalanced braces:\n{dot}");

    let declared: std::collections::HashSet<&str> = dot
        .lines()
        .filter_map(|l| {
            let l = l.trim_start();
            let (node, rest) = l.split_once(' ')?;
            (rest.starts_with('[') && node.starts_with('r')).then_some(node)
        })
        .collect();
    for line in dot.lines() {
        let line = line.trim_start();
        let Some((a, rest)) = line.split_once(" -- ") else { continue };
        let b = rest.split_whitespace().next().unwrap_or("");
        for node in [a, b] {
            assert!(
                declared.contains(node),
                "{context}: edge endpoint {node} not declared:\n{dot}"
            );
        }
    }
}

/// Minimal JSON re-parse: a single object with balanced structure and
/// correctly terminated strings (escapes respected).
fn assert_valid_json(json: &str, context: &str) {
    let mut depth = 0i32;
    let mut in_string = false;
    let mut escaped = false;
    for (i, ch) in json.char_indices() {
        if in_string {
            match (escaped, ch) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "{context}: unbalanced close at byte {i}:\n{json}");
            }
            _ => {}
        }
    }
    assert!(!in_string, "{context}: unterminated string:\n{json}");
    assert_eq!(depth, 0, "{context}: unbalanced JSON:\n{json}");
    assert!(json.trim_start().starts_with('{'), "{context}: not an object:\n{json}");
}

#[test]
fn every_shipped_example_renders_valid_dot_and_json() {
    let dir = format!("{}/examples", env!("CARGO_MANIFEST_DIR"));
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("rv") {
            continue;
        }
        seen += 1;
        let name = path.display().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        let (prepared, deps) = prepare(&src);
        assert_eq!(deps.len(), prepared.program().len(), "{name}: graph covers every rule");
        assert_valid_dot(&deps.to_dot(prepared.program()), &name);
        assert_valid_json(&deps.to_json(prepared.program()), &name);
    }
    assert!(seen >= 4, "expected the shipped examples, found {seen} .rv files in {dir}");
}

#[test]
fn top_and_self_dependent_render_in_dot() {
    // A `$V` rule (⊤ read) plus ins-recursion: the DOT render must
    // carry the ⊤ edge (dashed) and the self-loop (dotted) without
    // breaking structure.
    let (prepared, deps) = prepare(
        "audit: ins[log].seen -> O <= $V.exists -> O.\n\
         step: ins[X].anc -> G <= ins(X).anc -> P & P.par -> G.",
    );
    let dot = deps.to_dot(prepared.program());
    assert_valid_dot(&dot, "top-and-self");
    assert!(dot.contains("style=dotted"), "self-loop missing:\n{dot}");
    assert!((0..deps.len()).any(|r| deps.self_dependent(r)), "ins-recursion not flagged");
    assert_valid_json(&deps.to_json(prepared.program()), "top-and-self");
}
