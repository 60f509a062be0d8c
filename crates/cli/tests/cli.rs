//! End-to-end tests of the `ruvo` binary.

use std::io::Write;
use std::process::Command;

fn write_file(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

fn ruvo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ruvo")).args(args).output().expect("binary runs")
}

const ENTERPRISE: &str = "
rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
";

const BASE: &str = "
phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4200.
";

#[test]
fn check_reports_strata() {
    let dir = std::env::temp_dir().join("ruvo-cli-check");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let out = ruvo(&["check", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("4 rules, 3 strata"), "got: {stdout}");
    assert!(stdout.contains("{rule1, rule2} < {rule3} < {rule4}"), "got: {stdout}");
}

#[test]
fn check_flags_write_write_conflict_with_span() {
    let dir = std::env::temp_dir().join("ruvo-cli-check-ww");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "ww.ruvo",
        "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
         r2: mod[X].price -> (P, 2) <= X.price -> P.\n",
    );
    // Warning severity: the check still succeeds, but reports the pair.
    let out = ruvo(&["check", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("warning[write-write-conflict]"), "got: {stderr}");
    assert!(stderr.contains("ww.ruvo:2:1"), "diagnostic must be spanned, got: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("1 conflicting"), "got: {stdout}");
}

#[test]
fn check_json_is_machine_readable() {
    let dir = std::env::temp_dir().join("ruvo-cli-check-json");
    std::fs::create_dir_all(&dir).unwrap();
    let clean = write_file(&dir, "p.ruvo", ENTERPRISE);
    let out = ruvo(&["check", "--json", clean.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"rules\":4,\"strata\":3,\"all_commute\":true"), "got: {stdout}");
    assert!(stdout.contains("\"diagnostics\":[]"), "got: {stdout}");

    let bad = write_file(&dir, "bad.ruvo", "ins[x].exists -> x.");
    let out = ruvo(&["check", "--json", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"lint\":\"exists-update\""), "got: {stdout}");
    assert!(stdout.contains("\"severity\":\"error\""), "got: {stdout}");
}

#[test]
fn check_deny_fails_on_warnings() {
    let dir = std::env::temp_dir().join("ruvo-cli-check-deny");
    std::fs::create_dir_all(&dir).unwrap();
    let warny = write_file(
        &dir,
        "ww.ruvo",
        "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
         r2: mod[X].price -> (P, 2) <= X.price -> P.\n",
    );
    // Plain check: warnings do not fail the run.
    assert!(ruvo(&["check", warny.to_str().unwrap()]).status.success());
    // --deny: the same warnings become fatal (CI parity with
    // DatabaseBuilder::deny_lints).
    let out = ruvo(&["check", "--deny", warny.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("warning[write-write-conflict]"), "got: {stderr}");

    // A clean program still passes under --deny; advisories (allow
    // level) must not trip it.
    let clean = write_file(&dir, "p.ruvo", ENTERPRISE);
    assert!(ruvo(&["check", "--deny", clean.to_str().unwrap()]).status.success());
    assert!(ruvo(&["check", "--deny", "--deps", clean.to_str().unwrap()]).status.success());
}

/// The ancestors pair: `step` reads the `ins(·)` chain both rules write.
const DEPS_PROGRAM: &str = "base: ins[X].anc -> P <= X.parents -> P.\n\
                            step: ins[X].anc -> G <= ins(X).anc -> P & P.parents -> G.\n";
const DEPS_BLOCK: &str = "dependency graph: 2 rule(s), 1 edge(s)\n  \
                          base: writes ins(·).*, reads {·.parents}\n  \
                          step: writes ins(·).*, reads {·.parents, ins(·).anc} (self-dependent)\n  \
                          base -- step: rw\n";

#[test]
fn check_deps_reports_graph_and_edges() {
    let dir = std::env::temp_dir().join("ruvo-cli-check-deps");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "deps.ruvo", DEPS_PROGRAM);
    let out = ruvo(&["check", "--deps", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(DEPS_BLOCK), "got: {stdout}");
    // The self-dependent advisory is rendered with --deps.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("self-dependent-rule"), "got: {stderr}");

    // JSON mode embeds the graph and the advisories.
    let out = ruvo(&["check", "--deps", "--json", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"deps\":{"), "got: {stdout}");
    assert!(stdout.contains("\"advisories\":["), "got: {stdout}");
    assert!(stdout.contains("self-dependent-rule"), "got: {stdout}");
    assert!(!stdout.contains("component"), "got: {stdout}");
}

#[test]
fn check_dot_emits_graphviz() {
    let dir = std::env::temp_dir().join("ruvo-cli-check-dot");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let out = ruvo(&["check", "--deps", "--dot", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("graph ruvo_deps {"), "got: {stdout}");
    assert!(stdout.trim_end().ends_with('}'), "got: {stdout}");
    assert!(stdout.contains("subgraph cluster_s0"), "got: {stdout}");
    // DOT goes to stdout alone so it can be piped into `dot`; the
    // human-readable summary must not pollute it.
    assert!(!stdout.contains("stratification:"), "got: {stdout}");

    // A non-compiling program yields no graph and a failing exit.
    let bad = write_file(&dir, "bad.ruvo", "ins[x].exists -> x.");
    let out = ruvo(&["check", "--dot", bad.to_str().unwrap()]);
    assert!(!out.status.success());
}

#[test]
fn run_produces_new_object_base() {
    let dir = std::env::temp_dir().join("ruvo-cli-run");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let base = write_file(&dir, "b.ob", BASE);
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap(), "--stats"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("phil.sal -> 4600"), "got: {stdout}");
    assert!(stdout.contains("phil.isa -> hpe"), "got: {stdout}");
    assert!(!stdout.contains("bob."), "bob must be gone, got: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fired updates"), "got: {stderr}");
}

#[test]
fn run_trace_prints_strata_and_their_rounds() {
    let dir = std::env::temp_dir().join("ruvo-cli-run-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "tc.ruvo",
        "tc1: ins[X].reach -> Y <= X.next -> Y.
         tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.",
    );
    let base =
        write_file(&dir, "chain.ob", "o0.next -> o1. o1.next -> o2. o2.next -> o3. o3.next -> o4.");
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap(), "--trace", "--stats"]);
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let lines: Vec<&str> = stderr.lines().map(str::trim_end).collect();
    let at = lines.iter().position(|l| *l == "  stratum 0: 2 rules, 5 rounds, 10 fired");
    let at = at.unwrap_or_else(|| panic!("no stratum line, got: {stderr}"));
    assert_eq!(
        lines[at + 1],
        "    round 1: 2 rules evaluated, 4 candidates, 4 new, 4 versions touched",
        "got: {stderr}"
    );
    assert_eq!(
        lines[at + 5],
        "    round 5: 1 rule evaluated, 0 candidates, 0 new, 0 versions touched",
        "got: {stderr}"
    );
    assert!(stderr.contains("10 fired updates of 10 candidates"), "got: {stderr}");
}

#[test]
fn run_result_shows_versions() {
    let dir = std::env::temp_dir().join("ruvo-cli-result");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let base = write_file(&dir, "b.ob", BASE);
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap(), "--result"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mod(phil).sal -> 4600"), "got: {stdout}");
    assert!(stdout.contains("del(mod(bob)).exists -> bob"), "got: {stdout}");
}

#[test]
fn explain_lists_conditions() {
    let dir = std::env::temp_dir().join("ruvo-cli-explain");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let out = ruvo(&["explain", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for cond in ["(a)", "(b)", "(c)", "(d)"] {
        assert!(stdout.contains(cond), "missing condition {cond}: {stdout}");
    }
}

#[test]
fn fmt_roundtrips() {
    let dir = std::env::temp_dir().join("ruvo-cli-fmt");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", ENTERPRISE);
    let out = ruvo(&["fmt", prog.to_str().unwrap()]);
    assert!(out.status.success());
    let pretty = String::from_utf8(out.stdout).unwrap();
    let prog2 = write_file(&dir, "p2.ruvo", &pretty);
    let out2 = ruvo(&["fmt", prog2.to_str().unwrap()]);
    assert_eq!(pretty, String::from_utf8(out2.stdout).unwrap());
}

#[test]
fn parse_errors_are_reported() {
    let dir = std::env::temp_dir().join("ruvo-cli-err");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "bad.ruvo", "ins[X].p -> ??? .");
    let out = ruvo(&["check", prog.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error[syntax]"), "got: {stderr}");
    assert!(stderr.contains("bad.ruvo:1:13"), "diagnostic must carry a span, got: {stderr}");
}

#[test]
fn non_stratifiable_is_rejected() {
    let dir = std::env::temp_dir().join("ruvo-cli-strat");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", "r: ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.");
    let out = ruvo(&["check", prog.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not stratifiable"), "got: {stderr}");
}

#[test]
fn linearity_violation_is_reported() {
    let dir = std::env::temp_dir().join("ruvo-cli-lin");
    std::fs::create_dir_all(&dir).unwrap();
    let prog =
        write_file(&dir, "p.ruvo", "mod[o].m -> (a, b) <= o.m -> a. del[o].m -> a <= o.m -> a.");
    let base = write_file(&dir, "b.ob", "o.m -> a.");
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("version-linearity"), "got: {stderr}");

    // With the §5 check disabled, --result must still let the user
    // inspect the raw (non-linear) result(P).
    let out = ruvo(&[
        "run",
        prog.to_str().unwrap(),
        base.to_str().unwrap(),
        "--no-linearity",
        "--result",
    ]);
    assert!(out.status.success(), "got: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mod(o).m -> b"), "got: {stdout}");
    assert!(stdout.contains("del(o).exists -> o"), "got: {stdout}");
}

#[test]
fn usage_on_bad_invocation() {
    assert!(!ruvo(&[]).status.success());
    assert!(!ruvo(&["frobnicate"]).status.success());
    assert!(!ruvo(&["run", "only-one-arg"]).status.success());
    let out = ruvo(&["run", "a", "b", "--bogus"]);
    assert!(!out.status.success());
    // Retired flags take the same exit as any unknown one.
    for flag in ["--naive", "--parallel", "--threads"] {
        let out = ruvo(&["run", "a", "b", flag]);
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("error: unknown flag {flag}")), "got: {stderr}");
    }
}

// ----- repl ----------------------------------------------------------

fn ruvo_stdin(args: &[&str], stdin_text: &str) -> std::process::Output {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_ruvo"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child.stdin.as_mut().unwrap().write_all(stdin_text.as_bytes()).unwrap();
    child.wait_with_output().expect("binary runs")
}

#[test]
fn repl_applies_rules_transactionally() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl");
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_file(&dir, "b.ob", "acct.balance -> 100.");
    let script = "\
:savepoint
mod[acct].balance -> (100, 150) <= acct.balance -> 100.
:show acct
:rollback 0
:show acct
:stats
:quit
";
    let out = ruvo_stdin(&["repl", base.to_str().unwrap()], script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ok: txn #0"), "got: {stdout}");
    assert!(stdout.contains("acct.balance -> 150"), "got: {stdout}");
    // After rollback the original balance is back.
    let after_rollback = stdout.split("rolled back").nth(1).expect("rollback happened");
    assert!(after_rollback.contains("acct.balance -> 100"), "got: {stdout}");
}

#[test]
fn repl_answers_query_goals() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-query");
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_file(&dir, "b.ob", "henry.isa -> empl. henry.sal -> 250. rex.isa -> dog.");
    let script = "\
?- henry.sal -> S.
?- X.isa -> empl & X.sal -> S.
?- rex.isa -> empl.
?- not a goal.
:log
:quit
";
    let out = ruvo_stdin(&["repl", base.to_str().unwrap()], script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("S = 250"), "got: {stdout}");
    assert!(stdout.contains("X = henry, S = 250"), "got: {stdout}");
    assert!(stdout.contains("\nno\n"), "got: {stdout}");
    assert!(stdout.contains("! parse error"), "got: {stdout}");
    // Queries never commit.
    assert!(stdout.contains("(no transactions)"), "got: {stdout}");
}

#[test]
fn repl_reports_errors_without_dying() {
    let script = "\
not a rule at all .
:bogus
ins[x].p -> 1.
:log
:quit
";
    let out = ruvo_stdin(&["repl"], script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("! parse error"), "got: {stdout}");
    assert!(stdout.contains("! unknown command"), "got: {stdout}");
    assert!(stdout.contains("ok: txn #0"), "got: {stdout}");
}

#[test]
fn repl_check_command() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-check");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "ww.ruvo",
        "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
         r2: mod[X].price -> (P, 2) <= X.price -> P.\n",
    );
    let script = format!(":check {}\n:quit\n", prog.display());
    let out = ruvo_stdin(&["repl"], &script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 rules, 1 strata"), "got: {stdout}");
    assert!(stdout.contains("warning[write-write-conflict]"), "got: {stdout}");
}

#[test]
fn repl_deps_command() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-deps");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "deps.ruvo", DEPS_PROGRAM);
    let script = format!(":deps {}\n:deps /no/such/file\n:quit\n", prog.display());
    let out = ruvo_stdin(&["repl"], &script);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("dependency graph: 2 rule(s), 1 edge(s)"), "got: {stdout}");
    assert!(stdout.contains("self-dependent-rule"), "got: {stdout}");
    assert!(stdout.contains("! cannot read /no/such/file"), "got: {stdout}");
}

#[test]
fn check_deps_and_repl_deps_print_the_same_block() {
    // The `dependency graph:` header plus its indented lines.
    fn block(stdout: &str) -> Vec<&str> {
        let from = stdout.lines().skip_while(|l| !l.starts_with("dependency graph:"));
        from.enumerate()
            .take_while(|(i, l)| *i == 0 || l.starts_with("  "))
            .map(|(_, l)| l)
            .collect()
    }
    let dir = std::env::temp_dir().join("ruvo-cli-deps-same-block");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, src) in [("deps.ruvo", DEPS_PROGRAM), ("enterprise.ruvo", ENTERPRISE)] {
        let prog = write_file(&dir, name, src);
        let cli = ruvo(&["check", "--deps", prog.to_str().unwrap()]);
        let repl = ruvo_stdin(&["repl"], &format!(":deps {}\n:quit\n", prog.display()));
        let (cli, repl) =
            (String::from_utf8(cli.stdout).unwrap(), String::from_utf8(repl.stdout).unwrap());
        assert!(block(&cli).len() > 2, "got: {cli}");
        assert_eq!(block(&cli), block(&repl), "cli: {cli}\nrepl: {repl}");
    }
}

#[test]
fn repl_history_command() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-hist");
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_file(&dir, "b.ob", "o.p -> 1.");
    let script = "\
mod[o].p -> (1, 2) <= o.p -> 1.
:history o
:quit
";
    let out = ruvo_stdin(&["repl", base.to_str().unwrap()], script);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("mod(o) [mod]"), "got: {stdout}");
    assert!(stdout.contains("+ p -> 2"), "got: {stdout}");
    assert!(stdout.contains("- p -> 1"), "got: {stdout}");
}

#[test]
fn convert_roundtrips_through_snapshot() {
    let dir = std::env::temp_dir().join("ruvo-cli-convert");
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_file(&dir, "b.ob", "a.p -> 1. b.q @ x -> 2.5.");
    let snap = dir.join("b.snap");
    let back = dir.join("b2.ob");
    assert!(ruvo(&["convert", base.to_str().unwrap(), snap.to_str().unwrap()]).status.success());
    // Snapshot starts with the magic.
    let raw = std::fs::read(&snap).unwrap();
    assert_eq!(&raw[..4], b"RUVO");
    assert!(ruvo(&["convert", snap.to_str().unwrap(), back.to_str().unwrap()]).status.success());
    let text = std::fs::read_to_string(&back).unwrap();
    assert!(text.contains("a.p -> 1"), "got: {text}");
    assert!(text.contains("b.q @ x -> 2.5"), "got: {text}");
}

#[test]
fn repl_loads_and_saves_snapshots() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-snap");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("state.snap");
    let script = format!("ins[a].p -> 7.\n:save {}\n:quit\n", snap.display());
    let out = ruvo_stdin(&["repl"], &script);
    assert!(String::from_utf8(out.stdout).unwrap().contains("saved"), "save failed");
    // Reload it in a second repl.
    let script2 = format!(":load {}\n:show a\n:quit\n", snap.display());
    let out2 = ruvo_stdin(&["repl"], &script2);
    let stdout = String::from_utf8(out2.stdout).unwrap();
    assert!(stdout.contains("a.p -> 7"), "got: {stdout}");
}

#[test]
fn repl_save_reports_format_and_honors_flags() {
    let dir = std::env::temp_dir().join("ruvo-cli-repl-save-fmt");
    std::fs::create_dir_all(&dir).unwrap();
    let sniffed_snap = dir.join("state.snap");
    let sniffed_text = dir.join("state.ob");
    let forced_bin = dir.join("forced.ob");
    let forced_text = dir.join("forced.snap");
    let script = format!(
        "ins[a].p -> 7.\n:save {}\n:save {}\n:save --bin {}\n:save --text {}\n:save --bin\n:quit\n",
        sniffed_snap.display(),
        sniffed_text.display(),
        forced_bin.display(),
        forced_text.display(),
    );
    let out = ruvo_stdin(&["repl"], &script);
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The repl says which format it wrote, so silent text-vs-binary
    // surprises are impossible.
    assert!(
        stdout.contains(&format!("saved {} (binary snapshot)", sniffed_snap.display())),
        "got: {stdout}"
    );
    assert!(stdout.contains(&format!("saved {} (text)", sniffed_text.display())), "got: {stdout}");
    // Explicit flags override the extension sniffing both ways.
    assert!(
        stdout.contains(&format!("saved {} (binary snapshot)", forced_bin.display())),
        "got: {stdout}"
    );
    assert!(stdout.contains(&format!("saved {} (text)", forced_text.display())), "got: {stdout}");
    // A flag without a path is a usage error, not a file named --bin.
    assert!(stdout.contains(":save [--bin|--text] <file>"), "got: {stdout}");

    // The bytes on disk match what was reported.
    assert!(std::fs::read(&forced_bin).unwrap().starts_with(b"RUVO"));
    assert!(std::fs::read_to_string(&forced_text).unwrap().contains("a.p -> 7"));
    assert!(std::fs::read(&sniffed_snap).unwrap().starts_with(b"RUVO"));
}

#[test]
fn recover_reports_checkpoint_and_wal_stats() {
    let dir = std::env::temp_dir().join("ruvo-cli-recover");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = write_file(&dir, "b.ob", "acct.balance -> 0.");
    let prog =
        write_file(&dir, "bump.ruvo", "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.");
    let data = dir.join("data");
    let out = ruvo(&[
        "serve",
        base.to_str().unwrap(),
        prog.to_str().unwrap(),
        "--readers",
        "1",
        "--commits",
        "3",
        "--data-dir",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = ruvo(&["recover", data.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("checkpoint:"), "got: {stdout}");
    assert!(stdout.contains("3 records, 3 programs"), "got: {stdout}");
    assert!(stdout.contains("3 programs replayed"), "got: {stdout}");

    // A second serve run over the same directory recovers it (the
    // seed is ignored) and extends the history.
    let out = ruvo(&[
        "serve",
        base.to_str().unwrap(),
        prog.to_str().unwrap(),
        "--readers",
        "1",
        "--commits",
        "2",
        "--data-dir",
        data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = ruvo(&["recover", data.to_str().unwrap()]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("5 programs replayed"), "got: {stdout}");
}

#[test]
fn dynamic_flag_accepts_cyclic_stable_program() {
    let dir = std::env::temp_dir().join("ruvo-cli-dynamic");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "cyclic.ruvo",
        "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
         r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.",
    );
    let base = write_file(&dir, "b.ob", "a.m -> 1. a.trigger -> 1.");
    // Without --dynamic: statically rejected.
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not stratifiable"), "got: {stderr}");
    // With --dynamic: runs stably and prints the updated base.
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap(), "--dynamic"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("a.go -> 1"), "got: {stdout}");
    assert!(!stdout.contains("a.m -> 1"), "m must be deleted; got: {stdout}");
}

#[test]
fn dynamic_flag_reports_instability() {
    let dir = std::env::temp_dir().join("ruvo-cli-unstable");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "unstable.ruvo",
        "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
         r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 1.",
    );
    let base = write_file(&dir, "b.ob", "a.m -> 1. a.trigger -> 1.");
    let out = ruvo(&["run", prog.to_str().unwrap(), base.to_str().unwrap(), "--dynamic"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unstable"), "got: {stderr}");
}

#[test]
fn serve_runs_concurrent_demo() {
    let dir = std::env::temp_dir().join("ruvo-cli-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(
        &dir,
        "raise.ruvo",
        "w: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S + 1.",
    );
    let base = write_file(&dir, "b.ob", "henry.isa -> empl. henry.sal -> 250.");
    let out = ruvo(&[
        "serve",
        base.to_str().unwrap(),
        prog.to_str().unwrap(),
        "--readers",
        "2",
        "--commits",
        "10",
    ]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("committing 10 transactions"), "got: {stdout}");
    assert!(stdout.contains("head epoch"), "got: {stdout}");
}

#[test]
fn serve_rejects_bad_flags() {
    let dir = std::env::temp_dir().join("ruvo-cli-serve-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_file(&dir, "p.ruvo", "w: ins[a].x -> 1 <= a.m -> 1.");
    let base = write_file(&dir, "b.ob", "a.m -> 1.");
    let out = ruvo(&["serve", base.to_str().unwrap(), prog.to_str().unwrap(), "--readers", "zero"]);
    assert!(!out.status.success());
}
