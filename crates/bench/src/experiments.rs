//! The experiment implementations (EXPERIMENTS.md index).
//!
//! Each function returns a Markdown fragment; assertions inside encode
//! the paper's stated outcomes, so running the experiments doubles as
//! an acceptance test of the reproduction.

use ruvo_core::{
    CyclePolicy, Database, EngineConfig, EvalError, QueryMode, ServingDatabase, UpdateEngine,
};
use ruvo_datalog::{evaluate, parse_program as parse_dl, Semantics};
use ruvo_lang::{Goal, Program};
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, oid, sym, Vid};
use ruvo_workload::{
    ancestors_program, chain_object_base, chain_program, enterprise_baseline_datalog,
    enterprise_program, hypothetical_program, query_workload, random_insert_program,
    random_object_base, salary_raise_program, serving_scenario, Enterprise, EnterpriseConfig,
    Family, FamilyConfig, QueryConfig, RandomConfig, ServingConfig, ServingScenario,
    PAPER_ENTERPRISE_OB,
};

use crate::table::Table;
use crate::{median_time, ms, run, run_with};

/// An experiment entry: `(id, title, runner)`; the runner takes a
/// `quick` flag.
pub type Experiment = (&'static str, &'static str, fn(bool) -> String);

/// All experiments in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("F2", "§2.3 enterprise update — Figure 2 trace", f2_enterprise_trace),
        ("E1", "§2.1 salary raise — scaling", e1_salary_raise),
        ("E2", "§2.3 enterprise update — scaling", e2_enterprise),
        ("E3", "§2.3 hypothetical reasoning — scaling", e3_hypothetical),
        ("E4", "§2.3 recursive ancestors vs Datalog baseline", e4_ancestors),
        ("E5", "§4 stratification conditions (a)–(d)", e5_stratify),
        ("E6", "§5 version-linearity runtime check (ablation A2)", e6_linearity),
        ("E7", "§3 frame-copy overhead", e7_copy_overhead),
        ("E8", "§2.4 comparison vs Logres-style baseline", e8_vs_datalog),
        (
            "E8C",
            "concurrent serving — reader scaling × coarse-lock baseline",
            e8_concurrent_throughput,
        ),
        ("F1", "Figure 1 — k consecutive update groups", f1_chain_depth),
        ("E9", "§6 VID variables — wildcard vs indexed audit", e9_vid_vars),
        ("A3", "ablation — §6 runtime stability checking", a3_runtime_checks),
        ("A6", "ablation — copy-on-write clone and snapshot micro-costs", a6_cow_clone),
        ("E10", "durable storage — append vs fsync, recovery, checkpoint cost", e10_durability),
        ("E11", "demand-driven queries — magic-set point query vs full evaluation", e11_demand),
        ("E12", "shard-parallel fixpoint — thread sweep and scaling", e12_parallel),
        ("E13", "rule-parallel fixpoint — dependency components and thread sweep", e13_parallel),
        (
            "E14",
            "incremental checkpoints — dirty-set sweep, chain reopen, commit p99",
            e14_incremental,
        ),
    ]
}

const REPS: usize = 5;

/// One timing sample in quick mode (tests), median-of-5 otherwise.
fn reps(quick: bool) -> usize {
    if quick {
        1
    } else {
        REPS
    }
}

fn enterprise_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![50, 200]
    } else {
        vec![100, 1_000, 10_000, 30_000]
    }
}

/// F2 — the paper's phil/bob object base through the 4-rule update,
/// printing every version state (Figure 2) and asserting the stated
/// outcome.
pub fn f2_enterprise_trace(_quick: bool) -> String {
    let ob = ObjectBase::parse(PAPER_ENTERPRISE_OB).unwrap();
    let outcome = run(enterprise_program(), &ob);
    let mut out = String::new();
    out.push_str(&format!(
        "stratification: {}  (paper: {{rule1, rule2}} < {{rule3}} < {{rule4}})\n\n",
        outcome.stratification()
    ));
    let mut t = Table::new(&["version", "state (method-applications, `exists` omitted)"]);
    for name in ["phil", "bob"] {
        let mut versions: Vec<Vid> = outcome.result().versions_of(oid(name)).collect();
        versions.sort_by_key(|v| v.depth());
        for v in versions {
            let state = outcome.result().version(v).unwrap();
            let mut apps: Vec<String> = state
                .iter()
                .filter(|(m, _)| *m != sym("exists"))
                .map(|(m, app)| format!("{m} {app:?}"))
                .collect();
            apps.sort();
            t.row(&[v.to_string(), apps.join("; ")]);
        }
    }
    out.push_str(&t.render());

    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("phil"), "sal"), vec![int(4600)]);
    assert!(ob2.lookup1(oid("phil"), "isa").contains(&oid("hpe")));
    assert!(!ob2.objects().any(|o| o == oid("bob")));
    out.push_str("\noutcome: phil ∈ hpe at $4600; bob fired — matches the paper ✓\n");
    out
}

/// E1 — salary-raise scaling: every employee modified exactly once;
/// time should scale linearly in n.
pub fn e1_salary_raise(quick: bool) -> String {
    let mut t = Table::new(&["employees", "time (ms)", "µs/employee", "fired", "versions created"]);
    for n in enterprise_sizes(quick) {
        let e = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let d = median_time(reps(quick), || {
            run(salary_raise_program(), &e.ob);
        });
        let outcome = run(salary_raise_program(), &e.ob);
        assert_eq!(outcome.stats().fired_updates, n, "one mod per employee");
        assert_eq!(outcome.stats().versions_created, n);
        t.row(&[
            n.to_string(),
            ms(d),
            format!("{:.2}", d.as_secs_f64() * 1e6 / n as f64),
            outcome.stats().fired_updates.to_string(),
            outcome.stats().versions_created.to_string(),
        ]);
    }
    t.render()
}

/// E2 — the full 4-rule enterprise update over generated hierarchies.
pub fn e2_enterprise(quick: bool) -> String {
    let mut t = Table::new(&[
        "employees",
        "time (ms)",
        "strata",
        "fired",
        "fired employees",
        "hpe members",
    ]);
    for n in enterprise_sizes(quick) {
        let e = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let d = median_time(reps(quick), || {
            run(enterprise_program(), &e.ob);
        });
        let outcome = run(enterprise_program(), &e.ob);
        let ob2 = outcome.new_object_base();
        let survivors = ob2.objects().count();
        let hpe: usize = e
            .employees
            .iter()
            .filter(|&&emp| ob2.lookup1(emp, "isa").contains(&oid("hpe")))
            .count();
        t.row(&[
            n.to_string(),
            ms(d),
            outcome.stratification().len().to_string(),
            outcome.stats().fired_updates.to_string(),
            (n - survivors).to_string(),
            hpe.to_string(),
        ]);
    }
    t.render()
}

/// E3 — hypothetical reasoning (raise, revert, record answer) over
/// employees with per-object factors.
pub fn e3_hypothetical(quick: bool) -> String {
    let mut t = Table::new(&["employees", "time (ms)", "strata", "fired", "answer for e0"]);
    for n in enterprise_sizes(quick) {
        let e = Enterprise::generate(EnterpriseConfig {
            employees: n,
            with_factor: true,
            ..Default::default()
        });
        let program = hypothetical_program("e0");
        let d = median_time(reps(quick), || {
            run(program.clone(), &e.ob);
        });
        let outcome = run(program, &e.ob);
        let ob2 = outcome.new_object_base();
        let answer = ob2.lookup1(oid("e0"), "richest");
        // Salaries were reverted for every employee.
        for (i, &emp) in e.employees.iter().enumerate().take(50) {
            assert_eq!(ob2.lookup1(emp, "sal"), vec![int(e.salaries[i])], "revert {emp}");
        }
        t.row(&[
            n.to_string(),
            ms(d),
            outcome.stratification().len().to_string(),
            outcome.stats().fired_updates.to_string(),
            answer.first().map_or("-".into(), |c| c.to_string()),
        ]);
    }
    t.render()
}

/// E4 — recursive ancestors: versioned formulation vs the semi-naive
/// Datalog baseline; identical pair counts, comparable round counts.
pub fn e4_ancestors(quick: bool) -> String {
    let configs: Vec<(usize, usize)> =
        if quick { vec![(3, 8), (4, 8)] } else { vec![(3, 10), (5, 20), (7, 30), (9, 40)] };
    let mut t = Table::new(&[
        "generations × width",
        "persons",
        "anc pairs",
        "ruvo (ms)",
        "ruvo rounds",
        "datalog (ms)",
        "datalog rounds",
    ]);
    for (g, w) in configs {
        let f = Family::generate(FamilyConfig {
            generations: g,
            per_generation: w,
            parents_per_person: 2,
            seed: 7,
        });
        let d_ruvo = median_time(reps(quick), || {
            run(ancestors_program(), &f.ob);
        });
        let outcome = run(ancestors_program(), &f.ob);
        let ob2 = outcome.new_object_base();
        let ruvo_pairs: usize =
            f.generations.iter().flatten().map(|&p| ob2.lookup1(p, "anc").len()).sum();

        let baseline = parse_dl(
            "anc(X, P) <= parents(X, P).
             anc(X, P) <= anc(X, A) & parents(A, P).",
        )
        .unwrap();
        let d_dl = median_time(reps(quick), || {
            let mut db = f.as_datalog();
            evaluate(&mut db, &baseline, Semantics::Modules, 100_000);
        });
        let mut db = f.as_datalog();
        let report = evaluate(&mut db, &baseline, Semantics::Modules, 100_000);
        assert_eq!(db.arity_count(sym("anc")), ruvo_pairs, "pair counts agree");

        t.row(&[
            format!("{g} × {w}"),
            f.population().to_string(),
            ruvo_pairs.to_string(),
            ms(d_ruvo),
            outcome.stats().rounds.to_string(),
            ms(d_dl),
            report.rounds.to_string(),
        ]);
    }
    t.render()
}

/// E5 — the stratifier over the paper's programs, generated chains and
/// a wide synthetic program, plus the reject cases.
pub fn e5_stratify(quick: bool) -> String {
    let wide_n = if quick { 30 } else { 400 };
    let mut wide = String::new();
    for i in 0..wide_n {
        wide.push_str(&format!("w{i}: ins[X].m{i} -> 1 <= X.k{} -> 1.\n", i % 7));
    }
    let named: Vec<(&str, Program)> = vec![
        ("enterprise (4 rules)", enterprise_program()),
        ("hypothetical (4 rules)", hypothetical_program("peter")),
        ("ancestors (2 rules)", ancestors_program()),
        ("chain k=12 (12 rules)", chain_program(12, true)),
        ("chain k=28 (28 rules)", chain_program(28, false)),
        ("wide independent", Program::parse(&wide).unwrap()),
    ];
    let mut t = Table::new(&["program", "rules", "constraints", "strata", "time (ms)"]);
    for (name, program) in named {
        let engine = UpdateEngine::new(program.clone());
        let d = median_time(reps(quick), || {
            engine.stratify().unwrap();
        });
        let s = engine.stratify().unwrap();
        t.row(&[
            name.to_string(),
            program.len().to_string(),
            s.edges.len().to_string(),
            s.len().to_string(),
            ms(d),
        ]);
    }
    let mut out = t.render();

    out.push_str("\nreject cases (expected: not stratifiable):\n");
    let rejects = [
        ("self-negation", "r: ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1."),
        (
            "mutual negation",
            "r1: ins[X].p -> 1 <= X.o -> 1 & not del(X).q -> 1.
             r2: del[X].q -> 1 <= X.o -> 1 & not ins(X).p -> 1.",
        ),
        ("read-while-deleting", "r: del[mod(E)].p -> 1 <= del(mod(E)).q -> 1."),
    ];
    for (name, src) in rejects {
        let err = UpdateEngine::new(Program::parse(src).unwrap())
            .stratify()
            .expect_err("must be rejected");
        out.push_str(&format!("- {name}: rejected via condition {} ✓\n", err.condition));
    }
    out
}

/// E6 — the §5 runtime check: overhead on clean workloads (ablation
/// A2) and detection on the paper's conflicting program.
pub fn e6_linearity(quick: bool) -> String {
    let mut t = Table::new(&["employees", "check on (ms)", "check off (ms)", "overhead"]);
    for n in enterprise_sizes(quick) {
        let e = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let on = median_time(reps(quick), || {
            run(enterprise_program(), &e.ob);
        });
        let off = median_time(reps(quick), || {
            run_with(
                enterprise_program(),
                &e.ob,
                EngineConfig { check_linearity: false, ..Default::default() },
            );
        });
        let overhead = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
        t.row(&[n.to_string(), ms(on), ms(off), format!("{overhead:+.1}%")]);
    }
    let mut out = t.render();

    let bad = Program::parse(
        "mod[o].m -> (a, b) <= o.m -> a.
         del[o].m -> a <= o.m -> a.",
    )
    .unwrap();
    let err = UpdateEngine::new(bad)
        .run(&ObjectBase::parse("o.m -> a.").unwrap())
        .expect_err("§5 conflict must be detected");
    match err {
        EvalError::Linearity(v) => {
            out.push_str(&format!("\ndetection: {v} ✓\n"));
        }
        other => panic!("expected linearity violation, got {other}"),
    }
    out
}

/// One E7 measurement: the `touch` update over a base of `objects`
/// versions (5 facts each) of which `hot` are touched.
pub struct E7Row {
    /// Objects in the base (5 facts each).
    pub objects: usize,
    /// Objects the update touches.
    pub hot: usize,
    /// One-shot run on a raw base: CoW clone + first `exists`
    /// materialization + evaluation (paid once per loaded base).
    pub cold_ms: f64,
    /// Run on a prepared base: O(shards) clone + O(1) re-preparation +
    /// evaluation — the steady-state cost of the serving path.
    pub steady_ms: f64,
    /// Frame-copy volume (`T_P` step 2).
    pub facts_copied: usize,
    /// Versions created by the run.
    pub versions_created: usize,
}

/// The E7 workload base: `n` objects with 5 facts each, the first
/// `hot` of them carrying the `hot` marker the update rule matches.
fn e7_base(n: usize, hot: usize) -> ObjectBase {
    let mut ob = ObjectBase::new();
    for i in 0..n {
        let v = Vid::object(oid(&format!("x{i}")));
        ob.insert(v, sym("v"), Args::empty(), int(i as i64));
        for m in 0..3 {
            ob.insert(v, sym(&format!("pad{m}")), Args::empty(), int((i * m) as i64));
        }
        let marker = if i < hot { "hot" } else { "cold" };
        ob.insert(v, sym(marker), Args::empty(), int(1));
    }
    ob
}

fn e7_program() -> Program {
    Program::parse("touch: mod[E].v -> (X, X2) <= E.hot -> 1 & E.v -> X & X2 = X + 1.").unwrap()
}

/// Measure one E7 configuration (shared by the report and
/// [`bench_json`]).
pub fn e7_measure(quick: bool, n: usize, hot: usize) -> E7Row {
    let program = e7_program();
    let raw = e7_base(n, hot);
    // Cold: every iteration re-pays the first-time preparation (the
    // working copy is discarded, so the caller's base stays raw).
    let cold = median_time(reps(quick), || {
        run(program.clone(), &raw);
    });
    // Steady state: the stored base is prepared once; each run is an
    // O(shards) clone + O(1) re-preparation + the actual update work.
    let mut prepared = raw;
    prepared.ensure_exists();
    let steady = median_time(reps(quick), || {
        run(program.clone(), &prepared);
    });
    let outcome = run(program.clone(), &prepared);
    assert_eq!(outcome.stats().versions_created, hot);
    E7Row {
        objects: n,
        hot,
        cold_ms: cold.as_secs_f64() * 1e3,
        steady_ms: steady.as_secs_f64() * 1e3,
        facts_copied: outcome.stats().facts_copied,
        versions_created: outcome.stats().versions_created,
    }
}

/// The E7 size sweep (fixed hot set, growing base).
pub fn e7_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![500, 2_000]
    } else {
        vec![1_000, 10_000, 50_000, 100_000]
    }
}

/// The E7 hot/cold ratio sweep (fixed base, growing hot set).
pub fn e7_ratio_axis(quick: bool) -> (usize, Vec<usize>) {
    if quick {
        (2_000, vec![10, 100])
    } else {
        (50_000, vec![10, 100, 1_000, 10_000])
    }
}

/// E7 — the frame-problem note of §3: "By copying old states only for
/// the objects being updated (and not the whole object-base), we keep
/// the unavoidable overhead low." Fixed update count over a growing
/// base, then a hot/cold ratio sweep over a fixed base.
pub fn e7_copy_overhead(quick: bool) -> String {
    let hot = 100usize;
    let mut t = Table::new(&[
        "objects (5 facts each)",
        "hot objects",
        "cold start (ms)",
        "steady state (ms)",
        "facts copied",
        "versions created",
    ]);
    for n in e7_sizes(quick) {
        let row = e7_measure(quick, n, hot.min(n));
        t.row(&[
            row.objects.to_string(),
            row.hot.to_string(),
            format!("{:.3}", row.cold_ms),
            format!("{:.3}", row.steady_ms),
            row.facts_copied.to_string(),
            row.versions_created.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\ncopies and created versions stay proportional to the updated (hot) objects — the\n\
         frame-problem note of §3. Cold start pays the one-time `exists` materialization of\n\
         a raw base; steady state runs against a prepared base, where the working copy is an\n\
         O(shards) copy-on-write clone and re-preparation is O(1).\n\n",
    );

    let (ratio_n, hots) = e7_ratio_axis(quick);
    let mut rt = Table::new(&[
        "hot objects",
        "hot ratio",
        "steady state (ms)",
        "facts copied",
        "µs/hot object",
    ]);
    for hot in hots {
        let row = e7_measure(quick, ratio_n, hot);
        rt.row(&[
            row.hot.to_string(),
            format!("{:.2}%", 100.0 * row.hot as f64 / ratio_n as f64),
            format!("{:.3}", row.steady_ms),
            row.facts_copied.to_string(),
            format!("{:.2}", row.steady_ms * 1e3 / row.hot as f64),
        ]);
    }
    out.push_str(&format!("hot/cold ratio sweep at {ratio_n} objects:\n\n"));
    out.push_str(&rt.render());
    out.push_str(
        "\nsteady-state time tracks the hot set, not the base: cloning is O(shards) and\n\
         mutation unshares only the index shards the touched objects route to.\n",
    );
    out
}

/// One A6 measurement: clone / first-write / snapshot micro-costs at a
/// given base size.
pub struct A6Row {
    /// Facts in the base.
    pub facts: usize,
    /// `ObjectBase::clone` (O(shards) Arc bumps).
    pub clone_us: f64,
    /// Clone + one inserted fact (unshares ≤ 1 shard per index).
    pub clone_first_write_us: f64,
    /// `Database::snapshot` (one Arc bump).
    pub snapshot_us: f64,
    /// Index shards the single write unshared.
    pub unshared_after_write: usize,
    /// Total index shards per base.
    pub total_shards: usize,
}

/// Average microseconds per call over enough iterations to be stable
/// at sub-microsecond scales (median of 5 samples).
fn tight_us(quick: bool, mut f: impl FnMut()) -> f64 {
    use std::time::Instant;
    // Calibrate an inner iteration count targeting ~5ms per sample.
    let start = Instant::now();
    f();
    let once = start.elapsed().max(std::time::Duration::from_nanos(40));
    let inner = ((5_000_000 / once.as_nanos().max(1)) as usize).clamp(1, 100_000);
    let samples = if quick { 2 } else { 5 };
    let mut medians: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    medians.sort_by(f64::total_cmp);
    medians[medians.len() / 2]
}

/// Measure one A6 base size (shared by the report and [`bench_json`]).
pub fn a6_measure(quick: bool, facts: usize) -> A6Row {
    // 5 data facts per object plus the `exists` fact `ensure_exists`
    // materializes ⇒ 6 stored facts per object.
    let objects = (facts / 6).max(1);
    let mut ob = e7_base(objects, 100.min(objects));
    ob.ensure_exists();
    let clone_us = tight_us(quick, || {
        std::hint::black_box(ob.clone());
    });
    let mut i = 0u64;
    let clone_first_write_us = tight_us(quick, || {
        let mut copy = ob.clone();
        copy.insert(Vid::object(oid("fresh")), sym("w"), Args::empty(), int(i as i64));
        i += 1;
        std::hint::black_box(copy);
    });
    let db = ruvo_core::Database::open(ob.clone());
    let snapshot_us = tight_us(quick, || {
        std::hint::black_box(db.snapshot());
    });
    let mut copy = ob.clone();
    copy.insert(Vid::object(oid("fresh")), sym("w"), Args::empty(), int(1));
    let stats = copy.cow_stats(&ob);
    A6Row {
        facts: ob.len(),
        clone_us,
        clone_first_write_us,
        snapshot_us,
        unshared_after_write: stats.unshared_shards(),
        total_shards: stats.total(),
    }
}

/// The A6 size sweep, in facts.
pub fn a6_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![1_000, 5_000]
    } else {
        vec![1_000, 10_000, 50_000]
    }
}

/// A6 — copy-on-write clone cost in isolation: `ObjectBase::clone`
/// must be O(shards) (flat across base sizes), a clone + first write
/// must pay at most a few shards, and `Database::snapshot` must stay
/// O(1).
pub fn a6_cow_clone(quick: bool) -> String {
    let rows: Vec<A6Row> = a6_sizes(quick).into_iter().map(|f| a6_measure(quick, f)).collect();
    let mut t = Table::new(&[
        "facts",
        "clone (µs)",
        "clone + 1 write (µs)",
        "snapshot (µs)",
        "shards unshared by write",
    ]);
    for row in &rows {
        t.row(&[
            row.facts.to_string(),
            format!("{:.3}", row.clone_us),
            format!("{:.3}", row.clone_first_write_us),
            format!("{:.3}", row.snapshot_us),
            format!("{}/{}", row.unshared_after_write, row.total_shards),
        ]);
    }
    let mut out = t.render();
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let ratio = last.clone_us / first.clone_us;
    out.push_str(&format!(
        "\nclone cost ratio {} → {} facts: {ratio:.2}× (flat ⇒ O(shards), not O(facts));\n\
         a single write unshares at most a few of the {} index shards.\n",
        first.facts, last.facts, last.total_shards,
    ));
    // Report a flatness regression instead of panicking mid-sweep: a
    // noisy host can blow a wall-clock ratio past any fixed bound.
    if ratio >= 2.0 {
        out.push_str(&format!(
            "⚠ REGRESSION: clone cost grew {ratio:.2}× across base sizes — expected flat \
             (O(shards)).\n"
        ));
    }
    out
}

/// Machine-readable medians for the perf trajectory: the E14
/// incremental-checkpoint axes, the E13 rule-parallel and E12
/// shard-parallel thread sweeps, the E11 / E10 / E8C axes, the E7
/// size and ratio sweeps, and the A6 micro-costs, as one JSON
/// document (written by `experiments --json=PATH`).
pub fn bench_json(quick: bool) -> String {
    let hot = 100usize;
    let sizes: Vec<String> = e7_sizes(quick)
        .into_iter()
        .map(|n| {
            let r = e7_measure(quick, n, hot.min(n));
            format!(
                "    {{\"objects\": {}, \"hot\": {}, \"cold_ms\": {:.3}, \"steady_ms\": {:.3}, \
                 \"facts_copied\": {}}}",
                r.objects, r.hot, r.cold_ms, r.steady_ms, r.facts_copied
            )
        })
        .collect();
    let (ratio_n, hots) = e7_ratio_axis(quick);
    let ratios: Vec<String> = hots
        .into_iter()
        .map(|h| {
            let r = e7_measure(quick, ratio_n, h);
            format!(
                "    {{\"hot\": {}, \"steady_ms\": {:.3}, \"facts_copied\": {}}}",
                r.hot, r.steady_ms, r.facts_copied
            )
        })
        .collect();
    let a6: Vec<String> = a6_sizes(quick)
        .into_iter()
        .map(|f| {
            let r = a6_measure(quick, f);
            format!(
                "    {{\"facts\": {}, \"clone_us\": {:.3}, \"clone_first_write_us\": {:.3}, \
                 \"snapshot_us\": {:.3}, \"unshared_after_write\": {}, \"total_shards\": {}}}",
                r.facts,
                r.clone_us,
                r.clone_first_write_us,
                r.snapshot_us,
                r.unshared_after_write,
                r.total_shards
            )
        })
        .collect();
    // The PR-4 axis: concurrent serving throughput. Reader scaling is
    // hardware-dependent, so the visible CPU count is part of the
    // record; the serving-vs-coarse-lock ratio is meaningful even on
    // one core (it measures reader stalls behind commits, not
    // parallelism).
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let serving_rows: Vec<E8cRow> =
        e8c_reader_counts().into_iter().map(|r| e8c_measure_serving(quick, r, 1)).collect();
    let locked = e8c_measure_locked(quick, 8, 1);
    let scaling = serving_rows.last().expect("sweep").reads_per_sec
        / serving_rows.first().expect("sweep").reads_per_sec;
    let vs_locked = serving_rows.last().expect("sweep").reads_per_sec / locked.reads_per_sec;
    let row_json = |r: &E8cRow| {
        format!(
            "{{\"readers\": {}, \"writers\": {}, \"reads_per_sec\": {:.0}, \
             \"commits_per_sec\": {:.1}, \"read_batch_mean_us\": {:.1}, \
             \"read_batch_max_us\": {:.0}}}",
            r.readers,
            r.writers,
            r.reads_per_sec,
            r.commits_per_sec,
            r.mean_read_batch_us,
            r.max_read_batch_us
        )
    };
    let stall_ratio = locked.max_read_batch_us
        / serving_rows.last().expect("sweep").max_read_batch_us.max(f64::EPSILON);
    let serving_json: Vec<String> =
        serving_rows.iter().map(|r| format!("    {}", row_json(r))).collect();

    // The PR-5 axis: durability costs (fsync policies vs the volatile
    // baseline, recovery scaling, checkpoint cost).
    let fsync_rows: Vec<String> = e10_fsync_policies()
        .into_iter()
        .map(|(name, policy)| {
            let r = e10_measure_fsync(quick, name, policy);
            format!(
                "    {{\"policy\": \"{}\", \"commits\": {}, \"wall_ms\": {:.1}, \
                 \"commits_per_sec\": {:.0}}}",
                r.policy, r.commits, r.wall_ms, r.commits_per_sec
            )
        })
        .collect();
    let recovery_rows: Vec<String> = e10_recovery_sizes(quick)
        .into_iter()
        .map(|commits| {
            let r = e10_measure_recovery(commits);
            format!(
                "    {{\"wal_records\": {}, \"wal_bytes\": {}, \"recover_ms\": {:.1}, \
                 \"us_per_commit\": {:.1}}}",
                r.commits,
                r.wal_bytes,
                r.recover_ms,
                r.recover_ms * 1e3 / r.commits.max(1) as f64
            )
        })
        .collect();
    let checkpoint_rows: Vec<String> = e10_checkpoint_sizes(quick)
        .into_iter()
        .map(|objects| {
            let r = e10_measure_checkpoint(objects);
            format!(
                "    {{\"facts\": {}, \"checkpoint_ms\": {:.1}, \"reopen_ms\": {:.1}}}",
                r.facts, r.checkpoint_ms, r.reopen_ms
            )
        })
        .collect();

    // The PR-7 axis: demand-driven queries (magic-set point query vs
    // the full-evaluation escape hatch).
    let e11_rows: Vec<String> = e11_sizes(quick)
        .into_iter()
        .map(|n| {
            let r = e11_measure(quick, n);
            format!(
                "    {{\"employees\": {}, \"facts\": {}, \"full_ms\": {:.3}, \
                 \"demand_ms\": {:.3}, \"speedup\": {:.1}}}",
                r.employees, r.facts, r.full_ms, r.demand_ms, r.speedup
            )
        })
        .collect();

    // The PR-8 axis: shard-parallel fixpoint thread sweep. The
    // bit-identity assertion runs on every host; the speedup gate only
    // where it can mean anything (≥4 CPUs, full mode) — and the record
    // says which happened.
    let mut e12_delta_rows: Vec<String> = Vec::new();
    let mut e12_bulk_rows: Vec<String> = Vec::new();
    let mut e12_sp4 = 0.0f64;
    for (name, (program, ob)) in e12_workloads(quick) {
        let (serial, reference) = e12_measure(quick, &program, &ob, 0);
        let delta_heavy = name.starts_with("delta-heavy");
        let dest = if delta_heavy { &mut e12_delta_rows } else { &mut e12_bulk_rows };
        dest.push(format!("     {{\"threads\": 0, \"wall_ms\": {:.3}}}", serial.wall_ms));
        for threads in e12_threads(quick) {
            let (row, ob2) = e12_measure(quick, &program, &ob, threads);
            assert_eq!(ob2, reference, "{name}: parallel ob' diverged at {threads} threads");
            let speedup = serial.wall_ms / row.wall_ms.max(f64::EPSILON);
            if threads == 4 && delta_heavy {
                e12_sp4 = speedup;
            }
            dest.push(format!(
                "     {{\"threads\": {}, \"wall_ms\": {:.3}, \"scan_wall_ms\": {:.3}, \
                 \"apply_wall_ms\": {:.3}, \"scan_subtasks\": {}, \"seed_splits\": {}, \
                 \"speedup\": {speedup:.2}}}",
                row.threads,
                row.wall_ms,
                row.scan_wall_ms,
                row.apply_wall_ms,
                row.scan_subtasks,
                row.seed_splits
            ));
        }
    }
    let e12_gate = match e12_speedup_gate(quick, cpus) {
        Ok(()) => {
            assert!(e12_sp4 >= 2.0, "delta-heavy speedup at 4 threads below 2x: {e12_sp4:.2}");
            "\"pass\"".to_string()
        }
        Err(why) => format!("\"skipped: {why}\""),
    };
    let e12_stall_serial = e8c_measure_serving_config(quick, 2, 1, None);
    let e12_stall_parallel = e8c_measure_serving_config(quick, 2, 1, Some(e12_config(2)));

    // The PR-9 axis: rule-parallel fixpoint via dependency components.
    let (e13_program, e13_ob) = e13_workload(quick);
    let e13_compiled =
        ruvo_core::CompiledProgram::compile(e13_program.clone(), CyclePolicy::Reject)
            .expect("E13 workload compiles");
    let e13_components = e13_compiled.deps().components().len();
    let (e13_serial, e13_reference) = e12_measure(quick, &e13_program, &e13_ob, 0);
    let mut e13_rows: Vec<String> =
        vec![format!("     {{\"threads\": 0, \"wall_ms\": {:.3}}}", e13_serial.wall_ms)];
    let mut e13_sp4 = 0.0f64;
    let mut e13_component_jobs = 0usize;
    for threads in e12_threads(quick) {
        let (row, ob2) = e12_measure(quick, &e13_program, &e13_ob, threads);
        assert_eq!(ob2, e13_reference, "E13: rule-parallel ob' diverged at {threads} threads");
        let outcome = run_with(e13_program.clone(), &e13_ob, e12_config(threads));
        let par = outcome.stats().parallel;
        if threads == 2 {
            e13_component_jobs = par.component_jobs;
        }
        let speedup = e13_serial.wall_ms / row.wall_ms.max(f64::EPSILON);
        if threads == 4 {
            e13_sp4 = speedup;
        }
        e13_rows.push(format!(
            "     {{\"threads\": {}, \"wall_ms\": {:.3}, \"scan_wall_ms\": {:.3}, \
             \"component_jobs\": {}, \"speedup\": {speedup:.2}}}",
            row.threads, row.wall_ms, row.scan_wall_ms, par.component_jobs
        ));
    }
    let e13_gate = match e12_speedup_gate(quick, cpus) {
        Ok(()) => {
            assert!(e13_sp4 >= 2.0, "rule-parallel speedup at 4 threads below 2x: {e13_sp4:.2}");
            "\"pass\"".to_string()
        }
        Err(why) => format!("\"skipped: {why}\""),
    };

    // The PR-10 axis: incremental checkpoints — the dirty-set sweep,
    // chain-vs-compacted reopen, and commit p99 under a background
    // checkpoint. Payload incrementality is asserted on every host;
    // the wall-clock gates follow the experiment's own rules.
    let e14_objects = e14_dirty_objects(quick);
    let mut e14_gate_speedup = 0.0f64;
    let e14_dirty_rows: Vec<String> = e14_dirty_cells(quick)
        .into_iter()
        .map(|(dirty, clustered)| {
            let r = e14_measure_dirty(e14_objects, dirty, clustered);
            if clustered && dirty == e14_objects / 100 {
                assert!(r.delta_bytes * 4 <= r.full_bytes, "1% clustered delta not incremental");
                e14_gate_speedup = r.speedup;
            }
            format!(
                "    {{\"facts\": {}, \"dirty\": {}, \"layout\": \"{}\", \"dirty_shards\": {}, \
                 \"delta_ms\": {:.2}, \"delta_bytes\": {}, \"full_ms\": {:.2}, \
                 \"full_bytes\": {}, \"speedup\": {:.1}}}",
                r.facts,
                r.dirty,
                r.layout,
                r.dirty_shards,
                r.delta_ms,
                r.delta_bytes,
                r.full_ms,
                r.full_bytes,
                r.speedup
            )
        })
        .collect();
    let e14_gate = if quick {
        "\"skipped: quick mode\"".to_string()
    } else {
        assert!(
            e14_gate_speedup >= 10.0,
            "steady-state delta checkpoint below 10x: {e14_gate_speedup:.1}x"
        );
        "\"pass\"".to_string()
    };
    let e14_reopen_rows: Vec<String> = e14_reopen_sizes(quick)
        .into_iter()
        .map(|objects| {
            let r = e14_measure_reopen(objects);
            format!(
                "    {{\"facts\": {}, \"generations\": {}, \"chain_reopen_ms\": {:.1}, \
                 \"compacted_reopen_ms\": {:.1}}}",
                r.facts, r.generations, r.chain_reopen_ms, r.full_reopen_ms
            )
        })
        .collect();
    let _ = e14_measure_serve(quick, false); // discard: process warmup
    let e14_baseline = e14_measure_serve(quick, false);
    let e14_concurrent = e14_measure_serve(quick, true);
    let e14_serve_json = |r: &E14ServeRow| {
        format!(
            "{{\"commits\": {}, \"p50_us\": {:.0}, \"p99_us\": {:.0}, \"max_us\": {:.0}, \
             \"checkpoints_completed\": {}}}",
            r.commits, r.p50_us, r.p99_us, r.max_us, r.checkpoints
        )
    };
    let e14_ratio = e14_concurrent.p99_us / e14_baseline.p99_us.max(f64::EPSILON);
    let e14_p99 = match e14_p99_gate(quick, cpus) {
        Ok(()) => {
            assert!(e14_ratio <= 1.5, "background checkpoint inflated p99 {e14_ratio:.2}x");
            "\"pass\"".to_string()
        }
        Err(why) => format!("\"skipped: {why}\""),
    };

    format!(
        "{{\n  \"pr\": 10,\n  \"quick\": {quick},\n  \"cpus\": {cpus},\n  \
         \"e14_incremental_checkpoints\": {{\n   \
         \"dirty_sweep\": [\n{}\n   ],\n   \
         \"incremental_gate\": {e14_gate},\n   \
         \"reopen\": [\n{}\n   ],\n   \
         \"serve_p99\": {{\n    \"baseline\": {},\n    \"background_16\": {},\n    \
         \"p99_ratio\": {e14_ratio:.2},\n    \"p99_gate\": {e14_p99}\n   }},\n   \
         \"recovered_bit_identical\": true\n  }},\n  \
         \"e13_rule_parallel\": {{\n   \
         \"rules\": {},\n   \
         \"components\": {e13_components},\n   \
         \"component_jobs_2t\": {e13_component_jobs},\n   \
         \"rows\": [\n{}\n   ],\n   \
         \"identical_results\": true,\n   \
         \"speedup_4t\": {e13_sp4:.2},\n   \
         \"speedup_gate\": {e13_gate}\n  }},\n  \
         \"e12_parallel_fixpoint\": {{\n   \
         \"delta_heavy\": [\n{}\n   ],\n   \
         \"bulk_load\": [\n{}\n   ],\n   \
         \"identical_results\": true,\n   \
         \"speedup_4t_delta_heavy\": {e12_sp4:.2},\n   \
         \"speedup_gate\": {e12_gate},\n   \
         \"read_stall_serial_writer\": {},\n   \
         \"read_stall_parallel_writer\": {}\n  }},\n  \
         \"e11_demand_queries\": [\n{}\n  ],\n  \
         \"e10_durability\": {{\n   \"fsync\": [\n{}\n   ],\n   \
         \"recovery\": [\n{}\n   ],\n   \"checkpoint\": [\n{}\n   ]\n  }},\n  \
         \"e8_concurrent_throughput\": {{\n   \"objects\": {},\n   \
         \"reads_per_snapshot\": {E8C_READS_PER_SNAPSHOT},\n   \"serving\": [\n{}\n   ],\n   \
         \"locked_8r_1w\": {},\n   \
         \"reader_scaling_1_to_8\": {scaling:.2},\n   \
         \"serving_vs_locked_8r\": {vs_locked:.2},\n   \
         \"locked_vs_serving_max_read_stall\": {stall_ratio:.1}\n  }},\n  \
         \"e7\": {{\n   \"hot\": {hot},\n   \
         \"sizes\": [\n{}\n   ],\n   \"ratio_objects\": {ratio_n},\n   \"ratio\": [\n{}\n   ]\n  \
         }},\n  \"a6\": [\n{}\n  ]\n}}\n",
        e14_dirty_rows.join(",\n"),
        e14_reopen_rows.join(",\n"),
        e14_serve_json(&e14_baseline),
        e14_serve_json(&e14_concurrent),
        e13_program.len(),
        e13_rows.join(",\n"),
        e12_delta_rows.join(",\n"),
        e12_bulk_rows.join(",\n"),
        row_json(&e12_stall_serial),
        row_json(&e12_stall_parallel),
        e11_rows.join(",\n"),
        fsync_rows.join(",\n"),
        recovery_rows.join(",\n"),
        checkpoint_rows.join(",\n"),
        e8c_objects(quick),
        serving_json.join(",\n"),
        row_json(&locked),
        sizes.join(",\n"),
        ratios.join(",\n"),
        a6.join(",\n")
    )
}

/// One E8C measurement cell: `readers` reader threads against
/// `writers` writer threads for a fixed wall-clock window.
pub struct E8cRow {
    /// Reader threads.
    pub readers: usize,
    /// Writer threads.
    pub writers: usize,
    /// Aggregate snapshot-lookups per second across all readers.
    pub reads_per_sec: f64,
    /// Committed transactions per second across all writers.
    pub commits_per_sec: f64,
    /// Mean latency of one read batch (snapshot / lock acquisition +
    /// 16 lookups), µs. For the coarse-lock baseline this includes
    /// time queued behind commits; for serving it cannot.
    pub mean_read_batch_us: f64,
    /// Worst observed read-batch latency, µs (on a loaded host this
    /// includes scheduler preemption for both designs; the coarse
    /// lock additionally pays whole-commit waits).
    pub max_read_batch_us: f64,
}

/// Per-reader latency accumulator for the E8C reader loops.
#[derive(Default)]
struct E8cReaderStats {
    reads: u64,
    batches: u64,
    total_ns: u128,
    max_ns: u128,
}

impl E8cReaderStats {
    fn record(&mut self, batch_ns: u128) {
        self.batches += 1;
        self.reads += E8C_READS_PER_SNAPSHOT as u64;
        self.total_ns += batch_ns;
        self.max_ns = self.max_ns.max(batch_ns);
    }

    /// Fold per-reader stats into `(reads_total, mean_us, max_us)`.
    fn aggregate(all: &[E8cReaderStats]) -> (u64, f64, f64) {
        let reads: u64 = all.iter().map(|s| s.reads).sum();
        let batches: u64 = all.iter().map(|s| s.batches).sum();
        let total: u128 = all.iter().map(|s| s.total_ns).sum();
        let max: u128 = all.iter().map(|s| s.max_ns).max().unwrap_or(0);
        let mean_us = if batches == 0 { 0.0 } else { total as f64 / batches as f64 / 1_000.0 };
        (reads, mean_us, max as f64 / 1_000.0)
    }
}

/// Lookups a reader performs per snapshot before refreshing its view.
const E8C_READS_PER_SNAPSHOT: usize = 16;

fn e8c_window_ms(quick: bool) -> u64 {
    if quick {
        40
    } else {
        400
    }
}

/// Accounts in the E8C workload (also what the report header and the
/// JSON record cite — keep all three in agreement by construction).
fn e8c_objects(quick: bool) -> usize {
    if quick {
        100
    } else {
        1_000
    }
}

fn e8c_scenario(quick: bool) -> ServingScenario {
    serving_scenario(ServingConfig {
        objects: e8c_objects(quick),
        writers: 2,
        pad_methods: 3,
        seed: 42,
    })
}

/// Drive `readers` × `writers` threads against a [`ServingDatabase`]
/// for one window; asserts the post-run balance sum matches the
/// serialized writer history exactly (no lost or torn update).
pub fn e8c_measure_serving(quick: bool, readers: usize, writers: usize) -> E8cRow {
    e8c_measure_serving_config(quick, readers, writers, None)
}

/// [`e8c_measure_serving`] with the serving database opened under an
/// explicit engine configuration — E12 uses it to measure read-stall
/// tails behind a *parallel* group-commit writer.
pub fn e8c_measure_serving_config(
    quick: bool,
    readers: usize,
    writers: usize,
    config: Option<EngineConfig>,
) -> E8cRow {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let scenario = e8c_scenario(quick);
    let db = match config {
        None => ServingDatabase::open(scenario.ob.clone()),
        Some(cfg) => {
            ServingDatabase::new(Database::builder().config(cfg).open(scenario.ob.clone()))
        }
    };
    let programs: Vec<_> = (0..writers)
        .map(|g| {
            ruvo_core::Prepared::compile(scenario.writer_programs[g].clone(), CyclePolicy::Reject)
                .expect("writer program compiles")
        })
        .collect();
    let stop = AtomicBool::new(false);
    let window = std::time::Duration::from_millis(e8c_window_ms(quick));
    let started = Instant::now();
    let (reads, commits) = std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let db = db.clone();
                let keys = &scenario.read_objects;
                let stop = &stop;
                s.spawn(move || {
                    let mut stats = E8cReaderStats::default();
                    let mut i = r * 17; // decorrelate thread walk order
                    while !stop.load(Ordering::Relaxed) {
                        let batch = Instant::now();
                        let snap = db.snapshot();
                        for _ in 0..E8C_READS_PER_SNAPSHOT {
                            let acct = keys[i % keys.len()];
                            std::hint::black_box(snap.lookup1(acct, "balance"));
                            i += 1;
                        }
                        stats.record(batch.elapsed().as_nanos());
                    }
                    stats
                })
            })
            .collect();
        let writer_handles: Vec<_> = (0..writers)
            .map(|g| {
                let db = db.clone();
                let prepared = programs[g].clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut commits = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        db.apply(&prepared).expect("writer program applies");
                        commits += 1;
                    }
                    commits
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let stats: Vec<E8cReaderStats> =
            reader_handles.into_iter().map(|h| h.join().expect("reader")).collect();
        let commits: Vec<usize> =
            writer_handles.into_iter().map(|h| h.join().expect("writer")).collect();
        (stats, commits)
    });
    let elapsed = started.elapsed().as_secs_f64();
    // Serializability witness: the final sum is exactly the initial sum
    // plus one credit per (commit, group member).
    assert_eq!(
        scenario.balance_sum(&db.current()),
        scenario.expected_balance_sum(&commits),
        "lost or torn update across {} commits",
        commits.iter().sum::<usize>()
    );
    let (total_reads, mean_us, max_us) = E8cReaderStats::aggregate(&reads);
    E8cRow {
        readers,
        writers,
        reads_per_sec: total_reads as f64 / elapsed,
        commits_per_sec: commits.iter().sum::<usize>() as f64 / elapsed,
        mean_read_batch_us: mean_us,
        max_read_batch_us: max_us,
    }
}

/// The coarse-lock strawman: one `Mutex<Database>`, every read and
/// every write behind it. What serving would look like without the
/// swapped head — readers stall for every commit's full duration.
pub fn e8c_measure_locked(quick: bool, readers: usize, writers: usize) -> E8cRow {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    let scenario = e8c_scenario(quick);
    let db = Mutex::new(Database::open(scenario.ob.clone()));
    let programs: Vec<_> = (0..writers)
        .map(|g| {
            ruvo_core::Prepared::compile(scenario.writer_programs[g].clone(), CyclePolicy::Reject)
                .expect("writer program compiles")
        })
        .collect();
    let stop = AtomicBool::new(false);
    let window = std::time::Duration::from_millis(e8c_window_ms(quick));
    let started = Instant::now();
    let (reads, commits) = std::thread::scope(|s| {
        let reader_handles: Vec<_> = (0..readers)
            .map(|r| {
                let db = &db;
                let keys = &scenario.read_objects;
                let stop = &stop;
                s.spawn(move || {
                    let mut stats = E8cReaderStats::default();
                    let mut i = r * 17;
                    while !stop.load(Ordering::Relaxed) {
                        let batch = Instant::now();
                        let guard = db.lock().expect("not poisoned");
                        for _ in 0..E8C_READS_PER_SNAPSHOT {
                            let acct = keys[i % keys.len()];
                            std::hint::black_box(guard.current().lookup1(acct, "balance"));
                            i += 1;
                        }
                        stats.record(batch.elapsed().as_nanos());
                    }
                    stats
                })
            })
            .collect();
        let writer_handles: Vec<_> = (0..writers)
            .map(|g| {
                let db = &db;
                let prepared = programs[g].clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut commits = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        db.lock().expect("not poisoned").apply(&prepared).expect("applies");
                        commits += 1;
                    }
                    commits
                })
            })
            .collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let stats: Vec<E8cReaderStats> =
            reader_handles.into_iter().map(|h| h.join().expect("reader")).collect();
        let commits: Vec<usize> =
            writer_handles.into_iter().map(|h| h.join().expect("writer")).collect();
        (stats, commits)
    });
    let elapsed = started.elapsed().as_secs_f64();
    let guard = db.lock().expect("not poisoned");
    assert_eq!(scenario.balance_sum(guard.current()), scenario.expected_balance_sum(&commits));
    let (total_reads, mean_us, max_us) = E8cReaderStats::aggregate(&reads);
    E8cRow {
        readers,
        writers,
        reads_per_sec: total_reads as f64 / elapsed,
        commits_per_sec: commits.iter().sum::<usize>() as f64 / elapsed,
        mean_read_batch_us: mean_us,
        max_read_batch_us: max_us,
    }
}

/// The reader-thread axis of the E8C sweep.
pub fn e8c_reader_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

/// E8C — concurrent serving throughput: N snapshot readers against a
/// continuously committing writer on a [`ServingDatabase`], versus a
/// single `Mutex<Database>` where readers queue behind every commit.
///
/// Reader scaling with thread count needs hardware parallelism — the
/// report records the visible CPU count next to the ratio so a 1-core
/// CI runner's flat curve is not mistaken for contention. The
/// serving-vs-locked ratio is meaningful on any core count: it
/// measures time readers spend blocked behind commits, not
/// parallelism.
pub fn e8_concurrent_throughput(quick: bool) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = format!(
        "workload: {} accounts, {E8C_READS_PER_SNAPSHOT} lookups per snapshot, \
         writer credits its group each commit; visible CPUs: {cpus}\n\n",
        e8c_objects(quick)
    );
    let mut t = Table::new(&[
        "configuration",
        "readers",
        "reads/s",
        "commits/s",
        "batch mean (µs)",
        "batch max (µs)",
    ]);
    let push = |t: &mut Table, name: &str, row: &E8cRow| {
        t.row(&[
            name.into(),
            row.readers.to_string(),
            format!("{:.0}", row.reads_per_sec),
            if row.writers == 0 { "-".into() } else { format!("{:.0}", row.commits_per_sec) },
            format!("{:.1}", row.mean_read_batch_us),
            format!("{:.0}", row.max_read_batch_us),
        ]);
    };
    let baseline = e8c_measure_serving(quick, 1, 0);
    push(&mut t, "serving, no writer", &baseline);
    let mut serving: Vec<E8cRow> = Vec::new();
    for readers in e8c_reader_counts() {
        let row = e8c_measure_serving(quick, readers, 1);
        push(&mut t, "serving, 1 writer", &row);
        serving.push(row);
    }
    let locked = e8c_measure_locked(quick, 8, 1);
    push(&mut t, "coarse lock, 1 writer", &locked);
    out.push_str(&t.render());
    let first = serving.first().expect("sweep ran");
    let last = serving.last().expect("sweep ran");
    let scaling = last.reads_per_sec / first.reads_per_sec;
    let vs_locked = last.reads_per_sec / locked.reads_per_sec;
    let stall = locked.max_read_batch_us / last.max_read_batch_us.max(f64::EPSILON);
    out.push_str(&format!(
        "\nreader scaling 1→{}: {scaling:.2}× (needs ≥{} CPUs to show; this host has {cpus})\n\
         serving vs coarse lock at 8 readers: {vs_locked:.2}× throughput, \
         {stall:.1}× smaller worst-case read stall\n",
        last.readers, last.readers
    ));
    // Whatever the hardware, the writer must never stop the readers
    // entirely, and every run must serialize (asserted inside the
    // measurement helpers).
    assert!(last.reads_per_sec > 0.0 && last.commits_per_sec > 0.0);
    out
}

/// E8 — the §2.4 control comparison: ruvo vs the Logres-style baseline
/// under module / collapsed / inflationary semantics, on the $4100
/// variant where order sensitivity shows.
pub fn e8_vs_datalog(quick: bool) -> String {
    // Correctness: the $4100 scenario.
    let mut out = String::from(
        "scenario: phil (mgr, $4000) is bob's boss; bob earns $4100.\n\
         correct outcome (paper §2.4): raises first — bob 4510 < phil 4600, bob stays, both hpe.\n\n",
    );
    let mut t = Table::new(&["system", "bob employed?", "bob sal", "bob hpe?", "verdict"]);

    // ruvo.
    let ob = ObjectBase::parse(
        "phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
         bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4100.",
    )
    .unwrap();
    let ob2 = run(enterprise_program(), &ob).new_object_base();
    let bob_in = ob2.lookup1(oid("bob"), "isa").contains(&oid("empl"));
    let bob_sal = ob2.lookup1(oid("bob"), "sal");
    let bob_hpe = ob2.lookup1(oid("bob"), "isa").contains(&oid("hpe"));
    assert!(bob_in && bob_hpe && bob_sal == vec![int(4510)]);
    t.row(&["ruvo (VIDs)".into(), "yes".into(), "4510".into(), "yes".into(), "correct ✓".into()]);

    // Plain stratified Datalog¬ (automatic predicate stratification)
    // cannot even accept the program: `sal` is read and deleted through
    // a cycle with `sal2`. The full spectrum of control:
    // VIDs (implicit) > manual modules > auto-stratification (rejects)
    // > none (wrong).
    let auto = ruvo_datalog::auto_stratify(&enterprise_baseline_datalog());
    let auto_err = auto.expect_err("read/delete cycle must be rejected");
    t.row(&[
        "datalog, auto-stratified".into(),
        "—".into(),
        "—".into(),
        "—".into(),
        format!("rejected ({} cycle)", auto_err.cycle.join("/")),
    ]);

    // Baseline in three semantics.
    let dl_scenario = "empl(phil). empl(bob). mgr(phil). boss(bob, phil).
                       sal(phil, 4000). sal(bob, 4100).";
    for (name, semantics) in [
        ("datalog, ordered modules", Semantics::Modules),
        ("datalog, collapsed", Semantics::Collapsed),
        ("datalog, inflationary", Semantics::Inflationary),
    ] {
        let mut db = ruvo_datalog::parser::parse_db(dl_scenario).unwrap();
        // 60 rounds cap: enough for the module fixpoints (≤ 6 rounds)
        // and enough to expose the inflationary runaway (1.1^k growth)
        // without letting the diverging relation get huge.
        evaluate(&mut db, &enterprise_baseline_datalog(), semantics, 60);
        let employed = db.contains(sym("empl"), &[oid("bob")]);
        let sal: Vec<String> = db
            .tuples(sym("sal"))
            .filter(|tup| tup[0] == oid("bob"))
            .map(|tup| tup[1].to_string())
            .collect();
        let hpe = db.contains(sym("hpe"), &[oid("bob")]);
        let correct = employed && hpe && sal == vec!["4510".to_string()];
        t.row(&[
            name.into(),
            if employed { "yes" } else { "no" }.into(),
            sal.join("/"),
            if hpe { "yes" } else { "no" }.into(),
            if correct { "correct ✓".into() } else { "WRONG ✗".to_string() },
        ]);
    }
    out.push_str(&t.render());

    // Performance on generated enterprises (both correct variants).
    let mut perf = Table::new(&["employees", "ruvo (ms)", "datalog modules (ms)"]);
    for n in enterprise_sizes(quick) {
        let e = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let d_ruvo = median_time(reps(quick), || {
            run(enterprise_program(), &e.ob);
        });
        let baseline = enterprise_baseline_datalog();
        let d_dl = median_time(reps(quick), || {
            let mut db = e.as_datalog();
            evaluate(&mut db, &baseline, Semantics::Modules, 1_000);
        });
        perf.row(&[n.to_string(), ms(d_ruvo), ms(d_dl)]);
    }
    out.push('\n');
    out.push_str(&perf.render());
    out
}

/// F1 — k consecutive update groups on one object: the engine produces
/// exactly k strata and a depth-k version chain.
pub fn f1_chain_depth(quick: bool) -> String {
    let ks: Vec<usize> = if quick { vec![1, 4, 8] } else { vec![1, 2, 4, 8, 12, 16, 22, 28] };
    let mut t = Table::new(&["k", "kinds", "strata", "final VID depth", "time (ms)"]);
    for &k in &ks {
        for mixed in [false, true] {
            let ob = chain_object_base();
            let program = chain_program(k, mixed);
            let d = median_time(reps(quick), || {
                run(program.clone(), &ob);
            });
            let outcome = run(program.clone(), &ob);
            let depth = outcome.final_versions().unwrap()[&oid("o")].depth();
            assert_eq!(depth, k);
            assert_eq!(outcome.stratification().len(), k);
            t.row(&[
                k.to_string(),
                if mixed { "mod/del/ins".into() } else { "all ins".to_string() },
                outcome.stratification().len().to_string(),
                depth.to_string(),
                ms(d),
            ]);
        }
    }
    t.render()
}

/// E9 — §6 VID variables: the version-audit workload, once with a
/// `$V` wildcard (scans every version) and once as the equivalent
/// chain-indexed two-rule formulation. After the salary raise the only
/// versions are `e` and `mod(e)`, so both programs flag exactly the
/// same objects; the measurement is the price of an open version scan.
pub fn e9_vid_vars(quick: bool) -> String {
    const THRESHOLD: i64 = 5_000;
    let wildcard_src = format!(
        "raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.
         audit: ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > {THRESHOLD}."
    );
    let indexed_src = format!(
        "raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.
         audit0: ins[audit].flagged -> O <= O.sal -> S & S > {THRESHOLD}.
         audit1: ins[audit].flagged -> O <= mod(O).sal -> S & S > {THRESHOLD}."
    );
    let wildcard = Program::parse(&wildcard_src).unwrap();
    let indexed = Program::parse(&indexed_src).unwrap();

    let mut out = String::new();
    let mut t = Table::new(&["employees", "wildcard (ms)", "indexed (ms)", "slowdown", "flagged"]);
    let sizes = if quick { vec![50, 200] } else { vec![500, 2_000, 8_000] };
    for n in sizes {
        let ent = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let d_wild = median_time(reps(quick), || {
            run(wildcard.clone(), &ent.ob);
        });
        let d_idx = median_time(reps(quick), || {
            run(indexed.clone(), &ent.ob);
        });
        let ob_wild = run(wildcard.clone(), &ent.ob).new_object_base();
        let ob_idx = run(indexed.clone(), &ent.ob).new_object_base();
        assert_eq!(ob_wild, ob_idx, "wildcard and indexed audits must agree");
        let flagged = ob_wild.lookup1(oid("audit"), "flagged").len();
        assert!(flagged > 0, "threshold must flag someone at n = {n}");
        t.row(&[
            n.to_string(),
            ms(d_wild),
            ms(d_idx),
            format!("{:.2}x", d_wild.as_secs_f64() / d_idx.as_secs_f64()),
            flagged.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nBoth formulations produce identical object bases; the wildcard pays\n\
         an all-versions scan per evaluation round and forfeits rule-level\n\
         delta filtering (its trigger set is unbounded).\n",
    );
    out
}

/// A3 — ablation: what the §6 runtime-checking machinery costs.
///
/// On the statically stratifiable enterprise workload,
/// `CyclePolicy::RuntimeStability` must be free (identical strata, no
/// flagged SCCs) while `verify_stability` pays full per-round rule
/// re-evaluation plus the fired-set subset check. A second table runs
/// the statically rejected but dynamically stable cyclic program that
/// only the runtime criterion can evaluate.
pub fn a3_runtime_checks(quick: bool) -> String {
    let mut out = String::new();
    let mut t = Table::new(&[
        "employees",
        "static (ms)",
        "dynamic policy (ms)",
        "verify-stability (ms)",
        "verify overhead",
    ]);
    let sizes = if quick { vec![100] } else { vec![1_000, 5_000] };
    for n in sizes {
        let ent = Enterprise::generate(EnterpriseConfig { employees: n, ..Default::default() });
        let program = enterprise_program();
        let static_cfg = EngineConfig::default();
        let dynamic_cfg =
            EngineConfig { cycles: CyclePolicy::RuntimeStability, ..Default::default() };
        let verify_cfg = EngineConfig { verify_stability: true, ..Default::default() };
        let d_static = median_time(reps(quick), || {
            run_with(program.clone(), &ent.ob, static_cfg.clone());
        });
        let d_dynamic = median_time(reps(quick), || {
            run_with(program.clone(), &ent.ob, dynamic_cfg.clone());
        });
        let d_verify = median_time(reps(quick), || {
            run_with(program.clone(), &ent.ob, verify_cfg.clone());
        });
        let r_static = run_with(program.clone(), &ent.ob, static_cfg);
        let r_dynamic = run_with(program.clone(), &ent.ob, dynamic_cfg);
        let r_verify = run_with(program.clone(), &ent.ob, verify_cfg);
        assert_eq!(r_static.result(), r_dynamic.result());
        assert_eq!(r_static.result(), r_verify.result());
        t.row(&[
            n.to_string(),
            ms(d_static),
            ms(d_dynamic),
            ms(d_verify),
            format!("{:.2}x", d_verify.as_secs_f64() / d_static.as_secs_f64()),
        ]);
    }
    out.push_str(&t.render());

    // The broader-acceptance side: a cyclic-but-stable program.
    let cyclic = Program::parse(
        "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
         r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.",
    )
    .unwrap();
    let n = if quick { 50 } else { 2_000 };
    let mut ob = ObjectBase::new();
    for i in 0..n {
        let v = Vid::object(oid(&format!("a{i}")));
        ob.insert(v, sym("m"), Args::empty(), int(1));
        ob.insert(v, sym("trigger"), Args::empty(), int(1));
    }
    let static_err = UpdateEngine::new(cyclic.clone()).run(&ob).unwrap_err();
    assert!(matches!(static_err, EvalError::NotStratifiable(_)));
    let dynamic_cfg = EngineConfig { cycles: CyclePolicy::RuntimeStability, ..Default::default() };
    let d_dyn = median_time(reps(quick), || {
        run_with(cyclic.clone(), &ob, dynamic_cfg.clone());
    });
    let outcome = run_with(cyclic.clone(), &ob, dynamic_cfg);
    let ob2 = outcome.new_object_base();
    assert_eq!(ob2.lookup1(oid("a0"), "m"), vec![]);
    out.push_str(&format!(
        "\nCyclic-but-stable program over {n} objects: statically rejected\n\
         (condition (b)/(c) cycle), accepted under the runtime criterion in\n\
         {} ms with the expected result (every m deleted, go inserted).\n",
        ms(d_dyn)
    ));
    out
}

// ----- E10: durable storage ------------------------------------------

/// A scratch data directory for one E10 measurement (a fresh name per
/// call, so neither a predecessor's state nor a concurrent test's
/// directory is ever seen).
fn e10_dir(tag: &str) -> std::path::PathBuf {
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ruvo-e10-{tag}-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const E10_BUMP: &str = "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.";
const E10_SEED: &str = "acct.balance -> 0.";

fn e10_commit_count(quick: bool) -> usize {
    if quick {
        40
    } else {
        400
    }
}

/// One fsync-policy cell: `commits` durable commits end to end.
pub struct E10FsyncRow {
    /// Human name of the policy.
    pub policy: &'static str,
    /// Commits applied.
    pub commits: usize,
    /// Wall-clock for the whole stream, ms.
    pub wall_ms: f64,
    /// Commit throughput.
    pub commits_per_sec: f64,
}

fn e10_measure_fsync(
    quick: bool,
    policy: &'static str,
    fsync: Option<ruvo_core::FsyncPolicy>,
) -> E10FsyncRow {
    use ruvo_core::CheckpointPolicy;
    let commits = e10_commit_count(quick);
    let (mut db, dir) = match fsync {
        None => (Database::open_src(E10_SEED).unwrap(), None),
        Some(fsync) => {
            let dir = e10_dir(&format!("fsync-{fsync:?}"));
            let db = Database::builder()
                .data_dir(&dir)
                .fsync(fsync)
                .checkpoint_policy(CheckpointPolicy::never())
                .seed_src(E10_SEED)
                .unwrap()
                .open_dir()
                .unwrap();
            (db, Some(dir))
        }
    };
    let bump = db.prepare(E10_BUMP).unwrap();
    let (_, wall) = crate::time(|| {
        for _ in 0..commits {
            db.apply(&bump).unwrap();
        }
    });
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(commits as i64)]);
    if let Some(dir) = dir {
        // Acknowledged ⇒ recoverable, whatever the fsync policy (a
        // clean drop flushes nothing extra — the log already has it).
        drop(db);
        let recovered = Database::open_dir(dir).unwrap();
        assert_eq!(
            recovered.current().lookup1(oid("acct"), "balance"),
            vec![int(commits as i64)],
            "policy {policy} lost commits"
        );
    }
    E10FsyncRow {
        policy,
        commits,
        wall_ms: wall.as_secs_f64() * 1e3,
        commits_per_sec: commits as f64 / wall.as_secs_f64(),
    }
}

/// One recovery cell: reopen time for a WAL of `commits` records.
pub struct E10RecoveryRow {
    /// Records in the replayed WAL.
    pub commits: usize,
    /// WAL payload bytes replayed.
    pub wal_bytes: u64,
    /// `Database::open_dir` wall-clock, ms.
    pub recover_ms: f64,
}

fn e10_measure_recovery(commits: usize) -> E10RecoveryRow {
    use ruvo_core::CheckpointPolicy;
    let dir = e10_dir(&format!("recovery-{commits}"));
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .checkpoint_policy(CheckpointPolicy::never())
            .seed_src(E10_SEED)
            .unwrap()
            .open_dir()
            .unwrap();
        let bump = db.prepare(E10_BUMP).unwrap();
        for _ in 0..commits {
            db.apply(&bump).unwrap();
        }
    }
    let wal_bytes = ruvo_core::store::read_state(&dir).unwrap().stats.wal_bytes;
    let (db, wall) = crate::time(|| Database::open_dir(&dir).unwrap());
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(commits as i64)]);
    E10RecoveryRow { commits, wal_bytes, recover_ms: wall.as_secs_f64() * 1e3 }
}

/// One checkpoint cell: snapshot cost and checkpoint-only reopen time
/// for a base of `facts` facts.
pub struct E10CheckpointRow {
    /// Facts in the checkpointed base.
    pub facts: usize,
    /// `Database::checkpoint` wall-clock, ms.
    pub checkpoint_ms: f64,
    /// Reopen time when recovery is checkpoint-only (empty WAL), ms.
    pub reopen_ms: f64,
}

fn e10_measure_checkpoint(objects: usize) -> E10CheckpointRow {
    use ruvo_core::CheckpointPolicy;
    let dir = e10_dir(&format!("ckpt-{objects}"));
    let mut ob = ObjectBase::new();
    for i in 0..objects {
        let v = Vid::object(oid(&format!("o{i}")));
        ob.insert(v, sym("balance"), Args::new(vec![]), int(i as i64));
        ob.insert(v, sym("kind"), Args::new(vec![]), ruvo_term::Const::Sym(sym("live")));
    }
    let facts = ob.len();
    let mut db = Database::builder()
        .data_dir(&dir)
        .checkpoint_policy(CheckpointPolicy::never())
        .seed(ob)
        .open_dir()
        .unwrap();
    db.apply_src("ins[o0].flag -> 1.").unwrap();
    let (_, wall) = crate::time(|| db.checkpoint().unwrap());
    drop(db);
    let (recovered, reopen) = crate::time(|| Database::open_dir(&dir).unwrap());
    assert_eq!(recovered.current().len(), facts + 1);
    E10CheckpointRow {
        facts,
        checkpoint_ms: wall.as_secs_f64() * 1e3,
        reopen_ms: reopen.as_secs_f64() * 1e3,
    }
}

fn e10_fsync_policies() -> Vec<(&'static str, Option<ruvo_core::FsyncPolicy>)> {
    vec![
        ("volatile (no WAL)", None),
        ("wal + fsync always", Some(ruvo_core::FsyncPolicy::Always)),
        ("wal + fsync every 8", Some(ruvo_core::FsyncPolicy::EveryN(8))),
        ("wal + fsync never", Some(ruvo_core::FsyncPolicy::Never)),
    ]
}

fn e10_recovery_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![10, 50]
    } else {
        vec![100, 500, 2_000]
    }
}

fn e10_checkpoint_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![100, 1_000]
    } else {
        vec![1_000, 10_000, 50_000]
    }
}

/// E10 — the durability experiment: what the WAL costs on the commit
/// path (by fsync policy, against the volatile baseline), how
/// recovery time scales with the replayed log, and what a checkpoint
/// costs as the base grows. Every cell asserts the recovered state,
/// so this doubles as the durability acceptance sweep.
pub fn e10_durability(quick: bool) -> String {
    let mut out = String::new();

    let mut t = Table::new(&["commit pipeline", "commits", "wall (ms)", "commits/s"]);
    for (name, policy) in e10_fsync_policies() {
        let row = e10_measure_fsync(quick, name, policy);
        t.row(&[
            row.policy.into(),
            row.commits.to_string(),
            format!("{:.1}", row.wall_ms),
            format!("{:.0}", row.commits_per_sec),
        ]);
    }
    out.push_str("Append throughput vs fsync policy (group size 1 — worst case;\n");
    out.push_str("the serving layer amortizes one fsync across a whole batch):\n\n");
    out.push_str(&t.render());

    let mut t = Table::new(&["wal records", "wal bytes", "recovery (ms)", "µs/commit"]);
    for commits in e10_recovery_sizes(quick) {
        let row = e10_measure_recovery(commits);
        t.row(&[
            row.commits.to_string(),
            row.wal_bytes.to_string(),
            format!("{:.1}", row.recover_ms),
            format!("{:.1}", row.recover_ms * 1e3 / row.commits as f64),
        ]);
    }
    out.push_str("\nRecovery time vs WAL length (checkpointing disabled, so the\n");
    out.push_str("whole history replays — this is the cost checkpoints bound):\n\n");
    out.push_str(&t.render());

    let mut t = Table::new(&["facts", "checkpoint (ms)", "checkpoint-only reopen (ms)"]);
    for objects in e10_checkpoint_sizes(quick) {
        let row = e10_measure_checkpoint(objects);
        t.row(&[
            row.facts.to_string(),
            format!("{:.1}", row.checkpoint_ms),
            format!("{:.1}", row.reopen_ms),
        ]);
    }
    out.push_str("\nCheckpoint cost vs base size (snapshot write + WAL truncation,\n");
    out.push_str("and the reopen that loads only the checkpoint):\n\n");
    out.push_str(&t.render());
    out.push_str(
        "\nEvery cell re-opened its directory and verified the recovered state —\n\
         acknowledged commits survive all fsync policies after a clean process\n\
         exit; the SIGKILL path is covered by the cli crash_recovery test.\n",
    );
    out
}

// ----- E11: demand-driven queries ------------------------------------

/// One E11 cell: a selective point query at one enterprise size.
pub struct E11Row {
    /// Employees in the underlying enterprise.
    pub employees: usize,
    /// Facts in the raw base (≈ 3.2 per employee).
    pub facts: usize,
    /// Answer via the `demand(false)` escape hatch (full evaluation +
    /// goal match), ms.
    pub full_ms: f64,
    /// Answer via the magic-set demand path, ms.
    pub demand_ms: f64,
    /// `full_ms / demand_ms`.
    pub speedup: f64,
}

/// The E11 size axis, in employees (31k ≈ a 100k-fact base).
pub fn e11_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![500, 2_000]
    } else {
        vec![1_000, 10_000, 31_000]
    }
}

/// Measure one E11 size (shared by the report and [`bench_json`]).
/// Asserts the plan is seeded and the answers match the workload's
/// independently computed reference boss chain.
pub fn e11_measure(quick: bool, employees: usize) -> E11Row {
    let w = query_workload(QueryConfig { employees, queries: 1, seed: 0x51EED });
    let q = &w.queries[0]; // q0 is the point shape: `?- ins(eK).chief -> C.`
    let goal = Goal::parse(&q.goal).unwrap();
    let db = Database::open(w.enterprise.ob.clone());
    let prepared = db.prepare(w.program).unwrap();
    let plan = prepared.query_plan(goal.clone());
    assert_eq!(plan.mode(), QueryMode::Seeded, "a point goal must seed: {}", plan.describe());
    let slow_db = Database::builder().demand(false).open(w.enterprise.ob.clone());
    let slow_prepared = slow_db.prepare(w.program).unwrap();
    let demand = median_time(reps(quick), || {
        std::hint::black_box(db.query(&prepared, goal.clone()).unwrap());
    });
    let full = median_time(reps(quick), || {
        std::hint::black_box(slow_db.query(&slow_prepared, goal.clone()).unwrap());
    });
    let fast_answers = db.query(&prepared, goal.clone()).unwrap();
    let slow_answers = slow_db.query(&slow_prepared, goal).unwrap();
    assert_eq!(fast_answers.rows, q.expected, "goal {}", q.goal);
    assert_eq!(slow_answers.rows, q.expected, "goal {}", q.goal);
    E11Row {
        employees,
        facts: w.enterprise.ob.len(),
        full_ms: full.as_secs_f64() * 1e3,
        demand_ms: demand.as_secs_f64() * 1e3,
        speedup: full.as_secs_f64() / demand.as_secs_f64().max(f64::EPSILON),
    }
}

/// E11 — demand-driven queries: a selective point query
/// (`?- ins(eK).chief -> C.`) against the boss-chain closure, answered
/// through the magic-set demand path vs the full-evaluation escape
/// hatch. Full evaluation derives every employee's chief closure; the
/// demand plan seeds exactly one object, so the gap grows with the
/// base. Acceptance (full mode): ≥ 10× at the ~100k-fact size.
pub fn e11_demand(quick: bool) -> String {
    let mut t =
        Table::new(&["employees", "base facts", "full eval (ms)", "demand (ms)", "speedup"]);
    let mut last = None;
    for n in e11_sizes(quick) {
        let row = e11_measure(quick, n);
        t.row(&[
            row.employees.to_string(),
            row.facts.to_string(),
            format!("{:.3}", row.full_ms),
            format!("{:.3}", row.demand_ms),
            format!("{:.1}×", row.speedup),
        ]);
        last = Some(row);
    }
    let last = last.expect("sweep ran");
    let mut out = t.render();
    out.push_str(
        "\nanswers verified against the workload's reference boss chains at every size;\n\
         both paths return identical rows (the differential battery asserts this on\n\
         random programs and goals — `tests/query_differential.rs`).\n",
    );
    assert!(last.speedup > 1.0, "demand path slower than full evaluation: {:.2}×", last.speedup);
    if !quick {
        assert!(
            last.speedup >= 10.0,
            "acceptance: ≥10× on the ~100k-fact base, got {:.1}×",
            last.speedup
        );
    }
    out
}

// ----- E12: shard-parallel fixpoint ---------------------------------

/// One E12 cell: a full fixpoint run at one worker setting
/// (`threads == 0` is the serial baseline with parallel evaluation
/// off entirely).
pub struct E12Row {
    /// Worker cap (0 = serial baseline).
    pub threads: usize,
    /// Median end-to-end wall time.
    pub wall_ms: f64,
    /// Summed step-1 scan region wall time (parallel runs only).
    pub scan_wall_ms: f64,
    /// Summed step-2+3 apply region wall time (parallel runs only).
    pub apply_wall_ms: f64,
    /// Scan sub-tasks after seed splitting.
    pub scan_subtasks: usize,
    /// Seeded tasks split into per-shard sub-tasks.
    pub seed_splits: usize,
}

fn e12_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    }
}

fn e12_config(threads: usize) -> EngineConfig {
    if threads == 0 {
        EngineConfig::default()
    } else {
        EngineConfig { parallel: true, threads, ..EngineConfig::default() }
    }
}

/// Delta-heavy workload: transitive closure over one long `next`
/// chain — hundreds of fixpoint rounds whose seeded scans span nearly
/// every object, so step 1 dominates and per-shard seed splitting is
/// what parallelism has to exploit.
fn e12_delta_heavy(quick: bool) -> (Program, ObjectBase) {
    let n = if quick { 80 } else { 360 };
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
    (program, ob)
}

/// Bulk-load workload: a wide random insert-program over a large flat
/// base — few rounds with huge deltas, so steps 2+3 (state building
/// and the sharded batch commit) carry the weight.
fn e12_bulk_load(quick: bool) -> (Program, ObjectBase) {
    let config = RandomConfig {
        objects: if quick { 240 } else { 2_000 },
        facts: if quick { 900 } else { 9_000 },
        rules: 8,
        methods: 5,
        seed: 7,
    };
    (random_insert_program(config), random_object_base(config))
}

/// Measure one (workload, threads) cell; returns the row and `ob'`
/// for the cross-configuration identity assertion.
fn e12_measure(
    quick: bool,
    program: &Program,
    ob: &ObjectBase,
    threads: usize,
) -> (E12Row, ObjectBase) {
    let config = e12_config(threads);
    let wall = median_time(reps(quick), || {
        run_with(program.clone(), ob, config.clone());
    });
    let outcome = run_with(program.clone(), ob, config.clone());
    let par = outcome.stats().parallel;
    let row = E12Row {
        threads,
        wall_ms: wall.as_secs_f64() * 1e3,
        scan_wall_ms: par.scan_wall.as_secs_f64() * 1e3,
        apply_wall_ms: par.apply_wall.as_secs_f64() * 1e3,
        scan_subtasks: par.scan_subtasks,
        seed_splits: par.seed_splits,
    };
    (row, outcome.new_object_base())
}

/// The two E12 workloads, named.
fn e12_workloads(quick: bool) -> Vec<(&'static str, (Program, ObjectBase))> {
    vec![
        ("delta-heavy (chain closure)", e12_delta_heavy(quick)),
        ("bulk-load (wide inserts)", e12_bulk_load(quick)),
    ]
}

/// Whether this host qualifies for the wall-clock speedup gate.
/// Scaling needs real cores; on smaller hosts the gate is skipped
/// **and the skip is logged** — the bit-identity assertion still runs
/// everywhere.
fn e12_speedup_gate(quick: bool, cpus: usize) -> Result<(), String> {
    if quick {
        Err("quick mode".to_string())
    } else if cpus < 4 {
        Err(format!("host has {cpus} visible CPU(s), gate needs >= 4"))
    } else {
        Ok(())
    }
}

/// E12 — shard-parallel fixpoint: thread sweep over a delta-heavy and
/// a bulk-load workload. On every host, asserts the parallel `ob'` is
/// **bit-identical** to serial at every width; on hosts with ≥4 CPUs
/// (full mode), additionally asserts ≥2× speedup at 4 threads on the
/// delta-heavy workload. Also records serving read-stall tails with a
/// parallel-configured group-commit writer.
pub fn e12_parallel(quick: bool) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = format!("host: {cpus} visible CPU(s)\n\n");
    let mut delta_heavy_sp4 = None;
    for (name, (program, ob)) in e12_workloads(quick) {
        let (serial, reference) = e12_measure(quick, &program, &ob, 0);
        let mut t = Table::new(&[
            "threads",
            "wall (ms)",
            "scan wall (ms)",
            "apply wall (ms)",
            "scan sub-tasks",
            "seed splits",
            "speedup",
        ]);
        t.row(&[
            "serial".to_string(),
            format!("{:.3}", serial.wall_ms),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            "—".to_string(),
            "1.00×".to_string(),
        ]);
        for threads in e12_threads(quick) {
            let (row, ob2) = e12_measure(quick, &program, &ob, threads);
            assert_eq!(ob2, reference, "{name}: parallel ob' diverged at {threads} threads");
            let speedup = serial.wall_ms / row.wall_ms.max(f64::EPSILON);
            if threads == 4 && name.starts_with("delta-heavy") {
                delta_heavy_sp4 = Some(speedup);
            }
            t.row(&[
                threads.to_string(),
                format!("{:.3}", row.wall_ms),
                format!("{:.3}", row.scan_wall_ms),
                format!("{:.3}", row.apply_wall_ms),
                row.scan_subtasks.to_string(),
                row.seed_splits.to_string(),
                format!("{speedup:.2}×"),
            ]);
        }
        out.push_str(&format!("### {name}\n\n"));
        out.push_str(&t.render());
        out.push_str("\nparallel ob' bit-identical to serial at every width ✓\n\n");
    }
    let sp4 = delta_heavy_sp4.expect("sweep includes 4 threads");
    match e12_speedup_gate(quick, cpus) {
        Ok(()) => {
            assert!(sp4 >= 2.0, "delta-heavy speedup at 4 threads below 2x: {sp4:.2}");
            out.push_str(&format!("speedup gate: {sp4:.2}× at 4 threads (≥2× required) ✓\n"));
        }
        Err(why) => out
            .push_str(&format!("speedup gate: SKIPPED ({why}); measured {sp4:.2}× at 4 threads\n")),
    }
    // Read-stall tails behind a parallel group-commit writer: the
    // writer computing fixpoints on a pool must not hold the published
    // head longer than the serial writer does.
    let stall_serial = e8c_measure_serving_config(quick, 2, 1, None);
    let stall_parallel = e8c_measure_serving_config(quick, 2, 1, Some(e12_config(2)));
    out.push_str(&format!(
        "\nserving read stalls (2 readers / 1 writer): serial writer mean {:.1} µs, \
         max {:.0} µs; parallel writer (2 threads) mean {:.1} µs, max {:.0} µs\n",
        stall_serial.mean_read_batch_us,
        stall_serial.max_read_batch_us,
        stall_parallel.mean_read_batch_us,
        stall_parallel.max_read_batch_us,
    ));
    out
}

// ----- E13: rule-parallel fixpoint ----------------------------------

/// The E13 workload: eight *independent* triangle-join rules over
/// disjoint edge namespaces (`e0`..`e7`) — each is its own dependency
/// component, so their full scans parallelize rule-by-rule — plus one
/// conflicting `mod` pair on a shared method, which the dependency
/// analysis must bundle into a single serialized pool job.
fn e13_workload(quick: bool) -> (Program, ObjectBase) {
    let namespaces = 8usize;
    let v = if quick { 30 } else { 360 }; // divisible by 3 for the seeded 3-cycles
    let muls: &[usize] =
        if quick { &[2, 3] } else { &[7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] };
    let mut src = String::new();
    for k in 0..namespaces {
        for i in 0..v {
            // Guaranteed triangles: partition into 3-cycles.
            let group = i - i % 3;
            let cycle_next = group + (i + 1 - group) % 3;
            src.push_str(&format!("o{i}.e{k} -> o{cycle_next}.\n"));
            // Join fan: affine pseudo-random extra edges.
            for m in muls {
                src.push_str(&format!("o{i}.e{k} -> o{}.\n", (i * m + k) % v));
            }
        }
    }
    // The mod pair runs over its own object population (`p*`): the
    // triangle rules create ins(o*) versions and §5 version-linearity
    // forbids mixing ins(o) and mod(o) on one object.
    for i in 0..v {
        src.push_str(&format!("p{i}.shared -> 0.\np{i}.link -> p{}.\n", (i + 1) % v));
    }
    let ob = ObjectBase::parse(&src).unwrap();

    let mut rules = String::new();
    for k in 0..namespaces {
        rules.push_str(&format!(
            "t{k}: ins[X].tri{k} -> 1 <= X.e{k} -> Y & Y.e{k} -> Z & Z.e{k} -> X.\n"
        ));
    }
    // Same method, overlapping targets, different replacements: the
    // commutativity matrix says Conflicts, so these two form one
    // dependency component and run inside one pool job.
    rules.push_str("m1: mod[X].shared -> (V, 1) <= X.shared -> V & X.link -> Y.\n");
    rules.push_str("m2: mod[X].shared -> (V, 2) <= X.shared -> V & Y.link -> X.\n");
    (Program::parse(&rules).unwrap(), ob)
}

/// E13 — rule-parallel fixpoint: the dependency-component scheduler
/// (`core::deps`) runs independent same-stratum rules as separate
/// pool jobs and serializes non-commuting ones inside a bundle. On
/// every host, asserts ob' is bit-identical to serial at every width
/// and that the conflicting pair actually bundles; on hosts with ≥4
/// CPUs (full mode), additionally asserts ≥2× speedup at 4 threads.
pub fn e13_parallel(quick: bool) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (program, ob) = e13_workload(quick);

    let compiled = ruvo_core::CompiledProgram::compile(program.clone(), CyclePolicy::Reject)
        .expect("E13 workload compiles");
    let deps = compiled.deps();
    let components = deps.components().len();
    let mut out = format!(
        "host: {cpus} visible CPU(s)\nworkload: {} rules in {} dependency component(s) \
         ({} edge(s); the m1/m2 write-write pair is one bundle)\n\n",
        program.len(),
        components,
        deps.edges().len(),
    );
    assert_eq!(components, program.len() - 1, "exactly one two-rule bundle expected");

    let (serial, reference) = e12_measure(quick, &program, &ob, 0);
    let mut t =
        Table::new(&["threads", "wall (ms)", "scan wall (ms)", "component jobs", "speedup"]);
    t.row(&[
        "serial".to_string(),
        format!("{:.3}", serial.wall_ms),
        "—".to_string(),
        "—".to_string(),
        "1.00×".to_string(),
    ]);
    let mut sp4 = None;
    for threads in e12_threads(quick) {
        let (row, ob2) = e12_measure(quick, &program, &ob, threads);
        assert_eq!(ob2, reference, "rule-parallel ob' diverged at {threads} threads");
        let outcome = run_with(program.clone(), &ob, e12_config(threads));
        let par = outcome.stats().parallel;
        assert!(
            par.component_jobs > 0,
            "the m1/m2 component must be bundled at {threads} threads: {par:?}"
        );
        let speedup = serial.wall_ms / row.wall_ms.max(f64::EPSILON);
        if threads == 4 {
            sp4 = Some(speedup);
        }
        t.row(&[
            threads.to_string(),
            format!("{:.3}", row.wall_ms),
            format!("{:.3}", row.scan_wall_ms),
            par.component_jobs.to_string(),
            format!("{speedup:.2}×"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str("\nrule-parallel ob' bit-identical to serial at every width ✓\n");
    let sp4 = sp4.expect("sweep includes 4 threads");
    match e12_speedup_gate(quick, cpus) {
        Ok(()) => {
            assert!(sp4 >= 2.0, "rule-parallel speedup at 4 threads below 2x: {sp4:.2}");
            out.push_str(&format!("speedup gate: {sp4:.2}× at 4 threads (≥2× required) ✓\n"));
        }
        Err(why) => out
            .push_str(&format!("speedup gate: SKIPPED ({why}); measured {sp4:.2}× at 4 threads\n")),
    }
    out
}

// ----- E14: incremental checkpoints ----------------------------------

/// The E14 base: `objects` objects with two facts each (`balance` and
/// `kind`), so `A.balance -> B & B >= lo & B < hi` selects an exact
/// dirty set. With `clustered` the lowest balances all land in the
/// same version-table shards (walked shard by shard), modelling a
/// steady-state hot set; otherwise balances follow object order, so a
/// small dirty set scatters across every shard — the worst case for a
/// shard-granular delta.
fn e14_base(objects: usize, clustered: bool) -> ObjectBase {
    let vids: Vec<Vid> = (0..objects).map(|i| Vid::object(oid(&format!("o{i}")))).collect();
    let mut order: Vec<usize> = (0..objects).collect();
    if clustered {
        order.sort_by_key(|&i| (ruvo_obase::vid_shard(vids[i]), i));
    }
    let mut ob = ObjectBase::new();
    for (balance, &i) in order.iter().enumerate() {
        ob.insert(vids[i], sym("balance"), Args::new(vec![]), int(balance as i64));
        ob.insert(vids[i], sym("kind"), Args::new(vec![]), ruvo_term::Const::Sym(sym("live")));
    }
    ob
}

/// Bump every object whose balance lies in `[lo, hi)` far out of
/// range, so one sweep dirties exactly `hi - lo` objects and a later
/// sweep never re-selects them.
fn e14_dirty_rule(lo: i64, hi: i64) -> String {
    format!(
        "mod[A].balance -> (B, B2) <= A.balance -> B & B >= {lo} & B < {hi} & B2 = B + 1000000."
    )
}

fn e14_dirty_objects(quick: bool) -> usize {
    if quick {
        2_000
    } else {
        50_000
    }
}

/// One dirty-sweep cell: delta vs full checkpoint cost for the same
/// base with `dirty` objects modified since the chain's tip.
pub struct E14DirtyRow {
    /// Facts in the base.
    pub facts: usize,
    /// Objects modified since the last checkpoint.
    pub dirty: usize,
    /// `"clustered"` or `"scattered"` dirty-set layout.
    pub layout: &'static str,
    /// Version-table shards the delta carries.
    pub dirty_shards: u32,
    /// Delta append wall-clock, ms.
    pub delta_ms: f64,
    /// Delta payload bytes.
    pub delta_bytes: u64,
    /// Full rewrite wall-clock, ms (same state, forced full).
    pub full_ms: f64,
    /// Full payload bytes.
    pub full_bytes: u64,
    /// `full_ms / delta_ms`.
    pub speedup: f64,
}

fn e14_measure_dirty(objects: usize, dirty: usize, clustered: bool) -> E14DirtyRow {
    use ruvo_core::store::CheckpointOutcome;
    use ruvo_core::CheckpointPolicy;
    let layout = if clustered { "clustered" } else { "scattered" };
    let dir = e10_dir(&format!("e14-dirty-{objects}-{dirty}-{layout}"));
    let ob = e14_base(objects, clustered);
    let facts = ob.len();
    let mut db = Database::builder()
        .data_dir(&dir)
        .checkpoint_policy(CheckpointPolicy::never())
        .seed(ob)
        .open_dir()
        .unwrap();
    // Make sure the chain's base generation exists (the seeding open
    // writes it, in which case this is a no-op), then dirty exactly
    // `dirty` objects and append one delta on top of it.
    let base = db.checkpoint().unwrap();
    assert!(!matches!(base, CheckpointOutcome::Delta { .. }), "first checkpoint: {base}");
    db.apply_src(&e14_dirty_rule(0, dirty as i64)).unwrap();
    let (delta, delta_wall) = crate::time(|| db.checkpoint().unwrap());
    let CheckpointOutcome::Delta { bytes: delta_bytes, dirty_shards } = delta else {
        panic!("expected a delta generation, got {delta}")
    };
    // The recovered chain (full + delta) must be bit-identical to the
    // live head before any timing is trusted.
    let live = db.current().clone();
    drop(db);
    let reopened = Database::open_dir(&dir).unwrap();
    assert_eq!(*reopened.current(), live, "chain recovery diverged at dirty={dirty} ({layout})");
    // Full-rewrite cost of the *same* state, for the honest ratio.
    let mut db = reopened;
    let (full, full_wall) = crate::time(|| db.compact().unwrap());
    let CheckpointOutcome::Full { bytes: full_bytes } = full else {
        panic!("compaction must write a full generation, got {full}")
    };
    let (delta_ms, full_ms) = (delta_wall.as_secs_f64() * 1e3, full_wall.as_secs_f64() * 1e3);
    E14DirtyRow {
        facts,
        dirty,
        layout,
        dirty_shards,
        delta_ms,
        delta_bytes,
        full_ms,
        full_bytes,
        speedup: full_ms / delta_ms.max(f64::EPSILON),
    }
}

fn e14_dirty_cells(quick: bool) -> Vec<(usize, bool)> {
    let n = e14_dirty_objects(quick);
    vec![(1, true), (n / 100, true), (n / 100, false), (n / 10, false), (n, false)]
}

/// One reopen cell: recovery time for a full+delta chain vs the same
/// state compacted to a single full generation.
pub struct E14ReopenRow {
    /// Facts in the recovered base.
    pub facts: usize,
    /// Generations in the chain at reopen time.
    pub generations: usize,
    /// `Database::open_dir` wall-clock over the chain, ms.
    pub chain_reopen_ms: f64,
    /// `Database::open_dir` wall-clock after compaction, ms.
    pub full_reopen_ms: f64,
}

fn e14_reopen_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![500, 2_000]
    } else {
        vec![5_000, 20_000, 50_000]
    }
}

fn e14_measure_reopen(objects: usize) -> E14ReopenRow {
    use ruvo_core::CheckpointPolicy;
    let dir = e10_dir(&format!("e14-reopen-{objects}"));
    let mut db = Database::builder()
        .data_dir(&dir)
        .checkpoint_policy(CheckpointPolicy::never())
        // Clustered, so each 10-object bump dirties one shard and the
        // deltas stay far below the chain's compaction threshold.
        .seed(e14_base(objects, true))
        .open_dir()
        .unwrap();
    db.checkpoint().unwrap();
    for k in 0..3i64 {
        db.apply_src(&e14_dirty_rule(k * 10, k * 10 + 10)).unwrap();
        db.checkpoint().unwrap();
    }
    let live = db.current().clone();
    drop(db);
    let generations = ruvo_core::store::read_state(&dir)
        .unwrap()
        .checkpoint
        .expect("chain exists")
        .generations
        .len();
    assert!(generations >= 4, "expected a stacked chain, got {generations}");
    let (mut db, chain_wall) = crate::time(|| Database::open_dir(&dir).unwrap());
    assert_eq!(*db.current(), live, "chain recovery diverged at {objects} objects");
    db.compact().unwrap();
    drop(db);
    let (db, full_wall) = crate::time(|| Database::open_dir(&dir).unwrap());
    assert_eq!(*db.current(), live, "post-compaction recovery diverged");
    E14ReopenRow {
        facts: live.len(),
        generations,
        chain_reopen_ms: chain_wall.as_secs_f64() * 1e3,
        full_reopen_ms: full_wall.as_secs_f64() * 1e3,
    }
}

/// One serving-latency cell: commit latency distribution with
/// `fsync always`, with or without a background checkpoint running
/// every 16 commits.
pub struct E14ServeRow {
    /// Commits applied.
    pub commits: usize,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
    /// Worst commit latency, µs.
    pub max_us: f64,
    /// Background checkpoints that completed during the run.
    pub checkpoints: usize,
}

fn e14_serve_commits(quick: bool) -> usize {
    if quick {
        96
    } else {
        800
    }
}

fn e14_measure_serve(quick: bool, background: bool) -> E14ServeRow {
    use ruvo_core::{CheckpointPolicy, FsyncPolicy};
    use std::time::Instant;
    let objects = if quick { 500 } else { 20_000 };
    let commits = e14_serve_commits(quick);
    let dir = e10_dir(&format!("e14-serve-{background}"));
    // A sentinel with its own method name: the bump rule selects it
    // (and only it) without scanning the broad base's balance facts,
    // so each commit dirties one object while the background encoder
    // still has the whole base to persist.
    let mut ob = e14_base(objects, false);
    ob.insert(Vid::object(oid("acct")), sym("counter"), Args::new(vec![]), int(0));
    let db = Database::builder()
        .data_dir(&dir)
        .fsync(FsyncPolicy::Always)
        .checkpoint_policy(CheckpointPolicy::never())
        .seed(ob)
        .open_dir()
        .unwrap();
    let db = ServingDatabase::new(db);
    let bump = db.prepare("mod[A].counter -> (B, B2) <= A.counter -> B & B2 = B + 1.").unwrap();
    // Untimed warmup: fault in the WAL path and allocator before the
    // distribution is recorded.
    let warmup = 16;
    for _ in 0..warmup {
        db.apply(&bump).unwrap();
    }
    let mut latencies_us = Vec::with_capacity(commits);
    let mut checkpoints = 0usize;
    for i in 0..commits {
        if background && i % 16 == 0 {
            assert!(db.checkpoint_background().unwrap(), "durable db must start an encoder");
        }
        let t = Instant::now();
        db.apply(&bump).unwrap();
        latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
        checkpoints += db.take_checkpoint_completions().len();
    }
    if background {
        db.checkpoint_flush().unwrap();
        checkpoints += db.take_checkpoint_completions().len();
        assert!(checkpoints >= 1, "no background checkpoint completed");
    }
    let live = db.current();
    assert_eq!(
        live.lookup1(oid("acct"), "counter"),
        vec![int((warmup + commits) as i64)],
        "commit stream lost updates"
    );
    drop(db);
    let reopened = Database::open_dir(&dir).unwrap();
    assert_eq!(*reopened.current(), *live, "durable state diverged from the served head");
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| {
        latencies_us
            [((latencies_us.len() as f64 * p).ceil() as usize - 1).min(latencies_us.len() - 1)]
    };
    E14ServeRow {
        commits,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        max_us: *latencies_us.last().unwrap(),
        checkpoints,
    }
}

/// The p99 gate needs a core for the encoder thread and full-mode
/// sample counts to mean anything.
fn e14_p99_gate(quick: bool, cpus: usize) -> Result<(), String> {
    if quick {
        Err("quick mode".to_string())
    } else if cpus < 2 {
        Err(format!("host has {cpus} visible CPU(s), gate needs >= 2"))
    } else {
        Ok(())
    }
}

/// E14 — incremental checkpoints: (1) delta vs full checkpoint cost as
/// the dirty set grows, clustered vs scattered across version-table
/// shards; (2) chain reopen vs compacted reopen as the base grows;
/// (3) commit p50/p99 with a background checkpoint every 16 commits
/// against the no-checkpoint baseline. Every cell reopens its
/// directory and asserts the recovered state is bit-identical, so the
/// sweep doubles as the incremental-durability acceptance test.
pub fn e14_incremental(quick: bool) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = String::new();

    let objects = e14_dirty_objects(quick);
    let mut t = Table::new(&[
        "facts",
        "dirty objs",
        "layout",
        "dirty shards",
        "delta (ms)",
        "delta bytes",
        "full (ms)",
        "full bytes",
        "speedup",
    ]);
    let mut gate_row: Option<E14DirtyRow> = None;
    for (dirty, clustered) in e14_dirty_cells(quick) {
        let row = e14_measure_dirty(objects, dirty, clustered);
        t.row(&[
            row.facts.to_string(),
            row.dirty.to_string(),
            row.layout.into(),
            row.dirty_shards.to_string(),
            format!("{:.2}", row.delta_ms),
            row.delta_bytes.to_string(),
            format!("{:.2}", row.full_ms),
            row.full_bytes.to_string(),
            format!("{:.1}×", row.speedup),
        ]);
        if clustered && dirty == objects / 100 {
            gate_row = Some(row);
        }
    }
    out.push_str("Delta vs full checkpoint cost as the dirty set grows (the delta\n");
    out.push_str("unit is a version-table shard: a clustered hot set stays narrow,\n");
    out.push_str("a scattered one saturates all 16 shards and converges on full):\n\n");
    out.push_str(&t.render());
    let gate = gate_row.expect("sweep includes the 1% clustered row");
    // Payload incrementality is deterministic — assert it everywhere;
    // the wall-clock gate only where the base is big enough to
    // dominate the fsync floor.
    assert!(
        gate.delta_bytes * 4 <= gate.full_bytes,
        "1% clustered delta not incremental: {} vs {} bytes",
        gate.delta_bytes,
        gate.full_bytes
    );
    if !quick {
        assert!(
            gate.delta_bytes * 8 <= gate.full_bytes,
            "1% clustered delta payload too large: {} vs {} bytes",
            gate.delta_bytes,
            gate.full_bytes
        );
        assert!(
            gate.speedup >= 10.0,
            "steady-state delta checkpoint below 10x: {:.1}x at {} facts, 1% dirty",
            gate.speedup,
            gate.facts
        );
        out.push_str(&format!(
            "\nincremental gate: {:.1}× at {} facts / 1% clustered dirty (≥10× required) ✓\n",
            gate.speedup, gate.facts
        ));
    } else {
        out.push_str(&format!(
            "\nincremental gate: SKIPPED (quick mode); measured {:.1}× at 1% clustered dirty\n",
            gate.speedup
        ));
    }

    let mut t = Table::new(&["facts", "generations", "chain reopen (ms)", "compacted reopen (ms)"]);
    for objects in e14_reopen_sizes(quick) {
        let row = e14_measure_reopen(objects);
        t.row(&[
            row.facts.to_string(),
            row.generations.to_string(),
            format!("{:.1}", row.chain_reopen_ms),
            format!("{:.1}", row.full_reopen_ms),
        ]);
    }
    out.push_str("\nReopen time vs base size: recovering a full+3-delta chain\n");
    out.push_str("(shards decoded in parallel) against the same state compacted\n");
    out.push_str("to one full generation:\n\n");
    out.push_str(&t.render());

    let mut t =
        Table::new(&["checkpointing", "commits", "p50 (µs)", "p99 (µs)", "max (µs)", "completed"]);
    // The first serving pass in a process pays allocator/page-cache
    // warmup whichever mode it is — burn it off untimed.
    let _ = e14_measure_serve(quick, false);
    let baseline = e14_measure_serve(quick, false);
    let concurrent = e14_measure_serve(quick, true);
    for (name, row) in [("none (baseline)", &baseline), ("background / 16 commits", &concurrent)] {
        t.row(&[
            name.into(),
            row.commits.to_string(),
            format!("{:.0}", row.p50_us),
            format!("{:.0}", row.p99_us),
            format!("{:.0}", row.max_us),
            row.checkpoints.to_string(),
        ]);
    }
    out.push_str("\nCommit latency under `fsync always`, with and without background\n");
    out.push_str("checkpoints (the encode runs off-lock; commits only ever wait for\n");
    out.push_str("the O(shards) plan and install):\n\n");
    out.push_str(&t.render());
    let ratio = concurrent.p99_us / baseline.p99_us.max(f64::EPSILON);
    match e14_p99_gate(quick, cpus) {
        Ok(()) => {
            assert!(
                ratio <= 1.5,
                "background checkpointing inflated commit p99 {ratio:.2}x (limit 1.5x)"
            );
            out.push_str(&format!("\np99 gate: {ratio:.2}× vs baseline (≤1.5× required) ✓\n"));
        }
        Err(why) => out
            .push_str(&format!("\np99 gate: SKIPPED ({why}); measured {ratio:.2}× vs baseline\n")),
    }
    out.push_str(
        "\nEvery cell re-opened its directory and verified the recovered state\n\
         bit-identical to the served head — across full+delta chains, post-\n\
         compaction rewrites, and background-checkpoint races.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    //! Every experiment must run clean in quick mode — this is the
    //! acceptance gate for the reproduction (the assertions inside the
    //! experiment bodies encode the paper's stated outcomes).

    #[test]
    fn f2_trace() {
        let report = super::f2_enterprise_trace(true);
        assert!(report.contains("matches the paper"));
        assert!(report.contains("mod(phil)"));
        assert!(report.contains("del(mod(bob))"));
    }

    #[test]
    fn e1_quick() {
        let report = super::e1_salary_raise(true);
        assert!(report.contains("200"), "got:\n{report}");
    }

    #[test]
    fn e2_quick() {
        super::e2_enterprise(true);
    }

    #[test]
    fn e3_quick() {
        super::e3_hypothetical(true);
    }

    #[test]
    fn e4_quick() {
        super::e4_ancestors(true);
    }

    #[test]
    fn e5_quick() {
        let report = super::e5_stratify(true);
        assert_eq!(report.matches("✓").count(), 3, "three reject cases");
    }

    #[test]
    fn e6_quick() {
        assert!(super::e6_linearity(true).contains("detection"));
    }

    #[test]
    fn e7_quick() {
        super::e7_copy_overhead(true);
    }

    #[test]
    fn e8_quick() {
        let report = super::e8_vs_datalog(true);
        assert!(report.contains("correct ✓"), "ruvo is correct");
        assert!(report.contains("WRONG ✗"), "some baseline semantics is wrong");
    }

    #[test]
    fn f1_quick() {
        super::f1_chain_depth(true);
    }

    #[test]
    fn e9_quick() {
        let report = super::e9_vid_vars(true);
        assert!(report.contains("flagged"), "got:\n{report}");
    }

    #[test]
    fn a3_quick() {
        let report = super::a3_runtime_checks(true);
        assert!(report.contains("statically rejected"), "got:\n{report}");
    }

    #[test]
    fn a6_quick() {
        let report = super::a6_cow_clone(true);
        assert!(report.contains("clone cost ratio"), "got:\n{report}");
    }

    #[test]
    fn bench_json_is_well_formed() {
        let json = super::bench_json(true);
        // No serde in the workspace: check shape structurally.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"pr\": 10",
            "\"e14_incremental_checkpoints\"",
            "\"dirty_sweep\"",
            "\"incremental_gate\"",
            "\"chain_reopen_ms\"",
            "\"serve_p99\"",
            "\"p99_ratio\"",
            "\"recovered_bit_identical\": true",
            "\"e13_rule_parallel\"",
            "\"components\"",
            "\"component_jobs_2t\"",
            "\"speedup_4t\"",
            "\"e12_parallel_fixpoint\"",
            "\"delta_heavy\"",
            "\"bulk_load\"",
            "\"identical_results\": true",
            "\"speedup_gate\"",
            "\"read_stall_parallel_writer\"",
            "\"e11_demand_queries\"",
            "\"demand_ms\"",
            "\"speedup\"",
            "\"cpus\"",
            "\"e10_durability\"",
            "\"fsync\"",
            "\"commits_per_sec\"",
            "\"recovery\"",
            "\"recover_ms\"",
            "\"checkpoint_ms\"",
            "\"e8_concurrent_throughput\"",
            "\"reads_per_sec\"",
            "\"reader_scaling_1_to_8\"",
            "\"serving_vs_locked_8r\"",
            "\"e7\"",
            "\"sizes\"",
            "\"ratio\"",
            "\"a6\"",
            "\"clone_us\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn e12_quick() {
        let report = super::e12_parallel(true);
        assert!(report.contains("bit-identical to serial at every width ✓"), "got:\n{report}");
        assert!(report.contains("speedup gate:"), "got:\n{report}");
        assert!(report.contains("serving read stalls"), "got:\n{report}");
        // Quick mode never enforces wall-clock scaling.
        assert!(report.contains("SKIPPED"), "got:\n{report}");
    }

    #[test]
    fn e13_quick() {
        let report = super::e13_parallel(true);
        assert!(report.contains("dependency component(s)"), "got:\n{report}");
        assert!(report.contains("bit-identical to serial at every width ✓"), "got:\n{report}");
        assert!(report.contains("speedup gate:"), "got:\n{report}");
        // Quick mode never enforces wall-clock scaling.
        assert!(report.contains("SKIPPED"), "got:\n{report}");
    }

    #[test]
    fn e8c_quick() {
        let report = super::e8_concurrent_throughput(true);
        assert!(report.contains("reads/s"), "got:\n{report}");
        assert!(report.contains("serving vs coarse lock"), "got:\n{report}");
    }

    #[test]
    fn e11_quick() {
        let report = super::e11_demand(true);
        assert!(report.contains("speedup"), "got:\n{report}");
    }

    #[test]
    fn e14_quick() {
        let report = super::e14_incremental(true);
        assert!(report.contains("Delta vs full checkpoint cost"), "got:\n{report}");
        assert!(report.contains("Reopen time vs base size"), "got:\n{report}");
        assert!(report.contains("Commit latency"), "got:\n{report}");
        // Quick mode never enforces wall-clock gates.
        assert!(report.contains("SKIPPED"), "got:\n{report}");
    }

    #[test]
    fn e10_quick() {
        let report = super::e10_durability(true);
        assert!(report.contains("fsync"), "got:\n{report}");
        assert!(report.contains("Recovery time vs WAL length"), "got:\n{report}");
        assert!(report.contains("Checkpoint cost"), "got:\n{report}");
    }
}
