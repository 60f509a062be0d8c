//! Per-layer probes: each layer measured from outside, by timing calls
//! into its public functions on the workload's own base, programs and
//! goals. Spans inside the program are a later change; until then this
//! is where the time of a commit or a query is attributed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ruvo_core::check::{check, commutativity};
use ruvo_core::stratify::stratify;
use ruvo_core::tp::{apply_updates, collect_rule_planned};
use ruvo_core::{
    CheckpointOutcome, CheckpointPolicy, CompiledProgram, CyclePolicy, Database, DurabilitySink,
    EvalStats, Fired, FiredSet, FsyncPolicy, IndexPlan, QueryMode, RuleDepGraph, ServingDatabase,
    Session, WalProgram, WalStore,
};
use ruvo_lang::{Goal, Program};
use ruvo_obase::{snapshot, Args, ObjectBase};
use ruvo_term::{int, oid, sym, Const, Vid};

use crate::fresh_dir;
use crate::stats::median;
use crate::workloads::{LayerInputs, Recorder};

/// Every per-layer metric with its unit, in report order. The prefix
/// names the module measured.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_us", "us"),
    ("lang.goal_parse_us", "us"),
    ("stratify.us", "us"),
    ("plan.us", "us"),
    ("deps.us", "us"),
    ("check.us", "us"),
    ("database.prepare_us", "us"),
    ("database.prepare_self_us", "us"),
    ("session.prepared_work_us", "us"),
    ("obase.ensure_exists_ms", "ms"),
    ("matcher.round1_scan_ms", "ms"),
    ("matcher.round1_matches", "count"),
    ("matcher.new_fired_ratio", "ratio"),
    ("tp.dedup_us", "us"),
    ("tp.apply_ms", "ms"),
    ("tp.touched_versions", "count"),
    ("tp.facts_copied", "count"),
    ("engine.evaluate_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.rule_evaluations", "count"),
    ("engine.rule_evaluations_seeded", "count"),
    ("engine.rule_evaluations_skipped", "count"),
    ("engine.fired_updates", "count"),
    ("engine.versions_created", "count"),
    ("engine.facts_copied", "count"),
    ("engine.extract_ob_ms", "ms"),
    ("session.commit_us", "us"),
    ("obase.unshared_shards_per_commit", "count"),
    ("serve.snapshot_ns", "ns"),
    ("serve.apply_overhead_us", "us"),
    ("serve.batch8_us_per_commit", "us"),
    ("serve.apply_top3_ms", "ms"),
    ("store.append_us", "us"),
    ("store.append_nosync_us", "us"),
    ("store.fsync_us", "us"),
    ("store.wal_bytes_per_commit", "bytes"),
    ("store.checkpoint_full_ms", "ms"),
    ("store.checkpoint_delta_ms", "ms"),
    ("store.checkpoint_delta_bytes", "bytes"),
    ("store.read_state_ms", "ms"),
    ("store.replay_us_per_record", "us"),
    ("obase.clone_us", "us"),
    ("obase.first_write_us", "us"),
    ("obase.lookup_ns", "ns"),
    ("obase.snapshot_encode_ms", "ms"),
    ("obase.snapshot_decode_ms", "ms"),
    ("obase.bytes_per_fact", "bytes"),
    ("query.plan_us", "us"),
    ("query.run_us", "us"),
    ("query.seeded_share", "ratio"),
    ("query.kept_rules", "count"),
    ("pool.speedup_x", "x"),
    ("pool.scan_wall_ms", "ms"),
    ("pool.apply_wall_ms", "ms"),
    ("pool.scan_subtasks", "count"),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "bytes"),
    ("host.spin_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// Median of `f`'s timings, in seconds: `f` sets up untimed and returns
/// the time of the call under test. Repeats until `BUDGET` is spent,
/// at least `MIN_REPS` times so there is a median to take.
fn median_secs(mut f: impl FnMut() -> Duration) -> f64 {
    const BUDGET: Duration = Duration::from_millis(150);
    const MIN_REPS: usize = 3;
    const MAX_REPS: usize = 2000;
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (started.elapsed() < BUDGET && samples.len() < MAX_REPS) {
        samples.push(f().as_secs_f64());
    }
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let result = std::hint::black_box(f());
    (result, start.elapsed())
}

/// The engine's logical counters, which must repeat exactly.
fn counts(stats: &EvalStats) -> [usize; 7] {
    [
        stats.rounds,
        stats.rule_evaluations,
        stats.rule_evaluations_seeded,
        stats.rule_evaluations_skipped,
        stats.fired_updates,
        stats.versions_created,
        stats.facts_copied,
    ]
}

/// Run every probe on `inputs`. Failures (a program that does not
/// prepare, a wrong answer, counts that differ between two identical
/// evaluations) are recorded in `rec`.
pub fn probe(inputs: &LayerInputs, rec: &mut Recorder) -> Values {
    let mut out = Values::new();
    front_end(inputs, &mut out);
    object_base(inputs, &mut out);
    evaluation(inputs, rec, &mut out);
    serving(inputs, &mut out);
    storage(inputs, rec, &mut out);
    queries(inputs, rec, &mut out);
    out
}

/// `lang` and the prepare-time analyses of `core`, per program text.
fn front_end(inputs: &LayerInputs, out: &mut Values) {
    let texts = &inputs.programs;
    let mut next = 0;
    let mut text = || {
        next += 1;
        texts[(next - 1) % texts.len()].as_str()
    };
    let parse = |src: &str| Program::parse(src).expect("workload programs parse");

    let parse_s = median_secs(|| timed(|| parse(text())).1);
    let stratify_s = median_secs(|| {
        let program = parse(text());
        timed(|| stratify(&program)).1
    });
    let plan_s = median_secs(|| {
        let program = parse(text());
        timed(|| IndexPlan::of(&program)).1
    });
    // The dependency graph takes the commutativity matrix as input;
    // `prepare` computes both, so both are timed here.
    let deps_s = median_secs(|| {
        let program = parse(text());
        let strat = stratify(&program).expect("workload programs stratify");
        timed(|| RuleDepGraph::build(&program, &strat, commutativity(&program, &strat))).1
    });
    let check_s = median_secs(|| {
        let compiled = CompiledProgram::compile(parse(text()), CyclePolicy::Reject)
            .expect("workload programs compile");
        timed(|| check(&compiled)).1
    });
    let db = Database::open(ObjectBase::new());
    let prepare_s = median_secs(|| {
        let src = text();
        timed(|| db.prepare(src)).1
    });
    let goal_s = {
        let mut next = 0;
        median_secs(|| {
            next += 1;
            let src = &inputs.goals[(next - 1) % inputs.goals.len()].0;
            timed(|| Goal::parse(src)).1
        })
    };

    out.insert("lang.parse_us", parse_s * 1e6);
    out.insert("lang.goal_parse_us", goal_s * 1e6);
    out.insert("stratify.us", stratify_s * 1e6);
    out.insert("plan.us", plan_s * 1e6);
    out.insert("deps.us", deps_s * 1e6);
    out.insert("check.us", check_s * 1e6);
    out.insert("database.prepare_us", prepare_s * 1e6);
    out.insert(
        "database.prepare_self_us",
        (prepare_s - parse_s - stratify_s - plan_s - deps_s - check_s) * 1e6,
    );
}

/// `obase`: copy-on-write clones, point reads, and the snapshot codec,
/// on the workload's base.
fn object_base(inputs: &LayerInputs, out: &mut Values) {
    let base = &inputs.base;
    out.insert("obase.clone_us", median_secs(|| timed(|| base.clone()).1) * 1e6);
    // The first write to a fresh clone unshares one shard per index.
    let probe_object = Vid::object(oid("benchmark-probe"));
    out.insert(
        "obase.first_write_us",
        median_secs(|| {
            let mut copy = base.clone();
            timed(|| copy.insert(probe_object, sym("probe"), Args::empty(), int(1))).1
        }) * 1e6,
    );
    out.insert(
        "obase.ensure_exists_ms",
        median_secs(|| {
            let mut copy = base.clone();
            timed(|| copy.ensure_exists()).1
        }) * 1e3,
    );

    // Point reads over every object.
    let objects: Vec<Const> = base.objects().collect();
    let method = inputs.lookup_method;
    out.insert(
        "obase.lookup_ns",
        median_secs(|| {
            let (_, took) = timed(|| {
                for &o in &objects {
                    std::hint::black_box(base.lookup1(o, method));
                }
            });
            took / objects.len() as u32
        }) * 1e9,
    );

    let bytes = snapshot::write(base);
    out.insert("obase.snapshot_encode_ms", median_secs(|| timed(|| snapshot::write(base)).1) * 1e3);
    out.insert(
        "obase.snapshot_decode_ms",
        median_secs(|| timed(|| snapshot::read(&bytes).expect("own snapshot decodes")).1) * 1e3,
    );
    out.insert("obase.bytes_per_fact", bytes.len() as f64 / base.len() as f64);
}

/// `matcher`, `tp`, `engine`, `session` and the worker pool, on the
/// workload's first program.
fn evaluation(inputs: &LayerInputs, rec: &mut Recorder, out: &mut Values) {
    let db = Database::open(inputs.apply_base.clone());
    let text = inputs.programs[0].as_str();
    let program = Program::parse(text).expect("workload programs parse");
    let prepared = db.prepare(text).expect("workload programs prepare");
    let index_plan = IndexPlan::of(&program);
    let stratum0 = prepared.stratification().strata[0].clone();

    drop(db.session().prepared_work());
    out.insert(
        "session.prepared_work_us",
        median_secs(|| timed(|| db.session().prepared_work()).1) * 1e6,
    );

    // Round 1 of the lowest stratum, as the engine runs it: scan every
    // rule, drop duplicates, apply the delta.
    let work = db.session().prepared_work();
    let scan = || {
        let mut fired = Vec::new();
        for &r in &stratum0 {
            collect_rule_planned(&work, &program.rules[r], &index_plan.rules[r], &mut fired);
        }
        fired
    };
    out.insert("matcher.round1_scan_ms", median_secs(|| timed(scan).1) * 1e3);
    let matches = scan();
    let dedup = |matches: Vec<Fired>| {
        let mut seen = FiredSet::new();
        matches.into_iter().filter(|f| seen.insert(f.clone())).collect::<Vec<Fired>>()
    };
    out.insert(
        "tp.dedup_us",
        median_secs(|| {
            let matches = matches.clone();
            timed(|| dedup(matches)).1
        }) * 1e6,
    );
    let delta = dedup(matches.clone());
    out.insert("matcher.round1_matches", matches.len() as f64);
    out.insert("matcher.new_fired_ratio", delta.len() as f64 / matches.len().max(1) as f64);
    out.insert(
        "tp.apply_ms",
        median_secs(|| {
            let mut copy = work.clone();
            timed(|| apply_updates(&mut copy, &delta)).1
        }) * 1e3,
    );
    let report = apply_updates(&mut work.clone(), &delta);
    out.insert("tp.touched_versions", report.touched.len() as f64);
    out.insert("tp.facts_copied", report.facts_copied as f64);

    // The whole evaluation, twice at least: its counters must repeat.
    let evaluate = |db: &Database| db.evaluate(&prepared).expect("workload programs evaluate");
    let outcome = evaluate(&db);
    let serial_s = median_secs(|| {
        let (again, took) = timed(|| evaluate(&db));
        if counts(again.stats()) != counts(outcome.stats()) {
            rec.fail(1, || "engine counters differ between two evaluations of one input".into());
        }
        took
    });
    rec.attempted += 1;
    out.insert("engine.evaluate_ms", serial_s * 1e3);
    for (name, count) in [
        "engine.rounds",
        "engine.rule_evaluations",
        "engine.rule_evaluations_seeded",
        "engine.rule_evaluations_skipped",
        "engine.fired_updates",
        "engine.versions_created",
        "engine.facts_copied",
    ]
    .into_iter()
    .zip(counts(outcome.stats()))
    {
        out.insert(name, count as f64);
    }

    out.insert(
        "engine.extract_ob_ms",
        median_secs(|| timed(|| outcome.try_new_object_base()).1) * 1e3,
    );
    let mut unshared = 0;
    out.insert(
        "session.commit_us",
        median_secs(|| {
            let mut session = Session::new(inputs.apply_base.clone());
            let before = session.current_shared();
            let outcome = outcome.clone();
            let (_, took) = timed(|| session.commit(outcome).map(|_| ()));
            unshared = session.current().cow_stats(&before).unshared_shards();
            took
        }) * 1e6,
    );
    out.insert("obase.unshared_shards_per_commit", unshared as f64);

    // The same evaluation on the worker pool, one worker per hardware
    // thread. The default configuration is serial; this row exists so
    // the pool's keep-or-cut decision has a number.
    let pooled = Database::builder()
        .parallel(true)
        .threads(crate::host::nproc())
        .open(inputs.apply_base.clone());
    drop(pooled.session().prepared_work());
    let parallel = evaluate(&pooled).stats().parallel;
    let pooled_s = median_secs(|| timed(|| evaluate(&pooled)).1);
    out.insert("pool.speedup_x", serial_s / pooled_s);
    out.insert("pool.scan_wall_ms", parallel.scan_wall.as_secs_f64() * 1e3);
    out.insert("pool.apply_wall_ms", parallel.apply_wall.as_secs_f64() * 1e3);
    out.insert("pool.scan_subtasks", parallel.scan_subtasks as f64);
}

/// `serve`: what the serving handle adds on top of `Database`.
fn serving(inputs: &LayerInputs, out: &mut Values) {
    let db = Database::open(inputs.apply_base.clone());
    drop(db.session().prepared_work());
    let prepared: Vec<_> = inputs
        .programs
        .iter()
        .take(8)
        .map(|src| db.prepare(src).expect("workload programs prepare"))
        .collect();

    let serving = ServingDatabase::new(db.clone());
    out.insert(
        "serve.snapshot_ns",
        median_secs(|| {
            const CALLS: u32 = 1000;
            let (_, took) = timed(|| {
                for _ in 0..CALLS {
                    std::hint::black_box(serving.snapshot());
                }
            });
            took / CALLS
        }) * 1e9,
    );

    // One program on one state, through each handle.
    let direct_s = median_secs(|| {
        let mut db = db.clone();
        timed(|| db.apply(&prepared[0]).map(|_| ())).1
    });
    let served_s = median_secs(|| {
        let serving = ServingDatabase::new(db.clone());
        timed(|| serving.apply(&prepared[0]).map(|_| ())).1
    });
    out.insert("serve.apply_overhead_us", (served_s - direct_s) * 1e6);

    // Eight programs as one group-commit batch (the first eight of the
    // stream; a workload with one program applies it eight times over).
    let batch: Vec<_> = (0..8).map(|i| &prepared[i % prepared.len()]).collect();
    out.insert(
        "serve.batch8_us_per_commit",
        median_secs(|| {
            let serving = ServingDatabase::new(db.clone());
            timed(|| serving.apply_batch(&batch)).1 / 8
        }) * 1e6,
    );
}

/// `store`: a stand-alone `WalStore` fed the workload's programs as
/// records, then a durable database logged, read back and replayed.
fn storage(inputs: &LayerInputs, rec: &mut Recorder, out: &mut Values) {
    let base = &inputs.apply_base;
    let entry = |src: &str| WalProgram { cycles: CyclePolicy::Reject, source: src.into() };

    // Appends under each flush policy; automatic checkpoints off so an
    // append is only an append.
    let mut append_us = [0.0; 2];
    let mut full_ms = 0.0;
    for (slot, fsync) in [FsyncPolicy::Always, FsyncPolicy::Never].into_iter().enumerate() {
        let dir = fresh_dir("store");
        let mut store = WalStore::open(&dir, fsync, CheckpointPolicy::never())
            .expect("a fresh directory opens")
            .store;
        // A store's first checkpoint writes the whole base.
        let (first, took) = timed(|| store.checkpoint(base));
        if slot == 0 {
            full_ms = took.as_secs_f64() * 1e3;
            if !matches!(first, Ok(CheckpointOutcome::Full { .. })) {
                rec.fail(1, || format!("store: first checkpoint was {first:?}, not a full one"));
            }
        }
        let mut next = 0;
        let mut records = 0u64;
        append_us[slot] = median_secs(|| {
            next += 1;
            records += 1;
            let batch = [entry(&inputs.programs[(next - 1) % inputs.programs.len()])];
            timed(|| store.append_batch(&batch, base).expect("append succeeds")).1
        }) * 1e6;
        if slot == 0 {
            out.insert("store.wal_bytes_per_commit", store.wal_bytes() as f64 / records as f64);
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.insert("store.checkpoint_full_ms", full_ms);
    out.insert("store.append_us", append_us[0]);
    out.insert("store.append_nosync_us", append_us[1]);
    out.insert("store.fsync_us", append_us[0] - append_us[1]);

    // A durable database with the first records of the stream in its
    // log: read the directory, replay it, then checkpoint what the
    // records dirtied.
    let dir = fresh_dir("replay");
    let records = inputs.store_records.min(inputs.programs.len());
    let logged = (|| -> Result<ObjectBase, ruvo_core::Error> {
        let mut db = Database::builder()
            .data_dir(&dir)
            .checkpoint_policy(CheckpointPolicy::never())
            .seed(base.clone())
            .open_dir()?;
        for src in &inputs.programs[..records] {
            db.apply_src(src)?;
        }
        Ok(db.current().clone())
    })();
    rec.attempted += 1;
    match logged {
        Err(e) => rec.fail(1, || format!("store: logging the stream failed: {e}")),
        Ok(head) => {
            let read_s = median_secs(|| {
                timed(|| ruvo_core::store::read_state(&dir).map(|s| s.records.len())).1
            });
            let (reopened, open_took) = timed(|| {
                Database::builder()
                    .data_dir(&dir)
                    .checkpoint_policy(CheckpointPolicy::never())
                    .open_dir()
            });
            out.insert("store.read_state_ms", read_s * 1e3);
            out.insert(
                "store.replay_us_per_record",
                (open_took.as_secs_f64() - read_s) * 1e6 / records as f64,
            );
            match reopened {
                Ok(mut db) if *db.current() == head => {
                    let (outcome, took) = timed(|| db.checkpoint());
                    out.insert("store.checkpoint_delta_ms", took.as_secs_f64() * 1e3);
                    let bytes = match outcome {
                        Ok(
                            CheckpointOutcome::Delta { bytes, .. }
                            | CheckpointOutcome::Full { bytes },
                        ) => bytes,
                        _ => 0,
                    };
                    out.insert("store.checkpoint_delta_bytes", bytes as f64);
                }
                Ok(_) => rec.fail(1, || "store: replayed base differs from the logged head".into()),
                Err(e) => rec.fail(1, || format!("store: replay failed: {e}")),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `query`: the demand rewrite and its execution, per goal.
fn queries(inputs: &LayerInputs, rec: &mut Recorder, out: &mut Values) {
    let db = Database::open(inputs.base.clone());
    let prepared = db.prepare(&inputs.query_program).expect("query program prepares");
    drop(db.session().prepared_work());
    let goal = |i: usize| Goal::parse(&inputs.goals[i].0).expect("workload goals parse");

    let (mut seeded, mut kept) = (0usize, 0usize);
    for i in 0..inputs.goals.len() {
        let plan = prepared.query_plan(goal(i));
        seeded += usize::from(plan.mode() == QueryMode::Seeded);
        kept += plan.kept_rules().len();
        rec.attempted += 1;
        match db.run_query_plan(&plan) {
            Ok(answers) if answers.rows == inputs.goals[i].1 => {}
            Ok(_) => rec.fail(1, || format!("query: wrong answer to {}", inputs.goals[i].0)),
            Err(e) => rec.fail(1, || format!("query: {} failed: {e}", inputs.goals[i].0)),
        }
    }
    out.insert("query.seeded_share", seeded as f64 / inputs.goals.len() as f64);
    out.insert("query.kept_rules", kept as f64 / inputs.goals.len() as f64);

    let mut next = 0;
    out.insert(
        "query.plan_us",
        median_secs(|| {
            next += 1;
            let goal = goal((next - 1) % inputs.goals.len());
            timed(|| prepared.query_plan(goal)).1
        }) * 1e6,
    );
    let mut next = 0;
    out.insert(
        "query.run_us",
        median_secs(|| {
            next += 1;
            let plan = prepared.query_plan(goal((next - 1) % inputs.goals.len()));
            timed(|| db.run_query_plan(&plan).map(|a| a.rows.len())).1
        }) * 1e6,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Scale};

    #[test]
    fn probes_fill_every_metric_they_own_for_every_workload() {
        // The traced run adds the rest (allocation counts, the host
        // kernel, the trace's own accounting, the slowest stream ops).
        let from_the_run = [
            "alloc.count_per_op",
            "alloc.bytes_per_op",
            "host.spin_ms",
            "trace.overhead_pct",
            "trace.unattributed_pct",
            "serve.apply_top3_ms",
        ];
        for name in workloads::NAMES {
            let w = workloads::setup(name, 2, Scale::Smoke).unwrap();
            let mut rec = Recorder::default();
            let values = probe(&w.layer_inputs(), &mut rec);
            assert_eq!(rec.failed, 0, "{name}: {:?}", rec.failures);
            for (metric, _) in PER_LAYER {
                assert!(
                    values.contains_key(metric) || from_the_run.contains(metric),
                    "{name}: no value for {metric}"
                );
            }
            for (metric, value) in &values {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                assert!(PER_LAYER.iter().any(|(m, _)| m == metric), "{metric} is not declared");
            }
        }
    }
}
