//! `ruvo` — command-line driver for update-programs.
//!
//! ```text
//! ruvo check   <program.ruvo> [--json]        static analysis: validate,
//!                                              stratify, lint (conflicts,
//!                                              dead rules, cycle policy)
//!     --deps          rule dependency analysis: read/write sets,
//!                     typed edges, advisory lints
//!     --dot           with --deps: emit the dependency graph as DOT
//!     --deny          exit non-zero on warnings too (CI parity with
//!                     DatabaseBuilder::deny_lints)
//! ruvo explain <program.ruvo>                 stratification constraints
//! ruvo fmt     <program.ruvo>                 pretty-print
//! ruvo run     <program.ruvo> <base.ob>       evaluate and print ob′
//!     --result        print result(P) (all versions) instead of ob′
//!     --stats         print evaluation statistics
//!     --trace         print per-stratum and per-round traces
//!     --dynamic       accept statically non-stratifiable programs
//!                     under the runtime stability check (§6 extension)
//! ruvo serve   <base.ob> <program.ruvo>       concurrent serving demo
//!     --readers N     reader threads (default 4)
//!     --commits K     writer transactions (default 50)
//!     --data-dir D    serve durably: WAL + checkpoints under D
//!                     (recovers D if it already holds a database —
//!                     the base file then only seeds a fresh D)
//!     --ack-file F    append one line per acknowledged commit
//!                     (crash-test hook)
//!     (durable serves run incremental checkpoints on a background
//!     thread and log each completion to stderr)
//! ruvo recover <data-dir>                      checkpoint/WAL stats +
//!                                              dry-run recovery report
//!     --compact       then fold the checkpoint chain into one fresh
//!                     full generation (modifies the directory)
//! ```

mod repl;

use std::process::ExitCode;

use ruvo_core::store;
use ruvo_core::{CyclePolicy, Database};
use ruvo_lang::Program;
use ruvo_obase::ObjectBase;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ruvo check   <program.ruvo> [--json] [--deps] [--dot] [--deny]\n  \
         ruvo explain <program.ruvo>\n  \
         ruvo fmt     <program.ruvo>\n  ruvo run     <program.ruvo> <base.ob> \
         [--result] [--stats] [--trace] [--dynamic]\n  \
         ruvo serve   <base.ob> <program.ruvo> [--readers N] [--commits K] \
         [--data-dir D] [--ack-file F]\n  \
         ruvo recover <data-dir> [--compact]\n  \
         ruvo repl    [base]\n  ruvo convert <in> <out>   (text ↔ .snap snapshot)"
    );
    ExitCode::from(2)
}

fn read(path: &str) -> Result<String, ExitCode> {
    std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn load_program(path: &str) -> Result<Program, ExitCode> {
    let src = read(path)?;
    Program::parse(&src).map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    match command.as_str() {
        "check" => {
            let mut opts = CheckOpts::default();
            let mut path = None;
            for arg in &args[1..] {
                match arg.as_str() {
                    "--json" => opts.json = true,
                    "--deps" => opts.deps = true,
                    "--dot" => {
                        // DOT is a dependency-graph rendering, so
                        // asking for it asks for the analysis too.
                        opts.deps = true;
                        opts.dot = true;
                    }
                    "--deny" => opts.deny = true,
                    p if path.is_none() && !p.starts_with("--") => path = Some(p),
                    other => {
                        eprintln!("error: unknown argument {other}");
                        return usage();
                    }
                }
            }
            let Some(path) = path else { return usage() };
            let src = match read(path) {
                Ok(src) => src,
                Err(code) => return code,
            };
            check_command(path, &src, opts)
        }
        "explain" => {
            let Some(path) = args.get(1) else { return usage() };
            let program = match load_program(path) {
                Ok(p) => p,
                Err(code) => return code,
            };
            match Database::default().prepare_program(program) {
                Ok(prepared) => {
                    let strat = prepared.stratification();
                    println!("stratification: {strat}");
                    println!("constraints:");
                    for e in &strat.edges {
                        println!(
                            "  {} {} {}   via condition {}",
                            strat.rule_names[e.from],
                            if e.strict { "<" } else { "=<" },
                            strat.rule_names[e.to],
                            e.condition
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "fmt" => {
            let Some(path) = args.get(1) else { return usage() };
            match load_program(path) {
                Ok(p) => {
                    print!("{p}");
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        "run" => {
            let (Some(ppath), Some(obpath)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let mut flags: Vec<&str> = Vec::new();
            for arg in args[3..].iter().map(String::as_str) {
                match arg {
                    "--result" | "--stats" | "--trace" | "--dynamic" => flags.push(arg),
                    unknown => {
                        eprintln!("error: unknown flag {unknown}");
                        return usage();
                    }
                }
            }
            let program = match load_program(ppath) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let ob = match read(obpath) {
                Ok(src) => match ObjectBase::parse(&src) {
                    Ok(ob) => ob,
                    Err(e) => {
                        eprintln!("error: {obpath}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                Err(code) => return code,
            };
            let mut db = Database::builder()
                .cycle_policy(if flags.contains(&"--dynamic") {
                    CyclePolicy::RuntimeStability
                } else {
                    CyclePolicy::Reject
                })
                .open(ob);
            let prepared = match db.prepare_program(program) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // --result inspects result(P) without extracting ob′, so it
            // must not hit the commit gate: a dry-run `evaluate` keeps
            // the result of a branching seeded base printable.
            let show_result = flags.contains(&"--result");
            let outcome = if show_result {
                match db.evaluate(&prepared) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                match db.apply(&prepared) {
                    Ok(txn) => txn.outcome.clone(),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            if flags.contains(&"--trace") {
                eprintln!("stratification: {}", outcome.stratification());
                for st in outcome.stratum_traces() {
                    eprintln!("  {st}");
                    for rt in outcome.round_traces().iter().filter(|rt| rt.stratum == st.stratum) {
                        eprintln!("    {rt}");
                    }
                }
            }
            if show_result {
                print!("{}", outcome.result());
            } else {
                print!("{}", db.current());
            }
            if flags.contains(&"--stats") {
                eprintln!("stats: {}", outcome.stats());
            }
            ExitCode::SUCCESS
        }
        "repl" => {
            let initial = match args.get(1) {
                Some(path) => match repl::load_base(path) {
                    Ok(ob) => Some(ob),
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            match repl::run(stdin.lock(), &mut stdout, initial) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "convert" => {
            let (Some(input), Some(output)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            match repl::load_base(input).and_then(|ob| repl::save_base(&ob, output)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "serve" => {
            let (Some(obpath), Some(ppath)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let mut readers = 4usize;
            let mut commits = 50usize;
            let mut data_dir: Option<String> = None;
            let mut ack_file: Option<String> = None;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                let count =
                    |v: Option<&String>| v.and_then(|s| s.parse::<usize>().ok()).filter(|&n| n > 0);
                let bad = |flag: &str| {
                    eprintln!("error: bad flag/value near {flag}");
                    usage()
                };
                match flag.as_str() {
                    "--readers" => match count(rest.next()) {
                        Some(n) => readers = n,
                        None => return bad(flag),
                    },
                    "--commits" => match count(rest.next()) {
                        Some(n) => commits = n,
                        None => return bad(flag),
                    },
                    "--data-dir" => match rest.next() {
                        Some(d) => data_dir = Some(d.clone()),
                        None => return bad(flag),
                    },
                    "--ack-file" => match rest.next() {
                        Some(f) => ack_file = Some(f.clone()),
                        None => return bad(flag),
                    },
                    _ => return bad(flag),
                }
            }
            let program = match load_program(ppath) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let ob = match repl::load_base(obpath) {
                Ok(ob) => ob,
                Err(e) => {
                    eprintln!("error: {obpath}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // With --data-dir the base file only seeds a fresh
            // directory; an existing directory recovers and wins.
            let db = match &data_dir {
                Some(dir) => match Database::builder().data_dir(dir).seed(ob).open_dir() {
                    Ok(db) => {
                        eprintln!("data dir {dir}: {} facts after recovery", db.current().len());
                        db
                    }
                    Err(e) => {
                        eprintln!("error: {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => Database::open(ob),
            };
            match serve_demo(db, program, readers, commits, ack_file.as_deref()) {
                Ok(report) => {
                    print!("{report}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "recover" => {
            let Some(dir) = args.get(1) else { return usage() };
            let compact = match args.get(2).map(String::as_str) {
                None => false,
                Some("--compact") => true,
                Some(flag) => {
                    eprintln!("error: bad flag {flag}");
                    return usage();
                }
            };
            match recover_report(std::path::Path::new(dir)) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("error: {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if compact {
                // Offline chain compaction: recover the directory for
                // real, then rewrite the chain as one full generation.
                match Database::builder().data_dir(dir).open_dir().and_then(|mut db| {
                    let outcome = db.compact()?;
                    Ok((outcome, db.len()))
                }) {
                    Ok((outcome, txns)) => {
                        println!("compacted: {outcome} at {txns} transaction(s)");
                    }
                    Err(e) => {
                        eprintln!("error: {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Flags accepted by `ruvo check` (beyond the program path).
#[derive(Clone, Copy, Default)]
struct CheckOpts {
    /// Emit one JSON object instead of rustc-style text.
    json: bool,
    /// Include the rule dependency analysis: read/write sets, typed
    /// edges, and the advisory lints.
    deps: bool,
    /// With `deps`: print the dependency graph as Graphviz DOT on
    /// stdout (text mode only; `--json` embeds the graph instead).
    dot: bool,
    /// Treat warnings as fatal for the exit code (the CLI analogue of
    /// [`ruvo_core::DatabaseBuilder::deny_lints`]).
    deny: bool,
}

/// `ruvo check`: run the full static-analysis pass over one program
/// and print rustc-style diagnostics (or a JSON report with `--json`).
/// Exits with failure exactly when an error-severity diagnostic —
/// syntax, validation, safety, or a denied lint — rejects the program
/// (with `--deny`, warnings reject it too).
fn check_command(path: &str, src: &str, opts: CheckOpts) -> ExitCode {
    use ruvo_core::check;
    use ruvo_lang::analysis;

    let report = check::check_source(src, CyclePolicy::Reject);
    let (errors, warnings) = report.diagnostics.iter().fold((0usize, 0usize), |(e, w), d| {
        if d.is_error() {
            (e + 1, w)
        } else {
            (e, w + 1)
        }
    });

    if opts.json {
        let mut out = String::from("{");
        out.push_str(&format!("\"file\":\"{}\",", analysis::json_escape(path)));
        match &report.compiled {
            Some((compiled, deps)) => {
                let strat = compiled.stratification();
                out.push_str(&format!(
                    "\"rules\":{},\"strata\":{},\"all_commute\":{},",
                    compiled.program().len(),
                    strat.len(),
                    deps.commutativity().all_commute()
                ));
            }
            None => out.push_str("\"rules\":null,\"strata\":null,\"all_commute\":null,"),
        }
        out.push_str(&format!(
            "\"errors\":{errors},\"warnings\":{warnings},\"diagnostics\":{}",
            analysis::json_array(&report.diagnostics)
        ));
        if opts.deps {
            out.push_str(&format!(",\"advisories\":{}", analysis::json_array(&report.advisories)));
            match &report.compiled {
                Some((compiled, deps)) => {
                    out.push_str(&format!(",\"deps\":{}", deps.to_json(compiled.program())))
                }
                None => out.push_str(",\"deps\":null"),
            }
        }
        out.push('}');
        println!("{out}");
    } else if opts.dot {
        // DOT mode prints only the graph on stdout so it pipes
        // straight into `dot -Tsvg`; diagnostics still go to stderr.
        match &report.compiled {
            Some((compiled, deps)) => print!("{}", deps.to_dot(compiled.program())),
            None => eprintln!("error: {path}: program did not compile; no dependency graph"),
        }
        let rendered = analysis::render_all(&report.diagnostics, Some(src), Some(path));
        if !rendered.is_empty() {
            eprint!("{rendered}");
        }
        if report.compiled.is_none() {
            return ExitCode::FAILURE;
        }
    } else {
        if let Some((compiled, deps)) = &report.compiled {
            let strat = compiled.stratification();
            println!("{path}: {} rules, {} strata", compiled.program().len(), strat.len());
            println!("stratification: {strat}");
            let matrix = deps.commutativity();
            if matrix.all_commute() {
                println!("commutativity: all same-stratum pairs commute");
            } else {
                let conflicts = matrix.pairs_with(check::Commutativity::Conflicts).len();
                let unknown = matrix.pairs_with(check::Commutativity::Unknown).len();
                println!("commutativity: {conflicts} conflicting, {unknown} undecided pair(s)");
            }
            if opts.deps {
                print!("{}", deps.to_text(compiled.program()));
            }
        }
        let rendered = analysis::render_all(&report.diagnostics, Some(src), Some(path));
        if !rendered.is_empty() {
            eprint!("{rendered}");
        }
        if opts.deps && !report.advisories.is_empty() {
            let rendered = analysis::render_all(&report.advisories, Some(src), Some(path));
            eprint!("{rendered}");
        }
        match (errors, warnings) {
            (0, 0) => println!("ok: no diagnostics"),
            (e, w) => eprintln!("{e} error(s), {w} warning(s)"),
        }
    }
    if errors > 0 || (opts.deny && warnings > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `ruvo recover`: read-only checkpoint/WAL stats plus a dry-run
/// recovery (checkpoint + tail replayed in memory; the directory is
/// not modified).
fn recover_report(dir: &std::path::Path) -> Result<String, ruvo_core::Error> {
    use std::fmt::Write as _;

    let state = store::read_state(dir)?;
    let mut out = String::new();
    let _ = writeln!(out, "data dir: {}", dir.display());
    match &state.checkpoint {
        Some(ckpt) => {
            let _ = writeln!(
                out,
                "checkpoint: seq {} / epoch {} / {} facts / {} generation(s)",
                ckpt.seq,
                ckpt.epoch,
                ckpt.base.len(),
                ckpt.generations.len(),
            );
            for (i, g) in ckpt.generations.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  generation #{i}: {} / seq {} / epoch {} / {} bytes / {} dirty shard(s)",
                    g.kind, g.seq, g.epoch, g.bytes, g.dirty_shards
                );
            }
            if ckpt.torn_bytes > 0 {
                let _ = writeln!(
                    out,
                    "  chain tail: {} torn bytes (interrupted delta append; \
                     the wal covers it) will be dropped on open",
                    ckpt.torn_bytes
                );
            }
        }
        None => {
            let _ = writeln!(out, "checkpoint: none");
        }
    }
    let _ = writeln!(
        out,
        "wal: {} records, {} programs, {} payload bytes",
        state.stats.wal_records, state.stats.wal_programs, state.stats.wal_bytes
    );
    if state.stats.dropped_bytes > 0 {
        let _ = writeln!(
            out,
            "wal tail: {} torn/corrupt bytes will be dropped on open",
            state.stats.dropped_bytes
        );
    }
    if state.stats.skipped_records > 0 {
        let _ = writeln!(
            out,
            "wal: {} stale records already covered by the checkpoint",
            state.stats.skipped_records
        );
    }

    // Dry-run recovery: checkpoint + replay, all in memory, through
    // the same replay path real recovery uses.
    let ckpt_seq = state.checkpoint.as_ref().map_or(0, |c| c.seq);
    let mut db = Database::open(state.checkpoint.map(|c| c.base).unwrap_or_default());
    let replayed = db.replay_wal_records(&state.records)?;
    let _ = writeln!(
        out,
        "recovery: {} programs replayed, head has {} facts across {} transactions",
        replayed,
        db.current().len(),
        ckpt_seq + replayed
    );
    Ok(out)
}

/// `ruvo serve`: the concurrent serving demo. One writer thread
/// commits `program` `commits` times through a [`ServingDatabase`]
/// while `readers` threads continuously snapshot and scan; reports
/// aggregate throughput and the final head. With `ack_file`, one line
/// (`"<seq>"`) is appended and flushed per acknowledged commit — the
/// crash-recovery test kills this process mid-stream and checks that
/// every acknowledged seq survives recovery.
fn serve_demo(
    db: Database,
    program: Program,
    readers: usize,
    commits: usize,
    ack_file: Option<&str>,
) -> Result<String, ruvo_core::Error> {
    use ruvo_core::ServingDatabase;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let mut ack = match ack_file {
        Some(path) => Some(std::fs::File::create(path).map_err(|e| {
            ruvo_core::Error::from(store::StorageError::Io {
                op: "create",
                path: path.to_string(),
                kind: e.kind(),
                message: e.to_string(),
            })
        })?),
        None => None,
    };
    let prepared = db.prepare_program(program)?;
    let db = db.into_serving();
    let objects: Vec<ruvo_term::Const> = db.current().objects().collect();
    // Demand-driven point queries for a handful of objects: each reader
    // interleaves these with its raw snapshot scans. The plans are
    // built once (the magic-set rewrite is per-goal, not per-ask).
    let query_plans: Vec<ruvo_core::QueryPlan> = objects
        .iter()
        .take(8)
        .filter_map(|obj| ruvo_lang::Goal::parse(&format!("?- {obj}.sal -> S.")).ok())
        .map(|goal| prepared.query_plan(goal))
        .collect();
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (reads, queries, write_result) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                let db: ServingDatabase = db.clone();
                let objects = &objects;
                let query_plans = &query_plans;
                let done = &done;
                s.spawn(move || {
                    let mut reads = 0u64;
                    let mut queries = 0u64;
                    let mut i = r;
                    while !done.load(Ordering::Relaxed) {
                        let snap = db.snapshot();
                        for _ in 0..16 {
                            if let Some(&obj) = objects.get(i % objects.len().max(1)) {
                                std::hint::black_box(snap.lookup1(obj, "sal"));
                            }
                            i += 1;
                            reads += 1;
                        }
                        if let Some(plan) = query_plans.get(i % query_plans.len().max(1)) {
                            std::hint::black_box(db.run_query_plan(plan).ok());
                            queries += 1;
                        }
                    }
                    (reads, queries)
                })
            })
            .collect();
        let writer = {
            let db = db.clone();
            let prepared = &prepared;
            let ack = &mut ack;
            s.spawn(move || {
                for i in 0..commits {
                    let applied = db.apply(prepared)?;
                    if let Some(f) = ack {
                        // The commit is durable (WAL appended +
                        // fsynced) by the time `apply` returns, so the
                        // ack only needs to reach the OS: a SIGKILL
                        // cannot take back completed writes.
                        let _ = writeln!(f, "{}", applied.seq);
                        let _ = f.flush();
                    }
                    // Durable serves checkpoint incrementally in the
                    // background: the writer path only pays the
                    // O(shards) plan, the encode runs on its own
                    // thread. A volatile database returns false and
                    // this is a no-op.
                    if (i + 1) % 16 == 0 && db.checkpoint_background()? {
                        for done in db.take_checkpoint_completions() {
                            eprintln!("background {done}");
                        }
                    }
                }
                if db.checkpoint_flush()?.is_some() {
                    for done in db.take_checkpoint_completions() {
                        eprintln!("background {done}");
                    }
                }
                Ok::<(), ruvo_core::Error>(())
            })
        };
        let write_result = writer.join().expect("writer thread");
        done.store(true, Ordering::Relaxed);
        let (reads, queries) = handles.into_iter().fold((0u64, 0u64), |(r, q), h| {
            let (reads, queries) = h.join().expect("reader thread");
            (r + reads, q + queries)
        });
        (reads, queries, write_result)
    });
    write_result?;
    let elapsed = started.elapsed().as_secs_f64();
    Ok(format!(
        "served {reads} snapshot reads and {queries} demand queries across {readers} readers \
         while committing {commits} transactions in {elapsed:.2}s\n\
         ({:.0} reads/s, {:.0} commits/s, head epoch {})\n\
         final head: {} facts\n",
        reads as f64 / elapsed,
        commits as f64 / elapsed,
        db.epoch(),
        db.current().len(),
    ))
}
