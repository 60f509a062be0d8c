//! Cost contracts: what a commit, a read or an evaluation costs follows
//! what it changes or asks, not the size of the object base — on the
//! bare session commit and through the handles that write through it.
//!
//! A test-only counting allocator supplies the counts, per thread, so
//! the harness's other test threads do not leak into a measurement.
//! Counts are deterministic where wall time is not: run with
//! `cargo test --release --test cost_contracts`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruvo::core::store::FsyncPolicy;
use ruvo::core::{run_compiled, CompiledProgram, CyclePolicy, Outcome, Session};
use ruvo::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes ever requested (a growing `realloc` counts its growth);
    /// `LIVE_BYTES` is net of frees.
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn record(allocations: u64, bytes: i64) {
    // `try_with`: the counters are gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
    let _ = ALLOCATED_BYTES.try_with(|c| c.set(c.get() + bytes.max(0) as u64));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            record(1, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            record(1, layout.size() as i64);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            record(1, new_size as i64 - layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        record(0, -(layout.size() as i64));
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `n` accounts shaped like the `txn_stream` benchmark's: distinct
/// balances, tags and owners, one shared `kind`.
fn accounts_base(n: usize) -> ObjectBase {
    let mut src = String::new();
    for a in 0..n {
        src.push_str(&format!(
            "acct{a}.balance -> {}. acct{a}.kind -> live. acct{a}.tag -> t{a}. acct{a}.owner -> u{a}.\n",
            100 * (a + 1)
        ));
    }
    ObjectBase::parse(&src).unwrap()
}

fn accounts(n: usize) -> Session {
    Session::new(accounts_base(n))
}

/// Credit every live account: a wide program.
const CREDIT_ALL: &str =
    "credit: mod[A].balance -> (B, B2) <= A.kind -> live & A.balance -> B & B2 = B + 1.";

fn compile(src: &str) -> CompiledProgram {
    CompiledProgram::compile(Program::parse(src).unwrap(), CyclePolicy::Reject).unwrap()
}

/// The `i`-th one-object program of a stream over accounts `0..n`:
/// credits, flags (`ins` under negation), closes (`del[..].*`) and
/// opens of a fresh account, in turn.
fn one_object_source(i: usize, n: usize) -> String {
    let a = (i * 7919) % n;
    match i % 4 {
        0 | 1 => {
            format!("mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1.")
        }
        2 => format!("ins[A].flagged -> 1 <= A.tag -> t{a} & not A.flagged -> 1."),
        _ => format!(
            "del[A].* <= A.tag -> t{a}. ins[fresh{i}].balance -> 5. ins[fresh{i}].tag -> f{i}."
        ),
    }
}

fn one_object_program(i: usize, n: usize) -> CompiledProgram {
    compile(&one_object_source(i, n))
}

/// Evaluate `compiled` against the session's committed base, outside
/// any measurement.
fn evaluate(session: &Session, compiled: &CompiledProgram) -> Outcome {
    run_compiled(compiled, session.config(), session.prepared_work()).unwrap()
}

/// Mean allocations of `commits` one-object commits, after a warm-up.
fn allocations_per_commit(n: usize, commits: usize) -> f64 {
    let mut session = accounts(n);
    let programs: Vec<CompiledProgram> =
        (0..commits + 64).map(|i| one_object_program(i, n)).collect();
    let mut total = 0;
    for (i, compiled) in programs.iter().enumerate() {
        let outcome = evaluate(&session, compiled);
        let before = ALLOCATIONS.with(Cell::get);
        session.commit(outcome).unwrap();
        if i >= 64 {
            total += ALLOCATIONS.with(Cell::get) - before;
        }
    }
    total as f64 / commits as f64
}

/// A one-object commit allocates the same at 1k and 10k accounts, and
/// at most 24.5 times (26 in a debug build, whose invariant checks
/// collect each commit's vids): ≈ 23.7 (25.3), and 26.6 (27.6) while
/// the head edit recorded a semantic delta nobody read.
#[test]
fn one_object_commits_allocate_the_same_at_1k_and_10k_accounts() {
    const BUDGET: f64 = if cfg!(debug_assertions) { 26.0 } else { 24.5 };
    let small = allocations_per_commit(1_000, 200);
    let large = allocations_per_commit(10_000, 200);
    eprintln!("allocations per one-object commit: {small:.1} at 1k accounts, {large:.1} at 10k");
    assert!(
        (large - small).abs() <= 8.0,
        "a one-object commit allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
    assert!(
        small.max(large) <= BUDGET,
        "a one-object commit allocates {small:.1} / {large:.1} times (budget {BUDGET})"
    );
}

#[test]
fn a_session_retains_nothing_per_commit() {
    // A stream of credits: the base keeps its size, so what the live
    // bytes gain between commit 200 and commit 2 000 is what the session
    // retains per commit — ≈ 0.75 MB each while a log kept every
    // `result(P)`, 1 699 bytes while each entry kept the run's changed
    // set, ≈ 940 while each kept its stats and stratification. The
    // session keeps only its newest transaction now; the residual
    // (≈ 7 bytes) is three ≈ 4 KB steps over the whole stream, not an
    // entry per commit.
    let n = 1_000;
    let mut session = accounts(n);
    let (mut at, mut seq) = (Vec::new(), 0);
    for i in 0..2_000 {
        let compiled = compile(&format!(
            "mod[A].balance -> (B, B2) <= A.tag -> t{} & A.balance -> B & B2 = B + 1.",
            (i * 7919) % n
        ));
        seq = session.commit(evaluate(&session, &compiled)).unwrap().seq;
        if i + 1 == 200 || i + 1 == 2_000 {
            at.push(LIVE_BYTES.with(Cell::get));
        }
    }
    let per_commit = (at[1] - at[0]) as f64 / 1_800.0;
    eprintln!("retained per commit: {per_commit:.0} bytes");
    assert!(
        per_commit < 32.0,
        "the session retains {per_commit:.0} bytes per commit (≈ 7 expected: a few table steps)"
    );
    assert_eq!(seq, 1_999);
}

/// Mean allocations of `applies` one-object programs through `apply`,
/// after a warm-up; each is prepared outside the measurement. This is
/// the whole write path of a handle: evaluation, commit and, on a
/// durable handle, the WAL append.
fn allocations_per_apply(n: usize, applies: usize, mut apply: impl FnMut(&Prepared)) -> f64 {
    let db = Database::default();
    let programs: Vec<Prepared> =
        (0..applies + 64).map(|i| db.prepare(&one_object_source(i, n)).unwrap()).collect();
    let mut total = 0;
    for (i, prepared) in programs.iter().enumerate() {
        let before = ALLOCATIONS.with(Cell::get);
        apply(prepared);
        if i >= 64 {
            total += ALLOCATIONS.with(Cell::get) - before;
        }
    }
    total as f64 / applies as f64
}

#[test]
fn database_applies_allocate_the_same_at_1k_and_10k_accounts() {
    let per_apply = |n| {
        let mut db = Database::open(accounts_base(n));
        allocations_per_apply(n, 200, |prepared| {
            db.apply(prepared).unwrap();
        })
    };
    let (small, large) = (per_apply(1_000), per_apply(10_000));
    eprintln!(
        "allocations per one-object Database::apply: {small:.1} at 1k accounts, {large:.1} at 10k"
    );
    assert!(
        (large - small).abs() <= 8.0,
        "a one-object Database::apply allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
}

#[test]
fn durable_serving_applies_allocate_the_same_at_1k_and_10k_accounts() {
    let per_apply = |n| {
        let dir =
            std::env::temp_dir().join(format!("ruvo-cost-serving-{n}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let serving = Database::builder()
            .data_dir(&dir)
            .fsync(FsyncPolicy::Never)
            .checkpoint_policy(CheckpointPolicy::never())
            .seed(accounts_base(n))
            .open_dir()
            .unwrap()
            .into_serving();
        let mean = allocations_per_apply(n, 200, |prepared| {
            serving.apply(prepared).unwrap();
        });
        drop(serving);
        let _ = std::fs::remove_dir_all(&dir);
        mean
    };
    let (small, large) = (per_apply(1_000), per_apply(10_000));
    eprintln!(
        "allocations per one-object durable ServingDatabase::apply: {small:.1} at 1k accounts, {large:.1} at 10k"
    );
    assert!(
        (large - small).abs() <= 8.0,
        "a one-object durable ServingDatabase::apply allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
}

#[test]
fn durable_commits_grow_the_wal_once_per_chunk_not_once_per_commit() {
    // An `fdatasync` that must also commit a new file size costs a
    // journal write on top of the data: the WAL is grown a zeroed
    // 64 KiB chunk at a time, and a commit inside the chunk overwrites
    // blocks that are already written.
    const CHUNK: u64 = 64 * 1024;
    let n = 1_000;
    let dir = std::env::temp_dir().join(format!("ruvo-cost-wal-growth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::builder()
        .data_dir(&dir)
        .fsync(FsyncPolicy::Always)
        .checkpoint_policy(CheckpointPolicy::never())
        .seed(accounts_base(n))
        .open_dir()
        .unwrap();
    let wal = dir.join(ruvo::core::store::WAL_FILE);
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let (mut len, mut changes) = (wal_len(), 0u64);
    for i in 0..1_000 {
        db.apply(&db.prepare(&one_object_source(i, n)).unwrap()).unwrap();
        let now = wal_len();
        changes += u64::from(now != len);
        len = now;
    }
    drop(db);
    let state = ruvo::core::store::read_state(&dir).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(state.stats.wal_records, 1_000);
    let payload = state.stats.wal_bytes;
    let bound = payload.div_ceil(CHUNK) + 1;
    eprintln!(
        "1 000 durable commits, {payload} WAL bytes: the file length changed {changes} times"
    );
    assert!(
        changes <= bound,
        "the WAL file length changed {changes} times over 1 000 commits of {payload} bytes, above {bound}"
    );
}

/// Mean allocations and mean bytes allocated of `queries` point goals
/// through the serving read path, after a warm-up.
fn allocations_per_query(n: usize, queries: usize) -> (f64, f64) {
    let db = ServingDatabase::open(accounts_base(n));
    let credit = db.prepare(CREDIT_ALL).unwrap();
    let (mut total, mut bytes) = (0, 0);
    for i in 0..queries + 16 {
        let goal = Goal::parse(&format!("?- mod(acct{}).balance -> B.", (i * 7919) % n)).unwrap();
        let before = (ALLOCATIONS.with(Cell::get), ALLOCATED_BYTES.with(Cell::get));
        let answers = db.query(&credit, goal).unwrap();
        if i >= 16 {
            total += ALLOCATIONS.with(Cell::get) - before.0;
            bytes += ALLOCATED_BYTES.with(Cell::get) - before.1;
        }
        assert_eq!(answers.rows.len(), 1);
    }
    (total as f64 / queries as f64, bytes as f64 / queries as f64)
}

/// A point query writes a few versions on a working copy of the base:
/// it must allocate as often at 1k as at 10k accounts, and copy only
/// the copy-on-write leaves those writes land in — at 16k accounts a
/// 1/16 shard of one index alone would blow the byte budget. Past the
/// first goal of its kept rules it compiles no rewrite and analyses no
/// kept rule: what it allocates is its own literals' analysis, seeding
/// and run.
#[test]
fn point_queries_allocate_the_same_at_1k_and_10k_accounts() {
    let (small, _) = allocations_per_query(1_000, 100);
    let (large, _) = allocations_per_query(10_000, 100);
    eprintln!("allocations per served point query: {small:.1} at 1k accounts, {large:.1} at 10k");
    assert!(
        (large - small).abs() <= 8.0,
        "a served point query allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
    // 93.0 measured in the release suite, 94.0 alone and in a debug
    // build; 107.9
    // while a run keyed every fact it derived in the value-key
    // indexes, 110.9 when each run also merged its rounds' deltas into
    // a changed set, 130.9 when every query re-analysed its kept rules,
    // 220.9 when it also compiled their rewrite.
    const COUNT_BUDGET: f64 = 94.0;
    assert!(
        small.max(large) <= COUNT_BUDGET,
        "a served point query allocates {small:.1} / {large:.1} times at 1k / 10k accounts \
         (budget {COUNT_BUDGET}; 130.9 when every query re-analysed its kept rules)"
    );
    // ≈ 15.8 KB measured, alone and in the suite, plus a margin of
    // about 4× for a key landing in a fuller leaf; 151 KB while a run
    // keyed the versions it derived (their index writes copied key-index
    // leaves of the working copy), 3.23 MB when a write copied a 1/16
    // shard.
    const BUDGET: f64 = 64.0 * 1024.0;
    let (_, bytes) = allocations_per_query(16_000, 100);
    eprintln!("bytes allocated per served point query at 16k accounts: {bytes:.0}");
    assert!(
        bytes <= BUDGET,
        "a served point query allocates {bytes:.0} bytes at 16k accounts (budget {BUDGET})"
    );
}

/// The live heap of a serving database after a warm-up and after 2 000
/// more point, sweep and base-only goals with varied constants: the
/// rewrites the first goals compiled are all the query path keeps.
#[test]
fn point_queries_retain_nothing_past_their_kept_sets() {
    let n = 1_000;
    let db = ServingDatabase::open(accounts_base(n));
    let credit = db.prepare(CREDIT_ALL).unwrap();
    let ask = |i: usize| {
        let a = (i * 7919) % n;
        let goal = match i % 3 {
            0 => format!("?- mod(acct{a}).balance -> B."),
            1 => format!("?- A.tag -> t{a} & mod(A).balance -> B."),
            _ => format!("?- acct{a}.balance -> B."),
        };
        let answers = db.query(&credit, Goal::parse(&goal).unwrap()).unwrap();
        assert_eq!(answers.rows.len(), 1, "{goal}");
    };
    for i in 0..16 {
        ask(i);
    }
    let warm = LIVE_BYTES.with(Cell::get);
    for i in 16..2_016 {
        ask(i);
    }
    let after = LIVE_BYTES.with(Cell::get);
    eprintln!("live heap after warm-up: {warm} bytes; after 2 000 more queries: {after}");
    assert_eq!(after, warm, "2 000 point queries retained {} bytes", after - warm);
}

/// Goals reading every combination of three derived chains reach every
/// kept set of a three-rule program, 2^3: the rewrite table grows once
/// per kept set during the warm-up, by a bounded entry each (its
/// compiled programs, created chains, magic name, seeds and demand
/// rules), and by nothing in 2 000 more goals.
#[test]
fn goals_over_every_relation_combination_keep_one_rewrite_per_kept_set() {
    let n = 200;
    let db = ServingDatabase::open(accounts_base(n));
    // Three rules creating three chains; `flag` and `untag` fire on no
    // account (none is `frozen`), so no object branches.
    let program = db
        .prepare(&format!(
            "{CREDIT_ALL}
             flag: ins[A].flag -> on <= A.kind -> frozen.
             untag: del[A].tag -> T <= A.tag -> T & A.kind -> frozen."
        ))
        .unwrap();
    let goal = |i: usize| {
        let (a, chains) = ((i * 7919) % n, i % 8);
        let mut body = vec![format!("acct{a}.owner -> U")];
        if chains & 1 != 0 {
            body.push(format!("mod(acct{a}).balance -> B"));
        }
        if chains & 2 != 0 {
            body.push(format!("ins(acct{a}).flag -> F"));
        }
        if chains & 4 != 0 {
            body.push(format!("del(acct{a}).kind -> K"));
        }
        (chains, Goal::parse(&format!("?- {}.", body.join(" & "))).unwrap())
    };
    let ask = |i: usize| {
        let (chains, goal) = goal(i);
        let answers = db.query(&program, goal).unwrap();
        // No `ins` or `del` version exists, so only goals reading the
        // base and `mod` alone have an answer.
        assert_eq!(answers.rows.len(), usize::from(chains < 2), "goal {i}");
    };
    // The interner is global, shared with the tests running beside this
    // one: intern the magic name up front, so its growth is not counted.
    sym("?demand");
    let start = LIVE_BYTES.with(Cell::get);
    for i in 0..16 {
        ask(i);
    }
    let warm = LIVE_BYTES.with(Cell::get);
    for i in 16..2_016 {
        ask(i);
    }
    let after = LIVE_BYTES.with(Cell::get);
    let kept_sets: std::collections::BTreeSet<Vec<usize>> =
        (0..8).map(|i| program.query_plan(goal(i).1).kept_rules().to_vec()).collect();
    eprintln!(
        "{} kept sets: the warm-up retained {} bytes, 2 000 more goals {}",
        kept_sets.len(),
        warm - start,
        after - warm
    );
    assert_eq!(kept_sets.len(), 8, "{kept_sets:?}");
    assert_eq!(after, warm, "2 000 goals retained {} bytes", after - warm);
    // ≈ 5.4 KB measured; ≈ 4.7 KB when an entry held only its
    // compiled programs and each goal re-derived the rest.
    const PER_KEPT_SET: i64 = 6 * 1024;
    let per_kept_set = (warm - start) / kept_sets.len() as i64;
    assert!(
        per_kept_set <= PER_KEPT_SET,
        "the warm-up retained {per_kept_set} bytes per kept set (budget {PER_KEPT_SET})"
    );
}

/// Mean allocations of `prepared_work()` plus a one-object evaluation,
/// each right after a wide commit (the §5 rebuild) installed a new head.
fn allocations_after_a_wide_commit(n: usize, rounds: usize) -> f64 {
    let mut session = accounts(n);
    let credit_all = compile(CREDIT_ALL);
    let mut total = 0;
    for i in 0..rounds {
        session.commit(evaluate(&session, &credit_all)).unwrap();
        let one = one_object_program(i, n);
        let before = ALLOCATIONS.with(Cell::get);
        let outcome = run_compiled(&one, session.config(), session.prepared_work()).unwrap();
        total += ALLOCATIONS.with(Cell::get) - before;
        assert!(outcome.stats().fired_updates > 0);
    }
    total as f64 / rounds as f64
}

/// Scan candidates of one `Database::apply` of a `txn_stream` Credit:
/// two constant keys, `kind -> live` naming every account and `tag`
/// naming one.
fn credit_scan_candidates(n: usize) -> usize {
    let mut db = Database::open(accounts_base(n));
    let txn = db
        .apply_src(&format!(
            "mod[A].balance -> (B, B2) <= A.kind -> live & A.tag -> t{} & A.balance -> B \
             & B2 = B + 1.",
            n / 2
        ))
        .unwrap();
    txn.outcome.stats().scan_candidates
}

#[test]
fn a_one_account_credit_scans_the_same_at_1k_and_10k_accounts() {
    // The join starts at the smaller key, `tag`: one version per body
    // scan. Started at `kind`, as written, it read every account and
    // then each one's tag: 2 001 and 20 001 candidates.
    let (small, large) = (credit_scan_candidates(1_000), credit_scan_candidates(10_000));
    eprintln!("scan candidates per one-account credit: {small} at 1k accounts, {large} at 10k");
    assert_eq!((small, large), (3, 3), "a one-account credit scans {small} / {large} versions");
}

/// Scan candidates of one run of a two-stratum program over `n` objects
/// beside `10·n` untouched ones: the first stratum's `n` fact rules give
/// each object an `ins(o).tag -> t7` version (reading nothing), the
/// second reads `ins(X).tag -> t7` with `X` unbound. The untouched
/// objects hold `tag -> t7` on their initial versions.
fn derived_read_scan_candidates(n: usize) -> usize {
    let mut src: String = (0..n).map(|i| format!("t{i}: ins[o{i}].tag -> t7.\n")).collect();
    src.push_str("seen: ins[ins(X)].seen -> 1 <= ins(X).tag -> t7.");
    let base: String = (0..n)
        .map(|i| format!("o{i}.kind -> live.\n"))
        .chain((0..10 * n).map(|i| format!("u{i}.kind -> live. u{i}.tag -> t7.\n")))
        .collect();
    let compiled = compile(&src);
    assert_eq!(compiled.stratification().len(), 2);
    let outcome =
        run_compiled(&compiled, &EngineConfig::default(), ObjectBase::parse(&base).unwrap())
            .unwrap();
    assert_eq!(outcome.stats().fired_updates, 2 * n);
    outcome.stats().scan_candidates
}

/// The object base keys no derived version, so an unseeded read of a
/// derived chain with a constant key scans that chain's relation: what
/// the run derived under it, `n` versions, not the `10·n` initial
/// versions holding the same key, and linear in `n`.
#[test]
fn an_unseeded_derived_read_scans_what_the_run_derived() {
    let (small, large) = (derived_read_scan_candidates(100), derived_read_scan_candidates(200));
    eprintln!("scan candidates of an unseeded derived read: {small} at n = 100, {large} at 200");
    assert_eq!((small, large), (100, 200), "an unseeded derived read scans {small} / {large}");
}

/// The `tc1` / `tc2` closure over a `next` chain of `n` objects: the
/// engine's logical counters.
fn closure_counts(n: usize) -> (usize, usize, usize, usize, usize, usize) {
    let chain: String = (0..n - 1).map(|i| format!("o{i}.next -> o{}. ", i + 1)).collect();
    let closure = compile(
        "tc1: ins[X].reach -> Y <= X.next -> Y.
         tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.",
    );
    let outcome =
        run_compiled(&closure, &EngineConfig::default(), ObjectBase::parse(&chain).unwrap())
            .unwrap();
    let s = outcome.stats();
    (
        s.fired_updates,
        s.fired_candidates,
        s.rounds,
        s.versions_created,
        s.facts_copied,
        s.parallel.scan_subtasks,
    )
}

#[test]
fn closure_work_grows_with_what_it_derives() {
    // Doubling the chain quadruples the derived facts (n(n−1)/2) and
    // doubles the rounds; every head step 1 emits is new, each round
    // after the first is one seeded pass, and only the n−1 objects
    // with a `next` get a version, copied once.
    for n in [40, 80] {
        let derived = n * (n - 1) / 2;
        assert_eq!(closure_counts(n), (derived, derived, n, n - 1, n - 1, n + 1), "n = {n}");
    }
}

/// Allocations of one `Database::apply` of the `tc1` / `tc2` closure
/// over a `next` chain of `n` objects — its `n` rounds and the commit
/// of their `ob′` — with the derived fact count, n(n−1)/2. The program
/// is prepared outside the measurement.
fn closure_apply_allocations(n: usize) -> (f64, f64) {
    let chain: String = (0..n - 1).map(|i| format!("o{i}.next -> o{}. ", i + 1)).collect();
    let mut db = Database::open(ObjectBase::parse(&chain).unwrap());
    let closure = db
        .prepare(
            "tc1: ins[X].reach -> Y <= X.next -> Y.
             tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.",
        )
        .unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let derived = db.apply(&closure).unwrap().outcome.stats().fired_updates;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(derived, n * (n - 1) / 2);
    (allocations as f64, derived as f64)
}

/// A derived fact is written once: recording it in the round's delta,
/// grouping it by version and repairing its version in place allocate
/// nothing per fact. An apply of the closure costs `p` allocations
/// per derived fact plus `q` per object — one round, one version and
/// one final state each — and the two chain lengths of each pair
/// (n, 2n) fix both. `p` must be equal at n = 40 and at n = 80 (the
/// model holds) and below the budget. It is 0.03 at both, with
/// q ≈ 40 (0.04 and q ≈ 45 while every derived fact was also written
/// into the value-key indexes); it was 2.30 and 2.16 with a map and a
/// vector per base per relation in the round's delta and a vector per
/// version group. Per derived fact of the whole apply that is 2.07 /
/// 1.03 / 0.53 at n = 40 / 80 / 160, against 4.98 / 3.62 / 2.89.
#[test]
fn closure_allocations_grow_with_what_it_derives() {
    const BUDGET: f64 = 0.25;
    let [(a40, f40), (a80, f80), (a160, f160)] = [40, 80, 160].map(closure_apply_allocations);
    // A(n) = p·F(n) + q·n, solved on (n, 2n).
    let fit = |(a1, f1): (f64, f64), (a2, f2): (f64, f64), n: f64| {
        let p = (a2 - 2.0 * a1) / (f2 - 2.0 * f1);
        (p, (a1 - p * f1) / n)
    };
    let (p40, q40) = fit((a40, f40), (a80, f80), 40.0);
    let (p80, q80) = fit((a80, f80), (a160, f160), 80.0);
    eprintln!(
        "closure Database::apply: {:.2} / {:.2} / {:.2} allocations per derived fact at n = 40 / 80 / 160; \
         fitted {p40:.3} per derived fact + {q40:.1} per object at n = 40, {p80:.3} + {q80:.1} at n = 80",
        a40 / f40,
        a80 / f80,
        a160 / f160
    );
    assert!(
        (p40 - p80).abs() <= 0.05,
        "the closure allocates {p40:.3} times per derived fact at n = 40 but {p80:.3} at n = 80"
    );
    assert!(
        p40.max(p80) <= BUDGET,
        "the closure allocates {:.3} times per derived fact (budget {BUDGET})",
        p40.max(p80)
    );
}

#[test]
fn evaluations_after_a_wide_commit_allocate_the_same_at_1k_and_10k_accounts() {
    let small = allocations_after_a_wide_commit(1_000, 4);
    let large = allocations_after_a_wide_commit(10_000, 4);
    eprintln!(
        "allocations of a one-object evaluation after a wide commit: {small:.1} at 1k accounts, {large:.1} at 10k"
    );
    assert!(
        (large - small).abs() <= 8.0,
        "after a wide commit, a one-object evaluation allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
}

/// Allocations per created version of one `Database::apply` of §2.3's
/// enterprise program on `n` generated employees, with the created
/// version count. The program is prepared outside the measurement.
fn allocations_per_created_version(n: usize) -> (f64, usize) {
    use ruvo::workload::enterprise::{Enterprise, EnterpriseConfig};
    let config = EnterpriseConfig { employees: n, seed: 1, ..EnterpriseConfig::default() };
    let mut db = Database::open(Enterprise::generate(config).ob);
    let prepared = db.prepare_program(ruvo::workload::programs::enterprise_program()).unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let created = db.apply(&prepared).unwrap().outcome.stats().versions_created;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations as f64 / created as f64, created)
}

/// The enterprise program creates about 1.6 versions per employee:
/// building, indexing and committing each must cost a constant number
/// of allocations, whatever the base's size — and few of them, since a
/// version's state is one vector of inline applications and a derived
/// version is not written into the value-key indexes (6.02 at 1k
/// employees, 5.67 at 2k, budget 6.5; 6.72 and 6.36 while derived
/// facts were keyed, 17.1 and 16.4 with a hash map of `Arc`'d sets per
/// state). The ratio falls a little with size because a wide commit's
/// once-per-leaf copies are spread over more versions.
#[test]
fn enterprise_applies_allocate_the_same_per_created_version_at_1k_and_2k_employees() {
    const BUDGET: f64 = 6.5;
    let (small, small_created) = allocations_per_created_version(1_000);
    let (large, large_created) = allocations_per_created_version(2_000);
    eprintln!(
        "allocations per created version of the enterprise Database::apply: \
         {small:.2} at 1k employees ({small_created} versions), \
         {large:.2} at 2k ({large_created} versions)"
    );
    assert!(small_created >= 1_000 && large_created >= 2_000);
    assert!(
        (large - small).abs() <= 1.0,
        "an enterprise apply allocates {small:.2} times per created version at 1k employees \
         but {large:.2} at 2k"
    );
    assert!(
        small.max(large) <= BUDGET,
        "an enterprise apply allocates {:.2} times per created version (budget {BUDGET})",
        small.max(large)
    );
}

/// Mean allocations of one `Database::prepare` of a `txn_stream`
/// Credit, a new one-rule text each time, after a warm-up.
fn allocations_per_prepare(prepares: usize) -> f64 {
    let db = Database::open(accounts_base(100));
    let mut total = 0;
    for i in 0..prepares + 8 {
        let src = format!(
            "mod[A].balance -> (B, B2) <= A.kind -> live & A.tag -> t{} & A.balance -> B \
             & B2 = B + {i}.",
            i % 100
        );
        let before = ALLOCATIONS.with(Cell::get);
        let prepared = db.prepare(&src).unwrap();
        if i >= 8 {
            total += ALLOCATIONS.with(Cell::get) - before;
        }
        drop(prepared);
    }
    total as f64 / prepares as f64
}

/// One front-end analysis per rule: a prepare parses, runs the
/// rule-level pass once (§3 structure and safety, storing the plan),
/// stratifies and plans, and runs no static analysis unless a lint is
/// denied; the safety analysis walks an atom's variables in place, a
/// rule's variable table holds each name once, and compile keeps no
/// trigger set beside the index plan's per-step reads. 94; 113 when
/// every prepare ran `check` and the variable table kept a second copy
/// of each name, 131 with a variable vector per visited literal and a
/// trigger set per rule, 176 when the check re-ran both passes.
#[test]
fn a_one_rule_prepare_allocates_within_its_budget() {
    const BUDGET: f64 = 94.0;
    let per_prepare = allocations_per_prepare(200);
    eprintln!("allocations per one-rule Database::prepare: {per_prepare:.1}");
    assert!(
        per_prepare <= BUDGET,
        "a one-rule prepare allocates {per_prepare:.1} times (budget {BUDGET})"
    );
}

/// Allocations of `analysis::front_end` (lex, parse, both passes,
/// every finding) on `n` distinct labelled rules.
fn front_end_allocations(n: usize) -> u64 {
    use ruvo::lang::analysis;
    let src: String =
        (0..n).map(|i| format!("r{i}: ins[X].m{i} -> {i} <= X.isa -> c{i}.\n")).collect();
    let before = ALLOCATIONS.with(Cell::get);
    let (diagnostics, program) = analysis::front_end(&src);
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(diagnostics.is_empty(), "{diagnostics:?}");
    assert_eq!(program.map(|p| p.len()), Some(n));
    allocations
}

/// The front end costs the same per rule however many rules there are:
/// its duplicate-label and duplicate-rule scans are one hash lookup per
/// rule, not a comparison with every earlier one.
#[test]
fn front_end_allocations_grow_linearly_in_rules() {
    let (small, large) = (front_end_allocations(100), front_end_allocations(200));
    let ratio = large as f64 / small as f64;
    eprintln!("front-end allocations: {small} at 100 rules, {large} at 200 ({ratio:.3}x)");
    assert!(ratio <= 2.1, "the front end allocates {small} times at 100 rules, {large} at 200");
}
