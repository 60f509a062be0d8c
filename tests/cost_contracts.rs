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

#[test]
fn one_object_commits_allocate_the_same_at_1k_and_10k_accounts() {
    let small = allocations_per_commit(1_000, 200);
    let large = allocations_per_commit(10_000, 200);
    eprintln!("allocations per one-object commit: {small:.1} at 1k accounts, {large:.1} at 10k");
    assert!(
        (large - small).abs() <= 8.0,
        "a one-object commit allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
}

#[test]
fn the_log_retains_o1_per_commit() {
    // A stream of credits: the base keeps its size, so what the live
    // bytes gain between commit 200 and commit 2 000 is what the session
    // retains per commit — ≈ 0.75 MB each while the log kept every
    // `result(P)`.
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
    assert!(per_commit < 7_500.0, "the session retains {per_commit:.0} bytes per commit");
    assert_eq!(seq, 1_999);
}

/// Mean allocations of `applies` one-object programs through `apply`,
/// after a warm-up; each is prepared outside the measurement. This is
/// the whole write path of a handle: evaluation, commit and, on a
/// durable handle, the WAL append.
fn allocations_per_apply(n: usize, applies: usize, mut apply: impl FnMut(&Prepared)) -> f64 {
    let programs: Vec<Prepared> = (0..applies + 64)
        .map(|i| {
            let program = Program::parse(&one_object_source(i, n)).unwrap();
            Prepared::compile(program, CyclePolicy::Reject).unwrap()
        })
        .collect();
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
/// 1/16 shard of one index alone would blow the byte budget.
#[test]
fn point_queries_allocate_the_same_at_1k_and_10k_accounts() {
    let (small, _) = allocations_per_query(1_000, 100);
    let (large, _) = allocations_per_query(10_000, 100);
    eprintln!("allocations per served point query: {small:.1} at 1k accounts, {large:.1} at 10k");
    assert!(
        (large - small).abs() <= 8.0,
        "a served point query allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
    );
    const BUDGET: f64 = 512.0 * 1024.0;
    let (_, bytes) = allocations_per_query(16_000, 100);
    eprintln!("bytes allocated per served point query at 16k accounts: {bytes:.0}");
    assert!(
        bytes <= BUDGET,
        "a served point query allocates {bytes:.0} bytes at 16k accounts (budget {BUDGET})"
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
    let closure = Prepared::compile(
        Program::parse(
            "tc1: ins[X].reach -> Y <= X.next -> Y.
             tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.",
        )
        .unwrap(),
        CyclePolicy::Reject,
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
/// model holds) and below the budget. It is 0.04 and 0.03, with
/// q ≈ 45; it was 2.30 and 2.16 with a map and a vector per base per
/// relation in the round's delta and a vector per version group. Per
/// derived fact of the whole apply that is 2.33 / 1.17 / 0.60 / 0.31
/// at n = 40 / 80 / 160 / 320, against 4.98 / 3.62 / 2.89 / 2.49.
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
    let prepared =
        Prepared::compile(ruvo::workload::programs::enterprise_program(), CyclePolicy::Reject)
            .unwrap();
    let before = ALLOCATIONS.with(Cell::get);
    let created = db.apply(&prepared).unwrap().outcome.stats().versions_created;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations as f64 / created as f64, created)
}

/// The enterprise program creates about 1.6 versions per employee:
/// building, indexing and committing each must cost a constant number
/// of allocations, whatever the base's size — and few of them, since a
/// version's state is one vector of inline applications (8.2 at 1k
/// employees, 7.4 at 2k; 17.1 and 16.4 with a hash map of `Arc`'d sets
/// per state). The ratio falls a little with size because a wide
/// commit's once-per-leaf copies are spread over more versions.
#[test]
fn enterprise_applies_allocate_the_same_per_created_version_at_1k_and_2k_employees() {
    const BUDGET: f64 = 8.5;
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
