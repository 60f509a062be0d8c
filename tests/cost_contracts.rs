//! Cost contracts: what a commit, a read or an evaluation costs follows
//! what it changes or asks, not the size of the object base.
//!
//! A test-only counting allocator supplies the counts, per thread, so
//! the harness's other test threads do not leak into a measurement.
//! Counts are deterministic where wall time is not: run with
//! `cargo test --release --test cost_contracts`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruvo::core::{run_compiled, CompiledProgram, CyclePolicy, Outcome};
use ruvo::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn record(allocations: u64, bytes: i64) {
    // `try_with`: the counters are gone while a thread shuts down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
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
fn one_object_program(i: usize, n: usize) -> CompiledProgram {
    let a = (i * 7919) % n;
    compile(&match i % 4 {
        0 | 1 => {
            format!("mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1.")
        }
        2 => format!("ins[A].flagged -> 1 <= A.tag -> t{a} & not A.flagged -> 1."),
        _ => format!(
            "del[A].* <= A.tag -> t{a}. ins[fresh{i}].balance -> 5. ins[fresh{i}].tag -> f{i}."
        ),
    })
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
    let mut at = Vec::new();
    for i in 0..2_000 {
        let compiled = compile(&format!(
            "mod[A].balance -> (B, B2) <= A.tag -> t{} & A.balance -> B & B2 = B + 1.",
            (i * 7919) % n
        ));
        session.commit(evaluate(&session, &compiled)).unwrap();
        if i + 1 == 200 || i + 1 == 2_000 {
            at.push(LIVE_BYTES.with(Cell::get));
        }
    }
    let per_commit = (at[1] - at[0]) as f64 / 1_800.0;
    eprintln!("retained per commit: {per_commit:.0} bytes");
    assert!(per_commit < 7_500.0, "the session retains {per_commit:.0} bytes per commit");
    assert_eq!(session.len(), 2_000);
}

/// Mean allocations of `queries` point goals through the serving read
/// path, after a warm-up.
fn allocations_per_query(n: usize, queries: usize) -> f64 {
    let db = ServingDatabase::open(accounts_base(n));
    let credit = db.prepare(CREDIT_ALL).unwrap();
    let mut total = 0;
    for i in 0..queries + 16 {
        let goal = Goal::parse(&format!("?- mod(acct{}).balance -> B.", (i * 7919) % n)).unwrap();
        let before = ALLOCATIONS.with(Cell::get);
        let answers = db.query(&credit, goal).unwrap();
        if i >= 16 {
            total += ALLOCATIONS.with(Cell::get) - before;
        }
        assert_eq!(answers.rows.len(), 1);
    }
    total as f64 / queries as f64
}

#[test]
fn point_queries_allocate_the_same_at_1k_and_10k_accounts() {
    let small = allocations_per_query(1_000, 100);
    let large = allocations_per_query(10_000, 100);
    eprintln!("allocations per served point query: {small:.1} at 1k accounts, {large:.1} at 10k");
    assert!(
        (large - small).abs() <= 8.0,
        "a served point query allocates {small:.1} times at 1k accounts but {large:.1} at 10k"
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
