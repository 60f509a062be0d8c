//! End-to-end durability: WAL + checkpoints behind the commit
//! pipeline. Everything here goes through the public facade —
//! `Database::open_dir`, `into_serving_durable`, `DatabaseBuilder`
//! knobs — and asserts the crash contract: acknowledged commits are
//! never lost, torn tails are dropped cleanly, aborted transactions
//! leave no trace.

use ruvo::core::store::{self, CheckpointPolicy, FsyncPolicy};
use ruvo::prelude::*;
use ruvo::workload::{durability_workload, DurabilityConfig};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruvo-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CREDIT: &str = "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.";
const DEBIT: &str = "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B - 50.";

#[test]
fn open_dir_recovers_acknowledged_commits() {
    let dir = tmp_dir("basic");
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 100.")
            .unwrap()
            .open_dir()
            .unwrap();
        assert!(db.is_durable());
        let credit = db.prepare(CREDIT).unwrap();
        db.apply(&credit).unwrap();
        db.apply(&credit).unwrap();
        // Dropped without any shutdown hook: everything acknowledged
        // must already be on disk.
    }
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
    // And the recovered database keeps committing durably.
    let mut db = db;
    db.apply_src(CREDIT).unwrap();
    drop(db);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(250)]);
}

#[test]
fn seed_applies_only_to_a_fresh_directory() {
    let dir = tmp_dir("seed");
    {
        let mut db =
            Database::builder().data_dir(&dir).seed_src("a.p -> 1.").unwrap().open_dir().unwrap();
        db.apply_src("ins[a].q -> 2.").unwrap();
    }
    // Reopening with a different seed must NOT reset the state.
    let db =
        Database::builder().data_dir(&dir).seed_src("other.p -> 9.").unwrap().open_dir().unwrap();
    assert_eq!(db.current().lookup1(oid("a"), "q"), vec![int(2)]);
    assert!(db.current().lookup1(oid("other"), "p").is_empty());
}

#[test]
fn recovered_state_equals_reference_for_a_mixed_stream() {
    // The seeded workload mixes ins/mod/del with object churn; the
    // recovered state must be exactly the reference (in-memory)
    // result of the same prefix.
    let workload = durability_workload(DurabilityConfig { accounts: 5, commits: 40, seed: 42 });
    let dir = tmp_dir("mixed-stream");
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .seed(ruvo::obase::ObjectBase::parse(&workload.base_src).unwrap())
            .open_dir()
            .unwrap();
        for src in &workload.programs {
            db.apply_src(src).unwrap();
            // Every index consistent, on the head and on `result(P)`.
            db.current().check_invariants();
            db.last_txn().expect("just committed").outcome.result().check_invariants();
        }
    }
    let recovered = Database::open_dir(&dir).unwrap();
    recovered.current().check_invariants();
    assert_eq!(recovered.current(), &workload.state_after(workload.programs.len()));
}

#[test]
fn torn_wal_tail_is_dropped_cleanly() {
    let dir = tmp_dir("torn-tail");
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 100.")
            .unwrap()
            .open_dir()
            .unwrap();
        db.apply_src(CREDIT).unwrap();
        db.apply_src(CREDIT).unwrap();
    }
    // Simulate a crash mid-append: garbage bytes after the last
    // durable record.
    let wal = dir.join(store::WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x77; 21]);
    std::fs::write(&wal, &bytes).unwrap();

    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
}

#[test]
fn bit_flip_in_the_wal_loses_only_a_suffix_and_never_panics() {
    let dir = tmp_dir("bit-flip");
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 0.")
            .unwrap()
            .open_dir()
            .unwrap();
        let bump = db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        for _ in 0..4 {
            db.apply(&bump).unwrap();
        }
    }
    let wal = dir.join(store::WAL_FILE);
    let pristine = std::fs::read(&wal).unwrap();
    assert_eq!(pristine.last(), Some(&0), "the sweep covers the zeroed tail past the log's end");
    // Flip one bit at a sample of positions across the whole file.
    for byte in (10..pristine.len()).step_by(11) {
        let mut damaged = pristine.clone();
        damaged[byte] ^= 0x04;
        std::fs::write(&wal, &damaged).unwrap();
        match Database::open_dir(&dir) {
            Ok(db) => {
                // Some valid prefix of the four commits.
                let bal = db.current().lookup1(oid("acct"), "balance");
                assert_eq!(bal.len(), 1, "flip at {byte}: torn state");
                match bal[0] {
                    Const::Int(v) => assert!((0..=4).contains(&v), "flip at {byte}: balance {v}"),
                    other => panic!("flip at {byte}: non-integer balance {other}"),
                }
            }
            // Header damage is a typed error, never a panic.
            Err(e) => assert_eq!(e.kind(), ErrorKind::Storage, "flip at {byte}"),
        }
    }
    // NB: Database::open_dir truncates damaged tails, so restore the
    // pristine WAL last to leave the fixture consistent.
    std::fs::write(&wal, &pristine).unwrap();
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(4)]);
}

#[test]
fn future_format_versions_are_rejected_with_a_clear_message() {
    let dir = tmp_dir("future");
    {
        let mut db =
            Database::builder().data_dir(&dir).seed_src("a.p -> 1.").unwrap().open_dir().unwrap();
        db.apply_src("ins[a].q -> 1.").unwrap();
    }
    let wal = dir.join(store::WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[8] = 0xEE; // version u16 at offset 8
    std::fs::write(&wal, &bytes).unwrap();
    let err = Database::open_dir(&dir).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Storage);
    let msg = err.to_string();
    assert!(msg.contains("version") && msg.contains("newer ruvo"), "got: {msg}");
}

#[test]
fn checkpoint_policy_folds_the_log() {
    let dir = tmp_dir("ckpt-policy");
    {
        let mut db = Database::builder()
            .data_dir(&dir)
            .checkpoint_policy(CheckpointPolicy { max_wal_records: 3, ..CheckpointPolicy::never() })
            .seed_src("acct.balance -> 0.")
            .unwrap()
            .open_dir()
            .unwrap();
        let bump = db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        for _ in 0..7 {
            db.apply(&bump).unwrap();
        }
    }
    // 7 commits with a 3-record threshold: two checkpoints happened,
    // one record remains in the log.
    let state = store::read_state(dir.as_path()).unwrap();
    let ckpt = state.checkpoint.expect("checkpoint written by policy");
    assert_eq!(ckpt.seq, 6);
    assert_eq!(state.records.len(), 1);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(7)]);
}

#[test]
fn explicit_checkpoint_empties_the_wal() {
    let dir = tmp_dir("ckpt-explicit");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100.")
        .unwrap()
        .open_dir()
        .unwrap();
    db.apply_src(CREDIT).unwrap();
    db.checkpoint().unwrap();
    let state = store::read_state(dir.as_path()).unwrap();
    assert!(state.records.is_empty(), "wal folded into the checkpoint");
    assert_eq!(
        state.checkpoint.expect("exists").base.lookup1(oid("acct"), "balance"),
        vec![int(150)]
    );
    drop(db);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
}

#[test]
fn transact_is_one_wal_record_and_aborts_leave_no_trace() {
    let dir = tmp_dir("transact");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100.")
        .unwrap()
        .open_dir()
        .unwrap();
    let credit = db.prepare(CREDIT).unwrap();
    db.transact(|txn| {
        txn.apply(&credit)?;
        txn.apply(&credit)?;
        Ok(())
    })
    .unwrap();
    let state = store::read_state(dir.as_path()).unwrap();
    assert_eq!(state.records.len(), 1, "whole transact block = one record");
    assert_eq!(state.records[0].programs.len(), 2);

    // An aborted block must leave the log untouched.
    let err = db.transact(|txn| {
        txn.apply(&credit)?;
        txn.apply_src("this does not parse")?;
        Ok(())
    });
    assert!(err.is_err());
    let state = store::read_state(dir.as_path()).unwrap();
    assert_eq!(state.records.len(), 1, "aborted transact appended nothing");
    drop(db);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
}

#[test]
fn an_aborted_transact_keeps_the_newest_result_volatile_and_durable() {
    let dir = tmp_dir("abort-keeps-result");
    let volatile = Database::open_src("acct.balance -> 100.").unwrap();
    let durable =
        Database::builder().data_dir(&dir).seed_src("acct.balance -> 100.").unwrap().open_dir();
    for mut db in [volatile, durable.unwrap()] {
        let credit = db.prepare(CREDIT).unwrap();
        db.apply(&credit).unwrap();
        let err = db.transact(|txn| {
            txn.apply(&credit)?;
            txn.apply_src("this does not parse")
        });
        assert_eq!(err.unwrap_err().kind(), ErrorKind::Parse);
        // The block committed nothing, so the transaction before it is
        // still the newest and keeps its version history.
        assert_eq!(db.len(), 1);
        let newest = db.last_txn().expect("one transaction");
        assert!(
            !newest.outcome.result().is_empty(),
            "durable = {}: the surviving newest transaction lost result(P)",
            db.is_durable()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_panicking_transact_rolls_back_and_later_commits_are_logged() {
    let dir = tmp_dir("transact-panic");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100.")
        .unwrap()
        .open_dir()
        .unwrap();
    let credit = db.prepare(CREDIT).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.transact(|txn| -> Result<(), Error> {
            txn.apply(&credit)?;
            panic!("a transact closure panics")
        })
    }));
    assert!(caught.is_err());
    // The block's commit is undone, and the next commit is logged.
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(100)]);
    db.apply(&credit).unwrap();
    assert_eq!(store::read_state(dir.as_path()).unwrap().records.len(), 1);
    drop(db);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rollback_rewinds_the_durable_image() {
    let dir = tmp_dir("rollback");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100.")
        .unwrap()
        .open_dir()
        .unwrap();
    let sp = db.savepoint();
    db.apply_src(CREDIT).unwrap();
    db.apply_src(CREDIT).unwrap();
    db.rollback_to(sp).unwrap();
    db.apply_src(CREDIT).unwrap();
    drop(db);
    // Recovery must see 100 + 50, not 100 + 150: the rolled-back
    // commits are unreachable behind the rollback's checkpoint.
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
}

#[test]
fn commits_that_cancel_out_checkpoint_zero_dirty_shards() {
    let dir = tmp_dir("net-zero");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100. other.balance -> 7.")
        .unwrap()
        .open_dir()
        .unwrap();
    let seeded = db.current().clone();
    db.apply_src(CREDIT).unwrap();
    db.apply_src(DEBIT).unwrap();
    assert_eq!(db.current(), &seeded);
    // The checkpoint diffs against the state it last wrote, not the
    // commits in between: nothing differs, yet the delta still folds
    // the two logged commits.
    match db.checkpoint().unwrap() {
        store::CheckpointOutcome::Delta { dirty_shards, .. } => assert_eq!(dirty_shards, 0),
        other => panic!("expected a zero-shard delta, got {other:?}"),
    }
    let state = store::read_state(dir.as_path()).unwrap();
    assert!(state.records.is_empty(), "the delta truncated the wal");
    let head = db.current().clone();
    drop(db);
    assert_eq!(Database::open_dir(&dir).unwrap().current(), &head);
}

#[test]
fn rollback_across_a_checkpoint_recovers_the_head() {
    let dir = tmp_dir("rollback-across");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100. other.balance -> 7.")
        .unwrap()
        .open_dir()
        .unwrap();
    let sp = db.savepoint();
    db.apply_src(CREDIT).unwrap();
    db.checkpoint().unwrap();
    db.apply_src(CREDIT).unwrap();
    db.apply_src("ins[other].note -> 1.").unwrap();
    // Back behind the checkpoint: the restored state does not descend
    // from the chain's tip generation.
    db.rollback_to(sp).unwrap();
    db.apply_src(DEBIT).unwrap();
    let head = db.current().clone();
    assert_eq!(head.lookup1(oid("acct"), "balance"), vec![int(50)]);
    drop(db);
    assert_eq!(Database::open_dir(&dir).unwrap().current(), &head);
}

#[test]
fn serving_database_group_commit_is_durable() {
    let dir = tmp_dir("serving");
    let db = Database::open_src("acct.balance -> 0.").unwrap().into_serving_durable(&dir).unwrap();
    let bump = db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
    const THREADS: usize = 4;
    const EACH: usize = 5;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let handle = db.clone();
            let bump = bump.clone();
            s.spawn(move || {
                for _ in 0..EACH {
                    handle.apply(&bump).unwrap();
                }
            });
        }
    });
    assert_eq!(db.commits(), THREADS * EACH);
    // Group commit folded concurrent writers into fewer records than
    // transactions (at minimum it cannot exceed one record per commit).
    let state = store::read_state(dir.as_path()).unwrap();
    let programs: usize = state.records.iter().map(|r| r.programs.len()).sum();
    assert_eq!(programs as u64 + state.checkpoint.map_or(0, |c| c.seq), (THREADS * EACH) as u64);
    drop(db);

    let recovered = Database::open_dir(&dir).unwrap();
    assert_eq!(
        recovered.current().lookup1(oid("acct"), "balance"),
        vec![int((THREADS * EACH) as i64)]
    );
}

#[test]
fn serving_transact_and_checkpoint_are_durable() {
    let dir = tmp_dir("serving-transact");
    let db =
        Database::open_src("acct.balance -> 100.").unwrap().into_serving_durable(&dir).unwrap();
    let credit = db.prepare(CREDIT).unwrap();
    db.transact(|txn| {
        txn.apply(&credit)?;
        txn.apply(&credit)?;
        Ok(())
    })
    .unwrap();
    db.checkpoint().unwrap();
    let state = store::read_state(dir.as_path()).unwrap();
    assert!(state.records.is_empty());
    drop(db);
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
}

#[test]
fn into_serving_durable_refuses_an_existing_directory() {
    let dir = tmp_dir("refuse-existing");
    {
        let mut db =
            Database::builder().data_dir(&dir).seed_src("a.p -> 1.").unwrap().open_dir().unwrap();
        db.apply_src("ins[a].q -> 1.").unwrap();
    }
    let err = Database::open_src("b.p -> 2.").unwrap().into_serving_durable(&dir).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Storage);
    assert!(err.to_string().contains("already contains"), "got: {err}");
}

#[test]
fn cloning_a_durable_database_forks_volatile() {
    let dir = tmp_dir("clone-volatile");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("acct.balance -> 100.")
        .unwrap()
        .open_dir()
        .unwrap();
    let mut fork = db.clone();
    assert!(!fork.is_durable(), "clones must not share the WAL");
    fork.apply_src(CREDIT).unwrap();
    db.apply_src(CREDIT).unwrap();
    drop((db, fork));
    // Only the original's commit recovered.
    let db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
}

#[test]
fn runtime_stability_programs_replay_under_their_compiled_policy() {
    // A program accepted only under CyclePolicy::RuntimeStability must
    // recover even though the reopening config defaults to Reject: the
    // WAL records the policy per program.
    let dir = tmp_dir("cycle-policy");
    let cyclic = "
        r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
        r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.
    ";
    {
        let mut db = Database::builder()
            .cycle_policy(ruvo::core::CyclePolicy::RuntimeStability)
            .data_dir(&dir)
            .seed_src("a.m -> 1. a.trigger -> 1.")
            .unwrap()
            .open_dir()
            .unwrap();
        let prepared = db.prepare(cyclic).unwrap();
        db.apply(&prepared).unwrap();
    }
    let db = Database::open_dir(&dir).unwrap(); // default policy: Reject
    assert_eq!(db.current().lookup1(oid("a"), "go"), vec![int(1)]);
    assert!(db.current().lookup1(oid("a"), "m").is_empty());
}

#[test]
fn fsync_policies_all_recover_after_clean_drop() {
    for (tag, policy) in [("always", FsyncPolicy::Always), ("never", FsyncPolicy::Never)] {
        let dir = tmp_dir(&format!("fsync-{tag}"));
        {
            let mut db = Database::builder()
                .data_dir(&dir)
                .fsync(policy)
                .seed_src("acct.balance -> 100.")
                .unwrap()
                .open_dir()
                .unwrap();
            for _ in 0..6 {
                db.apply_src(CREDIT).unwrap();
            }
        }
        let db = Database::open_dir(&dir).unwrap();
        assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(400)], "policy {tag}");
    }
}

#[test]
fn open_dir_without_data_dir_is_a_typed_misuse() {
    let err = Database::builder().open_dir().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Storage);
    assert!(err.to_string().contains("data_dir"), "got: {err}");
}

/// A head that is not flat — one object with its initial, `ins` and
/// `mod(ins)` versions in the version table — survives a full
/// checkpoint, the §5 commit that flattens it, a delta checkpoint that
/// must remove the two dropped versions, and a reopen.
#[test]
fn a_non_flat_head_survives_full_and_delta_checkpoints() {
    let dir = tmp_dir("non-flat");
    let mut db = Database::builder()
        .data_dir(&dir)
        .seed_src("o.p -> 1. ins(o).p -> 2. mod(ins(o)).p -> 3. other.p -> 5.")
        .unwrap()
        .open_dir()
        .unwrap();
    assert!(!db.current().is_flat());
    assert_eq!(db.current().versions_of(oid("o")).count(), 3);
    assert!(matches!(db.compact().unwrap(), store::CheckpointOutcome::Full { .. }));
    drop(db);
    let mut db = Database::open_dir(&dir).unwrap();
    assert_eq!(db.current().versions_of(oid("o")).count(), 3, "the full checkpoint kept them");
    db.apply_src("ins[other].q -> 6.").unwrap();
    assert!(db.current().is_flat());
    assert_eq!(db.current().versions_of(oid("o")).count(), 1);
    assert_eq!(db.current().lookup1(oid("o"), "p"), vec![int(3)], "§5: the deepest version");
    match db.checkpoint().unwrap() {
        store::CheckpointOutcome::Delta { dirty_shards, .. } => assert!(dirty_shards >= 1),
        other => panic!("expected a delta, got {other:?}"),
    }
    let head = db.current().clone();
    drop(db);
    let reopened = Database::open_dir(&dir).unwrap();
    assert_eq!(reopened.current(), &head);
    assert_eq!(reopened.current().versions_of(oid("o")).count(), 1);
    reopened.current().check_invariants();
}
