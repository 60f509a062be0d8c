//! The acceptance tests for the durable storage engine: a serving
//! `ruvo` process with a data directory is SIGKILLed mid-workload,
//! then the directory is reopened and the recovered head compared
//! against the acknowledgements the dead process managed to write.
//!
//! Contract under test:
//! * **acknowledged commits are never lost** — every seq the process
//!   acked before dying is in the recovered state;
//! * **unacknowledged tails are dropped cleanly** — reopening never
//!   errors on the torn end of the log, with or without extra
//!   garbage appended;
//! * **multi-generation checkpoint chains survive the same matrix** —
//!   the killed process writes background delta checkpoints, so the
//!   directory recovery faces a full+delta chain, not a monolithic
//!   snapshot: torn chain tails, a crashed compaction's leftover tmp
//!   file, and corrupt interior generations (which must fail closed
//!   naming the generation, never silently drop durable data).
//!
//! The kill lands at an arbitrary point in the commit/checkpoint
//! pipeline, so across runs this also exercises the window between a
//! delta install and the WAL truncation that follows it (recovery's
//! stale-record filter covers it; the deterministic in-process
//! version lives in `ruvo_core::store`'s unit tests).

use ruvo_core::store::{read_state, GenerationKind};
use ruvo_core::{CheckpointOutcome, Database};
use ruvo_term::{int, oid, Const};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn write_file(dir: &Path, name: &str, content: &str) -> PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

/// Spawn `ruvo serve` against a fresh data directory under `dir`,
/// wait until it acknowledged at least `min_acks` commits, SIGKILL it
/// mid-stream, and return the data directory plus the complete ack
/// lines the dead process managed to write.
fn run_killed_workload(dir: &Path, base_src: &str, min_acks: usize) -> (PathBuf, Vec<i64>) {
    let base = write_file(dir, "base.ob", base_src);
    let prog =
        write_file(dir, "bump.ruvo", "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.\n");
    let data_dir = dir.join("data");
    let ack_file = dir.join("acks.txt");

    // Far more commits than the process will live to make: the kill
    // lands mid-stream, not after a clean finish.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ruvo"))
        .args([
            "serve",
            base.to_str().unwrap(),
            prog.to_str().unwrap(),
            "--readers",
            "1",
            "--commits",
            "1000000",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--ack-file",
            ack_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");

    // Wait until a healthy number of commits were acknowledged.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let acked = std::fs::read_to_string(&ack_file).map(|s| s.lines().count()).unwrap_or(0);
        if acked >= min_acks {
            break;
        }
        assert!(Instant::now() < deadline, "no progress before the kill");
        assert!(
            child.try_wait().expect("try_wait").is_none(),
            "workload finished before the kill — raise --commits"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL"); // no shutdown hook runs
    child.wait().expect("reaped");

    // Count only complete ack lines (the kill may tear the last one).
    let acks = std::fs::read_to_string(&ack_file).unwrap();
    let acked: Vec<i64> = acks
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.parse::<i64>().expect("ack line is a seq"))
        .collect();
    assert!(acked.len() >= min_acks);
    (data_dir, acked)
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruvo-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recovered commit count = the counter's balance (one bump per
/// commit, starting at 0).
fn recovered_commits(data_dir: &Path) -> i64 {
    let db = Database::open_dir(data_dir).expect("recovery must succeed");
    let bal = db.current().lookup1(oid("acct"), "balance");
    assert_eq!(bal.len(), 1, "torn counter state: {bal:?}");
    match bal[0] {
        Const::Int(v) => v,
        other => panic!("non-integer balance {other}"),
    }
}

#[test]
fn sigkill_mid_workload_loses_no_acknowledged_commit() {
    let dir = test_dir("ack");
    let (data_dir, acked) = run_killed_workload(&dir, "acct.balance -> 0.\n", 20);
    let last_acked = *acked.last().expect("at least one ack");

    let recovered = recovered_commits(&data_dir);
    // Every acknowledged commit survived...
    assert!(
        recovered > last_acked,
        "lost acknowledged commits: acked through seq {last_acked}, recovered {recovered}"
    );
    // ...and the recovered head is the last acknowledged commit, give
    // or take the single batch that was in flight (durable but not
    // yet acked) when the kill landed.
    assert!(
        recovered <= last_acked + 3,
        "recovered {recovered} commits but only seq {last_acked} was acked — \
         recovery replayed something that was never committed"
    );

    // A torn/garbage tail on top of the kill still recovers cleanly
    // to the same state.
    let wal = data_dir.join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xC3; 17]);
    std::fs::write(&wal, &bytes).unwrap();
    assert_eq!(recovered_commits(&data_dir), recovered);

    // And the recovered database accepts new durable commits.
    let mut db = Database::open_dir(&data_dir).unwrap();
    db.apply_src("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
    drop(db);
    let db = Database::open_dir(&data_dir).unwrap();
    assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(recovered + 1)]);
}

#[test]
fn multi_generation_chain_survives_the_crash_matrix() {
    // A broad base keeps each delta far below the compaction
    // threshold, so the chain genuinely stacks generations instead of
    // folding back into a full snapshot after every commit.
    let mut base_src = String::from("acct.balance -> 0.\n");
    for i in 0..200 {
        base_src.push_str(&format!("o{i}.val -> {i}.\n"));
    }
    let dir = test_dir("chain");
    let (data_dir, _) = run_killed_workload(&dir, &base_src, 40);
    let recovered = recovered_commits(&data_dir);

    // Deterministically extend whatever chain the kill left behind
    // until its last two generations are deltas. The kill may leave the
    // chain just short of its compaction threshold, so one of these
    // checkpoints may write a full generation; the deltas after it
    // stack on that one.
    let mut db = Database::open_dir(&data_dir).unwrap();
    let mut outcomes = Vec::new();
    let stacked = |o: &[CheckpointOutcome]| {
        o.len() >= 3
            && o[o.len() - 2..].iter().all(|o| matches!(o, CheckpointOutcome::Delta { .. }))
    };
    while !stacked(&outcomes) {
        assert!(outcomes.len() < 16, "the chain never stacked: {outcomes:?}");
        db.apply_src("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        outcomes.push(db.checkpoint().unwrap());
    }
    drop(db);
    let balance = recovered + outcomes.len() as i64;

    let state = read_state(&data_dir).unwrap();
    let gens = &state.checkpoint.as_ref().expect("chain exists").generations;
    assert!(gens.len() >= 3, "expected a stacked chain, got {} generation(s)", gens.len());
    assert_eq!(gens[0].kind, GenerationKind::Full, "generation 0 must be full");
    let last = gens.last().unwrap();
    assert_eq!(last.kind, GenerationKind::Delta);
    assert!(last.dirty_shards >= 1, "a counter bump must dirty at least one shard");
    assert_eq!(recovered_commits(&data_dir), balance);

    // Torn delta tail: garbage appended to the chain (a delta append
    // cut off by a crash) is dropped; everything durable survives.
    let ckpt = data_dir.join("checkpoint.ruvock");
    let clean_chain = std::fs::read(&ckpt).unwrap();
    let mut torn = clean_chain.clone();
    torn.extend_from_slice(&[0xC3; 23]);
    std::fs::write(&ckpt, &torn).unwrap();
    assert_eq!(recovered_commits(&data_dir), balance);

    // Crash mid-compaction: a leftover checkpoint.ruvock.tmp must be
    // ignored by recovery and clobbered by the next full rewrite.
    let tmp = data_dir.join("checkpoint.ruvock.tmp");
    std::fs::write(&tmp, b"half-written full generation").unwrap();
    assert_eq!(recovered_commits(&data_dir), balance);
    let mut db = Database::open_dir(&data_dir).unwrap();
    db.compact().unwrap();
    drop(db);
    assert!(!tmp.exists(), "compaction must consume the tmp file");
    let state = read_state(&data_dir).unwrap();
    let gens = &state.checkpoint.as_ref().expect("chain exists").generations;
    assert_eq!(gens.len(), 1, "compaction folds the chain to one generation");
    assert_eq!(gens[0].kind, GenerationKind::Full);
    assert_eq!(recovered_commits(&data_dir), balance);

    // Corrupt interior generation: stack one more delta, then flip a
    // byte inside generation 0's frame. That generation was durable —
    // recovery must fail closed naming it, not resurrect a prefix.
    let mut db = Database::open_dir(&data_dir).unwrap();
    db.apply_src("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let state = read_state(&data_dir).unwrap();
    assert!(state.checkpoint.as_ref().unwrap().generations.len() >= 2);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    bytes[24] ^= 0xFF; // inside generation 0's frame, past the header
    std::fs::write(&ckpt, &bytes).unwrap();
    let err = Database::open_dir(&data_dir).expect_err("corrupt interior must fail closed");
    let msg = err.to_string();
    assert!(msg.contains("generation #0"), "error must name the generation: {msg}");
}
