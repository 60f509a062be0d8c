//! `txn_stream`: a stream of one-object update programs, each a new
//! program text, committed through a durable `ServingDatabase` while a
//! reader thread takes snapshots; then the directory is reopened and
//! compared with the served head.
//!
//! The evaluation of each program is an index point lookup, so the op
//! is made of everything else: parse and prepare, the session commit,
//! publishing the head, the WAL append with its fsync, the automatic
//! checkpoints, and copy-on-write in the object base.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use ruvo_core::check::check;
use ruvo_core::{
    run_compiled, CheckpointPolicy, CompiledProgram, CyclePolicy, Database, DurabilitySink,
    FsyncPolicy, ServingDatabase, Session, WalProgram, WalStore,
};
use ruvo_lang::Program;
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, oid, sym, Const, Vid};

use super::{LayerInputs, Recorder, Scale, Workload};
use crate::rng::Rng;
use crate::spans::Tracer;
use crate::stats;

/// One commit of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Add `delta` to a live account's balance (`mod`).
    Credit { account: usize, delta: i64 },
    /// Create a fresh account with four facts (`ins` on a new object).
    Open { account: usize, balance: i64 },
    /// Delete every fact of a live account (`del[..].*`).
    Close { account: usize },
    /// Mark a live, unmarked account (`ins` under negation).
    Flag { account: usize },
}

impl Op {
    /// The update program that performs this op: a new text per commit,
    /// in the style of `ruvo_workload::durability`.
    pub fn program(&self) -> String {
        match *self {
            Op::Credit { account: a, delta } => format!(
                "mod[A].balance -> (B, B2) <= A.kind -> live & A.tag -> t{a} & \
                 A.balance -> B & B2 = B + {delta}."
            ),
            Op::Open { account: a, balance } => format!(
                "ins[acct{a}].balance -> {balance}. ins[acct{a}].kind -> live. \
                 ins[acct{a}].tag -> t{a}. ins[acct{a}].owner -> u{a}."
            ),
            Op::Close { account: a } => format!("del[A].* <= A.tag -> t{a}."),
            Op::Flag { account: a } => {
                format!("ins[A].flagged -> 1 <= A.tag -> t{a} & not A.flagged -> 1.")
            }
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Account {
    balance: i64,
    flagged: bool,
}

/// The arithmetic account model the generator keeps: which accounts
/// are live, with what balance and flag. The engine never sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accounts {
    /// Indexed by account number; `None` is closed or not yet opened.
    slots: Vec<Option<Account>>,
    facts: usize,
}

impl Accounts {
    fn seeded(accounts: usize) -> Accounts {
        let slots = (0..accounts)
            .map(|a| Some(Account { balance: 100 * (a as i64 + 1), flagged: false }))
            .collect();
        Accounts { slots, facts: 4 * accounts }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Credit { account, delta } => {
                self.slots[account].as_mut().expect("credits go to live accounts").balance += delta;
            }
            Op::Open { account, balance } => {
                if self.slots.len() <= account {
                    self.slots.resize(account + 1, None);
                }
                self.slots[account] = Some(Account { balance, flagged: false });
                self.facts += 4;
            }
            Op::Close { account } => {
                let closed = self.slots[account].take().expect("closes go to live accounts");
                self.facts -= 4 + usize::from(closed.flagged);
            }
            Op::Flag { account } => {
                self.slots[account].as_mut().expect("flags go to live accounts").flagged = true;
                self.facts += 1;
            }
        }
    }

    /// Facts the object base must hold: four per live account and one
    /// per flag.
    pub fn facts(&self) -> usize {
        self.facts
    }

    #[cfg(test)]
    fn live(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// The object base this model describes.
    pub fn object_base(&self) -> ObjectBase {
        let mut ob = ObjectBase::new();
        for (a, account) in self.slots.iter().enumerate() {
            let Some(account) = account else { continue };
            let v = Vid::object(oid(&format!("acct{a}")));
            ob.insert(v, sym("balance"), Args::empty(), int(account.balance));
            ob.insert(v, sym("kind"), Args::empty(), oid("live"));
            ob.insert(v, sym("tag"), Args::empty(), oid(&format!("t{a}")));
            ob.insert(v, sym("owner"), Args::empty(), oid(&format!("u{a}")));
            if account.flagged {
                ob.insert(v, sym("flagged"), Args::empty(), int(1));
            }
        }
        ob
    }
}

/// Generate the seed accounts and `commits` ops: 55 % credits, 15 %
/// each of opens, closes and flags. Opens and closes are equally
/// likely, so the base stays near its starting size however long the
/// stream runs; every op changes the base (a flag that would find its
/// account already flagged is generated as a credit instead).
pub fn generate(seed: u64, accounts: usize, commits: usize) -> (Accounts, Vec<Op>) {
    let mut rng = Rng::new(seed ^ 0x7A17);
    let start = Accounts::seeded(accounts);
    let mut model = start.clone();
    let mut live: Vec<usize> = (0..accounts).collect();
    let mut next_fresh = accounts;
    let mut ops = Vec::with_capacity(commits);
    for _ in 0..commits {
        let kind = rng.below(100);
        let pick = rng.below(live.len());
        let account = live[pick];
        let credit = Op::Credit { account, delta: rng.range(1, 50) };
        let op = match kind {
            0..=54 => credit,
            55..=69 => {
                live.push(next_fresh);
                next_fresh += 1;
                Op::Open { account: next_fresh - 1, balance: rng.range(10, 500) }
            }
            70..=84 if live.len() > accounts / 2 => {
                live.swap_remove(pick);
                Op::Close { account }
            }
            85.. if !model.slots[account].expect("picked from live").flagged => {
                Op::Flag { account }
            }
            _ => credit,
        };
        model.apply(op);
        ops.push(op);
    }
    (start, ops)
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderStats {
    batch_us: Vec<f64>,
    lookups: u64,
    seconds: f64,
    /// Accounts seen in a state no commit ever produced.
    torn: u64,
}

/// Lookups per reader batch: 32 accounts, `kind` and `balance` each.
const BATCH_ACCOUNTS: usize = 32;

pub struct TxnStream {
    start: Accounts,
    ops: Vec<Op>,
    programs: Vec<String>,
    /// Account OIDs in the order the reader visits them.
    reader_order: Vec<Const>,
    with_reader: bool,
    dir: PathBuf,
    /// The durable serving database, until a block consumes it.
    db: Option<ServingDatabase>,
    goals: Vec<(String, Vec<Vec<Const>>)>,
    store_records: usize,
}

/// The program the probes' goals are asked against.
const INTEREST_PROGRAM: &str =
    "interest: mod[A].balance -> (B, B2) <= A.kind -> live & A.balance -> B & B2 = B + 1.";

impl TxnStream {
    pub fn setup(seed: u64, scale: Scale) -> TxnStream {
        let (accounts, commits, store_records) = match scale {
            Scale::Full => (300, 1300, 256),
            Scale::Smoke => (40, 150, 16),
        };
        let (start, ops) = generate(seed, accounts, commits);
        let programs: Vec<String> = ops.iter().map(Op::program).collect();
        let opened = ops.iter().filter(|op| matches!(op, Op::Open { .. })).count();
        let mut reader_order: Vec<Const> =
            (0..accounts + opened).map(|a| oid(&format!("acct{a}"))).collect();
        let mut rng = Rng::new(seed ^ 0x4EAD);
        rng.shuffle(&mut reader_order);
        let goals = (0..16)
            .map(|_| {
                let a = rng.below(accounts);
                (
                    format!("?- mod(acct{a}).balance -> B."),
                    vec![vec![int(100 * (a as i64 + 1) + 1)]],
                )
            })
            .collect();
        let dir = crate::fresh_dir("txn");
        let db = open_serving(&start, &dir);
        // Warm-up: the first snapshot and the cached working copy.
        drop(db.snapshot());
        TxnStream {
            start,
            ops,
            programs,
            reader_order,
            with_reader: crate::host::nproc() >= 2,
            dir,
            db: Some(db),
            goals,
            store_records,
        }
    }
}

fn open_serving(start: &Accounts, dir: &std::path::Path) -> ServingDatabase {
    Database::open(start.object_base())
        .into_serving_durable(dir)
        .expect("a fresh directory under the benchmark's output directory opens")
}

/// Snapshot, then look up `kind` and `balance` of the next accounts in
/// the shuffled order; an account that is live must have exactly one
/// balance, one that is not must have none.
fn read_until(db: &ServingDatabase, order: &[Const], stop: &AtomicBool) -> ReaderStats {
    let mut stats = ReaderStats::default();
    let live = [oid("live")];
    let mut at = 0;
    let started = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let batch = Instant::now();
        let snapshot = db.snapshot();
        for _ in 0..BATCH_ACCOUNTS {
            let account = order[at % order.len()];
            at += 1;
            let kind = snapshot.lookup1(account, "kind");
            let balance = snapshot.lookup1(account, "balance");
            let consistent = if kind.is_empty() {
                balance.is_empty()
            } else {
                kind == live && balance.len() == 1
            };
            stats.torn += u64::from(!consistent);
        }
        stats.batch_us.push(batch.elapsed().as_secs_f64() * 1e6);
        stats.lookups += 2 * BATCH_ACCOUNTS as u64;
    }
    stats.seconds = started.elapsed().as_secs_f64();
    stats
}

impl Workload for TxnStream {
    fn block_ops(&self) -> usize {
        self.ops.len()
    }

    /// The whole block: past the 1 024th record, so the trace holds the
    /// automatic checkpoint.
    fn traced_ops(&self) -> usize {
        self.ops.len()
    }

    fn run_block(&mut self, ops: usize, rec: &mut Recorder) {
        let db = match self.db.take() {
            Some(db) => db,
            None => {
                self.dir = crate::fresh_dir("txn");
                open_serving(&self.start, &self.dir)
            }
        };
        let mut model = self.start.clone();
        let stop = AtomicBool::new(false);
        let written_before = crate::host::write_bytes();
        let mut latencies_ms = Vec::with_capacity(ops);

        let reader = std::thread::scope(|scope| {
            let reader = self
                .with_reader
                .then(|| scope.spawn(|| read_until(&db, &self.reader_order, &stop)));
            for (i, (op, src)) in self.ops.iter().zip(&self.programs).take(ops).enumerate() {
                if i % 64 == 0 && rec.over_rss_guard("txn_stream", ops - i) {
                    break;
                }
                let start = Instant::now();
                let result = db.apply_src(src);
                latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                rec.attempted += 1;
                model.apply(*op);
                match result {
                    Ok(applied) if applied.facts_after == model.facts() => {}
                    Ok(applied) => {
                        let (got, want) = (applied.facts_after, model.facts());
                        rec.fail(1, || {
                            format!("txn_stream: {got} facts after commit {i} ({op:?}), the account model has {want}")
                        });
                    }
                    Err(e) => {
                        rec.fail(1, || format!("txn_stream: commit {i} ({op:?}) failed: {e}"))
                    }
                }
            }
            stop.store(true, Ordering::Release);
            reader.map(|handle| handle.join().expect("reader thread panicked"))
        });
        if latencies_ms.len() < ops {
            // The RSS guard cut the stream short; what follows would
            // only measure the wreckage.
            drop(db);
            let _ = std::fs::remove_dir_all(&self.dir);
            return;
        }
        rec.blocks_ms.push(latencies_ms);

        match (written_before, crate::host::write_bytes()) {
            (Some(before), Some(after)) => {
                rec.extra("disk_write_bytes_per_commit", (after - before) as f64 / ops as f64);
            }
            _ => rec.skip("disk_write_bytes_per_commit", "/proc/self/io is unreadable"),
        }
        match reader {
            Some(stats) => {
                rec.extra("reads_per_s", stats.lookups as f64 / stats.seconds);
                rec.extra("read_p99_us", stats::percentile(&stats::sorted(&stats.batch_us), 0.99));
                rec.attempted += stats.lookups / 2;
                if stats.torn > 0 {
                    let torn = stats.torn;
                    rec.fail(torn, || format!("txn_stream: reader saw {torn} torn accounts"));
                }
            }
            None => {
                for name in ["reads_per_s", "read_p99_us"] {
                    rec.skip(name, "one hardware thread: the reader is off");
                }
            }
        }

        // The served head against the account model, then recovery
        // against the served head.
        let head = db.current();
        rec.attempted += 2;
        if *head != model.object_base() {
            rec.fail(1, || "txn_stream: served head differs from the account model".into());
        }
        drop(db);
        let start = Instant::now();
        let recovered = Database::open_dir(&self.dir);
        rec.extra("recover_s", start.elapsed().as_secs_f64());
        match recovered {
            Ok(recovered) if *recovered.current() == *head => {}
            Ok(_) => {
                rec.fail(1, || "txn_stream: recovered base differs from the served head".into())
            }
            Err(e) => rec.fail(1, || format!("txn_stream: recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn trace_block(&mut self, ops: usize, tracer: &mut Tracer, rec: &mut Recorder) {
        // What `ServingDatabase::apply_src` does on a durable database,
        // one public call at a time: a volatile session for the commit
        // and a stand-alone store for the log (the serving layer's own
        // queue and publication have no public pieces to call).
        let mut session = Session::new(self.start.object_base());
        let dir = crate::fresh_dir("txn-traced");
        let mut wal = WalStore::open(&dir, FsyncPolicy::default(), CheckpointPolicy::default())
            .expect("a fresh directory opens")
            .store;
        wal.checkpoint(session.current()).expect("the seed state checkpoints");
        let mut model = self.start.clone();
        for (i, (op, src)) in self.ops.iter().zip(&self.programs).take(ops).enumerate() {
            tracer.next_op();
            let result = tracer.span("op", |t| -> Result<(), ruvo_core::Error> {
                let program = t.span("lang.parse", |_| Program::parse(src))?;
                let compiled = t.span("database.prepare", |_| {
                    let compiled = CompiledProgram::compile(program, CyclePolicy::Reject)?;
                    std::hint::black_box(check(&compiled));
                    Ok::<_, ruvo_core::Error>(compiled)
                })?;
                let work = t.span("session.prepared_work", |_| session.prepared_work());
                let outcome =
                    t.span("engine.evaluate", |_| run_compiled(&compiled, session.config(), work))?;
                t.span("session.commit", |_| session.commit(outcome).map(|_| ()))?;
                t.span("store.append", |_| {
                    let entry = WalProgram {
                        cycles: compiled.cycle_policy(),
                        source: compiled.source_text(),
                    };
                    wal.append_batch(&[entry], session.current())
                })?;
                Ok(())
            });
            rec.attempted += 1;
            model.apply(*op);
            match result {
                Ok(()) if session.current().len() == model.facts() => {}
                Ok(()) => rec
                    .fail(1, || format!("txn_stream: traced commit {i} left the wrong fact count")),
                Err(e) => rec.fail(1, || format!("txn_stream: traced commit {i} failed: {e}")),
            }
        }
        rec.attempted += 1;
        if *session.current() != model.object_base() {
            rec.fail(1, || "txn_stream: traced head differs from the account model".into());
        }
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn layer_inputs(&self) -> LayerInputs {
        LayerInputs {
            base: self.start.object_base(),
            apply_base: self.start.object_base(),
            lookup_method: "balance",
            programs: self.programs.clone(),
            query_program: INTEREST_PROGRAM.to_string(),
            goals: self.goals.clone(),
            store_records: self.store_records,
        }
    }
}

impl Drop for TxnStream {
    fn drop(&mut self) {
        // A set-up that no block consumed still owns its directory.
        if self.db.take().is_some() {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_reproducible_and_mixed() {
        let (start, ops) = generate(11, 300, 3900);
        assert_eq!((start.clone(), ops.clone()), generate(11, 300, 3900));
        assert_ne!(ops, generate(12, 300, 3900).1);
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count() as f64 / 3900.0;
        assert!((share(|op| matches!(op, Op::Open { .. })) - 0.15).abs() < 0.03);
        assert!((share(|op| matches!(op, Op::Close { .. })) - 0.15).abs() < 0.03);
        assert!(share(|op| matches!(op, Op::Credit { .. })) > 0.5);
        assert!(share(|op| matches!(op, Op::Flag { .. })) > 0.05);
    }

    #[test]
    fn balanced_mix_keeps_the_base_near_its_starting_size() {
        // The sizing note in the README rests on this: whatever the
        // seed, the stream ends within a third of the 300 live accounts
        // it started with, so memory is set by what commits retain and
        // not by a growing base.
        for seed in 1..=20 {
            let (mut model, ops) = generate(seed, 300, 3900);
            for &op in &ops {
                model.apply(op);
                assert!((200..=400).contains(&model.live()), "seed {seed}: {} live", model.live());
            }
        }
    }

    #[test]
    fn model_counts_facts_like_its_object_base() {
        let (mut model, ops) = generate(5, 20, 400);
        assert_eq!(model.facts(), 80);
        for &op in &ops {
            model.apply(op);
        }
        assert_eq!(model.object_base().len(), model.facts());
        assert_eq!(
            model.live() * 4 + model.slots.iter().flatten().filter(|a| a.flagged).count(),
            model.facts()
        );
    }

    #[test]
    fn model_follows_each_op_kind() {
        let mut model = Accounts::seeded(2);
        model.apply(Op::Credit { account: 1, delta: 7 });
        model.apply(Op::Flag { account: 1 });
        model.apply(Op::Open { account: 2, balance: 30 });
        model.apply(Op::Close { account: 0 });
        assert_eq!(model.slots[0], None);
        assert_eq!(model.slots[1], Some(Account { balance: 207, flagged: true }));
        assert_eq!(model.slots[2], Some(Account { balance: 30, flagged: false }));
        assert_eq!(model.facts(), 9);
        let ob = model.object_base();
        assert_eq!(ob.lookup1(oid("acct1"), "balance"), vec![int(207)]);
        assert_eq!(ob.lookup1(oid("acct1"), "flagged"), vec![int(1)]);
        assert!(ob.lookup1(oid("acct0"), "kind").is_empty());
    }

    #[test]
    fn stream_commits_recovers_and_traces_at_smoke_scale() {
        let mut w = TxnStream::setup(9, Scale::Smoke);
        let ops = w.block_ops();
        let mut rec = Recorder::default();
        w.run_block(ops, &mut rec);
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);
        assert_eq!(rec.blocks_ms[0].len(), ops);
        assert_eq!(rec.extras["recover_s"].len(), 1);
        w.trace_block(ops, &mut Tracer::new(), &mut rec);
        assert_eq!(rec.failed, 0, "{:?}", rec.failures);
    }
}
