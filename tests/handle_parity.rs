//! Handle parity: a verb means the same thing whichever handle
//! delivers it, because every handle writes through one session.
//!
//! One script of verbs and inputs runs through `Database`,
//! `Transaction` (each write inside its own `transact` block) and
//! `ServingDatabase`, each volatile and durable. After every step all
//! six agree on the step's `ErrorKind`, the head, the commit count,
//! and the newest transaction's `seq` and whether it holds
//! `result(P)`; the three durable ones also agree on the WAL record
//! count and on the head a reopen of their directory recovers, which is
//! the live head.
//!
//! A verb a handle does not have runs on the handle it belongs to:
//! `prepare`, `query`, savepoints and checkpoints of a `Transaction`
//! on its `Database`, and the savepoint verbs of a `ServingDatabase`
//! on the `Database` it unwraps into.

use std::path::{Path, PathBuf};

use ruvo::core::store::{self, FsyncPolicy};
use ruvo::prelude::*;

const BASE: &str = "acct.balance -> 100.
    o0.next -> o1. o1.next -> o2. o2.next -> o3. o3.next -> o4. o4.next -> o5.";
const CREDIT: &str = "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.";
const NOT_A_PROGRAM: &str = "this is not a program";
/// Denied by every handle's builder (`deny_lint(Lint::DeadRule)`).
const DEAD_RULE: &str = "r1: ins[x].p -> 1 <= ins(y).q -> 1.";
/// `mod` and `del` branch off one version: §5 rejects the result.
const BRANCHY: &str = "mod[acct].balance -> (B, 0) <= acct.balance -> B.
    del[acct].balance -> B <= acct.balance -> B.";
/// Needs a round per chain link, more than the builders' limit of 3.
const CLOSURE: &str = "tc1: ins[X].reach -> Y <= X.next -> Y.
    tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.";

#[derive(Clone, Copy, Debug)]
enum Step {
    Prepare(&'static str),
    /// Prepare through the handle, then apply the prepared program.
    Apply(&'static str),
    ApplySrc(&'static str),
    Transact(&'static [&'static str]),
    /// A goal against [`CREDIT`].
    Query(&'static str),
    /// Savepoint, one credit, rollback — to the savepoint, or to a
    /// later one that rolling back to the first invalidated.
    SavepointRollback {
        invalidated: bool,
    },
    Checkpoint,
}

const SCRIPT: &[(Step, Option<ErrorKind>)] = &[
    (Step::Prepare(NOT_A_PROGRAM), Some(ErrorKind::Parse)),
    (Step::Prepare(DEAD_RULE), Some(ErrorKind::Lint)),
    (Step::Prepare(CREDIT), None),
    (Step::Apply(CREDIT), None),
    (Step::Apply(BRANCHY), Some(ErrorKind::Linearity)),
    (Step::Apply(CLOSURE), Some(ErrorKind::RoundLimit)),
    (Step::ApplySrc(NOT_A_PROGRAM), Some(ErrorKind::Parse)),
    (Step::ApplySrc(DEAD_RULE), Some(ErrorKind::Lint)),
    (Step::ApplySrc(CREDIT), None),
    (Step::Transact(&[CREDIT, CREDIT]), None),
    (Step::Transact(&[CREDIT, NOT_A_PROGRAM]), Some(ErrorKind::Parse)),
    (Step::Transact(&[CREDIT, BRANCHY]), Some(ErrorKind::Linearity)),
    (Step::Transact(&[CREDIT, CLOSURE]), Some(ErrorKind::RoundLimit)),
    (Step::Query("?- mod(acct).balance -> B."), None),
    (Step::Query("?- not a goal"), Some(ErrorKind::Parse)),
    (Step::SavepointRollback { invalidated: false }, None),
    (Step::SavepointRollback { invalidated: true }, Some(ErrorKind::UnknownSavepoint)),
    (Step::Checkpoint, None),
    (Step::ApplySrc(CREDIT), None),
    (Step::Transact(&[CREDIT, DEAD_RULE]), Some(ErrorKind::Lint)),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Via {
    Database,
    Transaction,
    Serving,
}

enum Writer {
    Db(Database),
    Serving(ServingDatabase),
}

struct Handle {
    via: Via,
    /// The data directory of a durable handle.
    dir: Option<PathBuf>,
    writer: Writer,
}

fn builder() -> ruvo::DatabaseBuilder {
    Database::builder().deny_lints([Lint::DeadRule]).max_rounds_per_stratum(3)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruvo-parity-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The head a reopen of `dir` recovers, read from a copy so the live
/// handle's directory is never opened twice.
fn reopened_head(dir: &Path) -> ObjectBase {
    let copy = tmp_dir(&format!("{}-copy", dir.file_name().unwrap().to_string_lossy()));
    std::fs::create_dir_all(&copy).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, copy.join(path.file_name().unwrap())).unwrap();
    }
    let head = builder().data_dir(&copy).open_dir().unwrap().current().clone();
    std::fs::remove_dir_all(&copy).unwrap();
    head
}

/// What every handle must agree on after a step.
#[derive(Debug, PartialEq)]
struct Seen {
    head: ObjectBase,
    log_len: usize,
    /// The newest transaction's `seq`, and whether it keeps `result(P)`.
    newest: Option<(usize, bool)>,
}

impl Handle {
    fn open(via: Via, durable: bool) -> Handle {
        let (db, dir) = if durable {
            let dir = tmp_dir(&format!("{via:?}"));
            let db = builder()
                .data_dir(&dir)
                .fsync(FsyncPolicy::Never)
                .seed_src(BASE)
                .unwrap()
                .open_dir()
                .unwrap();
            (db, Some(dir))
        } else {
            (builder().open_src(BASE).unwrap(), None)
        };
        let writer = match via {
            Via::Serving => Writer::Serving(db.into_serving()),
            Via::Database | Via::Transaction => Writer::Db(db),
        };
        Handle { via, dir, writer }
    }

    fn prepare(&self, src: &str) -> Result<Prepared, Error> {
        match &self.writer {
            Writer::Db(db) => db.prepare(src),
            Writer::Serving(serving) => serving.prepare(src),
        }
    }

    fn apply(&mut self, prepared: &Prepared) -> Result<(), Error> {
        match &mut self.writer {
            Writer::Serving(serving) => serving.apply(prepared).map(drop),
            Writer::Db(db) if self.via == Via::Transaction => db.transact(|t| t.apply(prepared)),
            Writer::Db(db) => db.apply(prepared).map(drop),
        }
    }

    fn apply_src(&mut self, src: &str) -> Result<(), Error> {
        match &mut self.writer {
            Writer::Serving(serving) => serving.apply_src(src).map(drop),
            Writer::Db(db) if self.via == Via::Transaction => db.transact(|t| t.apply_src(src)),
            Writer::Db(db) => db.apply_src(src).map(drop),
        }
    }

    fn transact(&mut self, sources: &[&str]) -> Result<(), Error> {
        let block = |t: &mut Transaction<'_>| sources.iter().try_for_each(|src| t.apply_src(src));
        match &mut self.writer {
            Writer::Db(db) => db.transact(block),
            Writer::Serving(serving) => serving.transact(block),
        }
    }

    /// Run `f` on the single-owner database behind this handle; a
    /// serving handle unwraps into it and is rebuilt afterwards.
    fn with_database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        match &mut self.writer {
            Writer::Db(db) => f(db),
            Writer::Serving(serving) => {
                let placeholder = ServingDatabase::open(ObjectBase::new());
                let owned = std::mem::replace(serving, placeholder);
                let mut db = owned.into_database().expect("the only handle");
                let result = f(&mut db);
                *serving = db.into_serving();
                result
            }
        }
    }

    fn run(&mut self, step: Step) -> Result<Option<Vec<Vec<Const>>>, ErrorKind> {
        let result = match step {
            Step::Prepare(src) => self.prepare(src).map(|_| None),
            Step::Apply(src) => {
                let prepared = self.prepare(src).expect("applied programs prepare");
                self.apply(&prepared).map(|()| None)
            }
            Step::ApplySrc(src) => self.apply_src(src).map(|()| None),
            Step::Transact(sources) => self.transact(sources).map(|()| None),
            Step::Query(goal) => {
                let credit = self.prepare(CREDIT).unwrap();
                match &self.writer {
                    Writer::Db(db) => db.query_src(&credit, goal),
                    Writer::Serving(serving) => serving.query_src(&credit, goal),
                }
                .map(|answers| Some(answers.rows))
            }
            Step::SavepointRollback { invalidated } => {
                let in_transact = self.via == Via::Transaction;
                self.with_database(|db| {
                    let savepoint = db.savepoint();
                    if in_transact {
                        db.transact(|t| t.apply_src(CREDIT))?;
                    } else {
                        db.apply_src(CREDIT)?;
                    }
                    let target = if invalidated {
                        let later = db.savepoint();
                        db.rollback_to(savepoint)?;
                        later
                    } else {
                        savepoint
                    };
                    db.rollback_to(target).map(|()| None)
                })
            }
            Step::Checkpoint => match &mut self.writer {
                Writer::Db(db) => db.checkpoint().map(|_| None),
                Writer::Serving(serving) => serving.checkpoint().map(|_| None),
            },
        };
        result.map_err(|e| e.kind())
    }

    fn seen(&self) -> Seen {
        let newest = |t: &ruvo::core::Txn| (t.seq, !t.outcome.result().is_empty());
        match &self.writer {
            Writer::Db(db) => Seen {
                head: db.current().clone(),
                log_len: db.len(),
                newest: db.last_txn().map(newest),
            },
            Writer::Serving(serving) => Seen {
                head: (*serving.current()).clone(),
                log_len: serving.commits(),
                newest: serving.last_txn().unwrap().as_deref().map(newest),
            },
        }
    }
}

#[test]
fn every_handle_agrees_on_every_verb() {
    let mut handles: Vec<Handle> = [false, true]
        .into_iter()
        .flat_map(|durable| {
            [Via::Database, Via::Transaction, Via::Serving].map(|via| Handle::open(via, durable))
        })
        .collect();
    for (i, &(step, expected)) in SCRIPT.iter().enumerate() {
        let mut first = None;
        let mut first_records = None;
        for handle in &mut handles {
            let label = format!(
                "step {i} {step:?} via {:?} (durable: {})",
                handle.via,
                handle.dir.is_some()
            );
            let outcome = handle.run(step);
            assert_eq!(outcome.as_ref().err().copied(), expected, "{label}");
            let seen = (outcome, handle.seen());
            match &first {
                None => first = Some(seen),
                Some(first) => assert_eq!(&seen, first, "{label}"),
            }
            if let Some(dir) = &handle.dir {
                let records = store::read_state(dir).unwrap().records.len();
                assert_eq!(*first_records.get_or_insert(records), records, "{label}");
                assert_eq!(reopened_head(dir), handle.seen().head, "{label}: reopened head");
            }
        }
    }
    // The script moved the state: two credits, a two-credit transact,
    // one after the checkpoint; everything else failed or rolled back.
    let Seen { head, log_len, newest } = handles[0].seen();
    assert_eq!(head.lookup1(oid("acct"), "balance"), vec![int(350)]);
    assert_eq!((log_len, newest), (5, Some((4, true))));
    let dirs: Vec<PathBuf> = handles.iter().filter_map(|h| h.dir.clone()).collect();
    drop(handles);
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
