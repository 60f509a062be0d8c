//! The one writer core: a sequence of update-programs applied to an
//! evolving object base.
//!
//! §2.2: "We conceive an update-program as a mapping from an (old)
//! object-base into a (new) object-base." A [`Session`] chains such
//! mappings with all-or-nothing semantics: a program that fails —
//! not stratifiable, unsafe, non-version-linear, or over the round
//! budget — leaves the object base exactly as it was.
//!
//! Every handle writes through one session: [`crate::Database`] owns
//! one, its [`crate::Transaction`] borrows it, and
//! [`crate::ServingDatabase`] keeps one behind its writer lock. Every
//! write — one program, a group-commit drain, a whole `transact` block
//! — runs in one *record scope*. The scope captures the head, the
//! commit count, the newest transaction and the pending WAL entries; a
//! failing body restores all four, and only the outermost scope's
//! success appends (one WAL record). So a write means the same thing
//! whichever handle delivers it, and an aborted block leaves the
//! session — on disk and in memory — as it was.
//!
//! Between transactions the object base is the *flat* `ob′` of §5
//! (final versions only). A commit that touched few objects edits the
//! committed base once per touched object; a wide one rebuilds `ob′`
//! from `result(P)`. The session keeps the newest transaction whole —
//! its [`Outcome`] with `result(P)`'s version history — and a count of
//! the commits before it; an older transaction is gone once the next
//! one lands, so a session retains nothing per commit.
//!
//! A `Session` is public only for driving the engine by hand: start
//! one ([`Session::new`]), read its head, hand a
//! [`Session::prepared_work`] copy to [`crate::run_compiled`] and
//! [`Session::commit`] the outcome. Programs, transactions, savepoints
//! and checkpoints go through the handles.
//!
//! ## Durability
//!
//! A session owns a [`DurabilitySink`]; the default is volatile
//! (no sink — commits live and die with the process, and no program
//! source is rendered). With a sink attached (see
//! [`crate::Database::open_dir`]), the outermost record scope appends
//! its commits to the write-ahead log as **one** record *before* the
//! caller is acknowledged; if the append fails, the in-memory commits
//! are rolled back too, so memory and disk never disagree about what
//! was acknowledged.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use ruvo_obase::{ObjectBase, Snapshot};
use ruvo_term::Vid;

use crate::database::Error;
use crate::engine::{run_compiled, CompiledProgram, EngineConfig, Outcome};
use crate::store::{
    CheckpointMode, CheckpointOutcome, CheckpointPlan, DurabilitySink, EncodedCheckpoint,
    StorageError, WalProgram,
};

/// Handle to a rollback point; see [`crate::Database::savepoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SavepointId(pub(crate) u64);

/// A commit edits the head in place when the run touched at most one
/// object in this many of the head's; wider runs rebuild `ob′` (§5).
/// An edit pays per touched fact and copies each copy-on-write leaf it
/// writes to, while a rebuild re-inserts only what survives into empty
/// maps: on a 10 000-object base, emptying the touched objects is
/// cheaper to rebuild from a touched share between 1/3 and 1/2 on, and
/// 1/4 keeps the edit near 0.35× the rebuild (`records/pr30-crossover.txt`,
/// from `tests::commit_width_crossover_sweep`).
const NARROW_COMMIT_SHARE: usize = 4;

/// One committed transaction.
#[derive(Clone, Debug)]
pub struct Txn {
    /// Sequence number (0-based): the commits before this one.
    pub seq: usize,
    /// The whole evaluation outcome, `result(P)` with every version
    /// included.
    pub outcome: Outcome,
    /// Facts in the object base after this transaction.
    pub facts_after: usize,
}

/// A sequence of update-program applications over one object base.
///
/// The committed base is held behind an [`Arc`]: commits install a new
/// shared state, so read views and savepoints are O(1) and never block
/// or copy the store.
#[derive(Debug, Default)]
pub struct Session {
    ob: Arc<ObjectBase>,
    /// The newest committed transaction; `None` before the first commit
    /// and after a rollback past one. Shared so that a record scope can
    /// restore the one its body's commits replaced.
    last: Option<Arc<Txn>>,
    /// Transactions committed so far: the next commit's `seq`.
    commits: usize,
    config: EngineConfig,
    savepoints: Vec<(SavepointId, usize, Arc<ObjectBase>)>,
    next_savepoint: u64,
    /// Where committed batches go; `None` is the volatile fast path
    /// (no program-source rendering, no appends).
    sink: Option<Box<dyn DurabilitySink>>,
    /// The WAL entries of the open record scope's commits, appended as
    /// one record when the outermost scope succeeds. Only durable
    /// sessions push entries.
    buffered: Vec<WalProgram>,
    /// True while a record scope is open (see `Session::record`).
    recording: bool,
}

impl Clone for Session {
    /// Cloning forks the in-memory state only: the clone is
    /// **volatile** (no durability sink), because two sessions
    /// appending divergent histories to one log would corrupt it. The
    /// original keeps the sink.
    fn clone(&self) -> Session {
        Session {
            ob: Arc::clone(&self.ob),
            last: self.last.clone(),
            commits: self.commits,
            config: self.config.clone(),
            savepoints: self.savepoints.clone(),
            next_savepoint: self.next_savepoint,
            sink: None,
            buffered: Vec::new(),
            recording: false,
        }
    }
}

impl Session {
    /// Start a session on `ob`, minus its empty versions: a version
    /// holding only `exists` disappears, as §5 would make it on the
    /// first commit. So a committed base never holds one, and
    /// [`ObjectBase::is_flat`] is its shape check.
    pub fn new(mut ob: ObjectBase) -> Session {
        ob.remove_empty_versions();
        Session { ob: Arc::new(ob), ..Default::default() }
    }

    /// Use `config` for subsequent transactions.
    pub(crate) fn with_config(mut self, config: EngineConfig) -> Session {
        self.config = config;
        self
    }

    /// Write every subsequent commit through `sink` (see the
    /// [module docs](self) on durability).
    pub(crate) fn set_sink(&mut self, sink: Box<dyn DurabilitySink>) {
        self.sink = Some(sink);
    }

    /// True when commits are written through a durability sink.
    pub(crate) fn is_durable(&self) -> bool {
        self.sink.is_some()
    }

    /// The current object base.
    pub fn current(&self) -> &ObjectBase {
        &self.ob
    }

    /// The committed base as its shared handle (what a commit installs
    /// and what [`crate::ServingDatabase`] publishes as the head).
    pub fn current_shared(&self) -> Arc<ObjectBase> {
        Arc::clone(&self.ob)
    }

    /// The engine configuration used for transactions.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The newest committed transaction, whole; `None` before the first
    /// commit and after a rollback past one.
    pub(crate) fn last_txn(&self) -> Option<&Arc<Txn>> {
        self.last.as_ref()
    }

    /// How many transactions have been committed.
    pub(crate) fn commits(&self) -> usize {
        self.commits
    }

    /// A working copy of the committed base, ready for the engine: an
    /// O(shards) copy-on-write clone. Nothing needs preparing — `exists`
    /// is the version table (§3) — so repeated applications and
    /// hypothetical dry runs against one committed state pay for what
    /// they touch.
    pub fn prepared_work(&self) -> ObjectBase {
        (*self.ob).clone()
    }

    /// Commit an evaluation outcome produced against the current base
    /// (a [`Session::prepared_work`] copy of it): install its `ob′` and
    /// log the transaction. On error (non-version-linear result) the
    /// session is untouched. A narrow outcome only rewrites the objects
    /// it touched, so one produced against any other base commits
    /// those objects onto this one.
    ///
    /// A durable session refuses with [`StorageError::Misuse`] and
    /// stays untouched: an outcome carries no program source for the
    /// write-ahead log. Commit through the handles' `apply` there,
    /// which logs the program as one WAL record.
    pub fn commit(&mut self, outcome: Outcome) -> Result<&Txn, Error> {
        if self.sink.is_some() {
            return Err(Error::Storage(StorageError::Misuse(
                "a durable session cannot log a bare outcome; apply its program instead",
            )));
        }
        Session::record(self, |s| s, |s| s.install(outcome))?;
        Ok(self.last.as_deref().expect("just committed"))
    }

    /// Run one compiled program and commit its outcome, as one record
    /// scope: the program's WAL entry is rendered only on durable
    /// sessions. The compiled cycle policy wins over the session
    /// config's.
    pub(crate) fn apply_compiled(&mut self, compiled: &CompiledProgram) -> Result<&Txn, Error> {
        Session::record(
            self,
            |s| s,
            |s| {
                let outcome = run_compiled(compiled, &s.config, s.prepared_work())?;
                s.install(outcome)?;
                if s.sink.is_some() {
                    let source = compiled.source_text();
                    s.buffered.push(WalProgram { cycles: compiled.cycle_policy(), source });
                }
                Ok(())
            },
        )?;
        Ok(self.last.as_deref().expect("just committed"))
    }

    /// Apply several compiled programs back to back, one transaction
    /// each, returning per-program receipts of `(seq, facts_after,
    /// state right after that member's commit)` — the group-commit
    /// drain of [`crate::ServingDatabase`].
    ///
    /// The batch is one record scope and each member a nested one, so
    /// members are **not** atomic as a unit: a failing program leaves
    /// the session exactly as the previous one committed it, keeps its
    /// own error, and later programs still run. On a durable session
    /// the successful members are appended as **one** WAL record; if
    /// that append fails, every one of them is rolled back and reports
    /// the storage error.
    pub(crate) fn apply_batch(
        &mut self,
        batch: &[&CompiledProgram],
    ) -> Vec<Result<(usize, usize, Snapshot), Error>> {
        let mut results = Vec::with_capacity(batch.len());
        let appended = Session::record(
            self,
            |s| s,
            |s| {
                for compiled in batch {
                    let receipt = s.apply_compiled(compiled).map(|txn| (txn.seq, txn.facts_after));
                    results.push(receipt.map(|(seq, facts_after)| {
                        (seq, facts_after, Snapshot::new(Arc::clone(&s.ob)))
                    }));
                }
                Ok(())
            },
        );
        if let Err(e) = appended {
            for result in results.iter_mut().filter(|r| r.is_ok()) {
                *result = Err(e.clone());
            }
        }
        results
    }

    /// The one record scope every write runs in. It captures the head,
    /// the commit count, the newest transaction and the number of
    /// buffered WAL entries, then runs `body` on `host` (the session
    /// itself, or the [`crate::Database`] that `session` projects it
    /// out of):
    ///
    /// * `Err` — or a panic, which then resumes — restores all four,
    ///   at any depth;
    /// * `Ok` in a nested scope leaves the outcome to the outermost one;
    /// * `Ok` in the outermost scope appends the buffered entries as
    ///   one WAL record. A failed append restores the captured state
    ///   and reports [`Error::Storage`].
    ///
    /// Nothing reaches the WAL before the outermost scope succeeds, so
    /// an aborted scope leaves the session — on disk and in memory — as
    /// it was, the transaction that was newest before it included. A
    /// panic also closes the scope: were it left open, later commits
    /// would count as nested and be acknowledged without ever being
    /// appended.
    pub(crate) fn record<H, T>(
        host: &mut H,
        session: fn(&mut H) -> &mut Session,
        body: impl FnOnce(&mut H) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let s = session(host);
        let (head, commits, last, buffered) =
            (Arc::clone(&s.ob), s.commits, s.last.clone(), s.buffered.len());
        let outermost = !std::mem::replace(&mut s.recording, true);
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(host)));
        let s = session(host);
        s.recording = !outermost;
        let result = result.map(|result| {
            result.and_then(|value| {
                if outermost && !s.buffered.is_empty() {
                    let sink = s.sink.as_mut().expect("only durable sessions buffer entries");
                    let appended = sink.append_batch(&s.buffered, &s.ob);
                    s.buffered.clear();
                    appended.map_err(Error::Storage)?;
                }
                Ok(value)
            })
        });
        if !matches!(result, Ok(Ok(_))) {
            s.ob = head;
            s.commits = commits;
            s.last = last;
            s.buffered.truncate(buffered);
        }
        result.unwrap_or_else(|payload| panic::resume_unwind(payload))
    }

    /// Install an outcome in memory as the newest transaction; by width
    /// (see [`NARROW_COMMIT_SHARE`]) either edit the head or rebuild
    /// `ob′`.
    fn install(&mut self, outcome: Outcome) -> Result<(), Error> {
        if self.commits_narrow(&outcome) {
            self.edit_head(&outcome);
        } else {
            // The run-time check saw only what the run touched; a
            // branching seeded head fails here, the §5 commit gate.
            self.ob = Arc::new(outcome.try_new_object_base()?);
        }
        let txn = Txn { seq: self.commits, outcome, facts_after: self.ob.len() };
        self.last = Some(Arc::new(txn));
        self.commits += 1;
        Ok(())
    }

    /// Whether `outcome` commits by editing the head
    /// ([`Session::edit_head`]) rather than by the §5 rebuild: the run
    /// touched at most one object in
    /// [`NARROW_COMMIT_SHARE`] of the head's, and the head is flat.
    /// Decided in O(shards + relations), before anything is collected.
    fn commits_narrow(&self, outcome: &Outcome) -> bool {
        outcome.touched_objects() * NARROW_COMMIT_SHARE <= self.ob.object_count()
            && self.ob.is_flat()
    }

    /// §5 object by object: give every object `outcome` touched the
    /// state of its final version, adopted as-is (an empty state
    /// removes the object); every other object keeps its state. On a
    /// flat head this is the base [`Outcome::try_new_object_base`]
    /// builds, at the cost of the touched objects.
    fn edit_head(&mut self, outcome: &Outcome) {
        let edits: Vec<_> = outcome
            .touched_finals()
            .map(|(base, state)| (Vid::object(base), state.filter(|s| !s.is_empty()).cloned()))
            .collect();
        Arc::make_mut(&mut self.ob).replace_versions_tracked_shared(&edits, None);
    }

    /// Force a durable checkpoint of the committed state now,
    /// synchronously (no-op on a volatile session). With an attached
    /// [`crate::WalStore`] this is incremental: only the shards dirtied
    /// since the last checkpoint are persisted, as a delta generation
    /// appended to the chain.
    pub(crate) fn checkpoint(&mut self) -> Result<CheckpointOutcome, Error> {
        match &mut self.sink {
            Some(sink) => sink.checkpoint(&self.ob).map_err(Error::Storage),
            None => Ok(CheckpointOutcome::Skipped),
        }
    }

    /// Force a full (compacting) checkpoint of the committed state.
    pub(crate) fn checkpoint_full(&mut self) -> Result<CheckpointOutcome, Error> {
        let Some((plan, at)) = self.plan_checkpoint(CheckpointMode::ForceFull) else {
            return Ok(CheckpointOutcome::Skipped);
        };
        let enc = crate::store::encode_checkpoint_plan(&plan, &at);
        self.install_checkpoint(enc)
    }

    /// First half of a background checkpoint: capture what the next
    /// checkpoint must persist, plus the matching shared state handle
    /// — both O(shards). Encode the pair off-thread with
    /// [`crate::store::encode_checkpoint_plan`], then hand the result
    /// to [`Session::install_checkpoint`]. Returns `None` on volatile
    /// sessions.
    pub(crate) fn plan_checkpoint(
        &self,
        mode: CheckpointMode,
    ) -> Option<(CheckpointPlan, Arc<ObjectBase>)> {
        let plan = self.sink.as_ref()?.plan_checkpoint(mode);
        Some((plan, Arc::clone(&self.ob)))
    }

    /// Second half of a background checkpoint: make an encoded
    /// generation durable. Commits that landed between plan and
    /// install are handled — the WAL keeps covering them, and a plan
    /// the chain has outrun installs as
    /// [`CheckpointOutcome::Skipped`].
    pub(crate) fn install_checkpoint(
        &mut self,
        encoded: EncodedCheckpoint,
    ) -> Result<CheckpointOutcome, Error> {
        match &mut self.sink {
            Some(sink) => sink.install_checkpoint(encoded).map_err(Error::Storage),
            None => Ok(CheckpointOutcome::Skipped),
        }
    }

    /// Record a rollback point capturing the commit count and the
    /// current object base — not the newest transaction, so a
    /// savepoint never pins a `result(P)`. O(1): the captured state is
    /// shared, not copied.
    pub(crate) fn savepoint(&mut self) -> SavepointId {
        let id = SavepointId(self.next_savepoint);
        self.next_savepoint += 1;
        self.savepoints.push((id, self.commits, Arc::clone(&self.ob)));
        id
    }

    /// Restore the object base and the commit count to `savepoint`. If
    /// a commit landed since, the session then has no newest
    /// transaction: the one newest at the savepoint was not kept. Later
    /// savepoints are invalidated; the savepoint itself stays valid and
    /// can be rolled back to again.
    ///
    /// On a durable session the rolled-back transactions are already
    /// in the WAL, so the sink first checkpoints the restored state — a
    /// delta of the shards that differ from the last checkpoint, or a
    /// full generation when compaction is due — and truncates the log,
    /// making the dead suffix unreachable to recovery. Only then is the
    /// state installed: a failed checkpoint leaves the session, like
    /// the log, as it was.
    pub(crate) fn rollback_to(&mut self, savepoint: SavepointId) -> Result<(), Error> {
        let idx = self
            .savepoints
            .iter()
            .position(|(id, ..)| *id == savepoint)
            .ok_or(Error::UnknownSavepoint(savepoint))?;
        let (_, commits, ob) = self.savepoints[idx].clone();
        if let Some(sink) = &mut self.sink {
            sink.checkpoint(&ob).map_err(Error::Storage)?;
        }
        self.ob = ob; // Arc clone: the captured state is re-shared.
        if commits < self.commits {
            self.commits = commits;
            self.last = None;
        }
        self.savepoints.truncate(idx + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CyclePolicy;
    use crate::Database;
    use ruvo_lang::Program;
    use ruvo_term::{int, oid};

    const START: &str = "acct.balance -> 100. acct.status -> active.";

    fn compile(src: &str) -> CompiledProgram {
        CompiledProgram::compile(Program::parse(src).unwrap(), CyclePolicy::Reject).unwrap()
    }

    #[test]
    fn prepared_work_is_a_shared_copy_of_the_head() {
        let mut db = Database::open_src(START).unwrap();
        // Nothing to prepare: the working copy shares every
        // copy-on-write shard with the head, `exists` included.
        let w1 = db.session().prepared_work();
        assert!(w1.cow_stats(db.current()).fully_shared());
        assert!(w1.exists_fact(Vid::object(oid("acct"))));

        // It follows commits and rollbacks.
        let sp = db.savepoint();
        db.apply_src("t: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        let w2 = db.session().prepared_work();
        assert_eq!(w2.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert!(w2.cow_stats(db.current()).fully_shared());
        db.rollback_to(sp).unwrap();
        assert_eq!(db.session().prepared_work().lookup1(oid("acct"), "balance"), vec![int(100)]);
    }

    #[test]
    fn the_session_keeps_only_its_newest_transaction() {
        let mut db = Database::open_src(START).unwrap();
        let sp = db.savepoint();
        db.apply_src("a: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        let after_a = db.savepoint();
        // The committed base is flat: the next program's `acct` is the
        // *initial* version again, as §5 prescribes.
        db.apply_src("b: mod[acct].balance -> (150, 75) <= acct.balance -> 150.").unwrap();
        assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(75)]);
        let mod_acct = Vid::object(oid("acct")).apply(ruvo_term::UpdateKind::Mod).unwrap();
        let balance = ruvo_term::sym("balance");
        // The newest transaction's version history stays inspectable.
        let newest = db.last_txn().expect("two transactions");
        assert_eq!((newest.seq, newest.facts_after, db.len()), (1, 2, 2));
        assert!(newest.outcome.result().contains(mod_acct, balance, &[], int(75)));
        assert!(!newest.outcome.stratum_traces().is_empty());
        let newest: *const Txn = newest;

        // An aborted `transact` restores the transaction its commit
        // replaced, result and all.
        let credit = db.prepare("mod[acct].balance -> (75, 80) <= acct.balance -> 75.").unwrap();
        let aborted = db.transact(|txn| {
            txn.apply(&credit)?;
            txn.apply_src("no parse")
        });
        assert!(aborted.is_err());
        assert_eq!(db.len(), 2);
        assert!(std::ptr::eq(db.last_txn().unwrap(), newest));

        // A rollback with no commit since its savepoint keeps the
        // newest transaction; one past a commit leaves none, and the
        // count is the savepoint's.
        let now = db.savepoint();
        db.rollback_to(now).unwrap();
        assert!(std::ptr::eq(db.last_txn().unwrap(), newest));
        db.rollback_to(after_a).unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.last_txn().is_none());
        // The next commit's sequence number continues from that count.
        let c = db.apply_src("c: mod[acct].balance -> (150, 90) <= acct.balance -> 150.").unwrap();
        assert_eq!(c.seq, 1);
        assert!(c.outcome.result().contains(mod_acct, balance, &[], int(90)));
        db.rollback_to(sp).unwrap();
        assert!(db.is_empty() && db.last_txn().is_none());
    }

    #[test]
    fn apply_batch_isolates_member_failures() {
        let credit = compile("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.");
        // A program that needs more rounds than the config allows:
        // r2 only fires in round 2, so quiescence needs round 3 —
        // while the one-rule credit settles within the limit of 2.
        let looping = compile(
            "r1: ins[acct].a -> 1 <= acct.balance -> 150.
             r2: ins[acct].b -> 1 <= ins(acct).a -> 1.",
        );
        let mut s = Session::new(ObjectBase::parse(START).unwrap())
            .with_config(EngineConfig { max_rounds_per_stratum: 2, ..Default::default() });
        let results = s.apply_batch(&[&credit, &looping, &credit]);
        let (seq0, facts0, at0) = results[0].as_ref().unwrap();
        assert_eq!((*seq0, *facts0), (0, 2));
        // The per-member snapshot is that member's post-state, not
        // the batch's final state.
        assert_eq!(at0.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert!(matches!(results[1], Err(Error::RoundLimit { .. })));
        let (seq2, facts2, at2) = results[2].as_ref().unwrap();
        assert_eq!((*seq2, *facts2), (1, 2));
        assert_eq!(at2.lookup1(oid("acct"), "balance"), vec![int(200)]);
        // The failing member committed nothing; both credits landed.
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
        assert_eq!(s.commits(), 2);
    }

    #[test]
    fn commit_refuses_a_bare_outcome_on_a_durable_session() {
        use crate::store::{CheckpointPolicy, FsyncPolicy, WalStore};
        let dir = std::env::temp_dir().join(format!("ruvo-session-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let start = || Session::new(ObjectBase::parse(START).unwrap());
        let mut durable = start();
        durable.set_sink(Box::new(store.store));
        let compiled = compile("mod[acct].balance -> (100, 150) <= acct.balance -> 100.");
        let outcome = run_compiled(&compiled, durable.config(), durable.prepared_work()).unwrap();

        let err = durable.commit(outcome.clone()).unwrap_err();
        assert!(matches!(err, Error::Storage(StorageError::Misuse(_))), "got {err:?}");
        assert_eq!(durable.current(), start().current(), "the refused commit installed nothing");
        assert_eq!(durable.commits(), 0);
        assert!(crate::store::read_state(&dir).unwrap().checkpoint.is_none(), "nothing written");

        let mut volatile = start();
        volatile.commit(outcome).unwrap();
        assert_eq!(volatile.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert_eq!(volatile.commits(), 1);
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `n` flat accounts `acct{i}` with a balance, a tag `t{i}` and
    /// `extra` facts appended by the caller.
    fn accounts(n: usize, extra: impl Fn(usize) -> String) -> ObjectBase {
        let src: String = (0..n)
            .map(|i| format!("acct{i}.balance -> {}. acct{i}.tag -> t{i}. {}\n", 10 * i, extra(i)))
            .collect();
        ObjectBase::parse(&src).unwrap()
    }

    fn outcome_of(s: &Session, src: &str) -> Outcome {
        run_compiled(&compile(src), s.config(), s.prepared_work()).unwrap()
    }

    /// Commit `outcome` both ways — the head edit called directly and
    /// §5's rebuild — and check that they agree and that every index,
    /// `result(P)`'s included, is consistent. Returns the edited
    /// session.
    fn both_paths(s: &Session, outcome: &Outcome) -> Session {
        outcome.result().check_invariants();
        let rebuilt = outcome.try_new_object_base().unwrap();
        rebuilt.check_invariants();
        let mut edited = s.clone();
        edited.edit_head(outcome);
        assert_eq!(edited.current(), &rebuilt);
        edited.current().check_invariants();
        edited
    }

    #[test]
    fn commit_paths_agree() {
        // Wide enough that every program below stays narrow after the
        // 32 steps' closes.
        let n = 16 * NARROW_COMMIT_SHARE;
        for seed in 0..6u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut below = |k: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % k as u64) as usize
            };
            let mut s = Session::new(accounts(n, |i| {
                if i % 3 == 0 {
                    format!("acct{i}.flagged -> 1.")
                } else {
                    String::new()
                }
            }));
            let mut opened = n;
            for step in 0..32 {
                let a = below(opened);
                let src = match below(6) {
                    0 => format!(
                        "mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1."
                    ),
                    1 => format!("ins[A].flagged -> 1 <= A.tag -> t{a} & not A.flagged -> 1."),
                    2 => format!("del[A].* <= A.tag -> t{a}."),
                    3 => {
                        opened += 1;
                        let o = opened - 1;
                        format!("ins[acct{o}].tag -> t{o}. ins[acct{o}].balance -> {step}.")
                    }
                    4 => format!(
                        "r1: mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1.
                         r2: mod[mod(A)].balance -> (B2, B3) <= mod(A).balance -> B2 & B3 = B2 * 2."
                    ),
                    _ => {
                        // Three objects: a credit, a close of another
                        // account, an open.
                        let b = below(opened);
                        opened += 1;
                        let o = opened - 1;
                        format!(
                            "mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B - 1.
                             del[A].* <= A.tag -> t{b} & not A.tag -> t{a}.
                             ins[acct{o}].tag -> t{o}."
                        )
                    }
                };
                let outcome = outcome_of(&s, &src);
                let edited = both_paths(&s, &outcome);
                assert!(s.commits_narrow(&outcome), "seed {seed} step {step}: {src}");
                s.commit(outcome).unwrap();
                assert_eq!(s.current(), edited.current(), "seed {seed} step {step}: {src}");
            }
        }
    }

    #[test]
    fn the_width_constant_splits_narrow_from_wide() {
        // `under` touches exactly one object in NARROW_COMMIT_SHARE,
        // `over` one more.
        let n = 8 * NARROW_COMMIT_SHARE;
        let s = Session::new(accounts(n, |i| match i {
            _ if i < 8 => format!("acct{i}.grp -> under. acct{i}.grp -> over."),
            8 => format!("acct{i}.grp -> over."),
            _ => String::new(),
        }));
        for (group, narrow) in [("under", true), ("over", false)] {
            let outcome = outcome_of(&s, &format!("ins[A].hit -> 1 <= A.grp -> {group}."));
            assert_eq!(s.commits_narrow(&outcome), narrow, "{group}");
            let edited = both_paths(&s, &outcome);
            let mut committed = s.clone();
            committed.commit(outcome).unwrap();
            assert_eq!(committed.current(), edited.current());
        }
    }

    #[test]
    fn non_flat_heads_take_the_rebuild() {
        let credit = "mod[A].balance -> (B, B2) <= A.tag -> t1 & A.balance -> B & B2 = B + 1.";
        // A head holding a non-initial version takes the rebuild. A seed
        // naming `exists` stores nothing, and a version holding only
        // `exists` is dropped by `Session::new`: that head is flat.
        for (extra, flat) in [
            ("mod(acct0).balance -> 1.", false),
            ("acct2.exists -> acct2. ghost.exists -> ghost.", true),
        ] {
            let mut s = Session::new(accounts(8 * NARROW_COMMIT_SHARE, |i| {
                if i == 0 {
                    extra.to_string()
                } else {
                    String::new()
                }
            }));
            assert_eq!(s.current().is_flat(), flat, "{extra}");
            assert!(!s.current().exists_fact(Vid::object(oid("ghost"))));
            let outcome = outcome_of(&s, credit);
            assert_eq!(s.commits_narrow(&outcome), flat, "{extra}");
            let rebuilt = outcome.try_new_object_base().unwrap();
            s.commit(outcome).unwrap();
            assert_eq!(s.current(), &rebuilt, "{extra}");
            assert!(s.current().is_flat());
        }
    }

    /// A sink that forwards to a real store until told to fail its
    /// appends (`fail`) or its checkpoints (`fail_checkpoint`).
    #[derive(Debug)]
    struct Flaky {
        inner: crate::store::WalStore,
        fail: Arc<std::sync::atomic::AtomicBool>,
        fail_checkpoint: Arc<std::sync::atomic::AtomicBool>,
    }

    impl DurabilitySink for Flaky {
        fn append_batch(
            &mut self,
            programs: &[WalProgram],
            current: &ObjectBase,
        ) -> Result<(), StorageError> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StorageError::Misuse("injected append failure"));
            }
            self.inner.append_batch(programs, current)
        }

        fn checkpoint(&mut self, current: &ObjectBase) -> Result<CheckpointOutcome, StorageError> {
            if self.fail_checkpoint.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StorageError::Misuse("injected checkpoint failure"));
            }
            self.inner.checkpoint(current)
        }

        fn plan_checkpoint(&self, mode: CheckpointMode) -> CheckpointPlan {
            self.inner.plan_checkpoint(mode)
        }

        fn install_checkpoint(
            &mut self,
            encoded: EncodedCheckpoint,
        ) -> Result<CheckpointOutcome, StorageError> {
            self.inner.install_checkpoint(encoded)
        }
    }

    #[test]
    fn a_failed_append_leaves_the_log_as_it_was() {
        use crate::store::{CheckpointPolicy, FsyncPolicy, WalStore};
        let dir = std::env::temp_dir().join(format!("ruvo-session-flaky-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let fail = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink =
            Flaky { inner: store.store, fail: Arc::clone(&fail), fail_checkpoint: Arc::default() };
        let mut db = Database::open(accounts(8 * NARROW_COMMIT_SHARE, |_| String::new()));
        db.session_mut().set_sink(Box::new(sink));
        let credit = |a: usize| {
            format!("mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1.")
        };
        db.apply_src(&credit(0)).unwrap();
        db.apply_src(&credit(1)).unwrap();
        let newest = |db: &Database| (db.len(), db.last_txn().map(|t| t as *const Txn));
        let (log, head) = (newest(&db), db.current().clone());

        fail.store(true, std::sync::atomic::Ordering::Relaxed);
        // One program, appended as its own record.
        assert!(matches!(db.apply_src(&credit(2)), Err(Error::Storage(_))));
        assert_eq!(newest(&db), log);
        assert_eq!(db.current(), &head);
        // A group-commit batch, appended as one record.
        let compiled: Vec<CompiledProgram> = (2..4).map(|a| compile(&credit(a))).collect();
        let results = db.session_mut().apply_batch(&compiled.iter().collect::<Vec<_>>());
        assert!(results.iter().all(|r| matches!(r, Err(Error::Storage(_)))));
        assert_eq!(newest(&db), log);
        assert_eq!(db.current(), &head);
        // A `transact` block, appended as one record.
        let err = db.transact(|txn| {
            txn.apply_src(&credit(2))?;
            txn.apply_src(&credit(3))
        });
        assert!(matches!(err, Err(Error::Storage(_))));
        assert_eq!(newest(&db), log);
        assert_eq!(db.current(), &head);

        // Acknowledged again: the new transaction is the newest.
        fail.store(false, std::sync::atomic::Ordering::Relaxed);
        let txn = db.apply_src(&credit(2)).unwrap();
        assert_eq!(txn.seq, 2);
        assert!(!txn.outcome.result().is_empty());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rollback_checkpoint_leaves_head_and_log_as_they_were() {
        use crate::store::{CheckpointPolicy, FsyncPolicy, WalStore};
        let dir =
            std::env::temp_dir().join(format!("ruvo-session-rollback-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::builder().data_dir(&dir).seed_src(START).unwrap().open_dir().unwrap();
        let seeded = db.current().clone();
        drop(db);
        let store = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let fail_checkpoint = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sink = Flaky {
            inner: store.store,
            fail: Arc::default(),
            fail_checkpoint: Arc::clone(&fail_checkpoint),
        };
        let mut db = Database::open(seeded);
        db.session_mut().set_sink(Box::new(sink));
        let credit = "mod[acct].balance -> (B, B2) <= acct.balance -> B & B2 = B + 10.";
        let sp = db.savepoint();
        db.apply_src(credit).unwrap();
        let newest = |db: &Database| (db.len(), db.last_txn().map(|t| t as *const Txn));
        let (log, head) = (newest(&db), db.current().clone());

        fail_checkpoint.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(matches!(db.rollback_to(sp), Err(Error::Storage(_))));
        assert_eq!(db.current(), &head, "the head keeps the credit the WAL still holds");
        assert_eq!(newest(&db), log);

        // Memory and log still agree: one more commit, then reopen.
        fail_checkpoint.store(false, std::sync::atomic::Ordering::Relaxed);
        db.apply_src(credit).unwrap();
        assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(120)]);
        let live = db.current().clone();
        drop(db);
        assert_eq!(Database::open_dir(&dir).unwrap().current(), &live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The measurement behind [`NARROW_COMMIT_SHARE`]: on a 10 000-object
    /// base, both commit paths for a growing share of touched objects,
    /// under a program that rewrites one method of each (`raise`) and
    /// one that empties each (`close`). The edited head is shared, as a
    /// serving head and a cloned database's are. Medians of 5, in ms.
    /// Run with
    /// `cargo test --release -p ruvo-core commit_width_crossover_sweep
    /// -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing sweep, not a check"]
    fn commit_width_crossover_sweep() {
        use std::time::Instant;
        let n = 10_000;
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let programs = [
            ("raise", "mod[A].balance -> (B, B2) <= A.pick -> yes & A.balance -> B & B2 = B + 1."),
            ("close", "del[A].* <= A.pick -> yes."),
        ];
        println!("program  touched   share  edit_ms  rebuild_ms");
        for (name, program) in programs {
            for divisor in [1024, 256, 64, 32, 16, 12, 8, 6, 4, 3, 2, 1] {
                let s = Session::new(accounts(n, |i| {
                    let pick = if i % divisor == 0 { " / pick -> yes" } else { "" };
                    format!("acct{i}.isa -> empl / boss -> acct{}{pick}.", i / 10)
                }));
                let outcome = outcome_of(&s, program);
                let (mut edit, mut rebuild) = (Vec::new(), Vec::new());
                for _ in 0..5 {
                    let mut edited = s.clone();
                    let reader = edited.current_shared();
                    let t = Instant::now();
                    edited.edit_head(&outcome);
                    edit.push(t.elapsed().as_secs_f64() * 1e3);
                    drop((edited, reader));
                    let t = Instant::now();
                    let _rebuilt = outcome.try_new_object_base().unwrap();
                    rebuild.push(t.elapsed().as_secs_f64() * 1e3);
                }
                let touched = outcome.touched_objects();
                println!(
                    "{name:<7} {touched:>8} {:>7.4} {:>8.2} {:>11.2}",
                    touched as f64 / n as f64,
                    median(edit),
                    median(rebuild)
                );
            }
        }
    }
}
