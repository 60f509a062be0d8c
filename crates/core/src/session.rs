//! A transactional session: a sequence of update-programs applied to
//! an evolving object base.
//!
//! §2.2: "We conceive an update-program as a mapping from an (old)
//! object-base into a (new) object-base." A [`Session`] chains such
//! mappings with all-or-nothing semantics: a program that fails —
//! not stratifiable, unsafe, non-version-linear, or over the round
//! budget — leaves the object base exactly as it was. Savepoints give
//! explicit rollback across transactions.
//!
//! Between transactions the object base is the *flat* `ob′` of §5
//! (final versions only). A commit that touched few objects edits the
//! committed base once per touched object; a wide one rebuilds `ob′`
//! from `result(P)`. The version history of the newest transaction
//! stays inspectable through its [`Outcome`]; older log entries keep
//! only its summary (see [`Txn::outcome`]), so the log costs O(1) per
//! transaction, not O(`result(P)`).
//!
//! ## Durability
//!
//! A session owns a [`DurabilitySink`]; the default is volatile
//! (no sink — commits live and die with the process). With a sink
//! attached (see [`crate::Database::open_dir`]), every committed
//! batch — a single program, a group-commit drain, or a whole
//! `transact` block — is appended to the write-ahead log as **one**
//! record *before* the caller is acknowledged; if the append fails,
//! the in-memory commit is rolled back too, so memory and disk never
//! disagree about what was acknowledged.

use std::fmt;
use std::sync::Arc;

use ruvo_lang::{LangError, Program};
use ruvo_obase::{ChangedSince, ObjectBase, Snapshot};
use ruvo_term::Vid;

use crate::engine::{run_compiled, CompiledProgram, EngineConfig, Outcome};
use crate::error::EvalError;
use crate::store::{
    CheckpointMode, CheckpointOutcome, CheckpointPlan, DurabilitySink, EncodedCheckpoint,
    StorageError, WalProgram,
};

/// Why a session operation failed. The object base is unchanged in
/// every failure case.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// Program text did not parse / validate / pass safety analysis.
    Lang(LangError),
    /// Evaluation failed (stratification, linearity, round budget).
    Eval(EvalError),
    /// Rollback target does not exist (or was invalidated).
    UnknownSavepoint(SavepointId),
    /// The durability sink failed; the in-memory commit was rolled
    /// back, so the session still matches the durable image.
    Storage(StorageError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Lang(e) => e.fmt(f),
            SessionError::Eval(e) => e.fmt(f),
            SessionError::UnknownSavepoint(id) => {
                write!(f, "unknown or invalidated savepoint {}", id.0)
            }
            SessionError::Storage(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<LangError> for SessionError {
    fn from(e: LangError) -> Self {
        SessionError::Lang(e)
    }
}

impl From<EvalError> for SessionError {
    fn from(e: EvalError) -> Self {
        SessionError::Eval(e)
    }
}

/// Handle to a rollback point; see [`Session::savepoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SavepointId(u64);

/// A commit edits the head in place when the run touched at most one
/// object in this many of the head's; wider runs rebuild `ob′` (§5).
/// An edit pays per touched fact and copies each shard it writes to,
/// while a rebuild re-inserts only what survives into empty maps: on a
/// 10 000-object base, emptying the touched objects is cheaper to
/// rebuild from a touched share between 1/3 and 1/2 on, and 1/4 keeps
/// the edit under 0.6× the rebuild (`records/pr26-crossover.txt`,
/// from `tests::commit_width_crossover_sweep`).
const NARROW_COMMIT_SHARE: usize = 4;

/// One committed transaction.
#[derive(Clone, Debug)]
pub struct Txn {
    /// Sequence number (0-based).
    pub seq: usize,
    /// The evaluation outcome. The newest entry of a session's log keeps
    /// all of it, including `result(P)` with every version; once a
    /// later commit is acknowledged, an entry keeps only its
    /// [`Outcome::stats`], stratification and [`Outcome::changed`] —
    /// its `result()` is empty and its traces are gone.
    pub outcome: Outcome,
    /// Facts in the object base after this transaction.
    pub facts_after: usize,
}

/// A sequence of update-program applications over one object base.
///
/// The committed base is held behind an [`Arc`]: commits install a new
/// shared state, so [`Session::snapshot`] read views and savepoints
/// are O(1) and never block or copy the store.
#[derive(Debug, Default)]
pub struct Session {
    ob: Arc<ObjectBase>,
    log: Vec<Txn>,
    /// Entries of `log` below this index are trimmed (see
    /// [`Txn::outcome`]).
    trimmed: usize,
    config: EngineConfig,
    savepoints: Vec<(SavepointId, usize, Arc<ObjectBase>)>,
    next_savepoint: u64,
    /// Where committed batches go; `None` is the volatile fast path
    /// (no program-source rendering, no appends).
    sink: Option<Box<dyn DurabilitySink>>,
    /// While `Some`, commits buffer their log entries instead of
    /// appending immediately; flushing writes them as one record.
    /// Used by `transact` blocks and group-commit batches so a whole
    /// logical batch costs one append + one fsync — and so an aborted
    /// `transact` leaves no trace in the log at all.
    buffered: Option<Vec<WalProgram>>,
}

impl Clone for Session {
    /// Cloning forks the in-memory state only: the clone is
    /// **volatile** (no durability sink), because two sessions
    /// appending divergent histories to one log would corrupt it. The
    /// original keeps the sink.
    fn clone(&self) -> Session {
        Session {
            ob: Arc::clone(&self.ob),
            log: self.log.clone(),
            trimmed: self.trimmed,
            config: self.config.clone(),
            savepoints: self.savepoints.clone(),
            next_savepoint: self.next_savepoint,
            sink: None,
            buffered: None,
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

    /// Start from object-base text.
    pub fn parse(src: &str) -> Result<Session, SessionError> {
        let ob = ObjectBase::parse(src).map_err(LangError::Parse)?;
        Ok(Session::new(ob))
    }

    /// Use `config` for subsequent transactions.
    pub fn with_config(mut self, config: EngineConfig) -> Session {
        self.config = config;
        self
    }

    /// Write every subsequent commit through `sink` (see the
    /// [module docs](self) on durability).
    pub fn with_sink(mut self, sink: Box<dyn DurabilitySink>) -> Session {
        self.set_sink(sink);
        self
    }

    /// Attach a durability sink to an existing session.
    pub fn set_sink(&mut self, sink: Box<dyn DurabilitySink>) {
        self.sink = Some(sink);
    }

    /// True when commits are written through a durability sink.
    pub fn is_durable(&self) -> bool {
        self.sink.is_some()
    }

    /// The current object base.
    pub fn current(&self) -> &ObjectBase {
        &self.ob
    }

    /// An O(1) point-in-time read view of the committed state. The
    /// view stays valid (and unchanged) across later commits and
    /// rollbacks.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(Arc::clone(&self.ob))
    }

    /// The committed base as its shared handle (what a commit installs
    /// and what [`crate::ServingDatabase`] publishes as the head).
    pub fn current_shared(&self) -> Arc<ObjectBase> {
        Arc::clone(&self.ob)
    }

    /// Apply several compiled programs back to back, one transaction
    /// each, returning per-program receipts of `(seq, facts_after,
    /// state right after that member's commit)`.
    ///
    /// This is the group-commit batch path
    /// ([`crate::ServingDatabase`] drains its write queue through
    /// it): programs are **not** atomic as a unit — a failing program
    /// leaves the session exactly as the previous one committed it,
    /// and later programs still run.
    ///
    /// On a durable session the whole batch is appended and fsynced
    /// as **one** WAL record (containing only the successful members)
    /// before this returns — group commit amortizes the fsync. If the
    /// append fails, every member is rolled back and reports the
    /// storage error: nothing is acknowledged that is not durable.
    pub fn apply_compiled_batch(
        &mut self,
        batch: &[&CompiledProgram],
    ) -> Vec<Result<(usize, usize, Snapshot), SessionError>> {
        let owns_buffer = self.begin_txn_buffer();
        let pre_ob = Arc::clone(&self.ob);
        let pre_len = self.log.len();
        let mut results: Vec<Result<(usize, usize, Snapshot), SessionError>> = batch
            .iter()
            .map(|compiled| {
                let (seq, facts_after) =
                    self.apply_compiled(compiled).map(|txn| (txn.seq, txn.facts_after))?;
                Ok((seq, facts_after, self.snapshot()))
            })
            .collect();
        if owns_buffer {
            if let Err(e) = self.flush_txn_buffer() {
                self.restore(pre_ob, pre_len);
                for r in &mut results {
                    if r.is_ok() {
                        *r = Err(e.clone());
                    }
                }
            }
        }
        results
    }

    /// The engine configuration used for transactions.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Committed transactions, oldest first. Only the newest keeps its
    /// whole [`Outcome`]; the others are trimmed to their summary (see
    /// [`Txn::outcome`]). After a rollback the newest remaining entry
    /// may already be trimmed.
    pub fn log(&self) -> &[Txn] {
        &self.log
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// True if no transaction has been committed.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Apply one update-program transactionally: on success the object
    /// base becomes the program's `ob′` and the transaction is logged;
    /// on any error the session is untouched.
    pub fn apply(&mut self, program: Program) -> Result<&Txn, SessionError> {
        let compiled =
            CompiledProgram::compile(program, self.config.cycles).map_err(EvalError::from)?;
        self.apply_compiled(&compiled)
    }

    /// Apply an already-compiled program transactionally, skipping all
    /// per-run analysis (see [`CompiledProgram`]). The compiled cycle
    /// policy wins over the session config's.
    pub fn apply_compiled(&mut self, compiled: &CompiledProgram) -> Result<&Txn, SessionError> {
        let work = self.prepared_work();
        let outcome = run_compiled(compiled, &self.config, work)?;
        self.commit_logged(outcome, || WalProgram {
            cycles: compiled.cycle_policy(),
            source: compiled.source_text(),
        })
    }

    /// A working copy of the committed base, ready for the engine: an
    /// O(shards) copy-on-write clone. Nothing needs preparing — `exists`
    /// is the version table (§3) — so repeated
    /// [`Session::apply_compiled`] and hypothetical dry runs against
    /// one committed state pay for what they touch.
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
    /// write-ahead log. Commit through the `apply*` paths there, which
    /// log the program as one WAL record.
    pub fn commit(&mut self, outcome: Outcome) -> Result<&Txn, SessionError> {
        if self.sink.is_some() {
            return Err(SessionError::Storage(StorageError::Misuse(
                "a durable session cannot log a bare outcome; apply its program instead",
            )));
        }
        self.commit_install(outcome)?;
        self.acknowledge();
        Ok(self.log.last().expect("just pushed"))
    }

    /// Install an outcome in memory only (the shared half of
    /// [`Session::commit`] and [`Session::commit_logged`]).
    fn commit_install(&mut self, outcome: Outcome) -> Result<(), SessionError> {
        if self.commits_narrow(&outcome) {
            self.edit_head(&outcome);
        } else {
            // try_new_object_base cannot fail here when the linearity
            // check is on; with the check disabled this is the commit
            // gate.
            let new_ob = outcome.try_new_object_base().map_err(EvalError::Linearity)?;
            self.ob = Arc::new(new_ob);
        }
        self.log.push(Txn { seq: self.log.len(), outcome, facts_after: self.ob.len() });
        Ok(())
    }

    /// Whether `outcome` commits by editing the head
    /// ([`Session::edit_head`]) rather than by the §5 rebuild: the run
    /// kept its final versions, touched at most one object in
    /// [`NARROW_COMMIT_SHARE`] of the head's, and the head is flat.
    /// Decided in O(shards + relations), before anything is collected.
    fn commits_narrow(&self, outcome: &Outcome) -> bool {
        outcome.touched_objects().is_some_and(|n| n * NARROW_COMMIT_SHARE <= self.ob.object_count())
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
        Arc::make_mut(&mut self.ob)
            .replace_versions_tracked_shared(&edits, &mut ChangedSince::new());
    }

    /// Trim every log entry but the newest to its summary (see
    /// [`Txn::outcome`]) — once the commits that pushed them are
    /// acknowledged, so a failed append leaves the log as it was.
    fn acknowledge(&mut self) {
        let newest = self.log.len().saturating_sub(1);
        for txn in self.log.get_mut(self.trimmed..newest).into_iter().flatten() {
            txn.outcome.trim();
        }
        self.trimmed = self.trimmed.max(newest);
    }

    /// Commit an outcome whose producing program is known: install it,
    /// then make it durable — immediately as a one-entry record, or
    /// deferred into the active transaction buffer. `entry` is only
    /// rendered on durable sessions, so the volatile path never pays
    /// for program pretty-printing.
    fn commit_logged(
        &mut self,
        outcome: Outcome,
        entry: impl FnOnce() -> WalProgram,
    ) -> Result<&Txn, SessionError> {
        if self.sink.is_none() {
            self.commit_install(outcome)?;
            self.acknowledge();
            return Ok(self.log.last().expect("just pushed"));
        }
        let pre_ob = Arc::clone(&self.ob);
        let pre_len = self.log.len();
        self.commit_install(outcome)?;
        let entry = entry();
        if let Some(buffer) = &mut self.buffered {
            // Acknowledged when the buffer's owner flushes it.
            buffer.push(entry);
        } else {
            let sink = self.sink.as_mut().expect("checked above");
            if let Err(e) = sink.append_batch(&[entry], &self.ob) {
                self.restore(pre_ob, pre_len);
                return Err(SessionError::Storage(e));
            }
            self.acknowledge();
        }
        Ok(self.log.last().expect("just pushed"))
    }

    /// Roll the in-memory state back to a captured point (durability
    /// failure paths; nothing about the rolled-back commits reached
    /// the log).
    fn restore(&mut self, ob: Arc<ObjectBase>, log_len: usize) {
        self.ob = ob;
        self.truncate_log(log_len);
    }

    fn truncate_log(&mut self, len: usize) {
        self.log.truncate(len);
        self.trimmed = self.trimmed.min(len);
    }

    /// Start deferring durable log entries into a buffer, so a whole
    /// logical batch (a `transact` block, a group-commit drain) is
    /// appended as **one** record by [`Session::flush_txn_buffer`].
    /// Returns whether this call owns the buffer (false on volatile
    /// sessions and when a buffer is already active — the owner
    /// flushes, nested scopes must not).
    pub(crate) fn begin_txn_buffer(&mut self) -> bool {
        if self.sink.is_some() && self.buffered.is_none() {
            self.buffered = Some(Vec::new());
            true
        } else {
            false
        }
    }

    /// Append everything buffered since [`Session::begin_txn_buffer`]
    /// as one durable record. On failure the entries are gone from the
    /// buffer but the in-memory commits are **not** undone — the
    /// caller owns that rollback (it knows the pre-batch state).
    pub(crate) fn flush_txn_buffer(&mut self) -> Result<(), SessionError> {
        let Some(entries) = self.buffered.take() else { return Ok(()) };
        if entries.is_empty() {
            return Ok(());
        }
        let sink = self.sink.as_mut().expect("buffer exists only with a sink");
        sink.append_batch(&entries, &self.ob).map_err(SessionError::Storage)?;
        self.acknowledge();
        Ok(())
    }

    /// Drop the active buffer without appending (the batch is being
    /// rolled back; an aborted `transact` must leave no trace in the
    /// log).
    pub(crate) fn discard_txn_buffer(&mut self) {
        self.buffered = None;
    }

    /// Force a durable checkpoint of the committed state now,
    /// synchronously (no-op on a volatile session). With an attached
    /// [`WalStore`](crate::WalStore) this is incremental: only the
    /// shards dirtied since the last checkpoint are persisted, as a
    /// delta generation appended to the chain.
    pub fn checkpoint(&mut self) -> Result<CheckpointOutcome, SessionError> {
        match &mut self.sink {
            Some(sink) => sink.checkpoint(&self.ob).map_err(SessionError::Storage),
            None => Ok(CheckpointOutcome::Skipped),
        }
    }

    /// Force a full (compacting) checkpoint of the committed state.
    pub fn checkpoint_full(&mut self) -> Result<CheckpointOutcome, SessionError> {
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
    pub fn plan_checkpoint(
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
    pub fn install_checkpoint(
        &mut self,
        encoded: EncodedCheckpoint,
    ) -> Result<CheckpointOutcome, SessionError> {
        match &mut self.sink {
            Some(sink) => sink.install_checkpoint(encoded).map_err(SessionError::Storage),
            None => Ok(CheckpointOutcome::Skipped),
        }
    }

    /// Parse and [`Session::apply`] program text.
    pub fn apply_src(&mut self, src: &str) -> Result<&Txn, SessionError> {
        let program = Program::parse(src)?;
        self.apply(program)
    }

    /// Record a rollback point capturing the current object base.
    /// O(1): the captured state is shared, not copied.
    pub fn savepoint(&mut self) -> SavepointId {
        let id = SavepointId(self.next_savepoint);
        self.next_savepoint += 1;
        self.savepoints.push((id, self.log.len(), Arc::clone(&self.ob)));
        id
    }

    /// Discard a savepoint without rolling back (used by
    /// [`crate::Database::transact`] to release its guard on commit).
    /// Unknown ids are ignored.
    pub fn release(&mut self, savepoint: SavepointId) {
        self.savepoints.retain(|(id, ..)| *id != savepoint);
    }

    /// Restore the object base and transaction log to `savepoint`.
    /// Later savepoints are invalidated; the savepoint itself stays
    /// valid and can be rolled back to again.
    ///
    /// On a durable session the rolled-back transactions are already
    /// in the WAL, so the sink checkpoints the restored state — a delta
    /// of the shards that differ from the last checkpoint, or a full
    /// generation when the policy asks for one — and truncates the
    /// log, making the dead suffix unreachable to recovery.
    pub fn rollback_to(&mut self, savepoint: SavepointId) -> Result<(), SessionError> {
        self.rollback_to_unlogged(savepoint)?;
        if self.buffered.is_none() {
            if let Some(sink) = &mut self.sink {
                sink.checkpoint(&self.ob).map_err(SessionError::Storage)?;
            }
        }
        Ok(())
    }

    /// [`Session::rollback_to`] without touching the sink — for
    /// rollbacks of commits that never reached the log (a `transact`
    /// block whose entries were still buffered).
    pub(crate) fn rollback_to_unlogged(
        &mut self,
        savepoint: SavepointId,
    ) -> Result<(), SessionError> {
        let idx = self
            .savepoints
            .iter()
            .position(|(id, ..)| *id == savepoint)
            .ok_or(SessionError::UnknownSavepoint(savepoint))?;
        let (_, log_len, ob) = self.savepoints[idx].clone();
        self.ob = ob; // Arc clone: the captured state is re-shared.
        self.truncate_log(log_len);
        self.savepoints.truncate(idx + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid};

    fn start() -> Session {
        Session::parse("acct.balance -> 100. acct.status -> active.").unwrap()
    }

    #[test]
    fn apply_commits_on_success() {
        let mut s = start();
        let txn =
            s.apply_src("t: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        assert_eq!(txn.seq, 0);
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn prepared_work_is_a_shared_copy_of_the_head() {
        let mut s = start();
        // Nothing to prepare: the working copy shares every
        // copy-on-write shard with the head, `exists` included.
        let w1 = s.prepared_work();
        assert!(w1.cow_stats(s.current()).fully_shared());
        assert!(w1.exists_fact(ruvo_term::Vid::object(oid("acct"))));

        // It follows commits and rollbacks.
        let sp = s.savepoint();
        s.apply_src("t: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        let w2 = s.prepared_work();
        assert_eq!(w2.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert!(w2.cow_stats(s.current()).fully_shared());
        s.rollback_to(sp).unwrap();
        assert_eq!(s.prepared_work().lookup1(oid("acct"), "balance"), vec![int(100)]);
    }

    #[test]
    fn failed_parse_leaves_session_untouched() {
        let mut s = start();
        let before = s.current().clone();
        assert!(s.apply_src("this is not a program").is_err());
        assert_eq!(s.current(), &before);
        assert!(s.is_empty());
    }

    #[test]
    fn failed_linearity_rolls_back() {
        let mut s = start();
        let err = s
            .apply_src(
                "mod[acct].balance -> (100, 1) <= acct.balance -> 100.
                 del[acct].balance -> 100 <= acct.balance -> 100.",
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Eval(EvalError::Linearity(_))));
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(100)]);
        assert!(s.is_empty());
    }

    #[test]
    fn only_the_newest_log_entry_keeps_its_result() {
        let mut s = start();
        let sp = s.savepoint();
        s.apply_src("a: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        let after_a = s.savepoint();
        // The committed base is flat: the next program's `acct` is the
        // *initial* version again, as §5 prescribes.
        s.apply_src("b: mod[acct].balance -> (150, 75) <= acct.balance -> 150.").unwrap();
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(75)]);
        let [first, newest] = s.log() else { panic!("two transactions") };
        let mod_acct = Vid::object(oid("acct")).apply(ruvo_term::UpdateKind::Mod).unwrap();
        let balance = ruvo_term::sym("balance");
        // The newest transaction's version history stays inspectable.
        assert!(newest.outcome.result().contains(mod_acct, balance, &[], int(75)));
        assert!(!newest.outcome.stratum_traces().is_empty());
        // An older one keeps its summary only.
        assert!(first.outcome.result().is_empty());
        assert!(first.outcome.stratum_traces().is_empty());
        assert_eq!(first.outcome.stats().fired_updates, 1);
        assert!(first.outcome.changed().bases(&(mod_acct.chain(), balance)).is_some());
        assert_eq!((first.seq, first.facts_after), (0, 2));
        assert_eq!(first.outcome.stratification().strata.len(), 1);

        // After a rollback the newest remaining entry may be trimmed.
        s.rollback_to(after_a).unwrap();
        assert_eq!(s.len(), 1);
        assert!(s.log()[0].outcome.result().is_empty());
        // A later commit trims nothing twice and keeps its own result.
        s.apply_src("c: mod[acct].balance -> (150, 90) <= acct.balance -> 150.").unwrap();
        assert!(s.log()[1].outcome.result().contains(mod_acct, balance, &[], int(90)));
        s.rollback_to(sp).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn savepoint_rollback() {
        let mut s = start();
        let sp = s.savepoint();
        s.apply_src("a: del[acct].status -> active <= acct.balance -> 100.").unwrap();
        assert!(s.current().lookup1(oid("acct"), "status").is_empty());
        s.rollback_to(sp).unwrap();
        assert_eq!(s.current().lookup1(oid("acct"), "status"), vec![oid("active")]);
        assert!(s.is_empty());
        // The savepoint survives a rollback and later commits.
        s.apply_src("b: ins[acct].note -> 1 <= acct.balance -> 100.").unwrap();
        s.rollback_to(sp).unwrap();
        assert!(s.current().lookup1(oid("acct"), "note").is_empty());
    }

    #[test]
    fn rollback_invalidates_later_savepoints() {
        let mut s = start();
        let sp1 = s.savepoint();
        s.apply_src("a: ins[acct].x -> 1 <= acct.balance -> 100.").unwrap();
        let sp2 = s.savepoint();
        s.rollback_to(sp1).unwrap();
        let err = s.rollback_to(sp2).unwrap_err();
        assert!(matches!(err, SessionError::UnknownSavepoint(_)));
    }

    #[test]
    fn config_is_respected() {
        let mut s =
            start().with_config(EngineConfig { max_rounds_per_stratum: 1, ..Default::default() });
        // Needs 2+ rounds → round limit error, session untouched.
        let err = s
            .apply_src(
                "r1: ins[acct].a -> 1 <= acct.balance -> 100.
                 r2: ins[acct].b -> 1 <= ins(acct).a -> 1.",
            )
            .unwrap_err();
        assert!(matches!(err, SessionError::Eval(EvalError::RoundLimit { .. })));
        assert!(s.is_empty());
    }

    #[test]
    fn apply_compiled_batch_isolates_member_failures() {
        use crate::engine::{CompiledProgram, CyclePolicy};
        let mut s = start();
        let credit = CompiledProgram::compile(
            Program::parse("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap(),
            CyclePolicy::Reject,
        )
        .unwrap();
        // A program that needs more rounds than the config allows:
        // r2 only fires in round 2, so quiescence needs round 3 —
        // while the one-rule credit settles within the limit of 2.
        let looping = CompiledProgram::compile(
            Program::parse(
                "r1: ins[acct].a -> 1 <= acct.balance -> 150.
                 r2: ins[acct].b -> 1 <= ins(acct).a -> 1.",
            )
            .unwrap(),
            CyclePolicy::Reject,
        )
        .unwrap();
        s.config.max_rounds_per_stratum = 2;
        let results = s.apply_compiled_batch(&[&credit, &looping, &credit]);
        let (seq0, facts0, at0) = results[0].as_ref().unwrap();
        assert_eq!((*seq0, *facts0), (0, 2));
        // The per-member snapshot is that member's post-state, not
        // the batch's final state.
        assert_eq!(at0.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert!(matches!(results[1], Err(SessionError::Eval(EvalError::RoundLimit { .. }))));
        let (seq2, facts2, at2) = results[2].as_ref().unwrap();
        assert_eq!((*seq2, *facts2), (1, 2));
        assert_eq!(at2.lookup1(oid("acct"), "balance"), vec![int(200)]);
        // The failing member committed nothing; both credits landed.
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn commit_refuses_a_bare_outcome_on_a_durable_session() {
        use crate::store::{CheckpointPolicy, FsyncPolicy, WalStore};
        let dir = std::env::temp_dir().join(format!("ruvo-session-commit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = WalStore::open(&dir, FsyncPolicy::Never, CheckpointPolicy::never()).unwrap();
        let mut durable = start().with_sink(Box::new(store.store));
        let compiled = CompiledProgram::compile(
            Program::parse("mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap(),
            crate::engine::CyclePolicy::Reject,
        )
        .unwrap();
        let outcome = run_compiled(&compiled, durable.config(), durable.prepared_work()).unwrap();

        let err = durable.commit(outcome.clone()).unwrap_err();
        assert!(matches!(err, SessionError::Storage(StorageError::Misuse(_))), "got {err:?}");
        assert_eq!(durable.current(), start().current(), "the refused commit installed nothing");
        assert!(durable.is_empty());
        assert!(crate::store::read_state(&dir).unwrap().checkpoint.is_none(), "nothing written");

        let mut volatile = start();
        volatile.commit(outcome).unwrap();
        assert_eq!(volatile.current().lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert_eq!(volatile.len(), 1);
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn facts_after_tracks_size() {
        let mut s = start();
        let t = s.apply_src("a: ins[acct].extra -> 1 <= acct.balance -> 100.").unwrap();
        assert_eq!(t.facts_after, 3);
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
        let compiled = CompiledProgram::compile(
            Program::parse(src).unwrap(),
            crate::engine::CyclePolicy::Reject,
        )
        .unwrap();
        run_compiled(&compiled, s.config(), s.prepared_work()).unwrap()
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

    /// A sink that forwards to a real store until told to fail.
    #[derive(Debug)]
    struct Flaky {
        inner: crate::store::WalStore,
        fail: Arc<std::sync::atomic::AtomicBool>,
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
        let sink = Flaky { inner: store.store, fail: Arc::clone(&fail) };
        let mut s = Session::new(accounts(8 * NARROW_COMMIT_SHARE, |_| String::new()))
            .with_sink(Box::new(sink));
        let credit = |a: usize| {
            format!("mod[A].balance -> (B, B2) <= A.tag -> t{a} & A.balance -> B & B2 = B + 1.")
        };
        s.apply_src(&credit(0)).unwrap();
        s.apply_src(&credit(1)).unwrap();
        let entries = |s: &Session| s.log().iter().map(|t| format!("{t:?}")).collect::<Vec<_>>();
        let (log, head) = (entries(&s), s.current().clone());
        assert!(s.log()[0].outcome.result().is_empty() && !s.log()[1].outcome.result().is_empty());

        fail.store(true, std::sync::atomic::Ordering::Relaxed);
        // One program, appended as its own record.
        assert!(matches!(s.apply_src(&credit(2)), Err(SessionError::Storage(_))));
        assert_eq!(entries(&s), log, "entry by entry");
        assert_eq!(s.current(), &head);
        // A group-commit batch, appended as one record.
        let compiled: Vec<CompiledProgram> = (2..4)
            .map(|a| {
                CompiledProgram::compile(
                    Program::parse(&credit(a)).unwrap(),
                    crate::engine::CyclePolicy::Reject,
                )
                .unwrap()
            })
            .collect();
        let results = s.apply_compiled_batch(&compiled.iter().collect::<Vec<_>>());
        assert!(results.iter().all(|r| matches!(r, Err(SessionError::Storage(_)))));
        assert_eq!(entries(&s), log, "entry by entry");
        assert_eq!(s.current(), &head);

        // Acknowledged again: the entry before the new one is trimmed.
        fail.store(false, std::sync::atomic::Ordering::Relaxed);
        s.apply_src(&credit(2)).unwrap();
        assert!(s.log()[1].outcome.result().is_empty() && !s.log()[2].outcome.result().is_empty());
        drop(s);
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
                    let reader = edited.snapshot();
                    let t = Instant::now();
                    edited.edit_head(&outcome);
                    edit.push(t.elapsed().as_secs_f64() * 1e3);
                    drop((edited, reader));
                    let t = Instant::now();
                    let _rebuilt = outcome.try_new_object_base().unwrap();
                    rebuild.push(t.elapsed().as_secs_f64() * 1e3);
                }
                let touched = outcome.touched_objects().unwrap();
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
