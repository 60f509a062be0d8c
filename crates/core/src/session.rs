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
//! (final versions only); version histories of the individual
//! transactions remain inspectable through the kept [`Outcome`]s.
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
use ruvo_obase::{ObjectBase, Snapshot};

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

/// One committed transaction.
#[derive(Clone, Debug)]
pub struct Txn {
    /// Sequence number (0-based).
    pub seq: usize,
    /// The evaluation outcome, including `result(P)` with all versions
    /// and the run statistics.
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
    config: EngineConfig,
    savepoints: Vec<(SavepointId, usize, Arc<ObjectBase>)>,
    next_savepoint: u64,
    /// The committed base with `exists` facts materialized (§3 prep),
    /// built lazily on first use and shared until the next commit or
    /// rollback. Working copies clone it copy-on-write, so repeated
    /// applications and dry runs against one committed state pay the
    /// O(#versions) preparation exactly once.
    prepared: std::sync::OnceLock<Arc<ObjectBase>>,
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
            config: self.config.clone(),
            savepoints: self.savepoints.clone(),
            next_savepoint: self.next_savepoint,
            prepared: self.prepared.clone(),
            sink: None,
            buffered: None,
        }
    }
}

impl Session {
    /// Start a session on `ob`.
    pub fn new(ob: ObjectBase) -> Session {
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
    /// and later programs still run. Consecutive applications reuse
    /// the [`Session::prepared_work`] cache, so the §3 preparation is
    /// paid once per committed state, not once per program.
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

    /// Mutate the engine configuration for subsequent transactions.
    /// Already-committed history is unaffected — the configuration
    /// only steers *how* future programs evaluate, never what they
    /// compute (every knob preserves results by construction).
    pub fn config_mut(&mut self) -> &mut EngineConfig {
        &mut self.config
    }

    /// Committed transactions, oldest first.
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

    /// A working copy of the committed base with `exists` facts in
    /// place (§3's preparation step), ready for the engine. The
    /// prepared state is cached until the next commit or rollback, so
    /// every call after the first is an O(shards) copy-on-write clone
    /// — this is what makes repeated [`Session::apply_compiled`] and
    /// hypothetical dry runs against one committed state cheap.
    pub fn prepared_work(&self) -> ObjectBase {
        let shared = self.prepared.get_or_init(|| {
            let mut work = (*self.ob).clone();
            work.ensure_exists();
            Arc::new(work)
        });
        (**shared).clone()
    }

    /// Commit an evaluation outcome produced against the current base:
    /// extract `ob′`, install it, and log the transaction. On error
    /// (non-version-linear result) the session is untouched.
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
        Ok(self.log.last().expect("just pushed"))
    }

    /// Install an outcome in memory only (the shared half of
    /// [`Session::commit`] and [`Session::commit_logged`]).
    fn commit_install(&mut self, outcome: Outcome) -> Result<(), SessionError> {
        // try_new_object_base cannot fail here when the linearity check
        // is on; with the check disabled this is the commit gate.
        let new_ob = outcome.try_new_object_base().map_err(EvalError::Linearity)?;
        self.ob = Arc::new(new_ob);
        self.prepared = std::sync::OnceLock::new();
        self.log.push(Txn { seq: self.log.len(), outcome, facts_after: self.ob.len() });
        Ok(())
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
            return Ok(self.log.last().expect("just pushed"));
        }
        let pre_ob = Arc::clone(&self.ob);
        let pre_len = self.log.len();
        self.commit_install(outcome)?;
        let entry = entry();
        if let Some(buffer) = &mut self.buffered {
            buffer.push(entry);
        } else {
            let sink = self.sink.as_mut().expect("checked above");
            if let Err(e) = sink.append_batch(&[entry], &self.ob) {
                self.restore(pre_ob, pre_len);
                return Err(SessionError::Storage(e));
            }
        }
        Ok(self.log.last().expect("just pushed"))
    }

    /// Roll the in-memory state back to a captured point (durability
    /// failure paths; nothing about the rolled-back commits reached
    /// the log).
    fn restore(&mut self, ob: Arc<ObjectBase>, log_len: usize) {
        self.ob = ob;
        self.log.truncate(log_len);
        self.prepared = std::sync::OnceLock::new();
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
        sink.append_batch(&entries, &self.ob).map_err(SessionError::Storage)
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
        self.prepared = std::sync::OnceLock::new();
        self.log.truncate(log_len);
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
    fn prepared_work_is_cached_until_commit_or_rollback() {
        let mut s = start();
        // Two working copies off one committed state share every
        // copy-on-write shard: the §3 prep ran once.
        let w1 = s.prepared_work();
        let w2 = s.prepared_work();
        assert!(w1.cow_stats(&w2).fully_shared());
        assert!(w1.exists_fact(ruvo_term::Vid::object(oid("acct"))));

        // A commit invalidates the cache; the new prepared copy
        // reflects the new state.
        let sp = s.savepoint();
        s.apply_src("t: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        let w3 = s.prepared_work();
        assert_eq!(w3.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert!(!w1.cow_stats(&w3).fully_shared());

        // So does a rollback.
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
    fn chained_transactions_flatten_versions() {
        let mut s = start();
        s.apply_src("a: mod[acct].balance -> (100, 150) <= acct.balance -> 100.").unwrap();
        // The committed base is flat: the next program's `acct` is the
        // *initial* version again, as §5 prescribes.
        s.apply_src("b: mod[acct].balance -> (150, 75) <= acct.balance -> 150.").unwrap();
        assert_eq!(s.current().lookup1(oid("acct"), "balance"), vec![int(75)]);
        assert_eq!(s.len(), 2);
        // Each transaction's version history remains inspectable.
        let first = &s.log()[0];
        let mod_acct =
            ruvo_term::Vid::object(oid("acct")).apply(ruvo_term::UpdateKind::Mod).unwrap();
        assert!(first.outcome.result().contains(
            mod_acct,
            ruvo_term::sym("balance"),
            &[],
            int(150)
        ));
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
}
