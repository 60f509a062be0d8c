//! The concurrent serving layer: a [`ServingDatabase`] is a cloneable,
//! `Send + Sync` handle over one evolving object base, built for the
//! many-readers / few-writers shape of a served workload.
//!
//! [`Database`] is a single-owner `&mut self` type: sound, but no
//! reader can run while a writer commits. The paper's §2.2 semantics —
//! an update-program maps an (old) object-base to a (new) object-base
//! — combined with the copy-on-write store makes the concurrent
//! version almost free, because a committed base is an immutable value
//! behind an `Arc`:
//!
//! * **Reads never wait on a committing writer.** The committed head
//!   lives in an epoch-stamped slot ring (`HeadCell`); publishing a
//!   commit is one slot store plus one atomic index store, and
//!   [`ServingDatabase::snapshot`] / [`ServingDatabase::current`] just
//!   load the active slot and bump an `Arc`. A snapshot stays valid
//!   and bit-identical forever, however many commits land after it.
//! * **Writes are serialized through one writer with group commit.**
//!   [`ServingDatabase::apply`] enqueues the prepared program and
//!   joins the writer queue; whichever thread holds the writer lock
//!   drains the whole queue as one batch — each program its own
//!   all-or-nothing transaction on an O(shards) working copy of the
//!   head ([`crate::Session::prepared_work`]) — and publishes the new
//!   head **once** per batch.
//! * **Multi-step atomicity is unchanged.**
//!   [`ServingDatabase::transact`] runs [`Database::transact`] under
//!   the writer lock (which is **not reentrant** — write through the
//!   closure's handle, never through the database, or the thread
//!   deadlocks; see the method's deadlock note).
//!
//! * **Durability rides the same batch boundary.** Serving a database
//!   opened with [`Database::open_dir`] (or upgraded via
//!   [`Database::into_serving_durable`]), a drained batch is one record
//!   scope of the writer's [`crate::Session`]: it is appended and
//!   fsynced to the write-ahead log as **one** record before the head
//!   is published and before any ticket is acknowledged. Group commit
//!   thus amortizes the fsync across every writer in the batch, and a
//!   crash can never lose an acknowledged commit (see
//!   [`crate::store`]).
//!
//! A thread that panics while holding the writer lock poisons it; the
//! published head is unaffected (it only moves at batch end), reads
//! keep serving, and later writes fail with
//! [`ErrorKind::Poisoned`](crate::ErrorKind::Poisoned) instead of
//! panicking.
//!
//! ```
//! use std::thread;
//! use ruvo_core::ServingDatabase;
//! use ruvo_term::{int, oid};
//!
//! let db = ServingDatabase::open_src(
//!     "henry.isa -> empl. henry.sal -> 250.",
//! ).unwrap();
//! let raise = db.prepare(
//!     "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
//! ).unwrap();
//!
//! let reader = db.clone();                   // Send + Sync handle
//! thread::scope(|s| {
//!     s.spawn(|| {
//!         // Any snapshot is some committed state: 250 or 275.
//!         let sal = reader.snapshot().lookup1(oid("henry"), "sal");
//!         assert!(sal == vec![int(250)] || sal == vec![int(275)]);
//!     });
//!     s.spawn(|| { db.apply(&raise).unwrap(); });
//! });
//! assert_eq!(db.snapshot().lookup1(oid("henry"), "sal"), vec![int(275)]);
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use ruvo_obase::{ObjectBase, Snapshot};

use crate::database::{Database, Error, Prepared, Transaction};
use crate::engine::EngineConfig;
use crate::store::{encode_checkpoint_plan, CheckpointMode, CheckpointOutcome};

/// Slots in the head ring. The single writer reuses a slot only every
/// `HEAD_SLOTS` commits, so a reader cloning the `Arc` out of the
/// active slot is never contended by the publish that is happening
/// *now* — at worst by one eight-commits-younger writer, for the
/// nanoseconds the clone takes.
const HEAD_SLOTS: usize = 8;

/// The atomically swapped head: an epoch-indexed ring of shared
/// object-base handles.
///
/// Readers load the active index (one `Acquire` load) and clone the
/// `Arc` in that slot; the slot lock is only ever contended when the
/// writer laps the ring, so reads never wait on the commit being
/// published. Publication (writer-only, externally serialized) writes
/// the *next* slot and then moves the index with one `Release` store.
struct HeadCell {
    slots: [RwLock<Arc<ObjectBase>>; HEAD_SLOTS],
    /// Monotone publish count; `active % HEAD_SLOTS` is the live slot.
    active: AtomicUsize,
}

impl HeadCell {
    fn new(head: Arc<ObjectBase>) -> HeadCell {
        HeadCell {
            slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&head))),
            active: AtomicUsize::new(0),
        }
    }

    /// The current head. Lock-free in the steady state: one atomic
    /// load plus an uncontended read guard around an `Arc` clone.
    /// A load racing a publish may return the head from just before
    /// the swap — ordinary snapshot semantics; every returned value is
    /// some fully committed, published state.
    fn load(&self) -> Arc<ObjectBase> {
        let n = self.active.load(Ordering::Acquire);
        // A poisoned slot still holds a fully published Arc (the store
        // is a single assignment), so the value is always usable.
        let guard = self.slots[n % HEAD_SLOTS].read().unwrap_or_else(|e| e.into_inner());
        Arc::clone(&guard)
    }

    /// Install a new head (called only with the writer lock held).
    fn publish(&self, head: Arc<ObjectBase>) {
        let next = self.active.load(Ordering::Relaxed).wrapping_add(1);
        *self.slots[next % HEAD_SLOTS].write().unwrap_or_else(|e| e.into_inner()) = head;
        self.active.store(next, Ordering::Release);
    }
}

/// One queued write waiting for the group-commit leader.
struct QueueEntry {
    prepared: Prepared,
    ticket: Arc<Ticket>,
}

/// Completion slot for a queued write.
#[derive(Default)]
struct Ticket {
    result: Mutex<Option<Result<Applied, Error>>>,
}

impl Ticket {
    fn fill(&self, result: Result<Applied, Error>) {
        *self.result.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    }

    fn take(&self) -> Option<Result<Applied, Error>> {
        self.result.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// The receipt for one committed program application.
#[derive(Clone, Debug)]
pub struct Applied {
    /// Transaction sequence number (0-based): the writer's commits
    /// before this one.
    pub seq: usize,
    /// Facts in the committed base right after this transaction.
    pub facts_after: usize,
    /// The publish epoch this transaction became visible in. Several
    /// transactions of one group-commit batch share an epoch.
    pub epoch: u64,
    /// The committed state right after this transaction (which may be
    /// older than the published head if later batch members committed
    /// on top of it).
    pub at: Snapshot,
}

struct Shared {
    head: HeadCell,
    /// Publish count; bumped once per batch, after the head moved.
    epoch: AtomicU64,
    /// Committed transactions, mirrored out of the writer's count so
    /// readers can see progress without the writer lock.
    commits: AtomicUsize,
    /// Pending writes awaiting a group-commit leader.
    queue: Mutex<Vec<QueueEntry>>,
    /// The single writer. Deliberately a `std` mutex: a panic inside a
    /// commit batch poisons it, which the serving layer reports as
    /// [`Error::PoisonedWriter`] while reads keep working off the last
    /// published head.
    writer: Mutex<Database>,
    /// Engine configuration, denied lints included, fixed at open
    /// (shared so [`ServingDatabase::prepare`] needs no lock).
    config: EngineConfig,
    /// Background checkpoint worker: at most one encoder thread in
    /// flight, plus the outcomes of completed runs for `ruvo serve`
    /// to log. Lock ordering: `ckpt` before `writer` (the encoder
    /// thread itself takes only `writer`).
    ckpt: Mutex<BackgroundCheckpoint>,
}

/// State of the background checkpoint worker (see
/// [`ServingDatabase::checkpoint_background`]).
#[derive(Default)]
struct BackgroundCheckpoint {
    /// The in-flight encoder thread, if any.
    handle: Option<std::thread::JoinHandle<Result<CheckpointOutcome, Error>>>,
    /// Outcomes of finished background checkpoints, oldest first,
    /// awaiting collection by [`ServingDatabase::take_checkpoint_completions`].
    completed: Vec<CheckpointOutcome>,
}

/// A cloneable, thread-safe serving handle over one evolving object
/// base: lock-free snapshot reads, single-writer group commit. See the
/// [module docs](self) for the model and a threaded example.
///
/// Handles are cheap to clone and all observe the same database.
/// Dropping the last handle drops the store.
#[derive(Clone)]
pub struct ServingDatabase {
    shared: Arc<Shared>,
}

// The serving layer is only useful if the handle crosses threads; keep
// that guarantee checked at compile time (see also the assertions in
// ruvo-obase for the storage types this builds on).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServingDatabase>();
    assert_send_sync::<Applied>();
    assert_send_sync::<Prepared>();
};

impl ServingDatabase {
    /// Wrap a single-owner [`Database`] into a serving handle, taking
    /// over its committed state, newest transaction and configuration.
    pub fn new(db: Database) -> ServingDatabase {
        let head = db.session().current_shared();
        let shared = Shared {
            head: HeadCell::new(head),
            epoch: AtomicU64::new(0),
            commits: AtomicUsize::new(db.len()),
            queue: Mutex::new(Vec::new()),
            config: db.config().clone(),
            writer: Mutex::new(db),
            ckpt: Mutex::new(BackgroundCheckpoint::default()),
        };
        ServingDatabase { shared: Arc::new(shared) }
    }

    /// Open a serving database over `ob` with the default engine
    /// configuration (use [`ServingDatabase::new`] with a configured
    /// [`Database`] for anything else).
    pub fn open(ob: ObjectBase) -> ServingDatabase {
        ServingDatabase::new(Database::open(ob))
    }

    /// Parse object-base text and open a serving database over it.
    pub fn open_src(src: &str) -> Result<ServingDatabase, Error> {
        Ok(ServingDatabase::new(Database::open_src(src)?))
    }

    // ----- reads (no writer lock) ------------------------------------

    /// An O(1) point-in-time read view of the latest published head.
    /// Never waits on a committing writer; the view stays stable while
    /// the database keeps committing.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(self.shared.head.load())
    }

    /// The latest published head as a shared handle.
    pub fn current(&self) -> Arc<ObjectBase> {
        self.shared.head.load()
    }

    /// Number of head publications so far (one per group-commit
    /// batch, so under write contention this lags [`Self::commits`]).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Number of committed transactions.
    pub fn commits(&self) -> usize {
        self.shared.commits.load(Ordering::Acquire)
    }

    /// The engine configuration writes run under.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Compile program text once for repeated [`ServingDatabase::apply`]
    /// (no lock taken; compilation is independent of the store). The
    /// same gate as [`Database::prepare`], denied lints included.
    pub fn prepare(&self, src: &str) -> Result<Prepared, Error> {
        let program = ruvo_lang::Program::parse(src)?;
        Database::prepare_gated(program, &self.shared.config)
    }

    /// Ask `goal` against the result of evaluating `prepared` on the
    /// latest published head, without committing and **without the
    /// writer lock** — the demand-driven read path of the serving
    /// layer (see [`Database::query`]). The evaluation runs on a
    /// copy-on-write clone of the head snapshot, so concurrent commits
    /// neither block this read nor show up in its answers.
    pub fn query(
        &self,
        prepared: &Prepared,
        goal: ruvo_lang::Goal,
    ) -> Result<crate::query::QueryAnswers, Error> {
        self.run_query_plan(&prepared.query_plan(goal))
    }

    /// [`ServingDatabase::query`] for goal text.
    pub fn query_src(
        &self,
        prepared: &Prepared,
        goal: &str,
    ) -> Result<crate::query::QueryAnswers, Error> {
        self.query(prepared, ruvo_lang::Goal::parse(goal)?)
    }

    /// Run a pre-built [`crate::QueryPlan`] against the latest
    /// published head. Lock-free like every other read. Keeping a plan
    /// ([`Prepared::query_plan`]) for a goal asked again saves only that
    /// goal's analysis: the compiled rewrite is shared across goals and
    /// reader threads by the prepared program either way.
    pub fn run_query_plan(
        &self,
        plan: &crate::query::QueryPlan,
    ) -> Result<crate::query::QueryAnswers, Error> {
        let work = (*self.shared.head.load()).clone();
        Ok(crate::query::run_query(plan, &self.shared.config, work)?)
    }

    // ----- writes (single writer, group commit) ----------------------

    /// Apply a prepared program as one all-or-nothing transaction.
    ///
    /// Concurrent callers form a group: the program is queued, and the
    /// thread that wins the writer lock commits **every** queued
    /// program as one batch, publishing the new head once. Blocks
    /// until this program's own transaction has been decided; on
    /// success the receipt carries the transaction's sequence number,
    /// publish epoch and post-state.
    ///
    /// An error affects only this program — earlier and later batch
    /// members commit independently (use
    /// [`ServingDatabase::transact`] for multi-program atomicity).
    ///
    /// Blocks on the (non-reentrant) writer lock: do not call from
    /// inside a [`ServingDatabase::transact`] closure on the same
    /// database — see the deadlock note there.
    pub fn apply(&self, prepared: &Prepared) -> Result<Applied, Error> {
        self.apply_batch(&[prepared]).remove(0)
    }

    /// Prepare and apply program text in one step (no compilation
    /// reuse — prefer [`ServingDatabase::prepare`] +
    /// [`ServingDatabase::apply`] for repeated application).
    pub fn apply_src(&self, src: &str) -> Result<Applied, Error> {
        let prepared = self.prepare(src)?;
        self.apply(&prepared)
    }

    /// Apply several prepared programs as **one** group-commit batch:
    /// each is its own transaction (a failure affects only its slot),
    /// and the head is published once at the end, so all receipts
    /// share a publish epoch (a concurrent leader that picks the batch
    /// up may fold *more* queued programs into the same publication,
    /// never split these apart — they enter the queue atomically).
    ///
    /// The winner of the writer lock drains the whole queue, so a
    /// previous leader may already have served these tickets; draining
    /// again then serves only entries whose owners still wait for the
    /// lock. On a poisoned lock the unserved entries are withdrawn and
    /// report [`Error::PoisonedWriter`].
    pub fn apply_batch(&self, batch: &[&Prepared]) -> Vec<Result<Applied, Error>> {
        let tickets: Vec<Arc<Ticket>> = {
            // One guard for all pushes: a leader draining concurrently
            // must see either none or all of this batch.
            let mut queue = self.queue();
            batch
                .iter()
                .map(|prepared| {
                    let ticket = Arc::new(Ticket::default());
                    queue.push(QueueEntry {
                        prepared: (*prepared).clone(),
                        ticket: Arc::clone(&ticket),
                    });
                    ticket
                })
                .collect()
        };
        match self.shared.writer.lock() {
            Ok(mut writer) => self.drain(&mut writer),
            Err(_poisoned) => {
                self.queue().retain(|e| !tickets.iter().any(|t| Arc::ptr_eq(t, &e.ticket)));
            }
        }
        tickets.into_iter().map(|t| t.take().unwrap_or(Err(Error::PoisonedWriter))).collect()
    }

    /// Run several applications as one atomic unit under the writer
    /// lock, with the savepoint semantics of [`Database::transact`]:
    /// if the closure errs, everything it applied is rolled back. The
    /// head is published once, at the end, so readers never observe an
    /// intermediate state of the transaction.
    ///
    /// # Deadlock
    ///
    /// Write *through the closure's [`Transaction`] handle only*. The
    /// writer lock is not reentrant: calling [`ServingDatabase::apply`],
    /// `transact` or [`ServingDatabase::last_txn`] on any handle to
    /// this database from inside the closure deadlocks the thread
    /// (reads — [`ServingDatabase::snapshot`] and friends — are
    /// always safe).
    pub fn transact<T>(
        &self,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut writer = self.lock_writer()?;
        // Serve any queued writes first so the exclusive section does
        // not starve them (their owners are blocked on the lock).
        self.drain(&mut writer);
        let result = writer.transact(f);
        self.publish(&writer);
        result
    }

    /// Force a durable checkpoint of the committed state (no-op on a
    /// volatile database): queued writes are drained and published
    /// first, then the head state is written to the data directory
    /// (a delta generation when the chain permits, a full rewrite
    /// otherwise) and the WAL truncated. Synchronous — takes the
    /// writer lock for the whole encode. Prefer
    /// [`ServingDatabase::checkpoint_background`] on a serving path.
    pub fn checkpoint(&self) -> Result<CheckpointOutcome, Error> {
        let mut writer = self.lock_writer()?;
        self.drain(&mut writer);
        writer.checkpoint()
    }

    /// Start a checkpoint of the committed state **without blocking
    /// the writer for the encode**: the writer lock is held only for
    /// an O(shards) plan (and to drain queued writes first); the
    /// snapshot is then serialized on a background thread, which
    /// re-takes the lock at the end only to install the finished
    /// generation. Commits proceed concurrently; if they race the
    /// install, the WAL simply keeps covering them (see
    /// `core::store` for the exact truncation rule).
    ///
    /// At most one background checkpoint runs at a time: starting a
    /// new one first joins the previous thread, surfacing its error
    /// here rather than losing it. Returns `true` if an encoder was
    /// started (`false` on a volatile database, which has nothing to
    /// checkpoint). Use [`ServingDatabase::checkpoint_flush`] to wait
    /// for completion.
    pub fn checkpoint_background(&self) -> Result<bool, Error> {
        let mut ckpt = self.ckpt_lock();
        if let Some(handle) = ckpt.handle.take() {
            let outcome = handle.join().map_err(|_| Error::PoisonedWriter)??;
            ckpt.completed.push(outcome);
        }
        let plan = {
            let mut writer = self.lock_writer()?;
            self.drain(&mut writer);
            writer.session().plan_checkpoint(CheckpointMode::Auto)
        };
        let Some((plan, at)) = plan else { return Ok(false) };
        let shared = Arc::clone(&self.shared);
        ckpt.handle = Some(std::thread::spawn(move || {
            // Pure CPU: encode against the pinned snapshot, no locks.
            let encoded = encode_checkpoint_plan(&plan, &at);
            drop(at);
            let mut writer = shared.writer.lock().map_err(|_| Error::PoisonedWriter)?;
            writer.session_mut().install_checkpoint(encoded)
        }));
        Ok(true)
    }

    /// Wait for the in-flight background checkpoint (if any) to
    /// finish and return its outcome; `Ok(None)` when none was
    /// running. Tests and shutdown paths call this to make
    /// [`ServingDatabase::checkpoint_background`] durable-by-now.
    pub fn checkpoint_flush(&self) -> Result<Option<CheckpointOutcome>, Error> {
        let mut ckpt = self.ckpt_lock();
        let Some(handle) = ckpt.handle.take() else { return Ok(None) };
        let outcome = handle.join().map_err(|_| Error::PoisonedWriter)??;
        ckpt.completed.push(outcome);
        Ok(Some(outcome))
    }

    /// Drain the log of completed background checkpoints, oldest
    /// first. `ruvo serve` polls this to report completions.
    pub fn take_checkpoint_completions(&self) -> Vec<CheckpointOutcome> {
        std::mem::take(&mut self.ckpt_lock().completed)
    }

    /// Compact the checkpoint chain into one fresh full generation,
    /// synchronously, after draining queued writes. Joins any
    /// in-flight background checkpoint first so the forced full
    /// generation is the one that lands last.
    pub fn compact(&self) -> Result<CheckpointOutcome, Error> {
        self.checkpoint_flush()?;
        let mut writer = self.lock_writer()?;
        self.drain(&mut writer);
        writer.compact()
    }

    /// The newest committed transaction, shared out under the writer
    /// lock (so this waits for a running batch; prefer
    /// counters/snapshots on the serving path). `None` before the
    /// first commit.
    pub fn last_txn(&self) -> Result<Option<Arc<crate::session::Txn>>, Error> {
        Ok(self.lock_writer()?.session().last_txn().cloned())
    }

    /// Unwrap back into the single-owner [`Database`] — possible only
    /// when this is the last handle; otherwise returns `self` back.
    pub fn into_database(self) -> Result<Database, ServingDatabase> {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => Ok(shared.writer.into_inner().unwrap_or_else(|e| e.into_inner())),
            Err(shared) => Err(ServingDatabase { shared }),
        }
    }

    // ----- internals -------------------------------------------------

    fn queue(&self) -> MutexGuard<'_, Vec<QueueEntry>> {
        // The queue mutex only guards Vec operations; a poisoned guard
        // still holds a structurally sound queue.
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_writer(&self) -> Result<MutexGuard<'_, Database>, Error> {
        self.shared.writer.lock().map_err(|_| Error::PoisonedWriter)
    }

    fn ckpt_lock(&self) -> MutexGuard<'_, BackgroundCheckpoint> {
        // The worker slot stays structurally sound across a panic in
        // an unrelated holder; a panicked *encoder thread* is
        // reported by join() on the handle, not via poisoning here.
        self.shared.ckpt.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Commit everything currently queued as one batch (one record
    /// scope of the writer's session, each member its own transaction)
    /// and publish the head once. Entries enqueued *after* the drain picked up the queue
    /// are served by their own (currently lock-blocked) owners.
    ///
    /// Tickets are filled only **after** the publication: if a batch
    /// member panics and poisons the writer, no caller has been
    /// acknowledged for a state that will never become visible —
    /// every member of the aborted batch reports
    /// [`Error::PoisonedWriter`].
    fn drain(&self, writer: &mut Database) {
        let batch: Vec<QueueEntry> = std::mem::take(&mut *self.queue());
        if batch.is_empty() {
            return;
        }
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let compiled: Vec<_> = batch.iter().map(|e| e.prepared.compiled()).collect();
        let results = writer.session_mut().apply_batch(&compiled);
        self.publish(writer);
        for (entry, result) in batch.iter().zip(results) {
            entry.ticket.fill(result.map(|(seq, facts_after, at)| Applied {
                seq,
                facts_after,
                epoch,
                at,
            }));
        }
    }

    /// Publish the writer's committed state as the new head, if it
    /// moved since the last publication.
    fn publish(&self, writer: &Database) {
        let head = writer.session().current_shared();
        if Arc::ptr_eq(&head, &self.shared.head.load()) {
            return;
        }
        self.shared.head.publish(head);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        self.shared.commits.store(writer.len(), Ordering::Release);
    }
}

impl std::fmt::Debug for ServingDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingDatabase")
            .field("epoch", &self.epoch())
            .field("commits", &self.commits())
            .field("facts", &self.current().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::ErrorKind;
    use ruvo_term::{int, oid};

    const BASE: &str = "henry.isa -> empl. henry.sal -> 250. mary.isa -> empl. mary.sal -> 300.";
    const RAISE: &str = "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.";

    #[test]
    fn reads_observe_published_commits() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let before = db.snapshot();
        let applied = db.apply(&raise).unwrap();
        assert_eq!(applied.seq, 0);
        assert_eq!(applied.epoch, 1);
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.commits(), 1);
        assert_eq!(db.snapshot().lookup1(oid("henry"), "sal"), vec![int(275)]);
        assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);
        assert_eq!(applied.at.lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn builder_config_reaches_the_group_commit_writer() {
        // RAISE fires in round 1 and needs round 2 to see the fixpoint:
        // a one-round budget must fail it in the writer and commit
        // nothing, where the default budget commits it.
        let capped = crate::Database::builder()
            .max_rounds_per_stratum(1)
            .open_src(BASE)
            .unwrap()
            .into_serving();
        assert_eq!(capped.config().max_rounds_per_stratum, 1);
        let raise = capped.prepare(RAISE).unwrap();
        assert_eq!(capped.apply(&raise).unwrap_err().kind(), ErrorKind::RoundLimit);
        assert_eq!(capped.commits(), 0, "a failed run must not commit");
        assert_eq!(capped.snapshot().lookup1(oid("henry"), "sal"), vec![int(250)]);

        let default = ServingDatabase::open_src(BASE).unwrap();
        default.apply(&default.prepare(RAISE).unwrap()).unwrap();
        assert_eq!(default.snapshot().lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn denied_lints_gate_the_serving_handle_too() {
        use ruvo_lang::Lint;
        // The conflicting-mod pair of the `deny_lints` doc-test.
        const CONFLICT: &str = "r1: mod[X].m -> (V, 1) <= X.m -> V.
                                r2: mod[X].m -> (V, 2) <= X.m -> V.";
        let db = crate::Database::builder()
            .deny_lints([Lint::WriteWriteConflict])
            .open_src("o.m -> a.")
            .unwrap();
        assert_eq!(db.prepare(CONFLICT).unwrap_err().kind(), crate::ErrorKind::Lint);
        let serving = db.into_serving();
        assert_eq!(serving.prepare(CONFLICT).unwrap_err().kind(), crate::ErrorKind::Lint);
        assert_eq!(serving.apply_src(CONFLICT).unwrap_err().kind(), crate::ErrorKind::Lint);
        assert_eq!(serving.commits(), 0, "a denied program must not commit");
        assert_eq!(serving.snapshot().lookup1(oid("o"), "m"), vec![oid("a")]);
    }

    #[test]
    fn handles_share_one_database() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let other = db.clone();
        db.apply(&raise).unwrap();
        assert_eq!(other.commits(), 1);
        assert_eq!(other.snapshot().lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn apply_batch_publishes_once() {
        let db = ServingDatabase::open_src("acct.balance -> 100.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        let results = db.apply_batch(&[&credit, &credit, &credit]);
        let receipts: Vec<Applied> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(receipts.len(), 3);
        // One batch, one publication: every receipt shares the epoch.
        assert!(receipts.iter().all(|a| a.epoch == 1), "epochs: {receipts:?}");
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.commits(), 3);
        assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(250)]);
        // Per-member post-states are the sequential intermediates.
        assert_eq!(receipts[0].at.lookup1(oid("acct"), "balance"), vec![int(150)]);
        assert_eq!(receipts[1].at.lookup1(oid("acct"), "balance"), vec![int(200)]);
    }

    #[test]
    fn batch_member_failure_is_isolated() {
        let db = ServingDatabase::open_src("acct.balance -> 100.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        // A non-version-linear program: rejected at its own commit
        // gate, leaving the neighbouring batch members untouched.
        let branchy = db
            .prepare("mod[acct].balance -> (B, 1) <= acct.balance -> B. del[acct].balance -> B <= acct.balance -> B.")
            .unwrap();
        let results = db.apply_batch(&[&credit, &branchy, &credit]);
        assert!(results[0].is_ok());
        assert_eq!(results[1].as_ref().unwrap_err().kind(), ErrorKind::Linearity);
        assert!(results[2].is_ok());
        assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(200)]);
        assert_eq!(db.commits(), 2);
    }

    #[test]
    fn transact_is_atomic_and_publishes_once() {
        let db = ServingDatabase::open_src("acct.balance -> 100.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        db.transact(|txn| {
            txn.apply(&credit)?;
            txn.apply(&credit)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(db.epoch(), 1, "one publication for the whole transaction");
        assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(200)]);

        let err = db.transact(|txn| {
            txn.apply(&credit)?;
            txn.apply_src("this does not parse")?;
            Ok(())
        });
        assert!(err.is_err());
        // Rolled back: no new state was ever published.
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(200)]);
        assert_eq!(db.commits(), 2);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let db = ServingDatabase::open_src("acct.balance -> 100.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        const WRITES: usize = 20;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reader = db.clone();
                s.spawn(move || {
                    loop {
                        let snap = reader.snapshot();
                        let bal = snap.lookup1(oid("acct"), "balance");
                        // Every observed balance is some committed state.
                        assert_eq!(bal.len(), 1);
                        let v = match bal[0] {
                            ruvo_term::Const::Int(v) => v,
                            other => panic!("non-integer balance {other}"),
                        };
                        assert_eq!(v % 50, 0, "torn read: {v}");
                        assert!((100..=100 + 50 * WRITES as i64).contains(&v));
                        if v == 100 + 50 * WRITES as i64 {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            let writer = db.clone();
            let credit = credit.clone();
            s.spawn(move || {
                for _ in 0..WRITES {
                    writer.apply(&credit).unwrap();
                }
            });
        });
        assert_eq!(db.commits(), WRITES);
        assert_eq!(
            db.snapshot().lookup1(oid("acct"), "balance"),
            vec![int(100 + 50 * WRITES as i64)]
        );
    }

    #[test]
    fn concurrent_writers_all_commit() {
        let db = ServingDatabase::open_src("acct.balance -> 0.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        const THREADS: usize = 4;
        const EACH: usize = 5;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let handle = db.clone();
                let credit = credit.clone();
                s.spawn(move || {
                    for _ in 0..EACH {
                        handle.apply(&credit).unwrap();
                    }
                });
            }
        });
        // Serialized writers: every increment landed exactly once.
        assert_eq!(db.commits(), THREADS * EACH);
        assert_eq!(
            db.snapshot().lookup1(oid("acct"), "balance"),
            vec![int((THREADS * EACH) as i64)]
        );
        // Group commit may have folded several commits per publish.
        assert!(db.epoch() <= db.commits() as u64);
        assert!(db.epoch() >= 1);
    }

    #[test]
    fn poisoned_writer_is_an_error_not_a_panic() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let poisoner = db.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shared.writer.lock().unwrap();
            panic!("die while holding the writer");
        })
        .join();
        let err = db.apply(&raise).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Poisoned);
        assert!(err.to_string().contains("poisoned"));
        // Reads keep serving the last published head.
        assert_eq!(db.snapshot().lookup1(oid("henry"), "sal"), vec![int(250)]);
        let err = db.transact(|_| Ok(())).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Poisoned);
    }

    #[test]
    fn query_reads_from_published_head_without_committing() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let before = db.query_src(&raise, "?- mod(henry).sal -> S.").unwrap();
        assert_eq!(before.rows, vec![vec![int(275)]]);
        assert_eq!(db.commits(), 0, "queries never commit");
        // After a commit the same query reads the new head.
        db.apply(&raise).unwrap();
        let after = db.query_src(&raise, "?- mod(henry).sal -> S.").unwrap();
        assert_eq!(after.rows, vec![vec![ruvo_term::num(302.5)]]);
    }

    #[test]
    fn into_database_round_trip() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        db.apply(&raise).unwrap();
        let clone = db.clone();
        let db = db.into_database().expect_err("second handle alive");
        drop(clone);
        let owned = db.into_database().expect("sole handle");
        assert_eq!(owned.len(), 1);
        assert_eq!(owned.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn head_ring_wraps_cleanly() {
        let db = ServingDatabase::open_src("acct.balance -> 0.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        // More publishes than slots: the ring must lap without readers
        // ever observing a stale or torn head at the end.
        for i in 1..=(HEAD_SLOTS as i64 * 3) {
            db.apply(&credit).unwrap();
            assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(i)]);
        }
        assert_eq!(db.epoch(), HEAD_SLOTS as u64 * 3);
    }

    fn serving_tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ruvo-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn background_checkpoint_on_a_volatile_database_is_a_noop() {
        let db = ServingDatabase::open_src(BASE).unwrap();
        assert!(!db.checkpoint_background().unwrap(), "nothing to checkpoint");
        assert_eq!(db.checkpoint_flush().unwrap(), None);
        assert!(db.take_checkpoint_completions().is_empty());
        assert_eq!(db.checkpoint().unwrap(), CheckpointOutcome::Skipped);
    }

    #[test]
    fn background_checkpoint_is_durable_after_flush() {
        let dir = serving_tmp_dir("bg-ckpt");
        let db = crate::Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 100.")
            .unwrap()
            .open_dir()
            .unwrap();
        let db = ServingDatabase::new(db);
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        db.apply(&credit).unwrap();
        assert!(db.checkpoint_background().unwrap(), "an encoder was started");
        // Commits keep landing while the encoder runs; if they beat
        // the install, the WAL covers them (exercised by timing, not
        // asserted — both interleavings must recover identically).
        db.apply(&credit).unwrap();
        let outcome = db.checkpoint_flush().unwrap().expect("one encoder in flight");
        assert_ne!(outcome, CheckpointOutcome::Skipped);
        assert_eq!(db.take_checkpoint_completions(), vec![outcome]);
        assert!(db.take_checkpoint_completions().is_empty(), "completions drain once");

        let live = db.current();
        drop(db);
        let reopened = crate::Database::open_dir(&dir).unwrap();
        assert_eq!(reopened.current(), &*live, "recovered state matches the live head");
        assert_eq!(reopened.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_background_checkpoints_stack_deltas_and_recover() {
        let dir = serving_tmp_dir("bg-chain");
        let db = crate::Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 0.")
            .unwrap()
            .open_dir()
            .unwrap();
        let db = ServingDatabase::new(db);
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        for _ in 0..4 {
            db.apply(&credit).unwrap();
            db.checkpoint_background().unwrap();
        }
        db.checkpoint_flush().unwrap();
        // Starting each round joined the previous one: every outcome
        // is on the completion log, none lost.
        assert_eq!(db.take_checkpoint_completions().len(), 4);

        let live = db.current();
        drop(db);
        let reopened = crate::Database::open_dir(&dir).unwrap();
        assert_eq!(reopened.current(), &*live);
        assert_eq!(reopened.current().lookup1(oid("acct"), "balance"), vec![int(4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serving_compact_folds_the_chain() {
        let dir = serving_tmp_dir("bg-compact");
        let db = crate::Database::builder()
            .data_dir(&dir)
            .seed_src("acct.balance -> 0.")
            .unwrap()
            .open_dir()
            .unwrap();
        let db = ServingDatabase::new(db);
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 1.").unwrap();
        for _ in 0..3 {
            db.apply(&credit).unwrap();
            db.checkpoint_background().unwrap();
        }
        assert!(matches!(db.compact().unwrap(), CheckpointOutcome::Full { .. }));
        drop(db);
        let state = crate::store::read_state(dir.as_path()).unwrap();
        let ckpt = state.checkpoint.expect("chain present");
        assert_eq!(ckpt.generations.len(), 1, "compaction folded the chain");
        assert_eq!(ckpt.base.lookup1(oid("acct"), "balance"), vec![int(3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
