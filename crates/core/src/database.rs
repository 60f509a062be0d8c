//! The `Database` facade: a persistent handle over an evolving object
//! base, with prepared (compile-once, apply-many) update-programs,
//! O(1) copy-on-write snapshots, closure-scoped transactions, and one
//! unified error type.
//!
//! §2.2 of the paper models an update-program as *a mapping from an
//! (old) object-base into a (new) object-base*. A [`Database`]
//! separates the two halves of that mapping:
//!
//! * [`Database::prepare`] parses, safety-checks and stratifies
//!   **once**, returning a reusable [`Prepared`] handle;
//! * [`Database::apply`] runs a prepared program against the current
//!   base with all-or-nothing semantics, amortizing compilation across
//!   applications.
//!
//! Every write goes through the database's one [`Session`], the
//! writer core [`crate::ServingDatabase`] shares: an `apply`, a
//! [`Database::transact`] block and a serving group-commit drain are
//! each one record scope there, so they fail, log and acknowledge the
//! same way, volatile or durable (see the [`crate::session`] docs).
//!
//! Readers call [`Database::snapshot`] for an O(1) point-in-time view
//! that stays stable while the database keeps committing (commits
//! install a fresh `Arc`; version states are shared copy-on-write, so
//! neither side ever deep-copies the store).
//!
//! ```
//! use ruvo_core::Database;
//!
//! let mut db = Database::open_src(
//!     "henry.isa -> empl. henry.sal -> 250.",
//! ).unwrap();
//! let raise = db.prepare(
//!     "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
//! ).unwrap();
//!
//! let before = db.snapshot();           // O(1) read view
//! db.apply(&raise).unwrap();            // compiled once, run now
//! assert_eq!(db.current().lookup1(ruvo_term::oid("henry"), "sal"), vec![ruvo_term::int(275)]);
//! assert_eq!(before.lookup1(ruvo_term::oid("henry"), "sal"), vec![ruvo_term::int(250)]);
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use ruvo_lang::{
    Diagnostic, Goal, LangError, Lint, ParseError, Program, SafetyError, ValidateError,
};
use ruvo_obase::{LinearityViolation, ObjectBase, Snapshot, SnapshotError, SnapshotFileError};

use crate::engine::{CompiledProgram, CyclePolicy, EngineConfig, Outcome};
use crate::error::EvalError;
use crate::query::{QueryAnswers, QueryPlan};
use crate::session::{SavepointId, Session, Txn};
use crate::store::{CheckpointPolicy, DurabilitySink, FsyncPolicy, StorageError, WalStore};
use crate::stratify::{Stratification, StratifyError};

// ----- unified error -------------------------------------------------

/// Stable, coarse classification of [`Error`]s — match on this when
/// the reaction matters more than the details.
///
/// ```
/// use ruvo_core::{Database, ErrorKind};
///
/// let db = Database::open_src("o.m -> a.").unwrap();
/// let err = db.prepare("this is not a program").unwrap_err();
/// match err.kind() {
///     ErrorKind::Parse => { /* show the message, keep the session */ }
///     ErrorKind::Stratify => { /* suggest CyclePolicy::RuntimeStability */ }
///     _ => { /* ... */ }
/// }
/// assert_eq!(err.kind(), ErrorKind::Parse);
/// assert_eq!(err.kind().to_string(), "parse");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Program or object-base text did not lex/parse.
    Parse,
    /// A rule violates the structural restrictions of §2.1/§3.
    Validate,
    /// A rule is unsafe (not range-restricted).
    Safety,
    /// No stratification satisfying §4 (a)–(d) exists.
    Stratify,
    /// §5's version-linearity check rejected the result.
    Linearity,
    /// A fixpoint loop exceeded the configured round budget.
    RoundLimit,
    /// Runtime stability checking found an order-dependent result.
    Unstable,
    /// A rollback target does not exist (or was invalidated).
    UnknownSavepoint,
    /// A binary snapshot could not be decoded.
    Snapshot,
    /// The durable storage engine failed: an I/O error, a corrupt
    /// data directory, or a recovery replay failure (see
    /// [`crate::store::StorageError`]).
    Storage,
    /// The serving layer's single writer was poisoned by a panic in an
    /// earlier commit batch (see [`crate::ServingDatabase`]).
    Poisoned,
    /// A lint denied via [`DatabaseBuilder::deny_lints`] fired during
    /// [`Database::prepare`].
    Lint,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Validate => "validate",
            ErrorKind::Safety => "safety",
            ErrorKind::Stratify => "stratify",
            ErrorKind::Linearity => "linearity",
            ErrorKind::RoundLimit => "round-limit",
            ErrorKind::Unstable => "unstable",
            ErrorKind::UnknownSavepoint => "unknown-savepoint",
            ErrorKind::Snapshot => "snapshot",
            ErrorKind::Storage => "storage",
            ErrorKind::Poisoned => "poisoned",
            ErrorKind::Lint => "lint",
        };
        f.write_str(name)
    }
}

/// Any failure the `ruvo` facade can report, unifying the per-layer
/// errors (`LangError`, `StratifyError`, `EvalError`, `StorageError`,
/// `SnapshotError`) behind one type with a stable [`ErrorKind`]. It is
/// also what every [`Session`] operation returns.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Structural validation failed.
    Validate(ValidateError),
    /// Safety analysis failed.
    Safety(SafetyError),
    /// Stratification failed (§4).
    Stratify(StratifyError),
    /// The result is not version-linear (§5).
    Linearity(LinearityViolation),
    /// A stratum exceeded the round budget.
    RoundLimit {
        /// Stratum index that overran.
        stratum: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Runtime stability checking rejected the run.
    Unstable {
        /// Stratum in which the instability surfaced.
        stratum: usize,
        /// Round in which the update stopped firing.
        round: usize,
        /// Display form of the no-longer-fired update.
        update: String,
    },
    /// Rollback target does not exist (or was invalidated).
    UnknownSavepoint(SavepointId),
    /// A binary snapshot could not be decoded.
    Snapshot(SnapshotError),
    /// The durable storage engine failed. When surfaced from a
    /// commit, the in-memory state was rolled back with it — what the
    /// database shows always matches what the log acknowledges.
    Storage(StorageError),
    /// A thread panicked while holding the serving layer's writer
    /// lock; reads keep working off the last published head, but the
    /// writer must be reopened (see [`crate::ServingDatabase`]).
    PoisonedWriter,
    /// Lints denied via [`DatabaseBuilder::deny_lints`] fired during
    /// [`Database::prepare`]; every denied finding is included.
    DeniedLint {
        /// The denied diagnostics, severity upgraded to error.
        diagnostics: Vec<Diagnostic>,
    },
}

impl Error {
    /// The stable classification of this error.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Error::Parse(_) => ErrorKind::Parse,
            Error::Validate(_) => ErrorKind::Validate,
            Error::Safety(_) => ErrorKind::Safety,
            Error::Stratify(_) => ErrorKind::Stratify,
            Error::Linearity(_) => ErrorKind::Linearity,
            Error::RoundLimit { .. } => ErrorKind::RoundLimit,
            Error::Unstable { .. } => ErrorKind::Unstable,
            Error::UnknownSavepoint(_) => ErrorKind::UnknownSavepoint,
            Error::Snapshot(_) => ErrorKind::Snapshot,
            Error::Storage(_) => ErrorKind::Storage,
            Error::PoisonedWriter => ErrorKind::Poisoned,
            Error::DeniedLint { .. } => ErrorKind::Lint,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => e.fmt(f),
            Error::Validate(e) => e.fmt(f),
            Error::Safety(e) => e.fmt(f),
            Error::Stratify(e) => e.fmt(f),
            Error::Linearity(e) => e.fmt(f),
            Error::RoundLimit { .. } | Error::Unstable { .. } => self.as_eval().fmt(f),
            Error::UnknownSavepoint(id) => {
                write!(f, "unknown or invalidated savepoint {}", id.0)
            }
            Error::Snapshot(e) => e.fmt(f),
            Error::Storage(e) => e.fmt(f),
            Error::PoisonedWriter => f.write_str(
                "serving writer poisoned by a panicked commit batch; \
                 reads still serve the last published head",
            ),
            Error::DeniedLint { diagnostics } => {
                write!(f, "denied lint")?;
                for (i, d) in diagnostics.iter().enumerate() {
                    write!(f, "{} {d}", if i == 0 { ":" } else { ";" })?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Reconstruct the equivalent [`EvalError`] for the evaluation
    /// variants (used by `Display` to keep one message source).
    fn as_eval(&self) -> EvalError {
        match self {
            Error::RoundLimit { stratum, limit } => {
                EvalError::RoundLimit { stratum: *stratum, limit: *limit }
            }
            Error::Unstable { stratum, round, update } => {
                EvalError::Unstable { stratum: *stratum, round: *round, update: update.clone() }
            }
            _ => unreachable!("as_eval is only called for evaluation variants"),
        }
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Error {
        Error::Parse(e)
    }
}

impl From<LangError> for Error {
    fn from(e: LangError) -> Error {
        match e {
            LangError::Parse(e) => Error::Parse(e),
            LangError::Validate(e) => Error::Validate(e),
            LangError::Safety(e) => Error::Safety(e),
        }
    }
}

impl From<StratifyError> for Error {
    fn from(e: StratifyError) -> Error {
        Error::Stratify(e)
    }
}

impl From<LinearityViolation> for Error {
    fn from(e: LinearityViolation) -> Error {
        Error::Linearity(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Error {
        match e {
            EvalError::NotStratifiable(e) => Error::Stratify(e),
            EvalError::Linearity(v) => Error::Linearity(v),
            EvalError::RoundLimit { stratum, limit } => Error::RoundLimit { stratum, limit },
            EvalError::Unstable { stratum, round, update } => {
                Error::Unstable { stratum, round, update }
            }
        }
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Error {
        Error::Snapshot(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Error {
        Error::Storage(e)
    }
}

impl From<SnapshotFileError> for Error {
    fn from(e: SnapshotFileError) -> Error {
        Error::Storage(e.into())
    }
}

// ----- prepared programs ---------------------------------------------

/// A compiled update-program: parsed, validated, safety-checked and
/// stratified exactly once, reusable across any number of
/// [`Database::apply`] calls (and across databases — a `Prepared` is
/// not tied to the handle that built it, only to the
/// [`CyclePolicy`] it was compiled under). Build one with a handle's
/// `prepare` or `prepare_program`; [`Prepared::check`] runs the static
/// analysis on demand.
#[derive(Clone, Debug)]
pub struct Prepared {
    compiled: Arc<CompiledProgram>,
}

impl Prepared {
    /// The underlying program.
    pub fn program(&self) -> &Program {
        self.compiled.program()
    }

    /// The stratification computed at compile time.
    pub fn stratification(&self) -> &Stratification {
        self.compiled.stratification()
    }

    /// The cycle policy the program was compiled under.
    pub fn cycle_policy(&self) -> CyclePolicy {
        self.compiled.cycle_policy()
    }

    /// The static analysis of this program (`ruvo check`'s report,
    /// see [`crate::check`]): write-write conflicts, dead rules, arity
    /// mismatches, duplicate rules, cycle-policy advisories, the
    /// commutativity matrix and the rule dependency graph. Computed on
    /// each call, not at prepare time; a handle's prepare runs it only
    /// when [`DatabaseBuilder::deny_lints`] denied some lint.
    pub fn check(&self) -> crate::check::CheckReport {
        crate::check::check(&self.compiled)
    }

    /// Build the demand-driven query plan for `goal` against this
    /// program: prune rules that cannot contribute to the goal's
    /// chains, then (when a seeding strategy exists) guard the
    /// remaining rules with a magic demand predicate so evaluation
    /// touches only the demanded slice of the object base. Run the plan
    /// against any base via [`Database::run_query_plan`] (see
    /// [`crate::plan_query`]).
    ///
    /// The rewritten program is compiled once per set of kept rules and
    /// shared by every later plan that keeps the same rules, across
    /// clones of this `Prepared` and threads alike, so a plan per goal
    /// costs only the goal's own analysis.
    pub fn query_plan(&self, goal: Goal) -> QueryPlan {
        crate::query::plan_query(&self.compiled, goal)
    }

    pub(crate) fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }
}

// ----- builder -------------------------------------------------------

/// Configures and opens a [`Database`] (see [`Database::builder`]).
#[derive(Clone, Debug, Default)]
pub struct DatabaseBuilder {
    config: EngineConfig,
    data_dir: Option<PathBuf>,
    fsync: FsyncPolicy,
    checkpoint: CheckpointPolicy,
    seed: Option<ObjectBase>,
}

impl DatabaseBuilder {
    /// Handling of statically non-stratifiable programs (also fixes
    /// the policy [`Database::prepare`] compiles under).
    pub fn cycle_policy(mut self, policy: CyclePolicy) -> Self {
        self.config.cycles = policy;
        self
    }

    /// Promote static-analysis lints to prepare errors (sets
    /// [`EngineConfig::deny_lints`]): a program triggering any of them
    /// fails [`Database::prepare`], [`Database::prepare_program`] and
    /// [`crate::ServingDatabase::prepare`] with [`ErrorKind::Lint`].
    /// With no lint denied, preparing runs no static analysis.
    ///
    /// ```
    /// use ruvo_core::Database;
    /// use ruvo_lang::Lint;
    ///
    /// let db = Database::builder()
    ///     .deny_lints([Lint::WriteWriteConflict, Lint::DeadRule])
    ///     .open_src("o.m -> a.")
    ///     .unwrap();
    /// let err = db.prepare(
    ///     "r1: mod[X].m -> (V, 1) <= X.m -> V.
    ///      r2: mod[X].m -> (V, 2) <= X.m -> V.",
    /// ).unwrap_err();
    /// assert_eq!(err.kind(), ruvo_core::ErrorKind::Lint);
    /// ```
    pub fn deny_lints(mut self, lints: impl IntoIterator<Item = Lint>) -> Self {
        self.config.deny_lints.extend(lints);
        self
    }

    /// No-op: evaluation is serial. Sole caller `benchmark/src/layers.rs:345-347` (ROADMAP item 2).
    #[doc(hidden)]
    pub fn parallel(self, _on: bool) -> Self {
        self
    }

    /// No-op: evaluation is serial. Sole caller `benchmark/src/layers.rs:345-347` (ROADMAP item 2).
    #[doc(hidden)]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Safety valve for the per-stratum fixpoint loop.
    pub fn max_rounds_per_stratum(mut self, limit: usize) -> Self {
        self.config.max_rounds_per_stratum = limit;
        self
    }

    // ----- durability -------------------------------------------------

    /// Persist the database under `path` (used by
    /// [`DatabaseBuilder::open_dir`]): committed batches append to a
    /// write-ahead log there, checkpoints snapshot the full state, and
    /// reopening the same directory recovers everything acknowledged.
    pub fn data_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// When WAL appends reach stable storage (default:
    /// [`FsyncPolicy::Always`] — fsync per committed batch).
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// When the log is folded into a checkpoint (default: 1024
    /// records or 8 MiB, whichever first).
    pub fn checkpoint_policy(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Initial state for a **fresh** data directory. Ignored when
    /// [`DatabaseBuilder::open_dir`] finds existing durable state —
    /// the recovered state wins, so `seed` makes "create or recover"
    /// a one-liner.
    pub fn seed(mut self, ob: ObjectBase) -> Self {
        self.seed = Some(ob);
        self
    }

    /// Parse object-base text as the [`DatabaseBuilder::seed`].
    pub fn seed_src(self, src: &str) -> Result<Self, Error> {
        let ob = ObjectBase::parse(src)?;
        Ok(self.seed(ob))
    }

    /// Open the durable database under [`DatabaseBuilder::data_dir`]:
    /// load the latest checkpoint, replay the valid WAL tail through
    /// the engine (torn or corrupt tail records are detected by
    /// checksum and cleanly dropped), and attach the store so every
    /// further commit writes through it.
    ///
    /// A fresh directory starts from the [`DatabaseBuilder::seed`]
    /// (or empty), which is checkpointed immediately so it is durable
    /// before the first commit.
    pub fn open_dir(self) -> Result<Database, Error> {
        let Some(dir) = self.data_dir else {
            return Err(StorageError::Misuse(
                "open_dir needs a data directory: call data_dir(..) first",
            )
            .into());
        };
        let opened = WalStore::open(dir, self.fsync, self.checkpoint)?;
        let fresh = opened.is_fresh();
        let base = match opened.checkpoint {
            Some(ckpt) => ckpt.base,
            None => {
                if fresh {
                    self.seed.unwrap_or_default()
                } else {
                    ObjectBase::new()
                }
            }
        };
        // Replay the tail volatile (the sink attaches afterwards, so
        // re-applied programs are not re-logged). Only successful
        // transactions were ever logged: a replay failure means the
        // directory was written under an incompatible configuration.
        let mut db = Database { session: Session::new(base).with_config(self.config) };
        db.replay_wal_records(&opened.records)?;
        let mut store = opened.store;
        if fresh && !db.current().is_empty() {
            // Make the seed durable before acknowledging the open.
            store.checkpoint(db.current())?;
        }
        db.session.set_sink(Box::new(store));
        Ok(db)
    }

    /// Open a database over `ob` with this configuration (in-memory;
    /// see [`DatabaseBuilder::open_dir`] for the durable variant).
    pub fn open(self, ob: ObjectBase) -> Database {
        Database { session: Session::new(ob).with_config(self.config) }
    }

    /// Parse object-base text and open a database over it.
    pub fn open_src(self, src: &str) -> Result<Database, Error> {
        let ob = ObjectBase::parse(src)?;
        Ok(self.open(ob))
    }
}

// ----- database ------------------------------------------------------

/// A persistent handle over an evolving object base.
///
/// See the [module docs](self) for the model. All mutating operations
/// are transactional: on any error the committed state is untouched.
#[derive(Clone, Debug)]
pub struct Database {
    session: Session,
}

impl Database {
    /// Open a database over `ob` with the default configuration.
    pub fn open(ob: ObjectBase) -> Database {
        Database::builder().open(ob)
    }

    /// Parse object-base text and open a database over it.
    pub fn open_src(src: &str) -> Result<Database, Error> {
        Database::builder().open_src(src)
    }

    /// Load a database from a binary snapshot produced by
    /// [`ruvo_obase::snapshot::write`] (or [`Snapshot::to_bytes`]).
    pub fn open_bytes(data: &[u8]) -> Result<Database, Error> {
        let ob = ruvo_obase::snapshot::read(data)?;
        Ok(Database::open(ob))
    }

    /// Open (or create) a **durable** database under `path`: recover
    /// the latest checkpoint plus the valid WAL tail, then write every
    /// further commit through the log before acknowledging it. See
    /// [`DatabaseBuilder::open_dir`] for configuration (fsync policy,
    /// checkpointing, seeding a fresh directory).
    ///
    /// ```no_run
    /// use ruvo_core::Database;
    ///
    /// let mut db = Database::open_dir("/var/lib/myapp/ruvo")?;
    /// db.apply_src("ins[order1].total -> 90.")?;
    /// // Process dies here: the commit above was fsynced before
    /// // `apply_src` returned, so reopening the directory recovers it.
    /// # Ok::<(), ruvo_core::Error>(())
    /// ```
    pub fn open_dir(path: impl Into<PathBuf>) -> Result<Database, Error> {
        Database::builder().data_dir(path).open_dir()
    }

    /// Start configuring a database.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// The engine configuration transactions run under.
    pub fn config(&self) -> &EngineConfig {
        self.session.config()
    }

    // ----- preparing and applying programs ---------------------------

    /// Parse, validate, safety-check and stratify program text
    /// **once**, returning a handle that [`Database::apply`] can run
    /// any number of times with none of that work repeated.
    ///
    /// The compiled handle also carries the per-rule index plan, so
    /// every application scans through the object base's value-keyed
    /// method index and evaluates fixpoints semi-naively.
    ///
    /// # Quickstart
    ///
    /// The paper's §2.1 salary raise, end to end (the long-form
    /// version lives in `examples/quickstart.rs`):
    ///
    /// ```
    /// use ruvo_core::Database;
    /// use ruvo_term::{int, num, oid};
    ///
    /// let mut db = Database::open_src(
    ///     "henry.isa -> empl.  henry.sal -> 250.
    ///      mary.isa -> empl.   mary.sal -> 300.
    ///      rex.isa -> dog.     rex.sal -> 0.",
    /// )?;
    ///
    /// // Compiled once: parse + validate + safety plan + strata + index plan.
    /// let raise = db.prepare(
    ///     "raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
    /// )?;
    ///
    /// let before = db.snapshot();     // O(1) read view
    /// db.apply(&raise)?;              // all-or-nothing transaction
    ///
    /// assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
    /// assert_eq!(db.current().lookup1(oid("rex"), "sal"), vec![int(0)]);
    /// assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);
    ///
    /// // Reusable: apply again for another 10%.
    /// db.apply(&raise)?;
    /// assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![num(302.5)]);
    /// # Ok::<(), ruvo_core::Error>(())
    /// ```
    pub fn prepare(&self, src: &str) -> Result<Prepared, Error> {
        let program = Program::parse(src)?;
        Database::prepare_gated(program, self.config())
    }

    /// [`Database::prepare`] for an already-built program. Every
    /// [`ruvo_lang::Rule`] passed the front end's rule-level pass when it
    /// was built, so the one rejection left is a program-level one: two
    /// rules sharing a label ([`ruvo_lang::analysis::check_labels`],
    /// [`ErrorKind::Validate`]).
    pub fn prepare_program(&self, program: Program) -> Result<Prepared, Error> {
        ruvo_lang::analysis::check_labels(&program)?;
        Database::prepare_gated(program, self.config())
    }

    /// The one prepare gate: compile under `config.cycles`, then — only
    /// when some lint is denied — run the static analysis and escalate
    /// every finding of a denied lint to [`Error::DeniedLint`]. Shared
    /// with [`crate::ServingDatabase`], which prepares without the
    /// writer lock and so cannot go through `&Database`.
    pub(crate) fn prepare_gated(
        program: Program,
        config: &EngineConfig,
    ) -> Result<Prepared, Error> {
        let prepared =
            Prepared { compiled: Arc::new(CompiledProgram::compile(program, config.cycles)?) };
        if config.deny_lints.is_empty() {
            return Ok(prepared);
        }
        let diagnostics: Vec<Diagnostic> = prepared
            .check()
            .diagnostics
            .into_iter()
            .filter(|d| config.deny_lints.contains(&d.lint))
            .map(|mut d| {
                d.severity = ruvo_lang::Severity::Error;
                d
            })
            .collect();
        if !diagnostics.is_empty() {
            return Err(Error::DeniedLint { diagnostics });
        }
        Ok(prepared)
    }

    /// Run a prepared program as one transaction: on success the
    /// committed base becomes the program's `ob′` and the transaction
    /// becomes [`Database::last_txn`]; on any error the database is
    /// untouched.
    ///
    /// The evaluation's working copy shares every version state with
    /// the committed base (copy-on-write) and pays only for the states
    /// the update process actually touches.
    pub fn apply(&mut self, prepared: &Prepared) -> Result<&Txn, Error> {
        self.session.apply_compiled(prepared.compiled())
    }

    /// Prepare and apply program text in one step (no compilation
    /// reuse — prefer [`Database::prepare`] + [`Database::apply`] for
    /// repeated application).
    pub fn apply_src(&mut self, src: &str) -> Result<&Txn, Error> {
        let prepared = self.prepare(src)?;
        self.apply(&prepared)
    }

    /// [`Database::apply_src`] for an already-parsed program.
    pub fn apply_program(&mut self, program: Program) -> Result<&Txn, Error> {
        let prepared = self.prepare_program(program)?;
        self.apply(&prepared)
    }

    /// Evaluate a prepared program against the committed base
    /// **without committing**: a dry run. The full [`Outcome`]
    /// (including `result(P)` with every version, traces and stats)
    /// is returned and the database is unchanged — even for results
    /// that would fail the §5 commit gate, which only a branching
    /// seeded head (`ins(o)` beside `del(o)`) produces: its
    /// [`Outcome::try_new_object_base`] reports the violation.
    ///
    /// The working copy is an O(shards) copy-on-write clone of the
    /// committed base (see [`Session::prepared_work`]), so a what-if
    /// loop — many `evaluate` calls against one committed state — pays
    /// for what each run touches, not for the base.
    pub fn evaluate(&self, prepared: &Prepared) -> Result<Outcome, Error> {
        let work = self.session.prepared_work();
        Ok(crate::engine::run_compiled(prepared.compiled(), self.session.config(), work)?)
    }

    // ----- queries ---------------------------------------------------

    /// Ask `goal` against the result of evaluating `prepared` on the
    /// committed base, **without committing** — the demand-driven read
    /// path. The goal is magic-set rewritten against the program
    /// ([`Prepared::query_plan`]) so that, for selective goals, only
    /// the demanded slice of the object base is evaluated; the answers
    /// are exactly the goal's matches against the full evaluation's
    /// `result(P)` — `match_goal(db.evaluate(&p)?.result(), &goal)`,
    /// the oracle the differential query tests compare against.
    ///
    /// ```
    /// use ruvo_core::Database;
    /// use ruvo_lang::Goal;
    ///
    /// let db = Database::open_src(
    ///     "henry.isa -> empl. henry.sal -> 250.
    ///      mary.isa -> empl.  mary.sal -> 300.",
    /// )?;
    /// let raise = db.prepare(
    ///     "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
    /// )?;
    /// let answers = db.query(&raise, Goal::parse("?- mod(henry).sal -> S.")?)?;
    /// assert_eq!(answers.rows, vec![vec![ruvo_term::int(275)]]);
    /// assert!(db.is_empty(), "queries never commit");
    /// # Ok::<(), ruvo_core::Error>(())
    /// ```
    pub fn query(&self, prepared: &Prepared, goal: Goal) -> Result<QueryAnswers, Error> {
        let plan = prepared.query_plan(goal);
        self.run_query_plan(&plan)
    }

    /// [`Database::query`] for goal text (`?- B1 & ... & Bk .`).
    pub fn query_src(&self, prepared: &Prepared, goal: &str) -> Result<QueryAnswers, Error> {
        self.query(prepared, Goal::parse(goal)?)
    }

    /// Run an already-built [`QueryPlan`] against the committed base.
    /// Keeping a plan ([`Prepared::query_plan`]) for a goal asked again
    /// saves only that goal's analysis: the compiled rewrite is shared
    /// across goals by the prepared program either way.
    pub fn run_query_plan(&self, plan: &QueryPlan) -> Result<QueryAnswers, Error> {
        let work = self.session.prepared_work();
        Ok(crate::query::run_query(plan, self.session.config(), work)?)
    }

    // ----- transactions ----------------------------------------------

    /// Run several applications as one atomic unit: if `f` returns
    /// `Ok`, everything it applied stays committed; if it returns
    /// `Err`, the database rolls back to the state at entry.
    ///
    /// ```
    /// use ruvo_core::Database;
    ///
    /// let mut db = Database::open_src("acct.balance -> 100.").unwrap();
    /// let credit = db.prepare(
    ///     "mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.",
    /// ).unwrap();
    /// let err = db.transact(|txn| {
    ///     txn.apply(&credit)?;
    ///     txn.apply_src("this does not parse")?;
    ///     Ok(())
    /// });
    /// assert!(err.is_err());
    /// // The successful credit was rolled back with the failure.
    /// assert_eq!(
    ///     db.current().lookup1(ruvo_term::oid("acct"), "balance"),
    ///     vec![ruvo_term::int(100)],
    /// );
    /// ```
    /// The block is one record scope of the [`Session`], and each
    /// application inside it a nested one. On a durable database the
    /// block's commits are appended as **one** WAL record when the
    /// closure succeeds — an aborted block leaves no trace in the log,
    /// and a crash inside the block can never replay half a
    /// transaction. Volatile or durable, an aborted block leaves
    /// [`Database::last_txn`] as it was before the block.
    pub fn transact<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        Session::record(self, |db| &mut db.session, |db| f(&mut Transaction { db }))
    }

    // ----- reads -----------------------------------------------------

    /// The committed object base.
    pub fn current(&self) -> &ObjectBase {
        self.session.current()
    }

    /// An O(1) point-in-time read view of the committed state; stays
    /// stable (and cheap) while this database keeps committing.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::new(self.session.current_shared())
    }

    /// The newest committed transaction, with its whole [`Outcome`]:
    /// `result(P)`'s version history, traces and statistics. Older
    /// transactions are not kept. `None` before the first commit and
    /// after a rollback past one.
    pub fn last_txn(&self) -> Option<&Txn> {
        self.session.last_txn().map(|txn| &**txn)
    }

    /// Number of committed transactions: the next commit's
    /// [`Txn::seq`].
    pub fn len(&self) -> usize {
        self.session.commits()
    }

    /// True if no transaction has been committed.
    pub fn is_empty(&self) -> bool {
        self.session.commits() == 0
    }

    /// The writer core this database commits through. Its public
    /// surface drives the engine by hand: a
    /// [`Session::prepared_work`] copy for [`crate::run_compiled`], the
    /// [`Session::config`] to run it under, and — on a volatile clone —
    /// [`Session::commit`]. Every other write goes through `apply`,
    /// `transact` and the savepoint verbs here.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable session access for the serving layer's group-commit
    /// drain and checkpoints (the public mutation surface stays
    /// `apply`/`transact`).
    pub(crate) fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Upgrade into the thread-safe serving handle
    /// ([`crate::ServingDatabase`]): cloneable across threads,
    /// lock-free snapshot reads, single-writer group commit. A
    /// database opened with [`Database::open_dir`] keeps its
    /// durability: every drained group-commit batch is appended and
    /// fsynced as one WAL record before the new head is published.
    pub fn into_serving(self) -> crate::ServingDatabase {
        crate::ServingDatabase::new(self)
    }

    /// Upgrade an **in-memory** database into a durable serving
    /// handle: attach a fresh data directory at `path` (it must not
    /// already contain a database — recovery goes through
    /// [`Database::open_dir`]), checkpoint the current state so it is
    /// durable immediately, then serve.
    pub fn into_serving_durable(
        mut self,
        path: impl Into<PathBuf>,
    ) -> Result<crate::ServingDatabase, Error> {
        let dir = path.into();
        if self.is_durable() {
            return Err(
                StorageError::Misuse("database is already durable; use into_serving()").into()
            );
        }
        let opened = WalStore::open(&dir, FsyncPolicy::default(), CheckpointPolicy::default())?;
        if !opened.is_fresh() {
            return Err(StorageError::Exists { path: dir.display().to_string() }.into());
        }
        let mut store = opened.store;
        store.checkpoint(self.current())?;
        self.session.set_sink(Box::new(store));
        Ok(self.into_serving())
    }

    /// True when commits are written through a durable store (the
    /// database was opened via [`Database::open_dir`] or upgraded via
    /// [`Database::into_serving_durable`]).
    pub fn is_durable(&self) -> bool {
        self.session.is_durable()
    }

    /// Re-apply logged WAL records in order: the single source of
    /// recovery-replay semantics, used by [`Database::open_dir`] and
    /// by `ruvo recover`'s read-only dry run. Each program compiles
    /// under its *recorded* cycle policy; any failure is reported as
    /// [`ErrorKind::Storage`] with the failing transaction's sequence
    /// number. Returns the number of programs replayed.
    ///
    /// Note: on a durable database the replayed commits are logged
    /// again like any other commit — recovery itself replays through
    /// a volatile session *before* attaching the store.
    pub fn replay_wal_records(
        &mut self,
        records: &[crate::store::WalRecord],
    ) -> Result<u64, Error> {
        let mut replayed = 0u64;
        for record in records {
            for (i, logged) in record.programs.iter().enumerate() {
                let seq = record.seq + i as u64;
                let replay =
                    |e: Error| Error::Storage(StorageError::Replay { seq, error: e.to_string() });
                let program = Program::parse(&logged.source).map_err(|e| replay(e.into()))?;
                let compiled = CompiledProgram::compile(program, logged.cycles)
                    .map_err(|e| replay(e.into()))?;
                self.session.apply_compiled(&compiled).map_err(replay)?;
                replayed += 1;
            }
        }
        Ok(replayed)
    }

    /// Force a checkpoint now: persist the committed state into the
    /// data directory and truncate the WAL. A no-op without a data
    /// directory. Incremental — once a chain exists, only the shards
    /// dirtied since the last checkpoint are written (a delta
    /// generation); recovery time is proportional to the log tail
    /// plus the chain, so checkpointing before shutdown makes the
    /// next open fast.
    pub fn checkpoint(&mut self) -> Result<crate::store::CheckpointOutcome, Error> {
        self.session.checkpoint()
    }

    /// Compact the checkpoint chain into a single fresh full
    /// generation now (what `ruvo recover --compact` runs). A no-op
    /// without a data directory.
    pub fn compact(&mut self) -> Result<crate::store::CheckpointOutcome, Error> {
        self.session.checkpoint_full()
    }

    // ----- savepoints ------------------------------------------------

    /// Record an O(1) rollback point capturing the committed state.
    pub fn savepoint(&mut self) -> SavepointId {
        self.session.savepoint()
    }

    /// Restore the committed state and the transaction count to
    /// `savepoint` (later savepoints are invalidated; the target stays
    /// valid). A rollback past a commit leaves no
    /// [`Database::last_txn`].
    ///
    /// On a durable database the rolled-back transactions are already
    /// in the WAL, so the restored state is checkpointed — a delta of
    /// the shards that differ from the last checkpoint, or a full
    /// generation when the policy asks for one — and the log truncated,
    /// making the dead suffix unreachable to recovery.
    pub fn rollback_to(&mut self, savepoint: SavepointId) -> Result<(), Error> {
        self.session.rollback_to(savepoint)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::open(ObjectBase::new())
    }
}

/// The handle [`Database::transact`] passes to its closure: the same
/// apply surface, minus nested transactions and savepoint management.
pub struct Transaction<'db> {
    db: &'db mut Database,
}

impl Transaction<'_> {
    /// Apply a prepared program (see [`Database::apply`]).
    pub fn apply(&mut self, prepared: &Prepared) -> Result<(), Error> {
        self.db.apply(prepared).map(|_| ())
    }

    /// Prepare and apply program text (see [`Database::apply_src`]).
    pub fn apply_src(&mut self, src: &str) -> Result<(), Error> {
        self.db.apply_src(src).map(|_| ())
    }

    /// Apply an already-parsed program.
    pub fn apply_program(&mut self, program: Program) -> Result<(), Error> {
        self.db.apply_program(program).map(|_| ())
    }

    /// The state as of the latest application inside this transaction.
    pub fn current(&self) -> &ObjectBase {
        self.db.current()
    }

    /// The newest transaction committed so far, this block's included.
    pub fn last_txn(&self) -> Option<&Txn> {
        self.db.last_txn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid};

    const BASE: &str = "henry.isa -> empl. henry.sal -> 250. mary.isa -> empl. mary.sal -> 300.";
    const RAISE: &str = "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.";

    #[test]
    fn prepare_once_apply_many() {
        let mut db = Database::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        assert_eq!(raise.stratification().strata.len(), 1);
        db.apply(&raise).unwrap();
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
        // Same handle, next state: 275 * 1.1 = 302.5 — the committed
        // base is flat, so the rule matches the initial version again.
        db.apply(&raise).unwrap();
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![ruvo_term::num(302.5)]);
        assert_eq!(db.len(), 2);
    }

    #[test]
    fn snapshots_are_stable_across_commits() {
        let mut db = Database::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let before = db.snapshot();
        db.apply(&raise).unwrap();
        let after = db.snapshot();
        assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);
        assert_eq!(after.lookup1(oid("henry"), "sal"), vec![int(275)]);
        db.apply(&raise).unwrap();
        assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);
        assert_eq!(after.lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn failed_apply_leaves_database_untouched() {
        let mut db = Database::open_src(BASE).unwrap();
        let before = db.snapshot();
        let err = db.apply_src("no parse").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Parse);
        assert_eq!(db.current(), before.object_base());
        assert!(db.is_empty());
    }

    #[test]
    fn transact_commits_all_or_nothing() {
        let mut db = Database::open_src("acct.balance -> 100.").unwrap();
        let credit =
            db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
        let total = db
            .transact(|txn| {
                txn.apply(&credit)?;
                txn.apply(&credit)?;
                Ok(txn.current().lookup1(oid("acct"), "balance"))
            })
            .unwrap();
        assert_eq!(total, vec![int(200)]);
        assert_eq!(db.len(), 2);

        let err = db.transact(|txn| {
            txn.apply(&credit)?;
            txn.apply_src("exists is reserved: ins[x].exists -> x.")?;
            Ok(())
        });
        assert!(err.is_err());
        assert_eq!(db.current().lookup1(oid("acct"), "balance"), vec![int(200)]);
        assert_eq!(db.len(), 2, "rolled-back applications must not be logged");
    }

    #[test]
    fn savepoint_roundtrip_through_database() {
        let mut db = Database::open_src(BASE).unwrap();
        let sp = db.savepoint();
        db.apply_src("del[henry].* .").unwrap();
        assert!(db.current().lookup1(oid("henry"), "sal").is_empty());
        db.rollback_to(sp).unwrap();
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(250)]);
        // Applying after a rollback works (the work cache rebuilds).
        let raise = db.prepare(RAISE).unwrap();
        db.apply(&raise).unwrap();
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
    }

    #[test]
    fn error_kinds_are_stable() {
        let db = Database::open(ObjectBase::new());
        let cases: Vec<(Result<Prepared, Error>, ErrorKind)> = vec![
            (db.prepare("not a program"), ErrorKind::Parse),
            (db.prepare("ins[x].exists -> x."), ErrorKind::Validate),
            (db.prepare("ins[X].p -> Y <= X.q -> 1."), ErrorKind::Safety),
            (
                // Condition (c) cycle: the rule negates an update-term
                // its own head can derive.
                db.prepare("ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1."),
                ErrorKind::Stratify,
            ),
        ];
        for (result, kind) in cases {
            let err = result.unwrap_err();
            assert_eq!(err.kind(), kind, "error: {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn deny_lints_promotes_warnings_to_errors() {
        const CONFLICT: &str = "r1: mod[X].price -> (P, 1) <= X.price -> P.\n\
                                r2: mod[X].price -> (P, 2) <= X.price -> P.";
        // Without a deny list the program prepares; its report, asked
        // for, holds the conflict.
        let lenient = Database::open_src("item.price -> 7.").unwrap();
        let report = lenient.prepare(CONFLICT).unwrap().check();
        assert!(report.diagnostics.iter().any(|d| d.lint == Lint::WriteWriteConflict));
        assert!(!report.commutativity().all_commute());

        // With the lint denied, prepare fails with ErrorKind::Lint and the
        // diagnostics are re-severitied to errors.
        let strict = Database::builder()
            .deny_lints([Lint::WriteWriteConflict])
            .open_src("item.price -> 7.")
            .unwrap();
        let err = strict.prepare(CONFLICT).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Lint);
        match &err {
            Error::DeniedLint { diagnostics } => {
                assert!(diagnostics.iter().all(|d| d.is_error()));
                assert!(diagnostics.iter().all(|d| d.lint == Lint::WriteWriteConflict));
            }
            other => panic!("expected DeniedLint, got {other}"),
        }
        // Denying an unrelated lint leaves the program preparable.
        let unrelated =
            Database::builder().deny_lints([Lint::DeadRule]).open_src("item.price -> 7.").unwrap();
        assert!(unrelated.prepare(CONFLICT).is_ok());
    }

    #[test]
    fn builder_config_is_respected() {
        let mut db = Database::builder().max_rounds_per_stratum(1).open_src("a.p -> 1.").unwrap();
        let err = db
            .apply_src("r1: ins[a].x -> 1 <= a.p -> 1. r2: ins[a].y -> 1 <= ins(a).x -> 1.")
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::RoundLimit);

        let mut dynamic = Database::builder()
            .cycle_policy(CyclePolicy::RuntimeStability)
            .open_src("a.m -> 1. a.trigger -> 1.")
            .unwrap();
        // Statically rejected under the default policy, accepted here.
        let cyclic = "
            r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
            r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.
        ";
        assert_eq!(
            Database::open(ObjectBase::new()).prepare(cyclic).unwrap_err().kind(),
            ErrorKind::Stratify
        );
        let prepared = dynamic.prepare(cyclic).unwrap();
        dynamic.apply(&prepared).unwrap();
        assert_eq!(dynamic.current().lookup1(oid("a"), "go"), vec![int(1)]);
    }

    #[test]
    fn evaluate_is_a_dry_run() {
        let db = Database::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let outcome = db.evaluate(&raise).unwrap();
        // The full result is visible, the database unchanged.
        assert_eq!(
            outcome.try_new_object_base().unwrap().lookup1(oid("henry"), "sal"),
            vec![int(275)]
        );
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(250)]);
        assert!(db.is_empty());
        // On a branching seeded head, evaluate exposes the non-linear
        // result that apply refuses to commit.
        let mut branchy = Database::open_src("o.m -> a. ins(o).m -> b. del(o).m -> c.").unwrap();
        let unrelated = branchy.prepare("ins[z].p -> 1.").unwrap();
        let outcome = branchy.evaluate(&unrelated).unwrap();
        assert!(outcome.try_new_object_base().is_err(), "result is non-linear");
        assert!(!outcome.result().is_empty(), "result(P) is still inspectable");
        assert_eq!(branchy.apply(&unrelated).unwrap_err().kind(), ErrorKind::Linearity);
    }

    #[test]
    fn query_is_demand_driven_and_matches_escape_hatch() {
        let db = Database::open_src(BASE).unwrap();
        let raise = db.prepare(RAISE).unwrap();
        let plan = raise.query_plan(Goal::parse("?- mod(henry).sal -> S.").unwrap());
        assert_eq!(plan.mode(), crate::query::QueryMode::Seeded);
        let fast = db.query_src(&raise, "?- mod(henry).sal -> S.").unwrap();
        assert_eq!(fast.rows, vec![vec![int(275)]]);
        assert!(db.is_empty(), "queries never commit");
        // The escape hatch — the goal matched against the full
        // evaluation's result(P) — must agree exactly.
        let goal = Goal::parse("?- mod(henry).sal -> S.").unwrap();
        let slow = crate::query::match_goal(db.evaluate(&raise).unwrap().result(), &goal);
        assert_eq!(fast.vars, slow.vars);
        assert_eq!(fast.rows, slow.rows);
    }

    #[test]
    fn prepared_is_reusable_across_databases() {
        let raise = Database::default().prepare(RAISE).unwrap();
        for base in [BASE, "solo.isa -> empl. solo.sal -> 100."] {
            let mut db = Database::open_src(base).unwrap();
            db.apply(&raise).unwrap();
        }
    }
}
