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
//!   base with the all-or-nothing [`Session`] semantics, amortizing
//!   compilation across applications.
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

use crate::engine::{CompiledProgram, CyclePolicy, EngineConfig, Outcome, TraceLevel};
use crate::error::EvalError;
use crate::query::{QueryAnswers, QueryPlan};
use crate::session::{SavepointId, Session, SessionError, Txn};
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
/// errors (`LangError`, `StratifyError`, `EvalError`, `SessionError`,
/// `SnapshotError`) behind one type with a stable [`ErrorKind`].
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
            Error::UnknownSavepoint(id) => SessionError::UnknownSavepoint(*id).fmt(f),
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

impl From<SessionError> for Error {
    fn from(e: SessionError) -> Error {
        match e {
            SessionError::Lang(e) => e.into(),
            SessionError::Eval(e) => e.into(),
            SessionError::UnknownSavepoint(id) => Error::UnknownSavepoint(id),
            SessionError::Storage(e) => Error::Storage(e),
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
/// [`CyclePolicy`] it was compiled under).
#[derive(Clone, Debug)]
pub struct Prepared {
    compiled: Arc<CompiledProgram>,
    /// The static-analysis report computed alongside compilation
    /// (see [`crate::check`]); shared so cloning stays O(1).
    report: Arc<crate::check::CheckReport>,
}

impl Prepared {
    /// Compile `program` under `cycles` (standalone entry point; most
    /// callers use [`Database::prepare`]). The full static analysis
    /// runs once here; its findings are attached as
    /// [`Prepared::warnings`].
    pub fn compile(program: Program, cycles: CyclePolicy) -> Result<Prepared, Error> {
        let compiled = CompiledProgram::compile(program, cycles)?;
        let report = Arc::new(crate::check::check(&compiled));
        Ok(Prepared { compiled: Arc::new(compiled), report })
    }

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

    /// Advisory findings from the static analysis (`ruvo check`'s
    /// report): write-write conflicts, dead rules, arity mismatches,
    /// duplicate rules, cycle-policy advisories.
    /// [`DatabaseBuilder::deny_lints`] turns selected ones into
    /// [`Database::prepare`] errors.
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.report.diagnostics
    }

    /// The rule×rule commutativity matrix (see [`crate::check`]).
    pub fn commutativity(&self) -> &crate::check::CommutativityMatrix {
        self.report.commutativity()
    }

    /// Allow-level advisory notes from the dependency analysis
    /// (self-dependent rules). Informational only: never escalated by
    /// [`DatabaseBuilder::deny_lints`] and never part of
    /// [`Prepared::warnings`].
    pub fn advisories(&self) -> &[Diagnostic] {
        &self.report.advisories
    }

    /// The rule dependency graph computed once at prepare time: per-
    /// rule read/write sets and the typed same-stratum edges behind
    /// the order-sensitivity lints (see [`crate::deps`]).
    pub fn deps(&self) -> &crate::deps::RuleDepGraph {
        &self.report.deps
    }

    /// Build the demand-driven query plan for `goal` against this
    /// program: prune rules that cannot contribute to the goal's
    /// chains, then (when a seeding strategy exists) guard the
    /// remaining rules with a magic demand predicate so evaluation
    /// touches only the demanded slice of the object base. The plan is
    /// a pure rewrite — build it once, run it against any base via
    /// [`Database::query`] (see [`crate::plan_query`]).
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
    deny: Vec<Lint>,
}

impl DatabaseBuilder {
    /// Handling of statically non-stratifiable programs (also fixes
    /// the policy [`Database::prepare`] compiles under).
    pub fn cycle_policy(mut self, policy: CyclePolicy) -> Self {
        self.config.cycles = policy;
        self
    }

    /// Promote static-analysis lints to [`Database::prepare`] errors:
    /// a program triggering any of them fails with
    /// [`ErrorKind::Lint`] instead of carrying warnings.
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
        self.deny.extend(lints);
        self
    }

    /// [`DatabaseBuilder::deny_lints`] for a single lint.
    pub fn deny_lint(self, lint: Lint) -> Self {
        self.deny_lints([lint])
    }

    /// Trace detail recorded per transaction.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.config.trace = level;
        self
    }

    /// §5 runtime version-linearity check (default on).
    pub fn check_linearity(mut self, on: bool) -> Self {
        self.config.check_linearity = on;
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

    /// Verify firing stability on every stratum (diagnostic).
    pub fn verify_stability(mut self, on: bool) -> Self {
        self.config.verify_stability = on;
        self
    }

    /// Replace the whole configuration at once.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
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
        let mut db = Database {
            session: Session::new(base).with_config(self.config),
            deny_lints: self.deny,
        };
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
        Database { session: Session::new(ob).with_config(self.config), deny_lints: self.deny }
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
    /// Lints promoted to prepare-time errors
    /// ([`DatabaseBuilder::deny_lints`]).
    deny_lints: Vec<Lint>,
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
        self.prepare_program(program)
    }

    /// [`Database::prepare`] for an already-parsed program.
    pub fn prepare_program(&self, program: Program) -> Result<Prepared, Error> {
        Database::prepare_gated(program, self.config().cycles, &self.deny_lints)
    }

    /// The one prepare gate: compile under `cycles`, then escalate any
    /// warning whose lint is in `deny` to [`Error::DeniedLint`]. Shared
    /// with [`crate::ServingDatabase`], which prepares without the
    /// writer lock and so cannot go through `&Database`.
    pub(crate) fn prepare_gated(
        program: Program,
        cycles: CyclePolicy,
        deny: &[Lint],
    ) -> Result<Prepared, Error> {
        let prepared = Prepared::compile(program, cycles)?;
        let diagnostics: Vec<Diagnostic> = prepared
            .warnings()
            .iter()
            .filter(|d| deny.contains(&d.lint))
            .map(|d| {
                let mut d = d.clone();
                d.severity = ruvo_lang::Severity::Error;
                d
            })
            .collect();
        if !diagnostics.is_empty() {
            return Err(Error::DeniedLint { diagnostics });
        }
        Ok(prepared)
    }

    /// The lints this database promotes to prepare-time errors.
    pub(crate) fn deny_lints(&self) -> &[Lint] {
        &self.deny_lints
    }

    /// Run a prepared program as one transaction: on success the
    /// committed base becomes the program's `ob′` and the transaction
    /// is logged; on any error the database is untouched.
    ///
    /// The evaluation's working copy shares every version state with
    /// the committed base (copy-on-write) and pays only for the states
    /// the update process actually touches.
    pub fn apply(&mut self, prepared: &Prepared) -> Result<&Txn, Error> {
        Ok(self.session.apply_compiled(prepared.compiled())?)
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
    /// that would fail the §5 commit gate, which makes this the way
    /// to inspect non-version-linear results under
    /// [`DatabaseBuilder::check_linearity`]`(false)`.
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

    /// Run an already-built [`QueryPlan`] against the committed base
    /// (build one via [`Prepared::query_plan`] to amortize the rewrite
    /// across repeated asks of the same goal).
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
    /// On a durable database the block's commits are buffered and
    /// appended as **one** WAL record when the closure succeeds — an
    /// aborted block leaves no trace in the log, and a crash inside
    /// the block can never replay half a transaction.
    pub fn transact<T>(
        &mut self,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let guard = self.session.savepoint();
        let owns_buffer = self.session.begin_txn_buffer();
        let mut txn = Transaction { db: self };
        match f(&mut txn) {
            Ok(value) => {
                if owns_buffer {
                    if let Err(e) = self.session.flush_txn_buffer() {
                        // Nothing was appended: a plain in-memory
                        // rollback re-aligns with the durable image.
                        self.session
                            .rollback_to_unlogged(guard)
                            .expect("transact guard savepoint is always valid");
                        self.session.release(guard);
                        return Err(e.into());
                    }
                }
                self.session.release(guard);
                Ok(value)
            }
            Err(e) => {
                if owns_buffer {
                    self.session.discard_txn_buffer();
                }
                self.session
                    .rollback_to_unlogged(guard)
                    .expect("transact guard savepoint is always valid");
                self.session.release(guard);
                Err(e)
            }
        }
    }

    // ----- reads -----------------------------------------------------

    /// The committed object base.
    pub fn current(&self) -> &ObjectBase {
        self.session.current()
    }

    /// An O(1) point-in-time read view of the committed state; stays
    /// stable (and cheap) while this database keeps committing.
    pub fn snapshot(&self) -> Snapshot {
        self.session.snapshot()
    }

    /// Committed transactions, oldest first. The newest keeps its full
    /// `result(P)` version history; every entry keeps its statistics,
    /// its `changed()` delta and `facts_after` (see [`Txn::outcome`]
    /// and [`Session::log`]).
    pub fn log(&self) -> &[Txn] {
        self.session.log()
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.session.len()
    }

    /// True if no transaction has been committed.
    pub fn is_empty(&self) -> bool {
        self.session.is_empty()
    }

    /// The underlying session (log, savepoints and engine config).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable session access for the serving layer's group-commit
    /// drain (the public mutation surface stays `apply`/`transact`).
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
                self.session.apply_compiled(&compiled).map_err(|e| replay(e.into()))?;
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
        Ok(self.session.checkpoint()?)
    }

    /// Compact the checkpoint chain into a single fresh full
    /// generation now (what `ruvo recover --compact` runs). A no-op
    /// without a data directory.
    pub fn compact(&mut self) -> Result<crate::store::CheckpointOutcome, Error> {
        Ok(self.session.checkpoint_full()?)
    }

    /// First half of a background checkpoint (see
    /// [`crate::Session::plan_checkpoint`]): an O(shards) plan plus
    /// the matching shared state handle, to be encoded off-thread.
    pub fn plan_checkpoint(
        &self,
        mode: crate::store::CheckpointMode,
    ) -> Option<(crate::store::CheckpointPlan, std::sync::Arc<ObjectBase>)> {
        self.session.plan_checkpoint(mode)
    }

    /// Second half of a background checkpoint: install an encoded
    /// generation produced by [`crate::store::encode_checkpoint_plan`].
    pub fn install_checkpoint(
        &mut self,
        encoded: crate::store::EncodedCheckpoint,
    ) -> Result<crate::store::CheckpointOutcome, Error> {
        Ok(self.session.install_checkpoint(encoded)?)
    }

    // ----- savepoints ------------------------------------------------

    /// Record an O(1) rollback point capturing the committed state.
    pub fn savepoint(&mut self) -> SavepointId {
        self.session.savepoint()
    }

    /// Restore the committed state and transaction log to `savepoint`
    /// (later savepoints are invalidated; the target stays valid).
    pub fn rollback_to(&mut self, savepoint: SavepointId) -> Result<(), Error> {
        Ok(self.session.rollback_to(savepoint)?)
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

    /// Transactions committed so far, including ones from this block.
    pub fn log(&self) -> &[Txn] {
        self.db.log()
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
        // Without a deny list the program prepares, with warnings attached.
        let lenient = Database::open_src("item.price -> 7.").unwrap();
        let prepared = lenient.prepare(CONFLICT).unwrap();
        assert!(prepared.warnings().iter().any(|d| d.lint == Lint::WriteWriteConflict));
        assert!(!prepared.commutativity().all_commute());

        // With the lint denied, prepare fails with ErrorKind::Lint and the
        // diagnostics are re-severitied to errors.
        let strict = Database::builder()
            .deny_lint(Lint::WriteWriteConflict)
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
            Database::builder().deny_lint(Lint::DeadRule).open_src("item.price -> 7.").unwrap();
        assert!(unrelated.prepare(CONFLICT).is_ok());
    }

    #[test]
    fn builder_config_is_respected() {
        let mut db = Database::builder()
            .max_rounds_per_stratum(1)
            .trace(TraceLevel::Rounds)
            .open_src("a.p -> 1.")
            .unwrap();
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
        assert_eq!(outcome.new_object_base().lookup1(oid("henry"), "sal"), vec![int(275)]);
        assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(250)]);
        assert!(db.is_empty());
        // With the §5 check off, evaluate exposes non-linear results
        // that apply would refuse to commit.
        let mut loose = Database::builder().check_linearity(false).open_src("o.m -> a.").unwrap();
        let branchy =
            loose.prepare("mod[o].m -> (a, b) <= o.m -> a. del[o].m -> a <= o.m -> a.").unwrap();
        let outcome = loose.evaluate(&branchy).unwrap();
        assert!(outcome.try_new_object_base().is_err(), "result is non-linear");
        assert!(!outcome.result().is_empty(), "result(P) is still inspectable");
        assert_eq!(loose.apply(&branchy).unwrap_err().kind(), ErrorKind::Linearity);
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
        let raise =
            Prepared::compile(ruvo_lang::Program::parse(RAISE).unwrap(), CyclePolicy::Reject)
                .unwrap();
        for base in [BASE, "solo.isa -> empl. solo.sal -> 100."] {
            let mut db = Database::open_src(base).unwrap();
            db.apply(&raise).unwrap();
        }
    }
}
