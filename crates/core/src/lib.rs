//! # ruvo-core — the VLDB'92 update semantics
//!
//! This crate is the paper's contribution made executable:
//!
//! * [`truth`] — the §3 truth relation for ground version-terms and for
//!   update-terms in rule heads and rule bodies,
//! * [`matcher`] — body evaluation: enumerating the ground instances of
//!   a rule whose body literals are all true w.r.t. an object base,
//! * [`tp`] — the immediate consequence operator `T_P` as a 3-step
//!   procedure (collect fired updates, copy states for relevant VIDs,
//!   apply inserts/deletes/modifies),
//! * [`stratify`] — conditions (a)–(d) of §4 plus stratified negation,
//!   computed via unification of version-id-terms,
//! * [`engine`] — stratum-by-stratum fixpoint evaluation with the §5
//!   version-linearity runtime check and new-object-base construction,
//! * [`trace`] — evaluation statistics and per-stratum traces.
//!
//! ## Semantics notes
//!
//! The per-stratum iteration uses *overwrite* semantics for the states
//! of versions relevant in a round (ARCHITECTURE.md, decision D1):
//! plain cumulative union cannot express deletion. Within a stratum
//! the stratification conditions guarantee that every fired ground
//! update stays fired, so the set `T¹` grows monotonically and the
//! iteration reaches a fixpoint; see [`engine`] for the mechanics.

pub mod check;
pub mod database;
pub mod deps;
pub mod engine;
pub mod error;
pub mod history;
pub mod matcher;
pub mod plan;
pub mod query;
pub mod reference;
pub mod serve;
pub mod session;
pub mod store;
pub mod stratify;
pub mod temporal;
pub mod tp;
pub mod trace;
pub mod truth;

pub use check::{CheckReport, Commutativity, CommutativityMatrix, SourceCheck};
pub use database::{Database, DatabaseBuilder, Error, ErrorKind, Prepared, Transaction};
pub use deps::{DepEdge, DepEdgeKind, ReadSet, RuleDepGraph, WriteSet};
pub use engine::{
    run_compiled, CompiledProgram, CyclePolicy, EngineConfig, FinalVersionPolicy, Outcome,
    TraceLevel,
};
pub use error::EvalError;
pub use history::{history, History, HistoryStep};
pub use plan::{IndexPlan, RuleIndexPlan, ScanHint};
pub use query::{match_goal, plan_query, run_query, QueryAnswers, QueryMode, QueryPlan};
pub use serve::{Applied, ServingDatabase};
pub use session::{SavepointId, Session, SessionError, Txn};
pub use store::{
    encode_checkpoint_plan, Checkpoint, CheckpointMode, CheckpointOutcome, CheckpointPlan,
    CheckpointPolicy, DurabilitySink, EncodedCheckpoint, FsyncPolicy, GenerationInfo,
    GenerationKind, StorageError, WalProgram, WalStore,
};
pub use stratify::{Condition, EdgeInfo, RelaxedStratification, Stratification, StratifyError};
pub use temporal::{FactProp, Formula, Timeline};
pub use tp::{Fired, FiredSet};
pub use trace::{EvalStats, ParallelStats, RoundTrace, StratumTrace};
