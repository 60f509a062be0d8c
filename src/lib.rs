//! # ruvo — Rule-based Updates with Versioned Objects
//!
//! A faithful, executable reproduction of
//! *Kramer, Lausen, Saake: "Updates in a Rule-Based Language for
//! Objects", VLDB 1992* — a deductive object-base update language in
//! which bottom-up evaluation is controlled through **version
//! identities** (`ins(v)`, `del(v)`, `mod(v)`).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`term`] — OIDs, update chains, version identities, unification,
//! * [`obase`] — the versioned object-base store (copy-on-write
//!   clones, O(1) [`Snapshot`] read views, binary persistence),
//! * [`lang`] — parser / AST / safety analysis for the update language,
//! * [`core`] — the `T_P` operator, stratification and fixpoint
//!   evaluation (the paper's contribution), plus the [`Database`]
//!   facade and the `ruvo check` static analyses (`core::check`:
//!   write-write conflicts, commutativity, dead rules),
//! * [`datalog`] — the Logres-style baseline engine,
//! * [`workload`] — deterministic synthetic workload generators,
//! * [`schema`] — classes, conformance and update-driven schema
//!   evolution (the §2.4 direction).
//!
//! ## Quickstart
//!
//! The central type is [`Database`]: a persistent handle over an
//! evolving object base. Programs are **prepared once** (parse +
//! safety check + stratification) and applied any number of times;
//! every application is an all-or-nothing transaction, and
//! [`Database::snapshot`] hands out O(1) copy-on-write read views
//! that stay stable while the database keeps committing.
//!
//! ```
//! use ruvo::prelude::*;
//!
//! // §2.1 of the paper: give every employee a 10% raise — exactly once,
//! // because the rule only matches *initial* (not-yet-updated) versions.
//! let mut db = Database::open_src(
//!     "henry.isa -> empl. henry.sal -> 250.
//!      mary.isa -> empl.  mary.sal -> 300.",
//! ).unwrap();
//! let raise = db.prepare(
//!     "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
//! ).unwrap();
//!
//! let before = db.snapshot();          // O(1) read view
//! db.apply(&raise).unwrap();           // compiled once, applied now
//!
//! assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
//! assert_eq!(db.current().lookup1(oid("mary"), "sal"), vec![int(330)]);
//! // The snapshot still sees the pre-transaction state.
//! assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);
//!
//! // The newest transaction keeps every version the update created.
//! let txn = db.last_txn().unwrap();
//! assert!(txn.outcome.result().contains(
//!     Vid::object(oid("henry")).apply(UpdateKind::Mod).unwrap(),
//!     sym("sal"), &[], int(275),
//! ));
//! ```
//!
//! ### Durability
//!
//! [`Database::open_dir`] opens a database that survives the process:
//! commits append to a checksummed write-ahead log (fsynced before
//! the caller is acknowledged), checkpoints bound recovery time, and
//! reopening the directory replays exactly the acknowledged history —
//! see `ruvo::core::store` for the engine and the crash matrix.

pub mod paper;

pub use ruvo_core as core;
pub use ruvo_datalog as datalog;
pub use ruvo_lang as lang;
pub use ruvo_obase as obase;
pub use ruvo_schema as schema;
pub use ruvo_term as term;
pub use ruvo_workload as workload;

pub use ruvo_core::{
    Applied, CheckReport, CheckpointPolicy, Commutativity, CommutativityMatrix, Database,
    DatabaseBuilder, DepEdge, DepEdgeKind, Error, ErrorKind, FsyncPolicy, Prepared, QueryAnswers,
    QueryMode, QueryPlan, ReadSet, RuleDepGraph, ServingDatabase, SourceCheck, Transaction,
    WriteSet,
};
pub use ruvo_lang::{Diagnostic, Goal, Level, Lint, Severity, Span};
pub use ruvo_obase::Snapshot;

/// Everything needed for typical use, in one import.
pub mod prelude {
    pub use ruvo_core::{
        Applied, CheckReport, CheckpointPolicy, Commutativity, CommutativityMatrix, Database,
        DatabaseBuilder, EngineConfig, Error, ErrorKind, EvalError, FsyncPolicy, Outcome, Prepared,
        QueryAnswers, QueryMode, QueryPlan, ServingDatabase, SourceCheck, Stratification,
        Transaction,
    };
    pub use ruvo_lang::{Diagnostic, Goal, Lint, Program, Rule, Severity};
    pub use ruvo_obase::{MethodApp, ObjectBase, Snapshot};
    pub use ruvo_term::{int, num, oid, sym, Chain, Const, Symbol, UpdateKind, Vid};
}
