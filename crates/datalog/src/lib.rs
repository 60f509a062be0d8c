//! # ruvo-datalog — the comparison baseline
//!
//! A classic Datalog engine with stratified negation, arithmetic
//! built-ins, **deletion-in-head** rules and module-sequenced
//! evaluation — the update style §2.4 of the paper attributes to
//! Logres ("Updates can be expressed by using rules with deletions in
//! the head; the evaluation of the rules may be done according to
//! stratified or inflationary semantics … By specifying orders on the
//! execution of the modules, the user has a flexible, however 'manual'
//! means for control").
//!
//! This crate exists so tests can compare the paper's
//! version-identity control against the baseline on equal footing:
//!
//! * `ruvo_workload::enterprise_baseline_datalog` is the §2.3
//!   enterprise update in this language; its tests demonstrate the
//!   anomaly the paper's §2.4 warns about (firing employees before
//!   raising salaries) when the Logres-style program is run as a
//!   single fixpoint without manual module ordering;
//! * `tests/cross_check.rs` checks insert-only and recursive programs
//!   against the versioned formulation, using semi-naive evaluation
//!   here.
//!
//! ## Components
//!
//! * [`ast`] — predicates, rules (insert or delete heads), modules,
//! * [`db`] — the fact store ([`Database`]),
//! * [`parser`] — a compact concrete syntax (`p(X) <= q(X, Y) & Y > 3 .`,
//!   `del p(X) <= ...`), reusing the `ruvo-lang` lexer,
//! * [`eval`] — naive and semi-naive evaluation, module sequencing,
//!   oscillation detection for non-stratifiable deletion programs.

pub mod ast;
pub mod bridge;
pub mod db;
pub mod eval;
pub mod parser;
pub mod stratify;

pub use ast::{DlAtom, DlHead, DlLiteral, DlProgram, DlRule, DlTerm, Module};
pub use bridge::{db_to_ob, ob_to_db, NotFlat};
pub use db::{Database, Relation};
pub use eval::{evaluate, evaluate_module, EvalReport, Semantics};
pub use parser::parse_program;
pub use stratify::{auto_stratify, NotStratifiable};
