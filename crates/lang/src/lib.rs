//! # ruvo-lang — syntax of the VLDB'92 update language
//!
//! Lexer, parser, AST, pretty-printer and safety analysis for
//! update-programs as defined in §2.1 of Kramer/Lausen/Saake (VLDB'92).
//!
//! ## Concrete syntax
//!
//! The paper's mathematical notation maps to ASCII as follows:
//!
//! | paper | ruvo |
//! |---|---|
//! | `v:m@a1,…,ak → r` | `v.m @ a1, ..., ak -> r` |
//! | `ins[V]:m→r` | `ins[V].m -> r` |
//! | `del[V]:m→r` | `del[V].m -> r` |
//! | `mod[V]:m→(r,r')` | `mod[V].m -> (r, r2)` |
//! | `del[V]:` (delete all) | `del[V].*` |
//! | `H ⇐ B1 ∧ … ∧ Bk` | `H <= B1 & ... & Bk .` |
//! | `¬A` | `not A` or `!A` |
//! | path sugar `v:m1→r1/m2→r2` | `v.m1 -> r1 / m2 -> r2` |
//! | `≤`, `≥`, `≠` | `=<`, `>=`, `!=` |
//!
//! Rules end with `.` followed by whitespace or end of input (so method
//! access `v.m` — no space — is unambiguous). Comments run from `%` to
//! end of line. An optional label (`rule3: del[...] <= ... .`) names a
//! rule for traces and stratification reports.
//!
//! Variables start with an upper-case letter or `_`; symbolic OIDs and
//! method names start with a lower-case letter (or are `'quoted'`).
//! `ins`, `del`, `mod` and `not` are reserved words.
//!
//! ## VID variables (§6 extension)
//!
//! `$V` is a *VID-quantified* variable: it ranges over the ground
//! version identities present in the interpretation, not over OIDs —
//! `$V.sal -> S` reads the `sal` method of *any* version of any
//! object, at any stage of its update process. To preserve the paper's
//! termination argument, `$V` may appear **only as the version of a
//! body version-term**: never in rule heads, update-term targets,
//! arguments or results. Negated `$V`-atoms require `$V` to be bound
//! by a positive atom first (safety).
//!
//! ## Entry points
//!
//! A [`Rule`] exists only once the front end's rule-level pass (§3
//! structure, created versions that fit a chain, §2.1 safety and its
//! plan) has admitted it; its fields are read through accessors.
//!
//! * [`Program::parse`] — parse a program and run the rule-level pass
//!   on every rule and the duplicate-label check, failing on the first
//!   error,
//! * [`Rule::new`] — the same rule-level pass for a rule built in code
//!   (from the parts of admitted rules),
//! * [`Goal::parse`] — a query goal, admitted as a headless rule,
//! * [`analysis::front_end`] — every front-end finding of source text
//!   as a [`Diagnostic`], and the admitted program when none is an
//!   error (`ruvo check`),
//! * [`analysis::program_diagnostics`] — the program-level pass alone
//!   (duplicate labels and rules, arity), for admitted rules,
//! * [`analysis::check_labels`] — its one rejection, a reused label,
//!   as [`Program::parse`] reports it,
//! * [`parse_facts`] — parse ground version-terms (object-base text).

pub mod analysis;
pub mod ast;
pub mod error;
pub mod facts;
pub mod goal;
pub mod lexer;
mod parser;
pub mod pretty;
pub mod safety;
pub mod token;

pub use analysis::{Diagnostic, Level, Lint, Severity};
pub use ast::{
    Atom, BinOp, Builtin, CmpOp, Expr, Literal, Program, Rule, UpdateAtom, UpdateSpec, VarTable,
    VersionAtom,
};
pub use error::{LangError, ParseError, Pos, SafetyError, Span, ValidateError};
pub use facts::{parse_facts, GroundFact};
pub use goal::Goal;
pub use safety::{PlannedLiteral, RulePlan};
