//! # Paper-to-code tour
//!
//! A section-by-section map from *Kramer, Lausen, Saake: "Updates in a
//! Rule-Based Language for Objects" (VLDB 1992)* to this codebase.
//! This module contains no code — it is the annotated index a reader
//! holding the paper should start from.
//!
//! ## §1 Introduction
//!
//! VIDs "admit tracing back the history of updates performed on each
//! object" → [`crate::term::Vid`] (a base OID plus a packed
//! [`crate::term::Chain`] of update kinds) and
//! [`mod@crate::core::history`] (timeline reconstruction with per-step
//! diffs).
//!
//! ## §2.1 The update language
//!
//! | paper construct | code |
//! |---|---|
//! | OIDs `O` (values are OIDs) | [`crate::term::Const`] |
//! | variables (range over `O` only) | [`crate::term::VarId`], bound in [`crate::term::Bindings`] |
//! | function symbols `F = {ins, del, mod}` | [`crate::term::UpdateKind`] |
//! | version-id-terms | [`crate::term::VidTerm`] (pattern), [`crate::term::Vid`] (ground) |
//! | version-terms `v.m@a→r` | [`crate::lang::VersionAtom`]; stored form [`crate::obase::ObjectBase`] |
//! | update-terms `ins[v]…`, `del[v]…`, `mod[v]…(r,r')` | [`crate::lang::UpdateAtom`] / [`crate::lang::UpdateSpec`] |
//! | update-rules / update-facts | [`crate::lang::Rule`] |
//! | update-programs | [`crate::lang::Program`] |
//! | safety "cf. \[Ull88\]" | [`crate::lang::safety`] (range restriction + literal ordering) |
//! | set-valued methods | [`crate::obase::VersionState`] (sets of [`crate::obase::MethodApp`]) |
//! | `del[v]:` delete-all shorthand | `del[V].*` ([`crate::lang::UpdateSpec::DelAll`]) |
//! | path shorthand `v:m1→r1/m2→r2` | `/`-paths, parsed by [`crate::lang::Program::parse`] |
//!
//! The termination argument — "for safe rules only a finite number of
//! new versions can be derived" — holds structurally here: rule chains
//! are static, so every derivable VID's chain appears syntactically in
//! the program.
//!
//! ## §2.2 General idea
//!
//! "An update-program \[is\] a mapping from an (old) object-base into a
//! (new) object-base" → [`crate::Database`]: programs are compiled
//! once ([`crate::Database::prepare`]) and applied repeatedly as
//! transactions ([`crate::Database::apply`],
//! [`crate::Database::transact`], [`crate::Database::rollback_to`]) or
//! dry-run into an [`crate::core::Outcome`]
//! ([`crate::Database::evaluate`]), with O(1) [`crate::Snapshot`] read
//! views between them. Every handle chains those mappings through one
//! writer core, [`crate::core::Session`], whose record scope makes a
//! chain all-or-nothing the same way on every handle.
//!
//! ## §2.3 Examples
//!
//! All four are in [`crate::workload`] and as runnable `examples/`:
//! [`crate::workload::salary_raise_program`],
//! [`crate::workload::enterprise_program`] (+ Figure 2 trace in the
//! `enterprise` example),
//! [`crate::workload::hypothetical_program`],
//! [`crate::workload::ancestors_program`].
//!
//! ## §2.4 Discussion and comparison
//!
//! The Logres-style comparison target (deletion-in-head Datalog with
//! stratified/inflationary semantics and manually ordered modules) is
//! implemented in [`crate::datalog`]; `ruvo_workload`'s
//! `baseline_control_spectrum_on_the_4100_scenario` test reproduces
//! the fire-before-raise anomaly the section warns about.
//!
//! ## §3 The immediate consequence operator
//!
//! * Truth of ground version-/update-terms: [`crate::core::truth`]
//!   (one function per clause, including the `mod[v].m→(r,r)` case).
//! * The system method `exists` and `v*`:
//!   [`crate::obase::ObjectBase::exists_fact`] /
//!   [`crate::obase::ObjectBase::v_star`]; `exists` is unupdatable by
//!   the front end ([`crate::lang::analysis`]), so it is the version
//!   table itself: no state stores it, and there is no preparation
//!   step.
//! * `T_P` steps 1–3: [`crate::core::tp::collect_rule`] (step 1, with
//!   head-truth filtering) and [`crate::core::tp::apply_updates`]
//!   (steps 2+3: relevant/active copy, then insert/delete/modify).
//! * The frame-problem note ("copying old states only for the objects
//!   being updated") is measured by the `benchmark/` driver's
//!   `tp.facts_copied`.
//!
//! ## §4 Bottom-up evaluation
//!
//! Conditions (a)–(d) over unification of version-id-terms:
//! [`crate::core::stratify`] (chain-exact unification per
//! ARCHITECTURE.md, decision D2); the per-stratum fixpoint loop with
//! overwrite semantics: [`crate::core::run_compiled`] (decision D1).
//! The paper's example stratification `{rule1, rule2} < {rule3} <
//! {rule4}` is asserted in `core::stratify::tests` and in
//! `tests/paper_examples.rs`.
//!
//! ## §5 Building the new object base
//!
//! Version-linearity and its runtime check:
//! [`crate::obase::LinearityTracker`] (the paper's keep-the-most-recent
//! -VID scheme, O(1) per version; always on); final versions (each
//! object's deepest) and `ob′` extraction:
//! [`crate::core::Outcome::try_new_object_base`]. Objects whose final
//! state holds only `exists` (an empty state) vanish, as prescribed;
//! [`crate::core::Session::new`] drops such versions from a base it
//! opens, so a committed base never holds one.
//!
//! ## §6 Conclusion (future work) — implemented extensions
//!
//! Every direction the conclusion names but one is implemented:
//!
//! * "quantify over VIDs in addition to OIDs … carefully not to
//!   destroy the termination properties" → `$V` variables
//!   ([`crate::term::VidRef`]; body-only, so the set of creatable
//!   versions is unchanged — see `tests/vid_variables.rs`);
//! * "stratification or related criteria which allow to accept a
//!   broader class of programs" → runtime stability checking
//!   ([`crate::core::CyclePolicy`], [`crate::core::stratify::stratify_relaxed`]);
//! * "alternatives to version-linearity" → tried and removed: a
//!   deepest-wins and a merge-maximal extraction differ from §5 only
//!   on a non-linear `result(P)`, which the always-on runtime check
//!   never lets a run produce, so nothing could reach them;
//! * "derived objects" → [`crate::datalog::bridge`] (Datalog views
//!   over the flat `ob′`, outside the update fixpoint);
//! * "relationship to temporal logics" → [`mod@crate::core::history`]
//!   (timelines with per-step diffs) and [`crate::core::temporal`]
//!   (LTLf with past operators over those timelines);
//! * §2.4's schema-evolution remark → [`crate::schema`] (conformance
//!   checking + update-driven schema deltas);
//! * engineering extensions (snapshots, sessions, REPL, delta
//!   filtering, the `core::reference` executable specification with
//!   differential tests) are catalogued in
//!   ARCHITECTURE.md ("Engineering extensions" under "Design
//!   decisions", then one section each).
