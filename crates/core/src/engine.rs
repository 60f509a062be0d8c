//! Stratum-by-stratum fixpoint evaluation (§4) and new-object-base
//! construction (§5).
//!
//! ## The per-stratum loop
//!
//! Within a stratum, each round computes `T¹` for the stratum's rules
//! against the current object base and applies steps 2+3 of `T_P` for
//! every version the round's *newly fired* updates touch. Step 3 is
//! defined over the whole `T¹` (ARCHITECTURE.md, decisions D1/D7), but
//! the round's delta is exact for `ins(v)`/`del(v)` versions, which
//! [`crate::tp`] repairs in place; only a version a `mod` creates is
//! rebuilt from its **accumulated** updates (chained modifies need the
//! whole set), so only those keep a history here: a round costs what
//! it adds, not what the stratum has derived. The stratification
//! conditions guarantee that fired updates stay fired, so `T¹` grows
//! monotonically and the loop terminates when a round fires nothing
//! new.
//!
//! ## Semi-naive rounds
//!
//! A rule only needs re-evaluation in round *n+1* if round *n* changed
//! a `(chain, method)` relation its positive body literals can read
//! (negated literals and the head's `v*` reads are frozen within a
//! stratum by conditions (a), (c) and (d)), and then only for joins
//! touching what that round changed: it is re-evaluated *seeded*, one
//! pass per changed body literal. Each positive version- or
//! update-literal is a `Scan` step of the plan the front end stored, so
//! the per-step reads compile records in the [`IndexPlan`] are the
//! whole trigger set; a `$V` scan reads any relation, so its rule runs
//! in full every round. A literal true by membership in one
//! relation (a version-term, `ins[..]`) is seeded with the relation's
//! entry in the delta as recorded — the *facts* added to versions that
//! were already active, whole versions otherwise; `del[..]`/`mod[..]`
//! literals are seeded with the changed objects of every relation they
//! read, each whole. The
//! strata [`CyclePolicy::RuntimeStability`] flags re-evaluate every
//! rule in full each round — their stability check needs the whole
//! `T¹`. On every other stratum stability is the §4 theorem; the
//! hint-less, filter-less evaluation of §3 lives on as
//! [`crate::reference`], the differential oracle, which checks it on
//! every stratum.
//!
//! ## Traces
//!
//! Every run records one [`StratumTrace`] per stratum and one
//! [`RoundTrace`] per round, built from what the loop computes anyway
//! (a round's evaluated rules, candidates, new updates and touched
//! versions); `ruvo run --trace` only decides whether to print them.
//!
//! ## One round
//!
//! A round's tasks all read the same immutable pre-round base:
//! `collect_round` runs them in task order and appends their matches
//! to one candidate buffer. The candidates are drained in order into
//! the stratum's [`FiredSet`], reserved for their count, and each new
//! one is moved into the apply list; the run reuses both buffers round
//! after round. [`tp::apply_updates`] then groups the round's new
//! updates by created version in first-appearance order (one index map
//! and one flat permutation), builds the states it needs whole against
//! that same base, commits them once, and only then repairs the active
//! versions in place. Both orders are fixed by the round's inputs, so
//! the fired sequence, the commit and every logical counter repeat
//! from run to run.
//!
//! ## Version linearity (§5)
//!
//! Every version touched by an applied update is recorded in a
//! [`LinearityTracker`], and on an object's first touch so are the
//! versions the run started from; the paper's runtime check rejects
//! the program at the first pair of incomparable versions of one
//! object. The check is not optional. [`Outcome::final_versions`]
//! takes each object's deepest version in `result(P)` and validates
//! the objects the run never touched, so a branching seeded head
//! fails at extraction, with the same [`LinearityViolation`].

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ruvo_lang::{Lint, PlannedLiteral, Program};
use ruvo_obase::{
    ChangedSince, LinearityTracker, LinearityViolation, ObjectBase, RelationDelta, VersionState,
};
use ruvo_term::{Const, FastHashMap, FastHashSet, UpdateKind, Vid};

use crate::error::EvalError;
use crate::matcher::Seed;
use crate::plan::{reads_by_membership, IndexPlan};
use crate::query::Rewrites;
use crate::stratify::{stratify, stratify_relaxed, Stratification, StratifyError};
use crate::tp::{self, Fired, FiredSet};
use crate::trace::{EvalStats, RoundTrace, StratumTrace};

/// What to do with programs the static conditions (a)–(d) reject.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CyclePolicy {
    /// Reject statically (the paper's §4 semantics; the default).
    #[default]
    Reject,
    /// Accept via [`crate::stratify::stratify_relaxed`]: the offending
    /// SCC evaluates as one stratum under a runtime *stability check* —
    /// every fired ground update must keep firing in every later round
    /// of its stratum; a violation rejects the run with
    /// [`EvalError::Unstable`]. Statically stratifiable programs get
    /// identical strata and identical results under either policy.
    RuntimeStability,
}

/// Engine configuration; `cycles` and `deny_lints` are read by prepare.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Safety valve for the per-stratum fixpoint loop.
    pub max_rounds_per_stratum: usize,
    /// Handling of statically non-stratifiable programs (§6 extension).
    pub cycles: CyclePolicy,
    /// Lints that fail a prepare ([`crate::DatabaseBuilder::deny_lints`]);
    /// with none denied, a prepare runs no static analysis.
    pub deny_lints: Vec<Lint>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_rounds_per_stratum: 1_000_000,
            cycles: CyclePolicy::Reject,
            deny_lints: Vec::new(),
        }
    }
}

/// A program with everything [`run_compiled`] reads computed once: the
/// §4 stratification (under a fixed [`CyclePolicy`]) and the
/// [`IndexPlan`] driving indexed, semi-naive evaluation.
///
/// This is the compiled artifact behind [`crate::Prepared`]: build it
/// once with [`CompiledProgram::compile`], then evaluate it any number
/// of times with [`run_compiled`] without re-parsing, re-validating or
/// re-stratifying; the [`crate::Database`] facade does exactly that.
///
/// ```
/// use ruvo_core::{run_compiled, CompiledProgram, CyclePolicy, EngineConfig};
/// use ruvo_lang::Program;
/// use ruvo_obase::ObjectBase;
/// use ruvo_term::{int, oid};
///
/// let program = Program::parse(
///     "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S + 50.",
/// )?;
/// let compiled = CompiledProgram::compile(program, CyclePolicy::Reject)?;
/// assert_eq!(compiled.stratification().strata.len(), 1);
///
/// // Evaluate it on any base, as often as needed.
/// let ob = ObjectBase::parse("henry.isa -> empl. henry.sal -> 250.")?;
/// let outcome = run_compiled(&compiled, &EngineConfig::default(), ob)?;
/// assert_eq!(outcome.try_new_object_base()?.lookup1(oid("henry"), "sal"), vec![int(300)]);
/// # Ok::<(), ruvo_core::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    program: Program,
    /// Shared with every [`Outcome`] of the program: a run clones the
    /// handle, not the strata, edges and rule names.
    stratification: Arc<Stratification>,
    /// Per stratum: does it need the runtime stability check?
    risky: Vec<bool>,
    index_plan: IndexPlan,
    cycles: CyclePolicy,
    /// The pretty-printed source, rendered lazily once per compiled
    /// program: the durable commit path logs it on every application,
    /// and re-rendering per commit would tax the writer's critical
    /// section.
    source: OnceLock<Arc<str>>,
    /// The demand rewrites [`crate::plan_query`] compiled from this
    /// program, one per kept-rule set.
    pub(crate) rewrites: Rewrites,
}

impl CompiledProgram {
    /// Stratify `program` under `cycles` and precompute the
    /// [`IndexPlan`] — exactly what [`run_compiled`] reads; the static
    /// analyses live in [`crate::check`]. Fails
    /// exactly when [`crate::stratify::stratify`] would (or never,
    /// under [`CyclePolicy::RuntimeStability`]). Every rule was
    /// admitted by the front end, so its plan and created versions are
    /// read as stored.
    pub fn compile(
        program: Program,
        cycles: CyclePolicy,
    ) -> Result<CompiledProgram, StratifyError> {
        let (stratification, risky) = match cycles {
            CyclePolicy::Reject => {
                let s = stratify(&program)?;
                let n = s.strata.len();
                (s, vec![false; n])
            }
            CyclePolicy::RuntimeStability => {
                let relaxed = stratify_relaxed(&program);
                (relaxed.stratification, relaxed.needs_runtime_check)
            }
        };
        let index_plan = IndexPlan::of(&program);
        Ok(CompiledProgram {
            program,
            stratification: Arc::new(stratification),
            risky,
            index_plan,
            cycles,
            source: OnceLock::new(),
            rewrites: Rewrites::default(),
        })
    }

    /// The compiled program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The program's re-parseable source text, rendered once and
    /// cached (shared handle; cloning is O(1)).
    pub fn source_text(&self) -> std::sync::Arc<str> {
        std::sync::Arc::clone(
            self.source.get_or_init(|| std::sync::Arc::from(self.program.to_string())),
        )
    }

    /// The stratification computed at compile time.
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// The cycle policy the program was compiled under.
    pub fn cycle_policy(&self) -> CyclePolicy {
        self.cycles
    }

    /// Per stratum: does it need the runtime stability check? Never
    /// under [`CyclePolicy::Reject`].
    pub(crate) fn needs_runtime_check(&self) -> &[bool] {
        &self.risky
    }
}

/// One rule evaluation of a fixpoint round: the whole rule, or — for a
/// semi-naive round — the rule with one scan step seeded from the
/// previous round's delta.
struct EvalTask<'a> {
    rule: usize,
    seed: Option<Seed<'a>>,
}

/// Decide what to evaluate this round. `changed` is `None` for the
/// first round of a stratum (evaluate everything, unseeded); later
/// rounds replace full re-evaluation with one delta-seeded pass per
/// scan step whose reads the previous round changed, and skip a rule
/// with none. Every positive version- or update-literal is a scan
/// step, so the index plan's per-step reads are the rule's whole
/// trigger set. `checked` strata (the runtime stability check)
/// re-evaluate every rule in full.
fn round_tasks<'a>(
    ctx: &RoundCtx<'_>,
    stratum: &[usize],
    changed: Option<&'a ChangedSince>,
    checked: bool,
) -> Vec<EvalTask<'a>> {
    let full = |r: usize| EvalTask { rule: r, seed: None };
    let Some(ch) = changed else {
        return stratum.iter().map(|&r| full(r)).collect();
    };
    let mut tasks = Vec::new();
    for &r in stratum {
        if checked {
            tasks.push(full(r));
            continue;
        }
        // Semi-naive: one seeded pass per scan step whose literal reads
        // a changed relation. A membership literal borrows its one
        // relation's delta, facts included; a del/mod literal is true
        // *because* something disappeared from one of several
        // relations, so it gets the union of their changed objects.
        let rule = &ctx.program.rules[r];
        let before = tasks.len();
        for (step, reads) in ctx.plans.rules[r].reads.iter().enumerate() {
            // A VID-variable scan can read any relation: re-evaluate
            // the rule in full, never seeded.
            let Some(keys) = reads else {
                tasks.truncate(before);
                tasks.push(full(r));
                break;
            };
            let delta = match (&rule.plan().steps[step], keys.as_slice()) {
                (&PlannedLiteral::Scan(li), [key]) if reads_by_membership(&rule.body()[li]) => {
                    ch.relation(key).map(Cow::Borrowed)
                }
                _ => {
                    let union: RelationDelta = keys
                        .iter()
                        .filter_map(|k| ch.relation(k))
                        .flat_map(|r| r.bases())
                        .collect();
                    (!union.is_empty()).then_some(Cow::Owned(union))
                }
            };
            if let Some(delta) = delta {
                tasks.push(EvalTask { rule: r, seed: Some(Seed { step, delta }) });
            }
        }
    }
    tasks
}

/// Evaluate a [`CompiledProgram`] on an object base — the
/// stratum-by-stratum fixpoint every entry point runs. Performs **no**
/// parsing, validation or stratification — all of that happened at
/// compile time. `config.cycles` is ignored in favor of the policy the
/// program was compiled under.
pub fn run_compiled(
    compiled: &CompiledProgram,
    config: &EngineConfig,
    mut work: ObjectBase,
) -> Result<Outcome, EvalError> {
    let started = Instant::now();
    let CompiledProgram { program, stratification, risky, index_plan, .. } = compiled;

    let mut tracker = LinearityTracker::new();
    let mut stats = EvalStats::default();
    let ctx = RoundCtx { program, plans: index_plan };
    let mut stratum_traces = Vec::new();
    let mut round_traces = Vec::new();
    // Buffers every round of the run reuses: the round's candidates and
    // its apply list (and which `mod` versions it replayed).
    let mut candidates: Vec<Fired> = Vec::new();
    let mut apply_list: Vec<Fired> = Vec::new();
    let mut replayed: FastHashSet<Vid> = FastHashSet::default();

    for (si, stratum) in stratification.strata.iter().enumerate() {
        // Flagged strata re-evaluate every rule each round and verify
        // that fired updates keep firing. Elsewhere stability is the
        // §4 theorem, which `crate::reference` checks.
        let checked = risky[si];
        let mut fired = FiredSet::new();
        // Accumulated fired updates per version a `mod` creates: §3's
        // step 3 applies the *full* `T¹` to each relevant version's
        // copy, and chained modifies on one version (`(a,b)` then
        // `(b,c)`) keep every to-value only if it is re-applied whole.
        let mut mod_history: FastHashMap<Vid, Vec<Fired>> = FastHashMap::default();
        // `None` marks the first round: evaluate everything.
        let mut changed: Option<ChangedSince> = None;
        let mut round = 0usize;
        loop {
            round += 1;
            if round > config.max_rounds_per_stratum {
                return Err(EvalError::RoundLimit {
                    stratum: si,
                    limit: config.max_rounds_per_stratum,
                });
            }
            let tasks = round_tasks(&ctx, stratum, changed.as_ref(), checked);
            // Distinct rules touched this round (tasks per rule are
            // contiguous, so checking the last entry suffices).
            let mut to_eval: Vec<usize> = Vec::new();
            for task in &tasks {
                if to_eval.last() != Some(&task.rule) {
                    to_eval.push(task.rule);
                }
            }
            stats.rule_evaluations += to_eval.len();
            stats.rule_evaluations_skipped += stratum.len() - to_eval.len();
            stats.rule_evaluations_seeded += tasks.iter().filter(|t| t.seed.is_some()).count();

            collect_round(&ctx, &work, &tasks, &mut stats, &mut candidates);
            stats.fired_candidates += candidates.len();
            if checked && round > 1 {
                // Stability: T¹ w.r.t. the current interpretation
                // must still contain every previously fired update.
                let current: FastHashSet<&Fired> = candidates.iter().collect();
                if let Some(lost) = fired.iter().find(|f| !current.contains(f)) {
                    return Err(EvalError::Unstable {
                        stratum: si,
                        round,
                        update: lost.to_string(),
                    });
                }
            }
            // The round's new updates, moved into the apply list as
            // they are. Only a version a `mod` creates re-applies its
            // accumulated updates (see the module docs): its history
            // goes in front of its first new update, which keeps the
            // groups in first-appearance order — the canonical apply
            // order.
            let round_candidates = candidates.len();
            fired.reserve(round_candidates);
            apply_list.clear();
            replayed.clear();
            let mut new_fired = 0;
            for f in candidates.drain(..) {
                if !fired.insert(f.clone()) {
                    continue;
                }
                new_fired += 1;
                if f.kind() == UpdateKind::Mod {
                    let history = mod_history.entry(f.created()).or_default();
                    if replayed.insert(f.created()) {
                        apply_list.extend(history.iter().cloned());
                    }
                    history.push(f.clone());
                }
                apply_list.push(f);
            }

            round_traces.push(RoundTrace {
                stratum: si,
                round,
                evaluated: to_eval,
                candidates: round_candidates,
                new_fired,
                touched: 0, // patched below if updates applied
            });
            stats.rounds += 1;
            if new_fired == 0 {
                break;
            }
            let applying = Instant::now();
            let report = tp::apply_updates(&mut work, &apply_list);
            stats.parallel.apply_wall += applying.elapsed();
            round_traces.last_mut().expect("pushed this round").touched = report.touched.len();
            stats.versions_created += report.created;
            stats.facts_copied += report.facts_copied;
            for &v in &report.touched {
                let tracked = tracker.len();
                tracker.record(v)?;
                // A new entry is the object's first touch: record the
                // versions the run started from too, so a version
                // branching off one fails here, in the round that
                // creates it.
                if tracker.len() > tracked {
                    for w in work.versions_of(v.base()) {
                        tracker.record(w)?;
                    }
                }
            }
            changed = Some(report.changed);
        }
        stats.fired_updates += fired.len();
        stratum_traces.push(StratumTrace {
            stratum: si,
            rules: stratum.clone(),
            rounds: round,
            fired: fired.len(),
        });
    }

    stats.strata = stratification.strata.len();
    stats.elapsed = started.elapsed();
    Ok(Outcome {
        result: work,
        stratification: Arc::clone(stratification),
        stats,
        stratum_traces,
        round_traces,
        finals: tracker,
    })
}

/// The run-constant inputs of [`collect_round`]: everything a round's
/// scan phase reads that does not change between rounds or strata.
#[derive(Clone, Copy)]
struct RoundCtx<'a> {
    program: &'a Program,
    plans: &'a IndexPlan,
}

/// Step 1 of `T_P` over a round's evaluation tasks, in task order: each
/// task reads the immutable pre-round base through the compiled index
/// plan (and its seed, for seeded tasks) and appends its matches to
/// `out`, the round's one list.
fn collect_round(
    ctx: &RoundCtx<'_>,
    ob: &ObjectBase,
    tasks: &[EvalTask<'_>],
    stats: &mut EvalStats,
    out: &mut Vec<Fired>,
) {
    let RoundCtx { program, plans } = *ctx;
    let started = Instant::now();
    for EvalTask { rule, seed } in tasks {
        let (rule, plan) = (&program.rules[*rule], &plans.rules[*rule]);
        stats.scan_candidates += tp::collect_rule(ob, rule, plan, seed.as_ref(), out);
    }
    stats.parallel.scan_subtasks += tasks.len();
    stats.parallel.scan_wall += started.elapsed();
}

/// The result of a successful run.
#[derive(Clone, Debug)]
pub struct Outcome {
    result: ObjectBase,
    stratification: Arc<Stratification>,
    stats: EvalStats,
    stratum_traces: Vec<StratumTrace>,
    round_traces: Vec<RoundTrace>,
    finals: LinearityTracker,
}

impl Outcome {
    /// `result(P)`: the full object base including every version
    /// created during evaluation.
    pub fn result(&self) -> &ObjectBase {
        &self.result
    }

    /// The stratification that was used.
    pub fn stratification(&self) -> &Stratification {
        &self.stratification
    }

    /// Run statistics.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Per-stratum traces, one per evaluated stratum.
    pub fn stratum_traces(&self) -> &[StratumTrace] {
        &self.stratum_traces
    }

    /// Per-round traces, one per fixpoint round, in evaluation order.
    pub fn round_traces(&self) -> &[RoundTrace] {
        &self.round_traces
    }

    /// How many objects the run touched.
    pub(crate) fn touched_objects(&self) -> usize {
        self.finals.len()
    }

    /// Each object the run touched, with the state of its final version
    /// (§5): the tracker recorded every version of a touched object.
    pub(crate) fn touched_finals(
        &self,
    ) -> impl Iterator<Item = (Const, Option<&Arc<VersionState>>)> + '_ {
        self.finals.iter().map(|(base, fv)| (base, self.result.version_shared(fv)))
    }

    /// The final version of every object in `result(P)` (§5): the
    /// version "whose VID contains all VIDs of the other versions of
    /// o", i.e. the deepest one. The run-time check saw only the
    /// objects the run touched, so this validates every object's
    /// versions, including those of objects the run never touched.
    pub fn final_versions(&self) -> Result<FastHashMap<Const, Vid>, LinearityViolation> {
        Ok(self.every_version()?.iter().collect())
    }

    /// Every version of `result(P)` recorded in one tracker, which
    /// keeps each object's deepest.
    fn every_version(&self) -> Result<LinearityTracker, LinearityViolation> {
        let mut all = LinearityTracker::new();
        for v in self.result.versions() {
            all.record(v)?;
        }
        Ok(all)
    }

    /// §5: derive the updated object base `ob'` by copying, for each
    /// object, the method-applications of its final version (objects
    /// whose final state is empty — only `exists` defined — disappear).
    ///
    /// The run-time check rejects every non-linear version a run
    /// creates, so this fails only when the base the run started from
    /// held branching versions of one object (a seeded head with
    /// `ins(o)` beside `del(o)`); a commit reports that as
    /// [`crate::ErrorKind::Linearity`].
    pub fn try_new_object_base(&self) -> Result<ObjectBase, LinearityViolation> {
        let finals = self.every_version()?;
        Ok(base_of_finals(
            finals.iter().map(|(base, fv)| (base, self.result.version_shared(fv).cloned())),
        ))
    }

    /// The version timeline of one object in `result(P)` (see
    /// [`mod@crate::history`]); `None` for unknown objects or non-linear
    /// version sets.
    pub fn history(&self, base: Const) -> Option<crate::history::History> {
        crate::history::history(&self.result, base)
    }
}

/// §5's `ob′` from each object's final state: every non-empty state
/// becomes its object's initial version, adopted as-is (no fact is
/// re-inserted); an object whose final state is empty — only `exists`
/// defined — or absent disappears. One commit into an empty base that
/// records no delta, as [`ObjectBase::from_facts`] builds one.
fn base_of_finals(finals: impl Iterator<Item = (Const, Option<Arc<VersionState>>)>) -> ObjectBase {
    let edits: Vec<_> = finals
        .filter_map(|(base, state)| {
            state.filter(|s| !s.is_empty()).map(|s| (Vid::object(base), Some(s)))
        })
        .collect();
    let mut out = ObjectBase::new();
    out.replace_versions_tracked_shared(&edits, None);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid, UpdateKind};

    /// Compile `program` under `config` and evaluate it on a copy of
    /// `ob`.
    fn run_with(
        program: Program,
        config: EngineConfig,
        ob: &ObjectBase,
    ) -> Result<Outcome, EvalError> {
        let compiled = CompiledProgram::compile(program, config.cycles)?;
        run_compiled(&compiled, &config, ob.clone())
    }

    fn run_default(program: Program, ob: &ObjectBase) -> Result<Outcome, EvalError> {
        run_with(program, EngineConfig::default(), ob)
    }

    fn run(ob_src: &str, program_src: &str) -> Outcome {
        let ob = ObjectBase::parse(ob_src).unwrap();
        let program = Program::parse(program_src).unwrap();
        run_default(program, &ob).unwrap()
    }

    #[test]
    fn salary_raise_terminates_and_updates_once() {
        // §2.1: "each employee gets his salary raised exactly once".
        let outcome = run(
            "henry.isa -> empl. henry.sal -> 250. mary.isa -> empl. mary.sal -> 300.",
            "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.",
        );
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("henry"), "sal"), vec![int(275)]);
        assert_eq!(ob2.lookup1(oid("mary"), "sal"), vec![int(330)]);
        // The isa methods were carried over by the copy.
        assert_eq!(ob2.lookup1(oid("henry"), "isa"), vec![oid("empl")]);
        // result(P) holds both the old and the new version.
        let henry = Vid::object(oid("henry"));
        assert!(outcome.result().contains(henry, ruvo_term::sym("sal"), &[], int(250)));
        let mod_h = henry.apply(UpdateKind::Mod).unwrap();
        assert!(outcome.result().contains(mod_h, ruvo_term::sym("sal"), &[], int(275)));
    }

    #[test]
    fn update_facts_program() {
        let outcome = run("", "ins[adam].isa -> person. ins[adam].age -> 30.");
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("adam"), "isa"), vec![oid("person")]);
        assert_eq!(ob2.lookup1(oid("adam"), "age"), vec![int(30)]);
    }

    #[test]
    fn empty_program_is_identity() {
        let outcome = run("a.p -> 1. b.q -> x.", "");
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2, ObjectBase::parse("a.p -> 1. b.q -> x.").unwrap());
        assert_eq!(outcome.stats().strata, 0);
    }

    #[test]
    fn recursive_ancestors() {
        // §2.3's final example, with set-valued anc/parents.
        let outcome = run(
            "ann.isa -> person. bea.isa -> person / parents -> ann.
             cid.isa -> person / parents -> bea.",
            "ins[X].anc -> P <= X.isa -> person / parents -> P.
             ins[X].anc -> P <= ins(X).isa -> person / anc -> A & A.isa -> person / parents -> P.",
        );
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("cid"), "anc"), {
            let mut v = vec![oid("ann"), oid("bea")];
            v.sort();
            v
        });
        assert_eq!(ob2.lookup1(oid("bea"), "anc"), vec![oid("ann")]);
        assert_eq!(ob2.lookup1(oid("ann"), "anc"), vec![]);
        // The recursion needed more than one round in its stratum.
        assert!(outcome.stats().rounds > 2, "stats: {}", outcome.stats());
    }

    #[test]
    fn late_delete_within_stratum_is_applied() {
        // D1: the delete's body depends on an ins-fact derived in the
        // same stratum, so it fires in round 2; overwrite semantics
        // must still remove q -> 1 from del(b).
        let outcome = run(
            "a.p -> 1. b.q -> 1.",
            "ins[a].flag -> 1 <= a.p -> 1.
             del[b].q -> 1 <= ins(a).flag -> 1.",
        );
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("b"), "q"), vec![]);
        assert_eq!(ob2.lookup1(oid("a"), "flag"), vec![int(1)]);
    }

    #[test]
    fn linearity_violation_detected() {
        // §5's example shape: mod and del on the same initial version.
        let ob = ObjectBase::parse("o.m -> a.").unwrap();
        let program = Program::parse(
            "mod[o].m -> (a, b) <= o.m -> a.
             del[o].m -> a <= o.m -> a.",
        )
        .unwrap();
        let err = run_default(program, &ob).unwrap_err();
        match err {
            EvalError::Linearity(v) => assert_eq!(v.object, oid("o")),
            other => panic!("expected linearity violation, got {other:?}"),
        }
    }

    #[test]
    fn final_versions_read_the_starting_base_too() {
        // A non-flat, linear starting base: `o`'s final version is the
        // deepest one, though the run never touches `o`.
        let ob =
            ObjectBase::parse("o.p -> 1. ins(o).p -> 2. mod(ins(o)).p -> 3. z.q -> 0.").unwrap();
        let program = Program::parse("ins[z].r -> 1 <= z.q -> 0.").unwrap();
        let outcome = run_default(program.clone(), &ob).unwrap();
        assert_eq!(outcome.touched_objects(), 1);
        assert_eq!(outcome.try_new_object_base().unwrap().lookup1(oid("o"), "p"), vec![int(3)]);
        // A branching starting base runs, but has no `ob′`.
        let ob = ObjectBase::parse("o.p -> 1. ins(o).p -> 2. del(o).p -> 3. z.q -> 0.").unwrap();
        let outcome = run_default(program, &ob).unwrap();
        assert_eq!(outcome.try_new_object_base().unwrap_err().object, oid("o"));
        // A version the run creates beside one it started from fails
        // the run-time check, in the round that creates it.
        let ob = ObjectBase::parse("o.p -> 1. mod(o).p -> 2.").unwrap();
        let program = Program::parse("ins[o].q -> 1 <= o.p -> 1.").unwrap();
        match run_default(program, &ob).unwrap_err() {
            EvalError::Linearity(v) => assert_eq!(v.object, oid("o")),
            other => panic!("expected linearity violation, got {other:?}"),
        }
    }

    #[test]
    fn deleted_object_disappears_from_new_base() {
        let outcome = run("victim.only -> 1. other.p -> 2.", "del[victim].* .");
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("victim"), "only"), vec![]);
        assert!(!ob2.objects().any(|o| o == oid("victim")));
        assert_eq!(ob2.lookup1(oid("other"), "p"), vec![int(2)]);
        // result(P) still knows the deletion happened: del(victim) exists.
        let del_victim = Vid::object(oid("victim")).apply(UpdateKind::Del).unwrap();
        assert!(outcome.result().exists_fact(del_victim));
    }

    /// The engine against the §3–§5 reference interpreter (no indexes,
    /// no seeding, no skipped rules, and the stability check on every
    /// stratum): equal `result(P)`. Returns the engine's outcome.
    fn assert_matches_reference(ob: &ObjectBase, prog: &str) -> Outcome {
        let program = Program::parse(prog).unwrap();
        let slow = crate::reference::evaluate(&program, ob).unwrap();
        let fast = run_default(program, ob).unwrap();
        assert_eq!(fast.result(), &slow.result);
        fast
    }

    #[test]
    fn closure_rounds_cost_their_delta() {
        // 40-object `next` chain: 780 reach facts over 40 rounds. Every
        // head firing step 1 emits is new — a seeded pass joins from the
        // facts the previous round added, not from the whole of every
        // changed version (which emits > 10 000 candidates here).
        let n = 40;
        let chain: String = (0..n - 1).map(|i| format!("o{i}.next -> o{}. ", i + 1)).collect();
        let outcome = run(
            &chain,
            "tc1: ins[X].reach -> Y <= X.next -> Y.
             tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.",
        );
        let stats = outcome.stats();
        assert_eq!((stats.fired_updates, stats.fired_candidates), (780, 780), "{stats}");
        assert_eq!((stats.rounds, stats.versions_created, stats.facts_copied), (40, 39, 39));
        outcome.result().check_invariants();
    }

    #[test]
    fn late_updates_on_active_versions_match_reference() {
        for (ob, prog) in [
            // Two deletes landing on one del(b) in successive rounds.
            (
                "a.p -> 1. b.data -> 7. b.data -> 8. b.data -> 9.",
                "r1: ins[a].go -> 1 <= a.p -> 1.
                 r2: ins[a].go2 -> 1 <= ins(a).go -> 1.
                 r3: del[b].data -> 7 <= ins(a).go -> 1.
                 r4: del[b].data -> 8 <= ins(a).go2 -> 1.",
            ),
            // An ins adding a *new method* to an already-active ins(a),
            // read by a rule that only a seeded pass re-triggers.
            (
                "a.p -> 1. c.p -> 2.",
                "r1: ins[a].go -> 1 <= a.p -> 1.
                 r2: ins[a].extra -> 5 <= ins(a).go -> 1.
                 r3: ins[c].saw -> V <= ins(a).extra -> V.",
            ),
            // A three-round mod chain (a,b), (b,c), (c,d) on one version.
            (
                "o.m -> a. o.m -> b. o.m -> c.",
                "ins[t].go -> 1 <= o.m -> a.
                 ins[t].go2 -> 1 <= ins(t).go -> 1.
                 mod[o].m -> (a, b) <= o.m -> a.
                 mod[o].m -> (b, c) <= ins(t).go -> 1 & o.m -> b.
                 mod[o].m -> (c, d) <= ins(t).go2 -> 1 & o.m -> c.",
            ),
        ] {
            let fast = assert_matches_reference(&ObjectBase::parse(ob).unwrap(), prog);
            assert_eq!(fast.stratification().strata.len(), 1, "program: {prog}");
            assert!(fast.stats().rounds >= 4, "program: {prog}: {}", fast.stats());
            fast.result().check_invariants();
        }
    }

    #[test]
    fn seminaive_matches_reference_on_paper_program() {
        // The paper's full enterprise program: three strata, negation,
        // del/mod update atoms in bodies, and a del[..].* head.
        let ob_src = "phil.isa -> empl / pos -> mgr / sal -> 4000.
                      bob.isa -> empl / boss -> phil / sal -> 4200.
                      sue.isa -> empl / boss -> phil / sal -> 4300.";
        let prog = "
            rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
            rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
            rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
            rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
        ";
        assert_matches_reference(&ObjectBase::parse(ob_src).unwrap(), prog);
    }

    #[test]
    fn seminaive_matches_reference_on_recursion() {
        // A multi-round recursion where seeding actually kicks in.
        let ob_src = "ann.isa -> person. bea.isa -> person / parents -> ann.
                      cid.isa -> person / parents -> bea. dan.isa -> person / parents -> cid.";
        let prog = "ins[X].anc -> P <= X.isa -> person / parents -> P.
             ins[X].anc -> P <= ins(X).isa -> person / anc -> A & A.isa -> person / parents -> P.";
        let fast = assert_matches_reference(&ObjectBase::parse(ob_src).unwrap(), prog);
        assert!(fast.stats().rule_evaluations_seeded > 0, "recursion must be delta-seeded");
        assert!(fast.stats().rule_evaluations_skipped > 0, "untriggered rules are skipped");
    }

    #[test]
    fn seminaive_seeds_del_and_mod_body_scans() {
        // For statically stratified programs, conditions (a)/(d) pin
        // every writer of a del/mod-body literal's reads strictly below
        // the reader — *unless* the del/mod versions pre-exist in the
        // loaded object base (no del/mod heads, no (a)/(d) edges). Then
        // the whole program shares one stratum and an ins-rule firing
        // in round 2 moves `v*`, creating new del/mod-body matches that
        // only a seeded del/mod scan can find in round 3.
        let ob = ObjectBase::parse(
            "a.mark -> old.  a.tag -> 1.  a.late -> 1.
             del(ins(a)).tag -> 1.
             b.mark -> mold. b.late -> 1.
             mod(ins(b)).mark -> mnew. mod(ins(b)).tag -> 1.
             t.init -> 1.",
        )
        .unwrap();
        let prog = "
            w0: ins[t].go -> 1 <= t.init -> 1.
            w1: ins[X].mark -> new <= X.late -> 1 & ins(t).go -> 1.
            c1: ins[out1].got -> R <= del[ins(X)].mark -> R.
            c2: ins[out2].from -> F <= mod[ins(X)].mark -> (F, T).
        ";
        let fast = assert_matches_reference(&ob, prog);
        // One stratum, multiple rounds, and the consumers re-ran seeded.
        assert_eq!(fast.stratification().strata.len(), 1);
        assert!(fast.stats().rule_evaluations_seeded > 0);
        let ins_out1 = Vid::object(oid("out1")).apply(UpdateKind::Ins).unwrap();
        let ins_out2 = Vid::object(oid("out2")).apply(UpdateKind::Ins).unwrap();
        // Round-1 matches (v* = the initial versions)...
        assert!(fast.result().contains(ins_out1, ruvo_term::sym("got"), &[], oid("old")));
        assert!(fast.result().contains(ins_out2, ruvo_term::sym("from"), &[], oid("mold")));
        // ...and the round-3 matches found *through the seeded scans*
        // after w1 moved v* to ins(a)/ins(b) in round 2.
        assert!(fast.result().contains(ins_out1, ruvo_term::sym("got"), &[], oid("new")));
        assert!(fast.result().contains(ins_out2, ruvo_term::sym("from"), &[], oid("new")));
    }

    /// What the semi-naive round planner decides, pinned as counters:
    /// `(rule_evaluations, rule_evaluations_skipped,
    /// rule_evaluations_seeded, scan_candidates, fired_updates)` on
    /// three shapes — the §2.3 enterprise update (three strata,
    /// negation, del/mod body atoms), the ancestors closure (seeded
    /// recursion) and a `$V` audit rule (re-evaluated in full, never
    /// seeded).
    #[test]
    fn round_tasks_counters_are_pinned() {
        let rows = [
            (
                "enterprise",
                "phil.isa -> empl / pos -> mgr / sal -> 4000.
                 bob.isa -> empl / boss -> phil / sal -> 4200.
                 sue.isa -> empl / boss -> phil / sal -> 4300.",
                "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S \
                 & S2 = S * 1.1 + 200.
                 rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr \
                 & S2 = S * 1.1.
                 rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE \
                 & mod(B).isa -> empl / sal -> SB & SE > SB.
                 rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 \
                 & not del[mod(E)].isa -> empl.",
                (4, 4, 0, 24, 10),
            ),
            (
                "ancestors",
                "ann.isa -> person. bea.isa -> person / parents -> ann.
                 cid.isa -> person / parents -> bea. dan.isa -> person / parents -> cid.",
                "ins[X].anc -> P <= X.isa -> person / parents -> P.
                 ins[X].anc -> P <= ins(X).isa -> person / anc -> A \
                 & A.isa -> person / parents -> P.",
                (5, 3, 4, 44, 6),
            ),
            (
                "audit",
                "a.p -> 1. b.p -> 1. c.p -> 2.",
                "mark: ins[X].seen -> 1 <= X.p -> 1.
                 audit: ins[log].saw -> O <= $V.seen -> 1 & $V.exists -> O.",
                (4, 2, 0, 20, 4),
            ),
        ];
        for (name, ob, prog, expected) in rows {
            let s = run(ob, prog).stats().clone();
            let got = (
                s.rule_evaluations,
                s.rule_evaluations_skipped,
                s.rule_evaluations_seeded,
                s.scan_candidates,
                s.fired_updates,
            );
            assert_eq!(got, expected, "{name}");
        }
    }

    #[test]
    fn round_limit_triggers() {
        let ob = ObjectBase::parse("a.p -> 1. b.x -> 9. c.x -> 9.").unwrap();
        // Needs 3+ rounds: chain of derivations.
        let program = Program::parse(
            "ins[b].p -> 1 <= ins(a).p -> 1.
             ins[a].p -> 1 <= a.p -> 1.
             ins[c].p -> 1 <= ins(b).p -> 1.",
        )
        .unwrap();
        let config = EngineConfig { max_rounds_per_stratum: 2, ..Default::default() };
        let err = run_with(program.clone(), config, &ob).unwrap_err();
        assert!(matches!(err, EvalError::RoundLimit { .. }));
        // With enough rounds it completes.
        assert!(run_default(program, &ob).is_ok());
    }

    #[test]
    fn traces_are_always_recorded() {
        let outcome = run("a.p -> 1.", "ins[a].q -> 1 <= a.p -> 1.");
        assert_eq!(outcome.stratum_traces().len(), 1);
        let rounds = outcome.round_traces();
        assert_eq!(rounds.len(), 2); // firing round + empty round
        assert_eq!(
            (rounds[0].evaluated.as_slice(), rounds[0].new_fired, rounds[0].touched),
            (&[0][..], 1, 1)
        );
        assert_eq!((rounds[1].new_fired, rounds[1].touched), (0, 0));
    }

    #[test]
    fn chained_modify_across_rounds_reaches_paper_fixpoint() {
        // m is set-valued with {a, b}. (a,b) fires in round 1; (b,c)
        // fires in round 2 (its body needs the ins-fact from round 1).
        // At the paper's fixpoint T¹ = {(a,b),(b,c)} and step 3 gives
        // mod(o).m = {b, c}. Applying only the round-2 delta to the
        // round-1 state would lose b (state {c}).
        let outcome = run(
            "o.m -> a. o.m -> b.",
            "ins[trigger].go -> 1 <= o.m -> a.
             mod[o].m -> (a, b) <= o.m -> a.
             mod[o].m -> (b, c) <= ins(trigger).go -> 1 & o.m -> b.",
        );
        // All three rules share one stratum: the chain is a genuinely
        // intra-stratum phenomenon.
        assert_eq!(outcome.stratification().strata.len(), 1);
        let ob2 = outcome.try_new_object_base().unwrap();
        let mut got = ob2.lookup1(oid("o"), "m");
        got.sort();
        assert_eq!(got, vec![oid("b"), oid("c")]);
    }

    #[test]
    fn same_round_chained_modify_is_order_independent() {
        // Both mods fire in round 1; the result must not depend on the
        // order rules are listed in.
        for prog in [
            "mod[o].m -> (a, b) <= o.m -> a. mod[o].m -> (b, c) <= o.m -> b.",
            "mod[o].m -> (b, c) <= o.m -> b. mod[o].m -> (a, b) <= o.m -> a.",
        ] {
            let outcome = run("o.m -> a. o.m -> b.", prog);
            let mut got = outcome.try_new_object_base().unwrap().lookup1(oid("o"), "m");
            got.sort();
            assert_eq!(got, vec![oid("b"), oid("c")], "program: {prog}");
        }
    }

    #[test]
    fn new_object_creation() {
        let outcome = run(
            "founder.isa -> person.",
            "ins[child].parents -> founder <= founder.isa -> person.",
        );
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("child"), "parents"), vec![oid("founder")]);
    }

    // A 2-rule cycle through conditions (b) and (c): rule2 reads the
    // negated delete on ins(X) (so the del-rule must be strictly lower)
    // while rule1 reads ins(X) positively (so the ins-rule must be at
    // most as high). Statically rejected; evaluation is stable when the
    // negated atom never flips.
    const CYCLIC_STABLE: &str = "
        r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
        r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 9.
    ";

    #[test]
    fn cyclic_program_rejected_statically() {
        let ob = ObjectBase::parse("a.m -> 1. a.trigger -> 1.").unwrap();
        let program = Program::parse(CYCLIC_STABLE).unwrap();
        let err = run_default(program, &ob).unwrap_err();
        assert!(matches!(err, EvalError::NotStratifiable(_)), "got {err:?}");
    }

    #[test]
    fn cyclic_but_stable_program_accepted_at_runtime() {
        let ob = ObjectBase::parse("a.m -> 1. a.trigger -> 1.").unwrap();
        let program = Program::parse(CYCLIC_STABLE).unwrap();
        let config = EngineConfig { cycles: CyclePolicy::RuntimeStability, ..Default::default() };
        let outcome = run_with(program, config, &ob).unwrap();
        // a's final version is del(ins(a)): go was inserted, then m
        // deleted from the ins-version.
        let ob2 = outcome.try_new_object_base().unwrap();
        assert_eq!(ob2.lookup1(oid("a"), "go"), vec![int(1)]);
        assert_eq!(ob2.lookup1(oid("a"), "m"), vec![]);
        assert_eq!(ob2.lookup1(oid("a"), "trigger"), vec![int(1)]);
    }

    #[test]
    fn cyclic_unstable_program_rejected_at_runtime() {
        // Same shape, but the negated update-term is exactly the delete
        // r1 performs: once it happens, r2's fired instance no longer
        // fires — order-dependence detected and rejected.
        let ob = ObjectBase::parse("a.m -> 1. a.trigger -> 1.").unwrap();
        let program = Program::parse(
            "r1: del[ins(X)].m -> 1 <= ins(X).m -> 1 & ins(X).go -> 1.
             r2: ins[X].go -> 1 <= X.trigger -> 1 & not del[ins(X)].m -> 1.",
        )
        .unwrap();
        let config = EngineConfig { cycles: CyclePolicy::RuntimeStability, ..Default::default() };
        let err = run_with(program, config, &ob).unwrap_err();
        match err {
            EvalError::Unstable { update, .. } => {
                assert!(update.contains("go"), "unexpected update: {update}");
            }
            other => panic!("expected Unstable, got {other:?}"),
        }
    }

    #[test]
    fn runtime_policy_matches_static_on_stratifiable_programs() {
        // The paper's enterprise example: identical strata, identical
        // result under either policy, and the reference's (which checks
        // stability on every stratum).
        let ob_src = "phil.isa -> empl / pos -> mgr / sal -> 4000.
                      bob.isa -> empl / boss -> phil / sal -> 4200.";
        let prog = "
            rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
            rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
            rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
            rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
        ";
        let ob = ObjectBase::parse(ob_src).unwrap();
        let strict = assert_matches_reference(&ob, prog);
        let config = EngineConfig { cycles: CyclePolicy::RuntimeStability, ..Default::default() };
        let relaxed = run_with(Program::parse(prog).unwrap(), config, &ob).unwrap();
        assert_eq!(strict.result(), relaxed.result());
        assert_eq!(strict.stratification().strata, relaxed.stratification().strata);
    }

    /// §5 the slow way: insert every fact of each object's final
    /// version, one by one, into an empty base.
    fn ob_prime_fact_by_fact(outcome: &Outcome) -> ObjectBase {
        let mut out = ObjectBase::new();
        for (base, v) in outcome.final_versions().unwrap() {
            let Some(state) = outcome.result().version(v) else { continue };
            for (method, app) in state.iter() {
                out.insert(Vid::object(base), method, app.args.clone(), app.result);
            }
        }
        out
    }

    #[test]
    fn ob_prime_adopts_final_states_equal_to_fact_by_fact_insertion() {
        // Raised, deleted (bob disappears: an empty final state), grown
        // by a multi-valued `isa`, and untouched objects.
        let ob = ObjectBase::parse(
            "phil.isa -> empl / sal -> 4000 / boss -> bob / kids -> ann / kids -> tom.
             bob.isa -> empl / sal -> 4200 / boss -> phil. ann.age -> 3. tom.age -> 5.",
        )
        .unwrap();
        let program = Program::parse(
            "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.15.
             del[mod(E)].* <= mod(E).boss -> B / sal -> SE & mod(B).sal -> SB & SE > SB.
             ins[mod(E)].isa -> hpe <= mod(E).sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        )
        .unwrap();
        let outcome = run_default(program, &ob).unwrap();
        let linear = outcome.try_new_object_base().unwrap();
        let slow = ob_prime_fact_by_fact(&outcome);
        assert_eq!(linear, slow);
        assert_eq!(linear.facts_sorted(), slow.facts_sorted());
        assert_eq!(linear.len(), slow.len());
        linear.check_invariants();
        assert_eq!(linear.lookup1(oid("bob"), "sal"), vec![], "bob's final state is empty");
        assert_eq!(linear.lookup1(oid("phil"), "isa"), vec![oid("empl"), oid("hpe")]);
        assert!(linear.is_flat());

        // A non-flat starting base: untouched `o` adopts its deepest
        // state, touched `p` empties and disappears.
        let ob = ObjectBase::parse("o.m -> a. ins(o).m -> b. p.m -> a.").unwrap();
        let program = Program::parse("del[p].m -> a <= p.m -> a.").unwrap();
        let outcome = run_default(program, &ob).unwrap();
        let adopted = outcome.try_new_object_base().unwrap();
        let slow = ob_prime_fact_by_fact(&outcome);
        assert_eq!(adopted, slow);
        assert_eq!(adopted.facts_sorted(), slow.facts_sorted());
        adopted.check_invariants();
        assert_eq!(adopted.lookup1(oid("o"), "m"), vec![oid("b")]);
        assert!(adopted.objects().all(|base| base == oid("o")), "p's final state is empty");
    }

    #[test]
    fn relaxed_stratification_flags_cycle_strata() {
        let program = Program::parse(CYCLIC_STABLE).unwrap();
        let relaxed = crate::stratify::stratify_relaxed(&program);
        assert_eq!(relaxed.stratification.strata, vec![vec![0, 1]]);
        assert_eq!(relaxed.needs_runtime_check, vec![true]);
        // A stratifiable program has no flagged strata.
        let plain = Program::parse("ins[a].p -> 1.").unwrap();
        let relaxed = crate::stratify::stratify_relaxed(&plain);
        assert_eq!(relaxed.needs_runtime_check, vec![false]);
    }
}
