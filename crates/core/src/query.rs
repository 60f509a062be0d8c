//! Demand-driven query evaluation: a magic-set rewrite over the
//! seeded matcher.
//!
//! A [`Goal`] asks for the bindings of a body-only conjunction in
//! `result(P)` — the interpretation the update-program `P` evaluates
//! to over an object base. The naive way to answer it is to run `P`
//! to completion and filter; for a selective goal (`?- mod(phil).sal
//! -> S.`) that derives updates for *every* object when the goal only
//! ever observes one. This module adapts the classic magic-set /
//! demand transformation of deductive databases to the paper's
//! object-version semantics:
//!
//! 1. **Relevance pruning (chain granularity).** A rule is *relevant*
//!    iff the version chain it creates is (transitively) read by the
//!    goal. Irrelevant rules are dropped: their writes are
//!    unobservable, and facts are never removed by pruning, so every
//!    kept rule sees exactly the base facts it would under full
//!    evaluation.
//! 2. **Object-level magic seeding.** Every kept rule with a variable
//!    head target `X` gets a *guard* literal `X.'?demand' -> 1`
//!    prepended: it fires only for objects in the demanded set. The
//!    demanded set starts from the goal's constant targets and grows
//!    by sideways information passing (SIP): for each kept rule whose
//!    body reads a *derived* relation of some other object `V`, a
//!    demand rule derives `V`'s demand from the rule's base-complete
//!    literals. Because rules only ever write versions of their own
//!    head object, the demand fixpoint closes over exactly the
//!    objects whose derivations the goal can observe.
//! 3. **Evaluation.** The demanded objects are materialized as magic
//!    `ε`-facts on a fresh method name, the guarded program runs
//!    through the ordinary compiled pipeline
//!    ([`crate::run_compiled`], index plans, semi-naive seeding), and
//!    the goal is matched against the outcome with
//!    [`crate::matcher::for_each_match`].
//!
//! When a step of the analysis cannot be justified the planner falls
//! back — [`QueryMode::Seeded`] → [`QueryMode::Pruned`] (relevant
//! rules only, unguarded) → [`QueryMode::Full`] (the original
//! program) — and records why; answers are identical in every mode
//! (the differential test battery in `tests/query_differential.rs`
//! holds the rewrite to that).
//!
//! The magic guard reads a fresh method on the *empty* chain, which
//! no rule writes, so guarding never adds stratification edges: the
//! guarded program stratifies exactly like the pruned one.
//!
//! Everything about a rewrite except the goal's own literals depends
//! only on which rules relevance keeps, so each [`CompiledProgram`]
//! keeps one entry per kept-rule set (`Rewrites`), built by the first
//! goal that keeps those rules: the pruned and guarded programs, the
//! magic method (fresh for the kept rules), and the kept rules' seeds
//! and demand rules. A plan adds only relevance, the goal's index plan
//! and the seeds and demand rules of the goal's own literals; a goal
//! that reads the magic method runs the pruned program.

use std::fmt;
use std::sync::{Arc, RwLock};

use ruvo_lang::pretty::{const_str, literal_str, symbol_str};
use ruvo_lang::{Atom, Goal, Literal, Program, Rule, VarTable, VersionAtom};
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{
    int, sym, BaseTerm, Chain, Const, FastHashMap, FastHashSet, Symbol, VarId, Vid, VidRef, VidTerm,
};

use crate::engine::{run_compiled, CompiledProgram, EngineConfig};
use crate::error::EvalError;
use crate::matcher::for_each_match;
use crate::plan::{literal_reads, rule_index_plan, RuleIndexPlan};

/// The base name of the magic (demand) method; uniquified against the
/// kept rules' method vocabulary before use.
const MAGIC_METHOD: &str = "?demand";

/// How a query plan evaluates relative to full evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Irrelevant rules dropped *and* the remaining variable-headed
    /// rules guarded by magic demand facts: only the demanded slice
    /// of the object base is derived.
    Seeded,
    /// Irrelevant rules dropped, but the demand analysis could not
    /// justify guards; the kept rules run over the whole base.
    Pruned,
    /// The original program, unchanged (the escape hatch, and the
    /// fallback when even pruning is unjustified).
    Full,
}

impl fmt::Display for QueryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryMode::Seeded => "seeded",
            QueryMode::Pruned => "pruned",
            QueryMode::Full => "full",
        })
    }
}

/// A demand-propagation rule: when the original rule could fire, its
/// base-complete body literals hold over the input base, so
/// evaluating just those over the base enumerates every object the
/// rule can pull a derived relation from.
#[derive(Debug)]
struct DemandRule {
    /// The base-complete prerequisite conjunction, packaged as a
    /// (ground-headed) goal so it reuses validation and the safety
    /// plan.
    body: Goal,
    /// Index plan for [`DemandRule::body`]'s single rule.
    plan: RuleIndexPlan,
    /// The variable whose bindings become demanded.
    v: VarId,
    /// When `Some`, demand `v` only for firings whose head object `x`
    /// is itself demanded (the SIP edge); `None` demands
    /// unconditionally (goal sweeps, constant-headed rules, and rules
    /// whose head variable does not occur in the base-complete part).
    x: Option<VarId>,
}

/// What some literals demand: a goal's own (per plan) or the kept
/// rules' (per [`Rewrite`]).
#[derive(Debug, Default)]
struct Demand {
    /// Statically demanded objects: the constant targets of derived
    /// literals; sorted, deduplicated.
    seeds: Vec<Const>,
    /// Demand-propagation rules, evaluated over the input base.
    rules: Vec<DemandRule>,
}

/// The guarded half of a [`Rewrite`]: what a seeded plan runs.
#[derive(Debug)]
struct Guards {
    /// The fresh magic method the guards read.
    magic: Symbol,
    /// The kept rules, variable-headed ones guarded.
    program: Arc<CompiledProgram>,
    /// What the kept rules' bodies demand.
    demand: Demand,
}

/// The entry of one kept-rule set in [`Rewrites`]: everything a
/// rewrite reads except the goal's own literals.
#[derive(Debug)]
struct Rewrite {
    /// The kept rules, unguarded: what a pruned or full plan runs, and
    /// a seeded one when a demanded object is missing from the base.
    pruned: Arc<CompiledProgram>,
    /// The chains the kept rules create: a literal reading one reads a
    /// derived relation.
    created: FastHashSet<Chain>,
    /// The guarded rewrite, or why no goal keeping these rules can be
    /// seeded.
    guards: Result<Guards, String>,
}

/// A compiled query: the goal, the rewritten program, and the demand
/// seeding analysis. Built once per (program, goal) pair by
/// [`plan_query`] and reusable across object bases via [`run_query`].
pub struct QueryPlan {
    goal: Goal,
    goal_plan: RuleIndexPlan,
    mode: QueryMode,
    reason: Option<String>,
    kept: Vec<usize>,
    total_rules: usize,
    rewrite: Arc<Rewrite>,
    /// What the goal's own literals demand ([`QueryMode::Seeded`] only).
    demand: Option<Demand>,
}

/// The answers to a query: one row of constants per named goal
/// variable assignment satisfying the goal in `result(P)`, deduplicated
/// and sorted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswers {
    /// Column names: the goal's named variables in first-occurrence
    /// order.
    pub vars: Vec<String>,
    /// Answer rows, parallel to `vars`; deduplicated, sorted.
    pub rows: Vec<Vec<Const>>,
}

impl QueryAnswers {
    /// True if the goal has at least one satisfying assignment.
    pub fn holds(&self) -> bool {
        !self.rows.is_empty()
    }
}

impl fmt::Display for QueryAnswers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows.is_empty() {
            return f.write_str("no");
        }
        if self.vars.is_empty() {
            return f.write_str("yes");
        }
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let cells: Vec<String> = self
                .vars
                .iter()
                .zip(row)
                .map(|(name, &value)| format!("{name} = {}", const_str(value)))
                .collect();
            write!(f, "{}", cells.join(", "))?;
        }
        Ok(())
    }
}

impl QueryPlan {
    /// The goal this plan answers.
    pub fn goal(&self) -> &Goal {
        &self.goal
    }

    /// The evaluation mode the analysis settled on.
    pub fn mode(&self) -> QueryMode {
        self.mode
    }

    /// Why the plan fell back from a stronger mode (`None` for
    /// [`QueryMode::Seeded`]).
    pub fn reason(&self) -> Option<&str> {
        self.reason.as_deref()
    }

    /// The program the plan actually runs (guarded, pruned, or the
    /// original, per [`QueryPlan::mode`]): compiled once per kept-rule
    /// set and shared with every plan of the same [`CompiledProgram`]
    /// that keeps the same rules.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        match self.seeded() {
            Some((guards, _)) => &guards.program,
            None => &self.rewrite.pruned,
        }
    }

    /// Indices (into the original program) of the rules the plan kept.
    pub fn kept_rules(&self) -> &[usize] {
        &self.kept
    }

    /// The kept rules' guards and the goal's own demand, when seeded.
    fn seeded(&self) -> Option<(&Guards, &Demand)> {
        Some((self.rewrite.guards.as_ref().ok()?, self.demand.as_ref()?))
    }

    /// A deterministic, human-readable rendering of the whole rewrite
    /// — the golden-test surface: goal, adornment, mode (with
    /// fallback reason), kept rules, the rewritten program text, and
    /// the demand seeding.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "goal: {}", self.goal);
        let _ = writeln!(s, "adornment: {}", self.goal.adornment());
        match &self.reason {
            Some(reason) => {
                let _ = writeln!(s, "mode: {} ({reason})", self.mode);
            }
            None => {
                let _ = writeln!(s, "mode: {}", self.mode);
            }
        }
        let _ = writeln!(s, "rules kept: {} of {}", self.kept.len(), self.total_rules);
        let _ = writeln!(s, "rewritten program:");
        for rule in &self.program().program().rules {
            let _ = writeln!(s, "  {rule}");
        }
        if let Some((guards, goal)) = self.seeded() {
            let _ = writeln!(s, "magic method: {}", symbol_str(guards.magic));
            let mut seeds: Vec<Const> =
                goal.seeds.iter().chain(&guards.demand.seeds).copied().collect();
            seeds.sort();
            seeds.dedup();
            let rendered: Vec<String> = seeds.into_iter().map(const_str).collect();
            let _ = writeln!(s, "seeds: [{}]", rendered.join(", "));
            for d in goal.rules.iter().chain(&guards.demand.rules) {
                let vars = d.body.vars();
                let lits: Vec<String> = d
                    .body
                    .body()
                    .iter()
                    .map(|lit| literal_str(lit, vars, &VarTable::new()))
                    .collect();
                let when = match d.x {
                    Some(x) => format!(" when {} demanded", vars.name(x)),
                    None => String::new(),
                };
                let _ = writeln!(s, "demand {}{when}: {}", vars.name(d.v), lits.join(" & "));
            }
        }
        s
    }
}

/// Build the demand plan for `goal` against `compiled`. Infallible:
/// every analysis obstacle degrades the [`QueryMode`] instead of
/// erroring, and the recorded reason says what blocked the stronger
/// mode. Reads its kept rules' entry from `compiled`'s table of
/// rewrites, building it the first time; the rest is the goal's own
/// analysis.
pub fn plan_query(compiled: &CompiledProgram, goal: Goal) -> QueryPlan {
    let total_rules = compiled.program().rules.len();
    let goal_plan = rule_index_plan(goal.as_rule());
    let kept = relevance(compiled.program(), &goal);
    let rewrite = compiled.rewrites.get_or_build(compiled, &kept);
    // The goal's own obstacles are reported before the kept rules'.
    let demand = goal_demand(&goal, &rewrite.created).and_then(|demand| {
        let magic = rewrite.guards.as_ref().map_err(String::clone)?.magic;
        if goal.body().iter().any(|lit| atom_method(&lit.atom) == Some(magic)) {
            // Its guard facts would be visible to the goal.
            return Err(format!("the goal reads the magic method {}", symbol_str(magic)));
        }
        Ok(demand)
    });
    let (mode, reason, demand) = match demand {
        Ok(demand) => (QueryMode::Seeded, None, Some(demand)),
        Err(reason) if kept.len() == total_rules => (QueryMode::Full, Some(reason), None),
        Err(reason) => (QueryMode::Pruned, Some(reason), None),
    };
    QueryPlan { goal, goal_plan, mode, reason, kept, total_rules, rewrite, demand }
}

/// Run a query plan over `work`, as it is: nothing is prepared.
///
/// A seeded plan puts a magic fact on the initial version of every
/// demanded object. That version must exist already, because a fact
/// makes its version exist (§3): demanding an object `work` lacks would
/// let `exists` reads and `v*` see an object full evaluation never has.
/// So when one is missing, the plan runs its kept rules unguarded —
/// the pruned program, same answers.
pub fn run_query(
    plan: &QueryPlan,
    config: &EngineConfig,
    mut work: ObjectBase,
) -> Result<QueryAnswers, EvalError> {
    let mut exec = plan.program();
    if let Some((guards, goal)) = plan.seeded() {
        let demanded = demand_fixpoint([goal, &guards.demand], &work);
        if demanded.iter().all(|&c| work.exists_fact(Vid::object(c))) {
            for c in demanded {
                work.insert(Vid::object(c), guards.magic, Args::empty(), int(1));
            }
        } else {
            exec = &plan.rewrite.pruned;
        }
    }
    let outcome = run_compiled(exec, config, work)?;
    Ok(match_goal_planned(outcome.result(), &plan.goal, &plan.goal_plan))
}

/// Match `goal` directly against an interpretation (no program run):
/// the oracle the differential tests compare [`run_query`] against,
/// and — applied to a full evaluation's `result(P)` — the escape hatch
/// from the demand rewrite.
pub fn match_goal(ob: &ObjectBase, goal: &Goal) -> QueryAnswers {
    match_goal_planned(ob, goal, &rule_index_plan(goal.as_rule()))
}

fn match_goal_planned(ob: &ObjectBase, goal: &Goal, plan: &RuleIndexPlan) -> QueryAnswers {
    let named = goal.named_vars();
    let vars: Vec<String> = named.iter().map(|&v| goal.vars().name(v).to_owned()).collect();
    let mut seen: FastHashSet<Vec<Const>> = FastHashSet::default();
    for_each_match(ob, goal.as_rule(), plan, None, &mut |b| {
        let row: Vec<Const> =
            named.iter().map(|&v| b.get(v).expect("goal variables are bound by safety")).collect();
        seen.insert(row);
    });
    let mut rows: Vec<Vec<Const>> = seen.into_iter().collect();
    rows.sort();
    QueryAnswers { vars, rows }
}

/// The rewrites of one [`CompiledProgram`], one entry per kept-rule
/// set: the kept indices are all an entry reads besides the program and
/// its cycle policy, so two goals with the same kept rules share it.
///
/// Entries are never evicted: the table holds one entry per distinct
/// kept-rule set the goals asked so far produced, a subset of the
/// program's rules, so up to 2^rules of them (ARCHITECTURE.md,
/// decision D9).
#[derive(Debug, Default)]
pub(crate) struct Rewrites {
    table: RwLock<FastHashMap<Box<[usize]>, Arc<Rewrite>>>,
}

impl Rewrites {
    /// The entry of `compiled` (whose table this is) for the rules at
    /// `kept`. A miss builds outside the lock; when two threads race on
    /// one key, both get the first one inserted. A poisoned lock is used
    /// as is: the only write inserts a finished entry, so a panic
    /// elsewhere cannot leave the table half-updated.
    fn get_or_build(&self, compiled: &CompiledProgram, kept: &[usize]) -> Arc<Rewrite> {
        let table = self.table.read().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = table.get(kept) {
            return Arc::clone(hit);
        }
        drop(table);
        let built = Arc::new(Rewrite::build(compiled, kept));
        let mut table = self.table.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(table.entry(kept.into()).or_insert(built))
    }
}

/// A copy of a compiled program starts with no rewrites of its own.
impl Clone for Rewrites {
    fn clone(&self) -> Rewrites {
        Rewrites::default()
    }
}

impl Rewrite {
    fn build(compiled: &CompiledProgram, kept: &[usize]) -> Rewrite {
        let program = compiled.program();
        let rules = Program { rules: kept.iter().map(|&i| program.rules[i].clone()).collect() };
        let created = rules.rules.iter().map(|rule| rule.head.created_term().chain).collect();
        let guards = Guards::build(compiled, kept, &created);
        // Every §4 constraint is between two rules, so a subset of a
        // stratified program's rules stratifies too.
        let pruned = CompiledProgram::compile(rules, compiled.cycle_policy())
            .expect("a subset of a compiled program's rules compiles under its policy");
        Rewrite { pruned: Arc::new(pruned), created, guards }
    }
}

impl Guards {
    /// The guarded rewrite of the rules at `kept`, or the first obstacle
    /// to it: a `$V` read, no variable head to guard, a kept rule's
    /// unjustified demand, or a failed compile.
    fn build(
        compiled: &CompiledProgram,
        kept: &[usize],
        created: &FastHashSet<Chain>,
    ) -> Result<Guards, String> {
        let program = compiled.program();
        let rules = || kept.iter().map(|&i| (i, &program.rules[i]));
        if rules().any(|(_, rule)| rule.body.iter().any(|lit| literal_reads(lit).is_none())) {
            return Err("a relevant rule reads through a VID variable ($V), which can touch any \
                        version"
                .to_owned());
        }
        if !rules().any(|(_, rule)| rule.head.target.base.as_var().is_some()) {
            return Err(
                "every relevant rule has a constant head target — nothing to guard".to_owned()
            );
        }
        let mut demand = Demand::default();
        for (i, rule) in rules() {
            let what = match &rule.label {
                Some(l) => format!("rule {l}"),
                None => format!("rule #{i}"),
            };
            demand.add(&rule.body, &rule.vars, rule.head.target.base.as_var(), created, &what)?;
        }
        let magic = fresh_magic(rules().map(|(_, rule)| rule));
        let guarded = guarded_program(rules().map(|(_, rule)| rule), magic)?;
        let program = CompiledProgram::compile(guarded, compiled.cycle_policy())
            .map_err(|e| format!("rewritten program failed to stratify: {e}"))?;
        Ok(Guards { magic, program: Arc::new(program), demand })
    }
}

/// What `goal`'s own literals demand, or why the goal cannot be seeded:
/// a derived literal's target is not bound by its base-complete
/// literals.
fn goal_demand(goal: &Goal, created: &FastHashSet<Chain>) -> Result<Demand, String> {
    let mut demand = Demand::default();
    demand.add(goal.body(), goal.vars(), None, created, "the goal")?;
    Ok(demand)
}

/// Chain-granularity relevance: a rule is relevant iff the chain it
/// creates is demanded; demanding a rule demands everything its body
/// reads plus every prefix of its created chain (copy sources). Returns
/// the indices of the relevant rules, in program order: every rule once
/// a relevant rule reads through a `$V`.
fn relevance(program: &Program, goal: &Goal) -> Vec<usize> {
    let mut demanded: FastHashSet<Chain> = FastHashSet::default();
    for lit in goal.body() {
        let reads = literal_reads(lit).expect("goals reject VID variables");
        demanded.extend(reads.into_iter().map(|(c, _)| c));
    }
    let mut kept = vec![false; program.rules.len()];
    let mut all_chains = false;
    loop {
        let mut grew = false;
        for (i, rule) in program.rules.iter().enumerate() {
            if kept[i] {
                continue;
            }
            let created = rule.head.created_term();
            if !all_chains && !demanded.contains(&created.chain) {
                continue;
            }
            kept[i] = true;
            grew = true;
            for p in created.chain.prefixes() {
                demanded.insert(p);
            }
            for lit in &rule.body {
                match literal_reads(lit) {
                    Some(reads) => demanded.extend(reads.into_iter().map(|(c, _)| c)),
                    // A $V atom reads every relation: from here on
                    // every rule is relevant.
                    None => all_chains = true,
                }
            }
        }
        if !grew {
            break;
        }
    }
    (0..program.rules.len()).filter(|&i| kept[i]).collect()
}

/// True iff the literal can read a relation some kept rule writes
/// (directly or via copy — creating a version copies *all* methods,
/// so derivedness is decided at chain granularity).
fn is_derived(lit: &Literal, created: &FastHashSet<Chain>) -> bool {
    match literal_reads(lit) {
        Some(reads) => reads.iter().any(|(c, _)| created.contains(c)),
        None => true,
    }
}

/// The target object term of a body literal (`None` for built-ins and
/// VID-variable atoms).
fn target_base(atom: &Atom) -> Option<BaseTerm> {
    match atom {
        Atom::Version(va) => va.vid.as_term().map(|t| t.base),
        Atom::Update(ua) => Some(ua.target.base),
        Atom::Cmp(_) => None,
    }
}

/// The method an atom reads or updates (`None` for built-ins and
/// `del[..].*`).
fn atom_method(atom: &Atom) -> Option<Symbol> {
    match atom {
        Atom::Version(va) => Some(va.method),
        Atom::Update(ua) => ua.spec.method(),
        Atom::Cmp(_) => None,
    }
}

/// A fresh method name absent from `rules`' method vocabulary, so the
/// guards read a relation no rule reads or writes.
fn fresh_magic<'a>(rules: impl Iterator<Item = &'a Rule>) -> Symbol {
    let mut vocab: FastHashSet<Symbol> = FastHashSet::default();
    for rule in rules {
        vocab.extend(rule.head.spec.method());
        vocab.extend(rule.body.iter().filter_map(|lit| atom_method(&lit.atom)));
    }
    let mut name = MAGIC_METHOD.to_owned();
    let mut k = 1;
    while vocab.contains(&sym(&name)) {
        k += 1;
        name = format!("{MAGIC_METHOD}#{k}");
    }
    sym(&name)
}

impl Demand {
    /// Add what `body` demands: decide where every derived relation it
    /// reads gets its demanded objects from, or report the literal that
    /// blocks seeding. `head_var` is the head target of the rule `body`
    /// belongs to (`None` for a goal); `what` names it in the error.
    fn add(
        &mut self,
        body: &[Literal],
        vars: &VarTable,
        head_var: Option<VarId>,
        created: &FastHashSet<Chain>,
        what: &str,
    ) -> Result<(), String> {
        // The base-complete prerequisite: positive non-built-in
        // literals reading only relations no kept rule writes. Their
        // facts are immutable during evaluation, so they may be
        // evaluated over the input base up front.
        let base_lits: Vec<Literal> = body
            .iter()
            .filter(|lit| {
                lit.positive && !matches!(lit.atom, Atom::Cmp(_)) && !is_derived(lit, created)
            })
            .cloned()
            .collect();
        let mut base_vars: FastHashSet<VarId> = FastHashSet::default();
        for lit in &base_lits {
            lit.atom.for_each_var(|v| {
                base_vars.insert(v);
            });
        }
        let mut demanded_vars: FastHashSet<VarId> = FastHashSet::default();
        for lit in body {
            if !is_derived(lit, created) {
                continue;
            }
            let Some(target) = target_base(&lit.atom) else { continue };
            match target {
                BaseTerm::Const(c) => self.seeds.push(c),
                BaseTerm::Var(v) if Some(v) == head_var => {
                    // Self-read: covered by this rule's own guard.
                }
                BaseTerm::Var(v) if base_vars.contains(&v) => {
                    if !demanded_vars.insert(v) {
                        continue;
                    }
                    let body = Goal::from_body(base_lits.clone(), vars.clone())
                        .map_err(|e| format!("demand rule for {what} is unplannable: {e}"))?;
                    let plan = rule_index_plan(body.as_rule());
                    let x = head_var.filter(|h| base_vars.contains(h));
                    self.rules.push(DemandRule { body, plan, v, x });
                }
                BaseTerm::Var(v) => {
                    return Err(format!(
                        "in {what}, derived literal target {} is not bound by base-complete \
                         literals",
                        vars.name(v)
                    ));
                }
            }
        }
        self.seeds.sort();
        self.seeds.dedup();
        Ok(())
    }
}

/// The kept rules with magic guards prepended to every variable-headed
/// rule. Constant-headed rules run unguarded (they fire at most once
/// per body match and write a statically known object).
fn guarded_program<'a>(
    rules: impl Iterator<Item = &'a Rule>,
    magic: Symbol,
) -> Result<Program, String> {
    let mut guarded = Vec::new();
    for rule in rules {
        match rule.head.target.base {
            BaseTerm::Var(x) => {
                let guard = Literal::pos(Atom::Version(VersionAtom {
                    vid: VidRef::Term(VidTerm::object(BaseTerm::Var(x))),
                    method: magic,
                    args: Vec::new(),
                    result: BaseTerm::Const(int(1)),
                }));
                let mut body = Vec::with_capacity(rule.body.len() + 1);
                body.push(guard);
                body.extend(rule.body.iter().cloned());
                let rule =
                    Rule::new(rule.head.clone(), body, rule.vars.clone(), rule.label.clone())
                        .map_err(|e| format!("guarding a rule broke its safety plan: {e}"))?;
                guarded.push(rule);
            }
            BaseTerm::Const(_) => guarded.push(rule.clone()),
        }
    }
    Ok(Program { rules: guarded })
}

/// Close the demanded-object set over the demand rules, evaluated
/// against the (magic-free) input base. Each demand rule is
/// evaluated once — its base-complete body never changes — and the
/// conditional (SIP) edges iterate to fixpoint.
fn demand_fixpoint(demands: [&Demand; 2], base: &ObjectBase) -> FastHashSet<Const> {
    let mut demanded: FastHashSet<Const> = demands.iter().flat_map(|d| &d.seeds).copied().collect();
    let mut edges: Vec<(Const, Const)> = Vec::new();
    for d in demands.iter().flat_map(|d| &d.rules) {
        for_each_match(base, d.body.as_rule(), &d.plan, None, &mut |b| {
            let v = b.get(d.v).expect("demand variable is bound by the demand body");
            match d.x {
                Some(x) => {
                    let x = b.get(x).expect("conditioning variable is bound by the demand body");
                    edges.push((x, v));
                }
                None => {
                    demanded.insert(v);
                }
            }
        });
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(x, v) in &edges {
            if demanded.contains(&x) && demanded.insert(v) {
                changed = true;
            }
        }
    }
    demanded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CyclePolicy;

    fn compiled(src: &str) -> CompiledProgram {
        CompiledProgram::compile(Program::parse(src).unwrap(), CyclePolicy::Reject).unwrap()
    }

    fn prepared(src: &str) -> ObjectBase {
        ObjectBase::parse(src).unwrap()
    }

    /// The full-evaluation oracle: run the original program, match the
    /// goal against `result(P)`.
    fn oracle(compiled: &CompiledProgram, ob: &ObjectBase, goal: &Goal) -> QueryAnswers {
        let outcome = run_compiled(compiled, &EngineConfig::default(), ob.clone()).unwrap();
        match_goal(outcome.result(), goal)
    }

    fn answers(compiled: &CompiledProgram, ob: &ObjectBase, goal_src: &str) -> QueryAnswers {
        let plan = plan_query(compiled, Goal::parse(goal_src).unwrap());
        run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap()
    }

    const BOSS_CHAIN: &str = "chief: ins[X].chief -> B <= X.boss -> B.
         step: ins[X].chief -> C <= ins(X).chief -> B & B.boss -> C.";

    const BOSS_BASE: &str = "e0.isa -> empl.
         e1.isa -> empl / boss -> e0.
         e2.isa -> empl / boss -> e1.
         e3.isa -> empl / boss -> e2.
         e4.isa -> empl / boss -> e0.";

    #[test]
    fn point_query_is_seeded_and_matches_oracle() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        let goal = Goal::parse("?- ins(e3).chief -> C.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Seeded, "reason: {:?}", plan.reason());
        let (guards, goal_demand) = plan.seeded().unwrap();
        assert_eq!(goal_demand.seeds, vec![ruvo_term::oid("e3")]);
        // The self-recursive step rule needs no SIP edges: its derived
        // read targets its own head object, and B.boss is
        // base-complete.
        assert!(guards.demand.seeds.is_empty() && guards.demand.rules.is_empty());
        assert!(goal_demand.rules.is_empty(), "{}", plan.describe());
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        // e3's chiefs: e2, e1, e0.
        assert_eq!(got.rows.len(), 3);
    }

    #[test]
    fn seeded_run_does_not_derive_undemanded_objects() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        let plan = plan_query(&c, Goal::parse("?- ins(e1).chief -> C.").unwrap());
        assert_eq!(plan.mode(), QueryMode::Seeded);
        let (guards, goal_demand) = plan.seeded().unwrap();
        let demanded = demand_fixpoint([goal_demand, &guards.demand], &ob);
        assert_eq!(demanded.len(), 1, "only the queried object is demanded");
        // And the guarded run must leave e2..e4 underived.
        let mut work = ob.clone();
        for c in demanded {
            work.insert(Vid::object(c), guards.magic, Args::empty(), int(1));
        }
        let outcome = run_compiled(plan.program(), &EngineConfig::default(), work).unwrap();
        let ins_e3 = Vid::object(ruvo_term::oid("e3")).apply(ruvo_term::UpdateKind::Ins).unwrap();
        assert!(
            outcome.result().apps(ins_e3, sym("chief")).next().is_none(),
            "undemanded e3 must not be derived"
        );
    }

    #[test]
    fn free_goal_over_derived_relation_falls_back_to_pruned() {
        // The goal target is a variable not bound by base-complete
        // literals: seeding is unjustified, pruning still applies.
        // (`other` must write a different *chain* to be prunable:
        // relevance is chain-granular, because creating a version
        // copies every method of its source.)
        let src = "chief: ins[X].chief -> B <= X.boss -> B.
             other: ins[mod(X)].par -> P <= X.parent -> P.";
        let c = compiled(src);
        let ob = prepared(BOSS_BASE);
        let goal = Goal::parse("?- ins(X).chief -> e0.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Pruned, "{}", plan.describe());
        // The unrelated `other` rule is pruned away.
        assert_eq!(plan.kept_rules(), &[0]);
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
    }

    #[test]
    fn free_goal_with_base_bound_target_sweeps() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        // X is bound by the base-complete X.isa -> empl: a sweep
        // demand rule enumerates every employee, keeping Seeded mode.
        let goal = Goal::parse("?- X.isa -> empl & ins(X).chief -> e0.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        assert_eq!(got.rows.len(), 4, "e1..e4 all reach e0");
    }

    #[test]
    fn demanding_a_missing_object_runs_the_pruned_program() {
        // `ghost` is demanded but not in the base. A magic fact would
        // make it exist, so `real` (which reads `exists`) and `gone`
        // (whose `del[X].*` expands `v*`) would see it; full evaluation
        // never does.
        let ins = compiled(
            "seen: ins[X].seen -> 1 <= y.ref -> X.
             real: ins[X].real -> 1 <= y.ref -> X & X.exists -> X.",
        );
        let gone = compiled("gone: del[X].* <= y.ref -> X.");
        let ob = prepared("y.ref -> ghost. y.ref -> e0. e0.p -> 1.");
        for (c, goal_src, holds) in [
            (&ins, "?- ins(ghost).seen -> S.", true),
            (&ins, "?- ins(ghost).real -> R.", false),
            (&ins, "?- ins(e0).real -> R.", true),
            (&gone, "?- del(ghost).exists -> G.", false),
            (&gone, "?- del(e0).exists -> G.", true),
        ] {
            let goal = Goal::parse(goal_src).unwrap();
            let plan = plan_query(c, goal.clone());
            assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
            let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
            assert_eq!(got, oracle(c, &ob, &goal), "goal: {goal_src}");
            assert_eq!(got.holds(), holds, "goal: {goal_src}");
        }
    }

    #[test]
    fn vid_variable_program_falls_back_to_full() {
        let c = compiled("audit: ins[log].saw -> O <= $V.exists -> O.");
        let plan = plan_query(&c, Goal::parse("?- ins(log).saw -> O.").unwrap());
        assert_eq!(plan.mode(), QueryMode::Full);
        assert!(plan.reason().unwrap().contains("$V"), "{:?}", plan.reason());
    }

    #[test]
    fn base_only_goal_prunes_everything() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        // The goal reads only ε relations: no rule is relevant.
        let goal = Goal::parse("?- e2.boss -> B.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Pruned);
        assert!(plan.kept_rules().is_empty());
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        assert_eq!(got.rows, vec![vec![ruvo_term::oid("e1")]]);
    }

    #[test]
    fn ground_goal_answers_yes_no() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        let yes = answers(&c, &ob, "?- ins(e2).chief -> e0.");
        assert!(yes.holds());
        assert_eq!(yes.to_string(), "yes");
        let no = answers(&c, &ob, "?- ins(e2).chief -> e3.");
        assert!(!no.holds());
        assert_eq!(no.to_string(), "no");
    }

    #[test]
    fn enterprise_point_query_matches_oracle() {
        let src = "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
             rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.";
        let c = compiled(src);
        let ob = prepared(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
        );
        for goal_src in ["?- mod(phil).sal -> S.", "?- mod[bob].sal -> (S, S2)."] {
            let goal = Goal::parse(goal_src).unwrap();
            let plan = plan_query(&c, goal.clone());
            assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
            let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
            assert_eq!(got, oracle(&c, &ob, &goal), "goal: {goal_src}");
            assert!(got.holds(), "goal: {goal_src}");
        }
    }

    #[test]
    fn derived_bound_variable_falls_back() {
        // rule3-style: the body reads another object's *derived*
        // relation through B, and B is only bound by derived
        // literals: seeding cannot be justified.
        let src = "r1: ins[E].hot -> 1 <= ins(E).mark -> B & ins(B).mark -> x.
             r2: ins[E].mark -> M <= E.src -> M.";
        let c = compiled(src);
        let plan = plan_query(&c, Goal::parse("?- ins(e1).hot -> 1.").unwrap());
        // B is bound only by a derived literal: no seeding. Both
        // rules are relevant, so pruning degenerates to Full.
        assert_eq!(plan.mode(), QueryMode::Full, "{}", plan.describe());
        assert!(plan.reason().unwrap().contains("not bound"), "{:?}", plan.reason());
    }

    #[test]
    fn sip_edge_demands_other_object() {
        // r reads B's derived relation, and B is bound by the
        // base-complete E.boss -> B: a SIP edge demands B from E.
        let src = "lift: ins[E].bosschief -> C <= E.boss -> B & ins(B).chief -> C.
             chief: ins[X].chief -> B <= X.boss -> B.
             step: ins[X].chief -> C <= ins(X).chief -> B & B.boss -> C.";
        let c = compiled(src);
        let ob = prepared(BOSS_BASE);
        let goal = Goal::parse("?- ins(e3).bosschief -> C.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
        let (guards, goal_demand) = plan.seeded().unwrap();
        // The SIP edge is the lift rule's, so it lives in the kept set's
        // entry; the goal adds only its seed.
        assert!(goal_demand.rules.is_empty());
        assert_eq!(guards.demand.rules.len(), 1);
        assert!(guards.demand.rules[0].x.is_some(), "the demand edge is conditioned on E");
        let demanded = demand_fixpoint([goal_demand, &guards.demand], &ob);
        assert!(demanded.contains(&ruvo_term::oid("e2")), "e3's boss is demanded");
        assert!(!demanded.contains(&ruvo_term::oid("e4")), "unrelated e4 is not");
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        assert_eq!(got.rows.len(), 2, "e2's chiefs: e1, e0");
    }

    #[test]
    fn guard_preserves_stratification_shape() {
        let src = "rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
             rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.";
        let c = compiled(src);
        let plan = plan_query(&c, Goal::parse("?- ins(mod(phil)).isa -> hpe.").unwrap());
        assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
        assert_eq!(
            plan.program().stratification().strata.len(),
            c.stratification().strata.len(),
            "magic guards must not add stratification edges"
        );
    }

    #[test]
    fn negated_derived_goal_literal_seeds_its_target() {
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        let goal = Goal::parse("?- e4.boss -> B & not ins(e4).chief -> e1.").unwrap();
        let plan = plan_query(&c, goal.clone());
        assert_eq!(plan.mode(), QueryMode::Seeded, "{}", plan.describe());
        let got = run_query(&plan, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        assert!(got.holds(), "e4's chief chain is just e0, so the negation holds");
    }

    #[test]
    fn magic_name_avoids_vocabulary_collisions() {
        let src = "r: ins[X].'?demand' -> B <= X.boss -> B.";
        let c = compiled(src);
        let plan = plan_query(&c, Goal::parse("?- ins(e1).'?demand' -> B.").unwrap());
        assert_eq!(plan.mode(), QueryMode::Seeded);
        let magic = plan.seeded().unwrap().0.magic;
        assert_ne!(magic.as_str(), "?demand");
        // And the rewritten program text still round-trips.
        let text = plan.program().source_text();
        let reparsed = Program::parse(&text).unwrap();
        assert_eq!(&reparsed, plan.program().program());
    }

    #[test]
    fn goals_with_one_kept_set_share_one_compiled_rewrite() {
        let c = compiled(
            "lift: ins[mod(E)].bosschief -> C <= E.boss -> B & ins(B).chief -> C.
             chief: ins[X].chief -> B <= X.boss -> B.
             step: ins[X].chief -> C <= ins(X).chief -> B & B.boss -> C.",
        );
        let plan = |src: &str| plan_query(&c, Goal::parse(src).unwrap());
        let e3 = plan("?- ins(e3).chief -> C.");
        let e1 = plan("?- ins(e1).chief -> e0.");
        assert_eq!((e3.mode(), e1.mode()), (QueryMode::Seeded, QueryMode::Seeded));
        assert_eq!(e3.kept_rules(), e1.kept_rules());
        assert!(Arc::ptr_eq(&e3.rewrite, &e1.rewrite), "other constants, one entry");
        assert!(Arc::ptr_eq(e3.program(), e1.program()), "so the same rewrite");
        assert_ne!(e3.seeded().unwrap().1.seeds, e1.seeded().unwrap().1.seeds, "seeds per goal");

        // The lift goals keep one more rule: another entry, whose SIP
        // demand rule both goals read from it.
        let (lift3, lift1) =
            (plan("?- ins(mod(e3)).bosschief -> C."), plan("?- ins(mod(e1)).bosschief -> C."));
        assert_eq!((lift3.mode(), lift1.mode()), (QueryMode::Seeded, QueryMode::Seeded));
        assert_ne!(lift3.kept_rules(), e3.kept_rules());
        assert!(!Arc::ptr_eq(lift3.program(), e3.program()));
        assert!(Arc::ptr_eq(&lift3.rewrite, &lift1.rewrite));
        let (demand3, demand1) =
            (&lift3.seeded().unwrap().0.demand, &lift1.seeded().unwrap().0.demand);
        assert_eq!(demand3.rules.len(), 1);
        assert!(std::ptr::eq(demand3, demand1), "one set of demand rules per kept set");
        // A goal the guards cannot serve runs the kept rules unguarded:
        // the seeded plans' fallback, not a new compile.
        let free = plan("?- ins(X).chief -> e0.");
        assert_eq!((free.mode(), free.kept_rules()), (QueryMode::Pruned, e3.kept_rules()));
        assert!(Arc::ptr_eq(free.program(), &e3.rewrite.pruned));
        // Full plans share the program's one unguarded copy.
        let audit = compiled("audit: ins[log].saw -> O <= $V.exists -> O.");
        let full = |src: &str| plan_query(&audit, Goal::parse(src).unwrap());
        let (a, b) = (full("?- ins(log).saw -> O."), full("?- ins(log).saw -> e1."));
        assert_eq!((a.mode(), b.mode()), (QueryMode::Full, QueryMode::Full));
        assert!(Arc::ptr_eq(a.program(), b.program()));
    }

    #[test]
    fn a_goal_naming_the_magic_method_runs_the_pruned_program() {
        // Same kept rules as `?- ins(e3).chief -> C.`, but the goal reads
        // `?demand` itself: guards on that name would put a fact under
        // it, and the negation would fail. The entry's magic name is
        // chosen against the kept rules alone, so this goal runs them
        // unguarded. (`other` keeps the kept set a strict subset: with
        // every rule kept, the unguarded program is the `Full` mode.)
        let c = compiled(&format!("{BOSS_CHAIN} other: ins[mod(X)].par -> P <= X.parent -> P."));
        let ob = prepared(BOSS_BASE);
        let plain = plan_query(&c, Goal::parse("?- ins(e3).chief -> C.").unwrap());
        let goal = Goal::parse("?- ins(e3).chief -> C & not e3.'?demand' -> 1.").unwrap();
        let naming = plan_query(&c, goal.clone());
        assert_eq!((plain.mode(), naming.mode()), (QueryMode::Seeded, QueryMode::Pruned));
        assert!(naming.reason().unwrap().contains("magic method"), "{:?}", naming.reason());
        assert_eq!(plain.kept_rules(), naming.kept_rules());
        assert!(Arc::ptr_eq(naming.program(), &plain.rewrite.pruned));
        let got = run_query(&naming, &EngineConfig::default(), ob.clone()).unwrap();
        assert_eq!(got, oracle(&c, &ob, &goal));
        assert_eq!(got.rows.len(), 3, "e3's chiefs: e2, e1, e0");
    }

    #[test]
    fn rewritten_program_roundtrips_through_source_text() {
        let c = compiled(BOSS_CHAIN);
        let plan = plan_query(&c, Goal::parse("?- ins(e3).chief -> C.").unwrap());
        let text = plan.program().source_text();
        let reparsed = Program::parse(&text)
            .unwrap_or_else(|e| panic!("rewritten source failed to re-parse: {e}\n{text}"));
        assert_eq!(&reparsed, plan.program().program());
    }

    #[test]
    fn describe_names_mode_and_seeds() {
        let c = compiled(BOSS_CHAIN);
        let plan = plan_query(&c, Goal::parse("?- ins(e3).chief -> C.").unwrap());
        let d = plan.describe();
        assert!(d.contains("mode: seeded"), "{d}");
        assert!(d.contains("seeds: [e3]"), "{d}");
        assert!(d.contains("'?demand'"), "{d}");
    }
}
