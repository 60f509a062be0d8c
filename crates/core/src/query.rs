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
//! A rewritten program depends on which rules the goal keeps and on the
//! magic method name, never on the goal's constants, so each one is
//! compiled once per [`CompiledProgram`] and shared by every plan that
//! needs it (`Rewrites`). What stays per goal is the analysis:
//! relevance, the seeds and demand rules, and the goal's own index
//! plan.

use std::fmt;
use std::sync::{Arc, RwLock};

use ruvo_lang::pretty::{const_str, literal_str};
use ruvo_lang::{Atom, Goal, Literal, Program, Rule, VersionAtom};
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{
    int, sym, BaseTerm, Chain, Const, FastHashMap, FastHashSet, Symbol, VarId, Vid, VidRef, VidTerm,
};

use crate::engine::{run_compiled, CompiledProgram, EngineConfig};
use crate::error::EvalError;
use crate::matcher::for_each_match;
use crate::plan::{literal_reads, IndexPlan, RuleIndexPlan};

/// The base name of the magic (demand) method; uniquified against the
/// program's and goal's method vocabulary before use.
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

/// The seeding half of a [`QueryPlan`] (present in
/// [`QueryMode::Seeded`] only).
struct SeedPlan {
    /// The fresh magic method the guards read.
    magic: Symbol,
    /// Statically demanded objects: the constant targets of derived
    /// literals in the goal and in kept rules.
    seeds: Vec<Const>,
    /// Demand-propagation rules, evaluated over the input base.
    demands: Vec<DemandRule>,
    /// The kept rules, unguarded: what [`run_query`] runs when a
    /// demanded object is missing from the base.
    pruned: Arc<CompiledProgram>,
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
    exec: Arc<CompiledProgram>,
    seeding: Option<SeedPlan>,
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
    /// set and magic method, and shared with every plan of the same
    /// [`CompiledProgram`] that keeps the same rules.
    pub fn program(&self) -> &Arc<CompiledProgram> {
        &self.exec
    }

    /// Indices (into the original program) of the rules the plan kept.
    pub fn kept_rules(&self) -> &[usize] {
        &self.kept
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
        for rule in &self.exec.program().rules {
            let _ = writeln!(s, "  {rule}");
        }
        if let Some(seeding) = &self.seeding {
            let _ = writeln!(s, "magic method: {}", ruvo_lang::pretty::symbol_str(seeding.magic));
            let rendered: Vec<String> = seeding.seeds.iter().map(|&c| const_str(c)).collect();
            let _ = writeln!(s, "seeds: [{}]", rendered.join(", "));
            for d in &seeding.demands {
                let vars = d.body.vars();
                let lits: Vec<String> = d
                    .body
                    .body()
                    .iter()
                    .map(|lit| literal_str(lit, vars, &ruvo_lang::VarTable::new()))
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
/// mode. Compiles nothing once `compiled` has served a goal with the
/// same kept rules: the rewritten programs come from its table of
/// compiled rewrites.
pub fn plan_query(compiled: &CompiledProgram, goal: Goal) -> QueryPlan {
    let program = compiled.program();
    let goal_plan = goal_index_plan(&goal);
    let rel = relevance(program, &goal);
    if rel.vid_rule {
        let reason =
            "a relevant rule reads through a VID variable ($V), which can touch any version"
                .to_owned();
        return full_plan(compiled, goal, goal_plan, Some(reason));
    }
    let pruned = match compiled.rewrites.get_or_compile(compiled, &rel.kept, None) {
        Ok(pruned) => pruned,
        // A rule subset keeps a subset of the stratification
        // constraints, so this cannot fail in practice; degrade
        // gracefully anyway.
        Err(reason) => return full_plan(compiled, goal, goal_plan, Some(reason)),
    };
    let created: FastHashSet<Chain> =
        rel.kept.iter().map(|&i| program.rules[i].head.created_term().chain).collect();
    let seeded = seeding(program, &goal, &rel.kept, &created, Arc::clone(&pruned)).and_then(|s| {
        Ok((compiled.rewrites.get_or_compile(compiled, &rel.kept, Some(s.magic))?, s))
    });
    let (mode, reason, exec, seeding) = match seeded {
        Ok((exec, seeding)) => (QueryMode::Seeded, None, exec, Some(seeding)),
        Err(reason) if rel.kept.len() == program.rules.len() => {
            return full_plan(compiled, goal, goal_plan, Some(reason));
        }
        Err(reason) => (QueryMode::Pruned, Some(reason), pruned, None),
    };
    QueryPlan {
        goal,
        goal_plan,
        mode,
        reason,
        kept: rel.kept,
        total_rules: program.rules.len(),
        exec,
        seeding,
    }
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
    let mut exec = &plan.exec;
    if let Some(seeding) = &plan.seeding {
        let demanded = demand_fixpoint(seeding, &work);
        if demanded.iter().all(|&c| work.exists_fact(Vid::object(c))) {
            for c in demanded {
                work.insert(Vid::object(c), seeding.magic, Args::empty(), int(1));
            }
        } else {
            exec = &seeding.pruned;
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
    let plan = goal_index_plan(goal);
    match_goal_planned(ob, goal, &plan)
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

fn goal_index_plan(goal: &Goal) -> RuleIndexPlan {
    let program = Program { rules: vec![goal.as_rule().clone()] };
    IndexPlan::of(&program).rules.remove(0)
}

fn full_plan(
    compiled: &CompiledProgram,
    goal: Goal,
    goal_plan: RuleIndexPlan,
    reason: Option<String>,
) -> QueryPlan {
    let total = compiled.program().rules.len();
    let kept: Vec<usize> = (0..total).collect();
    let exec = compiled
        .rewrites
        .get_or_compile(compiled, &kept, None)
        .expect("every rule, unguarded, is the program itself, which compiled under this policy");
    QueryPlan {
        goal,
        goal_plan,
        mode: QueryMode::Full,
        reason,
        kept,
        total_rules: total,
        exec,
        seeding: None,
    }
}

/// What a rewrite compiled to, or why it failed to.
type Rewrite = Result<Arc<CompiledProgram>, String>;

/// The rewrites of one magic name, by kept-rule set.
type ByKept = FastHashMap<Box<[usize]>, Rewrite>;

/// The compiled rewrites of one [`CompiledProgram`], keyed by exactly
/// what a rewrite reads: the magic method of its guards (`None` for the
/// unguarded kept rules) and the indices of the rules it keeps. The
/// goal's constants only choose the seeds, so two goals with the same
/// kept rules share one compiled rewrite. A failed compile is kept too,
/// so its fallback costs no compile either.
///
/// Entries are never evicted: the table holds one entry per distinct
/// kept-rule set the goals asked so far produced (a subset of the
/// program's rules, so up to 2^rules of them) and magic name, and goals
/// with one kept set get different magic names only when they
/// themselves name `?demand…` methods (ARCHITECTURE.md, decision D9).
#[derive(Debug, Default)]
pub(crate) struct Rewrites {
    table: RwLock<FastHashMap<Option<Symbol>, ByKept>>,
}

impl Rewrites {
    /// The rewrite of `compiled` (whose table this is) keeping `kept`
    /// and guarded by `magic`. A miss compiles outside the lock; when
    /// two threads race on one key, both get the first one inserted.
    /// A poisoned lock is used as is: the only write inserts a finished
    /// entry, so a panic elsewhere cannot leave the table half-updated.
    fn get_or_compile(
        &self,
        compiled: &CompiledProgram,
        kept: &[usize],
        magic: Option<Symbol>,
    ) -> Rewrite {
        let table = self.table.read().unwrap_or_else(|e| e.into_inner());
        if let Some(hit) = table.get(&magic).and_then(|by_kept| by_kept.get(kept)) {
            return hit.clone();
        }
        drop(table);
        let program = match magic {
            Some(magic) => guarded_program(compiled.program(), kept, magic),
            None => Ok(kept_program(compiled.program(), kept)),
        };
        let built = program.and_then(|p| {
            CompiledProgram::compile(p, compiled.cycle_policy())
                .map(Arc::new)
                .map_err(|e| format!("rewritten program failed to stratify: {e}"))
        });
        let mut table = self.table.write().unwrap_or_else(|e| e.into_inner());
        table.entry(magic).or_default().entry(kept.into()).or_insert(built).clone()
    }
}

/// A copy of a compiled program starts with no rewrites of its own.
impl Clone for Rewrites {
    fn clone(&self) -> Rewrites {
        Rewrites::default()
    }
}

/// The rules of `program` at `kept`, in order.
fn kept_program(program: &Program, kept: &[usize]) -> Program {
    Program { rules: kept.iter().map(|&i| program.rules[i].clone()).collect() }
}

/// The result of the relevance closure.
struct Relevance {
    /// Indices of relevant rules, in original order.
    kept: Vec<usize>,
    /// A relevant rule reads through a VID variable.
    vid_rule: bool,
}

/// Chain-granularity relevance: a rule is relevant iff the chain it
/// creates is demanded; demanding a rule demands everything its body
/// reads plus every prefix of its created chain (copy sources).
fn relevance(program: &Program, goal: &Goal) -> Relevance {
    let mut demanded: FastHashSet<Chain> = FastHashSet::default();
    for lit in goal.body() {
        let reads = literal_reads(lit).expect("goals reject VID variables");
        demanded.extend(reads.into_iter().map(|(c, _)| c));
    }
    let mut kept = vec![false; program.rules.len()];
    let mut vid_rule = false;
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
                    None => {
                        // A $V atom reads every relation: from here on
                        // every rule is relevant.
                        vid_rule = true;
                        all_chains = true;
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    let kept: Vec<usize> = (0..program.rules.len()).filter(|&i| kept[i]).collect();
    Relevance { kept, vid_rule }
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

/// A fresh method name absent from the program's and goal's method
/// vocabulary, so the guards read a relation nothing else reads or
/// writes.
fn fresh_magic(program: &Program, kept: &[usize], goal: &Goal) -> Symbol {
    let mut vocab: FastHashSet<Symbol> = FastHashSet::default();
    fn add_atom(vocab: &mut FastHashSet<Symbol>, atom: &Atom) {
        match atom {
            Atom::Version(va) => {
                vocab.insert(va.method);
            }
            Atom::Update(ua) => {
                if let Some(m) = ua.spec.method() {
                    vocab.insert(m);
                }
            }
            Atom::Cmp(_) => {}
        }
    }
    for &i in kept {
        let rule = &program.rules[i];
        if let Some(m) = rule.head.spec.method() {
            vocab.insert(m);
        }
        for lit in &rule.body {
            add_atom(&mut vocab, &lit.atom);
        }
    }
    for lit in goal.body() {
        add_atom(&mut vocab, &lit.atom);
    }
    let mut name = MAGIC_METHOD.to_owned();
    let mut k = 1;
    while vocab.contains(&sym(&name)) {
        k += 1;
        name = format!("{MAGIC_METHOD}#{k}");
    }
    sym(&name)
}

/// The demand analysis: decide where every derived relation a kept
/// rule (or the goal) reads gets its demanded objects from, or report
/// the literal that blocks seeding.
fn seeding(
    program: &Program,
    goal: &Goal,
    kept: &[usize],
    created: &FastHashSet<Chain>,
    pruned: Arc<CompiledProgram>,
) -> Result<SeedPlan, String> {
    if !kept.iter().any(|&i| matches!(program.rules[i].head.target.base, BaseTerm::Var(_))) {
        return Err("every relevant rule has a constant head target — nothing to guard".to_owned());
    }
    let magic = fresh_magic(program, kept, goal);
    let mut seeds: FastHashSet<Const> = FastHashSet::default();
    let mut demands: Vec<DemandRule> = Vec::new();

    let mut analyze = |body: &[Literal],
                       vars: &ruvo_lang::VarTable,
                       head_var: Option<VarId>,
                       what: &str|
     -> Result<(), String> {
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
                BaseTerm::Const(c) => {
                    seeds.insert(c);
                }
                BaseTerm::Var(v) if Some(v) == head_var => {
                    // Self-read: covered by this rule's own guard.
                }
                BaseTerm::Var(v) if base_vars.contains(&v) => {
                    if !demanded_vars.insert(v) {
                        continue;
                    }
                    let body = Goal::from_body(base_lits.clone(), vars.clone())
                        .map_err(|e| format!("demand rule for {what} is unplannable: {e}"))?;
                    let plan = goal_index_plan(&body);
                    let x = head_var.filter(|h| base_vars.contains(h));
                    demands.push(DemandRule { body, plan, v, x });
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
        Ok(())
    };

    analyze(goal.body(), goal.vars(), None, "the goal")?;
    for &i in kept {
        let rule = &program.rules[i];
        let head_var = rule.head.target.base.as_var();
        let what = match &rule.label {
            Some(l) => format!("rule {l}"),
            None => format!("rule #{i}"),
        };
        analyze(&rule.body, &rule.vars, head_var, &what)?;
    }

    let mut seeds: Vec<Const> = seeds.into_iter().collect();
    seeds.sort();
    Ok(SeedPlan { magic, seeds, demands, pruned })
}

/// The kept rules with magic guards prepended to every variable-headed
/// rule. Constant-headed rules run unguarded (they fire at most once
/// per body match and write a statically known object).
fn guarded_program(program: &Program, kept: &[usize], magic: Symbol) -> Result<Program, String> {
    let mut rules = Vec::with_capacity(kept.len());
    for &i in kept {
        let rule = &program.rules[i];
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
                let guarded =
                    Rule::new(rule.head.clone(), body, rule.vars.clone(), rule.label.clone())
                        .map_err(|e| format!("guarding a rule broke its safety plan: {e}"))?;
                rules.push(guarded);
            }
            BaseTerm::Const(_) => rules.push(rule.clone()),
        }
    }
    Ok(Program { rules })
}

/// Close the demanded-object set over the demand rules, evaluated
/// against the (magic-free) input base. Each demand rule is
/// evaluated once — its base-complete body never changes — and the
/// conditional (SIP) edges iterate to fixpoint.
fn demand_fixpoint(seeding: &SeedPlan, base: &ObjectBase) -> FastHashSet<Const> {
    let mut demanded: FastHashSet<Const> = seeding.seeds.iter().copied().collect();
    let mut edges: Vec<(Const, Const)> = Vec::new();
    for d in &seeding.demands {
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
        let seeding = plan.seeding.as_ref().unwrap();
        assert_eq!(seeding.seeds, vec![ruvo_term::oid("e3")]);
        // The self-recursive step rule needs no SIP edges: its derived
        // read targets its own head object, and B.boss is
        // base-complete.
        assert!(seeding.demands.is_empty(), "{}", plan.describe());
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
        let seeding = plan.seeding.as_ref().unwrap();
        let demanded = demand_fixpoint(seeding, &ob);
        assert_eq!(demanded.len(), 1, "only the queried object is demanded");
        // And the guarded run must leave e2..e4 underived.
        let mut work = ob.clone();
        for c in demanded {
            work.insert(Vid::object(c), seeding.magic, Args::empty(), int(1));
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
        let seeding = plan.seeding.as_ref().unwrap();
        assert_eq!(seeding.demands.len(), 1);
        assert!(seeding.demands[0].x.is_some(), "the demand edge is conditioned on E");
        let demanded = demand_fixpoint(seeding, &ob);
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
        let magic = plan.seeding.as_ref().unwrap().magic;
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
        assert!(Arc::ptr_eq(e3.program(), e1.program()), "other constants, same rewrite");
        let (s3, s1) = (e3.seeding.as_ref().unwrap(), e1.seeding.as_ref().unwrap());
        assert!(Arc::ptr_eq(&s3.pruned, &s1.pruned), "and the same pruned fallback");
        assert_ne!(s3.seeds, s1.seeds, "the seeds stay per goal");

        // The lift goal keeps one more rule: another rewrite.
        let lift = plan("?- ins(mod(e3)).bosschief -> C.");
        assert_eq!(lift.mode(), QueryMode::Seeded);
        assert_ne!(lift.kept_rules(), e3.kept_rules());
        assert!(!Arc::ptr_eq(lift.program(), e3.program()));
        // A goal the guards cannot serve runs the kept rules unguarded:
        // the seeded plans' fallback, not a new compile.
        let free = plan("?- ins(X).chief -> e0.");
        assert_eq!((free.mode(), free.kept_rules()), (QueryMode::Pruned, e3.kept_rules()));
        assert!(Arc::ptr_eq(free.program(), &s3.pruned));
        // Full plans share the program's one unguarded copy.
        let audit = compiled("audit: ins[log].saw -> O <= $V.exists -> O.");
        let full = |src: &str| plan_query(&audit, Goal::parse(src).unwrap());
        let (a, b) = (full("?- ins(log).saw -> O."), full("?- ins(log).saw -> e1."));
        assert_eq!((a.mode(), b.mode()), (QueryMode::Full, QueryMode::Full));
        assert!(Arc::ptr_eq(a.program(), b.program()));
    }

    #[test]
    fn a_goal_naming_the_magic_method_gets_its_own_rewrite() {
        // Same kept rules as `?- ins(e3).chief -> C.`, but the goal reads
        // `?demand` itself: guards on that name would put a fact under
        // it, and the negation would fail.
        let c = compiled(BOSS_CHAIN);
        let ob = prepared(BOSS_BASE);
        let plain = plan_query(&c, Goal::parse("?- ins(e3).chief -> C.").unwrap());
        let goal = Goal::parse("?- ins(e3).chief -> C & not e3.'?demand' -> 1.").unwrap();
        let naming = plan_query(&c, goal.clone());
        assert_eq!((plain.mode(), naming.mode()), (QueryMode::Seeded, QueryMode::Seeded));
        assert_eq!(plain.kept_rules(), naming.kept_rules());
        assert_ne!(plain.seeding.as_ref().unwrap().magic, naming.seeding.as_ref().unwrap().magic);
        assert!(!Arc::ptr_eq(plain.program(), naming.program()));
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
