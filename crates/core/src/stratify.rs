//! Stratification (§4).
//!
//! "A solution to these problems can be achieved by a stratification of
//! the rules in P. … bottom-up evaluation then is done stratum by
//! stratum." For the derivation, "we replace in the given program P
//! each construct `[V]` by `(V)`" — i.e. update-terms contribute the
//! version-id-term of the version they create.
//!
//! The four conditions generate ordering constraints between rules
//! (`r' < r` strict, `r' ≤ r` non-strict), where `H'` is the head
//! version-id-term (created version) of rule `r'`:
//!
//! * **(a)** head `φ(V)` of `r`: every `r'` with `H'` unifying with a
//!   subterm of `V` is strictly lower. (Once a state is copied it must
//!   not change any further.)
//! * **(b)** positive body term `V` of `r`: every `r'` with `H'`
//!   unifying with a subterm of `V` is at most as high.
//! * **(c)** negated body term `V` of `r`: every such `r'` is strictly
//!   lower (stratified negation).
//! * **(d)** body term containing `del(V)` / `mod(V)`: every `r'` whose
//!   head is `del(V')` / `mod(V')` with `V`, `V'` unifiable is strictly
//!   lower. (A version must not be read while deletions/modifications
//!   on it may still fire.) We apply (d) to every `del`/`mod`-rooted
//!   *subterm* of body terms — conservative w.r.t. the paper's wording,
//!   and required for soundness when such terms are nested (e.g.
//!   `ins(del(mod(E)))` reads a state copied from `del(mod(E))`).
//!
//! Unification of version-id-terms is chain-exact because variables
//! range over OIDs only (ARCHITECTURE.md, decision D2); this
//! reproduces the paper's own strata for its running examples, e.g.
//! `{rule1, rule2} < {rule3} < {rule4}` for the §2.3 enterprise update.

use std::fmt;

use ruvo_lang::Program;
use ruvo_term::{FastHashSet, UpdateKind, VidTerm};

/// Which §4 condition generated an edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// Copied-state protection (head subterms).
    A,
    /// Positive body dependency.
    B,
    /// Stratified negation.
    C,
    /// Delete/modify visibility.
    D,
}

impl Condition {
    /// Strictness implied by the condition.
    pub fn strict(self) -> bool {
        !matches!(self, Condition::B)
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Condition::A => "a",
            Condition::B => "b",
            Condition::C => "c",
            Condition::D => "d",
        };
        write!(f, "({c})")
    }
}

/// One ordering constraint `from ≤ to` or `from < to` between rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EdgeInfo {
    /// Lower rule (index into the program).
    pub from: usize,
    /// Higher rule.
    pub to: usize,
    /// True for `<`, false for `≤`.
    pub strict: bool,
    /// The generating condition.
    pub condition: Condition,
}

/// A computed stratification.
#[derive(Clone, Debug)]
pub struct Stratification {
    /// Rule indices per stratum, lowest first; indices are sorted
    /// within each stratum.
    pub strata: Vec<Vec<usize>>,
    /// All generated constraints (for explanation/reporting).
    pub edges: Vec<EdgeInfo>,
    /// Display names of the rules (labels or `rule<i>`).
    pub rule_names: Vec<String>,
}

impl Stratification {
    /// The stratum index of a rule.
    pub fn stratum_of(&self, rule: usize) -> usize {
        self.strata.iter().position(|s| s.contains(&rule)).expect("rule index out of range")
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// True for an empty program.
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }
}

impl fmt::Display for Stratification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, stratum) in self.strata.iter().enumerate() {
            if i > 0 {
                write!(f, " < ")?;
            }
            write!(f, "{{")?;
            for (j, &r) in stratum.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.rule_names[r])?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// The program admits no stratification: a strict constraint lies on a
/// dependency cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StratifyError {
    /// The rules of the offending strongly connected component.
    pub cycle: Vec<String>,
    /// The strict edge inside it.
    pub strict_edge: (String, String),
    /// The condition that generated the strict edge.
    pub condition: Condition,
}

impl fmt::Display for StratifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "program is not stratifiable: rules {{{}}} are mutually dependent but condition {} \
             requires {} to be in a strictly lower stratum than {}",
            self.cycle.join(", "),
            self.condition,
            self.strict_edge.0,
            self.strict_edge.1
        )
    }
}

impl std::error::Error for StratifyError {}

/// Compute all §4 constraints for `program`.
pub fn edges(program: &Program) -> Vec<EdgeInfo> {
    let n = program.rules.len();
    // Heads after the [V] → (V) rewrite, and bracketed targets.
    let created: Vec<VidTerm> = program.rules.iter().map(|r| r.head.created_term()).collect();
    let targets: Vec<VidTerm> = program.rules.iter().map(|r| r.head.target).collect();
    let bodies: Vec<Vec<(VidTerm, bool)>> =
        program.rules.iter().map(|r| r.body_vid_terms()).collect();

    let mut set: FastHashSet<EdgeInfo> = FastHashSet::default();
    let mut push = |from: usize, to: usize, condition: Condition| {
        set.insert(EdgeInfo { from, to, strict: condition.strict(), condition });
    };

    for r in 0..n {
        // (a): rules whose head unifies with a subterm of the head's
        // bracketed target.
        for (rp, &created_rp) in created.iter().enumerate() {
            if targets[r].subterm_unifies(created_rp) {
                push(rp, r, Condition::A);
            }
        }
        for &(body_term, negated) in &bodies[r] {
            // (b)/(c): rules whose head unifies with a subterm of a
            // body version-id-term.
            for (rp, &created_rp) in created.iter().enumerate() {
                if body_term.subterm_unifies(created_rp) {
                    push(rp, r, if negated { Condition::C } else { Condition::B });
                }
            }
            // (d): del/mod-rooted subterms of body terms.
            for sub in body_term.subterm_terms() {
                let Some((inner, kind)) = sub.unapply() else { continue };
                if !matches!(kind, UpdateKind::Del | UpdateKind::Mod) {
                    continue;
                }
                for (rp, other) in program.rules.iter().enumerate() {
                    if other.head.spec.kind() == kind && inner.unifiable(targets[rp]) {
                        push(rp, r, Condition::D);
                    }
                }
            }
        }
        // §6 extension: a VID-variable atom (`$V.m -> R`) can denote
        // *any* version, so it conservatively unifies with a subterm of
        // every head — (b)/(c) edges from every rule, plus (d) edges
        // from every del-/mod-head rule (the version $V denotes may be
        // one such rules are still shrinking).
        for negated in program.rules[r].body_vid_wildcards() {
            for (rp, other) in program.rules.iter().enumerate() {
                push(rp, r, if negated { Condition::C } else { Condition::B });
                if matches!(other.head.spec.kind(), UpdateKind::Del | UpdateKind::Mod) {
                    push(rp, r, Condition::D);
                }
            }
        }
    }

    let mut edges: Vec<EdgeInfo> = set.into_iter().collect();
    edges.sort_by_key(|e| (e.from, e.to, e.condition));
    edges
}

/// Compute a stratification satisfying (a)–(d), or explain why none
/// exists.
pub fn stratify(program: &Program) -> Result<Stratification, StratifyError> {
    stratify_impl(program, false).map(|(s, _)| s)
}

/// A stratification that tolerates strict-edge cycles: the offending
/// SCC stays together in one stratum, flagged for the engine's runtime
/// stability check (`CyclePolicy::RuntimeStability`).
///
/// This realizes §6's first future-work item — "develop stratification
/// or related criteria which allow to accept a broader class of
/// programs" — as a *dynamic* criterion: conditions (a)–(d) are
/// sufficient for every fired ground update to stay fired within its
/// stratum, but not necessary; a statically rejected program may still
/// evaluate stably on a given object base. Programs that do pass the
/// static check get the identical stratification (same edges, same
/// SCCs, no flagged strata), so relaxation never changes their result.
#[derive(Clone, Debug)]
pub struct RelaxedStratification {
    /// The stratification (flagged strata keep their SCC together).
    pub stratification: Stratification,
    /// Per stratum: true if it contains a strict edge inside one of its
    /// SCCs, i.e. evaluation must verify firing stability at runtime.
    pub needs_runtime_check: Vec<bool>,
}

/// Compute the relaxed stratification (never fails; see
/// [`RelaxedStratification`]).
pub fn stratify_relaxed(program: &Program) -> RelaxedStratification {
    let (stratification, needs_runtime_check) =
        stratify_impl(program, true).expect("relaxed stratification cannot fail");
    RelaxedStratification { stratification, needs_runtime_check }
}

fn stratify_impl(
    program: &Program,
    allow_cycles: bool,
) -> Result<(Stratification, Vec<bool>), StratifyError> {
    let n = program.rules.len();
    let rule_names: Vec<String> = (0..n).map(|i| program.rule_name(i)).collect();
    let edge_list = edges(program);

    // Strongly connected components over all edges (from → to).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &edge_list {
        if e.from != e.to {
            adj[e.from].push(e.to);
        }
    }
    let scc_of = tarjan_scc(n, &adj);

    // A strict edge inside an SCC (including a strict self-edge) kills
    // static stratifiability; in relaxed mode it flags the SCC instead.
    let num_sccs = scc_of.iter().copied().max().map_or(0, |m| m + 1);
    let mut risky_scc = vec![false; num_sccs];
    for e in &edge_list {
        if e.strict && (e.from == e.to || scc_of[e.from] == scc_of[e.to]) {
            if !allow_cycles {
                let cycle: Vec<String> = (0..n)
                    .filter(|&i| scc_of[i] == scc_of[e.from])
                    .map(|i| rule_names[i].clone())
                    .collect();
                return Err(StratifyError {
                    cycle,
                    strict_edge: (rule_names[e.from].clone(), rule_names[e.to].clone()),
                    condition: e.condition,
                });
            }
            risky_scc[scc_of[e.from]] = true;
        }
    }

    // Longest-path layering over the condensation, counting strict
    // edges as +1.
    let mut cond_adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_sccs]; // (to, weight)
    let mut indegree = vec![0usize; num_sccs];
    let mut seen: FastHashSet<(usize, usize, usize)> = FastHashSet::default();
    for e in &edge_list {
        let (a, b) = (scc_of[e.from], scc_of[e.to]);
        if a != b {
            let w = usize::from(e.strict);
            if seen.insert((a, b, w)) {
                cond_adj[a].push((b, w));
                indegree[b] += 1;
            }
        }
    }
    let mut level = vec![0usize; num_sccs];
    let mut queue: Vec<usize> = (0..num_sccs).filter(|&s| indegree[s] == 0).collect();
    while let Some(s) = queue.pop() {
        for &(t, w) in &cond_adj[s] {
            level[t] = level[t].max(level[s] + w);
            indegree[t] -= 1;
            if indegree[t] == 0 {
                queue.push(t);
            }
        }
    }

    let max_level = (0..n).map(|r| level[scc_of[r]]).max().unwrap_or(0);
    let slots = if n == 0 { 0 } else { max_level + 1 };
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); slots];
    let mut risky: Vec<bool> = vec![false; slots];
    for r in 0..n {
        let l = level[scc_of[r]];
        strata[l].push(r);
        risky[l] |= risky_scc[scc_of[r]];
    }
    let keep: Vec<bool> = strata.iter().map(|s| !s.is_empty()).collect();
    strata.retain(|s| !s.is_empty());
    let risky: Vec<bool> =
        risky.into_iter().zip(keep).filter_map(|(r, k)| k.then_some(r)).collect();
    for s in &mut strata {
        s.sort_unstable();
    }

    Ok((Stratification { strata, edges: edge_list, rule_names }, risky))
}

/// Iterative Tarjan SCC; returns the component id of each node.
/// Component ids are assigned in reverse topological order completion,
/// but callers only rely on equality.
fn tarjan_scc(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![UNVISITED; n];
    let mut next_index = 0usize;
    let mut next_scc = 0usize;

    // Explicit DFS stack: (node, child position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        call.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = next_scc;
                        if w == v {
                            break;
                        }
                    }
                    next_scc += 1;
                }
            }
        }
    }
    scc_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_lang::Program;

    const ENTERPRISE: &str = "
        rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
        rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
        rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
        rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.
    ";

    fn strata_names(src: &str) -> Vec<Vec<String>> {
        let p = Program::parse(src).unwrap();
        let s = stratify(&p).unwrap();
        s.strata.iter().map(|st| st.iter().map(|&r| s.rule_names[r].clone()).collect()).collect()
    }

    #[test]
    fn enterprise_matches_paper() {
        // §4: "{rule1, rule2}, {rule3}, {rule4}".
        assert_eq!(
            strata_names(ENTERPRISE),
            vec![
                vec!["rule1".to_string(), "rule2".to_string()],
                vec!["rule3".to_string()],
                vec!["rule4".to_string()],
            ]
        );
    }

    #[test]
    fn enterprise_display() {
        let p = Program::parse(ENTERPRISE).unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.to_string(), "{rule1, rule2} < {rule3} < {rule4}");
    }

    #[test]
    fn hypothetical_is_a_chain() {
        // §2.3's second example: four strata in a chain.
        let src = "
            rule1: mod[E].sal -> (S, S2) <= E.sal -> S / factor -> F & S2 = S * F.
            rule2: mod[mod(E)].sal -> (S2, S) <= mod(E).sal -> S2 & E.sal -> S.
            rule3: ins[mod(mod(peter))].richest -> no <= mod(E).sal -> SE & mod(peter).sal -> SP & SE > SP.
            rule4: ins[ins(mod(mod(peter)))].richest -> yes <= not ins(mod(mod(peter))).richest -> no.
        ";
        assert_eq!(
            strata_names(src),
            vec![
                vec!["rule1".to_string()],
                vec!["rule2".to_string()],
                vec!["rule3".to_string()],
                vec!["rule4".to_string()],
            ]
        );
    }

    #[test]
    fn ancestors_is_single_stratum() {
        let src = "
            base: ins[X].anc -> P <= X.isa -> person / parents -> P.
            step: ins[X].anc -> P <= ins(X).isa -> person / anc -> A & A.isa -> person / parents -> P.
        ";
        assert_eq!(strata_names(src), vec![vec!["base".to_string(), "step".to_string()]]);
    }

    #[test]
    fn negative_self_dependency_rejected() {
        let err =
            stratify(&Program::parse("ins[X].p -> 1 <= X.q -> 1 & not ins(X).p -> 1.").unwrap())
                .unwrap_err();
        assert_eq!(err.condition, Condition::C);
    }

    #[test]
    fn negation_is_version_granular() {
        // Condition (c) works at version granularity: a rule whose head
        // extends ins(X) while negatively testing ins(X) — even on a
        // *different method* — is already non-stratifiable.
        let src = "r1: ins[X].p -> 1 <= X.o -> 1 & not ins(X).q -> 1.";
        let err = stratify(&Program::parse(src).unwrap()).unwrap_err();
        assert_eq!(err.cycle.len(), 1);
        assert_eq!(err.condition, Condition::C);
    }

    #[test]
    fn mutual_negation_rejected() {
        // Heads on distinct versions (ins(X) vs del(X)) negating each
        // other form a genuine 2-cycle through strict edges.
        let src = "
            r1: ins[X].p -> 1 <= X.o -> 1 & not del(X).q -> 1.
            r2: del[X].q -> 1 <= X.o -> 1 & not ins(X).p -> 1.
        ";
        let err = stratify(&Program::parse(src).unwrap()).unwrap_err();
        assert_eq!(err.cycle.len(), 2);
        assert_eq!(err.condition, Condition::C);
    }

    #[test]
    fn condition_d_self_read_rejected() {
        // A rule reading the very version it deletes from.
        let src = "del[mod(E)].p -> 1 <= del(mod(E)).q -> 1.";
        let err = stratify(&Program::parse(src).unwrap()).unwrap_err();
        assert_eq!(err.condition, Condition::D);
    }

    #[test]
    fn condition_a_orders_copy_sources() {
        let src = "
            inner: mod[E].sal -> (S, S2) <= E.sal -> S & S2 = S + 1.
            outer: ins[mod(E)].tag -> 1 <= mod(E).sal -> S.
        ";
        let p = Program::parse(src).unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.stratum_of(0), 0);
        assert_eq!(s.stratum_of(1), 1);
        assert!(s.edges.iter().any(|e| e.condition == Condition::A && e.from == 0 && e.to == 1));
    }

    #[test]
    fn independent_rules_share_a_stratum() {
        let src = "
            r1: ins[X].p -> 1 <= X.a -> 1.
            r2: ins[X].q -> 1 <= X.b -> 1.
        ";
        assert_eq!(strata_names(src).len(), 1);
    }

    #[test]
    fn positive_recursion_through_ins_allowed() {
        // (b) self-loop: fine.
        let src = "r: ins[X].anc -> P <= ins(X).anc -> A & A.parents -> P.";
        let p = Program::parse(src).unwrap();
        assert!(stratify(&p).is_ok());
    }

    #[test]
    fn facts_only_program() {
        let p = Program::parse("ins[a].p -> 1. ins[b].q -> 2.").unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_program() {
        let p = Program::parse("").unwrap();
        let s = stratify(&p).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn del_then_read_ordering_condition_d() {
        let src = "
            killer: del[E].flag -> 1 <= E.victim -> 1.
            reader: ins[x].seen -> B <= del(B).flag -> 0.
        ";
        let p = Program::parse(src).unwrap();
        let s = stratify(&p).unwrap();
        // reader must be strictly above killer via (d)... and indeed:
        assert!(s.stratum_of(0) < s.stratum_of(1));
        assert!(s.edges.iter().any(|e| e.condition == Condition::D && e.from == 0 && e.to == 1));
    }
}
