//! Prepare-time rule dependency analysis: per-rule read/write sets and
//! the [`RuleDepGraph`] they induce within each stratum.
//!
//! The paper's `T_P` operator (§4) fires every rule of a stratum
//! against the same pre-state, so two rules whose static read sets are
//! disjoint from each other's write sets are provably independent —
//! their relative order can never change the fired-update set. This
//! module computes that independence once at check time:
//!
//! * a conservative **read set** per rule — [`crate::plan::literal_reads`]
//!   over *all* body literals (positive and negated, tracked
//!   separately), with a `$V` VID-variable atom (§6) widening the rule
//!   to ⊤ (it can read any relation);
//! * a conservative **write set** per rule — the head's created chain
//!   under §3 copy semantics: creating `φ(v)` copies *every* method of
//!   `v*`, so the head conservatively writes all methods of the
//!   created chain (the same created-chain reasoning
//!   [`crate::check`]'s commutativity analysis uses);
//! * a [`RuleDepGraph`] over same-stratum rule pairs with typed edges
//!   ([`DepEdgeKind`]). Negation has one reading, here and in the
//!   lints: a negated literal reads exactly its own keys, so a negation
//!   whose relation no same-stratum rule writes links nothing.
//!
//! The graph is analysis only — the evaluator never reads it and a
//! [`crate::CompiledProgram`] does not carry it. [`crate::check::check`]
//! builds it once for the order-sensitivity lints and hands it out in
//! its report; `ruvo check --deps` / `--dot` / REPL `:deps` render it
//! for humans (text, DOT and JSON, see [`RuleDepGraph::to_text`]).

use ruvo_lang::{Program, Rule};
use ruvo_term::{Chain, Symbol};

use crate::check::{Commutativity, CommutativityMatrix};
use crate::stratify::Stratification;

/// The conservative read set of one rule's body.
#[derive(Clone, Debug, Default)]
pub struct ReadSet {
    /// `(chain, method)` relations read by *positive* literals,
    /// sorted and deduplicated.
    pub keys: Vec<(Chain, Symbol)>,
    /// Relations read by *negated* literals, sorted and deduplicated.
    /// Kept separate: a negated read is non-monotone, so overlap with
    /// a same-stratum write is order-sensitive even for ins-heads.
    pub negated: Vec<(Chain, Symbol)>,
    /// ⊤: a `$V` VID-variable atom (§6) ranges over every version, so
    /// the rule may read any relation.
    pub top: bool,
}

impl ReadSet {
    fn of(rule: &Rule) -> ReadSet {
        let mut keys = Vec::new();
        let mut negated = Vec::new();
        let mut top = false;
        for lit in &rule.body {
            match crate::plan::literal_reads(lit) {
                Some(ks) if lit.positive => keys.extend(ks),
                Some(ks) => negated.extend(ks),
                None => top = true,
            }
        }
        // By method *name*: `Symbol`'s own order is interning order,
        // which depends on what else the process parsed first.
        for set in [&mut keys, &mut negated] {
            set.sort_unstable_by(|a, b| (a.0, a.1.as_str()).cmp(&(b.0, b.1.as_str())));
            set.dedup();
        }
        ReadSet { keys, negated, top }
    }

    /// Does any read key (positive or negated) target `chain`?
    pub fn reads_chain(&self, chain: Chain) -> bool {
        self.keys.iter().chain(&self.negated).any(|&(c, _)| c == chain)
    }
}

/// The conservative write set of one rule's head: the single created
/// chain, covering *every* method of that chain (§3 copies the whole
/// of `v*` into the created version).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteSet {
    /// The created chain.
    pub chain: Chain,
}

impl WriteSet {
    fn of(rule: &Rule) -> WriteSet {
        WriteSet { chain: rule.head.created_term().chain }
    }
}

/// Why two same-stratum rules are linked in the dependency graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepEdgeKind {
    /// One rule's read set overlaps the other's write set.
    ReadWrite,
    /// The [`CommutativityMatrix`] could not prove the pair's writes
    /// commute (`Conflicts` or `Unknown`).
    WriteWrite,
    /// One side reads ⊤ (a `$V` atom), so it conservatively overlaps
    /// any writer.
    TopConflict,
}

impl DepEdgeKind {
    /// The short name used in the DOT/JSON renders.
    pub fn name(self) -> &'static str {
        match self {
            DepEdgeKind::ReadWrite => "rw",
            DepEdgeKind::WriteWrite => "ww",
            DepEdgeKind::TopConflict => "top",
        }
    }
}

/// One undirected edge between same-stratum rules `a < b`. When a pair
/// qualifies for several kinds the strongest is kept:
/// `WriteWrite` > `ReadWrite` > `TopConflict`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Lower rule index.
    pub a: usize,
    /// Higher rule index.
    pub b: usize,
    /// Why the rules depend on each other.
    pub kind: DepEdgeKind,
}

/// The per-program rule dependency graph: read/write sets and typed
/// same-stratum edges (same-stratum rules with no edge between them
/// are provably independent).
#[derive(Clone, Debug)]
pub struct RuleDepGraph {
    reads: Vec<ReadSet>,
    writes: Vec<WriteSet>,
    self_dependent: Vec<bool>,
    edges: Vec<DepEdge>,
    stratum_of: Vec<usize>,
    matrix: CommutativityMatrix,
}

impl RuleDepGraph {
    /// Analyze `program` under `strat`. `matrix` must be the
    /// commutativity matrix computed under the same stratification.
    pub fn build(
        program: &Program,
        strat: &Stratification,
        matrix: CommutativityMatrix,
    ) -> RuleDepGraph {
        let n = program.rules.len();
        let reads: Vec<ReadSet> = program.rules.iter().map(ReadSet::of).collect();
        let writes: Vec<WriteSet> = program.rules.iter().map(WriteSet::of).collect();
        let self_dependent: Vec<bool> =
            (0..n).map(|r| reads[r].top || reads[r].reads_chain(writes[r].chain)).collect();

        // "Rule a's reads overlap rule b's writes."
        let rw = |a: usize, b: usize| reads[a].reads_chain(writes[b].chain);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if strat.stratum_of(a) != strat.stratum_of(b) {
                    continue;
                }
                let kind = if matrix.get(a, b) != Commutativity::Commutes {
                    Some(DepEdgeKind::WriteWrite)
                } else if rw(a, b) || rw(b, a) {
                    Some(DepEdgeKind::ReadWrite)
                } else if reads[a].top || reads[b].top {
                    Some(DepEdgeKind::TopConflict)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    edges.push(DepEdge { a, b, kind });
                }
            }
        }

        let stratum_of = (0..n).map(|r| strat.stratum_of(r)).collect();
        RuleDepGraph { reads, writes, self_dependent, edges, stratum_of, matrix }
    }

    /// Number of rules analyzed.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True for the empty program.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Rule `r`'s conservative read set.
    pub fn reads(&self, r: usize) -> &ReadSet {
        &self.reads[r]
    }

    /// Rule `r`'s conservative write set.
    pub fn writes(&self, r: usize) -> WriteSet {
        self.writes[r]
    }

    /// True when rule `r`'s reads overlap its own write chain (e.g.
    /// §4(b) ins-recursion, or a `$V` atom).
    pub fn self_dependent(&self, r: usize) -> bool {
        self.self_dependent[r]
    }

    /// All same-stratum dependency edges, `(a, b)` lexicographic.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// The stratum rule `r` evaluates in.
    pub fn stratum_of(&self, r: usize) -> usize {
        self.stratum_of[r]
    }

    /// The commutativity matrix the write-write edges came from.
    pub fn commutativity(&self) -> &CommutativityMatrix {
        &self.matrix
    }

    /// The text report `ruvo check --deps` and REPL `:deps` print: one
    /// line per rule (write set, read set, self-dependence), then one
    /// per edge.
    pub fn to_text(&self, program: &Program) -> String {
        let mut out =
            format!("dependency graph: {} rule(s), {} edge(s)\n", self.len(), self.edges.len());
        for (r, reads) in self.reads.iter().enumerate() {
            let mut parts: Vec<String> = reads
                .keys
                .iter()
                .map(|&(c, m)| read_str(c, m))
                .chain(reads.negated.iter().map(|&(c, m)| format!("not {}", read_str(c, m))))
                .collect();
            if reads.top {
                parts.push("⊤".to_owned());
            }
            let marker = if self.self_dependent[r] { " (self-dependent)" } else { "" };
            out.push_str(&format!(
                "  {}: writes {}, reads {{{}}}{marker}\n",
                program.rule_name(r),
                self.write_str(r),
                parts.join(", "),
            ));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  {} -- {}: {}\n",
                program.rule_name(e.a),
                program.rule_name(e.b),
                e.kind.name()
            ));
        }
        out
    }

    /// Render the graph in Graphviz DOT: one cluster per stratum,
    /// nodes labeled with the rule name and write chain, edges labeled
    /// by [`DepEdgeKind::name`], self-dependent rules marked with a
    /// dotted self-loop.
    pub fn to_dot(&self, program: &Program) -> String {
        let mut out = String::from("graph ruvo_deps {\n  rankdir=LR;\n  node [shape=box];\n");
        let mut strata: Vec<Vec<usize>> = Vec::new();
        for r in 0..self.len() {
            let s = self.stratum_of[r];
            if strata.len() <= s {
                strata.resize(s + 1, Vec::new());
            }
            strata[s].push(r);
        }
        for (s, rules) in strata.iter().enumerate() {
            out.push_str(&format!("  subgraph cluster_s{s} {{\n    label=\"stratum {s}\";\n"));
            for &r in rules {
                out.push_str(&format!(
                    "    r{r} [label=\"{}\\nW: {}\"];\n",
                    dot_escape(&program.rule_name(r)),
                    dot_escape(&self.write_str(r)),
                ));
            }
            out.push_str("  }\n");
        }
        for e in &self.edges {
            let style = match e.kind {
                DepEdgeKind::ReadWrite => "solid",
                DepEdgeKind::WriteWrite => "bold",
                DepEdgeKind::TopConflict => "dashed",
            };
            out.push_str(&format!(
                "  r{} -- r{} [label=\"{}\", style={style}];\n",
                e.a,
                e.b,
                e.kind.name()
            ));
        }
        for r in 0..self.len() {
            if self.self_dependent[r] {
                out.push_str(&format!("  r{r} -- r{r} [label=\"self\", style=dotted];\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Render the graph as JSON (hand-rolled like the diagnostic
    /// renders; stable field order, 2-space indent).
    pub fn to_json(&self, program: &Program) -> String {
        use ruvo_lang::analysis::json_escape;
        let mut out = String::from("{\n  \"rules\": [\n");
        let quoted = |keys: &[(Chain, Symbol)]| -> String {
            let keys = keys.iter().map(|&(c, m)| format!("\"{}\"", json_escape(&read_str(c, m))));
            keys.collect::<Vec<_>>().join(", ")
        };
        for (r, reads) in self.reads.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"index\": {r}, \"name\": \"{}\", \"stratum\": {}, \
                 \"writes\": \"{}\", \"reads\": [{}], \
                 \"negated_reads\": [{}], \"top\": {}, \"self_dependent\": {}}}{}\n",
                json_escape(&program.rule_name(r)),
                self.stratum_of[r],
                json_escape(&self.write_str(r)),
                quoted(&reads.keys),
                quoted(&reads.negated),
                reads.top,
                self.self_dependent[r],
                if r + 1 < self.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"a\": {}, \"b\": {}, \"kind\": \"{}\"}}{}\n",
                e.a,
                e.b,
                e.kind.name(),
                if i + 1 < self.edges.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Human form of rule `r`'s write set, e.g. `ins(·).*`.
    pub fn write_str(&self, r: usize) -> String {
        format!("{}.*", chain_str(self.writes[r].chain))
    }
}

/// Human form of a chain as a version pattern: `·` for the initial
/// version, wrapped by each update kind innermost-first (the same
/// orientation as `check::vid_str`), e.g. `ins(mod(·))`.
pub fn chain_str(chain: Chain) -> String {
    let mut s = String::from("·");
    for i in 0..chain.len() {
        s = format!("{}({s})", chain.get(i));
    }
    s
}

/// Human form of one read key: `chain.method`.
pub fn read_str(chain: Chain, method: Symbol) -> String {
    format!("{}.{method}", chain_str(chain))
}

fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratify::stratify;

    fn graph(src: &str) -> (Program, RuleDepGraph) {
        let program = Program::parse(src).unwrap();
        let strat = stratify(&program).unwrap();
        let matrix = crate::check::commutativity(&program, &strat);
        let g = RuleDepGraph::build(&program, &strat, matrix);
        (program, g)
    }

    #[test]
    fn disjoint_rules_share_no_edge() {
        let (_, g) = graph(
            "a: ins[X].p -> 1 <= X.s -> 1.
             b: ins[X].q -> 2 <= X.t -> 2.",
        );
        assert_eq!(g.len(), 2);
        assert_eq!(g.stratum_of(0), g.stratum_of(1));
        assert!(g.edges().is_empty(), "{:?}", g.edges());
        assert!(!g.self_dependent(0) && !g.self_dependent(1));
    }

    #[test]
    fn ins_recursion_is_self_dependent_but_additive() {
        // §4(b) ins-recursion: `step` reads its own write chain.
        let (_, g) = graph(
            "base: ins[X].anc -> P <= X.parents -> P.
             step: ins[X].anc -> G <= ins(X).anc -> P & P.parents -> G.",
        );
        assert!(g.self_dependent(1));
        assert!(!g.self_dependent(0));
        // Both write ins(·).*; `step` positively reads it, so if they
        // share a stratum a read-write edge links them.
        if g.stratum_of(0) == g.stratum_of(1) {
            assert_eq!(g.edges(), [DepEdge { a: 0, b: 1, kind: DepEdgeKind::ReadWrite }]);
        }
    }

    #[test]
    fn vid_variable_reads_top() {
        let (_, g) = graph(
            "audit: ins[o1].seen -> O <= $V.exists -> O.
             other: ins[X].q -> 2 <= X.t -> 2.",
        );
        assert!(g.reads(0).top);
        assert!(g.self_dependent(0), "⊤ reads overlap the own write chain");
        // Both write ins(·).*, which ⊤ includes.
        assert_eq!(g.edges(), [DepEdge { a: 0, b: 1, kind: DepEdgeKind::TopConflict }]);
    }

    #[test]
    fn negation_reads_its_own_keys_only() {
        // `a` negates `·.blocked`, which `b` does not write: no edge.
        let (_, g) = graph(
            "a: ins[X].p -> 1 <= X.s -> 1 & not X.blocked -> 1.
             b: ins[X].q -> 2 <= X.t -> 2.",
        );
        assert!(!g.reads(0).top);
        assert!(g.edges().is_empty(), "{:?}", g.edges());
    }

    #[test]
    fn write_write_edges_follow_the_commutativity_matrix() {
        let (_, g) = graph(
            "up:   mod[X].price -> (P, P2) <= X.isa -> item & X.price -> P & P2 = P * 2.
             down: mod[X].price -> (P, P2) <= X.isa -> item & X.price -> P & P2 = P / 2.",
        );
        assert_eq!(g.edges(), [DepEdge { a: 0, b: 1, kind: DepEdgeKind::WriteWrite }]);
    }

    #[test]
    fn text_dot_and_json_renders_are_well_formed() {
        let (p, g) = graph(
            "a: ins[X].p -> 1 <= X.s -> 1 & not X.u -> 1.
             b: ins[X].q -> 2 <= ins(X).p -> 1.",
        );
        let dot = g.to_dot(&p);
        assert!(dot.starts_with("graph ruvo_deps {"));
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
        for r in 0..g.len() {
            assert!(dot.contains(&format!("r{r} ")), "node r{r} missing:\n{dot}");
        }
        let json = g.to_json(&p);
        assert!(json.contains("\"writes\": \"ins(·).*\""), "{json}");
        assert!(!json.contains("component"), "{json}");
        assert_eq!(
            g.to_text(&p),
            "dependency graph: 2 rule(s), 1 edge(s)\n  \
             a: writes ins(·).*, reads {·.s, not ·.u}\n  \
             b: writes ins(·).*, reads {ins(·).p} (self-dependent)\n  \
             a -- b: rw\n"
        );
    }
}
