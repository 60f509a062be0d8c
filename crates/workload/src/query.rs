//! Selective query workloads: point and path goals over a seeded
//! enterprise base, each paired with its reference answer.
//!
//! The program is the boss-chain closure — `chief` collects every
//! transitive boss of an employee onto `ins(e)` — so a point goal
//! `?- ins(eK).chief -> C.` demands only eK's boss chain while full
//! evaluation derives the closure for *every* employee. That gap is
//! what the demand-driven query path (see `ruvo_core::query`) is
//! measured against (the `point_query` benchmark workload), and the
//! pinned reference answers let differential tests and serve smoke
//! tests assert exact results without re-deriving them through the
//! engine.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruvo_term::{int, Const};

use crate::enterprise::{Enterprise, EnterpriseConfig};

/// The boss-chain closure: `ins(e).chief` accumulates every
/// transitive boss of `e`. Each employee's closure depends only on its
/// own `chief` facts plus base `boss` facts, so the demand analysis
/// seeds a point goal with exactly one object.
pub const CHIEF_PROGRAM: &str = "\
chief: ins[X].chief -> B <= X.boss -> B.
step:  ins[X].chief -> C <= ins(X).chief -> B & B.boss -> C.";

/// Parameters for [`query_workload`].
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Number of employees in the underlying enterprise (the base
    /// carries roughly `3.2 ×` this many facts).
    pub employees: usize,
    /// Number of goals to generate (alternating point and path).
    pub queries: usize,
    /// RNG seed (drives both the enterprise and the goal choice).
    pub seed: u64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig { employees: 1000, queries: 10, seed: 0x51EED }
    }
}

/// One generated goal with its reference answer.
#[derive(Clone, Debug)]
pub struct RefQuery {
    /// Goal text, `?- ... .` (parse with `ruvo_lang::Goal::parse`).
    pub goal: String,
    /// Index of the employee the goal is anchored on.
    pub employee: usize,
    /// Expected answer rows, deduplicated and sorted — directly
    /// comparable to `ruvo_core::QueryAnswers::rows`.
    pub expected: Vec<Vec<Const>>,
}

/// A query workload: the base, the closure program, and goals with
/// reference answers.
#[derive(Clone, Debug)]
pub struct QueryWorkload {
    /// The generated enterprise (its `ob` is the base to query over).
    pub enterprise: Enterprise,
    /// The update-program the goals are asked against
    /// ([`CHIEF_PROGRAM`]).
    pub program: &'static str,
    /// The goals, alternating point (`chief -> C`) and path
    /// (`chief -> B & B.sal -> S`) shapes.
    pub queries: Vec<RefQuery>,
}

/// Generate a query workload. Deterministic given the config; the
/// reference answers are computed by walking the generator's own boss
/// forest, independently of the engine.
pub fn query_workload(config: QueryConfig) -> QueryWorkload {
    let enterprise = Enterprise::generate(EnterpriseConfig {
        employees: config.employees,
        seed: config.seed,
        ..Default::default()
    });
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut queries = Vec::with_capacity(config.queries);
    if config.employees > 0 {
        for q in 0..config.queries {
            let k = rng.gen_range(0..config.employees);
            let chain = ancestor_chain(&enterprise, k);
            let (goal, mut expected) = if q % 2 == 0 {
                // Point: every transitive boss of eK.
                let rows = chain.iter().map(|&a| vec![enterprise.employees[a]]).collect();
                (format!("?- ins(e{k}).chief -> C."), rows)
            } else {
                // Path: each transitive boss with its (base) salary.
                let rows = chain
                    .iter()
                    .map(|&a| vec![enterprise.employees[a], int(enterprise.salaries[a])])
                    .collect::<Vec<_>>();
                (format!("?- ins(e{k}).chief -> B & B.sal -> S."), rows)
            };
            expected.sort();
            expected.dedup();
            queries.push(RefQuery { goal, employee: k, expected });
        }
    }
    QueryWorkload { enterprise, program: CHIEF_PROGRAM, queries }
}

/// The strict transitive-boss chain of employee `k`, in
/// chain-from-`k` order (the boss forest is acyclic by construction).
fn ancestor_chain(enterprise: &Enterprise, k: usize) -> Vec<usize> {
    let mut chain = Vec::new();
    let mut at = k;
    while let Some(b) = enterprise.boss[at] {
        chain.push(b);
        at = b;
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_core::Database;
    use ruvo_lang::Goal;

    #[test]
    fn deterministic_for_seed() {
        let a = query_workload(QueryConfig::default());
        let b = query_workload(QueryConfig::default());
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.goal, y.goal);
            assert_eq!(x.expected, y.expected);
        }
        let c = query_workload(QueryConfig { seed: 7, ..Default::default() });
        assert!(a.queries.iter().zip(&c.queries).any(|(x, y)| x.goal != y.goal));
    }

    #[test]
    fn reference_answers_match_the_engine() {
        let w = query_workload(QueryConfig { employees: 60, queries: 8, ..Default::default() });
        let db = Database::open(w.enterprise.ob.clone());
        let prepared = db.prepare(w.program).unwrap();
        for q in &w.queries {
            let goal = Goal::parse(&q.goal).unwrap();
            let answers = db.query(&prepared, goal).unwrap();
            assert_eq!(answers.rows, q.expected, "goal {}", q.goal);
        }
    }

    #[test]
    fn goals_parse_and_alternate_shapes() {
        let w = query_workload(QueryConfig { employees: 20, queries: 4, ..Default::default() });
        assert_eq!(w.queries.len(), 4);
        for (i, q) in w.queries.iter().enumerate() {
            let goal = Goal::parse(&q.goal).unwrap();
            assert_eq!(goal.adornment(), if i % 2 == 0 { "b" } else { "bf" });
        }
    }

    #[test]
    fn empty_enterprise_yields_no_queries() {
        let w = query_workload(QueryConfig { employees: 0, queries: 5, ..Default::default() });
        assert!(w.queries.is_empty());
    }
}
