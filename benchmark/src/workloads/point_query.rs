//! `point_query`: goals asked against the boss-chain closure on a large
//! enterprise base, never committing. The read side: the matcher and
//! the engine driven through the demand (magic-set) rewrite.

use std::time::Instant;

use ruvo_core::{Database, Prepared};
use ruvo_lang::Goal;
use ruvo_obase::ObjectBase;
use ruvo_workload::{
    query_workload, Enterprise, EnterpriseConfig, QueryConfig, RefQuery, CHIEF_PROGRAM,
};

use super::{LayerInputs, Recorder, Scale, Workload};
use crate::spans::Tracer;

pub struct PointQuery {
    db: Database,
    prepared: Prepared,
    /// Goals alternating point (`chief -> C`) and path (`chief -> B &
    /// B.sal -> S`) shapes, each with the answer the generator read
    /// off its own boss forest.
    queries: Vec<RefQuery>,
    /// A slice of the same enterprise for the probes that apply the
    /// closure program: the queries never do, and the full closure of
    /// the whole base takes seconds.
    apply_base: ObjectBase,
}

impl PointQuery {
    pub fn setup(seed: u64, scale: Scale) -> PointQuery {
        let (employees, queries, slice) = match scale {
            Scale::Full => (31_000, 4000, 2000),
            Scale::Smoke => (1000, 100, 200),
        };
        let w = query_workload(QueryConfig { employees, queries, seed });
        let db = Database::open(w.enterprise.ob);
        let prepared = db.prepare(CHIEF_PROGRAM).expect("static program prepares");
        // Warm-up: the §3-prepared working copy every query clones, and
        // one query through the whole path.
        db.query_src(&prepared, &w.queries[0].goal).expect("warm-up query runs");
        let apply_base =
            Enterprise::generate(EnterpriseConfig { employees: slice, seed, ..Default::default() })
                .ob;
        PointQuery { db, prepared, queries: w.queries, apply_base }
    }
}

impl Workload for PointQuery {
    fn block_ops(&self) -> usize {
        self.queries.len()
    }

    fn traced_ops(&self) -> usize {
        self.queries.len().min(1000)
    }

    fn run_block(&mut self, ops: usize, rec: &mut Recorder) {
        let mut latencies_ms = Vec::with_capacity(ops);
        for (done, q) in self.queries.iter().take(ops).enumerate() {
            if done % 64 == 0 && rec.over_rss_guard("point_query", ops - done) {
                return;
            }
            let start = Instant::now();
            let result = self.db.query_src(&self.prepared, &q.goal);
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            rec.attempted += 1;
            match result {
                Ok(answers) if answers.rows == q.expected => {}
                Ok(_) => rec.fail(1, || format!("point_query: wrong answer to {}", q.goal)),
                Err(e) => rec.fail(1, || format!("point_query: {} failed: {e}", q.goal)),
            }
        }
        rec.blocks_ms.push(latencies_ms);
    }

    fn trace_block(&mut self, ops: usize, tracer: &mut Tracer, rec: &mut Recorder) {
        for q in self.queries.iter().take(ops) {
            // What `Database::query_src` does, one public call at a time.
            tracer.next_op();
            let result = tracer.span("op", |t| -> Result<_, ruvo_core::Error> {
                let goal = t.span("lang.goal_parse", |_| Goal::parse(&q.goal))?;
                let plan = t.span("query.plan", |_| self.prepared.query_plan(goal));
                t.span("query.run", |_| self.db.run_query_plan(&plan))
            });
            rec.attempted += 1;
            match result {
                Ok(answers) if answers.rows == q.expected => {}
                Ok(_) => rec.fail(1, || format!("point_query: wrong traced answer to {}", q.goal)),
                Err(e) => rec.fail(1, || format!("point_query: traced {} failed: {e}", q.goal)),
            }
        }
    }

    fn layer_inputs(&self) -> LayerInputs {
        LayerInputs {
            base: self.db.current().clone(),
            apply_base: self.apply_base.clone(),
            lookup_method: "sal",
            programs: vec![CHIEF_PROGRAM.to_string()],
            query_program: CHIEF_PROGRAM.to_string(),
            goals: self
                .queries
                .iter()
                .take(64)
                .map(|q| (q.goal.clone(), q.expected.clone()))
                .collect(),
            store_records: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_pass_their_reference_answers_at_smoke_scale() {
        let mut w = PointQuery::setup(4, Scale::Smoke);
        let mut rec = Recorder::default();
        w.run_block(20, &mut rec);
        w.trace_block(20, &mut Tracer::new(), &mut rec);
        assert_eq!((rec.attempted, rec.failed), (40, 0), "{:?}", rec.failures);
    }

    #[test]
    fn goals_depend_on_the_seed_only() {
        let goals = |seed| -> Vec<String> {
            PointQuery::setup(seed, Scale::Smoke).queries.into_iter().map(|q| q.goal).collect()
        };
        assert_eq!(goals(4), goals(4));
        assert_ne!(goals(4), goals(5));
    }
}
