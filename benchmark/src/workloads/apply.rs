//! `batch_update` and `closure_rounds`: one prepared program applied to
//! a fresh copy of a warmed database. They share the op and differ in
//! where it spends its time — one wide delta in few rounds against many
//! rounds of small deltas over the same hot versions.

use std::time::Instant;

use ruvo_core::{run_compiled, CompiledProgram, CyclePolicy, Database, Prepared};
use ruvo_lang::Program;
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, num, oid, sym, Const, Vid};
use ruvo_workload::{enterprise_program, Enterprise, EnterpriseConfig};

use super::{LayerInputs, Recorder, Scale, Workload};
use crate::rng::Rng;
use crate::spans::Tracer;

pub struct ApplyWorkload {
    name: &'static str,
    /// The seed database, its §3 preparation already cached; every op
    /// runs on an untimed clone of it.
    db: Database,
    prepared: Prepared,
    /// The same program compiled for the traced decomposition, which
    /// calls the engine below the `Database` facade.
    compiled: CompiledProgram,
    program_text: String,
    expected: ObjectBase,
    expected_fired: usize,
    block_ops: usize,
    lookup_method: &'static str,
    goals: Vec<(String, Vec<Vec<Const>>)>,
}

/// The §2.3 enterprise update (raise, fire, classify: `mod`, `del`,
/// `ins` and negation over three strata) on a generated enterprise.
pub fn batch_update(seed: u64, scale: Scale) -> ApplyWorkload {
    let (employees, block_ops) = match scale {
        Scale::Full => (10_000, 20),
        Scale::Smoke => (400, 4),
    };
    let e = Enterprise::generate(EnterpriseConfig { employees, seed, ..Default::default() });
    let reference = EnterpriseReference::of(&e);
    let mut rng = Rng::new(seed ^ 0xB47C);
    let goals = (0..16)
        .map(|_| {
            let k = rng.below(employees);
            (format!("?- mod(e{k}).sal -> S."), vec![vec![reference.raised[k]]])
        })
        .collect();
    ApplyWorkload::new(Spec {
        name: "batch_update",
        base: e.ob.clone(),
        program: enterprise_program(),
        expected: reference.expected_base(&e),
        expected_fired: reference.fired_updates(&e),
        block_ops,
        lookup_method: "sal",
        goals,
    })
}

/// The engine-independent model of the enterprise update: plain
/// arithmetic over the generator's own tables.
struct EnterpriseReference {
    /// Salary after the raise (rules 1 and 2).
    raised: Vec<Const>,
    /// Out-earns the boss after the raise, so is deleted (rule 3).
    fired: Vec<bool>,
    /// Survives with more than 4500 (rule 4).
    hpe: Vec<bool>,
}

impl EnterpriseReference {
    fn of(e: &Enterprise) -> EnterpriseReference {
        let raise = |i: usize| {
            let s = e.salaries[i] as f64;
            if e.is_manager[i] {
                s * 1.1 + 200.0
            } else {
                s * 1.1
            }
        };
        let n = e.employees.len();
        let fired: Vec<bool> =
            (0..n).map(|i| e.boss[i].is_some_and(|b| raise(i) > raise(b))).collect();
        let hpe = (0..n).map(|i| !fired[i] && raise(i) > 4500.0).collect();
        // The language stores a whole number as an integer.
        let raised = (0..n)
            .map(|i| {
                let v = raise(i);
                if v.fract() == 0.0 {
                    int(v as i64)
                } else {
                    num(v)
                }
            })
            .collect();
        EnterpriseReference { raised, fired, hpe }
    }

    fn expected_base(&self, e: &Enterprise) -> ObjectBase {
        let mut ob = ObjectBase::new();
        for i in (0..e.employees.len()).filter(|&i| !self.fired[i]) {
            let v = Vid::object(e.employees[i]);
            ob.insert(v, sym("isa"), Args::empty(), oid("empl"));
            ob.insert(v, sym("sal"), Args::empty(), self.raised[i]);
            if e.is_manager[i] {
                ob.insert(v, sym("pos"), Args::empty(), oid("mgr"));
            }
            if let Some(b) = e.boss[i] {
                ob.insert(v, sym("boss"), Args::empty(), e.employees[b]);
            }
            if self.hpe[i] {
                ob.insert(v, sym("isa"), Args::empty(), oid("hpe"));
            }
        }
        ob
    }

    /// One `mod` per employee, one `del` per fact of each fired
    /// employee (`del[..].*` expands per method-application), one
    /// `ins` per high earner.
    fn fired_updates(&self, e: &Enterprise) -> usize {
        let facts_of =
            |i: usize| 2 + usize::from(e.is_manager[i]) + usize::from(e.boss[i].is_some());
        let n = e.employees.len();
        n + (0..n).filter(|&i| self.fired[i]).map(facts_of).sum::<usize>()
            + self.hpe.iter().filter(|&&h| h).count()
    }
}

const CLOSURE_PROGRAM: &str = "\
tc1: ins[X].reach -> Y <= X.next -> Y.
tc2: ins[X].reach -> Z <= ins(X).reach -> Y & Y.next -> Z.";

/// Linear-recursive reachability (the §2.3 `anc` shape) along one
/// `next` chain whose object names are a seeded permutation.
pub fn closure_rounds(seed: u64, scale: Scale) -> ApplyWorkload {
    let (objects, block_ops) = match scale {
        Scale::Full => (120, 20),
        Scale::Smoke => (24, 4),
    };
    let mut ids: Vec<usize> = (0..objects).collect();
    Rng::new(seed ^ 0xC105).shuffle(&mut ids);
    let chain: Vec<Const> = ids.iter().map(|i| oid(&format!("o{i}"))).collect();

    let mut base = ObjectBase::new();
    for pair in chain.windows(2) {
        base.insert(Vid::object(pair[0]), sym("next"), Args::empty(), pair[1]);
    }
    // reach(o_i) = {o_j : j > i}.
    let mut expected = base.clone();
    for (i, &from) in chain.iter().enumerate() {
        for &to in &chain[i + 1..] {
            expected.insert(Vid::object(from), sym("reach"), Args::empty(), to);
        }
    }
    let goals = (0..objects - 1)
        .step_by((objects / 16).max(1))
        .map(|i| {
            let mut rows: Vec<Vec<Const>> = chain[i + 1..].iter().map(|&c| vec![c]).collect();
            rows.sort();
            (format!("?- ins(o{}).reach -> X.", ids[i]), rows)
        })
        .collect();
    ApplyWorkload::new(Spec {
        name: "closure_rounds",
        base,
        program: Program::parse(CLOSURE_PROGRAM).expect("static program parses"),
        expected,
        expected_fired: objects * (objects - 1) / 2,
        block_ops,
        lookup_method: "next",
        goals,
    })
}

/// What tells the two workloads apart.
struct Spec {
    name: &'static str,
    base: ObjectBase,
    program: Program,
    /// The committed base every op must produce, and the fired
    /// update-terms it must report.
    expected: ObjectBase,
    expected_fired: usize,
    block_ops: usize,
    lookup_method: &'static str,
    goals: Vec<(String, Vec<Vec<Const>>)>,
}

impl ApplyWorkload {
    fn new(spec: Spec) -> ApplyWorkload {
        let program_text = spec.program.to_string();
        let db = Database::open(spec.base);
        let prepared = db.prepare_program(spec.program.clone()).expect("workload program prepares");
        let compiled = CompiledProgram::compile(spec.program, CyclePolicy::Reject)
            .expect("workload program compiles");
        // Warm-up: cache the seed database's §3-prepared working copy
        // (every later clone inherits it), then one full op on a
        // throwaway clone.
        drop(db.session().prepared_work());
        db.clone().apply(&prepared).expect("warm-up applies");
        ApplyWorkload {
            name: spec.name,
            db,
            prepared,
            compiled,
            program_text,
            expected: spec.expected,
            expected_fired: spec.expected_fired,
            block_ops: spec.block_ops,
            lookup_method: spec.lookup_method,
            goals: spec.goals,
        }
    }

    fn check(&self, fired: usize, committed: &ObjectBase, rec: &mut Recorder) {
        if fired != self.expected_fired {
            let (name, want) = (self.name, self.expected_fired);
            rec.fail(1, || format!("{name}: {fired} fired update-terms, reference has {want}"));
        } else if *committed != self.expected {
            let name = self.name;
            rec.fail(1, || format!("{name}: committed base differs from the reference"));
        }
    }
}

impl Workload for ApplyWorkload {
    fn block_ops(&self) -> usize {
        self.block_ops
    }

    fn traced_ops(&self) -> usize {
        self.block_ops.min(10)
    }

    fn run_block(&mut self, ops: usize, rec: &mut Recorder) {
        let mut latencies_ms = Vec::with_capacity(ops);
        let mut fired_updates = 0;
        for done in 0..ops {
            if rec.over_rss_guard(self.name, ops - done) {
                return;
            }
            let mut db = self.db.clone();
            let start = Instant::now();
            let result = db.apply(&self.prepared).map(|txn| txn.outcome.stats().fired_updates);
            latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
            rec.attempted += 1;
            match result {
                Ok(fired) => {
                    fired_updates += fired;
                    self.check(fired, db.current(), rec);
                }
                Err(e) => {
                    let name = self.name;
                    rec.fail(1, || format!("{name}: apply failed: {e}"));
                }
            }
        }
        rec.blocks_ms.push(latencies_ms);
        rec.fired_per_block = fired_updates as f64;
    }

    fn trace_block(&mut self, ops: usize, tracer: &mut Tracer, rec: &mut Recorder) {
        for _ in 0..ops {
            // What `Database::apply` does, one public call at a time, on
            // a volatile copy of the seed session.
            let mut session = self.db.session().clone();
            tracer.next_op();
            let result = tracer.span("op", |t| -> Result<usize, ruvo_core::Error> {
                let work = t.span("session.prepared_work", |_| session.prepared_work());
                let outcome = t.span("engine.evaluate", |_| {
                    run_compiled(&self.compiled, session.config(), work)
                })?;
                let fired = outcome.stats().fired_updates;
                t.span("session.commit", |_| session.commit(outcome).map(|_| fired))
                    .map_err(ruvo_core::Error::from)
            });
            rec.attempted += 1;
            match result {
                Ok(fired) => self.check(fired, session.current(), rec),
                Err(e) => {
                    let name = self.name;
                    rec.fail(1, || format!("{name}: traced apply failed: {e}"));
                }
            }
        }
    }

    fn layer_inputs(&self) -> LayerInputs {
        LayerInputs {
            base: self.db.current().clone(),
            apply_base: self.db.current().clone(),
            lookup_method: self.lookup_method,
            programs: vec![self.program_text.clone()],
            query_program: self.program_text.clone(),
            goals: self.goals.clone(),
            store_records: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_reference_reproduces_the_paper_example() {
        // §2.3: phil (manager, 4000) and bob (4200, boss phil): phil is
        // raised to 4600 and classified hpe, bob (4620 > 4600) is fired.
        let e = Enterprise {
            ob: ObjectBase::new(),
            employees: vec![oid("phil"), oid("bob")],
            is_manager: vec![true, false],
            salaries: vec![4000, 4200],
            boss: vec![None, Some(0)],
        };
        let r = EnterpriseReference::of(&e);
        assert_eq!(r.raised[0], int(4600));
        assert_eq!(r.fired, vec![false, true]);
        assert_eq!(r.hpe, vec![true, false]);
        // 2 mods + bob's 3 facts deleted + 1 hpe.
        assert_eq!(r.fired_updates(&e), 6);
        let ob = r.expected_base(&e);
        assert_eq!(ob.lookup1(oid("phil"), "sal"), vec![int(4600)]);
        assert_eq!(ob.lookup1(oid("phil"), "isa").len(), 2);
        assert!(ob.lookup1(oid("bob"), "sal").is_empty());
    }

    #[test]
    fn non_whole_raises_stay_floating() {
        let e = Enterprise {
            ob: ObjectBase::new(),
            employees: vec![oid("x")],
            is_manager: vec![false],
            salaries: vec![330],
            boss: vec![None],
        };
        assert_eq!(EnterpriseReference::of(&e).raised[0], num(330.0 * 1.1));
    }

    #[test]
    fn both_workloads_pass_their_own_checks_at_smoke_scale() {
        for mut w in [batch_update(3, Scale::Smoke), closure_rounds(3, Scale::Smoke)] {
            let mut rec = Recorder::default();
            w.run_block(2, &mut rec);
            w.trace_block(1, &mut Tracer::new(), &mut rec);
            assert_eq!((rec.attempted, rec.failed), (3, 0), "{:?}", rec.failures);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let text = |w: &ApplyWorkload| w.layer_inputs().base.to_string();
        assert_eq!(text(&closure_rounds(5, Scale::Smoke)), text(&closure_rounds(5, Scale::Smoke)));
        assert_ne!(text(&closure_rounds(5, Scale::Smoke)), text(&closure_rounds(6, Scale::Smoke)));
        assert_eq!(text(&batch_update(5, Scale::Smoke)), text(&batch_update(5, Scale::Smoke)));
        assert_ne!(text(&batch_update(5, Scale::Smoke)), text(&batch_update(6, Scale::Smoke)));
    }
}
