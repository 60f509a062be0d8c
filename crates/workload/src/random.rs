//! Randomized object bases and insert-only programs for stress tests
//! and property-based testing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruvo_lang::Program;
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, oid, Vid};

/// Shape parameters for the random generators.
#[derive(Clone, Copy, Debug)]
pub struct RandomConfig {
    /// Number of objects.
    pub objects: usize,
    /// Number of distinct method names (`m0..`).
    pub methods: usize,
    /// Facts to generate.
    pub facts: usize,
    /// Rules to generate (for [`random_insert_program`]).
    pub rules: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig { objects: 20, methods: 5, facts: 60, rules: 8, seed: 42 }
    }
}

/// A random flat object base: `facts` version-terms over `objects`
/// objects and `methods` methods, with small-integer or object results.
pub fn random_object_base(config: RandomConfig) -> ObjectBase {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut ob = ObjectBase::new();
    for _ in 0..config.facts {
        let obj = oid(&format!("o{}", rng.gen_range(0..config.objects.max(1))));
        let method = ruvo_term::sym(&format!("m{}", rng.gen_range(0..config.methods.max(1))));
        let result = if rng.gen_bool(0.5) {
            int(rng.gen_range(0..100))
        } else {
            oid(&format!("o{}", rng.gen_range(0..config.objects.max(1))))
        };
        ob.insert(Vid::object(obj), method, Args::empty(), result);
    }
    ob
}

/// A random *insert-only* program over the same vocabulary: rules of
/// the shape
///
/// ```text
/// ins[X].mH -> R <= X.mA -> R [& R.mB -> S]
/// ```
///
/// Insert-only programs are monotone, so they are the fixture for the
/// overwrite-equals-union property test and for determinism checks.
pub fn random_insert_program(config: RandomConfig) -> Program {
    let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9));
    let mut src = String::new();
    for i in 0..config.rules {
        let m_head = rng.gen_range(0..config.methods.max(1));
        let m_a = rng.gen_range(0..config.methods.max(1));
        if rng.gen_bool(0.4) {
            let m_b = rng.gen_range(0..config.methods.max(1));
            src.push_str(&format!(
                "r{i}: ins[X].m{m_head} -> S <= X.m{m_a} -> R & R.m{m_b} -> S.\n"
            ));
        } else {
            src.push_str(&format!("r{i}: ins[X].m{m_head} -> R <= X.m{m_a} -> R.\n"));
        }
    }
    Program::parse(&src).expect("generated insert program parses")
}

/// A random **layered** update-program exercising all three update
/// kinds plus negation, built to be statically stratifiable and
/// version-linear by construction:
///
/// * **Layer 0** — `ins[X].g* <= …` rules reading the base `m*`
///   relations, some recursing through the `ins(X).g*` relations they
///   build (monotone, so same-stratum recursion is fine).
/// * **Layer 1** — `del[ins(X)]` *or* `mod[ins(X)]` rules (one kind
///   per program, so every object's versions stay a chain) revising
///   layer 0's `g*` relations.
/// * **Layer 2** — `ins` rules one chain level deeper, writing `h*`
///   relations and reading layer 0/1 with **negated** literals, which
///   forces a strict stratum boundary below them.
///
/// The layers' written relations are disjoint (`g*` at distinct chain
/// depths, then `h*`), so the read/write dependency graph is a DAG and
/// static stratification always succeeds. This is the fixture for the
/// parallel-vs-sequential differential battery: deletes, modifies and
/// negation make evaluation order visible if the engine ever gets it
/// wrong, where insert-only programs would mask it.
pub fn random_update_program(config: RandomConfig) -> Program {
    let mut rng = SmallRng::seed_from_u64(config.seed.wrapping_mul(0xC2B2_AE35));
    let methods = config.methods.max(1);
    let rules = config.rules.max(3);
    let r0 = rules.div_ceil(2);
    let r1 = ((rules - r0) / 2).max(1);
    let r2 = rules.saturating_sub(r0 + r1).max(1);
    // One revision kind for the whole program: mixing `del[ins(X)]`
    // and `mod[ins(X)]` could create incomparable sibling versions of
    // one object and trip the §5 linearity check.
    let l1_del = rng.gen_bool(0.5);
    let mut src = String::new();
    for i in 0..r0 {
        let ga = rng.gen_range(0..methods);
        let mb = rng.gen_range(0..methods);
        match rng.gen_range(0..3) {
            0 => src.push_str(&format!("l0r{i}: ins[X].g{ga} -> R <= X.m{mb} -> R.\n")),
            1 => {
                let mc = rng.gen_range(0..methods);
                src.push_str(&format!(
                    "l0r{i}: ins[X].g{ga} -> S <= X.m{mb} -> R & R.m{mc} -> S.\n"
                ));
            }
            _ => {
                let gc = rng.gen_range(0..methods);
                src.push_str(&format!(
                    "l0r{i}: ins[X].g{ga} -> S <= ins(X).g{gc} -> R & R.m{mb} -> S.\n"
                ));
            }
        }
    }
    for i in 0..r1 {
        let ga = rng.gen_range(0..methods);
        let mb = rng.gen_range(0..methods);
        if l1_del {
            if rng.gen_bool(0.25) {
                // Wildcard delete: kills the whole `ins(X)` version.
                src.push_str(&format!(
                    "l1r{i}: del[ins(X)].* <= ins(X).g{ga} -> R & X.m{mb} -> R.\n"
                ));
            } else {
                src.push_str(&format!(
                    "l1r{i}: del[ins(X)].g{ga} -> R <= ins(X).g{ga} -> R & X.m{mb} -> C.\n"
                ));
            }
        } else {
            src.push_str(&format!(
                "l1r{i}: mod[ins(X)].g{ga} -> (R, C) <= ins(X).g{ga} -> R & X.m{mb} -> C.\n"
            ));
        }
    }
    for i in 0..r2 {
        let gb = rng.gen_range(0..methods);
        let ha = rng.gen_range(0..methods);
        if l1_del {
            if rng.gen_bool(0.5) {
                src.push_str(&format!(
                    "l2r{i}: ins[del(ins(X))].h{ha} -> R <= ins(X).g{gb} -> R \
                     & not del[ins(X)].g{gb} -> R.\n"
                ));
            } else {
                src.push_str(&format!(
                    "l2r{i}: ins[del(ins(X))].h{ha} -> C <= del(ins(X)).g{gb} -> C.\n"
                ));
            }
        } else {
            src.push_str(&format!(
                "l2r{i}: ins[mod(ins(X))].h{ha} -> R <= ins(X).g{gb} -> R \
                 & not mod(ins(X)).g{gb} -> R.\n"
            ));
        }
    }
    Program::parse(&src).expect("generated update program parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_core::{Database, Error, Outcome};

    fn evaluate(program: Program, ob: &ObjectBase) -> Result<Outcome, Error> {
        let db = Database::open(ob.clone());
        db.evaluate(&db.prepare_program(program)?)
    }

    #[test]
    fn random_ob_is_deterministic() {
        let a = random_object_base(RandomConfig::default());
        let b = random_object_base(RandomConfig::default());
        assert_eq!(a, b);
        assert!(a.len() <= 60);
        assert!(!a.is_empty());
    }

    #[test]
    fn random_programs_run_clean() {
        for seed in 0..10 {
            let config = RandomConfig { seed, ..Default::default() };
            let ob = random_object_base(config);
            let program = random_insert_program(config);
            let outcome = evaluate(program, &ob).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            outcome.result().check_invariants();
            outcome.new_object_base().check_invariants();
        }
    }

    #[test]
    fn insert_only_monotone_over_input() {
        // Every original fact survives into the new object base.
        let config = RandomConfig { seed: 3, ..Default::default() };
        let ob = random_object_base(config);
        let outcome = evaluate(random_insert_program(config), &ob).unwrap();
        let ob2 = outcome.new_object_base();
        for fact in ob.iter() {
            assert!(
                ob2.contains(fact.vid, fact.method, fact.args.as_slice(), fact.result),
                "lost fact {fact}"
            );
        }
    }

    #[test]
    fn random_update_programs_stratify_and_run_clean() {
        let mut fired_any = false;
        for seed in 0..20 {
            let config = RandomConfig { seed, rules: 9, ..Default::default() };
            let ob = random_object_base(config);
            let program = random_update_program(config);
            let outcome = evaluate(program, &ob).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            outcome.new_object_base().check_invariants();
            fired_any |= outcome.stats().fired_updates > 0;
            // The negation layer forces at least two strata.
            assert!(outcome.stratification().strata.len() >= 2, "seed {seed}");
        }
        assert!(fired_any, "no generated program fired anything");
    }

    #[test]
    fn engine_agrees_with_reference_on_random_workloads() {
        for seed in 0..6 {
            let config =
                RandomConfig { seed, objects: 12, facts: 36, rules: 6, ..Default::default() };
            let ob = random_object_base(config);
            let program = random_insert_program(config);
            let slow = ruvo_core::reference::evaluate(&program, &ob).unwrap();
            let fast = evaluate(program, &ob).unwrap();
            assert_eq!(fast.result(), &slow.result, "seed {seed}");
        }
    }
}
