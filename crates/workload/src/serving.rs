//! Mixed reader/writer scenarios for the concurrent serving layer.
//!
//! A [`ServingScenario`] is a deterministic bundle of the three things
//! a reader-vs-writer experiment needs: an account-shaped object base,
//! one repeatedly-applicable update program per writer (each touching
//! its own disjoint group of objects, so concurrent writers model
//! independent tenants), and a seeded shuffle of read keys for the
//! reader threads. The serving property tests draw from here.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruvo_lang::Program;
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, oid, sym, Const, Vid};

/// Shape parameters for [`serving_scenario`].
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Objects (accounts) in the base.
    pub objects: usize,
    /// Writer groups; objects are dealt round-robin into `writers`
    /// disjoint groups and each group gets its own update program.
    pub writers: usize,
    /// Extra read-only padding methods per object (models the wide
    /// rows a served workload scans past).
    pub pad_methods: usize,
    /// RNG seed for balances and the read-key shuffle.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig { objects: 200, writers: 2, pad_methods: 3, seed: 42 }
    }
}

/// A generated mixed reader/writer workload; see the module docs.
#[derive(Clone, Debug)]
pub struct ServingScenario {
    /// The initial object base.
    pub ob: ObjectBase,
    /// One update program per writer group: `w{g}` credits every
    /// account of group `g` by 1, and stays applicable forever (the
    /// committed base is flat between transactions).
    pub writer_programs: Vec<Program>,
    /// Account OIDs in seeded-shuffle order; readers cycle this.
    pub read_objects: Vec<Const>,
    /// Sum of all balances in the initial base.
    pub initial_balance_sum: i64,
    /// Accounts per writer group (group `g` has `group_size(g)`).
    sizes: Vec<usize>,
}

impl ServingScenario {
    /// Accounts in writer group `g`.
    pub fn group_size(&self, g: usize) -> usize {
        self.sizes[g]
    }

    /// The balance sum after each writer group `g` committed its
    /// program `applies[g]` times: every application credits every
    /// account of the group by exactly 1, so the sum is a complete
    /// serializability witness for the interleaved run.
    pub fn expected_balance_sum(&self, applies: &[usize]) -> i64 {
        let credited: i64 =
            applies.iter().enumerate().map(|(g, &n)| (n * self.sizes[g]) as i64).sum();
        self.initial_balance_sum + credited
    }

    /// Sum the balances readable in `ob` over all accounts.
    pub fn balance_sum(&self, ob: &ObjectBase) -> i64 {
        self.read_objects
            .iter()
            .map(|&acct| match ob.lookup1(acct, "balance").as_slice() {
                [Const::Int(v)] => *v,
                other => panic!("torn or missing balance for {acct}: {other:?}"),
            })
            .sum()
    }
}

/// Generate a deterministic mixed reader/writer scenario.
pub fn serving_scenario(config: ServingConfig) -> ServingScenario {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let writers = config.writers.max(1);
    let mut ob = ObjectBase::new();
    let mut read_objects = Vec::with_capacity(config.objects);
    let mut sizes = vec![0usize; writers];
    let mut initial_balance_sum = 0i64;
    for i in 0..config.objects {
        let acct = oid(&format!("acct{i}"));
        let group = i % writers;
        let balance = rng.gen_range(0..1_000i64);
        initial_balance_sum += balance;
        sizes[group] += 1;
        let v = Vid::object(acct);
        ob.insert(v, sym("grp"), Args::empty(), int(group as i64));
        ob.insert(v, sym("balance"), Args::empty(), int(balance));
        for m in 0..config.pad_methods {
            ob.insert(v, sym(&format!("pad{m}")), Args::empty(), int(rng.gen_range(0..100)));
        }
        read_objects.push(acct);
    }
    // Seeded shuffle so readers do not walk in insertion order.
    for i in (1..read_objects.len()).rev() {
        read_objects.swap(i, rng.gen_range(0..i + 1));
    }
    let writer_programs = (0..writers)
        .map(|g| {
            Program::parse(&format!(
                "w{g}: mod[A].balance -> (B, B2) <= A.grp -> {g} & A.balance -> B & B2 = B + 1."
            ))
            .expect("generated writer program parses")
        })
        .collect();
    ServingScenario { ob, writer_programs, read_objects, initial_balance_sum, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_core::Database;

    #[test]
    fn scenario_is_deterministic() {
        let a = serving_scenario(ServingConfig::default());
        let b = serving_scenario(ServingConfig::default());
        assert_eq!(a.ob, b.ob);
        assert_eq!(a.read_objects, b.read_objects);
        assert_eq!(a.initial_balance_sum, b.initial_balance_sum);
        assert_eq!(a.balance_sum(&a.ob), a.initial_balance_sum);
    }

    #[test]
    fn writer_groups_are_disjoint_and_repeatable() {
        let scenario =
            serving_scenario(ServingConfig { objects: 30, writers: 3, ..Default::default() });
        let mut db = Database::open(scenario.ob.clone());
        let programs: Vec<_> = scenario
            .writer_programs
            .iter()
            .map(|p| db.prepare_program(p.clone()).unwrap())
            .collect();
        // Apply writer 0 twice and writer 2 once; only their groups move.
        db.apply(&programs[0]).unwrap();
        db.apply(&programs[0]).unwrap();
        db.apply(&programs[2]).unwrap();
        let expected = scenario.expected_balance_sum(&[2, 0, 1]);
        assert_eq!(scenario.balance_sum(db.current()), expected);
        assert_eq!(scenario.group_size(0) + scenario.group_size(1) + scenario.group_size(2), 30);
    }
}
