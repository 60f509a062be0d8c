//! The enterprise domain of §2.3: employees with salaries, managers,
//! and a boss hierarchy.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{int, oid, sym, Const, Vid};

/// Parameters for [`Enterprise::generate`].
#[derive(Clone, Copy, Debug)]
pub struct EnterpriseConfig {
    /// Number of employees.
    pub employees: usize,
    /// Fraction that are managers (`pos -> mgr`).
    pub manager_ratio: f64,
    /// Salary range (inclusive), drawn uniformly.
    pub salary_min: i64,
    /// Upper salary bound.
    pub salary_max: i64,
    /// Add `factor -> f` facts (needed by the hypothetical-reasoning
    /// program).
    pub with_factor: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EnterpriseConfig {
    fn default() -> Self {
        EnterpriseConfig {
            employees: 100,
            manager_ratio: 0.2,
            salary_min: 2000,
            salary_max: 6000,
            with_factor: false,
            seed: 0xEC0_FFEE,
        }
    }
}

/// A generated enterprise: the object base plus bookkeeping for
/// assertions and baseline translation.
#[derive(Clone, Debug)]
pub struct Enterprise {
    /// The generated object base (no `exists` facts; the engine adds
    /// them).
    pub ob: ObjectBase,
    /// Employee OIDs, `e0..e{n-1}`.
    pub employees: Vec<Const>,
    /// Which employees are managers.
    pub is_manager: Vec<bool>,
    /// Salary per employee.
    pub salaries: Vec<i64>,
    /// Boss index per employee (`None` for roots of the hierarchy).
    pub boss: Vec<Option<usize>>,
}

impl Enterprise {
    /// Generate an enterprise. Managers form the upper levels of a
    /// forest: every non-manager reports to a uniformly chosen manager,
    /// and every manager except the first reports to an earlier
    /// manager (so the hierarchy is acyclic).
    pub fn generate(config: EnterpriseConfig) -> Enterprise {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let n = config.employees;
        let employees: Vec<Const> = (0..n).map(|i| oid(&format!("e{i}"))).collect();
        let num_managers = ((n as f64) * config.manager_ratio).ceil() as usize;
        let num_managers = num_managers.clamp(usize::from(n > 0), n);

        let mut is_manager = vec![false; n];
        for flag in is_manager.iter_mut().take(num_managers) {
            *flag = true;
        }
        let salaries: Vec<i64> =
            (0..n).map(|_| rng.gen_range(config.salary_min..=config.salary_max)).collect();
        let boss: Vec<Option<usize>> = (0..n)
            .map(|i| {
                if i == 0 {
                    None
                } else if i < num_managers {
                    Some(rng.gen_range(0..i))
                } else {
                    Some(rng.gen_range(0..num_managers))
                }
            })
            .collect();

        let mut ob = ObjectBase::new();
        let (isa, empl, sal, pos, mgr, boss_m, factor) = (
            sym("isa"),
            oid("empl"),
            sym("sal"),
            sym("pos"),
            oid("mgr"),
            sym("boss"),
            sym("factor"),
        );
        for i in 0..n {
            let v = Vid::object(employees[i]);
            ob.insert(v, isa, Args::empty(), empl);
            ob.insert(v, sal, Args::empty(), int(salaries[i]));
            if is_manager[i] {
                ob.insert(v, pos, Args::empty(), mgr);
            }
            if let Some(b) = boss[i] {
                ob.insert(v, boss_m, Args::empty(), employees[b]);
            }
            if config.with_factor {
                // Non-linear raise factors: 1.05 + (i mod 5) / 50.
                let f = 1.05 + (i % 5) as f64 / 50.0;
                ob.insert(v, factor, Args::empty(), ruvo_term::num(f));
            }
        }
        Enterprise { ob, employees, is_manager, salaries, boss }
    }

    /// The same data as a Datalog database for the Logres-style baseline:
    /// `empl(e)`, `sal(e, s)`, `mgr(e)`, `boss(e, b)`.
    pub fn as_datalog(&self) -> ruvo_datalog_db::Database {
        let mut db = ruvo_datalog_db::Database::new();
        let (empl, sal, mgr, boss) = (sym("empl"), sym("sal"), sym("mgr"), sym("boss"));
        for (i, &e) in self.employees.iter().enumerate() {
            db.insert(empl, vec![e]);
            db.insert(sal, vec![e, int(self.salaries[i])]);
            if self.is_manager[i] {
                db.insert(mgr, vec![e]);
            }
            if let Some(b) = self.boss[i] {
                db.insert(boss, vec![e, self.employees[b]]);
            }
        }
        db
    }
}

// The workload crate deliberately depends on the baseline only for the
// Database type; alias the path to keep the dependency surface narrow.
use ruvo_datalog as ruvo_datalog_db;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let a = Enterprise::generate(EnterpriseConfig::default());
        let b = Enterprise::generate(EnterpriseConfig::default());
        assert_eq!(a.ob, b.ob);
        assert_eq!(a.salaries, b.salaries);
        let c = Enterprise::generate(EnterpriseConfig { seed: 7, ..Default::default() });
        assert_ne!(a.salaries, c.salaries);
    }

    #[test]
    fn structure_is_consistent() {
        let e = Enterprise::generate(EnterpriseConfig { employees: 50, ..Default::default() });
        assert_eq!(e.employees.len(), 50);
        // Bosses are acyclic: every boss index is strictly smaller for
        // managers, and points into the manager prefix for the rest.
        let num_managers = e.is_manager.iter().filter(|&&m| m).count();
        for (i, b) in e.boss.iter().enumerate() {
            match b {
                None => assert_eq!(i, 0),
                Some(b) if i < num_managers => assert!(*b < i),
                Some(b) => assert!(*b < num_managers),
            }
        }
        // Facts: isa + sal for everyone, pos for managers, boss for all
        // but e0.
        assert_eq!(e.ob.len(), 50 + 50 + num_managers + 49);
    }

    #[test]
    fn with_factor_adds_factors() {
        let e = Enterprise::generate(EnterpriseConfig {
            employees: 10,
            with_factor: true,
            ..Default::default()
        });
        assert_eq!(e.ob.lookup1(e.employees[0], "factor").len(), 1);
    }

    #[test]
    fn datalog_translation_matches() {
        let e = Enterprise::generate(EnterpriseConfig { employees: 20, ..Default::default() });
        let db = e.as_datalog();
        assert_eq!(db.arity_count(sym("empl")), 20);
        assert_eq!(db.arity_count(sym("sal")), 20);
        assert_eq!(db.arity_count(sym("mgr")), e.is_manager.iter().filter(|&&m| m).count());
        assert_eq!(db.arity_count(sym("boss")), 19);
    }

    #[test]
    fn tiny_enterprises() {
        let e = Enterprise::generate(EnterpriseConfig { employees: 1, ..Default::default() });
        assert_eq!(e.employees.len(), 1);
        assert_eq!(e.boss[0], None);
        let e0 = Enterprise::generate(EnterpriseConfig { employees: 0, ..Default::default() });
        assert!(e0.ob.is_empty());
    }
}
