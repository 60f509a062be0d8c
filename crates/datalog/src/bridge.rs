//! Bridging flat object bases and Datalog databases — the "derived
//! methods" workflow of the paper's §6.
//!
//! §6: "we did not consider derived objects. We do not see any
//! principal problems to generalize our approach in this direction."
//! The decoupled generalization implemented here: run the update
//! program on the base methods (ruvo-core), then evaluate *derived*
//! methods as Datalog views over the updated object base:
//!
//! 1. [`ob_to_db`] maps a **flat** object base (every version is an
//!    initial version, e.g. the `ob′` produced by
//!    `Outcome::try_new_object_base`) to a database: a method `m` with `k`
//!    arguments becomes a `(k+2)`-ary predicate `m(base, a1..ak, r)`.
//! 2. Derived methods are defined by ordinary Datalog rules and
//!    evaluated with [`crate::evaluate`].
//! 3. [`db_to_ob`] maps (selected predicates of) the database back to
//!    an object base, so derived results can seed the next update.
//!
//! Keeping derivation outside the update fixpoint preserves the
//! paper's termination and stratification story unchanged.

use ruvo_obase::{Args, ObjectBase};
use ruvo_term::{Symbol, Vid};

use crate::db::Database;

/// Error: the object base contains a non-initial version and cannot be
/// represented relationally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotFlat {
    /// The offending version.
    pub vid: String,
}

impl std::fmt::Display for NotFlat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "object base is not flat: version {} has an update chain; \
             bridge the result of try_new_object_base() instead of result(P)",
            self.vid
        )
    }
}

impl std::error::Error for NotFlat {}

/// Map a flat object base to a database: `v.m@a1..ak -> r` becomes
/// `m(v, a1, ..., ak, r)`.
pub fn ob_to_db(ob: &ObjectBase) -> Result<Database, NotFlat> {
    let mut db = Database::new();
    for fact in ob.iter() {
        if !fact.vid.is_object() {
            return Err(NotFlat { vid: fact.vid.to_string() });
        }
        let mut tuple = Vec::with_capacity(fact.args.len() + 2);
        tuple.push(fact.vid.base());
        tuple.extend(fact.args.iter().copied());
        tuple.push(fact.result);
        db.insert(fact.method, tuple);
    }
    Ok(db)
}

/// Map selected predicates of a database back to a (flat) object base;
/// tuples `m(o, a1..ak, r)` become `o.m@a1..ak -> r`. Zero- and
/// one-ary predicates cannot carry both an object and a result and are
/// rejected with `None` (pick predicates of arity ≥ 2).
pub fn db_to_ob(db: &Database, predicates: &[Symbol]) -> Option<ObjectBase> {
    let mut ob = ObjectBase::new();
    for &pred in predicates {
        for tuple in db.tuples(pred) {
            if tuple.len() < 2 {
                return None;
            }
            let base = tuple[0];
            let result = *tuple.last().expect("len >= 2");
            let args = tuple[1..tuple.len() - 1].to_vec();
            ob.insert(Vid::object(base), pred, Args::new(args), result);
        }
    }
    Some(ob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate, parse_program, Semantics};
    use ruvo_term::{int, oid, sym, UpdateKind};

    #[test]
    fn roundtrip_flat_base() {
        let ob = ObjectBase::parse("a.p -> 1. a.q @ x -> 2. b.p -> 3.").unwrap();
        let db = ob_to_db(&ob).unwrap();
        assert!(db.contains(sym("p"), &[oid("a"), int(1)]));
        assert!(db.contains(sym("q"), &[oid("a"), oid("x"), int(2)]));
        let back = db_to_ob(&db, &[sym("p"), sym("q")]).unwrap();
        assert_eq!(back, ob);
    }

    #[test]
    fn non_flat_rejected() {
        let mut ob = ObjectBase::parse("a.p -> 1.").unwrap();
        ob.insert(
            Vid::object(oid("a")).apply(UpdateKind::Mod).unwrap(),
            sym("p"),
            Args::empty(),
            int(2),
        );
        let err = ob_to_db(&ob).unwrap_err();
        assert!(err.to_string().contains("mod(a)"), "got: {err}");
    }

    #[test]
    fn derived_view_workflow() {
        // A derived method: grandboss = boss of boss.
        let ob = ObjectBase::parse("e1.boss -> e2. e2.boss -> e3. e3.sal -> 9000.").unwrap();
        let mut db = ob_to_db(&ob).unwrap();
        let views = parse_program("grandboss(E, B2) <= boss(E, B) & boss(B, B2).").unwrap();
        evaluate(&mut db, &views, Semantics::Modules, 100);
        let derived = db_to_ob(&db, &[sym("grandboss")]).unwrap();
        assert_eq!(derived.lookup1(oid("e1"), "grandboss"), vec![oid("e3")]);
    }

    #[test]
    fn arity_too_small_for_ob() {
        let mut db = Database::new();
        db.insert(sym("unary"), vec![oid("a")]);
        assert!(db_to_ob(&db, &[sym("unary")]).is_none());
    }
}
