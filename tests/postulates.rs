//! Update postulates as executable checks (Eiter et al., *On
//! Properties of Update Sequences Based on Causal Rejection*; Slota,
//! Baláž & Leite, *On Strong and Default Negation in Logic Program
//! Updates*), run as **commit sequences** on random bases.
//!
//! Every commit goes through a [`Database`] and, independently, through
//! the §3–§5 reference interpreter (`ruvo::core::reference`, which also
//! checks stability on every stratum); the two must agree on every
//! intermediate `ob′` before a postulate is judged.
//!
//! | postulate                                           | verdict |
//! |-----------------------------------------------------|---------|
//! | the empty program is the identity                   | holds   |
//! | a tautological update is the identity               | holds   |
//! | deleting an absent fact is a no-op                  | holds   |
//! | `del` then `ins` of one application restores        | holds   |
//! | committing P₁; P₂ equals recovering from their log  | holds   |
//! | `ob′` holds each object's deepest version (§5)      | holds   |
//! | an `ins` program writing nothing it reads is idempotent | holds |

use ruvo::core::reference;
use ruvo::prelude::*;
use ruvo::workload::{
    random_insert_program, random_object_base, random_update_program, RandomConfig,
};

/// Random bases small enough for the reference's `O(|D|^vars)`
/// grounding: 8 objects, 4 methods `m0..m3`, 24 facts.
fn cases() -> impl Iterator<Item = (RandomConfig, ObjectBase)> {
    (0..40u64).map(|seed| {
        let config = RandomConfig { objects: 8, methods: 4, facts: 24, rules: 4, seed };
        (config, random_object_base(config))
    })
}

/// Commit `src` on `db` and check the new head against the reference's
/// `ob′` from the previous head. Returns the new head.
fn commit(db: &mut Database, src: &str) -> ObjectBase {
    let before = db.current().clone();
    let program = Program::parse(src).unwrap();
    let expected = reference::evaluate(&program, &before)
        .unwrap_or_else(|e| panic!("reference: {e}\n{src}\non {before}"))
        .new_object_base()
        .unwrap();
    db.apply_src(src).unwrap_or_else(|e| panic!("engine: {e}\n{src}\non {before}"));
    assert_eq!(db.current(), &expected, "engine and reference disagree on\n{src}\nfrom {before}");
    expected
}

#[test]
fn the_empty_program_is_the_identity() {
    for (_, ob) in cases() {
        let mut db = Database::open(ob.clone());
        assert_eq!(commit(&mut db, ""), ob);
        assert_eq!(db.len(), 1, "the empty program still commits one transaction");
    }
}

#[test]
fn a_tautological_update_is_the_identity() {
    for (config, ob) in cases() {
        let mut db = Database::open(ob.clone());
        assert_eq!(commit(&mut db, "ins[X].m0 -> R <= X.m0 -> R."), ob, "seed {}", config.seed);
        // Every method at once, and once more on the result.
        let all: String =
            (0..config.methods).map(|m| format!("ins[X].m{m} -> R <= X.m{m} -> R.\n")).collect();
        assert_eq!(commit(&mut db, &all), ob, "seed {}", config.seed);
        assert_eq!(commit(&mut db, &all), ob, "seed {}", config.seed);
    }
}

#[test]
fn deleting_an_absent_fact_is_a_no_op() {
    for (config, ob) in cases() {
        let mut db = Database::open(ob.clone());
        // Results are below 100 or objects: 999 is never stored; `ghost`
        // is no object; `m9` no method.
        for src in [
            "del[o1].m0 -> 999.",
            "del[ghost].m0 -> 1.",
            "del[X].m9 -> R <= X.m0 -> R.",
            "del[X].m1 -> 999 <= X.m1 -> R.",
        ] {
            assert_eq!(commit(&mut db, src), ob, "seed {}: {src}", config.seed);
        }
    }
}

#[test]
fn del_then_ins_of_one_application_restores_the_state() {
    for (config, ob) in cases() {
        let mut db = Database::open(ob.clone());
        // Every stored application in turn, each in two commits: the
        // delete can empty its object (which then leaves `ob′`), and the
        // insert brings it back.
        for fact in ob.facts_sorted() {
            let (o, m, r) = (fact.vid.base(), fact.method, fact.result);
            let deleted = commit(&mut db, &format!("del[{o}].{m} -> {r}."));
            assert!(!deleted.contains(fact.vid, m, &[], r), "seed {}: {fact}", config.seed);
            assert_eq!(
                commit(&mut db, &format!("ins[{o}].{m} -> {r}.")),
                ob,
                "seed {}: {fact}",
                config.seed
            );
        }
    }
}

#[test]
fn committing_p1_then_p2_equals_recovering_from_the_log() {
    for (config, ob) in cases() {
        let dir = std::env::temp_dir().join(format!(
            "ruvo-postulates-{}-{}",
            config.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let p1 = random_update_program(config).to_string();
        let p2 = random_insert_program(config).to_string();
        let live = {
            let mut db = Database::builder()
                .data_dir(&dir)
                .fsync(FsyncPolicy::Never)
                .seed(ob.clone())
                .open_dir()
                .unwrap();
            assert_eq!(db.current(), &ob);
            commit(&mut db, &p1);
            commit(&mut db, &p2)
        };
        let recovered = Database::open_dir(&dir).unwrap();
        assert_eq!(recovered.current(), &live, "seed {}\nP1:\n{p1}\nP2:\n{p2}", config.seed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `random_insert_program` with its heads renamed to fresh methods
/// `h0..h3`, so that they write nothing a body reads, and every second
/// rule reading its first literal through `ins(X)`, which the other
/// rules create: those rules fire in a later round, on versions that
/// already exist, which are repaired in place.
fn insert_program_reading_nothing_it_writes(config: RandomConfig) -> String {
    let program = random_insert_program(config).to_string();
    let rules = program.lines().enumerate().map(|(i, rule)| {
        let rule = rule.replace("ins[X].m", "ins[X].h");
        if i % 2 == 1 {
            rule.replace("<= X.m", "<= ins(X).m")
        } else {
            rule
        }
    });
    rules.collect::<Vec<_>>().join("\n")
}

/// Idempotence (Eiter et al.): committing an `ins`-only program twice
/// leaves the first commit's head when its heads write no method its
/// bodies read. The second commit derives the same updates, and each
/// lands on a fact the frame copy already holds. (A `mod` program is
/// not idempotent: it applies again.)
#[test]
fn an_insert_program_writing_nothing_it_reads_is_idempotent() {
    let mut repaired = 0;
    for (config, ob) in cases() {
        let src = insert_program_reading_nothing_it_writes(config);
        let mut db = Database::open(ob);
        let once = commit(&mut db, &src);
        assert_eq!(commit(&mut db, &src), once, "seed {}\n{src}", config.seed);
        // A stratum that ran a second round repaired versions in place.
        let mut again = Database::open(once);
        let traces = again.apply_src(&src).unwrap().outcome.stratum_traces();
        repaired += usize::from(traces.iter().any(|s| s.rounds > 2));
    }
    assert!(repaired > 0, "no second commit repaired a version in place");
}

/// A seeded head whose object `o` has a linear chain of three versions.
const LINEAR_SEED: &str = "o.p -> 1. ins(o).p -> 2. mod(ins(o)).p -> 3. z.q -> 0.";
/// A seeded head whose object `o` has two incomparable versions.
const BRANCHING_SEED: &str = "o.p -> 1. ins(o).p -> 2. del(o).p -> 3. z.q -> 0.";
/// A program that never touches `o`.
const UNRELATED: &str = "ins[z].r -> 1 <= z.q -> 0.";

/// §5: "the final version of o is that version … whose VID contains
/// all VIDs of the other versions of o as a subterm", whether or not
/// the run touched `o`, and a head without one is refused.
#[test]
fn ob_prime_holds_each_objects_deepest_version() {
    let program = Program::parse(UNRELATED).unwrap();
    let dir = std::env::temp_dir().join(format!("ruvo-postulates-final-{}", std::process::id()));
    let durable = |seed: &str| {
        let _ = std::fs::remove_dir_all(&dir);
        let seed = ObjectBase::parse(seed).unwrap();
        let builder = Database::builder().data_dir(&dir).fsync(FsyncPolicy::Never);
        builder.seed(seed).open_dir().unwrap()
    };

    // A linear, non-flat head: `o` commits `mod(ins(o))`'s state on
    // every handle, volatile or durable, and after a reopen.
    let seed = ObjectBase::parse(LINEAR_SEED).unwrap();
    let expected = reference::evaluate(&program, &seed).unwrap().new_object_base().unwrap();
    assert_eq!(expected.lookup1(oid("o"), "p"), vec![int(3)]);
    let mut db = Database::open(seed.clone());
    assert_eq!(commit(&mut db, UNRELATED), expected);
    let serving = ServingDatabase::open(seed);
    serving.apply_src(UNRELATED).unwrap();
    assert_eq!(&*serving.current(), &expected);
    let mut db = durable(LINEAR_SEED);
    assert_eq!(commit(&mut db, UNRELATED), expected);
    drop(db);
    assert_eq!(Database::open_dir(&dir).unwrap().current(), &expected);
    let serving = durable(LINEAR_SEED).into_serving();
    serving.apply_src(UNRELATED).unwrap();
    assert_eq!(&*serving.current(), &expected);
    drop(serving);
    assert_eq!(Database::open_dir(&dir).unwrap().current(), &expected);

    // A branching head has no final version for `o`: the reference
    // and every handle refuse it with one error kind, and nothing moves.
    let seed = ObjectBase::parse(BRANCHING_SEED).unwrap();
    let refused = reference::evaluate(&program, &seed).unwrap_err();
    assert_eq!(Error::from(refused).kind(), ErrorKind::Linearity);
    for mut db in [Database::open(seed.clone()), durable(BRANCHING_SEED)] {
        let head = db.current().clone();
        assert_eq!(db.apply_src(UNRELATED).unwrap_err().kind(), ErrorKind::Linearity);
        assert_eq!(db.current(), &head);
        assert!(db.is_empty(), "a refused apply logs nothing");
    }
    let serving = durable(BRANCHING_SEED).into_serving();
    let head = serving.current();
    assert_eq!(serving.apply_src(UNRELATED).unwrap_err().kind(), ErrorKind::Linearity);
    assert_eq!(serving.current(), head);
    assert_eq!((serving.epoch(), serving.commits()), (0, 0));
    drop(serving);
    let reopened = Database::open_dir(&dir).unwrap();
    assert_eq!(reopened.current(), &*head);
    assert!(reopened.is_empty(), "a refused apply writes no WAL record");
    let _ = std::fs::remove_dir_all(&dir);
}
