//! Quickstart: the paper's §2.1 salary-raise rule, end to end.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Demonstrates the core loop: open a `Database` over an object base,
//! prepare an update-program once, take a snapshot, apply the program
//! transactionally, and inspect both the new state and the version
//! history the transaction kept.

use ruvo::prelude::*;

fn main() {
    // An object base is a set of ground version-terms (§2.1).
    let mut db = Database::open_src(
        "henry.isa -> empl.  henry.sal -> 250.
         mary.isa -> empl.   mary.sal -> 300.
         rex.isa -> dog.     rex.sal -> 0.",
    )
    .expect("object base parses");

    // "To every employee a 10% salary-raise has to be performed."
    // The rule matches only *initial* versions (the variable E ranges
    // over OIDs, never VIDs), so every employee is raised exactly once
    // and bottom-up evaluation terminates. `prepare` parses, validates,
    // safety-checks and stratifies exactly once.
    let raise = db
        .prepare("raise: mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.")
        .expect("program compiles");
    println!("stratification: {}\n", raise.stratification());

    // An O(1) read view of the pre-transaction state.
    let before = db.snapshot();

    db.apply(&raise).expect("transaction commits");

    let txn = db.last_txn().expect("one transaction committed");
    println!("result(P) — every version, including the update history:");
    print!("{}", txn.outcome.result());

    println!("\nupdated object base ob′:");
    print!("{}", db.current());

    println!("\nstats: {}", txn.outcome.stats());

    assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![int(275)]);
    assert_eq!(db.current().lookup1(oid("mary"), "sal"), vec![int(330)]);
    assert_eq!(db.current().lookup1(oid("rex"), "sal"), vec![int(0)], "dogs get no raise");
    // The snapshot still sees the old state — readers never block.
    assert_eq!(before.lookup1(oid("henry"), "sal"), vec![int(250)]);

    // A prepared program is reusable: apply it again for another 10%.
    db.apply(&raise).expect("second transaction commits");
    assert_eq!(db.current().lookup1(oid("henry"), "sal"), vec![num(302.5)]);
    println!("\nall assertions hold ✓ ({} transactions committed)", db.len());
}
