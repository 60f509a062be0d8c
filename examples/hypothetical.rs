//! §2.3's hypothetical reasoning: "would peter be the richest employee
//! after a (non-linear) salary raise?" — performed and revised right
//! away via `mod(mod(e))` versions.
//!
//! ```sh
//! cargo run --example hypothetical
//! ```

use ruvo::prelude::*;
use ruvo::workload::hypothetical_program;

fn main() {
    // peter's factor is large; with it he would overtake everyone.
    let mut db = Database::open_src(
        "peter.isa -> empl.  peter.sal -> 3000.  peter.factor -> 1.8.
         anna.isa -> empl.   anna.sal -> 4000.   anna.factor -> 1.1.
         otto.isa -> empl.   otto.sal -> 5000.   otto.factor -> 1.02.",
    )
    .expect("object base parses");

    let what_if = db.prepare_program(hypothetical_program("peter")).expect("stratifiable");
    println!("stratification: {}\n", what_if.stratification());

    db.apply(&what_if).expect("evaluation succeeds");
    let outcome = &db.last_txn().expect("committed").outcome;

    // The hypothetical salaries live on the mod(·) versions...
    println!("hypothetical (raised) salaries:");
    for name in ["peter", "anna", "otto"] {
        let v = Vid::object(oid(name)).apply(UpdateKind::Mod).unwrap();
        let sal: Vec<Const> = outcome.result().results(v, sym("sal"), &[]).collect();
        println!("  mod({name}).sal = {sal:?}");
    }

    let ob2 = db.current();
    println!("\nupdated object base ob′ (salaries reverted):\n{ob2}");

    // Salaries are unchanged — the raise was revised by rule2.
    assert_eq!(ob2.lookup1(oid("peter"), "sal"), vec![int(3000)]);
    assert_eq!(ob2.lookup1(oid("anna"), "sal"), vec![int(4000)]);
    assert_eq!(ob2.lookup1(oid("otto"), "sal"), vec![int(5000)]);
    // ...but the answer of the hypothetical query is recorded:
    // 3000·1.8 = 5400 beats 4400 and 5100.
    assert_eq!(ob2.lookup1(oid("peter"), "richest"), vec![oid("yes")]);
    println!("peter would be the richest ✓ (recorded, salaries untouched)");

    // Flip the scenario: with a small factor the answer is `no`. The
    // prepared what-if is reusable on the variant base.
    let mut db_no = Database::open_src(
        "peter.isa -> empl.  peter.sal -> 3000.  peter.factor -> 1.1.
         anna.isa -> empl.   anna.sal -> 4000.   anna.factor -> 1.2.",
    )
    .expect("variant parses");
    db_no.apply(&what_if).expect("runs");
    assert_eq!(db_no.current().lookup1(oid("peter"), "richest"), vec![oid("no")]);
    assert_eq!(db_no.current().lookup1(oid("peter"), "sal"), vec![int(3000)]);
    println!("negative variant ✓ (peter would not be the richest)");
}
