//! The §2.3 enterprise update and the Figure-2 trace.
//!
//! ```sh
//! cargo run --example enterprise
//! ```
//!
//! Four rules: raise every salary by 10% (managers get an extra $200),
//! fire employees who out-earn a superior, and group the surviving
//! employees above $4500 into `hpe` (high-paid employees). The example
//! prints the version history of `phil` and `bob` — the paper's
//! Figure 2 — and checks the paper's stated outcome: "the update (as a
//! whole) leaves phil in the class hpe with a salary of $4600 and bob
//! fired".

use ruvo::prelude::*;
use ruvo::workload::{enterprise_program, PAPER_ENTERPRISE_OB};

fn main() {
    let mut db = Database::open_src(PAPER_ENTERPRISE_OB).expect("object base parses");
    println!("to-be-updated object base:\n{}", db.current());

    // Compiled once; reused below on the §2.4 variant base.
    let update = db.prepare_program(enterprise_program()).expect("stratifiable");
    let strat = update.stratification();
    println!("stratification (paper: {{rule1, rule2}} < {{rule3}} < {{rule4}}):\n  {strat}\n");

    db.apply(&update).expect("evaluation succeeds");
    let outcome = &db.last_txn().expect("committed").outcome;

    // Figure 2: the version history of each object.
    for name in ["phil", "bob"] {
        println!("versions of {name}:");
        let mut versions: Vec<Vid> = outcome.result().versions_of(oid(name)).collect();
        versions.sort_by_key(|v| v.depth());
        for v in versions {
            let state = outcome.result().version(v).expect("version has facts");
            let mut apps: Vec<String> =
                state.iter().map(|(m, app)| format!("{m} {app:?}")).collect();
            apps.sort();
            println!("  {v}: {}", apps.join(", "));
        }
        println!();
    }

    let ob2 = db.current();
    println!("updated object base ob′:\n{ob2}");

    // The paper's stated outcome.
    let phil_isa = ob2.lookup1(oid("phil"), "isa");
    assert!(phil_isa.contains(&oid("empl")), "phil is still an employee");
    assert!(phil_isa.contains(&oid("hpe")), "phil joined hpe");
    assert_eq!(ob2.lookup1(oid("phil"), "sal"), vec![int(4600)], "phil earns $4600");
    assert!(!ob2.objects().any(|o| o == oid("bob")), "bob was fired (erased entirely)");
    println!("paper outcome reproduced ✓ (phil: hpe @ $4600; bob: fired)");

    // §2.4's control discussion: if bob earned only $4100, firing him
    // before the raise would have been wrong — the VIDs prevent that.
    // The prepared program is database-independent: reuse it here.
    let mut variant = Database::open_src(
        "phil.isa -> empl.  phil.pos -> mgr.    phil.sal -> 4000.
         bob.isa -> empl.   bob.boss -> phil.   bob.sal -> 4100.",
    )
    .expect("variant parses");
    variant.apply(&update).expect("runs");
    let ob2 = variant.current();
    assert_eq!(
        ob2.lookup1(oid("bob"), "sal"),
        vec![int(4510)],
        "bob (4100 → 4510) keeps his job: raises happen before firing"
    );
    assert!(ob2.lookup1(oid("bob"), "isa").contains(&oid("hpe")), "and he is hpe now");
    println!("§2.4 variant reproduced ✓ (bob at $4100 survives and joins hpe)");
}
