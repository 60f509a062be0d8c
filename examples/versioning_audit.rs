//! Version histories as an audit log, and the §5 linearity machinery.
//!
//! ```sh
//! cargo run --example versioning_audit
//! ```
//!
//! `result(P)` keeps every version an update-process created; the VIDs
//! "admit tracing back the history of updates performed on each
//! object" (§1). This example runs a multi-stage update and then walks
//! each object's version chain like an audit log, asks temporal (LTLf)
//! queries over the timelines (§6's "temporal characteristics"), and
//! shows the §5 runtime check rejecting a non-version-linear program.

use ruvo::core::temporal::{FactProp, Formula, Timeline};
use ruvo::prelude::*;

fn main() {
    let mut db = Database::open_src(
        "acct1.owner -> alice.  acct1.balance -> 100.  acct1.status -> active.
         acct2.owner -> bob.    acct2.balance -> 70.   acct2.status -> dormant.",
    )
    .expect("object base parses");

    // Stage 1 (mod): accrue 5% interest on active accounts.
    // Stage 2 (del): drop the status flag of dormant accounts.
    // Stage 3 (ins): tag every account version that went through
    //                stage 1 or 2 with an audit note.
    let audit = db
        .prepare(
            "interest: mod[A].balance -> (B, B2) <=
                 A.status -> active & A.balance -> B & B2 = B * 1.05.
             cleanup: del[A].status -> dormant <= A.status -> dormant.
             audit1: ins[mod(A)].audited -> interest <= mod[A].balance -> (B, B2).
             audit2: ins[del(A)].audited -> cleanup <= del[A].status -> dormant.",
        )
        .expect("program compiles");
    println!("stratification: {}\n", audit.stratification());
    db.apply(&audit).expect("runs");
    let outcome = &db.last_txn().expect("committed").outcome;

    // Walk each object's linear version history.
    for base in ["acct1", "acct2"] {
        println!("history of {base}:");
        let mut versions: Vec<Vid> = outcome.result().versions_of(oid(base)).collect();
        versions.sort_by_key(|v| v.depth());
        for v in versions {
            let state = outcome.result().version(v).expect("the version exists");
            let mut line: Vec<String> =
                state.iter().map(|(m, app)| format!("{m} {app:?}")).collect();
            line.sort();
            println!("  depth {}: {v}\n           {}", v.depth(), line.join(", "));
        }
        println!();
    }

    // Temporal queries over the same data: each object's update
    // process is a finite trace, and ground method-applications are
    // temporal propositions.
    let t1 = Timeline::of(outcome.result(), oid("acct1")).expect("linear");
    let active = Formula::fact(sym("status"), oid("active"));
    let audited = Formula::fact(sym("audited"), oid("interest"));
    // acct1 stayed active throughout and was eventually audited.
    assert!(t1.check(&active.clone().always()));
    assert!(t1.check(&audited.clone().eventually()));
    // ... more precisely: it was active *until* audited.
    assert!(t1.check(&active.until(audited)));
    println!(
        "temporal: acct1 balance intervals {:?}, changed at steps {:?}",
        t1.intervals(&FactProp::new(sym("balance"), int(100))),
        t1.changed_at(sym("balance")),
    );

    let t2 = Timeline::of(outcome.result(), oid("acct2")).expect("linear");
    let dormant = Formula::fact(sym("status"), oid("dormant"));
    // At the end of acct2's trace the flag is gone but was once there.
    let last = t2.len() - 1;
    assert!(t2.eval(last, &!dormant.clone()));
    assert!(t2.eval(last, &Formula::Once(Box::new(dormant))));
    println!("temporal: acct2 went through {} update steps\n", last);

    let ob2 = db.current();
    println!("final object base:\n{ob2}");
    assert_eq!(ob2.lookup1(oid("acct1"), "balance"), vec![int(105)]);
    assert_eq!(ob2.lookup1(oid("acct1"), "audited"), vec![oid("interest")]);
    assert_eq!(ob2.lookup1(oid("acct2"), "status"), vec![]);
    assert_eq!(ob2.lookup1(oid("acct2"), "audited"), vec![oid("cleanup")]);

    // §5: a program creating incomparable versions of one object is
    // rejected at runtime — surfaced through the unified error type,
    // and the database is left exactly as it was.
    let mut bad_db = Database::open_src("o.m -> a.").unwrap();
    let before = bad_db.snapshot();
    let err = bad_db
        .apply_src(
            "mod[o].m -> (a, b) <= o.m -> a.
             del[o].m -> a <= o.m -> a.",
        )
        .expect_err("must be rejected");
    assert_eq!(err.kind(), ErrorKind::Linearity);
    assert_eq!(bad_db.current(), before.object_base());
    println!("\n§5 runtime check fired as expected ({}):\n  {err}", err.kind());
}
