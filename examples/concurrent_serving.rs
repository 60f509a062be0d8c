//! Concurrent serving: many snapshot readers over a committing writer.
//!
//! `Database` is a single-owner handle; `ServingDatabase` upgrades it
//! into a cloneable, thread-safe one. Readers load the published head
//! with a couple of atomic operations — they never wait while a
//! commit is being computed — and every snapshot is a stable,
//! point-in-time view. Writes funnel through a single writer with
//! group commit: concurrent `apply` calls are drained as one batch
//! and the new head is published with one pointer swap.
//!
//! Run with: `cargo run --example concurrent_serving`

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

use ruvo::prelude::*;
use ruvo::workload::{serving_scenario, ServingConfig};

fn main() {
    // A deterministic mixed workload: 60 accounts dealt into two
    // writer groups, each group credited by its own update program.
    let scenario =
        serving_scenario(ServingConfig { objects: 60, writers: 2, pad_methods: 2, seed: 7 });
    let db = Database::open(scenario.ob.clone());
    let programs: Vec<Prepared> = scenario
        .writer_programs
        .iter()
        .map(|p| db.prepare_program(p.clone()).expect("prepares"))
        .collect();
    let db = db.into_serving();

    const COMMITS_PER_WRITER: usize = 25;
    let done = AtomicBool::new(false);
    let observed = thread::scope(|s| {
        // Three readers poll snapshots for the duration of the run.
        // Every balance sum they observe is *some* committed state:
        // never a torn one, never a half-applied transaction.
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let db = db.clone();
                let scenario = &scenario;
                let done = &done;
                s.spawn(move || {
                    let mut snapshots = 0u64;
                    let group = scenario.group_size(0) as i64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = db.snapshot();
                        let credited = scenario.balance_sum(&snap) - scenario.initial_balance_sum;
                        // Each commit credits one whole group: any sum
                        // that is not a multiple of the group size is a
                        // torn read of a half-applied transaction.
                        assert_eq!(credited % group, 0, "torn read: {credited} credits");
                        assert!((0..=2 * COMMITS_PER_WRITER as i64 * group).contains(&credited));
                        snapshots += 1;
                    }
                    snapshots
                })
            })
            .collect();

        // Two writers, one per account group, committing concurrently.
        let writers: Vec<_> = programs
            .iter()
            .map(|prepared| {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..COMMITS_PER_WRITER {
                        db.apply(prepared).expect("commit succeeds");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer");
        }
        done.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("reader")).sum::<u64>()
    });

    // Every commit credited every account of its group exactly once.
    let expected = scenario.expected_balance_sum(&[COMMITS_PER_WRITER, COMMITS_PER_WRITER]);
    let final_sum = scenario.balance_sum(&db.current());
    assert_eq!(final_sum, expected);
    println!("{} commits across 2 writers, {} snapshots across 3 readers", db.commits(), observed);
    println!(
        "final balance sum {final_sum} == initial {} + {} credits ✓",
        scenario.initial_balance_sum,
        expected - scenario.initial_balance_sum
    );
    println!("head published {} times (group commit folds batches)", db.epoch());
}
