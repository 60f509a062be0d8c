//! Property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use ruvo::obase::{check_all_linear, LinearityTracker};
use ruvo::prelude::*;
use ruvo::workload::{random_insert_program, random_object_base, RandomConfig};

/// `result(P)` of `program` on `ob` under `builder`'s configuration,
/// nothing committed.
fn evaluate_with(
    program: Program,
    builder: DatabaseBuilder,
    ob: &ObjectBase,
) -> Result<Outcome, Error> {
    let db = builder.open(ob.clone());
    db.evaluate(&db.prepare_program(program)?)
}

fn evaluate(program: Program, ob: &ObjectBase) -> Result<Outcome, Error> {
    evaluate_with(program, Database::builder(), ob)
}

// ----- term layer ----------------------------------------------------

fn arb_kind() -> impl Strategy<Value = UpdateKind> {
    prop_oneof![Just(UpdateKind::Ins), Just(UpdateKind::Del), Just(UpdateKind::Mod),]
}

fn arb_chain() -> impl Strategy<Value = Chain> {
    proptest::collection::vec(arb_kind(), 0..=Chain::MAX_LEN)
        .prop_map(|kinds| Chain::from_kinds(&kinds).unwrap())
}

proptest! {
    /// push/pop round-trips the full kind sequence.
    #[test]
    fn chain_pack_unpack_roundtrip(kinds in proptest::collection::vec(arb_kind(), 0..=32)) {
        let chain = Chain::from_kinds(&kinds).unwrap();
        prop_assert_eq!(chain.len(), kinds.len());
        let back: Vec<UpdateKind> = chain.iter().collect();
        prop_assert_eq!(back, kinds);
    }

    /// The subterm relation is a partial order.
    #[test]
    fn subterm_is_partial_order(a in arb_chain(), b in arb_chain(), c in arb_chain()) {
        // Reflexive.
        prop_assert!(a.is_prefix_of(a));
        // Antisymmetric.
        if a.is_prefix_of(b) && b.is_prefix_of(a) {
            prop_assert_eq!(a, b);
        }
        // Transitive.
        if a.is_prefix_of(b) && b.is_prefix_of(c) {
            prop_assert!(a.is_prefix_of(c));
        }
    }

    /// Prefix enumeration is consistent with the prefix test.
    #[test]
    fn prefixes_are_exactly_the_subterm_chains(a in arb_chain(), b in arb_chain()) {
        let is_listed = a.prefixes().any(|p| p == b);
        prop_assert_eq!(is_listed, b.is_prefix_of(a));
    }

    /// Chain Ord is a total order consistent with equality.
    #[test]
    fn chain_order_total(a in arb_chain(), b in arb_chain()) {
        use std::cmp::Ordering;
        match a.cmp(&b) {
            Ordering::Equal => prop_assert_eq!(a, b),
            Ordering::Less => prop_assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => prop_assert_eq!(b.cmp(&a), Ordering::Less),
        }
    }

    /// The incremental linearity tracker agrees with the quadratic
    /// reference check on arbitrary version sets.
    #[test]
    fn linearity_tracker_matches_brute_force(
        chains in proptest::collection::vec((0u8..4, arb_chain()), 0..24),
    ) {
        let vids: Vec<Vid> = chains
            .iter()
            .map(|(obj, chain)| Vid::new(oid(&format!("obj{obj}")), *chain))
            .collect();
        let brute = check_all_linear(vids.iter().copied()).is_ok();
        let mut tracker = LinearityTracker::new();
        let incremental = vids.iter().try_for_each(|&v| tracker.record(v)).is_ok();
        // The incremental check can only fail on genuinely non-linear
        // sets, and always fails on them eventually.
        prop_assert_eq!(incremental, brute);
    }
}

// ----- storage layer: copy-on-write independence ----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `clone()` + an arbitrary mutation sequence on the copy leaves
    /// the original bit-identical: same facts, same indexes (checked
    /// exhaustively by `check_invariants`), same serialized bytes.
    #[test]
    fn cow_clone_leaves_original_bit_identical(
        seed in 0u64..400,
        ops in proptest::collection::vec((0u8..5, 0u8..12, 0u8..6, -3i64..6), 1..40),
    ) {
        use ruvo::obase::{snapshot, Args, MethodApp, VersionState};
        let original = random_object_base(RandomConfig { seed, ..Default::default() });
        let bytes_before = snapshot::write(&original);
        let mut copy = original.clone();
        for (kind, obj, meth, val) in ops {
            let vid = Vid::object(oid(&format!("o{obj}")));
            let method = sym(&format!("m{meth}"));
            match kind {
                0 => {
                    copy.insert(vid, method, Args::empty(), int(val));
                }
                1 => {
                    copy.remove(vid, method, &Args::empty(), int(val));
                }
                2 => {
                    copy.remove_version(vid);
                }
                3 => {
                    let mut state = VersionState::new();
                    state.insert(method, MethodApp::new(Args::empty(), int(val)));
                    copy.replace_version(vid, state);
                }
                _ => {
                    copy.insert(vid, ruvo::obase::exists_sym(), Args::empty(), vid.base());
                }
            }
        }
        copy.check_invariants();
        original.check_invariants();
        prop_assert_eq!(snapshot::write(&original), bytes_before);
    }
}

/// The deterministic single-shard case: one write on a clone unshares
/// at most one shard per index — plus, for a new version, the shard of
/// its `(chain, exists)` presence entry — and the still-shared rest
/// keeps serving the original's data.
#[test]
fn cow_clone_unshares_only_the_written_shards() {
    use ruvo::obase::Args;
    let original = random_object_base(RandomConfig::default());
    let mut copy = original.clone();
    assert!(copy.cow_stats(&original).fully_shared());
    copy.insert(Vid::object(oid("one-new-object")), sym("m0"), Args::empty(), int(1));
    let stats = copy.cow_stats(&original);
    assert!(stats.unshared_shards() >= 1 && stats.unshared_shards() <= 4, "{stats}");
    copy.check_invariants();
    original.check_invariants();
    assert_eq!(original, random_object_base(RandomConfig::default()));
}

// ----- language layer -------------------------------------------------

/// Source fragments that exercise every syntactic construct; proptest
/// recombines them into programs and round-trips the pretty-printer.
const RULE_POOL: &[&str] = &[
    "ins[X].anc -> P <= X.isa -> person / parents -> P.",
    "mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1 + 200.",
    "del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).sal -> SB & SE > SB.",
    "ins[mod(E)].isa -> hpe <= mod(E).sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
    "ins[a].p @ x, 3 -> -7.",
    "del[b].q -> 1 <= b.q -> 1 & not b.r -> 2.",
    "mod[mod(E)].sal -> (S2, S) <= mod(E).sal -> S2 & E.sal -> S.",
    "ins[x].'quoted name' -> 'Value X' <= x.k -> 0.5.",
    "ins[E].half -> H <= E.v -> V & H = V / 2 & H >= 1.",
    "ins[ins(mod(mod(peter)))].richest -> yes <= not ins(mod(mod(peter))).richest -> no.",
    "ins[E].seen -> yes <= E.p -> _ & E.q -> _.",
    "ins[audit].flagged -> O <= $V.sal -> S & $V.exists -> O & S > 1000.",
    "ins[hit].both -> S <= $V.p -> S & $V.q -> 2 & not $V.r -> 0.",
];

proptest! {
    /// parse ∘ pretty = id on programs assembled from the pool.
    #[test]
    fn pretty_print_roundtrip(indices in proptest::collection::vec(0..RULE_POOL.len(), 1..8)) {
        let src: String = indices.iter().map(|&i| RULE_POOL[i]).collect::<Vec<_>>().join("\n");
        let p1 = Program::parse(&src).unwrap();
        let printed = p1.to_string();
        let p2 = Program::parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\nprinted:\n{printed}"));
        prop_assert_eq!(p1, p2);
    }

    /// Object-base text round-trips.
    #[test]
    fn object_base_text_roundtrip(seed in 0u64..5000) {
        let ob = random_object_base(RandomConfig { seed, ..Default::default() });
        let text = ob.to_string();
        let back = ObjectBase::parse(&text).unwrap();
        prop_assert_eq!(ob, back);
    }
}

// ----- engine layer ----------------------------------------------------

/// An update-term of `kind` on `target`, updating `method`.
fn update_term(kind: UpdateKind, target: &str, method: &str) -> String {
    match kind {
        UpdateKind::Mod => format!("mod[{target}].{method} -> (1, 2)"),
        kind => format!("{kind}[{target}].{method} -> 1"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Update-terms nested 28–36 deep, in a head, a body literal or a
    /// goal: the parser accepts exactly those whose created version
    /// fits a chain (32 update applications), and whatever it accepts
    /// checks, prepares, evaluates and answers with `Ok` or `Err`,
    /// never a panic.
    #[test]
    fn deep_update_terms_never_panic_past_parse(
        kinds in proptest::collection::vec(arb_kind(), 28..=36),
        outer in arb_kind(),
        place in 0usize..3,
    ) {
        let target = kinds.iter().fold("X".to_owned(), |t, k| format!("{k}({t})"));
        let term = update_term(outer, &target, "p");
        let (src, goal) = match place {
            0 => (format!("r: {term} <= X.q -> 1."), "?- X.p -> 1.".to_owned()),
            1 => (format!("r: ins[X].s -> 1 <= {term}."), "?- ins(X).s -> 1.".to_owned()),
            _ => ("r: ins[X].p -> 1 <= X.q -> 1.".to_owned(), format!("?- {term}.")),
        };
        let fits = kinds.len() < Chain::MAX_LEN;
        prop_assert_eq!(Program::parse(&src).is_ok(), fits || place == 2);
        prop_assert_eq!(Goal::parse(&goal).is_ok(), fits || place != 2);
        let _ = ruvo::core::check::check_source(&src, ruvo::core::CyclePolicy::Reject);
        let db = Database::open(ObjectBase::parse("x.p -> 1. x.q -> 1. y.q -> 2.").unwrap());
        if let Ok(prepared) = db.prepare(&src) {
            let _ = db.evaluate(&prepared);
            let _ = db.query_src(&prepared, &goal);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Evaluation is deterministic and rule-order independent: shuffling
    /// the rules of an insert-only program yields the identical result.
    #[test]
    fn evaluation_rule_order_independent(seed in 0u64..500, rot in 1usize..5) {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let mut rotated = program.clone();
        let shift = rot % rotated.rules.len().max(1);
        rotated.rules.rotate_left(shift);
        let a = evaluate(program, &ob).unwrap();
        let b = evaluate(rotated, &ob).unwrap();
        prop_assert_eq!(a.result(), b.result());
    }

    /// Frame property: objects not touched by any update keep their
    /// state verbatim in the new object base.
    #[test]
    fn frame_property_untouched_objects(seed in 0u64..500) {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let outcome = evaluate(program, &ob).unwrap();
        let finals = outcome.final_versions().unwrap();
        let ob2 = outcome.try_new_object_base().unwrap();
        for (&base, &fv) in &finals {
            if fv.is_object() {
                // Untouched object: identical method-applications.
                let before = ob.version(Vid::object(base));
                let after = ob2.version(Vid::object(base));
                prop_assert_eq!(before, after, "object {}", base);
            }
        }
    }

    /// Insert-only programs are monotone: every input fact survives.
    #[test]
    fn insert_only_is_monotone(seed in 0u64..500) {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let ob2 = evaluate(program, &ob).unwrap().try_new_object_base().unwrap();
        for fact in ob.iter() {
            prop_assert!(
                ob2.contains(fact.vid, fact.method, fact.args.as_slice(), fact.result),
                "lost {}", fact
            );
        }
    }

    /// The indexed, delta-seeded (semi-naive) evaluator and the naive
    /// §3 reference interpreter produce identical object bases on
    /// random programs of arbitrary shape (sizes kept within reach of
    /// the reference's `O(|D|^vars)` grounding).
    #[test]
    fn seminaive_matches_naive(
        seed in 0u64..500,
        objects in 4usize..14,
        methods in 2usize..7,
        rules in 1usize..10,
    ) {
        let config = RandomConfig { seed, objects, methods, facts: objects * 3, rules };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let slow = ruvo::core::reference::evaluate(&program, &ob).unwrap();
        let fast = evaluate(program, &ob).unwrap();
        prop_assert_eq!(fast.result(), &slow.result);
        prop_assert_eq!(fast.try_new_object_base().unwrap(), slow.new_object_base().unwrap());
    }

    /// Either cycle policy agrees with the naive reference, which
    /// checks stability on every stratum, on random workloads.
    #[test]
    fn engine_configs_agree(seed in 0u64..200) {
        use ruvo::core::CyclePolicy;
        let config = RandomConfig { seed, objects: 12, facts: 36, rules: 6, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let reference = ruvo::core::reference::evaluate(&program, &ob).unwrap();
        for cycles in [CyclePolicy::Reject, CyclePolicy::RuntimeStability] {
            let builder = Database::builder().cycle_policy(cycles);
            let outcome = evaluate_with(program.clone(), builder, &ob).unwrap();
            prop_assert_eq!(&reference.result, outcome.result(), "{:?}", cycles);
        }
    }

    /// result(P) always contains the input versions unchanged (updates
    /// create new versions; they never mutate old ones).
    #[test]
    fn old_versions_are_immutable(seed in 0u64..500) {
        let config = RandomConfig { seed, ..Default::default() };
        let ob = random_object_base(config);
        let program = random_insert_program(config);
        let outcome = evaluate(program, &ob).unwrap();
        for fact in ob.iter() {
            prop_assert!(
                outcome.result().contains(fact.vid, fact.method, fact.args.as_slice(), fact.result),
                "input fact {} missing from result(P)", fact
            );
        }
    }
}

// ----- serving layer -------------------------------------------------

use ruvo::workload::{serving_scenario, ServingConfig};

/// Canonical serialization of a committed state, for set-membership
/// comparison against the sequential reference run.
fn canon(ob: &ObjectBase) -> String {
    ob.facts_sorted().iter().map(|f| f.to_string()).collect::<Vec<_>>().join("\n")
}

proptest! {
    // Each case spins up real threads; a small case count keeps the
    // suite fast while still sweeping seeds and write counts.
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Linearizability of reads: under interleaved random writes,
    /// every snapshot a concurrent reader takes serializes to one of
    /// the states of the equivalent sequential run — never a torn or
    /// intermediate state — and the final head is the sequential end
    /// state.
    #[test]
    fn concurrent_snapshots_observe_only_committed_states(
        seed in 0u64..1_000,
        writes in 1usize..6,
    ) {
        let scenario = serving_scenario(ServingConfig {
            objects: 10,
            writers: 2,
            pad_methods: 1,
            seed,
        });
        // Sequential reference run: states S0..Sn.
        let mut reference = Database::open(scenario.ob.clone());
        let programs: Vec<Prepared> = scenario
            .writer_programs
            .iter()
            .map(|p| reference.prepare_program(p.clone()).unwrap())
            .collect();
        // The write sequence alternates between the two writer groups.
        let seq: Vec<usize> = (0..writes).map(|i| i % programs.len()).collect();

        let mut states = vec![canon(reference.current())];
        for &g in &seq {
            reference.apply(&programs[g]).unwrap();
            states.push(canon(reference.current()));
        }

        // Concurrent run: two snapshotting readers race one writer
        // applying the same sequence.
        let db = ServingDatabase::open(scenario.ob.clone());
        let stop = std::sync::atomic::AtomicBool::new(false);
        let observed: Vec<String> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let db = db.clone();
                    let stop = &stop;
                    s.spawn(move || {
                        let mut seen = Vec::new();
                        // At least one snapshot per reader even when
                        // the writer outruns us (e.g. on one CPU the
                        // readers may only get scheduled after the
                        // last commit) — a post-quiescence snapshot is
                        // still a valid observation of the history.
                        loop {
                            seen.push(canon(&db.snapshot()));
                            if stop.load(std::sync::atomic::Ordering::Relaxed) {
                                break;
                            }
                        }
                        seen
                    })
                })
                .collect();
            for &g in &seq {
                db.apply(&programs[g]).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            readers.into_iter().flat_map(|r| r.join().unwrap()).collect()
        });

        prop_assert!(!observed.is_empty());
        for obs in &observed {
            prop_assert!(
                states.contains(obs),
                "observed a state outside the sequential history"
            );
        }
        prop_assert_eq!(canon(&db.current()), states.last().unwrap().clone());
    }
}

/// Deterministic interleaving of head-swap vs snapshot (the loom-style
/// schedule, driven by channels instead of a model checker): a commit
/// inside an open transaction must not be visible to snapshots — nor
/// block them — until the transaction completes and publishes the
/// head with its single pointer swap.
#[test]
fn head_swap_vs_snapshot_deterministic_interleaving() {
    use std::sync::mpsc;

    let db = ServingDatabase::open_src("acct.balance -> 100.").unwrap();
    let credit = db.prepare("mod[A].balance -> (B, B2) <= A.balance -> B & B2 = B + 50.").unwrap();
    let (applied_tx, applied_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let writer = db.clone();
    let handle = std::thread::spawn(move || {
        writer
            .transact(|txn| {
                txn.apply(&credit)?;
                applied_tx.send(()).expect("main thread listens");
                resume_rx.recv().expect("main thread resumes us");
                Ok(())
            })
            .unwrap();
    });

    // Schedule point 1: the writer has committed *inside* its open
    // transaction. The head must still be the pre-transaction state,
    // and reading it must not block on the held writer lock.
    applied_rx.recv().unwrap();
    assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(100)]);
    assert_eq!(db.epoch(), 0, "no publication before the transaction completes");

    // Schedule point 2: let the transaction complete; exactly one
    // publication makes the result visible.
    resume_tx.send(()).unwrap();
    handle.join().unwrap();
    assert_eq!(db.snapshot().lookup1(oid("acct"), "balance"), vec![int(150)]);
    assert_eq!(db.epoch(), 1);
}

// ----- storage layer -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary snapshots round-trip bit-identically: decode recovers
    /// the exact base, and re-encoding the decoded base reproduces
    /// the exact bytes (facts are serialized in canonical order, so
    /// the encoding is independent of insertion history and of
    /// copy-on-write sharing).
    #[test]
    fn snapshot_roundtrip_is_bit_identical(seed in 0u64..5000, facts in 0usize..120) {
        let ob = random_object_base(RandomConfig { seed, facts, ..Default::default() });
        let bytes = ruvo::obase::snapshot::write(&ob);
        let back = ruvo::obase::snapshot::read(&bytes).unwrap();
        prop_assert_eq!(&back, &ob);
        prop_assert_eq!(ruvo::obase::snapshot::write(&back), bytes);
    }

    /// Truncating a snapshot anywhere yields a typed error — never a
    /// panic, never a silently partial base.
    #[test]
    fn snapshot_truncation_always_errors(seed in 0u64..5000, cut_permille in 0usize..1000) {
        let ob = random_object_base(RandomConfig { seed, facts: 40, ..Default::default() });
        let bytes = ruvo::obase::snapshot::write(&ob);
        let cut = (bytes.len() - 1) * cut_permille / 1000;
        prop_assert!(ruvo::obase::snapshot::read(&bytes[..cut]).is_err());
    }

    /// A single bit flip anywhere in a snapshot is detected.
    #[test]
    fn snapshot_bit_flip_always_errors(
        seed in 0u64..5000,
        pos_permille in 0usize..1000,
        bit in 0u8..8,
    ) {
        let ob = random_object_base(RandomConfig { seed, facts: 40, ..Default::default() });
        let mut bytes = ruvo::obase::snapshot::write(&ob).to_vec();
        let pos = (bytes.len() - 1) * pos_permille / 1000;
        bytes[pos] ^= 1 << bit;
        prop_assert!(ruvo::obase::snapshot::read(&bytes).is_err());
    }

    /// WAL-style record frames round-trip arbitrary payload sequences,
    /// and any truncation of the stream yields the longest valid
    /// prefix plus a typed error — never a panic.
    #[test]
    fn record_frames_roundtrip_and_truncate_cleanly(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64), 0..8),
        cut_permille in 0usize..1000,
    ) {
        use ruvo::obase::codec::{append_frame, Frames};
        let mut stream = Vec::new();
        for p in &payloads {
            append_frame(&mut stream, p);
        }
        let decoded: Vec<Vec<u8>> =
            Frames::new(&stream).map(|f| f.unwrap().to_vec()).collect();
        prop_assert_eq!(&decoded, &payloads);

        let cut = stream.len() * cut_permille / 1000;
        let mut frames = Frames::new(&stream[..cut]);
        let mut valid = 0usize;
        for frame in &mut frames {
            match frame {
                Ok(_) => valid += 1,
                Err(_) => break,
            }
        }
        prop_assert!(valid <= payloads.len());
        prop_assert!(frames.good_offset() <= cut);
    }
}

/// A durable database recovers the workload stream's exact reference
/// state for every prefix length (the WAL is a faithful update
/// sequence in the paper's sense).
#[test]
fn recovery_matches_reference_at_every_checkpoint_policy() {
    use ruvo::core::store::CheckpointPolicy;
    use ruvo::workload::{durability_workload, DurabilityConfig};

    let workload = durability_workload(DurabilityConfig { accounts: 4, commits: 18, seed: 9 });
    for max_records in [1u64, 4, u64::MAX] {
        let dir = std::env::temp_dir()
            .join(format!("ruvo-prop-recovery-{max_records}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::builder()
                .data_dir(&dir)
                .checkpoint_policy(CheckpointPolicy {
                    max_wal_records: max_records,
                    ..CheckpointPolicy::never()
                })
                .seed(ObjectBase::parse(&workload.base_src).unwrap())
                .open_dir()
                .unwrap();
            for src in &workload.programs {
                db.apply_src(src).unwrap();
            }
        }
        let recovered = Database::open_dir(&dir).unwrap();
        assert_eq!(
            recovered.current(),
            &workload.state_after(workload.programs.len()),
            "checkpoint policy max_records={max_records}"
        );
    }
}

// ----- demand-driven queries -----------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Demand-driven queries are semantically invisible: on random
    /// programs, `Database::query` returns exactly the goal's matches
    /// against the full evaluation's `result(P)` — for bound and free
    /// goals alike — and never commits a transaction.
    #[test]
    fn demand_queries_match_full_evaluation(
        seed in 0u64..300,
        a in 0usize..20,
        i in 0usize..5,
    ) {
        let config = RandomConfig { seed, ..Default::default() };
        let db = Database::open(random_object_base(config));
        let prepared = db.prepare(&random_insert_program(config).to_string()).unwrap();
        let full = db.evaluate(&prepared).unwrap();
        for goal_src in [format!("?- ins(o{a}).m{i} -> R."), format!("?- ins(X).m{i} -> R.")] {
            let goal = Goal::parse(&goal_src).unwrap();
            let oracle = ruvo::core::match_goal(full.result(), &goal);
            let fast = db.query(&prepared, goal).unwrap();
            prop_assert_eq!(&fast.vars, &oracle.vars, "goal {}", &goal_src);
            prop_assert_eq!(&fast.rows, &oracle.rows, "goal {}", &goal_src);
        }
        prop_assert!(db.is_empty(), "a query must not commit");
    }

    /// The escape hatch — full evaluation, then `match_goal` on its
    /// `result(P)` — is observationally identical to the demand path
    /// when goal and program arrive as text.
    #[test]
    fn demand_escape_hatch_agrees(seed in 0u64..300, i in 0usize..5) {
        let config = RandomConfig { seed, ..Default::default() };
        let db = Database::open(random_object_base(config));
        let prepared = db.prepare(&random_insert_program(config).to_string()).unwrap();
        let goal = format!("?- ins(X).m{i} -> R.");
        let fast = db.query_src(&prepared, &goal).unwrap();
        let full = db.evaluate(&prepared).unwrap();
        let slow = ruvo::core::match_goal(full.result(), &Goal::parse(&goal).unwrap());
        prop_assert_eq!(fast.vars, slow.vars);
        prop_assert_eq!(fast.rows, slow.rows);
    }
}
