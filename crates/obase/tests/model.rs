//! Model-based testing of the object-base store: arbitrary operation
//! sequences against a trivial reference model (per version, a sorted
//! set of fact tuples), with the index invariants checked after every
//! step.

use proptest::prelude::*;
use ruvo_obase::{exists_sym, Args, MethodApp, ObjectBase, VersionState};
use ruvo_term::{int, oid, sym, Chain, Const, Symbol, UpdateKind, Vid};
use std::collections::{BTreeMap, BTreeSet};

type ModelFact = (String, String, Vec<Const>, Const);

/// The model: every present version with its stored facts.
type Model = BTreeMap<Vid, BTreeSet<ModelFact>>;

/// The facts a model enumerates: an empty version as its canonical
/// `exists` fact (§3), like the store.
fn model_facts(model: &Model) -> BTreeSet<ModelFact> {
    let mut out = BTreeSet::new();
    for (&v, facts) in model {
        if facts.is_empty() {
            out.insert(model_key(v, exists_sym(), &[], v.base()));
        }
        out.extend(facts.iter().cloned());
    }
    out
}

#[derive(Clone, Debug)]
enum Op {
    Insert { obj: u8, chain: Vec<UpdateKind>, method: u8, arg: Option<u8>, result: u8 },
    Remove { obj: u8, chain: Vec<UpdateKind>, method: u8, arg: Option<u8>, result: u8 },
    RemoveVersion { obj: u8, chain: Vec<UpdateKind> },
    Replace { obj: u8, chain: Vec<UpdateKind>, method: u8, result: u8 },
    InsertExists { obj: u8, chain: Vec<UpdateKind> },
}

fn arb_kind() -> impl Strategy<Value = UpdateKind> {
    prop_oneof![Just(UpdateKind::Ins), Just(UpdateKind::Del), Just(UpdateKind::Mod)]
}

fn arb_chain_kinds() -> impl Strategy<Value = Vec<UpdateKind>> {
    proptest::collection::vec(arb_kind(), 0..3)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, arb_chain_kinds(), 0u8..3, proptest::option::of(0u8..2), 0u8..5).prop_map(
            |(obj, chain, method, arg, result)| Op::Insert { obj, chain, method, arg, result }
        ),
        (0u8..4, arb_chain_kinds(), 0u8..3, proptest::option::of(0u8..2), 0u8..5).prop_map(
            |(obj, chain, method, arg, result)| Op::Remove { obj, chain, method, arg, result }
        ),
        (0u8..4, arb_chain_kinds()).prop_map(|(obj, chain)| Op::RemoveVersion { obj, chain }),
        (0u8..4, arb_chain_kinds(), 0u8..3, 0u8..5)
            .prop_map(|(obj, chain, method, result)| Op::Replace { obj, chain, method, result }),
        (0u8..4, arb_chain_kinds()).prop_map(|(obj, chain)| Op::InsertExists { obj, chain }),
    ]
}

fn vid(obj: u8, chain: &[UpdateKind]) -> Vid {
    Vid::new(oid(&format!("o{obj}")), Chain::from_kinds(chain).unwrap())
}

fn method_sym(m: u8) -> Symbol {
    sym(&format!("m{m}"))
}

fn args_of(arg: Option<u8>) -> Vec<Const> {
    arg.map(|a| vec![int(a as i64)]).unwrap_or_default()
}

fn model_key(v: Vid, m: Symbol, args: &[Const], r: Const) -> ModelFact {
    (v.to_string(), m.as_str().to_string(), args.to_vec(), r)
}

fn ob_to_model(ob: &ObjectBase) -> BTreeSet<ModelFact> {
    ob.iter().map(|f| model_key(f.vid, f.method, f.args.as_slice(), f.result)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let mut ob = ObjectBase::new();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Insert { obj, chain, method, arg, result } => {
                    let v = vid(obj, &chain);
                    let m = method_sym(method);
                    let args = args_of(arg);
                    let r = int(result as i64);
                    let added = ob.insert(v, m, Args::new(args.clone()), r);
                    let model_added = model.entry(v).or_default().insert(model_key(v, m, &args, r));
                    prop_assert_eq!(added, model_added);
                }
                Op::Remove { obj, chain, method, arg, result } => {
                    // The version stays, emptied or not (§3).
                    let v = vid(obj, &chain);
                    let m = method_sym(method);
                    let args = args_of(arg);
                    let r = int(result as i64);
                    let removed = ob.remove(v, m, &Args::new(args.clone()), r);
                    let key = model_key(v, m, &args, r);
                    let model_removed = model.get_mut(&v).is_some_and(|f| f.remove(&key));
                    prop_assert_eq!(removed, model_removed);
                }
                Op::RemoveVersion { obj, chain } => {
                    let v = vid(obj, &chain);
                    ob.remove_version(v);
                    model.remove(&v);
                }
                Op::Replace { obj, chain, method, result } => {
                    let v = vid(obj, &chain);
                    let m = method_sym(method);
                    let r = int(result as i64);
                    let mut state = VersionState::new();
                    state.insert(m, MethodApp::new(Args::empty(), r));
                    ob.replace_version(v, state);
                    model.insert(v, [model_key(v, m, &[], r)].into());
                }
                Op::InsertExists { obj, chain } => {
                    let v = vid(obj, &chain);
                    let added = ob.insert(v, exists_sym(), Args::empty(), v.base());
                    prop_assert_eq!(added, !model.contains_key(&v));
                    model.entry(v).or_default();
                }
            }
            ob.check_invariants();
            let facts = model_facts(&model);
            prop_assert_eq!(ob_to_model(&ob), facts.clone());
            prop_assert_eq!(ob.len(), facts.len());
            for v in ob.versions() {
                prop_assert!(model.contains_key(&v));
            }
            prop_assert_eq!(ob.versions().count(), model.len());
        }

        // Index queries agree with the model at the end.
        for (mv, mm, margs, mr) in &model_facts(&model) {
            let found = ob.iter().any(|f| {
                f.vid.to_string() == *mv
                    && f.method.as_str() == mm
                    && f.args.as_slice() == margs.as_slice()
                    && f.result == *mr
            });
            prop_assert!(found);
        }

        // Text round-trip preserves equality.
        let text = ob.to_string();
        let back = ObjectBase::parse(&text).unwrap();
        prop_assert_eq!(&ob, &back);
    }
}
