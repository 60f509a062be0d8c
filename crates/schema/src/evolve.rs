//! Update-driven schema evolution (§2.4 / Skarra-Zdonik).
//!
//! "The way we consider inserts and deletions would require changes of
//! corresponding class-definitions in a strongly typed environment,
//! because methods become undefined, respectively defined w.r.t. some
//! objects according to the type of the update."
//!
//! [`diff`] compares the object bases before and after an
//! update-program and infers exactly that: per class, which methods
//! *became defined* (some member now carries them) and which *became
//! undefined* (no member carries them any more), plus classes that
//! appeared in `isa` results without a schema definition and classes
//! whose membership emptied. [`Schema::evolve`] applies the delta.

use ruvo_obase::ObjectBase;
use ruvo_term::{Const, FastHashMap, FastHashSet, Symbol, Vid};

use crate::check::membership;
use crate::isa_sym;
use crate::types::{MethodSig, Schema, SchemaError, TypeRef};

/// An inferred schema change.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchemaDelta {
    /// `(class, signature)`: the method became defined for members of
    /// the class; the signature is inferred from the observed
    /// applications (arity, result type, set-valuedness).
    pub added_methods: Vec<(Symbol, MethodSig)>,
    /// `(class, method)`: no member of the class defines the method
    /// any more.
    pub removed_methods: Vec<(Symbol, Symbol)>,
    /// Classes appearing in `isa` results that the schema lacks,
    /// with their inferred method signatures.
    pub new_classes: Vec<(Symbol, Vec<MethodSig>)>,
    /// Schema classes that lost their last member.
    pub emptied_classes: Vec<Symbol>,
}

impl SchemaDelta {
    /// True if the update-program implied no schema change.
    pub fn is_empty(&self) -> bool {
        self.added_methods.is_empty()
            && self.removed_methods.is_empty()
            && self.new_classes.is_empty()
            && self.emptied_classes.is_empty()
    }
}

/// Infer the result type covering every observed constant.
fn infer_type(values: &[Const]) -> TypeRef {
    if values.iter().all(|v| matches!(v, Const::Int(_))) {
        TypeRef::Int
    } else if values.iter().all(|v| matches!(v, Const::Int(_) | Const::Num(_))) {
        TypeRef::Num
    } else if values.iter().all(|v| matches!(v, Const::Sym(_))) {
        TypeRef::Sym
    } else {
        TypeRef::Any
    }
}

/// Per-method observations: (arities, results, any member multi-valued).
type MethodObservations = FastHashMap<Symbol, (FastHashSet<usize>, Vec<Const>, bool)>;

/// The methods defined by at least one member of each class, with the
/// observations needed for signature inference.
struct ClassMethods {
    /// class → method → observations
    per_class: FastHashMap<Symbol, MethodObservations>,
    /// classes with at least one member
    inhabited: FastHashSet<Symbol>,
}

fn class_methods(ob: &ObjectBase, schema: &Schema) -> ClassMethods {
    let isa = isa_sym();
    let member_of = membership(ob, schema);
    let mut per_class: FastHashMap<Symbol, MethodObservations> = FastHashMap::default();
    let mut inhabited: FastHashSet<Symbol> = FastHashSet::default();
    for base in ob.objects() {
        let Some(state) = ob.version(Vid::object(base)) else { continue };
        let Some(classes) = member_of.get(&base) else { continue };
        inhabited.extend(classes.iter().copied());
        for &class in classes {
            let slot = per_class.entry(class).or_default();
            let mut args_seen: FastHashMap<(Symbol, Vec<Const>), usize> = FastHashMap::default();
            for (method, app) in state.iter() {
                if method == isa {
                    continue;
                }
                let entry = slot.entry(method).or_default();
                entry.0.insert(app.args.len());
                entry.1.push(app.result);
                let n = args_seen.entry((method, app.args.as_slice().to_vec())).or_insert(0);
                *n += 1;
                if *n >= 2 {
                    entry.2 = true;
                }
            }
        }
    }
    ClassMethods { per_class, inhabited }
}

/// Infer the schema delta an update-program implied, from the object
/// bases before (`ob`) and after (`ob2`) its execution.
pub fn diff(schema: &Schema, ob: &ObjectBase, ob2: &ObjectBase) -> SchemaDelta {
    let before = class_methods(ob, schema);
    let after = class_methods(ob2, schema);

    let mut delta = SchemaDelta::default();

    // Classes present after the update.
    let mut after_classes: Vec<Symbol> = after.per_class.keys().copied().collect();
    after_classes.extend(after.inhabited.iter().copied());
    after_classes.sort_by_key(|s| s.as_str().to_owned());
    after_classes.dedup();

    for &class in &after_classes {
        let before_methods = before.per_class.get(&class);
        let empty = FastHashMap::default();
        let after_methods = after.per_class.get(&class).unwrap_or(&empty);

        let mut sigs: Vec<MethodSig> = Vec::new();
        for (&method, (arities, results, multi)) in after_methods {
            let defined_before = before_methods.is_some_and(|m| m.contains_key(&method));
            if !defined_before {
                let arity = arities.iter().copied().max().unwrap_or(0);
                let mut sig = MethodSig {
                    name: method,
                    arity,
                    arg_types: vec![TypeRef::Any; arity],
                    result: infer_type(results),
                    required: false,
                    set_valued: *multi,
                };
                // Already declared (e.g. inherited)? Then nothing new.
                if schema.has_class(class)
                    && schema.resolved_methods(class).iter().any(|m| m.name == method)
                {
                    continue;
                }
                if schema.has_class(class) {
                    delta.added_methods.push((class, sig));
                } else {
                    sig.set_valued = *multi;
                    sigs.push(sig);
                }
            }
        }
        if !schema.has_class(class) && after.inhabited.contains(&class) {
            sigs.sort_by_key(|s| s.name.as_str().to_owned());
            delta.new_classes.push((class, sigs));
        }
    }

    // Removed methods: defined for some member before, for none after.
    let mut before_classes: Vec<Symbol> = before.per_class.keys().copied().collect();
    before_classes.sort_by_key(|s| s.as_str().to_owned());
    for &class in &before_classes {
        if !schema.has_class(class) {
            continue;
        }
        let empty = FastHashMap::default();
        let after_methods = after.per_class.get(&class).unwrap_or(&empty);
        let mut removed: Vec<Symbol> = before.per_class[&class]
            .keys()
            .filter(|m| !after_methods.contains_key(m))
            .copied()
            .collect();
        removed.sort_by_key(|s| s.as_str().to_owned());
        for method in removed {
            delta.removed_methods.push((class, method));
        }
    }

    // Emptied classes.
    let mut emptied: Vec<Symbol> = before
        .inhabited
        .iter()
        .filter(|c| schema.has_class(**c) && !after.inhabited.contains(*c))
        .copied()
        .collect();
    emptied.sort_by_key(|s| s.as_str().to_owned());
    delta.emptied_classes = emptied;

    delta.added_methods.sort_by_key(|(c, m)| (c.as_str().to_owned(), m.name.as_str().to_owned()));
    delta.removed_methods.sort_by_key(|(c, m)| (c.as_str().to_owned(), m.as_str().to_owned()));
    delta
}

impl Schema {
    /// Apply a [`SchemaDelta`], yielding the evolved schema.
    ///
    /// New classes are added parentless; added methods extend the
    /// class's own declarations; removed methods are dropped from the
    /// class's own declarations (inherited declarations stay with the
    /// ancestor — removing them there would affect sibling classes).
    /// Emptied classes are *kept* (an empty extent is not a missing
    /// type); they are reported for the DBA to decide.
    pub fn evolve(mut self, delta: &SchemaDelta) -> Result<Schema, SchemaError> {
        for (class, sigs) in &delta.new_classes {
            self.classes_mut().entry(*class).or_default().methods.extend(sigs.iter().cloned());
        }
        for (class, sig) in &delta.added_methods {
            if let Some(def) = self.classes_mut().get_mut(class) {
                if !def.methods.iter().any(|m| m.name == sig.name) {
                    def.methods.push(sig.clone());
                }
            }
        }
        for (class, method) in &delta.removed_methods {
            if let Some(def) = self.classes_mut().get_mut(class) {
                def.methods.retain(|m| m.name != *method);
            }
        }
        self.revalidate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use crate::types::ClassDef;
    use ruvo_term::sym;

    fn empl_schema() -> Schema {
        Schema::builder()
            .class(
                "empl",
                ClassDef {
                    parents: vec![],
                    methods: vec![
                        MethodSig::new("sal", TypeRef::Num).required(),
                        MethodSig::new("boss", TypeRef::Instance(sym("empl"))),
                        MethodSig::new("pos", TypeRef::Sym),
                    ],
                },
            )
            .build()
            .unwrap()
    }

    fn run(ob: &str, prog: &str) -> (ObjectBase, ObjectBase) {
        let ob = ObjectBase::parse(ob).unwrap();
        let program = ruvo_lang::Program::parse(prog).unwrap();
        let mut db = ruvo_core::Database::open(ob.clone());
        db.apply_program(program).unwrap();
        (ob, db.current().clone())
    }

    #[test]
    fn no_change_no_delta() {
        let (ob, ob2) = run("phil.isa -> empl. phil.sal -> 4000.", "");
        let delta = diff(&empl_schema(), &ob, &ob2);
        assert!(delta.is_empty(), "{delta:?}");
    }

    #[test]
    fn paper_enterprise_update_implies_hpe_class() {
        // The §2.3 enterprise update: phil joins hpe, bob is fired.
        let (ob, ob2) = run(
            "phil.isa -> empl / pos -> mgr / sal -> 4000.
             bob.isa -> empl / boss -> phil / sal -> 4200.",
            "rule1: mod[E].sal -> (S, S2) <= E.isa -> empl / pos -> mgr / sal -> S & S2 = S * 1.1 + 200.
             rule2: mod[E].sal -> (S, S2) <= E.isa -> empl / sal -> S & not E.pos -> mgr & S2 = S * 1.1.
             rule3: del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.
             rule4: ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        );
        let schema = empl_schema();
        let delta = diff(&schema, &ob, &ob2);
        // A brand-new class hpe appeared, populated by phil with his
        // empl methods.
        let (class, sigs) =
            delta.new_classes.iter().find(|(c, _)| *c == sym("hpe")).expect("hpe inferred");
        assert_eq!(*class, sym("hpe"));
        assert!(sigs.iter().any(|s| s.name == sym("sal")));
        // bob was fired: boss became undefined for class empl (phil has
        // no boss), and nothing else was removed.
        assert!(delta.removed_methods.contains(&(sym("empl"), sym("boss"))));
        // Evolving the schema makes ob2 conform.
        let evolved = schema.evolve(&delta).unwrap();
        assert!(evolved.has_class(sym("hpe")));
        let vs = check(&evolved, &ob2);
        assert_eq!(vs, vec![], "evolved schema must accept ob2");
    }

    #[test]
    fn added_method_on_existing_class() {
        let (ob, ob2) =
            run("phil.isa -> empl. phil.sal -> 4000.", "ins[E].badge -> 7 <= E.isa -> empl.");
        let schema = empl_schema();
        let delta = diff(&schema, &ob, &ob2);
        let (class, sig) = delta
            .added_methods
            .iter()
            .find(|(_, s)| s.name == sym("badge"))
            .expect("badge inferred");
        assert_eq!(*class, sym("empl"));
        assert_eq!(sig.result, TypeRef::Int);
        let evolved = schema.evolve(&delta).unwrap();
        assert_eq!(check(&evolved, &ob2), vec![]);
    }

    #[test]
    fn emptied_class_reported_but_kept() {
        let (ob, ob2) = run("solo.isa -> empl. solo.sal -> 1.", "del[solo].* <= solo.sal -> 1.");
        let schema = empl_schema();
        let delta = diff(&schema, &ob, &ob2);
        assert_eq!(delta.emptied_classes, vec![sym("empl")]);
        let evolved = schema.evolve(&delta).unwrap();
        assert!(evolved.has_class(sym("empl")));
    }

    #[test]
    fn set_valued_inference() {
        let (ob, ob2) = run(
            "a.isa -> node. b.isa -> node. a.next -> b.",
            "ins[X].reach -> Y <= X.next -> Y.
             ins[X].reach -> X <= X.isa -> node.",
        );
        let schema = Schema::builder()
            .class(
                "node",
                ClassDef {
                    parents: vec![],
                    methods: vec![MethodSig::new("next", TypeRef::Instance(sym("node")))],
                },
            )
            .build()
            .unwrap();
        let delta = diff(&schema, &ob, &ob2);
        let (_, sig) = delta
            .added_methods
            .iter()
            .find(|(_, s)| s.name == sym("reach"))
            .expect("reach inferred");
        // `a` reaches both a and b: multi-valued.
        assert!(sig.set_valued);
        assert_eq!(sig.result, TypeRef::Sym);
        assert_eq!(check(&schema.evolve(&delta).unwrap(), &ob2), vec![]);
    }

    #[test]
    fn numeric_type_inference() {
        assert_eq!(infer_type(&[ruvo_term::int(1), ruvo_term::int(2)]), TypeRef::Int);
        assert_eq!(infer_type(&[ruvo_term::int(1), ruvo_term::num(2.5)]), TypeRef::Num);
        assert_eq!(infer_type(&[ruvo_term::oid("x")]), TypeRef::Sym);
        assert_eq!(infer_type(&[ruvo_term::oid("x"), ruvo_term::int(1)]), TypeRef::Any);
    }
}
