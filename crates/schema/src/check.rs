//! Conformance of an object base against a schema.

use std::fmt;

use ruvo_obase::ObjectBase;
use ruvo_term::{Const, FastHashMap, FastHashSet, Symbol, Vid};

use crate::isa_sym;
use crate::types::{Schema, TypeRef};

/// What went wrong, object by object.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// The offending object.
    pub object: Const,
    /// The specific problem.
    pub kind: ViolationKind,
}

/// The kinds of conformance violations.
#[derive(Clone, Debug, PartialEq)]
pub enum ViolationKind {
    /// `isa` names a class the schema does not define.
    UnknownClass(Symbol),
    /// A required method of one of the object's classes is absent.
    MissingRequired {
        /// The class requiring the method.
        class: Symbol,
        /// The missing method.
        method: Symbol,
    },
    /// A method result does not inhabit the declared type.
    WrongResultType {
        /// The method.
        method: Symbol,
        /// The offending result.
        value: Const,
        /// The declared type.
        expected: TypeRef,
    },
    /// A method argument does not inhabit the declared type.
    WrongArgType {
        /// The method.
        method: Symbol,
        /// Argument position (0-based).
        position: usize,
        /// The offending argument.
        value: Const,
        /// The declared type.
        expected: TypeRef,
    },
    /// A method-application has the wrong number of arguments.
    WrongArity {
        /// The method.
        method: Symbol,
        /// Observed argument count.
        got: usize,
        /// Declared arity.
        expected: usize,
    },
    /// A single-valued method holds several results for one argument
    /// tuple.
    MultiValued {
        /// The method.
        method: Symbol,
    },
    /// The object defines a method none of its classes declare.
    Undeclared {
        /// The method.
        method: Symbol,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.object)?;
        match &self.kind {
            ViolationKind::UnknownClass(c) => write!(f, "isa names unknown class {c}"),
            ViolationKind::MissingRequired { class, method } => {
                write!(f, "class {class} requires method {method}")
            }
            ViolationKind::WrongResultType { method, value, expected } => {
                write!(f, "{method} -> {value} does not inhabit {expected}")
            }
            ViolationKind::WrongArgType { method, position, value, expected } => {
                write!(f, "{method} argument {position} = {value} does not inhabit {expected}")
            }
            ViolationKind::WrongArity { method, got, expected } => {
                write!(f, "{method} applied to {got} arguments, declared with {expected}")
            }
            ViolationKind::MultiValued { method } => {
                write!(f, "{method} is single-valued but holds several results")
            }
            ViolationKind::Undeclared { method } => {
                write!(f, "method {method} is not declared by any of the object's classes")
            }
        }
    }
}

/// The transitive class membership of every object in `ob`: direct
/// `isa` results closed over the schema's ancestor relation. Classes
/// unknown to the schema still appear (as themselves) so evolution can
/// discover them.
pub(crate) fn membership(
    ob: &ObjectBase,
    schema: &Schema,
) -> FastHashMap<Const, FastHashSet<Symbol>> {
    let isa = isa_sym();
    let mut out: FastHashMap<Const, FastHashSet<Symbol>> = FastHashMap::default();
    for base in ob.objects() {
        let mut classes: FastHashSet<Symbol> = FastHashSet::default();
        for app in ob.apps(Vid::object(base), isa) {
            if let Const::Sym(class) = app.result {
                if schema.has_class(class) {
                    classes.extend(schema.ancestors(class));
                } else {
                    classes.insert(class);
                }
            }
        }
        out.insert(base, classes);
    }
    out
}

/// Check `ob` against `schema`, reporting every violation.
///
/// Only the *flat* (depth-0) versions are checked — conformance is a
/// property of object bases, and `ob` / `ob'` are flat by construction.
/// Objects without any `isa` fact are untyped and only checked for
/// nothing (the schema layer is opt-in per object).
pub fn check(schema: &Schema, ob: &ObjectBase) -> Vec<Violation> {
    let isa = isa_sym();
    let member_of = membership(ob, schema);
    let mut out = Vec::new();

    for base in ob.objects() {
        let vid = Vid::object(base);
        let Some(state) = ob.version(vid) else { continue };
        let classes = &member_of[&base];
        if classes.is_empty() {
            continue; // untyped object
        }
        // Unknown classes.
        let mut sorted_classes: Vec<Symbol> = classes.iter().copied().collect();
        sorted_classes.sort_by_key(|s| s.as_str().to_owned());
        for &class in &sorted_classes {
            if !schema.has_class(class) {
                out.push(Violation { object: base, kind: ViolationKind::UnknownClass(class) });
            }
        }
        // The union of signatures over all classes.
        let mut sigs: FastHashMap<Symbol, crate::MethodSig> = FastHashMap::default();
        for &class in &sorted_classes {
            for sig in schema.resolved_methods(class) {
                sigs.entry(sig.name).or_insert(sig);
            }
        }
        // Required methods.
        for &class in &sorted_classes {
            for sig in schema.resolved_methods(class) {
                if sig.required && !state.has_method(sig.name) {
                    out.push(Violation {
                        object: base,
                        kind: ViolationKind::MissingRequired { class, method: sig.name },
                    });
                }
            }
        }
        // Per-application checks.
        let mut seen_args: FastHashMap<(Symbol, Vec<Const>), usize> = FastHashMap::default();
        for (method, app) in state.iter() {
            if method == isa {
                continue;
            }
            let Some(sig) = sigs.get(&method) else {
                out.push(Violation { object: base, kind: ViolationKind::Undeclared { method } });
                continue;
            };
            if app.args.len() != sig.arity {
                out.push(Violation {
                    object: base,
                    kind: ViolationKind::WrongArity {
                        method,
                        got: app.args.len(),
                        expected: sig.arity,
                    },
                });
                continue;
            }
            for (i, (&arg, &ty)) in app.args.iter().zip(&sig.arg_types).enumerate() {
                if !ty.admits(arg, &member_of) {
                    out.push(Violation {
                        object: base,
                        kind: ViolationKind::WrongArgType {
                            method,
                            position: i,
                            value: arg,
                            expected: ty,
                        },
                    });
                }
            }
            if !sig.result.admits(app.result, &member_of) {
                out.push(Violation {
                    object: base,
                    kind: ViolationKind::WrongResultType {
                        method,
                        value: app.result,
                        expected: sig.result,
                    },
                });
            }
            if !sig.set_valued {
                let key = (method, app.args.as_slice().to_vec());
                let n = seen_args.entry(key).or_insert(0);
                *n += 1;
                if *n == 2 {
                    out.push(Violation {
                        object: base,
                        kind: ViolationKind::MultiValued { method },
                    });
                }
            }
        }
    }
    out.sort_by_key(|v| format!("{v}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClassDef, MethodSig};
    use ruvo_term::{int, oid, sym};

    fn schema() -> Schema {
        Schema::builder()
            .class(
                "empl",
                ClassDef {
                    parents: vec![],
                    methods: vec![
                        MethodSig::new("sal", TypeRef::Num).required(),
                        MethodSig::new("boss", TypeRef::Instance(sym("empl"))),
                        MethodSig::new("tags", TypeRef::Any).set_valued(),
                    ],
                },
            )
            .build()
            .unwrap()
    }

    #[test]
    fn conforming_base_is_clean() {
        let ob = ObjectBase::parse(
            "phil.isa -> empl. phil.sal -> 4000.
             bob.isa -> empl. bob.sal -> 4200. bob.boss -> phil.
             untyped.whatever -> 1.",
        )
        .unwrap();
        assert_eq!(check(&schema(), &ob), vec![]);
    }

    #[test]
    fn missing_required_method() {
        let ob = ObjectBase::parse("bob.isa -> empl.").unwrap();
        let vs = check(&schema(), &ob);
        assert_eq!(vs.len(), 1);
        assert!(matches!(vs[0].kind, ViolationKind::MissingRequired { .. }));
    }

    #[test]
    fn wrong_result_type_and_class_reference() {
        let ob = ObjectBase::parse(
            "bob.isa -> empl. bob.sal -> notanumber. bob.boss -> stranger.
             stranger.p -> 1.",
        )
        .unwrap();
        let vs = check(&schema(), &ob);
        // sal -> notanumber (not Num) and boss -> stranger (not an empl).
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().any(|v| matches!(
            v.kind,
            ViolationKind::WrongResultType { expected: TypeRef::Num, .. }
        )));
        assert!(vs.iter().any(|v| matches!(
            v.kind,
            ViolationKind::WrongResultType { expected: TypeRef::Instance(_), .. }
        )));
    }

    #[test]
    fn multivalued_and_undeclared() {
        let ob = ObjectBase::parse(
            "bob.isa -> empl. bob.sal -> 1. bob.sal -> 2. bob.mystery -> 1.
             bob.tags -> a. bob.tags -> b.",
        )
        .unwrap();
        let vs = check(&schema(), &ob);
        assert!(vs.iter().any(|v| matches!(v.kind, ViolationKind::MultiValued { .. })));
        assert!(vs.iter().any(|v| matches!(v.kind, ViolationKind::Undeclared { .. })));
        // set-valued tags are fine: exactly the two violations above.
        assert_eq!(vs.len(), 2, "{vs:?}");
    }

    #[test]
    fn unknown_class_reported() {
        let ob = ObjectBase::parse("x.isa -> alien. x.sal -> 1.").unwrap();
        let vs = check(&schema(), &ob);
        assert!(vs.iter().any(|v| matches!(v.kind, ViolationKind::UnknownClass(_))));
    }

    #[test]
    fn arity_checked() {
        let s = Schema::builder()
            .class(
                "g",
                ClassDef {
                    parents: vec![],
                    methods: vec![
                        MethodSig::new("edge", TypeRef::Int).with_args(vec![TypeRef::Sym])
                    ],
                },
            )
            .build()
            .unwrap();
        let mut ob = ObjectBase::new();
        ob.insert(Vid::object(oid("n")), sym("isa"), ruvo_obase::Args::empty(), oid("g"));
        ob.insert(
            Vid::object(oid("n")),
            sym("edge"),
            ruvo_obase::Args::new(vec![oid("a"), oid("b")]),
            int(1),
        );
        let vs = check(&s, &ob);
        assert!(vs
            .iter()
            .any(|v| matches!(v.kind, ViolationKind::WrongArity { got: 2, expected: 1, .. })));
        // Wrong argument type.
        let mut ob2 = ObjectBase::new();
        ob2.insert(Vid::object(oid("n")), sym("isa"), ruvo_obase::Args::empty(), oid("g"));
        ob2.insert(Vid::object(oid("n")), sym("edge"), ruvo_obase::Args::new(vec![int(7)]), int(1));
        let vs2 = check(&s, &ob2);
        assert!(vs2.iter().any(|v| matches!(v.kind, ViolationKind::WrongArgType { .. })));
    }
}
