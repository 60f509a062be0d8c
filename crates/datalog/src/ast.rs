//! Abstract syntax of the baseline Datalog dialect.

use ruvo_lang::{Builtin, CmpOp, Expr};
use ruvo_term::{Bindings, Const, Symbol, VarId};

/// A term: variable or constant.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum DlTerm {
    /// A rule variable.
    Var(VarId),
    /// A ground constant.
    Const(Const),
}

impl DlTerm {
    /// Ground value under `bindings`.
    pub fn ground(self, b: &Bindings) -> Option<Const> {
        match self {
            DlTerm::Var(v) => b.get(v),
            DlTerm::Const(c) => Some(c),
        }
    }

    /// Bind-or-check against a ground value.
    pub fn matches(self, value: Const, b: &mut Bindings) -> bool {
        match self {
            DlTerm::Var(v) => b.unify_var(v, value),
            DlTerm::Const(c) => c == value,
        }
    }
}

/// A predicate atom `p(t1, ..., tk)`.
#[derive(Clone, PartialEq, Debug)]
pub struct DlAtom {
    /// Predicate symbol.
    pub pred: Symbol,
    /// Argument terms.
    pub terms: Vec<DlTerm>,
}

/// A body literal: possibly negated atom, or an arithmetic built-in
/// (shared with the update language: [`ruvo_lang::Builtin`]).
#[derive(Clone, PartialEq, Debug)]
pub enum DlLiteral {
    /// `p(...)` or `not p(...)`.
    Atom {
        /// False for `not p(...)`.
        positive: bool,
        /// The atom.
        atom: DlAtom,
    },
    /// Comparison / assignment built-in.
    Builtin(Builtin),
}

impl DlLiteral {
    /// Positive atom shorthand.
    pub fn pos(atom: DlAtom) -> DlLiteral {
        DlLiteral::Atom { positive: true, atom }
    }

    /// Negated atom shorthand.
    pub fn neg(atom: DlAtom) -> DlLiteral {
        DlLiteral::Atom { positive: false, atom }
    }

    /// Comparison shorthand.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> DlLiteral {
        DlLiteral::Builtin(Builtin { op, lhs, rhs })
    }
}

/// A rule head: derive a fact, or delete one (Logres-style).
#[derive(Clone, PartialEq, Debug)]
pub enum DlHead {
    /// `p(...) <= body`.
    Insert(DlAtom),
    /// `del p(...) <= body`.
    Delete(DlAtom),
}

impl DlHead {
    /// The head atom regardless of polarity.
    pub fn atom(&self) -> &DlAtom {
        match self {
            DlHead::Insert(a) | DlHead::Delete(a) => a,
        }
    }

    /// True for deletion heads.
    pub fn is_delete(&self) -> bool {
        matches!(self, DlHead::Delete(_))
    }
}

/// A rule.
#[derive(Clone, PartialEq, Debug)]
pub struct DlRule {
    /// The head.
    pub head: DlHead,
    /// Body literals in source order.
    pub body: Vec<DlLiteral>,
    /// Number of distinct variables (dense `VarId`s `0..num_vars`).
    pub num_vars: usize,
}

/// A module: rules evaluated together to a fixpoint. Logres-style
/// "manual control" sequences modules explicitly.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Module {
    /// Rules of the module.
    pub rules: Vec<DlRule>,
    /// Optional display name.
    pub name: Option<String>,
}

/// A program: an ordered sequence of modules.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DlProgram {
    /// Modules in execution order.
    pub modules: Vec<Module>,
}

impl DlProgram {
    /// A program with all rules in one module (no manual control).
    pub fn single_module(rules: Vec<DlRule>) -> DlProgram {
        DlProgram { modules: vec![Module { rules, name: None }] }
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.modules.iter().map(|m| m.rules.len()).sum()
    }

    /// True if no module has rules.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collapse all modules into one (drops the manual ordering) —
    /// used to demonstrate the §2.4 control anomaly.
    pub fn collapsed(&self) -> DlProgram {
        DlProgram::single_module(
            self.modules.iter().flat_map(|m| m.rules.iter().cloned()).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid};

    #[test]
    fn term_matching() {
        let mut b = Bindings::new(1);
        assert!(DlTerm::Var(VarId(0)).matches(int(5), &mut b));
        assert!(DlTerm::Var(VarId(0)).matches(int(5), &mut b));
        assert!(!DlTerm::Var(VarId(0)).matches(int(6), &mut b));
        assert!(DlTerm::Const(oid("a")).matches(oid("a"), &mut b));
        assert!(!DlTerm::Const(oid("a")).matches(oid("b"), &mut b));
    }

    #[test]
    fn collapse_flattens_modules() {
        let r = DlRule {
            head: DlHead::Insert(DlAtom { pred: ruvo_term::sym("p"), terms: vec![] }),
            body: vec![],
            num_vars: 0,
        };
        let p = DlProgram {
            modules: vec![
                Module { rules: vec![r.clone()], name: Some("m1".into()) },
                Module { rules: vec![r.clone(), r.clone()], name: Some("m2".into()) },
            ],
        };
        assert_eq!(p.len(), 3);
        let c = p.collapsed();
        assert_eq!(c.modules.len(), 1);
        assert_eq!(c.len(), 3);
    }
}
