//! Abstract syntax of update-programs (§2.1 of the paper).

use ruvo_term::{ArgTerm, BaseTerm, Bindings, Const, Symbol, VarId, VidRef, VidTerm};

use crate::error::LangError;
use crate::safety::RulePlan;

/// Arithmetic operators usable in built-in expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }
}

/// Comparison operators of the arithmetic built-in atoms.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `=<`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "=<",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }

    /// Evaluate the comparison on two ground OIDs (numeric coercion
    /// applies between `Int` and `Num`).
    pub fn test(self, lhs: Const, rhs: Const) -> bool {
        use std::cmp::Ordering::*;
        let ord = lhs.compare(rhs);
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
        }
    }
}

/// An arithmetic expression over variables and value-OIDs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A ground OID.
    Const(Const),
    /// A rule variable.
    Var(VarId),
    /// A binary arithmetic operation.
    Binary(Box<Expr>, BinOp, Box<Expr>),
    /// Unary negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Evaluate under `bindings`.
    ///
    /// Returns `None` if a variable is unbound, if a non-numeric OID
    /// meets an arithmetic operator, or on division by zero — the paper
    /// leaves such ground instances undefined, and an undefined built-in
    /// simply fails to hold (fail-soft).
    pub fn eval(&self, bindings: &Bindings) -> Option<Const> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) => bindings.get(*v),
            Expr::Neg(e) => {
                let v = e.eval(bindings)?.as_f64()?;
                Const::from_f64_normalized(-v)
            }
            Expr::Binary(l, op, r) => {
                let a = l.eval(bindings)?.as_f64()?;
                let b = r.eval(bindings)?.as_f64()?;
                let v = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => {
                        if b == 0.0 {
                            return None;
                        }
                        a / b
                    }
                };
                Const::from_f64_normalized(v)
            }
        }
    }

    /// Visit the variables occurring in the expression, left to right,
    /// repeats included.
    pub fn for_each_var(&self, f: &mut impl FnMut(VarId)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => f(*v),
            Expr::Neg(e) => e.for_each_var(f),
            Expr::Binary(l, _, r) => {
                l.for_each_var(f);
                r.for_each_var(f);
            }
        }
    }

    /// True if the expression is exactly one variable.
    pub fn as_single_var(&self) -> Option<VarId> {
        match self {
            Expr::Var(v) => Some(*v),
            _ => None,
        }
    }
}

/// A version-term atom: `V.m @ A1,...,Ak -> R` (§2.1).
///
/// The referenced version is usually a version-id-term; with the §6
/// extension it may also be a VID variable `$V` (body atoms only).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct VersionAtom {
    /// The referenced version.
    pub vid: VidRef,
    /// Method name.
    pub method: Symbol,
    /// Method arguments (object-id-terms; possibly empty).
    pub args: Vec<ArgTerm>,
    /// Method result (an object-id-term — never a version-id-term,
    /// footnote 1 of the paper).
    pub result: ArgTerm,
}

/// What an update-term does to its target version.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UpdateSpec {
    /// `ins[V].m@args -> r`
    Ins {
        /// Method name.
        method: Symbol,
        /// Method arguments.
        args: Vec<ArgTerm>,
        /// Inserted result.
        result: ArgTerm,
    },
    /// `del[V].m@args -> r`
    Del {
        /// Method name.
        method: Symbol,
        /// Method arguments.
        args: Vec<ArgTerm>,
        /// Deleted result.
        result: ArgTerm,
    },
    /// `del[V].*` — "we write del[…]: to express the deletion of all
    /// method-applications of the respective version" (§2.3). Heads only.
    DelAll,
    /// `mod[V].m@args -> (r, r2)`
    Mod {
        /// Method name.
        method: Symbol,
        /// Method arguments.
        args: Vec<ArgTerm>,
        /// Old result.
        from: ArgTerm,
        /// New result.
        to: ArgTerm,
    },
}

impl UpdateSpec {
    /// The update kind this spec performs.
    pub fn kind(&self) -> ruvo_term::UpdateKind {
        match self {
            UpdateSpec::Ins { .. } => ruvo_term::UpdateKind::Ins,
            UpdateSpec::Del { .. } | UpdateSpec::DelAll => ruvo_term::UpdateKind::Del,
            UpdateSpec::Mod { .. } => ruvo_term::UpdateKind::Mod,
        }
    }

    /// The method updated, if the spec names one (`DelAll` does not).
    pub fn method(&self) -> Option<Symbol> {
        match self {
            UpdateSpec::Ins { method, .. }
            | UpdateSpec::Del { method, .. }
            | UpdateSpec::Mod { method, .. } => Some(*method),
            UpdateSpec::DelAll => None,
        }
    }
}

/// An update-term atom: kind, target version-id-term, and spec.
///
/// In a rule head it *initiates* an update; in a rule body it *asks*
/// whether the update has been performed (§2.4).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct UpdateAtom {
    /// The version the update is applied to (the `V` in `ins[V]`).
    pub target: VidTerm,
    /// The performed change.
    pub spec: UpdateSpec,
}

impl UpdateAtom {
    /// The version *created* by this update: `φ(target)` (§4 replaces
    /// each construct `[V]` by `(V)`).
    ///
    /// # Panics
    /// Panics if `φ(target)` exceeds [`ruvo_term::Chain::MAX_LEN`]
    /// update applications. The front end refuses every such
    /// update-term, in heads, bodies and goals (see [`crate::analysis`]),
    /// so this never panics on a term of a rule or goal it accepted.
    pub fn created_term(&self) -> VidTerm {
        self.target.apply(self.spec.kind()).expect("the front end refuses an over-deep update-term")
    }

    /// Visit the update-term's variables — target, arguments and
    /// results, in that order, repeats included.
    pub fn for_each_var(&self, mut f: impl FnMut(VarId)) {
        let mut term = |t: ArgTerm| {
            if let BaseTerm::Var(v) = t {
                f(v)
            }
        };
        term(self.target.base);
        match &self.spec {
            UpdateSpec::Ins { args, result, .. } | UpdateSpec::Del { args, result, .. } => {
                args.iter().chain([result]).for_each(|&t| term(t))
            }
            UpdateSpec::Mod { args, from, to, .. } => {
                args.iter().chain([from, to]).for_each(|&t| term(t))
            }
            UpdateSpec::DelAll => {}
        }
    }
}

/// A body atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Atom {
    /// A version-term.
    Version(VersionAtom),
    /// An update-term (in a body: asks whether the update occurred).
    Update(UpdateAtom),
    /// An arithmetic built-in.
    Cmp(Builtin),
}

impl Atom {
    /// Visit the atom's variables, repeats included: a version-term's
    /// base (not a `$V`), arguments and result; an update-term's as
    /// [`UpdateAtom::for_each_var`]; a built-in's operands. The one
    /// variable walk of the front end and the planner.
    pub fn for_each_var(&self, mut f: impl FnMut(VarId)) {
        match self {
            Atom::Version(va) => {
                let base = va.vid.as_term().map(|t| t.base);
                for t in base.into_iter().chain(va.args.iter().copied()).chain([va.result]) {
                    if let BaseTerm::Var(v) = t {
                        f(v)
                    }
                }
            }
            Atom::Update(ua) => ua.for_each_var(f),
            Atom::Cmp(b) => {
                b.lhs.for_each_var(&mut f);
                b.rhs.for_each_var(&mut f);
            }
        }
    }
}

/// An arithmetic built-in atom `lhs op rhs`.
///
/// `X = expr` doubles as an assignment when `X` is not yet bound at
/// evaluation time; the safety analysis decides per rule (see
/// [`crate::safety`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Builtin {
    /// Comparison operator.
    pub op: CmpOp,
    /// Left operand.
    pub lhs: Expr,
    /// Right operand.
    pub rhs: Expr,
}

/// A possibly negated body atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Literal {
    /// False for `not A`.
    pub positive: bool,
    /// The atom.
    pub atom: Atom,
}

impl Literal {
    /// A positive literal.
    pub fn pos(atom: Atom) -> Literal {
        Literal { positive: true, atom }
    }

    /// A negated literal.
    pub fn neg(atom: Atom) -> Literal {
        Literal { positive: false, atom }
    }
}

/// The rule-local variable name table: each name once, its position
/// its id. A rule has a handful of variables, so lookups scan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    /// Empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Intern a variable name, returning its rule-local id.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(v) = self.get(name) {
            return v;
        }
        let id = VarId(u32::try_from(self.names.len()).expect("too many variables"));
        self.names.push(name.to_owned());
        id
    }

    /// Look up an existing variable.
    pub fn get(&self, name: &str) -> Option<VarId> {
        self.names.iter().position(|n| n == name).map(|i| VarId(i as u32))
    }

    /// The name of a variable.
    pub fn name(&self, var: VarId) -> &str {
        &self.names[var.index()]
    }

    /// Number of distinct variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the rule has no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// An update-rule `H <= B1 & ... & Bk .` (an update-fact when `k = 0`).
#[derive(Clone, Debug)]
pub struct Rule {
    /// The head update-term.
    pub head: UpdateAtom,
    /// The body literals, in source order.
    pub body: Vec<Literal>,
    /// Rule-local variable names.
    pub vars: VarTable,
    /// Rule-local VID variable names (`$V`; §6 extension, body-only).
    pub vid_vars: VarTable,
    /// Optional source label (`rule3:`), used in traces and reports.
    pub label: Option<String>,
    /// The safety plan (literal evaluation order), filled in by the
    /// front end's rule-level pass (see [`crate::analysis`]).
    pub plan: RulePlan,
    /// Source span of the whole rule, when it was parsed from text
    /// (`None` for programmatically constructed rules). Used by the
    /// diagnostics of [`crate::analysis`].
    pub span: Option<crate::error::Span>,
}

// Spans are diagnostic metadata, not part of a rule's identity: the
// same rule pretty-printed and re-parsed must compare equal even
// though its source coordinates moved.
impl PartialEq for Rule {
    fn eq(&self, other: &Rule) -> bool {
        self.head == other.head
            && self.body == other.body
            && self.vars == other.vars
            && self.vid_vars == other.vid_vars
            && self.label == other.label
            && self.plan == other.plan
    }
}

impl Rule {
    /// Construct a rule programmatically and run the front end's
    /// rule-level pass on it (see [`crate::analysis`]), failing on its
    /// first finding.
    pub fn new(
        head: UpdateAtom,
        body: Vec<Literal>,
        vars: VarTable,
        label: Option<String>,
    ) -> Result<Rule, LangError> {
        Rule::with_vid_vars(head, body, vars, VarTable::new(), label)
    }

    /// Construct a rule that uses VID variables (§6 extension).
    pub fn with_vid_vars(
        head: UpdateAtom,
        body: Vec<Literal>,
        vars: VarTable,
        vid_vars: VarTable,
        label: Option<String>,
    ) -> Result<Rule, LangError> {
        let mut rule =
            Rule { head, body, vars, vid_vars, label, plan: RulePlan::default(), span: None };
        match crate::analysis::analyze_rule(&mut rule).into_iter().next() {
            None => Ok(rule),
            Some(finding) => Err(finding.error(&rule, None)),
        }
    }

    /// Iterate over every version-id-term occurring in the rule after
    /// the §4 rewrite (`[V] → (V)`): the head's created version plus,
    /// for each body atom, the version-id-terms it mentions.
    ///
    /// Used by the stratifier. Yields `(term, negated)` pairs for body
    /// terms; the head is *not* included, and version atoms whose vid
    /// is a VID variable are reported by
    /// [`Rule::body_vid_wildcards`] instead.
    pub fn body_vid_terms(&self) -> Vec<(VidTerm, bool)> {
        let mut out = Vec::new();
        for lit in &self.body {
            match &lit.atom {
                Atom::Version(va) => {
                    if let Some(t) = va.vid.as_term() {
                        out.push((t, !lit.positive));
                    }
                }
                // §4: "we replace in the given program P each construct
                // [V] by (V)" — an update-term atom contributes the
                // created version's term.
                Atom::Update(ua) => out.push((ua.created_term(), !lit.positive)),
                Atom::Cmp(_) => {}
            }
        }
        out
    }

    /// Body version atoms whose vid is a VID variable — each entry is
    /// the literal's negation flag. A VID variable may denote *any*
    /// version, so the stratifier must treat such an atom as unifying
    /// with every head (see `stratify::edges`).
    pub fn body_vid_wildcards(&self) -> Vec<bool> {
        let mut out = Vec::new();
        for lit in &self.body {
            if let Atom::Version(va) = &lit.atom {
                if va.vid.as_vid_var().is_some() {
                    out.push(!lit.positive);
                }
            }
        }
        out
    }
}

/// An update-program: a set of update-rules (§2.1).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Rules in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Parse a program from source text and run the front end on it:
    /// the rule-level pass on every rule, which stores each plan, and
    /// the duplicate-label check (see [`crate::analysis`]). Fails on the
    /// first finding that rejects the program.
    pub fn parse(src: &str) -> Result<Program, LangError> {
        let tokens = crate::lexer::lex(src)?;
        let mut program = crate::parser::parse_program(&tokens)?;
        crate::analysis::admit(&mut program)?;
        Ok(program)
    }

    /// The display name of rule `i` (its label, or `rule<i+1>`).
    pub fn rule_name(&self, i: usize) -> String {
        match &self.rules[i].label {
            Some(l) => l.clone(),
            None => format!("rule{}", i + 1),
        }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, num, oid};

    #[test]
    fn cmp_op_numeric_coercion() {
        assert!(CmpOp::Eq.test(int(3), num(3.0)));
        assert!(CmpOp::Lt.test(int(2), num(2.5)));
        assert!(CmpOp::Ne.test(oid("a"), oid("b")));
        assert!(CmpOp::Ge.test(int(5), int(5)));
    }

    #[test]
    fn expr_eval_arithmetic() {
        let mut b = Bindings::new(1);
        b.bind(VarId(0), int(100));
        // S * 1.1 + 200 → 310 (normalized back to Int).
        let e = Expr::Binary(
            Box::new(Expr::Binary(
                Box::new(Expr::Var(VarId(0))),
                BinOp::Mul,
                Box::new(Expr::Const(num(1.1))),
            )),
            BinOp::Add,
            Box::new(Expr::Const(int(200))),
        );
        // 100*1.1 = 110.00000000000001 in f64; + 200 rounds back to the
        // representable 310.0, which normalizes to Int.
        assert_eq!(e.eval(&b), Some(int(310)));
    }

    #[test]
    fn expr_eval_fail_soft() {
        let b = Bindings::new(1);
        // Unbound variable.
        assert_eq!(Expr::Var(VarId(0)).eval(&b), None);
        // Symbol in arithmetic.
        let e = Expr::Binary(
            Box::new(Expr::Const(oid("henry"))),
            BinOp::Add,
            Box::new(Expr::Const(int(1))),
        );
        assert_eq!(e.eval(&b), None);
        // Division by zero.
        let z =
            Expr::Binary(Box::new(Expr::Const(int(1))), BinOp::Div, Box::new(Expr::Const(int(0))));
        assert_eq!(z.eval(&b), None);
    }

    #[test]
    fn expr_integral_results_normalize_to_int() {
        let b = Bindings::new(0);
        let e = Expr::Binary(
            Box::new(Expr::Const(int(100))),
            BinOp::Mul,
            Box::new(Expr::Const(num(1.5))),
        );
        assert_eq!(e.eval(&b), Some(int(150)));
    }

    #[test]
    fn var_table_interns() {
        let mut t = VarTable::new();
        let a = t.var("E");
        let b = t.var("S");
        let a2 = t.var("E");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.name(a), "E");
        assert_eq!(t.len(), 2);
    }
}
