//! Recursive-descent parser for update-programs.
//!
//! See the crate docs for the concrete syntax. The parser resolves the
//! two syntactic overloads:
//!
//! * `ins`/`del`/`mod` followed by `[` starts an *update-term*;
//!   followed by `(` it is a version-id-term functor inside a
//!   *version-term* (`mod(E).sal -> S`).
//! * `/` directly after a version-term's result continues a method
//!   *path* (`E.isa -> empl / sal -> S`, §2.3's shorthand); `/` inside
//!   a built-in expression is division.

use ruvo_term::{num, ArgTerm, BaseTerm, Const, Symbol, UpdateKind, VidRef, VidTerm};

use crate::ast::{
    Atom, BinOp, Builtin, CmpOp, Expr, Literal, Program, Rule, UpdateAtom, UpdateSpec, VarTable,
    VersionAtom,
};
use crate::error::{ParseError, Pos, Span};
use crate::token::{Tok, Token};

pub(crate) struct Parser<'t> {
    toks: &'t [Token],
    i: usize,
    vars: VarTable,
    vid_vars: VarTable,
    anon: u32,
    /// When true, variables are rejected (ground facts mode).
    ground_only: bool,
}

impl<'t> Parser<'t> {
    pub(crate) fn new(toks: &'t [Token]) -> Parser<'t> {
        Parser {
            toks,
            i: 0,
            vars: VarTable::new(),
            vid_vars: VarTable::new(),
            anon: 0,
            ground_only: false,
        }
    }

    pub(crate) fn ground(toks: &'t [Token]) -> Parser<'t> {
        Parser { ground_only: true, ..Parser::new(toks) }
    }

    pub(crate) fn pos(&self) -> Pos {
        self.toks.get(self.i).map(|t| t.pos).unwrap_or(Pos { line: u32::MAX, col: 0 })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.i + 1).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.i).map(|t| &t.tok);
        self.i += 1;
        t
    }

    pub(crate) fn at_end(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.pos(), msg)
    }

    pub(crate) fn expect_tok(&mut self, tok: Tok) -> Result<(), ParseError> {
        self.expect(tok)
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if *t == tok => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{tok}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{tok}`, found end of input"))),
        }
    }

    fn var(&mut self, name: &str) -> Result<BaseTerm, ParseError> {
        if self.ground_only {
            return Err(self.err(format!("variable `{name}` not allowed in ground facts")));
        }
        if name == "_" {
            self.anon += 1;
            let fresh = format!("_#{}", self.anon);
            return Ok(BaseTerm::Var(self.vars.var(&fresh)));
        }
        Ok(BaseTerm::Var(self.vars.var(name)))
    }

    fn method_name(&mut self) -> Result<Symbol, ParseError> {
        match self.bump().cloned() {
            Some(Tok::Ident(s)) => Ok(ruvo_term::sym(&s)),
            Some(t) => Err(ParseError::new(
                self.toks[self.i - 1].pos,
                format!("expected method name, found `{t}`"),
            )),
            None => Err(self.err("expected method name, found end of input")),
        }
    }

    /// An object-id-term: variable or constant (incl. negative numbers).
    fn arg_term(&mut self) -> Result<ArgTerm, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Var(name)) => {
                self.bump();
                self.var(&name)
            }
            Some(Tok::Ident(s)) => {
                self.bump();
                Ok(BaseTerm::Const(ruvo_term::oid(&s)))
            }
            Some(Tok::Int(v)) => {
                self.bump();
                Ok(BaseTerm::Const(Const::Int(v)))
            }
            Some(Tok::Float(v)) => {
                self.bump();
                Ok(BaseTerm::Const(num(v)))
            }
            Some(Tok::Minus) => {
                self.bump();
                match self.bump().cloned() {
                    Some(Tok::Int(v)) => Ok(BaseTerm::Const(Const::Int(-v))),
                    Some(Tok::Float(v)) => Ok(BaseTerm::Const(num(-v))),
                    _ => Err(self.err("expected number after `-`")),
                }
            }
            Some(Tok::VidVar(name)) => Err(self.err(format!(
                "VID variable `${name}` may only appear as the version of a body \
                 version-term (never in heads, update-term targets, arguments or results)"
            ))),
            Some(t) => Err(self.err(format!("expected object-id-term, found `{t}`"))),
            None => Err(self.err("expected object-id-term, found end of input")),
        }
    }

    /// A version-id-term: update functors over an object-id-term.
    pub(crate) fn vid_term(&mut self) -> Result<VidTerm, ParseError> {
        match self.peek() {
            Some(Tok::Ins) | Some(Tok::Del) | Some(Tok::Mod) => {
                let kind = match self.bump().unwrap() {
                    Tok::Ins => UpdateKind::Ins,
                    Tok::Del => UpdateKind::Del,
                    Tok::Mod => UpdateKind::Mod,
                    _ => unreachable!(),
                };
                self.expect(Tok::LParen)?;
                let inner = self.vid_term()?;
                self.expect(Tok::RParen)?;
                inner.apply(kind).map_err(|_| self.err("version-id-term nests too deeply"))
            }
            _ => Ok(VidTerm::object(self.arg_term()?)),
        }
    }

    /// Method application suffix: `[@ args] -> result`.
    fn method_app(&mut self) -> Result<(Vec<ArgTerm>, ArgTerm), ParseError> {
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::At) {
            self.bump();
            args.push(self.arg_term()?);
            while self.peek() == Some(&Tok::Comma) {
                self.bump();
                args.push(self.arg_term()?);
            }
        }
        self.expect(Tok::Arrow)?;
        let result = self.arg_term()?;
        Ok((args, result))
    }

    /// A version-term with optional `/` path sugar; returns one atom per
    /// path segment, all over the same version reference.
    pub(crate) fn version_path(&mut self) -> Result<Vec<VersionAtom>, ParseError> {
        let vid = match self.peek().cloned() {
            Some(Tok::VidVar(name)) => {
                if self.ground_only {
                    return Err(
                        self.err(format!("VID variable `${name}` not allowed in ground facts"))
                    );
                }
                self.bump();
                VidRef::Var(ruvo_term::VidVarId(self.vid_vars.var(&name).0))
            }
            _ => VidRef::Term(self.vid_term()?),
        };
        self.expect(Tok::DotSep)?;
        let mut out = Vec::new();
        loop {
            let method = self.method_name()?;
            let (args, result) = self.method_app()?;
            out.push(VersionAtom { vid, method, args, result });
            if self.peek() == Some(&Tok::Slash) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// An update-term: `kind [ V ] . spec`.
    fn update_term(&mut self) -> Result<UpdateAtom, ParseError> {
        let kind = match self.bump() {
            Some(Tok::Ins) => UpdateKind::Ins,
            Some(Tok::Del) => UpdateKind::Del,
            Some(Tok::Mod) => UpdateKind::Mod,
            _ => return Err(self.err("expected `ins`, `del` or `mod`")),
        };
        self.expect(Tok::LBracket)?;
        let target = self.vid_term()?;
        self.expect(Tok::RBracket)?;
        self.expect(Tok::DotSep)?;
        if self.peek() == Some(&Tok::Star) {
            self.bump();
            if kind != UpdateKind::Del {
                return Err(self.err("`.*` (delete all) is only valid on `del[...]`"));
            }
            return Ok(UpdateAtom::new(target, UpdateSpec::DelAll));
        }
        let method = self.method_name()?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::At) {
            self.bump();
            args.push(self.arg_term()?);
            while self.peek() == Some(&Tok::Comma) {
                self.bump();
                args.push(self.arg_term()?);
            }
        }
        self.expect(Tok::Arrow)?;
        let spec = match kind {
            UpdateKind::Mod => {
                self.expect(Tok::LParen)?;
                let from = self.arg_term()?;
                self.expect(Tok::Comma)?;
                let to = self.arg_term()?;
                self.expect(Tok::RParen)?;
                UpdateSpec::Mod { method, args, from, to }
            }
            UpdateKind::Ins => UpdateSpec::Ins { method, args, result: self.arg_term()? },
            UpdateKind::Del => UpdateSpec::Del { method, args, result: self.arg_term()? },
        };
        Ok(UpdateAtom::new(target, spec))
    }

    // ----- built-in expressions -------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.expr_term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.expr_term()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.expr_factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.bump();
            let rhs = self.expr_factor()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn expr_factor(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Minus) => {
                self.bump();
                Ok(Expr::Neg(Box::new(self.expr_factor()?)))
            }
            Some(Tok::Var(name)) => {
                self.bump();
                match self.var(&name)? {
                    BaseTerm::Var(v) => Ok(Expr::Var(v)),
                    BaseTerm::Const(_) => unreachable!(),
                }
            }
            Some(Tok::Ident(s)) => {
                self.bump();
                Ok(Expr::Const(ruvo_term::oid(&s)))
            }
            Some(Tok::Int(v)) => {
                self.bump();
                Ok(Expr::Const(Const::Int(v)))
            }
            Some(Tok::Float(v)) => {
                self.bump();
                Ok(Expr::Const(num(v)))
            }
            Some(t) => Err(self.err(format!("expected expression, found `{t}`"))),
            None => Err(self.err("expected expression, found end of input")),
        }
    }

    fn builtin(&mut self) -> Result<Builtin, ParseError> {
        let lhs = self.expr()?;
        let op = match self.bump() {
            Some(Tok::Lt) => CmpOp::Lt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Gt) => CmpOp::Gt,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(Tok::Eq) => CmpOp::Eq,
            Some(Tok::Ne) => CmpOp::Ne,
            Some(t) => {
                let t = t.clone();
                return Err(ParseError::new(
                    self.toks[self.i - 1].pos,
                    format!("expected comparison operator, found `{t}`"),
                ));
            }
            None => return Err(self.err("expected comparison operator, found end of input")),
        };
        let rhs = self.expr()?;
        Ok(Builtin { op, lhs, rhs })
    }

    // ----- literals, rules, programs --------------------------------

    /// One body literal, which may expand to several (path sugar).
    fn literal(&mut self) -> Result<Vec<Literal>, ParseError> {
        let positive = match self.peek() {
            Some(Tok::Not) | Some(Tok::Bang) => {
                self.bump();
                false
            }
            _ => true,
        };
        let atoms: Vec<Atom> = match (self.peek(), self.peek2()) {
            (Some(Tok::Ins) | Some(Tok::Del) | Some(Tok::Mod), Some(Tok::LBracket)) => {
                vec![Atom::Update(self.update_term()?)]
            }
            (Some(Tok::Ins) | Some(Tok::Del) | Some(Tok::Mod), Some(Tok::LParen)) => {
                self.version_path()?.into_iter().map(Atom::Version).collect()
            }
            (
                Some(Tok::Var(_)) | Some(Tok::Ident(_)) | Some(Tok::Int(_)) | Some(Tok::Float(_)),
                Some(Tok::DotSep),
            ) => self.version_path()?.into_iter().map(Atom::Version).collect(),
            (Some(Tok::VidVar(_)), Some(Tok::DotSep)) => {
                self.version_path()?.into_iter().map(Atom::Version).collect()
            }
            _ => vec![Atom::Cmp(self.builtin()?)],
        };
        if !positive && atoms.len() > 1 {
            // `not v.m1->r1/m2->r2` would be ¬(A ∧ B); the language has
            // no disjunction, so we reject rather than silently produce
            // ¬A ∧ ¬B.
            return Err(self.err("method paths cannot be negated as a whole; negate each method-application separately"));
        }
        Ok(atoms.into_iter().map(|a| Literal { positive, atom: a }).collect())
    }

    /// One rule, including the terminating period.
    fn rule(&mut self) -> Result<Rule, ParseError> {
        self.vars = VarTable::new();
        self.vid_vars = VarTable::new();
        self.anon = 0;
        let start = self.pos();
        // Optional `label:` prefix.
        let label = match (self.peek(), self.peek2()) {
            (Some(Tok::Ident(name)), Some(Tok::Colon)) => {
                let name = name.clone();
                self.bump();
                self.bump();
                Some(name)
            }
            _ => None,
        };
        let head = self.update_term()?;
        let mut body = Vec::new();
        // `end` is the position of the terminating period.
        let end;
        match self.peek() {
            Some(Tok::Implies) => {
                self.bump();
                body.extend(self.literal()?);
                while self.peek() == Some(&Tok::Amp) {
                    self.bump();
                    body.extend(self.literal()?);
                }
                end = self.pos();
                self.expect(Tok::Period)?;
            }
            Some(Tok::Period) => {
                end = self.pos();
                self.bump();
            }
            Some(t) => return Err(self.err(format!("expected `<=` or `.`, found `{t}`"))),
            None => return Err(self.err("expected `<=` or `.`, found end of input")),
        }
        Ok(Rule {
            head,
            body,
            vars: std::mem::take(&mut self.vars),
            vid_vars: std::mem::take(&mut self.vid_vars),
            label,
            plan: crate::safety::RulePlan::default(),
            span: Some(Span { start, end }),
        })
    }
}

/// Parse a query-goal body: an optional `?-` prefix, `&`-separated
/// body literals, and the terminating period. Returns the literals and
/// the goal's variable tables (regular and VID).
pub(crate) fn parse_goal_literals(
    toks: &[Token],
) -> Result<(Vec<Literal>, VarTable, VarTable), ParseError> {
    let mut p = Parser::new(toks);
    if p.peek() == Some(&Tok::Query) {
        p.bump();
    }
    let mut body = Vec::new();
    body.extend(p.literal()?);
    while p.peek() == Some(&Tok::Amp) {
        p.bump();
        body.extend(p.literal()?);
    }
    p.expect(Tok::Period)?;
    if !p.at_end() {
        return Err(p.err("unexpected input after the goal's terminating `.`"));
    }
    Ok((body, p.vars, p.vid_vars))
}

/// Parse a whole program (without validation/safety; see
/// [`Program::parse`] for the full pipeline).
pub(crate) fn parse_program(toks: &[Token]) -> Result<Program, ParseError> {
    let mut p = Parser::new(toks);
    let mut rules = Vec::new();
    while !p.at_end() {
        rules.push(p.rule()?);
    }
    Ok(Program { rules })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn program(src: &str) -> Program {
        parse_program(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_salary_raise_rule() {
        let p = program("mod[E].sal -> (S, S2) <= E.isa -> empl & E.sal -> S & S2 = S * 1.1.");
        assert_eq!(p.rules.len(), 1);
        let r = &p.rules[0];
        assert!(matches!(r.head.spec, UpdateSpec::Mod { .. }));
        assert_eq!(r.body.len(), 3);
        assert_eq!(r.vars.len(), 3); // E, S, S2
    }

    #[test]
    fn parses_update_fact() {
        let p = program("ins[henry].isa -> empl.");
        assert_eq!(p.rules.len(), 1);
        assert!(p.rules[0].body.is_empty());
        assert!(p.rules[0].head.target.is_ground());
    }

    #[test]
    fn path_sugar_expands() {
        let p = program(
            "del[mod(E)].* <= mod(E).isa -> empl / boss -> B / sal -> SE & mod(B).isa -> empl / sal -> SB & SE > SB.",
        );
        let r = &p.rules[0];
        assert!(matches!(r.head.spec, UpdateSpec::DelAll));
        // 3 + 2 version atoms + 1 builtin.
        assert_eq!(r.body.len(), 6);
        // All three first atoms share the vid term mod(E).
        let vids: Vec<_> = r
            .body
            .iter()
            .filter_map(|l| match &l.atom {
                Atom::Version(v) => Some(v.vid),
                _ => None,
            })
            .collect();
        assert_eq!(vids.len(), 5);
        assert_eq!(vids[0], vids[1]);
        assert_eq!(vids[1], vids[2]);
    }

    #[test]
    fn negated_update_term_in_body() {
        let p = program(
            "ins[mod(E)].isa -> hpe <= mod(E).isa -> empl / sal -> S & S > 4500 & not del[mod(E)].isa -> empl.",
        );
        let r = &p.rules[0];
        let last = r.body.last().unwrap();
        assert!(!last.positive);
        assert!(matches!(last.atom, Atom::Update(_)));
    }

    #[test]
    fn labels_are_recorded() {
        let p = program("rule3: del[mod(E)].* <= mod(E).sal -> S & S > 10.");
        assert_eq!(p.rules[0].label.as_deref(), Some("rule3"));
    }

    #[test]
    fn nested_vid_terms() {
        let p = program(
            "ins[ins(mod(mod(peter)))].richest -> yes <= not ins(mod(mod(peter))).richest -> no.",
        );
        let r = &p.rules[0];
        assert_eq!(r.head.target.depth(), 3);
        assert_eq!(r.head.created_term().depth(), 4);
    }

    #[test]
    fn method_arguments() {
        let p = program("ins[X].dist@a, b -> D <= X.edge@a -> B & D = 1 + 2.");
        match &p.rules[0].head.spec {
            UpdateSpec::Ins { args, .. } => assert_eq!(args.len(), 2),
            other => panic!("unexpected spec {other:?}"),
        }
    }

    #[test]
    fn negated_path_is_rejected() {
        let toks = lex("ins[E].a -> b <= not E.x -> 1 / y -> 2.").unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn delete_all_requires_del() {
        let toks = lex("ins[E].* <= E.a -> 1.").unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn anonymous_variables_are_fresh() {
        let p = program("ins[E].seen -> yes <= E.p -> _ & E.q -> _.");
        // E plus two distinct anonymous variables.
        assert_eq!(p.rules[0].vars.len(), 3);
    }

    #[test]
    fn division_inside_builtin() {
        let p = program("ins[E].half -> H <= E.sal -> S & H = S / 2.");
        assert_eq!(p.rules[0].body.len(), 2);
    }

    #[test]
    fn arithmetic_precedence() {
        let p = program("ins[e].v -> X <= X = 1 + 2 * 3.");
        match &p.rules[0].body[0].atom {
            Atom::Cmp(Builtin { rhs, .. }) => {
                // 1 + (2 * 3)
                match rhs {
                    Expr::Binary(_, BinOp::Add, r) => match &**r {
                        Expr::Binary(_, BinOp::Mul, _) => {}
                        other => panic!("expected Mul on the right, got {other:?}"),
                    },
                    other => panic!("expected Add at top, got {other:?}"),
                }
            }
            other => panic!("unexpected atom {other:?}"),
        }
    }

    #[test]
    fn comparison_chain_is_error() {
        let toks = lex("ins[e].v -> 1 <= 1 < 2 < 3.").unwrap();
        assert!(parse_program(&toks).is_err());
    }

    #[test]
    fn ground_mode_rejects_variables() {
        let toks = lex("henry.sal -> S.").unwrap();
        let mut p = Parser::ground(&toks);
        assert!(p.version_path().is_err());
    }
}
