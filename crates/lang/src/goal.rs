//! Query goals: `?- B1 & ... & Bk .`
//!
//! A goal is a body-only conjunction asked against the *result* of
//! evaluating a program — the demand-driven query entry point of the
//! engine. Internally a goal is a synthetic rule with a ground head
//! (never evaluated), so it inherits the full body pipeline for free:
//! validation, the safety/range-restriction analysis and its literal
//! ordering plan. Every named goal variable is therefore bound in each
//! answer.
//!
//! VID variables (`$V`) are rejected in goals: a `$V` atom reads every
//! version of every object, which defeats the demand analysis (and a
//! goal over "any version" is better asked as a program rule).

use ruvo_term::{int, sym, BaseTerm, VarId, VidTerm};

use crate::ast::{Atom, Literal, Rule, UpdateAtom, UpdateSpec, VarTable};
use crate::error::{LangError, ParseError, Pos};
use crate::pretty::literal_str;

/// The method name of the synthetic goal head. It never reaches an
/// object base — the head only exists to drive the body analyses.
pub const GOAL_HEAD_METHOD: &str = "?goal";

/// A parsed query goal: a conjunction of body literals.
#[derive(Clone, Debug, PartialEq)]
pub struct Goal {
    rule: Rule,
}

impl Goal {
    /// Parse a goal from `?- B1 & ... & Bk .` (the `?-` prefix is
    /// optional, the terminating `.` is not).
    pub fn parse(src: &str) -> Result<Goal, LangError> {
        let toks = crate::lexer::lex(src)?;
        let (body, vars, vid_vars) = crate::parser::parse_goal_literals(&toks)?;
        Goal::from_body_tables(body, vars, vid_vars)
    }

    /// Build a goal from pre-parsed literals (used by the parser and by
    /// programmatic construction).
    pub fn from_body(body: Vec<Literal>, vars: VarTable) -> Result<Goal, LangError> {
        Goal::from_body_tables(body, vars, VarTable::new())
    }

    fn from_body_tables(
        body: Vec<Literal>,
        vars: VarTable,
        vid_vars: VarTable,
    ) -> Result<Goal, LangError> {
        if !vid_vars.is_empty() {
            return Err(LangError::Parse(ParseError::new(
                Pos { line: 1, col: 1 },
                "VID variables (`$V`) are not allowed in query goals",
            )));
        }
        let target = VidTerm::object(BaseTerm::Const(ruvo_term::oid(GOAL_HEAD_METHOD)));
        let spec = UpdateSpec::Ins {
            method: sym(GOAL_HEAD_METHOD),
            args: Vec::new(),
            result: BaseTerm::Const(int(1)),
        };
        let head = UpdateAtom::new(target, spec);
        let rule = Rule::new(head, body, vars, None)?;
        Ok(Goal { rule })
    }

    /// The goal's literals, in source order.
    pub fn body(&self) -> &[Literal] {
        &self.rule.body
    }

    /// The goal's variable table.
    pub fn vars(&self) -> &VarTable {
        &self.rule.vars
    }

    /// The synthetic rule carrying the goal body (ground head, never
    /// evaluated). Exposes the safety plan to the matcher.
    pub fn as_rule(&self) -> &Rule {
        &self.rule
    }

    /// The named (non-anonymous) goal variables, in first-occurrence
    /// order — the columns of an answer row.
    pub fn named_vars(&self) -> Vec<VarId> {
        (0..self.rule.vars.len() as u32)
            .map(VarId)
            .filter(|&v| !self.rule.vars.name(v).starts_with("_#"))
            .collect()
    }

    /// The goal's bound/free adornment: one `b` (ground) or `f`
    /// (variable) per literal target, in source order — the classic
    /// magic-set notation, lifted to version-id-term targets.
    pub fn adornment(&self) -> String {
        let mut s = String::new();
        for lit in &self.rule.body {
            match &lit.atom {
                Atom::Version(va) => match va.vid.as_term() {
                    Some(t) => s.push(if t.base.is_ground() { 'b' } else { 'f' }),
                    None => s.push('f'),
                },
                Atom::Update(ua) => s.push(if ua.target.base.is_ground() { 'b' } else { 'f' }),
                Atom::Cmp(_) => {}
            }
        }
        s
    }
}

impl std::fmt::Display for Goal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "?-")?;
        for (i, lit) in self.rule.body.iter().enumerate() {
            if i > 0 {
                write!(f, " &")?;
            }
            write!(f, " {}", literal_str(lit, &self.rule.vars, &self.rule.vid_vars))?;
        }
        write!(f, " .")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_point_goal() {
        let g = Goal::parse("?- ins(e17).chief -> C.").unwrap();
        assert_eq!(g.body().len(), 1);
        assert_eq!(g.named_vars().len(), 1);
        assert_eq!(g.adornment(), "b");
    }

    #[test]
    fn query_prefix_is_optional() {
        let a = Goal::parse("?- x.m -> R.").unwrap();
        let b = Goal::parse("x.m -> R.").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn conjunction_negation_and_builtins() {
        let g = Goal::parse("?- X.isa -> empl & X.sal -> S & not X.pos -> mgr & S > 100.").unwrap();
        assert_eq!(g.body().len(), 4);
        assert_eq!(g.adornment(), "fff");
        // E, S named; answers carry both.
        assert_eq!(g.named_vars().len(), 2);
    }

    #[test]
    fn update_atoms_allowed_in_goals() {
        let g = Goal::parse("?- del[mod(E)].sal -> S.").unwrap();
        assert_eq!(g.adornment(), "f");
    }

    #[test]
    fn unsafe_goals_rejected() {
        // Var bound only under negation.
        assert!(Goal::parse("?- not X.p -> 1.").is_err());
        // Circular assignment.
        assert!(Goal::parse("?- X = Y + 1 & Y = X + 1.").is_err());
    }

    #[test]
    fn vid_vars_rejected() {
        let err = Goal::parse("?- $V.sal -> S.").unwrap_err();
        assert!(err.to_string().contains("VID"), "got: {err}");
    }

    #[test]
    fn missing_period_rejected() {
        assert!(Goal::parse("?- x.m -> R").is_err());
        assert!(Goal::parse("").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Goal::parse("?- x.m -> R. y.n -> 1.").is_err());
    }

    #[test]
    fn display_roundtrips() {
        for src in [
            "?- ins(e17).chief -> C.",
            "?- X.isa -> empl & X.sal -> S & not X.pos -> mgr & S > 100.",
            "?- del[mod(E)].sal -> S & mod(phil).sal -> S2.",
            "?- x.'it''s' -> V.",
        ] {
            let g = Goal::parse(src).unwrap();
            let printed = g.to_string();
            let g2 = Goal::parse(&printed)
                .unwrap_or_else(|e| panic!("re-parse of {printed:?} failed: {e}"));
            assert_eq!(g, g2, "printed: {printed}");
        }
    }
}
