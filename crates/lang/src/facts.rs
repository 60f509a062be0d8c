//! Parsing of ground version-terms — the textual object-base format.
//!
//! An object base is written as one ground version-term per statement:
//!
//! ```text
//! % the paper's §2.3 example
//! phil.isa -> empl.   phil.pos -> mgr.    phil.sal -> 4000.
//! bob.isa -> empl.    bob.boss -> phil.   bob.sal -> 4200.
//! ```
//!
//! Path sugar works here too (`phil.isa -> empl / pos -> mgr.`), and
//! version-terms over non-trivial VIDs (`mod(phil).sal -> 4600.`) are
//! accepted so intermediate evaluation states can be loaded in tests.

use ruvo_term::{BaseTerm, Bindings, Const, Symbol, Vid};

use crate::error::ParseError;
use crate::parser::Parser;
use crate::token::Tok;

/// A ground method-application fact `vid.m@args -> result`.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundFact {
    /// The version carrying the method-application.
    pub vid: Vid,
    /// Method name.
    pub method: Symbol,
    /// Ground arguments.
    pub args: Vec<Const>,
    /// Ground result.
    pub result: Const,
}

impl std::fmt::Display for GroundFact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.vid, crate::pretty::symbol_str(self.method))?;
        if !self.args.is_empty() {
            let args: Vec<String> =
                self.args.iter().map(|&a| crate::pretty::const_str(a)).collect();
            write!(f, " @ {}", args.join(", "))?;
        }
        write!(f, " -> {} .", crate::pretty::const_str(self.result))
    }
}

fn ground_base(t: BaseTerm) -> Const {
    match t {
        BaseTerm::Const(c) => c,
        // Parser::ground rejects variables before we get here.
        BaseTerm::Var(_) => unreachable!("ground parser produced a variable"),
    }
}

/// Parse a sequence of ground facts. The only `exists` fact there is
/// is §3's `v.exists -> o` for `v`'s object `o`; any other is an error.
pub fn parse_facts(src: &str) -> Result<Vec<GroundFact>, ParseError> {
    let toks = crate::lexer::lex(src)?;
    let mut parser = Parser::ground(&toks);
    let empty = Bindings::new(0);
    let exists = ruvo_term::sym("exists");
    let mut out = Vec::new();
    while !parser.at_end() {
        let at = parser.pos();
        let atoms = parser.version_path()?;
        parser.expect_period()?;
        for va in atoms {
            let vid = va.vid.ground(&empty).expect("ground parser produced a variable");
            let fact = GroundFact {
                vid,
                method: va.method,
                args: va.args.into_iter().map(ground_base).collect(),
                result: ground_base(va.result),
            };
            if fact.method == exists && !(fact.args.is_empty() && fact.result == vid.base()) {
                let base = crate::pretty::const_str(vid.base());
                let msg =
                    format!("the only `exists` fact of {vid} is `{vid}.exists -> {base}` (§3)");
                return Err(ParseError::new(at, msg));
            }
            out.push(fact);
        }
    }
    Ok(out)
}

impl Parser<'_> {
    pub(crate) fn expect_period(&mut self) -> Result<(), ParseError> {
        self.expect_tok(Tok::Period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruvo_term::{int, oid, UpdateKind};

    #[test]
    fn parses_simple_facts() {
        let facts = parse_facts("henry.sal -> 250. henry.isa -> empl.").unwrap();
        assert_eq!(facts.len(), 2);
        assert_eq!(facts[0].vid, Vid::object(oid("henry")));
        assert_eq!(facts[0].method, ruvo_term::sym("sal"));
        assert_eq!(facts[0].result, int(250));
    }

    #[test]
    fn parses_path_sugar() {
        let facts = parse_facts("phil.isa -> empl / pos -> mgr / sal -> 4000.").unwrap();
        assert_eq!(facts.len(), 3);
        assert!(facts.iter().all(|f| f.vid == Vid::object(oid("phil"))));
    }

    #[test]
    fn parses_versioned_facts() {
        let facts = parse_facts("mod(phil).sal -> 4600.").unwrap();
        assert_eq!(facts[0].vid, Vid::object(oid("phil")).apply(UpdateKind::Mod).unwrap());
    }

    #[test]
    fn parses_method_arguments() {
        let facts = parse_facts("g.edge @ a, b -> 1.").unwrap();
        assert_eq!(facts[0].args, vec![oid("a"), oid("b")]);
    }

    #[test]
    fn rejects_variables() {
        assert!(parse_facts("henry.sal -> S.").is_err());
        assert!(parse_facts("E.sal -> 1.").is_err());
    }

    #[test]
    fn exists_facts_must_be_canonical() {
        assert_eq!(parse_facts("mod(o).exists -> o.").unwrap().len(), 1);
        for bad in ["o.exists -> p.", "o.exists @ o -> o.", "o.p -> 1 / exists -> 2."] {
            let err = parse_facts(bad).unwrap_err();
            assert!(err.message.contains("o.exists -> o"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_missing_period() {
        assert!(parse_facts("henry.sal -> 250").is_err());
    }

    #[test]
    fn display_reparses() {
        let facts = parse_facts("mod(phil).sal -> 4600. g.edge @ a, b -> 1.").unwrap();
        for f in &facts {
            let printed = f.to_string();
            let back = parse_facts(&printed).unwrap();
            assert_eq!(back.len(), 1);
            assert_eq!(&back[0], f, "printed: {printed}");
        }
    }

    #[test]
    fn comments_and_whitespace() {
        let facts = parse_facts("% header\nhenry.sal -> 250. % trailing\n").unwrap();
        assert_eq!(facts.len(), 1);
    }
}
