//! Structured diagnostics and the front end's static analysis.
//!
//! This module decides once whether a rule and a program are
//! well-formed. Two passes do it:
//!
//! * the **rule-level pass** (`analyze_rule`): the §3 structural
//!   checks (`exists` is never updated, `del[..].*` only in heads) and
//!   §2.1 safety (range restriction), whose literal-ordering plan it
//!   stores in `rule.plan`;
//! * the **program-level pass** ([`program_diagnostics`]): duplicate
//!   labels, duplicate (shadowing) rules, method-arity consistency.
//!
//! Every caller reads their findings and none re-derives them:
//! [`Program::parse`] and [`Rule::new`] fail on the first error
//! finding ([`admit`] is that gate for a `Program` built by other
//! means), `ruvo check` collects every finding through [`front_end`],
//! and a prepared program's check runs only the program-level pass,
//! since its rules already carry their plans. Each finding is a
//! [`Diagnostic`] carrying a [`Lint`] identity, a [`Severity`], an
//! optional source [`Span`] and free-form notes, so tooling (`ruvo
//! check`, the REPL's `:check`, CI) can render rustc-style reports or
//! machine-readable JSON.
//!
//! The stratification-dependent analyses — write-write conflicts,
//! commutativity, dead rules, cycle-policy advisories — live in
//! `ruvo-core`'s `check` module, which reuses these types.

use std::collections::HashMap;
use std::fmt;

use ruvo_term::Symbol;

use crate::ast::{Atom, Literal, Program, Rule, UpdateAtom, UpdateSpec};
use crate::error::{LangError, ParseError, SafetyError, Span, ValidateError};

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: the program runs, but something is suspicious.
    Warning,
    /// The program is rejected (by `Program::parse`, or because the
    /// lint was denied via `DatabaseBuilder::deny_lints`).
    Error,
}

impl Severity {
    /// The lowercase label used in rendered output (`warning`/`error`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The reporting level of a lint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// Suppressed entirely.
    Allow,
    /// Reported as a [`Severity::Warning`].
    Warn,
    /// Reported as a [`Severity::Error`].
    Deny,
}

impl Level {
    /// The severity a diagnostic reported at this level carries
    /// (`Allow` produces no diagnostic at all).
    pub fn severity(self) -> Severity {
        match self {
            Level::Deny => Severity::Error,
            Level::Allow | Level::Warn => Severity::Warning,
        }
    }
}

/// Every static-analysis finding the toolchain can report.
///
/// Deny-by-default lints are the paper's hard side conditions (a
/// program triggering one is rejected by [`Program::parse`]);
/// warn-by-default lints are advisory and surface through
/// `Database::prepare` warnings and `ruvo check`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lint {
    /// The source text does not lex/parse, or a version-id-term nests
    /// deeper than a version chain holds.
    Syntax,
    /// Two rules carry the same label (§2.1 rules are named uniquely).
    DuplicateLabel,
    /// An update-term on the system method `exists` (§3 forbids both
    /// updating it in heads and asking update-terms about it).
    ExistsUpdate,
    /// `del[V].*` used in a rule body (§2.3: heads only).
    DelAllInBody,
    /// The rule is not range-restricted (§2.1 safety, cf. \[Ull88\]).
    UnsafeRule,
    /// A method is used with two different argument counts.
    ArityMismatch,
    /// Two same-stratum rules may write the same `(version, method)`
    /// with conflicting results — firing order becomes observable.
    WriteWriteConflict,
    /// A rule's body requires a version or update that no rule can
    /// produce; it can only fire if the initial base already holds it.
    DeadRule,
    /// Two rules have identical heads and bodies; the later one is
    /// shadowed (it can never contribute a new instance).
    DuplicateRule,
    /// The program is statically stratifiable but was compiled under
    /// `CyclePolicy::RuntimeStability` — the paranoid policy buys
    /// nothing and costs a runtime stability check.
    NeedlessDynamicPolicy,
    /// The program is rejected by strict stratification but accepted
    /// under the relaxed policy with a runtime stability check.
    DynamicPolicyRequired,
    /// Two same-stratum rules where one reads what the other writes —
    /// an engine that fires rules in order (instead of the paper's
    /// simultaneous `T_P`) could produce a different result set.
    OrderSensitiveRules,
    /// A rule whose body reads the relation chain its own head writes
    /// (e.g. §4(b) ins-recursion, or a `$V` atom).
    SelfDependentRule,
}

impl Lint {
    /// Every known lint, in registry order.
    pub const ALL: [Lint; 13] = [
        Lint::Syntax,
        Lint::DuplicateLabel,
        Lint::ExistsUpdate,
        Lint::DelAllInBody,
        Lint::UnsafeRule,
        Lint::ArityMismatch,
        Lint::WriteWriteConflict,
        Lint::DeadRule,
        Lint::DuplicateRule,
        Lint::NeedlessDynamicPolicy,
        Lint::DynamicPolicyRequired,
        Lint::OrderSensitiveRules,
        Lint::SelfDependentRule,
    ];

    /// Stable kebab-case name (the `[...]` tag in rendered output).
    pub fn name(self) -> &'static str {
        match self {
            Lint::Syntax => "syntax",
            Lint::DuplicateLabel => "duplicate-label",
            Lint::ExistsUpdate => "exists-update",
            Lint::DelAllInBody => "del-all-in-body",
            Lint::UnsafeRule => "unsafe-rule",
            Lint::ArityMismatch => "arity-mismatch",
            Lint::WriteWriteConflict => "write-write-conflict",
            Lint::DeadRule => "dead-rule",
            Lint::DuplicateRule => "duplicate-rule",
            Lint::NeedlessDynamicPolicy => "needless-dynamic-policy",
            Lint::DynamicPolicyRequired => "dynamic-policy-required",
            Lint::OrderSensitiveRules => "order-sensitive-rules",
            Lint::SelfDependentRule => "self-dependent-rule",
        }
    }

    /// Resolve a lint by its [`Lint::name`].
    pub fn from_name(name: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == name)
    }

    /// The default reporting level.
    pub fn default_level(self) -> Level {
        match self {
            Lint::Syntax
            | Lint::DuplicateLabel
            | Lint::ExistsUpdate
            | Lint::DelAllInBody
            | Lint::UnsafeRule
            | Lint::DynamicPolicyRequired => Level::Deny,
            Lint::ArityMismatch
            | Lint::WriteWriteConflict
            | Lint::DeadRule
            | Lint::DuplicateRule
            | Lint::NeedlessDynamicPolicy
            | Lint::OrderSensitiveRules => Level::Warn,
            // Advisory-only: a truthful observation about healthy
            // programs (sanctioned recursion); reported through the
            // `advisories` channel, never among a report's
            // diagnostics.
            Lint::SelfDependentRule => Level::Allow,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One static-analysis finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub lint: Lint,
    /// How it is reported (derived from the lint's level).
    pub severity: Severity,
    /// Where in the source, when known.
    pub span: Option<Span>,
    /// The primary message.
    pub message: String,
    /// Secondary `= note:` lines.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A diagnostic at the lint's default level.
    pub fn new(lint: Lint, span: Option<Span>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            lint,
            severity: lint.default_level().severity(),
            span,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attach a `= note:` line (builder style).
    pub fn note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// True if this diagnostic rejects the program.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Render rustc-style. With `source`, the offending line is quoted
    /// and underlined; with `file`, locations are `file:line:col`.
    ///
    /// ```text
    /// warning[write-write-conflict]: rules `r1` and `r2` ...
    ///  --> conflict.rv:2:1
    ///   |
    /// 2 | r2: mod[x].p -> (V, 2) <= x.p -> V.
    ///   | ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^^
    ///   = note: ...
    /// ```
    pub fn render(&self, source: Option<&str>, file: Option<&str>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}[{}]: {}", self.severity.label(), self.lint.name(), self.message);
        let mut w = 1; // gutter width (digits of the quoted line number)
        if let Some(span) = self.span {
            let num = span.start.line.to_string();
            w = num.len();
            match file {
                Some(f) => {
                    let _ = writeln!(out, "{:>w$}--> {f}:{}", "", span.start);
                }
                None => {
                    let _ = writeln!(out, "{:>w$}--> {}", "", span.start);
                }
            }
            let line = source.and_then(|s| s.lines().nth(span.start.line as usize - 1));
            if let Some(line) = line {
                let start = (span.start.col as usize).saturating_sub(1);
                let width = if span.end.line == span.start.line && span.end.col >= span.start.col {
                    (span.end.col - span.start.col) as usize + 1
                } else {
                    line.chars().count().saturating_sub(start)
                }
                .max(1);
                let _ = writeln!(out, "{:>w$} |", "");
                let _ = writeln!(out, "{num} | {line}");
                let _ = writeln!(out, "{:>w$} | {:start$}{}", "", "", "^".repeat(width));
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "{:>w$} = note: {note}", "");
        }
        out
    }

    /// One JSON object (hand-rolled; the build environment has no
    /// serde). Stable field order: lint, severity, span, message, notes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"lint\":\"{}\",\"severity\":\"{}\",",
            self.lint.name(),
            self.severity.label()
        );
        match self.span {
            Some(s) => {
                let _ = write!(
                    out,
                    "\"span\":{{\"line\":{},\"col\":{},\"end_line\":{},\"end_col\":{}}},",
                    s.start.line, s.start.col, s.end.line, s.end.col
                );
            }
            None => out.push_str("\"span\":null,"),
        }
        let _ = write!(out, "\"message\":\"{}\",\"notes\":[", json_escape(&self.message));
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(n));
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.label(), self.lint.name(), self.message)
    }
}

/// Render a batch of diagnostics, blank-line separated.
pub fn render_all(diags: &[Diagnostic], source: Option<&str>, file: Option<&str>) -> String {
    let mut out = String::new();
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&d.render(source, file));
    }
    out
}

/// Serialize a batch of diagnostics as a JSON array.
pub fn json_array(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push(']');
    out
}

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One finding that rejects a program: a rule's §3 structural
/// violation, its §2.1 unsafety, or its reuse of an earlier rule's
/// label. [`front_end`] renders it as a [`Diagnostic`];
/// [`Program::parse`] and [`Rule::new`] return the first as a
/// [`LangError`].
pub(crate) struct Finding {
    lint: Lint,
    /// The 1-based body literal at fault, if one is.
    literal: Option<usize>,
    message: String,
    note: Option<String>,
}

impl Finding {
    /// The error a fail-fast constructor returns; `index` is the rule's
    /// position in its program, if it has one.
    pub(crate) fn error(&self, rule: &Rule, index: Option<usize>) -> LangError {
        // An unlabeled rule is named by its position in a program, but
        // an unsafe one always by its head's target.
        let name = match (&rule.label, index) {
            (Some(label), _) => label.clone(),
            (None, Some(i)) if self.lint != Lint::UnsafeRule => format!("rule{}", i + 1),
            (None, _) => format!("<{}>", rule.head.target),
        };
        let message = self.message.clone();
        match (self.lint, self.literal) {
            (Lint::UnsafeRule, _) => SafetyError { rule: name, message }.into(),
            (_, Some(j)) => {
                ValidateError { rule: name, message: format!("body literal {j}: {message}") }.into()
            }
            (_, None) => ValidateError { rule: name, message }.into(),
        }
    }

    fn diagnostic(&self, program: &Program, i: usize) -> Diagnostic {
        let (name, message) = (program.rule_name(i), &self.message);
        let message = match (self.lint, self.literal) {
            (Lint::DuplicateLabel, _) => message.clone(),
            (Lint::UnsafeRule, _) => format!("unsafe rule {name}: {message}"),
            (_, Some(j)) => format!("rule `{name}`, body literal {j}: {message}"),
            (_, None) => format!("rule `{name}`: {message}"),
        };
        let mut d = Diagnostic::new(self.lint, program.rules[i].span, message);
        d.notes.extend(self.note.clone());
        d
    }
}

/// The rule-level pass, the one place a rule's well-formedness is
/// decided: an update-term whose created version overflows a chain
/// (head or body), `exists` updated in the head, `del[..].*` or an
/// `exists` update-term in the body (§3), then safety (§2.1), whose
/// plan it stores in `rule.plan`. Returns every finding, in that order.
/// Every later stage reads each update-term's created version through
/// the infallible [`UpdateAtom::created_term`] on this guarantee.
pub(crate) fn analyze_rule(rule: &mut Rule) -> Vec<Finding> {
    let exists = ruvo_term::sym("exists");
    let mut out = Vec::new();
    let mut found = |lint, literal, message: &str, note: Option<&str>| {
        out.push(Finding { lint, literal, message: message.into(), note: note.map(Into::into) })
    };
    let too_deep = |ua: &UpdateAtom| ua.target.apply(ua.spec.kind()).is_err();
    let (deep, deep_note) = (
        "version-id-term nests too deeply",
        "a version-id-term holds at most 32 update applications, counting the version an \
         update-term creates",
    );
    if too_deep(&rule.head) {
        found(Lint::Syntax, None, deep, Some(deep_note));
    }
    if rule.head.spec.method() == Some(exists) {
        let note = "§3 reserves `exists`: `o.exists -> o` is maintained by the engine";
        found(Lint::ExistsUpdate, None, "the system method `exists` cannot be updated", Some(note));
    }
    for (j, lit) in rule.body.iter().enumerate() {
        let Atom::Update(ua) = &lit.atom else { continue };
        if too_deep(ua) {
            found(Lint::Syntax, Some(j + 1), deep, Some(deep_note));
        }
        if matches!(ua.spec, UpdateSpec::DelAll) {
            let message = "`del[...].*` (delete all) is only meaningful in rule heads";
            let note = "ask `del[V].m -> r` about a specific deletion instead";
            found(Lint::DelAllInBody, Some(j + 1), message, Some(note));
        }
        if ua.spec.method() == Some(exists) {
            let message = "update-terms on the system method `exists` are not allowed";
            found(Lint::ExistsUpdate, Some(j + 1), message, None);
        }
    }
    match crate::safety::analyze(rule) {
        Ok(plan) => rule.plan = plan,
        Err(message) => out.push(Finding {
            lint: Lint::UnsafeRule,
            literal: None,
            message,
            note: Some("§2.1 requires rules to be safe (range-restricted, cf. [Ull88])".into()),
        }),
    }
    out
}

/// Every finding that rejects `program`, by rule, in report order: §3
/// structural findings, then duplicate labels, then unsafe rules, each
/// group in rule order. Runs the rule-level pass on every rule.
fn rejections(program: &mut Program) -> Vec<(usize, Finding)> {
    let mut out = Vec::new();
    for (i, rule) in program.rules.iter_mut().enumerate() {
        out.extend(analyze_rule(rule).into_iter().map(|f| (i, f)));
    }
    out.extend(duplicate_labels(program));
    out.sort_by_key(|(_, f)| match f.lint {
        Lint::DuplicateLabel => 1,
        Lint::UnsafeRule => 2,
        _ => 0,
    });
    out
}

/// The front end, fail-fast: the rule-level pass on every rule and the
/// duplicate-label check, returning the first finding that rejects
/// `program`. Every safe rule's plan is stored either way.
/// [`Program::parse`] runs it; so must whatever builds or edits a
/// `Program` through its public fields before handing it to a later
/// stage, which reads created versions and plans on its guarantee.
pub fn admit(program: &mut Program) -> Result<(), LangError> {
    let rejections = rejections(program);
    let Some((i, first)) = rejections.first() else { return Ok(()) };
    if first.lint != Lint::DuplicateLabel {
        return Err(first.error(&program.rules[*i], Some(*i)));
    }
    // One error summarizes every duplicate label.
    let labels = rejections.iter().filter(|(_, f)| f.lint == Lint::DuplicateLabel);
    let messages: Vec<&str> = labels.map(|(_, f)| &*f.message).collect();
    let mut message = match messages.len() {
        1 => "duplicate rule label".to_owned(),
        n => format!("{n} duplicate rule labels"),
    };
    for m in messages {
        message.push_str("; ");
        message.push_str(m);
    }
    let rule = program.rules[*i].label.clone().unwrap_or_default();
    Err(ValidateError { rule, message }.into())
}

/// Every duplicate label, one finding per rule reusing the label of an
/// earlier rule, so a label used three times yields two.
fn duplicate_labels(program: &Program) -> Vec<(usize, Finding)> {
    let mut first: HashMap<&str, usize> = HashMap::new();
    let mut out = Vec::new();
    for (i, rule) in program.rules.iter().enumerate() {
        let Some(label) = rule.label.as_deref() else { continue };
        let orig = *first.entry(label).or_insert(i);
        if orig != i {
            let message =
                format!("duplicate rule label `{label}` (first used by rule {})", orig + 1);
            let note = program.rules[orig].span.map(|s| format!("first definition at {}", s.start));
            out.push((i, Finding { lint: Lint::DuplicateLabel, literal: None, message, note }));
        }
    }
    out
}

/// Duplicate (shadowed) rules: identical head and body up to variable
/// naming. The later rule can never contribute an instance the earlier
/// one does not.
///
/// Heads and bodies compare alpha-equivalent because variable ids are
/// assigned by first occurrence, and neither holds a span, so one hash
/// map keyed by them finds each rule's first equal in one pass: a
/// clean 1k-rule generated program costs 1k hashes instead of ~500k
/// pairwise comparisons. The keys are program text, so the map keeps
/// the default (keyed) hasher.
fn duplicate_rules(program: &Program, out: &mut Vec<Diagnostic>) {
    let mut first: HashMap<(&UpdateAtom, &[Literal]), usize> = HashMap::new();
    for (j, rule) in program.rules.iter().enumerate() {
        let i = *first.entry((&rule.head, &rule.body)).or_insert(j);
        if i != j {
            out.push(
                Diagnostic::new(
                    Lint::DuplicateRule,
                    rule.span,
                    format!(
                        "rule `{}` duplicates rule `{}` (identical head and body)",
                        program.rule_name(j),
                        program.rule_name(i)
                    ),
                )
                .note(
                    "both rules fire on exactly the same instances; \
                     the later one is shadowed",
                ),
            );
        }
    }
}

/// Method-arity consistency: every use of a method (version-terms and
/// update-terms, heads and bodies) should agree on the argument count.
fn arity_mismatches(program: &Program, out: &mut Vec<Diagnostic>) {
    // method -> (arity, rule index of first sighting)
    let mut seen: std::collections::HashMap<Symbol, (usize, usize)> =
        std::collections::HashMap::new();
    let mut flagged: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
    for (i, rule) in program.rules.iter().enumerate() {
        let mut uses: Vec<(Symbol, usize)> = Vec::new();
        if let Some(m) = rule.head.spec.method() {
            uses.push((m, spec_arity(&rule.head.spec)));
        }
        for lit in &rule.body {
            match &lit.atom {
                Atom::Version(va) => uses.push((va.method, va.args.len())),
                Atom::Update(ua) => {
                    if let Some(m) = ua.spec.method() {
                        uses.push((m, spec_arity(&ua.spec)));
                    }
                }
                Atom::Cmp(_) => {}
            }
        }
        for (m, arity) in uses {
            match seen.get(&m) {
                None => {
                    seen.insert(m, (arity, i));
                }
                Some(&(prev, orig)) if prev != arity && flagged.insert(m) => {
                    out.push(
                        Diagnostic::new(
                            Lint::ArityMismatch,
                            rule.span,
                            format!(
                                "method `{m}` is used with {arity} argument(s) in rule `{}` \
                                 but with {prev} argument(s) in rule `{}`",
                                program.rule_name(i),
                                program.rule_name(orig)
                            ),
                        )
                        .note(
                            "method-applications with different argument counts never match \
                             each other; this is usually a typo",
                        ),
                    );
                }
                Some(_) => {}
            }
        }
    }
}

fn spec_arity(spec: &UpdateSpec) -> usize {
    match spec {
        UpdateSpec::Ins { args, .. }
        | UpdateSpec::Del { args, .. }
        | UpdateSpec::Mod { args, .. } => args.len(),
        UpdateSpec::DelAll => 0,
    }
}

/// Every front-end diagnostic of a parsed program, in report order:
/// the rule-level pass over every rule (storing each safe rule's plan)
/// with the duplicate labels, then the rest of the program-level pass.
/// `ruvo check` collects these; [`Program::parse`] stops at the first
/// error among them.
pub fn front_end(program: &mut Program) -> Vec<Diagnostic> {
    let rejections = rejections(program);
    diagnostics(program, &rejections)
}

/// The program-level pass: duplicate labels, duplicate rules, arity
/// mismatches. It reads only what the rule-level pass leaves intact,
/// so a program built from checked rules needs nothing else.
pub fn program_diagnostics(program: &Program) -> Vec<Diagnostic> {
    diagnostics(program, &duplicate_labels(program))
}

/// `rejections` as diagnostics, then duplicate rules and arity
/// mismatches.
fn diagnostics(program: &Program, rejections: &[(usize, Finding)]) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> =
        rejections.iter().map(|(i, f)| f.diagnostic(program, *i)).collect();
    duplicate_rules(program, &mut out);
    arity_mismatches(program, &mut out);
    out
}

impl From<&ParseError> for Diagnostic {
    /// A lex or parse failure as a [`Lint::Syntax`] diagnostic.
    fn from(e: &ParseError) -> Diagnostic {
        let span = (e.pos.line != u32::MAX).then_some(Span { start: e.pos, end: e.pos });
        Diagnostic::new(Lint::Syntax, span, e.message.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every front-end diagnostic of `src`, which must parse.
    fn diagnose(src: &str) -> Vec<Diagnostic> {
        let mut program = crate::parser::parse_program(&crate::lexer::lex(src).unwrap()).unwrap();
        front_end(&mut program)
    }

    fn rejects(diags: &[Diagnostic]) -> bool {
        diags.iter().any(Diagnostic::is_error)
    }

    /// A version-id-term holds at most 32 update applications, counting
    /// the version an update-term creates: a 31-deep target is accepted
    /// and a 32-deep one refused, in a head, a body literal and a goal,
    /// whether parsed or built with `Rule::new`.
    #[test]
    fn over_deep_update_terms_are_refused_at_the_boundary() {
        use crate::ast::{Literal, UpdateAtom, VarTable, VersionAtom};
        use ruvo_term::{int, BaseTerm, UpdateKind, VidRef, VidTerm};
        let deep = "version-id-term nests too deeply";
        let refused = |result: Result<(), LangError>, what: &str| match result {
            Err(LangError::Validate(e)) => assert!(e.message.contains(deep), "{what}: {e}"),
            other => panic!("{what}: expected a validation error, got {other:?}"),
        };
        for (depth, accepted) in [(31, true), (32, false)] {
            let target = (0..depth).fold("X".to_owned(), |t, _| format!("mod({t})"));
            let parsed = [
                ("head", format!("r: ins[{target}].p -> 1 <= X.q -> 1.")),
                ("body", format!("r: ins[x].p -> 1 <= ins[{target}].q -> 1.")),
            ];
            for (what, src) in parsed {
                let result = Program::parse(&src).map(drop);
                if accepted {
                    result.unwrap_or_else(|e| panic!("{what} at {depth}: {e}"));
                } else {
                    refused(result, what);
                }
            }
            let goal = crate::Goal::parse(&format!("?- ins[{target}].q -> 1.")).map(drop);
            let mut vars = VarTable::new();
            let x = BaseTerm::Var(vars.var("X"));
            let head = UpdateAtom {
                target: (0..depth)
                    .fold(VidTerm::object(x), |t, _| t.apply(UpdateKind::Mod).unwrap()),
                spec: UpdateSpec::Ins {
                    method: ruvo_term::sym("p"),
                    args: Vec::new(),
                    result: BaseTerm::Const(int(1)),
                },
            };
            let body = vec![Literal::pos(Atom::Version(VersionAtom {
                vid: VidRef::Term(VidTerm::object(x)),
                method: ruvo_term::sym("q"),
                args: Vec::new(),
                result: BaseTerm::Const(int(1)),
            }))];
            let built = Rule::new(head, body, vars, None).map(drop);
            if accepted {
                goal.unwrap();
                built.unwrap();
            } else {
                refused(goal, "goal");
                refused(built, "Rule::new");
            }
        }
    }

    #[test]
    fn lint_names_round_trip() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_name(lint.name()), Some(lint), "{lint:?}");
        }
        assert_eq!(Lint::from_name("no-such-lint"), None);
    }

    #[test]
    fn all_duplicate_labels_reported() {
        let diags = diagnose("r: ins[a].p -> 1. r: ins[b].p -> 2. r: ins[c].p -> 3.");
        let dups: Vec<_> = diags.iter().filter(|d| d.lint == Lint::DuplicateLabel).collect();
        assert_eq!(dups.len(), 2, "{diags:?}");
        assert!(dups.iter().all(|d| d.is_error()));
        assert!(dups[0].message.contains("duplicate rule label `r`"));
    }

    #[test]
    fn front_end_collects_multiple_errors() {
        // exists-update AND del-all-in-body in one pass.
        let diags = diagnose(
            "ins[E].exists -> E <= E.isa -> empl.\n\
             ins[E].a -> 1 <= E.isa -> empl & del[mod(E)].* .",
        );
        assert!(rejects(&diags));
        assert!(diags.iter().any(|d| d.lint == Lint::ExistsUpdate));
        assert!(diags.iter().any(|d| d.lint == Lint::DelAllInBody));
    }

    #[test]
    fn arity_mismatch_warns_once_per_method() {
        let diags = diagnose(
            "ins[E].likes @ a -> 1 <= E.isa -> empl.\n\
             ins[E].likes -> 2 <= E.isa -> empl.\n\
             ins[E].likes -> 3 <= E.isa -> mgr.",
        );
        assert!(!rejects(&diags), "warnings must not reject: {diags:?}");
        let hits: Vec<_> = diags.iter().filter(|d| d.lint == Lint::ArityMismatch).collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("`likes`"));
    }

    #[test]
    fn duplicate_rule_detected_up_to_variable_names() {
        let diags = diagnose(
            "ins[X].p -> 1 <= X.isa -> empl.\n\
             ins[Y].p -> 1 <= Y.isa -> empl.",
        );
        assert!(!rejects(&diags));
        assert!(diags.iter().any(|d| d.lint == Lint::DuplicateRule), "{diags:?}");
    }

    /// Regression guard for the hash-bucketed duplicate scan: a large
    /// generated program must stay far from the old all-pairs cost.
    /// 4000 clean rules plus two seeded duplicates: ~4k hashes and two
    /// in-bucket comparisons, versus ~8M pairwise comparisons before —
    /// the time budget is generous for CI but a quadratic scan in a
    /// debug build blows it by an order of magnitude.
    #[test]
    fn duplicate_scan_stays_linear_on_large_programs() {
        let n = 4000;
        let mut src = String::with_capacity(n * 48);
        for i in 0..n {
            src.push_str(&format!("r{i}: ins[X].m{i} -> {i} <= X.isa -> c{i}.\n"));
        }
        // Two exact duplicates of existing rules, alpha-renamed.
        src.push_str("dup1: ins[Y].m7 -> 7 <= Y.isa -> c7.\n");
        src.push_str("dup2: ins[Y].m42 -> 42 <= Y.isa -> c42.\n");
        let program = Program::parse(&src).unwrap();
        let started = std::time::Instant::now();
        let mut out = Vec::new();
        duplicate_rules(&program, &mut out);
        let elapsed = started.elapsed();
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.lint == Lint::DuplicateRule));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "duplicate scan took {elapsed:?} on {n} rules — quadratic regression?"
        );
    }

    #[test]
    fn spans_point_at_the_offending_rule() {
        let diags = diagnose("r: ins[a].p -> 1.\nr: ins[b].p -> 2.");
        let dup = diags.iter().find(|d| d.lint == Lint::DuplicateLabel).unwrap();
        let span = dup.span.expect("parsed rules carry spans");
        assert_eq!((span.start.line, span.start.col), (2, 1));
        assert_eq!((span.end.line, span.end.col), (2, 17));
    }

    #[test]
    fn render_quotes_and_underlines() {
        let src = "r: ins[a].p -> 1.\nr: ins[b].p -> 2.";
        let diags = diagnose(src);
        let dup = diags.iter().find(|d| d.lint == Lint::DuplicateLabel).unwrap();
        let rendered = dup.render(Some(src), Some("dup.rv"));
        assert!(rendered.contains("error[duplicate-label]:"), "{rendered}");
        assert!(rendered.contains("--> dup.rv:2:1"), "{rendered}");
        assert!(rendered.contains("2 | r: ins[b].p -> 2."), "{rendered}");
        assert!(rendered.contains("^^^^^^^^^^^^^^^^^"), "{rendered}");
        assert!(rendered.contains("= note: first definition at 1:1"), "{rendered}");
    }

    #[test]
    fn json_output_is_escaped_and_stable() {
        let d = Diagnostic::new(Lint::Syntax, None, "expected `\"` \\ here").note("a\nb");
        assert_eq!(
            d.to_json(),
            "{\"lint\":\"syntax\",\"severity\":\"error\",\"span\":null,\
             \"message\":\"expected `\\\"` \\\\ here\",\"notes\":[\"a\\nb\"]}"
        );
        assert_eq!(json_array(&[]), "[]");
    }

    #[test]
    fn unsafe_rule_becomes_diagnostic() {
        let diags = diagnose("ins[E].p -> X <= E.isa -> empl.");
        assert!(rejects(&diags));
        let unsafe_d = diags.iter().find(|d| d.lint == Lint::UnsafeRule).unwrap();
        assert!(unsafe_d.message.contains("unsafe rule"), "{}", unsafe_d.message);
    }

    // `Program::parse` stops at the first finding that rejects.

    #[test]
    fn exists_in_head_rejected() {
        let err = Program::parse("ins[E].exists -> E <= E.isa -> empl.").unwrap_err();
        assert!(err.to_string().contains("exists"), "got: {err}");
    }

    #[test]
    fn mod_exists_in_head_rejected() {
        let err = Program::parse("mod[E].exists -> (E, E) <= E.isa -> empl.").unwrap_err();
        assert!(err.to_string().contains("exists"), "got: {err}");
    }

    #[test]
    fn del_all_in_body_rejected() {
        // `del[mod(E)].*` cannot be asked as a body condition.
        let err = Program::parse("ins[E].a -> 1 <= E.isa -> empl & del[mod(E)].* .").unwrap_err();
        assert!(err.to_string().contains("delete all"), "got: {err}");
    }

    #[test]
    fn duplicate_labels_rejected() {
        let err = Program::parse("r: ins[a].p -> 1. r: ins[b].p -> 2.").unwrap_err();
        assert!(err.to_string().contains("duplicate"), "got: {err}");
    }

    #[test]
    fn all_duplicate_labels_reported_in_one_error() {
        let err = Program::parse(
            "r: ins[a].p -> 1. r: ins[b].p -> 2. s: ins[c].p -> 3. s: ins[d].p -> 4.",
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2 duplicate rule labels"), "got: {msg}");
        assert!(msg.contains("`r`") && msg.contains("`s`"), "got: {msg}");
    }

    #[test]
    fn exists_in_body_version_term_allowed() {
        // Asking about existence is fine; updating it is not.
        assert!(Program::parse("ins[E].seen -> 1 <= E.exists -> E.").is_ok());
    }

    #[test]
    fn exists_update_term_in_body_rejected() {
        let err = Program::parse("ins[E].a -> 1 <= E.isa -> x & ins[E].exists -> E.").unwrap_err();
        assert!(err.to_string().contains("exists"), "got: {err}");
    }
}
