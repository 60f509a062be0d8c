//! Structural validation of programs (§2.1/§3 side conditions).

use crate::ast::{Program, Rule};
use crate::error::ValidateError;

fn rule_name(rule: &Rule, idx: Option<usize>) -> String {
    match (&rule.label, idx) {
        (Some(l), _) => l.clone(),
        (None, Some(i)) => format!("rule{}", i + 1),
        (None, None) => format!("<{}>", rule.head.target),
    }
}

/// Validate a single rule.
pub fn validate_rule(rule: &Rule) -> Result<(), ValidateError> {
    validate_rule_at(rule, None)
}

fn validate_rule_at(rule: &Rule, idx: Option<usize>) -> Result<(), ValidateError> {
    // The checks themselves live in `analysis`; this entry point stops
    // at the first finding.
    match crate::analysis::rule_structural(rule).into_iter().next() {
        None => Ok(()),
        Some(f) => {
            let at = f.literal.map(|j| format!("body literal {j}: ")).unwrap_or_default();
            Err(ValidateError { rule: rule_name(rule, idx), message: format!("{at}{}", f.message) })
        }
    }
}

/// Validate a whole program: every rule, plus label uniqueness.
///
/// Label duplicates are gathered through [`crate::analysis`], which
/// reports *every* duplicate occurrence; the error summarizes them all
/// instead of stopping at the first (tooling that wants the individual
/// findings uses [`crate::analysis::duplicate_labels`] directly).
pub fn validate_program(program: &Program) -> Result<(), ValidateError> {
    for (i, rule) in program.rules.iter().enumerate() {
        validate_rule_at(rule, Some(i))?;
    }
    let dups = crate::analysis::duplicate_labels(program);
    if let Some(first) = dups.first() {
        let mut message = String::from("duplicate rule label");
        if dups.len() > 1 {
            message = format!("{} duplicate rule labels", dups.len());
        }
        for d in &dups {
            message.push_str("; ");
            message.push_str(&d.message);
        }
        // The offending label is quoted inside the first diagnostic's
        // message; recover it for the error's `rule` field.
        let label = first.message.split('`').nth(1).unwrap_or("<unlabeled>").to_owned();
        return Err(ValidateError { rule: label, message });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::Program;

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
