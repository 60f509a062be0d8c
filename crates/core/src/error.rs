//! Evaluation errors.

use std::fmt;

use ruvo_obase::LinearityViolation;

use crate::stratify::StratifyError;

/// Why an update-program could not be evaluated (or its result is
/// rejected).
#[derive(Clone, Debug, PartialEq)]
pub enum EvalError {
    /// No stratification satisfying §4's conditions (a)–(d) exists.
    NotStratifiable(StratifyError),
    /// §5's runtime check: two incomparable versions of one object.
    Linearity(LinearityViolation),
    /// The per-stratum fixpoint loop exceeded the configured round
    /// budget — a safety valve; safe stratified programs terminate, so
    /// hitting this indicates a misconfigured limit or an engine bug.
    RoundLimit {
        /// Stratum index that overran.
        stratum: usize,
        /// Configured limit.
        limit: usize,
    },
    /// Runtime stability checking (the engine on the strata
    /// `CyclePolicy::RuntimeStability` flags, the reference interpreter
    /// on every stratum) found a previously fired ground update that no
    /// longer fires — the evaluation order would influence the result,
    /// so the program is rejected on this object base.
    Unstable {
        /// Stratum in which the instability surfaced.
        stratum: usize,
        /// Round in which the update stopped firing.
        round: usize,
        /// Display form of the no-longer-fired update.
        update: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::NotStratifiable(e) => write!(f, "{e}"),
            EvalError::Linearity(v) => write!(f, "{v}"),
            EvalError::RoundLimit { stratum, limit } => {
                write!(f, "stratum {stratum} did not reach a fixpoint within {limit} rounds")
            }
            EvalError::Unstable { stratum, round, update } => write!(
                f,
                "unstable evaluation: update {update} (fired in stratum {stratum}) no longer \
                 fires in round {round}; the program has no order-independent result on this \
                 object base"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<StratifyError> for EvalError {
    fn from(e: StratifyError) -> Self {
        EvalError::NotStratifiable(e)
    }
}

impl From<LinearityViolation> for EvalError {
    fn from(e: LinearityViolation) -> Self {
        EvalError::Linearity(e)
    }
}
