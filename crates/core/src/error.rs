//! Typed errors of the sweeping API.
//!
//! The builder API ([`crate::Sweeper`], [`crate::PassManager`]) replaces the
//! silent clamping and panics of the original free functions with a typed
//! error: invalid configurations are rejected up front, budget exhaustion
//! hands back the partial result instead of discarding it, and internal
//! inconsistencies (a failed in-pipeline verification) are reported rather
//! than asserted.

use crate::budget::BudgetCause;
use crate::checkpoint::SweepCheckpoint;
use crate::report::SweepResult;
use std::fmt;

/// Everything that can go wrong in a sweeping run.
#[derive(Debug)]
pub enum SweepError {
    /// The [`crate::SweepConfig`] contains a value the engines cannot work
    /// with (see [`crate::SweepConfig::validate`]).
    InvalidConfig(String),
    /// The [`crate::Budget`] ran out (or the run was cancelled) before the
    /// sweep finished.
    ///
    /// The partial result is *not* discarded: `partial.aig` contains every
    /// merge proved so far and is functionally equivalent to the input;
    /// `partial.report` covers the work done up to the stop.  When the run
    /// got far enough to prime its session, `checkpoint` carries the exact
    /// stop-point state: resuming it with [`crate::Sweeper::resume_from`]
    /// completes the sweep with results identical to an uninterrupted run.
    BudgetExhausted {
        /// Which budget dimension stopped the run.
        cause: BudgetCause,
        /// The functionally equivalent partial result.
        partial: Box<SweepResult>,
        /// Resumable stop-point state (`None` only if the budget tripped
        /// before the session was primed — nothing to resume).
        checkpoint: Option<Box<SweepCheckpoint>>,
    },
    /// A [`crate::SweepCheckpoint`] could not be used: the bytes are
    /// truncated or corrupt, the format version is unsupported, or the
    /// checkpoint was taken against a different network than the one the
    /// resume targets (netlist fingerprint mismatch).  Resuming against a
    /// mutated network would silently corrupt results, so it is rejected
    /// up front.
    CheckpointMismatch(String),
    /// A promised consistency guarantee could not be delivered: an
    /// in-pipeline `verify` pass found the swept network inequivalent to
    /// the pipeline input, or could not *prove* equivalence within its
    /// conflict budget (the message distinguishes the two — only the
    /// former indicates a soundness bug).
    Inconsistent(String),
}

impl SweepError {
    /// Extracts the partial result of a budget-exhausted run, if any.
    ///
    /// Convenience for callers that treat a truncated sweep as a success
    /// with less optimisation:
    ///
    /// ```
    /// # use stp_sweep::{Budget, Engine, SweepError, Sweeper};
    /// # use netlist::Aig;
    /// # let mut aig = Aig::new();
    /// # let a = aig.add_input("a");
    /// # let b = aig.add_input("b");
    /// # let g = aig.and(a, b);
    /// # aig.add_output("y", g);
    /// let run = Sweeper::new(Engine::Stp)
    ///     .budget(Budget::unlimited().with_max_sat_calls(1))
    ///     .run(&aig);
    /// let result = run.or_else(|e| e.into_partial().ok_or("hard error")).unwrap();
    /// assert!(result.aig.num_ands() <= aig.num_ands());
    /// ```
    pub fn into_partial(self) -> Option<SweepResult> {
        match self {
            SweepError::BudgetExhausted { partial, .. } => Some(*partial),
            _ => None,
        }
    }

    /// Extracts the resumable checkpoint of a budget-exhausted run, if any.
    pub fn into_checkpoint(self) -> Option<SweepCheckpoint> {
        match self {
            SweepError::BudgetExhausted { checkpoint, .. } => checkpoint.map(|c| *c),
            _ => None,
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidConfig(msg) => write!(f, "invalid sweep configuration: {msg}"),
            SweepError::BudgetExhausted { cause, partial, .. } => write!(
                f,
                "sweep budget exhausted ({cause}) after {} merges and {} constants; \
                 partial result has {} gates",
                partial.report.merges, partial.report.constants, partial.report.gates_after
            ),
            SweepError::CheckpointMismatch(msg) => {
                write!(f, "checkpoint cannot be used: {msg}")
            }
            SweepError::Inconsistent(msg) => write!(f, "internal inconsistency: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A rejected pattern-set request is a configuration problem: the engines
/// only ask for as many patterns as the (validated) configuration names, so
/// the typed bridge keeps the invariant visible to callers who drive
/// [`bitsim::PatternSet`] directly.
impl From<bitsim::PatternError> for SweepError {
    fn from(err: bitsim::PatternError) -> Self {
        SweepError::InvalidConfig(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::SweepReport;
    use netlist::Aig;

    fn dummy_result() -> SweepResult {
        SweepResult {
            aig: Aig::new(),
            report: SweepReport {
                merges: 2,
                constants: 1,
                gates_after: 7,
                ..SweepReport::default()
            },
        }
    }

    #[test]
    fn display_messages_are_informative() {
        let invalid = SweepError::InvalidConfig("window_limit 99".into());
        assert!(invalid.to_string().contains("window_limit 99"));

        let exhausted = SweepError::BudgetExhausted {
            cause: BudgetCause::Deadline,
            partial: Box::new(dummy_result()),
            checkpoint: None,
        };
        let msg = exhausted.to_string();
        assert!(msg.contains("deadline"), "{msg}");
        assert!(msg.contains("2 merges"), "{msg}");

        let mismatch = SweepError::CheckpointMismatch("netlist fingerprint differs".into());
        assert!(mismatch.to_string().contains("fingerprint"), "{mismatch}");

        let inconsistent = SweepError::Inconsistent("verify pass failed".into());
        assert!(inconsistent.to_string().contains("verify pass failed"));
    }

    #[test]
    fn pattern_errors_convert_to_invalid_config() {
        let err: SweepError = bitsim::PatternError::EmptyPatternSet { num_inputs: 3 }.into();
        assert!(matches!(err, SweepError::InvalidConfig(_)));
        assert!(err.to_string().contains("3 inputs"), "{err}");
    }

    #[test]
    fn into_partial_extracts_only_budget_results() {
        let exhausted = SweepError::BudgetExhausted {
            cause: BudgetCause::SatCalls,
            partial: Box::new(dummy_result()),
            checkpoint: None,
        };
        assert_eq!(exhausted.into_partial().unwrap().report.merges, 2);
        assert!(SweepError::InvalidConfig("x".into())
            .into_partial()
            .is_none());
        assert!(SweepError::Inconsistent("x".into())
            .into_partial()
            .is_none());
        assert!(SweepError::CheckpointMismatch("x".into())
            .into_checkpoint()
            .is_none());
    }
}
