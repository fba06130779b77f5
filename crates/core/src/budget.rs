//! Resource budgets and cooperative cancellation for sweeping runs.
//!
//! A [`Budget`] bounds a run along three independent dimensions — a
//! wall-clock deadline, a cap on the number of sweeping SAT queries, and a
//! [`CancelToken`] another thread (or signal handler) can trip.  The engine
//! checks the budget at candidate boundaries and immediately before every
//! SAT call, so a tripped budget stops the run at the next check *without*
//! discarding the merges proved so far: the partial result travels inside
//! [`crate::SweepError::BudgetExhausted`].  A budget that is already
//! exhausted when a session starts skips priming entirely; an in-flight
//! phase (pattern generation, a single SAT query, a pipeline strash or
//! verify pass) is cooperative and runs to its own completion first.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted run stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetCause {
    /// The wall-clock deadline passed.
    Deadline,
    /// The cap on sweeping SAT calls was reached.
    SatCalls,
    /// The [`CancelToken`] was tripped.
    Cancelled,
}

impl fmt::Display for BudgetCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetCause::Deadline => write!(f, "wall-clock deadline"),
            BudgetCause::SatCalls => write!(f, "SAT-call limit"),
            BudgetCause::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A shareable cooperative cancellation flag.
///
/// Clone the token, hand one clone to [`Budget::with_cancel_token`] and keep
/// the other; calling [`CancelToken::cancel`] from anywhere stops the run at
/// the next budget check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; every budget sharing this token trips.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource limits of a sweeping run.  The default is unlimited.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Duration>,
    max_sat_calls: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Limits the run to `deadline` of wall-clock time, measured from the
    /// start of the session (for a [`crate::PassManager`]: of the pipeline).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limits the run to at most `calls` sweeping SAT queries.  SAT queries
    /// spent on SAT-guided pattern generation do not count, mirroring the
    /// paper's Table II accounting.
    pub fn with_max_sat_calls(mut self, calls: u64) -> Self {
        self.max_sat_calls = Some(calls);
        self
    }

    /// Attaches a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` if no limit is set on any dimension.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_sat_calls.is_none() && self.cancel.is_none()
    }

    /// The wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The SAT-call cap, if any.
    pub fn max_sat_calls(&self) -> Option<u64> {
        self.max_sat_calls
    }

    /// Checks the budget against the elapsed time since `started` and the
    /// number of sweeping SAT calls made so far.
    pub(crate) fn exceeded(&self, started: Instant, sat_calls: u64) -> Option<BudgetCause> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(BudgetCause::Cancelled);
            }
        }
        if let Some(max) = self.max_sat_calls {
            if sat_calls >= max {
                return Some(BudgetCause::SatCalls);
            }
        }
        if let Some(deadline) = self.deadline {
            if started.elapsed() >= deadline {
                return Some(BudgetCause::Deadline);
            }
        }
        None
    }

    /// The budget that remains after `elapsed` time and `sat_calls` queries
    /// have been consumed — used by [`crate::PassManager`] to thread one budget
    /// through a sequence of passes.
    pub(crate) fn remaining(&self, elapsed: Duration, sat_calls: u64) -> Budget {
        Budget {
            deadline: self.deadline.map(|d| d.saturating_sub(elapsed)),
            max_sat_calls: self.max_sat_calls.map(|m| m.saturating_sub(sat_calls)),
            cancel: self.cancel.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        assert_eq!(budget.exceeded(Instant::now(), u64::MAX), None);
    }

    #[test]
    fn sat_call_cap_trips_at_the_cap() {
        let budget = Budget::unlimited().with_max_sat_calls(3);
        let now = Instant::now();
        assert_eq!(budget.exceeded(now, 2), None);
        assert_eq!(budget.exceeded(now, 3), Some(BudgetCause::SatCalls));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        assert_eq!(
            budget.exceeded(Instant::now(), 0),
            Some(BudgetCause::Deadline)
        );
    }

    #[test]
    fn cancel_token_is_shared_between_clones() {
        let token = CancelToken::new();
        let budget = Budget::unlimited().with_cancel_token(token.clone());
        assert_eq!(budget.exceeded(Instant::now(), 0), None);
        token.cancel();
        assert_eq!(
            budget.exceeded(Instant::now(), 0),
            Some(BudgetCause::Cancelled)
        );
    }

    #[test]
    fn remaining_subtracts_consumed_resources() {
        let budget = Budget::unlimited()
            .with_deadline(Duration::from_secs(10))
            .with_max_sat_calls(100);
        let rest = budget.remaining(Duration::from_secs(4), 30);
        assert_eq!(rest.deadline(), Some(Duration::from_secs(6)));
        assert_eq!(rest.max_sat_calls(), Some(70));
        // Over-consumption saturates to zero instead of wrapping.
        let none_left = budget.remaining(Duration::from_secs(60), 1000);
        assert_eq!(none_left.deadline(), Some(Duration::ZERO));
        assert_eq!(none_left.max_sat_calls(), Some(0));
    }
}
