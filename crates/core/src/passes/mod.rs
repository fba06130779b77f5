//! The optimisation-pass framework.
//!
//! A [`Pass`] is one transformation of the network: a sweep, a structural
//! cleanup, a rewrite, a verification.  Passes run inside a [`PassCtx`]
//! that carries the current network, the sweep configuration, the budget
//! spanning the whole run, the observer and the cumulative statistics.  The
//! [`crate::PassManager`] owns a sequence of boxed passes and executes them
//! in order, collecting one [`PassReport`] per pass.
//!
//! The built-in passes:
//!
//! | pass | script name | effect |
//! |------|-------------|--------|
//! | [`Strash`] | `strash` | re-hash, re-fold constants, drop dead nodes |
//! | [`ConstantFold`] | `cfold` | in-place 0/1 and unit-literal propagation |
//! | [`DanglingGc`] | `gc` | dead-node sweep with PO reachability, structure preserved |
//! | [`Rewrite`] | `rewrite` | 4-input cut rewriting against an NPN class library |
//! | [`Sweep`] | `sweep(stp)` | one SAT-sweeping round of an engine |
//! | [`SweepToFixpoint`] | `sweep_fix(n)` | sweep rounds until no gate is removed |
//! | [`Verify`] | `verify` | CEC check of the current network against the input |
//! | [`Dc2`] | `dc2(n)` | rewrite → strash → sweep until the node count stops improving |
//!
//! Every structural pass is deterministic — the output is a pure function
//! of the input network — and preserves functional equivalence, which the
//! test suite pins with CEC checks per pass.
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::PassManager;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let outcome = PassManager::parse("strash;rewrite;sweep(stp);verify")
//!     .expect("script parses")
//!     .run(&aig)
//!     .expect("pipeline verifies");
//! assert!(outcome.aig.num_ands() <= aig.num_ands());
//! ```

mod dc2;
mod rewrite;
mod script;
mod structural;
mod sweep;

pub use dc2::Dc2;
pub use rewrite::Rewrite;
pub use script::{parse_script, ParsePassError};
pub use structural::{ConstantFold, DanglingGc, Strash};
pub use sweep::{Sweep, SweepToFixpoint, Verify};

use crate::budget::{Budget, BudgetCause};
use crate::error::SweepError;
use crate::observer::Observer;
use crate::pipeline::PassReport;
use crate::report::{SweepConfig, SweepReport, SweepResult};
use netlist::Aig;
use std::time::Instant;

/// One transformation step of a [`crate::PassManager`] run.
///
/// Implementations transform [`PassCtx::aig`] in place (replacing it is
/// fine) and return a [`PassReport`] describing what happened.  A pass that
/// emits several reports (e.g. a fixpoint loop reporting each round)
/// records the earlier ones with [`PassCtx::record`] and returns the last.
pub trait Pass {
    /// Human-readable pass name (also the name used in pass scripts).
    fn name(&self) -> &str;

    /// Runs the pass on the context's network.
    ///
    /// Budgeted passes should call [`PassCtx::budget_exceeded`] before
    /// starting (and, for long passes, at internal boundaries) and return
    /// [`PassCtx::budget_stop`] so the work of earlier passes is handed
    /// back instead of discarded.
    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<PassReport, SweepError>;
}

/// Shared state threaded through every pass of a [`crate::PassManager`]
/// run.
pub struct PassCtx<'a> {
    /// The network being transformed.  Passes mutate or replace it.
    pub aig: Aig,
    /// The sweep configuration of the run.
    pub config: SweepConfig,
    /// Cumulative statistics: sweep passes merge their reports here (see
    /// [`SweepReport::merge`] for the policy), structural passes add their
    /// wall time and keep `gates_after` current.
    pub aggregate: SweepReport,
    /// Sweeping SAT calls consumed so far (drives the budget).
    pub sat_calls_used: u64,
    /// SAT conflict budget of [`Verify`] passes.
    pub verify_conflict_limit: u64,
    pub(crate) budget: Budget,
    pub(crate) observer: Option<&'a mut dyn Observer>,
    pub(crate) started: Instant,
    pub(crate) round: usize,
    pub(crate) input: &'a Aig,
    pub(crate) recorded: Vec<PassReport>,
}

impl<'a> PassCtx<'a> {
    /// The original input network of the run (the reference of [`Verify`]).
    pub fn input(&self) -> &Aig {
        self.input
    }

    /// Records an intermediate [`PassReport`] (for passes that emit more
    /// than one, e.g. per-round reports of a fixpoint loop).  Recorded
    /// reports appear in [`crate::PipelineResult::passes`] before the
    /// report the pass returns.
    pub fn record(&mut self, report: PassReport) {
        self.recorded.push(report);
    }

    /// Checks the run-spanning budget against the resources consumed so
    /// far.  `None` means the run may continue.
    pub fn budget_exceeded(&self) -> Option<BudgetCause> {
        self.budget.exceeded(self.started, self.sat_calls_used)
    }

    /// The budget that remains for the next sweep pass.
    pub fn remaining_budget(&self) -> Budget {
        self.budget
            .remaining(self.started.elapsed(), self.sat_calls_used)
    }

    /// Wraps the run's current state into a budget-exhaustion error so the
    /// work done by the completed passes is handed back, not discarded.
    pub fn budget_stop(&self, cause: BudgetCause) -> SweepError {
        SweepError::BudgetExhausted {
            cause,
            partial: Box::new(SweepResult {
                aig: self.aig.clone(),
                report: self.aggregate,
            }),
            checkpoint: None,
        }
    }

    pub(crate) fn take_recorded(&mut self) -> Vec<PassReport> {
        std::mem::take(&mut self.recorded)
    }
}
