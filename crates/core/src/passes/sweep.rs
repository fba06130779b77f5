//! Sweeping and verification passes.

use super::{Pass, PassCtx};
use crate::cec;
use crate::error::SweepError;
use crate::pipeline::PassReport;
use crate::report::SweepResult;
use crate::session::{Engine, Sweeper};
use std::time::Instant;

/// Runs one sweep round of `engine` inside `ctx`, folding the round's
/// report into the aggregate.  Shared by [`Sweep`], [`SweepToFixpoint`] and
/// [`super::Dc2`].
pub(crate) fn run_one_sweep(
    ctx: &mut PassCtx<'_>,
    engine: Engine,
    name: String,
) -> Result<PassReport, SweepError> {
    let remaining = ctx.remaining_budget();
    let mut sweeper = Sweeper::new(engine)
        .config(ctx.config)
        .budget(remaining)
        .round_index(ctx.round);
    if let Some(obs) = ctx.observer.as_deref_mut() {
        sweeper = sweeper.observer(obs);
    }
    ctx.round += 1;
    let gates_before = ctx.aig.num_ands();
    match sweeper.run(&ctx.aig) {
        Ok(result) => {
            ctx.aggregate.merge(&result.report);
            ctx.sat_calls_used += result.report.sat_calls_total;
            let report = PassReport {
                name,
                gates_before,
                gates_after: result.aig.num_ands(),
                report: Some(result.report),
                time: result.report.total_time,
                counters: Vec::new(),
            };
            ctx.aig = result.aig;
            Ok(report)
        }
        Err(SweepError::BudgetExhausted {
            cause,
            partial,
            checkpoint,
        }) => {
            ctx.aggregate.merge(&partial.report);
            // The interrupted sweep pass's checkpoint travels with the
            // pipeline error: resuming it completes that pass exactly; the
            // passes after it have to be re-run by the caller.
            Err(SweepError::BudgetExhausted {
                cause,
                partial: Box::new(SweepResult {
                    aig: partial.aig,
                    report: ctx.aggregate,
                }),
                checkpoint,
            })
        }
        Err(other) => Err(other),
    }
}

/// One SAT-sweeping round of an [`Engine`].
#[derive(Debug, Clone)]
pub struct Sweep {
    engine: Engine,
    name: String,
}

impl Sweep {
    /// Creates a single-round sweep pass for `engine`.
    pub fn new(engine: Engine) -> Self {
        Sweep {
            engine,
            name: format!("sweep({engine})"),
        }
    }
}

impl Pass for Sweep {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<PassReport, SweepError> {
        run_one_sweep(ctx, self.engine, self.name.clone())
    }
}

/// Sweep rounds of an [`Engine`] until no gate is removed (or the round cap
/// is reached).  At least one round always runs; each round gets its own
/// [`PassReport`] named `"sweep({engine}) round {n}"`.
#[derive(Debug, Clone)]
pub struct SweepToFixpoint {
    engine: Engine,
    max_rounds: usize,
    name: String,
}

impl SweepToFixpoint {
    /// Creates a fixpoint sweep pass for `engine` capped at `max_rounds`.
    pub fn new(engine: Engine, max_rounds: usize) -> Self {
        SweepToFixpoint {
            engine,
            max_rounds,
            name: format!("sweep({engine}) to fixpoint"),
        }
    }
}

impl Pass for SweepToFixpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<PassReport, SweepError> {
        let mut last: Option<PassReport> = None;
        for fix_round in 0..self.max_rounds.max(1) {
            let gates_entering = ctx.aig.num_ands();
            let name = format!("sweep({}) round {fix_round}", self.engine);
            let report = run_one_sweep(ctx, self.engine, name)?;
            if let Some(earlier) = last.replace(report) {
                ctx.record(earlier);
            }
            if ctx.aig.num_ands() == gates_entering {
                break;
            }
        }
        Ok(last.expect("at least one round always runs"))
    }
}

/// CEC verification of the current network against the run's input; a
/// mismatch (or an inconclusive check) aborts with
/// [`SweepError::Inconsistent`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Verify;

impl Pass for Verify {
    fn name(&self) -> &str {
        "verify"
    }

    fn run(&mut self, ctx: &mut PassCtx<'_>) -> Result<PassReport, SweepError> {
        if let Some(cause) = ctx.budget_exceeded() {
            return Err(ctx.budget_stop(cause));
        }
        let pass_start = Instant::now();
        let check = cec::check_equivalence(ctx.input(), &ctx.aig, ctx.verify_conflict_limit);
        let time = pass_start.elapsed();
        ctx.aggregate.total_time += time;
        let report = PassReport {
            name: "verify".into(),
            gates_before: ctx.aig.num_ands(),
            gates_after: ctx.aig.num_ands(),
            report: None,
            time,
            counters: Vec::new(),
        };
        if !check.equivalent {
            ctx.record(report);
            // An undetermined check means the CEC ran out of conflicts, not
            // that the sweep is wrong — but a verification the pipeline
            // promised could not be completed, which callers must not
            // mistake for a verified result.
            return Err(SweepError::Inconsistent(if check.undetermined {
                "verify pass could not prove equivalence within its budget \
                 (raise PassManager::verify_conflict_limit)"
                    .into()
            } else {
                "verify pass found the swept network inequivalent to the input".into()
            }));
        }
        Ok(report)
    }
}
