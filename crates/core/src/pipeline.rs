//! Multi-pass optimisation runs.
//!
//! A [`PassManager`] owns a sequence of boxed [`Pass`]es — sweeps,
//! structural cleanups, rewriting, verification — and executes them in
//! order inside one budgeted, observable run:
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::{Engine, PassManager, SweepConfig};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let outcome = PassManager::new(SweepConfig::fast())
//!     .sweep(Engine::Stp)
//!     .strash()
//!     .sweep(Engine::Stp)
//!     .verify()
//!     .run(&aig)
//!     .expect("pipeline runs and verifies");
//! assert!(outcome.aig.num_ands() <= aig.num_ands());
//! assert_eq!(outcome.passes.len(), 4);
//! ```
//!
//! The per-pass [`PassReport`]s record where the gates and the time went;
//! the aggregate [`PipelineResult::report`] is the fold of all sweep passes
//! via [`crate::SweepReport::merge`].  Beyond the builder verbs, arbitrary
//! pass sequences come from [`PassManager::pass`] (any [`Pass`]
//! implementation) or from a textual script via [`PassManager::parse`] /
//! [`PassManager::with_script`] (see [`crate::passes::parse_script`]).

use crate::budget::Budget;
use crate::error::SweepError;
use crate::observer::Observer;
use crate::passes::{
    ConstantFold, DanglingGc, Dc2, ParsePassError, Pass, PassCtx, Rewrite, Strash, Sweep,
    SweepToFixpoint, Verify,
};
use crate::report::{SweepConfig, SweepReport, SweepResult};
use crate::session::Engine;
use netlist::Aig;
use std::time::{Duration, Instant};

/// Measurements of a single executed pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Human-readable pass name (`"sweep(stp)"`, `"strash"`, `"verify"`,
    /// `"sweep(stp) round 2"`, `"dc2[1] rewrite"` …).
    pub name: String,
    /// AND gates entering the pass.
    pub gates_before: usize,
    /// AND gates leaving the pass.
    pub gates_after: usize,
    /// The full sweep report, for sweep passes.
    pub report: Option<SweepReport>,
    /// Wall-clock time of the pass.
    pub time: Duration,
    /// Pass-specific counters (name, value) in a pass-chosen, deterministic
    /// order — e.g. `rewrites` for [`Rewrite`], `iterations` for [`Dc2`].
    pub counters: Vec<(String, u64)>,
}

impl PassReport {
    /// Looks up a pass-specific counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The outcome of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The final network.
    pub aig: Aig,
    /// Aggregate of all sweep passes (see [`SweepReport::merge`]).
    pub report: SweepReport,
    /// Per-pass measurements, in execution order.  Composite passes
    /// contribute several entries (per-round reports of a fixpoint sweep,
    /// per-iteration sub-reports of [`Dc2`]) followed by their own.
    pub passes: Vec<PassReport>,
}

impl PipelineResult {
    /// Collapses the pipeline outcome into the single-sweep result shape.
    pub fn into_sweep_result(self) -> SweepResult {
        SweepResult {
            aig: self.aig,
            report: self.report,
        }
    }
}

/// Builder and executor of a multi-pass optimisation run.
///
/// Passes run in the order they were added.  One [`Budget`] spans the whole
/// run: each sweep pass receives whatever remains, and an exhausted budget
/// is also checked *before* every structural/verify pass (a running
/// structural pass is not interrupted mid-pass).  One [`Observer`] sees
/// every sweep round with an increasing round index, plus an
/// [`Observer::on_pass_start`] / [`Observer::on_pass_end`] bracket around
/// each scheduled pass.
pub struct PassManager<'o> {
    passes: Vec<Box<dyn Pass>>,
    config: SweepConfig,
    budget: Budget,
    observer: Option<&'o mut dyn Observer>,
    verify_conflict_limit: u64,
}

impl Default for PassManager<'_> {
    fn default() -> Self {
        PassManager::new(SweepConfig::default())
    }
}

impl<'o> PassManager<'o> {
    /// Starts an empty pass sequence with the given sweep configuration.
    pub fn new(config: SweepConfig) -> Self {
        PassManager {
            passes: Vec::new(),
            config,
            budget: Budget::unlimited(),
            observer: None,
            verify_conflict_limit: 500_000,
        }
    }

    /// Builds a pass manager with the default configuration from a textual
    /// pass script (see [`crate::passes::parse_script`] for the grammar).
    pub fn parse(script: &str) -> Result<Self, ParsePassError> {
        PassManager::new(SweepConfig::default()).with_script(script)
    }

    /// Appends every pass of a textual script.
    pub fn with_script(mut self, script: &str) -> Result<Self, ParsePassError> {
        self.passes.extend(crate::passes::parse_script(script)?);
        Ok(self)
    }

    /// Appends an arbitrary pass.
    pub fn pass(mut self, pass: Box<dyn Pass>) -> Self {
        self.passes.push(pass);
        self
    }

    /// Appends a single sweep round of `engine`.
    pub fn sweep(self, engine: Engine) -> Self {
        self.pass(Box::new(Sweep::new(engine)))
    }

    /// Appends a fixpoint sweep: rounds of `engine` until no further gate is
    /// removed, capped at `max_rounds` (at least one round always runs).
    pub fn sweep_to_fixpoint(self, engine: Engine, max_rounds: usize) -> Self {
        self.pass(Box::new(SweepToFixpoint::new(engine, max_rounds)))
    }

    /// Appends a structural-hashing cleanup pass.  Merging can expose new
    /// structural sharing; a `strash` between sweeps lets the next round
    /// find it.
    pub fn strash(self) -> Self {
        self.pass(Box::new(Strash))
    }

    /// Appends an in-place constant/unit-literal folding pass.
    pub fn constant_fold(self) -> Self {
        self.pass(Box::new(ConstantFold))
    }

    /// Appends a structure-preserving dead-node sweep.
    pub fn dangling_gc(self) -> Self {
        self.pass(Box::new(DanglingGc))
    }

    /// Appends a cut-based NPN rewriting pass.
    pub fn rewrite(self) -> Self {
        self.pass(Box::new(Rewrite::new()))
    }

    /// Appends a `dc2` loop (rewrite → strash → sweep until the node count
    /// stops improving), capped at `max_iters` iterations.
    pub fn dc2(self, max_iters: usize) -> Self {
        self.pass(Box::new(Dc2::new(max_iters)))
    }

    /// Appends a verification pass: the current network is CEC-checked
    /// against the run *input*; a mismatch aborts the run with
    /// [`SweepError::Inconsistent`].
    pub fn verify(self) -> Self {
        self.pass(Box::new(Verify))
    }

    /// Sets the SAT conflict budget of `verify` passes (default 500 000).
    pub fn verify_conflict_limit(mut self, limit: u64) -> Self {
        self.verify_conflict_limit = limit;
        self
    }

    /// Sets the budget spanning the whole run.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches an observer to every pass (and to every sweep round).
    pub fn observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Executes the pass sequence on `aig`.
    ///
    /// On budget exhaustion, the aggregate partial result (the merges of
    /// every completed and the truncated pass) is returned inside
    /// [`SweepError::BudgetExhausted`].
    pub fn run(mut self, aig: &'o Aig) -> Result<PipelineResult, SweepError> {
        self.config.validate()?;
        let mut passes = std::mem::take(&mut self.passes);
        let mut ctx = PassCtx {
            aig: aig.clone(),
            config: self.config,
            aggregate: SweepReport {
                gates_before: aig.num_ands(),
                gates_after: aig.num_ands(),
                levels: aig.depth(),
                ..SweepReport::default()
            },
            sat_calls_used: 0,
            verify_conflict_limit: self.verify_conflict_limit,
            budget: self.budget,
            observer: self.observer,
            started: Instant::now(),
            round: 0,
            input: aig,
            recorded: Vec::new(),
        };
        let mut reports: Vec<PassReport> = Vec::new();
        for pass in &mut passes {
            if let Some(obs) = ctx.observer.as_deref_mut() {
                let gates = ctx.aig.num_ands();
                obs.on_pass_start(pass.name(), gates);
            }
            let outcome = pass.run(&mut ctx);
            reports.extend(ctx.take_recorded());
            let report = outcome?;
            if let Some(obs) = ctx.observer.as_deref_mut() {
                obs.on_pass_end(&report);
            }
            reports.push(report);
        }
        Ok(PipelineResult {
            aig: ctx.aig,
            report: ctx.aggregate,
            passes: reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;
    use crate::observer::StatsObserver;
    use crate::session::Sweeper;

    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 5);
        let f1 = aig.and(xs[0], xs[1]);
        let f2_inner = aig.nand(xs[0], xs[1]);
        let f2 = !f2_inner;
        let g1 = aig.xor(xs[2], xs[3]);
        let g2_t = aig.or(xs[2], xs[3]);
        let g2_b = aig.nand(xs[2], xs[3]);
        let g2 = aig.and(g2_t, g2_b);
        let o1 = aig.mux(xs[4], f1, g2);
        let o2 = aig.mux(xs[4], g1, f2);
        aig.add_output("o1", o1);
        aig.add_output("o2", o2);
        aig
    }

    #[test]
    fn pipeline_accumulates_per_pass_reports() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .strash()
            .sweep(Engine::Stp)
            .verify()
            .run(&aig)
            .expect("pipeline verifies");
        assert_eq!(outcome.passes.len(), 4);
        assert_eq!(outcome.passes[0].name, "sweep(stp)");
        assert_eq!(outcome.passes[1].name, "strash");
        assert_eq!(outcome.passes[3].name, "verify");
        // The aggregate merges exactly the two sweep passes.
        let sweep_merges: usize = outcome
            .passes
            .iter()
            .filter_map(|p| p.report.as_ref())
            .map(|r| r.merges)
            .sum();
        assert_eq!(outcome.report.merges, sweep_merges);
        assert_eq!(outcome.report.gates_before, aig.num_ands());
        assert_eq!(outcome.report.gates_after, outcome.aig.num_ands());
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
    }

    #[test]
    fn fixpoint_pass_converges() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .sweep_to_fixpoint(Engine::Stp, 4)
            .run(&aig)
            .expect("runs");
        assert!(!outcome.passes.is_empty());
        assert!(outcome.passes.len() <= 4);
        assert!(outcome.passes[0].name.contains("round 0"));
        // The last round removed nothing (that is what convergence means),
        // unless the cap cut the loop short.
        if outcome.passes.len() < 4 {
            let last = outcome.passes.last().unwrap();
            assert_eq!(last.gates_before, last.gates_after);
        }
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
        // The rounds accumulate: at least as small and as many merges as one
        // sweep, with the report spanning the whole run.
        let once = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        assert!(outcome.aig.num_ands() <= once.aig.num_ands());
        assert!(outcome.report.merges >= once.report.merges);
        assert_eq!(outcome.report.gates_before, aig.num_ands());
        assert_eq!(outcome.report.gates_after, outcome.aig.num_ands());
    }

    #[test]
    fn observer_sees_increasing_round_indices() {
        let aig = redundant_circuit();
        let mut stats = StatsObserver::new();
        let outcome = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .sweep(Engine::Stp)
            .observer(&mut stats)
            .run(&aig)
            .expect("runs");
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.merges + stats.constants, {
            outcome.report.merges + outcome.report.constants
        });
    }

    #[test]
    fn observer_gets_a_bracket_per_scheduled_pass() {
        let aig = redundant_circuit();
        let mut stats = StatsObserver::new();
        let outcome = PassManager::new(SweepConfig::default())
            .rewrite()
            .strash()
            .sweep_to_fixpoint(Engine::Stp, 4)
            .verify()
            .observer(&mut stats)
            .run(&aig)
            .expect("runs");
        // Four scheduled passes — fixpoint rounds do not re-trigger the
        // bracket even though they contribute extra reports.
        assert_eq!(stats.passes, 4);
        assert!(outcome.passes.len() >= 4);
    }

    #[test]
    fn pipeline_budget_returns_aggregate_partial() {
        let aig = redundant_circuit();
        let err = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .sweep(Engine::Stp)
            .budget(Budget::unlimited().with_max_sat_calls(0))
            .run(&aig)
            .unwrap_err();
        let partial = err.into_partial().expect("partial result");
        assert_eq!(partial.report.sat_calls_total, 0);
        assert_eq!(partial.report.gates_before, aig.num_ands());
        assert!(check_equivalence(&aig, &partial.aig, 100_000).equivalent);
    }

    #[test]
    fn exhausted_budget_stops_before_strash_and_verify() {
        let aig = redundant_circuit();
        let err = PassManager::new(SweepConfig::default())
            .strash()
            .verify()
            .budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .run(&aig)
            .unwrap_err();
        let partial = err.into_partial().expect("partial result");
        assert_eq!(partial.aig.num_ands(), aig.num_ands());
        assert_eq!(partial.report.merges, 0);
    }

    #[test]
    fn default_pipeline_verify_budget_is_usable() {
        // PassManager::default() must behave like PassManager::new(default config):
        // a verify pass on a correct sweep passes instead of failing with a
        // zero conflict budget.
        let aig = redundant_circuit();
        let outcome = PassManager::default()
            .sweep(Engine::Stp)
            .verify()
            .run(&aig)
            .expect("default pipeline verifies");
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
    }

    #[test]
    fn verify_pass_passes_on_a_correct_sweep() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .verify()
            .run(&aig)
            .expect("a correct sweep verifies");
        assert_eq!(outcome.passes.last().unwrap().name, "verify");
    }

    #[test]
    fn starved_verify_pass_reports_inconsistency_not_success() {
        // With a one-conflict budget the CEC proof cannot finish; the
        // pipeline must surface that as `Inconsistent` instead of silently
        // reporting a verified result.
        let aig = redundant_circuit();
        let err = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .verify()
            .verify_conflict_limit(1)
            .run(&aig)
            .unwrap_err();
        assert!(matches!(err, SweepError::Inconsistent(_)));
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn empty_pipeline_is_identity_with_empty_report() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .run(&aig)
            .expect("runs");
        assert_eq!(outcome.aig.num_ands(), aig.num_ands());
        assert_eq!(outcome.report.merges, 0);
        assert!(outcome.passes.is_empty());
        assert_eq!(outcome.report.gates_after, aig.num_ands());
    }

    #[test]
    fn structural_passes_preserve_equivalence_and_report_counters() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .constant_fold()
            .dangling_gc()
            .rewrite()
            .strash()
            .verify()
            .run(&aig)
            .expect("structural flow verifies");
        assert!(outcome.aig.num_ands() <= aig.num_ands());
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
        let names: Vec<&str> = outcome.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["cfold", "gc", "rewrite", "strash", "verify"]);
        let rewrite = &outcome.passes[2];
        assert!(rewrite.counter("rewrites").is_some());
        assert!(rewrite.counter("candidates").unwrap_or(0) >= rewrite.counter("rewrites").unwrap());
    }

    #[test]
    fn dc2_records_sub_reports_and_reduces() {
        let aig = redundant_circuit();
        let outcome = PassManager::new(SweepConfig::default())
            .dc2(3)
            .verify()
            .run(&aig)
            .expect("dc2 verifies");
        assert!(outcome.aig.num_ands() < aig.num_ands());
        let summary = outcome
            .passes
            .iter()
            .find(|p| p.name == "dc2")
            .expect("dc2 summary report");
        assert!(summary.counter("iterations").unwrap() >= 1);
        assert!(outcome.passes.iter().any(|p| p.name == "dc2[0] rewrite"));
        assert!(outcome.passes.iter().any(|p| p.name == "dc2[0] strash"));
        assert!(outcome.passes.iter().any(|p| p.name == "dc2[0] sweep(stp)"));
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
    }

    #[test]
    fn parsed_script_runs_like_the_builder() {
        let aig = redundant_circuit();
        let scripted = PassManager::parse("sweep(stp); strash; sweep(stp); verify")
            .expect("script parses")
            .run(&aig)
            .expect("scripted pipeline verifies");
        let built = PassManager::new(SweepConfig::default())
            .sweep(Engine::Stp)
            .strash()
            .sweep(Engine::Stp)
            .verify()
            .run(&aig)
            .expect("built pipeline verifies");
        assert_eq!(scripted.aig.num_ands(), built.aig.num_ands());
        assert_eq!(scripted.passes.len(), built.passes.len());
        assert_eq!(scripted.report.merges, built.report.merges);
    }
}
