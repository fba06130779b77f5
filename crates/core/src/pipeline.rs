//! Multi-pass optimisation runs.
//!
//! A [`PassManager`] owns a sequence of [`Pass`]es — sweeps, structural
//! cleanups, verification — and executes them in order inside
//! one budgeted, observable run:
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
//! via [`crate::SweepReport::merge`].  A pass sequence comes from the
//! builder verbs or from a textual script via [`PassManager::parse`] /
//! [`PassManager::with_script`] (see [`crate::passes::parse_script`]).

use crate::budget::{Budget, BudgetCause};
use crate::cec;
use crate::checkpoint::SweepCheckpoint;
use crate::error::SweepError;
use crate::observer::Observer;
use crate::passes::{self, ParsePassError, Pass};
use crate::report::{SweepConfig, SweepReport, SweepResult};
use crate::session::{Engine, Sweeper};
use netlist::Aig;
use std::time::{Duration, Instant};

/// Measurements of a single executed pass.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Human-readable pass name (`"sweep(stp)"`, `"strash"`, `"verify"`,
    /// `"sweep(stp) round 2"`, `"dc2[1] strash"` …).
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
    /// order — `removed` for `strash`, `iterations` for `dc2`.
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
    /// per-iteration sub-reports of a `dc2` followed by its summary).
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
/// [`Observer::on_pass_start`] call before each scheduled pass.
pub struct PassManager<'o> {
    passes: Vec<Pass>,
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
        self.passes.extend(passes::parse_script(script)?);
        Ok(self)
    }

    fn push(mut self, pass: Pass) -> Self {
        self.passes.push(pass);
        self
    }

    /// Appends a single sweep round of `engine`.
    pub fn sweep(self, engine: Engine) -> Self {
        self.push(Pass::Sweep(engine))
    }

    /// Appends a fixpoint sweep: rounds of `engine` until no further gate is
    /// removed, capped at `max_rounds` (at least one round always runs).
    pub fn sweep_to_fixpoint(self, engine: Engine, max_rounds: usize) -> Self {
        self.push(Pass::SweepToFixpoint(engine, max_rounds))
    }

    /// Appends a structural-hashing cleanup pass.  A sweep already returns
    /// a strashed network, so a `strash` right after one changes nothing;
    /// it drops an input's dangling logic and folds what
    /// [`Aig::and_raw`] built.
    pub fn strash(self) -> Self {
        self.push(Pass::Strash)
    }

    /// Appends a `dc2` loop (strash → sweep until the node count stops
    /// improving), capped at `max_iters` iterations.
    pub fn dc2(self, max_iters: usize) -> Self {
        self.push(Pass::Dc2(max_iters))
    }

    /// Appends a verification pass: the current network is CEC-checked
    /// against the run *input*; a mismatch aborts the run with
    /// [`SweepError::Inconsistent`].
    pub fn verify(self) -> Self {
        self.push(Pass::Verify)
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
    /// [`SweepError::BudgetExhausted`].  A stop inside a sweep pass also
    /// carries that pass's checkpoint.  It resumes against the interrupted
    /// pass's *input*, which the caller rebuilds by re-running the earlier
    /// passes, and resuming it completes that pass exactly; a stop before a
    /// structural pass or `verify` carries none.
    pub fn run(self, aig: &'o Aig) -> Result<PipelineResult, SweepError> {
        self.config.validate()?;
        let mut run = Run {
            aig: aig.clone(),
            aggregate: SweepReport {
                gates_before: aig.num_ands(),
                gates_after: aig.num_ands(),
                levels: aig.depth(),
                ..SweepReport::default()
            },
            reports: Vec::new(),
            round: 0,
            started: Instant::now(),
            input: aig,
            manager: self,
        };
        for pass in std::mem::take(&mut run.manager.passes) {
            let name = pass.to_string();
            if let Some(obs) = run.manager.observer.as_deref_mut() {
                obs.on_pass_start(&name, run.aig.num_ands());
            }
            run.exec(pass, name)?;
        }
        Ok(PipelineResult {
            aig: run.aig,
            report: run.aggregate,
            passes: run.reports,
        })
    }
}

/// The state of one [`PassManager::run`].
struct Run<'o> {
    /// The network being transformed.
    aig: Aig,
    /// Sweep reports merged (see [`SweepReport::merge`]), plus the wall
    /// time of the other passes.
    aggregate: SweepReport,
    reports: Vec<PassReport>,
    /// Index of the next sweep round, for the observer.
    round: usize,
    started: Instant,
    input: &'o Aig,
    manager: PassManager<'o>,
}

impl Run<'_> {
    /// Runs `pass` and records its report under `name`; composite passes
    /// run their steps through here.
    fn exec(&mut self, pass: Pass, name: String) -> Result<(), SweepError> {
        // Structural passes and `verify` check the budget before they start
        // and are timed here; a sweep runs on what remains of the budget
        // and reports its own time.
        let structural = matches!(pass, Pass::Strash | Pass::Verify);
        if structural {
            let used = self.aggregate.sat_calls_total;
            if let Some(cause) = self.manager.budget.exceeded(self.started, used) {
                let aig = std::mem::take(&mut self.aig);
                return Err(self.stop(cause, aig, None));
            }
        }
        let start = Instant::now();
        let gates_before = self.aig.num_ands();
        let mut sweep = None;
        let counters = match pass {
            Pass::Strash => {
                self.aig = self.aig.cleanup().0;
                vec![("removed", (gates_before - self.aig.num_ands()) as u64)]
            }
            Pass::Sweep(engine) => {
                let result = self.sweep(engine)?;
                self.aig = result.aig;
                sweep = Some(result.report);
                Vec::new()
            }
            Pass::SweepToFixpoint(engine, max_rounds) => {
                for round in 0..max_rounds.max(1) {
                    let entering = self.aig.num_ands();
                    let name = format!("sweep({engine}) round {round}");
                    self.exec(Pass::Sweep(engine), name)?;
                    if self.aig.num_ands() == entering {
                        break;
                    }
                }
                return Ok(());
            }
            Pass::Dc2(max_iters) => {
                let mut iterations = 0;
                while iterations < max_iters.max(1) {
                    let entering = self.aig.num_ands();
                    for step in [Pass::Strash, Pass::Sweep(Engine::Stp)] {
                        self.exec(step, format!("dc2[{iterations}] {step}"))?;
                    }
                    iterations += 1;
                    if self.aig.num_ands() >= entering {
                        break;
                    }
                }
                vec![("iterations", iterations as u64)]
            }
            Pass::Verify => {
                let limit = self.manager.verify_conflict_limit;
                let check = cec::check_equivalence(self.input, &self.aig, limit);
                if !check.equivalent {
                    // An undetermined check means the CEC ran out of
                    // conflicts, not that the sweep is wrong — but a
                    // verification the pipeline promised could not be
                    // completed, which callers must not mistake for a
                    // verified result.
                    return Err(SweepError::Inconsistent(if check.undetermined {
                        "verify pass could not prove equivalence within its budget \
                         (raise PassManager::verify_conflict_limit)"
                            .into()
                    } else {
                        "verify pass found the swept network inequivalent to the input".into()
                    }));
                }
                Vec::new()
            }
        };
        let time = sweep.map_or_else(|| start.elapsed(), |report| report.total_time);
        match &sweep {
            Some(report) => self.aggregate.merge(report),
            None if structural => self.aggregate.total_time += time,
            // The steps of a `dc2` have folded their own time already.
            None => {}
        }
        self.aggregate.gates_after = self.aig.num_ands();
        self.reports.push(PassReport {
            name,
            gates_before,
            gates_after: self.aig.num_ands(),
            report: sweep,
            time,
            counters: counters
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        });
        Ok(())
    }

    /// One sweep round of `engine` on the remaining budget.
    fn sweep(&mut self, engine: Engine) -> Result<SweepResult, SweepError> {
        let used = self.aggregate.sat_calls_total;
        let remaining = self.manager.budget.remaining(self.started.elapsed(), used);
        let mut sweeper = Sweeper::new(engine)
            .config(self.manager.config)
            .budget(remaining)
            .round_index(self.round);
        if let Some(obs) = self.manager.observer.as_deref_mut() {
            sweeper = sweeper.observer(obs);
        }
        self.round += 1;
        match sweeper.run(&self.aig) {
            Err(SweepError::BudgetExhausted {
                cause,
                partial,
                checkpoint,
            }) => {
                // The interrupted sweep's checkpoint travels with the
                // pipeline error: resuming it completes that pass exactly;
                // the passes after it have to be re-run by the caller.
                self.aggregate.merge(&partial.report);
                Err(self.stop(cause, partial.aig, checkpoint))
            }
            outcome => outcome,
        }
    }

    /// The budget-exhaustion error that hands back `aig` and the aggregate
    /// report, so the work of the completed passes is not discarded.
    fn stop(
        &self,
        cause: BudgetCause,
        aig: Aig,
        checkpoint: Option<Box<SweepCheckpoint>>,
    ) -> SweepError {
        SweepError::BudgetExhausted {
            cause,
            partial: Box::new(SweepResult {
                aig,
                report: self.aggregate,
            }),
            checkpoint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;
    use crate::observer::StatsObserver;
    use crate::session::Sweeper;
    use netlist::{write_aiger_string, LatchInit, Lit};

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

    /// One latch of each init value over redundant next-state logic, with
    /// a foldable node and a dead one.
    fn latched_circuit() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 3);
        let q0 = aig.add_latch("q0", LatchInit::Zero);
        let q1 = aig.add_latch("q1", LatchInit::One);
        let q2 = aig.add_latch("q2", LatchInit::X);
        let f = aig.and(xs[0], q0);
        let g1 = aig.xor(xs[1], q1);
        let g2_t = aig.or(xs[1], q1);
        let g2_b = aig.nand(xs[1], q1);
        let g2 = aig.and(g2_t, g2_b); // equals g1
        let n0 = aig.mux(xs[2], g1, f);
        let n1 = aig.mux(xs[2], f, g2);
        let folds = aig.and_raw(g2, Lit::TRUE);
        let n2 = aig.and(folds, q2);
        let _dead = aig.and(xs[0], xs[1]);
        aig.set_latch_next(0, n0);
        aig.set_latch_next(1, n1);
        aig.set_latch_next(2, n2);
        let o = aig.and(n0, q2);
        aig.add_output("o", o);
        aig
    }

    /// The init values that the latch lines of an ASCII AIGER text declare.
    fn aiger_latch_inits(text: &str) -> Vec<LatchInit> {
        let mut lines = text.lines();
        let header: Vec<usize> = lines
            .next()
            .expect("header")
            .split(' ')
            .skip(1)
            .map(|f| f.parse().expect("count"))
            .collect();
        let (inputs, latches) = (header[1], header[2]);
        lines
            .skip(inputs)
            .take(latches)
            .map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
                [_, _] => LatchInit::Zero,
                [_, _, "1"] => LatchInit::One,
                [q, _, init] if init == q => LatchInit::X,
                _ => panic!("malformed latch line {line:?}"),
            })
            .collect()
    }

    #[test]
    fn every_pass_keeps_the_latch_table() {
        let aig = latched_circuit();
        let inits = [LatchInit::Zero, LatchInit::One, LatchInit::X];
        assert_eq!(aiger_latch_inits(&write_aiger_string(&aig)), inits);
        for script in ["strash", "sweep(stp)", "sweep_fix(2)", "dc2(1)", "verify"] {
            let outcome = PassManager::new(SweepConfig::default())
                .with_script(script)
                .expect("script parses")
                .run(&aig)
                .unwrap_or_else(|err| panic!("{script}: {err}"));
            let out = &outcome.aig;
            assert_eq!(out.num_latches(), aig.num_latches(), "{script}");
            assert_eq!(out.latches(), aig.latches(), "{script}: latch table");
            let written = aiger_latch_inits(&write_aiger_string(out));
            assert_eq!(written, inits, "{script}: AIGER latch section");
            assert!(check_equivalence(&aig, out, 100_000).equivalent, "{script}");
        }
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
    fn observer_sees_one_pass_start_per_scheduled_pass() {
        let aig = redundant_circuit();
        let mut stats = StatsObserver::new();
        let outcome = PassManager::new(SweepConfig::default())
            .dc2(2)
            .strash()
            .sweep_to_fixpoint(Engine::Stp, 4)
            .verify()
            .observer(&mut stats)
            .run(&aig)
            .expect("runs");
        // Four scheduled passes — `dc2` steps and fixpoint rounds do not
        // re-trigger `on_pass_start` even though they contribute extra
        // reports.
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
    fn strash_folds_and_drops_dead_logic_and_reports_it() {
        let mut aig = redundant_circuit();
        let (o1, o2) = (aig.outputs()[0].lit, aig.outputs()[1].lit);
        let folds = aig.and_raw(o1, Lit::TRUE);
        aig.add_output("folds", folds);
        let _dead = aig.and(o1, o2);
        let outcome = PassManager::new(SweepConfig::default())
            .strash()
            .verify()
            .run(&aig)
            .expect("structural flow verifies");
        assert_eq!(outcome.aig.num_ands(), aig.cleanup().0.num_ands());
        assert!(check_equivalence(&aig, &outcome.aig, 100_000).equivalent);
        let names: Vec<&str> = outcome.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["strash", "verify"]);
        let removed = (aig.num_ands() - outcome.aig.num_ands()) as u64;
        assert!(removed >= 2, "the folded and the dead AND go");
        assert_eq!(outcome.passes[0].counter("removed"), Some(removed));
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
        let first: Vec<&str> = outcome
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .filter(|name| name.starts_with("dc2[0]"))
            .collect();
        assert_eq!(first, ["dc2[0] strash", "dc2[0] sweep(stp)"]);
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
