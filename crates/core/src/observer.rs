//! Progress observation for sweeping runs.
//!
//! An [`Observer`] receives the engine's events as they happen: round
//! starts, SAT calls, class refinements, merges and counter-examples.  Every
//! method has a no-op default, so an observer implements only what it needs
//! (a progress bar wants [`Observer::on_round`] and [`Observer::on_merge`];
//! a dashboard wants everything).
//!
//! [`StatsObserver`] is the built-in observer that counts events; the
//! engine derives the countable fields of [`SweepReport`] from exactly
//! these events, so an external `StatsObserver` attached to a run sees the
//! same numbers the run returns.
//!
//! Checkpoints are not events: a run yields one only where it stops, inside
//! [`crate::SweepError::BudgetExhausted`], or on request through
//! [`crate::SweepSession::checkpoint`].

use crate::report::SweepReport;
use netlist::{Lit, NodeId};

/// Outcome of a single sweeping SAT query, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatCallOutcome {
    /// Satisfiable: the pair was disproved and a counter-example follows.
    Sat,
    /// Unsatisfiable: the merge (or constant) was proved.
    Unsat,
    /// The conflict budget ran out (`unDET` in the paper).
    Undetermined,
}

/// Receives engine events during a sweeping run.
///
/// All methods default to no-ops.  Observers are passed to
/// [`crate::Sweeper::observer`] / [`crate::PassManager::observer`] by mutable
/// reference, so the caller keeps ownership and can inspect the observer
/// after the run.
pub trait Observer {
    /// A sweep round starts: `round` is the zero-based round index (a plain
    /// [`crate::Sweeper`] run is round 0; [`crate::PassManager`] and fixpoint
    /// sweeps advance it per pass), `gates` the AND count of the network
    /// being swept.
    fn on_round(&mut self, round: usize, gates: usize) {
        let _ = (round, gates);
    }

    /// A counter-example refined the candidate classes: `num_classes`
    /// classes remain, counting the constant candidates' class (that of
    /// node 0), and `moved` counts the nodes the splits dropped (one each)
    /// and the classes they left with at least two members (one each),
    /// node 0's class like any other; see
    /// [`crate::equiv::EquivClasses::refine`].
    fn on_class_refined(&mut self, num_classes: usize, moved: usize) {
        let _ = (num_classes, moved);
    }

    /// A sweeping SAT query finished (pattern-generation queries are not
    /// reported, mirroring the paper's Table II accounting).
    fn on_sat_call(&mut self, outcome: SatCallOutcome) {
        let _ = outcome;
    }

    /// `candidate` was proved equal to `replacement` and merged away.  A
    /// constant `replacement` ([`Lit::is_constant`]) is a constant
    /// substitution, anything else a pairwise merge.
    fn on_merge(&mut self, candidate: NodeId, replacement: Lit) {
        let _ = (candidate, replacement);
    }

    /// A satisfiable SAT query produced this distinguishing input
    /// assignment (one `bool` per primary input; for a sequential sweep,
    /// the refuting base-case trace: the values of the `X`-initialised
    /// latches, then `k − 1` frames of primary inputs).
    fn on_counterexample(&mut self, assignment: &[bool]) {
        let _ = assignment;
    }

    /// Exhaustive STP window simulation settled the pair `(candidate,
    /// driver)` without a SAT call: `equivalent` tells whether the pair was
    /// proved or disproved.
    fn on_simulation_verdict(&mut self, candidate: NodeId, driver: NodeId, equivalent: bool) {
        let _ = (candidate, driver, equivalent);
    }

    /// A counter-example was resimulated incrementally: fresh values were
    /// requested for `targets` candidate nodes, `resimulated` AND nodes were
    /// actually evaluated, and `skipped` AND nodes were left alone (a full
    /// `simulate_all` pass would have evaluated them too).
    fn on_resimulation(&mut self, targets: usize, resimulated: usize, skipped: usize) {
        let _ = (targets, resimulated, skipped);
    }

    /// `candidate` reached no output at its turn, with the merges proved so
    /// far applied to the input, so it was skipped with no window verdict
    /// and no SAT query.
    fn on_dead_candidate(&mut self, candidate: NodeId) {
        let _ = candidate;
    }

    /// A [`crate::PassManager`] pass is about to run: `name` is the pass
    /// name (e.g. `"strash"`), `gates` the AND count entering the pass.
    /// Sub-reports of composite passes (fixpoint rounds, `dc2` iterations)
    /// do not re-trigger this hook — one call per scheduled pass.  The
    /// finished passes' reports are [`crate::PipelineResult::passes`].
    fn on_pass_start(&mut self, name: &str, gates: usize) {
        let _ = (name, gates);
    }
}

/// The no-op observer (every method keeps its default body).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Counts engine events; the source of the countable [`SweepReport`]
/// fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsObserver {
    /// Number of rounds started.
    pub rounds: usize,
    /// Pairwise merges applied.
    pub merges: usize,
    /// Constant substitutions applied.
    pub constants: usize,
    /// Satisfiable sweeping SAT calls.
    pub sat_calls_sat: u64,
    /// Unsatisfiable sweeping SAT calls.
    pub sat_calls_unsat: u64,
    /// Sweeping SAT calls that ran out of conflicts.
    pub sat_calls_undet: u64,
    /// Pairs proved by exhaustive window simulation alone.
    pub proved_by_simulation: u64,
    /// Pairs disproved by exhaustive window simulation alone.
    pub disproved_by_simulation: u64,
    /// Counter-examples simulated.
    pub counterexamples: u64,
    /// Class refinements triggered.
    pub refinements: u64,
    /// Incremental resimulation events.
    pub resim_events: u64,
    /// AND nodes evaluated by incremental resimulation, over all events.
    pub resim_nodes: u64,
    /// AND nodes incremental resimulation skipped, over all events.
    pub resim_skipped_nodes: u64,
    /// Candidates skipped because they reached no output at their turn.
    pub dead_skips: u64,
    /// Pipeline passes started (one per [`Observer::on_pass_start`]; not
    /// part of [`SweepReport`]).
    pub passes: u64,
}

impl StatsObserver {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        StatsObserver::default()
    }

    /// Total sweeping SAT calls of any outcome.
    pub fn sat_calls_total(&self) -> u64 {
        self.sat_calls_sat + self.sat_calls_unsat + self.sat_calls_undet
    }

    /// The counted fields as a [`SweepReport`] (gate counts and times are
    /// zero — the session fills those from its own measurements).
    pub fn counts(&self) -> SweepReport {
        SweepReport {
            merges: self.merges,
            constants: self.constants,
            sat_calls_sat: self.sat_calls_sat,
            sat_calls_unsat: self.sat_calls_unsat,
            sat_calls_undet: self.sat_calls_undet,
            sat_calls_total: self.sat_calls_total(),
            proved_by_simulation: self.proved_by_simulation,
            disproved_by_simulation: self.disproved_by_simulation,
            resim_events: self.resim_events,
            resim_nodes: self.resim_nodes,
            resim_skipped_nodes: self.resim_skipped_nodes,
            dead_skips: self.dead_skips,
            ..SweepReport::default()
        }
    }
}

impl Observer for StatsObserver {
    fn on_round(&mut self, _round: usize, _gates: usize) {
        self.rounds += 1;
    }

    fn on_class_refined(&mut self, _num_classes: usize, _moved: usize) {
        self.refinements += 1;
    }

    fn on_sat_call(&mut self, outcome: SatCallOutcome) {
        match outcome {
            SatCallOutcome::Sat => self.sat_calls_sat += 1,
            SatCallOutcome::Unsat => self.sat_calls_unsat += 1,
            SatCallOutcome::Undetermined => self.sat_calls_undet += 1,
        }
    }

    fn on_merge(&mut self, _candidate: NodeId, replacement: Lit) {
        if replacement.is_constant() {
            self.constants += 1;
        } else {
            self.merges += 1;
        }
    }

    fn on_counterexample(&mut self, _assignment: &[bool]) {
        self.counterexamples += 1;
    }

    fn on_simulation_verdict(&mut self, _candidate: NodeId, _driver: NodeId, equivalent: bool) {
        if equivalent {
            self.proved_by_simulation += 1;
        } else {
            self.disproved_by_simulation += 1;
        }
    }

    fn on_resimulation(&mut self, _targets: usize, resimulated: usize, skipped: usize) {
        self.resim_events += 1;
        self.resim_nodes += resimulated as u64;
        self.resim_skipped_nodes += skipped as u64;
    }

    fn on_dead_candidate(&mut self, _candidate: NodeId) {
        self.dead_skips += 1;
    }

    fn on_pass_start(&mut self, _name: &str, _gates: usize) {
        self.passes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_observer_counts_every_event_kind() {
        let mut stats = StatsObserver::new();
        stats.on_round(0, 100);
        stats.on_sat_call(SatCallOutcome::Sat);
        stats.on_sat_call(SatCallOutcome::Unsat);
        stats.on_sat_call(SatCallOutcome::Unsat);
        stats.on_sat_call(SatCallOutcome::Undetermined);
        stats.on_merge(7, Lit::positive(3));
        stats.on_merge(9, Lit::TRUE);
        stats.on_counterexample(&[true, false]);
        stats.on_class_refined(4, 2);
        stats.on_simulation_verdict(5, 3, true);
        stats.on_simulation_verdict(6, 3, false);
        stats.on_resimulation(3, 5, 95);
        stats.on_dead_candidate(11);

        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.merges, 1);
        assert_eq!(stats.constants, 1);
        assert_eq!(stats.sat_calls_sat, 1);
        assert_eq!(stats.sat_calls_unsat, 2);
        assert_eq!(stats.sat_calls_undet, 1);
        assert_eq!(stats.sat_calls_total(), 4);
        assert_eq!(stats.counterexamples, 1);
        assert_eq!(stats.refinements, 1);
        assert_eq!(stats.proved_by_simulation, 1);
        assert_eq!(stats.disproved_by_simulation, 1);
        assert_eq!(stats.resim_events, 1);
        assert_eq!(stats.resim_nodes, 5);
        assert_eq!(stats.resim_skipped_nodes, 95);
        assert_eq!(stats.dead_skips, 1);

        let report = stats.counts();
        assert_eq!(report.merges, 1);
        assert_eq!(report.constants, 1);
        assert_eq!(report.sat_calls_total, 4);
        assert_eq!(report.resim_events, 1);
        assert_eq!(report.resim_nodes, 5);
        assert_eq!(report.resim_skipped_nodes, 95);
        assert_eq!(report.dead_skips, 1);
        assert_eq!(report.gates_before, 0, "gate counts belong to the session");
    }

    #[test]
    fn default_observer_methods_are_noops() {
        let mut noop = NoopObserver;
        noop.on_round(0, 10);
        noop.on_sat_call(SatCallOutcome::Sat);
        noop.on_merge(1, Lit::FALSE);
        noop.on_counterexample(&[]);
        noop.on_class_refined(0, 0);
        noop.on_simulation_verdict(1, 2, true);
        noop.on_resimulation(0, 0, 0);
        noop.on_dead_candidate(1);
    }
}
