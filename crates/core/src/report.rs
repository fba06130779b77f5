//! Configuration and reporting types shared by both sweepers.

use crate::error::SweepError;
use netlist::Aig;
use std::fmt;
use std::time::Duration;

/// Configuration of a SAT-sweeping run.
///
/// The defaults correspond to the setting of the paper's evaluation: a TFI /
/// driver budget of 1000 (Algorithm 2, line 1), exhaustive simulation
/// windows of fewer than 16 leaves, and a finite conflict budget per SAT
/// query so that hard queries come back as `unDET`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of initial simulation patterns.
    pub num_initial_patterns: usize,
    /// Conflict budget per SAT query (`unDET` when exhausted).
    pub conflict_limit: u64,
    /// Maximum number of candidate drivers examined per candidate node
    /// (the paper's TFI limit `n = 1000`).
    pub tfi_limit: usize,
    /// Maximum number of leaves of an exhaustive simulation window
    /// (the paper restricts windows to fewer than 16 leaves).
    pub window_limit: usize,
    /// Seed of the pseudo-random pattern generator.
    pub seed: u64,
    /// Generate the initial patterns with SAT guidance (the round of
    /// Section IV-A that disproves would-be constants) instead of purely at
    /// random.
    pub sat_guided_patterns: bool,
    /// Detect and substitute constant nodes before pairwise merging.
    pub constant_substitution: bool,
    /// Refine candidate equivalence classes by exhaustive STP window
    /// simulation before calling the SAT solver.
    pub window_refinement: bool,
    /// Induction depth `k` of the sequential sweep.  `0` (the default) runs
    /// the purely combinational sweep, ignoring any latch table; a nonzero
    /// value makes the session sweep latches instead: ternary (X-valued)
    /// fixpoint simulation from the initial state, latch correspondence
    /// candidates refined by multi-frame binary simulation, and each
    /// surviving candidate proved by `k`-step induction on the session's
    /// one solver (base case unrolled from the initial state, inductive
    /// step from a free state).
    /// Set through [`SweepConfig::sequential`] or
    /// [`SweepConfig::with_seq_depth`]; capped at [`MAX_SEQ_DEPTH`] by
    /// [`SweepConfig::validate`].
    pub seq_depth: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            num_initial_patterns: 256,
            conflict_limit: 20_000,
            tfi_limit: 1000,
            window_limit: 8,
            seed: 0xC0FFEE,
            sat_guided_patterns: true,
            constant_substitution: true,
            window_refinement: true,
            seq_depth: 0,
        }
    }
}

/// The largest window (number of leaves) the paper's exhaustive STP window
/// simulation supports: Section III-B restricts windows to at most 16 leaves.
pub const MAX_WINDOW_LIMIT: usize = 16;

/// The largest induction depth [`SweepConfig::validate`] accepts.  Each unit
/// of depth unrolls another time frame into every base-case and inductive
/// SAT query, so the cost grows linearly in `k` per query; depths beyond
/// this bound are virtually always a configuration mistake.
pub const MAX_SEQ_DEPTH: usize = 64;

impl SweepConfig {
    /// The configuration used by the baseline FRAIG-style sweeper: random
    /// patterns, no constant substitution pass, no window refinement.
    pub fn baseline() -> Self {
        SweepConfig {
            sat_guided_patterns: false,
            constant_substitution: false,
            window_refinement: false,
            ..SweepConfig::default()
        }
    }

    /// The exact setting of the paper's evaluation (alias of
    /// [`SweepConfig::default`]): 256 SAT-guided patterns, a TFI budget of
    /// 1000, windows of at most 8 leaves, all of Algorithm 2's features on.
    pub fn paper() -> Self {
        SweepConfig::default()
    }

    /// A cheap setting for interactive use and smoke tests: fewer patterns,
    /// a small conflict budget, purely random patterns (SAT-guided pattern
    /// generation itself costs SAT queries), small windows.
    pub fn fast() -> Self {
        SweepConfig {
            num_initial_patterns: 64,
            conflict_limit: 2_000,
            tfi_limit: 100,
            window_limit: 6,
            sat_guided_patterns: false,
            ..SweepConfig::default()
        }
    }

    /// A high-effort setting: more initial patterns, a generous conflict
    /// budget and a deep driver search, for runs where quality matters more
    /// than latency.
    pub fn thorough() -> Self {
        SweepConfig {
            num_initial_patterns: 1024,
            conflict_limit: 100_000,
            tfi_limit: 10_000,
            window_limit: 12,
            ..SweepConfig::default()
        }
    }

    /// The sequential-sweeping setting: the default combinational
    /// configuration plus an induction depth of `k` (see
    /// [`SweepConfig::seq_depth`]).  `k = 1` is classic signal
    /// correspondence (simple induction); larger depths prove equivalences
    /// that need more history.
    pub fn sequential(k: usize) -> Self {
        SweepConfig::default().with_seq_depth(k)
    }

    /// Sets the induction depth of the sequential sweep
    /// (see [`SweepConfig::seq_depth`]; `0` = combinational).
    pub fn with_seq_depth(mut self, k: usize) -> Self {
        self.seq_depth = k;
        self
    }

    /// Sets the number of initial simulation patterns.
    pub fn with_patterns(mut self, num: usize) -> Self {
        self.num_initial_patterns = num;
        self
    }

    /// Sets the conflict budget per SAT query.
    pub fn with_conflict_limit(mut self, limit: u64) -> Self {
        self.conflict_limit = limit;
        self
    }

    /// Sets the maximum number of candidate drivers examined per node.
    pub fn with_tfi_limit(mut self, limit: usize) -> Self {
        self.tfi_limit = limit;
        self
    }

    /// Sets the maximum number of leaves of an exhaustive simulation window.
    pub fn with_window_limit(mut self, limit: usize) -> Self {
        self.window_limit = limit;
        self
    }

    /// Sets the seed of the pseudo-random pattern generator.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Ignores its argument; kept because the frozen `stpbench` benchmark calls it.
    #[doc(hidden)]
    pub fn parallelism(self, _num_threads: usize) -> Self {
        self
    }

    /// Ignores its argument; kept because the frozen `stpbench` benchmark calls it.
    #[doc(hidden)]
    pub fn sat_parallelism(self, _sat_parallelism: usize) -> Self {
        self
    }

    /// Checks the configuration for values the engines cannot work with.
    ///
    /// Invalid values used to be clamped or to silently misbehave; the
    /// builder API rejects them up front with
    /// [`SweepError::InvalidConfig`]:
    ///
    /// * `num_initial_patterns` must be nonzero (candidate classes are built
    ///   from initial signatures);
    /// * `conflict_limit` must be nonzero (a zero budget turns every SAT
    ///   query into `unDET`, which leaves every queried candidate
    ///   unmerged);
    /// * `window_limit` must be at least 2 (a window of a two-input AND
    ///   needs both fanins as leaves) and at most [`MAX_WINDOW_LIMIT`] (the
    ///   paper restricts exhaustive windows to at most 16 leaves);
    /// * `seq_depth` must be at most [`MAX_SEQ_DEPTH`].
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.num_initial_patterns == 0 {
            return Err(SweepError::InvalidConfig(
                "num_initial_patterns must be nonzero".into(),
            ));
        }
        if self.conflict_limit == 0 {
            return Err(SweepError::InvalidConfig(
                "conflict_limit must be nonzero".into(),
            ));
        }
        if self.window_limit < 2 {
            return Err(SweepError::InvalidConfig(format!(
                "window_limit {} is below the minimum of 2 leaves",
                self.window_limit
            )));
        }
        if self.window_limit > MAX_WINDOW_LIMIT {
            return Err(SweepError::InvalidConfig(format!(
                "window_limit {} exceeds the paper's maximum of {MAX_WINDOW_LIMIT} leaves",
                self.window_limit
            )));
        }
        if self.seq_depth > MAX_SEQ_DEPTH {
            return Err(SweepError::InvalidConfig(format!(
                "seq_depth {} exceeds the maximum induction depth of {MAX_SEQ_DEPTH}",
                self.seq_depth
            )));
        }
        Ok(())
    }
}

/// Measurements of one sweeping run — the columns of Table II.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepReport {
    /// AND gates before sweeping.
    pub gates_before: usize,
    /// AND gates after sweeping and cleanup.
    pub gates_after: usize,
    /// Logic levels of the original network.
    pub levels: usize,
    /// Number of proved node merges.
    pub merges: usize,
    /// Number of nodes substituted by constants.
    pub constants: usize,
    /// Satisfiable SAT calls (each produced a counter-example).
    pub sat_calls_sat: u64,
    /// Unsatisfiable SAT calls (each proved a merge or constant).
    pub sat_calls_unsat: u64,
    /// SAT calls that exhausted their conflict budget.
    pub sat_calls_undet: u64,
    /// Total SAT calls.
    pub sat_calls_total: u64,
    /// Candidate pairs disproved by simulation alone (no SAT call needed).
    pub disproved_by_simulation: u64,
    /// Candidate pairs proved by exhaustive window simulation alone.
    pub proved_by_simulation: u64,
    /// Incremental resimulation events (one per counter-example).
    pub resim_events: u64,
    /// AND nodes evaluated by incremental resimulation, summed over events.
    pub resim_nodes: u64,
    /// AND nodes incremental resimulation skipped, summed over events — the
    /// extra work a `simulate_all`-per-counter-example strategy would have
    /// done.
    pub resim_skipped_nodes: u64,
    /// Constant and merge candidates skipped with no window verdict and no
    /// SAT query, because no output reached them at their turn.
    pub dead_skips: u64,
    /// Always 0; kept because the frozen `stpbench` benchmark reads it.
    #[doc(hidden)]
    pub sat_batches: u64,
    /// Always 0; kept because the frozen `stpbench` benchmark reads it.
    #[doc(hidden)]
    pub sat_batch_committed: u64,
    /// Always 0; kept because the frozen `stpbench` benchmark reads it.
    #[doc(hidden)]
    pub sat_parallel_conflicts: u64,
    /// Latches of the input network (sequential sweeps only; `0` for
    /// combinational runs, kept from the first pass when merging).
    pub seq_latches_before: usize,
    /// Latches surviving the sequential sweep (mirrors
    /// [`SweepReport::gates_after`]: the later pass wins when merging).
    pub seq_latches_after: usize,
    /// Latch-correspondence candidates the sequential engine submitted to
    /// `k`-step induction after ternary and multi-frame binary refinement.
    pub seq_candidates: u64,
    /// Latches proved stuck at a definite value by the ternary fixpoint
    /// alone and substituted by constants without any SAT call.
    pub seq_ternary_constants: u64,
    /// Sequential candidates refuted by a satisfiable base case (a real
    /// counter-example trace from the initial state).
    pub seq_induction_refuted: u64,
    /// Sequential candidates left unmerged because the inductive step was
    /// satisfiable or a query exhausted its conflict budget — `k`-step
    /// induction is incomplete, so these are "unknown", not refuted.
    pub seq_induction_undet: u64,
    /// Iterations the ternary fixpoint took to converge (at most
    /// latches + 1; `0` for combinational runs).
    pub ternary_iterations: u64,
    /// Time spent simulating (initial + counter-example simulation; for a
    /// sequential sweep, the analysis and the induction network).
    pub simulation_time: Duration,
    /// Time spent inside the SAT solver on sweeping queries (constant
    /// proofs, pairwise merges and, for sequential sweeps, induction).
    pub sat_time: Duration,
    /// End-to-end runtime of the sweep.
    pub total_time: Duration,
}

impl SweepReport {
    /// Fraction of gates removed by the sweep.
    pub fn reduction(&self) -> f64 {
        if self.gates_before == 0 {
            0.0
        } else {
            1.0 - self.gates_after as f64 / self.gates_before as f64
        }
    }

    /// Folds the report of a later pass into this one.
    ///
    /// Counters and times are summed; `gates_before` and `levels` keep
    /// describing the network this report started from while `gates_after`
    /// is taken from the later pass.  This is the accumulation used by
    /// [`crate::PassManager`] and the fixpoint wrapper.
    pub fn merge(&mut self, later: &SweepReport) {
        self.gates_after = later.gates_after;
        self.merges += later.merges;
        self.constants += later.constants;
        self.sat_calls_sat += later.sat_calls_sat;
        self.sat_calls_unsat += later.sat_calls_unsat;
        self.sat_calls_undet += later.sat_calls_undet;
        self.sat_calls_total += later.sat_calls_total;
        self.disproved_by_simulation += later.disproved_by_simulation;
        self.proved_by_simulation += later.proved_by_simulation;
        self.resim_events += later.resim_events;
        self.resim_nodes += later.resim_nodes;
        self.resim_skipped_nodes += later.resim_skipped_nodes;
        self.dead_skips += later.dead_skips;
        self.seq_latches_after = later.seq_latches_after;
        self.seq_candidates += later.seq_candidates;
        self.seq_ternary_constants += later.seq_ternary_constants;
        self.seq_induction_refuted += later.seq_induction_refuted;
        self.seq_induction_undet += later.seq_induction_undet;
        self.ternary_iterations += later.ternary_iterations;
        self.simulation_time += later.simulation_time;
        self.sat_time += later.sat_time;
        self.total_time += later.total_time;
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gates {} -> {} ({} merges, {} constants), SAT {}/{} sat/total ({} undet), sim {:.3}s, total {:.3}s",
            self.gates_before,
            self.gates_after,
            self.merges,
            self.constants,
            self.sat_calls_sat,
            self.sat_calls_total,
            self.sat_calls_undet,
            self.simulation_time.as_secs_f64(),
            self.total_time.as_secs_f64()
        )
    }
}

/// The outcome of a sweeping run: the optimised network plus measurements.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The swept (functionally equivalent, smaller or equal) network.
    pub aig: Aig,
    /// Measurements of the run.
    pub report: SweepReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_enables_paper_features() {
        let c = SweepConfig::default();
        assert!(c.sat_guided_patterns);
        assert!(c.constant_substitution);
        assert!(c.window_refinement);
        assert_eq!(c.tfi_limit, 1000);
        assert!(c.window_limit < 16);
    }

    #[test]
    fn baseline_config_disables_paper_features() {
        let c = SweepConfig::baseline();
        assert!(!c.sat_guided_patterns);
        assert!(!c.constant_substitution);
        assert!(!c.window_refinement);
    }

    #[test]
    fn presets_are_valid_and_ordered_by_effort() {
        for config in [
            SweepConfig::paper(),
            SweepConfig::fast(),
            SweepConfig::thorough(),
            SweepConfig::baseline(),
        ] {
            config.validate().expect("presets validate");
        }
        assert!(
            SweepConfig::fast().num_initial_patterns < SweepConfig::paper().num_initial_patterns
        );
        assert!(
            SweepConfig::paper().num_initial_patterns
                < SweepConfig::thorough().num_initial_patterns
        );
        assert_eq!(SweepConfig::paper(), SweepConfig::default());
    }

    #[test]
    fn chainable_setters_apply() {
        let config = SweepConfig::fast()
            .with_patterns(99)
            .with_conflict_limit(7)
            .with_tfi_limit(3)
            .with_window_limit(5)
            .with_seed(42)
            .with_seq_depth(2);
        assert_eq!(config.num_initial_patterns, 99);
        assert_eq!(config.conflict_limit, 7);
        assert_eq!(config.tfi_limit, 3);
        assert_eq!(config.window_limit, 5);
        assert_eq!(config.seed, 42);
        assert_eq!(config.seq_depth, 2);
    }

    #[test]
    fn sequential_preset_sets_only_the_depth() {
        let config = SweepConfig::sequential(3);
        assert_eq!(config.seq_depth, 3);
        assert_eq!(
            SweepConfig {
                seq_depth: 0,
                ..config
            },
            SweepConfig::default(),
            "everything else stays at the paper defaults"
        );
        config.validate().expect("the preset validates");
    }

    #[test]
    fn presets_leave_opt_in_features_off() {
        for config in [
            SweepConfig::paper(),
            SweepConfig::fast(),
            SweepConfig::thorough(),
            SweepConfig::baseline(),
        ] {
            assert_eq!(config.seq_depth, 0, "sequential sweeping is opt-in");
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(SweepConfig::default().with_patterns(0).validate().is_err());
        assert!(SweepConfig::default()
            .with_conflict_limit(0)
            .validate()
            .is_err());
        for bad in [0, 1, MAX_WINDOW_LIMIT + 1] {
            assert!(
                SweepConfig::default()
                    .with_window_limit(bad)
                    .validate()
                    .is_err(),
                "window_limit {bad} must be rejected"
            );
        }
        // The boundary values themselves are allowed (the ablation sweeps
        // the upper one).
        for good in [2, MAX_WINDOW_LIMIT] {
            assert!(SweepConfig::default()
                .with_window_limit(good)
                .validate()
                .is_ok());
        }
        assert!(SweepConfig::sequential(MAX_SEQ_DEPTH + 1)
            .validate()
            .is_err());
        assert!(SweepConfig::sequential(MAX_SEQ_DEPTH).validate().is_ok());
    }

    #[test]
    fn merge_accumulates_counts_and_keeps_origin() {
        let mut first = SweepReport {
            gates_before: 100,
            gates_after: 80,
            levels: 9,
            merges: 5,
            sat_calls_sat: 2,
            sat_calls_total: 4,
            seq_latches_before: 7,
            seq_latches_after: 6,
            seq_candidates: 2,
            simulation_time: Duration::from_millis(10),
            ..SweepReport::default()
        };
        let second = SweepReport {
            gates_before: 80,
            gates_after: 70,
            levels: 8,
            merges: 3,
            constants: 1,
            sat_calls_sat: 1,
            sat_calls_total: 2,
            resim_events: 2,
            resim_nodes: 30,
            resim_skipped_nodes: 130,
            dead_skips: 9,
            seq_latches_after: 3,
            seq_candidates: 4,
            seq_ternary_constants: 1,
            seq_induction_refuted: 2,
            seq_induction_undet: 1,
            ternary_iterations: 5,
            simulation_time: Duration::from_millis(5),
            ..SweepReport::default()
        };
        first.merge(&second);
        assert_eq!(first.gates_before, 100);
        assert_eq!(first.levels, 9);
        assert_eq!(first.gates_after, 70);
        assert_eq!(first.merges, 8);
        assert_eq!(first.constants, 1);
        assert_eq!(first.sat_calls_sat, 3);
        assert_eq!(first.sat_calls_total, 6);
        assert_eq!(first.resim_events, 2);
        assert_eq!(first.resim_nodes, 30);
        assert_eq!(first.resim_skipped_nodes, 130);
        assert_eq!(first.dead_skips, 9);
        assert_eq!(first.seq_latches_before, 7, "merge keeps the origin");
        assert_eq!(first.seq_latches_after, 3, "the later pass wins");
        assert_eq!(first.seq_candidates, 6);
        assert_eq!(first.seq_ternary_constants, 1);
        assert_eq!(first.seq_induction_refuted, 2);
        assert_eq!(first.seq_induction_undet, 1);
        assert_eq!(first.ternary_iterations, 5);
        assert_eq!(first.simulation_time, Duration::from_millis(15));
    }

    #[test]
    fn merge_is_associative() {
        // The pipeline folds pass reports left to right, but the fixpoint
        // wrapper pre-merges its inner iterations before handing the result
        // up.  Both bracketings must agree, which holds because every field
        // policy (sum, last-writer, keep-first) is associative.
        let a = SweepReport {
            gates_before: 100,
            gates_after: 80,
            levels: 9,
            merges: 5,
            sat_calls_sat: 2,
            sat_calls_total: 4,
            simulation_time: Duration::from_millis(10),
            ..SweepReport::default()
        };
        let b = SweepReport {
            gates_before: 80,
            gates_after: 70,
            levels: 8,
            merges: 3,
            constants: 1,
            sat_calls_unsat: 4,
            sat_calls_total: 5,
            seq_latches_after: 5,
            seq_candidates: 3,
            ternary_iterations: 2,
            sat_time: Duration::from_millis(7),
            ..SweepReport::default()
        };
        let c = SweepReport {
            gates_before: 70,
            gates_after: 61,
            levels: 7,
            merges: 2,
            sat_calls_undet: 1,
            sat_calls_total: 1,
            seq_latches_after: 4,
            seq_induction_undet: 1,
            total_time: Duration::from_millis(20),
            ..SweepReport::default()
        };

        let left = {
            let mut folded = a;
            folded.merge(&b);
            folded.merge(&c);
            folded
        };
        let right = {
            let mut later = b;
            later.merge(&c);
            let mut folded = a;
            folded.merge(&later);
            folded
        };
        assert_eq!(left, right, "merge bracketing must not matter");
        assert_eq!(left.gates_before, 100);
        assert_eq!(left.gates_after, 61);
        assert_eq!(left.sat_calls_total, 10);
    }

    #[test]
    fn report_reduction() {
        let report = SweepReport {
            gates_before: 100,
            gates_after: 80,
            ..SweepReport::default()
        };
        assert!((report.reduction() - 0.2).abs() < 1e-9);
        assert_eq!(SweepReport::default().reduction(), 0.0);
        assert!(report.to_string().contains("100 -> 80"));
    }
}
