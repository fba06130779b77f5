//! SAT-guided initial simulation patterns (Section IV-A of the paper).
//!
//! Purely random patterns leave nodes that happen to simulate to all-zeros
//! or all-ones, and each looks like a constant even when it is not.  The
//! guided round (after Amarù et al., DAC'20) asks the SAT solver for
//! assignments that flip such would-be constants to their missing value,
//! and every satisfying assignment becomes an additional simulation
//! pattern.
//!
//! The paper adds a second round that raises the toggle rate of strongly
//! biased nodes.  It is not implemented: on the Table II analog suite it
//! changed no swept network and moved the sweep's SAT calls by one, at five
//! times the first round's cost.

use bitsim::{AigSimulator, PatternSet};
use netlist::{Aig, Lit};
use satsolver::CircuitSat;
use std::collections::HashSet;

/// The most SAT queries the guided round spends.
const GUIDED_QUERIES: usize = 64;

/// Configuration of the SAT-guided pattern generator.
#[derive(Debug, Clone, Copy)]
pub struct PatternGenConfig {
    /// Number of purely random base patterns.
    pub num_random: usize,
    /// Seed of the random generator.
    pub seed: u64,
    /// Conflict limit per SAT query.
    pub conflict_limit: u64,
}

impl Default for PatternGenConfig {
    fn default() -> Self {
        PatternGenConfig {
            num_random: 256,
            seed: 0xC0FFEE,
            conflict_limit: 1_000,
        }
    }
}

/// Statistics of a pattern-generation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternGenStats {
    /// Patterns contributed by the guided round (constant disproval).
    pub round1_patterns: usize,
    /// Always 0; kept because the frozen `stpbench` benchmark reads it.
    #[doc(hidden)]
    pub round2_patterns: usize,
    /// Nodes whose constant-ness the guided round could not disprove (true
    /// constant candidates handed to the sweeper).
    pub constant_candidates: usize,
}

/// Generates purely random patterns (the baseline sweeper's initial
/// simulation).
///
/// # Panics
///
/// Panics if `num_patterns` is zero — the engines validate
/// `num_initial_patterns > 0` (see [`crate::SweepConfig::validate`]) before
/// generating patterns, so a zero here is a caller bug.
pub fn random_patterns(aig: &Aig, num_patterns: usize, seed: u64) -> PatternSet {
    PatternSet::random(aig.num_inputs(), num_patterns, seed)
        .expect("callers validate the pattern count before generating patterns")
}

/// Generates SAT-guided initial patterns: random base patterns plus one
/// assignment for each AND node that they leave constant, in topological
/// order, for at most 64 such nodes.
///
/// The function reuses the caller's [`CircuitSat`] instance so that clauses
/// learned while generating patterns stay available to the sweeping queries
/// that follow.
pub fn sat_guided_patterns(
    aig: &Aig,
    sat: &mut CircuitSat<'_>,
    config: &PatternGenConfig,
) -> (PatternSet, PatternGenStats) {
    let mut stats = PatternGenStats::default();
    let mut patterns = random_patterns(aig, config.num_random.max(1), config.seed);
    let mut seen: HashSet<Vec<bool>> = HashSet::new();

    let state = AigSimulator::new(aig).run(&patterns);
    let goals = aig.and_ids().filter_map(|id| {
        let sig = state.signature(id);
        if sig.is_const0() {
            Some(Lit::positive(id))
        } else if sig.is_const1() {
            Some(!Lit::positive(id))
        } else {
            None
        }
    });
    for goal in goals.take(GUIDED_QUERIES) {
        match sat.find_assignment(&[goal], config.conflict_limit) {
            Some(assignment) => {
                if seen.insert(assignment.clone()) {
                    patterns.push_pattern(&assignment);
                    stats.round1_patterns += 1;
                }
            }
            None => {
                stats.constant_candidates += 1;
            }
        }
    }
    (patterns, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::AigSimulator;

    /// An AIG with a node that random simulation almost always sees as
    /// constant zero: a wide AND of many inputs.
    fn biased_aig(width: usize) -> (Aig, Lit) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", width);
        let wide_and = aig.and_many(&xs);
        let other = aig.xor(xs[0], xs[1]);
        let out = aig.or(wide_and, other);
        aig.add_output("y", out);
        (aig, wide_and)
    }

    #[test]
    fn round1_disproves_fake_constants() {
        let (aig, wide_and) = biased_aig(10);
        let mut sat = CircuitSat::new(&aig);
        let config = PatternGenConfig {
            num_random: 64,
            ..PatternGenConfig::default()
        };
        let (patterns, stats) = sat_guided_patterns(&aig, &mut sat, &config);
        assert!(patterns.num_patterns() > 64, "guided patterns were added");
        assert!(stats.round1_patterns > 0, "the wide AND was disproved");
        // After simulation with the guided patterns, the wide AND is no
        // longer a constant candidate.
        let state = AigSimulator::new(&aig).run(&patterns);
        assert!(!state.signature(wide_and.node()).is_const0());
    }

    #[test]
    fn true_constants_are_reported_not_flipped() {
        // h = (a & b) & !a is constant false no matter what.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let t = aig.and(a, b);
        let h = aig.and(t, !a);
        aig.add_output("h", h);
        let mut sat = CircuitSat::new(&aig);
        let config = PatternGenConfig {
            num_random: 16,
            ..PatternGenConfig::default()
        };
        let (_, stats) = sat_guided_patterns(&aig, &mut sat, &config);
        assert!(stats.constant_candidates >= 1);
    }

    #[test]
    fn nodes_that_toggle_cost_no_query() {
        // With 2048 random patterns the 8-input wide AND already toggles,
        // so no node looks constant.
        let (aig, _) = biased_aig(8);
        let mut sat = CircuitSat::new(&aig);
        let config = PatternGenConfig {
            num_random: 2048,
            ..PatternGenConfig::default()
        };
        let (patterns, stats) = sat_guided_patterns(&aig, &mut sat, &config);
        assert_eq!(stats, PatternGenStats::default());
        assert_eq!(patterns.num_patterns(), 2048);
    }

    #[test]
    fn random_patterns_are_reproducible() {
        let (aig, _) = biased_aig(5);
        let a = random_patterns(&aig, 100, 3);
        let b = random_patterns(&aig, 100, 3);
        assert_eq!(a, b);
    }
}
