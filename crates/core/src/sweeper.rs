//! Legacy free-function entry points of the STP sweeper.
//!
//! **Deprecated in favour of the builder API** — these wrappers remain for
//! source compatibility and forward to [`crate::Sweeper`] / [`crate::Pipeline`].
//! The one-line migration:
//!
//! ```text
//! sweeper::sweep_stp(&aig, &config)                 // before
//! Sweeper::new(Engine::Stp).config(config).run(&aig)?  // after
//!
//! sweeper::sweep_stp_to_fixpoint(&aig, &config, n)  // before
//! Pipeline::new(config).sweep_to_fixpoint(Engine::Stp, n).run(&aig)?  // after
//! ```
//!
//! The builder additionally offers progress [`crate::Observer`]s, a
//! [`crate::Budget`] (deadline, SAT-call cap, cancellation) with partial
//! results, typed [`crate::SweepError`]s instead of silent misbehaviour, and
//! deterministic parallel simulation via [`crate::SweepConfig::parallelism`]
//! — none of which the legacy free functions expose (they always run
//! sequentially).
//! See [`crate::session`] for the engine itself (Algorithm 2 of the paper)
//! and [`crate::pipeline`] for multi-pass composition.

pub use crate::session::Engine;

use crate::pipeline::Pipeline;
use crate::report::{SweepConfig, SweepResult};
use crate::session::Sweeper;
use netlist::Aig;

/// Runs the STP-based SAT sweeper (Algorithm 2) on `aig`.
///
/// Legacy wrapper around [`Sweeper`]; panics on an invalid `config` (the
/// builder API returns [`crate::SweepError::InvalidConfig`] instead).
///
/// The returned network is functionally equivalent to the input (verified by
/// the crate's tests via [`crate::cec`]) and never larger.
///
/// ```
/// use netlist::Aig;
/// use stp_sweep::{sweeper, SweepConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let f = aig.and(a, b);
/// let g = aig.and(f, b); // redundant: equals f
/// let y = aig.xor(f, g);
/// aig.add_output("y", y);
/// let result = sweeper::sweep_stp(&aig, &SweepConfig::default());
/// assert!(result.aig.num_ands() <= aig.num_ands());
/// ```
#[deprecated(note = "use `Sweeper::new(Engine::Stp).config(config).run(&aig)` instead")]
pub fn sweep_stp(aig: &Aig, config: &SweepConfig) -> SweepResult {
    Sweeper::new(Engine::Stp)
        .config(*config)
        .run(aig)
        .expect("legacy wrapper: invalid SweepConfig")
}

/// Runs the STP sweeper repeatedly until no further gates are removed (or
/// `max_rounds` is reached), accumulating the reports of all rounds.
///
/// Legacy wrapper around [`Pipeline::sweep_to_fixpoint`]; panics on an
/// invalid `config`.
///
/// ```
/// use netlist::Aig;
/// use stp_sweep::{sweeper, SweepConfig};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let f = aig.and(a, b);
/// let g = aig.and(f, b);
/// let y = aig.xor(f, g);
/// aig.add_output("y", y);
/// let fixed = sweeper::sweep_stp_to_fixpoint(&aig, &SweepConfig::default(), 4);
/// assert_eq!(fixed.report.gates_before, aig.num_ands());
/// assert_eq!(fixed.report.gates_after, fixed.aig.num_ands());
/// ```
#[deprecated(
    note = "use `Pipeline::new(config).sweep_to_fixpoint(Engine::Stp, max_rounds).run(&aig)` instead"
)]
pub fn sweep_stp_to_fixpoint(aig: &Aig, config: &SweepConfig, max_rounds: usize) -> SweepResult {
    Pipeline::new(*config)
        .sweep_to_fixpoint(Engine::Stp, max_rounds)
        .run(aig)
        .expect("legacy wrapper: invalid SweepConfig")
        .into_sweep_result()
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use crate::cec::check_equivalence;
    use crate::report::SweepReport;
    use netlist::Aig;

    /// A circuit with planted redundancy: the same functions built twice with
    /// different structure, plus a constant-false cone.
    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        // Version 1 of a few functions.
        let f1 = aig.and(xs[0], xs[1]);
        let g1 = aig.xor(xs[2], xs[3]);
        let h1 = aig.maj(xs[3], xs[4], xs[5]);
        // Version 2, structurally different but equivalent.
        let f2_a = aig.nand(xs[0], xs[1]);
        let f2 = !f2_a;
        let g2_t = aig.or(xs[2], xs[3]);
        let g2_b = aig.nand(xs[2], xs[3]);
        let g2 = aig.and(g2_t, g2_b);
        let h2_ab = aig.and(xs[3], xs[4]);
        let h2_ac = aig.and(xs[3], xs[5]);
        let h2_bc = aig.and(xs[4], xs[5]);
        let h2_t = aig.or(h2_ab, h2_ac);
        let h2 = aig.or(h2_t, h2_bc);
        // A constant-false cone that is not structurally obvious.
        let c_t = aig.and(xs[0], xs[2]);
        let c = aig.and(c_t, !xs[0]);
        // Outputs mix both versions so that the redundancy is observable.
        let o1 = aig.xor(f1, g2);
        let o2 = aig.xor(f2, g1);
        let o3 = aig.or(h1, c);
        let o4 = aig.and(h2, o1);
        aig.add_output("o1", o1);
        aig.add_output("o2", o2);
        aig.add_output("o3", o3);
        aig.add_output("o4", o4);
        aig
    }

    #[test]
    fn stp_sweep_reduces_and_preserves_function() {
        let aig = redundant_circuit();
        let result = sweep_stp(&aig, &SweepConfig::default());
        assert!(
            result.aig.num_ands() < aig.num_ands(),
            "redundant logic should be merged ({} -> {})",
            aig.num_ands(),
            result.aig.num_ands()
        );
        assert!(result.report.merges + result.report.constants > 0);
        let cec = check_equivalence(&aig, &result.aig, 100_000);
        assert!(cec.equivalent, "sweeping must preserve functionality");
    }

    #[test]
    fn stp_sweep_substitutes_constants() {
        let aig = redundant_circuit();
        let result = sweep_stp(&aig, &SweepConfig::default());
        assert!(
            result.report.constants >= 1,
            "the planted constant cone is found"
        );
    }

    #[test]
    fn window_refinement_reduces_sat_calls() {
        let aig = redundant_circuit();
        let with_windows = sweep_stp(&aig, &SweepConfig::default());
        let without_windows = sweep_stp(
            &aig,
            &SweepConfig {
                window_refinement: false,
                ..SweepConfig::default()
            },
        );
        assert!(
            with_windows.report.sat_calls_total <= without_windows.report.sat_calls_total,
            "window refinement must not increase SAT calls ({} vs {})",
            with_windows.report.sat_calls_total,
            without_windows.report.sat_calls_total
        );
        // Both variants agree on the final size.
        assert_eq!(with_windows.aig.num_ands(), without_windows.aig.num_ands());
    }

    #[test]
    fn sweep_is_idempotent_on_irredundant_networks() {
        let aig = redundant_circuit();
        let once = sweep_stp(&aig, &SweepConfig::default());
        let twice = sweep_stp(&once.aig, &SweepConfig::default());
        assert_eq!(once.aig.num_ands(), twice.aig.num_ands());
        assert_eq!(twice.report.merges, 0);
    }

    #[test]
    fn fixpoint_sweeping_converges_and_accumulates() {
        let aig = redundant_circuit();
        let once = sweep_stp(&aig, &SweepConfig::default());
        let fixed = sweep_stp_to_fixpoint(&aig, &SweepConfig::default(), 4);
        assert!(fixed.aig.num_ands() <= once.aig.num_ands());
        assert!(fixed.report.merges >= once.report.merges);
        assert!(check_equivalence(&aig, &fixed.aig, 100_000).equivalent);
        assert_eq!(fixed.report.gates_before, aig.num_ands());
        assert_eq!(fixed.report.gates_after, fixed.aig.num_ands());
    }

    #[test]
    fn report_counts_are_consistent() {
        let aig = redundant_circuit();
        let result = sweep_stp(&aig, &SweepConfig::default());
        let r = &result.report;
        assert_eq!(
            r.sat_calls_total,
            r.sat_calls_sat + r.sat_calls_unsat + r.sat_calls_undet
        );
        assert!(r.gates_after <= r.gates_before);
        assert!(r.total_time >= r.sat_time);
    }

    // The wrapper forwards to the builder, so this pins wrapper-forwarding
    // fidelity (config/engine drift) and run-to-run determinism, not an
    // independent engine implementation.
    #[test]
    fn legacy_wrapper_matches_builder_exactly() {
        let aig = redundant_circuit();
        let legacy = sweep_stp(&aig, &SweepConfig::default());
        let builder = crate::Sweeper::new(Engine::Stp)
            .run(&aig)
            .expect("valid default config");
        assert_eq!(legacy.aig.num_ands(), builder.aig.num_ands());
        let strip = |r: &SweepReport| SweepReport {
            simulation_time: Default::default(),
            sat_time: Default::default(),
            total_time: Default::default(),
            ..*r
        };
        assert_eq!(strip(&legacy.report), strip(&builder.report));
    }
}
