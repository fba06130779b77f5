//! The session API end-to-end: a budgeted, observed multi-pass pipeline
//! (sweep → strash → sweep → verify) over a redundancy-injected workload,
//! plus a deliberately starved run showing that budget exhaustion hands back
//! a functionally equivalent partial result instead of discarding the work.
//!
//! Run with: `cargo run --release --example sweep_pipeline`

use stp_sat_sweep::stp_sweep::cec;
use stp_sat_sweep::workloads::{generators, inject_redundancy};
use stp_sat_sweep::{
    Budget, Engine, Observer, PassManager, SatCallOutcome, SweepConfig, SweepError, Sweeper,
};

/// A minimal progress observer: one line per round, one dot per SAT call.
#[derive(Default)]
struct Progress {
    sat_calls: u64,
}

impl Observer for Progress {
    fn on_round(&mut self, round: usize, gates: usize) {
        println!("round {round}: sweeping {gates} AND gates");
    }

    fn on_sat_call(&mut self, _outcome: SatCallOutcome) {
        self.sat_calls += 1;
    }

    fn on_merge(&mut self, candidate: usize, replacement: stp_sat_sweep::netlist::Lit) {
        if replacement.is_constant() {
            println!("  node {candidate} proved constant");
        }
    }

    fn on_resimulation(&mut self, targets: usize, resimulated: usize, skipped: usize) {
        println!("  counter-example: {targets} targets, {resimulated} nodes resimulated, {skipped} skipped");
    }
}

fn main() {
    // An EPFL-analog arithmetic core with injected functional redundancy.
    let base = generators::array_multiplier(4);
    let redundant = inject_redundancy(&base, 0.5, 7);
    println!(
        "workload: array multiplier, {} gates after redundancy injection ({} before)\n",
        redundant.num_ands(),
        base.num_ands()
    );

    // 1. A multi-pass pipeline: sweep, re-hash, sweep again, then verify the
    //    result against the input as part of the pipeline itself.
    let mut progress = Progress::default();
    let outcome = PassManager::new(SweepConfig::paper())
        .sweep(Engine::Stp)
        .strash()
        .sweep(Engine::Stp)
        .verify()
        .observer(&mut progress)
        .run(&redundant)
        .expect("the pipeline runs and verifies");

    println!("\nper-pass breakdown:");
    for pass in &outcome.passes {
        println!(
            "  {:<18} {:>5} -> {:<5} gates  {:>8.3}s{}",
            pass.name,
            pass.gates_before,
            pass.gates_after,
            pass.time.as_secs_f64(),
            pass.report
                .map(|r| format!("  ({} SAT calls)", r.sat_calls_total))
                .unwrap_or_default()
        );
    }
    println!(
        "aggregate: {} ({} SAT calls seen by the observer)",
        outcome.report, progress.sat_calls
    );

    println!(
        "incremental resimulation: {} events, {} nodes evaluated, {} skipped",
        outcome.report.resim_events, outcome.report.resim_nodes, outcome.report.resim_skipped_nodes
    );

    // 2. The same sweep under a starvation budget: the partial result is
    //    returned, not discarded, and still verifies.
    match Sweeper::new(Engine::Stp)
        .config(SweepConfig::paper())
        .budget(Budget::unlimited().with_max_sat_calls(2))
        .run(&redundant)
    {
        Ok(full) => println!(
            "\nbudgeted run finished within 2 SAT calls: {}",
            full.report
        ),
        Err(SweepError::BudgetExhausted { cause, partial, .. }) => {
            println!(
                "\nbudgeted run stopped early ({cause}): {} -> {} gates, still equivalent: {}",
                partial.report.gates_before,
                partial.report.gates_after,
                cec::check_equivalence(&redundant, &partial.aig, 500_000).equivalent
            );
        }
        Err(other) => panic!("unexpected error: {other}"),
    }
}
