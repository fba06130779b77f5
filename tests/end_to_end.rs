//! End-to-end integration tests spanning all crates: workload generation →
//! redundancy injection → sweeping (both engines) → CEC verification, plus
//! AIGER round trips of generated circuits.

use std::collections::HashSet;

use stp_sat_sweep::netlist::{read_aiger_str, write_aiger_string};
use stp_sat_sweep::stp_sweep::cec;
use stp_sat_sweep::workloads::{epfl_suite, generators, hwmcc_suite, inject_redundancy, Scale};
use stp_sat_sweep::{Budget, Engine, StatsObserver, SweepConfig, SweepError, Sweeper};

fn sweep_stp(
    aig: &stp_sat_sweep::netlist::Aig,
    config: &SweepConfig,
) -> stp_sat_sweep::SweepResult {
    Sweeper::new(Engine::Stp)
        .config(*config)
        .run(aig)
        .expect("valid config")
}

fn sweep_baseline(
    aig: &stp_sat_sweep::netlist::Aig,
    config: &SweepConfig,
) -> stp_sat_sweep::SweepResult {
    Sweeper::new(Engine::Baseline)
        .config(*config)
        .run(aig)
        .expect("valid config")
}

fn quick_config() -> SweepConfig {
    SweepConfig {
        num_initial_patterns: 64,
        conflict_limit: 50_000,
        ..SweepConfig::default()
    }
}

#[test]
fn stp_sweeping_recovers_injected_redundancy() {
    let base = generators::ripple_carry_adder(6);
    let redundant = inject_redundancy(&base, 0.5, 42);
    assert!(redundant.num_ands() > base.num_ands());

    let result = sweep_stp(&redundant, &quick_config());
    assert!(
        result.aig.num_ands() < redundant.num_ands(),
        "sweeping must remove part of the planted redundancy ({} -> {})",
        redundant.num_ands(),
        result.aig.num_ands()
    );
    assert!(cec::check_equivalence(&redundant, &result.aig, 500_000).equivalent);
}

#[test]
fn both_engines_produce_equivalent_results_on_control_logic() {
    let base = generators::random_control(12, 120, 8, 77);
    let redundant = inject_redundancy(&base, 0.4, 77);

    let baseline = sweep_baseline(
        &redundant,
        &SweepConfig {
            num_initial_patterns: 64,
            ..SweepConfig::baseline()
        },
    );
    let stp = sweep_stp(&redundant, &quick_config());

    assert!(cec::check_equivalence(&redundant, &baseline.aig, 500_000).equivalent);
    assert!(cec::check_equivalence(&redundant, &stp.aig, 500_000).equivalent);
    // Both engines also stay equivalent to the original, irredundant circuit.
    assert!(cec::check_equivalence(&base, &stp.aig, 500_000).equivalent);
}

#[test]
fn stp_engine_uses_no_more_satisfiable_calls_than_baseline() {
    let suite = hwmcc_suite(Scale::Tiny);
    let mut stp_total = 0u64;
    let mut baseline_total = 0u64;
    for bench in suite.iter().take(5) {
        let baseline = sweep_baseline(
            &bench.aig,
            &SweepConfig {
                num_initial_patterns: 64,
                ..SweepConfig::baseline()
            },
        );
        let stp = sweep_stp(&bench.aig, &quick_config());
        baseline_total += baseline.report.sat_calls_sat;
        stp_total += stp.report.sat_calls_sat;
    }
    assert!(
        stp_total <= baseline_total,
        "STP sweeping must reduce satisfiable SAT calls overall ({stp_total} vs {baseline_total})"
    );
}

#[test]
fn sweeping_never_grows_a_network() {
    for (idx, bench) in hwmcc_suite(Scale::Tiny).into_iter().enumerate() {
        if idx % 3 != 0 {
            continue; // keep the test fast; the bench harness covers all
        }
        let result = sweep_stp(&bench.aig, &quick_config());
        assert!(
            result.aig.num_ands() <= bench.aig.num_ands(),
            "{} grew from {} to {}",
            bench.name,
            bench.aig.num_ands(),
            result.aig.num_ands()
        );
    }
}

#[test]
fn wide_window_sweeps_preserve_equivalence() {
    // 12 leaves is the limit of `SweepConfig::thorough()`, 16 the paper's
    // maximum; their tables span 64 and 1,024 words.
    let suite = hwmcc_suite(Scale::Tiny);
    let mut verified = vec![HashSet::new(); suite.len()];
    for limit in [12, 16] {
        let config = SweepConfig::default().with_window_limit(limit);
        let mut proved = 0;
        for (bench, verified) in suite.iter().zip(&mut verified) {
            let result = sweep_stp(&bench.aig, &config);
            proved += result.report.proved_by_simulation;
            // A result equal to one already verified needs no second CEC.
            if !verified.insert(write_aiger_string(&result.aig)) {
                continue;
            }
            let cec = cec::check_equivalence(&bench.aig, &result.aig, 1_000_000);
            assert!(
                cec.equivalent,
                "{} at window limit {limit}: {cec:?}",
                bench.name
            );
        }
        assert!(proved > 0, "window limit {limit} proves no pair");
    }
}

#[test]
fn aiger_round_trip_of_generated_circuits() {
    let circuits = vec![
        generators::barrel_shifter(8),
        generators::array_multiplier(3),
        generators::priority_encoder(8),
    ];
    for aig in circuits {
        let text = write_aiger_string(&aig);
        let parsed = read_aiger_str(&text).expect("round trip parses");
        assert!(cec::check_equivalence(&aig, &parsed, 200_000).equivalent);
    }
}

#[test]
fn swept_network_round_trips_through_aiger() {
    let base = generators::max_unit(6);
    let redundant = inject_redundancy(&base, 0.4, 3);
    let swept = sweep_stp(&redundant, &quick_config());
    let text = write_aiger_string(&swept.aig);
    let parsed = read_aiger_str(&text).expect("round trip parses");
    assert!(cec::check_equivalence(&base, &parsed, 500_000).equivalent);
}

#[test]
fn budget_limited_sweep_returns_equivalent_partial_result() {
    // Acceptance criterion of the session API: a budget-limited run on an
    // EPFL-analog workload hands back a partial result whose network still
    // passes CEC against the input, instead of discarding the work done.
    let bench = epfl_suite(Scale::Tiny)
        .into_iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("the suite is non-empty");
    let redundant = inject_redundancy(&bench.aig, 0.3, 9);

    let run = Sweeper::new(Engine::Stp)
        .config(quick_config())
        .budget(Budget::unlimited().with_max_sat_calls(2))
        .run(&redundant);
    let partial = match run {
        Err(SweepError::BudgetExhausted { partial, .. }) => *partial,
        Ok(full) => full, // tiny workloads may finish within the budget
        Err(other) => panic!("unexpected error: {other}"),
    };
    assert!(partial.aig.num_ands() <= redundant.num_ands());
    assert!(
        cec::check_equivalence(&redundant, &partial.aig, 500_000).equivalent,
        "a truncated sweep must still be functionally equivalent"
    );
}

#[test]
fn budget_exhaustion_mid_sweep_is_consistent_and_deterministic() {
    // A SAT-call budget that expires mid-sweep must hand back a partial
    // result with no half-applied merges: the observer counters, the
    // returned report and the network must all agree, and — because
    // `max_sat_calls` is a deterministic budget dimension — the partial
    // result must be identical on every run.
    let bench = hwmcc_suite(Scale::Tiny)
        .into_iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("the suite is non-empty");
    let config = SweepConfig {
        num_initial_patterns: 16, // few patterns: plenty of SAT traffic
        sat_guided_patterns: false,
        ..SweepConfig::default()
    };

    let full = Sweeper::new(Engine::Stp)
        .config(config)
        .run(&bench.aig)
        .expect("unlimited run finishes");
    let total = full.report.sat_calls_total;
    assert!(total >= 2, "workload must need SAT calls (got {total})");
    let limit = total / 2 + 1;

    let mut partials = Vec::new();
    for _ in 0..2 {
        let mut stats = StatsObserver::new();
        let run = Sweeper::new(Engine::Stp)
            .config(config)
            .budget(Budget::unlimited().with_max_sat_calls(limit))
            .observer(&mut stats)
            .run(&bench.aig);
        let partial = match run {
            Err(SweepError::BudgetExhausted { partial, .. }) => *partial,
            Ok(_) => panic!("limit {limit} of {total} calls must trip the budget"),
            Err(other) => panic!("unexpected error: {other}"),
        };
        // Exactly `limit` calls were committed.
        assert_eq!(partial.report.sat_calls_total, limit);
        // No half-applied merges: the observer saw exactly the merges the
        // report claims, and the partial network is still equivalent.
        assert_eq!(stats.merges, partial.report.merges);
        assert_eq!(stats.constants, partial.report.constants);
        assert_eq!(stats.sat_calls_total(), partial.report.sat_calls_total);
        assert_eq!(stats.counterexamples, partial.report.sat_calls_sat);
        assert!(
            cec::check_equivalence(&bench.aig, &partial.aig, 500_000).equivalent,
            "a truncated sweep must still be functionally equivalent"
        );
        partials.push(partial);
    }
    // Deterministic across runs: same committed calls, same merges,
    // byte-identical partial network.
    let (a, b) = (&partials[0], &partials[1]);
    assert_eq!(a.report.merges, b.report.merges);
    assert_eq!(a.report.sat_calls_sat, b.report.sat_calls_sat);
    assert_eq!(write_aiger_string(&a.aig), write_aiger_string(&b.aig));
}

#[test]
fn pipeline_subsumes_fixpoint_and_verifies_in_flow() {
    use stp_sat_sweep::PassManager;
    let base = generators::barrel_shifter(8);
    let redundant = inject_redundancy(&base, 0.5, 21);
    let outcome = PassManager::new(quick_config())
        .sweep_to_fixpoint(Engine::Stp, 3)
        .strash()
        .verify()
        .run(&redundant)
        .expect("pipeline verifies its own result");
    assert!(outcome.aig.num_ands() < redundant.num_ands());
    assert_eq!(outcome.report.gates_before, redundant.num_ands());
    assert_eq!(outcome.report.gates_after, outcome.aig.num_ands());
    // Per-pass reports cover every executed pass, strash and verify included.
    assert!(outcome.passes.iter().any(|p| p.name == "strash"));
    assert!(outcome.passes.iter().any(|p| p.name == "verify"));
}
