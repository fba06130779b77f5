//! Sequential sweeping differential battery: every latch merge the engine
//! commits is verified against the BMC sequential-equivalence oracle
//! ([`bmc_sec`]), planted redundancy must actually be found, a seeded
//! single-gate mutation must be rejected by the oracle (negative control),
//! and the sweep must be byte-identical across every thread count, both
//! engine labels and a cancel → resume boundary.

use stp_sat_sweep::netlist::aiger::write_aiger_string;
use stp_sat_sweep::netlist::{Aig, LatchInit};
use stp_sat_sweep::workloads::sequential::{
    flip_and_input, random_sequential_aig, sequential_miter, with_duplicate_latches,
};
use stp_sat_sweep::{
    bmc_sec, Budget, Engine, SweepConfig, SweepError, SweepReport, SweepResult, Sweeper,
};

const ORACLE_FRAMES: usize = 6;
const ORACLE_CONFLICTS: u64 = 200_000;

fn seq_config() -> SweepConfig {
    SweepConfig::sequential(1).with_patterns(64)
}

fn run_seq(aig: &Aig, config: SweepConfig) -> SweepResult {
    Sweeper::new(Engine::Stp)
        .config(config)
        .run(aig)
        .expect("valid sequential config, unlimited budget")
}

/// Asserts the swept network is sequentially equivalent to the original up
/// to the oracle bound — the differential check behind every battery test.
fn assert_oracle_accepts(original: &Aig, swept: &Aig) {
    let verdict = bmc_sec(original, swept, ORACLE_FRAMES, ORACLE_CONFLICTS);
    assert!(
        verdict.equivalent && !verdict.undetermined,
        "oracle rejected the sweep: {verdict:?}"
    );
}

/// The deterministic counters of a report (no wall-clock times).
fn counters(report: &SweepReport) -> impl PartialEq + std::fmt::Debug {
    (
        (
            report.gates_before,
            report.gates_after,
            report.levels,
            report.merges,
            report.constants,
        ),
        (
            report.sat_calls_sat,
            report.sat_calls_unsat,
            report.sat_calls_undet,
            report.sat_calls_total,
        ),
        (
            report.seq_latches_before,
            report.seq_latches_after,
            report.seq_candidates,
            report.seq_ternary_constants,
            report.seq_induction_refuted,
            report.seq_induction_undet,
            report.ternary_iterations,
        ),
    )
}

#[test]
fn planted_duplicates_are_merged_and_survive_the_oracle() {
    for seed in [3u64, 17, 42] {
        let base = random_sequential_aig(4, 5, 5, false, seed);
        let workload = with_duplicate_latches(&base, 4);
        assert!(
            workload.equivalent_pairs.iter().any(|p| p.2),
            "the battery must cover complemented pairs"
        );
        let result = run_seq(&workload.aig, seq_config());
        let expected_removals = workload.equivalent_pairs.len() + workload.constant_latches.len();
        assert!(
            result.report.seq_latches_after <= result.report.seq_latches_before - expected_removals,
            "seed {seed}: planted redundancy not fully recovered: {} -> {} \
             (expected at least {expected_removals} removals)",
            result.report.seq_latches_before,
            result.report.seq_latches_after,
        );
        // A duplicate of a latch that is itself a ternary constant is
        // committed as a constant, not a pair merge — so count both, and
        // demand at least one genuine latch-pair merge per workload.
        assert!(
            result.report.merges + result.report.constants >= expected_removals,
            "seed {seed}: merges {} + constants {} < {expected_removals}",
            result.report.merges,
            result.report.constants,
        );
        assert!(
            result.report.merges >= 1,
            "seed {seed}: no latch pair merged"
        );
        assert_oracle_accepts(&workload.aig, &result.aig);
    }
}

#[test]
fn a_self_miter_collapses_onto_one_machine() {
    let base = random_sequential_aig(3, 4, 4, false, 9);
    let miter = sequential_miter(&base, &base);
    let result = run_seq(&miter, seq_config());
    assert_eq!(result.report.seq_latches_before, 2 * base.num_latches());
    assert!(
        result.report.seq_latches_after <= base.num_latches(),
        "every latch pair of the self-miter must merge: {} left",
        result.report.seq_latches_after
    );
    assert_oracle_accepts(&miter, &result.aig);
}

#[test]
fn the_oracle_rejects_a_seeded_polarity_mutant() {
    // Negative control: the same oracle that accepts every sweep must
    // reject a single flipped AND-input polarity somewhere in the battery.
    let base = random_sequential_aig(4, 5, 5, false, 3);
    let workload = with_duplicate_latches(&base, 4);
    let num_ands = workload.aig.num_ands() as u64;
    let mut rejected = 0usize;
    for seed in 0..num_ands {
        let mutant = flip_and_input(&workload.aig, seed).expect("the workload has AND gates");
        let verdict = bmc_sec(&workload.aig, &mutant, ORACLE_FRAMES, ORACLE_CONFLICTS);
        if !verdict.equivalent {
            assert!(
                verdict.counterexample_frame.is_some() || verdict.undetermined,
                "a rejection must carry a counter-example frame: {verdict:?}"
            );
            rejected += 1;
        }
    }
    assert!(
        rejected > 0,
        "no polarity mutation was observable — the oracle has no teeth"
    );
}

#[test]
fn ternary_analysis_commits_reachable_constants_without_sat() {
    // One stuck-at-0 latch (next = state AND pi) beside a live one: the
    // constant is provable by ternary fixpoint alone.
    let mut aig = Aig::new();
    let x = aig.add_input("x");
    let live = aig.add_latch("live", LatchInit::Zero);
    let stuck = aig.add_latch("stuck", LatchInit::Zero);
    let live_next = aig.xor(live, x);
    let stuck_next = aig.and(stuck, x);
    aig.set_latch_next(0, live_next);
    aig.set_latch_next(1, stuck_next);
    let y = aig.or(live, stuck);
    aig.add_output("y", y);

    let result = run_seq(&aig, seq_config());
    assert!(result.report.seq_ternary_constants >= 1);
    assert!(result.report.seq_latches_after < result.report.seq_latches_before);
    assert!(result.report.ternary_iterations >= 1);
    assert_oracle_accepts(&aig, &result.aig);
}

#[test]
fn x_initialised_latches_are_left_alone() {
    // An X-initialised duplicate pair is NOT a valid sequential merge (the
    // two latches may wake up differently); the engine must skip it.
    let mut aig = Aig::new();
    let d = aig.add_input("d");
    let q0 = aig.add_latch("q0", LatchInit::X);
    let q1 = aig.add_latch("q1", LatchInit::X);
    aig.set_latch_next(0, d);
    aig.set_latch_next(1, d);
    let y = aig.xor(q0, q1);
    aig.add_output("y", y);

    let result = run_seq(&aig, seq_config());
    assert_eq!(
        result.report.seq_latches_after, 2,
        "X-init latches must survive"
    );
    assert_oracle_accepts(&aig, &result.aig);
}

#[test]
fn deeper_induction_agrees_with_simple_induction_on_planted_pairs() {
    // The planted pairs are 1-inductive, so k = 3 must find the same
    // merges (possibly more elsewhere) and still satisfy the oracle.
    let base = random_sequential_aig(4, 4, 4, false, 17);
    let workload = with_duplicate_latches(&base, 3);
    let shallow = run_seq(&workload.aig, seq_config());
    let deep = run_seq(&workload.aig, seq_config().with_seq_depth(3));
    assert!(deep.report.seq_latches_after <= shallow.report.seq_latches_after);
    assert_oracle_accepts(&workload.aig, &deep.aig);
}

#[test]
fn the_sweep_is_identical_across_threads_parallelism_and_engines() {
    let base = random_sequential_aig(4, 5, 5, true, 7);
    let workload = with_duplicate_latches(&base, 4);
    let reference = run_seq(&workload.aig, seq_config());
    let reference_bytes = write_aiger_string(&reference.aig);
    assert_oracle_accepts(&workload.aig, &reference.aig);
    for engine in [Engine::Stp, Engine::Baseline] {
        let result = Sweeper::new(engine)
            .config(seq_config())
            .run(&workload.aig)
            .expect("valid sequential config");
        assert_eq!(
            write_aiger_string(&result.aig),
            reference_bytes,
            "{engine:?}: output bytes diverged"
        );
        assert_eq!(
            counters(&result.report),
            counters(&reference.report),
            "{engine:?}: counters diverged"
        );
    }
}

#[test]
fn a_cancelled_sweep_resumes_to_the_uninterrupted_result() {
    let base = random_sequential_aig(4, 5, 5, false, 23);
    let workload = with_duplicate_latches(&base, 4);
    let uninterrupted = run_seq(&workload.aig, seq_config());
    let total_calls = uninterrupted.report.sat_calls_total;
    assert!(
        total_calls >= 2,
        "the battery needs a run worth interrupting"
    );

    // Interrupt at every feasible SAT-call budget, resume each, and demand
    // byte- and counter-identical final results.
    for limit in [1, total_calls / 2, total_calls - 1] {
        let budget = Budget::unlimited().with_max_sat_calls(limit);
        let err = Sweeper::new(Engine::Stp)
            .config(seq_config())
            .budget(budget)
            .run(&workload.aig)
            .expect_err("the budget must trip mid-run");
        let SweepError::BudgetExhausted { checkpoint, .. } = err else {
            panic!("expected BudgetExhausted, got {err:?}");
        };
        let checkpoint = *checkpoint.expect("a primed run leaves a resumable checkpoint");
        let resumed = Sweeper::new(Engine::Stp)
            .config(seq_config())
            .resume_run(&workload.aig, &checkpoint)
            .expect("the resumed run finishes under an unlimited budget");
        assert_eq!(
            write_aiger_string(&resumed.aig),
            write_aiger_string(&uninterrupted.aig),
            "limit={limit}: resume diverged from the uninterrupted sweep"
        );
        assert_eq!(
            counters(&resumed.report),
            counters(&uninterrupted.report),
            "limit={limit}: resumed counters diverged"
        );
    }
}

#[test]
fn sessions_and_combinational_resume_reject_sequential_work() {
    let base = random_sequential_aig(3, 3, 3, false, 1);
    let err = Sweeper::new(Engine::Stp)
        .config(seq_config())
        .begin(&base)
        .map(|_| ())
        .expect_err("a SweepSession cannot drive a sequential sweep");
    assert!(matches!(err, SweepError::InvalidConfig(_)), "{err:?}");

    // A sequential checkpoint must not resume through the combinational
    // session path.
    let budget = Budget::unlimited().with_max_sat_calls(1);
    let workload = with_duplicate_latches(&base, 2);
    let err = Sweeper::new(Engine::Stp)
        .config(seq_config())
        .budget(budget)
        .run(&workload.aig)
        .expect_err("the one-call budget must trip");
    let SweepError::BudgetExhausted { checkpoint, .. } = err else {
        panic!("expected BudgetExhausted, got {err:?}");
    };
    let checkpoint = *checkpoint.expect("resumable checkpoint");
    let err = Sweeper::new(Engine::Stp)
        .config(seq_config())
        .resume_from(&workload.aig, &checkpoint)
        .map(|_| ())
        .expect_err("resume_from must reject sequential checkpoints");
    assert!(matches!(err, SweepError::CheckpointMismatch(_)), "{err:?}");
}
