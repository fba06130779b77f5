//! The cancel→resume determinism battery (CI gate).
//!
//! Headline invariant of the checkpoint subsystem: cancel a sweep at any
//! candidate boundary, resume it from the checkpoint, and the final SAT
//! calls, merges and output AIGER bytes are identical to an uninterrupted
//! run, for both engines.  The battery exercises both cancellation
//! mechanisms (`max_sat_calls` budget caps and
//! a mid-run [`CancelToken`] tripped from an observer callback), resumes
//! the stop checkpoint of a pass pipeline's sweep pass, round-trips
//! checkpoints through their binary encoding, and pins the corruption
//! paths (truncated bytes, wrong version, mutated netlist) to typed errors.

use stp_sat_sweep::netlist::{write_aiger_string, Aig, Lit};
use stp_sat_sweep::stp_sweep::cec;
use stp_sat_sweep::stp_sweep::checkpoint::CheckpointError;
use stp_sat_sweep::workloads::{epfl_suite, hwmcc_suite, inject_redundancy, Scale};
use stp_sat_sweep::{
    Budget, CancelToken, Engine, Observer, PassManager, SatCallOutcome, SweepCheckpoint,
    SweepConfig, SweepError, SweepReport, SweepResult, Sweeper,
};

/// The battery workload: a mid-size tiny-scale HWMCC-analog bench with
/// extra planted redundancy, swept with few initial patterns so the SAT
/// solver sees real traffic (counter-examples included).  Picked by name:
/// it needs hundreds of SAT calls — hundreds of cancel boundaries — while
/// staying fast enough for the debug-profile tier-1 run.
fn workload() -> Aig {
    let bench = hwmcc_suite(Scale::Tiny)
        .into_iter()
        .find(|b| b.name == "beemfwt5b3")
        .expect("the suite contains beemfwt5b3");
    inject_redundancy(&bench.aig, 0.3, 11)
}

fn config() -> SweepConfig {
    SweepConfig {
        num_initial_patterns: 16,
        sat_guided_patterns: false,
        ..SweepConfig::default()
    }
}

/// Strips the wall-clock fields (measurements, not results).
fn strip(report: &SweepReport) -> SweepReport {
    SweepReport {
        simulation_time: Default::default(),
        sat_time: Default::default(),
        total_time: Default::default(),
        ..*report
    }
}

fn assert_identical(resumed: &SweepResult, reference: &SweepResult, context: &str) {
    assert_eq!(
        strip(&resumed.report),
        strip(&reference.report),
        "report counters diverged: {context}"
    );
    assert_eq!(
        write_aiger_string(&resumed.aig),
        write_aiger_string(&reference.aig),
        "AIGER bytes diverged: {context}"
    );
}

/// Cancels the run from inside the event stream: trips a [`CancelToken`]
/// inside the `(remaining + 1)`-th `on_sat_call`, so the run stops at the
/// next budget check with `remaining + 1` committed SAT calls.
struct CancelAfter {
    remaining: u64,
    token: CancelToken,
}

impl Observer for CancelAfter {
    fn on_sat_call(&mut self, _outcome: SatCallOutcome) {
        if self.remaining == 0 {
            self.token.cancel();
        } else {
            self.remaining -= 1;
        }
    }
}

#[test]
fn checkpoint_resume_identity_across_engines_and_sat_caps() {
    let aig = workload();
    for engine in [Engine::Stp, Engine::Baseline] {
        let config = config();
        let reference = Sweeper::new(engine)
            .config(config)
            .run(&aig)
            .expect("uninterrupted run finishes");
        let total = reference.report.sat_calls_total;
        assert!(total >= 4, "workload must need SAT calls (got {total})");

        // Budget-cap stops at a spread of SAT calls (the first, the last,
        // and the quartiles).
        for cut in [1, total / 4, total / 2, 3 * total / 4, total - 1] {
            let cut = cut.max(1);
            let context = format!("{engine}, cancelled after {cut}/{total} SAT calls");
            let err = Sweeper::new(engine)
                .config(config)
                .budget(Budget::unlimited().with_max_sat_calls(cut))
                .run(&aig)
                .expect_err("the cap must trip");
            let partial = match &err {
                SweepError::BudgetExhausted { partial, .. } => partial,
                other => panic!("unexpected error: {other}"),
            };
            assert_eq!(partial.report.sat_calls_total, cut, "{context}");
            let checkpoint = err
                .into_checkpoint()
                .expect("a primed budget stop carries a checkpoint");
            assert_eq!(checkpoint.sat_calls(), cut, "{context}");

            // Round-trip through the binary codec before resuming.
            let decoded =
                SweepCheckpoint::decode(&checkpoint.encode()).expect("own encoding decodes");
            assert_eq!(decoded, checkpoint);
            let resumed = Sweeper::new(engine)
                .resume_from(&aig, &decoded)
                .expect("fingerprints match")
                .run()
                .expect("unlimited resume finishes");
            assert_identical(&resumed, &reference, &context);
        }
    }
}

#[test]
fn checkpoint_resume_identity_after_mid_run_cancel_token() {
    let aig = workload();
    let config = config();
    let reference = Sweeper::new(Engine::Stp)
        .config(config)
        .run(&aig)
        .expect("uninterrupted run finishes");
    let total = reference.report.sat_calls_total;
    assert!(total >= 4);

    for cancel_after in [0, total / 3, 2 * total / 3] {
        let token = CancelToken::new();
        let mut canceller = CancelAfter {
            remaining: cancel_after,
            token: token.clone(),
        };
        let context = format!("token tripped after {cancel_after}/{total} SAT calls");
        let err = Sweeper::new(Engine::Stp)
            .config(config)
            .budget(Budget::unlimited().with_cancel_token(token))
            .observer(&mut canceller)
            .run(&aig)
            .expect_err("the token must stop the run");
        let checkpoint = err
            .into_checkpoint()
            .expect("a primed cancel carries a checkpoint");
        assert_eq!(checkpoint.sat_calls(), cancel_after + 1, "{context}");
        let resumed = Sweeper::new(Engine::Stp)
            .resume_from(&aig, &checkpoint)
            .expect("fingerprints match")
            .run()
            .expect("resume finishes");
        assert_identical(&resumed, &reference, &context);
        assert!(
            cec::check_equivalence(&aig, &resumed.aig, 500_000).equivalent,
            "{context}"
        );
    }
}

#[test]
fn checkpoint_chained_cancels_still_reach_identity() {
    // Cancel, resume, cancel the resumed run, resume again: checkpoints
    // compose — the final result is still identical to an uninterrupted
    // run.  (`max_sat_calls` caps the cumulative total, so the second leg
    // gets a higher cap.)
    let aig = workload();
    let config = config();
    let reference = Sweeper::new(Engine::Stp)
        .config(config)
        .run(&aig)
        .expect("runs");
    let total = reference.report.sat_calls_total;
    assert!(total >= 4);

    let first = Sweeper::new(Engine::Stp)
        .config(config)
        .budget(Budget::unlimited().with_max_sat_calls(total / 3))
        .run(&aig)
        .expect_err("first cap trips")
        .into_checkpoint()
        .expect("checkpoint");
    // `max_sat_calls` caps the cumulative total (the checkpoint carries
    // the calls already committed), so the second leg gets a higher cap.
    let second = Sweeper::new(Engine::Stp)
        .budget(Budget::unlimited().with_max_sat_calls(2 * total / 3))
        .resume_from(&aig, &first)
        .expect("matches")
        .run()
        .expect_err("second cap trips")
        .into_checkpoint()
        .expect("checkpoint");
    let finished = Sweeper::new(Engine::Stp)
        .resume_from(&aig, &second)
        .expect("matches")
        .run()
        .expect("final resume finishes");
    assert_identical(&finished, &reference, "two chained cancels");
}

/// `PassManager::run` hands back the stop checkpoint of the sweep pass it
/// interrupts; resumed against that pass's input, it completes the pass as
/// an uninterrupted run does.  The cuts land inside both sweeps of `sweep;
/// strash; sweep`, and only the cut at the first sweep's last SAT call,
/// which stops before `strash`, comes without a checkpoint.
#[test]
fn a_pipeline_stop_resumes_the_interrupted_sweep_pass() {
    let sweep = |aig: &Aig| {
        let sweeper = Sweeper::new(Engine::Stp).config(SweepConfig::fast());
        sweeper.run(aig).expect("an unlimited sweep finishes")
    };
    let mut resumed_per_pass = [0; 2];
    for bench in epfl_suite(Scale::Tiny) {
        let first_pass = sweep(&bench.aig);
        let second_input = first_pass.aig.cleanup().0;
        let second_pass = sweep(&second_input);
        let passes = [(&bench.aig, first_pass), (&second_input, second_pass)];
        let first = passes[0].1.report.sat_calls_total;
        let total = first + passes[1].1.report.sat_calls_total;
        let (second_half, last) = ((first + total) / 2, total.saturating_sub(1));
        let mut cuts = vec![1, first / 2, first, first + 1, second_half, last];
        cuts.retain(|&cut| 0 < cut && cut < total);
        cuts.dedup();
        for cut in cuts {
            let context = format!("{}: cap {cut}, first sweep {first} of {total}", bench.name);
            let stop = PassManager::new(SweepConfig::fast())
                .sweep(Engine::Stp)
                .strash()
                .sweep(Engine::Stp)
                .budget(Budget::unlimited().with_max_sat_calls(cut))
                .run(&bench.aig)
                .expect_err("the cap must trip");
            let SweepError::BudgetExhausted { checkpoint, .. } = stop else {
                panic!("{context}: not a budget stop");
            };
            assert_eq!(checkpoint.is_none(), cut == first, "{context}");
            let Some(checkpoint) = checkpoint else {
                continue;
            };
            let pass = usize::from(cut > first);
            let (input, reference) = &passes[pass];
            let decoded =
                SweepCheckpoint::decode(&checkpoint.encode()).expect("own encoding decodes");
            let resumed = Sweeper::new(Engine::Stp)
                .resume_from(input, &decoded)
                .expect("the checkpoint matches its pass's input")
                .run()
                .expect("unlimited resume finishes");
            assert_identical(&resumed, reference, &context);
            resumed_per_pass[pass] += 1;
        }
    }
    assert!(
        resumed_per_pass.iter().all(|&n| n > 0),
        "{resumed_per_pass:?}"
    );
}

#[test]
fn corrupt_checkpoints_yield_typed_errors_never_panics() {
    let aig = workload();
    let checkpoint = Sweeper::new(Engine::Stp)
        .config(config())
        .budget(Budget::unlimited().with_max_sat_calls(2))
        .run(&aig)
        .expect_err("cap trips")
        .into_checkpoint()
        .expect("checkpoint");
    let bytes = checkpoint.encode();

    // Truncations at a spread of prefixes: always a typed decode error
    // (too short to parse, or a payload checksum mismatch).
    for fraction in [0usize, 1, 7, 500, 999] {
        let len = bytes.len() * fraction / 1000;
        let err = SweepCheckpoint::decode(&bytes[..len]).expect_err("prefix must not decode");
        assert!(
            matches!(
                err,
                CheckpointError::Truncated
                    | CheckpointError::BadMagic
                    | CheckpointError::Corrupt(_)
            ),
            "prefix {len}: {err:?}"
        );
    }

    // A single bit flip anywhere in the payload fails the checksum — a
    // corrupted checkpoint can never resume into a silently wrong sweep.
    let mut flipped = bytes.clone();
    let mid = bytes.len() / 2;
    flipped[mid] ^= 0x01;
    assert_eq!(
        SweepCheckpoint::decode(&flipped),
        Err(CheckpointError::Corrupt("payload checksum mismatch"))
    );

    // Wrong magic and unsupported version are distinguished.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(
        SweepCheckpoint::decode(&bad_magic),
        Err(CheckpointError::BadMagic)
    );
    let mut bad_version = bytes.clone();
    bad_version[8] = 0xFE;
    assert!(matches!(
        SweepCheckpoint::decode(&bad_version),
        Err(CheckpointError::UnsupportedVersion(_))
    ));

    // A decode error converts into the typed sweep error.
    let sweep_err: SweepError = SweepCheckpoint::decode(&bad_version).unwrap_err().into();
    assert!(matches!(sweep_err, SweepError::CheckpointMismatch(_)));

    // Resuming against a mutated netlist is rejected up front.
    let mut mutated = aig.clone();
    let extra = mutated.and(
        Lit::positive(mutated.inputs()[0]),
        Lit::positive(mutated.inputs()[1]),
    );
    mutated.add_output("extra", extra);
    let err = match Sweeper::new(Engine::Stp).resume_from(&mutated, &checkpoint) {
        Err(err) => err,
        Ok(_) => panic!("fingerprint mismatch must be rejected"),
    };
    assert!(matches!(err, SweepError::CheckpointMismatch(_)));
    assert!(err.to_string().contains("fingerprint"), "{err}");
}
