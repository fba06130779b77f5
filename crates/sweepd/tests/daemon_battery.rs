//! The daemon determinism battery — the PR's acceptance gate.
//!
//! For any slice quantum, priority mix, and daemon restart, each job's
//! swept AIGER and committed counters must be *byte-identical* to the same
//! job run uninterrupted in-process.  The engine's checkpoint/resume is
//! byte-exact, so the daemon's time-slicing, preemption and crash recovery
//! must all be invisible in the output; these tests pin that end to end.

mod common;

use std::time::{Duration, Instant};

use common::{aiger_bytes, fresh_dir, long_job, reference, renumbered_copy, spill_files};
use netlist::canonical_fingerprint;
use stp_sweep::{Engine, PassManager};
use sweepd::spill::{SpillDir, SpilledJob};
use sweepd::{
    effective_config, JobCounters, JobState, Preset, Priority, ServiceConfig, SweepService,
};
use workloads::{generators, inject_redundancy};

const WAIT: Duration = Duration::from_secs(300);

#[test]
fn sliced_mixed_priority_jobs_match_uninterrupted_runs() {
    // Six distinct circuits across all three priorities, time-sliced on a
    // quantum small enough that every job is suspended and resumed.
    let circuits = [
        (
            Priority::High,
            inject_redundancy(&generators::barrel_shifter(8), 0.5, 1),
        ),
        (
            Priority::Low,
            inject_redundancy(&generators::ripple_carry_adder(12), 0.4, 2),
        ),
        (
            Priority::Normal,
            inject_redundancy(&generators::priority_encoder(12), 0.5, 3),
        ),
        (
            Priority::Normal,
            inject_redundancy(&generators::max_unit(8), 0.3, 4),
        ),
        (
            Priority::High,
            inject_redundancy(&generators::decoder(5), 0.5, 5),
        ),
        (
            Priority::Low,
            inject_redundancy(&generators::majority_voter(9), 0.5, 6),
        ),
    ];
    let spill = fresh_dir("battery");
    let service = SweepService::start(ServiceConfig {
        workers: 3,
        quantum: Duration::from_millis(2),
        spill_dir: Some(spill.clone()),
    })
    .expect("service starts");

    let mut ids = Vec::new();
    for (priority, aig) in &circuits {
        let (id, adopted) = service
            .submit(*priority, Engine::Stp, Preset::Fast, &aiger_bytes(aig))
            .expect("submit succeeds");
        assert!(!adopted, "all six circuits are distinct");
        ids.push(id);
    }

    let mut total_slices = 0;
    for (id, (_, aig)) in ids.iter().zip(&circuits) {
        let info = service.wait(*id, WAIT).expect("job finishes");
        assert_eq!(info.state, JobState::Done);
        total_slices += info.slices;
        let (aiger, counters) = service.fetch(*id).expect("done job has output");
        let (want_aiger, want_counters) = reference(Engine::Stp, Preset::Fast, aig);
        assert_eq!(
            String::from_utf8(aiger).expect("AIGER is text"),
            want_aiger,
            "job {id}: sliced output differs from the uninterrupted run"
        );
        assert_eq!(
            counters, want_counters,
            "job {id}: sliced counters differ from the uninterrupted run"
        );
    }
    // The gate is vacuous unless slicing actually happened.
    assert!(
        total_slices > ids.len() as u64,
        "a 2 ms quantum must slice: only {total_slices} slices over {} jobs",
        ids.len()
    );

    // Completed jobs must leave nothing behind in the spill directory.
    service.shutdown();
    assert_eq!(
        spill_files(&spill, "job"),
        0,
        "done jobs keep no spill files"
    );
    assert_eq!(
        spill_files(&spill, "ckpt"),
        0,
        "done jobs keep no checkpoints"
    );
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn crash_recovery_resumes_spilled_jobs_byte_exactly() {
    let quantum = Duration::from_millis(3);
    // The shifter job must outlast its first slices; its sizing run is
    // its oracle.
    let (shifter, shifter_oracle) = long_job(7, 50 * quantum);
    let multiplier = inject_redundancy(&generators::array_multiplier(6), 0.4, 8);
    let multiplier_oracle = reference(Engine::Stp, Preset::Fast, &multiplier);
    let circuits = [
        (Priority::High, shifter, shifter_oracle),
        (Priority::Normal, multiplier, multiplier_oracle),
    ];
    let spill = fresh_dir("crash");
    let config = ServiceConfig {
        workers: 2,
        quantum,
        spill_dir: Some(spill.clone()),
    };
    let service = SweepService::start(config.clone()).expect("service starts");
    let mut expected = Vec::new();
    for (priority, aig, oracle) in &circuits {
        service
            .submit(*priority, Engine::Stp, Preset::Fast, &aiger_bytes(aig))
            .expect("submit succeeds");
        expected.push((canonical_fingerprint(aig), aig, oracle));
    }

    // Crash as soon as the first suspension checkpoint hits the disk —
    // well before either job can finish.
    let deadline = Instant::now() + WAIT;
    while spill_files(&spill, "ckpt") == 0 {
        assert!(
            Instant::now() < deadline,
            "no checkpoint was spilled within the deadline"
        );
        assert!(
            service.list().iter().any(|job| !job.state.is_terminal()),
            "both jobs finished before any checkpoint was spilled; \
             the crash test needs a longer workload"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    service.simulate_crash();
    drop(service);

    // What survived the crash is exactly what's on disk: both submissions
    // and at least one genuinely resumable (primed or not, but decodable)
    // checkpoint.
    let on_disk = sweepd::spill::SpillDir::open(&spill)
        .expect("spill dir opens")
        .scan()
        .expect("spill dir scans");
    assert_eq!(on_disk.len(), 2, "both submissions survived the crash");
    let resumable = on_disk
        .iter()
        .filter_map(|rec| rec.checkpoint.as_deref())
        .filter(|bytes| stp_sweep::SweepCheckpoint::decode(bytes).is_ok())
        .count();
    assert!(resumable >= 1, "a spilled checkpoint survived and decodes");

    // A fresh instance on the same directory re-adopts the spilled jobs
    // (fresh ids, same canonical fingerprints) and resumes them.
    let service = SweepService::start(config).expect("service restarts");
    let recovered = service.list();
    assert_eq!(recovered.len(), 2, "both spilled jobs were re-adopted");
    for job in &recovered {
        let (fp, aig, (want_aiger, want_counters)) = expected
            .iter()
            .find(|(fp, _, _)| *fp == job.canonical_fingerprint)
            .expect("re-adopted job matches a submitted circuit");
        assert_eq!(job.canonical_fingerprint, *fp);

        // Resubmitting the same netlist adopts the recovered job instead
        // of creating a duplicate.
        let (id, adopted) = service
            .submit(job.priority, Engine::Stp, Preset::Fast, &aiger_bytes(aig))
            .expect("resubmit succeeds");
        assert_eq!(id, job.id);
        assert!(adopted);

        let info = service.wait(job.id, WAIT).expect("recovered job finishes");
        assert_eq!(info.state, JobState::Done);
        let (aiger, counters) = service.fetch(job.id).expect("output available");
        assert_eq!(
            String::from_utf8(aiger).expect("AIGER is text"),
            *want_aiger,
            "crash-recovered output differs from the uninterrupted run"
        );
        assert_eq!(counters, *want_counters);
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn renumbered_resubmission_adopts_the_existing_job() {
    let aig = inject_redundancy(&generators::priority_encoder(10), 0.5, 9);
    let shuffled = renumbered_copy(&aig);
    assert_ne!(
        aiger_bytes(&aig),
        aiger_bytes(&shuffled),
        "the copy must genuinely renumber"
    );

    let service = SweepService::start(ServiceConfig {
        workers: 1,
        quantum: Duration::from_millis(5),
        spill_dir: None,
    })
    .expect("service starts");
    let (id, adopted) = service
        .submit(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&aig),
        )
        .expect("submit succeeds");
    assert!(!adopted);

    // Same circuit, different node numbering: canonically identical, so
    // the submission lands on the existing job.
    let (id2, adopted2) = service
        .submit(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&shuffled),
        )
        .expect("resubmit succeeds");
    assert_eq!(id2, id);
    assert!(adopted2);

    // Adoption refuses to silently change the sweep settings.
    let err = service
        .submit(
            Priority::Normal,
            Engine::Baseline,
            Preset::Fast,
            &aiger_bytes(&aig),
        )
        .expect_err("conflicting engine is refused");
    assert!(err.contains("already sweeps"), "got: {err}");

    let info = service.wait(id, WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    service.shutdown();
}

#[test]
fn cancelled_jobs_stop_and_resubmission_restarts_them() {
    let long = inject_redundancy(&generators::barrel_shifter(8), 0.5, 10);
    let target = inject_redundancy(&generators::decoder(5), 0.5, 11);
    let service = SweepService::start(ServiceConfig {
        workers: 1,
        quantum: Duration::from_millis(5),
        spill_dir: None,
    })
    .expect("service starts");

    // The long job occupies the only worker, so the target is still
    // queued when the cancel lands — deterministic immediate cancellation.
    let (long_id, _) = service
        .submit(
            Priority::High,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&long),
        )
        .expect("submit succeeds");
    let (target_id, _) = service
        .submit(
            Priority::Low,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&target),
        )
        .expect("submit succeeds");
    service.cancel(target_id).expect("cancel succeeds");
    let info = service.wait(target_id, WAIT).expect("terminal");
    assert_eq!(info.state, JobState::Cancelled);
    assert!(
        service.fetch(target_id).is_err(),
        "a cancelled job has no output"
    );

    // Resubmission revives the cancelled job under the same id.
    let (revived, adopted) = service
        .submit(
            Priority::High,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&target),
        )
        .expect("resubmit succeeds");
    assert_eq!(revived, target_id);
    assert!(adopted);
    let info = service.wait(target_id, WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(target_id).expect("output available");
    let (want_aiger, want_counters) = reference(Engine::Stp, Preset::Fast, &target);
    assert_eq!(String::from_utf8(aiger).expect("AIGER is text"), want_aiger);
    assert_eq!(counters, want_counters);

    // Cancelling a running job stops it before its next sweeping SAT query.
    service.cancel(long_id).expect("cancel succeeds");
    let info = service.wait(long_id, WAIT).expect("terminal");
    assert!(
        matches!(info.state, JobState::Cancelled | JobState::Done),
        "cancel raced completion at worst: {}",
        info.state
    );
    service.shutdown();
}

#[test]
fn scripted_jobs_match_in_process_pipelines_and_recover_from_spill() {
    let script = "strash;sweep(stp);verify";
    let aig = inject_redundancy(&generators::barrel_shifter(8), 0.5, 14);

    // The oracle: the same pipeline run uninterrupted, in-process, under
    // the daemon's effective configuration.
    let want = PassManager::new(effective_config(Preset::Fast))
        .with_script(script)
        .expect("script parses")
        .run(&aig)
        .expect("uninterrupted pipeline finishes");
    let want_aiger = netlist::write_aiger_string(&want.aig);
    let want_counters = JobCounters::from_report(&want.report);

    let spill = fresh_dir("scripted");
    let config = ServiceConfig {
        workers: 1,
        quantum: Duration::from_millis(2),
        spill_dir: Some(spill.clone()),
    };
    let service = SweepService::start(config.clone()).expect("service starts");

    // A typo fails the submission, not the job.
    let err = service
        .submit_with_passes(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            "strash;typo",
            &aiger_bytes(&aig),
        )
        .expect_err("an invalid script is refused");
    assert!(err.contains("invalid pass script"), "got: {err}");

    let (id, adopted) = service
        .submit_with_passes(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            script,
            &aiger_bytes(&aig),
        )
        .expect("submit succeeds");
    assert!(!adopted);

    // Adoption refuses to silently change the pass script.
    let err = service
        .submit(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&aig),
        )
        .expect_err("a conflicting script is refused");
    assert!(err.contains("already sweeps"), "got: {err}");
    assert!(err.contains(script), "the error names the script: {err}");

    // A 2 ms quantum trips mid-pipeline; scripted jobs are requeued with
    // a growing quantum (never checkpointed) until one slice fits the
    // whole script, so the output is an uninterrupted pipeline's by
    // construction.
    let info = service.wait(id, WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(id).expect("done job has output");
    assert_eq!(
        String::from_utf8(aiger).expect("AIGER is text"),
        want_aiger,
        "scripted daemon output differs from the in-process pipeline"
    );
    assert_eq!(counters, want_counters);
    service.shutdown();
    assert_eq!(spill_files(&spill, "job"), 0, "done jobs leave no spill");
    drop(service);

    // Crash recovery: spill a scripted submission directly — as a crashed
    // daemon would have left it — plus a stray sweep checkpoint, which a
    // scripted job must ignore (it cannot restart a pipeline mid-script).
    let other = inject_redundancy(&generators::priority_encoder(10), 0.5, 15);
    let fp = canonical_fingerprint(&other);
    let dir = SpillDir::open(&spill).expect("spill dir opens");
    dir.write_job(
        fp,
        &SpilledJob {
            priority: Priority::Normal,
            engine: Engine::Stp,
            preset: Preset::Fast,
            aiger: aiger_bytes(&other),
            passes: script.to_string(),
        },
    )
    .expect("job spills");
    dir.write_checkpoint(fp, b"stale sweep checkpoint")
        .expect("checkpoint spills");

    let want = PassManager::new(effective_config(Preset::Fast))
        .with_script(script)
        .expect("script parses")
        .run(&other)
        .expect("uninterrupted pipeline finishes");
    let service = SweepService::start(config).expect("service restarts");
    let recovered = service.list();
    assert_eq!(recovered.len(), 1, "the spilled scripted job is re-adopted");
    assert_eq!(recovered[0].canonical_fingerprint, fp);
    let info = service.wait(recovered[0].id, WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(recovered[0].id).expect("output");
    assert_eq!(
        String::from_utf8(aiger).expect("AIGER is text"),
        netlist::write_aiger_string(&want.aig),
        "crash-recovered scripted output differs from the in-process pipeline"
    );
    assert_eq!(counters, JobCounters::from_report(&want.report));
    service.shutdown();
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn a_readopted_job_whose_script_no_longer_parses_fails_cleanly() {
    // A spill directory written by an older build can hold a scripted job
    // that names a pass this build no longer has.  On restart that job
    // fails with the parse error and leaves no spill files behind, and a
    // plain job spilled next to it still completes.
    let spill = fresh_dir("stale-script");
    let dir = SpillDir::open(&spill).expect("spill dir opens");
    let scripted = inject_redundancy(&generators::priority_encoder(10), 0.5, 22);
    let plain = inject_redundancy(&generators::barrel_shifter(8), 0.5, 23);
    let scripted_fp = canonical_fingerprint(&scripted);
    let plain_fp = canonical_fingerprint(&plain);
    for (fp, aig, passes) in [
        (scripted_fp, &scripted, "strash;rewrite;sweep(stp)"),
        (plain_fp, &plain, ""),
    ] {
        dir.write_job(
            fp,
            &SpilledJob {
                priority: Priority::Normal,
                engine: Engine::Stp,
                preset: Preset::Fast,
                aiger: aiger_bytes(aig),
                passes: passes.to_string(),
            },
        )
        .expect("job spills");
    }
    dir.write_checkpoint(scripted_fp, b"stale sweep checkpoint")
        .expect("checkpoint spills");

    let service = SweepService::start(ServiceConfig {
        workers: 1,
        quantum: Duration::from_secs(3600),
        spill_dir: Some(spill.clone()),
    })
    .expect("service starts");
    let recovered = service.list();
    assert_eq!(recovered.len(), 2, "both spilled jobs are re-adopted");
    let id_of = |fp| {
        recovered
            .iter()
            .find(|job| job.canonical_fingerprint == fp)
            .expect("re-adopted")
            .id
    };

    let info = service.wait(id_of(scripted_fp), WAIT).expect("job ends");
    assert_eq!(info.state, JobState::Failed);
    assert!(info.error.contains("rewrite"), "got: {}", info.error);
    // The job reads as a refused script, as a submission of it would, not
    // as a bug in the daemon.
    assert!(
        info.error.contains("invalid pass script"),
        "got: {}",
        info.error
    );
    assert!(
        !info.error.contains("internal inconsistency"),
        "got: {}",
        info.error
    );
    let err = service
        .fetch(info.id)
        .expect_err("a failed job has no output");
    assert!(
        err.contains(&info.error),
        "fetch returns the job's error: {err}"
    );
    assert!(dir.read_job(scripted_fp).expect("readable").is_none());
    assert!(dir
        .read_checkpoint(scripted_fp)
        .expect("readable")
        .is_none());

    let info = service.wait(id_of(plain_fp), WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(info.id).expect("output");
    let (want_aiger, want_counters) = reference(Engine::Stp, Preset::Fast, &plain);
    assert_eq!(String::from_utf8(aiger).expect("AIGER is text"), want_aiger);
    assert_eq!(counters, want_counters);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn a_checkpoint_of_a_retired_format_reruns_its_job_from_scratch() {
    // A spilled sweep job whose `SWC1` sidecar holds checkpoint bytes of
    // format version 9: intact as a spill file, but not a checkpoint this
    // build decodes.  The job is re-adopted as queued — exactly like a job
    // with a corrupt checkpoint — and reruns to the uninterrupted result.
    let aig = inject_redundancy(&generators::barrel_shifter(8), 0.5, 21);
    let fp = canonical_fingerprint(&aig);
    let spill = fresh_dir("retired");
    let dir = SpillDir::open(&spill).expect("spill dir opens");
    dir.write_job(
        fp,
        &SpilledJob {
            priority: Priority::Normal,
            engine: Engine::Stp,
            preset: Preset::Fast,
            aiger: aiger_bytes(&aig),
            passes: String::new(),
        },
    )
    .expect("job spills");
    let mut v9 = stp_sweep::checkpoint::CHECKPOINT_MAGIC.to_vec();
    v9.extend_from_slice(&9u32.to_le_bytes());
    v9.extend_from_slice(&[0x5A; 256]);
    assert_eq!(
        stp_sweep::SweepCheckpoint::decode(&v9),
        Err(stp_sweep::CheckpointError::UnsupportedVersion(9))
    );
    dir.write_checkpoint(fp, &v9).expect("checkpoint spills");

    let service = SweepService::start(ServiceConfig {
        workers: 1,
        quantum: Duration::from_secs(3600),
        spill_dir: Some(spill.clone()),
    })
    .expect("service starts");
    let recovered = service.list();
    assert_eq!(recovered.len(), 1, "the spilled job is re-adopted");
    assert_eq!(recovered[0].canonical_fingerprint, fp);
    // Re-adopted as queued, not suspended: the worker may already have
    // claimed it, but it never resumes from the undecodable checkpoint.
    assert_ne!(
        recovered[0].state,
        JobState::Suspended,
        "no progress is carried over"
    );
    let info = service.wait(recovered[0].id, WAIT).expect("job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(info.id).expect("output");
    let (want_aiger, want_counters) = reference(Engine::Stp, Preset::Fast, &aig);
    assert_eq!(String::from_utf8(aiger).expect("AIGER is text"), want_aiger);
    assert_eq!(counters, want_counters);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&spill);
}

#[test]
fn a_high_priority_job_preempts_a_running_low_one() {
    let high = inject_redundancy(&generators::decoder(4), 0.5, 13);
    let start = Instant::now();
    reference(Engine::Stp, Preset::Fast, &high);
    // The low job must still be running when the high one is done; its
    // sizing run is its oracle.
    let (low, (want_aiger, want_counters)) = long_job(12, 20 * start.elapsed());
    // One worker and a quantum far longer than the whole test: without
    // preemption the high job could not start until the low job finished.
    let service = SweepService::start(ServiceConfig {
        workers: 1,
        quantum: Duration::from_secs(3600),
        spill_dir: None,
    })
    .expect("service starts");
    let (low_id, _) = service
        .submit(Priority::Low, Engine::Stp, Preset::Fast, &aiger_bytes(&low))
        .expect("submit succeeds");
    // Give the low job its slice before the rival shows up.
    let deadline = Instant::now() + WAIT;
    while service.status(low_id).expect("known job").state != JobState::Running {
        assert!(Instant::now() < deadline, "low job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let (high_id, _) = service
        .submit(
            Priority::High,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&high),
        )
        .expect("submit succeeds");

    let info = service.wait(high_id, WAIT).expect("high job finishes");
    assert_eq!(info.state, JobState::Done);
    let low_state = service.status(low_id).expect("known job").state;
    assert_ne!(
        low_state,
        JobState::Done,
        "the high-priority job finished while the preempted low job was still pending"
    );

    // Preemption is just another suspension: the low job's eventual output
    // is still byte-identical to an uninterrupted run.
    let info = service.wait(low_id, WAIT).expect("low job finishes");
    assert_eq!(info.state, JobState::Done);
    let (aiger, counters) = service.fetch(low_id).expect("output available");
    assert_eq!(String::from_utf8(aiger).expect("AIGER is text"), want_aiger);
    assert_eq!(counters, want_counters);
    service.shutdown();
}
