//! Checkpoint/resume: stop a sweep mid-run with a budget, persist its
//! state, and resume it later with results identical to an uninterrupted
//! run.
//!
//! Run with `cargo run --example checkpoint_resume`.

use stp_sat_sweep::netlist::write_aiger_string;
use stp_sat_sweep::workloads::{generators, inject_redundancy};
use stp_sat_sweep::{Budget, Engine, SweepCheckpoint, SweepConfig, SweepError, Sweeper};

fn main() {
    let base = generators::barrel_shifter(16);
    let aig = inject_redundancy(&base, 0.5, 7);
    let config = SweepConfig::fast();
    println!(
        "workload: barrel shifter + redundancy, {} AND gates",
        aig.num_ands()
    );

    // The reference: one uninterrupted run.
    let reference = Sweeper::new(Engine::Stp)
        .config(config)
        .run(&aig)
        .expect("uninterrupted run finishes");
    println!(
        "uninterrupted: {} (SAT calls {}, merges {})",
        reference.report, reference.report.sat_calls_total, reference.report.merges
    );

    // 1. A budget stop: cap the SAT calls mid-sweep.  The error carries
    //    both the partial result and the stop-point checkpoint.
    let cap = reference.report.sat_calls_total / 2;
    let err = Sweeper::new(Engine::Stp)
        .config(config)
        .budget(Budget::unlimited().with_max_sat_calls(cap))
        .run(&aig)
        .expect_err("the cap must trip");
    let SweepError::BudgetExhausted {
        cause, checkpoint, ..
    } = err
    else {
        panic!("expected budget exhaustion");
    };
    let checkpoint = *checkpoint.expect("primed stops are resumable");

    // 2. Encode — the bytes a preemptible service would spill to disk.
    let bytes = checkpoint.encode();
    println!(
        "stopped ({cause}) after {} of {} SAT calls; checkpoint is {} bytes",
        checkpoint.sat_calls(),
        reference.report.sat_calls_total,
        bytes.len()
    );

    // 3. Decode and resume, as a separate process would.
    let restored = SweepCheckpoint::decode(&bytes).expect("decodes");
    let resumed = Sweeper::new(Engine::Stp)
        .resume_from(&aig, &restored)
        .expect("fingerprints match")
        .run()
        .expect("resume finishes");
    println!(
        "resumed:       {} (SAT calls {}, merges {})",
        resumed.report, resumed.report.sat_calls_total, resumed.report.merges
    );

    // The headline guarantee: identical counters and byte-identical output.
    assert_eq!(
        resumed.report.sat_calls_total,
        reference.report.sat_calls_total
    );
    assert_eq!(resumed.report.merges, reference.report.merges);
    assert_eq!(
        write_aiger_string(&resumed.aig),
        write_aiger_string(&reference.aig)
    );
    println!("budget stop → resume output is byte-identical to the uninterrupted run");
}
