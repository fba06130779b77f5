//! The sweep service, in-process: submit a mixed-priority batch of jobs to
//! a [`SweepService`] slicing them over a tiny quantum, then verify every
//! output is byte-identical to an uninterrupted run — the guarantee that
//! makes a multiplexing daemon safe to put in front of the sweeper.
//!
//! Run with `cargo run --example sweep_service`.
//!
//! The same service speaks a socket protocol when run as the `sweepd`
//! binary; `sweepctl` is the matching client:
//!
//! ```text
//! sweepd --socket /tmp/sweepd.sock --spill-dir /tmp/sweepd-spill &
//! sweepctl submit design.aag --priority high --wait -o swept.aag
//! ```

use std::time::Duration;

use stp_sat_sweep::netlist::write_aiger_string;
use stp_sat_sweep::sweepd::{
    effective_config, JobCounters, Preset, Priority, ServiceConfig, SweepService,
};
use stp_sat_sweep::workloads::{generators, inject_redundancy};
use stp_sat_sweep::{Engine, Sweeper};

fn main() {
    let jobs = [
        (
            "barrel shifter",
            Priority::Low,
            inject_redundancy(&generators::barrel_shifter(8), 0.5, 1),
        ),
        (
            "ripple adder",
            Priority::High,
            inject_redundancy(&generators::ripple_carry_adder(16), 0.4, 2),
        ),
        (
            "priority encoder",
            Priority::Normal,
            inject_redundancy(&generators::priority_encoder(12), 0.5, 3),
        ),
        (
            "decoder",
            Priority::High,
            inject_redundancy(&generators::decoder(5), 0.5, 4),
        ),
    ];

    // Two workers, a deliberately tiny 2 ms quantum: every job will be
    // suspended to a checkpoint and resumed many times.
    let service = SweepService::start(ServiceConfig {
        workers: 2,
        quantum: Duration::from_millis(2),
        spill_dir: None,
    })
    .expect("service starts");

    let mut ids = Vec::new();
    for (name, priority, aig) in &jobs {
        let bytes = write_aiger_string(aig).into_bytes();
        let (id, _) = service
            .submit(*priority, Engine::Stp, Preset::Fast, &bytes)
            .expect("submit");
        println!(
            "submitted {name:>17} as job {id} ({priority} priority, {} ANDs)",
            aig.num_ands()
        );
        ids.push(id);
    }

    for (id, (name, _, aig)) in ids.iter().zip(&jobs) {
        let info = service
            .wait(*id, Duration::from_secs(600))
            .expect("job finishes");
        let (aiger, counters) = service.fetch(*id).expect("output");

        // The headline guarantee: slicing is invisible in the output.
        let reference = Sweeper::new(Engine::Stp)
            .config(effective_config(Preset::Fast))
            .run(aig)
            .expect("uninterrupted run");
        assert_eq!(aiger, write_aiger_string(&reference.aig).into_bytes());
        assert_eq!(counters, JobCounters::from_report(&reference.report));
        println!(
            "job {id} ({name}) done in {} slices: {counters} — byte-identical to uninterrupted",
            info.slices
        );
    }
    service.shutdown();
    println!("all sliced outputs match their uninterrupted references");
}
