//! Regenerates **Table II** of the paper: SAT-sweeping with the baseline
//! FRAIG-style engine versus the proposed STP engine on the HWMCC/IWLS
//! analog suite.
//!
//! For every benchmark the harness reports the columns of Table II:
//! statistics of the input network, the swept size, the number of
//! satisfiable and total SAT calls of each engine, their simulation time and
//! their total runtime, plus the runtime ratio (STP / baseline).  Every
//! sweep is verified with the CEC checker unless `--no-verify` is passed.
//! Each engine sweeps each benchmark three times: the times are the fastest
//! of the three, and the three runs must agree on every counter and on the
//! swept network's digest.
//!
//! Usage: `cargo run -p bench --release --bin table2 -- [--scale tiny|small|large] [--patterns N] [--no-verify] [--json PATH]`
//!
//! With `--json PATH` the measured numbers are written as a JSON document
//! (the format of the checked-in `BENCH_baseline_table2.json`): the exact
//! per-benchmark SAT-call/merge/constant counters of both engines, the
//! digests of their swept networks' AIGER bytes (`bench::aiger_digest`),
//! plus their wall-clock times.

use bench::{aiger_digest, geometric_mean, secs, Args};
use std::time::Duration;
use stp_sweep::{cec, Engine, SweepConfig, SweepReport, SweepResult, Sweeper};
use workloads::hwmcc_suite;

const USAGE: &str = "table2 [--scale tiny|small|large] [--patterns N] [--no-verify] [--json PATH]";

/// Sweeps per engine and benchmark.  A single sweep of a Tiny row takes a
/// few milliseconds, and its time varies between runs by more than the
/// bench gate's 30% tolerance.
const RUNS: usize = 3;

/// Runs one engine on one benchmark [`RUNS`] times and returns the first
/// result with the fastest time of each kind.
///
/// # Panics
///
/// Panics if the runs disagree on a counter or on the swept network.
fn sweep(name: &str, aig: &netlist::Aig, engine: Engine, config: SweepConfig) -> SweepResult {
    let run = || {
        Sweeper::new(engine)
            .config(config)
            .run(aig)
            .expect("valid sweep config")
    };
    let counters = |r: &SweepReport| SweepReport {
        simulation_time: Duration::ZERO,
        sat_time: Duration::ZERO,
        total_time: Duration::ZERO,
        ..*r
    };
    let mut fastest = run();
    for _ in 1..RUNS {
        let again = run();
        assert_eq!(
            counters(&again.report),
            counters(&fastest.report),
            "{name}: two {engine} sweeps disagree on a counter"
        );
        assert_eq!(
            aiger_digest(&again.aig),
            aiger_digest(&fastest.aig),
            "{name}: two {engine} sweeps disagree on the swept network"
        );
        let (best, r) = (&mut fastest.report, &again.report);
        best.simulation_time = best.simulation_time.min(r.simulation_time);
        best.sat_time = best.sat_time.min(r.sat_time);
        best.total_time = best.total_time.min(r.total_time);
    }
    fastest
}

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.scale();
    let verify = !args.switch("--no-verify");
    let num_patterns: usize = args.value("--patterns", 256);
    if num_patterns == 0 {
        args.fail("--patterns must be nonzero");
    }

    println!("Table II analog: SAT-sweeping on the HWMCC/IWLS-analog suite");
    println!("scale = {scale:?}, initial patterns = {num_patterns}, verify = {verify}\n");
    println!(
        "{:<14} {:>5}/{:<5} {:>5} {:>6} {:>6} | {:>7} {:>7} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8} {:>6}",
        "benchmark", "PI", "PO", "Lev", "Gate", "Result",
        "sSAT b", "sSAT s", "tSAT b", "tSAT s", "sim b", "sim s", "total b", "total s", "x"
    );

    let baseline_config = SweepConfig {
        num_initial_patterns: num_patterns,
        ..SweepConfig::baseline()
    };
    let stp_config = SweepConfig {
        num_initial_patterns: num_patterns,
        ..SweepConfig::default()
    };

    let mut ratios = Vec::new();
    let mut sat_calls_b = Vec::new();
    let mut sat_calls_s = Vec::new();
    let mut total_calls_b = Vec::new();
    let mut total_calls_s = Vec::new();
    let mut sim_b = Vec::new();
    let mut sim_s = Vec::new();
    let mut tot_b = Vec::new();
    let mut tot_s = Vec::new();
    let mut json_rows = Vec::new();

    for bench in hwmcc_suite(scale) {
        let aig = &bench.aig;
        let baseline = sweep(bench.name, aig, Engine::Baseline, baseline_config);
        let stp = sweep(bench.name, aig, Engine::Stp, stp_config);

        if verify {
            let b_ok = cec::check_equivalence(aig, &baseline.aig, 200_000);
            let s_ok = cec::check_equivalence(aig, &stp.aig, 200_000);
            assert!(
                b_ok.equivalent,
                "{}: baseline sweep is not equivalent",
                bench.name
            );
            assert!(
                s_ok.equivalent,
                "{}: STP sweep is not equivalent",
                bench.name
            );
        }

        let rb = &baseline.report;
        let rs = &stp.report;
        let ratio = rs.total_time.as_secs_f64() / rb.total_time.as_secs_f64().max(1e-9);
        json_rows.push(format!(
            "    {{\"benchmark\": \"{}\", \"pi\": {}, \"po\": {}, \"levels\": {}, \"gates\": {}, \
             \"result_b\": {}, \"result_s\": {}, \
             \"ssat_b\": {}, \"tsat_b\": {}, \"merges_b\": {}, \"constants_b\": {}, \
             \"dead_skips_b\": {}, \"digest_b\": {}, \
             \"ssat_s\": {}, \"tsat_s\": {}, \"merges_s\": {}, \"constants_s\": {}, \
             \"dead_skips_s\": {}, \"digest_s\": {}, \
             \"sim_b_s\": {:.6}, \"sim_s_s\": {:.6}, \"total_b_s\": {:.6}, \"total_s_s\": {:.6}}}",
            bench.name,
            aig.num_inputs(),
            aig.num_outputs(),
            rs.levels,
            rs.gates_before,
            rb.gates_after,
            rs.gates_after,
            rb.sat_calls_sat,
            rb.sat_calls_total,
            rb.merges,
            rb.constants,
            rb.dead_skips,
            aiger_digest(&baseline.aig),
            rs.sat_calls_sat,
            rs.sat_calls_total,
            rs.merges,
            rs.constants,
            rs.dead_skips,
            aiger_digest(&stp.aig),
            rb.simulation_time.as_secs_f64(),
            rs.simulation_time.as_secs_f64(),
            rb.total_time.as_secs_f64(),
            rs.total_time.as_secs_f64(),
        ));
        ratios.push(ratio);
        sat_calls_b.push(rb.sat_calls_sat as f64);
        sat_calls_s.push(rs.sat_calls_sat as f64);
        total_calls_b.push(rb.sat_calls_total as f64);
        total_calls_s.push(rs.sat_calls_total as f64);
        sim_b.push(rb.simulation_time.as_secs_f64());
        sim_s.push(rs.simulation_time.as_secs_f64());
        tot_b.push(rb.total_time.as_secs_f64());
        tot_s.push(rs.total_time.as_secs_f64());

        println!(
            "{:<14} {:>5}/{:<5} {:>5} {:>6} {:>6} | {:>7} {:>7} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8} {:>6.2}",
            bench.name,
            aig.num_inputs(),
            aig.num_outputs(),
            rs.levels,
            rs.gates_before,
            rs.gates_after,
            rb.sat_calls_sat,
            rs.sat_calls_sat,
            rb.sat_calls_total,
            rs.sat_calls_total,
            secs(rb.simulation_time),
            secs(rs.simulation_time),
            secs(rb.total_time),
            secs(rs.total_time),
            ratio
        );
    }

    println!(
        "\n{:<14} {:>11} {:>5} {:>6} {:>6} | {:>7.1} {:>7.1} | {:>8.1} {:>8.1} | {:>8.3} {:>8.3} | {:>8.3} {:>8.3} {:>6.2}",
        "Geo.",
        "",
        "",
        "",
        "",
        geometric_mean(sat_calls_b.iter().copied()),
        geometric_mean(sat_calls_s.iter().copied()),
        geometric_mean(total_calls_b.iter().copied()),
        geometric_mean(total_calls_s.iter().copied()),
        geometric_mean(sim_b.iter().copied()),
        geometric_mean(sim_s.iter().copied()),
        geometric_mean(tot_b.iter().copied()),
        geometric_mean(tot_s.iter().copied()),
        geometric_mean(ratios.iter().copied()),
    );
    println!(
        "Imp. (new/old): satisfiable SAT calls = {:.2}, total SAT calls = {:.2}, simulation time = {:.2}, total runtime = {:.2}",
        geometric_mean(sat_calls_s) / geometric_mean(sat_calls_b).max(1e-9),
        geometric_mean(total_calls_s) / geometric_mean(total_calls_b).max(1e-9),
        geometric_mean(sim_s) / geometric_mean(sim_b).max(1e-9),
        geometric_mean(tot_s) / geometric_mean(tot_b).max(1e-9),
    );
    println!("(paper: satisfiable SAT calls 0.09, total SAT calls 0.60, simulation 1.99, total runtime 0.65)");

    if let Some(path) = args.text("--json") {
        let document = format!(
            "{{\n  \"table\": \"table2_sweeping\",\n  \"scale\": \"{scale:?}\",\n  \
             \"patterns\": {num_patterns},\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        std::fs::write(path, document).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
