//! Regenerates **Table I** of the paper: circuit-simulation runtime on the
//! EPFL-analog suite.
//!
//! For every benchmark the harness measures four runtimes:
//!
//! * `TA(base)` — word-parallel bitwise simulation of the AIG (the
//!   Mockturtle baseline);
//! * `TA(stp)`  — STP simulation of the same network expressed as 2-LUTs;
//! * `TL(base)` — per-pattern bitwise simulation of the 6-LUT network;
//! * `TL(stp)`  — STP simulation of the 6-LUT network.
//!
//! The paper reports parity on `TA` and a ~7.2× average speed-up on `TL`;
//! the shape (not the absolute numbers) is what this harness reproduces.
//!
//! Usage: `cargo run -p bench --release --bin table1 -- [--scale tiny|small|large] [--patterns N] [--lut-k K] [--threads T] [--json PATH] [--passes SCRIPT]`
//!
//! `--lut-k K` sets the LUT size of the `TL` network (default 6), from 2 up
//! to the STP simulator's cut bound `stp_sim::MAX_CUT_LEAVES` (16).
//!
//! `--threads T` runs the AIG and STP simulators on `T` threads, each over
//! its own contiguous range of pattern words; results are bit-identical to
//! `--threads 1` (the default), only the times change.  The sweeps of the
//! JSON section are single-threaded either way.
//!
//! With `--json PATH` the measured numbers are also written as a JSON
//! document (the format of the checked-in `BENCH_baseline.json`).  The JSON
//! additionally runs the standard sweeping pipeline (the pass script
//! `sweep(stp);strash;sweep(stp)` under `SweepConfig::fast`) through
//! `PassManager::run` on every benchmark and records the
//! *per-pass* reports, so snapshots track where the gates and the time go
//! pass by pass rather than only in aggregate, and the `digest` of the
//! final network's AIGER bytes (`bench::aiger_digest`).  No `verify` pass is run
//! here: the CEC miters of the hard arithmetic benchmarks (`hyp`, `log2`,
//! …) are intractable by design — sweep correctness is covered by the
//! test-suite and by `table2` (which verifies on the sweeping suite).
//!
//! `--passes SCRIPT` replaces the default pipeline of the JSON section with
//! an arbitrary pass script (e.g. `--passes "dc2(2)"`, see
//! `stp_sweep::passes::parse_script` for the grammar).  The per-pass JSON
//! rows then additionally carry each pass's deterministic counters (e.g.
//! `removed`, `iterations`), so `bench_diff` against a script baseline
//! pins the pass-level behaviour exactly.
//!
//! An unknown flag, a value that does not parse or an unknown scale exits
//! with code 2 and the usage line.

use bench::{aiger_digest, geometric_mean, timed, Args};
use bitsim::{AigSimulator, LutSimulator, PatternSet};
use netlist::lutmap;
use stp_sweep::stp_sim::{StpSimulator, MAX_CUT_LEAVES};
use stp_sweep::{PassManager, SweepConfig};
use workloads::epfl_suite;

const USAGE: &str = "table1 [--scale tiny|small|large] [--patterns N] [--lut-k K] \
                     [--threads T] [--json PATH] [--passes SCRIPT]";

/// The pass script of the JSON section without `--passes`.
const DEFAULT_PIPELINE: &str = "sweep(stp);strash;sweep(stp)";

/// Runs the `--passes` script (or the default pipeline) on one benchmark
/// and renders its JSON row.
fn pipeline_json_row(name: &str, aig: &netlist::Aig, script: Option<&str>) -> String {
    let outcome = PassManager::new(SweepConfig::fast())
        .with_script(script.unwrap_or(DEFAULT_PIPELINE))
        .expect("the script was parsed up front")
        .run(aig)
        .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"));
    let passes: Vec<String> = outcome
        .passes
        .iter()
        .map(|p| {
            // Pass counters only appear in scripted (`--passes`) snapshots:
            // the default-pipeline snapshot format — and therefore the
            // checked-in `BENCH_baseline.json` — stays byte-identical.
            let counters = if script.is_some() && !p.counters.is_empty() {
                let entries: Vec<String> = p
                    .counters
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": {value}"))
                    .collect();
                format!(", \"counters\": {{{}}}", entries.join(", "))
            } else {
                String::new()
            };
            format!(
                "{{\"name\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, \
                 \"sat_calls\": {}, \"merges\": {}, \"time_s\": {:.6}{}}}",
                p.name,
                p.gates_before,
                p.gates_after,
                p.report.map(|r| r.sat_calls_total).unwrap_or(0),
                p.report.map(|r| r.merges).unwrap_or(0),
                p.time.as_secs_f64(),
                counters
            )
        })
        .collect();
    let r = &outcome.report;
    format!(
        "      {{\"benchmark\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, \
         \"sat_calls\": {}, \"merges\": {}, \"constants\": {}, \
         \"resim_events\": {}, \"resim_nodes\": {}, \"resim_skipped\": {}, \
         \"dead_skips\": {}, \"digest\": {}, \"total_s\": {:.6}, \"passes\": [{}]}}",
        name,
        r.gates_before,
        r.gates_after,
        r.sat_calls_total,
        r.merges,
        r.constants,
        r.resim_events,
        r.resim_nodes,
        r.resim_skipped_nodes,
        r.dead_skips,
        aiger_digest(&outcome.aig),
        r.total_time.as_secs_f64(),
        passes.join(", ")
    )
}

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.scale();
    let num_patterns: usize = args.value("--patterns", 4096);
    let lut_k: usize = args.value("--lut-k", 6);
    let threads: usize = args.value("--threads", 1);
    let passes_script = args.text("--passes");
    let script = passes_script.unwrap_or(DEFAULT_PIPELINE);
    // Validate the script up-front (and collect the scheduled pass names
    // for the snapshot header) instead of panicking per benchmark.
    let pass_names: Vec<String> = match stp_sweep::passes::parse_script(script) {
        Ok(parsed) => parsed.iter().map(|p| format!("\"{p}\"")).collect(),
        Err(e) => args.fail(&format!("--passes: {e}")),
    };
    if num_patterns == 0 || threads == 0 {
        args.fail("--patterns and --threads must be nonzero");
    }
    if !(2..=MAX_CUT_LEAVES).contains(&lut_k) {
        args.fail(&format!("--lut-k must be in 2..={MAX_CUT_LEAVES}"));
    }

    println!("Table I analog: circuit simulation on the EPFL-analog suite");
    println!("scale = {scale:?}, patterns = {num_patterns}, k = {lut_k}, threads = {threads}\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>7} {:>10} {:>10} {:>7}",
        "benchmark", "gates", "TA base", "TA stp", "xA", "TL base", "TL stp", "xL"
    );

    let mut ta_ratios = Vec::new();
    let mut tl_ratios = Vec::new();
    let mut ta_base_all = Vec::new();
    let mut tl_base_all = Vec::new();
    let mut ta_stp_all = Vec::new();
    let mut tl_stp_all = Vec::new();
    let mut json_rows = Vec::new();

    let suite = epfl_suite(scale);
    for bench in &suite {
        let aig = &bench.aig;
        let patterns = PatternSet::random(aig.num_inputs(), num_patterns, 0xEB5)
            .expect("--patterns is validated nonzero");

        // TA baseline: word-parallel AIG simulation.
        let (_, ta_base) = timed(|| AigSimulator::new(aig).run_parallel(&patterns, threads));
        // TA STP: the AIG expressed as a 2-LUT network, simulated by STP.
        let aig_as_luts = lutmap::map_to_luts(aig, 2);
        let stp2 = StpSimulator::new(&aig_as_luts);
        let (_, ta_stp) = timed(|| stp2.simulate_all_parallel(&patterns, threads));

        // TL: the 6-LUT mapping of the benchmark.
        let lut_net = lutmap::map_to_luts(aig, lut_k);
        let (_, tl_base) = timed(|| LutSimulator::new(&lut_net).run(&patterns));
        let stp6 = StpSimulator::new(&lut_net);
        let (_, tl_stp) = timed(|| stp6.simulate_all_parallel(&patterns, threads));

        let xa = ta_base.as_secs_f64() / ta_stp.as_secs_f64().max(1e-9);
        let xl = tl_base.as_secs_f64() / tl_stp.as_secs_f64().max(1e-9);
        ta_ratios.push(xa);
        tl_ratios.push(xl);
        ta_base_all.push(ta_base.as_secs_f64());
        tl_base_all.push(tl_base.as_secs_f64());
        ta_stp_all.push(ta_stp.as_secs_f64());
        tl_stp_all.push(tl_stp.as_secs_f64());

        json_rows.push(format!(
            "    {{\"benchmark\": \"{}\", \"gates\": {}, \"ta_base_s\": {:.6}, \
             \"ta_stp_s\": {:.6}, \"xa\": {:.3}, \"tl_base_s\": {:.6}, \
             \"tl_stp_s\": {:.6}, \"xl\": {:.3}}}",
            bench.name,
            aig.num_ands(),
            ta_base.as_secs_f64(),
            ta_stp.as_secs_f64(),
            xa,
            tl_base.as_secs_f64(),
            tl_stp.as_secs_f64(),
            xl
        ));

        println!(
            "{:<12} {:>8} {:>9.3}s {:>9.3}s {:>6.2}x {:>9.3}s {:>9.3}s {:>6.2}x",
            bench.name,
            aig.num_ands(),
            ta_base.as_secs_f64(),
            ta_stp.as_secs_f64(),
            xa,
            tl_base.as_secs_f64(),
            tl_stp.as_secs_f64(),
            xl
        );
    }

    println!(
        "\n{:<12} {:>8} {:>9.3}s {:>9.3}s {:>6.2}x {:>9.3}s {:>9.3}s {:>6.2}x",
        "Geo.",
        "",
        geometric_mean(ta_base_all),
        geometric_mean(ta_stp_all),
        geometric_mean(ta_ratios.iter().copied()),
        geometric_mean(tl_base_all),
        geometric_mean(tl_stp_all),
        geometric_mean(tl_ratios.iter().copied()),
    );
    println!(
        "Imp. (old/new): TA = {:.2}x, TL = {:.2}x   (paper: TA 0.99x, TL 7.18x)",
        geometric_mean(ta_ratios.iter().copied()),
        geometric_mean(tl_ratios.iter().copied())
    );

    if let Some(path) = args.text("--json") {
        // The sweeping pipeline section: per-pass reports per benchmark.
        println!("\nrunning the pass script \"{script}\" per benchmark ...");
        let pipeline_rows: Vec<String> = suite
            .iter()
            .map(|bench| pipeline_json_row(bench.name, &bench.aig, passes_script))
            .collect();
        // Only a `--passes` snapshot records its script, so the default
        // one stays byte-identical to the checked-in `BENCH_baseline.json`.
        let script_field =
            passes_script.map_or(String::new(), |s| format!("\"script\": \"{s}\",\n    "));
        let document = format!(
            "{{\n  \"table\": \"table1_simulation\",\n  \"scale\": \"{scale:?}\",\n  \
             \"patterns\": {num_patterns},\n  \"lut_k\": {lut_k},\n  \"threads\": {threads},\n  \"rows\": [\n{}\n  ],\n  \
             \"geomean\": {{\"xa\": {:.3}, \"xl\": {:.3}}},\n  \
             \"paper\": {{\"xa\": 0.99, \"xl\": 7.18}},\n  \
             \"pipeline\": {{\n    \"config\": \"fast\",\n    {script_field}\"passes\": [{}],\n    \
             \"rows\": [\n{}\n    ]\n  }}\n}}\n",
            json_rows.join(",\n"),
            geometric_mean(ta_ratios),
            geometric_mean(tl_ratios),
            pass_names.join(", "),
            pipeline_rows.join(",\n")
        );
        std::fs::write(path, document).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
