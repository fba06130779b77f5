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
//! Usage: `cargo run -p bench --release --bin table1 -- [--scale tiny|small|large] [--patterns N] [--lut-k K] [--threads T] [--json PATH] [--passes SCRIPT] [--checkpoint-every N] [--resume PATH]`
//!
//! `--threads T` runs the AIG and STP simulators on `T` threads, each over
//! its own contiguous range of pattern words; results are bit-identical to
//! `--threads 1` (the default), only the times change.  The sweeps of the
//! JSON section are single-threaded either way.
//!
//! With `--json PATH` the measured numbers are also written as a JSON
//! document (the format of the checked-in `BENCH_baseline.json`).  The JSON
//! additionally runs the standard sweeping pipeline (sweep → strash →
//! sweep, `SweepConfig::fast`) on every benchmark and records the
//! *per-pass* reports, so snapshots track where the gates and the time go
//! pass by pass rather than only in aggregate.  No `verify` pass is run
//! here: the CEC miters of the hard arithmetic benchmarks (`hyp`, `log2`,
//! …) are intractable by design — sweep correctness is covered by the
//! test-suite and by `table2` (which verifies on the sweeping suite).
//!
//! `--passes SCRIPT` replaces the default pipeline of the JSON section with
//! an arbitrary pass script (e.g. `--passes "dc2(2)"`, see
//! `stp_sweep::passes::parse_script` for the grammar).  The per-pass JSON
//! rows then additionally carry each pass's deterministic counters (e.g.
//! `removed`, `iterations`), so `bench_diff` against a script baseline
//! pins the pass-level behaviour exactly.  Scripted runs cannot be
//! combined with `--checkpoint-every` (the cancel→resume cycle is specific
//! to the default pipeline).
//!
//! `--checkpoint-every N` exercises the checkpoint/resume subsystem: every
//! sweep pass of the JSON pipeline section is cancelled (via a
//! [`CancelToken`] tripped after `N` committed SAT calls), checkpointed,
//! and resumed to completion — the snapshot therefore records the numbers
//! of *resumed* runs, and `bench_diff` against the untouched baseline
//! proves the cancel→resume identity on real workloads.  The first pass's
//! mid-sweep checkpoint of each benchmark is saved as
//! `table1_<bench>.ckpt`.
//!
//! `--resume PATH` loads such a file, locates the matching benchmark by
//! netlist fingerprint in the (deterministically regenerated) suite,
//! resumes it to completion and prints the cumulative report.

use bench::{arg_value, geometric_mean, parse_scale, timed};
use bitsim::{AigSimulator, LutSimulator, PatternSet};
use netlist::lutmap;
use stp_sweep::stp_sim::StpSimulator;
use stp_sweep::{
    Budget, CancelToken, Engine, Observer, PassManager, PassReport, PipelineResult, SatCallOutcome,
    SweepCheckpoint, SweepConfig, SweepError, SweepReport, SweepResult, Sweeper,
};
use workloads::{epfl_suite, Scale};

/// Cancels a run from inside the event stream: trips a [`CancelToken`]
/// after a fixed number of committed SAT calls.
struct CancelAfterSatCalls {
    remaining: u64,
    token: CancelToken,
    checkpoints_seen: u64,
}

impl Observer for CancelAfterSatCalls {
    fn on_sat_call(&mut self, _outcome: SatCallOutcome) {
        if self.remaining == 0 {
            self.token.cancel();
        } else {
            self.remaining -= 1;
        }
    }

    fn on_checkpoint(&mut self, _checkpoint: &SweepCheckpoint, _encoded: &[u8]) {
        self.checkpoints_seen += 1;
    }
}

/// Runs one sweep pass as a cancel→checkpoint→resume cycle: the run is
/// cancelled after `every` committed SAT calls, the stop checkpoint is
/// round-tripped through its binary encoding (and optionally saved to
/// disk), and the resumed run completes the pass.  The identity guarantee
/// makes the returned result indistinguishable from an uninterrupted run —
/// which `bench_diff` then pins against the baseline.
fn checkpointed_sweep_pass(
    name: &str,
    aig: &netlist::Aig,
    config: SweepConfig,
    every: u64,
    save_to: Option<&str>,
) -> SweepResult {
    let token = CancelToken::new();
    let mut canceller = CancelAfterSatCalls {
        remaining: every,
        token: token.clone(),
        checkpoints_seen: 0,
    };
    let run = Sweeper::new(Engine::Stp)
        .config(config)
        .budget(Budget::unlimited().with_cancel_token(token))
        .observer(&mut canceller)
        .run(aig);
    match run {
        // The pass finished before the cancel point: nothing to resume.
        Ok(full) => full,
        Err(SweepError::BudgetExhausted {
            checkpoint: Some(checkpoint),
            ..
        }) => {
            if let Some(path) = save_to {
                checkpoint
                    .save(path)
                    .unwrap_or_else(|e| panic!("{name}: writing {path}: {e}"));
            }
            let restored = SweepCheckpoint::decode(&checkpoint.encode())
                .unwrap_or_else(|e| panic!("{name}: checkpoint round trip: {e}"));
            Sweeper::new(Engine::Stp)
                .resume_from(aig, &restored)
                .unwrap_or_else(|e| panic!("{name}: resume rejected: {e}"))
                .run()
                .unwrap_or_else(|e| panic!("{name}: resumed run failed: {e}"))
        }
        Err(other) => panic!("{name}: checkpointed sweep failed: {other}"),
    }
}

/// The `--checkpoint-every` variant of the standard pipeline: the same
/// sweep → strash → sweep composition (aggregation mirrors
/// [`PassManager::run`]), with every sweep pass executed through
/// [`checkpointed_sweep_pass`].
fn run_pipeline_checkpointed(name: &str, aig: &netlist::Aig, every: u64) -> PipelineResult {
    let config = SweepConfig::fast().checkpoint_every(every as usize);
    let mut current = aig.clone();
    let mut aggregate = SweepReport {
        gates_before: aig.num_ands(),
        gates_after: aig.num_ands(),
        levels: aig.depth(),
        ..SweepReport::default()
    };
    let mut passes = Vec::new();
    for (index, pass) in ["sweep(stp)", "strash", "sweep(stp)"].iter().enumerate() {
        let gates_before = current.num_ands();
        if *pass == "strash" {
            let (cleaned, time) = timed(|| current.cleanup().0);
            current = cleaned;
            aggregate.gates_after = current.num_ands();
            aggregate.total_time += time;
            passes.push(PassReport {
                name: (*pass).to_string(),
                gates_before,
                gates_after: current.num_ands(),
                report: None,
                time,
                counters: Vec::new(),
            });
        } else {
            let save = (index == 0).then(|| format!("table1_{name}.ckpt"));
            let result = checkpointed_sweep_pass(name, &current, config, every, save.as_deref());
            aggregate.merge(&result.report);
            passes.push(PassReport {
                name: (*pass).to_string(),
                gates_before,
                gates_after: result.aig.num_ands(),
                report: Some(result.report),
                time: result.report.total_time,
                counters: Vec::new(),
            });
            current = result.aig;
        }
    }
    PipelineResult {
        aig: current,
        report: aggregate,
        passes,
    }
}

/// Runs the standard pipeline on one benchmark and renders its JSON row.
/// With `checkpoint_every` set, the run is the cancel→resume execution of
/// [`run_pipeline_checkpointed`], whose counters `bench_diff` then pins
/// against the uninterrupted baseline.
fn pipeline_json_row(
    name: &str,
    aig: &netlist::Aig,
    script: Option<&str>,
    checkpoint_every: Option<u64>,
) -> String {
    let run = || {
        let config = SweepConfig::fast();
        let manager = match script {
            Some(script) => PassManager::new(config)
                .with_script(script)
                .unwrap_or_else(|e| panic!("{name}: --passes script: {e}")),
            None => PassManager::new(config)
                .sweep(Engine::Stp)
                .strash()
                .sweep(Engine::Stp),
        };
        manager
            .run(aig)
            .unwrap_or_else(|e| panic!("{name}: pipeline failed: {e}"))
    };
    let outcome = match checkpoint_every {
        Some(every) => run_pipeline_checkpointed(name, aig, every),
        None => run(),
    };
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
         \"dead_skips\": {}, \"total_s\": {:.6}, \"passes\": [{}]}}",
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
        r.total_time.as_secs_f64(),
        passes.join(", ")
    )
}

/// The `--resume <file>` mode: load a checkpoint, find the benchmark whose
/// netlist fingerprint matches in the (deterministically regenerated)
/// suite, resume it to completion and print the cumulative report.
fn run_resume(path: &str, scale: Scale) -> ! {
    let checkpoint = match SweepCheckpoint::load(path) {
        Ok(checkpoint) => checkpoint,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let suite = epfl_suite(scale);
    let Some(bench) = suite.iter().find(|b| checkpoint.matches(&b.aig)) else {
        eprintln!(
            "{path}: no benchmark of the {scale:?} suite matches the checkpoint's \
             netlist fingerprint {:016x} (was the checkpoint taken at another --scale?)",
            checkpoint.fingerprint()
        );
        std::process::exit(1);
    };
    println!(
        "resuming {} from {path}: engine {}, {} SAT calls / {} candidates committed",
        bench.name,
        checkpoint.engine(),
        checkpoint.sat_calls(),
        checkpoint.committed_candidates()
    );
    let resumed = Sweeper::new(checkpoint.engine())
        .resume_from(&bench.aig, &checkpoint)
        .and_then(|session| session.run());
    match resumed {
        Ok(result) => {
            println!("resumed run finished: {}", result.report);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("{path}: resume failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = parse_scale(&args);
    if let Some(path) = arg_value(&args, "--resume") {
        run_resume(&path, scale);
    }
    let num_patterns: usize = arg_value(&args, "--patterns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096);
    let lut_k: usize = arg_value(&args, "--lut-k")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let checkpoint_every: Option<u64> = arg_value(&args, "--checkpoint-every").map(|v| {
        v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("--checkpoint-every expects a positive SAT-call count");
            std::process::exit(2);
        })
    });
    let passes_script: Option<String> = arg_value(&args, "--passes");
    // Validate the script up-front (and collect the scheduled pass names
    // for the snapshot header) instead of panicking per benchmark.
    let script_pass_names: Option<Vec<String>> =
        passes_script
            .as_deref()
            .map(|script| match stp_sweep::passes::parse_script(script) {
                Ok(parsed) => parsed.iter().map(|p| p.to_string()).collect(),
                Err(e) => {
                    eprintln!("--passes: {e}");
                    std::process::exit(2);
                }
            });
    if passes_script.is_some() && checkpoint_every.is_some() {
        eprintln!("--passes cannot be combined with --checkpoint-every");
        std::process::exit(2);
    }
    if num_patterns == 0 || threads == 0 {
        eprintln!("--patterns and --threads must be nonzero");
        std::process::exit(2);
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

    if let Some(path) = arg_value(&args, "--json") {
        // The sweeping pipeline section: per-pass reports per benchmark.
        match (&passes_script, checkpoint_every) {
            (Some(script), _) => {
                println!("\nrunning the pass script \"{script}\" per benchmark ...")
            }
            (None, Some(every)) => println!(
                "\nrunning the sweep pipeline (sweep -> strash -> sweep) per benchmark, \
                 cancelling each sweep after {every} SAT calls and resuming from its \
                 checkpoint (table1_<bench>.ckpt) ..."
            ),
            (None, None) => {
                println!(
                    "\nrunning the sweep pipeline (sweep -> strash -> sweep) per benchmark ..."
                )
            }
        }
        let pipeline_rows: Vec<String> = suite
            .iter()
            .map(|bench| {
                pipeline_json_row(
                    bench.name,
                    &bench.aig,
                    passes_script.as_deref(),
                    checkpoint_every,
                )
            })
            .collect();
        // The default-pipeline header is spelled out verbatim so the
        // checked-in `BENCH_baseline.json` stays byte-identical; scripted
        // runs record the script plus the scheduled pass names.
        let pipeline_header = match (&passes_script, &script_pass_names) {
            (Some(script), Some(names)) => {
                let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                format!(
                    "\"config\": \"fast\",\n    \"script\": \"{script}\",\n    \
                     \"passes\": [{}]",
                    names.join(", ")
                )
            }
            _ => "\"config\": \"fast\",\n    \
                  \"passes\": [\"sweep(stp)\", \"strash\", \"sweep(stp)\"]"
                .to_string(),
        };
        let document = format!(
            "{{\n  \"table\": \"table1_simulation\",\n  \"scale\": \"{scale:?}\",\n  \
             \"patterns\": {num_patterns},\n  \"lut_k\": {lut_k},\n  \"threads\": {threads},\n  \"rows\": [\n{}\n  ],\n  \
             \"geomean\": {{\"xa\": {:.3}, \"xl\": {:.3}}},\n  \
             \"paper\": {{\"xa\": 0.99, \"xl\": 7.18}},\n  \
             \"pipeline\": {{\n    {},\n    \
             \"rows\": [\n{}\n    ]\n  }}\n}}\n",
            json_rows.join(",\n"),
            geometric_mean(ta_ratios),
            geometric_mean(tl_ratios),
            pipeline_header,
            pipeline_rows.join(",\n")
        );
        std::fs::write(&path, document).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}
