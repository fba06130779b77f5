//! `stpbench` — the end-to-end benchmark of the STP SAT-sweeper.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline -q --manifest-path stpbench/Cargo.toml -- \
//!     --workload <sweep-stp|sweep-baseline|simulate-klut|sweep-seq> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up generates the workload's circuits from `--seed` and serialises
//! them to AIGER bytes (and pattern sets); it runs several times at the
//! start and again after every timed repetition, and reports the median.
//! With `--trace 0` the timed section — AIGER read, sweep (or LUT mapping
//! plus both simulators), AIGER write — repeats over the suite for
//! `--seconds`, and the end-to-end metrics are printed; `wall_s` sums each
//! circuit's fastest repetition over the suite.  With `--trace 1` one
//! untraced repetition is followed by a traced one (spans around every
//! layer call plus a timing observer) and the per-layer probes, and the
//! per-layer metrics are printed; the spans are written to
//! `.bench_trace/<workload>-seed<n>.json`.  Every output is checked by the
//! workload's oracle.  The last line of standard output is the JSON result.

mod inputs;
mod metrics;
mod oracle;
mod run;
#[cfg(test)]
mod tests;
mod trace;

use inputs::{Circuit, Workload};
use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use std::time::Instant;
use trace::median;

/// Set-up repeats at least this often, and until [`SETUP_MIN_SECONDS`] have
/// passed (at most [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPS: usize = 200;
/// After each timed repetition, set-up runs again for at least
/// 1/`SETUP_SHARE_PER_REP` of the repetition's time.
const SETUP_SHARE_PER_REP: f64 = 20.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: the generated inputs and the time it took.
fn setup_once(workload: Workload, seed: u64) -> (Vec<Circuit>, f64) {
    let started = Instant::now();
    let circuits = inputs::generate(workload, seed);
    (circuits, started.elapsed().as_secs_f64())
}

/// Generates the inputs repeatedly; returns them, the set-up times, and
/// whether every repetition produced identical inputs.
fn setup(workload: Workload, seed: u64) -> (Vec<Circuit>, Vec<f64>, bool) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<Vec<Circuit>> = None;
    let mut identical = true;
    while times.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPS)
    {
        let (circuits, time) = setup_once(workload, seed);
        times.push(time);
        match &first {
            None => first = Some(circuits),
            Some(reference) => identical &= *reference == circuits,
        }
    }
    (
        first.expect("at least one set-up repetition"),
        times,
        identical,
    )
}

fn print_metrics(metrics: &Metrics, table: &[(&'static str, &'static str)]) {
    for (name, value, unit) in metrics.table(table) {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stpbench: {e}");
            eprintln!("usage: stpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    println!(
        "stpbench: workload {}, seed {}, {} s, trace {}, single-threaded sweeps",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (circuits, mut setup_times, setup_identical) = setup(workload, args.seed);
    let mut failed = u64::from(!setup_identical);
    if !setup_identical {
        eprintln!("set-up is not deterministic: repetitions generated different inputs");
    }
    let count_failed = |kept: &[Result<run::Kept, String>]| {
        kept.iter()
            .zip(&circuits)
            .filter(|(k, c)| {
                k.as_ref()
                    .map_err(|e| eprintln!("{}: {e}", c.name))
                    .is_err()
            })
            .count() as u64
    };

    if args.trace {
        let (times, kept) = run::untraced_rep(workload, &circuits, args.seed, true);
        let kept = run::check_deferred(workload, &circuits, kept, args.seed);
        let wall: f64 = times.iter().sum();
        failed += count_failed(&kept);
        let traced = run::traced_run(workload, &circuits, args.seed, wall);
        failed += traced.failed;
        let attempted = 2 * circuits.len() as u64;
        println!("self time by span (traced run):");
        for (name, own) in traced.recorder.self_time_by_name() {
            println!("  {name:<32} {:>16.6} s", own.as_secs_f64());
        }
        if matches!(workload, Workload::SweepStp | Workload::SweepBaseline) {
            println!(
                "satsolver.replay_* replay only the UNSAT (merge) queries of each sweep, in merge order, \
                 on one fresh solver per circuit"
            );
        }
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", workload.name(), args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, traced.recorder.to_json()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("writing {}: {e}", path.display()),
        }
        println!("per-layer metrics (untraced wall_s {wall:.6} s):");
        print_metrics(&traced.metrics, PER_LAYER);
        println!(
            "{}",
            result_line(&traced.metrics, PER_LAYER, attempted, failed)
        );
        return;
    }

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Vec<Result<run::Kept, String>>> = None;
    let mut attempted = 0u64;
    loop {
        let (times, kept) = run::untraced_rep(workload, &circuits, args.seed, first.is_none());
        walls.push(times);
        attempted += circuits.len() as u64;
        match &first {
            None => first = Some(kept),
            Some(reference) => {
                // Later repetitions must reproduce the checked outputs
                // (see `Produced::digest`).
                failed += reference
                    .iter()
                    .zip(&kept)
                    .filter(|(a, b)| match (a, b) {
                        (Ok(a), Ok(b)) => a.digest != b.digest,
                        _ => true,
                    })
                    .count() as u64;
            }
        }
        // Set up again after every repetition, for at least a twentieth of
        // its time: the host's speed drifts over tens of seconds, so the
        // set-up samples must cover the whole run, not only its start.
        let rep_seconds: f64 = walls.last().map_or(0.0, |t| t.iter().sum());
        let mut spent = 0.0;
        while spent == 0.0 || spent < rep_seconds / SETUP_SHARE_PER_REP {
            let (again, time) = setup_once(workload, args.seed);
            setup_times.push(time);
            spent += time;
            if again != circuits {
                eprintln!("set-up is not deterministic: a repetition generated different inputs");
                failed += 1;
            }
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    // Peak memory of set-up and the timed section, before the oracles run.
    let peak_rss = peak_rss_mb();
    let first = run::check_deferred(
        workload,
        &circuits,
        first.expect("at least one repetition"),
        args.seed,
    );
    failed += count_failed(&first);
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_times));
    // On a shared host, interference only ever adds time: each circuit
    // counts with its fastest repetition, and wall_s sums those over the
    // suite.
    let per_circuit: Vec<f64> = (0..circuits.len())
        .map(|c| walls.iter().map(|t| t[c]).fold(f64::INFINITY, f64::min))
        .collect();
    let fastest: f64 = per_circuit.iter().sum();
    m.set("wall_s", fastest);
    println!("fastest repetition per circuit (s):");
    for (circuit, time) in circuits.iter().zip(&per_circuit) {
        println!("  {:<32} {time:>16.6}", circuit.name);
    }
    m.set(
        "nodes_after",
        first.iter().flatten().map(|k| k.nodes_after).sum::<u64>() as f64,
    );
    m.set("pass_ratio", 1.0 - failed as f64 / attempted as f64);
    m.set("peak_rss_mb", peak_rss);
    let totals: Vec<f64> = walls.iter().map(|t| t.iter().sum()).collect();
    println!(
        "{} repetitions of the timed section, suite time each (s): {totals:?}",
        walls.len()
    );
    println!(
        "median repetition {:.6} s, sum of per-circuit fastest {fastest:.6} s",
        median(&totals)
    );
    println!("{} set-ups, each (s): {setup_times:?}", setup_times.len());
    println!("end-to-end metrics:");
    print_metrics(&m, END_TO_END);
    println!("{}", result_line(&m, END_TO_END, attempted, failed));
}
