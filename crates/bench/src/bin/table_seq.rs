//! The sequential-sweeping harness: latch merging on machines with planted
//! sequential redundancy (duplicate and complemented-duplicate latches,
//! reachable constants, product-machine miters).
//!
//! For every benchmark the harness reports the input machine (real PIs,
//! latches, gates, levels), the swept sizes, the candidate/proof counters
//! of the sequential engine (ternary constants, induction refutations,
//! undetermined pairs) and the SAT/simulation/total wall-clock.  Every
//! sweep is verified against the BMC sequential-equivalence oracle unless
//! `--no-verify` is passed.
//!
//! Usage: `cargo run -p bench --release --bin table_seq -- [--scale tiny|small|large] [--depth K] [--patterns N] [--no-verify] [--json PATH]`
//!
//! With `--json PATH` the measured numbers are written as a JSON snapshot
//! (the format of the checked-in `BENCH_baseline_seq.json`, gated in CI by
//! `bench_diff`).

use bench::{secs, Args};
use netlist::Aig;
use stp_sweep::{bmc_sec, Engine, SweepConfig, SweepResult, Sweeper};
use workloads::sequential::{random_sequential_aig, sequential_miter, with_duplicate_latches};
use workloads::Scale;

const USAGE: &str = "table_seq [--scale tiny|small|large] [--depth K] [--patterns N] \
                     [--no-verify] [--json PATH]";
const ORACLE_FRAMES: usize = 5;
const ORACLE_CONFLICTS: u64 = 200_000;

/// The sequential benchmark suite: duplicate-latch workloads (half of them
/// with `X` initial values in the base machine) plus self-miters, all
/// seeded and scale-parametric.
fn seq_suite(scale: Scale) -> Vec<(String, Aig)> {
    let f = scale.factor();
    let mut suite = Vec::new();
    for (i, &seed) in [3u64, 17, 42, 64, 99].iter().enumerate() {
        let base = random_sequential_aig(3 + f, 4 * f, 4 + f, i % 2 == 1, seed);
        let workload = with_duplicate_latches(&base, 2 * f);
        suite.push((format!("dup_s{seed}"), workload.aig));
    }
    for &seed in &[7u64, 23] {
        let base = random_sequential_aig(3 + f, 3 * f, 4, false, seed);
        suite.push((format!("miter_s{seed}"), sequential_miter(&base, &base)));
    }
    suite
}

fn sweep(aig: &Aig, config: SweepConfig) -> SweepResult {
    Sweeper::new(Engine::Stp)
        .config(config)
        .run(aig)
        .expect("valid sequential sweep config")
}

fn main() {
    let args = Args::from_env(USAGE);
    let scale = args.scale();
    let verify = !args.switch("--no-verify");
    let depth: usize = args.value("--depth", 1);
    let num_patterns: usize = args.value("--patterns", 64);
    if depth == 0 || num_patterns == 0 {
        args.fail("--depth and --patterns must be nonzero");
    }

    println!(
        "Sequential sweeping: latch correspondence by ternary analysis + {depth}-step induction"
    );
    println!("scale = {scale:?}, initial patterns = {num_patterns}, verify = {verify}\n");
    println!(
        "{:<12} {:>4} {:>5} {:>6} | {:>6} {:>5} | {:>5} {:>5} {:>4} {:>4} | {:>6} {:>6} | {:>8} {:>8}",
        "benchmark", "PI", "latch", "gates", "result", "latch", "cand", "const", "ref", "und",
        "sSAT", "tSAT", "sat", "total"
    );

    let config = SweepConfig::sequential(depth).with_patterns(num_patterns);
    let mut json_rows = Vec::new();

    for (name, aig) in seq_suite(scale) {
        let result = sweep(&aig, config);
        if verify {
            let verdict = bmc_sec(&aig, &result.aig, ORACLE_FRAMES, ORACLE_CONFLICTS);
            assert!(
                verdict.equivalent && !verdict.undetermined,
                "{name}: the BMC oracle rejected the sweep: {verdict:?}"
            );
        }

        let r = &result.report;
        let real_pis = aig.num_inputs() - aig.num_latches();
        json_rows.push(format!(
            "    {{\"benchmark\": \"{name}\", \"pi\": {real_pis}, \
             \"latches\": {}, \"gates\": {}, \"levels\": {}, \
             \"result\": {}, \"latches_after\": {}, \
             \"seq_candidates\": {}, \"seq_ternary_constants\": {}, \
             \"seq_refuted\": {}, \"seq_undet\": {}, \"ternary_iterations\": {}, \
             \"ssat\": {}, \"tsat\": {}, \"merges\": {}, \"constants\": {}, \
             \"sim_s\": {:.6}, \"sat_s\": {:.6}, \"total_s\": {:.6}}}",
            r.seq_latches_before,
            r.gates_before,
            r.levels,
            r.gates_after,
            r.seq_latches_after,
            r.seq_candidates,
            r.seq_ternary_constants,
            r.seq_induction_refuted,
            r.seq_induction_undet,
            r.ternary_iterations,
            r.sat_calls_sat,
            r.sat_calls_total,
            r.merges,
            r.constants,
            r.simulation_time.as_secs_f64(),
            r.sat_time.as_secs_f64(),
            r.total_time.as_secs_f64(),
        ));

        println!(
            "{:<12} {:>4} {:>5} {:>6} | {:>6} {:>5} | {:>5} {:>5} {:>4} {:>4} | {:>6} {:>6} | {:>8} {:>8}",
            name,
            real_pis,
            r.seq_latches_before,
            r.gates_before,
            r.gates_after,
            r.seq_latches_after,
            r.seq_candidates,
            r.seq_ternary_constants,
            r.seq_induction_refuted,
            r.seq_induction_undet,
            r.sat_calls_sat,
            r.sat_calls_total,
            secs(r.sat_time),
            secs(r.total_time),
        );
    }

    if let Some(path) = args.text("--json") {
        let document = format!(
            "{{\n  \"table\": \"table_seq_sequential\",\n  \"scale\": \"{scale:?}\",\n  \
             \"patterns\": {num_patterns},\n  \"seq_depth\": {depth},\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        std::fs::write(path, document).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("\nwrote {path}");
    }
}
