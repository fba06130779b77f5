//! Ablation study of the STP sweeper's design choices:
//!
//! * exhaustive window refinement on/off;
//! * SAT-guided initial patterns on/off;
//! * constant substitution on/off;
//! * window size limit (cf. the paper's `limit = log₂ n` choice).
//!
//! Usage: `cargo run -p bench --release --bin ablation -- [--scale tiny|small|large]`

use bench::{geometric_mean, secs, Args};
use stp_sweep::{Engine, SweepConfig, Sweeper};
use workloads::hwmcc_suite;

struct Variant {
    name: &'static str,
    config: SweepConfig,
}

fn variants() -> Vec<Variant> {
    let base = SweepConfig::default();
    vec![
        Variant {
            name: "full (paper)",
            config: base,
        },
        Variant {
            name: "no window refinement",
            config: SweepConfig {
                window_refinement: false,
                ..base
            },
        },
        Variant {
            name: "no SAT-guided patterns",
            config: SweepConfig {
                sat_guided_patterns: false,
                ..base
            },
        },
        Variant {
            name: "no constant substitution",
            config: SweepConfig {
                constant_substitution: false,
                ..base
            },
        },
        Variant {
            name: "window limit 6",
            config: SweepConfig {
                window_limit: 6,
                ..base
            },
        },
        Variant {
            name: "window limit 16",
            config: SweepConfig {
                window_limit: 16,
                ..base
            },
        },
    ]
}

fn main() {
    let scale = Args::from_env("ablation [--scale tiny|small|large]").scale();
    let suite = hwmcc_suite(scale);
    println!("Ablation of the STP sweeper on the HWMCC/IWLS-analog suite (scale = {scale:?})\n");
    println!(
        "{:<26} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "variant", "merges", "sat SAT", "tot SAT", "sim-only", "sim time", "total time"
    );

    for variant in variants() {
        let mut merges = 0usize;
        let mut sat_sat = 0u64;
        let mut sat_total = 0u64;
        let mut sim_only = 0u64;
        let mut sim_time = Vec::new();
        let mut total_time = Vec::new();
        for bench in &suite {
            let result = Sweeper::new(Engine::Stp)
                .config(variant.config)
                .run(&bench.aig)
                .expect("ablation variants are valid configs");
            let r = result.report;
            merges += r.merges + r.constants;
            sat_sat += r.sat_calls_sat;
            sat_total += r.sat_calls_total;
            sim_only += r.proved_by_simulation + r.disproved_by_simulation;
            sim_time.push(r.simulation_time.as_secs_f64());
            total_time.push(r.total_time.as_secs_f64());
        }
        println!(
            "{:<26} {:>9} {:>9} {:>9} {:>9} {:>9}s {:>9}s",
            variant.name,
            merges,
            sat_sat,
            sat_total,
            sim_only,
            secs(std::time::Duration::from_secs_f64(sim_time.iter().sum())),
            secs(std::time::Duration::from_secs_f64(total_time.iter().sum())),
        );
        let _ = geometric_mean(total_time);
    }
}
