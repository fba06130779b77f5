//! # bench — the table-regeneration harness
//!
//! Binaries (run with `cargo run -p bench --release --bin <name>`):
//!
//! * `table1` — regenerates Table I (circuit-simulation runtime on the
//!   EPFL-analog suite: bitwise baseline vs. STP, AIG and 6-LUT networks).
//! * `table2` — regenerates Table II (SAT-sweeping: SAT calls, simulation
//!   time and total runtime of the baseline FRAIG engine vs. the STP
//!   engine on the HWMCC/IWLS-analog suite).
//! * `table_seq` — the sequential-sweeping harness (latch merging by
//!   ternary analysis + k-step induction on machines with planted
//!   sequential redundancy, every sweep verified by the BMC oracle).
//! * `ablation` — the design-choice ablations
//!   (window refinement on/off, SAT-guided patterns on/off, window limit).
//! * `bench_diff` — the CI regression gate: compares a fresh `table1 --json`
//!   snapshot against the checked-in `BENCH_baseline.json` (deterministic
//!   counters exactly, time-like fields within a tolerance).
//!
//! This library exposes the small amount of shared measurement machinery
//! and the snapshot [`json`] reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::time::{Duration, Instant};

/// Times a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Geometric mean of a sequence of positive values; zero entries are clamped
/// to a small epsilon so that a single zero does not collapse the mean (the
/// paper's tables do the same implicitly by reporting two decimal places).
pub fn geometric_mean<I: IntoIterator<Item = f64>>(values: I) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        let v = v.max(1e-9);
        log_sum += v.ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// Parses a `--key value` style command-line option.
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Parses the `--scale` option into a [`workloads::Scale`].
pub fn parse_scale(args: &[String]) -> workloads::Scale {
    match arg_value(args, "--scale").as_deref() {
        Some("tiny") => workloads::Scale::Tiny,
        Some("large") => workloads::Scale::Large,
        _ => workloads::Scale::Small,
    }
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(std::iter::empty()), 0.0);
        assert!(geometric_mean([0.0, 4.0]) > 0.0);
    }

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--scale", "tiny", "--patterns", "128"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--patterns"), Some("128".to_string()));
        assert_eq!(arg_value(&args, "--missing"), None);
        assert_eq!(parse_scale(&args), workloads::Scale::Tiny);
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
