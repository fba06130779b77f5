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
//! * `bench_diff` — the CI regression gate: compares a fresh `table1`,
//!   `table2` or `table_seq` JSON snapshot against its checked-in baseline
//!   (`BENCH_baseline.json`, `BENCH_baseline_dc2.json` for a `table1
//!   --passes "dc2(2)"` snapshot, `BENCH_baseline_table2.json`,
//!   `BENCH_baseline_seq.json`): deterministic counters exactly, time-like
//!   fields within a tolerance.
//!
//! This library exposes the small amount of shared measurement machinery,
//! the command-line reader [`Args`] and the snapshot [`json`] reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::str::FromStr;
use std::time::{Duration, Instant};
use workloads::Scale;

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

/// A bench binary's command line, checked against its usage line: each
/// `[--flag VALUE]` of the usage line takes a value, each `[--flag]` none,
/// and each `<NAME>` is a positional argument.
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, Option<String>)>,
    /// The positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// [`Args::parse`] of the process's arguments, ending the process on
    /// an error as [`Args::fail`] does.
    pub fn from_env(usage: &'static str) -> Args {
        let args = std::env::args().skip(1).collect();
        Args::parse(usage, args).unwrap_or_else(|e| usage_error(usage, &e))
    }

    /// Parses `args` against `usage`: an unknown flag, a flag without its
    /// value or a wrong number of positional arguments is an error.
    pub fn parse(usage: &'static str, args: Vec<String>) -> Result<Args, String> {
        let (mut flags, mut positional, mut args) = (Vec::new(), Vec::new(), args.into_iter());
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                positional.push(arg);
                continue;
            }
            let missing = || format!("{arg} expects a value");
            let mut declared = usage.split_whitespace().map(|w| w.trim_start_matches('['));
            let value = match declared.find(|w| w.trim_end_matches(']') == arg) {
                None => return Err(format!("unknown flag {arg}")),
                Some(word) if word.ends_with(']') => None,
                Some(_) => Some(args.next().ok_or_else(missing)?),
            };
            flags.push((arg, value));
        }
        let expected = usage.matches(" <").count();
        if positional.len() != expected {
            return Err(format!("expected {expected} positional arguments"));
        }
        Ok(Args {
            usage,
            flags,
            positional,
        })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of `flag`, the first one if it was given more than once.
    pub fn text(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| f == flag)?;
        value.as_deref()
    }

    /// The value of `flag` parsed as a `T`, or `default` without the flag;
    /// a value that does not parse ends the process.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> T {
        let Some(text) = self.text(flag) else {
            return default;
        };
        text.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag}: cannot parse `{text}`")))
    }

    /// The `--scale` (`small` without the flag), ending the process on an
    /// unknown scale.
    pub fn scale(&self) -> Scale {
        parse_scale(self.text("--scale").unwrap_or("small")).unwrap_or_else(|e| self.fail(&e))
    }

    /// Ends the process with `message`, the usage line and exit code 2.
    pub fn fail(&self, message: &str) -> ! {
        usage_error(self.usage, message)
    }
}

fn usage_error(usage: &str, message: &str) -> ! {
    eprintln!("{message}\nusage: {usage}");
    std::process::exit(2)
}

/// Parses a `--scale` value.
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "large" => Ok(Scale::Large),
        _ => Err(format!("unknown scale `{name}`")),
    }
}

/// Formats a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// The snapshot digest of a network: FNV-1a over its binary AIGER bytes,
/// cut to 32 bits so that the snapshot reader's `f64` holds it exactly.
/// `bench_diff` compares it exactly, so a snapshot pins the output bytes
/// and not only their counts.
pub fn aiger_digest(aig: &netlist::Aig) -> u32 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in netlist::aiger::write_aiger_binary_bytes(aig) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash as u32
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
    fn args_are_checked_against_the_usage_line() {
        let usage = "bin <in> [--scale tiny|small|large] [--patterns N] [--quiet]";
        let parse = |line: &str| Args::parse(usage, line.split(' ').map(String::from).collect());
        let args = parse("--scale tiny in.json --patterns 128 --quiet").expect("parses");
        assert_eq!(args.positional, ["in.json"]);
        assert_eq!(args.scale(), Scale::Tiny);
        assert_eq!(args.value("--patterns", 7), 128);
        assert!(args.switch("--quiet"));
        let defaults = parse("in.json").expect("parses");
        assert_eq!(defaults.scale(), Scale::Small);
        assert_eq!(defaults.value("--patterns", 7), 7);
        assert!(!defaults.switch("--quiet"));
        for (line, error) in [
            ("in.json --seed 6", "unknown flag --seed"),
            ("in.json --patterns", "--patterns expects a value"),
            ("in.json extra", "expected 1 positional arguments"),
        ] {
            assert!(parse(line).is_err_and(|e| e.contains(error)), "{line}");
        }
    }

    #[test]
    fn parse_scale_refuses_unknown_scales() {
        assert_eq!(parse_scale("tiny"), Ok(Scale::Tiny));
        assert_eq!(parse_scale("large"), Ok(Scale::Large));
        assert!(parse_scale("tinny").is_err_and(|e| e.contains("tinny")));
    }

    #[test]
    fn timed_returns_value() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
