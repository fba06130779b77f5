//! The CI bench-regression gate.
//!
//! Compares a fresh `table1 --json`, `table2 --json` or `table_seq --json`
//! snapshot against the matching checked-in baseline
//! (`BENCH_baseline.json` or, for `table1 --passes "dc2(2)"`,
//! `BENCH_baseline_dc2.json` / `BENCH_baseline_table2.json` /
//! `BENCH_baseline_seq.json`) — the snapshot kind is detected from the
//! document's `"table"` field, and all kinds go through one row comparison:
//!
//! * **deterministic counters** (gate counts, SAT calls, merges, constants,
//!   resimulation counts, candidates skipped as dead) and the digest of
//!   each swept network's AIGER bytes must match the baseline exactly —
//!   the engines are seeded and deterministic, so any drift is a real
//!   behaviour change;
//! * **time-like fields** (per-benchmark wall-clock, the Table I speed-up
//!   geomeans) only fail when they *regress* beyond a tolerance (default
//!   ±30%, `--time-tolerance 0.3`); getting faster never fails.
//!
//! Usage:
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json> [--time-tolerance F] [--time-floor S] [--skip-times]
//! ```
//!
//! Exits 0 when the fresh snapshot is no worse than the baseline, 1 on any
//! regression, 2 on usage/parse errors.  Rows whose baseline wall-clock is
//! below `--time-floor` seconds (default 0.005) are exempt from the time
//! check — sub-millisecond measurements are dominated by scheduler noise,
//! not by the code under test.  `--skip-times` restricts the check to the
//! deterministic counters entirely (useful on machines whose speed is not
//! comparable to the baseline host).

use bench::json::{parse, Json};
use bench::Args;

/// Collects human-readable regressions.
#[derive(Default)]
struct Findings {
    failures: Vec<String>,
    checks: usize,
}

impl Findings {
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(message());
        }
    }
}

/// What the gate compares in one snapshot kind.
struct Kind {
    /// The path to the row array: `["rows"]`, or `["pipeline", "rows"]`
    /// for table1.
    rows: &'static [&'static str],
    /// The run-parameter header fields; the two snapshots must describe
    /// the same workload to be comparable.
    header: &'static [&'static str],
    /// The deterministic per-benchmark counters; any drift fails.
    exact: &'static [&'static str],
    /// The time-like per-benchmark fields, gated with the tolerance and
    /// floor.
    time: &'static [&'static str],
    /// The baseline file to refresh when a benchmark is new.
    refresh: &'static str,
}

/// table1 snapshots: the per-benchmark pipeline rows (the default
/// pipeline or a `--passes` script).
const TABLE1: Kind = Kind {
    rows: &["pipeline", "rows"],
    header: &["patterns", "lut_k", "threads"],
    exact: &[
        "gates_before",
        "gates_after",
        "sat_calls",
        "merges",
        "constants",
        "resim_events",
        "resim_nodes",
        "resim_skipped",
        "dead_skips",
        "digest",
    ],
    time: &["total_s"],
    refresh: "BENCH_baseline.json or BENCH_baseline_dc2.json",
};

/// table2 snapshots: both engines' sweeping counters per benchmark.
const TABLE2: Kind = Kind {
    rows: &["rows"],
    header: &["patterns"],
    exact: &[
        "gates",
        "levels",
        "result_b",
        "result_s",
        "ssat_b",
        "tsat_b",
        "merges_b",
        "constants_b",
        "dead_skips_b",
        "digest_b",
        "ssat_s",
        "tsat_s",
        "merges_s",
        "constants_s",
        "dead_skips_s",
        "digest_s",
    ],
    time: &["total_b_s", "total_s_s"],
    refresh: "BENCH_baseline_table2.json",
};

/// `table_seq --json` sequential-sweeping snapshots.
const TABLE_SEQ: Kind = Kind {
    rows: &["rows"],
    header: &["patterns", "seq_depth"],
    exact: &[
        "latches",
        "gates",
        "levels",
        "result",
        "latches_after",
        "seq_candidates",
        "seq_ternary_constants",
        "seq_refuted",
        "seq_undet",
        "ternary_iterations",
        "ssat",
        "tsat",
        "merges",
        "constants",
        "digest",
    ],
    time: &["total_s"],
    refresh: "BENCH_baseline_seq.json",
};

/// The deterministic fields of one entry of a pipeline row's `"passes"`
/// array; compared exactly whenever the baseline records the array (both
/// the default pipeline and `--passes` script snapshots do).
const PASS_EXACT_FIELDS: &[&str] = &["gates_before", "gates_after", "sat_calls", "merges"];

fn num_field(row: &Json, key: &str) -> Result<f64, String> {
    row.num(key)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Routes to the comparison matching the snapshot kind (the `"table"`
/// field); documents without one are treated as table1 snapshots.
fn compare(
    baseline: &Json,
    fresh: &Json,
    tolerance: f64,
    time_floor: f64,
    skip_times: bool,
) -> Findings {
    let base_kind = baseline.str("table").unwrap_or("table1_simulation");
    let fresh_kind = fresh.str("table").unwrap_or("table1_simulation");
    if base_kind != fresh_kind {
        let mut findings = Findings::default();
        findings.check(false, || {
            format!("snapshot kinds differ: baseline {base_kind:?} vs fresh {fresh_kind:?}")
        });
        return findings;
    }
    let (kind, table1) = match base_kind {
        "table2_sweeping" => (&TABLE2, false),
        "table_seq_sequential" => (&TABLE_SEQ, false),
        _ => (&TABLE1, true),
    };
    let mut findings = compare_rows(baseline, fresh, kind, tolerance, time_floor, skip_times);
    // Table I geomeans: dimensionless speed-ups, higher is better.
    if table1 && !skip_times {
        for &key in &["xa", "xl"] {
            let base = baseline.get("geomean").and_then(|g| g.num(key));
            let new = fresh.get("geomean").and_then(|g| g.num(key));
            if let (Some(base), Some(new)) = (base, new) {
                findings.check(new >= base / (1.0 + tolerance), || {
                    format!(
                        "geomean {key} regressed beyond {:.0}%: baseline {base:.3} vs fresh {new:.3}",
                        tolerance * 100.0
                    )
                });
            }
        }
    }
    findings
}

/// The row array of a snapshot of `kind` (empty when it has none).
fn rows<'a>(doc: &'a Json, kind: &Kind) -> &'a [Json] {
    kind.rows
        .iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// Compares the rows of two snapshots of one kind: the scale and header
/// must agree, every baseline row must have a fresh row of the same name
/// whose counters match exactly (its `passes` too, when the baseline row
/// has them) and whose times are within the tolerance/floor, and no fresh
/// row may be missing from the baseline.
fn compare_rows(
    baseline: &Json,
    fresh: &Json,
    kind: &Kind,
    tolerance: f64,
    time_floor: f64,
    skip_times: bool,
) -> Findings {
    let mut findings = Findings::default();
    findings.check(baseline.str("scale") == fresh.str("scale"), || {
        format!(
            "workload scale differs: baseline {:?} vs fresh {:?}",
            baseline.str("scale"),
            fresh.str("scale")
        )
    });
    for &key in kind.header {
        let base = baseline.num(key).unwrap_or(1.0);
        let new = fresh.num(key).unwrap_or(1.0);
        findings.check(base == new, || {
            format!("run parameter '{key}' differs: baseline {base} vs fresh {new}")
        });
    }
    let (base_rows, fresh_rows) = (rows(baseline, kind), rows(fresh, kind));
    findings.check(!base_rows.is_empty(), || "baseline has no rows".into());
    for base_row in base_rows {
        let Some(name) = base_row.str("benchmark") else {
            findings.check(false, || "baseline row without a name".into());
            continue;
        };
        let Some(fresh_row) = fresh_rows.iter().find(|r| r.str("benchmark") == Some(name)) else {
            findings.check(false, || format!("{name}: missing from the fresh snapshot"));
            continue;
        };
        for &key in kind.exact {
            match (num_field(base_row, key), num_field(fresh_row, key)) {
                (Ok(base), Ok(new)) => findings.check(base == new, || {
                    format!("{name}: {key} changed: baseline {base} vs fresh {new}")
                }),
                (Err(e), _) | (_, Err(e)) => findings.check(false, || format!("{name}: {e}")),
            }
        }
        compare_passes(&mut findings, name, base_row, fresh_row);
        if skip_times {
            continue;
        }
        for &key in kind.time {
            if let (Ok(base), Ok(new)) = (num_field(base_row, key), num_field(fresh_row, key)) {
                // Sub-floor rows are noise-dominated; only gate rows whose
                // baseline time is large enough to measure a real ratio.
                findings.check(base < time_floor || new <= base * (1.0 + tolerance), || {
                    format!(
                        "{name}: {key} regressed beyond {:.0}%: \
                         baseline {base:.6}s vs fresh {new:.6}s",
                        tolerance * 100.0
                    )
                });
            }
        }
    }
    for fresh_row in fresh_rows {
        let name = fresh_row.str("benchmark").unwrap_or("<unnamed>");
        findings.check(
            base_rows.iter().any(|r| r.str("benchmark") == Some(name)),
            || format!("{name}: not in the baseline (refresh {})", kind.refresh),
        );
    }
    findings
}

/// Compares the per-pass entries of one pipeline row exactly: the pass
/// sequence (names, in order), each pass's gate counts and deterministic
/// counters must all match the baseline.  Pass wall-clock (`time_s`) is
/// deliberately not gated — the row-level `total_s` covers time.
fn compare_passes(findings: &mut Findings, name: &str, base_row: &Json, fresh_row: &Json) {
    let Some(base_passes) = base_row.get("passes").and_then(Json::as_arr) else {
        return;
    };
    let empty: Vec<Json> = Vec::new();
    let fresh_passes = fresh_row
        .get("passes")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    findings.check(base_passes.len() == fresh_passes.len(), || {
        format!(
            "{name}: pass count changed: baseline {} vs fresh {}",
            base_passes.len(),
            fresh_passes.len()
        )
    });
    for (index, (base, fresh)) in base_passes.iter().zip(fresh_passes).enumerate() {
        let pass = base.str("name").unwrap_or("<unnamed>");
        findings.check(base.str("name") == fresh.str("name"), || {
            format!(
                "{name}: pass {index} changed: baseline {pass:?} vs fresh {:?}",
                fresh.str("name").unwrap_or("<unnamed>")
            )
        });
        for &key in PASS_EXACT_FIELDS {
            match (num_field(base, key), num_field(fresh, key)) {
                (Ok(base), Ok(new)) => findings.check(base == new, || {
                    format!("{name}: pass {pass}: {key} changed: baseline {base} vs fresh {new}")
                }),
                (Err(e), _) | (_, Err(e)) => {
                    findings.check(false, || format!("{name}: pass {pass}: {e}"))
                }
            }
        }
        // Pass counters (scripted snapshots) are emitted in a deterministic
        // order, so object equality is the exact-match check.
        match (base.get("counters"), fresh.get("counters")) {
            (None, None) => {}
            (Some(base_counters), Some(fresh_counters)) => {
                findings.check(base_counters == fresh_counters, || {
                    format!("{name}: pass {pass}: counters changed: baseline {base_counters:?} vs fresh {fresh_counters:?}")
                })
            }
            (base_counters, _) => findings.check(false, || {
                format!(
                    "{name}: pass {pass}: counters {} the fresh snapshot",
                    if base_counters.is_some() {
                        "missing from"
                    } else {
                        "unexpected in"
                    }
                )
            }),
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn main() {
    let args = Args::from_env(
        "bench_diff <baseline.json> <fresh.json> [--time-tolerance F] [--time-floor S] \
         [--skip-times]",
    );
    let positional = &args.positional;
    let tolerance: f64 = args.value("--time-tolerance", 0.30);
    let time_floor: f64 = args.value("--time-floor", 0.005);
    let skip_times = args.switch("--skip-times");

    let (baseline, fresh) = match (load(&positional[0]), load(&positional[1])) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(2);
        }
    };

    let findings = compare(&baseline, &fresh, tolerance, time_floor, skip_times);
    if findings.failures.is_empty() {
        println!(
            "bench_diff: OK — {} checks against {} (time tolerance {:.0}%{})",
            findings.checks,
            positional[0],
            tolerance * 100.0,
            if skip_times { ", times skipped" } else { "" }
        );
    } else {
        eprintln!(
            "bench_diff: {} regression(s) against {}:",
            findings.failures.len(),
            positional[0]
        );
        for failure in &findings.failures {
            eprintln!("  - {failure}");
        }
        eprintln!(
            "if the change is intentional, refresh the baseline: \
             cargo run -p bench --release --bin table1 -- --json BENCH_baseline.json \
             (or: --bin table1 -- --json BENCH_baseline_dc2.json --passes \"dc2(2)\", \
             or: --bin table2 -- --scale tiny --json BENCH_baseline_table2.json, \
             or: --bin table_seq -- --scale tiny --json BENCH_baseline_seq.json)"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(total_s: f64, sat_calls: u64, xl: f64) -> Json {
        snapshot_with(total_s, sat_calls, xl, 7, 12345)
    }

    fn snapshot_with(total_s: f64, sat_calls: u64, xl: f64, dead_skips: u64, digest: u32) -> Json {
        parse(&format!(
            r#"{{"table": "table1_simulation", "scale": "Small", "patterns": 4096,
                "lut_k": 6, "threads": 1,
                "geomean": {{"xa": 0.4, "xl": {xl}}},
                "pipeline": {{"rows": [
                  {{"benchmark": "adder", "gates_before": 345, "gates_after": 345,
                    "sat_calls": {sat_calls}, "merges": 0, "constants": 0,
                    "resim_events": 0, "resim_nodes": 0, "resim_skipped": 0,
                    "dead_skips": {dead_skips}, "digest": {digest}, "total_s": {total_s}}}
                ]}}}}"#
        ))
        .unwrap()
    }

    fn table2_snapshot(total_s: f64, ssat_s: u64, merges_s: u64) -> Json {
        table2_snapshot_with_skips(total_s, ssat_s, merges_s, 11)
    }

    fn table2_snapshot_with_skips(
        total_s: f64,
        ssat_s: u64,
        merges_s: u64,
        dead_skips_s: u64,
    ) -> Json {
        parse(&format!(
            r#"{{"table": "table2_sweeping", "scale": "Tiny", "patterns": 256,
                "rows": [
                  {{"benchmark": "6s100", "pi": 24, "po": 40, "levels": 12,
                    "gates": 600, "result_b": 510, "result_s": 500,
                    "ssat_b": 40, "tsat_b": 90, "merges_b": 30, "constants_b": 2,
                    "dead_skips_b": 9, "digest_b": 1,
                    "ssat_s": {ssat_s}, "tsat_s": 60, "merges_s": {merges_s},
                    "constants_s": 2, "dead_skips_s": {dead_skips_s}, "digest_s": 2,
                    "sim_b_s": 0.001, "sim_s_s": 0.002,
                    "total_b_s": 0.040, "total_s_s": {total_s}}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snapshot(0.01, 3, 40.0);
        let findings = compare(&base, &base, 0.30, 0.0, false);
        assert!(findings.failures.is_empty(), "{:?}", findings.failures);
        assert!(findings.checks > 0);
    }

    #[test]
    fn count_drift_fails_even_within_tolerance() {
        let base = snapshot(0.01, 3, 40.0);
        let fresh = snapshot(0.01, 4, 40.0);
        let findings = compare(&base, &fresh, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("sat_calls")));
        let skipped = snapshot_with(0.01, 3, 40.0, 8, 12345);
        let findings = compare(&base, &skipped, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("dead_skips")));
        // Equal counts with other output bytes fail too.
        let rewired = snapshot_with(0.01, 3, 40.0, 7, u32::MAX);
        let findings = compare(&base, &rewired, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("digest")));
    }

    #[test]
    fn slowdown_beyond_tolerance_fails_but_speedup_passes() {
        let base = snapshot(0.010, 3, 40.0);
        let slow = snapshot(0.014, 3, 40.0);
        let fast = snapshot(0.001, 3, 40.0);
        assert!(!compare(&base, &slow, 0.30, 0.0, false).failures.is_empty());
        assert!(compare(&base, &fast, 0.30, 0.0, false).failures.is_empty());
        // --skip-times ignores the slowdown.
        assert!(compare(&base, &slow, 0.30, 0.0, true).failures.is_empty());
    }

    #[test]
    fn sub_floor_rows_are_exempt_from_the_time_check() {
        // A 3x slowdown on a 2 ms row: noise-dominated, below the 5 ms
        // floor, so it passes — but the same row fails with the floor at 0.
        let base = snapshot(0.002, 3, 40.0);
        let slow = snapshot(0.006, 3, 40.0);
        assert!(compare(&base, &slow, 0.30, 0.005, false)
            .failures
            .is_empty());
        assert!(!compare(&base, &slow, 0.30, 0.0, false).failures.is_empty());
    }

    #[test]
    fn geomean_speedup_loss_fails() {
        let base = snapshot(0.01, 3, 40.0);
        let fresh = snapshot(0.01, 3, 20.0);
        let findings = compare(&base, &fresh, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("geomean xl")));
    }

    #[test]
    fn table2_snapshots_gate_counters_exactly_and_times_with_tolerance() {
        let base = table2_snapshot(0.050, 5, 25);
        // Identical snapshots pass.
        assert!(compare(&base, &base, 0.30, 0.0, false).failures.is_empty());
        // A counter drift fails even when times are fine.
        let drifted = table2_snapshot(0.050, 6, 25);
        let findings = compare(&base, &drifted, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("ssat_s")));
        let merged = table2_snapshot(0.050, 5, 26);
        let findings = compare(&base, &merged, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("merges_s")));
        let skipped = table2_snapshot_with_skips(0.050, 5, 25, 12);
        let findings = compare(&base, &skipped, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("dead_skips_s")));
        // A slowdown beyond tolerance fails; a speedup passes; the floor and
        // --skip-times exempt it.
        let slow = table2_snapshot(0.080, 5, 25);
        assert!(!compare(&base, &slow, 0.30, 0.0, false).failures.is_empty());
        assert!(compare(&base, &slow, 0.30, 0.1, false).failures.is_empty());
        assert!(compare(&base, &slow, 0.30, 0.0, true).failures.is_empty());
        let fast = table2_snapshot(0.010, 5, 25);
        assert!(compare(&base, &fast, 0.30, 0.0, false).failures.is_empty());
    }

    fn seq_snapshot(total_s: f64, latches_after: u64, refuted: u64) -> Json {
        parse(&format!(
            r#"{{"table": "table_seq_sequential", "scale": "Tiny", "patterns": 64,
                "seq_depth": 1,
                "rows": [
                  {{"benchmark": "dup_s3", "pi": 4, "latches": 9, "gates": 60,
                    "levels": 8, "result": 40, "latches_after": {latches_after},
                    "seq_candidates": 5, "seq_ternary_constants": 1,
                    "seq_refuted": {refuted}, "seq_undet": 0,
                    "ternary_iterations": 2,
                    "ssat": 0, "tsat": 10, "merges": 4, "constants": 1, "digest": 3,
                    "sim_s": 0.001, "sat_s": 0.002, "total_s": {total_s}}}
                ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn table_seq_snapshots_gate_counters_exactly_and_times_with_tolerance() {
        let base = seq_snapshot(0.050, 4, 0);
        assert!(compare(&base, &base, 0.30, 0.0, false).failures.is_empty());
        // Any sequential-counter drift fails: a surviving latch...
        let drifted = seq_snapshot(0.050, 5, 0);
        let findings = compare(&base, &drifted, 0.30, 0.0, false);
        assert!(findings
            .failures
            .iter()
            .any(|f| f.contains("latches_after")));
        // ...or a refuted induction proof.
        let refuted = seq_snapshot(0.050, 4, 1);
        let findings = compare(&base, &refuted, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("seq_refuted")));
        // Time gating follows the shared tolerance/floor/skip rules.
        let slow = seq_snapshot(0.080, 4, 0);
        assert!(!compare(&base, &slow, 0.30, 0.0, false).failures.is_empty());
        assert!(compare(&base, &slow, 0.30, 0.1, false).failures.is_empty());
        assert!(compare(&base, &slow, 0.30, 0.0, true).failures.is_empty());
        // A table_seq snapshot never compares against another kind.
        let table2 = table2_snapshot(0.050, 5, 25);
        let findings = compare(&table2, &base, 0.30, 0.0, false);
        assert!(findings
            .failures
            .iter()
            .any(|f| f.contains("snapshot kinds differ")));
    }

    fn scripted_snapshot(gates_after: u64, rewrites: u64) -> Json {
        parse(&format!(
            r#"{{"table": "table1_simulation", "scale": "Small", "patterns": 4096,
                "lut_k": 6, "threads": 1,
                "geomean": {{"xa": 0.4, "xl": 40.0}},
                "pipeline": {{"script": "rewrite;strash", "rows": [
                  {{"benchmark": "adder", "gates_before": 345, "gates_after": {gates_after},
                    "sat_calls": 0, "merges": 0, "constants": 0,
                    "resim_events": 0, "resim_nodes": 0, "resim_skipped": 0,
                    "dead_skips": 0, "digest": 4, "total_s": 0.01, "passes": [
                      {{"name": "rewrite", "gates_before": 345, "gates_after": {gates_after},
                        "sat_calls": 0, "merges": 0, "time_s": 0.005,
                        "counters": {{"candidates": 40, "rewrites": {rewrites}}}}},
                      {{"name": "strash", "gates_before": {gates_after}, "gates_after": {gates_after},
                        "sat_calls": 0, "merges": 0, "time_s": 0.001}}
                    ]}}
                ]}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn per_pass_counters_are_gated_exactly() {
        let base = scripted_snapshot(300, 12);
        assert!(compare(&base, &base, 0.30, 0.0, false).failures.is_empty());
        // A per-pass counter drift fails even when the row aggregates agree.
        let drifted = scripted_snapshot(300, 13);
        let findings = compare(&base, &drifted, 0.30, 0.0, false);
        assert!(
            findings.failures.iter().any(|f| f.contains("counters")),
            "{:?}",
            findings.failures
        );
        // A node-count drift in a pass fails.
        let grown = scripted_snapshot(310, 12);
        let findings = compare(&base, &grown, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("gates_after")));
    }

    #[test]
    fn mismatched_snapshot_kinds_fail() {
        let table1 = snapshot(0.01, 3, 40.0);
        let table2 = table2_snapshot(0.050, 5, 25);
        let findings = compare(&table1, &table2, 0.30, 0.0, false);
        assert!(findings
            .failures
            .iter()
            .any(|f| f.contains("snapshot kinds differ")));
    }

    #[test]
    fn missing_benchmark_fails_both_directions() {
        let base = snapshot(0.01, 3, 40.0);
        let empty = parse(
            r#"{"scale": "Small", "patterns": 4096, "lut_k": 6, "threads": 1,
                "geomean": {"xa": 0.4, "xl": 40.0}, "pipeline": {"rows": []}}"#,
        )
        .unwrap();
        let findings = compare(&base, &empty, 0.30, 0.0, false);
        assert!(findings.failures.iter().any(|f| f.contains("missing")));
        let reverse = compare(&empty, &base, 0.30, 0.0, false);
        assert!(!reverse.failures.is_empty());
    }
}
