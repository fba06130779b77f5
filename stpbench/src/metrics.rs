//! The metric tables (the names and units `BENCHMARK.json` declares) and the
//! result line.

/// End-to-end metrics, printed by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("nodes_after", "count"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by the traced run: `(name, unit)`.  A metric
/// that a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sat_calls", "count"),
    ("gates_after", "count"),
    ("latches_after", "count"),
    ("sat.calls_sat", "count"),
    ("sat.calls_unsat", "count"),
    ("sat.calls_undet", "count"),
    ("sat.us_per_call", "us"),
    ("sat.false_candidate_ratio", "ratio"),
    ("prover.batches", "count"),
    ("prover.mean_batch", "count"),
    ("prover.discarded", "count"),
    ("satsolver.replay_queries", "count"),
    ("satsolver.replay_s", "s"),
    ("satsolver.replay_p50_us", "us"),
    ("satsolver.replay_p99_us", "us"),
    ("satsolver.replay_conflicts", "count"),
    ("satsolver.replay_propagations", "count"),
    ("satsolver.replay_decisions", "count"),
    ("session.begin_s", "s"),
    ("session.run_s", "s"),
    ("report.simulation_s", "s"),
    ("report.sat_s", "s"),
    ("report.other_s", "s"),
    ("session.sat_interval_p50_us", "us"),
    ("session.sat_interval_p99_us", "us"),
    ("patterns.gen_s", "s"),
    ("patterns.guided", "count"),
    ("window.index_s", "s"),
    ("window.proved", "count"),
    ("window.disproved", "count"),
    ("equiv.classes_s", "s"),
    ("equiv.candidates", "count"),
    ("equiv.refinements", "count"),
    ("resim.events", "count"),
    ("resim.nodes", "count"),
    ("resim.skip_ratio", "ratio"),
    ("bitsim.initial_sim_s", "s"),
    ("bitsim.aig_sim_s", "s"),
    ("bitsim.aig_sim_t2_s", "s"),
    ("stp_sim.klut_sim_s", "s"),
    ("stp_sim.klut_sim_t2_s", "s"),
    ("netlist.lutmap_s", "s"),
    ("netlist.lut_nodes", "count"),
    ("seq.candidates", "count"),
    ("seq.ternary_constants", "count"),
    ("seq.refuted", "count"),
    ("seq.undet", "count"),
    ("seq.ternary_iterations", "count"),
    ("bitsim.ternary_fixpoint_s", "s"),
    ("netlist.aiger_read_s", "s"),
    ("netlist.aiger_write_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.encode_s", "s"),
    ("checkpoint.decode_s", "s"),
    ("cec.verify_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("stp_over_baseline.wall", "ratio"),
    ("stp_over_baseline.sat_calls", "ratio"),
    ("stp_over_bitwise.sim", "ratio"),
];

/// Collected metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records (or overwrites) a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is declared in neither table — every printed name
    /// must be one `BENCHMARK.json` declares.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not declared"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.values.push((name, value)),
        }
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The metrics of `table`, each with its unit; unset ones read 0.
    pub fn table(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        table
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

/// Renders a number for JSON: full precision, non-finite values as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the metrics of `table`.
pub fn result_line(
    metrics: &Metrics,
    table: &[(&'static str, &'static str)],
    attempted: u64,
    failed: u64,
) -> String {
    let entries: Vec<String> = metrics
        .table(table)
        .into_iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        entries.join(", ")
    )
}
