//! The traced run's instruments: an in-memory span recorder placed around
//! calls into each layer, and an [`Observer`] that timestamps engine events.
//!
//! Both only record; self times, intervals and percentiles are computed
//! afterwards, here in the benchmark, never inside the program under test.

use netlist::{Lit, NodeId};
use std::time::{Duration, Instant};
use stp_sweep::{Observer, SatCallOutcome};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or phase name (`workload`, `circuit`, `begin`, `run`, ...).
    pub name: &'static str,
    /// Index of the circuit the span belongs to (`None` for the workload).
    pub circuit: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, circuit: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            circuit,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records `f` as a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        circuit: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, circuit);
        let value = f();
        self.exit(id);
        value
    }

    /// The recorded spans, in opening order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort();
                let mut covered = Duration::ZERO;
                let mut reach = span.start;
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Summed self time per span name, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, Duration)> {
        let mut totals: Vec<(&'static str, Duration)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals.sort_by_key(|&(name, _)| name);
        totals
    }

    /// The spans as a JSON document (times in seconds).
    pub fn to_json(&self) -> String {
        let self_times = self.self_times();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&self_times)
            .enumerate()
            .map(|(id, (span, own))| {
                let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
                format!(
                    "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"circuit\": {}, \
                     \"start_s\": {}, \"end_s\": {}, \"self_s\": {}}}",
                    span.name,
                    opt(span.parent),
                    opt(span.circuit),
                    span.start.as_secs_f64(),
                    span.end.as_secs_f64(),
                    own.as_secs_f64()
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Runs `f`, recorded as a leaf span of `circuit` when a recorder is given.
pub fn span<T>(
    rec: Option<&mut Recorder>,
    name: &'static str,
    circuit: usize,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some(rec) => rec.leaf(name, Some(circuit), f),
        None => f(),
    }
}

/// Records the engine events of one sweep that its report does not hold:
/// the merges in the order the engine applied them, the class refinements
/// and, when timed, the time and outcome of every sweeping SAT call.  The
/// untraced repetitions use it untimed (no clock reads), for the merge log
/// the oracle needs.
#[derive(Debug, Default)]
pub struct TimingObserver {
    /// Clock of the SAT-call timestamps; `None` leaves them unrecorded.
    origin: Option<Instant>,
    /// Time and outcome of every sweeping SAT call (timed observers only).
    pub sat_calls: Vec<(Duration, SatCallOutcome)>,
    /// Class refinements.
    pub refinements: u64,
    /// The merges in the order the engine applied them.
    pub merges: Vec<(NodeId, Lit)>,
}

impl TimingObserver {
    /// An observer that also timestamps every SAT call.
    pub fn timed() -> Self {
        TimingObserver {
            origin: Some(Instant::now()),
            ..TimingObserver::default()
        }
    }

    /// Gaps between consecutive SAT-call events.
    pub fn sat_intervals(&self) -> Vec<Duration> {
        self.sat_calls
            .windows(2)
            .map(|w| w[1].0.saturating_sub(w[0].0))
            .collect()
    }
}

impl Observer for TimingObserver {
    fn on_sat_call(&mut self, outcome: SatCallOutcome) {
        if let Some(origin) = self.origin {
            self.sat_calls.push((origin.elapsed(), outcome));
        }
    }

    fn on_class_refined(&mut self, _num_classes: usize, _moved: usize) {
        self.refinements += 1;
    }

    fn on_merge(&mut self, candidate: NodeId, replacement: Lit) {
        self.merges.push((candidate, replacement));
    }
}

/// The `q`-quantile (nearest rank) of `values`; zero for an empty slice.
pub fn quantile(values: &[Duration], q: f64) -> Duration {
    if values.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = values.to_vec();
    sorted.sort();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
