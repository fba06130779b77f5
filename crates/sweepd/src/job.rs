//! Job identities, states and progress counters.
//!
//! A *job* is one sweep of one netlist.  The daemon keys jobs by the
//! canonical fingerprint of their netlist, so the same circuit submitted
//! twice — even renumbered — maps to the same job.

use std::fmt;

use crate::protocol::Preset;
use stp_sweep::{Engine, SweepReport};

/// Identifies a job for the lifetime of one daemon instance.
///
/// Ids are assigned in submission order and are *not* stable across a
/// daemon restart; the stable identity of a job is the canonical
/// fingerprint of its netlist ([`JobInfo::canonical_fingerprint`]).
pub type JobId = u64;

/// Scheduling priority of a job.  The scheduler always runs the
/// highest-priority runnable job first and preempts lower-priority
/// running jobs (before their next sweeping SAT query) when a
/// higher-priority job arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Batch work: runs when nothing more urgent is queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Interactive work: preempts running `Low`/`Normal` jobs.
    High,
}

impl Priority {
    /// Wire encoding of the priority.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Decodes a wire priority.
    pub(crate) fn from_u8(value: u8) -> Option<Self> {
        match value {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }

    /// Parses the human spelling used by `sweepctl --priority`.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::Low => write!(f, "low"),
            Priority::Normal => write!(f, "normal"),
            Priority::High => write!(f, "high"),
        }
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobState {
    /// Waiting for its first time slice.
    Queued,
    /// Currently holding a worker.
    Running,
    /// Preempted before a sweeping SAT query; its checkpoint is held in
    /// memory (and spilled to disk when a spill directory is configured).
    Suspended,
    /// Finished; the swept AIGER and counters are available.
    Done,
    /// The sweep itself failed (e.g. the netlist was malformed on resume).
    Failed,
    /// Cancelled by a client before completion.
    Cancelled,
}

impl JobState {
    /// `true` once the job can never run again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    pub(crate) fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Suspended => 2,
            JobState::Done => 3,
            JobState::Failed => 4,
            JobState::Cancelled => 5,
        }
    }

    pub(crate) fn from_u8(value: u8) -> Option<Self> {
        match value {
            0 => Some(JobState::Queued),
            1 => Some(JobState::Running),
            2 => Some(JobState::Suspended),
            3 => Some(JobState::Done),
            4 => Some(JobState::Failed),
            5 => Some(JobState::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobState::Queued => write!(f, "queued"),
            JobState::Running => write!(f, "running"),
            JobState::Suspended => write!(f, "suspended"),
            JobState::Done => write!(f, "done"),
            JobState::Failed => write!(f, "failed"),
            JobState::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The committed counters of a finished sweep — the exact values the
/// determinism gate pins against an uninterrupted in-process run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobCounters {
    /// AND gates in the submitted netlist.
    pub gates_before: u64,
    /// AND gates in the swept netlist.
    pub gates_after: u64,
    /// Nodes merged into an equivalent representative.
    pub merges: u64,
    /// Nodes proved constant and substituted.
    pub constants: u64,
    /// Sweeping SAT queries across all time slices.
    pub sat_calls_total: u64,
}

impl JobCounters {
    /// Extracts the committed counters from a finished sweep's report.
    pub fn from_report(report: &SweepReport) -> Self {
        JobCounters {
            gates_before: report.gates_before as u64,
            gates_after: report.gates_after as u64,
            merges: report.merges as u64,
            constants: report.constants as u64,
            sat_calls_total: report.sat_calls_total,
        }
    }
}

impl fmt::Display for JobCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} gates ({} merges, {} constants, {} SAT calls)",
            self.gates_before, self.gates_after, self.merges, self.constants, self.sat_calls_total
        )
    }
}

/// A snapshot of one job as reported over the wire by `Status`/`List`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Daemon-local job id.
    pub id: JobId,
    /// Canonical fingerprint of the submitted netlist — the stable
    /// cross-restart identity of the job.
    pub canonical_fingerprint: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling priority.
    pub priority: Priority,
    /// Sweeping engine the job runs under.
    pub engine: Engine,
    /// Configuration preset the job runs under.
    pub preset: Preset,
    /// Time slices the job has consumed so far.
    pub slices: u64,
    /// Sweeping SAT calls committed so far.
    pub sat_calls: u64,
    /// Candidates committed so far.
    pub committed_candidates: u64,
    /// Error message for `Failed` jobs, empty otherwise.
    pub error: String,
}

pub(crate) fn engine_to_u8(engine: Engine) -> u8 {
    match engine {
        Engine::Baseline => 0,
        Engine::Stp => 1,
    }
}

pub(crate) fn engine_from_u8(value: u8) -> Option<Engine> {
    match value {
        0 => Some(Engine::Baseline),
        1 => Some(Engine::Stp),
        _ => None,
    }
}

/// Parses the human spelling used by `sweepctl --engine`.
pub fn parse_engine(text: &str) -> Option<Engine> {
    match text {
        "baseline" => Some(Engine::Baseline),
        "stp" => Some(Engine::Stp),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
    }

    #[test]
    fn wire_round_trips_cover_every_variant() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_u8(p.to_u8()), Some(p));
            assert_eq!(Priority::parse(&p.to_string()), Some(p));
        }
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Suspended,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_u8(s.to_u8()), Some(s));
        }
        for e in [Engine::Baseline, Engine::Stp] {
            assert_eq!(engine_from_u8(engine_to_u8(e)), Some(e));
        }
        assert_eq!(Priority::from_u8(9), None);
        assert_eq!(JobState::from_u8(9), None);
        assert_eq!(engine_from_u8(9), None);
    }

    #[test]
    fn terminal_states_are_exactly_done_failed_cancelled() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(!JobState::Suspended.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
    }
}
