//! # sweepd — a multiplexing sweep service
//!
//! The long-running process that serves the workspace's SAT-sweeping
//! engine: clients submit jobs (an AIGER netlist plus a priority, a
//! configuration preset and optionally a pass script in the
//! [`stp_sweep::PassManager::parse`] grammar) and receive the swept AIGER
//! and its committed counters back.  Inside, a fair scheduler time-slices N concurrent
//! sweeps over a worker pool by running each job for a bounded quantum and
//! suspending it to an in-memory [`stp_sweep::SweepCheckpoint`] before
//! its next sweeping SAT query — the engine's byte-exact checkpoint/resume
//! guarantee means a job sliced a thousand times produces output identical
//! to an uninterrupted run.
//!
//! * [`protocol`] — the length-prefixed wire format shared by daemon and
//!   client.
//! * [`job`] — job identities, states and progress counters.
//! * [`spill`] — durable checkpoint spilling and crash recovery.
//! * [`scheduler`] — the in-process service: fair time-slicing,
//!   priorities, preemption, cancellation.
//! * [`server`] — the socket front end (Unix socket or TCP).
//! * [`client`] — a blocking client used by `sweepctl` and the tests.
//!
//! Jobs are keyed by the *canonical* netlist fingerprint
//! ([`netlist::canonical_fingerprint`]), so a resubmitted job whose parser
//! renumbered the same circuit is adopted into the existing job — and
//! after a crash, spilled jobs are re-adopted from disk and resumed
//! byte-exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod spill;

pub use client::{ClientError, SweepClient};
pub use job::{JobCounters, JobId, JobInfo, JobState, Priority};
pub use protocol::{Preset, Request, Response};
pub use scheduler::{ServiceConfig, SweepService};
pub use server::{serve, Endpoint};

/// The sweep configuration a preset resolves to, shared by the daemon and
/// by reference runs in tests: the determinism gate compares a sliced
/// daemon job against an uninterrupted in-process run *under the same
/// config*.  The daemon adds only a budget per slice, and a budget stop's
/// checkpoint resumes to the uninterrupted result.
pub fn effective_config(preset: Preset) -> stp_sweep::SweepConfig {
    match preset {
        Preset::Fast => stp_sweep::SweepConfig::fast(),
        Preset::Paper => stp_sweep::SweepConfig::paper(),
        Preset::Thorough => stp_sweep::SweepConfig::thorough(),
    }
}
