//! # stp-sat-sweep — facade crate
//!
//! Re-exports every crate of the workspace so that examples, integration
//! tests and downstream users can depend on a single package.
//!
//! The workspace reproduces *"A Semi-Tensor Product based Circuit Simulation
//! for SAT-sweeping"* (DATE 2024). See the repository `README.md` for the
//! architecture overview and the crate-dependency diagram.
//!
//! The sweeping entry point is the [`Sweeper`] builder (re-exported at the
//! facade root alongside the rest of the session API):
//!
//! ```
//! use stp_sat_sweep::netlist::Aig;
//! use stp_sat_sweep::{Engine, SweepConfig, Sweeper};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let result = Sweeper::new(Engine::Stp).config(SweepConfig::fast()).run(&aig)?;
//! assert!(result.aig.num_ands() <= aig.num_ands());
//! # Ok(())
//! # }
//! ```
//!
//! Multi-pass flows (strash → sweep → verify) compose through
//! the [`PassManager`] — programmatically via its builder verbs or from a
//! textual script via [`PassManager::parse`] — with runs bounded by
//! [`Budget`] and observed through [`Observer`]; see the `stp_sweep` crate
//! docs.
//!
//! Long-running multi-job deployments use the [`sweepd`] service instead of
//! driving sessions by hand: a daemon that fair-slices concurrent sweeps
//! over checkpoints, with priorities, preemption and crash recovery (see
//! `examples/sweep_service.rs` and the `README.md` "Sweep service" section).

pub use bitsim;
pub use netlist;
pub use satsolver;
pub use stp_sweep;
pub use sweepd;
pub use truthtable;
pub use workloads;

pub use netlist::canonical_fingerprint;
pub use stp_sweep::{
    bmc_sec, netlist_fingerprint, Budget, BudgetCause, CancelToken, CheckpointError, Engine,
    NoopObserver, Observer, ParsePassError, Pass, PassManager, PassReport, PipelineResult,
    SatCallOutcome, SecResult, StatsObserver, SweepCheckpoint, SweepConfig, SweepError,
    SweepReport, SweepResult, SweepSession, Sweeper,
};
