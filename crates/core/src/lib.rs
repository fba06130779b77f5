//! # stp_sweep — STP-based circuit simulation and SAT-sweeping
//!
//! This crate is the reproduction of the paper's contribution:
//!
//! * [`stp_sim`] — the STP-based simulator of k-LUT networks (Algorithm 1)
//!   together with the cut algorithm of Section III-B: non-target logic is
//!   collapsed into k-LUTs whose truth tables are obtained by semi-tensor
//!   (logic-matrix) composition, so that only the nodes of interest are
//!   simulated — with exhaustive patterns whenever the window is small.
//! * [`equiv`] — the candidate equivalence-class manager of Fig. 2: one
//!   table addressed by node, in which the constant candidates are the
//!   class of the constant node 0.
//! * [`patterns`] — SAT-guided initial simulation patterns and constant-node
//!   detection (Section IV-A, after [Amarù et al., DAC'20]).
//! * [`session`] — the sweeping engine behind both the baseline and the
//!   STP sweeper (Algorithm 2), driven through the [`Sweeper`] builder:
//!   engine selection ([`Engine`]), progress [`Observer`]s, resource
//!   [`Budget`]s with partial results, and typed [`SweepError`]s.
//! * [`passes`] / [`pipeline`] — the optimisation passes: the closed
//!   [`Pass`] set of the structural-hashing cleanup ([`Pass::Strash`]),
//!   sweeps, the [`Pass::Dc2`] fixpoint loop and CEC verification, run in
//!   order by the [`PassManager`] with per-pass reports — built
//!   programmatically or from a textual script ([`PassManager::parse`]).
//! * [`resim`] — counter-example resimulation: single-pattern evaluation
//!   restricted to the transitive fanin of the surviving candidates.  Both
//!   engines route every counter-example through it into the two-way class
//!   split of [`equiv::EquivClasses::refine`]; the per-run counts surface
//!   in [`SweepReport`] and [`Observer::on_resimulation`].
//! * [`cec`] — combinational equivalence checking used to verify every sweep
//!   (the `&cec` analog).
//! * [`sequential`] — sequential SAT-sweeping over latches, activated by
//!   [`SweepConfig::seq_depth`] (see [`SweepConfig::sequential`]): ternary
//!   fixpoint analysis of the initial states, multi-frame binary
//!   refinement of latch-correspondence classes and one `k`-step induction
//!   network.  The same [`SweepSession`] proves the latch pairs on its one
//!   solver, with the same determinism, budget and checkpoint guarantees
//!   as the combinational sweep.
//! * [`bmc`] — the bounded-model-checking sequential-equivalence oracle
//!   ([`bmc::bmc_sec`]) the sequential test battery verifies every latch
//!   merge against.
//!
//! The entry point is the [`Sweeper`] builder:
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::{cec, Engine, StatsObserver, SweepConfig, Sweeper};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let mut stats = StatsObserver::new();
//! let result = Sweeper::new(Engine::Stp)
//!     .config(SweepConfig::paper())
//!     .observer(&mut stats)
//!     .run(&aig)
//!     .expect("valid config, unlimited budget");
//! assert!(result.aig.num_ands() <= aig.num_ands());
//! assert!(cec::check_equivalence(&aig, &result.aig, 1_000).equivalent);
//! assert_eq!(stats.merges, result.report.merges);
//! ```
//!
//! Multi-pass flows compose through [`PassManager`], and long runs stay
//! interruptible through [`Budget`] (deadline, SAT-call cap,
//! [`CancelToken`]) — a tripped budget returns the partial result inside
//! [`SweepError::BudgetExhausted`] instead of discarding the work done,
//! together with a resumable [`SweepCheckpoint`] ([`checkpoint`]):
//! [`Sweeper::resume_from`] continues a cancelled run with SAT calls,
//! merges and output bytes identical to an uninterrupted sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bmc;
pub mod budget;
pub mod cec;
pub mod checkpoint;
pub mod equiv;
pub mod error;
pub mod observer;
pub mod passes;
pub mod patterns;
pub mod pipeline;
pub mod report;
pub mod resim;
pub mod sequential;
pub mod session;
pub mod stp_sim;
pub mod window;

pub use bmc::{bmc_sec, SecResult};
pub use budget::{Budget, BudgetCause, CancelToken};
pub use checkpoint::{netlist_fingerprint, CheckpointError, SweepCheckpoint};
pub use error::SweepError;
pub use observer::{NoopObserver, Observer, SatCallOutcome, StatsObserver};
pub use passes::{ParsePassError, Pass};
pub use pipeline::{PassManager, PassReport, PipelineResult};
pub use report::{SweepConfig, SweepReport, SweepResult};
pub use session::{Engine, SweepSession, Sweeper};
