//! # satsolver — CDCL SAT solving with a circuit front-end
//!
//! SAT-sweeping needs a solver that can (dis)prove the equivalence of two
//! nodes of an AIG and hand back counter-examples (Section II-C of the
//! paper).  This crate provides:
//!
//! * [`Solver`] — a from-scratch CDCL solver: two-literal watching, first-UIP
//!   clause learning, VSIDS branching, phase saving, Luby restarts, learnt
//!   clause database reduction, incremental solving under assumptions and a
//!   conflict budget that yields [`SolveResult::Unknown`] (the paper's
//!   `unDET` outcome).
//! * [`cnf`] — the propositional variables ([`Var`]) and literals
//!   ([`SatLit`]) the solver and the circuit front-end share.
//! * [`CircuitSat`] — the incremental circuit front-end used by the SAT
//!   sweeper: it lazily encodes transitive-fanin cones and answers
//!   constant-ness and pairwise-equivalence queries with counter-examples
//!   expressed at the primary inputs.  It owns the bytes of its state:
//!   [`CircuitSat::snapshot`] encodes everything a later query reads, and
//!   [`CircuitSat::from_snapshot`] parses and validates it, so a resumed
//!   sweep answers exactly as the uninterrupted one would.
//! * [`codec`] — the bounded little-endian [`codec::Writer`] and
//!   [`codec::Reader`] that this state and the sweeping engine's checkpoints
//!   are written with; corrupt bytes yield a [`DecodeError`], never a panic.
//!
//! ```
//! use satsolver::{SatLit, Solver, SolveResult};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause(&[SatLit::positive(a), SatLit::positive(b)]);
//! solver.add_clause(&[SatLit::negative(a)]);
//! assert_eq!(solver.solve(), SolveResult::Sat);
//! assert_eq!(solver.model_value(b), Some(true));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod cnf;
pub mod codec;
mod heap;
mod solver;

pub use circuit::{CircuitSat, EquivOutcome};
pub use cnf::Var;
pub use codec::DecodeError;
pub use solver::{SatLit, SolveResult, Solver, SolverStats};
