//! # bitsim — word-parallel bitwise circuit simulation (baseline)
//!
//! This crate is the reproduction of the *baseline* simulator the paper
//! compares against (the Mockturtle logic-network simulator of Table I):
//!
//! * [`PatternSet`] — a set of simulation patterns stored bit-parallel, 64
//!   patterns per machine word (Section II-A of the paper).
//! * [`Signature`] — the simulation signature of a node: its output value
//!   under every pattern.
//! * [`AigSimulator`] — word-parallel simulation of an AIG: one AND/XOR
//!   instruction simulates 64 patterns at once.
//! * [`ternary`] — X-valued two-plane simulation for sequential designs:
//!   Kleene logic over a (value, care) signature pair per node, plus the
//!   [`ternary_fixpoint`] initial-state analysis that seeds sequential
//!   sweeping.
//! * [`LutSimulator`] — simulation of a k-LUT network.  As the paper notes,
//!   bit-parallel words do not help a k-LUT directly: the baseline extracts
//!   the individual input bits of each pattern, forms the LUT index and looks
//!   the output bit up, pattern by pattern.  This is the behaviour the
//!   STP-based simulator in the `stp_sweep` crate is measured against.
//!
//! ```
//! use bitsim::{AigSimulator, PatternSet};
//! use netlist::Aig;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let y = aig.xor(a, b);
//! aig.add_output("y", y);
//!
//! let patterns = PatternSet::exhaustive(2);
//! let sim = AigSimulator::new(&aig).run(&patterns);
//! let signature = sim.output_signature(&aig, 0);
//! assert_eq!(signature.to_binary_string(), "0110");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aig_sim;
pub mod arena;
pub mod kernels;
mod lut_sim;
pub mod parallel;
mod patterns;
mod signature;
pub mod ternary;

pub use aig_sim::{AigSimState, AigSimulator};
pub use arena::{ArenaPrefix, SigRef, SignatureArena};
pub use lut_sim::{LutSimState, LutSimulator};
pub use patterns::{PatternError, PatternSet};
pub use signature::Signature;
pub use ternary::{
    ternary_fixpoint, TernaryFixpoint, TernaryPatternSet, TernarySimState, TernarySimulator,
    TernaryValue,
};
