//! The optimisation passes.
//!
//! A [`Pass`] is one step of a [`crate::PassManager`] run: a sweep, a
//! structural-hashing cleanup, a verification.  The set is closed: a
//! pipeline is a sequence of these values, built with the manager's builder
//! verbs or parsed from a textual script ([`parse_script`]), and the
//! manager runs each one through a single loop that owns the budget check,
//! the timing, the gate counts, the aggregate report and the observer call.
//!
//! | pass | script name | effect |
//! |------|-------------|--------|
//! | [`Pass::Strash`] | `strash` | re-hash, re-fold constants, drop dead nodes |
//! | [`Pass::Sweep`] | `sweep(stp)` | one SAT-sweeping round of an engine |
//! | [`Pass::SweepToFixpoint`] | `sweep_fix(n)` | sweep rounds until no gate is removed |
//! | [`Pass::Dc2`] | `dc2(n)` | strash → sweep until the node count stops improving |
//! | [`Pass::Verify`] | `verify` | CEC check of the current network against the input |
//!
//! Every pass is deterministic — the output is a pure function of the input
//! network and the configuration — preserves functional equivalence, which
//! the test suite pins with CEC checks per pass, keeps the latch table, and
//! returns a strashed network: constants folded, structure shared, dead
//! nodes gone.
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::PassManager;
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let outcome = PassManager::parse("strash;sweep(stp);verify")
//!     .expect("script parses")
//!     .run(&aig)
//!     .expect("pipeline verifies");
//! assert!(outcome.aig.num_ands() <= aig.num_ands());
//! ```

mod script;

pub use script::{parse_script, ParsePassError};

use crate::session::Engine;
use std::fmt;

/// One step of a [`crate::PassManager`] run.  Its [`fmt::Display`] form is
/// the pass name that [`crate::Observer::on_pass_start`] receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Structural-hashing cleanup: rebuilds the network keeping only the
    /// logic reachable from the outputs, re-running constant propagation
    /// and structural hashing ([`netlist::Aig::cleanup`]).  A sweep already
    /// returns a strashed network, so a `strash` right after one changes
    /// nothing; it pays on an input with dangling logic or with ANDs built
    /// by [`netlist::Aig::and_raw`].
    Strash,
    /// One SAT-sweeping round of an [`Engine`].
    Sweep(Engine),
    /// Sweep rounds of an engine until no gate is removed, capped at the
    /// given round count.  At least one round runs; each round reports as
    /// `"sweep({engine}) round {n}"`.
    SweepToFixpoint(Engine, usize),
    /// Strash → `sweep(stp)` until the AND count stops improving,
    /// capped at the given iteration count (at least one runs).  Each step
    /// reports as `"dc2[{iter}] {step}"`, followed by a `"dc2"` summary with
    /// an `iterations` counter.
    Dc2(usize),
    /// CEC verification of the current network against the run's input; a
    /// mismatch (or an inconclusive check) aborts with
    /// [`crate::SweepError::Inconsistent`].
    Verify,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::Strash => write!(f, "strash"),
            Pass::Sweep(engine) => write!(f, "sweep({engine})"),
            Pass::SweepToFixpoint(engine, _) => write!(f, "sweep({engine}) to fixpoint"),
            Pass::Dc2(_) => write!(f, "dc2"),
            Pass::Verify => write!(f, "verify"),
        }
    }
}
