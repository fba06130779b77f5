//! The optimisation passes.
//!
//! A [`Pass`] is one step of a [`crate::PassManager`] run: a sweep, a
//! structural cleanup, a rewrite, a verification.  The set is closed: a
//! pipeline is a sequence of these values, built with the manager's builder
//! verbs or parsed from a textual script ([`parse_script`]), and the
//! manager runs each one through a single loop that owns the budget check,
//! the timing, the gate counts, the aggregate report and the observer call.
//!
//! | pass | script name | effect |
//! |------|-------------|--------|
//! | [`Pass::Strash`] | `strash` | re-hash, re-fold constants, drop dead nodes |
//! | [`Pass::ConstantFold`] | `cfold` | in-place 0/1 and unit-literal propagation |
//! | [`Pass::Gc`] | `gc` | dead-node sweep with PO reachability, structure preserved |
//! | [`Pass::Rewrite`] | `rewrite` | 4-input cut rewriting against an NPN class library |
//! | [`Pass::Sweep`] | `sweep(stp)` | one SAT-sweeping round of an engine |
//! | [`Pass::SweepToFixpoint`] | `sweep_fix(n)` | sweep rounds until no gate is removed |
//! | [`Pass::Dc2`] | `dc2(n)` | rewrite → strash → sweep until the node count stops improving |
//! | [`Pass::Verify`] | `verify` | CEC check of the current network against the input |
//!
//! Every structural pass is deterministic — the output is a pure function
//! of the input network — preserves functional equivalence, which the test
//! suite pins with CEC checks per pass, and keeps the latch table.
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
//! let outcome = PassManager::parse("strash;rewrite;sweep(stp);verify")
//!     .expect("script parses")
//!     .run(&aig)
//!     .expect("pipeline verifies");
//! assert!(outcome.aig.num_ands() <= aig.num_ands());
//! ```

mod rewrite;
mod script;

pub(crate) use rewrite::RewriteLibrary;
pub use script::{parse_script, ParsePassError};

use crate::session::Engine;
use netlist::{Aig, Lit};
use std::fmt;

/// One step of a [`crate::PassManager`] run.  Its [`fmt::Display`] form is
/// the pass name that [`crate::Observer::on_pass_start`] receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Structural-hashing cleanup: rebuilds the network keeping only the
    /// logic reachable from the outputs, re-running constant propagation
    /// and structural hashing ([`Aig::cleanup`]).  Merging can expose new
    /// structural sharing; a `strash` between sweeps lets the next round
    /// find it.
    Strash,
    /// In-place constant and unit-literal propagation.  Walks the AND nodes
    /// in topological order and redirects every node whose fanins force its
    /// value: a `0` fanin (or complementary fanins) makes the node constant
    /// false, a `1` fanin (or equal fanins) makes it a copy of the other
    /// fanin.  The node count is unchanged — folded nodes dangle until a
    /// later [`Pass::Gc`] or [`Pass::Strash`] removes them.
    ConstantFold,
    /// Dead-node sweep: keeps exactly the nodes reachable from the outputs,
    /// copied verbatim ([`Aig::cleanup_raw`]), so the live structure is
    /// never perturbed.
    Gc,
    /// Cut-based NPN rewriting: every AND node's 4-feasible cuts are
    /// canonicalised and replaced by a library implementation when that
    /// does not grow the cut's MFFC.
    Rewrite,
    /// One SAT-sweeping round of an [`Engine`].
    Sweep(Engine),
    /// Sweep rounds of an engine until no gate is removed, capped at the
    /// given round count.  At least one round runs; each round reports as
    /// `"sweep({engine}) round {n}"`.
    SweepToFixpoint(Engine, usize),
    /// Rewrite → strash → `sweep(stp)` until the AND count stops improving,
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
            Pass::ConstantFold => write!(f, "cfold"),
            Pass::Gc => write!(f, "gc"),
            Pass::Rewrite => write!(f, "rewrite"),
            Pass::Sweep(engine) => write!(f, "sweep({engine})"),
            Pass::SweepToFixpoint(engine, _) => write!(f, "sweep({engine}) to fixpoint"),
            Pass::Dc2(_) => write!(f, "dc2"),
            Pass::Verify => write!(f, "verify"),
        }
    }
}

/// The [`Pass::ConstantFold`] transformation; returns its counters.
pub(crate) fn constant_fold(aig: &mut Aig) -> Vec<(&'static str, u64)> {
    let ids: Vec<usize> = aig.and_ids().collect();
    let mut constants = 0u64;
    let mut units = 0u64;
    for id in ids {
        let fanins = aig.node(id).fanins();
        let (a, b) = (fanins[0], fanins[1]);
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            aig.replace_node(id, Lit::FALSE);
            constants += 1;
        } else if a == Lit::TRUE {
            aig.replace_node(id, b);
            units += 1;
        } else if b == Lit::TRUE || a == b {
            aig.replace_node(id, a);
            units += 1;
        }
    }
    vec![("constants", constants), ("units", units)]
}
