//! # workloads — synthetic benchmark circuits for the evaluation harness
//!
//! The paper evaluates on the EPFL combinational suite (Table I) and on
//! HWMCC'15 / IWLS'05 designs (Table II).  Those artefacts cannot be bundled
//! here, so this crate generates *structural analogs*: circuits of the same
//! families (arithmetic data paths, shifters, dividers, comparators,
//! arbiters, decoders, seeded random control logic) whose DAG shape drives
//! the simulators and sweepers through the same code paths.  See the
//! repository `README.md` for the substitution rationale.
//!
//! * [`generators`] — parametric circuit generators (adders, multipliers,
//!   barrel shifters, dividers, square roots, comparators, voters, decoders,
//!   priority encoders, arbiters, crossbars, random control logic).
//! * [`epfl`] — the 20-circuit EPFL-analog suite used by the Table I
//!   harness.
//! * [`redundant`] — functional-redundancy injection: re-expresses selected
//!   cones through their truth tables with a different decomposition and
//!   rewires part of the fanout, creating the provably-mergeable node pairs
//!   SAT-sweeping is measured on.
//! * [`hwmcc`] — the 15-circuit HWMCC/IWLS-analog suite (base circuits plus
//!   injected redundancy) used by the Table II harness.
//! * [`sequential`] — sequential machines with planted latch equivalences
//!   (duplicate and complemented-duplicate latches, reachable constants,
//!   product-machine miters) plus the seeded single-gate mutation the
//!   BMC-oracle differential battery uses as its negative control.
//!
//! ```
//! use workloads::generators;
//!
//! let adder = generators::ripple_carry_adder(8);
//! assert_eq!(adder.num_inputs(), 16);
//! assert_eq!(adder.num_outputs(), 9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod epfl;
pub mod generators;
pub mod hwmcc;
pub mod redundant;
pub mod sequential;

pub use epfl::{epfl_suite, EpflBenchmark};
pub use hwmcc::{hwmcc_suite, SweepBenchmark};
pub use redundant::inject_redundancy;
pub use sequential::{
    flip_and_input, random_sequential_aig, sequential_miter, with_duplicate_latches,
    SequentialWorkload,
};

/// The size class of a generated suite.
///
/// `Tiny` keeps unit tests fast, `Small` is the default of the table binaries,
/// `Large` approaches (but does not reach) the paper's circuit sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Very small circuits for unit tests.
    Tiny,
    /// Default benchmark size (seconds per table).
    #[default]
    Small,
    /// Larger circuits for longer, more faithful runs.
    Large,
}

impl Scale {
    /// A multiplier applied to the base bit-widths of the generators.
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Large => 4,
        }
    }
}
