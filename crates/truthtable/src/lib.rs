//! # truthtable — dynamic bit-packed truth tables
//!
//! Truth tables are the simulation signatures of exhaustive simulation
//! (Section II-A of the paper) and the functions stored at the nodes of a
//! k-LUT network.  This crate provides a kitty-style dynamic truth table:
//! a bit-packed table over a fixed number of variables with the usual
//! Boolean operations, cofactoring, support computation and composition.
//!
//! Convention: bit `i` of the table is the function value for the assignment
//! where variable `j` takes the value `(i >> j) & 1` (variable 0 is the
//! least-significant index).  The bits are the columns of the paper's
//! `2 × 2^k` logic matrix (Definition 2) in reverse order: taking variable
//! `k − 1` as the first argument `x₁`, bit `i` is column `2^k − i`
//! (counting from 1), and a 1 bit is the column `[1 0]ᵀ`, true.
//!
//! ```
//! use truthtable::TruthTable;
//!
//! let a = TruthTable::variable(3, 0);
//! let b = TruthTable::variable(3, 1);
//! let c = TruthTable::variable(3, 2);
//! let maj = (&(&a & &b) | &(&(&a & &c) | &(&b & &c)));
//! assert_eq!(maj.count_ones(), 4);
//! assert!(maj.support().eq([0, 1, 2]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod ops;
mod table;

pub use compose::compose;
pub use table::{ParseTruthTableError, TruthTable};
