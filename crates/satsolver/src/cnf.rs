//! Propositional variables and literals.

use std::fmt;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The zero-based index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a variable from its index.
    pub fn from_index(index: usize) -> Self {
        Var(index as u32)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A propositional literal: a variable or its negation.
///
/// ```
/// use satsolver::{SatLit, Var};
///
/// let v = Var::from_index(3);
/// let p = SatLit::positive(v);
/// assert_eq!(!p, SatLit::negative(v));
/// assert_eq!(p.var(), v);
/// assert!(!p.is_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatLit(u32);

impl SatLit {
    /// Creates a literal.
    pub fn new(var: Var, negated: bool) -> Self {
        SatLit(var.0 << 1 | negated as u32)
    }

    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Self {
        SatLit::new(var, false)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Self {
        SatLit::new(var, true)
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` if the literal is a negation.
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense integer code (`2 * var + negated`), used for watch indexing.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a literal from its dense integer code (inverse of
    /// [`SatLit::code`]), used by state snapshots.
    pub fn from_code(code: u32) -> Self {
        SatLit(code)
    }
}

impl std::ops::Not for SatLit {
    type Output = SatLit;

    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var::from_index(4);
        let p = SatLit::positive(v);
        let n = SatLit::negative(v);
        assert_eq!(!p, n);
        assert_eq!(p.code(), 8);
        assert_eq!(n.code(), 9);
    }
}
