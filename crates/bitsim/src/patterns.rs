//! Simulation pattern sets.

use crate::Signature;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors of pattern-set construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternError {
    /// Zero patterns were requested.  An empty pattern set makes every node
    /// signature empty, which silently turns every node into a constant
    /// candidate downstream — reject it up front instead.
    EmptyPatternSet {
        /// The number of inputs the set was requested for.
        num_inputs: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::EmptyPatternSet { num_inputs } => write!(
                f,
                "refusing to generate an empty random pattern set \
                 ({num_inputs} inputs, 0 patterns): empty signatures make \
                 every node look constant"
            ),
        }
    }
}

impl std::error::Error for PatternError {}

/// A set of simulation patterns for a network with a fixed number of primary
/// inputs, stored bit-parallel (one [`Signature`] per input, one bit per
/// pattern).
///
/// ```
/// use bitsim::PatternSet;
///
/// let p = PatternSet::exhaustive(3);
/// assert_eq!(p.num_patterns(), 8);
/// assert_eq!(p.assignment(5), vec![true, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSet {
    inputs: Vec<Signature>,
    num_patterns: usize,
}

impl PatternSet {
    /// Creates an empty pattern set (zero patterns) for `num_inputs` inputs.
    pub fn new(num_inputs: usize) -> Self {
        PatternSet {
            inputs: vec![Signature::zeros(0); num_inputs],
            num_patterns: 0,
        }
    }

    /// Generates `num_patterns` uniformly random patterns from a seed.
    ///
    /// `num_patterns` must be nonzero: an empty random set would produce
    /// empty signatures for every node (silently classifying everything as a
    /// constant candidate), so it is rejected with
    /// [`PatternError::EmptyPatternSet`] instead.
    pub fn random(num_inputs: usize, num_patterns: usize, seed: u64) -> Result<Self, PatternError> {
        if num_patterns == 0 {
            return Err(PatternError::EmptyPatternSet { num_inputs });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let words = num_patterns.div_ceil(64).max(1);
        let inputs = (0..num_inputs)
            .map(|_| {
                let w: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
                Signature::from_words(num_patterns, w)
            })
            .collect();
        Ok(PatternSet {
            inputs,
            num_patterns,
        })
    }

    /// Generates the exhaustive set of `2^num_inputs` patterns: pattern `p`
    /// assigns input `i` the value `(p >> i) & 1`, so input signatures equal
    /// the projection truth tables.
    ///
    /// # Panics
    ///
    /// Panics if `num_inputs > 24` (the exhaustive set would not fit in
    /// memory sensibly; the paper restricts exhaustive simulation to windows
    /// of fewer than 16 leaves).
    pub fn exhaustive(num_inputs: usize) -> Self {
        assert!(num_inputs <= 24, "exhaustive pattern set too large");
        let num_patterns = 1usize << num_inputs;
        let inputs = (0..num_inputs)
            .map(|i| Signature::from_bits((0..num_patterns).map(move |p| (p >> i) & 1 == 1)))
            .collect();
        PatternSet {
            inputs,
            num_patterns,
        }
    }

    /// Builds a pattern set from explicit per-input bit strings, following
    /// the paper's Section III-C convention: `strings[i]` lists the values of
    /// input `i`, with "the i-th bit of each input" forming the i-th pattern.
    /// The left-most character of each string is the **last** pattern (the
    /// strings read right to left), matching [`Signature::to_binary_string`].
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths or contain characters
    /// other than `0`/`1`.
    pub fn from_binary_strings(strings: &[&str]) -> Self {
        assert!(!strings.is_empty(), "at least one input required");
        let len = strings[0].len();
        let inputs: Vec<Signature> = strings
            .iter()
            .map(|s| {
                assert_eq!(s.len(), len, "all pattern strings must have equal length");
                Signature::from_bits(s.chars().rev().map(|c| match c {
                    '0' => false,
                    '1' => true,
                    _ => panic!("invalid pattern character '{c}'"),
                }))
            })
            .collect();
        PatternSet {
            inputs,
            num_patterns: len,
        }
    }

    /// Rebuilds a pattern set from per-input signatures (the inverse of
    /// reading [`PatternSet::input_signature`] for every input).
    ///
    /// # Panics
    ///
    /// Panics if any signature covers a different number of patterns than
    /// `num_patterns` — callers deserialising untrusted data must validate
    /// lengths first.
    pub fn from_input_signatures(inputs: Vec<Signature>, num_patterns: usize) -> Self {
        assert!(
            inputs.iter().all(|s| s.len() == num_patterns),
            "every input signature must cover num_patterns patterns"
        );
        PatternSet {
            inputs,
            num_patterns,
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// The signature (bit-parallel values) of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input_signature(&self, i: usize) -> &Signature {
        &self.inputs[i]
    }

    /// The value of input `input` under pattern `pattern`.
    pub fn value(&self, input: usize, pattern: usize) -> bool {
        self.inputs[input].get_bit(pattern)
    }

    /// The full assignment of pattern `pattern` (one Boolean per input).
    pub fn assignment(&self, pattern: usize) -> Vec<bool> {
        self.inputs.iter().map(|s| s.get_bit(pattern)).collect()
    }

    /// Appends a pattern given as one Boolean per input (e.g. a SAT
    /// counter-example).
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the input count.
    pub fn push_pattern(&mut self, assignment: &[bool]) {
        assert_eq!(
            assignment.len(),
            self.inputs.len(),
            "assignment length must equal the number of inputs"
        );
        for (sig, &value) in self.inputs.iter_mut().zip(assignment.iter()) {
            sig.push(value);
        }
        self.num_patterns += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_covers_all_assignments() {
        let p = PatternSet::exhaustive(3);
        assert_eq!(p.num_patterns(), 8);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8 {
            seen.insert(p.assignment(i));
        }
        assert_eq!(seen.len(), 8);
        // Input 0 alternates fastest.
        assert_eq!(p.input_signature(0).to_binary_string(), "10101010");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = PatternSet::random(4, 100, 7).unwrap();
        let b = PatternSet::random(4, 100, 7).unwrap();
        let c = PatternSet::random(4, 100, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_patterns(), 100);
    }

    #[test]
    fn random_rejects_zero_patterns() {
        let err = PatternSet::random(4, 0, 7).unwrap_err();
        assert_eq!(err, PatternError::EmptyPatternSet { num_inputs: 4 });
        assert!(err.to_string().contains("4 inputs"));
    }

    #[test]
    fn paper_example_pattern_string() {
        // Section III-C: 10 simulation patterns over 5 inputs given as the
        // concatenation of five 10-bit strings; the first pattern is "01100".
        let strings = [
            "0111001011",
            "1010011011",
            "1110011000",
            "0000011111",
            "1010000101",
        ];
        let p = PatternSet::from_binary_strings(&strings);
        assert_eq!(p.num_patterns(), 10);
        assert_eq!(p.num_inputs(), 5);
        // Pattern 0 is the right-most column: inputs 1..5 = 1,1,0,1,1?  The
        // paper reads the first pattern as the first character of each row:
        // "0","1","1","0","1" → but with right-to-left storage pattern 9 is
        // the left-most column.
        let first_paper_pattern: Vec<bool> = (0..5).map(|i| p.value(i, 9)).collect();
        assert_eq!(first_paper_pattern, vec![false, true, true, false, true]);
    }

    #[test]
    fn push_appends_patterns() {
        let mut p = PatternSet::new(3);
        p.push_pattern(&[true, false, true]);
        p.push_pattern(&[false, false, true]);
        assert_eq!(p.num_patterns(), 2);
        assert_eq!(p.assignment(0), vec![true, false, true]);
        assert_eq!(p.assignment(1), vec![false, false, true]);
    }

    #[test]
    fn from_input_signatures_round_trips() {
        let mut p = PatternSet::random(5, 100, 3).unwrap();
        p.push_pattern(&[true, false, true, true, false]);
        let inputs: Vec<Signature> = (0..p.num_inputs())
            .map(|i| p.input_signature(i).clone())
            .collect();
        let rebuilt = PatternSet::from_input_signatures(inputs, p.num_patterns());
        assert_eq!(rebuilt, p);
    }

    #[test]
    #[should_panic(expected = "num_patterns")]
    fn from_input_signatures_rejects_mismatched_lengths() {
        let _ = PatternSet::from_input_signatures(vec![Signature::zeros(3)], 4);
    }

    #[test]
    #[should_panic(expected = "assignment length")]
    fn push_wrong_arity_panics() {
        let mut p = PatternSet::new(2);
        p.push_pattern(&[true]);
    }
}
