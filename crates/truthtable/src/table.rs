use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A bit-packed truth table over a fixed number of variables.
///
/// Bit `i` is the value of the function under the assignment where variable
/// `j` has value `(i >> j) & 1`.  Tables with fewer than 6 variables occupy a
/// single partially-used word whose unused high bits are kept zero.
///
/// ```
/// use truthtable::TruthTable;
///
/// let xor2 = TruthTable::from_hex(2, "6")?;
/// assert_eq!(xor2.get_bit(0), false);
/// assert_eq!(xor2.get_bit(1), true);
/// assert_eq!(xor2.to_hex(), "6");
/// # Ok::<(), truthtable::ParseTruthTableError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    num_vars: usize,
    words: Vec<u64>,
}

/// Error returned when parsing a truth table from a hex or binary string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTruthTableError {
    message: String,
}

impl ParseTruthTableError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ParseTruthTableError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseTruthTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid truth table: {}", self.message)
    }
}

impl Error for ParseTruthTableError {}

pub(crate) fn words_needed(num_vars: usize) -> usize {
    if num_vars < 6 {
        1
    } else {
        1usize << (num_vars - 6)
    }
}

pub(crate) fn used_bits_mask(num_vars: usize) -> u64 {
    if num_vars >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << num_vars)) - 1
    }
}

impl TruthTable {
    /// Maximum supported number of variables (2³² bits would be 512 MiB; the
    /// practical ceiling for exhaustive simulation windows is far lower).
    pub const MAX_VARS: usize = 24;

    /// Creates the constant-zero function over `num_vars` variables.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > Self::MAX_VARS`.
    pub fn zeros(num_vars: usize) -> Self {
        assert!(num_vars <= Self::MAX_VARS, "too many truth table variables");
        TruthTable {
            num_vars,
            words: vec![0; words_needed(num_vars)],
        }
    }

    /// Creates the constant-one function over `num_vars` variables.
    pub fn ones(num_vars: usize) -> Self {
        let mut t = Self::zeros(num_vars);
        for w in &mut t.words {
            *w = u64::MAX;
        }
        t.mask_unused();
        t
    }

    /// Creates the projection function of variable `var` over `num_vars`
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn variable(num_vars: usize, var: usize) -> Self {
        assert!(var < num_vars, "variable index out of range");
        let mut t = Self::zeros(num_vars);
        if var < 6 {
            // Repeating pattern within each word.
            let pattern = match var {
                0 => 0xAAAA_AAAA_AAAA_AAAA,
                1 => 0xCCCC_CCCC_CCCC_CCCC,
                2 => 0xF0F0_F0F0_F0F0_F0F0,
                3 => 0xFF00_FF00_FF00_FF00,
                4 => 0xFFFF_0000_FFFF_0000,
                _ => 0xFFFF_FFFF_0000_0000,
            };
            for w in &mut t.words {
                *w = pattern;
            }
        } else {
            // Whole words alternate in blocks of 2^(var-6).
            let block = 1usize << (var - 6);
            for (i, w) in t.words.iter_mut().enumerate() {
                if (i / block) % 2 == 1 {
                    *w = u64::MAX;
                }
            }
        }
        t.mask_unused();
        t
    }

    /// Builds a table from raw words (little-endian bit order).  Extra bits
    /// beyond `2^num_vars` are masked off; missing words are zero-filled.
    pub fn from_words(num_vars: usize, words: &[u64]) -> Self {
        let mut t = Self::zeros(num_vars);
        for (dst, src) in t.words.iter_mut().zip(words.iter()) {
            *dst = *src;
        }
        t.mask_unused();
        t
    }

    /// Builds a table by evaluating `f` on every assignment.  Argument `i` of
    /// the slice passed to `f` is the value of variable `i`.
    pub fn from_fn<F: FnMut(&[bool]) -> bool>(num_vars: usize, mut f: F) -> Self {
        let mut t = Self::zeros(num_vars);
        let mut assignment = vec![false; num_vars];
        for i in 0..(1usize << num_vars) {
            for (j, slot) in assignment.iter_mut().enumerate() {
                *slot = (i >> j) & 1 == 1;
            }
            if f(&assignment) {
                t.set_bit(i, true);
            }
        }
        t
    }

    /// Parses a hexadecimal string (most-significant nibble first, as printed
    /// by [`TruthTable::to_hex`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the string length does not match `2^num_vars / 4`
    /// (minimum one digit) or contains non-hex characters.
    pub fn from_hex(num_vars: usize, hex: &str) -> Result<Self, ParseTruthTableError> {
        let bits = 1usize << num_vars;
        let expected_digits = (bits / 4).max(1);
        if hex.len() != expected_digits {
            return Err(ParseTruthTableError::new(format!(
                "expected {expected_digits} hex digits for {num_vars} variables, got {}",
                hex.len()
            )));
        }
        let mut t = Self::zeros(num_vars);
        for (pos, ch) in hex.chars().rev().enumerate() {
            let value = ch
                .to_digit(16)
                .ok_or_else(|| ParseTruthTableError::new(format!("invalid hex digit '{ch}'")))?
                as u64;
            let bit_base = pos * 4;
            if bit_base >= bits && value != 0 {
                return Err(ParseTruthTableError::new("digit beyond table width"));
            }
            for b in 0..4 {
                if bit_base + b < bits && (value >> b) & 1 == 1 {
                    t.set_bit(bit_base + b, true);
                }
            }
        }
        Ok(t)
    }

    /// Parses a binary string written most-significant bit first (the
    /// convention of the paper's Fig. 1, e.g. `"0111"` is 2-input NAND).
    ///
    /// # Errors
    ///
    /// Returns an error if the length is not `2^num_vars` or the string
    /// contains characters other than `0`/`1`.
    pub fn from_binary_str(num_vars: usize, bits: &str) -> Result<Self, ParseTruthTableError> {
        let expected = 1usize << num_vars;
        if bits.len() != expected {
            return Err(ParseTruthTableError::new(format!(
                "expected {expected} binary digits, got {}",
                bits.len()
            )));
        }
        let mut t = Self::zeros(num_vars);
        for (pos, ch) in bits.chars().rev().enumerate() {
            match ch {
                '0' => {}
                '1' => t.set_bit(pos, true),
                _ => {
                    return Err(ParseTruthTableError::new(format!(
                        "invalid binary digit '{ch}'"
                    )))
                }
            }
        }
        Ok(t)
    }

    /// Renders the table as a hexadecimal string, most-significant nibble
    /// first.
    pub fn to_hex(&self) -> String {
        let bits = self.num_bits();
        let digits = (bits / 4).max(1);
        let mut out = String::with_capacity(digits);
        for d in (0..digits).rev() {
            let mut nibble = 0u64;
            for b in 0..4 {
                let bit = d * 4 + b;
                if bit < bits && self.get_bit(bit) {
                    nibble |= 1 << b;
                }
            }
            out.push(char::from_digit(nibble as u32, 16).expect("nibble is < 16"));
        }
        out
    }

    /// Renders the table as a binary string, most-significant bit first.
    pub fn to_binary_string(&self) -> String {
        (0..self.num_bits())
            .rev()
            .map(|i| if self.get_bit(i) { '1' } else { '0' })
            .collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of bits, `2^num_vars`.
    pub fn num_bits(&self) -> usize {
        1usize << self.num_vars
    }

    /// The packed words backing the table.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value of bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    pub fn get_bit(&self, index: usize) -> bool {
        assert!(index < self.num_bits(), "truth table bit out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 2^num_vars`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.num_bits(), "truth table bit out of range");
        if value {
            self.words[index / 64] |= 1 << (index % 64);
        } else {
            self.words[index / 64] &= !(1 << (index % 64));
        }
    }

    /// Evaluates the function for the given variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length differs from the number of variables.
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        assert_eq!(
            assignment.len(),
            self.num_vars,
            "assignment length must equal the number of variables"
        );
        let mut index = 0usize;
        for (j, &v) in assignment.iter().enumerate() {
            if v {
                index |= 1 << j;
            }
        }
        self.get_bit(index)
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the function is the constant zero.
    pub fn is_const0(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if the function is the constant one.
    pub fn is_const1(&self) -> bool {
        self.count_ones() == self.num_bits()
    }

    /// The positive cofactor with respect to `var` (the function with `var`
    /// fixed to 1), still expressed over the same variable set.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    #[must_use]
    pub fn cofactor1(&self, var: usize) -> TruthTable {
        assert!(var < self.num_vars, "variable index out of range");
        let mut out = self.clone();
        for i in 0..self.num_bits() {
            let partner = i | (1 << var);
            let value = self.get_bit(partner);
            out.set_bit(i, value);
        }
        out
    }

    /// The negative cofactor with respect to `var` (the function with `var`
    /// fixed to 0).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    #[must_use]
    pub fn cofactor0(&self, var: usize) -> TruthTable {
        assert!(var < self.num_vars, "variable index out of range");
        let mut out = self.clone();
        for i in 0..self.num_bits() {
            let partner = i & !(1 << var);
            let value = self.get_bit(partner);
            out.set_bit(i, value);
        }
        out
    }

    /// `true` if the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.cofactor0(var) != self.cofactor1(var)
    }

    /// Iterator over the indices of variables in the functional support.
    pub fn support(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_vars).filter(move |&v| self.depends_on(v))
    }

    /// Re-expresses the table over a larger variable set, mapping variable
    /// `i` of `self` to `var_map[i]` of the new table.
    ///
    /// # Panics
    ///
    /// Panics if `var_map` is shorter than the current variable count, if any
    /// target index is `>= new_num_vars`, or if targets repeat.
    #[must_use]
    pub fn extend_to(&self, new_num_vars: usize, var_map: &[usize]) -> TruthTable {
        assert!(var_map.len() >= self.num_vars, "variable map too short");
        let map = &var_map[..self.num_vars];
        assert!(
            map.iter().all(|&v| v < new_num_vars),
            "variable map target out of range"
        );
        let mut out = TruthTable::zeros(new_num_vars);
        for i in 0..(1usize << new_num_vars) {
            // Gather the bits of the original variables directly from the
            // wide minterm index (no per-minterm allocation).
            let mut local = 0usize;
            for (j, &v) in map.iter().enumerate() {
                local |= ((i >> v) & 1) << j;
            }
            if self.get_bit(local) {
                out.set_bit(i, true);
            }
        }
        out
    }

    pub(crate) fn mask_unused(&mut self) {
        let mask = used_bits_mask(self.num_vars);
        if self.num_vars < 6 {
            self.words[0] &= mask;
        }
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, 0x{})", self.num_vars, self.to_hex())
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl FromStr for TruthTable {
    type Err = ParseTruthTableError;

    /// Parses a hex string, inferring the variable count from the digit
    /// count (1 digit → 2 vars, 2 digits → 3 vars, 4 digits → 4 vars, …).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.len();
        if digits == 0 {
            return Err(ParseTruthTableError::new("empty string"));
        }
        let bits = digits * 4;
        if !bits.is_power_of_two() {
            return Err(ParseTruthTableError::new(
                "hex digit count must be a power of two",
            ));
        }
        let num_vars = bits.trailing_zeros() as usize;
        TruthTable::from_hex(num_vars, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        let zero = TruthTable::zeros(4);
        let one = TruthTable::ones(4);
        assert!(zero.is_const0());
        assert!(one.is_const1());
        assert_eq!(one.count_ones(), 16);
    }

    #[test]
    fn variables_have_expected_patterns() {
        let v0 = TruthTable::variable(3, 0);
        assert_eq!(v0.to_hex(), "aa");
        let v1 = TruthTable::variable(3, 1);
        assert_eq!(v1.to_hex(), "cc");
        let v2 = TruthTable::variable(3, 2);
        assert_eq!(v2.to_hex(), "f0");
    }

    #[test]
    fn variable_beyond_word_boundary() {
        let v6 = TruthTable::variable(7, 6);
        assert!(!v6.get_bit(0));
        assert!(v6.get_bit(64));
        assert!(!v6.get_bit(63));
        assert!(v6.get_bit(127));
        let v7 = TruthTable::variable(8, 7);
        assert!(!v7.get_bit(127));
        assert!(v7.get_bit(128));
    }

    #[test]
    fn hex_round_trip() {
        let t = TruthTable::from_hex(3, "e8").unwrap();
        assert_eq!(t.to_hex(), "e8");
        assert_eq!(t.count_ones(), 4); // maj3
        let parsed: TruthTable = "e8".parse().unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn hex_errors() {
        assert!(TruthTable::from_hex(3, "e").is_err());
        assert!(TruthTable::from_hex(2, "g").is_err());
        assert!("".parse::<TruthTable>().is_err());
        assert!("abc".parse::<TruthTable>().is_err());
    }

    #[test]
    fn binary_string_nand_example() {
        // Fig. 1 of the paper: TT "0111" is 2-input NAND (inputs 11 -> 0).
        let nand = TruthTable::from_binary_str(2, "0111").unwrap();
        assert!(!nand.evaluate(&[true, true]));
        assert!(nand.evaluate(&[false, true]));
        assert!(nand.evaluate(&[true, false]));
        assert!(nand.evaluate(&[false, false]));
        assert_eq!(nand.to_binary_string(), "0111");
    }

    #[test]
    fn evaluate_matches_bits() {
        let t = TruthTable::from_hex(2, "8").unwrap(); // AND
        assert!(t.evaluate(&[true, true]));
        assert!(!t.evaluate(&[true, false]));
        assert!(!t.evaluate(&[false, true]));
        assert!(!t.evaluate(&[false, false]));
    }

    #[test]
    fn cofactors_and_support() {
        let a = TruthTable::variable(3, 0);
        let b = TruthTable::variable(3, 1);
        let f = &a & &b; // depends on 0 and 1 only
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert!(!f.depends_on(2));
        assert_eq!(f.support().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(f.cofactor1(0), b);
        assert!(f.cofactor0(0).is_const0());
    }

    #[test]
    fn extend_to_remaps_variables() {
        let xor2 = TruthTable::from_hex(2, "6").unwrap();
        let widened = xor2.extend_to(4, &[3, 1]);
        for i in 0..16usize {
            let args: Vec<bool> = (0..4).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(widened.evaluate(&args), args[3] ^ args[1]);
        }
    }

    #[test]
    fn from_fn_matches_evaluate() {
        let f = TruthTable::from_fn(3, |a| (a[0] && a[1]) || a[2]);
        for i in 0..8usize {
            let args: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(f.evaluate(&args), (args[0] && args[1]) || args[2]);
        }
    }
}
