//! Simulation signatures: the ordered set of values a node produces under a
//! pattern set.

use std::fmt;

/// A simulation signature: one bit per simulation pattern.
///
/// Signatures are the basis of equivalence-class computation in
/// SAT-sweeping: two nodes can only be functionally equivalent (up to
/// complementation) if their signatures agree (up to complementation) on
/// every simulated pattern.
///
/// ```
/// use bitsim::Signature;
///
/// let mut s = Signature::zeros(5);
/// s.set_bit(1, true);
/// s.set_bit(4, true);
/// assert_eq!(s.count_ones(), 2);
/// assert_eq!(s.to_binary_string(), "10010");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature {
    words: Vec<u64>,
    len: usize,
}

impl Signature {
    /// An all-zero signature over `len` patterns.
    pub fn zeros(len: usize) -> Self {
        Signature {
            words: vec![0; len.div_ceil(64).max(1)],
            len,
        }
    }

    /// An all-one signature over `len` patterns.
    pub fn ones(len: usize) -> Self {
        let mut s = Self::zeros(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.mask_tail();
        s
    }

    /// Builds a signature from packed words (little-endian bit order).
    ///
    /// Shorter inputs are zero-padded to the `len.div_ceil(64)` words the
    /// signature needs; bits beyond `len` in the last word are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds *more* words than `len` bits can occupy —
    /// excess words are almost certainly a caller bug (a signature built
    /// for the wrong pattern count), and silently dropping them would hide
    /// it.
    pub fn from_words(len: usize, words: Vec<u64>) -> Self {
        let needed = len.div_ceil(64).max(1);
        assert!(
            words.len() <= needed,
            "{} words cannot back a {len}-bit signature (expected at most {needed})",
            words.len(),
        );
        let mut s = Signature { words, len };
        s.words.resize(needed, 0);
        s.mask_tail();
        s
    }

    /// Builds a signature from an iterator of Booleans.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let collected: Vec<bool> = bits.into_iter().collect();
        let mut s = Self::zeros(collected.len());
        for (i, &b) in collected.iter().enumerate() {
            if b {
                s.set_bit(i, true);
            }
        }
        s
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the signature covers zero patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Value for pattern `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get_bit(&self, index: usize) -> bool {
        assert!(index < self.len, "signature index out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets the value for pattern `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set_bit(&mut self, index: usize, value: bool) {
        assert!(index < self.len, "signature index out of range");
        if value {
            self.words[index / 64] |= 1 << (index % 64);
        } else {
            self.words[index / 64] &= !(1 << (index % 64));
        }
    }

    /// Appends one more pattern value.
    pub fn push(&mut self, value: bool) {
        let index = self.len;
        self.len += 1;
        if self.words.len() * 64 < self.len {
            self.words.push(0);
        }
        self.set_bit(index, value);
    }

    /// Number of patterns under which the node evaluates to 1.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the node simulates to 0 under every pattern.
    pub fn is_const0(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if the node simulates to 1 under every pattern.
    pub fn is_const1(&self) -> bool {
        self.count_ones() == self.len && self.len > 0
    }

    /// Bitwise complement of the signature.
    #[must_use]
    pub fn complement(&self) -> Signature {
        let words = self.words.iter().map(|&w| !w).collect();
        Signature::from_words(self.len, words)
    }

    /// Renders the signature as a binary string with pattern 0 as the
    /// right-most character.
    pub fn to_binary_string(&self) -> String {
        (0..self.len)
            .rev()
            .map(|i| if self.get_bit(i) { '1' } else { '0' })
            .collect()
    }

    fn mask_tail(&mut self) {
        let used = self.len % 64;
        if used != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
        if self.len == 0 {
            for w in &mut self.words {
                *w = 0;
            }
        }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 64 {
            write!(f, "Signature({})", self.to_binary_string())
        } else {
            write!(f, "Signature(len={}, ones={})", self.len, self.count_ones())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_bits() {
        let s = Signature::from_bits([true, false, true, true]);
        assert_eq!(s.len(), 4);
        assert!(s.get_bit(0));
        assert!(!s.get_bit(1));
        assert_eq!(s.count_ones(), 3);
        assert_eq!(s.to_binary_string(), "1101");
    }

    #[test]
    fn from_words_pads_and_masks() {
        let s = Signature::from_words(70, vec![u64::MAX]);
        assert_eq!(s.len(), 70);
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.count_ones(), 64);
        let t = Signature::from_words(10, vec![u64::MAX]);
        assert_eq!(t.count_ones(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot back")]
    fn from_words_rejects_over_long_input() {
        // Two words can only back up to 128 bits; 65 bits need just two,
        // so three words must be rejected rather than silently truncated.
        let _ = Signature::from_words(65, vec![1, 2, 3]);
    }

    #[test]
    fn constants() {
        assert!(Signature::zeros(10).is_const0());
        assert!(Signature::ones(10).is_const1());
        assert!(!Signature::zeros(0).is_const1());
    }

    #[test]
    fn complement() {
        let s = Signature::from_bits([true, false, true]);
        let c = s.complement();
        assert_eq!(c.to_binary_string(), "010");
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn complement_masks_tail_bits() {
        let s = Signature::zeros(70);
        let c = s.complement();
        assert_eq!(c.count_ones(), 70);
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn push_grows() {
        let mut s = Signature::zeros(0);
        for i in 0..130 {
            s.push(i % 3 == 0);
        }
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 44);
    }
}
