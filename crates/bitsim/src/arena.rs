//! Struct-of-arrays signature storage.
//!
//! [`SignatureArena`] keeps the signatures of *all* nodes of a network in
//! one contiguous `Vec<u64>` — node-major, with a fixed `words_per_sig`
//! stride — instead of one heap-allocated [`Signature`] per node.  The
//! layout buys three things:
//!
//! 1. **O(1) allocations**: a full simulation pass allocates the arena once
//!    instead of once per node;
//! 2. **locality**: a node's signature is a dense sub-slice, and the rows of
//!    a topological level are close together, so the level-evaluation
//!    kernels stream through memory instead of pointer-chasing;
//! 3. **cheap views**: [`SigRef`] is a `Copy` slice view that supports the
//!    read operations the sweeping engines need without cloning, and
//!    [`Signature`] stays the public boundary type via
//!    [`SigRef::to_signature`].
//!
//! The borrow puzzle of parallel level evaluation — every node of a level
//! writes its own row while reading fanin rows — is solved without `unsafe`
//! by [`SignatureArena::split_rows`]: a single `split_at_mut` walk hands out
//! the level's rows as disjoint `&mut [u64]` and wraps everything between
//! them in an [`ArenaRows`] reader.  Because node ids are topological
//! (fanins precede their node) and a node's fanins live on strictly lower
//! levels, no fanin is ever part of the level being written.

use crate::signature::Signature;

/// Number of `u64` words needed for `len` pattern bits (at least one).
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(64).max(1)
}

/// Mask selecting the valid bits of the last word of a `len`-bit row.
#[inline]
fn tail_mask(len: usize) -> u64 {
    if len % 64 == 0 && len > 0 {
        u64::MAX
    } else if len == 0 {
        0
    } else {
        (1u64 << (len % 64)) - 1
    }
}

/// A borrowed, read-only view of one signature row (see [`SignatureArena`]).
///
/// `SigRef` is `Copy` and exposes the read operations the sweeping engines
/// use on hot paths; [`SigRef::to_signature`] converts to the owned
/// boundary type when a caller needs to keep the bits.
#[derive(Debug, Clone, Copy)]
pub struct SigRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> SigRef<'a> {
    /// Wraps a word slice as a `len`-bit signature view.
    ///
    /// # Panics
    ///
    /// Panics if the slice is shorter than `len` requires.  Bits beyond
    /// `len` in the last word must be zero (the arena maintains this
    /// invariant for its rows).
    pub fn new(words: &'a [u64], len: usize) -> Self {
        assert!(
            words.len() >= words_for(len),
            "SigRef over {} words cannot hold {} bits",
            words.len(),
            len
        );
        SigRef {
            words: &words[..words_for(len)],
            len,
        }
    }

    /// Number of pattern bits in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the view holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (tail bits beyond [`SigRef::len`] are zero).
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Value of pattern `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn get_bit(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Number of patterns under which the node evaluates to one.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the node is zero under every pattern.
    pub fn is_const0(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` if the node is one under every pattern (and there is at least
    /// one pattern).
    pub fn is_const1(&self) -> bool {
        self.len > 0 && self.count_ones() == self.len
    }

    /// Copies the view into an owned [`Signature`].
    pub fn to_signature(&self) -> Signature {
        Signature::from_words(self.len, self.words.to_vec())
    }
}

impl PartialEq for SigRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.words == other.words
    }
}

impl Eq for SigRef<'_> {}

impl PartialEq<Signature> for SigRef<'_> {
    fn eq(&self, other: &Signature) -> bool {
        self.len == other.len() && self.words == other.words()
    }
}

impl PartialEq<SigRef<'_>> for Signature {
    fn eq(&self, other: &SigRef<'_>) -> bool {
        other == self
    }
}

/// Struct-of-arrays store for the signatures of every node of a network.
///
/// See the [module documentation](self) for the layout rationale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureArena {
    /// All rows, node-major: row `i` occupies
    /// `words[i * stride .. (i + 1) * stride]`.
    words: Vec<u64>,
    /// Words per row (`words_for(num_patterns)`).
    stride: usize,
    /// Pattern bits per row.
    num_patterns: usize,
    /// Number of rows (nodes).
    num_rows: usize,
}

impl SignatureArena {
    /// Creates a zeroed arena of `num_rows` rows of `num_patterns` bits.
    pub fn new(num_rows: usize, num_patterns: usize) -> Self {
        let stride = words_for(num_patterns);
        SignatureArena {
            words: vec![0u64; num_rows * stride],
            stride,
            num_patterns,
            num_rows,
        }
    }

    /// Number of rows (nodes).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Pattern bits per row.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Read access to row `i` (full stride).
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Write access to row `i` (full stride).
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// A [`SigRef`] view of row `i`.
    pub fn sig(&self, i: usize) -> SigRef<'_> {
        SigRef {
            words: self.row(i),
            len: self.num_patterns,
        }
    }

    /// Copies row `i` into an owned [`Signature`].
    pub fn to_signature(&self, i: usize) -> Signature {
        self.sig(i).to_signature()
    }

    /// Overwrites row `i` with the bits of `sig`.
    ///
    /// # Panics
    ///
    /// Panics if `sig.len()` differs from the arena's pattern count.
    pub fn set_signature(&mut self, i: usize, sig: &Signature) {
        assert_eq!(
            sig.len(),
            self.num_patterns,
            "signature length must match the arena's pattern count"
        );
        self.row_mut(i).copy_from_slice(sig.words());
    }

    /// Sets pattern bit `index` of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= num_patterns()`.
    pub fn set_bit(&mut self, i: usize, index: usize, value: bool) {
        assert!(index < self.num_patterns, "bit index {index} out of range");
        let stride = self.stride;
        let word = &mut self.words[i * stride + index / 64];
        if value {
            *word |= 1u64 << (index % 64);
        } else {
            *word &= !(1u64 << (index % 64));
        }
    }

    /// Zeroes the tail bits (beyond the pattern count) of row `i`.  Kernels
    /// that write whole words call this to restore the masked-tail
    /// invariant [`SigRef`] relies on.
    pub fn mask_row_tail(&mut self, i: usize) {
        let mask = tail_mask(self.num_patterns);
        let stride = self.stride;
        self.words[i * stride + stride - 1] &= mask;
    }

    /// Splits the arena at row `i`: read access to all rows before `i`
    /// (the natural shape of sequential topological evaluation, where every
    /// fanin id precedes the node id) plus write access to row `i` itself.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn split_at_row(&mut self, i: usize) -> (ArenaPrefix<'_>, &mut [u64]) {
        assert!(i < self.num_rows, "row {i} out of range");
        let stride = self.stride;
        let (prefix, rest) = self.words.split_at_mut(i * stride);
        (
            ArenaPrefix {
                words: prefix,
                stride,
                num_patterns: self.num_patterns,
            },
            &mut rest[..stride],
        )
    }

    /// Splits the arena into write access for the rows in `group` and read
    /// access ([`ArenaRows`]) to every other row.
    ///
    /// The returned `Vec<&mut [u64]>` holds one full-stride row per group
    /// entry, in `group` order.  This is the safe-Rust foundation of
    /// parallel level evaluation: a level's nodes write their rows while
    /// their fanins (never members of the same level) are read through the
    /// reader.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not strictly ascending or indexes out of range.
    pub fn split_rows(&mut self, group: &[usize]) -> (Vec<&mut [u64]>, ArenaRows<'_>) {
        let stride = self.stride;
        let mut rows: Vec<&mut [u64]> = Vec::with_capacity(group.len());
        let mut segments: Vec<&[u64]> = Vec::with_capacity(group.len() + 1);
        let mut seg_starts: Vec<usize> = Vec::with_capacity(group.len() + 1);
        let mut rest: &mut [u64] = &mut self.words;
        let mut cursor = 0usize; // row index at which `rest` begins
        for &g in group {
            assert!(g >= cursor, "group rows must be strictly ascending");
            assert!(g < self.num_rows, "group row {g} out of range");
            let taken = std::mem::take(&mut rest);
            let (before, tail) = taken.split_at_mut((g - cursor) * stride);
            let (row, tail) = tail.split_at_mut(stride);
            seg_starts.push(cursor);
            segments.push(before);
            rows.push(row);
            rest = tail;
            cursor = g + 1;
        }
        seg_starts.push(cursor);
        segments.push(rest);
        (
            rows,
            ArenaRows {
                segments,
                seg_starts,
                group: group.to_vec(),
                stride,
                num_patterns: self.num_patterns,
            },
        )
    }
}

/// Read access to the arena rows *before* a [`SignatureArena::split_at_row`]
/// split point while the split row is mutably borrowed.
#[derive(Debug)]
pub struct ArenaPrefix<'a> {
    words: &'a [u64],
    stride: usize,
    num_patterns: usize,
}

impl ArenaPrefix<'_> {
    /// Read access to row `i` (which must precede the split row).
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// A [`SigRef`] view of row `i`.
    pub fn sig(&self, i: usize) -> SigRef<'_> {
        SigRef {
            words: self.row(i),
            len: self.num_patterns,
        }
    }
}

/// Read access to the arena rows *outside* a [`SignatureArena::split_rows`]
/// group while the group rows are mutably borrowed.
#[derive(Debug)]
pub struct ArenaRows<'a> {
    /// The gaps between (and around) the group rows, in arena order.
    segments: Vec<&'a [u64]>,
    /// Row index at which each segment begins.
    seg_starts: Vec<usize>,
    /// The sorted group rows (not readable through this view).
    group: Vec<usize>,
    stride: usize,
    num_patterns: usize,
}

impl ArenaRows<'_> {
    /// Read access to row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is a member of the split group or out of range.
    pub fn row(&self, i: usize) -> &[u64] {
        let k = self.group.partition_point(|&g| g < i);
        assert!(
            self.group.get(k) != Some(&i),
            "row {i} is mutably borrowed by the split group"
        );
        let start = self.seg_starts[k];
        let offset = (i - start) * self.stride;
        &self.segments[k][offset..offset + self.stride]
    }

    /// A [`SigRef`] view of row `i` (same restrictions as
    /// [`ArenaRows::row`]).
    pub fn sig(&self, i: usize) -> SigRef<'_> {
        SigRef {
            words: self.row(i),
            len: self.num_patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_strided_and_masked() {
        let mut arena = SignatureArena::new(3, 65);
        assert_eq!(arena.stride(), 2);
        assert_eq!(arena.num_rows(), 3);
        arena.row_mut(1).fill(u64::MAX);
        arena.mask_row_tail(1);
        assert_eq!(arena.row(1), &[u64::MAX, 1]);
        let sig = arena.sig(1);
        assert_eq!(sig.len(), 65);
        assert_eq!(sig.count_ones(), 65);
        assert!(sig.is_const1());
        assert!(!sig.is_const0());
        assert!(arena.sig(0).is_const0());
    }

    #[test]
    fn split_rows_reads_around_the_group() {
        let mut arena = SignatureArena::new(5, 64);
        for i in 0..5 {
            arena.row_mut(i).fill(i as u64);
        }
        let (mut rows, reader) = arena.split_rows(&[1, 3]);
        assert_eq!(rows.len(), 2);
        assert_eq!(reader.row(0), &[0]);
        assert_eq!(reader.row(2), &[2]);
        assert_eq!(reader.row(4), &[4]);
        rows[0].fill(10);
        rows[1].fill(30);
        drop(rows);
        drop(reader);
        assert_eq!(arena.row(1), &[10]);
        assert_eq!(arena.row(3), &[30]);
    }

    #[test]
    #[should_panic(expected = "mutably borrowed")]
    fn split_rows_rejects_reading_group_rows() {
        let mut arena = SignatureArena::new(3, 8);
        let (_rows, reader) = arena.split_rows(&[1]);
        let _ = reader.row(1);
    }

    #[test]
    fn sigref_matches_signature_semantics() {
        let sig = Signature::from_bits([true, false, true, true, false]);
        let view = SigRef::new(sig.words(), sig.len());
        assert_eq!(view.len(), 5);
        assert_eq!(view.count_ones(), 3);
        assert!(view.get_bit(0));
        assert!(!view.get_bit(1));
        assert_eq!(view.to_signature(), sig);
        assert!(view == sig);
        assert!(sig == view);
    }

    #[test]
    fn set_signature_round_trips() {
        let sig = Signature::from_bits((0..100).map(|i| i % 3 == 0));
        let mut arena = SignatureArena::new(2, 100);
        arena.set_signature(1, &sig);
        assert_eq!(arena.to_signature(1), sig);
    }
}
