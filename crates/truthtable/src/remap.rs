//! Word-level variable remapping of truth tables.

use crate::table::{used_bits_mask, words_needed};
use crate::TruthTable;

/// In-word masks of the adjacent swaps: for variables `v` and `v + 1`,
/// `SWAP_MASKS[v]` holds the bits the swap keeps, the bits it moves up
/// (`v` set, `v + 1` clear) and the bits it moves down (the reverse).
const SWAP_MASKS: [[u64; 3]; 5] = [
    [
        0x9999_9999_9999_9999,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
    ],
    [
        0xC3C3_C3C3_C3C3_C3C3,
        0x0C0C_0C0C_0C0C_0C0C,
        0x3030_3030_3030_3030,
    ],
    [
        0xF00F_F00F_F00F_F00F,
        0x00F0_00F0_00F0_00F0,
        0x0F00_0F00_0F00_0F00,
    ],
    [
        0xFF00_00FF_FF00_00FF,
        0x0000_FF00_0000_FF00,
        0x00FF_0000_00FF_0000,
    ],
    [
        0xFFFF_0000_0000_FFFF,
        0x0000_0000_FFFF_0000,
        0x0000_FFFF_0000_0000,
    ],
];

/// Exchanges variables `var` and `var + 1` of the table held in `words`.
/// Below variable 5 this is a delta swap inside each word, at 5 ↔ 6 an
/// exchange of half-words between neighbouring words, and above that an
/// exchange of whole-word blocks.
fn swap_adjacent(words: &mut [u64], var: usize) {
    match var {
        0..=4 => {
            let [keep, up, down] = SWAP_MASKS[var];
            let shift = 1 << var;
            for w in words {
                *w = (*w & keep) | ((*w & up) << shift) | ((*w & down) >> shift);
            }
        }
        5 => {
            for pair in words.chunks_exact_mut(2) {
                let (lo, hi) = (pair[0], pair[1]);
                pair[0] = (lo & 0xFFFF_FFFF) | (hi << 32);
                pair[1] = (hi & 0xFFFF_FFFF_0000_0000) | (lo >> 32);
            }
        }
        _ => {
            let step = 1 << (var - 6);
            for block in words.chunks_exact_mut(4 * step) {
                let (a, b) = block[step..3 * step].split_at_mut(step);
                a.swap_with_slice(b);
            }
        }
    }
}

/// Re-expresses the table held in `words` over `new_num_vars` variables,
/// moving its variable `i` to variable `var_map[i]`, and writes the result
/// into `out`.  The table's variable count is `var_map.len()`, and the
/// variables no entry of `var_map` names are ones the result ignores.
///
/// The table is first replicated over the new variables; then its variables
/// move into place by adjacent-variable swaps, one word operation per word
/// and swap.  A strictly increasing `var_map` costs
/// `Σ (var_map[i] − i)` swaps.  `out` may hold anything beforehand, and
/// [`TruthTable::extend_to`] is this function on an owned table.
///
/// # Panics
///
/// Panics if `new_num_vars > TruthTable::MAX_VARS`, if `words` or `out` is
/// not as long as a table over `var_map.len()` or `new_num_vars` variables,
/// or if the targets of `var_map` are out of range or repeat.
///
/// ```
/// use truthtable::{remap, TruthTable};
///
/// let and2 = TruthTable::from_hex(2, "8")?;
/// let mut out = [0u64; 2];
/// remap(and2.words(), &[6, 1], 7, &mut out);
/// assert_eq!(TruthTable::from_words(7, &out), and2.extend_to(7, &[6, 1]));
/// # Ok::<(), truthtable::ParseTruthTableError>(())
/// ```
pub fn remap(words: &[u64], var_map: &[usize], new_num_vars: usize, out: &mut [u64]) {
    let num_vars = var_map.len();
    assert!(
        new_num_vars <= TruthTable::MAX_VARS,
        "too many truth table variables"
    );
    assert_eq!(words.len(), words_needed(num_vars), "source table length");
    assert_eq!(out.len(), words_needed(new_num_vars), "output table length");
    // `target[p]` is the variable that the table's current variable `p`
    // must end up as; the ignored variables take the free targets in order.
    let mut target = [0usize; TruthTable::MAX_VARS];
    let mut taken = 0u32;
    for (slot, &v) in target.iter_mut().zip(var_map) {
        assert!(v < new_num_vars, "variable map target out of range");
        assert!(taken & (1 << v) == 0, "variable map targets repeat");
        taken |= 1 << v;
        *slot = v;
    }
    let free = (0..new_num_vars).filter(|&v| taken & (1 << v) == 0);
    for (slot, v) in target[num_vars..new_num_vars].iter_mut().zip(free) {
        *slot = v;
    }

    if num_vars < 6 {
        let mut word = words[0] & used_bits_mask(num_vars);
        for v in num_vars..6 {
            word |= word << (1 << v);
        }
        out.fill(word);
    } else {
        for block in out.chunks_exact_mut(words.len()) {
            block.copy_from_slice(words);
        }
    }
    // Insertion sort of the variables by target, one adjacent swap per
    // inversion.
    for p in 1..new_num_vars {
        let mut q = p;
        while q > 0 && target[q - 1] > target[q] {
            swap_adjacent(out, q - 1);
            target.swap(q - 1, q);
            q -= 1;
        }
    }
    out[0] &= used_bits_mask(new_num_vars);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_swaps_exchange_variables_in_every_regime() {
        for var in 0..8 {
            let x = TruthTable::variable(9, var);
            let y = TruthTable::variable(9, var + 1);
            let mut words = (&x & &!&y).words().to_vec();
            swap_adjacent(&mut words, var);
            assert_eq!(TruthTable::from_words(9, &words), &y & &!&x, "var {var}");
        }
    }
}
