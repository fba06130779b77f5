//! Word-zip kernels shared by the level-evaluation paths.
//!
//! These are the innermost loops of bit-parallel simulation: bulk AND / OR
//! / AND-NOT over `u64` signature words, written as plain stride-1 slice
//! zips so the compiler's autovectorizer turns them into SIMD on any target
//! that has vector units.  The property tests check them against a naive
//! per-bit reference.

/// `out[w] = (a[w] ^ mask_a) & (b[w] ^ mask_b)` — the AIG AND kernel with
/// complement masks (`u64::MAX` complements an operand, `0` passes it
/// through).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn and2_masked(a: &[u64], b: &[u64], mask_a: u64, mask_b: u64, out: &mut [u64]) {
    assert!(a.len() == out.len() && b.len() == out.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = (x ^ mask_a) & (y ^ mask_b);
    }
}

/// `dst[w] &= src[w]`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

/// `dst[w] &= !src[w]`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d &= !s;
    }
}

/// `dst[w] |= src[w]`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    assert_eq!(dst.len(), src.len());
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// The two-plane ternary AND kernel with complement masks.
///
/// Each operand is a `(value, care)` word pair: a pattern bit is 0/1 where
/// the care bit is set and `X` where it is clear.  `mask_*` complements an
/// operand's *value* plane (`u64::MAX`) or passes it through (`0`);
/// complementation never changes definedness.  The result planes follow
/// Kleene AND:
///
/// * defined-1 where both operands are defined 1,
/// * defined-0 where either operand is defined 0,
/// * `X` otherwise.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[allow(clippy::too_many_arguments)]
pub fn ternary_and2_masked(
    val_a: &[u64],
    care_a: &[u64],
    val_b: &[u64],
    care_b: &[u64],
    mask_a: u64,
    mask_b: u64,
    out_val: &mut [u64],
    out_care: &mut [u64],
) {
    assert!(
        val_a.len() == out_val.len()
            && care_a.len() == out_val.len()
            && val_b.len() == out_val.len()
            && care_b.len() == out_val.len()
            && out_care.len() == out_val.len()
    );
    for w in 0..out_val.len() {
        let xa = val_a[w] ^ mask_a;
        let xb = val_b[w] ^ mask_b;
        let def1 = (care_a[w] & xa) & (care_b[w] & xb);
        let def0 = (care_a[w] & !xa) | (care_b[w] & !xb);
        out_val[w] = def1;
        out_care[w] = def0 | def1;
    }
}

/// `dst[w] = if invert { !src[w] } else { src[w] }` — the final write of a
/// polarity-folded LUT evaluation.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn copy_polarity(dst: &mut [u64], src: &[u64], invert: bool) {
    assert_eq!(dst.len(), src.len());
    if invert {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = !s;
        }
    } else {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(seed: u64, n: usize) -> Vec<u64> {
        // Deterministic xorshift-style filler; no RNG dependency.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    #[test]
    fn and2_masked_matches_reference() {
        for n in [0, 1, 3, 4, 5, 8, 17] {
            let a = pattern(1, n);
            let b = pattern(2, n);
            for (ma, mb) in [(0, 0), (u64::MAX, 0), (0, u64::MAX), (u64::MAX, u64::MAX)] {
                let mut out = vec![0u64; n];
                and2_masked(&a, &b, ma, mb, &mut out);
                for w in 0..n {
                    assert_eq!(out[w], (a[w] ^ ma) & (b[w] ^ mb));
                }
            }
        }
    }

    #[test]
    fn ternary_and2_matches_kleene_truth_table() {
        // One word, bits laid out as all 9 operand combinations of
        // {0, 1, X} × {0, 1, X}; remaining bits replicate combination 0.
        let encode = |v: [Option<bool>; 9]| -> (u64, u64) {
            let mut val = 0u64;
            let mut care = 0u64;
            for (bit, x) in v.iter().enumerate() {
                if let Some(b) = x {
                    care |= 1 << bit;
                    if *b {
                        val |= 1 << bit;
                    }
                }
            }
            (val, care)
        };
        let (zero, one, x) = (Some(false), Some(true), None);
        let a = [zero, zero, zero, one, one, one, x, x, x];
        let b = [zero, one, x, zero, one, x, zero, one, x];
        let (va, ka) = encode(a);
        let (vb, kb) = encode(b);
        for (ma, mb) in [(0, 0), (u64::MAX, 0), (0, u64::MAX), (u64::MAX, u64::MAX)] {
            let (mut ov, mut ok) = ([0u64], [0u64]);
            ternary_and2_masked(&[va], &[ka], &[vb], &[kb], ma, mb, &mut ov, &mut ok);
            for bit in 0..9 {
                let lhs = a[bit].map(|v| v ^ (ma != 0));
                let rhs = b[bit].map(|v| v ^ (mb != 0));
                let expected = match (lhs, rhs) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                };
                let got_care = ok[0] >> bit & 1 == 1;
                let got_val = ov[0] >> bit & 1 == 1;
                match expected {
                    Some(v) => {
                        assert!(got_care, "bit {bit} masks {ma:#x} {mb:#x}");
                        assert_eq!(got_val, v, "bit {bit} masks {ma:#x} {mb:#x}");
                    }
                    None => {
                        assert!(!got_care, "bit {bit} masks {ma:#x} {mb:#x}");
                        assert!(!got_val, "X is encoded with a zero value bit");
                    }
                }
            }
        }
    }

    #[test]
    fn assign_kernels_match_reference() {
        for n in [0, 1, 4, 7, 12, 33] {
            let src = pattern(3, n);
            let base = pattern(4, n);

            let mut d = base.clone();
            and_assign(&mut d, &src);
            assert!(d
                .iter()
                .zip(&base)
                .zip(&src)
                .all(|((&o, &b), &s)| o == b & s));

            let mut d = base.clone();
            andnot_assign(&mut d, &src);
            assert!(d
                .iter()
                .zip(&base)
                .zip(&src)
                .all(|((&o, &b), &s)| o == b & !s));

            let mut d = base.clone();
            or_assign(&mut d, &src);
            assert!(d
                .iter()
                .zip(&base)
                .zip(&src)
                .all(|((&o, &b), &s)| o == b | s));

            let mut d = vec![0u64; n];
            copy_polarity(&mut d, &src, false);
            assert_eq!(d, src);
            copy_polarity(&mut d, &src, true);
            assert!(d.iter().zip(&src).all(|(&o, &s)| o == !s));
        }
    }
}
