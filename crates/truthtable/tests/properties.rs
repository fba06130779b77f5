//! Property-based tests of the truth-table package.

use proptest::prelude::*;
use truthtable::{compose, remap, TruthTable};

/// The per-minterm remap: bit `i` of the result is the bit of `t` at the
/// minterm that gathers the bits of `i` at the mapped positions.
fn extend_reference(t: &TruthTable, new_num_vars: usize, var_map: &[usize]) -> TruthTable {
    let mut out = TruthTable::zeros(new_num_vars);
    for i in 0..(1usize << new_num_vars) {
        let mut local = 0usize;
        for (j, &v) in var_map.iter().enumerate() {
            local |= ((i >> v) & 1) << j;
        }
        if t.get_bit(local) {
            out.set_bit(i, true);
        }
    }
    out
}

fn arb_table(num_vars: usize) -> impl Strategy<Value = TruthTable> {
    let words = (1usize << num_vars).div_ceil(64).max(1);
    proptest::collection::vec(any::<u64>(), words)
        .prop_map(move |w| TruthTable::from_words(num_vars, &w))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Boolean algebra laws hold bitwise.
    #[test]
    fn de_morgan_and_involution(a in arb_table(5), b in arb_table(5)) {
        prop_assert_eq!(!&(&a & &b), &(!&a) | &(!&b));
        prop_assert_eq!(!&(!&a), a.clone());
        prop_assert_eq!(&a ^ &b, &(&a | &b) & &(!&(&a & &b)));
    }

    /// Hex serialisation round trips.
    #[test]
    fn hex_round_trip(t in arb_table(6)) {
        let hex = t.to_hex();
        let parsed = TruthTable::from_hex(6, &hex).expect("valid hex");
        prop_assert_eq!(parsed, t);
    }

    /// Binary-string serialisation round trips.
    #[test]
    fn binary_round_trip(t in arb_table(4)) {
        let s = t.to_binary_string();
        let parsed = TruthTable::from_binary_str(4, &s).expect("valid binary");
        prop_assert_eq!(parsed, t);
    }

    /// Shannon expansion: f = (x & f|x=1) | (!x & f|x=0).
    #[test]
    fn shannon_expansion(t in arb_table(5), var in 0usize..5) {
        let x = TruthTable::variable(5, var);
        let hi = t.cofactor1(var);
        let lo = t.cofactor0(var);
        let rebuilt = &(&x & &hi) | &(&(!&x) & &lo);
        prop_assert_eq!(rebuilt, t);
    }

    /// Cofactors remove the variable from the support.
    #[test]
    fn cofactors_remove_dependence(t in arb_table(4), var in 0usize..4) {
        prop_assert!(!t.cofactor0(var).depends_on(var));
        prop_assert!(!t.cofactor1(var).depends_on(var));
    }

    /// `evaluate` agrees with `get_bit` under the variable-0-is-LSB
    /// convention.
    #[test]
    fn evaluate_matches_bits(t in arb_table(4), index in 0usize..16) {
        let assignment: Vec<bool> = (0..4).map(|j| (index >> j) & 1 == 1).collect();
        prop_assert_eq!(t.evaluate(&assignment), t.get_bit(index));
    }

    /// Composition with projection functions is variable remapping.
    #[test]
    fn compose_with_projections_is_identity(t in arb_table(3)) {
        let projections: Vec<TruthTable> =
            (0..3).map(|i| TruthTable::variable(3, i)).collect();
        prop_assert_eq!(compose(&t, &projections), t);
    }

    /// Composition agrees with pointwise evaluation.
    #[test]
    fn compose_matches_pointwise(outer in arb_table(2), f in arb_table(3), g in arb_table(3)) {
        let composed = compose(&outer, &[f.clone(), g.clone()]);
        for i in 0..8usize {
            let assignment: Vec<bool> = (0..3).map(|j| (i >> j) & 1 == 1).collect();
            let expected = outer.evaluate(&[f.evaluate(&assignment), g.evaluate(&assignment)]);
            prop_assert_eq!(composed.evaluate(&assignment), expected);
        }
    }

    /// Extending to a superset of variables preserves the function.
    #[test]
    fn extend_to_preserves_function(t in arb_table(3)) {
        let widened = t.extend_to(5, &[4, 0, 2]);
        for i in 0..32usize {
            let assignment: Vec<bool> = (0..5).map(|j| (i >> j) & 1 == 1).collect();
            let local = [assignment[4], assignment[0], assignment[2]];
            prop_assert_eq!(widened.evaluate(&assignment), t.evaluate(&local));
        }
    }

    /// The word-level remap equals the per-minterm one for tables over 0–8
    /// variables and injective maps, monotone or not, into up to 12
    /// variables: in-word, half-word and whole-word swaps alike.  It
    /// overwrites whatever its output buffer held.
    #[test]
    fn remap_matches_per_minterm_reference(
        num_vars in 0usize..9,
        extra in 0usize..5,
        words in proptest::collection::vec(any::<u64>(), 4),
        order in proptest::collection::vec(any::<u64>(), 12),
        monotone in any::<bool>(),
    ) {
        let new_num_vars = num_vars + extra;
        let t = TruthTable::from_words(num_vars, &words);
        // A random choice of `num_vars` distinct targets: the new variables
        // sorted by their random key.
        let mut var_map: Vec<usize> = (0..new_num_vars).collect();
        var_map.sort_by_key(|&v| order[v]);
        var_map.truncate(num_vars);
        if monotone {
            var_map.sort_unstable();
        }
        let expected = extend_reference(&t, new_num_vars, &var_map);
        prop_assert_eq!(t.extend_to(new_num_vars, &var_map), expected.clone());
        let mut out = vec![u64::MAX; expected.words().len()];
        remap(t.words(), &var_map, new_num_vars, &mut out);
        prop_assert_eq!(out.as_slice(), expected.words());
    }

    /// Counting ones is consistent with complementation.
    #[test]
    fn count_ones_complement(t in arb_table(6)) {
        prop_assert_eq!(t.count_ones() + (!&t).count_ones(), t.num_bits());
    }
}
