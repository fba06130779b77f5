//! Property-based tests of the netlist substrate: structural hashing, AIGER
//! round trips, cut truth tables and LUT mapping on randomly generated AIGs.

use netlist::cuts::{cut_truth_table, enumerate_cuts, CutParams};
use netlist::{lutmap, read_aiger_str, write_aiger_string, Aig, Lit};
use proptest::prelude::*;

/// A recipe for a random AIG: a list of gate descriptors over a small input
/// set.
#[derive(Debug, Clone)]
struct AigRecipe {
    num_inputs: usize,
    gates: Vec<(u8, usize, usize, bool, bool)>,
}

fn arb_recipe() -> impl Strategy<Value = AigRecipe> {
    (
        2usize..6,
        proptest::collection::vec(
            (
                0u8..5,
                any::<usize>(),
                any::<usize>(),
                any::<bool>(),
                any::<bool>(),
            ),
            1..30,
        ),
    )
        .prop_map(|(num_inputs, gates)| AigRecipe { num_inputs, gates })
}

fn build(recipe: &AigRecipe) -> Aig {
    let mut aig = Aig::new();
    let inputs = aig.add_inputs("x", recipe.num_inputs);
    let mut pool: Vec<Lit> = inputs;
    for &(op, a, b, na, nb) in &recipe.gates {
        let la = pool[a % pool.len()].complement_if(na);
        let lb = pool[b % pool.len()].complement_if(nb);
        let gate = match op % 5 {
            0 => aig.and(la, lb),
            1 => aig.or(la, lb),
            2 => aig.xor(la, lb),
            3 => aig.nand(la, lb),
            _ => {
                let lc = pool[(a ^ b) % pool.len()];
                aig.mux(la, lb, lc)
            }
        };
        pool.push(gate);
    }
    let outputs = pool.len().min(4);
    for (i, lit) in pool.iter().rev().take(outputs).enumerate() {
        aig.add_output(format!("y{i}"), *lit);
    }
    aig
}

fn exhaustive_outputs(aig: &Aig) -> Vec<Vec<bool>> {
    (0..(1usize << aig.num_inputs()))
        .map(|bits| {
            let assignment: Vec<bool> = (0..aig.num_inputs())
                .map(|j| (bits >> j) & 1 == 1)
                .collect();
            aig.evaluate(&assignment)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AIGER text round trips preserve the function exactly.
    #[test]
    fn aiger_round_trip(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let text = write_aiger_string(&aig);
        let parsed = read_aiger_str(&text).expect("own output parses");
        prop_assert_eq!(parsed.num_inputs(), aig.num_inputs());
        prop_assert_eq!(parsed.num_outputs(), aig.num_outputs());
        prop_assert_eq!(exhaustive_outputs(&parsed), exhaustive_outputs(&aig));
    }

    /// Cleanup never changes the function and never grows the network.
    #[test]
    fn cleanup_preserves_function(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let (cleaned, _) = aig.cleanup(&[]);
        prop_assert!(cleaned.num_ands() <= aig.num_ands());
        prop_assert_eq!(exhaustive_outputs(&cleaned), exhaustive_outputs(&aig));
    }

    /// LUT mapping preserves the function for several values of k.
    #[test]
    fn lut_mapping_preserves_function(recipe in arb_recipe(), k in 2usize..7) {
        let aig = build(&recipe);
        let lut = lutmap::map_to_luts(&aig, k);
        prop_assert!(lut.max_fanin() <= k);
        for bits in 0..(1usize << aig.num_inputs()) {
            let assignment: Vec<bool> =
                (0..aig.num_inputs()).map(|j| (bits >> j) & 1 == 1).collect();
            prop_assert_eq!(lut.evaluate(&assignment), aig.evaluate(&assignment));
        }
    }

    /// Every enumerated cut's truth table matches the node function.
    #[test]
    fn cut_truth_tables_are_correct(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let cuts = enumerate_cuts(&aig, CutParams { max_leaves: 4, max_cuts: 4 });
        // Check the first few AND nodes exhaustively.
        for node in aig.and_ids().take(6) {
            for cut in cuts[node].cuts().iter().take(2) {
                if cut.leaves() == [node] {
                    continue;
                }
                let tt = cut_truth_table(&aig, node, cut);
                // Evaluate the whole network for every assignment of the
                // inputs and compare the node value with the cut TT applied
                // to the leaf values.
                for bits in 0..(1usize << aig.num_inputs()) {
                    let assignment: Vec<bool> =
                        (0..aig.num_inputs()).map(|j| (bits >> j) & 1 == 1).collect();
                    let mut values = vec![false; aig.num_nodes()];
                    for id in aig.node_ids() {
                        values[id] = match aig.node(id) {
                            netlist::AigNode::Const0 => false,
                            netlist::AigNode::Input { position } => assignment[*position],
                            netlist::AigNode::And { fanin0, fanin1 } => {
                                (values[fanin0.node()] ^ fanin0.is_complemented())
                                    && (values[fanin1.node()] ^ fanin1.is_complemented())
                            }
                        };
                    }
                    let leaf_values: Vec<bool> =
                        cut.leaves().iter().map(|&l| values[l]).collect();
                    prop_assert_eq!(tt.evaluate(&leaf_values), values[node]);
                }
            }
        }
    }

    /// Structural hashing is idempotent: rebuilding an AIG gate by gate
    /// produces no more AND nodes than the original.
    #[test]
    fn rebuilding_never_grows(recipe in arb_recipe()) {
        let aig = build(&recipe);
        let mut rebuilt = Aig::new();
        let inputs: Vec<Lit> = (0..aig.num_inputs())
            .map(|i| rebuilt.add_input(aig.input_name(i).to_string()))
            .collect();
        let outs = rebuilt.append(&aig, &inputs);
        for (i, o) in outs.iter().enumerate() {
            rebuilt.add_output(format!("y{i}"), *o);
        }
        prop_assert!(rebuilt.num_ands() <= aig.num_ands());
        prop_assert_eq!(exhaustive_outputs(&rebuilt), exhaustive_outputs(&aig));
    }
}
