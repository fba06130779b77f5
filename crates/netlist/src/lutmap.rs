//! Depth-oriented LUT mapping: covering an AIG with k-feasible cuts to
//! produce a [`LutNetwork`].
//!
//! The paper's simulator operates on k-LUT networks (6-LUTs in Table I) and
//! its cut algorithm "maps the nodes which are not simulated into k-LUTs"
//! (Section III-A).  This module provides the standard mapping step: for each
//! AND node choose a best k-feasible cut (minimum depth, ties broken by
//! fewer leaves), then cover the network from the outputs, instantiating one
//! LUT per selected node whose function is the cut's truth table.

use crate::cuts::{cut_truth_table, enumerate_cuts, Cut, CutParams};
use crate::{Aig, AigNode, LutNetwork, LutNodeId, NodeId};
use std::collections::HashMap;
use truthtable::TruthTable;

/// A chosen cut per AND node together with its mapping cost.
#[derive(Debug, Clone)]
struct MappedCut {
    cut: Cut,
    depth: usize,
}

/// Maps an AIG into a k-LUT network with LUTs of at most `k` inputs,
/// `2 <= k <= TruthTable::MAX_VARS`.
///
/// The resulting network is functionally equivalent to the AIG (its outputs
/// compute the same functions of the same primary inputs, in the same
/// order); this is asserted by the crate's property tests.
///
/// # Panics
///
/// Panics if `k` is below 2 (one-input LUTs cannot cover an AND gate) or
/// larger than [`TruthTable::MAX_VARS`].
pub fn map_to_luts(aig: &Aig, k: usize) -> LutNetwork {
    assert!((2..=TruthTable::MAX_VARS).contains(&k), "invalid LUT size");
    let params = CutParams {
        max_leaves: k,
        max_cuts: 8,
    };
    let cut_sets = enumerate_cuts(aig, params);

    // Choose the best cut per AND node: minimise mapped depth, break ties by
    // leaf count (area proxy).
    let mut best: Vec<Option<MappedCut>> = vec![None; aig.num_nodes()];
    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const0 | AigNode::Input { .. } => {}
            AigNode::And { .. } => {
                let mut chosen: Option<MappedCut> = None;
                for cut in cut_sets[id].cuts() {
                    // Skip the trivial cut {id}: a LUT cannot feed itself.
                    if cut.size() == 1 && cut.leaves()[0] == id {
                        continue;
                    }
                    let depth = 1 + cut
                        .leaves()
                        .iter()
                        .map(|&leaf| best[leaf].as_ref().map_or(0, |m| m.depth))
                        .max()
                        .unwrap_or(0);
                    let better = match &chosen {
                        None => true,
                        Some(current) => {
                            depth < current.depth
                                || (depth == current.depth && cut.size() < current.cut.size())
                        }
                    };
                    if better {
                        chosen = Some(MappedCut {
                            cut: cut.clone(),
                            depth,
                        });
                    }
                }
                best[id] = Some(chosen.expect("every AND node has at least one non-trivial cut"));
            }
        }
    }

    // Cover from the outputs: walk the chosen cuts, instantiating LUTs for
    // every node that is actually needed.
    let mut net = LutNetwork::new();
    let mut node_map: HashMap<NodeId, LutNodeId> = HashMap::new();
    node_map.insert(0, 0); // constant
    for (pos, &input) in aig.inputs().iter().enumerate() {
        let lut_id = net.add_input(aig.input_name(pos).to_string());
        node_map.insert(input, lut_id);
    }

    // Recursively instantiate the LUT of an AIG node.
    fn instantiate(
        aig: &Aig,
        node: NodeId,
        best: &[Option<MappedCut>],
        net: &mut LutNetwork,
        node_map: &mut HashMap<NodeId, LutNodeId>,
    ) -> LutNodeId {
        if let Some(&mapped) = node_map.get(&node) {
            return mapped;
        }
        let chosen = best[node]
            .as_ref()
            .expect("only AND nodes reach instantiate without a map entry");
        let mut fanins = Vec::with_capacity(chosen.cut.size());
        for &leaf in chosen.cut.leaves() {
            let mapped = instantiate(aig, leaf, best, net, node_map);
            fanins.push(mapped);
        }
        let function = cut_truth_table(aig, node, &chosen.cut);
        let lut_id = net.add_lut(fanins, function);
        node_map.insert(node, lut_id);
        lut_id
    }

    for output in aig.outputs() {
        let driver = output.lit.node();
        let lut_id = instantiate(aig, driver, &best, &mut net, &mut node_map);
        net.add_output(output.name.clone(), lut_id, output.lit.is_complemented());
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_like_aig(width: usize) -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_inputs("a", width);
        let b = aig.add_inputs("b", width);
        let mut carry = crate::Lit::FALSE;
        for i in 0..width {
            let sum_i = aig.xor(a[i], b[i]);
            let sum = aig.xor(sum_i, carry);
            let c1 = aig.and(a[i], b[i]);
            let c2 = aig.and(sum_i, carry);
            carry = aig.or(c1, c2);
            aig.add_output(format!("s{i}"), sum);
        }
        aig.add_output("cout", carry);
        aig
    }

    fn check_equivalent(aig: &Aig, lut: &LutNetwork, num_inputs: usize) {
        let limit = 1usize << num_inputs.min(10);
        for i in 0..limit {
            let assignment: Vec<bool> = (0..num_inputs).map(|j| (i >> j) & 1 == 1).collect();
            assert_eq!(
                aig.evaluate(&assignment),
                lut.evaluate(&assignment),
                "mismatch for pattern {i}"
            );
        }
    }

    #[test]
    fn mapping_preserves_functionality() {
        let aig = adder_like_aig(3);
        for k in [2, 4, 6] {
            let lut = map_to_luts(&aig, k);
            assert_eq!(lut.num_pis(), aig.num_inputs());
            assert_eq!(lut.num_pos(), aig.num_outputs());
            assert!(lut.max_fanin() <= k);
            check_equivalent(&aig, &lut, 6);
        }
    }

    #[test]
    #[should_panic(expected = "invalid LUT size")]
    fn one_input_luts_are_refused() {
        map_to_luts(&adder_like_aig(1), 1);
    }

    #[test]
    fn larger_k_means_fewer_luts() {
        let aig = adder_like_aig(4);
        let lut2 = map_to_luts(&aig, 2);
        let lut6 = map_to_luts(&aig, 6);
        assert!(lut6.num_luts() <= lut2.num_luts());
        assert!(lut6.depth() <= lut2.depth());
    }

    #[test]
    fn outputs_on_inputs_and_constants() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        aig.add_output("direct", a);
        aig.add_output("inverted", !a);
        aig.add_output("zero", crate::Lit::FALSE);
        aig.add_output("one", crate::Lit::TRUE);
        let lut = map_to_luts(&aig, 4);
        assert_eq!(lut.evaluate(&[true]), vec![true, false, false, true]);
        assert_eq!(lut.evaluate(&[false]), vec![false, true, false, true]);
    }

    #[test]
    fn xor_chain_maps_into_single_lut() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 4);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.xor(acc, x);
        }
        aig.add_output("parity", acc);
        let lut = map_to_luts(&aig, 6);
        assert_eq!(lut.num_luts(), 1, "a 4-input parity fits in one 6-LUT");
        check_equivalent(&aig, &lut, 4);
    }
}
