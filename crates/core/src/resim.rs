//! Counter-example resimulation.
//!
//! When a satisfiable SAT query produces a counter-example, the sweeping
//! engine needs the *new pattern's* value for every node that is still a
//! merge candidate — nothing else.  Both engines therefore evaluate the
//! counter-example with [`eval_pattern_targets`]: a single-bit sweep over
//! the transitive fanin of the surviving candidates, `O(|TFI(targets)|)`
//! instead of an `O(nodes)` pass over the whole network.  The values feed
//! the two-way class split of [`crate::equiv::EquivClasses::refine`], and
//! the per-event counts (AND nodes evaluated vs. left alone) feed
//! [`crate::Observer::on_resimulation`] and the resimulation fields of
//! [`crate::SweepReport`].

use netlist::{Aig, AigNode, NodeId};

/// Evaluates the single input `assignment` over the transitive fanin of
/// `targets`.
///
/// Returns every node's value, indexed by [`NodeId`] — valid on the
/// targets' transitive fanin, `false` elsewhere — together with the number
/// of AND nodes that were evaluated.
///
/// # Panics
///
/// Panics if the assignment length differs from the AIG's input count or a
/// target id is out of range.
pub fn eval_pattern_targets(
    aig: &Aig,
    assignment: &[bool],
    targets: &[NodeId],
) -> (Vec<bool>, usize) {
    assert_eq!(
        assignment.len(),
        aig.num_inputs(),
        "assignment length must equal the number of inputs"
    );
    let num_nodes = aig.num_nodes();
    let mut value = vec![false; num_nodes];
    let mut known = vec![false; num_nodes];
    let mut evaluated = 0;
    // Iterative post-order walk restricted to the targets' transitive fanin.
    let mut stack: Vec<(NodeId, bool)> = targets.iter().rev().map(|&t| (t, false)).collect();
    while let Some((id, expanded)) = stack.pop() {
        if known[id] {
            continue;
        }
        match aig.node(id) {
            AigNode::Const0 => known[id] = true,
            AigNode::Input { position } => {
                value[id] = assignment[*position];
                known[id] = true;
            }
            AigNode::And { fanin0, fanin1 } => {
                if expanded {
                    let v0 = value[fanin0.node()] ^ fanin0.is_complemented();
                    let v1 = value[fanin1.node()] ^ fanin1.is_complemented();
                    value[id] = v0 && v1;
                    known[id] = true;
                    evaluated += 1;
                } else {
                    stack.push((id, true));
                    if !known[fanin0.node()] {
                        stack.push((fanin0.node(), false));
                    }
                    if !known[fanin1.node()] {
                        stack.push((fanin1.node(), false));
                    }
                }
            }
        }
    }
    (value, evaluated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::{AigSimulator, PatternSet};

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 5);
        let g1 = aig.and(xs[0], xs[1]);
        let g2 = aig.xor(xs[2], xs[3]);
        let g3 = aig.maj(xs[2], xs[3], xs[4]);
        let g4 = aig.mux(g1, g2, g3);
        aig.add_output("y", g4);
        aig.add_output("z", !g2);
        aig
    }

    #[test]
    fn single_pattern_eval_matches_full_simulation() {
        let aig = sample_aig();
        let targets: Vec<NodeId> = aig.and_ids().collect();
        let patterns = PatternSet::random(5, 40, 77).unwrap();
        let full = AigSimulator::new(&aig).run(&patterns);
        for p in 0..patterns.num_patterns() {
            let assignment = patterns.assignment(p);
            let (values, evaluated) = eval_pattern_targets(&aig, &assignment, &targets);
            assert_eq!(evaluated, aig.num_ands());
            for &t in &targets {
                assert_eq!(
                    values[t],
                    full.signature(t).get_bit(p),
                    "node {t}, pattern {p}"
                );
            }
        }
    }

    #[test]
    fn restricted_targets_visit_only_their_fanin() {
        let aig = sample_aig();
        // g1 = and(x0, x1) is the first AND node; its TFI holds no other AND.
        let first_and = aig.and_ids().next().unwrap();
        let (values, evaluated) =
            eval_pattern_targets(&aig, &[true, true, false, false, false], &[first_and]);
        assert_eq!(evaluated, 1);
        assert!(values[first_and]);
    }
}
