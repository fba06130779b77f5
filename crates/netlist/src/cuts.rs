//! k-feasible cut enumeration on AIGs.
//!
//! A *cut* of node `n` is a set of nodes (the *leaves*) such that every path
//! from a primary input to `n` passes through a leaf.  A cut is k-feasible if
//! it has at most `k` leaves.  Cut enumeration is the classic bottom-up
//! merge: the cuts of an AND node are obtained by pairwise union of its
//! fanins' cuts, pruned by size and dominance.  Cuts are the basis of both
//! LUT mapping ([`crate::lutmap`]) and of the paper's cut algorithm
//! (Section III-B), which needs the truth table of each cut.

use crate::{Aig, AigNode, NodeId};
use std::collections::HashMap;
use truthtable::TruthTable;

/// A cut: a sorted list of leaf node ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cut {
    leaves: Vec<NodeId>,
}

impl Cut {
    /// Creates the trivial cut `{node}`.
    pub fn trivial(node: NodeId) -> Self {
        Cut { leaves: vec![node] }
    }

    /// Creates a cut from a leaf list (sorted and deduplicated).
    pub fn from_leaves(mut leaves: Vec<NodeId>) -> Self {
        leaves.sort_unstable();
        leaves.dedup();
        Cut { leaves }
    }

    /// The sorted leaves.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn size(&self) -> usize {
        self.leaves.len()
    }

    /// Merges two cuts, returning `None` if the union exceeds `max_size`.
    pub fn merge(&self, other: &Cut, max_size: usize) -> Option<Cut> {
        let mut merged = Vec::with_capacity(self.leaves.len() + other.leaves.len());
        let (mut i, mut j) = (0, 0);
        while i < self.leaves.len() && j < other.leaves.len() {
            match self.leaves[i].cmp(&other.leaves[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.leaves[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.leaves[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.leaves[i]);
                    i += 1;
                    j += 1;
                }
            }
            if merged.len() > max_size {
                return None;
            }
        }
        merged.extend_from_slice(&self.leaves[i..]);
        merged.extend_from_slice(&other.leaves[j..]);
        if merged.len() > max_size {
            None
        } else {
            Some(Cut { leaves: merged })
        }
    }

    /// `true` if every leaf of `self` is also a leaf of `other` (so `self`
    /// dominates `other` and `other` can be pruned).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.leaves.len() > other.leaves.len() {
            return false;
        }
        self.leaves
            .iter()
            .all(|l| other.leaves.binary_search(l).is_ok())
    }
}

/// The bounded set of cuts stored per node during enumeration.
#[derive(Debug, Clone, Default)]
pub struct CutSet {
    cuts: Vec<Cut>,
}

impl CutSet {
    /// The cuts in the set.
    pub fn cuts(&self) -> &[Cut] {
        &self.cuts
    }

    /// Adds a cut unless it is dominated; removes cuts it dominates; keeps
    /// the set bounded by `max_cuts` (smallest cuts win).
    pub fn insert(&mut self, cut: Cut, max_cuts: usize) {
        if self.cuts.iter().any(|c| c.dominates(&cut)) {
            return;
        }
        self.cuts.retain(|c| !cut.dominates(c));
        self.cuts.push(cut);
        self.cuts.sort_by_key(|c| c.size());
        self.cuts.truncate(max_cuts);
    }
}

/// Parameters of cut enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum number of leaves per cut (the `k` of k-feasible).
    pub max_leaves: usize,
    /// Maximum number of cuts kept per node.
    pub max_cuts: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams {
            max_leaves: 6,
            max_cuts: 8,
        }
    }
}

/// Enumerates k-feasible cuts for every node of the AIG.
///
/// Index `i` of the result holds the cut set of node `i`.  Inputs and the
/// constant node only get their trivial cut.
pub fn enumerate_cuts(aig: &Aig, params: CutParams) -> Vec<CutSet> {
    let mut sets: Vec<CutSet> = vec![CutSet::default(); aig.num_nodes()];
    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const0 | AigNode::Input { .. } => {
                sets[id].insert(Cut::trivial(id), params.max_cuts);
            }
            AigNode::And { fanin0, fanin1 } => {
                // Collect cuts of the two fanins (clone to avoid aliasing the
                // mutable insertion below).
                let cuts0 = sets[fanin0.node()].cuts.clone();
                let cuts1 = sets[fanin1.node()].cuts.clone();
                let set = &mut sets[id];
                for a in &cuts0 {
                    for b in &cuts1 {
                        if let Some(merged) = a.merge(b, params.max_leaves) {
                            set.insert(merged, params.max_cuts);
                        }
                    }
                }
                // The trivial cut is always present so mapping can fall back
                // to a single-node LUT.
                set.insert(Cut::trivial(id), params.max_cuts);
            }
        }
    }
    sets
}

/// Computes the truth table of `root` expressed over the leaves of `cut`.
///
/// Leaf `i` of the cut corresponds to variable `i` of the returned table.
///
/// # Panics
///
/// Panics if the cut is not a valid cut of `root` (some path reaches an
/// input or the constant node without passing through a leaf is fine — the
/// constant contributes a constant — but a missing leaf containing logic
/// would recurse past it, which is detected when an input node that is not a
/// leaf is reached).
pub fn cut_truth_table(aig: &Aig, root: NodeId, cut: &Cut) -> TruthTable {
    let num_vars = cut.size();
    let mut cache: HashMap<NodeId, TruthTable> = HashMap::new();
    for (i, &leaf) in cut.leaves().iter().enumerate() {
        cache.insert(leaf, TruthTable::variable(num_vars, i));
    }
    compute_tt(aig, root, num_vars, &mut cache)
}

fn compute_tt(
    aig: &Aig,
    node: NodeId,
    num_vars: usize,
    cache: &mut HashMap<NodeId, TruthTable>,
) -> TruthTable {
    if let Some(tt) = cache.get(&node) {
        return tt.clone();
    }
    let tt = match aig.node(node) {
        AigNode::Const0 => TruthTable::zeros(num_vars),
        AigNode::Input { .. } => {
            panic!("cut does not cover input node {node}; invalid cut")
        }
        AigNode::And { fanin0, fanin1 } => {
            let t0 = compute_tt(aig, fanin0.node(), num_vars, cache);
            let t1 = compute_tt(aig, fanin1.node(), num_vars, cache);
            let t0 = if fanin0.is_complemented() { !&t0 } else { t0 };
            let t1 = if fanin1.is_complemented() { !&t1 } else { t1 };
            &t0 & &t1
        }
    };
    cache.insert(node, tt.clone());
    tt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_aig() -> (Aig, Vec<crate::Lit>, crate::Lit) {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs("x", 4);
        let g1 = aig.and(inputs[0], inputs[1]);
        let g2 = aig.or(inputs[2], inputs[3]);
        let root = aig.xor(g1, g2);
        aig.add_output("y", root);
        (aig, inputs, root)
    }

    #[test]
    fn merge_and_dominance() {
        let a = Cut::from_leaves(vec![1, 2]);
        let b = Cut::from_leaves(vec![2, 3]);
        let merged = a.merge(&b, 4).unwrap();
        assert_eq!(merged.leaves(), &[1, 2, 3]);
        assert!(a.merge(&b, 2).is_none());
        assert!(a.dominates(&merged));
        assert!(!merged.dominates(&a));
    }

    #[test]
    fn cut_set_prunes_dominated() {
        let mut set = CutSet::default();
        set.insert(Cut::from_leaves(vec![1, 2, 3]), 8);
        set.insert(Cut::from_leaves(vec![1, 2]), 8);
        assert_eq!(set.cuts().len(), 1);
        assert_eq!(set.cuts()[0].leaves(), &[1, 2]);
        // Inserting a cut dominated by {1, 2} is a no-op.
        set.insert(Cut::from_leaves(vec![1, 2, 4]), 8);
        assert_eq!(set.cuts().len(), 1);
        // A cut not containing {1, 2} is kept.
        set.insert(Cut::from_leaves(vec![1, 3]), 8);
        assert_eq!(set.cuts().len(), 2);
    }

    #[test]
    fn enumerate_finds_pi_cut() {
        let (aig, inputs, root) = small_aig();
        let sets = enumerate_cuts(&aig, CutParams::default());
        let root_cuts = sets[root.node()].cuts();
        assert!(!root_cuts.is_empty());
        let pi_nodes: Vec<usize> = inputs.iter().map(|l| l.node()).collect();
        let has_pi_cut = root_cuts
            .iter()
            .any(|c| c.leaves().iter().all(|l| pi_nodes.contains(l)) && c.size() == 4);
        assert!(has_pi_cut, "expected the 4-PI cut of the root");
    }

    #[test]
    fn cut_truth_table_matches_evaluation() {
        let (aig, inputs, root) = small_aig();
        let pi_cut = Cut::from_leaves(inputs.iter().map(|l| l.node()).collect());
        let tt = cut_truth_table(&aig, root.node(), &pi_cut);
        for i in 0..16usize {
            let assignment: Vec<bool> = (0..4).map(|j| (i >> j) & 1 == 1).collect();
            // The cut truth table describes the node, so undo the output
            // literal's complement before comparing with the PO value.
            let expected = aig.evaluate(&assignment)[0] ^ root.is_complemented();
            // Leaves are sorted by node id, which here matches PI order.
            assert_eq!(tt.evaluate(&assignment), expected, "pattern {i}");
        }
    }

    #[test]
    fn trivial_cut_truth_table_is_projection() {
        let (aig, _, root) = small_aig();
        let cut = Cut::trivial(root.node());
        let tt = cut_truth_table(&aig, root.node(), &cut);
        assert_eq!(tt, TruthTable::variable(1, 0));
    }

    #[test]
    #[should_panic(expected = "invalid cut")]
    fn invalid_cut_panics() {
        let (aig, _, root) = small_aig();
        // A cut that misses the inputs entirely.
        let cut = Cut::from_leaves(vec![root.node() - 1]);
        let _ = cut_truth_table(&aig, root.node(), &cut);
    }

    #[test]
    fn constant_in_cone_is_handled() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        // g = a & !a folds to constant false; build g2 = a | false explicitly.
        let g2 = aig.or(a, crate::Lit::FALSE);
        aig.add_output("y", g2);
        // g2 folds to `a`, so the cut TT of the output node is the projection.
        let cut = Cut::trivial(g2.node());
        let tt = cut_truth_table(&aig, g2.node(), &cut);
        assert_eq!(tt.num_vars(), 1);
    }
}
