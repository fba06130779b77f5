//! Cut-window collapse of an AIG, used by the STP sweeper's window verdicts.
//!
//! The STP-based refinement of Section IV-A works on the network being
//! swept: nodes that are *not* in any candidate equivalence class are mapped
//! into k-LUTs (their logic is absorbed into cut windows), and candidate
//! pairs are then compared exhaustively over their window leaves whenever
//! the window is small enough.  [`WindowIndex`] pre-computes, for every AND
//! node, a window (a cut with at most `limit` leaves) and the node's function
//! over that window, obtained by logic-matrix (truth-table) composition.
//! The index serves only these verdicts ([`WindowIndex::compare`]);
//! counter-examples are resimulated by [`crate::resim`].

use netlist::{Aig, AigNode, NodeId};
use truthtable::TruthTable;

/// A node's window: its function expressed over a small set of leaf nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Sorted leaf node ids.
    pub leaves: Vec<NodeId>,
    /// The node's function over the leaves (leaf `i` ↔ variable `i`).
    pub table: TruthTable,
}

impl Window {
    /// `true` if every leaf is a primary input or the constant node, in
    /// which case [`Window::table`] is the node's *global* function and an
    /// exhaustive comparison over the window is a complete equivalence
    /// proof.
    pub fn is_global(&self, aig: &Aig) -> bool {
        self.leaves
            .iter()
            .all(|&l| !matches!(aig.node(l), AigNode::And { .. }))
    }
}

/// Pre-computed windows for every node of an AIG.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    windows: Vec<Window>,
    limit: usize,
}

impl WindowIndex {
    /// Builds windows bottom-up: a node's window is the merge of its fanins'
    /// windows when that stays within `limit` leaves; otherwise the fanins
    /// themselves become the leaves.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 2` or `limit > TruthTable::MAX_VARS`.
    pub fn build(aig: &Aig, limit: usize) -> Self {
        assert!(
            (2..=TruthTable::MAX_VARS).contains(&limit),
            "window limit out of range"
        );
        let mut windows: Vec<Window> = Vec::with_capacity(aig.num_nodes());
        for id in aig.node_ids() {
            let window = match aig.node(id) {
                AigNode::Const0 => Window {
                    leaves: vec![id],
                    table: TruthTable::variable(1, 0),
                },
                AigNode::Input { .. } => Window {
                    leaves: vec![id],
                    table: TruthTable::variable(1, 0),
                },
                AigNode::And { fanin0, fanin1 } => {
                    let w0 = &windows[fanin0.node()];
                    let w1 = &windows[fanin1.node()];
                    let mut merged: Vec<NodeId> = w0.leaves.clone();
                    for &l in &w1.leaves {
                        if !merged.contains(&l) {
                            merged.push(l);
                        }
                    }
                    merged.sort_unstable();
                    if merged.len() <= limit {
                        let t0 = remap(&w0.table, &w0.leaves, &merged);
                        let t1 = remap(&w1.table, &w1.leaves, &merged);
                        let t0 = if fanin0.is_complemented() { !&t0 } else { t0 };
                        let t1 = if fanin1.is_complemented() { !&t1 } else { t1 };
                        Window {
                            leaves: merged,
                            table: &t0 & &t1,
                        }
                    } else {
                        // Use the direct fanins as leaves.
                        let mut leaves = vec![fanin0.node(), fanin1.node()];
                        leaves.sort_unstable();
                        leaves.dedup();
                        let table = if leaves.len() == 1 {
                            // Both fanins are the same node (possibly with
                            // different polarity); express directly.
                            let v = TruthTable::variable(1, 0);
                            let t0 = if fanin0.is_complemented() {
                                !&v
                            } else {
                                v.clone()
                            };
                            let t1 = if fanin1.is_complemented() { !&v } else { v };
                            &t0 & &t1
                        } else {
                            let pos0 = leaves
                                .iter()
                                .position(|&l| l == fanin0.node())
                                .expect("present");
                            let pos1 = leaves
                                .iter()
                                .position(|&l| l == fanin1.node())
                                .expect("present");
                            let v0 = TruthTable::variable(2, pos0);
                            let v1 = TruthTable::variable(2, pos1);
                            let t0 = if fanin0.is_complemented() { !&v0 } else { v0 };
                            let t1 = if fanin1.is_complemented() { !&v1 } else { v1 };
                            &t0 & &t1
                        };
                        Window { leaves, table }
                    }
                }
            };
            windows.push(window);
        }
        WindowIndex { windows, limit }
    }

    /// The window limit used at construction time.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The window of `node`.
    pub fn window(&self, node: NodeId) -> &Window {
        &self.windows[node]
    }

    /// Attempts to disprove or prove the equivalence of two nodes (up to the
    /// given complement relation) purely from their windows — the
    /// "exhaustive simulation" shortcut of Section IV-A.
    ///
    /// * `Some(true)`  — the nodes are provably equivalent: both windows are
    ///   global (all leaves are PIs) and their truth tables agree over the
    ///   union of the leaves.  This is a complete proof and needs no SAT
    ///   call.
    /// * `Some(false)` — the exhaustive window simulation distinguishes the
    ///   nodes.  When both windows are global this is a complete disproof;
    ///   when they are not, it is the same heuristic filter the paper uses
    ///   (the pair is dropped as a merge candidate — never merged — so
    ///   soundness of the sweep is unaffected).
    /// * `None` — the windows are not comparable; a SAT query is needed.
    pub fn compare(&self, aig: &Aig, a: NodeId, b: NodeId, complemented: bool) -> Option<bool> {
        let wa = &self.windows[a];
        let wb = &self.windows[b];
        if wa.leaves == wb.leaves {
            let tb = if complemented {
                !&wb.table
            } else {
                wb.table.clone()
            };
            let equal = wa.table == tb;
            if !equal {
                return Some(false);
            }
            return if wa.is_global(aig) { Some(true) } else { None };
        }
        // Different leaf sets: an exhaustive comparison is only conclusive
        // when both windows are global; then both tables are the nodes'
        // actual functions of the primary inputs and can be compared over
        // the union of the leaves.
        if !wa.is_global(aig) || !wb.is_global(aig) {
            return None;
        }
        let mut union = wa.leaves.clone();
        for &l in &wb.leaves {
            if !union.contains(&l) {
                union.push(l);
            }
        }
        union.sort_unstable();
        if union.len() > 16 {
            return None; // keep the exhaustive comparison bounded
        }
        let ta = remap(&wa.table, &wa.leaves, &union);
        let tb = remap(&wb.table, &wb.leaves, &union);
        let tb = if complemented { !&tb } else { tb };
        Some(ta == tb)
    }
}

fn remap(table: &TruthTable, old_leaves: &[NodeId], new_leaves: &[NodeId]) -> TruthTable {
    let var_map: Vec<usize> = old_leaves
        .iter()
        .map(|l| {
            new_leaves
                .iter()
                .position(|m| m == l)
                .expect("old leaf present in merged leaves")
        })
        .collect();
    table.extend_to(new_leaves.len(), &var_map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> (Aig, Vec<netlist::Lit>) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let g1 = aig.and(xs[0], xs[1]);
        let g2 = aig.xor(xs[2], xs[3]);
        let g3 = aig.maj(xs[3], xs[4], xs[5]);
        let g4 = aig.mux(g1, g2, g3);
        aig.add_output("y", g4);
        (aig, vec![g1, g2, g3, g4])
    }

    #[test]
    fn windows_match_global_function_when_small() {
        let (aig, gates) = sample_aig();
        let index = WindowIndex::build(&aig, 8);
        // With an 8-leaf limit every window of this small AIG is global.
        for lit in &gates {
            let w = index.window(lit.node());
            assert!(w.is_global(&aig), "window of {lit:?} should be global");
        }
        // The window truth table matches exhaustive evaluation.
        let g2 = gates[1];
        let w = index.window(g2.node());
        for bits in 0..(1usize << w.leaves.len()) {
            let mut assignment = vec![false; aig.num_inputs()];
            for (k, &leaf) in w.leaves.iter().enumerate() {
                if let AigNode::Input { position } = aig.node(leaf) {
                    assignment[*position] = (bits >> k) & 1 == 1;
                }
            }
            let mut values = vec![false; aig.num_nodes()];
            for id in aig.node_ids() {
                values[id] = match aig.node(id) {
                    AigNode::Const0 => false,
                    AigNode::Input { position } => assignment[*position],
                    AigNode::And { fanin0, fanin1 } => {
                        (values[fanin0.node()] ^ fanin0.is_complemented())
                            && (values[fanin1.node()] ^ fanin1.is_complemented())
                    }
                };
            }
            assert_eq!(w.table.get_bit(bits), values[g2.node()]);
        }
    }

    #[test]
    fn small_limit_cuts_windows() {
        let (aig, gates) = sample_aig();
        let index = WindowIndex::build(&aig, 2);
        assert_eq!(index.limit(), 2);
        let top = gates[3];
        let w = index.window(top.node());
        assert!(w.leaves.len() <= 2);
        assert!(!w.is_global(&aig));
    }

    #[test]
    fn compare_detects_equal_and_different_nodes() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        let g = aig.and(f, b); // equals f
        let h = aig.xor(a, b);
        aig.add_output("g", g);
        aig.add_output("h", h);
        let index = WindowIndex::build(&aig, 8);
        assert_eq!(index.compare(&aig, f.node(), g.node(), false), Some(true));
        assert_eq!(index.compare(&aig, f.node(), h.node(), false), Some(false));
        // Complemented comparison: f vs !g is definitely different.
        assert_eq!(index.compare(&aig, f.node(), g.node(), true), Some(false));
    }
}
