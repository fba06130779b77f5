//! Cut windows of an AIG, used by the STP sweeper's window verdicts.
//!
//! The STP-based refinement of Section IV-A compares candidate pairs
//! exhaustively over small cut windows.  [`WindowIndex`] pre-computes, for
//! every node of the network being swept, a window (a cut with at most
//! `limit` leaves) and the node's function over that window, obtained by
//! logic-matrix (truth-table) composition: an AND's table is its fanins'
//! tables re-expressed over the merged leaves ([`truthtable::remap`]) and
//! ANDed.  All windows live in one flat arena, so a build allocates nothing
//! per node.  The index serves only these verdicts
//! ([`WindowIndex::compare`]); counter-examples are resimulated by
//! [`crate::resim`].

use crate::report::MAX_WINDOW_LIMIT;
use netlist::{Aig, AigNode, NodeId};
use truthtable::{remap, used_bits_mask, words_needed, TruthTable};

/// The table of a node that is its own only leaf: variable 0 of one.
const PROJECTION: u64 = 0b10;

/// A node's window: its function over a small set of leaf nodes, borrowed
/// from a [`WindowIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window<'a> {
    /// Sorted leaf node ids.
    pub leaves: &'a [NodeId],
    /// The words of the node's function over the leaves (leaf `i` ↔
    /// variable `i`), laid out as in [`TruthTable::words`].
    pub words: &'a [u64],
}

impl<'a> Window<'a> {
    /// The window of a node cut at itself.
    fn leaf(node: &'a NodeId) -> Self {
        Window {
            leaves: std::slice::from_ref(node),
            words: &[PROJECTION],
        }
    }

    /// The node's function over the leaves as an owned table.
    pub fn table(&self) -> TruthTable {
        TruthTable::from_words(self.leaves.len(), self.words)
    }

    /// `true` if every leaf is a primary input or the constant node, in
    /// which case [`Window::table`] is the node's *global* function and an
    /// exhaustive comparison over the window is a complete equivalence
    /// proof.
    pub fn is_global(&self, aig: &Aig) -> bool {
        self.leaves
            .iter()
            .all(|&l| !matches!(aig.node(l), AigNode::And { .. }))
    }

    /// Writes the table re-expressed over `num_vars` merged leaves into
    /// `out`, leaf `i` moving to `map[i]`.
    fn remap_into(&self, map: &[usize], num_vars: usize, out: &mut [u64]) {
        remap(self.words, &map[..self.leaves.len()], num_vars, out);
    }
}

/// Pre-computed windows for every node of an AIG, in one flat arena.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    /// Node `n`'s leaves are `leaves[leaf_start[n]..leaf_start[n + 1]]`.
    leaf_start: Vec<usize>,
    leaves: Vec<NodeId>,
    /// Node `n`'s table is `words[word_start[n]..word_start[n + 1]]`.
    word_start: Vec<usize>,
    words: Vec<u64>,
    limit: usize,
}

impl WindowIndex {
    /// Builds windows bottom-up: a node's window is the merge of its fanins'
    /// windows when that stays within `limit` leaves; otherwise the fanins
    /// themselves become the leaves.
    ///
    /// # Panics
    ///
    /// Panics if `limit < 2` or `limit > MAX_WINDOW_LIMIT` (16), the range
    /// [`crate::SweepConfig::validate`] accepts.
    pub fn build(aig: &Aig, limit: usize) -> Self {
        assert!(
            (2..=MAX_WINDOW_LIMIT).contains(&limit),
            "window limit out of range"
        );
        let mut index = WindowIndex {
            leaf_start: Vec::with_capacity(aig.num_nodes() + 1),
            leaves: Vec::new(),
            word_start: Vec::with_capacity(aig.num_nodes() + 1),
            words: Vec::new(),
            limit,
        };
        index.leaf_start.push(0);
        index.word_start.push(0);
        let mut merged = [0; MAX_WINDOW_LIMIT];
        let mut maps = [[0; MAX_WINDOW_LIMIT]; 2];
        let mut tables = vec![0; 2 * words_needed(limit)];
        for id in aig.node_ids() {
            match aig.node(id) {
                AigNode::Const0 | AigNode::Input { .. } => {
                    index.leaves.push(id);
                    index.words.push(PROJECTION);
                }
                AigNode::And { fanin0, fanin1 } => {
                    let cut = [fanin0.node(), fanin1.node()];
                    let mut fanins = cut.map(|f| index.window(f));
                    let k = match merge_leaves(fanins, &mut merged[..limit], &mut maps) {
                        Some(k) => k,
                        None => {
                            // Use the direct fanins as leaves.
                            fanins = cut.each_ref().map(Window::leaf);
                            merge_leaves(fanins, &mut merged, &mut maps).expect("two leaves fit")
                        }
                    };
                    let n = words_needed(k);
                    let (t0, t1) = tables[..2 * n].split_at_mut(n);
                    fanins[0].remap_into(&maps[0], k, t0);
                    fanins[1].remap_into(&maps[1], k, t1);
                    let [c0, c1] =
                        [fanin0, fanin1].map(|f| if f.is_complemented() { u64::MAX } else { 0 });
                    let used = used_bits_mask(k);
                    index.leaves.extend_from_slice(&merged[..k]);
                    index.words.extend(
                        t0.iter()
                            .zip(t1.iter())
                            .map(|(&a, &b)| (a ^ c0) & (b ^ c1) & used),
                    );
                }
            }
            index.leaf_start.push(index.leaves.len());
            index.word_start.push(index.words.len());
        }
        index
    }

    /// The window limit used at construction time.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The window of `node`.
    pub fn window(&self, node: NodeId) -> Window<'_> {
        Window {
            leaves: &self.leaves[self.leaf_start[node]..self.leaf_start[node + 1]],
            words: &self.words[self.word_start[node]..self.word_start[node + 1]],
        }
    }

    /// Attempts to disprove or prove the equivalence of two nodes (up to the
    /// given complement relation) purely from their windows — the
    /// "exhaustive simulation" shortcut of Section IV-A.  Each table is the
    /// node's exact function of its leaf signals, so equal tables over the
    /// union of the leaves prove the pair whatever the leaves are.
    ///
    /// * `Some(true)`  — the nodes are provably equivalent: their truth
    ///   tables agree over the union of the leaves (at most 16).  This is a
    ///   complete proof and needs no SAT call.
    /// * `Some(false)` — the exhaustive window simulation distinguishes the
    ///   nodes over the same leaf set, or over a union of global windows
    ///   (all leaves are PIs).  When both windows are global this is a
    ///   complete disproof; when they are not, it is the same heuristic
    ///   filter the paper uses (the pair is dropped as a merge candidate —
    ///   never merged — so soundness of the sweep is unaffected).
    /// * `None` — the windows are not comparable (a union of more than 16
    ///   leaves, or unequal tables over different non-global leaf sets); a
    ///   SAT query is needed.
    pub fn compare(&self, aig: &Aig, a: NodeId, b: NodeId, complemented: bool) -> Option<bool> {
        let windows = [self.window(a), self.window(b)];
        let [wa, wb] = windows;
        if wa.leaves == wb.leaves {
            return Some(equal_tables(
                wa.words,
                wb.words,
                wa.leaves.len(),
                complemented,
            ));
        }
        // No comparison over a union of more than 16 leaves: keep the
        // exhaustive comparison bounded.
        let mut union = [0; MAX_WINDOW_LIMIT];
        let mut maps = [[0; MAX_WINDOW_LIMIT]; 2];
        let k = merge_leaves(windows, &mut union, &mut maps)?;
        let n = words_needed(k);
        let mut tables = vec![0; 2 * n];
        let (ta, tb) = tables.split_at_mut(n);
        wa.remap_into(&maps[0], k, ta);
        wb.remap_into(&maps[1], k, tb);
        // Unequal tables over non-global leaves may differ only on leaf
        // values the circuit never produces.
        if equal_tables(ta, tb, k, complemented) {
            Some(true)
        } else if wa.is_global(aig) && wb.is_global(aig) {
            Some(false)
        } else {
            None
        }
    }
}

/// Merges the sorted leaf sets of two windows into `merged`, recording in
/// `maps[w][i]` where leaf `i` of window `w` lands.  Returns the number of
/// merged leaves, or `None` if there are more than `merged.len()`.
fn merge_leaves(
    windows: [Window<'_>; 2],
    merged: &mut [NodeId],
    maps: &mut [[usize; MAX_WINDOW_LIMIT]; 2],
) -> Option<usize> {
    let [a, b] = windows.map(|w| w.leaves);
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let x = a.get(i).copied().unwrap_or(NodeId::MAX);
        let y = b.get(j).copied().unwrap_or(NodeId::MAX);
        let leaf = x.min(y);
        *merged.get_mut(k)? = leaf;
        if x == leaf {
            maps[0][i] = k;
            i += 1;
        }
        if y == leaf {
            maps[1][j] = k;
            j += 1;
        }
        k += 1;
    }
    Some(k)
}

/// `true` if two tables over `num_vars` variables are equal, or each
/// other's complement when `complemented`.
fn equal_tables(a: &[u64], b: &[u64], num_vars: usize, complemented: bool) -> bool {
    let flip = if complemented {
        used_bits_mask(num_vars)
    } else {
        0
    };
    a.iter().zip(b).all(|(&x, &y)| x ^ y == flip)
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
            assert_eq!(w.table().get_bit(bits), values[g2.node()]);
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

    #[test]
    fn equal_tables_over_non_input_leaves_prove_the_pair() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 5);
        let m = aig.and(xs[0], xs[1]);
        let n = aig.and(xs[2], xs[3]);
        // m ⊕ n twice, and once more over an extra leaf it ignores.
        let x1 = aig.xor(m, n);
        let t = aig.or(m, n);
        let b = aig.nand(m, n);
        let x2 = aig.and(t, b);
        let p = aig.or(x2, xs[4]);
        let q = aig.or(x2, !xs[4]);
        let x3 = aig.and(p, q);
        let k = aig.and(m, n);
        aig.add_output("y", x3);
        // Three-leaf windows stop at m and n.
        let index = WindowIndex::build(&aig, 3);
        let (w1, w2, w3) = (
            index.window(x1.node()),
            index.window(x2.node()),
            index.window(x3.node()),
        );
        assert_eq!(w1.leaves, vec![m.node(), n.node()]);
        assert_eq!(w1.leaves, w2.leaves);
        assert_eq!(w3.leaves.len(), 3);
        assert!(!w1.is_global(&aig) && !w3.is_global(&aig));
        // The xor's node is the complement of the literal it returns.
        assert!(x1.is_complemented() && !x2.is_complemented());
        // The same leaf set: equal tables prove, unequal ones disprove.
        assert_eq!(index.compare(&aig, x2.node(), x1.node(), true), Some(true));
        assert_eq!(
            index.compare(&aig, x2.node(), x1.node(), false),
            Some(false)
        );
        // A leaf union of three: equal tables prove; unequal tables over
        // non-input leaves settle nothing.
        assert_eq!(index.compare(&aig, x3.node(), x2.node(), false), Some(true));
        assert_eq!(index.compare(&aig, x3.node(), k.node(), false), None);
    }
}
