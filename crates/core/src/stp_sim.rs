//! The STP-based k-LUT network simulator (Algorithm 1 of the paper).
//!
//! A logic matrix is a truth table read column-wise (Definition 2), so the
//! simulator's primitive is *logic-matrix column selection*: the output of a
//! node under one pattern is obtained by a single indexing operation into
//! the node's matrix, instead of decomposing the LUT into bitwise operations.
//!
//! Two modes are provided, mirroring Algorithm 1:
//!
//! * [`StpSimulator::simulate_all`] — visit all nodes in topological order
//!   and compute each output by one matrix pass per pattern (`m = a`).
//! * [`StpSimulator::simulate_nodes`] — only the *specified* nodes are of
//!   interest (`m = s`): the network is first cut into tree-shaped regions
//!   with at most `limit = ⌊log₂ |P|⌋` leaves (Section III-B), the truth
//!   table of every cut is obtained by STP composition of the member
//!   matrices, and only the cut roots are simulated.

use bitsim::{kernels, parallel, PatternSet, SigRef, Signature, SignatureArena};
use netlist::{LutNetwork, LutNode, LutNodeId};
use std::collections::HashMap;
use truthtable::{compose, TruthTable};

/// Hard ceiling on the number of leaves of a collapsed cut (beyond this the
/// cut is split; composing larger truth tables would cost more than it
/// saves, cf. the paper's "fewer than 16 leaf nodes" restriction).
pub const MAX_CUT_LEAVES: usize = 16;

/// Result of an all-nodes STP simulation: one [`SignatureArena`] row per
/// node.
#[derive(Debug, Clone)]
pub struct StpSimState {
    arena: SignatureArena,
}

impl StpSimState {
    /// A borrowed view of the signature of `node`.
    pub fn signature(&self, node: LutNodeId) -> SigRef<'_> {
        self.arena.sig(node)
    }

    /// The signature of output `index` (complement applied).
    pub fn output_signature(&self, net: &LutNetwork, index: usize) -> Signature {
        let output = &net.outputs()[index];
        let sig = self.signature(output.node).to_signature();
        if output.complemented {
            sig.complement()
        } else {
            sig
        }
    }

    /// Number of simulated patterns.
    pub fn num_patterns(&self) -> usize {
        self.arena.num_patterns()
    }

    /// The backing signature arena.
    pub fn arena(&self) -> &SignatureArena {
        &self.arena
    }
}

/// The STP-based simulator over a k-LUT network.
#[derive(Debug, Clone)]
pub struct StpSimulator<'a> {
    net: &'a LutNetwork,
    /// The logic matrix (packed truth-table row) of every LUT node, plus its
    /// fanins, pre-extracted so that the simulation loop touches flat arrays
    /// only.
    node_words: Vec<Vec<u64>>,
    node_fanins: Vec<Vec<LutNodeId>>,
}

impl<'a> StpSimulator<'a> {
    /// Prepares the simulator: the packed truth-table words of every LUT
    /// are its logic matrix read column-wise (Definition 2), so they are
    /// copied once into flat per-node rows.
    pub fn new(net: &'a LutNetwork) -> Self {
        let mut node_words = Vec::with_capacity(net.num_nodes());
        let mut node_fanins = Vec::with_capacity(net.num_nodes());
        for id in net.node_ids() {
            match net.node(id) {
                LutNode::Lut { fanins, function } => {
                    node_words.push(function.words().to_vec());
                    node_fanins.push(fanins.clone());
                }
                _ => {
                    node_words.push(Vec::new());
                    node_fanins.push(Vec::new());
                }
            }
        }
        StpSimulator {
            net,
            node_words,
            node_fanins,
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &LutNetwork {
        self.net
    }

    /// Simulates **all** nodes (Algorithm 1, mode `a`) on the calling
    /// thread: [`StpSimulator::simulate_all_parallel`] with one thread.
    ///
    /// Each node's output is produced by one pass over its logic matrix: the
    /// columns holding a `True` vector (the minterms of the LUT function)
    /// are accumulated over 64 patterns at a time, so a node costs
    /// `O(#minterms · k)` word operations per 64 patterns regardless of how
    /// the LUT would decompose into bitwise operators.  Very wide LUTs fall
    /// back to per-pattern column selection.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the network's.
    pub fn simulate_all(&self, patterns: &PatternSet) -> StpSimState {
        self.simulate_all_parallel(patterns, 1)
    }

    /// Simulates **all** nodes with up to `num_threads` threads.
    ///
    /// Each thread evaluates every node, in id order, on its own contiguous
    /// range of pattern words (see [`parallel::evaluate_word_parts`]), so
    /// the result is bit-identical for every thread count.  A thread count
    /// above the number of words per signature is clamped to it.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the network's.
    pub fn simulate_all_parallel(&self, patterns: &PatternSet, num_threads: usize) -> StpSimState {
        assert_eq!(
            patterns.num_inputs(),
            self.net.num_pis(),
            "pattern set input count must match the network"
        );
        let mut arena = SignatureArena::new(self.net.num_nodes(), patterns.num_patterns());
        parallel::evaluate_word_parts(&mut arena, num_threads, |lo, rows| {
            self.eval_words(patterns, lo, rows)
        });
        StpSimState { arena }
    }

    /// The evaluation loop: every node in id order on the word range that
    /// starts at word `lo`, where `rows[id]` holds node `id`'s words.
    fn eval_words(&self, patterns: &PatternSet, lo: usize, rows: &mut [&mut [u64]]) {
        // Patterns from the range's first word on.
        let n = patterns.num_patterns() - lo * 64;
        for id in self.net.node_ids() {
            let (prefix, rest) = rows.split_at_mut(id);
            let out = &mut *rest[0];
            match self.net.node(id) {
                LutNode::Const0 => {} // rows start zeroed
                LutNode::Input { position } => {
                    let words = patterns.input_signature(*position).words();
                    out.copy_from_slice(&words[lo..lo + out.len()]);
                }
                LutNode::Lut { .. } => {
                    let fanin_words: Vec<&[u64]> =
                        self.node_fanins[id].iter().map(|&f| &*prefix[f]).collect();
                    eval_lut_words(&self.node_words[id], &fanin_words, n, out);
                }
            }
        }
    }

    /// Simulates only the **specified** nodes (Algorithm 1, mode `s`).
    ///
    /// The cut size limit is `⌊log₂ |P|⌋` as in the paper (at least 2, at
    /// most [`MAX_CUT_LEAVES`]); all other nodes are collapsed into cuts
    /// whose truth tables are obtained by STP composition, so only cut roots
    /// are visited during simulation.
    ///
    /// Returns the signature of each target node.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the network's or
    /// a target id is out of range.
    pub fn simulate_nodes(
        &self,
        patterns: &PatternSet,
        targets: &[LutNodeId],
    ) -> HashMap<LutNodeId, Signature> {
        self.simulate_nodes_counted(patterns, targets).0
    }

    /// Like [`StpSimulator::simulate_nodes`], but also reports how many LUT
    /// nodes were actually evaluated (the cut roots) — the measure of work
    /// incremental resimulation saves over an all-nodes pass.
    pub fn simulate_nodes_counted(
        &self,
        patterns: &PatternSet,
        targets: &[LutNodeId],
    ) -> (HashMap<LutNodeId, Signature>, usize) {
        assert_eq!(
            patterns.num_inputs(),
            self.net.num_pis(),
            "pattern set input count must match the network"
        );
        let n = patterns.num_patterns();
        let limit = cut_limit(n);
        let collapse = self.collapse(targets, limit);

        // Simulate cut roots in topological (id) order.
        let mut values: HashMap<LutNodeId, Signature> = HashMap::new();
        let mut roots: Vec<LutNodeId> = collapse.roots.iter().copied().collect();
        roots.sort_unstable();
        let evaluated = roots
            .iter()
            .filter(|&&r| matches!(self.net.node(r), LutNode::Lut { .. }))
            .count();
        for &root in &roots {
            let sig = match self.net.node(root) {
                LutNode::Const0 => Signature::zeros(n),
                LutNode::Input { position } => patterns.input_signature(*position).clone(),
                LutNode::Lut { .. } => {
                    let cut = &collapse.cuts[&root];
                    let mut out = Signature::zeros(n);
                    for p in 0..n {
                        let mut index = 0usize;
                        for (k, &leaf) in cut.leaves.iter().enumerate() {
                            let bit = match self.net.node(leaf) {
                                LutNode::Input { position } => patterns.value(*position, p),
                                LutNode::Const0 => false,
                                LutNode::Lut { .. } => values
                                    .get(&leaf)
                                    .expect("leaf roots precede their users in id order")
                                    .get_bit(p),
                            };
                            if bit {
                                index |= 1 << k;
                            }
                        }
                        if cut.table.get_bit(index) {
                            out.set_bit(p, true);
                        }
                    }
                    out
                }
            };
            values.insert(root, sig);
        }
        let map = targets.iter().map(|&t| (t, values[&t].clone())).collect();
        (map, evaluated)
    }

    /// Collapses the transitive fanin of `targets` into cuts with at most
    /// `limit` leaves (Section III-B).  Returns the set of cut roots (which
    /// includes every target) and, for every needed node, its function
    /// expressed over its cut leaves.
    fn collapse(&self, targets: &[LutNodeId], limit: usize) -> Collapse {
        let num_nodes = self.net.num_nodes();
        for &t in targets {
            assert!(t < num_nodes, "target node out of range");
        }
        let mut is_target = vec![false; num_nodes];
        for &t in targets {
            is_target[t] = true;
        }
        // Mark the nodes needed to compute the targets and count fanouts
        // restricted to that region.
        let mut needed = vec![false; num_nodes];
        let mut stack: Vec<LutNodeId> = targets.to_vec();
        while let Some(id) = stack.pop() {
            if needed[id] {
                continue;
            }
            needed[id] = true;
            for &f in self.net.node(id).fanins() {
                stack.push(f);
            }
        }
        let mut fanout = vec![0usize; num_nodes];
        for id in self.net.node_ids().filter(|&id| needed[id]) {
            for &f in self.net.node(id).fanins() {
                fanout[f] += 1;
            }
        }

        // Per-node record of (leaves, function-over-leaves); the leaf set a
        // node exposes to its parents is `[id]` once it became a root.
        let mut record: Vec<Option<CutFunction>> = vec![None; num_nodes];
        let mut exposed: Vec<Option<Vec<LutNodeId>>> = vec![None; num_nodes];
        let mut is_root = vec![false; num_nodes];

        for id in 0..num_nodes {
            if !needed[id] {
                continue;
            }
            match self.net.node(id) {
                LutNode::Const0 | LutNode::Input { .. } => {
                    exposed[id] = Some(vec![id]);
                    record[id] = Some(CutFunction {
                        leaves: vec![id],
                        table: TruthTable::variable(1, 0),
                    });
                    if is_target[id] {
                        is_root[id] = true;
                    }
                }
                LutNode::Lut { fanins, function } => {
                    // Gather the leaf sets the fanins currently expose.
                    let mut merged: Vec<LutNodeId> = Vec::new();
                    for &f in fanins {
                        for &leaf in exposed[f].as_ref().expect("fanins precede node") {
                            if !merged.contains(&leaf) {
                                merged.push(leaf);
                            }
                        }
                    }
                    merged.sort_unstable();
                    let oversize = merged.len() > MAX_CUT_LEAVES;
                    let (leaves, table) = if oversize {
                        // Fall back to the direct fanins as leaves; promote
                        // any absorbed fanin to a root so its value is
                        // available during simulation.
                        for &f in fanins {
                            if !is_root[f] && !matches!(self.net.node(f), LutNode::Lut { .. }) {
                                continue;
                            }
                            if !is_root[f] {
                                is_root[f] = true;
                                exposed[f] = Some(vec![f]);
                            }
                        }
                        (fanins.clone(), function.clone())
                    } else {
                        // STP composition: re-express each fanin over the
                        // merged leaf set and compose with the node matrix.
                        let inners: Vec<TruthTable> = fanins
                            .iter()
                            .map(|&f| {
                                let exposed_f = exposed[f].as_ref().expect("fanins precede node");
                                if exposed_f.len() == 1 && exposed_f[0] == f {
                                    let pos = merged
                                        .iter()
                                        .position(|&l| l == f)
                                        .expect("leaf is in the merged set");
                                    TruthTable::variable(merged.len(), pos)
                                } else {
                                    let base = record[f]
                                        .as_ref()
                                        .expect("collapsed fanin has a recorded cut");
                                    let var_map: Vec<usize> = base
                                        .leaves
                                        .iter()
                                        .map(|l| {
                                            merged
                                                .iter()
                                                .position(|m| m == l)
                                                .expect("leaf is in the merged set")
                                        })
                                        .collect();
                                    base.table.extend_to(merged.len(), &var_map)
                                }
                            })
                            .collect();
                        (merged.clone(), compose(function, &inners))
                    };
                    record[id] = Some(CutFunction {
                        leaves: leaves.clone(),
                        table,
                    });
                    // A node becomes a cut root when it is a target, when its
                    // value is reused by more than one parent (the tree
                    // requirement of Section III-B) or when its cut exceeded
                    // the limit.
                    let becomes_root =
                        is_target[id] || fanout[id] > 1 || leaves.len() > limit || oversize;
                    if becomes_root {
                        is_root[id] = true;
                        exposed[id] = Some(vec![id]);
                    } else {
                        exposed[id] = Some(leaves);
                    }
                }
            }
        }
        let roots: Vec<LutNodeId> = (0..num_nodes).filter(|&id| is_root[id]).collect();
        let cuts: HashMap<LutNodeId, CutFunction> = roots
            .iter()
            .map(|&r| (r, record[r].clone().expect("roots are needed nodes")))
            .collect();
        Collapse {
            roots: roots.into_iter().collect(),
            cuts,
        }
    }
}

/// Evaluates one LUT node on a range of signature words: `words` is the
/// node's packed logic-matrix row, `fanin_words` the fanins' words of the
/// same range, `n` the number of patterns from the range's first word on.
///
/// The minterm columns (or the maxterm columns when the function is dense)
/// are accumulated 64 patterns at a time; very wide LUTs (more than 256
/// columns) fall back to per-pattern column selection.  `out` must be
/// zero-initialised; its bits beyond `n` are left for the caller to mask.
///
/// The narrow path is structured minterm-outer / fanin-middle / words-inner
/// over stack blocks of up to [`LUT_BLOCK_WORDS`] words: the innermost loops
/// are plain stride-1 slice zips over contiguous fanin words (the
/// [`bitsim::kernels`] primitives), so the per-column table-bit branch is
/// amortised over a whole block and the hot loops autovectorize.  The
/// pre-arena kernel was words-outer / minterm-inner, re-deciding every
/// column once per word.
fn eval_lut_words(words: &[u64], fanin_words: &[&[u64]], n: usize, out: &mut [u64]) {
    let k = fanin_words.len();
    let columns = 1usize << k;
    if columns > 256 {
        // Wide LUT: per-pattern column selection.
        for p in 0..(out.len() * 64).min(n) {
            let mut index = 0usize;
            for (j, fw) in fanin_words.iter().enumerate() {
                index |= (((fw[p / 64] >> (p % 64)) & 1) as usize) << j;
            }
            out[p / 64] |= ((words[index / 64] >> (index % 64)) & 1) << (p % 64);
        }
    } else {
        let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        let use_zeros = ones * 2 > columns;
        let mut acc = [0u64; LUT_BLOCK_WORDS];
        let mut term = [0u64; LUT_BLOCK_WORDS];
        let mut start = 0usize;
        while start < out.len() {
            let blen = (out.len() - start).min(LUT_BLOCK_WORDS);
            acc[..blen].fill(0);
            for m in 0..columns {
                let column_is_one = (words[m / 64] >> (m % 64)) & 1 == 1;
                if column_is_one == use_zeros {
                    continue;
                }
                term[..blen].fill(u64::MAX);
                for (j, fw) in fanin_words.iter().enumerate() {
                    let src = &fw[start..start + blen];
                    if (m >> j) & 1 == 1 {
                        kernels::and_assign(&mut term[..blen], src);
                    } else {
                        kernels::andnot_assign(&mut term[..blen], src);
                    }
                }
                kernels::or_assign(&mut acc[..blen], &term[..blen]);
            }
            kernels::copy_polarity(&mut out[start..start + blen], &acc[..blen], use_zeros);
            start += blen;
        }
    }
}

/// Stack-block size (in words) of the narrow-LUT evaluation path: 64 words
/// cover 4096 patterns per block while the accumulator and term buffers stay
/// comfortably on the stack.
const LUT_BLOCK_WORDS: usize = 64;

/// The cut size limit of Algorithm 1: `⌊log₂ n⌋` for `n` patterns, clamped
/// to `[1, MAX_CUT_LEAVES]`.
pub fn cut_limit(num_patterns: usize) -> usize {
    let log = usize::BITS as usize - 1 - num_patterns.max(2).leading_zeros() as usize;
    log.clamp(1, MAX_CUT_LEAVES)
}

/// A collapsed cut: the root's function expressed over its leaves.
#[derive(Debug, Clone)]
struct CutFunction {
    leaves: Vec<LutNodeId>,
    table: TruthTable,
}

#[derive(Debug)]
struct Collapse {
    roots: std::collections::HashSet<LutNodeId>,
    cuts: HashMap<LutNodeId, CutFunction>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::LutSimulator;
    use netlist::{lutmap, Aig};

    /// The k-LUT network of Fig. 1(a): five PIs and six 2-input NAND LUTs.
    fn figure1_network() -> (LutNetwork, Vec<LutNodeId>) {
        let nand = TruthTable::from_binary_str(2, "0111").unwrap();
        let mut net = LutNetwork::new();
        let pis: Vec<LutNodeId> = (1..=5).map(|i| net.add_input(format!("{i}"))).collect();
        let n6 = net.add_lut(vec![pis[0], pis[2]], nand.clone());
        let n7 = net.add_lut(vec![pis[1], pis[2]], nand.clone());
        let n8 = net.add_lut(vec![pis[2], pis[3]], nand.clone());
        let n9 = net.add_lut(vec![pis[3], pis[4]], nand.clone());
        let n10 = net.add_lut(vec![n6, n7], nand.clone());
        let n11 = net.add_lut(vec![n8, n9], nand);
        net.add_output("po1", n10, false);
        net.add_output("po2", n11, false);
        (net, vec![n6, n7, n8, n9, n10, n11])
    }

    fn mapped_network() -> (Aig, LutNetwork) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let g1 = aig.and(xs[0], xs[1]);
        let g2 = aig.xor(xs[2], xs[3]);
        let g3 = aig.maj(xs[3], xs[4], xs[5]);
        let g4 = aig.mux(g1, g2, g3);
        let g5 = aig.or(g2, g3);
        aig.add_output("o0", g4);
        aig.add_output("o1", !g5);
        let lut = lutmap::map_to_luts(&aig, 4);
        (aig, lut)
    }

    #[test]
    fn cut_limit_follows_log2() {
        assert_eq!(cut_limit(2), 1);
        assert_eq!(cut_limit(10), 3);
        assert_eq!(cut_limit(1024), 10);
        assert_eq!(cut_limit(1_000_000), 16);
        assert_eq!(cut_limit(0), 1);
    }

    #[test]
    fn figure1_all_nodes_simulation_matches_reference() {
        let (net, _) = figure1_network();
        let patterns = PatternSet::from_binary_strings(&[
            "0111001011",
            "1010011011",
            "1110011000",
            "0000011111",
            "1010000101",
        ]);
        let stp = StpSimulator::new(&net).simulate_all(&patterns);
        let baseline = LutSimulator::new(&net).run(&patterns);
        for id in net.node_ids() {
            assert_eq!(stp.signature(id), baseline.signature(id), "node {id}");
        }
        assert_eq!(stp.num_patterns(), 10);
    }

    #[test]
    fn figure1_specified_nodes_match_all_nodes() {
        // Simulate only nodes 7 and 8, as in the paper's example.
        let (net, nodes) = figure1_network();
        let patterns = PatternSet::from_binary_strings(&[
            "0111001011",
            "1010011011",
            "1110011000",
            "0000011111",
            "1010000101",
        ]);
        let sim = StpSimulator::new(&net);
        let all = sim.simulate_all(&patterns);
        let targets = vec![nodes[1], nodes[2]]; // paper nodes "7" and "8"
        let specified = sim.simulate_nodes(&patterns, &targets);
        assert_eq!(specified.len(), 2);
        for &t in &targets {
            assert_eq!(specified[&t], all.signature(t), "target {t}");
        }
    }

    #[test]
    fn simulate_all_matches_bitwise_baseline_on_mapped_network() {
        let (_, lut) = mapped_network();
        let patterns = PatternSet::random(6, 500, 17).unwrap();
        let stp = StpSimulator::new(&lut).simulate_all(&patterns);
        let baseline = LutSimulator::new(&lut).run(&patterns);
        for id in lut.node_ids() {
            assert_eq!(stp.signature(id), baseline.signature(id), "node {id}");
        }
        for o in 0..lut.num_pos() {
            assert_eq!(
                stp.output_signature(&lut, o),
                baseline.output_signature(&lut, o)
            );
        }
    }

    #[test]
    fn simulate_nodes_matches_all_for_every_target_choice() {
        let (_, lut) = mapped_network();
        let patterns = PatternSet::random(6, 64, 3).unwrap();
        let sim = StpSimulator::new(&lut);
        let all = sim.simulate_all(&patterns);
        let lut_ids: Vec<LutNodeId> = lut.lut_ids().collect();
        // Every single-node target and a couple of multi-node target sets.
        for &t in &lut_ids {
            let r = sim.simulate_nodes(&patterns, &[t]);
            assert_eq!(r[&t], all.signature(t), "single target {t}");
        }
        let r = sim.simulate_nodes(&patterns, &lut_ids);
        for &t in &lut_ids {
            assert_eq!(r[&t], all.signature(t), "joint target {t}");
        }
    }

    #[test]
    fn specified_simulation_with_pi_target() {
        let (_, lut) = mapped_network();
        let patterns = PatternSet::random(6, 32, 5).unwrap();
        let sim = StpSimulator::new(&lut);
        let pi = lut.inputs()[2];
        let r = sim.simulate_nodes(&patterns, &[pi]);
        assert_eq!(&r[&pi], patterns.input_signature(2));
    }

    #[test]
    fn parallel_simulation_matches_the_per_pattern_baseline() {
        let (_, lut) = mapped_network();
        let sim = StpSimulator::new(&lut);
        // One word at eight threads clamps to one part; 500 patterns (8
        // words) at three threads split unevenly; 65536 patterns = 1024 words.
        for n in [1usize, 63, 64, 65, 500, 65536] {
            let patterns = PatternSet::random(6, n, n as u64 + 1).unwrap();
            let reference = LutSimulator::new(&lut).run(&patterns);
            for threads in [1usize, 2, 3, 4, 8] {
                let parallel = sim.simulate_all_parallel(&patterns, threads);
                assert_eq!(parallel.num_patterns(), n);
                for id in lut.node_ids() {
                    assert_eq!(
                        parallel.signature(id),
                        reference.signature(id),
                        "node {id}, {n} patterns, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_luts_split_across_threads_match_the_baseline() {
        // A 10-input LUT takes the per-pattern column-selection path.
        let mut net = LutNetwork::new();
        let pis: Vec<LutNodeId> = (0..10).map(|i| net.add_input(format!("x{i}"))).collect();
        let words: Vec<u64> = (0..16u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let wide = net.add_lut(pis.clone(), TruthTable::from_words(10, &words));
        let narrow = net.add_lut(
            vec![wide, pis[0]],
            TruthTable::from_binary_str(2, "0110").unwrap(),
        );
        net.add_output("y", narrow, false);
        let sim = StpSimulator::new(&net);
        for (n, threads) in [(100usize, 4usize), (1000, 3)] {
            let patterns = PatternSet::random(10, n, 7).unwrap();
            let reference = LutSimulator::new(&net).run(&patterns);
            let parallel = sim.simulate_all_parallel(&patterns, threads);
            for id in net.node_ids() {
                assert_eq!(parallel.signature(id), reference.signature(id), "node {id}");
            }
        }
    }

    #[test]
    fn deep_chain_respects_cut_limit() {
        // A long XOR chain: with few patterns the limit is small, so the
        // chain is split into several cuts; the result must still match.
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 10);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = aig.xor(acc, x);
        }
        aig.add_output("parity", acc);
        let lut = lutmap::map_to_luts(&aig, 2);
        let patterns = PatternSet::random(10, 8, 9).unwrap(); // limit = 3
        let sim = StpSimulator::new(&lut);
        let all = sim.simulate_all(&patterns);
        let last_lut = lut.lut_ids().last().expect("chain has LUTs");
        let r = sim.simulate_nodes(&patterns, &[last_lut]);
        assert_eq!(r[&last_lut], all.signature(last_lut));
    }
}
