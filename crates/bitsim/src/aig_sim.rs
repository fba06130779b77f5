//! Word-parallel simulation of And-Inverter Graphs.
//!
//! Signatures live in a [`SignatureArena`] — one contiguous node-major
//! allocation instead of one heap `Vec` per node — so a full simulation
//! pass performs O(1) allocations and the AND kernel streams through
//! stride-contiguous rows (see [`crate::arena`]).

use crate::arena::{SigRef, SignatureArena};
use crate::{kernels, parallel, PatternSet, Signature};
use netlist::{Aig, AigNode, NodeId};

/// Complement mask of an AIG literal: XORing a signature word with the mask
/// applies the complement branchlessly.
#[inline]
fn mask(complemented: bool) -> u64 {
    if complemented {
        u64::MAX
    } else {
        0
    }
}

/// Simulation state: the packed signatures of every AIG node, stored in a
/// struct-of-arrays [`SignatureArena`].
#[derive(Debug, Clone)]
pub struct AigSimState {
    arena: SignatureArena,
}

impl AigSimState {
    /// A borrowed view of the signature of `node`.
    pub fn signature(&self, node: NodeId) -> SigRef<'_> {
        self.arena.sig(node)
    }

    /// The signature seen at output `index` of `aig` (complement applied).
    pub fn output_signature(&self, aig: &Aig, index: usize) -> Signature {
        let output = &aig.outputs()[index];
        let sig = self.arena.to_signature(output.lit.node());
        if output.lit.is_complemented() {
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

/// Word-parallel AIG simulator: 64 patterns per machine word, one word-level
/// AND/NOT per node per word (Section II-A of the paper).
///
/// The simulator is stateless apart from the network reference; [`run`] and
/// [`run_parallel`] return an [`AigSimState`] holding all signatures.
///
/// [`run`]: AigSimulator::run
/// [`run_parallel`]: AigSimulator::run_parallel
#[derive(Debug, Clone, Copy)]
pub struct AigSimulator<'a> {
    aig: &'a Aig,
}

impl<'a> AigSimulator<'a> {
    /// Creates a simulator for the given AIG.
    pub fn new(aig: &'a Aig) -> Self {
        AigSimulator { aig }
    }

    /// Simulates all nodes under the pattern set.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the AIG's.
    pub fn run(&self, patterns: &PatternSet) -> AigSimState {
        assert_eq!(
            patterns.num_inputs(),
            self.aig.num_inputs(),
            "pattern set input count must match the network"
        );
        let n = patterns.num_patterns();
        let mut arena = SignatureArena::new(self.aig.num_nodes(), n);
        for id in self.aig.node_ids() {
            match self.aig.node(id) {
                AigNode::Const0 => {} // rows start zeroed
                AigNode::Input { position } => {
                    arena
                        .row_mut(id)
                        .copy_from_slice(patterns.input_signature(*position).words());
                }
                AigNode::And { fanin0, fanin1 } => {
                    let (prefix, row) = arena.split_at_row(id);
                    kernels::and2_masked(
                        prefix.row(fanin0.node()),
                        prefix.row(fanin1.node()),
                        mask(fanin0.is_complemented()),
                        mask(fanin1.is_complemented()),
                        row,
                    );
                    arena.mask_row_tail(id);
                }
            }
        }
        AigSimState { arena }
    }

    /// Simulates all nodes with up to `num_threads` worker threads.
    ///
    /// Nodes are grouped by topological level; within one level the arena
    /// rows are partitioned into cost-balanced chunks that workers claim
    /// through an atomic cursor (see
    /// [`parallel::evaluate_level_stealing`]).  Workers execute exactly the
    /// word operations of [`AigSimulator::run`], so the result is
    /// **bit-identical to a sequential run** for any thread count.  Levels
    /// whose work is below [`parallel::PARALLEL_GRAIN`] are evaluated
    /// inline.
    ///
    /// `num_threads <= 1` falls back to [`AigSimulator::run`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the AIG's.
    pub fn run_parallel(&self, patterns: &PatternSet, num_threads: usize) -> AigSimState {
        if num_threads <= 1 {
            return self.run(patterns);
        }
        assert_eq!(
            patterns.num_inputs(),
            self.aig.num_inputs(),
            "pattern set input count must match the network"
        );
        let n = patterns.num_patterns();
        let mut arena = SignatureArena::new(self.aig.num_nodes(), n);
        let groups = parallel::group_by_level(&self.aig.levels());
        for group in &groups {
            // Constants and inputs (always level 0) are plain copies.
            let mut and_nodes: Vec<NodeId> = Vec::with_capacity(group.len());
            for &id in group {
                match self.aig.node(id) {
                    AigNode::Const0 => {} // rows start zeroed
                    AigNode::Input { position } => {
                        arena
                            .row_mut(id)
                            .copy_from_slice(patterns.input_signature(*position).words());
                    }
                    AigNode::And { .. } => and_nodes.push(id),
                }
            }
            if and_nodes.is_empty() {
                continue;
            }
            let aig = self.aig;
            let costs = vec![1u64; and_nodes.len()];
            let (rows, reader) = arena.split_rows(&and_nodes);
            parallel::evaluate_level_stealing(
                rows,
                &and_nodes,
                &costs,
                num_threads,
                &|id, word_lo, out| {
                    let AigNode::And { fanin0, fanin1 } = aig.node(id) else {
                        unreachable!("and_nodes only holds AND gates");
                    };
                    let w0 = &reader.row(fanin0.node())[word_lo..word_lo + out.len()];
                    let w1 = &reader.row(fanin1.node())[word_lo..word_lo + out.len()];
                    kernels::and2_masked(
                        w0,
                        w1,
                        mask(fanin0.is_complemented()),
                        mask(fanin1.is_complemented()),
                        out,
                    );
                },
            );
            for &id in &and_nodes {
                arena.mask_row_tail(id);
            }
        }
        AigSimState { arena }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g = aig.and(a, b);
        let h = aig.xor(g, c);
        aig.add_output("and", g);
        aig.add_output("xor", h);
        aig
    }

    #[test]
    fn matches_reference_evaluation() {
        let aig = sample_aig();
        let patterns = PatternSet::exhaustive(3);
        let state = AigSimulator::new(&aig).run(&patterns);
        for p in 0..8 {
            let assignment = patterns.assignment(p);
            let expected = aig.evaluate(&assignment);
            for (o, &value) in expected.iter().enumerate() {
                assert_eq!(
                    state.output_signature(&aig, o).get_bit(p),
                    value,
                    "output {o}, pattern {p}"
                );
            }
        }
    }

    #[test]
    fn random_patterns_match_reference() {
        let aig = sample_aig();
        let patterns = PatternSet::random(3, 200, 42).unwrap();
        let state = AigSimulator::new(&aig).run(&patterns);
        for p in (0..200).step_by(17) {
            let assignment = patterns.assignment(p);
            let expected = aig.evaluate(&assignment);
            assert_eq!(state.output_signature(&aig, 1).get_bit(p), expected[1]);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_to_sequential() {
        // A deeper circuit with enough words per level to cross the grain on
        // some levels and stay below it on others.
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 12);
        let mut layer: Vec<netlist::Lit> = xs.clone();
        for round in 0..6 {
            let mut next = Vec::new();
            for (i, pair) in layer.windows(2).enumerate() {
                let g = if (i + round) % 3 == 0 {
                    aig.xor(pair[0], pair[1])
                } else {
                    aig.and(pair[0], !pair[1])
                };
                next.push(g);
            }
            layer = next;
        }
        for (i, &lit) in layer.iter().enumerate() {
            aig.add_output(format!("y{i}"), lit);
        }
        let sim = AigSimulator::new(&aig);
        // 65536 patterns = 1024 words: enough for every level to cross the
        // parallel grain; the small counts keep the inline path covered.
        for n in [1usize, 63, 64, 65, 1000, 65536] {
            let patterns = PatternSet::random(12, n, n as u64).unwrap();
            let sequential = sim.run(&patterns);
            for threads in [2usize, 3, 4, 8] {
                let parallel = sim.run_parallel(&patterns, threads);
                assert_eq!(parallel.num_patterns(), sequential.num_patterns());
                for id in aig.node_ids() {
                    assert_eq!(
                        parallel.signature(id),
                        sequential.signature(id),
                        "node {id}, {n} patterns, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn run_parallel_with_one_thread_matches_run() {
        let aig = sample_aig();
        let patterns = PatternSet::random(3, 100, 5).unwrap();
        let sim = AigSimulator::new(&aig);
        let a = sim.run(&patterns);
        let b = sim.run_parallel(&patterns, 1);
        for id in aig.node_ids() {
            assert_eq!(a.signature(id), b.signature(id));
        }
    }

    #[test]
    #[should_panic(expected = "input count")]
    fn wrong_input_count_panics() {
        let aig = sample_aig();
        let patterns = PatternSet::exhaustive(2);
        let _ = AigSimulator::new(&aig).run(&patterns);
    }
}
