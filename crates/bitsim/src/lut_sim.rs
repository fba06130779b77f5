//! Baseline k-LUT network simulation.
//!
//! As the paper observes (Section III), bitwise word-parallel tricks do not
//! directly apply to k-LUT nodes: the conventional simulator must, for each
//! pattern, extract the individual input bits of a LUT, form the truth-table
//! index and look up the output bit.  [`LutSimulator::run`] implements
//! exactly that per-pattern evaluation and is the baseline ("TL" columns of
//! Table I) that the STP-based simulator is compared against.
//!
//! Like the AIG state, the signatures live in a [`SignatureArena`] so a run
//! performs O(1) allocations.

use crate::arena::{SigRef, SignatureArena};
use crate::{PatternSet, Signature};
use netlist::{LutNetwork, LutNode, LutNodeId};

/// Simulation state of a k-LUT network: one arena row per node.
#[derive(Debug, Clone)]
pub struct LutSimState {
    arena: SignatureArena,
}

impl LutSimState {
    /// A borrowed view of the signature of `node`.
    pub fn signature(&self, node: LutNodeId) -> SigRef<'_> {
        self.arena.sig(node)
    }

    /// The signature of output `index` (complement applied).
    pub fn output_signature(&self, net: &LutNetwork, index: usize) -> Signature {
        let output = &net.outputs()[index];
        let sig = self.arena.to_signature(output.node);
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

/// Baseline per-pattern simulator for k-LUT networks.
#[derive(Debug, Clone, Copy)]
pub struct LutSimulator<'a> {
    net: &'a LutNetwork,
}

impl<'a> LutSimulator<'a> {
    /// Creates a simulator for the given network.
    pub fn new(net: &'a LutNetwork) -> Self {
        LutSimulator { net }
    }

    /// Simulates all nodes under the pattern set, pattern by pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the network's.
    pub fn run(&self, patterns: &PatternSet) -> LutSimState {
        assert_eq!(
            patterns.num_inputs(),
            self.net.num_pis(),
            "pattern set input count must match the network"
        );
        let n = patterns.num_patterns();
        let mut arena = SignatureArena::new(self.net.num_nodes(), n);
        // Per-pattern evaluation: this is intentionally the "slow" baseline.
        for p in 0..n {
            for id in self.net.node_ids() {
                let value = match self.net.node(id) {
                    LutNode::Const0 => false,
                    LutNode::Input { position } => patterns.value(*position, p),
                    LutNode::Lut { fanins, function } => {
                        let mut index = 0usize;
                        for (k, &fanin) in fanins.iter().enumerate() {
                            if arena.sig(fanin).get_bit(p) {
                                index |= 1 << k;
                            }
                        }
                        function.get_bit(index)
                    }
                };
                if value {
                    arena.set_bit(id, p, true);
                }
            }
        }
        LutSimState { arena }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{lutmap, Aig};

    fn sample_networks() -> (Aig, LutNetwork) {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 5);
        let g1 = aig.and(xs[0], xs[1]);
        let g2 = aig.xor(xs[2], xs[3]);
        let g3 = aig.mux(xs[4], g1, g2);
        let g4 = aig.or(g1, g2);
        aig.add_output("o0", g3);
        aig.add_output("o1", !g4);
        let lut = lutmap::map_to_luts(&aig, 4);
        (aig, lut)
    }

    #[test]
    fn lut_simulation_matches_evaluation() {
        let (_, lut) = sample_networks();
        let patterns = PatternSet::exhaustive(5);
        let state = LutSimulator::new(&lut).run(&patterns);
        for p in 0..32 {
            let assignment = patterns.assignment(p);
            let expected = lut.evaluate(&assignment);
            for (o, &exp) in expected.iter().enumerate() {
                assert_eq!(state.output_signature(&lut, o).get_bit(p), exp);
            }
        }
    }

    #[test]
    fn lut_simulation_matches_aig_simulation() {
        let (aig, lut) = sample_networks();
        let patterns = PatternSet::random(5, 300, 11).unwrap();
        let aig_state = crate::AigSimulator::new(&aig).run(&patterns);
        let lut_state = LutSimulator::new(&lut).run(&patterns);
        for o in 0..aig.num_outputs() {
            assert_eq!(
                aig_state.output_signature(&aig, o),
                lut_state.output_signature(&lut, o),
                "output {o} differs between AIG and mapped LUT network"
            );
        }
    }

    #[test]
    fn constant_node_signature_is_zero() {
        let (_, lut) = sample_networks();
        let patterns = PatternSet::random(5, 64, 3).unwrap();
        let state = LutSimulator::new(&lut).run(&patterns);
        assert!(state.signature(0).is_const0());
        assert_eq!(state.num_patterns(), 64);
    }
}
