//! X-valued (ternary) bit-parallel simulation.
//!
//! Sequential designs start from an initial state in which some latches are
//! uninitialised.  Ternary simulation propagates three-valued patterns —
//! 0, 1 and `X` ("either") — through the AIG using a **two-plane
//! encoding**: every node carries a *value* plane and a *care* plane, both
//! stored bit-parallel in [`SignatureArena`]s, 64 patterns per word.  A
//! pattern bit is a definite 0/1 where the care bit is set and `X` where it
//! is clear (the value bit of an `X` is always 0, keeping signatures
//! canonical).  The AND evaluation is one word-zip kernel
//! ([`crate::kernels::ternary_and2_masked`]) implementing Kleene logic.
//!
//! [`ternary_fixpoint`] iterates the transition functions from the initial
//! state with all primary inputs at `X`, widening each latch to `X` the
//! first time two consecutive time-frames disagree.  The result is a sound
//! over-approximation of the reachable values of every latch: a latch whose
//! fixpoint value is still a definite 0/1 holds that value in **every**
//! reachable state, and the per-latch trajectories seed the candidate
//! equivalence classes of sequential SAT-sweeping.
//!
//! ```
//! use bitsim::{ternary_fixpoint, TernaryValue};
//! use netlist::{Aig, LatchInit};
//!
//! // `stuck` can never leave 0 (its next state is `stuck AND x`), while
//! // `live` toggles freely; the fixpoint proves exactly that without a
//! // single SAT call.
//! let mut aig = Aig::new();
//! let x = aig.add_input("x");
//! let live = aig.add_latch("live", LatchInit::Zero);
//! let stuck = aig.add_latch("stuck", LatchInit::Zero);
//! let live_next = aig.xor(live, x);
//! let stuck_next = aig.and(stuck, x);
//! aig.set_latch_next(0, live_next);
//! aig.set_latch_next(1, stuck_next);
//!
//! let fixpoint = ternary_fixpoint(&aig);
//! assert_eq!(fixpoint.values[0], TernaryValue::X);    // live: unknown
//! assert_eq!(fixpoint.values[1], TernaryValue::Zero); // stuck-at-0
//! ```

use crate::arena::SignatureArena;
use crate::kernels;
use crate::signature::Signature;
use netlist::{Aig, AigNode, LatchInit, Lit};

/// A three-valued simulation value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TernaryValue {
    /// Definitely 0.
    Zero,
    /// Definitely 1.
    One,
    /// Unknown: both values are possible.
    X,
}

impl TernaryValue {
    /// The definite value corresponding to a Boolean.
    pub fn from_bool(value: bool) -> Self {
        if value {
            TernaryValue::One
        } else {
            TernaryValue::Zero
        }
    }

    /// The abstract initial value of a latch.
    pub fn from_init(init: LatchInit) -> Self {
        match init {
            LatchInit::Zero => TernaryValue::Zero,
            LatchInit::One => TernaryValue::One,
            LatchInit::X => TernaryValue::X,
        }
    }

    /// The definite value, if any.
    pub fn concrete(self) -> Option<bool> {
        match self {
            TernaryValue::Zero => Some(false),
            TernaryValue::One => Some(true),
            TernaryValue::X => None,
        }
    }

    /// Kleene negation applied iff `flip`.
    #[must_use]
    pub fn complement_if(self, flip: bool) -> Self {
        match (self, flip) {
            (TernaryValue::Zero, true) => TernaryValue::One,
            (TernaryValue::One, true) => TernaryValue::Zero,
            (v, _) => v,
        }
    }

    /// The join of two values in the flat ternary lattice: equal values stay
    /// put, disagreement widens to `X`.
    #[must_use]
    pub fn merge(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            TernaryValue::X
        }
    }
}

/// A set of ternary simulation patterns, one [`TernaryValue`] per input per
/// pattern, stored as per-input value/care [`Signature`] pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryPatternSet {
    val: Vec<Signature>,
    care: Vec<Signature>,
    num_patterns: usize,
}

impl TernaryPatternSet {
    /// Creates an empty pattern set for `num_inputs` inputs.
    pub fn new(num_inputs: usize) -> Self {
        TernaryPatternSet {
            val: vec![Signature::zeros(0); num_inputs],
            care: vec![Signature::zeros(0); num_inputs],
            num_patterns: 0,
        }
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.val.len()
    }

    /// Number of patterns.
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Appends one pattern (one value per input, declaration order).
    ///
    /// # Panics
    ///
    /// Panics if `pattern` does not supply exactly one value per input.
    pub fn push_pattern(&mut self, pattern: &[TernaryValue]) {
        assert_eq!(
            pattern.len(),
            self.val.len(),
            "pattern must assign every input"
        );
        for (input, &value) in pattern.iter().enumerate() {
            self.val[input].push(value == TernaryValue::One);
            self.care[input].push(value != TernaryValue::X);
        }
        self.num_patterns += 1;
    }

    /// The value of input `input` under pattern `index`.
    pub fn value(&self, input: usize, index: usize) -> TernaryValue {
        if !self.care[input].get_bit(index) {
            TernaryValue::X
        } else {
            TernaryValue::from_bool(self.val[input].get_bit(index))
        }
    }
}

/// The two signature planes produced by a ternary simulation run.
#[derive(Debug, Clone)]
pub struct TernarySimState {
    val: SignatureArena,
    care: SignatureArena,
}

impl TernarySimState {
    /// The value of node `node` under pattern `index`.
    pub fn value(&self, node: usize, index: usize) -> TernaryValue {
        if !self.care.sig(node).get_bit(index) {
            TernaryValue::X
        } else {
            TernaryValue::from_bool(self.val.sig(node).get_bit(index))
        }
    }

    /// The value of literal `lit` (Kleene negation for complemented edges).
    pub fn lit_value(&self, lit: Lit, index: usize) -> TernaryValue {
        self.value(lit.node(), index)
            .complement_if(lit.is_complemented())
    }

    /// The value of output `index` of `aig` under pattern `pattern`.
    pub fn output_value(&self, aig: &Aig, index: usize, pattern: usize) -> TernaryValue {
        self.lit_value(aig.outputs()[index].lit, pattern)
    }

    /// The value plane (bit set ⇔ definitely 1).
    pub fn val_arena(&self) -> &SignatureArena {
        &self.val
    }

    /// The care plane (bit set ⇔ defined).
    pub fn care_arena(&self) -> &SignatureArena {
        &self.care
    }
}

/// Word-level complement mask for a fanin polarity.
fn mask(complemented: bool) -> u64 {
    if complemented {
        u64::MAX
    } else {
        0
    }
}

/// Bit-parallel ternary simulation of an [`Aig`] (see the [module
/// documentation](self)).
#[derive(Debug)]
pub struct TernarySimulator<'a> {
    aig: &'a Aig,
}

impl<'a> TernarySimulator<'a> {
    /// Creates a simulator for `aig`.
    pub fn new(aig: &'a Aig) -> Self {
        TernarySimulator { aig }
    }

    /// Evaluates every node under every pattern.
    ///
    /// # Panics
    ///
    /// Panics if the pattern set's input count differs from the network's.
    pub fn run(&self, patterns: &TernaryPatternSet) -> TernarySimState {
        assert_eq!(
            patterns.num_inputs(),
            self.aig.num_inputs(),
            "pattern set must match the network's input count"
        );
        let n = patterns.num_patterns();
        let mut val = SignatureArena::new(self.aig.num_nodes(), n);
        let mut care = SignatureArena::new(self.aig.num_nodes(), n);
        for id in self.aig.node_ids() {
            match self.aig.node(id) {
                // Constant 0: value plane stays zero, everything defined.
                AigNode::Const0 => {
                    care.row_mut(id).fill(u64::MAX);
                    care.mask_row_tail(id);
                }
                AigNode::Input { position } => {
                    val.row_mut(id)
                        .copy_from_slice(patterns.val[*position].words());
                    care.row_mut(id)
                        .copy_from_slice(patterns.care[*position].words());
                }
                AigNode::And { fanin0, fanin1 } => {
                    let (f0, f1) = (*fanin0, *fanin1);
                    let (val_prefix, val_row) = val.split_at_row(id);
                    let (care_prefix, care_row) = care.split_at_row(id);
                    // Tail bits stay zero: the kernel ANDs every result bit
                    // with a care plane whose tails are already masked.
                    kernels::ternary_and2_masked(
                        val_prefix.row(f0.node()),
                        care_prefix.row(f0.node()),
                        val_prefix.row(f1.node()),
                        care_prefix.row(f1.node()),
                        mask(f0.is_complemented()),
                        mask(f1.is_complemented()),
                        val_row,
                        care_row,
                    );
                }
            }
        }
        TernarySimState { val, care }
    }
}

/// The result of [`ternary_fixpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryFixpoint {
    /// Number of simulation rounds until stabilisation (at most
    /// `num_latches + 1`).
    pub iterations: usize,
    /// The fixpoint value of every latch: a definite 0/1 means the latch
    /// holds that value in every reachable state.
    pub values: Vec<TernaryValue>,
    /// Per-latch value trajectory: the initial value followed by the merged
    /// state after each round (all trajectories have equal length
    /// `iterations + 1`).
    pub trajectories: Vec<Vec<TernaryValue>>,
}

/// Iterates the latch transition functions from the initial state (primary
/// inputs at `X`) until the widened state stabilises.
///
/// Monotone by construction — a latch only ever moves from a definite value
/// to `X`, never back — so the loop terminates after at most
/// `num_latches + 1` rounds.
pub fn ternary_fixpoint(aig: &Aig) -> TernaryFixpoint {
    let num_latches = aig.num_latches();
    let mut state: Vec<TernaryValue> = aig
        .latches()
        .iter()
        .map(|l| TernaryValue::from_init(l.init))
        .collect();
    let mut trajectories: Vec<Vec<TernaryValue>> = state.iter().map(|&v| vec![v]).collect();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut pattern = vec![TernaryValue::X; aig.num_inputs()];
        for (idx, latch) in aig.latches().iter().enumerate() {
            pattern[latch.state_input] = state[idx];
        }
        let mut patterns = TernaryPatternSet::new(aig.num_inputs());
        patterns.push_pattern(&pattern);
        let sim = TernarySimulator::new(aig).run(&patterns);
        let mut changed = false;
        for idx in 0..num_latches {
            let next = sim.lit_value(aig.latch_next_lit(idx), 0);
            let merged = state[idx].merge(next);
            if merged != state[idx] {
                state[idx] = merged;
                changed = true;
            }
            trajectories[idx].push(state[idx]);
        }
        if !changed {
            break;
        }
        debug_assert!(
            iterations <= num_latches + 1,
            "the widening lattice has height one, so the fixpoint must \
             arrive within num_latches + 1 rounds"
        );
    }
    TernaryFixpoint {
        iterations,
        values: state,
        trajectories,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_and_matches_binary_on_defined_patterns() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.xor(a, b);
        aig.add_output("y", y);

        let mut patterns = TernaryPatternSet::new(2);
        for (va, vb) in [
            (TernaryValue::Zero, TernaryValue::Zero),
            (TernaryValue::Zero, TernaryValue::One),
            (TernaryValue::One, TernaryValue::Zero),
            (TernaryValue::One, TernaryValue::One),
        ] {
            patterns.push_pattern(&[va, vb]);
        }
        let sim = TernarySimulator::new(&aig).run(&patterns);
        let expected = [
            TernaryValue::Zero,
            TernaryValue::One,
            TernaryValue::One,
            TernaryValue::Zero,
        ];
        for (index, &want) in expected.iter().enumerate() {
            assert_eq!(sim.output_value(&aig, 0, index), want);
        }
    }

    #[test]
    fn x_propagates_unless_controlled() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let y = aig.and(a, b);
        aig.add_output("y", y);
        aig.add_output("not_a", !a);

        let mut patterns = TernaryPatternSet::new(2);
        // X & 0 = 0 (controlling), X & 1 = X, X & X = X; !X = X.
        patterns.push_pattern(&[TernaryValue::X, TernaryValue::Zero]);
        patterns.push_pattern(&[TernaryValue::X, TernaryValue::One]);
        patterns.push_pattern(&[TernaryValue::X, TernaryValue::X]);
        let sim = TernarySimulator::new(&aig).run(&patterns);
        assert_eq!(sim.output_value(&aig, 0, 0), TernaryValue::Zero);
        assert_eq!(sim.output_value(&aig, 0, 1), TernaryValue::X);
        assert_eq!(sim.output_value(&aig, 0, 2), TernaryValue::X);
        assert_eq!(sim.output_value(&aig, 1, 0), TernaryValue::X);
    }

    #[test]
    fn fixpoint_finds_stuck_latches_and_widens_free_ones() {
        use netlist::LatchInit;
        let mut aig = Aig::new();
        let en = aig.add_input("en");
        // stuck: starts 0, feeds itself ANDed with an input — stays 0.
        let stuck = aig.add_latch("stuck", LatchInit::Zero);
        let stuck_next = aig.and(stuck, en);
        aig.set_latch_next(0, stuck_next);
        // toggle: starts 0 but may flip when enabled — widens to X.
        let toggle = aig.add_latch("toggle", LatchInit::Zero);
        let toggle_next = aig.mux(en, !toggle, toggle);
        aig.set_latch_next(1, toggle_next);
        aig.add_output("o", toggle);

        let fix = ternary_fixpoint(&aig);
        assert_eq!(fix.values[0], TernaryValue::Zero);
        assert_eq!(fix.values[1], TernaryValue::X);
        assert!(fix.iterations <= aig.num_latches() + 1);
        for trajectory in &fix.trajectories {
            assert_eq!(trajectory.len(), fix.iterations + 1);
        }
        // Monotone: once X, always X.
        for trajectory in &fix.trajectories {
            let mut seen_x = false;
            for &v in trajectory {
                if seen_x {
                    assert_eq!(v, TernaryValue::X);
                }
                seen_x |= v == TernaryValue::X;
            }
        }
    }

    #[test]
    fn fixpoint_keeps_constant_one_latches() {
        use netlist::LatchInit;
        let mut aig = Aig::new();
        let q = aig.add_latch("q", LatchInit::One);
        aig.set_latch_next(0, q); // identity: stays 1 forever
        aig.add_output("o", q);
        let fix = ternary_fixpoint(&aig);
        assert_eq!(fix.values[0], TernaryValue::One);
        assert_eq!(fix.iterations, 1);
    }
}
