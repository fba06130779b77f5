//! Sequential SAT-sweeping: latch-correspondence sweeping driven by
//! X-valued ternary analysis, multi-frame binary simulation and k-step
//! induction.
//!
//! Activated through [`SweepConfig::seq_depth`] (see
//! [`SweepConfig::sequential`]): a nonzero depth makes the
//! [`crate::SweepSession`] sweep latch pairs instead of AND nodes.  The flow
//! mirrors the combinational Fig. 2 loop, lifted to reachable states:
//!
//! 1. **Ternary fixpoint** ([`bitsim::ternary_fixpoint`]): iterate the latch
//!    transition functions from the declared initial values with every
//!    primary input at `X`.  A latch whose fixpoint value stays a definite
//!    0/1 holds that value in *every* reachable state and is replaced by the
//!    constant outright — no SAT involved.
//! 2. **Candidate classes**: the remaining concretely-initialised latches
//!    are bucketed by their phase-canonicalised ternary trajectory plus
//!    `seq_depth + 1` frames of word-parallel binary simulation (random
//!    per-frame input patterns, state signatures chained through the
//!    next-state functions).  Latches that ever disagree on a simulated
//!    reachable-ish state can never correspond, so the buckets prune the
//!    quadratic pair space the same way signatures do combinationally.
//! 3. **k-step induction** on one network: a base-case
//!    unrolling (`seq_depth - 1` transitions from the initial state) and an
//!    induction unrolling (`seq_depth` transitions from a free state) are
//!    built once, and every candidate pair `(target, rep, phase)` adds two
//!    violation literals to them.  The base violation says the pair differs
//!    on one of the first `seq_depth` frames (a SAT answer is a real
//!    counter-example); the step violation says it agrees on `seq_depth`
//!    consecutive frames from a free state and differs on the next (a SAT
//!    answer merely means the depth was too shallow).  Both UNSAT merge the
//!    target latch into its representative.
//!
//! The session proves the candidates one after another, in canonical
//! candidate order, each violation literal an assumption on its one
//! incremental solver over that network — the incremental form of temporal
//! induction (Eén & Sörensson, 2003).  The committed SAT calls,
//! counter-examples and merges — and the swept network — are therefore a
//! pure function of the network and the configuration, exactly like the
//! combinational sweep, and budget stops, checkpoints and resume are the
//! session's own: a resumed run recomputes the analysis and the
//! network, restores the solver, and continues from the query cursor.
//!
//! The whole flow is driven through the ordinary [`crate::Sweeper`]
//! builder — a nonzero [`SweepConfig::sequential`] depth is the only
//! switch.  A duplicated latch is found and merged like so:
//!
//! ```
//! use netlist::{Aig, LatchInit};
//! use stp_sweep::{Engine, SweepConfig, Sweeper};
//!
//! // Two identical latches: q2 mirrors q1's init and transition.
//! let mut aig = Aig::new();
//! let x = aig.add_input("x");
//! let q1 = aig.add_latch("q1", LatchInit::Zero);
//! let q2 = aig.add_latch("q2", LatchInit::Zero);
//! let n1 = aig.xor(q1, x);
//! let n2 = aig.xor(q2, x);
//! aig.set_latch_next(0, n1);
//! aig.set_latch_next(1, n2);
//! let y = aig.and(q1, q2);
//! aig.add_output("y", y);
//!
//! let result = Sweeper::new(Engine::Stp)
//!     .config(SweepConfig::sequential(1)) // k-step induction depth 1
//!     .run(&aig)
//!     .expect("valid config, unlimited budget");
//! assert_eq!(result.report.seq_latches_before, 2);
//! assert_eq!(result.report.seq_latches_after, 1);
//! ```

use crate::report::SweepConfig;
use bitsim::{
    ternary_fixpoint, AigSimulator, PatternSet, Signature, TernaryFixpoint, TernaryValue,
};
use netlist::{Aig, AigNode, LatchInit, Lit, NodeId};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// Unrolling (shared with the BMC oracle in `crate::bmc`).
// ---------------------------------------------------------------------

/// The literals produced by unrolling a sequential network.
pub(crate) struct UnrolledNet {
    /// `states[f][l]` is latch `l`'s state literal at frame `f`
    /// (`frames + 1` entries).
    pub states: Vec<Vec<Lit>>,
    /// `outputs[f][i]` is the `i`-th real (non-latch) primary output at
    /// frame `f` (`frames` entries).
    pub outputs: Vec<Vec<Lit>>,
}

/// Input positions of `aig` that are genuine primary inputs rather than
/// latch states, in ascending position order.
pub(crate) fn real_pi_positions(aig: &Aig) -> Vec<usize> {
    (0..aig.num_inputs())
        .filter(|&p| aig.latch_of_input(p).is_none())
        .collect()
}

/// Output indices of `aig` that are genuine primary outputs rather than
/// latch next-state functions, in ascending index order.
pub(crate) fn real_po_indices(aig: &Aig) -> Vec<usize> {
    (0..aig.num_outputs())
        .filter(|&i| !aig.is_latch_next_output(i))
        .collect()
}

/// Unrolls `frame_pis.len()` transitions of `aig` into `dest`.
///
/// `frame0[l]` supplies latch `l`'s state literal at frame 0;
/// `frame_pis[f][k]` supplies the literal feeding the `k`-th real primary
/// input (ascending position order) at frame `f`.  Latch states thread
/// through the next-state outputs of each copy.
pub(crate) fn unroll_into(
    dest: &mut Aig,
    aig: &Aig,
    frame0: Vec<Lit>,
    frame_pis: &[Vec<Lit>],
) -> UnrolledNet {
    let real_pis = real_pi_positions(aig);
    let real_pos = real_po_indices(aig);
    let latches = aig.latches();
    debug_assert_eq!(frame0.len(), latches.len());
    let mut states = vec![frame0];
    let mut outputs = Vec::with_capacity(frame_pis.len());
    for pis in frame_pis {
        debug_assert_eq!(pis.len(), real_pis.len());
        let mut input_map = vec![Lit::FALSE; aig.num_inputs()];
        for (&pos, &lit) in real_pis.iter().zip(pis) {
            input_map[pos] = lit;
        }
        let current = states.last().expect("frame 0 present").clone();
        for (latch, &lit) in latches.iter().zip(&current) {
            input_map[latch.state_input] = lit;
        }
        let outs = dest.append(aig, &input_map);
        outputs.push(real_pos.iter().map(|&i| outs[i]).collect());
        states.push(latches.iter().map(|l| outs[l.next_output]).collect());
    }
    UnrolledNet { states, outputs }
}

/// Frame-0 state literals from the declared initial values: concrete
/// initialisations become constants, `X`-initialised latches fresh free
/// inputs.
fn init_frame0(dest: &mut Aig, aig: &Aig) -> Vec<Lit> {
    aig.latches()
        .iter()
        .map(|latch| match latch.init {
            LatchInit::Zero => Lit::FALSE,
            LatchInit::One => Lit::TRUE,
            LatchInit::X => dest.add_input(format!("{}@init", aig.input_name(latch.state_input))),
        })
        .collect()
}

/// Fresh primary-input literals for each of `frames` frames, named after
/// the original inputs.
fn fresh_frame_pis(dest: &mut Aig, aig: &Aig, real_pis: &[usize], frames: usize) -> Vec<Vec<Lit>> {
    (0..frames)
        .map(|f| {
            real_pis
                .iter()
                .map(|&p| dest.add_input(format!("{}@{f}", aig.input_name(p))))
                .collect()
        })
        .collect()
}

// ---------------------------------------------------------------------
// Analysis: ternary fixpoint + multi-frame binary refinement.
// ---------------------------------------------------------------------

/// One latch-correspondence candidate: prove that `target`'s state equals
/// `rep`'s state (complemented if `complemented`) in every reachable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    target: usize,
    rep: usize,
    complemented: bool,
}

/// The deterministic pre-SAT analysis — a pure function of the network and
/// the configuration, so a resumed run recomputes it instead of carrying it
/// in the checkpoint.
struct SeqAnalysis {
    fix: TernaryFixpoint,
    /// Latches proved constant in every reachable state, with their values.
    constants: Vec<(usize, bool)>,
    /// Induction candidates in canonical (class-representative, member)
    /// order — the engine's fixed processing sequence.
    candidates: Vec<Candidate>,
}

fn ternary_code(value: TernaryValue) -> u8 {
    match value {
        TernaryValue::Zero => 0,
        TernaryValue::One => 1,
        TernaryValue::X => 2,
    }
}

/// Mixes a frame index into the configured seed (splitmix-style odd
/// multiplier) so every frame simulates a distinct random pattern set.
fn frame_seed(seed: u64, frame: usize) -> u64 {
    seed ^ (frame as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn analyse(aig: &Aig, config: &SweepConfig) -> SeqAnalysis {
    let fix = ternary_fixpoint(aig);
    let latches = aig.latches();
    let constants: Vec<(usize, bool)> = (0..latches.len())
        .filter_map(|l| fix.values[l].concrete().map(|v| (l, v)))
        .collect();

    // Candidate eligibility: concretely initialised (an `X` initial value
    // makes the frame-0 states free variables, so the pair could never be
    // proved equal there) and not already a ternary constant.
    let eligible: Vec<usize> = (0..latches.len())
        .filter(|&l| latches[l].init != LatchInit::X && fix.values[l].concrete().is_none())
        .collect();
    if eligible.is_empty() {
        return SeqAnalysis {
            fix,
            constants,
            candidates: Vec::new(),
        };
    }

    // Phase canonicalisation: a latch initialised to 1 is keyed through its
    // complement, so a pair related by inversion lands in one bucket.
    let phase: Vec<bool> = latches.iter().map(|l| l.init == LatchInit::One).collect();

    // Multi-frame binary refinement: `seq_depth + 1` transitions of
    // word-parallel simulation with fresh random inputs per frame; state
    // signatures chain through the next-state functions.  `X`-initialised
    // latches get random frame-0 signatures (they are not candidates, but
    // their values flow into the cones of latches that are).
    let w = config.num_initial_patterns;
    let frames = config.seq_depth + 1;
    let x_init = PatternSet::random(latches.len(), w, frame_seed(config.seed, frames + 1))
        .expect("validated pattern count");
    let mut state: Vec<Signature> = latches
        .iter()
        .enumerate()
        .map(|(l, latch)| match latch.init {
            LatchInit::Zero => Signature::zeros(w),
            LatchInit::One => Signature::ones(w),
            LatchInit::X => x_init.input_signature(l).clone(),
        })
        .collect();
    let mut sig_words: Vec<Vec<u64>> = vec![Vec::new(); latches.len()];
    let accumulate = |sig_words: &mut Vec<Vec<u64>>, state: &[Signature]| {
        for (l, sig) in state.iter().enumerate() {
            let canonical = if phase[l] {
                sig.complement()
            } else {
                sig.clone()
            };
            sig_words[l].extend_from_slice(canonical.words());
        }
    };
    accumulate(&mut sig_words, &state);
    for frame in 0..frames {
        let random = PatternSet::random(aig.num_inputs(), w, frame_seed(config.seed, frame))
            .expect("validated pattern count");
        let mut inputs: Vec<Signature> = (0..aig.num_inputs())
            .map(|p| random.input_signature(p).clone())
            .collect();
        for (latch, sig) in latches.iter().zip(&state) {
            inputs[latch.state_input] = sig.clone();
        }
        let patterns = PatternSet::from_input_signatures(inputs, w);
        let sim = AigSimulator::new(aig).run(&patterns);
        state = latches
            .iter()
            .map(|l| sim.output_signature(aig, l.next_output))
            .collect();
        accumulate(&mut sig_words, &state);
    }

    // Bucket by (canonical ternary trajectory, canonical chained state
    // signatures); classes ordered by their lowest member, members in
    // ascending latch order — the canonical candidate sequence.
    let mut buckets: HashMap<(Vec<u8>, Vec<u64>), Vec<usize>> = HashMap::new();
    for &l in &eligible {
        let trajectory: Vec<u8> = fix.trajectories[l]
            .iter()
            .map(|&v| ternary_code(v.complement_if(phase[l])))
            .collect();
        buckets
            .entry((trajectory, std::mem::take(&mut sig_words[l])))
            .or_default()
            .push(l);
    }
    let mut classes: Vec<Vec<usize>> = buckets.into_values().filter(|c| c.len() > 1).collect();
    classes.sort_by_key(|c| c[0]);
    let mut candidates = Vec::new();
    for class in classes {
        let rep = class[0];
        for &member in &class[1..] {
            candidates.push(Candidate {
                target: member,
                rep,
                complemented: phase[member] != phase[rep],
            });
        }
    }
    SeqAnalysis {
        fix,
        constants,
        candidates,
    }
}

// ---------------------------------------------------------------------
// The induction network.
// ---------------------------------------------------------------------

/// One latch-correspondence candidate, ready for the session's solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LatchCandidate {
    /// The target latch's state node, and the literal it merges into: the
    /// representative's state, complemented for a complemented pair.  This
    /// is the candidate's merge-log entry.
    pub merge: (NodeId, Lit),
    /// Base-case violation in the induction network: the pair differs on
    /// one of the first `k` frames from the initial state.
    pub base: Lit,
    /// Induction-step violation: from a free state, the pair agrees on `k`
    /// consecutive frames and differs on the next.
    pub step: Lit,
}

/// The fixed plan of a sequential sweep, plus the two counters the session
/// advances while it proves the candidates.
pub(crate) struct Induction {
    /// Latches the ternary fixpoint proved constant, as `(state node,
    /// constant literal)` substitutions.
    pub constants: Vec<(NodeId, Lit)>,
    /// Induction candidates in canonical order.
    pub candidates: Vec<LatchCandidate>,
    /// Inputs of the base-case unrolling, which come first in the
    /// induction network: a refuting counter-example is the prefix of the
    /// network's input assignment of this length.
    pub trace_len: usize,
    /// Iterations the ternary fixpoint took.
    pub ternary_iterations: u64,
    /// Candidates refuted by a satisfiable base case so far.
    pub refuted: u64,
    /// Candidates left undetermined so far.
    pub undet: u64,
}

/// XOR of the pair's state literals at `frame` of an unrolling.
fn state_diff(dest: &mut Aig, states: &[Vec<Lit>], frame: usize, cand: Candidate) -> Lit {
    let target = states[frame][cand.target];
    let rep = states[frame][cand.rep].complement_if(cand.complemented);
    dest.xor(target, rep)
}

/// Analyses `aig` and builds its `k`-step induction network (`k =
/// config.seq_depth`): the base-case unrolling (`k - 1` transitions from
/// the initial state), the induction unrolling (`k` transitions from free
/// states) and each candidate's two violation literals, in canonical
/// order.  Structural hashing shares the frame logic between candidates.
/// Both are pure functions of the network and the configuration.
pub(crate) fn induction(aig: &Aig, config: &SweepConfig) -> (Aig, Induction) {
    let analysis = analyse(aig, config);
    let k = config.seq_depth;
    let real_pis = real_pi_positions(aig);
    let mut net = Aig::new();
    let frame0 = init_frame0(&mut net, aig);
    let pis = fresh_frame_pis(&mut net, aig, &real_pis, k - 1);
    let base = unroll_into(&mut net, aig, frame0, &pis);
    let trace_len = net.num_inputs();
    let frame0: Vec<Lit> = aig
        .latches()
        .iter()
        .map(|latch| net.add_input(format!("{}@free", aig.input_name(latch.state_input))))
        .collect();
    let pis = fresh_frame_pis(&mut net, aig, &real_pis, k);
    let step = unroll_into(&mut net, aig, frame0, &pis);

    let candidates = analysis
        .candidates
        .iter()
        .map(|&cand| {
            let diffs: Vec<Lit> = (0..k)
                .map(|f| state_diff(&mut net, &base.states, f, cand))
                .collect();
            let base_violation = net.or_many(&diffs);
            let mut terms: Vec<Lit> = (0..k)
                .map(|f| !state_diff(&mut net, &step.states, f, cand))
                .collect();
            terms.push(state_diff(&mut net, &step.states, k, cand));
            LatchCandidate {
                merge: (
                    aig.latch_state_lit(cand.target).node(),
                    aig.latch_state_lit(cand.rep)
                        .complement_if(cand.complemented),
                ),
                base: base_violation,
                step: net.and_many(&terms),
            }
        })
        .collect();
    let constants = analysis
        .constants
        .iter()
        .map(|&(l, value)| {
            let constant = if value { Lit::TRUE } else { Lit::FALSE };
            (aig.latch_state_lit(l).node(), constant)
        })
        .collect();
    let plan = Induction {
        constants,
        candidates,
        trace_len,
        ternary_iterations: analysis.fix.iterations as u64,
        refuted: 0,
        undet: 0,
    };
    (net, plan)
}

// ---------------------------------------------------------------------
// Result reconstruction.
// ---------------------------------------------------------------------

/// Rebuilds the network with the proved substitutions applied, each
/// mapping a latch's state node to a constant or to a surviving latch's
/// state literal: removed latches lose their state input and next-state
/// output, their fanouts redirect to the substitution, and dead next-state
/// cones are cleaned up.  Input and output order is otherwise preserved.
pub(crate) fn rebuild<'s>(
    aig: &Aig,
    substitutions: impl IntoIterator<Item = &'s (NodeId, Lit)>,
) -> Aig {
    let subst: HashMap<NodeId, Lit> = substitutions.into_iter().copied().collect();
    let removed = |l: usize| subst.contains_key(&aig.latch_state_lit(l).node());

    let mut new = Aig::new();
    let mut node_map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    node_map[0] = Some(Lit::FALSE);
    // Inputs in original order, minus the states of removed latches.
    let mut input_pos_map: Vec<Option<usize>> = vec![None; aig.num_inputs()];
    for (pos, &node) in aig.inputs().iter().enumerate() {
        if subst.contains_key(&node) {
            continue;
        }
        input_pos_map[pos] = Some(new.num_inputs());
        node_map[node] = Some(new.add_input(aig.input_name(pos)));
    }
    // Removed latch states resolve to their substitutions (representatives
    // always survive, so their new literals exist by now).
    for l in 0..aig.num_latches() {
        let node = aig.latch_state_lit(l).node();
        if let Some(lit) = subst.get(&node) {
            node_map[node] = Some(
                node_map[lit.node()]
                    .expect("representatives survive")
                    .complement_if(lit.is_complemented()),
            );
        }
    }
    // AND nodes in topological order, through the strash (substituted
    // states fold constants and share structure on the way).
    for id in aig.node_ids() {
        let AigNode::And { fanin0, fanin1 } = *aig.node(id) else {
            continue;
        };
        let map = |lit: Lit, node_map: &[Option<Lit>]| {
            node_map[lit.node()]
                .expect("fanins precede their node")
                .complement_if(lit.is_complemented())
        };
        let f0 = map(fanin0, &node_map);
        let f1 = map(fanin1, &node_map);
        node_map[id] = Some(new.and(f0, f1));
    }
    // Outputs in original order, minus the next-state outputs of removed
    // latches.
    let latch_of_output: HashMap<usize, usize> = aig
        .latches()
        .iter()
        .enumerate()
        .map(|(l, latch)| (latch.next_output, l))
        .collect();
    let mut output_pos_map: Vec<Option<usize>> = vec![None; aig.num_outputs()];
    for (i, out) in aig.outputs().iter().enumerate() {
        if latch_of_output.get(&i).is_some_and(|&l| removed(l)) {
            continue;
        }
        let lit = node_map[out.lit.node()]
            .expect("driver mapped")
            .complement_if(out.lit.is_complemented());
        output_pos_map[i] = Some(new.num_outputs());
        new.add_output(out.name.clone(), lit);
    }
    // Re-register the surviving latches at their new positions.
    for (l, latch) in aig.latches().iter().enumerate() {
        if removed(l) {
            continue;
        }
        new.define_latch(
            input_pos_map[latch.state_input].expect("surviving latch state kept"),
            output_pos_map[latch.next_output].expect("surviving latch next kept"),
            latch.init,
        );
    }
    let (cleaned, _) = new.cleanup(&[]);
    cleaned
}
