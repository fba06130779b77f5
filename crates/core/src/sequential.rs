//! Sequential SAT-sweeping: latch-correspondence sweeping driven by
//! X-valued ternary analysis, multi-frame binary simulation and k-step
//! induction.
//!
//! Activated through [`SweepConfig::seq_depth`] (see
//! [`SweepConfig::sequential`]); [`crate::Sweeper::run`] dispatches here
//! when the depth is nonzero.  The flow mirrors the combinational Fig. 2
//! loop, lifted to reachable states:
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
//! 3. **k-step induction**: each candidate pair `(target, rep, phase)` is
//!    proved on per-candidate unrollings of the original network — a base
//!    case (the pair agrees on the first `seq_depth` frames from the
//!    initial state; a SAT answer is a real counter-example) and an
//!    induction step (agreement over `seq_depth` consecutive frames from an
//!    arbitrary state forces agreement on the next; a SAT answer merely
//!    means the depth was too shallow).  Both UNSAT merge the target latch
//!    into its representative.
//!
//! Candidates are proved one after another, in canonical candidate order,
//! each on fresh per-candidate solvers, so the committed SAT calls,
//! counter-examples and merges — and the swept network — are a pure
//! function of the network and the configuration, exactly like the
//! combinational engine.  Budget
//! stops and periodic checkpoints happen at candidate boundaries; a
//! resumed run recomputes the deterministic analysis and continues from
//! the committed-candidate cursor.
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

use crate::budget::BudgetCause;
use crate::checkpoint::{netlist_fingerprint, PhasePod, SweepCheckpoint};
use crate::error::SweepError;
use crate::observer::{Observer, SatCallOutcome, StatsObserver};
use crate::report::{SweepConfig, SweepResult};
use crate::session::Sweeper;
use bitsim::{
    ternary_fixpoint, AigSimulator, PatternSet, Signature, TernaryFixpoint, TernaryValue,
};
use netlist::{Aig, AigNode, LatchInit, Lit};
use satsolver::{CircuitSat, EquivOutcome};
use std::collections::HashMap;
use std::time::{Duration, Instant};

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
// k-step induction per candidate.
// ---------------------------------------------------------------------

enum Verdict {
    /// Both the base case and the induction step are UNSAT: merge.
    Merge,
    /// The base case is satisfiable — a real reachable-state divergence.
    Refuted(Vec<bool>),
    /// The conflict budget ran out, or the induction step is satisfiable
    /// (the depth was too shallow to conclude either way).
    Undetermined,
}

struct Proof {
    verdict: Verdict,
    /// SAT-call outcomes in issue order (base, then step if reached).
    calls: Vec<SatCallOutcome>,
    sat_time: Duration,
}

/// XOR of the pair's state literals at `frame` of an unrolling.
fn state_diff(dest: &mut Aig, states: &[Vec<Lit>], frame: usize, cand: Candidate) -> Lit {
    let target = states[frame][cand.target];
    let rep = states[frame][cand.rep].complement_if(cand.complemented);
    dest.xor(target, rep)
}

/// Proves one candidate by `k`-step induction on fresh per-candidate
/// unrollings of the original network.
fn prove_candidate(aig: &Aig, cand: Candidate, k: usize, conflict_limit: u64) -> Proof {
    let start = Instant::now();
    let mut calls = Vec::with_capacity(2);
    let real_pis = real_pi_positions(aig);

    // Base case: `k - 1` transitions from the initial state; the pair must
    // agree at every one of the first `k` frames.
    let mut base = Aig::new();
    let frame0 = init_frame0(&mut base, aig);
    let pis = fresh_frame_pis(&mut base, aig, &real_pis, k - 1);
    let unrolled = unroll_into(&mut base, aig, frame0, &pis);
    let diffs: Vec<Lit> = (0..k)
        .map(|f| state_diff(&mut base, &unrolled.states, f, cand))
        .collect();
    let violation = base.or_many(&diffs);
    let mut sat = CircuitSat::new(&base);
    match sat.prove_constant(violation, false, conflict_limit) {
        EquivOutcome::CounterExample(assignment) => {
            calls.push(SatCallOutcome::Sat);
            return Proof {
                verdict: Verdict::Refuted(assignment),
                calls,
                sat_time: start.elapsed(),
            };
        }
        EquivOutcome::Undetermined => {
            calls.push(SatCallOutcome::Undetermined);
            return Proof {
                verdict: Verdict::Undetermined,
                calls,
                sat_time: start.elapsed(),
            };
        }
        EquivOutcome::Equivalent => calls.push(SatCallOutcome::Unsat),
    }

    // Induction step: from an arbitrary state, agreement over `k`
    // consecutive frames must force agreement on frame `k`.
    let mut step = Aig::new();
    let frame0: Vec<Lit> = aig
        .latches()
        .iter()
        .map(|latch| step.add_input(format!("{}@free", aig.input_name(latch.state_input))))
        .collect();
    let pis = fresh_frame_pis(&mut step, aig, &real_pis, k);
    let unrolled = unroll_into(&mut step, aig, frame0, &pis);
    let mut terms: Vec<Lit> = (0..k)
        .map(|f| !state_diff(&mut step, &unrolled.states, f, cand))
        .collect();
    terms.push(state_diff(&mut step, &unrolled.states, k, cand));
    let violation = step.and_many(&terms);
    let mut sat = CircuitSat::new(&step);
    let verdict = match sat.prove_constant(violation, false, conflict_limit) {
        EquivOutcome::Equivalent => {
            calls.push(SatCallOutcome::Unsat);
            Verdict::Merge
        }
        EquivOutcome::CounterExample(_) => {
            // Not a real divergence: the induction hypothesis admits
            // unreachable states, so a satisfiable step only means the
            // depth was too shallow.
            calls.push(SatCallOutcome::Sat);
            Verdict::Undetermined
        }
        EquivOutcome::Undetermined => {
            calls.push(SatCallOutcome::Undetermined);
            Verdict::Undetermined
        }
    };
    Proof {
        verdict,
        calls,
        sat_time: start.elapsed(),
    }
}

// ---------------------------------------------------------------------
// Result reconstruction.
// ---------------------------------------------------------------------

enum Subst {
    Const(bool),
    Rep { rep: usize, complemented: bool },
}

/// Rebuilds the network with the proved substitutions applied: removed
/// latches lose their state input and next-state output, their fanouts
/// redirect to the substitution, and dead next-state cones are cleaned up.
/// Input and output order is otherwise preserved.
fn rebuild(aig: &Aig, constants: &[(usize, bool)], merges: &[Candidate]) -> Aig {
    let mut subst: Vec<Option<Subst>> = (0..aig.num_latches()).map(|_| None).collect();
    for &(l, value) in constants {
        subst[l] = Some(Subst::Const(value));
    }
    for c in merges {
        subst[c.target] = Some(Subst::Rep {
            rep: c.rep,
            complemented: c.complemented,
        });
    }

    let mut new = Aig::new();
    let mut node_map: Vec<Option<Lit>> = vec![None; aig.num_nodes()];
    node_map[0] = Some(Lit::FALSE);
    // Inputs in original order, minus the states of removed latches.
    let mut input_pos_map: Vec<Option<usize>> = vec![None; aig.num_inputs()];
    for (pos, &node) in aig.inputs().iter().enumerate() {
        let removed = aig.latch_of_input(pos).is_some_and(|l| subst[l].is_some());
        if removed {
            continue;
        }
        input_pos_map[pos] = Some(new.num_inputs());
        node_map[node] = Some(new.add_input(aig.input_name(pos)));
    }
    // Removed latch states resolve to their substitutions (representatives
    // always survive, so their new literals exist by now).
    for (l, s) in subst.iter().enumerate() {
        let Some(s) = s else { continue };
        let node = aig.latch_state_lit(l).node();
        node_map[node] = Some(match s {
            Subst::Const(value) => {
                if *value {
                    Lit::TRUE
                } else {
                    Lit::FALSE
                }
            }
            Subst::Rep { rep, complemented } => {
                let rep_node = aig.latch_state_lit(*rep).node();
                node_map[rep_node]
                    .expect("representatives survive")
                    .complement_if(*complemented)
            }
        });
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
        if latch_of_output.get(&i).is_some_and(|&l| subst[l].is_some()) {
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
        if subst[l].is_some() {
            continue;
        }
        new.define_latch(
            input_pos_map[latch.state_input].expect("surviving latch state kept"),
            output_pos_map[latch.next_output].expect("surviving latch next kept"),
            latch.init,
        );
    }
    let (cleaned, _) = new.cleanup();
    cleaned
}

// ---------------------------------------------------------------------
// The engine.
// ---------------------------------------------------------------------

/// Mutable run state threaded through the candidate loop.
struct SeqRun<'o> {
    stats: StatsObserver,
    observer: Option<&'o mut dyn crate::Observer>,
    merges: Vec<Candidate>,
    cursor: usize,
    refuted: u64,
    undet: u64,
    sat_time: Duration,
}

impl SeqRun<'_> {
    fn notify_sat_call(&mut self, outcome: SatCallOutcome) {
        self.stats.on_sat_call(outcome);
        if let Some(obs) = self.observer.as_mut() {
            obs.on_sat_call(outcome);
        }
    }

    fn notify_merge(&mut self, node: netlist::NodeId, replacement: Lit) {
        self.stats.on_merge(node, replacement);
        if let Some(obs) = self.observer.as_mut() {
            obs.on_merge(node, replacement);
        }
    }

    fn notify_counterexample(&mut self, assignment: &[bool]) {
        self.stats.on_counterexample(assignment);
        if let Some(obs) = self.observer.as_mut() {
            obs.on_counterexample(assignment);
        }
    }
}

/// Builds the sequential engine's checkpoint: the merge log carries the
/// committed induction merges as `(state node, replacement state literal)`
/// pairs, the committed-candidate cursor indexes the canonical candidate
/// list, and everything the analysis derives deterministically (ternary
/// constants, classes, patterns) is recomputed on resume instead of being
/// serialised.
#[allow(clippy::too_many_arguments)]
fn build_seq_checkpoint(
    aig: &Aig,
    engine: crate::Engine,
    config: &SweepConfig,
    round: usize,
    analysis: &SeqAnalysis,
    run: &SeqRun<'_>,
    simulation_time: Duration,
    elapsed: Duration,
) -> SweepCheckpoint {
    SweepCheckpoint {
        fingerprint: netlist_fingerprint(aig),
        canonical_fingerprint: netlist::canonical_fingerprint(aig),
        primed: true,
        engine,
        config: *config,
        round,
        phase: PhasePod::Start,
        merge_log: run
            .merges
            .iter()
            .map(|c| {
                (
                    aig.latch_state_lit(c.target).node(),
                    aig.latch_state_lit(c.rep).complement_if(c.complemented),
                )
            })
            .collect(),
        dont_touch: Vec::new(),
        classes: Vec::new(),
        constants: Vec::new(),
        stats: run.stats,
        committed_candidates: run.cursor as u64,
        simulation_time,
        sat_time: run.sat_time,
        elapsed,
        solver: CircuitSat::new(aig).snapshot(),
        seq_candidates: analysis.candidates.len() as u64,
        seq_ternary_constants: analysis.constants.len() as u64,
        seq_induction_refuted: run.refuted,
        seq_induction_undet: run.undet,
        seq_ternary_iterations: analysis.fix.iterations as u64,
    }
}

/// Runs (or resumes) a sequential sweep.  Called from [`Sweeper::run`] and
/// [`Sweeper::resume_run`] when `seq_depth > 0`.
pub(crate) fn run_sequential(
    builder: Sweeper<'_>,
    aig: &Aig,
    resume: Option<&SweepCheckpoint>,
) -> Result<SweepResult, SweepError> {
    let mismatch = |what: &str| SweepError::CheckpointMismatch(what.to_string());
    let (engine, config, round) = match resume {
        Some(ckpt) => {
            if ckpt.config().seq_depth == 0 {
                return Err(mismatch(
                    "checkpoint was taken by the combinational engine; resume it \
                     through Sweeper::resume_from",
                ));
            }
            if !ckpt.matches(aig) {
                return Err(mismatch(
                    "netlist fingerprint does not match the checkpoint's — the \
                     checkpoint was taken against a different network",
                ));
            }
            let config = *ckpt.config();
            config.validate()?;
            (ckpt.engine(), config, ckpt.round)
        }
        None => {
            builder.config.validate()?;
            (builder.engine, builder.config, builder.round)
        }
    };
    let k = config.seq_depth;
    debug_assert!(k > 0, "dispatch guarantees a sequential depth");
    let budget = builder.budget;
    let started = Instant::now();

    // A budget exhausted before anything ran: return the input unchanged,
    // with no checkpoint — exactly like an unprimed combinational session.
    if resume.is_none() {
        if let Some(cause) = budget.exceeded(started, 0) {
            let (cleaned, _) = aig.cleanup();
            let stats = StatsObserver::new();
            let mut report = stats.counts();
            report.gates_before = aig.num_ands();
            report.gates_after = cleaned.num_ands();
            report.levels = aig.depth();
            report.seq_latches_before = aig.num_latches();
            report.seq_latches_after = cleaned.num_latches();
            report.total_time = started.elapsed();
            return Err(SweepError::BudgetExhausted {
                cause,
                partial: Box::new(SweepResult {
                    aig: cleaned,
                    report,
                }),
                checkpoint: None,
            });
        }
    }

    // Deterministic analysis (recomputed on resume — it is a pure function
    // of the network and the checkpointed configuration).
    let sim_start = Instant::now();
    let analysis = analyse(aig, &config);
    let simulation_time_leg = sim_start.elapsed();

    // Restore (or initialise) the run state.
    let mut run = SeqRun {
        stats: StatsObserver::new(),
        observer: builder.observer,
        merges: Vec::new(),
        cursor: 0,
        refuted: 0,
        undet: 0,
        sat_time: Duration::ZERO,
    };
    let mut simulation_time_base = Duration::ZERO;
    let mut elapsed_base = Duration::ZERO;
    match resume {
        Some(ckpt) => {
            if ckpt.seq_candidates != analysis.candidates.len() as u64
                || ckpt.seq_ternary_constants != analysis.constants.len() as u64
            {
                return Err(mismatch(
                    "recomputed sequential analysis disagrees with the checkpoint",
                ));
            }
            let cursor = ckpt.committed_candidates() as usize;
            if cursor > analysis.candidates.len() {
                return Err(mismatch("committed-candidate cursor is out of range"));
            }
            // Map each merge-log entry back to a candidate through the
            // latch state nodes.
            let latch_of_state: HashMap<netlist::NodeId, usize> = (0..aig.num_latches())
                .map(|l| (aig.latch_state_lit(l).node(), l))
                .collect();
            let mut merges = Vec::with_capacity(ckpt.merge_log.len());
            for &(node, lit) in &ckpt.merge_log {
                let (Some(&target), Some(&rep)) =
                    (latch_of_state.get(&node), latch_of_state.get(&lit.node()))
                else {
                    return Err(mismatch(
                        "merge log references a node that is not a latch state",
                    ));
                };
                merges.push(Candidate {
                    target,
                    rep,
                    complemented: lit.is_complemented(),
                });
            }
            run.merges = merges;
            run.cursor = cursor;
            run.refuted = ckpt.seq_induction_refuted;
            run.undet = ckpt.seq_induction_undet;
            run.stats = ckpt.stats;
            run.sat_time = ckpt.sat_time;
            simulation_time_base = ckpt.simulation_time;
            elapsed_base = ckpt.elapsed;
        }
        None => {
            // Fresh run: announce the round and commit the ternary
            // constants (analysis results, no SAT involved).  A resumed
            // run recomputes them; the restored stats already count them.
            run.stats.on_round(round, aig.num_ands());
            if let Some(obs) = run.observer.as_mut() {
                obs.on_round(round, aig.num_ands());
            }
            for &(l, value) in &analysis.constants {
                let node = aig.latch_state_lit(l).node();
                let replacement = if value { Lit::TRUE } else { Lit::FALSE };
                run.notify_merge(node, replacement);
            }
        }
    }

    // The candidate loop, in canonical order.  Budget checks and periodic
    // checkpoints sit at candidate boundaries, so a resumed run continues
    // with exactly the candidates an uninterrupted run would prove next.
    let candidates = &analysis.candidates;
    let mut stopped: Option<BudgetCause> = None;
    let mut last_checkpoint = run.cursor as u64;
    let mut last_checkpoint_instant = Instant::now();
    while let Some(&cand) = candidates.get(run.cursor) {
        if let Some(cause) = budget.exceeded(started, run.stats.sat_calls_total()) {
            stopped = Some(cause);
            break;
        }
        let proof = prove_candidate(aig, cand, k, config.conflict_limit);
        for &call in &proof.calls {
            run.notify_sat_call(call);
        }
        run.sat_time += proof.sat_time;
        match proof.verdict {
            Verdict::Merge => {
                run.merges.push(cand);
                let node = aig.latch_state_lit(cand.target).node();
                let replacement = aig
                    .latch_state_lit(cand.rep)
                    .complement_if(cand.complemented);
                run.notify_merge(node, replacement);
            }
            Verdict::Refuted(cex) => {
                run.refuted += 1;
                run.notify_counterexample(&cex);
            }
            Verdict::Undetermined => run.undet += 1,
        }
        run.cursor += 1;
        // A candidate's base case and step may overshoot a SAT-call cap by
        // one, even on the last candidate: the run still reports the stop.
        if let Some(cause) = budget.exceeded(started, run.stats.sat_calls_total()) {
            stopped = Some(cause);
            break;
        }
        if checkpoint_due(
            &config,
            run.cursor as u64,
            last_checkpoint,
            last_checkpoint_instant,
        ) {
            last_checkpoint = run.cursor as u64;
            last_checkpoint_instant = Instant::now();
            let ckpt = build_seq_checkpoint(
                aig,
                engine,
                &config,
                round,
                &analysis,
                &run,
                simulation_time_base + simulation_time_leg,
                elapsed_base + started.elapsed(),
            );
            let encoded = ckpt.encode();
            run.stats.on_checkpoint(&ckpt, &encoded);
            if let Some(obs) = run.observer.as_mut() {
                obs.on_checkpoint(&ckpt, &encoded);
            }
        }
    }
    let stop_checkpoint = stopped.map(|_| {
        Box::new(build_seq_checkpoint(
            aig,
            engine,
            &config,
            round,
            &analysis,
            &run,
            simulation_time_base + simulation_time_leg,
            elapsed_base + started.elapsed(),
        ))
    });

    // Apply the proved substitutions and assemble the report.
    let result_aig = rebuild(aig, &analysis.constants, &run.merges);
    let mut report = run.stats.counts();
    report.gates_before = aig.num_ands();
    report.gates_after = result_aig.num_ands();
    report.levels = aig.depth();
    report.seq_latches_before = aig.num_latches();
    report.seq_latches_after = result_aig.num_latches();
    report.seq_candidates = analysis.candidates.len() as u64;
    report.seq_ternary_constants = analysis.constants.len() as u64;
    report.seq_induction_refuted = run.refuted;
    report.seq_induction_undet = run.undet;
    report.ternary_iterations = analysis.fix.iterations as u64;
    report.simulation_time = simulation_time_base + simulation_time_leg;
    report.sat_time = run.sat_time;
    report.total_time = elapsed_base + started.elapsed();
    let result = SweepResult {
        aig: result_aig,
        report,
    };
    match stopped {
        None => Ok(result),
        Some(cause) => Err(SweepError::BudgetExhausted {
            cause,
            partial: Box::new(result),
            checkpoint: stop_checkpoint,
        }),
    }
}

/// Candidate-count or wall-clock checkpoint cadence (same rules as the
/// combinational session).
fn checkpoint_due(
    config: &SweepConfig,
    cursor: u64,
    last_checkpoint: u64,
    last_checkpoint_instant: Instant,
) -> bool {
    let interval = config.checkpoint_interval;
    if interval > 0 && cursor.saturating_sub(last_checkpoint) >= interval as u64 {
        return true;
    }
    let millis = config.checkpoint_interval_millis;
    millis > 0 && last_checkpoint_instant.elapsed() >= Duration::from_millis(millis)
}
