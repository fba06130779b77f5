//! Correctness oracles: every output of the timed section is checked here,
//! outside the measured time.  A circuit whose output fails its oracle
//! counts as failed.
//!
//! A direct CEC of a swept arithmetic circuit against its input is a single
//! hard SAT query (minutes for the Small suite), so the combinational
//! oracle proves equivalence in two easy steps instead: every merge the
//! sweep applied is re-proved on a fresh solver over the input network,
//! which makes the input with those substitutions applied equivalent to the
//! input; and `cec::check_equivalence` proves that substituted network
//! equivalent to the written one (structurally they nearly coincide, so the
//! miter collapses).  A seeded random co-simulation of input and output,
//! which does not depend on the SAT solver, completes the check.

use crate::inputs::derive;
use crate::trace::Recorder;
use bitsim::{AigSimulator, PatternSet, Signature};
use netlist::{Aig, AigNode, LatchInit, Lit, NodeId};
use satsolver::{CircuitSat, EquivOutcome};
use std::time::{Duration, Instant};
use stp_sweep::cec;

/// Conflict budget of every oracle SAT query.
const ORACLE_CONFLICTS: u64 = 200_000;
/// Random patterns of the co-simulation oracles.
const COSIM_PATTERNS: usize = 1024;
/// Time frames of the sequential co-simulation.
const SEQ_FRAMES: usize = 24;

/// Measurements of re-proving a merge log (the SAT replay).
#[derive(Debug, Default)]
pub struct Replay {
    /// Latency of each query.
    pub latencies: Vec<Duration>,
    /// Solver conflicts, summed over the queries.
    pub conflicts: u64,
    /// Solver propagations, summed over the queries.
    pub propagations: u64,
    /// Solver decisions, summed over the queries.
    pub decisions: u64,
}

/// Re-proves the ordered merge log of a sweep on one fresh solver over the
/// input network: every merge is an UNSAT query (`prove_equivalent` for
/// pairs, `prove_constant` for constants), timed one by one.
pub fn replay(aig: &Aig, merges: &[(NodeId, Lit)], acc: &mut Replay) -> Result<(), String> {
    let mut sat = CircuitSat::new(aig);
    for &(candidate, replacement) in merges {
        let before = sat.solver_stats();
        let started = Instant::now();
        let outcome = if replacement.is_constant() {
            sat.prove_constant(
                Lit::positive(candidate),
                replacement == Lit::TRUE,
                ORACLE_CONFLICTS,
            )
        } else {
            sat.prove_equivalent(Lit::positive(candidate), replacement, ORACLE_CONFLICTS)
        };
        acc.latencies.push(started.elapsed());
        let after = sat.solver_stats();
        acc.conflicts += after.conflicts - before.conflicts;
        acc.propagations += after.propagations - before.propagations;
        acc.decisions += after.decisions - before.decisions;
        if outcome != EquivOutcome::Equivalent {
            return Err(format!(
                "the merge of node {candidate} into {replacement:?} does not re-prove: {outcome:?}"
            ));
        }
    }
    Ok(())
}

/// The input network with every merge of the log applied (candidate nodes
/// replaced by their replacement literals, structurally hashed).
pub fn substitute(input: &Aig, merges: &[(NodeId, Lit)]) -> Result<Aig, String> {
    let n = input.num_nodes();
    let mut replacement: Vec<Option<Lit>> = vec![None; n];
    for &(candidate, lit) in merges {
        replacement[candidate] = Some(lit);
    }
    let mut out = Aig::new();
    let mut map = vec![Lit::FALSE; n];
    // 0 = unvisited, 1 = in progress, 2 = mapped.
    let mut state = vec![0u8; n];
    state[0] = 2;
    for (position, &node) in input.inputs().iter().enumerate() {
        map[node] = out.add_input(input.input_name(position));
        state[node] = 2;
    }
    let deps = |id: NodeId| -> Vec<NodeId> {
        match (replacement[id], input.node(id)) {
            (Some(lit), _) => vec![lit.node()],
            (None, AigNode::And { fanin0, fanin1 }) => vec![fanin0.node(), fanin1.node()],
            (None, _) => Vec::new(),
        }
    };
    let mut stack = Vec::new();
    for output in input.outputs() {
        stack.push(output.lit.node());
        while let Some(&id) = stack.last() {
            if state[id] == 2 {
                stack.pop();
                continue;
            }
            let pending: Vec<NodeId> = deps(id).into_iter().filter(|&d| state[d] != 2).collect();
            if state[id] == 0 {
                state[id] = 1;
                for d in pending {
                    if state[d] == 1 {
                        return Err(format!("the merges form a cycle through node {d}"));
                    }
                    stack.push(d);
                }
                continue;
            }
            if !pending.is_empty() {
                return Err(format!("the merges form a cycle through node {id}"));
            }
            let mapped =
                |lit: Lit, map: &[Lit]| map[lit.node()].complement_if(lit.is_complemented());
            map[id] = match (replacement[id], input.node(id)) {
                (Some(lit), _) => mapped(lit, &map),
                (None, AigNode::And { fanin0, fanin1 }) => {
                    let (f0, f1) = (mapped(*fanin0, &map), mapped(*fanin1, &map));
                    out.and(f0, f1)
                }
                (None, _) => unreachable!("inputs and the constant are mapped up front"),
            };
            state[id] = 2;
            stack.pop();
        }
    }
    for output in input.outputs() {
        let lit = map[output.lit.node()].complement_if(output.lit.is_complemented());
        out.add_output(output.name.clone(), lit);
    }
    Ok(out)
}

/// Combinational sweep oracle (see the module documentation).  The merge
/// replay adds its measurements to `replay_acc`, and is recorded as a
/// `replay` span of the given circuit when a recorder is given.
pub fn check_combinational(
    input: &Aig,
    output: &Aig,
    merges: &[(NodeId, Lit)],
    seed: u64,
    replay_acc: &mut Replay,
    trace: Option<(&mut Recorder, usize)>,
) -> Result<(), String> {
    let mut proofs = || replay(input, merges, replay_acc);
    match trace {
        Some((rec, index)) => rec.leaf("replay", Some(index), proofs)?,
        None => proofs()?,
    }
    let substituted = substitute(input, merges)?;
    let verdict = cec::check_equivalence(&substituted, output, ORACLE_CONFLICTS);
    if !verdict.equivalent || verdict.undetermined {
        return Err(format!(
            "CEC of the substituted input against the output: equivalent {}, undetermined {}",
            verdict.equivalent, verdict.undetermined
        ));
    }
    if input.num_outputs() != output.num_outputs() {
        return Err("output count changed".into());
    }
    let patterns = PatternSet::random(input.num_inputs(), COSIM_PATTERNS, derive(0xC05, seed))
        .expect("the pattern count is nonzero");
    let a = AigSimulator::new(input).run(&patterns);
    let b = AigSimulator::new(output).run(&patterns);
    match (0..input.num_outputs())
        .find(|&o| a.output_signature(input, o) != b.output_signature(output, o))
    {
        Some(o) => Err(format!("co-simulation differs on output {o}")),
        None => Ok(()),
    }
}

/// Sequential sweep oracle: a seeded multi-frame co-simulation of the input
/// and swept machines from their initial states (`X`-initialised latches
/// matched by name and given equal random values), plus the requirement that
/// every planted latch pair was merged.
pub fn check_sequential(
    input: &Aig,
    output: &Aig,
    planted: &[(usize, usize)],
    seed: u64,
) -> Result<(), String> {
    let latch_name = |aig: &Aig, l: usize| aig.input_name(aig.latches()[l].state_input).to_string();
    let surviving: std::collections::HashSet<String> = (0..output.num_latches())
        .map(|l| latch_name(output, l))
        .collect();
    for &(a, b) in planted {
        let (na, nb) = (latch_name(input, a), latch_name(input, b));
        if surviving.contains(&na) && surviving.contains(&nb) {
            return Err(format!("planted pair {na}/{nb} was not merged"));
        }
    }

    let real_inputs = |aig: &Aig| -> Vec<usize> {
        (0..aig.num_inputs())
            .filter(|&p| aig.latch_of_input(p).is_none())
            .collect()
    };
    let real_outputs = |aig: &Aig| -> Vec<usize> {
        (0..aig.num_outputs())
            .filter(|&o| !aig.is_latch_next_output(o))
            .collect()
    };
    let (in_pis, out_pis) = (real_inputs(input), real_inputs(output));
    let (in_pos, out_pos) = (real_outputs(input), real_outputs(output));
    if in_pis.len() != out_pis.len() || in_pos.len() != out_pos.len() {
        return Err("real input or output count changed".into());
    }

    // A random signature keyed by a name, so that both machines draw the
    // same values for latches of the same name.
    let keyed = |key: &str, salt: u64| -> Signature {
        let hash = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        PatternSet::random(1, COSIM_PATTERNS, derive(hash ^ salt, seed))
            .expect("the pattern count is nonzero")
            .input_signature(0)
            .clone()
    };
    let initial = |aig: &Aig| -> Vec<Signature> {
        (0..aig.num_latches())
            .map(|l| match aig.latches()[l].init {
                LatchInit::Zero => Signature::zeros(COSIM_PATTERNS),
                LatchInit::One => Signature::ones(COSIM_PATTERNS),
                LatchInit::X => keyed(&latch_name(aig, l), 0x1A7C),
            })
            .collect()
    };
    let step = |aig: &Aig, pis: &[usize], state: &[Signature], frame_inputs: &[Signature]| {
        let mut columns = vec![Signature::zeros(COSIM_PATTERNS); aig.num_inputs()];
        for (&p, sig) in pis.iter().zip(frame_inputs) {
            columns[p] = sig.clone();
        }
        for (l, latch) in aig.latches().iter().enumerate() {
            columns[latch.state_input] = state[l].clone();
        }
        let patterns = PatternSet::from_input_signatures(columns, COSIM_PATTERNS);
        let sim = AigSimulator::new(aig).run(&patterns);
        let next: Vec<Signature> = aig
            .latches()
            .iter()
            .map(|latch| sim.output_signature(aig, latch.next_output))
            .collect();
        (sim, next)
    };

    let mut in_state = initial(input);
    let mut out_state = initial(output);
    for frame in 0..SEQ_FRAMES {
        let frame_inputs: Vec<Signature> = (0..in_pis.len())
            .map(|i| keyed(&format!("pi{i}@{frame}"), 0xF4A3))
            .collect();
        let (in_sim, in_next) = step(input, &in_pis, &in_state, &frame_inputs);
        let (out_sim, out_next) = step(output, &out_pis, &out_state, &frame_inputs);
        for (&a, &b) in in_pos.iter().zip(&out_pos) {
            if in_sim.output_signature(input, a) != out_sim.output_signature(output, b) {
                return Err(format!("output {a} differs in frame {frame}"));
            }
        }
        in_state = in_next;
        out_state = out_next;
    }
    Ok(())
}
