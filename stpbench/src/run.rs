//! The timed section of every workload, its untraced repetitions, and the
//! traced run with its per-layer probes.

use crate::inputs::{Circuit, Workload};
use crate::metrics::Metrics;
use crate::oracle::{self, Replay};
use crate::trace::{quantile, span, Recorder, TimingObserver};
use bitsim::ternary::ternary_fixpoint;
use bitsim::{AigSimState, AigSimulator, PatternSet};
use netlist::aiger::{read_aiger_bytes, write_aiger_binary_bytes};
use netlist::{lutmap, Aig, Lit, LutNetwork, NodeId};
use satsolver::CircuitSat;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};
use stp_sweep::equiv::EquivClasses;
use stp_sweep::patterns::{random_patterns, sat_guided_patterns, PatternGenConfig};
use stp_sweep::stp_sim::{StpSimState, StpSimulator};
use stp_sweep::window::WindowIndex;
use stp_sweep::{
    Budget, Engine, Observer, SweepCheckpoint, SweepConfig, SweepError, SweepReport, SweepResult,
    Sweeper,
};

/// LUT size of the `simulate-klut` mapping.
const LUT_K: usize = 6;
/// Induction depth of `sweep-seq`.
const SEQ_DEPTH: usize = 2;

/// The engine and configuration of a sweep workload (single-threaded).
pub fn engine_config(workload: Workload) -> (Engine, SweepConfig) {
    let (engine, config) = match workload {
        Workload::SweepBaseline => (Engine::Baseline, SweepConfig::baseline()),
        Workload::SweepSeq => (Engine::Stp, SweepConfig::sequential(SEQ_DEPTH)),
        Workload::SweepStp | Workload::SimulateKlut => (Engine::Stp, SweepConfig::paper()),
    };
    (engine, config.parallelism(1).sat_parallelism(1))
}

/// What the timed section produced for one circuit.
pub struct Produced {
    /// The input network, as read from the AIGER bytes.
    pub input: Aig,
    /// The AIGER bytes the timed section wrote.
    pub output: Vec<u8>,
    /// The sweep result (sweep workloads).
    pub swept: Option<SweepResult>,
    /// The mapping and both simulations (`simulate-klut`).
    pub sims: Option<(LutNetwork, AigSimState, StpSimState)>,
}

impl Produced {
    /// Size of the produced network: ANDs plus latches after a sweep, LUTs
    /// after mapping.
    pub fn nodes_after(&self) -> u64 {
        match (&self.swept, &self.sims) {
            (Some(r), _) => (r.aig.num_ands() + r.aig.num_latches()) as u64,
            (None, Some((luts, _, _))) => luts.num_luts() as u64,
            (None, None) => 0,
        }
    }

    /// A digest of everything the timed section produced: the AIGER bytes
    /// and, for `simulate-klut`, the LUT count and every output signature of
    /// both simulators.  Later repetitions must reproduce the first one's.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.output.hash(&mut h);
        if let Some((luts, bit, stp)) = &self.sims {
            luts.num_luts().hash(&mut h);
            for o in 0..self.input.num_outputs() {
                bit.output_signature(&self.input, o).hash(&mut h);
                stp.output_signature(luts, o).hash(&mut h);
            }
        }
        h.finish()
    }
}

/// What a repetition keeps of a circuit.
#[derive(Debug, Clone)]
pub struct Kept {
    /// The AIGER bytes written.
    pub output: Vec<u8>,
    /// See [`Produced::nodes_after`].
    pub nodes_after: u64,
    /// See [`Produced::digest`].
    pub digest: u64,
    /// The sweep's merge log, for the deferred combinational oracle.
    pub merges: Vec<(NodeId, Lit)>,
}

/// Whether the workload's oracle runs after the repetitions (see
/// [`check_deferred`]) rather than right after each circuit.
fn deferred(workload: Workload) -> bool {
    matches!(workload, Workload::SweepStp | Workload::SweepBaseline)
}

/// The timed section for one circuit: AIGER read, then the sweep (or the
/// LUT mapping and both simulators), then AIGER write.  Returns the time it
/// took and what it produced.
pub fn timed_circuit(
    workload: Workload,
    index: usize,
    circuit: &Circuit,
    mut rec: Option<&mut Recorder>,
    observer: Option<&mut dyn Observer>,
) -> (Duration, Result<Produced, String>) {
    let started = Instant::now();
    let input = match span(rec.as_deref_mut(), "aiger_read", index, || {
        read_aiger_bytes(&circuit.aiger)
    }) {
        Ok(aig) => aig,
        Err(e) => return (started.elapsed(), Err(format!("AIGER read: {e}"))),
    };
    if workload == Workload::SimulateKlut {
        let patterns = circuit
            .patterns
            .as_ref()
            .expect("simulate-klut inputs carry patterns");
        let luts = span(rec.as_deref_mut(), "lutmap", index, || {
            lutmap::map_to_luts(&input, LUT_K)
        });
        let bit = span(rec.as_deref_mut(), "aig_sim", index, || {
            AigSimulator::new(&input).run(patterns)
        });
        let stp = span(rec.as_deref_mut(), "klut_sim", index, || {
            StpSimulator::new(&luts).simulate_all(patterns)
        });
        let output = span(rec.as_deref_mut(), "aiger_write", index, || {
            write_aiger_binary_bytes(&input)
        });
        let elapsed = started.elapsed();
        let produced = Produced {
            input,
            output,
            swept: None,
            sims: Some(black_box((luts, bit, stp))),
        };
        return (elapsed, Ok(produced));
    }

    let (engine, config) = engine_config(workload);
    let mut sweeper = Sweeper::new(engine).config(config);
    if let Some(observer) = observer {
        sweeper = sweeper.observer(observer);
    }
    let result = if workload == Workload::SweepSeq {
        span(rec.as_deref_mut(), "run", index, || sweeper.run(&input))
    } else {
        span(rec.as_deref_mut(), "begin", index, || sweeper.begin(&input))
            .and_then(|session| span(rec.as_deref_mut(), "run", index, || session.run()))
    };
    let result = match result {
        Ok(result) => result,
        Err(e) => return (started.elapsed(), Err(format!("sweep: {e}"))),
    };
    let output = span(rec, "aiger_write", index, || {
        write_aiger_binary_bytes(&result.aig)
    });
    let elapsed = started.elapsed();
    let produced = Produced {
        input,
        output,
        swept: Some(result),
        sims: None,
    };
    (elapsed, Ok(produced))
}

/// The oracle of `simulate-klut` and `sweep-seq`, which needs the in-memory
/// results; combinational sweeps are checked from their bytes instead.
fn check_in_memory(
    workload: Workload,
    circuit: &Circuit,
    produced: &Produced,
    seed: u64,
) -> Result<(), String> {
    match workload {
        Workload::SimulateKlut => {
            let (luts, bit, stp) = produced
                .sims
                .as_ref()
                .expect("simulate-klut keeps its simulations");
            let input = &produced.input;
            match (0..input.num_outputs())
                .find(|&o| stp.output_signature(luts, o) != bit.output_signature(input, o))
            {
                Some(o) => Err(format!("STP and bitwise signatures differ on output {o}")),
                None => Ok(()),
            }
        }
        Workload::SweepSeq => {
            let swept = produced.swept.as_ref().expect("sweeps keep their result");
            oracle::check_sequential(&produced.input, &swept.aig, &circuit.planted, seed)
        }
        Workload::SweepStp | Workload::SweepBaseline => {
            unreachable!("combinational sweeps are checked from their AIGER bytes")
        }
    }
}

/// One untraced repetition of the timed section over the whole suite.
/// Returns, per circuit, the time of its timed section and what it kept or
/// why it failed.  `check_outputs` runs the oracles that need the in-memory
/// results (outside the time); the combinational sweep oracle is left to
/// [`check_deferred`], so that it does not eat into the measured seconds.
pub fn untraced_rep(
    workload: Workload,
    circuits: &[Circuit],
    seed: u64,
    check_outputs: bool,
) -> (Vec<f64>, Vec<Result<Kept, String>>) {
    let mut times = Vec::with_capacity(circuits.len());
    let mut kept = Vec::with_capacity(circuits.len());
    for (index, circuit) in circuits.iter().enumerate() {
        // The merge log feeds the oracle; recording it untimed costs one
        // push per merge and no clock reads.
        let mut observer = TimingObserver::default();
        let (elapsed, produced) =
            timed_circuit(workload, index, circuit, None, Some(&mut observer));
        times.push(elapsed.as_secs_f64());
        kept.push(produced.and_then(|p| {
            if check_outputs && !deferred(workload) {
                check_in_memory(workload, circuit, &p, seed)?;
            }
            Ok(Kept {
                nodes_after: p.nodes_after(),
                digest: p.digest(),
                output: p.output,
                merges: observer.merges,
            })
        }));
    }
    (times, kept)
}

/// Runs the combinational sweep oracle on what a repetition kept: the input
/// and output are re-read from their AIGER bytes.  Other workloads were
/// checked in [`untraced_rep`].
pub fn check_deferred(
    workload: Workload,
    circuits: &[Circuit],
    kept: Vec<Result<Kept, String>>,
    seed: u64,
) -> Vec<Result<Kept, String>> {
    if !deferred(workload) {
        return kept;
    }
    kept.into_iter()
        .zip(circuits)
        .map(|(kept, circuit)| {
            let kept = kept?;
            let input = read_aiger_bytes(&circuit.aiger).map_err(|e| format!("AIGER read: {e}"))?;
            let output = read_aiger_bytes(&kept.output)
                .map_err(|e| format!("re-reading the output: {e}"))?;
            oracle::check_combinational(
                &input,
                &output,
                &kept.merges,
                seed,
                &mut Replay::default(),
                None,
            )?;
            Ok(kept)
        })
        .collect()
}

/// Sums over the traced run.
#[derive(Default)]
struct Acc {
    report: SweepReport,
    gates_after: u64,
    latches_after: u64,
    intervals: Vec<Duration>,
    refinements: u64,
    guided: u64,
    candidates: u64,
    lut_nodes: u64,
    replay: Replay,
    checkpoint_bytes: u64,
    /// Sweep time and SAT calls of each engine over the paired sweeps.
    paired: [(Duration, u64); 2],
}

/// Stops the sweep at half its SAT calls, round-trips the checkpoint through
/// its encoding and resumes; the resumed output must be byte-identical to
/// the uninterrupted run's.
fn checkpoint_probe(
    rec: &mut Recorder,
    index: usize,
    input: &Aig,
    full: &SweepResult,
    full_bytes: &[u8],
    acc: &mut Acc,
) -> Result<(), String> {
    let (engine, config) = engine_config(Workload::SweepStp);
    let half = full.report.sat_calls_total / 2;
    if half == 0 {
        return Ok(());
    }
    let stopped = rec.leaf("checkpoint_stop", Some(index), || {
        Sweeper::new(engine)
            .config(config)
            .budget(Budget::unlimited().with_max_sat_calls(half))
            .run(input)
    });
    let checkpoint = match stopped {
        Err(SweepError::BudgetExhausted {
            checkpoint: Some(c),
            ..
        }) => *c,
        Err(e) => return Err(format!("checkpoint probe: {e}")),
        Ok(_) => {
            return Err("checkpoint probe: the sweep did not stop at half its SAT calls".into())
        }
    };
    let encoded = rec.leaf("checkpoint_encode", Some(index), || checkpoint.encode());
    acc.checkpoint_bytes += encoded.len() as u64;
    let decoded = rec
        .leaf("checkpoint_decode", Some(index), || {
            SweepCheckpoint::decode(&encoded)
        })
        .map_err(|e| format!("checkpoint decode: {e}"))?;
    let resumed = rec
        .leaf("checkpoint_resume", Some(index), || {
            Sweeper::new(engine)
                .resume_from(input, &decoded)
                .and_then(|s| s.run())
        })
        .map_err(|e| format!("checkpoint resume: {e}"))?;
    if write_aiger_binary_bytes(&resumed.aig) != full_bytes {
        return Err("the resumed sweep wrote different AIGER bytes".into());
    }
    Ok(())
}

/// Standalone calls into the pattern, simulation, class and window layers
/// with the engine's own settings.
fn layer_probes(rec: &mut Recorder, index: usize, workload: Workload, input: &Aig, acc: &mut Acc) {
    let (engine, config) = engine_config(workload);
    let patterns = rec.leaf("patterns", Some(index), || {
        if engine == Engine::Stp && config.sat_guided_patterns {
            let mut sat = CircuitSat::new(input);
            let gen = PatternGenConfig {
                num_random: config.num_initial_patterns,
                seed: config.seed,
                conflict_limit: config.conflict_limit.min(2_000),
                ..PatternGenConfig::default()
            };
            let (patterns, stats) = sat_guided_patterns(input, &mut sat, &gen);
            acc.guided += (stats.round1_patterns + stats.round2_patterns) as u64;
            patterns
        } else {
            random_patterns(input, config.num_initial_patterns, config.seed)
        }
    });
    let state = rec.leaf("initial_sim", Some(index), || {
        AigSimulator::new(input).run(&patterns)
    });
    let classes = rec.leaf("equiv_classes", Some(index), || {
        EquivClasses::from_node_signatures(input.and_ids().map(|id| (id, state.signature(id))))
    });
    acc.candidates += classes.num_candidates() as u64;
    if engine == Engine::Stp {
        black_box(rec.leaf("window_index", Some(index), || {
            WindowIndex::build(input, config.window_limit)
        }));
    }
}

/// Traced probes of `simulate-klut`: the same simulations on two threads
/// (which must give identical signatures).
fn klut_probes(
    rec: &mut Recorder,
    index: usize,
    circuit: &Circuit,
    produced: &Produced,
) -> Result<(), String> {
    let patterns: &PatternSet = circuit
        .patterns
        .as_ref()
        .expect("simulate-klut inputs carry patterns");
    let (luts, bit, stp) = produced
        .sims
        .as_ref()
        .expect("simulate-klut keeps its simulations");
    let input = &produced.input;
    let bit2 = rec.leaf("aig_sim_t2", Some(index), || {
        AigSimulator::new(input).run_parallel(patterns, 2)
    });
    if (0..input.num_outputs())
        .any(|o| bit2.output_signature(input, o) != bit.output_signature(input, o))
    {
        return Err("two-thread bitwise simulation differs".into());
    }
    drop(bit2);
    let stp2 = rec.leaf("klut_sim_t2", Some(index), || {
        StpSimulator::new(luts).simulate_all_parallel(patterns, 2)
    });
    if (0..input.num_outputs())
        .any(|o| stp2.output_signature(luts, o) != stp.output_signature(luts, o))
    {
        return Err("two-thread STP simulation differs".into());
    }
    Ok(())
}

/// The result of the traced run.
pub struct Traced {
    /// Per-layer metrics.
    pub metrics: Metrics,
    /// The recorded spans.
    pub recorder: Recorder,
    /// Circuits whose traced run or probes failed.
    pub failed: u64,
}

/// The traced run: the timed section once more with spans and a timing
/// observer attached, followed per circuit by the oracle and the layer
/// probes.  `untraced_wall` is the time of the untraced repetition it is
/// compared with.
pub fn traced_run(
    workload: Workload,
    circuits: &[Circuit],
    seed: u64,
    untraced_wall: f64,
) -> Traced {
    let mut rec = Recorder::new();
    let mut acc = Acc::default();
    let mut failed = 0;
    let mut traced_wall = Duration::ZERO;
    let workload_span = rec.enter("workload", None);
    for (index, circuit) in circuits.iter().enumerate() {
        let circuit_span = rec.enter("circuit", Some(index));
        let mut observer = TimingObserver::timed();
        let (elapsed, produced) = timed_circuit(
            workload,
            index,
            circuit,
            Some(&mut rec),
            Some(&mut observer),
        );
        traced_wall += elapsed;
        let outcome = produced.and_then(|produced| {
            let verify = rec.enter("verify", Some(index));
            let checked = if deferred(workload) {
                read_aiger_bytes(&produced.output)
                    .map_err(|e| format!("re-reading the output: {e}"))
                    .and_then(|written| {
                        oracle::check_combinational(
                            &produced.input,
                            &written,
                            &observer.merges,
                            seed,
                            &mut acc.replay,
                            Some((&mut rec, index)),
                        )
                    })
            } else {
                check_in_memory(workload, circuit, &produced, seed)
            };
            rec.exit(verify);
            checked?;
            probe_circuit(
                &mut rec, index, workload, circuit, &produced, &observer, &mut acc,
            )
        });
        if let Err(e) = outcome {
            eprintln!("{}: traced run failed: {e}", circuit.name);
            failed += 1;
        }
        rec.exit(circuit_span);
    }
    rec.exit(workload_span);

    let mut m = Metrics::default();
    let r = &acc.report;
    let secs = |d: Duration| d.as_secs_f64();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.set("sat_calls", r.sat_calls_total as f64);
    m.set("gates_after", acc.gates_after as f64);
    m.set("latches_after", acc.latches_after as f64);
    m.set("sat.calls_sat", r.sat_calls_sat as f64);
    m.set("sat.calls_unsat", r.sat_calls_unsat as f64);
    m.set("sat.calls_undet", r.sat_calls_undet as f64);
    m.set(
        "sat.us_per_call",
        ratio(us(r.sat_time), r.sat_calls_total as f64),
    );
    m.set(
        "sat.false_candidate_ratio",
        ratio(r.sat_calls_sat as f64, r.sat_calls_total as f64),
    );
    m.set("prover.batches", r.sat_batches as f64);
    m.set(
        "prover.mean_batch",
        ratio(r.sat_batch_committed as f64, r.sat_batches as f64),
    );
    m.set("prover.discarded", r.sat_parallel_conflicts as f64);
    let replay = &acc.replay;
    m.set("satsolver.replay_queries", replay.latencies.len() as f64);
    m.set("satsolver.replay_s", secs(replay.latencies.iter().sum()));
    m.set(
        "satsolver.replay_p50_us",
        us(quantile(&replay.latencies, 0.50)),
    );
    m.set(
        "satsolver.replay_p99_us",
        us(quantile(&replay.latencies, 0.99)),
    );
    m.set("satsolver.replay_conflicts", replay.conflicts as f64);
    m.set("satsolver.replay_propagations", replay.propagations as f64);
    m.set("satsolver.replay_decisions", replay.decisions as f64);
    m.set("session.begin_s", secs(rec.total("begin")));
    m.set("session.run_s", secs(rec.total("run")));
    m.set("report.simulation_s", secs(r.simulation_time));
    m.set("report.sat_s", secs(r.sat_time));
    m.set(
        "report.other_s",
        secs(r.total_time) - secs(r.simulation_time) - secs(r.sat_time),
    );
    m.set(
        "session.sat_interval_p50_us",
        us(quantile(&acc.intervals, 0.50)),
    );
    m.set(
        "session.sat_interval_p99_us",
        us(quantile(&acc.intervals, 0.99)),
    );
    m.set("patterns.gen_s", secs(rec.total("patterns")));
    m.set("patterns.guided", acc.guided as f64);
    m.set("window.index_s", secs(rec.total("window_index")));
    m.set("window.proved", r.proved_by_simulation as f64);
    m.set("window.disproved", r.disproved_by_simulation as f64);
    m.set("equiv.classes_s", secs(rec.total("equiv_classes")));
    m.set("equiv.candidates", acc.candidates as f64);
    m.set("equiv.refinements", acc.refinements as f64);
    m.set("resim.events", r.resim_events as f64);
    m.set("resim.nodes", r.resim_nodes as f64);
    m.set(
        "resim.skip_ratio",
        ratio(
            r.resim_skipped_nodes as f64,
            (r.resim_nodes + r.resim_skipped_nodes) as f64,
        ),
    );
    m.set("bitsim.initial_sim_s", secs(rec.total("initial_sim")));
    m.set("bitsim.aig_sim_s", secs(rec.total("aig_sim")));
    m.set("bitsim.aig_sim_t2_s", secs(rec.total("aig_sim_t2")));
    m.set("stp_sim.klut_sim_s", secs(rec.total("klut_sim")));
    m.set("stp_sim.klut_sim_t2_s", secs(rec.total("klut_sim_t2")));
    m.set("netlist.lutmap_s", secs(rec.total("lutmap")));
    m.set("netlist.lut_nodes", acc.lut_nodes as f64);
    m.set("seq.candidates", r.seq_candidates as f64);
    m.set("seq.ternary_constants", r.seq_ternary_constants as f64);
    m.set("seq.refuted", r.seq_induction_refuted as f64);
    m.set("seq.undet", r.seq_induction_undet as f64);
    m.set("seq.ternary_iterations", r.ternary_iterations as f64);
    m.set(
        "bitsim.ternary_fixpoint_s",
        secs(rec.total("ternary_fixpoint")),
    );
    m.set("netlist.aiger_read_s", secs(rec.total("aiger_read")));
    m.set("netlist.aiger_write_s", secs(rec.total("aiger_write")));
    m.set("checkpoint.bytes", acc.checkpoint_bytes as f64);
    m.set("checkpoint.encode_s", secs(rec.total("checkpoint_encode")));
    m.set("checkpoint.decode_s", secs(rec.total("checkpoint_decode")));
    m.set("cec.verify_s", secs(rec.total("verify")));
    m.set("trace.wall_s", secs(traced_wall));
    m.set("trace.overhead_s", secs(traced_wall) - untraced_wall);
    if matches!(workload, Workload::SweepStp | Workload::SweepBaseline) {
        let [(stp, stp_calls), (base, base_calls)] = acc.paired;
        m.set("stp_over_baseline.wall", ratio(secs(stp), secs(base)));
        m.set(
            "stp_over_baseline.sat_calls",
            ratio(stp_calls as f64, base_calls as f64),
        );
    }
    if workload == Workload::SimulateKlut {
        m.set(
            "stp_over_bitwise.sim",
            ratio(secs(rec.total("klut_sim")), secs(rec.total("aig_sim"))),
        );
    }
    Traced {
        metrics: m,
        recorder: rec,
        failed,
    }
}

/// Folds one traced circuit into the sums and runs its probes.
fn probe_circuit(
    rec: &mut Recorder,
    index: usize,
    workload: Workload,
    circuit: &Circuit,
    produced: &Produced,
    observer: &TimingObserver,
    acc: &mut Acc,
) -> Result<(), String> {
    if workload == Workload::SimulateKlut {
        let (luts, _, _) = produced
            .sims
            .as_ref()
            .expect("simulate-klut keeps its simulations");
        acc.lut_nodes += luts.num_luts() as u64;
        return klut_probes(rec, index, circuit, produced);
    }
    let swept = produced.swept.as_ref().expect("sweeps keep their result");
    acc.report.merge(&swept.report);
    acc.gates_after += swept.aig.num_ands() as u64;
    acc.latches_after += swept.aig.num_latches() as u64;
    acc.intervals.extend(observer.sat_intervals());
    acc.refinements += observer.refinements;
    let input = &produced.input;
    if workload == Workload::SweepSeq {
        black_box(rec.leaf("ternary_fixpoint", Some(index), || ternary_fixpoint(input)));
        return Ok(());
    }
    layer_probes(rec, index, workload, input, acc);
    if workload == Workload::SweepStp {
        checkpoint_probe(rec, index, input, swept, &produced.output, acc)?;
    }
    paired_sweeps(rec, index, input, acc)?;
    Ok(())
}

/// Sweeps the circuit with both engines back to back, alternating by circuit
/// which goes first, so that both sides of `stp_over_baseline.*` come from
/// the same stretch of time.
fn paired_sweeps(
    rec: &mut Recorder,
    index: usize,
    input: &Aig,
    acc: &mut Acc,
) -> Result<(), String> {
    let mut order = [(0, Workload::SweepStp), (1, Workload::SweepBaseline)];
    if index % 2 == 1 {
        order.reverse();
    }
    for (side, workload) in order {
        let (engine, config) = engine_config(workload);
        let started = Instant::now();
        let swept = rec
            .leaf("compare", Some(index), || {
                Sweeper::new(engine).config(config).run(input)
            })
            .map_err(|e| format!("{engine} paired sweep: {e}"))?;
        acc.paired[side].0 += started.elapsed();
        acc.paired[side].1 += swept.report.sat_calls_total;
    }
    Ok(())
}
