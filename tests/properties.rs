//! Property-based integration tests: random circuits and random pattern
//! sets exercising the cross-crate invariants (simulator agreement, sweep
//! equivalence).

use proptest::prelude::*;
use stp_sat_sweep::bitsim::{
    ternary_fixpoint, AigSimulator, LutSimulator, PatternSet, TernaryPatternSet, TernarySimulator,
    TernaryValue,
};
use stp_sat_sweep::netlist::aiger::{read_aiger_str, write_aiger_string};
use stp_sat_sweep::netlist::{lutmap, Aig, LatchInit, Lit, NodeId};
use stp_sat_sweep::satsolver::{CircuitSat, EquivOutcome};
use stp_sat_sweep::stp_sweep::equiv::{ConstantCandidate, EquivClasses};
use stp_sat_sweep::stp_sweep::resim::eval_pattern_targets;
use stp_sat_sweep::stp_sweep::stp_sim::StpSimulator;
use stp_sat_sweep::stp_sweep::{cec, SweepConfig};
use stp_sat_sweep::workloads::inject_redundancy;
use stp_sat_sweep::workloads::sequential::random_sequential_aig;
use stp_sat_sweep::{Engine, PassManager, Sweeper};

/// A random small AIG described as a list of gate recipes.
#[derive(Debug, Clone)]
struct RandomAig {
    num_inputs: usize,
    gates: Vec<(u8, usize, usize, bool, bool)>,
}

fn arb_aig() -> impl Strategy<Value = RandomAig> {
    (
        3usize..7,
        proptest::collection::vec(
            (
                0u8..4,
                any::<usize>(),
                any::<usize>(),
                any::<bool>(),
                any::<bool>(),
            ),
            1..40,
        ),
    )
        .prop_map(|(num_inputs, gates)| RandomAig { num_inputs, gates })
}

fn build_aig(spec: &RandomAig) -> Aig {
    let mut aig = Aig::new();
    let inputs = aig.add_inputs("x", spec.num_inputs);
    let mut pool: Vec<Lit> = inputs;
    for &(op, a, b, na, nb) in &spec.gates {
        let la = pool[a % pool.len()].complement_if(na);
        let lb = pool[b % pool.len()].complement_if(nb);
        let gate = match op % 4 {
            0 => aig.and(la, lb),
            1 => aig.or(la, lb),
            2 => aig.xor(la, lb),
            _ => aig.nand(la, lb),
        };
        pool.push(gate);
    }
    // Use the last few pool entries as outputs.
    let num_outputs = 3.min(pool.len());
    for (i, lit) in pool.iter().rev().take(num_outputs).enumerate() {
        aig.add_output(format!("y{i}"), *lit);
    }
    aig
}

/// One query of a random sequence: an equivalence, a constant or an
/// assignment query over literals of the network, under a conflict budget
/// small enough to leave some queries undetermined.
fn ask(sat: &mut CircuitSat<'_>, aig: &Aig, query: (u8, usize, usize, bool, u64)) -> EquivOutcome {
    let (kind, a, b, flag, budget) = query;
    let a = Lit::new(a % aig.num_nodes(), flag);
    let b = Lit::new(b % aig.num_nodes(), false);
    match kind % 3 {
        0 => sat.prove_equivalent(a, b, budget),
        1 => sat.prove_constant(a, flag, budget),
        _ => match sat.find_assignment(&[a, b], budget) {
            Some(assignment) => EquivOutcome::CounterExample(assignment),
            None => EquivOutcome::Undetermined,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LUT mapping and both simulators preserve the function of random AIGs.
    #[test]
    fn mapping_and_simulation_preserve_functions(spec in arb_aig()) {
        let aig = build_aig(&spec);
        let patterns = PatternSet::random(aig.num_inputs(), 64, 11).unwrap();
        let reference = AigSimulator::new(&aig).run(&patterns);
        let lut = lutmap::map_to_luts(&aig, 4);
        let lut_state = LutSimulator::new(&lut).run(&patterns);
        let stp_state = StpSimulator::new(&lut).simulate_all(&patterns);
        for o in 0..aig.num_outputs() {
            prop_assert_eq!(
                reference.output_signature(&aig, o),
                lut_state.output_signature(&lut, o)
            );
            prop_assert_eq!(
                reference.output_signature(&aig, o),
                stp_state.output_signature(&lut, o)
            );
        }
    }

    /// Multi-threaded simulation is bit-identical to one-thread simulation
    /// and to the per-pattern k-LUT baseline on random AIGs and their LUT
    /// mappings, for every thread count, including counts above the number
    /// of words (100 patterns) and uneven splits (1000 patterns, 16 words).
    #[test]
    fn parallel_simulation_is_deterministic(spec in arb_aig(), threads in 2usize..5) {
        let aig = build_aig(&spec);
        let lut = lutmap::map_to_luts(&aig, 4);
        let stp = StpSimulator::new(&lut);
        for num_patterns in [100usize, 192, 1000] {
            let patterns = PatternSet::random(aig.num_inputs(), num_patterns, 23).unwrap();
            let reference = LutSimulator::new(&lut).run(&patterns);
            let sequential = AigSimulator::new(&aig).run(&patterns);
            let parallel = AigSimulator::new(&aig).run_parallel(&patterns, threads);
            for id in aig.node_ids() {
                prop_assert_eq!(sequential.signature(id), parallel.signature(id));
            }
            for o in 0..aig.num_outputs() {
                prop_assert_eq!(
                    parallel.output_signature(&aig, o),
                    reference.output_signature(&lut, o)
                );
            }
            let stp_par = stp.simulate_all_parallel(&patterns, threads);
            for id in lut.node_ids() {
                prop_assert_eq!(stp_par.signature(id), reference.signature(id));
            }
        }
    }

    /// The determinism battery: for both engines, with and without
    /// SAT-guided patterns, sweeping with and without periodic checkpoints
    /// commits identical SAT calls, identical merges and byte-identical
    /// AIGER output — the checkpoint cadence is a scheduling knob, never an
    /// input of the sweep.
    #[test]
    fn checkpoint_cadence_never_changes_the_sweep(spec in arb_aig(), seed in 0u64..500) {
        let aig = build_aig(&spec);
        let redundant = inject_redundancy(&aig, 0.4, seed);
        for engine in [Engine::Stp, Engine::Baseline] {
            for sat_guided_patterns in [false, true] {
                let base = SweepConfig {
                    num_initial_patterns: 16, // few patterns: SAT finds counter-examples
                    sat_guided_patterns,
                    ..SweepConfig::default()
                };
                let mut reference: Option<(stp_sat_sweep::SweepResult, String)> = None;
                for checkpoint_every in [0usize, 1] {
                    let run = Sweeper::new(engine)
                        .config(base.checkpoint_every(checkpoint_every))
                        .run(&redundant)
                        .expect("valid config");
                    let aiger = write_aiger_string(&run.aig);
                    match &reference {
                        None => reference = Some((run, aiger)),
                        Some((reference, reference_aiger)) => {
                            let (r, s) = (&run.report, &reference.report);
                            prop_assert_eq!(r.sat_calls_total, s.sat_calls_total);
                            prop_assert_eq!(r.sat_calls_sat, s.sat_calls_sat);
                            prop_assert_eq!(r.sat_calls_unsat, s.sat_calls_unsat);
                            prop_assert_eq!(r.sat_calls_undet, s.sat_calls_undet);
                            prop_assert_eq!(r.merges, s.merges);
                            prop_assert_eq!(r.constants, s.constants);
                            prop_assert_eq!(r.resim_events, s.resim_events);
                            prop_assert_eq!(r.resim_nodes, s.resim_nodes);
                            prop_assert_eq!(r.proved_by_simulation, s.proved_by_simulation);
                            prop_assert_eq!(r.disproved_by_simulation, s.disproved_by_simulation);
                            // The post-sweep networks are identical, not
                            // merely equivalent.
                            prop_assert_eq!(&aiger, reference_aiger);
                        }
                    }
                }
            }
        }
    }

    /// The circuit front-end owns its state bytes: a front-end restored
    /// from them re-encodes to the same bytes and answers every later query
    /// exactly as the original does, counter-examples included.
    #[test]
    fn circuit_sat_snapshots_restore_exactly(
        spec in arb_aig(),
        queries in proptest::collection::vec(
            (0u8..3, any::<usize>(), any::<usize>(), any::<bool>(), 0u64..40),
            1..24,
        ),
        split in any::<usize>(),
    ) {
        let aig = build_aig(&spec);
        let (before, after) = queries.split_at(split % (queries.len() + 1));
        let mut original = CircuitSat::new(&aig);
        for &query in before {
            ask(&mut original, &aig, query);
        }
        let bytes = original.snapshot();
        let mut restored = CircuitSat::from_snapshot(&aig, &bytes).expect("own state restores");
        prop_assert_eq!(restored.snapshot(), bytes);
        for &query in after {
            prop_assert_eq!(ask(&mut original, &aig, query), ask(&mut restored, &aig, query));
        }
        prop_assert_eq!(original.snapshot(), restored.snapshot());
    }

    /// Sweeping a randomly redundant random AIG preserves equivalence and
    /// never grows the network.
    #[test]
    fn sweeping_preserves_equivalence(spec in arb_aig(), seed in 0u64..1000) {
        let aig = build_aig(&spec);
        let redundant = inject_redundancy(&aig, 0.3, seed);
        let config = SweepConfig {
            num_initial_patterns: 32,
            conflict_limit: 20_000,
            ..SweepConfig::default()
        };
        let result = Sweeper::new(Engine::Stp)
            .config(config)
            .run(&redundant)
            .expect("valid config");
        prop_assert!(result.aig.num_ands() <= redundant.num_ands());
        let check = cec::check_equivalence(&redundant, &result.aig, 200_000);
        prop_assert!(check.equivalent);
    }

    /// The word kernels agree bit-for-bit with a naive per-bit reference.
    #[test]
    fn word_kernels_match_per_bit_reference(
        a in proptest::collection::vec(any::<u64>(), 0..19),
        b in proptest::collection::vec(any::<u64>(), 0..19),
        mask_a in any::<bool>(),
        mask_b in any::<bool>(),
    ) {
        use stp_sat_sweep::bitsim::kernels;
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let (ma, mb) = (
            if mask_a { u64::MAX } else { 0 },
            if mask_b { u64::MAX } else { 0 },
        );
        let per_bit = |f: &dyn Fn(bool, bool) -> bool| -> Vec<u64> {
            (0..n)
                .map(|w| {
                    (0..64).fold(0u64, |acc, i| {
                        let (x, y) = ((a[w] >> i) & 1 == 1, (b[w] >> i) & 1 == 1);
                        acc | ((f(x, y) as u64) << i)
                    })
                })
                .collect()
        };

        let mut out = vec![0u64; n];
        kernels::and2_masked(a, b, ma, mb, &mut out);
        prop_assert_eq!(&out, &per_bit(&|x, y| (x ^ mask_a) & (y ^ mask_b)));

        let mut acc = a.to_vec();
        kernels::and_assign(&mut acc, b);
        prop_assert_eq!(&acc, &per_bit(&|x, y| x & y));

        let mut acc = a.to_vec();
        kernels::andnot_assign(&mut acc, b);
        prop_assert_eq!(&acc, &per_bit(&|x, y| x & !y));

        let mut acc = a.to_vec();
        kernels::or_assign(&mut acc, b);
        prop_assert_eq!(&acc, &per_bit(&|x, y| x | y));

        for invert in [false, true] {
            let mut dst = vec![0u64; n];
            kernels::copy_polarity(&mut dst, b, invert);
            prop_assert_eq!(&dst, &per_bit(&|_, y| y ^ invert));
        }
    }

    /// Arena-backed simulation agrees with direct per-pattern evaluation of
    /// the network — the ground-truth check under the SoA layout.
    #[test]
    fn arena_simulation_matches_per_pattern_evaluation(spec in arb_aig()) {
        let aig = build_aig(&spec);
        let patterns = PatternSet::random(aig.num_inputs(), 96, 77).unwrap();
        let state = AigSimulator::new(&aig).run(&patterns);
        let lut = lutmap::map_to_luts(&aig, 6);
        let lut_state = LutSimulator::new(&lut).run(&patterns);
        let stp_state = StpSimulator::new(&lut).simulate_all(&patterns);
        for p in 0..patterns.num_patterns() {
            let assignment = patterns.assignment(p);
            let expected = aig.evaluate(&assignment);
            for (o, &exp) in expected.iter().enumerate() {
                prop_assert_eq!(state.output_signature(&aig, o).get_bit(p), exp);
                prop_assert_eq!(lut_state.output_signature(&lut, o).get_bit(p), exp);
                prop_assert_eq!(stp_state.output_signature(&lut, o).get_bit(p), exp);
            }
        }
    }

    /// Refining the candidates by one counter-example equals re-priming
    /// them with that pattern appended: the single-bit fanin sweep and the
    /// two-way class split, checked against bitwise simulation.
    #[test]
    fn refining_by_a_counterexample_equals_repriming_with_it(
        spec in arb_aig(),
        num_patterns in 1usize..24,
        seed in 0u64..1000,
        bits in any::<u64>(),
    ) {
        let aig = build_aig(&spec);
        let mut patterns = PatternSet::random(aig.num_inputs(), num_patterns, seed).unwrap();
        let primed = AigSimulator::new(&aig).run(&patterns);
        let mut classes = EquivClasses::from_node_signatures(
            aig.and_ids().map(|id| (id, primed.signature(id))),
        );
        let primed_constants = classes.constants().to_vec();
        let members: Vec<NodeId> = classes
            .classes()
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .collect();
        let targets: Vec<NodeId> = members
            .iter()
            .copied()
            .chain(primed_constants.iter().map(|c| c.node))
            .collect();
        let assignment: Vec<bool> = (0..aig.num_inputs()).map(|i| (bits >> i) & 1 == 1).collect();
        let (values, _) = eval_pattern_targets(&aig, &assignment, &targets);
        classes.refine(&values);

        patterns.push_pattern(&assignment);
        let extended = AigSimulator::new(&aig).run(&patterns);
        let reprimed = EquivClasses::from_node_signatures(
            members.iter().map(|&id| (id, extended.signature(id))),
        );
        prop_assert_eq!(classes.classes(), reprimed.classes());
        // Class members were never constant on `P`, so they are not on
        // `P` plus one pattern either.
        prop_assert!(reprimed.constants().is_empty());
        let last = patterns.num_patterns() - 1;
        let agreeing: Vec<ConstantCandidate> = primed_constants
            .into_iter()
            .filter(|c| extended.signature(c.node).get_bit(last) == c.value)
            .collect();
        prop_assert_eq!(classes.constants(), &agreeing[..]);
    }

    /// Every optimisation pass — the structural cleanup, a sweep of each
    /// engine and the full dc2 fixpoint loop — preserves equivalence on
    /// random redundant AIGs, never grows the network, and returns a
    /// strashed network: `Aig::cleanup` of the result writes the same
    /// AIGER, so no pass leaves a constant to fold, a structure to share or
    /// a dead node to drop.
    #[test]
    fn optimisation_passes_preserve_equivalence_and_never_grow(
        spec in arb_aig(),
        seed in 0u64..500,
    ) {
        let aig = build_aig(&spec);
        let redundant = inject_redundancy(&aig, 0.3, seed);
        let config = SweepConfig {
            num_initial_patterns: 32,
            ..SweepConfig::default()
        };
        for script in ["strash", "sweep(stp)", "sweep(baseline)", "dc2(2)"] {
            let result = PassManager::new(config)
                .with_script(script)
                .expect("script parses")
                .run(&redundant)
                .expect("pipeline runs");
            prop_assert!(
                result.aig.num_ands() <= redundant.num_ands(),
                "script {} grew the network: {} -> {}",
                script,
                redundant.num_ands(),
                result.aig.num_ands()
            );
            let check = cec::check_equivalence(&redundant, &result.aig, 200_000);
            prop_assert!(check.equivalent, "script {} broke equivalence", script);
            prop_assert!(
                write_aiger_string(&result.aig.cleanup().0) == write_aiger_string(&result.aig),
                "script {} returned a network that strash still changes",
                script
            );
        }
    }
}

/// A wide, shallow circuit of 1800 gates on 512 patterns (8 words), crossed
/// with thread counts {1, 2, 4}: each thread's range of pattern words must
/// come out bit-identical to the one-thread run for both engines.
#[test]
fn work_stealing_is_thread_count_invariant_on_wide_levels() {
    let mut aig = Aig::new();
    let xs = aig.add_inputs("x", 24);
    let mut layer: Vec<Lit> = xs.clone();
    // Three wide layers of mixed AND/XOR/MUX cones.
    for round in 0u64..3 {
        let mut next = Vec::new();
        for i in 0..600 {
            let a = layer[(i * 7 + round as usize) % layer.len()];
            let b = layer[(i * 13 + 5) % layer.len()];
            let c = layer[(i * 29 + 11) % layer.len()];
            let lit = match i % 3 {
                0 => aig.and(a, b),
                1 => aig.xor(a, c),
                _ => aig.mux(a, b, c),
            };
            next.push(lit);
        }
        layer = next;
    }
    for (i, &lit) in layer.iter().take(8).enumerate() {
        aig.add_output(format!("o{i}"), lit);
    }

    let patterns = PatternSet::random(24, 512, 0xFEED).unwrap();
    let sequential = AigSimulator::new(&aig).run(&patterns);
    for threads in [1usize, 2, 4] {
        let parallel = AigSimulator::new(&aig).run_parallel(&patterns, threads);
        for id in aig.node_ids() {
            assert_eq!(
                sequential.signature(id),
                parallel.signature(id),
                "node {id} differs at {threads} threads"
            );
        }
    }

    let lut = lutmap::map_to_luts(&aig, 6);
    let stp = StpSimulator::new(&lut);
    let stp_seq = stp.simulate_all(&patterns);
    for threads in [2usize, 4] {
        let stp_par = stp.simulate_all_parallel(&patterns, threads);
        for id in lut.node_ids() {
            assert_eq!(
                stp_seq.signature(id),
                stp_par.signature(id),
                "LUT node {id} differs at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ternary simulation abstracts binary simulation: on any pattern, every
    /// input position left definite pins the corresponding binary value, and
    /// wherever the ternary output is definite it must equal the binary
    /// output of *every* concretisation of the `X` positions — checked
    /// against both binary engines (`Aig::evaluate` and the signature-based
    /// [`AigSimulator`]).
    #[test]
    fn ternary_simulation_abstracts_binary(
        spec in arb_aig(),
        bits in any::<u64>(),
        xmask in any::<u64>(),
        flips in any::<u64>(),
    ) {
        let aig = build_aig(&spec);
        let n = aig.num_inputs();
        let base: Vec<bool> = (0..n).map(|i| bits >> (i % 64) & 1 == 1).collect();
        let is_x: Vec<bool> = (0..n).map(|i| xmask >> (i % 64) & 1 == 1).collect();

        let mut patterns = TernaryPatternSet::new(n);
        let ternary_pattern: Vec<TernaryValue> = (0..n)
            .map(|i| if is_x[i] { TernaryValue::X } else { TernaryValue::from_bool(base[i]) })
            .collect();
        patterns.push_pattern(&ternary_pattern);
        let state = TernarySimulator::new(&aig).run(&patterns);

        // Two concretisations of the X positions: all-as-base and
        // base-xor-flips.
        for variant in 0..2u64 {
            let assignment: Vec<bool> = (0..n)
                .map(|i| {
                    if is_x[i] && variant == 1 {
                        base[i] ^ (flips >> (i % 64) & 1 == 1)
                    } else {
                        base[i]
                    }
                })
                .collect();
            let evaluated = aig.evaluate(&assignment);
            let mut binary_patterns = PatternSet::new(n);
            binary_patterns.push_pattern(&assignment);
            let sim = AigSimulator::new(&aig).run(&binary_patterns);
            for (o, output) in aig.outputs().iter().enumerate() {
                let simulated = sim
                    .signature(output.lit.node())
                    .get_bit(0)
                    ^ output.lit.is_complemented();
                prop_assert_eq!(evaluated[o], simulated);
                if let Some(value) = state.output_value(&aig, o, 0).concrete() {
                    prop_assert_eq!(value, evaluated[o]);
                }
            }
        }

        // A fully definite pattern loses nothing: the ternary result is
        // definite everywhere and equals the binary result.
        let mut definite = TernaryPatternSet::new(n);
        definite.push_pattern(
            &base.iter().map(|&b| TernaryValue::from_bool(b)).collect::<Vec<_>>(),
        );
        let definite_state = TernarySimulator::new(&aig).run(&definite);
        let evaluated = aig.evaluate(&base);
        for (o, _) in aig.outputs().iter().enumerate() {
            prop_assert_eq!(
                definite_state.output_value(&aig, o, 0).concrete(),
                Some(evaluated[o])
            );
        }
    }

    /// AIGER round trip of sequential networks, including `X` initial
    /// values: write → read → write is byte-identical, and the latch
    /// structure (count, initial values, state names) survives.
    #[test]
    fn aiger_latch_round_trip(
        num_inputs in 1usize..5,
        num_latches in 1usize..6,
        gates in 1usize..7,
        allow_x in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let aig = random_sequential_aig(num_inputs, num_latches, gates, allow_x, seed);
        let text = write_aiger_string(&aig);
        let back = read_aiger_str(&text).expect("own output must parse");
        prop_assert_eq!(write_aiger_string(&back), text);
        prop_assert_eq!(back.num_latches(), aig.num_latches());
        prop_assert_eq!(back.num_inputs(), aig.num_inputs());
        prop_assert_eq!(back.num_outputs(), aig.num_outputs());
        for (ours, theirs) in aig.latches().iter().zip(back.latches()) {
            prop_assert_eq!(ours.init, theirs.init);
        }
        // AIGER carries no symbol table, so names change — with concrete
        // initial states the BMC oracle still proves the round trip
        // behaviour-preserving.  (X-init latches are excluded because the
        // oracle shares frame-0 unknowns by name.)
        if aig.latches().iter().all(|l| l.init != LatchInit::X) {
            let verdict = stp_sat_sweep::bmc_sec(&aig, &back, 3, 100_000);
            prop_assert!(verdict.equivalent, "round trip changed behaviour: {:?}", verdict);
        }
    }

    /// The ternary initial-state fixpoint is monotone (a latch only ever
    /// widens from a definite value to `X`, never back, and never flips)
    /// and terminates within `num_latches + 1` rounds.
    #[test]
    fn ternary_fixpoint_is_monotone_and_terminates(
        num_inputs in 1usize..5,
        num_latches in 1usize..6,
        gates in 1usize..7,
        allow_x in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let aig = random_sequential_aig(num_inputs, num_latches, gates, allow_x, seed);
        let fix = ternary_fixpoint(&aig);
        prop_assert!(fix.iterations <= aig.num_latches() + 1);
        prop_assert_eq!(fix.values.len(), aig.num_latches());
        prop_assert_eq!(fix.trajectories.len(), aig.num_latches());
        for (l, (latch, trajectory)) in
            aig.latches().iter().zip(&fix.trajectories).enumerate()
        {
            prop_assert_eq!(trajectory.len(), fix.iterations + 1);
            prop_assert_eq!(trajectory[0], TernaryValue::from_init(latch.init));
            prop_assert_eq!(*trajectory.last().unwrap(), fix.values[l]);
            for step in trajectory.windows(2) {
                let widened = step[0] != step[1];
                prop_assert!(
                    !widened || step[1] == TernaryValue::X,
                    "latch {} moved {:?} -> {:?}: not a widening",
                    l, step[0], step[1]
                );
            }
        }
    }
}
