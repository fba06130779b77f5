//! Cross-simulator consistency: the word-parallel AIG simulator, the
//! per-pattern k-LUT baseline and the STP simulator (all-nodes and
//! specified-nodes modes) must agree on every output for every workload.

use stp_sat_sweep::bitsim::{AigSimulator, LutSimulator, PatternSet};
use stp_sat_sweep::netlist::lutmap;
use stp_sat_sweep::stp_sweep::stp_sim::StpSimulator;
use stp_sat_sweep::stp_sweep::window::WindowIndex;
use stp_sat_sweep::workloads::{epfl_suite, generators, Scale};

#[test]
fn all_three_simulators_agree_on_the_epfl_suite() {
    for bench in epfl_suite(Scale::Tiny) {
        let aig = &bench.aig;
        let patterns = PatternSet::random(aig.num_inputs(), 128, 0xAB).unwrap();
        let aig_state = AigSimulator::new(aig).run(&patterns);
        for k in [4, 6] {
            let lut = lutmap::map_to_luts(aig, k);
            let lut_state = LutSimulator::new(&lut).run(&patterns);
            let stp_state = StpSimulator::new(&lut).simulate_all(&patterns);
            for o in 0..aig.num_outputs() {
                let reference = aig_state.output_signature(aig, o);
                assert_eq!(
                    reference,
                    lut_state.output_signature(&lut, o),
                    "{}: bitwise LUT simulation differs on output {o} (k={k})",
                    bench.name
                );
                assert_eq!(
                    reference,
                    stp_state.output_signature(&lut, o),
                    "{}: STP simulation differs on output {o} (k={k})",
                    bench.name
                );
            }
        }
    }
}

#[test]
fn parallel_simulators_are_bit_identical_on_the_epfl_suite() {
    // 2048 patterns split evenly, 1000 patterns (16 words) split unevenly
    // across three threads, and 100 patterns (2 words) clamp four threads
    // to two parts.
    let runs: [(usize, &[usize]); 3] = [(2048, &[2, 4]), (1000, &[3]), (100, &[4])];
    for bench in epfl_suite(Scale::Tiny) {
        let aig = &bench.aig;
        let aig_sim = AigSimulator::new(aig);
        let lut = lutmap::map_to_luts(aig, 6);
        let stp = StpSimulator::new(&lut);
        for (num_patterns, thread_counts) in runs {
            let patterns = PatternSet::random(aig.num_inputs(), num_patterns, 0xAB).unwrap();
            let sequential = aig_sim.run(&patterns);
            // An independent reference: the per-pattern k-LUT baseline.
            let reference = LutSimulator::new(&lut).run(&patterns);
            for &threads in thread_counts {
                let parallel = aig_sim.run_parallel(&patterns, threads);
                for id in aig.node_ids() {
                    assert_eq!(
                        parallel.signature(id),
                        sequential.signature(id),
                        "{}: AIG node {id}, {num_patterns} patterns, {threads} threads",
                        bench.name
                    );
                }
                for o in 0..aig.num_outputs() {
                    assert_eq!(
                        parallel.output_signature(aig, o),
                        reference.output_signature(&lut, o),
                        "{}: AIG output {o}, {num_patterns} patterns, {threads} threads",
                        bench.name
                    );
                }
                let stp_parallel = stp.simulate_all_parallel(&patterns, threads);
                for id in lut.node_ids() {
                    assert_eq!(
                        stp_parallel.signature(id),
                        reference.signature(id),
                        "{}: LUT node {id}, {num_patterns} patterns, {threads} threads",
                        bench.name
                    );
                }
            }
        }
    }
}

#[test]
fn specified_node_simulation_agrees_with_full_simulation() {
    let aig = generators::array_multiplier(4);
    let lut = lutmap::map_to_luts(&aig, 6);
    let patterns = PatternSet::random(aig.num_inputs(), 200, 0x5EED).unwrap();
    let sim = StpSimulator::new(&lut);
    let all = sim.simulate_all(&patterns);
    let targets: Vec<_> = lut.lut_ids().collect();
    // Simulate in several small target batches, as the sweeper does.
    for chunk in targets.chunks(3) {
        let result = sim.simulate_nodes(&patterns, chunk);
        for &t in chunk {
            assert_eq!(result[&t], all.signature(t), "node {t}");
        }
    }
}

#[test]
fn window_simulation_agrees_with_bitwise_simulation() {
    let circuits = vec![
        generators::restoring_divider(4),
        generators::majority_voter(9),
        generators::random_control(10, 150, 8, 5),
    ];
    for aig in circuits {
        let patterns = PatternSet::random(aig.num_inputs(), 96, 7).unwrap();
        let reference = AigSimulator::new(&aig).run(&patterns);
        let index = WindowIndex::build(&aig, 10);
        // Every window's truth table, read at its leaves' reference values,
        // gives the node's reference value — global windows and cut ones
        // alike (the window verdicts compare exactly these tables).
        for t in aig.and_ids() {
            let window = index.window(t);
            for p in 0..patterns.num_patterns() {
                let row = window
                    .leaves
                    .iter()
                    .enumerate()
                    .filter(|&(_, &leaf)| reference.signature(leaf).get_bit(p))
                    .fold(0usize, |row, (k, _)| row | (1 << k));
                assert_eq!(
                    window.table.get_bit(row),
                    reference.signature(t).get_bit(p),
                    "node {t}, pattern {p}"
                );
            }
        }
    }
}

#[test]
fn exhaustive_and_random_simulation_agree_on_small_circuits() {
    let aig = generators::restoring_sqrt(3);
    let exhaustive = PatternSet::exhaustive(aig.num_inputs());
    let state = AigSimulator::new(&aig).run(&exhaustive);
    for p in 0..exhaustive.num_patterns() {
        let assignment = exhaustive.assignment(p);
        let reference = aig.evaluate(&assignment);
        for (o, &expected) in reference.iter().enumerate() {
            assert_eq!(
                state.output_signature(&aig, o).get_bit(p),
                expected,
                "pattern {p}, output {o}"
            );
        }
    }
}
