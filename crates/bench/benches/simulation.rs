//! Criterion bench for Table I: bitwise baseline vs. STP simulation of AIGs
//! and 6-LUT networks on a fixed subset of the EPFL-analog suite.

use bitsim::{AigSimulator, LutSimulator, PatternSet};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netlist::lutmap;
use stp_sweep::stp_sim::StpSimulator;
use workloads::{epfl_suite, Scale};

const NUM_PATTERNS: usize = 1024;
const SELECTED: &[&str] = &["adder", "bar", "max", "multiplier", "priority", "voter"];

fn simulation_benches(c: &mut Criterion) {
    let suite = epfl_suite(Scale::Tiny);
    let mut group = c.benchmark_group("table1_simulation");
    for bench in suite.iter().filter(|b| SELECTED.contains(&b.name)) {
        let aig = &bench.aig;
        let patterns = PatternSet::random(aig.num_inputs(), NUM_PATTERNS, 0xEB5).unwrap();
        let lut6 = lutmap::map_to_luts(aig, 6);
        let lut2 = lutmap::map_to_luts(aig, 2);

        group.bench_with_input(
            BenchmarkId::new("TA_bitwise", bench.name),
            &patterns,
            |b, p| {
                let sim = AigSimulator::new(aig);
                b.iter(|| sim.run(p));
            },
        );
        group.bench_with_input(BenchmarkId::new("TA_stp", bench.name), &patterns, |b, p| {
            let sim = StpSimulator::new(&lut2);
            b.iter(|| sim.simulate_all(p));
        });
        group.bench_with_input(
            BenchmarkId::new("TL_bitwise", bench.name),
            &patterns,
            |b, p| {
                let sim = LutSimulator::new(&lut6);
                b.iter(|| sim.run(p));
            },
        );
        group.bench_with_input(BenchmarkId::new("TL_stp", bench.name), &patterns, |b, p| {
            let sim = StpSimulator::new(&lut6);
            b.iter(|| sim.simulate_all(p));
        });
    }
    group.finish();

    // One thread vs. several, each on its own range of pattern words, on
    // the largest selected benchmarks with a wider pattern set (more words
    // to split).
    let mut group = c.benchmark_group("table1_parallel_simulation");
    for bench in suite
        .iter()
        .filter(|b| b.name == "multiplier" || b.name == "voter")
    {
        let aig = &bench.aig;
        let patterns = PatternSet::random(aig.num_inputs(), 16 * NUM_PATTERNS, 0xEB5).unwrap();
        let lut6 = lutmap::map_to_luts(aig, 6);
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("TA_bitwise_t{threads}"), bench.name),
                &patterns,
                |b, p| {
                    let sim = AigSimulator::new(aig);
                    b.iter(|| sim.run_parallel(p, threads));
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("TL_stp_t{threads}"), bench.name),
                &patterns,
                |b, p| {
                    let sim = StpSimulator::new(&lut6);
                    b.iter(|| sim.simulate_all_parallel(p, threads));
                },
            );
        }
    }
    group.finish();

    // Specified-node simulation (the cut algorithm) vs. simulating everything.
    let mut group = c.benchmark_group("table1_specified_nodes");
    for bench in suite
        .iter()
        .filter(|b| b.name == "multiplier" || b.name == "voter")
    {
        let lut6 = lutmap::map_to_luts(&bench.aig, 6);
        let patterns = PatternSet::random(bench.aig.num_inputs(), 256, 0x51).unwrap();
        let sim = StpSimulator::new(&lut6);
        let targets: Vec<_> = lut6.lut_ids().take(4).collect();
        group.bench_with_input(
            BenchmarkId::new("all_nodes", bench.name),
            &patterns,
            |b, p| {
                b.iter(|| sim.simulate_all(p));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("specified_nodes", bench.name),
            &patterns,
            |b, p| {
                b.iter(|| sim.simulate_nodes(p, &targets));
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = simulation_benches
}
criterion_main!(benches);
