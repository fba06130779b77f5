//! A single Table I row: simulate one EPFL-analog benchmark with the bitwise
//! baseline and with the STP simulator, on the AIG and on its 6-LUT mapping.
//!
//! Run with: `cargo run --release --example simulate_klut -- [benchmark] [patterns] [threads]`
//! (default: `multiplier`, 4096 patterns, 1 thread)
//!
//! With `threads > 1` the AIG and the STP simulators split the pattern
//! words into one contiguous range per thread; the signatures are
//! bit-identical to the one-thread run (the example asserts it), only the
//! times change.

use std::time::Instant;
use stp_sat_sweep::bitsim::{AigSimulator, LutSimulator, PatternSet};
use stp_sat_sweep::netlist::lutmap;
use stp_sat_sweep::stp_sweep::stp_sim::StpSimulator;
use stp_sat_sweep::workloads::{epfl_suite, Scale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "multiplier".to_string());
    let num_patterns: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4096);
    let threads: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1).max(1);

    let suite = epfl_suite(Scale::Small);
    let bench = suite
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("unknown benchmark '{name}'; pick one of the EPFL-analog names"));
    let aig = &bench.aig;
    println!("benchmark '{}': {}", bench.name, aig.stats());

    let patterns = PatternSet::random(aig.num_inputs(), num_patterns.max(1), 0xEB5)
        .expect("pattern count is clamped to at least 1");

    // TA: AIG simulation.
    let start = Instant::now();
    let bitwise = AigSimulator::new(aig).run_parallel(&patterns, threads);
    let ta_base = start.elapsed();

    let lut2 = lutmap::map_to_luts(aig, 2);
    let stp2 = StpSimulator::new(&lut2);
    let start = Instant::now();
    let _ = stp2.simulate_all_parallel(&patterns, threads);
    let ta_stp = start.elapsed();

    // TL: 6-LUT simulation.
    let lut6 = lutmap::map_to_luts(aig, 6);
    println!("6-LUT mapping: {}", lut6.stats());
    let start = Instant::now();
    let baseline = LutSimulator::new(&lut6).run(&patterns);
    let tl_base = start.elapsed();

    let stp6 = StpSimulator::new(&lut6);
    let start = Instant::now();
    let stp = stp6.simulate_all_parallel(&patterns, threads);
    let tl_stp = start.elapsed();

    // The three simulators agree on every output — and the parallel runs
    // are bit-identical to the sequential evaluation.
    let sequential = AigSimulator::new(aig).run(&patterns);
    for o in 0..aig.num_outputs() {
        assert_eq!(
            bitwise.output_signature(aig, o),
            baseline.output_signature(&lut6, o)
        );
        assert_eq!(
            baseline.output_signature(&lut6, o),
            stp.output_signature(&lut6, o)
        );
        assert_eq!(
            bitwise.output_signature(aig, o),
            sequential.output_signature(aig, o)
        );
    }

    println!("TA  bitwise AIG simulation: {:>10.3?}", ta_base);
    println!("TA  STP (2-LUT) simulation: {:>10.3?}", ta_stp);
    println!("TL  bitwise 6-LUT baseline: {:>10.3?}", tl_base);
    println!("TL  STP 6-LUT simulation:   {:>10.3?}", tl_stp);
    println!(
        "speed-up on the k-LUT network: {:.2}x (paper average: 7.18x)",
        tl_base.as_secs_f64() / tl_stp.as_secs_f64().max(1e-9)
    );
}
