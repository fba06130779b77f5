//! Facade smoke test: exercises the full pipeline — netlist construction,
//! bitwise simulation, STP simulation of the LUT mapping, SAT solving inside
//! the sweeper, and CEC verification — entirely through the `stp_sat_sweep`
//! facade re-exports, exactly as a downstream user would.

use stp_sat_sweep::bitsim::{AigSimulator, PatternSet};
use stp_sat_sweep::netlist::{lutmap, Aig};
use stp_sat_sweep::stp_sweep::cec;
use stp_sat_sweep::stp_sweep::stp_sim::StpSimulator;
use stp_sat_sweep::{Engine, StatsObserver, SweepConfig, Sweeper};

/// A 4-input circuit with a hand-planted redundancy: `g = a & b` computed
/// twice through structurally different cones, XORed into the output so a
/// sweep that merges them can simplify the network.
fn redundant_circuit() -> Aig {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let c = aig.add_input("c");
    let d = aig.add_input("d");
    // f1 = a & b, directly.
    let f1 = aig.and(a, b);
    // f2 = (a & (b | d)) & (a & b | !d) — equivalent to a & b.
    let b_or_d = aig.or(b, d);
    let t1 = aig.and(a, b_or_d);
    let ab = aig.and(a, b);
    let t2 = aig.or(ab, !d);
    let f2 = aig.and(t1, t2);
    let x = aig.xor(f1, f2); // constant false when f1 == f2
    let y = aig.or(x, c);
    aig.add_output("y", y);
    aig.add_output("x", x);
    aig
}

#[test]
fn full_pipeline_round_trip_through_facade() {
    let aig = redundant_circuit();

    // Layer 1: bitwise simulation of the AIG (netlist -> bitsim).
    let patterns = PatternSet::exhaustive(aig.num_inputs());
    let bit_state = AigSimulator::new(&aig).run(&patterns);

    // Layer 2: LUT mapping + STP simulation agree with the bitwise baseline
    // (netlist -> stp_sweep::stp_sim).
    let lut = lutmap::map_to_luts(&aig, 4);
    let stp_state = StpSimulator::new(&lut).simulate_all(&patterns);
    for o in 0..aig.num_outputs() {
        assert_eq!(
            bit_state.output_signature(&aig, o),
            stp_state.output_signature(&lut, o),
            "bitwise and STP simulation disagree on output {o}"
        );
    }

    // Layer 3: the STP sweeper (satsolver + sweeper) merges the planted
    // redundancy. Output x is constant false, so the sweep must shrink the
    // network.
    let mut stats = StatsObserver::new();
    let result = Sweeper::new(Engine::Stp)
        .config(SweepConfig::default())
        .observer(&mut stats)
        .run(&aig)
        .expect("valid config");
    assert!(
        result.aig.num_ands() < aig.num_ands(),
        "sweep failed to remove the planted redundancy: {} -> {} ANDs",
        aig.num_ands(),
        result.aig.num_ands()
    );

    // Layer 4: CEC verifies the sweep end-to-end.
    let check = cec::check_equivalence(&aig, &result.aig, 100_000);
    assert!(check.equivalent, "sweep changed the circuit function");

    // The report is consistent with the structural outcome.
    assert_eq!(result.report.gates_before, aig.num_ands());
    assert_eq!(result.report.gates_after, result.aig.num_ands());

    // Layer 5: the observer attached through the facade saw the same counts
    // the report was derived from.
    assert_eq!(stats.merges, result.report.merges);
    assert_eq!(stats.constants, result.report.constants);
    assert_eq!(stats.sat_calls_total(), result.report.sat_calls_total);
}
