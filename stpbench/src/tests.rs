//! The benchmark's own tests: input determinism, the default seed, span
//! arithmetic, the oracles, and the metric names `BENCHMARK.json` declares.

use crate::inputs::{self, Workload, DEFAULT_SEED};
use crate::metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use crate::oracle::{self, Replay};
use crate::run;
use crate::trace::Recorder;
use bitsim::{AigSimulator, PatternSet};
use netlist::aiger::{read_aiger_bytes, write_aiger_binary_bytes};
use netlist::{Aig, Lit};
use std::time::Duration;
use workloads::{epfl_suite, hwmcc_suite, Scale};

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    for workload in Workload::ALL {
        let a = inputs::generate(workload, 7);
        let b = inputs::generate(workload, 7);
        assert_eq!(
            a,
            b,
            "{}: inputs differ between two set-ups",
            workload.name()
        );
        let other = inputs::generate(workload, 8);
        assert_ne!(
            a,
            other,
            "{}: the seed does not reach the inputs",
            workload.name()
        );
    }
}

#[test]
fn the_default_seed_reproduces_the_repository_suites() {
    let sweep = inputs::generate(Workload::SweepStp, DEFAULT_SEED);
    let reference = hwmcc_suite(Scale::Small);
    assert_eq!(sweep.len(), reference.len());
    for (circuit, bench) in sweep.iter().zip(&reference) {
        assert_eq!(circuit.name, bench.name);
        assert_eq!(
            circuit.aiger,
            write_aiger_binary_bytes(&bench.aig),
            "{}",
            bench.name
        );
    }
    assert_eq!(
        sweep,
        inputs::generate(Workload::SweepBaseline, DEFAULT_SEED)
    );

    let klut = inputs::klut_suite(DEFAULT_SEED);
    let reference = epfl_suite(Scale::Large);
    assert_eq!(klut.len(), reference.len());
    for ((name, aig), bench) in klut.iter().zip(&reference) {
        assert_eq!(*name, bench.name);
        assert_eq!(
            write_aiger_binary_bytes(aig),
            write_aiger_binary_bytes(&bench.aig),
            "{name}"
        );
    }
}

#[test]
fn sequential_inputs_plant_their_pairs_in_the_aiger_latch_order() {
    for circuit in inputs::generate(Workload::SweepSeq, DEFAULT_SEED) {
        let aig = read_aiger_bytes(&circuit.aiger).expect("generated AIGER parses");
        assert!(
            (250..=320).contains(&aig.num_latches()),
            "{}: {} latches",
            circuit.name,
            aig.num_latches()
        );
        assert!(!circuit.planted.is_empty());
        for &(a, b) in &circuit.planted {
            assert!(a < aig.num_latches() && b < aig.num_latches());
        }
    }
}

/// Sums self times and checks them against the root span.
fn assert_self_times_cover_the_root(rec: &Recorder) {
    let own = rec.self_times();
    let root = rec
        .spans()
        .iter()
        .position(|s| s.parent.is_none())
        .expect("a root span");
    assert_eq!(
        rec.spans().iter().filter(|s| s.parent.is_none()).count(),
        1,
        "one root span"
    );
    let total: Duration = own.iter().sum();
    assert_eq!(
        total,
        rec.spans()[root].duration(),
        "self times must sum to the root span"
    );
    for (span, own) in rec.spans().iter().zip(&own) {
        assert!(
            *own <= span.duration(),
            "{}: self time exceeds the span",
            span.name
        );
        if let Some(parent) = span.parent {
            let p = &rec.spans()[parent];
            assert!(
                p.start <= span.start && span.end <= p.end,
                "{} escapes its parent",
                span.name
            );
        }
    }
}

#[test]
fn span_self_times_are_non_negative_and_sum_to_the_workload_span() {
    let spin = || {
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_micros(200) {}
    };
    let mut rec = Recorder::new();
    let workload = rec.enter("workload", None);
    for circuit in 0..3 {
        let id = rec.enter("circuit", Some(circuit));
        spin();
        rec.leaf("aiger_read", Some(circuit), spin);
        let verify = rec.enter("verify", Some(circuit));
        rec.leaf("replay", Some(circuit), spin);
        rec.exit(verify);
        spin();
        rec.exit(id);
    }
    rec.exit(workload);
    assert_self_times_cover_the_root(&rec);
    let by_name = rec.self_time_by_name();
    assert_eq!(
        by_name.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        ["aiger_read", "circuit", "replay", "verify", "workload"]
    );
    assert!(rec.total("replay") >= Duration::from_micros(600));
    assert!(rec.to_json().contains("\"name\": \"replay\""));
}

#[test]
fn a_traced_sweep_records_a_consistent_span_tree_and_declared_metrics() {
    let circuits: Vec<_> = inputs::generate(Workload::SweepStp, DEFAULT_SEED)
        .into_iter()
        .filter(|c| c.name == "beemfwt4b1")
        .collect();
    let (times, kept) = run::untraced_rep(Workload::SweepStp, &circuits, DEFAULT_SEED, true);
    assert!(kept.iter().all(Result::is_ok), "{kept:?}");
    let traced = run::traced_run(
        Workload::SweepStp,
        &circuits,
        DEFAULT_SEED,
        times.iter().sum(),
    );
    assert_eq!(traced.failed, 0);
    assert_self_times_cover_the_root(&traced.recorder);
    for name in [
        "aiger_read",
        "begin",
        "run",
        "aiger_write",
        "verify",
        "replay",
        "checkpoint_encode",
    ] {
        assert!(
            traced.recorder.total(name) > Duration::ZERO,
            "no {name} span"
        );
    }
    let m = &traced.metrics;
    assert!(m.get("sat_calls").unwrap() > 0.0);
    let merges = &kept[0].as_ref().expect("checked above").merges;
    assert!(!merges.is_empty());
    assert_eq!(m.get("satsolver.replay_queries"), Some(merges.len() as f64));
    assert!(m.get("stp_over_baseline.wall").unwrap() > 0.0);
}

#[test]
fn the_combinational_oracle_rejects_an_unsound_merge() {
    let mut aig = Aig::new();
    let a = aig.add_input("a");
    let b = aig.add_input("b");
    let f = aig.and(a, b);
    let g = aig.or(a, b);
    aig.add_output("f", f);
    aig.add_output("g", g);
    let sound = oracle::substitute(&aig, &[]).expect("no merges");
    assert!(
        oracle::check_combinational(&aig, &sound, &[], 1, &mut Replay::default(), None).is_ok()
    );
    // Claim f == g and apply it: the replay must refuse the merge.
    let merges = [(f.node(), g)];
    let unsound = oracle::substitute(&aig, &merges).expect("acyclic");
    let verdict =
        oracle::check_combinational(&aig, &unsound, &merges, 1, &mut Replay::default(), None);
    assert!(verdict.is_err());
    // A cyclic merge log is rejected before any proof.
    let cyclic = [
        (f.node(), Lit::positive(g.node())),
        (g.node(), Lit::positive(f.node())),
    ];
    assert!(oracle::substitute(&aig, &cyclic).is_err());
}

#[test]
fn the_sequential_oracle_rejects_a_mutated_machine() {
    let (_, aig, planted) = inputs::seq_suite(DEFAULT_SEED).swap_remove(0);
    // Many random gates are dead logic, so only mutants that change some
    // output or next-state function in a single frame count; of those,
    // nearly all must be caught from the initial states.
    let patterns = PatternSet::random(aig.num_inputs(), 256, 5).expect("nonzero patterns");
    let reference = AigSimulator::new(&aig).run(&patterns);
    let (mut observable, mut caught) = (0, 0);
    for seed in 0..200 {
        let mutant = workloads::flip_and_input(&aig, seed * 97).expect("the machine has AND gates");
        let sim = AigSimulator::new(&mutant).run(&patterns);
        if (0..aig.num_outputs())
            .all(|o| sim.output_signature(&mutant, o) == reference.output_signature(&aig, o))
        {
            continue;
        }
        observable += 1;
        caught += usize::from(oracle::check_sequential(&aig, &mutant, &[], 3).is_err());
    }
    assert!(observable >= 10, "only {observable} observable mutants");
    assert!(
        caught * 10 >= observable * 9,
        "caught {caught} of {observable} observable mutants"
    );
    // The unswept machine keeps every planted pair, which the oracle flags.
    assert!(oracle::check_sequential(&aig, &aig, &planted, 3).is_err());
    assert!(oracle::check_sequential(&aig, &aig, &[], 3).is_ok());
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(json: &str, list: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key} in {entry}"));
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("a string value") + 1;
        let close = open + rest[open..].find('"').expect("a closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_printed_name_is_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let pairs = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
    let workloads = &json[json.find("\"workloads\"").expect("a workloads list")..];
    let workloads = &workloads[..workloads.find(']').expect("the list closes")];
    for workload in Workload::ALL {
        assert!(
            workloads.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{}",
            workload.name()
        );
    }

    // The result line carries exactly the declared metrics of its table.
    let mut m = Metrics::default();
    m.set("wall_s", 1.5);
    let line = result_line(&m, END_TO_END, 3, 0);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
    assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

#[test]
#[should_panic(expected = "not declared")]
fn setting_an_undeclared_metric_panics() {
    Metrics::default().set("made_up", 1.0);
}
