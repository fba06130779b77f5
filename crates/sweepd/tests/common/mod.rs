//! Shared helpers for the daemon integration tests.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use netlist::{write_aiger_string, Aig, Lit, NodeId};
use stp_sweep::{Engine, Sweeper};
use sweepd::{effective_config, JobCounters, Preset};
use workloads::{generators, inject_redundancy};

/// A unique, initially-absent temp directory per call.
pub fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("sweepd-test-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The wire form of a netlist.
pub fn aiger_bytes(aig: &Aig) -> Vec<u8> {
    write_aiger_string(aig).into_bytes()
}

/// The determinism gate's oracle: the same job run uninterrupted,
/// in-process, under the daemon's effective configuration.
pub fn reference(engine: Engine, preset: Preset, aig: &Aig) -> (String, JobCounters) {
    let result = Sweeper::new(engine)
        .config(effective_config(preset))
        .run(aig)
        .expect("uninterrupted reference run finishes");
    (
        write_aiger_string(&result.aig),
        JobCounters::from_report(&result.report),
    )
}

/// A `Fast` STP job that outlasts `min`, with its oracle: a
/// `barrel_shifter` with redundancy injected under `seed`, whose width
/// starts at 32 and doubles until one [`reference`] sweep of it takes at
/// least `min`.  Tests that need a job to outlive a slice size it with
/// this, so they hold however fast the sweep gets.
pub fn long_job(seed: u64, min: Duration) -> (Aig, (String, JobCounters)) {
    let mut width = 32;
    loop {
        let aig = inject_redundancy(&generators::barrel_shifter(width), 0.5, seed);
        let start = Instant::now();
        let oracle = reference(Engine::Stp, Preset::Fast, &aig);
        if start.elapsed() >= min {
            return (aig, oracle);
        }
        assert!(
            width < 1024,
            "barrel_shifter({width}) sweeps in under {min:?}"
        );
        width *= 2;
    }
}

/// Rebuilds `aig` with a different (but still topological) node order, so
/// the strict per-node fingerprint changes while the canonical one
/// doesn't.  Mirrors the engine's own renumbering test.
pub fn renumbered_copy(aig: &Aig) -> Aig {
    let mut out = Aig::new();
    let mut map = vec![Lit::positive(0); aig.num_nodes()];
    for (position, &id) in aig.inputs().iter().enumerate() {
        map[id] = out.add_input(aig.input_name(position).to_string());
    }
    let mut remaining: Vec<NodeId> = aig.and_ids().collect();
    let mut placed: Vec<bool> = aig.node_ids().map(|id| !aig.node(id).is_and()).collect();
    while !remaining.is_empty() {
        let pos = (0..remaining.len())
            .rev()
            .find(|&i| {
                aig.node(remaining[i])
                    .fanins()
                    .iter()
                    .all(|f| placed[f.node()])
            })
            .expect("an AIG is acyclic");
        let id = remaining.remove(pos);
        let fanins = aig.node(id).fanins();
        let a = map[fanins[0].node()].complement_if(fanins[0].is_complemented());
        let b = map[fanins[1].node()].complement_if(fanins[1].is_complemented());
        map[id] = out.and(a, b);
        placed[id] = true;
    }
    for output in aig.outputs() {
        let lit = map[output.lit.node()].complement_if(output.lit.is_complemented());
        out.add_output(output.name.clone(), lit);
    }
    out
}

/// Counts spill files with the given extension in `dir` (0 for a missing
/// directory).
pub fn spill_files(dir: &PathBuf, extension: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|ext| ext == extension))
                .count()
        })
        .unwrap_or(0)
}
