//! Resource-bound guarantee of the locality-first simulation core: **O(1)
//! allocations per simulation pass.**  The struct-of-arrays
//! [`SignatureArena`] replaces one heap `Vec<u64>` per node with a single
//! contiguous allocation, so a full [`AigSimulator::run`] performs a
//! constant number of heap allocations regardless of network size.  A
//! counting `#[global_allocator]` measures the real number; this file holds
//! a single test, so nothing else allocates during the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stp_sat_sweep::bitsim::{AigSimulator, PatternSet};
use stp_sat_sweep::netlist::{Aig, Lit};

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A wide synthetic network: enough AND nodes that a per-node layout would
/// be forced into thousands of signature allocations.
fn wide_aig(num_ands: usize) -> Aig {
    let mut aig = Aig::new();
    let xs = aig.add_inputs("x", 16);
    let mut layer: Vec<Lit> = xs.clone();
    let mut built = 0usize;
    while built < num_ands {
        let mut next = Vec::new();
        for i in 0..layer.len().min(num_ands - built) {
            let a = layer[i];
            let b = layer[(i * 7 + 3) % layer.len()];
            next.push(aig.and(a, if i % 2 == 0 { b } else { !b }));
            built += 1;
        }
        layer = next;
    }
    for (i, &lit) in layer.iter().take(4).enumerate() {
        aig.add_output(format!("o{i}"), lit);
    }
    aig
}

#[test]
fn simulation_pass_performs_constant_allocations() {
    let aig = wide_aig(3000);
    assert!(aig.num_nodes() >= 3000, "workload must be wide");
    let patterns = PatternSet::random(16, 4096, 0xA110C).unwrap();
    let sim = AigSimulator::new(&aig);

    // Warm up once so lazily initialized runtime structures (test harness
    // buffers, etc.) don't count against the measured pass.
    let warm = sim.run(&patterns);
    drop(warm);

    let before = ALLOCS.load(Ordering::SeqCst);
    let state = sim.run(&patterns);
    let after = ALLOCS.load(Ordering::SeqCst);
    let allocs = after - before;

    // The pass needs three allocations: the word plane, the list of word
    // parts and the one part's table of row slices.  Allow a little
    // slack for allocator-internal bookkeeping, but stay orders of
    // magnitude below the per-node layout's floor of one allocation per AND
    // node.
    assert!(
        allocs <= 8,
        "expected O(1) allocations for {} nodes, measured {allocs}",
        aig.num_nodes()
    );
    assert_eq!(state.num_patterns(), 4096);
}
