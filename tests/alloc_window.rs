//! Resource bound of the window index: **no allocation per node.**  Every
//! window lives in one flat arena of leaf ids and table words, so a
//! [`WindowIndex::build`] allocates only its offset tables, one remap
//! buffer and the amortised growth of the two arenas, however many nodes
//! the network has.  A counting `#[global_allocator]` measures the real
//! number; this file holds a single test, so nothing else allocates during
//! the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use stp_sat_sweep::stp_sweep::window::WindowIndex;
use stp_sat_sweep::workloads::generators;

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

#[test]
fn window_index_build_allocates_nothing_per_node() {
    let aig = generators::random_control(16, 3000, 8, 11);
    assert!(aig.num_ands() >= 3000, "workload must be wide");
    for limit in [2, 8, 12] {
        let before = ALLOCS.load(Ordering::SeqCst);
        let index = WindowIndex::build(&aig, limit);
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        // Three allocations up front and about one doubling of each arena
        // per power of two of its final length: a few dozen, against at
        // least one per AND node for a per-node layout.
        assert!(
            allocs <= 64,
            "limit {limit}: {allocs} allocations for {} nodes",
            aig.num_nodes()
        );
        assert_eq!(index.limit(), limit);
    }
}
