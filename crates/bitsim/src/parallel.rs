//! Shared machinery for level-scheduled parallel simulation.
//!
//! Both the word-parallel AIG simulator here and the STP simulator in the
//! `stp-sweep` crate parallelise the same way: nodes are grouped by
//! topological level (so every fanin of a level-`l` node is finished before
//! level `l` starts), and within one level the signature rows are split
//! into cost-balanced chunks of words that `std::thread::scope` workers
//! claim ([`evaluate_level_stealing`]).  Because every worker executes
//! exactly the word operations the sequential evaluator would execute —
//! just on a sub-range of words — the result is bit-identical to a
//! sequential run, for any thread count.
//!
//! This module holds the scheduling helpers; the per-node word kernels stay
//! with their simulators.

/// Minimum number of node·word work items a level must have before it is
/// worth spawning scoped threads for it.  Levels below the grain are
/// evaluated inline on the calling thread (spawning costs more than the
/// level's work); the evaluation itself is identical either way.
pub const PARALLEL_GRAIN: usize = 4096;

/// One deterministic work item of a stolen level evaluation: a contiguous
/// word sub-range of one node's signature row.
struct StealItem<'a> {
    node: usize,
    word_lo: usize,
    out: &'a mut [u64],
}

/// Evaluates one level directly into arena rows with **cost-modeled chunked
/// work stealing**.
///
/// `rows` holds one mutable full-width signature row per level node (as
/// produced by `SignatureArena::split_rows`), `nodes` the matching node ids
/// handed to the kernel, and `costs` a per-word relative evaluation cost per
/// node (e.g. `1` for an AIG AND, `1 << k` for a `k`-input LUT).  The level
/// is partitioned — deterministically, before any thread runs — into
/// roughly `4 × num_threads` chunks of near-equal *cost* (a single
/// expensive node is split at word granularity across chunks), and workers
/// claim chunks through an atomic cursor: a worker that finishes its share
/// early steals the next unclaimed chunk instead of idling, so skewed
/// levels no longer run at the pace of the unluckiest thread.
///
/// Because the chunk partition is fixed and every (node, word) pair is
/// written by exactly one chunk, the result is bit-identical for any thread
/// count and any steal schedule.  Levels below [`PARALLEL_GRAIN`] run
/// inline.
///
/// # Panics
///
/// Panics if `rows`, `nodes` and `costs` disagree in length.
pub fn evaluate_level_stealing<K>(
    rows: Vec<&mut [u64]>,
    nodes: &[usize],
    costs: &[u64],
    num_threads: usize,
    kernel: &K,
) where
    K: Fn(usize, usize, &mut [u64]) + Sync,
{
    assert_eq!(rows.len(), nodes.len());
    assert_eq!(rows.len(), costs.len());
    if rows.is_empty() {
        return;
    }
    let num_words = rows[0].len();
    if num_threads < 2 || rows.len() * num_words < PARALLEL_GRAIN {
        for (out, &id) in rows.into_iter().zip(nodes) {
            kernel(id, 0, out);
        }
        return;
    }

    // Deterministic cost-balanced partition into ~4 chunks per thread.
    let total_cost: u64 = costs.iter().map(|&c| c.max(1) * num_words as u64).sum();
    let chunk_target = total_cost.div_ceil(num_threads as u64 * 4).max(1);
    let mut chunks: Vec<Vec<StealItem<'_>>> = Vec::new();
    let mut current: Vec<StealItem<'_>> = Vec::new();
    let mut current_cost = 0u64;
    for (i, row) in rows.into_iter().enumerate() {
        let cost = costs[i].max(1);
        let mut word_lo = 0usize;
        let mut rest = row;
        while !rest.is_empty() {
            let room = chunk_target.saturating_sub(current_cost).max(cost);
            let take = room.div_ceil(cost).min(rest.len() as u64) as usize;
            let (head, tail) = rest.split_at_mut(take);
            current.push(StealItem {
                node: nodes[i],
                word_lo,
                out: head,
            });
            current_cost += take as u64 * cost;
            word_lo += take;
            rest = tail;
            if current_cost >= chunk_target {
                chunks.push(std::mem::take(&mut current));
                current_cost = 0;
            }
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }

    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let slots: Vec<Mutex<Option<Vec<StealItem<'_>>>>> =
        chunks.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let cursor = AtomicUsize::new(0);
    let workers = num_threads.min(slots.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= slots.len() {
                    break;
                }
                let taken = slots[idx]
                    .lock()
                    .expect("a chunk mutex is never poisoned")
                    .take();
                for item in taken.into_iter().flatten() {
                    kernel(item.node, item.word_lo, item.out);
                }
            });
        }
    });
}

/// Groups node ids by topological level: `groups[l]` lists the ids with
/// level `l`, in ascending id order.
pub fn group_by_level(levels: &[usize]) -> Vec<Vec<usize>> {
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (id, &level) in levels.iter().enumerate() {
        groups[level].push(id);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_level_orders_ids() {
        let groups = group_by_level(&[0, 0, 1, 0, 2, 1]);
        assert_eq!(groups, vec![vec![0, 1, 3], vec![2, 5], vec![4]]);
    }

    #[test]
    fn evaluate_level_stealing_is_thread_count_invariant() {
        // Skewed costs force word-granular splitting of the heavy nodes;
        // every (node, word) pair must still be stamped exactly once.
        let nodes: Vec<usize> = (0..96).collect();
        let costs: Vec<u64> = nodes.iter().map(|&i| 1 << (i % 7)).collect();
        let num_words = 60usize;
        let kernel = |node: usize, word_lo: usize, out: &mut [u64]| {
            for (i, w) in out.iter_mut().enumerate() {
                // Accumulate instead of assign so a double write is caught.
                *w += (node as u64) << 32 | (word_lo + i) as u64;
            }
        };
        let mut reference: Vec<Vec<u64>> = Vec::new();
        for num_threads in [1usize, 2, 4, 8] {
            let mut storage: Vec<Vec<u64>> = nodes.iter().map(|_| vec![0u64; num_words]).collect();
            let rows: Vec<&mut [u64]> = storage.iter_mut().map(|b| b.as_mut_slice()).collect();
            evaluate_level_stealing(rows, &nodes, &costs, num_threads, &kernel);
            if num_threads == 1 {
                reference = storage.clone();
            }
            assert_eq!(storage, reference, "{num_threads} threads");
        }
        for (j, row) in reference.iter().enumerate() {
            for (w, &value) in row.iter().enumerate() {
                assert_eq!(value, (j as u64) << 32 | w as u64);
            }
        }
    }

    #[test]
    fn evaluate_level_stealing_handles_small_and_empty_levels() {
        evaluate_level_stealing(Vec::new(), &[], &[], 4, &|_, _, _: &mut [u64]| {
            panic!("an empty level runs no kernel")
        });
        let mut row = vec![0u64; 3];
        evaluate_level_stealing(
            vec![row.as_mut_slice()],
            &[7],
            &[1],
            4,
            &|node, word_lo, out| {
                assert_eq!((node, word_lo), (7, 0));
                out.fill(5);
            },
        );
        assert_eq!(row, vec![5, 5, 5]);
    }
}
