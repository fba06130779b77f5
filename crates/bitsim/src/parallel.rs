//! Pattern-parallel simulation.
//!
//! Bit-parallel simulation treats every pattern independently, so a pass
//! splits along the pattern words, not along the nodes: each part of
//! [`SignatureArena::split_words`] is one contiguous word range of every
//! row, and one evaluator walks every node in id order over its own range.
//! Parts share no word, so the result is bit-identical to a one-part run by
//! construction, for any thread count.
//!
//! Both the AIG simulator here and the STP simulator in the `stp_sweep`
//! crate run through [`evaluate_word_parts`]; the per-node word kernels
//! stay with their simulators.

use crate::arena::SignatureArena;

/// Runs `eval` on each of the (at most `num_threads`) word parts of
/// `arena`, then masks every row's tail.
///
/// `eval(lo, rows)` receives the part's first word index and one slice per
/// row (`rows[id]` is node `id`'s words of the part).  One part runs inline
/// on the calling thread; more parts run on [`std::thread::scope`] threads,
/// one each.  `num_threads` is clamped to the arena's words per row.
pub fn evaluate_word_parts<F>(arena: &mut SignatureArena, num_threads: usize, eval: F)
where
    F: Fn(usize, &mut [&mut [u64]]) + Sync,
{
    let mut parts = arena.split_words(num_threads);
    if let [(lo, rows)] = parts.as_mut_slice() {
        eval(*lo, rows);
    } else {
        let eval = &eval;
        std::thread::scope(|scope| {
            for (lo, mut rows) in parts {
                scope.spawn(move || eval(lo, &mut rows));
            }
        });
    }
    for i in 0..arena.num_rows() {
        arena.mask_row_tail(i);
    }
}
