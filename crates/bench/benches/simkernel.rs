//! Microbench for the simulation core's level evaluator: struct-of-arrays
//! [`SignatureArena`] rows filled through the blocked `bitsim::kernels`
//! primitives by [`parallel::evaluate_level_stealing`], on a skewed-cost
//! LUT level and on a uniform AND level, at 1, 2 and 4 threads.

use bitsim::{kernels, parallel, PatternSet, SignatureArena};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use truthtable::TruthTable;

/// Words processed per stack block, mirroring the simulator's narrow path.
const BLOCK_WORDS: usize = 64;

/// A synthetic one-level skewed-LUT workload: `num_narrow` 2-input LUTs and
/// `num_wide` 6-input LUTs, all reading from `num_pis` shared inputs.  The
/// 16× per-word cost gap between the two LUT kinds is the skew that even
/// word-range splitting balances poorly and the cost model targets.
struct SkewedLevel {
    fanins: Vec<Vec<usize>>,
    functions: Vec<TruthTable>,
    costs: Vec<u64>,
}

fn skewed_level(num_pis: usize, num_narrow: usize, num_wide: usize, seed: u64) -> SkewedLevel {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut fanins = Vec::new();
    let mut functions = Vec::new();
    let mut costs = Vec::new();
    for i in 0..num_narrow + num_wide {
        let k = if i < num_narrow { 2 } else { 6 };
        fanins.push((0..k).map(|_| next() as usize % num_pis).collect());
        let words: Vec<u64> = (0..(1usize << k).div_ceil(64).max(1))
            .map(|_| next())
            .collect();
        functions.push(TruthTable::from_words(k, &words));
        costs.push(1u64 << k);
    }
    SkewedLevel {
        fanins,
        functions,
        costs,
    }
}

/// The arena kernel: minterm-outer, fanin-middle, words-inner over stack
/// blocks, built from the shared `bitsim::kernels` primitives — the shape
/// the simulators use on arena rows.
fn blocked_kernel_eval(
    fanins: &[usize],
    function: &TruthTable,
    input_rows: &[&[u64]],
    word_lo: usize,
    out: &mut [u64],
) {
    let mut done = 0usize;
    while done < out.len() {
        let n = (out.len() - done).min(BLOCK_WORDS);
        let lo = word_lo + done;
        let mut acc = [0u64; BLOCK_WORDS];
        let mut term = [0u64; BLOCK_WORDS];
        for m in 0..function.num_bits() {
            if !function.get_bit(m) {
                continue;
            }
            let first = input_rows[fanins[0]];
            kernels::copy_polarity(&mut term[..n], &first[lo..lo + n], (m & 1) == 0);
            for (j, &f) in fanins.iter().enumerate().skip(1) {
                let row = &input_rows[f][lo..lo + n];
                if (m >> j) & 1 == 1 {
                    kernels::and_assign(&mut term[..n], row);
                } else {
                    kernels::andnot_assign(&mut term[..n], row);
                }
            }
            kernels::or_assign(&mut acc[..n], &term[..n]);
        }
        out[done..done + n].copy_from_slice(&acc[..n]);
        done += n;
    }
}

fn level_eval_benches(c: &mut Criterion) {
    const NUM_PIS: usize = 16;
    const NUM_NARROW: usize = 224;
    const NUM_WIDE: usize = 32;
    const NUM_PATTERNS: usize = 64 * 64; // 64 words per signature

    let level = skewed_level(NUM_PIS, NUM_NARROW, NUM_WIDE, 0x5EED);
    let num_nodes = level.fanins.len();
    let patterns = PatternSet::random(NUM_PIS, NUM_PATTERNS, 0xEB5).unwrap();

    // Arena layout: inputs first, then one row per LUT of the level.
    let mut arena = SignatureArena::new(NUM_PIS + num_nodes, NUM_PATTERNS);
    for i in 0..NUM_PIS {
        arena
            .row_mut(i)
            .copy_from_slice(patterns.input_signature(i).words());
    }
    let group_rows: Vec<usize> = (NUM_PIS..NUM_PIS + num_nodes).collect();
    let nodes: Vec<usize> = (0..num_nodes).collect();

    let mut group = c.benchmark_group("simkernel_level_eval");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("arena_steal", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let (rows, reader) = arena.split_rows(&group_rows);
                    parallel::evaluate_level_stealing(
                        rows,
                        &nodes,
                        &level.costs,
                        t,
                        &|node: usize, word_lo: usize, out: &mut [u64]| {
                            let input_rows: Vec<&[u64]> =
                                (0..NUM_PIS).map(|i| reader.row(i)).collect();
                            blocked_kernel_eval(
                                &level.fanins[node],
                                &level.functions[node],
                                &input_rows,
                                word_lo,
                                out,
                            );
                        },
                    );
                    black_box(arena.row(NUM_PIS)[0])
                });
            },
        );
    }
    group.finish();
}

fn aig_level_benches(c: &mut Criterion) {
    // A uniform-cost AND level over stride-contiguous rows.
    const NUM_PIS: usize = 64;
    const NUM_ANDS: usize = 512;
    const NUM_PATTERNS: usize = 64 * 64;

    let mut state = 0x0DDB_1A5Eu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let pairs: Vec<(usize, u64, usize, u64)> = (0..NUM_ANDS)
        .map(|_| {
            (
                next() as usize % NUM_PIS,
                if next() & 1 == 1 { u64::MAX } else { 0 },
                next() as usize % NUM_PIS,
                if next() & 1 == 1 { u64::MAX } else { 0 },
            )
        })
        .collect();
    let patterns = PatternSet::random(NUM_PIS, NUM_PATTERNS, 0xEB5).unwrap();

    let mut arena = SignatureArena::new(NUM_PIS + NUM_ANDS, NUM_PATTERNS);
    for i in 0..NUM_PIS {
        arena
            .row_mut(i)
            .copy_from_slice(patterns.input_signature(i).words());
    }
    let group_rows: Vec<usize> = (NUM_PIS..NUM_PIS + NUM_ANDS).collect();
    let nodes: Vec<usize> = (0..NUM_ANDS).collect();
    let costs = vec![1u64; NUM_ANDS];

    let mut group = c.benchmark_group("simkernel_aig_level");
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("arena_steal", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let (rows, reader) = arena.split_rows(&group_rows);
                    parallel::evaluate_level_stealing(
                        rows,
                        &nodes,
                        &costs,
                        t,
                        &|node: usize, word_lo: usize, out: &mut [u64]| {
                            let (a, ma, bn, mb) = pairs[node];
                            let aw = &reader.row(a)[word_lo..word_lo + out.len()];
                            let bw = &reader.row(bn)[word_lo..word_lo + out.len()];
                            kernels::and2_masked(aw, bw, ma, mb, out);
                        },
                    );
                    black_box(arena.row(NUM_PIS)[0])
                });
            },
        );
    }
    group.finish();
}

fn simkernel_benches(c: &mut Criterion) {
    level_eval_benches(c);
    aig_level_benches(c);
}

criterion_group!(benches, simkernel_benches);
criterion_main!(benches);
