//! Cut-based NPN rewriting.
//!
//! For every AND node the pass enumerates 4-feasible cuts
//! ([`netlist::cuts`]), NPN-canonicalises each cut function
//! ([`truthtable::npn`]) and compares the node's cut-local MFFC — the gates
//! that die when the node is replaced — against a precomputed replacement
//! network for the canonical class.  Replacements with non-negative gain
//! are applied by rebuilding the network: rewritten roots get their library
//! implementation (leaves permuted/complemented per the inverse NPN
//! transform), claimed MFFC internals are skipped, everything else is
//! copied through the structural hash.
//!
//! The pass is deterministic (nodes are visited in topological order, cuts
//! in their enumeration order, ties broken first-wins) and never increases
//! the AND count: each accepted rewrite adds at most as many nodes as its
//! claimed MFFC removes, and accepted cuts are chosen so their MFFCs are
//! disjoint and their leaves and roots are never claimed by a later
//! rewrite.

use netlist::cuts::{self, Cut, CutParams};
use netlist::{Aig, AigNode, Lit};
use std::collections::HashMap;
use truthtable::npn::{self, NpnTransform};

/// A reference to a value inside a [`LibEntry`]: a constant, one of the
/// four leaf slots, or the result of an earlier step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Ref {
    /// Constant false (`Const(true)` after negation is constant true).
    Const(bool),
    /// Leaf slot 0–3, with complement.
    Leaf(u8, bool),
    /// Result of step `i`, with complement.
    Step(u16, bool),
}

impl Ref {
    fn negate(self) -> Self {
        match self {
            Ref::Const(b) => Ref::Const(!b),
            Ref::Leaf(i, c) => Ref::Leaf(i, !c),
            Ref::Step(i, c) => Ref::Step(i, !c),
        }
    }
}

/// A replacement network for one NPN class: a straight-line list of AND
/// steps over the four leaf slots, plus the output reference.
#[derive(Debug, Clone)]
struct LibEntry {
    steps: Vec<(Ref, Ref)>,
    out: Ref,
}

impl LibEntry {
    /// Number of AND gates the entry materialises (before strash sharing).
    fn size(&self) -> usize {
        self.steps.len()
    }

    /// Builds the entry into `aig` over the given leaf literals, returning
    /// the output literal.
    fn instantiate(&self, aig: &mut Aig, leaves: &[Lit; 4]) -> Lit {
        let mut values: Vec<Lit> = Vec::with_capacity(self.steps.len());
        let resolve = |r: Ref, values: &[Lit]| -> Lit {
            match r {
                Ref::Const(b) => Lit::FALSE.complement_if(b),
                Ref::Leaf(i, c) => leaves[i as usize].complement_if(c),
                Ref::Step(i, c) => values[i as usize].complement_if(c),
            }
        };
        for &(a, b) in &self.steps {
            let fa = resolve(a, &values);
            let fb = resolve(b, &values);
            values.push(aig.and(fa, fb));
        }
        resolve(self.out, &values)
    }
}

/// Truth tables of the four leaf slots as 4-variable `u16` tables.
const VAR_MASKS: [u16; 4] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// Deterministic Shannon synthesis of a 4-variable function into a
/// [`LibEntry`]: split on the lowest variable in the support, share equal
/// and complementary subfunctions, fold constants.
fn synthesize(tt: u16) -> LibEntry {
    struct Synth {
        steps: Vec<(Ref, Ref)>,
        memo: HashMap<u16, Ref>,
        step_memo: HashMap<(Ref, Ref), u16>,
    }

    impl Synth {
        fn and(&mut self, a: Ref, b: Ref) -> Ref {
            if a == Ref::Const(false) || b == Ref::Const(false) || a == b.negate() {
                return Ref::Const(false);
            }
            if a == Ref::Const(true) || a == b {
                return b;
            }
            if b == Ref::Const(true) {
                return a;
            }
            let (x, y) = if a <= b { (a, b) } else { (b, a) };
            if let Some(&i) = self.step_memo.get(&(x, y)) {
                return Ref::Step(i, false);
            }
            let i = self.steps.len() as u16;
            self.steps.push((x, y));
            self.step_memo.insert((x, y), i);
            Ref::Step(i, false)
        }

        fn build(&mut self, tt: u16) -> Ref {
            if tt == 0 {
                return Ref::Const(false);
            }
            if tt == u16::MAX {
                return Ref::Const(true);
            }
            for (v, mask) in VAR_MASKS.iter().enumerate() {
                if tt == *mask {
                    return Ref::Leaf(v as u8, false);
                }
                if tt == !*mask {
                    return Ref::Leaf(v as u8, true);
                }
            }
            if let Some(&r) = self.memo.get(&tt) {
                return r;
            }
            if let Some(&r) = self.memo.get(&!tt) {
                return r.negate();
            }
            // Split on the lowest support variable:
            // f = (x ∧ f|x=1) ∨ (¬x ∧ f|x=0).
            let v = (0..4)
                .find(|&v| cofactor(tt, v, false) != cofactor(tt, v, true))
                .expect("non-constant table has a support variable");
            let c0 = cofactor(tt, v, false);
            let c1 = cofactor(tt, v, true);
            let x = Ref::Leaf(v as u8, false);
            let r1 = self.build(c1);
            let r0 = self.build(c0);
            let t1 = self.and(x, r1);
            let t0 = self.and(x.negate(), r0);
            let r = self.and(t1.negate(), t0.negate()).negate();
            self.memo.insert(tt, r);
            r
        }
    }

    let mut synth = Synth {
        steps: Vec::new(),
        memo: HashMap::new(),
        step_memo: HashMap::new(),
    };
    let out = synth.build(tt);
    LibEntry {
        steps: synth.steps,
        out,
    }
}

/// The cofactor of `tt` with variable `v` fixed to `value`, replicated
/// back over both halves so the result is again a 4-variable table.
fn cofactor(tt: u16, v: usize, value: bool) -> u16 {
    let shift = 1usize << v;
    if value {
        let hi = tt & VAR_MASKS[v];
        hi | (hi >> shift)
    } else {
        let lo = tt & !VAR_MASKS[v];
        lo | (lo << shift)
    }
}

/// The per-class replacement library, synthesised on first demand and
/// memoised.  Entries are a pure function of the canonical table, so the
/// library contents never depend on lookup order, and one library serves
/// every rewrite of a run.
#[derive(Debug, Default)]
pub(crate) struct RewriteLibrary {
    entries: HashMap<u16, LibEntry>,
}

impl RewriteLibrary {
    fn entry(&mut self, canon: u16) -> &LibEntry {
        self.entries
            .entry(canon)
            .or_insert_with(|| synthesize(canon))
    }
}

/// An accepted rewrite decision for one root node.
struct Choice {
    cut: Cut,
    canon: u16,
    inverse: NpnTransform,
}

impl RewriteLibrary {
    /// Rewrites `aig` (see the module docs) with this library's classes;
    /// returns the rewritten network and the pass counters.
    pub(crate) fn rewrite(&mut self, aig: &Aig) -> (Aig, Vec<(&'static str, u64)>) {
        let params = CutParams {
            max_leaves: 4,
            max_cuts: 8,
        };
        let cut_sets = cuts::enumerate_cuts(aig, params);
        let fanouts = aig.fanout_counts();
        let n = aig.num_nodes();

        // Decision phase: visit AND nodes in topological order and pick at
        // most one rewrite per node.  `claimed` nodes are expected to die
        // with an accepted rewrite; `locked` nodes (accepted roots and
        // their cut leaves) must stay alive, so later rewrites may not
        // claim them.
        let mut claimed = vec![false; n];
        let mut locked = vec![false; n];
        let mut choices: Vec<Option<Choice>> = Vec::new();
        choices.resize_with(n, || None);
        let mut candidates = 0u64;
        let mut applied = 0u64;
        let mut estimated_gain = 0u64;

        for id in aig.and_ids() {
            let mut best: Option<(isize, usize, Choice, Vec<usize>)> = None;
            for cut in cut_sets[id].cuts() {
                if !(2..=4).contains(&cut.size()) {
                    continue;
                }
                if cut.leaves().iter().any(|&l| claimed[l]) {
                    continue;
                }
                let (cone, mffc) = cuts::cut_mffc(aig, id, cut, &fanouts);
                if cone.iter().any(|&c| c != id && claimed[c]) {
                    continue;
                }
                if mffc.iter().any(|&m| locked[m]) {
                    continue;
                }
                let table = cuts::cut_truth_table(aig, id, cut);
                let tt = npn::from_table(&table).expect("cut has at most 4 leaves");
                let (canon, transform) = npn::canonicalize4(tt);
                let size = self.entry(canon).size();
                candidates += 1;
                let gain = mffc.len() as isize - size as isize;
                if gain < 0 {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((best_gain, best_size, _, _)) => {
                        gain > *best_gain || (gain == *best_gain && size < *best_size)
                    }
                };
                if better {
                    let choice = Choice {
                        cut: cut.clone(),
                        canon,
                        inverse: transform.inverse(),
                    };
                    best = Some((gain, size, choice, mffc));
                }
            }
            if let Some((gain, _, choice, mffc)) = best {
                for &m in &mffc {
                    claimed[m] = true;
                }
                locked[id] = true;
                for &l in choice.cut.leaves() {
                    locked[l] = true;
                }
                choices[id] = Some(choice);
                applied += 1;
                estimated_gain += gain as u64;
            }
        }

        // Construction phase: rebuild into a fresh network.  Rewritten
        // roots get their library implementation, claimed internals are
        // skipped (nothing that survives references them), everything else
        // is copied through the structural hash.
        let mut new = Aig::new();
        let mut map: Vec<Option<Lit>> = vec![None; n];
        map[0] = Some(Lit::FALSE);
        for (pos, &iid) in aig.inputs().iter().enumerate() {
            map[iid] = Some(new.add_input(aig.input_name(pos).to_string()));
        }
        for id in aig.node_ids() {
            if !aig.node(id).is_and() {
                continue;
            }
            if let Some(choice) = &choices[id] {
                let entry = self.entry(choice.canon);
                let mut leaves = [Lit::FALSE; 4];
                for (j, leaf) in leaves.iter_mut().enumerate() {
                    // Library slot `j` reads cut leaf `inverse.perm[j]`;
                    // slots beyond the cut are outside the function's
                    // support and stay bound to constant false.
                    let src = choice.inverse.perm[j] as usize;
                    let mut lit = if src < choice.cut.size() {
                        map[choice.cut.leaves()[src]].expect("cut leaves are never claimed")
                    } else {
                        Lit::FALSE
                    };
                    lit = lit.complement_if((choice.inverse.input_neg >> j) & 1 == 1);
                    *leaf = lit;
                }
                let out = entry.instantiate(&mut new, &leaves);
                map[id] = Some(out.complement_if(choice.inverse.output_neg));
            } else if claimed[id] {
                map[id] = None;
            } else if let AigNode::And { fanin0, fanin1 } = *aig.node(id) {
                let f0 = map[fanin0.node()]
                    .expect("fanin precedes node in topological order")
                    .complement_if(fanin0.is_complemented());
                let f1 = map[fanin1.node()]
                    .expect("fanin precedes node in topological order")
                    .complement_if(fanin1.is_complemented());
                map[id] = Some(new.and(f0, f1));
            }
        }
        for output in aig.outputs() {
            let lit = map[output.lit.node()]
                .expect("output drivers are never claimed internals")
                .complement_if(output.lit.is_complemented());
            new.add_output(output.name.clone(), lit);
        }
        // Inputs and outputs keep their positions, so the latch table
        // carries over unchanged.
        for latch in aig.latches() {
            new.define_latch(latch.state_input, latch.next_output, latch.init);
        }
        let counters = vec![
            ("candidates", candidates),
            ("rewrites", applied),
            ("estimated_gain", estimated_gain),
        ];
        (new, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shannon_synthesis_matches_the_table() {
        // Every step list must evaluate back to the function it was built
        // from, across a deterministic sample of tables.
        let mut state = 0x5EEDu32;
        let mut sample = Vec::new();
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            sample.push((state & 0xFFFF) as u16);
        }
        sample.extend_from_slice(&[0, 0xFFFF, 0xAAAA, 0x5555, 0x6996, 0x8000, 0xFFFE]);
        for tt in sample {
            let entry = synthesize(tt);
            for i in 0..16u16 {
                let mut values: Vec<bool> = Vec::new();
                let eval = |r: Ref, values: &[bool]| -> bool {
                    match r {
                        Ref::Const(b) => b,
                        Ref::Leaf(v, c) => ((i >> v) & 1 == 1) ^ c,
                        Ref::Step(s, c) => values[s as usize] ^ c,
                    }
                };
                for &(a, b) in &entry.steps {
                    let value = eval(a, &values) && eval(b, &values);
                    values.push(value);
                }
                assert_eq!(
                    eval(entry.out, &values),
                    (tt >> i) & 1 == 1,
                    "table {tt:#06x}, minterm {i}"
                );
            }
        }
    }

    #[test]
    fn cofactors_fix_one_variable() {
        let tt = 0x6996u16; // 4-input XOR
        for v in 0..4 {
            let c0 = cofactor(tt, v, false);
            let c1 = cofactor(tt, v, true);
            assert_eq!(c0, !c1, "XOR cofactors are complementary");
            // Cofactors no longer depend on the split variable.
            assert_eq!(cofactor(c0, v, false), cofactor(c0, v, true));
        }
    }

    #[test]
    fn synthesis_of_simple_classes_is_small() {
        // x0 & x1 replicated over the two unused variables.
        let and_tt = {
            let mut tt = 0u16;
            for i in 0..16 {
                if (i & 1 == 1) && (i & 2 == 2) {
                    tt |= 1 << i;
                }
            }
            tt
        };
        assert_eq!(synthesize(and_tt).size(), 1);
        // 2-input XOR costs three ANDs.
        let xor_tt = {
            let mut tt = 0u16;
            for i in 0..16 {
                if (i & 1 == 1) ^ (i & 2 == 2) {
                    tt |= 1 << i;
                }
            }
            tt
        };
        assert_eq!(synthesize(xor_tt).size(), 3);
        assert_eq!(synthesize(0).size(), 0);
        assert_eq!(synthesize(u16::MAX).size(), 0);
        assert_eq!(synthesize(0xAAAA).size(), 0); // projection of x0
    }
}
