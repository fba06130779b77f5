//! The candidate equivalence-class manager (Fig. 2 of the paper).
//!
//! Nodes with identical simulation signatures — up to complementation — form
//! candidate equivalence classes.  The manager builds the classes from a set
//! of signatures, refines them when new patterns (counter-examples) arrive,
//! and hands out the candidate pairs the SAT solver has to decide.  Like
//! ABC's FRAIG class manager (`Fra_Cla_t`), it is one table addressed by
//! node, and the constant candidates are the class of the constant node.

use bitsim::SigRef;
use netlist::{Lit, NodeId};
use std::collections::HashMap;

/// FNV-1a fingerprint of a signature's *canonical* form (complemented when
/// `phase` is set, tail bits masked), used to bucket borrowed [`SigRef`]
/// views without materialising owned canonical keys.
fn canonical_fingerprint(sig: SigRef<'_>, phase: bool) -> u64 {
    let flip = if phase { u64::MAX } else { 0 };
    let rem = sig.len() % 64;
    let tail = if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    };
    let words = sig.words();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (i, &w) in words.iter().enumerate() {
        let mut canonical = w ^ flip;
        if i + 1 == words.len() {
            canonical &= tail;
        }
        hash ^= canonical;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= sig.len() as u64;
    hash.wrapping_mul(0x0000_0100_0000_01b3)
}

/// `true` if the canonical forms of the two views are identical, i.e. the
/// nodes' signatures are equal up to complementation with the given phases.
fn canonical_eq(a: SigRef<'_>, phase_a: bool, b: SigRef<'_>, phase_b: bool) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let flip = if phase_a != phase_b { u64::MAX } else { 0 };
    let rem = a.len() % 64;
    let tail = if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    };
    let wa = a.words();
    let wb = b.words();
    wa.iter().zip(wb).enumerate().all(|(i, (&x, &y))| {
        let mut diff = x ^ y ^ flip;
        if i + 1 == wa.len() {
            diff &= tail;
        }
        diff == 0
    })
}

/// The equivalence-class manager: one table addressed by node.
///
/// Each classed node points at its class's representative, the member
/// with the smallest node id (the earliest in topological order), and
/// every other member is a merge candidate onto it.  Node 0 represents the
/// class of the constant candidates, so a constant candidate is an
/// ordinary member whose phase is its value.
#[derive(Debug, Clone, Default)]
pub struct EquivClasses {
    /// `repr[n]` is the literal of `n`'s representative, complemented when
    /// `n` is the opposite-phase member; `None` if `n` is in no class.  A
    /// representative points at itself.
    repr: Vec<Option<Lit>>,
    /// `members[r]` holds the members of the class that `r` represents,
    /// ascending, so `r` first; empty if `r` represents none.  Every class
    /// has at least two members.
    members: Vec<Vec<NodeId>>,
}

impl EquivClasses {
    /// An empty table for nodes `0..num_nodes`.
    fn with_nodes(num_nodes: usize) -> Self {
        EquivClasses {
            repr: vec![None; num_nodes],
            members: vec![Vec::new(); num_nodes],
        }
    }

    /// Enters a class of at least two `(member, phase)` pairs whose phases
    /// share an arbitrary reference: the earliest member represents it, and
    /// the phases are re-expressed relative to that member.
    fn insert(&mut self, mut class: Vec<(NodeId, bool)>) {
        class.sort_unstable();
        let (leader, base) = class[0];
        for &(member, phase) in &class {
            self.repr[member] = Some(Lit::new(leader, phase != base));
        }
        self.members[leader] = class.into_iter().map(|(member, _)| member).collect();
    }

    /// Builds candidate classes from node signatures, borrowed as arena
    /// views.
    ///
    /// Only the given nodes are classified; they must be AND nodes (the
    /// session passes all of them).  Nodes whose signature is all-zero or
    /// all-one join the class of node 0 with their value as their phase;
    /// the others group by signature up to complementation.  Bucketing
    /// uses a complement-normalised FNV fingerprint and an exact canonical
    /// comparison within each bucket, so no per-node `Signature` clone is
    /// ever materialised.
    pub fn from_node_signatures<'a, I>(signatures: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, SigRef<'a>)>,
    {
        let mut constants = vec![(0, false)];
        let mut buckets: HashMap<u64, Vec<(NodeId, SigRef<'a>, bool)>> = HashMap::new();
        let mut num_nodes = 1;
        for (node, sig) in signatures {
            num_nodes = num_nodes.max(node + 1);
            if sig.is_const0() || sig.is_const1() {
                constants.push((node, sig.is_const1()));
                continue;
            }
            let phase = !sig.is_empty() && sig.get_bit(0);
            buckets
                .entry(canonical_fingerprint(sig, phase))
                .or_default()
                .push((node, sig, phase));
        }
        let mut classes = EquivClasses::with_nodes(num_nodes);
        for (_, bucket) in buckets {
            // Split fingerprint collisions with exact canonical comparison.
            let mut groups: Vec<Vec<(NodeId, bool)>> = Vec::new();
            let mut group_reps: Vec<(SigRef<'a>, bool)> = Vec::new();
            for (node, sig, phase) in bucket {
                match group_reps
                    .iter()
                    .position(|&(rs, rp)| canonical_eq(sig, phase, rs, rp))
                {
                    Some(g) => groups[g].push((node, phase)),
                    None => {
                        group_reps.push((sig, phase));
                        groups.push(vec![(node, phase)]);
                    }
                }
            }
            for group in groups.into_iter().filter(|group| group.len() >= 2) {
                classes.insert(group);
            }
        }
        if constants.len() >= 2 {
            classes.insert(constants);
        }
        classes
    }

    /// Rebuilds a manager for a network of `num_nodes` nodes from raw class
    /// parts (member/phase vectors, the form [`EquivClasses::parts`]
    /// returns), validating the invariants the engine relies on.  Used to
    /// restore a checkpointed session; corrupt data is rejected with an
    /// error message instead of producing a manager that misbehaves.
    pub fn from_parts(
        num_nodes: usize,
        parts: Vec<(Vec<NodeId>, Vec<bool>)>,
    ) -> Result<Self, &'static str> {
        let mut classes = EquivClasses::with_nodes(num_nodes);
        for (members, phases) in parts {
            if members.len() < 2 {
                return Err("equivalence class with fewer than two members");
            }
            if members.len() != phases.len() {
                return Err("equivalence class phases disagree with members");
            }
            // Sorted members put node 0 first, so it can only represent.
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err("equivalence class members are not sorted and unique");
            }
            if phases[0] {
                return Err("equivalence class representative has a nonzero phase");
            }
            if members.iter().any(|&m| m >= num_nodes) {
                return Err("equivalence class member outside the network");
            }
            if members.iter().any(|&m| classes.repr[m].is_some()) {
                return Err("a node is listed in two equivalence classes");
            }
            classes.insert(members.into_iter().zip(phases).collect());
        }
        Ok(classes)
    }

    /// The classes as (members, phases) pairs, ascending by representative
    /// (the constant candidates' class first): the parts
    /// [`EquivClasses::from_parts`] reads.
    pub fn parts(&self) -> Vec<(Vec<NodeId>, Vec<bool>)> {
        self.members
            .iter()
            .filter(|members| !members.is_empty())
            .map(|members| {
                let phases = members.iter().map(|&m| self.phase(m)).collect();
                (members.clone(), phases)
            })
            .collect()
    }

    /// The literal of `node`'s representative, complemented when `node` is
    /// the opposite-phase member; `None` if `node` is in no class.  For a
    /// constant candidate it is the constant the candidate is suspected to
    /// equal.
    pub fn repr(&self, node: NodeId) -> Option<Lit> {
        self.repr.get(node).copied().flatten()
    }

    /// Whether `node` is the opposite-phase member of its class.
    fn phase(&self, node: NodeId) -> bool {
        self.repr(node).is_some_and(Lit::is_complemented)
    }

    /// The members of the class that `representative` represents,
    /// ascending; empty if it represents none.
    pub fn members(&self, representative: NodeId) -> &[NodeId] {
        self.members.get(representative).map_or(&[], Vec::as_slice)
    }

    /// The members of `node`'s class before `node`, its representative
    /// first, each as the literal that equals `node` on every pattern so
    /// far.  Empty if `node` is in no class or represents it.
    pub(crate) fn drivers(&self, node: NodeId) -> impl Iterator<Item = Lit> + '_ {
        let repr = self.repr(node);
        let phase = repr.is_some_and(Lit::is_complemented);
        self.members(repr.map_or(node, Lit::node))
            .iter()
            .take_while(move |&&m| m < node)
            .map(move |&m| Lit::new(m, self.phase(m) != phase))
    }

    /// Every classed node but node 0, ascending: the nodes whose values
    /// [`EquivClasses::refine`] reads.
    pub fn classed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.repr.len()).filter(|&node| self.repr[node].is_some())
    }

    /// The number of classes, the constant candidates' class included.
    pub(crate) fn num_classes(&self) -> usize {
        self.members.iter().filter(|m| !m.is_empty()).count()
    }

    /// Total number of merge candidates: class members beyond their
    /// representative, the constant candidates included.
    pub fn num_candidates(&self) -> usize {
        self.members.iter().map(|m| m.len().saturating_sub(1)).sum()
    }

    /// Refines the candidates by one simulated pattern (a counter-example):
    /// `values` holds the pattern's value of every classed node, indexed
    /// by [`NodeId`] (the shape [`crate::resim::eval_pattern_targets`]
    /// returns, whose entry for node 0 is `false`).
    ///
    /// Each class splits in two: the members that agree with the
    /// representative up to their phase, and the members that do not.
    /// Groups of one member are dropped, and so is the disagreeing side of
    /// node 0's class: the constant candidates the pattern refutes.
    ///
    /// Returns the number of nodes that moved or were dropped: every
    /// dropped node counts one (node 0 too, when its class empties), and
    /// so does every class a split leaves with at least two members.
    ///
    /// # Panics
    ///
    /// Panics if a classed node's id is out of range of `values`.
    pub fn refine(&mut self, values: &[bool]) -> usize {
        let mut moved = 0;
        // A split's new class is represented by a later node, so the
        // descending walk meets every class once.
        for leader in (0..self.members.len()).rev() {
            if self.members[leader].is_empty() {
                continue;
            }
            let mut agree = std::mem::take(&mut self.members[leader]);
            let mut differ = Vec::new();
            agree.retain(|&m| {
                let agrees = values[m] ^ self.phase(m) == values[leader];
                if !agrees {
                    differ.push(m);
                }
                agrees
            });
            if differ.is_empty() {
                self.members[leader] = agree;
                continue;
            }
            moved += self.settle(agree);
            // The constant candidates the pattern refutes are dropped, not
            // classed together: a refuted constant is never tried against
            // another one.
            moved += match leader {
                0 => self.drop_all(&differ),
                _ => self.settle(differ),
            };
        }
        moved
    }

    /// Removes a node from its class (after it has been merged away, or
    /// its query came back undetermined).  A class that shrinks below two
    /// members is dropped.
    pub fn remove(&mut self, node: NodeId) {
        let Some(repr) = self.repr(node) else {
            return;
        };
        let mut class = std::mem::take(&mut self.members[repr.node()]);
        class.retain(|&m| m != node);
        self.repr[node] = None;
        self.settle(class);
    }

    /// Enters `class`, ascending members whose phases the table still
    /// holds, as a class represented by its first member, or drops a
    /// lone member.  Returns what [`EquivClasses::refine`] counts: one
    /// for the class, or one for each dropped node.
    fn settle(&mut self, class: Vec<NodeId>) -> usize {
        if class.len() < 2 {
            return self.drop_all(&class);
        }
        let leader = class[0];
        let base = self.phase(leader);
        for &m in &class {
            self.repr[m] = Some(Lit::new(leader, self.phase(m) != base));
        }
        self.members[leader] = class;
        1
    }

    /// Takes `nodes` out of the table; returns how many there were.
    fn drop_all(&mut self, nodes: &[NodeId]) -> usize {
        for &m in nodes {
            self.repr[m] = None;
        }
        nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::Signature;

    fn sig(bits: &[u8]) -> Signature {
        Signature::from_bits(bits.iter().map(|&b| b == 1))
    }

    fn build(map: &[(NodeId, Signature)]) -> EquivClasses {
        EquivClasses::from_node_signatures(
            map.iter()
                .map(|(node, sig)| (*node, SigRef::new(sig.words(), sig.len()))),
        )
    }

    /// One pattern's per-node values, indexed by node id.
    fn values(assigned: &[(NodeId, bool)]) -> Vec<bool> {
        let mut values = vec![false; 16];
        for &(node, value) in assigned {
            values[node] = value;
        }
        values
    }

    #[test]
    fn groups_equal_and_complementary_signatures() {
        let classes = build(&[
            (3, sig(&[0, 1, 1, 0])),
            (5, sig(&[0, 1, 1, 0])),
            (7, sig(&[1, 0, 0, 1])), // complement of the others
            (9, sig(&[0, 0, 1, 0])), // different
        ]);
        assert_eq!(classes.members(3), &[3, 5, 7]);
        assert_eq!(classes.repr(7), Some(Lit::new(3, true)));
        assert_eq!(classes.repr(9), None);
        assert_eq!((classes.num_classes(), classes.num_candidates()), (1, 2));
        // Each driver, as a literal, equals node 7 on every pattern.
        let drivers: Vec<Lit> = classes.drivers(7).collect();
        assert_eq!(drivers, [Lit::new(3, true), Lit::new(5, true)]);
        assert_eq!(classes.drivers(3).count() + classes.drivers(9).count(), 0);
    }

    #[test]
    fn constant_candidates_join_the_constant_node() {
        let classes = build(&[(2, sig(&[0, 0])), (4, sig(&[1, 1])), (6, sig(&[0, 1]))]);
        assert_eq!(classes.members(0), &[0, 2, 4]);
        assert_eq!(classes.repr(2), Some(Lit::FALSE));
        assert_eq!(classes.repr(4), Some(Lit::TRUE));
        assert_eq!((classes.num_classes(), classes.num_candidates()), (1, 2));
        assert_eq!(classes.classed_nodes().collect::<Vec<_>>(), [2, 4]);
    }

    #[test]
    fn refine_splits_on_new_evidence() {
        let mut classes = build(&[(3, sig(&[0, 1])), (5, sig(&[0, 1])), (8, sig(&[0, 1]))]);
        // A counter-example distinguishes node 8 from 3 and 5.
        assert_eq!(
            classes.refine(&values(&[(8, true)])),
            2,
            "8 drops, {{3, 5}} stays"
        );
        assert_eq!((classes.members(3), classes.repr(8)), (&[3, 5][..], None));
        // Complement pairs stay together on consistent evidence.
        let mut pair = build(&[(3, sig(&[0, 1])), (5, sig(&[1, 0]))]);
        for value in [false, true] {
            assert_eq!(pair.refine(&values(&[(3, value), (5, !value)])), 0);
            assert_eq!(pair.members(3), &[3, 5]);
        }
    }

    #[test]
    fn refine_drops_refuted_constants() {
        let mut classes = build(&[(2, sig(&[0, 0])), (4, sig(&[0, 0])), (6, sig(&[1, 1]))]);
        assert_eq!(classes.refine(&values(&[(6, true)])), 0, "consistent");
        // Nodes 2 and 4 now share a signature, yet form no class.
        assert_eq!(
            classes.refine(&values(&[(2, true), (4, true), (6, true)])),
            3
        );
        assert_eq!((classes.members(0), classes.repr(2)), (&[0, 6][..], None));
        assert_eq!(classes.refine(&values(&[])), 2, "node 6 and node 0 leave");
        assert_eq!((classes.repr(0), classes.num_classes()), (None, 0));
    }

    #[test]
    fn remove_renormalises_and_collapses_classes() {
        // An ordinary member leaves; the representative keeps the class.
        let mut classes = build(&[(3, sig(&[0, 1])), (5, sig(&[0, 1])), (7, sig(&[1, 0]))]);
        classes.remove(5);
        assert_eq!(
            (classes.members(3), classes.repr(5), classes.repr(7)),
            (&[3, 7][..], None, Some(Lit::new(3, true)))
        );
        // The representative leaves; the next member takes the class over.
        let mut classes = build(&[(3, sig(&[0, 1])), (5, sig(&[1, 0])), (7, sig(&[1, 0]))]);
        classes.remove(3);
        assert_eq!(
            (classes.members(5), classes.repr(7)),
            (&[5, 7][..], Some(Lit::positive(5)))
        );
        // Only one member left: the class disappears.
        classes.remove(5);
        assert_eq!((classes.repr(7), classes.num_classes()), (None, 0));
    }

    #[test]
    fn parts_round_trip_and_from_parts_refuses_what_the_table_cannot_hold() {
        let parts = build(&[(2, sig(&[1, 1])), (3, sig(&[0, 1])), (5, sig(&[1, 0]))]).parts();
        assert_eq!(
            parts,
            [
                (vec![0, 2], vec![false, true]),
                (vec![3, 5], vec![false, true])
            ]
        );
        let restored = EquivClasses::from_parts(6, parts.clone()).expect("valid");
        assert_eq!(
            (restored.parts(), restored.repr(5)),
            (parts, Some(Lit::new(3, true)))
        );
        for bad in [
            vec![(vec![1, 3], vec![false; 2]), (vec![3, 4], vec![false; 2])],
            vec![(vec![2, 0], vec![false; 2])],
            vec![(vec![1, 6], vec![false; 2])],
        ] {
            assert!(EquivClasses::from_parts(6, bad.clone()).is_err(), "{bad:?}");
        }
    }
}
