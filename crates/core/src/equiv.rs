//! The candidate equivalence-class manager (Fig. 2 of the paper).
//!
//! Nodes with identical simulation signatures — up to complementation — form
//! candidate equivalence classes.  The manager builds the classes from a set
//! of signatures, refines them when new patterns (counter-examples) arrive,
//! tracks constant candidates, and hands out the candidate pairs the SAT
//! solver has to decide.

use bitsim::{SigRef, Signature};
use netlist::NodeId;
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

/// A candidate constant node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstantCandidate {
    /// The node whose signature is constant.
    pub node: NodeId,
    /// The constant value suggested by simulation.
    pub value: bool,
}

/// One candidate equivalence class.
///
/// The representative is the member with the smallest node id (the earliest
/// node in topological order); every other member is a merge candidate onto
/// the representative.  `phase[i]` records whether member `i`'s signature is
/// the complement of the representative's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivClass {
    members: Vec<NodeId>,
    phases: Vec<bool>,
}

impl EquivClass {
    /// The representative (earliest member).
    pub fn representative(&self) -> NodeId {
        self.members[0]
    }

    /// All members, representative first, ascending node id.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `member` is complemented relative to the representative.
    ///
    /// # Panics
    ///
    /// Panics if `member` is not in the class.
    pub fn phase_of(&self, member: NodeId) -> bool {
        let idx = self
            .members
            .iter()
            .position(|&m| m == member)
            .expect("member belongs to the class");
        self.phases[idx]
    }

    /// Per-member complement phases, aligned with [`EquivClass::members`]
    /// (the representative's phase is always `false`).
    pub fn phases(&self) -> &[bool] {
        &self.phases
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the class has at most one member (nothing to merge).
    pub fn is_empty(&self) -> bool {
        self.members.len() <= 1
    }
}

/// The equivalence-class manager.
#[derive(Debug, Clone, Default)]
pub struct EquivClasses {
    classes: Vec<EquivClass>,
    constants: Vec<ConstantCandidate>,
}

impl EquivClasses {
    /// Builds candidate classes from node signatures.
    ///
    /// `signatures` maps node ids to their simulation signature; only the
    /// provided nodes are classified (the caller passes the AND nodes).
    /// Nodes whose signature is all-zero or all-one become
    /// [`ConstantCandidate`]s instead of class members.
    pub fn from_signatures(signatures: &HashMap<NodeId, Signature>) -> Self {
        let mut constants = Vec::new();
        let mut buckets: HashMap<Signature, Vec<(NodeId, bool)>> = HashMap::new();
        for (&node, sig) in signatures {
            if sig.is_const0() {
                constants.push(ConstantCandidate { node, value: false });
                continue;
            }
            if sig.is_const1() {
                constants.push(ConstantCandidate { node, value: true });
                continue;
            }
            let key = sig.canonical_key();
            let phase = sig.get_bit(0);
            buckets.entry(key).or_default().push((node, phase));
        }
        let mut classes = Vec::new();
        for (_, mut members) in buckets {
            if members.len() < 2 {
                continue;
            }
            members.sort_unstable();
            // Normalise phases relative to the representative.
            let repr_phase = members[0].1;
            let phases = members.iter().map(|&(_, p)| p != repr_phase).collect();
            classes.push(EquivClass {
                members: members.into_iter().map(|(n, _)| n).collect(),
                phases,
            });
        }
        classes.sort_by_key(|c| c.representative());
        constants.sort_by_key(|c| c.node);
        EquivClasses { classes, constants }
    }

    /// Builds candidate classes straight from borrowed arena views — the
    /// zero-clone priming path.
    ///
    /// Semantically identical to [`EquivClasses::from_signatures`] (the
    /// produced classes and constants are equal for equal inputs), but the
    /// signatures are consumed as [`SigRef`] views: bucketing uses a
    /// complement-normalised FNV fingerprint and an exact canonical
    /// comparison within each bucket, so no per-node `Signature` clone is
    /// ever materialised.
    pub fn from_node_signatures<'a, I>(signatures: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, SigRef<'a>)>,
    {
        let mut constants = Vec::new();
        let mut buckets: HashMap<u64, Vec<(NodeId, SigRef<'a>, bool)>> = HashMap::new();
        for (node, sig) in signatures {
            if sig.is_const0() {
                constants.push(ConstantCandidate { node, value: false });
                continue;
            }
            if sig.is_const1() {
                constants.push(ConstantCandidate { node, value: true });
                continue;
            }
            let phase = !sig.is_empty() && sig.get_bit(0);
            buckets
                .entry(canonical_fingerprint(sig, phase))
                .or_default()
                .push((node, sig, phase));
        }
        let mut classes = Vec::new();
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
            for mut members in groups {
                if members.len() < 2 {
                    continue;
                }
                members.sort_unstable();
                let repr_phase = members[0].1;
                let phases = members.iter().map(|&(_, p)| p != repr_phase).collect();
                classes.push(EquivClass {
                    members: members.into_iter().map(|(n, _)| n).collect(),
                    phases,
                });
            }
        }
        classes.sort_by_key(|c| c.representative());
        constants.sort_by_key(|c| c.node);
        EquivClasses { classes, constants }
    }

    /// The candidate classes (each with at least two members).
    pub fn classes(&self) -> &[EquivClass] {
        &self.classes
    }

    /// Rebuilds a manager from raw class parts (member/phase vectors) and
    /// constant candidates, validating the invariants the engine relies on.
    /// Used to restore a checkpointed session; corrupt data is rejected with
    /// an error message instead of producing a manager that misbehaves.
    pub fn from_parts(
        parts: Vec<(Vec<NodeId>, Vec<bool>)>,
        constants: Vec<ConstantCandidate>,
    ) -> Result<Self, &'static str> {
        let mut classes = Vec::with_capacity(parts.len());
        for (members, phases) in parts {
            if members.len() < 2 {
                return Err("equivalence class with fewer than two members");
            }
            if members.len() != phases.len() {
                return Err("equivalence class phases disagree with members");
            }
            if members.windows(2).any(|w| w[0] >= w[1]) {
                return Err("equivalence class members are not sorted and unique");
            }
            if phases[0] {
                return Err("equivalence class representative has a nonzero phase");
            }
            classes.push(EquivClass { members, phases });
        }
        if constants.windows(2).any(|w| w[0].node >= w[1].node) {
            return Err("constant candidates are not sorted and unique");
        }
        Ok(EquivClasses { classes, constants })
    }

    /// The candidate constant nodes.
    pub fn constants(&self) -> &[ConstantCandidate] {
        &self.constants
    }

    /// Total number of merge candidates (class members beyond the
    /// representative, plus constant candidates).
    pub fn num_candidates(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum::<usize>() + self.constants.len()
    }

    /// Finds the class containing `node`, if any.
    pub fn class_of(&self, node: NodeId) -> Option<&EquivClass> {
        self.classes.iter().find(|c| c.members.contains(&node))
    }

    /// Refines every class using additional signature information (e.g.
    /// after simulating a counter-example): members whose new signatures
    /// disagree (up to the class phase) with their representative are split
    /// into new classes.  Constant candidates whose new signature is no
    /// longer constant are dropped.
    ///
    /// `signatures` only needs to contain nodes that were actually
    /// re-simulated; members without an entry keep their current class.
    ///
    /// Returns the number of nodes that moved or were dropped.
    pub fn refine(&mut self, signatures: &HashMap<NodeId, Signature>) -> usize {
        let mut moved = 0usize;

        // Drop disproved constant candidates.
        let before = self.constants.len();
        self.constants.retain(|c| match signatures.get(&c.node) {
            Some(sig) => {
                if c.value {
                    sig.is_const1()
                } else {
                    sig.is_const0()
                }
            }
            None => true,
        });
        moved += before - self.constants.len();

        let mut new_classes = Vec::new();
        for class in &self.classes {
            // Bucket members by their new signature relative to phase; members
            // without new data keep the representative's bucket key `None`.
            let mut buckets: HashMap<Option<Signature>, Vec<(NodeId, bool)>> = HashMap::new();
            for (idx, &member) in class.members.iter().enumerate() {
                let phase = class.phases[idx];
                let key = signatures.get(&member).map(|sig| {
                    // Normalise by phase so that complement-equivalent members
                    // stay together.
                    if phase {
                        sig.complement()
                    } else {
                        sig.clone()
                    }
                });
                buckets.entry(key).or_default().push((member, phase));
            }
            if buckets.len() == 1 {
                new_classes.push(class.clone());
                continue;
            }
            // The bucket containing the representative keeps the `None`
            // members (unsimulated nodes default to staying with their
            // representative only if the representative itself was not
            // re-simulated; otherwise they join the representative's bucket).
            let repr_key = signatures.get(&class.representative()).map(|sig| {
                if class.phase_of(class.representative()) {
                    sig.complement()
                } else {
                    sig.clone()
                }
            });
            let mut merged: HashMap<Option<Signature>, Vec<(NodeId, bool)>> = HashMap::new();
            for (key, members) in buckets {
                let target = if key.is_none() { repr_key.clone() } else { key };
                merged.entry(target).or_default().extend(members);
            }
            for (_, mut members) in merged {
                if members.len() < 2 {
                    moved += members.len();
                    continue;
                }
                members.sort_unstable();
                let repr_phase = members[0].1;
                let phases: Vec<bool> = members.iter().map(|&(_, p)| p != repr_phase).collect();
                let class_members: Vec<NodeId> = members.into_iter().map(|(n, _)| n).collect();
                if class_members != class.members {
                    moved += 1;
                }
                new_classes.push(EquivClass {
                    members: class_members,
                    phases,
                });
            }
        }
        new_classes.sort_by_key(|c| c.representative());
        self.classes = new_classes;
        moved
    }

    /// Removes a node from its class (e.g. after it has been merged away or
    /// marked don't-touch).  Classes that shrink below two members are
    /// dropped.
    pub fn remove(&mut self, node: NodeId) {
        for class in &mut self.classes {
            if let Some(idx) = class.members.iter().position(|&m| m == node) {
                class.members.remove(idx);
                class.phases.remove(idx);
                if idx == 0 && !class.members.is_empty() {
                    // Re-normalise phases relative to the new representative.
                    let base = class.phases[0];
                    for p in &mut class.phases {
                        *p = *p != base;
                    }
                }
            }
        }
        self.classes.retain(|c| c.members.len() >= 2);
        self.constants.retain(|c| c.node != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(bits: &[u8]) -> Signature {
        Signature::from_bits(bits.iter().map(|&b| b == 1))
    }

    fn build(map: &[(NodeId, Signature)]) -> EquivClasses {
        EquivClasses::from_signatures(&map.iter().cloned().collect())
    }

    #[test]
    fn from_node_signatures_matches_from_signatures() {
        use bitsim::{AigSimulator, PatternSet};
        use netlist::Aig;

        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 4);
        let a = aig.and(xs[0], xs[1]);
        let b = aig.and(xs[1], xs[0]); // structurally equal to `a`
        let c = aig.xor(xs[2], xs[3]);
        let d = !aig.xor(xs[3], xs[2]); // complement of `c`
        let e = aig.and(a, !a); // constant 0
        let f = aig.or(c, !c); // constant 1
        let o = aig.or(b, d);
        let k = aig.and(e, f);
        aig.add_output("o", o);
        aig.add_output("k", k);
        let patterns = PatternSet::exhaustive(4);
        let state = AigSimulator::new(&aig).run(&patterns);

        let cloned: std::collections::HashMap<NodeId, Signature> = aig
            .and_ids()
            .map(|id| (id, state.signature(id).to_signature()))
            .collect();
        let expected = EquivClasses::from_signatures(&cloned);
        let got =
            EquivClasses::from_node_signatures(aig.and_ids().map(|id| (id, state.signature(id))));

        assert_eq!(got.constants(), expected.constants());
        assert_eq!(got.classes().len(), expected.classes().len());
        for (g, e) in got.classes().iter().zip(expected.classes()) {
            assert_eq!(g.members(), e.members());
            for &m in g.members() {
                assert_eq!(g.phase_of(m), e.phase_of(m));
            }
        }
    }

    #[test]
    fn groups_equal_and_complementary_signatures() {
        let classes = build(&[
            (3, sig(&[0, 1, 1, 0])),
            (5, sig(&[0, 1, 1, 0])),
            (7, sig(&[1, 0, 0, 1])), // complement of the others
            (9, sig(&[0, 0, 1, 0])), // different
        ]);
        assert_eq!(classes.classes().len(), 1);
        let class = &classes.classes()[0];
        assert_eq!(class.representative(), 3);
        assert_eq!(class.members(), &[3, 5, 7]);
        assert!(!class.phase_of(5));
        assert!(class.phase_of(7));
        assert_eq!(classes.num_candidates(), 2);
        assert!(classes.class_of(9).is_none());
    }

    #[test]
    fn constant_candidates_are_split_out() {
        let classes = build(&[
            (2, sig(&[0, 0, 0, 0])),
            (4, sig(&[1, 1, 1, 1])),
            (6, sig(&[0, 1, 0, 1])),
        ]);
        assert_eq!(classes.classes().len(), 0);
        assert_eq!(
            classes.constants(),
            &[
                ConstantCandidate {
                    node: 2,
                    value: false
                },
                ConstantCandidate {
                    node: 4,
                    value: true
                }
            ]
        );
        assert_eq!(classes.num_candidates(), 2);
    }

    #[test]
    fn refine_splits_on_new_evidence() {
        let mut classes = build(&[
            (3, sig(&[0, 1, 1, 0])),
            (5, sig(&[0, 1, 1, 0])),
            (8, sig(&[0, 1, 1, 0])),
        ]);
        assert_eq!(classes.classes()[0].len(), 3);
        // A counter-example distinguishes node 8 from 3 and 5.
        let new: HashMap<NodeId, Signature> = [(3, sig(&[0])), (5, sig(&[0])), (8, sig(&[1]))]
            .into_iter()
            .collect();
        let moved = classes.refine(&new);
        assert!(moved > 0);
        assert_eq!(classes.classes().len(), 1);
        assert_eq!(classes.classes()[0].members(), &[3, 5]);
    }

    #[test]
    fn refine_keeps_complement_pairs_together() {
        let mut classes = build(&[(3, sig(&[0, 1])), (5, sig(&[1, 0]))]);
        assert_eq!(classes.classes().len(), 1);
        // New evidence consistent with complementation must not split them.
        let new: HashMap<NodeId, Signature> = [(3, sig(&[1, 1, 0])), (5, sig(&[0, 0, 1]))]
            .into_iter()
            .collect();
        let moved = classes.refine(&new);
        assert_eq!(classes.classes().len(), 1);
        assert_eq!(moved, 0);
    }

    #[test]
    fn refine_drops_disproved_constants() {
        let mut classes = build(&[(2, sig(&[0, 0, 0]))]);
        assert_eq!(classes.constants().len(), 1);
        let new: HashMap<NodeId, Signature> = [(2, sig(&[0, 1, 0]))].into_iter().collect();
        classes.refine(&new);
        assert!(classes.constants().is_empty());
    }

    #[test]
    fn remove_member_and_collapse_class() {
        let mut classes = build(&[
            (3, sig(&[0, 1, 1, 0])),
            (5, sig(&[0, 1, 1, 0])),
            (7, sig(&[1, 0, 0, 1])),
        ]);
        classes.remove(5);
        assert_eq!(classes.classes()[0].members(), &[3, 7]);
        classes.remove(3);
        // Only one member left: the class disappears.
        assert!(classes.classes().is_empty());
    }

    #[test]
    fn remove_representative_renormalises_phase() {
        let mut classes = build(&[
            (3, sig(&[0, 1, 1, 0])),
            (5, sig(&[1, 0, 0, 1])),
            (7, sig(&[1, 0, 0, 1])),
        ]);
        classes.remove(3);
        let class = &classes.classes()[0];
        assert_eq!(class.representative(), 5);
        assert!(!class.phase_of(5));
        assert!(!class.phase_of(7));
    }
}
