//! The candidate equivalence-class manager (Fig. 2 of the paper).
//!
//! Nodes with identical simulation signatures — up to complementation — form
//! candidate equivalence classes.  The manager builds the classes from a set
//! of signatures, refines them when new patterns (counter-examples) arrive,
//! tracks constant candidates, and hands out the candidate pairs the SAT
//! solver has to decide.

use bitsim::SigRef;
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
    /// Builds a class from `(member, phase)` pairs whose phases share an
    /// arbitrary reference: members are sorted and phases re-expressed
    /// relative to the new representative.
    fn from_members(mut members: Vec<(NodeId, bool)>) -> Self {
        members.sort_unstable();
        let repr_phase = members[0].1;
        EquivClass {
            phases: members.iter().map(|&(_, p)| p != repr_phase).collect(),
            members: members.into_iter().map(|(n, _)| n).collect(),
        }
    }

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
    /// Builds candidate classes from node signatures, borrowed as arena
    /// views.
    ///
    /// Only the given nodes are classified (the session passes the AND
    /// nodes).  Nodes whose signature is all-zero or all-one become
    /// [`ConstantCandidate`]s instead of class members; the others group by
    /// signature up to complementation.  Bucketing uses a
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
            classes.extend(
                groups
                    .into_iter()
                    .filter(|members| members.len() >= 2)
                    .map(EquivClass::from_members),
            );
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

    /// Refines the candidates by one simulated pattern (a counter-example):
    /// `values` holds the pattern's value of every class member and
    /// constant candidate, indexed by [`NodeId`] (the shape
    /// [`crate::resim::eval_pattern_targets`] returns).
    ///
    /// Each class splits in two: the members that agree with the
    /// representative up to their phase, and the members that do not.
    /// Groups of one member are dropped, and so are the constant candidates
    /// the pattern contradicts.
    ///
    /// Returns the number of nodes that moved or were dropped: every
    /// dropped node counts one, and so does every class a split leaves
    /// with at least two members.
    ///
    /// # Panics
    ///
    /// Panics if a candidate's id is out of range of `values`.
    pub fn refine(&mut self, values: &[bool]) -> usize {
        let before = self.constants.len();
        self.constants.retain(|c| values[c.node] == c.value);
        let mut moved = before - self.constants.len();

        let mut refined = Vec::with_capacity(self.classes.len());
        for class in std::mem::take(&mut self.classes) {
            let repr_value = values[class.representative()];
            let (agree, differ): (Vec<_>, Vec<_>) = class
                .members
                .iter()
                .copied()
                .zip(class.phases.iter().copied())
                .partition(|&(member, phase)| (values[member] ^ phase) == repr_value);
            if differ.is_empty() {
                refined.push(class);
                continue;
            }
            for group in [agree, differ] {
                if group.len() < 2 {
                    moved += group.len();
                } else {
                    moved += 1;
                    refined.push(EquivClass::from_members(group));
                }
            }
        }
        refined.sort_by_key(|c| c.representative());
        self.classes = refined;
        moved
    }

    /// Removes a node from its class or from the constant candidates
    /// (after it has been merged away, or its query came back
    /// undetermined).  Classes that shrink below two members are dropped.
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
        let moved = classes.refine(&values(&[(3, false), (5, false), (8, true)]));
        assert_eq!(moved, 2, "node 8 is dropped and {{3, 5}} is a new class");
        assert_eq!(classes.classes().len(), 1);
        assert_eq!(classes.classes()[0].members(), &[3, 5]);
    }

    #[test]
    fn refine_keeps_complement_pairs_together() {
        let mut classes = build(&[(3, sig(&[0, 1])), (5, sig(&[1, 0]))]);
        assert_eq!(classes.classes().len(), 1);
        // New evidence consistent with complementation must not split them.
        for value in [false, true] {
            let moved = classes.refine(&values(&[(3, value), (5, !value)]));
            assert_eq!(classes.classes().len(), 1);
            assert_eq!(moved, 0);
        }
    }

    #[test]
    fn refine_drops_disproved_constants() {
        let mut classes = build(&[(2, sig(&[0, 0, 0]))]);
        assert_eq!(classes.constants().len(), 1);
        assert_eq!(classes.refine(&values(&[(2, false)])), 0);
        assert_eq!(
            classes.constants().len(),
            1,
            "a consistent pattern keeps it"
        );
        assert_eq!(classes.refine(&values(&[(2, true)])), 1);
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
