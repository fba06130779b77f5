//! Incremental circuit front-end: SAT queries directly on AIG nodes.
//!
//! The SAT sweeper asks two kinds of questions about nodes of an AIG:
//! *is node `a` equivalent to node `b` (possibly complemented)?* and *is node
//! `a` a constant?*  [`CircuitSat`] answers both by lazily Tseitin-encoding
//! the transitive-fanin cones of the queried literals into one incremental
//! [`Solver`] (this mirrors the "circuit-based SAT solver \[with\] direct
//! access to the network" used in the paper), and translates satisfying
//! assignments back into counter-example patterns over the primary inputs.

use crate::cnf::{SatLit, Var};
use crate::codec::{DecodeError, Reader, Writer};
use crate::solver::{SolveResult, Solver, SolverStats};
use netlist::{Aig, AigNode, Lit, NodeId};
use std::borrow::Cow;

/// Outcome of an equivalence or constant-ness query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivOutcome {
    /// The property was proved (the miter is unsatisfiable).
    Equivalent,
    /// The property was disproved; the payload is a counter-example
    /// assignment over the primary inputs (in PI declaration order).
    CounterExample(Vec<bool>),
    /// The conflict budget was exhausted (`unDET` in the paper).
    Undetermined,
}

/// Incremental SAT interface over a fixed AIG, borrowed
/// ([`CircuitSat::new`]) or owned ([`CircuitSat::new_owned`]).
///
/// ```
/// use netlist::Aig;
/// use satsolver::{CircuitSat, EquivOutcome};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input("a");
/// let b = aig.add_input("b");
/// let f = aig.and(a, b);
/// let g = aig.and(b, a);
/// aig.add_output("f", f);
///
/// let mut sat = CircuitSat::new(&aig);
/// assert_eq!(sat.prove_equivalent(f, g, 1_000), EquivOutcome::Equivalent);
/// match sat.prove_equivalent(f, a, 1_000) {
///     EquivOutcome::CounterExample(ce) => assert_eq!(ce.len(), 2),
///     other => panic!("expected counter-example, got {other:?}"),
/// }
/// ```
#[derive(Debug)]
pub struct CircuitSat<'a> {
    aig: Cow<'a, Aig>,
    solver: Solver,
    /// SAT variable of each AIG node, allocated lazily.
    node_var: Vec<Option<Var>>,
    /// Whether the AND-gate clauses of a node have been added.
    encoded: Vec<bool>,
}

impl<'a> CircuitSat<'a> {
    /// Creates a front-end for the given AIG.
    pub fn new(aig: &'a Aig) -> Self {
        Self::over(Cow::Borrowed(aig))
    }

    /// Creates a front-end that owns its AIG, for a caller that builds the
    /// network only to query it.
    pub fn new_owned(aig: Aig) -> Self {
        Self::over(Cow::Owned(aig))
    }

    fn over(aig: Cow<'a, Aig>) -> Self {
        let num_nodes = aig.num_nodes();
        CircuitSat {
            aig,
            solver: Solver::new(),
            node_var: vec![None; num_nodes],
            encoded: vec![false; num_nodes],
        }
    }

    /// Statistics of the underlying CDCL solver.
    pub fn solver_stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Encodes the front-end's state between queries: the CDCL solver's
    /// clauses, watch lists, phases, reasons, activities, heap order,
    /// level-0 trail, activity increments and statistics, then the SAT
    /// variable and encoded flag of every AIG node.
    ///
    /// CDCL answers are history-dependent: learnt clauses, VSIDS activities,
    /// saved phases and watch-list order all steer the search.  Restoring
    /// the bytes with [`CircuitSat::from_snapshot`] against the *same* AIG
    /// yields a front-end whose future answers, counter-examples included,
    /// are identical to this one's — the building block of the sweeping
    /// engine's checkpoint/resume guarantee.  The bytes are an opaque,
    /// versionless encoding, decoded only by the build that wrote them.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::default();
        self.solver.encode(&mut w);
        w.usize(self.node_var.len());
        for var in &self.node_var {
            w.boolean(var.is_some());
            if let Some(var) = var {
                w.u32(var.index() as u32);
            }
        }
        for &encoded in &self.encoded {
            w.boolean(encoded);
        }
        w.into_bytes()
    }

    /// Rebuilds a front-end over `aig` from bytes written by
    /// [`CircuitSat::snapshot`] against the same network.
    ///
    /// The bytes are parsed and validated, so untrusted input yields a
    /// [`DecodeError`], never a panic: truncation, trailing bytes, a node
    /// count that differs from `aig`'s, references out of range, a node
    /// marked encoded without a variable, and solver state that breaks the
    /// two-watched-literal invariant or repeats a variable in a clause, the
    /// trail or the heap are all refused.  A semantically wrong clause, such
    /// as a crafted learnt unit, still decodes: only re-solving could tell.
    pub fn from_snapshot(aig: &'a Aig, bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::restore(Cow::Borrowed(aig), bytes)
    }

    /// [`CircuitSat::from_snapshot`] for a front-end that owns its AIG.
    pub fn from_snapshot_owned(aig: Aig, bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::restore(Cow::Owned(aig), bytes)
    }

    fn restore(aig: Cow<'a, Aig>, bytes: &[u8]) -> Result<Self, DecodeError> {
        let corrupt = DecodeError::Corrupt;
        let mut r = Reader::new(bytes);
        let solver = Solver::decode(&mut r)?;
        // A node takes at least two bytes: its variable flag and its
        // encoded flag.
        if r.vec_len(2)? != aig.num_nodes() {
            return Err(corrupt(
                "solver state was taken against a different network",
            ));
        }
        let node_var = r.seq(aig.num_nodes(), |r| {
            if !r.boolean()? {
                return Ok(None);
            }
            let var = r.u32()? as usize;
            if var >= solver.num_vars() {
                return Err(corrupt(
                    "solver state maps a node to an unallocated variable",
                ));
            }
            Ok(Some(Var::from_index(var)))
        })?;
        let encoded = r.seq(aig.num_nodes(), Reader::boolean)?;
        if !r.is_empty() {
            return Err(corrupt("trailing bytes after the solver state"));
        }
        // Encoding a node's clauses allocates its variable first; a node
        // marked encoded without one would panic on its next query.
        if encoded
            .iter()
            .zip(&node_var)
            .any(|(&e, var)| e && var.is_none())
        {
            return Err(corrupt(
                "solver state marks a node encoded that has no variable",
            ));
        }
        Ok(CircuitSat {
            aig,
            solver,
            node_var,
            encoded,
        })
    }

    /// The SAT literal corresponding to an AIG literal, encoding the node's
    /// transitive fanin on demand.
    pub fn lit_to_sat(&mut self, lit: Lit) -> SatLit {
        self.encode_cone(lit.node());
        let var = self.node_var[lit.node()].expect("cone encoding allocates the variable");
        SatLit::new(var, lit.is_complemented())
    }

    fn var_of(&mut self, node: NodeId) -> Var {
        if let Some(v) = self.node_var[node] {
            return v;
        }
        let v = self.solver.new_var();
        self.node_var[node] = Some(v);
        v
    }

    /// Adds the Tseitin clauses of `node`'s transitive fanin (iteratively, to
    /// avoid recursion depth limits on deep circuits).
    fn encode_cone(&mut self, node: NodeId) {
        let mut stack = vec![node];
        while let Some(current) = stack.pop() {
            if self.encoded[current] {
                continue;
            }
            self.encoded[current] = true;
            match self.aig.node(current) {
                AigNode::Const0 => {
                    let v = self.var_of(current);
                    self.solver.add_clause(&[SatLit::negative(v)]);
                }
                AigNode::Input { .. } => {
                    let _ = self.var_of(current);
                }
                AigNode::And { fanin0, fanin1 } => {
                    let (f0, f1) = (*fanin0, *fanin1);
                    let out = self.var_of(current);
                    let a_var = self.var_of(f0.node());
                    let b_var = self.var_of(f1.node());
                    let a = SatLit::new(a_var, f0.is_complemented());
                    let b = SatLit::new(b_var, f1.is_complemented());
                    let out = SatLit::positive(out);
                    self.solver.add_clause(&[!out, a]);
                    self.solver.add_clause(&[!out, b]);
                    self.solver.add_clause(&[out, !a, !b]);
                    stack.push(f0.node());
                    stack.push(f1.node());
                }
            }
        }
    }

    /// Extracts the primary-input assignment of the current model.  Inputs
    /// that were never encoded (outside the queried cones) or left
    /// unassigned default to `false`.
    fn extract_counterexample(&self) -> Vec<bool> {
        self.aig
            .inputs()
            .iter()
            .map(|&node| {
                self.node_var[node]
                    .and_then(|v| self.solver.model_value(v))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Checks whether two AIG literals are functionally equivalent,
    /// spending at most `conflict_budget` conflicts.
    ///
    /// The query encodes the miter `a ⊕ b` and asks for a satisfying
    /// assignment; UNSAT proves equivalence, SAT yields a counter-example
    /// over the primary inputs.
    pub fn prove_equivalent(&mut self, a: Lit, b: Lit, conflict_budget: u64) -> EquivOutcome {
        let sa = self.lit_to_sat(a);
        let sb = self.lit_to_sat(b);
        // Fresh selector variable d with d → (a ⊕ b); assuming d asks the
        // solver to find a distinguishing assignment.
        let d = self.solver.new_var();
        let d_pos = SatLit::positive(d);
        // d ∧ a → ¬b  and  d ∧ ¬a → b
        self.solver.add_clause(&[!d_pos, !sa, !sb]);
        self.solver.add_clause(&[!d_pos, sa, sb]);
        let result = self.solver.solve_limited(&[d_pos], conflict_budget);
        match result {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => EquivOutcome::CounterExample(self.extract_counterexample()),
            SolveResult::Unknown => EquivOutcome::Undetermined,
        }
    }

    /// Checks whether an AIG literal is the constant `value`.
    ///
    /// UNSAT (no assignment makes the literal differ from `value`) proves
    /// constant-ness; SAT yields a counter-example.
    pub fn prove_constant(&mut self, lit: Lit, value: bool, conflict_budget: u64) -> EquivOutcome {
        let sl = self.lit_to_sat(lit);
        let goal = if value { !sl } else { sl };
        let result = self.solver.solve_limited(&[goal], conflict_budget);
        match result {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => EquivOutcome::CounterExample(self.extract_counterexample()),
            SolveResult::Unknown => EquivOutcome::Undetermined,
        }
    }

    /// Finds an assignment satisfying all given AIG literals simultaneously
    /// (used by SAT-guided pattern generation).  Returns `None` if no such
    /// assignment exists or the budget ran out.
    pub fn find_assignment(
        &mut self,
        constraints: &[Lit],
        conflict_budget: u64,
    ) -> Option<Vec<bool>> {
        let assumptions: Vec<SatLit> = constraints.iter().map(|&l| self.lit_to_sat(l)).collect();
        let result = self.solver.solve_limited(&assumptions, conflict_budget);
        match result {
            SolveResult::Sat => Some(self.extract_counterexample()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn redundant_aig() -> (Aig, Lit, Lit, Lit) {
        // f = a & b built twice with different structure, plus g = a ^ b.
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f1 = aig.and(a, b);
        let f2_inner = aig.and(f1, b); // (a & b) & b == a & b
        let g = aig.xor(a, b);
        aig.add_output("f", f2_inner);
        aig.add_output("g", g);
        (aig, f1, f2_inner, g)
    }

    #[test]
    fn proves_true_equivalence() {
        let (aig, f1, f2, _) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        assert_eq!(
            sat.prove_equivalent(f1, f2, 10_000),
            EquivOutcome::Equivalent
        );
    }

    #[test]
    fn disproves_with_counterexample() {
        let (aig, f1, _, g) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        match sat.prove_equivalent(f1, g, 10_000) {
            EquivOutcome::CounterExample(ce) => {
                // The counter-example must actually distinguish the nodes.
                let f_val = eval_lit(&aig, f1, &ce);
                let g_val = eval_lit(&aig, g, &ce);
                assert_ne!(f_val, g_val);
            }
            other => panic!("expected a counter-example, got {other:?}"),
        }
    }

    /// The value of `lit` under an input assignment.
    fn eval_lit(aig: &Aig, lit: Lit, assignment: &[bool]) -> bool {
        let mut values = vec![false; aig.num_nodes()];
        for id in aig.node_ids() {
            values[id] = match aig.node(id) {
                netlist::AigNode::Const0 => false,
                netlist::AigNode::Input { position } => assignment[*position],
                netlist::AigNode::And { fanin0, fanin1 } => {
                    (values[fanin0.node()] ^ fanin0.is_complemented())
                        && (values[fanin1.node()] ^ fanin1.is_complemented())
                }
            };
        }
        values[lit.node()] ^ lit.is_complemented()
    }

    #[test]
    fn complemented_equivalence() {
        let (aig, f1, f2, _) = redundant_aig();
        let mut sat = CircuitSat::new(&aig);
        // f1 and !f2 differ everywhere: expect a counter-example.
        assert!(matches!(
            sat.prove_equivalent(f1, !f2, 10_000),
            EquivOutcome::CounterExample(_)
        ));
        // The complemented pair is equivalent.
        assert_eq!(
            sat.prove_equivalent(!f1, !f2, 10_000),
            EquivOutcome::Equivalent
        );
    }

    #[test]
    fn constant_detection() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        // h = (a & b) & (!a) is constant false but not folded structurally.
        let t = aig.and(a, b);
        let h = aig.and(t, !a);
        aig.add_output("h", h);
        let mut sat = CircuitSat::new(&aig);
        assert_eq!(
            sat.prove_constant(h, false, 10_000),
            EquivOutcome::Equivalent
        );
        match sat.prove_constant(t, false, 10_000) {
            EquivOutcome::CounterExample(ce) => {
                assert!(eval_lit(&aig, t, &ce));
            }
            other => panic!("expected counter-example, got {other:?}"),
        }
    }

    #[test]
    fn find_assignment_satisfies_constraints() {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let c = aig.add_input("c");
        let g1 = aig.xor(a, b);
        let g2 = aig.or(b, c);
        aig.add_output("g1", g1);
        aig.add_output("g2", g2);
        let mut sat = CircuitSat::new(&aig);
        let assignment = sat.find_assignment(&[g1, !g2], 10_000);
        // g1 = a^b = 1 and g2 = b|c = 0 forces b=0, c=0, a=1.
        assert_eq!(assignment, Some(vec![true, false, false]));
        // Contradictory constraints have no assignment.
        assert_eq!(sat.find_assignment(&[g1, !g1], 10_000), None);
    }

    #[test]
    fn circuit_snapshot_restore_answers_identically() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let mut gates = Vec::new();
        for i in 0..5 {
            gates.push(aig.and(xs[i], xs[i + 1]));
        }
        let sum = aig.or_many(&gates);
        aig.add_output("y", sum);

        let mut original = CircuitSat::new(&aig);
        // Build incremental history (encoded cones, selector clauses).
        for i in 0..3 {
            let _ = original.prove_equivalent(gates[i], gates[(i + 1) % 3], 10_000);
        }
        let snap = original.snapshot();
        let mut restored = CircuitSat::from_snapshot(&aig, &snap).expect("valid snapshot");
        assert_eq!(restored.snapshot(), snap);
        // A front-end that owns its copy of the network restores the same.
        let mut owned =
            CircuitSat::from_snapshot_owned(aig.clone(), &snap).expect("valid snapshot");

        // Identical future queries — outcomes, counter-example models and
        // final states all agree.
        for i in 0..5 {
            for j in 0..5 {
                let a = original.prove_equivalent(gates[i], gates[j], 10_000);
                let b = restored.prove_equivalent(gates[i], gates[j], 10_000);
                assert_eq!(a, b, "query ({i}, {j})");
                assert_eq!(owned.prove_equivalent(gates[i], gates[j], 10_000), a);
            }
        }
        assert_eq!(original.snapshot(), restored.snapshot());
        assert_eq!(original.snapshot(), owned.snapshot());
        assert_eq!(original.solver_stats(), restored.solver_stats());

        // A node marked encoded without a variable would panic on its next
        // query, so restore refuses such a snapshot.
        let mut unencodable = CircuitSat::from_snapshot(&aig, &snap).expect("valid snapshot");
        let node = unencodable
            .encoded
            .iter()
            .position(|&e| e)
            .expect("cones encoded");
        unencodable.node_var[node] = None;
        assert!(CircuitSat::from_snapshot(&aig, &unencodable.snapshot()).is_err());

        // An appended byte is refused.
        let mut trailing = snap.clone();
        trailing.push(0);
        assert_eq!(
            CircuitSat::from_snapshot(&aig, &trailing).err(),
            Some(DecodeError::Corrupt(
                "trailing bytes after the solver state"
            ))
        );

        // A snapshot taken against one network is rejected by another.
        let mut other = Aig::new();
        let a = other.add_input("a");
        let b = other.add_input("b");
        let g = other.and(a, b);
        other.add_output("g", g);
        assert!(CircuitSat::from_snapshot(&other, &snap).is_err());
    }

    #[test]
    fn many_incremental_queries_reuse_the_solver() {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let mut gates = Vec::new();
        for i in 0..5 {
            gates.push(aig.and(xs[i], xs[i + 1]));
        }
        let sum = aig.or_many(&gates);
        aig.add_output("y", sum);
        let mut sat = CircuitSat::new(&aig);
        for i in 0..5 {
            for j in 0..5 {
                let outcome = sat.prove_equivalent(gates[i], gates[j], 10_000);
                if i == j {
                    assert_eq!(outcome, EquivOutcome::Equivalent);
                } else {
                    assert!(matches!(outcome, EquivOutcome::CounterExample(_)));
                }
            }
        }
        assert_eq!(sat.solver_stats().solve_calls, 25);
    }
}
