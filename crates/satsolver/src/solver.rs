//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat architecture: two-literal
//! watching, first-UIP conflict analysis, VSIDS branching with an indexed
//! heap, phase saving, Luby restarts and learnt-clause database reduction.
//! Queries can be budgeted with a conflict limit, in which case the solver
//! answers [`SolveResult::Unknown`] — the `unDET` outcome the SAT-sweeping
//! algorithm reacts to by marking a candidate as *don't touch*.

pub use crate::cnf::SatLit;
use crate::cnf::Var;
use crate::codec::{DecodeError, Reader, Writer};
use crate::heap::VarOrder;

/// Outcome of a SAT query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found (retrieve it with
    /// [`Solver::model_value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was found.
    Unknown,
}

/// Multiplicative decay applied to variable activities at each conflict.
const VAR_DECAY: f64 = 0.95;
/// Multiplicative decay applied to clause activities at each conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// Base interval (in conflicts) of the Luby restart sequence.
const RESTART_BASE: u64 = 100;
/// Initial learnt-clause limit before database reduction triggers.
const LEARNT_LIMIT_BASE: usize = 4000;

/// Aggregate statistics of a solver instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions taken.
    pub decisions: u64,
    /// Number of unit propagations performed.
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of learnt clauses currently in the database.
    pub learnt_clauses: u64,
    /// Number of top-level `solve` calls.
    pub solve_calls: u64,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<SatLit>,
    learnt: bool,
    activity: f64,
    deleted: bool,
}

/// A CDCL SAT solver.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// watches[lit.code()] lists clause indices currently watching `lit`.
    watches: Vec<Vec<usize>>,
    assigns: Vec<Option<bool>>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    activity: Vec<f64>,
    order: VarOrder,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    var_inc: f64,
    cla_inc: f64,
    ok: bool,
    model: Vec<Option<bool>>,
    stats: SolverStats,
    num_learnts: usize,
    seen: Vec<bool>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Default::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(None);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.insert(v.index(), &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnt_clauses = self.num_learnts as u64;
        s
    }

    /// Adds a clause.  Returns `false` if the solver is already in an
    /// unsatisfiable state (an empty clause was derived at the top level).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable that was not allocated with
    /// [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        assert!(
            lits.iter().all(|l| l.var().index() < self.num_vars()),
            "clause references an unallocated variable"
        );
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0, "clauses are added at level 0");
        // Normalise: sort, dedupe, drop false literals, detect tautologies
        // and satisfied clauses.
        let mut norm: Vec<SatLit> = lits.to_vec();
        norm.sort();
        norm.dedup();
        let mut filtered = Vec::with_capacity(norm.len());
        for &lit in &norm {
            if norm.contains(&!lit) {
                return true; // tautology
            }
            match self.value(lit) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop falsified literal
                None => filtered.push(lit),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(filtered[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(filtered, false);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<SatLit>, learnt: bool) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        if learnt {
            self.num_learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            deleted: false,
        });
        idx
    }

    /// Solves the formula without assumptions and without a conflict budget.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_limited(&[], u64::MAX)
    }

    /// Solves under assumptions without a conflict budget.
    pub fn solve_with_assumptions(&mut self, assumptions: &[SatLit]) -> SolveResult {
        self.solve_limited(assumptions, u64::MAX)
    }

    /// Solves under assumptions with a conflict budget; returns
    /// [`SolveResult::Unknown`] when the budget is exhausted.
    pub fn solve_limited(&mut self, assumptions: &[SatLit], conflict_budget: u64) -> SolveResult {
        self.stats.solve_calls += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let result = self.search(assumptions, conflict_budget);
        self.cancel_until(0);
        result
    }

    /// The value of `var` in the most recent satisfying assignment, or
    /// `None` if the variable was irrelevant (any value satisfies).
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model.get(var.index()).copied().flatten()
    }

    /// Writes the solver's state between queries: the clauses (literals in
    /// stored order, learnt flag, activity and deleted flag), the watch
    /// lists in order, the saved phases, reasons and activities of the
    /// variables, the VSIDS heap array, the level-0 trail with its
    /// propagation head, the two activity increments and the statistics.
    ///
    /// Everything else is derived by [`Solver::decode`].  Between queries
    /// the assignment is exactly the level-0 trail, and every assigned
    /// variable sits at level 0.  The model is stale until the next
    /// satisfiable answer.  The heap positions follow from the heap array,
    /// and the learnt-clause count from the clauses.  `ok` holds, because
    /// the one caller, [`crate::CircuitSat`], only adds satisfiable clauses.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (the solver is between queries — and
    /// therefore at decision level 0 — whenever it is externally reachable).
    pub(crate) fn encode(&self, w: &mut Writer) {
        assert!(
            self.trail_lim.is_empty(),
            "solver state is encoded between queries, at decision level 0"
        );
        debug_assert!(self.seen.iter().all(|&s| !s), "analysis flags are clear");
        w.vec(&self.clauses, |w, clause| {
            w.vec(&clause.lits, |w, lit| w.u32(lit.code() as u32));
            w.boolean(clause.learnt);
            w.f64(clause.activity);
            w.boolean(clause.deleted);
        });
        w.vec(&self.watches, |w, list| w.vec(list, |w, &ci| w.usize(ci)));
        w.usize(self.num_vars());
        for &phase in &self.phase {
            w.boolean(phase);
        }
        for &reason in &self.reason {
            w.boolean(reason.is_some());
            if let Some(ci) = reason {
                w.usize(ci);
            }
        }
        for &activity in &self.activity {
            w.f64(activity);
        }
        w.vec(self.order.heap(), |w, &var| w.usize(var));
        w.vec(&self.trail, |w, lit| w.u32(lit.code() as u32));
        w.usize(self.qhead);
        w.f64(self.var_inc);
        w.f64(self.cla_inc);
        let s = &self.stats;
        for count in [
            s.decisions,
            s.propagations,
            s.conflicts,
            s.restarts,
            s.solve_calls,
        ] {
            w.u64(count);
        }
    }

    /// Reads a state written by [`Solver::encode`] and checks that it can
    /// drive the search without a panic: every clause has at least two
    /// literals over allocated variables and repeats no variable, every
    /// reference is in range, the watch lists keep the two-watched-literal
    /// invariant, and neither the trail nor the heap repeats a variable.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let corrupt = DecodeError::Corrupt;
        let lit = |r: &mut Reader<'_>| r.u32().map(SatLit::from_code);
        // A clause takes at least 26 bytes: its length, two literals, two
        // flags and its activity.
        let clauses = r.vec(26, |r| {
            Ok(Clause {
                lits: r.vec(4, lit)?,
                learnt: r.boolean()?,
                activity: r.f64()?,
                deleted: r.boolean()?,
            })
        })?;
        let watches = r.vec(8, |r| r.vec(8, Reader::usize))?;
        // A variable takes at least ten bytes: its phase, its reason flag
        // and its activity.
        let num_vars = r.vec_len(10)?;
        let phase = r.seq(num_vars, Reader::boolean)?;
        let reason = r.seq(num_vars, |r| {
            Ok(if r.boolean()? { Some(r.usize()?) } else { None })
        })?;
        let activity = r.seq(num_vars, Reader::f64)?;
        let heap = r.vec(8, Reader::usize)?;
        let trail = r.vec(4, lit)?;
        let qhead = r.usize()?;
        let var_inc = r.f64()?;
        let cla_inc = r.f64()?;
        let stats = SolverStats {
            decisions: r.u64()?,
            propagations: r.u64()?,
            conflicts: r.u64()?,
            restarts: r.u64()?,
            learnt_clauses: 0,
            solve_calls: r.u64()?,
        };

        if watches.len() != 2 * num_vars {
            return Err(corrupt(
                "solver watch lists do not match the variable count",
            ));
        }
        // Units are enqueued, never attached, so every clause has two
        // watched literals; a shorter clause would panic inside `propagate`.
        let mut last_clause_of = vec![usize::MAX; num_vars];
        for (ci, clause) in clauses.iter().enumerate() {
            if clause.lits.len() < 2 {
                return Err(corrupt("solver clause has fewer than two literals"));
            }
            for lit in &clause.lits {
                let last = last_clause_of
                    .get_mut(lit.var().index())
                    .ok_or(corrupt("solver clause references an unallocated variable"))?;
                if *last == ci {
                    return Err(corrupt("solver clause repeats a variable"));
                }
                *last = ci;
            }
        }
        if reason.iter().flatten().any(|&ci| ci >= clauses.len()) {
            return Err(corrupt("solver reason references an out-of-range clause"));
        }
        // The two-watched-literal invariant: a watch entry's clause holds
        // the literal at position 0 or 1, and a live clause sits exactly
        // once in each of its two lists.  Deleted clauses linger in the
        // lists until propagation visits them.
        let mut watched = vec![0u8; clauses.len()];
        for (code, list) in watches.iter().enumerate() {
            for &ci in list {
                let clause = clauses.get(ci).ok_or(corrupt(
                    "solver watch list references an out-of-range clause",
                ))?;
                let bit = if clause.lits[0].code() == code {
                    0b01
                } else if clause.lits[1].code() == code {
                    0b10
                } else {
                    return Err(corrupt(
                        "solver watch entry's clause does not watch its literal",
                    ));
                };
                if !clause.deleted {
                    if watched[ci] & bit != 0 {
                        return Err(corrupt("solver clause is listed twice in a watch list"));
                    }
                    watched[ci] |= bit;
                }
            }
        }
        if clauses
            .iter()
            .zip(&watched)
            .any(|(c, &w)| !c.deleted && w != 0b11)
        {
            return Err(corrupt("live solver clause is missing from a watch list"));
        }
        let mut assigns = vec![None; num_vars];
        for lit in &trail {
            let value = assigns
                .get_mut(lit.var().index())
                .ok_or(corrupt("solver trail references an unallocated variable"))?;
            if value.is_some() {
                return Err(corrupt("solver trail repeats a variable"));
            }
            *value = Some(!lit.is_negative());
        }
        if qhead > trail.len() {
            return Err(corrupt("solver propagation head is past the trail"));
        }
        let order = VarOrder::from_heap(heap, num_vars).ok_or(corrupt("solver heap is corrupt"))?;
        let num_learnts = clauses.iter().filter(|c| c.learnt && !c.deleted).count();
        Ok(Solver {
            clauses,
            watches,
            assigns,
            phase,
            level: vec![0; num_vars],
            reason,
            activity,
            order,
            trail,
            trail_lim: Vec::new(),
            qhead,
            var_inc,
            cla_inc,
            ok: true,
            model: Vec::new(),
            stats,
            num_learnts,
            seen: vec![false; num_vars],
        })
    }

    // ------------------------------------------------------------------
    // Internal machinery.
    // ------------------------------------------------------------------

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value(&self, lit: SatLit) -> Option<bool> {
        self.assigns[lit.var().index()].map(|v| v != lit.is_negative())
    }

    fn enqueue(&mut self, lit: SatLit, reason: Option<usize>) {
        debug_assert!(self.value(lit).is_none());
        let var = lit.var().index();
        self.assigns[var] = Some(!lit.is_negative());
        self.level[var] = self.decision_level() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level];
        while self.trail.len() > target {
            let lit = self.trail.pop().expect("trail is non-empty");
            let var = lit.var().index();
            self.phase[var] = !lit.is_negative();
            self.assigns[var] = None;
            self.reason[var] = None;
            self.order.insert(var, &self.activity);
        }
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut kept = Vec::with_capacity(watch_list.len());
            let mut conflict = None;
            let mut iter = watch_list.into_iter();
            while let Some(ci) = iter.next() {
                if self.clauses[ci].deleted {
                    continue;
                }
                // Make sure the false literal is at position 1.
                {
                    let clause = &mut self.clauses[ci];
                    if clause.lits[0] == false_lit {
                        clause.lits.swap(0, 1);
                    }
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == Some(true) {
                    kept.push(ci);
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                let len = self.clauses[ci].lits.len();
                for k in 2..len {
                    let candidate = self.clauses[ci].lits[k];
                    if self.value(candidate) != Some(false) {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[candidate.code()].push(ci);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                kept.push(ci);
                if self.value(first) == Some(false) {
                    conflict = Some(ci);
                    // Copy back the remaining watchers and stop.
                    kept.extend(iter);
                    break;
                }
                self.enqueue(first, Some(ci));
            }
            self.watches[false_lit.code()].extend(kept);
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, ci: usize) {
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn analyze(&mut self, conflict: usize) -> (Vec<SatLit>, usize) {
        let mut learnt: Vec<SatLit> = vec![SatLit::positive(Var::from_index(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let current_level = self.decision_level() as u32;

        loop {
            self.bump_clause(confl);
            let lits = self.clauses[confl].lits.clone();
            let start = if p.is_none() { 0 } else { 1 };
            for &q in &lits[start..] {
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            confl = self.reason[v].expect("non-decision literal has a reason");
            p = Some(lit);
        }
        learnt[0] = !p.expect("first UIP literal exists");

        // Compute the backtrack level (second-highest level in the clause).
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };

        // Clear the seen flags of the literals kept in the learnt clause.
        for lit in &learnt {
            self.seen[lit.var().index()] = false;
        }
        (learnt, backtrack_level)
    }

    fn reduce_db(&mut self) {
        // Collect learnt clause indices sorted by activity (ascending).
        let mut learnt_indices: Vec<usize> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && !c.deleted && c.lits.len() > 2)
            .map(|(i, _)| i)
            .collect();
        learnt_indices.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: std::collections::HashSet<usize> =
            self.reason.iter().flatten().copied().collect();
        let to_remove = learnt_indices.len() / 2;
        let mut removed = 0usize;
        for &ci in &learnt_indices {
            if removed >= to_remove {
                break;
            }
            if locked.contains(&ci) {
                continue;
            }
            self.clauses[ci].deleted = true;
            self.num_learnts -= 1;
            removed += 1;
        }
        // Deleted clauses are skipped lazily during propagation; the watch
        // lists clean themselves up as they are visited.
    }

    fn luby(mut x: u64) -> u64 {
        // Luby sequence: 1 1 2 1 1 2 4 ...
        let mut size = 1u64;
        let mut seq = 0u32;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) / 2;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    fn search(&mut self, assumptions: &[SatLit], conflict_budget: u64) -> SolveResult {
        let mut conflicts_this_call = 0u64;
        let mut restarts = 0u64;
        let mut next_restart = Self::luby(restarts) * RESTART_BASE;
        let mut learnt_limit = LEARNT_LIMIT_BASE + self.clauses.len() / 3;

        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                if self.decision_level() <= assumptions.len() {
                    // The conflict depends only on assumptions: the query is
                    // UNSAT under the given assumptions.
                    return SolveResult::Unsat;
                }
                let (learnt, backtrack_level) = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let ci = self.attach_clause(learnt, true);
                    self.bump_clause(ci);
                    self.enqueue(asserting, Some(ci));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLAUSE_DECAY;
                if conflicts_this_call >= conflict_budget {
                    return SolveResult::Unknown;
                }
                if conflicts_this_call >= next_restart {
                    restarts += 1;
                    self.stats.restarts += 1;
                    next_restart = conflicts_this_call + Self::luby(restarts) * RESTART_BASE;
                    self.cancel_until(0);
                }
                if self.num_learnts > learnt_limit {
                    learnt_limit += learnt_limit / 2;
                    self.reduce_db();
                }
            } else {
                // No conflict: extend the assignment.
                if self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        Some(true) => {
                            self.new_decision_level();
                        }
                        Some(false) => return SolveResult::Unsat,
                        None => {
                            self.new_decision_level();
                            self.enqueue(p, None);
                        }
                    }
                    continue;
                }
                // Pick a branching variable.
                let mut decision = None;
                while let Some(var) = self.order.pop_max(&self.activity) {
                    if self.assigns[var].is_none() {
                        decision = Some(var);
                        break;
                    }
                }
                match decision {
                    None => {
                        // All variables assigned: a model has been found.
                        self.model = self.assigns.clone();
                        return SolveResult::Sat;
                    }
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.new_decision_level();
                        let lit = SatLit::new(Var::from_index(var), !self.phase[var]);
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: isize) -> SatLit {
        let var = solver_vars[(i.unsigned_abs()) - 1];
        if i < 0 {
            SatLit::negative(var)
        } else {
            SatLit::positive(var)
        }
    }

    fn make_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 1);
        s.add_clause(&[lit(&vars, 1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[0]), Some(true));
        assert!(!s.add_clause(&[lit(&vars, -1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simple_propagation_chain() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 4);
        s.add_clause(&[lit(&vars, 1)]);
        s.add_clause(&[lit(&vars, -1), lit(&vars, 2)]);
        s.add_clause(&[lit(&vars, -2), lit(&vars, 3)]);
        s.add_clause(&[lit(&vars, -3), lit(&vars, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vars {
            assert_eq!(s.model_value(*v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // x1: pigeon1 in hole, x2: pigeon2 in hole; both must be placed and
        // cannot share.
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        s.add_clause(&[lit(&vars, 1)]);
        s.add_clause(&[lit(&vars, 2)]);
        s.add_clause(&[lit(&vars, -1), lit(&vars, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_respected() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        s.add_clause(&[lit(&vars, 1), lit(&vars, 2)]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1)]),
            SolveResult::Sat
        );
        assert_eq!(s.model_value(vars[1]), Some(true));
        assert_eq!(
            s.solve_with_assumptions(&[lit(&vars, -1), lit(&vars, -2)]),
            SolveResult::Unsat
        );
        // The solver remains usable after an UNSAT-under-assumptions call.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard pigeonhole instance with a tiny budget should time out.
        let (mut s, _) = pigeonhole(6, 5);
        assert_eq!(s.solve_limited(&[], 3), SolveResult::Unknown);
    }

    /// Builds the pigeonhole principle PHP(pigeons, holes).
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Var>>) {
        let mut s = Solver::new();
        let grid: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &grid {
            let clause: Vec<SatLit> = row.iter().map(|&v| SatLit::positive(v)).collect();
            s.add_clause(&clause);
        }
        for (p1, row1) in grid.iter().enumerate() {
            for row2 in &grid[p1 + 1..] {
                for (&v1, &v2) in row1.iter().zip(row2.iter()) {
                    s.add_clause(&[SatLit::negative(v1), SatLit::negative(v2)]);
                }
            }
        }
        (s, grid)
    }

    #[test]
    fn pigeonhole_unsat() {
        let (mut s, _) = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let (mut s, grid) = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Each pigeon sits in exactly one hole of the model, no sharing.
        let mut used = [false; 4];
        for row in &grid {
            let holes: Vec<usize> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| s.model_value(v) == Some(true))
                .map(|(h, _)| h)
                .collect();
            let h = *holes.first().expect("a satisfied pigeon clause");
            assert!(!used[h], "two pigeons share hole {h}");
            used[h] = true;
        }
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..40 {
            let num_vars = 6;
            let num_clauses = 3 + (round % 20);
            let clauses: Vec<Vec<isize>> = (0..num_clauses)
                .map(|_| {
                    (0..3)
                        .map(|_| {
                            let v = rng.gen_range(1..=num_vars as isize);
                            if rng.gen_bool(0.5) {
                                v
                            } else {
                                -v
                            }
                        })
                        .collect()
                })
                .collect();
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1usize << num_vars) {
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let value = (bits >> (l.unsigned_abs() - 1)) & 1 == 1;
                        if l > 0 {
                            value
                        } else {
                            !value
                        }
                    });
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut s = Solver::new();
            let vars = make_vars(&mut s, num_vars);
            for clause in &clauses {
                let lits: Vec<SatLit> = clause.iter().map(|&l| lit(&vars, l)).collect();
                s.add_clause(&lits);
            }
            let result = s.solve();
            if brute_sat {
                assert_eq!(result, SolveResult::Sat, "round {round}");
                // Verify the model satisfies every clause.
                for clause in &clauses {
                    assert!(clause.iter().any(|&l| {
                        let value = s.model_value(vars[l.unsigned_abs() - 1]).unwrap_or(false);
                        if l > 0 {
                            value
                        } else {
                            !value
                        }
                    }));
                }
            } else {
                assert_eq!(result, SolveResult::Unsat, "round {round}");
            }
        }
    }

    #[test]
    fn tautology_and_duplicate_literals() {
        let mut s = Solver::new();
        let vars = make_vars(&mut s, 2);
        assert!(s.add_clause(&[lit(&vars, 1), lit(&vars, -1)]));
        assert!(s.add_clause(&[lit(&vars, 2), lit(&vars, 2)]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(vars[1]), Some(true));
    }

    fn encode(solver: &Solver) -> Vec<u8> {
        let mut w = Writer::default();
        solver.encode(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Solver, DecodeError> {
        Solver::decode(&mut Reader::new(bytes))
    }

    #[test]
    fn snapshot_restore_is_behaviour_exact() {
        // Build nontrivial history: an interrupted hard query leaves learnt
        // clauses, bumped activities and saved phases behind.
        let (mut original, grid) = pigeonhole(6, 5);
        assert_eq!(original.solve_limited(&[], 8), SolveResult::Unknown);
        let bytes = encode(&original);
        let mut reader = Reader::new(&bytes);
        let mut restored = Solver::decode(&mut reader).expect("valid state");
        assert!(reader.is_empty(), "the state is read to its end");
        // Restoring is lossless: the restored solver encodes to the bytes
        // it came from.
        assert_eq!(encode(&restored), bytes);

        // The same future query sequence must produce identical results,
        // identical models and identical final states.
        let queries: Vec<Vec<SatLit>> = vec![
            vec![],
            vec![SatLit::positive(grid[0][0])],
            vec![SatLit::negative(grid[0][0]), SatLit::negative(grid[0][1])],
        ];
        for assumptions in &queries {
            let a = original.solve_limited(assumptions, 50);
            let b = restored.solve_limited(assumptions, 50);
            assert_eq!(a, b);
            for row in &grid {
                for &v in row {
                    assert_eq!(original.model_value(v), restored.model_value(v));
                }
            }
        }
        assert_eq!(encode(&original), encode(&restored));
        assert_eq!(original.stats(), restored.stats());
    }

    #[test]
    fn snapshot_rejects_corrupt_state() {
        // Pigeonhole(5, 4) is unsatisfiable; with its watch lists rotated,
        // a restored solver would answer `Sat`.
        let (mut s, grid) = pigeonhole(5, 4);
        let _ = s.solve_limited(&[], 3);
        let good = encode(&s);
        assert!(decode(&good).is_ok());
        for len in 0..good.len() {
            assert!(decode(&good[..len]).is_err(), "prefix {len} decodes");
        }
        let x = grid[4][3];
        let unallocated = SatLit::positive(Var::from_index(s.num_vars()));
        // The first clause places pigeon 0 in one of the four holes.
        let first_watch = s.clauses[0].lits[1].code();
        type Edit<'a> = &'a dyn Fn(&mut Solver);
        let cases: [(&str, Edit); 12] = [
            ("variable count", &|s| {
                s.watches.truncate(s.watches.len() - 2)
            }),
            ("out-of-range clause", &|s| {
                s.watches[0].push(usize::MAX / 2)
            }),
            ("out-of-range clause", &|s| {
                s.reason[0] = Some(s.clauses.len())
            }),
            ("fewer than two literals", &|s| {
                s.clauses[0].lits.truncate(1)
            }),
            ("unallocated variable", &|s| {
                s.clauses[0].lits[1] = unallocated
            }),
            ("repeats a variable", &|s| {
                s.clauses[0].lits[2] = !s.clauses[0].lits[0]
            }),
            ("trail repeats a variable", &|s| {
                s.trail = vec![SatLit::positive(x), SatLit::negative(x)];
                s.qhead = 2;
            }),
            ("propagation head", &|s| s.qhead = s.trail.len() + 1),
            ("does not watch its literal", &|s| s.watches.rotate_left(3)),
            ("missing from a watch list", &|s| {
                s.watches[first_watch].retain(|&ci| ci != 0);
            }),
            ("missing from a watch list", &|s| {
                s.watches.iter_mut().for_each(Vec::clear);
            }),
            ("listed twice", &|s| s.watches[first_watch].push(0)),
        ];
        for (what, corrupt) in cases {
            let mut bad = s.clone();
            corrupt(&mut bad);
            match decode(&encode(&bad)) {
                Err(DecodeError::Corrupt(message)) => {
                    assert!(message.contains(what), "{what}: {message}");
                }
                other => panic!("{what}: expected a corrupt state, got {other:?}"),
            }
        }

        // A deleted clause may linger in the lists, even twice.
        let mut deleted = s.clone();
        deleted.clauses[0].deleted = true;
        deleted.watches[first_watch].push(0);
        assert!(decode(&encode(&deleted)).is_ok());
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, _) = pigeonhole(5, 4);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions > 0);
        assert!(stats.propagations > 0);
        assert_eq!(stats.solve_calls, 1);
    }
}
