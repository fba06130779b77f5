//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the MiniSat architecture: two-literal
//! watching, first-UIP conflict analysis, VSIDS branching with an indexed
//! heap, phase saving, Luby restarts and learnt-clause database reduction.
//! Every clause lives in one flat arena of `u32` words and is addressed by
//! the index of its header word; each watch entry carries a blocker literal
//! of its clause, and while the blocker is true propagation passes the
//! clause without reading it (Eén and Sörensson, *An Extensible
//! SAT-solver*, SAT 2003; the blockers follow MiniSat 2.2).  Propagation
//! compacts each watch list in place, and conflict analysis reads reason
//! clauses in place into one reused buffer, so neither allocates.
//! Queries can be budgeted with a conflict limit, in which case the solver
//! answers [`SolveResult::Unknown`] — the `unDET` outcome on which the
//! SAT-sweeping algorithm leaves a candidate unmerged.

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

/// A clause reference: the arena index of the clause's header word.
type CRef = u32;

/// Words in front of a clause's literals: the header, then the two halves
/// of the clause's `f64` activity.
const HEADER_WORDS: usize = 3;
/// Header bit of a deleted clause.
const DELETED: u32 = 0b01;
/// Header bit of a learnt clause.
const LEARNT: u32 = 0b10;
/// The header holds the clause's length above its two flag bits.
const LEN_SHIFT: u32 = 2;

/// An entry of a watch list: a clause that watches the list's literal, and
/// a blocker literal of that clause.  While the blocker is true the clause
/// is satisfied, and propagation passes it without reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Watch {
    cref: CRef,
    blocker: SatLit,
}

/// The number of literals of the clause with this header word.
fn clause_len(header: u32) -> usize {
    (header >> LEN_SHIFT) as usize
}

/// The literals of the clause at `c`, as literal codes.
fn clause_lits(arena: &[u32], c: CRef) -> &[u32] {
    let start = c as usize + HEADER_WORDS;
    &arena[start..start + clause_len(arena[c as usize])]
}

/// A CDCL SAT solver.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    /// Every clause in order of creation, as one flat array: a header word
    /// (the length above the learnt and deleted bits), the two words of the
    /// clause's `f64` activity, then its literal codes.
    arena: Vec<u32>,
    /// Number of clauses in the arena, deleted ones included.
    num_clauses: usize,
    /// watches[lit.code()] lists the clauses currently watching `lit`.
    watches: Vec<Vec<Watch>>,
    assigns: Vec<Option<bool>>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<CRef>>,
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
    /// The clause [`Solver::analyze`] learns, kept to reuse its buffer.
    learnt: Vec<SatLit>,
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
                self.attach_clause(&filtered, false);
                true
            }
        }
    }

    /// Appends a clause of at least two literals to the arena and watches
    /// its first two literals.
    fn attach_clause(&mut self, lits: &[SatLit], learnt: bool) -> CRef {
        let c = CRef::try_from(self.arena.len()).expect("the clause arena fits 32-bit references");
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&len| len < 1 << (32 - LEN_SHIFT))
            .expect("a clause's length fits its header");
        self.arena
            .push(len << LEN_SHIFT | if learnt { LEARNT } else { 0 });
        self.arena.extend([0, 0]); // activity 0.0
        self.arena.extend(lits.iter().map(|lit| lit.code() as u32));
        self.watches[lits[0].code()].push(Watch {
            cref: c,
            blocker: lits[1],
        });
        self.watches[lits[1].code()].push(Watch {
            cref: c,
            blocker: lits[0],
        });
        self.num_clauses += 1;
        if learnt {
            self.num_learnts += 1;
        }
        c
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

    /// Writes the solver's state between queries: the clause arena word for
    /// word, the watch lists in order, the saved phases, reasons and
    /// activities of the variables, the VSIDS heap array, the level-0 trail
    /// with its propagation head, the two activity increments and the
    /// statistics.
    ///
    /// Everything else is derived by [`Solver::decode`].  Between queries
    /// the assignment is exactly the level-0 trail, and every assigned
    /// variable sits at level 0.  The model is stale until the next
    /// satisfiable answer.  The heap positions follow from the heap array,
    /// and the clause and learnt-clause counts from the arena.  `ok` holds,
    /// because the one caller, [`crate::CircuitSat`], only adds satisfiable
    /// clauses.
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
        w.vec(&self.arena, |w, &word| w.u32(word));
        w.vec(&self.watches, |w, list| {
            w.vec(list, |w, watch| {
                w.u32(watch.cref);
                w.u32(watch.blocker.code() as u32);
            })
        });
        w.usize(self.num_vars());
        for &phase in &self.phase {
            w.boolean(phase);
        }
        for &reason in &self.reason {
            w.boolean(reason.is_some());
            if let Some(c) = reason {
                w.u32(c);
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
    /// drive the search without a panic: the arena parses into clauses of at
    /// least two literals over allocated variables that repeat no variable,
    /// every watch and reason reference is the start of a clause, the watch
    /// lists keep the two-watched-literal invariant with blockers from the
    /// entries' clauses, and neither the trail nor the heap repeats a
    /// variable.  What it allocates, and the time it takes, are proportional
    /// to the bytes it reads.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let corrupt = DecodeError::Corrupt;
        let arena = r.vec(4, Reader::u32)?;
        let watches = r.vec(8, |r| {
            r.vec(8, |r| {
                Ok(Watch {
                    cref: r.u32()?,
                    blocker: SatLit::from_code(r.u32()?),
                })
            })
        })?;
        // A variable takes at least ten bytes: its phase, its reason flag
        // and its activity.
        let num_vars = r.vec_len(10)?;
        let phase = r.seq(num_vars, Reader::boolean)?;
        let reason = r.seq(num_vars, |r| {
            Ok(if r.boolean()? { Some(r.u32()?) } else { None })
        })?;
        let activity = r.seq(num_vars, Reader::f64)?;
        let heap = r.vec(8, Reader::usize)?;
        let trail = r.vec(4, |r| r.u32().map(SatLit::from_code))?;
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
        if CRef::try_from(arena.len()).is_err() {
            return Err(corrupt("solver clause arena outgrows 32-bit references"));
        }
        // Walk the arena clause by clause.  `mark` flags the header word of
        // each clause, and later which of its two watches were seen.  Units
        // are enqueued, never attached, so every clause has two watched
        // literals; a shorter clause would panic inside `propagate`.
        const START: u8 = 0b100;
        let mut mark = vec![0u8; arena.len()];
        let mut last_clause_of = vec![usize::MAX; num_vars];
        let (mut num_clauses, mut num_learnts) = (0, 0);
        let mut at = 0;
        while at < arena.len() {
            let len = clause_len(arena[at]);
            if len < 2 {
                return Err(corrupt("solver clause has fewer than two literals"));
            }
            // No overflow: `at` and `len` are below 2^32 and 2^30.
            let end = at + HEADER_WORDS + len;
            let lits = arena
                .get(at + HEADER_WORDS..end)
                .ok_or(corrupt("solver clause runs past the arena"))?;
            for &code in lits {
                let last = last_clause_of
                    .get_mut(SatLit::from_code(code).var().index())
                    .ok_or(corrupt("solver clause references an unallocated variable"))?;
                if *last == at {
                    return Err(corrupt("solver clause repeats a variable"));
                }
                *last = at;
            }
            mark[at] = START;
            num_clauses += 1;
            if arena[at] & (LEARNT | DELETED) == LEARNT {
                num_learnts += 1;
            }
            at = end;
        }
        let is_clause =
            |mark: &[u8], c: CRef| mark.get(c as usize).is_some_and(|&m| m & START != 0);
        if !reason.iter().flatten().all(|&c| is_clause(&mark, c)) {
            return Err(corrupt(
                "solver reason does not reference the start of a clause",
            ));
        }
        // The two-watched-literal invariant: a watch entry's clause holds
        // the literal at position 0 or 1, a clause sits at most once in each
        // of its two lists, and a live clause exactly once.  Deleted clauses
        // linger in the lists until propagation visits them.  So the lists
        // hold at most two entries per clause, and the blocker scans below
        // read at most twice the arena.  A blocker is a literal of its
        // clause: a true blocker that is not would let propagation skip a
        // unit or conflicting clause.
        for (code, list) in watches.iter().enumerate() {
            for &Watch { cref: c, blocker } in list {
                if !is_clause(&mark, c) {
                    return Err(corrupt(
                        "solver watch entry does not reference the start of a clause",
                    ));
                }
                let lits = clause_lits(&arena, c);
                let bit = if lits[0] as usize == code {
                    0b01
                } else if lits[1] as usize == code {
                    0b10
                } else {
                    return Err(corrupt(
                        "solver watch entry's clause does not watch its literal",
                    ));
                };
                let seen = &mut mark[c as usize];
                if *seen & bit != 0 {
                    return Err(corrupt("solver clause is listed twice in a watch list"));
                }
                *seen |= bit;
                if !lits.contains(&(blocker.code() as u32)) {
                    return Err(corrupt(
                        "solver watch blocker is not a literal of its clause",
                    ));
                }
            }
        }
        let live_unwatched = |(at, &m): (usize, &u8)| {
            m & START != 0 && arena[at] & DELETED == 0 && m != START | 0b11
        };
        if mark.iter().enumerate().any(live_unwatched) {
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
        Ok(Solver {
            arena,
            num_clauses,
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
            learnt: Vec::new(),
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

    fn enqueue(&mut self, lit: SatLit, reason: Option<CRef>) {
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

    fn clause_activity(&self, c: CRef) -> f64 {
        let at = c as usize;
        f64::from_bits(u64::from(self.arena[at + 1]) | u64::from(self.arena[at + 2]) << 32)
    }

    fn set_clause_activity(&mut self, c: CRef, activity: f64) {
        let at = c as usize;
        let bits = activity.to_bits();
        self.arena[at + 1] = bits as u32;
        self.arena[at + 2] = (bits >> 32) as u32;
    }

    /// The clause references in arena order, deleted clauses included.
    fn clause_refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut at = 0;
        std::iter::from_fn(move || {
            let c = at;
            at += HEADER_WORDS + clause_len(*self.arena.get(c)?);
            Some(c as CRef)
        })
    }

    /// Propagates the trail from `qhead`; returns a conflicting clause, if
    /// any.  Each watch list is compacted in place, in its order.
    fn propagate(&mut self) -> Option<CRef> {
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let false_code = false_lit.code() as u32;
            let mut list = std::mem::take(&mut self.watches[false_lit.code()]);
            let (mut i, mut kept) = (0, 0);
            while i < list.len() {
                let watch = list[i];
                i += 1;
                // A true blocker satisfies the clause: keep it unread.
                if self.value(watch.blocker) == Some(true) {
                    list[kept] = watch;
                    kept += 1;
                    continue;
                }
                let c = watch.cref;
                let header = self.arena[c as usize];
                if header & DELETED != 0 {
                    continue;
                }
                let start = c as usize + HEADER_WORDS;
                // Make sure the false literal is at position 1.
                if self.arena[start] == false_code {
                    self.arena.swap(start, start + 1);
                }
                // From here on the clause's entries block on its other
                // watched literal.
                let first = SatLit::from_code(self.arena[start]);
                let entry = Watch {
                    cref: c,
                    blocker: first,
                };
                if first != watch.blocker && self.value(first) == Some(true) {
                    list[kept] = entry;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let end = start + clause_len(header);
                let replacement = (start + 2..end)
                    .find(|&k| self.value(SatLit::from_code(self.arena[k])) != Some(false));
                if let Some(k) = replacement {
                    self.arena.swap(start + 1, k);
                    self.watches[self.arena[start + 1] as usize].push(entry);
                    continue;
                }
                // No replacement: the clause is unit or conflicting.
                list[kept] = entry;
                kept += 1;
                if self.value(first) == Some(false) {
                    conflict = Some(c);
                    // Keep the remaining watchers and stop.
                    list.copy_within(i.., kept);
                    kept += list.len() - i;
                    break;
                }
                self.enqueue(first, Some(c));
            }
            list.truncate(kept);
            self.watches[false_lit.code()] = list;
        }
        conflict
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

    fn bump_clause(&mut self, c: CRef) {
        let activity = self.clause_activity(c) + self.cla_inc;
        self.set_clause_activity(c, activity);
        if activity > 1e20 {
            let mut at = 0;
            while at < self.arena.len() {
                let c = at as CRef;
                self.set_clause_activity(c, self.clause_activity(c) * 1e-20);
                at += HEADER_WORDS + clause_len(self.arena[at]);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Derives the first-UIP clause of `conflict` into `self.learnt`, its
    /// asserting literal first and a literal of the backtrack level second,
    /// and returns the backtrack level.
    fn analyze(&mut self, conflict: CRef) -> usize {
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(SatLit::positive(Var::from_index(0))); // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<SatLit> = None;
        let mut index = self.trail.len();
        let mut confl = conflict;
        let current_level = self.decision_level() as u32;

        loop {
            self.bump_clause(confl);
            // A reason clause holds the literal it implied, `p`, at
            // position 0.
            let start = confl as usize + HEADER_WORDS;
            let end = start + clause_len(self.arena[confl as usize]);
            for at in start + usize::from(p.is_some())..end {
                let q = SatLit::from_code(self.arena[at]);
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
            p = Some(lit);
            if counter == 0 {
                break;
            }
            confl = self.reason[v].expect("non-decision literal has a reason");
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
        self.learnt = learnt;
        backtrack_level
    }

    fn reduce_db(&mut self) {
        // Collect the learnt clauses of more than two literals, sorted by
        // activity (ascending).
        let mut learnts: Vec<CRef> = self
            .clause_refs()
            .filter(|&c| {
                let header = self.arena[c as usize];
                header & (LEARNT | DELETED) == LEARNT && clause_len(header) > 2
            })
            .collect();
        learnts.sort_by(|&a, &b| {
            self.clause_activity(a)
                .partial_cmp(&self.clause_activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let to_remove = learnts.len() / 2;
        let mut removed = 0usize;
        for &c in &learnts {
            if removed >= to_remove {
                break;
            }
            // A reason clause is locked.  It holds the literal it implied at
            // position 0, so it is the reason of that literal's variable.
            let implied = SatLit::from_code(self.arena[c as usize + HEADER_WORDS]);
            if self.reason[implied.var().index()] == Some(c) {
                continue;
            }
            self.arena[c as usize] |= DELETED;
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
        let mut learnt_limit = LEARNT_LIMIT_BASE + self.num_clauses / 3;

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
                let backtrack_level = self.analyze(conflict);
                self.cancel_until(backtrack_level);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], None);
                } else {
                    let c = self.attach_clause(&learnt, true);
                    self.bump_clause(c);
                    self.enqueue(learnt[0], Some(c));
                }
                self.learnt = learnt;
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
                        self.model.clone_from(&self.assigns);
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
        let unallocated = SatLit::positive(Var::from_index(s.num_vars())).code() as u32;
        // The first clause, at reference 0, places pigeon 0 in one of the
        // four holes; its literals start after the header words.
        let lit0 = HEADER_WORDS;
        let first_watch = s.arena[lit0 + 1] as usize;
        let entry = |cref: usize| Watch {
            cref: cref as CRef,
            blocker: SatLit::from_code(s.arena[lit0]),
        };
        // The first clause's entry in the list of its second literal.
        fn first_entry(s: &mut Solver) -> &mut Watch {
            let list = &mut s.watches[s.arena[HEADER_WORDS + 1] as usize];
            list.iter_mut().find(|w| w.cref == 0).expect("watched")
        }
        let last = s.clause_refs().last().expect("clauses") as usize;
        type Edit<'a> = &'a dyn Fn(&mut Solver);
        let cases: [(&str, Edit); 18] = [
            ("variable count", &|s| {
                s.watches.truncate(s.watches.len() - 2)
            }),
            ("watch entry does not reference the start", &|s| {
                s.watches[0].push(entry(u32::MAX as usize))
            }),
            ("watch entry does not reference the start", &|s| {
                s.watches[first_watch].push(entry(lit0))
            }),
            ("reason does not reference the start", &|s| {
                s.reason[0] = Some(s.arena.len() as CRef)
            }),
            ("reason does not reference the start", &|s| {
                s.reason[0] = Some(1)
            }),
            ("fewer than two literals", &|s| s.arena[0] = 1 << LEN_SHIFT),
            ("runs past the arena", &|s| s.arena[last] += 1 << LEN_SHIFT),
            ("runs past the arena", &|s| {
                s.arena[0] |= u32::MAX << LEN_SHIFT
            }),
            ("unallocated variable", &|s| s.arena[lit0 + 1] = unallocated),
            ("repeats a variable", &|s| {
                s.arena[lit0 + 2] = s.arena[lit0] ^ 1
            }),
            ("trail repeats a variable", &|s| {
                s.trail = vec![SatLit::positive(x), SatLit::negative(x)];
                s.qhead = 2;
            }),
            ("propagation head", &|s| s.qhead = s.trail.len() + 1),
            ("does not watch its literal", &|s| s.watches.rotate_left(3)),
            ("missing from a watch list", &|s| {
                s.watches[first_watch].retain(|w| w.cref != 0);
            }),
            ("missing from a watch list", &|s| {
                s.watches.iter_mut().for_each(Vec::clear);
            }),
            ("listed twice", &|s| s.watches[first_watch].push(entry(0))),
            ("blocker is not a literal of its clause", &|s| {
                first_entry(s).blocker = SatLit::positive(x)
            }),
            ("blocker is not a literal of its clause", &|s| {
                first_entry(s).blocker = SatLit::from_code(unallocated)
            }),
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

        // A deleted clause may linger in its lists, or in one of them, but
        // not twice in one.
        let mut deleted = s.clone();
        deleted.arena[0] |= DELETED;
        assert!(decode(&encode(&deleted)).is_ok());
        deleted.watches[first_watch].retain(|w| w.cref != 0);
        assert!(decode(&encode(&deleted)).is_ok());
        deleted.watches[first_watch].extend([entry(0), entry(0)]);
        assert_eq!(
            decode(&encode(&deleted)).err(),
            Some(DecodeError::Corrupt(
                "solver clause is listed twice in a watch list"
            ))
        );
    }

    #[test]
    fn reduce_db_keeps_answers_and_restores_exactly() {
        // Disjoint copies of a pigeonhole problem.  In copy k, seven pigeons
        // must each sit in one of seven holes while the copy's switch e_k is
        // on, no two share a hole, and the last hole is open only while the
        // hole switch h_k is on.  So every query has a known status: under
        // e_k it is satisfiable, and under e_k and ¬h_k (seven pigeons, six
        // holes) it is not.  Nine copies teach about 8,000 clauses, past
        // the first learnt limit (LEARNT_LIMIT_BASE plus a third of the
        // clauses).
        const COPIES: usize = 9;
        const PIGEONS: usize = 7;
        let mut s = Solver::new();
        let mut clauses: Vec<Vec<SatLit>> = Vec::new();
        let mut queries: Vec<Vec<SatLit>> = Vec::new();
        for _ in 0..COPIES {
            let grid: Vec<Vec<Var>> = (0..PIGEONS).map(|_| make_vars(&mut s, PIGEONS)).collect();
            let (on, open) = (SatLit::positive(s.new_var()), SatLit::positive(s.new_var()));
            queries.extend([vec![on, !open], vec![on]]);
            for row in &grid {
                let mut placed = vec![!on];
                placed.extend(row.iter().map(|&v| SatLit::positive(v)));
                clauses.push(placed);
                clauses.push(vec![SatLit::negative(row[PIGEONS - 1]), open]);
            }
            for (p, row) in grid.iter().enumerate() {
                for other in &grid[p + 1..] {
                    for (&v, &w) in row.iter().zip(other) {
                        clauses.push(vec![SatLit::negative(v), SatLit::negative(w)]);
                    }
                }
            }
        }
        for clause in &clauses {
            assert!(s.add_clause(clause));
        }
        let check = |s: &Solver, assumptions: &[SatLit], answer: SolveResult| match answer {
            SolveResult::Sat => {
                assert_eq!(assumptions.len(), 1, "{assumptions:?} answered Sat");
                let holds = |l: &SatLit| s.model_value(l.var()) == Some(!l.is_negative());
                assert!(
                    assumptions.iter().all(holds),
                    "the model breaks an assumption"
                );
                assert!(
                    clauses.iter().all(|c| c.iter().any(holds)),
                    "the model breaks a clause"
                );
            }
            SolveResult::Unsat => {
                assert_eq!(assumptions.len(), 2, "{assumptions:?} answered Unsat")
            }
            SolveResult::Unknown => {}
        };
        // Run the queries until a reduction shows as a fall of the
        // learnt-clause count between two queries: it deletes half of the
        // long learnt clauses, more than one query learns.
        let (mut peak, mut fell, mut asked) = (0, false, 0);
        while !(fell && peak > LEARNT_LIMIT_BASE as u64) {
            let assumptions = queries
                .get(asked)
                .expect("a reduction before the last query");
            let before = s.stats().learnt_clauses;
            let answer = s.solve_with_assumptions(assumptions);
            check(&s, assumptions, answer);
            let after = s.stats().learnt_clauses;
            peak = peak.max(after);
            fell |= after < before;
            asked += 1;
        }

        // The reduced database, deleted clauses and all, restores exactly;
        // a small budget keeps the remaining queries cheap.
        let bytes = encode(&s);
        let mut restored = decode(&bytes).expect("valid state");
        assert_eq!(encode(&restored), bytes);
        for assumptions in &queries[asked..] {
            let answer = s.solve_limited(assumptions, 100);
            assert_eq!(restored.solve_limited(assumptions, 100), answer);
            check(&s, assumptions, answer);
            for v in (0..s.num_vars()).map(Var::from_index) {
                assert_eq!(s.model_value(v), restored.model_value(v));
            }
            assert_eq!(s.stats(), restored.stats());
        }
        assert_eq!(encode(&s), encode(&restored));
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
