//! The sweeping session API: the [`Sweeper`] builder, the public [`Engine`]
//! selector and the [`SweepSession`] that executes the Fig. 2 flow
//! (simulate → classify → window-refine → SAT → resimulate) for *both*
//! engines through one dispatch point.
//!
//! Every SAT query of a session — SAT-guided patterns, constant proofs and
//! pairwise merges — runs on one incremental [`CircuitSat`], in canonical
//! candidate order, as in the paper's Algorithm 2.  The swept network is
//! therefore a pure function of the input and the configuration.
//!
//! A sequential sweep ([`SweepConfig::seq_depth`] `> 0`, see
//! [`crate::sequential`]) is the same loop over latch pairs: its one solver
//! holds the `k`-step induction network, and each pair costs a base-case
//! query and, if that is UNSAT, an induction-step query.
//!
//! The session is a resumable phase machine: its execution cursor (constant
//! cursor, pending merge queue, latch query cursor) lives in an explicit
//! phase value, and a checkpoint is taken only where a run stops: when the
//! [`Budget`] stops it before a sweeping SAT query (the
//! [`SweepCheckpoint`] travels inside
//! [`crate::SweepError::BudgetExhausted`]), or on request through
//! [`SweepSession::checkpoint`] before it runs.  [`Sweeper::resume_from`]
//! restores the full state — the solver included, see
//! [`crate::checkpoint`] — and the resumed run commits SAT calls, merges
//! and output bytes identical to an uninterrupted one.
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::{Engine, StatsObserver, SweepConfig, Sweeper};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! let mut stats = StatsObserver::new();
//! let result = Sweeper::new(Engine::Stp)
//!     .config(SweepConfig::paper())
//!     .observer(&mut stats)
//!     .run(&aig)
//!     .expect("valid config, no budget");
//! assert!(result.aig.num_ands() <= aig.num_ands());
//! assert_eq!(stats.merges, result.report.merges);
//! ```

use crate::budget::{Budget, BudgetCause};
use crate::checkpoint::{netlist_fingerprint, CheckpointError, PhasePod, SweepCheckpoint};
use crate::equiv::{EquivClass, EquivClasses};
use crate::error::SweepError;
use crate::observer::{Observer, SatCallOutcome, StatsObserver};
use crate::patterns::{self, PatternGenConfig};
use crate::report::{SweepConfig, SweepResult};
use crate::resim;
use crate::sequential::{self, Induction};
use crate::window::WindowIndex;
use bitsim::AigSimulator;
use netlist::{Aig, AigNode, Lit, NodeId};
use satsolver::{CircuitSat, EquivOutcome};
use std::fmt;
use std::time::{Duration, Instant};

/// Which sweeping engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Baseline FRAIG-style sweeping: random initial patterns, no window
    /// verdicts, candidates in forward topological order.
    Baseline,
    /// The paper's STP-based sweeping (Algorithm 2): SAT-guided patterns,
    /// constant substitution, reverse topological processing and exhaustive
    /// STP window refinement before any SAT call.
    #[default]
    Stp,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Baseline => write!(f, "baseline"),
            Engine::Stp => write!(f, "stp"),
        }
    }
}

/// The session's execution cursor — the serialisable pod types double as
/// the live state, so a checkpoint is a plain clone of the cursor.
type Phase = PhasePod;

/// The outcome of one proof step (see [`SweepSession::prove_step`]).
enum Step {
    /// A window verdict or an UNSAT query proved the candidate equal to
    /// this literal.
    Merge(Lit),
    /// A satisfiable query: refine with the counter-example, then retry
    /// the candidate's remaining drivers.
    CounterExample(Vec<bool>),
    /// The query ran out of conflicts (`unDET`): the candidate leaves its
    /// class unmerged.
    Undetermined,
    /// Windows disproved every driver.
    Exhausted,
}

/// Builder of a sweeping run.
///
/// Collects the engine, [`SweepConfig`], [`Budget`] and an optional
/// [`Observer`], then either runs to completion ([`Sweeper::run`]), hands
/// out a primed [`SweepSession`] ([`Sweeper::begin`]), or restores a
/// checkpointed session ([`Sweeper::resume_from`]).
#[derive(Default)]
pub struct Sweeper<'o> {
    pub(crate) engine: Engine,
    pub(crate) config: SweepConfig,
    pub(crate) budget: Budget,
    pub(crate) observer: Option<&'o mut dyn Observer>,
    pub(crate) round: usize,
}

impl<'o> Sweeper<'o> {
    /// Starts building a run of the given engine with the default (paper)
    /// configuration and an unlimited budget.
    pub fn new(engine: Engine) -> Self {
        Sweeper {
            engine,
            ..Sweeper::default()
        }
    }

    /// Sets the configuration (validated when the run starts).
    pub fn config(mut self, config: SweepConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observer; the caller keeps ownership and can inspect it
    /// after the run.
    pub fn observer(mut self, observer: &'o mut dyn Observer) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Sets the resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the round index reported to observers (used by
    /// [`crate::PassManager`] and the fixpoint wrapper; a plain run is round 0).
    pub(crate) fn round_index(mut self, round: usize) -> Self {
        self.round = round;
        self
    }

    /// Validates the configuration and primes a [`SweepSession`]: the
    /// initial patterns are generated, the network simulated and the
    /// candidate classes built.  With [`SweepConfig::seq_depth`] `> 0`,
    /// priming runs the sequential analysis instead (ternary constants and
    /// latch-pair candidates) and builds the induction network the
    /// session's solver answers on.
    pub fn begin<'n>(self, aig: &'n Aig) -> Result<SweepSession<'n, 'o>, SweepError> {
        SweepSession::new(aig, self)
    }

    /// Restores a checkpointed session against the *same* network and
    /// returns it ready to continue.
    ///
    /// The engine and configuration of the resumed run come from the
    /// checkpoint (mixing configurations would break the identity
    /// guarantee); the builder contributes the budget and the observer for
    /// the resumed leg.  Budget dimensions are measured from the resume
    /// point: a deadline counts fresh wall-clock, while `max_sat_calls`
    /// caps the *cumulative* SAT-call total (the checkpoint carries the
    /// calls already committed).
    ///
    /// # Errors
    ///
    /// [`SweepError::CheckpointMismatch`] if the checkpoint was taken
    /// against a network with a different fingerprint, or if its payload is
    /// structurally inconsistent with `aig` (corrupt or hand-edited data).
    ///
    /// # Guarantee
    ///
    /// A run stopped by its budget before any sweeping SAT query and
    /// resumed through this method commits exactly the SAT calls,
    /// counter-examples and merges an uninterrupted run would have
    /// committed, and produces byte-identical AIGER output.
    pub fn resume_from<'n>(
        self,
        aig: &'n Aig,
        checkpoint: &SweepCheckpoint,
    ) -> Result<SweepSession<'n, 'o>, SweepError> {
        SweepSession::resume(aig, self, checkpoint)
    }

    /// Runs the sweep to completion (or until the budget trips): shorthand
    /// for `self.begin(aig)?.run()`, combinational or sequential.
    pub fn run(self, aig: &Aig) -> Result<SweepResult, SweepError> {
        self.begin(aig)?.run()
    }
}

/// An in-flight sweeping run over a borrowed network.
///
/// Created by [`Sweeper::begin`] (fresh) or [`Sweeper::resume_from`]
/// (restored from a [`SweepCheckpoint`]); [`SweepSession::run`] executes the
/// remaining phases (constant substitution, pairwise merging, cleanup — or
/// the latch pairs of a sequential sweep) and returns the [`SweepResult`].
/// The session borrows the input network for its lifetime — the result is
/// a fresh, functionally equivalent [`Aig`].
pub struct SweepSession<'n, 'o> {
    engine: Engine,
    config: SweepConfig,
    budget: Budget,
    observer: Option<&'o mut dyn Observer>,
    round: usize,
    original: &'n Aig,
    /// The session's one incremental solver: pattern generation, constant
    /// proofs and pairwise merges all query it, in canonical order.  A
    /// sequential session's solver owns the induction network instead.
    sat: CircuitSat<'n>,
    /// The sequential sweep's plan and counters (`seq_depth > 0`, primed).
    seq: Option<Induction>,
    classes: EquivClasses,
    /// Window verdicts; built only when [`SweepConfig::window_refinement`]
    /// is on.
    windows: Option<WindowIndex>,
    /// The proved merges: `merged[node]` is the literal that replaces
    /// `node`, a literal of an earlier node.  The session reads
    /// `original`'s fanins resolved through it (see [`resolve`]), and
    /// [`SweepSession::finish`] hands it to [`Aig::cleanup`], which builds
    /// the result.
    merged: Vec<Option<Lit>>,
    /// Live-reference count of every node of the swept network (`original`
    /// with `merged` applied): its references from outputs and from ANDs
    /// that reach an output (see [`live_refs`]).  A candidate whose count
    /// is 0 at its turn is skipped.  Empty for a sequential session.
    refs: Vec<u32>,
    /// Ordered log of applied merges; a restored checkpoint refills
    /// `merged` from it and recounts `refs`.  A sequential session logs
    /// latch merges: target state node, representative state literal.
    merge_log: Vec<(NodeId, Lit)>,
    stats: StatsObserver,
    simulation_time: Duration,
    sat_time: Duration,
    started: Instant,
    /// Wall-clock consumed before this session leg (nonzero for resumed
    /// sessions; added to the final report's total time).
    elapsed_base: Duration,
    stopped: Option<BudgetCause>,
    /// The execution cursor (see [`crate::checkpoint`]).
    phase: Phase,
    /// Settled candidates so far (constants processed plus merge candidates
    /// settled by a proof step, or settled latch pairs) — the progress
    /// cursor a checkpoint reports.
    committed_candidates: u64,
    /// Whether priming ran (patterns, classes).  A pre-tripped budget skips
    /// priming; such a session resumes by re-priming from scratch.
    primed: bool,
    /// The checkpoint captured at a budget stop, handed back inside
    /// [`SweepError::BudgetExhausted`].
    stop_checkpoint: Option<Box<SweepCheckpoint>>,
}

impl<'n, 'o> SweepSession<'n, 'o> {
    fn new(aig: &'n Aig, builder: Sweeper<'o>) -> Result<Self, SweepError> {
        builder.config.validate()?;
        let mut config = builder.config;
        // The single engine-normalisation point (previously duplicated in
        // `fraig`): the baseline never uses the paper's additions.
        if builder.engine == Engine::Baseline {
            config.sat_guided_patterns = false;
            config.window_refinement = false;
        }

        // A budget that is already exhausted (pre-tripped cancel token, zero
        // deadline) skips priming entirely: the run will return the input
        // unchanged, so pattern generation, simulation and the window index
        // would be wasted work.  An in-flight priming phase is not
        // interruptible — budget checks resume at the first candidate.
        let started = Instant::now();
        let stopped = builder.budget.exceeded(started, 0);
        let mut session = SweepSession {
            engine: builder.engine,
            config,
            budget: builder.budget,
            observer: builder.observer,
            round: builder.round,
            original: aig,
            sat: CircuitSat::new(aig),
            seq: None,
            classes: EquivClasses::default(),
            windows: None,
            merged: vec![None; aig.num_nodes()],
            refs: Vec::new(),
            merge_log: Vec::new(),
            stats: StatsObserver::new(),
            simulation_time: Duration::ZERO,
            sat_time: Duration::ZERO,
            started,
            elapsed_base: Duration::ZERO,
            stopped,
            phase: Phase::Start,
            committed_candidates: 0,
            primed: false,
            stop_checkpoint: None,
        };
        let (round, gates) = (builder.round, aig.num_ands());
        session.notify(|o| o.on_round(round, gates));
        if stopped.is_none() {
            session.prime();
        }
        Ok(session)
    }

    /// Primes the session: the initial patterns, the simulation, the
    /// candidate classes and the window index — or, for a sequential sweep,
    /// the analysis and the induction network its solver answers on.
    fn prime(&mut self) {
        let aig = self.original;
        let config = self.config;
        let sim_start = Instant::now();
        if config.seq_depth > 0 {
            let (net, plan) = sequential::induction(aig, &config);
            self.simulation_time = sim_start.elapsed();
            self.sat = CircuitSat::new_owned(net);
            // The ternary constants are analysis results: observer merges
            // without SAT, kept out of the merge log (a resumed run
            // recomputes them, and its restored stats already count them).
            for &(node, constant) in &plan.constants {
                self.notify(|o| o.on_merge(node, constant));
            }
            self.seq = Some(plan);
        } else {
            // Initial simulation (random or SAT-guided).  SAT queries spent
            // on pattern generation are not sweeping queries; they are
            // neither reported to observers nor counted against the budget,
            // as in the paper's Table II accounting.
            let patterns = if config.sat_guided_patterns {
                let gen_config = PatternGenConfig {
                    num_random: config.num_initial_patterns,
                    seed: config.seed,
                    conflict_limit: config.conflict_limit.min(2_000),
                };
                patterns::sat_guided_patterns(aig, &mut self.sat, &gen_config).0
            } else {
                patterns::random_patterns(aig, config.num_initial_patterns, config.seed)
            };
            let state = AigSimulator::new(aig).run(&patterns);
            self.simulation_time = sim_start.elapsed();
            // Prime the classes straight from the arena views — no per-node
            // signature clones.
            self.classes = EquivClasses::from_node_signatures(
                aig.and_ids().map(|id| (id, state.signature(id))),
            );
            self.windows = config
                .window_refinement
                .then(|| WindowIndex::build(aig, config.window_limit));
            self.refs = live_refs(aig, &self.merged);
        }
        self.primed = true;
    }

    /// Restores a session from a checkpoint (see [`Sweeper::resume_from`]).
    fn resume(
        aig: &'n Aig,
        builder: Sweeper<'o>,
        checkpoint: &SweepCheckpoint,
    ) -> Result<Self, SweepError> {
        let mismatch = |what: &str| SweepError::CheckpointMismatch(what.to_string());
        if !checkpoint.matches(aig) {
            // A checkpoint's merge log names concrete node ids, so resuming
            // requires the exact numbering it was taken against.
            return Err(mismatch(&format!(
                "netlist fingerprint {:016x} does not match the checkpoint's {:016x} \
                 — the checkpoint was taken against a different network",
                netlist_fingerprint(aig),
                checkpoint.fingerprint()
            )));
        }
        let engine = checkpoint.engine();
        let config = *checkpoint.config();
        config.validate()?;
        if !checkpoint.is_primed() {
            // The budget tripped before priming: nothing was proved, so a
            // resume is simply a fresh (deterministic) run under the
            // checkpointed engine and configuration.
            return Sweeper {
                engine,
                config,
                budget: builder.budget,
                observer: builder.observer,
                round: checkpoint.round,
            }
            .begin(aig);
        }

        let num_nodes = aig.num_nodes();
        let in_range = |node: NodeId| node < num_nodes;
        let is_and = |node: NodeId| in_range(node) && aig.node(node).is_and();
        let sequential = config.seq_depth > 0;
        match &checkpoint.phase {
            // A constant cursor indexes nothing: it only bounds the
            // candidates left to prove.
            PhasePod::Start | PhasePod::Done => {}
            PhasePod::Constants { .. } if !sequential => {}
            // Range-checked against the rebuilt candidates below.
            PhasePod::Latches { .. } if sequential => {}
            PhasePod::Merging { pending } if !sequential => {
                if !pending.iter().all(|&(node, _)| in_range(node)) {
                    return Err(mismatch(
                        "pending queue references a node outside the network",
                    ));
                }
            }
            _ => {
                return Err(mismatch(
                    "the execution phase does not fit the checkpoint's seq_depth",
                ))
            }
        }

        let mut merged: Vec<Option<Lit>> = vec![None; num_nodes];
        let mut refs = Vec::new();
        let (sat, seq, classes, windows) = if sequential {
            if !(checkpoint.classes.is_empty() && checkpoint.constants.is_empty()) {
                return Err(mismatch(
                    "a sequential checkpoint carries combinational candidate state",
                ));
            }
            let (sat, plan) = Self::restore_latches(aig, &config, checkpoint)?;
            (sat, Some(plan), EquivClasses::default(), None)
        } else {
            // A merged node is an AND node, and its replacement precedes
            // it: that order is what ends `resolve`, and `Aig::cleanup`
            // refuses any other.  Every candidate (class member or constant
            // candidate) may be merged later.  Check both
            // here so corruption surfaces as a typed mismatch, never a panic.
            if !checkpoint
                .merge_log
                .iter()
                .all(|&(node, lit)| is_and(node) && lit.node() < node)
            {
                return Err(mismatch("merge log entry violates the network's topology"));
            }
            if !checkpoint
                .classes
                .iter()
                .flat_map(|(members, _)| members.iter().copied())
                .chain(checkpoint.constants.iter().map(|c| c.node))
                .all(is_and)
            {
                return Err(mismatch(
                    "candidate classes name a node that is not an AND node of the network",
                ));
            }
            for &(node, lit) in &checkpoint.merge_log {
                merged[node] = Some(lit);
            }
            // The counts the merges maintained are those of the swept
            // network they left.
            refs = live_refs(aig, &merged);
            let classes =
                EquivClasses::from_parts(checkpoint.classes.clone(), checkpoint.constants.clone())
                    .map_err(mismatch)?;
            let windows = config
                .window_refinement
                .then(|| WindowIndex::build(aig, config.window_limit));
            let sat = CircuitSat::from_snapshot(aig, &checkpoint.solver)
                .map_err(CheckpointError::from)?;
            (sat, None, classes, windows)
        };

        // No `on_round` notification: the resumed session continues the
        // round the checkpoint was taken in (the restored stats already
        // count it).
        Ok(SweepSession {
            engine,
            config,
            budget: builder.budget,
            observer: builder.observer,
            round: checkpoint.round,
            original: aig,
            sat,
            seq,
            classes,
            windows,
            merged,
            refs,
            merge_log: checkpoint.merge_log.clone(),
            stats: checkpoint.stats,
            simulation_time: checkpoint.simulation_time,
            sat_time: checkpoint.sat_time,
            started: Instant::now(),
            elapsed_base: checkpoint.elapsed,
            stopped: None,
            phase: checkpoint.phase.clone(),
            committed_candidates: checkpoint.committed_candidates,
            primed: true,
            stop_checkpoint: None,
        })
    }

    /// Recomputes a sequential checkpoint's plan and induction network —
    /// both pure functions of the network and the configuration — checks
    /// the checkpoint against them, and restores the solver over the
    /// network.
    fn restore_latches(
        aig: &Aig,
        config: &SweepConfig,
        checkpoint: &SweepCheckpoint,
    ) -> Result<(CircuitSat<'n>, Induction), SweepError> {
        let mismatch = |what: &str| SweepError::CheckpointMismatch(what.to_string());
        let (net, mut plan) = sequential::induction(aig, config);
        if checkpoint.seq_candidates != plan.candidates.len() as u64
            || checkpoint.seq_ternary_constants != plan.constants.len() as u64
        {
            return Err(mismatch(
                "recomputed sequential analysis disagrees with the checkpoint",
            ));
        }
        let settled = match checkpoint.phase {
            PhasePod::Latches { next } => next / 2,
            PhasePod::Done => plan.candidates.len(),
            _ => 0,
        };
        if settled > plan.candidates.len() || checkpoint.committed_candidates != settled as u64 {
            return Err(mismatch("latch-phase cursor is inconsistent"));
        }
        // Each merge-log entry must be a candidate settled before the
        // cursor, in candidate order.  Then no latch is merged twice and no
        // representative is merged away, as `sequential::rebuild` requires.
        let mut settled_merges = plan.candidates[..settled].iter().map(|c| c.merge);
        if !checkpoint
            .merge_log
            .iter()
            .all(|entry| settled_merges.any(|merge| merge == *entry))
        {
            return Err(mismatch(
                "merge log entry is not a latch candidate settled before the cursor",
            ));
        }
        let sat = CircuitSat::from_snapshot_owned(net, &checkpoint.solver)
            .map_err(CheckpointError::from)?;
        plan.refuted = checkpoint.seq_induction_refuted;
        plan.undet = checkpoint.seq_induction_undet;
        Ok((sat, plan))
    }

    /// The engine this session runs.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The (normalised) configuration of this session.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Number of merge candidates remaining (class members beyond their
    /// representatives, plus constant candidates) — for a sequential sweep,
    /// the latch pairs left to prove.
    pub fn num_candidates(&self) -> usize {
        match (&self.seq, &self.phase) {
            (Some(plan), Phase::Latches { next }) => plan.candidates.len() - next / 2,
            (Some(_), Phase::Done) => 0,
            (Some(plan), _) => plan.candidates.len(),
            (None, _) => self.classes.num_candidates(),
        }
    }

    /// Captures the session's current state as a resumable checkpoint.
    ///
    /// The session sits at a candidate boundary whenever it is externally
    /// reachable, so the checkpoint is always consistent.  Runs stopped by
    /// a budget hand their stop-point checkpoint back inside
    /// [`SweepError::BudgetExhausted`].
    pub fn checkpoint(&self) -> SweepCheckpoint {
        let seq = self.seq.as_ref();
        SweepCheckpoint {
            fingerprint: netlist_fingerprint(self.original),
            primed: self.primed,
            engine: self.engine,
            config: self.config,
            round: self.round,
            phase: self.phase.clone(),
            merge_log: self.merge_log.clone(),
            classes: self
                .classes
                .classes()
                .iter()
                .map(|c| (c.members().to_vec(), c.phases().to_vec()))
                .collect(),
            constants: self.classes.constants().to_vec(),
            stats: self.stats,
            committed_candidates: self.committed_candidates,
            simulation_time: self.simulation_time,
            sat_time: self.sat_time,
            elapsed: self.elapsed_base + self.started.elapsed(),
            solver: self.sat.snapshot(),
            seq_candidates: seq.map_or(0, |s| s.candidates.len() as u64),
            seq_ternary_constants: seq.map_or(0, |s| s.constants.len() as u64),
            seq_induction_refuted: seq.map_or(0, |s| s.refuted),
            seq_induction_undet: seq.map_or(0, |s| s.undet),
        }
    }

    /// Executes the remaining phases and returns the result.
    ///
    /// On budget exhaustion the partial result — every merge proved so far,
    /// functionally equivalent to the input — is returned inside
    /// [`SweepError::BudgetExhausted`], together with a resumable
    /// checkpoint of the stop point.
    pub fn run(mut self) -> Result<SweepResult, SweepError> {
        self.execute();
        let stopped = self.stopped;
        let checkpoint = self.stop_checkpoint.take();
        let result = self.finish();
        match stopped {
            None => Ok(result),
            Some(cause) => Err(SweepError::BudgetExhausted {
                cause,
                partial: Box::new(result),
                checkpoint,
            }),
        }
    }

    /// Drives the phase machine until the run completes or the budget
    /// stops it (recording the stop-point checkpoint).
    fn execute(&mut self) {
        if self.stopped.is_some() {
            // Pre-tripped budget: nothing was primed, nothing to resume.
            return;
        }
        loop {
            match &self.phase {
                Phase::Start if self.seq.is_some() => {
                    self.phase = Phase::Latches { next: 0 };
                }
                Phase::Start => {
                    self.phase = if self.config.constant_substitution {
                        Phase::Constants { next: 0 }
                    } else {
                        self.merging_entry_phase()
                    };
                }
                Phase::Latches { .. } => {
                    if !self.step_latches() {
                        return;
                    }
                }
                Phase::Constants { .. } => {
                    if !self.step_constants() {
                        return;
                    }
                }
                Phase::Merging { .. } => {
                    if !self.step_merging() {
                        return;
                    }
                }
                Phase::Done => return,
            }
        }
    }

    /// Checks the budget; returns `false` (and records the cause) once the
    /// run must stop.
    fn within_budget(&mut self) -> bool {
        if self.stopped.is_some() {
            return false;
        }
        match self
            .budget
            .exceeded(self.started, self.stats.sat_calls_total())
        {
            Some(cause) => {
                self.stopped = Some(cause);
                false
            }
            None => true,
        }
    }

    /// Records the stop-point checkpoint when a budget stop is observed
    /// (skipped for unprimed sessions — there is nothing to resume).
    fn capture_stop_checkpoint(&mut self) {
        if self.primed {
            self.stop_checkpoint = Some(Box::new(self.checkpoint()));
        }
    }

    /// Delivers an event to the internal stats counter (from which the
    /// report is derived) and then to the user observer.
    fn notify(&mut self, event: impl Fn(&mut dyn Observer)) {
        event(&mut self.stats);
        if let Some(obs) = self.observer.as_mut() {
            event(&mut **obs);
        }
    }

    // ------------------------------------------------------------------
    // SAT queries (timed, counted, observed).
    // ------------------------------------------------------------------

    /// Runs one sweeping query on the session solver: timed, counted and
    /// reported to the observers.  Callers check the budget first.
    fn query(
        &mut self,
        run: impl FnOnce(&mut CircuitSat<'n>, u64) -> EquivOutcome,
    ) -> EquivOutcome {
        let sat_start = Instant::now();
        let outcome = run(&mut self.sat, self.config.conflict_limit);
        self.sat_time += sat_start.elapsed();
        let call = match outcome {
            EquivOutcome::Equivalent => SatCallOutcome::Unsat,
            EquivOutcome::CounterExample(_) => SatCallOutcome::Sat,
            EquivOutcome::Undetermined => SatCallOutcome::Undetermined,
        };
        self.notify(|o| o.on_sat_call(call));
        outcome
    }

    // ------------------------------------------------------------------
    // Phase: constant-node substitution.
    // ------------------------------------------------------------------

    /// Processes constant candidates until the phase completes (`true`) or
    /// the budget stops the run (`false`, stop checkpoint captured).
    fn step_constants(&mut self) -> bool {
        loop {
            let Phase::Constants { next } = self.phase else {
                unreachable!("step_constants runs in the constants phase")
            };
            // The sorted constant candidates only shrink: a counter-example
            // drops those it refutes, and a settled one leaves.  So the
            // candidates from the cursor on are exactly those still to prove.
            let constants = self.classes.constants();
            let Some(&candidate) = constants.get(constants.partition_point(|c| c.node < next))
            else {
                self.phase = self.merging_entry_phase();
                return true;
            };
            if self.refs[candidate.node] == 0 {
                self.notify(|o| o.on_dead_candidate(candidate.node));
                self.phase = Phase::Constants {
                    next: candidate.node + 1,
                };
                continue;
            }
            if !self.within_budget() {
                self.capture_stop_checkpoint();
                return false;
            }
            let lit = Lit::positive(candidate.node);
            match self.query(|sat, limit| sat.prove_constant(lit, candidate.value, limit)) {
                EquivOutcome::Equivalent => {
                    let constant = if candidate.value {
                        Lit::TRUE
                    } else {
                        Lit::FALSE
                    };
                    self.apply_merge(candidate.node, constant);
                }
                EquivOutcome::CounterExample(ce) => self.refine_with_counterexample(&ce),
                EquivOutcome::Undetermined => self.classes.remove(candidate.node),
            }
            self.phase = Phase::Constants {
                next: candidate.node + 1,
            };
            self.committed_candidates += 1;
        }
    }

    /// The initial merging-phase cursor: every AND node pending, the next
    /// candidate last.  The canonical order is forward topological for the
    /// baseline and reverse topological for the STP engine (Algorithm 2
    /// traverses the circuit from outputs to inputs).
    fn merging_entry_phase(&self) -> Phase {
        let mut pending: Vec<(NodeId, usize)> = self.original.and_ids().map(|c| (c, 0)).collect();
        if self.engine == Engine::Baseline {
            pending.reverse();
        }
        Phase::Merging { pending }
    }

    // ------------------------------------------------------------------
    // Phase: latch pairs (sequential sweeps).
    // ------------------------------------------------------------------

    /// Proves the latch pairs by the fixed query sequence base₀, step₀,
    /// base₁, step₁, …, where a base that does not prove its pair skips the
    /// pair's step.  Returns `true` when the candidates run out, `false` on
    /// a budget stop (with the stop checkpoint captured).
    fn step_latches(&mut self) -> bool {
        loop {
            let Phase::Latches { next } = self.phase else {
                unreachable!("step_latches runs in the latch phase")
            };
            let plan = self.seq.as_ref().expect("a sequential session is primed");
            let Some(&candidate) = plan.candidates.get(next / 2) else {
                self.phase = Phase::Done;
                return true;
            };
            let trace_len = plan.trace_len;
            if !self.within_budget() {
                self.capture_stop_checkpoint();
                return false;
            }
            let violation = [candidate.base, candidate.step][next % 2];
            let outcome = self.query(|sat, limit| sat.prove_constant(violation, false, limit));
            let plan = self.seq.as_mut().expect("a sequential session is primed");
            let settled = match (outcome, next % 2 == 1) {
                (EquivOutcome::Equivalent, false) => false,
                (EquivOutcome::Equivalent, true) => {
                    self.merge_log.push(candidate.merge);
                    self.notify(|o| o.on_merge(candidate.merge.0, candidate.merge.1));
                    true
                }
                (EquivOutcome::CounterExample(trace), false) => {
                    plan.refuted += 1;
                    self.notify(|o| o.on_counterexample(&trace[..trace_len]));
                    true
                }
                // An undetermined base, or a step that is undetermined or
                // satisfiable: the induction hypothesis admits unreachable
                // states, so a satisfiable step only means the depth was
                // too shallow.
                _ => {
                    plan.undet += 1;
                    true
                }
            };
            let next = if settled { next / 2 * 2 + 2 } else { next + 1 };
            self.phase = Phase::Latches { next };
            self.committed_candidates += u64::from(settled);
        }
    }

    // ------------------------------------------------------------------
    // Phase: pairwise merging.
    // ------------------------------------------------------------------

    /// The class in which `candidate` waits to be settled, given the
    /// driver attempts it has consumed.  `None` means the candidate is
    /// settled: out of attempts, classless (as every merged or undetermined
    /// candidate is), or its class's representative.
    fn open_class(&self, candidate: NodeId, attempts: usize) -> Option<&EquivClass> {
        if attempts >= self.config.tfi_limit {
            return None;
        }
        let class = self.classes.class_of(candidate)?;
        (class.representative() != candidate).then_some(class)
    }

    /// The pairwise-merging phase: the candidate on top of the pending
    /// queue takes proof steps until it settles; a counter-example refines
    /// the classes and the candidate retries with its remaining drivers.
    /// A candidate that reaches no output at its turn is skipped.  Returns
    /// `true` when the queue drains, `false` on a budget stop (with the
    /// stop checkpoint captured).
    ///
    /// A merge can revive nodes (see [`SweepSession::apply_merge`]), all of
    /// them topologically before the candidate.  The STP engine has not
    /// reached them yet; the baseline has, so it pushes them back, smallest
    /// on top.  An undetermined one has no class, so it is popped again
    /// with no event.
    fn step_merging(&mut self) -> bool {
        // Take the cursor out of `self.phase` while mutating it; it is
        // written back before any stop checkpoint is captured.
        let Phase::Merging { mut pending } = std::mem::replace(&mut self.phase, Phase::Done) else {
            unreachable!("step_merging runs in the merging phase")
        };
        while let Some(&(candidate, attempts)) = pending.last() {
            let Some(class) = self.open_class(candidate, attempts) else {
                pending.pop();
                continue;
            };
            if self.refs[candidate] == 0 {
                self.notify(|o| o.on_dead_candidate(candidate));
                pending.pop();
                continue;
            }
            // The members before the candidate, bounded by the TFI limit.
            // Members are sorted, so the representative comes first and
            // the list is never empty.
            let candidate_phase = class.phase_of(candidate);
            let drivers: Vec<(NodeId, bool)> = class
                .members()
                .iter()
                .zip(class.phases())
                .take_while(|&(&m, _)| m < candidate)
                .map(|(&m, &phase)| (m, phase != candidate_phase))
                .take(self.config.tfi_limit - attempts)
                .collect();
            let Some((step, used)) = self.prove_step(candidate, &drivers) else {
                self.phase = Phase::Merging { pending };
                self.capture_stop_checkpoint();
                return false;
            };
            let mut revived = Vec::new();
            let settled = match step {
                Step::Merge(replacement) => {
                    revived = self.apply_merge(candidate, replacement);
                    true
                }
                Step::CounterExample(assignment) => {
                    self.refine_with_counterexample(&assignment);
                    false
                }
                Step::Undetermined => {
                    self.classes.remove(candidate);
                    true
                }
                Step::Exhausted => true,
            };
            if settled {
                pending.pop();
                self.committed_candidates += 1;
                if self.engine == Engine::Baseline {
                    revived.sort_unstable_by(|a, b| b.cmp(a));
                    pending.extend(revived.into_iter().map(|node| (node, 0)));
                }
            } else if let Some(top) = pending.last_mut() {
                top.1 = attempts + used;
            }
        }
        self.phase = Phase::Done;
        true
    }

    /// One proof step for `candidate`: the window verdicts over `drivers`
    /// (STP engine), stopping at the first window proof or at the first
    /// driver a window cannot settle, whose pair then gets one SAT query.
    /// Returns the outcome and the number of drivers consumed — or `None`,
    /// having committed nothing, when the budget stops the run before the
    /// query; a resumed run repeats the step.
    fn prove_step(
        &mut self,
        candidate: NodeId,
        drivers: &[(NodeId, bool)],
    ) -> Option<(Step, usize)> {
        let windows = self.windows.as_ref();
        let mut verdicts = Vec::new();
        let mut proved = None;
        let mut query = None;
        for &(driver, complemented) in drivers {
            let replacement = Lit::new(driver, complemented);
            match windows.and_then(|w| w.compare(self.original, candidate, driver, complemented)) {
                Some(false) => verdicts.push((driver, false)),
                Some(true) => {
                    verdicts.push((driver, true));
                    proved = Some(replacement);
                    break;
                }
                None => {
                    query = Some(replacement);
                    break;
                }
            }
        }
        if query.is_some() && !self.within_budget() {
            return None;
        }
        let used = verdicts.len() + usize::from(query.is_some());
        for (driver, equivalent) in verdicts {
            self.notify(|o| o.on_simulation_verdict(candidate, driver, equivalent));
        }
        let step = match (proved, query) {
            (Some(replacement), _) => Step::Merge(replacement),
            (None, Some(replacement)) => {
                let lit = Lit::positive(candidate);
                match self.query(|sat, limit| sat.prove_equivalent(lit, replacement, limit)) {
                    EquivOutcome::Equivalent => Step::Merge(replacement),
                    EquivOutcome::CounterExample(assignment) => Step::CounterExample(assignment),
                    EquivOutcome::Undetermined => Step::Undetermined,
                }
            }
            (None, None) => Step::Exhausted,
        };
        Some((step, used))
    }

    /// Applies a proved merge: records `replacement` for `candidate` in
    /// `merged`, which redirects the candidate's fanouts, and moves the
    /// candidate's live references with them.  A dead replacement revives
    /// with its dead cone; the candidate's own cone then loses the
    /// candidate's references (ABC's `Aig_NodeRef_rec` and
    /// `Aig_NodeDeref_rec`).  Returns the AND nodes the merge revived.
    fn apply_merge(&mut self, candidate: NodeId, replacement: Lit) -> Vec<NodeId> {
        self.merged[candidate] = Some(replacement);
        self.merge_log.push((candidate, replacement));
        self.classes.remove(candidate);
        self.notify(|o| o.on_merge(candidate, replacement));

        // Both phases skip dead candidates, so the candidate is live.
        let moved = std::mem::take(&mut self.refs[candidate]);
        debug_assert!(moved > 0, "a merged candidate reaches an output");
        let target = replacement.node();
        let mut revived = Vec::new();
        if self.refs[target] == 0 {
            revived.push(target);
        }
        self.refs[target] += moved;
        let mut next = 0;
        while let Some(&node) = revived.get(next) {
            next += 1;
            for fanin in fanin_nodes(self.original, &self.merged, node) {
                self.refs[fanin] += 1;
                if self.refs[fanin] == 1 {
                    revived.push(fanin);
                }
            }
        }
        let mut dying = vec![candidate];
        while let Some(node) = dying.pop() {
            for fanin in fanin_nodes(self.original, &self.merged, node) {
                self.refs[fanin] -= 1;
                if self.refs[fanin] == 0 {
                    dying.push(fanin);
                }
            }
        }
        revived.retain(|&node| self.original.node(node).is_and());
        revived
    }

    /// Resimulates a counter-example and refines the candidate classes.
    ///
    /// Both engines evaluate **only the nodes that are still merge
    /// candidates** (class members and constant candidates) on the new
    /// pattern, through a single-bit sweep of their transitive fanin (see
    /// [`crate::resim`]); every class then splits in two by the pattern.
    /// The outcome equals re-priming the classes with the pattern appended,
    /// because class members agree on every earlier pattern by
    /// construction.
    fn refine_with_counterexample(&mut self, counterexample: &[bool]) {
        self.notify(|o| o.on_counterexample(counterexample));
        let sim_start = Instant::now();
        let targets: Vec<NodeId> = self
            .classes
            .classes()
            .iter()
            .flat_map(|c| c.members().iter().copied())
            .chain(self.classes.constants().iter().map(|c| c.node))
            .collect();
        let (values, evaluated) =
            resim::eval_pattern_targets(self.original, counterexample, &targets);
        let skipped = self.original.num_ands() - evaluated;
        self.notify(|o| o.on_resimulation(targets.len(), evaluated, skipped));
        let moved = self.classes.refine(&values);
        self.simulation_time += sim_start.elapsed();
        let num_classes = self.classes.classes().len();
        self.notify(|o| o.on_class_refined(num_classes, moved));
    }

    // ------------------------------------------------------------------
    // Cleanup and reporting.
    // ------------------------------------------------------------------

    /// Builds the result — the input cleaned up with the proved merges
    /// substituted, or with a sequential sweep's latch substitutions
    /// applied — and derives the report from the internal stats counter
    /// plus the session's own gate/time measurements.
    fn finish(self) -> SweepResult {
        let cleaned = match &self.seq {
            Some(plan) => {
                sequential::rebuild(self.original, plan.constants.iter().chain(&self.merge_log))
            }
            None => self.original.cleanup(&self.merged).0,
        };
        let mut report = self.stats.counts();
        report.gates_before = self.original.num_ands();
        report.levels = self.original.depth();
        report.gates_after = cleaned.num_ands();
        if self.config.seq_depth > 0 {
            report.seq_latches_before = self.original.num_latches();
            report.seq_latches_after = cleaned.num_latches();
        }
        if let Some(plan) = &self.seq {
            report.seq_candidates = plan.candidates.len() as u64;
            report.seq_ternary_constants = plan.constants.len() as u64;
            report.seq_induction_refuted = plan.refuted;
            report.seq_induction_undet = plan.undet;
            report.ternary_iterations = plan.ternary_iterations;
        }
        report.simulation_time = self.simulation_time;
        report.sat_time = self.sat_time;
        report.total_time = self.elapsed_base + self.started.elapsed();
        SweepResult {
            aig: cleaned,
            report,
        }
    }
}

/// The node that stands for `node` once the merges are applied: its
/// replacement's node, then that one's, and so on.  The chain ends
/// because each replacement precedes its node.
fn resolve(merged: &[Option<Lit>], mut node: NodeId) -> NodeId {
    while let Some(replacement) = merged[node] {
        node = replacement.node();
    }
    node
}

/// The fanin nodes of `node` in `aig` with the merges applied (none for
/// an input or the constant node).
fn fanin_nodes(aig: &Aig, merged: &[Option<Lit>], node: NodeId) -> impl Iterator<Item = NodeId> {
    let fanins = match *aig.node(node) {
        AigNode::And { fanin0, fanin1 } => {
            Some([fanin0, fanin1].map(|fanin| resolve(merged, fanin.node())))
        }
        _ => None,
    };
    fanins.into_iter().flatten()
}

/// The live-reference count of every node of `aig` with the merges
/// applied: one per output that it drives and one per fanin edge from an
/// AND that itself has a live reference.  A node whose count is 0 reaches
/// no output, and so does every merged node.
fn live_refs(aig: &Aig, merged: &[Option<Lit>]) -> Vec<u32> {
    let mut refs = vec![0u32; aig.num_nodes()];
    for output in aig.outputs() {
        refs[resolve(merged, output.lit.node())] += 1;
    }
    // Fanouts follow their fanins, so a node's count is final when the
    // reverse sweep reaches it.
    for node in (0..aig.num_nodes()).rev() {
        if refs[node] > 0 {
            for fanin in fanin_nodes(aig, merged, node) {
                refs[fanin] += 1;
            }
        }
    }
    refs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::CancelToken;
    use crate::cec::check_equivalence;
    use crate::equiv::ConstantCandidate;
    use netlist::aiger::write_aiger_string;

    /// A circuit with planted redundancy: the same functions built twice
    /// with different structure, plus a constant-false cone.
    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let f1 = aig.and(xs[0], xs[1]);
        let g1 = aig.xor(xs[2], xs[3]);
        let h1 = aig.maj(xs[3], xs[4], xs[5]);
        let f2_a = aig.nand(xs[0], xs[1]);
        let f2 = !f2_a;
        let g2_t = aig.or(xs[2], xs[3]);
        let g2_b = aig.nand(xs[2], xs[3]);
        let g2 = aig.and(g2_t, g2_b);
        let h2_ab = aig.and(xs[3], xs[4]);
        let h2_ac = aig.and(xs[3], xs[5]);
        let h2_bc = aig.and(xs[4], xs[5]);
        let h2_t = aig.or(h2_ab, h2_ac);
        let h2 = aig.or(h2_t, h2_bc);
        let c_t = aig.and(xs[0], xs[2]);
        let c = aig.and(c_t, !xs[0]);
        let o1 = aig.xor(f1, g2);
        let o2 = aig.xor(f2, g1);
        let o3 = aig.or(h1, c);
        let o4 = aig.and(h2, o1);
        aig.add_output("o1", o1);
        aig.add_output("o2", o2);
        aig.add_output("o3", o3);
        aig.add_output("o4", o4);
        aig
    }

    /// A circuit with dangling logic: compact originals that no output
    /// reads come first, then live duplicates built differently, which
    /// merge back into them, then a dangling duplicate.  One dead original
    /// repeats earlier live logic (`x0 ⊕ x1` as a plain xor), so the
    /// baseline skips that node and requeues it once a merge revives it.
    fn dangling_circuit() -> Aig {
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 6);
        let g_t = aig.or(xs[0], xs[1]);
        let g_b = aig.nand(xs[0], xs[1]);
        let g = aig.and(g_t, g_b);
        let f = aig.and(xs[1], xs[5]);
        let g1 = aig.xor(xs[0], xs[1]);
        let _d = aig.and(f, g1);
        let _h = aig.maj(xs[0], xs[2], xs[5]);
        // x1 ∧ (x5 ∨ x2) ∧ (x5 ∨ ¬x2) = x1 ∧ x5.
        let p = aig.or(xs[5], xs[2]);
        let q = aig.or(xs[5], !xs[2]);
        let pq = aig.and(p, q);
        let f2 = aig.and(xs[1], pq);
        let d2 = aig.and(f2, g);
        let o25 = aig.or(xs[2], xs[5]);
        let a25 = aig.and(xs[2], xs[5]);
        let h2 = aig.mux(xs[0], o25, a25);
        let o05 = aig.or(xs[0], xs[5]);
        let a05 = aig.and(xs[0], xs[5]);
        let _h3 = aig.mux(xs[2], o05, a05);
        let o1 = aig.xor(d2, xs[3]);
        let o2 = aig.or(h2, f2);
        aig.add_output("o1", o1);
        aig.add_output("o2", o2);
        aig
    }

    /// Records the candidates skipped as dead and the merged ones.
    #[derive(Default)]
    struct SkipLog {
        skipped: Vec<NodeId>,
        merged: Vec<NodeId>,
    }

    impl Observer for SkipLog {
        fn on_dead_candidate(&mut self, candidate: NodeId) {
            self.skipped.push(candidate);
        }
        fn on_merge(&mut self, candidate: NodeId, _replacement: Lit) {
            self.merged.push(candidate);
        }
    }

    /// Few random patterns: plenty of SAT traffic.
    fn sat_heavy_config() -> SweepConfig {
        SweepConfig {
            num_initial_patterns: 4,
            sat_guided_patterns: false,
            ..SweepConfig::default()
        }
    }

    /// Windows of three leaves settle only some of the dangling circuit's
    /// pairs, so the STP engine still queries SAT on it.
    fn dangling_config() -> SweepConfig {
        sat_heavy_config().with_window_limit(3)
    }

    #[test]
    fn dead_candidates_are_skipped_and_the_baseline_requeues_revived_ones() {
        let aig = dangling_circuit();
        for engine in [Engine::Stp, Engine::Baseline] {
            let mut log = SkipLog::default();
            let result = Sweeper::new(engine)
                .config(dangling_config())
                .observer(&mut log)
                .run(&aig)
                .expect("runs");
            assert!(result.report.dead_skips > 0, "{engine} skips");
            assert_eq!(result.report.dead_skips, log.skipped.len() as u64);
            // A skipped node merged later was revived and requeued: only
            // the baseline has passed the nodes a merge revives.
            let requeued = log.skipped.iter().any(|n| log.merged.contains(n));
            assert_eq!(requeued, engine == Engine::Baseline, "{engine}");
            assert!(check_equivalence(&aig, &result.aig, 100_000).equivalent);
        }
    }

    #[test]
    fn a_live_duplicate_merges_into_its_dead_compact_original() {
        // x0 ⊕ x1: compact and dangling, then a five-AND live copy.
        let mut aig = Aig::new();
        let xs = aig.add_inputs("x", 3);
        let _compact = aig.xor(xs[0], xs[1]);
        let t = aig.or(xs[0], xs[1]);
        let b = aig.nand(xs[0], xs[1]);
        let inner = aig.and(t, b);
        let s = aig.or(xs[2], t);
        let live = aig.and(inner, s);
        aig.add_output("y", live);
        // The same plus a dangling copy: (x0 ∨ x1) ∧ ¬(x0 x1 x2) ∧ ¬(x0 x1 ¬x2).
        let mut dangling = aig.clone();
        let both = !b;
        let u = dangling.and(both, xs[2]);
        let v = dangling.and(both, !xs[2]);
        let w = dangling.and(t, !u);
        let _copy = dangling.and(w, !v);
        for engine in [Engine::Stp, Engine::Baseline] {
            let sweep = |aig: &Aig| {
                Sweeper::new(engine)
                    .config(sat_heavy_config())
                    .run(aig)
                    .expect("runs")
            };
            let plain = sweep(&aig);
            assert_eq!(plain.report.gates_after, 3, "{engine}: the compact xor");
            let with_copy = sweep(&dangling);
            assert_eq!(with_copy.report.gates_after, 3, "{engine}");
            assert_eq!(
                with_copy.report.sat_calls_total, plain.report.sat_calls_total,
                "{engine}: the dangling copy costs no SAT call"
            );
            assert!(with_copy.report.dead_skips > plain.report.dead_skips);
        }
    }

    #[test]
    fn builder_run_matches_defaults() {
        let aig = redundant_circuit();
        let result = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        assert!(result.aig.num_ands() < aig.num_ands());
        assert!(check_equivalence(&aig, &result.aig, 100_000).equivalent);
    }

    #[test]
    fn stp_sweep_substitutes_the_planted_constant() {
        let aig = redundant_circuit();
        let result = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        assert!(result.report.constants >= 1, "the constant cone is found");
        let r = &result.report;
        assert_eq!(
            r.sat_calls_total,
            r.sat_calls_sat + r.sat_calls_unsat + r.sat_calls_undet
        );
        assert!(r.gates_after <= r.gates_before);
        assert!(r.total_time >= r.sat_time);
    }

    #[test]
    fn sweep_is_idempotent_on_irredundant_networks() {
        let aig = redundant_circuit();
        let once = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        let twice = Sweeper::new(Engine::Stp).run(&once.aig).expect("runs");
        assert_eq!(once.aig.num_ands(), twice.aig.num_ands());
        assert_eq!(twice.report.merges, 0);
    }

    #[test]
    fn window_refinement_reduces_sat_calls() {
        let aig = redundant_circuit();
        let with_windows = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        let without_windows = Sweeper::new(Engine::Stp)
            .config(SweepConfig {
                window_refinement: false,
                ..SweepConfig::default()
            })
            .run(&aig)
            .expect("runs");
        assert!(
            with_windows.report.sat_calls_total <= without_windows.report.sat_calls_total,
            "window refinement must not increase SAT calls ({} vs {})",
            with_windows.report.sat_calls_total,
            without_windows.report.sat_calls_total
        );
        assert_eq!(with_windows.aig.num_ands(), without_windows.aig.num_ands());
    }

    #[test]
    fn baseline_and_stp_agree_on_final_size() {
        let aig = redundant_circuit();
        let baseline = Sweeper::new(Engine::Baseline)
            .config(SweepConfig::baseline())
            .run(&aig)
            .expect("runs");
        let stp = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        // Both engines prove the same merges on this small circuit; only the
        // effort spent differs (cf. the "Result" column of Table II).
        assert!(baseline.aig.num_ands() < aig.num_ands());
        assert_eq!(baseline.aig.num_ands(), stp.aig.num_ands());
        assert!(check_equivalence(&aig, &baseline.aig, 100_000).equivalent);
    }

    #[test]
    fn baseline_ignores_stp_only_flags() {
        let aig = redundant_circuit();
        let result = Sweeper::new(Engine::Baseline)
            .config(SweepConfig {
                sat_guided_patterns: true,
                window_refinement: true,
                ..SweepConfig::baseline()
            })
            .run(&aig)
            .expect("runs");
        assert_eq!(result.report.proved_by_simulation, 0);
        assert_eq!(result.report.disproved_by_simulation, 0);
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let aig = redundant_circuit();
        // A window limit below 2 is rejected for both engines, even the
        // baseline, which never builds the window index.
        for config in [
            SweepConfig::default().with_patterns(0),
            SweepConfig::default().with_window_limit(0),
            SweepConfig::default().with_window_limit(1),
        ] {
            for engine in [Engine::Stp, Engine::Baseline] {
                let err = Sweeper::new(engine).config(config).run(&aig).unwrap_err();
                assert!(
                    matches!(err, SweepError::InvalidConfig(_)),
                    "{engine}, {config:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn external_stats_observer_matches_returned_report() {
        let aig = redundant_circuit();
        let mut stats = StatsObserver::new();
        let result = Sweeper::new(Engine::Stp)
            .observer(&mut stats)
            .run(&aig)
            .expect("runs");
        let r = &result.report;
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.merges, r.merges);
        assert_eq!(stats.constants, r.constants);
        assert_eq!(stats.sat_calls_sat, r.sat_calls_sat);
        assert_eq!(stats.sat_calls_unsat, r.sat_calls_unsat);
        assert_eq!(stats.sat_calls_undet, r.sat_calls_undet);
        assert_eq!(stats.sat_calls_total(), r.sat_calls_total);
        assert_eq!(stats.proved_by_simulation, r.proved_by_simulation);
        assert_eq!(stats.disproved_by_simulation, r.disproved_by_simulation);
        assert_eq!(stats.counterexamples, r.sat_calls_sat);
    }

    #[test]
    fn counterexamples_resimulate_incrementally() {
        let aig = redundant_circuit();
        for engine in [Engine::Stp, Engine::Baseline] {
            let mut stats = StatsObserver::new();
            let result = Sweeper::new(engine)
                .config(sat_heavy_config())
                .observer(&mut stats)
                .run(&aig)
                .expect("runs");
            let r = &result.report;
            assert_eq!(
                r.resim_events, r.sat_calls_sat,
                "one event per CE ({engine})"
            );
            assert_eq!(stats.resim_events, r.resim_events);
            assert_eq!(stats.resim_nodes, r.resim_nodes);
            assert_eq!(stats.resim_skipped_nodes, r.resim_skipped_nodes);
            if r.resim_events > 0 {
                // Incremental resimulation must touch fewer nodes than the
                // historical simulate_all-per-counter-example strategy.
                let full_cost = r.resim_events * aig.num_ands() as u64;
                assert!(
                    r.resim_nodes < full_cost,
                    "{engine}: {} resimulated vs {} full",
                    r.resim_nodes,
                    full_cost
                );
                assert_eq!(r.resim_nodes + r.resim_skipped_nodes, full_cost);
            }
            assert!(check_equivalence(&aig, &result.aig, 100_000).equivalent);
        }
    }

    #[test]
    fn zero_deadline_returns_equivalent_partial_result() {
        let aig = redundant_circuit();
        let err = Sweeper::new(Engine::Stp)
            .budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .run(&aig)
            .unwrap_err();
        let SweepError::BudgetExhausted {
            cause,
            partial,
            checkpoint,
        } = err
        else {
            panic!("expected budget exhaustion");
        };
        assert_eq!(cause, BudgetCause::Deadline);
        assert!(check_equivalence(&aig, &partial.aig, 100_000).equivalent);
        // Nothing was attempted: no SAT calls at all, and no checkpoint —
        // the budget tripped before the session was primed.
        assert_eq!(partial.report.sat_calls_total, 0);
        assert!(checkpoint.is_none());
    }

    #[test]
    fn sat_call_budget_truncates_but_stays_equivalent() {
        let aig = redundant_circuit();
        let unlimited = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        assert!(unlimited.report.sat_calls_total >= 1);

        // A zero-call budget trips before the first sweeping SAT query.
        let err = Sweeper::new(Engine::Stp)
            .budget(Budget::unlimited().with_max_sat_calls(0))
            .run(&aig)
            .unwrap_err();
        let partial = err.into_partial().expect("carries the partial result");
        assert_eq!(partial.report.sat_calls_total, 0);
        assert!(check_equivalence(&aig, &partial.aig, 100_000).equivalent);
    }

    #[test]
    fn pre_cancelled_token_stops_the_run() {
        let aig = redundant_circuit();
        let token = CancelToken::new();
        token.cancel();
        let err = Sweeper::new(Engine::Stp)
            .budget(Budget::unlimited().with_cancel_token(token))
            .run(&aig)
            .unwrap_err();
        let SweepError::BudgetExhausted { cause, partial, .. } = err else {
            panic!("expected budget exhaustion");
        };
        assert_eq!(cause, BudgetCause::Cancelled);
        assert!(check_equivalence(&aig, &partial.aig, 100_000).equivalent);
    }

    #[test]
    fn session_exposes_engine_config_and_candidates() {
        let aig = redundant_circuit();
        let session = Sweeper::new(Engine::Baseline)
            .config(SweepConfig {
                sat_guided_patterns: true, // normalised away for the baseline
                ..SweepConfig::default()
            })
            .begin(&aig)
            .expect("valid config");
        assert_eq!(session.engine(), Engine::Baseline);
        assert!(!session.config().sat_guided_patterns);
        assert!(session.num_candidates() > 0);
        let result = session.run().expect("runs");
        assert!(check_equivalence(&aig, &result.aig, 100_000).equivalent);
    }

    // ------------------------------------------------------------------
    // Checkpoint/resume.
    // ------------------------------------------------------------------

    /// Strips the time fields (measurements, not results) for identity
    /// comparisons.
    fn strip(r: &crate::report::SweepReport) -> crate::report::SweepReport {
        crate::report::SweepReport {
            simulation_time: Duration::ZERO,
            sat_time: Duration::ZERO,
            total_time: Duration::ZERO,
            ..*r
        }
    }

    #[test]
    fn checkpoint_resume_at_every_sat_boundary_is_identity() {
        let mut refuted_ahead = false;
        for (name, aig, config) in [
            ("redundant", redundant_circuit(), sat_heavy_config()),
            ("dangling", dangling_circuit(), dangling_config()),
        ] {
            for engine in [Engine::Stp, Engine::Baseline] {
                let cuts = assert_resume_at_every_sat_boundary(&aig, engine, config, name);
                refuted_ahead |= engine == Engine::Stp && cuts > 0;
            }
        }
        // The constant cursor must skip what a counter-example refuted.
        assert!(
            refuted_ahead,
            "some STP cut stops in the constant phase before a refuted candidate"
        );
    }

    /// Cancels the run after each of its SAT calls in turn and demands
    /// that every resumed run reproduces the uninterrupted one exactly.
    /// Returns the number of cuts that stop in the constant phase after a
    /// counter-example refuted a constant candidate the cursor had not
    /// reached yet.
    fn assert_resume_at_every_sat_boundary(
        aig: &Aig,
        engine: Engine,
        config: SweepConfig,
        name: &str,
    ) -> usize {
        let context = |cut: u64, total: u64| {
            format!("{name}, {engine}, cancelled after {cut} of {total} SAT calls")
        };
        let reference = Sweeper::new(engine).config(config).run(aig).expect("runs");
        let reference_aiger = write_aiger_string(&reference.aig);
        let total = reference.report.sat_calls_total;
        assert!(
            total >= 2,
            "workload must need SAT calls ({name}, {engine})"
        );
        let primed = Sweeper::new(engine)
            .config(config)
            .begin(aig)
            .expect("primes")
            .checkpoint()
            .constants;
        let mut refuted_ahead = 0;
        // `cut = 0` pre-trips the budget before priming (no checkpoint);
        // that boundary is covered by the begin()+checkpoint() test.
        for cut in 1..total {
            let err = Sweeper::new(engine)
                .config(config)
                .budget(Budget::unlimited().with_max_sat_calls(cut))
                .run(aig)
                .unwrap_err();
            let checkpoint = err
                .into_checkpoint()
                .expect("a primed budget stop carries a checkpoint");
            if let PhasePod::Constants { next } = checkpoint.phase {
                refuted_ahead += usize::from(
                    primed
                        .iter()
                        .any(|c| c.node >= next && !checkpoint.constants.contains(c)),
                );
            }
            // Round-trip through bytes: resume from the decoded copy.
            let decoded = SweepCheckpoint::decode(&checkpoint.encode()).expect("decodes");
            let resumed = Sweeper::new(engine)
                .resume_from(aig, &decoded)
                .expect("fingerprints match")
                .run()
                .expect("unlimited resume finishes");
            assert_eq!(
                strip(&resumed.report),
                strip(&reference.report),
                "{}",
                context(cut, total)
            );
            assert_eq!(
                write_aiger_string(&resumed.aig),
                reference_aiger,
                "{}",
                context(cut, total)
            );
        }
        refuted_ahead
    }

    #[test]
    fn session_checkpoint_before_running_resumes_to_identity() {
        let aig = redundant_circuit();
        let reference = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        let session = Sweeper::new(Engine::Stp).begin(&aig).expect("primes");
        let checkpoint = session.checkpoint();
        assert!(checkpoint.is_primed());
        assert_eq!(checkpoint.committed_candidates(), 0);
        drop(session);
        let resumed = Sweeper::new(Engine::Stp)
            .resume_from(&aig, &checkpoint)
            .expect("matches")
            .run()
            .expect("runs");
        assert_eq!(strip(&resumed.report), strip(&reference.report));
        assert_eq!(
            write_aiger_string(&resumed.aig),
            write_aiger_string(&reference.aig)
        );
    }

    #[test]
    fn resume_against_a_mutated_network_is_rejected() {
        let aig = redundant_circuit();
        let checkpoint = Sweeper::new(Engine::Stp)
            .config(sat_heavy_config())
            .budget(Budget::unlimited().with_max_sat_calls(1))
            .run(&aig)
            .unwrap_err()
            .into_checkpoint()
            .expect("checkpoint");
        let mut mutated = aig.clone();
        let extra = mutated.and(
            Lit::positive(mutated.inputs()[0]),
            Lit::positive(mutated.inputs()[1]),
        );
        mutated.add_output("extra", extra);
        let err = match Sweeper::new(Engine::Stp).resume_from(&mutated, &checkpoint) {
            Err(err) => err,
            Ok(_) => panic!("resuming against a mutated network must fail"),
        };
        assert!(matches!(err, SweepError::CheckpointMismatch(_)));
        assert!(err.to_string().contains("fingerprint"), "{err}");
    }

    #[test]
    fn checkpoints_naming_a_non_and_candidate_are_rejected() {
        let aig = redundant_circuit();
        let base = Sweeper::new(Engine::Stp)
            .begin(&aig)
            .expect("primes")
            .checkpoint();
        let input = aig.inputs()[0];
        let member = base.classes[0].0[1];

        let mut constant_node = base.clone();
        constant_node.constants = vec![ConstantCandidate {
            node: 0,
            value: false,
        }];
        constant_node.phase = PhasePod::Constants { next: 0 };
        let mut input_constant = base.clone();
        input_constant.constants = vec![ConstantCandidate {
            node: input,
            value: false,
        }];
        let mut input_member = base.clone();
        input_member.classes = vec![(vec![input, member], vec![false, false])];
        assert_resume_refuses(
            &aig,
            [
                ("the constant node as candidate", constant_node),
                ("an input as a constant candidate", input_constant),
                ("an input as a class representative", input_member),
            ],
        );
    }

    /// Resumes each checkpoint through its bytes, as a checkpoint from
    /// outside the process (the encoder writes a valid checksum, so only
    /// resume can object), and demands a typed mismatch.
    fn assert_resume_refuses<'a>(
        aig: &Aig,
        crafted: impl IntoIterator<Item = (&'a str, SweepCheckpoint)>,
    ) {
        for (what, checkpoint) in crafted {
            let decoded = SweepCheckpoint::decode(&checkpoint.encode()).expect("decodes");
            match Sweeper::new(Engine::Stp).resume_from(aig, &decoded) {
                Err(SweepError::CheckpointMismatch(_)) => {}
                Err(other) => panic!("{what}: expected CheckpointMismatch, got {other:?}"),
                Ok(_) => panic!("{what}: resume must refuse the checkpoint"),
            }
        }
    }

    /// Three identical latches (`q_i' = q_i ⊕ x`, all reset to 0): the
    /// candidates are `(q1 → q0)` and `(q2 → q0)`.
    fn triplicated_latch() -> Aig {
        let mut aig = Aig::new();
        let x = aig.add_input("x");
        let states: Vec<Lit> = (0..3)
            .map(|i| aig.add_latch(format!("q{i}"), netlist::LatchInit::Zero))
            .collect();
        for (l, &q) in states.iter().enumerate() {
            let next = aig.xor(q, x);
            aig.set_latch_next(l, next);
        }
        let y = aig.or_many(&states);
        aig.add_output("y", y);
        aig
    }

    #[test]
    fn crafted_sequential_checkpoints_are_rejected() {
        let aig = triplicated_latch();
        // Three calls: (q1 → q0) is merged and the base of (q2 → q0) is
        // proved; the stop falls before that pair's step.
        let stop = Sweeper::new(Engine::Stp)
            .config(SweepConfig::sequential(1))
            .budget(Budget::unlimited().with_max_sat_calls(3))
            .run(&aig)
            .unwrap_err()
            .into_checkpoint()
            .expect("a primed stop carries a checkpoint");
        let q = |i: usize| aig.latch_state_lit(i);
        assert_eq!(stop.phase, PhasePod::Latches { next: 3 });
        assert_eq!(stop.merge_log, vec![(q(1).node(), q(0))]);
        assert!(Sweeper::new(Engine::Stp).resume_from(&aig, &stop).is_ok());
        let combinational = Sweeper::new(Engine::Stp)
            .begin(&aig)
            .expect("primes")
            .checkpoint();
        let crafted = |edit: &dyn Fn(&mut SweepCheckpoint)| {
            let mut checkpoint = stop.clone();
            edit(&mut checkpoint);
            checkpoint
        };
        let cases = [
            (
                "a chain",
                crafted(&|c| c.merge_log = vec![(q(0).node(), q(1)), (q(1).node(), q(2))]),
            ),
            (
                "a self-merge",
                crafted(&|c| c.merge_log = vec![(q(1).node(), q(1))]),
            ),
            (
                "an entry past the cursor",
                crafted(&|c| c.merge_log.push((q(2).node(), q(0)))),
            ),
            (
                "a merging phase at seq_depth 1",
                crafted(&|c| c.phase = PhasePod::Merging { pending: vec![] }),
            ),
            (
                "a latch cursor out of range",
                crafted(&|c| c.phase = PhasePod::Latches { next: 6 }),
            ),
            (
                "a settled count that disagrees with the cursor",
                crafted(&|c| c.committed_candidates = u64::MAX),
            ),
            (
                "a solver of another network",
                crafted(&|c| c.solver = combinational.solver.clone()),
            ),
            (
                "a latch phase at seq_depth 0",
                SweepCheckpoint {
                    phase: PhasePod::Latches { next: 0 },
                    ..combinational.clone()
                },
            ),
        ];
        assert_resume_refuses(&aig, cases);
    }

    #[test]
    fn unprimed_checkpoint_resumes_by_repriming() {
        let aig = redundant_circuit();
        let session = Sweeper::new(Engine::Stp)
            .budget(Budget::unlimited().with_deadline(Duration::ZERO))
            .begin(&aig)
            .expect("begins (pre-tripped)");
        let checkpoint = session.checkpoint();
        assert!(!checkpoint.is_primed());
        let reference = Sweeper::new(Engine::Stp).run(&aig).expect("runs");
        let resumed = Sweeper::new(Engine::Stp)
            .resume_from(&aig, &checkpoint)
            .expect("matches")
            .run()
            .expect("runs");
        assert_eq!(strip(&resumed.report), strip(&reference.report));
    }

    /// Rebuilds `aig` gate-for-gate in a different (LIFO) topological
    /// order: the same circuit with renumbered nodes.
    fn renumbered_copy(aig: &Aig) -> Aig {
        let mut out = Aig::new();
        let mut map = vec![Lit::positive(0); aig.num_nodes()];
        for (position, &id) in aig.inputs().iter().enumerate() {
            map[id] = out.add_input(aig.input_name(position).to_string());
        }
        let mut remaining: Vec<NodeId> = aig.and_ids().collect();
        let mut placed: Vec<bool> = aig.node_ids().map(|id| !aig.node(id).is_and()).collect();
        while !remaining.is_empty() {
            let pos = (0..remaining.len())
                .rev()
                .find(|&i| {
                    aig.node(remaining[i])
                        .fanins()
                        .iter()
                        .all(|f| placed[f.node()])
                })
                .expect("an AIG is acyclic");
            let id = remaining.remove(pos);
            let fanins = aig.node(id).fanins();
            let a = map[fanins[0].node()].complement_if(fanins[0].is_complemented());
            let b = map[fanins[1].node()].complement_if(fanins[1].is_complemented());
            map[id] = out.and(a, b);
            placed[id] = true;
        }
        for output in aig.outputs() {
            let lit = map[output.lit.node()].complement_if(output.lit.is_complemented());
            out.add_output(output.name.clone(), lit);
        }
        out
    }

    #[test]
    fn resume_against_a_renumbered_network_is_refused() {
        let aig = redundant_circuit();
        let shuffled = renumbered_copy(&aig);
        // Genuinely renumbered, but canonically the same circuit.
        assert_ne!(
            netlist_fingerprint(&aig),
            netlist_fingerprint(&shuffled),
            "the rebuild must change node numbering for this test to bite"
        );
        assert_eq!(
            netlist::canonical_fingerprint(&aig),
            netlist::canonical_fingerprint(&shuffled)
        );

        let session = Sweeper::new(Engine::Stp)
            .config(SweepConfig::fast())
            .begin(&aig)
            .expect("begins");
        let checkpoint = session.checkpoint();
        assert!(!checkpoint.matches(&shuffled));

        // The merge log is bound to node ids, so resume refuses the
        // renumbered copy of the circuit.
        match Sweeper::new(Engine::Stp).resume_from(&shuffled, &checkpoint) {
            Err(SweepError::CheckpointMismatch(msg)) => {
                assert!(msg.contains("different network"), "{msg}");
            }
            Err(other) => panic!("expected CheckpointMismatch, got {other:?}"),
            Ok(_) => panic!("strict resume must refuse a renumbered network"),
        }

        // Resuming against the original still works, and the renumbered
        // copy sweeps to the same counters as the original (it is the same
        // circuit).
        let resumed = Sweeper::new(Engine::Stp)
            .resume_from(&aig, &checkpoint)
            .expect("matches")
            .run()
            .expect("runs");
        let fresh = Sweeper::new(Engine::Stp)
            .config(SweepConfig::fast())
            .run(&shuffled)
            .expect("runs");
        assert_eq!(fresh.report.merges, resumed.report.merges);
        assert_eq!(fresh.report.constants, resumed.report.constants);
    }

    /// Resumes `base` with its solver bytes replaced.  The checkpoint is
    /// re-encoded, so its checksum holds and only the solver decoder in
    /// `resume_from` can object.
    fn resume_with_solver<'a>(
        aig: &'a Aig,
        base: &SweepCheckpoint,
        solver: Vec<u8>,
    ) -> Result<SweepSession<'a, 'static>, SweepError> {
        let crafted = SweepCheckpoint {
            solver,
            ..base.clone()
        };
        let decoded = SweepCheckpoint::decode(&crafted.encode()).expect("the frame is intact");
        Sweeper::new(Engine::Stp).resume_from(aig, &decoded)
    }

    /// A primed session's checkpoint: priming's SAT-guided patterns leave
    /// encoded cones, selector clauses and search history in the solver.
    fn primed_checkpoint(aig: &Aig) -> SweepCheckpoint {
        let checkpoint = Sweeper::new(Engine::Stp)
            .begin(aig)
            .expect("primes")
            .checkpoint();
        assert!(resume_with_solver(aig, &checkpoint, checkpoint.solver.clone()).is_ok());
        checkpoint
    }

    #[test]
    fn solver_state_breaking_the_watch_invariant_is_refused() {
        let aig = redundant_circuit();
        let base = primed_checkpoint(&aig);
        // The solver bytes open with the arena's word count (eight bytes),
        // then the first clause: its header word, its activity (two words)
        // and its literal codes.  Negating the first literal leaves the
        // clause in the watch list of a literal it no longer holds.
        let mut solver = base.solver.clone();
        solver[20] ^= 1;
        match resume_with_solver(&aig, &base, solver) {
            Err(SweepError::CheckpointMismatch(msg)) => assert!(msg.contains("watch"), "{msg}"),
            Err(other) => panic!("expected CheckpointMismatch, got {other:?}"),
            Ok(_) => panic!("resume must refuse a broken watch list"),
        }
    }

    #[test]
    fn hostile_solver_state_is_refused_or_resumes_without_a_panic() {
        let aig = redundant_circuit();
        let base = primed_checkpoint(&aig);
        for len in 0..base.solver.len() {
            match resume_with_solver(&aig, &base, base.solver[..len].to_vec()) {
                Err(SweepError::CheckpointMismatch(_)) => {}
                Err(other) => panic!("cut at {len}: expected CheckpointMismatch, got {other:?}"),
                Ok(_) => panic!("cut at {len}: resume must refuse a truncated solver state"),
            }
        }
        let mut resumed = 0;
        for position in 0..base.solver.len() {
            let mut solver = base.solver.clone();
            solver[position] ^= 0xFF;
            match resume_with_solver(&aig, &base, solver) {
                Ok(session) => {
                    session
                        .run()
                        .expect("an unlimited resume runs to completion");
                    resumed += 1;
                }
                Err(SweepError::CheckpointMismatch(_)) => {}
                Err(other) => panic!("flip at {position}: got {other:?}"),
            }
        }
        // Flipped activities, phases and counters still parse.
        assert!(resumed > 0);
    }
}
