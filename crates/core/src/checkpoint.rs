//! Checkpoint/resume for sweeping sessions.
//!
//! A [`SweepCheckpoint`] is a versioned, self-describing snapshot of a
//! [`crate::SweepSession`] at a candidate boundary: the candidate
//! equivalence classes, the incremental-resimulation dirty set, the ordered
//! merge log, the phase cursor, the cumulative report counters — and,
//! crucially, a behaviour-exact snapshot of the session's incremental SAT
//! solver ([`satsolver::CircuitSatSnapshot`]).
//! CDCL solvers are history-dependent (learnt clauses, VSIDS activities,
//! saved phases steer every future query), so carrying its exact state is
//! what makes the headline guarantee possible: **cancel at any candidate
//! boundary, resume with [`crate::Sweeper::resume_from`], and the final SAT
//! calls, merges and AIGER bytes are identical to an uninterrupted run**.
//!
//! The on-disk format is a dependency-free little-endian binary codec with
//! an integrity header: an 8-byte magic, a format version and the
//! fingerprint of the netlist the checkpoint was taken against.  Decoding
//! truncated or corrupt bytes yields a typed [`CheckpointError`] (never a
//! panic), and resuming against a mutated network is rejected with
//! [`crate::SweepError::CheckpointMismatch`] instead of corrupting results.
//!
//! ```
//! use netlist::Aig;
//! use stp_sweep::{Engine, Sweeper};
//!
//! let mut aig = Aig::new();
//! let a = aig.add_input("a");
//! let b = aig.add_input("b");
//! let f = aig.and(a, b);
//! let g = aig.and(f, b); // redundant: equals f
//! let y = aig.xor(f, g);
//! aig.add_output("y", y);
//!
//! // Capture a primed session's state…
//! let session = Sweeper::new(Engine::Stp).begin(&aig).unwrap();
//! let checkpoint = session.checkpoint();
//! drop(session); // e.g. the process was preempted here
//!
//! // …which round-trips through bytes and resumes to the identical result.
//! let bytes = checkpoint.encode();
//! let restored = stp_sweep::SweepCheckpoint::decode(&bytes).unwrap();
//! let resumed = Sweeper::new(Engine::Stp).resume_from(&aig, &restored).unwrap();
//! let finished = resumed.run().expect("unlimited resume finishes");
//! let uninterrupted = Sweeper::new(Engine::Stp).run(&aig).unwrap();
//! assert_eq!(finished.report.merges, uninterrupted.report.merges);
//! ```

use crate::equiv::ConstantCandidate;
use crate::observer::StatsObserver;
use crate::report::SweepConfig;
use crate::session::Engine;
use netlist::{Aig, AigNode, Lit, NodeId};
use satsolver::{
    CircuitSatSnapshot, ClauseSnapshot, QueryStats, SatLit, SolverConfig, SolverSnapshot,
    SolverStats,
};
use std::fmt;
use std::time::Duration;

/// The 8-byte magic prefix of an encoded checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"STPSWCP\x01";

/// The checkpoint format version, the only one this build reads or
/// writes; any other version fails with
/// [`CheckpointError::UnsupportedVersion`].  Version 7 holds the session's
/// one solver and a pending-candidate cursor, and no pattern words: the
/// classes and the solver carry everything a resumed run reads.
/// Checkpoints are resumed by the build that wrote them, so older layouts
/// are not decoded.
pub const CHECKPOINT_VERSION: u32 = 7;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be decoded or used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the payload was complete.
    Truncated,
    /// The magic prefix is missing — not a checkpoint file.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The payload is structurally invalid (the message names the field).
    Corrupt(&'static str),
    /// An I/O error while reading or writing a checkpoint file.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint bytes are truncated"),
            CheckpointError::BadMagic => write!(f, "not a sweep checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => write!(
                f,
                "unsupported checkpoint format version {v} (this build reads \
                 version {CHECKPOINT_VERSION} only)"
            ),
            CheckpointError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CheckpointError> for crate::error::SweepError {
    fn from(err: CheckpointError) -> Self {
        crate::error::SweepError::CheckpointMismatch(err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Netlist fingerprint.
// ---------------------------------------------------------------------------

/// FNV-1a over raw bytes, used for the payload checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a fingerprint of an AIG's functional structure (nodes, fanins,
/// input positions and output literals; names are excluded — they do not
/// affect sweeping).  Checkpoints embed the fingerprint of the network they
/// were taken against, and [`crate::Sweeper::resume_from`] refuses to
/// resume against a network with a different fingerprint.
pub fn netlist_fingerprint(aig: &Aig) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(aig.num_nodes() as u64);
    mix(aig.num_inputs() as u64);
    mix(aig.num_outputs() as u64);
    for id in aig.node_ids() {
        match aig.node(id) {
            AigNode::Const0 => mix(1),
            AigNode::Input { position } => {
                mix(2);
                mix(*position as u64);
            }
            AigNode::And { fanin0, fanin1 } => {
                mix(3);
                mix(u64::from(fanin0.index()));
                mix(u64::from(fanin1.index()));
            }
        }
    }
    for output in aig.outputs() {
        mix(u64::from(output.lit.index()));
    }
    hash
}

// ---------------------------------------------------------------------------
// Phase pods: the serialisable execution cursor.
// ---------------------------------------------------------------------------

/// The serialisable execution cursor of a session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PhasePod {
    /// Primed, nothing proved yet.
    Start,
    /// Inside constant substitution: the frozen candidate queue and the
    /// next index to prove.
    Constants {
        queue: Vec<ConstantCandidate>,
        next: usize,
    },
    /// Inside pairwise merging: the candidates still to prove, each with
    /// the driver attempts it has consumed, the next candidate last.
    Merging { pending: Vec<(NodeId, usize)> },
    /// All phases complete.
    Done,
}

// ---------------------------------------------------------------------------
// The checkpoint itself.
// ---------------------------------------------------------------------------

/// A resumable snapshot of a sweeping session at a candidate boundary.
///
/// Obtain one from [`crate::SweepSession::checkpoint`], from the
/// `checkpoint` field of [`crate::SweepError::BudgetExhausted`], or through
/// [`crate::Observer::on_checkpoint`] when
/// [`crate::SweepConfig::checkpoint_interval`] is set.  Serialise with
/// [`SweepCheckpoint::encode`] / [`SweepCheckpoint::decode`] (or the
/// [`SweepCheckpoint::save`] / [`SweepCheckpoint::load`] file helpers) and
/// resume with [`crate::Sweeper::resume_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Fingerprint of the network the checkpoint was taken against.
    pub(crate) fingerprint: u64,
    /// Canonical (topological-order-invariant) fingerprint of the same
    /// network ([`netlist::canonical_fingerprint`]).  Used by services to
    /// recognise a resubmitted job whose parser renumbered the circuit.
    pub(crate) canonical_fingerprint: u64,
    /// Whether the session was primed (patterns generated, classes built).
    /// An unprimed checkpoint resumes by re-priming from scratch.
    pub(crate) primed: bool,
    pub(crate) engine: Engine,
    pub(crate) config: SweepConfig,
    pub(crate) round: usize,
    pub(crate) phase: PhasePod,
    /// Ordered log of applied merges (constants included): replaying it on
    /// a fresh copy of the input reconstructs the working network.
    pub(crate) merge_log: Vec<(NodeId, Lit)>,
    pub(crate) dont_touch: Vec<NodeId>,
    /// Raw class parts: (members, phases) per class, plus constants.
    pub(crate) classes: Vec<(Vec<NodeId>, Vec<bool>)>,
    pub(crate) constants: Vec<ConstantCandidate>,
    pub(crate) resim: crate::resim::ResimSnapshot,
    pub(crate) stats: StatsObserver,
    pub(crate) sweep_sat_calls: u64,
    pub(crate) committed_candidates: u64,
    pub(crate) simulation_time: Duration,
    pub(crate) sat_time: Duration,
    /// Wall-clock already consumed before this checkpoint (added to the
    /// resumed leg's elapsed time in the final report).
    pub(crate) elapsed: Duration,
    /// The session's incremental solver (pattern generation, constant
    /// proofs and pairwise merges).
    pub(crate) solver: CircuitSatSnapshot,
    /// Latch-correspondence candidates submitted to induction so far
    /// (sequential checkpoints only; zero otherwise).
    pub(crate) seq_candidates: u64,
    /// Latches substituted by constants from the ternary fixpoint alone.
    pub(crate) seq_ternary_constants: u64,
    /// Candidates refuted by a satisfiable base case so far.
    pub(crate) seq_induction_refuted: u64,
    /// Candidates left unknown (satisfiable step or exhausted budget) so far.
    pub(crate) seq_induction_undet: u64,
    /// Iterations the ternary fixpoint took (for report fidelity on resume).
    pub(crate) seq_ternary_iterations: u64,
}

impl SweepCheckpoint {
    /// The fingerprint of the network this checkpoint was taken against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// `true` if this checkpoint was taken against `aig` (same functional
    /// structure).
    pub fn matches(&self, aig: &Aig) -> bool {
        self.fingerprint == netlist_fingerprint(aig)
    }

    /// The canonical (renumbering-invariant) fingerprint of the network
    /// this checkpoint was taken against.  See
    /// [`netlist::canonical_fingerprint`].
    pub fn canonical_fingerprint(&self) -> u64 {
        self.canonical_fingerprint
    }

    /// `true` if this checkpoint was taken against the same circuit as
    /// `aig` *up to node renumbering*.  Such a checkpoint still cannot be
    /// resumed against `aig` directly — its merge log names concrete node
    /// ids — but a service can use this to route the job to the stored
    /// original netlist (see `sweepd`'s spill-adoption).
    pub fn matches_canonical(&self, aig: &Aig) -> bool {
        self.canonical_fingerprint != 0
            && self.canonical_fingerprint == netlist::canonical_fingerprint(aig)
    }

    /// The engine of the checkpointed run.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The (normalised) configuration of the checkpointed run.  Resuming
    /// always continues under this configuration — the builder's own config
    /// is ignored, because mixing configurations would break the identity
    /// guarantee.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Whether the session was primed when the checkpoint was taken.  An
    /// unprimed checkpoint (budget tripped before pattern generation)
    /// resumes by re-priming, which is itself deterministic.
    pub fn is_primed(&self) -> bool {
        self.primed
    }

    /// Committed candidates at the checkpoint (the progress cursor).
    pub fn committed_candidates(&self) -> u64 {
        self.committed_candidates
    }

    /// Committed sweeping SAT calls at the checkpoint.
    pub fn sat_calls(&self) -> u64 {
        self.sweep_sat_calls
    }

    /// Serialises the checkpoint into the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u64(self.fingerprint);
        w.u64(self.canonical_fingerprint);
        w.boolean(self.primed);
        w.u8(match self.engine {
            Engine::Baseline => 0,
            Engine::Stp => 1,
        });
        encode_config(&mut w, &self.config);
        w.usize(self.round);
        encode_phase(&mut w, &self.phase);
        w.usize(self.merge_log.len());
        for &(node, lit) in &self.merge_log {
            w.usize(node);
            w.u32(lit.index());
        }
        w.usize(self.dont_touch.len());
        for &node in &self.dont_touch {
            w.usize(node);
        }
        w.usize(self.classes.len());
        for (members, phases) in &self.classes {
            w.usize(members.len());
            for &m in members {
                w.usize(m);
            }
            for &p in phases {
                w.boolean(p);
            }
        }
        w.usize(self.constants.len());
        for c in &self.constants {
            w.usize(c.node);
            w.boolean(c.value);
        }
        w.usize(self.resim.last_seen.len());
        for &e in &self.resim.last_seen {
            w.u64(e);
        }
        w.u64(self.resim.events);
        w.u64(self.resim.resimulated);
        w.u64(self.resim.skipped);
        encode_stats(&mut w, &self.stats);
        w.u64(self.sweep_sat_calls);
        w.u64(self.committed_candidates);
        w.duration(self.simulation_time);
        w.duration(self.sat_time);
        w.duration(self.elapsed);
        encode_circuit_snapshot(&mut w, &self.solver);
        w.u64(self.seq_candidates);
        w.u64(self.seq_ternary_constants);
        w.u64(self.seq_induction_refuted);
        w.u64(self.seq_induction_undet);
        w.u64(self.seq_ternary_iterations);
        // Payload checksum (everything up to here, header included): bit
        // flips anywhere in the file are caught at decode time instead of
        // resuming into a silently different run.
        let checksum = fnv64(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Decodes a checkpoint from bytes, verifying the magic and format
    /// version.  Truncated or corrupt input yields a typed error, never a
    /// panic.  Structural validation against the resume target happens in
    /// [`crate::Sweeper::resume_from`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        // Header checks come first so wrong-file and wrong-version inputs
        // get their specific errors; the payload checksum then catches any
        // other corruption before field-level parsing starts.
        {
            let mut header = Reader::new(bytes);
            if header.bytes(8)? != CHECKPOINT_MAGIC {
                return Err(CheckpointError::BadMagic);
            }
            let version = header.u32()?;
            if version != CHECKPOINT_VERSION {
                return Err(CheckpointError::UnsupportedVersion(version));
            }
        }
        if bytes.len() < 8 + 4 + 8 {
            return Err(CheckpointError::Truncated);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("tail is eight bytes"));
        if fnv64(body) != stored {
            return Err(CheckpointError::Corrupt("payload checksum mismatch"));
        }
        let mut r = Reader::new(body);
        let _ = r.bytes(12)?; // magic and version, verified above
        let fingerprint = r.u64()?;
        let canonical_fingerprint = r.u64()?;
        let primed = r.boolean()?;
        let engine = match r.u8()? {
            0 => Engine::Baseline,
            1 => Engine::Stp,
            _ => return Err(CheckpointError::Corrupt("unknown engine tag")),
        };
        let config = decode_config(&mut r)?;
        let round = r.usize()?;
        let phase = decode_phase(&mut r)?;
        let merge_log = {
            let len = r.vec_len(12)?;
            let mut log = Vec::with_capacity(len);
            for _ in 0..len {
                let node = r.usize()?;
                let lit = Lit::from_index(r.u32()?);
                log.push((node, lit));
            }
            log
        };
        let dont_touch = r.usize_vec()?;
        let classes = {
            let len = r.vec_len(2)?;
            let mut classes = Vec::with_capacity(len);
            for _ in 0..len {
                let members = r.usize_vec()?;
                let mut phases = Vec::with_capacity(members.len());
                for _ in 0..members.len() {
                    phases.push(r.boolean()?);
                }
                classes.push((members, phases));
            }
            classes
        };
        let constants = {
            let len = r.vec_len(9)?;
            let mut constants = Vec::with_capacity(len);
            for _ in 0..len {
                let node = r.usize()?;
                let value = r.boolean()?;
                constants.push(ConstantCandidate { node, value });
            }
            constants
        };
        let resim = crate::resim::ResimSnapshot {
            last_seen: r.u64_vec()?,
            events: r.u64()?,
            resimulated: r.u64()?,
            skipped: r.u64()?,
        };
        let stats = decode_stats(&mut r)?;
        let sweep_sat_calls = r.u64()?;
        let committed_candidates = r.u64()?;
        let simulation_time = r.duration()?;
        let sat_time = r.duration()?;
        let elapsed = r.duration()?;
        let solver = decode_circuit_snapshot(&mut r)?;
        let seq_candidates = r.u64()?;
        let seq_ternary_constants = r.u64()?;
        let seq_induction_refuted = r.u64()?;
        let seq_induction_undet = r.u64()?;
        let seq_ternary_iterations = r.u64()?;
        if !r.is_empty() {
            return Err(CheckpointError::Corrupt("trailing bytes after payload"));
        }
        Ok(SweepCheckpoint {
            fingerprint,
            canonical_fingerprint,
            primed,
            engine,
            config,
            round,
            phase,
            merge_log,
            dont_touch,
            classes,
            constants,
            resim,
            stats,
            sweep_sat_calls,
            committed_candidates,
            simulation_time,
            sat_time,
            elapsed,
            solver,
            seq_candidates,
            seq_ternary_constants,
            seq_induction_refuted,
            seq_induction_undet,
            seq_ternary_iterations,
        })
    }

    /// Writes the encoded checkpoint to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        std::fs::write(path, self.encode()).map_err(|e| CheckpointError::Io(e.to_string()))
    }

    /// Reads and decodes a checkpoint file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        SweepCheckpoint::decode(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Component codecs.
// ---------------------------------------------------------------------------

fn encode_config(w: &mut Writer, c: &SweepConfig) {
    w.usize(c.num_initial_patterns);
    w.u64(c.conflict_limit);
    w.usize(c.tfi_limit);
    w.usize(c.window_limit);
    w.u64(c.seed);
    w.boolean(c.sat_guided_patterns);
    w.boolean(c.constant_substitution);
    w.boolean(c.window_refinement);
    w.usize(c.checkpoint_interval);
    w.u64(c.checkpoint_interval_millis);
    w.usize(c.seq_depth);
}

fn decode_config(r: &mut Reader<'_>) -> Result<SweepConfig, CheckpointError> {
    Ok(SweepConfig {
        num_initial_patterns: r.usize()?,
        conflict_limit: r.u64()?,
        tfi_limit: r.usize()?,
        window_limit: r.usize()?,
        seed: r.u64()?,
        sat_guided_patterns: r.boolean()?,
        constant_substitution: r.boolean()?,
        window_refinement: r.boolean()?,
        checkpoint_interval: r.usize()?,
        checkpoint_interval_millis: r.u64()?,
        seq_depth: r.usize()?,
    })
}

fn encode_stats(w: &mut Writer, s: &StatsObserver) {
    w.usize(s.rounds);
    w.usize(s.merges);
    w.usize(s.constants);
    w.u64(s.sat_calls_sat);
    w.u64(s.sat_calls_unsat);
    w.u64(s.sat_calls_undet);
    w.u64(s.proved_by_simulation);
    w.u64(s.disproved_by_simulation);
    w.u64(s.counterexamples);
    w.u64(s.refinements);
    w.u64(s.resim_events);
    w.u64(s.resim_nodes);
    w.u64(s.resim_skipped_nodes);
    w.u64(s.checkpoints);
    w.u64(s.checkpoint_bytes);
}

fn decode_stats(r: &mut Reader<'_>) -> Result<StatsObserver, CheckpointError> {
    Ok(StatsObserver {
        rounds: r.usize()?,
        merges: r.usize()?,
        constants: r.usize()?,
        sat_calls_sat: r.u64()?,
        sat_calls_unsat: r.u64()?,
        sat_calls_undet: r.u64()?,
        proved_by_simulation: r.u64()?,
        disproved_by_simulation: r.u64()?,
        counterexamples: r.u64()?,
        refinements: r.u64()?,
        resim_events: r.u64()?,
        resim_nodes: r.u64()?,
        resim_skipped_nodes: r.u64()?,
        checkpoints: r.u64()?,
        checkpoint_bytes: r.u64()?,
        // Pipeline-level pass brackets are not part of a sweep session's
        // state: a resumed session starts outside any pass manager.
        passes: 0,
    })
}

fn encode_phase(w: &mut Writer, phase: &PhasePod) {
    match phase {
        PhasePod::Start => w.u8(0),
        PhasePod::Constants { queue, next } => {
            w.u8(1);
            w.usize(queue.len());
            for c in queue {
                w.usize(c.node);
                w.boolean(c.value);
            }
            w.usize(*next);
        }
        PhasePod::Merging { pending } => {
            w.u8(2);
            w.usize(pending.len());
            for &(node, attempts) in pending {
                w.usize(node);
                w.usize(attempts);
            }
        }
        PhasePod::Done => w.u8(3),
    }
}

fn decode_phase(r: &mut Reader<'_>) -> Result<PhasePod, CheckpointError> {
    match r.u8()? {
        0 => Ok(PhasePod::Start),
        1 => {
            let len = r.vec_len(9)?;
            let mut queue = Vec::with_capacity(len);
            for _ in 0..len {
                let node = r.usize()?;
                let value = r.boolean()?;
                queue.push(ConstantCandidate { node, value });
            }
            let next = r.usize()?;
            Ok(PhasePod::Constants { queue, next })
        }
        2 => {
            let len = r.vec_len(16)?;
            let mut pending = Vec::with_capacity(len);
            for _ in 0..len {
                let node = r.usize()?;
                let attempts = r.usize()?;
                pending.push((node, attempts));
            }
            Ok(PhasePod::Merging { pending })
        }
        3 => Ok(PhasePod::Done),
        _ => Err(CheckpointError::Corrupt("unknown phase tag")),
    }
}

fn encode_solver_snapshot(w: &mut Writer, s: &SolverSnapshot) {
    w.f64(s.config.var_decay);
    w.f64(s.config.clause_decay);
    w.u64(s.config.restart_base);
    w.usize(s.config.learnt_limit_base);
    w.usize(s.clauses.len());
    for clause in &s.clauses {
        w.usize(clause.lits.len());
        for &lit in &clause.lits {
            w.u32(lit.code() as u32);
        }
        w.boolean(clause.learnt);
        w.f64(clause.activity);
        w.boolean(clause.deleted);
    }
    w.usize(s.watches.len());
    for list in &s.watches {
        w.usize(list.len());
        for &ci in list {
            w.usize(ci);
        }
    }
    w.usize(s.assigns.len());
    for &a in &s.assigns {
        w.opt_bool(a);
    }
    for &p in &s.phase {
        w.boolean(p);
    }
    for &l in &s.level {
        w.u32(l);
    }
    for &reason in &s.reason {
        match reason {
            None => w.boolean(false),
            Some(ci) => {
                w.boolean(true);
                w.usize(ci);
            }
        }
    }
    for &a in &s.activity {
        w.f64(a);
    }
    w.usize(s.order_heap.len());
    for &v in &s.order_heap {
        w.usize(v);
    }
    for &p in &s.order_position {
        // `usize::MAX` marks absence; map it to `u64::MAX` portably.
        w.u64(if p == usize::MAX { u64::MAX } else { p as u64 });
    }
    w.usize(s.trail.len());
    for &lit in &s.trail {
        w.u32(lit.code() as u32);
    }
    w.usize(s.qhead);
    w.f64(s.var_inc);
    w.f64(s.cla_inc);
    w.boolean(s.ok);
    w.usize(s.model.len());
    for &m in &s.model {
        w.opt_bool(m);
    }
    w.u64(s.stats.decisions);
    w.u64(s.stats.propagations);
    w.u64(s.stats.conflicts);
    w.u64(s.stats.restarts);
    w.u64(s.stats.learnt_clauses);
    w.u64(s.stats.solve_calls);
    w.usize(s.num_learnts);
}

fn decode_solver_snapshot(r: &mut Reader<'_>) -> Result<SolverSnapshot, CheckpointError> {
    let config = SolverConfig {
        var_decay: r.f64()?,
        clause_decay: r.f64()?,
        restart_base: r.u64()?,
        learnt_limit_base: r.usize()?,
    };
    let clauses = {
        let len = r.vec_len(10)?;
        let mut clauses = Vec::with_capacity(len);
        for _ in 0..len {
            let lits_len = r.vec_len(4)?;
            let mut lits = Vec::with_capacity(lits_len);
            for _ in 0..lits_len {
                lits.push(SatLit::from_code(r.u32()?));
            }
            clauses.push(ClauseSnapshot {
                lits,
                learnt: r.boolean()?,
                activity: r.f64()?,
                deleted: r.boolean()?,
            });
        }
        clauses
    };
    let watches = {
        let len = r.vec_len(8)?;
        let mut watches = Vec::with_capacity(len);
        for _ in 0..len {
            watches.push(r.usize_vec()?);
        }
        watches
    };
    let num_vars = r.vec_len(1)?;
    let mut assigns = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        assigns.push(r.opt_bool()?);
    }
    let mut phase = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        phase.push(r.boolean()?);
    }
    let mut level = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        level.push(r.u32()?);
    }
    let mut reason = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        reason.push(if r.boolean()? { Some(r.usize()?) } else { None });
    }
    let mut activity = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        activity.push(r.f64()?);
    }
    let order_heap = r.usize_vec()?;
    let mut order_position = Vec::with_capacity(num_vars);
    for _ in 0..num_vars {
        let raw = r.u64()?;
        order_position.push(if raw == u64::MAX {
            usize::MAX
        } else {
            usize::try_from(raw)
                .map_err(|_| CheckpointError::Corrupt("heap position out of range"))?
        });
    }
    let trail = {
        let len = r.vec_len(4)?;
        let mut trail = Vec::with_capacity(len);
        for _ in 0..len {
            trail.push(SatLit::from_code(r.u32()?));
        }
        trail
    };
    let qhead = r.usize()?;
    let var_inc = r.f64()?;
    let cla_inc = r.f64()?;
    let ok = r.boolean()?;
    let model = {
        let len = r.vec_len(1)?;
        let mut model = Vec::with_capacity(len);
        for _ in 0..len {
            model.push(r.opt_bool()?);
        }
        model
    };
    let stats = SolverStats {
        decisions: r.u64()?,
        propagations: r.u64()?,
        conflicts: r.u64()?,
        restarts: r.u64()?,
        learnt_clauses: r.u64()?,
        solve_calls: r.u64()?,
    };
    let num_learnts = r.usize()?;
    Ok(SolverSnapshot {
        config,
        clauses,
        watches,
        assigns,
        phase,
        level,
        reason,
        activity,
        order_heap,
        order_position,
        trail,
        qhead,
        var_inc,
        cla_inc,
        ok,
        model,
        stats,
        num_learnts,
    })
}

fn encode_circuit_snapshot(w: &mut Writer, s: &CircuitSatSnapshot) {
    encode_solver_snapshot(w, &s.solver);
    w.usize(s.node_var.len());
    for &v in &s.node_var {
        match v {
            None => w.boolean(false),
            Some(v) => {
                w.boolean(true);
                w.u32(v);
            }
        }
    }
    for &e in &s.encoded {
        w.boolean(e);
    }
    w.u64(s.stats.total_calls);
    w.u64(s.stats.sat_calls);
    w.u64(s.stats.unsat_calls);
    w.u64(s.stats.undetermined_calls);
}

fn decode_circuit_snapshot(r: &mut Reader<'_>) -> Result<CircuitSatSnapshot, CheckpointError> {
    let solver = decode_solver_snapshot(r)?;
    let num_nodes = r.vec_len(1)?;
    let mut node_var = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        node_var.push(if r.boolean()? { Some(r.u32()?) } else { None });
    }
    let mut encoded = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        encoded.push(r.boolean()?);
    }
    let stats = QueryStats {
        total_calls: r.u64()?,
        sat_calls: r.u64()?,
        unsat_calls: r.u64()?,
        undetermined_calls: r.u64()?,
    };
    Ok(CircuitSatSnapshot {
        solver,
        node_var,
        encoded,
        stats,
    })
}

// ---------------------------------------------------------------------------
// The little-endian writer/reader.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn boolean(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn opt_bool(&mut self, v: Option<bool>) {
        self.u8(match v {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }

    /// Bit-exact float encoding (restored activities must match exactly —
    /// they steer VSIDS tie-breaking).
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn duration(&mut self, d: Duration) {
        self.u64(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?).map_err(|_| CheckpointError::Corrupt("value out of range"))
    }

    fn boolean(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Corrupt("invalid boolean")),
        }
    }

    fn opt_bool(&mut self) -> Result<Option<bool>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            _ => Err(CheckpointError::Corrupt("invalid optional boolean")),
        }
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn duration(&mut self) -> Result<Duration, CheckpointError> {
        Ok(Duration::from_nanos(self.u64()?))
    }

    /// Reads a vector length and bounds it by the bytes actually left in
    /// the stream (`min_elem_bytes` per element), so a corrupt length field
    /// cannot trigger a pathological allocation.
    fn vec_len(&mut self, min_elem_bytes: usize) -> Result<usize, CheckpointError> {
        let len = self.usize()?;
        if len.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(CheckpointError::Truncated);
        }
        Ok(len)
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.vec_len(8)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let len = self.vec_len(8)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.usize()?);
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fingerprint_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input("a");
        let b = aig.add_input("b");
        let f = aig.and(a, b);
        aig.add_output("f", f);
        aig
    }

    #[test]
    fn fingerprints_distinguish_structures() {
        let base = fingerprint_aig();
        let fp = netlist_fingerprint(&base);
        assert_eq!(fp, netlist_fingerprint(&base.clone()), "deterministic");

        let mut grown = base.clone();
        let extra = grown.and(
            Lit::positive(grown.inputs()[0]),
            Lit::positive(grown.inputs()[0]),
        );
        grown.add_output("extra", extra);
        assert_ne!(fp, netlist_fingerprint(&grown));

        // Complementing an output changes the function, hence the print.
        let mut flipped = base.clone();
        let lit = flipped.outputs()[0].lit;
        flipped.set_output_lit(0, !lit);
        assert_ne!(fp, netlist_fingerprint(&flipped));
    }

    /// A synthetic but structurally rich checkpoint exercising every codec
    /// branch (merging cursor, populated solver).
    fn sample_checkpoint() -> SweepCheckpoint {
        let solver = SolverSnapshot {
            config: SolverConfig::default(),
            clauses: vec![
                ClauseSnapshot {
                    lits: vec![SatLit::from_code(0), SatLit::from_code(3)],
                    learnt: false,
                    activity: 0.0,
                    deleted: false,
                },
                ClauseSnapshot {
                    lits: vec![
                        SatLit::from_code(2),
                        SatLit::from_code(5),
                        SatLit::from_code(1),
                    ],
                    learnt: true,
                    activity: 1.5,
                    deleted: true,
                },
            ],
            watches: vec![vec![0], vec![1], vec![], vec![0, 1], vec![], vec![1]],
            assigns: vec![Some(true), None, Some(false)],
            phase: vec![true, false, true],
            level: vec![0, 0, 0],
            reason: vec![None, Some(1), None],
            activity: vec![0.25, 1.0, 0.0],
            order_heap: vec![1, 2],
            order_position: vec![usize::MAX, 0, 1],
            trail: vec![SatLit::from_code(0), SatLit::from_code(5)],
            qhead: 2,
            var_inc: 1.25,
            cla_inc: 1.0,
            ok: true,
            model: vec![Some(true), Some(false), None],
            stats: SolverStats {
                decisions: 4,
                propagations: 9,
                conflicts: 2,
                restarts: 1,
                learnt_clauses: 1,
                solve_calls: 3,
            },
            num_learnts: 0,
        };
        let circuit = CircuitSatSnapshot {
            solver,
            node_var: vec![None, Some(0), Some(1), None, Some(2)],
            encoded: vec![false, true, true, false, true],
            stats: QueryStats {
                total_calls: 3,
                sat_calls: 1,
                unsat_calls: 1,
                undetermined_calls: 1,
            },
        };
        SweepCheckpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            canonical_fingerprint: 0xFEED_FACE_89AB_CDEF,
            primed: true,
            engine: Engine::Stp,
            config: SweepConfig::fast().checkpoint_every(7),
            round: 2,
            phase: PhasePod::Merging {
                pending: vec![(9, 0), (7, 2)],
            },
            merge_log: vec![(5, Lit::positive(3)), (6, Lit::FALSE)],
            dont_touch: vec![8],
            classes: vec![(vec![4, 7, 9], vec![false, true, false])],
            constants: vec![ConstantCandidate {
                node: 10,
                value: true,
            }],
            resim: crate::resim::ResimSnapshot {
                last_seen: vec![0, 1, 2, 2, 2],
                events: 2,
                resimulated: 7,
                skipped: 3,
            },
            stats: StatsObserver {
                rounds: 1,
                merges: 2,
                sat_calls_sat: 1,
                sat_calls_unsat: 2,
                checkpoints: 1,
                ..StatsObserver::new()
            },
            sweep_sat_calls: 3,
            committed_candidates: 4,
            simulation_time: Duration::from_millis(12),
            sat_time: Duration::from_millis(7),
            elapsed: Duration::from_millis(20),
            solver: circuit,
            seq_candidates: 5,
            seq_ternary_constants: 1,
            seq_induction_refuted: 2,
            seq_induction_undet: 1,
            seq_ternary_iterations: 4,
        }
    }

    #[test]
    fn encode_decode_round_trips_the_sample() {
        let checkpoint = sample_checkpoint();
        let bytes = checkpoint.encode();
        let decoded = SweepCheckpoint::decode(&bytes).expect("decodes");
        assert_eq!(decoded, checkpoint);
        // Re-encoding is byte-stable.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_checkpoint().encode();
        for len in 0..bytes.len() {
            let err = SweepCheckpoint::decode(&bytes[..len])
                .expect_err("a strict prefix must not decode");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::Corrupt(_)
                ),
                "unexpected error at prefix {len}: {err:?}"
            );
        }
    }

    #[test]
    fn payload_bit_flips_fail_the_checksum() {
        let bytes = sample_checkpoint().encode();
        // Flip one byte at a spread of payload positions (past the header,
        // before the checksum tail): every flip must be caught.
        for position in [20usize, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[position] ^= 0x40;
            assert_eq!(
                SweepCheckpoint::decode(&corrupt),
                Err(CheckpointError::Corrupt("payload checksum mismatch")),
                "flip at {position}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample_checkpoint().encode();
        let original = bytes.clone();

        bytes[0] ^= 0xFF;
        assert_eq!(
            SweepCheckpoint::decode(&bytes),
            Err(CheckpointError::BadMagic)
        );

        bytes = original.clone();
        bytes[8] = 99; // the version field follows the 8-byte magic
        assert_eq!(
            SweepCheckpoint::decode(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        );

        bytes = original.clone();
        bytes.push(0);
        // An appended byte shifts the checksum tail, so the checksum (not
        // the trailing-bytes parser check) rejects it.
        assert_eq!(
            SweepCheckpoint::decode(&bytes),
            Err(CheckpointError::Corrupt("payload checksum mismatch"))
        );
        assert!(SweepCheckpoint::decode(&original).is_ok());
    }

    #[test]
    fn every_other_version_is_rejected_before_the_payload_is_read() {
        // A version-6 header followed by arbitrary bytes: rejected on the
        // version field alone, before the payload is parsed.
        let mut v6 = CHECKPOINT_MAGIC.to_vec();
        v6.extend_from_slice(&6u32.to_le_bytes());
        v6.extend_from_slice(&[0xA5; 64]);
        assert_eq!(
            SweepCheckpoint::decode(&v6),
            Err(CheckpointError::UnsupportedVersion(6))
        );
        for version in (1..CHECKPOINT_VERSION).chain([CHECKPOINT_VERSION + 1]) {
            let mut bytes = sample_checkpoint().encode();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                SweepCheckpoint::decode(&bytes),
                Err(CheckpointError::UnsupportedVersion(version))
            );
        }
        let message = CheckpointError::UnsupportedVersion(5).to_string();
        assert!(message.contains("version 5"), "{message}");
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let checkpoint = sample_checkpoint();
        let path = std::env::temp_dir().join(format!(
            "stp_sweep_checkpoint_test_{}.ckpt",
            std::process::id()
        ));
        checkpoint.save(&path).expect("writes");
        let loaded = SweepCheckpoint::load(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded, checkpoint);

        let missing = SweepCheckpoint::load(path.with_extension("missing"));
        assert!(matches!(missing, Err(CheckpointError::Io(_))));
    }

    // -- proptest: encode ∘ decode = id over random session states ---------

    fn arb_opt_bool() -> impl Strategy<Value = Option<bool>> {
        (0u8..3).prop_map(|v| match v {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        })
    }

    fn arb_phase() -> impl Strategy<Value = PhasePod> {
        prop_oneof![
            Just(PhasePod::Start),
            (
                proptest::collection::vec((0usize..1000, any::<bool>()), 0..6),
                0usize..8,
            )
                .prop_map(|(queue, next)| PhasePod::Constants {
                    queue: queue
                        .into_iter()
                        .map(|(node, value)| ConstantCandidate { node, value })
                        .collect(),
                    next,
                }),
            proptest::collection::vec((0usize..1000, 0usize..10), 0..8)
                .prop_map(|pending| PhasePod::Merging { pending }),
            Just(PhasePod::Done),
        ]
    }

    /// A small random (not necessarily semantically valid) solver snapshot:
    /// the codec must round-trip arbitrary states byte-exactly; semantic
    /// validation is the restore path's job.
    fn arb_solver_snapshot() -> impl Strategy<Value = SolverSnapshot> {
        (
            (
                proptest::collection::vec(
                    (
                        proptest::collection::vec(any::<u32>(), 1..4),
                        any::<bool>(),
                        any::<u32>(),
                        any::<bool>(),
                    ),
                    0..4,
                ),
                proptest::collection::vec(proptest::collection::vec(0usize..10, 0..3), 0..6),
                proptest::collection::vec(arb_opt_bool(), 0..5),
            ),
            (
                proptest::collection::vec(any::<u32>(), 0..5),
                proptest::collection::vec(any::<u32>(), 0..4),
                0usize..8,
                any::<u32>(),
                any::<u32>(),
                any::<bool>(),
            ),
        )
            .prop_map(
                |(
                    (raw_clauses, watches, assigns),
                    (levels, trail, qhead, var_inc, cla_inc, ok),
                )| {
                    let n = assigns.len();
                    SolverSnapshot {
                        config: SolverConfig::default(),
                        clauses: raw_clauses
                            .into_iter()
                            .map(|(lits, learnt, activity, deleted)| ClauseSnapshot {
                                lits: lits.into_iter().map(SatLit::from_code).collect(),
                                learnt,
                                activity: f64::from(activity),
                                deleted,
                            })
                            .collect(),
                        watches,
                        phase: vec![false; n],
                        // The codec relies on the per-variable vectors
                        // sharing the arity of `assigns`; pad accordingly.
                        level: (0..n)
                            .map(|i| levels.get(i).copied().unwrap_or(0))
                            .collect(),
                        reason: vec![None; n],
                        activity: vec![0.0; n],
                        order_heap: Vec::new(),
                        order_position: vec![usize::MAX; n],
                        trail: trail.into_iter().map(SatLit::from_code).collect(),
                        qhead,
                        var_inc: f64::from(var_inc),
                        cla_inc: f64::from(cla_inc),
                        ok,
                        model: Vec::new(),
                        stats: SolverStats::default(),
                        num_learnts: 0,
                        assigns,
                    }
                },
            )
    }

    fn arb_checkpoint() -> impl Strategy<Value = SweepCheckpoint> {
        (
            (
                (any::<u64>(), any::<u64>()),
                any::<bool>(),
                any::<bool>(),
                arb_phase(),
                proptest::collection::vec((0usize..1000, any::<u32>()), 0..6),
                proptest::collection::vec(0usize..1000, 0..5),
            ),
            (
                proptest::collection::vec(any::<u64>(), 0..6),
                arb_solver_snapshot(),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    ((fingerprint, canonical), primed, stp, phase, merges, dont_touch),
                    (last_seen, solver, sat_calls, committed),
                )| {
                    SweepCheckpoint {
                        fingerprint,
                        canonical_fingerprint: canonical,
                        primed,
                        engine: if stp { Engine::Stp } else { Engine::Baseline },
                        config: SweepConfig::default(),
                        round: 0,
                        phase,
                        merge_log: merges
                            .into_iter()
                            .map(|(node, lit)| (node, Lit::from_index(lit)))
                            .collect(),
                        dont_touch,
                        classes: vec![(vec![1, 2], vec![false, true])],
                        constants: Vec::new(),
                        resim: crate::resim::ResimSnapshot {
                            last_seen,
                            events: 0,
                            resimulated: 0,
                            skipped: 0,
                        },
                        stats: StatsObserver::new(),
                        sweep_sat_calls: sat_calls,
                        committed_candidates: committed,
                        simulation_time: Duration::ZERO,
                        sat_time: Duration::ZERO,
                        elapsed: Duration::ZERO,
                        solver: CircuitSatSnapshot {
                            node_var: vec![None; 3],
                            encoded: vec![false; 3],
                            stats: QueryStats::default(),
                            solver,
                        },
                        seq_candidates: sat_calls % 97,
                        seq_ternary_constants: committed % 13,
                        seq_induction_refuted: sat_calls % 7,
                        seq_induction_undet: committed % 5,
                        seq_ternary_iterations: sat_calls % 31,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `decode ∘ encode = id` over random session states, and encoding
        /// is byte-stable across the round trip.
        #[test]
        fn checkpoint_codec_round_trips(checkpoint in arb_checkpoint()) {
            let bytes = checkpoint.encode();
            let decoded = SweepCheckpoint::decode(&bytes).expect("own encoding decodes");
            prop_assert_eq!(&decoded, &checkpoint);
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// No random prefix of a valid encoding decodes (truncation is
        /// always detected), and no prefix panics.
        #[test]
        fn checkpoint_codec_rejects_truncations(checkpoint in arb_checkpoint(), cut in 0usize..1000) {
            let bytes = checkpoint.encode();
            let len = bytes.len() * cut / 1000;
            if len < bytes.len() {
                prop_assert!(SweepCheckpoint::decode(&bytes[..len]).is_err());
            }
        }
    }
}
