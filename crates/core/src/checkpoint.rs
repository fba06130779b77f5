//! Checkpoint/resume for sweeping sessions.
//!
//! A [`SweepCheckpoint`] is a versioned, self-describing snapshot of a
//! [`crate::SweepSession`] where a run stops: at the budget check before a
//! sweeping SAT query (inside [`crate::SweepError::BudgetExhausted`]), or
//! on request through [`crate::SweepSession::checkpoint`].  It holds the
//! candidate equivalence classes, the ordered merge log, the phase cursor,
//! the cumulative report counters — and, crucially, the behaviour-exact
//! state of the session's incremental SAT solver, as the opaque bytes of
//! [`satsolver::CircuitSat::snapshot`].
//! CDCL solvers are history-dependent (learnt clauses, VSIDS activities,
//! saved phases steer every future query), so carrying its exact state is
//! what makes the headline guarantee possible: **stop before any sweeping
//! SAT query, resume with [`crate::Sweeper::resume_from`], and the final
//! SAT calls, merges and AIGER bytes are identical to an uninterrupted
//! run**.
//!
//! The swept network itself is not stored.  The input and the merge log
//! define it: a resumed session refills its merge table from the log and
//! recounts the live references, and the result is built once, when the
//! run finishes.
//!
//! A checkpoint leaves the process only as the bytes of
//! [`SweepCheckpoint::encode`], written with the bounded little-endian codec
//! of [`satsolver::codec`] under an integrity header: an 8-byte magic, a
//! format version and the fingerprint of the netlist the checkpoint was
//! taken against.  The solver state is one length-prefixed blob that only
//! `satsolver` parses, when the checkpoint is resumed.  Decoding truncated
//! or corrupt bytes yields a typed [`CheckpointError`] (never a panic), and
//! resuming against a mutated network or with solver state that does not
//! parse is rejected with [`crate::SweepError::CheckpointMismatch`] instead
//! of corrupting results.
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
use satsolver::codec::{DecodeError, Reader, Writer};
use std::fmt;
use std::time::Duration;

/// The 8-byte magic prefix of an encoded checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"STPSWCP\x01";

/// The checkpoint format version, the only one this build reads or
/// writes; any other version fails with
/// [`CheckpointError::UnsupportedVersion`].  Version 15 replaces the
/// constant phase's frozen queue with a node cursor: the constant
/// candidates only shrink, so those from the cursor on are exactly the ones
/// left to prove.  It also drops the ternary iteration count, which the
/// recomputed sequential plan reports.  The bump refuses an older
/// checkpoint at decode, so a daemon job reruns from scratch.  As in
/// version 14, an undetermined candidate leaves its class, and the classes
/// are stored, with no don't-touch set.  As in version 13, the solver
/// blob holds one flat clause arena of `u32` words and a blocker literal
/// in every watch entry; it travels as the opaque, length-prefixed bytes
/// of [`satsolver::CircuitSat::snapshot`], which hold only what a later
/// query reads.  As in version 12, a checkpoint is taken only where a run
/// stops, and as in version 11, the live-reference counts behind the dead
/// skips are not stored, because they are recounted from the merge log.
/// Both sweeps share the layout: a sequential sweep is a session
/// phase whose cursor is the next induction query, and its solver state is
/// that of the induction network.  There are no pattern words or
/// resimulation state: the classes and the solver carry everything a
/// resumed run reads, and the SAT-call count is the one in the stats.
/// Checkpoints are resumed by the build that wrote them, so older layouts
/// are not decoded.
pub const CHECKPOINT_VERSION: u32 = 15;

// ---------------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be decoded or used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The byte stream ended before the payload was complete.
    Truncated,
    /// The magic prefix is missing — not an encoded checkpoint.
    BadMagic,
    /// The format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The payload is structurally invalid (the message names the field).
    Corrupt(&'static str),
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
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<DecodeError> for CheckpointError {
    fn from(err: DecodeError) -> Self {
        match err {
            DecodeError::Truncated => CheckpointError::Truncated,
            DecodeError::Corrupt(what) => CheckpointError::Corrupt(what),
        }
    }
}

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
    /// Inside constant substitution: the candidates left to prove are the
    /// constant candidates from node `next` on.
    Constants { next: NodeId },
    /// Inside pairwise merging: the candidates still to prove, each with
    /// the driver attempts it has consumed, the next candidate last.
    Merging { pending: Vec<(NodeId, usize)> },
    /// Inside a sequential sweep's latch pairs: the next query of the
    /// sequence base₀, step₀, base₁, step₁, … (candidate `next / 2`, its
    /// step when `next` is odd).
    Latches { next: usize },
    /// All phases complete.
    Done,
}

// ---------------------------------------------------------------------------
// The checkpoint itself.
// ---------------------------------------------------------------------------

/// A resumable snapshot of a sweeping session where its run stopped.
///
/// Obtain one from [`crate::SweepSession::checkpoint`] or from the
/// `checkpoint` field of [`crate::SweepError::BudgetExhausted`].
/// Serialise with [`SweepCheckpoint::encode`] / [`SweepCheckpoint::decode`]
/// and resume with [`crate::Sweeper::resume_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Fingerprint of the network the checkpoint was taken against.
    pub(crate) fingerprint: u64,
    /// Whether the session was primed (patterns generated, classes built).
    /// An unprimed checkpoint resumes by re-priming from scratch.
    pub(crate) primed: bool,
    pub(crate) engine: Engine,
    pub(crate) config: SweepConfig,
    pub(crate) round: usize,
    pub(crate) phase: PhasePod,
    /// Ordered log of applied merges (constants included): each entry
    /// names a merged node and the literal that replaces it, which
    /// together with the input define the swept network.
    pub(crate) merge_log: Vec<(NodeId, Lit)>,
    /// Raw class parts: (members, phases) per class, plus constants.
    pub(crate) classes: Vec<(Vec<NodeId>, Vec<bool>)>,
    pub(crate) constants: Vec<ConstantCandidate>,
    pub(crate) stats: StatsObserver,
    pub(crate) committed_candidates: u64,
    pub(crate) simulation_time: Duration,
    pub(crate) sat_time: Duration,
    /// Wall-clock already consumed before this checkpoint (added to the
    /// resumed leg's elapsed time in the final report).
    pub(crate) elapsed: Duration,
    /// The encoded state of the session's incremental solver (pattern
    /// generation, constant proofs and pairwise merges — or, for a
    /// sequential sweep, induction over its unrolled network), parsed by
    /// [`satsolver::CircuitSat::from_snapshot`] on resume.
    pub(crate) solver: Vec<u8>,
    /// Latch-correspondence candidates of the sequential analysis
    /// (sequential checkpoints only; zero otherwise).
    pub(crate) seq_candidates: u64,
    /// Latches substituted by constants from the ternary fixpoint alone.
    pub(crate) seq_ternary_constants: u64,
    /// Candidates refuted by a satisfiable base case so far.
    pub(crate) seq_induction_refuted: u64,
    /// Candidates left unknown (satisfiable step or exhausted budget) so far.
    pub(crate) seq_induction_undet: u64,
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
        self.stats.sat_calls_total()
    }

    /// Serialises the checkpoint into the versioned binary format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u64(self.fingerprint);
        w.boolean(self.primed);
        w.u8(match self.engine {
            Engine::Baseline => 0,
            Engine::Stp => 1,
        });
        encode_config(&mut w, &self.config);
        w.usize(self.round);
        encode_phase(&mut w, &self.phase);
        w.vec(&self.merge_log, |w, &(node, lit)| {
            w.usize(node);
            w.u32(lit.index());
        });
        w.vec(&self.classes, |w, (members, phases)| {
            w.vec(members, |w, &m| w.usize(m));
            for &p in phases {
                w.boolean(p);
            }
        });
        w.vec(&self.constants, encode_constant);
        encode_stats(&mut w, &self.stats);
        w.u64(self.committed_candidates);
        w.duration(self.simulation_time);
        w.duration(self.sat_time);
        w.duration(self.elapsed);
        w.blob(&self.solver);
        w.u64(self.seq_candidates);
        w.u64(self.seq_ternary_constants);
        w.u64(self.seq_induction_refuted);
        w.u64(self.seq_induction_undet);
        // Payload checksum (everything up to here, header included): bit
        // flips anywhere in the file are caught at decode time instead of
        // resuming into a silently different run.
        let checksum = fnv64(w.as_bytes());
        w.u64(checksum);
        w.into_bytes()
    }

    /// Decodes a checkpoint from bytes, verifying the magic and format
    /// version.  Truncated or corrupt input yields a typed error, never a
    /// panic.  The solver state is only bounded and copied here; it is
    /// parsed, and validated against the resume target with the rest of
    /// the checkpoint, in [`crate::Sweeper::resume_from`].
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

        // Fields in their encoding order: a struct expression evaluates its
        // fields as written.
        let checkpoint = SweepCheckpoint {
            fingerprint: r.u64()?,
            primed: r.boolean()?,
            engine: match r.u8()? {
                0 => Engine::Baseline,
                1 => Engine::Stp,
                _ => return Err(CheckpointError::Corrupt("unknown engine tag")),
            },
            config: decode_config(&mut r)?,
            round: r.usize()?,
            phase: decode_phase(&mut r)?,
            merge_log: r.vec(12, |r| Ok((r.usize()?, Lit::from_index(r.u32()?))))?,
            classes: r.vec(8, |r| {
                let members = r.vec(8, Reader::usize)?;
                let phases = r.seq(members.len(), Reader::boolean)?;
                Ok((members, phases))
            })?,
            constants: r.vec(9, decode_constant)?,
            stats: decode_stats(&mut r)?,
            committed_candidates: r.u64()?,
            simulation_time: r.duration()?,
            sat_time: r.duration()?,
            elapsed: r.duration()?,
            solver: r.blob()?.to_vec(),
            seq_candidates: r.u64()?,
            seq_ternary_constants: r.u64()?,
            seq_induction_refuted: r.u64()?,
            seq_induction_undet: r.u64()?,
        };
        if !r.is_empty() {
            return Err(CheckpointError::Corrupt("trailing bytes after payload"));
        }
        Ok(checkpoint)
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
    w.u64(s.dead_skips);
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
        dead_skips: r.u64()?,
        // Pipeline-level pass starts are not part of a sweep session's
        // state: a resumed session starts outside any pass manager.
        passes: 0,
    })
}

fn encode_constant(w: &mut Writer, c: &ConstantCandidate) {
    w.usize(c.node);
    w.boolean(c.value);
}

fn decode_constant(r: &mut Reader<'_>) -> Result<ConstantCandidate, DecodeError> {
    Ok(ConstantCandidate {
        node: r.usize()?,
        value: r.boolean()?,
    })
}

fn encode_phase(w: &mut Writer, phase: &PhasePod) {
    match phase {
        PhasePod::Start => w.u8(0),
        PhasePod::Constants { next } => {
            w.u8(1);
            w.usize(*next);
        }
        PhasePod::Merging { pending } => {
            w.u8(2);
            w.vec(pending, |w, &(node, attempts)| {
                w.usize(node);
                w.usize(attempts);
            });
        }
        PhasePod::Done => w.u8(3),
        PhasePod::Latches { next } => {
            w.u8(4);
            w.usize(*next);
        }
    }
}

fn decode_phase(r: &mut Reader<'_>) -> Result<PhasePod, CheckpointError> {
    match r.u8()? {
        0 => Ok(PhasePod::Start),
        1 => Ok(PhasePod::Constants { next: r.usize()? }),
        2 => Ok(PhasePod::Merging {
            pending: r.vec(16, |r| Ok((r.usize()?, r.usize()?)))?,
        }),
        3 => Ok(PhasePod::Done),
        4 => Ok(PhasePod::Latches { next: r.usize()? }),
        _ => Err(CheckpointError::Corrupt("unknown phase tag")),
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
    /// branch (merging cursor, solver state).  The checkpoint codec does not
    /// parse the solver bytes, so any bytes do.
    fn sample_checkpoint() -> SweepCheckpoint {
        SweepCheckpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            primed: true,
            engine: Engine::Stp,
            config: SweepConfig::fast().with_seq_depth(3),
            round: 2,
            phase: PhasePod::Merging {
                pending: vec![(9, 0), (7, 2)],
            },
            merge_log: vec![(5, Lit::positive(3)), (6, Lit::FALSE)],
            classes: vec![(vec![4, 7, 9], vec![false, true, false])],
            constants: vec![ConstantCandidate {
                node: 10,
                value: true,
            }],
            stats: StatsObserver {
                rounds: 1,
                merges: 2,
                sat_calls_sat: 1,
                sat_calls_unsat: 2,
                resim_events: 1,
                resim_nodes: 7,
                resim_skipped_nodes: 3,
                dead_skips: 2,
                ..StatsObserver::new()
            },
            committed_candidates: 4,
            simulation_time: Duration::from_millis(12),
            sat_time: Duration::from_millis(7),
            elapsed: Duration::from_millis(20),
            solver: vec![3, 0, 0, 0, 0xFF, 0x10, 7],
            seq_candidates: 5,
            seq_ternary_constants: 1,
            seq_induction_refuted: 2,
            seq_induction_undet: 1,
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
        // A version-9 header followed by arbitrary bytes: rejected on the
        // version field alone, before the payload is parsed.
        let mut v9 = CHECKPOINT_MAGIC.to_vec();
        v9.extend_from_slice(&9u32.to_le_bytes());
        v9.extend_from_slice(&[0xA5; 64]);
        assert_eq!(
            SweepCheckpoint::decode(&v9),
            Err(CheckpointError::UnsupportedVersion(9))
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

    // -- proptest: encode ∘ decode = id over random session states ---------

    fn arb_phase() -> impl Strategy<Value = PhasePod> {
        prop_oneof![
            Just(PhasePod::Start),
            (0usize..1000).prop_map(|next| PhasePod::Constants { next }),
            proptest::collection::vec((0usize..1000, 0usize..10), 0..8)
                .prop_map(|pending| PhasePod::Merging { pending }),
            (0usize..1000).prop_map(|next| PhasePod::Latches { next }),
            Just(PhasePod::Done),
        ]
    }

    fn arb_checkpoint() -> impl Strategy<Value = SweepCheckpoint> {
        (
            (
                any::<u64>(),
                any::<bool>(),
                any::<bool>(),
                arb_phase(),
                proptest::collection::vec((0usize..1000, any::<u32>()), 0..6),
            ),
            (
                proptest::collection::vec((0usize..1000, any::<bool>()), 0..6),
                // Opaque here: the checkpoint codec only frames the bytes.
                proptest::collection::vec(any::<u8>(), 0..64),
                any::<u64>(),
                any::<u64>(),
            ),
        )
            .prop_map(
                |(
                    (fingerprint, primed, stp, phase, merges),
                    (constants, solver, sat_calls, committed),
                )| {
                    SweepCheckpoint {
                        fingerprint,
                        primed,
                        engine: if stp { Engine::Stp } else { Engine::Baseline },
                        config: SweepConfig::default(),
                        round: 0,
                        phase,
                        merge_log: merges
                            .into_iter()
                            .map(|(node, lit)| (node, Lit::from_index(lit)))
                            .collect(),
                        classes: vec![(vec![1, 2], vec![false, true])],
                        constants: constants
                            .into_iter()
                            .map(|(node, value)| ConstantCandidate { node, value })
                            .collect(),
                        stats: StatsObserver {
                            sat_calls_unsat: sat_calls,
                            ..StatsObserver::new()
                        },
                        committed_candidates: committed,
                        simulation_time: Duration::ZERO,
                        sat_time: Duration::ZERO,
                        elapsed: Duration::ZERO,
                        solver,
                        seq_candidates: sat_calls % 97,
                        seq_ternary_constants: committed % 13,
                        seq_induction_refuted: sat_calls % 7,
                        seq_induction_undet: committed % 5,
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
