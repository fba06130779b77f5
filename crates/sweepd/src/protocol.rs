//! The wire protocol shared by the daemon and `sweepctl`.
//!
//! Every message is one *frame*: a 4-byte big-endian payload length
//! followed by the payload.  Payloads are a tag byte followed by
//! fixed-width big-endian integers and length-prefixed byte strings —
//! deliberately dependency-free and versioned by the leading
//! [`PROTOCOL_VERSION`] byte of every payload: any other version fails
//! with [`ProtocolError::Malformed`] naming it, instead of a decode panic.

use std::fmt;
use std::io::{self, Read, Write};

use crate::job::{engine_from_u8, engine_to_u8, JobCounters, JobId, JobInfo, JobState, Priority};
use stp_sweep::Engine;

/// Version byte leading every payload, the only version this build speaks.
/// Version 4 is the `Submit` of priority, engine, preset, AIGER bytes and
/// pass script; the daemon and `sweepctl` ship together, so older
/// versions are not decoded.
pub const PROTOCOL_VERSION: u8 = 4;

/// Upper bound on a frame payload, protecting the daemon from a garbage
/// length prefix.  64 MiB comfortably covers the binary AIGER of the
/// largest EPFL-class benchmark plus framing.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Sweep configuration preset a job runs under (see
/// [`crate::effective_config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Preset {
    /// Small pattern set and window limits: lowest latency.
    #[default]
    Fast,
    /// The paper's Table I/II configuration.
    Paper,
    /// Larger windows and pattern budget: best reduction.
    Thorough,
}

impl Preset {
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Preset::Fast => 0,
            Preset::Paper => 1,
            Preset::Thorough => 2,
        }
    }

    pub(crate) fn from_u8(value: u8) -> Option<Self> {
        match value {
            0 => Some(Preset::Fast),
            1 => Some(Preset::Paper),
            2 => Some(Preset::Thorough),
            _ => None,
        }
    }

    /// Parses the human spelling used by `sweepctl --preset`.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "fast" => Some(Preset::Fast),
            "paper" => Some(Preset::Paper),
            "thorough" => Some(Preset::Thorough),
            _ => None,
        }
    }
}

impl fmt::Display for Preset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Preset::Fast => write!(f, "fast"),
            Preset::Paper => write!(f, "paper"),
            Preset::Thorough => write!(f, "thorough"),
        }
    }
}

/// A client-to-daemon message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a netlist for sweeping.  `aiger` is the raw bytes of an
    /// ASCII or binary AIGER file.
    Submit {
        /// Scheduling priority.
        priority: Priority,
        /// Sweeping engine to run.
        engine: Engine,
        /// Configuration preset to run under.
        preset: Preset,
        /// AIGER bytes of the netlist to sweep.
        aiger: Vec<u8>,
        /// Optional pass script in the [`stp_sweep::PassManager::parse`]
        /// grammar (e.g. `"strash;sweep(stp);verify"`).  Empty runs the
        /// engine's plain sweep.
        passes: String,
    },
    /// Ask for the state of one job.
    Status {
        /// Job to query.
        id: JobId,
    },
    /// Cancel one job (at its next candidate boundary if running).
    Cancel {
        /// Job to cancel.
        id: JobId,
    },
    /// List every job the daemon knows about.
    List,
    /// Fetch the swept AIGER and counters of a `Done` job.
    Fetch {
        /// Job whose output to fetch.
        id: JobId,
    },
    /// Ask the daemon to stop accepting connections and exit cleanly
    /// (suspended jobs stay spilled and are re-adopted on restart).
    Shutdown,
}

/// A daemon-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Reply to `Submit`.
    Submitted {
        /// Id of the (possibly pre-existing) job.
        id: JobId,
        /// `true` when the netlist matched an existing job by canonical
        /// fingerprint and the submission was adopted into it.
        adopted: bool,
    },
    /// Reply to `Status`.
    Job(Box<JobInfo>),
    /// Reply to `List`.
    Jobs(Vec<JobInfo>),
    /// Reply to `Fetch`.
    Output {
        /// The job the output belongs to.
        id: JobId,
        /// Swept netlist, as ASCII AIGER bytes.
        aiger: Vec<u8>,
        /// Committed counters of the sweep.
        counters: JobCounters,
    },
    /// Acknowledges `Cancel` and `Shutdown`.
    Done,
    /// Any failure, with a human-readable reason.
    Error(String),
}

/// Why a frame or payload could not be read or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The payload did not parse as a known message.
    Malformed(String),
    /// The peer announced a frame larger than [`MAX_FRAME_LEN`].
    Oversized(u32),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(err) => write!(f, "socket error: {err}"),
            ProtocolError::Malformed(what) => write!(f, "malformed message: {what}"),
            ProtocolError::Oversized(len) => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(err: io::Error) -> Self {
        ProtocolError::Io(err)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len()).map_err(|_| ProtocolError::Oversized(u32::MAX))?;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.  Returns `Ok(None)` on a clean EOF at
/// a frame boundary (the peer hung up between messages).  The payload
/// buffer grows with the bytes that arrive, not with the length the header
/// announces.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len_bytes = [0u8; 4];
    match reader.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(err) => return Err(err.into()),
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized(len));
    }
    let mut payload = Vec::new();
    reader.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(Some(payload))
}

/// Append-only payload builder.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(tag: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.push(PROTOCOL_VERSION);
        buf.push(tag);
        Enc { buf }
    }

    fn u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    fn u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_be_bytes());
    }

    fn bytes(&mut self, value: &[u8]) {
        self.buf
            .extend_from_slice(&(value.len() as u32).to_be_bytes());
        self.buf.extend_from_slice(value);
    }

    fn str(&mut self, value: &str) {
        self.bytes(value.as_bytes());
    }
}

/// Cursor over a received payload.
struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

type DecResult<T> = Result<T, ProtocolError>;

fn malformed(what: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(what.into())
}

impl<'a> Dec<'a> {
    fn new(data: &'a [u8]) -> DecResult<(u8, Self)> {
        let mut dec = Dec { data, pos: 0 };
        let version = dec.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(malformed(format!(
                "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let tag = dec.u8()?;
        Ok((tag, dec))
    }

    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| malformed("truncated payload"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> DecResult<u32> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> DecResult<u64> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn bytes(&mut self) -> DecResult<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn str(&mut self) -> DecResult<String> {
        String::from_utf8(self.bytes()?).map_err(|_| malformed("non-UTF-8 string"))
    }

    fn finish(self) -> DecResult<()> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(malformed(format!(
                "{} trailing bytes after message",
                self.data.len() - self.pos
            )))
        }
    }
}

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_CANCEL: u8 = 3;
const REQ_LIST: u8 = 4;
const REQ_FETCH: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;

const RESP_SUBMITTED: u8 = 1;
const RESP_JOB: u8 = 2;
const RESP_JOBS: u8 = 3;
const RESP_OUTPUT: u8 = 4;
const RESP_DONE: u8 = 5;
const RESP_ERROR: u8 = 6;

fn encode_job_info(enc: &mut Enc, info: &JobInfo) {
    enc.u64(info.id);
    enc.u64(info.canonical_fingerprint);
    enc.u8(info.state.to_u8());
    enc.u8(info.priority.to_u8());
    enc.u8(engine_to_u8(info.engine));
    enc.u8(info.preset.to_u8());
    enc.u64(info.slices);
    enc.u64(info.sat_calls);
    enc.u64(info.committed_candidates);
    enc.str(&info.error);
}

fn decode_job_info(dec: &mut Dec<'_>) -> DecResult<JobInfo> {
    Ok(JobInfo {
        id: dec.u64()?,
        canonical_fingerprint: dec.u64()?,
        state: JobState::from_u8(dec.u8()?).ok_or_else(|| malformed("unknown job state"))?,
        priority: Priority::from_u8(dec.u8()?).ok_or_else(|| malformed("unknown priority"))?,
        engine: engine_from_u8(dec.u8()?).ok_or_else(|| malformed("unknown engine"))?,
        preset: Preset::from_u8(dec.u8()?).ok_or_else(|| malformed("unknown preset"))?,
        slices: dec.u64()?,
        sat_calls: dec.u64()?,
        committed_candidates: dec.u64()?,
        error: dec.str()?,
    })
}

fn encode_counters(enc: &mut Enc, counters: &JobCounters) {
    enc.u64(counters.gates_before);
    enc.u64(counters.gates_after);
    enc.u64(counters.merges);
    enc.u64(counters.constants);
    enc.u64(counters.sat_calls_total);
}

fn decode_counters(dec: &mut Dec<'_>) -> DecResult<JobCounters> {
    Ok(JobCounters {
        gates_before: dec.u64()?,
        gates_after: dec.u64()?,
        merges: dec.u64()?,
        constants: dec.u64()?,
        sat_calls_total: dec.u64()?,
    })
}

impl Request {
    /// Serialises the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Submit {
                priority,
                engine,
                preset,
                aiger,
                passes,
            } => {
                let mut enc = Enc::new(REQ_SUBMIT);
                enc.u8(priority.to_u8());
                enc.u8(engine_to_u8(*engine));
                enc.u8(preset.to_u8());
                enc.bytes(aiger);
                enc.str(passes);
                enc.buf
            }
            Request::Status { id } => {
                let mut enc = Enc::new(REQ_STATUS);
                enc.u64(*id);
                enc.buf
            }
            Request::Cancel { id } => {
                let mut enc = Enc::new(REQ_CANCEL);
                enc.u64(*id);
                enc.buf
            }
            Request::List => Enc::new(REQ_LIST).buf,
            Request::Fetch { id } => {
                let mut enc = Enc::new(REQ_FETCH);
                enc.u64(*id);
                enc.buf
            }
            Request::Shutdown => Enc::new(REQ_SHUTDOWN).buf,
        }
    }

    /// Parses a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (tag, mut dec) = Dec::new(payload)?;
        let request = match tag {
            REQ_SUBMIT => Request::Submit {
                priority: Priority::from_u8(dec.u8()?)
                    .ok_or_else(|| malformed("unknown priority"))?,
                engine: engine_from_u8(dec.u8()?).ok_or_else(|| malformed("unknown engine"))?,
                preset: Preset::from_u8(dec.u8()?).ok_or_else(|| malformed("unknown preset"))?,
                aiger: dec.bytes()?,
                passes: dec.str()?,
            },
            REQ_STATUS => Request::Status { id: dec.u64()? },
            REQ_CANCEL => Request::Cancel { id: dec.u64()? },
            REQ_LIST => Request::List,
            REQ_FETCH => Request::Fetch { id: dec.u64()? },
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(malformed(format!("unknown request tag {other}"))),
        };
        dec.finish()?;
        Ok(request)
    }

    /// Writes the request as one frame.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<(), ProtocolError> {
        write_frame(writer, &self.encode())
    }

    /// Reads one request frame; `Ok(None)` on clean EOF.
    pub fn read_from(reader: &mut impl Read) -> Result<Option<Self>, ProtocolError> {
        match read_frame(reader)? {
            Some(payload) => Ok(Some(Request::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

impl Response {
    /// Serialises the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Submitted { id, adopted } => {
                let mut enc = Enc::new(RESP_SUBMITTED);
                enc.u64(*id);
                enc.u8(u8::from(*adopted));
                enc.buf
            }
            Response::Job(info) => {
                let mut enc = Enc::new(RESP_JOB);
                encode_job_info(&mut enc, info);
                enc.buf
            }
            Response::Jobs(jobs) => {
                let mut enc = Enc::new(RESP_JOBS);
                enc.u64(jobs.len() as u64);
                for info in jobs {
                    encode_job_info(&mut enc, info);
                }
                enc.buf
            }
            Response::Output {
                id,
                aiger,
                counters,
            } => {
                let mut enc = Enc::new(RESP_OUTPUT);
                enc.u64(*id);
                enc.bytes(aiger);
                encode_counters(&mut enc, counters);
                enc.buf
            }
            Response::Done => Enc::new(RESP_DONE).buf,
            Response::Error(reason) => {
                let mut enc = Enc::new(RESP_ERROR);
                enc.str(reason);
                enc.buf
            }
        }
    }

    /// Parses a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let (tag, mut dec) = Dec::new(payload)?;
        let response = match tag {
            RESP_SUBMITTED => Response::Submitted {
                id: dec.u64()?,
                adopted: match dec.u8()? {
                    0 => false,
                    1 => true,
                    other => return Err(malformed(format!("bad boolean {other}"))),
                },
            },
            RESP_JOB => Response::Job(Box::new(decode_job_info(&mut dec)?)),
            RESP_JOBS => {
                let count = dec.u64()?;
                // A JobInfo is at least 40 bytes on the wire, so `count`
                // has a natural upper bound from the frame length; still,
                // check it before reserving.
                if count > MAX_FRAME_LEN as u64 {
                    return Err(malformed("job list length out of range"));
                }
                let mut jobs = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    jobs.push(decode_job_info(&mut dec)?);
                }
                Response::Jobs(jobs)
            }
            RESP_OUTPUT => Response::Output {
                id: dec.u64()?,
                aiger: dec.bytes()?,
                counters: decode_counters(&mut dec)?,
            },
            RESP_DONE => Response::Done,
            RESP_ERROR => Response::Error(dec.str()?),
            other => return Err(malformed(format!("unknown response tag {other}"))),
        };
        dec.finish()?;
        Ok(response)
    }

    /// Writes the response as one frame.
    pub fn write_to(&self, writer: &mut impl Write) -> Result<(), ProtocolError> {
        write_frame(writer, &self.encode())
    }

    /// Reads one response frame; `Ok(None)` on clean EOF.
    pub fn read_from(reader: &mut impl Read) -> Result<Option<Self>, ProtocolError> {
        match read_frame(reader)? {
            Some(payload) => Ok(Some(Response::decode(&payload)?)),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_info(id: JobId) -> JobInfo {
        JobInfo {
            id,
            canonical_fingerprint: 0xDEAD_BEEF_0123_4567,
            state: JobState::Suspended,
            priority: Priority::High,
            engine: Engine::Stp,
            preset: Preset::Paper,
            slices: 17,
            sat_calls: 423,
            committed_candidates: 96,
            error: String::new(),
        }
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Submit {
                priority: Priority::Low,
                engine: Engine::Baseline,
                preset: Preset::Thorough,
                aiger: b"aag 0 0 0 0 0\n".to_vec(),
                passes: String::new(),
            },
            Request::Submit {
                priority: Priority::High,
                engine: Engine::Stp,
                preset: Preset::Paper,
                aiger: b"aag 0 0 0 0 0\n".to_vec(),
                passes: "strash;sweep(stp);verify".into(),
            },
            Request::Status { id: 7 },
            Request::Cancel { id: u64::MAX },
            Request::List,
            Request::Fetch { id: 0 },
            Request::Shutdown,
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).expect("round trip");
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Submitted {
                id: 3,
                adopted: true,
            },
            Response::Job(Box::new(sample_info(1))),
            Response::Jobs(vec![sample_info(1), {
                let mut failed = sample_info(2);
                failed.state = JobState::Failed;
                failed.error = "resume fingerprint mismatch".into();
                failed
            }]),
            Response::Output {
                id: 5,
                aiger: b"aag 1 1 0 1 0\n2\n2\n".to_vec(),
                counters: JobCounters {
                    gates_before: 120,
                    gates_after: 64,
                    merges: 40,
                    constants: 16,
                    sat_calls_total: 333,
                },
            },
            Response::Done,
            Response::Error("no such job".into()),
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).expect("round trip");
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut stream = Vec::new();
        Request::List.write_to(&mut stream).expect("write");
        Request::Status { id: 9 }
            .write_to(&mut stream)
            .expect("write");
        let mut reader = stream.as_slice();
        assert_eq!(
            Request::read_from(&mut reader).expect("read"),
            Some(Request::List)
        );
        assert_eq!(
            Request::read_from(&mut reader).expect("read"),
            Some(Request::Status { id: 9 })
        );
        assert_eq!(Request::read_from(&mut reader).expect("eof"), None);
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let payload = Request::List.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).expect("write");
        // Truncate mid-payload: read_exact of the payload must fail loudly,
        // not report a clean EOF.
        let cut = framed.len() - 1;
        let err = read_frame(&mut &framed[..cut]).expect_err("truncated");
        assert!(matches!(err, ProtocolError::Io(_)), "got {err}");

        let huge = (MAX_FRAME_LEN + 1).to_be_bytes();
        let err = read_frame(&mut huge.as_slice()).expect_err("oversized");
        assert!(matches!(err, ProtocolError::Oversized(_)), "got {err}");
    }

    #[test]
    fn a_lying_length_header_allocates_only_what_arrives() {
        /// Reads from a byte slice, recording the largest buffer it is
        /// handed.
        struct Recording<'a> {
            data: &'a [u8],
            largest: usize,
        }
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest = self.largest.max(buf.len());
                self.data.read(buf)
            }
        }

        // A header announcing the largest legal frame, then 16 bytes.
        let mut input = MAX_FRAME_LEN.to_be_bytes().to_vec();
        input.extend_from_slice(&[7; 16]);
        let mut reader = Recording {
            data: &input,
            largest: 0,
        };
        let err = read_frame(&mut reader).expect_err("short payload");
        assert!(
            matches!(&err, ProtocolError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof),
            "got {err}"
        );
        assert!(
            reader.largest <= 64 * 1024,
            "the reader was handed a {}-byte buffer for 20 input bytes",
            reader.largest
        );
    }

    #[test]
    fn retired_versions_are_rejected_with_a_typed_error() {
        // A v3 Submit: pass script plus the trailing shard count that
        // version carried.
        let aiger = b"aag 0 0 0 0 0\n";
        let passes = b"strash;sweep(stp)";
        let mut v3_submit: Vec<u8> = vec![
            3, // version
            super::REQ_SUBMIT,
            Priority::High.to_u8(),
            engine_to_u8(Engine::Baseline),
            Preset::Paper.to_u8(),
        ];
        v3_submit.extend_from_slice(&(aiger.len() as u32).to_be_bytes());
        v3_submit.extend_from_slice(aiger);
        v3_submit.extend_from_slice(&(passes.len() as u32).to_be_bytes());
        v3_submit.extend_from_slice(passes);
        v3_submit.extend_from_slice(&2u32.to_be_bytes());
        let err = Request::decode(&v3_submit).expect_err("v3 is retired");
        assert!(matches!(err, ProtocolError::Malformed(_)), "got {err}");
        assert!(err.to_string().contains("version 3"), "got {err}");

        // Every other version byte fails the same way, for responses too.
        for version in [0u8, 1, 2, PROTOCOL_VERSION + 1] {
            let named = format!("version {version}");
            let mut list = Request::List.encode();
            list[0] = version;
            let err = Request::decode(&list).expect_err("retired version");
            assert!(matches!(err, ProtocolError::Malformed(_)), "got {err}");
            assert!(err.to_string().contains(&named), "got {err}");
            let mut done = Response::Done.encode();
            done[0] = version;
            let err = Response::decode(&done).expect_err("retired version");
            assert!(matches!(err, ProtocolError::Malformed(_)), "got {err}");
            assert!(err.to_string().contains(&named), "got {err}");
        }
    }

    #[test]
    fn unknown_versions_tags_and_trailing_bytes_are_rejected() {
        let mut wrong_version = Request::List.encode();
        wrong_version[0] = PROTOCOL_VERSION + 1;
        let err = Request::decode(&wrong_version).expect_err("version");
        assert!(err.to_string().contains("protocol version"), "got {err}");

        let unknown_tag = [PROTOCOL_VERSION, 250];
        assert!(Request::decode(&unknown_tag).is_err());
        assert!(Response::decode(&unknown_tag).is_err());

        let mut trailing = Request::Status { id: 1 }.encode();
        trailing.push(0);
        let err = Request::decode(&trailing).expect_err("trailing");
        assert!(err.to_string().contains("trailing"), "got {err}");

        // A Submit whose inner byte-string length points past the payload.
        let mut lying = Request::Submit {
            priority: Priority::Normal,
            engine: Engine::Stp,
            preset: Preset::Fast,
            aiger: vec![0; 8],
            passes: String::new(),
        }
        .encode();
        // ... the AIGER length prefix sits before the 8 AIGER bytes and the
        // (empty) pass-script string's own 4-byte length.
        let len_at = lying.len() - 4 - 8 - 4;
        lying[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(Request::decode(&lying).is_err());
    }
}
