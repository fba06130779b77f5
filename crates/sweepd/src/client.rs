//! A blocking client for the daemon, used by `sweepctl` and the tests.
//!
//! The client opens one connection per request — the protocol is strictly
//! request/response, so this keeps every call independent and makes the
//! client trivially usable from multiple threads.

use std::fmt;
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

use crate::job::{JobCounters, JobId, JobInfo, JobState, Priority};
use crate::protocol::{Preset, ProtocolError, Request, Response};
use crate::server::{Endpoint, Stream};
use stp_sweep::Engine;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Could not connect or the socket failed mid-call.
    Io(io::Error),
    /// The daemon sent something this client cannot parse.
    Protocol(ProtocolError),
    /// The daemon answered with an error (unknown job, invalid AIGER, a
    /// failed sweep, ...).
    Server(String),
    /// The daemon answered with the wrong message kind, or the wait
    /// timed out.
    Unexpected(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "connection failed: {err}"),
            ClientError::Protocol(err) => write!(f, "{err}"),
            ClientError::Server(reason) => write!(f, "daemon error: {reason}"),
            ClientError::Unexpected(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> Self {
        ClientError::Io(err)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(err: ProtocolError) -> Self {
        match err {
            ProtocolError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other),
        }
    }
}

/// A handle on one daemon endpoint.
pub struct SweepClient {
    endpoint: Endpoint,
}

impl SweepClient {
    /// A client for a daemon on a Unix socket.
    pub fn unix(path: impl Into<PathBuf>) -> Self {
        SweepClient {
            endpoint: Endpoint::Unix(path.into()),
        }
    }

    /// A client for a daemon on a TCP address like `127.0.0.1:7171`.
    pub fn tcp(addr: impl Into<String>) -> Self {
        SweepClient {
            endpoint: Endpoint::Tcp(addr.into()),
        }
    }

    /// A client for an already-parsed endpoint.
    pub fn connect_to(endpoint: Endpoint) -> Self {
        SweepClient { endpoint }
    }

    fn roundtrip(&self, request: &Request) -> Result<Response, ClientError> {
        let mut stream = match &self.endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        };
        request.write_to(&mut stream)?;
        match Response::read_from(&mut stream)? {
            Some(Response::Error(reason)) => Err(ClientError::Server(reason)),
            Some(response) => Ok(response),
            None => Err(ClientError::Unexpected(
                "the daemon closed the connection without answering".into(),
            )),
        }
    }

    /// Submits AIGER bytes for a plain sweep; returns the job id and
    /// whether the submission was adopted into an existing job.
    pub fn submit(
        &self,
        priority: Priority,
        engine: Engine,
        preset: Preset,
        aiger: &[u8],
    ) -> Result<(JobId, bool), ClientError> {
        self.submit_with_passes(priority, engine, preset, "", aiger)
    }

    /// Submits AIGER bytes with an optional pass script (the
    /// [`stp_sweep::PassManager::parse`] grammar; empty runs the engine's
    /// plain sweep).  The daemon validates the script at submission and
    /// rejects typos as a server error.
    pub fn submit_with_passes(
        &self,
        priority: Priority,
        engine: Engine,
        preset: Preset,
        passes: &str,
        aiger: &[u8],
    ) -> Result<(JobId, bool), ClientError> {
        match self.roundtrip(&Request::Submit {
            priority,
            engine,
            preset,
            aiger: aiger.to_vec(),
            passes: passes.to_string(),
        })? {
            Response::Submitted { id, adopted } => Ok((id, adopted)),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// The state of one job.
    pub fn status(&self, id: JobId) -> Result<JobInfo, ClientError> {
        match self.roundtrip(&Request::Status { id })? {
            Response::Job(info) => Ok(*info),
            other => Err(unexpected("Job", &other)),
        }
    }

    /// Every job the daemon knows about.
    pub fn list(&self) -> Result<Vec<JobInfo>, ClientError> {
        match self.roundtrip(&Request::List)? {
            Response::Jobs(jobs) => Ok(jobs),
            other => Err(unexpected("Jobs", &other)),
        }
    }

    /// Cancels a job.
    pub fn cancel(&self, id: JobId) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Cancel { id })? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }

    /// Fetches the swept AIGER and counters of a `Done` job.
    pub fn fetch(&self, id: JobId) -> Result<(Vec<u8>, JobCounters), ClientError> {
        match self.roundtrip(&Request::Fetch { id })? {
            Response::Output {
                aiger, counters, ..
            } => Ok((aiger, counters)),
            other => Err(unexpected("Output", &other)),
        }
    }

    /// Polls until the job finishes, then fetches its output.  A job that
    /// ends `Failed` or `Cancelled` is reported as a server error.
    pub fn wait_result(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> Result<(Vec<u8>, JobCounters), ClientError> {
        let deadline = Instant::now() + timeout;
        loop {
            let info = self.status(id)?;
            match info.state {
                JobState::Done => return self.fetch(id),
                JobState::Failed => {
                    return Err(ClientError::Server(format!(
                        "job {id} failed: {}",
                        info.error
                    )))
                }
                JobState::Cancelled => {
                    return Err(ClientError::Server(format!("job {id} was cancelled")))
                }
                _ if Instant::now() >= deadline => {
                    return Err(ClientError::Unexpected(format!(
                        "timed out waiting for job {id} ({})",
                        info.state
                    )))
                }
                _ => thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Asks the daemon to exit cleanly.
    pub fn shutdown(&self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Done => Ok(()),
            other => Err(unexpected("Done", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    let kind = match got {
        Response::Submitted { .. } => "Submitted",
        Response::Job(_) => "Job",
        Response::Jobs(_) => "Jobs",
        Response::Output { .. } => "Output",
        Response::Done => "Done",
        Response::Error(_) => "Error",
    };
    ClientError::Unexpected(format!(
        "the daemon answered {kind} where {wanted} was expected"
    ))
}
