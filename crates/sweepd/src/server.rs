//! The socket front end: accepts connections on a Unix socket (the
//! default) or a TCP address and speaks the [`crate::protocol`] with each
//! client on its own thread.
//!
//! The server is a thin shell: every request maps onto one
//! [`SweepService`] method, and all scheduling lives in the service.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::protocol::{Request, Response};
use crate::scheduler::SweepService;

/// Where the daemon listens (and where a [`crate::SweepClient`] connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7171`.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One accepted connection, Unix or TCP.
pub(crate) enum Stream {
    /// Over a Unix-domain socket.
    Unix(UnixStream),
    /// Over TCP.
    Tcp(TcpStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(stream) => stream.read(buf),
            Stream::Tcp(stream) => stream.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(stream) => stream.write(buf),
            Stream::Tcp(stream) => stream.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(stream) => stream.flush(),
            Stream::Tcp(stream) => stream.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(listener) => listener.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(listener) => listener.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Maps one request onto the service.  The `Shutdown` acknowledgement is
/// produced here; actually stopping is the caller's job.
fn dispatch(service: &SweepService, request: &Request) -> Response {
    match request {
        Request::Submit {
            priority,
            engine,
            preset,
            aiger,
            passes,
        } => match service.submit_with_passes(*priority, *engine, *preset, passes, aiger) {
            Ok((id, adopted)) => Response::Submitted { id, adopted },
            Err(reason) => Response::Error(reason),
        },
        Request::Status { id } => match service.status(*id) {
            Some(info) => Response::Job(Box::new(info)),
            None => Response::Error(format!("no such job {id}")),
        },
        Request::Cancel { id } => match service.cancel(*id) {
            Ok(()) => Response::Done,
            Err(reason) => Response::Error(reason),
        },
        Request::List => Response::Jobs(service.list()),
        Request::Fetch { id } => match service.fetch(*id) {
            Ok((aiger, counters)) => Response::Output {
                id: *id,
                aiger,
                counters,
            },
            Err(reason) => Response::Error(reason),
        },
        Request::Shutdown => Response::Done,
    }
}

/// Serves one connection until the peer hangs up (or asks for shutdown).
fn handle_connection(service: &SweepService, mut stream: Stream, stop: &AtomicBool) {
    loop {
        let request = match Request::read_from(&mut stream) {
            Ok(Some(request)) => request,
            // Clean EOF, a hung-up peer, or garbage: this connection is
            // done either way; the daemon itself is unaffected.
            Ok(None) | Err(_) => return,
        };
        let response = dispatch(service, &request);
        if response.write_to(&mut stream).is_err() {
            return;
        }
        if matches!(request, Request::Shutdown) {
            stop.store(true, Ordering::Relaxed);
            return;
        }
    }
}

/// Binds `endpoint` and serves until a client sends `Shutdown` (or the
/// service itself was shut down).  Returns once every connection thread
/// has drained.  The caller still owns stopping the service afterwards.
pub fn serve(service: Arc<SweepService>, endpoint: &Endpoint) -> io::Result<()> {
    let listener = match endpoint {
        Endpoint::Unix(path) => {
            // A stale socket file from a crashed daemon would fail the
            // bind; this daemon is the path's owner, so reclaim it.
            let _ = fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            Listener::Unix(listener)
        }
        Endpoint::Tcp(addr) => {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            Listener::Tcp(listener)
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let mut connections: Vec<thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Relaxed) && !service.is_shut_down() {
        match listener.accept() {
            Ok(stream) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let handle =
                    thread::Builder::new()
                        .name("sweepd-conn".into())
                        .spawn(move || {
                            // Frame reads on the accepted stream should block.
                            match &stream {
                                Stream::Unix(s) => {
                                    let _ = s.set_nonblocking(false);
                                }
                                Stream::Tcp(s) => {
                                    let _ = s.set_nonblocking(false);
                                }
                            }
                            handle_connection(&service, stream, &stop);
                        })?;
                connections.retain(|conn| !conn.is_finished());
                connections.push(handle);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(err) => return Err(err),
        }
    }
    for connection in connections {
        let _ = connection.join();
    }
    if let Endpoint::Unix(path) = endpoint {
        let _ = fs::remove_file(path);
    }
    Ok(())
}
