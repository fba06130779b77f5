//! The sweep-service daemon.
//!
//! ```text
//! sweepd [--socket PATH | --tcp ADDR] [--workers N] [--quantum-ms N]
//!        [--spill-dir DIR]
//! ```
//!
//! Listens on a Unix socket (default `/tmp/sweepd.sock`) or a TCP address
//! and serves sweep jobs until a client sends `shutdown`.  With a spill
//! directory, suspended jobs survive restarts: start the daemon again on
//! the same directory and they resume byte-exactly.  Each suspended slice
//! spills its checkpoint, so `--quantum-ms` also bounds the work a crash
//! can lose.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use sweepd::server::Endpoint;
use sweepd::{serve, ServiceConfig, SweepService};

const USAGE: &str = "usage: sweepd [--socket PATH | --tcp ADDR] [--workers N] \
                     [--quantum-ms N] [--spill-dir DIR]";

struct Args {
    endpoint: Endpoint,
    config: ServiceConfig,
}

fn parse_args(mut args: std::env::Args) -> Result<Args, String> {
    let _ = args.next();
    let mut endpoint = Endpoint::Unix(PathBuf::from("/tmp/sweepd.sock"));
    let mut config = ServiceConfig::default();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--socket" => endpoint = Endpoint::Unix(PathBuf::from(value("--socket")?)),
            "--tcp" => endpoint = Endpoint::Tcp(value("--tcp")?),
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?
            }
            "--quantum-ms" => {
                let millis: u64 = value("--quantum-ms")?
                    .parse()
                    .map_err(|_| "--quantum-ms needs a positive integer".to_string())?;
                config.quantum = Duration::from_millis(millis.max(1));
            }
            "--spill-dir" => config.spill_dir = Some(PathBuf::from(value("--spill-dir")?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(Args { endpoint, config })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let spill_note = match &args.config.spill_dir {
        Some(dir) => format!(", spilling to {}", dir.display()),
        None => ", in-memory only".to_string(),
    };
    let service = match SweepService::start(args.config.clone()) {
        Ok(service) => Arc::new(service),
        Err(err) => {
            eprintln!("sweepd: failed to start: {err}");
            return ExitCode::FAILURE;
        }
    };
    let adopted = service.list().len();
    println!(
        "sweepd: listening on {} ({} workers, {} ms quantum{spill_note})",
        args.endpoint,
        args.config.workers,
        args.config.quantum.as_millis()
    );
    if adopted > 0 {
        println!("sweepd: re-adopted {adopted} spilled job(s)");
    }
    let served = serve(Arc::clone(&service), &args.endpoint);
    // Suspend whatever is still running (spilling it if configured) before
    // reporting how the listener ended.
    service.shutdown();
    match served {
        Ok(()) => {
            println!("sweepd: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("sweepd: listener failed: {err}");
            ExitCode::FAILURE
        }
    }
}
