//! Command-line client for `sweepd`.
//!
//! ```text
//! sweepctl [--socket PATH | --tcp ADDR] <command>
//!
//! commands:
//!   submit FILE [--priority low|normal|high] [--engine baseline|stp]
//!               [--preset fast|paper|thorough] [--passes SCRIPT]
//!               [--wait] [-o OUT]
//!   status ID
//!   cancel ID
//!   list
//!   result ID [-o OUT]
//!   shutdown
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use sweepd::job::parse_engine;
use sweepd::server::Endpoint;
use sweepd::{JobCounters, JobInfo, Preset, Priority, SweepClient};

const USAGE: &str = "usage: sweepctl [--socket PATH | --tcp ADDR] \
                     submit|status|cancel|list|result|shutdown ...";

/// How long `submit --wait` and `result` are willing to wait.
const WAIT_TIMEOUT: Duration = Duration::from_secs(600);

fn print_info(info: &JobInfo) {
    print!(
        "job {:>3}  {:9}  prio {:6}  {}/{}  slices {:>4}  sat {:>6}  committed {:>6}  fp {:016x}",
        info.id,
        info.state.to_string(),
        info.priority.to_string(),
        info.engine,
        info.preset,
        info.slices,
        info.sat_calls,
        info.committed_candidates,
        info.canonical_fingerprint,
    );
    if info.error.is_empty() {
        println!();
    } else {
        println!("  ({})", info.error);
    }
}

fn write_output(out: Option<&PathBuf>, aiger: &[u8], counters: &JobCounters) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, aiger)
                .map_err(|err| format!("writing {}: {err}", path.display()))?;
            eprintln!("swept: {counters} -> {}", path.display());
        }
        None => {
            // AIGER on stdout, counters on stderr, so output can be piped.
            print!("{}", String::from_utf8_lossy(aiger));
            eprintln!("swept: {counters}");
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut endpoint = Endpoint::Unix(PathBuf::from("/tmp/sweepd.sock"));

    // Global endpoint flags may precede the command.
    while let Some(first) = args.first().cloned() {
        match first.as_str() {
            "--socket" | "--tcp" => {
                if args.len() < 2 {
                    return Err(format!("{first} needs a value"));
                }
                let value = args.remove(1);
                args.remove(0);
                endpoint = if first == "--socket" {
                    Endpoint::Unix(PathBuf::from(value))
                } else {
                    Endpoint::Tcp(value)
                };
            }
            _ => break,
        }
    }
    let client = SweepClient::connect_to(endpoint);
    let command = args.first().cloned().ok_or(USAGE.to_string())?;
    let err = |what: &str| format!("{what}\n{USAGE}");

    let parse_id = |args: &[String]| -> Result<u64, String> {
        args.get(1)
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| err("expected a numeric job id"))
    };

    match command.as_str() {
        "submit" => {
            let mut file = None;
            let mut priority = Priority::Normal;
            let mut engine = stp_sweep::Engine::Stp;
            let mut preset = Preset::Fast;
            let mut passes = String::new();
            let mut wait = false;
            let mut out = None;
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                let mut value =
                    |flag: &str| rest.next().cloned().ok_or(format!("{flag} needs a value"));
                match arg.as_str() {
                    "--priority" => {
                        priority = Priority::parse(&value("--priority")?)
                            .ok_or_else(|| err("--priority is low|normal|high"))?
                    }
                    "--engine" => {
                        engine = parse_engine(&value("--engine")?)
                            .ok_or_else(|| err("--engine is baseline|stp"))?
                    }
                    "--preset" => {
                        preset = Preset::parse(&value("--preset")?)
                            .ok_or_else(|| err("--preset is fast|paper|thorough"))?
                    }
                    "--passes" => passes = value("--passes")?,
                    "--wait" => wait = true,
                    "-o" => out = Some(PathBuf::from(value("-o")?)),
                    other if file.is_none() && !other.starts_with('-') => {
                        file = Some(PathBuf::from(other))
                    }
                    other => return Err(err(&format!("unknown submit argument {other}"))),
                }
            }
            let file = file.ok_or_else(|| err("submit needs an AIGER file"))?;
            let aiger =
                std::fs::read(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
            let (id, adopted) = client
                .submit_with_passes(priority, engine, preset, &passes, &aiger)
                .map_err(|e| e.to_string())?;
            if adopted {
                println!("job {id} (adopted an existing job for this netlist)");
            } else {
                println!("job {id}");
            }
            if wait {
                let (aiger, counters) = client
                    .wait_result(id, WAIT_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                write_output(out.as_ref(), &aiger, &counters)?;
            }
            Ok(())
        }
        "status" => {
            let info = client.status(parse_id(&args)?).map_err(|e| e.to_string())?;
            print_info(&info);
            Ok(())
        }
        "cancel" => {
            let id = parse_id(&args)?;
            client.cancel(id).map_err(|e| e.to_string())?;
            println!("cancelled job {id}");
            Ok(())
        }
        "list" => {
            let jobs = client.list().map_err(|e| e.to_string())?;
            if jobs.is_empty() {
                println!("no jobs");
            }
            for info in &jobs {
                print_info(info);
            }
            Ok(())
        }
        "result" => {
            let id = parse_id(&args)?;
            let out = match args.get(2).map(String::as_str) {
                Some("-o") => Some(PathBuf::from(
                    args.get(3).ok_or_else(|| err("-o needs a value"))?,
                )),
                Some(other) => return Err(err(&format!("unknown result argument {other}"))),
                None => None,
            };
            let (aiger, counters) = client
                .wait_result(id, WAIT_TIMEOUT)
                .map_err(|e| e.to_string())?;
            write_output(out.as_ref(), &aiger, &counters)
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon is shutting down");
            Ok(())
        }
        other => Err(err(&format!("unknown command {other}"))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
