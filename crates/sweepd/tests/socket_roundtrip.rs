//! End-to-end over a real Unix socket: daemon thread on one side, the
//! blocking client on the other, full submit → wait → fetch → shutdown
//! lifecycle, with the same byte-identity gate as the in-process battery;
//! and a shutdown that an idle connection must not hold up.

mod common;

use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{aiger_bytes, fresh_dir, reference};
use stp_sweep::Engine;
use sweepd::server::Endpoint;
use sweepd::{serve, JobState, Preset, Priority, ServiceConfig, SweepClient, SweepService};
use workloads::{generators, inject_redundancy};

#[test]
fn socket_end_to_end_lifecycle() {
    let dir = fresh_dir("socket");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("sweepd.sock");
    let service = Arc::new(
        SweepService::start(ServiceConfig {
            workers: 2,
            quantum: Duration::from_millis(5),
            spill_dir: None,
            checkpoint_every_secs: 0.0,
        })
        .expect("service starts"),
    );
    let server = {
        let service = Arc::clone(&service);
        let endpoint = Endpoint::Unix(socket.clone());
        std::thread::spawn(move || serve(service, &endpoint))
    };

    // The server binds asynchronously; poll until it answers.
    let client = SweepClient::unix(&socket);
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.list().is_err() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(5));
    }

    let aig = inject_redundancy(&generators::barrel_shifter(8), 0.5, 21);
    let (id, adopted) = client
        .submit(
            Priority::High,
            Engine::Stp,
            Preset::Fast,
            &aiger_bytes(&aig),
        )
        .expect("submit over the socket");
    assert!(!adopted);

    let (aiger, counters) = client
        .wait_result(id, Duration::from_secs(300))
        .expect("job finishes");
    let (want_aiger, want_counters) = reference(Engine::Stp, Preset::Fast, &aig);
    assert_eq!(
        String::from_utf8(aiger).expect("AIGER is text"),
        want_aiger,
        "output served over the socket differs from the uninterrupted run"
    );
    assert_eq!(counters, want_counters);

    let info = client.status(id).expect("status over the socket");
    assert_eq!(info.state, JobState::Done);
    let jobs = client.list().expect("list over the socket");
    assert!(jobs
        .iter()
        .any(|job| job.id == id && job.state == JobState::Done));

    // A scripted submission rides the same wire: the v2 `passes` field
    // reaches the scheduler and the result matches the in-process
    // pipeline run uninterrupted.
    let script = "strash;sweep(stp);verify";
    let scripted = inject_redundancy(&generators::priority_encoder(10), 0.5, 22);
    let (scripted_id, _) = client
        .submit_with_passes(
            Priority::Normal,
            Engine::Stp,
            Preset::Fast,
            script,
            &aiger_bytes(&scripted),
        )
        .expect("scripted submit over the socket");
    let (aiger, counters) = client
        .wait_result(scripted_id, Duration::from_secs(300))
        .expect("scripted job finishes");
    let want = stp_sweep::PassManager::new(sweepd::effective_config(Preset::Fast))
        .with_script(script)
        .expect("script parses")
        .run(&scripted)
        .expect("uninterrupted pipeline finishes");
    assert_eq!(
        String::from_utf8(aiger).expect("AIGER is text"),
        netlist::write_aiger_string(&want.aig),
        "scripted output served over the socket differs from the in-process pipeline"
    );
    assert_eq!(counters, sweepd::JobCounters::from_report(&want.report));

    // Server-side failures arrive as clean errors, not broken frames.
    assert!(client.status(9999).is_err(), "unknown jobs are an error");
    assert!(
        client
            .submit_with_passes(
                Priority::Low,
                Engine::Stp,
                Preset::Fast,
                "strash;typo",
                &aiger_bytes(&scripted),
            )
            .is_err(),
        "an invalid pass script is an error"
    );
    assert!(
        client
            .submit(
                Priority::Low,
                Engine::Stp,
                Preset::Fast,
                b"not an aiger file"
            )
            .is_err(),
        "invalid AIGER is an error"
    );

    client.shutdown().expect("shutdown over the socket");
    server
        .join()
        .expect("server thread exits")
        .expect("server exits cleanly");
    assert!(!socket.exists(), "the socket file is cleaned up");
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_returns_while_an_idle_client_holds_a_connection() {
    let dir = fresh_dir("socket-idle");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("sweepd.sock");
    let service = Arc::new(
        SweepService::start(ServiceConfig {
            workers: 1,
            quantum: Duration::from_millis(5),
            spill_dir: None,
            checkpoint_every_secs: 0.0,
        })
        .expect("service starts"),
    );
    let server = {
        let service = Arc::clone(&service);
        let endpoint = Endpoint::Unix(socket.clone());
        std::thread::spawn(move || serve(service, &endpoint))
    };
    let client = SweepClient::unix(&socket);
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.list().is_err() {
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A client that connects and never sends a request.  The server
    // accepts connections in order, so once the next request is answered
    // the idle one has its own connection thread.
    let idle = UnixStream::connect(&socket).expect("idle client connects");
    client.list().expect("list over the socket");

    client.shutdown().expect("shutdown over the socket");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.is_finished() {
        assert!(
            Instant::now() < deadline,
            "serve did not return within 5 s of Shutdown while a client held an idle connection"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server
        .join()
        .expect("server thread exits")
        .expect("server exits cleanly");
    drop(idle);
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
