//! End-to-end tests for `sweepd`: an in-process daemon on an ephemeral
//! port, exercised through the real TCP stack — the thin client, raw
//! sockets, concurrent clients, and cache persistence across restarts.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use helios::{
    run_sweep_opts, Checkpoint, FusionMode, Json, SimRequest, Sweep, SweepOptions, SweepPolicy,
    Workload,
};
use helios_bench::server::client::remote_sweep_with_summary;
use helios_bench::server::{Server, ServerConfig, MAX_CONNECTIONS};

/// A fresh scratch directory for one test's daemon state.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("helios-sweepd-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Binds a daemon on an ephemeral port and serves it from a thread until
/// the returned guard is dropped.
struct Daemon {
    server: Arc<Server>,
    url: String,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start(cache_dir: &Path) -> Daemon {
        Daemon::with_timeout(cache_dir, None)
    }

    fn with_timeout(cache_dir: &Path, cell_timeout: Option<Duration>) -> Daemon {
        let server = Arc::new(
            Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                jobs: 2,
                cache_dir: cache_dir.to_path_buf(),
                cell_timeout,
            })
            .expect("bind ephemeral port"),
        );
        let url = format!("http://{}", server.local_addr());
        let runner = server.clone();
        let thread = std::thread::spawn(move || runner.run());
        Daemon {
            server,
            url,
            thread: Some(thread),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(t) = self.thread.take() {
            t.join().expect("accept loop exits cleanly");
        }
    }
}

/// Sends one raw request and returns the status line, the head and the
/// body.
fn fetch(authority: &str, request: &[u8]) -> (String, String, String) {
    let mut stream = TcpStream::connect(authority).expect("connect");
    stream.write_all(request).unwrap();
    read_response(stream)
}

fn read_response(stream: TcpStream) -> (String, String, String) {
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let (mut head, mut line) = (String::new(), String::new());
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line == "\n" || line.is_empty() {
            break;
        }
        head.push_str(&line);
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body).unwrap();
    (status, head, body)
}

/// The daemon's `/v1/health` document.
fn health(authority: &str) -> Json {
    let (status, _, body) = fetch(
        authority,
        format!("GET /v1/health HTTP/1.1\r\nHost: {authority}\r\n\r\n").as_bytes(),
    );
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    Json::parse(&body).expect("health is JSON")
}

fn grid() -> (Vec<Workload>, Vec<FusionMode>) {
    let workloads = ["crc32", "bitcount"]
        .iter()
        .map(|n| helios::workload(n).expect("registered"))
        .collect();
    (workloads, vec![FusionMode::NoFusion, FusionMode::Helios])
}

#[test]
fn remote_sweep_matches_local_and_resubmission_hits_the_cache() {
    let dir = scratch("e2e");
    let daemon = Daemon::start(&dir);
    let (workloads, modes) = grid();

    let (sweep, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("remote sweep");
    assert_eq!(summary.simulated, 4, "cold cache simulates every cell");
    assert_eq!(summary.cache_hits, 0);
    assert!(sweep.is_complete());
    assert_eq!(sweep.workloads(), vec!["crc32", "bitcount"]);

    // Remote stats are exactly the local executor's stats, cell by cell.
    for w in &workloads {
        for &mode in &modes {
            let local = SimRequest::mode(w, mode).run().stats;
            let remote = sweep.get(w.name, mode).expect("cell present");
            assert_eq!(remote, &local, "{}/{}", w.name, mode.name());
        }
    }

    // Resubmitting the identical grid must re-simulate nothing.
    let (again, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("warm resubmission");
    assert_eq!(summary.simulated, 0, "warm cache re-simulates zero cells");
    assert_eq!(summary.cache_hits, 4);
    for w in &workloads {
        for &mode in &modes {
            assert_eq!(again.get(w.name, mode), sweep.get(w.name, mode));
        }
    }
}

/// The daemon runs cells through the local executor, so a quarantined cell
/// reads the same either way — same outcome, same attempt count.
#[test]
fn remote_quarantines_match_local_ones() {
    let dir = scratch("quarantine");
    let (workloads, modes) = grid();
    let daemon = Daemon::with_timeout(&dir, Some(Duration::ZERO));
    let (remote, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("remote sweep");
    assert_eq!((summary.simulated, summary.cache_hits), (0, 0));
    let local = run_sweep_opts(
        &workloads,
        &modes,
        &SweepOptions {
            jobs: 2,
            policy: SweepPolicy {
                cell_timeout: Some(Duration::ZERO),
                ..SweepPolicy::default()
            },
            ..SweepOptions::default()
        },
    )
    .expect("local sweep");
    let describe = |s: &Sweep| -> Vec<(&str, FusionMode, String)> {
        s.failures()
            .iter()
            .map(|f| (f.workload, f.mode, f.outcome.describe()))
            .collect()
    };
    assert_eq!(describe(&remote).len(), 4);
    assert_eq!(describe(&remote), describe(&local));
    assert_eq!(
        describe(&remote)[0].2,
        "timed out after 2 attempt(s) (0 ms budget)"
    );
}

/// A local sweep's checkpoint and the daemon's result cache are one store
/// format: a daemon over the directory holding a local checkpoint answers
/// every cell from it.
#[test]
fn a_local_checkpoint_serves_as_the_daemon_store() {
    let dir = scratch("ckpt");
    let (workloads, modes) = grid();
    let local = run_sweep_opts(
        &workloads,
        &modes,
        &SweepOptions {
            jobs: 2,
            checkpoint: Some(Checkpoint {
                path: dir.join("results.jsonl"),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    )
    .expect("local sweep");
    assert!(local.is_complete());

    let daemon = Daemon::start(&dir);
    let (remote, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("remote sweep");
    assert_eq!((summary.cache_hits, summary.simulated), (4, 0));
    for r in local.results() {
        assert_eq!(remote.get(r.workload, r.mode), Some(&r.stats));
    }
}

/// A store written by another timing model answers nothing: a daemon over
/// the same lines with a foreign model digest simulates every cell, and
/// `/v1/health` reports the daemon's own digest.
#[test]
fn a_store_from_another_model_is_resimulated() {
    let dir = scratch("model");
    let store = dir.join("results.jsonl");
    let (workloads, modes) = grid();
    let local = run_sweep_opts(
        &workloads,
        &modes,
        &SweepOptions {
            jobs: 2,
            checkpoint: Some(Checkpoint {
                path: store.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    )
    .expect("local sweep");
    let ours = format!("{:016x}", helios::MODEL_DIGEST);
    let foreign = format!("{:016x}", !helios::MODEL_DIGEST);
    let text = std::fs::read_to_string(&store).unwrap();
    assert_eq!(text.matches(&format!("\"model\":\"{ours}\"")).count(), 4);
    std::fs::write(&store, text.replace(&ours, &foreign)).unwrap();

    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap();
    assert_eq!(
        health(authority).get("model").and_then(Json::as_str),
        Some(ours.as_str())
    );
    let (remote, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("remote sweep");
    assert_eq!((summary.cache_hits, summary.simulated), (0, 4));
    for r in local.results() {
        assert_eq!(remote.get(r.workload, r.mode), Some(&r.stats));
    }
}

#[test]
fn cache_survives_a_daemon_restart() {
    let dir = scratch("restart");
    let (workloads, modes) = grid();
    {
        let daemon = Daemon::start(&dir);
        let (_, summary) =
            remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("cold sweep");
        assert_eq!(summary.simulated, 4);
    }
    // A fresh daemon over the same state directory answers from disk.
    let daemon = Daemon::start(&dir);
    let (sweep, summary) =
        remote_sweep_with_summary(&daemon.url, &workloads, &modes).expect("warm sweep");
    assert_eq!(summary.simulated, 0, "journal reload kept every cell");
    assert_eq!(summary.cache_hits, 4);
    assert!(sweep.is_complete());
}

#[test]
fn concurrent_clients_both_complete_with_correct_results() {
    let dir = scratch("fair");
    let daemon = Daemon::start(&dir);
    let url = daemon.url.clone();

    let grids: Vec<(Vec<Workload>, Vec<FusionMode>)> = vec![
        (
            vec![helios::workload("crc32").unwrap(), helios::workload("fft").unwrap()],
            vec![FusionMode::NoFusion, FusionMode::Helios],
        ),
        (
            vec![helios::workload("bitcount").unwrap()],
            vec![FusionMode::RiscvFusion, FusionMode::OracleFusion],
        ),
    ];
    std::thread::scope(|s| {
        let handles: Vec<_> = grids
            .iter()
            .map(|(w, m)| {
                let url = url.clone();
                s.spawn(move || remote_sweep_with_summary(&url, w, m).expect("client sweep"))
            })
            .collect();
        for (h, (w, m)) in handles.into_iter().zip(&grids) {
            let (sweep, _) = h.join().expect("client thread");
            assert!(sweep.is_complete());
            for w in w {
                for &mode in m.iter() {
                    let local = SimRequest::mode(w, mode).run().stats;
                    assert_eq!(sweep.get(w.name, mode), Some(&local));
                }
            }
        }
    });
}

/// Speaks raw HTTP to the daemon and checks the stream's shape: every line
/// is one `helios-sweepd-v1` JSON object, `done` counts are monotonically
/// increasing, and the final line is the `done` event.
#[test]
fn streamed_progress_is_well_formed_jsonl() {
    let dir = scratch("jsonl");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap().to_string();

    let body = r#"{"schema":"helios-sweep-req-v1","workloads":["crc32"],"modes":["NoFusion","Helios"]}"#;
    let mut stream = TcpStream::connect(&authority).expect("connect");
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("HTTP/1.1 200"), "{line}");
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line == "\n" {
            break;
        }
        assert!(!line.is_empty(), "headers ended at EOF");
    }

    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 3, "2 progress lines + 1 done line: {lines:?}");
    let mut last_done = 0;
    for (i, l) in lines.iter().enumerate() {
        let doc = Json::parse(l).expect("every line is standalone JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("helios-sweepd-v1")
        );
        let event = doc.get("event").and_then(Json::as_str).unwrap();
        if i < lines.len() - 1 {
            assert_eq!(event, "progress");
            let done = doc.get("done").and_then(Json::as_u64).unwrap();
            assert!(done > last_done, "progress counts increase");
            last_done = done;
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
        } else {
            assert_eq!(event, "done", "stream ends with the done event");
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
            let cells = doc.get("cells").and_then(Json::as_array).unwrap();
            assert_eq!(cells.len(), 2);
            assert_eq!(
                doc.get("failures").and_then(Json::as_array).map(<[Json]>::len),
                Some(0)
            );
        }
    }
}

#[test]
fn health_endpoint_and_error_paths() {
    let dir = scratch("health");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap().to_string();

    let doc = health(&authority);
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(doc.get("cached_cells").and_then(Json::as_u64), Some(0));

    let (status, _, _) = fetch(
        &authority,
        format!("GET /nope HTTP/1.1\r\nHost: {authority}\r\n\r\n").as_bytes(),
    );
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");

    let bad = r#"{"schema":"helios-sweep-req-v1","workloads":["not-a-workload"],"modes":["Helios"]}"#;
    let (status, _, body) = fetch(
        &authority,
        format!(
            "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n\r\n{bad}",
            bad.len()
        )
        .as_bytes(),
    );
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    assert!(body.contains("unknown workload"), "{body}");
}

/// Two clients released together send the same grid to a cold daemon: each
/// cell is simulated once, and the other job receives that run's result as
/// a cache hit.
#[test]
fn racing_clients_share_one_simulation_per_cell() {
    let dir = scratch("single-flight");
    let daemon = Daemon::start(&dir);
    let workloads: Vec<Workload> = ["fft", "crc32", "bitcount"]
        .iter()
        .map(|n| helios::workload(n).expect("registered"))
        .collect();
    let modes = [FusionMode::NoFusion, FusionMode::Helios];
    let unique = (workloads.len() * modes.len()) as u64;
    let start = Barrier::new(2);
    let answers: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    remote_sweep_with_summary(&daemon.url, &workloads, &modes)
                        .expect("client sweep")
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect()
    });
    let simulated: u64 = answers.iter().map(|(_, s)| s.simulated).sum();
    let hits: u64 = answers.iter().map(|(_, s)| s.cache_hits).sum();
    assert_eq!(simulated, unique, "every cell simulated exactly once");
    assert_eq!(hits, unique, "the other job's copy of each cell is a hit");
    let authority = daemon.url.strip_prefix("http://").unwrap();
    let doc = health(authority);
    assert_eq!(
        doc.get("cells_simulated").and_then(Json::as_u64),
        Some(unique)
    );
    assert_eq!(
        doc.get("cells_from_cache").and_then(Json::as_u64),
        Some(unique)
    );
    for w in &workloads {
        for &mode in &modes {
            let local = SimRequest::mode(w, mode).run().stats;
            for (sweep, _) in &answers {
                assert_eq!(
                    sweep.get(w.name, mode),
                    Some(&local),
                    "{}/{}",
                    w.name,
                    mode.name()
                );
            }
        }
    }
}

/// A body nested a megabyte deep is a 400, not a stack overflow that kills
/// the daemon.
#[test]
fn a_deeply_nested_body_is_rejected_and_the_daemon_survives() {
    let dir = scratch("deep");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap();
    let body = "[".repeat(1024 * 1024);
    let request = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let (status, _, body) = fetch(authority, request.as_bytes());
    assert!(status.starts_with("HTTP/1.1 400"), "{status}");
    assert!(body.contains("nested too deep"), "{body}");
    assert_eq!(
        health(authority).get("status").and_then(Json::as_str),
        Some("ok")
    );
}

/// Past `MAX_CONNECTIONS` live connections the daemon answers `503` with
/// `Retry-After`, and serves again once connections close.
#[test]
fn connections_past_the_cap_get_503_until_one_closes() {
    let dir = scratch("cap");
    let daemon = Daemon::start(&dir);
    let authority = daemon.url.strip_prefix("http://").unwrap();
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(authority).expect("connect"))
        .collect();
    let (status, head, body) = read_response(TcpStream::connect(authority).expect("connect"));
    assert!(status.starts_with("HTTP/1.1 503"), "{status}");
    assert!(head.contains("Retry-After: 1\r\n"), "{head}");
    let error = Json::parse(&body).expect("JSON error body");
    assert!(
        error.get("error").and_then(Json::as_str).is_some(),
        "{body}"
    );

    // The thin client reports the refusal.
    let (workloads, modes) = grid();
    let refused = remote_sweep_with_summary(&daemon.url, &workloads[..1], &modes[..1]);
    let err = refused.err().expect("refused at the cap");
    assert!(err.contains("server rejected the sweep (503)"), "{err}");

    drop(idle);
    // Each idle handler sees EOF and frees its slot.
    let deadline = Instant::now() + Duration::from_secs(10);
    let sweep = loop {
        match remote_sweep_with_summary(&daemon.url, &workloads, &modes) {
            Ok((sweep, _)) => break sweep,
            Err(e) if e.contains("(503)") && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("sweep after the idle connections closed: {e}"),
        }
    };
    assert!(sweep.is_complete());
}

/// Stopping the daemon mid-sweep cancels the queued job like a disconnect
/// does: the cell in flight finishes, then the stream ends, and the client
/// reports the missing `done` event instead of waiting forever.
#[test]
fn stop_mid_sweep_ends_the_client_stream() {
    let dir = scratch("stop");
    let server = Arc::new(
        Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            cache_dir: dir,
            cell_timeout: None,
        })
        .expect("bind ephemeral port"),
    );
    let url = format!("http://{}", server.local_addr());
    let authority = url.strip_prefix("http://").unwrap().to_string();
    let runner = server.clone();
    let accept = std::thread::spawn(move || runner.run());
    let workloads: Vec<Workload> = ["crc32", "bitcount", "fft", "susan"]
        .iter()
        .map(|n| helios::workload(n).expect("registered"))
        .collect();
    let (tx, rx) = mpsc::channel();
    let client = std::thread::spawn(move || {
        let _ = tx.send(remote_sweep_with_summary(&url, &workloads, &FusionMode::ALL).map(|_| ()));
    });

    let deadline = Instant::now() + Duration::from_secs(60);
    let simulated = || {
        health(&authority)
            .get("cells_simulated")
            .and_then(Json::as_u64)
    };
    while simulated() == Some(0) {
        assert!(Instant::now() < deadline, "no cell finished within 60 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.stop();
    let answer = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the client returns after stop()");
    let err = answer.expect_err("a stopped daemon sends no done event");
    assert!(err.contains("ended without a done event"), "{err}");
    client.join().expect("client thread");
    accept.join().expect("accept loop exits cleanly");
}

/// Starts `server.run()` on a thread, calls `stop()` before or after it,
/// and requires `run` to return within 2 s.
fn stop_returns_run(server: Server, stop_first: bool) {
    let server = Arc::new(server);
    if stop_first {
        server.stop();
    }
    let (tx, rx) = mpsc::channel();
    let runner = server.clone();
    let accept = std::thread::spawn(move || {
        runner.run();
        let _ = tx.send(());
    });
    if !stop_first {
        // Give `run` time to block in `accept`; it must return either way.
        std::thread::sleep(Duration::from_millis(100));
        server.stop();
    }
    rx.recv_timeout(Duration::from_secs(2))
        .expect("run() returns within 2 s of stop()");
    accept.join().expect("accept loop exits cleanly");
}

fn bind(tag: &str, addr: &str) -> Server {
    Server::bind(&ServerConfig {
        addr: addr.to_string(),
        jobs: 1,
        cache_dir: scratch(tag),
        cell_timeout: None,
    })
    .expect("bind ephemeral port")
}

/// The accept loop blocks in `accept`; `stop()` must wake it whether or not
/// a client ever connected, on a wildcard address too, and even when it
/// comes before `run()`.
#[test]
fn stop_wakes_a_blocked_accept_loop() {
    stop_returns_run(bind("wake-idle", "127.0.0.1:0"), false);
    stop_returns_run(bind("wake-any", "0.0.0.0:0"), false);
    stop_returns_run(bind("wake-early", "127.0.0.1:0"), true);
}

/// Plays a daemon for one request: reads it, then answers `done_line` as
/// the whole event stream. Returns the URL to send the request to.
fn canned_daemon(done_line: String) -> (String, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let url = format!("http://{}", listener.local_addr().unwrap());
    let thread = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let (mut line, mut length) = (String::new(), 0);
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(n) = line.strip_prefix("Content-Length: ") {
                length = n.trim().parse().unwrap();
            }
            if line == "\r\n" {
                break;
            }
        }
        std::io::Read::read_exact(&mut reader, &mut vec![0; length]).unwrap();
        let mut writer = stream;
        write!(
            writer,
            "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n{done_line}\n"
        )
        .unwrap();
    });
    (url, thread)
}

/// A `done` event listing `cells` and `failures`, each a (workload, mode).
fn done_event(cells: &[(&str, FusionMode)], failures: &[(&str, FusionMode)]) -> String {
    let stats = helios::stats_to_json(&helios::SimStats::default());
    let entry = |w: &str, m: FusionMode| {
        vec![
            ("workload".to_string(), Json::Str(w.to_string())),
            ("mode".to_string(), Json::Str(m.name().to_string())),
        ]
    };
    let cells = cells
        .iter()
        .map(|&(w, m)| {
            let mut e = entry(w, m);
            e.push(("stats".to_string(), stats.clone()));
            Json::Obj(e)
        })
        .collect();
    let failures = failures
        .iter()
        .map(|&(w, m)| {
            let mut e = entry(w, m);
            e.push(("kind".to_string(), Json::Str("failed".to_string())));
            e.push(("error".to_string(), Json::Str("boom".to_string())));
            Json::Obj(e)
        })
        .collect();
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str(helios_bench::server::EVENT_SCHEMA.to_string()),
        ),
        ("event".to_string(), Json::Str("done".to_string())),
        ("cache_hits".to_string(), Json::Num(0.0)),
        ("simulated".to_string(), Json::Num(0.0)),
        ("failures".to_string(), Json::Arr(failures)),
        ("cells".to_string(), Json::Arr(cells)),
    ])
    .to_string()
}

/// The thin client accepts a `done` event only if it answers each cell of
/// the requested grid exactly once; the right count of cells is not enough.
/// Each cell's stats must name every counter once.
#[test]
fn a_done_event_must_answer_the_requested_grid_exactly_once() {
    use FusionMode::{Helios, NoFusion};
    let fft = vec![helios::workload("fft").expect("registered")];
    let crc32_row: Vec<_> = FusionMode::ALL.iter().map(|&m| ("crc32", m)).collect();
    let cases: [(&[FusionMode], String, &str); 4] = [
        // Six crc32 cells for an fft request.
        (
            &FusionMode::ALL,
            done_event(&crc32_row, &[]),
            "cell crc32/NoFusion outside the grid",
        ),
        // One cell twice, its neighbour never.
        (
            &[NoFusion, Helios],
            done_event(&[("fft", NoFusion), ("fft", NoFusion)], &[]),
            "cell fft/NoFusion twice",
        ),
        // A failure in a mode the request did not name.
        (
            &[NoFusion],
            done_event(&[], &[("fft", Helios)]),
            "failure fft/Helios outside the grid",
        ),
        // A cell whose stats repeat `cycles` in place of `uops`.
        (
            &[Helios],
            done_event(&[("fft", Helios)], &[]).replace("\"uops\":0,", "\"cycles\":0,"),
            "repeated stats key `cycles`",
        ),
    ];
    for (modes, done, want) in cases {
        let (url, daemon) = canned_daemon(done);
        let answer = remote_sweep_with_summary(&url, &fft, modes);
        daemon.join().expect("canned daemon");
        let err = answer.err().expect("a malformed done event is an error");
        assert!(err.contains(want), "want `{want}` in `{err}`");
    }
}
