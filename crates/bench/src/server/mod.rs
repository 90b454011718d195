//! `sweepd` — the sweep-as-a-service daemon behind `--server` (DESIGN.md
//! §17).
//!
//! One long-lived process owns the expensive shared state — a
//! content-addressed [`TraceStore`] and a persistent [`ResultStore`] keyed
//! by `(trace digest, config digest)` under [`helios::MODEL_DIGEST`] — and
//! serves sweep requests from the figure binaries over a hand-rolled
//! HTTP/1.1 endpoint (`std::net` only, like everything else in this
//! workspace):
//!
//! * `GET /v1/health` — liveness, model digest and cache occupancy, JSON;
//! * `GET /v1/cache` — cache summary, JSON;
//! * `POST /v1/sweep` — a `helios-sweep-req-v1` grid request; the response
//!   streams `helios-sweepd-v1` JSONL: one `progress` event per finished
//!   cell, then a final `done` event carrying every cell's stats and every
//!   quarantined cell's outcome.
//!
//! Cells are scheduled and run by [`helios::Sched`], as in a local sweep;
//! this module adds HTTP framing, request parsing, event streaming, the
//! connection cap (past [`MAX_CONNECTIONS`] a connection gets `503`) and
//! cancel-on-disconnect. [`Server::stop`] (and SIGINT) cancels every
//! queued job the same way; once in-flight cells land, every open stream
//! ends without a `done` event, which the client reports as an error.

pub mod client;
pub mod http;

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use helios::{
    shared_workload, stats_to_json, CellOutcome, FusionMode, Json, PipeConfig, ResultStore, Sched,
    SweepPolicy, TraceStore, Workload,
};

/// Schema tag on every streamed response line.
pub const EVENT_SCHEMA: &str = "helios-sweepd-v1";
/// Schema tag expected on `POST /v1/sweep` bodies.
pub const REQUEST_SCHEMA: &str = "helios-sweep-req-v1";

/// The SIGINT watcher's interval, and the back-off after an `accept` error.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Most connections served at once; each holds one handler thread. Past
/// this the accept loop answers `503 Service Unavailable` itself.
pub const MAX_CONNECTIONS: usize = 64;

/// Daemon configuration (CLI flags of `sweepd`).
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Simulation worker threads.
    pub jobs: usize,
    /// Directory holding the daemon's state: `results.jsonl` (the result
    /// store) and `traces/` (the trace store).
    pub cache_dir: PathBuf,
    /// Wall-clock budget per cell attempt (`None` = unbounded; the
    /// watchdog and cycle budget still bound runaway cells in simulated
    /// time).
    pub cell_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: helios::default_jobs(),
            cache_dir: helios::results_dir().join("sweepd"),
            cell_timeout: None,
        }
    }
}

struct Shared {
    sched: Sched,
    stop: AtomicBool,
    /// Live connection handlers (see [`MAX_CONNECTIONS`]).
    connections: AtomicUsize,
    sweeps_served: AtomicU64,
}

/// Holds one of the [`MAX_CONNECTIONS`] connection slots until dropped.
struct Slot(Arc<Shared>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The daemon: a bound listener plus its worker pool. Dropping the server
/// stops the workers and joins them.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener, opens (or creates) the result store and trace
    /// store under `config.cache_dir`, and starts the worker pool.
    pub fn bind(config: &ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("bind {}: {e}", config.addr))?;
        let path = config.cache_dir.join("results.jsonl");
        let results = ResultStore::open(&path)
            .map_err(|e| format!("result store {}: {e}", path.display()))?;
        let traces = TraceStore::open(config.cache_dir.join("traces"))
            .map_err(|e| format!("trace store: {e}"))?;
        let policy = SweepPolicy {
            cell_timeout: config.cell_timeout,
            ..SweepPolicy::default()
        };
        let shared = Arc::new(Shared {
            sched: Sched::new(policy, None, Some(results), Some(traces)),
            stop: AtomicBool::new(false),
            connections: AtomicUsize::new(0),
            sweeps_served: AtomicU64::new(0),
        });
        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || while shared.sched.run_next().is_some() {})
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            listener,
            shared,
            workers,
        })
    }

    /// The bound address (reports the kernel-chosen port when the config
    /// asked for port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Asks the accept loop and workers to stop. Every queued job is
    /// cancelled as on a disconnect; in-flight cells finish, and then every
    /// open sweep stream ends without a `done` event. The first call wakes
    /// a blocked [`Server::run`] by connecting to the listener.
    pub fn stop(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.sched.stop();
        let mut wake = self.local_addr();
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        if let Err(e) = TcpStream::connect_timeout(&wake, Duration::from_secs(1)) {
            eprintln!("warning: sweepd: waking the accept loop at {wake}: {e}");
        }
    }

    /// Serves connections until [`Server::stop`] is called or the process
    /// is interrupted: SIGINT does not wake `accept`, so a watcher thread
    /// turns `helios::sweep_interrupted` into `stop()`. Each connection gets
    /// its own handler thread, up to [`MAX_CONNECTIONS`] at once; worker
    /// threads do the simulating.
    pub fn run(&self) {
        let stopped = || self.shared.stop.load(Ordering::SeqCst);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !stopped() {
                    if helios::sweep_interrupted() {
                        self.stop();
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
            });
            while !stopped() {
                match self.listener.accept() {
                    Ok(_) if stopped() => {} // `stop()`'s wake-up, usually
                    Ok((stream, _))
                        if self.shared.connections.load(Ordering::Relaxed) >= MAX_CONNECTIONS =>
                    {
                        refuse(stream);
                    }
                    Ok((stream, _)) => {
                        self.shared.connections.fetch_add(1, Ordering::Relaxed);
                        let slot = Slot(self.shared.clone());
                        std::thread::Builder::new()
                            .name("sweepd-conn".to_string())
                            .spawn(move || handle_connection(&slot.0, stream))
                            .expect("spawn connection handler");
                    }
                    Err(e) => {
                        eprintln!("warning: sweepd: accept: {e}");
                        std::thread::sleep(ACCEPT_POLL);
                    }
                }
            }
        });
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A validated `POST /v1/sweep` body.
struct SweepRequest {
    workloads: Vec<Arc<Workload>>,
    modes: Vec<FusionMode>,
}

fn parse_sweep_request(body: &[u8]) -> Result<SweepRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(REQUEST_SCHEMA) => {}
        Some(other) => return Err(format!("unsupported request schema `{other}`")),
        None => return Err("missing `schema`".to_string()),
    }
    let names = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing `workloads` array")?;
    let mut workloads = Vec::with_capacity(names.len());
    for n in names {
        let n = n.as_str().ok_or("non-string workload name")?;
        workloads.push(shared_workload(n).ok_or_else(|| format!("unknown workload `{n}`"))?);
    }
    let modes = doc
        .get("modes")
        .and_then(Json::as_array)
        .ok_or("missing `modes` array")?
        .iter()
        .map(|m| {
            m.as_str()
                .and_then(FusionMode::parse)
                .ok_or_else(|| format!("unknown fusion mode {m}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if workloads.is_empty() || modes.is_empty() {
        return Err("empty grid".to_string());
    }
    Ok(SweepRequest { workloads, modes })
}

fn status_json(shared: &Shared) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
        ("status".to_string(), Json::Str("ok".to_string())),
        (
            "model".to_string(),
            Json::Str(format!("{:016x}", helios::MODEL_DIGEST)),
        ),
        (
            "cached_cells".to_string(),
            Json::Num(shared.sched.results().map_or(0, ResultStore::len) as f64),
        ),
        (
            "sweeps_served".to_string(),
            Json::Num(shared.sweeps_served.load(Ordering::Relaxed) as f64),
        ),
        (
            "cells_simulated".to_string(),
            Json::Num(shared.sched.counts().0 as f64),
        ),
        (
            "cells_from_cache".to_string(),
            Json::Num(shared.sched.counts().1 as f64),
        ),
    ])
}

/// Answers a connection past the cap with `503` from the accept loop. The
/// request bytes already received are read off first: closing a socket
/// with unread input resets it, which can destroy the answer in flight.
fn refuse(stream: TcpStream) {
    let mut writer = BufWriter::new(&stream);
    let msg = format!("sweepd is serving {MAX_CONNECTIONS} connections; retry shortly");
    if http::write_unavailable(&mut writer, &msg)
        .and_then(|()| writer.flush())
        .is_ok()
    {
        let _ = stream.set_nonblocking(true);
        let _ = std::io::copy(&mut (&stream).take(64 * 1024), &mut std::io::sink());
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    // A peer that stops mid-request must not pin a handler thread forever.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set_read_timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let req = match http::read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let _ = http::write_error(&mut writer, 400, "Bad Request", &e.to_string());
            return;
        }
    };
    let outcome = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") | ("GET", "/v1/cache") => http::write_response(
            &mut writer,
            200,
            "OK",
            "application/json",
            status_json(shared).to_string().as_bytes(),
        ),
        ("POST", "/v1/sweep") => match parse_sweep_request(&req.body) {
            Ok(sweep) => {
                serve_sweep(shared, &mut writer, &sweep);
                Ok(())
            }
            Err(e) => http::write_error(&mut writer, 400, "Bad Request", &e),
        },
        (_, path) => http::write_error(
            &mut writer,
            404,
            "Not Found",
            &format!("no such endpoint `{path}`"),
        ),
    };
    if outcome.is_ok() {
        let _ = writer.flush();
    }
}

/// Streams one sweep: enqueue the grid, relay each cell event as a JSONL
/// `progress` line, then emit the final `done` line with all results.
fn serve_sweep(shared: &Shared, writer: &mut impl Write, req: &SweepRequest) {
    let total = req.workloads.len() * req.modes.len();
    let cfgs: Vec<PipeConfig> = req.modes.iter().map(|&m| m.into()).collect();
    let (job, rx) = shared.sched.submit(&req.workloads, &cfgs);

    if http::write_stream_head(writer, "application/x-ndjson").is_err() {
        shared.sched.cancel(&job);
        return;
    }
    // `done` lists cells (`Ok`) and failures (`Err`) in grid order.
    let mut entries: Vec<Option<Result<Json, Json>>> = (0..total).map(|_| None).collect();
    let mut cache_hits = 0u64;
    let mut simulated = 0u64;
    for done in 0..total {
        let Ok(event) = rx.recv() else {
            // The daemon stopped: the stream just ends, and the client
            // reports the missing `done` event as an error.
            return;
        };
        let workload = req.workloads[event.index / req.modes.len()].name;
        let mode = req.modes[event.index % req.modes.len()];
        let source = match (&event.outcome, event.from_store) {
            (_, true) => {
                cache_hits += 1;
                "cache"
            }
            (CellOutcome::Ok(_), false) => {
                simulated += 1;
                "sim"
            }
            _ => "error",
        };
        let progress = Json::Obj(vec![
            ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
            ("event".to_string(), Json::Str("progress".to_string())),
            ("done".to_string(), Json::Num((done + 1) as f64)),
            ("total".to_string(), Json::Num(total as f64)),
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("mode".to_string(), Json::Str(mode.name().to_string())),
            ("source".to_string(), Json::Str(source.to_string())),
        ]);
        if writeln!(writer, "{progress}").and_then(|()| writer.flush()).is_err() {
            shared.sched.cancel(&job);
            return;
        }
        let mut entry = vec![
            (
                "workload".to_string(),
                Json::Str(workload.to_string()),
            ),
            ("mode".to_string(), Json::Str(mode.name().to_string())),
        ];
        let (kind, detail, attempts) = match event.outcome {
            CellOutcome::Ok(stats) => {
                entry.push(("stats".to_string(), stats_to_json(&stats)));
                entries[event.index] = Some(Ok(Json::Obj(entry)));
                continue;
            }
            CellOutcome::Failed { error, attempts } => {
                ("failed", ("error", Json::Str(error)), attempts)
            }
            CellOutcome::TimedOut { limit_ms, attempts } => (
                "timed_out",
                ("limit_ms", Json::Num(limit_ms as f64)),
                attempts,
            ),
            CellOutcome::Skipped => unreachable!("the scheduler attempts every cell it runs"),
        };
        entry.extend([
            ("kind".to_string(), Json::Str(kind.to_string())),
            (detail.0.to_string(), detail.1),
            ("attempts".to_string(), Json::Num(f64::from(attempts))),
        ]);
        entries[event.index] = Some(Err(Json::Obj(entry)));
    }
    shared.sweeps_served.fetch_add(1, Ordering::Relaxed);
    let (cells, failures): (Vec<_>, Vec<_>) =
        entries.into_iter().flatten().partition(Result::is_ok);
    let cells = cells.into_iter().filter_map(Result::ok).collect();
    let failures = failures.into_iter().filter_map(Result::err).collect();
    let done = Json::Obj(vec![
        ("schema".to_string(), Json::Str(EVENT_SCHEMA.to_string())),
        ("event".to_string(), Json::Str("done".to_string())),
        ("total".to_string(), Json::Num(total as f64)),
        ("cache_hits".to_string(), Json::Num(cache_hits as f64)),
        ("simulated".to_string(), Json::Num(simulated as f64)),
        ("failures".to_string(), Json::Arr(failures)),
        ("cells".to_string(), Json::Arr(cells)),
    ]);
    let _ = writeln!(writer, "{done}").and_then(|()| writer.flush());
}
