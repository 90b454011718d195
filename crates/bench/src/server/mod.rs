//! `sweepd` — the sweep-as-a-service daemon behind `--server` (DESIGN.md
//! §17).
//!
//! One long-lived process owns the expensive shared state — a
//! content-addressed [`TraceStore`] and a persistent [`ResultStore`] keyed
//! by `(trace digest, config digest, ISA version)` — and serves sweep
//! requests from the figure binaries over a hand-rolled HTTP/1.1 endpoint
//! (`std::net` only, like everything else in this workspace):
//!
//! * `GET /v1/health` — liveness + cache occupancy, JSON;
//! * `GET /v1/cache` — cache summary, JSON;
//! * `POST /v1/sweep` — a `helios-sweep-req-v1` grid request; the response
//!   streams `helios-sweepd-v1` JSONL: one `progress` event per finished
//!   cell, then a final `done` event carrying every cell's stats and every
//!   quarantined cell's outcome.
//!
//! Every cell runs through [`helios::run_cell`], the local sweep's own cell
//! executor: cells already in the store are answered without simulating;
//! fresh cells get the local retry policy and are appended to the store on
//! success. Failures and timeouts carry the same [`CellOutcome`] a local
//! sweep would quarantine, and are never stored — they must stay
//! retryable.
//!
//! **Fairness.** Jobs from concurrent clients are not FIFO: a worker
//! claims its next cell from jobs in round-robin order, so a late `--quick`
//! client makes progress while a 32-workload grid is in flight, instead of
//! queueing behind all 192 of its cells.
//!
//! **Single-flight.** A cell runs at most once at a time. A job that claims
//! a cell another job's worker is already running becomes a waiter on that
//! run and the worker moves on to the next cell it can run; when the run
//! lands, every waiter receives its outcome. A waiter's success reads as a
//! cache hit, so only the job whose worker ran the cell counts it as
//! simulated.
//!
//! **Failure semantics.** A client disconnect cancels its job: the next
//! event send fails, the job's remaining cells are dropped from the queue,
//! and in-flight cells finish (and still populate the store) but go
//! nowhere, unless another job waits on them. Daemon shutdown (SIGINT or
//! [`Server::stop`]) stops accepting, lets in-flight cells finish, and
//! exits cleanly — the store is fsynced per append, so nothing already
//! reported is ever lost. Overload is answered, not queued: past
//! [`MAX_CONNECTIONS`] live connections a new one gets `503`.

pub mod client;
pub mod http;

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use helios::{
    run_cell, workload, CellOutcome, FusionMode, Json, ResultStore, SweepPolicy, TraceStore,
    Workload,
};

/// Schema tag on every streamed response line.
pub const EVENT_SCHEMA: &str = "helios-sweepd-v1";
/// Schema tag expected on `POST /v1/sweep` bodies.
pub const REQUEST_SCHEMA: &str = "helios-sweep-req-v1";

/// How often the accept loop polls the stop flag between connections.
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

/// One cell finishing, reported from a worker to the job's connection
/// handler.
struct CellEvent {
    workload: &'static str,
    mode: FusionMode,
    outcome: CellOutcome,
    /// Answered without simulating for this job: from the result store, or
    /// by another job's run of the same cell.
    from_store: bool,
}

/// How jobs name a cell. Inside one daemon `workload(name)` fixes the
/// program and `PipeConfig::with_fusion(mode)` the config, so this names
/// the same cell as the result store's key.
type CellId = (&'static str, FusionMode);

/// A queued sweep job: the cells still to claim plus the channel back to
/// its connection handler.
struct Job {
    id: u64,
    cells: VecDeque<(Arc<Workload>, FusionMode)>,
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

/// A job that claimed a cell while another job's worker was running it.
struct Waiter {
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

/// Worker-facing queue state: active jobs, the round-robin cursor and the
/// cells being run.
struct Sched {
    jobs: Vec<Job>,
    /// Index of the job the next claim starts from — advanced past each
    /// claim so concurrent clients interleave cell-by-cell.
    rr: usize,
    /// Every cell a worker is running, with the jobs waiting on that run.
    inflight: HashMap<CellId, Vec<Waiter>>,
}

impl Sched {
    /// Pops the next queued cell, round-robin across active jobs.
    fn pop(&mut self) -> Option<Claim> {
        let n = self.jobs.len();
        for step in 0..n {
            let i = (self.rr + step) % n;
            if self.jobs[i].cells.is_empty() {
                continue;
            }
            let (workload, mode) = self.jobs[i].cells.pop_front().expect("non-empty");
            let tx = self.jobs[i].tx.clone();
            let cancelled = self.jobs[i].cancelled.clone();
            if self.jobs[i].cells.is_empty() {
                self.jobs.remove(i);
                self.rr = if self.jobs.is_empty() {
                    0
                } else {
                    i % self.jobs.len()
                };
            } else {
                self.rr = (i + 1) % n;
            }
            return Some(Claim {
                workload,
                mode,
                tx,
                cancelled,
            });
        }
        None
    }
}

struct Shared {
    sched: Mutex<Sched>,
    work_ready: Condvar,
    results: ResultStore,
    traces: TraceStore,
    policy: SweepPolicy,
    stop: AtomicBool,
    next_job: AtomicU64,
    /// Live connection handlers (see [`MAX_CONNECTIONS`]).
    connections: AtomicUsize,
    sweeps_served: AtomicU64,
    cells_simulated: AtomicU64,
    cells_cached: AtomicU64,
}

/// One claimed cell plus the handles needed to report and cancel it.
struct Claim {
    workload: Arc<Workload>,
    mode: FusionMode,
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

impl Claim {
    fn id(&self) -> CellId {
        (self.workload.name, self.mode)
    }
}

impl Shared {
    /// Opens the result store and trace store under `cache_dir`.
    fn open(cache_dir: &Path, policy: SweepPolicy) -> Result<Shared, String> {
        let path = cache_dir.join("results.jsonl");
        let results = ResultStore::open(&path)
            .map_err(|e| format!("result store {}: {e}", path.display()))?;
        let traces =
            TraceStore::open(cache_dir.join("traces")).map_err(|e| format!("trace store: {e}"))?;
        Ok(Shared {
            sched: Mutex::new(Sched {
                jobs: Vec::new(),
                rr: 0,
                inflight: HashMap::new(),
            }),
            work_ready: Condvar::new(),
            results,
            traces,
            policy,
            stop: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            connections: AtomicUsize::new(0),
            sweeps_served: AtomicU64::new(0),
            cells_simulated: AtomicU64::new(0),
            cells_cached: AtomicU64::new(0),
        })
    }

    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("scheduler lock poisoned")
    }

    /// Queues a job's cells; returns its id, the channel its cell events
    /// arrive on and its cancellation flag.
    fn submit(
        &self,
        cells: VecDeque<(Arc<Workload>, FusionMode)>,
    ) -> (u64, mpsc::Receiver<CellEvent>, Arc<AtomicBool>) {
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let id = self.next_job.fetch_add(1, Ordering::Relaxed);
        self.sched().jobs.push(Job {
            id,
            cells,
            tx,
            cancelled: cancelled.clone(),
        });
        self.work_ready.notify_all();
        (id, rx, cancelled)
    }

    /// Claims the next cell no worker is running, round-robin across active
    /// jobs; a job that pops a running cell becomes a waiter on that run.
    /// Blocks until work arrives or the daemon stops; `None` means "shut
    /// down".
    fn claim(&self) -> Option<Claim> {
        let mut sched = self.sched();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                return None;
            }
            let Some(claim) = sched.pop() else {
                sched = self
                    .work_ready
                    .wait_timeout(sched, Duration::from_millis(100))
                    .expect("scheduler lock poisoned")
                    .0;
                continue;
            };
            match sched.inflight.get_mut(&claim.id()) {
                Some(waiters) => waiters.push(Waiter {
                    tx: claim.tx,
                    cancelled: claim.cancelled,
                }),
                None => {
                    sched.inflight.insert(claim.id(), Vec::new());
                    return Some(claim);
                }
            }
        }
    }

    /// Starts running a claimed cell. A claim whose job was cancelled and
    /// that no live job waits on leaves the in-flight table instead, and
    /// `None` says to skip it.
    fn take_off(&self, claim: Claim) -> Option<Flight<'_>> {
        let mut sched = self.sched();
        let live = |c: &AtomicBool| !c.load(Ordering::Relaxed);
        if !live(&claim.cancelled)
            && !sched.inflight[&claim.id()]
                .iter()
                .any(|w| live(&w.cancelled))
        {
            sched.inflight.remove(&claim.id());
            return None;
        }
        Some(Flight {
            shared: self,
            claim,
            landed: None,
        })
    }

    /// Drops a cancelled job's unclaimed cells from the queue.
    fn abort_job(&self, id: u64) {
        let mut sched = self.sched();
        sched.jobs.retain(|j| j.id != id);
        if sched.rr >= sched.jobs.len() {
            sched.rr = 0;
        }
    }
}

/// A cell being run. Dropping it lands the run: the cell leaves the
/// in-flight table and its outcome goes to every live waiter, then to the
/// claim's own job. A worker that unwinds before the outcome is set lands a
/// failure, so no waiter hangs on a dead run.
struct Flight<'a> {
    shared: &'a Shared,
    claim: Claim,
    /// The outcome and whether the store answered it, once run.
    landed: Option<(CellOutcome, bool)>,
}

impl Flight<'_> {
    fn run(mut self) {
        let shared = self.shared;
        let w = &self.claim.workload;
        let (outcome, from_store) = run_cell(
            w,
            self.claim.mode,
            &shared.policy,
            None,
            Some(&shared.results),
            || {
                w.stored(&shared.traces)
                    .map_err(|e| format!("recording {}: {e}", w.name))
            },
        );
        if from_store {
            shared.cells_cached.fetch_add(1, Ordering::Relaxed);
        } else if matches!(outcome, CellOutcome::Ok(_)) {
            shared.cells_simulated.fetch_add(1, Ordering::Relaxed);
        }
        self.landed = Some((outcome, from_store));
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let waiters = self
            .shared
            .sched
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .inflight
            .remove(&self.claim.id())
            .unwrap_or_default();
        let (outcome, from_store) = self.landed.take().unwrap_or_else(|| {
            let error = format!("sweepd worker died running {}", self.claim.workload.name);
            (CellOutcome::Failed { error, attempts: 1 }, false)
        });
        let event = |outcome, from_store| CellEvent {
            workload: self.claim.workload.name,
            mode: self.claim.mode,
            outcome,
            from_store,
        };
        // A waiter's success is a cache hit: the cell was not simulated for
        // its job. Failures pass through unchanged and stay unstored, so a
        // later request retries them.
        let hit = matches!(outcome, CellOutcome::Ok(_));
        for w in waiters
            .iter()
            .filter(|w| !w.cancelled.load(Ordering::Relaxed))
        {
            if hit {
                self.shared.cells_cached.fetch_add(1, Ordering::Relaxed);
            }
            let _ = w.tx.send(event(outcome.clone(), hit));
        }
        // A failed send means the handler is gone (client disconnect after
        // abort_job raced the claim); a stored result is already durable.
        let _ = self.claim.tx.send(event(outcome, from_store));
    }
}

fn worker_loop(shared: Arc<Shared>) {
    while let Some(claim) = shared.claim() {
        if let Some(flight) = shared.take_off(claim) {
            flight.run();
        }
    }
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
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let shared = Arc::new(Shared::open(
            &config.cache_dir,
            SweepPolicy {
                cell_timeout: config.cell_timeout,
                ..SweepPolicy::default()
            },
        )?);
        let workers = (0..config.jobs.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweepd-worker-{i}"))
                    .spawn(move || worker_loop(shared))
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

    /// Asks the accept loop and workers to stop. In-flight cells finish.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        self.shared.work_ready.notify_all();
    }

    /// Serves connections until [`Server::stop`] is called or the process
    /// is interrupted (`helios::sweep_interrupted`). Each connection gets
    /// its own handler thread, up to [`MAX_CONNECTIONS`] at once; worker
    /// threads do the simulating.
    pub fn run(&self) {
        loop {
            if self.shared.stop.load(Ordering::Relaxed) || helios::sweep_interrupted() {
                self.stop();
                return;
            }
            match self.listener.accept() {
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
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    eprintln!("warning: sweepd: accept: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
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
        let w = workload(n).ok_or_else(|| format!("unknown workload `{n}`"))?;
        workloads.push(Arc::new(w));
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
            "cached_cells".to_string(),
            Json::Num(shared.results.len() as f64),
        ),
        (
            "sweeps_served".to_string(),
            Json::Num(shared.sweeps_served.load(Ordering::Relaxed) as f64),
        ),
        (
            "cells_simulated".to_string(),
            Json::Num(shared.cells_simulated.load(Ordering::Relaxed) as f64),
        ),
        (
            "cells_from_cache".to_string(),
            Json::Num(shared.cells_cached.load(Ordering::Relaxed) as f64),
        ),
    ])
}

/// Answers a connection past the cap with `503` from the accept loop. The
/// request bytes already received are read off first: closing a socket
/// with unread input resets it, which can destroy the answer in flight.
fn refuse(stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
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
    stream
        .set_nonblocking(false)
        .expect("connection sockets are blocking");
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
    let mut cells = VecDeque::with_capacity(total);
    for w in &req.workloads {
        for &mode in &req.modes {
            cells.push_back((w.clone(), mode));
        }
    }
    let (job_id, rx, cancelled) = shared.submit(cells);

    if http::write_stream_head(writer, "application/x-ndjson").is_err() {
        cancelled.store(true, Ordering::Relaxed);
        shared.abort_job(job_id);
        return;
    }
    let mut cells: Vec<Json> = Vec::with_capacity(total);
    let mut failures: Vec<Json> = Vec::new();
    let mut cache_hits = 0u64;
    let mut simulated = 0u64;
    for done in 0..total {
        let Ok(event) = rx.recv() else {
            // All workers gone (daemon stopping) — the stream just ends;
            // the client reports the missing `done` event as an error.
            return;
        };
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
            ("workload".to_string(), Json::Str(event.workload.to_string())),
            ("mode".to_string(), Json::Str(event.mode.name().to_string())),
            ("source".to_string(), Json::Str(source.to_string())),
        ]);
        if writeln!(writer, "{progress}").and_then(|()| writer.flush()).is_err() {
            cancelled.store(true, Ordering::Relaxed);
            shared.abort_job(job_id);
            return;
        }
        let mut entry = vec![
            (
                "workload".to_string(),
                Json::Str(event.workload.to_string()),
            ),
            ("mode".to_string(), Json::Str(event.mode.name().to_string())),
        ];
        let (kind, detail, attempts) = match event.outcome {
            CellOutcome::Ok(stats) => {
                let kv = stats
                    .to_kv()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v as f64)));
                entry.push(("stats".to_string(), Json::Obj(kv.collect())));
                cells.push(Json::Obj(entry));
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
            CellOutcome::Skipped => unreachable!("run_cell attempts every cell it is given"),
        };
        entry.extend([
            ("kind".to_string(), Json::Str(kind.to_string())),
            (detail.0.to_string(), detail.1),
            ("attempts".to_string(), Json::Num(f64::from(attempts))),
        ]);
        failures.push(Json::Obj(entry));
    }
    shared.sweeps_served.fetch_add(1, Ordering::Relaxed);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(tag: &str) -> Shared {
        let dir = std::env::temp_dir().join(format!("helios-sched-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Shared::open(&dir, SweepPolicy::default()).expect("open stores")
    }

    fn fft(modes: &[FusionMode]) -> VecDeque<(Arc<Workload>, FusionMode)> {
        let w = Arc::new(workload("fft").expect("registered"));
        modes.iter().map(|&m| (w.clone(), m)).collect()
    }

    #[test]
    fn a_claim_of_a_running_cell_waits_on_it_and_claims_the_next_cell() {
        let shared = shared("claim");
        shared.submit(fft(&[FusionMode::Helios]));
        let (_, rx, _) = shared.submit(fft(&[FusionMode::Helios, FusionMode::NoFusion]));
        let first = shared.claim().expect("a cell");
        let second = shared.claim().expect("a cell");
        assert_eq!(first.id(), ("fft", FusionMode::Helios));
        assert_eq!(second.id(), ("fft", FusionMode::NoFusion));
        assert_eq!(shared.sched().inflight[&first.id()].len(), 1);

        // A flight dropped before it lands (a worker unwinding) answers its
        // waiters with a failure and leaves the table.
        drop(shared.take_off(first).expect("live claim"));
        let event = rx.try_recv().expect("the waiter is answered");
        assert!(matches!(event.outcome, CellOutcome::Failed { .. }));
        assert!(!event.from_store);
        assert!(!shared
            .sched()
            .inflight
            .contains_key(&("fft", FusionMode::Helios)));
    }

    #[test]
    fn a_cancelled_claim_runs_only_while_a_live_job_waits_on_it() {
        let shared = shared("cancel");
        let (_, rx_a, cancel_a) = shared.submit(fft(&[FusionMode::Helios]));
        let (_, rx_b, cancel_b) = shared.submit(fft(&[FusionMode::Helios, FusionMode::NoFusion]));
        let first = shared.claim().expect("a cell");
        let second = shared.claim().expect("a cell");

        // Job A is cancelled, but job B waits on its cell: it still runs,
        // and B reads the outcome as a cache hit.
        cancel_a.store(true, Ordering::Relaxed);
        shared.take_off(first).expect("B waits on it").run();
        let event = rx_b.try_recv().expect("the waiter is answered");
        assert_eq!((event.workload, event.mode), ("fft", FusionMode::Helios));
        assert!(matches!(event.outcome, CellOutcome::Ok(_)));
        assert!(event.from_store, "a waiter's success is a cache hit");
        let own = rx_a.try_recv().expect("the runner's job is answered too");
        assert!(!own.from_store, "the runner's job simulated it");
        assert_eq!(shared.cells_simulated.load(Ordering::Relaxed), 1);
        assert_eq!(shared.cells_cached.load(Ordering::Relaxed), 1);

        // Job B is cancelled and nobody waits on its other cell: skipped.
        cancel_b.store(true, Ordering::Relaxed);
        assert!(shared.take_off(second).is_none());
        assert!(shared.sched().inflight.is_empty());
        assert!(rx_b.try_recv().is_err());
        assert_eq!(shared.cells_simulated.load(Ordering::Relaxed), 1);
    }
}
