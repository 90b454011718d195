//! `sweepd-cold` and `sweepd-warm`: an in-process `sweepd` daemon with two
//! simulation workers, driven by two closed-loop clients through the thin
//! client. Every request is one kernel under all six modes; both clients
//! send the kernels in the same seed order, starting together.

use crate::spans::{self, SpanId, Tracer};
use crate::stats;
use crate::workload::{self, Ctx, Outcome};
use helios::{FusionMode, Json, TraceStore, Workload};
use helios_bench::server::client::remote_sweep_with_summary;
use helios_bench::server::{Server, ServerConfig, REQUEST_SCHEMA};
use helios_bench::QUICK_SET;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop clients. With the daemon's two workers, at most two threads
/// are busy at a time: a client waits while the daemon works for it.
const CLIENTS: usize = 2;

/// The daemon, bound on an ephemeral port and served from a thread until
/// dropped.
struct Daemon {
    server: Arc<Server>,
    url: String,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(dir: &Path) -> Result<Daemon, String> {
        let server = Arc::new(Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            cache_dir: dir.to_path_buf(),
            cell_timeout: None,
        })?);
        let url = format!("http://{}", server.local_addr());
        let runner = server.clone();
        let thread = std::thread::spawn(move || runner.run());
        Ok(Daemon {
            server,
            url,
            thread: Some(thread),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server.stop();
        if let Some(t) = self.thread.take() {
            // A panicked accept loop has nothing left to stop.
            let _ = t.join();
        }
    }
}

/// Starts a daemon over `dir`, counting a failure to bind as a failed
/// operation.
fn start(out: &mut Outcome, dir: &Path) -> Option<Daemon> {
    Daemon::start(dir)
        .map_err(|e| out.op(Err(format!("sweepd: {e}"))))
        .ok()
}

/// Records every kernel's trace into the daemon's store under `dir`.
fn prewarm(out: &mut Outcome, ctx: &Ctx, dir: &Path, kernels: &[Workload]) {
    match TraceStore::open(dir.join("traces")) {
        Ok(store) => {
            for w in kernels {
                let r = w.stored(&store).map_err(|e| format!("{}: {e}", w.name));
                out.op(r.and_then(|t| ctx.golden.check_trace(w, &t)));
            }
        }
        Err(e) => out.op(Err(format!("trace store: {e}"))),
    }
}

/// What the daemon reported for one request, or for several summed.
#[derive(Clone, Copy, Default)]
struct Answer {
    cache_hits: u64,
    simulated: u64,
    /// Model cycles over the answered cells.
    cycles: u64,
}

/// Sends one sweep request through the thin client and checks every cell
/// against the goldens.
fn request(ctx: &Ctx, url: &str, kernels: &[Workload]) -> Result<Answer, String> {
    let (sweep, summary) = remote_sweep_with_summary(url, kernels, &FusionMode::ALL)?;
    if let Some(f) = sweep.failures().first() {
        return Err(format!(
            "{}/{}: {}",
            f.workload,
            f.mode.name(),
            f.outcome.describe()
        ));
    }
    if sweep.results().len() != kernels.len() * FusionMode::ALL.len() {
        return Err(format!("sweepd answered {} cells", sweep.results().len()));
    }
    for r in sweep.results() {
        ctx.golden.check(r.workload, r.mode, &r.stats)?;
    }
    Ok(Answer {
        cache_hits: summary.cache_hits,
        simulated: summary.simulated,
        cycles: sweep.results().iter().map(|r| r.stats.cycles).sum(),
    })
}

/// Sends one request over a raw socket and reads the stream up to its
/// `done` line. Returns nanoseconds from connecting to the first event
/// line, and the cache hits the `done` line reports.
fn wire(url: &str, kernel: &str) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let addr = url.trim_start_matches("http://");
    let modes = FusionMode::ALL
        .iter()
        .map(|m| Json::Str(m.name().to_string()))
        .collect();
    let body = Json::Obj(vec![
        ("schema".to_string(), Json::Str(REQUEST_SCHEMA.to_string())),
        (
            "workloads".to_string(),
            Json::Arr(vec![Json::Str(kernel.to_string())]),
        ),
        ("modes".to_string(), Json::Arr(modes)),
    ])
    .to_string();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut lines = BufReader::new(stream).lines();
    let mut next = || {
        lines
            .next()
            .unwrap_or(Ok(String::new()))
            .map_err(|e| format!("read: {e}"))
    };
    let status = next()?;
    if status.split_whitespace().nth(1) != Some("200") {
        return Err(format!("status `{status}`"));
    }
    while !next()?.is_empty() {}
    let mut first = None;
    loop {
        let line = next()?;
        if line.is_empty() {
            return Err("stream ended without a done line".to_string());
        }
        first.get_or_insert(t.elapsed().as_nanos() as u64);
        if line.contains("\"event\":\"done\"") {
            let done = Json::parse(&line).map_err(|e| e.to_string())?;
            let hits = done
                .get("cache_hits")
                .and_then(Json::as_u64)
                .ok_or("done without cache_hits")?;
            return Ok((first.unwrap_or(0), hits));
        }
    }
}

/// One request as a client saw it.
struct Reply {
    ms: f64,
    result: Result<Answer, String>,
}

/// Both clients send every kernel as its own request, in order, starting
/// together. With a tracer, each request gets a `server.client` span and,
/// when `probe_wire` is set, a following raw `server.wire` request.
fn round(
    ctx: &Ctx,
    url: &str,
    kernels: &[Workload],
    trace: Option<(&Tracer, SpanId)>,
    probe_wire: bool,
) -> Vec<Reply> {
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let mut replies = Vec::with_capacity(kernels.len());
                    for (i, w) in kernels.iter().enumerate() {
                        let one = std::slice::from_ref(w);
                        let t = Instant::now();
                        let Some((tr, root)) = trace else {
                            let result = request(ctx, url, one);
                            replies.push(Reply {
                                ms: t.elapsed().as_secs_f64() * 1e3,
                                result,
                            });
                            continue;
                        };
                        let id = format!("c{c}.r{i}:{}", w.name);
                        let (mut result, sp) =
                            tr.span("server.client", Some(root), &id, || request(ctx, url, one));
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        if let Ok(a) = result {
                            tr.count(sp, "cache_hits", a.cache_hits);
                            tr.count(sp, "simulated", a.simulated);
                        }
                        if probe_wire {
                            let (probe, sp) =
                                tr.span("server.wire", Some(root), &id, || wire(url, w.name));
                            match probe {
                                Ok((first_ns, hits)) if hits == FusionMode::ALL.len() as u64 => {
                                    tr.count(sp, "first_event_ns", first_ns);
                                }
                                Ok((_, hits)) => {
                                    result = Err(format!("{id}: raw request: {hits} cache hits"))
                                }
                                Err(e) => result = Err(format!("{id}: raw request: {e}")),
                            }
                        }
                        replies.push(Reply { ms, result });
                    }
                    replies
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Counts each reply as an operation; on `warm`, a reply that simulated
/// anything fails. Returns the latencies in ms and the summed answers.
fn tally(out: &mut Outcome, replies: Vec<Reply>, warm: bool) -> (Vec<f64>, Answer) {
    let (mut ms, mut sum) = (Vec::new(), Answer::default());
    for r in replies {
        ms.push(r.ms);
        out.op(r.result.and_then(|a| {
            sum.cache_hits += a.cache_hits;
            sum.simulated += a.simulated;
            sum.cycles += a.cycles;
            if warm && (a.simulated != 0 || a.cache_hits != FusionMode::ALL.len() as u64) {
                Err(format!(
                    "warm request simulated {} cells, {} cache hits",
                    a.simulated, a.cache_hits
                ))
            } else {
                Ok(())
            }
        }));
    }
    (ms, sum)
}

/// Per-layer counts of the daemon's work over one round, in which every
/// client receives every unique cell once.
fn server_layers(out: &mut Outcome, kernels: usize, round: Answer) {
    let unique = (kernels * FusionMode::ALL.len()) as f64;
    out.layer("server.sim_cells", round.simulated as f64, "count");
    out.layer("server.cache_hits", round.cache_hits as f64, "count");
    out.layer(
        "server.hit_ratio",
        round.cache_hits as f64 / (CLIENTS as f64 * unique),
        "ratio",
    );
    out.layer(
        "server.dup_sim_ratio",
        round.simulated as f64 / unique,
        "ratio",
    );
    out.layer(
        "uarch.sim_cycles",
        (round.cycles / CLIENTS as u64) as f64,
        "count",
    );
}

pub fn run_cold(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut n = 0;
    let (kernels, dir, daemon) = out.repeated_setup(|out| {
        let kernels = workload::select(out, ctx.seed, &QUICK_SET);
        let dir = ctx.tmp.join(format!("sweepd-cold-{n}"));
        n += 1;
        prewarm(out, ctx, &dir, &kernels);
        let daemon = start(out, &dir);
        (kernels, dir, daemon)
    });
    let mut daemon = daemon;
    let mut cycles = 0;
    out.timed_passes(ctx, traced, |out| {
        let url = daemon.as_ref()?.url.clone();
        let t = Instant::now();
        let replies = round(ctx, &url, &kernels, None, false);
        let wall = t.elapsed().as_secs_f64();
        cycles = tally(out, replies, false).1.cycles / CLIENTS as u64;
        // Restart over the same trace store with an empty result cache,
        // outside the timed interval.
        daemon = None;
        std::fs::remove_file(dir.join("results.jsonl")).ok();
        daemon = start(out, &dir);
        Some(wall)
    });
    let answered = (CLIENTS * kernels.len() * FusionMode::ALL.len()) as f64;
    out.e2e(
        "sim_mcycles_per_s",
        cycles as f64 / out.wall_s() / 1e6,
        "Mcycles/s",
    );
    out.e2e("cells_per_s", answered / out.wall_s(), "1/s");
    if let (true, Some(d)) = (traced, &daemon) {
        let tr = Tracer::new();
        let root = workload::open_trace(&tr, "sweepd-cold", &kernels);
        let replies = round(ctx, &d.url, &kernels, Some((&tr, root)), false);
        let (_, answers) = tally(&mut out, replies, false);
        out.finish_trace(&tr, root, 1);
        server_layers(&mut out, kernels.len(), answers);
    }
    out
}

pub fn run_warm(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    // The warm state directory — traces recorded, every cell simulated
    // once — is built before set-up; sweepd-cold measures building it.
    let dir = ctx.tmp.join("sweepd-warm");
    let quick: Vec<Workload> = helios::all_workloads()
        .into_iter()
        .filter(|w| QUICK_SET.contains(&w.name))
        .collect();
    prewarm(&mut out, ctx, &dir, &quick);
    if let Some(d) = start(&mut out, &dir) {
        out.op(request(ctx, &d.url, &quick).map(drop));
    }
    let (kernels, daemon) = out.repeated_setup(|out| {
        (
            workload::select(out, ctx.seed, &QUICK_SET),
            start(out, &dir),
        )
    });
    let Some(daemon) = daemon else { return out };
    let mut latencies = Vec::new();
    out.timed_passes(ctx, traced, |out| {
        let t = Instant::now();
        let replies = round(ctx, &daemon.url, &kernels, None, false);
        let wall = t.elapsed().as_secs_f64();
        latencies.extend(tally(out, replies, true).0);
        Some(wall)
    });
    out.e2e("request_ms_p50", stats::median(&latencies), "ms");
    if let Some((q, label)) = stats::tail_percentile(latencies.len()) {
        out.e2e(
            &format!("request_ms_{label}"),
            stats::quantile(&latencies, q),
            "ms",
        );
    }
    out.e2e("request_samples", latencies.len() as f64, "count");
    let cells = latencies.len() * FusionMode::ALL.len();
    out.e2e(
        "cells_per_s",
        cells as f64 / out.walls.iter().sum::<f64>(),
        "1/s",
    );
    if traced {
        traced_warm(&mut out, ctx, &daemon, &kernels);
    }
    out
}

/// Rounds with a span around each thin-client request and a raw request
/// after it, until the run's seconds have elapsed.
fn traced_warm(out: &mut Outcome, ctx: &Ctx, daemon: &Daemon, kernels: &[Workload]) {
    let tr = Tracer::new();
    let root = workload::open_trace(&tr, "sweepd-warm", kernels);
    let (start, mut rounds, mut last) = (Instant::now(), 0, Answer::default());
    while rounds == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let replies = round(ctx, &daemon.url, kernels, Some((&tr, root)), true);
        last = tally(out, replies, true).1;
        rounds += 1;
    }
    out.finish_trace(&tr, root, rounds);
    let sp = std::mem::take(&mut out.spans);
    let wire_ms = spans::durations_ms(&sp, "server.wire");
    let client: HashMap<&str, f64> = sp
        .iter()
        .filter(|s| s.name == "server.client")
        .map(|s| (s.id.as_str(), s.dur_ns() as f64 * 1e-6))
        .collect();
    let decode_ms: Vec<f64> = sp
        .iter()
        .filter(|s| s.name == "server.wire")
        .filter_map(|s| {
            client
                .get(s.id.as_str())
                .map(|c| c - s.dur_ns() as f64 * 1e-6)
        })
        .collect();
    let first_ms: Vec<f64> = sp
        .iter()
        .filter(|s| s.name == "server.wire")
        .map(|s| s.count("first_event_ns") as f64 * 1e-6)
        .collect();
    let wire_s = spans::total_s(&sp, "server.wire");
    out.layer("server.wire_ms_p50", stats::median(&wire_ms), "ms");
    if let Some((q, label)) = stats::tail_percentile(wire_ms.len()) {
        out.layer(
            &format!("server.wire_ms_{label}"),
            stats::quantile(&wire_ms, q),
            "ms",
        );
    }
    out.layer("server.first_event_ms_p50", stats::median(&first_ms), "ms");
    out.layer(
        "server.client.decode_ms_p50",
        stats::median(&decode_ms),
        "ms",
    );
    out.layer(
        "server.wire_pct",
        wire_s / spans::total_s(&sp, "server.client") * 100.0,
        "%",
    );
    out.layer(
        "server.queue_pct",
        first_ms.iter().sum::<f64>() * 1e-3 / wire_s * 100.0,
        "%",
    );
    out.spans = sp;
    // Any simulation in any round already failed the run; the last round
    // stands for all of them.
    server_layers(out, kernels.len(), last);
}
