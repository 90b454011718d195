//! `sweepd` — the sweep-as-a-service daemon (DESIGN.md §17).
//!
//! Serves sweep grids to `--server` figure binaries over HTTP/1.1, backed
//! by a persistent result cache keyed `(trace digest, config digest)`
//! under the timing model's digest (`helios::MODEL_DIGEST`) and a shared
//! content-addressed trace store. Repeated cells are answered from the
//! cache without simulating.
//!
//! ```text
//! cargo run --release -p helios-bench --bin serve -- --addr 127.0.0.1:0
//! cargo run --release -p helios-bench --bin fig10 -- --quick --server http://127.0.0.1:PORT
//! ```
//!
//! Flags:
//! * `--addr <host:port>` — bind address (default `127.0.0.1:0`; the
//!   chosen port is announced on stderr as `sweepd: listening on ...`);
//! * `--jobs <N>` — simulation worker threads (default: all cores);
//! * `--cache-dir <dir>` — daemon state directory (default
//!   `results/sweepd`; `HELIOS_RESULTS_DIR` moves `results/`);
//! * `--cell-timeout <secs>` — wall-clock budget per cell attempt (cells
//!   get the local sweep's retry policy).
//!
//! SIGINT stops accepting, lets in-flight cells finish, and exits 0 — the
//! cache journal is fsynced per append, so finished work is durable.

use helios_bench::server::{Server, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr <host:port>] [--jobs <N>] [--cache-dir <dir>] [--cell-timeout <secs>]"
    );
    std::process::exit(helios::exit::USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut config = ServerConfig::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => config.addr = a.clone(),
                    None => usage(),
                }
            }
            "--jobs" => {
                i += 1;
                config.jobs = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => usage(),
                };
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(d) => config.cache_dir = d.into(),
                    None => usage(),
                }
            }
            "--cell-timeout" => {
                i += 1;
                config.cell_timeout = match args.get(i).map(|s| s.parse::<u64>()) {
                    Some(Ok(secs)) if secs >= 1 => Some(Duration::from_secs(secs)),
                    _ => usage(),
                };
            }
            other => {
                eprintln!("error: unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }

    helios::install_interrupt_handler();
    let server = Server::bind(&config).unwrap_or_else(|e| {
        eprintln!("error: sweepd: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    eprintln!("sweepd: listening on http://{}", server.local_addr());
    eprintln!(
        "sweepd: cache dir {} ({} worker(s))",
        config.cache_dir.display(),
        config.jobs
    );
    server.run();
    // run() returns on SIGINT or stop(); dropping the server joins the
    // workers after their in-flight cells finish.
    drop(server);
    eprintln!("sweepd: shut down cleanly");
    std::process::exit(helios::exit::COMPLETE);
}
