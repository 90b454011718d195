//! Shared helpers for the figure/table regeneration binaries.
//!
//! Every binary accepts:
//! * `--quick` — run a representative 8-workload subset instead of all 32;
//! * `--only <name>[,<name>...]` — run specific workloads;
//! * `--jobs <N>` — sweep worker threads (default: all cores);
//! * `--cell-timeout <secs>` — wall-clock budget per sweep cell;
//! * `--retries <N>` — attempts per cell before quarantining (default 2);
//! * `--server <url>` — run the sweep on a `sweepd` daemon (see
//!   [`server`]) instead of simulating locally; output is byte-identical;
//! * `--profile` — per-stage cycle-attribution profiling (sets
//!   `HELIOS_PROFILE=1`; writes `results/profile.json` and prints a summary
//!   to stderr, leaving stdout untouched).
//!
//! Any other argument, unless the binary declares it through
//! [`parse_opts_with`], is a usage error (exit 2).
//!
//! Every sweeping binary answers cells from, and appends cells to, one
//! result store, `results/cells.jsonl`: a rerun, or a figure whose grid
//! overlaps one already run, simulates only the cells it does not find.
//!
//! Environment knobs (testing/CI):
//! * `HELIOS_SWEEP_CHAOS` — deterministic cell fault injection spec
//!   (see `helios::CellChaos::parse`);
//! * `HELIOS_SWEEP_STOP_AFTER` — stop claiming cells after N simulations
//!   (a deterministic stand-in for `kill -9` in resume tests);
//! * `HELIOS_TRACE_DIR` — content-addressed [`helios::TraceStore`]
//!   directory: traces are recorded once ever, verified on every open, and
//!   replayed block-at-a-time by sweep cells.

pub mod census;
pub mod server;

use helios::{
    CellChaos, FusionMode, PipeConfig, Report, Sweep, SweepOptions, SweepPolicy, Table, Workload,
};
use std::time::Duration;

/// The representative subset used by `--quick` (chosen to cover the paper's
/// behavioural extremes: SQ-bound xz_1, ALU-idiom-heavy bitcount/susan/xz_2,
/// pointer-chasing mcf, pair-dense fft/dijkstra, hashy perlbench).
pub const QUICK_SET: [&str; 8] = [
    "600.perlbench_1",
    "605.mcf",
    "657.xz_1",
    "657.xz_2",
    "bitcount",
    "dijkstra",
    "fft",
    "susan",
];

/// Parsed common CLI options.
pub struct SweepOpts {
    /// Workloads selected by `--quick` / `--only` (default: all 32).
    pub workloads: Vec<Workload>,
    /// Sweep worker threads (`--jobs`, default: all cores).
    pub jobs: usize,
    /// Wall-clock budget per sweep cell (`--cell-timeout <secs>`).
    pub cell_timeout: Option<Duration>,
    /// Attempts per cell before quarantining (`--retries <N>`).
    pub retries: Option<u32>,
    /// Run the sweep on a remote `sweepd` daemon (`--server <url>`).
    pub server: Option<String>,
    /// Binary-specific flags requested via [`parse_opts_with`], in
    /// declaration order: `None` when absent, `Some("")` for a present
    /// boolean flag, `Some(value)` for a present valued flag.
    pub extra: Vec<Option<String>>,
}

/// A binary-specific flag [`parse_opts_with`] should accept on top of the
/// common `--quick` / `--only` / `--jobs` set.
pub enum ExtraFlag {
    /// A boolean switch, e.g. `--obs`.
    Bool(&'static str),
    /// A flag taking one value, e.g. `--konata <path>`.
    Value(&'static str),
}

/// Parses the common CLI arguments.
///
/// Exits with [`helios::exit::USAGE`] on an unknown or malformed flag or
/// an unrecognized `--only` name — a typo'd `--quick` would otherwise run
/// the full suite, and a typo'd name silently filtering the sweep to
/// nothing would make every figure print NaN geomeans.
pub fn parse_opts() -> SweepOpts {
    parse_opts_with(&[])
}

/// [`parse_opts`], additionally accepting the given binary-specific flags
/// (reported back through [`SweepOpts::extra`]).
pub fn parse_opts_with(known: &[ExtraFlag]) -> SweepOpts {
    let args: Vec<String> = std::env::args().collect();
    let mut only: Option<Vec<String>> = None;
    let mut quick = false;
    let mut jobs = helios::default_jobs();
    let mut cell_timeout = None;
    let mut retries = None;
    let mut server = None;
    let mut extra: Vec<Option<String>> = known.iter().map(|_| None).collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            // Must be set before any worker thread builds a pipeline; flag
            // parsing happens first thing in main, so it is.
            "--profile" => std::env::set_var("HELIOS_PROFILE", "1"),
            "--cell-timeout" => {
                i += 1;
                cell_timeout = match args.get(i).map(|s| s.parse::<u64>()) {
                    Some(Ok(secs)) if secs >= 1 => Some(Duration::from_secs(secs)),
                    _ => {
                        eprintln!("error: --cell-timeout requires a positive integer (seconds)");
                        std::process::exit(helios::exit::USAGE);
                    }
                };
            }
            "--retries" => {
                i += 1;
                retries = match args.get(i).map(|s| s.parse::<u32>()) {
                    Some(Ok(n)) if n >= 1 => Some(n),
                    _ => {
                        eprintln!("error: --retries requires a positive integer");
                        std::process::exit(helios::exit::USAGE);
                    }
                };
            }
            "--server" => {
                i += 1;
                server = match args.get(i) {
                    Some(url) => Some(url.clone()),
                    None => {
                        eprintln!("error: --server requires a URL (e.g. http://127.0.0.1:7777)");
                        std::process::exit(helios::exit::USAGE);
                    }
                };
            }
            "--only" => {
                i += 1;
                let Some(list) = args.get(i) else {
                    eprintln!("error: --only requires a comma-separated list of workload names");
                    std::process::exit(helios::exit::USAGE);
                };
                only = Some(list.split(',').map(str::to_string).collect());
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => {
                        eprintln!("error: --jobs requires a positive integer");
                        std::process::exit(helios::exit::USAGE);
                    }
                };
            }
            other => {
                let known_at = known.iter().position(|f| match f {
                    ExtraFlag::Bool(n) | ExtraFlag::Value(n) => *n == other,
                });
                match known_at.map(|k| (&known[k], k)) {
                    Some((ExtraFlag::Bool(_), k)) => extra[k] = Some(String::new()),
                    Some((ExtraFlag::Value(name), k)) => {
                        i += 1;
                        let Some(v) = args.get(i) else {
                            eprintln!("error: {name} requires a value");
                            std::process::exit(helios::exit::USAGE);
                        };
                        extra[k] = Some(v.clone());
                    }
                    None => {
                        eprintln!("error: unknown argument `{other}`");
                        std::process::exit(helios::exit::USAGE);
                    }
                }
            }
        }
        i += 1;
    }
    let all = helios::all_workloads();
    if let Some(names) = &only {
        let unknown: Vec<&String> = names
            .iter()
            .filter(|n| !all.iter().any(|w| &w.name == n))
            .collect();
        if !unknown.is_empty() {
            let valid: Vec<&str> = all.iter().map(|w| w.name).collect();
            eprintln!(
                "error: unrecognized workload name(s): {}",
                unknown
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            eprintln!("valid workloads: {}", valid.join(", "));
            std::process::exit(helios::exit::USAGE);
        }
    }
    let workloads = match (only, quick) {
        (Some(names), _) => all
            .into_iter()
            .filter(|w| names.iter().any(|n| n == w.name))
            .collect(),
        (None, true) => all
            .into_iter()
            .filter(|w| QUICK_SET.contains(&w.name))
            .collect(),
        (None, false) => all,
    };
    SweepOpts {
        workloads,
        jobs,
        cell_timeout,
        retries,
        server,
        extra,
    }
}

/// Builds the resilient-executor options for a figure binary: the CLI
/// policy knobs, the shared result store `results/cells.jsonl` (always
/// resumed: cells already in it are answered, not simulated), the SIGINT
/// handler, and the CI/test environment knobs (`HELIOS_SWEEP_CHAOS`,
/// `HELIOS_SWEEP_STOP_AFTER`, `HELIOS_TRACE_DIR`).
///
/// Exits with [`helios::exit::USAGE`] on a malformed environment spec —
/// silently ignoring a typo'd chaos spec would make a CI resilience gate
/// pass vacuously.
pub fn sweep_options(opts: &SweepOpts) -> SweepOptions {
    let chaos = std::env::var("HELIOS_SWEEP_CHAOS").ok().map(|spec| {
        CellChaos::parse(&spec).unwrap_or_else(|e| {
            eprintln!("error: HELIOS_SWEEP_CHAOS: {e}");
            std::process::exit(helios::exit::USAGE);
        })
    });
    let stop_after = std::env::var("HELIOS_SWEEP_STOP_AFTER").ok().map(|v| {
        v.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("error: HELIOS_SWEEP_STOP_AFTER must be a non-negative integer");
            std::process::exit(helios::exit::USAGE);
        })
    });
    SweepOptions {
        jobs: opts.jobs,
        policy: SweepPolicy {
            max_attempts: opts.retries.unwrap_or(SweepPolicy::default().max_attempts),
            cell_timeout: opts.cell_timeout,
            ..SweepPolicy::default()
        },
        checkpoint: Some(helios::Checkpoint {
            path: helios::results_dir().join("cells.jsonl"),
            resume: true,
        }),
        chaos,
        stop_after,
        trace_store: std::env::var_os("HELIOS_TRACE_DIR").map(|dir| {
            helios::TraceStore::open(&dir).unwrap_or_else(|e| {
                eprintln!("error: HELIOS_TRACE_DIR {}: {e}", dir.to_string_lossy());
                std::process::exit(helios::exit::USAGE);
            })
        }),
        handle_interrupt: true,
    }
}

/// Runs the figure's sweep through the resilient executor with the standard
/// wiring from [`sweep_options`]. On interruption (SIGINT or
/// `HELIOS_SWEEP_STOP_AFTER`) the process exits with
/// [`helios::exit::INTERRUPTED`] — finished cells are durable in the
/// store, so the user reruns the same command rather than reading a
/// report with silently missing rows. A grid column is a fusion mode or a
/// full [`PipeConfig`]; `--server` applies only when every column is a
/// mode of the default core, because the wire names modes.
pub fn run_standard_sweep<C>(opts: &SweepOpts, grid: &[C]) -> Sweep
where
    C: Into<PipeConfig> + Copy,
{
    let mode = |cfg: PipeConfig| (cfg == cfg.fusion.into()).then_some(cfg.fusion);
    let modes: Option<Vec<FusionMode>> = grid.iter().map(|&c| mode(c.into())).collect();
    match (&opts.server, modes) {
        (Some(url), Some(modes)) => {
            // Thin-client mode: the daemon simulates (or answers from its
            // result cache); the rebuilt sweep feeds the unchanged report
            // path, so stdout and the JSON artifact stay byte-identical to
            // a local run. The local result store is not consulted — the
            // daemon's cache plays its part.
            let sweep = server::client::remote_sweep(url, &opts.workloads, &modes);
            return sweep.unwrap_or_else(|e| {
                eprintln!("error: --server {url}: {e}");
                std::process::exit(helios::exit::FAILED);
            });
        }
        (Some(_), None) => eprintln!("note: --server ignored: the configs are not fusion modes"),
        (None, _) => {}
    }
    let sweep_opts = sweep_options(opts);
    let sweep = helios::run_sweep_opts(&opts.workloads, grid, &sweep_opts).unwrap_or_else(|e| {
        eprintln!("error: sweep setup failed: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    if sweep.interrupted() {
        std::process::exit(helios::exit::INTERRUPTED);
    }
    sweep
}

/// Annotates a report with every quarantined cell: a stdout warning note
/// plus a machine-readable `cell_status` entry in the JSON artifact. A
/// clean sweep adds nothing, keeping the report byte-identical to the
/// pre-resilience output.
pub fn annotate_failures(report: &mut Report, sweep: &Sweep) {
    for f in sweep.failures() {
        let cell = format!("{}/{}", f.workload, f.mode.name());
        report.note(format!("warning: cell {cell} {}", f.outcome.describe()));
        report.cell_status(cell, f.outcome.describe());
    }
}

/// The standard ending of a figure binary: annotate quarantined cells,
/// print + emit the report, and exit with the sweep's status code
/// ([`helios::exit::COMPLETE`] / [`PARTIAL`](helios::exit::PARTIAL) /
/// [`FAILED`](helios::exit::FAILED)).
pub fn finalize_sweep_report(mut report: Report, sweep: &Sweep) -> ! {
    annotate_failures(&mut report, sweep);
    report.print_and_emit();
    emit_profile_report();
    std::process::exit(sweep.exit_code());
}

/// With `--profile` (or `HELIOS_PROFILE=1`): writes the aggregated per-stage
/// cycle-attribution table to `results/profile.{json,csv}` and prints a
/// summary to *stderr*. Without it: does nothing, so figure stdout stays
/// byte-identical.
pub fn emit_profile_report() {
    use helios_uarch::profile;
    if !profile::enabled() {
        return;
    }
    let Some(snap) = profile::take_global() else {
        eprintln!("warning: --profile set but no profiled cycles were recorded");
        return;
    };
    let total_ns = snap.total_ns().max(1);
    let mut table = Table::new(
        ["stage", "pct", "ms", "ns_per_cycle", "runs", "skips"]
            .map(str::to_string)
            .to_vec(),
    );
    eprintln!(
        "profile: {} simulated cycles, {:.1} ms attributed",
        snap.cycles,
        total_ns as f64 / 1e6
    );
    for s in &snap.stages {
        let pct = 100.0 * s.ns as f64 / total_ns as f64;
        table.row(vec![
            s.stage.to_string(),
            format!("{pct:.1}"),
            format!("{:.1}", s.ns as f64 / 1e6),
            format!("{:.1}", s.ns as f64 / snap.cycles.max(1) as f64),
            s.runs.to_string(),
            s.skips.to_string(),
        ]);
        eprintln!(
            "  {:>16}  {:5.1}%  {:9.1} ms  runs {:>12}  skips {:>12}",
            s.stage,
            pct,
            s.ns as f64 / 1e6,
            s.runs,
            s.skips
        );
    }
    let mut report = Report::new(
        "profile",
        "Per-stage cycle-attribution profile (HELIOS_PROFILE)",
        table,
    );
    report.note(format!("cycles profiled: {}", snap.cycles));
    if let Err(e) = report.emit() {
        eprintln!("warning: could not write profile report: {e}");
    }
}

/// Parses the common CLI arguments and returns the selected workloads,
/// for the census binaries (fig02/04/05/table1): they analyse traces
/// rather than sweep cells, so `--jobs` and `--server` have no effect on
/// them.
pub fn select_workloads() -> Vec<Workload> {
    let opts = parse_opts();
    if opts.server.is_some() {
        eprintln!("note: --server ignored: this binary censuses traces locally");
    }
    opts.workloads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_set_names_exist() {
        let all = helios::all_workloads();
        for n in QUICK_SET {
            assert!(all.iter().any(|w| w.name == n), "{n} not registered");
        }
    }
}
