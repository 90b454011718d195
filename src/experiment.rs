//! Running (workload × configuration) simulations: the parallel,
//! trace-reusing, fault-isolating sweep engine.
//!
//! Every figure and table is driven by [`run_sweep_opts`], and every cell —
//! local or served by `sweepd` — is claimed from a [`Sched`] and runs
//! through its one cell executor, `Sched::run_cell`. Two properties
//! keep it fast without changing any result:
//!
//! * **Record once, replay many** — each workload's functional execution is
//!   recorded once into a shared [`Trace`]; all fusion modes replay the
//!   same recording instead of re-running the emulator per cell. With a
//!   [`TraceStore`] attached the recording is *persistent* and
//!   content-addressed: later sweeps (and concurrent processes) replay it
//!   block-at-a-time straight off disk without recording anything.
//! * **Parallel cells** — (workload × config) cells are independent
//!   simulations. The grid goes to a [`Sched`] as one job, and a
//!   `std::thread::scope` worker pool claims its cells. Each result lands
//!   at its cell's index, so the sweep order is workload-major and
//!   byte-identical regardless of `jobs` or completion order.
//!
//! And two more keep a long campaign *alive* (DESIGN.md §14):
//!
//! * **Per-cell fault isolation** — a panicking, deadlocking, or hung cell
//!   becomes a [`CellOutcome`] for that cell (after bounded retry with
//!   capped backoff), never an abort of the whole sweep. Healthy cells
//!   always complete; the [`Sweep`] carries the quarantined failures so
//!   reports can annotate them and exit codes can distinguish a partial
//!   sweep from a complete one.
//! * **Crash-safe checkpointing** — with a [`Checkpoint`] attached, every
//!   finished cell is appended to a [`ResultStore`] and fsynced before the
//!   sweep moves on, keyed by `(trace digest, PipeConfig::digest)`. A killed
//!   sweep rerun with [`Checkpoint::resume`] answers finished cells from
//!   the store and only simulates the rest; the merged result is
//!   byte-identical to an uninterrupted run. The figure binaries always
//!   resume, from one store shared by every figure.

use crate::sched::Sched;
use crate::store::ResultStore;
use helios_core::FusionMode;
use helios_emu::{StoreStats, Trace, TraceStore, UopSource};
use helios_uarch::{
    CellChaos, ObsOpts, Observer, PipeConfig, Pipeline, SimError, SimStats, StatsRegistry,
};
use helios_workloads::Workload;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One simulation outcome.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Benchmark name.
    pub workload: &'static str,
    /// Fusion mode simulated (`cfg.fusion`).
    pub mode: FusionMode,
    /// Full pipeline configuration simulated.
    pub cfg: PipeConfig,
    /// Collected statistics.
    pub stats: SimStats,
}

/// A fully-described single simulation: workload, pipeline configuration,
/// optional pre-recorded trace to replay, optional wall-clock deadline, and
/// observability options — the one entrypoint behind every figure/table
/// cell.
///
/// # Examples
///
/// ```
/// use helios::{FusionMode, ObsOpts, SimRequest};
///
/// let w = helios_workloads::workload("crc32").expect("registered");
/// let run = SimRequest::mode(&w, FusionMode::Helios)
///     .observing(ObsOpts::metrics())
///     .run();
/// let obs = run.observer.as_ref().expect("observer was attached");
/// assert_eq!(obs.commit_events(), run.stats.uops);
/// ```
#[derive(Clone, Debug)]
pub struct SimRequest<'a> {
    /// The workload to simulate.
    pub workload: &'a Workload,
    /// The pipeline configuration (fusion mode, structure sizes, …).
    pub cfg: PipeConfig,
    /// Replay this trace (in-memory or streamed from a [`TraceStore`] file)
    /// instead of re-emulating the program live. Statistics are identical
    /// either way — the pipeline consumes the same retired-µ-op sequence.
    pub trace: Option<&'a Trace>,
    /// Observability: [`ObsOpts::off`] (default, zero-cost),
    /// [`ObsOpts::metrics`], or [`ObsOpts::timeline`].
    pub obs: ObsOpts,
    /// Abort with [`SimError::WallClockTimeout`] if simulation passes this
    /// wall-clock instant (`None` = no deadline). Wall-clock state never
    /// feeds the timing model, so a deadline that does not fire changes
    /// nothing about the result.
    pub deadline: Option<Instant>,
    /// Cycle budget multiplier: the run may take up to
    /// `workload.fuel * fuel_factor` cycles before
    /// [`SimError::CycleLimit`]. The default (20) means "an IPC below 0.05
    /// is a model bug, not a slow workload".
    pub fuel_factor: u64,
    /// Attach the lockstep architectural checker: every committed µ-op is
    /// compared against a second emulation of the same workload, and any
    /// divergence becomes [`SimError::InvariantViolation`]. Costs one extra
    /// functional execution, so it is off by default.
    pub checked: bool,
}

impl<'a> SimRequest<'a> {
    /// A request with an explicit configuration, no trace, observability off.
    pub fn new(workload: &'a Workload, cfg: PipeConfig) -> SimRequest<'a> {
        SimRequest {
            workload,
            cfg,
            trace: None,
            obs: ObsOpts::off(),
            deadline: None,
            fuel_factor: 20,
            checked: false,
        }
    }

    /// A request for the default Table II core under fusion mode `mode`.
    pub fn mode(workload: &'a Workload, mode: FusionMode) -> SimRequest<'a> {
        SimRequest::new(workload, PipeConfig::with_fusion(mode))
    }

    /// Replays `trace` instead of re-emulating. For repeated runs of one
    /// workload prefer [`Workload::trace`] / [`Workload::stored`] + this,
    /// which share one recording across runs.
    pub fn replaying(mut self, trace: &'a Trace) -> SimRequest<'a> {
        self.trace = Some(trace);
        self
    }

    /// Sets the observability options.
    pub fn observing(mut self, obs: ObsOpts) -> SimRequest<'a> {
        self.obs = obs;
        self
    }

    /// Sets the wall-clock deadline (see [`SimRequest::deadline`]).
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> SimRequest<'a> {
        self.deadline = deadline;
        self
    }

    /// Sets the cycle-budget multiplier (see [`SimRequest::fuel_factor`]).
    pub fn budget(mut self, fuel_factor: u64) -> SimRequest<'a> {
        self.fuel_factor = fuel_factor;
        self
    }

    /// Attaches the lockstep checker (see [`SimRequest::checked`]).
    pub fn checked(mut self) -> SimRequest<'a> {
        self.checked = true;
        self
    }

    /// Runs the simulation to completion, reporting abnormal outcomes —
    /// deadlock, blown cycle budget, expired deadline, violated invariant —
    /// as a structured [`SimError`] instead of panicking. This is what the
    /// resilient sweep executor calls; an error here becomes a quarantined
    /// [`CellOutcome`], not a dead campaign.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; statistics are finalized but discarded, because a
    /// partial result would silently corrupt the figure it feeds.
    pub fn try_run(self) -> Result<SimRun, SimError> {
        let fuel = self.workload.fuel * self.fuel_factor;
        let oracle = self.checked.then(|| self.workload.stream());
        match self.trace {
            Some(t) => {
                let mut pipe = Pipeline::new(self.cfg, t.replay());
                if let Some(o) = oracle {
                    pipe.attach_checker(o);
                }
                try_drive(pipe, fuel, self.obs, self.deadline)
            }
            None => {
                let mut pipe = Pipeline::new(self.cfg, self.workload.stream());
                if let Some(o) = oracle {
                    pipe.attach_checker(o);
                }
                try_drive(pipe, fuel, self.obs, self.deadline)
            }
        }
    }

    /// Runs the simulation to completion.
    ///
    /// # Panics
    ///
    /// On any abnormal outcome — deadlock, blown cycle budget, violated
    /// invariant — naming the (workload, mode) cell. Callers that need a
    /// recoverable error use [`SimRequest::try_run`].
    pub fn run(self) -> SimRun {
        let name = self.workload.name;
        let mode = self.cfg.fusion.name();
        self.try_run()
            .unwrap_or_else(|e| panic!("{name}/{mode}: {e}"))
    }
}

/// Drives one configured pipeline to completion (see [`SimRequest::try_run`]).
fn try_drive<I: UopSource>(
    mut pipe: Pipeline<I>,
    fuel: u64,
    obs: ObsOpts,
    deadline: Option<Instant>,
) -> Result<SimRun, SimError> {
    pipe.attach_observer(obs);
    pipe.try_run_deadline(fuel, deadline)?;
    Ok(SimRun {
        stats: pipe.stats().clone(),
        observer: pipe.take_observer(),
    })
}

/// What a [`SimRequest`] produces: the statistics, plus the observer when
/// one was attached.
#[derive(Debug)]
pub struct SimRun {
    /// Collected statistics (always present).
    pub stats: SimStats,
    /// The event observer, when the request enabled observability.
    pub observer: Option<Box<Observer>>,
}

impl SimRun {
    /// The full self-describing stats registry: every [`SimStats`] counter
    /// plus, when an observer ran, its event counters and histograms.
    pub fn registry(&self) -> StatsRegistry {
        let mut reg = self.stats.registry();
        if let Some(o) = &self.observer {
            o.export(&mut reg);
        }
        reg
    }
}

/// How one sweep cell ended. Successful statistics live in
/// [`Sweep::results`]; everything else is quarantined in
/// [`Sweep::failures`] with enough detail for a report annotation.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell simulated normally. Boxed: [`SimStats`] is large and this
    /// variant is moved around by value.
    Ok(Box<SimStats>),
    /// The cell failed on every attempt (panic, deadlock, blown cycle
    /// budget, invariant violation, or a recording error).
    Failed {
        /// Human-readable description of the final attempt's failure.
        error: String,
        /// Attempts made before quarantining.
        attempts: u32,
    },
    /// The cell exceeded its wall-clock budget on every attempt.
    TimedOut {
        /// The per-attempt wall-clock budget that elapsed, in milliseconds.
        limit_ms: u64,
        /// Attempts made before quarantining.
        attempts: u32,
    },
    /// The cell was never attempted (the sweep was interrupted first).
    Skipped,
}

impl CellOutcome {
    /// One-line status for report annotations and logs.
    pub fn describe(&self) -> String {
        match self {
            CellOutcome::Ok(_) => "ok".to_string(),
            CellOutcome::Failed { error, attempts } => {
                format!("failed after {attempts} attempt(s): {error}")
            }
            CellOutcome::TimedOut { limit_ms, attempts } => {
                format!("timed out after {attempts} attempt(s) ({limit_ms} ms budget)")
            }
            CellOutcome::Skipped => "skipped (sweep interrupted)".to_string(),
        }
    }
}

/// A non-successful cell, as carried by [`Sweep::failures`].
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Benchmark name.
    pub workload: &'static str,
    /// Fusion configuration of the cell.
    pub mode: FusionMode,
    /// How the cell ended (never [`CellOutcome::Ok`]).
    pub outcome: CellOutcome,
}

/// Retry/quarantine policy for one sweep (DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub struct SweepPolicy {
    /// Attempts per cell before quarantining (≥ 1; clamped).
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per retry.
    pub backoff_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub backoff_cap_ms: u64,
    /// Per-attempt wall-clock budget (`None` = unbounded). The watchdog and
    /// cycle budget still bound runaway cells in simulated time.
    pub cell_timeout: Option<Duration>,
    /// Cycle budget multiplier (see [`SimRequest::fuel_factor`]).
    pub fuel_factor: u64,
}

impl Default for SweepPolicy {
    fn default() -> SweepPolicy {
        SweepPolicy {
            max_attempts: 2,
            backoff_ms: 100,
            backoff_cap_ms: 2_000,
            cell_timeout: None,
            fuel_factor: 20,
        }
    }
}

/// Checkpoint configuration for [`run_sweep_opts`]: the [`ResultStore`]
/// finished cells are appended to.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Store file (the figure binaries share `results/cells.jsonl`; a
    /// `sweepd` cache directory's `results.jsonl` is the same format).
    pub path: PathBuf,
    /// `true`: answer cells already in the store from it and append to it.
    /// `false`: start fresh, truncating any prior store.
    pub resume: bool,
}

/// Everything [`run_sweep_opts`] can be asked to do beyond the cell grid.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads (0 = [`default_jobs`]).
    pub jobs: usize,
    /// Retry/timeout/quarantine policy.
    pub policy: SweepPolicy,
    /// Crash-safe journal; `None` disables checkpointing.
    pub checkpoint: Option<Checkpoint>,
    /// Deterministic per-cell fault injection (soak/CI only).
    pub chaos: Option<CellChaos>,
    /// Stop claiming new cells after this many have been simulated (store
    /// hits do not count) — a deterministic stand-in for `kill -9` in
    /// checkpoint/resume tests at `jobs: 1`; with more workers, cells
    /// already in flight still finish. It cancels this sweep alone, and
    /// the sweep reports itself interrupted, exactly as for SIGINT.
    pub stop_after: Option<usize>,
    /// Content-addressed persistent trace corpus (`None` keeps recordings
    /// in memory for this sweep only). Corrupt or stale entries are
    /// quarantined and re-recorded; cells replay entries block-at-a-time
    /// off disk, so peak memory stays O(jobs × block).
    pub trace_store: Option<TraceStore>,
    /// Install the SIGINT handler so ^C stops cell claiming (the journal is
    /// already durable) instead of killing the process mid-write.
    pub handle_interrupt: bool,
}

/// Results of a full (workloads × configs) sweep, indexable by both axes.
/// Failed, timed-out, and skipped cells are quarantined in
/// [`Sweep::failures`] rather than aborting the sweep; [`Sweep::get`]
/// returns `None` for them.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    results: Vec<RunResult>,
    /// (workload, [`PipeConfig::digest`]) → index into `results`. `get` is
    /// called in nested loops by every figure binary; the linear scan it
    /// replaces was O(n) per lookup over 192 cells.
    index: HashMap<(&'static str, u64), usize>,
    /// Workload names in sweep (workload-major execution) order.
    order: Vec<&'static str>,
    /// Non-successful cells, in workload-major order.
    failures: Vec<CellReport>,
    /// Whether the sweep stopped before every cell was attempted (SIGINT
    /// or `stop_after`).
    interrupted: bool,
    /// Cells answered from the result store instead of simulated.
    restored: usize,
}

impl Sweep {
    /// Assembles a sweep from its cells — as [`run_sweep_opts`] does, and
    /// as the thin client of a sweep server does to rebuild the exact
    /// structure a local sweep over the same grid would have produced, so
    /// every downstream report renders identically. `order` is the
    /// requested workload order (which lists every requested workload even
    /// if all of its cells failed); `results` and `failures` are in
    /// workload-major order.
    pub fn assemble(
        results: Vec<RunResult>,
        order: Vec<&'static str>,
        failures: Vec<CellReport>,
    ) -> Sweep {
        let index = results
            .iter()
            .enumerate()
            .map(|(i, r)| ((r.workload, r.cfg.digest()), i))
            .collect();
        Sweep {
            results,
            index,
            order,
            failures,
            interrupted: false,
            restored: 0,
        }
    }

    /// All results, in execution order (workload-major).
    pub fn results(&self) -> &[RunResult] {
        &self.results
    }

    /// The result for one (workload, config) cell — the config given in
    /// full or as a [`FusionMode`] of the default core; `None` when the
    /// cell failed, timed out, was skipped, or was never part of the sweep.
    pub fn get(&self, workload: &str, cfg: impl Into<PipeConfig>) -> Option<&SimStats> {
        self.index
            .get(&(workload, cfg.into().digest()))
            .map(|&i| &self.results[i].stats)
    }

    /// Workload names, in sweep order. Includes workloads whose cells all
    /// failed — consumers skip per-cell via [`Sweep::get`].
    pub fn workloads(&self) -> Vec<&'static str> {
        self.order.clone()
    }

    /// Non-successful cells, in workload-major order.
    pub fn failures(&self) -> &[CellReport] {
        &self.failures
    }

    /// Whether the sweep stopped before every cell was attempted (SIGINT
    /// or a `stop_after` cap).
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Cells answered from the checkpoint's result store instead of
    /// simulated.
    pub fn restored(&self) -> usize {
        self.restored
    }

    /// Whether every cell produced statistics.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && !self.interrupted
    }

    /// The process exit code this sweep merits: [`crate::exit::COMPLETE`]
    /// when every cell succeeded, [`crate::exit::INTERRUPTED`] when the
    /// sweep stopped early, [`crate::exit::FAILED`] when *nothing*
    /// succeeded, and [`crate::exit::PARTIAL`] when some cells were
    /// quarantined but the rest completed.
    pub fn exit_code(&self) -> i32 {
        if self.interrupted {
            crate::exit::INTERRUPTED
        } else if self.failures.is_empty() {
            crate::exit::COMPLETE
        } else if self.results.is_empty() {
            crate::exit::FAILED
        } else {
            crate::exit::PARTIAL
        }
    }

    /// Per-workload IPC of `mode` normalized to `baseline`, plus the
    /// geometric mean, in sweep order. Workloads missing either cell
    /// (quarantined or skipped) are omitted.
    pub fn normalized_ipc(&self, mode: FusionMode, baseline: FusionMode) -> (BTreeMap<&'static str, f64>, f64) {
        let mut out = BTreeMap::new();
        let mut vals = Vec::new();
        for w in self.workloads() {
            if let (Some(m), Some(b)) = (self.get(w, mode), self.get(w, baseline)) {
                let r = m.ipc() / b.ipc();
                out.insert(w, r);
                vals.push(r);
            }
        }
        (out, crate::metrics::geomean(&vals))
    }
}

/// Worker count used when the caller does not specify one: every core.
/// Results are independent of the worker count, so defaulting to full
/// parallelism is safe.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Mutex-guarded progress reporter: a single writer keeps the `\r` status
/// line on stderr coherent under concurrent workers, and completion prints
/// elapsed wall-clock time. Used by the sweep engine and by every census /
/// scan loop in the figure binaries (raw `eprint!("\r…")` from concurrent
/// contexts interleaves).
pub struct Progress {
    state: Mutex<(usize, Instant)>, // (items done, start)
    total: usize,
}

impl Progress {
    /// A reporter expecting `total` items.
    pub fn new(total: usize) -> Progress {
        Progress {
            state: Mutex::new((0, Instant::now())),
            total,
        }
    }

    /// Marks one item finished and redraws the status line
    /// (`[done/total] label detail`).
    pub fn item_done(&self, label: &str, detail: &str) {
        let mut s = self.state.lock().unwrap();
        s.0 += 1;
        eprint!("\r[{}/{}] {:<18} {:<14}", s.0, self.total, label, detail);
    }

    /// Overwrites the status line with `<what> complete in <elapsed>s`.
    pub fn finish(&self, what: &str) {
        let s = self.state.lock().unwrap();
        eprintln!(
            "\r[{}/{}] {what} complete in {:.1}s{:24}",
            s.0,
            self.total,
            s.1.elapsed().as_secs_f64(),
            ""
        );
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        self.state.lock().unwrap().0
    }
}

/// Extracts a readable message from a caught panic payload. Shared by the
/// sweep executor, the fuzz harness, and tests that assert on panics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// --- SIGINT: stop claiming cells, let the durable journal do the rest ----

/// Set only by the SIGINT handler; sweep workers stop claiming new cells
/// when it goes high.
static SWEEP_INTERRUPTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIG_DFL: usize = 0;

extern "C" {
    // From libc, which std already links on every supported target; keeps
    // the workspace dependency-free. ISO C signal(), not sigaction: the
    // handler only stores to an atomic, which is async-signal-safe.
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn sigint_flag_setter(_sig: i32) {
    SWEEP_INTERRUPTED.store(true, Ordering::SeqCst);
    // Restore the default disposition so a second ^C kills the process
    // instead of being swallowed.
    unsafe { signal(SIGINT, SIG_DFL) };
}

/// Installs the cooperative SIGINT handler: the first ^C asks running
/// sweeps to stop claiming new cells (every finished cell is already
/// fsynced to the journal), the second kills the process. Idempotent.
pub fn install_interrupt_handler() {
    unsafe { signal(SIGINT, sigint_flag_setter as extern "C" fn(i32) as usize) };
}

/// Whether the process has received SIGINT. It stays set: every sweep
/// started afterwards stops before its first cell.
pub fn sweep_interrupted() -> bool {
    SWEEP_INTERRUPTED.load(Ordering::SeqCst)
}

// --- The resilient executor ----------------------------------------------

/// The resilient sweep executor behind every figure binary (DESIGN.md §14):
/// the (workload × config) grid goes to a [`Sched`] as one job, and
/// `opts.jobs` workers run its cells with per-cell fault isolation, bounded
/// retry and quarantine, optional wall-clock timeouts, an optional
/// crash-safe checkpoint [`ResultStore`] with resume, optional chaos
/// injection, and cooperative interrupt handling. A grid column is a full
/// [`PipeConfig`] or a [`FusionMode`] of the default core. Results are
/// workload-major and identical for any worker count; every abnormal cell
/// is reported in [`Sweep::failures`]. SIGINT and `opts.stop_after` cancel
/// this sweep's job only; cells never claimed are [`CellOutcome::Skipped`].
///
/// # Errors
///
/// Only on checkpoint I/O setup (an uncreatable or unreadable store file).
/// Cell-level problems — including trace-store corruption, which is
/// quarantined and re-recorded — never surface here; they are handled per
/// cell.
pub fn run_sweep_opts<C: Into<PipeConfig> + Copy>(
    workloads: &[Workload],
    grid: &[C],
    opts: &SweepOptions,
) -> io::Result<Sweep> {
    let cfgs: Vec<PipeConfig> = grid.iter().map(|&c| c.into()).collect();
    let total = workloads.len() * cfgs.len();
    let jobs = if opts.jobs == 0 { default_jobs() } else { opts.jobs }.clamp(1, total.max(1));
    if opts.handle_interrupt {
        install_interrupt_handler();
    }
    let result_store = match &opts.checkpoint {
        Some(ck) if ck.resume => Some(ResultStore::open(&ck.path)?),
        Some(ck) => Some(ResultStore::create(&ck.path)?),
        None => None,
    };
    let store_before: Option<StoreStats> = opts.trace_store.as_ref().map(TraceStore::stats);

    let sched = Sched::new(
        opts.policy,
        opts.chaos.clone(),
        result_store,
        opts.trace_store.clone(),
    );
    let arcs: Vec<Arc<Workload>> = workloads.iter().cloned().map(Arc::new).collect();
    let (ticket, events) = sched.submit(&arcs, &cfgs);
    let cell = |i: usize| (&workloads[i / cfgs.len()], cfgs[i % cfgs.len()]);
    let reporter = Progress::new(total);
    let simulated = AtomicUsize::new(0); // for `stop_after`
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; total];
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let done = simulated.load(Ordering::Relaxed);
                if opts.stop_after.is_some_and(|cap| done >= cap) || sweep_interrupted() {
                    sched.cancel(&ticket);
                }
                let Some(ran) = sched.run_next() else { break };
                simulated.fetch_add(usize::from(ran), Ordering::Relaxed);
            });
        }
        for event in events {
            let (w, cfg) = cell(event.index);
            reporter.item_done(w.name, cfg.fusion.name());
            outcomes[event.index] = Some(event.outcome);
        }
        // Every cell has reported or been dropped: release the idle workers.
        sched.stop();
    });
    let restored = sched.counts().1 as usize;

    let interrupted = outcomes.iter().any(Option::is_none);
    if interrupted {
        eprintln!(
            "\rsweep interrupted: {}/{} cells finished (they are stored; rerun to finish the rest)",
            reporter.done(),
            total
        );
    } else {
        reporter.finish("sweep");
    }
    if let (Some(store), Some(before)) = (&opts.trace_store, &store_before) {
        // One grep-stable line per sweep; CI asserts "0 recorded" on a
        // warm store.
        let d = store.stats().since(before);
        eprintln!(
            "trace store: {} recorded, {} hits, {} quarantined",
            d.recorded, d.hits, d.quarantined
        );
    }
    if let (Some(ck), true) = (&opts.checkpoint, restored > 0) {
        eprintln!(
            "resume: restored {restored}/{total} cells from {}",
            ck.path.display()
        );
    }

    let mut results = Vec::new();
    let mut failures = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (w, cfg) = cell(i);
        match outcome.unwrap_or(CellOutcome::Skipped) {
            CellOutcome::Ok(stats) => results.push(RunResult {
                workload: w.name,
                mode: cfg.fusion,
                cfg,
                stats: *stats,
            }),
            outcome => failures.push(CellReport {
                workload: w.name,
                mode: cfg.fusion,
                outcome,
            }),
        }
    }
    for f in &failures {
        if !matches!(f.outcome, CellOutcome::Skipped) {
            eprintln!("  quarantined {}/{}: {}", f.workload, f.mode.name(), f.outcome.describe());
        }
    }

    let order = workloads.iter().map(|w| w.name).collect();
    Ok(Sweep {
        interrupted,
        restored,
        ..Sweep::assemble(results, order, failures)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(ws: &[Workload], modes: &[FusionMode], jobs: usize) -> Sweep {
        let opts = SweepOptions {
            jobs,
            ..Default::default()
        };
        run_sweep_opts(ws, modes, &opts).unwrap()
    }

    #[test]
    fn sweep_indexing() {
        let ws = vec![helios_workloads::workload("crc32").unwrap()];
        let modes = [FusionMode::NoFusion, FusionMode::CsfSbr];
        let s = sweep(&ws, &modes, 1);
        assert_eq!(s.results().len(), 2);
        assert!(s.get("crc32", FusionMode::NoFusion).is_some());
        assert!(s.get("crc32", FusionMode::Helios).is_none());
        let (per, geo) = s.normalized_ipc(FusionMode::CsfSbr, FusionMode::NoFusion);
        assert_eq!(per.len(), 1);
        assert!(geo > 0.5 && geo < 2.0);
        assert!(s.is_complete());
        assert_eq!(s.exit_code(), crate::exit::COMPLETE);
    }

    #[test]
    fn sweep_order_is_workload_major_input_order() {
        // Deliberately not alphabetical: the sweep must preserve the caller's
        // workload order, not sort it.
        let ws = vec![
            helios_workloads::workload("susan").unwrap(),
            helios_workloads::workload("crc32").unwrap(),
        ];
        let modes = [FusionMode::NoFusion, FusionMode::CsfSbr];
        let s = sweep(&ws, &modes, 2);
        assert_eq!(s.workloads(), vec!["susan", "crc32"]);
        let cells: Vec<(&str, FusionMode)> =
            s.results().iter().map(|r| (r.workload, r.mode)).collect();
        assert_eq!(
            cells,
            vec![
                ("susan", FusionMode::NoFusion),
                ("susan", FusionMode::CsfSbr),
                ("crc32", FusionMode::NoFusion),
                ("crc32", FusionMode::CsfSbr),
            ]
        );
    }

    #[test]
    fn sim_request_is_deterministic() {
        // Two independent runs of the same request agree exactly, and
        // observability defaults to off.
        let w = helios_workloads::workload("crc32").unwrap();
        let a = SimRequest::mode(&w, FusionMode::CsfSbr).run();
        let b = SimRequest::mode(&w, FusionMode::CsfSbr).run();
        assert_eq!((a.stats.cycles, a.stats.uops), (b.stats.cycles, b.stats.uops));
        assert!(a.observer.is_none(), "observability defaults to off");
    }

    #[test]
    fn observed_run_matches_unobserved_timing() {
        // Metrics-level observation must not perturb simulated timing.
        let w = helios_workloads::workload("crc32").unwrap();
        let plain = SimRequest::mode(&w, FusionMode::Helios).run();
        let observed = SimRequest::mode(&w, FusionMode::Helios)
            .observing(ObsOpts::metrics())
            .run();
        assert_eq!(plain.stats.cycles, observed.stats.cycles);
        assert_eq!(plain.stats.uops, observed.stats.uops);
        let reg = observed.registry();
        assert!(reg.get("obs.commit_events").is_some(), "observer exported");
        assert!(plain.registry().get("obs.commit_events").is_none());
    }

    #[test]
    fn failing_cell_is_named() {
        // A starved workload makes recording fail loudly with the name.
        let mut w = helios_workloads::workload("crc32").unwrap();
        w.fuel = 10;
        let s = sweep(&[w], &[FusionMode::NoFusion], 2);
        match &s.failures()[0].outcome {
            CellOutcome::Failed { error, .. } => {
                assert!(error.contains("crc32"), "error names the workload: {error}")
            }
            other => panic!("expected a failed cell, got {}", other.describe()),
        }
    }

    #[test]
    fn expired_deadline_is_a_sim_error_not_a_panic() {
        let w = helios_workloads::workload("crc32").unwrap();
        let err = SimRequest::mode(&w, FusionMode::NoFusion)
            .with_deadline(Some(Instant::now()))
            .try_run()
            .unwrap_err();
        assert!(matches!(err, SimError::WallClockTimeout { .. }), "{err}");
    }
}
