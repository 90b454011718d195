//! The cell scheduler behind every sweep (DESIGN.md §11, §17). Local
//! sweeps and the `sweepd` daemon submit grids here as jobs; workers claim
//! cells round-robin across jobs and run them through `Sched::run_cell`,
//! the one cell executor. A cell is one workload under one [`PipeConfig`],
//! keyed by [`CellKey`] like the [`ResultStore`]. A cell runs at most once
//! at a time: a job that claims a running cell waits on that run instead.
//! Each workload's trace is shared by its cells and freed after its last
//! outstanding one, counting cells dropped by a cancel.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use helios_emu::{StoreError, Trace, TraceStore};
use helios_uarch::{CellChaos, CellFault, PipeConfig, SimError};
use helios_workloads::Workload;

use crate::experiment::{panic_message, sweep_interrupted, CellOutcome, SimRequest, SweepPolicy};
use crate::store::{CellKey, ResultStore};

/// One finished cell, reported to the job that submitted it.
#[derive(Debug)]
pub struct CellEvent {
    /// The cell's workload-major position in its job's grid.
    pub index: usize,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Answered without simulating for this job: from the result store, or
    /// by another job's run of the same cell.
    pub from_store: bool,
}

/// A submitted job, as [`Sched::cancel`] names it.
#[derive(Debug)]
pub struct Ticket(Arc<AtomicBool>);

/// The way back to a job: its event channel and its cancellation flag.
#[derive(Clone)]
struct Reply {
    tx: mpsc::Sender<CellEvent>,
    cancelled: Arc<AtomicBool>,
}

impl Reply {
    fn live(&self) -> bool {
        !self.cancelled.load(Ordering::Relaxed)
    }

    /// A failed send means the submitter is gone (a cancel raced the
    /// claim); a stored result is already durable.
    fn send(&self, index: usize, outcome: CellOutcome, from_store: bool) {
        let _ = self.tx.send(CellEvent {
            index,
            outcome,
            from_store,
        });
    }
}

struct Cell {
    index: usize,
    workload: Arc<Workload>,
    cfg: PipeConfig,
    key: CellKey,
}

/// A queued job: the cells still to claim.
struct Job {
    cells: VecDeque<Cell>,
    reply: Reply,
}

/// A job waiting on a running cell: the cell's index in that job, and the
/// way back. The first waiter is the job whose worker claimed the cell.
type Waiter = (usize, Reply);

/// Worker-facing queue state: active jobs, the round-robin cursor and the
/// cells being run.
#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    /// The job the next claim takes from (modulo the job count) — advanced
    /// past each claim so concurrent jobs interleave cell-by-cell.
    rr: usize,
    /// Every cell a worker is running, with the jobs waiting on that run.
    inflight: HashMap<CellKey, Vec<Waiter>>,
    /// Stopped: no job is accepted, and a claim on an empty queue ends.
    closed: bool,
}

impl Queue {
    /// Pops the next queued cell, round-robin across active jobs. A job
    /// leaves the queue with its last cell, so every queued job has one.
    fn pop(&mut self) -> Option<(Cell, Reply)> {
        let i = self.rr.checked_rem(self.jobs.len())?;
        let job = &mut self.jobs[i];
        let cell = job.cells.pop_front().expect("queued jobs have cells");
        let claim = (cell, job.reply.clone());
        if job.cells.is_empty() {
            self.jobs.remove(i);
            self.rr = i;
        } else {
            self.rr = i + 1;
        }
        Some(claim)
    }
}

/// The trace cache: trace digest → the trace once acquired, and the
/// workload's cells still outstanding; the entry goes when they reach zero.
type Slots = HashMap<u64, (Arc<OnceLock<Result<Trace, String>>>, usize)>;

/// The scheduler: a job queue, the in-flight table, the trace cache, and
/// the executor settings every cell runs under. Workers and submitters
/// share one `Sched`. The default one has the default policy and no
/// stores.
#[derive(Default)]
pub struct Sched {
    queue: Mutex<Queue>,
    work_ready: Condvar,
    policy: SweepPolicy,
    chaos: Option<CellChaos>,
    results: Option<ResultStore>,
    /// Where traces come from; `None` records them in memory.
    trace_store: Option<TraceStore>,
    traces: Mutex<Slots>,
    simulated: AtomicU64,
    cached: AtomicU64,
}

impl Sched {
    /// A scheduler whose cells run under `policy` and `chaos`, answer from
    /// and append to `results`, and take their traces from `trace_store`
    /// (or record them in memory).
    pub fn new(
        policy: SweepPolicy,
        chaos: Option<CellChaos>,
        results: Option<ResultStore>,
        trace_store: Option<TraceStore>,
    ) -> Sched {
        Sched {
            policy,
            chaos,
            results,
            trace_store,
            ..Sched::default()
        }
    }

    // Nothing panics while holding these locks, so a poisoned one is
    // intact; a worker unwinding through a `Flight` must still land it.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn traces(&self) -> MutexGuard<'_, Slots> {
        self.traces.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The workload's trace, acquired on first demand: recorded in memory
    /// or fetched from the trace store. Concurrent cells of one workload
    /// wait on its slot rather than record twice; a recording error is
    /// kept too, so a starved workload fails each of its cells fast.
    fn trace(&self, w: &Workload, trace: u64) -> Result<Trace, String> {
        let slot = self.traces()[&trace].0.clone();
        slot.get_or_init(|| {
            match &self.trace_store {
                Some(s) => w.stored(s),
                None => w.trace().map_err(StoreError::Record),
            }
            .map_err(|e| format!("recording {}: {e}", w.name))
        })
        .clone()
    }

    /// Marks one of a workload's cells finished or dropped, freeing its
    /// trace after the last one. Runs in `Drop`, so it never panics.
    fn release(&self, trace: u64) {
        let mut slots = self.traces();
        if let Some(slot) = slots.get_mut(&trace) {
            slot.1 -= 1;
            if slot.1 == 0 {
                slots.remove(&trace);
            }
        }
    }

    /// Queues the `workloads` × `cfgs` grid as one job, whose events arrive
    /// on the returned channel. It closes once every cell has reported or
    /// been dropped — at once if the scheduler is stopped.
    pub fn submit(
        &self,
        workloads: &[Arc<Workload>],
        cfgs: &[PipeConfig],
    ) -> (Ticket, mpsc::Receiver<CellEvent>) {
        let (tx, rx) = mpsc::channel();
        let reply = Reply {
            tx,
            cancelled: Arc::default(),
        };
        let ticket = Ticket(reply.cancelled.clone());
        let cfg_keys: Vec<u64> = cfgs.iter().map(PipeConfig::digest).collect();
        let mut cells = VecDeque::with_capacity(workloads.len() * cfgs.len());
        for workload in workloads {
            let trace = TraceStore::digest(&workload.program);
            for (&cfg, &key) in cfgs.iter().zip(&cfg_keys) {
                let key = CellKey { trace, cfg: key };
                let (index, workload) = (cells.len(), workload.clone());
                cells.push_back(Cell {
                    index,
                    workload,
                    cfg,
                    key,
                });
            }
        }
        let mut queue = self.queue();
        if !queue.closed && !cells.is_empty() {
            let mut slots = self.traces();
            for c in &cells {
                slots.entry(c.key.trace).or_default().1 += 1;
            }
            queue.jobs.push(Job { cells, reply });
            self.work_ready.notify_all();
        }
        (ticket, rx)
    }

    /// Cancels a job: its queued cells are dropped, and a claimed cell
    /// that no live job waits on is skipped.
    pub fn cancel(&self, ticket: &Ticket) {
        ticket.0.store(true, Ordering::Relaxed);
        let mut queue = self.queue();
        let mine = |j: &Job| Arc::ptr_eq(&j.reply.cancelled, &ticket.0);
        if let Some(i) = queue.jobs.iter().position(mine) {
            self.drop_job(queue.jobs.remove(i));
        }
    }

    /// Stops the scheduler: it accepts no more jobs, cancels every queued
    /// job as [`Sched::cancel`] does, and idle workers return. Running
    /// cells finish and report; then every event channel closes.
    pub fn stop(&self) {
        let mut queue = self.queue();
        queue.closed = true;
        for job in std::mem::take(&mut queue.jobs) {
            self.drop_job(job);
        }
        self.work_ready.notify_all();
    }

    fn drop_job(&self, job: Job) {
        job.reply.cancelled.store(true, Ordering::Relaxed);
        for c in &job.cells {
            self.release(c.key.trace);
        }
    }

    /// A worker's step: claims the next cell and runs it unless its job
    /// was cancelled. Blocks while the queue is empty; `None` once the
    /// scheduler is stopped and drained. `Some(true)` means this worker
    /// simulated the cell (the store did not answer it).
    pub fn run_next(&self) -> Option<bool> {
        let cell = self.claim()?;
        Some(self.take_off(cell).is_some_and(|flight| !flight.run()))
    }

    /// Claims the next cell no worker is running, round-robin across active
    /// jobs, and enters it in the in-flight table; a job that pops a
    /// running cell becomes a waiter on that run instead.
    fn claim(&self) -> Option<Cell> {
        let mut queue = self.queue();
        loop {
            let Some((cell, reply)) = queue.pop() else {
                if queue.closed {
                    return None;
                }
                queue = self
                    .work_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            match queue.inflight.get_mut(&cell.key) {
                Some(waiters) => {
                    waiters.push((cell.index, reply));
                    self.release(cell.key.trace);
                }
                None => {
                    queue.inflight.insert(cell.key, vec![(cell.index, reply)]);
                    return Some(cell);
                }
            }
        }
    }

    /// Starts running a claimed cell. A cell that no live job waits on any
    /// more (its own job was cancelled) leaves the in-flight table instead,
    /// and `None` says to skip it.
    fn take_off(&self, cell: Cell) -> Option<Flight<'_>> {
        let mut queue = self.queue();
        if !queue.inflight[&cell.key].iter().any(|w| w.1.live()) {
            queue.inflight.remove(&cell.key);
            self.release(cell.key.trace);
            return None;
        }
        Some(Flight {
            sched: self,
            cell,
            landed: None,
        })
    }

    /// `(simulated, cached)`: cells this scheduler's workers simulated, and
    /// cells answered without simulating — store hits, and each waiter's
    /// successful outcome.
    pub fn counts(&self) -> (u64, u64) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (load(&self.simulated), load(&self.cached))
    }

    /// The result store cells answer from and append to.
    pub fn results(&self) -> Option<&ResultStore> {
        self.results.as_ref()
    }

    /// Runs one cell: a result-store lookup (a hit needs no trace), trace
    /// acquisition, then simulation under `catch_unwind` and the policy's
    /// per-attempt deadline, with bounded retry, capped backoff and chaos
    /// injection, and a store append on success. Returns the outcome and
    /// whether the store answered it; never panics.
    fn run_cell(&self, cell: &Cell) -> (CellOutcome, bool) {
        let (w, cfg, key, policy) = (&*cell.workload, cell.cfg, cell.key, &self.policy);
        if let Some(stats) = self.results.as_ref().and_then(|s| s.get(key)) {
            return (CellOutcome::Ok(Box::new(stats)), true);
        }
        let trace = catch_unwind(AssertUnwindSafe(|| self.trace(w, key.trace)))
            .unwrap_or_else(|p| Err(panic_message(&*p)));
        let trace = match trace {
            Ok(t) => t,
            Err(error) => return (CellOutcome::Failed { error, attempts: 1 }, false),
        };
        let mode = cfg.fusion.name();
        let chaos = self.chaos.as_ref().and_then(|c| c.fault_for(w.name, mode));
        let max_attempts = policy.max_attempts.max(1);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            // An injected timeout is an already-expired deadline, so the real
            // timeout machinery (deadline poll in the pipeline run loop, the
            // retry/quarantine path here) is what gets exercised.
            let deadline = match chaos {
                Some(CellFault::Timeout) => Some(Instant::now()),
                _ => policy.cell_timeout.map(|d| Instant::now() + d),
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                if chaos == Some(CellFault::Panic) {
                    panic!("injected chaos panic");
                }
                SimRequest::new(w, cfg)
                    .replaying(&trace)
                    .budget(policy.fuel_factor)
                    .with_deadline(deadline)
                    .try_run()
            }));
            let outcome = match result {
                Ok(Ok(run)) => {
                    if let Some(s) = &self.results {
                        if let Err(e) = s.put(key, w.name, mode, &run.stats) {
                            // Costs a future re-simulation, never a wrong answer.
                            eprintln!("\rwarning: result store append failed: {e}");
                        }
                    }
                    return (CellOutcome::Ok(Box::new(run.stats)), false);
                }
                Ok(Err(SimError::WallClockTimeout { limit_ms, .. })) => {
                    CellOutcome::TimedOut { limit_ms, attempts }
                }
                Ok(Err(e)) => CellOutcome::Failed {
                    error: e.to_string(),
                    attempts,
                },
                Err(p) => CellOutcome::Failed {
                    error: panic_message(&*p),
                    attempts,
                },
            };
            if attempts >= max_attempts || sweep_interrupted() {
                return (outcome, false);
            }
            let backoff = policy
                .backoff_ms
                .saturating_mul(1u64 << (attempts - 1).min(16))
                .min(policy.backoff_cap_ms);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
        }
    }
}

/// A cell being run. Dropping it lands the run: the cell leaves the
/// in-flight table and its outcome goes to the claiming job and every live
/// waiter. A worker that unwinds before the outcome is set lands a
/// failure, so no waiter hangs on a dead run.
struct Flight<'a> {
    sched: &'a Sched,
    cell: Cell,
    /// The outcome and whether the store answered it, once run.
    landed: Option<(CellOutcome, bool)>,
}

impl Flight<'_> {
    /// Runs the cell; returns whether the store answered it.
    fn run(mut self) -> bool {
        let s = self.sched;
        let (outcome, from_store) = s.run_cell(&self.cell);
        if from_store {
            s.cached.fetch_add(1, Ordering::Relaxed);
        } else if matches!(outcome, CellOutcome::Ok(_)) {
            s.simulated.fetch_add(1, Ordering::Relaxed);
        }
        self.landed = Some((outcome, from_store));
        from_store
    }
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        let (s, cell) = (self.sched, &self.cell);
        let waiters = s.queue().inflight.remove(&cell.key).unwrap_or_default();
        s.release(cell.key.trace);
        let (outcome, from_store) = self.landed.take().unwrap_or_else(|| {
            let error = format!("worker died running {}", cell.workload.name);
            (CellOutcome::Failed { error, attempts: 1 }, false)
        });
        // The claiming job, first in line, hears even after a cancel. A
        // later waiter's success is a cache hit: the cell was not simulated
        // for its job. Failures pass through unchanged and stay unstored,
        // so a later request retries them.
        let hit = matches!(outcome, CellOutcome::Ok(_));
        for (n, (index, reply)) in waiters.iter().enumerate() {
            if n == 0 {
                reply.send(*index, outcome.clone(), from_store);
            } else if reply.live() {
                if hit {
                    s.cached.fetch_add(1, Ordering::Relaxed);
                }
                reply.send(*index, outcome.clone(), hit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_core::FusionMode;

    fn fft() -> Vec<Arc<Workload>> {
        vec![Arc::new(
            helios_workloads::workload("fft").expect("registered"),
        )]
    }

    fn cfgs(modes: &[FusionMode]) -> Vec<PipeConfig> {
        modes.iter().map(|&m| m.into()).collect()
    }

    fn key(cell: &Cell) -> (&'static str, u64) {
        (cell.workload.name, cell.key.cfg)
    }

    fn helios() -> u64 {
        PipeConfig::from(FusionMode::Helios).digest()
    }

    #[test]
    fn a_claim_of_a_running_cell_waits_on_it_and_claims_the_next_cell() {
        let sched = Sched::default();
        sched.submit(&fft(), &cfgs(&[FusionMode::Helios]));
        let (_, rx) = sched.submit(&fft(), &cfgs(&[FusionMode::Helios, FusionMode::NoFusion]));
        let first = sched.claim().expect("a cell");
        let second = sched.claim().expect("a cell");
        assert_eq!(key(&first), ("fft", helios()));
        assert_eq!(
            key(&second),
            ("fft", PipeConfig::from(FusionMode::NoFusion).digest())
        );
        assert_eq!(
            sched.queue().inflight[&first.key].len(),
            2,
            "claimer + waiter"
        );

        // A flight dropped before it lands (a worker unwinding) answers its
        // waiters with a failure and leaves the table.
        let running = first.key;
        drop(sched.take_off(first).expect("live claim"));
        let event = rx.try_recv().expect("the waiter is answered");
        assert_eq!(event.index, 0);
        assert!(matches!(event.outcome, CellOutcome::Failed { .. }));
        assert!(!event.from_store);
        assert!(!sched.queue().inflight.contains_key(&running));
    }

    #[test]
    fn a_cancelled_claim_runs_only_while_a_live_job_waits_on_it() {
        let sched = Sched::default();
        let (job_a, rx_a) = sched.submit(&fft(), &cfgs(&[FusionMode::Helios]));
        let both = cfgs(&[FusionMode::Helios, FusionMode::NoFusion]);
        let (job_b, rx_b) = sched.submit(&fft(), &both);
        let first = sched.claim().expect("a cell");
        let second = sched.claim().expect("a cell");

        // Job A is cancelled, but job B waits on its cell: it still runs,
        // and B reads the outcome as a cache hit.
        sched.cancel(&job_a);
        assert!(!sched.take_off(first).expect("B waits on it").run());
        let event = rx_b.try_recv().expect("the waiter is answered");
        assert_eq!(event.index, 0, "fft/Helios is B's first cell");
        assert!(matches!(event.outcome, CellOutcome::Ok(_)));
        assert!(event.from_store, "a waiter's success is a cache hit");
        let own = rx_a.try_recv().expect("the runner's job is answered too");
        assert!(!own.from_store, "the runner's job simulated it");
        assert_eq!(sched.counts(), (1, 1), "(simulated, cached)");

        // Job B is cancelled and nobody waits on its other cell: skipped.
        sched.cancel(&job_b);
        assert!(sched.take_off(second).is_none());
        assert!(sched.queue().inflight.is_empty());
        assert!(rx_b.try_recv().is_err());
        assert_eq!(sched.counts().0, 1);
    }

    #[test]
    fn a_trace_lives_until_its_last_cell_including_cancelled_ones() {
        let sched = Sched::default();
        let modes = [FusionMode::NoFusion, FusionMode::Helios, FusionMode::CsfSbr];
        let (job, rx) = sched.submit(&fft(), &cfgs(&modes));
        assert_eq!(sched.run_next(), Some(true), "the first cell simulates");
        let trace = TraceStore::digest(&fft()[0].program);
        let outstanding = || sched.traces().get(&trace).map(|s| s.1);
        assert_eq!(outstanding(), Some(2));
        assert!(sched.traces()[&trace].0.get().is_some(), "recorded once");

        // A claimed cell skipped by the cancel and the dropped queued cell
        // both release the trace.
        let claim = sched.claim().expect("a cell");
        sched.cancel(&job);
        assert_eq!(outstanding(), Some(1));
        assert!(sched.take_off(claim).is_none());
        assert_eq!(outstanding(), None, "the trace is freed");
        sched.stop();
        assert_eq!(sched.run_next(), None, "stopped and drained");
        assert_eq!(rx.iter().count(), 1, "only the run cell reported");
    }

    #[test]
    fn stop_refuses_new_jobs_and_closes_every_channel() {
        let sched = Sched::default();
        let (_, rx) = sched.submit(&fft(), &cfgs(&[FusionMode::Helios]));
        sched.stop();
        assert!(rx.recv().is_err(), "the queued job was dropped");
        let (_, late) = sched.submit(&fft(), &cfgs(&[FusionMode::Helios]));
        assert!(late.recv().is_err(), "a job after stop is refused");
        assert_eq!(sched.run_next(), None);
        assert!(sched.traces().is_empty());
    }
}
