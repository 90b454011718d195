//! Per-stage cycle-attribution profiling for the pipeline hot path.
//!
//! The 10×-the-cycle-loop work (DESIGN.md §15) needs to know *where* the
//! simulator spends its wall-clock before rewriting anything. This module
//! attributes wall-clock time to each pipeline stage per simulated cycle,
//! and counts how often the event-driven gates in [`crate::Pipeline::cycle`]
//! skipped a quiescent stage outright.
//!
//! A [`StageProfile`] is a probe on the pipeline's event stream, attached
//! explicitly with [`crate::Pipeline::attach_profiler`]. While one is
//! attached, the cycle loop brackets each stage it runs with
//! monotonic-clock reads; without one, the loop reads no clock. A stage not
//! run in a profiled cycle was skipped by its quiescence gate, so skips are
//! derived: cycles minus runs. The figure binaries' sweep cells attach a
//! profiler under `--profile` and fold each run into a process-global
//! aggregate ([`global_add`]), so a multi-threaded sweep produces one
//! combined attribution table (`results/profile.json`).

use crate::pipeline::Pipeline;
use crate::probe::{Occupancy, Probe};
use helios_emu::UopSource;
use std::sync::Mutex;

/// The attributed stages, in per-cycle execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Ready-event drain: completions due this cycle set wakeup bits.
    Wakeup,
    /// In-order retirement (`stage_commit`).
    Commit,
    /// Post-commit UCH decoupling-queue drain + predictor training.
    UchDrain,
    /// Senior-store TSO drain (`stage_drain_stores`).
    DrainStores,
    /// Deferred store-set violation checks (`process_store_checks`).
    StoreChecks,
    /// Scheduled pipeline flushes (`process_pending_flushes`).
    Flushes,
    /// Wakeup/select and execution start (`stage_issue`).
    Issue,
    /// Rename + Dispatch over the AQ head (`stage_rename_dispatch`).
    RenameDispatch,
    /// Fetch + Decode + fusion marking (`stage_fetch_decode`).
    FetchDecode,
    /// Everything else in the cycle: deadlock breaker, fault injection,
    /// the end-of-cycle probe event.
    Misc,
}

/// Number of attributed stages.
pub const STAGE_COUNT: usize = 10;

/// Stage display names, indexed by `Stage as usize`.
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "wakeup",
    "commit",
    "uch_drain",
    "drain_stores",
    "store_checks",
    "flushes",
    "issue",
    "rename_dispatch",
    "fetch_decode",
    "misc",
];

/// Per-pipeline stage accounting: wall-clock ns and entered count per
/// stage, and the cycles profiled.
#[derive(Clone, Debug)]
pub struct StageProfile {
    ns: [u64; STAGE_COUNT],
    runs: [u64; STAGE_COUNT],
    cycles: u64,
    /// Whether the UCH drain gate is evaluated at all: only predictive
    /// fusion modes have one, so other modes neither run nor skip it.
    uch_drain: bool,
}

impl StageProfile {
    /// Fresh, zeroed accounting; `uch_drain` as in a predictive fusion mode.
    pub fn new(uch_drain: bool) -> StageProfile {
        StageProfile {
            ns: [0; STAGE_COUNT],
            runs: [0; STAGE_COUNT],
            cycles: 0,
            uch_drain,
        }
    }

    /// This pipeline's accounting as report rows, each stage's skips
    /// derived as the cycles it was gated in minus its runs.
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            stages: (0..STAGE_COUNT)
                .map(|i| {
                    let gated = self.uch_drain || i != Stage::UchDrain as usize;
                    StageRow {
                        stage: STAGE_NAMES[i],
                        ns: self.ns[i],
                        runs: self.runs[i],
                        skips: if gated {
                            self.cycles.saturating_sub(self.runs[i])
                        } else {
                            0
                        },
                    }
                })
                .collect(),
            cycles: self.cycles,
        }
    }
}

impl Probe for StageProfile {
    fn cycles_ended(&mut self, _occ: Occupancy, cycles: u64) {
        self.cycles += cycles;
    }

    fn stage_ran(&mut self, stage: Stage, ns: u64) {
        self.ns[stage as usize] += ns;
        self.runs[stage as usize] += 1;
    }
}

impl<I: UopSource> Pipeline<I> {
    /// Attaches a per-stage profiler, replacing any attached one: from the
    /// next cycle on, every stage run is timed.
    pub fn attach_profiler(&mut self) {
        self.attach_probe(StageProfile::new(self.cfg.fusion.predictive()));
    }

    /// Detaches and returns the profiler, if any.
    pub fn take_profile(&mut self) -> Option<Box<StageProfile>> {
        self.detach_probe()
    }
}

/// Process-global aggregate across every profiled pipeline run.
static GLOBAL: Mutex<Option<ProfileSnapshot>> = Mutex::new(None);

/// Folds one pipeline's accounting into the process-global aggregate.
pub fn global_add(p: &StageProfile) {
    let snap = p.snapshot();
    let mut g = GLOBAL.lock().expect("no holder of the profile lock panics");
    let Some(g) = g.as_mut() else {
        *g = Some(snap);
        return;
    };
    for (row, add) in g.stages.iter_mut().zip(&snap.stages) {
        row.ns += add.ns;
        row.runs += add.runs;
        row.skips += add.skips;
    }
    g.cycles += snap.cycles;
}

/// One stage's aggregated numbers in a [`ProfileSnapshot`].
#[derive(Clone, Debug)]
pub struct StageRow {
    /// Stage name (one of [`STAGE_NAMES`]).
    pub stage: &'static str,
    /// Total wall-clock nanoseconds attributed.
    pub ns: u64,
    /// Cycles in which the stage body ran.
    pub runs: u64,
    /// Cycles in which the quiescence gate skipped the stage.
    pub skips: u64,
}

/// The process-global profile, snapshot for reporting.
#[derive(Clone, Debug)]
pub struct ProfileSnapshot {
    /// Per-stage totals, in execution order.
    pub stages: Vec<StageRow>,
    /// Total simulated cycles profiled.
    pub cycles: u64,
}

impl ProfileSnapshot {
    /// Total attributed nanoseconds across all stages.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }
}

/// Takes the process-global aggregate, resetting it. Returns `None` when no
/// profiled cycles were recorded (profiling off or nothing ran).
pub fn take_global() -> Option<ProfileSnapshot> {
    GLOBAL
        .lock()
        .expect("no holder of the profile lock panics")
        .take()
        .filter(|g| g.cycles > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(snap: &ProfileSnapshot, stage: Stage) -> &StageRow {
        &snap.stages[stage as usize]
    }

    #[test]
    fn skips_are_cycles_minus_runs() {
        let occ = (0, 0, 0, 0);
        for uch_drain in [false, true] {
            let mut p = StageProfile::new(uch_drain);
            p.stage_ran(Stage::Issue, 7);
            p.stage_ran(Stage::Misc, 1);
            p.cycles_ended(occ, 1);
            // An idle stretch: five cycles with every stage skipped.
            p.cycles_ended(occ, 5);
            let snap = p.snapshot();
            assert_eq!(snap.cycles, 6);
            let issue = row(&snap, Stage::Issue);
            assert_eq!((issue.ns, issue.runs, issue.skips), (7, 1, 5));
            assert_eq!(row(&snap, Stage::Commit).skips, 6);
            let uch = row(&snap, Stage::UchDrain);
            assert_eq!((uch.runs, uch.skips), (0, if uch_drain { 6 } else { 0 }));
        }
    }

    #[test]
    fn global_aggregate_sums_and_drains() {
        let mut p = StageProfile::new(true);
        p.stage_ran(Stage::Issue, 3);
        p.cycles_ended((0, 0, 0, 0), 2);
        global_add(&p);
        global_add(&p);
        let snap = take_global().expect("cycles recorded");
        assert_eq!(snap.cycles, 4);
        let issue = row(&snap, Stage::Issue);
        assert_eq!((issue.ns, issue.runs, issue.skips), (6, 2, 2));
        // Taking drains the aggregate.
        assert!(take_global().is_none());
    }
}
