//! Per-stage cycle-attribution profiling for the pipeline hot path.
//!
//! The 10×-the-cycle-loop work (DESIGN.md §15) needs to know *where* the
//! simulator spends its wall-clock before rewriting anything. This module
//! attributes wall-clock time to each pipeline stage per simulated cycle,
//! and counts how often the event-driven gates in [`crate::Pipeline::cycle`]
//! skipped a quiescent stage outright.
//!
//! Profiling is opt-in via the `HELIOS_PROFILE=1` environment variable
//! (the figure binaries' `--profile` flag sets it): with it unset, the
//! pipeline carries a `None` and the hot path pays one branch per cycle —
//! the same zero-cost-when-off contract as the observer. With it set, each
//! stage is bracketed by monotonic-clock reads; per-pipeline totals are
//! folded into a process-global aggregate when the run finalizes, so a
//! multi-threaded sweep produces one combined attribution table
//! (`results/profile.json`).

use std::sync::Mutex;
use std::sync::OnceLock;
use std::time::Instant;

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
    /// observer occupancy sampling.
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

/// Per-pipeline stage accounting (wall-clock ns, entered count, skip count).
#[derive(Clone, Debug, Default)]
pub struct StageProfile {
    ns: [u64; STAGE_COUNT],
    runs: [u64; STAGE_COUNT],
    skips: [u64; STAGE_COUNT],
    cycles: u64,
}

impl StageProfile {
    /// Fresh, zeroed accounting.
    pub fn new() -> StageProfile {
        StageProfile::default()
    }

    /// Starts a cycle.
    #[inline]
    pub fn cycle(&mut self) {
        self.cycles += 1;
    }

    /// Attributes the time since `t0` to `stage`.
    #[inline]
    pub fn add(&mut self, stage: Stage, t0: Instant) {
        let i = stage as usize;
        self.ns[i] += t0.elapsed().as_nanos() as u64;
        self.runs[i] += 1;
    }

    /// Records that `stage` was skipped by its quiescence gate this cycle.
    #[inline]
    pub fn skip(&mut self, stage: Stage) {
        self.skips[stage as usize] += 1;
    }

    /// Records `cycles` idle cycles the run loop jumped over: each counts
    /// as a cycle in which every stage was skipped, so per-stage
    /// `runs + skips` still equals the cycle count. `uch_drain` is false
    /// for non-predictive modes, whose cycles never touch that stage.
    pub fn idle(&mut self, cycles: u64, uch_drain: bool) {
        self.cycles += cycles;
        for (i, skips) in self.skips.iter_mut().enumerate() {
            if uch_drain || i != Stage::UchDrain as usize {
                *skips += cycles;
            }
        }
    }
}

/// Process-global aggregate across every profiled pipeline run.
static GLOBAL: Mutex<StageProfile> = Mutex::new(StageProfile {
    ns: [0; STAGE_COUNT],
    runs: [0; STAGE_COUNT],
    skips: [0; STAGE_COUNT],
    cycles: 0,
});

/// Whether profiling was requested for this process (`HELIOS_PROFILE=1`).
/// Read once; the figure binaries' `--profile` flag sets the variable before
/// any pipeline is built.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var("HELIOS_PROFILE").is_ok_and(|v| v == "1"))
}

/// Folds one pipeline's accounting into the process-global aggregate.
pub fn global_add(p: &StageProfile) {
    let mut g = GLOBAL.lock().unwrap();
    for i in 0..STAGE_COUNT {
        g.ns[i] += p.ns[i];
        g.runs[i] += p.runs[i];
        g.skips[i] += p.skips[i];
    }
    g.cycles += p.cycles;
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
    let mut g = GLOBAL.lock().unwrap();
    if g.cycles == 0 {
        return None;
    }
    let snap = ProfileSnapshot {
        stages: (0..STAGE_COUNT)
            .map(|i| StageRow {
                stage: STAGE_NAMES[i],
                ns: g.ns[i],
                runs: g.runs[i],
                skips: g.skips[i],
            })
            .collect(),
        cycles: g.cycles,
    };
    *g = StageProfile::default();
    Some(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_aggregate() {
        let mut p = StageProfile::new();
        p.cycle();
        let t0 = Instant::now();
        p.add(Stage::Issue, t0);
        p.skip(Stage::DrainStores);
        assert_eq!(p.runs[Stage::Issue as usize], 1);
        assert_eq!(p.skips[Stage::DrainStores as usize], 1);
        global_add(&p);
        let snap = take_global().expect("cycles recorded");
        assert_eq!(snap.cycles, 1);
        let issue = snap.stages.iter().find(|s| s.stage == "issue").unwrap();
        assert_eq!(issue.runs, 1);
        // Taking drains the aggregate.
        assert!(take_global().is_none());
    }

    #[test]
    fn idle_cycles_skip_every_stage() {
        let mut p = StageProfile::new();
        p.idle(5, false);
        p.idle(3, true);
        assert_eq!(p.cycles, 8);
        for (i, &skips) in p.skips.iter().enumerate() {
            let want = if i == Stage::UchDrain as usize { 3 } else { 8 };
            assert_eq!(skips, want, "{}", STAGE_NAMES[i]);
        }
        assert_eq!(p.runs, [0; STAGE_COUNT]);
    }
}
