//! The cycle-level out-of-order pipeline.
//!
//! A trace-driven model of the seven-stage machine of Table II:
//! Fetch → Decode (+fusion) → Allocation Queue → Rename → Dispatch →
//! Issue/Execute → Commit, with ROB/IQ/LQ/SQ/PRF resources, TAGE branch
//! prediction, store-set memory-dependence prediction, a three-level data
//! cache, TSO store draining, and the complete Helios fusion machinery.
//!
//! Stage implementations live in sibling modules (`frontend`, `rename`,
//! `execute`, `commit`); this module owns the state, the main loop, and
//! flush/repair handling.

use crate::error::{DeadlockReport, SimError};
use crate::fault::FaultInjector;
use crate::obs::{ObsOpts, Observer, StatsRegistry};
use crate::probe::Probe;
use crate::profile::{Stage, StageProfile};
use crate::{
    AqEntry, BranchPredictor, DynUop, Hierarchy, PipeConfig, SimStats, StoreSets, TraceWindow,
};
use helios_core::{FusionPredictor, RepairCase, Uch, UchQueue};
use helios_emu::{MemAccess, UopSource};
use helios_isa::Reg;
use std::collections::VecDeque;

/// Number of sequence slots tracked by the completion board. Must exceed the
/// maximum number of µ-ops in flight (ROB + AQ + widths) by a wide margin.
pub(crate) const BOARD_SLOTS: usize = 8192;

/// Execution-completion scoreboard indexed by trace sequence number.
#[derive(Clone, Debug)]
pub(crate) struct CompletionBoard {
    ring: Vec<(u64, u64)>, // (seq + 1, complete_cycle); 0 = empty
}

impl CompletionBoard {
    fn new() -> CompletionBoard {
        CompletionBoard {
            ring: vec![(0, 0); BOARD_SLOTS],
        }
    }

    /// Records `seq` as completing at `cycle`. `live_floor` is the oldest
    /// sequence number still in flight (`committed_upto`): a slot holding a
    /// *younger* seq is live, and silently overwriting it would corrupt a
    /// different µ-op's wakeup — that means BOARD_SLOTS is too small for the
    /// in-flight window.
    #[inline]
    pub(crate) fn set(&mut self, seq: u64, cycle: u64, live_floor: u64) {
        let slot = &mut self.ring[(seq as usize) % BOARD_SLOTS];
        debug_assert!(
            slot.0 == 0 || slot.0 == seq + 1 || slot.0 - 1 < live_floor,
            "completion board collision: seq {seq} would overwrite live seq {} \
             (live floor {live_floor}); BOARD_SLOTS too small",
            slot.0 - 1,
        );
        *slot = (seq + 1, cycle);
    }

    #[inline]
    pub(crate) fn get(&self, seq: u64) -> Option<u64> {
        let (s, c) = self.ring[(seq as usize) % BOARD_SLOTS];
        (s == seq + 1).then_some(c)
    }

    #[inline]
    pub(crate) fn clear(&mut self, seq: u64) {
        let slot = &mut self.ring[(seq as usize) % BOARD_SLOTS];
        if slot.0 == seq + 1 {
            *slot = (0, 0);
        }
    }
}

/// Reorder-buffer entry (owns the in-flight µ-op).
///
/// Per-µ-op *execution* state (issued, completion cycle, readiness) is
/// deliberately not stored here: the hot-path consumers read it from the
/// struct-of-arrays side — the dense ready bitset for the boolean and the
/// [`CompletionBoard`] for the exact cycle — so wakeup and commit never
/// touch these cache-line-sized entries.
#[derive(Clone, Debug)]
pub(crate) struct RobEntry {
    pub uop: DynUop,
    /// This µ-op's IQ slot while it waits to issue (`NO_IQ_SLOT` once
    /// issued); the seq→IQ lookup is `rob_index` + this field, both O(1).
    pub iq_slot: u32,
    /// Physical registers allocated (freed at commit or flush).
    pub phys_allocated: usize,
    /// Rename undo log: (dest arch reg, previous RAT mapping). At most two
    /// records — head and fused-tail destination — stored inline so
    /// dispatch performs no heap allocation; `undo_len` is the live count.
    pub undo: [(Reg, Option<u64>); 2],
    pub undo_len: u8,
    /// Whether this µ-op was fetched with a branch misprediction.
    pub mispredicted: bool,
    pub conditional: bool,
    pub indirect: bool,
}

/// Issue-queue entry, held in a stable slot of `iq_slots`.
///
/// Wakeup is event-driven: instead of source lists that Issue re-polls every
/// cycle, the entry carries *counts* of outstanding (not-yet-complete)
/// producers, decremented by [`Pipeline::wake_consumers`] when a producer's
/// completion fires. Stores split into address generation (STA) and data
/// (STD) µ-phases: `pending_addr` gates STA (and everything for non-stores),
/// `pending_data` gates STD.
#[derive(Clone, Debug)]
pub(crate) struct IqEntry {
    pub seq: u64,
    /// Dispatch token (globally unique, never reused): wakeup registrations
    /// name `(slot, token)` so a registration left by a squashed µ-op cannot
    /// wake the slot's next occupant.
    pub token: u64,
    pub fu: crate::FuClass,
    /// Outstanding address-side producers (STA gate; all sources for
    /// non-stores).
    pub pending_addr: u32,
    /// Outstanding store-data producers (STD gate; 0 for non-stores).
    pub pending_data: u32,
    /// Whether the STA phase has issued.
    pub sta_done: bool,
    /// NCS Ready bit: pending NCSF'd µ-ops may not issue (§IV-B2).
    pub ncs_ready: bool,
    /// Store-set dependence: store sequence to wait for.
    pub memdep_wait: Option<u64>,
}

impl IqEntry {
    /// Whether the entry's *active phase* has all producers complete (and is
    /// NCS Ready): exactly the entries the select loop should look at. A
    /// store's active phase is STA until `sta_done`, then STD; `pending_data`
    /// is deliberately ignored for non-stores (only stores have an STD
    /// phase).
    #[inline]
    pub(crate) fn wakeup_ready(&self) -> bool {
        let pending = if self.fu == crate::FuClass::Store && self.sta_done {
            self.pending_data
        } else {
            self.pending_addr
        };
        self.ncs_ready && pending == 0
    }
}

/// A wakeup registration: when the producer it is filed under completes,
/// decrement one pending count of the IQ entry at `slot` — if `token` still
/// matches (the entry has not been squashed and the slot reoccupied).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Waiter {
    pub token: u64,
    pub slot: u32,
    /// Which count to decrement: STD data side (`true`) or address side.
    pub is_data: bool,
}

/// Load-queue entry.
#[derive(Clone, Debug)]
pub(crate) struct LqEntry {
    pub seq: u64,
    pub pc: u64,
    pub acc: MemAccess,
    pub acc2: Option<MemAccess>,
    pub issue_cycle: Option<u64>,
}

/// Store-queue entry. Entries become *senior* at commit and drain to the L1D
/// in order (TSO).
#[derive(Clone, Debug)]
pub(crate) struct SqEntry {
    pub seq: u64,
    pub pc: u64,
    pub acc: MemAccess,
    pub acc2: Option<MemAccess>,
    /// Cycle the store's address generation completed (STLF eligibility).
    pub addr_known_at: Option<u64>,
    pub senior: bool,
    /// In-progress drain completion cycle.
    pub draining_until: Option<u64>,
}

/// A scheduled pipeline flush (applied when `at_cycle` is reached).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingFlush {
    pub at_cycle: u64,
    /// First squashed sequence number (fetch restarts here).
    pub restart: u64,
    pub kind: FlushKind,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FlushKind {
    /// Memory-order violation (store-set trained).
    MemOrder,
    /// Fused pair whose accesses span more than the fusion region (§IV-C
    /// case 5); the head at `restart - 1` is unfused.
    FusionSpan,
}

/// Deferred store-set violation check at store-execution completion.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StoreCheck {
    pub at_cycle: u64,
    pub store_seq: u64,
}

/// Undo record for a tail-nucleus RAT update performed at its Rename.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TailUndo {
    pub tail_seq: u64,
    pub reg: Reg,
    pub prev: Option<u64>,
}

/// A run of provably idle cycles, `now + 1 ..= until` (see
/// `Pipeline::idle_stretch`).
struct IdleStretch {
    /// Last idle cycle: the clock jumps here.
    until: u64,
    /// Fetch is stalled on a redirect (counted per cycle); otherwise it is
    /// idle behind a full AQ.
    fetch_stalled: bool,
    /// The resource Rename/Dispatch is blocked on each cycle; `None` means
    /// the AQ is empty.
    dispatch: Option<crate::rename::AllocBlock>,
}

/// The pipeline simulator.
///
/// Drive it with [`Pipeline::try_run`] or [`Pipeline::try_run_deadline`]
/// (or [`Pipeline::cycle`] for fine-grained, one-cycle-at-a-time control)
/// and read the results from [`Pipeline::stats`].
pub struct Pipeline<I> {
    pub(crate) cfg: PipeConfig,
    pub(crate) window: TraceWindow<I>,
    pub(crate) now: u64,

    // Frontend.
    pub(crate) bp: BranchPredictor,
    /// Unresolved mispredicted control µ-op the frontend waits on.
    pub(crate) redirect_wait: Option<u64>,
    /// Cycle fetch may resume after a redirect or flush.
    pub(crate) resume_at: u64,
    pub(crate) aq: VecDeque<AqEntry>,

    // Fusion machinery.
    pub(crate) fp: FusionPredictor,
    pub(crate) uch: Uch,
    /// Post-commit decoupling queue feeding the UCH (§IV-A1).
    pub(crate) uch_queue: UchQueue,
    /// Original-sequence position the UCH commit number is synced to.
    pub(crate) uch_seq: u64,
    pub(crate) commit_ghr: u64,
    pub(crate) active_pending_ncsf: usize,

    // Rename.
    pub(crate) rat: [Option<u64>; 32],
    pub(crate) free_phys: usize,
    pub(crate) tail_undos: Vec<TailUndo>,

    // Backend.
    pub(crate) rob: VecDeque<RobEntry>,
    /// Issue queue as a slot map: entries occupy stable slots so removal is
    /// O(1) and nothing re-scans the blocked majority. `iq_ready` (sorted by
    /// `(seq, slot)`) holds exactly the entries whose active phase is
    /// wakeup-ready — the select loop walks only those, oldest first.
    pub(crate) iq_slots: Vec<Option<IqEntry>>,
    /// Free-slot stack for `iq_slots`.
    pub(crate) iq_free: Vec<u32>,
    /// Occupied IQ slots (capacity/occupancy accounting).
    pub(crate) iq_len: usize,
    /// Wakeup-ready IQ entries, sorted ascending by `(seq, slot)`.
    pub(crate) iq_ready: Vec<(u64, u32)>,
    /// Wakeup registrations filed under the producer's board slot
    /// (`seq % BOARD_SLOTS`), drained when that producer's completion fires.
    /// Stale registrations (squashed consumers) are rejected by token.
    pub(crate) iq_waiters: Vec<Vec<Waiter>>,
    /// Next dispatch token (monotonic, never rewound by flushes).
    pub(crate) iq_token: u64,
    pub(crate) lq: VecDeque<LqEntry>,
    pub(crate) sq: VecDeque<SqEntry>,
    pub(crate) board: CompletionBoard,
    /// Dense wakeup bitset over the board's sequence slots: bit set ⇔ the
    /// slot's µ-op has completed by the current cycle. 1 KiB total, so the
    /// per-source readiness test in Issue is a cached word load instead of a
    /// probe into the 128 KiB board ring.
    pub(crate) ready_bits: Vec<u64>,
    /// Pending wakeup events: `Reverse((complete_cycle, seq))`, drained at
    /// the top of each cycle into `ready_bits`. Events are validated against
    /// the board when they fire, so events for squashed µ-ops are inert.
    pub(crate) ready_events: std::collections::BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
    /// seq → absolute ROB position ring (tag = seq + 1), making `rob_index`
    /// a base-offset computation instead of a binary search.
    pub(crate) rob_pos: Vec<(u64, u64)>,
    /// Absolute position of `rob[0]` (advances at commit).
    pub(crate) rob_abs_base: u64,
    /// Absolute position one past `rob.back()` (advances at dispatch,
    /// retreats at flush).
    pub(crate) rob_abs_head: u64,
    pub(crate) committed_upto: u64,
    /// One past the youngest absorbed tail whose extended commit group has
    /// retired; flush restarts never reach below this (§IV-B3 atomicity).
    pub(crate) atomic_commit_floor: u64,
    pub(crate) div_busy_until: u64,
    pub(crate) store_sets: StoreSets,
    pub(crate) mem: Hierarchy,
    pub(crate) pending_flushes: Vec<PendingFlush>,
    pub(crate) store_checks: Vec<StoreCheck>,
    /// Last cycle Rename/Dispatch moved at least one µ-op (deadlock watchdog).
    pub(crate) last_dispatch_progress: u64,

    /// Deterministic fault injector (`attach_faults`; `None` costs one
    /// branch per cycle).
    pub(crate) fault: Option<FaultInjector>,
    /// Read-only instruments on the event stream: the lockstep checker
    /// (`attach_checker`), the event observer (`attach_observer`) and the
    /// stage profiler (`attach_profiler`). Empty costs one branch per hook
    /// site — the zero-cost-when-off contract.
    pub(crate) probes: Vec<Box<dyn Probe>>,

    // Scratch buffers reused across cycles so the per-cycle and per-flush
    // paths stay allocation-free in steady state.
    pub(crate) scratch_checks: Vec<StoreCheck>,
    pub(crate) scratch_undos: Vec<(u64, Reg, Option<u64>)>,
    pub(crate) scratch_repairs: Vec<(usize, RepairCase, Option<helios_core::PredMeta>)>,

    pub(crate) stats: SimStats,
}

impl<I: UopSource> Pipeline<I> {
    /// Builds a pipeline over a retired-µ-op source.
    pub fn new(cfg: PipeConfig, source: I) -> Pipeline<I> {
        Pipeline {
            window: TraceWindow::new(source),
            now: 0,
            bp: BranchPredictor::new(),
            redirect_wait: None,
            resume_at: 0,
            aq: VecDeque::with_capacity(cfg.aq_size),
            fp: FusionPredictor::new(cfg.helios.fp),
            uch: Uch::new(cfg.helios.uch),
            uch_queue: UchQueue::new(cfg.helios.uch_queue),
            uch_seq: 0,
            commit_ghr: 0,
            active_pending_ncsf: 0,
            rat: [None; 32],
            free_phys: cfg.free_phys_regs(),
            tail_undos: Vec::new(),
            rob: VecDeque::with_capacity(cfg.rob_size),
            iq_slots: (0..cfg.iq_size).map(|_| None).collect(),
            iq_free: (0..cfg.iq_size as u32).rev().collect(),
            iq_len: 0,
            iq_ready: Vec::with_capacity(cfg.iq_size),
            iq_waiters: (0..BOARD_SLOTS).map(|_| Vec::new()).collect(),
            iq_token: 0,
            lq: VecDeque::with_capacity(cfg.lq_size),
            sq: VecDeque::with_capacity(cfg.sq_size),
            board: CompletionBoard::new(),
            ready_bits: vec![0; BOARD_SLOTS / 64],
            ready_events: std::collections::BinaryHeap::with_capacity(cfg.rob_size),
            rob_pos: vec![(0, 0); BOARD_SLOTS],
            rob_abs_base: 0,
            rob_abs_head: 0,
            committed_upto: 0,
            atomic_commit_floor: 0,
            div_busy_until: 0,
            store_sets: StoreSets::new(),
            mem: Hierarchy::new(&cfg),
            pending_flushes: Vec::new(),
            store_checks: Vec::new(),
            last_dispatch_progress: 0,
            fault: None,
            probes: Vec::new(),
            scratch_checks: Vec::new(),
            scratch_undos: Vec::new(),
            scratch_repairs: Vec::new(),
            stats: SimStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipeConfig {
        &self.cfg
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Attaches a per-µ-op event observer (no-op when `opts.enabled` is
    /// false). Replaces any previously attached observer.
    pub fn attach_observer(&mut self, opts: ObsOpts) {
        self.detach_probe::<Observer>();
        if opts.enabled {
            self.attach_probe(Observer::new(opts));
        }
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&Observer> {
        self.probe()
    }

    /// Detaches and returns the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<Observer>> {
        self.detach_probe()
    }

    /// The self-describing registry view of the statistics collected so far,
    /// including the attached observer's counters and histograms.
    pub fn registry(&self) -> StatsRegistry {
        let mut reg = self.stats.registry();
        if let Some(o) = self.observer() {
            o.export(&mut reg);
        }
        reg
    }

    /// Current cycle.
    pub fn cycle_count(&self) -> u64 {
        self.now
    }

    /// Whether all work has drained.
    pub fn finished(&mut self) -> bool {
        self.window.at_end()
            && self.aq.is_empty()
            && self.rob.is_empty()
            && self.sq.is_empty()
    }

    /// Simulates one cycle.
    pub fn cycle(&mut self) {
        if self.probe::<StageProfile>().is_some() {
            self.cycle_impl::<true>();
        } else {
            self.cycle_impl::<false>();
        }
    }

    /// The cycle body, compiled twice: `TIMED = false` is the production
    /// hot path; `TIMED = true` brackets each stage with monotonic-clock
    /// reads and reports the time to the probes (the attached
    /// [`StageProfile`]).
    ///
    /// Quiescent stages are skipped, not entered (event-driven skipping).
    /// Each gate below replicates the stage's own first-line early-out —
    /// including its side effects (`last_dispatch_progress` for
    /// Rename/Dispatch) — so skipping is timing- and statistics-neutral by
    /// construction.
    fn cycle_impl<const TIMED: bool>(&mut self) {
        self.now += 1;
        if self
            .ready_events
            .peek()
            .is_some_and(|&std::cmp::Reverse((c, _))| c <= self.now)
        {
            self.stage::<TIMED>(Stage::Wakeup, Self::drain_ready_events);
        }
        // Without a completed ROB front nothing can retire, `committed_upto`
        // cannot advance, and the trace-window release below it is done.
        if self
            .rob
            .front()
            .is_some_and(|e| self.ready_bit(e.uop.seq))
        {
            self.stage::<TIMED>(Stage::Commit, Self::stage_commit);
        }
        if self.cfg.fusion.predictive() && !self.uch_queue.is_empty() {
            // Drain the post-commit decoupling queue into the UCH at its
            // port rate, training the fusion predictor on discovered pairs.
            self.stage::<TIMED>(Stage::UchDrain, |p| {
                let fp = &mut p.fp;
                p.uch_queue
                    .drain_cycle(&mut p.uch, &mut p.uch_seq, |pc, ghr, d| fp.train(pc, ghr, d))
            });
        }
        if self.sq.front().is_some_and(|s| s.senior) {
            self.stage::<TIMED>(Stage::DrainStores, Self::stage_drain_stores);
        }
        if !self.store_checks.is_empty() {
            self.stage::<TIMED>(Stage::StoreChecks, Self::process_store_checks);
        }
        if !self.pending_flushes.is_empty() {
            self.stage::<TIMED>(Stage::Flushes, Self::process_pending_flushes);
        }
        // With no IQ entry wakeup-ready the select loop would walk an empty
        // list. Blocked entries wake via their producers' completion
        // events, never by being re-polled here.
        if !self.iq_ready.is_empty() {
            self.stage::<TIMED>(Stage::Issue, Self::stage_issue);
        }
        if self.aq.is_empty() {
            // An empty AQ is Rename/Dispatch progress for the dispatch
            // watchdog, exactly as in `stage_rename_dispatch`.
            self.last_dispatch_progress = self.now;
        } else {
            self.stage::<TIMED>(Stage::RenameDispatch, Self::stage_rename_dispatch);
        }
        self.stage::<TIMED>(Stage::FetchDecode, Self::stage_fetch_decode);
        self.stage::<TIMED>(Stage::Misc, |p| {
            p.break_resource_deadlock();
            if p.fault.is_some() {
                p.apply_cycle_faults();
            }
            p.end_cycles(1);
        });
    }

    /// Runs one pipeline stage; with `TIMED`, reports its wall-clock time
    /// to the probes.
    #[inline(always)]
    fn stage<const TIMED: bool>(&mut self, stage: Stage, run: impl FnOnce(&mut Self)) {
        if !TIMED {
            return run(self);
        }
        let t0 = std::time::Instant::now();
        run(self);
        let ns = t0.elapsed().as_nanos() as u64;
        self.emit(|p, _| p.stage_ran(stage, ns));
    }

    /// Cycles Dispatch may starve before the deadlock breaker fires.
    const DEADLOCK_WINDOW: u64 = 64;

    /// Deadlock breaker: a *pending* NCSF'd µ-op cannot issue until its tail
    /// nucleus reaches Rename, but the tail's progress may itself require
    /// resources (LQ/SQ/IQ entries) that only free once the pending µ-op's
    /// dependants commit. When Dispatch starves for a long window while a
    /// pending head is in flight, unfuse the oldest pending pair in place
    /// (repair case 2 machinery) and revive its tail marker.
    ///
    /// The ROB scan only runs while the census says a pending head exists
    /// (`active_pending_ncsf > 0`; the lockstep checker asserts the census
    /// equals the scan).
    fn break_resource_deadlock(&mut self) {
        if self.active_pending_ncsf == 0
            || self.now - self.last_dispatch_progress <= Self::DEADLOCK_WINDOW
        {
            return;
        }
        let Some(i) = self
            .rob
            .iter()
            .position(|e| e.uop.is_pending_ncsf())
        else {
            return;
        };
        let fused = self.rob[i].uop.fused;
        if let Some(f) = fused {
            self.revive_tail_marker(&f);
            let pred = f.pred;
            self.unfuse_rob_entry(i, RepairCase::Deadlock);
            if let Some(meta) = pred {
                self.fp.resolve(&meta, false);
            }
            self.active_pending_ncsf = self.active_pending_ncsf.saturating_sub(1);
            self.last_dispatch_progress = self.now;
            self.stats.deadlock_breaks += 1;
        }
    }

    /// Runs until the trace drains or `max_cycles` elapse, reporting every
    /// abnormal outcome as a structured [`SimError`]:
    ///
    /// * [`SimError::Deadlock`] — commit made no progress for
    ///   [`PipeConfig::watchdog_cycles`] consecutive cycles (a simulator
    ///   bug, never a workload property); carries a pipeline snapshot.
    /// * [`SimError::CycleLimit`] — the trace did not drain in budget.
    /// * [`SimError::InvariantViolation`] — a lockstep check failed (only
    ///   with a checker attached via [`Pipeline::attach_checker`]).
    ///
    /// Statistics are finalized on every exit path, so partial results
    /// remain readable from [`Pipeline::stats`] after an error.
    pub fn try_run(&mut self, max_cycles: u64) -> Result<&SimStats, SimError> {
        self.try_run_deadline(max_cycles, None)
    }

    /// How many cycles elapse between wall-clock deadline checks in
    /// [`Pipeline::try_run_deadline`]. A power of two so the check is a
    /// mask; large enough that `Instant::now` never shows up in a profile,
    /// small enough that an expired deadline is noticed within microseconds.
    const DEADLINE_CHECK_PERIOD: u64 = 4096;

    /// [`Pipeline::try_run`] with an optional wall-clock deadline on top of
    /// the cycle budget. The deadline is polled every
    /// [`Self::DEADLINE_CHECK_PERIOD`] cycles (and once before the first
    /// cycle, so an already-expired deadline returns immediately); when it
    /// passes, the run stops with [`SimError::WallClockTimeout`]. Statistics
    /// are finalized on every exit path, exactly as for `try_run`.
    pub fn try_run_deadline(
        &mut self,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> Result<&SimStats, SimError> {
        let started = deadline.map(|_| std::time::Instant::now());
        let mut last_commit = (self.now, self.stats.instructions);
        let mut next_check = self.now;
        while !self.finished() && self.now < max_cycles {
            if let (Some(dl), Some(t0)) = (deadline, started) {
                if self.now >= next_check {
                    next_check = self.now + Self::DEADLINE_CHECK_PERIOD;
                    let now = std::time::Instant::now();
                    if now >= dl {
                        self.finalize_stats();
                        return Err(SimError::WallClockTimeout {
                            limit_ms: dl.saturating_duration_since(t0).as_millis() as u64,
                            cycles: self.now,
                            committed: self.stats.instructions,
                        });
                    }
                }
            }
            let limit = max_cycles.min(last_commit.0.saturating_add(self.cfg.watchdog_cycles));
            match self.idle_stretch(limit) {
                Some(idle) => self.skip_idle(idle),
                None => self.cycle(),
            }
            if let Some(err) = self.verify_cycle() {
                self.finalize_stats();
                return Err(err);
            }
            if self.stats.instructions != last_commit.1 {
                last_commit = (self.now, self.stats.instructions);
            } else if self.now - last_commit.0 >= self.cfg.watchdog_cycles {
                self.finalize_stats();
                return Err(SimError::Deadlock(Box::new(
                    self.deadlock_report(last_commit.0),
                )));
            }
        }
        self.finalize_stats();
        if !self.finished() {
            return Err(SimError::CycleLimit {
                max_cycles,
                committed: self.stats.instructions,
            });
        }
        if let Some(err) = self.verify_finish() {
            return Err(err);
        }
        Ok(&self.stats)
    }

    /// Idle-cycle skipping: whether the next cycle is provably idle — every
    /// stage gate in [`Pipeline::cycle`] would skip, and Fetch/Decode and
    /// Misc would change nothing but per-cycle counters — and if so, how
    /// far the idle stretch reaches. Nothing can change until the horizon:
    /// the earliest due wakeup event, senior-store drain end, store check,
    /// flush, fetch resume, deadlock-breaker trigger or periodic fault,
    /// capped by `limit` (the cycle budget or watchdog cycle), all of which
    /// are stepped by `cycle()` as usual. The stretch also stops on the
    /// probes' next due cycle (the checker's next scan), so the run loop
    /// sees the pipeline there.
    fn idle_stretch(&self, limit: u64) -> Option<IdleStretch> {
        let t = self.now + 1;
        if !self.iq_ready.is_empty()
            || self.rob.front().is_some_and(|e| self.ready_bit(e.uop.seq))
            || (self.cfg.fusion.predictive() && !self.uch_queue.is_empty())
        {
            return None;
        }
        let mut horizon = limit;
        let dispatch = if self.aq.is_empty() {
            None
        } else {
            if self.active_pending_ncsf > 0 {
                // With the AQ occupied, a blocked dispatch stops advancing
                // `last_dispatch_progress`, so the breaker's window runs out.
                horizon = horizon.min(self.last_dispatch_progress + Self::DEADLOCK_WINDOW + 1);
            }
            Some(self.dispatch_blocked()?)
        };
        let fetch_stalled = match self.redirect_wait {
            Some(seq) if self.board.get(seq).is_some() => return None,
            Some(_) => true,
            None if t < self.resume_at => {
                horizon = horizon.min(self.resume_at);
                true
            }
            None if self.aq.len() < self.cfg.aq_size => return None,
            None => false,
        };
        if let Some(&std::cmp::Reverse((c, _))) = self.ready_events.peek() {
            horizon = horizon.min(c);
        }
        if let Some(s) = self.sq.front().filter(|s| s.senior) {
            // A senior head not yet draining starts this cycle.
            horizon = horizon.min(s.draining_until?);
        }
        for c in &self.store_checks {
            horizon = horizon.min(c.at_cycle);
        }
        for f in &self.pending_flushes {
            horizon = horizon.min(f.at_cycle);
        }
        if let Some(inj) = &self.fault {
            horizon = horizon.min(inj.next_period_due(self.now));
        }
        let due = self.probes.iter().map(|p| p.next_due(self.now)).min();
        let until = horizon.saturating_sub(1).min(due.unwrap_or(u64::MAX));
        (until >= t).then_some(IdleStretch {
            until,
            fetch_stalled,
            dispatch,
        })
    }

    /// Jumps the clock over an idle stretch, charging each skipped cycle
    /// exactly what `cycle()` would have: the fetch-redirect stall, the
    /// blocked dispatch's stall (or, with the AQ empty, dispatch progress),
    /// and one end-of-cycles event covering the whole stretch for the
    /// probes.
    fn skip_idle(&mut self, idle: IdleStretch) {
        let cycles = idle.until - self.now;
        self.now = idle.until;
        if idle.fetch_stalled {
            self.stats.fetch_stall_redirect += cycles;
        }
        match idle.dispatch {
            Some(b) => self.charge_alloc_stall(b, cycles),
            None => self.last_dispatch_progress = self.now,
        }
        self.end_cycles(cycles);
    }

    /// Snapshot of the stuck pipeline for the watchdog report.
    fn deadlock_report(&self, last_commit_cycle: u64) -> DeadlockReport {
        let rob_front = self.rob.front().map(|e| {
            format!(
                "seq {} inst {:?} complete_at {:?} fused {:?}",
                e.uop.seq,
                e.uop.inst,
                self.board.get(e.uop.seq),
                e.uop.fused.map(|f| (f.tail_seq, f.pending)),
            )
        });
        let mut iq_entries: Vec<&IqEntry> =
            self.iq_slots.iter().flatten().collect();
        iq_entries.sort_by_key(|e| e.seq);
        let iq_head: Vec<String> = iq_entries
            .iter()
            .take(4)
            .map(|e| {
                format!(
                    "seq {} fu {:?} ncs_ready {} pending_addr {} \
                     pending_data {} sta_done {} memdep {:?}",
                    e.seq,
                    e.fu,
                    e.ncs_ready,
                    e.pending_addr,
                    e.pending_data,
                    e.sta_done,
                    e.memdep_wait
                )
            })
            .collect();
        DeadlockReport {
            cycle: self.now,
            committed: self.stats.instructions,
            last_commit_cycle,
            rob: self.rob.len(),
            aq: self.aq.len(),
            iq: self.iq_len,
            pending_ncsf: self.active_pending_ncsf,
            rob_front,
            iq_head,
            flushes: format!("{:?}", self.pending_flushes),
        }
    }

    /// Folds end-of-run counters (cycles, UCH queue, cache misses) into
    /// `stats`. Idempotent; called on every `try_run` exit path.
    fn finalize_stats(&mut self) {
        self.stats.cycles = self.now;
        self.stats.uch_queue_dropped = self.uch_queue.dropped;
        self.stats.uch_queue_drained = self.uch_queue.drained;
        let (l1m, l2m, l3m) = self.mem.miss_counts();
        self.stats.l1d_accesses = self.mem.l1_accesses();
        self.stats.l1d_misses = l1m;
        self.stats.l2_misses = l2m;
        self.stats.l3_misses = l3m;
        if let Some(c) = self.probe::<crate::OracleChecker>() {
            self.stats.oracle_checked = c.checked();
        }
    }

    // ---- shared helpers -------------------------------------------------

    /// Index of the ROB entry holding `seq`, if present: a base-offset
    /// computation over the seq→absolute-position ring (O(1), no search).
    pub(crate) fn rob_index(&self, seq: u64) -> Option<usize> {
        let (tag, pos) = self.rob_pos[(seq as usize) % BOARD_SLOTS];
        if tag == seq + 1 && pos >= self.rob_abs_base && pos < self.rob_abs_head {
            let i = (pos - self.rob_abs_base) as usize;
            debug_assert_eq!(self.rob[i].uop.seq, seq);
            Some(i)
        } else {
            None
        }
    }

    /// Tests the dense wakeup bit for `seq` (see `ready_bits`).
    #[inline]
    pub(crate) fn ready_bit(&self, seq: u64) -> bool {
        let i = (seq as usize) % BOARD_SLOTS;
        self.ready_bits[i / 64] >> (i % 64) & 1 != 0
    }

    #[inline]
    pub(crate) fn set_ready_bit(&mut self, seq: u64) {
        let i = (seq as usize) % BOARD_SLOTS;
        self.ready_bits[i / 64] |= 1 << (i % 64);
    }

    /// Clears `seq`'s wakeup bit. Called at Dispatch so a stale bit left by
    /// a long-retired (or squashed) µ-op sharing the slot cannot leak into
    /// the new occupant's readiness.
    #[inline]
    pub(crate) fn clear_ready_bit(&mut self, seq: u64) {
        let i = (seq as usize) % BOARD_SLOTS;
        self.ready_bits[i / 64] &= !(1 << (i % 64));
    }

    /// Records `seq` completing execution at `complete`: the board keeps the
    /// exact cycle (redirect resolution, STLF data-readiness), and the
    /// wakeup bit is scheduled — immediately for a zero-latency completion,
    /// via the event heap otherwise.
    #[inline]
    pub(crate) fn record_completion(&mut self, seq: u64, complete: u64) {
        self.board.set(seq, complete, self.committed_upto);
        if complete <= self.now {
            self.set_ready_bit(seq);
            self.wake_consumers(seq);
        } else {
            self.ready_events
                .push(std::cmp::Reverse((complete, seq)));
        }
    }

    /// Drains due wakeup events into the ready bitset. Each event is
    /// validated against the board when it fires: an event whose µ-op was
    /// squashed (board cleared) or re-issued to a different cycle sets
    /// nothing — only the event matching the live completion does.
    pub(crate) fn drain_ready_events(&mut self) {
        while let Some(&std::cmp::Reverse((c, seq))) = self.ready_events.peek() {
            if c > self.now {
                break;
            }
            self.ready_events.pop();
            if self.board.get(seq).is_some_and(|cc| cc <= self.now) {
                self.set_ready_bit(seq);
                self.wake_consumers(seq);
            }
        }
    }

    /// Whether the producer `seq` has completed by `cycle`.
    ///
    /// The hot path answers from the dense wakeup bitset, which is only
    /// synchronized to the current cycle — so `cycle` must be `self.now`
    /// (every caller's actual argument; asserted in debug builds).
    #[inline]
    pub(crate) fn producer_ready(&self, seq: u64, cycle: u64) -> bool {
        debug_assert_eq!(cycle, self.now);
        seq < self.committed_upto || self.ready_bit(seq)
    }

    /// Index of the SQ entry holding `seq`, if present (binary search; the
    /// SQ is seq-sorted).
    pub(crate) fn sq_index(&self, seq: u64) -> Option<usize> {
        let (a, b) = self.sq.as_slices();
        match a.binary_search_by_key(&seq, |s| s.seq) {
            Ok(i) => Some(i),
            Err(_) => b
                .binary_search_by_key(&seq, |s| s.seq)
                .ok()
                .map(|i| a.len() + i),
        }
    }

    /// Index of the LQ entry holding `seq`, if present (binary search; the
    /// LQ is seq-sorted).
    pub(crate) fn lq_index(&self, seq: u64) -> Option<usize> {
        let (a, b) = self.lq.as_slices();
        match a.binary_search_by_key(&seq, |l| l.seq) {
            Ok(i) => Some(i),
            Err(_) => b
                .binary_search_by_key(&seq, |l| l.seq)
                .ok()
                .map(|i| a.len() + i),
        }
    }

    /// Sentinel for [`RobEntry::iq_slot`]: the µ-op has no IQ entry
    /// (already issued).
    pub(crate) const NO_IQ_SLOT: u32 = u32::MAX;

    /// IQ slot of the in-flight µ-op `seq`, if it has not issued yet.
    pub(crate) fn iq_slot_of(&self, seq: u64) -> Option<u32> {
        let ri = self.rob_index(seq)?;
        let slot = self.rob[ri].iq_slot;
        if slot == Self::NO_IQ_SLOT {
            return None;
        }
        debug_assert_eq!(
            self.iq_slots[slot as usize].as_ref().map(|e| e.seq),
            Some(seq)
        );
        Some(slot)
    }

    /// Inserts `(seq, slot)` into the sorted ready list (idempotent).
    pub(crate) fn iq_ready_insert(&mut self, seq: u64, slot: u32) {
        if let Err(i) = self.iq_ready.binary_search(&(seq, slot)) {
            self.iq_ready.insert(i, (seq, slot));
        }
    }

    /// Removes `(seq, slot)` from the sorted ready list if present.
    pub(crate) fn iq_ready_remove(&mut self, seq: u64, slot: u32) {
        if let Ok(i) = self.iq_ready.binary_search(&(seq, slot)) {
            self.iq_ready.remove(i);
        }
    }

    /// Delivers the completion of `producer` to its registered IQ consumers:
    /// each live registration (token match) decrements the named pending
    /// count, and entries whose active phase just became ready enter the
    /// ready list. Registrations are consumed exactly once — the list is
    /// drained — and stale ones (squashed consumers) are inert by token.
    pub(crate) fn wake_consumers(&mut self, producer: u64) {
        let bucket = (producer as usize) % BOARD_SLOTS;
        if self.iq_waiters[bucket].is_empty() {
            return;
        }
        // Take the list to release the borrow; put it back to keep its
        // capacity (steady state stays allocation-free).
        let mut list = std::mem::take(&mut self.iq_waiters[bucket]);
        for w in list.drain(..) {
            let Some(e) = self.iq_slots[w.slot as usize].as_mut() else {
                continue;
            };
            if e.token != w.token {
                continue;
            }
            if w.is_data {
                e.pending_data -= 1;
            } else {
                e.pending_addr -= 1;
            }
            if e.wakeup_ready() {
                let seq = e.seq;
                self.iq_ready_insert(seq, w.slot);
            }
        }
        self.iq_waiters[bucket] = list;
    }

    /// Whether the store `seq`'s address is known by `cycle` (STA done or
    /// the store already left the pipeline).
    pub(crate) fn store_addr_known(&self, seq: u64, cycle: u64) -> bool {
        if seq < self.committed_upto {
            return true;
        }
        match self.sq_index(seq) {
            Some(i) => {
                let s = &self.sq[i];
                s.senior || s.addr_known_at.is_some_and(|t| t <= cycle)
            }
            None => true, // squashed or drained
        }
    }

    /// Schedules a flush, keeping the list small and coherent.
    pub(crate) fn schedule_flush(&mut self, f: PendingFlush) {
        self.pending_flushes.push(f);
    }

    fn process_pending_flushes(&mut self) {
        loop {
            // Earliest due flush; ties broken toward the oldest restart.
            let due = self
                .pending_flushes
                .iter()
                .enumerate()
                .filter(|(_, f)| f.at_cycle <= self.now)
                .min_by_key(|(_, f)| (f.at_cycle, f.restart))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let f = self.pending_flushes.swap_remove(i);
            // Stale? (an earlier flush already squashed past this point)
            if f.restart >= self.window.cursor() {
                continue;
            }
            if !self.flush_from(f.restart, f.kind) {
                continue;
            }
            match f.kind {
                FlushKind::MemOrder => self.stats.memdep_flushes += 1,
                FlushKind::FusionSpan => self.stats.fusion_flushes += 1,
            }
        }
    }

    fn process_store_checks(&mut self) {
        if self.store_checks.is_empty() {
            return;
        }
        // Split due checks into the reusable scratch buffer (order-preserving,
        // like the `partition` this replaces) instead of allocating two fresh
        // vectors every cycle.
        let now = self.now;
        let mut due = std::mem::take(&mut self.scratch_checks);
        due.clear();
        self.store_checks.retain(|c| {
            if c.at_cycle <= now {
                due.push(*c);
                false
            } else {
                true
            }
        });
        for c in &due {
            self.check_violation(c.store_seq);
        }
        self.scratch_checks = due;
    }

    /// Memory-order violation scan when store `store_seq` finishes address
    /// generation: any younger load that already issued and overlaps must be
    /// squashed and re-executed.
    fn check_violation(&mut self, store_seq: u64) {
        let Some(si) = self.sq_index(store_seq) else {
            return;
        };
        let store = &self.sq[si];
        let (s_acc, s_acc2) = (store.acc, store.acc2);
        let s_done = store.addr_known_at.unwrap_or(self.now);
        let store_pc = store.pc;
        let mut victim: Option<(u64, u64)> = None; // (seq, pc)
        for l in &self.lq {
            if l.seq <= store_seq {
                continue;
            }
            let Some(issue) = l.issue_cycle else { continue };
            if issue >= s_done {
                continue; // issued after the store's address was known
            }
            let overlaps = |a: &MemAccess| {
                a.overlaps(&s_acc) || s_acc2.as_ref().is_some_and(|b| a.overlaps(b))
            };
            if (overlaps(&l.acc) || l.acc2.as_ref().is_some_and(overlaps))
                && victim.is_none_or(|(vs, _)| l.seq < vs)
            {
                victim = Some((l.seq, l.pc));
            }
        }
        if let Some((load_seq, load_pc)) = victim {
            self.store_sets.train_violation(load_pc, store_pc);
            if self.flush_from(load_seq, FlushKind::MemOrder) {
                self.stats.memdep_flushes += 1;
            }
        }
    }

    /// Squashes everything with `seq >= restart` and restarts fetch there.
    ///
    /// Returns `false` when the flush was vacuous: extended commit groups
    /// retire atomically (§IV-B3), so once a fused head has committed, its
    /// absorbed tail is architecturally retired even though `committed_upto`
    /// has not yet passed the intervening µ-ops. A restart at or below such
    /// a tail would re-fetch — and double-commit — it, so the restart is
    /// clamped past the youngest committed group first.
    pub(crate) fn flush_from(&mut self, restart: u64, kind: FlushKind) -> bool {
        let restart = restart.max(self.atomic_commit_floor);
        if restart >= self.window.cursor() {
            return false; // nothing at or past the clamped restart in flight
        }
        debug_assert!(restart >= self.committed_upto);
        self.emit(|p, now| p.squashed(restart, now));

        // Collect rename-undo records from squashed ROB entries and from
        // tail-nucleus RAT updates, then apply them youngest-first.
        let mut undos = std::mem::take(&mut self.scratch_undos);
        undos.clear();

        while self.rob.back().is_some_and(|e| e.uop.seq >= restart) {
            let Some(e) = self.rob.pop_back() else { break };
            // Reverse within the entry so that same-register double
            // destinations (e.g. lui+addi pairs) unwind correctly under the
            // stable sort below.
            for &(reg, prev) in e.undo[..e.undo_len as usize].iter().rev() {
                undos.push((e.uop.seq, reg, prev));
            }
            self.free_phys += e.phys_allocated;
            self.board.clear(e.uop.seq);
            self.clear_ready_bit(e.uop.seq);
        }
        // Squashed positions are gone; re-dispatched µ-ops re-register.
        self.rob_abs_head = self.rob_abs_base + self.rob.len() as u64;
        self.tail_undos.retain(|t| {
            if t.tail_seq >= restart {
                undos.push((t.tail_seq, t.reg, t.prev));
                false
            } else {
                true
            }
        });
        undos.sort_by_key(|&(seq, _, _)| std::cmp::Reverse(seq));
        for &(_, reg, prev) in &undos {
            self.rat[reg.index()] = prev;
        }
        self.scratch_undos = undos;

        // Squash IQ entries at or past the restart: free their slots and cut
        // the (sorted) ready list's suffix. Wakeup registrations they left
        // behind stay in `iq_waiters` — they are inert, rejected by token.
        for slot in 0..self.iq_slots.len() {
            if self.iq_slots[slot].as_ref().is_some_and(|e| e.seq >= restart) {
                self.iq_slots[slot] = None;
                self.iq_free.push(slot as u32);
                self.iq_len -= 1;
            }
        }
        let cut = self.iq_ready.partition_point(|&(s, _)| s < restart);
        self.iq_ready.truncate(cut);
        self.lq.retain(|e| e.seq < restart);
        self.sq.retain(|e| e.senior || e.seq < restart);
        self.aq.retain(|e| e.seq() < restart);

        // Unfuse any surviving fused head whose tail was squashed: the tail
        // will be re-fetched as a normal µ-op (§IV-C cases 5–7).
        let mut repairs = std::mem::take(&mut self.scratch_repairs);
        repairs.clear();
        // (The span-mismatch head itself has seq >= restart and was popped
        // above; survivors losing their tail are catalyst-flush repairs.)
        let _ = kind;
        for (i, e) in self.rob.iter().enumerate() {
            if let Some(f) = &e.uop.fused {
                if f.tail_seq >= restart {
                    repairs.push((i, RepairCase::CatalystFlush, f.pred));
                }
            }
        }
        for &(i, case, pred) in &repairs {
            self.unfuse_rob_entry(i, case);
            if let Some(meta) = pred {
                self.fp.resolve(&meta, false);
            }
        }
        self.scratch_repairs = repairs;
        // Also unfuse AQ heads whose tail marker got squashed.
        for e in self.aq.iter_mut() {
            if let AqEntry::Uop(u) = e {
                if let Some(f) = &u.fused {
                    if f.tail_seq >= restart {
                        let (pred, tail_seq) = (f.pred, f.tail_seq);
                        u.unfuse();
                        self.stats.fusion.record_repair(RepairCase::CatalystFlush);
                        let head = u.seq;
                        for p in &mut self.probes {
                            p.unfused(head, tail_seq);
                        }
                        if let Some(meta) = pred {
                            self.fp.resolve(&meta, false);
                        }
                    }
                }
            }
        }

        // Recompute the nesting census. Only renamed (in-ROB) pending heads
        // count: an AQ head that survived the flush has not incremented the
        // counter yet and will do so at its own Rename — including it here
        // would double-count and falsely saturate the Max Active NCS limit.
        self.active_pending_ncsf = self
            .rob
            .iter()
            .filter(|e| e.uop.is_pending_ncsf())
            .count();

        self.store_sets.flush_inflight();
        self.store_checks.retain(|c| c.store_seq < restart);
        self.pending_flushes.retain(|f| f.restart < restart);

        self.window.rewind(restart);
        self.resume_at = self.now + self.cfg.branch_redirect_penalty;
        if self.redirect_wait.is_some_and(|s| s >= restart) {
            self.redirect_wait = None;
        }
        true
    }

    /// Unfuses the ROB entry at `i` (in-place repair): reverts it to the
    /// plain head µ-op, releases the tail's resources, and records `case`.
    ///
    /// The squashed tail re-enters the pipeline via refetch (flush cases) or
    /// via a fresh dispatch (rename-time unfuse, handled by the caller).
    pub(crate) fn unfuse_rob_entry(&mut self, i: usize, case: RepairCase) {
        let seq = self.rob[i].uop.seq;
        let Some(f) = self.rob[i].uop.unfuse() else {
            return;
        };
        self.emit(|p, _| p.unfused(seq, f.tail_seq));
        // Free the tail's destination register if one was allocated.
        if f.tail_inst.rd().is_some() {
            // Head allocation counted head + tail dests.
            if self.rob[i].phys_allocated > 0 {
                let head_dests = self.rob[i].uop.inst.rd().map_or(0, |_| 1);
                if self.rob[i].phys_allocated > head_dests {
                    self.rob[i].phys_allocated -= 1;
                    self.free_phys += 1;
                }
            }
        }
        // The pending pair could not have issued; make the head issuable.
        if let Some(slot) = self.iq_slot_of(seq) {
            let e = self.iq_slots[slot as usize].as_mut().expect("live IQ slot");
            e.ncs_ready = true;
            if e.wakeup_ready() {
                self.iq_ready_insert(seq, slot);
            }
        }
        // Drop the second access from LQ/SQ.
        if let Some(i) = self.lq_index(seq) {
            self.lq[i].acc2 = None;
        }
        if let Some(i) = self.sq_index(seq) {
            self.sq[i].acc2 = None;
        }
        self.stats.fusion.record_repair(case);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_board_roundtrip_and_clear() {
        let mut b = CompletionBoard::new();
        b.set(5, 100, 0);
        assert_eq!(b.get(5), Some(100));
        assert_eq!(b.get(6), None);
        b.clear(5);
        assert_eq!(b.get(5), None);
        // Re-setting the same seq is always fine.
        b.set(5, 100, 0);
        b.set(5, 120, 0);
        assert_eq!(b.get(5), Some(120));
    }

    #[test]
    fn completion_board_allows_retired_overwrite() {
        let mut b = CompletionBoard::new();
        b.set(3, 10, 0);
        // Same ring slot, but seq 3 has retired (live floor above it): the
        // slot is dead and may be recycled.
        b.set(3 + BOARD_SLOTS as u64, 999, 4);
        assert_eq!(b.get(3 + BOARD_SLOTS as u64), Some(999));
        assert_eq!(b.get(3), None, "old seq no longer matches the slot");
    }

    /// A strided sweep over a buffer far larger than the caches keeps the
    /// core waiting on memory: most of its cycles must fall inside idle
    /// stretches the run loop can jump over, and the jump must reproduce
    /// the stepped run's statistics.
    #[test]
    fn memory_bound_loop_is_mostly_skippable() {
        use helios_isa::{Asm, Reg};
        let mut a = Asm::new();
        let buf = a.zeros(8 << 20, 64);
        a.la(Reg::S0, buf);
        a.li(Reg::S1, 1500);
        a.li(Reg::T0, 4160);
        let top = a.here();
        a.ld(Reg::A0, 0, Reg::S0);
        a.add(Reg::A1, Reg::A1, Reg::A0);
        a.add(Reg::S0, Reg::S0, Reg::T0);
        a.addi(Reg::S1, Reg::S1, -1);
        a.bnez(Reg::S1, top);
        a.halt();
        let prog = a.assemble().expect("assembles");
        let cfg = PipeConfig::with_fusion(helios_core::FusionMode::NoFusion);

        let mut step = Pipeline::new(cfg, helios_emu::RetireStream::new(prog.clone(), 1 << 20));
        let mut idle = 0u64;
        while !step.finished() {
            if step.idle_stretch(u64::MAX).is_some() {
                idle += 1;
            }
            step.cycle();
        }
        let cycles = step.cycle_count();
        assert!(idle * 2 > cycles, "only {idle} of {cycles} cycles idle");

        let stepped = step.try_run(u64::MAX).expect("drained").to_kv();
        let mut skip = Pipeline::new(cfg, helios_emu::RetireStream::new(prog, 1 << 20));
        assert_eq!(skip.try_run(u64::MAX).expect("runs").to_kv(), stepped);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert only")]
    #[should_panic(expected = "completion board collision")]
    fn completion_board_rejects_live_overwrite() {
        let mut b = CompletionBoard::new();
        b.set(3, 10, 0);
        // Same slot, different seq, and seq 3 is still in flight.
        b.set(3 + BOARD_SLOTS as u64, 999, 0);
    }
}
