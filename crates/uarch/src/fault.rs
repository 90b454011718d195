//! Deterministic fault injection for the Helios repair paths.
//!
//! The fusion machinery's correctness story rests on its repair cases
//! (§IV-C): whatever the predictor or the catalyst scan got wrong, the
//! pipeline must recover to the architectural instruction stream. Those
//! paths are rare under normal workloads, so this module manufactures the
//! conditions that exercise them:
//!
//! * **Prediction suppression** (`suppress_prediction`) — randomly drops
//!   fusion-predictor hits, modelling a flipped predictor decision. The
//!   affected pairs execute unfused; downstream training/repair bookkeeping
//!   must stay consistent.
//! * **Hazard corruption** (`corrupt_hazards`) — randomly sets catalyst
//!   hazard bits on freshly-marked pairs, forcing the in-place repairs
//!   (RawSourceFix / Deadlock / Serializing / StoreInCatalyst) to fire for
//!   pairs that did not need them.
//! * **UCH eviction** (`uch_evict_period`) — periodically clears the UCH
//!   mid-flight, modelling capacity pressure on the contiguity history.
//! * **Spurious flushes** (`spurious_flush_period`) — periodically squashes
//!   from a random in-flight sequence number, driving the flush repairs
//!   (CatalystFlush) and the atomic-commit-floor clamping.
//!
//! Injection is fully deterministic from [`FaultConfig::seed`], so a failing
//! soak run reproduces exactly. Faults only perturb *microarchitectural*
//! decisions — the trace-driven model still consumes the emulator's
//! architectural stream — so a lockstep [`crate::OracleChecker`] remains
//! valid (and is the point: faults + checker = repair-path verification).

use crate::pipeline::{FlushKind, Pipeline};
use crate::uop::CatalystHazards;
use helios_emu::UopSource;
use helios_prng::{Rng, SeedableRng, StdRng};

/// What to inject, and how often. All mechanisms default to *off*; enable
/// them individually or use the presets.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// PRNG seed; identical configs replay identical fault sequences.
    pub seed: u64,
    /// Probability that a fusion-predictor hit is dropped.
    pub suppress_prediction: f64,
    /// Probability that a freshly-marked pair gets a random catalyst hazard
    /// bit forced on.
    pub corrupt_hazards: f64,
    /// Clear the UCH every this many cycles (0 = off).
    pub uch_evict_period: u64,
    /// Flush from a random in-flight sequence number every this many cycles
    /// (0 = off).
    pub spurious_flush_period: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            suppress_prediction: 0.0,
            corrupt_hazards: 0.0,
            uch_evict_period: 0,
            spurious_flush_period: 0,
        }
    }
}

impl FaultConfig {
    /// Drop half of all fusion predictions.
    pub fn suppress(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            suppress_prediction: 0.5,
            ..FaultConfig::default()
        }
    }

    /// Force a random hazard bit on half of all predicted pairs.
    pub fn corrupt(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            corrupt_hazards: 0.5,
            ..FaultConfig::default()
        }
    }

    /// Clear the UCH every 1024 cycles.
    pub fn evict(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            uch_evict_period: 1024,
            ..FaultConfig::default()
        }
    }

    /// Flush from a random in-flight µ-op every 2048 cycles.
    pub fn flush(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            spurious_flush_period: 2048,
            ..FaultConfig::default()
        }
    }

    /// Everything at once.
    pub fn chaos(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            suppress_prediction: 0.25,
            corrupt_hazards: 0.25,
            uch_evict_period: 1024,
            spurious_flush_period: 2048,
        }
    }

    /// The named fault modes exercised by the soak harness.
    pub fn modes(seed: u64) -> Vec<(&'static str, FaultConfig)> {
        vec![
            ("suppress", FaultConfig::suppress(seed)),
            ("corrupt", FaultConfig::corrupt(seed)),
            ("evict", FaultConfig::evict(seed)),
            ("flush", FaultConfig::flush(seed)),
            ("chaos", FaultConfig::chaos(seed)),
        ]
    }
}

/// A fault injected into one *sweep cell* (a whole `(workload, config)`
/// simulation) by [`CellChaos`] — the sweep-level analogue of the
/// µ-architectural faults above, used to verify that the resilient sweep
/// executor isolates a bad cell instead of aborting the campaign.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellFault {
    /// The cell panics before simulating (models an unhandled model bug).
    Panic,
    /// The cell's wall-clock deadline is forced to be already expired
    /// (models a hung or pathologically slow cell), so the real
    /// `try_run_deadline` timeout path fires.
    Timeout,
}

impl CellFault {
    fn parse(s: &str) -> Result<CellFault, String> {
        match s {
            "panic" => Ok(CellFault::Panic),
            "timeout" => Ok(CellFault::Timeout),
            other => Err(format!("unknown cell fault `{other}` (want panic|timeout)")),
        }
    }
}

/// Deterministic sweep-cell fault selection: either an explicit list of
/// `(workload, mode)` cells, or a seeded random subset. The decision for a
/// cell depends only on `(seed, workload, mode)` — never on execution order
/// or worker count — so a chaos sweep is reproducible and a checker can
/// recompute exactly which cells were sabotaged.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CellChaos {
    /// Explicit `(workload, mode-name, fault)` triples.
    explicit: Vec<(String, String, CellFault)>,
    /// Seed for the rate-based subset (used when `explicit` is empty).
    seed: u64,
    /// Probability a cell panics.
    panic_rate: f64,
    /// Probability a cell times out (evaluated after the panic roll).
    timeout_rate: f64,
}

impl CellChaos {
    /// Explicit sabotage of the named cells.
    pub fn cells(cells: Vec<(String, String, CellFault)>) -> CellChaos {
        CellChaos {
            explicit: cells,
            ..CellChaos::default()
        }
    }

    /// Seeded random sabotage: each cell independently panics with
    /// probability `panic_rate`, else times out with `timeout_rate`.
    pub fn seeded(seed: u64, panic_rate: f64, timeout_rate: f64) -> CellChaos {
        CellChaos {
            explicit: Vec::new(),
            seed,
            panic_rate,
            timeout_rate,
        }
    }

    /// Parses a chaos spec (the `HELIOS_SWEEP_CHAOS` format):
    ///
    /// * explicit — `workload/mode=panic` triples, comma-separated, e.g.
    ///   `bitcount/Helios=panic,fft/NoFusion=timeout`;
    /// * seeded — `seed=7,panic=0.1,timeout=0.05` (omitted rates are 0).
    ///
    /// # Errors
    ///
    /// A human-readable description of the malformed item.
    pub fn parse(spec: &str) -> Result<CellChaos, String> {
        let items: Vec<&str> = spec.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        if items.is_empty() {
            return Err("empty chaos spec".into());
        }
        let seeded = items
            .iter()
            .all(|i| ["seed=", "panic=", "timeout="].iter().any(|p| i.starts_with(p)));
        if seeded {
            let mut c = CellChaos::seeded(0, 0.0, 0.0);
            for item in items {
                let (k, v) = item.split_once('=').expect("checked above");
                match k {
                    "seed" => c.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?,
                    "panic" => c.panic_rate = parse_rate(v)?,
                    "timeout" => c.timeout_rate = parse_rate(v)?,
                    _ => unreachable!(),
                }
            }
            return Ok(c);
        }
        let mut cells = Vec::new();
        for item in items {
            let (cell, fault) = item
                .split_once('=')
                .ok_or_else(|| format!("expected `workload/mode=fault`, got `{item}`"))?;
            let (workload, mode) = cell
                .split_once('/')
                .ok_or_else(|| format!("expected `workload/mode`, got `{cell}`"))?;
            cells.push((workload.to_string(), mode.to_string(), CellFault::parse(fault)?));
        }
        Ok(CellChaos::cells(cells))
    }

    /// The fault (if any) this chaos configuration injects into the
    /// `(workload, mode)` cell. Pure function of the configuration and the
    /// cell identity.
    pub fn fault_for(&self, workload: &str, mode: &str) -> Option<CellFault> {
        if !self.explicit.is_empty() {
            return self
                .explicit
                .iter()
                .find(|(w, m, _)| w == workload && m == mode)
                .map(|&(_, _, f)| f);
        }
        if self.panic_rate <= 0.0 && self.timeout_rate <= 0.0 {
            return None;
        }
        // Cell-identity hash (FNV-1a) → per-cell PRNG, so the decision is
        // independent of sweep order and worker count.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.seed;
        for b in workload.bytes().chain([0u8]).chain(mode.bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut rng = StdRng::seed_from_u64(h);
        if self.panic_rate > 0.0 && rng.gen_bool(self.panic_rate) {
            return Some(CellFault::Panic);
        }
        if self.timeout_rate > 0.0 && rng.gen_bool(self.timeout_rate) {
            return Some(CellFault::Timeout);
        }
        None
    }
}

fn parse_rate(v: &str) -> Result<f64, String> {
    let r: f64 = v.parse().map_err(|_| format!("bad rate `{v}`"))?;
    if (0.0..=1.0).contains(&r) {
        Ok(r)
    } else {
        Err(format!("rate `{v}` outside [0, 1]"))
    }
}

/// Seeded injector attached to a [`Pipeline`] via
/// [`Pipeline::attach_faults`].
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xfa_017_1a1),
            cfg,
        }
    }

    /// Whether to drop this fusion-predictor hit.
    pub(crate) fn suppress_prediction(&mut self) -> bool {
        self.cfg.suppress_prediction > 0.0 && self.rng.gen_bool(self.cfg.suppress_prediction)
    }

    /// Maybe force a random catalyst hazard bit on. Returns whether a fault
    /// was injected.
    pub(crate) fn corrupt_hazards(&mut self, hz: &mut CatalystHazards) -> bool {
        if self.cfg.corrupt_hazards <= 0.0 || !self.rng.gen_bool(self.cfg.corrupt_hazards) {
            return false;
        }
        // `call` stays honest: it aborts marking entirely rather than
        // driving a repair, so corrupting it would test nothing.
        match self.rng.gen_range(0..4u32) {
            0 => hz.deadlock = true,
            1 => hz.serializing = true,
            2 => hz.store_in_catalyst = true,
            _ => hz.raw_dep = true,
        }
        true
    }

    fn period_due(period: u64, now: u64) -> bool {
        period != 0 && now.is_multiple_of(period)
    }

    pub(crate) fn uch_evict_due(&self, now: u64) -> bool {
        Self::period_due(self.cfg.uch_evict_period, now)
    }

    pub(crate) fn spurious_flush_due(&self, now: u64) -> bool {
        Self::period_due(self.cfg.spurious_flush_period, now)
    }

    /// The first cycle after `now` on which a periodic fault is due
    /// (`u64::MAX` when no period is configured).
    pub(crate) fn next_period_due(&self, now: u64) -> u64 {
        [self.cfg.uch_evict_period, self.cfg.spurious_flush_period]
            .into_iter()
            .filter(|&p| p != 0)
            .map(|p| (now / p + 1) * p)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// A random restart point in `[lo, hi)`.
    pub(crate) fn pick_restart(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..hi)
    }
}

impl<I: UopSource> Pipeline<I> {
    /// Attaches a deterministic fault injector. Faults perturb only
    /// microarchitectural decisions (fusion marking, UCH contents, flush
    /// timing); the committed instruction stream must remain identical, so
    /// an attached [`crate::OracleChecker`] stays valid under injection.
    pub fn attach_faults(&mut self, cfg: FaultConfig) {
        self.fault = Some(FaultInjector::new(cfg));
    }

    /// End-of-cycle fault hook: periodic UCH eviction and spurious flushes.
    pub(crate) fn apply_cycle_faults(&mut self) {
        let Some(mut inj) = self.fault.take() else {
            return;
        };
        if inj.uch_evict_due(self.now) {
            self.uch.clear();
            self.stats.injected_faults += 1;
        }
        if inj.spurious_flush_due(self.now) {
            let lo = self.committed_upto.max(self.atomic_commit_floor);
            let hi = self.window.cursor();
            if lo < hi {
                let restart = inj.pick_restart(lo, hi);
                if self.flush_from(restart, FlushKind::MemOrder) {
                    self.stats.injected_faults += 1;
                }
            }
        }
        self.fault = Some(inj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_chaos_parses_explicit_and_seeded_specs() {
        let c = CellChaos::parse("bitcount/Helios=panic, fft/NoFusion=timeout").unwrap();
        assert_eq!(c.fault_for("bitcount", "Helios"), Some(CellFault::Panic));
        assert_eq!(c.fault_for("fft", "NoFusion"), Some(CellFault::Timeout));
        assert_eq!(c.fault_for("bitcount", "NoFusion"), None);
        assert_eq!(c.fault_for("susan", "Helios"), None);

        let s = CellChaos::parse("seed=7,panic=0.5,timeout=0.25").unwrap();
        let cells: Vec<(String, String)> = (0..64)
            .map(|i| (format!("w{i}"), format!("m{}", i % 3)))
            .collect();
        let hit = |chaos: &CellChaos| -> Vec<Option<CellFault>> {
            cells.iter().map(|(w, m)| chaos.fault_for(w, m)).collect()
        };
        let first = hit(&s);
        // Order-independent and repeatable: re-querying in reverse agrees.
        let mut rev: Vec<Option<CellFault>> =
            cells.iter().rev().map(|(w, m)| s.fault_for(w, m)).collect();
        rev.reverse();
        assert_eq!(first, rev);
        let panics = first.iter().filter(|f| **f == Some(CellFault::Panic)).count();
        let timeouts = first.iter().filter(|f| **f == Some(CellFault::Timeout)).count();
        assert!(panics > 10, "p=0.5 over 64 cells panicked only {panics}");
        assert!(timeouts > 1, "p=0.25 of the remainder timed out only {timeouts}");
        // A different seed picks a different subset.
        let other = CellChaos::parse("seed=8,panic=0.5,timeout=0.25").unwrap();
        assert_ne!(first, hit(&other));

        // Malformed specs are rejected with a reason, not a panic.
        assert!(CellChaos::parse("").is_err());
        assert!(CellChaos::parse("bitcount=panic").is_err());
        assert!(CellChaos::parse("a/b=explode").is_err());
        assert!(CellChaos::parse("seed=x").is_err());
        assert!(CellChaos::parse("panic=1.5").is_err());
    }

    #[test]
    fn injector_is_deterministic() {
        let mut a = FaultInjector::new(FaultConfig::chaos(7));
        let mut b = FaultInjector::new(FaultConfig::chaos(7));
        for _ in 0..256 {
            assert_eq!(a.suppress_prediction(), b.suppress_prediction());
            let mut ha = CatalystHazards::default();
            let mut hb = CatalystHazards::default();
            assert_eq!(a.corrupt_hazards(&mut ha), b.corrupt_hazards(&mut hb));
            assert_eq!(ha, hb);
        }
        assert_eq!(a.pick_restart(10, 1000), b.pick_restart(10, 1000));
    }

    #[test]
    fn corruption_never_touches_call() {
        let mut inj = FaultInjector::new(FaultConfig::corrupt(3));
        let mut flipped = 0;
        for _ in 0..512 {
            let mut hz = CatalystHazards::default();
            if inj.corrupt_hazards(&mut hz) {
                flipped += 1;
                assert!(!hz.call);
                assert!(hz.deadlock || hz.serializing || hz.store_in_catalyst || hz.raw_dep);
            }
        }
        assert!(flipped > 100, "p=0.5 over 512 trials flipped only {flipped}");
    }

    #[test]
    fn periods_fire_on_schedule() {
        let inj = FaultInjector::new(FaultConfig::evict(0));
        assert!(inj.uch_evict_due(1024));
        assert!(inj.uch_evict_due(2048));
        assert!(!inj.uch_evict_due(1025));
        assert!(!inj.spurious_flush_due(2048), "flush mode is off");
        let off = FaultInjector::new(FaultConfig::default());
        assert!(!off.uch_evict_due(0) || off.cfg.uch_evict_period != 0);
    }

    #[test]
    fn next_period_due_is_the_first_due_cycle_after_now() {
        let inj = FaultInjector::new(FaultConfig::chaos(0)); // 1024 / 2048
        assert_eq!(inj.next_period_due(0), 1024);
        assert_eq!(inj.next_period_due(1023), 1024);
        assert_eq!(inj.next_period_due(1024), 2048);
        for now in [1u64, 1500, 4095, 4096, 9999] {
            let due = inj.next_period_due(now);
            assert!(due > now);
            assert!(inj.uch_evict_due(due) || inj.spurious_flush_due(due));
            assert!((now + 1..due).all(|c| !inj.uch_evict_due(c) && !inj.spurious_flush_due(c)));
        }
        let off = FaultInjector::new(FaultConfig::suppress(0));
        assert_eq!(off.next_period_due(77), u64::MAX);
    }

    #[test]
    fn modes_cover_every_mechanism() {
        let modes = FaultConfig::modes(1);
        assert!(modes.len() >= 4, "soak needs at least 4 fault modes");
        assert!(modes.iter().any(|(_, c)| c.suppress_prediction > 0.0));
        assert!(modes.iter().any(|(_, c)| c.corrupt_hazards > 0.0));
        assert!(modes.iter().any(|(_, c)| c.uch_evict_period > 0));
        assert!(modes.iter().any(|(_, c)| c.spurious_flush_period > 0));
    }
}
