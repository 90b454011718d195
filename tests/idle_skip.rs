//! Idle-cycle skipping equivalence (DESIGN.md §15).
//!
//! `Pipeline::try_run` jumps the clock over cycles in which no stage can
//! do anything, charging their per-cycle counters in bulk;
//! `Pipeline::cycle` stays the exact one-cycle step. These tests pin the
//! jump as statistic-neutral: a run stepped one `cycle()` at a time and a
//! `try_run` of the same cell agree on every `SimStats::to_kv` entry —
//! over the quick workload set in every fusion mode, on starvation-sized
//! cores (constant dispatch blocking, deadlock-breaker firings), at a
//! cycle budget that ends inside an idle stretch, at a watchdog hit,
//! under periodic fault injection, and in the observer's histograms.

use helios::{workload, FusionMode, ObsOpts, PipeConfig, SimError, SimStats, UopSource};
use helios_uarch::{FaultConfig, Pipeline};

/// The `--quick` figure subset (`helios_bench::QUICK_SET`).
const QUICK_SET: [&str; 8] = [
    "600.perlbench_1",
    "605.mcf",
    "657.xz_1",
    "657.xz_2",
    "bitcount",
    "dijkstra",
    "fft",
    "susan",
];

/// Steps `pipe` one `cycle()` at a time until it drains (or reaches
/// `max_cycles`), then lets `try_run` finalize the statistics: its loop
/// has no cycle left to run.
fn stepped<I: UopSource>(pipe: &mut Pipeline<I>, max_cycles: u64) -> Result<SimStats, SimError> {
    while !pipe.finished() && pipe.cycle_count() < max_cycles {
        pipe.cycle();
    }
    pipe.try_run(max_cycles).cloned()
}

#[test]
fn stepped_and_skipping_runs_agree_on_every_statistic() {
    let cells: Vec<(&str, FusionMode)> = QUICK_SET
        .iter()
        .flat_map(|&w| FusionMode::ALL.into_iter().map(move |m| (w, m)))
        .collect();
    // Two workers: the stepped reference runs are the slow half.
    std::thread::scope(|s| {
        for part in cells.chunks(cells.len().div_ceil(2)) {
            s.spawn(move || {
                for &(name, mode) in part {
                    let w = workload(name).expect("registered workload");
                    let fuel = w.fuel * 20;
                    let cfg = PipeConfig::with_fusion(mode);
                    let mut skip = Pipeline::new(cfg, w.stream());
                    let skipped = skip
                        .try_run(fuel)
                        .unwrap_or_else(|e| panic!("{name}/{}: {e}", mode.name()))
                        .clone();
                    let mut step = Pipeline::new(cfg, w.stream());
                    let reference = stepped(&mut step, fuel)
                        .unwrap_or_else(|e| panic!("{name}/{} stepped: {e}", mode.name()));
                    assert_eq!(skipped.to_kv(), reference.to_kv(), "{name}/{}", mode.name());
                }
            });
        }
    });
}

/// Cycle budgets taken from the middle of long commit gaps — stretches
/// where the core waits on memory — in `605.mcf`'s opening cycles.
fn mid_gap_cycles(cfg: PipeConfig, count: usize) -> Vec<u64> {
    let w = workload("605.mcf").expect("registered workload");
    let mut pipe = Pipeline::new(cfg, w.stream());
    let mut last = (0u64, 0u64);
    let mut out = Vec::new();
    while out.len() < count && !pipe.finished() && pipe.cycle_count() < 2_000_000 {
        pipe.cycle();
        let (now, committed) = (pipe.cycle_count(), pipe.stats().instructions);
        if committed != last.1 {
            if now - last.0 > 100 {
                out.push(last.0 + (now - last.0) / 2);
            }
            last = (now, committed);
        }
    }
    out
}

#[test]
fn cycle_limit_inside_an_idle_stretch_matches_the_stepped_run() {
    let cfg = PipeConfig::with_fusion(FusionMode::Helios);
    let limits = mid_gap_cycles(cfg, 6);
    assert!(!limits.is_empty(), "605.mcf never waited on memory");
    let w = workload("605.mcf").expect("registered workload");
    let mut step = Pipeline::new(cfg, w.stream());
    for &limit in &limits {
        let reference = match stepped(&mut step, limit) {
            Err(SimError::CycleLimit { committed, .. }) => (committed, step.stats().to_kv()),
            other => panic!("stepped run to {limit}: expected CycleLimit, got {other:?}"),
        };
        let mut skip = Pipeline::new(cfg, w.stream());
        match skip.try_run(limit) {
            Err(SimError::CycleLimit {
                max_cycles,
                committed,
            }) => {
                assert_eq!(max_cycles, limit);
                assert_eq!(skip.stats().cycles, limit);
                assert_eq!(
                    (committed, skip.stats().to_kv()),
                    reference,
                    "limit {limit}"
                );
            }
            other => panic!("limit {limit}: expected CycleLimit, got {other:?}"),
        }
    }
}

/// A starvation-sized core: every structure at (or near) its minimum, so
/// dispatch blocks constantly and pending NCSF pairs lean on the
/// deadlock breaker.
fn starved(fusion: FusionMode, watchdog_cycles: u64) -> PipeConfig {
    PipeConfig::builder()
        .fusion(fusion)
        .rob_size(8)
        .iq_size(4)
        .lq_size(4)
        .sq_size(2)
        .aq_size(16)
        .prf_size(48)
        .watchdog_cycles(watchdog_cycles)
        .build()
        .expect("starvation config is small but valid")
}

#[test]
fn starved_core_runs_agree_on_every_statistic() {
    for name in ["dijkstra", "fft", "657.xz_1"] {
        for mode in [FusionMode::Helios, FusionMode::OracleFusion] {
            let w = workload(name).expect("registered workload");
            let fuel = w.fuel * 200;
            let cfg = starved(mode, 100_000);
            let mut skip = Pipeline::new(cfg, w.stream());
            let skipped = skip.try_run(fuel).cloned();
            let mut step = Pipeline::new(cfg, w.stream());
            let reference = stepped(&mut step, fuel);
            assert_eq!(
                skipped
                    .as_ref()
                    .map(SimStats::to_kv)
                    .map_err(ToString::to_string),
                reference
                    .as_ref()
                    .map(SimStats::to_kv)
                    .map_err(ToString::to_string),
                "{name}/{}",
                mode.name()
            );
        }
    }
}

#[test]
fn starved_core_hits_the_watchdog_on_the_same_cycle() {
    const WATCHDOG: u64 = 150;
    let cfg = starved(FusionMode::Helios, WATCHDOG);
    let w = workload("605.mcf").expect("registered workload");

    let mut skip = Pipeline::new(cfg, w.stream());
    let report = match skip.try_run(w.fuel * 20) {
        Err(SimError::Deadlock(r)) => r,
        other => panic!("expected the {WATCHDOG}-cycle watchdog to fire, got {other:?}"),
    };

    // The watchdog as `try_run` applies it, one stepped cycle at a time.
    let mut step = Pipeline::new(cfg, w.stream());
    let mut last = (0u64, 0u64);
    loop {
        step.cycle();
        let (now, committed) = (step.cycle_count(), step.stats().instructions);
        if committed != last.1 {
            last = (now, committed);
        } else if now - last.0 >= WATCHDOG {
            break;
        }
    }
    assert_eq!(
        (report.cycle, report.last_commit_cycle, report.committed),
        (step.cycle_count(), last.0, last.1)
    );
    let fired_at = step.cycle_count();
    assert!(matches!(
        stepped(&mut step, fired_at),
        Err(SimError::CycleLimit { .. })
    ));
    assert_eq!(skip.stats().to_kv(), step.stats().to_kv());
}

#[test]
fn fault_injected_runs_agree_on_every_statistic() {
    // Periods off the checker's 256-cycle grid and off each other's.
    let faults = FaultConfig {
        seed: 11,
        uch_evict_period: 1000,
        spurious_flush_period: 1500,
        ..FaultConfig::chaos(11)
    };
    for name in ["fft", "dijkstra", "657.xz_1"] {
        let w = workload(name).expect("registered workload");
        let fuel = w.fuel * 20;
        let cfg = PipeConfig::with_fusion(FusionMode::Helios);
        let mut skip = Pipeline::new(cfg, w.stream());
        skip.attach_faults(faults);
        let skipped = skip
            .try_run(fuel)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .clone();
        assert!(skipped.injected_faults > 0, "{name}: no fault fired");
        let mut step = Pipeline::new(cfg, w.stream());
        step.attach_faults(faults);
        let reference = stepped(&mut step, fuel).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(skipped.to_kv(), reference.to_kv(), "{name}");
    }
}

#[test]
fn observer_histograms_match_the_stepped_run() {
    let w = workload("605.mcf").expect("registered workload");
    let cfg = PipeConfig::with_fusion(FusionMode::NoFusion);
    let limit = 300_000;
    let mut skip = Pipeline::new(cfg, w.stream());
    skip.attach_observer(ObsOpts::metrics());
    let mut step = Pipeline::new(cfg, w.stream());
    step.attach_observer(ObsOpts::metrics());
    let a = skip.try_run(limit).map(|s| s.cycles);
    let b = stepped(&mut step, limit).map(|s| s.cycles);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(skip.registry(), step.registry());
}
