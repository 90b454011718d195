//! Sweep-engine integration tests: recorded-replay equivalence (in-memory
//! and streamed from a trace store), parallel determinism, config-keyed
//! cells, one result store shared across figure grids, per-sweep
//! `stop_after`, and loud failure on starved recordings.

use helios::{
    run_sweep_opts, Checkpoint, FusionMode, PipeConfig, SimRequest, SweepOptions, TraceStore,
};
use helios_emu::EmuError;
use std::sync::Barrier;

/// The pipeline consumes a retired-µ-op sequence; whether it comes from a
/// live emulator (`RetireStream`), a shared in-memory recording, or an
/// HTRC2 store file streamed block-at-a-time must be invisible in every
/// statistic, for every workload, in both the baseline and the most
/// machinery-heavy configuration. The disk replays run with the lockstep
/// architectural checker attached, so any µ-op the codec reconstructed
/// wrongly diverges from a second live emulation and fails loudly.
#[test]
fn recorded_replay_matches_live_stream_for_every_workload() {
    let dir = std::env::temp_dir().join(format!("helios-sweep-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = TraceStore::open(&dir).expect("store opens");
    for w in helios::all_workloads() {
        let trace = w.trace().expect("workload halts within fuel");
        let disk = w.stored(&store).expect("store records the workload");
        for mode in [FusionMode::NoFusion, FusionMode::Helios] {
            let live = SimRequest::mode(&w, mode).run().stats;
            let replay = SimRequest::mode(&w, mode).replaying(&trace).run().stats;
            assert_eq!(
                live,
                replay,
                "{} {}: replay stats differ from live-stream stats",
                w.name,
                mode.name()
            );
            let mut streamed = SimRequest::mode(&w, mode)
                .replaying(&disk)
                .checked()
                .run()
                .stats;
            assert_eq!(
                streamed.oracle_checked, streamed.uops,
                "{} {}: lockstep checker must cover every committed µ-op",
                w.name,
                mode.name()
            );
            streamed.oracle_checked = live.oracle_checked;
            assert_eq!(
                live,
                streamed,
                "{} {}: disk-streamed replay stats differ from live-stream stats",
                w.name,
                mode.name()
            );
        }
    }
    assert_eq!(
        store.stats().quarantined,
        0,
        "no store entry went corrupt during the sweep"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jobs N` must not change a single bit of any result, nor the
/// workload-major result ordering.
#[test]
fn parallel_sweep_is_deterministic() {
    let ws: Vec<_> = ["crc32", "susan"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    let modes = [FusionMode::NoFusion, FusionMode::CsfSbr, FusionMode::Helios];
    let sweep = |jobs| {
        let opts = SweepOptions {
            jobs,
            ..Default::default()
        };
        run_sweep_opts(&ws, &modes, &opts).unwrap()
    };
    let (serial, parallel) = (sweep(1), sweep(4));
    assert!(serial.is_complete() && parallel.is_complete());
    assert_eq!(serial.results().len(), parallel.results().len());
    for (a, b) in serial.results().iter().zip(parallel.results()) {
        assert_eq!((a.workload, a.mode), (b.workload, b.mode), "ordering differs");
        assert_eq!(a.stats, b.stats, "{}/{}: stats differ", a.workload, a.mode.name());
    }
    assert_eq!(serial.workloads(), parallel.workloads());
}

/// A recording whose program cannot halt within its fuel budget must be an
/// error, never a silently truncated trace feeding wrong figures.
#[test]
fn starved_recording_fails_loudly() {
    let mut w = helios::workload("crc32").unwrap();
    w.fuel = 100;
    assert!(matches!(
        w.trace().unwrap_err(),
        EmuError::OutOfFuel { .. }
    ));
}

/// A sweep column is a full `PipeConfig`, not just a fusion mode: two
/// configs that share `FusionMode::Helios` are two distinct cells, each
/// equal to a standalone run of its config, for any worker count.
#[test]
fn cells_are_keyed_by_config_not_mode() {
    let ws: Vec<_> = ["sha", "qsort"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    let nest1 = PipeConfig::builder()
        .fusion(FusionMode::Helios)
        .tweak(|c| c.helios.max_nest = 1)
        .build()
        .unwrap();
    let cfgs = [
        PipeConfig::from(FusionMode::NoFusion),
        PipeConfig::from(FusionMode::Helios),
        nest1,
    ];
    let sweep = |jobs| {
        let opts = SweepOptions {
            jobs,
            ..Default::default()
        };
        run_sweep_opts(&ws, &cfgs, &opts).unwrap()
    };
    let (serial, parallel) = (sweep(1), sweep(3));
    assert!(serial.is_complete() && parallel.is_complete());
    assert_eq!(serial.results().len(), ws.len() * cfgs.len());
    for w in &ws {
        let paper = serial
            .get(w.name, FusionMode::Helios)
            .expect("paper-params cell");
        let nested = serial.get(w.name, nest1).expect("max_nest = 1 cell");
        assert_ne!(
            paper, nested,
            "{}: the two Helios cells are distinct",
            w.name
        );
        for cfg in cfgs {
            let alone = SimRequest::new(w, cfg).run().stats;
            assert_eq!(serial.get(w.name, cfg), Some(&alone), "{}", w.name);
        }
    }
    for (a, b) in serial.results().iter().zip(parallel.results()) {
        assert_eq!((a.workload, a.cfg), (b.workload, b.cfg), "ordering differs");
        assert_eq!(
            a.stats,
            b.stats,
            "{}/{}: stats differ",
            a.workload,
            a.mode.name()
        );
    }
}

/// Figures are views over one store: fig03's three modes are a subset of
/// fig10's six, so once fig10's grid is stored, fig03's sweep answers
/// every cell from the store and simulates none.
#[test]
fn a_figure_over_a_stored_grid_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("helios-cells-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("cells.jsonl");
    let ws: Vec<_> = ["crc32", "bitcount"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    let sweep = |modes: &[FusionMode]| {
        let opts = SweepOptions {
            jobs: 2,
            checkpoint: Some(Checkpoint {
                path: path.clone(),
                resume: true,
            }),
            ..Default::default()
        };
        run_sweep_opts(&ws, modes, &opts).unwrap()
    };
    let fig10 = sweep(&FusionMode::ALL);
    assert!(fig10.is_complete());
    assert_eq!(fig10.restored(), 0, "the store starts empty");
    let stored = std::fs::read_to_string(&path).unwrap();
    assert_eq!(stored.lines().count(), ws.len() * FusionMode::ALL.len());

    let fig03 = [
        FusionMode::NoFusion,
        FusionMode::RiscvFusionPlusPlus,
        FusionMode::CsfSbr,
    ];
    let view = sweep(&fig03);
    assert!(view.is_complete());
    assert_eq!(
        view.restored(),
        fig03.len() * ws.len(),
        "every cell restored"
    );
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        stored,
        "nothing simulated"
    );
    for r in view.results() {
        assert_eq!(fig10.get(r.workload, r.mode), Some(&r.stats));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `stop_after` cancels its own sweep only: a full sweep running beside it
/// in the same process completes.
#[test]
fn stop_after_stops_only_its_own_sweep() {
    let ws: Vec<_> = ["crc32", "bitcount", "fft"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    let modes = [FusionMode::NoFusion, FusionMode::CsfSbr, FusionMode::Helios];
    let start = Barrier::new(2);
    let (capped, full) = std::thread::scope(|s| {
        let capped = s.spawn(|| {
            start.wait();
            let opts = SweepOptions {
                jobs: 1,
                stop_after: Some(1),
                ..Default::default()
            };
            run_sweep_opts(&ws, &modes, &opts).unwrap()
        });
        let full = s.spawn(|| {
            start.wait();
            let opts = SweepOptions {
                jobs: 1,
                ..Default::default()
            };
            run_sweep_opts(&ws, &modes, &opts).unwrap()
        });
        (capped.join().unwrap(), full.join().unwrap())
    });
    assert!(capped.interrupted());
    assert_eq!(capped.results().len(), 1, "exactly one cell simulated");
    assert!(full.is_complete(), "the other sweep ran every cell");
    assert_eq!(full.results().len(), ws.len() * modes.len());
    assert!(!helios::sweep_interrupted(), "stop_after is not a SIGINT");
}
