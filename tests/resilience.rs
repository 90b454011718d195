//! Resilient-sweep integration tests: per-cell fault quarantine, watchdog
//! timeouts, checkpoint/resume equivalence, journal corruption recovery,
//! and integrity-checked trace caching.
//!
//! Every test drives the real [`helios::run_sweep_opts`] executor; chaos
//! injection (`CellChaos`) exercises the genuine panic-isolation and
//! deadline paths, not mocks.

use helios::{
    run_sweep_opts, CellChaos, CellOutcome, Checkpoint, FusionMode, Sweep, SweepOptions,
    SweepPolicy, Workload,
};
use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

/// The interrupted flag and SIGINT handler are process-global; sweeps that
/// set them must not overlap other sweeps in this test binary.
static SWEEP_GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    SWEEP_GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh scratch directory per test (no tempfile dependency).
fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("helios-resilience-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn small_grid() -> (Vec<Workload>, [FusionMode; 2]) {
    let ws = ["crc32", "bitcount"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    (ws, [FusionMode::NoFusion, FusionMode::Helios])
}

/// Quick policy: no real retry latency in tests.
fn fast_policy() -> SweepPolicy {
    SweepPolicy {
        backoff_ms: 1,
        backoff_cap_ms: 1,
        ..SweepPolicy::default()
    }
}

fn assert_same_results(a: &Sweep, b: &Sweep) {
    assert_eq!(a.results().len(), b.results().len());
    for (x, y) in a.results().iter().zip(b.results()) {
        assert_eq!((x.workload, x.mode), (y.workload, y.mode), "ordering differs");
        assert_eq!(x.stats, y.stats, "{}/{}: stats differ", x.workload, x.mode.name());
    }
}

/// An injected panic in one cell is quarantined — with the attempt count
/// and panic message — while every other cell completes, and the sweep
/// reports itself partial.
#[test]
fn panicking_cell_is_quarantined_and_rest_complete() {
    let _g = gate();
    let (ws, modes) = small_grid();
    let opts = SweepOptions {
        jobs: 2,
        policy: fast_policy(),
        chaos: Some(CellChaos::parse("crc32/Helios=panic").unwrap()),
        ..SweepOptions::default()
    };
    let sweep = run_sweep_opts(&ws, &modes, &opts).unwrap();

    assert!(sweep.get("crc32", FusionMode::Helios).is_none());
    assert!(sweep.get("crc32", FusionMode::NoFusion).is_some());
    assert!(sweep.get("bitcount", FusionMode::NoFusion).is_some());
    assert!(sweep.get("bitcount", FusionMode::Helios).is_some());

    assert_eq!(sweep.failures().len(), 1);
    let f = &sweep.failures()[0];
    assert_eq!((f.workload, f.mode), ("crc32", FusionMode::Helios));
    match &f.outcome {
        CellOutcome::Failed { error, attempts } => {
            assert_eq!(*attempts, 2, "default policy retries once");
            assert!(error.contains("injected chaos panic"), "{error}");
        }
        other => panic!("expected Failed, got {}", other.describe()),
    }
    assert!(!sweep.is_complete());
    assert_eq!(sweep.exit_code(), helios::exit::PARTIAL);
}

/// An injected wall-clock timeout takes the genuine deadline path through
/// the pipeline and is reported as `TimedOut`, not a panic.
#[test]
fn timed_out_cell_is_reported() {
    let _g = gate();
    let (ws, modes) = small_grid();
    let opts = SweepOptions {
        jobs: 1,
        policy: fast_policy(),
        chaos: Some(CellChaos::parse("bitcount/NoFusion=timeout").unwrap()),
        ..SweepOptions::default()
    };
    let sweep = run_sweep_opts(&ws, &modes, &opts).unwrap();

    assert_eq!(sweep.failures().len(), 1);
    let f = &sweep.failures()[0];
    assert_eq!((f.workload, f.mode), ("bitcount", FusionMode::NoFusion));
    assert!(
        matches!(f.outcome, CellOutcome::TimedOut { attempts: 2, .. }),
        "expected TimedOut, got {}",
        f.outcome.describe()
    );
    assert_eq!(sweep.results().len(), 3);
    assert_eq!(sweep.exit_code(), helios::exit::PARTIAL);
}

/// Kill-and-resume equivalence: a sweep stopped after two cells (the
/// deterministic stand-in for `kill -9`/SIGINT) and then resumed from its
/// journal produces exactly the results of an uninterrupted sweep.
#[test]
fn interrupted_sweep_resumes_to_identical_results() {
    let _g = gate();
    let (ws, modes) = small_grid();
    let dir = scratch("resume");
    let ckpt = dir.join("cells.jsonl");

    let reference = run_sweep_opts(&ws, &modes, &SweepOptions::default()).unwrap();
    assert!(reference.is_complete());

    let interrupted = run_sweep_opts(
        &ws,
        &modes,
        &SweepOptions {
            jobs: 1,
            checkpoint: Some(Checkpoint {
                path: ckpt.clone(),
                resume: false,
            }),
            stop_after: Some(2),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(interrupted.interrupted());
    assert_eq!(interrupted.exit_code(), helios::exit::INTERRUPTED);
    assert_eq!(
        fs::read_to_string(&ckpt).unwrap().lines().count(),
        2,
        "exactly the finished cells are journaled"
    );

    let resumed = run_sweep_opts(
        &ws,
        &modes,
        &SweepOptions {
            jobs: 1,
            checkpoint: Some(Checkpoint {
                path: ckpt,
                resume: true,
            }),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.restored(), 2, "journaled cells are not re-simulated");
    assert_same_results(&reference, &resumed);
}

/// A torn/corrupted journal line (a crash mid-write) is skipped with a
/// warning and its cell re-simulated — never a poisoned resume, never a
/// lost sweep.
#[test]
fn corrupted_journal_line_is_recovered() {
    let _g = gate();
    let (ws, modes) = small_grid();
    let dir = scratch("corrupt");
    let ckpt = dir.join("cells.jsonl");

    let reference = run_sweep_opts(
        &ws,
        &modes,
        &SweepOptions {
            jobs: 1,
            checkpoint: Some(Checkpoint {
                path: ckpt.clone(),
                resume: false,
            }),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(reference.is_complete());

    // Tear the final line in half and scramble one mid-file line.
    let text = fs::read_to_string(&ckpt).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 4);
    let torn = lines[3].len() / 2;
    lines[3].truncate(torn);
    lines[1] = lines[1].replace("\"stats\"", "\"stat?\"");
    fs::write(&ckpt, lines.join("\n")).unwrap();

    let resumed = run_sweep_opts(
        &ws,
        &modes,
        &SweepOptions {
            jobs: 1,
            checkpoint: Some(Checkpoint {
                path: ckpt,
                resume: true,
            }),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.restored(), 2, "the two intact lines restore");
    assert_same_results(&reference, &resumed);
}

/// The trace store detects a corrupted entry (block checksum mismatch on
/// any flipped byte), quarantines it, and re-records — the sweep's results
/// are identical to a store-clean run.
#[test]
fn corrupted_stored_trace_is_quarantined_and_rerecorded() {
    let _g = gate();
    let (ws, modes) = small_grid();
    let dir = scratch("traces");
    let store = helios::TraceStore::open(&dir).unwrap();

    let opts = SweepOptions {
        jobs: 1,
        trace_store: Some(store.clone()),
        ..SweepOptions::default()
    };
    let reference = run_sweep_opts(&ws, &modes, &opts).unwrap();
    assert!(reference.is_complete());
    assert_eq!(store.stats().recorded, ws.len() as u64, "one entry per workload");
    let cached = store
        .entries()
        .unwrap()
        .into_iter()
        .find(|e| e.name == "crc32")
        .expect("sweep populates the store")
        .path;

    // Flip one byte in the middle of the stored trace.
    let mut bytes = fs::read(&cached).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&cached, &bytes).unwrap();

    let rerun = run_sweep_opts(&ws, &modes, &opts).unwrap();
    assert!(rerun.is_complete(), "corrupt store must not fail the sweep");
    assert_same_results(&reference, &rerun);
    assert_ne!(
        fs::read(&cached).unwrap(),
        bytes,
        "the corrupted trace was re-recorded"
    );
    let stats = store.stats();
    assert_eq!(stats.quarantined, 1, "corrupt entry quarantined: {stats:?}");
    assert_eq!(
        stats.recorded,
        ws.len() as u64 + 1,
        "only the corrupt entry was re-recorded: {stats:?}"
    );

    // A third sweep against the now-healthy store records nothing at all.
    let before = store.stats();
    let warm = run_sweep_opts(&ws, &modes, &opts).unwrap();
    assert!(warm.is_complete());
    assert_same_results(&reference, &warm);
    let delta = store.stats().since(&before);
    assert_eq!(delta.recorded, 0, "warm store: pure hits ({delta:?})");
    assert_eq!(delta.hits, ws.len() as u64);
}

/// Seeded chaos over the full grid: every uninjected cell completes, every
/// injected cell is quarantined with the matching outcome (the library-level
/// version of `soak --sweep-chaos`).
#[test]
fn seeded_chaos_completes_all_healthy_cells() {
    let _g = gate();
    let ws: Vec<Workload> = ["crc32", "bitcount", "fft", "dijkstra"]
        .iter()
        .map(|n| helios::workload(n).unwrap())
        .collect();
    let modes = [FusionMode::NoFusion, FusionMode::CsfSbr, FusionMode::Helios];
    let chaos = CellChaos::parse("seed=11,panic=0.2,timeout=0.2").unwrap();
    let opts = SweepOptions {
        jobs: 2,
        policy: fast_policy(),
        chaos: Some(chaos.clone()),
        ..SweepOptions::default()
    };
    let sweep = run_sweep_opts(&ws, &modes, &opts).unwrap();

    let mut injected = 0;
    for w in &ws {
        for &m in &modes {
            match chaos.fault_for(w.name, m.name()) {
                None => assert!(
                    sweep.get(w.name, m).is_some(),
                    "{}/{}: healthy cell missing",
                    w.name,
                    m.name()
                ),
                Some(_) => {
                    injected += 1;
                    assert!(sweep.get(w.name, m).is_none());
                    assert!(sweep
                        .failures()
                        .iter()
                        .any(|f| f.workload == w.name && f.mode == m));
                }
            }
        }
    }
    assert!(injected > 0, "seed 11 must inject at least one fault");
    assert_eq!(sweep.failures().len(), injected);
}
