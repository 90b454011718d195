//! The lockstep checker's verdicts surface through `Pipeline::try_run`.
//!
//! The checker replays an oracle trace against the pipeline's commit
//! events; these tests hand it a divergent oracle and check that the run
//! stops with `SimError::InvariantViolation`, naming the divergence, on
//! the cycle the offending µ-op committed.

use helios::{workload, FusionMode, PipeConfig, SimError};
use helios_uarch::{InvariantReport, Pipeline};

fn violation(result: Result<&helios::SimStats, SimError>) -> InvariantReport {
    match result {
        Err(SimError::InvariantViolation(report)) => *report,
        other => panic!("expected an invariant violation, got {other:?}"),
    }
}

#[test]
fn a_mismatched_oracle_uop_stops_the_run_on_its_commit_cycle() {
    const K: u64 = 5_000;
    let w = workload("crc32").expect("registered workload");
    // Without fusion every µ-op commits on its own, so µ-op K is the
    // (K + 1)-th commit.
    let cfg = PipeConfig::with_fusion(FusionMode::NoFusion);
    let mut plain = Pipeline::new(cfg, w.stream());
    while plain.stats().uops <= K {
        plain.cycle();
    }
    let commit_cycle = plain.cycle_count();

    let mut pipe = Pipeline::new(cfg, w.stream());
    pipe.attach_checker(w.stream().map(|mut r| {
        if r.seq == K {
            r.pc += 4;
        }
        r
    }));
    let report = violation(pipe.try_run(w.fuel * 20));
    assert!(
        report
            .what
            .contains(&format!("lockstep mismatch at seq {K}")),
        "{}",
        report.what
    );
    assert_eq!(report.cycle, commit_cycle);
    assert_eq!(report.committed, plain.stats().instructions);
    assert_eq!(pipe.stats().oracle_checked, K);
}

#[test]
fn a_truncated_oracle_stops_the_run() {
    let w = workload("crc32").expect("registered workload");
    let mut pipe = Pipeline::new(PipeConfig::with_fusion(FusionMode::Helios), w.stream());
    pipe.attach_checker(w.stream().take(10_000));
    let report = violation(pipe.try_run(w.fuel * 20));
    assert!(
        report
            .what
            .contains("commit stream longer than the oracle trace"),
        "{}",
        report.what
    );
}
