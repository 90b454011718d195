//! Table III — Helios fusion-predictor coverage, accuracy, and MPKI per
//! application.
//!
//! Coverage counts only pairs that *need* prediction (NCSF plus CSF pairs
//! with different base registers), measured against the OracleFusion
//! equivalent as the denominator.

use helios::{FusionMode, Report, Table};

fn main() {
    let opts = helios_bench::parse_opts();
    let modes = [FusionMode::Helios, FusionMode::OracleFusion];
    let sweep = helios_bench::run_standard_sweep(&opts, &modes);
    let mut t = Table::new(vec![
        "benchmark".into(),
        "coverage %".into(),
        "accuracy %".into(),
        "MPKI".into(),
    ]);
    let (mut cov_sum, mut acc_sum, mut mpki_sum, mut n) = (0.0, 0.0, 0.0, 0.0);
    for w in sweep.workloads() {
        let (Some(h), Some(o)) = (
            sweep.get(w, FusionMode::Helios),
            sweep.get(w, FusionMode::OracleFusion),
        ) else {
            continue; // quarantined cell: row omitted, named in the notes
        };
        // Prediction-needing pairs: NCSF + DBR (oracle upper bound).
        let eligible = (o.fusion.ncsf_pairs + o.fusion.dbr_pairs).max(1);
        let got = h.fusion.ncsf_pairs + h.fusion.dbr_pairs;
        let coverage = (100.0 * got as f64 / eligible as f64).min(100.0);
        let accuracy = h.fusion.accuracy_pct();
        let mpki = h.fusion_mpki();
        if o.fusion.ncsf_pairs + o.fusion.dbr_pairs > 0 {
            cov_sum += coverage;
            acc_sum += accuracy;
            mpki_sum += mpki;
            n += 1.0;
        }
        t.row(vec![
            w.to_string(),
            format!("{coverage:.2}"),
            format!("{accuracy:.2}"),
            format!("{mpki:.4}"),
        ]);
    }
    if n > 0.0 {
        t.row(vec![
            "average (NCSF-active)".into(),
            format!("{:.2}", cov_sum / n),
            format!("{:.2}", acc_sum / n),
            format!("{:.4}", mpki_sum / n),
        ]);
    }
    let mut report = Report::new(
        "table3",
        "Table III: Helios fusion predictor coverage / accuracy / MPKI",
        t,
    );
    report.note("paper averages: coverage 68.2%, accuracy 99.7%, MPKI 0.142");
    helios_bench::finalize_sweep_report(report, &sweep);
}
