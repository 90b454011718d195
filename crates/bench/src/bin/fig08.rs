//! Figure 8 — committed CSF and NCSF pairs in Helios and OracleFusion,
//! relative to total dynamic memory instructions.

use helios::{format_row, FusionMode, Report, Table};

fn main() {
    let opts = helios_bench::parse_opts();
    let modes = [FusionMode::Helios, FusionMode::OracleFusion];
    let sweep = helios_bench::run_standard_sweep(&opts, &modes);
    let mut t = Table::new(vec![
        "benchmark".into(),
        "Helios CSF %".into(),
        "Helios NCSF %".into(),
        "Oracle CSF %".into(),
        "Oracle NCSF %".into(),
    ]);
    let mut acc = [0.0f64; 4];
    let mut n = 0.0f64;
    for w in sweep.workloads() {
        let (Some(h), Some(o)) = (
            sweep.get(w, FusionMode::Helios),
            sweep.get(w, FusionMode::OracleFusion),
        ) else {
            continue; // quarantined cell: row omitted, named in the notes
        };
        let (hc, hn) = h.fused_pct_of_mem();
        let (oc, on) = o.fused_pct_of_mem();
        let row = [hc, hn, oc, on];
        for (a, v) in acc.iter_mut().zip(row) {
            *a += v;
        }
        n += 1.0;
        t.row(format_row(w, &row, 2));
    }
    t.row(format_row("average", &[acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n], 2));
    let mut report = Report::new(
        "fig08",
        "Figure 8: CSF / NCSF pairs as % of dynamic memory instructions",
        t,
    );
    report.note(
        "paper: Helios 6.7% CSF + 5.5% NCSF, Oracle 6.1% CSF (Helios favours\n\
         CSF during training); overall Helios 12.2% vs Oracle 13.6% of µ-ops",
    );
    helios_bench::finalize_sweep_report(report, &sweep);
}
