//! Figure 9 — Rename and Dispatch structural stalls as a percentage of
//! execution cycles, for the no-fusion baseline, Helios, and OracleFusion.

use helios::{format_row, FusionMode, Report, Table};

fn main() {
    let opts = helios_bench::parse_opts();
    let modes = [
        FusionMode::NoFusion,
        FusionMode::Helios,
        FusionMode::OracleFusion,
    ];
    let sweep = helios_bench::run_standard_sweep(&opts, &modes);
    let mut t = Table::new(vec![
        "benchmark".into(),
        "base %".into(),
        "helios %".into(),
        "oracle %".into(),
        "base SQ%".into(),
        "base ROB%".into(),
        "base IQ%".into(),
    ]);
    for w in sweep.workloads() {
        let (Some(b), Some(h), Some(o)) = (
            sweep.get(w, FusionMode::NoFusion),
            sweep.get(w, FusionMode::Helios),
            sweep.get(w, FusionMode::OracleFusion),
        ) else {
            continue; // quarantined cell: row omitted, named in the notes
        };
        let pc = |n: u64, d: u64| if d == 0 { 0.0 } else { 100.0 * n as f64 / d as f64 };
        t.row(format_row(
            w,
            &[
                b.stall_pct(),
                h.stall_pct(),
                o.stall_pct(),
                pc(b.dispatch_stall_sq, b.cycles),
                pc(b.dispatch_stall_rob, b.cycles),
                pc(b.dispatch_stall_iq, b.cycles),
            ],
            1,
        ));
    }
    let mut report = Report::new(
        "fig09",
        "Figure 9: Rename+Dispatch structural stalls (% of cycles)",
        t,
    );
    report.note("paper: e.g. 657.xz_1 baseline spends 88% of cycles waiting on an SQ entry");
    helios_bench::finalize_sweep_report(report, &sweep);
}
