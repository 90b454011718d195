//! Figure 3 — normalized IPC of fusing *all* Table I idioms vs fusing only
//! memory pairs, relative to a no-fusion baseline.
//!
//! "All idioms" is RISCVFusion++; "memory only" is CSF-SBR plus the Helios
//! machinery disabled — i.e. the CSF-SBR configuration.

use helios::{format_row, FusionMode, Report, Table};

fn main() {
    let opts = helios_bench::parse_opts();
    let modes = [
        FusionMode::NoFusion,
        FusionMode::RiscvFusionPlusPlus,
        FusionMode::CsfSbr,
    ];
    let sweep = helios_bench::run_standard_sweep(&opts, &modes);
    let mut t = Table::new(vec![
        "benchmark".into(),
        "all idioms".into(),
        "memory only".into(),
    ]);
    for w in sweep.workloads() {
        let (Some(base), Some(all), Some(memo)) = (
            sweep.get(w, FusionMode::NoFusion),
            sweep.get(w, FusionMode::RiscvFusionPlusPlus),
            sweep.get(w, FusionMode::CsfSbr),
        ) else {
            continue; // quarantined cell: row omitted, named in the notes
        };
        let base = base.ipc();
        t.row(format_row(w, &[all.ipc() / base, memo.ipc() / base], 3));
    }
    let (_, g_all) = sweep.normalized_ipc(FusionMode::RiscvFusionPlusPlus, FusionMode::NoFusion);
    let (_, g_mem) = sweep.normalized_ipc(FusionMode::CsfSbr, FusionMode::NoFusion);
    t.row(format_row("geomean", &[g_all, g_mem], 3));
    let mut report = Report::new(
        "fig03",
        "Figure 3: normalized IPC, all idioms vs memory-only fusion",
        t,
    );
    report.note(
        "paper: ~1 percentage point between the two on average; susan the\n\
         notable exception (6.5 pp, non-memory idioms dominate there)",
    );
    helios_bench::finalize_sweep_report(report, &sweep);
}
