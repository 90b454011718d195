//! Table I — the RISC-V fusion idioms (memory pairs in bold in the paper)
//! with their dynamic consecutive-pair frequency over the workload suite,
//! from the census's greedy consecutive pairing.

use helios::{Progress, Report, Table};
use helios_bench::census::census;
use helios_core::ALL_IDIOMS;

fn main() {
    let workloads = helios_bench::select_workloads();
    let mut counts = [0u64; ALL_IDIOMS.len()];
    let mut total = 0u64;
    let progress = Progress::new(workloads.len());
    for w in &workloads {
        let c = census(w);
        total += c.uops;
        for (sum, n) in counts.iter_mut().zip(c.csf_by_idiom) {
            *sum += n;
        }
        progress.item_done(w.name, "census");
    }
    progress.finish("census");
    let mut t = Table::new(vec![
        "idiom".into(),
        "category".into(),
        "pairs".into(),
        "% of µ-ops".into(),
    ]);
    for (i, idm) in ALL_IDIOMS.iter().enumerate() {
        let cat = if idm.is_memory_pair() {
            "MEMORY (bold)"
        } else {
            "other"
        };
        t.row(vec![
            idm.name().to_string(),
            cat.to_string(),
            counts[i].to_string(),
            format!("{:.3}", 100.0 * 2.0 * counts[i] as f64 / total as f64),
        ]);
    }
    let report = Report::new(
        "table1",
        "Table I: RISC-V fusion idioms (after Celio et al. [7]) and dynamic frequency",
        t,
    );
    report.print_and_emit();
}
