//! Ablation study over the Helios design choices the paper fixes:
//! UCH load-history size (6), NCSF nesting depth (2), fusion-predictor
//! geometry (512×4 ×2 + selector), maximum pair distance (64), and the
//! fusion-region (cache access granularity) size (64 B).
//!
//! ```text
//! cargo run --release -p helios-bench --bin ablation [--quick|--only a,b] [--jobs N]
//! ```
//!
//! Every (workload, variant) cell runs through the standard sweep, so
//! `--jobs`, the shared result store and the other sweep flags and knobs
//! work as for every figure; the paper-params row is fig10's Helios
//! column, answered from the store when fig10 has run. `--server` does
//! not apply: the `sweepd` wire names only fusion modes, and the variants
//! are full configurations.

use helios::{geomean, FusionMode, PipeConfig, Report, Table};

/// Every ablated configuration, built through the validating builder so a
/// degenerate variant fails loudly here rather than hanging the sweep.
fn variants() -> Vec<(String, PipeConfig)> {
    let base = || PipeConfig::builder().fusion(FusionMode::Helios);
    let built = |name: String, b: helios::PipeConfigBuilder| {
        (name, b.build().expect("ablation variant validates"))
    };
    let mut v = vec![built("Helios (paper params)".into(), base())];

    // UCH load-history size (paper: 6 entries).
    for entries in [1usize, 2, 12] {
        v.push(built(
            format!("UCH load entries = {entries}"),
            base().tweak(|c| c.helios.uch.load_entries = entries),
        ));
    }
    // NCSF nesting depth (paper: 2; "sufficient for most of the benefits").
    for nest in [1usize, 4, 8] {
        v.push(built(
            format!("Max Active NCS (nesting) = {nest}"),
            base().tweak(|c| c.helios.max_nest = nest),
        ));
    }
    // Maximum head→tail distance (paper: 64 µ-ops / 7-bit CN).
    for dist in [8u32, 16, 32] {
        v.push(built(
            format!("max fusion distance = {dist} µ-ops"),
            base().tweak(|c| c.helios.uch.max_distance = dist),
        ));
    }
    // Fusion-predictor capacity (paper: 512 sets × 4 ways per component).
    for sets in [64usize, 128] {
        v.push(built(
            format!("FP sets per component = {sets}"),
            base().tweak(|c| {
                c.helios.fp.sets = sets;
                c.helios.fp.selector_entries = sets * 4;
            }),
        ));
    }
    // Fusion region = cache access granularity (paper: 64 B; §III-C notes
    // the granularity could be narrower or as wide as a line).
    for line in [16u64, 32] {
        v.push(built(
            format!("fusion region = {line} B"),
            base().tweak(|c| c.helios.line_bytes = line),
        ));
    }
    // Post-commit UCH decoupling queue (paper: 8 entries / 1 port is lossless).
    v.push(built(
        "UCH queue = 1 entry".into(),
        base().tweak(|c| c.helios.uch_queue.entries = Some(1)),
    ));
    v.push(built(
        "UCH queue = ideal (unbounded, 8 ports)".into(),
        base().tweak(|c| {
            c.helios.uch_queue.entries = None;
            c.helios.uch_queue.drain_per_cycle = 8;
        }),
    ));
    // Probabilistic confidence counters (Riley & Zilles [20], §V-B2's
    // accuracy-for-coverage trade).
    v.push(built(
        "probabilistic confidence".into(),
        base().tweak(|c| c.helios.fp.probabilistic_confidence = true),
    ));
    v
}

fn main() {
    let opts = helios_bench::parse_opts();
    let vars = variants();
    eprintln!(
        "ablating {} variants over {} workloads…",
        vars.len(),
        opts.workloads.len()
    );
    let cfgs: Vec<PipeConfig> = vars.iter().map(|(_, cfg)| *cfg).collect();
    let sweep = helios_bench::run_standard_sweep(&opts, &cfgs);
    let results: Vec<(String, f64)> = vars
        .iter()
        .map(|(name, cfg)| {
            let vals: Vec<f64> = opts
                .workloads
                .iter()
                .filter_map(|w| sweep.get(w.name, *cfg).map(|s| s.ipc()))
                .collect();
            (name.clone(), geomean(&vals))
        })
        .collect();

    let base = results[0].1;
    let mut t = Table::new(vec![
        "variant".into(),
        "geomean IPC".into(),
        "vs base".into(),
    ]);
    for (name, g) in &results {
        t.row(vec![
            name.clone(),
            format!("{g:.4}"),
            format!("{:+.2}%", (g / base - 1.0) * 100.0),
        ]);
    }
    let mut report = Report::new(
        "ablation",
        "Ablation: Helios design-choice sensitivity (geomean IPC over the suite)",
        t,
    );
    report.note("(paper choices should be at or near the top of each group)");
    helios_bench::finalize_sweep_report(report, &sweep);
}
