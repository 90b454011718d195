//! `fig10-quick`: the `fig10 --quick` grid (8 kernels × 6 modes) through
//! `run_sweep_opts` the way the figure binary drives it — one job,
//! in-memory traces, checkpoint journal on. The pipeline does nearly all
//! of the work, so cycle-loop changes show here first.

use crate::spans::{self, Tracer};
use crate::stats;
use crate::workload::{self, Ctx, Outcome};
use helios::{Checkpoint, FusionMode, SimRequest, SweepOptions, Workload};
use helios_bench::QUICK_SET;
use std::collections::HashMap;
use std::time::Instant;

pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let kernels = out.repeated_setup(|out| workload::select(out, ctx.seed, &QUICK_SET));
    let opts = SweepOptions {
        jobs: 1,
        checkpoint: Some(Checkpoint {
            path: ctx.tmp.join("fig10.ckpt.jsonl"),
            resume: false,
        }),
        ..SweepOptions::default()
    };
    let mut cycles = 0;
    out.timed_passes(ctx, traced, |out| {
        let t = Instant::now();
        cycles = sweep_pass(out, ctx, &kernels, &opts);
        Some(t.elapsed().as_secs_f64())
    });
    let cells = (kernels.len() * FusionMode::ALL.len()) as f64;
    out.e2e(
        "sim_mcycles_per_s",
        cycles as f64 / out.wall_s() / 1e6,
        "Mcycles/s",
    );
    out.e2e("cells_per_s", cells / out.wall_s(), "1/s");
    if traced {
        traced_pass(&mut out, ctx, &kernels);
    }
    out
}

/// One untraced sweep; returns the simulated cycles.
fn sweep_pass(out: &mut Outcome, ctx: &Ctx, kernels: &[Workload], opts: &SweepOptions) -> u64 {
    let sweep = match helios::run_sweep_opts(kernels, &FusionMode::ALL, opts) {
        Ok(s) => s,
        Err(e) => {
            out.op(Err(format!("sweep set-up: {e}")));
            return 0;
        }
    };
    for f in sweep.failures() {
        out.op(Err(format!(
            "{}/{}: {}",
            f.workload,
            f.mode.name(),
            f.outcome.describe()
        )));
    }
    for r in sweep.results() {
        out.op(ctx.golden.check(r.workload, r.mode, &r.stats));
    }
    sweep.results().iter().map(|r| r.stats.cycles).sum()
}

/// The same grid driven one public call at a time, with a span around
/// each: record, a replay-only drain of the in-memory trace, then each
/// mode's cell.
fn traced_pass(out: &mut Outcome, ctx: &Ctx, kernels: &[Workload]) {
    let tr = Tracer::new();
    let root = workload::open_trace(&tr, "fig10-quick", kernels);
    for w in kernels {
        let (trace, s) = tr.span("emu.record", Some(root), w.name, || w.trace());
        let trace = match trace {
            Ok(t) => t,
            Err(e) => {
                out.op(Err(format!("{}: recording: {e}", w.name)));
                continue;
            }
        };
        tr.count(s, "uops", trace.len());
        out.op(ctx.golden.check_trace(w, &trace));
        let (n, s) = tr.span("emu.replay.mem", Some(root), w.name, || {
            workload::drain(&trace)
        });
        tr.count(s, "uops", n);
        for mode in FusionMode::ALL {
            let id = format!("{}/{}", w.name, mode.name());
            let (run, s) = tr.span("uarch.cell", Some(root), &id, || {
                SimRequest::mode(w, mode).replaying(&trace).try_run()
            });
            match run {
                Ok(run) => {
                    tr.count(s, "cycles", run.stats.cycles);
                    out.op(ctx.golden.check(w.name, mode, &run.stats));
                }
                Err(e) => out.op(Err(format!("{id}: {e}"))),
            }
        }
    }
    out.finish_trace(&tr, root, 1);
    let sp = std::mem::take(&mut out.spans);

    let record_s = spans::total_s(&sp, "emu.record");
    let cells_s = spans::total_s(&sp, "uarch.cell");
    let uops = spans::total_count(&sp, "emu.record", "uops") as f64;
    let drain: HashMap<&str, u64> = sp
        .iter()
        .filter(|s| s.name == "emu.replay.mem")
        .map(|s| (s.id.as_str(), s.dur_ns()))
        .collect();
    let mut per_mode = Vec::new();
    for mode in FusionMode::ALL {
        // Pipeline time only: each cell minus the time its trace takes to
        // drain without a pipeline attached.
        let (mut ns, mut cycles) = (0u64, 0u64);
        for s in sp.iter().filter(|s| s.name == "uarch.cell") {
            let (kernel, m) = s.id.rsplit_once('/').expect("cell ids are kernel/mode");
            if m == mode.name() {
                ns += s
                    .dur_ns()
                    .saturating_sub(drain.get(kernel).copied().unwrap_or(0));
                cycles += s.count("cycles");
            }
        }
        per_mode.push((mode, 1e3 * cycles as f64 / ns as f64));
    }
    let cells_ms = spans::durations_ms(&sp, "uarch.cell");
    let cycles = spans::total_count(&sp, "uarch.cell", "cycles");
    let overhead_s = out.wall_s() - record_s - cells_s;
    let n_cells = cells_ms.len() as f64;

    out.layer("emu.record.mups_per_s", uops / record_s / 1e6, "Mu/s");
    out.layer(
        "emu.replay.mem_mups_per_s",
        uops / spans::total_s(&sp, "emu.replay.mem") / 1e6,
        "Mu/s",
    );
    for (mode, rate) in per_mode {
        out.layer(
            &format!("uarch.pipeline.mcycles_per_s.{}", mode_key(mode)),
            rate,
            "Mcycles/s",
        );
    }
    out.layer("uarch.sim_cycles", cycles as f64, "count");
    out.layer("uarch.cell_ms_p50", stats::median(&cells_ms), "ms");
    if let Some((q, label)) = stats::tail_percentile(cells_ms.len()) {
        out.layer(
            &format!("uarch.cell_ms_{label}"),
            stats::quantile(&cells_ms, q),
            "ms",
        );
    }
    out.layer(
        "experiment.overhead_pct",
        overhead_s / out.wall_s() * 100.0,
        "%",
    );
    out.layer(
        "experiment.overhead_ms_per_cell",
        overhead_s * 1e3 / n_cells,
        "ms",
    );
    out.spans = sp;
}

/// A fusion mode as a metric-name component (`RISCVFusion++` has
/// characters metric names may not hold).
pub fn mode_key(mode: FusionMode) -> String {
    mode.name().to_ascii_lowercase().replace("++", "-pp")
}
