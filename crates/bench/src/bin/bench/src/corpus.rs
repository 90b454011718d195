//! `trace-corpus`: the trace store's write and read paths over all 32
//! kernels, with no pipeline. Each pass starts from an empty store, writes
//! every trace (emulate, encode, write, rename) and then reopens and
//! drains every one, so a codec change that helps one direction and hurts
//! the other shows in the same run.

use crate::spans::{self, SpanId, Tracer};
use crate::workload::{self, Ctx, Outcome};
use helios::{StoreStats, Trace, TraceStore, Workload};
use helios_emu::codec;
use std::path::Path;
use std::time::Instant;

pub fn run(ctx: &Ctx, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let names: Vec<&str> = helios::all_workloads().iter().map(|w| w.name).collect();
    let kernels = out.repeated_setup(|out| workload::select(out, ctx.seed, &names));
    let uops: u64 = kernels
        .iter()
        .filter_map(|w| ctx.golden.cell(w.name, helios::FusionMode::NoFusion))
        .map(|c| c.instructions)
        .sum();
    let (mut write_s, mut read_s) = (Vec::new(), Vec::new());
    let mut n = 0;
    out.timed_passes(ctx, traced, |out| {
        let dir = ctx.tmp.join(format!("corpus-{n}"));
        n += 1;
        let timed = pass(out, ctx, &kernels, &dir);
        std::fs::remove_dir_all(&dir).ok();
        let (w, r) = timed?;
        write_s.push(w);
        read_s.push(r);
        Some(w + r)
    });
    let mups = |s: &[f64]| uops as f64 / crate::stats::median(s) / 1e6;
    out.e2e("record_mups_per_s", mups(&write_s), "Mu/s");
    out.e2e("replay_mups_per_s", mups(&read_s), "Mu/s");
    if traced {
        traced_pass(&mut out, ctx, &kernels);
    }
    out
}

/// Opens a store, failing the operation if the directory is unusable.
fn open(out: &mut Outcome, dir: &Path) -> Option<TraceStore> {
    TraceStore::open(dir)
        .map_err(|e| out.op(Err(format!("opening {}: {e}", dir.display()))))
        .ok()
}

/// Checks the store's counters after a pass: every write recorded, every
/// read a verified hit, nothing quarantined.
fn check_store(out: &mut Outcome, store: &TraceStore, recorded: u64, hits: u64) {
    let s = store.stats();
    out.op(
        if (s.recorded, s.hits, s.quarantined) == (recorded, hits, 0) {
            Ok(())
        } else {
            Err(format!(
                "trace store counted {s:?}, expected {recorded} recorded and {hits} hits"
            ))
        },
    );
}

/// One untraced pass; returns the write and read phase wall seconds, or
/// `None` when the store directory is unusable.
fn pass(out: &mut Outcome, ctx: &Ctx, kernels: &[Workload], dir: &Path) -> Option<(f64, f64)> {
    let t = Instant::now();
    let store = open(out, dir)?;
    for w in kernels {
        let r = w.stored(&store).map_err(|e| format!("{}: {e}", w.name));
        out.op(r.and_then(|trace| ctx.golden.check_trace(w, &trace)));
    }
    check_store(out, &store, kernels.len() as u64, 0);
    let write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let store = open(out, dir)?;
    for w in kernels {
        out.op(read_back(&store, ctx, w));
    }
    check_store(out, &store, 0, kernels.len() as u64);
    Some((write_s, t.elapsed().as_secs_f64()))
}

/// Reopens one trace and drains its replay.
fn read_back(store: &TraceStore, ctx: &Ctx, w: &Workload) -> Result<(), String> {
    let trace = w.stored(store).map_err(|e| format!("{}: {e}", w.name))?;
    check_replay(ctx, w, &trace, workload::drain(&trace))
}

/// Checks a reopened trace and the µ-op count its replay yielded.
fn check_replay(ctx: &Ctx, w: &Workload, trace: &Trace, replayed: u64) -> Result<(), String> {
    ctx.golden.check_trace(w, trace)?;
    if replayed != trace.len() {
        return Err(format!(
            "{}: replay yielded {replayed} of {} µ-ops",
            w.name,
            trace.len()
        ));
    }
    Ok(())
}

/// One pass with a span around each public call. The write phase adds a
/// separate record and in-memory encode of each kernel so the store-miss
/// span can be split into emulation, encoding and file I/O.
fn traced_pass(out: &mut Outcome, ctx: &Ctx, kernels: &[Workload]) {
    let tr = Tracer::new();
    let root = workload::open_trace(&tr, "trace-corpus", kernels);
    let dir = ctx.tmp.join("corpus-traced");
    let n = kernels.len() as u64;
    let mut counts = StoreStats::default();
    if let Some(store) = open(out, &dir) {
        write_phase(out, ctx, &tr, root, &store, kernels);
        check_store(out, &store, n, 0);
        counts = store.stats();
    }
    if let Some(store) = open(out, &dir) {
        read_phase(out, ctx, &tr, root, &store, kernels);
        check_store(out, &store, 0, n);
        let read = store.stats();
        counts.hits += read.hits;
        counts.quarantined += read.quarantined;
    }
    std::fs::remove_dir_all(&dir).ok();
    finish(out, &tr, root);
    out.layer("emu.store.recorded", counts.recorded as f64, "count");
    out.layer("emu.store.hits", counts.hits as f64, "count");
    out.layer("emu.store.quarantined", counts.quarantined as f64, "count");
}

fn write_phase(
    out: &mut Outcome,
    ctx: &Ctx,
    tr: &Tracer,
    root: SpanId,
    store: &TraceStore,
    kernels: &[Workload],
) {
    for w in kernels {
        let (stored, s) = tr.span("emu.store.miss", Some(root), w.name, || w.stored(store));
        let stored = stored.map_err(|e| format!("{}: {e}", w.name));
        if let Ok(trace) = &stored {
            tr.count(s, "uops", trace.len());
        }
        out.op(stored.and_then(|trace| ctx.golden.check_trace(w, &trace)));

        let (rec, s) = tr.span("emu.record", Some(root), w.name, || {
            Trace::record(w.program.clone(), w.fuel)
        });
        let Ok(Trace::Memory(rec)) = rec else {
            out.op(Err(format!("{}: in-memory recording failed", w.name)));
            continue;
        };
        tr.count(s, "uops", rec.len() as u64);
        let mut buf = Vec::new();
        let (bytes, s) = tr.span("emu.codec.encode", Some(root), w.name, || {
            codec::encode_v2(
                rec.uops(),
                rec.output(),
                w.name,
                codec::DEFAULT_BLOCK_UOPS,
                &mut buf,
            )
        });
        match bytes {
            Ok(bytes) => {
                tr.count(s, "uops", rec.len() as u64);
                tr.count(s, "bytes", bytes);
            }
            Err(e) => out.op(Err(format!("{}: encode: {e}", w.name))),
        }
    }
}

fn read_phase(
    out: &mut Outcome,
    ctx: &Ctx,
    tr: &Tracer,
    root: SpanId,
    store: &TraceStore,
    kernels: &[Workload],
) {
    for w in kernels {
        let (hit, s) = tr.span("emu.store.hit", Some(root), w.name, || w.stored(store));
        let trace = match hit {
            Ok(t) => t,
            Err(e) => {
                out.op(Err(format!("{}: {e}", w.name)));
                continue;
            }
        };
        tr.count(s, "uops", trace.len());
        let (n, s) = tr.span("emu.replay.disk", Some(root), w.name, || {
            workload::drain(&trace)
        });
        tr.count(s, "uops", n);
        out.op(check_replay(ctx, w, &trace, n));
    }
}

fn finish(out: &mut Outcome, tr: &Tracer, root: SpanId) {
    out.finish_trace(tr, root, 1);
    let sp = std::mem::take(&mut out.spans);
    let rate =
        |name: &str| spans::total_count(&sp, name, "uops") as f64 / spans::total_s(&sp, name) / 1e6;
    let miss_s = spans::total_s(&sp, "emu.store.miss");
    let io_s = miss_s - spans::total_s(&sp, "emu.record") - spans::total_s(&sp, "emu.codec.encode");
    let bytes = spans::total_count(&sp, "emu.codec.encode", "bytes") as f64;
    out.layer("emu.record.mups_per_s", rate("emu.record"), "Mu/s");
    out.layer(
        "emu.codec.encode_mups_per_s",
        rate("emu.codec.encode"),
        "Mu/s",
    );
    out.layer(
        "emu.codec.decode_mups_per_s",
        rate("emu.replay.disk"),
        "Mu/s",
    );
    out.layer(
        "emu.codec.bytes_per_uop",
        bytes / spans::total_count(&sp, "emu.codec.encode", "uops") as f64,
        "B/uop",
    );
    out.layer("emu.store.hit_mups_per_s", rate("emu.store.hit"), "Mu/s");
    out.layer("emu.store.io_pct", io_s / miss_s * 100.0, "%");
    out.layer("emu.store.io_s", io_s, "s");
    out.layer(
        "emu.store.hit_ms",
        crate::stats::median(&spans::durations_ms(&sp, "emu.store.hit")),
        "ms",
    );
    out.spans = sp;
}
