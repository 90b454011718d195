//! Trace-corpus tooling over the content-addressed [`TraceStore`], plus the
//! classic disassembled µ-op dump.
//!
//! ```text
//! trace record --store DIR [WORKLOAD...]   record workloads (default: all)
//! trace info   --store DIR [--json]        corpus summary (helios-report-v1)
//! trace ls     --store DIR [--json]        per-entry listing (helios-report-v1)
//! trace verify --store DIR                 deep-verify every file; exit 1 on corruption
//! trace gc     --store DIR                 reclaim corrupt/stale/abandoned files
//! trace dump   WORKLOAD [skip] [count] [--konata OUT] [--mode M] [--limit N]
//! ```
//!
//! `--store DIR` falls back to `$HELIOS_TRACE_DIR`. Anything else prints
//! usage and exits with the usage code.

use helios::{FusionMode, ObsOpts, Report, SimRequest, Table, TraceStore};
use helios_isa::disassemble;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: trace <record|info|ls|verify|gc> --store DIR [args]\n\
         \x20      trace dump WORKLOAD [skip] [count] [--konata OUT] [--mode M] [--limit N]\n\
         --store defaults to $HELIOS_TRACE_DIR"
    );
    std::process::exit(helios::exit::USAGE);
}

/// Pulls `--store DIR` (or `$HELIOS_TRACE_DIR`) out of `args` and opens it.
fn open_store(args: &mut Vec<String>) -> TraceStore {
    let dir = match args.iter().position(|a| a == "--store") {
        Some(i) => {
            if i + 1 >= args.len() {
                eprintln!("error: --store requires a directory");
                std::process::exit(helios::exit::USAGE);
            }
            let dir = PathBuf::from(&args[i + 1]);
            args.drain(i..=i + 1);
            dir
        }
        None => match std::env::var_os("HELIOS_TRACE_DIR") {
            Some(d) => PathBuf::from(d),
            None => {
                eprintln!("error: no --store and no $HELIOS_TRACE_DIR");
                std::process::exit(helios::exit::USAGE);
            }
        },
    };
    TraceStore::open(&dir).unwrap_or_else(|e| {
        eprintln!("error: cannot open trace store {}: {e}", dir.display());
        std::process::exit(helios::exit::USAGE);
    })
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "record" => cmd_record(args),
        "info" => cmd_info(args),
        "ls" => cmd_ls(args),
        "verify" => cmd_verify(args),
        "gc" => cmd_gc(args),
        "dump" => cmd_dump(args),
        _ => usage(),
    }
}

// --- record ----------------------------------------------------------------

fn cmd_record(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let workloads: Vec<_> = if args.is_empty() {
        helios::all_workloads()
    } else {
        args.iter()
            .map(|n| {
                helios::workload(n).unwrap_or_else(|| {
                    eprintln!("unknown workload `{n}`");
                    std::process::exit(helios::exit::USAGE);
                })
            })
            .collect()
    };
    let before = store.stats();
    for w in &workloads {
        match w.stored(&store) {
            Ok(t) => eprintln!("  {}: {} µ-ops", w.name, t.len()),
            Err(e) => {
                eprintln!("error: recording {}: {e}", w.name);
                std::process::exit(helios::exit::FAILED);
            }
        }
    }
    let d = store.stats().since(&before);
    println!(
        "recorded {} workload(s) into {}: {} recorded, {} hits, {} quarantined",
        workloads.len(),
        store.dir().display(),
        d.recorded,
        d.hits,
        d.quarantined
    );
}

// --- info / ls -------------------------------------------------------------

fn emit(report: Report, json: bool) {
    if json {
        print!("{}", report.to_json());
    } else {
        report.print();
    }
}

fn cmd_info(mut args: Vec<String>) {
    let json = take_flag(&mut args, "--json");
    let store = open_store(&mut args);
    let entries = store.entries().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    let uops: u64 = entries.iter().map(|e| e.uops).sum();
    let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    let bpu = if uops == 0 { 0.0 } else { bytes as f64 / uops as f64 };

    let mut t = Table::new(vec!["metric".into(), "value".into()]);
    t.row(vec!["entries (HTRC2)".into(), entries.len().to_string()]);
    t.row(vec!["µ-ops".into(), uops.to_string()]);
    t.row(vec!["corpus bytes".into(), bytes.to_string()]);
    t.row(vec!["bytes/µ-op".into(), format!("{bpu:.3}")]);
    let r = Report::new(
        "trace_info",
        format!("Trace store: {}", store.dir().display()),
        t,
    );
    emit(r, json);
}

fn cmd_ls(mut args: Vec<String>) {
    let json = take_flag(&mut args, "--json");
    let store = open_store(&mut args);
    let entries = store.entries().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    let mut t = Table::new(vec![
        "workload".into(),
        "file".into(),
        "µ-ops".into(),
        "bytes".into(),
        "B/µ-op".into(),
        "checksum".into(),
    ]);
    for e in &entries {
        let file = e
            .path
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_default();
        let bpu = if e.uops == 0 { 0.0 } else { e.bytes as f64 / e.uops as f64 };
        t.row(vec![
            e.name.clone(),
            file,
            e.uops.to_string(),
            e.bytes.to_string(),
            format!("{bpu:.3}"),
            format!("{:016x}", e.stamp.checksum),
        ]);
    }
    let n = entries.len();
    let mut r = Report::new(
        "trace_ls",
        format!("Trace store: {}", store.dir().display()),
        t,
    );
    r.note(format!("{n} entr{}", if n == 1 { "y" } else { "ies" }));
    emit(r, json);
}

// --- verify / gc -----------------------------------------------------------

fn cmd_verify(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let report = store.verify().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    for e in &report.ok {
        println!("ok   {} ({}, {} µ-ops)", e.path.display(), e.name, e.uops);
    }
    for (path, why) in &report.bad {
        println!("BAD  {}: {why}", path.display());
    }
    println!("verified {} ok, {} bad", report.ok.len(), report.bad.len());
    if !report.bad.is_empty() {
        std::process::exit(helios::exit::FAILED);
    }
}

fn cmd_gc(mut args: Vec<String>) {
    let store = open_store(&mut args);
    let report = store.gc().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(helios::exit::FAILED);
    });
    println!(
        "gc {}: removed {} file(s), reclaimed {} bytes",
        store.dir().display(),
        report.removed,
        report.bytes_reclaimed
    );
}

// --- dump (the classic disassembled µ-op view) -----------------------------

fn cmd_dump(args: Vec<String>) {
    let mut positional: Vec<String> = Vec::new();
    let mut konata: Option<String> = None;
    let mut mode = FusionMode::Helios;
    let mut limit: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--konata" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("error: --konata requires an output path");
                    std::process::exit(helios::exit::USAGE);
                };
                konata = Some(path.clone());
            }
            "--mode" => {
                i += 1;
                let name = args.get(i).map(String::as_str).unwrap_or("");
                let Some(m) = FusionMode::ALL.iter().find(|m| m.name() == name) else {
                    let names: Vec<&str> = FusionMode::ALL.iter().map(|m| m.name()).collect();
                    eprintln!("error: --mode must be one of: {}", names.join(", "));
                    std::process::exit(helios::exit::USAGE);
                };
                mode = *m;
            }
            "--limit" => {
                i += 1;
                limit = args.get(i).and_then(|s| s.parse().ok());
                if limit.is_none() {
                    eprintln!("error: --limit requires a µ-op count");
                    std::process::exit(helios::exit::USAGE);
                }
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }

    let name = positional.first().map(String::as_str).unwrap_or("crc32");
    let skip: u64 = positional.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let count: u64 = positional.get(2).and_then(|s| s.parse().ok()).unwrap_or(40);

    let Some(w) = helios::workload(name) else {
        eprintln!("unknown workload `{name}`; see `helios::all_workloads()`");
        std::process::exit(helios::exit::FAILED);
    };

    if let Some(path) = konata {
        let mut obs = ObsOpts::timeline();
        obs.timeline_limit = limit;
        let run = SimRequest::mode(&w, mode).observing(obs).run();
        let observer = run.observer.expect("timeline observer was attached");
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(&path).unwrap_or_else(|e| {
                eprintln!("error: cannot create {path}: {e}");
                std::process::exit(helios::exit::FAILED);
            }),
        );
        observer.write_konata(&mut out).unwrap_or_else(|e| {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(helios::exit::FAILED);
        });
        eprintln!(
            "wrote {path}: {} µ-op records, {} commits, {} cycles ({}, {})",
            observer.records().len(),
            observer.commit_events(),
            run.stats.cycles,
            w.name,
            mode.name(),
        );
        return;
    }

    println!("{}: retired µ-ops {skip}..{}", w.name, skip + count);
    for r in w.stream().skip(skip as usize).take(count as usize) {
        let mem = match r.mem {
            Some(m) => format!(
                " [{}{:#x}+{}]",
                if m.is_store { "st " } else { "ld " },
                m.addr,
                m.size
            ),
            None => String::new(),
        };
        let ctrl = if r.control_taken() {
            format!(" -> {:#x}", r.next_pc)
        } else {
            String::new()
        };
        println!(
            "{:>8}  {:#010x}  {:<28}{}{}",
            r.seq,
            r.pc,
            disassemble(&r.inst),
            mem,
            ctrl
        );
    }
}
