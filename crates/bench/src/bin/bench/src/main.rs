//! `bench` — the Helios benchmark: four workloads, each measured end to end
//! (tracing off) or per layer (`--trace`), every simulated result checked
//! against the committed goldens. See README.md beside this crate.
//!
//! ```text
//! bench run <workload|all> [--seed N] [--seconds S] [--trace 0|1|SPANS.json] [--json OUT.json]
//! bench --workload <name> --seed N --seconds S --trace 0|1
//! bench golden > golden.tsv
//! bench compare <parent-runs> <change-runs>
//! bench list
//! ```

mod compare;
mod corpus;
mod fig10;
mod golden;
mod spans;
mod stats;
mod sweepd;
mod workload;

use golden::Golden;
use helios::{FusionMode, Json, SweepOptions};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use workload::{Ctx, Metric, Outcome};

/// Schema tag of the run documents `--json` writes and `compare` reads.
pub const LEDGER_SCHEMA: &str = "helios-bench-v1";

/// Schema tag of the span files `--trace` writes.
const SPANS_SCHEMA: &str = "helios-bench-spans-v1";

/// Timed-phase length when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// A workload: its name, why it exists, and how it runs.
struct Spec {
    name: &'static str,
    why: &'static str,
    run: fn(&Ctx, bool) -> Outcome,
}

const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fig10-quick",
        why: "the fig10 --quick sweep (8 kernels x 6 modes) through run_sweep_opts at one job; the pipeline does nearly all the work",
        run: fig10::run,
    },
    Spec {
        name: "trace-corpus",
        why: "write then read all 32 traces through an empty trace store; emulator, codec and store I/O only, no pipeline",
        run: corpus::run,
    },
    Spec {
        name: "sweepd-cold",
        why: "two racing clients send the same 8 one-kernel requests to a daemon with an empty result cache; simulation dominates",
        run: sweepd::run_cold,
    },
    Spec {
        name: "sweepd-warm",
        why: "two clients send one-kernel requests that all hit the result cache; HTTP, JSON, cache and client cost, no pipeline",
        run: sweepd::run_warm,
    },
];

/// End-to-end metrics every workload reports (tracing off).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports; a layer a workload does not
/// cross reads 0. Only the first two, which every workload measures, are
/// times.
const PER_LAYER: [(&str, &str); 28] = [
    ("workloads.assemble_ms", "ms"),
    ("workloads.lookup_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("emu.record.mups_per_s", "Mu/s"),
    ("emu.replay.mem_mups_per_s", "Mu/s"),
    ("emu.codec.encode_mups_per_s", "Mu/s"),
    ("emu.codec.decode_mups_per_s", "Mu/s"),
    ("emu.codec.bytes_per_uop", "B/uop"),
    ("emu.store.hit_mups_per_s", "Mu/s"),
    ("emu.store.io_pct", "%"),
    ("emu.store.recorded", "count"),
    ("emu.store.hits", "count"),
    ("emu.store.quarantined", "count"),
    ("uarch.pipeline.mcycles_per_s.nofusion", "Mcycles/s"),
    ("uarch.pipeline.mcycles_per_s.riscvfusion", "Mcycles/s"),
    ("uarch.pipeline.mcycles_per_s.csf-sbr", "Mcycles/s"),
    ("uarch.pipeline.mcycles_per_s.riscvfusion-pp", "Mcycles/s"),
    ("uarch.pipeline.mcycles_per_s.helios", "Mcycles/s"),
    ("uarch.pipeline.mcycles_per_s.oraclefusion", "Mcycles/s"),
    ("uarch.sim_cycles", "count"),
    ("experiment.overhead_pct", "%"),
    ("server.sim_cells", "count"),
    ("server.cache_hits", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.dup_sim_ratio", "ratio"),
    ("server.wire_pct", "%"),
    ("server.queue_pct", "%"),
    ("trace.spans", "count"),
];

fn usage() -> ! {
    eprintln!(
        "usage: bench run <workload|all> [--seed N] [--seconds S] [--trace 0|1|SPANS.json] [--json OUT.json]\n\
         \x20      bench --workload <name> --seed N --seconds S --trace 0|1\n\
         \x20      bench golden\n\
         \x20      bench compare <parent-runs> <change-runs>\n\
         \x20      bench list"
    );
    std::process::exit(2);
}

/// Parsed `run` arguments.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `None`: tracing off. `Some(path)`: spans go to `path`.
    trace: Option<Option<PathBuf>>,
    json: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> RunArgs {
    let mut r = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        json: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => r.workload = value(),
            "--seed" => r.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                r.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                r.trace = match value().as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(PathBuf::from(path))),
                }
            }
            "--json" => r.json = Some(PathBuf::from(value())),
            name if !name.starts_with('-') && r.workload.is_empty() => {
                r.workload = name.to_string()
            }
            _ => usage(),
        }
    }
    if r.workload.is_empty() {
        usage();
    }
    r
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&parse_run(&args[1..])),
        Some(a) if a.starts_with("--") => run(&parse_run(&args)),
        Some("golden") => golden(),
        Some("compare") if args.len() == 3 => {
            match compare::compare(
                Path::new("BENCHMARK.json"),
                Path::new(&args[1]),
                Path::new(&args[2]),
            ) {
                Ok(regressed) => i32::from(regressed),
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        Some("list") => {
            for w in &WORKLOADS {
                println!("{:<14} {}", w.name, w.why);
            }
            0
        }
        _ => usage(),
    };
    std::process::exit(code);
}

/// Cargo's target directory (where the benchmark keeps scratch state and
/// span files), relative to the working directory.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn run(args: &RunArgs) -> i32 {
    if args.workload == "all" {
        return run_all(args);
    }
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "error: unknown workload `{}` (see `bench list`)",
            args.workload
        );
        return 2;
    };
    run_one(spec, args)
}

/// Host facts recorded with every JSON output.
fn host(seed: u64, load_before: &str) -> Json {
    let first_line = |cmd: &mut Command| {
        cmd.stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    // Only a repository rooted here counts: the benchmark may run from an
    // exported tree that sits inside some other repository.
    let cwd = std::env::current_dir().unwrap_or_default();
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = cwd.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let str = |s: &str| Json::Str(s.to_string());
    Json::Obj(vec![
        (
            "nproc".to_string(),
            Json::Num(helios::default_jobs() as f64),
        ),
        (
            "rustc".to_string(),
            str(&first_line(Command::new("rustc").arg("-V"))),
        ),
        ("git".to_string(), str(&first_line(&mut git))),
        ("load_before".to_string(), str(load_before)),
        ("load_after".to_string(), str(&stats::load_average())),
        ("seed".to_string(), Json::Num(seed as f64)),
    ])
}

fn metric_json(m: &Metric, kind: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(m.name.clone())),
        ("value".to_string(), Json::Num(m.value)),
        ("unit".to_string(), Json::Str(m.unit.to_string())),
        ("kind".to_string(), Json::Str(kind.to_string())),
    ])
}

fn write_json(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// The object the benchmark prints as its last line; `metrics` maps each
/// name to `{"value": …, "unit": …}`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// Runs one workload in this process.
fn run_one(spec: &Spec, args: &RunArgs) -> i32 {
    let load_before = stats::load_average();
    let traced = args.trace.is_some();
    let tmp = target_dir()
        .join("bench-tmp")
        .join(format!("{}-{}", spec.name, std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: {}: {e}", tmp.display());
        return 1;
    }
    let golden = Golden::embedded();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tmp: tmp.clone(),
        golden: &golden,
    };
    let out = (spec.run)(&ctx, traced);
    std::fs::remove_dir_all(&tmp).ok();

    let metric = |name: &str, value: f64, unit: &'static str| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    let mut e2e = vec![
        metric("setup_s", stats::median(&out.setup_s), "s"),
        metric("wall_s", out.wall_s(), "s"),
        metric("cpu_s", out.cpu_per_pass, "s"),
        metric("peak_rss_mb", out.peak_rss_mb, "MiB"),
    ];
    e2e.extend(out.e2e.iter().cloned());
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    e2e.push(metric("failed_frac", failed_frac, "ratio"));
    let mut layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            metric(
                name,
                out.layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value),
                unit,
            )
        })
        .collect();
    if traced {
        layer.extend(
            out.layer
                .iter()
                .filter(|m| !PER_LAYER.iter().any(|p| p.0 == m.name))
                .cloned(),
        );
    }
    let correct = out.failed == 0 && out.attempted > 0 && e2e.iter().all(|m| m.value.is_finite());

    println!(
        "bench {} · seed {} · {} s · trace {} · {} operations, {} failed",
        spec.name,
        args.seed,
        args.seconds,
        if traced { "on" } else { "off" },
        out.attempted,
        out.failed
    );
    for e in &out.errors {
        eprintln!("  failure: {e}");
    }
    print_metrics("end to end:", &e2e);
    if traced {
        print_metrics("per layer:", &layer);
        print_layer_table(&out.spans);
    }

    let host = host(args.seed, &load_before);
    println!("host: {host}");
    let mut status = if correct { 0 } else { 1 };
    if let Some(spans_path) = &args.trace {
        let path = spans_path.clone().unwrap_or_else(|| {
            target_dir()
                .join("bench")
                .join(format!("spans-{}-seed{}.json", spec.name, args.seed))
        });
        let doc = Json::Obj(vec![
            ("schema".to_string(), Json::Str(SPANS_SCHEMA.to_string())),
            ("workload".to_string(), Json::Str(spec.name.to_string())),
            ("host".to_string(), host.clone()),
            ("spans".to_string(), spans::to_json(&out.spans)),
        ]);
        match write_json(&path, &doc) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                status = 1;
            }
        }
    }
    if let Some(path) = &args.json {
        let metrics = e2e.iter().map(|m| metric_json(m, "end_to_end"));
        let metrics = metrics.chain(
            layer
                .iter()
                .filter(|_| traced)
                .map(|m| metric_json(m, "per_layer")),
        );
        let doc = ledger(
            args,
            vec![Json::Obj(vec![
                ("name".to_string(), Json::Str(spec.name.to_string())),
                ("host".to_string(), host),
                ("correct".to_string(), Json::Bool(correct)),
                ("attempted".to_string(), Json::Num(out.attempted as f64)),
                ("failed".to_string(), Json::Num(out.failed as f64)),
                (
                    "errors".to_string(),
                    Json::Arr(out.errors.iter().map(|e| Json::Str(e.clone())).collect()),
                ),
                ("metrics".to_string(), Json::Arr(metrics.collect())),
            ])],
        );
        if let Err(e) = write_json(path, &doc) {
            eprintln!("error: {e}");
            status = 1;
        }
    }
    let (declared, reported): (&[(&str, &str)], _) = if traced {
        (&PER_LAYER, &layer)
    } else {
        (&END_TO_END, &e2e)
    };
    let metrics = reported
        .iter()
        .filter(|m| declared.iter().any(|d| d.0 == m.name))
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.to_string())),
            ]);
            (m.name.clone(), v)
        })
        .collect();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, metrics)
    );
    status
}

fn ledger(args: &RunArgs, workloads: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".to_string(), Json::Str(LEDGER_SCHEMA.to_string())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace.is_some())),
        ("workloads".to_string(), Json::Arr(workloads)),
    ])
}

/// Calls, total time, self time and share of the traced wall time per
/// layer (the root `pass` span's self time is the benchmark's own work).
fn print_layer_table(spans: &[spans::Span]) {
    let wall_ns = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(spans::Span::dur_ns)
        .sum::<u64>()
        .max(1);
    println!(
        "spans by layer ({} spans, traced wall {:.3} s):",
        spans.len(),
        wall_ns as f64 * 1e-9
    );
    println!(
        "  {:<22} {:>7} {:>12} {:>12} {:>7}",
        "layer", "calls", "total ms", "self ms", "share"
    );
    for r in spans::layer_table(spans) {
        println!(
            "  {:<22} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            r.name,
            r.calls,
            r.total_ns as f64 * 1e-6,
            r.self_ns as f64 * 1e-6,
            r.self_ns as f64 * 100.0 / wall_ns as f64
        );
    }
}

/// Runs every workload in its own child process (so each reports its own
/// peak RSS), forwarding their output and merging their run documents.
fn run_all(args: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return 1;
        }
    };
    let scratch = target_dir().join("bench");
    let (mut status, mut attempted, mut failed, mut correct) = (0, 0u64, 0u64, true);
    let mut docs = Vec::new();
    let mut summary = Vec::new();
    for spec in &WORKLOADS {
        let child_json = scratch.join(format!("child-{}-{}.json", spec.name, std::process::id()));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", spec.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--json"])
            .arg(&child_json)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        match &args.trace {
            None => cmd.args(["--trace", "0"]),
            Some(None) => cmd.args(["--trace", "1"]),
            Some(Some(p)) => cmd
                .arg("--trace")
                .arg(p.with_extension(format!("{}.json", spec.name))),
        };
        if let Some(json) = &args.json {
            let log = json.with_extension("log");
            match std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log)
            {
                Ok(f) => cmd.stderr(f),
                Err(e) => {
                    eprintln!("error: {}: {e}", log.display());
                    return 1;
                }
            };
        }
        std::fs::create_dir_all(&scratch).ok();
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: starting {}: {e}", spec.name);
                return 1;
            }
        };
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut last = String::new();
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if !last.is_empty() {
                println!("{last}");
            }
            last = line;
        }
        let exit = child.wait().map(|s| s.code().unwrap_or(1)).unwrap_or(1);
        status = status.max(exit);
        let result = Json::parse(&last).ok();
        correct &=
            exit == 0 && result.as_ref().and_then(|r| r.get("correct")) == Some(&Json::Bool(true));
        let count = |k: &str| {
            result
                .as_ref()
                .and_then(|r| r.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        attempted += count("attempted");
        failed += count("failed");
        for (name, m) in result
            .as_ref()
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .unwrap_or_default()
        {
            summary.push((format!("{}.{name}", spec.name), m.clone()));
        }
        let doc = std::fs::read_to_string(&child_json)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        std::fs::remove_file(&child_json).ok();
        docs.extend(
            doc.as_ref()
                .and_then(|d| d.get("workloads"))
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
    }
    if let Some(path) = &args.json {
        if let Err(e) = write_json(path, &ledger(args, docs)) {
            eprintln!("error: {e}");
            status = status.max(1);
        }
    }
    println!("{}", result_line(correct, attempted, failed, summary));
    status
}

/// Simulates the whole 32 × 6 grid and prints it as `golden.tsv`.
fn golden() -> i32 {
    let all = helios::all_workloads();
    let sweep = match helios::run_sweep_opts(&all, &FusionMode::ALL, &SweepOptions::default()) {
        Ok(s) if s.is_complete() => s,
        Ok(s) => {
            for f in s.failures() {
                eprintln!(
                    "error: {}/{}: {}",
                    f.workload,
                    f.mode.name(),
                    f.outcome.describe()
                );
            }
            return 1;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print!(
        "{}",
        Golden::render(
            sweep
                .results()
                .iter()
                .map(|r| (r.workload, r.mode, &r.stats))
        )
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists compiled in here are the ones `BENCHMARK.json`
    /// declares, names and units alike.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = Json::parse(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"),
        )
        .expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workload list")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
        for mode in FusionMode::ALL {
            let name = format!("uarch.pipeline.mcycles_per_s.{}", fig10::mode_key(mode));
            assert!(PER_LAYER.iter().any(|p| p.0 == name), "{name}");
        }
    }
}
