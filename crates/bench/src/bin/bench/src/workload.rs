//! What every workload shares: the run context, the outcome it reports,
//! set-up repetition, the timed pass loop, and the seed permutation.

use crate::golden::Golden;
use crate::spans::{Span, SpanId, Tracer};
use crate::stats;
use helios::Workload;
use helios_prng::{SeedableRng, SliceRandom, StdRng};
use std::path::PathBuf;
use std::time::Instant;

/// Each run sets its workload up at least this many times, and `setup_s`
/// is the median.
const SETUP_MIN_REPS: usize = 5;

/// Set-ups repeat until they have taken this long in total (or
/// [`SETUP_MAX_REPS`]), so a set-up of a few milliseconds still gets a
/// steady median.
const SETUP_MIN_TOTAL_S: f64 = 0.25;

const SETUP_MAX_REPS: usize = 50;

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Inputs of one workload run.
pub struct Ctx<'a> {
    /// Permutes kernel and request order; never changes a model result.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Scratch directory owned by this run.
    pub tmp: PathBuf,
    pub golden: &'a Golden,
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells, trace writes and reads, requests.
    pub attempted: u64,
    /// Operations that failed: quarantined cells, golden mismatches,
    /// request errors, store verify failures.
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Milliseconds `all_workloads` took in each set-up repetition.
    pub assemble_ms: Vec<f64>,
    /// Wall seconds of each untraced timed pass.
    pub walls: Vec<f64>,
    /// CPU seconds per untraced pass, over the whole timed phase.
    pub cpu_per_pass: f64,
    /// Peak resident set over set-up and the timed phase, in MiB.
    pub peak_rss_mb: f64,
    /// Workload-specific end-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub layer: Vec<Metric>,
    /// The traced pass's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records one attempted operation and, on error, its failure.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Median wall seconds of the untraced passes.
    pub fn wall_s(&self) -> f64 {
        stats::median(&self.walls)
    }

    /// Runs `setup` repeatedly, timing each, and keeps the last result.
    /// Earlier results are dropped outside the timed interval.
    pub fn repeated_setup<T>(&mut self, mut setup: impl FnMut(&mut Outcome) -> T) -> T {
        let mut kept = None;
        loop {
            drop(kept.take());
            let t = Instant::now();
            let v = setup(self);
            self.setup_s.push(t.elapsed().as_secs_f64());
            let (reps, total) = (self.setup_s.len(), self.setup_s.iter().sum::<f64>());
            if reps >= SETUP_MAX_REPS || (reps >= SETUP_MIN_REPS && total >= SETUP_MIN_TOTAL_S) {
                return v;
            }
            kept = Some(v);
        }
    }

    /// The timed phase: whole passes until the run's seconds have elapsed
    /// and at least two have run, or, before a traced pass, one untraced
    /// reference pass. Records the wall seconds each pass returns for its
    /// measured part, the CPU time per pass and the peak resident set. A
    /// pass returns `None` when the system under test is gone (the failure
    /// already counted), which ends the phase.
    ///
    /// Two passes at least, because the allocator's peak after one pass
    /// depends on the seed's kernel order and settles after the second.
    pub fn timed_passes(
        &mut self,
        ctx: &Ctx,
        traced: bool,
        mut pass: impl FnMut(&mut Outcome) -> Option<f64>,
    ) {
        let (seconds, min_passes) = if traced { (0.0, 1) } else { (ctx.seconds, 2) };
        let (start, cpu0) = (Instant::now(), stats::cpu_seconds());
        while let Some(wall) = pass(self) {
            self.walls.push(wall);
            if self.walls.len() >= min_passes && start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        self.cpu_per_pass = (stats::cpu_seconds() - cpu0) / self.walls.len().max(1) as f64;
        self.peak_rss_mb = stats::peak_rss_mb();
    }

    /// Records the common per-layer metrics of a traced run: assembly and
    /// lookup cost, and the tracing overhead of the traced passes (all
    /// under `root`) over the untraced reference passes.
    pub fn finish_trace(&mut self, tracer: &Tracer, root: SpanId, passes: usize) {
        tracer.close(root);
        self.spans = tracer.spans();
        let traced_s = self.spans[root].dur_ns() as f64 * 1e-9 / passes as f64;
        let lookups = crate::spans::durations_ms(&self.spans, "workloads.lookup");
        let assemble = stats::median(&self.assemble_ms);
        let untraced = self.wall_s();
        self.layer("workloads.assemble_ms", assemble, "ms");
        self.layer("workloads.lookup_ms", stats::median(&lookups), "ms");
        self.layer(
            "trace.overhead_pct",
            (traced_s / untraced - 1.0) * 100.0,
            "%",
        );
        self.layer("trace.spans", self.spans.len() as f64, "count");
    }
}

/// Times `helios::all_workloads` and returns the kernels named in `names`,
/// in seed order.
pub fn select(out: &mut Outcome, seed: u64, names: &[&str]) -> Vec<Workload> {
    let t = Instant::now();
    let all = helios::all_workloads();
    out.assemble_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let picked: Vec<Workload> = all
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    permuted(&picked, seed)
}

/// `items` shuffled by `seed`: the same seed always gives the same order.
pub fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    v.shuffle(&mut StdRng::seed_from_u64(seed));
    v
}

/// Opens a traced pass: the root span plus one timed `helios::workload`
/// lookup per kernel, the call `sweepd` makes per request.
pub fn open_trace(tracer: &Tracer, workload: &str, kernels: &[Workload]) -> SpanId {
    let root = tracer.open("pass", None, workload);
    for w in kernels {
        let (found, _) = tracer.span("workloads.lookup", Some(root), w.name, || {
            helios::workload(w.name)
        });
        std::hint::black_box(found);
    }
    root
}

/// Drains a replay cursor, returning the µ-op count.
pub fn drain(trace: &helios::Trace) -> u64 {
    let mut n = 0;
    for u in trace.replay() {
        std::hint::black_box(&u);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios::FusionMode;

    #[test]
    fn permutation_is_stable_per_seed_and_varies_across_seeds() {
        let names: Vec<&str> = helios::all_workloads().iter().map(|w| w.name).collect();
        assert_eq!(permuted(&names, 7), permuted(&names, 7));
        assert_ne!(permuted(&names, 7), permuted(&names, 8));
        let mut sorted = permuted(&names, 7);
        sorted.sort_unstable();
        let mut original = names.clone();
        original.sort_unstable();
        assert_eq!(sorted, original, "a permutation keeps every kernel");
    }

    #[test]
    fn golden_check_is_unaffected_by_the_seed() {
        // The same cells simulated in two seed orders pass the same checks.
        let golden = Golden::embedded();
        let mut a = Outcome::default();
        let ws = select(&mut a, 1, &["fft", "dijkstra", "crc32"]);
        assert_ne!(
            ws.iter().map(|w| w.name).collect::<Vec<_>>(),
            select(&mut a, 2, &["fft", "dijkstra", "crc32"])
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
        for seed in [1, 2] {
            let mut out = Outcome::default();
            for w in select(&mut out, seed, &["fft", "dijkstra", "crc32"]) {
                let trace = w.trace().expect("kernel halts");
                out.op(golden.check_trace(&w, &trace));
                let run = helios::SimRequest::mode(&w, FusionMode::Helios)
                    .replaying(&trace)
                    .try_run()
                    .expect("cell simulates");
                out.op(golden.check(w.name, FusionMode::Helios, &run.stats));
            }
            assert_eq!((out.attempted, out.failed), (6, 0), "{:?}", out.errors);
        }
    }

    #[test]
    fn timed_passes_run_twice_at_least_and_until_the_deadline() {
        let golden = Golden::embedded();
        let ctx = |seconds| Ctx {
            seed: 1,
            seconds,
            tmp: PathBuf::new(),
            golden: &golden,
        };
        let mut out = Outcome::default();
        out.timed_passes(&ctx(0.0), false, |_| Some(1.0));
        assert_eq!(out.walls, vec![1.0, 1.0]);
        assert!(out.peak_rss_mb > 0.0);
        let mut out = Outcome::default();
        out.timed_passes(&ctx(60.0), true, |_| Some(1.0));
        assert_eq!(
            out.walls,
            vec![1.0],
            "one reference pass before a traced one"
        );
        let mut out = Outcome::default();
        out.timed_passes(&ctx(0.02), false, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Some(0.005)
        });
        assert!(out.walls.len() >= 4);
        let mut out = Outcome::default();
        out.timed_passes(&ctx(60.0), false, |_| None);
        assert!(
            out.walls.is_empty(),
            "a pass that finds the system gone ends the phase"
        );
    }

    #[test]
    fn setup_repeats_until_enough_time_and_keeps_the_last_repetition() {
        let mut out = Outcome::default();
        let mut n = 0;
        assert_eq!(
            out.repeated_setup(|_| {
                n += 1;
                n
            }),
            SETUP_MAX_REPS,
            "instant set-ups hit the cap"
        );
        assert_eq!(out.setup_s.len(), SETUP_MAX_REPS);
        let mut out = Outcome::default();
        out.repeated_setup(|_| std::thread::sleep(std::time::Duration::from_millis(60)));
        assert_eq!(
            out.setup_s.len(),
            SETUP_MIN_REPS,
            "slow set-ups stop at the minimum"
        );
    }
}
