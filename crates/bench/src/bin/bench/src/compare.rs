//! `bench compare`: parent runs against change runs, one row per
//! (workload, end-to-end metric), judged with the bounds in
//! `BENCHMARK.json`. A gain needs nine paired wins in ten and a median gap
//! wider than the parent's own spread; a loss beyond the bound is a
//! regression; a spread wider than the bound leaves the metric unresolved.

use crate::stats;
use helios::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// How a change moved one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A claimable gain: ≥ 9/10 paired wins and a median gap wider than
    /// the parent's interquartile range (or, where the spread is wider
    /// than the bound, every change run better than every parent run).
    Improved,
    /// Worse by no more than the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

/// One side's summary: median and quartiles.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let m = stats::median(values);
        let (q1, q3) = stats::quartiles(values).unwrap_or((m, m));
        Side { median: m, q1, q3 }
    }

    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The full judgement of one (workload, metric) pairing.
#[derive(Debug)]
pub struct Judgement {
    pub parent: Side,
    pub change: Side,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Judges `change` against `parent` (runs paired by position, so pass
/// them in seed order). `lower_is_better` gives the metric's direction and
/// `bound` the share of the parent median it may worsen by.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (p, c) = (Side::of(parent), Side::of(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&pv, &cv)| better(cv, pv))
        .count();
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let worse_by = if lower_is_better {
        c.median - p.median
    } else {
        p.median - c.median
    } / p.median.abs();
    let verdict = if p.spread() > bound || c.spread() > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if wins * 10 >= pairs * 9
        && better(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Judgement {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(benchmark: &Json) -> Result<Vec<Declared>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(Declared {
                name: field("name")?
                    .as_str()
                    .ok_or("metric name is not a string")?
                    .to_string(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// (workload, metric) → (seed, value) over every run document under `path`
/// (a `bench run --json` file, or a directory of them).
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load_runs(path: &Path) -> Result<Runs, String> {
    let files = if path.is_dir() {
        let mut f: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        f.sort();
        f
    } else {
        vec![path.to_path_buf()]
    };
    let mut runs = Runs::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(crate::LEDGER_SCHEMA) {
            return Err(format!(
                "{}: not a {} document",
                file.display(),
                crate::LEDGER_SCHEMA
            ));
        }
        let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(0);
        for w in doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap_or_default()
        {
            let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
            for m in w
                .get("metrics")
                .and_then(Json::as_array)
                .unwrap_or_default()
            {
                if let (Some(metric), Some(value)) = (
                    m.get("name").and_then(Json::as_str),
                    m.get("value").and_then(Json::as_f64),
                ) {
                    runs.entry((name.to_string(), metric.to_string()))
                        .or_default()
                        .push((seed, value));
                }
            }
        }
    }
    for v in runs.values_mut() {
        v.sort_by_key(|r| r.0);
    }
    Ok(runs)
}

/// Prints the comparison table; returns whether any metric regressed.
pub fn compare(benchmark: &Path, parent: &Path, change: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let metrics =
        declared(&Json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?)?;
    let (parent, change) = (load_runs(parent)?, load_runs(change)?);
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = parent.keys().map(|k| &k.0).collect();
        w.dedup();
        w
    };
    println!(
        "{:<14} {:<12} {:>28} {:>28} {:>36} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "change/parent (base)",
        "wins"
    );
    let mut regressed = false;
    for w in workloads {
        for m in &metrics {
            let key = (w.clone(), m.name.clone());
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                println!("{w:<14} {:<12} missing on one side", m.name);
                continue;
            };
            let values = |r: &[(u64, f64)]| r.iter().map(|x| x.1).collect::<Vec<_>>();
            let j = judge(&values(p), &values(c), m.lower_is_better, m.bound);
            regressed |= j.verdict == Verdict::Regressed;
            let side = |s: Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            let ratio = format!(
                "{:.4} (base {:.4} {})",
                j.change.median / j.parent.median,
                j.parent.median,
                m.unit
            );
            println!(
                "{w:<14} {:<12} {:>28} {:>28} {:>36} {:>6}  {:?} (bound {}, spread {:.3}/{:.3})",
                m.name,
                side(j.parent),
                side(j.change),
                ratio,
                format!("{}/{}", j.wins, j.pairs),
                j.verdict,
                m.bound,
                j.parent.spread(),
                j.change.spread()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.1, 9.9];

    #[test]
    fn a_consistent_gain_beyond_the_parent_spread_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.5).collect();
        let j = judge(&PARENT, &change, true, 0.1);
        assert_eq!((j.verdict, j.wins, j.pairs), (Verdict::Improved, 10, 10));
    }

    #[test]
    fn eight_of_ten_wins_is_not_a_claim() {
        let mut change: Vec<f64> = PARENT.iter().map(|v| v - 0.5).collect();
        change[0] = 11.0;
        change[1] = 11.0;
        assert_eq!(
            judge(&PARENT, &change, true, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_gap_inside_the_parent_iqr_is_not_a_claim() {
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.01).collect();
        assert_eq!(
            judge(&PARENT, &change, true, 0.1).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_in_either_direction() {
        let slower: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            judge(&PARENT, &slower, true, 0.1).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&PARENT, &slower, true, 0.25).verdict,
            Verdict::Unchanged
        );
        // For a higher-is-better metric the same numbers are a gain.
        assert_eq!(
            judge(&PARENT, &slower, false, 0.1).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [5.0, 15.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0, 10.0];
        assert_eq!(
            judge(&PARENT, &noisy, true, 0.1).verdict,
            Verdict::Unresolved
        );
        let all_faster: Vec<f64> = noisy.iter().map(|v| v / 4.0).collect();
        assert_eq!(
            judge(&PARENT, &all_faster, true, 0.1).verdict,
            Verdict::Improved
        );
    }
}
