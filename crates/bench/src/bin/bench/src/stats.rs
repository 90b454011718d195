//! Order statistics and process probes shared by the workloads and
//! `bench compare`.

/// Sorts a copy of `values` (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile `q` (0 < q ≤ 1): the smallest sample with at
/// least a `q` share of the samples at or below it. `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (average of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile with Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method), so spreads read the same here
/// as in any script that re-derives them. Needs two or more samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The highest tail percentile the sample count supports: one with at
/// least ten samples beyond it, so the tail is measured rather than
/// guessed. Returns the quantile and its label, or `None` when even p90
/// has fewer than ten beyond.
pub fn tail_percentile(samples: usize) -> Option<(f64, &'static str)> {
    [(0.999, "p999"), (0.99, "p99"), (0.9, "p90")]
        .into_iter()
        .find(|&(q, _)| samples - (q * samples as f64).ceil() as usize >= 10)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process (all threads), in seconds,
/// from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    // /proc reports clock ticks in USER_HZ, which Linux fixes at 100.
    const USER_HZ: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may hold
            // spaces; utime and stime are fields 14 and 15 of the line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = f.get(11)?.parse().ok()?;
            let stime: f64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(f64::NAN)
}

/// The 1-, 5- and 15-minute load averages, as `/proc/loadavg` prints them.
pub fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None, "p90 of 99 has only 9 beyond");
        assert_eq!(tail_percentile(100).map(|p| p.1), Some("p90"));
        assert_eq!(tail_percentile(200).map(|p| p.1), Some("p90"));
        assert_eq!(tail_percentile(999).map(|p| p.1), Some("p90"));
        assert_eq!(tail_percentile(1000).map(|p| p.1), Some("p99"));
        assert_eq!(tail_percentile(10_000).map(|p| p.1), Some("p999"));
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.9), 180.0);
        assert_eq!(v.iter().filter(|&&x| x > quantile(&v, 0.9)).count(), 20);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn process_probes_read_proc() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert_eq!(load_average().split_whitespace().count(), 3);
    }
}
