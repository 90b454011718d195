//! Self-describing statistics registry.
//!
//! Every counter and histogram a simulation produces is exported into a
//! [`StatsRegistry`] entry carrying its name, description, and unit — the
//! gem5-style model where the stats *are* the schema. [`crate::SimStats`]
//! stays a plain hot-path struct; [`crate::SimStats::export`] turns it into
//! a registry view after the run, and the registry renders losslessly to
//! JSON or CSV.

use std::fmt;

/// Measurement unit of a registry entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Unit {
    /// Simulated clock cycles.
    Cycles,
    /// Architectural instructions.
    Instructions,
    /// µ-ops.
    Uops,
    /// Fused pairs.
    Pairs,
    /// Generic event count.
    Events,
    /// Occupied structure entries.
    Entries,
    /// Percentage (0–100).
    Percent,
    /// Dimensionless ratio.
    Ratio,
    /// Mispredictions per kilo-instruction.
    Mpki,
}

impl Unit {
    /// Stable short name used in JSON/CSV emission and schema snapshots.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Cycles => "cycles",
            Unit::Instructions => "insts",
            Unit::Uops => "uops",
            Unit::Pairs => "pairs",
            Unit::Events => "events",
            Unit::Entries => "entries",
            Unit::Percent => "percent",
            Unit::Ratio => "ratio",
            Unit::Mpki => "mpki",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. Exact count / sum / min / max are tracked alongside, so
/// means are exact even though the distribution is bucketed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket holding `v`.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of the same value `v` — identical to calling
    /// [`Histogram::record`] `n` times.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum += v * n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), c))
    }
}

/// The value of one registry entry.
// Histograms dominate the size; registries hold dozens of entries at most,
// so the indirection of boxing would cost more than the padding saves.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, PartialEq, Debug)]
pub enum StatValue {
    /// An exact event count.
    Count(u64),
    /// A derived floating-point metric.
    Gauge(f64),
    /// A sample distribution.
    Hist(Histogram),
}

/// One self-describing statistic.
#[derive(Clone, PartialEq, Debug)]
pub struct StatEntry {
    /// Stable dotted name (e.g. `fusion.csf_pairs`).
    pub name: &'static str,
    /// One-line human description.
    pub desc: &'static str,
    /// Measurement unit.
    pub unit: Unit,
    /// The value.
    pub value: StatValue,
}

/// An ordered collection of self-describing statistics.
///
/// Entries keep insertion order so text dumps and JSON artifacts are stable
/// across runs; names must be unique (debug-asserted).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StatsRegistry {
    entries: Vec<StatEntry>,
}

impl StatsRegistry {
    /// An empty registry.
    pub fn new() -> StatsRegistry {
        StatsRegistry::default()
    }

    /// Adds an exact counter.
    pub fn counter(&mut self, name: &'static str, desc: &'static str, unit: Unit, v: u64) {
        self.push(StatEntry {
            name,
            desc,
            unit,
            value: StatValue::Count(v),
        });
    }

    /// Adds a derived floating-point metric.
    pub fn gauge(&mut self, name: &'static str, desc: &'static str, unit: Unit, v: f64) {
        self.push(StatEntry {
            name,
            desc,
            unit,
            value: StatValue::Gauge(v),
        });
    }

    /// Adds a histogram.
    pub fn hist(&mut self, name: &'static str, desc: &'static str, unit: Unit, h: Histogram) {
        self.push(StatEntry {
            name,
            desc,
            unit,
            value: StatValue::Hist(h),
        });
    }

    fn push(&mut self, e: StatEntry) {
        debug_assert!(
            !self.entries.iter().any(|x| x.name == e.name),
            "duplicate stat name {}",
            e.name
        );
        self.entries.push(e);
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[StatEntry] {
        &self.entries
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&StatEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The exact value of counter `name` (`None` if absent or not a counter).
    pub fn count(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            StatValue::Count(v) => Some(v),
            _ => None,
        }
    }

    /// `(name, unit)` pairs in registration order — the schema the snapshot
    /// test pins.
    pub fn schema(&self) -> Vec<(&'static str, &'static str)> {
        self.entries
            .iter()
            .map(|e| (e.name, e.unit.name()))
            .collect()
    }

    /// Lossless JSON document: every entry with name, description, unit, and
    /// value. Counters emit as exact integers; gauges use shortest-roundtrip
    /// formatting with non-finite values mapped to `null`; histograms emit
    /// count/sum/min/max plus non-empty `[lower_bound, count]` buckets.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"schema\": \"helios-stats-v1\",\n  \"stats\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str("    {\"name\": ");
            json_string(&mut s, e.name);
            s.push_str(", \"unit\": ");
            json_string(&mut s, e.unit.name());
            s.push_str(", \"desc\": ");
            json_string(&mut s, e.desc);
            match &e.value {
                StatValue::Count(v) => {
                    s.push_str(", \"value\": ");
                    s.push_str(&v.to_string());
                }
                StatValue::Gauge(v) => {
                    s.push_str(", \"value\": ");
                    push_json_f64(&mut s, *v);
                }
                StatValue::Hist(h) => {
                    s.push_str(&format!(
                        ", \"hist\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                    ));
                    for (j, (lo, c)) in h.buckets().enumerate() {
                        if j > 0 {
                            s.push_str(", ");
                        }
                        s.push_str(&format!("[{lo}, {c}]"));
                    }
                    s.push_str("]}");
                }
            }
            s.push('}');
            if i + 1 < self.entries.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Lossless CSV: `name,unit,value` rows; histograms flatten into
    /// `name.count` / `name.sum` / `name.min` / `name.max` and one
    /// `name.le_<bound>` row per non-empty bucket.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("name,unit,value\n");
        for e in &self.entries {
            match &e.value {
                StatValue::Count(v) => {
                    s.push_str(&format!("{},{},{}\n", e.name, e.unit.name(), v));
                }
                StatValue::Gauge(v) => {
                    s.push_str(&format!("{},{},{}\n", e.name, e.unit.name(), FmtF64(*v)));
                }
                StatValue::Hist(h) => {
                    let u = e.unit.name();
                    s.push_str(&format!("{}.count,{},{}\n", e.name, u, h.count()));
                    s.push_str(&format!("{}.sum,{},{}\n", e.name, u, h.sum()));
                    s.push_str(&format!("{}.min,{},{}\n", e.name, u, h.min().unwrap_or(0)));
                    s.push_str(&format!("{}.max,{},{}\n", e.name, u, h.max().unwrap_or(0)));
                    for (lo, c) in h.buckets() {
                        s.push_str(&format!("{}.bucket_{},{},{}\n", e.name, lo, u, c));
                    }
                }
            }
        }
        s
    }

    /// Human-readable text dump: one aligned `name value unit` line per
    /// entry; histograms render as count/mean/max.
    pub fn to_text(&self) -> String {
        let width = self
            .entries
            .iter()
            .map(|e| e.name.len())
            .max()
            .unwrap_or(0);
        let mut s = String::new();
        for e in &self.entries {
            let rendered = match &e.value {
                StatValue::Count(v) => v.to_string(),
                StatValue::Gauge(v) => format!("{v:.4}"),
                StatValue::Hist(h) => format!(
                    "count {} mean {:.1} max {}",
                    h.count(),
                    h.mean(),
                    h.max().unwrap_or(0)
                ),
            };
            s.push_str(&format!(
                "{:<width$}  {:>14}  {}\n",
                e.name,
                rendered,
                e.unit.name()
            ));
        }
        s
    }
}

/// Escapes `v` as a JSON string into `s`.
fn json_string(s: &mut String, v: &str) {
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Writes `v` as a JSON number (`null` when not finite — JSON has no NaN).
fn push_json_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        s.push_str(&FmtF64(v).to_string());
    } else {
        s.push_str("null");
    }
}

/// Shortest-roundtrip `f64` formatting that always stays a valid JSON
/// number (Rust's `{}` prints integers without a fractional part).
struct FmtF64(f64);

impl fmt::Display for FmtF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{}", self.0);
        if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
            f.write_str(&s)
        } else {
            write!(f, "{s}.0")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.sum(), 1026);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        // 0 → bucket 0; 1 → [1,2); 2,3 → [2,4); 4,7 → [4,8); 8 → [8,16);
        // 1000 → [512,1024).
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 2), (2, 2), (4, 2), (8, 1), (512, 1)]
        );
        assert!((h.mean() - 1026.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let (mut bulk, mut single) = (Histogram::new(), Histogram::new());
        for (v, n) in [(0, 3), (5, 0), (7, 1), (1000, 250), (7, 4), (1 << 40, 2)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                single.record(v);
            }
        }
        assert_eq!(bulk, single);
        // Zero samples leave an empty histogram empty (min/max untouched).
        let mut empty = Histogram::new();
        empty.record_n(42, 0);
        assert_eq!(empty, Histogram::new());
    }

    #[test]
    fn registry_lookup_and_schema() {
        let mut r = StatsRegistry::new();
        r.counter("cycles", "total cycles", Unit::Cycles, 100);
        r.gauge("ipc", "instructions per cycle", Unit::Ratio, 1.5);
        assert_eq!(r.count("cycles"), Some(100));
        assert_eq!(r.count("ipc"), None);
        assert_eq!(
            r.schema(),
            vec![("cycles", "cycles"), ("ipc", "ratio")]
        );
    }

    #[test]
    fn json_is_lossless_for_counts_and_maps_nan_to_null() {
        let mut r = StatsRegistry::new();
        r.counter("big", "a large exact count", Unit::Events, 9_007_199_254_740_993);
        r.gauge("nan", "undefined ratio", Unit::Ratio, f64::NAN);
        let j = r.to_json();
        assert!(j.contains("9007199254740993"), "{j}");
        assert!(j.contains("null"), "{j}");
        assert!(!j.contains("NaN"), "{j}");
    }

    #[test]
    fn csv_flattens_histograms() {
        let mut r = StatsRegistry::new();
        let mut h = Histogram::new();
        h.record(5);
        h.record(6);
        r.hist("lat", "latency", Unit::Cycles, h);
        let csv = r.to_csv();
        assert!(csv.contains("lat.count,cycles,2"));
        assert!(csv.contains("lat.bucket_4,cycles,2"));
    }
}
