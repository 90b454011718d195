//! Benchmark-side tracing: one span per timed call into a public layer
//! function, recorded from the benchmark's own code. Spans stay in memory
//! and are written out when the run ends, so recording one costs two clock
//! reads and a short critical section.

use helios::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span, used as the parent link of its children.
pub type SpanId = usize;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary crossed, e.g. `emu.record`.
    pub name: &'static str,
    /// The span this call was made from.
    pub parent: Option<SpanId>,
    /// Request or cell identity, e.g. `fft/Helios` or `c1.r4:fft`.
    pub id: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End (0 while the span is open).
    pub end_ns: u64,
    /// Work counts attached at the boundary (µ-ops, cycles, bytes, …).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A count attached to this span (0 when absent).
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |c| c.1)
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking thread")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, id: &str) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            id: id.to_string(),
            start_ns,
            end_ns: 0,
            counts: Vec::new(),
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        let end_ns = self.now_ns();
        self.lock()[span].end_ns = end_ns;
    }

    /// Times `f` as a leaf span and returns its result with the span id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let s = self.open(name, parent, id);
        let out = f();
        self.close(s);
        (out, s)
    }

    /// Attaches a work count to a span.
    pub fn count(&self, span: SpanId, key: &'static str, value: u64) {
        self.lock()[span].counts.push((key, value));
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children, e.g. from concurrent
/// clients, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, 0);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table: every span of one name, aggregated.
#[derive(Debug, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub calls: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, largest self time first.
pub fn layer_table(spans: &[Span]) -> Vec<LayerRow> {
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = rows.entry(s.name).or_insert(LayerRow {
            name: s.name,
            calls: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.calls += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    let mut rows: Vec<LayerRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Total duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// Sum of count `key` over every span named `name`.
pub fn total_count(spans: &[Span], name: &str, key: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.count(key))
        .sum()
}

/// Durations of every span named `name`, in milliseconds.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-6)
        .collect()
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(s.name.to_string())),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("id".to_string(), Json::Str(s.id.clone())),
                    ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                    ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                    (
                        "counts".to_string(),
                        Json::Obj(
                            s.counts
                                .iter()
                                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            id: String::new(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("emu.record", Some(0), 10, 30),
            span("uarch.cell", Some(0), 40, 70),
            span("emu.codec.encode", Some(1), 15, 25),
            // Two concurrent clients' requests overlap in [80, 90).
            span("server.client", Some(0), 75, 90),
            span("server.client", Some(0), 80, 95),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 30 - 20, 10, 30, 10, 15, 15]
        );
        let table = layer_table(&spans);
        assert_eq!(table[0].name, "pass");
        let client = table.iter().find(|r| r.name == "server.client").unwrap();
        assert_eq!((client.calls, client.total_ns, client.self_ns), (2, 30, 30));
    }

    #[test]
    fn child_time_outside_the_parent_is_not_subtracted() {
        let spans = vec![span("a", None, 10, 20), span("b", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_records_nesting_and_counts() {
        let t = Tracer::new();
        let root = t.open("pass", None, "");
        let (v, leaf) = t.span("emu.record", Some(root), "fft", || 7);
        t.count(leaf, "uops", 161_399);
        t.close(root);
        let spans = t.spans();
        assert_eq!(v, 7);
        assert_eq!(spans[leaf].parent, Some(root));
        assert_eq!(spans[leaf].count("uops"), 161_399);
        assert!(spans[root].end_ns >= spans[leaf].end_ns);
        assert_eq!(total_count(&spans, "emu.record", "uops"), 161_399);
    }
}
