//! The result store: every successfully simulated sweep cell, one line
//! each, shared by every figure's sweep (`results/cells.jsonl`) and the
//! `sweepd` daemon's result cache.
//!
//! A cell's identity is `(trace digest, config digest)` under one timing
//! model:
//!
//! - the **trace digest** is [`TraceStore::digest`](crate::TraceStore::digest)
//!   over the workload's program — recording is strict, so the program *is*
//!   the trace;
//! - the **config digest** is [`PipeConfig::digest`](crate::PipeConfig),
//!   which exhaustively covers every field (including the fusion mode), so
//!   any config change keys a different cell;
//! - the **model digest** ([`MODEL_DIGEST`]) hashes the sources of the
//!   timing model, `ISA_VERSION` included, so a line written by any other
//!   build of the model is never answered from.
//!
//! Storage is an append-only JSONL file (`helios-cache-v1`), one
//! self-describing object per line, fsynced per append so a crash loses at
//! most the line being written. Loading never rejects the whole file: lines
//! that are not UTF-8, fail to parse, carry a foreign schema (including the
//! retired workload-keyed checkpoint journal's lines), or were written
//! under a different model digest are counted as skipped — the cost of a
//! dropped line is one re-simulation, never a wrong result.
//!
//! Only successful cells are stored. Failures and timeouts are
//! environmental (watchdog budgets, chaos injection, host load) and must
//! stay retryable.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use helios_uarch::SimStats;

use crate::{Json, MODEL_DIGEST};

/// Schema tag on every store line.
const SCHEMA: &str = "helios-cache-v1";

/// Store identity of one sweep cell.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CellKey {
    /// [`TraceStore::digest`](crate::TraceStore::digest) of the program.
    pub trace: u64,
    /// [`PipeConfig::digest`](crate::PipeConfig) of the full configuration.
    pub cfg: u64,
}

/// An in-memory index over the append-only result journal. All methods
/// take `&self`; sweep workers share one store.
pub struct ResultStore {
    path: PathBuf,
    state: Mutex<State>,
}

struct State {
    entries: HashMap<CellKey, SimStats>,
    /// Append handle; every line is written with one `write_all`.
    file: File,
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn parse_hex16(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

impl ResultStore {
    /// Opens (or creates) the store at `path` and indexes every valid line.
    /// Later lines win over earlier ones for the same key.
    ///
    /// # Errors
    ///
    /// Only when the file or its directory cannot be created or read.
    pub fn open(path: &Path) -> io::Result<ResultStore> {
        ResultStore::load(path, false)
    }

    /// Opens the store at `path` empty, truncating any prior contents.
    ///
    /// # Errors
    ///
    /// As for [`ResultStore::open`].
    pub fn create(path: &Path) -> io::Result<ResultStore> {
        ResultStore::load(path, true)
    }

    fn load(path: &Path, truncate: bool) -> io::Result<ResultStore> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        if truncate {
            File::create(path)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut entries = HashMap::new();
        let mut skipped = 0;
        for line in bytes.split(|&b| b == b'\n') {
            match std::str::from_utf8(line).map(str::trim) {
                Ok("") => {}
                Ok(text) => match parse_line(text) {
                    Some((key, stats)) => {
                        entries.insert(key, stats);
                    }
                    None => skipped += 1,
                },
                Err(_) => skipped += 1,
            }
        }
        if skipped > 0 {
            eprintln!(
                "warning: {}: skipped {skipped} unreadable or stale line(s); their cells will be re-simulated",
                path.display()
            );
        }
        Ok(ResultStore {
            path: path.to_path_buf(),
            state: Mutex::new(State { entries, file }),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("result store lock poisoned")
    }

    /// Number of stored cells.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stored stats for `key`, if any.
    pub(crate) fn get(&self, key: CellKey) -> Option<SimStats> {
        self.state().entries.get(&key).cloned()
    }

    /// Records a successful cell: appends one fsynced line, then indexes
    /// it. A key already stored is left alone — cells are deterministic, so
    /// a second copy would only grow the file. The `workload` and `mode`
    /// names ride along for human debugging only; identity lives in `key`.
    pub(crate) fn put(
        &self,
        key: CellKey,
        workload: &str,
        mode: &str,
        stats: &SimStats,
    ) -> io::Result<()> {
        let mut state = self.state();
        if state.entries.contains_key(&key) {
            return Ok(());
        }
        let mut line = Json::Obj(vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("model".to_string(), Json::Str(hex16(MODEL_DIGEST))),
            ("trace".to_string(), Json::Str(hex16(key.trace))),
            ("cfg".to_string(), Json::Str(hex16(key.cfg))),
            ("workload".to_string(), Json::Str(workload.to_string())),
            ("mode".to_string(), Json::Str(mode.to_string())),
            ("stats".to_string(), stats_to_json(stats)),
        ])
        .to_string();
        line.push('\n');
        let err = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", self.path.display()));
        state.file.write_all(line.as_bytes()).map_err(err)?;
        state.file.sync_data().map_err(err)?;
        state.entries.insert(key, stats.clone());
        Ok(())
    }
}

fn parse_line(line: &str) -> Option<(CellKey, SimStats)> {
    let doc = Json::parse(line).ok()?;
    if doc.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    if parse_hex16(doc.get("model")?.as_str()?)? != MODEL_DIGEST {
        return None;
    }
    let key = CellKey {
        trace: parse_hex16(doc.get("trace")?.as_str()?)?,
        cfg: parse_hex16(doc.get("cfg")?.as_str()?)?,
    };
    stats_from_json(doc.get("stats")?).ok().map(|s| (key, s))
}

/// The `stats` object of a store line and of a `sweepd` `done` event:
/// every raw counter under its registry name ([`SimStats::to_kv`]).
pub fn stats_to_json(stats: &SimStats) -> Json {
    Json::Obj(
        stats
            .to_kv()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
            .collect(),
    )
}

/// Inverse of [`stats_to_json`].
///
/// # Errors
///
/// Anything but an object of integers naming every counter exactly once.
pub fn stats_from_json(stats: &Json) -> Result<SimStats, String> {
    let kv = stats
        .as_object()
        .ok_or("`stats` is not an object")?
        .iter()
        .map(|(k, v)| {
            v.as_u64()
                .map(|n| (k.as_str(), n))
                .ok_or_else(|| format!("stats key `{k}` is not a counter"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    SimStats::from_kv(kv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_prng::{Rng, SeedableRng, StdRng};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("helios-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir.join("results.jsonl")
    }

    fn stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            instructions: cycles / 2,
            ..SimStats::default()
        }
    }

    fn lines(path: &Path) -> usize {
        std::fs::read_to_string(path).unwrap().lines().count()
    }

    #[test]
    fn round_trips_through_the_journal() {
        let path = scratch("rt");
        let key = CellKey {
            trace: 0xdead_beef_0000_0001,
            cfg: 0x1234,
        };
        {
            let store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.put(key, "fft", "Helios", &stats(1000)).unwrap();
            assert_eq!(store.get(key).unwrap().cycles, 1000);
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(key).unwrap(), stats(1000));
        assert!(store.get(CellKey { trace: 1, cfg: 2 }).is_none());
        // `create` starts over.
        assert!(ResultStore::create(&path).unwrap().is_empty());
        assert_eq!(lines(&path), 0);
    }

    #[test]
    fn a_stored_key_is_never_appended_twice() {
        let path = scratch("dup");
        let key = CellKey { trace: 7, cfg: 9 };
        let store = ResultStore::open(&path).unwrap();
        store.put(key, "w", "NoFusion", &stats(10)).unwrap();
        store.put(key, "w", "NoFusion", &stats(10)).unwrap();
        assert_eq!(lines(&path), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn later_lines_win_and_bad_lines_are_skipped_not_fatal() {
        let path = scratch("skew");
        let key = CellKey { trace: 7, cfg: 9 };
        ResultStore::open(&path)
            .unwrap()
            .put(key, "w", "NoFusion", &stats(10))
            .unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(first.contains(&format!("\"model\":\"{}\"", hex16(MODEL_DIGEST))));
        // A later duplicate, a corrupt line, a foreign schema, another
        // model's line, a line repeating `cycles` in place of `uops`, and a
        // non-UTF-8 line.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{}", first.replace("\"cycles\":10", "\"cycles\":20")).unwrap();
        writeln!(f, "{{ not json").unwrap();
        writeln!(f, "{{\"schema\":\"other-v1\"}}").unwrap();
        writeln!(
            f,
            "{}",
            first
                .trim()
                .replace("\"cycles\":10", "\"cycles\":30")
                .replace(&hex16(MODEL_DIGEST), &hex16(!MODEL_DIGEST))
        )
        .unwrap();
        assert!(first.contains("\"uops\":0,"));
        write!(f, "{}", first.replace("\"uops\":0,", "\"cycles\":40,")).unwrap();
        f.write_all(b"\xff\xfe\n").unwrap();
        drop(f);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(key).unwrap().cycles, 20);
    }

    /// A line nested deeper than the JSON parser accepts is one skipped
    /// line, not a stack overflow that takes the process down.
    #[test]
    fn a_deeply_nested_line_is_skipped() {
        let path = scratch("deep");
        let key = CellKey { trace: 3, cfg: 4 };
        ResultStore::open(&path)
            .unwrap()
            .put(key, "w", "Helios", &stats(30))
            .unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(f, "{}", "[".repeat(100_000)).unwrap();
        drop(f);
        let loaded = std::thread::spawn(move || ResultStore::open(&path).unwrap().get(key));
        assert_eq!(loaded.join().unwrap(), Some(stats(30)));
    }

    /// Seeded mutation fuzz of the loader: whatever happens to some lines,
    /// `open` never fails or panics, skips at most the mutated lines, and
    /// still loads every intact line exactly.
    #[test]
    fn mutated_journals_load_every_intact_line() {
        let mut rng = StdRng::seed_from_u64(0x5eed_ca11);
        for round in 0..64 {
            let path = scratch(&format!("fuzz{round}"));
            let n = 12;
            let keys: Vec<CellKey> = (0..n)
                .map(|_| CellKey {
                    trace: rng.gen(),
                    cfg: rng.gen(),
                })
                .collect();
            {
                let store = ResultStore::open(&path).unwrap();
                for (i, &k) in keys.iter().enumerate() {
                    store
                        .put(k, "w", "Helios", &stats(1000 + i as u64))
                        .unwrap();
                }
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
            let mut mutated = vec![false; n];
            // Mutations that can never leave a loadable line.
            let mut must_skip = 0;
            for _ in 0..rng.gen_range(1..n) {
                let i = rng.gen_range(0..n);
                if mutated[i] {
                    continue;
                }
                mutated[i] = true;
                let line = &mut lines[i];
                let at = rng.gen_range(0..line.len());
                match rng.gen_range(0..5u32) {
                    // Byte flip (never to a newline, which would split it).
                    0 => {
                        line[at] ^= rng.gen_range(1..=255u8);
                        if line[at] == b'\n' {
                            line[at] = b'#';
                        }
                    }
                    // Truncation: a strict, non-empty prefix is never JSON.
                    1 => {
                        line.truncate(at.max(1));
                        must_skip += 1;
                    }
                    // A run of random bytes.
                    2 => {
                        for b in line.iter_mut().skip(at).take(rng.gen_range(1..16usize)) {
                            *b = rng.gen_range(0..=255u8);
                            if *b == b'\n' {
                                *b = b' ';
                            }
                        }
                    }
                    // An oversized number in place of a stat.
                    3 => {
                        let s = String::from_utf8(line.clone()).unwrap();
                        *line = s
                            .replacen("\"cycles\":", "\"cycles\":99999999999999999999", 1)
                            .into_bytes();
                        must_skip += 1;
                    }
                    // Invalid UTF-8.
                    _ => {
                        line.insert(at, 0xc3);
                        line.insert(at + 1, 0x28);
                        must_skip += 1;
                    }
                }
            }
            std::fs::write(&path, lines.join(&b'\n')).unwrap();
            let store = ResultStore::open(&path).unwrap();
            // Keys are random, so every loaded line holds its own key.
            let (bad, skipped) = (mutated.iter().filter(|&&m| m).count(), n - store.len());
            assert!(
                (must_skip..=bad).contains(&skipped),
                "round {round}: skipped {skipped} of {bad} mutated lines (≥ {must_skip} certain)"
            );
            for (i, &k) in keys.iter().enumerate().filter(|(i, _)| !mutated[*i]) {
                assert_eq!(
                    store.get(k),
                    Some(stats(1000 + i as u64)),
                    "round {round}: intact line {i}"
                );
            }
            std::fs::remove_dir_all(path.parent().unwrap()).ok();
        }
    }
}
