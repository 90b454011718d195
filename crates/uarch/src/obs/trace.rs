//! Opt-in per-µ-op event tracing.
//!
//! An [`Observer`] attached via [`crate::Pipeline::attach_observer`] receives
//! one callback per pipeline event (fetch, rename/dispatch, issue, commit,
//! fuse, unfuse, squash) plus a per-cycle occupancy sample. It maintains:
//!
//! * event counters that reconcile exactly against [`crate::SimStats`]
//!   (commit events == `stats.uops`, fused-commit events ==
//!   `stats.fusion.fused_pairs()`),
//! * fetch-to-commit latency and ROB/IQ/LQ/SQ occupancy histograms,
//! * (with [`ObsOpts::timeline`]) a per-fetch-instance record stream that
//!   renders to the Konata pipeline-viewer format via
//!   [`Observer::write_konata`].
//!
//! With no observer attached the pipeline pays a single `Option` branch per
//! event site — the zero-cost-when-off contract checked by the wall-clock
//! acceptance gate.

use super::registry::{Histogram, StatsRegistry, Unit};
use helios_isa::{disassemble, Inst};
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Sentinel for "cycle not reached".
const NONE: u64 = u64::MAX;

/// Observer configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObsOpts {
    /// Master switch; `false` means [`crate::Pipeline::attach_observer`] is
    /// a no-op (used by `SimRequest` so callers can thread one struct).
    pub enabled: bool,
    /// Record a per-fetch-instance timeline (required for Konata output).
    /// Costs memory proportional to fetched µ-ops; counters and histograms
    /// are collected either way.
    pub timeline: bool,
    /// Stop creating new timeline records after this many fetch instances
    /// (`None` = unlimited). Counters and histograms are unaffected.
    pub timeline_limit: Option<u64>,
}

impl ObsOpts {
    /// Observability off (the default).
    pub fn off() -> ObsOpts {
        ObsOpts::default()
    }

    /// Counters + histograms only.
    pub fn metrics() -> ObsOpts {
        ObsOpts {
            enabled: true,
            timeline: false,
            timeline_limit: None,
        }
    }

    /// Counters + histograms + full per-µ-op timeline.
    pub fn timeline() -> ObsOpts {
        ObsOpts {
            enabled: true,
            timeline: true,
            timeline_limit: None,
        }
    }
}

/// Timeline record of one fetch instance of a µ-op. A µ-op re-fetched after
/// a flush gets a fresh record; the squashed one keeps its history.
#[derive(Clone, Debug)]
pub struct UopRec {
    /// Trace sequence number.
    pub seq: u64,
    pub pc: u64,
    pub inst: Inst,
    /// Cycle fetched into the AQ.
    pub fetch: u64,
    /// Cycle renamed/dispatched (`u64::MAX` if never reached).
    pub rename: u64,
    /// Cycle issued to a functional unit.
    pub issue: u64,
    /// Cycle execution completed.
    pub complete: u64,
    /// Cycle retired.
    pub commit: u64,
    /// Cycle squashed by a flush.
    pub squash: u64,
    /// Head sequence number if this instance was absorbed as a fusion tail.
    pub tail_of: Option<u64>,
}

impl UopRec {
    /// Whether this instance retired (directly or inside a fused pair).
    pub fn retired(&self) -> bool {
        self.commit != NONE
    }
}

/// In-flight bookkeeping for one fetch instance.
#[derive(Clone, Copy, Debug)]
struct Live {
    fetch: u64,
    /// Index into `recs` (`u32::MAX` when the timeline is off or capped).
    rec: u32,
    /// Fusion head this µ-op is currently absorbed into.
    head: Option<u64>,
}

const NO_REC: u32 = u32::MAX;

/// Per-µ-op event trace and derived metrics. See the module docs.
#[derive(Clone, Debug)]
pub struct Observer {
    opts: ObsOpts,
    /// Timeline records, in fetch order.
    recs: Vec<UopRec>,
    /// In-flight instances by sequence number.
    live: BTreeMap<u64, Live>,

    // Event counters.
    fetches: u64,
    renames: u64,
    issues: u64,
    commits: u64,
    fused_commits: u64,
    fuses: u64,
    unfuses: u64,
    squashes: u64,

    // Histograms.
    fetch_to_commit: Histogram,
    occ_rob: Histogram,
    occ_iq: Histogram,
    occ_lq: Histogram,
    occ_sq: Histogram,
}

impl Observer {
    pub(crate) fn new(opts: ObsOpts) -> Observer {
        Observer {
            opts,
            recs: Vec::new(),
            live: BTreeMap::new(),
            fetches: 0,
            renames: 0,
            issues: 0,
            commits: 0,
            fused_commits: 0,
            fuses: 0,
            unfuses: 0,
            squashes: 0,
            fetch_to_commit: Histogram::new(),
            occ_rob: Histogram::new(),
            occ_iq: Histogram::new(),
            occ_lq: Histogram::new(),
            occ_sq: Histogram::new(),
        }
    }

    /// The configuration this observer was attached with.
    pub fn opts(&self) -> ObsOpts {
        self.opts
    }

    // ---- event sinks (called from the pipeline stages) ------------------

    #[inline]
    pub(crate) fn fetched(&mut self, seq: u64, pc: u64, inst: Inst, now: u64) {
        self.fetches += 1;
        let rec = if self.opts.timeline
            && self
                .opts
                .timeline_limit
                .is_none_or(|cap| (self.recs.len() as u64) < cap)
        {
            self.recs.push(UopRec {
                seq,
                pc,
                inst,
                fetch: now,
                rename: NONE,
                issue: NONE,
                complete: NONE,
                commit: NONE,
                squash: NONE,
                tail_of: None,
            });
            (self.recs.len() - 1) as u32
        } else {
            NO_REC
        };
        self.live.insert(
            seq,
            Live {
                fetch: now,
                rec,
                head: None,
            },
        );
    }

    /// `tail` was absorbed into fused head `head` (decode fusion, predictive
    /// marking, or oracle pairing).
    #[inline]
    pub(crate) fn fused(&mut self, head: u64, tail: u64) {
        self.fuses += 1;
        if let Some(l) = self.live.get_mut(&tail) {
            l.head = Some(head);
            let rec = l.rec;
            if let Some(r) = self.rec_mut(rec) {
                r.tail_of = Some(head);
            }
        }
    }

    /// A fused pair headed by `head` was unfused (in-place repair); `tail`
    /// re-enters the pipeline by re-dispatch or re-fetch.
    #[inline]
    pub(crate) fn unfused(&mut self, head: u64, tail: u64) {
        let _ = head;
        self.unfuses += 1;
        if let Some(l) = self.live.get_mut(&tail) {
            l.head = None;
        }
    }

    /// `seq` passed Rename/Dispatch (also covers a tail that re-dispatches
    /// as its own µ-op after an unfuse — its absorbed state clears here).
    #[inline]
    pub(crate) fn renamed(&mut self, seq: u64, now: u64) {
        self.renames += 1;
        if let Some(l) = self.live.get_mut(&seq) {
            l.head = None;
            let rec = l.rec;
            if let Some(r) = self.rec_mut(rec) {
                r.rename = now;
                r.tail_of = None;
            }
        }
    }

    /// A tail-nucleus marker for `seq` passed Rename (validating its head);
    /// the instance stays absorbed.
    #[inline]
    pub(crate) fn tail_renamed(&mut self, seq: u64, now: u64) {
        if let Some(l) = self.live.get(&seq) {
            let rec = l.rec;
            if let Some(r) = self.rec_mut(rec) {
                r.rename = now;
            }
        }
    }

    /// `seq` issued at `now`, completing execution at `complete`.
    #[inline]
    pub(crate) fn issued(&mut self, seq: u64, now: u64, complete: u64) {
        self.issues += 1;
        if let Some(l) = self.live.get(&seq) {
            let rec = l.rec;
            if let Some(r) = self.rec_mut(rec) {
                r.issue = now;
                r.complete = complete;
            }
        }
    }

    /// Head `seq` retired at `now`; `tail` retired with it if the pair was
    /// fused at commit.
    #[inline]
    pub(crate) fn committed(&mut self, seq: u64, tail: Option<u64>, now: u64) {
        self.commits += 1;
        if let Some(l) = self.live.remove(&seq) {
            self.fetch_to_commit.record(now.saturating_sub(l.fetch));
            if let Some(r) = self.rec_mut(l.rec) {
                r.commit = now;
            }
        }
        if let Some(t) = tail {
            self.fused_commits += 1;
            if let Some(l) = self.live.remove(&t) {
                if let Some(r) = self.rec_mut(l.rec) {
                    r.commit = now;
                }
            }
        }
    }

    /// Everything with `seq >= restart` was squashed at `now`.
    pub(crate) fn squashed(&mut self, restart: u64, now: u64) {
        let dead = self.live.split_off(&restart);
        for (_, l) in dead {
            self.squashes += 1;
            if let Some(r) = self.rec_mut(l.rec) {
                r.squash = now;
            }
        }
    }

    /// End-of-cycle structure occupancy sample, taken once per cycle for
    /// `cycles` cycles with unchanged occupancy (more than one for a
    /// skipped idle stretch).
    #[inline]
    pub(crate) fn sample_occupancy(
        &mut self,
        (rob, iq, lq, sq): (usize, usize, usize, usize),
        cycles: u64,
    ) {
        self.occ_rob.record_n(rob as u64, cycles);
        self.occ_iq.record_n(iq as u64, cycles);
        self.occ_lq.record_n(lq as u64, cycles);
        self.occ_sq.record_n(sq as u64, cycles);
    }

    fn rec_mut(&mut self, rec: u32) -> Option<&mut UopRec> {
        if rec == NO_REC {
            None
        } else {
            self.recs.get_mut(rec as usize)
        }
    }

    // ---- read side ------------------------------------------------------

    /// Timeline records in fetch order (empty unless [`ObsOpts::timeline`]).
    pub fn records(&self) -> &[UopRec] {
        &self.recs
    }

    /// Commit events observed (== `SimStats::uops` after a clean run).
    pub fn commit_events(&self) -> u64 {
        self.commits
    }

    /// Fused-pair commit events (== `FusionStats::fused_pairs()`).
    pub fn fused_commit_events(&self) -> u64 {
        self.fused_commits
    }

    /// Fuse events observed at decode/marking time.
    pub fn fuse_events(&self) -> u64 {
        self.fuses
    }

    /// The fetch-to-commit latency distribution (committed heads).
    pub fn fetch_to_commit(&self) -> &Histogram {
        &self.fetch_to_commit
    }

    /// Exports the observer's counters and histograms into `reg` under the
    /// `obs.` prefix.
    pub fn export(&self, reg: &mut StatsRegistry) {
        reg.counter("obs.fetch_events", "µ-ops fetched into the AQ", Unit::Uops, self.fetches);
        reg.counter(
            "obs.rename_events",
            "µ-ops renamed and dispatched",
            Unit::Uops,
            self.renames,
        );
        reg.counter("obs.issue_events", "µ-ops issued to functional units", Unit::Uops, self.issues);
        reg.counter(
            "obs.commit_events",
            "µ-ops retired (reconciles with uops)",
            Unit::Uops,
            self.commits,
        );
        reg.counter(
            "obs.fused_commit_events",
            "fused pairs retired (reconciles with fusion.fused_pairs)",
            Unit::Pairs,
            self.fused_commits,
        );
        reg.counter("obs.fuse_events", "pairs fused at decode/marking", Unit::Pairs, self.fuses);
        reg.counter("obs.unfuse_events", "in-place unfuse repairs observed", Unit::Events, self.unfuses);
        reg.counter("obs.squash_events", "µ-op instances squashed by flushes", Unit::Uops, self.squashes);
        reg.counter(
            "obs.timeline_records",
            "per-fetch-instance timeline records captured",
            Unit::Uops,
            self.recs.len() as u64,
        );
        reg.hist(
            "obs.fetch_to_commit",
            "fetch-to-commit latency of retired µ-ops",
            Unit::Cycles,
            self.fetch_to_commit.clone(),
        );
        reg.hist("obs.occ_rob", "per-cycle ROB occupancy", Unit::Entries, self.occ_rob.clone());
        reg.hist("obs.occ_iq", "per-cycle IQ occupancy", Unit::Entries, self.occ_iq.clone());
        reg.hist("obs.occ_lq", "per-cycle LQ occupancy", Unit::Entries, self.occ_lq.clone());
        reg.hist("obs.occ_sq", "per-cycle SQ occupancy", Unit::Entries, self.occ_sq.clone());
    }

    /// Streams the timeline in the Konata pipeline-viewer format
    /// (`Kanata 0004`): one lane with stages `F` (fetch→rename), `Ds`
    /// (rename→issue), `Ex` (issue→complete), `Cm` (complete→commit), retire
    /// type 0 at commit and type 1 (flush) at squash. Absorbed fusion tails
    /// show their head's sequence number in the label and retire with it.
    ///
    /// Requires [`ObsOpts::timeline`]; with it off this writes only the
    /// header.
    pub fn write_konata<W: Write>(&self, out: &mut W) -> io::Result<()> {
        // (cycle, tiebreak, line): generation order is per-record
        // monotonic, so a stable sort by cycle keeps E-before-S pairs and
        // label ordering intact.
        let mut events: Vec<(u64, usize, String)> = Vec::with_capacity(self.recs.len() * 6);
        let mut ord = 0usize;
        let mut push = |events: &mut Vec<(u64, usize, String)>, cycle: u64, line: String| {
            events.push((cycle, ord, line));
            ord += 1;
        };
        let last_cycle = self
            .recs
            .iter()
            .flat_map(|r| [r.fetch, r.rename, r.issue, r.complete, r.commit, r.squash])
            .filter(|&c| c != NONE)
            .max()
            .unwrap_or(0);

        let mut retire_id = 0u64;
        for (id, r) in self.recs.iter().enumerate() {
            let label = match r.tail_of {
                Some(h) => format!("{:#x}: {} [tail of {h}]", r.pc, disassemble(&r.inst)),
                None => format!("{:#x}: {}", r.pc, disassemble(&r.inst)),
            };
            push(&mut events, r.fetch, format!("I\t{id}\t{}\t0", r.seq));
            push(&mut events, r.fetch, format!("L\t{id}\t0\t{label}"));
            push(&mut events, r.fetch, format!("S\t{id}\t0\tF"));
            let mut open = "F";
            if r.rename != NONE && r.tail_of.is_none() {
                push(&mut events, r.rename, format!("E\t{id}\t0\tF"));
                push(&mut events, r.rename, format!("S\t{id}\t0\tDs"));
                open = "Ds";
            }
            if r.issue != NONE {
                push(&mut events, r.issue, format!("E\t{id}\t0\t{open}"));
                push(&mut events, r.issue, format!("S\t{id}\t0\tEx"));
                open = "Ex";
                if r.complete != NONE {
                    push(&mut events, r.complete, format!("E\t{id}\t0\tEx"));
                    push(&mut events, r.complete, format!("S\t{id}\t0\tCm"));
                    open = "Cm";
                }
            }
            // Close the record: retire, flush, or still in flight at the end
            // of the run (closed as a flush so the viewer shows no open bar).
            let (end, kind) = if r.commit != NONE {
                (r.commit, 0)
            } else if r.squash != NONE {
                (r.squash, 1)
            } else {
                (last_cycle + 1, 1)
            };
            push(&mut events, end, format!("E\t{id}\t0\t{open}"));
            let rid = if kind == 0 {
                retire_id += 1;
                retire_id
            } else {
                0
            };
            push(&mut events, end, format!("R\t{id}\t{rid}\t{kind}"));
        }

        events.sort_by_key(|&(cycle, ord, _)| (cycle, ord));

        writeln!(out, "Kanata\t0004")?;
        let mut at = events.first().map_or(0, |&(c, _, _)| c);
        writeln!(out, "C=\t{at}")?;
        for (cycle, _, line) in events {
            if cycle > at {
                writeln!(out, "C\t{}", cycle - at)?;
                at = cycle;
            }
            writeln!(out, "{line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_isa::Inst;

    fn obs(timeline: bool) -> Observer {
        Observer::new(if timeline {
            ObsOpts::timeline()
        } else {
            ObsOpts::metrics()
        })
    }

    #[test]
    fn commit_and_latency_accounting() {
        let mut o = obs(false);
        o.fetched(0, 0x1000, Inst::NOP, 5);
        o.fetched(1, 0x1004, Inst::NOP, 5);
        o.fused(0, 1);
        o.committed(0, Some(1), 25);
        assert_eq!(o.commit_events(), 1);
        assert_eq!(o.fused_commit_events(), 1);
        assert_eq!(o.fetch_to_commit().count(), 1);
        assert_eq!(o.fetch_to_commit().sum(), 20);
        assert!(o.live.is_empty());
    }

    #[test]
    fn squash_marks_only_younger_instances() {
        let mut o = obs(true);
        o.fetched(0, 0x1000, Inst::NOP, 1);
        o.fetched(1, 0x1004, Inst::NOP, 1);
        o.fetched(2, 0x1008, Inst::NOP, 2);
        o.squashed(1, 10);
        assert_eq!(o.squashes, 2);
        assert!(o.live.contains_key(&0));
        assert_eq!(o.records()[1].squash, 10);
        assert_eq!(o.records()[0].squash, NONE);
        // Refetch after the flush creates a fresh record.
        o.fetched(1, 0x1004, Inst::NOP, 20);
        assert_eq!(o.records().len(), 4);
        o.committed(0, None, 21);
        o.committed(1, None, 22);
        o.fetched(2, 0x1008, Inst::NOP, 22);
        o.committed(2, None, 23);
        assert_eq!(o.commit_events(), 3);
    }

    #[test]
    fn konata_output_shape() {
        let mut o = obs(true);
        o.fetched(0, 0x1000, Inst::NOP, 1);
        o.renamed(0, 3);
        o.issued(0, 5, 6);
        o.committed(0, None, 8);
        o.fetched(1, 0x1004, Inst::NOP, 2);
        o.squashed(1, 6);
        let mut buf = Vec::new();
        o.write_konata(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "Kanata\t0004");
        assert_eq!(lines[1], "C=\t1");
        assert!(s.contains("I\t0\t0\t0"));
        assert!(s.contains("S\t0\t0\tF"));
        assert!(s.contains("S\t0\t0\tDs"));
        assert!(s.contains("S\t0\t0\tEx"));
        assert!(s.contains("S\t0\t0\tCm"));
        assert!(s.contains("R\t0\t1\t0"), "retired: {s}");
        assert!(s.contains("R\t1\t0\t1"), "flushed: {s}");
        // Cycle deltas must be positive and ordered.
        let mut total = 1u64;
        for l in &lines {
            if let Some(d) = l.strip_prefix("C\t") {
                total += d.parse::<u64>().unwrap();
            }
        }
        assert_eq!(total, 8, "events end at the commit cycle");
    }

    #[test]
    fn timeline_limit_caps_records_not_counters() {
        let mut o = Observer::new(ObsOpts {
            enabled: true,
            timeline: true,
            timeline_limit: Some(1),
        });
        o.fetched(0, 0x1000, Inst::NOP, 1);
        o.fetched(1, 0x1004, Inst::NOP, 1);
        assert_eq!(o.records().len(), 1);
        o.committed(0, None, 5);
        o.committed(1, None, 6);
        assert_eq!(o.commit_events(), 2);
    }
}
