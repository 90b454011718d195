//! Simulation statistics: cycles, IPC, stall breakdowns (Fig. 9), branch and
//! cache behaviour, and the fusion statistics from `helios-core`.
//!
//! `SimStats` stays a plain struct of `u64` fields — the hot path increments
//! them directly — and [`SimStats::export`] projects it into the
//! self-describing [`StatsRegistry`] view after the run.

use crate::obs::{StatsRegistry, Unit};
use helios_core::{FusionStats, Idiom, RepairCase, ALL_IDIOMS};

/// Aggregate statistics for one simulation run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed architectural instructions (a fused pair counts as 2).
    pub instructions: u64,
    /// Committed µ-ops (a fused pair counts as 1).
    pub uops: u64,
    /// Committed memory instructions (loads + stores, pre-fusion count).
    pub mem_instructions: u64,
    /// Committed loads / stores (pre-fusion count).
    pub loads: u64,
    pub stores: u64,

    /// Cycles in which Rename made zero progress because no physical
    /// register was available (while work was waiting).
    pub rename_stall_cycles: u64,
    /// Cycles in which Dispatch made zero progress, by blocking resource.
    pub dispatch_stall_rob: u64,
    pub dispatch_stall_iq: u64,
    pub dispatch_stall_lq: u64,
    pub dispatch_stall_sq: u64,
    /// Cycles the frontend was stalled waiting for a mispredicted branch to
    /// resolve.
    pub fetch_stall_redirect: u64,

    /// Conditional branches and mispredictions.
    pub branches: u64,
    pub branch_mispredicts: u64,
    /// Indirect jumps and target mispredictions.
    pub indirects: u64,
    pub indirect_mispredicts: u64,

    /// Memory-order violation flushes (store-set trained).
    pub memdep_flushes: u64,
    /// Predicted pairs abandoned because the Rename nesting limit
    /// (Max Active NCS) was saturated (§IV-B2).
    pub ncsf_nest_aborts: u64,
    /// Fusion-repair flushes (§IV-C cases 5/6) — also counted in `fusion`.
    pub fusion_flushes: u64,

    /// L1D accesses and misses (demand loads + store drains).
    pub l1d_accesses: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub l3_misses: u64,
    /// Store-to-load forwards.
    pub stlf_forwards: u64,
    /// UCH decoupling-queue records dropped (queue full) / drained.
    pub uch_queue_dropped: u64,
    pub uch_queue_drained: u64,

    /// Pending NCSF pairs unfused by the resource-deadlock breaker
    /// (repair case 2 machinery) — also counted in `fusion` repairs.
    pub deadlock_breaks: u64,
    /// Faults injected by an attached `FaultInjector`.
    pub injected_faults: u64,
    /// Commit records verified by an attached lockstep `OracleChecker`.
    pub oracle_checked: u64,

    /// Fusion statistics.
    pub fusion: FusionStats,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total dispatch stall cycles.
    pub fn dispatch_stalls(&self) -> u64 {
        self.dispatch_stall_rob + self.dispatch_stall_iq + self.dispatch_stall_lq
            + self.dispatch_stall_sq
    }

    /// Dispatch + rename structural stalls as a percentage of cycles (Fig 9).
    pub fn stall_pct(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        100.0 * (self.dispatch_stalls() + self.rename_stall_cycles) as f64 / self.cycles as f64
    }

    /// Branch misprediction rate in MPKI.
    pub fn branch_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            1000.0 * (self.branch_mispredicts + self.indirect_mispredicts) as f64
                / self.instructions as f64
        }
    }

    /// Fusion MPKI (Table III).
    pub fn fusion_mpki(&self) -> f64 {
        self.fusion.mpki(self.instructions)
    }

    /// Fused pairs as % of dynamic instructions (both nucleii counted):
    /// the Fig. 2 metric.
    pub fn fused_pct_of_uops(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * (2 * self.fusion.fused_pairs()) as f64 / self.instructions as f64
        }
    }

    /// Fused memory pairs as % of dynamic memory instructions (Fig. 8).
    pub fn fused_pct_of_mem(&self) -> (f64, f64) {
        if self.mem_instructions == 0 {
            return (0.0, 0.0);
        }
        let denom = self.mem_instructions as f64;
        (
            100.0 * (2 * self.fusion.csf_pairs) as f64 / denom,
            100.0 * (2 * self.fusion.ncsf_pairs) as f64 / denom,
        )
    }

    /// Exports every counter plus the derived metrics into `reg` as
    /// self-describing entries. Entry names and units are stable — the
    /// schema snapshot test pins them.
    pub fn export(&self, reg: &mut StatsRegistry) {
        reg.counter("cycles", "total simulated cycles", Unit::Cycles, self.cycles);
        reg.counter(
            "instructions",
            "committed architectural instructions (a fused pair counts as 2)",
            Unit::Instructions,
            self.instructions,
        );
        reg.counter("uops", "committed µ-ops (a fused pair counts as 1)", Unit::Uops, self.uops);
        reg.counter(
            "mem_instructions",
            "committed memory instructions (pre-fusion count)",
            Unit::Instructions,
            self.mem_instructions,
        );
        reg.counter("loads", "committed loads (pre-fusion count)", Unit::Instructions, self.loads);
        reg.counter("stores", "committed stores (pre-fusion count)", Unit::Instructions, self.stores);

        reg.counter(
            "rename_stall_cycles",
            "cycles Rename made zero progress for want of physical registers",
            Unit::Cycles,
            self.rename_stall_cycles,
        );
        reg.counter(
            "dispatch_stall_rob",
            "cycles Dispatch stalled on a full ROB",
            Unit::Cycles,
            self.dispatch_stall_rob,
        );
        reg.counter(
            "dispatch_stall_iq",
            "cycles Dispatch stalled on a full IQ",
            Unit::Cycles,
            self.dispatch_stall_iq,
        );
        reg.counter(
            "dispatch_stall_lq",
            "cycles Dispatch stalled on a full LQ",
            Unit::Cycles,
            self.dispatch_stall_lq,
        );
        reg.counter(
            "dispatch_stall_sq",
            "cycles Dispatch stalled on a full SQ",
            Unit::Cycles,
            self.dispatch_stall_sq,
        );
        reg.counter(
            "fetch_stall_redirect",
            "cycles the frontend waited on a mispredicted branch",
            Unit::Cycles,
            self.fetch_stall_redirect,
        );

        reg.counter("branches", "committed conditional branches", Unit::Instructions, self.branches);
        reg.counter(
            "branch_mispredicts",
            "mispredicted conditional branches",
            Unit::Events,
            self.branch_mispredicts,
        );
        reg.counter("indirects", "committed indirect jumps", Unit::Instructions, self.indirects);
        reg.counter(
            "indirect_mispredicts",
            "mispredicted indirect-jump targets",
            Unit::Events,
            self.indirect_mispredicts,
        );

        reg.counter(
            "memdep_flushes",
            "memory-order violation flushes",
            Unit::Events,
            self.memdep_flushes,
        );
        reg.counter(
            "ncsf_nest_aborts",
            "predicted pairs abandoned at the Max Active NCS limit",
            Unit::Events,
            self.ncsf_nest_aborts,
        );
        reg.counter(
            "fusion_flushes",
            "fusion-repair pipeline flushes (§IV-C cases 5/6)",
            Unit::Events,
            self.fusion_flushes,
        );

        reg.counter("l1d_accesses", "L1D accesses (demand loads + store drains)", Unit::Events, self.l1d_accesses);
        reg.counter("l1d_misses", "L1D misses", Unit::Events, self.l1d_misses);
        reg.counter("l2_misses", "L2 misses", Unit::Events, self.l2_misses);
        reg.counter("l3_misses", "L3 misses", Unit::Events, self.l3_misses);
        reg.counter("stlf_forwards", "store-to-load forwards", Unit::Events, self.stlf_forwards);
        reg.counter(
            "uch_queue_dropped",
            "UCH decoupling-queue records dropped (queue full)",
            Unit::Events,
            self.uch_queue_dropped,
        );
        reg.counter(
            "uch_queue_drained",
            "UCH decoupling-queue records drained",
            Unit::Events,
            self.uch_queue_drained,
        );

        reg.counter(
            "deadlock_breaks",
            "pending pairs unfused by the resource-deadlock breaker",
            Unit::Events,
            self.deadlock_breaks,
        );
        reg.counter("injected_faults", "faults injected by an attached FaultInjector", Unit::Events, self.injected_faults);
        reg.counter(
            "oracle_checked",
            "commit records verified by an attached OracleChecker",
            Unit::Events,
            self.oracle_checked,
        );

        // Fusion statistics (helios-core) under the `fusion.` prefix.
        let f = &self.fusion;
        reg.counter("fusion.csf_pairs", "committed consecutive fused pairs", Unit::Pairs, f.csf_pairs);
        reg.counter("fusion.ncsf_pairs", "committed non-consecutive fused pairs", Unit::Pairs, f.ncsf_pairs);
        for idiom in ALL_IDIOMS {
            reg.counter(
                idiom_stat_name(idiom),
                idiom.name(),
                Unit::Pairs,
                f.by_idiom[idiom.index()],
            );
        }
        reg.counter("fusion.contiguous", "committed memory pairs: contiguous accesses", Unit::Pairs, f.contiguous);
        reg.counter("fusion.overlapping", "committed memory pairs: overlapping accesses", Unit::Pairs, f.overlapping);
        reg.counter("fusion.same_line", "committed memory pairs: same cache line", Unit::Pairs, f.same_line);
        reg.counter("fusion.next_line", "committed memory pairs: adjacent cache line", Unit::Pairs, f.next_line);
        reg.counter("fusion.dbr_pairs", "committed pairs with different base registers", Unit::Pairs, f.dbr_pairs);
        reg.counter("fusion.asymmetric_pairs", "committed pairs with different access sizes", Unit::Pairs, f.asymmetric_pairs);
        reg.counter(
            "fusion.ncsf_distance_sum",
            "sum of head→tail distances of committed NCSF pairs",
            Unit::Uops,
            f.ncsf_distance_sum,
        );
        reg.counter("fusion.predictions", "fusion predictions issued", Unit::Events, f.predictions);
        reg.counter(
            "fusion.predictions_correct",
            "predictions committed as fused pairs",
            Unit::Events,
            f.predictions_correct,
        );
        reg.counter("fusion.mispredictions", "predictions unfused or flushed", Unit::Events, f.mispredictions);
        for case in RepairCase::ALL {
            let (name, desc) = repair_stat_entry(case);
            reg.counter(name, desc, Unit::Events, f.repairs[case.index()]);
        }

        // Derived metrics.
        reg.gauge("ipc", "instructions per cycle", Unit::Ratio, self.ipc());
        reg.gauge(
            "stall_pct",
            "rename + dispatch structural stalls as % of cycles",
            Unit::Percent,
            self.stall_pct(),
        );
        reg.gauge("branch_mpki", "branch mispredictions per kilo-instruction", Unit::Mpki, self.branch_mpki());
        reg.gauge("fusion.mpki", "fusion mispredictions per kilo-instruction", Unit::Mpki, self.fusion_mpki());
        reg.gauge(
            "fusion.fused_pct_of_uops",
            "fused nucleii as % of dynamic instructions",
            Unit::Percent,
            self.fused_pct_of_uops(),
        );
    }

    /// The registry view of these statistics.
    pub fn registry(&self) -> StatsRegistry {
        let mut reg = StatsRegistry::new();
        self.export(&mut reg);
        reg
    }

    /// Lossless flat `name → value` projection of *every* raw counter, in a
    /// stable order — the sweep checkpoint-journal serialization.
    /// [`SimStats::from_kv`] inverts it exactly, so a cell restored from a
    /// journal reproduces byte-identical report output. Derived metrics
    /// (IPC, MPKI, …) are recomputed, never stored.
    ///
    /// The exhaustive destructuring below is deliberate: adding a field to
    /// `SimStats` or `FusionStats` without extending this projection is a
    /// compile error, so the journal format can never silently drop data.
    pub fn to_kv(&self) -> Vec<(String, u64)> {
        let SimStats {
            cycles,
            instructions,
            uops,
            mem_instructions,
            loads,
            stores,
            rename_stall_cycles,
            dispatch_stall_rob,
            dispatch_stall_iq,
            dispatch_stall_lq,
            dispatch_stall_sq,
            fetch_stall_redirect,
            branches,
            branch_mispredicts,
            indirects,
            indirect_mispredicts,
            memdep_flushes,
            ncsf_nest_aborts,
            fusion_flushes,
            l1d_accesses,
            l1d_misses,
            l2_misses,
            l3_misses,
            stlf_forwards,
            uch_queue_dropped,
            uch_queue_drained,
            deadlock_breaks,
            injected_faults,
            oracle_checked,
            fusion,
        } = self;
        let FusionStats {
            csf_pairs,
            ncsf_pairs,
            by_idiom,
            contiguous,
            overlapping,
            same_line,
            next_line,
            dbr_pairs,
            asymmetric_pairs,
            ncsf_distance_sum,
            predictions,
            predictions_correct,
            mispredictions,
            repairs,
        } = fusion;
        let mut kv: Vec<(String, u64)> = [
            ("cycles", *cycles),
            ("instructions", *instructions),
            ("uops", *uops),
            ("mem_instructions", *mem_instructions),
            ("loads", *loads),
            ("stores", *stores),
            ("rename_stall_cycles", *rename_stall_cycles),
            ("dispatch_stall_rob", *dispatch_stall_rob),
            ("dispatch_stall_iq", *dispatch_stall_iq),
            ("dispatch_stall_lq", *dispatch_stall_lq),
            ("dispatch_stall_sq", *dispatch_stall_sq),
            ("fetch_stall_redirect", *fetch_stall_redirect),
            ("branches", *branches),
            ("branch_mispredicts", *branch_mispredicts),
            ("indirects", *indirects),
            ("indirect_mispredicts", *indirect_mispredicts),
            ("memdep_flushes", *memdep_flushes),
            ("ncsf_nest_aborts", *ncsf_nest_aborts),
            ("fusion_flushes", *fusion_flushes),
            ("l1d_accesses", *l1d_accesses),
            ("l1d_misses", *l1d_misses),
            ("l2_misses", *l2_misses),
            ("l3_misses", *l3_misses),
            ("stlf_forwards", *stlf_forwards),
            ("uch_queue_dropped", *uch_queue_dropped),
            ("uch_queue_drained", *uch_queue_drained),
            ("deadlock_breaks", *deadlock_breaks),
            ("injected_faults", *injected_faults),
            ("oracle_checked", *oracle_checked),
            ("fusion.csf_pairs", *csf_pairs),
            ("fusion.ncsf_pairs", *ncsf_pairs),
            ("fusion.contiguous", *contiguous),
            ("fusion.overlapping", *overlapping),
            ("fusion.same_line", *same_line),
            ("fusion.next_line", *next_line),
            ("fusion.dbr_pairs", *dbr_pairs),
            ("fusion.asymmetric_pairs", *asymmetric_pairs),
            ("fusion.ncsf_distance_sum", *ncsf_distance_sum),
            ("fusion.predictions", *predictions),
            ("fusion.predictions_correct", *predictions_correct),
            ("fusion.mispredictions", *mispredictions),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        for (i, v) in by_idiom.iter().enumerate() {
            kv.push((format!("fusion.by_idiom.{i}"), *v));
        }
        for (i, v) in repairs.iter().enumerate() {
            kv.push((format!("fusion.repairs.{i}"), *v));
        }
        kv
    }

    /// Rebuilds a `SimStats` from a [`SimStats::to_kv`] projection.
    ///
    /// # Errors
    ///
    /// Unknown keys, out-of-range array indices, and incomplete projections
    /// are all errors — a checkpoint journal written by a different stats
    /// schema must be rejected (and its cell re-simulated), never partially
    /// applied.
    pub fn from_kv<'a, I>(kv: I) -> Result<SimStats, String>
    where
        I: IntoIterator<Item = (&'a str, u64)>,
    {
        let mut out = SimStats::default();
        let mut seen = 0usize;
        for (k, v) in kv {
            let slot: &mut u64 = if let Some(i) = k.strip_prefix("fusion.by_idiom.") {
                let i: usize = i.parse().map_err(|_| format!("bad idiom index `{k}`"))?;
                out.fusion
                    .by_idiom
                    .get_mut(i)
                    .ok_or_else(|| format!("idiom index out of range `{k}`"))?
            } else if let Some(i) = k.strip_prefix("fusion.repairs.") {
                let i: usize = i.parse().map_err(|_| format!("bad repair index `{k}`"))?;
                out.fusion
                    .repairs
                    .get_mut(i)
                    .ok_or_else(|| format!("repair index out of range `{k}`"))?
            } else {
                match k {
                    "cycles" => &mut out.cycles,
                    "instructions" => &mut out.instructions,
                    "uops" => &mut out.uops,
                    "mem_instructions" => &mut out.mem_instructions,
                    "loads" => &mut out.loads,
                    "stores" => &mut out.stores,
                    "rename_stall_cycles" => &mut out.rename_stall_cycles,
                    "dispatch_stall_rob" => &mut out.dispatch_stall_rob,
                    "dispatch_stall_iq" => &mut out.dispatch_stall_iq,
                    "dispatch_stall_lq" => &mut out.dispatch_stall_lq,
                    "dispatch_stall_sq" => &mut out.dispatch_stall_sq,
                    "fetch_stall_redirect" => &mut out.fetch_stall_redirect,
                    "branches" => &mut out.branches,
                    "branch_mispredicts" => &mut out.branch_mispredicts,
                    "indirects" => &mut out.indirects,
                    "indirect_mispredicts" => &mut out.indirect_mispredicts,
                    "memdep_flushes" => &mut out.memdep_flushes,
                    "ncsf_nest_aborts" => &mut out.ncsf_nest_aborts,
                    "fusion_flushes" => &mut out.fusion_flushes,
                    "l1d_accesses" => &mut out.l1d_accesses,
                    "l1d_misses" => &mut out.l1d_misses,
                    "l2_misses" => &mut out.l2_misses,
                    "l3_misses" => &mut out.l3_misses,
                    "stlf_forwards" => &mut out.stlf_forwards,
                    "uch_queue_dropped" => &mut out.uch_queue_dropped,
                    "uch_queue_drained" => &mut out.uch_queue_drained,
                    "deadlock_breaks" => &mut out.deadlock_breaks,
                    "injected_faults" => &mut out.injected_faults,
                    "oracle_checked" => &mut out.oracle_checked,
                    "fusion.csf_pairs" => &mut out.fusion.csf_pairs,
                    "fusion.ncsf_pairs" => &mut out.fusion.ncsf_pairs,
                    "fusion.contiguous" => &mut out.fusion.contiguous,
                    "fusion.overlapping" => &mut out.fusion.overlapping,
                    "fusion.same_line" => &mut out.fusion.same_line,
                    "fusion.next_line" => &mut out.fusion.next_line,
                    "fusion.dbr_pairs" => &mut out.fusion.dbr_pairs,
                    "fusion.asymmetric_pairs" => &mut out.fusion.asymmetric_pairs,
                    "fusion.ncsf_distance_sum" => &mut out.fusion.ncsf_distance_sum,
                    "fusion.predictions" => &mut out.fusion.predictions,
                    "fusion.predictions_correct" => &mut out.fusion.predictions_correct,
                    "fusion.mispredictions" => &mut out.fusion.mispredictions,
                    _ => return Err(format!("unknown stats key `{k}`")),
                }
            };
            *slot = v;
            seen += 1;
        }
        let expect = SimStats::default().to_kv().len();
        if seen != expect {
            return Err(format!("incomplete stats projection: {seen} of {expect} keys"));
        }
        Ok(out)
    }
}

/// Stable registry name for an idiom's pair counter.
fn idiom_stat_name(idiom: Idiom) -> &'static str {
    match idiom {
        Idiom::LoadPair => "fusion.idiom.load_pair",
        Idiom::StorePair => "fusion.idiom.store_pair",
        Idiom::LuiAddi => "fusion.idiom.lui_addi",
        Idiom::AuipcAddi => "fusion.idiom.auipc_addi",
        Idiom::SlliAdd => "fusion.idiom.slli_add",
        Idiom::SlliSrli => "fusion.idiom.slli_srli",
        Idiom::IndexedLoad => "fusion.idiom.indexed_load",
        Idiom::LoadGlobal => "fusion.idiom.load_global",
    }
}

/// Stable registry `(name, description)` for a repair case's counter.
fn repair_stat_entry(case: RepairCase) -> (&'static str, &'static str) {
    match case {
        RepairCase::RawSourceFix => (
            "fusion.repair.raw_source_fix",
            "case 1: catalyst RaW source fixed in place",
        ),
        RepairCase::Deadlock => (
            "fusion.repair.deadlock",
            "case 2: dependency deadlock, unfused at Dispatch",
        ),
        RepairCase::StoreInCatalyst => (
            "fusion.repair.store_in_catalyst",
            "case 3: store inside a store pair's catalyst, unfused",
        ),
        RepairCase::Serializing => (
            "fusion.repair.serializing",
            "case 4: serializing instruction in the catalyst, unfused",
        ),
        RepairCase::SpanMismatch => (
            "fusion.repair.span_mismatch",
            "case 5: accesses span past the fusion region, flushed",
        ),
        RepairCase::TailFault => (
            "fusion.repair.tail_fault",
            "case 6: tail access faulted, flushed",
        ),
        RepairCase::CatalystFlush => (
            "fusion.repair.catalyst_flush",
            "case 7: catalyst squashed under the pair, unfused",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_stalls() {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 1500,
            ..SimStats::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        s.dispatch_stall_sq = 2;
        s.dispatch_stall_rob = 1;
        s.rename_stall_cycles = 7;
        assert_eq!(s.dispatch_stalls(), 3);
        assert!((s.stall_pct() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fusion_percentages() {
        let mut s = SimStats {
            instructions: 1000,
            mem_instructions: 400,
            ..SimStats::default()
        };
        s.fusion.csf_pairs = 20;
        s.fusion.ncsf_pairs = 10;
        s.fusion.by_idiom[0] = 30; // load pairs
        assert!((s.fused_pct_of_uops() - 6.0).abs() < 1e-12);
        let (csf, ncsf) = s.fused_pct_of_mem();
        assert!((csf - 10.0).abs() < 1e-12);
        assert!((ncsf - 5.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_safety() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.stall_pct(), 0.0);
        assert_eq!(s.branch_mpki(), 0.0);
    }

    #[test]
    fn kv_round_trips_losslessly() {
        // Assign a distinct value per key, rebuild, and require the
        // projection of the rebuilt struct to reproduce the exact
        // assignment — this catches dropped, duplicated, *and* swapped
        // field↔key mappings (to_kv's exhaustive destructure already makes
        // a missing field a compile error).
        let assigned: Vec<(String, u64)> = SimStats::default()
            .to_kv()
            .into_iter()
            .enumerate()
            .map(|(i, (k, _))| (k, 1000 + i as u64))
            .collect();
        assert_eq!(assigned.len(), 29 + 12 + 8 + 7, "expected flat key count");
        let s = SimStats::from_kv(
            assigned.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(s.to_kv(), assigned);
        assert_eq!(s.cycles, 1000, "first key is cycles");
        assert_eq!(s.fusion.repairs[6], 1000 + 55, "last key is the last repair case");
    }

    #[test]
    fn kv_rejects_drifted_schemas() {
        let s = SimStats::default();
        let mut kv: Vec<(String, u64)> = s.to_kv();
        kv.push(("no_such_counter".into(), 1));
        assert!(SimStats::from_kv(kv.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Vec<_>>())
            .unwrap_err()
            .contains("unknown"));
        let kv = &s.to_kv()[1..];
        assert!(SimStats::from_kv(kv.iter().map(|(k, v)| (k.as_str(), *v)).collect::<Vec<_>>())
            .unwrap_err()
            .contains("incomplete"));
        assert!(SimStats::from_kv([("fusion.by_idiom.99", 1u64)]).is_err());
    }
}
