//! Simulation statistics: cycles, IPC, stall breakdowns (Fig. 9), branch and
//! cache behaviour, and the fusion statistics from `helios-core`.
//!
//! `SimStats` stays a plain struct of `u64` fields — the hot path increments
//! them directly. One table (`SimStats::counters`) names every raw counter
//! once; [`SimStats::export`] projects it into the self-describing
//! [`StatsRegistry`] view after the run, and [`SimStats::to_kv`] /
//! [`SimStats::from_kv`] carry it under the same names to the result store
//! and the `sweepd` wire.

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
        self.dispatch_stall_rob
            + self.dispatch_stall_iq
            + self.dispatch_stall_lq
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

    /// The one table of raw counters, in registry order: each counter's
    /// stable name, description, unit and a handle on its field. The
    /// registry ([`SimStats::export`]), the result store and the `sweepd`
    /// wire ([`SimStats::to_kv`] / [`SimStats::from_kv`]) all walk it, so a
    /// counter has one name everywhere.
    ///
    /// The exhaustive destructure is deliberate: a field added to
    /// `SimStats` or `FusionStats` fails to compile until it is listed here.
    #[rustfmt::skip]
    fn counters(&mut self) -> Vec<Counter<'_>> {
        use Unit::{Cycles, Events, Instructions, Pairs, Uops};
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
        let mut t: Vec<Counter<'_>> = vec![
            ("cycles", "total simulated cycles", Cycles, cycles),
            ("instructions", "committed architectural instructions (a fused pair counts as 2)", Instructions, instructions),
            ("uops", "committed µ-ops (a fused pair counts as 1)", Uops, uops),
            ("mem_instructions", "committed memory instructions (pre-fusion count)", Instructions, mem_instructions),
            ("loads", "committed loads (pre-fusion count)", Instructions, loads),
            ("stores", "committed stores (pre-fusion count)", Instructions, stores),
            ("rename_stall_cycles", "cycles Rename made zero progress for want of physical registers", Cycles, rename_stall_cycles),
            ("dispatch_stall_rob", "cycles Dispatch stalled on a full ROB", Cycles, dispatch_stall_rob),
            ("dispatch_stall_iq", "cycles Dispatch stalled on a full IQ", Cycles, dispatch_stall_iq),
            ("dispatch_stall_lq", "cycles Dispatch stalled on a full LQ", Cycles, dispatch_stall_lq),
            ("dispatch_stall_sq", "cycles Dispatch stalled on a full SQ", Cycles, dispatch_stall_sq),
            ("fetch_stall_redirect", "cycles the frontend waited on a mispredicted branch", Cycles, fetch_stall_redirect),
            ("branches", "committed conditional branches", Instructions, branches),
            ("branch_mispredicts", "mispredicted conditional branches", Events, branch_mispredicts),
            ("indirects", "committed indirect jumps", Instructions, indirects),
            ("indirect_mispredicts", "mispredicted indirect-jump targets", Events, indirect_mispredicts),
            ("memdep_flushes", "memory-order violation flushes", Events, memdep_flushes),
            ("ncsf_nest_aborts", "predicted pairs abandoned at the Max Active NCS limit", Events, ncsf_nest_aborts),
            ("fusion_flushes", "fusion-repair pipeline flushes (§IV-C cases 5/6)", Events, fusion_flushes),
            ("l1d_accesses", "L1D accesses (demand loads + store drains)", Events, l1d_accesses),
            ("l1d_misses", "L1D misses", Events, l1d_misses),
            ("l2_misses", "L2 misses", Events, l2_misses),
            ("l3_misses", "L3 misses", Events, l3_misses),
            ("stlf_forwards", "store-to-load forwards", Events, stlf_forwards),
            ("uch_queue_dropped", "UCH decoupling-queue records dropped (queue full)", Events, uch_queue_dropped),
            ("uch_queue_drained", "UCH decoupling-queue records drained", Events, uch_queue_drained),
            ("deadlock_breaks", "pending pairs unfused by the resource-deadlock breaker", Events, deadlock_breaks),
            ("injected_faults", "faults injected by an attached FaultInjector", Events, injected_faults),
            ("oracle_checked", "commit records verified by an attached OracleChecker", Events, oracle_checked),
            ("fusion.csf_pairs", "committed consecutive fused pairs", Pairs, csf_pairs),
            ("fusion.ncsf_pairs", "committed non-consecutive fused pairs", Pairs, ncsf_pairs),
        ];
        t.extend(ALL_IDIOMS.into_iter().zip(by_idiom).map(|(idiom, v)| {
            let name = match idiom {
                Idiom::LoadPair => "fusion.idiom.load_pair",
                Idiom::StorePair => "fusion.idiom.store_pair",
                Idiom::LuiAddi => "fusion.idiom.lui_addi",
                Idiom::AuipcAddi => "fusion.idiom.auipc_addi",
                Idiom::SlliAdd => "fusion.idiom.slli_add",
                Idiom::SlliSrli => "fusion.idiom.slli_srli",
                Idiom::IndexedLoad => "fusion.idiom.indexed_load",
                Idiom::LoadGlobal => "fusion.idiom.load_global",
            };
            (name, idiom.name(), Pairs, v)
        }));
        t.extend([
            ("fusion.contiguous", "committed memory pairs: contiguous accesses", Pairs, contiguous),
            ("fusion.overlapping", "committed memory pairs: overlapping accesses", Pairs, overlapping),
            ("fusion.same_line", "committed memory pairs: same cache line", Pairs, same_line),
            ("fusion.next_line", "committed memory pairs: adjacent cache line", Pairs, next_line),
            ("fusion.dbr_pairs", "committed pairs with different base registers", Pairs, dbr_pairs),
            ("fusion.asymmetric_pairs", "committed pairs with different access sizes", Pairs, asymmetric_pairs),
            ("fusion.ncsf_distance_sum", "sum of head→tail distances of committed NCSF pairs", Uops, ncsf_distance_sum),
            ("fusion.predictions", "fusion predictions issued", Events, predictions),
            ("fusion.predictions_correct", "predictions committed as fused pairs", Events, predictions_correct),
            ("fusion.mispredictions", "predictions unfused or flushed", Events, mispredictions),
        ]);
        t.extend(RepairCase::ALL.into_iter().zip(repairs).map(|(case, v)| {
            let (name, desc) = match case {
                RepairCase::RawSourceFix => ("fusion.repair.raw_source_fix", "case 1: catalyst RaW source fixed in place"),
                RepairCase::Deadlock => ("fusion.repair.deadlock", "case 2: dependency deadlock, unfused at Dispatch"),
                RepairCase::StoreInCatalyst => ("fusion.repair.store_in_catalyst", "case 3: store inside a store pair's catalyst, unfused"),
                RepairCase::Serializing => ("fusion.repair.serializing", "case 4: serializing instruction in the catalyst, unfused"),
                RepairCase::SpanMismatch => ("fusion.repair.span_mismatch", "case 5: accesses span past the fusion region, flushed"),
                RepairCase::TailFault => ("fusion.repair.tail_fault", "case 6: tail access faulted, flushed"),
                RepairCase::CatalystFlush => ("fusion.repair.catalyst_flush", "case 7: catalyst squashed under the pair, unfused"),
            };
            (name, desc, Events, v)
        }));
        t
    }

    /// Exports every raw counter plus the derived metrics into `reg` as
    /// self-describing entries. Entry names and units are stable — the
    /// schema snapshot test pins them.
    pub fn export(&self, reg: &mut StatsRegistry) {
        for (name, desc, unit, v) in self.clone().counters() {
            reg.counter(name, desc, unit, *v);
        }
        reg.gauge("ipc", "instructions per cycle", Unit::Ratio, self.ipc());
        reg.gauge(
            "stall_pct",
            "rename + dispatch structural stalls as % of cycles",
            Unit::Percent,
            self.stall_pct(),
        );
        reg.gauge(
            "branch_mpki",
            "branch mispredictions per kilo-instruction",
            Unit::Mpki,
            self.branch_mpki(),
        );
        reg.gauge(
            "fusion.mpki",
            "fusion mispredictions per kilo-instruction",
            Unit::Mpki,
            self.fusion_mpki(),
        );
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

    /// Lossless flat `name → value` projection of every raw counter under
    /// its registry name, in registry order — the result-store and `sweepd`
    /// wire serialization. [`SimStats::from_kv`] inverts it exactly, so a
    /// stored cell reproduces byte-identical report output. Derived metrics
    /// (IPC, MPKI, …) are recomputed, never stored.
    pub fn to_kv(&self) -> Vec<(&'static str, u64)> {
        self.clone()
            .counters()
            .into_iter()
            .map(|(name, _, _, v)| (name, *v))
            .collect()
    }

    /// Rebuilds a `SimStats` from a [`SimStats::to_kv`] projection, in any
    /// key order.
    ///
    /// # Errors
    ///
    /// Unknown, repeated and missing keys are all errors — a projection
    /// written by a different stats schema must be rejected (and its cell
    /// re-simulated), never partially applied.
    pub fn from_kv<'a, I>(kv: I) -> Result<SimStats, String>
    where
        I: IntoIterator<Item = (&'a str, u64)>,
    {
        let mut out = SimStats::default();
        let mut table = out.counters();
        let mut seen = vec![false; table.len()];
        for (k, v) in kv {
            let i = table
                .iter()
                .position(|c| c.0 == k)
                .ok_or_else(|| format!("unknown stats key `{k}`"))?;
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("repeated stats key `{k}`"));
            }
            *table[i].3 = v;
        }
        if let Some(i) = seen.iter().position(|s| !s) {
            return Err(format!(
                "incomplete stats projection: missing `{}`",
                table[i].0
            ));
        }
        Ok(out)
    }
}

/// One raw counter of [`SimStats::counters`]: name, description, unit and
/// the field it reads and writes.
type Counter<'a> = (&'static str, &'static str, Unit, &'a mut u64);

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
        // field↔key mappings (the table's exhaustive destructure already
        // makes a missing field a compile error).
        let assigned: Vec<(&str, u64)> = SimStats::default()
            .to_kv()
            .into_iter()
            .enumerate()
            .map(|(i, (k, _))| (k, 1000 + i as u64))
            .collect();
        assert_eq!(assigned.len(), 29 + 12 + 8 + 7, "expected flat key count");
        let s = SimStats::from_kv(assigned.iter().copied()).unwrap();
        assert_eq!(s.to_kv(), assigned);
        assert_eq!(s.cycles, 1000, "first key is cycles");
        assert_eq!(
            s.fusion.repairs[6],
            1000 + 55,
            "last key is the last repair case"
        );
        // Key order does not matter.
        assert_eq!(
            SimStats::from_kv(assigned.iter().rev().copied()).unwrap(),
            s
        );
    }

    #[test]
    fn kv_names_are_the_registry_counter_names_in_order() {
        let reg = SimStats::default().registry();
        let counters: Vec<&str> = reg
            .entries()
            .iter()
            .filter(|e| matches!(e.value, crate::StatValue::Count(_)))
            .map(|e| e.name)
            .collect();
        let kv: Vec<&str> = SimStats::default()
            .to_kv()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(kv, counters);
    }

    #[test]
    fn kv_rejects_drifted_schemas() {
        let kv = SimStats::default().to_kv();
        let with =
            |extra: (&'static str, u64)| kv.iter().copied().chain([extra]).collect::<Vec<_>>();
        assert!(SimStats::from_kv(with(("no_such_counter", 1)))
            .unwrap_err()
            .contains("unknown"));
        assert!(SimStats::from_kv(kv[1..].iter().copied())
            .unwrap_err()
            .contains("incomplete"));
        // The retired index-keyed names are unknown.
        assert!(SimStats::from_kv([("fusion.by_idiom.0", 1u64)]).is_err());
        // A repeated key may not stand in for a missing one.
        let mut repeated = kv.clone();
        repeated[2] = ("cycles", 7);
        assert!(SimStats::from_kv(repeated)
            .unwrap_err()
            .contains("repeated"));
        assert!(SimStats::from_kv(with(("cycles", 7)))
            .unwrap_err()
            .contains("repeated"));
    }
}
