//! Fusion statistics collected by the pipeline and reported by the
//! experiment harness (the raw material of Figs. 2, 4, 5, 8 and Table III).

use crate::{Contiguity, FusionClass, Idiom};

/// Why a fused µ-op had to be repaired (paper §IV-C cases).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RepairCase {
    /// Case 1: RaW between catalyst and tail — source fixed in place.
    RawSourceFix,
    /// Case 2: dependency-based deadlock — unfused at Dispatch.
    Deadlock,
    /// Case 3: store in the catalyst of a store pair — unfused.
    StoreInCatalyst,
    /// Case 4: serializing instruction in the catalyst — unfused.
    Serializing,
    /// Case 5: accesses span more than the fusion region — pipeline flush.
    SpanMismatch,
    /// Case 6: tail access faults — pipeline flush.
    TailFault,
    /// Case 7: mispredicted µ-op in the catalyst — pipeline flush.
    CatalystFlush,
}

impl RepairCase {
    /// All cases, in paper order.
    pub const ALL: [RepairCase; 7] = [
        RepairCase::RawSourceFix,
        RepairCase::Deadlock,
        RepairCase::StoreInCatalyst,
        RepairCase::Serializing,
        RepairCase::SpanMismatch,
        RepairCase::TailFault,
        RepairCase::CatalystFlush,
    ];

    /// Whether this case requires a full pipeline flush (vs in-place repair).
    pub fn needs_flush(self) -> bool {
        matches!(
            self,
            RepairCase::SpanMismatch | RepairCase::TailFault | RepairCase::CatalystFlush
        )
    }

    /// This case's position in [`RepairCase::ALL`] (total — no panic path).
    pub const fn index(self) -> usize {
        match self {
            RepairCase::RawSourceFix => 0,
            RepairCase::Deadlock => 1,
            RepairCase::StoreInCatalyst => 2,
            RepairCase::Serializing => 3,
            RepairCase::SpanMismatch => 4,
            RepairCase::TailFault => 5,
            RepairCase::CatalystFlush => 6,
        }
    }
}

/// Aggregated fusion statistics for one simulation.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FusionStats {
    /// Committed fused pairs that were consecutive.
    pub csf_pairs: u64,
    /// Committed fused pairs that were non-consecutive.
    pub ncsf_pairs: u64,
    /// Committed pairs per idiom (indexed by position in [`ALL_IDIOMS`]).
    pub by_idiom: [u64; 8],
    /// Committed memory pairs per contiguity class.
    pub contiguous: u64,
    pub overlapping: u64,
    pub same_line: u64,
    pub next_line: u64,
    /// Committed memory pairs whose nucleii used different architectural
    /// base registers.
    pub dbr_pairs: u64,
    /// Committed memory pairs with different access sizes.
    pub asymmetric_pairs: u64,
    /// Sum of head→tail distances of committed NCSF pairs (for the mean
    /// catalyst length; paper: 10.5 µ-ops).
    pub ncsf_distance_sum: u64,
    /// Fusion predictions issued (Helios only).
    pub predictions: u64,
    /// Predictions that resulted in a committed fused pair.
    pub predictions_correct: u64,
    /// Predictions that were unfused or flushed.
    pub mispredictions: u64,
    /// Repairs by case.
    pub repairs: [u64; 7],
}

impl FusionStats {
    /// Total committed fused pairs.
    pub fn fused_pairs(&self) -> u64 {
        self.csf_pairs + self.ncsf_pairs
    }

    /// Committed memory pairs (load pair + store pair idioms).
    pub fn memory_pairs(&self) -> u64 {
        self.idiom_count(Idiom::LoadPair) + self.idiom_count(Idiom::StorePair)
    }

    /// Committed non-memory-pair idiom fusions.
    pub fn other_pairs(&self) -> u64 {
        self.fused_pairs() - self.memory_pairs()
    }

    /// Count for one idiom.
    pub fn idiom_count(&self, idiom: Idiom) -> u64 {
        self.by_idiom[idiom.index()]
    }

    /// Records a committed fused pair.
    pub fn record_pair(
        &mut self,
        idiom: Idiom,
        class: FusionClass,
        contiguity: Option<Contiguity>,
        dbr: bool,
        asymmetric: bool,
        distance: u64,
    ) {
        match class {
            FusionClass::Consecutive => self.csf_pairs += 1,
            FusionClass::NonConsecutive => {
                self.ncsf_pairs += 1;
                self.ncsf_distance_sum += distance;
            }
        }
        self.by_idiom[idiom.index()] += 1;
        if let Some(c) = contiguity {
            match c {
                Contiguity::Contiguous => self.contiguous += 1,
                Contiguity::Overlapping => self.overlapping += 1,
                Contiguity::SameLine => self.same_line += 1,
                Contiguity::NextLine => self.next_line += 1,
                Contiguity::TooFar => {}
            }
        }
        if dbr {
            self.dbr_pairs += 1;
        }
        if asymmetric {
            self.asymmetric_pairs += 1;
        }
    }

    /// Records a repair event.
    ///
    /// Case 1 (RaW source fix) keeps the pair fused, so it is *not* a fusion
    /// misprediction; every other case unfuses or flushes and counts as one.
    pub fn record_repair(&mut self, case: RepairCase) {
        self.repairs[case.index()] += 1;
        if case != RepairCase::RawSourceFix {
            self.mispredictions += 1;
        }
    }

    /// Count for one repair case.
    pub fn repair_count(&self, case: RepairCase) -> u64 {
        self.repairs[case.index()]
    }

    /// Mean catalyst distance of committed NCSF pairs.
    pub fn mean_ncsf_distance(&self) -> f64 {
        if self.ncsf_pairs == 0 {
            0.0
        } else {
            self.ncsf_distance_sum as f64 / self.ncsf_pairs as f64
        }
    }

    /// Prediction accuracy in percent (Table III).
    pub fn accuracy_pct(&self) -> f64 {
        let resolved = self.predictions_correct + self.mispredictions;
        if resolved == 0 {
            100.0
        } else {
            100.0 * self.predictions_correct as f64 / resolved as f64
        }
    }

    /// Mispredictions per kilo-instruction (Table III).
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            1000.0 * self.mispredictions as f64 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = FusionStats::default();
        s.record_pair(
            Idiom::LoadPair,
            FusionClass::NonConsecutive,
            Some(Contiguity::SameLine),
            true,
            true,
            12,
        );
        s.record_pair(
            Idiom::StorePair,
            FusionClass::Consecutive,
            Some(Contiguity::Contiguous),
            false,
            false,
            1,
        );
        s.record_pair(Idiom::LuiAddi, FusionClass::Consecutive, None, false, false, 1);
        assert_eq!(s.fused_pairs(), 3);
        assert_eq!(s.memory_pairs(), 2);
        assert_eq!(s.other_pairs(), 1);
        assert_eq!(s.ncsf_pairs, 1);
        assert_eq!(s.dbr_pairs, 1);
        assert_eq!(s.asymmetric_pairs, 1);
        assert_eq!(s.same_line, 1);
        assert_eq!(s.contiguous, 1);
        assert_eq!(s.mean_ncsf_distance(), 12.0);
    }

    #[test]
    fn index_matches_canonical_order() {
        for (i, &c) in RepairCase::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?} out of ALL order");
        }
        for (i, &d) in crate::ALL_IDIOMS.iter().enumerate() {
            assert_eq!(d.index(), i, "{d:?} out of ALL_IDIOMS order");
        }
    }

    #[test]
    fn accuracy_and_mpki() {
        let mut s = FusionStats {
            predictions: 100,
            predictions_correct: 99,
            ..Default::default()
        };
        s.record_repair(RepairCase::SpanMismatch);
        assert!((s.accuracy_pct() - 99.0).abs() < 1e-9);
        assert!((s.mpki(1_000_000) - 0.001).abs() < 1e-12);
        assert_eq!(s.repair_count(RepairCase::SpanMismatch), 1);
        assert!(RepairCase::SpanMismatch.needs_flush());
        assert!(!RepairCase::Deadlock.needs_flush());
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = FusionStats::default();
        assert_eq!(s.mean_ncsf_distance(), 0.0);
        assert_eq!(s.accuracy_pct(), 100.0);
        assert_eq!(s.mpki(0), 0.0);
    }
}
