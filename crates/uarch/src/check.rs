//! Lockstep oracle checker: continuously validates the pipeline's committed
//! µ-op stream against the functional emulator's retired trace, plus the
//! structural invariants the fusion machinery must preserve.
//!
//! A cycle model with in-flight fusion, unfuse repairs, and flush recovery
//! can corrupt its own commit stream in ways that surface (if ever) as
//! slightly-wrong statistics thousands of cycles later. The checker turns
//! those into an immediate [`SimError::InvariantViolation`] carrying a
//! diagnostic snapshot:
//!
//! * **Commit order**: committed sequence numbers are strictly monotonic and
//!   every trace sequence number commits exactly once — either directly or
//!   as the absorbed tail of a fused pair (atomic extended-group commit,
//!   §IV-B3).
//! * **Lockstep identity**: each committed µ-op's `pc`/`inst` match the
//!   emulator's retired record for the same sequence number.
//! * **Unfuse accounting**: `active_pending_ncsf` equals the actual count of
//!   renamed pending NCSF'd µ-ops in the ROB.
//! * **Register file**: free list + in-flight allocations = PRF capacity.
//! * **Occupancy**: ROB/IQ/LQ/SQ/AQ never exceed `PipeConfig` sizes.
//!
//! The checker is opt-in (`Pipeline::attach_checker`). It is a probe
//! (`crate::probe`): it verifies each commit event as the commit stage
//! emits it, so a pipeline stepped with `Pipeline::cycle` is checked as
//! fully as one driven by `try_run`. `try_run` surfaces the first
//! violation on the cycle it happened and runs the structural checks: the
//! O(1) ones every cycle, the whole-structure scans every [`SCAN_PERIOD`]
//! cycles.

use crate::error::{InvariantReport, SimError};
use crate::pipeline::Pipeline;
use crate::probe::{CommitRecord, Probe};
use helios_emu::{Retired, UopSource};
use helios_isa::Inst;
use std::collections::HashMap;

/// Cycles between full-structure invariant scans (ROB/AQ walks).
const SCAN_PERIOD: u64 = 256;

/// Replays the emulator's retired trace in lockstep with the commit stage.
pub struct OracleChecker {
    oracle: Box<dyn Iterator<Item = Retired>>,
    /// Next trace sequence number the commit stream must account for.
    next_seq: u64,
    /// Tails absorbed by already-committed fused heads, keyed by seq; they
    /// account for their trace records when commit order reaches them.
    absorbed: HashMap<u64, (u64, Inst)>,
    /// Commit records verified so far (`SimStats::oracle_checked`).
    checked: u64,
    /// The first violation; no commit after it is checked.
    failure: Option<String>,
}

impl OracleChecker {
    /// Wraps a replay of the same trace the pipeline consumes (e.g. a clone
    /// of the `RetireStream` handed to `Pipeline::new`).
    pub fn new(oracle: impl Iterator<Item = Retired> + 'static) -> OracleChecker {
        OracleChecker {
            oracle: Box::new(oracle),
            next_seq: 0,
            absorbed: HashMap::new(),
            checked: 0,
            failure: None,
        }
    }

    /// Commit records verified so far.
    pub(crate) fn checked(&self) -> u64 {
        self.checked
    }

    /// The next oracle record, which must exist while commits keep arriving.
    fn oracle_next(&mut self) -> Result<Retired, String> {
        let r = self
            .oracle
            .next()
            .ok_or_else(|| "commit stream longer than the oracle trace".to_string())?;
        if r.seq != self.next_seq {
            return Err(format!(
                "oracle trace not dense: expected seq {}, got {}",
                self.next_seq, r.seq
            ));
        }
        Ok(r)
    }

    /// Accounts for every trace record in `[next_seq, upto)` using the
    /// absorbed-tail set (these seqs were skipped by the in-order commit
    /// pointer, so they must have retired early inside an extended group).
    fn drain_absorbed_below(&mut self, upto: u64) -> Result<(), String> {
        while self.next_seq < upto {
            let r = self.oracle_next()?;
            let Some((pc, inst)) = self.absorbed.remove(&r.seq) else {
                return Err(format!(
                    "seq {} (pc {:#x}) never committed: commit order skipped it \
                     and no fused head absorbed it",
                    r.seq, r.pc
                ));
            };
            if pc != r.pc || inst != r.inst {
                return Err(format!(
                    "absorbed tail seq {} mismatches the trace: pipeline \
                     ({pc:#x}, {inst:?}) vs oracle ({:#x}, {:?})",
                    r.seq, r.pc, r.inst
                ));
            }
            self.next_seq += 1;
        }
        Ok(())
    }

    /// Verifies one commit record against the oracle.
    fn advance(&mut self, c: &CommitRecord) -> Result<(), String> {
        if c.seq < self.next_seq {
            return Err(format!(
                "commit order regression: seq {} committed after the commit \
                 pointer reached {} (double commit?)",
                c.seq, self.next_seq
            ));
        }
        self.drain_absorbed_below(c.seq)?;
        if self.absorbed.contains_key(&c.seq) {
            return Err(format!(
                "seq {} committed directly but already retired as the \
                 absorbed tail of an earlier fused head (double commit)",
                c.seq
            ));
        }
        let r = self.oracle_next()?;
        if c.pc != r.pc || c.inst != r.inst {
            return Err(format!(
                "lockstep mismatch at seq {}: pipeline committed ({:#x}, {:?}) \
                 but the emulator retired ({:#x}, {:?})",
                c.seq, c.pc, c.inst, r.pc, r.inst
            ));
        }
        self.next_seq += 1;
        if let Some((tseq, tpc, tinst)) = c.tail {
            if tseq < self.next_seq {
                return Err(format!(
                    "fused head seq {} absorbed tail seq {tseq}, which already \
                     committed (double commit)",
                    c.seq
                ));
            }
            if self.absorbed.insert(tseq, (tpc, tinst)).is_some() {
                return Err(format!(
                    "tail seq {tseq} absorbed by two different fused heads"
                ));
            }
        }
        Ok(())
    }

    /// End-of-run check: every absorbed tail must be consumed and the oracle
    /// trace exhausted.
    fn finish(&mut self) -> Result<(), String> {
        // Any remaining oracle records must be covered by absorbed tails.
        for r in self.oracle.by_ref() {
            let Some((pc, inst)) = self.absorbed.remove(&r.seq) else {
                return Err(format!(
                    "trace seq {} (pc {:#x}) never committed",
                    r.seq, r.pc
                ));
            };
            if pc != r.pc || inst != r.inst {
                return Err(format!(
                    "absorbed tail seq {} mismatches the trace at end of run",
                    r.seq
                ));
            }
        }
        if !self.absorbed.is_empty() {
            let mut seqs: Vec<u64> = self.absorbed.keys().copied().collect();
            seqs.sort_unstable();
            return Err(format!(
                "absorbed tails {seqs:?} have no corresponding trace records \
                 (committed beyond the trace?)"
            ));
        }
        Ok(())
    }
}

impl Probe for OracleChecker {
    fn committed(&mut self, c: &CommitRecord, _now: u64) {
        if self.failure.is_none() {
            match self.advance(c) {
                Ok(()) => self.checked += 1,
                Err(what) => self.failure = Some(what),
            }
        }
    }

    /// The next full-structure scan cycle: an idle skip lands on it, so
    /// `try_run` scans the (unchanged) idle state there.
    fn next_due(&self, now: u64) -> u64 {
        (now + 1).next_multiple_of(SCAN_PERIOD)
    }
}

impl<I: UopSource> Pipeline<I> {
    /// Attaches a lockstep oracle checker that replays `oracle` — an
    /// independent iteration of the same retired trace the pipeline
    /// consumes — and validates every commit against it. Violations surface
    /// as `SimError::InvariantViolation` from [`Pipeline::try_run`].
    pub fn attach_checker(&mut self, oracle: impl Iterator<Item = Retired> + 'static) {
        self.attach_probe(OracleChecker::new(oracle));
    }

    /// The checker's first violation, else the structural invariants.
    /// Returns nothing without a checker attached.
    pub(crate) fn verify_cycle(&self) -> Option<SimError> {
        let failure = self.probe::<OracleChecker>()?.failure.clone();
        let what = failure.or_else(|| self.structural_violation())?;
        Some(self.invariant_error(what))
    }

    /// End-of-run oracle drain; call once the pipeline has fully drained.
    /// A violation found earlier (in a stepped run) is reported first.
    pub(crate) fn verify_finish(&mut self) -> Option<SimError> {
        let checker = self.probe_mut::<OracleChecker>()?;
        let what = match checker.failure.clone() {
            Some(what) => what,
            None => checker.finish().err()?,
        };
        Some(self.invariant_error(what))
    }

    /// O(1) occupancy checks every cycle; full accounting scans every
    /// `SCAN_PERIOD` cycles.
    fn structural_violation(&self) -> Option<String> {
        let s = &self.cfg;
        if self.rob.len() > s.rob_size {
            return Some(format!("ROB over capacity: {} > {}", self.rob.len(), s.rob_size));
        }
        if self.iq_len > s.iq_size {
            return Some(format!("IQ over capacity: {} > {}", self.iq_len, s.iq_size));
        }
        if self.lq.len() > s.lq_size {
            return Some(format!("LQ over capacity: {} > {}", self.lq.len(), s.lq_size));
        }
        if self.sq.len() > s.sq_size {
            return Some(format!("SQ over capacity: {} > {}", self.sq.len(), s.sq_size));
        }
        if self.aq.len() > s.aq_size {
            return Some(format!("AQ over capacity: {} > {}", self.aq.len(), s.aq_size));
        }
        if !self.now.is_multiple_of(SCAN_PERIOD) {
            return None;
        }
        self.accounting_violation()
    }

    /// Whole-structure scans: pending-NCSF census and register-file
    /// conservation.
    fn accounting_violation(&self) -> Option<String> {
        // `active_pending_ncsf` counts *renamed* pending heads: incremented
        // when a pending head leaves the AQ for the ROB, decremented at its
        // tail marker's rename (validation or unfuse) — so the ROB is the
        // census domain; AQ heads have not been counted yet.
        let pending = self
            .rob
            .iter()
            .filter(|e| e.uop.is_pending_ncsf())
            .count();
        if pending != self.active_pending_ncsf {
            return Some(format!(
                "unfuse accounting drift: active_pending_ncsf = {} but the \
                 ROB scan finds {pending} pending NCSF µ-ops",
                self.active_pending_ncsf
            ));
        }
        let allocated: usize = self.rob.iter().map(|e| e.phys_allocated).sum();
        let capacity = self.cfg.free_phys_regs();
        if self.free_phys + allocated != capacity {
            return Some(format!(
                "register free-list drift: free {} + allocated {allocated} != \
                 PRF capacity {capacity}",
                self.free_phys
            ));
        }
        None
    }

    fn invariant_error(&self, what: String) -> SimError {
        SimError::InvariantViolation(Box::new(InvariantReport {
            cycle: self.now,
            committed: self.stats.instructions,
            what,
            snapshot: format!(
                "rob {} aq {} iq {} lq {} sq {} free_phys {} pending_ncsf {} \
                 committed_upto {} atomic_commit_floor {}",
                self.rob.len(),
                self.aq.len(),
                self.iq_len,
                self.lq.len(),
                self.sq.len(),
                self.free_phys,
                self.active_pending_ncsf,
                self.committed_upto,
                self.atomic_commit_floor,
            ),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_emu::MemAccess;

    fn retired(seq: u64) -> Retired {
        Retired {
            seq,
            pc: 0x1000 + seq * 4,
            inst: Inst::NOP,
            next_pc: 0x1004 + seq * 4,
            mem: None::<MemAccess>,
            rd_value: None,
        }
    }

    fn commit(seq: u64) -> CommitRecord {
        CommitRecord {
            seq,
            pc: 0x1000 + seq * 4,
            inst: Inst::NOP,
            tail: None,
        }
    }

    #[test]
    fn accepts_plain_in_order_commits() {
        let mut c = OracleChecker::new((0..5).map(retired));
        for seq in 0..5 {
            c.advance(&commit(seq)).unwrap();
        }
        c.finish().unwrap();
    }

    #[test]
    fn accepts_absorbed_tails_out_of_order() {
        // Head 0 absorbs tail 3; commits arrive as 0(+3), 1, 2, 4.
        let mut c = OracleChecker::new((0..5).map(retired));
        let mut head = commit(0);
        head.tail = Some((3, 0x1000 + 3 * 4, Inst::NOP));
        c.advance(&head).unwrap();
        c.advance(&commit(1)).unwrap();
        c.advance(&commit(2)).unwrap();
        c.advance(&commit(4)).unwrap();
        c.finish().unwrap();
    }

    #[test]
    fn rejects_double_commit() {
        let mut c = OracleChecker::new((0..5).map(retired));
        c.advance(&commit(0)).unwrap();
        c.advance(&commit(1)).unwrap();
        let err = c.advance(&commit(1)).unwrap_err();
        assert!(err.contains("regression"), "{err}");
    }

    #[test]
    fn rejects_recommitted_absorbed_tail() {
        // Head 0 absorbs tail 2; seq 2 later also commits directly — the
        // double-commit class of bug the atomic-commit floor prevents.
        let mut c = OracleChecker::new((0..5).map(retired));
        let mut head = commit(0);
        head.tail = Some((2, 0x1000 + 2 * 4, Inst::NOP));
        c.advance(&head).unwrap();
        c.advance(&commit(1)).unwrap();
        let err = c.advance(&commit(2)).unwrap_err();
        assert!(err.contains("seq 2"), "{err}");
    }

    #[test]
    fn rejects_skipped_seq() {
        let mut c = OracleChecker::new((0..5).map(retired));
        c.advance(&commit(0)).unwrap();
        let err = c.advance(&commit(2)).unwrap_err();
        assert!(err.contains("never committed"), "{err}");
    }

    #[test]
    fn rejects_pc_mismatch() {
        let mut c = OracleChecker::new((0..5).map(retired));
        let mut bad = commit(0);
        bad.pc = 0xdead;
        let err = c.advance(&bad).unwrap_err();
        assert!(err.contains("lockstep mismatch"), "{err}");
    }

    #[test]
    fn rejects_unconsumed_tail_at_finish() {
        let mut c = OracleChecker::new((0..2).map(retired));
        let mut head = commit(0);
        head.tail = Some((7, 0x1000 + 7 * 4, Inst::NOP));
        c.advance(&head).unwrap();
        c.advance(&commit(1)).unwrap();
        let err = c.finish().unwrap_err();
        assert!(err.contains("[7]"), "{err}");
    }
}
