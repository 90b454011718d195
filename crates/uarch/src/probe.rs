//! One event stream for the pipeline's read-only instruments.
//!
//! The lockstep checker ([`crate::OracleChecker`]), the per-µ-op event
//! observer ([`crate::Observer`]) and the per-stage profiler
//! ([`crate::profile::StageProfile`]) watch the pipeline without changing
//! it. Each is a [`Probe`]. `Pipeline` holds every attached probe in one
//! slot, and each hook site hands its event to all of them with one call,
//! so with nothing attached a hook costs one branch. The fault injector
//! mutates the pipeline, so it stays outside this interface.

use crate::pipeline::Pipeline;
use crate::profile::Stage;
use crate::DynUop;
use helios_emu::UopSource;
use helios_isa::Inst;
use std::any::Any;

/// One committed µ-op as seen by the commit stage: the head identity plus
/// the absorbed tail, if the µ-op retired as a fused pair.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CommitRecord {
    pub seq: u64,
    pub pc: u64,
    pub inst: Inst,
    /// `(tail_seq, tail_pc, tail_inst)` of an absorbed tail nucleus.
    pub tail: Option<(u64, u64, Inst)>,
}

impl CommitRecord {
    pub(crate) fn of(u: &DynUop) -> CommitRecord {
        CommitRecord {
            seq: u.seq,
            pc: u.pc,
            inst: u.inst,
            tail: u.fused.map(|f| (f.tail_seq, f.tail_pc, f.tail_inst)),
        }
    }
}

/// ROB/IQ/LQ/SQ occupancy at the end of a cycle.
pub(crate) type Occupancy = (usize, usize, usize, usize);

/// A read-only pipeline instrument. Every event has an empty default, so a
/// probe implements only the events it consumes.
pub(crate) trait Probe: Any {
    /// `seq` was fetched into the AQ at `now`.
    fn fetched(&mut self, _seq: u64, _pc: u64, _inst: Inst, _now: u64) {}
    /// `tail` was absorbed into fused head `head` (decode fusion,
    /// predictive marking, or oracle pairing).
    fn fused(&mut self, _head: u64, _tail: u64) {}
    /// The pair headed by `head` was unfused in place; `tail` re-enters the
    /// pipeline by re-dispatch or re-fetch.
    fn unfused(&mut self, _head: u64, _tail: u64) {}
    /// `seq` passed Rename/Dispatch at `now`.
    fn renamed(&mut self, _seq: u64, _now: u64) {}
    /// The tail-nucleus marker for `seq` passed Rename at `now`, validating
    /// its head; the tail stays absorbed.
    fn tail_renamed(&mut self, _seq: u64, _now: u64) {}
    /// `seq` issued at `now`, completing execution at `complete`.
    fn issued(&mut self, _seq: u64, _now: u64, _complete: u64) {}
    /// `c` retired at `now`.
    fn committed(&mut self, _c: &CommitRecord, _now: u64) {}
    /// Everything with `seq >= restart` was squashed at `now`.
    fn squashed(&mut self, _restart: u64, _now: u64) {}
    /// `cycles` cycles ended with occupancy `occ`: one for a stepped cycle,
    /// the whole stretch for an idle stretch the run loop jumped over.
    fn cycles_ended(&mut self, _occ: Occupancy, _cycles: u64) {}
    /// `stage` ran for `ns` wall-clock nanoseconds. Stages are timed only
    /// while a [`crate::profile::StageProfile`] is attached.
    fn stage_ran(&mut self, _stage: Stage, _ns: u64) {}
    /// The next cycle after `now` on which the run loop must stop, so the
    /// probe's owner sees the pipeline there: an idle skip lands on it and
    /// never jumps past it. `u64::MAX` means never.
    fn next_due(&self, _now: u64) -> u64 {
        u64::MAX
    }
}

impl<I: UopSource> Pipeline<I> {
    /// Hands one event to every attached probe, with the current cycle.
    #[inline(always)]
    pub(crate) fn emit(&mut self, mut event: impl FnMut(&mut dyn Probe, u64)) {
        for p in &mut self.probes {
            event(p.as_mut(), self.now);
        }
    }

    /// The attached probe of type `P`, if any.
    pub(crate) fn probe<P: Probe>(&self) -> Option<&P> {
        self.probes
            .iter()
            .find_map(|p| (p.as_ref() as &dyn Any).downcast_ref())
    }

    /// The attached probe of type `P`, if any, mutably.
    pub(crate) fn probe_mut<P: Probe>(&mut self) -> Option<&mut P> {
        self.probes
            .iter_mut()
            .find_map(|p| (p.as_mut() as &mut dyn Any).downcast_mut())
    }

    /// Attaches `probe`, replacing any attached probe of the same type.
    pub(crate) fn attach_probe<P: Probe>(&mut self, probe: P) {
        self.detach_probe::<P>();
        self.probes.push(Box::new(probe));
    }

    /// Detaches and returns the probe of type `P`, if any.
    pub(crate) fn detach_probe<P: Probe>(&mut self) -> Option<Box<P>> {
        let i = self
            .probes
            .iter()
            .position(|p| (p.as_ref() as &dyn Any).is::<P>())?;
        (self.probes.remove(i) as Box<dyn Any>).downcast().ok()
    }

    /// Tells the probes that `cycles` cycles ended with the current
    /// occupancy.
    pub(crate) fn end_cycles(&mut self, cycles: u64) {
        let occ = (self.rob.len(), self.iq_len, self.lq.len(), self.sq.len());
        self.emit(|p, _| p.cycles_ended(occ, cycles));
    }
}
