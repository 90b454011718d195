//! Rename + Dispatch: RAT updates, physical-register and ROB/IQ/LQ/SQ
//! allocation, and the Helios tail-nucleus validation/repair path (§IV-B/C).

use crate::pipeline::{IqEntry, LqEntry, Pipeline, RobEntry, SqEntry, TailUndo, Waiter};
use crate::uop::{AqEntry, DynUop};
use helios_core::{Idiom, RepairCase};
use helios_emu::{Retired, UopSource};

impl<I: UopSource> Pipeline<I> {
    /// Converts the AQ tail marker of an aborted pair back into a normal
    /// µ-op (the paper's "marked as not fused in the AQ through the NCS
    /// Tag").
    pub(crate) fn revive_tail_marker(&mut self, f: &crate::uop::Fused) {
        for e in self.aq.iter_mut() {
            if let AqEntry::Tail { seq, .. } = e {
                if *seq == f.tail_seq {
                    let mut tail = DynUop::new(&Retired {
                        seq: f.tail_seq,
                        pc: f.tail_pc,
                        inst: f.tail_inst,
                        next_pc: f.tail_pc + 4,
                        mem: f.tail_mem,
                        rd_value: None,
                    });
                    tail.fused = None;
                    *e = AqEntry::Uop(tail);
                    return;
                }
            }
        }
    }
}

/// What blocked an allocation attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum AllocBlock {
    Phys,
    Rob,
    Iq,
    Lq,
    Sq,
}

impl<I: UopSource> Pipeline<I> {
    /// Charges `cycles` Rename/Dispatch structural-stall cycles (Fig. 9) to
    /// the resource `b`: a full PRF is a rename stall, a full ROB/IQ/LQ/SQ
    /// a dispatch stall.
    pub(crate) fn charge_alloc_stall(&mut self, b: AllocBlock, cycles: u64) {
        let s = &mut self.stats;
        *match b {
            AllocBlock::Phys => &mut s.rename_stall_cycles,
            AllocBlock::Rob => &mut s.dispatch_stall_rob,
            AllocBlock::Iq => &mut s.dispatch_stall_iq,
            AllocBlock::Lq => &mut s.dispatch_stall_lq,
            AllocBlock::Sq => &mut s.dispatch_stall_sq,
        } += cycles;
    }

    /// The resource blocking the AQ head when this cycle's Rename/Dispatch
    /// would change nothing but that stall's counter: the head is a µ-op
    /// (not a tail marker) that fails `check_capacity` without first
    /// tripping the nest-limit unfuse. `None` when the stage would make
    /// progress or change state, or the AQ is empty.
    pub(crate) fn dispatch_blocked(&self) -> Option<AllocBlock> {
        let Some(AqEntry::Uop(u)) = self.aq.front() else {
            return None;
        };
        if u.is_pending_ncsf() && self.active_pending_ncsf >= self.cfg.helios.max_nest {
            return None;
        }
        self.check_capacity(u).err()
    }

    /// One cycle of Rename + Dispatch over the AQ head.
    pub(crate) fn stage_rename_dispatch(&mut self) {
        let mut budget = self.cfg.rename_width as i64;
        let mut progressed = false;
        let mut block: Option<AllocBlock> = None;

        while budget > 0 {
            let Some(front) = self.aq.front() else { break };
            match *front {
                AqEntry::Uop(mut u) => {
                    // Nesting limit (§IV-B2): a pending NCSF head entering
                    // Rename while Max Active NCS is saturated behaves as
                    // unfused; the tail is unmarked in the AQ.
                    if u.is_pending_ncsf()
                        && self.active_pending_ncsf >= self.cfg.helios.max_nest
                    {
                        // is_pending_ncsf() implies `fused` is Some, so the
                        // unfuse always yields the pair metadata.
                        if let Some(f) = u.unfuse() {
                            self.revive_tail_marker(&f);
                            self.stats.ncsf_nest_aborts += 1;
                            if let Some(o) = self.obs.as_deref_mut() {
                                o.unfused(u.seq, f.tail_seq);
                            }
                            if let Some(AqEntry::Uop(front)) = self.aq.front_mut() {
                                front.fused = None;
                            }
                        }
                    }
                    if let Err(b) = self.check_capacity(&u) {
                        block = Some(b);
                        break;
                    }
                    self.aq.pop_front();
                    if u.is_pending_ncsf() {
                        self.active_pending_ncsf += 1;
                    }
                    self.alloc_uop(u);
                    budget -= 1;
                    progressed = true;
                }
                AqEntry::Tail { seq, pc, head_seq } => {
                    match self.process_tail_marker(seq, pc, head_seq) {
                        Ok(extra_slot) => {
                            self.aq.pop_front();
                            budget -= 1 + extra_slot as i64;
                            progressed = true;
                        }
                        Err(b) => {
                            block = Some(b);
                            break;
                        }
                    }
                }
            }
        }

        // A cycle counts as a Rename/Dispatch structural stall (Fig. 9) when
        // the stage ended blocked on a resource with work still waiting —
        // whether or not some younger-stage progress happened first.
        if progressed || self.aq.is_empty() {
            self.last_dispatch_progress = self.now;
        }
        if let Some(b) = block {
            self.charge_alloc_stall(b, 1);
        }
    }

    /// Checks whether `u` can be renamed and dispatched this cycle.
    fn check_capacity(&self, u: &DynUop) -> Result<(), AllocBlock> {
        let dest_count = u.dests().count();
        if self.free_phys < dest_count {
            return Err(AllocBlock::Phys);
        }
        if self.rob.len() >= self.cfg.rob_size {
            return Err(AllocBlock::Rob);
        }
        if self.iq_len >= self.cfg.iq_size {
            return Err(AllocBlock::Iq);
        }
        if u.lq_accesses().0.is_some() && self.lq.len() >= self.cfg.lq_size {
            return Err(AllocBlock::Lq);
        }
        if u.sq_accesses().0.is_some() && self.sq.len() >= self.cfg.sq_size {
            return Err(AllocBlock::Sq);
        }
        Ok(())
    }

    /// Renames and dispatches `u` (capacity already verified).
    fn alloc_uop(&mut self, u: DynUop) {
        let seq = u.seq;
        let pending = u.is_pending_ncsf();
        if self.obs.is_some() {
            let now = self.now;
            if let Some(o) = self.obs.as_deref_mut() {
                o.renamed(seq, now);
            }
        }

        // --- Rename sources. ---
        // For pending NCSF'd µ-ops only the head's sources are captured now;
        // the tail's are captured (possibly corrected, §IV-B2 RaW) when the
        // tail nucleus reaches Rename.
        // Stores split into STA (address: rs1) and STD (data: rs2) phases,
        // so a store's address can be exposed to waiting loads before its
        // data is produced.
        // At most 2 head + 2 tail sources per side; captured into fixed
        // buffers so dispatch allocates nothing.
        let mut srcs = [0u64; 8];
        let mut nsrc = 0usize;
        let mut data_srcs = [0u64; 4];
        let mut ndata = 0usize;
        let head_rd = u.inst.rd();
        let capture =
            |rat: &[Option<u64>; 32], buf: &mut [u64], n: &mut usize, reg: helios_isa::Reg| {
                if let Some(p) = rat[reg.index()] {
                    if p != seq && !buf[..*n].contains(&p) {
                        assert!(*n < buf.len(), "source capture overflow");
                        buf[*n] = p;
                        *n += 1;
                    }
                }
            };
        if let helios_isa::Inst::Store { rs1, rs2, .. } = u.inst {
            if !rs1.is_zero() {
                capture(&self.rat, &mut srcs, &mut nsrc, rs1);
            }
            if !rs2.is_zero() {
                capture(&self.rat, &mut data_srcs, &mut ndata, rs2);
            }
        } else {
            for s in u.inst.sources() {
                capture(&self.rat, &mut srcs, &mut nsrc, s);
            }
        }
        if let Some(f) = &u.fused {
            if !pending {
                if let helios_isa::Inst::Store { rs1, rs2, .. } = f.tail_inst {
                    // Store-pair tail: address source gates STA, data gates
                    // STD. (Stores have no destinations, so no tail source
                    // can be internal to the fused µ-op.)
                    if !rs1.is_zero() {
                        capture(&self.rat, &mut srcs, &mut nsrc, rs1);
                    }
                    if !rs2.is_zero() {
                        capture(&self.rat, &mut data_srcs, &mut ndata, rs2);
                    }
                } else {
                    for s in f.tail_inst.sources() {
                        // Sources fed by the head inside the fused µ-op
                        // (e.g. the address of an indexed load) are internal.
                        if head_rd == Some(s) {
                            continue;
                        }
                        capture(&self.rat, &mut srcs, &mut nsrc, s);
                    }
                }
            }
        }

        // --- Rename destinations. ---
        let mut undo = [(helios_isa::Reg::ZERO, None); 2];
        let mut undo_len = 0u8;
        let mut phys_allocated = 0;
        if let Some(rd) = u.inst.rd() {
            undo[undo_len as usize] = (rd, self.rat[rd.index()]);
            undo_len += 1;
            self.rat[rd.index()] = Some(seq);
            phys_allocated += 1;
        }
        if let Some(f) = &u.fused {
            if let Some(trd) = f.tail_inst.rd() {
                phys_allocated += 1; // renamed together with the head's
                if pending {
                    // WaR protection (§IV-B2): the RAT is not updated for the
                    // tail's destination until the tail nucleus renames.
                } else {
                    undo[undo_len as usize] = (trd, self.rat[trd.index()]);
                    undo_len += 1;
                    self.rat[trd.index()] = Some(seq);
                }
            }
        }
        self.free_phys -= phys_allocated;

        // --- Dispatch to IQ / LQ / SQ / memdep. ---
        let fu = u.fu();
        let mut memdep_wait = None;
        let (lacc, lacc2) = u.lq_accesses();
        if let Some(acc) = lacc {
            if let Some(sseq) = self.store_sets.load_dependency(u.pc) {
                if !self.producer_ready(sseq, self.now) {
                    memdep_wait = Some(sseq);
                }
            }
            self.lq.push_back(LqEntry {
                seq,
                pc: u.pc,
                acc,
                acc2: lacc2,
                issue_cycle: None,
            });
        }
        let (sacc, sacc2) = u.sq_accesses();
        if let Some(acc) = sacc {
            self.store_sets.store_dispatched(u.pc, seq);
            self.sq.push_back(SqEntry {
                seq,
                pc: u.pc,
                acc,
                acc2: sacc2,
                addr_known_at: None,
                senior: false,
                draining_until: None,
            });
        }

        // Take an IQ slot (capacity already verified) and register a wakeup
        // waiter with every producer that has not completed yet; producers
        // already complete are dropped here, so the pending counts start at
        // exactly the number of outstanding completions.
        let slot = self.iq_free.pop().expect("IQ capacity checked");
        let token = self.iq_token;
        self.iq_token += 1;
        let mut pending_addr = 0u32;
        for &p in &srcs[..nsrc] {
            if !self.producer_ready(p, self.now) {
                self.iq_waiters[(p as usize) % crate::pipeline::BOARD_SLOTS]
                    .push(Waiter { token, slot, is_data: false });
                pending_addr += 1;
            }
        }
        let mut pending_data = 0u32;
        for &p in &data_srcs[..ndata] {
            if !self.producer_ready(p, self.now) {
                self.iq_waiters[(p as usize) % crate::pipeline::BOARD_SLOTS]
                    .push(Waiter { token, slot, is_data: true });
                pending_data += 1;
            }
        }
        self.iq_slots[slot as usize] = Some(IqEntry {
            seq,
            token,
            fu,
            pending_addr,
            pending_data,
            sta_done: false,
            ncs_ready: !pending,
            memdep_wait,
        });
        self.iq_len += 1;
        if !pending && pending_addr == 0 {
            self.iq_ready_insert(seq, slot);
        }
        // Register the ROB slot in the seq→position ring and scrub any stale
        // wakeup bit left in this µ-op's slot by a long-retired (or
        // squashed) occupant.
        self.rob_pos[(seq as usize) % crate::pipeline::BOARD_SLOTS] =
            (seq + 1, self.rob_abs_head);
        self.rob_abs_head += 1;
        self.clear_ready_bit(seq);
        self.rob.push_back(RobEntry {
            mispredicted: u.mispredicted,
            conditional: u.conditional,
            indirect: u.indirect,
            uop: u,
            iq_slot: slot,
            phys_allocated,
            undo,
            undo_len,
        });
    }

    /// Processes a tail-nucleus marker at Rename/Dispatch: validate the
    /// pending NCSF'd µ-op, or unfuse it (repair cases 2/3/4).
    ///
    /// Returns `Ok(extra_slot_used)` or the blocking resource.
    fn process_tail_marker(&mut self, seq: u64, pc: u64, head_seq: u64) -> Result<bool, AllocBlock> {
        let Some(hi) = self.rob_index(head_seq) else {
            // The head was unfused by a flush after this marker survived; the
            // marker is stale. (Defensive: normally markers and heads flush
            // together.)
            return Ok(false);
        };
        let Some(f) = self.rob[hi].uop.fused else {
            return Ok(false);
        };
        debug_assert_eq!(f.tail_seq, seq);
        let hz = f.hazards;
        let must_unfuse =
            hz.deadlock || hz.serializing || (f.idiom == Idiom::StorePair && hz.store_in_catalyst);

        if must_unfuse {
            // (counter drops in both branches below)
            // The tail re-dispatches as its own µ-op, occupying a second
            // dispatch slot (§IV-C cases 2/3/4).
            let mut tail = DynUop::new(&Retired {
                seq,
                pc,
                inst: f.tail_inst,
                next_pc: pc + 4,
                mem: f.tail_mem,
                rd_value: None,
            });
            tail.fused = None;
            self.check_capacity(&tail)?;
            let case = if hz.deadlock {
                RepairCase::Deadlock
            } else if hz.serializing {
                RepairCase::Serializing
            } else {
                RepairCase::StoreInCatalyst
            };
            let pred = f.pred;
            self.unfuse_rob_entry(hi, case);
            if let Some(meta) = pred {
                self.fp.resolve(&meta, false);
            }
            self.active_pending_ncsf -= 1;
            self.alloc_uop(tail);
            return Ok(true);
        }

        // Validated (§IV-B2): perform the tail's deferred destination rename
        // and source capture, then set NCS Ready.
        if let Some(trd) = f.tail_inst.rd() {
            self.tail_undos.push(TailUndo {
                tail_seq: seq,
                reg: trd,
                prev: self.rat[trd.index()],
            });
            self.rat[trd.index()] = Some(head_seq);
        }
        let mut extra_srcs = [0u64; 4];
        let mut nsrc = 0usize;
        let mut extra_data = [0u64; 4];
        let mut ndata = 0usize;
        let capture_tail =
            |reg: helios_isa::Reg, buf: &mut [u64], n: &mut usize, rat: &[Option<u64>; 32]| {
                if reg.is_zero() {
                    return;
                }
                if let Some(p) = rat[reg.index()] {
                    if p != head_seq {
                        buf[*n] = p;
                        *n += 1;
                    }
                }
            };
        if let helios_isa::Inst::Store { rs1, rs2, .. } = f.tail_inst {
            capture_tail(rs1, &mut extra_srcs, &mut nsrc, &self.rat);
            capture_tail(rs2, &mut extra_data, &mut ndata, &self.rat);
        } else {
            for s in f.tail_inst.sources() {
                capture_tail(s, &mut extra_srcs, &mut nsrc, &self.rat);
            }
        }
        // The tail's sources join the head's wakeup gates. Note these
        // producers can be *younger* than the head (catalyst µ-ops between
        // the nuclei); a flush can squash such a producer while the head
        // survives, but the registration stays valid — the trace re-fetches
        // the same sequence number, and its (re-)completion delivers the
        // wakeup. A duplicate of an already-registered producer just adds a
        // second registration + count, which the same completion drains.
        if let Some(slot) = self.iq_slot_of(head_seq) {
            let token = self
                .iq_slots[slot as usize]
                .as_ref()
                .expect("live IQ slot")
                .token;
            let mut add_addr = 0u32;
            for &p in &extra_srcs[..nsrc] {
                if !self.producer_ready(p, self.now) {
                    self.iq_waiters[(p as usize) % crate::pipeline::BOARD_SLOTS]
                        .push(Waiter { token, slot, is_data: false });
                    add_addr += 1;
                }
            }
            let mut add_data = 0u32;
            for &p in &extra_data[..ndata] {
                if !self.producer_ready(p, self.now) {
                    self.iq_waiters[(p as usize) % crate::pipeline::BOARD_SLOTS]
                        .push(Waiter { token, slot, is_data: true });
                    add_data += 1;
                }
            }
            let e = self.iq_slots[slot as usize].as_mut().expect("live IQ slot");
            e.pending_addr += add_addr;
            e.pending_data += add_data;
            e.ncs_ready = true;
            if e.wakeup_ready() {
                let seq = e.seq;
                self.iq_ready_insert(seq, slot);
            }
        }
        if let Some(ff) = self.rob[hi].uop.fused.as_mut() {
            ff.pending = false;
        }
        if self.obs.is_some() {
            let now = self.now;
            if let Some(o) = self.obs.as_deref_mut() {
                o.tail_renamed(seq, now);
            }
        }
        if hz.raw_dep {
            self.stats.fusion.record_repair(RepairCase::RawSourceFix);
        }
        self.active_pending_ncsf -= 1;
        Ok(false)
    }
}
