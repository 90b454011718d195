//! Fetch + Decode: branch prediction, consecutive (decode-time) fusion,
//! Helios predictive pair marking, and oracle pairing.

use crate::pipeline::Pipeline;
use crate::uop::{AqEntry, CatalystHazards, DynUop, Fused};
use helios_core::{classify_contiguity, is_asymmetric, match_idiom, FusionClass, Idiom};
use helios_emu::{Retired, UopSource};
use helios_isa::Inst;

impl<I: UopSource> Pipeline<I> {
    /// One cycle of the frontend: fetch up to `fetch_width` µ-ops from the
    /// trace window, predict control flow, fuse/mark, and insert into the AQ.
    pub(crate) fn stage_fetch_decode(&mut self) {
        // Redirect handling: resolve an outstanding mispredicted control µ-op.
        if let Some(seq) = self.redirect_wait {
            match self.board.get(seq) {
                Some(done) => {
                    self.resume_at = self
                        .resume_at
                        .max(done + self.cfg.branch_redirect_penalty);
                    self.redirect_wait = None;
                }
                None => {
                    self.stats.fetch_stall_redirect += 1;
                    return;
                }
            }
        }
        if self.now < self.resume_at {
            self.stats.fetch_stall_redirect += 1;
            return;
        }

        let mut budget = self.cfg.fetch_width;
        while budget > 0 && self.aq.len() < self.cfg.aq_size {
            let Some(r) = self.window.fetch() else { break };
            budget -= 1;
            self.emit(|p, now| p.fetched(r.seq, r.pc, r.inst, now));

            // Branch prediction against the oracle outcome.
            let taken = r.control_taken();
            let outcome = self.bp.process(r.pc, &r.inst, taken, r.next_pc);
            let mut mispredicted = false;
            let (mut conditional, mut indirect) = (false, false);
            if let Some(o) = outcome {
                mispredicted = o.mispredicted;
                conditional = o.conditional;
                indirect = o.indirect;
            }

            self.decode_one(&r, mispredicted, conditional, indirect);

            if mispredicted {
                // Fetch stalls until this µ-op resolves (§V trace-driven
                // model: the wrong path is charged as frontend idle time).
                self.redirect_wait = Some(r.seq);
                break;
            }
            // Correctly-predicted taken branches do not break the fetch
            // stream: the decoupled frontend (BTB + FTQ) keeps feeding the
            // 8-wide decoder so the Allocation Queue fills (§V-A).
        }
    }

    /// Decodes one µ-op: attempts consecutive fusion, then predictive or
    /// oracle pairing, then inserts into the AQ.
    fn decode_one(&mut self, r: &Retired, mispredicted: bool, conditional: bool, indirect: bool) {
        let mode = self.cfg.fusion;

        // --- Consecutive fusion within the fusion window (§II-B). ---
        if mode.csf_mem_pairs() || mode.other_idioms() {
            if let Some(AqEntry::Uop(prev)) = self.aq.back() {
                if prev.seq + 1 == r.seq && prev.fused.is_none() {
                    if let Some(idiom) = match_idiom(
                        &prev.inst,
                        &r.inst,
                        mode.csf_mem_pairs(),
                        mode.other_idioms(),
                    ) {
                        let prev_mem = prev.mem;
                        let head_seq = prev.seq;
                        let Some(AqEntry::Uop(prev)) = self.aq.back_mut() else {
                            unreachable!()
                        };
                        prev.fused = Some(Fused {
                            idiom,
                            class: FusionClass::Consecutive,
                            tail_seq: r.seq,
                            tail_pc: r.pc,
                            tail_inst: r.inst,
                            tail_mem: r.mem,
                            contiguity: None,
                            dbr: false,
                            asymmetric: match (prev_mem, r.mem) {
                                (Some(a), Some(b)) => is_asymmetric(&a, &b),
                                _ => false,
                            },
                            pred: None,
                            pending: false,
                            hazards: CatalystHazards::default(),
                        });
                        self.emit(|p, _| p.fused(head_seq, r.seq));
                        // The tail nucleus disappears from the pipeline.
                        return;
                    }
                }
            }
        }

        // --- Helios predictive marking (§IV-A). ---
        if mode.predictive() && r.inst.is_mem() && self.try_predictive_mark(r) {
            return;
        }

        // --- Oracle pairing (upper bound, §V-A). ---
        if mode.oracle_mem() && r.inst.is_mem() && self.try_oracle_pair(r) {
            return;
        }

        let mut u = DynUop::new(r);
        u.mispredicted = mispredicted;
        u.conditional = conditional;
        u.indirect = indirect;
        self.aq.push_back(AqEntry::Uop(u));
    }

    /// Attempts to mark an NCSF/NCTF/DBR pair from a fusion-predictor hit.
    /// Returns `true` if `r` became a tail nucleus (a Tail marker was pushed).
    fn try_predictive_mark(&mut self, r: &Retired) -> bool {
        let Some(meta) = self.fp.predict(r.pc, self.bp.ghr()) else {
            return false;
        };
        // Fault injection: a suppressed hit models a flipped predictor
        // decision — the pair proceeds unfused.
        if let Some(inj) = self.fault.as_mut() {
            if inj.suppress_prediction() {
                self.stats.injected_faults += 1;
                return false;
            }
        }
        let Some(head_seq) = r.seq.checked_sub(meta.distance as u64) else {
            return false;
        };
        // Condition 3: head still in the Allocation Queue.
        let Some(head_idx) = self.aq_index(head_seq) else {
            return false;
        };
        let AqEntry::Uop(head) = &self.aq[head_idx] else {
            return false;
        };
        // Condition 2: valid idiom — same kind, head unfused.
        if head.fused.is_some() {
            return false;
        }
        let (idiom, dbr) = match (&head.inst, &r.inst) {
            (Inst::Load { rs1: b0, rd: rd0, .. }, Inst::Load { rs1: b1, rd: rd1, .. }) => {
                if rd0 == rd1 || head.inst.rd() == Some(*b1) {
                    // Destination collision, or the tail's address depends on
                    // the head ("dependent loads", §II-B) — invalid idiom.
                    return false;
                }
                (Idiom::LoadPair, b0 != b1)
            }
            (Inst::Store { rs1: b0, .. }, Inst::Store { rs1: b1, .. }) => {
                if b0 != b1 && !self.cfg.helios.dbr_store_pairs {
                    return false; // DBR store pairs unsupported (§IV-B).
                }
                (Idiom::StorePair, b0 != b1)
            }
            _ => return false,
        };

        let mut hazards = self.scan_catalyst(head_idx, &r.inst, idiom == Idiom::StorePair);
        // Fault injection: forced hazard bits drive the in-place repairs
        // (cases 1–4) for pairs that did not need them.
        if let Some(inj) = self.fault.as_mut() {
            if inj.corrupt_hazards(&mut hazards) {
                self.stats.injected_faults += 1;
            }
        }
        if hazards.call {
            return false;
        }
        let head_mem = head.mem;
        let class = if meta.distance == 1 {
            FusionClass::Consecutive
        } else {
            FusionClass::NonConsecutive
        };

        let AqEntry::Uop(head) = &mut self.aq[head_idx] else {
            unreachable!()
        };
        head.fused = Some(Fused {
            idiom,
            class,
            tail_seq: r.seq,
            tail_pc: r.pc,
            tail_inst: r.inst,
            tail_mem: r.mem,
            contiguity: None,
            dbr,
            asymmetric: match (head_mem, r.mem) {
                (Some(a), Some(b)) => is_asymmetric(&a, &b),
                _ => false,
            },
            pred: Some(meta),
            pending: true,
            hazards,
        });
        self.aq.push_back(AqEntry::Tail {
            seq: r.seq,
            pc: r.pc,
            head_seq,
        });
        self.stats.fusion.predictions += 1;
        self.emit(|p, _| p.fused(head_seq, r.seq));
        true
    }

    /// Oracle pairing: scan the AQ backward for the closest eligible head.
    /// Returns `true` if `r` was absorbed into a fused head.
    fn try_oracle_pair(&mut self, r: &Retired) -> bool {
        // The emulator records an access for every memory inst; a missing
        // one just means no pairing opportunity.
        let Some(r_mem) = r.mem else { return false };
        let line = self.cfg.helios.line_bytes;
        let max_d = self.cfg.helios.uch.max_distance as u64;
        let is_store = r.inst.is_store();

        for head_idx in (0..self.aq.len()).rev() {
            let AqEntry::Uop(head) = &self.aq[head_idx] else {
                continue;
            };
            if r.seq - head.seq > max_d {
                break;
            }
            if head.fused.is_some() || !head.inst.is_mem() || head.inst.is_store() != is_store {
                continue;
            }
            let Some(head_mem) = head.mem else { continue };
            if !classify_contiguity(&head_mem, &r_mem, line).fusible() {
                continue;
            }
            // Idiom validity mirrors the Helios checks.
            let (idiom, dbr) = match (&head.inst, &r.inst) {
                (Inst::Load { rs1: b0, rd: rd0, .. }, Inst::Load { rs1: b1, rd: rd1, .. }) => {
                    if rd0 == rd1 {
                        continue;
                    }
                    (Idiom::LoadPair, b0 != b1)
                }
                (Inst::Store { rs1: b0, .. }, Inst::Store { rs1: b1, .. }) => {
                    if b0 != b1 {
                        continue; // SBR store pairs only.
                    }
                    (Idiom::StorePair, false)
                }
                _ => continue,
            };
            let hazards = self.scan_catalyst(head_idx, &r.inst, is_store);
            if hazards.deadlock || hazards.serializing || hazards.call {
                continue;
            }
            if is_store && hazards.store_in_catalyst {
                continue;
            }
            let head_seq = head.seq;
            let distance = r.seq - head.seq;
            let class = if distance == 1 {
                FusionClass::Consecutive
            } else {
                FusionClass::NonConsecutive
            };
            let AqEntry::Uop(head) = &mut self.aq[head_idx] else {
                unreachable!()
            };
            head.fused = Some(Fused {
                idiom,
                class,
                tail_seq: r.seq,
                tail_pc: r.pc,
                tail_inst: r.inst,
                tail_mem: r.mem,
                contiguity: Some(classify_contiguity(&head_mem, &r_mem, line)),
                dbr,
                asymmetric: is_asymmetric(&head_mem, &r_mem),
                pred: None,
                pending: false,
                hazards,
            });
            // Oracle absorbs the tail immediately (upper bound: no
            // validation latency, no Tail marker).
            self.emit(|p, _| p.fused(head_seq, r.seq));
            return true;
        }
        false
    }

    /// Finds the AQ index holding µ-op `seq`.
    fn aq_index(&self, seq: u64) -> Option<usize> {
        // AQ is seq-ordered; binary search over the (small) deque.
        let (a, b) = self.aq.as_slices();
        if let Ok(i) = a.binary_search_by_key(&seq, |e| e.seq()) {
            return Some(i);
        }
        if let Ok(i) = b.binary_search_by_key(&seq, |e| e.seq()) {
            return Some(a.len() + i);
        }
        None
    }

    /// Scans the catalyst (AQ entries after `head_idx`) for the hazards of
    /// §IV-B: transitive head→tail dependencies (deadlock), catalyst stores
    /// (for store pairs), serializing µ-ops, and catalyst writes to tail
    /// sources (RaW).
    fn scan_catalyst(
        &self,
        head_idx: usize,
        tail_inst: &Inst,
        _store_pair: bool,
    ) -> CatalystHazards {
        let mut hz = CatalystHazards::default();
        let mut tainted = [false; 32]; // depends on a head destination
        let mut written = [false; 32]; // written by the catalyst
        let AqEntry::Uop(head) = &self.aq[head_idx] else {
            return hz;
        };
        for d in head.dests() {
            tainted[d.index()] = true;
        }
        // Memory-carried taint. The memory-dependence predictor can
        // serialize a catalyst load behind the head store (or behind a
        // catalyst store whose operands depend on the head): that load's
        // STA-resolution wait is then gated on the fused pair issuing,
        // exactly like a register dependence. A tail source fed by such a
        // load closes a head→tail wait cycle the register-only scan cannot
        // see, deadlocking the pair at Issue (fuzzer-found). Treat loads
        // issued under tainted memory as tainted.
        let mut mem_tainted = head.inst.is_store();
        for e in self.aq.iter().skip(head_idx + 1) {
            let AqEntry::Uop(u) = e else { continue };
            let writes_mem =
                u.inst.is_store() || u.fused.as_ref().is_some_and(|f| f.tail_inst.is_store());
            let reads_mem = (u.inst.is_mem() && !u.inst.is_store())
                || u
                    .fused
                    .as_ref()
                    .is_some_and(|f| f.tail_inst.is_mem() && !f.tail_inst.is_store());
            if writes_mem {
                hz.store_in_catalyst = true;
            }
            if u.inst.is_serializing() {
                hz.serializing = true;
            }
            if matches!(u.inst, Inst::Jal { rd, .. } | Inst::Jalr { rd, .. }
                if rd == helios_isa::Reg::RA)
                || matches!(u.inst, Inst::Jalr { rd, rs1, .. }
                    if rd == helios_isa::Reg::ZERO && rs1 == helios_isa::Reg::RA)
            {
                hz.call = true;
            }
            let reads_taint = u.sources().any(|s| tainted[s.index()]);
            if writes_mem && reads_taint {
                mem_tainted = true;
            }
            let loads_taint = reads_mem && mem_tainted;
            for d in u.dests() {
                written[d.index()] = true;
                // Overwritten with an untainted value clears the taint.
                tainted[d.index()] = reads_taint || loads_taint;
            }
        }
        for s in tail_inst.sources() {
            if tainted[s.index()] {
                hz.deadlock = true;
            }
            if written[s.index()] {
                hz.raw_dep = true;
            }
        }
        hz
    }
}
