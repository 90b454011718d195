//! Commit: in-order retirement, extended commit groups for NCSF pairs
//! (§IV-B3), UCH training and fusion-predictor resolution (§IV-A), senior
//! store promotion, and statistics.

use crate::pipeline::Pipeline;
use crate::probe::CommitRecord;
use helios_core::UchTrainRecord;
use helios_emu::UopSource;

impl<I: UopSource> Pipeline<I> {
    /// One cycle of Commit.
    pub(crate) fn stage_commit(&mut self) {
        let mut budget = self.cfg.commit_width;
        // µ-ops at or past a scheduled flush point must not retire; they are
        // about to be squashed and re-fetched.
        let flush_fence = self.pending_flushes.iter().map(|f| f.restart).min();
        while budget > 0 {
            let Some(front) = self.rob.front() else { break };
            if flush_fence.is_some_and(|r| front.uop.seq >= r) {
                break;
            }
            if !self.ready_bit(front.uop.seq) || front.uop.is_pending_ncsf() {
                break;
            }
            // Extended commit group (§IV-B3): an NCSF'd µ-op retires only
            // when its whole nucleii+catalyst group is ready to retire.
            if let Some(f) = &front.uop.fused {
                if f.pred.is_some() {
                    let tail_seq = f.tail_seq;
                    let group_ready = self
                        .rob
                        .iter()
                        .skip(1)
                        .take_while(|e| e.uop.seq < tail_seq)
                        .all(|e| self.ready_bit(e.uop.seq));
                    if !group_ready {
                        break;
                    }
                }
            }

            // `front` above proved the ROB is non-empty.
            let Some(e) = self.rob.pop_front() else { break };
            self.rob_abs_base += 1;
            budget -= 1;
            let u = e.uop;
            // The absorbed tail retires with its head; no later flush may
            // restart at or below it (it would re-fetch a retired µ-op).
            if let Some(f) = &u.fused {
                self.atomic_commit_floor = self.atomic_commit_floor.max(f.tail_seq + 1);
            }
            self.emit(|p, now| p.committed(&CommitRecord::of(&u), now));

            // --- Instruction counts. ---
            self.stats.uops += 1;
            self.stats.instructions += u.inst_count();
            let tail_inst = u.fused.map(|f| f.tail_inst);
            for inst in std::iter::once(u.inst).chain(tail_inst) {
                if inst.is_load() {
                    self.stats.loads += 1;
                    self.stats.mem_instructions += 1;
                } else if inst.is_store() {
                    self.stats.stores += 1;
                    self.stats.mem_instructions += 1;
                }
            }

            // --- Branch statistics. ---
            if e.conditional {
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.branch_mispredicts += 1;
                }
                let taken = u.next_pc != u.pc + 4;
                self.commit_ghr = (self.commit_ghr << 1) | taken as u64;
            } else if e.indirect {
                self.stats.indirects += 1;
                if e.mispredicted {
                    self.stats.indirect_mispredicts += 1;
                }
            }

            // --- Fusion statistics + predictor resolution. ---
            if let Some(f) = &u.fused {
                self.stats.fusion.record_pair(
                    f.idiom,
                    f.class,
                    f.contiguity,
                    f.dbr,
                    f.asymmetric,
                    f.tail_seq - u.seq,
                );
                if let Some(meta) = f.pred {
                    self.stats.fusion.predictions_correct += 1;
                    self.fp.resolve(&meta, true);
                }
            }

            // --- UCH training (Helios only, §IV-A1). ---
            // Eligible (unfused) memory µ-ops enter the post-commit
            // decoupling queue; a full queue simply drops the record ("it
            // will get a chance to train at a later time"). The queue drains
            // into the UCH once per cycle in `Pipeline::cycle`.
            if self.cfg.fusion.predictive() && u.fused.is_none() {
                if let Some(acc) = u.mem {
                    self.uch_queue.offer(UchTrainRecord {
                        pc: u.pc,
                        ghr: self.commit_ghr,
                        seq: u.seq,
                        line: acc.line(self.cfg.helios.line_bytes),
                        is_store: acc.is_store,
                    });
                }
            }

            // --- Resource release. ---
            self.free_phys += e.phys_allocated;
            self.committed_upto = u.seq + 1;
            while self.lq.front().is_some_and(|l| l.seq == u.seq) {
                self.lq.pop_front();
            }
            // At most one SQ entry per µ-op (a fused store pair shares one);
            // only stores have one at all, so gate the search on the class.
            if u.sq_accesses().0.is_some() {
                if let Some(si) = self.sq_index(u.seq) {
                    self.sq[si].senior = true;
                }
            }
        }

        if self.tail_undos.len() > 64 {
            let upto = self.committed_upto;
            self.tail_undos.retain(|t| t.tail_seq >= upto);
        }
        self.window.release_below(self.committed_upto);
    }
}
