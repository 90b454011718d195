//! Issue + Execute: wakeup/select over the IQ, functional-unit ports, load
//! execution with store-to-load forwarding and fused-pair cache access,
//! store address generation, and senior-store draining (TSO).

use crate::pipeline::{FlushKind, PendingFlush, Pipeline, StoreCheck};
use crate::FuClass;
use helios_core::{classify_contiguity, Contiguity, Idiom, RepairCase};
use helios_emu::{MemAccess, UopSource};

impl<I: UopSource> Pipeline<I> {
    /// One cycle of Issue/Execute: select ready µ-ops oldest-first within
    /// port constraints and start their execution.
    ///
    /// Fully event-driven: the loop walks only `iq_ready` — the sorted list
    /// of entries whose active phase has zero outstanding producers
    /// (maintained by `wake_consumers` as completions fire) — so a cycle's
    /// cost scales with the handful of issuable µ-ops, not the IQ depth.
    /// Blocked entries are never visited, let alone re-polled.
    ///
    /// The cursor re-finds its position by value each step because the list
    /// mutates mid-loop: issued entries leave it, and a zero-latency
    /// completion can wake consumers into it. Woken consumers land *after*
    /// the cursor in the common producer-older case and *before* it for a
    /// tail-contributed younger producer — exactly matching the old full
    /// scan, which visited dependents of a zero-latency producer later in
    /// the same pass but never re-visited earlier positions.
    pub(crate) fn stage_issue(&mut self) {
        let mut alu = self.cfg.alu_ports;
        let mut loads = self.cfg.load_ports;
        let mut stores = self.cfg.store_ports;
        let now = self.now;
        let mut cursor: Option<(u64, u32)> = None;

        loop {
            if alu == 0 && loads == 0 && stores == 0 {
                break;
            }
            let idx = match cursor {
                None => 0,
                Some(c) => match self.iq_ready.binary_search(&c) {
                    Ok(i) => i + 1, // still listed (port-blocked or STA'd)
                    Err(i) => i,    // issued and removed; successor slid here
                },
            };
            let Some(&(seq, slot)) = self.iq_ready.get(idx) else {
                break;
            };
            cursor = Some((seq, slot));

            let (fu, sta_pending, memdep) = {
                let e = self.iq_slots[slot as usize]
                    .as_ref()
                    .expect("ready-listed IQ entry is live");
                debug_assert_eq!(e.seq, seq);
                debug_assert!(e.wakeup_ready());
                let sta = e.fu == FuClass::Store && !e.sta_done;
                let md = (e.fu == FuClass::Load).then_some(e.memdep_wait).flatten();
                (e.fu, sta, md)
            };
            let port_ok = match fu {
                FuClass::Load => loads > 0,
                FuClass::Store => stores > 0,
                FuClass::Div => alu > 0 && self.div_busy_until <= now,
                _ => alu > 0,
            };
            if !port_ok {
                continue; // stays listed; retried next cycle
            }
            // Store-set dependence: wait until the predicted-conflicting
            // store's address is known. Polled only for *ready* loads, as
            // store drain/squash can satisfy it without any wakeup event.
            if let Some(d) = memdep {
                if !self.store_addr_known(d, now) {
                    continue;
                }
            }

            if sta_pending {
                // STA: compute the address(es), expose them to loads and
                // the violation scan; the entry stays in the IQ for STD.
                stores -= 1;
                let complete = now + self.cfg.alu_latency;
                if let Some(si) = self.sq_index(seq) {
                    let s = &mut self.sq[si];
                    s.addr_known_at = Some(complete);
                    let pc = s.pc;
                    self.store_sets.store_executed(pc, seq);
                }
                self.store_checks.push(StoreCheck {
                    at_cycle: complete,
                    store_seq: seq,
                });
                let e = self.iq_slots[slot as usize]
                    .as_mut()
                    .expect("ready-listed IQ entry is live");
                e.sta_done = true;
                if e.pending_data > 0 {
                    // The active phase is now STD and its producers are
                    // outstanding: leave the ready list until they complete.
                    self.iq_ready_remove(seq, slot);
                }
                continue;
            }
            let latency = self.execute(seq, fu);
            let complete = now + latency;
            match fu {
                FuClass::Load => loads -= 1,
                FuClass::Store => stores -= 1,
                FuClass::Div => {
                    alu -= 1;
                    self.div_busy_until = complete;
                }
                _ => alu -= 1,
            }
            self.record_completion(seq, complete);
            self.emit(|p, _| p.issued(seq, now, complete));
            // Issued: release the IQ slot and leave the ready list.
            self.iq_slots[slot as usize] = None;
            self.iq_free.push(slot);
            self.iq_len -= 1;
            self.iq_ready_remove(seq, slot);
            if let Some(ri) = self.rob_index(seq) {
                self.rob[ri].iq_slot = Self::NO_IQ_SLOT;
            }
        }
    }

    /// Computes the execution latency of µ-op `seq` and performs its memory
    /// side effects (cache accesses, STLF, fused-pair span check).
    fn execute(&mut self, seq: u64, fu: FuClass) -> u64 {
        match fu {
            FuClass::Alu => self.cfg.alu_latency,
            FuClass::Branch => self.cfg.alu_latency,
            FuClass::Mul => self.cfg.mul_latency,
            FuClass::Div => self.cfg.div_latency,
            FuClass::Store => self.cfg.alu_latency,
            FuClass::Load => self.execute_load(seq),
        }
    }

    /// Executes a load (or fused load pair / ALU+load idiom).
    fn execute_load(&mut self, seq: u64) -> u64 {
        let Some(ri) = self.rob_index(seq) else {
            return self.cfg.l1d.latency;
        };
        let u = self.rob[ri].uop;
        let (Some(acc), acc2) = u.lq_accesses() else {
            return self.cfg.l1d.latency;
        };
        let line = self.cfg.helios.line_bytes;

        let mut latency = self.load_access_latency(seq, &acc);

        // ALU+load fused idioms pay the internal address-generation cycle.
        if let Some(f) = &u.fused {
            if matches!(f.idiom, Idiom::IndexedLoad | Idiom::LoadGlobal) {
                latency += 1;
            }
        }

        // Fused load pair: classify the dynamic pair and verify the span
        // (§IV-C case 5: flush + unfuse when it exceeds the fusion region).
        if let Some(a2) = acc2 {
            let c = classify_contiguity(&acc, &a2, line);
            if let Some(f) = self.rob[ri].uop.fused.as_mut() {
                f.contiguity = Some(c);
            }
            if c == Contiguity::TooFar {
                // §IV-C case 5: the accesses span more than the fusion
                // region. The misprediction is uncovered here at Execute
                // (predictor confidence resets now, §IV-A2); the pipeline
                // flushes from the fused µ-op when the access completes, and
                // the whole group is re-fetched unfused.
                self.stats.fusion.record_repair(RepairCase::SpanMismatch);
                if let Some(f) = self.rob[ri].uop.fused.as_mut() {
                    if let Some(meta) = f.pred.take() {
                        self.fp.resolve(&meta, false);
                    }
                }
                self.schedule_flush(PendingFlush {
                    at_cycle: self.now + latency,
                    restart: seq,
                    kind: FlushKind::FusionSpan,
                });
            } else if !c.single_access() {
                // Second serialized access to the next line (§II-B).
                self.mem.access(a2.addr, false, self.now);
                latency += self.cfg.line_cross_penalty;
            }
        }

        if let Some(li) = self.lq_index(seq) {
            self.lq[li].issue_cycle = Some(self.now);
        }
        latency
    }

    /// Base latency of a single load access: STLF against older SQ entries,
    /// then the cache hierarchy.
    fn load_access_latency(&mut self, seq: u64, acc: &MemAccess) -> u64 {
        // Youngest older store with a known address that overlaps.
        for s in self.sq.iter().rev() {
            if s.seq >= seq {
                continue;
            }
            let known = s.addr_known_at.is_some_and(|t| t <= self.now) || s.senior;
            if !known {
                // Unknown address: the load speculates; a violation, if any,
                // is detected when the store executes (store-set training).
                continue;
            }
            let covered_by =
                |a: &MemAccess| a.addr <= acc.addr && a.last_byte() >= acc.last_byte();
            // Either half of a fused store pair can forward (§II-B STLDF
            // handles the full byte-vector of the entry).
            let covers = covered_by(&s.acc) || s.acc2.as_ref().is_some_and(covered_by);
            let overlaps = s.acc.overlaps(acc)
                || s.acc2.is_some_and(|a2| a2.overlaps(acc));
            if covers {
                // Forward only once the store's data exists (STD executed or
                // the store is already senior).
                let data_ready = s.senior || self.ready_bit(s.seq);
                self.stats.stlf_forwards += 1;
                if data_ready {
                    return self.cfg.l1d.latency;
                }
                // Data not produced yet: the load forwards after a short
                // replay (still a store-to-load forward, just delayed).
                return self.cfg.l1d.latency + 4;
            }
            if overlaps {
                // Partial overlap: forwarding impossible; charge a replay
                // penalty on top of the cache access.
                let res = self.mem.access(acc.addr, false, self.now);
                return res.latency + 10;
            }
        }
        let res = self.mem.access(acc.addr, false, self.now);
        let mut lat = res.latency;
        if acc.crosses_line(self.cfg.helios.line_bytes) {
            self.mem.access(acc.last_byte(), false, self.now);
            lat += self.cfg.line_cross_penalty;
        }
        lat
    }

    /// Drains senior stores from the SQ head into the L1D (post-commit,
    /// in order — TSO). The drain port is occupied one cycle per cache
    /// access (two for line-crossing or non-single-access fused pairs);
    /// miss *fills* are handled by the line-fill buffers in the background
    /// (they delay subsequent demand loads via the hierarchy's in-flight
    /// tracking, not the drain port). A fused store pair therefore drains
    /// with a single access — the §III-C bandwidth benefit.
    pub(crate) fn stage_drain_stores(&mut self) {
        let mut budget = self.cfg.store_drain_per_cycle;
        while budget > 0 {
            let now = self.now;
            let line = self.cfg.helios.line_bytes;
            let Some(front) = self.sq.front_mut() else { break };
            if !front.senior {
                break;
            }
            match front.draining_until {
                Some(t) if t <= now => {
                    self.sq.pop_front();
                    budget -= 1;
                }
                Some(_) => break,
                None => {
                    let acc = front.acc;
                    let acc2 = front.acc2;
                    self.mem.access(acc.addr, true, now);
                    let mut port_cycles = 1u64;
                    if acc.crosses_line(line) {
                        self.mem.access(acc.last_byte(), true, now);
                        port_cycles += 1;
                    }
                    if let Some(a2) = acc2 {
                        let c = classify_contiguity(&acc, &a2, line);
                        if !c.single_access() {
                            self.mem.access(a2.addr, true, now);
                            port_cycles += 1;
                        }
                    }
                    if port_cycles == 1 {
                        self.sq.pop_front();
                        budget -= 1;
                    } else {
                        let Some(front) = self.sq.front_mut() else { break };
                        front.draining_until = Some(now + port_cycles - 1);
                        break;
                    }
                }
            }
        }
    }
}
