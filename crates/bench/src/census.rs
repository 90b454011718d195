//! Trace-level fusion-opportunity census — the limit studies behind the
//! paper's §III motivation figures (2, 4, 5).
//!
//! Unlike the pipeline model, the census walks the retired trace directly
//! with perfect knowledge, greedily pairing µ-ops under the stated
//! constraints. This mirrors how a characterization study would instrument
//! a functional simulator.

use helios::Workload;
use helios_core::{classify_contiguity, is_asymmetric, match_idiom, Contiguity, ALL_IDIOMS};
use helios_emu::Retired;
use helios_isa::{Inst, Reg};

/// Outcome of the census over one workload.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Total dynamic µ-ops.
    pub uops: u64,
    /// Consecutive pairs per Table-I idiom, indexed by `Idiom::index`.
    pub csf_by_idiom: [u64; ALL_IDIOMS.len()],
    /// Consecutive Table-I memory pairs (load pair + store pair).
    pub csf_mem_pairs: u64,
    /// Consecutive non-memory idiom pairs.
    pub csf_other_pairs: u64,
    /// Consecutive memory pairs by dynamic contiguity class.
    pub csf_contiguous: u64,
    pub csf_overlapping: u64,
    pub csf_same_line: u64,
    pub csf_next_line: u64,
    /// Additional non-consecutive memory pairs (≤64 µ-ops, same 64-B span).
    pub ncsf_pairs: u64,
    /// NCSF pairs with different access sizes.
    pub ncsf_asymmetric: u64,
    /// Pairs (CSF or NCSF) whose nucleii use different base registers.
    pub dbr_pairs: u64,
}

impl Census {
    /// Memory-pair µ-ops as % of dynamic µ-ops (Fig. 2 "Memory").
    pub fn mem_pct(&self) -> f64 {
        pct(2 * self.csf_mem_pairs, self.uops)
    }

    /// Other-idiom µ-ops as % of dynamic µ-ops (Fig. 2 "Others").
    pub fn other_pct(&self) -> f64 {
        pct(2 * self.csf_other_pairs, self.uops)
    }

    /// NCSF µ-ops as % of dynamic µ-ops (Fig. 5 addition).
    pub fn ncsf_pct(&self) -> f64 {
        pct(2 * self.ncsf_pairs, self.uops)
    }

    /// DBR µ-ops as % of dynamic µ-ops (Fig. 5 DBR series).
    pub fn dbr_pct(&self) -> f64 {
        pct(2 * self.dbr_pairs, self.uops)
    }
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

const LINE: u64 = 64;
const MAX_DIST: u64 = 64;

/// Runs the census over one workload's full trace.
pub fn census(w: &Workload) -> Census {
    let trace: Vec<Retired> = w.stream().collect();
    let mut c = Census {
        uops: trace.len() as u64,
        ..Census::default()
    };
    let mut paired = vec![false; trace.len()];

    // Pass 1: greedy consecutive pairing on Table I idioms.
    let mut i = 0;
    while i + 1 < trace.len() {
        let (a, b) = (&trace[i], &trace[i + 1]);
        if !paired[i] && !paired[i + 1] {
            if let Some(idiom) = match_idiom(&a.inst, &b.inst, true, true) {
                paired[i] = true;
                paired[i + 1] = true;
                c.csf_by_idiom[idiom.index()] += 1;
                if idiom.is_memory_pair() {
                    c.csf_mem_pairs += 1;
                    // The emulator records an access for every memory inst.
                    let (Some(ma), Some(mb)) = (a.mem, b.mem) else {
                        continue;
                    };
                    match classify_contiguity(&ma, &mb, LINE) {
                        Contiguity::Contiguous => c.csf_contiguous += 1,
                        Contiguity::Overlapping => c.csf_overlapping += 1,
                        Contiguity::SameLine => c.csf_same_line += 1,
                        Contiguity::NextLine => c.csf_next_line += 1,
                        Contiguity::TooFar => {}
                    }
                } else {
                    c.csf_other_pairs += 1;
                }
            } else if a.inst.is_mem() && b.inst.is_mem() {
                // Consecutive same-kind memory µ-ops that the static idiom
                // cannot take (different base, gap) but that land in one
                // fusion region: count as CSF-class potential via the NCS
                // machinery (distance 1). Handled by pass 2.
            }
        }
        i += 1;
    }

    // Pass 2: non-consecutive (and consecutive-DBR) pairing with future
    // knowledge, respecting store-ordering, serialization, deadlocks, and
    // call boundaries — the §III-D limit.
    let n = trace.len();
    for head in 0..n {
        if paired[head] || !trace[head].inst.is_mem() {
            continue;
        }
        let h = &trace[head];
        let Some(hm) = h.mem else { continue };
        let is_store = h.inst.is_store();
        let mut tainted = [false; 32];
        if let Some(rd) = h.inst.rd() {
            tainted[rd.index()] = true;
        }
        let mut blocked = false;
        for tail in head + 1..n.min(head + 1 + MAX_DIST as usize) {
            if blocked {
                break;
            }
            let t = &trace[tail];
            // Catalyst constraints accumulate as we scan.
            if t.inst.is_serializing() {
                break;
            }
            if is_call_or_ret(&t.inst) {
                break;
            }
            if !paired[tail] && t.inst.is_mem() && t.inst.is_store() == is_store {
                let Some(tm) = t.mem else { continue };
                let deadlock = t.inst.sources().any(|s| tainted[s.index()]);
                let valid_dests = match (h.inst.rd(), t.inst.rd()) {
                    (Some(a), Some(b)) => a != b,
                    _ => true,
                };
                if !deadlock
                    && valid_dests
                    && classify_contiguity(&hm, &tm, LINE).fusible()
                    && !(is_store && h.inst.mem_base() != t.inst.mem_base())
                {
                    paired[head] = true;
                    paired[tail] = true;
                    c.ncsf_pairs += 1;
                    if is_asymmetric(&hm, &tm) {
                        c.ncsf_asymmetric += 1;
                    }
                    if h.inst.mem_base() != t.inst.mem_base() {
                        c.dbr_pairs += 1;
                    }
                    break;
                }
            }
            // Taint propagation for deadlock detection.
            let reads_taint = t.inst.sources().any(|s| tainted[s.index()]);
            if let Some(rd) = t.inst.rd() {
                tainted[rd.index()] = reads_taint;
            }
            if is_store && t.inst.is_store() {
                blocked = true; // store-store ordering
            }
        }
    }
    c
}

fn is_call_or_ret(inst: &Inst) -> bool {
    matches!(inst, Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } if *rd == Reg::RA)
        || matches!(inst, Inst::Jalr { rd, rs1, .. } if *rd == Reg::ZERO && *rs1 == Reg::RA)
}
