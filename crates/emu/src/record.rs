//! Record-once/replay-many traces.
//!
//! A full fusion sweep simulates every workload under six configurations,
//! but the functional execution is identical in all of them — only the
//! timing model changes. [`RecordedTrace`] runs the emulator once and keeps
//! the retired-µ-op sequence behind an `Arc`, so every configuration
//! (and every worker thread) replays the same shared recording instead of
//! re-executing the program.
//!
//! Recording is strict about fuel: a program that fails to halt within its
//! budget yields [`EmuError::OutOfFuel`], never a silently truncated trace.
//! (A live `RetireStream` simply stops at the budget; a recording that did
//! the same would make every downstream figure quietly wrong.)

use crate::{Cpu, EmuError, Retired};
use helios_isa::{Program, ISA_VERSION};
use std::fmt;
use std::io;
use std::sync::Arc;

/// An immutable, shareable recording of a program's retired-µ-op trace.
///
/// Cloning is cheap (two `Arc` bumps); [`RecordedTrace::replay`] hands out
/// any number of independent iterators over the same buffer, each usable as
/// a pipeline [`UopSource`](crate::UopSource). The *in-memory* recording
/// owns `size_of::<Retired>()` (72) bytes per dynamic µ-op — tens of MiB
/// for a ~1 M µ-op kernel — which is why the on-disk HTRC2 format
/// ([`crate::codec`]) stores ~1–2 bytes per µ-op, the trace store records
/// straight into it, and sweep cells replay block-at-a-time via
/// [`crate::BlockReplay`] instead of materializing one of these per job.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    // The recording loop's own buffer, kept as is: converting it to an
    // `Arc<[Retired]>` would copy it and briefly hold the trace twice.
    uops: Arc<Vec<Retired>>,
    output: Arc<[u64]>,
}

/// Executes `program` to completion, handing every retired µ-op to `sink`
/// in program order, and returns the values the program reported through
/// the `write` ecall. The one recording loop: the in-memory recording and
/// the trace store's streaming encoder both run the emulator through it.
///
/// # Errors
///
/// Fetch faults, [`EmuError::OutOfFuel`] if the program does not halt
/// within `fuel` µ-ops (a starved recording is an error, never a
/// truncated trace), and whatever `sink` returns.
pub(crate) fn run<E: From<EmuError>>(
    program: Program,
    fuel: u64,
    mut sink: impl FnMut(Retired) -> Result<(), E>,
) -> Result<Vec<u64>, E> {
    let mut cpu = Cpu::new(program);
    while !cpu.halted() {
        if cpu.retired() >= fuel {
            return Err(EmuError::OutOfFuel {
                executed: cpu.retired(),
            }
            .into());
        }
        match cpu.step()? {
            Some(r) => sink(r)?,
            None => break,
        }
    }
    Ok(cpu.output().to_vec())
}

impl RecordedTrace {
    /// Executes `program` to completion and records every retired µ-op.
    ///
    /// # Errors
    ///
    /// Propagates fetch faults, and returns [`EmuError::OutOfFuel`] if the
    /// program does not halt within `fuel` µ-ops — a starved recording is an
    /// error, never a truncated trace.
    pub(crate) fn capture(program: Program, fuel: u64) -> Result<RecordedTrace, EmuError> {
        let mut uops = Vec::new();
        let output = run(program, fuel, |r| {
            uops.push(r);
            Ok::<(), EmuError>(())
        })?;
        Ok(RecordedTrace {
            uops: Arc::new(uops),
            output: output.into(),
        })
    }

    /// Number of retired µ-ops in the recording.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The recorded µ-ops, in program order.
    pub fn uops(&self) -> &[Retired] {
        &self.uops
    }

    /// Values the program reported through the `write` ecall, in order
    /// (workload checksums).
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// A fresh replay iterator over the shared buffer.
    pub fn replay(&self) -> TraceReplay {
        TraceReplay {
            uops: Arc::clone(&self.uops),
            pos: 0,
        }
    }

    /// The integrity stamp a serialized copy of this recording would carry:
    /// the current [`ISA_VERSION`] plus a one-pass hash of its full
    /// semantic content (every µ-op field and every output word; the
    /// definition is in [`crate::codec`]'s module docs).
    pub fn stamp(&self) -> TraceStamp {
        content_stamp(&self.uops, &self.output)
    }
}

/// Magic bytes opening every serialized trace ("Helios TRaCe").
pub(crate) const TRACE_MAGIC: &[u8; 4] = b"HTRC";

/// The semantic content stamp of a whole trace: the [`ContentHash`] of
/// `uops` then `output`, so a trace keeps its identity whether it lives in
/// memory or in a file.
pub(crate) fn content_stamp(uops: &[Retired], output: &[u64]) -> TraceStamp {
    let mut h = ContentHash::new();
    for r in uops {
        h.uop(r);
    }
    h.finish(uops.len() as u64, output)
}

/// The content stamp's hash, computed in one pass as µ-ops retire: six
/// words per µ-op, each absorbed by a step that is a bijection of the
/// state and of the word, with the output and the µ-op count last and a
/// murmur3 finalizer. The definition, word layout included, is in
/// [`crate::codec`]'s module docs.
#[derive(Debug)]
pub(crate) struct ContentHash(u64);

impl ContentHash {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new() -> ContentHash {
        ContentHash(0x4854_5243_5354_4d50) // "HTRCSTMP"
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let h = (self.0 ^ w).wrapping_mul(Self::K);
        self.0 = h ^ (h >> 32);
    }

    /// Absorbs one retired µ-op.
    #[inline]
    pub(crate) fn uop(&mut self, r: &Retired) {
        let (mem_tag, addr, size) = match r.mem {
            None => (0, 0, 0),
            Some(m) => (1 + m.is_store as u64, m.addr, m.size as u64),
        };
        let (rd_tag, rd) = match r.rd_value {
            None => (0, 0),
            Some(v) => (1, v),
        };
        self.word(r.seq);
        self.word(r.pc);
        self.word(r.next_pc);
        self.word(helios_isa::encode(&r.inst) as u64 | mem_tag << 32 | size << 40 | rd_tag << 48);
        self.word(addr);
        self.word(rd);
    }

    /// The stamp of a trace of `uops` absorbed µ-ops that reported
    /// `output`.
    pub(crate) fn finish(mut self, uops: u64, output: &[u64]) -> TraceStamp {
        for &o in output {
            self.word(o);
        }
        self.word(output.len() as u64);
        self.word(uops);
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        TraceStamp {
            isa_version: ISA_VERSION,
            checksum: h,
        }
    }
}

/// Integrity stamp carried by a serialized [`RecordedTrace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceStamp {
    /// [`ISA_VERSION`] at recording time: a cached trace is only as good as
    /// the emulator semantics that produced it.
    pub isa_version: u32,
    /// A one-pass hash of the full semantic content (defined in
    /// [`crate::codec`]'s module docs).
    pub checksum: u64,
}

/// Why a serialized trace could not be loaded. Every variant means the same
/// thing to a sweep driver — discard the cached file and re-record — but the
/// distinction is logged so cache problems are diagnosable.
#[derive(Clone, Debug)]
pub enum TraceIoError {
    /// The file does not start with the `HTRC` magic.
    BadMagic([u8; 4]),
    /// Written by a different serializer format revision.
    FormatVersion { found: u16, want: u16 },
    /// Recorded under different ISA semantics ([`ISA_VERSION`] mismatch).
    StaleIsa { found: u32, want: u32 },
    /// Content does not match the stored checksum (bit rot, torn write).
    ChecksumMismatch { stored: u64, actual: u64 },
    /// The file ended early or contains an impossible field value.
    Truncated,
    /// An instruction word failed to decode.
    Decode { seq: u64, detail: String },
    /// The µ-op sequence violates the derivation invariants the compact
    /// HTRC2 encoding relies on (dense `seq`, pc chaining, memory shape and
    /// destination values matching ISA semantics). Every emulator-produced
    /// trace encodes; a hand-built or tampered one is rejected rather than
    /// mis-encoded.
    Unencodable { seq: u64, detail: String },
    /// An underlying I/O failure.
    Io(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            TraceIoError::FormatVersion { found, want } => {
                write!(f, "trace format v{found}, this build reads v{want}")
            }
            TraceIoError::StaleIsa { found, want } => write!(
                f,
                "trace recorded under ISA version {found}, current is {want}"
            ),
            TraceIoError::ChecksumMismatch { stored, actual } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, content hashes to {actual:#018x}"
            ),
            TraceIoError::Truncated => write!(f, "trace file truncated or corrupt"),
            TraceIoError::Decode { seq, detail } => {
                write!(f, "undecodable instruction at seq {seq}: {detail}")
            }
            TraceIoError::Unencodable { seq, detail } => {
                write!(f, "trace not encodable at seq {seq}: {detail}")
            }
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated
        } else {
            TraceIoError::Io(e.to_string())
        }
    }
}

/// FNV-1a, field-delimited by construction (every variable-length run is
/// preceded by its length). Shared by the block and header framing and the
/// store's content addressing.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    #[inline]
    pub(crate) fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    #[inline]
    pub(crate) fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    #[inline]
    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// An independent cursor over a [`RecordedTrace`]'s shared buffer.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    uops: Arc<Vec<Retired>>,
    pos: usize,
}

impl Iterator for TraceReplay {
    type Item = Retired;

    #[inline]
    fn next(&mut self) -> Option<Retired> {
        let r = self.uops.get(self.pos).copied()?;
        self.pos += 1;
        Some(r)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.uops.len() - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceReplay {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemAccess, RetireStream};
    use helios_isa::parse_asm;

    const LOOP: &str = "li a0, 3\ntop: addi a0, a0, -1\nbnez a0, top\nebreak";

    /// Loads, stores, taken and fall-through branches, rd-less µ-ops and
    /// two output words.
    const RICH: &str = "li a1, 0x1000\n\
                        li a0, 5\n\
                        top: sd a0, 0(a1)\n\
                        lw a2, 0(a1)\n\
                        addi a0, a0, -1\n\
                        bnez a0, top\n\
                        li a7, 64\n\
                        ecall\n\
                        mv a0, a2\n\
                        ecall\n\
                        ebreak";

    #[test]
    fn recording_matches_live_stream() {
        let prog = parse_asm(LOOP).unwrap();
        let rec = RecordedTrace::capture(prog.clone(), 1000).unwrap();
        let live: Vec<_> = RetireStream::new(prog, 1000).collect();
        assert_eq!(rec.uops(), live.as_slice());
    }

    #[test]
    fn replays_are_independent() {
        let prog = parse_asm(LOOP).unwrap();
        let rec = RecordedTrace::capture(prog, 1000).unwrap();
        let mut a = rec.replay();
        let b = rec.replay();
        a.next();
        a.next();
        assert_eq!(b.len(), rec.len(), "b unaffected by a's progress");
        assert_eq!(a.next().unwrap().seq, 2);
    }

    #[test]
    fn starved_fuel_fails_loudly() {
        let prog = parse_asm("top: j top").unwrap();
        let err = RecordedTrace::capture(prog, 100).unwrap_err();
        assert!(matches!(err, EmuError::OutOfFuel { .. }));
    }

    #[test]
    fn output_is_captured() {
        let prog = parse_asm("li a0, 42\nli a7, 64\necall\nebreak").unwrap();
        let rec = RecordedTrace::capture(prog, 100).unwrap();
        assert_eq!(rec.output(), &[42]);
    }

    /// Every single-field change of one µ-op: each bit of seq, pc, the
    /// instruction word (where the flipped word still decodes), next_pc,
    /// the memory address, size and direction, and the rd value, plus
    /// toggling memory-access and rd presence.
    fn single_field_mutants(u: &Retired) -> Vec<Retired> {
        let mutant = |f: &dyn Fn(&mut Retired)| {
            let mut r = *u;
            f(&mut r);
            r
        };
        let mut out = Vec::new();
        for bit in 0..64 {
            let flip = 1u64 << bit;
            out.push(mutant(&|r| r.seq ^= flip));
            out.push(mutant(&|r| r.pc ^= flip));
            out.push(mutant(&|r| r.next_pc ^= flip));
            if u.mem.is_some() {
                out.push(mutant(&|r| r.mem.as_mut().unwrap().addr ^= flip));
            }
            if u.rd_value.is_some() {
                out.push(mutant(&|r| *r.rd_value.as_mut().unwrap() ^= flip));
            }
        }
        let word = helios_isa::encode(&u.inst);
        for bit in 0..32 {
            let flipped = word ^ (1 << bit);
            if let Ok(inst) = helios_isa::decode(flipped) {
                if helios_isa::encode(&inst) == flipped {
                    out.push(mutant(&|r| r.inst = inst));
                }
            }
        }
        if u.mem.is_some() {
            for bit in 0..8 {
                out.push(mutant(&|r| r.mem.as_mut().unwrap().size ^= 1 << bit));
            }
            out.push(mutant(&|r| r.mem.as_mut().unwrap().is_store ^= true));
        }
        let zero = MemAccess {
            addr: 0,
            size: 0,
            is_store: false,
        };
        out.push(mutant(&|r| r.mem = r.mem.xor(Some(zero))));
        out.push(mutant(&|r| r.rd_value = r.rd_value.xor(Some(0))));
        out
    }

    #[test]
    fn stamp_changes_with_any_single_field_of_any_uop() {
        let rec = RecordedTrace::capture(parse_asm(RICH).unwrap(), 1000).unwrap();
        let (uops, output) = (rec.uops(), rec.output());
        let clean = rec.stamp().checksum;
        let mut seen = std::collections::HashSet::from([clean]);
        let (mut mutants, mut flipped_bits) = (0u64, 0u64);
        for i in 0..uops.len() {
            for m in single_field_mutants(&uops[i]) {
                let mut bad = uops.to_vec();
                bad[i] = m;
                let stamp = content_stamp(&bad, output).checksum;
                assert!(seen.insert(stamp), "µ-op {i} mutated to {m:?} collides");
                mutants += 1;
                flipped_bits += (stamp ^ clean).count_ones() as u64;
            }
        }
        // Full avalanche: a one-field change flips about half the bits.
        let mean = flipped_bits as f64 / mutants as f64;
        assert!((30.0..34.0).contains(&mean), "mean {mean:.2} bits flipped");
        // Every kind of mutant was exercised, load/store and ecall µ-ops
        // included.
        assert!(uops.iter().any(|u| u.mem.is_some_and(|m| m.is_store)));
        assert!(uops.iter().any(|u| u.mem.is_some_and(|m| !m.is_store)));
        assert!(mutants > 200 * uops.len() as u64, "{mutants} mutants");
    }

    #[test]
    fn stamp_changes_when_a_uop_or_output_word_is_dropped() {
        let rec = RecordedTrace::capture(parse_asm(RICH).unwrap(), 1000).unwrap();
        let (uops, output) = (rec.uops(), rec.output());
        assert!(output.len() >= 2, "RICH reports two output words");
        let clean = rec.stamp();
        for i in 0..uops.len() {
            let mut short = uops.to_vec();
            short.remove(i);
            assert_ne!(content_stamp(&short, output), clean, "dropped µ-op {i}");
        }
        for i in 0..output.len() {
            let mut short = output.to_vec();
            short.remove(i);
            assert_ne!(content_stamp(uops, &short), clean, "dropped output {i}");
        }
        // An output word moved into the µ-op stream's place, or one more
        // zero word, must not alias either.
        assert_ne!(content_stamp(uops, &[output, &[0]].concat()), clean);
        assert_ne!(content_stamp(&[], output), clean);
    }
}
