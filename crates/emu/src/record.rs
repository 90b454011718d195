//! Record-once/replay-many traces.
//!
//! A full fusion sweep simulates every workload under six configurations,
//! but the functional execution is identical in all of them — only the
//! timing model changes. [`RecordedTrace`] runs the emulator once and keeps
//! the retired-µ-op sequence in an `Arc<[Retired]>`, so every configuration
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
/// owns `size_of::<Retired>()` (~90) bytes per dynamic µ-op — tens of MiB
/// for a ~1 M µ-op kernel — which is why the on-disk HTRC2 format
/// ([`crate::codec`]) stores ~1–2 bytes per µ-op and sweep cells replay
/// block-at-a-time via [`crate::BlockReplay`] instead of materializing one
/// of these per job.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    uops: Arc<[Retired]>,
    output: Arc<[u64]>,
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
        let mut cpu = Cpu::new(program);
        let mut uops = Vec::new();
        while !cpu.halted() {
            if cpu.retired() >= fuel {
                return Err(EmuError::OutOfFuel {
                    executed: cpu.retired(),
                });
            }
            match cpu.step()? {
                Some(r) => uops.push(r),
                None => break,
            }
        }
        Ok(RecordedTrace {
            uops: uops.into(),
            output: cpu.output().to_vec().into(),
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
    /// the current [`ISA_VERSION`] plus an FNV-1a checksum over the full
    /// semantic content (every µ-op field and every output word).
    pub fn stamp(&self) -> TraceStamp {
        content_stamp(&self.uops, &self.output)
    }
}

/// Magic bytes opening every serialized trace ("Helios TRaCe").
pub(crate) const TRACE_MAGIC: &[u8; 4] = b"HTRC";

/// The semantic content hash carried by every serialized trace: FNV-1a
/// over every µ-op field and every output word, so a trace keeps its
/// identity whether it lives in memory or in a file.
pub(crate) fn content_stamp(uops: &[Retired], output: &[u64]) -> TraceStamp {
    let mut h = Fnv::new();
    h.u64(uops.len() as u64);
    for r in uops {
        h.u64(r.seq);
        h.u64(r.pc);
        h.u32(helios_isa::encode(&r.inst));
        h.u64(r.next_pc);
        match r.mem {
            None => h.u8(0),
            Some(m) => {
                h.u8(if m.is_store { 2 } else { 1 });
                h.u64(m.addr);
                h.u8(m.size);
            }
        }
        match r.rd_value {
            None => h.u8(0),
            Some(v) => {
                h.u8(1);
                h.u64(v);
            }
        }
    }
    h.u64(output.len() as u64);
    for &o in output {
        h.u64(o);
    }
    TraceStamp {
        isa_version: ISA_VERSION,
        checksum: h.finish(),
    }
}

/// Integrity stamp carried by a serialized [`RecordedTrace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceStamp {
    /// [`ISA_VERSION`] at recording time: a cached trace is only as good as
    /// the emulator semantics that produced it.
    pub isa_version: u32,
    /// FNV-1a over the full semantic content.
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
/// preceded by its length). Shared by the content stamp, the block framing,
/// and the store's content addressing.
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
    uops: Arc<[Retired]>,
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
    use crate::RetireStream;
    use helios_isa::parse_asm;

    const LOOP: &str = "li a0, 3\ntop: addi a0, a0, -1\nbnez a0, top\nebreak";

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
}
