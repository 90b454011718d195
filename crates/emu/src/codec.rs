//! HTRC2: the compact, columnar, block-framed on-disk trace encoding.
//!
//! Serializing every [`Retired`] field raw costs 47 bytes per dynamic
//! µ-op on disk (`size_of::<Retired>()` = 72 in memory), which would cap
//! the trace corpus at a few hundred megabytes and force sweep replay to
//! hold whole traces in memory. HTRC2 exploits the fact that a
//! retired-µ-op trace is *almost entirely derivable* from ISA semantics:
//!
//! * **`pc` chains**: every µ-op's `pc` equals the previous µ-op's
//!   `next_pc`, so only each block's start PC is stored.
//! * **`inst` is a function of `pc`**: code is not self-modifying, so a
//!   per-block dictionary of (pc → instruction word) replaces a 4-byte
//!   word per µ-op with nothing at all per µ-op.
//! * **`next_pc` is usually `pc + 4`**: one bit per µ-op (a deviation
//!   bitmap) plus a zigzag-varint target delta for the exceptions.
//! * **`mem` shape is the instruction's**: size and direction come from
//!   the load/store width, so only the effective address is stored, as a
//!   zigzag-varint delta from the previous access.
//! * **`rd_value` replays**: given a register-file snapshot at block
//!   start, ALU/LUI/AUIPC/JAL(R) destination values are recomputed by the
//!   same `AluOp::eval` semantics the emulator used; only *loaded* values
//!   (which depend on memory) are stored, delta-encoded.
//! * **`seq` is dense**: only each block's first sequence number is kept.
//!
//! Blocks of [`DEFAULT_BLOCK_UOPS`] µ-ops are framed independently — each
//! carries its own register snapshot, length, and FNV-1a checksum over the
//! encoded bytes — so [`BlockReplay`] streams a file block-at-a-time
//! (O(block) peak memory instead of O(trace)) and any flipped bit in any
//! block is detected before a single µ-op from it is replayed.
//!
//! **Recording streams.** The one encoder, `Encoder`, takes µ-ops one at
//! a time, as the emulator retires them: it validates each, appends it to
//! the current block's column streams and folds it into the content
//! stamp, sealing a block as soon as it is full. Only the encoded blocks
//! (~1.3 B/µ-op) are kept; the header, which needs the final µ-op count
//! and stamp, is written first by `Encoder::finish`, then the blocks. The
//! trace store records through it, so a recording never holds a
//! whole-trace `Vec<Retired>`; [`encode_v2`] is the same encoder run over
//! a slice.
//!
//! **The content stamp.** The header carries a semantic stamp: the
//! [`ISA_VERSION`] plus a 64-bit hash of the full content, the same value
//! an in-memory [`RecordedTrace::stamp`](crate::RecordedTrace::stamp)
//! reports and [`decode_all`] re-derives. It is computed in one pass, a
//! 64-bit word at a time. Each µ-op contributes six words: `seq`, `pc`,
//! `next_pc`, the instruction word packed with the memory tag (0 none,
//! 1 load, 2 store) at bit 32, the access size at bit 40 and the `rd`
//! presence bit at bit 48, then the memory address and the `rd` value
//! (0 when absent). Each word `w` is absorbed as
//! `h = (h ^ w) * 0x9e3779b97f4a7c15; h ^= h >> 32`, a bijection of the
//! state and of the word, so changing any one word always changes the
//! stamp. The output words, the output count and, last, the µ-op count
//! follow, so no length is needed up front. The murmur3 64-bit finalizer
//! then gives every input bit full avalanche over the result.
//!
//! **Format version.** The header's version field is 3. Version 2 had the
//! same layout but a byte-at-a-time FNV-1a stamp that hashed the µ-op
//! count first; a version-2 file fails with
//! [`TraceIoError::FormatVersion`], and the store quarantines and
//! re-records it.
//!
//! Traces not produced by the emulator (e.g. a hand-built µ-op sequence
//! that violates pc chaining or carries a load value on a non-load) are
//! rejected at encode time with [`TraceIoError::Unencodable`] rather than
//! silently mis-encoded; every trace the emulator can produce round-trips
//! exactly.

use crate::record::{content_stamp, ContentHash, Fnv, TraceIoError, TraceStamp, TRACE_MAGIC};
use crate::{MemAccess, Retired};
use helios_isa::{decode, encode, Inst, Reg, DEFAULT_STACK_TOP, ISA_VERSION};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// µ-ops per block unless the encoder is told otherwise: large enough to
/// amortize the per-block register snapshot and dictionary to noise,
/// small enough that a streaming replay holds ~5 MB, not a whole trace.
pub const DEFAULT_BLOCK_UOPS: u32 = 64 * 1024;

/// On-disk format version written by [`Encoder`], the only one read.
/// Version 3 changed only the content stamp's definition (see the module
/// docs), so a version-2 file fails with [`TraceIoError::FormatVersion`]
/// and the store re-records it instead of reporting a stamp mismatch.
pub(crate) const FORMAT_VERSION: u16 = 3;

// --- varint / zigzag ------------------------------------------------------

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(b);
            return;
        }
        buf.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let b = *bytes.get(*pos).ok_or(TraceIoError::Truncated)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << (7 * shift);
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceIoError::Truncated)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes `b - a` (wrapping) so the decoder can reconstruct `b` from `a`.
fn put_delta(buf: &mut Vec<u8>, a: u64, b: u64) {
    put_varint(buf, zigzag(b.wrapping_sub(a) as i64));
}

fn get_delta(bytes: &[u8], pos: &mut usize, a: u64) -> Result<u64, TraceIoError> {
    Ok(a.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64))
}

// --- derivation: what a µ-op's fields must look like ----------------------

/// What the destination value of `inst` at `pc` must be, given the
/// architectural register file — mirroring `Cpu::step` exactly.
enum DerivedRd {
    /// The instruction writes no destination.
    None,
    /// The value is computable without memory (stored nowhere).
    Value(Reg, u64),
    /// A load: the value depends on memory and is stored in the stream.
    Load(Reg),
}

fn derive_rd(inst: &Inst, pc: u64, regs: &[u64; 32]) -> DerivedRd {
    let r = |reg: Reg| regs[reg.index()];
    match *inst {
        Inst::Lui { rd, imm20 } => DerivedRd::Value(rd, ((imm20 as i64) << 12) as u64),
        Inst::Auipc { rd, imm20 } => {
            DerivedRd::Value(rd, pc.wrapping_add(((imm20 as i64) << 12) as u64))
        }
        Inst::Jal { rd, .. } | Inst::Jalr { rd, .. } => DerivedRd::Value(rd, pc.wrapping_add(4)),
        Inst::Load { rd, .. } => DerivedRd::Load(rd),
        Inst::OpImm { op, rd, rs1, imm } => DerivedRd::Value(rd, op.eval(r(rs1), imm)),
        Inst::Op { op, rd, rs1, rs2 } => DerivedRd::Value(rd, op.eval(r(rs1), r(rs2))),
        Inst::Branch { .. } | Inst::Store { .. } | Inst::Fence | Inst::Ecall | Inst::Ebreak => {
            DerivedRd::None
        }
    }
}

/// The memory-access shape `inst` mandates: `Some((size, is_store))` for
/// loads/stores, `None` otherwise.
fn mem_shape(inst: &Inst) -> Option<(u8, bool)> {
    match *inst {
        Inst::Load { width, .. } => Some((width.bytes() as u8, false)),
        Inst::Store { width, .. } => Some((width.bytes() as u8, true)),
        _ => None,
    }
}

fn unencodable(seq: u64, why: impl Into<String>) -> TraceIoError {
    TraceIoError::Unencodable {
        seq,
        detail: why.into(),
    }
}

// --- header ---------------------------------------------------------------

/// Parsed HTRC2 file header: everything about a trace that is knowable
/// without decoding a block. A [`Trace`](crate::Trace) handle backed by a
/// store file carries exactly this plus the path.
#[derive(Clone, Debug)]
pub struct Htrc2Header {
    /// Semantic integrity stamp (the same content hash an in-memory
    /// recording reports).
    pub stamp: TraceStamp,
    /// Total retired µ-ops in the trace.
    pub uops: u64,
    /// µ-ops per block the encoder used (last block may be shorter).
    pub block_uops: u32,
    /// Number of blocks that follow the header.
    pub blocks: u32,
    /// Workload name recorded at encode time (for `trace ls`).
    pub name: String,
    /// The program's `write`-ecall outputs (workload checksums).
    pub output: Vec<u64>,
    /// Size of the encoded header in bytes (blocks start here).
    pub header_bytes: u64,
}

/// Serializes the v2 header (everything before the first block).
fn encode_header(h: &Htrc2Header) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + h.name.len() + 8 * h.output.len());
    buf.extend_from_slice(TRACE_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&h.stamp.isa_version.to_le_bytes());
    buf.extend_from_slice(&h.stamp.checksum.to_le_bytes());
    buf.extend_from_slice(&h.uops.to_le_bytes());
    buf.extend_from_slice(&h.block_uops.to_le_bytes());
    buf.extend_from_slice(&h.blocks.to_le_bytes());
    put_varint(&mut buf, h.name.len() as u64);
    buf.extend_from_slice(h.name.as_bytes());
    put_varint(&mut buf, h.output.len() as u64);
    for &o in &h.output {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    let sum = fnv_of(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// FNV-1a over a byte run: the header and block-frame checksum.
fn fnv_of(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    for &b in bytes {
        fnv.u8(b);
    }
    fnv.finish()
}

/// Reads and verifies a v2 header from `r`.
///
/// # Errors
///
/// [`TraceIoError::BadMagic`] / [`TraceIoError::FormatVersion`] for files
/// that are not HTRC2 (an older format reports `FormatVersion`),
/// [`TraceIoError::StaleIsa`] for traces recorded under older emulator
/// semantics, [`TraceIoError::ChecksumMismatch`] for a corrupted header,
/// [`TraceIoError::Truncated`] / [`TraceIoError::Io`] for short or
/// unreadable files.
pub fn read_header<R: Read>(r: &mut R) -> Result<Htrc2Header, TraceIoError> {
    let mut fixed = [0u8; 30];
    r.read_exact(&mut fixed).map_err(TraceIoError::from)?;
    if &fixed[0..4] != TRACE_MAGIC {
        return Err(TraceIoError::BadMagic([
            fixed[0], fixed[1], fixed[2], fixed[3],
        ]));
    }
    let version = u16::from_le_bytes([fixed[4], fixed[5]]);
    if version != FORMAT_VERSION {
        return Err(TraceIoError::FormatVersion {
            found: version,
            want: FORMAT_VERSION,
        });
    }
    let isa_version = u32::from_le_bytes(fixed[6..10].try_into().unwrap());
    let checksum = u64::from_le_bytes(fixed[10..18].try_into().unwrap());
    let uops = u64::from_le_bytes(fixed[18..26].try_into().unwrap());
    let block_uops = u32::from_le_bytes(fixed[26..30].try_into().unwrap());
    let mut rest = [0u8; 4];
    r.read_exact(&mut rest).map_err(TraceIoError::from)?;
    let blocks = u32::from_le_bytes(rest);
    // Variable tail: name, outputs. Bounded reads so a corrupt length
    // cannot trigger a huge allocation.
    let mut tail = Vec::new();
    let name_len = read_bounded_varint(r, &mut tail)?;
    if name_len > 4096 {
        return Err(TraceIoError::Truncated);
    }
    let mut name_bytes = vec![0u8; name_len as usize];
    r.read_exact(&mut name_bytes).map_err(TraceIoError::from)?;
    tail.extend_from_slice(&name_bytes);
    let name = String::from_utf8(name_bytes).map_err(|_| TraceIoError::Truncated)?;
    let mut tail2 = Vec::new();
    let output_count = read_bounded_varint(r, &mut tail2)?;
    tail.extend_from_slice(&tail2);
    if output_count > 1 << 24 {
        return Err(TraceIoError::Truncated);
    }
    // Grown as words arrive: a corrupt count must not reserve memory.
    let mut output = Vec::new();
    for _ in 0..output_count {
        let mut b = [0u8; 8];
        r.read_exact(&mut b).map_err(TraceIoError::from)?;
        tail.extend_from_slice(&b);
        output.push(u64::from_le_bytes(b));
    }
    let mut stored = [0u8; 8];
    r.read_exact(&mut stored).map_err(TraceIoError::from)?;
    let mut fnv = Fnv::new();
    for &b in fixed.iter().chain(rest.iter()).chain(tail.iter()) {
        fnv.u8(b);
    }
    let actual = fnv.finish();
    let stored = u64::from_le_bytes(stored);
    if actual != stored {
        return Err(TraceIoError::ChecksumMismatch {
            stored,
            actual,
        });
    }
    if isa_version != ISA_VERSION {
        return Err(TraceIoError::StaleIsa {
            found: isa_version,
            want: ISA_VERSION,
        });
    }
    let header_bytes = 30 + 4 + tail.len() as u64 + 8;
    Ok(Htrc2Header {
        stamp: TraceStamp {
            isa_version,
            checksum,
        },
        uops,
        block_uops,
        blocks,
        name,
        output,
        header_bytes,
    })
}

/// Reads one varint byte-at-a-time from a `Read` (header parsing only; the
/// bytes consumed are appended to `seen` for checksumming).
fn read_bounded_varint<R: Read>(r: &mut R, seen: &mut Vec<u8>) -> Result<u64, TraceIoError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let mut b = [0u8; 1];
        r.read_exact(&mut b).map_err(TraceIoError::from)?;
        seen.push(b[0]);
        v |= ((b[0] & 0x7f) as u64) << (7 * shift);
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceIoError::Truncated)
}

// --- encoding -------------------------------------------------------------

/// The one HTRC2 encoder, fed one µ-op at a time.
///
/// Each µ-op is validated and appended to the column streams of the block
/// being built, and folded into the content stamp, as it arrives; a full
/// block is sealed into its frame at once. So the encoder never holds a
/// `Retired` record, only the encoded blocks (~1.3 B/µ-op) and one
/// block's streams, and the trace store runs the emulator straight into
/// it. [`Encoder::finish`] writes the header (which needs the final µ-op
/// count and stamp) and then the blocks. [`encode_v2`] is this encoder
/// run over a slice.
#[derive(Debug)]
pub(crate) struct Encoder {
    block_uops: u32,
    /// The architectural register file after the last pushed µ-op.
    regs: [u64; 32],
    stamp: ContentHash,
    uops: u64,
    /// Sealed blocks, each a complete `len | payload | checksum` frame.
    frames: Vec<Vec<u8>>,
    block: BlockStreams,
}

/// The block under construction: its fixed fields and column streams.
/// The stream buffers are cleared, not freed, between blocks.
#[derive(Debug, Default)]
struct BlockStreams {
    count: u32,
    first_seq: u64,
    start_pc: u64,
    snapshot: [u64; 32],
    expect_seq: u64,
    expect_pc: u64,
    dict: std::collections::BTreeMap<u64, u32>,
    bitmap: Vec<u8>,
    targets: Vec<u8>,
    addrs: Vec<u8>,
    loads: Vec<u8>,
    prev_addr: u64,
    prev_load: u64,
}

impl Encoder {
    /// An encoder cutting blocks of `block_uops` µ-ops:
    /// [`DEFAULT_BLOCK_UOPS`] everywhere except tests that want to
    /// exercise multi-block framing cheaply.
    pub(crate) fn new(block_uops: u32) -> Encoder {
        // The register model must start exactly as `Cpu::new` leaves the
        // machine, or the first read of an uninitialised-looking register
        // (sp, typically) spuriously fails semantic validation.
        let mut regs = [0u64; 32];
        regs[Reg::SP.index()] = DEFAULT_STACK_TOP;
        Encoder {
            block_uops: block_uops.max(1),
            regs,
            stamp: ContentHash::new(),
            uops: 0,
            frames: Vec::new(),
            block: BlockStreams::default(),
        }
    }

    /// Appends the next µ-op in program order.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Unencodable`] if the µ-op violates the derivation
    /// invariants every emulator-produced trace satisfies (dense `seq`, pc
    /// chaining, memory shape matching the instruction, destination value
    /// matching ISA semantics). A rejected µ-op is not appended.
    pub(crate) fn push(&mut self, u: &Retired) -> Result<(), TraceIoError> {
        let b = &mut self.block;
        // Validate everything before touching any state.
        if b.count > 0 && u.seq != b.expect_seq {
            return Err(unencodable(u.seq, "sequence numbers are not dense"));
        }
        if b.count > 0 && u.pc != b.expect_pc {
            return Err(unencodable(
                u.seq,
                format!(
                    "pc {:#x} does not chain from previous next_pc {:#x}",
                    u.pc, b.expect_pc
                ),
            ));
        }
        let word = encode(&u.inst);
        let known = b.dict.get(&u.pc).copied();
        if known.is_some_and(|w| w != word) {
            return Err(unencodable(u.seq, "two different instructions at one pc"));
        }
        let addr = match (mem_shape(&u.inst), u.mem) {
            (None, None) => None,
            (Some((size, is_store)), Some(m)) if m.size == size && m.is_store == is_store => {
                Some(m.addr)
            }
            _ => {
                return Err(unencodable(
                    u.seq,
                    "memory access does not match the instruction's shape",
                ));
            }
        };
        let (write, load) = match (derive_rd(&u.inst, u.pc, &self.regs), u.rd_value) {
            (DerivedRd::None, None) => (None, None),
            (DerivedRd::Value(rd, v), Some(actual)) if v == actual => (Some((rd, v)), None),
            (DerivedRd::Load(rd), Some(v)) => (Some((rd, v)), Some(v)),
            _ => {
                return Err(unencodable(
                    u.seq,
                    "destination value does not match ISA semantics",
                ));
            }
        };

        if b.count == 0 {
            b.first_seq = u.seq;
            b.start_pc = u.pc;
            b.snapshot = self.regs;
        }
        if known.is_none() {
            b.dict.insert(u.pc, word);
        }
        let i = b.count as usize;
        if i.is_multiple_of(8) {
            b.bitmap.push(0);
        }
        if u.next_pc != u.pc.wrapping_add(4) {
            b.bitmap[i / 8] |= 1 << (i % 8);
            put_delta(&mut b.targets, u.pc.wrapping_add(4), u.next_pc);
        }
        if let Some(addr) = addr {
            put_delta(&mut b.addrs, b.prev_addr, addr);
            b.prev_addr = addr;
        }
        if let Some(v) = load {
            put_delta(&mut b.loads, b.prev_load, v);
            b.prev_load = v;
        }
        if let Some((rd, v)) = write.filter(|(rd, _)| !rd.is_zero()) {
            self.regs[rd.index()] = v;
        }
        b.expect_pc = u.next_pc;
        b.expect_seq = u.seq + 1;
        b.count += 1;
        self.stamp.uop(u);
        self.uops += 1;
        if b.count == self.block_uops {
            self.seal();
        }
        Ok(())
    }

    /// Frames the block under construction and starts an empty one.
    fn seal(&mut self) {
        let b = &mut self.block;
        // Dictionary: count, then (pc-delta varint, word u32 LE) sorted by pc.
        let mut dict_stream = Vec::with_capacity(10 + b.dict.len() * 9);
        put_varint(&mut dict_stream, b.dict.len() as u64);
        let mut prev_pc = 0u64;
        for (&pc, &word) in &b.dict {
            put_varint(&mut dict_stream, pc.wrapping_sub(prev_pc));
            dict_stream.extend_from_slice(&word.to_le_bytes());
            prev_pc = pc;
        }
        let streams = [&dict_stream, &b.bitmap, &b.targets, &b.addrs, &b.loads];
        let streams_len: usize = streams.iter().map(|s| s.len()).sum();
        // Length, fixed fields, snapshot, five stream-length varints,
        // streams, checksum.
        let mut frame = Vec::with_capacity(4 + 20 + 256 + 50 + streams_len + 8);
        frame.extend_from_slice(&[0; 4]); // payload length, patched below
        frame.extend_from_slice(&b.count.to_le_bytes());
        frame.extend_from_slice(&b.first_seq.to_le_bytes());
        frame.extend_from_slice(&b.start_pc.to_le_bytes());
        for v in b.snapshot {
            frame.extend_from_slice(&v.to_le_bytes());
        }
        for stream in streams {
            put_varint(&mut frame, stream.len() as u64);
            frame.extend_from_slice(stream);
        }
        let payload_len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv_of(&frame[4..]);
        frame.extend_from_slice(&sum.to_le_bytes());
        self.frames.push(frame);

        b.count = 0;
        b.dict.clear();
        for stream in [&mut b.bitmap, &mut b.targets, &mut b.addrs, &mut b.loads] {
            stream.clear();
        }
        b.prev_addr = 0;
        b.prev_load = 0;
    }

    /// Seals the last block and writes the whole trace to `w`: the header,
    /// carrying the content stamp over everything pushed plus `output`,
    /// then every block. `name` is carried in the header for `trace ls`.
    /// Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Unencodable`] for more than `u32::MAX` blocks; I/O
    /// errors from `w`.
    pub(crate) fn finish<W: Write>(
        mut self,
        output: &[u64],
        name: &str,
        w: &mut W,
    ) -> Result<u64, TraceIoError> {
        if self.block.count > 0 {
            self.seal();
        }
        let blocks = u32::try_from(self.frames.len())
            .map_err(|_| unencodable(0, "trace too long for u32 block count"))?;
        let header = Htrc2Header {
            stamp: self.stamp.finish(self.uops, output),
            uops: self.uops,
            block_uops: self.block_uops,
            blocks,
            name: name.to_string(),
            output: output.to_vec(),
            header_bytes: 0, // filled by encode_header's length below
        };
        let head = encode_header(&header);
        w.write_all(&head).map_err(TraceIoError::from)?;
        let mut written = head.len() as u64;
        for frame in &self.frames {
            w.write_all(frame).map_err(TraceIoError::from)?;
            written += frame.len() as u64;
        }
        Ok(written)
    }
}

/// Serializes a retired-µ-op trace to `w` in the HTRC2 format, returning
/// the number of bytes written: the crate's one streaming encoder run
/// over `uops`. `name` is carried
/// in the header for `trace ls`; `block_uops` is [`DEFAULT_BLOCK_UOPS`]
/// everywhere except tests that want to exercise multi-block framing
/// cheaply.
///
/// # Errors
///
/// [`TraceIoError::Unencodable`] if the trace violates the derivation
/// invariants every emulator-produced trace satisfies (dense `seq`, pc
/// chaining, memory shape matching the instruction, destination values
/// matching ISA semantics); I/O errors from `w`.
pub fn encode_v2<W: Write>(
    uops: &[Retired],
    output: &[u64],
    name: &str,
    block_uops: u32,
    w: &mut W,
) -> Result<u64, TraceIoError> {
    let mut enc = Encoder::new(block_uops);
    for u in uops {
        enc.push(u)?;
    }
    enc.finish(output, name, w)
}

// --- decoding -------------------------------------------------------------

/// Decodes one block payload (already checksum-verified) onto `out`,
/// advancing `regs`. `block_uops` is the header's block size: no block
/// holds more (or none), so any other count is corruption, not an
/// allocation request.
fn decode_block(
    payload: &[u8],
    block_uops: u32,
    regs: &mut [u64; 32],
    out: &mut Vec<Retired>,
) -> Result<(), TraceIoError> {
    let mut pos = 0usize;
    let fixed = payload.get(0..20 + 256).ok_or(TraceIoError::Truncated)?;
    let count = u32::from_le_bytes(fixed[0..4].try_into().unwrap()) as usize;
    let first_seq = u64::from_le_bytes(fixed[4..12].try_into().unwrap());
    let start_pc = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
    let mut snapshot = [0u64; 32];
    for (i, s) in snapshot.iter_mut().enumerate() {
        *s = u64::from_le_bytes(fixed[20 + i * 8..28 + i * 8].try_into().unwrap());
    }
    *regs = snapshot;
    pos += 20 + 256;
    if count == 0 || count > block_uops as usize || first_seq.checked_add(count as u64).is_none() {
        return Err(TraceIoError::Truncated);
    }

    let mut streams = [&payload[0..0]; 5];
    for s in streams.iter_mut() {
        let len = get_varint(payload, &mut pos)? as usize;
        *s = payload
            .get(pos..pos.checked_add(len).ok_or(TraceIoError::Truncated)?)
            .ok_or(TraceIoError::Truncated)?;
        pos += len;
    }
    let [dict_stream, bitmap, targets, addrs, loads] = streams;
    if bitmap.len() != count.div_ceil(8) {
        return Err(TraceIoError::Truncated);
    }

    // Dictionary: pc → decoded Inst, sorted by pc for binary search.
    let mut dpos = 0usize;
    let entries = get_varint(dict_stream, &mut dpos)?;
    if entries > count as u64 {
        return Err(TraceIoError::Truncated);
    }
    let entries = entries as usize;
    let mut dict: Vec<(u64, Inst)> = Vec::with_capacity(entries);
    let mut prev_pc = 0u64;
    for _ in 0..entries {
        let pc = prev_pc.wrapping_add(get_varint(dict_stream, &mut dpos)?);
        let wb = dict_stream
            .get(dpos..dpos + 4)
            .ok_or(TraceIoError::Truncated)?;
        dpos += 4;
        let word = u32::from_le_bytes(wb.try_into().unwrap());
        let inst = decode(word).map_err(|e| TraceIoError::Decode {
            seq: first_seq,
            detail: e.to_string(),
        })?;
        dict.push((pc, inst));
        prev_pc = pc;
    }

    let (mut tpos, mut apos, mut lpos) = (0usize, 0usize, 0usize);
    let (mut prev_addr, mut prev_load) = (0u64, 0u64);
    let mut pc = start_pc;
    out.reserve(count);
    for i in 0..count {
        let inst = match dict.binary_search_by_key(&pc, |&(p, _)| p) {
            Ok(d) => dict[d].1,
            Err(_) => return Err(TraceIoError::Truncated),
        };
        let next_pc = if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            get_delta(targets, &mut tpos, pc.wrapping_add(4))?
        } else {
            pc.wrapping_add(4)
        };
        let mem = match mem_shape(&inst) {
            Some((size, is_store)) => {
                let addr = get_delta(addrs, &mut apos, prev_addr)?;
                prev_addr = addr;
                Some(MemAccess {
                    addr,
                    size,
                    is_store,
                })
            }
            None => None,
        };
        let rd_value = match derive_rd(&inst, pc, regs) {
            DerivedRd::None => None,
            DerivedRd::Value(rd, v) => {
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
                Some(v)
            }
            DerivedRd::Load(rd) => {
                let v = get_delta(loads, &mut lpos, prev_load)?;
                prev_load = v;
                if !rd.is_zero() {
                    regs[rd.index()] = v;
                }
                Some(v)
            }
        };
        out.push(Retired {
            seq: first_seq + i as u64,
            pc,
            inst,
            next_pc,
            mem,
            rd_value,
        });
        pc = next_pc;
    }
    // Every stream must be fully consumed: leftovers mean the payload is
    // not what the encoder wrote (and the checksum collided, or a bug).
    if tpos != targets.len() || apos != addrs.len() || lpos != loads.len() {
        return Err(TraceIoError::Truncated);
    }
    Ok(())
}

/// Reads one `len | payload | checksum` block frame from `r`, verifying
/// the checksum. Returns the raw payload.
fn read_block_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, TraceIoError> {
    let mut lenb = [0u8; 4];
    r.read_exact(&mut lenb).map_err(TraceIoError::from)?;
    let len = u32::from_le_bytes(lenb) as usize;
    // A block of DEFAULT_BLOCK_UOPS µ-ops is a few MB even in the worst
    // case; an absurd length is a corrupt frame, not an allocation request.
    if len > (1 << 30) {
        return Err(TraceIoError::Truncated);
    }
    // Reserve at most 1 MiB up front and grow only as bytes arrive, so a
    // corrupt length on a short stream costs nothing.
    let mut payload = Vec::with_capacity(len.min(1 << 20));
    r.take(len as u64)
        .read_to_end(&mut payload)
        .map_err(TraceIoError::from)?;
    if payload.len() != len {
        return Err(TraceIoError::Truncated);
    }
    let mut sumb = [0u8; 8];
    r.read_exact(&mut sumb).map_err(TraceIoError::from)?;
    let stored = u64::from_le_bytes(sumb);
    let actual = fnv_of(&payload);
    if actual != stored {
        return Err(TraceIoError::ChecksumMismatch { stored, actual });
    }
    Ok(payload)
}

/// Fully decodes an HTRC2 stream: header plus every block, verifying all
/// checksums and that the µ-op count matches the header. Used by deep
/// verification and tests; sweep replay streams via [`BlockReplay`]
/// instead of materializing.
///
/// # Errors
///
/// Any [`TraceIoError`]; see [`read_header`].
pub fn decode_all<R: Read>(r: &mut R) -> Result<(Htrc2Header, Vec<Retired>), TraceIoError> {
    let header = read_header(r)?;
    let mut regs = [0u64; 32];
    // No reservation from `header.uops`: the vector grows with the blocks
    // actually decoded, so a corrupt count cannot request memory.
    let mut uops = Vec::new();
    for _ in 0..header.blocks {
        let payload = read_block_frame(r)?;
        decode_block(&payload, header.block_uops, &mut regs, &mut uops)?;
    }
    if uops.len() as u64 != header.uops {
        return Err(TraceIoError::Truncated);
    }
    let actual = content_stamp(&uops, &header.output).checksum;
    if actual != header.stamp.checksum {
        return Err(TraceIoError::ChecksumMismatch {
            stored: header.stamp.checksum,
            actual,
        });
    }
    Ok((header, uops))
}

/// Verifies an HTRC2 file's framing integrity without decoding µ-ops:
/// header checksum, every block frame checksum, and end-of-file exactly
/// after the last block. Any flipped byte anywhere in the file fails.
/// O(file size) I/O, O(block) memory.
///
/// # Errors
///
/// Any [`TraceIoError`]; `Truncated` for trailing garbage.
pub fn verify_file(path: &Path) -> Result<Htrc2Header, TraceIoError> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    let header = read_header(&mut r)?;
    for _ in 0..header.blocks {
        read_block_frame(&mut r)?;
    }
    let mut probe = [0u8; 1];
    match r.read(&mut probe) {
        Ok(0) => Ok(header),
        Ok(_) => Err(TraceIoError::Truncated),
        Err(e) => Err(TraceIoError::Io(e.to_string())),
    }
}

// --- streaming replay -----------------------------------------------------

/// A streaming µ-op source over an HTRC2 file: decodes one block at a time,
/// so a sweep cell replaying a 100 MB trace holds ~5 MB, not the whole
/// recording. Implements `Iterator<Item = Retired>` (and therefore
/// [`UopSource`](crate::UopSource)).
///
/// The file's framing should be verified before replay (the store does this
/// on every open); corruption that appears *mid-replay* — the file changed
/// under us — panics with the path and the block error, which a resilient
/// sweep quarantines like any other cell fault.
#[derive(Debug)]
pub struct BlockReplay<R = io::BufReader<std::fs::File>> {
    r: R,
    path: PathBuf,
    blocks_left: u32,
    block_uops: u32,
    total: u64,
    decoded: u64,
    consumed: u64,
    regs: [u64; 32],
    buf: Vec<Retired>,
    pos: usize,
}

impl BlockReplay {
    /// Opens `path`, reads the header, and positions at the first block.
    ///
    /// # Errors
    ///
    /// Any [`TraceIoError`] from opening or header verification.
    pub fn open(path: &Path) -> Result<BlockReplay, TraceIoError> {
        BlockReplay::over(io::BufReader::new(std::fs::File::open(path)?), path)
    }
}

impl<R: Read> BlockReplay<R> {
    /// Reads the header from `r`; `path` only names the stream in panics.
    fn over(mut r: R, path: &Path) -> Result<BlockReplay<R>, TraceIoError> {
        let header = read_header(&mut r)?;
        Ok(BlockReplay {
            r,
            path: path.to_path_buf(),
            blocks_left: header.blocks,
            block_uops: header.block_uops,
            total: header.uops,
            decoded: 0,
            consumed: 0,
            regs: [0u64; 32],
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Total µ-ops in the underlying trace.
    pub fn len_total(&self) -> u64 {
        self.total
    }

    /// Decodes the next block into the buffer. `Ok(false)` at the end of
    /// the stream; an error if the blocks disagree with the header's µ-op
    /// count, so the iterator's exact size is never a lie.
    fn next_block(&mut self) -> Result<bool, TraceIoError> {
        if self.blocks_left == 0 {
            if self.decoded != self.total {
                return Err(TraceIoError::Truncated);
            }
            return Ok(false);
        }
        let payload = read_block_frame(&mut self.r)?;
        self.buf.clear();
        self.pos = 0;
        decode_block(&payload, self.block_uops, &mut self.regs, &mut self.buf)?;
        self.blocks_left -= 1;
        self.decoded += self.buf.len() as u64;
        if self.decoded > self.total {
            return Err(TraceIoError::Truncated);
        }
        Ok(true)
    }

    fn refill(&mut self) -> bool {
        self.next_block().unwrap_or_else(|e| {
            panic!(
                "trace {} corrupted mid-replay (block {} of stream): {e}",
                self.path.display(),
                self.blocks_left
            )
        })
    }
}

impl<R: Read> Iterator for BlockReplay<R> {
    type Item = Retired;

    #[inline]
    fn next(&mut self) -> Option<Retired> {
        if self.pos >= self.buf.len() && !self.refill() {
            return None;
        }
        let u = self.buf[self.pos];
        self.pos += 1;
        self.consumed += 1;
        Some(u)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.total - self.consumed) as usize;
        (n, Some(n))
    }
}

impl<R: Read> ExactSizeIterator for BlockReplay<R> {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::RecordedTrace;
    use helios_isa::parse_asm;

    /// Exercises every stream: loads, stores, taken/not-taken branches,
    /// rd-writing and rd-less µ-ops, jumps, and outputs.
    const RICH: &str = "li a1, 0x1000\n\
                        li a0, 5\n\
                        top: sd a0, 0(a1)\n\
                        ld a2, 0(a1)\n\
                        addi a0, a0, -1\n\
                        bnez a0, top\n\
                        li a7, 64\n\
                        ecall\n\
                        ebreak";

    fn rich_trace() -> RecordedTrace {
        RecordedTrace::capture(parse_asm(RICH).unwrap(), 1000).unwrap()
    }

    fn encode_to_vec(t: &RecordedTrace, block: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_v2(t.uops(), t.output(), "rich", block, &mut buf).unwrap();
        buf
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn round_trips_single_and_multi_block() {
        let t = rich_trace();
        for block in [1u32, 2, 7, DEFAULT_BLOCK_UOPS] {
            let buf = encode_to_vec(&t, block);
            let (header, uops) = decode_all(&mut buf.as_slice()).unwrap();
            assert_eq!(uops, t.uops(), "block size {block}");
            assert_eq!(header.output, t.output());
            assert_eq!(header.stamp, t.stamp());
            assert_eq!(header.name, "rich");
        }
    }

    #[test]
    fn streaming_encoder_matches_encode_v2_bytes() {
        let t = rich_trace();
        for block in [1u32, 7, DEFAULT_BLOCK_UOPS] {
            // Fed straight from a live emulator, one µ-op at a time.
            let mut enc = Encoder::new(block);
            for u in crate::RetireStream::new(parse_asm(RICH).unwrap(), 1000) {
                enc.push(&u).unwrap();
            }
            let mut streamed = Vec::new();
            let written = enc.finish(t.output(), "rich", &mut streamed).unwrap();
            assert_eq!(written as usize, streamed.len());
            assert_eq!(streamed, encode_to_vec(&t, block), "block size {block}");
        }
    }

    #[test]
    fn multi_block_framing_is_exact() {
        let t = rich_trace();
        let buf = encode_to_vec(&t, 7);
        let (header, _) = decode_all(&mut buf.as_slice()).unwrap();
        assert_eq!(header.blocks as usize, t.len().div_ceil(7));
        assert_eq!(header.block_uops, 7);
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        for off in 0..clean.len() {
            let mut bad = clean.clone();
            bad[off] ^= 0x40;
            assert!(
                decode_all(&mut bad.as_slice()).is_err(),
                "flip at byte {off} decoded successfully"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        for len in 0..clean.len() {
            assert!(
                decode_all(&mut &clean[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
        // Trailing garbage fails verify_file (decode_all reads a stream and
        // cannot see past the last block; the file-level check can).
        let dir = std::env::temp_dir().join(format!("helios-codec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.htrc2");
        let mut padded = clean.clone();
        padded.push(0);
        std::fs::write(&p, &padded).unwrap();
        assert!(matches!(verify_file(&p), Err(TraceIoError::Truncated)));
        std::fs::write(&p, &clean).unwrap();
        assert!(verify_file(&p).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_emulator_traces_are_rejected_not_miscoded() {
        let t = rich_trace();
        let mut broken = t.uops().to_vec();
        // Violate pc chaining.
        broken[3].pc ^= 8;
        let mut buf = Vec::new();
        let err = encode_v2(&broken, &[], "x", 64, &mut buf).unwrap_err();
        assert!(matches!(err, TraceIoError::Unencodable { .. }), "{err}");

        // Violate memory shape: a load with no access record.
        let mut broken = t.uops().to_vec();
        let li = broken.iter().position(|u| u.mem.is_some()).unwrap();
        broken[li].mem = None;
        let mut buf = Vec::new();
        assert!(matches!(
            encode_v2(&broken, &[], "x", 64, &mut buf),
            Err(TraceIoError::Unencodable { .. })
        ));

        // Violate value semantics: an ALU result that isn't eval's.
        let mut broken = t.uops().to_vec();
        let ai = broken
            .iter()
            .position(|u| matches!(u.inst, Inst::OpImm { .. }) && u.rd_value.is_some())
            .unwrap();
        broken[ai].rd_value = Some(broken[ai].rd_value.unwrap() ^ 1);
        let mut buf = Vec::new();
        assert!(matches!(
            encode_v2(&broken, &[], "x", 64, &mut buf),
            Err(TraceIoError::Unencodable { .. })
        ));
    }

    #[test]
    fn rejected_uop_leaves_the_encoder_unchanged() {
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        const LOAD: MemAccess = MemAccess {
            addr: 0,
            size: 8,
            is_store: false,
        };
        // Broken chaining, sequence, memory presence and rd presence.
        let breaks: [fn(&mut Retired); 4] = [
            |u| u.pc ^= 8,
            |u| u.seq += 1,
            |u| u.mem = u.mem.xor(Some(LOAD)),
            |u| u.rd_value = u.rd_value.xor(Some(1)),
        ];
        for at in 0..t.len() {
            let mut enc = Encoder::new(8);
            for (i, u) in t.uops().iter().enumerate() {
                if i == at {
                    for broken in breaks {
                        let mut bad = *u;
                        broken(&mut bad);
                        // Only the first µ-op of a block is not checked
                        // against its predecessor.
                        if enc.push(&bad).is_ok() {
                            assert!(i % 8 == 0, "µ-op {i} accepted as {bad:?}");
                            enc = Encoder::new(8);
                            t.uops()[..i].iter().for_each(|u| enc.push(u).unwrap());
                        }
                    }
                }
                enc.push(u).unwrap();
            }
            let mut buf = Vec::new();
            enc.finish(t.output(), "rich", &mut buf).unwrap();
            assert_eq!(buf, clean, "after rejections at µ-op {at}");
        }
    }

    #[test]
    fn block_replay_streams_identically() {
        let t = rich_trace();
        let dir = std::env::temp_dir().join(format!("helios-codec-br-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.htrc2");
        let mut f = std::io::BufWriter::new(std::fs::File::create(&p).unwrap());
        encode_v2(t.uops(), t.output(), "rich", 8, &mut f).unwrap();
        use std::io::Write as _;
        f.flush().unwrap();
        drop(f);
        let replay = BlockReplay::open(&p).unwrap();
        assert_eq!(replay.len(), t.len());
        let streamed: Vec<Retired> = replay.collect();
        assert_eq!(streamed.as_slice(), t.uops());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn older_versions_report_format_version() {
        // Version 1 was the raw-record format; version 2 carried the
        // byte-wise FNV content stamp.
        for old in [1u16, 2] {
            let mut bytes = encode_to_vec(&rich_trace(), 8);
            bytes[4..6].copy_from_slice(&old.to_le_bytes());
            assert!(matches!(
                read_header(&mut bytes.as_slice()),
                Err(TraceIoError::FormatVersion { found, want: FORMAT_VERSION }) if found == old
            ));
        }
    }

    #[test]
    fn header_mismatches_are_distinguished() {
        let clean = encode_to_vec(&rich_trace(), 8);
        let (body, blocks) = split(&clean);
        let read = |b: &[u8]| read_header(&mut &b[..]);

        let mut bad = clean.clone();
        bad[0] = b'X';
        assert!(matches!(read(&bad), Err(TraceIoError::BadMagic(_))));

        let mut bad = clean.clone();
        bad[4] = 0xEE; // format version (u16 LE at offset 4)
        assert!(matches!(
            read(&bad),
            Err(TraceIoError::FormatVersion {
                found: 0xEE,
                want: FORMAT_VERSION
            })
        ));

        // The ISA check runs after the header checksum, so the header must
        // be re-sealed for a stale ISA version to reach it.
        let mut stale = body.clone();
        stale[6] ^= 0x01; // ISA version (u32 LE at offset 6)
        assert!(matches!(
            read(&seal(&stale, &blocks)),
            Err(TraceIoError::StaleIsa { .. })
        ));

        let mut bad = clean.clone();
        bad[6] ^= 0x01;
        assert!(matches!(
            read(&bad),
            Err(TraceIoError::ChecksumMismatch { .. })
        ));

        assert!(matches!(
            read(&clean[..clean.len().min(body.len() + 3)]),
            Err(TraceIoError::Truncated)
        ));
    }

    /// Splits an HTRC2 encoding into its header (checksum stripped) and its
    /// block payloads.
    fn split(bytes: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
        let header_bytes = read_header(&mut &bytes[..]).unwrap().header_bytes as usize;
        let mut blocks = Vec::new();
        let mut pos = header_bytes;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            blocks.push(bytes[pos + 4..pos + 4 + len].to_vec());
            pos += 4 + len + 8;
        }
        (bytes[..header_bytes - 8].to_vec(), blocks)
    }

    /// Reassembles a header and block payloads with fresh checksums, so a
    /// mutation gets past the framing check into the field parsers.
    fn seal(header: &[u8], blocks: &[Vec<u8>]) -> Vec<u8> {
        let mut out = header.to_vec();
        out.extend_from_slice(&fnv_of(header).to_le_bytes());
        for p in blocks {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
            out.extend_from_slice(&fnv_of(p).to_le_bytes());
        }
        out
    }

    fn patch(mut bytes: Vec<u8>, at: usize, value: &[u8]) -> Vec<u8> {
        if at < bytes.len() {
            let end = (at + value.len()).min(bytes.len());
            bytes[at..end].copy_from_slice(&value[..end - at]);
        }
        bytes
    }

    /// Wraps the system allocator and, while a thread is measuring, records
    /// the largest single request that thread makes.
    struct LargestAlloc;

    thread_local! {
        static LARGEST: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|m| {
            if let Some(max) = m.get() {
                m.set(Some(max.max(size)));
            }
        });
    }

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract. `note` only compares sizes
    // in a const-initialised thread-local `Cell`, which never allocates.
    unsafe impl std::alloc::GlobalAlloc for LargestAlloc {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
            note(layout.size());
            std::alloc::System.alloc_zeroed(layout)
        }
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            note(new_size);
            std::alloc::System.realloc(ptr, layout, new_size)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: LargestAlloc = LargestAlloc;

    /// Runs `f` and returns its result with the largest single allocation
    /// this thread requested meanwhile.
    pub(crate) fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|m| m.set(Some(0)));
        let out = f();
        (out, LARGEST.with(|m| m.replace(None)).unwrap_or(0))
    }

    /// Runs both decoders over `bytes` and returns the largest single
    /// allocation they requested. A panic fails the test with the case.
    fn decode_everything(case: &str, bytes: &[u8]) -> usize {
        let (run, largest) = largest_alloc(|| {
            std::panic::catch_unwind(|| {
                let _ = decode_all(&mut &bytes[..]);
                if let Ok(mut replay) = BlockReplay::over(bytes, Path::new(case)) {
                    while let Ok(true) = replay.next_block() {}
                }
            })
        });
        if run.is_err() {
            panic!("decoder panicked on {case}: {bytes:02x?}");
        }
        largest
    }

    /// What decoding `n` input bytes may ask for in one allocation: one
    /// 1 MiB frame buffer, or eight µ-ops per bitmap byte with the output
    /// vector's doubling on top.
    fn allocation_bound(n: usize) -> usize {
        (1 << 20).max(16 * std::mem::size_of::<Retired>() * n)
    }

    #[test]
    fn decoder_survives_arbitrary_bytes() {
        use helios_prng::{Rng, SeedableRng, SliceRandom, StdRng};
        let t = rich_trace();
        let clean = encode_to_vec(&t, 8);
        let (body, blocks) = split(&clean);

        // Crashers the fuzzer below found, pinned by name.
        let pinned = [
            (
                "header µ-op count u64::MAX: decode_all reserved ~19 GiB",
                seal(&patch(body.clone(), 18, &u64::MAX.to_le_bytes()), &blocks),
            ),
            ("first_seq near u64::MAX: seq arithmetic overflowed", {
                let mut b = blocks.clone();
                b[0] = patch(b[0].clone(), 4, &(u64::MAX - 1).to_le_bytes());
                seal(&body, &b)
            }),
            (
                "block count above the header's block_uops",
                seal(&patch(body.clone(), 26, &4u32.to_le_bytes()), &blocks),
            ),
            ("output count 1 << 24: read_header reserved 128 MiB", {
                // The one-byte output count follows the name "rich".
                let mut head = body.clone();
                let mut count = Vec::new();
                put_varint(&mut count, 1 << 24);
                head.splice(39..40, count);
                seal(&head, &blocks)
            }),
            (
                "frame length 1 << 28 on a short stream: reserved 256 MiB",
                patch(clean.clone(), body.len() + 8, &(1u32 << 28).to_le_bytes()),
            ),
        ];
        for (case, bytes) in &pinned {
            assert!(decode_all(&mut bytes.as_slice()).is_err(), "{case}");
            let largest = decode_everything(case, bytes);
            assert!(
                largest <= allocation_bound(bytes.len()),
                "{case}: {largest} B"
            );
        }

        let seeds: Vec<Vec<u8>> = [1u32, 3, 8, DEFAULT_BLOCK_UOPS]
            .iter()
            .map(|&b| encode_to_vec(&t, b))
            .chain(std::iter::once({
                let mut buf = Vec::new();
                encode_v2(&[], &[7], "empty", 8, &mut buf).unwrap();
                buf
            }))
            .collect();
        const EXTREMES: [u64; 14] = [
            0,
            1,
            2,
            7,
            8,
            0x80,
            1 << 20,
            1 << 24,
            1 << 28,
            1 << 31,
            u32::MAX as u64,
            i64::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(0x4854_5243_3200);
        for case in 0..20_000 {
            let (mut head, mut payloads) = split(seeds.choose(&mut rng).unwrap());
            let (mut cut, mut lie) = (None, None);
            for _ in 0..rng.gen_range(1..=3u32) {
                let extreme = EXTREMES.choose(&mut rng).unwrap().to_le_bytes();
                let width = *[1usize, 4, 8].choose(&mut rng).unwrap();
                let donor = split(seeds.choose(&mut rng).unwrap()).1;
                let blk = (!payloads.is_empty()).then(|| rng.gen_range(0..payloads.len()));
                match (rng.gen_range(0..8u32), blk) {
                    (0, _) => {
                        let at = rng.gen_range(0..head.len());
                        head[at] ^= rng.gen_range(1..=255u8);
                    }
                    (1, _) if rng.gen_bool(0.75) => {
                        // The fixed fields: µ-op count, block size, blocks.
                        let at = *[18usize, 26, 30].choose(&mut rng).unwrap();
                        let width = width.min(if at == 18 { 8 } else { 4 });
                        head = patch(head, at, &extreme[..width]);
                    }
                    (1, _) if head[34] < 0x80 && 35 + (head[34] as usize) < head.len() => {
                        // The output-count varint after the one-byte name
                        // length and the name.
                        let at = 35 + head[34] as usize;
                        let mut count = Vec::new();
                        put_varint(&mut count, u64::from_le_bytes(extreme));
                        head.splice(at..at + 1, count);
                    }
                    (2, Some(b)) if !payloads[b].is_empty() => {
                        let p = &mut payloads[b];
                        let at = rng.gen_range(0..p.len());
                        p[at] ^= rng.gen_range(1..=255u8);
                    }
                    (3, Some(b)) => {
                        // Count, first seq, start pc, a register, or the
                        // stream lengths right after the snapshot.
                        let at = *[0usize, 4, 12, 20 + 8 * rng.gen_range(0..32usize), 276]
                            .choose(&mut rng)
                            .unwrap();
                        payloads[b] = patch(payloads[b].clone(), at, &extreme[..width]);
                    }
                    (4, Some(b)) => {
                        let len = rng.gen_range(0..=payloads[b].len());
                        payloads[b].truncate(len);
                    }
                    (5, Some(b)) if !donor.is_empty() => {
                        // Splice a run of another encoding's block in.
                        let from = donor.choose(&mut rng).unwrap();
                        let start = rng.gen_range(0..from.len());
                        let end = rng.gen_range(start..=from.len());
                        let at = rng.gen_range(0..=payloads[b].len());
                        if rng.gen_bool(0.5) {
                            payloads[b].splice(at..at, from[start..end].iter().copied());
                        } else {
                            let stop = (at + end - start).min(payloads[b].len());
                            payloads[b].splice(at..stop, from[start..end].iter().copied());
                        }
                    }
                    (6, Some(b)) if rng.gen_bool(0.3) => {
                        // A frame length the payload does not back up.
                        lie = Some((b, u32::from_le_bytes(extreme[..4].try_into().unwrap())));
                    }
                    (6, Some(b)) => {
                        if rng.gen_bool(0.5) {
                            payloads.remove(b);
                        } else {
                            let dup = payloads[b].clone();
                            payloads.insert(b, dup);
                        }
                    }
                    _ => cut = Some(rng.gen::<u64>()),
                }
            }
            let mut bytes = seal(&head, &payloads);
            if let Some((b, len)) = lie.filter(|&(b, _)| b < payloads.len()) {
                let at = head.len() + 8 + payloads[..b].iter().map(|p| p.len() + 12).sum::<usize>();
                bytes = patch(bytes, at, &len.to_le_bytes());
            }
            if let Some(c) = cut {
                bytes.truncate((c % (bytes.len() as u64 + 1)) as usize);
            }
            let largest = decode_everything(&format!("case {case}"), &bytes);
            assert!(
                largest <= allocation_bound(bytes.len()),
                "case {case}: {largest} B from {} input bytes: {bytes:02x?}",
                bytes.len()
            );
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let mut buf = Vec::new();
        encode_v2(&[], &[7], "empty", 64, &mut buf).unwrap();
        let (header, uops) = decode_all(&mut buf.as_slice()).unwrap();
        assert!(uops.is_empty());
        assert_eq!(header.output, vec![7]);
    }
}
