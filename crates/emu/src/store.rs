//! The content-addressed trace corpus: record once *ever*, share across
//! threads, processes, sweeps, and machines.
//!
//! A [`TraceStore`] is a directory of HTRC2 files keyed by the FNV-1a
//! digest of (program text, [`ISA_VERSION`]): two workloads with the same
//! program share one file, and bumping the ISA version changes every key,
//! so a stale corpus is simply never *found* rather than found-and-rejected.
//! [`TraceStore::get_or_record`] is the one entrypoint:
//!
//! * **Hit** — the keyed file exists and its framing verifies (header plus
//!   every block checksum); the caller gets a [`Trace`] that replays
//!   straight off disk, block-at-a-time.
//! * **Miss** — the caller takes the per-key lock file, runs the program
//!   straight into the streaming [`codec::Encoder`] (which keeps encoded
//!   blocks, never a whole-trace `Vec<Retired>`), writes a temp file, and
//!   atomically renames it into place. Concurrent workers
//!   (threads *or* processes) wanting the same key wait on the lock and
//!   then hit; a workload is never recorded twice.
//! * **Corrupt** — a file that fails verification (an older format
//!   version included) is quarantined (renamed to `*.corrupt`) and
//!   re-recorded, exactly like the sweep cache's discard-and-re-record
//!   policy. `trace gc` reclaims quarantine.
//!
//! [`Trace`] / [`Replay`] unify the two ways a µ-op sequence can live —
//! in memory ([`RecordedTrace`]) or on disk (streamed [`BlockReplay`]) —
//! behind `Trace::{replay, stamp, len}`, so consumers no longer care which
//! they were handed.

use crate::codec::{self, BlockReplay, Htrc2Header, DEFAULT_BLOCK_UOPS};
use crate::record::{self, Fnv};
use crate::{EmuError, RecordedTrace, TraceIoError, TraceReplay, TraceStamp};
use helios_isa::{Program, ISA_VERSION};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// A µ-op trace, wherever it lives: recorded in memory or resident in a
/// [`TraceStore`] file. Cloning is cheap (an `Arc` bump) and every clone
/// hands out independent [`Replay`] cursors.
#[derive(Clone, Debug)]
pub enum Trace {
    /// An in-memory recording (no store involved).
    Memory(RecordedTrace),
    /// An on-disk HTRC2 file, replayed block-at-a-time.
    Disk(Arc<DiskTrace>),
}

/// A verified HTRC2 file a [`Trace`] replays from.
#[derive(Debug)]
pub struct DiskTrace {
    path: PathBuf,
    header: Htrc2Header,
}

impl DiskTrace {
    /// Where the trace lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Trace {
    /// Executes `program` to completion and records every retired µ-op in
    /// memory. For anything run more than once, prefer
    /// [`TraceStore::get_or_record`], which persists the recording.
    ///
    /// # Errors
    ///
    /// Propagates fetch faults, and returns [`EmuError::OutOfFuel`] if the
    /// program does not halt within `fuel` µ-ops — a starved recording is
    /// an error, never a truncated trace.
    pub fn record(program: Program, fuel: u64) -> Result<Trace, EmuError> {
        Ok(Trace::Memory(RecordedTrace::capture(program, fuel)?))
    }

    /// A fresh, independent replay cursor (a pipeline
    /// [`UopSource`](crate::UopSource)).
    ///
    /// # Panics
    ///
    /// For a disk trace whose file was removed or corrupted *after*
    /// [`TraceStore::get_or_record`] verified it — the file changed under
    /// us, which a resilient sweep quarantines like any other cell fault.
    pub fn replay(&self) -> Replay {
        match self {
            Trace::Memory(t) => Replay::Memory(t.replay()),
            Trace::Disk(d) => Replay::Disk(Box::new(
                BlockReplay::open(&d.path).unwrap_or_else(|e| {
                    panic!("trace {} unreadable at replay: {e}", d.path.display())
                }),
            )),
        }
    }

    /// The trace's semantic integrity stamp ([`ISA_VERSION`] + content
    /// hash) — identical for the same recording whether it lives in memory
    /// or in an HTRC2 file.
    pub fn stamp(&self) -> TraceStamp {
        match self {
            Trace::Memory(t) => t.stamp(),
            Trace::Disk(d) => d.header.stamp,
        }
    }

    /// Number of retired µ-ops.
    pub fn len(&self) -> u64 {
        match self {
            Trace::Memory(t) => t.len() as u64,
            Trace::Disk(d) => d.header.uops,
        }
    }

    /// Whether the trace has no µ-ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Values the program reported through the `write` ecall, in order
    /// (workload checksums).
    pub fn output(&self) -> &[u64] {
        match self {
            Trace::Memory(t) => t.output(),
            Trace::Disk(d) => &d.header.output,
        }
    }
}

/// An independent replay cursor over a [`Trace`]: an
/// `Iterator<Item = Retired>` (hence a [`UopSource`](crate::UopSource)),
/// either walking a shared in-memory buffer or streaming an HTRC2 file
/// block-at-a-time with O(block) peak memory.
#[derive(Debug)]
pub enum Replay {
    /// Cursor over a shared in-memory recording.
    Memory(TraceReplay),
    /// Streaming block-decoder over an HTRC2 file (boxed: it owns a block
    /// buffer and register state, far larger than the memory cursor).
    Disk(Box<BlockReplay>),
}

impl Iterator for Replay {
    type Item = crate::Retired;

    #[inline]
    fn next(&mut self) -> Option<crate::Retired> {
        match self {
            Replay::Memory(r) => r.next(),
            Replay::Disk(r) => r.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Replay::Memory(r) => r.size_hint(),
            Replay::Disk(r) => r.size_hint(),
        }
    }
}

impl ExactSizeIterator for Replay {}

/// Why a [`TraceStore`] operation failed. Unlike [`TraceIoError`], these
/// are *store*-level failures — an unusable directory, an unrecordable
/// program, a writer that never released its lock. Corrupt *files* never
/// surface here; they are quarantined and re-recorded internally.
#[derive(Debug)]
pub enum StoreError {
    /// The store directory could not be created, read, or written.
    Io(String),
    /// The program itself failed to record (e.g. out of fuel). Retrying
    /// cannot help, so the error is returned rather than retried.
    Record(EmuError),
    /// A freshly recorded trace failed to encode — an emulator/codec
    /// invariant bug, surfaced loudly instead of degrading to re-recording.
    Encode(TraceIoError),
    /// Another writer held the recording lock past the store's timeout and
    /// its lock looked live (fresh mtime), so it was not stolen.
    LockTimeout {
        /// The lock file that never cleared.
        path: PathBuf,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "trace store i/o: {e}"),
            StoreError::Record(e) => write!(f, "{e}"),
            StoreError::Encode(e) => write!(f, "encoding recorded trace: {e}"),
            StoreError::LockTimeout { path } => write!(
                f,
                "timed out waiting for recording lock {} (another writer alive but stuck?)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<EmuError> for StoreError {
    fn from(e: EmuError) -> StoreError {
        StoreError::Record(e)
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e.to_string())
    }
}

/// Monotonic counters a store accumulates over its lifetime (shared by all
/// clones of the handle). The sweep engine prints the per-sweep deltas as
/// the `trace store: N recorded, M hits, …` stderr summary CI greps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Traces recorded live and written to the store.
    pub recorded: u64,
    /// Lookups satisfied by an existing verified file.
    pub hits: u64,
    /// Corrupt or stale entries renamed to `*.corrupt` (then re-recorded).
    pub quarantined: u64,
}

impl StoreStats {
    /// Counter-wise difference (`self - earlier`), for per-sweep deltas.
    pub fn since(&self, earlier: &StoreStats) -> StoreStats {
        StoreStats {
            recorded: self.recorded - earlier.recorded,
            hits: self.hits - earlier.hits,
            quarantined: self.quarantined - earlier.quarantined,
        }
    }
}

/// One verified entry of the corpus, as reported by [`TraceStore::entries`]
/// and [`TraceStore::verify`].
#[derive(Clone, Debug)]
pub struct StoreEntry {
    /// The HTRC2 file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Workload name recorded in the header.
    pub name: String,
    /// Dynamic µ-ops in the trace.
    pub uops: u64,
    /// The semantic integrity stamp.
    pub stamp: TraceStamp,
}

/// What [`TraceStore::verify`] found: the verified corpus plus every file
/// that failed (with the failure).
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Entries whose header and every block checksum verified.
    pub ok: Vec<StoreEntry>,
    /// Files that failed verification, with the reason.
    pub bad: Vec<(PathBuf, String)>,
}

/// What [`TraceStore::gc`] reclaimed.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcReport {
    /// Files deleted (quarantine, temp litter, stale locks, corrupt or
    /// stale-ISA entries).
    pub removed: usize,
    /// Bytes those files occupied.
    pub bytes_reclaimed: u64,
}

struct StoreInner {
    dir: PathBuf,
    block_uops: u32,
    lock_timeout: Duration,
    recorded: AtomicU64,
    hits: AtomicU64,
    quarantined: AtomicU64,
}

/// Handle to a content-addressed trace corpus directory. Cloning shares
/// the counters; handles are `Send + Sync` and safe to use from concurrent
/// sweep workers and concurrent *processes* (single-writer recording is
/// enforced with per-key lock files).
#[derive(Clone)]
pub struct TraceStore {
    inner: Arc<StoreInner>,
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("dir", &self.inner.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

/// How long a waiter watches someone else's recording lock before declaring
/// it abandoned (crash mid-recording) and stealing it. Recording the
/// longest workload takes well under a second; two minutes is "the holder
/// is dead", not "the holder is slow".
const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(120);

/// Poll interval while waiting on another writer's lock.
const LOCK_POLL: Duration = Duration::from_millis(25);

impl TraceStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<TraceStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(TraceStore {
            inner: Arc::new(StoreInner {
                dir,
                block_uops: DEFAULT_BLOCK_UOPS,
                lock_timeout: DEFAULT_LOCK_TIMEOUT,
                recorded: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                quarantined: AtomicU64::new(0),
            }),
        })
    }

    /// [`TraceStore::open`] with a non-default block size and lock timeout
    /// (tests exercise multi-block framing and lock stealing cheaply).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn open_tuned(
        dir: impl AsRef<Path>,
        block_uops: u32,
        lock_timeout: Duration,
    ) -> Result<TraceStore, StoreError> {
        let mut s = TraceStore::open(dir)?;
        let inner = Arc::get_mut(&mut s.inner).expect("freshly created handle is unshared");
        inner.block_uops = block_uops.max(1);
        inner.lock_timeout = lock_timeout;
        Ok(s)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// The content address of `program` under the current emulator
    /// semantics: FNV-1a over [`ISA_VERSION`], the code image (base, entry,
    /// encoded words), and the initial data segments. Recording is strict
    /// (same program ⇒ same trace), so the program *is* the trace identity;
    /// fuel only bounds recording and does not participate.
    pub fn digest(program: &Program) -> u64 {
        let mut h = Fnv::new();
        h.u32(ISA_VERSION);
        h.u64(program.base);
        h.u64(program.entry);
        let words = program.words();
        h.u64(words.len() as u64);
        for w in words {
            h.u32(w);
        }
        h.u64(program.data.len() as u64);
        for (addr, bytes) in &program.data {
            h.u64(*addr);
            h.u64(bytes.len() as u64);
            for &b in bytes {
                h.u8(b);
            }
        }
        h.finish()
    }

    /// Lifetime counters (recorded / hits / quarantined).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            recorded: self.inner.recorded.load(Ordering::Relaxed),
            hits: self.inner.hits.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined.load(Ordering::Relaxed),
        }
    }

    fn keyed_path(&self, digest: u64) -> PathBuf {
        self.inner.dir.join(format!("{digest:016x}.htrc2"))
    }

    /// The trace for `program`, recording it if the store does not already
    /// hold it. `name` labels the entry (header metadata only); identity is
    /// the program digest alone.
    ///
    /// Concurrency: the first caller per key records under a lock file;
    /// every other thread or process waits and then hits. A lock whose
    /// holder died (stale mtime) is stolen after the store's timeout.
    ///
    /// # Errors
    ///
    /// [`StoreError::Record`] if the program fails to execute,
    /// [`StoreError::Io`] / [`StoreError::LockTimeout`] for directory-level
    /// problems. Corrupt files are quarantined and re-recorded, never
    /// returned as errors.
    pub fn get_or_record(
        &self,
        name: &str,
        program: &Program,
        fuel: u64,
    ) -> Result<Trace, StoreError> {
        let digest = TraceStore::digest(program);
        let path = self.keyed_path(digest);
        loop {
            if path.exists() {
                match codec::verify_file(&path) {
                    Ok(header) => {
                        self.inner.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Trace::Disk(Arc::new(DiskTrace { path, header })));
                    }
                    Err(e) => self.quarantine(&path, &e)?,
                }
            }
            match self.try_lock(digest)? {
                Some(guard) => {
                    // Double-check: another writer may have finished between
                    // our existence check and taking the lock.
                    if path.exists() {
                        drop(guard);
                        continue;
                    }
                    let trace = self.record_locked(name, program, fuel, digest)?;
                    drop(guard);
                    return Ok(trace);
                }
                None => {
                    // Someone else is recording this key; loop back and
                    // re-check for the finished file.
                    std::thread::sleep(LOCK_POLL);
                }
            }
        }
    }

    /// Records the keyed trace while holding its lock, running the emulator
    /// straight into the streaming [`codec::Encoder`]: no whole-trace
    /// `Retired` buffer exists, and the temp file is created only once the
    /// program has halted, so a failed recording leaves nothing behind.
    /// The temp file is named by digest, like the lock, so two recordings
    /// of different programs under one workload name never share a temp
    /// inode.
    fn record_locked(
        &self,
        name: &str,
        program: &Program,
        fuel: u64,
        digest: u64,
    ) -> Result<Trace, StoreError> {
        let path = self.keyed_path(digest);
        let encode_error = |e| match e {
            TraceIoError::Io(io) => StoreError::Io(io),
            other => StoreError::Encode(other),
        };
        let mut enc = codec::Encoder::new(self.inner.block_uops);
        let output = record::run(program.clone(), fuel, |u| {
            enc.push(&u).map_err(encode_error)
        })?;
        self.inner.recorded.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .inner
            .dir
            .join(format!("{digest:016x}.{}.tmp", std::process::id()));
        let result: Result<(), StoreError> = (|| {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            enc.finish(&output, name, &mut f).map_err(encode_error)?;
            use std::io::Write as _;
            f.flush()?;
            std::fs::rename(&tmp, &path)?;
            Ok(())
        })();
        if result.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        result?;
        let header = codec::verify_file(&path).map_err(|e| {
            StoreError::Io(format!("just-written {} fails verification: {e}", path.display()))
        })?;
        Ok(Trace::Disk(Arc::new(DiskTrace { path, header })))
    }

    /// Renames a failed file to `<file>.corrupt` so it is preserved for
    /// diagnosis, out of the store's way, and reclaimable by `gc`.
    fn quarantine(&self, path: &Path, why: &dyn fmt::Display) -> Result<(), StoreError> {
        let mut to = path.as_os_str().to_os_string();
        to.push(".corrupt");
        eprintln!(
            "\rwarning: trace store: quarantining {} ({why})",
            path.display()
        );
        std::fs::rename(path, &to)?;
        self.inner.quarantined.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Tries to take the per-key recording lock. `Ok(None)` = someone else
    /// holds a live lock. A lock older than the store timeout is presumed
    /// abandoned by a crashed writer and stolen.
    fn try_lock(&self, digest: u64) -> Result<Option<LockGuard>, StoreError> {
        let path = self.inner.dir.join(format!("{digest:016x}.lock"));
        let deadline = Instant::now() + self.inner.lock_timeout;
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => return Ok(Some(LockGuard { path })),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .map(|mtime| {
                            SystemTime::now()
                                .duration_since(mtime)
                                .unwrap_or_default()
                                > self.inner.lock_timeout
                        })
                        // Metadata failing usually means the lock was just
                        // released; retry the create.
                        .unwrap_or(true);
                    if stale {
                        // Steal atomically: rename-to-tombstone first, so
                        // exactly one of the waiters that observed the stale
                        // mtime claims it. Losers fall through and re-check —
                        // they find either the winner's *fresh* lock (live,
                        // so they wait) or no lock (and `create_new` above
                        // still picks a single writer). A remove-based steal
                        // would let the loser delete a lock the winner had
                        // already re-created, double-recording the key.
                        if self.steal_lock(&path) {
                            eprintln!(
                                "\rwarning: trace store: stealing stale recording lock {}",
                                path.display()
                            );
                        }
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(StoreError::LockTimeout { path });
                    }
                    return Ok(None);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Atomically claims a stale lock: renames it to a unique tombstone
    /// (the commit point — at most one racing waiter's rename succeeds),
    /// then deletes the tombstone. Returns whether this caller won. A
    /// crash between the rename and the delete leaves only tombstone
    /// litter for [`TraceStore::gc`]; the key itself is already unlocked.
    fn steal_lock(&self, path: &Path) -> bool {
        static STEAL_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = STEAL_SEQ.fetch_add(1, Ordering::Relaxed);
        let mut tomb = path.as_os_str().to_os_string();
        tomb.push(format!(".steal.{}.{seq}", std::process::id()));
        if std::fs::rename(path, &tomb).is_err() {
            // Lost the race: another waiter renamed it first, or the owner
            // released the lock between our mtime check and the rename.
            return false;
        }
        std::fs::remove_file(&tomb).ok();
        true
    }

    /// Headers of every HTRC2 entry in the store (no block verification —
    /// cheap; `trace ls`). Quarantine is not listed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be read.
    pub fn entries(&self) -> Result<Vec<StoreEntry>, StoreError> {
        let mut out = Vec::new();
        for (path, meta) in self.files_with_ext("htrc2")? {
            let mut f = io::BufReader::new(std::fs::File::open(&path)?);
            if let Ok(h) = codec::read_header(&mut f) {
                out.push(StoreEntry {
                    path,
                    bytes: meta.len(),
                    name: h.name,
                    uops: h.uops,
                    stamp: h.stamp,
                });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.path.cmp(&b.path)));
        Ok(out)
    }

    /// Deep-verifies every file in the store: HTRC2 headers and all block
    /// checksums. Nothing
    /// is modified — corrupt entries are *reported*, and quarantined only
    /// when next looked up (or reclaimed by [`TraceStore::gc`]).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be read.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for (path, meta) in self.files_with_ext("htrc2")? {
            match codec::verify_file(&path) {
                Ok(h) => report.ok.push(StoreEntry {
                    path,
                    bytes: meta.len(),
                    name: h.name,
                    uops: h.uops,
                    stamp: h.stamp,
                }),
                Err(e) => report.bad.push((path, e.to_string())),
            }
        }
        report
            .ok
            .sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.path.cmp(&b.path)));
        report.bad.sort();
        Ok(report)
    }

    /// Reclaims everything that is not a verifiable trace: quarantined
    /// `*.corrupt` files, abandoned `*.tmp` litter, stale lock files,
    /// steal tombstones left by a waiter that crashed mid-steal, and
    /// any trace file that no longer verifies. Healthy entries
    /// are untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be read.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        let remove = |path: &Path, bytes: u64, report: &mut GcReport| {
            if std::fs::remove_file(path).is_ok() {
                report.removed += 1;
                report.bytes_reclaimed += bytes;
            }
        };
        for entry in std::fs::read_dir(&self.inner.dir)? {
            let entry = entry?;
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".corrupt") || name.contains(".tmp") {
                remove(&path, meta.len(), &mut report);
            } else if name.contains(".lock.steal.") {
                // A tombstone is dead by construction: the steal winner
                // deletes it immediately, so one on disk means a crash
                // between the rename and the delete.
                remove(&path, meta.len(), &mut report);
            } else if name.ends_with(".lock") {
                let stale = meta.modified().map_or(true, |mtime| {
                    SystemTime::now().duration_since(mtime).unwrap_or_default()
                        > self.inner.lock_timeout
                });
                if stale {
                    remove(&path, meta.len(), &mut report);
                }
            } else if name.ends_with(".htrc2") && codec::verify_file(&path).is_err() {
                remove(&path, meta.len(), &mut report);
            }
        }
        Ok(report)
    }

    fn files_with_ext(&self, ext: &str) -> Result<Vec<(PathBuf, std::fs::Metadata)>, StoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.inner.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == ext) {
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        out.push((path, meta));
                    }
                }
            }
        }
        Ok(out)
    }
}

/// Deletes the lock file on drop, releasing the key to other writers.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use helios_isa::parse_asm;

    const RICH: &str = "li a1, 0x1000\n\
                        li a0, 5\n\
                        top: sd a0, 0(a1)\n\
                        ld a2, 0(a1)\n\
                        addi a0, a0, -1\n\
                        bnez a0, top\n\
                        li a7, 64\n\
                        ecall\n\
                        ebreak";

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "helios-store-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn records_once_then_hits() {
        let dir = scratch("hit");
        let store = TraceStore::open(&dir).unwrap();
        let prog = parse_asm(RICH).unwrap();
        let a = store.get_or_record("rich", &prog, 1000).unwrap();
        assert_eq!(
            store.stats(),
            StoreStats {
                recorded: 1,
                ..StoreStats::default()
            }
        );
        let b = store.get_or_record("rich", &prog, 1000).unwrap();
        assert_eq!(store.stats().hits, 1, "second lookup is a pure hit");
        assert_eq!(a.stamp(), b.stamp());
        let direct = Trace::record(prog, 1000).unwrap();
        assert_eq!(a.stamp(), direct.stamp(), "disk and memory stamps agree");
        let x: Vec<_> = a.replay().collect();
        let y: Vec<_> = direct.replay().collect();
        assert_eq!(x, y);
        assert_eq!(a.len(), x.len() as u64);
        assert_eq!(a.output(), direct.output());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_file_is_encode_v2_of_the_recording() {
        // The store runs the emulator straight into the streaming encoder.
        // Over several blocks, its file must be byte for byte what
        // `encode_v2` makes of an in-memory recording, and the on-disk and
        // in-memory stamps must agree.
        let dir = scratch("bytes");
        let store = TraceStore::open_tuned(&dir, 7, DEFAULT_LOCK_TIMEOUT).unwrap();
        let prog = parse_asm(RICH).unwrap();
        let disk = store.get_or_record("rich", &prog, 1000).unwrap();
        let Trace::Memory(rec) = Trace::record(prog.clone(), 1000).unwrap() else {
            unreachable!("Trace::record records in memory")
        };
        assert!(rec.len() > 3 * 7, "spans several blocks");
        let mut want = Vec::new();
        codec::encode_v2(rec.uops(), rec.output(), "rich", 7, &mut want).unwrap();
        let got = std::fs::read(store.keyed_path(TraceStore::digest(&prog))).unwrap();
        assert_eq!(got, want);
        assert_eq!(disk.stamp(), rec.stamp());
        let (header, uops) = codec::decode_all(&mut got.as_slice()).unwrap();
        assert_eq!(header.stamp, rec.stamp());
        assert_eq!(uops, rec.uops());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn previous_format_version_is_quarantined_and_rerecorded() {
        // Format 2 carried the byte-wise FNV stamp. Such a file must be
        // re-recorded, not replayed or reported as a stamp mismatch.
        let dir = scratch("oldfmt");
        let prog = parse_asm(RICH).unwrap();
        let path = {
            let store = TraceStore::open(&dir).unwrap();
            store.get_or_record("rich", &prog, 1000).unwrap();
            store.keyed_path(TraceStore::digest(&prog))
        };
        let mut raw = std::fs::read(&path).unwrap();
        raw[4..6].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            codec::verify_file(&path),
            Err(TraceIoError::FormatVersion { found: 2, .. })
        ));

        let store = TraceStore::open(&dir).unwrap();
        let t = store.get_or_record("rich", &prog, 1000).unwrap();
        assert_eq!(
            store.stats(),
            StoreStats {
                recorded: 1,
                hits: 0,
                quarantined: 1,
            }
        );
        assert_eq!(t.stamp(), Trace::record(prog, 1000).unwrap().stamp());
        assert!(path.with_extension("htrc2.corrupt").exists());
        codec::verify_file(&path).expect("re-recorded file verifies");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_fuel_mid_stream_leaves_nothing_behind() {
        // 16-µ-op blocks: several are sealed before the fuel runs out.
        let dir = scratch("fuel");
        let store = TraceStore::open_tuned(&dir, 16, DEFAULT_LOCK_TIMEOUT).unwrap();
        let prog = parse_asm("top: j top").unwrap();
        let err = store.get_or_record("spin", &prog, 100).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Record(EmuError::OutOfFuel { executed: 100 })
            ),
            "{err}"
        );
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(left.is_empty(), "no temp, trace or lock file: {left:?}");
        assert_eq!(store.stats(), StoreStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recording_holds_at_most_a_few_blocks() {
        // ~1 M µ-ops: a whole-trace `Vec<Retired>` would be a single 72 MB
        // allocation. Streaming keeps every allocation within a few blocks'
        // worth of `Retired` records, however long the trace.
        let dir = scratch("bounded");
        let store = TraceStore::open(&dir).unwrap();
        let prog = parse_asm("li a0, 500000\ntop: addi a0, a0, -1\nbnez a0, top\nebreak").unwrap();
        let (trace, largest) = crate::codec::tests::largest_alloc(|| {
            store.get_or_record("spin", &prog, 2_000_000).unwrap()
        });
        assert!(trace.len() >= 1_000_000, "{} µ-ops", trace.len());
        let bound = 4 * DEFAULT_BLOCK_UOPS as usize * std::mem::size_of::<crate::Retired>();
        assert!(largest <= bound, "largest {largest} B > {bound} B");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_program_shares_one_entry_across_names() {
        let dir = scratch("alias");
        let store = TraceStore::open(&dir).unwrap();
        let prog = parse_asm(RICH).unwrap();
        store.get_or_record("first", &prog, 1000).unwrap();
        store.get_or_record("second", &prog, 1000).unwrap();
        assert_eq!(store.stats().recorded, 1, "content-addressed: one file");
        assert_eq!(store.entries().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_rerecorded() {
        let dir = scratch("corrupt");
        let store = TraceStore::open(&dir).unwrap();
        let prog = parse_asm(RICH).unwrap();
        store.get_or_record("rich", &prog, 1000).unwrap();
        let path = store.keyed_path(TraceStore::digest(&prog));
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let t = store.get_or_record("rich", &prog, 1000).unwrap();
        assert_eq!(t.len(), Trace::record(prog, 1000).unwrap().len());
        let s = store.stats();
        assert_eq!((s.quarantined, s.recorded), (1, 2));
        assert!(path.with_extension("htrc2.corrupt").exists());
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed, 1, "gc reclaims the quarantined file");
        assert!(path.exists(), "healthy entry untouched by gc");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_name_different_programs_record_their_own_traces() {
        // The recording lock is per digest, so two programs recorded under
        // one workload name run concurrently. A temp file named by workload
        // would be shared between them, and one key could end up holding
        // the other program's trace.
        let progs = [
            parse_asm(RICH).unwrap(),
            parse_asm("li a0, 300\ntop: addi a0, a0, -1\nbnez a0, top\nebreak").unwrap(),
        ];
        let want: Vec<_> = progs
            .iter()
            .map(|p| Trace::record(p.clone(), 10_000).unwrap().stamp())
            .collect();
        for round in 0..20 {
            let dir = scratch(&format!("tmp-race-{round}"));
            let store = TraceStore::open(&dir).unwrap();
            let barrier = std::sync::Barrier::new(progs.len());
            std::thread::scope(|s| {
                for (prog, want) in progs.iter().zip(&want) {
                    let (store, barrier) = (&store, &barrier);
                    s.spawn(move || {
                        barrier.wait();
                        let t = store.get_or_record("x", prog, 10_000).unwrap();
                        assert_eq!(t.stamp(), *want, "round {round}");
                    });
                }
            });
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn concurrent_get_or_record_records_exactly_once() {
        let dir = scratch("race");
        let store = TraceStore::open(&dir).unwrap();
        let prog = parse_asm(RICH).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                let prog = prog.clone();
                s.spawn(move || {
                    let t = store.get_or_record("rich", &prog, 1000).unwrap();
                    assert!(!t.is_empty());
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.recorded, 1, "single-writer: {s:?}");
        assert_eq!(s.hits, 7, "everyone else hits: {s:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stale_lock_steal_records_exactly_once() {
        // Two waiters that both observe a dead owner's stale lock must not
        // both claim it: with a remove-based steal the slower waiter could
        // delete the winner's *fresh* lock and the key would be recorded
        // twice. Plant a dead-owner lock, age it past the store timeout,
        // then race 8 threads at the key.
        let dir = scratch("steal-race");
        let timeout = Duration::from_millis(500);
        let store = TraceStore::open_tuned(&dir, DEFAULT_BLOCK_UOPS, timeout).unwrap();
        let prog = parse_asm(RICH).unwrap();
        std::fs::write(
            dir.join(format!("{:016x}.lock", TraceStore::digest(&prog))),
            b"",
        )
        .unwrap();
        std::thread::sleep(timeout + Duration::from_millis(100));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let store = store.clone();
                let prog = prog.clone();
                s.spawn(move || {
                    let t = store.get_or_record("rich", &prog, 1000).unwrap();
                    assert!(!t.is_empty());
                });
            }
        });
        let s = store.stats();
        assert_eq!(s.recorded, 1, "exactly one steal winner records: {s:?}");
        assert_eq!(s.hits, 7, "every other waiter hits: {s:?}");
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".steal.") || n.ends_with(".lock"))
            .collect();
        assert!(litter.is_empty(), "no lock or tombstone litter: {litter:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_reclaims_steal_tombstones() {
        let dir = scratch("tombstone");
        let store = TraceStore::open(&dir).unwrap();
        std::fs::write(dir.join("00000000deadbeef.lock.steal.1.0"), b"").unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed, 1, "crash-abandoned tombstone reclaimed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_lock_is_stolen() {
        let dir = scratch("stale");
        let store =
            TraceStore::open_tuned(&dir, DEFAULT_BLOCK_UOPS, Duration::from_millis(0)).unwrap();
        let prog = parse_asm(RICH).unwrap();
        // A lock file with no living owner (mtime in the past, timeout 0).
        std::fs::write(
            dir.join(format!("{:016x}.lock", TraceStore::digest(&prog))),
            b"",
        )
        .unwrap();
        let t = store.get_or_record("rich", &prog, 1000).unwrap();
        assert!(!t.is_empty());
        assert_eq!(store.stats().recorded, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
