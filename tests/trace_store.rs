//! TraceStore + HTRC2 integration suite: exact codec round-trips over the
//! whole workload registry and a 200-program fuzz corpus, the corpus size
//! bound, corruption detection on store files, and single-writer
//! concurrency.

use helios::fuzz::{FuzzProgram, Profile, FUZZ_FUEL};
use helios::TraceStore;
use helios_emu::{codec, Trace};
use std::fs;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("helios-tracestore-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Encodes `trace` to HTRC2 bytes with the given block size.
fn encode(trace: &Trace, name: &str, block_uops: u32) -> Vec<u8> {
    let uops: Vec<_> = trace.replay().collect();
    let mut bytes = Vec::new();
    codec::encode_v2(&uops, trace.output(), name, block_uops, &mut bytes)
        .expect("emulator traces always encode");
    bytes
}

/// Asserts decode(encode(trace)) reproduces every µ-op field exactly and
/// returns the encoded size in bytes.
fn assert_round_trip(trace: &Trace, name: &str, block_uops: u32) -> usize {
    let bytes = encode(trace, name, block_uops);
    let (header, uops) = codec::decode_all(&mut bytes.as_slice()).expect("encoded trace decodes");
    assert_eq!(header.name, name);
    assert_eq!(header.uops, trace.len());
    assert_eq!(header.output, trace.output());
    assert_eq!(header.stamp, trace.stamp());
    let original: Vec<_> = trace.replay().collect();
    assert_eq!(uops, original, "{name}: decoded µ-ops differ");
    bytes.len()
}

/// Every registered workload round-trips exactly, at the default block size
/// and at a small one that forces multi-block framing. The default-size
/// corpus stays within 1.30 B/µ-op: encoded size is deterministic, so a
/// codec change that grows it fails here instead of drifting unnoticed
/// (23,001,318 B over 17,709,242 µ-ops = 1.299 when the bound was set).
#[test]
fn every_workload_round_trips_exactly() {
    let (mut bytes, mut uops) = (0u64, 0u64);
    for w in helios::all_workloads() {
        let trace = w.trace().expect("workload halts within fuel");
        bytes += assert_round_trip(&trace, w.name, helios_emu::DEFAULT_BLOCK_UOPS) as u64;
        uops += trace.len();
        assert_round_trip(&trace, w.name, 4096);
    }
    assert!(
        bytes * 100 <= uops * 130,
        "corpus grew to {bytes} B for {uops} µ-ops ({:.4} B/µ-op > 1.30)",
        bytes as f64 / uops as f64
    );
}

/// 200 generated fuzz programs — branch-dense, mem-dense, and mixed — all
/// round-trip exactly through the v2 codec. Programs that exhaust their
/// fuel are skipped (recording refuses truncated traces by design), but
/// the corpus must stay overwhelmingly encodable.
#[test]
fn fuzz_corpus_round_trips_exactly() {
    let mut encoded = 0u32;
    let mut seed = 0u64;
    'outer: loop {
        for profile in Profile::ALL {
            if encoded == 200 {
                break 'outer;
            }
            let p = FuzzProgram::generate(seed, profile);
            let Ok(trace) = Trace::record(p.program(), FUZZ_FUEL) else {
                continue;
            };
            let name = format!("fuzz-{seed}-{}", profile.name());
            // 1Ki-µ-op blocks force real multi-block traces out of the
            // longer programs.
            assert_round_trip(&trace, &name, 1024);
            encoded += 1;
        }
        seed += 1;
        assert!(seed < 500, "could not collect 200 halting fuzz programs");
    }
    assert_eq!(encoded, 200);
}

/// Store-file corruption never goes unnoticed: a sample of truncation
/// lengths and single-bit flips across a real store entry all fail deep
/// verification.
#[test]
fn truncation_and_bit_flips_are_detected_on_store_files() {
    let dir = scratch("corruption");
    let store = TraceStore::open(&dir).unwrap();
    let w = helios::workload("dijkstra").unwrap();
    w.stored(&store).unwrap();
    let path = store.entries().unwrap().pop().unwrap().path;
    let good = fs::read(&path).unwrap();
    codec::verify_file(&path).expect("pristine file verifies");

    // Every 97th truncation length (plus the empty file).
    for len in (0..good.len()).step_by(97) {
        fs::write(&path, &good[..len]).unwrap();
        assert!(
            codec::verify_file(&path).is_err(),
            "truncation to {len}/{} bytes went undetected",
            good.len()
        );
    }
    // A single flipped bit at every 131st byte.
    for i in (0..good.len()).step_by(131) {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        fs::write(&path, &bad).unwrap();
        assert!(
            codec::verify_file(&path).is_err(),
            "bit flip at byte {i} went undetected"
        );
    }
    fs::write(&path, &good).unwrap();
    codec::verify_file(&path).expect("restored file verifies again");
    let _ = fs::remove_dir_all(&dir);
}

/// Eight threads race `get_or_record` on one cold entry: exactly one
/// records, everyone replays the same bytes.
#[test]
fn concurrent_get_or_record_records_exactly_once() {
    let dir = scratch("race");
    let store = TraceStore::open(&dir).unwrap();
    let w = helios::workload("crc32").unwrap();
    let reference = w.trace().unwrap();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = store.clone();
                let w = &w;
                s.spawn(move || w.stored(&store).expect("get_or_record succeeds"))
            })
            .collect();
        for h in handles {
            let t = h.join().unwrap();
            assert_eq!(t.stamp(), reference.stamp());
            assert_eq!(t.len(), reference.len());
        }
    });
    let stats = store.stats();
    assert_eq!(stats.recorded, 1, "exactly one writer: {stats:?}");
    assert_eq!(stats.hits, 7, "everyone else hits: {stats:?}");
    assert_eq!(store.entries().unwrap().len(), 1);
    let _ = fs::remove_dir_all(&dir);
}
