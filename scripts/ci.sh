#!/usr/bin/env bash
# Tier-1 gate: build, test, lint, then a figure-pipeline smoke that checks
# every per-figure JSON artifact parses and archives one Konata trace.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace --exclude helios -q"
# The root `cargo test` runs only the helios package; the member crates'
# own suites (the HTRC2 decoder fuzzer and its pinned crashers, the trace
# store's race and bounded-recording tests, the isa/emu/core proptests,
# the uarch pipeline tests, sweepd's server tests) run here.
cargo test --workspace --exclude helios -q

echo "==> bench package tests"
# The benchmark is a package of its own (an empty [workspace] table), so
# --workspace does not reach it; build it into the workspace target dir.
CARGO_TARGET_DIR="$PWD/target" cargo test --release --offline -q \
    --manifest-path crates/bench/src/bin/bench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> sweep smoke: fig10 --quick --jobs 2 (timed)"
# Quick-run artifacts go to a scratch dir so CI never clobbers the committed
# full-suite artifacts under results/. Every figure answers cells from the
# result store in its results dir (cells.jsonl), so each gate below that
# needs cells simulated runs in a fresh dir of its own (`fresh`); the
# figure smoke alone reuses the store this sweep fills.
scratch="results/ci-quick"
rm -rf "$scratch"
mkdir -p "$scratch"
export HELIOS_RESULTS_DIR="$scratch"
fresh() {
    rm -rf "${scratch:?}/$1"
    mkdir -p "$scratch/$1"
    echo "$scratch/$1"
}
# The "R/T" of a sweep's "resume: restored R/T cells" stderr line, or
# nothing when no cell came from the store.
restored() {
    sed -n 's/^resume: restored \([0-9]*\/[0-9]*\) cells.*/\1/p' "$1"
}
sweep_start=$(date +%s)
cargo run --release -q -p helios-bench --bin fig10 -- --quick --jobs 2 > /dev/null
sweep_end=$(date +%s)
echo "sweep smoke: $((sweep_end - sweep_start))s wall"

echo "==> fuzz smoke: fixed-seed differential campaign + corpus replay"
cargo run --release -q -p helios-bench --bin fuzz -- --seed 1 --iters 500 --quiet
cargo run --release -q -p helios-bench --bin fuzz -- --replay tests/corpus

echo "==> figure smoke: every report binary on the --quick subset"
# Run after fig10 --quick over the same store, fig03/fig08/fig09/table3
# must answer every cell from it (their grids are subsets of fig10's), and
# ablation's paper-params row must hit fig10's 8 Helios cells.
for bin in fig02 fig03 fig04 fig05 fig08 fig09 table1 table2 table3 ablation; do
    echo "  -> $bin"
    cargo run --release -q -p helios-bench --bin "$bin" -- --quick --jobs 2 \
        > /dev/null 2> "$scratch/$bin.err" || {
        cat "$scratch/$bin.err" >&2
        exit 1
    }
done
for want in fig03:24/24 fig08:16/16 fig09:24/24 table3:16/16 ablation:8/136; do
    bin=${want%%:*}
    got=$(restored "$scratch/$bin.err")
    if [ "$got" != "${want#*:}" ]; then
        echo "ci: FAIL — $bin after fig10 restored '${got}' cells from the store, want ${want#*:}" >&2
        exit 1
    fi
done
echo "figure smoke: fig03/fig08/fig09/table3 simulated nothing after fig10; ablation restored 8/136"

echo "==> validating per-figure JSON artifacts"
for id in fig02 fig03 fig04 fig05 fig08 fig09 fig10 table1 table2 table3 ablation fuzz; do
    json="$scratch/$id.json"
    if [ ! -f "$json" ]; then
        echo "ci: FAIL — missing figure artifact $json" >&2
        exit 1
    fi
    if ! python3 -m json.tool "$json" > /dev/null; then
        echo "ci: FAIL — unparsable figure artifact $json" >&2
        exit 1
    fi
done
echo "all figure JSON artifacts parse"

echo "==> inspect smoke: one registry block per mode, raw counters and observer entries"
# inspect prints each mode's stats registry; --obs adds the observer's
# entries. The last raw counter of the table and one observer histogram
# must both be there.
inspect_out="$scratch/inspect.out"
cargo run --release -q -p helios-bench --bin inspect -- --only crc32 --obs > "$inspect_out"
blocks=$(grep -c '^--- .* ---$' "$inspect_out" || true)
if [ "$blocks" -ne 6 ]; then
    echo "ci: FAIL — inspect printed $blocks mode blocks, want 6" >&2
    exit 1
fi
for want in fusion.repair.catalyst_flush obs.fetch_to_commit; do
    if [ "$(grep -c "^$want " "$inspect_out")" -ne 6 ]; then
        echo "ci: FAIL — inspect output lacks \`$want\` in some mode block" >&2
        exit 1
    fi
done
echo "inspect smoke: 6 mode blocks, each with fusion.repair.catalyst_flush and obs.fetch_to_commit"

echo "==> resilience smoke: injected chaos must yield a partial, annotated report"
# One panicking cell and one timing-out cell (both in the --quick set): the
# sweep must finish every other cell, name both casualties in the JSON
# artifact, and exit with the PARTIAL code (3).
fig10=(cargo run --release -q -p helios-bench --bin fig10 -- --quick --jobs 2)
chaos_dir=$(fresh chaos)
set +e
HELIOS_SWEEP_CHAOS="bitcount/Helios=panic,fft/NoFusion=timeout" \
HELIOS_RESULTS_DIR="$chaos_dir" "${fig10[@]}" > /dev/null 2> /dev/null
chaos_rc=$?
set -e
if [ "$chaos_rc" -ne 3 ]; then
    echo "ci: FAIL — chaos sweep exited $chaos_rc, expected 3 (partial)" >&2
    exit 1
fi
grep -q '"bitcount/Helios": "failed' "$chaos_dir/fig10.json" || {
    echo "ci: FAIL — chaos report missing quarantined panic cell" >&2
    exit 1
}
grep -q '"fft/NoFusion": "timed out' "$chaos_dir/fig10.json" || {
    echo "ci: FAIL — chaos report missing timed-out cell" >&2
    exit 1
}
echo "chaos sweep: partial exit + both casualties annotated"

echo "==> resilience smoke: interrupted sweep resumes byte-identically"
# Reference uninterrupted run in one fresh dir; in another, a run stopped
# after 17 simulated cells (the deterministic stand-in for kill -9), then a
# plain rerun, which must restore every cell the interrupted run stored
# (17, plus any cell the second worker had in flight) and match the
# reference's stdout and fig10.json byte for byte.
ref_dir=$(fresh resume-ref)
HELIOS_RESULTS_DIR="$ref_dir" "${fig10[@]}" > "$scratch/ref.out" 2> /dev/null
resume_dir=$(fresh resume)
set +e
HELIOS_RESULTS_DIR="$resume_dir" HELIOS_SWEEP_STOP_AFTER=17 "${fig10[@]}" > /dev/null 2> /dev/null
int_rc=$?
set -e
if [ "$int_rc" -ne 130 ]; then
    echo "ci: FAIL — interrupted sweep exited $int_rc, expected 130" >&2
    exit 1
fi
stored=$(wc -l < "$resume_dir/cells.jsonl" | tr -d " ")
if [ "$stored" -lt 17 ] || [ "$stored" -ge 48 ]; then
    echo "ci: FAIL — interrupted sweep stored $stored cells, want 17..47" >&2
    exit 1
fi
HELIOS_RESULTS_DIR="$resume_dir" "${fig10[@]}" > "$scratch/resumed.out" 2> "$scratch/resumed.err"
if [ "$(restored "$scratch/resumed.err")" != "$stored/48" ]; then
    echo "ci: FAIL — rerun restored '$(restored "$scratch/resumed.err")' cells, want $stored/48" >&2
    exit 1
fi
cmp "$scratch/ref.out" "$scratch/resumed.out" || {
    echo "ci: FAIL — resumed sweep stdout differs from uninterrupted run" >&2
    exit 1
}
cmp "$ref_dir/fig10.json" "$resume_dir/fig10.json" || {
    echo "ci: FAIL — resumed fig10.json differs from uninterrupted run" >&2
    exit 1
}
echo "resume smoke: interrupted at 17/48 ($stored stored), rerun restored $stored/48 byte-identically"

echo "==> resilience smoke: interrupted ablation resumes byte-identically"
# ablation's 17 config variants run through the same executor as every
# figure: an uninterrupted run, a run stopped after 40 simulated cells
# (must exit 130), then a rerun that must restore every stored cell and
# whose stdout must match the first. Each starts from a fresh dir.
ablation=(cargo run --release -q -p helios-bench --bin ablation -- --quick --jobs 2)
abl_ref_dir=$(fresh ablation-ref)
HELIOS_RESULTS_DIR="$abl_ref_dir" "${ablation[@]}" > "$scratch/ablation_ref.out" 2> /dev/null
abl_dir=$(fresh ablation-resume)
set +e
HELIOS_RESULTS_DIR="$abl_dir" HELIOS_SWEEP_STOP_AFTER=40 "${ablation[@]}" > /dev/null 2> /dev/null
abl_rc=$?
set -e
if [ "$abl_rc" -ne 130 ]; then
    echo "ci: FAIL — interrupted ablation exited $abl_rc, expected 130" >&2
    exit 1
fi
abl_stored=$(wc -l < "$abl_dir/cells.jsonl" | tr -d " ")
if [ "$abl_stored" -lt 40 ] || [ "$abl_stored" -ge 136 ]; then
    echo "ci: FAIL — interrupted ablation stored $abl_stored cells, want 40..135" >&2
    exit 1
fi
HELIOS_RESULTS_DIR="$abl_dir" "${ablation[@]}" \
    > "$scratch/ablation_resumed.out" 2> "$scratch/ablation_resumed.err"
if [ "$(restored "$scratch/ablation_resumed.err")" != "$abl_stored/136" ]; then
    echo "ci: FAIL — ablation rerun restored '$(restored "$scratch/ablation_resumed.err")' cells, want $abl_stored/136" >&2
    exit 1
fi
cmp "$scratch/ablation_ref.out" "$scratch/ablation_resumed.out" || {
    echo "ci: FAIL — resumed ablation stdout differs from uninterrupted run" >&2
    exit 1
}
echo "ablation resume smoke: interrupted at 40/136 ($abl_stored stored), rerun restored $abl_stored/136 byte-identically"

echo "==> resilience smoke: sweep-executor chaos soak"
cargo run --release -q -p helios-bench --bin soak -- --sweep-chaos --quick --jobs 2

echo "==> trace store smoke: cold vs warm vs live fig10 --quick"
# A sweep through a cold store must record every workload; the same sweep
# against the warm store must record nothing (pure hits, traces streamed
# from disk) and produce byte-identical stdout; and both must match the
# store-less (live in-memory) reference captured above. Each run has a
# fresh results dir, so its cells are simulated and read their traces.
tstore="$scratch/traces"
rm -rf "$tstore"
HELIOS_RESULTS_DIR="$(fresh trace-cold)" HELIOS_TRACE_DIR="$tstore" "${fig10[@]}" \
    > "$scratch/cold.out" 2> "$scratch/cold.err"
HELIOS_RESULTS_DIR="$(fresh trace-warm)" HELIOS_TRACE_DIR="$tstore" "${fig10[@]}" \
    > "$scratch/warm.out" 2> "$scratch/warm.err"
grep -q "trace store: 0 recorded, 8 hits" "$scratch/warm.err" || {
    echo "ci: FAIL — warm trace store still recorded (want pure hits):" >&2
    grep "trace store:" "$scratch/warm.err" >&2 || true
    exit 1
}
cmp "$scratch/cold.out" "$scratch/warm.out" || {
    echo "ci: FAIL — warm-store fig10 stdout differs from cold-store run" >&2
    exit 1
}
cmp "$scratch/ref.out" "$scratch/cold.out" || {
    echo "ci: FAIL — store-backed fig10 stdout differs from live (store-less) run" >&2
    exit 1
}
echo "trace store: cold/warm/live stdout byte-identical, warm run recorded nothing"

echo "==> trace store smoke: bit-flip detection"
trace=(cargo run --release -q -p helios-bench --bin trace --)
entry=$(ls "$tstore"/*.htrc2 | head -1)
python3 - "$entry" <<'PY'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0x40
open(p, "wb").write(b)
PY
set +e
"${trace[@]}" verify --store "$tstore" > "$scratch/verify.out"
verify_rc=$?
set -e
if [ "$verify_rc" -eq 0 ]; then
    echo "ci: FAIL — trace verify missed a deliberately flipped block" >&2
    exit 1
fi
grep -q "BAD" "$scratch/verify.out" || {
    echo "ci: FAIL — trace verify exited non-zero but named no bad file" >&2
    exit 1
}
echo "trace verify: flipped block detected (exit $verify_rc)"
set +e
"${trace[@]}" verfy --store "$tstore" > /dev/null 2> /dev/null
typo_rc=$?
set -e
if [ "$typo_rc" -ne 2 ]; then
    echo "ci: FAIL — unknown trace subcommand exited $typo_rc, expected 2 (usage)" >&2
    exit 1
fi
echo "trace CLI: unknown subcommand exits 2"

# gc reclaims the flipped file; record restores the corpus.
"${trace[@]}" gc --store "$tstore" > /dev/null
"${trace[@]}" record --store "$tstore" > /dev/null 2> /dev/null

echo "==> Konata trace smoke"
"${trace[@]}" dump crc32 --konata "$scratch/crc32.kanata" --limit 20000
head -c 7 "$scratch/crc32.kanata" | grep -q "Kanata" || {
    echo "ci: FAIL — Konata trace missing header" >&2
    exit 1
}

echo "==> server smoke: sweepd + fig10 --quick --server"
# Start the daemon on an ephemeral port, run fig10 through it twice (cold
# cache simulates all 48 cells, warm cache must re-simulate zero), check
# stdout and the fig10.json artifact stay byte-identical to the local
# reference run, then shut the daemon down with SIGINT (must exit 0).
cargo build --release -q -p helios-bench --bin serve
serve_log="$scratch/serve.log"
rm -rf "$scratch/sweepd"
target/release/serve --addr 127.0.0.1:0 --cache-dir "$scratch/sweepd" --jobs 2 \
    2> "$serve_log" &
serve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^sweepd: listening on //p' "$serve_log")
    [ -n "$url" ] && break
    sleep 0.1
done
[ -n "$url" ] || {
    echo "ci: FAIL — sweepd never announced its listening address" >&2
    exit 1
}
server_dir=$(fresh server)
HELIOS_RESULTS_DIR="$server_dir" "${fig10[@]}" --server "$url" \
    > "$scratch/server_cold.out" 2> "$scratch/server_cold.err"
HELIOS_RESULTS_DIR="$server_dir" "${fig10[@]}" --server "$url" \
    > "$scratch/server_warm.out" 2> "$scratch/server_warm.err"
cmp "$scratch/ref.out" "$scratch/server_cold.out" || {
    echo "ci: FAIL — fig10 --server stdout differs from the local run" >&2
    exit 1
}
cmp "$scratch/ref.out" "$scratch/server_warm.out" || {
    echo "ci: FAIL — warm-cache fig10 --server stdout differs from the local run" >&2
    exit 1
}
cmp "$ref_dir/fig10.json" "$server_dir/fig10.json" || {
    echo "ci: FAIL — fig10 --server JSON artifact differs from the local run" >&2
    exit 1
}
grep -q "server cache: 0 hits, 48 simulated" "$scratch/server_cold.err" || {
    echo "ci: FAIL — cold server run did not report 48 simulated cells:" >&2
    grep "server cache:" "$scratch/server_cold.err" >&2 || true
    exit 1
}
grep -q "server cache: 48 hits, 0 simulated" "$scratch/server_warm.err" || {
    echo "ci: FAIL — warm server run re-simulated cells (want pure cache hits):" >&2
    grep "server cache:" "$scratch/server_warm.err" >&2 || true
    exit 1
}
kill -INT "$serve_pid"
# SIGINT reaches the blocked accept loop through a watcher thread; the
# daemon must be gone within 10 s.
for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
    echo "ci: FAIL — sweepd still running 10 s after SIGINT" >&2
    kill -KILL "$serve_pid" 2>/dev/null || true
    exit 1
fi
set +e
wait "$serve_pid"
serve_rc=$?
set -e
if [ "$serve_rc" -ne 0 ]; then
    echo "ci: FAIL — sweepd exited $serve_rc on SIGINT, expected clean 0" >&2
    exit 1
fi
grep -q "shut down cleanly" "$serve_log" || {
    echo "ci: FAIL — sweepd exited 0 but never logged a clean shutdown" >&2
    exit 1
}
echo "server smoke: cold 48 simulated, warm 48 cached, stdout+artifact byte-identical, clean shutdown"

echo "==> server smoke: a local result store is a sweepd result store"
# Local sweeps and sweepd share one result-store format: a daemon whose
# store is a copy of the reference fig10 --quick run's cells.jsonl must
# answer all 48 cells from it and print the local run's stdout byte for
# byte.
ckpt_dir=$(fresh sweepd-ckpt)
cp "$ref_dir/cells.jsonl" "$ckpt_dir/results.jsonl"
target/release/serve --addr 127.0.0.1:0 --cache-dir "$ckpt_dir" --jobs 2 2> "$serve_log" &
serve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^sweepd: listening on //p' "$serve_log")
    [ -n "$url" ] && break
    sleep 0.1
done
set +e
HELIOS_RESULTS_DIR="$(fresh server-ckpt)" "${fig10[@]}" --server "$url" \
    > "$scratch/server_ckpt.out" 2> "$scratch/server_ckpt.err"
ckpt_rc=$?
kill -INT "$serve_pid"
wait "$serve_pid"
set -e
if [ -z "$url" ] || [ "$ckpt_rc" -ne 0 ]; then
    echo "ci: FAIL — fig10 --server over a checkpoint-seeded sweepd failed (exit $ckpt_rc)" >&2
    exit 1
fi
grep -q "server cache: 48 hits, 0 simulated" "$scratch/server_ckpt.err" || {
    echo "ci: FAIL — sweepd did not answer every cell from the local result store:" >&2
    grep "server cache:" "$scratch/server_ckpt.err" >&2 || true
    exit 1
}
cmp "$scratch/ref.out" "$scratch/server_ckpt.out" || {
    echo "ci: FAIL — checkpoint-seeded fig10 --server stdout differs from the local run" >&2
    exit 1
}
echo "server smoke: local result store served 48 cached cells, stdout byte-identical"

echo "==> server smoke: two concurrent clients share one simulation per cell"
# Two fig10 --quick clients race the same 48 cells through a freshly
# emptied daemon. A cell is simulated at most once at a time and every job
# waiting on it gets that run's result as a cache hit, so the two clients'
# summaries must add up to exactly 48 simulated and 48 hits, and both
# stdouts must still match the local run byte for byte. Each client writes
# its artifacts to its own directory.
race_dir="$scratch/sweepd-race"
rm -rf "$race_dir"
target/release/serve --addr 127.0.0.1:0 --cache-dir "$race_dir" --jobs 2 2> "$serve_log" &
serve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^sweepd: listening on //p' "$serve_log")
    [ -n "$url" ] && break
    sleep 0.1
done
race_pids=()
set +e
for c in a b; do
    mkdir -p "$scratch/race-$c"
    HELIOS_RESULTS_DIR="$scratch/race-$c" \
        target/release/fig10 --quick --jobs 2 --server "$url" \
        > "$scratch/server_race_$c.out" 2> "$scratch/server_race_$c.err" &
    race_pids+=($!)
done
wait "${race_pids[0]}"
race_rc_a=$?
wait "${race_pids[1]}"
race_rc_b=$?
kill -INT "$serve_pid"
wait "$serve_pid"
set -e
if [ -z "$url" ] || [ "$race_rc_a" -ne 0 ] || [ "$race_rc_b" -ne 0 ]; then
    echo "ci: FAIL — concurrent fig10 --server clients failed (exits $race_rc_a, $race_rc_b)" >&2
    exit 1
fi
race_hits=0
race_sims=0
for c in a b; do
    cmp "$scratch/ref.out" "$scratch/server_race_$c.out" || {
        echo "ci: FAIL — concurrent client $c stdout differs from the local run" >&2
        exit 1
    }
    summary=$(sed -n 's/.*server cache: \([0-9]*\) hits, \([0-9]*\) simulated.*/\1 \2/p' \
        "$scratch/server_race_$c.err")
    [ -n "$summary" ] || {
        echo "ci: FAIL — concurrent client $c printed no server cache line" >&2
        exit 1
    }
    read -r hits sims <<< "$summary"
    race_hits=$((race_hits + hits))
    race_sims=$((race_sims + sims))
done
if [ "$race_sims" -ne 48 ] || [ "$race_hits" -ne 48 ]; then
    echo "ci: FAIL — concurrent clients: $race_sims simulated + $race_hits hits, want 48 + 48" >&2
    grep "server cache:" "$scratch"/server_race_*.err >&2 || true
    exit 1
fi
echo "server smoke: concurrent clients simulated 48 cells once between them, stdout byte-identical"

echo "ci: all green"
