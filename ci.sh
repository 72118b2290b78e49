#!/usr/bin/env bash
# Tier-1 gate. Must pass on a machine with no network and a cold cargo
# registry cache: the workspace has zero external dependencies (enforced
# by tests/hermetic.rs), so --offline is load-bearing, not an option.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all --check

echo "== clippy (offline, deny warnings) =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== hermeticity grep gate (core/analyze/isa/mem/cpu) =="
# No wall clocks, no randomness, no hash-ordered serialization in the
# deterministic crates; see tools/check_hermetic.sh for the rationale.
tools/check_hermetic.sh

echo "== rustdoc (offline, deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== test (offline) =="
cargo test -q --offline --workspace

echo "== benchmark cube golden (release) =="
# The 54-cell cube at 200k instructions must render to the digest perfbench
# pins in perfbench/golden/paper-matrix.txt, so a simulator change that
# moves it fails here rather than as an incorrect benchmark run.
cargo test -q --release --offline --test sim_golden -- --ignored

echo "== benchmark build check (perfbench against the library) =="
# perfbench is its own workspace over the library crates, so a change to
# a trait or type it uses does not fail the steps above. Checking it here
# fails CI instead of the benchmark run. Building it rewrites its
# Cargo.lock; the checked-in copy is restored so the tree is unchanged.
PB_LOCK="$(mktemp)"
cp perfbench/Cargo.lock "$PB_LOCK"
PB_STATUS=0
cargo check --offline --quiet --manifest-path perfbench/Cargo.toml || PB_STATUS=$?
cp "$PB_LOCK" perfbench/Cargo.lock
rm -f "$PB_LOCK"
[ "$PB_STATUS" -eq 0 ] || { echo "perfbench no longer builds against the library"; exit 1; }

echo "== tier-2: observability smoke =="
# One small observed run end to end through the release cpack binary
# built above. The artifacts' contents (valid JSONL, a CPI breakdown that
# closes, nonzero cycles, loadable Chrome trace JSON) are checked by
# crates/cli/tests/cli.rs; here the release binary must produce them.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
CPACK=target/release/cpack
"$CPACK" run pegwit 30000 \
    --trace "$OBS_TMP/run.jsonl" --metrics "$OBS_TMP/run.metrics.json" > /dev/null
"$CPACK" trace-export "$OBS_TMP/run.jsonl" --chrome -o "$OBS_TMP/run.chrome.json" > /dev/null

echo "== tier-2: matrix journal kill/resume smoke =="
# A journaled sweep killed mid-run and resumed must produce byte-identical
# JSON to an uninterrupted run — the crash-safety contract of the journal.
MTX_INSNS=3000
"$CPACK" matrix "$MTX_INSNS" --workers 2 --json \
    --journal "$OBS_TMP/journal-clean" > "$OBS_TMP/full.json" 2> /dev/null

# Second run: kill -9 once a few cells have been journaled.
"$CPACK" matrix "$MTX_INSNS" --workers 2 --json \
    --journal "$OBS_TMP/journal-killed" > /dev/null 2>&1 &
MTX_PID=$!
for _ in $(seq 1 200); do
    if [ "$(wc -l < "$OBS_TMP/journal-killed/journal.jsonl" 2>/dev/null || echo 0)" -ge 3 ]; then
        break
    fi
    sleep 0.05
done
kill -9 "$MTX_PID" 2>/dev/null || true
wait "$MTX_PID" 2>/dev/null || true

"$CPACK" matrix "$MTX_INSNS" --workers 2 --json --resume \
    --journal "$OBS_TMP/journal-killed" > "$OBS_TMP/resumed.json" 2> /dev/null
cmp "$OBS_TMP/full.json" "$OBS_TMP/resumed.json" \
    || { echo "resumed sweep diverged from uninterrupted run"; exit 1; }

echo "== tier-2: fault campaign smoke =="
# A tiny fault-injection campaign must be byte-deterministic at any worker
# count (injection is a pure function of cycle + address, never wall
# clock). Ledger conservation (injected == recovered + trapped + silent)
# is checked on the same campaign by crates/cli/tests/cli.rs.
FLT_ARGS=(3000 --profile pegwit --rates 0,50000000 --integrity none,crc32 --json)
"$CPACK" faults "${FLT_ARGS[@]}" --workers 1 > "$OBS_TMP/faults-w1.json" 2> /dev/null
"$CPACK" faults "${FLT_ARGS[@]}" --workers 4 > "$OBS_TMP/faults-w4.json" 2> /dev/null
cmp "$OBS_TMP/faults-w1.json" "$OBS_TMP/faults-w4.json" \
    || { echo "fault campaign not worker-count deterministic"; exit 1; }

echo "== tier-2: sr32lint gate =="
# Every synthetic benchmark and its compressed image must lint clean
# through the release binary. The static recount equal to the codec's
# ratio and to the golden Table 3 values (seed 42) is checked by
# crates/synth/tests/lint_clean.rs and tests/golden_ratios.rs.
for p in cc1 go mpeg2enc pegwit perl vortex; do
    "$CPACK" lint "$p" > "$OBS_TMP/lint-$p.txt" \
        || { echo "lint gate failed for $p"; cat "$OBS_TMP/lint-$p.txt"; exit 1; }
done

echo "== tier-2: .cpk frame lint gate =="
# Every benchmark packed to a stream frame must pass the *static* frame
# linter (chunk extents, CRCs, integrity trailers, payload decode — no
# unpack) and `cpack inspect`. Which checks run, the ratio inspect reads
# from the frame alone, and a flipped payload byte failing with a
# diagnostic that names the damaged group are checked by
# crates/cli/tests/lint.rs.
for p in cc1 go mpeg2enc pegwit perl vortex; do
    "$CPACK" pack "$p" -o "$OBS_TMP/frame-$p.cpk" 2> /dev/null
    "$CPACK" lint "$OBS_TMP/frame-$p.cpk" > "$OBS_TMP/flint-$p.txt" \
        || { echo "frame lint gate failed for $p"; cat "$OBS_TMP/flint-$p.txt"; exit 1; }
    "$CPACK" inspect "$OBS_TMP/frame-$p.cpk" > /dev/null \
        || { echo "inspect failed for $p"; exit 1; }
done

echo "== tier-2: codec, frame and wire fuzzers (fixed seed) =="
# Covers mutated block streams (the fast decoder must agree with the
# scalar reference), mutated CRC-32 and unchecked .cpk frames (serial
# and parallel unpack and scan_frame must reach the same typed verdict —
# never a panic — and a frame the static linter passes must unpack to
# the linter's words), and mutated cpackd request/response frames (a
# typed ProtoError or a frame that re-encodes to the bytes it consumed).
cargo test -q --offline --test fuzz_codec
cargo test -q --offline -p codepack-svc --test wire_fuzz

echo "== tier-2: .cpk frame round-trip smoke =="
# The frame pipeline's determinism contract, end to end through the
# binary: packing at any worker count is byte-identical, unpack restores
# the exact instruction stream, re-packing the unpacked words reproduces
# the frame, cat streams the same bytes, and a truncated frame is
# rejected with a nonzero exit and a typed message.
"$CPACK" pack pegwit -o "$OBS_TMP/pegwit-w1.cpk" --workers 1 2> /dev/null
"$CPACK" pack pegwit -o "$OBS_TMP/pegwit-w4.cpk" --workers 4 2> /dev/null
cmp "$OBS_TMP/pegwit-w1.cpk" "$OBS_TMP/pegwit-w4.cpk" \
    || { echo "frame pack not worker-count byte-identical"; exit 1; }
"$CPACK" unpack "$OBS_TMP/pegwit-w1.cpk" -o "$OBS_TMP/pegwit-text.bin" 2> /dev/null
"$CPACK" pack "$OBS_TMP/pegwit-text.bin" -o "$OBS_TMP/pegwit-repack.cpk" 2> /dev/null
cmp "$OBS_TMP/pegwit-w1.cpk" "$OBS_TMP/pegwit-repack.cpk" \
    || { echo "pack(unpack(frame)) is not byte-stable"; exit 1; }
"$CPACK" cat "$OBS_TMP/pegwit-w1.cpk" 2> /dev/null | cmp - "$OBS_TMP/pegwit-text.bin" \
    || { echo "cat and unpack disagree"; exit 1; }
head -c 40 "$OBS_TMP/pegwit-w1.cpk" > "$OBS_TMP/pegwit-truncated.cpk"
if "$CPACK" unpack "$OBS_TMP/pegwit-truncated.cpk" -o /dev/null 2> "$OBS_TMP/trunc.err"; then
    echo "unpack ACCEPTED a truncated frame"; exit 1
fi
grep -q "truncated" "$OBS_TMP/trunc.err" \
    || { echo "truncated frame not reported as truncation"; exit 1; }
echo "tier-2 frame smoke: worker-identical pack, byte-stable round trip, truncation rejected"

echo "== tier-2: codec floors =="
# A fresh run must show fast decode at least 2x scalar on every profile,
# and 4-worker .cpk pack and unpack at least 2x one worker when the host
# has at least 4 CPUs (the bench prints a note and skips that floor on
# fewer). It also holds check_frame (the static frame linter behind
# `cpack lint`, `cpack inspect` and cpackd's lint op) to at most 8x
# unpack_frame on a 16-word and a 1500-word frame: on the small frame
# the decode-table prover dominates, so the ceiling fails if the prover
# goes back to building a string or a bit reader per table window. The
# bench exits 1 below a floor or above the ceiling. Codec MB/s is
# perfbench's codec-roundtrip workload.
TESTKIT_BENCH_FAST=1 \
    cargo bench -q --offline -p codepack-bench --bench codec_floors > /dev/null \
    || { echo "codec speedup below its floor or lint above its ceiling"; exit 1; }

echo "== tier-2: paper and baseline-scheme benches =="
# Every table bench, the ablations and the beyond-paper benches run end
# to end at a short length. The simulated ones run their cells through
# run_matrix and panic through MatrixCell::expect_ok if a cell fails;
# their output at 5000 instructions is pinned by tests/paper_tables.rs.
# CCRP, HuffPack and software decompression run through the decompressor
# model they share with CodePack (index lookup, decode schedule);
# baselines_ratio and futurework_huffpack assert their images round-trip
# losslessly.
for b in table1_benchmarks table2_architectures table3_compression_ratio \
    table4_composition table5_ipc table6_index_cache table7_index_cache_speedup \
    table8_decoders table9_combined table10_icache_size table11_bus_width \
    table12_latency ablation beyond_l2 compiler_assist fig2_timeline \
    baselines_ratio software_decompression futurework_huffpack; do
    CODEPACK_INSNS=20000 cargo bench -q --offline -p codepack-bench --bench "$b" > /dev/null \
        || { echo "bench $b failed"; exit 1; }
done

echo "== tier-2: block profiler smoke =="
# A profiled run must emit an artifact that is byte-identical across
# runs at the fixed seed (the input contract of the profile-guided
# compressor); its schema and per-block accounting against the run's
# fetch counters are checked by crates/cli/tests/cli.rs, and merge
# determinism across workers by sim/src/matrix.rs. The armed profiler
# and disabled instrumentation must each stay inside their 3% overhead
# budgets.
"$CPACK" profile pegwit 30000 --out "$OBS_TMP/prof-a.json" > /dev/null 2>&1
"$CPACK" profile pegwit 30000 --out "$OBS_TMP/prof-b.json" > /dev/null 2>&1
cmp "$OBS_TMP/prof-a.json" "$OBS_TMP/prof-b.json" \
    || { echo "profile artifact not deterministic across runs"; exit 1; }
"$CPACK" profile --diff "$OBS_TMP/prof-a.json" "$OBS_TMP/prof-b.json" \
    | grep -q "byte-identical" || { echo "profile --diff missed identity"; exit 1; }
TESTKIT_BENCH_FAST=1 \
    cargo bench -q --offline -p codepack-bench --bench profile_overhead > /dev/null \
    || { echo "profile overhead budget exceeded"; exit 1; }
TESTKIT_BENCH_FAST=1 \
    cargo bench -q --offline -p codepack-bench --bench obs_overhead > /dev/null \
    || { echo "obs overhead budget exceeded"; exit 1; }

echo "== tier-2: service smoke (cpackd + loadgen) =="
# The cpackd robustness contract, end to end through the real daemon:
# a >=100k-request fixed-seed loadgen against a live cpackd must resolve
# every request exactly once with zero mismatches; kill -9 of the daemon
# mid-run must surface as typed connection failures and a nonzero
# loadgen exit (never a hang, never a wrong answer); a restarted daemon
# must serve the same seed to completion; chaos mode (worker kills, torn
# frames, garbage bytes, burn bursts) must still lose nothing. loadgen
# exits nonzero on any lost, duplicated or mismatched response; the
# scorecard schema and the checked-in BENCH_service.json chaos record
# are checked by crates/cli/tests/exit_codes.rs.
CPACKD=target/release/cpackd
SVC_PORT=7311

# cpackd serves until stdin closes; the fifo held open on fd 8 is its
# lifeline, so `exec 8>&-` is a graceful drain and kill -9 is the crash.
mkfifo "$OBS_TMP/svc.stdin"
"$CPACKD" --addr "127.0.0.1:$SVC_PORT" < "$OBS_TMP/svc.stdin" \
    > "$OBS_TMP/svc.log" 2>&1 &
SVC_PID=$!
exec 8> "$OBS_TMP/svc.stdin"
for _ in $(seq 1 100); do
    grep -q "cpackd: listening" "$OBS_TMP/svc.log" 2>/dev/null && break
    sleep 0.05
done
grep -q "cpackd: listening" "$OBS_TMP/svc.log" \
    || { echo "cpackd never came up"; cat "$OBS_TMP/svc.log"; exit 1; }

# Full fixed-seed drive: 100k requests, every response checked against
# the library's answer.
"$CPACK" loadgen --requests 100000 --clients 4 --seed 42 \
    --connect "127.0.0.1:$SVC_PORT" --out /dev/null 2> /dev/null \
    || { echo "loadgen against live cpackd failed"; exit 1; }

# Crash the daemon mid-run: the in-flight loadgen must exit nonzero with
# typed connection failures.
"$CPACK" loadgen --requests 100000 --clients 4 --seed 43 \
    --connect "127.0.0.1:$SVC_PORT" --out /dev/null \
    2> "$OBS_TMP/loadgen-killed.err" &
LG_PID=$!
sleep 1
kill -9 "$SVC_PID" 2>/dev/null || true
wait "$SVC_PID" 2>/dev/null || true
if wait "$LG_PID"; then
    echo "loadgen exited 0 despite a kill -9'd daemon"; exit 1
fi
grep -q "connection failures" "$OBS_TMP/loadgen-killed.err" \
    || { echo "killed daemon not reported as typed connection failures"; \
         cat "$OBS_TMP/loadgen-killed.err"; exit 1; }
exec 8>&-

# Restart (fresh port dodges TIME_WAIT) and re-drive the same seed.
SVC_PORT2=7312
mkfifo "$OBS_TMP/svc2.stdin"
"$CPACKD" --addr "127.0.0.1:$SVC_PORT2" < "$OBS_TMP/svc2.stdin" \
    > "$OBS_TMP/svc2.log" 2>&1 &
SVC2_PID=$!
exec 8> "$OBS_TMP/svc2.stdin"
for _ in $(seq 1 100); do
    grep -q "cpackd: listening" "$OBS_TMP/svc2.log" 2>/dev/null && break
    sleep 0.05
done
"$CPACK" loadgen --requests 20000 --clients 4 --seed 43 \
    --connect "127.0.0.1:$SVC_PORT2" --out /dev/null 2> /dev/null \
    || { echo "restarted cpackd could not serve the re-driven workload"; exit 1; }
exec 8>&-
wait "$SVC2_PID" 2>/dev/null || true

# Chaos run (in-process server): worker kills, garbage, torn frames and
# burn bursts riding alongside the workload — still zero lost, zero
# mismatched, and the server's final counters balance (each of svc.shed,
# svc.deadline_exceeded, svc.shutting_down equals its svc.responses.<status>
# counter; svc.requests is the sum of svc.requests.<op>), or loadgen itself
# exits nonzero.
"$CPACK" loadgen --requests 20000 --clients 4 --seed 42 --chaos \
    --out /dev/null 2> /dev/null \
    || { echo "chaos loadgen violated the zero-loss contract"; exit 1; }
echo "tier-2 service smoke: 100k live + kill -9 typed + restart + chaos clean"

echo "ci: all green"
