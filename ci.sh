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

echo "== tier-2: observability smoke =="
# One small observed run end to end: the trace must be valid JSONL, the
# metrics document valid JSON, and the CPI attribution must close (the
# components sum to measured CPI). trace-export must emit loadable
# Chrome trace JSON. Exercised via the release cpack binary built above.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
CPACK=target/release/cpack
"$CPACK" run pegwit 30000 \
    --trace "$OBS_TMP/run.jsonl" --metrics "$OBS_TMP/run.metrics.json" > /dev/null
"$CPACK" trace-export "$OBS_TMP/run.jsonl" --chrome -o "$OBS_TMP/run.chrome.json" > /dev/null
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]

# Every trace line parses and carries a cycle stamp and a kind tag.
with open(f"{tmp}/run.jsonl") as f:
    lines = [json.loads(l) for l in f if l.strip()]
assert lines, "trace is empty"
assert all("c" in e and "k" in e for e in lines), "malformed trace event"

# The metrics document parses and its CPI attribution closes.
with open(f"{tmp}/run.metrics.json") as f:
    m = json.load(f)
b = m["cpi_breakdown"]
parts = ["compute", "icache_miss", "decompress", "index_lookup", "memory", "branch"]
total, s = b["total"], sum(b[p] for p in parts)
assert abs(s - total) < 1e-5, f"CPI breakdown does not close: {s} vs {total}"
assert m["counters"]["pipeline.cycles"] > 0

# The Chrome export is valid trace-event JSON.
with open(f"{tmp}/run.chrome.json") as f:
    c = json.load(f)
assert isinstance(c["traceEvents"], list) and len(c["traceEvents"]) > 4
assert all("ph" in e and "ts" in e for e in c["traceEvents"])
print(f"tier-2 obs smoke: {len(lines)} events, CPI {total:.4f} closes")
PYEOF

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
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
with open(f"{tmp}/resumed.json") as f:
    r = json.load(f)
assert len(r["cells"]) == 54, f"expected the full cube, got {len(r['cells'])} cells"
assert all(c["outcome"] == "ok" for c in r["cells"])
print(f"tier-2 matrix smoke: {len(r['cells'])} cells, kill/resume byte-identical")
PYEOF

echo "== tier-2: fault campaign smoke =="
# A tiny fault-injection campaign must be byte-deterministic at any worker
# count (injection is a pure function of cycle + address, never wall
# clock), and every cell's ledger must conserve:
# injected == recovered + trapped + silent.
FLT_ARGS=(3000 --profile pegwit --rates 0,50000000 --integrity none,crc32 --json)
"$CPACK" faults "${FLT_ARGS[@]}" --workers 1 > "$OBS_TMP/faults-w1.json" 2> /dev/null
"$CPACK" faults "${FLT_ARGS[@]}" --workers 4 > "$OBS_TMP/faults-w4.json" 2> /dev/null
cmp "$OBS_TMP/faults-w1.json" "$OBS_TMP/faults-w4.json" \
    || { echo "fault campaign not worker-count deterministic"; exit 1; }
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
with open(f"{tmp}/faults-w1.json") as f:
    r = json.load(f)
cells = r["cells"]
assert len(cells) == 6, f"expected 6 cells (native, cp-opt, 2 rates x 2 integrity), got {len(cells)}"
armed = [c for c in cells if "faults_injected" in c]
assert armed, "no armed cells in the campaign"
for c in armed:
    inj, rec = c["faults_injected"], c["faults_recovered"]
    trp, sil = c["faults_trapped"], c["faults_silent"]
    assert inj == rec + trp + sil, f"{c['model']}: ledger not conserved"
    assert c["faults_detected"] == rec + trp, f"{c['model']}: detected != cured + trapped"
struck = sum(c["faults_injected"] for c in armed)
assert struck > 0, "5e-2 rate injected nothing"
# Rate 0 with no integrity must be cycle-identical to the unprotected model.
by_model = {c["model"]: c for c in cells}
assert by_model["cp-none-r0"]["cycles"] == by_model["cp-opt"]["cycles"]
print(f"tier-2 faults smoke: {len(cells)} cells, {struck} strikes, ledger conserved")
PYEOF

echo "== tier-2: sr32lint gate =="
# Every synthetic benchmark and its compressed image must lint clean, and
# the linter's *independent* static recount of the compression ratio must
# equal the codec's claim exactly and match the golden Table 3 values
# (seed 42).
for p in cc1 go mpeg2enc pegwit perl vortex; do
    "$CPACK" lint "$p" --json > "$OBS_TMP/lint-$p.json" \
        || { echo "lint gate failed for $p"; cat "$OBS_TMP/lint-$p.json"; exit 1; }
done
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
golden = {"cc1": 0.5923, "go": 0.5828, "mpeg2enc": 0.5952,
          "pegwit": 0.5895, "perl": 0.5882, "vortex": 0.5848}
for p, want in golden.items():
    with open(f"{tmp}/lint-{p}.json") as f:
        r = json.load(f)
    assert r["clean"] and r["errors"] == 0, f"{p}: lint not clean"
    ratio = r["ratio"]
    assert ratio["static_ratio"] == ratio["codec_ratio"], \
        f"{p}: static {ratio['static_ratio']} != codec {ratio['codec_ratio']}"
    assert round(ratio["static_ratio"], 4) == want, \
        f"{p}: ratio {ratio['static_ratio']:.4f} != golden {want}"
print(f"tier-2 lint smoke: 6 profiles clean, static ratios == golden")
PYEOF

echo "== tier-2: .cpk frame lint gate =="
# Every benchmark packed to a stream frame must pass the *static* frame
# linter (chunk extents, CRCs, integrity trailers, payload decode — no
# unpack), `cpack inspect` must report the golden static ratio of the
# profile lint above from the frame alone, and a single flipped payload
# byte must fail the gate with a JSON diagnostic naming the damaged group.
for p in cc1 go mpeg2enc pegwit perl vortex; do
    "$CPACK" pack "$p" -o "$OBS_TMP/frame-$p.cpk" 2> /dev/null
    "$CPACK" lint "$OBS_TMP/frame-$p.cpk" --json > "$OBS_TMP/flint-$p.json" \
        || { echo "frame lint gate failed for $p"; cat "$OBS_TMP/flint-$p.json"; exit 1; }
    "$CPACK" inspect "$OBS_TMP/frame-$p.cpk" > "$OBS_TMP/inspect-$p.txt" \
        || { echo "inspect failed for $p"; exit 1; }
done
python3 - "$OBS_TMP" <<'PYEOF'
import json, re, sys
tmp = sys.argv[1]
for p in ["cc1", "go", "mpeg2enc", "pegwit", "perl", "vortex"]:
    with open(f"{tmp}/flint-{p}.json") as f:
        r = json.load(f)
    assert r["clean"] and r["errors"] == 0, f"{p}: frame lint not clean"
    for c in ["frame-header", "frame-chunk", "frame-integrity",
              "frame-payload", "frame-trailer", "decode-table-kind"]:
        assert c in r["checks_run"], f"{p}: check {c} did not run"
    # The ratio inspect prints, exactly: total bytes over 4 per instruction.
    with open(f"{tmp}/inspect-{p}.txt") as f:
        text = f.read()
    insns = int(re.search(r": (\d+) instructions", text).group(1))
    total = int(re.search(r"total (\d+) bytes", text).group(1))
    with open(f"{tmp}/lint-{p}.json") as f:
        want = round(json.load(f)["ratio"]["static_ratio"], 4)
    assert round(total / (4 * insns), 4) == want, \
        f"{p}: inspect ratio {total / (4 * insns):.4f} != golden {want}"
# Flip one payload byte of the first group of pegwit's frame.
with open(f"{tmp}/frame-pegwit.cpk", "rb") as f:
    b = bytearray(f.read())
hi = int.from_bytes(b[16:18], "little")
lo = int.from_bytes(b[18:20], "little")
payload_at = 20 + 2 * (hi + lo) + 4 + 4 + 2
b[payload_at] ^= 0x01
with open(f"{tmp}/frame-pegwit-corrupt.cpk", "wb") as f:
    f.write(b)
print("tier-2 frame lint: 6 frames clean, all frame checks ran, inspect ratios == golden")
PYEOF
if "$CPACK" lint "$OBS_TMP/frame-pegwit-corrupt.cpk" --json \
        > "$OBS_TMP/flint-corrupt.json"; then
    echo "frame lint gate MISSED a flipped payload byte"; exit 1
fi
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
with open(f"{tmp}/flint-corrupt.json") as f:
    r = json.load(f)
assert not r["clean"] and r["errors"] > 0
assert any("group 0" in d["message"] for d in r["diagnostics"]), \
    "no diagnostic names the damaged group"
print("tier-2 frame lint: flipped payload byte detected, group named")
PYEOF

echo "== tier-2: codec + frame fuzzer (fixed seed, both backends) =="
# Covers mutated block streams (both decode backends must agree) and
# mutated .cpk frames (one-shot serial, one-shot parallel, and the
# streaming reader must reach the same typed verdict — never a panic).
cargo test -q --offline --test fuzz_codec

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

echo "== tier-2: codec scorecard gate (decode + frame) =="
# A fresh smoke run of the codec bench must show the fast backend beating
# the scalar reference on every profile, and the checked-in full-mode
# BENCH_codec.json must carry the >= 2x speedup the fast path promises.
# frame_throughput merges its serial-vs-parallel .cpk section into the
# same document; its parallel-speedup floor is core-count aware (the
# validator skips it when the recorded cpus < workers, since a one-CPU
# runner cannot exhibit parallel speedup).
TESTKIT_BENCH_FAST=1 BENCH_CODEC_OUT="$OBS_TMP/bench_codec.json" \
    cargo bench -q --offline -p codepack-bench --bench decode_throughput > /dev/null
TESTKIT_BENCH_FAST=1 BENCH_CODEC_OUT="$OBS_TMP/bench_codec.json" \
    cargo bench -q --offline -p codepack-bench --bench frame_throughput > /dev/null
# One validator (tools/validate_bench.py) checks both documents, so the
# schema_version-1 scorecard schema is enforced in exactly one place.
# Fresh smoke run: fast must outrun scalar on every profile, right now,
# on this machine — catches hot-path regressions before they land.
python3 tools/validate_bench.py "$OBS_TMP/bench_codec.json" --mode smoke \
    --fast-beats-scalar --require-frame --min-parallel-speedup 2.0
# Checked-in scorecard: schema-valid full-mode numbers with >= 2x each.
python3 tools/validate_bench.py BENCH_codec.json --mode full --min-speedup 2.0 \
    --require-frame --min-parallel-speedup 2.0

echo "== tier-2: block profiler smoke =="
# A profiled run must emit a schema-valid versioned artifact that is
# byte-identical across worker counts at the fixed seed (the input
# contract of the profile-guided compressor), and the armed profiler must
# stay inside its overhead budget.
"$CPACK" profile pegwit 30000 --workers 1 --out "$OBS_TMP/prof-w1.json" > /dev/null 2>&1
"$CPACK" profile pegwit 30000 --workers 4 --out "$OBS_TMP/prof-w4.json" > /dev/null 2>&1
cmp "$OBS_TMP/prof-w1.json" "$OBS_TMP/prof-w4.json" \
    || { echo "profile artifact not worker-count deterministic"; exit 1; }
"$CPACK" profile --diff "$OBS_TMP/prof-w1.json" "$OBS_TMP/prof-w4.json" \
    | grep -q "byte-identical" || { echo "profile --diff missed identity"; exit 1; }
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
tmp = sys.argv[1]
with open(f"{tmp}/prof-w1.json") as f:
    p = json.load(f)
assert p["schema"] == "cpack-block-profile", p.get("schema")
assert p["schema_version"] == 1, p.get("schema_version")
assert p["total_blocks"] > 0 and p["blocks"], "profile is empty"
for b in p["blocks"]:
    assert b["fetches"] >= b["buffer_hits"], f"block {b['block']}: hits exceed fetches"
    misses = b["fetches"] - b["buffer_hits"]
    assert b["miss_cycles"]["count"] == misses, \
        f"block {b['block']}: histogram count != misses"
touched = len(p["blocks"])
fetches = sum(b["fetches"] for b in p["blocks"])
print(f"tier-2 profile smoke: {touched}/{p['total_blocks']} blocks, "
      f"{fetches} fetches, worker-count byte-identical")
PYEOF
TESTKIT_BENCH_FAST=1 \
    cargo bench -q --offline -p codepack-bench --bench profile_overhead > /dev/null \
    || { echo "profile overhead budget exceeded"; exit 1; }

echo "== tier-2: service smoke (cpackd + loadgen) =="
# The cpackd robustness contract, end to end through the real daemon:
# a >=100k-request fixed-seed loadgen against a live cpackd must resolve
# every request exactly once with zero mismatches; kill -9 of the daemon
# mid-run must surface as typed connection failures and a nonzero
# loadgen exit (never a hang, never a wrong answer); a restarted daemon
# must serve the same seed to completion; chaos mode (worker kills, torn
# frames, garbage bytes, burn bursts) must still lose nothing. One
# validator (tools/validate_bench.py --require-service) checks the fresh
# scorecard and the checked-in BENCH_service.json.
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
# the library's answer, scorecard schema-validated.
"$CPACK" loadgen --requests 100000 --clients 4 --seed 42 \
    --connect "127.0.0.1:$SVC_PORT" --out "$OBS_TMP/bench_service.json" \
    2> /dev/null \
    || { echo "loadgen against live cpackd failed"; exit 1; }
python3 tools/validate_bench.py "$OBS_TMP/bench_service.json" \
    --mode smoke --require-service

# Crash the daemon mid-run: the in-flight loadgen must exit nonzero with
# typed connection failures — lost responses would fail validation
# before the exit code is even consulted.
"$CPACK" loadgen --requests 100000 --clients 4 --seed 43 \
    --connect "127.0.0.1:$SVC_PORT" --out "$OBS_TMP/bench_killed.json" \
    > /dev/null 2> "$OBS_TMP/loadgen-killed.err" &
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
# mismatched, or loadgen itself exits nonzero.
"$CPACK" loadgen --requests 20000 --clients 4 --seed 42 --chaos \
    --out "$OBS_TMP/bench_chaos.json" 2> /dev/null \
    || { echo "chaos loadgen violated the zero-loss contract"; exit 1; }
python3 tools/validate_bench.py "$OBS_TMP/bench_chaos.json" \
    --mode smoke --require-service

# Checked-in scorecard: schema-valid full-mode numbers.
python3 tools/validate_bench.py BENCH_service.json --mode full --require-service
echo "tier-2 service smoke: 100k live + kill -9 typed + restart + chaos clean"

echo "ci: all green"
