#!/usr/bin/env bash
# Hermeticity gate for the deterministic core crates.
#
# crates/core, crates/analyze, crates/isa, crates/mem, crates/cpu,
# crates/sim and crates/obs must be pure functions of their inputs: the
# codec's byte streams, the linter's reports, the decoder tables, every
# simulated statistic, the matrix runner's reports and journals, and the
# metrics, profile and trace documents obs renders for all of them are
# golden-value- and cross-worker-compared in CI, so a wall-clock read or
# a random draw anywhere in them is a latent nondeterminism bug even if
# today's tests happen to pass. (The simulator's soft-error process
# draws from the testkit PRNG seeded by its own key, not from `rand`.)
#
# Enforced textually (fast, dependency-free, and impossible to dodge via
# cfg gymnastics):
#
#   * no std::time::Instant / SystemTime — wall clock reads
#   * no rand:: / rand_core:: — randomness (the workspace has no rand
#     crate; this also blocks a vendored copy sneaking in)
#   * no HashMap / HashSet — hash iteration order is seeded per process,
#     so a hash collection iterated into any serialized output (frames,
#     reports, tables) is nondeterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(crates/core/src crates/analyze/src crates/isa/src crates/mem/src crates/cpu/src
    crates/sim/src crates/obs/src)
fail=0

ban() {
    local pattern="$1" why="$2"
    shift 2
    if hits=$(grep -rn "$pattern" "$@" 2>/dev/null); then
        echo "hermeticity: $why:" >&2
        echo "$hits" >&2
        fail=1
    fi
}

ban 'std::time::Instant' "wall-clock Instant in a deterministic crate" "${CRATES[@]}"
ban 'SystemTime' "wall-clock SystemTime in a deterministic crate" "${CRATES[@]}"
ban 'rand::' "randomness in a deterministic crate" "${CRATES[@]}"
ban 'rand_core::' "randomness in a deterministic crate" "${CRATES[@]}"

ban 'HashMap\|HashSet' "hash collection in a deterministic crate" "${CRATES[@]}"

if [ "$fail" -ne 0 ]; then
    echo "hermeticity gate FAILED" >&2
    exit 1
fi
echo "hermeticity gate: core/analyze/isa/mem/cpu/sim/obs clean"
