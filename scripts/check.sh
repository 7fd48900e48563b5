#!/usr/bin/env bash
# Build/test matrix for CI and pre-merge checking.
#
#   scripts/check.sh [legs...]
#
# Legs (default: all, in this order):
#   default   RelWithDebInfo build + full ctest (tier-1)
#   werror    strict build: -Wall -Wextra -Werror (ROMULUS_WERROR=ON), no tests
#   asan      ASan/UBSan build (ROMULUS_SANITIZE=ON) + full ctest
#   tsan      TSan build (ROMULUS_TSAN=ON) + targeted concurrency tests
#   race      romrace build (ROMULUS_RACECHECK=ON) + full ctest, including
#             the positive-detection fixtures and the armed clean-suite run
#   persistgraph  romver build (ROMULUS_PERSISTGRAPH=ON) + full ctest
#             (including the seeded protocol-mutation fixtures), then the
#             romver CLI end to end: clean runs over all five engines at
#             the default 8 KB transaction and at 64 B (which RomulusNL/Log
#             commit through the stripe fast path's group apply), both
#             mutations under --expect-violations, and elide-fence on the
#             64 B group apply; reports land in
#             build/check/persistgraph/romver-reports/.  Also runs romfuzz
#             with the planted protocol mutations, which must produce a
#             replayable repro bundle.
#   fuzz      romfuzz leg (docs/romfuzz.md): seeded randomized histories
#             over all five engines x {1,4} shards, every enumerated crash
#             image recovered and model-checked, plus fork-and-crash
#             episodes, then the same with the stripe fast path pinned on
#             and with values up to 2 KB (streamed payloads), then a
#             sigkill pass (children SIGKILLed after a drawn store).  Fixed
#             seeds and bounded budgets keep it deterministic and fast; nightly
#             runs raise the budget via ROMFUZZ_ITERS / ROMFUZZ_CRASHES.
#             Repro bundles from any failure land in
#             build/check/fuzz/romfuzz-bundles*/ (CI uploads them as
#             artifacts).
#
# Each leg uses its own build directory (build/check/<leg>) so the matrix
# never dirties the developer's ./build tree — and everything it writes
# (trees and configure/build logs) stays under build/, which .gitignore
# already covers, instead of littering the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
NPROC=$(nproc 2>/dev/null || echo 4)
CHECK_ROOT="build/check"
LEGS=("$@")
[ ${#LEGS[@]} -eq 0 ] && LEGS=(default werror asan tsan race persistgraph fuzz)

configure_build() { # <dir> <cmake-flags...>
    local dir=$1
    shift
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" \
        > "$dir/configure.log" 2>&1 ||
        { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$NPROC" > "$dir/build.log" 2>&1 ||
        { tail -50 "$dir/build.log"; return 1; }
}

run_leg() {
    local leg=$1 dir="$CHECK_ROOT/$1"
    echo "=== leg: $leg ==="
    case "$leg" in
    default)
        configure_build "$dir"
        (cd "$dir" && ctest --output-on-failure)
        ;;
    werror)
        # Strict compile leg: the whole tree (library, tests, benches,
        # examples) must build warning-free.
        configure_build "$dir" -DROMULUS_WERROR=ON
        ;;
    asan)
        configure_build "$dir" -DROMULUS_SANITIZE=ON
        (cd "$dir" && ctest --output-on-failure)
        ;;
    tsan)
        # TSan reserves most of the address space for its shadow; both the
        # engines' preferred fixed heap bases (0x5X0000000000) and the
        # kernel-chosen MAP_SHARED fallback land outside TSan's app ranges
        # and the runtime aborts ("mmap at bad address").  So the TSan leg
        # covers the volatile synchronisation layer — spinlock, C-RW-WP,
        # read indicators, thread registry, flat combining, Left-Right —
        # which is where the races TSan can find actually live.
        configure_build "$dir" -DROMULUS_TSAN=ON
        TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
            "$dir/tests/romulus_tests" \
            --gtest_filter='SpinLockTest*:ThreadRegistryTest*:ReadIndicatorTest*:CRWWPTest*:FlatCombiningTest*:LeftRightTest*' \
            --gtest_brief=1
        ;;
    race)
        # romrace leg: the happens-before detector the fixed-address heaps
        # keep TSan out of (see tsan leg above).  Runs the whole suite plus
        # the detector-specific cases: the broken-sync fixtures must be
        # detected and the armed clean-suite stress run must stay silent.
        configure_build "$dir" -DROMULUS_RACECHECK=ON
        (cd "$dir" && ctest --output-on-failure)
        ;;
    persistgraph)
        # romver leg: persist-order graph capture + the seeded protocol
        # mutations (docs/romver.md).  The fixtures prove the rules detect
        # the bugs they claim to; the clean CLI run proves the real commit
        # paths satisfy them; the reports are what CI uploads as artifacts.
        configure_build "$dir" -DROMULUS_PERSISTGRAPH=ON
        (cd "$dir" && ctest --output-on-failure)
        local reports="$dir/romver-reports"
        mkdir -p "$reports"
        "$dir/tools/romver" --engine all --budget 2048 \
            --report "$reports/clean.txt"
        "$dir/tools/romver" --engine all --tx-bytes 64 --budget 2048 \
            --report "$reports/clean-64.txt"
        "$dir/tools/romver" --mutate elide-fence --expect-violations \
            --report "$reports/mutate-elide-fence.txt"
        "$dir/tools/romver" --mutate reorder-state --expect-violations \
            --report "$reports/mutate-reorder-state.txt"
        "$dir/tools/romver" --engine log --tx-bytes 64 --mutate elide-fence \
            --expect-violations --report "$reports/mutate-elide-fence-64.txt"
        # The fuzzer must catch the planted protocol bugs too, and emit a
        # replayable repro bundle for each (exit 1 if no violation found).
        "$dir/tools/romfuzz" --engine log --shards 2 --iters 12 --seed 1 \
            --mutate elide-fence --expect-violations \
            --out "$reports/romfuzz-elide-fence"
        "$dir/tools/romfuzz" --engine nl --shards 1 --iters 12 --seed 1 \
            --mutate reorder-state --expect-violations \
            --out "$reports/romfuzz-reorder-state"
        ;;
    fuzz)
        configure_build "$dir"
        local bundles="$dir/romfuzz-bundles"
        mkdir -p "$bundles"
        "$dir/tools/romfuzz" --engine all --shards 1,4 \
            --iters "${ROMFUZZ_ITERS:-24}" --seed "${ROMFUZZ_SEED:-1}" \
            --mode both --fork-crashes "${ROMFUZZ_CRASHES:-3}" \
            --out "$bundles"
        # Second pass with the stripe fast path pinned on and a generous
        # footprint cap, so the randomized histories commit through the
        # speculative path too (§4.11) — crash images of torn fast-path
        # commits must recover all-or-nothing like every other commit.
        ROMULUS_UPDATE_FASTPATH=1 ROMULUS_UPDATE_MAX_LINES=32 \
            "$dir/tools/romfuzz" --engine all --shards 1,4 \
            --iters "${ROMFUZZ_ITERS:-24}" --seed "${ROMFUZZ_SEED:-2}" \
            --mode both --fork-crashes "${ROMFUZZ_CRASHES:-3}" \
            --out "$bundles-fastpath"
        # Third pass with values up to 2 KB: the default draws stay under
        # the 256 B streaming threshold, so only this pass puts payloads
        # whose whole lines stream into main (DESIGN.md §4.6) through the
        # model-checked crash images.
        "$dir/tools/romfuzz" --engine all --shards 1,4 --value-max 2048 \
            --iters "${ROMFUZZ_ITERS:-24}" --seed "${ROMFUZZ_SEED:-3}" \
            --mode both --fork-crashes "${ROMFUZZ_CRASHES:-3}" \
            --out "$bundles-large"
        # Fourth pass: each child is SIGKILLed right after a drawn store,
        # so the crash can land between fences — a real process death at
        # any store boundary, checked by the same oracle.
        "$dir/tools/romfuzz" --engine all --shards 1,4 \
            --iters "${ROMFUZZ_ITERS:-24}" --seed "${ROMFUZZ_SEED:-4}" \
            --mode sigkill --fork-crashes "${ROMFUZZ_CRASHES:-3}" \
            --out "$bundles-sigkill"
        ;;
    *)
        echo "unknown leg: $leg (default|werror|asan|tsan|race|persistgraph|fuzz)" >&2
        return 2
        ;;
    esac
    echo "=== leg: $leg OK ==="
}

for leg in "${LEGS[@]}"; do run_leg "$leg"; done
echo "check.sh: all legs passed (${LEGS[*]})"
