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
#             commit through the stripe fast path's group apply), each in
#             the NT line-image order and again in the cached order
#             (ROMULUS_NT_THRESHOLD=SIZE_MAX), the three mutations under
#             --expect-violations, and elide-fence and elide-nt-drain on
#             the 64 B group apply; reports land in
#             build/check/persistgraph/romver-reports/.  Also runs romfuzz
#             with the planted protocol mutations, which must produce a
#             replayable repro bundle.
#   fuzz      romfuzz leg (docs/romfuzz.md): seeded randomized histories
#             over all five engines x {1,4} shards, every enumerated crash
#             image recovered and model-checked, plus fork-and-crash
#             episodes, then the same with the stripe fast path pinned on
#             and with values up to 2 KB (streamed payloads), then a
#             sigkill pass (children SIGKILLed after a drawn store), then
#             RomulusNL/Log with every value 8 KB (an in-place overwrite too
#             large for the fast path's write set is dropped, and its
#             speculation ends at its next load).  Fixed seeds and bounded
#             budgets keep it deterministic and fast; nightly runs raise
#             the budget via ROMFUZZ_ITERS / ROMFUZZ_CRASHES.
#             Repro bundles from any failure land in
#             build/check/fuzz/romfuzz-bundles*/ (CI uploads them as
#             artifacts).
#   counts    deterministic count gate: the count.* lines of
#             `bench/romdb/run.py --counts` and bench_table1_fences' table
#             must match bench/trajectory/romdb_counts.txt and
#             bench/trajectory/table1_fences.txt byte for byte.  A change
#             that moves a count updates the file.
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
[ ${#LEGS[@]} -eq 0 ] && LEGS=(default werror asan tsan race persistgraph fuzz counts)

configure_build() { # <dir> <cmake-flags...>; $BUILD_TARGET: build only it
    local dir=$1
    shift
    mkdir -p "$dir"
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@" \
        > "$dir/configure.log" 2>&1 ||
        { cat "$dir/configure.log"; return 1; }
    cmake --build "$dir" -j "$NPROC" ${BUILD_TARGET:+--target "$BUILD_TARGET"} \
        > "$dir/build.log" 2>&1 ||
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
        # The same clean passes in the cached order: with nt_threshold =
        # SIZE_MAX no commit streams line images, so every line is a cached
        # store + pwb ordered by the pfences.
        ROMULUS_NT_THRESHOLD=18446744073709551615 \
            "$dir/tools/romver" --engine all --budget 2048 \
            --report "$reports/clean-cached.txt"
        ROMULUS_NT_THRESHOLD=18446744073709551615 \
            "$dir/tools/romver" --engine all --tx-bytes 64 --budget 2048 \
            --report "$reports/clean-cached-64.txt"
        "$dir/tools/romver" --mutate elide-fence --expect-violations \
            --report "$reports/mutate-elide-fence.txt"
        "$dir/tools/romver" --mutate reorder-state --expect-violations \
            --report "$reports/mutate-reorder-state.txt"
        "$dir/tools/romver" --engine log --tx-bytes 64 --mutate elide-fence \
            --expect-violations --report "$reports/mutate-elide-fence-64.txt"
        # An elided NT drain on both commit paths: the slow path at 8 KB
        # and the fast path's group apply at 64 B (RomulusLR, which has no
        # fast path, commits 64 B on the slow path too).
        "$dir/tools/romver" --mutate elide-nt-drain --expect-violations \
            --report "$reports/mutate-elide-nt-drain.txt"
        "$dir/tools/romver" --tx-bytes 64 --mutate elide-nt-drain \
            --expect-violations --report "$reports/mutate-elide-nt-drain-64.txt"
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
        # Second pass with the stripe fast path pinned on, so the randomized
        # histories commit through the speculative path too (§4.11) — crash
        # images of torn fast-path commits must recover all-or-nothing like
        # every other commit.
        ROMULUS_UPDATE_FASTPATH=1 \
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
        # Fifth pass, on the engines with the stripe fast path, with every
        # value 8 KB: a value over 4 KB spans more lines than a
        # speculation's write set holds, so its store is dropped before
        # capturing a line and the run ends at its next load (DESIGN.md
        # §4.11).  KVStore overwrites a value in
        # place only when the new one has the same length, so the length is
        # fixed; drawn from [0, 8192] no history reached that store.  A new
        # key's put ends its speculation at its first allocation (its
        # one-block record is larger than the sandbox).  The redo comparator's
        # fixed-size log rejects transactions this large, so the pass leaves
        # it out.
        for engine in nl log; do
            "$dir/tools/romfuzz" --engine "$engine" --shards 1,4 \
                --value-min 8192 --value-max 8192 \
                --iters "${ROMFUZZ_ITERS:-24}" --seed "${ROMFUZZ_SEED:-5}" \
                --mode both --fork-crashes "${ROMFUZZ_CRASHES:-3}" \
                --out "$bundles-oversized"
        done
        ;;
    counts)
        # Counting instead of timing (the paper's Table 1 method): these
        # numbers do not depend on the host, so they are gated exactly.
        BUILD_TARGET=bench_table1_fences configure_build "$dir"
        CARGO_TARGET_DIR="$dir" python3 bench/romdb/run.py --counts \
            > "$dir/romdb_run.txt"
        grep '\.count\.' "$dir/romdb_run.txt" > "$dir/romdb_counts.txt"
        diff -u bench/trajectory/romdb_counts.txt "$dir/romdb_counts.txt"
        "$dir/bench/bench_table1_fences" > "$dir/table1_fences.txt"
        diff -u bench/trajectory/table1_fences.txt "$dir/table1_fences.txt"
        ;;
    *)
        echo "unknown leg: $leg (default|werror|asan|tsan|race|persistgraph|fuzz|counts)" >&2
        return 2
        ;;
    esac
    echo "=== leg: $leg OK ==="
}

for leg in "${LEGS[@]}"; do run_leg "$leg"; done
echo "check.sh: all legs passed (${LEGS[*]})"
