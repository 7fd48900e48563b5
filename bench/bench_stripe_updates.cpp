// Stripe-locked speculative update fast path A/B (DESIGN.md §4.11,
// EXPERIMENTS.md E18): small update transactions, fast path on vs off.
//
//   * disjoint sweep — each thread increments counters on thread-private
//     cache lines, the workload the speculation is built for: commits take
//     only that line's stripe, so N threads commit durably in parallel
//     without ever serializing on the shard writer lock.
//   * conflict sweep — every thread hammers the same line: speculation
//     aborts at acquire time and falls back, so this bounds the tax the
//     fast-path attempt adds to workloads it cannot help.
//
// Each row also reports the mean write sets per durable apply window: the
// Romulus fast path group-commits concurrent announcers (§4.11), so above
// 1.0 several commits shared one MUT/CPY/IDL window.
//
// Engines: RomulusNL and RomulusLog run both modes.  The baselines have one
// commit path each and run only that row, as the paper's reference points:
// UndoLog* its mutex-serialized commit ("slow"), RedoLog* its TL2 commit
// ("fp"; its fp-commit column stays 0, as the baselines never count
// Romulus fast-path commits).  RomulusLR is excluded: its updateTx runs
// remote via flat combining and has no speculative path (§4.11).
//
// Set ROMULUS_BENCH_JSON=<file> to emit BENCH_stripe.json for the CI smoke
// job (scripts/bench_trajectory.py gates the stripe schema).
#include <cinttypes>
#include <cstdio>

#include "bench_common.hpp"
#include "core/engine_globals.hpp"

namespace romulus::bench {
namespace {

constexpr size_t kSlotStride = 8;  // uint64_t's per 64-byte line
constexpr int kMaxThreads = 64;

struct UpdateRates {
    double tx_per_sec = 0;
    uint64_t fp_commits = 0;
    uint64_t fp_fallbacks = 0;
    uint64_t fp_windows = 0;  ///< group-apply windows (fastpath_batches)
    uint64_t fp_sets = 0;     ///< write sets they carried (fastpath_batched)
    /// Mean write sets per durable apply window (0 when none ran).
    double sets_per_window() const {
        return fp_windows == 0 ? 0.0 : double(fp_sets) / double(fp_windows);
    }
};

/// run_throughput plus per-thread CommitStats fast-path deltas (the
/// counters are thread-local, so they must be harvested on each worker).
template <typename OpFn>
UpdateRates run_update_throughput(int nthreads, int ms, OpFn&& op) {
    std::atomic<bool> start{false}, stop{false};
    std::atomic<uint64_t> total{0}, commits{0}, fallbacks{0}, windows{0},
        sets{0};
    std::vector<std::thread> ts;
    ts.reserve(nthreads);
    for (int t = 0; t < nthreads; ++t) {
        ts.emplace_back([&, t] {
            const auto& cs = pmem::tl_commit_stats();
            const uint64_t c0 = cs.fastpath_commits;
            const uint64_t f0 = cs.fastpath_fallbacks;
            const uint64_t w0 = cs.fastpath_batches;
            const uint64_t s0 = cs.fastpath_batched;
            while (!start.load(std::memory_order_acquire))
                std::this_thread::yield();
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                op(t);
                ++n;
            }
            total.fetch_add(n);
            commits.fetch_add(cs.fastpath_commits - c0);
            fallbacks.fetch_add(cs.fastpath_fallbacks - f0);
            windows.fetch_add(cs.fastpath_batches - w0);
            sets.fetch_add(cs.fastpath_batched - s0);
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    start.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : ts) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return {static_cast<double>(total.load()) / secs, commits.load(),
            fallbacks.load(), windows.load(), sets.load()};
}

/// One measured point: nthreads small update transactions, fast path
/// per `fastpath`, each op touching its thread's private line (disjoint)
/// or line 0 (conflict).
template <typename E>
UpdateRates run_updates(int nthreads, bool fastpath, bool disjoint) {
    Session<E> session(64u << 20, "stripe");
    using PU = typename E::template p<uint64_t>;
    PU* slots = nullptr;
    E::updateTx([&] {
        slots = static_cast<PU*>(E::alloc_bytes(kMaxThreads * 64));
        for (int i = 0; i < kMaxThreads; ++i) slots[i * kSlotStride] = 0u;
        E::put_object(0, slots);
    });

    UpdateConfig saved = update_config();
    update_config().fastpath = fastpath;
    UpdateRates r = run_update_throughput(nthreads, bench_ms(), [&](int t) {
        const size_t slot = disjoint ? size_t(t) * kSlotStride : 0;
        E::updateTx(
            [&] { slots[slot] = slots[slot].pload() + 1; });
    });
    update_config() = saved;
    return r;
}

/// Whether engine E runs the sweep's `fastpath` mode (see the header).
template <typename E>
constexpr bool runs_mode(bool fastpath) {
    if constexpr (std::is_same_v<E, baselines::UndoLogPTM>) return !fastpath;
    if constexpr (std::is_same_v<E, baselines::RedoLogPTM>) return fastpath;
    return true;
}

}  // namespace
}  // namespace romulus::bench

int main() {
    using namespace romulus;
    using namespace romulus::bench;
    pmem::set_profile(pmem::Profile::CLFLUSH);
    const auto threads = bench_threads();

    auto json = JsonEmitter::from_env("stripe");
    json.scalar("profile", pmem::profile_name(pmem::effective_profile()));
    json.scalar("ms", double(bench_ms()), "%.0f");

    auto sweep = [&](const char* name, bool disjoint) {
        print_header(name);
        std::printf("%-6s %8s %-5s %10s %12s %12s %7s %8s\n", "PTM",
                    "threads", "mode", "tx/s", "fp commits", "fp fallback",
                    "sets/win", "speedup");
        json.begin_array(disjoint ? "disjoint" : "conflict");
        for_each_ptm([&]<typename E>() {
            if constexpr (std::is_same_v<E, RomulusLR>) return;
            for (int nt : threads) {
                double slow_rate = 0;
                for (bool fastpath : {false, true}) {
                    if (!runs_mode<E>(fastpath)) continue;
                    UpdateRates r = run_updates<E>(nt, fastpath, disjoint);
                    const char* mode = fastpath ? "fp" : "slow";
                    const double speedup =
                        fastpath && slow_rate > 0 ? r.tx_per_sec / slow_rate
                                                  : 1.0;
                    if (!fastpath) slow_rate = r.tx_per_sec;
                    std::printf("%-6s %8d %-5s %10.0f %12" PRIu64
                                " %12" PRIu64 " %7.2f %7.2fx\n",
                                short_name<E>(), nt, mode, r.tx_per_sec,
                                r.fp_commits, r.fp_fallbacks,
                                r.sets_per_window(), speedup);
                    json.record(JsonEmitter::fields(
                        {JsonEmitter::str("engine", short_name<E>()),
                         JsonEmitter::num("threads", uint64_t(nt)),
                         JsonEmitter::str("mode", mode),
                         JsonEmitter::num("tx_per_sec", r.tx_per_sec, "%.0f"),
                         JsonEmitter::num("fp_commits", r.fp_commits),
                         JsonEmitter::num("fp_fallbacks", r.fp_fallbacks),
                         JsonEmitter::num("fp_sets_per_window",
                                          r.sets_per_window(), "%.3f")}));
                }
            }
        });
    };
    sweep("Disjoint small updates (thread-private lines): fp vs slow",
          /*disjoint=*/true);
    sweep("Conflicting small updates (one shared line): fp tax bound",
          /*disjoint=*/false);
    return 0;
}
