// E5 — Figure 7: read-dominated workloads on a 1,000-entry hash map.
// Left graph: 2 concurrent writer threads + a sweep of reader threads,
// reporting read TX/s and write TX/s separately.  Right graph: readers only.
//
// Paper shapes to check: RomulusLR's wait-free readers scale and are never
// blocked by the writers; the unfair reader-preference lock of the PMDK
// setup starves its writers as readers grow ("prevents writers from running
// with 16 concurrent reader threads or more"); read-only throughput of all
// Romulus variants is orders of magnitude above the baselines.
//
// Third section: the seqlock optimistic read path A/B — a 90/10 read-mostly
// mix on one shard, RomulusNL and RomulusLog measured with the fast path on
// and force-pessimistic, and UndoLog* as the paper's PMDK reference row
// ("pess" only: its readTx is the shared mutex the paper measured).  Emitted
// as the BENCH_readers.json artifact for the trajectory check
// (scripts/bench_trajectory.py).
#include <atomic>
#include <cstdio>

#include "bench_common.hpp"
#include "ds/hash_map.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

constexpr uint64_t kKeys = 1000;

struct Rates {
    double reads;
    double writes;
};

template <typename E>
Rates run_mixed(int nreaders, int nwriters) {
    Session<E> session(96u << 20, "fig7");
    using Map = ds::HashMap<E, uint64_t>;
    Map* map = nullptr;
    E::updateTx([&] { map = E::template tmNew<Map>(512); });
    prepopulate<E>(kKeys, [&](uint64_t i) { map->add(i); });

    std::atomic<bool> start{false}, stop{false};
    std::atomic<uint64_t> reads{0}, writes{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < nreaders; ++t) {
        ts.emplace_back([&, t] {
            std::mt19937_64 rng(100 + t);
            while (!start.load()) std::this_thread::yield();
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                (void)map->contains(rng() % kKeys);
                ++n;
            }
            reads.fetch_add(n);
        });
    }
    for (int t = 0; t < nwriters; ++t) {
        ts.emplace_back([&, t] {
            std::mt19937_64 rng(900 + t);
            while (!start.load()) std::this_thread::yield();
            uint64_t n = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t k = rng() % kKeys;
                map->remove(k);
                map->add(k);
                ++n;
            }
            writes.fetch_add(n);
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    start.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(bench_ms()));
    stop.store(true);
    for (auto& t : ts) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    E::updateTx([&] { E::tmDelete(map); });
    return {reads.load() / secs, writes.load() / secs};
}

struct ABRates {
    double reads;
    double writes;
    double opt_share;  ///< optimistic commits / read transactions
};

/// 90/10 read-mostly mix, every thread issuing both kinds of operation, on
/// the default single shard — the shape where the pessimistic reader lock
/// pays writer-occupancy on every read and the seqlock path pays nothing.
template <typename E>
ABRates run_read_mostly(int nthreads, bool optimistic) {
    Session<E> session(96u << 20, "fig7ab");
    using Map = ds::HashMap<E, uint64_t>;
    Map* map = nullptr;
    E::updateTx([&] { map = E::template tmNew<Map>(512); });
    prepopulate<E>(kKeys, [&](uint64_t i) { map->add(i); });

    read_config().optimistic = optimistic;
    std::atomic<bool> start{false}, stop{false};
    std::atomic<uint64_t> reads{0}, writes{0}, opt{0};
    std::vector<std::thread> ts;
    for (int t = 0; t < nthreads; ++t) {
        ts.emplace_back([&, t] {
            std::mt19937_64 rng(7 + t);
            reset_tl_read_stats();
            while (!start.load()) std::this_thread::yield();
            uint64_t r = 0, w = 0;
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t k = rng() % kKeys;
                if (rng() % 10 == 0) {
                    map->remove(k);
                    map->add(k);
                    ++w;
                } else {
                    (void)map->contains(k);
                    ++r;
                }
            }
            reads.fetch_add(r);
            writes.fetch_add(w);
            opt.fetch_add(tl_read_stats().opt_commits);
        });
    }
    const auto t0 = std::chrono::steady_clock::now();
    start.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(bench_ms()));
    stop.store(true);
    for (auto& t : ts) t.join();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    E::updateTx([&] { E::tmDelete(map); });
    read_config().optimistic = true;
    const uint64_t nr = reads.load();
    return {nr / secs, writes.load() / secs,
            nr == 0 ? 0.0 : double(opt.load()) / double(nr)};
}

/// The engines in the A/B: the two with a seqlock fast path (RomulusLR's
/// readers are wait-free without it; the redo-log baseline's reads are
/// natively optimistic), plus the undo-log baseline as the lock reference.
template <typename F>
void for_each_ab_ptm(F&& f) {
    f.template operator()<RomulusNL>();
    f.template operator()<RomulusLog>();
    f.template operator()<baselines::UndoLogPTM>();
}

/// The baselines keep the paper's comparators' read path: the undo log
/// runs only as "pess" (its shared-mutex readTx).
template <typename E>
constexpr bool has_seqlock() {
    return !std::is_same_v<E, baselines::UndoLogPTM>;
}

/// Single-threaded uncontended readTx latency: a one-word read transaction,
/// which prices exactly what the fast path removes — ReadIndicator arrival /
/// departure and writer checks vs one seq snapshot and one validate.
template <typename E>
double run_read_latency(bool optimistic) {
    Session<E> session(64u << 20, "fig7lat");
    using PU = typename E::template p<uint64_t>;
    PU* cell = nullptr;
    E::updateTx([&] {
        cell = E::template tmNew<PU>();
        *cell = 7;
    });
    read_config().optimistic = optimistic;
    constexpr int kReads = 2'000'000;
    uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kReads; ++i) {
        uint64_t v = 0;
        E::readTx([&] { v = cell->pload(); });
        sink += v;
    }
    const double ns =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() *
        1e9 / kReads;
    read_config().optimistic = true;
    if (sink != uint64_t(kReads) * 7) std::abort();
    return ns;
}

struct OverlapResult {
    uint64_t reads;    ///< read transactions committed during the burst
    double busy_secs;  ///< wall-clock of the back-to-back writer txs
};

/// The headline property of the seqlock path: the writer closes its window
/// right after the CPY psync, *before* replicating main to back, so
/// optimistic readers overlap the whole back-replication phase — the
/// dominant cost of a large RomulusNL/RomulusLog commit.  A pessimistic
/// reader sits on the C-RW-WP lock until the writer's unlock instead.
///
/// Measures read transactions completed during a burst of back-to-back 8 MB
/// writer transactions.  A burst rather than one tx: on a single-CPU box one
/// ~13 ms CPU-bound tx often fits inside a single scheduler quantum, so
/// whether the reader runs at all during it is a coin flip.  Several
/// consecutive txs (~100 ms busy) guarantee the reader its fair share of
/// slices; a pessimistic reader can still only slip reads into the
/// microsecond gaps between txs, so the contrast survives.
template <typename E>
OverlapResult run_overlap(bool optimistic) {
    Session<E> session(96u << 20, "fig7ov");
    using PU = typename E::template p<uint64_t>;
    constexpr size_t kBlob = 8u << 20;
    constexpr int kTxs = 8;
    PU* cell = nullptr;
    uint8_t* blob = nullptr;
    E::updateTx([&] {
        cell = E::template tmNew<PU>();
        *cell = 1;
        blob = static_cast<uint8_t*>(E::alloc_bytes(kBlob));
        E::zero_range(blob, kBlob);
    });

    const ReadConfig saved = read_config();
    read_config().optimistic = optimistic;
    // Odd windows are waited out anyway; also keep retrying invalidated runs
    // instead of parking on the reader lock — a parked reader would sleep
    // through the very overlap window this measures.
    read_config().max_attempts = 1u << 20;

    // The reader free-runs from spawn and the burst window is carved out of
    // its counter by snapshot subtraction.  (An earlier version parked the
    // reader on a start flag in a yield loop; on one CPU that phase-locks it
    // behind the writer and whole bursts could pass without the reader ever
    // being scheduled.)
    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::thread reader([&] {
        while (!done.load(std::memory_order_relaxed)) {
            uint64_t v = 0;
            E::readTx([&] { v = cell->pload(); });
            reads.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<uint8_t> pat(kBlob, 0x5A);
    const uint64_t before = reads.load();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTxs; ++i) {
        E::updateTx([&] {
            E::store_range(blob, pat.data(), kBlob);
            *cell = uint64_t(i) + 2;
        });
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const uint64_t during = reads.load() - before;
    done.store(true, std::memory_order_release);
    reader.join();
    read_config() = saved;
    return {during, secs};
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::CLFLUSH);
    const auto threads = bench_threads();

    print_header("Figure 7 (left): N readers + 2 concurrent writers");
    std::printf("%-6s %8s", "PTM", "readers");
    std::printf(" %10s %10s\n", "read TX/s", "write TX/s");
    for_each_ptm([&]<typename E>() {
        for (int nr : threads) {
            Rates r = run_mixed<E>(nr, 2);
            std::printf("%-6s %8d %s %s\n", short_name<E>(), nr,
                        fmt_rate(r.reads).c_str(), fmt_rate(r.writes).c_str());
        }
    });

    print_header("Figure 7 (right): readers only, no writer");
    std::printf("%-6s %8s %10s\n", "PTM", "readers", "read TX/s");
    for_each_ptm([&]<typename E>() {
        for (int nr : threads) {
            Rates r = run_mixed<E>(nr, 0);
            std::printf("%-6s %8d %s\n", short_name<E>(), nr,
                        fmt_rate(r.reads).c_str());
        }
    });

    print_header(
        "Optimistic A/B: 90/10 read-mostly mix, 1 shard "
        "(seqlock fast path vs force-pessimistic)");
    auto json = JsonEmitter::from_env("readers");
    json.scalar("profile", pmem::profile_name(pmem::effective_profile()));
    json.scalar("ms", double(bench_ms()), "%.0f");
    std::printf("%-6s %8s %-6s %10s %10s %9s\n", "PTM", "threads", "mode",
                "read TX/s", "write TX/s", "opt share");
    json.begin_array("ab");
    for_each_ab_ptm([&]<typename E>() {
        for (int nt : threads) {
            for (bool optimistic : {true, false}) {
                if (optimistic && !has_seqlock<E>()) continue;
                ABRates r = run_read_mostly<E>(nt, optimistic);
                const char* mode = optimistic ? "opt" : "pess";
                std::printf("%-6s %8d %-6s %s %s %8.2f%%\n", short_name<E>(),
                            nt, mode, fmt_rate(r.reads).c_str(),
                            fmt_rate(r.writes).c_str(), 100.0 * r.opt_share);
                json.record(JsonEmitter::fields(
                    {JsonEmitter::str("engine", short_name<E>()),
                     JsonEmitter::num("threads", uint64_t(nt)),
                     JsonEmitter::str("mode", mode),
                     JsonEmitter::num("read_tx_per_sec", r.reads, "%.0f"),
                     JsonEmitter::num("write_tx_per_sec", r.writes, "%.0f"),
                     JsonEmitter::num("opt_share", r.opt_share, "%.3f")}));
            }
        }
    });

    print_header(
        "Uncontended readTx latency: one-word read transaction, 1 thread "
        "(the per-read tax the fast path removes)");
    std::printf("%-6s %-6s %12s\n", "PTM", "mode", "ns/readTx");
    json.begin_array("latency");
    for_each_ab_ptm([&]<typename E>() {
        double opt_ns = 0, pess_ns = 0;
        for (bool optimistic : {true, false}) {
            if (optimistic && !has_seqlock<E>()) continue;
            const double ns = run_read_latency<E>(optimistic);
            (optimistic ? opt_ns : pess_ns) = ns;
            std::printf("%-6s %-6s %12.1f\n", short_name<E>(),
                        optimistic ? "opt" : "pess", ns);
            json.record(JsonEmitter::fields(
                {JsonEmitter::str("engine", short_name<E>()),
                 JsonEmitter::str("mode", optimistic ? "opt" : "pess"),
                 JsonEmitter::num("ns_per_read", ns, "%.1f")}));
        }
        if (has_seqlock<E>())
            std::printf("%-6s ratio  %11.2fx\n", short_name<E>(),
                        pess_ns / (opt_ns > 0 ? opt_ns : 1));
    });

    print_header(
        "Back-replication overlap: reads committed during a burst of 8 MB "
        "writer txs (the window the pessimistic lock spends blocked)");
    std::printf("%-6s %-6s %14s %10s %12s\n", "PTM", "mode", "overlap reads",
                "busy ms", "reads/s busy");
    json.begin_array("overlap");
    auto overlap_for = [&]<typename E>() {
        uint64_t opt_reads = 0, pess_reads = 0;
        for (bool optimistic : {true, false}) {
            OverlapResult r = run_overlap<E>(optimistic);
            (optimistic ? opt_reads : pess_reads) = r.reads;
            std::printf("%-6s %-6s %14llu %10.2f %s\n", short_name<E>(),
                        optimistic ? "opt" : "pess",
                        static_cast<unsigned long long>(r.reads),
                        r.busy_secs * 1e3,
                        fmt_rate(double(r.reads) / r.busy_secs).c_str());
            json.record(JsonEmitter::fields(
                {JsonEmitter::str("engine", short_name<E>()),
                 JsonEmitter::str("mode", optimistic ? "opt" : "pess"),
                 JsonEmitter::num("overlap_reads", r.reads),
                 JsonEmitter::num("busy_ms", r.busy_secs * 1e3, "%.2f")}));
        }
        std::printf("%-6s ratio  %14.1fx\n", short_name<E>(),
                    double(opt_reads) / double(pess_reads ? pess_reads : 1));
    };
    overlap_for.template operator()<RomulusNL>();
    overlap_for.template operator()<RomulusLog>();
    return 0;
}
