// Commit-path A/B (DESIGN.md §4.6): the same sequential-write transaction
// driven through the commit pipeline with its streaming paths off and on,
// selected at runtime via pmem::commit_config().nt_threshold —
//
//   coalesce     merged-run flush + merged-run cached replication
//                (nt_threshold = SIZE_MAX: every store cached),
//   coalesce+nt  merged-run flush + non-temporal streaming replication
//                (the default configuration).
//
// Reported per footprint and mode: pwbs/tx, commit latency, merged runs/tx
// and the NT vs cached replica-byte split, under CLWB (degrading to
// CLFLUSHOPT/CLFLUSH on older CPUs).  A second section microbenchmarks
// pmem::persist_copy() directly (cached vs streaming) at copy sizes from one
// page to several MB — the full-copy/recovery path of RomulusNL.  A third
// repeats the transaction sweep under CLFLUSH, the profile RomulusDB runs
// under: there coalesce+nt writes back and replicates every logged line as
// an NT line image (pmem::persist_lines), coalesce pays a CLFLUSH per line.
//
// Set ROMULUS_BENCH_JSON=<file> to also emit the numbers as JSON (CI smoke
// run uploads this as an artifact).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

struct Mode {
    const char* name;
    size_t nt_threshold;
};

constexpr Mode kModes[] = {
    {"coalesce", SIZE_MAX},
    {"coalesce+nt", 4 * pmem::kCacheLineSize},
};

struct TxResult {
    size_t footprint;
    const char* mode;
    double pwbs_per_tx;
    double ns_per_tx;
    double runs_per_tx;
    double nt_frac;  ///< fraction of replica bytes streamed
};

struct CopyResult {
    size_t bytes;
    const char* path;
    double gib_s;
};

/// One timed cell: sequential 8-byte stores over `footprint` bytes per
/// transaction, commit pipeline per `mode`.
TxResult measure_tx(size_t footprint, const Mode& mode) {
    using E = RomulusLog;
    using PU = E::p<uint64_t>;
    Session<E> session(256u << 20, "cpath");
    const size_t words = footprint / sizeof(uint64_t);
    PU* arr = nullptr;
    E::updateTx([&] {
        // Ballast keeps used_size/2 above the footprint so the range log
        // never degrades to full-copy mode: this bench isolates the
        // log-consuming commit pipeline.
        (void)E::alloc_bytes(4 * footprint + (64u << 10));
        arr = static_cast<PU*>(E::alloc_bytes(footprint));
        for (size_t i = 0; i < words; ++i) arr[i] = 0u;
    });

    pmem::commit_config().nt_threshold = mode.nt_threshold;

    auto run_tx = [&](uint64_t seed) {
        E::updateTx([&] {
            for (size_t i = 0; i < words; ++i) arr[i] = seed + i;
        });
    };
    run_tx(1);  // warm-up under the selected pipeline

    pmem::reset_tl_stats();
    pmem::reset_tl_commit_stats();
    const double budget_ms = bench_ms() / 4.0;
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t txs = 0;
    double elapsed_ns = 0;
    do {
        run_tx(txs);
        ++txs;
        elapsed_ns = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    } while (txs < 32 || elapsed_ns < budget_ms * 1e6);

    const auto& st = pmem::tl_stats();
    const auto& cs = pmem::tl_commit_stats();
    const double repl = double(cs.nt_bytes + cs.cached_bytes);
    return {footprint,
            mode.name,
            double(st.pwb) / double(txs),
            elapsed_ns / double(txs),
            cs.commits ? double(cs.runs) / double(cs.commits) : 0.0,
            repl > 0 ? double(cs.nt_bytes) / repl : 0.0};
}

void tx_sweep(std::vector<TxResult>& out) {
    std::printf("\n-- RomulusLog sequential-write tx: pwbs + latency by "
                "pipeline (%s) --\n",
                pmem::profile_name(pmem::effective_profile()));
    std::printf("  %-9s %-12s %12s %12s %9s %8s\n", "footprint", "mode",
                "pwbs/tx", "ns/tx", "runs/tx", "nt%");
    for (size_t footprint : {256u, 1024u, 8192u, 65536u}) {
        for (const Mode& mode : kModes) {
            TxResult r = measure_tx(footprint, mode);
            std::printf("  %-9zu %-12s %12.1f %12.0f %9.1f %7.0f%%\n",
                        r.footprint, r.mode, r.pwbs_per_tx, r.ns_per_tx,
                        r.runs_per_tx, r.nt_frac * 100.0);
            out.push_back(r);
        }
    }
}

/// persist_copy directly: the replication/recovery substrate, cached
/// (below-threshold) vs streaming (above-threshold) at each size.
void copy_sweep(std::vector<CopyResult>& out) {
    std::printf("\n-- persist_copy: cached vs non-temporal streaming --\n");
    std::printf("  %-10s %14s %14s\n", "bytes", "cached GiB/s", "nt GiB/s");
    const size_t kMax = 4u << 20;
    std::vector<uint8_t> src(kMax, 0xA5);
    // Heap-backed 64-aligned destination, far larger than any cache.
    std::vector<uint8_t> dst_store(kMax + 64);
    uint8_t* dst = dst_store.data() +
                   (64 - reinterpret_cast<uintptr_t>(dst_store.data()) % 64) % 64;
    for (size_t bytes : {4096u, 65536u, 1048576u, 4194304u}) {
        double rates[2];
        for (int nt = 0; nt < 2; ++nt) {
            pmem::commit_config().nt_threshold = nt ? 1 : SIZE_MAX;
            pmem::persist_copy(dst, src.data(), bytes);  // warm-up
            const double budget_ms = bench_ms() / 8.0;
            const auto t0 = std::chrono::steady_clock::now();
            uint64_t reps = 0;
            double ns = 0;
            do {
                pmem::persist_copy(dst, src.data(), bytes);
                ++reps;
                ns = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
            } while (reps < 8 || ns < budget_ms * 1e6);
            rates[nt] = double(bytes) * double(reps) / ns * 1e9 /
                        (1024.0 * 1024.0 * 1024.0);
            out.push_back({bytes, nt ? "nt" : "cached", rates[nt]});
        }
        std::printf("  %-10zu %14.2f %14.2f\n", bytes, rates[0], rates[1]);
    }
    pmem::commit_config() = pmem::CommitConfig{};
}

void write_json(const std::vector<TxResult>& tx,
                const std::vector<TxResult>& tx_clflush,
                const std::vector<CopyResult>& copy) {
    auto json = JsonEmitter::from_env("commit_path");
    json.scalar("profile", pmem::profile_name(pmem::effective_profile()));
    auto sweep = [&](const char* name, const std::vector<TxResult>& rs) {
        json.begin_array(name);
        for (const auto& r : rs) {
            json.record(JsonEmitter::fields(
                {JsonEmitter::num("footprint", uint64_t{r.footprint}),
                 JsonEmitter::str("mode", r.mode),
                 JsonEmitter::num("pwbs_per_tx", r.pwbs_per_tx, "%.2f"),
                 JsonEmitter::num("ns_per_tx", r.ns_per_tx, "%.0f"),
                 JsonEmitter::num("runs_per_tx", r.runs_per_tx, "%.2f"),
                 JsonEmitter::num("nt_frac", r.nt_frac, "%.3f")}));
        }
    };
    sweep("tx_sweep", tx);
    sweep("tx_sweep_clflush", tx_clflush);
    json.begin_array("persist_copy");
    for (const auto& r : copy) {
        json.record(JsonEmitter::fields(
            {JsonEmitter::num("bytes", uint64_t{r.bytes}),
             JsonEmitter::str("path", r.path),
             JsonEmitter::num("gib_s", r.gib_s, "%.3f")}));
    }
}

}  // namespace

int main() {
    pmem::set_profile(pmem::Profile::CLWB);  // degrades to clflushopt/clflush
    // This bench isolates the slow-path commit pipeline (cached / NT
    // modes); the small footprints would otherwise commit through the
    // §4.11 stripe fast path and measure its group apply instead.
    romulus::update_config().fastpath = false;
    print_header("Commit-path pipelines: coalesced runs + streaming replication");
    std::printf("flush profile: %s\n",
                pmem::profile_name(pmem::effective_profile()));

    std::vector<TxResult> tx;
    std::vector<CopyResult> copy;
    tx_sweep(tx);
    copy_sweep(copy);

    std::vector<TxResult> tx_clflush;
    pmem::set_profile(pmem::Profile::CLFLUSH);
    tx_sweep(tx_clflush);
    pmem::set_profile(pmem::Profile::CLWB);  // the header's profile

    write_json(tx, tx_clflush, copy);
    return 0;
}
