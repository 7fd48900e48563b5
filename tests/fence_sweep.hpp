// Shared every-fence crash-sweep driver: one parameterized, trace-driven
// sweep body replacing the formerly copy-pasted per-scenario sweeps in
// test_commit_path.cpp and test_optimistic_read.cpp.
//
// A sweep takes a recorded TxTrace (generated with setup_ops = 0 so every
// sub-transaction is part of the checked history), counts the fences of a
// crash-free dry run, then for every fence k re-executes the trace on a
// fresh heap with a SimPersistence-backed injector that throws CrashPoint
// at fence k.  After the crash the persisted-lines image is restored, the
// engine's real recovery runs, and the romfuzz model oracle checks
//   * twin-half agreement + allocator liveness (crash_explorer checks),
//   * the recovered KV content equals SOME committed prefix of the trace
//     inside the all-or-nothing window [committed, committed + 1].
//
// The store roots are created before the injector is armed (mirroring how
// FuzzHarness runs setup unrecorded), so the sweep covers every fence of
// the recorded history itself; root-creation crashes are covered by the
// dedicated fork-crash tests.
//
// A sweep client (template hook) can attach per-iteration machinery — the
// optimistic-read sweep uses it to run a concurrent reader that validates
// snapshot consistency against legal_observations().
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/crash_explorer.hpp"
#include "analysis/model_oracle.hpp"
#include "analysis/romfuzz.hpp"
#include "analysis/tx_trace.hpp"
#include "core/engine_globals.hpp"
#include "pmem/sim_persistence.hpp"
#include "pmem/stats.hpp"
#include "test_support.hpp"

namespace romulus::test {

struct CrashPoint {};

/// SimPersistence wrapper that raises CrashPoint at the `crash_at`-th fence
/// — publishing the crash through `crashed` *before* throwing, so a
/// concurrent reader can stop asserting on a heap that is legitimately
/// mid-recovery.
class FenceCrashSim final : public pmem::SimHooks {
  public:
    FenceCrashSim(uint8_t* base, size_t size,
                  pmem::SimPersistence::Options opts)
        : inner_(base, size, opts) {}

    uint64_t crash_at = UINT64_MAX;
    std::atomic<bool>* crashed = nullptr;

    void on_store(const void* a, size_t n) override { inner_.on_store(a, n); }
    void on_pwb(const void* a) override { inner_.on_pwb(a); }
    void on_fence() override {
        inner_.on_fence();
        if (inner_.fence_count() >= crash_at) {
            if (crashed != nullptr)
                crashed->store(true, std::memory_order_release);
            throw CrashPoint{};
        }
    }

    pmem::SimPersistence& model() { return inner_; }

  private:
    pmem::SimPersistence inner_;
};

/// Default sweep client: no per-iteration machinery.
struct NullSweepClient {
    template <typename Facade>
    void begin(Facade&, std::atomic<bool>&) {}
    void end(uint64_t /*fence*/, bool /*did_crash*/) {}
};

struct FenceSweepStats {
    uint64_t fences_total = 0;
    int crashes = 0;
    uint64_t fastpath_commits = 0;  ///< stripe fast-path commits (dry run)
};

template <typename E, typename Client = NullSweepClient>
FenceSweepStats run_trace_fence_sweep(const analysis::TxTrace& trace,
                                      const std::string& path,
                                      pmem::SimPersistence::Options opts,
                                      Client&& client = Client{},
                                      size_t heap_bytes = 12u << 20) {
    using analysis::KvFacade;
    FenceSweepStats stats;
    if (trace.setup_count != 0) {
        ADD_FAILURE() << "fence sweeps need setup_ops = 0: every "
                         "sub-transaction must be part of the prefix-checked "
                         "history";
        return stats;
    }

    auto init_engine = [&] {
        if constexpr (KvFacade<E>::kSharded) {
            E::init(heap_bytes, path, trace.shard_count);
        } else {
            E::init(heap_bytes, path);
        }
    };
    auto apply_all = [&](KvFacade<E>& kv, size_t& done) {
        for (size_t i = 0; i < trace.subtxs.size(); ++i) {
            const analysis::SubTx& st = trace.subtxs[i];
            if (st.is_get()) {
                std::string v;
                kv.get(st.ops[0].key, &v);
            } else {
                kv.apply(st);
            }
            done = i + 1;
        }
    };

    // Dry run: fence count of the crash-free execution.
    std::remove(path.c_str());
    init_engine();
    {
        KvFacade<E> kv(0);
        FenceCrashSim sim(E::region().base(), E::region().size(), opts);
        pmem::set_sim_hooks(&sim);
        size_t done = 0;
        const uint64_t fp0 = pmem::tl_commit_stats().fastpath_commits;
        apply_all(kv, done);
        stats.fastpath_commits = pmem::tl_commit_stats().fastpath_commits - fp0;
        pmem::set_sim_hooks(nullptr);
        stats.fences_total = sim.model().fence_count();
    }
    E::destroy();
    if (stats.fences_total <= 5) {
        ADD_FAILURE() << "trace produced only " << stats.fences_total
                      << " fences";
        return stats;
    }

    const size_t M = trace.episode_count();
    for (uint64_t k = 1; k <= stats.fences_total; ++k) {
        std::remove(path.c_str());
        init_engine();
        std::atomic<bool> crashed{false};
        size_t committed = 0;
        bool did_crash = false;
        // The sim snapshots its restore baseline at construction, so it must
        // be built only after the facade's root-creation transactions — they
        // play the role of FuzzHarness's unrecorded setup.
        KvFacade<E> kv(0);
        FenceCrashSim sim(E::region().base(), E::region().size(), opts);
        sim.crash_at = k;
        sim.crashed = &crashed;
        {
            client.begin(kv, crashed);
            pmem::set_sim_hooks(&sim);
            try {
                apply_all(kv, committed);
            } catch (const CrashPoint&) {
                did_crash = true;
            }
            pmem::set_sim_hooks(nullptr);
            // The "dead" writer may have left its lock held mid-commit;
            // rebuild the volatile kit so a blocked reader gets out before
            // the client joins it.
            if (did_crash) E::crash_reset_for_tests();
            client.end(k, did_crash);
        }

        if (did_crash) {
            ++stats.crashes;
            // Drop every line that never reached its durability point, then
            // run the engine's real recovery over the surviving image.
            sim.model().crash_restore();
        }
        E::close();
        if (did_crash) E::crash_reset_for_tests();
        init_engine();

        if (analysis::RecoveryCheck rc = analysis::check_twin_halves<E>();
            !rc.ok) {
            ADD_FAILURE() << "fence " << k << ": " << rc.detail;
        }
        {
            KvFacade<E> kv(0, /*create=*/false);
            std::vector<analysis::ShardImage> recovered;
            std::string why;
            if (!analysis::dump_recovered<E>(kv, recovered, why)) {
                ADD_FAILURE() << "fence " << k << ": " << why;
            } else {
                // Fully-applied sub-transactions are durable; the in-flight
                // one may have reached its durability point before the
                // crash.  A crash-free run must recover the full history.
                const size_t min_p = did_crash ? committed : M;
                const size_t max_p =
                    did_crash ? std::min(committed + 1, M) : M;
                analysis::PrefixCheckResult pr =
                    analysis::check_prefix_consistent(trace, recovered, min_p,
                                                      max_p);
                EXPECT_TRUE(pr.ok) << "fence " << k << ": " << pr.detail;
            }
        }
        if (analysis::RecoveryCheck rc = analysis::probe_allocator<E>();
            !rc.ok) {
            ADD_FAILURE() << "fence " << k << ": " << rc.detail;
        }
        E::destroy();
        if (::testing::Test::HasFatalFailure()) return stats;
    }
    EXPECT_GT(stats.crashes, 0);
    return stats;
}

/// Fast-path-armed sweep: pins the stripe-locked speculative update path on,
/// runs the normal every-fence sweep, and asserts the dry run actually
/// committed through the stripe path — otherwise a sweep advertised as
/// covering fast-path commit fences would silently cover only the slow path.  Crash injection inside
/// the group apply exercises the claim that torn fast-path commits recover
/// through the unchanged twin-state machinery (DESIGN.md §4.11).
template <typename E, typename Client = NullSweepClient>
FenceSweepStats run_trace_fence_sweep_fastpath(
    const analysis::TxTrace& trace, const std::string& path,
    pmem::SimPersistence::Options opts, Client&& client = Client{},
    size_t heap_bytes = 12u << 20) {
    UpdateConfigGuard guard;
    update_config().fastpath = true;
    FenceSweepStats stats = run_trace_fence_sweep<E>(
        trace, path, opts, std::forward<Client>(client), heap_bytes);
    EXPECT_GT(stats.fastpath_commits, 0u)
        << "trace never commits through the speculative fast path";
    return stats;
}

}  // namespace romulus::test
