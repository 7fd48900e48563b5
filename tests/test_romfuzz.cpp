// romfuzz layer 3 (docs/romfuzz.md): tier-1 fuzz smokes and the planted-bug
// detection fixture.
//
//  * Short-budget fuzz smoke on every engine × shard count: a handful of
//    seeded histories, every enumerated crash image recovered and
//    model-checked, zero violations expected — the crash-consistency
//    regression net that runs on every ctest invocation.
//  * Fork-mode smoke: the same oracle across real fork-and-_exit crashes,
//    and sigkill mode: children SIGKILLed right after a drawn store.
//  * Planted bug: arming the elide-commit-fence protocol mutation
//    (-DROMULUS_PERSISTGRAPH builds) must produce an image-oracle violation
//    within a bounded number of histories — and the silent control (same
//    seeds, mutation off) must stay clean.  This is the end-to-end witness
//    that the fuzzer detects a real missing-fence bug, not just that it runs.
#include <gtest/gtest.h>

#include <string>

#include "analysis/romfuzz.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

namespace {

using namespace romulus;
using namespace romulus::analysis;
using romulus::test::heap_path;

/// Small budgets keep one smoke under ~2 s while still exploring ~100
/// crash images per engine config.
FuzzConfig smoke_cfg(const std::string& tag, unsigned shards) {
    FuzzConfig cfg;
    cfg.path = heap_path(tag);
    cfg.shards = shards;
    cfg.gen.setup_ops = 16;
    cfg.gen.episode_ops = 8;
    cfg.gen.key_space = 32;
    cfg.gen.value_max = 96;
    cfg.explore.max_cuts = 48;
    cfg.explore.window_samples = 4;
    cfg.explore.window_exhaustive_cap = 16;
    return cfg;
}

template <typename E>
class RomfuzzSmoke : public ::testing::Test {};
TYPED_TEST_SUITE(RomfuzzSmoke, romulus::test::AllPtms);

TYPED_TEST(RomfuzzSmoke, ExploreHistoriesAreClean) {
    using E = TypeParam;
    for (unsigned shards : {1u, 4u}) {
        if (!KvFacade<E>::kSharded && shards != 1) continue;
        FuzzHarness<E> harness(smoke_cfg("romfuzz_smoke", shards));
        for (uint64_t seed = 1; seed <= 2; ++seed) {
            FuzzResult res = harness.run_one(seed);
            EXPECT_TRUE(res.ok())
                << E::name() << " shards=" << shards << " seed=" << seed
                << ": " << (res.failures.empty() ? "?" : res.failures[0]);
            EXPECT_GT(res.report.cuts_explored, 0u);
            EXPECT_GT(res.get_checks, 0u);
        }
    }
}

TYPED_TEST(RomfuzzSmoke, ForkCrashesRecoverConsistently) {
    using E = TypeParam;
    FuzzHarness<E> harness(smoke_cfg("romfuzz_fork", 2));
    const TxTrace trace = harness.generate(3);
    ForkResult fr = harness.run_fork(trace, /*crashes=*/2, /*rng_seed=*/3);
    EXPECT_TRUE(fr.ok()) << E::name() << ": "
                         << (fr.failures.empty() ? "?" : fr.failures[0]);
    EXPECT_GT(fr.points_total, 0u);
    EXPECT_EQ(fr.crashes, 2u);
}

TYPED_TEST(RomfuzzSmoke, SigkillCrashesRecoverConsistently) {
    using E = TypeParam;
    FuzzHarness<E> harness(smoke_cfg("romfuzz_sigkill", 2));
    const TxTrace trace = harness.generate(5);
    ForkResult fr = harness.run_fork(trace, /*crashes=*/2, /*rng_seed=*/5,
                                     CrashPoint::kStore);
    EXPECT_TRUE(fr.ok()) << E::name() << ": "
                         << (fr.failures.empty() ? "?" : fr.failures[0]);
    EXPECT_GT(fr.points_total, 0u);
    EXPECT_EQ(fr.crashes, 2u);
}

TEST(RomfuzzRepro, ViolatingCutIndexReplaysDeterministically) {
    // Even on a clean engine, re-running the same trace with the same
    // explore options must enumerate the same cuts and produce the same
    // access log — the property --replay relies on to reproduce a bundle.
    using E = RomulusLog;
    FuzzHarness<E> harness(smoke_cfg("romfuzz_det", 2));
    const TxTrace trace = harness.generate(17);
    ExploreOptions opts;
    opts.max_cuts = 32;
    opts.window_samples = 3;
    opts.window_exhaustive_cap = 8;
    opts.seed = 123;
    FuzzResult a = harness.run_trace(trace, opts);
    FuzzResult b = harness.run_trace(trace, opts);
    EXPECT_EQ(a.report.cuts_explored, b.report.cuts_explored);
    EXPECT_EQ(a.trace.access.digest(), b.trace.access.digest());
    EXPECT_EQ(a.trace.digest(), b.trace.digest());
}

// ---------------------------------------------------------------------------
// Planted bug: the fuzzer must catch a missing commit fence
// ---------------------------------------------------------------------------

struct MutationGuard {
    ~MutationGuard() { protocol_mutations() = ProtocolMutations{}; }
};

TEST(RomfuzzPlantedBug, ElidedCommitFenceIsFlagged) {
    if (!kPersistGraphEnabled)
        GTEST_SKIP() << "mutation hooks need -DROMULUS_PERSISTGRAPH";
    using E = RomulusLog;
    MutationGuard guard;

    // Silent control first: the exact seeds the armed run will use must be
    // clean without the mutation, so a detection below can only come from
    // the planted bug.
    constexpr uint64_t kMaxHistories = 12;
    {
        protocol_mutations() = ProtocolMutations{};
        FuzzHarness<E> harness(smoke_cfg("romfuzz_control", 2));
        for (uint64_t seed = 1; seed <= kMaxHistories; ++seed) {
            FuzzResult res = harness.run_one(seed);
            ASSERT_TRUE(res.ok())
                << "control run violated at seed " << seed << ": "
                << (res.failures.empty() ? "?" : res.failures[0]);
        }
    }

    protocol_mutations().elide_commit_fence = true;
    FuzzHarness<E> harness(smoke_cfg("romfuzz_planted", 2));
    bool flagged = false;
    for (uint64_t seed = 1; seed <= kMaxHistories && !flagged; ++seed) {
        FuzzResult res = harness.run_one(seed);
        if (!res.ok()) {
            flagged = true;
            // The repro bundle round-trip: save the trace + violating cut,
            // reload it, and the violation must reproduce by cut index.
            ASSERT_FALSE(res.violating_cuts.empty());
            res.trace.has_repro = true;
            res.trace.repro.mode = 0;
            res.trace.repro.explore_seed =
                seed * 0x9E3779B97F4A7C15ull + 1;
            res.trace.repro.max_cuts = harness.config().explore.max_cuts;
            res.trace.repro.window_exhaustive_cap =
                harness.config().explore.window_exhaustive_cap;
            res.trace.repro.window_samples =
                harness.config().explore.window_samples;
            res.trace.repro.cut_index = res.violating_cuts.front();
            const std::string bundle = heap_path("romfuzz_bundle") + ".trace";
            res.trace.save(bundle);

            const TxTrace back = TxTrace::load(bundle);
            ExploreOptions opts = harness.config().explore;
            opts.seed = back.repro.explore_seed;
            FuzzResult replay = harness.run_trace(back, opts);
            bool same_cut = false;
            for (uint64_t c : replay.violating_cuts)
                same_cut |= c == back.repro.cut_index;
            EXPECT_TRUE(same_cut)
                << "violating cut " << back.repro.cut_index
                << " did not reproduce from the bundle";
            std::remove(bundle.c_str());
        }
    }
    EXPECT_TRUE(flagged) << "elided commit fence survived " << kMaxHistories
                         << " fuzz histories";
}

TEST(RomfuzzPlantedBug, ReorderedStatePersistIsFlagged) {
    if (!kPersistGraphEnabled)
        GTEST_SKIP() << "mutation hooks need -DROMULUS_PERSISTGRAPH";
    using E = RomulusNL;
    MutationGuard guard;
    protocol_mutations().reorder_state_persist = true;
    FuzzHarness<E> harness(smoke_cfg("romfuzz_reorder", 1));
    bool flagged = false;
    for (uint64_t seed = 1; seed <= 12 && !flagged; ++seed)
        flagged = !harness.run_one(seed).ok();
    EXPECT_TRUE(flagged) << "reordered state persist survived 12 histories";
}

}  // namespace
