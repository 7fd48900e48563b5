// romver engine layer (docs/romver.md): record real transactions on all five
// PTMs, check the static protocol rules stay clean, and model-check the
// legal crash images through each engine's actual recovery path.
#include <gtest/gtest.h>

#include <string>

#include "analysis/romver.hpp"
#include "pmem/stats.hpp"
#include "test_support.hpp"
#include "ptm_types.hpp"

namespace romulus::test {
namespace {

using analysis::ExploreOptions;
using analysis::ExploreReport;
using analysis::GraphAnalysis;
using analysis::RomverConfig;
using analysis::RomverHarness;

template <typename E>
RomverConfig config_for(const std::string& tag, size_t tx_bytes) {
    RomverConfig cfg;
    cfg.path = heap_path(tag);
    cfg.tx_bytes = tx_bytes;
    return cfg;
}

// ---------------------------------------------------------------------------
// The acceptance run: a single-shard 8 KB update transaction on all five
// engines — static rules clean, every materialized crash image recovers to
// one of the two atomic states, dropped cuts reported.
// ---------------------------------------------------------------------------

template <typename E>
class RomverAcceptance : public ::testing::Test {};
TYPED_TEST_SUITE(RomverAcceptance, AllPtms);

TYPED_TEST(RomverAcceptance, Explore8KBTxCrashImages) {
    using E = TypeParam;
    RomverHarness<E> harness(config_for<E>("romver8k", 8192));
    harness.record();
    ASSERT_FALSE(harness.recorder().overflowed());

    GraphAnalysis ga = harness.analyze();
    EXPECT_TRUE(ga.clean()) << ga.report();
    EXPECT_GT(ga.pwbs, 0u);

    ExploreOptions opts;
    opts.window_samples = 48;
    opts.max_cuts = 2048;
    opts.seed = 7;
    ExploreReport rep = harness.explore(opts);
    EXPECT_EQ(rep.violations, 0u) << rep.summary();
    EXPECT_GT(rep.cuts_explored, 0u);
    EXPECT_FALSE(rep.budget_hit) << rep.summary();
    // An 8 KB transaction has ~2^128 legal images in its body window alone:
    // the run must complete by sampling and say exactly what it dropped.
    EXPECT_GT(rep.windows_sampled, 0u);
    EXPECT_GT(rep.cuts_dropped, 0.0);
    EXPECT_NE(rep.summary().find("dropped"), std::string::npos)
        << rep.summary();
}

// ---------------------------------------------------------------------------
// Truly exhaustive exploration: a one-line transaction has few enough legal
// crash images to visit every single one through real recovery.
// ---------------------------------------------------------------------------

template <typename E>
class RomverExhaustive : public ::testing::Test {};
TYPED_TEST_SUITE(RomverExhaustive, AllPtms);

TYPED_TEST(RomverExhaustive, OneLineTxExploresEveryCut) {
    using E = TypeParam;
    if constexpr (std::is_same_v<E, RomulusNL>) {
        // RomulusNL replicates the whole used range to back at commit, so
        // even a one-line transaction on a minimal heap persists ~16
        // metadata lines in one window (~2^16 legal images — minutes of
        // recoveries).  Its sampled coverage is Explore8KBTxCrashImages.
        GTEST_SKIP() << "NL's full-range replication defeats exhaustiveness";
    }
    RomverConfig cfg = config_for<E>("romver1l", 64);
    // No ballast: keep the persisted footprint as small as it can get.
    cfg.ballast_bytes = 0;
    RomverHarness<E> harness(cfg);
    harness.record();

    ExploreOptions opts;
    opts.window_exhaustive_cap = 1u << 14;
    opts.max_cuts = 1u << 15;
    ExploreReport rep = harness.explore(opts);
    EXPECT_TRUE(rep.exhaustive) << rep.summary();
    EXPECT_EQ(rep.violations, 0u) << rep.summary();
    EXPECT_EQ(double(rep.cuts_explored), rep.cuts_total);
    EXPECT_EQ(rep.cuts_sampled, 0u);
    EXPECT_NE(rep.summary().find("[exhaustive]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Redundant-flush diagnostic on the 8 KB commit-path transaction: the
// coalesced streaming commit path flushes nothing twice, and the count is
// wired into the CommitStats the benches report from.
// ---------------------------------------------------------------------------

TEST(RomverCommitPath, RedundantPwbCountOn8KBTxFeedsCommitStats) {
    RomverHarness<RomulusLog> harness(
        config_for<RomulusLog>("romver_redundant", 8192));
    harness.record();
    GraphAnalysis ga = harness.analyze();
    // The overhauled commit path is flush-minimal: every write-back on the
    // 8 KB transaction covers a dirty line.
    EXPECT_EQ(ga.redundant_pwbs, 0u) << ga.report();

    pmem::reset_tl_commit_stats();
    ga.record_in(pmem::tl_commit_stats());
    EXPECT_EQ(pmem::tl_commit_stats().redundant_pwbs, ga.redundant_pwbs);
    pmem::reset_tl_commit_stats();
}

// The redo baseline's commit writes its log's count and entries back once:
// count shares ThreadLog's first line with the first entries.
TEST(RomverCommitPath, RedoCommitWritesNoLineBackTwice) {
    for (size_t tx_bytes : {size_t(8192), size_t(64)}) {
        RomverHarness<baselines::RedoLogPTM> harness(
            config_for<baselines::RedoLogPTM>("romver_redo_redundant",
                                              tx_bytes));
        harness.record();
        GraphAnalysis ga = harness.analyze();
        EXPECT_TRUE(ga.clean()) << ga.report();
        EXPECT_EQ(ga.redundant_pwbs, 0u)
            << "tx_bytes " << tx_bytes << "\n" << ga.report();
    }
}

// A deliberately wasteful flush sequence must show up in the same counter —
// proving the diagnostic measures flushes, not luck.
TEST(RomverCommitPath, SyntheticDoubleFlushIsCounted) {
    alignas(64) static uint8_t rgn[4 * 64] = {};
    analysis::PersistEventRecorder rec(rgn, sizeof(rgn));
    rgn[0] = 1;
    rec.on_store(rgn, 1);
    rec.on_pwb(rgn);
    rec.on_pwb(rgn);  // same line, nothing dirtied in between
    auto g = analysis::PersistGraph::build(rec);
    analysis::EngineLayout layout;
    layout.region_size = sizeof(rgn);
    auto ga = analysis::analyze_protocol(rec, g, layout);
    EXPECT_EQ(ga.redundant_pwbs, 1u);
    pmem::reset_tl_commit_stats();
    ga.record_in(pmem::tl_commit_stats());
    EXPECT_EQ(pmem::tl_commit_stats().redundant_pwbs, 1u);
    pmem::reset_tl_commit_stats();
}

// ---------------------------------------------------------------------------
// The engine layout introspection romver keys on.
// ---------------------------------------------------------------------------

TEST(RomverLayout, RomulusShardsExposeStateAndTwinOffsets) {
    EngineSession<RomulusLog> session(16u << 20, "romver_layout");
    auto l = analysis::EngineLayout::of<RomulusLog>();
    ASSERT_EQ(l.shards.size(), RomulusLog::shard_count());
    const auto& sh = l.shards[0];
    EXPECT_NE(sh.back_off, analysis::EngineLayout::kNone);
    EXPECT_NE(sh.state_off, analysis::EngineLayout::kNone);
    EXPECT_EQ(l.shard_of_state(sh.state_off), 0);
    EXPECT_EQ(l.shard_of_zone(sh.main_off), 0);
    EXPECT_EQ(l.shard_of_zone(sh.back_off), 0);
    EXPECT_EQ(l.shard_of_zone(sh.state_off), -1);  // header is not twin zone
}

TEST(RomverLayout, BaselinesExposeLogArea) {
    EngineSession<baselines::UndoLogPTM> session(16u << 20, "romver_layout_u");
    auto l = analysis::EngineLayout::of<baselines::UndoLogPTM>();
    ASSERT_EQ(l.shards.size(), 1u);
    EXPECT_EQ(l.shards[0].back_off, analysis::EngineLayout::kNone);
    EXPECT_EQ(l.shards[0].state_off, analysis::EngineLayout::kNone);
    ASSERT_NE(l.log_off, analysis::EngineLayout::kNone);
    EXPECT_GT(l.log_size, 0u);
    // The log area and the heap area must not overlap.
    EXPECT_LE(l.log_off + l.log_size, l.shards[0].main_off);
}

}  // namespace
}  // namespace romulus::test
