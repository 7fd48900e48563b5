// Seeded protocol-mutation fixtures (docs/romver.md).  Only compiled under
// -DROMULUS_PERSISTGRAPH (the `persistgraph` leg of scripts/check.sh): the
// engines carry deliberate crash-consistency bugs behind runtime flags, and
// romver's static rules must flag each one — while the silent controls (same
// build, flags off) stay clean.  This is the proof that the rules still
// detect what they claim to.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "analysis/romver.hpp"
#include "core/engine_globals.hpp"
#include "pmem/stats.hpp"
#include "test_support.hpp"
#include "ptm_types.hpp"

namespace romulus::test {
namespace {

using analysis::GraphAnalysis;
using analysis::ProtocolViolation;
using analysis::RomverConfig;
using analysis::RomverHarness;
using analysis::protocol_mutations;

static_assert(kPersistGraphEnabled,
              "test_romver_fixtures.cpp requires -DROMULUS_PERSISTGRAPH");

struct MutationGuard {
    MutationGuard() { protocol_mutations() = {}; }
    ~MutationGuard() { protocol_mutations() = {}; }
};

/// Record the romver workload on RomulusLog and run the static rules.  At
/// 64 bytes the recorded update fits the stripe fast path and commits
/// through its group apply (FastPath::apply_batch), which shares the MUT -> CPY
/// step — and its seeded mutations — with the slow path.
/// `fastpath_commits`, when given, receives how far the recording moved the
/// thread's counter: the setup transaction allocates, so it always re-runs
/// on the slow path, and only the recorded update can count.
GraphAnalysis record_and_analyze(const std::string& tag,
                                 size_t tx_bytes = 8192,
                                 uint64_t* fastpath_commits = nullptr) {
    UpdateConfigGuard update;
    update_config().fastpath = true;
    RomverConfig cfg;
    cfg.path = heap_path(tag);
    cfg.tx_bytes = tx_bytes;
    RomverHarness<RomulusLog> harness(cfg);
    const uint64_t before = pmem::tl_commit_stats().fastpath_commits;
    harness.record();
    if (fastpath_commits != nullptr)
        *fastpath_commits = pmem::tl_commit_stats().fastpath_commits - before;
    return harness.analyze();
}

TEST(RomverFixtures, SilentControlIsClean) {
    MutationGuard guard;
    GraphAnalysis ga = record_and_analyze("romver_ctl");
    EXPECT_TRUE(ga.clean()) << ga.report();
}

TEST(RomverFixtures, ElidedCommitFenceIsFlagged) {
    MutationGuard guard;
    protocol_mutations().elide_commit_fence = true;
    GraphAnalysis ga = record_and_analyze("romver_elide");
    ASSERT_FALSE(ga.clean());
    // Every violation is the body write-backs sharing the CPY state
    // persist's fence window, and the report names the window pair.
    for (const ProtocolViolation& v : ga.violations) {
        EXPECT_EQ(v.kind, ProtocolViolation::Kind::UnorderedStatePersist);
        EXPECT_EQ(v.state_value, 2u);  // CPY
        EXPECT_EQ(v.line_window, v.state_window);
        EXPECT_NE(v.detail.find("not ordered before"), std::string::npos);
        EXPECT_NE(v.detail.find("CPY"), std::string::npos);
    }
    // The whole 8 KB body is unordered: 128 lines' write-backs.
    EXPECT_GE(ga.violations.size(), 128u);
}

TEST(RomverFixtures, ReorderedStatePersistIsFlagged) {
    MutationGuard guard;
    protocol_mutations().reorder_state_persist = true;
    GraphAnalysis ga = record_and_analyze("romver_reorder");
    ASSERT_FALSE(ga.clean());
    EXPECT_GE(ga.violations.size(), 128u);
    for (const ProtocolViolation& v : ga.violations) {
        EXPECT_EQ(v.kind, ProtocolViolation::Kind::UnorderedStatePersist);
        EXPECT_EQ(v.state_value, 2u);
    }
}

TEST(RomverFixtures, FastPathControlIsClean) {
    MutationGuard guard;
    uint64_t fp_commits = 0;
    GraphAnalysis ga = record_and_analyze("romver_fp_ctl", 64, &fp_commits);
    EXPECT_EQ(fp_commits, 1u);
    EXPECT_TRUE(ga.clean()) << ga.report();
}

TEST(RomverFixtures, FastPathElidedCommitFenceIsFlagged) {
    MutationGuard guard;
    protocol_mutations().elide_commit_fence = true;
    uint64_t fp_commits = 0;
    GraphAnalysis ga = record_and_analyze("romver_fp_elide", 64, &fp_commits);
    EXPECT_EQ(fp_commits, 1u);
    ASSERT_FALSE(ga.clean());
    for (const ProtocolViolation& v : ga.violations) {
        EXPECT_EQ(v.kind, ProtocolViolation::Kind::UnorderedStatePersist);
        EXPECT_EQ(v.state_value, 2u);  // CPY
        EXPECT_EQ(v.line_window, v.state_window);
    }
}

TEST(RomverFixtures, FastPathReorderedStatePersistIsFlagged) {
    MutationGuard guard;
    protocol_mutations().reorder_state_persist = true;
    uint64_t fp_commits = 0;
    GraphAnalysis ga = record_and_analyze("romver_fp_reorder", 64, &fp_commits);
    EXPECT_EQ(fp_commits, 1u);
    ASSERT_FALSE(ga.clean());
    // The CPY state persists ahead of the body: its lines are unordered
    // with it, and under a line-image profile the drain of their NT images
    // (the body write-back) comes after it too.
    size_t unordered = 0;
    for (const ProtocolViolation& v : ga.violations) {
        if (v.kind == ProtocolViolation::Kind::UnorderedStatePersist)
            ++unordered;
        else
            EXPECT_EQ(v.kind, ProtocolViolation::Kind::UndrainedNtLine);
        EXPECT_EQ(v.state_value, 2u);
    }
    EXPECT_GT(unordered, 0u);
}

/// Record with the NT drains of the commit elided, under CLFLUSH (whose
/// commits stream line images), and require every violation to be an
/// undrained NT line, at CPY (main images) and at IDL (back images).
void expect_undrained_at_cpy_and_idl(const GraphAnalysis& ga) {
    ASSERT_FALSE(ga.clean());
    bool at_cpy = false, at_idl = false;
    for (const ProtocolViolation& v : ga.violations) {
        EXPECT_EQ(v.kind, ProtocolViolation::Kind::UndrainedNtLine);
        EXPECT_NE(v.detail.find("not drained"), std::string::npos);
        at_cpy |= v.state_value == 2u;
        at_idl |= v.state_value == 0u;
    }
    EXPECT_TRUE(at_cpy) << ga.report();
    EXPECT_TRUE(at_idl) << ga.report();
}

TEST(RomverFixtures, ElidedNtDrainIsFlagged) {
    MutationGuard guard;
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    protocol_mutations().elide_nt_drain = true;
    expect_undrained_at_cpy_and_idl(record_and_analyze("romver_ntdrain"));
}

TEST(RomverFixtures, FastPathElidedNtDrainIsFlagged) {
    MutationGuard guard;
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    protocol_mutations().elide_nt_drain = true;
    uint64_t fp_commits = 0;
    GraphAnalysis ga = record_and_analyze("romver_fp_ntdrain", 64, &fp_commits);
    EXPECT_EQ(fp_commits, 1u);
    expect_undrained_at_cpy_and_idl(ga);
}

// In the cached order no commit streams line images, so there is no drain
// to elide and the same mutation leaves the protocol clean.
TEST(RomverFixtures, ElidedNtDrainIsSilentInTheCachedOrder) {
    MutationGuard guard;
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    const pmem::CommitConfig saved = pmem::commit_config();
    pmem::commit_config().nt_threshold = SIZE_MAX;
    protocol_mutations().elide_nt_drain = true;
    GraphAnalysis ga = record_and_analyze("romver_ntdrain_cached");
    pmem::commit_config() = saved;
    EXPECT_TRUE(ga.clean()) << ga.report();
}

TEST(RomverFixtures, ControlAfterMutationsIsCleanAgain) {
    // Mutations are runtime flags: the same process must go back to a clean
    // protocol once they are dropped (no lingering state).
    {
        MutationGuard guard;
        protocol_mutations().elide_commit_fence = true;
        GraphAnalysis ga = record_and_analyze("romver_ctl2a");
        ASSERT_FALSE(ga.clean());
    }
    GraphAnalysis ga = record_and_analyze("romver_ctl2b");
    EXPECT_TRUE(ga.clean()) << ga.report();
}

}  // namespace
}  // namespace romulus::test
