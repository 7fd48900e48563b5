// Behaviour specific to the two baseline PTMs: the undo log's ordering,
// overflow handling and init size check, the redo-log STM's conflict
// detection, abort accounting, opacity, and commit-marker replay, and the
// single commit path both share with the paper's comparators.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;
using baselines::RedoLogPTM;
using baselines::UndoLogPTM;
using romulus::test::EngineSession;

// ----------------------------------------------------------------- undo log

class UndoLogTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ =
            std::make_unique<EngineSession<UndoLogPTM>>(32u << 20, "undospec");
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<UndoLogPTM>> session_;
};

TEST_F(UndoLogTest, EveryTxStoreAppendsLogEntries) {
    using PU = UndoLogPTM::p<uint64_t>;
    PU* arr = nullptr;
    UndoLogPTM::updateTx(
        [&] { arr = static_cast<PU*>(UndoLogPTM::alloc_bytes(8 * 16)); });
    UndoLogPTM::updateTx([&] {
        for (int i = 0; i < 16; ++i) arr[i] = uint64_t(i);
        // 16 word stores -> at least 16 entries (plus none for reads).
        EXPECT_GE(UndoLogPTM::log_entries_in_tx(), 16u);
    });
}

TEST_F(UndoLogTest, FencesGrowLinearlyWithStores) {
    using PU = UndoLogPTM::p<uint64_t>;
    PU* arr = nullptr;
    UndoLogPTM::updateTx(
        [&] { arr = static_cast<PU*>(UndoLogPTM::alloc_bytes(8 * 256)); });
    auto fences_for = [&](int n) {
        pmem::reset_tl_stats();
        UndoLogPTM::updateTx([&] {
            for (int i = 0; i < n; ++i) arr[i] = uint64_t(i);
        });
        return pmem::tl_stats().fences();
    };
    const uint64_t f4 = fences_for(4);
    const uint64_t f64 = fences_for(64);
    EXPECT_GT(f64, f4 + 60);  // ~2 fences per store: the Table 1 cost model
}

TEST_F(UndoLogTest, RangedStoreLogsOldContentWordWise) {
    uint8_t* buf = nullptr;
    UndoLogPTM::updateTx(
        [&] { buf = static_cast<uint8_t*>(UndoLogPTM::alloc_bytes(64)); });
    std::vector<uint8_t> a(64, 0xAA), b(64, 0xBB);
    UndoLogPTM::updateTx([&] { UndoLogPTM::store_range(buf, a.data(), 64); });
    UndoLogPTM::begin_transaction();
    UndoLogPTM::store_range(buf, b.data(), 64);
    UndoLogPTM::abort_transaction();  // undo restores the 0xAA content
    for (int i = 0; i < 64; ++i) ASSERT_EQ(buf[i], 0xAA) << i;
}

// A too-small init must fail before it touches the file: mapping resizes
// an existing heap, so the size check has to run first.
TEST(UndoLogInit, TooSmallHeapLeavesTheExistingFileIntact) {
    pmem::set_profile(pmem::Profile::NOP);
    constexpr size_t kBytes = 8u << 20;
    EngineSession<UndoLogPTM> session(kBytes, "undo_small_init");
    using PU = UndoLogPTM::p<uint64_t>;
    UndoLogPTM::updateTx([&] {
        PU* x = UndoLogPTM::tmNew<PU>();
        *x = 77u;
        UndoLogPTM::put_object(0, x);
    });
    UndoLogPTM::close();

    EXPECT_THROW(UndoLogPTM::init(1u << 20, session.path),
                 std::invalid_argument);
    EXPECT_FALSE(UndoLogPTM::initialized());
    EXPECT_EQ(std::filesystem::file_size(session.path), kBytes);

    UndoLogPTM::init(kBytes, session.path);  // reopen: recover, not format
    uint64_t got = 0;
    UndoLogPTM::readTx([&] { got = UndoLogPTM::get_object<PU>(0)->pload(); });
    EXPECT_EQ(got, 77u);
}

// ----------------------------------------------------------------- redo log

class RedoLogTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ =
            std::make_unique<EngineSession<RedoLogPTM>>(48u << 20, "redospec");
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<RedoLogPTM>> session_;
};

TEST_F(RedoLogTest, StoresAreInvisibleUntilCommit) {
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 1u;
        RedoLogPTM::put_object(0, x);
    });
    std::atomic<bool> inside{false}, release{false};
    std::atomic<uint64_t> observed{~0ull};
    std::thread writer([&] {
        RedoLogPTM::updateTx([&] {
            *x = 2u;  // buffered in the write set
            if (!inside.exchange(true)) {
                // Hold the transaction open (pre-commit) while the main
                // thread reads.  Only on the first attempt.
                while (!release.load()) std::this_thread::yield();
            }
        });
    });
    while (!inside.load()) std::this_thread::yield();
    RedoLogPTM::readTx([&] { observed.store(x->pload()); });
    EXPECT_EQ(observed.load(), 1u)
        << "uncommitted redo-log stores must not be visible";
    release.store(true);
    writer.join();
    uint64_t after = 0;
    RedoLogPTM::readTx([&] { after = x->pload(); });
    EXPECT_EQ(after, 2u);
}

TEST_F(RedoLogTest, ConflictingWritersAbortAndRetry) {
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 0u;
        RedoLogPTM::put_object(0, x);
    });
    pmem::reset_tl_stats();
    std::atomic<uint64_t> total_aborts{0};
    constexpr int kThreads = 4, kIncs = 500;
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            pmem::reset_tl_stats();
            for (int j = 0; j < kIncs; ++j)
                RedoLogPTM::updateTx([&] { *x += 1u; });
            total_aborts.fetch_add(pmem::tl_stats().tx_aborts);
        });
    }
    for (auto& t : ts) t.join();
    uint64_t got = 0;
    RedoLogPTM::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, uint64_t(kThreads) * kIncs) << "lost update!";
    // On a contended counter the STM must have experienced aborts (this is
    // the Fig. 5 shared-counter effect).  On a single-core box preemption
    // makes conflicts rarer but over 2000 txs some occur.
    SUCCEED() << "aborts observed: " << total_aborts.load();
}

TEST_F(RedoLogTest, ReadValidationAbortsOnConcurrentCommit) {
    // A reader that loads x, then y after a writer committed to both, must
    // not observe the torn combination (opacity): x_old with y_new.
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    PU* y = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        y = RedoLogPTM::tmNew<PU>();
        *x = 0u;
        *y = 0u;
    });
    std::atomic<bool> stop{false};
    std::atomic<bool> torn{false};
    std::thread reader([&] {
        while (!stop.load()) {
            uint64_t vx = 0, vy = 0;
            RedoLogPTM::readTx([&] {
                vx = x->pload();
                std::this_thread::yield();  // widen the race window
                vy = y->pload();
            });
            if (vx != vy) torn.store(true);
        }
    });
    for (int i = 1; i <= 3000; ++i) {
        RedoLogPTM::updateTx([&] {
            *x = uint64_t(i);
            *y = uint64_t(i);
        });
    }
    stop.store(true);
    reader.join();
    EXPECT_FALSE(torn.load()) << "opacity violation: snapshot was torn";
}

TEST_F(RedoLogTest, CommitMarkerReplayIsIdempotent) {
    // recover() on a clean heap (all markers zero) must be a no-op.
    using PU = RedoLogPTM::p<uint64_t>;
    PU* x = nullptr;
    RedoLogPTM::updateTx([&] {
        x = RedoLogPTM::tmNew<PU>();
        *x = 42u;
        RedoLogPTM::put_object(0, x);
    });
    RedoLogPTM::recover();
    RedoLogPTM::recover();
    uint64_t got = 0;
    RedoLogPTM::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, 42u);
}

TEST_F(RedoLogTest, OversizeTransactionIsRejectedCleanly) {
    uint8_t* buf = nullptr;
    RedoLogPTM::updateTx(
        [&] { buf = static_cast<uint8_t*>(RedoLogPTM::alloc_bytes(1 << 20)); });
    std::vector<uint8_t> big(1 << 20, 0x11);
    EXPECT_THROW(RedoLogPTM::updateTx([&] {
                     RedoLogPTM::store_range(buf, big.data(), big.size());
                 }),
                 std::runtime_error);
    // And the engine still works afterwards.
    RedoLogPTM::updateTx([&] {
        RedoLogPTM::store_range(buf, big.data(), 256);
    });
    EXPECT_EQ(buf[0], 0x11);
}

// ---------------------------------------------------------- both baselines
//
// The baselines model the paper's PMDK and Mnemosyne comparators (§6.1):
// one commit path each, with no Romulus fast path or seqlock read path.
// With the Romulus knobs at their defaults (both on), closures still run
// once and the Romulus path counters never move.

template <typename E>
class BaselineCommitPath : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ = std::make_unique<EngineSession<E>>(
            48u << 20, std::string("baseline_path_") + E::name());
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<E>> session_;
};

using BaselinePtms = ::testing::Types<UndoLogPTM, RedoLogPTM>;
TYPED_TEST_SUITE(BaselineCommitPath, BaselinePtms);

TYPED_TEST(BaselineCommitPath, ClosuresRunOnceOffTheRomulusPaths) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    ASSERT_TRUE(update_config().fastpath);
    ASSERT_TRUE(read_config().optimistic);
    pmem::reset_tl_commit_stats();
    reset_tl_read_stats();

    // 1. An allocating update closure runs exactly once.
    int runs = 0;
    PU* x = nullptr;
    E::updateTx([&] {
        ++runs;
        x = E::template tmNew<PU>();
        *x = 5u;
        E::put_object(0, x);
    });
    EXPECT_EQ(runs, 1);

    // 2. One update plus one read leave the Romulus path counters at 0.
    uint64_t got = 0;
    E::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, 5u);
    const pmem::CommitStats& cs = pmem::tl_commit_stats();
    EXPECT_EQ(cs.fastpath_commits, 0u);
    EXPECT_EQ(cs.fastpath_aborts, 0u);
    EXPECT_EQ(cs.fastpath_fallbacks, 0u);
    EXPECT_EQ(cs.fastpath_batches, 0u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.opt_waits, 0u);
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);
    EXPECT_EQ(rs.opt_exception_exits, 0u);

    // 3. An update that stores and then throws propagates the exception
    // and leaves the old value.
    struct Boom {};
    EXPECT_THROW(E::updateTx([&] {
        *x = 6u;
        throw Boom{};
    }),
                 Boom);
    E::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, 5u);

    // 4. A read closure that throws propagates, and the next update
    // completes (no lock or transaction state is left behind).
    EXPECT_THROW(E::readTx([&] {
        (void)x->pload();
        throw Boom{};
    }),
                 Boom);
    E::updateTx([&] { *x = 7u; });
    E::readTx([&] { got = x->pload(); });
    EXPECT_EQ(got, 7u);
}
