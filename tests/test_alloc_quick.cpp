// Tests for the allocator's small-object quick cache (the §6.2 "PMDK's
// allocator is highly optimized for small allocations" fast path).
#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/romulus.hpp"
#include "ds/linked_list_set.hpp"
#include "test_support.hpp"

using namespace romulus;
using E = RomulusLog;

class QuickCacheTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        // Quick-cache mechanics are slow-path allocator behaviour, and the
        // stress closure mutates a captured `live` vector (not restartable
        // under the §4.11 fast path): pin speculation off.
        update_config().fastpath = false;
        session_ = std::make_unique<test::EngineSession<E>>(32u << 20, "quick");
        E::allocator().set_quick_cache(true);
    }
    void TearDown() override { session_.reset(); }
    test::UpdateConfigGuard update_guard_;
    std::unique_ptr<test::EngineSession<E>> session_;
};

TEST_F(QuickCacheTest, FreedSmallChunkIsReusedExactly) {
    void* a = nullptr;
    E::updateTx([&] { a = E::alloc_bytes(64); });
    E::updateTx([&] { E::free_bytes(a); });
    void* b = nullptr;
    E::updateTx([&] { b = E::alloc_bytes(64); });
    EXPECT_EQ(a, b);  // quick list is LIFO on the exact size class
    E::updateTx([&] { E::free_bytes(b); });
    EXPECT_GT(E::allocator().check_consistency(), 0u);
}

TEST_F(QuickCacheTest, QuickFreeTouchesFewerLinesThanBinFree) {
    void *a = nullptr, *b = nullptr;
    E::updateTx([&] {
        a = E::alloc_bytes(64);
        b = E::alloc_bytes(64);
    });
    // Measure pwbs for a free with the cache on vs off.  The commit-side
    // flush count reflects how many lines the free dirtied.
    pmem::reset_tl_stats();
    E::updateTx([&] { E::free_bytes(a); });
    const uint64_t quick_pwbs = pmem::tl_stats().pwb;

    E::allocator().set_quick_cache(false);
    pmem::reset_tl_stats();
    E::updateTx([&] { E::free_bytes(b); });
    const uint64_t bin_pwbs = pmem::tl_stats().pwb;
    E::allocator().set_quick_cache(true);

    EXPECT_LE(quick_pwbs, bin_pwbs);
}

TEST_F(QuickCacheTest, LargeAllocationsBypassTheCache) {
    void* big = nullptr;
    E::updateTx([&] { big = E::alloc_bytes(4096); });
    E::updateTx([&] { E::free_bytes(big); });
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    // A later large allocation reuses the binned (coalesced) chunk.
    void* big2 = nullptr;
    E::updateTx([&] { big2 = E::alloc_bytes(4096); });
    EXPECT_EQ(big, big2);
    E::updateTx([&] { E::free_bytes(big2); });
}

TEST_F(QuickCacheTest, MixedSizesStressStaysConsistent) {
    std::mt19937_64 rng(21);
    std::vector<void*> live;
    for (int step = 0; step < 300; ++step) {
        E::updateTx([&] {
            for (int i = 0; i < 8; ++i) {
                if (live.empty() || rng() % 3 != 0) {
                    live.push_back(E::alloc_bytes(rng() % 500 + 1));
                } else {
                    size_t idx = rng() % live.size();
                    E::free_bytes(live[idx]);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
        });
    }
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] {
        for (void* p : live) E::free_bytes(p);
    });
    EXPECT_GT(E::allocator().check_consistency(), 0u);
}

TEST_F(QuickCacheTest, CacheStateRollsBackWithAbortedTransaction) {
    void* a = nullptr;
    E::updateTx([&] { a = E::alloc_bytes(64); });

    E::begin_transaction();
    E::free_bytes(a);  // parks the chunk in the quick list
    E::abort_transaction();

    // The free was rolled back: the chunk is live again and the quick list
    // does not contain it.
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    void* b = nullptr;
    E::updateTx([&] { b = E::alloc_bytes(64); });
    EXPECT_NE(a, b);
    E::updateTx([&] {
        E::free_bytes(a);
        E::free_bytes(b);
    });
}

TEST_F(QuickCacheTest, SurvivesReopenWithPopulatedCache) {
    std::vector<void*> ptrs;
    E::updateTx([&] {
        for (int i = 0; i < 10; ++i) ptrs.push_back(E::alloc_bytes(48));
    });
    E::updateTx([&] {
        for (void* p : ptrs) E::free_bytes(p);  // all parked in quick lists
    });
    std::string path = this->session_->path;
    E::close();
    E::init(32u << 20, path);
    E::allocator().set_quick_cache(true);
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    // The persisted quick lists serve allocations after restart.
    void* p = nullptr;
    E::updateTx([&] { p = E::alloc_bytes(48); });
    EXPECT_NE(p, nullptr);
    E::updateTx([&] { E::free_bytes(p); });
}

TEST_F(QuickCacheTest, ListChurnBenefitsFromCache) {
    using List = ds::LinkedListSet<E, uint64_t>;
    List* list = nullptr;
    E::updateTx([&] { list = E::tmNew<List>(); });
    for (uint64_t k = 0; k < 50; ++k) list->add(k);
    // remove+add churn hits the quick list on every node free/alloc.
    pmem::reset_tl_stats();
    for (uint64_t k = 0; k < 50; ++k) {
        list->remove(k);
        list->add(k);
    }
    EXPECT_TRUE(list->check_invariants());
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] { E::tmDelete(list); });
}
