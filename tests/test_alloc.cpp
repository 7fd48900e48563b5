// Unit and property tests for the persistent allocator, hosted inside a
// RomulusLog heap (the allocator itself is PTM-generic; the engine supplies
// the persist<> interposition and the transaction context).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/romulus.hpp"
#include "test_support.hpp"

using namespace romulus;
using E = RomulusLog;

class AllocTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        // These closures accumulate pointers into captured containers, which
        // is not restartable under the §4.11 speculative fast path (a doomed
        // run would push scratch-arena pointers); they exercise the slow-path
        // allocator anyway, so pin the fast path off.
        update_config().fastpath = false;
        session_ = std::make_unique<test::EngineSession<E>>(32u << 20, "alloc");
    }
    void TearDown() override { session_.reset(); }
    test::UpdateConfigGuard update_guard_;
    std::unique_ptr<test::EngineSession<E>> session_;
};

TEST_F(AllocTest, AllocationsAreAlignedAndDisjoint) {
    std::vector<void*> ptrs;
    E::updateTx([&] {
        for (size_t sz : {1u, 8u, 17u, 64u, 100u, 4096u})
            ptrs.push_back(E::alloc_bytes(sz));
    });
    for (void* p : ptrs)
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u) << "alignment";
    // Disjointness: byte ranges must not overlap (sizes rounded up).
    std::map<uintptr_t, size_t> ranges;
    size_t sizes[] = {1, 8, 17, 64, 100, 4096};
    for (size_t i = 0; i < ptrs.size(); ++i)
        ranges[reinterpret_cast<uintptr_t>(ptrs[i])] = sizes[i];
    uintptr_t prev_end = 0;
    for (auto [start, len] : ranges) {
        EXPECT_GE(start, prev_end);
        prev_end = start + len;
    }
    E::updateTx([&] {
        for (void* p : ptrs) E::free_bytes(p);
    });
    EXPECT_GT(E::allocator().check_consistency(), 0u);
}

TEST_F(AllocTest, PayloadCapacityCoversRequest) {
    E::updateTx([&] {
        for (size_t sz : {1u, 31u, 32u, 33u, 255u, 1000u}) {
            void* p = E::alloc_bytes(sz);
            EXPECT_GE(E::allocator().payload_capacity(p), sz);
            E::free_bytes(p);
        }
    });
}

TEST_F(AllocTest, CoalescingMergesNeighbours) {
    // Boundary-tag coalescing: with the quick cache on, freed 100 B chunks
    // would park in their quick list instead of merging.
    E::allocator().set_quick_cache(false);
    void *a = nullptr, *b = nullptr, *c = nullptr;
    E::updateTx([&] {
        a = E::alloc_bytes(100);
        b = E::alloc_bytes(100);
        c = E::alloc_bytes(100);
    });
    // Free middle then left then right: exercises left-, right- and
    // both-side coalescing paths.
    E::updateTx([&] { E::free_bytes(b); });
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] { E::free_bytes(a); });  // right-coalesce with b
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] { E::free_bytes(c); });  // left-coalesce into a+b
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    // The merged block should satisfy a request of the combined size.
    void* big = nullptr;
    const uint64_t wilderness_before = E::allocator().wilderness_offset();
    E::updateTx([&] { big = E::alloc_bytes(300); });
    EXPECT_EQ(E::allocator().wilderness_offset(), wilderness_before)
        << "should reuse the coalesced block, not grow the wilderness";
    EXPECT_EQ(big, a);
    E::updateTx([&] { E::free_bytes(big); });
}

TEST_F(AllocTest, SplitLeavesUsableRemainder) {
    void* big = nullptr;
    E::updateTx([&] { big = E::alloc_bytes(1024); });
    E::updateTx([&] { E::free_bytes(big); });
    void *small1 = nullptr, *small2 = nullptr;
    E::updateTx([&] {
        small1 = E::alloc_bytes(100);  // splits the 1 KiB block
        small2 = E::alloc_bytes(100);  // fits in the remainder
    });
    EXPECT_EQ(small1, big);
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] {
        E::free_bytes(small1);
        E::free_bytes(small2);
    });
}

TEST_F(AllocTest, ExhaustionThrowsBadAllocAndHeapSurvives) {
    E::begin_transaction();
    EXPECT_THROW(E::alloc_bytes(1u << 30), std::bad_alloc);  // 1 GiB > pool
    E::abort_transaction();
    EXPECT_GT(E::allocator().check_consistency(), 0u);
    // Normal allocation still works afterwards.
    E::updateTx([&] {
        void* p = E::alloc_bytes(64);
        E::free_bytes(p);
    });
}

TEST_F(AllocTest, StatsTrackLiveBytesAndCount) {
    const uint64_t count0 = E::allocator().alloc_count();
    const uint64_t bytes0 = E::allocator().allocated_bytes();
    void *a = nullptr, *b = nullptr;
    E::updateTx([&] {
        a = E::alloc_bytes(100);
        b = E::alloc_bytes(200);
    });
    EXPECT_EQ(E::allocator().alloc_count(), count0 + 2);
    EXPECT_GE(E::allocator().allocated_bytes(), bytes0 + 300);
    E::updateTx([&] {
        E::free_bytes(a);
        E::free_bytes(b);
    });
    EXPECT_EQ(E::allocator().alloc_count(), count0);
    EXPECT_EQ(E::allocator().allocated_bytes(), bytes0);
}

// Property test: random alloc/free streams leave a consistent heap, for a
// sweep of (seed, max allocation size) parameters.
class AllocStress
    : public ::testing::TestWithParam<std::tuple<unsigned, size_t>> {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        // The random alloc/free closures mutate the captured `live` vector,
        // so they are not restartable under the speculative fast path.
        update_config().fastpath = false;
        session_ = std::make_unique<test::EngineSession<E>>(64u << 20, "allocp");
    }
    void TearDown() override { session_.reset(); }
    test::UpdateConfigGuard update_guard_;
    std::unique_ptr<test::EngineSession<E>> session_;
};

TEST_P(AllocStress, RandomAllocFreeKeepsHeapConsistent) {
    auto [seed, max_size] = GetParam();
    std::mt19937_64 rng(seed);
    std::vector<std::pair<void*, uint8_t>> live;  // ptr + fill byte

    for (int step = 0; step < 400; ++step) {
        E::updateTx([&] {
            for (int op = 0; op < 10; ++op) {
                if (live.empty() || rng() % 3 != 0) {
                    const size_t sz = rng() % max_size + 1;
                    auto* p = static_cast<uint8_t*>(E::alloc_bytes(sz));
                    const uint8_t fill = uint8_t(rng());
                    E::store_range(p, std::vector<uint8_t>(sz, fill).data(), sz);
                    live.emplace_back(p, fill);
                } else {
                    const size_t idx = rng() % live.size();
                    E::free_bytes(live[idx].first);
                    live[idx] = live.back();
                    live.pop_back();
                }
            }
        });
        if (step % 100 == 0) {
            ASSERT_GT(E::allocator().check_consistency(), 0u) << "step " << step;
        }
    }
    // No allocation may have scribbled over another: check a sample byte.
    for (auto [p, fill] : live)
        ASSERT_EQ(*static_cast<uint8_t*>(p), fill);
    ASSERT_GT(E::allocator().check_consistency(), 0u);
    E::updateTx([&] {
        for (auto [p, fill] : live) E::free_bytes(p);
    });
    ASSERT_GT(E::allocator().check_consistency(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocStress,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(size_t{64}, size_t{512},
                                         size_t{8192})),
    [](const auto& info) {
        return "seed" + std::to_string(std::get<0>(info.param)) + "_max" +
               std::to_string(std::get<1>(info.param));
    });
