// Direct unit tests of the Algorithm 1 recovery semantics on the Romulus
// engines: which twin is authoritative in each state, idempotence, the
// no-op IDL path, reformat on magic mismatch, the header-page ownership
// check init() and heap_inspect share, and used_size monotonicity.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <type_traits>

#include "core/romulus.hpp"
#include "test_support.hpp"

using namespace romulus;

template <typename E>
class RecoverySemantics : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ = std::make_unique<test::EngineSession<E>>(8u << 20, E::name());
    }
    void TearDown() override { session_.reset(); }

    // A persistent cell set up in its own committed transaction.
    typename E::template p<uint64_t>* make_cell(uint64_t v) {
        typename E::template p<uint64_t>* cell = nullptr;
        E::updateTx([&] {
            cell = E::template tmNew<typename E::template p<uint64_t>>();
            *cell = v;
            E::put_object(0, cell);
        });
        return cell;
    }
    std::unique_ptr<test::EngineSession<E>> session_;
};

using Engines = ::testing::Types<RomulusNL, RomulusLog, RomulusLR>;
TYPED_TEST_SUITE(RecoverySemantics, Engines);

TYPED_TEST(RecoverySemantics, MutStateRecoversFromBack) {
    using E = TypeParam;
    auto* cell = this->make_cell(100);
    // Simulate a crash mid-transaction: mutate main in an open tx, then
    // "lose" the process (reset thread-locals) and recover.
    E::begin_transaction();
    *cell = 999u;
    ASSERT_EQ(E::state(), MUT);
    E::crash_reset_for_tests();
    E::recover();
    EXPECT_EQ(E::state(), IDL);
    EXPECT_EQ(cell->pload(), 100u) << "back must win in MUT";
    EXPECT_EQ(std::memcmp(E::main_base(), E::back_base(), E::used_bytes()), 0);
}

TYPED_TEST(RecoverySemantics, CpyStateRecoversFromMain) {
    using E = TypeParam;
    auto* cell = this->make_cell(100);
    // Reproduce the CPY window: commit up to the durability point by hand —
    // mutate main, persist it, set state to CPY, then crash before the
    // main->back copy happens.
    E::begin_transaction();
    *cell = 777u;
    // Finish the transaction, then scribble the state word (public through
    // state_addr()) the way a crashed process would have left it.
    E::end_transaction();
    // Now main == back == 777.  Make back stale and state CPY: that is
    // byte-wise exactly the crashed-in-CPY picture.
    std::memset(E::back_base(), 0xCD, 64);  // corrupt back's first line
    auto* state_addr = static_cast<std::atomic<uint32_t>*>(
        const_cast<void*>(E::state_addr()));
    state_addr->store(CPY);
    E::crash_reset_for_tests();
    E::recover();
    EXPECT_EQ(E::state(), IDL);
    EXPECT_EQ(cell->pload(), 777u) << "main must win in CPY";
    EXPECT_EQ(std::memcmp(E::main_base(), E::back_base(), E::used_bytes()), 0)
        << "back must be refreshed from main";
}

TYPED_TEST(RecoverySemantics, IdleRecoveryIsANoOp) {
    using E = TypeParam;
    auto* cell = this->make_cell(5);
    pmem::reset_tl_stats();
    E::recover();
    EXPECT_EQ(pmem::tl_stats().pwb, 0u) << "IDL recovery must write nothing";
    EXPECT_EQ(cell->pload(), 5u);
}

TYPED_TEST(RecoverySemantics, RecoveryIsIdempotent) {
    using E = TypeParam;
    auto* cell = this->make_cell(42);
    E::begin_transaction();
    *cell = 43u;
    E::crash_reset_for_tests();
    E::recover();
    const uint64_t after_first = cell->pload();
    E::recover();
    E::recover();
    EXPECT_EQ(cell->pload(), after_first);
    EXPECT_EQ(E::state(), IDL);
}

TYPED_TEST(RecoverySemantics, MagicMismatchReformatsInsteadOfMisreading) {
    using E = TypeParam;
    this->make_cell(1234);
    std::string path = this->session_->path;
    E::close();
    // Corrupt the magic: the engine must treat the heap as foreign/new.
    {
        FILE* f = fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        uint64_t bogus = 0x1111111111111111ull;
        fwrite(&bogus, 8, 1, f);
        fclose(f);
    }
    E::init(8u << 20, path);
    EXPECT_EQ(E::template get_object<void>(0), nullptr) << "reformatted";
    EXPECT_EQ(E::state(), IDL);
}

TYPED_TEST(RecoverySemantics, HeaderPageIsOwnedByItsOwnVariantOnly) {
    using E = TypeParam;
    this->make_cell(1234);
    const size_t size = E::region().size();
    alignas(64) uint8_t page[E::kHeaderReserved];
    std::memcpy(page, E::region().base(), sizeof page);
    EXPECT_TRUE(E::owns_heap(page, size));
    EXPECT_EQ(RomulusNL::owns_heap(page, size), (std::is_same_v<E, RomulusNL>));
    EXPECT_EQ(RomulusLog::owns_heap(page, size),
              (std::is_same_v<E, RomulusLog>));
    EXPECT_EQ(RomulusLR::owns_heap(page, size), (std::is_same_v<E, RomulusLR>));
    EXPECT_FALSE(E::owns_heap(page, size - 4096)) << "file 4 KiB short";
    EXPECT_FALSE(E::owns_heap(page, size + 4096)) << "file 4 KiB long";
    page[0] ^= 0xFF;  // the magic's first byte
    EXPECT_FALSE(E::owns_heap(page, size)) << "magic flipped";
}

TYPED_TEST(RecoverySemantics, UsedSizeGrowsMonotonicallyAndBoundsRecovery) {
    using E = TypeParam;
    const uint64_t used0 = E::used_bytes();
    this->make_cell(1);
    const uint64_t used1 = E::used_bytes();
    EXPECT_GT(used1, used0);
    E::updateTx([&] {
        void* big = E::alloc_bytes(1u << 20);
        E::free_bytes(big);
    });
    const uint64_t used2 = E::used_bytes();
    EXPECT_GE(used2, used1 + (1u << 20));
    // Freeing never shrinks used_size (it is a high-water mark).
    E::updateTx([&] {
        void* p = E::alloc_bytes(64);
        E::free_bytes(p);
    });
    EXPECT_GE(E::used_bytes(), used2);
    EXPECT_LE(E::used_bytes(), E::main_size());
}
