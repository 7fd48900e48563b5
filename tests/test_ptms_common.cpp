// Behaviour every PTM must share (the public API contract): transactions,
// roots, allocation, persistence across close/reopen, concurrent counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;
using romulus::test::EngineSession;

template <typename P>
class PtmCommon : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ = std::make_unique<EngineSession<P>>(16u << 20, P::name());
    }
    void TearDown() override { session_.reset(); }
    std::unique_ptr<EngineSession<P>> session_;
};

TYPED_TEST_SUITE(PtmCommon, romulus::test::AllPtms);

TYPED_TEST(PtmCommon, RootsStartNull) {
    using P = TypeParam;
    for (int i = 0; i < kMaxRootObjects; ++i)
        EXPECT_EQ(P::template get_object<void>(i), nullptr);
}

TYPED_TEST(PtmCommon, UpdateTxPublishesAndReadTxObserves) {
    using P = TypeParam;
    P::updateTx([&] {
        auto* v = P::template tmNew<typename P::template p<uint64_t>>();
        *v = 77u;
        P::put_object(3, v);
    });
    uint64_t got = 0;
    P::readTx([&] {
        auto* v = P::template get_object<typename P::template p<uint64_t>>(3);
        ASSERT_NE(v, nullptr);
        got = v->pload();
    });
    EXPECT_EQ(got, 77u);
}

TYPED_TEST(PtmCommon, DataSurvivesCloseAndReopen) {
    using P = TypeParam;
    P::updateTx([&] {
        auto* v = P::template tmNew<typename P::template p<uint64_t>>();
        *v = 0xABCDu;
        P::put_object(0, v);
    });
    std::string path = this->session_->path;
    P::close();
    P::init(16u << 20, path);
    uint64_t got = 0;
    P::readTx([&] {
        got = P::template get_object<typename P::template p<uint64_t>>(0)->pload();
    });
    EXPECT_EQ(got, 0xABCDu);
}

TYPED_TEST(PtmCommon, ReopenWithoutSizeMapsTheHeapAtItsOwnSize) {
    using P = TypeParam;
    P::updateTx([&] {
        auto* v = P::template tmNew<typename P::template p<uint64_t>>();
        *v = 0x5EEDu;
        P::put_object(2, v);
    });
    std::string path = this->session_->path;
    P::close();
    P::init(0, path);  // not the 64 MiB default: the file's own 16 MiB
    EXPECT_EQ(P::region().size(), size_t{16} << 20);
    uint64_t got = 0;
    P::readTx([&] {
        auto* v = P::template get_object<typename P::template p<uint64_t>>(2);
        ASSERT_NE(v, nullptr) << "init(0) reformatted the heap";
        got = v->pload();
    });
    EXPECT_EQ(got, 0x5EEDu);
}

// A file that cannot be a heap (not whole pages, or smaller than a header
// page and one shard) is refused before init maps it: the mapping would
// resize it first.
TYPED_TEST(PtmCommon, InitWithoutSizeRefusesANonHeapFileUntouched) {
    using P = TypeParam;
    P::close();
    const std::string path = this->session_->path + ".text";
    for (size_t bytes : {size_t{1100}, size_t{5000}}) {
        std::string text;
        for (size_t i = 0; text.size() < bytes; ++i)
            text += "line " + std::to_string(i) + " of a text file\n";
        text.resize(bytes);
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << text;
        }
        EXPECT_THROW(P::init(0, path), NotAHeapError) << bytes << " bytes";
        EXPECT_FALSE(P::initialized());
        std::ifstream f(path, std::ios::binary);
        const std::string after((std::istreambuf_iterator<char>(f)),
                                std::istreambuf_iterator<char>());
        EXPECT_EQ(after.size(), bytes);
        EXPECT_TRUE(after == text) << bytes << "-byte file was modified";
    }
    std::remove(path.c_str());
    P::init(16u << 20, this->session_->path);
}

TYPED_TEST(PtmCommon, StoreRangeRoundTrips) {
    using P = TypeParam;
    constexpr size_t kN = 1000;
    std::vector<uint8_t> in(kN);
    for (size_t i = 0; i < kN; ++i) in[i] = uint8_t(i * 7 + 1);
    P::updateTx([&] {
        void* buf = P::alloc_bytes(kN);
        P::store_range(buf, in.data(), kN);
        P::put_object(1, buf);
    });
    std::vector<uint8_t> out(kN, 0);
    P::readTx([&] {
        auto* buf = P::template get_object<uint8_t>(1);
        std::memcpy(out.data(), buf, kN);
    });
    EXPECT_EQ(in, out);
}

TYPED_TEST(PtmCommon, NestedUpdateTxRunsFlat) {
    using P = TypeParam;
    P::updateTx([&] {
        auto* v = P::template tmNew<typename P::template p<uint64_t>>();
        *v = 1u;
        P::put_object(2, v);
        P::updateTx([&] { *v += 10u; });  // nested: same transaction
        P::readTx([&] { EXPECT_EQ(v->pload(), 11u); });
    });
    uint64_t got = 0;
    P::readTx([&] {
        got = P::template get_object<typename P::template p<uint64_t>>(2)->pload();
    });
    EXPECT_EQ(got, 11u);
}

TYPED_TEST(PtmCommon, FreedMemoryIsReusedNotLeaked) {
    using P = TypeParam;
    void* first = nullptr;
    P::updateTx([&] {
        first = P::alloc_bytes(256);
        P::free_bytes(first);
    });
    // Allocating the same size again should reuse the freed chunk (the
    // allocator is first-fit within the bin).
    void* second = nullptr;
    P::updateTx([&] {
        second = P::alloc_bytes(256);
        P::free_bytes(second);
    });
    EXPECT_EQ(first, second);
}

TYPED_TEST(PtmCommon, ConcurrentDisjointCountersSumCorrectly) {
    using P = TypeParam;
    constexpr int kThreads = 3, kIncs = 150;
    using PU = typename P::template p<uint64_t>;
    P::updateTx([&] {
        for (int i = 0; i < kThreads; ++i) {
            auto* c = P::template tmNew<PU>();
            *c = 0u;
            P::put_object(i, c);
        }
    });
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&, i] {
            for (int j = 0; j < kIncs; ++j)
                P::updateTx([&] {
                    *P::template get_object<PU>(i) += 1u;
                });
        });
    }
    for (auto& t : ts) t.join();
    for (int i = 0; i < kThreads; ++i) {
        uint64_t got = 0;
        P::readTx([&] { got = P::template get_object<PU>(i)->pload(); });
        EXPECT_EQ(got, uint64_t(kIncs)) << "counter " << i;
    }
}

TYPED_TEST(PtmCommon, ConcurrentSharedCounterIsLinearizable) {
    using P = TypeParam;
    constexpr int kThreads = 4, kIncs = 100;
    using PU = typename P::template p<uint64_t>;
    P::updateTx([&] {
        auto* c = P::template tmNew<PU>();
        *c = 0u;
        P::put_object(0, c);
    });
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            for (int j = 0; j < kIncs; ++j)
                P::updateTx([&] { *P::template get_object<PU>(0) += 1u; });
        });
    }
    for (auto& t : ts) t.join();
    uint64_t got = 0;
    P::readTx([&] { got = P::template get_object<PU>(0)->pload(); });
    EXPECT_EQ(got, uint64_t(kThreads) * kIncs);
}

TYPED_TEST(PtmCommon, ReadersRunWhileWriterCommits) {
    using P = TypeParam;
    using PU = typename P::template p<uint64_t>;
    P::updateTx([&] {
        auto* c = P::template tmNew<PU>();
        *c = 0u;
        P::put_object(0, c);
    });
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> reads{0};
    std::thread reader([&] {
        while (!stop.load()) {
            uint64_t v = 0;
            P::readTx([&] { v = P::template get_object<PU>(0)->pload(); });
            EXPECT_LE(v, 1000000u);
            reads.fetch_add(1);
        }
    });
    // Write until the reader demonstrably made progress alongside us (with
    // a generous cap so a wedged implementation still fails, not hangs).
    uint64_t writes = 0;
    while ((writes < 500 || reads.load() < 10) && writes < 1000000) {
        P::updateTx([&] { *P::template get_object<PU>(0) += 1u; });
        ++writes;
        std::this_thread::yield();  // single-core machines: let readers in
    }
    stop.store(true);
    reader.join();
    EXPECT_GE(reads.load(), 10u);
    uint64_t got = 0;
    P::readTx([&] { got = P::template get_object<PU>(0)->pload(); });
    EXPECT_EQ(got, writes);
}
