// KVStore<PTM> is PTM-generic: exercise the full key-value surface across
// all five PTMs (RomulusDB itself pins RomulusLog, §6.4, but the
// construction works over any of them — that is the paper's point).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>

#include "db/kvstore.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;
using db::KVStore;
using db::WriteBatch;
using romulus::test::EngineSession;

template <typename P>
class KvTyped : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        session_ = std::make_unique<EngineSession<P>>(48u << 20, P::name());
        P::updateTx([&] {
            store_ = P::template tmNew<KVStore<P>>(64);
            P::put_object(0, store_);
        });
    }
    void TearDown() override {
        // No tmDelete here: destroying a store with thousands of entries is
        // one huge transaction (beyond the redo-log baseline's capacity);
        // the session teardown deletes the whole heap file instead.
        session_.reset();
    }
    std::unique_ptr<EngineSession<P>> session_;
    KVStore<P>* store_ = nullptr;
};

TYPED_TEST_SUITE(KvTyped, romulus::test::AllPtms);

TYPED_TEST(KvTyped, PutGetDelOverwrite) {
    auto* kv = this->store_;
    kv->put("k1", "hello");
    kv->put("k2", "world");
    std::string v;
    EXPECT_TRUE(kv->get("k1", &v));
    EXPECT_EQ(v, "hello");
    kv->put("k1", "HELLO");  // same size, in-place
    EXPECT_TRUE(kv->get("k1", &v));
    EXPECT_EQ(v, "HELLO");
    kv->put("k1", "much longer replacement value");  // realloc
    EXPECT_TRUE(kv->get("k1", &v));
    EXPECT_EQ(v, "much longer replacement value");
    EXPECT_TRUE(kv->del("k1"));
    EXPECT_FALSE(kv->del("k1"));
    EXPECT_FALSE(kv->get("k1", &v));
    EXPECT_EQ(kv->size(), 1u);
}

TYPED_TEST(KvTyped, EmptyKeysAndValues) {
    auto* kv = this->store_;
    kv->put("", "empty key");
    kv->put("empty value", "");
    std::string v;
    EXPECT_TRUE(kv->get("", &v));
    EXPECT_EQ(v, "empty key");
    EXPECT_TRUE(kv->get("empty value", &v));
    EXPECT_EQ(v, "");
    EXPECT_EQ(kv->size(), 2u);
}

TYPED_TEST(KvTyped, BinarySafeValues) {
    auto* kv = this->store_;
    std::string bin;
    for (int i = 0; i < 256; ++i) bin.push_back(char(i));
    kv->put("bin", bin);
    std::string v;
    ASSERT_TRUE(kv->get("bin", &v));
    EXPECT_EQ(v, bin);
}

TYPED_TEST(KvTyped, BatchAtomicity) {
    auto* kv = this->store_;
    kv->put("stay", "1");
    WriteBatch b;
    b.put("a", "1");
    b.del("stay");
    b.put("b", "2");
    kv->write(b);
    EXPECT_TRUE(kv->contains("a"));
    EXPECT_TRUE(kv->contains("b"));
    EXPECT_FALSE(kv->contains("stay"));
}

TYPED_TEST(KvTyped, GrowsThroughManyInserts) {
    using P = TypeParam;
    auto* kv = this->store_;
    // Batched (redo-log-friendly) bulk load past several resize points.
    constexpr int kN = 2000;
    for (int base = 0; base < kN; base += 50) {
        P::updateTx([&] {
            for (int i = base; i < base + 50; ++i) {
                WriteBatch b;  // exercise both single puts and batches
                kv->put("key" + std::to_string(i), "v" + std::to_string(i));
            }
        });
    }
    EXPECT_EQ(kv->size(), uint64_t(kN));
    std::string v;
    for (int i = 0; i < kN; i += 97) {
        ASSERT_TRUE(kv->get("key" + std::to_string(i), &v));
        EXPECT_EQ(v, "v" + std::to_string(i));
    }
}

TYPED_TEST(KvTyped, RandomOpsMatchStdMap) {
    auto* kv = this->store_;
    std::map<std::string, std::string> model;
    std::mt19937_64 rng(4242);
    for (int i = 0; i < 1500; ++i) {
        std::string k = "k" + std::to_string(rng() % 120);
        switch (rng() % 4) {
            case 0:
            case 1: {
                std::string v(rng() % 40 + 1, char('a' + rng() % 26));
                kv->put(k, v);
                model[k] = v;
                break;
            }
            case 2:
                ASSERT_EQ(kv->del(k), model.erase(k) > 0) << i;
                break;
            default: {
                std::string got;
                auto it = model.find(k);
                ASSERT_EQ(kv->get(k, &got), it != model.end()) << i;
                if (it != model.end()) {
                    ASSERT_EQ(got, it->second);
                }
            }
        }
    }
    EXPECT_EQ(kv->size(), model.size());
    std::map<std::string, std::string> dumped;
    kv->for_each([&](std::string_view k, std::string_view v) {
        dumped.emplace(std::string(k), std::string(v));
    });
    EXPECT_EQ(dumped, model);
}

TYPED_TEST(KvTyped, SurvivesReopen) {
    using P = TypeParam;
    auto* kv = this->store_;
    for (int i = 0; i < 100; ++i)
        kv->put("p" + std::to_string(i), std::to_string(i * i));

    std::string path = this->session_->path;
    P::close();
    P::init(48u << 20, path);
    auto* re = P::template get_object<KVStore<P>>(0);
    ASSERT_NE(re, nullptr);
    this->store_ = re;
    EXPECT_EQ(re->size(), 100u);
    std::string v;
    ASSERT_TRUE(re->get("p7", &v));
    EXPECT_EQ(v, "49");
}

// One block per record: after every phase the allocator holds the store's
// own blocks plus exactly one per live record, so a replaced record's old
// block is freed.  500 keys in 64 buckets pass through every load factor up
// to 1, so replacements relink records at the head, middle and tail of
// multi-record chains.  One put per transaction keeps the redo baseline's
// log small.
TYPED_TEST(KvTyped, ReplacingRecordsKeepsChainsAndFreesOldBlocks) {
    using P = TypeParam;
    auto* kv = this->store_;
    const uint64_t base = P::allocator().alloc_count();
    std::map<std::string, std::string> model;
    auto check = [&](const char* phase) {
        SCOPED_TRACE(phase);
        EXPECT_EQ(P::allocator().alloc_count(), base + model.size());
        EXPECT_EQ(kv->size(), model.size());
        std::map<std::string, std::string> dumped;
        kv->for_each([&](std::string_view k, std::string_view v) {
            dumped.emplace(std::string(k), std::string(v));
        });
        EXPECT_EQ(dumped, model);
        std::string got;
        for (const auto& [k, v] : model) {
            ASSERT_TRUE(kv->get(k, &got)) << k;
            EXPECT_EQ(got, v) << k;
        }
    };
    constexpr int kN = 500;
    auto key = [](int i) { return "r" + std::to_string(i); };
    for (int i = 0; i < kN; ++i) {
        kv->put(key(i), "8 bytes!");
        model[key(i)] = "8 bytes!";
    }
    check("insert");
    for (int i = 0; i < kN; ++i) {  // 9..15 bytes: every record is replaced
        const std::string v(9 + i % 7, char('a' + i % 26));
        kv->put(key(i), v);
        model[key(i)] = v;
    }
    check("overwrite");
    std::string got;
    for (int i = 0; i < kN; i += 2) {
        EXPECT_TRUE(kv->del(key(i)));
        EXPECT_FALSE(kv->get(key(i), &got));
        model.erase(key(i));
    }
    check("delete");
}

// The crash-image walk bounds-checks a record whole before it reads a byte
// of its key or value: a val_len that runs one record a byte past the
// window ends the walk with the record-bounds reason, and the record's
// key never reaches the callback.
TYPED_TEST(KvTyped, SafeForEachRejectsARecordPastTheWindow) {
    using P = TypeParam;
    using Node = typename KVStore<P>::Node;
    auto* kv = this->store_;
    for (int i = 0; i < 200; ++i)
        kv->put("w" + std::to_string(i), "value " + std::to_string(i));
    // An open first walk: every range it checks lies in [lo, hi), the
    // window of the second walk.  A record's header sits right before its
    // key bytes.
    uintptr_t lo = UINTPTR_MAX, hi = 0;
    auto record_all = [&](const void* p, size_t len) {
        lo = std::min(lo, uintptr_t(p));
        hi = std::max(hi, uintptr_t(p) + len);
        return true;
    };
    Node* victim = nullptr;
    ASSERT_TRUE(kv->safe_for_each(
        [&](std::string_view k, std::string_view) {
            if (k == "w7")
                victim = reinterpret_cast<Node*>(const_cast<char*>(k.data()) -
                                                 sizeof(Node));
        },
        record_all));
    ASSERT_NE(victim, nullptr);
    const uintptr_t vals = uintptr_t(victim->val_buf(victim->key_len.pload()));
    P::updateTx([&] { victim->val_len = uint32_t(hi + 1 - vals); });

    auto window = [&](const void* p, size_t len) {
        return uintptr_t(p) >= lo && uintptr_t(p) + len <= hi;
    };
    std::set<std::string> seen;
    std::string why;
    EXPECT_FALSE(kv->safe_for_each(
        [&](std::string_view k, std::string_view) { seen.emplace(k); }, window,
        &why));
    EXPECT_EQ(why, "record out of bounds");
    EXPECT_EQ(seen.count("w7"), 0u);
}
