// RomulusDB / KVStore / WalDB tests: durability semantics, batches,
// iteration, reopen, and the WalDB baseline's buffered-durability model.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "db/romulusdb.hpp"
#include "db/waldb.hpp"
#include "test_support.hpp"

using namespace romulus;
using db::RomulusDB;
using db::WriteBatch;
using db::WriteOptions;

class RomulusDbTest : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        path_ = test::heap_path("romulusdb");
        std::remove(path_.c_str());
        db_ = RomulusDB::open(path_, 64u << 20);
    }
    void TearDown() override {
        db_.reset();
        if (RomulusLog::initialized()) RomulusLog::close();
        std::remove(path_.c_str());
    }
    std::string path_;
    std::unique_ptr<RomulusDB> db_;
};

TEST_F(RomulusDbTest, PutGetDelete) {
    WriteOptions wo;
    db_->put(wo, "alpha", "1");
    db_->put(wo, "beta", "2");
    std::string v;
    EXPECT_TRUE(db_->get("alpha", &v));
    EXPECT_EQ(v, "1");
    EXPECT_TRUE(db_->get("beta", &v));
    EXPECT_EQ(v, "2");
    EXPECT_FALSE(db_->get("gamma", &v));
    EXPECT_TRUE(db_->del(wo, "alpha"));
    EXPECT_FALSE(db_->del(wo, "alpha"));
    EXPECT_FALSE(db_->get("alpha", &v));
    EXPECT_EQ(db_->size(), 1u);
}

TEST_F(RomulusDbTest, OverwriteSameAndDifferentSizes) {
    WriteOptions wo;
    db_->put(wo, "k", "aaaa");
    db_->put(wo, "k", "bbbb");  // same size: in-place
    std::string v;
    ASSERT_TRUE(db_->get("k", &v));
    EXPECT_EQ(v, "bbbb");
    db_->put(wo, "k", "a much longer value than before");  // realloc
    ASSERT_TRUE(db_->get("k", &v));
    EXPECT_EQ(v, "a much longer value than before");
    EXPECT_EQ(db_->size(), 1u);
}

TEST_F(RomulusDbTest, WriteBatchIsAtomic) {
    WriteOptions wo;
    WriteBatch batch;
    batch.put("a", "1");
    batch.put("b", "2");
    batch.del("a");
    batch.put("c", "3");
    db_->write(wo, batch);
    std::string v;
    EXPECT_FALSE(db_->get("a", &v));
    EXPECT_TRUE(db_->get("b", &v));
    EXPECT_TRUE(db_->get("c", &v));
    EXPECT_EQ(db_->size(), 2u);
}

TEST_F(RomulusDbTest, DataSurvivesReopen) {
    WriteOptions wo;
    for (int i = 0; i < 500; ++i)
        db_->put(wo, "key" + std::to_string(i), "val" + std::to_string(i * 2));
    db_.reset();  // closes the engine

    db_ = RomulusDB::open(path_, 64u << 20);
    EXPECT_EQ(db_->size(), 500u);
    std::string v;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(db_->get("key" + std::to_string(i), &v)) << i;
        EXPECT_EQ(v, "val" + std::to_string(i * 2));
    }
}

TEST_F(RomulusDbTest, IterationVisitsEverythingOnceBothDirections) {
    WriteOptions wo;
    std::map<std::string, std::string> model;
    for (int i = 0; i < 200; ++i) {
        std::string k = "k" + std::to_string(i);
        db_->put(wo, k, std::to_string(i));
        model[k] = std::to_string(i);
    }
    std::map<std::string, std::string> fwd, rev;
    db_->for_each([&](std::string_view k, std::string_view v) {
        fwd.emplace(std::string(k), std::string(v));
    });
    db_->for_each_reverse([&](std::string_view k, std::string_view v) {
        rev.emplace(std::string(k), std::string(v));
    });
    EXPECT_EQ(fwd, model);
    EXPECT_EQ(rev, model);
}

TEST_F(RomulusDbTest, LargeValues100kB) {
    WriteOptions wo;
    std::string big(100 * 1024, 'x');
    for (int i = 0; i < 10; ++i) {
        big[0] = char('a' + i);
        db_->put(wo, "big" + std::to_string(i), big);
    }
    std::string v;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(db_->get("big" + std::to_string(i), &v));
        EXPECT_EQ(v.size(), big.size());
        EXPECT_EQ(v[0], char('a' + i));
    }
}

TEST_F(RomulusDbTest, RandomOpsMatchStdMap) {
    WriteOptions wo;
    std::map<std::string, std::string> model;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 2000; ++i) {
        std::string k = "k" + std::to_string(rng() % 150);
        switch (rng() % 4) {
            case 0:
            case 1: {
                std::string v = "v" + std::to_string(rng() % 1000);
                db_->put(wo, k, v);
                model[k] = v;
                break;
            }
            case 2: {
                EXPECT_EQ(db_->del(wo, k), model.erase(k) > 0);
                break;
            }
            default: {
                std::string got;
                auto it = model.find(k);
                EXPECT_EQ(db_->get(k, &got), it != model.end());
                if (it != model.end()) {
                    EXPECT_EQ(got, it->second);
                }
            }
        }
    }
    EXPECT_EQ(db_->size(), model.size());
}

// A heap whose root store starts with a heap pointer (as the earlier
// three-block layout did, with its `buckets` field) is refused before open
// writes anything, and the crash-image walk calls it corrupt.
TEST_F(RomulusDbTest, OpenRefusesAStoreOfAnotherLayout) {
    db_->put({}, "k", "v");
    db_.reset();  // closes the engine
    RomulusLog::init(64u << 20, path_);
    using KV = db::KVStore<RomulusLog>;
    KV* store = RomulusLog::get_object<KV>(RomulusDB::kRootIdx, 0);
    ASSERT_NE(store, nullptr);
    RomulusLog::updateTx(0, [&] {
        const void* heap_ptr = store;
        RomulusLog::store_range(store, &heap_ptr, sizeof heap_ptr);
    });
    std::string why;
    EXPECT_FALSE(store->safe_for_each([](std::string_view, std::string_view) {},
                                      [](const void*, size_t) { return true; },
                                      &why));
    EXPECT_EQ(why, "store format word mismatch");
    RomulusLog::close();

    auto file_bytes = [&] {
        std::ifstream in(path_, std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(in), {});
    };
    const std::vector<char> before = file_bytes();
    ASSERT_FALSE(before.empty());
    try {
        db_ = RomulusDB::open(path_, 64u << 20);
        ADD_FAILURE() << "open accepted a store of another layout";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("another layout"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(RomulusLog::initialized());
    EXPECT_TRUE(file_bytes() == before) << "the refused open wrote the heap";
}

// ---------------------------------------------------------------- WalDB

TEST(WalDbTest, PutGetDeleteAndOrder) {
    std::remove("/tmp/romulus_waldb_test.wal");
    db::WalDbOptions opts;
    opts.fsync_latency_ns = 0;
    db::WalDB w("/tmp/romulus_waldb_test.wal", opts);
    w.put("b", "2");
    w.put("a", "1");
    w.put("c", "3");
    std::string v;
    EXPECT_TRUE(w.get("b", &v));
    EXPECT_EQ(v, "2");
    w.del("b");
    EXPECT_FALSE(w.get("b", &v));
    std::vector<std::string> keys;
    w.for_each([&](const std::string& k, const std::string&) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<std::string>{"a", "c"}));
    keys.clear();
    w.for_each_reverse(
        [&](const std::string& k, const std::string&) { keys.push_back(k); });
    EXPECT_EQ(keys, (std::vector<std::string>{"c", "a"}));
}

TEST(WalDbTest, BufferedDurabilitySyncsEveryIntervalOnly) {
    db::WalDbOptions opts;
    opts.sync_interval_bytes = 1000;  // tiny interval for the test
    opts.fsync_latency_ns = 0;
    std::remove("/tmp/romulus_waldb_test2.wal");
    db::WalDB w("/tmp/romulus_waldb_test2.wal", opts);
    std::string v100(100, 'v');
    for (int i = 0; i < 100; ++i) w.put("k" + std::to_string(i), v100);
    // ~109 bytes per record -> a sync roughly every 9 writes, not 100 syncs.
    EXPECT_GE(w.fdatasync_count(), 5u);
    EXPECT_LE(w.fdatasync_count(), 20u);
}

TEST(WalDbTest, SyncWritesAlwaysSync) {
    db::WalDbOptions opts;
    opts.fsync_latency_ns = 0;
    std::remove("/tmp/romulus_waldb_test3.wal");
    db::WalDB w("/tmp/romulus_waldb_test3.wal", opts);
    for (int i = 0; i < 25; ++i)
        w.put("k" + std::to_string(i), "v", /*sync=*/true);
    EXPECT_EQ(w.fdatasync_count(), 25u);
}

TEST(WalDbTest, ReplayRecoversSyncedStateAfterReopen) {
    const char* path = "/tmp/romulus_waldb_replay.wal";
    std::remove(path);
    db::WalDbOptions opts;
    opts.fsync_latency_ns = 0;
    opts.write_bandwidth_bps = 0;
    {
        db::WalDB w(path, opts);
        w.put("a", "1", /*sync=*/true);
        w.put("b", "2", /*sync=*/true);
        w.del("a", /*sync=*/true);
        w.put("c", "3", /*sync=*/true);
        // destructor closes the fd; the WAL file remains
    }
    db::WalDB r(path, opts);
    std::string v;
    EXPECT_FALSE(r.get("a", &v));
    EXPECT_TRUE(r.get("b", &v));
    EXPECT_EQ(v, "2");
    EXPECT_TRUE(r.get("c", &v));
    EXPECT_EQ(v, "3");
    EXPECT_EQ(r.size(), 2u);
    r.destroy();
}

TEST(WalDbTest, ReplayIgnoresTornTailRecord) {
    const char* path = "/tmp/romulus_waldb_torn.wal";
    std::remove(path);
    db::WalDbOptions opts;
    opts.fsync_latency_ns = 0;
    opts.write_bandwidth_bps = 0;
    {
        db::WalDB w(path, opts);
        w.put("keep", "me", /*sync=*/true);
    }
    // Simulate a crash mid-append: a partial record at the tail.
    FILE* f = fopen(path, "ab");
    ASSERT_NE(f, nullptr);
    const char partial[] = {'P', 9, 0};  // truncated header
    fwrite(partial, 1, sizeof partial, f);
    fclose(f);

    db::WalDB r(path, opts);
    std::string v;
    EXPECT_TRUE(r.get("keep", &v));
    EXPECT_EQ(v, "me");
    EXPECT_EQ(r.size(), 1u);
    r.destroy();
}
