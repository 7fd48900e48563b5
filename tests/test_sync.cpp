// Unit tests for the synchronization substrate: spin lock, read indicator,
// C-RW-WP, flat combining and Left-Right.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sync/crwwp.hpp"
#include "sync/flat_combining.hpp"
#include "sync/left_right.hpp"
#include "sync/spinlock.hpp"
#include "sync/thread_registry.hpp"

using namespace romulus::sync;

TEST(SpinLockTest, MutualExclusion) {
    SpinLock lock;
    int counter = 0;
    std::vector<std::thread> ts;
    for (int t = 0; t < 4; ++t) {
        ts.emplace_back([&] {
            for (int i = 0; i < 5000; ++i) {
                lock.lock();
                ++counter;  // data race if exclusion is broken (TSan-visible)
                lock.unlock();
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(counter, 4 * 5000);
}

TEST(SpinLockTest, TryLockFailsWhenHeld) {
    SpinLock lock;
    lock.lock();
    EXPECT_FALSE(lock.try_lock());
    EXPECT_TRUE(lock.is_locked());
    lock.unlock();
    EXPECT_TRUE(lock.try_lock());
    lock.unlock();
}

TEST(ThreadRegistryTest, IdsAreSmallStableAndRecycled) {
    const int my = tid();
    EXPECT_GE(my, 0);
    EXPECT_LT(my, kMaxThreads);
    EXPECT_EQ(tid(), my);  // stable within the thread

    int child_id1 = -1, child_id2 = -1;
    std::thread([&] { child_id1 = tid(); }).join();
    std::thread([&] { child_id2 = tid(); }).join();
    EXPECT_NE(child_id1, my);
    EXPECT_NE(child_id2, my);
    EXPECT_EQ(child_id1, child_id2);  // slot recycled after thread exit
    EXPECT_GE(max_tids(), 2);
}

TEST(ReadIndicatorTest, ArriveDepartEmptiness) {
    ReadIndicator ri;
    EXPECT_TRUE(ri.is_empty());
    const int t = tid();
    ri.arrive(t);
    EXPECT_FALSE(ri.is_empty());
    ri.arrive(t);  // re-entrant counting
    ri.depart(t);
    EXPECT_FALSE(ri.is_empty());
    ri.depart(t);
    EXPECT_TRUE(ri.is_empty());
}

TEST(CRWWPTest, WriterExcludesReadersAndViceVersa) {
    CRWWPLock lock;
    std::atomic<int> readers_in{0};
    std::atomic<bool> writer_in{false};
    std::atomic<bool> violation{false};
    std::atomic<bool> stop{false};

    std::vector<std::thread> ts;
    for (int r = 0; r < 3; ++r) {
        ts.emplace_back([&] {
            const int t = tid();
            while (!stop.load()) {
                lock.read_lock(t);
                readers_in.fetch_add(1);
                if (writer_in.load()) violation.store(true);
                readers_in.fetch_sub(1);
                lock.read_unlock(t);
            }
        });
    }
    for (int w = 0; w < 2; ++w) {
        ts.emplace_back([&] {
            for (int i = 0; i < 300; ++i) {
                lock.write_lock();
                writer_in.store(true);
                if (readers_in.load() != 0) violation.store(true);
                writer_in.store(false);
                lock.write_unlock();
                std::this_thread::yield();
            }
        });
    }
    // Let writers finish, then stop readers.
    for (size_t i = 3; i < ts.size(); ++i) ts[i].join();
    stop.store(true);
    for (size_t i = 0; i < 3; ++i) ts[i].join();
    EXPECT_FALSE(violation.load());
}

TEST(CRWWPTest, TryWriteLockRespectsExclusivity) {
    CRWWPLock lock;
    EXPECT_TRUE(lock.try_write_lock());
    EXPECT_FALSE(lock.try_write_lock());
    lock.write_unlock();
    EXPECT_TRUE(lock.try_write_lock());
    lock.write_unlock();
}

TEST(FlatCombiningTest, AnnounceExecuteMarkDone) {
    FlatCombiningArray<> fc;
    const int t = tid();
    EXPECT_TRUE(fc.is_done(t));  // nothing announced yet

    int runs = 0;
    FlatCombiningArray<>::Op op = [&] { ++runs; };
    fc.announce(t, &op);
    EXPECT_FALSE(fc.is_done(t));

    int seen = 0;
    fc.for_each_announced([&](int slot, FlatCombiningArray<>::Op* o) {
        (*o)();
        fc.mark_done(slot);
        ++seen;
    });
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(seen, 1);
    EXPECT_TRUE(fc.is_done(t));
}

TEST(FlatCombiningTest, CombinerAggregatesManyThreads) {
    FlatCombiningArray<> fc;
    SpinLock lock;
    std::atomic<int> executed{0};
    constexpr int kThreads = 4;
    std::vector<std::thread> ts;
    for (int i = 0; i < kThreads; ++i) {
        ts.emplace_back([&] {
            const int t = tid();
            FlatCombiningArray<>::Op op = [&] { executed.fetch_add(1); };
            fc.announce(t, &op);
            unsigned spins = 0;
            while (!fc.is_done(t)) {
                if (lock.try_lock()) {
                    fc.for_each_announced([&](int s, FlatCombiningArray<>::Op* o) {
                        (*o)();
                        fc.mark_done(s);
                    });
                    lock.unlock();
                } else {
                    spin_wait(spins);
                }
            }
        });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(executed.load(), kThreads);
}

TEST(LeftRightTest, ReadersNeverSeeTheRegionBeingWritten) {
    LeftRight lr;
    // Two "instances" guarded by lr; the writer mutates the one readers are
    // NOT directed at, after draining.
    std::atomic<uint64_t> instance[2] = {{0}, {0}};
    std::atomic<bool> stop{false};
    std::atomic<bool> violation{false};
    std::atomic<uint64_t> being_written{2};  // 2 = none

    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            const int t = tid();
            while (!stop.load()) {
                int vi = lr.arrive(t);
                int region = lr.read_region();
                // Map the LR constant onto our instance index: kReadMain=0.
                if (being_written.load() == uint64_t(region))
                    violation.store(true);
                (void)instance[region].load();
                lr.depart(t, vi);
            }
        });
    }

    for (int i = 0; i < 400; ++i) {
        // Writer protocol mirroring RomulusLR's update transaction.
        being_written.store(LeftRight::kReadMain);
        instance[LeftRight::kReadMain].fetch_add(1);
        being_written.store(2);
        lr.set_read_region(LeftRight::kReadMain);
        lr.toggle_version_and_wait();
        being_written.store(LeftRight::kReadBack);
        instance[LeftRight::kReadBack].fetch_add(1);
        being_written.store(2);
        lr.set_read_region(LeftRight::kReadBack);
        lr.toggle_version_and_wait();
    }
    stop.store(true);
    for (auto& t : readers) t.join();
    EXPECT_FALSE(violation.load());
    EXPECT_EQ(instance[0].load(), 400u);
    EXPECT_EQ(instance[1].load(), 400u);
}

TEST(LeftRightTest, DefaultReadRegionIsBack) {
    // RomulusLR's steady state: readers on back, writers own main (§5.3).
    LeftRight lr;
    EXPECT_EQ(lr.read_region(), LeftRight::kReadBack);
}
