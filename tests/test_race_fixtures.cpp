// Positive-detection fixtures (compiled only under -DROMULUS_RACECHECK):
// deliberately broken variants of the two synchronization protocols the
// paper's correctness argument leans on, each with a correctly-synchronised
// control run.  The broken run must produce exactly one race with the right
// access-pair attribution; the control run must be silent.  Together with
// the clean-suite run (race_clean_stress) this pins both sides of the
// detector: it fires on the seeded bugs and only on them.
//
// Scheduling uses test-local std::atomics, which create no detector edges,
// so the interleaving the fixture needs is deterministic.  Racing threads
// stay alive concurrently throughout (tid slots are recycled after join).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/race_detector.hpp"
#include "analysis/race_hooks.hpp"
#include "sync/crwwp.hpp"
#include "sync/left_right.hpp"
#include "sync/read_indicator.hpp"
#include "sync/spinlock.hpp"
#include "sync/stripe_lock.hpp"
#include "sync/thread_registry.hpp"

namespace {

using romulus::analysis::RaceDetector;
using romulus::analysis::race_read;
using romulus::analysis::race_register_region;
using romulus::analysis::race_unregister_region;
using romulus::analysis::race_write;

void await(const std::atomic<int>& step, int v) {
    while (step.load(std::memory_order_acquire) < v) std::this_thread::yield();
}

void advance(std::atomic<int>& step, int v) {
    step.store(v, std::memory_order_release);
}

class RaceFixtureTest : public ::testing::Test {
  protected:
    void SetUp() override {
        auto& d = RaceDetector::instance();
        d.reset();
        d.enable();
        race_register_region(words_, sizeof(words_), "Fixture", "heap",
                             nullptr);
    }
    void TearDown() override {
        race_unregister_region(words_);
        auto& d = RaceDetector::instance();
        d.disable();
        d.reset();
    }
    alignas(8) static uint64_t words_[4];
};

uint64_t RaceFixtureTest::words_[4];

// ---------------------------------------------------------------------------
// Fixture A: C-RW-WP with the writer barrier elided.
// ---------------------------------------------------------------------------

/// CRWWPLock with the seeded bug: write_lock() skips wait_readers(), so the
/// writer can mutate while a reader is still inside its critical section.
/// Everything else (including the annotations) matches sync/crwwp.hpp.
class ElidedBarrierCRWWPLock {
  public:
    void read_lock(int t) {
        unsigned spins = 0;
        while (true) {
            ri_.arrive(t);
            if (!writer_present_.load(std::memory_order_seq_cst)) {
                ROMULUS_RACE_ACQUIRE(this, "crwwp.read_lock");
                return;
            }
            ri_.depart(t);
            while (writer_present_.load(std::memory_order_relaxed))
                romulus::sync::spin_wait(spins);
        }
    }

    void read_unlock(int t) { ri_.depart(t); }

    void write_lock() {
        writers_mutex_.lock();
        writer_present_.store(true, std::memory_order_seq_cst);
        // BUG (seeded): no wait_readers() — the drain, and with it the
        // "crwwp.drain" acquire edge, is missing.
    }

    void write_unlock() {
        ROMULUS_RACE_RELEASE(this, "crwwp.write_unlock");
        writer_present_.store(false, std::memory_order_release);
        writers_mutex_.unlock();
    }

  private:
    romulus::sync::SpinLock writers_mutex_;
    std::atomic<bool> writer_present_{false};
    romulus::sync::ReadIndicator ri_;
};

TEST_F(RaceFixtureTest, CRWWPElidedBarrierIsDetected) {
    ElidedBarrierCRWWPLock lk;
    std::atomic<int> step{0};
    int reader_tid = -1, writer_tid = -1;

    std::thread reader([&] {
        reader_tid = romulus::sync::tid();
        lk.read_lock(reader_tid);
        race_read(&words_[0], 8);
        advance(step, 1);
        await(step, 2);  // still inside the read-side critical section
        lk.read_unlock(reader_tid);
    });
    std::thread writer([&] {
        writer_tid = romulus::sync::tid();
        await(step, 1);
        lk.write_lock();  // does not wait for the reader to depart
        race_write(&words_[0], 8);
        advance(step, 2);
        lk.write_unlock();
    });
    reader.join();
    writer.join();

    auto& d = RaceDetector::instance();
    ASSERT_EQ(d.race_count(), 1u) << d.report_text();
    auto r = d.reports()[0];
    EXPECT_STREQ(r.kind, "read-then-write");
    EXPECT_EQ(r.prev.tid, reader_tid);
    EXPECT_FALSE(r.prev.is_write);
    EXPECT_EQ(r.cur.tid, writer_tid);
    EXPECT_TRUE(r.cur.is_write);
    EXPECT_EQ(r.prev.addr, reinterpret_cast<uintptr_t>(&words_[0]));
    EXPECT_EQ(r.cur.addr, reinterpret_cast<uintptr_t>(&words_[0]));
}

// Control: the real sync::CRWWPLock, whose write_lock() drains the read
// indicator (acquiring the departed reader's clock), reports nothing.
TEST_F(RaceFixtureTest, CRWWPProperBarrierIsSilent) {
    romulus::sync::CRWWPLock lk;
    std::atomic<int> step{0};

    std::thread reader([&] {
        const int t = romulus::sync::tid();
        lk.read_lock(t);
        race_read(&words_[0], 8);
        lk.read_unlock(t);  // departed: the ri.depart release is recorded
        advance(step, 1);
        await(step, 2);
    });
    std::thread writer([&] {
        await(step, 1);
        lk.write_lock();  // waits for readers + "crwwp.drain" acquire
        race_write(&words_[0], 8);
        lk.write_unlock();
        advance(step, 2);
    });
    reader.join();
    writer.join();

    EXPECT_EQ(RaceDetector::instance().race_count(), 0u)
        << RaceDetector::instance().report_text();
}

// ---------------------------------------------------------------------------
// Fixture B: Left-Right with the version-toggle edge removed.
// ---------------------------------------------------------------------------

// The real sync::LeftRight, driven by a writer that skips
// toggle_version_and_wait() before re-mutating: readers that observed the
// publication are still inside the region when the writer touches it again.
TEST_F(RaceFixtureTest, LeftRightMissingToggleIsDetected) {
    romulus::sync::LeftRight lr;
    std::atomic<int> step{0};
    int reader_tid = -1, writer_tid = -1;

    std::thread writer([&] {
        writer_tid = romulus::sync::tid();
        race_write(&words_[1], 8);
        lr.set_read_region(romulus::sync::LeftRight::kReadMain);  // publish
        advance(step, 1);
        await(step, 2);
        // BUG (seeded): no lr.toggle_version_and_wait() — the drain edges
        // from the still-arrived reader are missing.
        race_write(&words_[1], 8);
        advance(step, 3);
    });
    std::thread reader([&] {
        reader_tid = romulus::sync::tid();
        await(step, 1);
        const int vi = lr.arrive(reader_tid);
        (void)lr.read_region();  // acquires the publication edge
        race_read(&words_[1], 8);  // ordered after the first write: no race
        advance(step, 2);
        await(step, 3);
        lr.depart(reader_tid, vi);
    });
    writer.join();
    reader.join();

    auto& d = RaceDetector::instance();
    ASSERT_EQ(d.race_count(), 1u) << d.report_text();
    auto r = d.reports()[0];
    EXPECT_STREQ(r.kind, "read-then-write");
    EXPECT_EQ(r.prev.tid, reader_tid);
    EXPECT_FALSE(r.prev.is_write);
    EXPECT_EQ(r.cur.tid, writer_tid);
    EXPECT_TRUE(r.cur.is_write);
    EXPECT_EQ(r.cur.addr, reinterpret_cast<uintptr_t>(&words_[1]));
}

// Control: the same protocol with the toggle in place — the drain acquires
// the departed reader's clock, so the second write is ordered.
TEST_F(RaceFixtureTest, LeftRightWithToggleIsSilent) {
    romulus::sync::LeftRight lr;
    std::atomic<int> step{0};

    std::thread writer([&] {
        race_write(&words_[1], 8);
        lr.set_read_region(romulus::sync::LeftRight::kReadMain);
        advance(step, 1);
        await(step, 2);  // reader has departed
        lr.toggle_version_and_wait();
        race_write(&words_[1], 8);
        advance(step, 3);
    });
    std::thread reader([&] {
        const int t = romulus::sync::tid();
        await(step, 1);
        const int vi = lr.arrive(t);
        (void)lr.read_region();
        race_read(&words_[1], 8);
        lr.depart(t, vi);
        advance(step, 2);
        await(step, 3);  // stay alive: distinct tids
    });
    writer.join();
    reader.join();

    EXPECT_EQ(RaceDetector::instance().race_count(), 0u)
        << RaceDetector::instance().report_text();
}

// ---------------------------------------------------------------------------
// Fixture C: stripe try-lock with the committing release elided.
// ---------------------------------------------------------------------------

/// One stripe of sync::StripeLockTable with the seeded bug: the committer
/// publishes the post-commit version word with a plain store, skipping
/// release() and with it the "stripe.release" annotation.  try_acquire and
/// the word accessors match sync/stripe_lock.hpp, so an optimistic reader's
/// "stripe.validate" acquire finds no release edge to pair with.
class ElidedReleaseStripe {
  public:
    using Word = romulus::sync::StripeLockTable::Word;
    static constexpr Word kLockedBit =
        romulus::sync::StripeLockTable::kLockedBit;

    bool try_acquire(Word& observed) {
        Word w = w_.load(std::memory_order_relaxed);
        if ((w & kLockedBit) != 0) {
            observed = w;
            return false;
        }
        if (!w_.compare_exchange_strong(w, w | kLockedBit,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
            observed = w;
            return false;
        }
        observed = w;
        ROMULUS_RACE_ACQUIRE(&w_, "stripe.acquire");
        return true;
    }

    /// BUG (seeded): publishes the new version without the "stripe.release"
    /// annotation of StripeLockTable::release().
    void release_elided(Word new_version) {
        w_.store(new_version << 1, std::memory_order_release);
    }

    Word read() const { return w_.load(std::memory_order_acquire); }
    const std::atomic<Word>* word() const { return &w_; }

  private:
    std::atomic<Word> w_{0};
};

// A fast-path committer that skips release(): its write to the line stays
// unordered before a later optimistic reader, even though the reader's
// version validation succeeds (the version word itself was published).
TEST_F(RaceFixtureTest, StripeElidedReleaseIsDetected) {
    ElidedReleaseStripe stripe;
    std::atomic<int> step{0};
    int writer_tid = -1, reader_tid = -1;

    std::thread writer([&] {
        writer_tid = romulus::sync::tid();
        ElidedReleaseStripe::Word pre = ~0ull;
        EXPECT_TRUE(stripe.try_acquire(pre));
        race_write(&words_[2], 8);
        stripe.release_elided(1);  // BUG: no "stripe.release" edge
        advance(step, 1);
        await(step, 2);  // stay alive: distinct tids
    });
    std::thread reader([&] {
        reader_tid = romulus::sync::tid();
        await(step, 1);
        const ElidedReleaseStripe::Word w0 = stripe.read();
        EXPECT_EQ(w0 & ElidedReleaseStripe::kLockedBit, 0u);
        // The protocol's validation passes (the version word is stable),
        // so the read IS recorded — and races with the unreleased write.
        EXPECT_TRUE(ROMULUS_RACE_OPTIMISTIC_READ(stripe.word(), &words_[2], 8,
                                                 w0, stripe.word(),
                                                 "stripe.validate"));
        advance(step, 2);
    });
    writer.join();
    reader.join();

    auto& d = RaceDetector::instance();
    ASSERT_EQ(d.race_count(), 1u) << d.report_text();
    auto r = d.reports()[0];
    EXPECT_STREQ(r.kind, "write-then-read");
    EXPECT_EQ(r.prev.tid, writer_tid);
    EXPECT_TRUE(r.prev.is_write);
    EXPECT_EQ(r.cur.tid, reader_tid);
    EXPECT_FALSE(r.cur.is_write);
    EXPECT_EQ(r.prev.addr, reinterpret_cast<uintptr_t>(&words_[2]));
    EXPECT_EQ(r.cur.addr, reinterpret_cast<uintptr_t>(&words_[2]));
}

// Control: the real sync::StripeLockTable, whose release() records the
// "stripe.release" edge the validate-acquire pairs with, reports nothing.
TEST_F(RaceFixtureTest, StripeProperReleaseIsSilent) {
    romulus::sync::StripeLockTable stripes;
    const unsigned s = stripes.stripe_of_line(0);
    std::atomic<int> step{0};

    std::thread writer([&] {
        (void)romulus::sync::tid();
        romulus::sync::StripeLockTable::Word pre = ~0ull;
        EXPECT_TRUE(stripes.try_acquire(s, pre));
        race_write(&words_[2], 8);
        stripes.release(s, stripes.clock_advance());
        advance(step, 1);
        await(step, 2);  // stay alive: distinct tids
    });
    std::thread reader([&] {
        (void)romulus::sync::tid();
        await(step, 1);
        const romulus::sync::StripeLockTable::Word w0 = stripes.read(s);
        EXPECT_FALSE(romulus::sync::StripeLockTable::is_locked(w0));
        EXPECT_TRUE(ROMULUS_RACE_OPTIMISTIC_READ(stripes.word(s), &words_[2],
                                                 8, w0, stripes.word(s),
                                                 "stripe.validate"));
        advance(step, 2);
    });
    writer.join();
    reader.join();

    EXPECT_EQ(RaceDetector::instance().race_count(), 0u)
        << RaceDetector::instance().report_text();
}

}  // namespace
