// Annotation-contract tests (compiled only under -DROMULUS_RACECHECK): each
// sync primitive must emit exactly the acquire/release edge sequence the
// detector's happens-before model relies on (docs/race_detector.md).  These
// assert on the detector's sync-event trace, so a refactor that drops or
// reorders an annotation fails here rather than as a false positive (or a
// silent false negative) in the stress suites.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "analysis/race_detector.hpp"
#include "sync/crwwp.hpp"
#include "sync/flat_combining.hpp"
#include "sync/left_right.hpp"
#include "sync/spinlock.hpp"
#include "sync/thread_registry.hpp"

namespace {

using romulus::analysis::RaceDetector;

std::vector<std::string> fmt(const std::vector<RaceDetector::SyncEvent>& es) {
    std::vector<std::string> out;
    for (const auto& e : es)
        out.push_back(std::string(e.is_acquire ? "A:" : "R:") + e.label);
    return out;
}

class RaceAnnotationTest : public ::testing::Test {
  protected:
    void SetUp() override {
        // Acquire the main thread's registry slot while the detector is
        // still disabled: ctest runs each test in its own process, and a
        // first tid() call inside the test body would otherwise prepend an
        // "A:registry.slot" event to the asserted trace.
        (void)romulus::sync::tid();
        auto& d = RaceDetector::instance();
        d.reset();
        RaceDetector::Options opts;
        opts.record_trace = true;
        d.enable(opts);
    }
    void TearDown() override {
        auto& d = RaceDetector::instance();
        d.disable();
        d.reset();
    }
};

TEST_F(RaceAnnotationTest, SpinLockAcquireRelease) {
    romulus::sync::SpinLock sl;
    sl.lock();
    sl.unlock();
    EXPECT_EQ(fmt(RaceDetector::instance().trace_for(&sl)),
              (std::vector<std::string>{"A:spinlock.lock",
                                        "R:spinlock.unlock"}));
}

// Writer side of C-RW-WP: taking the writers' mutex acquires, draining the
// read indicator acquires (the writer barrier), and write_unlock releases
// before unlocking the mutex (which releases again).
TEST_F(RaceAnnotationTest, CRWWPWriterBarrierSequence) {
    romulus::sync::CRWWPLock lk;
    lk.write_lock();
    lk.write_unlock();
    EXPECT_EQ(fmt(RaceDetector::instance().trace()),
              (std::vector<std::string>{"A:spinlock.lock", "A:crwwp.drain",
                                        "R:crwwp.write_unlock",
                                        "R:spinlock.unlock"}));
}

// Reader side: the acquire fires after observing "no writer", the release
// fires in the read indicator's depart.
TEST_F(RaceAnnotationTest, CRWWPReaderSequence) {
    romulus::sync::CRWWPLock lk;
    const int t = romulus::sync::tid();
    lk.read_lock(t);
    lk.read_unlock(t);
    EXPECT_EQ(fmt(RaceDetector::instance().trace()),
              (std::vector<std::string>{"A:crwwp.read_lock", "R:ri.depart"}));
}

// Left-Right: arrive() is unannotated (a reader's edge comes from observing
// the read_region publication, not from arriving); set_read_region releases
// before the publication store; the toggle acquires both indicator drains.
TEST_F(RaceAnnotationTest, LeftRightProtocolSequence) {
    romulus::sync::LeftRight lr;
    const int t = romulus::sync::tid();
    const int vi = lr.arrive(t);  // no annotation expected
    (void)lr.read_region();
    lr.depart(t, vi);
    lr.set_read_region(romulus::sync::LeftRight::kReadMain);
    lr.toggle_version_and_wait();
    EXPECT_EQ(fmt(RaceDetector::instance().trace()),
              (std::vector<std::string>{"A:lr.read_region", "R:ri.depart",
                                        "R:lr.publish", "A:lr.drain",
                                        "A:lr.drain"}));
}

// Flat combining: announce releases into the slot, the combiner's take
// acquires it, mark_done releases back, and the announcer's is_done acquires
// once it observes the cleared slot.
TEST_F(RaceAnnotationTest, FlatCombiningHandoffSequence) {
    romulus::sync::FlatCombiningArray<> fc;
    const int t = romulus::sync::tid();
    romulus::sync::FlatCombiningArray<>::Op op = [] {};
    fc.announce(t, &op);
    fc.for_each_announced(
        [&](int slot, romulus::sync::FlatCombiningArray<>::Op*) {
            fc.mark_done(slot);
        });
    ASSERT_TRUE(fc.is_done(t));
    EXPECT_EQ(fmt(RaceDetector::instance().trace()),
              (std::vector<std::string>{"R:fc.announce", "A:fc.take",
                                        "R:fc.mark_done", "A:fc.is_done"}));
}

// Thread registry: a new thread's slot acquisition acquires the registry
// sentinel and its exit releases it, so a thread recycling a slot inherits
// the previous holder's clock instead of appearing to race with it.
TEST_F(RaceAnnotationTest, ThreadRegistrySlotHandoff) {
    std::thread worker([] { (void)romulus::sync::tid(); });
    worker.join();
    std::vector<std::string> got;
    for (const auto& e : RaceDetector::instance().trace())
        if (std::string(e.label) == "registry.slot")
            got.push_back(e.is_acquire ? "A" : "R");
    EXPECT_EQ(got, (std::vector<std::string>{"A", "R"}));
}

}  // namespace
