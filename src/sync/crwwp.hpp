// C-RW-WP: a writer-preference reader-writer lock (Calciu et al. [3]),
// specialised as in §5.2 of the paper: the cohort lock is replaced by a
// simple spin lock and the read indicator is a padded per-thread array.
//
// Writer preference: an arriving reader that observes a writer (present or
// waiting) departs and waits, so writers are not starved by a continuous
// stream of readers.  Shared-lock acquisition needs no persistence fence —
// all of these variables live in volatile memory (§5.2).
#pragma once

#include <atomic>

#include "analysis/race_hooks.hpp"
#include "sync/read_indicator.hpp"
#include "sync/spinlock.hpp"

namespace romulus::sync {

class CRWWPLock {
  public:
    void read_lock(int t) {
        unsigned spins = 0;
        while (true) {
            ri_.arrive(t);
            if (!writer_present_.load(std::memory_order_seq_cst)) {
                // Acquire after the flag check: observing "no writer" means
                // the previous writer's write_unlock release is recorded.
                ROMULUS_RACE_ACQUIRE(this, "crwwp.read_lock");
                return;
            }
            // A writer holds or wants the lock: step aside (writer pref).
            ri_.depart(t);
            while (writer_present_.load(std::memory_order_relaxed))
                spin_wait(spins);
        }
    }

    /// Single-shot shared acquisition: arrive, and if a writer is present
    /// (or waiting) depart and fail instead of spinning.  The speculative
    /// update fast path uses this to exclude slow-path writers for the
    /// duration of a stripe-locked commit without ever waiting behind one —
    /// failure just means "take the slow path yourself".
    bool try_read_lock(int t) {
        ri_.arrive(t);
        if (!writer_present_.load(std::memory_order_seq_cst)) {
            ROMULUS_RACE_ACQUIRE(this, "crwwp.read_lock");
            return true;
        }
        ri_.depart(t);
        return false;
    }

    void read_unlock(int t) { ri_.depart(t); }

    void write_lock() {
        writers_mutex_.lock();
        writer_present_.store(true, std::memory_order_seq_cst);
        wait_readers();
    }

    /// Try to become the writer without blocking on the writers' mutex.
    /// On success the caller holds the exclusive lock (readers drained).
    bool try_write_lock() {
        if (!writers_mutex_.try_lock()) return false;
        writer_present_.store(true, std::memory_order_seq_cst);
        wait_readers();
        return true;
    }

    void write_unlock() {
        // Release before the flag store: a reader that observes "no writer"
        // inherits everything this writer did.
        ROMULUS_RACE_RELEASE(this, "crwwp.write_unlock");
        writer_present_.store(false, std::memory_order_release);
        writers_mutex_.unlock();
    }

  private:
    void wait_readers() {
        // Resumable drain: writer_present_ is already published, so a slot
        // seen empty stays effectively empty (later arrivals depart again
        // without reading) — spin only on the first still-busy slot onward.
        unsigned spins = 0;
        for (int i = 0; (i = ri_.first_busy(i)) >= 0;) spin_wait(spins);
        // The writer barrier: every departed reader released into ri_, so
        // this acquire inherits all of their reads before the writer
        // mutates.  Eliding this drain is the seeded bug of the
        // CRWWPElidedBarrier fixture (tests/test_race_fixtures.cpp).
        ROMULUS_RACE_ACQUIRE(&ri_, "crwwp.drain");
    }

    SpinLock writers_mutex_;
    std::atomic<bool> writer_present_{false};
    ReadIndicator ri_;
};

}  // namespace romulus::sync
