// Per-shard sequence lock for optimistic durable read-only transactions
// (DESIGN.md §4.9).
//
// RomulusNL and RomulusLog serialize readers behind the shard writer: a read
// transaction arrives on the read indicator and waits while a writer is
// present, so read-mostly workloads are bounded by writer occupancy on the
// shard.  This word gives readers a speculative escape hatch in the spirit
// of Persistent HyTM's fine-grained fast path (arXiv 2501.14783) and the
// RTM speculate-then-fallback idiom (SNIPPETS.md snippet 3): the writer
// bumps the sequence to odd before its first in-place mutation of main and
// back to even once main's new content is *durable* (after the CPY psync),
// and a reader that observes the same even value around its loads has read
// a consistent, committed-and-durable snapshot — with zero lock traffic,
// zero read-indicator arrival and zero persistence fences.
//
// Validation discipline (what makes the optimistic path crash-free): the
// engine validates after EVERY interposed pload, between the load and any
// use of the loaded value.  A pointer obtained from a validated load is
// therefore a pointer that existed in the consistent snapshot — the classic
// seqlock torn-pointer-dereference hazard cannot arise, because the load of
// a torn value fails validation before anything dereferences it.  Raw
// (non-interposed) byte copies inside a read closure are covered by the
// final validation at closure exit: they can observe torn bytes mid-run,
// but the transaction then retries/falls back instead of returning them.
//
// Waiting discipline (optimistic_read below): a reader that finds the word
// odd waits it out on the word itself rather than spending an attempt.
// C-RW-WP gives writers preference, so the pessimistic path would wait out
// the same writer anyway, and for longer: the writer lock and the fast-path
// gate are held across the whole commit, the odd window only across the
// in-place mutation up to the CPY psync.  Attempts are spent only on
// closure runs a writer invalidated mid-flight — the one case where
// retrying can livelock — and max_attempts of those send the reader to the
// lock.
//
// Memory ordering:
//   * write_enter stores the odd value and then issues a seq_cst fence so
//     the odd word is globally visible before any subsequent (plain) store
//     to main — the store-store edge a seqlock writer needs.
//   * write_exit publishes the even value with release, ordering every
//     mutation of main before it.
//   * read_begin is an acquire load (synchronizes with write_exit, so a
//     validated reader inherits the previous writer's stores).
//   * validate issues an acquire fence before re-loading the word, so the
//     data loads it guards cannot sink below the re-check.
// None of these are *persistence* fences: the word is volatile state and
// readers never touch pwb/pfence/psync (the SimPersistence fence counter
// stays flat across an optimistic read — ISSUE 8 acceptance).
#pragma once

#include <atomic>
#include <cstdint>

#include "analysis/race_hooks.hpp"
#include "sync/spinlock.hpp"

namespace romulus::sync {

/// Internal control-flow exception: an optimistic read attempt observed a
/// sequence change (a writer entered the shard's MUT window).  Thrown by
/// RomulusNL/RomulusLog's pload validation, caught by readTx, never escapes
/// to the user.
struct OptimisticAbort {};

class alignas(64) SeqLock {
  public:
    /// Reader: snapshot the sequence.  Odd = a writer is inside its window.
    uint64_t read_begin() const { return seq_.load(std::memory_order_acquire); }

    /// Reader: true when the snapshot `sq` is still valid, i.e. no writer
    /// entered since read_begin returned it.  Call after data loads; the
    /// acquire fence keeps them from sinking below the re-check.
    bool validate(uint64_t sq) const {
        std::atomic_thread_fence(std::memory_order_acquire);
        return seq_.load(std::memory_order_relaxed) == sq;
    }

    /// Writer: open the window (even -> odd).  Caller must hold the shard's
    /// writer lock; the trailing fence orders the odd store before the
    /// writer's subsequent in-place stores.
    void write_enter() {
        seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
    }

    /// Writer: close the window (odd -> even), releasing every mutation made
    /// inside it to validating readers.
    void write_exit() {
        seq_.store(seq_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    }

    uint64_t value() const { return seq_.load(std::memory_order_relaxed); }

    /// The raw word, for the race detector's optimistic-read re-validation
    /// (ROMULUS_RACE_OPTIMISTIC_READ needs the atomic itself).
    const std::atomic<uint64_t>* word() const { return &seq_; }

    /// Tests only: plant an arbitrary sequence value (e.g. near the 64-bit
    /// wrap) — equality-based validation must survive the wrap.
    void set_for_tests(uint64_t v) {
        seq_.store(v, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> seq_{0};
    char pad_[64 - sizeof(std::atomic<uint64_t>)];
};

static_assert(sizeof(SeqLock) == 64, "one cache line, no false sharing");

/// The optimistic read loop every seqlock engine shares: run `f` on the
/// live data, validated against `seq`, until a run commits.  The engine's
/// only hook is its thread-local (`active`, `snap`) pair, which its pload
/// consults to validate each load against the run's snapshot.  An odd word
/// is waited out (`Stats::opt_waits`) without spending an attempt; each
/// invalidated run spends one (`opt_aborts`).  Returns true when a run
/// committed, rethrows a user exception raised off a still-valid snapshot,
/// and returns false after `max_attempts` invalidated runs (`fallbacks`):
/// the caller then takes its pessimistic reader lock.  `f` may run several
/// times, so read closures must be restartable (docs/API.md).
template <typename Stats, typename F>
bool optimistic_read(const SeqLock& seq, bool& active, uint64_t& snap,
                     unsigned max_attempts, Stats& rs, F& f) {
    unsigned spins = 0;
    for (unsigned left = max_attempts; left > 0; --left) {
        uint64_t sq = seq.read_begin();
        if (sq & 1) {  // a writer is inside its window: wait it out
            rs.opt_waits++;
            unsigned wait_spins = 0;
            do {
                spin_wait(wait_spins);
                sq = seq.read_begin();
            } while (sq & 1);
        }
        active = true;
        snap = sq;
        ROMULUS_RACE_TX_BEGIN("read-tx(opt)");
        bool valid = false;
        try {
            f();
            // Final check: interposed loads were validated one by one in
            // pload(); this covers raw byte reads the closure did on its own
            // (payload memcpy, string materialisation).
            valid = seq.validate(sq);
        } catch (const OptimisticAbort&) {
        } catch (...) {
            if (seq.validate(sq)) {
                active = false;
                ROMULUS_RACE_TX_END();
                rs.opt_exception_exits++;
                throw;  // genuine user exception off a consistent snapshot
            }
            // The snapshot died mid-closure, so the exception may be an
            // artifact of torn raw reads: retry instead of surfacing a
            // phantom.
        }
        active = false;
        ROMULUS_RACE_TX_END();
        if (valid) {
            rs.opt_commits++;
            return true;
        }
        rs.opt_aborts++;
        spin_wait(spins);
    }
    rs.fallbacks++;
    return false;
}

}  // namespace romulus::sync
