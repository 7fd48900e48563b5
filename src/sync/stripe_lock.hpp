// Stripe-granular versioned try-locks for the speculative update fast path
// (DESIGN.md §4.11, src/core/speculation.hpp).
//
// One table per shard guards that shard's main region at cache-line
// granularity: line offset -> stripe via a multiplicative hash, each stripe a
// word-sized TL2-style versioned lock (version << 1 | locked).  The layout
// follows the RTM-batching idiom of SNIPPETS.md snippet 3 (cyfdecyf/
// mem-order): a flat array of word-sized version locks indexed by an address
// hash, acquired with try-semantics only — a speculative transaction that
// cannot take a stripe immediately aborts to the universal C-RW-WP slow
// path, so no acquisition order can deadlock and the fallback inherits the
// engine's existing starvation freedom.
//
// All of this state is volatile: stripe words and the per-shard fast-path
// clock restart at zero after a crash (recovery holds no speculative state),
// exactly like the C-RW-WP lock and the seqlock they compose with.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "analysis/race_hooks.hpp"

namespace romulus::sync {

/// Per-shard array of versioned try-locks plus the shard's fast-path commit
/// clock, held inline.  Cache-line-aligned slots so two hot stripes never
/// share a line with each other or with the clock.
class StripeLockTable {
  public:
    using Word = uint64_t;
    static constexpr Word kLockedBit = 1;
    static constexpr unsigned kStripes = 1024;
    static_assert((kStripes & (kStripes - 1)) == 0, "a power of two");

    /// Map a cache-line index (byte offset / 64) to its stripe.
    static unsigned stripe_of_line(size_t line_index) {
        // Fibonacci hashing spreads the low bits of sequential line indexes
        // across the table; the shift keeps only as many bits as we need.
        const uint64_t h =
            static_cast<uint64_t>(line_index) * 0x9E3779B97F4A7C15ull;
        return static_cast<unsigned>(h >> 40) & (kStripes - 1);
    }

    static bool is_locked(Word w) { return (w & kLockedBit) != 0; }
    static Word version_of(Word w) { return w >> 1; }

    /// Current word of a stripe (acquire: a version read before an
    /// optimistic load validates that load if re-read unchanged after).
    Word read(unsigned s) const {
        return slots_[s].w.load(std::memory_order_acquire);
    }

    /// The raw atomic, for the race detector's optimistic-read
    /// re-validation (ROMULUS_RACE_OPTIMISTIC_READ needs the word itself)
    /// and as the stripe's sync-object identity in acquire/release events.
    const std::atomic<Word>* word(unsigned s) const { return &slots_[s].w; }

    /// Try-acquire: CAS the locked bit in.  On success `observed` holds the
    /// pre-acquire word (its version is what release() must exceed); on
    /// failure the stripe was locked or the CAS lost and the caller must
    /// abort its speculation.  Never blocks.
    bool try_acquire(unsigned s, Word& observed) {
        Word w = slots_[s].w.load(std::memory_order_relaxed);
        if (is_locked(w)) {
            observed = w;
            return false;
        }
        if (!slots_[s].w.compare_exchange_strong(w, w | kLockedBit,
                                                 std::memory_order_acquire,
                                                 std::memory_order_relaxed)) {
            observed = w;
            return false;
        }
        observed = w;
        // Inherit the previous holder's writes: pairs with the RELEASE in
        // release()/release_aborted().
        ROMULUS_RACE_ACQUIRE(&slots_[s], "stripe.acquire");
        return true;
    }

    /// Release after a committed speculation, publishing `new_version`
    /// (callers pass the post-commit fast-path clock value, which is
    /// strictly greater than any version observed while the stripe was
    /// free).  Eliding this release is the seeded bug of the
    /// StripeElidedRelease fixture (tests/test_race_fixtures.cpp).
    void release(unsigned s, Word new_version) {
        ROMULUS_RACE_RELEASE(&slots_[s], "stripe.release");
        slots_[s].w.store(new_version << 1, std::memory_order_release);
    }

    /// Release after an aborted speculation: restore the pre-acquire word so
    /// concurrent readers' recorded versions stay valid (nothing was
    /// published).
    void release_aborted(unsigned s, Word pre_acquire) {
        ROMULUS_RACE_RELEASE(&slots_[s], "stripe.release");
        slots_[s].w.store(pre_acquire, std::memory_order_release);
    }

    /// The shard's fast-path commit clock (TL2 "write version" clock).
    uint64_t clock_now() const {
        return clock_.load(std::memory_order_acquire);
    }
    uint64_t clock_advance() {
        return clock_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

  private:
    struct alignas(64) Slot {
        std::atomic<Word> w{0};
    };
    Slot slots_[kStripes];
    alignas(64) std::atomic<uint64_t> clock_{0};
};

}  // namespace romulus::sync
