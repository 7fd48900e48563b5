// Flat-combining announce array (Hendler et al. [14], used as in §5.2/§5.3).
//
// An update transaction announces a pointer to its payload in its
// per-thread slot.  Whichever announcer acquires the writer lock becomes the
// combiner: it scans the array, serves every announced payload inside a
// single durable transaction, and clears each slot once the corresponding
// operation is durable.  Announcers whose slot was cleared return without
// ever taking the lock — this is what gives update transactions
// starvation-free progress even though the underlying lock is an unfair
// spin lock.
//
// The payload is generic: the slow-path combiner announces closures (the
// default), the stripe fast path announces locked, validated write sets
// that one applier makes durable together (DESIGN.md §4.11).  Both share
// this one announce/take/done protocol and its race-detector edges.
#pragma once

#include <atomic>
#include <functional>

#include "analysis/race_hooks.hpp"
#include "sync/spinlock.hpp"
#include "sync/thread_registry.hpp"

namespace romulus::sync {

template <typename Payload = std::function<void()>>
class FlatCombiningArray {
  public:
    using Op = Payload;

    /// Publish `op` in this thread's slot.  `op` must stay alive until the
    /// slot is observed empty again.
    void announce(int t, Op* op) {
        // Release before the slot store: the combiner that takes this op
        // inherits everything the announcer did while preparing it.
        ROMULUS_RACE_RELEASE(&slots_[t], "fc.announce");
        slots_[t].op.store(op, std::memory_order_release);
    }

    /// Has this thread's announced operation been executed (slot cleared)?
    bool is_done(int t) const {
        if (slots_[t].op.load(std::memory_order_acquire) == nullptr) {
            // Acquire after observing the cleared slot: the announcer
            // inherits the combiner's mark_done release (and thus the
            // durable effects of its own operation).
            ROMULUS_RACE_ACQUIRE(&slots_[t], "fc.is_done");
            return true;
        }
        return false;
    }

    /// Combiner side: run `fn(slot, op)` for every announced operation.
    /// `fn` (or the caller, afterwards) must call mark_done() once the
    /// operation's effects are durable.
    template <typename Fn>
    void for_each_announced(Fn&& fn) {
        const int n = max_tids();
        for (int i = 0; i < n; ++i) {
            Op* op = slots_[i].op.load(std::memory_order_acquire);
            if (op != nullptr) {
                ROMULUS_RACE_ACQUIRE(&slots_[i], "fc.take");
                fn(i, op);
            }
        }
    }

    /// Clear slot i, releasing its announcer.
    void mark_done(int i) {
        ROMULUS_RACE_RELEASE(&slots_[i], "fc.mark_done");
        slots_[i].op.store(nullptr, std::memory_order_release);
    }

  private:
    struct alignas(128) Slot {
        std::atomic<Op*> op{nullptr};
    };
    Slot slots_[kMaxThreads];
};

}  // namespace romulus::sync
