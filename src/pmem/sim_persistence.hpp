// SimPersistence: a deterministic shadow-cache model of persistent memory,
// used by the crash-injection tests (DESIGN.md §4.4).
//
// Real NVM semantics: a store lands in the (volatile) cache; it reaches the
// persistence domain only once its cache line is written back — either
// explicitly (pwb + fence) or spontaneously (cache eviction).  On a power
// cut, lines still in the cache are lost.  The mmap-on-DRAM emulation used
// by the paper (and by this repo at runtime) cannot exhibit those losses, so
// correctness bugs in flush placement are invisible to it.
//
// This model makes them visible: it maintains a shadow image of the region
// holding only data that *provably* reached persistence under the model:
//   on_store  -> the line becomes dirty (cache-only),
//   on_pwb    -> the line becomes pending write-back,
//   on_fence  -> pending lines are copied into the shadow image,
//   eviction  -> optionally, dirty lines are copied at random fences
//                (spontaneous write-back is always legal).
//
// Two legal flush-content semantics are both supported: the content written
// back can be captured when the pwb executes (AtPwb) or when the fence
// completes (AtFence).  Hardware may do either; algorithms must be correct
// under both.
//
// Non-temporal stores (pmem::persist_copy) appear in the event stream as a
// store immediately followed by a pwb of each streamed line, with NO fence
// for persist_copy's internal sfence: streamed lines therefore stay pending
// here until the engine's own pfence/psync, strictly more conservative than
// the hardware (which would have persisted them at the sfence).  Since an NT
// store's content is final when it executes, AtPwb and AtFence capture
// identical bytes for those lines (docs/checker.md, "Non-temporal stores").
//
// A "crash" replaces the live region's bytes with the shadow image, which is
// exactly the state a recovery procedure would see after a power failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pmem/flush.hpp"

namespace romulus::pmem {

class SimPersistence final : public SimHooks {
  public:
    // Hoisted to namespace scope (flush.hpp) so the persistency checker can
    // share it; aliased here for source compatibility.
    using FlushContent = romulus::pmem::FlushContent;

    struct Options {
        FlushContent content = FlushContent::AtFence;
        double evict_probability = 0.0;  ///< per dirty line, per fence
        uint64_t seed = 1;
        /// Forward every event to this observer after processing it, the
        /// same composition pattern PersistencyChecker::Options uses — e.g.
        /// romver's PersistEventRecorder records the stream while this
        /// crash model consumes it.  Not owned.  Note for recorder users:
        /// the persist-graph model assumes no spontaneous eviction; chain
        /// the recorder only with evict_probability == 0.
        SimHooks* next = nullptr;
    };

    /// Track [base, base+size). The shadow image is initialised from the
    /// current live content (assumed persistent at attach time).
    SimPersistence(uint8_t* base, size_t size, Options opts);
    SimPersistence(uint8_t* base, size_t size)
        : SimPersistence(base, size, Options()) {}

    // SimHooks.  The tx/state/range events are no-ops for the crash model
    // itself but must still be forwarded for Options::next chaining.
    void on_store(const void* addr, size_t len) override;
    void on_pwb(const void* addr) override;
    void on_fence() override;
    void on_tx_begin() override {
        if (opts_.next) opts_.next->on_tx_begin();
    }
    void on_tx_commit() override {
        if (opts_.next) opts_.next->on_tx_commit();
    }
    void on_tx_abort() override {
        if (opts_.next) opts_.next->on_tx_abort();
    }
    void on_state_transition(uint32_t new_state) override {
        if (opts_.next) opts_.next->on_state_transition(new_state);
    }
    void on_range_logged(const void* addr, size_t len) override {
        if (opts_.next) opts_.next->on_range_logged(addr, len);
    }

    /// Number of persistence events (fences) seen so far; crash schedules in
    /// the property tests are expressed in these units.  Atomic because the
    /// crash scheduler polls it from a watcher thread while worker threads
    /// fence (the other counters take mu_ in their accessors).
    uint64_t fence_count() const {
        return fence_count_.load(std::memory_order_acquire);
    }

    /// Overwrite the live region with the shadow image: everything that was
    /// only in the "cache" is lost, exactly as in a power cut.
    void crash_restore();

    /// A power cut that leaves the region alone: drop every dirty and
    /// pending line.  For a crash after the region was unmapped (an engine
    /// init() that threw unmaps it); the caller writes image() to the
    /// backing file itself.
    void drop_cache();

    /// Re-baseline the shadow image from the live content (e.g. after a
    /// freshly formatted heap that the test treats as fully persisted).
    void checkpoint_all();

    size_t dirty_line_count() const;
    size_t pending_line_count() const;
    const std::vector<uint8_t>& image() const { return image_; }

  private:
    size_t line_of(const void* addr) const {
        return (reinterpret_cast<uintptr_t>(addr) -
                reinterpret_cast<uintptr_t>(base_)) /
               kCacheLineSize;
    }
    bool in_region(const void* addr) const {
        auto u = reinterpret_cast<uintptr_t>(addr);
        auto b = reinterpret_cast<uintptr_t>(base_);
        return u >= b && u < b + size_;
    }
    void persist_line_locked(size_t line, const uint8_t* content);

    uint8_t* base_;
    size_t size_;
    Options opts_;
    std::vector<uint8_t> image_;
    std::unordered_set<size_t> dirty_;  // stored but not written back
    // pending write-backs; value = captured content for AtPwb, empty for
    // AtFence (content read from the live line at fence time)
    std::unordered_map<size_t, std::vector<uint8_t>> pending_;
    std::mt19937_64 rng_;
    std::atomic<uint64_t> fence_count_{0};
    mutable std::mutex mu_;
};

}  // namespace romulus::pmem
