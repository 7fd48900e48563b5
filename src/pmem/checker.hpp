// PersistencyChecker: a shadow-state machine that makes flush/fence/logging
// discipline bugs fail loudly at test time (docs/checker.md).
//
// The mmap-on-DRAM emulation silently forgives every violation of the
// paper's §4 discipline — a store that was never range-logged, a missing pwb
// before the commit state transition, a fence forgotten between the data
// write-backs and the state write-back — because DRAM never loses the cache.
// SimPersistence makes such bugs *reachable* by crash tests; this checker
// makes them *direct*: it tracks every cache line of the registered region
// through
//
//     Clean ──store──> Dirty ──pwb──> PendingWB ──fence──> Clean
//
// and reports a violation the moment the engine's observable event stream is
// inconsistent with the discipline, instead of waiting for a crash schedule
// to hit the window.
//
// Hard violations (each one is a real crash-consistency bug):
//   * UnloggedStore        — with Options::require_log, a store to main
//                            inside a mutating transaction that was never
//                            covered by an on_range_logged notification
//                            (i.e. a store that bypassed the RangeLog and
//                            will not be flushed or replicated at commit).
//   * DirtyAtTransition    — a main (resp. back) line still Dirty when the
//                            heap state advances to CPY (resp. IDL): the
//                            line was stored but never written back, so the
//                            "consistent copy" the state field advertises
//                            may not contain it after a power cut.
//   * PendingAtTransition  — like DirtyAtTransition but the line is still
//                            PendingWB: the pwb was issued but no fence
//                            ordered it before the state store (the missing-
//                            pfence bug; write-backs may reorder).
//   * StoreAfterPwb        — a line was stored after its pwb and never
//                            re-flushed before the fence.  Under
//                            FlushContent::AtPwb hardware the fence persists
//                            the *captured* (stale) content while the engine
//                            believes the line is persistent.  Reported only
//                            under Options{.content = AtPwb}.
//   * DirtyAtCommit        — any region line still Dirty when a transaction
//                            commit completes (baselines without a state
//                            machine get their "nothing volatile survives
//                            commit" check from this).
//
// Soft diagnostics (performance, not correctness — the paper's Table 1
// fence/pwb accounting becomes assertable from these):
//   * redundant_pwb        — pwb of a Clean line (wasted write-back),
//   * empty_fence          — fence with no write-back pending,
//   * per-transaction fence/pwb counts (fences_in_last_tx and friends).
//
// The checker is an observer: it never changes engine behaviour.  It can be
// chained in front of another SimHooks observer (e.g. SimPersistence) via
// Options::next so crash tests and checking compose.
//
// Non-temporal stores (pmem::persist_copy) reach the checker as store+pwb
// per streamed line — the externally visible effect of an NT store — so a
// streamed replica line walks Dirty -> PendingWB like any other and the
// transition checks still demand the engine's own fence before a state
// store.  StoreAfterPwb stays meaningful too: NT content is fixed at
// execution time, i.e. captured-at-pwb by definition (docs/checker.md).
//
// Concurrency: callbacks are serialised by an internal mutex, but the
// *discipline* checks assume transactions are serialised (Romulus is
// single-writer by construction; drive the baselines single-threaded when
// checking).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "pmem/flush.hpp"
#include "pmem/stats.hpp"

namespace romulus::pmem {

class PersistencyChecker final : public SimHooks {
  public:
    enum class LineState : uint8_t { Clean = 0, Dirty = 1, PendingWB = 2 };

    enum class ViolationKind {
        UnloggedStore,
        DirtyAtTransition,
        PendingAtTransition,
        StoreAfterPwb,
        DirtyAtCommit,
    };
    static const char* kind_name(ViolationKind k);

    struct Violation {
        ViolationKind kind;
        uintptr_t addr;     ///< address of the first byte of the line
        std::string detail;
    };

    /// Address-space layout of the checked engine.  `base`/`size` cover the
    /// whole registered region (header + log areas + heap); `main` and
    /// `back` (each `main_size` bytes, back optional) are the areas whose
    /// lines must be clean at the respective state transitions.  Lines
    /// outside main/back (headers, persistent logs) are tracked through the
    /// state machine but exempt from the transition checks: engines
    /// deliberately keep e.g. the state word dirty for one pwb.
    struct Layout {
        const uint8_t* base = nullptr;
        size_t size = 0;
        const uint8_t* main = nullptr;
        size_t main_size = 0;
        const uint8_t* back = nullptr;  ///< nullptr: engine has no twin copy
    };

    struct Options {
        FlushContent content = FlushContent::AtFence;
        /// Require every in-transaction store to main to be covered by an
        /// on_range_logged notification (RomulusLog/LR, undo-log discipline).
        bool require_log = false;
        /// Also forward every event to this observer (e.g. a SimPersistence
        /// crash model), after checking.  Not owned.
        SimHooks* next = nullptr;
        /// Stop recording after this many violations (the count keeps
        /// incrementing; a broken engine would otherwise flood memory).
        size_t max_recorded = 64;
    };

    PersistencyChecker(Layout layout, Options opts);
    explicit PersistencyChecker(Layout layout)
        : PersistencyChecker(layout, Options{}) {}

    /// Convenience: build the Layout from a Romulus-style engine class
    /// (main_base/main_size/back_base/region introspection).
    template <typename Engine>
    static Layout layout_of() {
        Layout l;
        l.base = Engine::region().base();
        l.size = Engine::region().size();
        l.main = Engine::main_base();
        l.main_size = Engine::main_size();
        l.back = Engine::back_base();
        return l;
    }

    /// Like layout_of(), but main/back point at one shard's zone of a
    /// sharded engine: the transition checks then enforce the discipline for
    /// that shard's twin halves.  Valid for *serialised* workloads (the
    /// checker's standing assumption) — when transactions never overlap,
    /// every other shard's lines are clean at each observed transition, so
    /// any shard may be singled out.
    template <typename Engine>
    static Layout layout_of_shard(unsigned shard) {
        Layout l = layout_of<Engine>();
        l.main = Engine::main_base(shard);
        l.back = Engine::back_base(shard);
        return l;
    }

    // SimHooks
    void on_store(const void* addr, size_t len) override;
    void on_pwb(const void* addr) override;
    void on_fence() override;
    void on_tx_begin() override;
    void on_tx_commit() override;
    void on_tx_abort() override;
    void on_state_transition(uint32_t new_state) override;
    void on_range_logged(const void* addr, size_t len) override;
    /// Forwarded to Options::next only: the checker keeps a streamed line
    /// PendingWB until the engine's own fence (docs/checker.md), and the
    /// drain rule is romver's (analysis/persist_graph.hpp).
    void on_nt_store(const void* addr, size_t len) override {
        if (opts_.next) opts_.next->on_nt_store(addr, len);
    }
    void on_nt_drain() override {
        if (opts_.next) opts_.next->on_nt_drain();
    }

    // --- results -----------------------------------------------------------

    /// Total hard violations observed (including ones beyond max_recorded).
    uint64_t violation_count() const;
    /// The recorded violations, in observation order.
    std::vector<Violation> violations() const;
    bool clean() const { return violation_count() == 0; }
    /// Multi-line human-readable report of all recorded violations and the
    /// soft diagnostic counters ("" when fully clean).
    std::string report() const;
    /// Reset results AND shadow state (all lines become Clean, no active
    /// transaction): starts a fresh checking episode on the same region.
    void clear();

    struct Diagnostics {
        uint64_t redundant_pwb = 0;  ///< pwb of an already-clean line
        uint64_t empty_fence = 0;    ///< fence with no pending write-back
        uint64_t fences = 0;         ///< total fences observed
        uint64_t pwbs = 0;           ///< total pwbs observed (in region)
        uint64_t tx_begins = 0;
        uint64_t tx_commits = 0;
        uint64_t tx_aborts = 0;
        /// Fences / in-region pwbs issued between the last tx begin and
        /// commit (inclusive of commit's own fences) — Table 1 material.
        uint64_t fences_in_last_tx = 0;
        uint64_t pwbs_in_last_tx = 0;

        /// Feed the redundant-flush diagnostic into the commit-path
        /// counters, mirroring romver's GraphAnalysis::record_in — the
        /// live checker and the offline persist-graph pass deposit into
        /// the same CommitStats field.
        void record_in(CommitStats& cs) const {
            cs.redundant_pwbs += redundant_pwb;
        }
    };
    Diagnostics diagnostics() const;

    size_t dirty_line_count() const;
    size_t pending_line_count() const;

  private:
    size_t line_of(const void* addr) const {
        return (reinterpret_cast<uintptr_t>(addr) -
                reinterpret_cast<uintptr_t>(layout_.base)) /
               kCacheLineSize;
    }
    bool in_region(const void* addr) const {
        auto u = reinterpret_cast<uintptr_t>(addr);
        auto b = reinterpret_cast<uintptr_t>(layout_.base);
        return u >= b && u < b + layout_.size;
    }
    bool line_in(const uint8_t* area, size_t area_size, size_t line) const;
    uintptr_t line_addr(size_t line) const {
        return reinterpret_cast<uintptr_t>(layout_.base) +
               line * kCacheLineSize;
    }
    void record(ViolationKind kind, size_t line, std::string detail);
    void check_area_clean(const uint8_t* area, size_t area_size,
                          const char* area_name, const char* when,
                          bool pending_is_violation);
    void finish_tx(bool committed);

    Layout layout_;
    Options opts_;
    // Line state is kept sparsely: a line is Dirty iff in dirty_, PendingWB
    // iff in pending_, Clean otherwise.  The working set of a transaction is
    // tiny compared to the region, so fences and transition checks stay O(set)
    // instead of O(region / 64).
    std::unordered_set<size_t> dirty_;
    std::unordered_set<size_t> pending_;
    std::unordered_set<size_t> stored_in_tx_;  // main lines stored this tx
    std::unordered_set<size_t> logged_in_tx_;  // main lines covered by a log
    // Lines stored *after* their pwb and not re-flushed yet: if a fence
    // arrives while a line is still in here, AtPwb hardware persists stale
    // content (StoreAfterPwb).
    std::unordered_set<size_t> stale_capture_;
    bool tx_active_ = false;
    uint64_t violation_count_ = 0;
    std::vector<Violation> violations_;
    Diagnostics diag_;
    uint64_t tx_fence_mark_ = 0;  // diag_.fences at tx begin
    uint64_t tx_pwb_mark_ = 0;
    mutable std::mutex mu_;
};

}  // namespace romulus::pmem
