// romver: persist-order graph capture and static protocol analysis
// (docs/romver.md).
//
// Every fence in the Romulus MUT→CPY→IDLE protocol exists to constrain which
// cache lines may be durable at a crash, yet the crash-injection tests cut
// only at fence boundaries with everything before the cut fully persisted —
// an optimistic slice of the states real persistent memory allows.  Between
// two fences, write-backs complete in ANY order (Px86-TSO: pwbs are only
// ordered by pfence/psync); the bugs hide exactly in that unordered window.
//
// This header provides the offline substrate that makes the full space
// analysable:
//
//   * PersistEventRecorder — a SimHooks observer that appends every
//     interposed (store, pwb, pfence, state-transition, tx-lifecycle) event
//     to a flat in-memory log, capturing each written-back cache line's
//     content at pwb time.  Chains to a `next` observer so recording
//     composes with SimPersistence / PersistencyChecker.
//   * PersistGraph — the happens-before-persist DAG over the recorded
//     write-backs: node = one write-back of one cache line; edges are
//     (a) fence ordering — a pwb issued before a pfence/psync persists
//     before any pwb issued after it — and (b) same-line program order —
//     successive write-backs of one line can only leave that line holding
//     a prefix-maximal content.  Everything else is UNordered: the legal
//     crash images are exactly the down-closed cuts of this DAG
//     (crash_explorer.hpp enumerates them).
//   * analyze_protocol() — static rules checked directly on the graph:
//     a line dirtied in MUT with no write-back ordered before the MUT→CPY
//     state persist, a state-word persist not ordered after all body
//     persists, a state-word persist issued while a line written with NT
//     stores is undrained, and the redundant-flush perf diagnostic (a pwb
//     of a line with no prior dirty store) fed into pmem::CommitStats.
//
// The recorder rides the existing SimHooks plumbing, so recording costs
// nothing unless hooks are installed.  -DROMULUS_PERSISTGRAPH additionally
// arms the seeded protocol-mutation hooks in the engines (elided commit
// fence, reordered state persist, elided NT drain) that the `persistgraph`
// CI leg uses to prove these rules still detect what they claim to; without
// the flag the mutation branches compile away entirely.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "pmem/flush.hpp"
#include "pmem/stats.hpp"

namespace romulus::analysis {

// ---------------------------------------------------------------------------
// Event capture
// ---------------------------------------------------------------------------

enum class PersistEventKind : uint8_t {
    Store,            ///< interposed store of [off, off+len)
    Pwb,              ///< write-back initiated for the line containing off
    Fence,            ///< pfence or psync (both order preceding pwbs)
    StateTransition,  ///< engine stored `state` into a heap state word
    TxBegin,
    TxCommit,
    TxAbort,
    RangeLogged,      ///< [off, off+len) is covered by the engine's log
    NtStore,          ///< [off, off+len) was written with NT stores
    NtDrain,          ///< this thread's NT stores were drained (sfence)
};

const char* persist_event_kind_name(PersistEventKind k);

struct PersistEvent {
    PersistEventKind kind;
    uint32_t len = 0;      ///< Store/RangeLogged/NtStore only
    uint32_t state = 0;    ///< StateTransition only
    uint64_t off = 0;      ///< region-relative byte offset (exact, not line)
    uint64_t content = 0;  ///< Pwb only: offset into the recorder's line pool
};

/// Records the interposed persistence-event stream of [base, base+size).
/// Out-of-region events are counted but not recorded.  The live region
/// content at construction time becomes the baseline image: everything in it
/// is assumed durable (the same attach-time assumption SimPersistence makes).
class PersistEventRecorder final : public pmem::SimHooks {
  public:
    struct Options {
        /// Forward every event to this observer after recording (e.g. a
        /// SimPersistence crash model or the PersistencyChecker).  Not owned.
        pmem::SimHooks* next = nullptr;
        /// Stop appending beyond this many events (overflowed() turns true;
        /// a runaway workload would otherwise eat memory 80 B at a time).
        size_t max_events = size_t{1} << 22;
    };

    PersistEventRecorder(const uint8_t* base, size_t size, Options opts);
    PersistEventRecorder(const uint8_t* base, size_t size)
        : PersistEventRecorder(base, size, Options{}) {}

    // SimHooks
    void on_store(const void* addr, size_t len) override;
    void on_pwb(const void* addr) override;
    void on_fence() override;
    void on_tx_begin() override;
    void on_tx_commit() override;
    void on_tx_abort() override;
    void on_state_transition(uint32_t new_state) override;
    void on_range_logged(const void* addr, size_t len) override;
    void on_nt_store(const void* addr, size_t len) override;
    void on_nt_drain() override;

    const std::vector<PersistEvent>& events() const { return events_; }
    /// Region snapshot taken at construction (durable-at-attach assumption).
    const std::vector<uint8_t>& baseline() const { return baseline_; }
    /// The 64-byte content captured when this Pwb event executed.
    const uint8_t* line_content(const PersistEvent& e) const {
        return pool_.data() + e.content;
    }
    const uint8_t* base() const { return base_; }
    size_t size() const { return size_; }
    bool overflowed() const { return overflowed_; }
    uint64_t skipped_out_of_region() const { return out_of_region_; }

    /// Drop recorded events and re-snapshot the baseline from the live
    /// region: starts a fresh recording episode.
    void clear();

  private:
    bool in_region(const void* addr) const {
        auto u = reinterpret_cast<uintptr_t>(addr);
        auto b = reinterpret_cast<uintptr_t>(base_);
        return u >= b && u < b + size_;
    }
    void append(PersistEvent e);

    const uint8_t* base_;
    size_t size_;
    Options opts_;
    std::vector<PersistEvent> events_;
    std::vector<uint8_t> pool_;      ///< captured 64 B line contents (pwb)
    std::vector<uint8_t> baseline_;
    bool overflowed_ = false;
    uint64_t out_of_region_ = 0;
    mutable std::mutex mu_;
};

// ---------------------------------------------------------------------------
// Engine address-space description (which offsets mean what)
// ---------------------------------------------------------------------------

/// Region-relative layout of one engine's persistent areas, in the shape the
/// graph rules need: per shard, the twin halves plus the state/used words.
/// Baselines (no twin, no state machine) leave back/state/used at kNone.
struct EngineLayout {
    static constexpr uint64_t kNone = ~uint64_t{0};

    struct Shard {
        uint64_t main_off = kNone;
        uint64_t back_off = kNone;   ///< kNone: engine has no twin copy
        uint64_t main_size = 0;
        uint64_t state_off = kNone;  ///< exact offset of the state word
        uint64_t used_off = kNone;   ///< exact offset of the used_size word
    };

    size_t region_size = 0;
    std::vector<Shard> shards;
    /// Optional persistent-log area (undo/redo baselines): lets reports
    /// attribute events to header/log/heap areas.
    uint64_t log_off = kNone;
    uint64_t log_size = 0;

    /// Shard whose main (or back) half contains `off`, or -1.
    int shard_of_zone(uint64_t off) const;
    /// Shard whose state word sits exactly at `off`, or -1.
    int shard_of_state(uint64_t off) const;
    bool in_main(const Shard& sh, uint64_t off) const {
        return sh.main_off != kNone && off >= sh.main_off &&
               off < sh.main_off + sh.main_size;
    }
    bool in_back(const Shard& sh, uint64_t off) const {
        return sh.back_off != kNone && off >= sh.back_off &&
               off < sh.back_off + sh.main_size;
    }

    /// Introspect a mapped engine.  Works for the sharded Romulus engines
    /// (state_addr/used_size_addr/shard_count) and the flat baselines
    /// (main_base/main_size only, plus log_base/log_size when exposed).
    template <typename E>
    static EngineLayout of() {
        EngineLayout l;
        l.region_size = E::region().size();
        const uint8_t* base = E::region().base();
        if constexpr (requires { E::shard_count(); E::state_addr(0u); }) {
            for (unsigned i = 0; i < E::shard_count(); ++i) {
                Shard sh;
                sh.main_off = uint64_t(E::main_base(i) - base);
                sh.back_off = E::back_base(i) != nullptr
                                  ? uint64_t(E::back_base(i) - base)
                                  : kNone;
                sh.main_size = E::main_size();
                sh.state_off = uint64_t(
                    static_cast<const uint8_t*>(E::state_addr(i)) - base);
                sh.used_off = uint64_t(
                    static_cast<const uint8_t*>(E::used_size_addr(i)) - base);
                l.shards.push_back(sh);
            }
        } else {
            Shard sh;
            sh.main_off = uint64_t(E::main_base() - base);
            sh.main_size = E::main_size();
            l.shards.push_back(sh);
        }
        if constexpr (requires { E::log_base(); E::log_size(); }) {
            l.log_off = uint64_t(E::log_base() - base);
            l.log_size = E::log_size();
        }
        return l;
    }
};

// ---------------------------------------------------------------------------
// The happens-before-persist DAG
// ---------------------------------------------------------------------------

/// One node per recorded write-back.  The DAG has a layered structure: fences
/// split the execution into windows; write-backs in earlier windows are
/// ordered before write-backs in later windows (fence edges), write-backs of
/// the same line within one window are chained in program order (same-line
/// edges), and everything else is concurrent.
class PersistGraph {
  public:
    static constexpr uint32_t kNoNode = ~uint32_t{0};

    struct Node {
        uint64_t line;            ///< region cache-line index (off / 64)
        uint64_t pwb_off;         ///< exact offset the pwb named
        uint64_t content;         ///< content-pool offset of the 64 B capture
        uint32_t window;          ///< fences observed before this write-back
        uint32_t same_line_pred;  ///< previous write-back of this line, or kNoNode
        size_t event_idx;         ///< index into the recorder's event vector
    };

    static PersistGraph build(const PersistEventRecorder& rec);

    const std::vector<Node>& nodes() const { return nodes_; }
    /// Number of fence windows (trailing open window included): fences + 1.
    uint32_t window_count() const { return window_count_; }
    /// Node indices per window, in program order.
    const std::vector<std::vector<uint32_t>>& window_nodes() const {
        return windows_;
    }
    /// Happens-before-persist: must node a be durable before node b can be?
    bool ordered_before(uint32_t a, uint32_t b) const;
    /// Count of unordered node pairs in window `w` metadata (diagnostics).
    size_t nodes_in_window(uint32_t w) const {
        return w < windows_.size() ? windows_[w].size() : 0;
    }

  private:
    std::vector<Node> nodes_;
    std::vector<std::vector<uint32_t>> windows_;
    uint32_t window_count_ = 1;
};

// ---------------------------------------------------------------------------
// Static protocol rules on the graph
// ---------------------------------------------------------------------------

struct ProtocolViolation {
    enum class Kind {
        /// A line in the shard zone was dirtied since the previous state
        /// persist and has NO write-back at all before the state persist.
        UnflushedLine,
        /// The line has a write-back, but it shares the state persist's
        /// fence window: no pfence orders it before the state word, so the
        /// state may become durable first (the missing/elided-fence bug).
        UnorderedStatePersist,
        /// The line was written with NT stores and not drained before the
        /// state persist: a pfence does not order NT stores under CLFLUSH
        /// (its fences are nops), so the state word may become durable
        /// while the line is still in a write-combining buffer.
        UndrainedNtLine,
    };
    Kind kind;
    uint64_t line_off;          ///< first byte of the offending line
    uint32_t shard;
    uint32_t state_value;       ///< the transition being persisted (CPY/IDL)
    uint32_t state_window;      ///< fence window of the state-word persist
    uint32_t line_window;       ///< window of the line's last covering pwb
                                ///< (kNoWindow when none exists)
    std::string detail;         ///< names the unordered line/fence pair
    static constexpr uint32_t kNoWindow = ~uint32_t{0};
};

const char* protocol_violation_kind_name(ProtocolViolation::Kind k);

struct GraphAnalysis {
    std::vector<ProtocolViolation> violations;
    /// Perf diagnostic: write-backs of lines with no prior dirty store.
    uint64_t redundant_pwbs = 0;
    uint64_t stores = 0;
    uint64_t pwbs = 0;
    uint64_t fences = 0;
    uint64_t state_persists = 0;

    bool clean() const { return violations.empty(); }
    std::string report() const;
    /// Feed the redundant-flush diagnostic into the commit-path counters
    /// (the same struct bench_commit_path reports from).
    void record_in(pmem::CommitStats& cs) const {
        cs.redundant_pwbs += redundant_pwbs;
    }
};

/// Run the static rule pass over a recording.  `layout` tells the pass which
/// offsets are twin-zone lines and which are state words; engines without
/// state words get only the redundant-flush diagnostic.
GraphAnalysis analyze_protocol(const PersistEventRecorder& rec,
                               const PersistGraph& graph,
                               const EngineLayout& layout);

// ---------------------------------------------------------------------------
// Seeded protocol mutations (fixtures for the rules above)
// ---------------------------------------------------------------------------

/// Deliberate protocol bugs the engines inject when built with
/// -DROMULUS_PERSISTGRAPH and the corresponding flag is set at runtime.
/// Each one is a real crash-consistency bug; romver must flag both, and the
/// silent controls (flags off, same build) must stay clean.
struct ProtocolMutations {
    /// Elide the pfence between the body write-backs and the MUT→CPY state
    /// store: the CPY state may persist before the data it advertises.
    bool elide_commit_fence = false;
    /// Issue the CPY state store + pwb BEFORE the body write-backs: the
    /// state persist is unordered with (program-order ahead of) the data.
    bool reorder_state_persist = false;
    /// Skip the drain that ends each commit phase of NT line images
    /// (RomulusEngine::drain_line_images, both commit paths): under CLFLUSH
    /// the CPY and IDL state stores may persist before those lines.
    bool elide_nt_drain = false;
};

ProtocolMutations& protocol_mutations();

}  // namespace romulus::analysis
