// romfuzz layer 1 (docs/romfuzz.md): transaction record/replay.
//
// A TxTrace is the complete, self-contained description of one fuzz history
// over the KV store: a seeded generator emits an op sequence (setup
// population + recorded episode), the harness executes it as durable
// transactions, and the same trace replayed against a fresh heap re-executes
// byte-for-byte — same allocations, same persist-event stream.  Cross-shard
// WriteBatches appear in the trace as consecutive per-shard sub-transactions
// in ascending shard order, mirroring ShardedKVStore::write's commit order,
// which is what makes the prefix-persistence contract checkable offline.
//
// The trace serializes to a compact binary log (a repro bundle): header +
// sub-transaction records + optional repro parameters (explore budget + the
// violating cut) + optional per-shard access log + FNV-1a checksum footer.
// Truncated or corrupted bundles are rejected with TraceError, never
// misparsed.
//
// The access log is the "ordered access recorder" half: per-shard streams of
// interposed stores plus tx-boundary/state events, distilled from a
// PersistEventRecorder capture (the same SimHooks plumbing romrace's
// pload/pstore interposition rides).  Two runs of the same trace must
// produce identical access logs — the replay-determinism witness
// tests/test_tx_trace.cpp asserts.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/persist_graph.hpp"

namespace romulus::analysis {

/// Malformed trace bundle: truncation, bad magic/version, checksum mismatch.
struct TraceError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

enum class TraceOpKind : uint8_t { kPut = 0, kDel = 1, kGet = 2 };

struct TraceOp {
    TraceOpKind kind = TraceOpKind::kPut;
    std::string key;
    std::string value;  ///< empty for kDel/kGet

    bool operator==(const TraceOp&) const = default;
};

/// One durable transaction on one shard.  A cross-shard batch is a run of
/// consecutive SubTx records sharing a nonzero batch_id, in ascending shard
/// order.  A kGet rides alone in its own SubTx (one read transaction).
struct SubTx {
    uint8_t shard = 0;
    uint32_t batch_id = 0;  ///< 0: standalone; >0: part of a cross-shard batch
    std::vector<TraceOp> ops;

    bool is_get() const {
        return ops.size() == 1 && ops[0].kind == TraceOpKind::kGet;
    }
    bool operator==(const SubTx&) const = default;
};

/// Everything needed to re-run the exact crash scenario that failed.
struct ReproInfo {
    /// 0: crash_explorer cuts, 1: fork-and-crash at a fence, 2: SIGKILL
    /// after a store.
    uint8_t mode = 0;
    uint64_t explore_seed = 1;
    uint64_t max_cuts = 0;
    uint64_t window_exhaustive_cap = 0;
    uint64_t window_samples = 0;
    uint64_t cut_index = 0;  ///< explore mode: the violating cut's index
    /// fork mode: episode fence the child died at; sigkill mode: episode
    /// store it was killed after.
    uint64_t fence = 0;

    bool operator==(const ReproInfo&) const = default;
};

/// One entry of the ordered access log.
struct AccessEvent {
    /// 0 store, 1 tx-begin, 2 tx-commit, 3 tx-abort, 4 state transition.
    uint8_t kind = 0;
    uint32_t len = 0;  ///< store length / state value
    uint64_t off = 0;  ///< region-relative offset (stores and states)

    bool operator==(const AccessEvent&) const = default;
};

/// Per-shard ordered access streams.  Stream s < shard_count holds the
/// stores attributed to shard s's twin zone; the final stream is global
/// (tx boundaries, state transitions, and stores outside any shard zone —
/// header words, baseline logs).
struct AccessLog {
    std::vector<std::vector<AccessEvent>> streams;

    /// Distill the access streams from a persist-event capture, attributing
    /// stores to shards via the engine layout.
    static AccessLog from_recording(const PersistEventRecorder& rec,
                                    const EngineLayout& layout);

    bool empty() const;
    size_t total_events() const;
    uint64_t digest() const;
    bool operator==(const AccessLog&) const = default;
};

/// Engine tags stored in trace headers so --replay can route the bundle.
enum : uint8_t {
    kEngineRomulusNL = 0,
    kEngineRomulusLog = 1,
    kEngineRomulusLR = 2,
    kEngineUndoLog = 3,
    kEngineRedoLog = 4,
    kEngineUnknown = 255,
};
const char* engine_tag_name(uint8_t tag);

struct TxTrace {
    uint8_t engine_id = kEngineUnknown;
    uint32_t shard_count = 1;
    uint64_t seed = 0;
    /// Leading sub-transactions that populate the store before recording
    /// starts; they are durable in every crash image (the recorder baseline).
    uint32_t setup_count = 0;
    std::vector<SubTx> subtxs;

    bool has_repro = false;
    ReproInfo repro;
    AccessLog access;  ///< empty until a run fills it

    size_t episode_count() const { return subtxs.size() - setup_count; }
    const SubTx& episode(size_t i) const { return subtxs[setup_count + i]; }

    /// Serialize to the bundle format (always internally consistent:
    /// deserialize(serialize()) round-trips).
    std::vector<uint8_t> serialize() const;
    /// Parse a bundle; throws TraceError on any truncation, bad
    /// magic/version, or checksum mismatch.
    static TxTrace deserialize(const std::vector<uint8_t>& bytes);

    void save(const std::string& path) const;
    static TxTrace load(const std::string& path);

    /// FNV-1a over the serialized bytes — the replay-determinism witness.
    uint64_t digest() const;

    bool operator==(const TxTrace&) const = default;
};

/// Workload-shape knobs for the seeded generator.
struct GenConfig {
    uint32_t setup_ops = 48;    ///< unrecorded population PUTs
    uint32_t episode_ops = 24;  ///< recorded sub-transaction budget
    uint32_t key_space = 96;    ///< distinct keys
    /// Value length drawn from [value_min, value_max].
    uint32_t value_min = 0;
    uint32_t value_max = 160;
    uint32_t put_pct = 50;
    uint32_t del_pct = 15;
    uint32_t get_pct = 20;      ///< remainder of 100 goes to batches
    uint32_t batch_ops = 6;     ///< ops per cross-shard WriteBatch
    /// Key skew: each key index is the minimum of this many uniform draws,
    /// biasing the workload toward low-numbered (hot) keys.  1 = uniform.
    uint32_t skew_draws = 2;
};

/// Deterministically generate a trace: same (cfg, seed, shard_count, route)
/// ⇒ identical trace bytes.  `route` maps a key to its shard (pass
/// db::shard_for_key routing for ShardedKVStore; a constant 0 for the
/// single-shard baselines).  Uses only integer arithmetic on mt19937_64
/// outputs, so the bytes are stable across platforms.
TxTrace generate_trace(const GenConfig& cfg, uint64_t seed,
                       uint32_t shard_count, uint8_t engine_id,
                       const std::function<unsigned(std::string_view)>& route);

}  // namespace romulus::analysis
