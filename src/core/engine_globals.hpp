// Process-wide engine configuration helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "pmem/flush.hpp"

namespace romulus {

/// Default persistent heap size: ROMULUS_HEAP_MB env var (in MiB) or 64 MiB.
size_t default_heap_bytes();

/// Size of every PTM's root-object ("objects array", §4.3) table, per shard.
inline constexpr int kMaxRootObjects = 64;

/// Upper bound on intra-heap shards: one ShardHeader cache line per shard
/// must fit in the engines' reserved 4 KiB header page.
inline constexpr unsigned kMaxShards = 32;

/// Default shard count when init() is called without one: ROMULUS_SHARDS env
/// var clamped to [1, kMaxShards], or 1 (the classic single-writer layout).
unsigned default_shard_count();

/// True when the build carries romver's seeded protocol-mutation hooks
/// (-DROMULUS_PERSISTGRAPH).  The persist-graph capture itself rides the
/// always-on SimHooks plumbing; only the deliberate-bug branches in the
/// engines are compiled in/out by the flag.  Tests and the romver CLI key
/// mutation runs on this.
#ifdef ROMULUS_PERSISTGRAPH
inline constexpr bool kPersistGraphEnabled = true;
#else
inline constexpr bool kPersistGraphEnabled = false;
#endif

/// Runtime knobs for the optimistic (seqlock-validated) read path
/// (DESIGN.md §4.9).  Process-wide, read on every readTx; mutate only from
/// quiescent test/bench setup code.
struct ReadConfig {
    /// Master switch: false forces every readTx onto the pessimistic
    /// C-RW-WP reader-lock path (the pre-§4.9 behaviour) — the A/B control
    /// for bench_fig7_readers and for workloads whose read closures are not
    /// safely re-executable.  NOTE: the true default is a behavioural
    /// contract change — read closures may now run multiple times, so
    /// closures that accumulate into captured state must be made
    /// restartable or opt out here (docs/API.md).
    bool optimistic = true;
    /// Closure runs a writer may invalidate mid-flight before a readTx
    /// gives up and falls back to the reader lock.  A writer window that is
    /// open when a run would start is waited out and spends no attempt:
    /// C-RW-WP gives writers preference, so a reader waits out writers on
    /// either path, and the odd window is shorter than the lock hold.  The
    /// bound only stops a reader from livelocking on runs that keep
    /// straddling a window.
    unsigned max_attempts = 4;
};
ReadConfig& read_config();

/// Runtime knobs for the stripe-locked speculative update fast path
/// (DESIGN.md §4.11).  Process-wide, read on every updateTx; mutate only
/// from quiescent test/bench setup code.  Eligibility is transparent to
/// callers: a transaction that overflows, conflicts, or allocates silently
/// re-runs on the C-RW-WP slow path with identical semantics.
struct UpdateConfig {
    /// Master switch: false forces every updateTx onto the C-RW-WP
    /// writer-lock / flat-combining slow path (the pre-§4.11 behaviour) —
    /// the A/B control for bench_stripe_updates.
    bool fastpath = true;
    /// Write-footprint cap in cache lines; a speculative transaction whose
    /// write set grows past this aborts to the slow path (large writers
    /// amortize the shard lock fine; the fast path targets small updates).
    unsigned max_fastpath_lines = 8;
};
UpdateConfig& update_config();

/// Strict base-10 integer parse for environment knobs: accepts optional
/// whitespace then a complete signed decimal number and nothing else.
/// Returns false (leaving *out untouched) on null/empty input, trailing
/// garbage ("12x"), non-numeric text ("abc" — where atol would silently
/// yield 0), overflow, or a value below `lo`.  This is the one shared
/// parser behind apply_env_tuning / default_heap_bytes /
/// default_shard_count, so every knob rejects malformed values the same
/// way instead of each growing its own atol call.
bool parse_env_long(const char* text, long lo, long* out);

/// The same strict parse for an unsigned 64-bit value (a leading '-' is
/// rejected, not wrapped): the range ROMULUS_NT_THRESHOLD needs to spell
/// its stream-nothing value, SIZE_MAX.
bool parse_env_u64(const char* text, uint64_t* out);

/// parse_env_long over getenv(name).
bool env_to_long(const char* name, long lo, long* out);

/// Seed ReadConfig / UpdateConfig / pmem::CommitConfig from the environment
/// — lets the fuzz/CI legs sweep knob settings without recompiling.
/// Recognized (unset or malformed vars leave the compiled defaults):
///   ROMULUS_READ_OPTIMISTIC=0|1      ReadConfig::optimistic
///   ROMULUS_READ_MAX_ATTEMPTS=<n>    ReadConfig::max_attempts (>= 1)
///   ROMULUS_NT_THRESHOLD=<bytes>     CommitConfig::nt_threshold
///                                    (18446744073709551615: never stream)
///   ROMULUS_UPDATE_FASTPATH=0|1     UpdateConfig::fastpath
///   ROMULUS_UPDATE_MAX_LINES=<n>    UpdateConfig::max_fastpath_lines (>= 1)
/// Returns a human-readable summary of the overrides applied (empty when
/// none).  Call from tool main()s before any engine init; knobs are
/// process-wide and read on every transaction.
std::string apply_env_tuning();

/// Per-thread outcome counters for the optimistic read path.  Thread-local
/// so the read fast path never touches a shared cache line.
struct ReadStats {
    uint64_t opt_commits = 0;  ///< readTx completed on the fast path
    uint64_t opt_waits = 0;    ///< writer windows waited out before a run
    uint64_t opt_aborts = 0;   ///< runs invalidated by a writer mid-flight
    uint64_t fallbacks = 0;    ///< readTx that took the pessimistic lock
    /// Read closures that exited via a user exception off a still-valid
    /// snapshot (the exception propagates; not counted as a commit).
    uint64_t opt_exception_exits = 0;
};
ReadStats& tl_read_stats();
inline void reset_tl_read_stats() { tl_read_stats() = ReadStats{}; }

}  // namespace romulus
