// Per-thread persistence-event statistics.
//
// The paper's evaluation repeatedly reasons about *counts* of persistence
// events (Table 1: pfence+psync per transaction; §6.2: pwbs per transaction
// histograms; §3.1: write amplification).  Every pwb/pfence/psync issued
// through the primitives in flush.hpp increments these counters, and the
// interposition layer additionally accounts NVM bytes written, so benchmarks
// can report the same columns the paper does.
#pragma once

#include <cstdint>

namespace romulus::pmem {

struct Stats {
    uint64_t pwb = 0;        ///< persist write-backs issued
    uint64_t pfence = 0;     ///< persist fences issued
    uint64_t psync = 0;      ///< persist syncs issued
    uint64_t nvm_bytes = 0;  ///< bytes stored to the persistent region
    uint64_t tx_aborts = 0;  ///< STM aborts (redo-log baseline only)

    Stats operator-(const Stats& o) const {
        return Stats{pwb - o.pwb, pfence - o.pfence, psync - o.psync,
                     nvm_bytes - o.nvm_bytes, tx_aborts - o.tx_aborts};
    }
    Stats& operator+=(const Stats& o) {
        pwb += o.pwb;
        pfence += o.pfence;
        psync += o.psync;
        nvm_bytes += o.nvm_bytes;
        tx_aborts += o.tx_aborts;
        return *this;
    }
    /// Fences per transaction as reported in Table 1.
    uint64_t fences() const { return pfence + psync; }
};

/// This thread's counters.  Counting is always on; the increments are cheap
/// relative to any real flush instruction.
Stats& tl_stats();

/// Reset this thread's counters to zero.
void reset_tl_stats();

/// Commit-pipeline instrumentation (one struct per thread, like Stats).
/// Tracks how the coalesced/streaming commit path actually behaved: how many
/// logged lines were merged into how many maximal runs, and how many bytes
/// went through the non-temporal streaming path versus the classic
/// cached-store + per-line-pwb path.  The pwb savings these counters
/// explain show up in Stats::pwb; this struct says *why*.
struct CommitStats {
    uint64_t commits = 0;       ///< commits that consumed a merged-run pass
    uint64_t runs = 0;          ///< coalesced [off,len) replication runs
    uint64_t lines_logged = 0;  ///< logged lines before merging (flushed
                                ///< and copy-only, RangeLog::add_copy_only)
    /// Bytes written with non-temporal stores: persist_copy's back
    /// replica and streamed whole lines of large store_range payloads in
    /// main, plus the fast-path apply's 64 B line images (main and back)
    /// under a profile whose pwb evicts the line (pmem::nt_store_line).
    uint64_t nt_bytes = 0;
    uint64_t cached_bytes = 0;  ///< persist_copy bytes via cached stores + pwb
    /// Write-backs of lines with no prior dirty store — wasted flushes.
    /// Counted offline by romver's static rule pass (GraphAnalysis::
    /// record_in) rather than on the hot path; stays 0 unless an analysis
    /// run deposits its diagnostic here.
    uint64_t redundant_pwbs = 0;
    /// Stripe-locked speculative fast path (DESIGN.md §4.11) outcomes for
    /// update transactions on this thread:
    uint64_t fastpath_commits = 0;  ///< updateTx committed speculatively
    /// Speculations that failed: doomed (conflict, footprint overflow,
    /// allocation, free), lost the commit-time validation, or exited
    /// through a user exception.
    uint64_t fastpath_aborts = 0;
    /// updateTx that re-ran on the C-RW-WP slow path after a failed
    /// speculation or because a slow-path writer held the shard lock.  Not
    /// counted with UpdateConfig::fastpath off.
    uint64_t fastpath_fallbacks = 0;
    /// Fast-path group apply (DESIGN.md §4.11): durable apply windows
    /// this thread ran, and the announced write sets they carried (their
    /// ratio is the mean batch size; 1.0 = no two commits ever shared one
    /// MUT/CPY/IDL window).
    uint64_t fastpath_batches = 0;
    uint64_t fastpath_batched = 0;

    /// Lines whose individual memcpy/pwb dispatch was avoided by merging.
    uint64_t lines_merged() const { return lines_logged - runs; }
    /// Mean run length in cache lines (1.0 = nothing ever coalesced).
    double avg_run_lines() const {
        return runs == 0 ? 0.0
                         : static_cast<double>(lines_logged) /
                               static_cast<double>(runs);
    }
};

/// This thread's commit-path counters (single-writer engines commit on the
/// combiner thread, so per-thread counting composes the same way tl_stats
/// does for pwbs).
CommitStats& tl_commit_stats();
void reset_tl_commit_stats();

}  // namespace romulus::pmem
