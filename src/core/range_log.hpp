// Volatile redo log of modified ranges (§4.7).
//
// Unlike every prior PTM log, this one stores *only addresses and lengths*,
// never data, and lives in volatile memory: the recovery procedure does not
// need it (Algorithm 1 recovers from the twin copy alone), so nothing about
// it is ever flushed.  At commit, the logged cache lines are (a) written
// back on main — one pwb per modified line instead of one per store — and
// (b) copied from main to back instead of copying the whole region.
//
// Deduplication is at cache-line granularity through an epoch-tagged
// open-addressing table, so a transaction that hammers one counter logs (and
// later flushes/copies) a single line.  If a transaction touches more bytes
// than a threshold (or overflows the table) the log degenerates to
// "full copy" mode — the same behaviour as the basic algorithm, which §6.6
// shows is actually *preferable* for huge transactions.
//
// Whole lines a large store_range payload wrote with non-temporal stores
// (DESIGN.md §4.6) skip the table: they enter as one *copy-only* run per
// store, replicated to back at commit but never flushed, since an NT store
// leaves nothing in the cache to write back.
//
// The stripe-locked speculative fast path (DESIGN.md §4.11) never consults
// this log: its sync::SpecBuffer write set already holds the touched lines
// deduplicated and sorted, so the fast-path apply coalesces adjacent lines
// into maximal flush/replication runs itself, mirroring merged_runs() for a
// footprint that is bounded by UpdateConfig::max_fastpath_lines.  Only the
// C-RW-WP slow path — where the write set is unbounded — pays for the
// table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pmem/flush.hpp"

namespace romulus {

class RangeLog {
  public:
    struct Entry {
        uint64_t off;  ///< byte offset of the cache line within main
        uint32_t len;  ///< always a whole cache line today
    };

    RangeLog() : RangeLog(16) {}
    explicit RangeLog(size_t table_bits)
        : mask_((size_t{1} << table_bits) - 1),
          lines_(size_t{1} << table_bits),
          epochs_(size_t{1} << table_bits, 0) {}

    /// Dedup-table sizing policy for a sharded engine: one log per shard, so
    /// with many shards each table can be smaller — a shard sees only its
    /// slice of the write traffic, and 2^bits slots cost 12 bytes each.
    static size_t suggested_table_bits(unsigned shards) {
        return shards > 1 ? 14 : 16;
    }

    /// Start a transaction.  `full_copy_threshold` is the number of logged
    /// bytes beyond which we give up and fall back to a full region copy.
    void begin_tx(size_t full_copy_threshold) {
        if (++epoch_ == 0) {
            // The 32-bit epoch wrapped back to the slot-vector fill value:
            // every stale slot would look occupied by *this* transaction and
            // dedup would silently drop its lines from the log (i.e. from the
            // commit flush + copy — a real durability bug).  Re-zero the
            // table and restart the epoch sequence.
            std::fill(epochs_.begin(), epochs_.end(), 0u);
            epoch_ = 1;
        }
        entries_.clear();
        copy_only_.clear();
        logged_bytes_ = 0;
        threshold_ = full_copy_threshold;
        full_copy_ = false;
        runs_valid_ = false;
        copies_valid_ = false;
    }

    /// Test hook: place the epoch counter near (or at) the wrap boundary so
    /// tests can exercise the wrap path without 2^32 transactions.
    void debug_set_epoch(uint32_t e) { epoch_ = e; }
    uint32_t debug_epoch() const { return epoch_; }

    /// Record a store of `len` bytes at main-relative offset `off`.
    void add(size_t off, size_t len) {
        if (full_copy_ || len == 0) return;
        const size_t first = off / pmem::kCacheLineSize;
        const size_t last = (off + len - 1) / pmem::kCacheLineSize;
        for (size_t line = first; line <= last; ++line) add_line(line);
    }

    /// A maximal coalesced byte range (64-bit length: adjacent lines can
    /// merge into runs far larger than any single Entry).
    struct Run {
        uint64_t off;
        uint64_t len;
    };

    /// Record whole lines [off, off+len) (both line-aligned) that were
    /// written with non-temporal stores: replicated by commit (copy_runs())
    /// but never flushed (merged_runs()).  One run per call, not one table
    /// slot per line.  A later add() of a line inside the run still logs
    /// that line for the flush, so a cached store after the streamed one
    /// gets its pwb.
    void add_copy_only(size_t off, size_t len) {
        if (full_copy_ || len == 0) return;
        copy_only_.push_back(Run{off, len});
        copies_valid_ = false;
        logged_bytes_ += len;
        if (logged_bytes_ > threshold_) full_copy_ = true;
    }

    bool full_copy() const { return full_copy_; }
    const std::vector<Entry>& entries() const { return entries_; }
    size_t logged_bytes() const { return logged_bytes_; }

    /// Maximal coalesced [off, off+len) runs of the lines commit must flush:
    /// the per-line entries sorted by offset with adjacent (and,
    /// defensively, overlapping) lines merged.  Computed once per
    /// transaction on first use and cached — commit consumes it twice
    /// (flush of main, and through copy_runs() replication to back), so a
    /// 10 KB sequential write costs one sort instead of 2×160 entry walks,
    /// and the flush/copy loops run per run instead of per 64 B line.
    /// Meaningless in full-copy mode (commit must not consult the log then).
    const std::vector<Run>& merged_runs() {
        if (!runs_valid_) {
            runs_.clear();
            runs_.reserve(entries_.size());
            for (const Entry& e : entries_) runs_.push_back(Run{e.off, e.len});
            coalesce(runs_);
            runs_valid_ = true;
        }
        return runs_;
    }

    /// Maximal coalesced runs of the lines commit must replicate to back:
    /// merged_runs() plus the copy-only runs.  Same caching and full-copy
    /// caveat as merged_runs(); without copy-only runs it *is* merged_runs().
    const std::vector<Run>& copy_runs() {
        if (copy_only_.empty()) return merged_runs();
        if (!copies_valid_) {
            copies_ = merged_runs();
            copies_.insert(copies_.end(), copy_only_.begin(), copy_only_.end());
            coalesce(copies_);
            copies_valid_ = true;
        }
        return copies_;
    }

  private:
    /// Sort by offset and merge adjacent or overlapping runs in place.
    static void coalesce(std::vector<Run>& v) {
        std::sort(v.begin(), v.end(),
                  [](const Run& a, const Run& b) { return a.off < b.off; });
        size_t out = 0;
        for (const Run& r : v) {
            if (out > 0 && r.off <= v[out - 1].off + v[out - 1].len) {
                Run& last = v[out - 1];
                const uint64_t end = std::max(last.off + last.len, r.off + r.len);
                last.len = end - last.off;
            } else {
                v[out++] = r;
            }
        }
        v.resize(out);
    }

    void add_line(size_t line) {
        size_t h = (line * 0x9E3779B97F4A7C15ull) & mask_;
        for (size_t probe = 0; probe <= kMaxProbe; ++probe) {
            size_t i = (h + probe) & mask_;
            if (epochs_[i] == epoch_) {
                if (lines_[i] == line) return;  // duplicate line
                continue;                       // occupied, keep probing
            }
            epochs_[i] = epoch_;
            lines_[i] = line;
            entries_.push_back(Entry{line * pmem::kCacheLineSize,
                                     static_cast<uint32_t>(pmem::kCacheLineSize)});
            runs_valid_ = false;
            copies_valid_ = false;
            logged_bytes_ += pmem::kCacheLineSize;
            if (logged_bytes_ > threshold_) full_copy_ = true;
            return;
        }
        full_copy_ = true;  // table too crowded: degrade to full copy
    }

    static constexpr size_t kMaxProbe = 32;

    size_t mask_;
    std::vector<size_t> lines_;
    std::vector<uint32_t> epochs_;
    uint32_t epoch_ = 0;
    std::vector<Entry> entries_;
    std::vector<Run> copy_only_;  // streamed runs: replicated, not flushed
    std::vector<Run> runs_;       // cached merged_runs() result
    std::vector<Run> copies_;     // cached copy_runs() result
    size_t logged_bytes_ = 0;
    size_t threshold_ = ~size_t{0};
    bool full_copy_ = false;
    bool runs_valid_ = false;
    bool copies_valid_ = false;
};

}  // namespace romulus
