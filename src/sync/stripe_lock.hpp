// Stripe-granular versioned try-locks for the speculative update fast path
// (DESIGN.md §4.11).
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

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/race_hooks.hpp"

namespace romulus::sync {

/// Per-shard array of versioned try-locks plus the shard's fast-path commit
/// clock.  Single allocation, cache-line-aligned slots so two hot stripes
/// never share a line with each other or with the clock.
class StripeLockTable {
  public:
    using Word = uint64_t;
    static constexpr Word kLockedBit = 1;

    static constexpr unsigned kDefaultStripes = 1024;
    static constexpr unsigned kMaxStripes = 1u << 20;

    /// A table of `stripes` stripes, rounded up to a power of two and
    /// clamped to [1, kMaxStripes].
    explicit StripeLockTable(unsigned stripes = kDefaultStripes) {
        unsigned n = 1;
        while (n < stripes && n < kMaxStripes) n <<= 1;
        mask_ = n - 1;
        slots_ = std::make_unique<Slot[]>(n);
    }

    /// Zero every stripe word and the clock, keeping the allocation.  Used
    /// by crash_reset_for_tests: a crash loses all volatile lock state.
    void reset_for_tests() {
        for (unsigned s = 0; s <= mask_; ++s)
            slots_[s].w.store(0, std::memory_order_relaxed);
        clock_.store(0, std::memory_order_relaxed);
    }

    unsigned stripe_count() const { return mask_ + 1; }

    /// Map a cache-line index (byte offset / 64) to its stripe.
    unsigned stripe_of_line(size_t line_index) const {
        // Fibonacci hashing spreads the low bits of sequential line indexes
        // across the table; the shift keeps only as many bits as we need.
        const uint64_t h =
            static_cast<uint64_t>(line_index) * 0x9E3779B97F4A7C15ull;
        return static_cast<unsigned>(h >> 40) & mask_;
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
    std::unique_ptr<Slot[]> slots_;
    unsigned mask_ = 0;
    alignas(64) std::atomic<uint64_t> clock_{0};
};

/// Thread-local speculation state of RomulusNL/RomulusLog's update fast
/// path: a redo-style write set of whole captured cache lines plus a read
/// set of stripe observations.  The engine interposes pstore/pload into
/// spec_store/spec_load while a speculation is open, then commits the
/// buffer with its own durable protocol after spec_lock_write_set.
///
/// Aborts never throw.  A speculation that hits a conflict, footprint
/// overflow or allocation is *doomed* (`aborted` set) but the user closure
/// keeps executing to completion in a sandboxed pass-through mode; the
/// engine checks `aborted` when the closure returns and re-runs it on the
/// slow path.  Throwing would be fatal: data-structure destructors are
/// implicitly noexcept and routinely call tmDelete from inside an update
/// transaction, so an exception raised beneath them would std::terminate.
/// Doomed-mode rules keep the continuation safe: loads are word-atomic (no
/// torn pointers), stores stay buffered (read-your-writes) or are dropped
/// once the hard cap is exhausted, allocations are served from a volatile
/// scratch arena, and frees are ignored — every effect is discarded with
/// the speculation.
struct SpecBuffer {
    static constexpr unsigned kLineCap = 64;   ///< hard footprint bound
    /// Read-set bound in stripe observations; past it the speculation is
    /// doomed (validation would cost more than the slow path charges).
    static constexpr unsigned kReadCap = 64;
    static constexpr size_t kLineSize = 64;
    struct WLine {
        uint64_t line_off;  ///< line-aligned byte offset into the heap area
        unsigned stripe;
        uint64_t version;  ///< stripe version when the line was captured
        alignas(8) uint8_t data[kLineSize];
    };
    struct Observed {
        unsigned stripe;
        uint64_t word;
    };
    WLine wlines[kLineCap];
    Observed rset[kReadCap];
    unsigned nw = 0, nr = 0;
    unsigned wcap = 0;
    uint64_t rv = 0;       ///< fast-path clock snapshot at speculation start
    bool aborted = false;  ///< doomed: running to completion, will not commit

    /// Doomed-mode allocation arena: tmNew inside a speculation that can no
    /// longer commit must still return usable memory (the closure keeps
    /// executing, possibly beneath noexcept frames), so requests are served
    /// from volatile scratch blocks and discarded with the speculation.
    std::vector<std::unique_ptr<uint8_t[]>> scratch;

    void* scratch_alloc(size_t n) {
        scratch.emplace_back(new uint8_t[n + kLineSize - 1]);
        const auto p = reinterpret_cast<uintptr_t>(scratch.back().get());
        return reinterpret_cast<void*>((p + kLineSize - 1) &
                                       ~uintptr_t{kLineSize - 1});
    }

    void begin(unsigned max_lines, uint64_t read_version) {
        nw = nr = 0;
        wcap = max_lines < kLineCap ? max_lines : kLineCap;
        rv = read_version;
        aborted = false;
        scratch.clear();
    }
    WLine* find(uint64_t line_off) {
        for (unsigned i = 0; i < nw; ++i)
            if (wlines[i].line_off == line_off) return &wlines[i];
        return nullptr;
    }
    /// Dedup by stripe: a recorded version <= rv can only change via a
    /// commit that publishes a version > rv, which the caller's per-load
    /// validation rejects — so a re-observed stripe always matches.
    bool record_read(unsigned stripe, uint64_t word) {
        for (unsigned i = 0; i < nr; ++i)
            if (rset[i].stripe == stripe) return true;
        if (nr >= kReadCap) return false;
        rset[nr] = Observed{stripe, word};
        ++nr;
        return true;
    }
};

/// Doom the speculation: it keeps executing but will not commit.  Never
/// throws (see the SpecBuffer doc for why throwing would be fatal).
inline void spec_doom(SpecBuffer& b) { b.aborted = true; }

/// Copy [src, src+n) with single-instruction loads for every aligned 8-byte
/// word.  A doomed speculation keeps reading live heap memory without
/// validation, so individual words — pointers above all — must never tear
/// even though the snapshot as a whole is no longer consistent.
inline void word_atomic_copy(void* dst, const void* src, size_t n) {
    uint8_t* d = static_cast<uint8_t*>(dst);
    const uint8_t* s = static_cast<const uint8_t*>(src);
    while (n > 0 && (reinterpret_cast<uintptr_t>(s) & 7) != 0) {
        *d++ = *s++;
        --n;
    }
    while (n >= 8) {
        const uint64_t w = *reinterpret_cast<const volatile uint64_t*>(s);
        std::memcpy(d, &w, 8);
        d += 8;
        s += 8;
        n -= 8;
    }
    while (n > 0) {
        *d++ = *s++;
        --n;
    }
}

/// Capture a heap line into the write set: a validated snapshot of its
/// current content (the unwritten bytes of the line must be current at
/// apply time — the acquire-time version check re-verifies this).  On a
/// conflict or footprint overflow the speculation is doomed and the line is
/// captured best-effort anyway (word-atomic, unversioned) so buffered
/// read-your-writes keeps holding; past the hard cap nullptr is returned
/// and the caller drops the store.
inline SpecBuffer::WLine* spec_capture_line(SpecBuffer& fp,
                                            StripeLockTable& stripes,
                                            uint8_t* base, uint64_t line_off) {
    if (!fp.aborted) {
        if (fp.nw >= fp.wcap) {
            spec_doom(fp);  // footprint overflow: fall back to the slow path
        } else {
            const unsigned st =
                stripes.stripe_of_line(line_off / SpecBuffer::kLineSize);
            const StripeLockTable::Word w0 = stripes.read(st);
            SpecBuffer::WLine& wl = fp.wlines[fp.nw];
            if (StripeLockTable::is_locked(w0) ||
                StripeLockTable::version_of(w0) > fp.rv) {
                spec_doom(fp);
            } else {
                std::memcpy(wl.data, base + line_off, SpecBuffer::kLineSize);
                if (stripes.read(st) == w0 &&  // torn-capture re-check
                    ROMULUS_RACE_OPTIMISTIC_READ(
                        stripes.word(st), base + line_off,
                        SpecBuffer::kLineSize, w0, stripes.word(st),
                        "stripe.validate")) {
                    wl.line_off = line_off;
                    wl.stripe = st;
                    wl.version = StripeLockTable::version_of(w0);
                    ++fp.nw;
                    return &wl;
                }
                spec_doom(fp);
            }
        }
    }
    if (fp.nw >= SpecBuffer::kLineCap) return nullptr;
    SpecBuffer::WLine& wl = fp.wlines[fp.nw];
    word_atomic_copy(wl.data, base + line_off, SpecBuffer::kLineSize);
    wl.line_off = line_off;
    wl.stripe = 0;
    wl.version = 0;  // never consulted: a doomed buffer is not committed
    ++fp.nw;
    return &wl;
}

/// Buffered store to [base+off, base+off+n): every touched line is captured
/// once, then overwritten in the buffer only — the heap is untouched until
/// the engine's durable apply.
inline void spec_store(SpecBuffer& fp, StripeLockTable& stripes, uint8_t* base,
                       uint64_t off, const void* src, size_t n) {
    const uint8_t* from = static_cast<const uint8_t*>(src);
    while (n > 0) {
        if (fp.aborted && fp.nw >= SpecBuffer::kLineCap) {
            // Doomed with a full write set: no further line can be captured,
            // so only the captured lines inside the rest of the range take
            // bytes.  One pass over them instead of a find() per line keeps a
            // large payload store linear; read-your-writes is unchanged.
            const uint64_t end = off + n;
            for (unsigned i = 0; i < fp.nw; ++i) {
                SpecBuffer::WLine& wl = fp.wlines[i];
                const uint64_t lo = std::max(wl.line_off, off);
                const uint64_t hi =
                    std::min(wl.line_off + SpecBuffer::kLineSize, end);
                if (lo < hi)
                    std::memcpy(wl.data + (lo - wl.line_off), from + (lo - off),
                                hi - lo);
            }
            return;
        }
        const uint64_t line = off & ~uint64_t{SpecBuffer::kLineSize - 1};
        const size_t take =
            std::min<size_t>(n, line + SpecBuffer::kLineSize - off);
        SpecBuffer::WLine* wl = fp.find(line);
        if (wl == nullptr) wl = spec_capture_line(fp, stripes, base, line);
        if (wl != nullptr) std::memcpy(wl->data + (off - line), from, take);
        off += take;
        from += take;
        n -= take;
    }
}

/// Validated load from [base+off, base+off+n): buffered lines read from the
/// write set; everything else is read from the heap and checked against its
/// stripe word (the post-load re-read rejects values torn by a concurrent
/// applier; a version > rv rejects values newer than the speculation's
/// start-time snapshot).  A failed validation or read-set overflow dooms
/// the speculation and degrades this — and every later — unbuffered load
/// to a word-atomic raw read.
inline void spec_load(SpecBuffer& fp, StripeLockTable& stripes,
                      const uint8_t* base, uint64_t off, void* dst, size_t n) {
    uint8_t* out = static_cast<uint8_t*>(dst);
    while (n > 0) {
        const uint64_t line = off & ~uint64_t{SpecBuffer::kLineSize - 1};
        const size_t take =
            std::min<size_t>(n, line + SpecBuffer::kLineSize - off);
        if (const SpecBuffer::WLine* wl = fp.find(line)) {
            std::memcpy(out, wl->data + (off - line), take);
        } else {
            bool validated = false;
            if (!fp.aborted) {
                const unsigned st =
                    stripes.stripe_of_line(line / SpecBuffer::kLineSize);
                const StripeLockTable::Word w0 = stripes.read(st);
                if (!StripeLockTable::is_locked(w0) &&
                    StripeLockTable::version_of(w0) <= fp.rv) {
                    std::memcpy(out, base + off, take);
                    if (stripes.read(st) == w0 &&
                        ROMULUS_RACE_OPTIMISTIC_READ(
                            stripes.word(st), base + off, take, w0,
                            stripes.word(st), "stripe.validate") &&
                        fp.record_read(st, w0))
                        validated = true;
                }
                if (!validated) spec_doom(fp);
            }
            if (!validated) word_atomic_copy(out, base + off, take);
        }
        out += take;
        off += take;
        n -= take;
    }
}

/// Read-set validation: every observed stripe must hold its recorded word,
/// or that word's locked image while we hold the stripe ourselves (a read
/// line we also wrote).
inline bool spec_reads_valid(const SpecBuffer& fp,
                             const StripeLockTable& stripes,
                             const unsigned* held, unsigned nheld) {
    for (unsigned i = 0; i < fp.nr; ++i) {
        const SpecBuffer::Observed& o = fp.rset[i];
        const StripeLockTable::Word cur = stripes.read(o.stripe);
        if (cur == o.word) continue;
        if (cur == (o.word | StripeLockTable::kLockedBit)) {
            bool mine = false;
            for (unsigned j = 0; j < nheld; ++j) mine |= (held[j] == o.stripe);
            if (mine) continue;
        }
        return false;
    }
    return true;
}

/// Commit-time acquisition: try-lock the write set's stripes in canonical
/// (sorted, deduplicated) order, then validate the captured line versions
/// and the read set.  On success order[]/pre[] hold the ns acquired stripes
/// and their pre-acquire words; on any conflict everything acquired is
/// released untouched and false is returned (caller falls back).  Also
/// sorts the write set by line offset so the engine's apply coalesces
/// adjacent lines into maximal runs.
inline bool spec_lock_write_set(SpecBuffer& fp, StripeLockTable& stripes,
                                unsigned* order, StripeLockTable::Word* pre,
                                unsigned* ns_out) {
    unsigned ns = 0;
    for (unsigned i = 0; i < fp.nw; ++i) {
        const unsigned st = fp.wlines[i].stripe;
        bool seen = false;
        for (unsigned j = 0; j < ns; ++j) seen |= (order[j] == st);
        if (!seen) order[ns++] = st;
    }
    std::sort(order, order + ns);
    bool ok = true;
    unsigned got = 0;
    for (; got < ns; ++got) {
        if (!stripes.try_acquire(order[got], pre[got])) {
            ok = false;
            break;
        }
    }
    if (ok) {
        // Captured-line versions: the buffered before-image of each line's
        // unwritten bytes must still be current.
        for (unsigned i = 0; i < fp.nw && ok; ++i) {
            const SpecBuffer::WLine& wl = fp.wlines[i];
            for (unsigned j = 0; j < ns; ++j) {
                if (order[j] == wl.stripe &&
                    StripeLockTable::version_of(pre[j]) != wl.version)
                    ok = false;
            }
        }
    }
    if (ok) ok = spec_reads_valid(fp, stripes, order, ns);
    if (!ok) {
        for (unsigned j = 0; j < got; ++j)
            stripes.release_aborted(order[j], pre[j]);
        return false;
    }
    std::sort(fp.wlines, fp.wlines + fp.nw,
              [](const SpecBuffer::WLine& a, const SpecBuffer::WLine& b) {
                  return a.line_off < b.line_off;
              });
    *ns_out = ns;
    return true;
}

}  // namespace romulus::sync
