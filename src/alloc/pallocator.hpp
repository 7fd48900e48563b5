// PAllocator: a sequential persistent memory allocator (§4.4).
//
// Modelled on Doug Lea's allocator [19]: boundary-tagged chunks carved out of
// a wilderness area, with segregated (power-of-two) free-list bins and
// immediate coalescing on free.  The crucial property — the paper's whole
// point about allocators — is that *every* metadata word is wrapped in
// persist<T>, so bin heads, chunk headers, footers and the wilderness mark
// are logged and replicated exactly like user data.  A crash in the middle
// of malloc/free rolls the allocator back together with the transaction;
// there is no separate allocator recovery, no Makalu-style GC, no leaked
// blocks from external inconsistency.
//
// The allocator is sequential by design: in Romulus there is always a single
// writer per instance (the flat-combining combiner), which is what lets a
// stock sequential allocator be used at all (§5.3, last paragraph).  With
// intra-heap sharding each shard owns one PAllocator over its own pool
// slice; the per-shard writer lock preserves exactly this single-writer
// contract, and cross-shard pointers must never be freed here (the engine
// asserts ownership in free_bytes).
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>

namespace romulus {

template <typename PTM>
class PAllocator {
  public:
    template <typename T>
    using p = typename PTM::template p<T>;

    static constexpr size_t kAlign = 16;
    static constexpr size_t kHeaderSize = 16;  // size_flags + footer
    static constexpr size_t kMinChunk = 48;    // header + free links + footer
    static constexpr int kNumBins = 28;        // 32 B .. ~4 GB, log2 bins
    static constexpr uint64_t kInUse = 1;
    static constexpr uint64_t kQuick = 2;  // cached in a quick list
    // Exact-size quick lists for small objects (§6.2: PMDK's allocator
    // needs a single flush per small allocation; this cache gives the same
    // fast path — pop/push one head pointer — ahead of the boundary-tag
    // machinery).  Chunk sizes 48..288 in 16 B steps.
    static constexpr int kQuickBins = 16;
    static constexpr uint64_t kQuickMax =
        kMinChunk + (kQuickBins - 1) * kAlign;

    struct Chunk {
        p<uint64_t> size_flags;  // chunk size (incl. overhead) | kInUse
        // Free chunks keep their bin links in the payload area:
        p<Chunk*> next_free;
        p<Chunk*> prev_free;

        uint64_t size() const { return size_flags.pload() & ~(kInUse | kQuick); }
        bool in_use() const { return size_flags.pload() & kInUse; }
        bool in_quick() const { return size_flags.pload() & kQuick; }
    };

    /// Persistent metadata, embedded in the main region's meta block.
    struct Meta {
        p<Chunk*> bins[kNumBins];
        p<Chunk*> quick[kQuickBins];  ///< exact-size small-object cache
        p<uint64_t> wilderness;       ///< offset of the untouched pool tail
        p<uint64_t> allocated_bytes;  ///< live payload bytes (stats)
        p<uint64_t> alloc_count;      ///< live allocations (stats)
    };

    PAllocator() = default;

    /// First-time formatting: everything empty, whole pool is wilderness.
    /// Must run inside a (formatting) transaction context of PTM.
    void format(Meta* meta, uint8_t* pool, size_t pool_size) {
        attach(meta, pool, pool_size);
        for (int i = 0; i < kNumBins; ++i) meta_->bins[i] = nullptr;
        for (int i = 0; i < kQuickBins; ++i) meta_->quick[i] = nullptr;
        meta_->wilderness = 0;
        meta_->allocated_bytes = 0;
        meta_->alloc_count = 0;
    }

    /// Enable/disable the small-object quick cache (volatile policy knob;
    /// the persistent layout always reserves the quick bins).  On by
    /// default: without it a small key or node request whose own bin is
    /// empty splits a freed large value chunk, and the remainder is too
    /// small for the next large value, which then comes from the
    /// wilderness.  The allocator ablation bench A/Bs it.
    void set_quick_cache(bool on) { quick_enabled_ = on; }

    /// Re-attach to already-formatted metadata (after restart/recovery).
    void attach(Meta* meta, uint8_t* pool, size_t pool_size) {
        meta_ = meta;
        pool_ = pool;
        pool_size_ = pool_size;
    }

    /// Allocate `n` payload bytes.  Returns nullptr when the pool is
    /// exhausted (callers turn that into std::bad_alloc).
    void* alloc(size_t n) {
        const uint64_t need = chunk_size_for(n);

        // 0. Exact-size quick-list hit: one pointer pop, no splitting, no
        //    bin surgery — the PMDK-style small-allocation fast path.
        if (quick_enabled_ && need <= kQuickMax) {
            const int qb = quick_index(need);
            Chunk* c = meta_->quick[qb].pload();
            if (c != nullptr) {
                meta_->quick[qb] = c->next_free.pload();
                c->size_flags = need | kInUse;  // clears kQuick
                meta_->allocated_bytes += need - kHeaderSize;
                meta_->alloc_count += 1;
                return payload(c);
            }
        }

        // 1. Exact-ish fit from the bins.
        if (Chunk* c = take_from_bins(need)) {
            split_if_worth(c, need);
            mark_allocated(c);
            return payload(c);
        }

        // 2. Carve from the wilderness.
        uint64_t w = meta_->wilderness.pload();
        if (w + need > pool_size_) return nullptr;
        Chunk* c = chunk_at(w);
        meta_->wilderness = w + need;
        PTM::note_used(pool_ + w + need);  // keep header.used_size monotonic
        c->size_flags = need;  // not yet in use; mark_allocated sets the bit
        write_footer(c, need);
        mark_allocated(c);
        return payload(c);
    }

    /// Free a pointer previously returned by alloc().
    void free(void* ptr) {
        assert(ptr != nullptr);
        assert(static_cast<uint8_t*>(ptr) >= pool_ &&
               static_cast<uint8_t*>(ptr) < pool_ + pool_size_ &&
               "free of a pointer outside this allocator's pool");
        Chunk* c = chunk_of(ptr);
        assert(c->in_use() && "double free or wild pointer");
        uint64_t sz = c->size();
        meta_->allocated_bytes -= payload_size(c);
        meta_->alloc_count -= 1;

        if (quick_enabled_ && sz <= kQuickMax) {
            // Park in the quick list: the chunk keeps its in-use boundary
            // tag (so neighbours do not coalesce into it) plus the kQuick
            // mark, and only the list head is touched.
            const int qb = quick_index(sz);
            c->size_flags = sz | kInUse | kQuick;
            c->next_free = meta_->quick[qb].pload();
            meta_->quick[qb] = c;
            return;
        }

        c->size_flags = sz;  // clear in-use

        c = coalesce_right(c);
        c = coalesce_left(c);
        push_bin(c);
    }

    size_t payload_capacity(const void* ptr) const {
        return chunk_of(ptr)->size() - kHeaderSize;
    }

    uint64_t allocated_bytes() const { return meta_->allocated_bytes.pload(); }
    uint64_t alloc_count() const { return meta_->alloc_count.pload(); }
    uint64_t wilderness_offset() const { return meta_->wilderness.pload(); }

    /// Internal consistency check used by tests: walks the heap from chunk 0
    /// to the wilderness mark and cross-checks bin membership.  Returns the
    /// number of chunks walked, or 0 on inconsistency.
    size_t check_consistency() const {
        uint64_t off = 0;
        const uint64_t end = meta_->wilderness.pload();
        size_t chunks = 0;
        uint64_t live = 0, live_cnt = 0, quick_cnt = 0;
        while (off < end) {
            const Chunk* c = chunk_at(off);
            uint64_t sz = c->size();
            if (sz < kMinChunk || off + sz > end) return 0;
            if (footer_of(c) != sz) return 0;
            if (c->in_quick()) {
                quick_cnt++;
            } else if (c->in_use()) {
                live += sz - kHeaderSize;
                live_cnt++;
            } else if (!find_in_bin(const_cast<Chunk*>(c))) {
                return 0;  // free chunk missing from its bin
            }
            off += sz;
            chunks++;
        }
        if (off != end) return 0;
        if (live != meta_->allocated_bytes.pload()) return 0;
        if (live_cnt != meta_->alloc_count.pload()) return 0;
        // Every quick-marked chunk must be reachable from a quick list.
        uint64_t listed = 0;
        for (int qb = 0; qb < kQuickBins; ++qb) {
            for (Chunk* c = meta_->quick[qb].pload(); c != nullptr;
                 c = c->next_free.pload()) {
                if (!c->in_quick() || quick_index(c->size()) != qb) return 0;
                listed++;
            }
        }
        if (listed != quick_cnt) return 0;
        return chunks == 0 ? 1 : chunks;  // 0 is the error code
    }

    /// Defensive structural check of the free-list metadata, safe to run on
    /// an arbitrarily corrupted heap (a recovered crash image, possibly from
    /// a deliberately broken protocol mutation): every pointer is validated
    /// for alignment and bounds BEFORE it is dereferenced and every list
    /// walk is step-capped, so torn or garbage metadata yields `false`
    /// instead of a wild dereference.  check_consistency() above assumes a
    /// structurally sound heap; probe_allocator runs this first so a corrupt
    /// image is reported as a violation rather than crashing the prober.
    bool metadata_sane() const {
        const uint64_t end = meta_->wilderness.pload();
        if (end > pool_size_ || end % kAlign != 0) return false;
        const size_t cap = pool_size_ / kMinChunk + 1;
        const auto base = reinterpret_cast<uintptr_t>(pool_);
        auto valid_chunk = [&](const Chunk* c) {
            const auto a = reinterpret_cast<uintptr_t>(c);
            if (a < base || a - base > end || end - (a - base) < kMinChunk)
                return false;
            if ((a - base) % kAlign != 0) return false;
            const uint64_t sz = c->size();  // in bounds now; safe to read
            return sz >= kMinChunk && sz % kAlign == 0 &&
                   sz <= end - (a - base);
        };
        for (int b = 0; b < kNumBins; ++b) {
            size_t steps = 0;
            const Chunk* prev = nullptr;
            for (const Chunk* c = meta_->bins[b].pload(); c != nullptr;
                 prev = c, c = c->next_free.pload()) {
                if (!valid_chunk(c) || c->in_use() || c->in_quick())
                    return false;
                if (bin_index(c->size()) != b) return false;
                // unlink() writes through prev_free, so the back links must
                // be sane too, not just the forward chain.
                if (c->prev_free.pload() != prev) return false;
                if (++steps > cap) return false;  // cycle
            }
        }
        for (int qb = 0; qb < kQuickBins; ++qb) {
            size_t steps = 0;
            for (const Chunk* c = meta_->quick[qb].pload(); c != nullptr;
                 c = c->next_free.pload()) {
                if (!valid_chunk(c) || !c->in_quick()) return false;
                if (quick_index(c->size()) != qb) return false;
                if (++steps > cap) return false;
            }
        }
        return true;
    }

  private:
    static uint64_t chunk_size_for(size_t n) {
        uint64_t sz = ((n + kHeaderSize + kAlign - 1) / kAlign) * kAlign;
        return sz < kMinChunk ? kMinChunk : sz;
    }

    static int quick_index(uint64_t chunk_size) {
        return static_cast<int>((chunk_size - kMinChunk) / kAlign);
    }

    static int bin_index(uint64_t sz) {
        int idx = std::bit_width(sz) - 6;  // 32..63 -> 0, 64..127 -> 1, ...
        if (idx < 0) idx = 0;
        if (idx >= kNumBins) idx = kNumBins - 1;
        return idx;
    }

    Chunk* chunk_at(uint64_t off) const {
        return reinterpret_cast<Chunk*>(pool_ + off);
    }
    const Chunk* chunk_at_c(uint64_t off) const {
        return reinterpret_cast<const Chunk*>(pool_ + off);
    }
    uint64_t offset_of(const Chunk* c) const {
        return reinterpret_cast<const uint8_t*>(c) - pool_;
    }
    // Payloads start 8 bytes into the chunk (right after size_flags); these
    // two are the only places that know that offset.
    static void* payload(Chunk* c) {
        return reinterpret_cast<uint8_t*>(c) + 8;
    }
    static const Chunk* chunk_of(const void* payload_ptr) {
        return reinterpret_cast<const Chunk*>(
            static_cast<const uint8_t*>(payload_ptr) - 8);
    }
    static Chunk* chunk_of(void* payload_ptr) {
        return const_cast<Chunk*>(
            chunk_of(static_cast<const void*>(payload_ptr)));
    }
    static uint64_t payload_size(const Chunk* c) {
        return c->size() - kHeaderSize;
    }

    /// The footer is a persist<uint64_t> occupying the last 8 bytes of the
    /// chunk; it mirrors the size so the left neighbour can be found.
    p<uint64_t>* footer_slot(const Chunk* c) const {
        return reinterpret_cast<p<uint64_t>*>(
            const_cast<uint8_t*>(reinterpret_cast<const uint8_t*>(c)) +
            c->size() - 8);
    }
    void write_footer(Chunk* c, uint64_t sz) {
        auto* f = reinterpret_cast<p<uint64_t>*>(reinterpret_cast<uint8_t*>(c) +
                                                 sz - 8);
        *f = sz;
    }
    uint64_t footer_of(const Chunk* c) const {
        return footer_slot(c)->pload();
    }

    void mark_allocated(Chunk* c) {
        c->size_flags = c->size() | kInUse;
        meta_->allocated_bytes += payload_size(c);
        meta_->alloc_count += 1;
    }

    void push_bin(Chunk* c) {
        int b = bin_index(c->size());
        Chunk* head = meta_->bins[b].pload();
        c->next_free = head;
        c->prev_free = nullptr;
        if (head != nullptr) head->prev_free = c;
        meta_->bins[b] = c;
    }

    void unlink(Chunk* c) {
        Chunk* prev = c->prev_free.pload();
        Chunk* next = c->next_free.pload();
        if (prev != nullptr) {
            prev->next_free = next;
        } else {
            meta_->bins[bin_index(c->size())] = next;
        }
        if (next != nullptr) next->prev_free = prev;
    }

    /// First-fit within the size-class bin (bounded scan), then first chunk
    /// of any larger bin.
    Chunk* take_from_bins(uint64_t need) {
        int b = bin_index(need);
        Chunk* c = meta_->bins[b].pload();
        for (int scanned = 0; c != nullptr && scanned < 16;
             c = c->next_free.pload(), ++scanned) {
            if (c->size() >= need) {
                unlink(c);
                return c;
            }
        }
        for (int hb = b + 1; hb < kNumBins; ++hb) {
            Chunk* h = meta_->bins[hb].pload();
            if (h != nullptr) {
                unlink(h);
                return h;
            }
        }
        return nullptr;
    }

    void split_if_worth(Chunk* c, uint64_t need) {
        uint64_t sz = c->size();
        if (sz < need + kMinChunk) return;
        c->size_flags = need;
        write_footer(c, need);
        Chunk* rest = chunk_at(offset_of(c) + need);
        rest->size_flags = sz - need;
        write_footer(rest, sz - need);
        push_bin(rest);
    }

    Chunk* coalesce_right(Chunk* c) {
        uint64_t next_off = offset_of(c) + c->size();
        if (next_off >= meta_->wilderness.pload()) return c;
        Chunk* n = chunk_at(next_off);
        if (n->in_use()) return c;
        unlink(n);
        uint64_t merged = c->size() + n->size();
        c->size_flags = merged;
        write_footer(c, merged);
        return c;
    }

    Chunk* coalesce_left(Chunk* c) {
        uint64_t off = offset_of(c);
        if (off == 0) return c;
        // The left neighbour's footer sits in the 8 bytes before our header.
        auto* lf = reinterpret_cast<p<uint64_t>*>(reinterpret_cast<uint8_t*>(c) - 8);
        uint64_t lsz = lf->pload();
        Chunk* l = chunk_at(off - lsz);
        if (l->in_use()) return c;
        unlink(l);
        uint64_t merged = l->size() + c->size();
        l->size_flags = merged;
        write_footer(l, merged);
        return l;
    }

    bool find_in_bin(Chunk* c) const {
        Chunk* it = meta_->bins[bin_index(c->size())].pload();
        while (it != nullptr) {
            if (it == c) return true;
            it = it->next_free.pload();
        }
        return false;
    }

    Meta* meta_ = nullptr;
    uint8_t* pool_ = nullptr;
    size_t pool_size_ = 0;
    bool quick_enabled_ = true;
};

}  // namespace romulus
