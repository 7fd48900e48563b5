// HeapRoot<E>: the block every PTM's heap area starts with — the objects
// array (§4.3) followed by the allocator metadata (§4.4).  It lies inside
// the area transactions mutate (each Romulus shard's main half, the log
// baselines' heap), so a crash rolls it back together with user data
// (Figure 2) and the allocator needs no recovery of its own.  The pool the
// allocator carves starts at the block's end rounded up to a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "alloc/pallocator.hpp"
#include "core/engine_globals.hpp"
#include "core/persist.hpp"
#include "pmem/flush.hpp"

namespace romulus {

template <typename E>
struct HeapRoot {
    persist<void*, E> roots[kMaxRootObjects];
    typename PAllocator<E>::Meta alloc_meta;

    /// Offset of the allocator pool from the start of the area: the initial
    /// used size of a freshly formatted heap.
    static constexpr size_t bytes() {
        return (sizeof(HeapRoot) + 63) & ~size_t{63};
    }

    /// Lay out an empty root block at the start of `area` (null roots, the
    /// whole pool wilderness) and write it back.  The stores go through E's
    /// interposition, so the caller sets up the context they run in.
    static void format(uint8_t* area, size_t area_size, PAllocator<E>& alloc) {
        auto* root = new (area) HeapRoot;  // persist<> members are raw pods
        for (auto& r : root->roots) r = nullptr;
        alloc.format(&root->alloc_meta, area + bytes(), area_size - bytes());
        pmem::pwb_range(area, bytes());
    }

    /// Bind `alloc` to the root block already at the start of `area`.
    static HeapRoot* attach(uint8_t* area, size_t area_size,
                            PAllocator<E>& alloc) {
        auto* root = reinterpret_cast<HeapRoot*>(area);
        alloc.attach(&root->alloc_meta, area + bytes(), area_size - bytes());
        return root;
    }
};

}  // namespace romulus
