// The Romulus persistent transactional memory engine (§4, §5).
//
// One template implements all three published variants; the traits select
// the algorithm exactly as the paper names them (§5.3, last paragraph):
//
//   RomulusNL  — the basic algorithm (Algorithm 1): in-place mutation of
//                main, full main->back copy at commit, one pwb per store,
//                C-RW-WP + flat combining for concurrency.
//   RomulusLog — basic algorithm + the volatile range log (§4.7): commit
//                flushes and replicates only the modified cache lines, so a
//                transaction needs at most 4 persistence fences and one pwb
//                per modified line.  C-RW-WP + flat combining.
//   RomulusLR  — RomulusLog + Left-Right synchronization (§5.3): wait-free
//                read-only transactions that run on the back region through
//                synthetic pointers (Figure 3) while the writer mutates main.
//
// Memory layout (Figure 2, generalised to S intra-heap shards):
//
//   [ header | main_0 | back_0 | main_1 | back_1 | ... ]
//
// Each shard zone is an independent twin-copy Romulus heap: its own state
// word and used_size (one ShardHeader cache line in the header page), its
// own root-object array + allocator metadata at the start of its main half
// (i.e. inside the replicated area, so a crash rolls them back together with
// user data, §4.4), and its own volatile concurrency kit — C-RW-WP lock,
// flat-combining array and range log — so update transactions on different
// shards commit fully in parallel.  S=1 (the default) is exactly the paper's
// single-writer engine; recovery scans every shard's state word and rolls
// each shard forward/back independently.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>

#include "alloc/pallocator.hpp"
#include "analysis/race_hooks.hpp"
#ifdef ROMULUS_PERSISTGRAPH
#include "analysis/persist_graph.hpp"  // seeded protocol-mutation hooks
#endif
#include "core/engine_globals.hpp"
#include "core/persist.hpp"
#include "core/range_log.hpp"
#include "pmem/flush.hpp"
#include "pmem/region.hpp"
#include "sync/crwwp.hpp"
#include "sync/flat_combining.hpp"
#include "sync/left_right.hpp"
#include "sync/seqlock.hpp"
#include "sync/spinlock.hpp"
#include "sync/stripe_lock.hpp"
#include "sync/thread_registry.hpp"

namespace romulus {

/// Transaction state machine of Algorithm 1 (per shard).
enum TxState : uint32_t {
    IDL = 0,  ///< no transaction: both copies consistent
    MUT = 1,  ///< mutating main: back is the consistent copy
    CPY = 2,  ///< committed, replicating to back: main is consistent
};

template <typename Traits>
class RomulusEngine {
  public:
    template <typename T>
    using p = persist<T, RomulusEngine>;
    using Alloc = PAllocator<RomulusEngine>;

    static constexpr const char* name() { return Traits::kName; }

    // ---------------------------------------------------------------------
    // Lifecycle
    // ---------------------------------------------------------------------

    /// Map (and if needed format) the persistent heap.  Runs recovery when
    /// attaching to an existing heap (so a heap left in MUT/CPY by a crash
    /// is consistent before the first access).  `shards` picks the zone
    /// count for a *fresh* heap (0: the ROMULUS_SHARDS env default); a valid
    /// existing heap dictates its own stored shard count — adopting the
    /// persisted geometry instead of reformatting on mismatch is what makes
    /// a heap created with S=4 reopen safely from a default-configured
    /// process.
    static void init(size_t heap_bytes = 0, const std::string& file = {},
                     unsigned shards = 0) {
        if (s.initialized) throw std::runtime_error("RomulusEngine: double init");
        const unsigned want = shards != 0 ? shards : default_shard_count();
        if (want < 1 || want > kMaxShards)
            throw std::invalid_argument("RomulusEngine: shard count out of range");
        size_t size = heap_bytes ? heap_bytes : default_heap_bytes();
        size = (size + 4095) & ~size_t{4095};
        std::string path = file.empty()
                               ? pmem::default_pmem_dir() + "/" + Traits::kFileName
                               : file;
        bool created = s.region.map(path, size, Traits::kBaseAddr);
        s.header = reinterpret_cast<PHeader*>(s.region.base());

        bool valid = !created && s.header->magic.load() == magic_value() &&
                     s.header->shard_count >= 1 &&
                     s.header->shard_count <= kMaxShards &&
                     s.header->region_size == size;
        const unsigned S = valid ? s.header->shard_count : want;
        try {
            s.layout = pmem::ShardLayout::compute(size, S, kHeaderReserved);
            if (valid && s.header->main_size != s.layout.main_size) {
                valid = false;  // geometry mismatch: reformat with the request
                if (S != want)
                    s.layout =
                        pmem::ShardLayout::compute(size, want, kHeaderReserved);
            }
        } catch (...) {
            s.region.unmap();  // leave the engine re-initializable
            s.header = nullptr;
            throw;
        }
        s.nshards = s.layout.shards;
        s.main_size = s.layout.main_size;
        build_shards();

        try {
            if (valid) {
                recover();
            } else {
                format();
            }
        } catch (...) {
            // Leave the engine re-initializable: the next init() builds its
            // shards afresh instead of over these (whose range-log and
            // stripe tables would leak).
            teardown_shards();
            s.region.unmap();
            s.header = nullptr;
            throw;
        }
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            sh.alloc.attach(&sh.meta->alloc_meta, pool_base(sh), pool_size(sh));
            sh.used_pwb_pending = false;  // deferred pwbs died with the restart
            ROMULUS_RACE_REGISTER_REGION(sh.main, s.main_size, Traits::kName,
                                         "main", &sh.hdr->state);
            ROMULUS_RACE_REGISTER_REGION(sh.back, s.main_size, Traits::kName,
                                         "back", &sh.hdr->state);
        }
        s.initialized = true;
    }

    /// Unmap the heap (contents persist in the file).
    static void close() {
        teardown_shards();
        s.region.unmap();
        s.initialized = false;
    }

    /// Unmap and delete the heap file (tests).
    static void destroy() {
        teardown_shards();
        s.region.destroy();
        s.initialized = false;
    }

    static bool initialized() { return s.initialized; }

    // ---------------------------------------------------------------------
    // Interposition (called by persist<T>)
    // ---------------------------------------------------------------------

    template <typename T>
    static void pstore(T* addr, const T& val) {
        if constexpr (!Traits::kUseLR) {
            if (tl.fp_active) {
                // Speculative fast path (§4.11): main is untouched until
                // commit — the store lands in the thread-local write set.
                fp_store(addr, &val, sizeof(T));
                return;
            }
        }
        *addr = val;
        ROMULUS_RACE_WRITE(addr, sizeof(T));
        Shard* sh = owning_shard_main(addr);
        if (sh == nullptr) {
            // Stack/volatile persist<T> instances (unit tests) or stores to
            // the non-replicated header: just account + flush when mapped.
            if (s.initialized && s.region.contains(addr)) {
                pmem::on_store(addr, sizeof(T));
                pmem::pwb_range(addr, sizeof(T));
            }
            return;
        }
        pmem::on_store(addr, sizeof(T));
        if constexpr (Traits::kUseLog) {
            if (tl.tx_depth > 0 && sh == &shard(tl.shard)) {
                // pwb deferred: commit flushes each logged line exactly once.
                sh->log.add(main_offset(*sh, addr), sizeof(T));
                pmem::notify_range_logged(addr, sizeof(T));
                return;
            }
        }
        pmem::pwb_range(addr, sizeof(T));
    }

    template <typename T>
    static T pload(const T* addr) {
        if constexpr (!Traits::kUseLR) {
            if (tl.fp_active) {
                // Speculative fast path (§4.11): consult the write set, and
                // validate every uncaptured load against its stripe so a
                // concurrent fast-path committer's mid-apply state is never
                // observed.
                T v;
                fp_load(&v, addr, sizeof(T));
                return v;
            }
        }
        T v = *addr;
        if constexpr (!Traits::kUseLR) {
            if (tl.opt_active) {
                // Seqlock fast path (§4.9): validate after EVERY load,
                // before the value can be used — a torn pointer is rejected
                // here, so the closure can never dereference one.  The
                // acquire fence inside validate() is a compiler/CPU fence
                // only; no persistence fence, pwb or lock traffic.
                Shard& sh = current_shard();
                if (!sh.seq.validate(tl.opt_seq))
                    throw sync::OptimisticAbort{};
                if (!ROMULUS_RACE_OPTIMISTIC_READ(&sh.seq, addr, sizeof(T),
                                                  tl.opt_seq, sh.seq.word(),
                                                  "seqlock.validate"))
                    throw sync::OptimisticAbort{};
                return v;
            }
        }
        // The event carries the address actually dereferenced: for an LR
        // back-region reader the caller's addr already points into back
        // (only the loaded *value* gets shifted below).
        ROMULUS_RACE_READ(addr, sizeof(T));
        if constexpr (Traits::kUseLR && std::is_pointer_v<T>) {
            // Synthetic pointers (§5.3, Figure 3): a reader directed at the
            // back region shifts every main-internal pointer by main_size so
            // the traversal stays inside the same shard's back half.
            if (tl.read_offset != 0 && in_shard_main(current_shard(), v)) {
                v = reinterpret_cast<T>(reinterpret_cast<uintptr_t>(v) +
                                        tl.read_offset);
            }
        }
        return v;
    }

    /// Bulk transactional store (used for byte payloads, e.g. DB values).
    /// Inside an update transaction, a payload whose whole lines reach
    /// CommitConfig::nt_threshold streams them into main (stream_range).
    static void store_range(void* dst, const void* src, size_t n) {
        if constexpr (!Traits::kUseLR) {
            if (tl.fp_active) {
                fp_store(dst, src, n);
                return;
            }
        }
        if (tl.tx_depth > 0 && stream_range(dst, src, n)) return;
        std::memcpy(dst, src, n);
        ROMULUS_RACE_WRITE(dst, n);
        range_written(dst, n);
    }

    static void zero_range(void* dst, size_t n) {
        if constexpr (!Traits::kUseLR) {
            if (tl.fp_active) {
                static constexpr uint8_t kZeros[64] = {};
                uint8_t* p = static_cast<uint8_t*>(dst);
                while (n > 0) {
                    const size_t take = n < sizeof(kZeros) ? n : sizeof(kZeros);
                    fp_store(p, kZeros, take);
                    p += take;
                    n -= take;
                }
                return;
            }
        }
        std::memset(dst, 0, n);
        ROMULUS_RACE_WRITE(dst, n);
        range_written(dst, n);
    }

    /// Growth notification from the allocator: keeps the shard's used_size a
    /// monotonic upper bound of every byte ever mutated in its main half,
    /// which is what bounds the recovery copies (§6.5).  Inside a
    /// transaction the write-back is deferred to commit — an
    /// allocation-heavy transaction grows used_size many times but needs
    /// exactly one pwb of the line, and the commit fence that precedes the
    /// CPY state store orders it before CPY becomes persistent (the required
    /// ordering: CPY must never be durable with a stale used_size, or the
    /// main->back copy would miss committed bytes).
    static void note_used(const void* end) {
        // The fast path never allocates from the shard heap: alloc_bytes
        // serves the sandbox or ends the speculation first.
        assert(!tl.fp_active);
        Shard& sh = current_shard();
        uint64_t off = static_cast<const uint8_t*>(end) - sh.main;
        if (off > sh.hdr->used_size.load(std::memory_order_relaxed)) {
            sh.hdr->used_size.store(off, std::memory_order_relaxed);
            pmem::on_store(&sh.hdr->used_size, 8);
            if (tl.tx_depth > 0) {
                sh.used_pwb_pending = true;  // flushed once, at commit/abort
            } else {
                pmem::pwb(&sh.hdr->used_size);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Single-writer durable transactions (Algorithm 1) — the paper's
    // single-threaded API (§5.1).  Not thread-safe per shard; concurrent
    // applications use updateTx()/readTx() below.
    // ---------------------------------------------------------------------

    static void begin_transaction() { begin_transaction(0); }

    static void begin_transaction(unsigned shard_id) {
        if (tl.tx_depth++ > 0) {
            assert(shard_id == tl.shard && "cross-shard nested transaction");
            return;  // flat nesting
        }
        assert(shard_id < s.nshards);
        tl.shard = shard_id;
        Shard& sh = shard(shard_id);
        ROMULUS_RACE_TX_BEGIN("update-tx");
        if constexpr (Traits::kUseLog) {
            sh.log.begin_tx(full_copy_threshold(sh));
        }
        enter_mut(sh);
    }

    static void end_transaction() {
        assert(tl.tx_depth > 0);
        if (tl.tx_depth > 1) {  // flat nesting: only the outermost commits
            --tl.tx_depth;
            return;
        }
        Shard& sh = current_shard();
        commit_cpy(sh, [&] {
            if constexpr (Traits::kUseLog) flush_logged_main_lines(sh);
            flush_used_size(sh);
        });
        if constexpr (Traits::kUseLR) {
            // Publish: new readers go to main while we refresh back.
            sh.lr.set_read_region(sync::LeftRight::kReadMain);
            sh.lr.toggle_version_and_wait();
        }
        copy_main_to_back(sh);
        finish_idl(sh);
        if constexpr (Traits::kUseLR) {
            // Second toggle (§5.3): readers move to the refreshed back so
            // the next update transaction starts with main unobserved.
            sh.lr.set_read_region(sync::LeftRight::kReadBack);
            sh.lr.toggle_version_and_wait();
        }
        tl.tx_depth = 0;
        pmem::notify_tx_commit();
        ROMULUS_RACE_TX_END();
    }

    /// Roll back the current transaction instead of committing it: back is
    /// still the previous consistent state, so restoring it over main undoes
    /// every in-place modification (this is exactly what crash recovery does
    /// for a MUT-state shard).  Extension beyond the paper's API.
    static void abort_transaction() {
        assert(tl.tx_depth > 0);
        tl.tx_depth = 0;
        Shard& sh = current_shard();
        copy_back_to_main(sh);
        flush_used_size(sh);  // used_size is monotonic: it survives the abort
        finish_idl(sh);
        pmem::psync();
        // The window stays odd across copy_back_to_main — the rollback
        // mutates main in place, exactly like the MUT body did.
        close_window(sh);
        pmem::notify_tx_abort();
        ROMULUS_RACE_TX_END();
    }

    static bool in_transaction() { return tl.tx_depth > 0; }

    // ---------------------------------------------------------------------
    // Concurrent transactions (§5) — per shard.  Writers on different
    // shards hold different locks and commit fully in parallel.
    // ---------------------------------------------------------------------

    /// Durable update transaction with starvation-free progress: announce in
    /// the shard's flat-combining array; the announcer that wins the shard's
    /// writer lock combines every operation announced there into one durable
    /// transaction.
    template <typename F>
    static void updateTx(F&& f) {
        updateTx(tx_context_shard(), std::forward<F>(f));
    }

    template <typename F>
    static void updateTx(unsigned shard_id, F&& f) {
        if (tl.tx_depth > 0) {  // nested: run flat inside the current tx
            assert(shard_id == tl.shard && "cross-shard nested updateTx");
            f();
            return;
        }
        assert(shard_id < s.nshards);
        Shard& sh = shard(shard_id);
        if constexpr (!Traits::kUseLR) {
            // Stripe-locked speculative fast path (§4.11): small disjoint
            // updates commit durably without the shard writer lock.  Any
            // conflict, footprint overflow or allocation falls through to
            // the universal flat-combining slow path below — eligibility is
            // transparent to the caller, but like the optimistic read path
            // the closure may run more than once (docs/API.md).
            if (update_config().fastpath) {
                if (try_fastpath_update(sh, shard_id, f)) return;
                pmem::tl_commit_stats().fastpath_fallbacks++;
            }
        }
        const int t = sync::tid();
        sync::FlatCombiningArray<>::Op op{std::forward<F>(f)};
        sh.fc.announce(t, &op);
        unsigned spins = 0;
        while (true) {
            if (sh.fc.is_done(t)) return;
            if (try_writer_lock(sh)) {
                try {
                    combine(sh, shard_id);
                } catch (...) {
                    writer_unlock(sh);
                    throw;
                }
                writer_unlock(sh);
                if (sh.fc.is_done(t)) return;
                // Extremely unlikely: lost a re-announce race.  Fall through
                // to the shared backoff instead of hot-looping straight back
                // onto the lock — on retry this thread behaves like any
                // other waiter.
            }
            sync::spin_wait(spins);
        }
    }

    /// Read-only transaction.  C-RW-WP variants block while a writer is
    /// active on the same shard; the Left-Right variant is wait-free (§5.3)
    /// and runs on the shard's back half whenever a writer owns its main.
    template <typename F>
    static void readTx(F&& f) {
        readTx(tx_context_shard(), std::forward<F>(f));
    }

    template <typename F>
    static void readTx(unsigned shard_id, F&& f) {
        // Nested inside an update tx (read main in place) or inside another
        // read tx (keep the outer region choice): run flat.
        if (tl.tx_depth > 0 || tl.read_depth > 0) {
            assert(shard_id == tl.shard && "cross-shard nested readTx");
            f();
            return;
        }
        assert(shard_id < s.nshards);
        Shard& sh = shard(shard_id);
        const int t = sync::tid();
        tl.read_depth = 1;
        tl.shard = shard_id;
        if constexpr (Traits::kUseLR) {
            // RAII so a throwing reader still departs and clears the
            // synthetic-pointer offset.
            struct Guard {
                Shard& sh;
                int t, vi;
                ~Guard() {
                    ROMULUS_RACE_TX_END();
                    tl.read_offset = 0;
                    tl.read_depth = 0;
                    sh.lr.depart(t, vi);
                }
            } guard{sh, t, sh.lr.arrive(t)};
            tl.read_offset =
                (sh.lr.read_region() == sync::LeftRight::kReadBack)
                    ? s.main_size
                    : 0;
            ROMULUS_RACE_TX_BEGIN(tl.read_offset != 0 ? "read-tx(back)"
                                                      : "read-tx(main)");
            f();
        } else {
            // Seqlock fast path (§4.9): run the closure directly on main
            // with no lock traffic, no read-indicator arrival and no fences,
            // validated against the shard's sequence word.  A writer's odd
            // window is waited out in place — the reader lock would wait
            // out the same writer, for longer — and only max_attempts
            // invalidated runs send the reader to the C-RW-WP reader lock.
            if (read_config().optimistic) {
                bool committed;
                try {
                    committed = sync::optimistic_read(
                        sh.seq, tl.opt_active, tl.opt_seq,
                        read_config().max_attempts, tl_read_stats(), f);
                } catch (...) {
                    // Genuine user exception off a valid snapshot: the
                    // attempt already closed its race-tx scope; clear the
                    // depth too, or every later readTx on this thread would
                    // run flat — no lock, no validation.
                    tl.read_depth = 0;
                    throw;
                }
                if (committed) {
                    tl.read_depth = 0;
                    return;
                }
            }
            struct Guard {
                Shard& sh;
                int t;
                bool gated;
                ~Guard() {
                    ROMULUS_RACE_TX_END();
                    tl.read_depth = 0;
                    if (gated) sh.fp_gate.read_unlock(t);
                    sh.rwlock.read_unlock(t);
                }
            } guard{sh, t, false};
            sh.rwlock.read_lock(t);
            if (update_config().fastpath) {
                // Fast-path committers apply under a *shared* rwlock hold
                // (§4.11), so the reader lock alone no longer guarantees a
                // quiescent main: additionally exclude the applier phase.
                // Lock order everywhere: rwlock shared, then fp_gate.
                sh.fp_gate.read_lock(t);
                guard.gated = true;
            }
            ROMULUS_RACE_TX_BEGIN("read-tx");
            f();
        }
    }

    // ---------------------------------------------------------------------
    // Allocation (§4.4) — valid only inside a transaction; always serves
    // from the transaction's shard pool.
    // ---------------------------------------------------------------------

    template <typename T, typename... Args>
    static T* tmNew(Args&&... args) {
        void* ptr = alloc_bytes(sizeof(T));
        if constexpr (sizeof...(Args) == 0) {
            // Value-initializing placement-new (`new (ptr) T()`) zeroes a
            // trivially-constructible T with raw stores the interposition
            // layer never sees, so the zeroing would neither be range-logged
            // for twin propagation nor be recoverable by the log baselines.
            // Zero through zero_range and default-initialize instead (which
            // writes nothing for trivially-constructible T).
            zero_range(ptr, sizeof(T));
            return new (ptr) T;
        } else {
            return new (ptr) T(std::forward<Args>(args)...);
        }
    }

    template <typename T>
    static void tmDelete(T* obj) {
        if (obj == nullptr) return;
        // A destructor is implicitly noexcept: inside one, a speculation's
        // loads read on instead of ending the run (SpecBuffer::dtor_depth).
        const bool spec = tl.fp_active;
        if (spec) ++tl_fp().dtor_depth;
        obj->~T();
        if (spec) --tl_fp().dtor_depth;
        free_bytes(obj);
    }

    static void* alloc_bytes(size_t n) {
        assert(tl.tx_depth > 0 && "allocation outside a transaction");
        if constexpr (!Traits::kUseLR) {
            // Allocator metadata mutations are not stripe-guarded: an
            // allocating transaction always re-runs on the slow path (§4.11).
            // A small first allocation gets the speculation's sandbox, so a
            // one-insert closure finishes its short doomed tail: that costs
            // less than unwinding it.  Any other allocation ends the run
            // here — the rest is wasted work, and allocation may throw
            // (std::bad_alloc), so callers already cope with an exception
            // from this point.
            if (tl.fp_active) {
                fp_doom();
                if (void* p = tl_fp().sandbox_alloc(n)) return p;
                throw sync::SpecAbort{};
            }
        }
        void* ptr = current_shard().alloc.alloc(n);
        if (ptr == nullptr) throw std::bad_alloc();
        return ptr;
    }

    static void free_bytes(void* ptr) {
        assert(tl.tx_depth > 0 && "free outside a transaction");
        if constexpr (!Traits::kUseLR) {
            // tmDelete is routinely reached from noexcept destructors, so
            // the speculation dooms without throwing and the free is simply
            // dropped: the slow-path re-run performs the real one.
            if (tl.fp_active) {
                fp_doom();
                return;
            }
        }
        if (ptr == nullptr) return;
        // Cross-shard frees are an application contract violation: objects
        // live and die in the shard whose transaction allocated them.
        assert(owning_shard_main(ptr) == &current_shard() &&
               "free of an object owned by another shard");
        current_shard().alloc.free(ptr);
    }

    // ---------------------------------------------------------------------
    // Root objects (§4.3: each shard has its own objects array inside its
    // main half)
    // ---------------------------------------------------------------------

    template <typename T>
    static T* get_object(int idx) {
        return get_object<T>(idx, tx_context_shard());
    }

    template <typename T>
    static T* get_object(int idx, unsigned shard_id) {
        assert(idx >= 0 && idx < kMaxRootObjects);
        assert(shard_id < s.nshards);
        Shard& sh = shard(shard_id);
        if constexpr (Traits::kUseLR) {
            // A back-directed reader must read the back copy of the roots
            // array, not main's: the writer mutates main's roots mid-tx, so
            // reading them here could observe a root whose object does not
            // exist in back yet.  back holds the previous commit's snapshot
            // (MainMeta is inside the copied range), and pload()'s value
            // shift then moves the stored main-internal pointer into back.
            if (tl.read_offset != 0 && shard_id == tl.shard) {
                const auto* shifted = reinterpret_cast<const p<void*>*>(
                    reinterpret_cast<const uint8_t*>(&sh.meta->roots[idx]) +
                    tl.read_offset);
                return static_cast<T*>(shifted->pload());
            }
        }
        return static_cast<T*>(sh.meta->roots[idx].pload());
    }

    static void put_object(int idx, void* ptr) { put_object(idx, ptr, tl.shard); }

    static void put_object(int idx, void* ptr, unsigned shard_id) {
        assert(idx >= 0 && idx < kMaxRootObjects);
        assert(tl.tx_depth > 0 && "put_object outside a transaction");
        assert(shard_id == tl.shard && "put_object into another shard's roots");
        shard(shard_id).meta->roots[idx] = ptr;
    }

    // ---------------------------------------------------------------------
    // Introspection (tests, benches)
    // ---------------------------------------------------------------------

    static unsigned shard_count() { return s.nshards; }
    static uint8_t* main_base(unsigned shard_id = 0) {
        return shard(shard_id).main;
    }
    static uint8_t* back_base(unsigned shard_id = 0) {
        return shard(shard_id).back;
    }
    static size_t main_size() { return s.main_size; }  // per shard
    static uint64_t used_bytes(unsigned shard_id = 0) {
        return shard(shard_id).hdr->used_size.load();
    }
    static TxState state(unsigned shard_id = 0) {
        return static_cast<TxState>(shard(shard_id).hdr->state.load());
    }
    static Alloc& allocator(unsigned shard_id = 0) {
        return shard(shard_id).alloc;
    }
    static pmem::PmemRegion& region() { return s.region; }
    /// Exact addresses of the per-shard protocol words (romver layout
    /// introspection: the persist-graph rules key on these offsets).
    static const void* state_addr(unsigned shard_id = 0) {
        return &shard(shard_id).hdr->state;
    }
    static const void* used_size_addr(unsigned shard_id = 0) {
        return &shard(shard_id).hdr->used_size;
    }
    /// Test hook: the shard's optimistic-read sequence word (§4.9), exposed
    /// so fixtures can simulate a writer window without a second thread.
    static sync::SeqLock& seq_for_tests(unsigned shard_id = 0) {
        return shard(shard_id).seq;
    }
    /// Test hook: the shard's fast-path announce slots (§4.11), exposed so
    /// fixtures can wait until given committers have announced.
    static sync::FlatCombiningArray<sync::SpecBuffer>& fastpath_slots_for_tests(
        unsigned shard_id = 0) {
        return shard(shard_id).fp_slots;
    }

    /// Flat-combining aggregation stats (§5.3: several announced updates
    /// execute inside one durable transaction, so the *average* number of
    /// persistence fences per mutation drops below 4).  Aggregated over all
    /// shards.
    struct CombineStats {
        uint64_t combines;
        uint64_t combined_ops;
        double avg_batch() const {
            return combines == 0 ? 0.0
                                 : double(combined_ops) / double(combines);
        }
    };
    static CombineStats combine_stats() {
        CombineStats out{0, 0};
        for (unsigned i = 0; i < s.nshards; ++i) {
            out.combines += shard(i).combines.load();
            out.combined_ops += shard(i).combined_ops.load();
        }
        return out;
    }
    static void reset_combine_stats() {
        for (unsigned i = 0; i < s.nshards; ++i) {
            shard(i).combines.store(0);
            shard(i).combined_ops.store(0);
        }
    }

    /// True when `ptr` lies in any shard's main half (the current
    /// transaction's shard is checked first).
    static bool in_main(const void* ptr) {
        return owning_shard_main(ptr) != nullptr;
    }

    /// Test hook: after a *simulated* in-process crash the thread survives,
    /// so its transaction-context thread-locals must be cleared the way a
    /// real restart would clear them.  (close()+init() reconstructs the
    /// shared volatile state; this handles the thread-local part, plus —
    /// when the engine is still mapped — an in-place rebuild of every
    /// shard's synchronisation kit.)
    static void crash_reset_for_tests() {
        tl = TlState{};
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            new (&sh.rwlock) sync::CRWWPLock();
            new (&sh.lr_writer_lock) sync::SpinLock();
            new (&sh.lr) sync::LeftRight();
            new (&sh.seq) sync::SeqLock();  // a crash mid-MUT left it odd
            new (&sh.fp_gate) sync::CRWWPLock();
            sh.stripes.reset_for_tests();  // held stripes died with the crash
            new (&sh.fc) sync::FlatCombiningArray<>();
            new (&sh.fp_slots) sync::FlatCombiningArray<sync::SpecBuffer>();
        }
    }

    /// Crash-recovery entry point (Algorithm 1, lines 17-27), applied to
    /// every shard independently: each zone is a self-contained twin-copy
    /// heap, so one shard crashed in CPY rolls forward while another crashed
    /// in MUT rolls back.  init() calls this automatically; exposed for
    /// tests and the recovery-cost bench.
    static void recover() {
        bool rolled = false;
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            const uint32_t st = sh.hdr->state.load();
            if (st == MUT) {
                copy_back_to_main(sh);
            } else if (st == CPY) {
                copy_main_to_back(sh);
            } else if (st != IDL) {
                throw std::runtime_error("RomulusEngine: corrupted state field");
            }
            if (st != IDL) {
                finish_idl(sh);
                rolled = true;
            }
        }
        if (rolled) pmem::psync();
    }

  private:
    static constexpr size_t kHeaderReserved = 4096;
    static constexpr size_t kShardHeaderOffset = 64;
    static constexpr uint64_t kMagicBase = 0x524F4D554C555302ull;  // "ROMULUS"+layout v2

    static uint64_t magic_value() {
        // Fold the engine name so heaps are not opened by the wrong variant.
        uint64_t h = kMagicBase;
        for (const char* c = Traits::kName; *c; ++c) h = h * 31 + uint64_t(*c);
        return h;
    }

    /// Global header page: geometry only.  Per-shard crash state lives in
    /// the ShardHeader array that follows at kShardHeaderOffset.
    struct PHeader {
        std::atomic<uint64_t> magic;
        uint32_t shard_count;
        uint64_t main_size;  ///< per-shard twin-half size
        uint64_t region_size;
    };
    static_assert(sizeof(PHeader) <= kShardHeaderOffset,
                  "PHeader must fit before the shard-header array");

    /// One cache line per shard so two shards' state words never share a
    /// line (their commit pwbs are concurrent).
    struct alignas(64) ShardHeader {
        std::atomic<uint32_t> state;
        std::atomic<uint64_t> used_size;
    };
    static_assert(kShardHeaderOffset + kMaxShards * sizeof(ShardHeader) <=
                      kHeaderReserved,
                  "shard headers must fit in the reserved header page");

    struct MainMeta {
        p<void*> roots[kMaxRootObjects];
        typename Alloc::Meta alloc_meta;
    };

    /// One shard = one zone's pointers + persistent header slots + its own
    /// volatile concurrency kit.  Constructed only for active shards (the
    /// range log alone owns ~0.2–0.8 MB of dedup table).
    struct Shard {
        explicit Shard(size_t log_bits) : log(log_bits) {}

        uint8_t* main = nullptr;
        uint8_t* back = nullptr;
        ShardHeader* hdr = nullptr;
        MainMeta* meta = nullptr;
        Alloc alloc;
        RangeLog log;
        sync::CRWWPLock rwlock;           // C-RW-WP variants
        sync::SpinLock lr_writer_lock;    // LR variant (readers use lr)
        sync::LeftRight lr;
        sync::SeqLock seq;                // optimistic-read window (§4.9)
        sync::StripeLockTable stripes;    // fast-path version locks (§4.11)
        sync::CRWWPLock fp_gate;          // fast-path appliers (writers) vs
                                          // pessimistic readers (§4.11)
        sync::FlatCombiningArray<> fc;
        // Locked, validated fast-path write sets awaiting the group apply.
        sync::FlatCombiningArray<sync::SpecBuffer> fp_slots;
        std::atomic<uint64_t> combines{0};      // combiner invocations
        std::atomic<uint64_t> combined_ops{0};  // operations they executed
        bool used_pwb_pending = false;  // used_size grew; pwb owed at commit
    };

    // All mutable engine state, grouped so the template's statics stay tidy.
    struct State {
        pmem::PmemRegion region;
        PHeader* header = nullptr;
        pmem::ShardLayout layout;
        unsigned nshards = 0;
        size_t main_size = 0;
        bool initialized = false;
        alignas(Shard) unsigned char shard_mem[kMaxShards][sizeof(Shard)];
    };
    static inline State s{};

    struct TlState {
        int tx_depth = 0;
        int read_depth = 0;
        size_t read_offset = 0;
        unsigned shard = 0;  ///< shard of the open tx / read tx
        bool opt_active = false;  ///< inside a seqlock-validated read attempt
        uint64_t opt_seq = 0;     ///< the attempt's sequence snapshot
        bool fp_active = false;   ///< inside a speculative update attempt
    };
    static inline thread_local TlState tl{};

    static Shard& shard(unsigned i) {
        assert(i < s.nshards);
        return *reinterpret_cast<Shard*>(s.shard_mem[i]);
    }

    static Shard& current_shard() { return shard(tl.shard); }

    /// Default shard for the shard-less API: inside a transaction, the
    /// transaction's shard (so nested calls from data structures stay in
    /// their shard); outside, shard 0 — the classic single-shard behaviour.
    static unsigned tx_context_shard() {
        return (tl.tx_depth > 0 || tl.read_depth > 0) ? tl.shard : 0;
    }

    static ShardHeader* shard_headers() {
        return reinterpret_cast<ShardHeader*>(s.region.base() +
                                              kShardHeaderOffset);
    }

    static void build_shards() {
        const size_t bits = RangeLog::suggested_table_bits(s.nshards);
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard* sh = new (s.shard_mem[i]) Shard(bits);
            sh->main = s.region.base() + s.layout.main_offset(i);
            sh->back = s.region.base() + s.layout.back_offset(i);
            sh->hdr = shard_headers() + i;
            sh->meta = reinterpret_cast<MainMeta*>(sh->main);
        }
    }

    static void teardown_shards() {
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            ROMULUS_RACE_UNREGISTER_REGION(sh.main);
            ROMULUS_RACE_UNREGISTER_REGION(sh.back);
            sh.~Shard();
        }
        s.nshards = 0;
    }

    static bool in_shard_main(const Shard& sh, const void* ptr) {
        auto u = reinterpret_cast<uintptr_t>(ptr);
        auto b = reinterpret_cast<uintptr_t>(sh.main);
        return u >= b && u < b + s.main_size;
    }

    /// The shard whose main half contains `ptr`, or nullptr.  Fast path:
    /// the current transaction's shard (two compares); otherwise one divide
    /// by the zone stride.
    static Shard* owning_shard_main(const void* ptr) {
        const unsigned n = s.nshards;
        if (n == 0) return nullptr;
        Shard& cur = shard(tl.shard < n ? tl.shard : 0);
        if (in_shard_main(cur, ptr)) return &cur;
        if (n == 1) return nullptr;
        const uint8_t* zones = s.region.base() + kHeaderReserved;
        const uint8_t* u = static_cast<const uint8_t*>(ptr);
        if (u < zones) return nullptr;
        const size_t zi = size_t(u - zones) / s.layout.zone_stride();
        if (zi >= n) return nullptr;
        Shard& sh = shard(static_cast<unsigned>(zi));
        return in_shard_main(sh, ptr) ? &sh : nullptr;
    }

    static uint8_t* pool_base(Shard& sh) {
        size_t meta_end = (sizeof(MainMeta) + 63) & ~size_t{63};
        return sh.main + meta_end;
    }
    static size_t pool_size(Shard& sh) {
        return s.main_size - (pool_base(sh) - sh.main);
    }

    static uint64_t main_offset(const Shard& sh, const void* ptr) {
        return static_cast<const uint8_t*>(ptr) - sh.main;
    }

    static size_t full_copy_threshold(const Shard& sh) {
        // Beyond half the used bytes, per-line copying loses to one memcpy.
        return static_cast<size_t>(sh.hdr->used_size.load() / 2);
    }

    // --- Algorithm 1's state transitions -----------------------------------
    //
    // begin/end/abort_transaction, recover() and the fast path's group apply
    // (fp_apply_batch) move a shard's state word only through these steps.

    /// Store the shard's state word and issue its write-back.
    static void persist_state(Shard& sh, TxState st) {
        sh.hdr->state.store(st, std::memory_order_relaxed);
        pmem::on_store(&sh.hdr->state, sizeof(uint32_t));
        pmem::notify_state_transition(st);
        pmem::pwb(&sh.hdr->state);
    }

    /// IDL -> MUT: from here until the CPY persist, back is the consistent
    /// copy.  Then open the optimistic-read window (seq -> odd), right
    /// before the first in-place mutation of main (§4.9): readers never
    /// read the state word, so its store and persist need no cover.  The
    /// detector-side acquire joins previous readers' validate releases,
    /// ordering their reads before our stores.
    static void enter_mut(Shard& sh) {
        pmem::notify_tx_begin();
        persist_state(sh, MUT);
        pmem::pfence();
        if constexpr (!Traits::kUseLR) {
            sh.seq.write_enter();
            ROMULUS_RACE_ACQUIRE(&sh.seq, "seqlock.write_enter");
        }
    }

    /// MUT -> CPY, the durability point: the caller's body write-back, a
    /// pfence ordering it before the CPY state persist, and the psync that
    /// makes main durable.  Then close the optimistic-read window (seq ->
    /// even): a validated reader must have seen *durable* state, and closing
    /// before the back replication lets readers overlap it — the bulk of
    /// writer occupancy, which pessimistic readers wait out (§4.9).
    template <typename WriteBack>
    static void commit_cpy(Shard& sh, WriteBack&& write_back) {
#ifdef ROMULUS_PERSISTGRAPH
        const analysis::ProtocolMutations& pgm =
            analysis::protocol_mutations();
#else
        struct {
            bool elide_commit_fence = false;
            bool reorder_state_persist = false;
        } constexpr pgm{};  // folds every mutation branch away
#endif
        if (pgm.reorder_state_persist) {
            // Seeded protocol bug: persist the CPY state word BEFORE the
            // body write-back — the state persist is unordered with the
            // data it advertises.  romver's static rules must flag this.
            persist_state(sh, CPY);
            write_back();
        } else {
            write_back();
            // Seeded protocol bug: eliding this pfence leaves the body
            // write-back unordered with the CPY state persist.
            if (!pgm.elide_commit_fence) pmem::pfence();
            persist_state(sh, CPY);
        }
        pmem::psync();  // ACID durability point for this shard's main
        close_window(sh);
    }

    /// Close the optimistic-read window (seq -> even) once main is durable:
    /// after the CPY psync on commit, after the IDL psync on rollback.
    static void close_window(Shard& sh) {
        if constexpr (!Traits::kUseLR) {
            ROMULUS_RACE_RELEASE(&sh.seq, "seqlock.write_exit");
            sh.seq.write_exit();
        }
    }

    /// -> IDL: a pfence orders the replication to back (or, on rollback and
    /// in recovery, the restore of main) before the IDL state persist.
    static void finish_idl(Shard& sh) {
        pmem::pfence();
        persist_state(sh, IDL);
    }

    static void range_written(void* dst, size_t n) {
        if (n == 0) return;
        Shard* sh = owning_shard_main(dst);
        if (sh == nullptr) return;
        pmem::on_store(dst, n);
        if constexpr (Traits::kUseLog) {
            if (tl.tx_depth > 0 && sh == &shard(tl.shard)) {
                sh->log.add(main_offset(*sh, dst), n);
                pmem::notify_range_logged(dst, n);
                return;
            }
        }
        pmem::pwb_range(dst, n);
    }

    /// Streaming payload store (DESIGN.md §4.6): the partial head and tail
    /// lines of [dst, dst+n) take the cached path like any store, and the
    /// whole lines between them are written with non-temporal stores
    /// (persist_copy, whose internal sfence drains them before any later
    /// state store).  Those lines need no pwb, so the log records them
    /// copy-only and NL skips its eager write-back.  Returns false, with
    /// nothing written, when the whole lines fall short of the streaming
    /// threshold or dst is not in the transaction's shard main.
    static bool stream_range(void* dst, const void* src, size_t n) {
        auto* d = static_cast<uint8_t*>(dst);
        const auto* from = static_cast<const uint8_t*>(src);
        const auto a = reinterpret_cast<uintptr_t>(d);
        const uintptr_t lo = (a + pmem::kCacheLineSize - 1) &
                             ~uintptr_t{pmem::kCacheLineSize - 1};
        const uintptr_t hi = (a + n) & ~uintptr_t{pmem::kCacheLineSize - 1};
        if (hi <= lo || !pmem::streams(hi - lo)) return false;
        Shard& sh = current_shard();
        if (!in_shard_main(sh, d) || !in_shard_main(sh, d + n - 1))
            return false;
        const size_t head = lo - a;
        const size_t body = hi - lo;
        std::memcpy(d, from, head);
        range_written(d, head);
        pmem::persist_copy(d + head, from + head, body);
        if constexpr (Traits::kUseLog) {
            sh.log.add_copy_only(main_offset(sh, d + head), body);
            pmem::notify_range_logged(d + head, body);
        }
        std::memcpy(d + head + body, from + head + body, n - head - body);
        range_written(d + head + body, n - head - body);
        ROMULUS_RACE_WRITE(d, n);
        return true;
    }

    /// Write back the shard's used_size header word if a transaction grew it
    /// (note_used defers the pwb here so it is paid once per transaction).
    static void flush_used_size(Shard& sh) {
        if (!sh.used_pwb_pending) return;
        sh.used_pwb_pending = false;
        pmem::pwb(&sh.hdr->used_size);
    }

    static void flush_logged_main_lines(Shard& sh) {
        if (sh.log.full_copy()) {
            pmem::pwb_range(sh.main, sh.hdr->used_size.load());
            return;
        }
        // One sorted/coalesced pass, shared with copy_main_to_back(): each
        // maximal run costs one ranged flush instead of one dispatched pwb
        // per 64 B entry.  Copy-only (streamed) lines are replicated but
        // never flushed.
        auto& cs = pmem::tl_commit_stats();
        cs.commits++;
        cs.runs += sh.log.copy_runs().size();
        cs.lines_logged += sh.log.logged_bytes() / pmem::kCacheLineSize;
        for (const auto& r : sh.log.merged_runs())
            pmem::pwb_range(sh.main + r.off, r.len);
    }

    static void copy_range_to_back(Shard& sh, uint64_t off, size_t len) {
        const uint64_t used = sh.hdr->used_size.load();
        if (off >= used) return;
        if (off + len > used) len = used - off;
        pmem::persist_copy(sh.back + off, sh.main + off, len);
    }

    static void copy_main_to_back(Shard& sh) {
        if constexpr (Traits::kUseLog) {
            if (tl.tx_depth > 0 && !sh.log.full_copy()) {
                for (const auto& r : sh.log.copy_runs())
                    copy_range_to_back(sh, r.off, r.len);
                return;
            }
        }
        copy_range_to_back(sh, 0, sh.hdr->used_size.load());
    }

    static void copy_back_to_main(Shard& sh) {
        const uint64_t used = sh.hdr->used_size.load();
        pmem::persist_copy(sh.main, sh.back, used);
    }

    static void format() {
        s.header->magic.store(0);
        pmem::on_store(&s.header->magic, 8);
        pmem::pwb(&s.header->magic);
        pmem::pfence();  // invalidate before rewriting the layout

        s.header->shard_count = s.nshards;
        s.header->main_size = s.main_size;
        s.header->region_size = s.region.size();
        pmem::on_store(s.header, sizeof(PHeader));
        pmem::pwb_range(s.header, sizeof(PHeader));

        const size_t meta_end = (sizeof(MainMeta) + 63) & ~size_t{63};
        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            tl.shard = i;
            tl.tx_depth = 1;  // interposition active, log in full-copy mode
            if constexpr (Traits::kUseLog) sh.log.begin_tx(0);

            sh.hdr->state.store(IDL);
            sh.hdr->used_size.store(meta_end);
            pmem::on_store(sh.hdr, sizeof(ShardHeader));
            pmem::pwb_range(sh.hdr, sizeof(ShardHeader));

            new (sh.meta) MainMeta;  // persist<> members are raw pods
            for (int r = 0; r < kMaxRootObjects; ++r) sh.meta->roots[r] = nullptr;
            sh.alloc.format(&sh.meta->alloc_meta, pool_base(sh), pool_size(sh));
            sh.used_pwb_pending = false;  // used_size is flushed just below
            pmem::pwb_range(sh.main, meta_end);
            pmem::pwb(&sh.hdr->used_size);
            pmem::pfence();

            copy_range_to_back(sh, 0, meta_end);
            pmem::pfence();
            tl.tx_depth = 0;
        }
        tl.shard = 0;

        s.header->magic.store(magic_value());
        pmem::on_store(&s.header->magic, 8);
        pmem::pwb(&s.header->magic);
        pmem::psync();
    }

    // --- speculative update fast path (§4.11) ------------------------------
    //
    // Protocol (C-RW-WP variants only; RomulusLR keeps its Left-Right path):
    //   1. try_read_lock the shard's C-RW-WP lock: a *shared* hold for the
    //      whole speculation excludes slow-path combiners (who mutate main
    //      unstriped under the exclusive hold) without ever blocking.
    //   2. Run the closure with every pstore buffered into a thread-local
    //      write set of whole cache lines and every pload validated against
    //      the line's stripe word (locked, or version > the start-time clock
    //      snapshot rv => abort).  Footprint overflow, frees and
    //      cross-shard access doom the speculation — it keeps executing in
    //      SpecBuffer's sandboxed pass-through mode (these dooms never
    //      throw: closures run noexcept destructors) and the closure is
    //      re-run on the slow path afterwards.  An allocation dooms it too:
    //      the first one, if small, is served from SpecBuffer's sandbox, and
    //      any other ends the run at once with sync::SpecAbort.  A doomed
    //      run that drops a store (past the hard cap, a store spanning more
    //      lines than it, a cross-shard or header store) ends with
    //      SpecAbort at its next load, unless it is unwinding or inside
    //      tmDelete's destructor call.
    //   3. Commit: try-acquire the write set's stripes in canonical
    //      (sorted) order, validate captured-line versions and the read
    //      set, advance the shard's fast-path clock to wv, and announce the
    //      write set in the shard's fp_slots.
    //   4. Group apply: whichever announcer wins fp_gate makes every
    //      announced write set durable in one twin-state transaction —
    //      MUT -> pfence -> seqlock odd -> all lines into main -> pfence ->
    //      CPY -> psync (durability point) -> seqlock even -> all lines
    //      into back -> pfence -> IDL — and marks their announcers done.
    //      Each announcer then releases its own stripes at its own wv.
    //
    // A torn group apply is all-or-nothing through the unchanged twin-state
    // recovery: a crash in MUT rolls every write set of the batch back from
    // back, a crash in CPY re-replicates main.  Stripe words, the clock, the
    // announce slots and the write sets are volatile and die with the crash.

    using FpTx = sync::SpecBuffer;
    static FpTx& tl_fp() {
        static thread_local FpTx fp;
        return fp;
    }

    static void fp_doom() { sync::spec_doom(tl_fp()); }

    /// Buffered store: every touched line is captured, then overwritten in
    /// the buffer only (sync::spec_store).  Anything outside the current
    /// shard's main half is either a volatile test object (plain store) or a
    /// cross-shard / header write the stripes cannot guard — that store is
    /// dropped (the slow-path re-run performs the real one).
    static void fp_store(void* addr, const void* src, size_t n) {
        Shard& sh = current_shard();
        if (!in_shard_main(sh, addr)) {
            if (s.initialized && s.region.contains(addr)) {
                sync::spec_drop(tl_fp());
                return;
            }
            std::memcpy(addr, src, n);
            ROMULUS_RACE_WRITE(addr, n);
            return;
        }
        sync::spec_store(tl_fp(), sh.stripes, sh.main, main_offset(sh, addr),
                         src, n);
    }

    /// Validated load: buffered lines read from the write set; everything
    /// else is read from main and checked against its stripe word
    /// (sync::spec_load).  A run that has dropped a store ends here.
    static void fp_load(void* dst, const void* src, size_t n) {
        FpTx& fp = tl_fp();
        if (fp.load_ends_run()) throw sync::SpecAbort{};
        Shard& sh = current_shard();
        if (!in_shard_main(sh, src)) {
            if (s.initialized && s.region.contains(src) &&
                owning_shard_main(src) != nullptr) {
                // Cross-shard read: not stripe-guarded.  Doom and read raw
                // (word-atomic — that shard's applier may be mid-commit).
                sync::spec_doom(fp);
                sync::word_atomic_copy(dst, src, n);
                return;
            }
            std::memcpy(dst, src, n);
            return;
        }
        sync::spec_load(fp, sh.stripes, sh.main, main_offset(sh, src), dst,
                        n);
    }

    template <typename F>
    static bool try_fastpath_update(Shard& sh, unsigned shard_id, F& f) {
        const int t = sync::tid();
        if (!sh.rwlock.try_read_lock(t)) return false;  // slow writer active
        FpTx& fp = tl_fp();
        fp.begin(sh.stripes.clock_now());
        tl.shard = shard_id;
        tl.tx_depth = 1;  // nested updateTx/readTx/put_object contracts hold
        tl.fp_active = true;
        ROMULUS_RACE_TX_BEGIN("update-tx(fp)");
        bool ok;
        try {
            f();
            ok = !fp.aborted;
        } catch (...) {
            // A user exception, or the SpecAbort that ends a doomed run at an
            // allocation or at a load after a dropped store.  Nothing was
            // applied, so the transaction is a no-op either way; but only
            // surface the exception off an undoomed, still-valid read set —
            // a doomed run's exception is SpecAbort or may be an artifact of
            // its inconsistent view, so retry on the slow path instead of
            // raising a phantom.
            const bool consistent =
                !fp.aborted &&
                sync::spec_reads_valid(fp, sh.stripes, nullptr, 0);
            tl.fp_active = false;
            tl.tx_depth = 0;
            ROMULUS_RACE_TX_END();
            sh.rwlock.read_unlock(t);
            pmem::tl_commit_stats().fastpath_aborts++;
            if (consistent) {
                // The surfaced exception IS an aborted transaction from the
                // caller's (and the persistency checker's) point of view:
                // nothing was applied, but the lifecycle must stay visible.
                pmem::notify_tx_begin();
                pmem::notify_tx_abort();
                throw;
            }
            return false;
        }
        tl.fp_active = false;  // commit uses explicit primitives, not pstore
        if (ok) ok = fastpath_commit(sh);
        tl.tx_depth = 0;
        ROMULUS_RACE_TX_END();
        sh.rwlock.read_unlock(t);
        auto& cs = pmem::tl_commit_stats();
        if (ok) {
            cs.fastpath_commits++;
        } else {
            cs.fastpath_aborts++;
        }
        return ok;
    }

    static bool fastpath_commit(Shard& sh) {
        FpTx& fp = tl_fp();
        if (fp.nw == 0) {
            // Read-only (or no-op) update closure: every load was validated
            // at version <= rv, so the reads already form a consistent
            // snapshot of the start-time state and there is nothing to
            // persist.
            return true;
        }
        unsigned order[FpTx::kLineCap];
        sync::StripeLockTable::Word pre[FpTx::kLineCap];
        unsigned ns = 0;
        if (!sync::spec_lock_write_set(fp, sh.stripes, order, pre, &ns))
            return false;
        const uint64_t wv = sh.stripes.clock_advance();
        // Announce the write set, then until an applier has made it durable
        // try to become that applier: a lone committer is a batch of one.
        const int t = sync::tid();
        sh.fp_slots.announce(t, &fp);
        unsigned spins = 0;
        while (!sh.fp_slots.is_done(t)) {
            if (sh.fp_gate.try_write_lock()) {
                fp_apply_batch(sh);
                sh.fp_gate.write_unlock();
            } else {
                sync::spin_wait(spins);
            }
        }
        for (unsigned j = 0; j < ns; ++j) sh.stripes.release(order[j], wv);
        return true;
    }

    /// Group apply: make every write set announced on the shard durable in
    /// one twin-state transaction, then release their announcers.  The
    /// caller holds fp_gate.write, which serializes appliers and excludes
    /// pessimistic readers, so the shard's seqlock and twin-state machine
    /// keep their single-writer contract (slow-path writers are excluded by
    /// every announcer's shared rwlock hold) — which is exactly why recovery
    /// needs no new cases.  The write sets are line-disjoint (each announcer
    /// holds its lines' stripes) and sorted by offset (spec_lock_write_set).
    static void fp_apply_batch(Shard& sh) {
        int slots[sync::kMaxThreads];
        FpTx* sets[sync::kMaxThreads];
        int n = 0;
        sh.fp_slots.for_each_announced([&](int slot, FpTx* fp) {
            slots[n] = slot;
            sets[n++] = fp;
        });
        if (n == 0) return;  // ours went out with the previous applier's batch
        // Under a profile whose pwb evicts the line, every line goes to main
        // and then to back straight from its buffered image with NT stores
        // (no RFO, no flush, no re-read of main), drained before the CPY and
        // IDL state stores; otherwise a cached store + pwb per line.
        const bool nt = pmem::streams_line_images();
        enter_mut(sh);
        for (int b = 0; b < n; ++b) {
            for (unsigned i = 0; i < sets[b]->nw; ++i) {
                const auto& wl = sets[b]->wlines[i];
                uint8_t* dst = sh.main + wl.line_off;
                // The write set is the transaction's log: each line is
                // written back and replicated below (checker require_log).
                pmem::notify_range_logged(dst, pmem::kCacheLineSize);
                if (nt) {
                    pmem::nt_store_line(dst, wl.data);
                } else {
                    std::memcpy(dst, wl.data, pmem::kCacheLineSize);
                    pmem::on_store(dst, pmem::kCacheLineSize);
                    pmem::pwb(dst);
                }
                ROMULUS_RACE_WRITE(dst, pmem::kCacheLineSize);
            }
        }
        // A cached apply wrote each line back as it went; the body
        // write-back left for the CPY step is the drain of the NT images.
        commit_cpy(sh, [&] {
            if (!nt) return;
            pmem::nt_drain();
            // An NT store leaves no cached copy, so the next get of a hot
            // record, or the capture of its next update, would miss to
            // memory: fetch the new lines back without waiting for them.
            for (int b = 0; b < n; ++b)
                for (unsigned i = 0; i < sets[b]->nw; ++i)
                    __builtin_prefetch(sh.main + sets[b]->wlines[i].line_off);
        });
        for (int b = 0; b < n; ++b) {
            const FpTx& fp = *sets[b];
            for (unsigned i = 0; i < fp.nw;) {
                const uint64_t off = fp.wlines[i].line_off;
                unsigned j = i + 1;
                if (nt) {
                    pmem::nt_store_line(sh.back + off, fp.wlines[i].data);
                } else {
                    // Adjacent lines replicate as one run, RangeLog-style.
                    while (j < fp.nw && fp.wlines[j].line_off ==
                                            off + (j - i) * pmem::kCacheLineSize)
                        ++j;
                    copy_range_to_back(sh, off, (j - i) * pmem::kCacheLineSize);
                }
                i = j;
            }
        }
        if (nt) pmem::nt_drain();
        finish_idl(sh);
        pmem::notify_tx_commit();
        for (int b = 0; b < n; ++b) sh.fp_slots.mark_done(slots[b]);
        auto& cs = pmem::tl_commit_stats();
        cs.fastpath_batches++;
        cs.fastpath_batched += uint64_t(n);
    }

    // --- combiner ----------------------------------------------------------

    static bool try_writer_lock(Shard& sh) {
        if constexpr (Traits::kUseLR) {
            return sh.lr_writer_lock.try_lock();
        } else {
            return sh.rwlock.try_write_lock();
        }
    }

    static void writer_unlock(Shard& sh) {
        if constexpr (Traits::kUseLR) {
            sh.lr_writer_lock.unlock();
        } else {
            sh.rwlock.write_unlock();
        }
    }

    /// Execute every operation announced on this shard inside one durable
    /// transaction.  Slots are cleared only after end_transaction(), i.e.
    /// after the psync that makes the whole batch durable — an announcer
    /// that returns has a durable, visible operation (§5.2).
    static void combine(Shard& sh, unsigned shard_id) {
        begin_transaction(shard_id);
        int done[sync::kMaxThreads];
        bool taken[sync::kMaxThreads] = {};
        int n = 0;
        try {
            auto drain = [&] {
                int newly = 0;
                sh.fc.for_each_announced(
                    [&](int slot, sync::FlatCombiningArray<>::Op* op) {
                        if (taken[slot]) return;  // executed in a prior scan
                        taken[slot] = true;
                        (*op)();
                        done[n++] = slot;
                        ++newly;
                    });
                return newly;
            };
            drain();
            // One re-scan: operations announced while the first batch
            // executed join the same durable transaction instead of paying
            // their own MUT/CPY fence pair.  A single pass keeps the
            // combiner's own latency bounded under a steady announce stream.
            drain();
        } catch (...) {
            // An announced operation threw (e.g. heap exhaustion): roll the
            // whole combined transaction back — back still holds the
            // pre-transaction state — release every announcer whose op was
            // scanned (their effects are undone with the batch), and
            // propagate in the combiner's thread.
            abort_transaction();
            for (int i = 0; i < n; ++i) sh.fc.mark_done(done[i]);
            throw;
        }
        end_transaction();
        for (int i = 0; i < n; ++i) sh.fc.mark_done(done[i]);
        sh.combines.fetch_add(1, std::memory_order_relaxed);
        sh.combined_ops.fetch_add(uint64_t(n), std::memory_order_relaxed);
    }
};

// ---------------------------------------------------------------------------
// The three published variants (§5.3, last paragraph).
// ---------------------------------------------------------------------------

struct RomulusNLTraits {
    static constexpr const char* kName = "RomulusNL";
    static constexpr const char* kFileName = "romulus_nl.heap";
    static constexpr bool kUseLog = false;
    static constexpr bool kUseLR = false;
    static constexpr uintptr_t kBaseAddr = 0x510000000000ull;
};

struct RomulusLogTraits {
    static constexpr const char* kName = "RomulusLog";
    static constexpr const char* kFileName = "romulus_log.heap";
    static constexpr bool kUseLog = true;
    static constexpr bool kUseLR = false;
    static constexpr uintptr_t kBaseAddr = 0x520000000000ull;
};

struct RomulusLRTraits {
    static constexpr const char* kName = "RomulusLR";
    static constexpr const char* kFileName = "romulus_lr.heap";
    static constexpr bool kUseLog = true;
    static constexpr bool kUseLR = true;
    static constexpr uintptr_t kBaseAddr = 0x530000000000ull;
};

using RomulusNL = RomulusEngine<RomulusNLTraits>;
using RomulusLog = RomulusEngine<RomulusLogTraits>;
using RomulusLR = RomulusEngine<RomulusLRTraits>;

}  // namespace romulus
