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
#include "core/heap_root.hpp"
#include "core/persist.hpp"
#include "core/range_log.hpp"
#include "core/speculation.hpp"
#include "pmem/flush.hpp"
#include "pmem/region.hpp"
#include "sync/crwwp.hpp"
#include "sync/flat_combining.hpp"
#include "sync/left_right.hpp"
#include "sync/seqlock.hpp"
#include "sync/spinlock.hpp"
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
    // Persistent header: the first page of the heap file
    // ---------------------------------------------------------------------

    static constexpr size_t kHeaderReserved = 4096;
    static constexpr size_t kShardHeaderOffset = 64;

    /// Global header: geometry only.  Per-shard crash state lives in the
    /// ShardHeader array that follows at kShardHeaderOffset.
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

    /// True when `header_page` (the first kHeaderReserved bytes of a file of
    /// `file_size` bytes) heads a heap of this variant: its magic, a shard
    /// count in [1, kMaxShards], and the geometry the file's size gives that
    /// many shards.  init() recovers such a heap and formats anything else.
    static bool owns_heap(const void* header_page, size_t file_size) {
        const auto* h = static_cast<const PHeader*>(header_page);
        if (h->magic.load(std::memory_order_relaxed) != magic_value() ||
            h->shard_count < 1 || h->shard_count > kMaxShards ||
            h->region_size != file_size)
            return false;
        try {
            return h->main_size == pmem::ShardLayout::compute(
                                       file_size, h->shard_count,
                                       kHeaderReserved)
                                       .main_size;
        } catch (const std::invalid_argument&) {
            return false;
        }
    }

    // ---------------------------------------------------------------------
    // Lifecycle
    // ---------------------------------------------------------------------

    /// Map (and if needed format) the persistent heap.  Runs recovery when
    /// attaching to an existing heap (so a heap left in MUT/CPY by a crash
    /// is consistent before the first access).  `heap_bytes == 0` maps an
    /// existing heap at its own size (heap_bytes_for).  `shards` picks the
    /// zone count for a *fresh* heap (0: the ROMULUS_SHARDS env default); a
    /// valid existing heap dictates its own stored shard count — adopting
    /// the persisted geometry instead of reformatting on mismatch is what
    /// makes a heap created with S=4 reopen safely from a default-configured
    /// process.
    static void init(size_t heap_bytes = 0, const std::string& file = {},
                     unsigned shards = 0) {
        if (s.initialized) throw std::runtime_error("RomulusEngine: double init");
        const unsigned want = shards != 0 ? shards : default_shard_count();
        if (want < 1 || want > kMaxShards)
            throw std::invalid_argument("RomulusEngine: shard count out of range");
        std::string path = file.empty()
                               ? pmem::default_pmem_dir() + "/" + Traits::kFileName
                               : file;
        const size_t size = heap_bytes_for(heap_bytes, path);
        s.region.map(path, size, Traits::kBaseAddr);
        s.header = reinterpret_cast<PHeader*>(s.region.base());
        const bool valid = owns_heap(s.header, size);
        try {
            s.layout = pmem::ShardLayout::compute(
                size, valid ? s.header->shard_count : want, kHeaderReserved);
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
            sh.meta = Root::attach(sh.main, s.main_size, sh.alloc);
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
        if (speculating()) return Spec::buffer().store(addr, &val, sizeof(T));
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
        if (speculating()) return Spec::buffer().load(addr);
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
        if (speculating()) return Spec::buffer().store(dst, src, n);
        if (tl.tx_depth > 0 && stream_range(dst, src, n)) return;
        std::memcpy(dst, src, n);
        ROMULUS_RACE_WRITE(dst, n);
        range_written(dst, n);
    }

    static void zero_range(void* dst, size_t n) {
        if (speculating()) return Spec::buffer().zero(dst, n);
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
        // Try the speculation (§4.11), then the combiner.  Like an
        // optimistic read, the closure may run more than once (docs/API.md).
        if constexpr (!Traits::kUseLR)
            if (update_config().fastpath && Spec::run(shard_id, f)) return;
        Shard& sh = shard(shard_id);
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
                ~Guard() {
                    ROMULUS_RACE_TX_END();
                    tl.read_depth = 0;
                    sh.spec.gate.read_unlock(t);
                    sh.rwlock.read_unlock(t);
                }
            } guard{sh, t};
            // Fast-path committers apply under a *shared* rwlock hold
            // (§4.11), so the reader lock alone does not guarantee a
            // quiescent main: the gate excludes the applier phase too.
            // Lock order everywhere: rwlock shared, then the gate.
            sh.rwlock.read_lock(t);
            sh.spec.gate.read_lock(t);
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
        return tm_new<T, RomulusEngine>(std::forward<Args>(args)...);
    }

    template <typename T>
    static void tmDelete(T* obj) {
        if (obj == nullptr) return;
        if (speculating()) Spec::buffer().destroy(obj); else obj->~T();
        free_bytes(obj);
    }

    static void* alloc_bytes(size_t n) {
        assert(tl.tx_depth > 0 && "allocation outside a transaction");
        if (speculating()) return Spec::buffer().alloc(n);
        void* ptr = current_shard().alloc.alloc(n);
        if (ptr == nullptr) throw std::bad_alloc();
        return ptr;
    }

    static void free_bytes(void* ptr) {
        assert(tl.tx_depth > 0 && "free outside a transaction");
        // tmDelete runs inside noexcept destructors: a speculation's free
        // dooms it without throwing, and the slow-path re-run frees.
        if (speculating()) return Spec::buffer().doom();
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
            // (the root block is inside the copied range), and pload()'s value
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
    static sync::FlatCombiningArray<SpecBuffer>& fastpath_slots_for_tests(
        unsigned shard_id = 0) {
        return shard(shard_id).spec.slots;
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
            new (&sh.spec) SpecShard();  // held stripes died with the crash
            new (&sh.fc) sync::FlatCombiningArray<>();
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
                copy_range_to_back(sh, 0, sh.hdr->used_size.load());
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
    using Spec = FastPath<RomulusEngine>;
    friend Spec;
    using Root = HeapRoot<RomulusEngine>;

    static constexpr uint64_t kMagicBase = 0x524F4D554C555302ull;  // "ROMULUS"+layout v2

    static uint64_t magic_value() {
        // Fold the engine name so heaps are not opened by the wrong variant.
        uint64_t h = kMagicBase;
        for (const char* c = Traits::kName; *c; ++c) h = h * 31 + uint64_t(*c);
        return h;
    }

    /// One shard = one zone's pointers + persistent header slots + its own
    /// volatile concurrency kit.  Constructed only for active shards (the
    /// range log alone owns ~0.2–0.8 MB of dedup table).
    struct Shard {
        explicit Shard(size_t log_bits) : log(log_bits) {}

        uint8_t* main = nullptr;
        uint8_t* back = nullptr;
        ShardHeader* hdr = nullptr;
        Root* meta = nullptr;
        Alloc alloc;
        RangeLog log;
        sync::CRWWPLock rwlock;           // C-RW-WP variants
        sync::SpinLock lr_writer_lock;    // LR variant (readers use lr)
        sync::LeftRight lr;
        sync::SeqLock seq;                // optimistic-read window (§4.9)
        SpecShard spec;                   // stripe fast path (§4.11)
        sync::FlatCombiningArray<> fc;
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

    /// Inside a fast-path speculation (§4.11): interposed accesses go to
    /// the thread's SpecBuffer.
    static bool speculating() {
        if constexpr (Traits::kUseLR) return false;
        else return tl.fp_active;
    }

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

    static uint64_t main_offset(const Shard& sh, const void* ptr) {
        return static_cast<const uint8_t*>(ptr) - sh.main;
    }

    static size_t full_copy_threshold(const Shard& sh) {
        // Beyond half the used bytes, per-line copying loses to one memcpy.
        return static_cast<size_t>(sh.hdr->used_size.load() / 2);
    }

#ifdef ROMULUS_PERSISTGRAPH
    static const analysis::ProtocolMutations& mutations() {
        return analysis::protocol_mutations();
    }
#else
    /// romver's seeded protocol bugs (analysis/persist_graph.hpp), all off
    /// in a build without them: every mutation branch folds away.
    struct NoMutations {
        bool elide_commit_fence = false;
        bool reorder_state_persist = false;
        bool elide_nt_drain = false;
    };
    static constexpr NoMutations mutations() { return {}; }
#endif

    // --- Algorithm 1's state transitions -----------------------------------
    //
    // begin/end/abort_transaction, recover() and the fast path's group apply
    // (FastPath::apply_batch) move a shard's state word only through these
    // steps.

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
        const auto& pgm = mutations();
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

    /// End a commit phase whose lines went out as NT line images
    /// (pmem::persist_lines): drain them before the phase's state store.
    /// Under CLFLUSH the pfence ahead of that store is a nop and orders
    /// none of them.
    static void drain_line_images() {
        if (pmem::streams_line_images() && !mutations().elide_nt_drain)
            pmem::nt_drain();
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

    /// RomulusLog/LR's MUT -> CPY body write-back: every logged main line,
    /// or all of used in full-copy mode, through persist_lines in place,
    /// one call per coalesced run (shared with copy_main_to_back()), then
    /// one drain.  Copy-only (streamed) lines are replicated but never
    /// written back.
    static void flush_logged_main_lines(Shard& sh) {
        if (sh.log.full_copy()) {
            // Full-copy mode logs, writes back and replicates all of used.
            const uint64_t used = sh.hdr->used_size.load();
            pmem::notify_range_logged(sh.main, used);
            pmem::persist_lines(sh.main, sh.main, used);
            // An NT re-store writes every line of used to the media, where
            // a CLFLUSH of a clean line writes nothing.
            if (pmem::streams_line_images())
                pmem::tl_stats().nvm_bytes +=
                    (used + pmem::kCacheLineSize - 1) / pmem::kCacheLineSize *
                    pmem::kCacheLineSize;
        } else {
            auto& cs = pmem::tl_commit_stats();
            cs.commits++;
            cs.runs += sh.log.copy_runs().size();
            cs.lines_logged += sh.log.logged_bytes() / pmem::kCacheLineSize;
            for (const auto& r : sh.log.merged_runs())
                pmem::persist_lines(sh.main + r.off, sh.main + r.off, r.len);
        }
        drain_line_images();
    }

    /// Format and recovery: replicate [off, off+len) of main, clamped to
    /// used, with persist_copy (which drains its own streamed lines).
    static void copy_range_to_back(Shard& sh, uint64_t off, size_t len) {
        const uint64_t used = sh.hdr->used_size.load();
        if (off >= used) return;
        if (off + len > used) len = used - off;
        pmem::persist_copy(sh.back + off, sh.main + off, len);
    }

    /// The commit's CPY -> back replication (§4.7): RomulusLog/LR's copy
    /// runs, or all of used (RomulusNL, full-copy mode), each clamped to
    /// used and written through persist_lines (as line images, rounded up
    /// to whole lines: bytes past used were never written in either half),
    /// then one drain.
    static void copy_main_to_back(Shard& sh) {
        const uint64_t used = sh.hdr->used_size.load();
        auto copy = [&](uint64_t off, uint64_t len) {
            if (off < used)
                pmem::persist_lines(sh.back + off, sh.main + off,
                                    std::min(len, used - off));
        };
        bool logged = false;
        if constexpr (Traits::kUseLog) logged = !sh.log.full_copy();
        if (logged) {
            for (const auto& r : sh.log.copy_runs()) copy(r.off, r.len);
        } else {
            copy(0, used);
        }
        drain_line_images();
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

        for (unsigned i = 0; i < s.nshards; ++i) {
            Shard& sh = shard(i);
            tl.shard = i;
            tl.tx_depth = 1;  // interposition active, log in full-copy mode
            if constexpr (Traits::kUseLog) sh.log.begin_tx(0);

            sh.hdr->state.store(IDL);
            sh.hdr->used_size.store(Root::bytes());
            pmem::on_store(sh.hdr, sizeof(ShardHeader));
            pmem::pwb_range(sh.hdr, sizeof(ShardHeader));

            Root::format(sh.main, s.main_size, sh.alloc);
            sh.used_pwb_pending = false;  // used_size is flushed just below
            pmem::pwb(&sh.hdr->used_size);
            pmem::pfence();

            copy_range_to_back(sh, 0, Root::bytes());
            pmem::pfence();
            tl.tx_depth = 0;
        }
        tl.shard = 0;

        s.header->magic.store(magic_value());
        pmem::on_store(&s.header->magic, 8);
        pmem::pwb(&s.header->magic);
        pmem::psync();
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
