// UndoLogPTM: a PMDK-libpmemobj-style undo-log persistent transactional
// memory, used as the paper's "PMDK" comparison point (DESIGN.md §1).
//
// Write-ahead undo logging (§2): before each in-place store, the previous
// content of the destination words is appended to a log in persistent
// memory and persisted — one persistence fence per store — after which the
// in-place modification may proceed.  Commit truncates the log (one more
// fence + sync); recovery of an interrupted transaction replays the log
// backwards.  This is the cost structure Table 1 attributes to undo-log
// PTMs: fences proportional to the number of stores and ≥2x write
// amplification (every user word is also written to the log with its
// address).
//
// Concurrency matches the paper's PMDK setup exactly (§6.1): a
// std::shared_timed_mutex with the platform's default reader preference
// wraps every transaction.  On top of that, small disjoint update
// transactions may take the stripe-locked speculative fast path (DESIGN.md
// §4.11): the speculation holds the mutex *shared* (excluding slow-path
// writers without serializing against other speculations), buffers its
// write set, and commits durably with per-run undo logging under per-line
// stripe try-locks — so recovery is the unchanged backward log replay.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <shared_mutex>
#include <stdexcept>
#include <string>

#include "alloc/pallocator.hpp"
#include "analysis/race_hooks.hpp"
#include "core/engine_globals.hpp"
#include "core/persist.hpp"
#include "pmem/flush.hpp"
#include "pmem/region.hpp"
#include "sync/crwwp.hpp"
#include "sync/seqlock.hpp"
#include "sync/spinlock.hpp"
#include "sync/stripe_lock.hpp"
#include "sync/thread_registry.hpp"

namespace romulus::baselines {

class UndoLogPTM {
  public:
    template <typename T>
    using p = persist<T, UndoLogPTM>;
    using Alloc = PAllocator<UndoLogPTM>;

    static constexpr const char* name() { return "UndoLog(PMDK-like)"; }

    // ---------------------------------------------------------------- setup

    static void init(size_t heap_bytes = 0, const std::string& file = {}) {
        if (s.initialized) throw std::runtime_error("UndoLogPTM: double init");
        size_t size = heap_bytes ? heap_bytes : default_heap_bytes();
        size = (size + 4095) & ~size_t{4095};
        std::string path =
            file.empty() ? pmem::default_pmem_dir() + "/undolog.heap" : file;
        bool created = s.region.map(path, size, kBaseAddr);

        // The log area scales with the region (1/8th, >= 1 MiB) so small
        // test heaps work and huge transactions (Fig. 6 resizes) still fit.
        size_t log_bytes = size / 8 < (1u << 20) ? (1u << 20) : size / 8;
        s.log_capacity = log_bytes / sizeof(LogEntry);
        s.header = reinterpret_cast<UHeader*>(s.region.base());
        s.log = reinterpret_cast<LogEntry*>(s.region.base() + kHeaderReserved);
        s.heap = s.region.base() + kHeaderReserved + log_bytes;
        s.heap_size = size - kHeaderReserved - log_bytes;
        if (size < kHeaderReserved + log_bytes + (1u << 20))
            throw std::runtime_error("UndoLogPTM: heap too small");
        s.meta = reinterpret_cast<HeapMeta*>(s.heap);

        if (!created && s.header->magic.load() == kMagic &&
            s.header->heap_size == s.heap_size) {
            recover();
        } else {
            format();
        }
        s.alloc.attach(&s.meta->alloc_meta, pool_base(), pool_size());
        s.stripes.resize(update_config().stripes);
        ROMULUS_RACE_REGISTER_REGION(s.heap, s.heap_size, "UndoLog", "heap",
                                     nullptr);
        s.initialized = true;
    }

    static void close() {
        ROMULUS_RACE_UNREGISTER_REGION(s.heap);
        s.region.unmap();
        s.initialized = false;
    }
    static void destroy() {
        ROMULUS_RACE_UNREGISTER_REGION(s.heap);
        s.region.destroy();
        s.initialized = false;
    }
    static bool initialized() { return s.initialized; }

    // -------------------------------------------------------- interposition

    template <typename T>
    static void pstore(T* addr, const T& val) {
        if (tl.fp_active) {
            fp_store(addr, &val, sizeof(T));
            return;
        }
        if (in_heap(addr) && tl.tx_depth > 0) {
            log_range(addr, sizeof(T));  // entry persisted + fence
            *addr = val;
            ROMULUS_RACE_WRITE(addr, sizeof(T));
            pmem::on_store(addr, sizeof(T));
            pmem::pwb_range(addr, sizeof(T));
            return;
        }
        *addr = val;
        ROMULUS_RACE_WRITE(addr, sizeof(T));
        if (s.initialized && s.region.contains(addr)) {
            pmem::on_store(addr, sizeof(T));
            pmem::pwb_range(addr, sizeof(T));
        }
    }

    template <typename T>
    static T pload(const T* addr) {
        if (tl.fp_active) {
            // Speculation: the write set buffers stores, so loads must
            // consult it; unbuffered lines are stripe-validated.
            T v;
            fp_load(&v, addr, sizeof(T));
            return v;
        }
        T v = *addr;  // undo log mutates in place: no load redirection
        if (tl.opt_active) {
            // Seqlock fast path: per-load validation, exactly as in the
            // Romulus engines (DESIGN.md §4.9) — a torn value is rejected
            // before the closure can use it.
            if (!s.seq.validate(tl.opt_seq)) throw sync::OptimisticAbort{};
            if (!ROMULUS_RACE_OPTIMISTIC_READ(&s.seq, addr, sizeof(T),
                                              tl.opt_seq, s.seq.word(),
                                              "seqlock.validate"))
                throw sync::OptimisticAbort{};
            return v;
        }
        ROMULUS_RACE_READ(addr, sizeof(T));
        return v;
    }

    static void store_range(void* dst, const void* src, size_t n) {
        if (tl.fp_active) {
            fp_store(dst, src, n);
            return;
        }
        if (in_heap(dst) && tl.tx_depth > 0) log_range(dst, n);
        std::memcpy(dst, src, n);
        ROMULUS_RACE_WRITE(dst, n);
        if (s.initialized && s.region.contains(dst)) {
            pmem::on_store(dst, n);
            pmem::pwb_range(dst, n);
        }
    }

    static void zero_range(void* dst, size_t n) {
        if (tl.fp_active) {
            static constexpr uint8_t kZeros[pmem::kCacheLineSize] = {};
            uint8_t* p = static_cast<uint8_t*>(dst);
            while (n > 0) {
                const size_t take = std::min(n, sizeof(kZeros));
                fp_store(p, kZeros, take);
                p += take;
                n -= take;
            }
            return;
        }
        if (in_heap(dst) && tl.tx_depth > 0) log_range(dst, n);
        std::memset(dst, 0, n);
        ROMULUS_RACE_WRITE(dst, n);
        if (s.initialized && s.region.contains(dst)) {
            pmem::on_store(dst, n);
            pmem::pwb_range(dst, n);
        }
    }

    static void note_used(const void* end) {
        // The fast path never allocates from the heap (alloc_bytes dooms
        // and serves scratch first): leave the header untouched.
        if (tl.fp_active) {
            fp_doom();
            return;
        }
        uint64_t off = static_cast<const uint8_t*>(end) - s.heap;
        if (off > s.header->used_size.load(std::memory_order_relaxed)) {
            s.header->used_size.store(off, std::memory_order_relaxed);
            pmem::on_store(&s.header->used_size, 8);
            pmem::pwb(&s.header->used_size);
        }
    }

    // --------------------------------------------------------- transactions

    template <typename F>
    static void updateTx(F&& f) {
        if (tl.tx_depth > 0) {
            f();
            return;
        }
        // Stripe-locked speculative fast path (DESIGN.md §4.11): commit
        // small disjoint updates without the exclusive mutex hold.  Any
        // abort (conflict, footprint overflow, allocation) falls through to
        // the pessimistic slow path below and re-runs the closure.
        if (update_config().fastpath) {
            if (try_fastpath_update(f)) return;
            pmem::tl_commit_stats().fastpath_fallbacks++;
        }
        std::unique_lock lk(s.mutex);
        ROMULUS_RACE_ACQUIRE(&s.mutex, "undo.write_lock");
        ROMULUS_RACE_SCOPED_RELEASE(&s.mutex, "undo.write_unlock");
        begin_tx();
        try {
            f();
        } catch (...) {
            // Failure atomicity also covers user exceptions: the undo log
            // restores the pre-transaction state, exactly as crash recovery
            // would.
            rollback();
            tl.tx_depth = 0;
            throw;
        }
        commit_tx();
    }

    template <typename F>
    static void readTx(F&& f) {
        if (tl.tx_depth > 0 || tl.opt_active) {  // flat nesting
            f();
            return;
        }
        // Seqlock fast path (DESIGN.md §4.9): the writer bumps s.seq around
        // its logging window; a speculative reader waits out an open window
        // and takes the shared mutex only after max_attempts runs that a
        // writer invalidated mid-flight.
        if (read_config().optimistic &&
            sync::optimistic_read(s.seq, tl.opt_active, tl.opt_seq,
                                  read_config().max_attempts, tl_read_stats(),
                                  f))
            return;
        std::shared_lock lk(s.mutex);
        ROMULUS_RACE_ACQUIRE(&s.mutex, "undo.read_lock");
        ROMULUS_RACE_SCOPED_RELEASE(&s.mutex, "undo.read_unlock");
        // Fast-path committers hold the mutex only shared, so pessimistic
        // readers additionally exclude their durable apply via fp_gate.
        FpGateGuard gate;
        ROMULUS_RACE_SCOPED_TX("read-tx");
        f();
    }

    /// Single-threaded API parity with the Romulus engines.
    static void begin_transaction() {
        if (tl.tx_depth++ > 0) return;
        begin_tx_body();
    }
    static void end_transaction() {
        assert(tl.tx_depth > 0);
        if (tl.tx_depth > 1) {
            --tl.tx_depth;
            return;
        }
        commit_body();
        tl.tx_depth = 0;
    }
    /// Roll back using the undo log (what recovery would do).
    static void abort_transaction() {
        assert(tl.tx_depth > 0);
        rollback();
        tl.tx_depth = 0;
    }
    static bool in_transaction() { return tl.tx_depth > 0; }

    // ----------------------------------------------------------- allocation

    template <typename T, typename... Args>
    static T* tmNew(Args&&... args) {
        void* ptr = alloc_bytes(sizeof(T));
        if constexpr (sizeof...(Args) == 0) {
            // Value-initializing placement-new would zero the object with
            // raw stores that bypass pstore — and thus the undo log, making
            // the chunk's previous content unrestorable after a crash mid-tx
            // (found by romfuzz: a rolled-back allocation left zeroes inside
            // a freed-and-reused value buffer).  Zero through zero_range
            // (logged) and default-initialize instead.
            zero_range(ptr, sizeof(T));
            return new (ptr) T;
        } else {
            return new (ptr) T(std::forward<Args>(args)...);
        }
    }
    template <typename T>
    static void tmDelete(T* obj) {
        if (obj == nullptr) return;
        obj->~T();
        free_bytes(obj);
    }
    static void* alloc_bytes(size_t n) {
        // Allocator metadata is not striped: doom the speculation (never
        // throw — this can sit beneath a noexcept frame) and serve volatile
        // scratch memory so the closure can finish; the slow-path re-run
        // performs the real allocation.
        if (tl.fp_active) {
            fp_doom();
            return tl_fp().scratch_alloc(n);
        }
        assert(tl.tx_depth > 0);
        void* ptr = s.alloc.alloc(n);
        if (ptr == nullptr) throw std::bad_alloc();
        return ptr;
    }
    static void free_bytes(void* ptr) {
        // tmDelete is routinely reached from noexcept destructors: doom and
        // drop the free, the slow-path re-run performs the real one.
        if (tl.fp_active) {
            fp_doom();
            return;
        }
        assert(tl.tx_depth > 0);
        if (ptr != nullptr) s.alloc.free(ptr);
    }

    // ---------------------------------------------------------------- roots

    template <typename T>
    static T* get_object(int idx) {
        return static_cast<T*>(s.meta->roots[idx].pload());
    }
    static void put_object(int idx, void* ptr) {
        assert(tl.tx_depth > 0);
        s.meta->roots[idx] = ptr;
    }

    // -------------------------------------------------------- introspection

    static uint64_t used_bytes() { return s.header->used_size.load(); }
    static Alloc& allocator() { return s.alloc; }
    static pmem::PmemRegion& region() { return s.region; }
    static uint64_t log_entries_in_tx() { return tl.entries_this_tx; }

    // Layout introspection, parallel to the Romulus engines (the persistency
    // checker builds its Layout from these): the undo log mutates one heap in
    // place, so "main" is the heap area and there is no twin copy.
    static uint8_t* main_base() { return s.heap; }
    static size_t main_size() { return s.heap_size; }
    static uint8_t* back_base() { return nullptr; }
    // Persistent undo-log area (romver attributes persist events to
    // header/log/heap areas through these).
    static uint8_t* log_base() { return reinterpret_cast<uint8_t*>(s.log); }
    static size_t log_size() { return s.log_capacity * sizeof(LogEntry); }

    /// Test hook: the optimistic-read sequence word (DESIGN.md §4.9),
    /// exposed so fixtures can simulate a writer window without a thread.
    static sync::SeqLock& seq_for_tests() { return s.seq; }

    /// Test hook: the speculative fast path's stripe table (DESIGN.md §4.11).
    static sync::StripeLockTable& stripes_for_tests() { return s.stripes; }

    /// Test hook: clear transaction thread-locals after a simulated crash.
    static void crash_reset_for_tests() {
        tl = TlState{};
        s.seq.set_for_tests(0);  // a crash mid-tx left the window odd
        s.stripes.reset_for_tests();  // stripe words are volatile
        new (&s.fp_gate) sync::CRWWPLock();
    }

    /// Crash recovery: an interrupted transaction left entries in the log;
    /// apply them in reverse to restore the pre-transaction state.
    static void recover() {
        uint64_t n = s.header->log_count.load();
        if (n == 0) return;
        if (n > s.log_capacity) throw std::runtime_error("UndoLogPTM: bad log");
        for (uint64_t i = n; i-- > 0;) {
            const LogEntry& e = s.log[i];
            auto* dst = reinterpret_cast<uint64_t*>(s.heap + e.heap_off);
            *dst = e.old_val;
            pmem::on_store(dst, 8);
            pmem::pwb(dst);
        }
        pmem::pfence();
        truncate_log();
        pmem::psync();
    }

  private:
    static constexpr uintptr_t kBaseAddr = 0x540000000000ull;
    static constexpr size_t kHeaderReserved = 4096;
    static constexpr uint64_t kMagic = 0x554E444F4C4F4731ull;  // "UNDOLOG1"

    struct LogEntry {
        uint64_t heap_off;  ///< 8-byte-aligned offset of the word in the heap
        uint64_t old_val;   ///< previous content
    };

    struct alignas(64) UHeader {
        std::atomic<uint64_t> magic;
        std::atomic<uint64_t> log_count;
        std::atomic<uint64_t> used_size;
        uint64_t heap_size;
    };

    struct HeapMeta {
        p<void*> roots[kMaxRootObjects];
        typename Alloc::Meta alloc_meta;
    };

    struct State {
        pmem::PmemRegion region;
        UHeader* header = nullptr;
        LogEntry* log = nullptr;
        uint64_t log_capacity = 0;
        uint8_t* heap = nullptr;
        size_t heap_size = 0;
        HeapMeta* meta = nullptr;
        Alloc alloc;
        std::shared_timed_mutex mutex;
        sync::SeqLock seq;  // optimistic-read window (DESIGN.md §4.9)
        // Speculative update fast path (DESIGN.md §4.11): per-line versioned
        // try-locks plus the gate that serializes fast-path durable applies
        // against each other and against pessimistic readers.
        sync::StripeLockTable stripes;
        sync::CRWWPLock fp_gate;
        bool initialized = false;
    };
    static State s;

    struct TlState {
        int tx_depth = 0;
        uint64_t entries_this_tx = 0;
        bool opt_active = false;  ///< inside a seqlock-validated read attempt
        uint64_t opt_seq = 0;     ///< the attempt's sequence snapshot
        bool fp_active = false;   ///< inside a speculative update (§4.11)
    };
    static thread_local TlState tl;

    /// RAII fp_gate shared hold for pessimistic readers (only taken when the
    /// fast path can actually commit concurrently with a shared mutex hold).
    struct FpGateGuard {
        const bool on = update_config().fastpath;
        const int t = sync::tid();
        FpGateGuard() {
            if (on) s.fp_gate.read_lock(t);
        }
        ~FpGateGuard() {
            if (on) s.fp_gate.read_unlock(t);
        }
    };

    // --- speculative update fast path (DESIGN.md §4.11) --------------------
    //
    // Same protocol as RomulusEngine::try_fastpath_update over the single
    // global heap: speculate under a *shared* mutex hold (excludes slow-path
    // writers, who mutate the heap unstriped under the exclusive hold),
    // buffer the write set in a sync::SpecBuffer with stripe-validated
    // loads, then commit durably under per-line stripe try-locks.  The
    // durable apply undo-logs each coalesced run before storing it in place
    // and truncates the log at the end — so a torn fast-path commit recovers
    // through the unchanged backward log replay.

    static sync::SpecBuffer& tl_fp() {
        static thread_local sync::SpecBuffer fp;
        return fp;
    }

    static void fp_doom() { sync::spec_doom(tl_fp()); }

    static void fp_store(void* addr, const void* src, size_t n) {
        if (in_heap(addr)) {
            sync::spec_store(tl_fp(), s.stripes, s.heap,
                             static_cast<uint8_t*>(addr) - s.heap, src, n);
            return;
        }
        // Header/log writes are not stripe-guarded: doom the speculation
        // and drop the store (the slow-path re-run performs the real one).
        // Volatile test objects outside the region get the plain store.
        if (s.initialized && s.region.contains(addr)) {
            fp_doom();
            return;
        }
        std::memcpy(addr, src, n);
        ROMULUS_RACE_WRITE(addr, n);
    }

    static void fp_load(void* dst, const void* src, size_t n) {
        if (in_heap(src)) {
            sync::spec_load(tl_fp(), s.stripes, s.heap,
                            static_cast<const uint8_t*>(src) - s.heap, dst,
                            n);
            return;
        }
        std::memcpy(dst, src, n);
    }

    template <typename F>
    static bool try_fastpath_update(F& f) {
        std::shared_lock lk(s.mutex, std::try_to_lock);
        if (!lk.owns_lock()) return false;  // slow-path writer active
        ROMULUS_RACE_ACQUIRE(&s.mutex, "undo.read_lock");
        ROMULUS_RACE_SCOPED_RELEASE(&s.mutex, "undo.read_unlock");
        sync::SpecBuffer& fp = tl_fp();
        const UpdateConfig& cfg = update_config();
        fp.begin(cfg.max_fastpath_lines, cfg.max_read_stripes,
                 s.stripes.clock_now());
        tl.tx_depth = 1;  // nested updateTx/put_object contracts hold
        tl.fp_active = true;
        ROMULUS_RACE_TX_BEGIN("update-tx(fp)");
        bool ok;
        try {
            f();
            ok = !fp.aborted;
        } catch (...) {
            // Genuine user exception (speculation aborts never throw):
            // nothing was applied, so only surface it off an undoomed,
            // still-valid read set — otherwise retry on the slow path
            // instead of raising a phantom.
            const bool consistent =
                !fp.aborted &&
                sync::spec_reads_valid(fp, s.stripes, nullptr, 0);
            tl.fp_active = false;
            tl.tx_depth = 0;
            ROMULUS_RACE_TX_END();
            pmem::tl_commit_stats().fastpath_aborts++;
            if (consistent) {
                // The surfaced exception IS an aborted transaction from the
                // caller's (and the persistency checker's) point of view:
                // nothing was applied, but the lifecycle must stay visible.
                tx_begin_hook();
                tx_abort_hook();
                throw;
            }
            return false;
        }
        tl.fp_active = false;  // apply uses explicit primitives, not pstore
        if (ok) ok = fastpath_commit();
        tl.tx_depth = 0;
        ROMULUS_RACE_TX_END();
        auto& cs = pmem::tl_commit_stats();
        if (ok) {
            cs.fastpath_commits++;
        } else {
            cs.fastpath_aborts++;
        }
        return ok;
    }

    static bool fastpath_commit() {
        sync::SpecBuffer& fp = tl_fp();
        if (fp.nw == 0) return true;  // validated read-only closure
        unsigned order[sync::SpecBuffer::kLineCap];
        sync::StripeLockTable::Word pre[sync::SpecBuffer::kLineCap];
        unsigned ns = 0;
        if (!sync::spec_lock_write_set(fp, s.stripes, order, pre, &ns))
            return false;
        const uint64_t wv = s.stripes.clock_advance();
        fp_apply();
        for (unsigned j = 0; j < ns; ++j) s.stripes.release(order[j], wv);
        return true;
    }

    /// Durable apply of the validated write set.  fp_gate.write serializes
    /// concurrent fast-path committers and excludes pessimistic readers, so
    /// the seqlock window and the undo log keep their single-writer contract
    /// (slow-path writers are already excluded by the shared mutex hold).
    static void fp_apply() {
        sync::SpecBuffer& fp = tl_fp();
        s.fp_gate.write_lock();
        tl.entries_this_tx = 0;
        tx_begin_hook();
        s.seq.write_enter();
        ROMULUS_RACE_ACQUIRE(&s.seq, "seqlock.write_enter");
        // The write set arrives sorted by offset (spec_lock_write_set):
        // coalesce adjacent lines into maximal runs so each run pays one
        // log_range fence pair instead of one per store like the slow path.
        for (unsigned i = 0; i < fp.nw;) {
            const uint64_t off = fp.wlines[i].line_off;
            uint64_t len = sync::SpecBuffer::kLineSize;
            unsigned j = i + 1;
            while (j < fp.nw && fp.wlines[j].line_off == off + len) {
                len += sync::SpecBuffer::kLineSize;
                ++j;
            }
            uint8_t* dst = s.heap + off;
            log_range(dst, len);  // undo entries persisted + fenced
            for (unsigned k = i; k < j; ++k)
                std::memcpy(s.heap + fp.wlines[k].line_off, fp.wlines[k].data,
                            sync::SpecBuffer::kLineSize);
            ROMULUS_RACE_WRITE(dst, len);
            pmem::on_store(dst, len);
            pmem::pwb_range(dst, len);
            i = j;
        }
        pmem::pfence();  // all in-place pwbs complete before truncation
        truncate_log();
        pmem::psync();  // durability point: all of the write set or none
        ROMULUS_RACE_RELEASE(&s.seq, "seqlock.write_exit");
        s.seq.write_exit();
        tx_commit_hook();
        s.fp_gate.write_unlock();
    }

    static bool in_heap(const void* ptr) {
        auto u = reinterpret_cast<uintptr_t>(ptr);
        auto b = reinterpret_cast<uintptr_t>(s.heap);
        return u >= b && u < b + s.heap_size;
    }

    static uint8_t* pool_base() {
        size_t meta_end = (sizeof(HeapMeta) + 63) & ~size_t{63};
        return s.heap + meta_end;
    }
    static size_t pool_size() { return s.heap_size - (pool_base() - s.heap); }

    /// Append undo entries for the 8-byte words covering [addr, addr+len),
    /// persist them, fence, and only then may the caller store in place.
    /// This is the per-store fence that dominates undo-log cost (Table 1).
    static void log_range(void* addr, size_t len) {
        auto a = reinterpret_cast<uintptr_t>(addr) & ~uintptr_t{7};
        auto end = reinterpret_cast<uintptr_t>(addr) + len;
        uint64_t c = s.header->log_count.load(std::memory_order_relaxed);
        const uint64_t first = c;
        for (; a < end; a += 8) {
            if (c >= s.log_capacity)
                throw std::runtime_error("UndoLogPTM: log overflow");
            LogEntry& e = s.log[c];
            e.heap_off = a - reinterpret_cast<uintptr_t>(s.heap);
            e.old_val = *reinterpret_cast<const uint64_t*>(a);
            pmem::on_store(&e, sizeof(LogEntry));
            ++c;
        }
        pmem::pwb_range(&s.log[first], (c - first) * sizeof(LogEntry));
        pmem::pfence();  // entries durable before the count covers them —
                         // otherwise a crash could replay torn entries
        s.header->log_count.store(c, std::memory_order_relaxed);
        pmem::on_store(&s.header->log_count, 8);
        pmem::pwb(&s.header->log_count);
        pmem::pfence();  // entry + count durable before the in-place store
        tl.entries_this_tx += c - first;
        pmem::notify_range_logged(addr, len);
    }

    static void truncate_log() {
        s.header->log_count.store(0, std::memory_order_relaxed);
        pmem::on_store(&s.header->log_count, 8);
        pmem::pwb(&s.header->log_count);
    }

    static void begin_tx() {
        tl.tx_depth = 1;
        begin_tx_body();
    }
    static void begin_tx_body() {
        tl.entries_this_tx = 0;
        tx_begin_hook();
        // Open the optimistic-read window before the first in-place store
        // can become visible (the undo log mutates the live heap mid-tx, so
        // the whole transaction body is the readers' exclusion window).
        s.seq.write_enter();
        ROMULUS_RACE_ACQUIRE(&s.seq, "seqlock.write_enter");
        ROMULUS_RACE_TX_BEGIN("update-tx");
    }

    static void commit_tx() {
        commit_body();
        tl.tx_depth = 0;
    }
    static void commit_body() {
        pmem::pfence();  // all in-place pwbs complete before truncation
        truncate_log();
        pmem::psync();
        // Close the window only after the commit psync: a validated
        // speculative reader has read durable, committed state.
        ROMULUS_RACE_RELEASE(&s.seq, "seqlock.write_exit");
        s.seq.write_exit();
        tx_commit_hook();
        ROMULUS_RACE_TX_END();
    }

    static void rollback() {
        uint64_t n = s.header->log_count.load();
        for (uint64_t i = n; i-- > 0;) {
            const LogEntry& e = s.log[i];
            auto* dst = reinterpret_cast<uint64_t*>(s.heap + e.heap_off);
            *dst = e.old_val;
            pmem::on_store(dst, 8);
            pmem::pwb(dst);
        }
        pmem::pfence();
        truncate_log();
        pmem::psync();
        // The rollback stores above mutate the heap: the window stays odd
        // until the pre-transaction state is fully restored.
        ROMULUS_RACE_RELEASE(&s.seq, "seqlock.write_exit");
        s.seq.write_exit();
        tx_abort_hook();
        ROMULUS_RACE_TX_END();
    }

    static void format() {
        s.header->magic.store(0);
        pmem::pwb(&s.header->magic);
        pmem::pfence();

        s.header->log_count.store(0);
        s.header->heap_size = s.heap_size;
        size_t meta_end = (sizeof(HeapMeta) + 63) & ~size_t{63};
        s.header->used_size.store(meta_end);
        pmem::on_store(s.header, sizeof(UHeader));
        pmem::pwb_range(s.header, sizeof(UHeader));

        tl.tx_depth = 0;  // format stores go through the non-logged path
        new (s.meta) HeapMeta;
        for (int i = 0; i < kMaxRootObjects; ++i) s.meta->roots[i] = nullptr;
        s.alloc.format(&s.meta->alloc_meta, pool_base(), pool_size());
        pmem::pwb_range(s.heap, meta_end);
        pmem::pfence();

        s.header->magic.store(kMagic);
        pmem::on_store(&s.header->magic, 8);
        pmem::pwb(&s.header->magic);
        pmem::psync();
    }
};

}  // namespace romulus::baselines
