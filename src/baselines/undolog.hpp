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
// wraps every transaction.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
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
        // The log area scales with the region (1/8th, >= 1 MiB) so small
        // test heaps work and huge transactions (Fig. 6 resizes) still fit.
        // Check the size before mapping: map() resizes an existing file.
        const size_t log_bytes = size / 8 < (1u << 20) ? (1u << 20) : size / 8;
        const size_t reserved = kHeaderReserved + log_bytes;
        if (size < reserved + (size_t{1} << 20))
            throw std::invalid_argument(
                "UndoLogPTM: heap too small: undo log + header need " +
                std::to_string(reserved) + " bytes plus >=1 MiB of heap");
        std::string path =
            file.empty() ? pmem::default_pmem_dir() + "/undolog.heap" : file;
        bool created = s.region.map(path, size, kBaseAddr);

        s.log_capacity = log_bytes / sizeof(LogEntry);
        s.header = reinterpret_cast<UHeader*>(s.region.base());
        s.log = reinterpret_cast<LogEntry*>(s.region.base() + kHeaderReserved);
        s.heap = s.region.base() + reserved;
        s.heap_size = size - reserved;
        s.meta = reinterpret_cast<HeapMeta*>(s.heap);

        if (!created && s.header->magic.load() == kMagic &&
            s.header->heap_size == s.heap_size) {
            recover();
        } else {
            format();
        }
        s.alloc.attach(&s.meta->alloc_meta, pool_base(), pool_size());
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
        T v = *addr;  // undo log mutates in place: no load redirection
        ROMULUS_RACE_READ(addr, sizeof(T));
        return v;
    }

    static void store_range(void* dst, const void* src, size_t n) {
        if (in_heap(dst) && tl.tx_depth > 0) log_range(dst, n);
        std::memcpy(dst, src, n);
        ROMULUS_RACE_WRITE(dst, n);
        if (s.initialized && s.region.contains(dst)) {
            pmem::on_store(dst, n);
            pmem::pwb_range(dst, n);
        }
    }

    static void zero_range(void* dst, size_t n) {
        if (in_heap(dst) && tl.tx_depth > 0) log_range(dst, n);
        std::memset(dst, 0, n);
        ROMULUS_RACE_WRITE(dst, n);
        if (s.initialized && s.region.contains(dst)) {
            pmem::on_store(dst, n);
            pmem::pwb_range(dst, n);
        }
    }

    static void note_used(const void* end) {
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
        if (tl.tx_depth > 0) {
            f();
            return;
        }
        std::shared_lock lk(s.mutex);
        ROMULUS_RACE_ACQUIRE(&s.mutex, "undo.read_lock");
        ROMULUS_RACE_SCOPED_RELEASE(&s.mutex, "undo.read_unlock");
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
        assert(tl.tx_depth > 0);
        void* ptr = s.alloc.alloc(n);
        if (ptr == nullptr) throw std::bad_alloc();
        return ptr;
    }
    static void free_bytes(void* ptr) {
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

    /// Test hook: clear transaction thread-locals after a simulated crash.
    static void crash_reset_for_tests() { tl = TlState{}; }

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
        bool initialized = false;
    };
    static State s;

    struct TlState {
        int tx_depth = 0;
        uint64_t entries_this_tx = 0;
    };
    static thread_local TlState tl;

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
        pmem::notify_tx_begin();
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
        pmem::notify_tx_commit();
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
        pmem::notify_tx_abort();
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
