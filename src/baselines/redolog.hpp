// RedoLogPTM: a Mnemosyne-style persistent STM, used as the paper's
// "Mnemosyne" comparison point (DESIGN.md §1).
//
// Mnemosyne [31] couples a word-based software transactional memory
// (TinySTM) with a redo log persisted at commit time.  This reproduction
// implements the same architecture from scratch:
//
//   * TL2/TinySTM-style concurrency: a global version clock, a table of
//     versioned stripe locks, speculative reads validated against the
//     transaction's read version, commit-time lock acquisition, and
//     abort-and-retry on conflict.  This is what makes the shared-counter
//     hash map of Fig. 5 collapse: every insert/remove conflicts on the
//     element counter and aborts.
//   * Loads AND stores are interposed (Table 1): a transactional load first
//     searches the write set — the longer the transaction, the more
//     expensive every load becomes, which is the §2 criticism this baseline
//     exists to demonstrate.
//   * Durability: at commit the write set is written to a per-thread redo
//     log in persistent memory (pwb + fence), a commit marker is persisted
//     (second fence), the values are applied in place (pwb each) and the
//     marker is cleared — ~4 fences per transaction, growing under
//     contention, as the paper measured.
//
// Recovery replays any redo log whose commit marker is set: such a
// transaction was durably committed but may not have been fully applied.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "analysis/race_hooks.hpp"
#include "baselines/redo_clock.hpp"
#include "core/engine_globals.hpp"
#include "core/heap_root.hpp"
#include "core/persist.hpp"
#include "pmem/flush.hpp"
#include "pmem/region.hpp"
#include "sync/spinlock.hpp"
#include "sync/thread_registry.hpp"

namespace romulus::baselines {

/// Thrown on STM conflict; caught by the retry loop in updateTx/readTx.
struct TxAbort {};

class RedoLogPTM {
  public:
    template <typename T>
    using p = persist<T, RedoLogPTM>;
    using Alloc = PAllocator<RedoLogPTM>;

    static constexpr const char* name() { return "RedoLog(Mnemosyne-like)"; }

    // ---------------------------------------------------------------- setup

    static void init(size_t heap_bytes = 0, const std::string& file = {}) {
        if (s.initialized) throw std::runtime_error("RedoLogPTM: double init");
        std::string path =
            file.empty() ? pmem::default_pmem_dir() + "/redolog.heap" : file;
        const size_t size = heap_bytes_for(heap_bytes, path);
        // The fixed per-thread redo logs are large (kMaxThreads * ~64 KiB);
        // without this guard heap_size underflows on a small region and
        // format() scribbles past the mapping.
        const size_t reserved =
            kHeaderReserved + sizeof(ThreadLog) * size_t(sync::kMaxThreads);
        if (size < reserved + (size_t{1} << 20))
            throw std::invalid_argument(
                "RedoLogPTM: heap too small: thread logs + header need " +
                std::to_string(reserved) + " bytes plus >=1 MiB of heap");
        bool created = s.region.map(path, size, kBaseAddr);

        s.header = reinterpret_cast<RHeader*>(s.region.base());
        s.logs = reinterpret_cast<ThreadLog*>(s.region.base() + kHeaderReserved);
        s.heap = s.region.base() + kHeaderReserved +
                 sizeof(ThreadLog) * sync::kMaxThreads;
        s.heap_size = size - (s.heap - s.region.base());
        if (!s.locks) s.locks = std::make_unique<std::atomic<uint64_t>[]>(kNumStripes);
        for (size_t i = 0; i < kNumStripes; ++i)
            s.locks[i].store(0, std::memory_order_relaxed);
        g_redo_clock.store(1, std::memory_order_seq_cst);

        if (!created && s.header->magic.load() == kMagic &&
            s.header->heap_size == s.heap_size) {
            recover();
        } else {
            format();
        }
        s.meta = Root::attach(s.heap, s.heap_size, s.alloc);
        // Only *transactional* accesses are instrumented for this engine
        // (see the hooks in read_word/tx_commit): with per-stripe happens-
        // before edges, modelling the raw non-tx accesses would produce
        // false positives.  The registration still scopes the shadow cells.
        ROMULUS_RACE_REGISTER_REGION(s.heap, s.heap_size, "RedoLog", "heap",
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
        static_assert(sizeof(T) <= 8, "RedoLogPTM stores are word-based");
        if (!tl.active || !in_heap(addr)) {
            *addr = val;
            if (s.initialized && s.region.contains(addr)) {
                pmem::on_store(addr, sizeof(T));
                pmem::pwb_range(addr, sizeof(T));
            }
            return;
        }
        assert(!tl.read_only && "store inside a read-only transaction");
        const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
        const uintptr_t wa = a & ~uintptr_t{7};
        uint64_t word;
        if constexpr (sizeof(T) == 8) {
            if (wa == a) {
                std::memcpy(&word, &val, 8);
                tl.ws.insert(wa, word);
                return;
            }
        }
        // Sub-word (or unaligned) store: read-modify-write the word.  persist
        // fields are naturally aligned so the value never spans words; the
        // min() makes that bound provable to the compiler.
        word = read_word(wa);
        const size_t off = a - wa;
        std::memcpy(reinterpret_cast<uint8_t*>(&word) + off, &val,
                    std::min(sizeof(T), 8 - off));
        tl.ws.insert(wa, word);
    }

    template <typename T>
    static T pload(const T* addr) {
        static_assert(sizeof(T) <= 8, "RedoLogPTM loads are word-based");
        if (!tl.active || !in_heap(addr)) return *addr;
        const uintptr_t a = reinterpret_cast<uintptr_t>(addr);
        const uintptr_t wa = a & ~uintptr_t{7};
        const uint64_t word = read_word(wa);
        T out;
        std::memcpy(&out, reinterpret_cast<const uint8_t*>(&word) + (a - wa),
                    sizeof(T));
        return out;
    }

    static void store_range(void* dst, const void* src, size_t n) {
        if (!tl.active || !in_heap(dst)) {
            std::memcpy(dst, src, n);
            if (s.initialized && s.region.contains(dst)) {
                pmem::on_store(dst, n);
                pmem::pwb_range(dst, n);
            }
            return;
        }
        // Word-wise transactional copy (every word costs a write-set entry:
        // the 8-words-per-word log amplification of Table 1 in action).
        const auto* sp = static_cast<const uint8_t*>(src);
        auto* dp = static_cast<uint8_t*>(dst);
        size_t i = 0;
        while (i < n) {
            const uintptr_t a = reinterpret_cast<uintptr_t>(dp + i);
            const uintptr_t wa = a & ~uintptr_t{7};
            const size_t off = a - wa;
            const size_t take = std::min<size_t>(8 - off, n - i);
            uint64_t word = (off == 0 && take == 8) ? 0 : read_word(wa);
            std::memcpy(reinterpret_cast<uint8_t*>(&word) + off, sp + i, take);
            tl.ws.insert(wa, word);
            i += take;
        }
    }

    static void zero_range(void* dst, size_t n) {
        std::vector<uint8_t> zeros(n, 0);
        store_range(dst, zeros.data(), n);
    }

    /// Transactional range read, symmetric to store_range.  Redo buffering
    /// means the heap bytes of anything stored earlier in the SAME
    /// transaction are stale until commit applies the write set — so any
    /// byte-range consumer (KVStore key compare, value materialization)
    /// must read through here, not via raw memcpy, to see its own writes.
    static void load_range(void* dst, const void* src, size_t n) {
        if (!tl.active || !in_heap(src)) {
            std::memcpy(dst, src, n);
            return;
        }
        const auto* sp = static_cast<const uint8_t*>(src);
        auto* dp = static_cast<uint8_t*>(dst);
        size_t i = 0;
        while (i < n) {
            const uintptr_t a = reinterpret_cast<uintptr_t>(sp + i);
            const uintptr_t wa = a & ~uintptr_t{7};
            const size_t off = a - wa;
            const size_t take = std::min<size_t>(8 - off, n - i);
            const uint64_t word = read_word(wa);
            std::memcpy(dp + i, reinterpret_cast<const uint8_t*>(&word) + off,
                        take);
            i += take;
        }
    }

    static void note_used(const void* end) {
        uint64_t off = static_cast<const uint8_t*>(end) - s.heap;
        uint64_t cur = s.header->used_size.load(std::memory_order_relaxed);
        while (off > cur &&
               !s.header->used_size.compare_exchange_weak(cur, off)) {
        }
        pmem::pwb(&s.header->used_size);
    }

    // --------------------------------------------------------- transactions

    template <typename F>
    static void updateTx(F&& f) {
        if (tl.active || tl.seq_depth > 0) {
            f();
            return;
        }
        int retries = 0;
        while (true) {
            const bool fallback = retries >= kFallbackRetries;
            std::unique_lock<std::mutex> flk;
            if (fallback) flk = std::unique_lock(s.fallback_mutex);
            tx_begin(/*read_only=*/false);
            try {
                f();
                tx_commit();
                return;
            } catch (const TxAbort&) {
                tx_rollback();
                ++retries;
                backoff(retries);
            } catch (...) {
                // User exception or capacity error: nothing was applied
                // (redo buffering); roll back cleanly and propagate.
                tx_rollback();
                throw;
            }
        }
    }

    template <typename F>
    static void readTx(F&& f) {
        if (tl.active || tl.seq_depth > 0) {
            f();
            return;
        }
        int retries = 0;
        while (true) {
            tx_begin(/*read_only=*/true);
            try {
                f();
                tl.active = false;  // read-only: nothing to commit
                ROMULUS_RACE_TX_END();
                return;
            } catch (const TxAbort&) {
                tx_rollback();
                ++retries;
                backoff(retries);
            } catch (...) {
                tx_rollback();
                throw;
            }
        }
    }

    /// Single-threaded API parity: serialises writers through the fallback
    /// mutex so the transaction can never abort (no lambda to re-run).
    static void begin_transaction() {
        if (tl.seq_depth++ > 0) return;
        s.fallback_mutex.lock();
        tx_begin(false);
    }
    static void end_transaction() {
        assert(tl.seq_depth > 0);
        if (tl.seq_depth > 1) {
            --tl.seq_depth;
            return;
        }
        tx_commit();  // cannot conflict: single writer, readers lock-free
        s.fallback_mutex.unlock();
        tl.seq_depth = 0;
    }
    static void abort_transaction() {
        assert(tl.seq_depth > 0);
        tx_rollback();
        s.fallback_mutex.unlock();
        tl.seq_depth = 0;
    }
    static bool in_transaction() { return tl.active; }

    // ----------------------------------------------------------- allocation

    template <typename T, typename... Args>
    static T* tmNew(Args&&... args) {
        return tm_new<T, RedoLogPTM>(std::forward<Args>(args)...);
    }
    template <typename T>
    static void tmDelete(T* obj) {
        if (obj == nullptr) return;
        obj->~T();
        free_bytes(obj);
    }
    static void* alloc_bytes(size_t n) {
        assert(tl.active);
        void* ptr = s.alloc.alloc(n);
        if (ptr == nullptr) throw std::bad_alloc();
        return ptr;
    }
    static void free_bytes(void* ptr) {
        assert(tl.active);
        if (ptr != nullptr) s.alloc.free(ptr);
    }

    // ---------------------------------------------------------------- roots

    template <typename T>
    static T* get_object(int idx) {
        return static_cast<T*>(s.meta->roots[idx].pload());
    }
    static void put_object(int idx, void* ptr) {
        assert(tl.active);
        s.meta->roots[idx] = ptr;
    }

    // -------------------------------------------------------- introspection

    static uint64_t used_bytes() { return s.header->used_size.load(); }
    static Alloc& allocator() { return s.alloc; }
    static pmem::PmemRegion& region() { return s.region; }

    // Layout introspection, parallel to the Romulus engines (the persistency
    // checker builds its Layout from these): redo logging applies to one heap
    // in place, so "main" is the heap area and there is no twin copy.
    static uint8_t* main_base() { return s.heap; }
    static size_t main_size() { return s.heap_size; }
    static uint8_t* back_base() { return nullptr; }
    // Persistent per-thread redo-log area (romver attributes persist events
    // to header/log/heap areas through these).
    static uint8_t* log_base() { return reinterpret_cast<uint8_t*>(s.logs); }
    static size_t log_size() {
        return sizeof(ThreadLog) * size_t(sync::kMaxThreads);
    }

    /// Test hook: clear transaction thread-locals after a simulated crash
    /// (stripe locks and the fallback mutex are reconstructed by init()).
    static void crash_reset_for_tests() {
        if (tl.seq_depth > 0) s.fallback_mutex.unlock();
        tl.active = false;
        tl.read_only = false;
        tl.seq_depth = 0;
        tl.owned.clear();
        tl.rs.clear();
    }

    /// Replay any redo log whose commit marker survived a crash.
    static void recover() {
        for (int t = 0; t < sync::kMaxThreads; ++t) {
            ThreadLog& log = s.logs[t];
            const uint64_t marker = log.marker.load();
            if (marker == 0) continue;
            const uint64_t n = log.count.load();
            if (n > kLogCapacity)
                throw std::runtime_error("RedoLogPTM: bad log count");
            for (uint64_t i = 0; i < n; ++i) {
                auto* dst = reinterpret_cast<uint64_t*>(s.heap + log.entries[i].heap_off);
                *dst = log.entries[i].val;
                pmem::on_store(dst, 8);
                pmem::pwb(dst);
            }
            pmem::pfence();
            log.marker.store(0);
            pmem::on_store(&log.marker, 8);
            pmem::pwb(&log.marker);
            pmem::psync();
        }
    }

  private:
    static constexpr uintptr_t kBaseAddr = 0x550000000000ull;
    static constexpr size_t kHeaderReserved = 4096;
    static constexpr size_t kNumStripes = 1 << 20;
    // Entries per thread: 64 KiB of redo log each (Mnemosyne also uses
    // fixed-size persistent logs).  A transaction writing more words than
    // this is rejected — the paper notes the public Mnemosyne has exactly
    // this kind of capacity limitation (footnote 2).
    static constexpr uint64_t kLogCapacity = 4096;
    static constexpr int kFallbackRetries = 16;
    static constexpr uint64_t kMagic = 0x5245444F4C4F4731ull;  // "REDOLOG1"

    struct RedoEntry {
        uint64_t heap_off;
        uint64_t val;
    };

    /// Per-thread persistent redo log (16 B header + entries).
    struct alignas(64) ThreadLog {
        std::atomic<uint64_t> marker;  ///< commit version; 0 = inactive
        std::atomic<uint64_t> count;
        RedoEntry entries[kLogCapacity];
    };

    struct alignas(64) RHeader {
        std::atomic<uint64_t> magic;
        std::atomic<uint64_t> used_size;
        uint64_t heap_size;
    };

    using Root = HeapRoot<RedoLogPTM>;

    // --- write set: word address -> value, with insertion order ------------
    struct WriteSet {
        struct Slot {
            uintptr_t addr = 0;
            uint64_t val = 0;
            uint32_t epoch = 0;
        };
        std::vector<Slot> table = std::vector<Slot>(1 << 12);
        std::vector<uint32_t> order;
        uint32_t epoch = 0;

        void reset() {
            ++epoch;
            order.clear();
            if (epoch == 0) {  // epoch wrap: clear lazily-invalidated slots
                for (auto& s : table) s.epoch = 0;
                epoch = 1;
            }
        }
        bool lookup(uintptr_t a, uint64_t& v) const {
            size_t mask = table.size() - 1;
            size_t i = (a >> 3) * 0x9E3779B97F4A7C15ull & mask;
            while (table[i].epoch == epoch) {
                if (table[i].addr == a) {
                    v = table[i].val;
                    return true;
                }
                i = (i + 1) & mask;
            }
            return false;
        }
        void insert(uintptr_t a, uint64_t v) {
            if (order.size() * 2 > table.size()) grow();
            size_t mask = table.size() - 1;
            size_t i = (a >> 3) * 0x9E3779B97F4A7C15ull & mask;
            while (table[i].epoch == epoch) {
                if (table[i].addr == a) {
                    table[i].val = v;
                    return;
                }
                i = (i + 1) & mask;
            }
            table[i] = Slot{a, v, epoch};
            order.push_back(static_cast<uint32_t>(i));
        }
        void grow() {
            std::vector<Slot> old = std::move(table);
            std::vector<uint32_t> old_order = std::move(order);
            table.assign(old.size() * 2, Slot{});
            order.clear();
            for (uint32_t idx : old_order) insert(old[idx].addr, old[idx].val);
        }
        size_t size() const { return order.size(); }
    };

    struct TlState {
        bool active = false;
        bool read_only = false;
        int seq_depth = 0;
        uint64_t rv = 0;
        WriteSet ws;
        std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>> rs;
        std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>> owned;
    };
    static thread_local TlState tl;

    struct State {
        pmem::PmemRegion region;
        RHeader* header = nullptr;
        ThreadLog* logs = nullptr;
        uint8_t* heap = nullptr;
        size_t heap_size = 0;
        Root* meta = nullptr;
        Alloc alloc;
        std::unique_ptr<std::atomic<uint64_t>[]> locks;  // version<<1 | locked
        std::mutex fallback_mutex;
        bool initialized = false;
    };
    static State s;

    static bool in_heap(const void* ptr) {
        auto u = reinterpret_cast<uintptr_t>(ptr);
        auto b = reinterpret_cast<uintptr_t>(s.heap);
        return u >= b && u < b + s.heap_size;
    }

    static std::atomic<uint64_t>& lock_of(uintptr_t word_addr) {
        return s.locks[(word_addr >> 3) & (kNumStripes - 1)];
    }

    [[noreturn]] static void abort_tx() {
        pmem::tl_stats().tx_aborts++;
        throw TxAbort{};
    }

    /// TL2 speculative read of one word, validated against the read version.
    static uint64_t read_word(uintptr_t wa) {
        uint64_t v;
        if (tl.ws.lookup(wa, v)) return v;
        auto& lk = lock_of(wa);
        const uint64_t l1 = lk.load(std::memory_order_seq_cst);
        if (l1 & 1) abort_tx();
        v = *reinterpret_cast<const uint64_t*>(wa);
        const uint64_t l2 = lk.load(std::memory_order_seq_cst);
        if (l1 != l2 || (l1 >> 1) > tl.rv) abort_tx();
        tl.rs.emplace_back(&lk, l1);
        // Optimistic reads can't follow the acquire-after-observe contract
        // (nothing is held), so the detector re-validates the stripe version
        // inside its own mutex; a concurrent lock/version change means the
        // event order would be unsound — abort and retry instead.
        if (!ROMULUS_RACE_OPTIMISTIC_READ(&lk, reinterpret_cast<const void*>(wa),
                                          8, l1, &lk, "redo.validate"))
            abort_tx();
        return v;
    }

    static void tx_begin(bool read_only) {
        tl.active = true;
        tl.read_only = read_only;
        tl.rv = g_redo_clock.load(std::memory_order_seq_cst);
        tl.ws.reset();
        tl.rs.clear();
        tl.owned.clear();
        // Read-only transactions never reach the durability protocol, so the
        // lifecycle observers only hear about update transactions.
        if (!read_only) pmem::notify_tx_begin();
        ROMULUS_RACE_TX_BEGIN(read_only ? "read-tx" : "update-tx");
    }

    static void tx_rollback() {
        release_owned();
        tl.active = false;
        if (!tl.read_only) pmem::notify_tx_abort();
        ROMULUS_RACE_TX_END();
    }

    static void backoff(int retries) {
        if (retries < 4) {
            for (int i = 0; i < (1 << retries); ++i) sync::cpu_relax();
        } else {
            std::this_thread::yield();
        }
    }

    static void release_owned() {
        for (auto& [lk, orig] : tl.owned)
            lk->store(orig, std::memory_order_seq_cst);
        tl.owned.clear();
    }

    static void tx_commit() {
        if (tl.ws.size() == 0) {  // read-only or empty
            tl.active = false;
            pmem::notify_tx_commit();
            ROMULUS_RACE_TX_END();
            return;
        }
        // 1. Acquire every stripe lock covering the write set.
        for (uint32_t idx : tl.ws.order) {
            auto& lk = lock_of(tl.ws.table[idx].addr);
            uint64_t cur = lk.load(std::memory_order_seq_cst);
            if (cur & 1) {
                if (owned_by_me(&lk)) continue;
                release_owned();
                abort_tx();
            }
            if (!lk.compare_exchange_strong(cur, cur | 1,
                                            std::memory_order_seq_cst)) {
                release_owned();
                abort_tx();
            }
            tl.owned.emplace_back(&lk, cur);
            ROMULUS_RACE_ACQUIRE(&lk, "redo.stripe_lock");
        }
        // 2. New commit version.
        const uint64_t wv =
            g_redo_clock.fetch_add(1, std::memory_order_seq_cst) + 1;
        // 3. Validate the read set.
        for (auto& [lk, l1] : tl.rs) {
            const uint64_t cur = lk->load(std::memory_order_seq_cst);
            if (cur != l1 && !(owned_by_me(lk) && (cur & ~1ull) == (l1 & ~1ull))) {
                release_owned();
                abort_tx();
            }
        }
        // 4. Persist the redo log (first fence), then the marker (second).
        ThreadLog& log = s.logs[sync::tid()];
        const size_t n = tl.ws.size();
        if (n > kLogCapacity) {
            release_owned();
            throw std::runtime_error("RedoLogPTM: transaction too large");
        }
        for (size_t i = 0; i < n; ++i) {
            const auto& slot = tl.ws.table[tl.ws.order[i]];
            log.entries[i].heap_off = slot.addr - reinterpret_cast<uintptr_t>(s.heap);
            log.entries[i].val = slot.val;
            pmem::on_store(&log.entries[i], sizeof(RedoEntry));
            pmem::notify_range_logged(reinterpret_cast<void*>(slot.addr), 8);
        }
        log.count.store(n, std::memory_order_relaxed);
        pmem::on_store(&log.count, 8);
        // count shares its line with entries[0..2]: one ranged write-back.
        pmem::pwb_range(&log.count, sizeof(log.count) + n * sizeof(RedoEntry));
        pmem::pfence();
        log.marker.store(wv, std::memory_order_relaxed);
        pmem::on_store(&log.marker, 8);
        pmem::pwb(&log.marker);
        pmem::pfence();  // commit point: durable from here
        // 5. Apply in place.  The write events fire here — this is where the
        // buffered stores actually touch the heap, under the stripe locks.
        for (size_t i = 0; i < n; ++i) {
            const auto& slot = tl.ws.table[tl.ws.order[i]];
            *reinterpret_cast<uint64_t*>(slot.addr) = slot.val;
            ROMULUS_RACE_WRITE(reinterpret_cast<void*>(slot.addr), 8);
            pmem::on_store(reinterpret_cast<void*>(slot.addr), 8);
            pmem::pwb(reinterpret_cast<void*>(slot.addr));
        }
        pmem::psync();
        log.marker.store(0, std::memory_order_relaxed);
        pmem::on_store(&log.marker, 8);
        pmem::pwb(&log.marker);
        pmem::pfence();
        // 6. Release locks with the new version.
        for (auto& [lk, orig] : tl.owned) {
            (void)orig;
            ROMULUS_RACE_RELEASE(lk, "redo.stripe_lock");
            lk->store(wv << 1, std::memory_order_seq_cst);
        }
        tl.owned.clear();
        tl.active = false;
        pmem::notify_tx_commit();
        ROMULUS_RACE_TX_END();
    }

    static bool owned_by_me(std::atomic<uint64_t>* lk) {
        for (auto& [olk, orig] : tl.owned) {
            (void)orig;
            if (olk == lk) return true;
        }
        return false;
    }

    static void format() {
        s.header->magic.store(0);
        pmem::pwb(&s.header->magic);
        pmem::pfence();

        s.header->heap_size = s.heap_size;
        s.header->used_size.store(Root::bytes());
        pmem::on_store(s.header, sizeof(RHeader));
        pmem::pwb_range(s.header, sizeof(RHeader));

        for (int t = 0; t < sync::kMaxThreads; ++t) {
            s.logs[t].marker.store(0);
            s.logs[t].count.store(0);
            pmem::pwb_range(&s.logs[t], 64);
        }
        pmem::pfence();

        Root::format(s.heap, s.heap_size, s.alloc);
        pmem::pfence();

        s.header->magic.store(kMagic);
        pmem::on_store(&s.header->magic, 8);
        pmem::pwb(&s.header->magic);
        pmem::psync();
    }
};

}  // namespace romulus::baselines
