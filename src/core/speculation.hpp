// The stripe-locked speculative update fast path of RomulusNL and RomulusLog
// (DESIGN.md §4.11).  RomulusLR keeps its Left-Right path.
//
// updateTx first runs its closure as a speculation under a *shared* hold of
// the shard's C-RW-WP lock, which excludes slow-path combiners (they mutate
// main unstriped under the exclusive hold) without ever blocking.  The engine
// hands every interposed access to the thread's SpecBuffer: stores into the
// shard's main are buffered in a write set of whole captured lines, and loads
// from it are validated against their line's stripe (locked, or a version
// newer than the start-time clock snapshot, dooms the run).  To commit,
// FastPath try-locks the write set's stripes in canonical order, validates
// the captured lines and the read set, advances the shard's clock and
// announces the write set; whichever announcer wins the shard's gate makes
// every announced set durable in one MUT/CPY/IDL window built from the
// engine's own Algorithm 1 steps, so recovery rolls a torn batch back or
// forward whole, like any slow-path commit.
//
// A *doomed* speculation (a conflict, a write set past kWriteCap lines, a
// read set past kReadCap stripes, an allocation, a free, or an access
// elsewhere in the mapped region) will not commit, and the closure re-runs on
// the slow path.  A doom never throws by itself: data-structure destructors
// are implicitly noexcept and call tmDelete and pstore inside updateTx.  So
// the run goes on sandboxed: loads are word-atomic, stores stay buffered in
// captured lines, frees are ignored, and its first allocation of at most
// kSandboxBytes gets the buffer's sandbox.  SpecAbort ends a doomed run early
// at any other allocation, and at any load after the run *dropped* a store (a
// line past kLineCap, one store spanning more lines, or a store elsewhere in
// the region), except while the thread unwinds or runs tmDelete's destructor
// call.  All of this state is volatile and dies with a crash.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>

#include "analysis/race_hooks.hpp"
#include "pmem/flush.hpp"
#include "pmem/stats.hpp"
#include "sync/crwwp.hpp"
#include "sync/flat_combining.hpp"
#include "sync/spinlock.hpp"
#include "sync/stripe_lock.hpp"
#include "sync/thread_registry.hpp"

namespace romulus {

/// Ends a doomed speculation at once.  FastPath::run catches it and the
/// closure re-runs on the slow path; it never escapes to the user.
struct SpecAbort {};

/// One thread's speculation on one shard: a redo-style write set of whole
/// captured cache lines and a read set of stripe observations.
class SpecBuffer {
  public:
    using Stripes = sync::StripeLockTable;
    /// Capture bound: a doomed run drops a store to any further line.
    static constexpr unsigned kLineCap = 64;
    /// Write-set bound in lines; capturing one more dooms the speculation.
    static constexpr unsigned kWriteCap = 8;
    /// Read-set bound in stripe observations; past it the run is doomed.
    static constexpr unsigned kReadCap = 64;
    /// Volatile memory for the speculation's first allocation.
    static constexpr size_t kSandboxBytes = 256;
    static constexpr size_t kLineSize = 64;

    struct WLine {
        uint64_t line_off;  ///< line-aligned byte offset into main
        unsigned stripe;
        uint64_t version;  ///< stripe version when the line was captured
        alignas(8) uint8_t data[kLineSize];
    };

    unsigned nw = 0;       ///< captured lines
    bool aborted = false;  ///< doomed: will not commit
    bool dropped = false;  ///< doomed and discarded a store
    WLine wlines[kLineCap] = {};

    /// Open a speculation on the shard whose main half is
    /// [main, main + main_size) and whose lines `stripes` guards, inside the
    /// mapped region [region, region + region_size).
    void begin(Stripes& stripes, uint8_t* main, size_t main_size,
               const uint8_t* region, size_t region_size) {
        stripes_ = &stripes;
        main_ = main;
        main_size_ = main_size;
        region_ = region;
        region_size_ = region_size;
        rv_ = stripes.clock_now();
        if (++gen_ == 0) {  // wrapped: no stamp may survive from 2^32 ago
            std::fill_n(read_gen_, Stripes::kStripes, 0u);
            gen_ = 1;
        }
        nw = nr_ = nlocked_ = 0;
        aborted = dropped = sandbox_used_ = false;
        dtor_depth_ = 0;
        uncaught_ = std::uncaught_exceptions();
    }

    /// Interposed store: buffered into this shard's main, dropped elsewhere
    /// in the region (the stripes cannot guard it; the slow-path re-run
    /// performs it), plain anywhere else (volatile test objects).
    void store(void* addr, const void* src, size_t n) {
        auto* a = static_cast<uint8_t*>(addr);
        if (within(a, main_, main_size_)) {
            store_main(uint64_t(a - main_), src, n);
        } else if (within(a, region_, region_size_)) {
            drop();
        } else {
            std::memcpy(addr, src, n);
            ROMULUS_RACE_WRITE(addr, n);
        }
    }

    void zero(void* dst, size_t n) {
        static constexpr uint8_t kZeros[kLineSize] = {};
        for (auto* p = static_cast<uint8_t*>(dst); n > 0;) {
            const size_t take = std::min(n, kLineSize);
            store(p, kZeros, take);
            p += take;
            n -= take;
        }
    }

    /// Interposed load: validated from this shard's main (buffered lines
    /// read from the write set), doomed and word-atomic elsewhere in the
    /// region (another shard's applier may be mid-commit), plain anywhere
    /// else.  A run that has dropped a store ends here.
    void load(void* dst, const void* src, size_t n) {
        if (load_ends_run()) throw SpecAbort{};
        const auto* a = static_cast<const uint8_t*>(src);
        if (within(a, main_, main_size_)) {
            load_main(uint64_t(a - main_), dst, n);
        } else if (within(a, region_, region_size_)) {
            doom();
            word_atomic_copy(dst, src, n);
        } else {
            std::memcpy(dst, src, n);
        }
    }
    template <typename T>
    T load(const T* addr) {
        T v;
        load(&v, addr, sizeof(T));
        return v;
    }

    /// Interposed allocation: allocator metadata is not stripe-guarded, so
    /// it dooms the run.  A small first allocation gets the sandbox, so a
    /// one-insert closure finishes its short doomed tail (cheaper than
    /// unwinding it); any other ends the run, from a point where callers
    /// already cope with std::bad_alloc.
    void* alloc(size_t n) {
        doom();
        if (void* p = sandbox_alloc(n)) return p;
        throw SpecAbort{};
    }

    /// The sandbox for an allocation of n bytes, or nullptr when it is
    /// taken or too small.
    void* sandbox_alloc(size_t n) {
        if (sandbox_used_ || n > kSandboxBytes) return nullptr;
        sandbox_used_ = true;
        return sandbox_;
    }

    /// Run a destructor that tmDelete calls: it is implicitly noexcept, so
    /// its loads read on instead of ending the run.
    template <typename T>
    void destroy(T* obj) {
        ++dtor_depth_;
        obj->~T();
        --dtor_depth_;
    }

    /// Doom the speculation: it keeps executing but will not commit.
    void doom() { aborted = true; }

    /// Whether the next load must end the run with SpecAbort: it dropped a
    /// store, and the thread is neither unwinding nor inside a destructor
    /// call of tmDelete.
    bool load_ends_run() const {
        return dropped && dtor_depth_ == 0 &&
               std::uncaught_exceptions() <= uncaught_;
    }

    /// Read-set validation: every observed stripe holds its recorded word,
    /// or that word's locked image where this buffer holds the stripe (a
    /// read line it also wrote).
    bool reads_valid() const {
        for (unsigned i = 0; i < nr_; ++i) {
            const Observed& o = rset_[i];
            const Stripes::Word cur = stripes_->read(o.stripe);
            if (cur != o.word &&
                !(cur == (o.word | Stripes::kLockedBit) && holds(o.stripe)))
                return false;
        }
        return true;
    }

    /// Commit-time acquisition of an undoomed write set: try-lock its
    /// stripes in canonical (sorted, deduplicated) order, then validate the
    /// captured line versions and the read set.  On a conflict everything
    /// acquired is released untouched and false is returned.  Also sorts
    /// the write set by line offset so the apply coalesces adjacent lines.
    bool lock_write_set() {
        assert(!aborted && nw <= kWriteCap);
        nlocked_ = 0;
        for (unsigned i = 0; i < nw; ++i)
            if (!holds(wlines[i].stripe))
                locked_[nlocked_++] = wlines[i].stripe;
        std::sort(locked_, locked_ + nlocked_);
        unsigned got = 0;
        while (got < nlocked_ && stripes_->try_acquire(locked_[got], pre_[got]))
            ++got;
        bool ok = got == nlocked_;
        // The buffered before-image of each line's unwritten bytes must
        // still be current.
        for (unsigned i = 0; i < nw && ok; ++i) {
            const auto j = std::find(locked_, locked_ + nlocked_,
                                     wlines[i].stripe) - locked_;
            ok = Stripes::version_of(pre_[j]) == wlines[i].version;
        }
        if (ok && reads_valid()) {
            std::sort(wlines, wlines + nw, [](const WLine& a, const WLine& b) {
                return a.line_off < b.line_off;
            });
            return true;
        }
        for (unsigned j = 0; j < got; ++j)
            stripes_->release_aborted(locked_[j], pre_[j]);
        nlocked_ = 0;
        return false;
    }

    /// Release the locked stripes at the commit's clock value `wv`.
    void unlock_write_set(uint64_t wv) {
        for (unsigned j = 0; j < nlocked_; ++j)
            stripes_->release(locked_[j], wv);
    }

  private:
    struct Observed {
        unsigned stripe;
        uint64_t word;
    };

    static bool within(const void* p, const uint8_t* base, size_t n) {
        const auto u = reinterpret_cast<uintptr_t>(p);
        return u - reinterpret_cast<uintptr_t>(base) < n;
    }

    bool holds(unsigned stripe) const {
        return std::find(locked_, locked_ + nlocked_, stripe) !=
               locked_ + nlocked_;
    }

    /// Doom the speculation because it discards a store: its next load ends
    /// the run.
    void drop() { aborted = dropped = true; }

    WLine* find(uint64_t line_off) {
        for (unsigned i = 0; i < nw; ++i)
            if (wlines[i].line_off == line_off) return &wlines[i];
        return nullptr;
    }

    /// Buffered store to [main+off, main+off+n): every touched line is
    /// captured once, then overwritten in the buffer only.  A store spanning
    /// more lines than kLineCap can never commit, so it is dropped whole
    /// before any line is captured; one reaching a line past kLineCap drops
    /// its rest.
    void store_main(uint64_t off, const void* src, size_t n) {
        if (n > 0 && (off + n - 1) / kLineSize - off / kLineSize >= kLineCap) {
            drop();
            return;
        }
        const auto* from = static_cast<const uint8_t*>(src);
        while (n > 0) {
            const uint64_t line = off & ~uint64_t{kLineSize - 1};
            const size_t take = std::min<size_t>(n, line + kLineSize - off);
            WLine* wl = find(line);
            if (wl == nullptr) {
                if (nw == kLineCap) {
                    drop();
                    return;
                }
                wl = &capture(line);
            }
            std::memcpy(wl->data + (off - line), from, take);
            off += take;
            from += take;
            n -= take;
        }
    }

    /// Capture a main line into the write set, which has room for it: a
    /// validated snapshot of its current content (the unwritten bytes must
    /// be current at apply time, which lock_write_set re-checks).  On a
    /// conflict or past kWriteCap the speculation is doomed and the line is
    /// captured best-effort (word-atomic, unversioned), so buffered
    /// read-your-writes keeps holding.
    WLine& capture(uint64_t line_off) {
        WLine& wl = wlines[nw];
        Observed obs;
        if (!aborted && nw < kWriteCap &&
            validated_copy(line_off, wl.data, kLineSize, obs)) {
            wl.stripe = obs.stripe;
            wl.version = Stripes::version_of(obs.word);
        } else {
            doom();
            word_atomic_copy(wl.data, main_ + line_off, kLineSize);
            wl.stripe = 0;
            wl.version = 0;  // never read: a doomed buffer is not committed
        }
        wl.line_off = line_off;
        ++nw;
        return wl;
    }

    /// Validated load from [main+off, main+off+n): buffered lines read from
    /// the write set, every other line is a validated copy whose stripe
    /// observation joins the read set.  A failed validation or read-set
    /// overflow dooms the speculation and degrades this and every later
    /// unbuffered load to a word-atomic raw read.
    void load_main(uint64_t off, void* dst, size_t n) {
        auto* out = static_cast<uint8_t*>(dst);
        while (n > 0) {
            const uint64_t line = off & ~uint64_t{kLineSize - 1};
            const size_t take = std::min<size_t>(n, line + kLineSize - off);
            Observed obs;
            if (const WLine* wl = find(line)) {
                std::memcpy(out, wl->data + (off - line), take);
            } else if (aborted || !validated_copy(off, out, take, obs) ||
                       !record_read(obs)) {
                doom();
                word_atomic_copy(out, main_ + off, take);
            }
            out += take;
            off += take;
            n -= take;
        }
    }

    /// Copy [main+off, main+off+n), which lies inside one line: true when
    /// the line's stripe was unlocked at a version <= rv before the copy and
    /// unchanged after it (the re-read rejects bytes torn by a concurrent
    /// applier; the version check rejects bytes newer than the start-time
    /// snapshot).  `obs` receives the stripe and the word the copy is valid
    /// at.
    bool validated_copy(uint64_t off, void* dst, size_t n,
                        Observed& obs) const {
        obs.stripe = Stripes::stripe_of_line(off / kLineSize);
        obs.word = stripes_->read(obs.stripe);
        if (Stripes::is_locked(obs.word) || Stripes::version_of(obs.word) > rv_)
            return false;
        std::memcpy(dst, main_ + off, n);
        return stripes_->read(obs.stripe) == obs.word &&
               ROMULUS_RACE_OPTIMISTIC_READ(stripes_->word(obs.stripe),
                                            main_ + off, n, obs.word,
                                            stripes_->word(obs.stripe),
                                            "stripe.validate");
    }

    /// Dedup by stripe, in O(1): a stripe is in the read set when its
    /// stamp is this speculation's generation.  A recorded version <= rv
    /// can only change via a commit that publishes a version > rv, which
    /// the per-load validation rejects, so a re-observed stripe always
    /// matches.
    bool record_read(const Observed& obs) {
        if (read_gen_[obs.stripe] == gen_) return true;
        if (nr_ == kReadCap) return false;
        read_gen_[obs.stripe] = gen_;
        rset_[nr_++] = obs;
        return true;
    }

    /// Copy with single-instruction loads for every aligned 8-byte word: a
    /// doomed run reads live memory without validation, so a word (a
    /// pointer above all) must never tear even though the snapshot as a
    /// whole is no longer consistent.
    static void word_atomic_copy(void* dst, const void* src, size_t n) {
        auto* d = static_cast<uint8_t*>(dst);
        const auto* s = static_cast<const uint8_t*>(src);
        for (; n > 0 && (reinterpret_cast<uintptr_t>(s) & 7) != 0; --n)
            *d++ = *s++;
        for (; n >= 8; n -= 8, d += 8, s += 8) {
            const uint64_t w = *reinterpret_cast<const volatile uint64_t*>(s);
            std::memcpy(d, &w, 8);
        }
        for (; n > 0; --n) *d++ = *s++;
    }

    Stripes* stripes_ = nullptr;
    uint8_t* main_ = nullptr;
    size_t main_size_ = 0;
    const uint8_t* region_ = nullptr;
    size_t region_size_ = 0;
    uint64_t rv_ = 0;  ///< fast-path clock snapshot at begin
    unsigned nr_ = 0;
    unsigned nlocked_ = 0;
    unsigned dtor_depth_ = 0;  ///< nesting of tmDelete destructor calls
    int uncaught_ = 0;         ///< std::uncaught_exceptions() at begin
    bool sandbox_used_ = false;
    Observed rset_[kReadCap] = {};
    uint32_t gen_ = 0;  ///< this speculation's generation (begin bumps it)
    /// Per stripe, the generation whose read set holds it.
    uint32_t read_gen_[Stripes::kStripes] = {};
    unsigned locked_[kWriteCap] = {};  ///< stripes held from lock to unlock
    Stripes::Word pre_[kWriteCap] = {};  ///< their pre-acquire words
    alignas(kLineSize) uint8_t sandbox_[kSandboxBytes] = {};
};

/// A shard's fast-path kit, volatile like the rest of its sync kit.
struct SpecShard {
    sync::StripeLockTable stripes;  ///< line versions + the fast-path clock
    sync::CRWWPLock gate;  ///< group appliers (writers) vs pessimistic readers
    /// Locked, validated write sets awaiting the group apply.
    sync::FlatCombiningArray<SpecBuffer> slots;
};

/// The attempt (run), commit and group apply over an engine's shards.  The
/// engine befriends it; it calls the engine's Algorithm 1 steps directly.
template <typename Engine>
class FastPath {
    using Shard = typename Engine::Shard;

  public:
    /// One speculation state per thread per engine type.
    static SpecBuffer& buffer() {
        static thread_local SpecBuffer b;
        return b;
    }

    /// Try f as a speculation on the shard: true when it committed, false
    /// when it must re-run on the slow path.  A user exception thrown off a
    /// consistent snapshot propagates; nothing was applied.
    template <typename F>
    static bool run(unsigned shard_id, F& f) {
        Shard& sh = Engine::shard(shard_id);
        auto& tl = Engine::tl;
        const int t = sync::tid();
        bool committed = false;
        std::exception_ptr raised;
        if (sh.rwlock.try_read_lock(t)) {  // else a slow-path writer is active
            SpecBuffer& b = buffer();
            b.begin(sh.spec.stripes, sh.main, Engine::s.main_size,
                    Engine::s.region.base(), Engine::s.region.size());
            tl.shard = shard_id;
            tl.tx_depth = 1;  // nested updateTx/readTx/put_object hold
            tl.fp_active = true;
            ROMULUS_RACE_TX_BEGIN("update-tx(fp)");
            try {
                f();
            } catch (...) {
                // A user exception, or the SpecAbort that ends a doomed run.
                // Surface it only off an undoomed, still-valid read set: a
                // doomed run's exception may be an artefact of its
                // inconsistent view, and the slow-path re-run raises a real
                // one again.
                if (!b.aborted && b.reads_valid())
                    raised = std::current_exception();
                b.doom();
            }
            tl.fp_active = false;  // the commit uses explicit primitives
            committed = !b.aborted && commit(sh, b);
            tl.tx_depth = 0;
            ROMULUS_RACE_TX_END();
            sh.rwlock.read_unlock(t);
            auto& cs = pmem::tl_commit_stats();
            (committed ? cs.fastpath_commits : cs.fastpath_aborts)++;
        }
        if (raised) {
            // An aborted transaction to the caller and the persistency
            // checker: nothing was applied, but the lifecycle stays visible.
            pmem::notify_tx_begin();
            pmem::notify_tx_abort();
            std::rethrow_exception(raised);
        }
        if (!committed) pmem::tl_commit_stats().fastpath_fallbacks++;
        return committed;
    }

  private:
    static bool commit(Shard& sh, SpecBuffer& b) {
        // A read-only (or no-op) closure validated every load at a version
        // <= rv, so its reads already form a consistent snapshot of the
        // start-time state, and there is nothing to persist.
        if (b.nw == 0) return true;
        if (!b.lock_write_set()) return false;
        const uint64_t wv = sh.spec.stripes.clock_advance();
        // Announce the write set, then until an applier has made it durable
        // try to become that applier: a lone committer is a batch of one.
        const int t = sync::tid();
        sh.spec.slots.announce(t, &b);
        unsigned spins = 0;
        while (!sh.spec.slots.is_done(t)) {
            if (sh.spec.gate.try_write_lock()) {
                apply_batch(sh);
                sh.spec.gate.write_unlock();
            } else {
                sync::spin_wait(spins);
            }
        }
        b.unlock_write_set(wv);
        return true;
    }

    /// Group apply: make every write set announced on the shard durable in
    /// one twin-state transaction, then release their announcers.  The
    /// caller holds the gate, which serializes appliers and excludes
    /// pessimistic readers; every announcer's shared rwlock hold excludes
    /// slow-path writers.  So the shard's seqlock and twin-state machine keep
    /// their single-writer contract, which is why recovery needs no new
    /// case.  The write sets are line-disjoint (each announcer holds its
    /// lines' stripes) and sorted by offset (lock_write_set).
    static void apply_batch(Shard& sh) {
        int slots[sync::kMaxThreads];
        const SpecBuffer* sets[sync::kMaxThreads];
        int n = 0;
        sh.spec.slots.for_each_announced([&](int slot, SpecBuffer* b) {
            slots[n] = slot;
            sets[n++] = b;
        });
        if (n == 0) return;  // ours went out with the previous applier's batch
        // Every line goes to main and then to back straight from its
        // buffered image (pmem::persist_lines: NT stores under a profile
        // whose pwb evicts the line, else a cached store + pwb), each phase
        // drained before its state store.
        Engine::enter_mut(sh);
        for (int k = 0; k < n; ++k) {
            for (unsigned i = 0; i < sets[k]->nw; ++i) {
                const auto& wl = sets[k]->wlines[i];
                uint8_t* dst = sh.main + wl.line_off;
                // The write set is the transaction's log: each line is
                // written back and replicated below (checker require_log).
                pmem::notify_range_logged(dst, pmem::kCacheLineSize);
                pmem::persist_lines(dst, wl.data, pmem::kCacheLineSize);
                ROMULUS_RACE_WRITE(dst, pmem::kCacheLineSize);
            }
        }
        Engine::commit_cpy(sh, [&] {
            Engine::drain_line_images();
            // An NT store leaves no cached copy, so the next get of a hot
            // record, or the capture of its next update, would miss to
            // memory: fetch the new lines back without waiting for them.
            for (int k = 0; k < n; ++k)
                for (unsigned i = 0; i < sets[k]->nw; ++i)
                    __builtin_prefetch(sh.main + sets[k]->wlines[i].line_off);
        });
        for (int k = 0; k < n; ++k)
            for (unsigned i = 0; i < sets[k]->nw; ++i)
                pmem::persist_lines(sh.back + sets[k]->wlines[i].line_off,
                                    sets[k]->wlines[i].data,
                                    pmem::kCacheLineSize);
        Engine::drain_line_images();
        Engine::finish_idl(sh);
        pmem::notify_tx_commit();
        for (int k = 0; k < n; ++k) sh.spec.slots.mark_done(slots[k]);
        auto& cs = pmem::tl_commit_stats();
        cs.fastpath_batches++;
        cs.fastpath_batched += uint64_t(n);
    }
};

}  // namespace romulus
