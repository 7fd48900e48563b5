// Seqlock-validated optimistic read path (DESIGN.md §4.9, ISSUE 8).
//
// Coverage layers:
//   1. Zero-cost property: an optimistic read commits with zero pwbs, zero
//      persistence fences (engine counters AND the SimPersistence fence
//      counter) and no lock traffic observable through the read stats.
//   2. Protocol mechanics, made deterministic through the engines'
//      seq_for_tests() hook: an odd window is waited out without spending
//      an attempt; a mid-closure invalidation retries, and max_attempts of
//      them send the reader to the pessimistic lock; a torn pointer is
//      rejected by per-load validation *before* anything dereferences it;
//      the writer's window opens only after the MUT state is persistent.
//   3. Concurrency: reader/writer churn must never surface a torn snapshot,
//      and the every-fence crash sweep re-runs the commit-path crash
//      discipline with a concurrent optimistic reader attached.
//   4. The sequence word survives the 64-bit wrap (equality validation).
//   5. Under -DROMULUS_RACECHECK, the churn workload runs with the romrace
//      detector armed and must stay silent (the seqlock.validate /
//      seqlock.write_enter / seqlock.write_exit annotations model a sound
//      happens-before edge).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/race_detector.hpp"
#include "analysis/tx_trace.hpp"
#include "fence_sweep.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "sync/seqlock.hpp"
#include "test_support.hpp"

using namespace romulus;
using romulus::test::ReadConfigGuard;

namespace {

// The engines with a seqlock fast path: the C-RW-WP Romulus variants.
// RomulusLR readers are already wait-free through Left-Right and bypass the
// seqlock entirely; the baselines keep the paper's comparators' read paths
// (a shared mutex for undo, TL2 validation for redo).
using SeqlockPtms = ::testing::Types<RomulusNL, RomulusLog>;

template <typename E>
class OptimisticRead : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        reset_tl_read_stats();
    }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(OptimisticRead, SeqlockPtms);

// Two counter cells the update transactions keep equal; the canonical
// torn-snapshot witness for the readers.
template <typename E>
struct TwoCells {
    using PU = typename E::template p<uint64_t>;
    PU* c1 = nullptr;
    PU* c2 = nullptr;

    void create(uint64_t v) {
        E::updateTx([&] {
            c1 = E::template tmNew<PU>();
            *c1 = v;
            E::put_object(0, c1);
            c2 = E::template tmNew<PU>();
            *c2 = v;
            E::put_object(1, c2);
        });
    }

    void set(uint64_t v) {
        E::updateTx([&] {
            *c1 = v;
            *c2 = v;
        });
    }
};

// ---------------------------------------------------- zero-cost fast path

TYPED_TEST(OptimisticRead, CommitsWithZeroFencesAndZeroPwbs) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_zero");
    TwoCells<E> cells;
    cells.create(7);

    // The SimPersistence fence counter is the acceptance-criterion witness:
    // it counts pfence+psync from *any* thread, independent of tl_stats.
    pmem::SimPersistence sim(E::region().base(), E::region().size(),
                             {pmem::FlushContent::AtPwb, 0.0, 1});
    pmem::set_sim_hooks(&sim);
    const pmem::Stats before = pmem::tl_stats();
    const uint64_t fences_before = sim.fence_count();
    reset_tl_read_stats();

    constexpr int kReads = 100;
    for (int i = 0; i < kReads; ++i) {
        uint64_t a = 0, b = 0;
        E::readTx([&] {
            a = cells.c1->pload();
            b = cells.c2->pload();
        });
        ASSERT_EQ(a, 7u);
        ASSERT_EQ(b, 7u);
    }
    pmem::set_sim_hooks(nullptr);

    const pmem::Stats d = pmem::tl_stats() - before;
    EXPECT_EQ(d.pwb, 0u);
    EXPECT_EQ(d.pfence, 0u);
    EXPECT_EQ(d.psync, 0u);
    EXPECT_EQ(sim.fence_count(), fences_before);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_commits, uint64_t(kReads));
    EXPECT_EQ(rs.opt_waits, 0u);
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

TYPED_TEST(OptimisticRead, ForcePessimisticKnobDisablesTheFastPath) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_knob");
    TwoCells<E> cells;
    cells.create(11);

    ReadConfigGuard guard;
    read_config().optimistic = false;
    reset_tl_read_stats();
    uint64_t a = 0;
    E::readTx([&] { a = cells.c1->pload(); });
    EXPECT_EQ(a, 11u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);  // never attempted, so never "fell back"
}

// ------------------------------------------------- deterministic protocol

/// Closes a planted writer window from a helper thread: once `go` is set,
/// sleep about 1 ms (the reader must be parked on the odd word by then),
/// run `repair` and close the window.  Models a writer finishing its
/// in-place mutation while the reader waits.
template <typename E>
struct WindowCloser {
    std::atomic<bool> go{false};
    std::thread th;

    template <typename Repair>
    explicit WindowCloser(Repair repair)
        : th([this, repair] {
              while (!go.load(std::memory_order_acquire))
                  std::this_thread::yield();
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              repair();
              E::seq_for_tests().write_exit();
          }) {}
    ~WindowCloser() {
        go.store(true, std::memory_order_release);  // never strand the thread
        th.join();
    }
};

TYPED_TEST(OptimisticRead, OddWindowIsWaitedOutWithoutFallingBack) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_odd");
    TwoCells<E> cells;
    cells.create(42);

    ReadConfigGuard guard;
    read_config().max_attempts = 1;  // a wait must not spend the only attempt
    // A writer parked inside its window; a helper thread closes it.
    E::seq_for_tests().write_enter();
    WindowCloser<E> closer([] {});
    reset_tl_read_stats();
    uint64_t got = 0;
    closer.go.store(true, std::memory_order_release);
    E::readTx([&] {
        got = 0;  // restartable
        got = cells.c1->pload();
    });

    EXPECT_EQ(got, 42u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_waits, 1u);
    EXPECT_EQ(rs.opt_commits, 1u);
    EXPECT_EQ(rs.opt_aborts, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

TYPED_TEST(OptimisticRead, MidClosureInvalidationRetriesAndCommits) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_retry");
    TwoCells<E> cells;
    cells.create(5);

    reset_tl_read_stats();
    bool first = true;
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        if (first) {
            // A full writer window opens and closes between this attempt's
            // snapshot and its first validated load.
            first = false;
            E::seq_for_tests().write_enter();
            E::seq_for_tests().write_exit();
        }
        got = cells.c1->pload();
    });

    EXPECT_EQ(got, 5u);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_aborts, 1u);
    EXPECT_EQ(rs.opt_commits, 1u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

TYPED_TEST(OptimisticRead, MaxAttemptsInvalidatedRunsEndInOneFallback) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_livelock");
    TwoCells<E> cells;
    cells.create(8);

    ReadConfigGuard guard;
    read_config().max_attempts = 3;
    reset_tl_read_stats();
    int runs = 0;
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        ++runs;
        // A full writer window opens and closes inside every run, so every
        // optimistic run is invalidated at its first validated load (the
        // pessimistic rerun holds the reader lock and is unaffected).
        E::seq_for_tests().write_enter();
        E::seq_for_tests().write_exit();
        got = cells.c1->pload();
    });

    EXPECT_EQ(got, 8u);
    EXPECT_EQ(runs, 4);  // three invalidated runs + the pessimistic one
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_aborts, 3u);
    EXPECT_EQ(rs.fallbacks, 1u);
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.opt_waits, 0u);  // every run started on a closed window
}

TYPED_TEST(OptimisticRead, UserExceptionOffValidSnapshotLeavesNoResidue) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_throw");
    TwoCells<E> cells;
    cells.create(3);

    reset_tl_read_stats();
    struct Boom {};
    EXPECT_THROW(E::readTx([&] {
        (void)cells.c1->pload();
        throw Boom{};
    }),
                 Boom);
    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_exception_exits, 1u);  // propagated, not a commit
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);

    // The thrown-through readTx must leave no thread-local residue: the
    // next read still takes the validated fast path.  (A leaked read
    // depth would send it down the flat-nesting branch — no lock, no
    // validation, no stats — silently racing the writer.)
    uint64_t a = 0;
    E::readTx([&] {
        a = 0;  // restartable
        a = cells.c1->pload();
    });
    EXPECT_EQ(a, 3u);
    EXPECT_EQ(rs.opt_commits, 1u);
}

// The undo baseline's case of the test above.  It reads under its shared
// mutex (the PMDK comparator has no seqlock path), so a throwing read must
// release that lock and leave no transaction state, and never touch the
// optimistic-read stats.  It keeps the suite's name through its own
// fixture; the name generator numbers it 2, after the two Romulus
// instantiations.
namespace undo_baseline {

template <typename E>
class OptimisticRead : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        reset_tl_read_stats();
    }
};

struct AfterRomulusPtms {
    template <typename T>
    static std::string GetName(int) {
        return "2";
    }
};

using UndoPtm = ::testing::Types<baselines::UndoLogPTM>;
TYPED_TEST_SUITE(OptimisticRead, UndoPtm, AfterRomulusPtms);

TYPED_TEST(OptimisticRead, UserExceptionOffValidSnapshotLeavesNoResidue) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "opt_throw_undo");
    TwoCells<E> cells;
    cells.create(3);

    reset_tl_read_stats();
    struct Boom {};
    EXPECT_THROW(E::readTx([&] {
        (void)cells.c1->pload();
        throw Boom{};
    }),
                 Boom);
    EXPECT_FALSE(E::in_transaction());

    // The shared lock was released: a writer gets in, and the next read
    // sees its value.
    cells.set(4);
    uint64_t a = 0, b = 0;
    E::readTx([&] {
        a = cells.c1->pload();
        b = cells.c2->pload();
    });
    EXPECT_EQ(a, 4u);
    EXPECT_EQ(b, 4u);

    const ReadStats& rs = tl_read_stats();
    EXPECT_EQ(rs.opt_exception_exits, 0u);
    EXPECT_EQ(rs.opt_commits, 0u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

}  // namespace undo_baseline

TYPED_TEST(OptimisticRead, TornPointerIsRejectedBeforeDereference) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    using PP = typename E::template p<PU*>;
    test::EngineSession<E> session(16u << 20, "opt_torn");

    PU* target = nullptr;
    PP* cell = nullptr;
    E::updateTx([&] {
        target = E::template tmNew<PU>();
        *target = 99;
        cell = E::template tmNew<PP>();
        *cell = target;
        E::put_object(0, cell);
    });

    ReadConfigGuard guard;
    read_config().max_attempts = 3;
    reset_tl_read_stats();

    // The classic seqlock hazard, staged deterministically: mid-run the
    // pointer cell is scribbled with garbage under an open window.  The
    // per-load validation in pload() must throw before the garbage pointer
    // can reach the dereference below — if it ever leaks out, the test
    // crashes on the bogus address.  The parked "writer" then rolls back on
    // a helper thread while the reader waits out its window.
    auto* raw = reinterpret_cast<uint64_t*>(cell);
    const uint64_t good_bits = *raw;
    WindowCloser<E> closer([raw, good_bits] { *raw = good_bits; });
    bool first = true;
    uint64_t got = 0;
    E::readTx([&] {
        got = 0;  // restartable
        if (first) {
            first = false;
            E::seq_for_tests().write_enter();
            *raw = 0xDEADBEEFDEADBEEFull;
            closer.go.store(true, std::memory_order_release);
        }
        PU* p = cell->pload();  // throws OptimisticAbort on the torn run
        got = p->pload();
    });

    EXPECT_EQ(got, 99u);
    const ReadStats& rs = tl_read_stats();
    // Run 1 aborted mid-closure on the torn load; the reader then waited
    // out the still-open window and run 2 committed the repaired pointer.
    EXPECT_EQ(rs.opt_aborts, 1u);
    EXPECT_EQ(rs.opt_waits, 1u);
    EXPECT_EQ(rs.opt_commits, 1u);
    EXPECT_EQ(rs.fallbacks, 0u);
}

// ------------------------------------------------------ window placement
//
// The writer's odd window must open only after the MUT state word is
// persistent (readers never read it) and before the first in-place store
// to main.  A SimHooks observer samples the shard's seq word at each edge.

struct WindowProbe : pmem::SimHooks {
    const sync::SeqLock* seq = nullptr;
    const uint8_t* main_lo = nullptr;
    const uint8_t* main_hi = nullptr;
    bool pending_mut_pwb = false;
    bool in_mut = false;
    int mut_transitions = 0;
    int odd_at_mut = 0;       // MUT stored with the window already open
    int odd_at_mut_pwb = 0;   // MUT written back with the window already open
    int main_stores = 0;      // stores to main while in MUT
    int even_main_stores = 0; // ... with the window closed

    bool odd() const { return (seq->value() & 1) != 0; }
    void on_store(const void* addr, size_t) override {
        const auto* p = static_cast<const uint8_t*>(addr);
        if (!in_mut || p < main_lo || p >= main_hi) return;
        ++main_stores;
        if (!odd()) ++even_main_stores;
    }
    void on_pwb(const void*) override {
        if (!pending_mut_pwb) return;
        pending_mut_pwb = false;  // the state word's own write-back
        if (odd()) ++odd_at_mut_pwb;
    }
    void on_fence() override {}
    void on_state_transition(uint32_t st) override {
        in_mut = st == uint32_t(MUT);
        if (!in_mut) return;
        ++mut_transitions;
        pending_mut_pwb = true;
        if (odd()) ++odd_at_mut;
    }
};

template <typename E>
class WindowPlacement : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }

    void check(bool fastpath) {
        test::EngineSession<E> session(16u << 20, "opt_window");
        TwoCells<E> cells;
        cells.create(1);
        test::UpdateConfigGuard ucg;
        update_config().fastpath = fastpath;

        WindowProbe probe;
        probe.seq = &E::seq_for_tests();
        probe.main_lo = E::main_base();
        probe.main_hi = E::main_base() + E::main_size();
        const uint64_t fp0 = pmem::tl_commit_stats().fastpath_commits;
        pmem::set_sim_hooks(&probe);
        cells.set(2);
        pmem::set_sim_hooks(nullptr);

        EXPECT_EQ(pmem::tl_commit_stats().fastpath_commits - fp0,
                  fastpath ? 1u : 0u);
        EXPECT_EQ(probe.mut_transitions, 1);
        EXPECT_EQ(probe.odd_at_mut, 0);
        EXPECT_FALSE(probe.pending_mut_pwb);
        EXPECT_EQ(probe.odd_at_mut_pwb, 0);
        EXPECT_GE(probe.main_stores, 1);  // the cells, in place
        EXPECT_EQ(probe.even_main_stores, 0);
        EXPECT_EQ(E::seq_for_tests().value() & 1, 0u);
    }
};

TYPED_TEST_SUITE(WindowPlacement, SeqlockPtms);

TYPED_TEST(WindowPlacement, SlowPathOpensAfterTheMutPersist) {
    this->check(/*fastpath=*/false);
}

TYPED_TEST(WindowPlacement, FastPathOpensAfterTheMutPersist) {
    this->check(/*fastpath=*/true);
}

// ------------------------------------------------------------ churn check

/// Reader/writer churn: writers keep the two cells equal inside one
/// transaction; a reader that ever returns a != b has surfaced a torn
/// snapshot.  Shared by the plain and the racecheck-armed suites.
template <typename E>
void run_churn(int writer_txs) {
    test::EngineSession<E> session(16u << 20, "opt_churn");
    TwoCells<E> cells;
    cells.create(0);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    std::atomic<uint64_t> reads{0};
    std::atomic<uint64_t> opt_commits{0};
    std::thread reader([&] {
        reset_tl_read_stats();
        while (!stop.load(std::memory_order_acquire)) {
            uint64_t a = 0, b = 0;
            E::readTx([&] {
                a = 0;
                b = 0;  // restartable
                a = cells.c1->pload();
                b = cells.c2->pload();
            });
            if (a != b) bad.fetch_add(1);
            reads.fetch_add(1);
        }
        opt_commits.store(tl_read_stats().opt_commits);
    });
    for (int j = 1; j <= writer_txs; ++j) {
        cells.set(uint64_t(j));
        if (j % 16 == 0) std::this_thread::yield();
    }
    // On a loaded host the writer can finish before the reader is first
    // scheduled; let it complete at least one read before stopping it.
    while (reads.load() == 0) std::this_thread::yield();
    stop.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(bad.load(), 0u) << "torn snapshot after " << reads.load()
                              << " reads";
    EXPECT_GT(reads.load(), 0u);
    // Not asserted == reads: a read that lands inside a writer window may
    // legitimately take the pessimistic lock.
    EXPECT_LE(opt_commits.load(), reads.load());
}

TYPED_TEST(OptimisticRead, ChurnNeverSurfacesATornSnapshot) {
    run_churn<TypeParam>(300);
}

// ------------------------------------------------------------ 64-bit wrap

TEST(SeqLockUnit, SurvivesTheSequenceWrap) {
    sync::SeqLock sl;
    sl.set_for_tests(UINT64_MAX - 1);  // even, one window from the wrap
    const uint64_t sq = sl.read_begin();
    EXPECT_TRUE(sl.validate(sq));

    sl.write_enter();  // UINT64_MAX: odd
    EXPECT_EQ(sl.value() & 1, 1u);
    EXPECT_FALSE(sl.validate(sq));

    sl.write_exit();  // wraps to 0: even again
    EXPECT_EQ(sl.value(), 0u);
    EXPECT_FALSE(sl.validate(sq)) << "pre-wrap snapshot must stay dead";

    const uint64_t sq2 = sl.read_begin();
    EXPECT_EQ(sq2, 0u);
    EXPECT_TRUE(sl.validate(sq2));
}

TEST(SeqLockUnit, ReadersSeeTheWindowEdges) {
    sync::SeqLock sl;
    const uint64_t sq = sl.read_begin();
    EXPECT_EQ(sq & 1, 0u);
    EXPECT_TRUE(sl.validate(sq));
    sl.write_enter();
    EXPECT_EQ(sl.read_begin() & 1, 1u);  // readers refuse to even start
    sl.write_exit();
    EXPECT_FALSE(sl.validate(sq)) << "a completed writer kills the snapshot";
    EXPECT_TRUE(sl.validate(sl.read_begin()));
}

// --------------------------------------- crash sweep + concurrent reader
//
// Trace-driven every-fence sweep (tests/fence_sweep.hpp) with an optimistic
// reader attached through the sweep-client hook: the reader continuously
// snapshot-reads random trace keys and must never observe a torn value
// while the engine is healthy.  After the crash the writer thread "dies"
// mid-commit (lock held, window odd), so the sweep releases the reader
// through crash_reset_for_tests() — the same volatile-state rebuild a
// restart does — before the client joins it.

/// Sweep client: one concurrent reader validating the optimistic read path
/// against the model oracle.  Two oracles per read, both inside ONE readTx:
///   * the same key read twice must agree (snapshot consistency), and
///   * the observation must be in legal_observations() — a value no
///     committed prefix of the trace ever exposes can only come from a torn
///     snapshot.
template <typename E>
struct SnapshotReaderClient {
    const analysis::TxTrace& trace;
    std::vector<std::string> keys;
    std::vector<analysis::KeyObservations> legal;
    analysis::KvFacade<E>* kv = nullptr;
    std::atomic<bool>* crashed = nullptr;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad{0};
    std::thread th;

    explicit SnapshotReaderClient(const analysis::TxTrace& t) : trace(t) {
        std::map<std::string, uint32_t> seen;
        for (const analysis::SubTx& st : t.subtxs)
            for (const analysis::TraceOp& op : st.ops)
                seen.emplace(op.key, st.shard);
        for (const auto& [key, sd] : seen) {
            keys.push_back(key);
            legal.push_back(analysis::legal_observations(t, key, sd));
        }
    }

    void begin(analysis::KvFacade<E>& facade, std::atomic<bool>& crash_flag) {
        kv = &facade;
        crashed = &crash_flag;
        stop.store(false, std::memory_order_relaxed);
        bad.store(0, std::memory_order_relaxed);
        th = std::thread([this] { loop(); });
    }

    void loop() {
        uint64_t x = 0x9E3779B97F4A7C15ull;
        while (!stop.load(std::memory_order_acquire)) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            const size_t i = size_t((x >> 33) % keys.size());
            const std::string& key = keys[i];
            const unsigned sd = kv->route(key);
            const bool pre = crashed->load(std::memory_order_acquire);
            bool f1 = false, f2 = false;
            std::string v1, v2;
            E::readTx(sd, [&] {
                f1 = f2 = false;  // restartable
                v1.clear();
                v2.clear();
                auto* s = kv->store(sd);
                if (s == nullptr) return;
                f1 = s->get(key, &v1);
                f2 = s->get(key, &v2);
            });
            // Only a read fully bracketed by a healthy engine asserts:
            // post-crash the window word is force-reset under a torn main,
            // which is exactly what recovery is for.
            if (pre || crashed->load(std::memory_order_acquire)) continue;
            if (f1 != f2 || (f1 && v1 != v2) || !legal[i].admits(f1, v1))
                bad.fetch_add(1);
        }
    }

    void end(uint64_t fence, bool /*did_crash*/) {
        stop.store(true, std::memory_order_release);
        th.join();
        EXPECT_EQ(bad.load(), 0u) << "torn snapshot at crash fence " << fence;
    }
};

template <typename E>
void run_reader_crash_sweep() {
    const std::string path =
        test::heap_path(std::string("opt_crash_") + E::name());
    pmem::SimPersistence::Options opts{pmem::FlushContent::AtPwb, 0.0, 11};
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 8;
    g.key_space = 8;  // hot keys: the reader mostly hits live data
    g.value_max = 512;
    g.put_pct = 70;
    g.del_pct = 10;
    g.get_pct = 5;
    g.batch_ops = 3;
    const unsigned shards = 2;
    const analysis::TxTrace trace = analysis::generate_trace(
        g, /*seed=*/20240808, shards, analysis::engine_id_of<E>(),
        [shards](std::string_view key) {
            return db::shard_for_key(key, shards);
        });
    SnapshotReaderClient<E> client(trace);
    test::run_trace_fence_sweep<E>(trace, path, opts, client);
}

template <typename E>
class OptimisticReadCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(OptimisticReadCrash, SeqlockPtms);

TYPED_TEST(OptimisticReadCrash, EveryFenceCrashWithConcurrentReaders) {
    run_reader_crash_sweep<TypeParam>();
}

// ------------------------------------------- racecheck-armed clean run

#ifdef ROMULUS_RACECHECK
// The churn workload with the romrace detector live: the optimistic read
// path's annotations (seqlock.write_enter / seqlock.validate /
// seqlock.write_exit) must model a sound happens-before edge — zero
// reports across validated optimistic commits racing real writers.
template <typename E>
class OptimisticRaceArmed : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        auto& d = analysis::RaceDetector::instance();
        d.reset();
        d.enable();
    }
    void TearDown() override {
        auto& d = analysis::RaceDetector::instance();
        d.disable();
        d.reset();
        pmem::set_sim_hooks(nullptr);
    }
};

TYPED_TEST_SUITE(OptimisticRaceArmed, SeqlockPtms);

TYPED_TEST(OptimisticRaceArmed, ChurnStaysSilent) {
    run_churn<TypeParam>(150);
    auto& d = analysis::RaceDetector::instance();
    EXPECT_EQ(d.race_count(), 0u) << d.report_text();
}
#endif  // ROMULUS_RACECHECK

}  // namespace
