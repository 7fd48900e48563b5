// Stripe-locked speculative update fast path (DESIGN.md §4.11).
//
// Unit tests for the stripe table and the speculation buffer (including the
// no-throw doomed-continuation rules), per-engine fast-path behaviour with
// counter witnesses (commit, fallback, user-exception abort, footprint
// overflow, knob-off), the fast path's group apply (one durable window for
// every announced write set; NT line images), the shared env-knob parser,
// and every-fence crash sweeps of traces that commit through the fast path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/crash_explorer.hpp"
#include "analysis/persist_graph.hpp"
#ifdef ROMULUS_RACECHECK
#include "analysis/race_detector.hpp"
#endif
#include "analysis/tx_trace.hpp"
#include "db/kvstore.hpp"
#include "ds/pqueue.hpp"
#include "fence_sweep.hpp"
#include "pmem/checker.hpp"
#include "pmem/sim_persistence.hpp"
#include "pmem/stats.hpp"
#include "ptm_types.hpp"
#include "sync/stripe_lock.hpp"
#include "test_support.hpp"

using namespace romulus;
using romulus::test::EngineSession;
using romulus::test::ProfileGuard;
using romulus::test::ReadConfigGuard;
using romulus::test::UpdateConfigGuard;

// ------------------------------------------------------------ stripe table

TEST(StripeLockTable, TryAcquireIsExclusiveAndReleasePublishes) {
    sync::StripeLockTable t(64);
    sync::StripeLockTable::Word pre = ~0ull;
    ASSERT_TRUE(t.try_acquire(3, pre));
    EXPECT_EQ(pre, 0u);
    sync::StripeLockTable::Word pre2;
    EXPECT_FALSE(t.try_acquire(3, pre2));  // held: try-only, never blocks
    t.release(3, 5);
    const auto w = t.read(3);
    EXPECT_FALSE(sync::StripeLockTable::is_locked(w));
    EXPECT_EQ(sync::StripeLockTable::version_of(w), 5u);
}

TEST(StripeLockTable, ReleaseAbortedRestoresPreAcquireWord) {
    sync::StripeLockTable t(64);
    sync::StripeLockTable::Word pre;
    ASSERT_TRUE(t.try_acquire(9, pre));
    t.release(9, 7);  // version 7 published
    ASSERT_TRUE(t.try_acquire(9, pre));
    EXPECT_EQ(sync::StripeLockTable::version_of(pre), 7u);
    t.release_aborted(9, pre);  // nothing was published
    EXPECT_EQ(t.read(9), pre);
}

TEST(StripeLockTable, ClockAdvancesMonotonically) {
    sync::StripeLockTable t(64);
    EXPECT_EQ(t.clock_now(), 0u);
    EXPECT_EQ(t.clock_advance(), 1u);
    EXPECT_EQ(t.clock_advance(), 2u);
    EXPECT_EQ(t.clock_now(), 2u);
    t.reset_for_tests();
    EXPECT_EQ(t.clock_now(), 0u);
}

TEST(StripeLockTable, StripeOfLineStaysInTable) {
    sync::StripeLockTable t(8);
    for (size_t line = 0; line < 4096; ++line)
        EXPECT_LT(t.stripe_of_line(line), t.stripe_count());
}

// ------------------------------------------------------ speculation buffer

namespace {
alignas(64) uint8_t g_spec_heap[4096];
}

TEST(SpecBuffer, BuffersStoresAndReadsThemBack) {
    sync::StripeLockTable t(64);
    std::memset(g_spec_heap, 0, sizeof(g_spec_heap));
    sync::SpecBuffer b;
    b.begin(8, t.clock_now());
    uint64_t v = 42;
    sync::spec_store(b, t, g_spec_heap, 128, &v, 8);
    uint64_t got = 0;
    sync::spec_load(b, t, g_spec_heap, 128, &got, 8);
    EXPECT_EQ(got, 42u);
    EXPECT_EQ(g_spec_heap[128], 0u);  // heap untouched until apply
    EXPECT_FALSE(b.aborted);
    EXPECT_EQ(b.nw, 1u);
}

TEST(SpecBuffer, FootprintOverflowDoomsButKeepsReadYourWrites) {
    sync::StripeLockTable t(64);
    std::memset(g_spec_heap, 0, sizeof(g_spec_heap));
    sync::SpecBuffer b;
    b.begin(/*max_lines=*/1, t.clock_now());
    uint64_t v = 1;
    sync::spec_store(b, t, g_spec_heap, 0, &v, 8);
    EXPECT_FALSE(b.aborted);
    v = 2;
    sync::spec_store(b, t, g_spec_heap, 64, &v, 8);  // second line: overflow
    EXPECT_TRUE(b.aborted);
    // The doomed continuation still sees its own writes (and never throws).
    uint64_t got = 0;
    sync::spec_load(b, t, g_spec_heap, 64, &got, 8);
    EXPECT_EQ(got, 2u);
    sync::spec_load(b, t, g_spec_heap, 0, &got, 8);
    EXPECT_EQ(got, 1u);
}

TEST(SpecBuffer, NewerStripeVersionDoomsLoadButStillReadsRaw) {
    sync::StripeLockTable t(64);
    std::memset(g_spec_heap, 0, sizeof(g_spec_heap));
    g_spec_heap[256] = 0x5A;
    sync::SpecBuffer b;
    b.begin(8, /*read_version=*/0);
    const unsigned st = t.stripe_of_line(256 / 64);
    sync::StripeLockTable::Word pre;
    ASSERT_TRUE(t.try_acquire(st, pre));
    t.release(st, 9);  // version 9 > rv 0: the speculation must not validate
    uint8_t got = 0;
    sync::spec_load(b, t, g_spec_heap, 256, &got, 1);
    EXPECT_TRUE(b.aborted);
    EXPECT_EQ(got, 0x5A);  // degraded to a raw (word-atomic) read
}

TEST(SpecBuffer, LargeStoreIntoFullDoomedWriteSetUpdatesCapturedLines) {
    static constexpr size_t kHeap = 16384;
    alignas(64) static uint8_t heap[kHeap];
    std::memset(heap, 0, kHeap);
    sync::StripeLockTable t(64);
    sync::SpecBuffer b;
    b.begin(/*max_lines=*/8, t.clock_now());
    // Touch every other line until the write set holds kLineCap lines: the
    // speculation dooms at line 9 and keeps capturing best-effort to the cap.
    for (unsigned i = 0; i < sync::SpecBuffer::kLineCap; ++i) {
        const uint8_t v = 1;
        sync::spec_store(b, t, heap, uint64_t(i) * 128, &v, 1);
    }
    ASSERT_TRUE(b.aborted);
    ASSERT_EQ(b.nw, sync::SpecBuffer::kLineCap);
    // An unaligned store across captured and uncapturable lines: the
    // captured ones take its bytes, the rest are dropped, the heap stays
    // untouched.
    std::vector<uint8_t> big(12000);
    for (size_t i = 0; i < big.size(); ++i) big[i] = uint8_t(i * 7 + 3);
    const uint64_t at = 40;
    sync::spec_store(b, t, heap, at, big.data(), big.size());
    EXPECT_EQ(b.nw, sync::SpecBuffer::kLineCap);
    for (unsigned i = 0; i < sync::SpecBuffer::kLineCap; ++i) {
        const uint64_t line = uint64_t(i) * 128;
        uint8_t got[64];
        sync::spec_load(b, t, heap, line, got, 64);
        for (uint64_t o = 0; o < 64; ++o) {
            const uint64_t addr = line + o;
            const uint8_t want = addr >= at && addr < at + big.size()
                                     ? big[addr - at]
                                     : uint8_t(o == 0 ? 1 : 0);
            ASSERT_EQ(got[o], want) << "line " << i << " byte " << o;
        }
    }
    for (size_t i = 0; i < kHeap; ++i) ASSERT_EQ(heap[i], 0u) << i;
}

TEST(SpecBuffer, ScratchAllocReturnsAlignedDistinctBlocks) {
    sync::SpecBuffer b;
    b.begin(8, 0);
    void* a = b.scratch_alloc(48);
    void* c = b.scratch_alloc(1);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(a, c);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
    std::memset(a, 0xAB, 48);  // writable
    b.begin(8, 0);  // re-begin discards scratch
    EXPECT_TRUE(b.scratch.empty());
}

// ------------------------------------------------- engine fast-path typed

// The engines with the stripe fast path: the C-RW-WP Romulus variants.
// RomulusLR keeps its Left-Right path, and the baselines keep the paper's
// comparators' commit paths (DESIGN.md §1).
using FastPathPtms = ::testing::Types<RomulusNL, RomulusLog>;

template <typename E>
class StripeFastPath : public ::testing::Test {
  protected:
    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        update_config().fastpath = true;
        session_ = std::make_unique<EngineSession<E>>(
            32u << 20, std::string("stripefp_") + E::name());
    }
    void TearDown() override { session_.reset(); }

    using PU = typename E::template p<uint64_t>;

    /// A 64-slot array of line-strided counters (slot i at byte i*64), set
    /// up in an allocating (slow-path) transaction and published as root 2.
    PU* setup_counters() {
        PU* arr = nullptr;
        E::updateTx([&] {
            arr = static_cast<PU*>(E::alloc_bytes(64 * 64));
            for (int i = 0; i < 64; ++i) arr[i * 8] = 0u;
            E::put_object(2, arr);
        });
        return arr;
    }

    UpdateConfigGuard update_guard_;
    std::unique_ptr<EngineSession<E>> session_;
};

TYPED_TEST_SUITE(StripeFastPath, FastPathPtms);

TYPED_TEST(StripeFastPath, SmallDisjointUpdateCommitsThroughFastPath) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t commits0 = cs.fastpath_commits;
    for (int round = 0; round < 10; ++round) {
        E::updateTx([&] { arr[0] = arr[0].pload() + 1; });
    }
    EXPECT_GE(cs.fastpath_commits - commits0, 10u);
    uint64_t got = 0;
    E::readTx([&] { got = arr[0].pload(); });
    EXPECT_EQ(got, 10u);
}

TYPED_TEST(StripeFastPath, AllocatingTxFallsBackWithoutThrowing) {
    using E = TypeParam;
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t fallbacks0 = cs.fastpath_fallbacks;
    using PU = typename E::template p<uint64_t>;
    PU* obj = nullptr;
    E::updateTx([&] {
        obj = static_cast<PU*>(E::alloc_bytes(8));
        *obj = 77u;
        E::put_object(3, obj);
    });
    EXPECT_GT(cs.fastpath_fallbacks, fallbacks0);
    uint64_t got = 0;
    E::readTx(
        [&] { got = E::template get_object<PU>(3)->pload(); });
    EXPECT_EQ(got, 77u);
}

// Regression for the std::terminate the throwing abort design hit: a
// data-structure destructor (implicitly noexcept) running inside an
// updateTx closure calls tmDelete -> free_bytes while the speculation is
// open.  The doomed continuation must absorb this without an exception and
// re-run the closure on the slow path.
TYPED_TEST(StripeFastPath, NoexceptDestructorFreeInsideTxFallsBack) {
    using E = TypeParam;
    using Q = ds::PQueue<E, uint64_t>;
    Q* q = nullptr;
    E::updateTx([&] { q = E::template tmNew<Q>(); });
    for (uint64_t i = 0; i < 8; ++i) q->enqueue(i);
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t fallbacks0 = cs.fastpath_fallbacks;
    // ~PQueue ploads the chain and tmDeletes every node beneath a noexcept
    // frame; with the fast path armed this doomed the speculation.
    E::updateTx([&] { E::tmDelete(q); });
    EXPECT_GT(cs.fastpath_fallbacks, fallbacks0);
}

TYPED_TEST(StripeFastPath, UserExceptionAbortsWithNoStateChange) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    E::updateTx([&] { arr[0] = 5u; });
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t aborts0 = cs.fastpath_aborts;
    struct Boom {};
    EXPECT_THROW(E::updateTx([&] {
        arr[0] = 99u;
        throw Boom{};
    }),
                 Boom);
    EXPECT_GT(cs.fastpath_aborts, aborts0);
    uint64_t got = 0;
    E::readTx([&] { got = arr[0].pload(); });
    EXPECT_EQ(got, 5u);  // failure atomicity: the buffered write was dropped
}

// The undo baseline's case of the test above.  It has no fast path (the
// PMDK comparator has none), so with the knob on a throwing update must
// roll back through the undo log without moving the fast-path counters.
// It keeps the suite's name through its own fixture; the name generator
// numbers it 2, after the two Romulus instantiations.
namespace undo_baseline {

template <typename E>
class StripeFastPath : public ::StripeFastPath<E> {};

struct AfterRomulusPtms {
    template <typename T>
    static std::string GetName(int) {
        return "2";
    }
};

using UndoPtm = ::testing::Types<baselines::UndoLogPTM>;
TYPED_TEST_SUITE(StripeFastPath, UndoPtm, AfterRomulusPtms);

TYPED_TEST(StripeFastPath, UserExceptionAbortsWithNoStateChange) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    E::updateTx([&] { arr[0] = 5u; });
    const auto& cs = pmem::tl_commit_stats();
    const pmem::CommitStats before = cs;
    struct Boom {};
    EXPECT_THROW(E::updateTx([&] {
        arr[0] = 99u;
        arr[8] = 98u;
        throw Boom{};
    }),
                 Boom);
    EXPECT_FALSE(E::in_transaction());
    EXPECT_EQ(cs.fastpath_aborts, before.fastpath_aborts);
    EXPECT_EQ(cs.fastpath_fallbacks, before.fastpath_fallbacks);
    EXPECT_EQ(cs.fastpath_commits, before.fastpath_commits);
    uint64_t got0 = 0, got1 = 0;
    E::readTx([&] {
        got0 = arr[0].pload();
        got1 = arr[8].pload();
    });
    EXPECT_EQ(got0, 5u);  // failure atomicity: the undo log restored both
    EXPECT_EQ(got1, 0u);
    E::updateTx([&] { arr[0] = 6u; });
    E::readTx([&] { got0 = arr[0].pload(); });
    EXPECT_EQ(got0, 6u);
}

}  // namespace undo_baseline

TYPED_TEST(StripeFastPath, FootprintOverflowFallsBackAndLandsEveryStore) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    update_config().max_fastpath_lines = 4;
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t fallbacks0 = cs.fastpath_fallbacks;
    E::updateTx([&] {
        for (int i = 0; i < 16; ++i) arr[i * 8] = uint64_t(i) + 1;  // 16 lines
    });
    EXPECT_GT(cs.fastpath_fallbacks, fallbacks0);
    uint64_t sum = 0;
    E::readTx([&] {
        for (int i = 0; i < 16; ++i) sum += arr[i * 8].pload();
    });
    EXPECT_EQ(sum, 136u);  // 1 + 2 + ... + 16
}

// A doomed speculation whose write set is already full still buffers a
// 100 KB store into the lines it captured (read-your-writes), then re-runs
// on the slow path to the right value.
TYPED_TEST(StripeFastPath, LargeStoreAfterFullWriteSetReadsItsOwnBytes) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    constexpr size_t kBig = 100000;
    uint8_t* big = nullptr;
    E::updateTx([&] {
        big = static_cast<uint8_t*>(E::alloc_bytes(kBig));
        E::zero_range(big, kBig);
    });
    std::vector<uint8_t> pat(kBig);
    for (size_t i = 0; i < kBig; ++i) pat[i] = uint8_t(i * 29 + 11);
    // Word-aligned slot inside each of the first kLineCap lines of big.
    auto slot = [&](unsigned i) {
        return reinterpret_cast<PU*>(big + 8 + size_t(i) * 64);
    };
    uint64_t want;
    std::memcpy(&want, pat.data() + 8 + 5 * 64, sizeof(want));

    const auto& cs = pmem::tl_commit_stats();
    const uint64_t aborts0 = cs.fastpath_aborts;
    const uint64_t fallbacks0 = cs.fastpath_fallbacks;
    std::vector<uint64_t> seen;
    E::updateTx([&] {
        for (unsigned i = 0; i < sync::SpecBuffer::kLineCap; ++i)
            *slot(i) = uint64_t(i) + 1;
        E::store_range(big, pat.data(), kBig);
        seen.push_back(slot(5)->pload());
    });
    // One doomed fast-path run, one slow-path re-run: both read the bytes
    // they stored.
    EXPECT_GT(cs.fastpath_aborts, aborts0);
    EXPECT_GT(cs.fastpath_fallbacks, fallbacks0);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], want);
    EXPECT_EQ(seen[1], want);
    bool same = false;
    E::readTx([&] { same = std::memcmp(big, pat.data(), kBig) == 0; });
    EXPECT_TRUE(same);
}

TYPED_TEST(StripeFastPath, KnobOffForcesSlowPath) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    update_config().fastpath = false;
    const auto& cs = pmem::tl_commit_stats();
    const uint64_t commits0 = cs.fastpath_commits;
    const uint64_t fallbacks0 = cs.fastpath_fallbacks;
    for (int round = 0; round < 5; ++round) {
        E::updateTx([&] { arr[0] = arr[0].pload() + 1; });
    }
    EXPECT_EQ(cs.fastpath_commits, commits0);
    // A knob-off transaction is not an attempted speculation, so it must
    // not count as a fallback either.
    EXPECT_EQ(cs.fastpath_fallbacks, fallbacks0);
    uint64_t v = 0;
    E::readTx([&] { v = arr[0].pload(); });
    EXPECT_EQ(v, 5u);
}

TYPED_TEST(StripeFastPath, DisjointThreadsAllCommitSpeculatively) {
    using E = TypeParam;
    auto* arr = this->setup_counters();
    constexpr int kThreads = 4;
    constexpr uint64_t kRounds = 200;
    std::atomic<uint64_t> total_fp_commits{0};
    std::vector<std::thread> ts;
    for (int w = 0; w < kThreads; ++w) {
        ts.emplace_back([&, w] {
            const auto& cs = pmem::tl_commit_stats();
            const uint64_t c0 = cs.fastpath_commits;
            for (uint64_t r = 0; r < kRounds; ++r) {
                // Thread-private line: no stripe conflicts by construction
                // (64 slots hash to distinct stripes wide apart).
                E::updateTx(
                    [&] { arr[w * 8] = arr[w * 8].pload() + 1; });
            }
            total_fp_commits.fetch_add(cs.fastpath_commits - c0);
        });
    }
    for (auto& t : ts) t.join();
    uint64_t sum = 0;
    E::readTx([&] {
        for (int w = 0; w < kThreads; ++w) sum += arr[w * 8].pload();
    });
    EXPECT_EQ(sum, kThreads * kRounds);  // no lost updates
    // Disjoint lines can still collide on a stripe or race a committer's
    // lock window, so not every update commits speculatively — but the
    // overwhelming majority must.
    EXPECT_GT(total_fp_commits.load(), kThreads * kRounds / 2);
    // Every group apply replicated its write sets: the twins agree.
    EXPECT_EQ(std::memcmp(E::main_base(), E::back_base(), E::used_bytes()), 0);
}

namespace {
struct CommitConfigGuard {
    pmem::CommitConfig saved = pmem::commit_config();
    ~CommitConfigGuard() { pmem::commit_config() = saved; }
};
}  // namespace

// ------------------------------------------------------------ group apply
//
// Fast-path committers announce their locked, validated write sets, and the
// announcer that wins fp_gate applies every announced set in one
// MUT/CPY/IDL window, each line from its buffered image (DESIGN.md §4.11).

namespace {

/// Counts the twin-state transitions the apply windows persist.
struct StateTransitionCounter final : pmem::SimHooks {
    std::atomic<int> by_state[3] = {};
    void on_store(const void*, size_t) override {}
    void on_pwb(const void*) override {}
    void on_fence() override {}
    void on_state_transition(uint32_t st) override {
        if (st < 3) by_state[st].fetch_add(1);
    }
};

/// Commit-path counters of one batch, summed over its committer threads.
struct BatchTotals {
    std::atomic<uint64_t> fp_commits{0}, batches{0}, batched{0};
    std::atomic<uint64_t> pwbs{0}, nt_bytes{0};
};

}  // namespace

template <typename E>
class GroupApply : public ::testing::Test {
  protected:
    using PU = typename E::template p<uint64_t>;
    static constexpr size_t kHeapBytes = 16u << 20;

    void SetUp() override {
        pmem::set_profile(pmem::Profile::NOP);
        update_config().fastpath = true;
        session_ = std::make_unique<EngineSession<E>>(
            kHeapBytes, std::string("group_") + E::name());
        // 64 counters, one per line (slot i at byte i*64), allocated on the
        // slow path and published as root 2.
        E::updateTx([&] {
            auto* arr = static_cast<PU*>(E::alloc_bytes(64 * 64));
            for (int i = 0; i < 64; ++i) arr[i * 8] = 0u;
            E::put_object(2, arr);
        });
    }
    void TearDown() override {
        pmem::set_sim_hooks(nullptr);
        session_.reset();
    }

    static PU* counters() { return E::template get_object<PU>(2); }
    static uint64_t& in_main(int line) {
        return *reinterpret_cast<uint64_t*>(counters() + line * 8);
    }
    static uint64_t in_back(int line) {
        const auto* m = reinterpret_cast<const uint8_t*>(&in_main(line));
        uint64_t v;
        std::memcpy(&v, E::back_base() + (m - E::main_base()), sizeof(v));
        return v;
    }

    /// One fast-path commit writing `v` to `line` on this thread; adds its
    /// commit-path counters to `tot`.
    static void commit_line(int line, uint64_t v, BatchTotals& tot) {
        const pmem::CommitStats cs0 = pmem::tl_commit_stats();
        const uint64_t pwb0 = pmem::tl_stats().pwb;
        PU* arr = counters();
        E::updateTx([&] { arr[line * 8] = v; });
        const pmem::CommitStats& cs = pmem::tl_commit_stats();
        tot.fp_commits += cs.fastpath_commits - cs0.fastpath_commits;
        tot.batches += cs.fastpath_batches - cs0.fastpath_batches;
        tot.batched += cs.fastpath_batched - cs0.fastpath_batched;
        tot.nt_bytes += cs.nt_bytes - cs0.nt_bytes;
        tot.pwbs += pmem::tl_stats().pwb - pwb0;
    }

    /// Deterministic batch of two: a pessimistic reader parks inside readTx,
    /// holding fp_gate shared, until the committers of (line_a, va) and
    /// (line_b, vb) have both announced.  Whichever of them wins fp_gate
    /// waits the reader out and then finds both write sets announced.
    static void commit_two_as_one_batch(int line_a, uint64_t va, int line_b,
                                        uint64_t vb, BatchTotals& tot) {
        ReadConfigGuard guard;
        read_config().optimistic = false;
        std::atomic<int> tids[2];
        for (auto& t : tids) t.store(-1);
        std::atomic<bool> parked{false};
        std::thread reader([&] {
            // Bounded, so a committer that never announces fails the
            // caller's batch assertions instead of hanging the suite.
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            E::readTx([&] {
                parked.store(true);
                for (auto& t : tids) {
                    int id;
                    while (((id = t.load()) < 0 ||
                            E::fastpath_slots_for_tests().is_done(id)) &&
                           std::chrono::steady_clock::now() < deadline)
                        std::this_thread::yield();
                }
            });
        });
        while (!parked.load()) std::this_thread::yield();
        auto committer = [&](int k, int line, uint64_t v) {
            tids[k].store(sync::tid());
            commit_line(line, v, tot);
        };
        std::thread a(committer, 0, line_a, va);
        std::thread b(committer, 1, line_b, vb);
        a.join();
        b.join();
        reader.join();
    }

    /// pwbs and NT bytes of one lone fast-path commit of kLines lines two
    /// lines apart, so no run of the back copy reaches the NT threshold.
    static constexpr uint64_t kLines = 3;
    static std::pair<uint64_t, uint64_t> lone_commit_counts(uint64_t v) {
        const pmem::CommitStats cs0 = pmem::tl_commit_stats();
        const uint64_t pwb0 = pmem::tl_stats().pwb;
        PU* arr = counters();
        E::updateTx([&] {
            for (uint64_t i = 0; i < kLines; ++i) arr[i * 16] = v + i;
        });
        const pmem::CommitStats& cs = pmem::tl_commit_stats();
        EXPECT_EQ(cs.fastpath_commits - cs0.fastpath_commits, 1u);
        EXPECT_EQ(cs.fastpath_batched - cs0.fastpath_batched, 1u);
        for (uint64_t i = 0; i < kLines; ++i) {
            EXPECT_EQ(in_main(int(i) * 2), v + i);
            EXPECT_EQ(in_back(int(i) * 2), v + i);
        }
        return {pmem::tl_stats().pwb - pwb0, cs.nt_bytes - cs0.nt_bytes};
    }

    std::unique_ptr<EngineSession<E>> session_;
    UpdateConfigGuard update_guard_;
};

TYPED_TEST_SUITE(GroupApply, FastPathPtms);

TYPED_TEST(GroupApply, TwoAnnouncedWriteSetsShareOneWindow) {
    using E = TypeParam;
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    StateTransitionCounter states;
    const uint64_t seq0 = E::seq_for_tests().value();
    BatchTotals tot;
    pmem::set_sim_hooks(&states);
    this->commit_two_as_one_batch(3, 31, 9, 97, tot);
    pmem::set_sim_hooks(nullptr);

    EXPECT_EQ(tot.fp_commits.load(), 2u);
    EXPECT_EQ(tot.batches.load(), 1u);
    EXPECT_EQ(tot.batched.load(), 2u);
    EXPECT_EQ(states.by_state[MUT].load(), 1);
    EXPECT_EQ(states.by_state[CPY].load(), 1);
    EXPECT_EQ(states.by_state[IDL].load(), 1);
    EXPECT_EQ(E::seq_for_tests().value(), seq0 + 2);  // one odd window
    EXPECT_EQ(this->in_main(3), 31u);
    EXPECT_EQ(this->in_back(3), 31u);
    EXPECT_EQ(this->in_main(9), 97u);
    EXPECT_EQ(this->in_back(9), 97u);
    // The state words are the only pwbs; both line images went to main and
    // to back with NT stores.
    EXPECT_EQ(tot.pwbs.load(), 3u);
    EXPECT_EQ(tot.nt_bytes.load(), 2u * 2 * 64);
}

TYPED_TEST(GroupApply, LineImagesReplaceEveryLinePwbUnderClflush) {
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    ASSERT_TRUE(pmem::streams_line_images());
    const auto [pwbs, nt] = this->lone_commit_counts(40);
    EXPECT_EQ(pwbs, 3u);  // MUT, CPY, IDL
    EXPECT_EQ(nt, 2 * 64 * this->kLines);
}

// CLWB keeps the line cached, the STT emulation charges NVM cost per pwb,
// and nt_threshold = SIZE_MAX turns every streaming path off: each keeps a
// cached store + pwb per line in main and in back, 3 + 2k pwbs.
TYPED_TEST(GroupApply, CachedLinesKeepOnePwbPerLineCopy) {
    const uint64_t want = 3 + 2 * this->kLines;
    {
        ProfileGuard profile(pmem::Profile::CLWB);
        if (pmem::effective_profile() == pmem::Profile::CLWB) {
            const auto [pwbs, nt] = this->lone_commit_counts(50);
            EXPECT_EQ(pwbs, want);
            EXPECT_EQ(nt, 0u);
        }
    }
    {
        ProfileGuard profile(pmem::Profile::STT);
        const auto [pwbs, nt] = this->lone_commit_counts(60);
        EXPECT_EQ(pwbs, want);
        EXPECT_EQ(nt, 0u);
    }
    {
        ProfileGuard profile(pmem::Profile::CLFLUSH);
        CommitConfigGuard commit_guard;
        pmem::commit_config().nt_threshold = SIZE_MAX;
        const auto [pwbs, nt] = this->lone_commit_counts(70);
        EXPECT_EQ(pwbs, want);
        EXPECT_EQ(nt, 0u);
    }
}

TYPED_TEST(GroupApply, BatchedApplyStaysDisciplineClean) {
    using E = TypeParam;
    uint64_t v = 100;
    for (auto prof : {pmem::Profile::CLFLUSH, pmem::Profile::CLWB}) {
        for (auto content :
             {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
            ProfileGuard profile(prof);
            pmem::PersistencyChecker::Options opts;
            opts.content = content;
            opts.require_log = true;
            pmem::PersistencyChecker checker(
                pmem::PersistencyChecker::template layout_of<E>(), opts);
            BatchTotals tot;
            pmem::set_sim_hooks(&checker);
            v += 2;
            this->commit_two_as_one_batch(4, v, 20, v + 1, tot);
            pmem::set_sim_hooks(nullptr);
            ASSERT_EQ(tot.batched.load(), 2u);
            EXPECT_TRUE(checker.clean()) << checker.report();
            EXPECT_EQ(checker.diagnostics().tx_commits, 1u);
        }
    }
}

// Every legal crash image of a two-write-set batch recovers both write sets
// all-old or both all-new.  The batch is recorded and its images walked by
// the romver crash explorer afterwards, so no crash unwinds an applier
// while another announcer waits on it.
TYPED_TEST(GroupApply, EveryCrashImageOfABatchIsAllOldOrAllNew) {
    using E = TypeParam;
    using PU = typename TestFixture::PU;
    const std::string path = this->session_->path;
    constexpr int kA = 5, kB = 12;
    uint64_t v = 200;
    for (auto prof : {pmem::Profile::CLFLUSH, pmem::Profile::CLWB}) {
        ProfileGuard profile(prof);
        const uint64_t old_a = this->in_main(kA), old_b = this->in_main(kB);
        v += 2;
        const uint64_t new_a = v, new_b = v + 1;
        analysis::PersistEventRecorder rec(E::region().base(),
                                           E::region().size());
        BatchTotals tot;
        pmem::set_sim_hooks(&rec);
        this->commit_two_as_one_batch(kA, new_a, kB, new_b, tot);
        pmem::set_sim_hooks(nullptr);
        ASSERT_EQ(tot.batched.load(), 2u);
        ASSERT_FALSE(rec.overflowed());
        const analysis::PersistGraph graph = analysis::PersistGraph::build(rec);
        const analysis::GraphAnalysis rules = analysis::analyze_protocol(
            rec, graph, analysis::EngineLayout::of<E>());
        EXPECT_TRUE(rules.clean()) << rules.report();
        E::close();

        const analysis::ExploreReport rep = analysis::explore_crash_images(
            graph, rec,
            [&](const std::vector<uint8_t>& image, const analysis::CrashCut& cut,
                std::string& err) {
                analysis::write_crash_image(path, image);
                E::crash_reset_for_tests();
                try {
                    E::init(TestFixture::kHeapBytes, path);  // runs recovery
                } catch (const std::exception& ex) {
                    err = std::string("recovery threw: ") + ex.what();
                    return false;
                }
                PU* arr = E::template get_object<PU>(2);
                const uint64_t a = arr[kA * 8].pload(), b = arr[kB * 8].pload();
                const bool all_old = a == old_a && b == old_b;
                const bool all_new = a == new_a && b == new_b;
                std::ostringstream os;
                if (!(all_old || all_new) || (cut.complete && !all_new))
                    os << "recovered (" << a << ", " << b << "); ";
                if (analysis::RecoveryCheck rc = analysis::check_twin_halves<E>();
                    !rc.ok)
                    os << rc.detail;
                E::close();
                err = os.str();
                return err.empty();
            });
        EXPECT_EQ(rep.violations, 0u) << rep.summary();
        EXPECT_TRUE(rep.exhaustive) << rep.summary();
        // Four fences split the batch into MUT | both main lines | CPY |
        // both back lines | IDL: 1 + 3 + 1 + 3 + 1 cuts, plus the complete
        // image.
        EXPECT_EQ(rep.windows_total, 5u) << rep.summary();
        EXPECT_EQ(rep.cuts_explored, 10u) << rep.summary();
        E::crash_reset_for_tests();
        E::init(TestFixture::kHeapBytes, path);
    }
}

// The 4-writer disjoint churn under CLFLUSH, so batches carry NT line
// images: no lost update, and main equals back afterwards.
TYPED_TEST(GroupApply, DisjointChurnWithLineImagesKeepsTwinsEqual) {
    using E = TypeParam;
    ProfileGuard profile(pmem::Profile::CLFLUSH);
    constexpr int kThreads = 4;
    constexpr uint64_t kRounds = 200;
    typename TestFixture::PU* arr = this->counters();
    BatchTotals tot;
    std::vector<std::thread> ts;
    for (int w = 0; w < kThreads; ++w) {
        ts.emplace_back([&, w] {
            for (uint64_t r = 1; r <= kRounds; ++r)
                this->commit_line(w * 2, arr[w * 16].pload() + 1, tot);
        });
    }
    for (auto& t : ts) t.join();
    for (int w = 0; w < kThreads; ++w) EXPECT_EQ(this->in_main(w * 2), kRounds);
    EXPECT_EQ(tot.batched.load(), tot.fp_commits.load());
    EXPECT_EQ(std::memcmp(E::main_base(), E::back_base(), E::used_bytes()), 0);
}

#ifdef ROMULUS_RACECHECK
// romrace armed over the group apply: three disjoint fast-path writers and
// two optimistic readers.  The announce -> take edge orders each owner's
// speculative reads before the applier's writes, and done -> owner orders
// those writes before the owner's stripe.release; a missing edge surfaces
// as a race on main.
template <typename E>
class GroupApplyRaceArmed : public ::testing::Test {
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
    }
};

TYPED_TEST_SUITE(GroupApplyRaceArmed, FastPathPtms);

TYPED_TEST(GroupApplyRaceArmed, DisjointWritersFormBatchesWithoutRaces) {
    using E = TypeParam;
    using PU = typename E::template p<uint64_t>;
    UpdateConfigGuard update_guard;
    update_config().fastpath = true;
    EngineSession<E> session(16u << 20, std::string("group_race_") + E::name());
    PU* arr = nullptr;
    E::updateTx([&] {
        arr = static_cast<PU*>(E::alloc_bytes(64 * 64));
        for (int i = 0; i < 64; ++i) arr[i * 8] = 0u;
        E::put_object(2, arr);
    });

    constexpr int kWriters = 3;
    // Run until some window has carried two write sets (and at least
    // kMinRounds each), bounded by kMaxRounds.
    constexpr uint64_t kMinRounds = 100, kMaxRounds = 20000;
    std::atomic<bool> stop{false}, multi{false};
    std::atomic<uint64_t> windows{0}, sets{0};
    uint64_t rounds[kWriters] = {};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            while (!stop.load()) {
                uint64_t sum = 0;
                E::readTx([&] {
                    sum = 0;
                    for (int w = 0; w < kWriters; ++w) sum += arr[w * 8].pload();
                });
                (void)sum;
            }
        });
    }
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            const pmem::CommitStats& cs = pmem::tl_commit_stats();
            const uint64_t b0 = cs.fastpath_batches, s0 = cs.fastpath_batched;
            uint64_t r = 0;
            while (r < kMaxRounds && (r < kMinRounds || !multi.load())) {
                E::updateTx([&] { arr[w * 8] = arr[w * 8].pload() + 1; });
                ++r;
                if (cs.fastpath_batched - s0 > cs.fastpath_batches - b0)
                    multi.store(true);
            }
            rounds[w] = r;
            windows += cs.fastpath_batches - b0;
            sets += cs.fastpath_batched - s0;
        });
    }
    for (auto& t : writers) t.join();
    stop.store(true);
    for (auto& t : readers) t.join();

    for (int w = 0; w < kWriters; ++w) {
        uint64_t v = 0;
        E::readTx([&] { v = arr[w * 8].pload(); });
        EXPECT_EQ(v, rounds[w]) << "slot " << w;
    }
    EXPECT_TRUE(multi.load()) << "no apply window carried two write sets";
    EXPECT_GT(sets.load(), windows.load());
    auto& d = analysis::RaceDetector::instance();
    EXPECT_EQ(d.race_count(), 0u) << d.report_text();
}
#endif  // ROMULUS_RACECHECK

// ------------------------------------------------------- env knob parsing

TEST(EnvTuning, SharedParserRejectsMalformedValues) {
    long v = 123;
    EXPECT_FALSE(parse_env_long(nullptr, 0, &v));
    EXPECT_FALSE(parse_env_long("", 0, &v));
    EXPECT_FALSE(parse_env_long("abc", 0, &v));     // atol would yield 0
    EXPECT_FALSE(parse_env_long("12x", 0, &v));     // trailing garbage
    EXPECT_FALSE(parse_env_long("1.5", 0, &v));     // not an integer
    EXPECT_FALSE(parse_env_long("9999999999999999999999", 0, &v));  // ERANGE
    EXPECT_FALSE(parse_env_long("-3", 0, &v));      // below the floor
    EXPECT_EQ(v, 123);                              // *out untouched
    EXPECT_TRUE(parse_env_long("42", 1, &v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parse_env_long(" 7 ", 0, &v));      // blanks tolerated
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(parse_env_long("0", 0, &v));
    EXPECT_EQ(v, 0);
}

TEST(EnvTuning, NtThresholdSpellsEveryStreamingPathOff) {
    uint64_t v = 5;
    EXPECT_FALSE(parse_env_u64("-1", &v));  // not wrapped to 2^64 - 1
    EXPECT_FALSE(parse_env_u64(" -1", &v));
    EXPECT_FALSE(parse_env_u64("18446744073709551616", &v));  // ERANGE
    EXPECT_FALSE(parse_env_u64("7x", &v));
    EXPECT_EQ(v, 5u);
    CommitConfigGuard guard;
    ::setenv("ROMULUS_NT_THRESHOLD", "18446744073709551615", 1);
    const std::string applied = apply_env_tuning();
    ::unsetenv("ROMULUS_NT_THRESHOLD");
    EXPECT_EQ(pmem::commit_config().nt_threshold, SIZE_MAX);
    EXPECT_NE(applied.find("ROMULUS_NT_THRESHOLD=18446744073709551615"),
              std::string::npos)
        << applied;
}

TEST(EnvTuning, MalformedFastPathKnobsLeaveDefaults) {
    UpdateConfigGuard guard;
    const UpdateConfig before = update_config();
    ::setenv("ROMULUS_UPDATE_FASTPATH", "banana", 1);
    ::setenv("ROMULUS_UPDATE_MAX_LINES", "8x", 1);
    const std::string applied = apply_env_tuning();
    ::unsetenv("ROMULUS_UPDATE_FASTPATH");
    ::unsetenv("ROMULUS_UPDATE_MAX_LINES");
    EXPECT_EQ(update_config().fastpath, before.fastpath);
    EXPECT_EQ(update_config().max_fastpath_lines, before.max_fastpath_lines);
    EXPECT_EQ(applied.find("ROMULUS_UPDATE_"), std::string::npos) << applied;
}

TEST(EnvTuning, WellFormedFastPathKnobsApply) {
    UpdateConfigGuard guard;
    ::setenv("ROMULUS_UPDATE_FASTPATH", "0", 1);
    ::setenv("ROMULUS_UPDATE_MAX_LINES", "16", 1);
    const std::string applied = apply_env_tuning();
    ::unsetenv("ROMULUS_UPDATE_FASTPATH");
    ::unsetenv("ROMULUS_UPDATE_MAX_LINES");
    EXPECT_FALSE(update_config().fastpath);
    EXPECT_EQ(update_config().max_fastpath_lines, 16u);
    EXPECT_NE(applied.find("ROMULUS_UPDATE_FASTPATH=0"), std::string::npos)
        << applied;
}

// -------------------------------------------------- fast-path crash sweeps

/// A trace whose updates mostly overwrite a tiny hot key set with same-size
/// (0/1-byte) values: the KV store reuses the value buffer in place, so the
/// transaction neither allocates nor overflows and commits through the
/// stripe fast path.  New-key puts and buffer reallocations keep a healthy
/// share of slow-path commits in the same history, so the sweep crosses
/// both commit protocols and their interleavings.
template <typename E>
analysis::TxTrace fastpath_trace() {
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 14;
    g.key_space = 4;
    g.value_max = 1;
    g.put_pct = 85;
    g.del_pct = 0;
    g.get_pct = 15;  // remainder 0: no cross-shard batches
    g.skew_draws = 1;
    return analysis::generate_trace(
        g, /*seed=*/20260808, /*shard_count=*/1,
        analysis::engine_id_of<E>(),
        [](std::string_view) { return 0u; });
}

template <typename E>
class StripeFastPathCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(StripeFastPathCrash, FastPathPtms);

TYPED_TEST(StripeFastPathCrash, EveryFenceCrashRecoversWithFastPathArmed) {
    using E = TypeParam;
    const std::string path =
        test::heap_path(std::string("fp_crash_") + E::name());
    pmem::SimPersistence::Options opts{pmem::FlushContent::AtFence, 0.0, 7};
    test::run_trace_fence_sweep_fastpath<E>(fastpath_trace<E>(), path, opts);
}
