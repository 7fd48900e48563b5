// Commit-pipeline overhaul tests: coalesced range-log runs, the
// persist_copy non-temporal replication primitive, the hook-free pwb_range
// fast path and the deferred used_size write-back.
//
// Three layers of coverage:
//   1. persist_copy unit semantics against SimPersistence directly (data
//      copied, lines pending until the next fence, both FlushContent modes,
//      at most one real pwb — the cached sub-16 B tail).
//   2. Whole-engine soundness with the streaming path *forced on*: the
//      PersistencyChecker must stay clean and the crash-injection sweep
//      must recover all-or-nothing on every Romulus variant, under both
//      flush-content semantics.
//   3. Streamed store_range payloads (DESIGN.md §4.6): the whole lines of
//      a large unaligned payload go to main with non-temporal stores, so
//      only its head/tail lines and the protocol words are written back —
//      counted exactly, checker-clean, crash-swept, and reproducing the
//      all-cached counts with the streaming threshold off.
//   4. The acceptance criterion of the commit-path overhaul: a sequential
//      8 KB-write transaction on the CLWB-or-fallback profile issues >= 30 %
//      fewer pwbs with the streaming commit path than with every store
//      cached (nt_threshold = SIZE_MAX), verified via Stats and CommitStats
//      counters.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/tx_trace.hpp"
#include "fence_sweep.hpp"
#include "pmem/checker.hpp"
#include "pmem/sim_persistence.hpp"
#include "ptm_types.hpp"
#include "test_support.hpp"

using namespace romulus;

namespace {

/// RAII: commit-pipeline tuning for the duration of a test.
struct CommitConfigGuard {
    pmem::CommitConfig saved = pmem::commit_config();
    ~CommitConfigGuard() { pmem::commit_config() = saved; }
};

/// The commit path with streaming forced on for even the smallest runs.
void select_streaming_commit_path() {
    pmem::commit_config().nt_threshold = 16;
}

using RomulusPtms = ::testing::Types<RomulusNL, RomulusLog, RomulusLR>;

// ------------------------------------------------------------ persist_copy

class PersistCopyTest : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TEST_F(PersistCopyTest, CopiesBytesAndPendsLinesUntilFence) {
    for (auto content : {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
        CommitConfigGuard guard;
        select_streaming_commit_path();
        constexpr size_t kBytes = 4096;
        alignas(64) static uint8_t dst[kBytes];
        std::vector<uint8_t> src(kBytes);
        for (size_t i = 0; i < kBytes; ++i) src[i] = uint8_t(i * 31 + 7);
        std::memset(dst, 0, kBytes);

        pmem::SimPersistence sim(dst, kBytes, {content, 0.0, 1});
        pmem::set_sim_hooks(&sim);
        const uint64_t pwb_before = pmem::tl_stats().pwb;
        pmem::persist_copy(dst, src.data(), kBytes);
        // The live content is in place immediately...
        EXPECT_EQ(std::memcmp(dst, src.data(), kBytes), 0);
        // ...observed by the model as store+pwb per line (pending, not
        // dirty), and without a single real pwb instruction (no tail here).
        EXPECT_EQ(sim.dirty_line_count(), 0u);
        EXPECT_EQ(sim.pending_line_count(), kBytes / 64);
        EXPECT_EQ(pmem::tl_stats().pwb, pwb_before);
        // A crash before the fence may lose everything streamed...
        pmem::psync();  // ...but after the fence it is persistent.
        pmem::set_sim_hooks(nullptr);
        sim.crash_restore();
        EXPECT_EQ(std::memcmp(dst, src.data(), kBytes), 0);
    }
}

TEST_F(PersistCopyTest, UnalignedTailTakesTheCachedPwbPath) {
    CommitConfigGuard guard;
    select_streaming_commit_path();
    constexpr size_t kBytes = 1024;
    alignas(64) static uint8_t dst[kBytes];
    std::vector<uint8_t> src(kBytes, 0xAB);
    std::memset(dst, 0, kBytes);

    pmem::SimPersistence sim(dst, kBytes, {pmem::FlushContent::AtPwb, 0.0, 1});
    pmem::set_sim_hooks(&sim);
    pmem::reset_tl_commit_stats();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    pmem::persist_copy(dst, src.data(), 777);  // 768 streamed + 9 cached
    EXPECT_EQ(std::memcmp(dst, src.data(), 777), 0);
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before + 1);  // exactly the tail line
    EXPECT_EQ(pmem::tl_commit_stats().nt_bytes, 768u);
    EXPECT_EQ(pmem::tl_commit_stats().cached_bytes, 9u);
    pmem::pfence();
    pmem::set_sim_hooks(nullptr);
    sim.crash_restore();
    EXPECT_EQ(std::memcmp(dst, src.data(), 777), 0);
}

TEST_F(PersistCopyTest, BelowThresholdFallsBackToCachedReplication) {
    CommitConfigGuard guard;
    pmem::commit_config().nt_threshold = 4096;
    alignas(64) static uint8_t dst[256];
    std::vector<uint8_t> src(256, 0x5C);
    pmem::reset_tl_commit_stats();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    pmem::persist_copy(dst, src.data(), 256);
    EXPECT_EQ(std::memcmp(dst, src.data(), 256), 0);
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before + 4);  // classic one pwb/line
    EXPECT_EQ(pmem::tl_commit_stats().nt_bytes, 0u);
    EXPECT_EQ(pmem::tl_commit_stats().cached_bytes, 256u);
}

// ----------------------------------------------- deferred used_size pwb

TEST(CommitPathDeferredUsed, AllocationsPayNoPerGrowthPwb) {
    test::ProfileGuard profile(pmem::Profile::NOP);
    using E = RomulusLog;
    test::EngineSession<E> session(16u << 20, "cpath_used");
    E::begin_transaction();
    const uint64_t pwb_before = pmem::tl_stats().pwb;
    std::vector<void*> ptrs;
    for (int i = 0; i < 32; ++i) ptrs.push_back(E::alloc_bytes(200));
    // Every allocation above carved fresh wilderness and grew used_size,
    // yet none of them issued a write-back: the pwb is owed at commit.
    EXPECT_EQ(pmem::tl_stats().pwb, pwb_before);
    E::end_transaction();
    EXPECT_GT(pmem::tl_stats().pwb, pwb_before);
    // The grown bound is real and commit made it durable (recovery-visible).
    EXPECT_GE(E::used_bytes(), 32u * 200u);
}

// --------------------------------------- checker soundness, streaming on

template <typename E>
class CommitPathChecker : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(CommitPathChecker, RomulusPtms);

TYPED_TEST(CommitPathChecker, StreamingCommitStaysDisciplineClean) {
    using E = TypeParam;
    for (auto content :
         {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
        CommitConfigGuard guard;
        select_streaming_commit_path();
        test::EngineSession<E> session(16u << 20, "cpath_chk");
        using PU = typename E::template p<uint64_t>;
        PU* arr = nullptr;
        uint8_t* buf = nullptr;
        E::updateTx([&] {
            arr = static_cast<PU*>(E::alloc_bytes(sizeof(PU) * 512));
            buf = static_cast<uint8_t*>(E::alloc_bytes(2048));
            E::zero_range(buf, 2048);
        });

        auto layout = pmem::PersistencyChecker::template layout_of<E>();
        pmem::PersistencyChecker::Options opts;
        opts.content = content;
        opts.require_log = !std::is_same_v<E, RomulusNL>;
        pmem::PersistencyChecker checker(layout, opts);
        pmem::set_sim_hooks(&checker);
        for (int r = 0; r < 4; ++r) {
            E::updateTx([&] {
                for (int i = 0; i < 512; ++i) arr[i] = uint64_t(r * i);
                std::vector<uint8_t> pat(512, uint8_t(r + 1));
                E::store_range(buf + (r % 4) * 512, pat.data(), 512);
                (void)E::alloc_bytes(4096);  // grows used_size mid-tx
            });
        }
        pmem::set_sim_hooks(nullptr);
        EXPECT_TRUE(checker.clean()) << checker.report();
        const auto diag = checker.diagnostics();
        EXPECT_EQ(diag.tx_commits, 4u);
    }
}

// ------------------------------------------ crash injection, streaming on
//
// Trace-driven every-fence sweep (tests/fence_sweep.hpp): a generated KV
// history whose value sizes force multi-line store_range runs through the
// streaming replication path on every commit — the coverage the old
// hand-written stripe workload provided, now checked by the romfuzz model
// oracle instead of a bespoke verify body.

/// Values up to 1.5 KB (well past the streaming nt_threshold of 16 forced
/// below) with a small hot key set, so most PUTs overwrite existing
/// multi-line buffers and DELs recycle them through the allocator.
template <typename E>
analysis::TxTrace streaming_trace(unsigned shards) {
    analysis::GenConfig g;
    g.setup_ops = 0;  // every sub-tx is part of the prefix-checked history
    g.episode_ops = 9;
    g.key_space = 10;
    g.value_max = 1536;
    g.put_pct = 70;
    g.del_pct = 10;
    g.get_pct = 5;
    g.batch_ops = 3;
    return analysis::generate_trace(
        g, /*seed=*/20240807, shards, analysis::engine_id_of<E>(),
        [shards](std::string_view key) {
            return db::shard_for_key(key, shards);
        });
}

template <typename E>
void run_streaming_crash_sweep(pmem::FlushContent content) {
    CommitConfigGuard guard;
    select_streaming_commit_path();
    const std::string path =
        test::heap_path(std::string("cpath_crash_") + E::name());
    pmem::SimPersistence::Options opts{content, 0.0, 7};
    test::run_trace_fence_sweep<E>(streaming_trace<E>(2), path, opts);
}

template <typename E>
class CommitPathCrash : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(CommitPathCrash, RomulusPtms);

TYPED_TEST(CommitPathCrash, EveryFenceCrashRecovers_NT_AtFence) {
    run_streaming_crash_sweep<TypeParam>(pmem::FlushContent::AtFence);
}

TYPED_TEST(CommitPathCrash, EveryFenceCrashRecovers_NT_AtPwb) {
    run_streaming_crash_sweep<TypeParam>(pmem::FlushContent::AtPwb);
}

// ------------------------------------------- streamed store_range payloads
//
// An 8 KB+ store_range at 8 mod 16 (where every allocator payload sits) on
// the default threshold: the partial head and tail lines take the cached
// path, the whole lines between them stream into main and enter the log
// copy-only.  Each transaction also pstores one word into a streamed line,
// which must still get its own pwb and reach back.

constexpr size_t kPayloadBytes = 8200;
constexpr size_t kPstoreLine = 10;  ///< streamed line (from the first whole
                                    ///< line) the follow-up pstore hits
constexpr uint64_t kPstoreValue = 0x5A5A5A5A12345678ull;

/// Line arithmetic of a payload [buf, buf+n).
struct PayloadShape {
    uintptr_t first_whole = 0;  ///< first line-aligned address in the payload
    size_t body = 0;            ///< bytes in whole lines (the streamed part)
    unsigned edge_lines = 0;    ///< partial head + partial tail lines
    unsigned lines = 0;         ///< every line the payload touches

    PayloadShape(const uint8_t* buf, size_t n) {
        const auto a = reinterpret_cast<uintptr_t>(buf);
        first_whole = (a + 63) & ~uintptr_t{63};
        const uintptr_t last_whole = (a + n) & ~uintptr_t{63};
        body = last_whole - first_whole;
        edge_lines =
            unsigned(a != first_whole) + unsigned(a + n != last_whole);
        const uintptr_t end_line = (a + n + 63) & ~uintptr_t{63};
        lines = unsigned((end_line - (a & ~uintptr_t{63})) / 64);
    }
};

std::vector<uint8_t> payload_pattern(uint8_t salt) {
    std::vector<uint8_t> v(kPayloadBytes);
    for (size_t i = 0; i < v.size(); ++i) v[i] = uint8_t(i * 13 + salt);
    return v;
}

/// The payload bytes a committed payload_tx(pattern) leaves behind.
std::vector<uint8_t> expected_payload(const uint8_t* buf, uint8_t salt) {
    std::vector<uint8_t> v = payload_pattern(salt);
    const PayloadShape shape(buf, kPayloadBytes);
    const size_t at =
        shape.first_whole + kPstoreLine * 64 - reinterpret_cast<uintptr_t>(buf);
    std::memcpy(v.data() + at, &kPstoreValue, sizeof(kPstoreValue));
    return v;
}

/// Set up a payload holding pattern `salt`, committed, published as root 0.
template <typename E>
uint8_t* make_payload(uint8_t salt) {
    E::begin_transaction();
    // Ballast: full_copy_threshold() is used_size/2, so on a near-empty heap
    // an 8 KB transaction would put the log in full-copy mode.
    (void)E::alloc_bytes(64 * 1024);
    auto* buf = static_cast<uint8_t*>(E::alloc_bytes(kPayloadBytes));
    const std::vector<uint8_t> old = payload_pattern(salt);
    E::store_range(buf, old.data(), old.size());
    E::put_object(0, buf);
    E::end_transaction();
    return buf;
}

struct PayloadTxCost {
    uint64_t pwbs;
    uint64_t nt_bytes;
};

/// One transaction: store_range the whole payload with pattern `salt`, then
/// pstore one word into a streamed line.
template <typename E>
PayloadTxCost payload_tx(uint8_t* buf, uint8_t salt) {
    using PU = typename E::template p<uint64_t>;
    const std::vector<uint8_t> pat = payload_pattern(salt);
    const PayloadShape shape(buf, pat.size());
    const uint64_t pwb0 = pmem::tl_stats().pwb;
    const uint64_t nt0 = pmem::tl_commit_stats().nt_bytes;
    E::begin_transaction();
    E::store_range(buf, pat.data(), pat.size());
    *reinterpret_cast<PU*>(shape.first_whole + kPstoreLine * 64) = kPstoreValue;
    E::end_transaction();
    return {pmem::tl_stats().pwb - pwb0,
            pmem::tl_commit_stats().nt_bytes - nt0};
}

template <typename E>
bool back_matches_main(const uint8_t* buf, size_t n) {
    const size_t off = size_t(buf - E::main_base());
    return std::memcmp(E::back_base() + off, buf, n) == 0;
}

template <typename E>
class StreamedPayload : public ::testing::Test {
  protected:
    void SetUp() override { pmem::set_profile(pmem::Profile::NOP); }
    void TearDown() override { pmem::set_sim_hooks(nullptr); }
};

TYPED_TEST_SUITE(StreamedPayload, RomulusPtms);

TYPED_TEST(StreamedPayload, OnlyEdgeLinesAndProtocolWordsAreWrittenBack) {
    using E = TypeParam;
    test::EngineSession<E> session(16u << 20, "cpath_payload");
    uint8_t* buf = make_payload<E>(1);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(buf) % 16, 8u);
    const PayloadShape shape(buf, kPayloadBytes);
    ASSERT_GE(shape.body, 8192u - 64u);

    const PayloadTxCost c = payload_tx<E>(buf, 2);
    // MUT, CPY and IDL state words + the partial head/tail lines + the
    // pstored streamed line: nothing else, on every variant (NL's full
    // back copy streams too).
    EXPECT_EQ(c.pwbs, 3u + shape.edge_lines + 1u);
    // The interior streamed into main, and again into back.
    EXPECT_GE(c.nt_bytes, 2 * shape.body);
    const std::vector<uint8_t> want = expected_payload(buf, 2);
    EXPECT_EQ(std::memcmp(buf, want.data(), want.size()), 0);
    EXPECT_TRUE(back_matches_main<E>(buf, kPayloadBytes));
}

TYPED_TEST(StreamedPayload, ThresholdOffReproducesAllCachedPwbCounts) {
    using E = TypeParam;
    CommitConfigGuard guard;
    pmem::commit_config().nt_threshold = SIZE_MAX;
    test::EngineSession<E> session(16u << 20, "cpath_payload_off");
    uint8_t* buf = make_payload<E>(1);
    const PayloadShape shape(buf, kPayloadBytes);

    const PayloadTxCost c = payload_tx<E>(buf, 2);
    // Every touched line is written back twice (main flush, cached back
    // copy) on the logging variants; NL writes each store back eagerly
    // (the pstore included) and copies the whole used area.
    uint64_t want = 3 + 2 * uint64_t(shape.lines);
    if constexpr (std::is_same_v<E, RomulusNL>)
        want = 3 + shape.lines + 1 + (E::used_bytes() + 63) / 64;
    EXPECT_EQ(c.pwbs, want);
    EXPECT_EQ(c.nt_bytes, 0u);
    EXPECT_TRUE(back_matches_main<E>(buf, kPayloadBytes));
}

TYPED_TEST(StreamedPayload, CheckerStaysCleanUnderBothFlushContents) {
    using E = TypeParam;
    for (auto content :
         {pmem::FlushContent::AtFence, pmem::FlushContent::AtPwb}) {
        test::EngineSession<E> session(16u << 20, "cpath_payload_chk");
        uint8_t* buf = make_payload<E>(1);
        pmem::PersistencyChecker::Options opts;
        opts.content = content;
        opts.require_log = !std::is_same_v<E, RomulusNL>;
        pmem::PersistencyChecker checker(
            pmem::PersistencyChecker::template layout_of<E>(), opts);
        pmem::set_sim_hooks(&checker);
        payload_tx<E>(buf, 2);
        payload_tx<E>(buf, 3);
        pmem::set_sim_hooks(nullptr);
        EXPECT_TRUE(checker.clean()) << checker.report();
        EXPECT_EQ(checker.diagnostics().tx_commits, 2u);
        EXPECT_TRUE(back_matches_main<E>(buf, kPayloadBytes));
    }
}

/// Crash the payload transaction at every fence (tests/fence_sweep.hpp's
/// injector), recover, and require the payload to be all old or all new.
template <typename E>
void sweep_streamed_payload(pmem::FlushContent content) {
    const std::string path =
        test::heap_path(std::string("cpath_payload_crash_") + E::name());
    constexpr size_t kHeap = 16u << 20;
    int crashes = 0;
    for (uint64_t k = 1;; ++k) {
        std::remove(path.c_str());
        E::init(kHeap, path);
        uint8_t* buf = make_payload<E>(1);
        const std::vector<uint8_t> old_bytes = payload_pattern(1);
        const std::vector<uint8_t> new_bytes = expected_payload(buf, 2);
        test::FenceCrashSim sim(E::region().base(), E::region().size(),
                                {content, 0.0, 7});
        sim.crash_at = k;
        bool did_crash = false;
        pmem::set_sim_hooks(&sim);
        try {
            payload_tx<E>(buf, 2);
        } catch (const test::CrashPoint&) {
            did_crash = true;
        }
        pmem::set_sim_hooks(nullptr);
        if (did_crash) {
            ++crashes;
            E::crash_reset_for_tests();
            sim.model().crash_restore();
        }
        E::close();
        if (did_crash) E::crash_reset_for_tests();
        E::init(kHeap, path);  // recovery runs on the surviving image

        if (analysis::RecoveryCheck rc = analysis::check_twin_halves<E>();
            !rc.ok) {
            ADD_FAILURE() << "fence " << k << ": " << rc.detail;
        }
        const uint8_t* got = E::template get_object<uint8_t>(0);
        ASSERT_EQ(got, buf) << "fence " << k;
        const bool is_old =
            std::memcmp(got, old_bytes.data(), kPayloadBytes) == 0;
        const bool is_new =
            std::memcmp(got, new_bytes.data(), kPayloadBytes) == 0;
        EXPECT_TRUE(is_old || is_new) << "fence " << k << ": torn payload";
        if (!did_crash) {
            EXPECT_TRUE(is_new);
        }
        E::destroy();
        if (!did_crash) break;
    }
    EXPECT_GE(crashes, 4);  // MUT, commit, CPY and IDL fences
}

TYPED_TEST(StreamedPayload, EveryFenceCrashIsAllOldOrAllNew_AtFence) {
    sweep_streamed_payload<TypeParam>(pmem::FlushContent::AtFence);
}

TYPED_TEST(StreamedPayload, EveryFenceCrashIsAllOldOrAllNew_AtPwb) {
    sweep_streamed_payload<TypeParam>(pmem::FlushContent::AtPwb);
}

// ------------------------------------------------- acceptance criterion

TEST(CommitPathAcceptance, Sequential8KBTxNeedsFarFewerPwbs) {
    // CLWB-or-fallback profile, as the acceptance criterion specifies
    // (set_profile degrades CLWB -> CLFLUSHOPT -> CLFLUSH on older CPUs).
    test::ProfileGuard profile(pmem::Profile::CLWB);
    using E = RomulusLog;
    test::EngineSession<E> session(64u << 20, "cpath_accept");
    using PU = E::p<uint64_t>;
    constexpr size_t kWords = 8192 / sizeof(uint64_t);
    PU* arr = nullptr;
    E::updateTx([&] {
        // Ballast: full_copy_threshold() is used_size/2, so on a near-empty
        // heap an 8 KB transaction would degrade the log to full-copy mode
        // and the merged-run path (what this test measures) would never run.
        (void)E::alloc_bytes(64 * 1024);
        arr = static_cast<PU*>(E::alloc_bytes(8192));
        for (size_t i = 0; i < kWords; ++i) arr[i] = 0u;
    });

    auto run_tx = [&](uint64_t seed) {
        E::updateTx([&] {
            for (size_t i = 0; i < kWords; ++i) arr[i] = seed + i;
        });
    };
    // pwbs per transaction under the given streaming threshold; the commit
    // counters are reset too, so they describe the last pipeline measured.
    constexpr uint64_t kReps = 100;
    auto pwbs_per_tx = [&](size_t nt_threshold) -> uint64_t {
        pmem::commit_config().nt_threshold = nt_threshold;
        run_tx(1);  // warm-up under the selected path
        pmem::reset_tl_stats();
        pmem::reset_tl_commit_stats();
        for (uint64_t r = 0; r < kReps; ++r) run_tx(r);
        return pmem::tl_stats().pwb / kReps;
    };
    CommitConfigGuard guard;
    const uint64_t cached_pwb = pwbs_per_tx(SIZE_MAX);
    const uint64_t stream_pwb = pwbs_per_tx(pmem::CommitConfig{}.nt_threshold);

    std::printf("  8KB sequential tx (%s): all-cached %llu pwbs, "
                "streaming %llu pwbs\n",
                pmem::profile_name(pmem::effective_profile()),
                (unsigned long long)cached_pwb,
                (unsigned long long)stream_pwb);

    // >= 30 % fewer pwb invocations (measured: ~50 % — the whole back
    // replica streams instead of paying one pwb per line).
    EXPECT_LE(stream_pwb * 10, cached_pwb * 7)
        << "streaming commit path must cut pwbs by >= 30%";

    // The CommitStats accessor explains where the savings came from.
    const auto& cs = pmem::tl_commit_stats();
    EXPECT_GE(cs.commits, kReps);
    EXPECT_GE(cs.lines_logged, kReps * 128u);
    EXPECT_GT(cs.lines_merged(), 0u);
    EXPECT_GT(cs.avg_run_lines(), 64.0);  // 8 KB coalesces into one long run
    EXPECT_GT(cs.nt_bytes, kReps * 8192u / 2);
}

}  // namespace
