// Microbenchmarks of the substrate primitives (google-benchmark): the raw
// cost of pwb under each flush backend, fence costs, persist<T> store/load
// interposition overhead (in a transaction and inside a fast-path
// speculation, DESIGN.md §4.11), allocator throughput, the synchronization
// constructs, and one remove+add pair on each 1,000-entry structure.  These
// calibrate the figure benches: e.g. §6.2's observation that with CLFLUSH
// "performance is mainly dominated by the number of pwb instructions per
// transaction".
//
// Every case must run to completion: a benchmark loop runs inside a
// transaction only where that transaction never re-runs its body
// (begin_transaction/end_transaction), or where a re-run is reported with
// SkipWithError instead of re-entering the loop.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "ds/hash_map.hpp"
#include "ds/linked_list_set.hpp"
#include "ds/rb_tree.hpp"
#include "sync/crwwp.hpp"
#include "sync/left_right.hpp"

using namespace romulus;
using namespace romulus::bench;

namespace {

// One shared heap per engine for the whole binary (benchmark re-runs each
// case), with a line-aligned 1 MB buffer allocated in it.
template <typename E>
struct GlobalHeap {
    GlobalHeap() : path(bench_heap_path(std::string("prims_") + E::name())) {
        std::remove(path.c_str());
        E::init(64u << 20, path);
        E::updateTx([&] {
            const auto a = reinterpret_cast<uintptr_t>(
                E::alloc_bytes((1 << 20) + 64));
            buf = reinterpret_cast<uint8_t*>((a + 63) & ~uintptr_t{63});
        });
    }
    ~GlobalHeap() { E::destroy(); }
    std::string path;
    uint8_t* buf = nullptr;
};
template <typename E = RomulusLog>
GlobalHeap<E>& heap() {
    static GlobalHeap<E> h;
    return h;
}

void BM_pwb(benchmark::State& state, pmem::Profile prof) {
    pmem::set_profile(prof);
    uint8_t* buf = heap().buf;
    uint64_t line = 0;
    for (auto _ : state) {
        buf[line * 64] = uint8_t(line);
        pmem::pwb(buf + line * 64);
        pmem::pfence();
        line = (line + 1) % 1024;
    }
    pmem::set_profile(pmem::Profile::NOP);
}

void BM_persist_store(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    using PU = RomulusLog::p<uint64_t>;
    PU* arr = reinterpret_cast<PU*>(heap().buf);
    uint64_t i = 0;
    RomulusLog::begin_transaction();
    for (auto _ : state) {
        arr[i % 512] = i;
        ++i;
    }
    RomulusLog::end_transaction();
}

void BM_persist_load(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    using PU = RomulusLog::p<uint64_t>;
    PU* arr = reinterpret_cast<PU*>(heap().buf);
    uint64_t i = 0, sink = 0;
    for (auto _ : state) {
        sink += arr[i % 512].pload();
        ++i;
    }
    benchmark::DoNotOptimize(sink);
}

/// Run `loop` inside one fast-path updateTx on RomulusLog.  A speculation
/// that does not commit re-runs the closure on the slow path, which must
/// not re-enter the benchmark loop: the case reports an error instead.
template <typename Loop>
void in_speculation(benchmark::State& state, Loop&& loop) {
    const uint64_t commits0 = pmem::tl_commit_stats().fastpath_commits;
    int runs = 0;
    RomulusLog::updateTx([&] {
        if (runs++ == 0) loop();
    });
    if (pmem::tl_commit_stats().fastpath_commits != commits0 + 1)
        state.SkipWithError("the speculation did not commit");
}

/// BM_persist_store's loop inside a speculation, over 8 lines: the write
/// set's cap (SpecBuffer::kWriteCap), so the speculation commits.
void BM_spec_store(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    using PU = RomulusLog::p<uint64_t>;
    PU* arr = reinterpret_cast<PU*>(heap().buf);
    constexpr uint64_t kWords = 8 * 64 / sizeof(uint64_t);
    uint64_t i = 0;
    in_speculation(state, [&] {
        for (auto _ : state) {
            arr[i % kWords] = i;
            ++i;
        }
    });
}

/// BM_persist_load's loop inside a speculation: its 64 lines take at most
/// the read set's 64 stripe observations (SpecBuffer::kReadCap).
void BM_spec_load(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    using PU = RomulusLog::p<uint64_t>;
    PU* arr = reinterpret_cast<PU*>(heap().buf);
    uint64_t i = 0, sink = 0;
    in_speculation(state, [&] {
        for (auto _ : state) {
            sink += arr[i % 512].pload();
            ++i;
        }
    });
    benchmark::DoNotOptimize(sink);
}

/// The allocator alone: each iteration is one single-writer transaction,
/// which never runs a speculation.
void BM_alloc_free(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    const size_t sz = state.range(0);
    for (auto _ : state) {
        RomulusLog::begin_transaction();
        void* ptr = RomulusLog::alloc_bytes(sz);
        RomulusLog::free_bytes(ptr);
        RomulusLog::end_transaction();
    }
}

/// BM_remove_add's engine and structure, as a value BENCHMARK_CAPTURE can
/// pass.
template <typename E, template <typename, typename> class DS>
struct On {};

/// One remove+add pair (Figure 4's update operation: two consecutive
/// update transactions) on a 1,000-entry set, one thread, CLFLUSH.
template <typename E, template <typename, typename> class DS>
void BM_remove_add(benchmark::State& state, On<E, DS>) {
    constexpr uint64_t kKeys = 1000;
    pmem::set_profile(pmem::Profile::NOP);
    heap<E>();  // maps E's heap on first use
    using Set = DS<E, uint64_t>;
    Set* set = nullptr;
    E::updateTx([&] { set = E::template tmNew<Set>(); });
    prepopulate<E>(kKeys, [&](uint64_t i) { set->add(i * 2 + 1); });
    std::mt19937_64 rng(1);
    pmem::set_profile(pmem::Profile::CLFLUSH);
    for (auto _ : state) {
        const uint64_t k = (rng() % kKeys) * 2 + 1;
        set->remove(k);
        set->add(k);
    }
    pmem::set_profile(pmem::Profile::NOP);
    E::updateTx([&] { E::tmDelete(set); });
}

void BM_crwwp_read_lock(benchmark::State& state) {
    static sync::CRWWPLock lock;
    const int t = sync::tid();
    for (auto _ : state) {
        lock.read_lock(t);
        lock.read_unlock(t);
    }
}

void BM_leftright_arrive_depart(benchmark::State& state) {
    static sync::LeftRight lr;
    const int t = sync::tid();
    for (auto _ : state) {
        int vi = lr.arrive(t);
        benchmark::DoNotOptimize(lr.read_region());
        lr.depart(t, vi);
    }
}

/// Raise the thread registry's tid high-water mark to at least `n` by
/// briefly holding n registered threads alive at once.  max_tids() never
/// shrinks, so the writer drain below scans an n-slot indicator even though
/// the threads are gone — the long-lived-process shape (thread pools grown
/// and drained) where the drain's scan cost shows.
void inflate_max_tids(int n) {
    if (sync::max_tids() >= n) return;
    std::atomic<int> arrived{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    ts.reserve(n);
    for (int i = 0; i < n; ++i) {
        ts.emplace_back([&] {
            (void)sync::tid();
            arrived.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        });
    }
    while (arrived.load() < n) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : ts) t.join();
}

/// Writer acquire/release over an inflated (96-slot) but empty indicator:
/// the unavoidable one-pass O(max_tids) scan every drain pays.
void BM_crwwp_write_drain_empty(benchmark::State& state) {
    static sync::CRWWPLock lock;
    inflate_max_tids(96);
    for (auto _ : state) {
        lock.write_lock();
        lock.write_unlock();
    }
}

/// Same drain with one reader churning on a high slot (95 of 96): each spin
/// iteration of the resumable drain re-checks only from the busy slot
/// onward, where the old from-scratch is_empty() rescan walked all 95
/// leading empty slots per spin.
void BM_crwwp_write_drain_reader_churn(benchmark::State& state) {
    static sync::CRWWPLock lock;
    inflate_max_tids(96);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            lock.read_lock(95);
            lock.read_unlock(95);
        }
    });
    for (auto _ : state) {
        lock.write_lock();
        lock.write_unlock();
    }
    stop.store(true);
    reader.join();
}

void BM_empty_update_tx(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    for (auto _ : state) RomulusLog::updateTx([&] {});
}

void BM_read_tx(benchmark::State& state) {
    pmem::set_profile(pmem::Profile::NOP);
    for (auto _ : state) RomulusLog::readTx([&] {});
}

}  // namespace

BENCHMARK_CAPTURE(BM_pwb, nop, pmem::Profile::NOP);
BENCHMARK_CAPTURE(BM_pwb, clflush, pmem::Profile::CLFLUSH);
BENCHMARK_CAPTURE(BM_pwb, clflushopt, pmem::Profile::CLFLUSHOPT);
BENCHMARK_CAPTURE(BM_pwb, clwb, pmem::Profile::CLWB);
BENCHMARK_CAPTURE(BM_pwb, stt, pmem::Profile::STT);
BENCHMARK_CAPTURE(BM_pwb, pcm, pmem::Profile::PCM);
BENCHMARK(BM_persist_store);
BENCHMARK(BM_persist_load);
BENCHMARK(BM_spec_store);
BENCHMARK(BM_spec_load);
BENCHMARK(BM_alloc_free)->Arg(48)->Arg(256)->Arg(4096);
BENCHMARK_CAPTURE(BM_remove_add, RomulusNL/list,
                  On<RomulusNL, ds::LinkedListSet>{});
BENCHMARK_CAPTURE(BM_remove_add, RomulusNL/hashmap,
                  On<RomulusNL, ds::HashMap>{});
BENCHMARK_CAPTURE(BM_remove_add, RomulusNL/rbtree,
                  On<RomulusNL, ds::RBTree>{});
BENCHMARK_CAPTURE(BM_remove_add, RomulusLog/list,
                  On<RomulusLog, ds::LinkedListSet>{});
BENCHMARK_CAPTURE(BM_remove_add, RomulusLog/hashmap,
                  On<RomulusLog, ds::HashMap>{});
BENCHMARK_CAPTURE(BM_remove_add, RomulusLog/rbtree,
                  On<RomulusLog, ds::RBTree>{});
BENCHMARK(BM_crwwp_read_lock);
BENCHMARK(BM_leftright_arrive_depart);
BENCHMARK(BM_empty_update_tx);
BENCHMARK(BM_read_tx);
// Registered last: inflate_max_tids permanently raises the registry
// high-water, which would slow every later drain in this binary.
BENCHMARK(BM_crwwp_write_drain_empty);
BENCHMARK(BM_crwwp_write_drain_reader_churn);

int main(int argc, char** argv) {
    heap();  // initialise before benchmark touches anything
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
