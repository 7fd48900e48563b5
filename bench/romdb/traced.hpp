// Traced<E>: a forwarding PTM that times the calls KVStore and
// ShardedKVStore make into the engine, from outside the engine.
//
// It forwards exactly the static API those two templates use.  It has no
// load_range, so KVStore's `requires` probes pick the same branches as for
// E itself, and its p<T> is E's, so a KVStore<Traced<E>> has the layout of
// the KVStore<E> that RomulusDB created and can attach to the same root.
//
// Spans: the outer updateTx/readTx (nested calls pass straight through),
// each run of the caller's closure, and inside a run every
// alloc_bytes/tmNew, free_bytes/tmDelete and store_range.  A closure may run
// on the flat-combining thread, so children attach to their op through a
// thread-local current-op pointer that the closure wrapper sets, never
// through the caller's thread state.  The caller is blocked inside E while
// another thread runs its closure, so an OpRec has one writer at a time
// (the combiner's announce/mark_done release-acquire pairs order them).
//
// Every op is folded into its caller's ThreadTrace aggregates when it ends;
// one op in kSampleEvery (by the caller's op index) also keeps its spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace romdb {

inline uint64_t now_ns() {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/// The span clock.  Tracing reads it four times per op, so on x86 it is the
/// TSC (about 20 ns a read against about 35 ns for steady_clock, which
/// halved trace.overhead_frac on read_mostly); elsewhere it is steady_clock
/// ns.  TickRate converts ticks to ns.
inline uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return now_ns();
#endif
}

/// ns per tick, measured against steady_clock from construction to each
/// ns_per_tick() call.  Over a traced run (seconds) the two clock reads'
/// skew is far below 0.1% of the interval.
class TickRate {
  public:
    TickRate() : ns0_(now_ns()), t0_(ticks()) {}
    double ns_per_tick() const {
        const uint64_t ns = now_ns() - ns0_, t = ticks() - t0_;
        return t == 0 ? 1.0 : double(ns) / double(t);
    }

  private:
    uint64_t ns0_, t0_;
};

enum class SpanName : uint8_t {
    UpdateTx, ReadTx, Closure, AllocBytes, TmNew, FreeBytes, TmDelete, StoreRange
};

inline const char* span_name(SpanName n) {
    static const char* const kNames[] = {"updateTx",   "readTx",   "closure",
                                         "alloc_bytes", "tmNew",   "free_bytes",
                                         "tmDelete",   "store_range"};
    return kNames[int(n)];
}

struct Span {
    uint64_t op;
    uint64_t start, end;  ///< ticks()
    uint32_t id, parent;
    SpanName name;
};

/// Per-kind sums over finished ops (kind = the outer call: read or update).
/// Times are in ticks().
struct KindAgg {
    uint64_t ops = 0;
    uint64_t runs = 0;       ///< closure executions
    uint64_t wall = 0;       ///< outer updateTx/readTx
    uint64_t run = 0;        ///< inside closure runs
    uint64_t child = 0;      ///< alloc/free/store_range spans inside runs
    uint64_t delegated = 0;  ///< ops whose last run was on another thread

    void operator+=(const KindAgg& o) {
        ops += o.ops, runs += o.runs, wall += o.wall, run += o.run;
        child += o.child, delegated += o.delegated;
    }
};

struct CallAgg {
    uint64_t calls = 0, sum = 0;  ///< sum: ticks() over all calls
    void add(uint64_t d) { calls++, sum += d; }
    void operator+=(const CallAgg& o) { calls += o.calls, sum += o.sum; }
};

struct TraceAgg {
    KindAgg read, update;
    CallAgg alloc, free, store_range;

    void operator+=(const TraceAgg& o) {
        read += o.read, update += o.update;
        alloc += o.alloc, free += o.free, store_range += o.store_range;
    }
};

/// One caller thread's trace state.  Owned by the code driving the thread;
/// install it with TraceScope before calling into a Traced store.
struct ThreadTrace {
    static constexpr uint64_t kSampleEvery = 16;
    static constexpr size_t kSpanCap = 1 << 15;  ///< sampled spans kept

    explicit ThreadTrace(uint64_t thread_index) : id_base(thread_index << 40) {
        spans.reserve(kSpanCap);
    }

    TraceAgg agg;
    std::vector<Span> spans;
    uint64_t dropped_spans = 0;
    uint64_t id_base;
    uint64_t next_op = 0;
};

namespace detail {
struct OpRec {
    uint64_t id;
    const void* caller;        ///< identity of the calling thread
    const void* last_runner;   ///< identity of the thread that last ran f
    uint32_t next_span = 1;    ///< span 0 is the outer call
    uint32_t cur_run = 0;      ///< span id of the running closure
    ThreadTrace* sink;         ///< caller's trace; spans only when sampled
    bool sampled;
    KindAgg kind;
    CallAgg alloc, free, store_range;

    void span(SpanName n, uint32_t sid, uint32_t parent, uint64_t t0, uint64_t t1) {
        if (!sampled) return;
        if (sink->spans.size() < sink->spans.capacity()) {
            sink->spans.push_back(Span{id, t0, t1, sid, parent, n});
        } else {
            sink->dropped_spans++;
        }
    }
};

inline thread_local ThreadTrace* tl_trace = nullptr;
inline thread_local OpRec* tl_op = nullptr;  ///< op whose closure runs here

/// A per-thread address: cheaper than a registry lookup as thread identity.
inline const void* self() { return &tl_op; }
}  // namespace detail

class TraceScope {
  public:
    explicit TraceScope(ThreadTrace& t) : saved_(detail::tl_trace) {
        detail::tl_trace = &t;
    }
    ~TraceScope() { detail::tl_trace = saved_; }
    TraceScope(const TraceScope&) = delete;
    TraceScope& operator=(const TraceScope&) = delete;

  private:
    ThreadTrace* saved_;
};

template <typename E>
struct Traced {
    template <typename T>
    using p = typename E::template p<T>;

    static unsigned shard_count() { return E::shard_count(); }

    template <typename T>
    static T* get_object(int idx, unsigned sd) {
        return E::template get_object<T>(idx, sd);
    }
    static void put_object(int idx, void* ptr, unsigned sd) {
        E::put_object(idx, ptr, sd);
    }

    template <typename F>
    static void updateTx(F&& f) {
        if (detail::tl_op != nullptr) return E::updateTx(std::forward<F>(f));
        updateTx(0u, std::forward<F>(f));
    }
    template <typename F>
    static void updateTx(unsigned sd, F&& f) {
        if (detail::tl_op != nullptr) return E::updateTx(sd, std::forward<F>(f));
        outer(SpanName::UpdateTx, [&](auto&& run) { E::updateTx(sd, run); }, f);
    }

    template <typename F>
    static void readTx(F&& f) {
        if (detail::tl_op != nullptr) return E::readTx(std::forward<F>(f));
        readTx(0u, std::forward<F>(f));
    }
    template <typename F>
    static void readTx(unsigned sd, F&& f) {
        if (detail::tl_op != nullptr) return E::readTx(sd, std::forward<F>(f));
        outer(SpanName::ReadTx, [&](auto&& run) { E::readTx(sd, run); }, f);
    }

    template <typename T, typename... Args>
    static T* tmNew(Args&&... args) {
        return child(SpanName::TmNew, &detail::OpRec::alloc, [&] {
            return E::template tmNew<T>(std::forward<Args>(args)...);
        });
    }
    template <typename T>
    static void tmDelete(T* obj) {
        child(SpanName::TmDelete, &detail::OpRec::free,
              [&] { E::template tmDelete<T>(obj); });
    }
    static void* alloc_bytes(size_t n) {
        return child(SpanName::AllocBytes, &detail::OpRec::alloc,
                     [&] { return E::alloc_bytes(n); });
    }
    static void free_bytes(void* ptr) {
        child(SpanName::FreeBytes, &detail::OpRec::free,
              [&] { E::free_bytes(ptr); });
    }
    static void store_range(void* dst, const void* src, size_t n) {
        child(SpanName::StoreRange, &detail::OpRec::store_range,
              [&] { E::store_range(dst, src, n); });
    }

  private:
    /// Outer transaction: an OpRec on the caller's stack, a wrapper that
    /// times every run of `f` wherever it executes, and the fold into the
    /// caller's aggregates at the end.
    template <typename Call, typename F>
    static void outer(SpanName name, Call&& call, F& f) {
        if (detail::tl_trace == nullptr) return call(f);  // no TraceScope
        ThreadTrace& tt = *detail::tl_trace;
        const uint64_t idx = tt.next_op++;
        detail::OpRec op{tt.id_base | idx, detail::self(), nullptr, 1, 0, &tt,
                         idx % ThreadTrace::kSampleEvery == 0, {}, {}, {}, {}};
        auto run = [&op, &f] {
            struct RunScope {
                detail::OpRec& op;
                detail::OpRec* saved = detail::tl_op;
                uint32_t saved_run = op.cur_run;
                uint32_t id = op.next_span++;
                uint64_t t0 = ticks();
                explicit RunScope(detail::OpRec& o) : op(o) {
                    detail::tl_op = &op;
                    op.cur_run = id;
                }
                ~RunScope() {
                    const uint64_t t1 = ticks();
                    op.kind.runs++;
                    op.kind.run += t1 - t0;
                    op.last_runner = detail::self();
                    op.span(SpanName::Closure, id, 0, t0, t1);
                    op.cur_run = saved_run;
                    detail::tl_op = saved;
                }
            } scope(op);
            f();
        };
        struct Fold {  // also on exceptions: the op's work still happened
            detail::OpRec& op;
            SpanName name;
            uint64_t t0 = ticks();
            ~Fold() {
                const uint64_t t1 = ticks();
                op.span(name, 0, 0, t0, t1);
                KindAgg k = op.kind;
                k.ops = 1;
                k.wall = t1 - t0;
                k.delegated = op.last_runner != op.caller ? 1 : 0;
                TraceAgg& a = op.sink->agg;
                (name == SpanName::ReadTx ? a.read : a.update) += k;
                a.alloc += op.alloc, a.free += op.free;
                a.store_range += op.store_range;
            }
        } fold{op, name};
        call(run);
    }

    /// Child span inside the closure run currently executing on this
    /// thread; plain forwarding when no traced closure is running.
    template <typename G>
    static auto child(SpanName name, CallAgg detail::OpRec::*slot, G&& g) {
        detail::OpRec* op = detail::tl_op;
        if (op == nullptr) return g();
        struct Scope {
            detail::OpRec* op;
            SpanName name;
            CallAgg detail::OpRec::*slot;
            uint32_t id = op->next_span++;
            uint64_t t0 = ticks();
            ~Scope() {
                const uint64_t t1 = ticks();
                (op->*slot).add(t1 - t0);
                op->kind.child += t1 - t0;
                op->span(name, id, op->cur_run, t0, t1);
            }
        } scope{op, name, slot};
        return g();
    }
};

}  // namespace romdb
