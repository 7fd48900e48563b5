// romdb_bench: RomulusDB end-to-end benchmark (bench/romdb/README.md).
//
//   romdb_bench --workload <read_mostly|update_heavy|churn_large> --seed <n>
//               --seconds <s> --trace <0|1> [--out <dir>]
//               [--commit <id>] [--src-digest <hex>]
//   romdb_bench --counts [--workload <name>] [--seed <n>]
//
// --trace 0 measures the end-to-end metrics on kSetups fresh heaps in turn:
// open + populate (setup_s), a warm-up, ~kWindowSeconds windows with
// kClients closed-loop clients, the space check, then crash-restart cycles
// (recover_s); each value is a median over windows, heaps or cycles.
// --trace 1 measures the per-layer metrics: the deterministic count pass,
// then alternating untraced and traced windows, the traced ones through
// ShardedKVStore<Traced<RomulusLog>>.  Every result is checked against the
// per-key oracle; the last stdout line is the JSON summary.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/romulus.hpp"
#include "db/romulusdb.hpp"
#include "latency.hpp"
#include "pmem/flush.hpp"
#include "traced.hpp"
#include "workload.hpp"

extern char** environ;

namespace romdb {
namespace {

using romulus::RomulusLog;
using romulus::db::RomulusDB;
using TracedStore = romulus::db::ShardedKVStore<Traced<RomulusLog>>;

constexpr int kSetups = 3;
constexpr double kWindowSeconds = 2.0;  ///< target length of one window
constexpr int kRestartsPerSetup = 3;
constexpr int kRestartPuts = 1000;
constexpr size_t kPopulateBatch = 256;          ///< records per populate tx
constexpr size_t kPopulateBatchBytes = 1 << 20;  ///< value bytes per populate tx
constexpr size_t kSpanFileCap = 1 << 17;  ///< sampled spans in trace-*.jsonl

// Op-stream phases: stream_seed's second argument is phase(kind, index), so
// every window, warm-up and restart cycle draws its own stream.
enum PhaseKind : uint64_t {
    kPhaseCount = 1,
    kPhaseWarmup,
    kPhaseUntraced,
    kPhaseTraced,
    kPhaseWindow,
    kPhaseRestart,
};

uint64_t phase(PhaseKind kind, uint64_t index = 0) { return kind | index << 8; }

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0;  ///< required outside --counts
    bool trace = false;
    bool counts = false;
    std::string out_dir = ".";
    std::string commit = "unknown";
    std::string src_digest = "unknown";
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "romdb_bench: %s\n"
                 "usage: romdb_bench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--commit <id>] [--src-digest <hex>]\n"
                 "       romdb_bench --counts [--workload <name>] [--seed <n>]\n",
                 why);
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--counts") {
            o.counts = true;
            continue;
        }
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty()) usage("bad --seed");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0) || o.seconds > 600)
                usage("bad --seconds");
        } else if (a == "--trace") {
            if (v != "0" && v != "1") usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out_dir = v;
        } else if (a == "--commit") {
            o.commit = v;
        } else if (a == "--src-digest") {
            o.src_digest = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!o.counts && o.workload.empty()) usage("--workload is required");
    if (!o.counts && o.seconds == 0) usage("--seconds is required");
    if (!o.workload.empty() && find_spec(o.workload) == nullptr)
        usage(("unknown workload " + o.workload).c_str());
    return o;
}

double secs_since(uint64_t t0) { return double(now_ns() - t0) * 1e-9; }

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// A memfd-backed heap file: RAM-backed like the paper's /dev/shm, leaves
/// nothing on disk, and a forked child reopens it by the same path.
class Heap {
  public:
    Heap() : fd_(::memfd_create("romdb_heap", 0)) {
        if (fd_ < 0) throw std::runtime_error("memfd_create failed");
    }
    ~Heap() { ::close(fd_); }
    Heap(const Heap&) = delete;
    Heap& operator=(const Heap&) = delete;
    std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

  private:
    int fd_;
};

void add_commit_stats(romulus::pmem::CommitStats& a,
                      const romulus::pmem::CommitStats& b, int sign) {
    auto f = [sign](uint64_t& x, uint64_t y) { x += sign > 0 ? y : -y; };
    f(a.commits, b.commits), f(a.runs, b.runs), f(a.lines_logged, b.lines_logged);
    f(a.nt_bytes, b.nt_bytes), f(a.cached_bytes, b.cached_bytes);
    f(a.fastpath_commits, b.fastpath_commits), f(a.fastpath_aborts, b.fastpath_aborts);
    f(a.fastpath_fallbacks, b.fastpath_fallbacks);
}

void add_read_stats(romulus::ReadStats& a, const romulus::ReadStats& b, int sign) {
    auto f = [sign](uint64_t& x, uint64_t y) { x += sign > 0 ? y : -y; };
    f(a.opt_commits, b.opt_commits), f(a.opt_aborts, b.opt_aborts);
    f(a.fallbacks, b.fallbacks), f(a.opt_exception_exits, b.opt_exception_exits);
}

/// What one client (or one window, once merged) did and cost.
struct Tally {
    Histogram get_h, upd_h;
    uint64_t gets = 0, updates = 0, failed = 0, user_bytes = 0;
    romulus::pmem::Stats st;
    romulus::pmem::CommitStats cs;
    romulus::ReadStats rs;
    TraceAgg trace;

    void merge(const Tally& o) {
        get_h.merge(o.get_h), upd_h.merge(o.upd_h);
        gets += o.gets, updates += o.updates, failed += o.failed;
        user_bytes += o.user_bytes;
        st += o.st;
        add_commit_stats(cs, o.cs, 1);
        add_read_stats(rs, o.rs, 1);
        trace += o.trace;
    }
    uint64_t ops() const { return gets + updates; }
};

/// Per-thread engine counters over a span of this thread's work.
class CounterDelta {
  public:
    CounterDelta()
        : st0_(romulus::pmem::tl_stats()), cs0_(romulus::pmem::tl_commit_stats()),
          rs0_(romulus::tl_read_stats()) {}
    void finish(Tally& t) const {
        t.st = romulus::pmem::tl_stats() - st0_;
        t.cs = romulus::pmem::tl_commit_stats();
        add_commit_stats(t.cs, cs0_, -1);
        t.rs = romulus::tl_read_stats();
        add_read_stats(t.rs, rs0_, -1);
    }

  private:
    romulus::pmem::Stats st0_;
    romulus::pmem::CommitStats cs0_;
    romulus::ReadStats rs0_;
};

struct Window {
    double secs = 0;
    Tally sum;
    uint64_t combines = 0, combined_ops = 0;
    std::vector<Span> spans;
    uint64_t dropped_spans = 0;

    double ops_per_s() const { return ratio(double(sum.ops()), secs); }

    /// Fold another window in; sampled spans stop at kSpanFileCap.
    void merge(const Window& o) {
        secs += o.secs;
        sum.merge(o.sum);
        combines += o.combines, combined_ops += o.combined_ops;
        const size_t take = std::min(o.spans.size(), kSpanFileCap - std::min(kSpanFileCap, spans.size()));
        spans.insert(spans.end(), o.spans.begin(), o.spans.begin() + long(take));
        dropped_spans += o.dropped_spans + (o.spans.size() - take);
    }
};

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

class Bench {
  public:
    Bench(const Spec& spec, const Options& opt)
        : spec_(spec), opt_(opt), in_(spec, opt.seed), state_(spec.keys) {}

    ~Bench() { close_db(); }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    // --- setup ------------------------------------------------------------

    /// Fresh heap, open, populate.  Returns the wall time (setup_s sample).
    double setup(bool traced) {
        close_db();
        heap_.reset();
        const uint64_t t0 = now_ns();
        heap_ = std::make_unique<Heap>();
        open_db();
        if (traced) {
            attach_traced();
            TraceScope scope(main_trace_);
            populate(*traced_);
        } else {
            populate(*store_);
        }
        return secs_since(t0);
    }

    /// The single-threaded, fixed-length count pass.  Deterministic for a
    /// given seed: one thread, no timers in any decision, fixed base address.
    std::vector<Metric> count_pass() {
        if (!traced_) attach_traced();
        TraceScope scope(main_trace_);
        const TraceAgg before = main_trace_.agg;
        const CounterDelta delta;
        Tally t;
        OpGen gen(in_, stream_seed(opt_.seed, kPhaseCount, 0), -1);
        std::string val, got;
        for (uint64_t i = 0; i < spec_.count_ops; ++i) one_op(*traced_, gen, t, val, got);
        delta.finish(t);
        account(t);
        const TraceAgg& a = main_trace_.agg;
        const double ops = double(spec_.count_ops);
        const double alloc_calls = double(a.alloc.calls - before.alloc.calls +
                                          a.free.calls - before.free.calls);
        return {
            {"count.pwb_per_op", double(t.st.pwb) / ops, "count"},
            {"count.fences_per_op", double(t.st.fences()) / ops, "count"},
            {"count.nvm_bytes_per_op", double(t.st.nvm_bytes) / ops, "bytes"},
            {"count.alloc_calls_per_op", alloc_calls / ops, "count"},
            {"count.fastpath_commits", double(t.cs.fastpath_commits), "count"},
        };
    }

    // --- timed windows ----------------------------------------------------

    Window run_window(double seconds, uint64_t stream, bool traced) {
        Window w;
        std::vector<Tally> outs(kClients);
        std::vector<std::vector<Span>> spans(kClients);
        std::vector<uint64_t> dropped(kClients, 0);
        std::atomic<int> ready{0};
        std::atomic<bool> go{false}, stop{false};
        const auto c0 = RomulusLog::combine_stats();
        std::vector<std::thread> ts;
        for (int c = 0; c < kClients; ++c) {
            ts.emplace_back([&, c] {
                ThreadTrace tt(uint64_t(c) + 1);
                TraceScope scope(tt);
                OpGen gen(in_, stream_seed(opt_.seed, stream, uint64_t(c)), c);
                std::string val, got;
                Tally& t = outs[size_t(c)];
                ready.fetch_add(1);
                while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
                const CounterDelta delta;
                while (!stop.load(std::memory_order_relaxed)) {
                    if (traced) {
                        one_op(*traced_, gen, t, val, got);
                    } else {
                        one_op(*store_, gen, t, val, got);
                    }
                }
                delta.finish(t);
                t.trace = tt.agg;
                spans[size_t(c)] = std::move(tt.spans);
                dropped[size_t(c)] = tt.dropped_spans;
            });
        }
        while (ready.load() < kClients) std::this_thread::yield();
        const uint64_t t0 = now_ns();
        go.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
        stop.store(true, std::memory_order_relaxed);
        for (auto& th : ts) th.join();
        w.secs = secs_since(t0);
        for (int c = 0; c < kClients; ++c) {
            w.sum.merge(outs[size_t(c)]);
            w.spans.insert(w.spans.end(), spans[size_t(c)].begin(),
                           spans[size_t(c)].end());
            w.dropped_spans += dropped[size_t(c)];
        }
        const auto c1 = RomulusLog::combine_stats();
        w.combines = c1.combines - c0.combines;
        w.combined_ops = c1.combined_ops - c0.combined_ops;
        account(w.sum);
        return w;
    }

    // --- checks -----------------------------------------------------------

    /// Full scan against the oracle: every present key exactly once with its
    /// latest acknowledged value, nothing else.  Returns live key+value bytes.
    uint64_t scan_verify() {
        std::vector<uint8_t> seen(spec_.keys, 0);
        uint64_t bad = 0, live = 0;
        store_->for_each([&](std::string_view k, std::string_view v) {
            uint64_t id;
            if (!parse_key(k, &id) || id >= spec_.keys || seen[id]) {
                bad++;
                return;
            }
            seen[id] = 1;
            live += k.size() + v.size();
            if (!state_[id].present() || !value_ok(v, id, &state_[id])) bad++;
        });
        for (uint64_t id = 0; id < spec_.keys; ++id)
            if (state_[id].present() && !seen[id]) bad++;
        attempted_ += spec_.keys;
        failed_ += bad;
        if (bad != 0)
            std::fprintf(stderr, "%s: full scan found %llu wrong or missing keys\n",
                         spec_.name, (unsigned long long)bad);
        return live;
    }

    /// 2 x the used twin halves over the live key+value bytes.
    double space_amp(uint64_t live) const {
        uint64_t used = 0;
        for (unsigned sd = 0; sd < RomulusLog::shard_count(); ++sd)
            used += RomulusLog::used_bytes(sd);
        return ratio(2.0 * double(used), double(live));
    }

    /// Close; a forked child reopens, acks kRestartPuts puts, opens a raw
    /// transaction, overwrites one key in place and SIGKILLs itself (a
    /// MUT-state heap).  The parent times the reopen (recovery), then checks
    /// every acked put and that the torn key kept its pre-crash value.
    double restart_cycle(int cycle) {
        close_db();
        std::fflush(nullptr);
        int fds[2];
        if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
        const pid_t pid = ::fork();
        if (pid < 0) throw std::runtime_error("fork failed");
        if (pid == 0) {
            ::close(fds[0]);
            try {
                crash_child(cycle, fds[1]);
            } catch (...) {
            }
            ::_exit(3);  // crash_child only returns on failure
        }
        ::close(fds[1]);
        uint64_t acked = 0;
        int64_t torn = -1;
        bool hung = false;
        Ack a;
        for (;;) {
            pollfd p{fds[0], POLLIN, 0};
            if (::poll(&p, 1, 60'000) <= 0) {
                hung = true;
                ::kill(pid, SIGKILL);
                break;
            }
            if (!read_full(fds[0], &a, sizeof a) || a.key >= spec_.keys) break;
            if (a.len == 0) {
                torn = int64_t(a.key);
            } else {
                state_[a.key] = KeyState{a.seq, a.len};
                acked++;
            }
        }
        ::close(fds[0]);
        int status = 0;
        ::waitpid(pid, &status, 0);
        const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        attempted_ += kRestartPuts;
        if (hung || !killed || acked != kRestartPuts || torn < 0) {
            std::fprintf(stderr, "%s: crash child misbehaved (status %d, %llu acks)\n",
                         spec_.name, status, (unsigned long long)acked);
            failed_ += kRestartPuts - std::min<uint64_t>(acked, kRestartPuts) + 1;
        }

        const uint64_t t0 = now_ns();
        open_db();
        const double recover = secs_since(t0);

        if (torn >= 0) {
            char kb[kKeyLen];
            format_key(uint64_t(torn), kb);
            std::string got;
            const KeyState& ks = state_[size_t(torn)];
            attempted_++;
            if (!store_->get({kb, kKeyLen}, &got) || !value_ok(got, uint64_t(torn), &ks)) {
                std::fprintf(stderr, "%s: torn key lost its pre-crash value\n",
                             spec_.name);
                failed_++;
            }
        }
        scan_verify();
        return recover;
    }

    // --- traced-run support -----------------------------------------------

    const TraceAgg& main_trace() const { return main_trace_.agg; }

    void write_trace(const std::string& path, const Window& w, double ns_per_tick) const {
        std::ofstream f(path);
        if (!f) {
            std::fprintf(stderr, "romdb_bench: cannot write %s\n", path.c_str());
            return;
        }
        f << "{\"workload\": \"" << spec_.name << "\", \"seed\": " << opt_.seed
          << ", \"sample_every\": " << ThreadTrace::kSampleEvery
          << ", \"spans\": " << w.spans.size()
          << ", \"dropped_spans\": " << w.dropped_spans << "}\n";
        uint64_t base = UINT64_MAX;
        for (const Span& s : w.spans) base = std::min(base, s.start);
        auto ns = [&](uint64_t t) { return std::llround(double(t - base) * ns_per_tick); };
        for (const Span& s : w.spans)
            f << "{\"op\": " << s.op << ", \"span\": " << s.id
              << ", \"parent\": " << s.parent << ", \"name\": \""
              << span_name(s.name) << "\", \"start_ns\": " << ns(s.start)
              << ", \"end_ns\": " << ns(s.end) << "}\n";
    }

  private:
    struct Ack {
        uint64_t key;
        uint32_t seq;
        uint32_t len;  ///< 0 marks the key about to be torn
    };

    static bool read_full(int fd, void* buf, size_t n) {
        auto* p = static_cast<char*>(buf);
        while (n > 0) {
            const ssize_t r = ::read(fd, p, n);
            if (r <= 0) return false;
            p += r, n -= size_t(r);
        }
        return true;
    }
    static void write_full(int fd, const void* buf, size_t n) {
        auto* p = static_cast<const char*>(buf);
        while (n > 0) {
            const ssize_t r = ::write(fd, p, n);
            if (r <= 0) throw std::runtime_error("ack pipe broken");
            p += r, n -= size_t(r);
        }
    }

    void crash_child(int cycle, int ack_fd) {
        auto d = RomulusDB::open(heap_->path(), spec_.heap_bytes, spec_.shards);
        Rng rng(stream_seed(opt_.seed, phase(kPhaseRestart, uint64_t(cycle)), 0));
        std::string val;
        char kb[kKeyLen];
        for (int i = 0; i < kRestartPuts; ++i) {
            const uint64_t key = in_.any_key(rng);
            KeyState& ks = state_[key];  // the child's copy
            const KeyState next{ks.seq + 1, spec_.value_len};
            encode_value(val, key, next.seq, next.len);
            format_key(key, kb);
            d->put({}, {kb, kKeyLen}, val);
            ks = next;
            const Ack a{key, next.seq, next.len};
            write_full(ack_fd, &a, sizeof a);
        }
        uint64_t key;
        do {
            key = in_.any_key(rng);
        } while (!state_[key].present());
        const Ack marker{key, 0, 0};
        write_full(ack_fd, &marker, sizeof marker);
        encode_value(val, key, state_[key].seq + 1, spec_.value_len);
        format_key(key, kb);
        // Same length, so KVStore overwrites the value buffer in place: main
        // is mid-mutation when the process dies.
        RomulusLog::begin_transaction(
            romulus::db::shard_for_key({kb, kKeyLen}, d->shards()));
        d->put({}, {kb, kKeyLen}, val);
        ::kill(::getpid(), SIGKILL);
    }

    /// RomulusDB::open, then the untraced store on the same root slot: the
    /// bench calls the ShardedKVStore that RomulusDB's put/get/del forward
    /// to, exactly as it calls the traced one.
    void open_db() {
        db_ = RomulusDB::open(heap_->path(), spec_.heap_bytes, spec_.shards);
        store_.emplace(RomulusDB::kRootIdx);
    }

    void attach_traced() { traced_.emplace(RomulusDB::kRootIdx); }

    void close_db() {
        traced_.reset();
        store_.reset();
        db_.reset();
    }

    void account(const Tally& t) {
        attempted_ += t.ops();
        failed_ += t.failed;
    }

    /// Batches of kPopulateBatch records, cut short at kPopulateBatchBytes
    /// so a batch of 100 KB values stays a modest transaction.
    template <typename Store>
    void populate(Store& st) {
        romulus::db::WriteBatch batch;
        size_t batch_bytes = 0;
        std::string val;
        char kb[kKeyLen];
        for (uint64_t k = 0; k < spec_.keys; ++k) {
            if (!in_.initially_present(k)) {
                state_[k] = KeyState{};
                continue;
            }
            state_[k] = KeyState{1, spec_.value_len};
            encode_value(val, k, 1, spec_.value_len);
            format_key(k, kb);
            batch.put({kb, kKeyLen}, val);
            batch_bytes += val.size();
            if (batch.size() == kPopulateBatch || batch_bytes >= kPopulateBatchBytes) {
                st.write(batch);
                batch.clear();
                batch_bytes = 0;
            }
        }
        if (batch.size() != 0) st.write(batch);
    }

    /// One closed-loop op: draw, time the store call alone, then check the
    /// result against the oracle.  Updates only touch keys this client owns
    /// (gen.owner; -1 in the single-threaded count pass owns everything).
    /// Traced and untraced windows time ops the same way, so their ratio
    /// (trace.overhead_frac) is the spans' cost alone.
    template <typename Store>
    void one_op(Store& st, OpGen& gen, Tally& t, std::string& val, std::string& got) {
        uint64_t key;
        const OpKind kind = gen.next(&key);
        char kb[kKeyLen];
        format_key(key, kb);
        const std::string_view k(kb, kKeyLen);
        KeyState& ks = state_[key];
        const bool mine = gen.owner < 0 || owner_of(key) == unsigned(gen.owner);
        bool ok = true;
        try {
            if (kind == OpKind::Get) {
                const uint64_t t0 = now_ns();
                const bool found = st.get(k, &got);
                t.get_h.add(now_ns() - t0);
                t.gets++;
                if (found) {
                    ok = value_ok(got, key, mine ? &ks : nullptr);
                } else {
                    // Only churn_large deletes; there a non-owner may race.
                    ok = spec_.del_pct > 0 && !(mine && ks.present());
                }
            } else if (kind == OpKind::Put) {
                const KeyState next{ks.seq + 1, spec_.value_len};
                encode_value(val, key, next.seq, next.len);
                const uint64_t t0 = now_ns();
                st.put(k, val);
                t.upd_h.add(now_ns() - t0);
                t.updates++;
                ks = next;
                t.user_bytes += kKeyLen + next.len;
            } else {
                const uint64_t t0 = now_ns();
                const bool existed = st.del(k);
                t.upd_h.add(now_ns() - t0);
                t.updates++;
                ok = existed == ks.present();
                ks.len = 0;
            }
        } catch (...) {
            ok = false;  // e.g. bad_alloc: the transaction rolled back
        }
        if (!ok) t.failed++;
    }

    const Spec& spec_;
    const Options& opt_;
    Inputs in_;
    std::vector<KeyState> state_;
    std::unique_ptr<Heap> heap_;
    std::unique_ptr<RomulusDB> db_;
    std::optional<RomulusDB::Store> store_;
    std::optional<TracedStore> traced_;
    ThreadTrace main_trace_{0};
    uint64_t attempted_ = 0, failed_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string json_str(const std::string& s) {
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (uint8_t(c) < 0x20) {
            char b[8];
            std::snprintf(b, sizeof b, "\\u%04x", c);
            o += b;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string json_num(double v) {
    if (!std::isfinite(v)) return "null";
    char b[40];
    std::snprintf(b, sizeof b, "%.17g", v);
    return b;
}

std::string metrics_json(const std::vector<Metric>& ms) {
    std::string o = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        o += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
             json_num(ms[i].value) + ", \"unit\": " + json_str(ms[i].unit) + "}";
    }
    return o + "}";
}

/// Settings every result carries; compare.py refuses to compare results
/// whose provenance (other than commit, digest and seed) differs.
std::string provenance_json(const Options& opt) {
    using romulus::pmem::effective_profile;
    using romulus::pmem::profile_name;
    std::string env = "{";
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("ROMULUS_", 0) != 0) continue;
        const size_t eq = kv.find('=');
        env += (env.size() > 1 ? ", " : "") + json_str(kv.substr(0, eq)) + ": " +
               json_str(eq == std::string::npos ? "" : kv.substr(eq + 1));
    }
    env += "}";
    std::ostringstream o;
    o << "{\"commit\": " << json_str(opt.commit)
      << ", \"src_digest\": " << json_str(opt.src_digest)
      << ", \"profile\": " << json_str(profile_name(effective_profile()))
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"build_type\": " << json_str(ROMDB_BUILD_TYPE)
#ifdef __clang__
      << ", \"compiler\": " << json_str("clang " __clang_version__)
#else
      << ", \"compiler\": " << json_str("gcc " __VERSION__)
#endif
      << ", \"heap_dir\": \"memfd\""
      << ", \"seed\": " << opt.seed << ", \"threads\": " << kClients
      << ", \"seconds\": " << json_num(opt.seconds) << ", \"env\": " << env << "}";
    return o.str();
}

void print_metrics(const Spec& spec, const std::vector<Metric>& ms) {
    for (const Metric& m : ms)
        std::printf("%s.%s %.6g %s\n", spec.name, m.name.c_str(), m.value,
                    m.unit.c_str());
}

void write_result(const Options& opt, const Spec& spec, const std::string& kind,
                  const std::vector<Metric>& ms, const std::vector<Metric>& extra,
                  bool correct, uint64_t attempted, uint64_t failed) {
    const std::string path = opt.out_dir + "/" + spec.name + "-" + kind + "-seed" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "romdb_bench: cannot write %s\n", path.c_str());
        return;
    }
    f << "{\"workload\": " << json_str(spec.name) << ", \"kind\": " << json_str(kind)
      << ", \"provenance\": " << provenance_json(opt)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": " << metrics_json(ms)
      << ", \"detail\": " << metrics_json(extra) << "}\n";
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

double us(double ns) { return ns / 1000.0; }

void latency_metrics(const char* op, const std::vector<Window>& ws,
                     bool get, std::vector<Metric>& out, std::vector<Metric>& extra) {
    std::vector<double> p50, p99;
    Histogram all;
    for (const Window& w : ws) {
        const Histogram& h = get ? w.sum.get_h : w.sum.upd_h;
        p50.push_back(us(h.quantile(0.50)));
        p99.push_back(us(h.quantile(0.99)));
        all.merge(h);
    }
    const std::string o = op;
    out.push_back({o + "_p50_us", median(p50), "us"});
    out.push_back({o + "_p99_us", median(p99), "us"});
    extra.push_back({o + "_samples", double(all.count()), "count"});
    extra.push_back({o + "_tail_us", us(double(all.tail())), "us"});
}

/// --trace 0: the end-to-end metrics.  The run is split over kSetups
/// freshly built heaps, each measured in turn (warm-up, its share of the
/// windows, the space check, its restart cycles): where a heap's pages land
/// moves every timing by several percent, and a median over three heaps
/// cancels most of that between runs.
std::vector<Metric> run_end_to_end(Bench& b, const Options& opt,
                                   std::vector<Metric>& extra) {
    const int nwin = std::max(
        1, int(std::lround(opt.seconds / kWindowSeconds / kSetups)));
    const double window_s = opt.seconds / (nwin * kSetups);
    const double warmup_s = std::min(1.0, opt.seconds / 10);
    std::vector<double> setups, tput, amps, recovers;
    std::vector<Window> ws;
    for (int h = 0; h < kSetups; ++h) {
        setups.push_back(b.setup(false));
        b.run_window(warmup_s, phase(kPhaseWarmup, uint64_t(h)), false);
        for (int i = 0; i < nwin; ++i) {
            ws.push_back(b.run_window(window_s, phase(kPhaseWindow, ws.size()), false));
            tput.push_back(ws.back().ops_per_s());
        }
        amps.push_back(b.space_amp(b.scan_verify()));
        for (int c = 0; c < kRestartsPerSetup; ++c)
            recovers.push_back(b.restart_cycle(h * kRestartsPerSetup + c));
    }

    std::vector<Metric> ms;
    ms.push_back({"ops_per_s", median(tput), "ops/s"});
    latency_metrics("get", ws, true, ms, extra);
    latency_metrics("update", ws, false, ms, extra);
    ms.push_back({"setup_s", median(setups), "s"});
    ms.push_back({"recover_s", median(recovers), "s"});
    ms.push_back({"space_amp", median(amps), "ratio"});
    extra.push_back({"windows", double(ws.size()), "count"});
    extra.push_back({"restart_cycles", double(recovers.size()), "count"});
    return ms;
}

/// --trace 1: the per-layer metrics.
std::vector<Metric> run_traced(Bench& b, const Spec& spec, const Options& opt,
                               std::vector<Metric>& extra) {
    const TickRate rate;
    b.setup(true);
    std::vector<Metric> counts = b.count_pass();
    b.run_window(std::min(1.0, opt.seconds / 10), phase(kPhaseWarmup), false);
    // Untraced and traced windows alternate in pairs, so the host's speed
    // drift cancels out of each pair's throughput ratio.
    const int pairs = std::max(2, int(std::lround(opt.seconds / (2 * kWindowSeconds))));
    const double pair_s = opt.seconds / (2 * pairs);
    Window plain, w;
    std::vector<double> slowdown;
    for (int i = 0; i < pairs; ++i) {
        const Window u = b.run_window(pair_s, phase(kPhaseUntraced, uint64_t(i)), false);
        const Window t = b.run_window(pair_s, phase(kPhaseTraced, uint64_t(i)), true);
        slowdown.push_back(1.0 - ratio(t.ops_per_s(), u.ops_per_s()));
        plain.merge(u);
        w.merge(t);
    }
    b.scan_verify();
    const double ns_per_tick = rate.ns_per_tick();
    b.write_trace(opt.out_dir + "/trace-" + spec.name + ".jsonl", w, ns_per_tick);

    const Tally& s = w.sum;
    const KindAgg& rd = s.trace.read;
    const KindAgg& up = s.trace.update;
    TraceAgg all = b.main_trace();  // populate + count pass
    all += s.trace;
    const double updates = double(s.updates), gets = double(s.gets);
    const double slow = romulus::update_config().fastpath
                            ? double(s.cs.fastpath_fallbacks)
                            : updates;
    // Mean of (minuend - subtrahend) ticks over n, in ns, e.g. self time
    // per closure run.
    auto per = [ns_per_tick](uint64_t minuend, uint64_t subtrahend, uint64_t n) {
        return ns_per_tick * ratio(double(minuend) - double(subtrahend), double(n));
    };
    std::vector<Metric> ms = {
        {"db.get_body_ns", per(rd.run, rd.child, rd.runs), "ns"},
        {"db.update_body_ns", per(up.run, up.child, up.runs), "ns"},
        {"core.update_outside_body_ns", per(up.wall, up.run, up.ops), "ns"},
        {"core.read_outside_body_ns", per(rd.wall, rd.run, rd.ops), "ns"},
        {"core.update_runs_per_tx", ratio(double(up.runs), double(up.ops)), "count"},
        {"core.read_runs_per_tx", ratio(double(rd.runs), double(rd.ops)), "count"},
        {"core.fastpath_commit_frac", ratio(double(s.cs.fastpath_commits), updates), "fraction"},
        {"core.fastpath_abort_frac", ratio(double(s.cs.fastpath_aborts), updates), "fraction"},
        {"core.read_opt_commit_frac", ratio(double(s.rs.opt_commits), gets), "fraction"},
        {"core.read_fallback_frac", ratio(double(s.rs.fallbacks), gets), "fraction"},
        {"core.store_range_ns", per(s.trace.store_range.sum, 0, s.trace.store_range.calls), "ns"},
        {"core.lines_per_commit", ratio(double(s.cs.lines_logged), double(s.cs.commits)), "count"},
        {"core.runs_per_commit", ratio(double(s.cs.runs), double(s.cs.commits)), "count"},
        {"sync.combine_batch", ratio(double(w.combined_ops), double(w.combines)), "count"},
        {"sync.delegated_frac", ratio(double(up.delegated), slow), "fraction"},
        {"alloc.alloc_ns", per(all.alloc.sum, 0, all.alloc.calls), "ns"},
        {"alloc.free_ns", per(all.free.sum, 0, all.free.calls), "ns"},
        {"alloc.calls_per_update", ratio(double(s.trace.alloc.calls + s.trace.free.calls), updates), "count"},
        {"pmem.pwb_per_update", ratio(double(s.st.pwb), updates), "count"},
        {"pmem.fences_per_update", ratio(double(s.st.fences()), updates), "count"},
        {"pmem.nvm_bytes_per_user_byte", ratio(double(s.st.nvm_bytes), double(s.user_bytes)), "ratio"},
        {"pmem.nt_frac", ratio(double(s.cs.nt_bytes), double(s.cs.nt_bytes + s.cs.cached_bytes)), "fraction"},
        {"trace.overhead_frac", median(slowdown), "fraction"},
    };
    ms.insert(ms.end(), counts.begin(), counts.end());
    extra.push_back({"untraced_ops_per_s", plain.ops_per_s(), "ops/s"});
    extra.push_back({"traced_ops_per_s", w.ops_per_s(), "ops/s"});
    extra.push_back({"sampled_spans", double(w.spans.size()), "count"});
    return ms;
}

int run_counts(const Options& opt) {
    bool ok = true;
    for (const Spec& spec : kSpecs) {
        if (!opt.workload.empty() && opt.workload != spec.name) continue;
        Bench b(spec, opt);
        b.setup(true);
        const std::vector<Metric> ms = b.count_pass();
        b.scan_verify();
        print_metrics(spec, ms);
        ok = ok && b.failed() == 0;
    }
    return ok ? 0 : 1;
}

int run(const Options& opt) {
    const Spec& spec = *find_spec(opt.workload);
    Bench b(spec, opt);
    std::vector<Metric> extra;
    const std::vector<Metric> ms =
        opt.trace ? run_traced(b, spec, opt, extra) : run_end_to_end(b, opt, extra);
    const bool correct = b.failed() == 0;
    extra.push_back({"failed_op_frac", ratio(double(b.failed()), double(b.attempted())), "fraction"});
    print_metrics(spec, ms);
    print_metrics(spec, extra);
    write_result(opt, spec, opt.trace ? "trace" : "e2e", ms, extra, correct,
                 b.attempted(), b.failed());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false", (unsigned long long)b.attempted(),
                (unsigned long long)b.failed(), metrics_json(ms).c_str());
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace romdb

int main(int argc, char** argv) {
    const romdb::Options opt = romdb::parse_args(argc, argv);
    romulus::pmem::set_profile(romulus::pmem::Profile::CLFLUSH);
    const std::string tuning = romulus::apply_env_tuning();
    if (!tuning.empty()) std::fprintf(stderr, "romdb_bench: env tuning %s\n", tuning.c_str());
    try {
        return opt.counts ? romdb::run_counts(opt) : romdb::run(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "romdb_bench: %s\n", e.what());
        return 1;
    }
}
