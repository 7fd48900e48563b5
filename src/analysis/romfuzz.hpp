// romfuzz layer 3 (docs/romfuzz.md): the fuzz harness gluing the trace
// recorder (tx_trace.hpp), the in-DRAM model oracle (model_oracle.hpp) and
// the crash-image enumeration (crash_explorer.hpp) to a real engine.
//
// One fuzz iteration: generate a seeded trace, execute its setup unrecorded
// (the population becomes the durable baseline), execute the episode under a
// PersistEventRecorder — checking every GET against the model as it runs —
// then either
//   * explore mode: enumerate down-closed crash cuts of the persist graph,
//     write each image over the heap file, run real recovery, dump the
//     recovered KV state with the bounds-checked walker and require it to be
//     a prefix-consistent image of the committed history; or
//   * fork mode: re-execute the trace in a forked child that _exit()s at a
//     chosen fence (the test_crash_fork machinery), then recover the shared
//     heap file in the parent and run the same oracle with the child's
//     reported commit count tightening the admissible prefix window; or
//   * sigkill mode: the same, but the child raise()s SIGKILL right after a
//     chosen store, so the death can land between fences (no unwinding, no
//     exit handlers — a real process crash at any store boundary).
//
// The oracle is stronger than "matches some prefix": commit psyncs are
// mapped to fence windows, so a cut that lies past transaction i's
// durability point must contain i — silently rolling back a committed
// transaction (lost durability) is a violation, not a shorter prefix.
//
// Engines without intra-heap sharding (the undo/redo log baselines) run the
// same workloads through a single flat KVStore; the shard axis applies to
// the Romulus engines only.
#pragma once

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/crash_explorer.hpp"
#include "analysis/model_oracle.hpp"
#include "analysis/persist_graph.hpp"
#include "analysis/tx_trace.hpp"
#include "db/sharded_kvstore.hpp"

namespace romulus::analysis {

template <typename E>
uint8_t engine_id_of() {
    const std::string_view n = E::name();
    if (n == "RomulusNL") return kEngineRomulusNL;
    if (n == "RomulusLog") return kEngineRomulusLog;
    if (n == "RomulusLR") return kEngineRomulusLR;
    if (n.substr(0, 7) == "UndoLog") return kEngineUndoLog;
    if (n.substr(0, 7) == "RedoLog") return kEngineRedoLog;
    return kEngineUnknown;
}

namespace detail {
struct NoShardedStore {};
}  // namespace detail

/// Uniform KV surface over both engine families: ShardedKVStore for the
/// intra-heap-sharded Romulus engines, a single flat KVStore for the
/// baselines.  Executes trace sub-transactions with the exact per-shard
/// transaction grouping ShardedKVStore::write uses.
template <typename E>
class KvFacade {
  public:
    static constexpr bool kSharded = requires { E::shard_count(); };
    using Store = db::KVStore<E>;

    /// `create`: allocate missing per-shard stores (setup).  With create
    /// false (post-recovery attach), a missing root is left null — check
    /// attached() before use.
    explicit KvFacade(int root_idx, bool create = true) {
        if constexpr (kSharded) {
            if (create) {
                sharded_.emplace(root_idx);
            } else {
                for (unsigned sd = 0; sd < E::shard_count(); ++sd)
                    attach_[sd] = E::template get_object<Store>(root_idx, sd);
                nattach_ = E::shard_count();
            }
        } else {
            attach_[0] = E::template get_object<Store>(root_idx);
            if (attach_[0] == nullptr && create) {
                E::updateTx([&] {
                    attach_[0] = E::template tmNew<Store>(uint64_t{256});
                    E::put_object(root_idx, attach_[0]);
                });
            }
            nattach_ = 1;
        }
    }

    unsigned shards() const {
        if constexpr (kSharded) {
            return sharded_ ? sharded_->shards() : nattach_;
        } else {
            return 1;
        }
    }

    bool attached() const {
        for (unsigned sd = 0; sd < nattach_; ++sd)
            if (attach_[sd] == nullptr) return false;
        return sharded_.has_value() || nattach_ > 0;
    }

    Store* store(unsigned sd) const {
        if constexpr (kSharded) {
            if (sharded_) return sharded_->store(sd);
        }
        return attach_[sd];
    }

    /// Execute one trace sub-transaction as one durable transaction on its
    /// shard (kGet sub-transactions are handled by the caller).
    void apply(const SubTx& st) {
        auto body = [&] {
            Store* s = store(st.shard);
            for (const TraceOp& op : st.ops) {
                if (op.kind == TraceOpKind::kPut) {
                    s->put(op.key, op.value);
                } else if (op.kind == TraceOpKind::kDel) {
                    s->del(op.key);
                }
            }
        };
        if constexpr (kSharded) {
            E::updateTx(unsigned(st.shard), body);
        } else {
            E::updateTx(body);
        }
    }

    bool get(const std::string& key, std::string* out) const {
        const unsigned sd = route(key);
        bool found = false;
        auto body = [&] { found = store(sd)->get(key, out); };
        if constexpr (kSharded) {
            E::readTx(sd, body);
        } else {
            E::readTx(body);
        }
        return found;
    }

    unsigned route(std::string_view key) const {
        return db::shard_for_key(key, shards());
    }

  private:
    std::conditional_t<kSharded, std::optional<db::ShardedKVStore<E>>,
                       std::optional<detail::NoShardedStore>>
        sharded_{};
    std::array<Store*, kMaxShards> attach_{};
    unsigned nattach_ = 0;
};

/// Dump every shard's recovered content with the bounds-checked walker.
/// Returns false (structural corruption) without faulting on torn images.
template <typename E>
bool dump_recovered(const KvFacade<E>& kv, std::vector<ShardImage>& out,
                    std::string& why) {
    out.assign(kv.shards(), {});
    for (unsigned sd = 0; sd < kv.shards(); ++sd) {
        auto* store = kv.store(sd);
        if (store == nullptr) {
            why = "shard " + std::to_string(sd) + " store root unreachable";
            return false;
        }
        const uint8_t* lo;
        const uint8_t* hi;
        if constexpr (KvFacade<E>::kSharded) {
            // used_bytes comes from the (possibly corrupt) recovered header;
            // clamp to the mapped main half so a garbage used_size cannot
            // turn the bounds check into a pass for wild pointers.
            lo = E::main_base(sd);
            hi = lo + std::min(size_t(E::used_bytes(sd)), E::main_size());
        } else {
            lo = E::main_base();
            hi = lo + E::main_size();
        }
        auto ok = [&](const void* p, size_t len) {
            const auto* b = static_cast<const uint8_t*>(p);
            // b <= hi first: for a wild pointer above hi the difference
            // would be negative and the size_t cast would wrap to "huge".
            return b >= lo && b <= hi && len <= size_t(hi - b);
        };
        std::string reason;
        ShardImage& img = out[sd];
        const bool clean = store->safe_for_each(
            [&](std::string_view k, std::string_view v) {
                img.emplace(std::string(k), std::string(v));
            },
            ok, &reason);
        if (!clean) {
            why = "shard " + std::to_string(sd) + " structurally corrupt: " +
                  reason;
            return false;
        }
    }
    return true;
}

struct FuzzConfig {
    std::string path;  ///< heap file (required)
    size_t heap_bytes = 16u << 20;
    unsigned shards = 1;  ///< clamped to 1 for unsharded engines
    int root_idx = 0;
    GenConfig gen;
    /// Per-history crash-image budget (explore mode).
    ExploreOptions explore{.max_cuts = 128,
                           .window_exhaustive_cap = 64,
                           .window_samples = 6,
                           .seed = 1,
                           .max_failures = 8};
    /// Concurrent reader threads live during the recorded episode,
    /// exercising the optimistic read path against the torn-snapshot oracle.
    unsigned readers = 0;
};

struct FuzzResult {
    TxTrace trace;  ///< with access log filled in by the run
    ExploreReport report;
    uint64_t get_checks = 0;
    uint64_t get_mismatches = 0;
    uint64_t reader_checks = 0;
    uint64_t reader_violations = 0;
    std::vector<uint64_t> violating_cuts;
    std::vector<std::string> failures;  ///< bounded, human-readable

    uint64_t violations() const {
        return report.violations + get_mismatches + reader_violations;
    }
    bool ok() const { return violations() == 0; }
};

/// Where a fork-and-crash child dies: inside the k-th episode fence
/// (`_exit`, fork mode) or right after the k-th episode store
/// (`raise(SIGKILL)`, sigkill mode).
enum class CrashPoint : uint8_t { kFence, kStore };

struct ForkResult {
    uint64_t points_total = 0;  ///< episode fences/stores to crash at
    uint64_t crashes = 0;       ///< children actually killed mid-episode
    uint64_t violations = 0;
    std::vector<std::string> failures;
    std::vector<uint64_t> violating_points;

    bool ok() const { return violations == 0; }
};

template <typename E>
class FuzzHarness {
  public:
    explicit FuzzHarness(FuzzConfig cfg) : cfg_(std::move(cfg)) {
        if (cfg_.path.empty())
            throw std::invalid_argument("FuzzHarness: empty heap path");
        if constexpr (!KvFacade<E>::kSharded) cfg_.shards = 1;
        if (cfg_.shards < 1) cfg_.shards = 1;
    }

    ~FuzzHarness() {
        if (E::initialized()) E::close();
        std::remove(cfg_.path.c_str());
    }

    FuzzHarness(const FuzzHarness&) = delete;
    FuzzHarness& operator=(const FuzzHarness&) = delete;

    const FuzzConfig& config() const { return cfg_; }

    TxTrace generate(uint64_t seed) const {
        const unsigned ns = cfg_.shards;
        return generate_trace(
            cfg_.gen, seed, ns, engine_id_of<E>(),
            [ns](std::string_view key) { return db::shard_for_key(key, ns); });
    }

    /// One full fuzz iteration: generate from `seed`, execute, explore.
    FuzzResult run_one(uint64_t seed) {
        ExploreOptions opts = cfg_.explore;
        opts.seed = seed * 0x9E3779B97F4A7C15ull + 1;
        return run_trace(generate(seed), opts);
    }

    /// Execute `trace` and model-check its crash images (the --replay path:
    /// deterministic, so a violating cut reproduces by index).
    FuzzResult run_trace(TxTrace trace, const ExploreOptions& opts) {
        FuzzResult res;
        Execution ex = execute(std::move(trace));
        res.trace = std::move(ex.trace);
        res.get_checks = ex.get_checks;
        res.get_mismatches = ex.get_mismatches;
        res.reader_checks = ex.reader_checks;
        res.reader_violations = ex.reader_violations;
        res.failures = std::move(ex.failures);

        const size_t M = res.trace.episode_count();
        res.report = explore_crash_images(
            *ex.graph, *ex.rec,
            [&](const std::vector<uint8_t>& image, const CrashCut& cut,
                std::string& err) {
                const bool ok =
                    validate_image(res.trace, ex.commit_windows, image, cut,
                                   M, err);
                if (!ok) res.violating_cuts.push_back(cut.index);
                return ok;
            },
            opts);
        for (const std::string& f : res.report.failures)
            res.failures.push_back(f);
        return res;
    }

    /// Fork-and-crash mode: re-execute the trace in child processes that die
    /// at `crashes` randomly drawn episode fences (or stores, for
    /// CrashPoint::kStore), recovering and oracle-checking the heap after
    /// each.  Also runs one surviving child (full history) as the
    /// crash-free control.
    ForkResult run_fork(const TxTrace& trace, unsigned crashes,
                        uint64_t rng_seed,
                        CrashPoint at = CrashPoint::kFence) {
        const uint64_t total = count_episode_points(trace, at);
        std::mt19937_64 rng(rng_seed ^ 0xD1B54A32D192ED03ull);
        std::vector<uint64_t> ks;
        for (unsigned i = 0; i < crashes && total > 0; ++i)
            ks.push_back(1 + rng() % total);
        ks.push_back(total + 1);  // survivor control
        return run_fork_at(trace, ks, at, total);
    }

    /// Fork-and-crash at the given episode fences or stores (the --replay
    /// path).
    ForkResult run_fork_at(const TxTrace& trace,
                           const std::vector<uint64_t>& ks,
                           CrashPoint at = CrashPoint::kFence,
                           uint64_t points_total = 0) {
        ForkResult res;
        res.points_total =
            points_total ? points_total : count_episode_points(trace, at);
        const char* what = at == CrashPoint::kFence ? "fence " : "store ";
        for (uint64_t k : ks) {
            std::string err;
            if (!fork_crash_at(trace, k, at, err)) {
                ++res.violations;
                res.violating_points.push_back(k);
                if (res.failures.size() < 16)
                    res.failures.push_back(what + std::to_string(k) + ": " +
                                           err);
            }
            if (k <= res.points_total) ++res.crashes;
        }
        return res;
    }

  private:
    struct Execution {
        TxTrace trace;
        std::unique_ptr<PersistEventRecorder> rec;
        std::unique_ptr<PersistGraph> graph;
        /// Fence-window index after each episode sub-transaction's commit
        /// psync (SIZE_MAX for kGets): the durability points the oracle's
        /// lower bound is derived from.
        std::vector<uint32_t> commit_windows;
        uint64_t get_checks = 0;
        uint64_t get_mismatches = 0;
        uint64_t reader_checks = 0;
        uint64_t reader_violations = 0;
        std::vector<std::string> failures;
    };

    void init_engine() {
        if constexpr (KvFacade<E>::kSharded) {
            E::init(cfg_.heap_bytes, cfg_.path, cfg_.shards);
        } else {
            E::init(cfg_.heap_bytes, cfg_.path);
        }
    }

    /// Run setup unrecorded, then the episode under the recorder, checking
    /// GETs against the model inline.  Leaves the engine closed and the heap
    /// file holding the full-history image.
    Execution execute(TxTrace trace) {
        Execution ex;
        std::remove(cfg_.path.c_str());
        init_engine();
        {
            KvFacade<E> kv(cfg_.root_idx);
            KvModel model(trace.shard_count);
            for (uint32_t i = 0; i < trace.setup_count; ++i) {
                kv.apply(trace.subtxs[i]);
                model.apply(trace.subtxs[i]);
            }

            ex.rec = std::make_unique<PersistEventRecorder>(
                E::region().base(), E::region().size());
            pmem::set_sim_hooks(ex.rec.get());

            std::atomic<bool> stop{false};
            std::vector<std::thread> readers;
            std::atomic<uint64_t> r_checks{0}, r_viol{0};
            std::mutex fail_mu;
            if (cfg_.readers > 0) start_readers(trace, kv, stop, readers,
                                                r_checks, r_viol, fail_mu,
                                                ex.failures);
            try {
                for (size_t i = trace.setup_count; i < trace.subtxs.size();
                     ++i) {
                    const SubTx& st = trace.subtxs[i];
                    if (st.is_get()) {
                        std::string got, want;
                        const bool found = kv.get(st.ops[0].key, &got);
                        const bool wfound =
                            model.lookup(st.shard, st.ops[0].key, &want);
                        ++ex.get_checks;
                        if (found != wfound || (found && got != want)) {
                            ++ex.get_mismatches;
                            if (ex.failures.size() < 16) {
                                ex.failures.push_back(
                                    "live GET \"" + st.ops[0].key +
                                    "\" disagrees with the model");
                            }
                        }
                    } else {
                        kv.apply(st);
                        model.apply(st);
                    }
                }
            } catch (...) {
                stop.store(true);
                for (auto& t : readers) t.join();
                pmem::set_sim_hooks(nullptr);
                throw;
            }
            stop.store(true);
            for (auto& t : readers) t.join();
            pmem::set_sim_hooks(nullptr);
            ex.reader_checks = r_checks.load();
            ex.reader_violations = r_viol.load();

            trace.access =
                AccessLog::from_recording(*ex.rec, EngineLayout::of<E>());
            ex.graph = std::make_unique<PersistGraph>(
                PersistGraph::build(*ex.rec));
            ex.commit_windows = map_commit_windows(*ex.rec, trace);
        }
        E::close();
        ex.trace = std::move(trace);
        return ex;
    }

    /// Fence-window index after each episode sub-transaction.  The recorded
    /// episode is single-writer, so TxCommit events correspond 1:1, in
    /// order, to the non-GET episode sub-transactions (read transactions
    /// emit no lifecycle events).  Readers don't perturb this: they produce
    /// no SimHooks events at all.
    static std::vector<uint32_t> map_commit_windows(
        const PersistEventRecorder& rec, const TxTrace& trace) {
        std::vector<uint32_t> commit_fences;
        uint32_t fences = 0;
        for (const PersistEvent& e : rec.events()) {
            if (e.kind == PersistEventKind::Fence) ++fences;
            if (e.kind == PersistEventKind::TxCommit)
                commit_fences.push_back(fences);
        }
        std::vector<uint32_t> windows(trace.episode_count(), ~uint32_t{0});
        size_t next = 0;
        for (size_t j = 0; j < trace.episode_count(); ++j) {
            if (trace.episode(j).is_get()) continue;
            windows[j] = next < commit_fences.size() ? commit_fences[next]
                                                     : ~uint32_t{0};
            ++next;
        }
        return windows;
    }

    /// Minimal admissible prefix for a cut with this frontier window: every
    /// sub-transaction whose commit psync lies in a fully-persisted window
    /// must be present in the recovered image.
    static size_t min_prefix_for(const std::vector<uint32_t>& commit_windows,
                                 uint32_t frontier_window) {
        size_t min_prefix = 0;
        for (size_t j = 0; j < commit_windows.size(); ++j) {
            if (commit_windows[j] != ~uint32_t{0} &&
                commit_windows[j] <= frontier_window) {
                min_prefix = j + 1;
            }
        }
        return min_prefix;
    }

    bool validate_image(const TxTrace& trace,
                        const std::vector<uint32_t>& commit_windows,
                        const std::vector<uint8_t>& image, const CrashCut& cut,
                        size_t episode_total, std::string& err) {
        write_crash_image(cfg_.path, image);
        E::crash_reset_for_tests();
        try {
            init_engine();
        } catch (const std::exception& ex) {
            err = std::string("recovery threw: ") + ex.what();
            return false;
        }
        bool ok = true;
        std::ostringstream os;
        if (RecoveryCheck rc = check_twin_halves<E>(); !rc.ok) {
            ok = false;
            os << rc.detail;
        }
        if (ok) {
            KvFacade<E> kv(cfg_.root_idx, /*create=*/false);
            std::vector<ShardImage> recovered;
            std::string why;
            if (!dump_recovered<E>(kv, recovered, why)) {
                ok = false;
                os << why << "; ";
            } else {
                const size_t min_p =
                    cut.complete
                        ? episode_total
                        : min_prefix_for(commit_windows, cut.frontier_window);
                PrefixCheckResult pr = check_prefix_consistent(
                    trace, recovered, min_p, episode_total);
                if (!pr.ok) {
                    ok = false;
                    os << pr.detail << "; ";
                }
            }
        }
        if (ok) {
            if (RecoveryCheck rc = probe_allocator<E>(); !rc.ok) {
                ok = false;
                os << rc.detail;
            }
        }
        E::close();
        if (!ok) err = os.str();
        return ok;
    }

    /// SimHooks observer that kills the process at the k-th fence (_exit)
    /// or right after the k-th store (SIGKILL).
    class CrashKiller final : public pmem::SimHooks {
      public:
        CrashKiller(CrashPoint at, uint64_t k) : at_(at), k_(k) {}
        void on_store(const void*, size_t) override {
            if (at_ == CrashPoint::kStore && ++n_ == k_) raise(SIGKILL);
        }
        void on_pwb(const void*) override {}
        void on_fence() override {
            if (at_ == CrashPoint::kFence && ++n_ == k_) _exit(42);
        }
        uint64_t seen() const { return n_; }

      private:
        CrashPoint at_;
        uint64_t k_;
        uint64_t n_ = 0;
    };

    /// Fences or stores issued while executing the episode (dry run, in
    /// process).
    uint64_t count_episode_points(const TxTrace& trace, CrashPoint at) {
        std::remove(cfg_.path.c_str());
        init_engine();
        uint64_t points = 0;
        {
            KvFacade<E> kv(cfg_.root_idx);
            for (uint32_t i = 0; i < trace.setup_count; ++i)
                kv.apply(trace.subtxs[i]);
            CrashKiller counter(at, ~uint64_t{0});
            pmem::set_sim_hooks(&counter);
            for (size_t i = trace.setup_count; i < trace.subtxs.size(); ++i) {
                if (!trace.subtxs[i].is_get()) kv.apply(trace.subtxs[i]);
            }
            pmem::set_sim_hooks(nullptr);
            points = counter.seen();
        }
        E::close();
        return points;
    }

    /// One fork-crash: child re-executes the trace and dies at episode
    /// fence or store k (or survives when k is past the end), parent
    /// recovers the shared heap file and runs the oracle.  Returns false +
    /// err on violation.
    bool fork_crash_at(const TxTrace& trace, uint64_t k, CrashPoint at,
                       std::string& err) {
        std::remove(cfg_.path.c_str());
        int fds[2];
        if (pipe(fds) != 0) {
            err = "pipe() failed";
            return false;
        }
        const pid_t pid = fork();
        if (pid < 0) {
            close(fds[0]);
            close(fds[1]);
            err = "fork() failed";
            return false;
        }
        if (pid == 0) {
            // Child: execute; report each committed episode sub-tx index.
            close(fds[0]);
            init_engine();
            KvFacade<E> kv(cfg_.root_idx);
            for (uint32_t i = 0; i < trace.setup_count; ++i)
                kv.apply(trace.subtxs[i]);
            CrashKiller killer(at, k);
            pmem::set_sim_hooks(&killer);
            for (size_t i = trace.setup_count; i < trace.subtxs.size(); ++i) {
                if (!trace.subtxs[i].is_get()) kv.apply(trace.subtxs[i]);
                const uint64_t committed = i - trace.setup_count + 1;
                ssize_t w = write(fds[1], &committed, sizeof(committed));
                (void)w;
            }
            _exit(7);  // survived the whole episode
        }
        close(fds[1]);
        uint64_t committed = 0, v;
        while (read(fds[0], &v, sizeof(v)) == ssize_t(sizeof(v))) committed = v;
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        const bool survived = WIFEXITED(status) && WEXITSTATUS(status) == 7;
        const bool killed =
            at == CrashPoint::kFence
                ? WIFEXITED(status) && WEXITSTATUS(status) == 42
                : WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        if (!survived && !killed) {
            err = "child exited abnormally (status " + std::to_string(status) +
                  ")";
            return false;
        }

        E::crash_reset_for_tests();
        bool ok = true;
        std::ostringstream os;
        try {
            init_engine();
        } catch (const std::exception& ex) {
            err = std::string("recovery threw: ") + ex.what();
            return false;
        }
        if (RecoveryCheck rc = check_twin_halves<E>(); !rc.ok) {
            ok = false;
            os << rc.detail;
        }
        if (ok) {
            KvFacade<E> kv(cfg_.root_idx, /*create=*/false);
            std::vector<ShardImage> recovered;
            std::string why;
            if (!dump_recovered<E>(kv, recovered, why)) {
                ok = false;
                os << why << "; ";
            } else {
                // Committed sub-txs are durable; the in-flight one may have
                // reached its durability point before the kill.
                const size_t M = trace.episode_count();
                const size_t min_p = survived ? M : committed;
                const size_t max_p =
                    survived ? M : std::min<size_t>(committed + 1, M);
                PrefixCheckResult pr =
                    check_prefix_consistent(trace, recovered, min_p, max_p);
                if (!pr.ok) {
                    ok = false;
                    os << pr.detail << "; ";
                }
            }
        }
        if (ok) {
            if (RecoveryCheck rc = probe_allocator<E>(); !rc.ok) {
                ok = false;
                os << rc.detail;
            }
        }
        E::close();
        if (!ok) err = os.str();
        return ok;
    }

    /// Concurrent readers: random single-key reads plus a read-twice-in-one-
    /// transaction snapshot check, validated against the set of values the
    /// trace can ever legally expose for that key.
    void start_readers(const TxTrace& trace, KvFacade<E>& kv,
                       std::atomic<bool>& stop,
                       std::vector<std::thread>& readers,
                       std::atomic<uint64_t>& checks,
                       std::atomic<uint64_t>& violations, std::mutex& fail_mu,
                       std::vector<std::string>& failures) {
        // Key universe + legal observations, computed once up front.
        auto keys = std::make_shared<std::vector<std::string>>();
        auto legal = std::make_shared<std::vector<KeyObservations>>();
        {
            std::map<std::string, uint32_t> seen;
            for (const SubTx& st : trace.subtxs)
                for (const TraceOp& op : st.ops) seen.emplace(op.key, st.shard);
            for (const auto& [k, sd] : seen) {
                keys->push_back(k);
                legal->push_back(legal_observations(trace, k, sd));
            }
        }
        for (unsigned r = 0; r < cfg_.readers; ++r) {
            readers.emplace_back([&, r, keys, legal] {
                std::mt19937_64 rng(0xC0FFEE ^ (r * 7919));
                while (!stop.load(std::memory_order_relaxed)) {
                    if (keys->empty()) break;
                    const size_t i = rng() % keys->size();
                    const std::string& key = (*keys)[i];
                    const unsigned sd = kv.route(key);
                    bool f1 = false, f2 = false;
                    std::string v1, v2;
                    auto body = [&] {
                        // Unconditional assigns: restartable under the
                        // optimistic read path.
                        f1 = kv.store(sd)->get(key, &v1);
                        f2 = kv.store(sd)->get(key, &v2);
                    };
                    if constexpr (KvFacade<E>::kSharded) {
                        E::readTx(sd, body);
                    } else {
                        E::readTx(body);
                    }
                    checks.fetch_add(1, std::memory_order_relaxed);
                    std::string why;
                    if (f1 != f2 || (f1 && v1 != v2)) {
                        why = "non-atomic snapshot: two reads of \"" + key +
                              "\" in one readTx disagree";
                    } else if (!(*legal)[i].admits(f1, v1)) {
                        why = "torn read: \"" + key +
                              "\" returned a value never written";
                    }
                    if (!why.empty()) {
                        violations.fetch_add(1, std::memory_order_relaxed);
                        std::lock_guard<std::mutex> g(fail_mu);
                        if (failures.size() < 16) failures.push_back(why);
                    }
                }
            });
        }
    }

    FuzzConfig cfg_;
};

}  // namespace romulus::analysis
