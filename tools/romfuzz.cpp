// romfuzz — seeded randomized crash-consistency fuzzing over RomulusDB
// (docs/romfuzz.md).
//
// Generates randomized KV workloads (mixed GET/PUT/DEL/cross-shard BATCH,
// value-size and key-skew knobs, optional concurrent optimistic readers)
// over every engine × shard count, records each episode's persist-event
// stream, and model-checks the recovered state of crash images against the
// committed history:
//
//   * explore mode — every history's persist graph is handed to
//     crash_explorer for down-closed-cut image enumeration; every image runs
//     real engine recovery and must be a prefix-consistent image of the
//     committed history (model_oracle.hpp).
//   * fork mode — the trace re-executes in forked children killed at random
//     fences (the test_crash_fork machinery); the parent recovers the shared
//     heap and runs the same oracle, with the child's reported commit count
//     tightening the admissible window.
//   * sigkill mode — as fork mode, but each child raise()s SIGKILL right
//     after a randomly drawn store, so deaths also land between fences.
//
// Every failure emits a self-contained repro bundle — the trace file carries
// the seed, the op log, the access log, and the explore parameters + cut id
// (or fence, or store) that failed — which `romfuzz --replay FILE`
// re-executes deterministically, byte-for-byte (the access-log digest is
// compared).
//
//   romfuzz [--engine all|nl|log|lr|undo|redo] [--shards 1,4] [--iters N]
//           [--seed N] [--mode explore|fork|sigkill|both] [--ops N]
//           [--setup N] [--keys N] [--value-max N] [--batch-ops N]
//           [--readers N] [--budget N] [--window-samples N]
//           [--exhaustive-cap N] [--fork-crashes N] [--heap-mb N] [--out DIR]
//           [--mutate none|elide-fence|reorder-state] [--expect-violations]
//           [--replay FILE]
//
// Exit status: 0 when every history is clean (or, with --expect-violations,
// when at least one violation was found and its bundle written), 1
// otherwise, 2 on usage errors.  ReadConfig/UpdateConfig/CommitConfig knobs
// are seeded from ROMULUS_* environment variables (apply_env_tuning), so a
// CI leg can pin the stripe fast path on without recompiling.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/romfuzz.hpp"
#include "baselines/redolog.hpp"
#include "baselines/undolog.hpp"
#include "core/romulus.hpp"

namespace {

using namespace romulus;
using namespace romulus::analysis;

struct Cli {
    std::string engine = "all";
    std::vector<unsigned> shards = {1, 4};
    uint64_t iters = 4;
    uint64_t seed = 1;
    std::string mode = "explore";
    GenConfig gen;
    unsigned readers = 0;
    uint64_t budget = 128;
    uint64_t window_samples = 6;
    uint64_t exhaustive_cap = 64;
    unsigned fork_crashes = 3;
    size_t heap_mb = 16;
    std::string out = "romfuzz-out";
    std::string mutate = "none";
    bool expect_violations = false;
    std::string replay;
    std::string path;
};

[[noreturn]] void usage(const std::string& err) {
    if (!err.empty()) std::cerr << "romfuzz: " << err << "\n";
    std::cerr
        << "usage: romfuzz [--engine all|nl|log|lr|undo|redo] [--shards 1,4]"
           " [--iters N] [--seed N] [--mode explore|fork|sigkill|both]"
           " [--ops N] [--setup N] [--keys N] [--value-max N] [--batch-ops N]"
           " [--readers N] [--budget N] [--window-samples N]"
           " [--exhaustive-cap N] [--fork-crashes N] [--heap-mb N]"
           " [--out DIR] [--mutate none|elide-fence|reorder-state]"
           " [--expect-violations] [--replay FILE] [--path FILE]\n";
    std::exit(2);
}

struct Totals {
    uint64_t histories = 0;
    double cuts = 0;
    uint64_t fork_crashes = 0;
    uint64_t violations = 0;
    uint64_t bundles = 0;
    std::vector<std::string> failures;
};

std::string bundle_path(const Cli& cli, const std::string& engine,
                        unsigned shards, uint64_t seed) {
    std::ostringstream os;
    os << cli.out << "/romfuzz_" << engine << "_s" << shards << "_seed" << seed
       << ".trace";
    return os.str();
}

ExploreOptions explore_opts(const Cli& cli) {
    ExploreOptions o;
    o.max_cuts = cli.budget;
    o.window_samples = cli.window_samples;
    o.window_exhaustive_cap = cli.exhaustive_cap;
    o.max_failures = 8;
    return o;
}

template <typename E>
void run_engine(const std::string& name, const Cli& cli, Totals& tot) {
    for (unsigned shards : cli.shards) {
        if (!KvFacade<E>::kSharded && shards != 1) continue;
        FuzzConfig cfg;
        cfg.path = cli.path.empty()
                       ? "/dev/shm/romfuzz_" + name + "_" +
                             std::to_string(::getpid()) + ".heap"
                       : cli.path + "." + name;
        cfg.heap_bytes = cli.heap_mb << 20;
        cfg.shards = shards;
        cfg.gen = cli.gen;
        cfg.readers = cli.readers;
        FuzzHarness<E> harness(cfg);

        uint64_t engine_viol = 0;
        for (uint64_t it = 0; it < cli.iters; ++it) {
            const uint64_t seed = cli.seed + it;
            ++tot.histories;
            if (cli.mode == "explore" || cli.mode == "both") {
                ExploreOptions opts = explore_opts(cli);
                opts.seed = seed * 0x9E3779B97F4A7C15ull + 1;
                FuzzResult res = harness.run_trace(harness.generate(seed), opts);
                tot.cuts += double(res.report.cuts_explored);
                if (!res.ok()) {
                    tot.violations += res.violations();
                    engine_viol += res.violations();
                    for (const auto& f : res.failures)
                        if (tot.failures.size() < 32)
                            tot.failures.push_back(name + ": " + f);
                    if (tot.bundles < 8 && !res.violating_cuts.empty()) {
                        res.trace.has_repro = true;
                        res.trace.repro.mode = 0;
                        res.trace.repro.explore_seed = opts.seed;
                        res.trace.repro.max_cuts = opts.max_cuts;
                        res.trace.repro.window_exhaustive_cap =
                            opts.window_exhaustive_cap;
                        res.trace.repro.window_samples = opts.window_samples;
                        res.trace.repro.cut_index = res.violating_cuts.front();
                        const std::string bp =
                            bundle_path(cli, name, shards, seed);
                        res.trace.save(bp);
                        std::cout << "  repro bundle: " << bp << "\n";
                        ++tot.bundles;
                    }
                }
            }
            if (cli.mode == "fork" || cli.mode == "sigkill" ||
                cli.mode == "both") {
                const bool sigkill = cli.mode == "sigkill";
                TxTrace trace = harness.generate(seed);
                ForkResult fr = harness.run_fork(
                    trace, cli.fork_crashes, seed,
                    sigkill ? CrashPoint::kStore : CrashPoint::kFence);
                tot.fork_crashes += fr.crashes;
                if (!fr.ok()) {
                    tot.violations += fr.violations;
                    engine_viol += fr.violations;
                    for (const auto& f : fr.failures)
                        if (tot.failures.size() < 32)
                            tot.failures.push_back(name + ": " + f);
                    if (tot.bundles < 8 && !fr.violating_points.empty()) {
                        trace.has_repro = true;
                        trace.repro.mode = sigkill ? 2 : 1;
                        trace.repro.fence = fr.violating_points.front();
                        const std::string bp =
                            bundle_path(cli, name, shards, seed);
                        trace.save(bp);
                        std::cout << "  repro bundle: " << bp << "\n";
                        ++tot.bundles;
                    }
                }
            }
        }
        std::cout << "engine " << name << " shards=" << shards << ": "
                  << cli.iters << " histories, "
                  << (engine_viol ? "VIOLATIONS" : "clean") << "\n";
    }
}

int replay_bundle(const Cli& cli) {
    TxTrace trace = TxTrace::load(cli.replay);
    const std::string name = engine_tag_name(trace.engine_id);
    std::cout << "replaying " << cli.replay << ": engine " << name
              << ", shards " << trace.shard_count << ", seed " << trace.seed
              << ", " << trace.subtxs.size() << " sub-txs ("
              << trace.setup_count << " setup)\n";
    const uint64_t stored_access =
        trace.access.streams.empty() ? 0 : trace.access.digest();

    auto replay = [&](auto tag) -> int {
        using E = decltype(tag);
        FuzzConfig cfg;
        cfg.path = "/dev/shm/romfuzz_replay_" + std::to_string(::getpid()) +
                   ".heap";
        cfg.heap_bytes = cli.heap_mb << 20;
        cfg.shards = trace.shard_count;
        FuzzHarness<E> harness(cfg);
        bool reproduced = false;
        uint64_t fresh_access = 0;
        if (trace.has_repro &&
            (trace.repro.mode == 1 || trace.repro.mode == 2)) {
            ForkResult fr = harness.run_fork_at(
                trace, {trace.repro.fence},
                trace.repro.mode == 2 ? CrashPoint::kStore
                                      : CrashPoint::kFence);
            reproduced = !fr.ok();
            for (const auto& f : fr.failures) std::cout << "  " << f << "\n";
        } else {
            ExploreOptions opts;
            if (trace.has_repro) {
                opts.seed = trace.repro.explore_seed;
                opts.max_cuts = trace.repro.max_cuts;
                opts.window_exhaustive_cap = trace.repro.window_exhaustive_cap;
                opts.window_samples = trace.repro.window_samples;
            } else {
                opts = explore_opts(cli);
                opts.seed = trace.seed * 0x9E3779B97F4A7C15ull + 1;
            }
            FuzzResult res = harness.run_trace(trace, opts);
            fresh_access = res.trace.access.digest();
            for (const auto& f : res.failures) std::cout << "  " << f << "\n";
            if (trace.has_repro) {
                for (uint64_t c : res.violating_cuts)
                    reproduced |= c == trace.repro.cut_index;
                std::cout << "  cut " << trace.repro.cut_index
                          << (reproduced ? " reproduced the violation"
                                         : " did NOT reproduce") << "\n";
            } else {
                reproduced = !res.ok();
                std::cout << res.report.summary() << "\n";
            }
        }
        if (stored_access != 0 && fresh_access != 0) {
            std::cout << "  access-log digest "
                      << (stored_access == fresh_access
                              ? "matches the bundle (byte-identical replay)"
                              : "DIFFERS from the bundle")
                      << "\n";
        }
        std::cout << (reproduced ? "ROMFUZZ REPRO OK" : "ROMFUZZ REPRO FAIL")
                  << "\n";
        return reproduced ? 0 : 1;
    };

    switch (trace.engine_id) {
        case kEngineRomulusNL: return replay(RomulusNL{});
        case kEngineRomulusLog: return replay(RomulusLog{});
        case kEngineRomulusLR: return replay(RomulusLR{});
        case kEngineUndoLog: return replay(baselines::UndoLogPTM{});
        case kEngineRedoLog: return replay(baselines::RedoLogPTM{});
        default:
            std::cerr << "romfuzz: bundle names an unknown engine\n";
            return 2;
    }
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&](const char* flag) -> std::string {
            if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (a == "--engine") cli.engine = next("--engine");
        else if (a == "--shards") {
            cli.shards.clear();
            std::stringstream ss(next("--shards"));
            for (std::string tok; std::getline(ss, tok, ',');)
                cli.shards.push_back(unsigned(std::stoul(tok)));
            if (cli.shards.empty()) usage("--shards needs a list like 1,4");
        }
        else if (a == "--iters") cli.iters = std::stoull(next(a.c_str()));
        else if (a == "--seed") cli.seed = std::stoull(next(a.c_str()));
        else if (a == "--mode") cli.mode = next("--mode");
        else if (a == "--ops")
            cli.gen.episode_ops = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--setup")
            cli.gen.setup_ops = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--keys")
            cli.gen.key_space = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--value-max")
            cli.gen.value_max = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--batch-ops")
            cli.gen.batch_ops = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--readers")
            cli.readers = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--budget") cli.budget = std::stoull(next(a.c_str()));
        else if (a == "--window-samples")
            cli.window_samples = std::stoull(next(a.c_str()));
        else if (a == "--exhaustive-cap")
            cli.exhaustive_cap = std::stoull(next(a.c_str()));
        else if (a == "--fork-crashes")
            cli.fork_crashes = unsigned(std::stoul(next(a.c_str())));
        else if (a == "--heap-mb") cli.heap_mb = std::stoull(next(a.c_str()));
        else if (a == "--out") cli.out = next("--out");
        else if (a == "--mutate") cli.mutate = next("--mutate");
        else if (a == "--expect-violations") cli.expect_violations = true;
        else if (a == "--replay") cli.replay = next("--replay");
        else if (a == "--path") cli.path = next("--path");
        else if (a == "--help" || a == "-h") usage("");
        else usage("unknown argument " + a);
    }
    if (cli.mode != "explore" && cli.mode != "fork" && cli.mode != "sigkill" &&
        cli.mode != "both")
        usage("unknown --mode " + cli.mode);

    if (std::string tuned = apply_env_tuning(); !tuned.empty())
        std::cout << "env tuning: " << tuned << "\n";

    if (cli.mutate != "none") {
        if (cli.mutate != "elide-fence" && cli.mutate != "reorder-state")
            usage("unknown --mutate " + cli.mutate);
        if (!kPersistGraphEnabled) {
            std::cerr << "romfuzz: --mutate requires a -DROMULUS_PERSISTGRAPH "
                         "build (this binary was built without it)\n";
            return 2;
        }
        if (cli.engine == "undo" || cli.engine == "redo")
            usage("--mutate applies to the Romulus engines only");
        protocol_mutations().elide_commit_fence = cli.mutate == "elide-fence";
        protocol_mutations().reorder_state_persist =
            cli.mutate == "reorder-state";
    }

    try {
        if (!cli.replay.empty()) return replay_bundle(cli);

        ::mkdir(cli.out.c_str(), 0755);
        Totals tot;
        auto want = [&](const char* n) {
            return cli.engine == "all" || cli.engine == n;
        };
        if (want("nl")) run_engine<RomulusNL>("nl", cli, tot);
        if (want("log")) run_engine<RomulusLog>("log", cli, tot);
        if (want("lr")) run_engine<RomulusLR>("lr", cli, tot);
        if (cli.mutate == "none") {
            if (want("undo"))
                run_engine<baselines::UndoLogPTM>("undo", cli, tot);
            if (want("redo"))
                run_engine<baselines::RedoLogPTM>("redo", cli, tot);
        }
        if (tot.histories == 0) usage("no engine matched " + cli.engine);

        std::cout << "romfuzz: " << tot.histories << " histories, "
                  << uint64_t(tot.cuts) << " crash images explored, "
                  << tot.fork_crashes << " fork-crashes, " << tot.violations
                  << " violations, " << tot.bundles << " repro bundles\n";
        for (const auto& f : tot.failures) std::cout << "  " << f << "\n";
        const bool pass = cli.expect_violations
                              ? (tot.violations > 0 && tot.bundles > 0)
                              : tot.violations == 0;
        std::cout << (pass ? "ROMFUZZ PASS" : "ROMFUZZ FAIL")
                  << (cli.expect_violations ? " (expected violations)" : "")
                  << "\n";
        return pass ? 0 : 1;
    } catch (const std::exception& ex) {
        std::cerr << "romfuzz: " << ex.what() << "\n";
        return 2;
    }
}
