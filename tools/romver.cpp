// romver — offline persist-order analysis and crash-image model checking
// for the five PTM engines (docs/romver.md).
//
// Records one canonical update transaction per engine, runs the static
// protocol rules over its happens-before-persist graph, and (clean mode)
// walks the legal crash images through real engine recovery.
//
//   romver [--engine all|nl|log|lr|undo|redo] [--tx-bytes N] [--heap-mb N]
//          [--budget N] [--window-samples N] [--exhaustive-cap N] [--seed N]
//          [--mutate none|elide-fence|reorder-state|elide-nt-drain]
//          [--expect-violations]
//          [--no-explore] [--report FILE] [--path FILE]
//
// Exit status: 0 when every engine is clean (or, with --expect-violations,
// when every engine is flagged), 1 otherwise, 2 on usage errors.
//
// --mutate arms one of the seeded protocol bugs in the Romulus commit path
// and is only meaningful for the Romulus engines on a -DROMULUS_PERSISTGRAPH
// build; the static rules must flag the mutation, naming the unordered
// line/fence pair.  Mutation runs skip the crash explorer (the point is rule
// detection, not enumerating images of a deliberately broken protocol).

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "analysis/romver.hpp"
#include "baselines/redolog.hpp"
#include "baselines/undolog.hpp"
#include "core/romulus.hpp"

namespace {

using namespace romulus;
using namespace romulus::analysis;

struct Cli {
    std::string engine = "all";
    size_t tx_bytes = 8192;
    size_t heap_mb = 16;
    uint64_t budget = 1u << 16;
    uint64_t window_samples = 64;
    uint64_t exhaustive_cap = 512;
    uint64_t seed = 1;
    std::string mutate = "none";
    bool expect_violations = false;
    bool explore = true;
    std::string report_file;
    std::string path;
};

[[noreturn]] void usage(const std::string& err) {
    if (!err.empty()) std::cerr << "romver: " << err << "\n";
    std::cerr << "usage: romver [--engine all|nl|log|lr|undo|redo]"
                 " [--tx-bytes N] [--heap-mb N] [--budget N]"
                 " [--window-samples N] [--exhaustive-cap N] [--seed N]"
                 " [--mutate none|elide-fence|reorder-state|elide-nt-drain]"
                 " [--expect-violations] [--no-explore] [--report FILE]"
                 " [--path FILE]\n";
    std::exit(2);
}

struct EngineResult {
    std::string name;
    bool flagged = false;  // static rules or explorer found violations
    std::string text;
};

template <typename E>
EngineResult run_engine(const std::string& name, const Cli& cli) {
    EngineResult res;
    res.name = name;
    std::ostringstream os;
    os << "=== " << name << " ===\n";

    RomverConfig cfg;
    cfg.path = cli.path.empty() ? "/dev/shm/romver_" + name + "_" +
                                      std::to_string(::getpid()) + ".heap"
                                : cli.path + "." + name;
    cfg.heap_bytes = cli.heap_mb << 20;
    cfg.tx_bytes = cli.tx_bytes;

    RomverHarness<E> harness(cfg);
    harness.record();
    os << "recorded " << harness.recorder().events().size() << " events, "
       << harness.graph().nodes().size() << " write-backs across "
       << harness.graph().window_count() << " fence windows\n";

    GraphAnalysis ga = harness.analyze();
    os << ga.report();
    if (!ga.clean()) res.flagged = true;
    // The redundant-flush diagnostic feeds the same commit-path counter the
    // benches report from.
    ga.record_in(pmem::tl_commit_stats());

    if (cli.explore) {
        ExploreOptions opts;
        opts.max_cuts = cli.budget;
        opts.window_samples = cli.window_samples;
        opts.window_exhaustive_cap = cli.exhaustive_cap;
        opts.seed = cli.seed;
        ExploreReport rep = harness.explore(opts);
        os << rep.summary() << "\n";
        if (rep.violations != 0) res.flagged = true;
    }
    res.text = os.str();
    return res;
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
        else if (a == "--tx-bytes") cli.tx_bytes = std::stoull(next(a.c_str()));
        else if (a == "--heap-mb") cli.heap_mb = std::stoull(next(a.c_str()));
        else if (a == "--budget") cli.budget = std::stoull(next(a.c_str()));
        else if (a == "--window-samples")
            cli.window_samples = std::stoull(next(a.c_str()));
        else if (a == "--exhaustive-cap")
            cli.exhaustive_cap = std::stoull(next(a.c_str()));
        else if (a == "--seed") cli.seed = std::stoull(next(a.c_str()));
        else if (a == "--mutate") cli.mutate = next("--mutate");
        else if (a == "--expect-violations") cli.expect_violations = true;
        else if (a == "--no-explore") cli.explore = false;
        else if (a == "--report") cli.report_file = next("--report");
        else if (a == "--path") cli.path = next("--path");
        else if (a == "--help" || a == "-h") usage("");
        else usage("unknown argument " + a);
    }

    if (std::string tuned = apply_env_tuning(); !tuned.empty())
        std::cout << "env tuning: " << tuned << "\n";

    if (cli.mutate != "none" && cli.mutate != "elide-fence" &&
        cli.mutate != "reorder-state" && cli.mutate != "elide-nt-drain")
        usage("unknown --mutate " + cli.mutate);
    bool mutating = cli.mutate != "none";
    if (mutating) {
        if (!kPersistGraphEnabled) {
            std::cerr << "romver: --mutate requires a -DROMULUS_PERSISTGRAPH "
                         "build (this binary was built without it)\n";
            return 2;
        }
        if (cli.engine == "undo" || cli.engine == "redo")
            usage("--mutate applies to the Romulus engines only");
        cli.explore = false;  // rule detection, not broken-image enumeration
        protocol_mutations().elide_commit_fence = cli.mutate == "elide-fence";
        protocol_mutations().reorder_state_persist =
            cli.mutate == "reorder-state";
        protocol_mutations().elide_nt_drain = cli.mutate == "elide-nt-drain";
    }

    std::vector<EngineResult> results;
    auto want = [&](const char* n) {
        return cli.engine == "all" || cli.engine == n;
    };
    try {
        if (want("nl")) results.push_back(run_engine<RomulusNL>("nl", cli));
        if (want("log")) results.push_back(run_engine<RomulusLog>("log", cli));
        if (want("lr")) results.push_back(run_engine<RomulusLR>("lr", cli));
        if (!mutating) {
            if (want("undo"))
                results.push_back(
                    run_engine<baselines::UndoLogPTM>("undo", cli));
            if (want("redo"))
                results.push_back(
                    run_engine<baselines::RedoLogPTM>("redo", cli));
        }
    } catch (const std::exception& ex) {
        std::cerr << "romver: " << ex.what() << "\n";
        return 2;
    }
    if (results.empty()) usage("no engine matched " + cli.engine);

    std::ostringstream all;
    // The flush profile decides the commit's write-back order: NT line
    // images drained before each state store, or cached stores + pwbs
    // ordered by the pfences (ROMULUS_NT_THRESHOLD=18446744073709551615).
    all << "romver report (tx-bytes=" << cli.tx_bytes
        << ", seed=" << cli.seed << ", mutate=" << cli.mutate
        << ", mutation-hooks=" << (kPersistGraphEnabled ? "armed" : "absent")
        << ", profile=" << pmem::profile_name(pmem::effective_profile())
        << ", line-images=" << (pmem::streams_line_images() ? "nt" : "cached")
        << ")\n";
    bool any_flagged = false, all_flagged = true;
    for (const EngineResult& r : results) {
        all << r.text;
        any_flagged |= r.flagged;
        all_flagged &= r.flagged;
    }
    bool pass = cli.expect_violations ? all_flagged : !any_flagged;
    all << (pass ? "ROMVER PASS" : "ROMVER FAIL")
        << (cli.expect_violations ? " (expected violations)" : "") << "\n";

    std::cout << all.str();
    if (!cli.report_file.empty()) {
        std::ofstream f(cli.report_file);
        f << all.str();
        if (!f) {
            std::cerr << "romver: cannot write " << cli.report_file << "\n";
            return 2;
        }
    }
    return pass ? 0 : 1;
}
