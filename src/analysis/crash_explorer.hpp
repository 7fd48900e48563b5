// romver: exhaustive crash-image model checking over the persist graph
// (docs/romver.md).
//
// A legal crash image is a down-closed cut of the happens-before-persist DAG:
// a set of write-backs S such that whenever the graph orders a before b and
// b ∈ S, then a ∈ S.  With the layered fence-window structure PersistGraph
// exposes, every cut factors as: all windows before a FRONTIER window fully
// persisted, a down-closed subset of the frontier window (one prefix per
// same-line chain), and nothing after.  The explorer walks the frontier
// through the windows in order, materializes every (or, above budget, a
// seeded random sample of) frontier subset into a scratch image built from
// the recorder's baseline + captured line contents, and hands each image to
// a caller-provided check — typically: write the image over the heap file,
// run engine recovery, validate invariants.
//
// Cut counting: a window with chains of lengths c_1..c_k admits
// Π (c_i + 1) down-closed subsets; the full subset is excluded (it is the
// zero subset of the next frontier), and the everything-persisted cut is
// emitted once at the end, so each legal image is visited exactly once and
// the theoretical total is  Σ_w (Π_i (c_i + 1) − 1) + 1.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/persist_graph.hpp"

namespace romulus::analysis {

struct CrashCut {
    uint64_t index = 0;           ///< position in deterministic visit order
    uint32_t frontier_window = 0; ///< first window not fully persisted
    bool complete = false;        ///< every recorded write-back persisted
    bool sampled = false;         ///< drawn by the sampler, not enumerated
};

struct ExploreOptions {
    /// Hard ceiling on materialized images across the whole run.
    uint64_t max_cuts = 1u << 16;
    /// Enumerate a frontier window exhaustively when its subset count is at
    /// most this; otherwise fall back to seeded sampling.
    uint64_t window_exhaustive_cap = 512;
    /// Distinct subsets drawn per sampled window.
    uint64_t window_samples = 64;
    uint64_t seed = 1;
    /// Keep at most this many failure descriptions in the report.
    size_t max_failures = 16;
};

struct ExploreReport {
    /// Theoretical number of legal crash images (double: real transactions
    /// reach 2^100+ for a single fence window, far past uint64_t).
    double cuts_total = 0;
    uint64_t cuts_explored = 0;
    uint64_t cuts_sampled = 0;    ///< subset of cuts_explored drawn randomly
    double cuts_dropped = 0;      ///< cuts_total - cuts_explored
    uint32_t windows_total = 0;
    uint32_t windows_sampled = 0; ///< windows where sampling replaced enumeration
    bool exhaustive = false;      ///< every legal image was materialized
    bool budget_hit = false;      ///< max_cuts stopped the walk early
    uint64_t violations = 0;      ///< images the check rejected
    std::vector<std::string> failures;

    std::string summary() const;
};

/// Validate one materialized crash image.  `image` is the full region
/// content; return false and fill `err` to record a violation.  The image
/// buffer is reused between calls — copy anything that must outlive the
/// call.
using CrashImageCheck = std::function<bool(
    const std::vector<uint8_t>& image, const CrashCut& cut, std::string& err)>;

ExploreReport explore_crash_images(const PersistGraph& graph,
                                   const PersistEventRecorder& rec,
                                   const CrashImageCheck& check,
                                   const ExploreOptions& opts = {});

// ---------------------------------------------------------------------------
// Reusable recovery-image validation
// ---------------------------------------------------------------------------
//
// The oracle glue every crash-image consumer needs, factored out of the
// romver harness so romfuzz and test code share one implementation: write
// the materialized image over the heap file, re-init the engine (running its
// real recovery), then check the engine-structural invariants below.  Root
// reachability / content oracles stay with the caller — only it knows what
// the roots mean.

/// Overwrite the heap file in place with a materialized crash image.
/// Throws std::runtime_error if the file cannot be rewritten.
void write_crash_image(const std::string& path,
                       const std::vector<uint8_t>& image);

struct RecoveryCheck {
    bool ok = true;
    std::string detail;  ///< semicolon-joined reasons when !ok

    void fail(std::string why) {
        ok = false;
        detail += why + "; ";
    }
};

/// Twin-half consistency: after recovery both halves of every shard must
/// agree over the allocated range, and every shard must be IDLE.  Engines
/// without twin copies (the log baselines) pass vacuously.  The engine must
/// already be init()ed (i.e. recovery has run).
template <typename E>
RecoveryCheck check_twin_halves() {
    RecoveryCheck rc;
    if constexpr (requires { E::shard_count(); }) {
        using TxS = decltype(E::state(0u));
        for (unsigned sh = 0; sh < E::shard_count(); ++sh) {
            std::ostringstream os;
            if (E::state(sh) != TxS::IDL) {
                os << "shard " << sh << " not IDLE after recovery";
                rc.fail(os.str());
                continue;
            }
            if (E::back_base(sh) != nullptr &&
                std::memcmp(E::main_base(sh), E::back_base(sh),
                            size_t(E::used_bytes(sh))) != 0) {
                os << "shard " << sh << " twin halves differ over "
                   << E::used_bytes(sh) << " used bytes";
                rc.fail(os.str());
            }
        }
    }
    return rc;
}

/// Allocator liveness: a post-recovery transaction on every shard must still
/// be able to allocate and free.  The free-list metadata is walked
/// defensively first — a corrupt image (e.g. recovered under a planted
/// protocol mutation) has garbage chunk pointers, and letting the real
/// alloc path chase them would crash the prober instead of reporting.
template <typename E>
RecoveryCheck probe_allocator() {
    RecoveryCheck rc;
    auto alloc_of = [](unsigned sh) -> auto& {
        if constexpr (requires(unsigned s) { E::allocator(s); }) {
            return E::allocator(sh);
        } else {
            (void)sh;
            return E::allocator();
        }
    };
    auto probe = [&](auto run, unsigned sh) {
        // metadata_sane makes the free lists safe to walk; check_consistency
        // then validates the boundary tags the free path's coalescing
        // trusts.  Only a heap that passes both is given to the real
        // allocator.
        if (!alloc_of(sh).metadata_sane() ||
            alloc_of(sh).check_consistency() == 0) {
            std::ostringstream os;
            os << "allocator metadata corrupt after recovery (shard " << sh
               << ")";
            rc.fail(os.str());
            return;
        }
        try {
            run([&] {
                void* p = E::alloc_bytes(64);
                if (p == nullptr)
                    throw std::runtime_error("alloc_bytes returned null");
                E::free_bytes(p);
            });
        } catch (const std::exception& ex) {
            std::ostringstream os;
            os << "allocator broken after recovery (shard " << sh
               << "): " << ex.what();
            rc.fail(os.str());
        }
    };
    if constexpr (requires { E::shard_count(); }) {
        for (unsigned sh = 0; sh < E::shard_count(); ++sh)
            probe([&](auto&& f) { E::updateTx(sh, f); }, sh);
    } else {
        probe([&](auto&& f) { E::updateTx(f); }, 0);
    }
    return rc;
}

}  // namespace romulus::analysis
