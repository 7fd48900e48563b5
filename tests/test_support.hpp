// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/engine_globals.hpp"
#include "pmem/flush.hpp"

namespace romulus::test {

/// Unique heap file per test to keep tests independent.
inline std::string heap_path(const std::string& tag) {
    return "/dev/shm/romulus_test_" + tag + "_" + std::to_string(::getpid()) +
           ".heap";
}

/// RAII: save/restore the speculative-fast-path knobs.  Tests that assert
/// slow-path mechanics of the Romulus engines (Table-1 fence counts, checker
/// event sequences) construct one and set `update_config().fastpath = false`.
struct UpdateConfigGuard {
    UpdateConfig saved = update_config();
    ~UpdateConfigGuard() { update_config() = saved; }
};

/// RAII: save/restore the optimistic-read knobs.
struct ReadConfigGuard {
    ReadConfig saved = read_config();
    ~ReadConfigGuard() { read_config() = saved; }
};

/// RAII: select a flush profile for the duration of a test.
struct ProfileGuard {
    explicit ProfileGuard(pmem::Profile p) : saved(pmem::profile()) {
        pmem::set_profile(p);
    }
    ~ProfileGuard() { pmem::set_profile(saved); }
    pmem::Profile saved;
};

/// Fresh-heap fixture helper: destroys any pre-existing heap of engine E,
/// initialises a new one, and tears it down at scope exit.
template <typename E>
struct EngineSession {
    explicit EngineSession(size_t bytes, const std::string& tag) : path(heap_path(tag)) {
        std::remove(path.c_str());
        E::init(bytes, path);
    }
    ~EngineSession() {
        if (E::initialized()) E::destroy();
        std::remove(path.c_str());
    }
    std::string path;
};

}  // namespace romulus::test
