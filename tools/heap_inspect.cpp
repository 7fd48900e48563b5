// heap_inspect: operator tool that reports the persistent state of a Romulus
// heap file — header fields, crash disposition, allocator statistics, root
// table occupancy and a full heap-walk consistency check.  Useful after a
// crash to see what recovery will do before letting an application attach.
//
//   build/tools/heap_inspect <heap-file> [--no-recover]
//
// The variant is the one whose RomulusEngine::owns_heap accepts the file's
// header page; a file no variant owns is refused (exit 2) and left as it is.
// Attaching runs recovery (by design: Algorithm 1 makes attach safe); pass
// --no-recover to print the header without mapping the engine.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/romulus.hpp"

using namespace romulus;

namespace {

const char* state_name(uint32_t s) {
    switch (s) {
        case 0: return "IDL (both copies consistent)";
        case 1: return "MUT (crashed mid-transaction: back is consistent, "
                       "recovery will copy back->main)";
        case 2: return "CPY (crashed mid-replication: main is consistent, "
                       "recovery will copy main->back)";
    }
    return "CORRUPT";
}

template <typename E>
const typename E::PHeader& header_of(const uint8_t* page) {
    return *static_cast<const typename E::PHeader*>(
        static_cast<const void*>(page));
}

template <typename E>
const typename E::ShardHeader& shard_header_of(const uint8_t* page,
                                               unsigned s) {
    return static_cast<const typename E::ShardHeader*>(
        static_cast<const void*>(page + E::kShardHeaderOffset))[s];
}

template <typename E>
int inspect_raw(const std::string& path, const uint8_t* page) {
    const auto& h = header_of<E>(page);
    std::printf("raw header of %s:\n", path.c_str());
    std::printf("  engine      : %s\n", E::name());
    std::printf("  magic       : 0x%016llx\n",
                (unsigned long long)h.magic.load());
    std::printf("  shards      : %u\n", h.shard_count);
    std::printf("  main size   : %llu (per shard)\n",
                (unsigned long long)h.main_size);
    std::printf("  region size : %llu\n", (unsigned long long)h.region_size);
    for (unsigned s = 0; s < h.shard_count; ++s) {
        const auto& sh = shard_header_of<E>(page, s);
        const uint32_t state = sh.state.load();
        const uint64_t used = sh.used_size.load();
        std::printf("  shard %-2u    : state %u — %s; used %llu (%.2f MB)\n", s,
                    state, state_name(state), (unsigned long long)used,
                    double(used) / (1 << 20));
    }
    return 0;
}

template <typename E>
int inspect_engine(const std::string& path, const uint8_t* page) {
    // Worst pre-attach disposition across shards (any non-IDL shard means
    // attach will run a recovery roll for it).
    uint32_t pre_state = 0;
    for (unsigned s = 0; s < header_of<E>(page).shard_count; ++s)
        pre_state = std::max(pre_state, shard_header_of<E>(page, s).state.load());

    E::init(0, path);
    std::printf("engine      : %s\n", E::name());
    std::printf("shards      : %u\n", E::shard_count());
    std::printf("pre-attach  : worst shard %s\n", state_name(pre_state));
    bool all_consistent = true;
    for (unsigned sd = 0; sd < E::shard_count(); ++sd) {
        std::printf("-- shard %u --\n", sd);
        std::printf("post-attach : %s (recovery %s)\n",
                    state_name(E::state(sd)),
                    pre_state == 0 ? "not needed" : "completed");
        std::printf("used bytes  : %llu / %zu main\n",
                    (unsigned long long)E::used_bytes(sd), E::main_size());

        auto& alloc = E::allocator(sd);
        std::printf("allocator   : %llu live allocations, %llu live bytes, "
                    "wilderness at %llu\n",
                    (unsigned long long)alloc.alloc_count(),
                    (unsigned long long)alloc.allocated_bytes(),
                    (unsigned long long)alloc.wilderness_offset());
        const size_t chunks = alloc.check_consistency();
        std::printf("heap walk   : %s (%zu chunks)\n",
                    chunks > 0 ? "CONSISTENT" : "CORRUPT", chunks);

        int roots = 0;
        for (int i = 0; i < kMaxRootObjects; ++i)
            if (E::template get_object<void>(i, sd) != nullptr) {
                std::printf("root[%2d]    : %p\n", i,
                            E::template get_object<void>(i, sd));
                ++roots;
            }
        if (roots == 0) std::printf("roots       : (none set)\n");

        const bool twins_equal =
            std::memcmp(E::main_base(sd), E::back_base(sd),
                        E::used_bytes(sd)) == 0;
        std::printf("twin copies : %s\n",
                    twins_equal ? "byte-identical" : "DIVERGED (BUG)");
        all_consistent = all_consistent && chunks > 0 && twins_equal;
    }
    E::close();
    return all_consistent ? 0 : 2;
}

template <typename E>
int inspect(const std::string& path, const uint8_t* page, bool raw) {
    return raw ? inspect_raw<E>(path, page) : inspect_engine<E>(path, page);
}

}  // namespace

int main(int argc, char** argv) {
    const bool raw = argc == 3 && std::strcmp(argv[2], "--no-recover") == 0;
    if (argc < 2 || argc > 3 || (argc == 3 && !raw)) {
        std::fprintf(stderr, "usage: heap_inspect <heap-file> [--no-recover]\n");
        return 2;
    }
    const std::string path = argv[1];

    // The header page and the file size, read once: they decide the variant.
    alignas(64) uint8_t page[RomulusLog::kHeaderReserved] = {};
    struct stat st{};
    const int fd = ::open(path.c_str(), O_RDONLY);
    const bool read_ok = fd >= 0 && ::fstat(fd, &st) == 0 &&
                         ::read(fd, page, sizeof page) >= 0;
    if (fd >= 0) ::close(fd);
    if (!read_ok) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 1;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (RomulusNL::owns_heap(page, size)) return inspect<RomulusNL>(path, page, raw);
    if (RomulusLog::owns_heap(page, size)) return inspect<RomulusLog>(path, page, raw);
    if (RomulusLR::owns_heap(page, size)) return inspect<RomulusLR>(path, page, raw);

    uint64_t magic;
    std::memcpy(&magic, page, sizeof magic);
    std::fprintf(stderr,
                 "heap_inspect: %s is not a Romulus heap (magic 0x%016llx, "
                 "%zu bytes)\n",
                 path.c_str(), (unsigned long long)magic, size);
    return 2;
}
