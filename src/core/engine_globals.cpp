#include "core/engine_globals.hpp"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "pmem/region.hpp"

namespace romulus {

ReadConfig& read_config() {
    static ReadConfig cfg;
    return cfg;
}

UpdateConfig& update_config() {
    static UpdateConfig cfg;
    return cfg;
}

namespace {
/// The strict parse behind parse_env_long and parse_env_u64.
template <typename T>
bool parse_env_number(const char* text, T lo, T* out) {
    if (text == nullptr || *text == '\0') return false;
    errno = 0;
    char* end = nullptr;
    T n;
    if constexpr (std::is_signed_v<T>) {
        n = std::strtol(text, &end, 10);
    } else {
        const char* p = text;
        while (std::isspace(static_cast<unsigned char>(*p))) ++p;
        if (*p == '-') return false;  // strtoull would wrap it modulo 2^64
        n = std::strtoull(text, &end, 10);
    }
    if (end == text || errno == ERANGE) return false;
    while (*end == ' ' || *end == '\t') ++end;  // tolerate trailing blanks
    if (*end != '\0') return false;             // reject "12x", "1.5", ...
    if (n < lo) return false;
    *out = n;
    return true;
}
}  // namespace

bool parse_env_long(const char* text, long lo, long* out) {
    return parse_env_number(text, lo, out);
}

bool parse_env_u64(const char* text, uint64_t* out) {
    unsigned long long n;
    if (!parse_env_number(text, 0ull, &n)) return false;
    *out = n;
    return true;
}

bool env_to_long(const char* name, long lo, long* out) {
    return parse_env_long(std::getenv(name), lo, out);
}

std::string apply_env_tuning() {
    std::ostringstream os;
    auto env_long = [&](const char* name, long lo, auto apply) {
        long n;
        if (env_to_long(name, lo, &n)) {
            apply(n);
            os << name << "=" << n << " ";
        }
    };
    env_long("ROMULUS_READ_OPTIMISTIC", 0,
             [](long n) { read_config().optimistic = n != 0; });
    env_long("ROMULUS_READ_MAX_ATTEMPTS", 1, [](long n) {
        read_config().max_attempts = static_cast<unsigned>(n);
    });
    // Unsigned: nt_threshold's stream-nothing value, SIZE_MAX, lies past
    // long's range.
    if (uint64_t n; parse_env_u64(std::getenv("ROMULUS_NT_THRESHOLD"), &n)) {
        pmem::commit_config().nt_threshold = static_cast<size_t>(n);
        os << "ROMULUS_NT_THRESHOLD=" << n << " ";
    }
    env_long("ROMULUS_UPDATE_FASTPATH", 0,
             [](long n) { update_config().fastpath = n != 0; });
    return os.str();
}

ReadStats& tl_read_stats() {
    thread_local ReadStats stats;
    return stats;
}

size_t default_heap_bytes() {
    long v;
    if (env_to_long("ROMULUS_HEAP_MB", 1, &v))
        return static_cast<size_t>(v) * 1024 * 1024;
    return 64ull * 1024 * 1024;
}

size_t heap_bytes_for(size_t heap_bytes, const std::string& path) {
    constexpr size_t kPage = 4096;
    size_t size = heap_bytes;
    struct ::stat st{};
    if (size == 0 && ::stat(path.c_str(), &st) == 0 && st.st_size != 0) {
        size = static_cast<size_t>(st.st_size);
        // Every heap is whole pages: a header page and at least one shard.
        if (size % kPage != 0 ||
            size < pmem::ShardLayout::min_region_size(kPage))
            throw NotAHeapError("heap file " + path + " is " +
                                std::to_string(size) +
                                " bytes: not a whole number of pages of "
                                "at least one shard's size");
        return size;
    }
    if (size == 0) size = default_heap_bytes();
    return (size + kPage - 1) & ~(kPage - 1);
}

unsigned default_shard_count() {
    long v;
    if (env_to_long("ROMULUS_SHARDS", 1, &v)) {
        return v > long(kMaxShards) ? kMaxShards : static_cast<unsigned>(v);
    }
    return 1;
}

}  // namespace romulus
