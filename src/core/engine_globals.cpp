#include "core/engine_globals.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <type_traits>

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
    env_long("ROMULUS_UPDATE_MAX_LINES", 1, [](long n) {
        update_config().max_fastpath_lines = static_cast<unsigned>(n);
    });
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

unsigned default_shard_count() {
    long v;
    if (env_to_long("ROMULUS_SHARDS", 1, &v)) {
        return v > long(kMaxShards) ? kMaxShards : static_cast<unsigned>(v);
    }
    return 1;
}

}  // namespace romulus
