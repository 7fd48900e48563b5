// romdb_bench workloads: the three traffic mixes, the seeded input
// generators and the value codec + per-key oracle that checks every result.
//
// Everything the store sees is derived from --seed: key popularity, the
// populate set and every client's op stream.  The store only ever receives
// the generated keys and values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace romdb {

// ---------------------------------------------------------------------------
// Workload shapes (README.md has the sources and rationale for each).
// ---------------------------------------------------------------------------

struct Spec {
    const char* name;
    unsigned shards;       ///< RomulusDB intra-heap shard count
    uint64_t keys;         ///< key space
    unsigned present_pct;  ///< share of keys present after populate (percent)
    uint32_t value_len;    ///< every value's length in bytes
    double zipf_theta;     ///< 0: uniform popularity
    unsigned get_pct;      ///< share of gets in the op mix (percent)
    unsigned del_pct;      ///< share of deletes; the rest are puts
    size_t heap_bytes;     ///< heap size (main + back twin + header)
    uint64_t count_ops;    ///< ops in the deterministic count pass
};

inline constexpr size_t kMiB = size_t{1} << 20;

// Record shapes come from the LevelDB db_bench runs of the paper's §6.4
// (bench/bench_fig8_db.cpp): 16 B keys with 100 B values, and fill100K's
// 100,000 B values over num/1000 keys.  The first two mixes are YCSB's core
// workloads B and A (Zipfian 0.99, popular keys scattered over the key
// space); the churn mix is synthetic (README.md).
//
// read_mostly (YCSB-B, db_bench's default 1M keys): ~245 MB of main plus
// the same again in back, well past a ~100 MB L3, so gets miss cache; 5%
// same-size overwrites barely touch the commit path.  Sixteen shards keep
// it that way: a commit invalidates the optimistic reads of its own shard
// only, so under 1% of gets wait out a commit and get_p99 measures the read
// path.  With one shard ~9% of gets wait, the p99 lands on that wait
// (update_heavy's subject) and swings ~1.7x as far as the host's speed.
// update_heavy (YCSB-A, 100k keys): ~24 MB fits in L3; 50% same-size
// in-place puts exercise the stripe fast path, the combiner and the commit
// pipeline with no allocation and runs under the 256 B NT threshold.
// churn_large (fill100K records): every insert allocates and every delete
// frees 100 KB, every put overflows the fast path's write set and re-runs,
// replication takes the NT path, and four shards let writers commit in
// parallel.  Puts:dels = 35:15 holds the store at its populated 70%
// (put / (put + del)), so hits and puts are clear majorities and the p50s
// sit inside one mode instead of between two.  Its count pass is 20k ops:
// 200k would write ~7 GB and take half a minute.
inline const Spec kSpecs[] = {
    {"read_mostly", 16, 1'000'000, 100, 100, 0.99, 95, 0, 560 * kMiB, 200'000},
    {"update_heavy", 1, 100'000, 100, 100, 0.99, 50, 0, 96 * kMiB, 200'000},
    {"churn_large", 4, 1'000, 70, 100'000, 0.0, 50, 15, 512 * kMiB, 20'000},
};

inline const Spec* find_spec(std::string_view name) {
    for (const Spec& s : kSpecs)
        if (name == s.name) return &s;
    return nullptr;
}

/// Client threads; key k is only ever written by client k % kClients, which
/// makes every key's latest value known to exactly one thread.
inline constexpr int kClients = 3;

inline unsigned owner_of(uint64_t key) { return unsigned(key % kClients); }

// ---------------------------------------------------------------------------
// Seeded generators
// ---------------------------------------------------------------------------

inline uint64_t mix64(uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// splitmix64 stream: tiny, fast and identical on every platform (the
/// std:: distributions are implementation-defined).
struct Rng {
    uint64_t s;
    explicit Rng(uint64_t seed) : s(mix64(seed)) {}
    uint64_t next() { return mix64(s += 0x9e3779b97f4a7c15ull); }
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return double(next() >> 11) * 0x1.0p-53; }
};

/// Stream seed for (run seed, phase, client): each phase and client draws
/// an independent, reproducible op stream.
inline uint64_t stream_seed(uint64_t seed, uint64_t phase, uint64_t client) {
    return mix64(mix64(seed) ^ (phase << 32) ^ client);
}

/// YCSB's Zipfian generator (Gray et al.): O(1) per draw after one O(n)
/// zeta sum.  Returns a popularity rank in [0, n).
class Zipf {
  public:
    Zipf(uint64_t n, double theta) : n_(n) {
        double zetan = 0;
        for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(double(i), theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        zeta2_ = 1.0 + std::pow(0.5, theta);
        eta_ = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
               (1.0 - zeta2_ / zetan);
    }
    uint64_t rank(double u) const {
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < zeta2_) return 1;
        const auto r = uint64_t(double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return std::min(r, n_ - 1);
    }

  private:
    uint64_t n_;
    double zetan_ = 0, alpha_ = 0, eta_ = 0, zeta2_ = 0;
};

/// Seed-derived inputs shared by every phase of one run.
struct Inputs {
    const Spec* spec;
    uint64_t seed;
    std::vector<uint32_t> perm;  ///< popularity rank -> key id (scatter)
    std::vector<Zipf> zipf;      ///< empty for uniform popularity

    Inputs(const Spec& s, uint64_t sd) : spec(&s), seed(sd) {
        if (s.zipf_theta > 0) {
            perm.resize(s.keys);
            for (uint64_t i = 0; i < s.keys; ++i) perm[i] = uint32_t(i);
            Rng rng(stream_seed(sd, 0xfe, 0));
            for (uint64_t i = s.keys - 1; i > 0; --i)
                std::swap(perm[i], perm[rng.below(i + 1)]);
            zipf.emplace_back(s.keys, s.zipf_theta);
        }
    }

    uint64_t any_key(Rng& rng) const {
        if (zipf.empty()) return rng.below(spec->keys);
        return perm[zipf.front().rank(rng.unit())];
    }

    /// A key owned by client `owner` (same popularity shape, restricted to
    /// the owner's keys).
    uint64_t owned_key(Rng& rng, unsigned owner) const {
        if (zipf.empty()) {
            const uint64_t slots = (spec->keys - owner + kClients - 1) / kClients;
            return rng.below(slots) * kClients + owner;
        }
        for (;;) {
            const uint64_t k = any_key(rng);
            if (owner_of(k) == owner) return k;
        }
    }

    bool initially_present(uint64_t key) const {
        return mix64(seed ^ (key * 0x2545f4914f6cdd1dull)) % 100 < spec->present_pct;
    }
};

enum class OpKind : uint8_t { Get, Put, Del };

/// One client's op stream.  `owner` < 0 (the single-threaded count pass)
/// writes any key; otherwise updates only pick keys this client owns.
struct OpGen {
    const Inputs& in;
    Rng rng;
    int owner;

    OpGen(const Inputs& i, uint64_t seed, int own) : in(i), rng(seed), owner(own) {}

    OpKind next(uint64_t* key) {
        const unsigned roll = unsigned(rng.below(100));
        if (roll < in.spec->get_pct) {
            *key = in.any_key(rng);
            return OpKind::Get;
        }
        *key = owner < 0 ? in.any_key(rng) : in.owned_key(rng, unsigned(owner));
        return roll < in.spec->get_pct + in.spec->del_pct ? OpKind::Del
                                                          : OpKind::Put;
    }
};

// ---------------------------------------------------------------------------
// Keys and values
// ---------------------------------------------------------------------------

inline constexpr size_t kKeyLen = 16;  ///< 16-byte zero-padded decimal

inline void format_key(uint64_t id, char out[kKeyLen]) {
    for (int i = int(kKeyLen) - 1; i >= 0; --i) {
        out[i] = char('0' + id % 10);
        id /= 10;
    }
}

inline bool parse_key(std::string_view k, uint64_t* id) {
    if (k.size() != kKeyLen) return false;
    uint64_t v = 0;
    for (char c : k) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + uint64_t(c - '0');
    }
    *id = v;
    return true;
}

// Value layout: key id (8) | writer (4) | seq (4) | filler | checksum (8).
// The filler is a cheap function of (key, seq) so two versions of one key
// never share bytes, and the trailing checksum covers everything before it:
// a torn, stale-mixed or misplaced value fails verification.
inline constexpr size_t kValueHeader = 16;
inline constexpr size_t kValueMin = kValueHeader + 8;

inline uint64_t load64(const char* p) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/// Four independent multiply lanes: about one word per cycle, so checking
/// an 8 KiB value costs well under the get that fetched it.
inline uint64_t checksum(const char* p, size_t n) {
    uint64_t h[4] = {0x243f6a8885a308d3ull, 0x13198a2e03707344ull,
                     0xa4093822299f31d0ull, 0x082efa98ec4e6c89ull};
    constexpr uint64_t kMul = 0x9fb21c651e98df25ull;
    size_t i = 0;
    for (; i + 32 <= n; i += 32)
        for (int j = 0; j < 4; ++j) h[j] = (h[j] ^ load64(p + i + 8 * j)) * kMul;
    for (; i + 8 <= n; i += 8) h[0] = (h[0] ^ load64(p + i)) * kMul;
    for (; i < n; ++i) h[1] = (h[1] ^ uint8_t(p[i])) * kMul;
    return mix64(h[0] ^ mix64(h[1] ^ mix64(h[2] ^ mix64(h[3] ^ n))));
}

struct ValueTag {
    uint64_t key;
    uint32_t writer;
    uint32_t seq;
};

inline void encode_value(std::string& out, uint64_t key, uint32_t seq, uint32_t len) {
    out.resize(len);
    char* p = out.data();
    const uint32_t writer = owner_of(key);
    std::memcpy(p, &key, 8);
    std::memcpy(p + 8, &writer, 4);
    std::memcpy(p + 12, &seq, 4);
    const uint64_t base = mix64(key ^ (uint64_t(seq) << 40));
    const size_t body_end = len - 8;
    size_t i = kValueHeader;
    for (uint64_t w = 0; i + 8 <= body_end; i += 8, ++w) {
        const uint64_t word = base ^ (w * 0x9e3779b97f4a7c15ull);
        std::memcpy(p + i, &word, 8);
    }
    for (; i < body_end; ++i) p[i] = char(base >> (8 * (i % 8)));
    const uint64_t sum = checksum(p, body_end);
    std::memcpy(p + body_end, &sum, 8);
}

/// Decode and verify a value's tag and checksum.
inline bool decode_value(std::string_view v, ValueTag* tag) {
    if (v.size() < kValueMin) return false;
    const char* p = v.data();
    if (checksum(p, v.size() - 8) != load64(p + v.size() - 8)) return false;
    std::memcpy(&tag->key, p, 8);
    std::memcpy(&tag->writer, p + 8, 4);
    std::memcpy(&tag->seq, p + 12, 4);
    return true;
}

/// Latest acknowledged version of one key.  Written only by the key's
/// owner (or by the single-threaded phases), so no synchronisation.
struct KeyState {
    uint32_t seq = 0;
    uint32_t len = 0;  ///< 0: absent (values are never shorter than kValueMin)
    bool present() const { return len != 0; }
};

/// A value read for `key` is correct when its tag names that key and its
/// owner and the checksum holds; `exact` also demands the latest version.
inline bool value_ok(std::string_view v, uint64_t key, const KeyState* exact) {
    ValueTag tag;
    if (!decode_value(v, &tag)) return false;
    if (tag.key != key || tag.writer != owner_of(key)) return false;
    if (exact != nullptr && (tag.seq != exact->seq || v.size() != exact->len))
        return false;
    return true;
}

}  // namespace romdb
