#include "analysis/tx_trace.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>

namespace romulus::analysis {

namespace {

constexpr uint64_t kMagic = 0x315A5546464D4F52ull;  // "ROMFFUZ1" little-endian
constexpr uint32_t kVersion = 1;
constexpr uint8_t kFlagRepro = 1u << 0;
constexpr uint8_t kFlagAccess = 1u << 1;

uint64_t fnv1a(const uint8_t* p, size_t n, uint64_t h = 1469598103934665603ull) {
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

void put_u8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void put_u32(std::vector<uint8_t>& out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out.push_back(uint8_t(v >> (8 * i)));
}
void put_u64(std::vector<uint8_t>& out, uint64_t v) {
    for (int i = 0; i < 8; ++i) out.push_back(uint8_t(v >> (8 * i)));
}
void put_bytes(std::vector<uint8_t>& out, const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    out.insert(out.end(), b, b + n);
}

/// Bounds-checked read cursor: every overrun is a TraceError, never UB.
struct Cursor {
    const uint8_t* p;
    size_t left;

    void need(size_t n) const {
        if (n > left) throw TraceError("trace truncated");
    }
    uint8_t u8() {
        need(1);
        uint8_t v = *p;
        ++p, --left;
        return v;
    }
    uint32_t u32() {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
        p += 4, left -= 4;
        return v;
    }
    uint64_t u64() {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
        p += 8, left -= 8;
        return v;
    }
    std::string str(size_t n) {
        need(n);
        std::string s(reinterpret_cast<const char*>(p), n);
        p += n, left -= n;
        return s;
    }
};

}  // namespace

const char* engine_tag_name(uint8_t tag) {
    switch (tag) {
        case kEngineRomulusNL: return "romulus-nl";
        case kEngineRomulusLog: return "romulus-log";
        case kEngineRomulusLR: return "romulus-lr";
        case kEngineUndoLog: return "undolog";
        case kEngineRedoLog: return "redolog";
        default: return "unknown";
    }
}

// ---------------------------------------------------------------------------
// AccessLog
// ---------------------------------------------------------------------------

AccessLog AccessLog::from_recording(const PersistEventRecorder& rec,
                                    const EngineLayout& layout) {
    AccessLog log;
    log.streams.resize(layout.shards.size() + 1);
    auto& global = log.streams.back();
    for (const PersistEvent& e : rec.events()) {
        switch (e.kind) {
            case PersistEventKind::Store: {
                int sh = layout.shard_of_zone(e.off);
                auto& s = sh >= 0 ? log.streams[size_t(sh)] : global;
                s.push_back({0, e.len, e.off});
                break;
            }
            case PersistEventKind::TxBegin:
                global.push_back({1, 0, 0});
                break;
            case PersistEventKind::TxCommit:
                global.push_back({2, 0, 0});
                break;
            case PersistEventKind::TxAbort:
                global.push_back({3, 0, 0});
                break;
            case PersistEventKind::StateTransition:
                global.push_back({4, e.state, e.off});
                break;
            default:  // Pwb/Fence/RangeLogged: persist schedule, not access
                break;
        }
    }
    return log;
}

bool AccessLog::empty() const { return total_events() == 0; }

size_t AccessLog::total_events() const {
    size_t n = 0;
    for (const auto& s : streams) n += s.size();
    return n;
}

uint64_t AccessLog::digest() const {
    uint64_t h = 1469598103934665603ull;
    for (const auto& s : streams) {
        uint64_t len = s.size();
        h = fnv1a(reinterpret_cast<const uint8_t*>(&len), sizeof(len), h);
        for (const AccessEvent& e : s) {
            h = fnv1a(&e.kind, 1, h);
            h = fnv1a(reinterpret_cast<const uint8_t*>(&e.len), 4, h);
            h = fnv1a(reinterpret_cast<const uint8_t*>(&e.off), 8, h);
        }
    }
    return h;
}

// ---------------------------------------------------------------------------
// TxTrace (de)serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> TxTrace::serialize() const {
    std::vector<uint8_t> out;
    put_u64(out, kMagic);
    put_u32(out, kVersion);
    put_u8(out, engine_id);
    uint8_t flags = 0;
    if (has_repro) flags |= kFlagRepro;
    if (!access.streams.empty()) flags |= kFlagAccess;
    put_u8(out, flags);
    put_u8(out, 0);
    put_u8(out, 0);
    put_u32(out, shard_count);
    put_u64(out, seed);
    put_u32(out, setup_count);
    put_u32(out, uint32_t(subtxs.size()));
    for (const SubTx& st : subtxs) {
        put_u8(out, st.shard);
        put_u8(out, 0);
        put_u8(out, 0);
        put_u8(out, 0);
        put_u32(out, st.batch_id);
        put_u32(out, uint32_t(st.ops.size()));
        for (const TraceOp& op : st.ops) {
            put_u8(out, uint8_t(op.kind));
            put_u32(out, uint32_t(op.key.size()));
            put_u32(out, uint32_t(op.value.size()));
            put_bytes(out, op.key.data(), op.key.size());
            put_bytes(out, op.value.data(), op.value.size());
        }
    }
    if (flags & kFlagRepro) {
        put_u8(out, repro.mode);
        put_u64(out, repro.explore_seed);
        put_u64(out, repro.max_cuts);
        put_u64(out, repro.window_exhaustive_cap);
        put_u64(out, repro.window_samples);
        put_u64(out, repro.cut_index);
        put_u64(out, repro.fence);
    }
    if (flags & kFlagAccess) {
        put_u32(out, uint32_t(access.streams.size()));
        for (const auto& s : access.streams) {
            put_u32(out, uint32_t(s.size()));
            for (const AccessEvent& e : s) {
                put_u8(out, e.kind);
                put_u32(out, e.len);
                put_u64(out, e.off);
            }
        }
    }
    put_u64(out, fnv1a(out.data(), out.size()));
    return out;
}

TxTrace TxTrace::deserialize(const std::vector<uint8_t>& bytes) {
    if (bytes.size() < 8 + 8)
        throw TraceError("trace truncated: shorter than header + checksum");
    const uint64_t want =
        fnv1a(bytes.data(), bytes.size() - 8);
    Cursor tail{bytes.data() + bytes.size() - 8, 8};
    if (tail.u64() != want) throw TraceError("trace checksum mismatch");

    Cursor c{bytes.data(), bytes.size() - 8};
    if (c.u64() != kMagic) throw TraceError("bad trace magic");
    if (uint32_t v = c.u32(); v != kVersion)
        throw TraceError("unsupported trace version " + std::to_string(v));

    TxTrace t;
    t.engine_id = c.u8();
    const uint8_t flags = c.u8();
    c.u8();
    c.u8();
    t.shard_count = c.u32();
    t.seed = c.u64();
    t.setup_count = c.u32();
    const uint32_t nsub = c.u32();
    if (t.shard_count == 0 || t.shard_count > 256)
        throw TraceError("implausible shard count");
    if (t.setup_count > nsub)
        throw TraceError("setup count exceeds sub-transaction count");
    t.subtxs.reserve(nsub);
    for (uint32_t i = 0; i < nsub; ++i) {
        SubTx st;
        st.shard = c.u8();
        c.u8();
        c.u8();
        c.u8();
        st.batch_id = c.u32();
        const uint32_t nops = c.u32();
        st.ops.reserve(nops);
        for (uint32_t j = 0; j < nops; ++j) {
            TraceOp op;
            const uint8_t k = c.u8();
            if (k > uint8_t(TraceOpKind::kGet))
                throw TraceError("unknown op kind");
            op.kind = TraceOpKind(k);
            const uint32_t kl = c.u32();
            const uint32_t vl = c.u32();
            op.key = c.str(kl);
            op.value = c.str(vl);
            st.ops.push_back(std::move(op));
        }
        t.subtxs.push_back(std::move(st));
    }
    if (flags & kFlagRepro) {
        t.has_repro = true;
        t.repro.mode = c.u8();
        t.repro.explore_seed = c.u64();
        t.repro.max_cuts = c.u64();
        t.repro.window_exhaustive_cap = c.u64();
        t.repro.window_samples = c.u64();
        t.repro.cut_index = c.u64();
        t.repro.fence = c.u64();
    }
    if (flags & kFlagAccess) {
        const uint32_t nstreams = c.u32();
        if (nstreams > 4096) throw TraceError("implausible stream count");
        t.access.streams.resize(nstreams);
        for (uint32_t s = 0; s < nstreams; ++s) {
            const uint32_t nev = c.u32();
            auto& stream = t.access.streams[s];
            stream.reserve(nev);
            for (uint32_t j = 0; j < nev; ++j) {
                AccessEvent e;
                e.kind = c.u8();
                e.len = c.u32();
                e.off = c.u64();
                stream.push_back(e);
            }
        }
    }
    if (c.left != 0) throw TraceError("trailing bytes after trace payload");
    return t;
}

void TxTrace::save(const std::string& path) const {
    const std::vector<uint8_t> bytes = serialize();
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f) throw TraceError("cannot open trace file for write: " + path);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
    if (!f) throw TraceError("trace file write failed: " + path);
}

TxTrace TxTrace::load(const std::string& path) {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f) throw TraceError("cannot open trace file: " + path);
    const std::streamsize n = f.tellg();
    f.seekg(0);
    std::vector<uint8_t> bytes(static_cast<size_t>(n));
    f.read(reinterpret_cast<char*>(bytes.data()), n);
    if (!f) throw TraceError("trace file read failed: " + path);
    return deserialize(bytes);
}

uint64_t TxTrace::digest() const {
    const std::vector<uint8_t> bytes = serialize();
    return fnv1a(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Seeded generator
// ---------------------------------------------------------------------------

TxTrace generate_trace(const GenConfig& cfg, uint64_t seed,
                       uint32_t shard_count, uint8_t engine_id,
                       const std::function<unsigned(std::string_view)>& route) {
    TxTrace t;
    t.engine_id = engine_id;
    t.shard_count = shard_count;
    t.seed = seed;

    std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
    const uint32_t ks = cfg.key_space ? cfg.key_space : 1;

    auto key_at = [](uint32_t idx) {
        char buf[16];
        std::snprintf(buf, sizeof(buf), "k%05u", idx);
        return std::string(buf);
    };
    auto pick_key = [&] {
        // Skew by min-of-draws: integer-only, so traces are byte-stable.
        uint32_t idx = uint32_t(rng() % ks);
        for (uint32_t d = 1; d < cfg.skew_draws; ++d)
            idx = std::min(idx, uint32_t(rng() % ks));
        return key_at(idx);
    };
    auto pick_value = [&] {
        const size_t len = cfg.value_min +
                           size_t(rng() % (uint64_t(cfg.value_max) -
                                           cfg.value_min + 1));
        std::string v(len, '\0');
        for (size_t i = 0; i < len; i += 8) {
            const uint64_t r = rng();
            for (size_t j = 0; j < 8 && i + j < len; ++j)
                v[i + j] = char(uint8_t(r >> (8 * j)));
        }
        return v;
    };
    auto push_single = [&](TraceOpKind kind, std::string key, std::string val) {
        SubTx st;
        st.shard = uint8_t(route(key));
        st.ops.push_back({kind, std::move(key), std::move(val)});
        t.subtxs.push_back(std::move(st));
    };

    for (uint32_t i = 0; i < cfg.setup_ops; ++i)
        push_single(TraceOpKind::kPut, pick_key(), pick_value());
    t.setup_count = uint32_t(t.subtxs.size());

    uint32_t next_batch = 0;
    for (uint32_t i = 0; i < cfg.episode_ops; ++i) {
        const uint64_t r = rng() % 100;
        if (r < cfg.put_pct) {
            push_single(TraceOpKind::kPut, pick_key(), pick_value());
        } else if (r < cfg.put_pct + cfg.del_pct) {
            push_single(TraceOpKind::kDel, pick_key(), {});
        } else if (r < cfg.put_pct + cfg.del_pct + cfg.get_pct) {
            push_single(TraceOpKind::kGet, pick_key(), {});
        } else {
            // Cross-shard batch: split per shard, ascending shard order —
            // exactly how ShardedKVStore::write commits it.
            const uint32_t bid = ++next_batch;
            std::vector<std::vector<TraceOp>> per_shard(shard_count);
            for (uint32_t j = 0; j < std::max(cfg.batch_ops, 1u); ++j) {
                const bool is_put = rng() % 4 != 0;
                std::string key = pick_key();
                const unsigned sd = route(key);
                per_shard[sd].push_back(
                    {is_put ? TraceOpKind::kPut : TraceOpKind::kDel,
                     std::move(key), is_put ? pick_value() : std::string{}});
            }
            for (uint32_t sd = 0; sd < shard_count; ++sd) {
                if (per_shard[sd].empty()) continue;
                SubTx st;
                st.shard = uint8_t(sd);
                st.batch_id = bid;
                st.ops = std::move(per_shard[sd]);
                t.subtxs.push_back(std::move(st));
            }
        }
    }
    return t;
}

}  // namespace romulus::analysis
