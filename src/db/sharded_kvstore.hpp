// ShardedKVStore<PTM>: hash-routes keys across the engine's intra-heap
// shards, one KVStore per shard, each rooted in its own shard's objects
// array.  Operations on different shards are independent durable
// transactions on independent writer locks, so writers scale with the shard
// count (the multi-writer axis the single-shard engine lacks).
//
// Atomicity contract (documented, and tested by the atomicity-boundary
// crash test): single-key operations and single-shard batches are fully
// atomic + durable, exactly as in KVStore.  A *cross-shard* WriteBatch is
// atomic per shard only: it is split into per-shard sub-batches (each
// preserving the batch's op order for its keys) and committed shard by
// shard in ascending shard-id order.  A crash can therefore persist a
// prefix of the sub-batches — always a prefix in that fixed order, never a
// torn sub-batch.  Callers needing cross-shard atomicity must route the
// whole batch's keys to one shard (or use S=1).
#pragma once

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/kvstore.hpp"

namespace romulus::db {

/// The routing hash every ShardedKVStore instantiation uses: FNV-1a (as in
/// the per-shard bucket hash) pushed through a murmur3-style finalizer, so
/// shard routing and bucket choice stay decorrelated.  Exposed as a free
/// function so the romfuzz trace generator can route keys without an engine
/// mapped.
///
/// The finalizer is load-bearing: raw FNV-1a barely mixes its high bits for
/// short keys — over sequential keys like "k00000".."k00095" bits 32..39 of
/// the hash are constant, so the previous `(h >> 32) % nshards` routed *all*
/// of them to shard 0 (found by the romfuzz cross-shard batch test).
inline unsigned shard_for_key(std::string_view key, unsigned nshards) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a, as in KVStore
    for (char c : key) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return static_cast<unsigned>(h % nshards);
}

template <typename PTM>
class ShardedKVStore {
  public:
    using Store = KVStore<PTM>;

    /// Attach to (or create, inside per-shard transactions) one KVStore per
    /// engine shard at root slot `root_idx` of each shard's objects array.
    /// Throws std::runtime_error, before creating or writing anything, if an
    /// attached store has another layout (KVStore::format_ok).
    explicit ShardedKVStore(int root_idx, uint64_t initial_buckets = 1024)
        : nshards_(PTM::shard_count()) {
        assert(nshards_ >= 1 && nshards_ <= kMaxShards);
        for (unsigned sd = 0; sd < nshards_; ++sd) {
            stores_[sd] = PTM::template get_object<Store>(root_idx, sd);
            if (stores_[sd] != nullptr && !stores_[sd]->format_ok())
                throw std::runtime_error(
                    "KVStore: the store in shard " + std::to_string(sd) +
                    " has another layout (written by another version)");
        }
        for (unsigned sd = 0; sd < nshards_; ++sd) {
            if (stores_[sd] != nullptr) continue;
            PTM::updateTx(sd, [&] {
                stores_[sd] = PTM::template tmNew<Store>(initial_buckets);
                PTM::put_object(root_idx, stores_[sd], sd);
            });
        }
    }

    unsigned shards() const { return nshards_; }

    /// Shard owning `key`: shard_for_key (FNV-1a, a murmur3 finalizer, then
    /// modulo the shard count).
    unsigned shard_of(std::string_view key) const {
        return shard_for_key(key, nshards_);
    }

    void put(std::string_view key, std::string_view value) {
        const unsigned sd = shard_of(key);
        // The store's own updateTx nests flat inside this shard-directed one.
        PTM::updateTx(sd, [&] { stores_[sd]->put(key, value); });
    }

    bool del(std::string_view key) {
        const unsigned sd = shard_of(key);
        bool existed = false;
        PTM::updateTx(sd, [&] { existed = stores_[sd]->del(key); });
        return existed;
    }

    bool get(std::string_view key, std::string* value_out) const {
        const unsigned sd = shard_of(key);
        bool found = false;
        PTM::readTx(sd, [&] { found = stores_[sd]->get(key, value_out); });
        return found;
    }

    bool contains(std::string_view key) const {
        const unsigned sd = shard_of(key);
        bool found = false;
        PTM::readTx(sd, [&] { found = stores_[sd]->contains(key); });
        return found;
    }

    /// Batch write: grouped by shard, committed in ascending shard order —
    /// see the atomicity contract in the header comment.
    void write(const WriteBatch& batch) {
        std::array<std::vector<const BatchOp*>, kMaxShards> groups;
        for (const auto& op : batch.ops())
            groups[shard_of(op.key)].push_back(&op);
        for (unsigned sd = 0; sd < nshards_; ++sd) {
            if (groups[sd].empty()) continue;
            PTM::updateTx(sd, [&] {
                for (const BatchOp* op : groups[sd]) {
                    if (op->kind == BatchOp::kPut) {
                        stores_[sd]->put(op->key, op->value);
                    } else {
                        stores_[sd]->del(op->key);
                    }
                }
            });
        }
    }

    uint64_t size() const {
        uint64_t n = 0;
        for (unsigned sd = 0; sd < nshards_; ++sd) {
            // Accumulate outside the closure: optimistic readTx may re-run
            // it, and `n +=` inside would double-count retried attempts.
            uint64_t part = 0;
            PTM::readTx(sd, [&] { part = stores_[sd]->size(); });
            n += part;
        }
        return n;
    }

    /// Full scan in shard order (hash order within a shard); each shard's
    /// scan is its own read snapshot.
    template <typename F>
    void for_each(F&& f) const {
        for (unsigned sd = 0; sd < nshards_; ++sd) {
            PTM::readTx(sd, [&] { stores_[sd]->for_each(f); });
        }
    }

    template <typename F>
    void for_each_reverse(F&& f) const {
        for (unsigned sd = nshards_; sd-- > 0;) {
            PTM::readTx(sd, [&] { stores_[sd]->for_each_reverse(f); });
        }
    }

    /// Direct access for tests (e.g. to inspect one shard's store).
    Store* store(unsigned sd) const { return stores_[sd]; }

  private:
    unsigned nshards_;
    std::array<Store*, kMaxShards> stores_{};
};

}  // namespace romulus::db
