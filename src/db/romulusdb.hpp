// RomulusDB (§6.4): the paper's persistent key-value store — KVStore wrapped
// over RomulusLog with a LevelDB-flavoured open/close lifecycle, extended
// with intra-heap sharding: keys hash-route to one ShardedKVStore slice per
// engine shard, so concurrent writers on different shards commit in
// parallel (S=1, the default, is exactly the paper's store).
//
// "We used RomulusLog to wrap a hash map and implement the same interface as
// the popular LevelDB database."  Every update is a durable transaction; the
// WriteOptions::sync flag LevelDB needs for durability is therefore
// meaningless here (accepted for API compatibility, always behaves as true).
//
// Lifecycle: exactly one RomulusDB may be open per process (RomulusLog is a
// process-wide engine); a second open() throws instead of silently sharing —
// and later closing — the first instance's engine.  The destructor closes
// the engine only when this instance's open() initialized it (owns-engine),
// so opening against an externally initialized engine no longer tears the
// engine down on destruction.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/romulus.hpp"
#include "db/sharded_kvstore.hpp"

namespace romulus::db {

struct WriteOptions {
    bool sync = false;  ///< accepted for LevelDB parity; RomulusDB is always durable
};

class RomulusDB {
  public:
    using Store = ShardedKVStore<RomulusLog>;
    static constexpr int kRootIdx = 63;  // reserved root slot in every shard

    /// Open (and create if needed) the database backed by `heap_file`.
    /// `heap_bytes == 0` maps an existing heap at its own size (LevelDB-style
    /// reopen) and creates a new one at default_heap_bytes().  `shards`
    /// selects the intra-heap shard count for a freshly created heap (0:
    /// engine default); an existing heap keeps its stored count.
    /// Throws std::runtime_error if a RomulusDB is already open, or if the
    /// heap holds a store of another layout (KVStore::kFormat), which it
    /// then leaves unwritten.
    static std::unique_ptr<RomulusDB> open(const std::string& heap_file,
                                           size_t heap_bytes = 0,
                                           unsigned shards = 0) {
        bool expected = false;
        if (!open_flag().compare_exchange_strong(expected, true))
            throw std::runtime_error(
                "RomulusDB: already open in this process — close the "
                "existing instance before opening another");
        // From here the instance owns the open flag; its destructor clears
        // it (including on a throw below, via unique_ptr unwinding).
        auto db = std::unique_ptr<RomulusDB>(new RomulusDB());
        if (!RomulusLog::initialized()) {
            RomulusLog::init(heap_bytes, heap_file, shards);
            db->owns_engine_ = true;
        }
        db->store_.emplace(kRootIdx);
        return db;
    }

    ~RomulusDB() {
        store_.reset();
        if (owns_engine_ && RomulusLog::initialized()) RomulusLog::close();
        open_flag().store(false);
    }

    /// True when this instance initialized (and will close) the engine.
    bool owns_engine() const { return owns_engine_; }

    unsigned shards() const { return store_->shards(); }

    void put(const WriteOptions&, std::string_view key, std::string_view value) {
        store_->put(key, value);
    }
    bool get(std::string_view key, std::string* value_out) const {
        return store_->get(key, value_out);
    }
    bool del(const WriteOptions&, std::string_view key) {
        return store_->del(key);
    }
    /// Cross-shard batches commit shard-by-shard in ascending shard order —
    /// atomic per shard, not globally (see ShardedKVStore).
    void write(const WriteOptions&, const WriteBatch& batch) {
        store_->write(batch);
    }
    uint64_t size() const { return store_->size(); }

    template <typename F>
    void for_each(F&& f) const {
        store_->for_each(std::forward<F>(f));
    }
    template <typename F>
    void for_each_reverse(F&& f) const {
        store_->for_each_reverse(std::forward<F>(f));
    }

  private:
    RomulusDB() = default;

    static std::atomic<bool>& open_flag() {
        static std::atomic<bool> flag{false};
        return flag;
    }

    std::optional<Store> store_;
    bool owns_engine_ = false;
};

}  // namespace romulus::db
