// KVStore<PTM>: a persistent string-keyed key-value store built by wrapping
// a resizable hash map in PTM transactions — the construction behind
// RomulusDB (§6.4): "These PTMs can be straightforwardly applied to any
// sequential implementation of a map data structure and use it to construct
// a key-value store with persistence."
//
// Unlike LevelDB, every operation is a real durable transaction: when put()
// returns, the update has passed the PTM's durability point.  WriteBatch
// gives multi-operation atomicity (all-or-nothing), which LevelDB's write
// batches do not combine with per-write durability unless sync is on.
//
// Layout: each record is one allocator block (a 24 B header, then the key
// bytes, then the value bytes), and the bucket array doubles once the
// records outnumber the buckets.  The store's first word is a format
// constant, so a heap holding an older layout is refused, not misread.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_globals.hpp"

namespace romulus::db {

/// One operation of an atomic batch.
struct BatchOp {
    enum Kind { kPut, kDelete } kind;
    std::string key;
    std::string value;
};

class WriteBatch {
  public:
    void put(std::string_view key, std::string_view value) {
        ops_.push_back({BatchOp::kPut, std::string(key), std::string(value)});
    }
    void del(std::string_view key) {
        ops_.push_back({BatchOp::kDelete, std::string(key), {}});
    }
    void clear() { ops_.clear(); }
    size_t size() const { return ops_.size(); }
    const std::vector<BatchOp>& ops() const { return ops_; }

  private:
    std::vector<BatchOp> ops_;
};

template <typename PTM>
class KVStore {
    template <typename T>
    using p = typename PTM::template p<T>;

  public:
    /// A record's header; its key bytes follow it and its value bytes follow
    /// the key, all in one block.  The byte addresses derive from the
    /// record's own address: under RomulusLR a record reached through a
    /// shifted `next` yields back-half bytes with no pointer load.
    struct Node {
        p<Node*> next;
        p<uint64_t> hash;
        p<uint32_t> key_len;
        p<uint32_t> val_len;

        char* key_buf() { return reinterpret_cast<char*>(this + 1); }
        const char* key_buf() const {
            return reinterpret_cast<const char*>(this + 1);
        }
        char* val_buf(size_t kl) { return key_buf() + kl; }
        const char* val_buf(size_t kl) const { return key_buf() + kl; }
    };

    /// First word of every store of this layout: "ROMKVST" + layout v2.
    /// Its top 16 bits are non-zero, so it never equals a heap pointer (the
    /// first word of the earlier three-block layout).
    static constexpr uint64_t kFormat = 0x524F4D4B56535402ull;

    /// Must be constructed inside a transaction.
    explicit KVStore(uint64_t initial_buckets = 1024) {
        format = kFormat;
        nbuckets = initial_buckets;
        count = 0;
        buckets = alloc_buckets(initial_buckets);
    }

    /// Must be destroyed inside a transaction.
    ~KVStore() {
        const uint64_t nb = nbuckets.pload();
        p<Node*>* b = buckets.pload();
        for (uint64_t i = 0; i < nb; ++i) {
            Node* n = b[i].pload();
            while (n != nullptr) {
                Node* nx = n->next.pload();
                PTM::free_bytes(n);
                n = nx;
            }
        }
        PTM::free_bytes(b);
    }

    /// Insert or overwrite.  Durable when the call returns.
    void put(std::string_view key, std::string_view value) {
        PTM::updateTx([&] { put_in_tx(key, value); });
    }

    /// Delete.  Returns true if the key existed.
    bool del(std::string_view key) {
        bool existed = false;
        PTM::updateTx([&] { existed = del_in_tx(key); });
        return existed;
    }

    /// Atomic multi-operation transaction.
    void write(const WriteBatch& batch) {
        PTM::updateTx([&] {
            for (const auto& op : batch.ops()) {
                if (op.kind == BatchOp::kPut) {
                    put_in_tx(op.key, op.value);
                } else {
                    del_in_tx(op.key);
                }
            }
        });
    }

    bool get(std::string_view key, std::string* value_out) const {
        bool found = false;
        PTM::readTx([&] {
            // Unconditional (re)assignment: optimistic readTx may re-run
            // this closure, so outputs must not leak a previous attempt.
            const Node* n = find(key);
            found = (n != nullptr);
            if (n == nullptr) return;
            if (value_out != nullptr) {
                // The key matched, so the record's key_len is key.size().
                value_out->resize(n->val_len.pload());
                load_bytes(value_out->data(), n->val_buf(key.size()),
                           value_out->size());
            }
        });
        return found;
    }

    bool contains(std::string_view key) const {
        bool found = false;
        PTM::readTx([&] { found = find(key) != nullptr; });
        return found;
    }

    uint64_t size() const {
        uint64_t n = 0;
        PTM::readTx([&] { n = count.pload(); });
        return n;
    }

    /// Whether this store was written with this layout.  Read it before any
    /// other field of a store found in an existing heap.
    bool format_ok() const { return format.pload() == kFormat; }

    /// Full scan, f(key, value); iteration order is hash order — the paper
    /// notes the traversal order is irrelevant for a hash-based store
    /// (§6.4: readseq/readreverse perform identically on RomulusDB).
    template <typename F>
    void for_each(F&& f) const {
        scan(f, false);
    }

    /// Bounds-checked traversal for walking possibly-torn crash images
    /// (romfuzz, post-recovery oracles).  Runs outside any transaction on a
    /// quiescent heap.  `ok(ptr, len)` must answer whether [ptr, ptr+len)
    /// lies inside the store's heap area; no pointer is dereferenced before
    /// it passes.  Returns false — with a reason in `why` — instead of
    /// faulting when the structure is corrupt (another format word, wild
    /// pointer, absurd length, chain cycle, or node count disagreeing with
    /// the stored `count`).
    template <typename F, typename V>
    bool safe_for_each(F&& f, V&& ok, std::string* why = nullptr) const {
        auto fail = [&](const char* reason) {
            if (why != nullptr) *why = reason;
            return false;
        };
        if (!ok(this, sizeof(*this))) return fail("store header out of bounds");
        if (!format_ok()) return fail("store format word mismatch");
        const uint64_t nb = nbuckets.pload();
        if (nb == 0 || nb > (uint64_t{1} << 26))
            return fail("implausible bucket count");
        p<Node*>* b = buckets.pload();
        if (!ok(b, nb * sizeof(p<Node*>)))
            return fail("bucket array out of bounds");
        const uint64_t max_nodes = uint64_t{1} << 20;
        uint64_t seen = 0;
        for (uint64_t i = 0; i < nb; ++i) {
            for (const Node* n = b[i].pload(); n != nullptr;
                 n = n->next.pload()) {
                if (!ok(n, sizeof(Node))) return fail("node out of bounds");
                if (++seen > max_nodes) return fail("chain cycle suspected");
                const uint32_t kl = n->key_len.pload();
                const uint32_t vl = n->val_len.pload();
                if (kl > (1u << 20) || vl > (1u << 20))
                    return fail("implausible key/value length");
                if (!ok(n, sizeof(Node) + kl + vl))
                    return fail("record out of bounds");
                f(std::string_view(n->key_buf(), kl),
                  std::string_view(n->val_buf(kl), vl));
            }
        }
        if (seen != count.pload())
            return fail("node count disagrees with stored count");
        return true;
    }

    /// Reverse-order scan (readreverse): same cost profile by construction.
    template <typename F>
    void for_each_reverse(F&& f) const {
        scan(f, true);
    }

  private:
    /// The scans behind for_each (buckets in order) and for_each_reverse.
    template <typename F>
    void scan(F& f, bool reverse) const {
        PTM::readTx([&] {
            const uint64_t nb = nbuckets.pload();
            p<Node*>* b = buckets.pload();
            for (uint64_t j = 0; j < nb; ++j) {
                const uint64_t i = reverse ? nb - 1 - j : j;
                for (const Node* n = b[i].pload(); n != nullptr;
                     n = n->next.pload()) {
                    const uint32_t kl = n->key_len.pload();
                    f(std::string_view(n->key_buf(), kl),
                      std::string_view(n->val_buf(kl), n->val_len.pload()));
                }
            }
        });
    }

    static uint64_t hash_of(std::string_view s) {
        uint64_t h = 1469598103934665603ull;  // FNV-1a
        for (char c : s) {
            h ^= static_cast<uint8_t>(c);
            h *= 1099511628211ull;
        }
        return h;
    }

    static p<Node*>* alloc_buckets(uint64_t n) {
        auto* b =
            static_cast<p<Node*>*>(PTM::alloc_bytes(n * sizeof(p<Node*>)));
        for (uint64_t i = 0; i < n; ++i) b[i] = nullptr;
        return b;
    }

    const Node* find(std::string_view key) const {
        const uint64_t h = hash_of(key);
        p<Node*>* b = buckets.pload();
        for (const Node* n = b[h % nbuckets.pload()].pload(); n != nullptr;
             n = n->next.pload()) {
            if (n->hash.pload() == h && key_equals(n, key)) return n;
        }
        return nullptr;
    }

    /// Read `n` heap bytes, seeing the current transaction's own buffered
    /// writes.  Engines that apply stores in place (Romulus, undo log) read
    /// the heap directly; a redo-buffering engine provides load_range so a
    /// key or value written earlier in the SAME transaction is visible
    /// before commit (raw memcmp/memcpy would read the stale heap bytes
    /// and, e.g., make a PUT-then-DEL of one key resurrect it).
    static void load_bytes(char* dst, const char* src, size_t n) {
        if constexpr (requires { PTM::load_range(dst, src, n); }) {
            PTM::load_range(dst, src, n);
        } else {
            // romlint: allow(raw-memcpy) read-direction copy out of the heap
            std::memcpy(dst, src, n);
        }
    }

    static bool key_equals(const Node* n, std::string_view key) {
        if (n->key_len.pload() != key.size()) return false;
        const char* kb = n->key_buf();
        if constexpr (requires(char* d) { PTM::load_range(d, kb, size_t{0}); }) {
            char chunk[64];
            size_t off = 0;
            while (off < key.size()) {
                const size_t take =
                    std::min(sizeof(chunk), key.size() - off);
                load_bytes(chunk, kb + off, take);
                if (std::memcmp(chunk, key.data() + off, take) != 0)
                    return false;
                off += take;
            }
            return true;
        } else {
            return std::memcmp(kb, key.data(), key.size()) == 0;
        }
    }

    /// A new record in one block; the caller links its `next`.
    static Node* new_record(uint64_t h, std::string_view key,
                            std::string_view value) {
        Node* n = new (PTM::alloc_bytes(sizeof(Node) + key.size() +
                                        value.size())) Node;
        n->hash = h;
        n->key_len = static_cast<uint32_t>(key.size());
        n->val_len = static_cast<uint32_t>(value.size());
        PTM::store_range(n->key_buf(), key.data(), key.size());
        PTM::store_range(n->val_buf(key.size()), value.data(), value.size());
        return n;
    }

    void put_in_tx(std::string_view key, std::string_view value) {
        const uint64_t h = hash_of(key);
        p<Node*>& slot = buckets.pload()[h % nbuckets.pload()];
        Node* prev = nullptr;
        for (Node* n = slot.pload(); n != nullptr; n = n->next.pload()) {
            if (n->hash.pload() == h && key_equals(n, key)) {
                if (n->val_len.pload() == value.size()) {
                    // Same size: overwrite the value bytes in place.
                    PTM::store_range(n->val_buf(key.size()), value.data(),
                                     value.size());
                } else {
                    // Another size: a replacement record takes n's place
                    // (linked from the bucket slot, or from prev's next).
                    Node* fresh = new_record(h, key, value);
                    fresh->next = n->next.pload();
                    (prev == nullptr ? slot : prev->next) = fresh;
                    PTM::free_bytes(n);
                }
                return;
            }
            prev = n;
        }
        Node* n = new_record(h, key, value);
        n->next = slot.pload();
        slot = n;
        count += 1;
        // Double the buckets once the records outnumber them: a chain then
        // holds at most one record on average, so a successful lookup visits
        // about 1.5 records (about 3 at four per bucket).  A bucket costs 8 B
        // against a record's block of about 150 B.
        if (count.pload() > nbuckets.pload()) grow();
    }

    bool del_in_tx(std::string_view key) {
        const uint64_t h = hash_of(key);
        p<Node*>& slot = buckets.pload()[h % nbuckets.pload()];
        Node* prev = nullptr;
        for (Node* n = slot.pload(); n != nullptr; n = n->next.pload()) {
            if (n->hash.pload() == h && key_equals(n, key)) {
                (prev == nullptr ? slot : prev->next) = n->next.pload();
                PTM::free_bytes(n);
                count -= 1;
                return true;
            }
            prev = n;
        }
        return false;
    }

    void grow() {
        const uint64_t nb = nbuckets.pload();
        const uint64_t new_nb = nb * 2;
        p<Node*>* old = buckets.pload();
        p<Node*>* fresh = alloc_buckets(new_nb);
        for (uint64_t i = 0; i < nb; ++i) {
            Node* n = old[i].pload();
            while (n != nullptr) {
                Node* nx = n->next.pload();
                p<Node*>& slot = fresh[n->hash.pload() % new_nb];
                n->next = slot.pload();
                slot = n;
                n = nx;
            }
        }
        PTM::free_bytes(old);
        buckets = fresh;
        nbuckets = new_nb;
    }

    p<uint64_t> format;  ///< kFormat; the first word (format_ok)
    p<p<Node*>*> buckets;
    p<uint64_t> nbuckets;
    p<uint64_t> count;
};

}  // namespace romulus::db
