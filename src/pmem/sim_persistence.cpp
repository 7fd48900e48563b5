#include "pmem/sim_persistence.hpp"

#include <cstring>

namespace romulus::pmem {

SimPersistence::SimPersistence(uint8_t* base, size_t size, Options opts)
    : base_(base), size_(size), opts_(opts), image_(base, base + size),
      rng_(opts.seed) {}

void SimPersistence::on_store(const void* addr, size_t len) {
    if (in_region(addr) && len != 0) {
        std::lock_guard lk(mu_);
        size_t first = line_of(addr);
        size_t last = line_of(static_cast<const uint8_t*>(addr) + len - 1);
        for (size_t l = first; l <= last; ++l) dirty_.insert(l);
    }
    if (opts_.next) opts_.next->on_store(addr, len);
}

void SimPersistence::on_pwb(const void* addr) {
    if (in_region(addr)) {
        std::lock_guard lk(mu_);
        size_t l = line_of(addr);
        dirty_.erase(l);
        if (opts_.content == FlushContent::AtPwb) {
            const uint8_t* src = base_ + l * kCacheLineSize;
            pending_[l].assign(src, src + kCacheLineSize);
        } else {
            pending_.try_emplace(l);  // content resolved at fence time
        }
    }
    if (opts_.next) opts_.next->on_pwb(addr);
}

void SimPersistence::persist_line_locked(size_t line, const uint8_t* content) {
    std::memcpy(image_.data() + line * kCacheLineSize, content, kCacheLineSize);
}

void SimPersistence::on_fence() {
    std::lock_guard lk(mu_);
    fence_count_.fetch_add(1, std::memory_order_release);
    for (auto& [line, snap] : pending_) {
        const uint8_t* src =
            snap.empty() ? base_ + line * kCacheLineSize : snap.data();
        persist_line_locked(line, src);
    }
    pending_.clear();
    if (opts_.evict_probability > 0.0 && !dirty_.empty()) {
        // Spontaneous write-back: any dirty line may persist at any time.
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        for (auto it = dirty_.begin(); it != dirty_.end();) {
            if (dist(rng_) < opts_.evict_probability) {
                persist_line_locked(*it, base_ + *it * kCacheLineSize);
                it = dirty_.erase(it);
            } else {
                ++it;
            }
        }
    }
    if (opts_.next) opts_.next->on_fence();
}

void SimPersistence::crash_restore() {
    std::lock_guard lk(mu_);
    std::memcpy(base_, image_.data(), size_);
    dirty_.clear();
    pending_.clear();
}

void SimPersistence::drop_cache() {
    std::lock_guard lk(mu_);
    dirty_.clear();
    pending_.clear();
}

void SimPersistence::checkpoint_all() {
    std::lock_guard lk(mu_);
    image_.assign(base_, base_ + size_);
    dirty_.clear();
    pending_.clear();
}

size_t SimPersistence::dirty_line_count() const {
    std::lock_guard lk(mu_);
    return dirty_.size();
}

size_t SimPersistence::pending_line_count() const {
    std::lock_guard lk(mu_);
    return pending_.size();
}

}  // namespace romulus::pmem
