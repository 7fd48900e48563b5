// PmemRegion: a file-backed persistent memory region mapped at a fixed
// virtual address.
//
// As in the paper's evaluation (§6.1) the file lives by default in /dev/shm,
// mimicking supercapacitor-backed DRAM NVDIMMs.  The mapping address must be
// stable across process restarts because pointers stored *inside* the region
// are raw virtual addresses (Figure 2: back holds pointers into main).  Each
// PTM instance therefore requests a distinct fixed base address.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace romulus::pmem {

class PmemRegion {
  public:
    PmemRegion() = default;
    ~PmemRegion() { unmap(); }

    PmemRegion(const PmemRegion&) = delete;
    PmemRegion& operator=(const PmemRegion&) = delete;

    /// Map `size` bytes of `path` at `base_addr` (creating / extending the
    /// file as needed).  Returns true if the file was newly created (caller
    /// must format it).  Throws std::runtime_error on failure.
    bool map(const std::string& path, size_t size, uintptr_t base_addr);

    /// Unmap (data stays in the file).
    void unmap();

    /// Unmap and delete the backing file.
    void destroy();

    uint8_t* base() const { return base_; }
    size_t size() const { return size_; }
    const std::string& path() const { return path_; }
    bool mapped() const { return base_ != nullptr; }

    bool contains(const void* p) const {
        auto u = reinterpret_cast<uintptr_t>(p);
        auto b = reinterpret_cast<uintptr_t>(base_);
        return u >= b && u < b + size_;
    }

  private:
    uint8_t* base_ = nullptr;
    size_t size_ = 0;
    std::string path_;
};

/// Zone layout of a sharded twin-copy heap:
///
///   [ header | zone 0 | zone 1 | ... | zone S-1 ]
///
/// where zone s = [ main_s | back_s ] — each shard owns a contiguous pair of
/// twin halves of `main_size` bytes.  The classic single-shard Romulus layout
/// (Figure 2: [header|main|back]) is exactly the S=1 case.
struct ShardLayout {
    size_t header_reserved = 0;  ///< bytes before zone 0
    unsigned shards = 1;
    size_t main_size = 0;  ///< per-shard twin-half size (64-byte multiple)

    /// Smallest twin half a shard gets: room for its root table and
    /// allocator metadata (~1 KiB) plus a usable pool.
    static constexpr size_t kMinMainSize = 64 * 1024;
    /// Smallest region compute() accepts for one shard.
    static constexpr size_t min_region_size(size_t header_reserved) {
        return header_reserved + 2 * kMinMainSize;
    }

    size_t zone_stride() const { return 2 * main_size; }
    size_t zone_offset(unsigned s) const {
        return header_reserved + size_t(s) * zone_stride();
    }
    size_t main_offset(unsigned s) const { return zone_offset(s); }
    size_t back_offset(unsigned s) const { return zone_offset(s) + main_size; }

    /// Carve `region_size` bytes into `shards` equal twin zones after the
    /// header.  Throws std::invalid_argument when the region is too small to
    /// give every shard a usable pool.
    static ShardLayout compute(size_t region_size, unsigned shards,
                               size_t header_reserved);
};

/// Default directory for persistent heap files ("/dev/shm" unless the
/// ROMULUS_PMEM_DIR environment variable overrides it).
std::string default_pmem_dir();

}  // namespace romulus::pmem
