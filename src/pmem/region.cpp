#include "pmem/region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace romulus::pmem {

ShardLayout ShardLayout::compute(size_t region_size, unsigned shards,
                                 size_t header_reserved) {
    if (shards == 0) throw std::invalid_argument("ShardLayout: zero shards");
    if (region_size <= header_reserved)
        throw std::invalid_argument("ShardLayout: region smaller than header");
    ShardLayout l;
    l.header_reserved = header_reserved;
    l.shards = shards;
    l.main_size = ((region_size - header_reserved) / shards / 2) & ~size_t{63};
    // kMinMainSize is a generous floor that catches accidental
    // tiny-heap/many-shard combinations early with a clear error.
    if (l.main_size < kMinMainSize)
        throw std::invalid_argument(
            "ShardLayout: heap too small for the requested shard count");
    return l;
}

std::string default_pmem_dir() {
    if (const char* d = std::getenv("ROMULUS_PMEM_DIR")) return d;
    return "/dev/shm";
}

bool PmemRegion::map(const std::string& path, size_t size, uintptr_t base_addr) {
    if (mapped()) throw std::runtime_error("PmemRegion: already mapped");

    bool created = ::access(path.c_str(), F_OK) != 0;
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0)
        throw std::runtime_error("PmemRegion: open(" + path +
                                 ") failed: " + std::strerror(errno));

    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw std::runtime_error("PmemRegion: fstat failed");
    }
    if (static_cast<size_t>(st.st_size) != size) {
        // A pre-existing file of a different size is re-formatted: the twin
        // copy layout (header | main | back) depends on the total size.
        if (st.st_size != 0) created = true;
        if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
            ::close(fd);
            throw std::runtime_error("PmemRegion: ftruncate failed: " +
                                     std::string(std::strerror(errno)));
        }
    }

    void* want = reinterpret_cast<void*>(base_addr);
    void* got = ::mmap(want, size, PROT_READ | PROT_WRITE,
                       MAP_SHARED | (want ? MAP_FIXED_NOREPLACE : 0), fd, 0);
    if (got == MAP_FAILED && want != nullptr) {
        // Address taken (e.g. two engines configured with the same base, or
        // ASLR collision): fall back to any address.  Pointers then do not
        // survive a *restart*, but in-process reopen tests unmap first, so
        // they land back at the kernel-chosen address only if the caller
        // passed 0.  We keep going rather than failing hard.
        got = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    }
    ::close(fd);
    if (got == MAP_FAILED)
        throw std::runtime_error("PmemRegion: mmap failed: " +
                                 std::string(std::strerror(errno)));

    base_ = static_cast<uint8_t*>(got);
    size_ = size;
    path_ = path;
    return created;
}

void PmemRegion::unmap() {
    if (base_) {
        ::munmap(base_, size_);
        base_ = nullptr;
        size_ = 0;
    }
}

void PmemRegion::destroy() {
    std::string p = path_;
    unmap();
    if (!p.empty()) ::unlink(p.c_str());
    path_.clear();
}

}  // namespace romulus::pmem
