// persist<T, PTM>: language-level interposition of accesses to persistent
// data (§3.2, §4.4).
//
// Every attribute of a persistent data structure is declared as
// `PTM::template p<T>` (an alias of persist<T, PTM>).  Mutating accesses are
// routed to PTM::pstore — which logs the range (RomulusLog/LR), performs the
// in-place store and schedules the cache-line write-back — and loads are
// routed to PTM::pload — which applies the Left-Right synthetic-pointer
// offset (RomulusLR, §5.3 / Figure 3) or consults the transaction write set
// (the redo-log baseline always; RomulusNL/RomulusLog's stripe-locked
// speculative update fast path, DESIGN.md §4.11, while a speculation is
// buffering).
//
// This is the same technique PMDK uses (§4.4): it needs no special compiler,
// and porting volatile code mostly means wrapping member types.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace romulus {

template <typename T, typename PTM>
class persist {
    static_assert(std::is_trivially_copyable_v<T>,
                  "persist<T> requires trivially copyable T");

  public:
    persist() = default;  // uninitialised, like a raw T

    persist(const T& v) { pstore(v); }
    persist(const persist& other) { pstore(other.pload()); }

    persist& operator=(const T& v) {
        pstore(v);
        return *this;
    }
    persist& operator=(const persist& other) {
        pstore(other.pload());
        return *this;
    }

    operator T() const { return pload(); }

    T pload() const { return PTM::template pload<T>(&val_); }
    void pstore(const T& v) { PTM::template pstore<T>(&val_, v); }

    /// Address of the raw storage (used by range primitives and tests).
    T* addr() { return &val_; }
    const T* addr() const { return &val_; }

    // --- pointer sugar -----------------------------------------------------
    T operator->() const
        requires std::is_pointer_v<T>
    {
        return pload();
    }
    template <typename U = T>
        requires(std::is_pointer_v<U> &&
                 !std::is_void_v<std::remove_pointer_t<U>>)
    std::remove_pointer_t<U>& operator*() const {
        return *pload();
    }

    // --- arithmetic sugar (integral T) --------------------------------------
    persist& operator+=(const T& v) {
        pstore(static_cast<T>(pload() + v));
        return *this;
    }
    persist& operator-=(const T& v) {
        pstore(static_cast<T>(pload() - v));
        return *this;
    }
    persist& operator++() {
        pstore(static_cast<T>(pload() + 1));
        return *this;
    }
    persist& operator--() {
        pstore(static_cast<T>(pload() - 1));
        return *this;
    }

    bool operator==(const T& v) const { return pload() == v; }
    auto operator<=>(const T& v) const { return pload() <=> v; }

  private:
    T val_;
};

/// Every PTM's tmNew: allocate from PTM and construct.  With no constructor
/// arguments the object is zeroed through PTM::zero_range and then
/// default-initialized (which writes nothing for a trivially-constructible
/// T).  Value-initializing placement-new (`new (ptr) T()`) would zero it with
/// raw stores the interposition layer never sees: the range log would not
/// replicate the zeroing to back, and the undo log could not restore the
/// chunk's previous content after a crash mid-transaction (romfuzz found a
/// rolled-back allocation that left zeroes in a reused value buffer).
template <typename T, typename PTM, typename... Args>
T* tm_new(Args&&... args) {
    void* ptr = PTM::alloc_bytes(sizeof(T));
    if constexpr (sizeof...(Args) == 0) {
        PTM::zero_range(ptr, sizeof(T));
        return new (ptr) T;
    } else {
        return new (ptr) T(std::forward<Args>(args)...);
    }
}

}  // namespace romulus
