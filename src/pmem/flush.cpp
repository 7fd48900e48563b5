#include "pmem/flush.hpp"

#include <atomic>
#include <chrono>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <emmintrin.h>  // _mm_clflush, _mm_sfence, _mm_stream_si128
#include <immintrin.h>  // _mm256_stream_si256 (AVX, runtime-dispatched)
#define ROMULUS_X86 1
#endif

namespace romulus::pmem {

namespace detail {
ProfileState g_profile{};
SimHooks* g_sim_hooks = nullptr;
CommitConfig g_commit_config{};
}  // namespace detail

#ifdef ROMULUS_X86
static bool cpuid7_bit(unsigned bit) {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx >> bit) & 1u;
}
bool cpu_has_clflushopt() {
    static const bool v = cpuid7_bit(23);
    return v;
}
bool cpu_has_clwb() {
    static const bool v = cpuid7_bit(24);
    return v;
}

bool cpu_has_avx() {
    static const bool v = __builtin_cpu_supports("avx");
    return v;
}

__attribute__((target("clflushopt"))) static void do_clflushopt(const void* p) {
    __builtin_ia32_clflushopt(const_cast<void*>(p));
}
__attribute__((target("clwb"))) static void do_clwb(const void* p) {
    __builtin_ia32_clwb(const_cast<void*>(p));
}
__attribute__((target("clflushopt"))) static void do_clflushopt_lines(
    const uint8_t* p, size_t nlines) {
    for (size_t i = 0; i < nlines; ++i)
        __builtin_ia32_clflushopt(
            const_cast<uint8_t*>(p + i * kCacheLineSize));
}
__attribute__((target("clwb"))) static void do_clwb_lines(const uint8_t* p,
                                                          size_t nlines) {
    for (size_t i = 0; i < nlines; ++i)
        __builtin_ia32_clwb(const_cast<uint8_t*>(p + i * kCacheLineSize));
}
#else
bool cpu_has_clflushopt() { return false; }
bool cpu_has_clwb() { return false; }
bool cpu_has_avx() { return false; }
#endif

void set_profile(Profile p) {
    auto& st = detail::g_profile;
    st.requested = p;
    st.effective = p;
    st.pwb_delay_ns = 0;
    st.fence_delay_ns = 0;
    switch (p) {
        case Profile::CLWB:
            if (!cpu_has_clwb())
                st.effective = cpu_has_clflushopt() ? Profile::CLFLUSHOPT
                                                    : Profile::CLFLUSH;
            break;
        case Profile::CLFLUSHOPT:
            if (!cpu_has_clflushopt()) st.effective = Profile::CLFLUSH;
            break;
        case Profile::STT:  // §6.1: 140 ns per pwb, 200 ns per fence
            st.pwb_delay_ns = 140;
            st.fence_delay_ns = 200;
            break;
        case Profile::PCM:  // §6.1: 340 ns per pwb, 500 ns per fence
            st.pwb_delay_ns = 340;
            st.fence_delay_ns = 500;
            break;
        default:
            break;
    }
#ifndef ROMULUS_X86
    if (st.effective == Profile::CLFLUSH || st.effective == Profile::CLFLUSHOPT ||
        st.effective == Profile::CLWB)
        st.effective = Profile::NOP;  // non-x86: no flush instructions wired up
#endif
}

Profile profile() { return detail::g_profile.requested; }
Profile effective_profile() { return detail::g_profile.effective; }

const char* profile_name(Profile p) {
    switch (p) {
        case Profile::NOP: return "nop";
        case Profile::CLFLUSH: return "clflush";
        case Profile::CLFLUSHOPT: return "clflushopt+sfence";
        case Profile::CLWB: return "clwb+sfence";
        case Profile::STT: return "STT(140+200ns)";
        case Profile::PCM: return "PCM(340+500ns)";
    }
    return "?";
}

void set_sim_hooks(SimHooks* hooks) { detail::g_sim_hooks = hooks; }
SimHooks* sim_hooks() { return detail::g_sim_hooks; }

namespace detail {

// Busy-wait delay used by the STT/PCM emulation.  Mirrors the paper's
// methodology (§6.1: "delays are measured using rdtsc"): short spins, no
// syscalls, so the injected latency is additive to the instruction stream.
void delay_ns(uint64_t ns) {
    if (ns == 0) return;
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::nanoseconds(ns);
    while (std::chrono::steady_clock::now() < deadline) {
#ifdef ROMULUS_X86
        _mm_pause();
#endif
    }
}

void pwb_line_slow(const void* addr) {
    switch (g_profile.effective) {
        case Profile::NOP:
            break;
#ifdef ROMULUS_X86
        case Profile::CLFLUSH:
            _mm_clflush(addr);
            break;
        case Profile::CLFLUSHOPT:
            do_clflushopt(addr);
            break;
        case Profile::CLWB:
            do_clwb(addr);
            break;
#endif
        case Profile::STT:
        case Profile::PCM:
            delay_ns(g_profile.pwb_delay_ns);
            break;
        default:
            break;
    }
}

void pwb_lines_slow(const void* addr, size_t nlines) {
    const uint8_t* p = static_cast<const uint8_t*>(addr);
    switch (g_profile.effective) {
        case Profile::NOP:
            break;
#ifdef ROMULUS_X86
        case Profile::CLFLUSH:
            for (size_t i = 0; i < nlines; ++i)
                _mm_clflush(p + i * kCacheLineSize);
            break;
        case Profile::CLFLUSHOPT:
            do_clflushopt_lines(p, nlines);
            break;
        case Profile::CLWB:
            do_clwb_lines(p, nlines);
            break;
#endif
        case Profile::STT:
        case Profile::PCM:
            delay_ns(g_profile.pwb_delay_ns * nlines);
            break;
        default:
            break;
    }
    (void)p;
}

#ifdef ROMULUS_X86
__attribute__((target("avx"))) static void nt_copy_avx(uint8_t* d,
                                                       const uint8_t* s,
                                                       size_t len) {
    size_t i = 0;
    // d is 16-byte aligned by contract; stream one 128-bit chunk if needed
    // to reach the 32-byte alignment the 256-bit stores want.
    if ((reinterpret_cast<uintptr_t>(d) & 31u) != 0 && i + 16 <= len) {
        _mm_stream_si128(reinterpret_cast<__m128i*>(d),
                         _mm_loadu_si128(reinterpret_cast<const __m128i*>(s)));
        i = 16;
    }
    for (; i + 32 <= len; i += 32)
        _mm256_stream_si256(
            reinterpret_cast<__m256i*>(d + i),
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + i)));
    for (; i + 16 <= len; i += 16)
        _mm_stream_si128(
            reinterpret_cast<__m128i*>(d + i),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i)));
}

static void nt_copy_sse2(uint8_t* d, const uint8_t* s, size_t len) {
    for (size_t i = 0; i + 16 <= len; i += 16)
        _mm_stream_si128(
            reinterpret_cast<__m128i*>(d + i),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + i)));
}

void nt_copy(void* dst, const void* src, size_t len) {
    if (cpu_has_avx()) {
        nt_copy_avx(static_cast<uint8_t*>(dst),
                    static_cast<const uint8_t*>(src), len);
    } else {
        nt_copy_sse2(static_cast<uint8_t*>(dst),
                     static_cast<const uint8_t*>(src), len);
    }
}
#else
void nt_copy(void* dst, const void* src, size_t len) {
    std::memcpy(dst, src, len);  // scalar fallback: persist_copy never
                                 // selects the NT path off x86 anyway
}
#endif

void fence_slow() {
    switch (g_profile.effective) {
        case Profile::NOP:
        case Profile::CLFLUSH:  // CLFLUSH self-orders; fences map to nop (§6.1)
            break;
#ifdef ROMULUS_X86
        case Profile::CLFLUSHOPT:
        case Profile::CLWB:
            _mm_sfence();
            break;
#endif
        case Profile::STT:
        case Profile::PCM:
            delay_ns(g_profile.fence_delay_ns);
            break;
        default:
            break;
    }
}

}  // namespace detail

void persist_copy(void* dst, const void* src, size_t len) {
    if (len == 0) return;
    uint8_t* d = static_cast<uint8_t*>(dst);
    const uint8_t* s = static_cast<const uint8_t*>(src);
    const bool use_nt =
        (reinterpret_cast<uintptr_t>(d) & 15u) == 0 && streams(len);
    if (!use_nt) {
        // Cached path: identical to the classic replication sequence.
        std::memcpy(d, s, len);
        on_store(d, len);
        pwb_range(d, len);
        tl_commit_stats().cached_bytes += len;
        return;
    }
#ifdef ROMULUS_X86
    const size_t body = len & ~size_t{15};
    detail::nt_copy(d, s, body);
    if (body < len) std::memcpy(d + body, s + body, len - body);
    // Drain the write-combining buffers: after this, the streamed bytes are
    // write-back-complete without any per-line pwb.  The caller's pfence()
    // still provides ordering against everything that follows.
    _mm_sfence();
    tl_stats().nvm_bytes += len;
    tl_commit_stats().nt_bytes += body;
    if (detail::g_sim_hooks) {
        // An NT store is externally a store whose line leaves for memory at
        // once: report store + per-line pwb so the shadow models see the
        // streamed content as pending until the engine's next fence, then
        // the NT mark and the drain.
        detail::g_sim_hooks->on_store(d, len);
        auto p = reinterpret_cast<uintptr_t>(d) & ~(kCacheLineSize - 1);
        const auto body_end = reinterpret_cast<uintptr_t>(d) + body;
        for (; p < body_end; p += kCacheLineSize)
            detail::g_sim_hooks->on_pwb(reinterpret_cast<const void*>(p));
        detail::g_sim_hooks->on_nt_store(d, body);
        detail::g_sim_hooks->on_nt_drain();
    }
    if (body < len) {
        // Sub-16-byte tail went through a cached store: its line needs a
        // real write-back (counted/observed through the normal pwb path).
        tl_commit_stats().cached_bytes += len - body;
        pwb(d + body);
    }
#endif
}

void persist_lines(void* dst, const void* src, size_t len) {
    if (len == 0) return;
    if (!streams_line_images()) {
        if (src == dst) {
            pwb_range(dst, len);
        } else {
            persist_copy(dst, src, len);
        }
        return;
    }
    const size_t nlines = (len + kCacheLineSize - 1) / kCacheLineSize;
    len = nlines * kCacheLineSize;
#ifdef ROMULUS_X86
    auto* d = static_cast<__m128i*>(dst);
    const auto* s = static_cast<const __m128i*>(src);
    for (size_t i = 0; i < nlines; ++i, d += 4, s += 4) {
        // Load the whole line before streaming it: in place, the first NT
        // store evicts the line the rest is read from.
        const __m128i a = _mm_loadu_si128(s), b = _mm_loadu_si128(s + 1),
                      c = _mm_loadu_si128(s + 2), e = _mm_loadu_si128(s + 3);
        _mm_stream_si128(d, a);
        _mm_stream_si128(d + 1, b);
        _mm_stream_si128(d + 2, c);
        _mm_stream_si128(d + 3, e);
    }
#endif
    if (src != dst) tl_stats().nvm_bytes += len;
    tl_commit_stats().nt_bytes += len;
    if (detail::g_sim_hooks) {  // as persist_copy reports its stream
        detail::g_sim_hooks->on_store(dst, len);
        const auto* p = static_cast<const uint8_t*>(dst);
        for (size_t i = 0; i < nlines; ++i, p += kCacheLineSize)
            detail::g_sim_hooks->on_pwb(p);
        detail::g_sim_hooks->on_nt_store(dst, len);
    }
}

void nt_drain() {
#ifdef ROMULUS_X86
    _mm_sfence();
#endif
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_nt_drain();
}

}  // namespace romulus::pmem
