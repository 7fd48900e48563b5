// Persistence primitives: pwb / pfence / psync (§4.1 of the paper).
//
// The paper's model uses three instructions:
//   pwb(addr) — initiate write-back of a cache line (non-blocking),
//   pfence()  — order preceding pwbs before subsequent ones,
//   psync()   — block until preceding pwbs are persistent.
//
// On x86 these map to (per the paper's table in §4.1 and Fig. 9):
//   profile CLFLUSH     : pwb=CLFLUSH,    fences=nop (CLFLUSH self-orders)
//   profile CLFLUSHOPT  : pwb=CLFLUSHOPT, fences=SFENCE
//   profile CLWB        : pwb=CLWB,       fences=SFENCE
//   profile STT / PCM   : busy-wait delays emulating STT-RAM / PCM latencies
//                         (140/200/200 ns and 340/500/500 ns, §6.1)
//   profile NOP         : everything is a no-op (DRAM-speed baseline)
//
// The active profile is a process-global selected at runtime so that a single
// benchmark binary can sweep all the fence types of Fig. 9.  The primitives
// also drive the per-thread Stats counters and, when installed, the SimHooks
// used by the crash-injection test model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "pmem/stats.hpp"

namespace romulus::pmem {

inline constexpr size_t kCacheLineSize = 64;

enum class Profile : int {
    NOP = 0,     ///< no flushing at all (volatile baseline / unit tests)
    CLFLUSH,     ///< pwb=clflush, fences=nop
    CLFLUSHOPT,  ///< pwb=clflushopt, fences=sfence (falls back to clflush)
    CLWB,        ///< pwb=clwb, fences=sfence (falls back to clflushopt/clflush)
    STT,         ///< injected delays: pwb 140 ns, fences 200 ns
    PCM,         ///< injected delays: pwb 340 ns, fences 500 ns
};

/// True if this CPU executes CLFLUSHOPT / CLWB (CPUID leaf 7).
bool cpu_has_clflushopt();
bool cpu_has_clwb();
/// True if this CPU executes 256-bit AVX stores (persist_copy dispatch).
bool cpu_has_avx();

/// Select the active profile.  Unsupported hardware profiles silently degrade
/// (CLWB -> CLFLUSHOPT -> CLFLUSH) so benches run anywhere; query
/// effective_profile() to learn what actually runs.
void set_profile(Profile p);
Profile profile();
Profile effective_profile();
const char* profile_name(Profile p);

/// When is the written-back content of a cache line captured?  Hardware may
/// legally do either; algorithms must be correct under both (sim model and
/// persistency checker are parameterised on it).
enum class FlushContent {
    AtFence,  ///< written-back content = line content when the fence runs
    AtPwb,    ///< written-back content = line content when the pwb ran
};

/// Hooks for the simulated-persistence crash model (sim_persistence.hpp) and
/// the persistency checker (checker.hpp).  When installed, every interposed
/// store / pwb / fence is reported so the model can maintain a shadow "what
/// would have survived a power cut" image.
///
/// The transaction-lifecycle callbacks default to no-ops so that observers
/// interested only in the memory events (SimPersistence) need not implement
/// them; the PersistencyChecker uses them to know when the flush/log
/// discipline of Algorithm 1 must hold.
class SimHooks {
  public:
    virtual ~SimHooks() = default;
    virtual void on_store(const void* addr, size_t len) = 0;
    virtual void on_pwb(const void* addr) = 0;
    virtual void on_fence() = 0;

    // Transaction lifecycle (engines notify through the helpers below).
    virtual void on_tx_begin() {}
    virtual void on_tx_commit() {}
    virtual void on_tx_abort() {}
    /// Romulus-style twin-copy engines: the per-heap state field was just
    /// stored (IDL/MUT/CPY).  Fired before the pwb of the state itself.
    virtual void on_state_transition(uint32_t /*new_state*/) {}
    /// A store to [addr, addr+len) is covered by the engine's log (range log
    /// entry, undo entry, ...) and will be flushed/replayed by commit.
    virtual void on_range_logged(const void* /*addr*/, size_t /*len*/) {}

    // Non-temporal stores.  Each streamed line is reported as a store + pwb
    // (its externally visible effect), then marked here: it reaches the
    // media at the next on_nt_drain(), which no pfence replaces under the
    // CLFLUSH profile (its fences are nops).
    /// The lines of [addr, addr+len) were just written with NT stores.
    virtual void on_nt_store(const void* /*addr*/, size_t /*len*/) {}
    /// This thread's outstanding NT stores were drained (sfence).
    virtual void on_nt_drain() {}
};

void set_sim_hooks(SimHooks* hooks);
SimHooks* sim_hooks();

/// Tuning knob of the commit pipeline's streaming paths.  Process-global
/// (like the flush profile) so one bench/test binary can A/B streaming
/// against all-cached stores without rebuilding.
struct CommitConfig {
    /// Minimum length in bytes for a replication run — or for the whole
    /// lines inside a store_range payload — to take the non-temporal
    /// streaming path of persist_copy(); shorter runs (and SIZE_MAX) use
    /// cached stores + per-line pwb.  NT stores bypass the cache, so under
    /// CLWB tiny hot runs are better left cacheable.  Line images
    /// (streams_line_images()) ignore the length; SIZE_MAX turns them off
    /// too.
    size_t nt_threshold = 4 * kCacheLineSize;
};
CommitConfig& commit_config();

namespace detail {
struct ProfileState {
    Profile requested = Profile::CLFLUSH;
    Profile effective = Profile::CLFLUSH;
    uint64_t pwb_delay_ns = 0;
    uint64_t fence_delay_ns = 0;
};
extern ProfileState g_profile;
extern SimHooks* g_sim_hooks;
extern CommitConfig g_commit_config;

void pwb_line_slow(const void* addr);  // dispatches on g_profile
/// Write back nlines consecutive cache lines starting at the (line-aligned)
/// address: dispatches on g_profile once, then runs the intrinsic loop.
void pwb_lines_slow(const void* addr, size_t nlines);
void fence_slow();
void delay_ns(uint64_t ns);
/// memcpy via non-temporal stores (SSE2 stream baseline, AVX when the CPU
/// has it, scalar tail).  dst must be 16-byte aligned; len a multiple of 16.
void nt_copy(void* dst, const void* src, size_t len);
}  // namespace detail

inline CommitConfig& commit_config() { return detail::g_commit_config; }

/// The streaming selection, written once: true when persist_copy() writes a
/// run of `len` bytes (to a 16-byte-aligned destination) with non-temporal
/// stores.  That takes x86, a real-instruction flush profile — the STT/PCM
/// emulation charges NVM cost per pwb, so streaming would make writes
/// artificially free there — and at least CommitConfig::nt_threshold bytes.
/// RomulusEngine::store_range keys its head/interior/tail split on the same
/// test, so nt_threshold = SIZE_MAX turns every streaming path off at once.
inline bool streams(size_t len) {
#if defined(__x86_64__) || defined(__i386__)
    return len >= detail::g_commit_config.nt_threshold &&
           detail::g_profile.pwb_delay_ns == 0;
#else
    (void)len;
    return false;
#endif
}

/// The line-image selection (DESIGN.md §4.6): true when persist_lines()
/// writes each 64 B line with one non-temporal store instead of a cached
/// store + pwb.  Both commit paths write back and replicate through it: the
/// stripe fast path's group apply from its buffered images, the slow path's
/// RomulusLog/LR write-back in place and its copy to back.  That takes x86
/// and a profile whose pwb evicts the line anyway (CLFLUSH, CLFLUSHOPT), so
/// the NT store saves the read-for-ownership and the serialized flush and
/// loses nothing.  CLWB keeps the written-back line cached for the next
/// access, NOP and the STT/PCM emulation never stream, and nt_threshold =
/// SIZE_MAX turns this off together with every other streaming path.
inline bool streams_line_images() {
#if defined(__x86_64__) || defined(__i386__)
    const Profile p = detail::g_profile.effective;
    return (p == Profile::CLFLUSH || p == Profile::CLFLUSHOPT) &&
           detail::g_commit_config.nt_threshold != SIZE_MAX;
#else
    return false;
#endif
}

/// Write back the cache line containing addr.
inline void pwb(const void* addr) {
    tl_stats().pwb++;
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_pwb(addr);
    detail::pwb_line_slow(addr);
}

/// Write back every cache line of [addr, addr+len).
inline void pwb_range(const void* addr, size_t len) {
    if (len == 0) return;
    auto p = reinterpret_cast<uintptr_t>(addr) & ~(kCacheLineSize - 1);
    auto end = reinterpret_cast<uintptr_t>(addr) + len;
    const size_t nlines = (end - p + kCacheLineSize - 1) / kCacheLineSize;
    if (detail::g_sim_hooks == nullptr) {
        // Hook-free fast path: one counter bump for the whole range, then
        // the flush-instruction loop with the profile dispatched once —
        // no per-line branch + virtual call + increment.
        tl_stats().pwb += nlines;
        detail::pwb_lines_slow(reinterpret_cast<const void*>(p), nlines);
        return;
    }
    for (; p < end; p += kCacheLineSize) pwb(reinterpret_cast<const void*>(p));
}

/// Streaming copy: copy [src, src+len) to dst and schedule it for
/// persistence, equivalent to memcpy + on_store + pwb_range but using
/// non-temporal stores for long runs (see streams()).  Format, recovery,
/// the whole lines of large store_range payloads and, unless lines stream
/// as line images, the commit's back replication (persist_lines) use it.  NT
/// stores bypass the cache entirely, so the per-line pwb disappears; the WC
/// buffers are drained by an sfence before returning (required: under the
/// CLFLUSH profile the paper-model pfence is a nop and would not order the
/// streamed data before the subsequent state write-back).  Like pwb_range,
/// *ordering against later pwbs/stores* still comes from the caller's
/// pfence()/psync().
///
/// Crash-model soundness: the sim hooks observe each streamed line as a
/// store immediately followed by a pwb of captured content — exactly the
/// externally visible behaviour of an NT store — so SimPersistence and
/// PersistencyChecker stay sound under both FlushContent modes.  The lines
/// are marked with on_nt_store() and the internal sfence is reported as
/// on_nt_drain(), deliberately NOT as a fence: the model then treats
/// streamed lines as pending until the engine's own fence, which is strictly
/// more conservative than the hardware.
void persist_copy(void* dst, const void* src, size_t len);

/// The line write-back of both commit paths: write [dst, dst+len), dst
/// line-aligned, from the bytes at `src` and schedule it for persistence;
/// src == dst writes it back in place.
///
/// Under streams_line_images() every line the range touches is (re-)stored
/// whole, from the whole line at `src`, with non-temporal stores and no pwb:
/// the sim hooks see the store and a pwb per line, exactly like
/// persist_copy's streamed lines, then an on_nt_store() mark; the lines count as
/// nt_bytes, and as nvm_bytes when copied (a line re-stored in place was
/// counted by its own store).  No sfence is issued: the caller drains each
/// phase with one nt_drain() before its next state store.
///
/// Otherwise the bytes take the cached path: in place, pwb_range(); copied,
/// persist_copy() (memcpy + on_store + one pwb per line, or for a run of
/// nt_threshold bytes and more under CLWB or NOP, a drained stream).
void persist_lines(void* dst, const void* src, size_t len);

/// Drain this thread's outstanding non-temporal stores (sfence on x86).
/// Not a paper-model fence: it is not counted and reaches the sim hooks as
/// on_nt_drain(), not on_fence().  Ordering against later pwbs still comes
/// from the caller's pfence()/psync(), but under the CLFLUSH profile those
/// are nops and order no NT store: the drain must precede the next state
/// store.
void nt_drain();

/// Order preceding pwbs before subsequent ones.
inline void pfence() {
    tl_stats().pfence++;
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_fence();
    detail::fence_slow();
}

/// Block until preceding pwbs are persistent.
inline void psync() {
    tl_stats().psync++;
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_fence();
    detail::fence_slow();
}

/// Report an interposed store of len bytes at addr to the stats and the sim
/// model.  Called by the persist<T> wrappers after the raw store.
inline void on_store(const void* addr, size_t len) {
    auto& s = tl_stats();
    s.nvm_bytes += len;
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_store(addr, len);
}

/// Lifecycle notifications: cheap single-branch forwards to the installed
/// hooks.  Every engine calls these at its transaction boundaries.
inline void notify_tx_begin() {
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_tx_begin();
}
inline void notify_tx_commit() {
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_tx_commit();
}
inline void notify_tx_abort() {
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_tx_abort();
}
inline void notify_state_transition(uint32_t st) {
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_state_transition(st);
}
inline void notify_range_logged(const void* addr, size_t len) {
    if (detail::g_sim_hooks) detail::g_sim_hooks->on_range_logged(addr, len);
}

}  // namespace romulus::pmem
