#include "analysis/persist_graph.hpp"

#include <cstring>
#include <sstream>
#include <unordered_map>
#include <utility>

namespace romulus::analysis {

namespace {
constexpr size_t kLine = pmem::kCacheLineSize;
}

const char* persist_event_kind_name(PersistEventKind k) {
    switch (k) {
        case PersistEventKind::Store: return "store";
        case PersistEventKind::Pwb: return "pwb";
        case PersistEventKind::Fence: return "fence";
        case PersistEventKind::StateTransition: return "state";
        case PersistEventKind::TxBegin: return "tx-begin";
        case PersistEventKind::TxCommit: return "tx-commit";
        case PersistEventKind::TxAbort: return "tx-abort";
        case PersistEventKind::RangeLogged: return "range-logged";
        case PersistEventKind::NtStore: return "nt-store";
        case PersistEventKind::NtDrain: return "nt-drain";
    }
    return "?";
}

// ---------------------------------------------------------------------------
// PersistEventRecorder
// ---------------------------------------------------------------------------

PersistEventRecorder::PersistEventRecorder(const uint8_t* base, size_t size,
                                           Options opts)
    : base_(base), size_(size), opts_(opts) {
    baseline_.assign(base_, base_ + size_);
    events_.reserve(1024);
}

void PersistEventRecorder::clear() {
    std::lock_guard<std::mutex> lk(mu_);
    events_.clear();
    pool_.clear();
    overflowed_ = false;
    out_of_region_ = 0;
    baseline_.assign(base_, base_ + size_);
}

void PersistEventRecorder::append(PersistEvent e) {
    if (events_.size() >= opts_.max_events) {
        overflowed_ = true;
        return;
    }
    events_.push_back(e);
}

void PersistEventRecorder::on_store(const void* addr, size_t len) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!in_region(addr)) {
            ++out_of_region_;
        } else {
            PersistEvent e;
            e.kind = PersistEventKind::Store;
            e.off = uint64_t(static_cast<const uint8_t*>(addr) - base_);
            e.len = uint32_t(len);
            append(e);
        }
    }
    if (opts_.next) opts_.next->on_store(addr, len);
}

void PersistEventRecorder::on_pwb(const void* addr) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!in_region(addr)) {
            ++out_of_region_;
        } else {
            PersistEvent e;
            e.kind = PersistEventKind::Pwb;
            e.off = uint64_t(static_cast<const uint8_t*>(addr) - base_);
            // Capture the line's content as of pwb issue: the write-back
            // carries what the line held when it was initiated (pmemcheck's
            // conservative model; engines are verified store-after-pwb clean
            // by the PersistencyChecker, so issue-time == completion-time).
            uint64_t line_base = (e.off / kLine) * kLine;
            e.content = pool_.size();
            pool_.resize(pool_.size() + kLine);
            std::memcpy(pool_.data() + e.content, base_ + line_base, kLine);
            append(e);
        }
    }
    if (opts_.next) opts_.next->on_pwb(addr);
}

void PersistEventRecorder::on_fence() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::Fence;
        append(e);
    }
    if (opts_.next) opts_.next->on_fence();
}

void PersistEventRecorder::on_tx_begin() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::TxBegin;
        append(e);
    }
    if (opts_.next) opts_.next->on_tx_begin();
}

void PersistEventRecorder::on_tx_commit() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::TxCommit;
        append(e);
    }
    if (opts_.next) opts_.next->on_tx_commit();
}

void PersistEventRecorder::on_tx_abort() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::TxAbort;
        append(e);
    }
    if (opts_.next) opts_.next->on_tx_abort();
}

void PersistEventRecorder::on_state_transition(uint32_t new_state) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::StateTransition;
        e.state = new_state;
        append(e);
    }
    if (opts_.next) opts_.next->on_state_transition(new_state);
}

void PersistEventRecorder::on_range_logged(const void* addr, size_t len) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (in_region(addr)) {
            PersistEvent e;
            e.kind = PersistEventKind::RangeLogged;
            e.off = uint64_t(static_cast<const uint8_t*>(addr) - base_);
            e.len = uint32_t(len);
            append(e);
        }
    }
    if (opts_.next) opts_.next->on_range_logged(addr, len);
}

void PersistEventRecorder::on_nt_store(const void* addr, size_t len) {
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (in_region(addr)) {
            PersistEvent e;
            e.kind = PersistEventKind::NtStore;
            e.off = uint64_t(static_cast<const uint8_t*>(addr) - base_);
            e.len = uint32_t(len);
            append(e);
        }
    }
    if (opts_.next) opts_.next->on_nt_store(addr, len);
}

void PersistEventRecorder::on_nt_drain() {
    {
        std::lock_guard<std::mutex> lk(mu_);
        PersistEvent e;
        e.kind = PersistEventKind::NtDrain;
        append(e);
    }
    if (opts_.next) opts_.next->on_nt_drain();
}

// ---------------------------------------------------------------------------
// EngineLayout
// ---------------------------------------------------------------------------

int EngineLayout::shard_of_zone(uint64_t off) const {
    for (size_t i = 0; i < shards.size(); ++i) {
        if (in_main(shards[i], off) || in_back(shards[i], off))
            return int(i);
    }
    return -1;
}

int EngineLayout::shard_of_state(uint64_t off) const {
    for (size_t i = 0; i < shards.size(); ++i) {
        if (shards[i].state_off != kNone && shards[i].state_off == off)
            return int(i);
    }
    return -1;
}

// ---------------------------------------------------------------------------
// PersistGraph
// ---------------------------------------------------------------------------

PersistGraph PersistGraph::build(const PersistEventRecorder& rec) {
    PersistGraph g;
    uint32_t window = 0;
    std::unordered_map<uint64_t, uint32_t> last_of_line;
    g.windows_.emplace_back();
    const auto& events = rec.events();
    for (size_t i = 0; i < events.size(); ++i) {
        const PersistEvent& e = events[i];
        if (e.kind == PersistEventKind::Fence) {
            ++window;
            g.windows_.emplace_back();
            continue;
        }
        if (e.kind != PersistEventKind::Pwb) continue;
        Node n;
        n.line = e.off / kLine;
        n.pwb_off = e.off;
        n.content = e.content;
        n.window = window;
        n.event_idx = i;
        auto it = last_of_line.find(n.line);
        n.same_line_pred = it == last_of_line.end() ? kNoNode : it->second;
        uint32_t idx = uint32_t(g.nodes_.size());
        last_of_line[n.line] = idx;
        g.nodes_.push_back(n);
        g.windows_[window].push_back(idx);
    }
    g.window_count_ = window + 1;
    return g;
}

bool PersistGraph::ordered_before(uint32_t a, uint32_t b) const {
    const Node& na = nodes_[a];
    const Node& nb = nodes_[b];
    if (na.window < nb.window) return true;  // fence edge
    if (na.window > nb.window) return false;
    // Same window: only same-line program order constrains completion.
    return na.line == nb.line && a < b;
}

// ---------------------------------------------------------------------------
// Static protocol rules
// ---------------------------------------------------------------------------

const char* protocol_violation_kind_name(ProtocolViolation::Kind k) {
    switch (k) {
        case ProtocolViolation::Kind::UnflushedLine:
            return "unflushed-line";
        case ProtocolViolation::Kind::UnorderedStatePersist:
            return "unordered-state-persist";
        case ProtocolViolation::Kind::UndrainedNtLine:
            return "undrained-nt-line";
    }
    return "?";
}

namespace {

const char* state_name(uint32_t st) {
    switch (st) {
        case 0: return "IDLE";
        case 1: return "MUT";
        case 2: return "CPY";
    }
    return "?";
}

struct LineTrack {
    bool dirty = false;  // store since last write-back (redundancy tracking)
};

}  // namespace

GraphAnalysis analyze_protocol(const PersistEventRecorder& rec,
                               const PersistGraph& graph,
                               const EngineLayout& layout) {
    GraphAnalysis out;
    const auto& events = rec.events();

    // Per-line write-back index (event position + fence window, in event
    // order) straight from the graph nodes.  The ordering rule must look
    // FORWARD from a store — a reordered state persist flushes the body
    // after the state word, and only a whole-stream view can name the pair.
    std::unordered_map<uint64_t, std::vector<std::pair<size_t, uint32_t>>>
        line_pwbs;
    for (const PersistGraph::Node& n : graph.nodes())
        line_pwbs[n.line].emplace_back(n.event_idx, n.window);

    std::unordered_map<uint64_t, LineTrack> lines;
    // Per shard: twin-zone line -> event index of its last store since the
    // shard's previous state-word persist.
    std::vector<std::unordered_map<uint64_t, size_t>> shard_dirty(
        layout.shards.size());
    // Shard whose state word the most recent in-region store hit; the
    // engines call on_state_transition immediately after that store, which
    // is how a transition value gets attributed to a shard.
    int last_state_store_shard = -1;
    std::vector<uint32_t> pending_state(layout.shards.size(), 0);
    uint32_t window = 0;
    // Lines written with NT stores since the last drain, in stream order.
    std::vector<uint64_t> undrained_nt;

    for (size_t ei = 0; ei < events.size(); ++ei) {
        const PersistEvent& e = events[ei];
        switch (e.kind) {
            case PersistEventKind::Fence:
                ++window;
                ++out.fences;
                break;
            case PersistEventKind::Store: {
                ++out.stores;
                uint64_t first = e.off / kLine;
                uint64_t last = (e.off + (e.len ? e.len - 1 : 0)) / kLine;
                for (uint64_t ln = first; ln <= last; ++ln)
                    lines[ln].dirty = true;
                int zs = layout.shard_of_zone(e.off);
                if (zs >= 0) {
                    for (uint64_t ln = first; ln <= last; ++ln)
                        shard_dirty[size_t(zs)][ln] = ei;
                }
                int ss = layout.shard_of_state(e.off);
                if (ss >= 0) last_state_store_shard = ss;
                break;
            }
            case PersistEventKind::StateTransition:
                if (last_state_store_shard >= 0)
                    pending_state[size_t(last_state_store_shard)] = e.state;
                break;
            case PersistEventKind::NtStore:
                for (uint64_t ln = e.off / kLine;
                     ln < (e.off + e.len + kLine - 1) / kLine; ++ln)
                    undrained_nt.push_back(ln);
                break;
            case PersistEventKind::NtDrain:
                undrained_nt.clear();
                break;
            case PersistEventKind::Pwb: {
                ++out.pwbs;
                LineTrack& t = lines[e.off / kLine];
                if (!t.dirty) ++out.redundant_pwbs;
                t.dirty = false;
                int ss = layout.shard_of_state(e.off);
                if (ss < 0) break;
                // A state-word persist: every twin-zone line dirtied since
                // this shard's previous state persist must have a covering
                // write-back in a STRICTLY earlier fence window, or the
                // state word may become durable before the data it
                // advertises.  MUT persists carry no durability promise, so
                // only CPY (body durable) and IDLE (back durable) are
                // checked.
                ++out.state_persists;
                uint32_t st = pending_state[size_t(ss)];
                // Any state persist, MUT included: a pfence orders no NT
                // store under CLFLUSH, only a drain does.
                for (uint64_t ln : undrained_nt) {
                    ProtocolViolation v;
                    v.kind = ProtocolViolation::Kind::UndrainedNtLine;
                    v.line_off = ln * kLine;
                    v.shard = uint32_t(ss);
                    v.state_value = st;
                    v.state_window = window;
                    v.line_window = ProtocolViolation::kNoWindow;
                    std::ostringstream os;
                    os << "shard " << ss << ": line 0x" << std::hex
                       << v.line_off << std::dec
                       << " written with NT stores is not drained before the "
                       << state_name(st) << " state persist (fence window "
                       << window << ")";
                    v.detail = os.str();
                    out.violations.push_back(std::move(v));
                }
                undrained_nt.clear();  // reported once
                auto& dirty = shard_dirty[size_t(ss)];
                if (st != 1 /*MUT*/) {
                    for (const auto& [dl, store_idx] : dirty) {
                        // First write-back of this line issued after its
                        // last store, anywhere in the stream.
                        const std::pair<size_t, uint32_t>* cover = nullptr;
                        auto it = line_pwbs.find(dl);
                        if (it != line_pwbs.end()) {
                            for (const auto& p : it->second) {
                                if (p.first > store_idx) {
                                    cover = &p;
                                    break;
                                }
                            }
                        }
                        if (cover && cover->second < window) continue;  // ok
                        ProtocolViolation v;
                        v.line_off = dl * kLine;
                        v.shard = uint32_t(ss);
                        v.state_value = st;
                        v.state_window = window;
                        std::ostringstream os;
                        if (!cover) {
                            v.kind = ProtocolViolation::Kind::UnflushedLine;
                            v.line_window = ProtocolViolation::kNoWindow;
                            os << "shard " << ss << ": line 0x" << std::hex
                               << v.line_off << std::dec
                               << " dirtied before the " << state_name(st)
                               << " state persist (fence window " << window
                               << ") has no write-back at all";
                        } else {
                            v.kind =
                                ProtocolViolation::Kind::UnorderedStatePersist;
                            v.line_window = cover->second;
                            os << "shard " << ss << ": line 0x" << std::hex
                               << v.line_off << std::dec
                               << " write-back in fence window "
                               << cover->second
                               << " is not ordered before the "
                               << state_name(st)
                               << " state persist in window " << window
                               << " (no pfence between them)";
                        }
                        v.detail = os.str();
                        out.violations.push_back(std::move(v));
                    }
                }
                dirty.clear();
                break;
            }
            default:
                break;
        }
    }
    return out;
}

std::string GraphAnalysis::report() const {
    std::ostringstream os;
    os << "persist-graph: " << stores << " stores, " << pwbs
       << " write-backs (" << redundant_pwbs << " redundant), " << fences
       << " fences, " << state_persists << " state persists\n";
    if (violations.empty()) {
        os << "protocol rules: clean\n";
    } else {
        os << "protocol rules: " << violations.size() << " violation(s)\n";
        for (const ProtocolViolation& v : violations)
            os << "  [" << protocol_violation_kind_name(v.kind) << "] "
               << v.detail << "\n";
    }
    return os.str();
}

// ---------------------------------------------------------------------------
// Protocol mutations
// ---------------------------------------------------------------------------

ProtocolMutations& protocol_mutations() {
    static ProtocolMutations m;
    return m;
}

}  // namespace romulus::analysis
