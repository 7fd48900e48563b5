// Per-op latency recording for romdb_bench: a log-linear histogram (under
// 0.8% relative error, fixed 40 KiB, merge = add) plus the ten largest raw
// samples, so a percentile is reported next to the sample count and the
// tail it rests on.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

namespace romdb {

class Histogram {
  public:
    static constexpr int kSub = 128;  ///< buckets per octave above 256 ns

    void add(uint64_t ns) {
        counts_[index(ns)]++;
        n_++;
        push_top(ns);
    }

    void merge(const Histogram& o) {
        for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
        for (int i = 0; i < o.top_n_; ++i) push_top(o.top_[i]);
    }

    uint64_t count() const { return n_; }

    /// Value at quantile q in [0, 1], in ns: the rank's position inside its
    /// bucket, interpolated linearly (samples assumed spread evenly).
    double quantile(double q) const {
        if (n_ == 0) return 0;
        uint64_t rank = uint64_t(q * double(n_));
        if (rank >= n_) rank = n_ - 1;
        uint64_t seen = 0;
        for (size_t i = 0; i < counts_.size(); ++i) {
            if (seen + counts_[i] > rank) {
                const double frac = (double(rank - seen) + 0.5) / double(counts_[i]);
                return lower(int(i)) + frac * width(int(i));
            }
            seen += counts_[i];
        }
        return lower(kBuckets - 1);
    }

    /// The kTop-th largest sample, exact (the tail a p99 rests on); 0 with
    /// fewer samples.
    uint64_t tail() const { return top_n_ == kTop ? top_.front() : 0; }

    static constexpr int kTop = 10;

  private:
    static int index(uint64_t v) {
        if (v < 2 * kSub) return int(v);
        const int shift = std::bit_width(v) - 8;  // v >> shift in [128, 256)
        const int i = shift * kSub + int(v >> shift);
        return std::min(i, kBuckets - 1);
    }
    static double lower(int i) {
        if (i < 2 * kSub) return double(i);
        return double(uint64_t(i % kSub + kSub) << (i / kSub - 1));
    }
    static double width(int i) {
        return i < 2 * kSub ? 1.0 : double(uint64_t{1} << (i / kSub - 1));
    }

    // Min-heap of the kTop largest samples seen so far.
    void push_top(uint64_t ns) {
        auto cmp = std::greater<>();
        if (top_n_ < kTop) {
            top_[size_t(top_n_++)] = ns;
            std::push_heap(top_.begin(), top_.begin() + top_n_, cmp);
        } else if (ns > top_.front()) {
            std::pop_heap(top_.begin(), top_.end(), cmp);
            top_.back() = ns;
            std::push_heap(top_.begin(), top_.end(), cmp);
        }
    }

    static constexpr int kBuckets = 40 * kSub;  // up to 2^46 ns, clamped above
    std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
    uint64_t n_ = 0;
    std::array<uint64_t, kTop> top_{};
    int top_n_ = 0;
};

/// Median of a small sample (copies; windows and cycles are a handful).
inline double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

}  // namespace romdb
