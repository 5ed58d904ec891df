// Log-bucketed latency histogram (HdrHistogram-style, header-only).
//
// Values up to 2^kSubBits are counted exactly; above that, each octave
// [2^k, 2^{k+1}) is split into 2^kSubBits equal sub-buckets, so the
// relative quantization error of any recorded value is below
// 2^-kSubBits (3.125% for kSubBits = 5), and quantile() reports bucket
// midpoints clamped to the observed [min, max] -- halving the worst case.
// Histograms are mergeable (same layout by construction), which is what
// lets per-point collectors combine into one percentile view.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace polarstar::telemetry {

class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits buckets per octave.
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kExactLimit = 1ull << kSubBits;

  /// Flat bucket index of value v (0 maps to bucket 0).
  static std::size_t bucket_of(std::uint64_t v) {
    if (v < kExactLimit) return static_cast<std::size_t>(v);
    const unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(v));
    const unsigned shift = msb - kSubBits;
    return ((static_cast<std::size_t>(msb) - kSubBits + 1) << kSubBits) +
           static_cast<std::size_t>((v >> shift) & (kExactLimit - 1));
  }

  /// Representative (midpoint) value of bucket b -- inverse of bucket_of
  /// up to quantization.
  static double bucket_value(std::size_t b) {
    if (b < kExactLimit) return static_cast<double>(b);
    const std::size_t octave = (b >> kSubBits);  // >= 1
    const std::size_t sub = b & (kExactLimit - 1);
    const unsigned msb = kSubBits + static_cast<unsigned>(octave) - 1;
    const std::uint64_t width = 1ull << (msb - kSubBits);
    const std::uint64_t lower = (1ull << msb) + sub * width;
    return static_cast<double>(lower) + static_cast<double>(width - 1) / 2.0;
  }

  void add(std::uint64_t v, std::uint64_t count = 1) {
    const std::size_t b = bucket_of(v);
    if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
    buckets_[b] += count;
    count_ += count;
    min_ = count_ == count ? v : std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const LatencyHistogram& o) {
    if (o.count_ == 0) return;
    if (o.buckets_.size() > buckets_.size()) {
      buckets_.resize(o.buckets_.size(), 0);
    }
    for (std::size_t b = 0; b < o.buckets_.size(); ++b) {
      buckets_[b] += o.buckets_[b];
    }
    min_ = count_ == 0 ? o.min_ : std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    count_ += o.count_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }

  /// Value at quantile q in [0, 1]: the bucket holding the rank
  /// floor(q * (count - 1)) -- the same rank convention as
  /// SimResult's sorted-sample percentiles -- reported as the bucket
  /// midpoint clamped to [min, max]. 0 when empty.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      cum += buckets_[b];
      if (cum > rank) {
        return std::clamp(bucket_value(b), static_cast<double>(min_),
                          static_cast<double>(max_));
      }
    }
    return static_cast<double>(max_);
  }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0, max_ = 0;
};

}  // namespace polarstar::telemetry
