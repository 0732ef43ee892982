#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace advh::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 1) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double sample_variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double min(std::span<const double> xs) {
  ADVH_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  ADVH_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double quantile(std::span<const double> xs, double q) {
  ADVH_CHECK(!xs.empty());
  ADVH_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double pearson(std::span<const double> xs, std::span<const double> ys) {
  ADVH_CHECK(xs.size() == ys.size());
  ADVH_CHECK(xs.size() >= 2);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void running_stats::push(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double running_stats::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double running_stats::sample_variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double running_stats::stddev() const noexcept { return std::sqrt(variance()); }

void running_stats::merge(const running_stats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const double total = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / total;
  mean_ += delta * static_cast<double>(other.n_) / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

histogram::histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  ADVH_CHECK(bins > 0);
  ADVH_CHECK(hi > lo);
}

void histogram::push(double x) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::ptrdiff_t>(std::floor((x - lo_) / width));
  bin = std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::size_t histogram::count(std::size_t bin) const {
  ADVH_CHECK(bin < counts_.size());
  return counts_[bin];
}

double histogram::bin_lo(std::size_t bin) const {
  ADVH_CHECK(bin < counts_.size());
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double histogram::bin_hi(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return bin_lo(bin) + width;
}

double histogram::bin_center(std::size_t bin) const {
  return 0.5 * (bin_lo(bin) + bin_hi(bin));
}

double histogram::frequency(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

histogram auto_histogram(std::span<const double> xs, std::size_t bins) {
  ADVH_CHECK(!xs.empty());
  double lo = min(xs);
  double hi = max(xs);
  if (lo == hi) {
    // Degenerate data: widen artificially so the histogram stays valid.
    lo -= 0.5;
    hi += 0.5;
  }
  const double pad = 0.01 * (hi - lo);
  return histogram(lo - pad, hi + pad, bins);
}

}  // namespace advh::stats
