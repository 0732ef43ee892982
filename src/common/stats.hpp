// Descriptive statistics used across the GMM core, the noise model,
// experiment metrics, and the bench harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace advh::stats {

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Population variance (divide by n); returns 0 for fewer than 1 element.
double variance(std::span<const double> xs) noexcept;

/// Sample variance (divide by n-1); returns 0 for fewer than 2 elements.
double sample_variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Minimum value; requires a non-empty span.
double min(std::span<const double> xs);

/// Maximum value; requires a non-empty span.
double max(std::span<const double> xs);

/// Median (average of middle two for even sizes); requires non-empty.
double median(std::span<const double> xs);

/// Linear-interpolation quantile, q in [0, 1]; requires non-empty.
double quantile(std::span<const double> xs, double q);

/// Pearson correlation of two equally sized spans; requires size >= 2.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Numerically stable streaming mean/variance accumulator (Welford).
class running_stats {
 public:
  void push(double x) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;         ///< population variance
  double sample_variance() const noexcept;  ///< n-1 denominator
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }
  void merge(const running_stats& other) noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi]; values outside are clamped to the
/// first/last bin so every observation is counted.
class histogram {
 public:
  histogram(double lo, double hi, std::size_t bins);

  void push(double x) noexcept;
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bin) const;
  std::size_t total() const noexcept { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  double bin_center(std::size_t bin) const;
  /// Normalised frequency (count / total); 0 if the histogram is empty.
  double frequency(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Builds a histogram whose range is derived from the data (min..max,
/// padded by 1% so extremes fall inside); requires non-empty data.
histogram auto_histogram(std::span<const double> xs, std::size_t bins);

}  // namespace advh::stats
