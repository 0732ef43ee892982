// Gaussian Mixture Models fitted by Expectation-Maximisation
// (Algorithm 1 of the paper), with BIC model-order selection.
//
// AdvHunter fits one *univariate* GMM per (output category, HPC event);
// gmm1d is that model.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"

namespace advh::gmm {

struct em_config {
  std::size_t max_iter = 200;
  double tolerance = 1e-7;     ///< relative log-likelihood change
  std::size_t restarts = 3;    ///< EM restarts, best likelihood kept
  double variance_floor_ratio = 1e-4;  ///< floor as fraction of data variance
  std::uint64_t seed = 7;
};

/// One univariate mixture component.
struct component1d {
  double weight = 0.0;
  double mean = 0.0;
  double variance = 1.0;
};

class gmm1d {
 public:
  gmm1d() = default;
  explicit gmm1d(std::vector<component1d> components);

  /// Fits a k-component mixture with EM (k-means++ initialised).
  static gmm1d fit(std::span<const double> data, std::size_t k,
                   const em_config& cfg = {});

  /// Fits k = 1..k_max and returns the model with the lowest BIC.
  static gmm1d fit_best_bic(std::span<const double> data, std::size_t k_max,
                            const em_config& cfg = {});

  std::size_t order() const noexcept { return components_.size(); }
  const std::vector<component1d>& components() const noexcept {
    return components_;
  }

  /// log p(x) under the mixture (log-sum-exp over components).
  double log_pdf(double x) const;

  /// Negative log-likelihood of one observation (the paper's score).
  double nll(double x) const { return -log_pdf(x); }

  /// Sum of log p over a dataset.
  double total_log_likelihood(std::span<const double> data) const;

  /// Bayesian Information Criterion: k*3-1 free parameters in 1-D.
  double bic(std::span<const double> data) const;

  /// Draws one sample.
  double sample(rng& gen) const;

 private:
  std::vector<component1d> components_;
};

}  // namespace advh::gmm
