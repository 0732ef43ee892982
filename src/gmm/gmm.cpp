#include "gmm/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "gmm/kmeans.hpp"

namespace advh::gmm {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

double log_normal_pdf(double x, double mean, double variance) {
  const double d = x - mean;
  return -0.5 * (kLog2Pi + std::log(variance) + d * d / variance);
}

/// log(sum(exp(v))) without overflow.
double log_sum_exp(std::span<const double> v) {
  double mx = -std::numeric_limits<double>::infinity();
  for (double x : v) mx = std::max(mx, x);
  if (!std::isfinite(mx)) return mx;
  double acc = 0.0;
  for (double x : v) acc += std::exp(x - mx);
  return mx + std::log(acc);
}

}  // namespace

gmm1d::gmm1d(std::vector<component1d> components)
    : components_(std::move(components)) {
  ADVH_CHECK(!components_.empty());
  double total = 0.0;
  for (const auto& c : components_) {
    ADVH_CHECK(c.weight >= 0.0 && c.variance > 0.0);
    total += c.weight;
  }
  ADVH_CHECK_MSG(std::fabs(total - 1.0) < 1e-6, "weights must sum to 1");
}

gmm1d gmm1d::fit(std::span<const double> data, std::size_t k,
                 const em_config& cfg) {
  ADVH_CHECK_MSG(data.size() >= k && k > 0, "need at least k observations");

  const double data_var = std::max(stats::variance(data), 1e-12);
  const double floor = std::max(cfg.variance_floor_ratio * data_var, 1e-12);
  const auto n = data.size();

  std::vector<component1d> best;
  double best_ll = -std::numeric_limits<double>::infinity();

  rng seed_gen(cfg.seed);
  for (std::size_t restart = 0; restart < std::max<std::size_t>(cfg.restarts, 1);
       ++restart) {
    rng gen = seed_gen.split();

    // Initialise from k-means clusters.
    auto km = kmeans(data, 1, k, gen);
    std::vector<component1d> comps(k);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) ++counts[km.assignment[i]];
    for (std::size_t c = 0; c < k; ++c) {
      comps[c].mean = km.centroids[c][0];
      comps[c].weight =
          std::max(static_cast<double>(counts[c]) / static_cast<double>(n),
                   1e-6);
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (km.assignment[i] == c) {
          const double d = data[i] - comps[c].mean;
          var += d * d;
        }
      }
      comps[c].variance =
          std::max(counts[c] ? var / static_cast<double>(counts[c]) : data_var,
                   floor);
    }
    {
      double wsum = 0.0;
      for (auto& c : comps) wsum += c.weight;
      for (auto& c : comps) c.weight /= wsum;
    }

    // EM iterations (Algorithm 1).
    std::vector<double> resp(n * k);
    std::vector<double> logp(k);
    double prev_ll = -std::numeric_limits<double>::infinity();
    for (std::size_t iter = 0; iter < cfg.max_iter; ++iter) {
      // E-step: responsibilities gamma_ik.
      double ll = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < k; ++c) {
          logp[c] = std::log(comps[c].weight) +
                    log_normal_pdf(data[i], comps[c].mean, comps[c].variance);
        }
        const double lse = log_sum_exp(logp);
        ll += lse;
        for (std::size_t c = 0; c < k; ++c) {
          resp[i * k + c] = std::exp(logp[c] - lse);
        }
      }

      // M-step.
      for (std::size_t c = 0; c < k; ++c) {
        double nk = 0.0, mu = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          nk += resp[i * k + c];
          mu += resp[i * k + c] * data[i];
        }
        nk = std::max(nk, 1e-10);
        mu /= nk;
        double var = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = data[i] - mu;
          var += resp[i * k + c] * d * d;
        }
        comps[c].weight = nk / static_cast<double>(n);
        comps[c].mean = mu;
        comps[c].variance = std::max(var / nk, floor);
      }

      if (std::isfinite(prev_ll) &&
          std::fabs(ll - prev_ll) <=
              cfg.tolerance * (std::fabs(prev_ll) + 1.0)) {
        prev_ll = ll;
        break;
      }
      prev_ll = ll;
    }

    if (prev_ll > best_ll) {
      best_ll = prev_ll;
      best = comps;
    }
  }

  return gmm1d(std::move(best));
}

gmm1d gmm1d::fit_best_bic(std::span<const double> data, std::size_t k_max,
                          const em_config& cfg) {
  ADVH_CHECK(k_max > 0);
  gmm1d best;
  double best_bic = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (data.size() < 2 * k) break;  // too few points to support k modes
    gmm1d candidate = fit(data, k, cfg);
    const double b = candidate.bic(data);
    if (b < best_bic) {
      best_bic = b;
      best = std::move(candidate);
    }
  }
  ADVH_CHECK_MSG(best.order() > 0, "BIC scan produced no model");
  return best;
}

double gmm1d::log_pdf(double x) const {
  ADVH_CHECK_MSG(!components_.empty(), "model not fitted");
  std::vector<double> logp(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    logp[c] = std::log(std::max(components_[c].weight, 1e-300)) +
              log_normal_pdf(x, components_[c].mean, components_[c].variance);
  }
  return log_sum_exp(logp);
}

double gmm1d::total_log_likelihood(std::span<const double> data) const {
  double acc = 0.0;
  for (double x : data) acc += log_pdf(x);
  return acc;
}

double gmm1d::bic(std::span<const double> data) const {
  // Free parameters in 1-D: k means + k variances + (k-1) weights.
  const double params = static_cast<double>(3 * order() - 1);
  return params * std::log(static_cast<double>(data.size())) -
         2.0 * total_log_likelihood(data);
}

double gmm1d::sample(rng& gen) const {
  ADVH_CHECK(!components_.empty());
  double r = gen.uniform();
  std::size_t c = 0;
  for (; c + 1 < components_.size(); ++c) {
    r -= components_[c].weight;
    if (r <= 0.0) break;
  }
  return gen.normal(components_[c].mean, std::sqrt(components_[c].variance));
}

}  // namespace advh::gmm
