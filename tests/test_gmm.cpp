#include "gmm/gmm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "gmm/kmeans.hpp"

namespace advh::gmm {
namespace {

std::vector<double> two_cluster_data(rng& gen, double m1, double m2,
                                     double sd, std::size_t n_each) {
  std::vector<double> data;
  for (std::size_t i = 0; i < n_each; ++i) data.push_back(gen.normal(m1, sd));
  for (std::size_t i = 0; i < n_each; ++i) data.push_back(gen.normal(m2, sd));
  return data;
}

TEST(Kmeans, SeparatesTwoClusters) {
  rng gen(1);
  auto data = two_cluster_data(gen, 0.0, 10.0, 0.5, 100);
  auto res = kmeans(data, 1, 2, gen);
  ASSERT_EQ(res.centroids.size(), 2u);
  std::vector<double> centers{res.centroids[0][0], res.centroids[1][0]};
  std::sort(centers.begin(), centers.end());
  EXPECT_NEAR(centers[0], 0.0, 0.5);
  EXPECT_NEAR(centers[1], 10.0, 0.5);
}

TEST(Kmeans, AssignmentConsistentWithCentroids) {
  rng gen(2);
  auto data = two_cluster_data(gen, -5.0, 5.0, 0.3, 50);
  auto res = kmeans(data, 1, 2, gen);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t a = res.assignment[i];
    const double da = std::fabs(data[i] - res.centroids[a][0]);
    const double db = std::fabs(data[i] - res.centroids[1 - a][0]);
    EXPECT_LE(da, db + 1e-9);
  }
}

TEST(Kmeans, MultiDimensional) {
  rng gen(3);
  std::vector<double> data;
  for (int i = 0; i < 60; ++i) {
    data.push_back(gen.normal(0.0, 0.2));
    data.push_back(gen.normal(0.0, 0.2));
  }
  for (int i = 0; i < 60; ++i) {
    data.push_back(gen.normal(4.0, 0.2));
    data.push_back(gen.normal(4.0, 0.2));
  }
  auto res = kmeans(data, 2, 2, gen);
  double lo = std::min(res.centroids[0][0], res.centroids[1][0]);
  double hi = std::max(res.centroids[0][0], res.centroids[1][0]);
  EXPECT_NEAR(lo, 0.0, 0.3);
  EXPECT_NEAR(hi, 4.0, 0.3);
}

TEST(Kmeans, KEqualsNIsExactCover) {
  rng gen(4);
  std::vector<double> data{1.0, 2.0, 3.0};
  auto res = kmeans(data, 1, 3, gen);
  EXPECT_NEAR(res.inertia, 0.0, 1e-12);
}

TEST(Kmeans, RejectsMorelustersThanPoints) {
  rng gen(5);
  std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(kmeans(data, 1, 3, gen), invariant_error);
}

TEST(Gmm1d, RecoversTwoComponents) {
  rng gen(6);
  auto data = two_cluster_data(gen, 0.0, 8.0, 1.0, 300);
  gmm1d model = gmm1d::fit(data, 2);
  ASSERT_EQ(model.order(), 2u);
  std::vector<component1d> comps = model.components();
  std::sort(comps.begin(), comps.end(),
            [](const auto& a, const auto& b) { return a.mean < b.mean; });
  EXPECT_NEAR(comps[0].mean, 0.0, 0.3);
  EXPECT_NEAR(comps[1].mean, 8.0, 0.3);
  EXPECT_NEAR(comps[0].weight, 0.5, 0.05);
  EXPECT_NEAR(comps[0].variance, 1.0, 0.4);
}

TEST(Gmm1d, SingleComponentMatchesMoments) {
  rng gen(7);
  std::vector<double> data;
  for (int i = 0; i < 1000; ++i) data.push_back(gen.normal(3.0, 2.0));
  gmm1d model = gmm1d::fit(data, 1);
  EXPECT_NEAR(model.components()[0].mean, 3.0, 0.2);
  EXPECT_NEAR(model.components()[0].variance, 4.0, 0.5);
  EXPECT_DOUBLE_EQ(model.components()[0].weight, 1.0);
}

TEST(Gmm1d, LogPdfIntegratesToOne) {
  rng gen(8);
  auto data = two_cluster_data(gen, 0.0, 5.0, 0.7, 200);
  gmm1d model = gmm1d::fit(data, 2);
  // Trapezoidal integral of exp(log_pdf) over a wide range.
  double integral = 0.0;
  const double lo = -10.0, hi = 15.0, step = 0.01;
  for (double x = lo; x < hi; x += step) {
    integral += std::exp(model.log_pdf(x)) * step;
  }
  EXPECT_NEAR(integral, 1.0, 0.01);
}

TEST(Gmm1d, NllLowInsideHighOutside) {
  rng gen(9);
  std::vector<double> data;
  for (int i = 0; i < 400; ++i) data.push_back(gen.normal(0.0, 1.0));
  gmm1d model = gmm1d::fit(data, 1);
  EXPECT_LT(model.nll(0.0), model.nll(5.0));
  EXPECT_LT(model.nll(1.0), model.nll(-8.0));
}

TEST(Gmm1d, BicSelectsTrueOrder) {
  rng gen(10);
  auto data = two_cluster_data(gen, 0.0, 12.0, 1.0, 250);
  gmm1d model = gmm1d::fit_best_bic(data, 5);
  EXPECT_EQ(model.order(), 2u);
}

TEST(Gmm1d, BicPrefersOneForUnimodal) {
  rng gen(11);
  std::vector<double> data;
  for (int i = 0; i < 500; ++i) data.push_back(gen.normal(0.0, 1.0));
  gmm1d model = gmm1d::fit_best_bic(data, 4);
  EXPECT_EQ(model.order(), 1u);
}

TEST(Gmm1d, ThreeComponentRecovery) {
  rng gen(12);
  std::vector<double> data;
  for (int i = 0; i < 200; ++i) data.push_back(gen.normal(-10.0, 0.8));
  for (int i = 0; i < 200; ++i) data.push_back(gen.normal(0.0, 0.8));
  for (int i = 0; i < 200; ++i) data.push_back(gen.normal(10.0, 0.8));
  gmm1d model = gmm1d::fit_best_bic(data, 5);
  EXPECT_EQ(model.order(), 3u);
}

TEST(Gmm1d, SamplesFollowModel) {
  std::vector<component1d> comps{{0.5, 0.0, 1.0}, {0.5, 20.0, 1.0}};
  gmm1d model(comps);
  rng gen(13);
  std::size_t low = 0;
  const int n = 20000;
  stats::running_stats rs;
  for (int i = 0; i < n; ++i) {
    const double x = model.sample(gen);
    rs.push(x);
    if (x < 10.0) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.02);
  EXPECT_NEAR(rs.mean(), 10.0, 0.3);
}

TEST(Gmm1d, DegenerateDataGetsVarianceFloor) {
  std::vector<double> data(50, 7.0);  // all identical
  gmm1d model = gmm1d::fit(data, 1);
  EXPECT_GT(model.components()[0].variance, 0.0);
  EXPECT_TRUE(std::isfinite(model.nll(7.0)));
  EXPECT_TRUE(std::isfinite(model.nll(8.0)));
}

TEST(Gmm1d, InvalidWeightsRejected) {
  std::vector<component1d> comps{{0.4, 0.0, 1.0}, {0.4, 1.0, 1.0}};
  EXPECT_THROW(gmm1d{comps}, invariant_error);
}

TEST(Gmm1d, FitRequiresEnoughData) {
  std::vector<double> data{1.0};
  EXPECT_THROW(gmm1d::fit(data, 2), invariant_error);
}

TEST(Gmm1d, DeterministicForSameConfig) {
  rng gen(14);
  auto data = two_cluster_data(gen, 0.0, 6.0, 1.0, 100);
  gmm1d a = gmm1d::fit(data, 2);
  gmm1d b = gmm1d::fit(data, 2);
  ASSERT_EQ(a.order(), b.order());
  for (std::size_t i = 0; i < a.order(); ++i) {
    EXPECT_DOUBLE_EQ(a.components()[i].mean, b.components()[i].mean);
  }
}

}  // namespace
}  // namespace advh::gmm
