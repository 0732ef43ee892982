// Property-based (parameterized) test sweeps over the library's
// invariants: cache inclusion/accounting properties across geometries, GMM
// recovery across mixture orders, attack budget compliance across
// strengths, and trace-replay consistency across layer shapes.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attack/attack.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "data/synthetic.hpp"
#include "gmm/gmm.hpp"
#include "nn/models/models.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"
#include "uarch/cache.hpp"
#include "uarch/trace_gen.hpp"

namespace advh {
namespace {

// ---------------------------------------------------------------------------
// Cache invariants across geometries.

struct cache_geometry {
  std::size_t size_bytes;
  std::size_t line_bytes;
  std::size_t ways;
};

class CacheProperty : public ::testing::TestWithParam<cache_geometry> {};

std::vector<std::uint64_t> random_addresses(std::size_t n, std::uint64_t span,
                                            std::uint64_t seed) {
  rng gen(seed);
  std::vector<std::uint64_t> addrs(n);
  for (auto& a : addrs) a = gen.uniform_index(span);
  return addrs;
}

TEST_P(CacheProperty, AccountingIdentities) {
  const auto g = GetParam();
  uarch::cache c({"p", g.size_bytes, g.line_bytes, g.ways});
  rng gen(1);
  std::size_t loads = 0, stores = 0;
  for (std::uint64_t a : random_addresses(5000, 1 << 20, 7)) {
    const bool is_store = gen.bernoulli(0.3);
    c.access(a, is_store ? uarch::access_type::store
                         : uarch::access_type::load);
    (is_store ? stores : loads) += 1;
  }
  EXPECT_EQ(c.stats().loads, loads);
  EXPECT_EQ(c.stats().stores, stores);
  EXPECT_LE(c.stats().misses(), c.stats().accesses());
  EXPECT_LE(c.stats().writebacks, c.stats().evictions);
  // Every distinct line misses at least once (no prefetching).
  std::set<std::uint64_t> lines;
  for (std::uint64_t a : random_addresses(5000, 1 << 20, 7)) {
    lines.insert(a / g.line_bytes);
  }
  EXPECT_GE(c.stats().misses(), lines.size() > 0 ? 1u : 0u);
}

TEST_P(CacheProperty, MissesAtLeastCompulsory) {
  const auto g = GetParam();
  uarch::cache c({"p", g.size_bytes, g.line_bytes, g.ways});
  const auto addrs = random_addresses(3000, 1 << 22, 11);
  std::set<std::uint64_t> lines;
  for (std::uint64_t a : addrs) {
    c.access(a, uarch::access_type::load);
    lines.insert(a / g.line_bytes);
  }
  EXPECT_GE(c.stats().misses(), lines.size());
}

TEST_P(CacheProperty, SequentialSweepMissesOncePerLine) {
  const auto g = GetParam();
  uarch::cache c({"p", g.size_bytes, g.line_bytes, g.ways});
  // A sweep that fits in the cache misses exactly once per line, even when
  // repeated.
  const std::size_t lines = (g.size_bytes / g.line_bytes) / 2;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t l = 0; l < lines; ++l) {
      c.access(l * g.line_bytes, uarch::access_type::load);
    }
  }
  EXPECT_EQ(c.stats().misses(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheProperty,
    ::testing::Values(cache_geometry{512, 64, 2}, cache_geometry{1024, 64, 4},
                      cache_geometry{4096, 64, 8}, cache_geometry{8192, 32, 4},
                      cache_geometry{32768, 64, 8},
                      cache_geometry{1024, 128, 2},
                      cache_geometry{2048, 64, 32} /* fully associative */));

TEST(CacheInclusion, MoreWaysNeverMoreMisses) {
  // LRU stack property: with the same number of sets, doubling
  // associativity cannot increase misses for any trace.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto addrs = random_addresses(4000, 1 << 16, seed);
    std::uint64_t prev = ~0ULL;
    for (std::size_t ways : {1u, 2u, 4u, 8u}) {
      // 16 sets kept constant: size scales with ways.
      uarch::cache c({"p", 16 * 64 * ways, 64, ways});
      for (std::uint64_t a : addrs) c.access(a, uarch::access_type::load);
      EXPECT_LE(c.stats().misses(), prev) << "ways=" << ways;
      prev = c.stats().misses();
    }
  }
}

// ---------------------------------------------------------------------------
// GMM recovery across mixture orders.

class GmmOrderProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GmmOrderProperty, BicRecoversTrueOrder) {
  const std::size_t k = GetParam();
  rng gen(100 + k);
  std::vector<double> data;
  for (std::size_t c = 0; c < k; ++c) {
    const double mean = 20.0 * static_cast<double>(c);
    for (int i = 0; i < 150; ++i) data.push_back(gen.normal(mean, 1.0));
  }
  auto model = gmm::gmm1d::fit_best_bic(data, 6);
  EXPECT_EQ(model.order(), k);
}

TEST_P(GmmOrderProperty, WeightsSumToOne) {
  const std::size_t k = GetParam();
  rng gen(200 + k);
  std::vector<double> data;
  for (std::size_t c = 0; c < k; ++c) {
    for (int i = 0; i < 60; ++i) {
      data.push_back(gen.normal(15.0 * static_cast<double>(c), 1.0));
    }
  }
  auto model = gmm::gmm1d::fit(data, k);
  double total = 0.0;
  for (const auto& comp : model.components()) {
    EXPECT_GT(comp.weight, 0.0);
    EXPECT_GT(comp.variance, 0.0);
    total += comp.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(GmmOrderProperty, CentersScoreBetterThanGaps) {
  const std::size_t k = GetParam();
  if (k < 2) GTEST_SKIP() << "needs at least two modes";
  rng gen(300 + k);
  std::vector<double> data;
  for (std::size_t c = 0; c < k; ++c) {
    for (int i = 0; i < 100; ++i) {
      data.push_back(gen.normal(20.0 * static_cast<double>(c), 1.0));
    }
  }
  auto model = gmm::gmm1d::fit(data, k);
  for (std::size_t c = 0; c + 1 < k; ++c) {
    const double center = 20.0 * static_cast<double>(c);
    const double gap = center + 10.0;
    EXPECT_LT(model.nll(center), model.nll(gap));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, GmmOrderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// ---------------------------------------------------------------------------
// Attack budget compliance across strengths and kinds.

// gtest names an unprintable parameter by its raw bytes, so attack_case must
// have no padding: uninitialised padding bytes gave a different test name on
// every run.
struct attack_case {
  attack::attack_kind kind;
  float epsilon;
  attack::attack_goal goal;
};
static_assert(sizeof(attack_case) == sizeof(attack::attack_kind) +
                                         sizeof(float) +
                                         sizeof(attack::attack_goal));

class AttackProperty : public ::testing::TestWithParam<attack_case> {
 protected:
  static void SetUpTestSuite() {
    data::synthetic_spec spec;
    spec.channels = 1;
    spec.height = 16;
    spec.width = 16;
    spec.classes = 3;
    spec.seed = 55;
    spec.confusable_pairs = false;
    spec.hard_fraction = 0.0;
    auto train = data::make_synthetic(spec, 50);
    model_ = nn::make_model(nn::architecture::case_study_cnn,
                            shape{1, 16, 16}, 3, 9)
                 .release();
    nn::train_config cfg;
    cfg.epochs = 3;
    nn::train_classifier(*model_, train.images, train.labels, cfg);
    spec.sample_seed = 1;
    eval_ = new data::dataset(data::make_synthetic(spec, 6));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete eval_;
    model_ = nullptr;
    eval_ = nullptr;
  }
  static nn::model* model_;
  static data::dataset* eval_;
};

nn::model* AttackProperty::model_ = nullptr;
data::dataset* AttackProperty::eval_ = nullptr;

TEST_P(AttackProperty, OutputsAreValidBudgetedImages) {
  const auto p = GetParam();
  attack::attack_config cfg;
  cfg.goal = p.goal;
  cfg.target_class = 1;
  cfg.epsilon = p.epsilon;
  cfg.steps = 8;
  cfg.max_iter = 25;
  auto atk = attack::make_attack(p.kind, cfg);
  for (std::size_t i = 0; i < eval_->size(); ++i) {
    if (p.goal == attack::attack_goal::targeted &&
        eval_->labels[i] == cfg.target_class) {
      continue;
    }
    auto r = atk->run(*model_, nn::single_example(eval_->images, i),
                      eval_->labels[i]);
    for (float v : r.adversarial.data()) {
      ASSERT_GE(v, 0.0f);
      ASSERT_LE(v, 1.0f);
    }
    if (p.kind != attack::attack_kind::deepfool) {
      ASSERT_LE(r.linf_distortion, p.epsilon + 1e-5);
    }
    // Distortion bookkeeping is consistent.
    ASSERT_LE(r.linf_distortion,
              r.l2_distortion + 1e-9);  // |x|_inf <= |x|_2
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, AttackProperty,
    ::testing::Values(attack_case{attack::attack_kind::fgsm, 0.01f,
                                  attack::attack_goal::untargeted},
                      attack_case{attack::attack_kind::fgsm, 0.1f,
                                  attack::attack_goal::untargeted},
                      attack_case{attack::attack_kind::fgsm, 0.3f,
                                  attack::attack_goal::targeted},
                      attack_case{attack::attack_kind::pgd, 0.01f,
                                  attack::attack_goal::untargeted},
                      attack_case{attack::attack_kind::pgd, 0.1f,
                                  attack::attack_goal::targeted},
                      attack_case{attack::attack_kind::deepfool, 0.0f,
                                  attack::attack_goal::untargeted}));

// ---------------------------------------------------------------------------
// Trace replay consistency across layer geometries.

struct layer_geometry {
  std::size_t in_channels;
  std::size_t in_spatial;
  std::size_t out_channels;
  std::size_t out_spatial;
  std::size_t weight_bytes;
  double density;
};

class TraceProperty : public ::testing::TestWithParam<layer_geometry> {};

nn::inference_trace geometry_trace(const layer_geometry& g,
                                   std::uint64_t seed) {
  rng gen(seed);
  nn::layer_trace_entry e;
  e.kind = nn::layer_kind::conv2d;
  e.name = "p";
  e.in_numel = g.in_channels * g.in_spatial;
  e.out_numel = g.out_channels * g.out_spatial;
  e.weight_bytes = g.weight_bytes;
  e.in_channels = g.in_channels;
  e.in_spatial = g.in_spatial;
  e.out_channels = g.out_channels;
  e.out_spatial = g.out_spatial;
  for (std::uint32_t i = 0; i < e.in_numel; ++i) {
    if (gen.bernoulli(g.density)) e.active_inputs.push_back(i);
  }
  nn::inference_trace t;
  t.layers.push_back(std::move(e));
  return t;
}

TEST_P(TraceProperty, CountsInternallyConsistent) {
  uarch::trace_generator gen_sim;
  const auto c = gen_sim.run(geometry_trace(GetParam(), 5));
  EXPECT_GE(c.cache_references, c.cache_misses);
  EXPECT_EQ(c.cache_misses, c.llc_load_misses + c.llc_store_misses);
  EXPECT_GE(c.branches, c.branch_misses);
  EXPECT_GT(c.instructions, 0u);
  EXPECT_GT(c.l1i_load_misses, 0u);
}

TEST_P(TraceProperty, DeterministicReplay) {
  uarch::trace_generator gen_sim;
  const auto trace = geometry_trace(GetParam(), 6);
  const auto a = gen_sim.run(trace);
  const auto b = gen_sim.run(trace);
  EXPECT_EQ(a.cache_references, b.cache_references);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.l1d_load_misses, b.l1d_load_misses);
  EXPECT_EQ(a.branch_misses, b.branch_misses);
}

TEST_P(TraceProperty, DenserActivationNeverFewerReferences) {
  const auto g = GetParam();
  uarch::trace_generator gen_sim;
  auto sparse = g;
  sparse.density = 0.2;
  auto dense = g;
  dense.density = 0.9;
  const auto a = gen_sim.run(geometry_trace(sparse, 7));
  const auto b = gen_sim.run(geometry_trace(dense, 7));
  EXPECT_LE(a.cache_references, b.cache_references);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TraceProperty,
    ::testing::Values(layer_geometry{3, 1024, 8, 1024, 864, 0.5},
                      layer_geometry{8, 1024, 16, 256, 4608, 0.5},
                      layer_geometry{32, 64, 64, 16, 73728, 0.4},
                      layer_geometry{64, 16, 64, 16, 147456, 0.6},
                      layer_geometry{64, 1, 10, 1, 2560, 0.5}));

// ---------------------------------------------------------------------------
// Dataset generation properties across specs.

class DatasetProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DatasetProperty, BalancedLabelsAndValidPixels) {
  const auto [classes, per_class] = GetParam();
  data::synthetic_spec spec;
  spec.channels = 3;
  spec.height = 16;
  spec.width = 16;
  spec.classes = classes;
  spec.seed = 17 + classes;
  auto d = data::make_synthetic(spec, per_class);
  EXPECT_EQ(d.size(), classes * per_class);
  for (std::size_t c = 0; c < classes; ++c) {
    EXPECT_EQ(d.indices_of_class(c).size(), per_class);
  }
  for (float v : d.images.data()) {
    ASSERT_GE(v, 0.0f);
    ASSERT_LE(v, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, DatasetProperty,
                         ::testing::Combine(::testing::Values(2u, 4u, 10u),
                                            ::testing::Values(3u, 12u)));

}  // namespace
}  // namespace advh
