#include <gtest/gtest.h>

#include <stdexcept>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "hpc/factory.hpp"
#include "hpc/noise.hpp"
#include "hpc/perf_backend.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"

namespace advh::hpc {
namespace {

TEST(Events, NamesRoundTrip) {
  for (hpc_event e : all_events()) {
    EXPECT_EQ(event_from_string(to_string(e)), e);
  }
  EXPECT_THROW(event_from_string("bogus-event"), invariant_error);
}

TEST(Events, CoreAndAblationSetsMatchPaper) {
  EXPECT_EQ(core_events().size(), 5u);   // N = 5 in the main evaluation
  EXPECT_EQ(cache_ablation_events().size(), 4u);  // N = 4 in the ablation
  EXPECT_EQ(all_events().size(), 9u);
  EXPECT_EQ(to_string(core_events()[4]), "cache-misses");
  EXPECT_EQ(to_string(cache_ablation_events()[0]), "L1-dcache-load-misses");
}

TEST(Events, ExtractMapsAllFields) {
  uarch::uarch_counts c;
  c.instructions = 1;
  c.branches = 2;
  c.branch_misses = 3;
  c.cache_references = 4;
  c.cache_misses = 5;
  c.l1d_load_misses = 6;
  c.l1i_load_misses = 7;
  c.llc_load_misses = 8;
  c.llc_store_misses = 9;
  std::uint64_t expected = 1;
  for (hpc_event e : all_events()) {
    EXPECT_EQ(extract(c, e), expected++);
  }
}

TEST(Noise, ZeroModelIsDeterministic) {
  noise_model none = noise_model::none();
  rng gen(1);
  for (hpc_event e : all_events()) {
    EXPECT_DOUBLE_EQ(none.sample(e, 1234.0, gen), 1234.0);
  }
}

TEST(Noise, MeanApproximatesTruthPlusBackground) {
  noise_model nm;
  rng gen(2);
  const double truth = 100000.0;
  double acc = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    acc += nm.sample(hpc_event::cache_misses, truth, gen);
  }
  const double expected = truth + nm.spec(hpc_event::cache_misses).background_mean;
  EXPECT_NEAR(acc / n, expected, expected * 0.01);
}

TEST(Noise, NeverNegative) {
  noise_model nm;
  nm.spec(hpc_event::cache_misses) = {2.0, 0.0};  // wild multiplicative noise
  rng gen(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(nm.sample(hpc_event::cache_misses, 10.0, gen), 0.0);
  }
}

class SimBackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    model_ = nn::make_model(nn::architecture::case_study_cnn,
                            shape{1, 16, 16}, 4, /*seed=*/11)
                 .release();
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static nn::model* model_;
};

nn::model* SimBackendTest::model_ = nullptr;

TEST_F(SimBackendTest, MeasurementShapeMatchesRequest) {
  resilient_monitor mon(std::make_unique<sim_backend>(*model_),
                        resilience_config::naive());
  rng gen(4);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  const auto events = core_events();
  auto m = mon.measure(x, events, 10);
  EXPECT_EQ(m.mean_counts.size(), events.size());
  EXPECT_EQ(m.stddev_counts.size(), events.size());
  EXPECT_LT(m.predicted, 4u);
}

TEST_F(SimBackendTest, NoiseFreeMeasurementIsExact) {
  const sim_backend sim(*model_, {}, noise_model::none());
  resilient_monitor mon(
      std::make_unique<sim_backend>(*model_, uarch::trace_gen_config{},
                                    noise_model::none()),
      resilience_config::naive());
  rng gen(5);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  std::size_t pred = 0;
  const auto counts = sim.profile(x, pred);
  auto m = mon.measure(x, core_events(), 10);
  EXPECT_DOUBLE_EQ(m.mean_counts[4],
                   static_cast<double>(counts.cache_misses));
  EXPECT_DOUBLE_EQ(m.stddev_counts[4], 0.0);
}

TEST_F(SimBackendTest, SameInputSameTrueCounts) {
  resilient_monitor mon(
      std::make_unique<sim_backend>(*model_, uarch::trace_gen_config{},
                                    noise_model::none()),
      resilience_config::naive());
  rng gen(6);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  auto a = mon.measure(x, core_events(), 3);
  auto b = mon.measure(x, core_events(), 3);
  for (std::size_t e = 0; e < a.mean_counts.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.mean_counts[e], b.mean_counts[e]);
  }
}

TEST_F(SimBackendTest, RepeatsReduceNoiseInMean) {
  resilient_monitor mon1(
      std::make_unique<sim_backend>(*model_, uarch::trace_gen_config{},
                                    noise_model{}, /*seed=*/1),
      resilience_config::naive());
  resilient_monitor mon2(
      std::make_unique<sim_backend>(*model_, uarch::trace_gen_config{},
                                    noise_model{}, /*seed=*/1),
      resilience_config::naive());
  rng gen(7);
  tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  // Spread of the mean across re-measurements must shrink with R.
  auto spread = [&](hpc_monitor& mon, std::size_t repeats) {
    stats::running_stats rs;
    for (int i = 0; i < 30; ++i) {
      auto m = mon.measure(x, std::vector<hpc_event>{hpc_event::cache_misses},
                           repeats);
      rs.push(m.mean_counts[0]);
    }
    return rs.stddev();
  };
  EXPECT_LT(spread(mon1, 20), spread(mon2, 1));
}

TEST_F(SimBackendTest, DifferentInputsDifferentFootprints) {
  sim_backend mon(*model_, {}, noise_model::none());
  rng gen(8);
  tensor a = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  tensor b = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
  std::size_t pa = 0, pb = 0;
  const auto ca = mon.profile(a, pa);
  const auto cb = mon.profile(b, pb);
  // Shape-driven events agree; data-driven events differ.
  EXPECT_EQ(ca.instructions, cb.instructions);
  EXPECT_NE(ca.cache_references, cb.cache_references);
}

TEST_F(SimBackendTest, RepeatsMustBePositive) {
  resilient_monitor mon(std::make_unique<sim_backend>(*model_),
                        resilience_config::naive());
  tensor x(shape{1, 1, 16, 16});
  // Rejected at the hpc_monitor::measure boundary, before any backend code
  // runs: a zero-repetition request is a caller bug, not a measurement
  // failure, so it surfaces as invalid_argument.
  EXPECT_THROW(mon.measure(x, core_events(), 0), std::invalid_argument);
  EXPECT_THROW(mon.measure_batch(std::vector<tensor>{x}, core_events(), 0),
               std::invalid_argument);
}

TEST_F(SimBackendTest, SingleRepetitionHasZeroStddev) {
  resilient_monitor mon(std::make_unique<sim_backend>(*model_),
                        resilience_config::naive());
  tensor x(shape{1, 1, 16, 16});
  const auto m = mon.measure(x, core_events(), 1);
  ASSERT_EQ(m.stddev_counts.size(), core_events().size());
  for (double s : m.stddev_counts) EXPECT_EQ(s, 0.0);  // 0, never NaN
}

TEST(PerfBackend, UnavailableThrowsCleanly) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  if (perf_events_available()) {
    // Real counters present (rare in CI): measuring must work end to end,
    // and a threaded batch must serialise its reads on the one PMU.
    resilient_monitor mon(std::make_unique<perf_backend>(*model),
                          resilience_config::naive());
    rng gen(9);
    tensor x = tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f);
    auto m = mon.measure(x, std::vector<hpc_event>{hpc_event::instructions}, 3);
    EXPECT_GT(m.mean_counts[0], 0.0);
    const std::vector<tensor> batch(8, x);
    for (const auto& bm : mon.measure_batch(
             batch, std::vector<hpc_event>{hpc_event::instructions}, 3, 4)) {
      EXPECT_GT(bm.mean_counts[0], 0.0);
    }
  } else {
    EXPECT_THROW(perf_backend{*model}, backend_unavailable);
  }
}

TEST(Factory, AutoDetectAlwaysProducesMonitor) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  auto mon = make_monitor(*model);
  ASSERT_NE(mon, nullptr);
  if (!perf_events_available()) {
    // Substring match: under ADVH_FAULT_RATE the factory wraps the base
    // reader in fault injection and turns on retries.
    EXPECT_NE(mon->backend_name().find("simulator"), std::string::npos);
  }
}

TEST(Factory, ExplicitSimulator) {
  auto model = nn::make_model(nn::architecture::case_study_cnn,
                              shape{1, 16, 16}, 4, 1);
  auto mon = make_monitor(*model, backend_kind::simulator);
  EXPECT_NE(mon->backend_name().find("simulator"), std::string::npos);
}

}  // namespace
}  // namespace advh::hpc
