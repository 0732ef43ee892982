// Deterministic parallel measurement engine: fork/join chunking, exception
// propagation, and the bitwise thread-count-invariance contract that the
// rest of the library (template collection, batch classification, GMM
// fitting) is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "nn/trainer.hpp"

namespace advh {
namespace {

TEST(Parallel, ResolveThreadsTakesExplicitRequestLiterally) {
  EXPECT_EQ(parallel::resolve_threads(1), 1u);
  EXPECT_EQ(parallel::resolve_threads(7), 7u);
  EXPECT_GE(parallel::resolve_threads(0), 1u);
  EXPECT_GE(parallel::hardware_threads(), 1u);
}

TEST(Parallel, EnvOverrideControlsDefaultThreads) {
  // The chaos CI job runs the suite with ADVH_THREADS already exported;
  // restore whatever was set so sibling tests see the job's environment.
  const char* prior_raw = std::getenv("ADVH_THREADS");
  const std::optional<std::string> prior =
      prior_raw ? std::optional<std::string>(prior_raw) : std::nullopt;
  ASSERT_EQ(::setenv("ADVH_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel::default_threads(), 3u);
  EXPECT_EQ(parallel::resolve_threads(0), 3u);
  // Explicit requests still win over the environment.
  EXPECT_EQ(parallel::resolve_threads(2), 2u);
  // ADVH_THREADS=0 means "all cores".
  ASSERT_EQ(::setenv("ADVH_THREADS", "0", 1), 0);
  EXPECT_EQ(parallel::default_threads(), parallel::hardware_threads());
  // Malformed values must fail loudly, not silently change thread count
  // (a silent fallback would mask a typo'd deployment knob).
  for (const char* bad : {"bogus", "3x", "-1", "", "9999999999999"}) {
    ASSERT_EQ(::setenv("ADVH_THREADS", bad, 1), 0);
    EXPECT_THROW(parallel::default_threads(), std::invalid_argument) << bad;
    EXPECT_THROW(parallel::resolve_threads(0), std::invalid_argument) << bad;
  }
  if (prior.has_value()) {
    ASSERT_EQ(::setenv("ADVH_THREADS", prior->c_str(), 1), 0);
  } else {
    ASSERT_EQ(::unsetenv("ADVH_THREADS"), 0);
  }
}

TEST(ThreadPool, ChunksCoverEveryIndexExactlyOnce) {
  const std::size_t n = 103;  // deliberately not divisible by 4
  std::vector<std::atomic<int>> hits(n);
  std::vector<std::atomic<std::size_t>> ran_on(n);
  parallel::parallel_for(n, 4, [&](std::size_t i, std::size_t worker) {
    hits[i].fetch_add(1);
    ran_on[i].store(worker);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  // Static chunks: worker w ran exactly [w*n/4, (w+1)*n/4).
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::size_t i = w * n / 4; i < (w + 1) * n / 4; ++i) {
      EXPECT_EQ(ran_on[i].load(), w) << i;
    }
  }
}

TEST(ThreadPool, ReusableAcrossDispatches) {
  // Back-to-back calls each start and join their own workers.
  for (int round = 0; round < 4; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel::parallel_for(10, 3, [&](std::size_t i, std::size_t) {
      sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 45u);
  }
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  bool called = false;
  parallel::parallel_for(0, 4, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, WorkerExceptionRethrownOnCaller) {
  // Index 7 lands in the last started worker's chunk, never the caller's.
  const auto boom = [](std::size_t i, std::size_t) {
    if (i == 7) throw std::runtime_error("worker boom");
  };
  EXPECT_THROW(parallel::parallel_for(8, 4, boom), std::runtime_error);
  // A throwing call leaves nothing behind: the next one runs every index.
  std::atomic<std::size_t> count{0};
  parallel::parallel_for(8, 4, [&](std::size_t, std::size_t) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 8u);
}

TEST(ThreadPool, CallerChunkExceptionAlsoPropagates) {
  // Index 0 is always in worker 0's chunk, which runs on the caller.
  const auto boom = [](std::size_t i, std::size_t) {
    if (i == 0) throw std::runtime_error("caller boom");
  };
  EXPECT_THROW(parallel::parallel_for(8, 4, boom), std::runtime_error);
}

TEST(ParallelFor, CoversRangeAtAnyWidth) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::size_t n = 17;
    std::vector<std::atomic<int>> hits(n);
    parallel::parallel_for(n, threads, [&](std::size_t i, std::size_t worker) {
      EXPECT_LT(worker, threads);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingleItemRanges) {
  bool called = false;
  parallel::parallel_for(0, 8, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);

  std::size_t seen_index = 99, seen_worker = 99, calls = 0;
  parallel::parallel_for(1, 8, [&](std::size_t i, std::size_t worker) {
    seen_index = i;
    seen_worker = worker;
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(seen_index, 0u);
  EXPECT_EQ(seen_worker, 0u);  // single items run serially on the caller
}

TEST(ParallelFor, ExceptionPropagates) {
  EXPECT_THROW(parallel::parallel_for(
                   20, 4,
                   [](std::size_t i, std::size_t) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ParallelFor, LowestWorkerExceptionWins) {
  // One index per worker. Worker 3 fails at once, worker 1 only after
  // 50 ms: the error that surfaces must still be worker 1's, whichever
  // finished first.
  try {
    parallel::parallel_for(4, 4, [](std::size_t i, std::size_t) {
      if (i == 3) throw std::runtime_error("worker 3");
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("worker 1");
      }
    });
    FAIL() << "parallel_for swallowed the workers' exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 1");
  }
}

TEST(RngStream, IndependentOfDerivationOrder) {
  auto draw3 = [](rng g) {
    return std::vector<std::uint64_t>{g(), g(), g()};
  };
  const auto forward = draw3(rng::stream(42, 5));
  // Deriving other streams first (in any order) must not perturb stream 5.
  rng::stream(42, 0)();
  rng::stream(42, 9)();
  EXPECT_EQ(draw3(rng::stream(42, 5)), forward);
  EXPECT_NE(draw3(rng::stream(42, 6)), forward);
  EXPECT_NE(draw3(rng::stream(43, 5)), forward);
}

TEST(RunningStats, MergeMatchesSingleAccumulator) {
  rng gen(31);
  std::vector<double> xs(1000);
  for (auto& x : xs) x = gen.normal(5.0, 2.5);

  stats::running_stats whole;
  for (double x : xs) whole.push(x);

  // Four uneven partials merged pairwise, as the parallel reductions do.
  stats::running_stats parts[4];
  const std::size_t cuts[5] = {0, 130, 411, 700, 1000};
  for (int p = 0; p < 4; ++p) {
    for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) parts[p].push(xs[i]);
  }
  stats::running_stats merged = parts[0];
  for (int p = 1; p < 4; ++p) merged.merge(parts[p]);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());

  // Merging an empty accumulator changes nothing.
  stats::running_stats empty;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), whole.count());
}

class ParallelMeasureTest : public ::testing::Test {
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

  static std::vector<tensor> make_inputs(std::size_t n, std::uint64_t seed) {
    rng gen(seed);
    std::vector<tensor> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs.push_back(tensor::rand_uniform(shape{1, 1, 16, 16}, gen, 0.0f, 1.0f));
    }
    return xs;
  }

  static void expect_same(const hpc::measurement& a,
                          const hpc::measurement& b) {
    EXPECT_EQ(a.predicted, b.predicted);
    EXPECT_EQ(a.mean_counts, b.mean_counts);      // bitwise, no tolerance
    EXPECT_EQ(a.stddev_counts, b.stddev_counts);
  }

  static nn::model* model_;
};

nn::model* ParallelMeasureTest::model_ = nullptr;

TEST_F(ParallelMeasureTest, BatchMatchesSerialMeasureBitwise) {
  const auto inputs = make_inputs(6, 12);
  const auto events = hpc::core_events();

  hpc::resilient_monitor serial(
      std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                         hpc::noise_model{}, /*seed=*/99),
      hpc::resilience_config::naive());
  std::vector<hpc::measurement> expected;
  for (const auto& x : inputs) expected.push_back(serial.measure(x, events, 5));

  hpc::resilient_monitor batch(
      std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                         hpc::noise_model{}, /*seed=*/99),
      hpc::resilience_config::naive());
  const auto got = batch.measure_batch(inputs, events, 5, /*threads=*/4);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_same(got[i], expected[i]);
}

TEST_F(ParallelMeasureTest, BatchIsThreadCountInvariant) {
  const auto inputs = make_inputs(7, 13);
  const auto events = hpc::core_events();

  std::vector<std::vector<hpc::measurement>> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    hpc::resilient_monitor mon(
        std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                           hpc::noise_model{}, /*seed=*/55),
        hpc::resilience_config::naive());
    runs.push_back(mon.measure_batch(inputs, events, 4, threads));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[r].size(); ++i) {
      expect_same(runs[r][i], runs[0][i]);
    }
  }
}

TEST_F(ParallelMeasureTest, BatchAndSerialConsumeTheSameStreamSequence) {
  // A batch of k inputs must advance the monitor's stream counter exactly
  // as k serial measures would, so mixing the two APIs stays reproducible.
  const auto inputs = make_inputs(4, 14);
  const auto events = hpc::core_events();

  hpc::resilient_monitor mixed(
      std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                         hpc::noise_model{}, /*seed=*/21),
      hpc::resilience_config::naive());
  std::vector<hpc::measurement> a;
  {
    std::span<const tensor> head(inputs.data(), 3);
    auto batch = mixed.measure_batch(head, events, 4, /*threads=*/3);
    a.assign(batch.begin(), batch.end());
    a.push_back(mixed.measure(inputs[3], events, 4));
  }

  hpc::resilient_monitor serial(
      std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                         hpc::noise_model{}, /*seed=*/21),
      hpc::resilience_config::naive());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expect_same(a[i], serial.measure(inputs[i], events, 4));
  }
}

TEST_F(ParallelMeasureTest, PipelineBitwiseIdenticalAcrossThreadCounts) {
  // Label random images with the (untrained) model's own predictions so
  // collect_template's prediction-agreement filter accepts every sample —
  // the template comparison below must not be vacuously empty.
  data::dataset train;
  train.name = "parallel";
  train.num_classes = 4;
  train.class_names = {"c0", "c1", "c2", "c3"};
  rng dgen(91);
  train.images = tensor::rand_uniform(shape{80, 1, 16, 16}, dgen, 0.0f, 1.0f);
  for (std::size_t i = 0; i < 80; ++i) {
    train.labels.push_back(
        model_->predict_one(nn::single_example(train.images, i)));
  }
  const auto eval_inputs = make_inputs(8, 15);

  core::detector_config dcfg;
  dcfg.events = {hpc::hpc_event::cache_misses,
                 hpc::hpc_event::llc_load_misses};
  dcfg.repeats = 4;

  std::optional<core::benign_template> base_tpl;
  std::optional<core::detector> base_det;
  std::vector<core::verdict> base_verdicts;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // Fresh monitor per run: identical stream state for both thread counts.
    hpc::resilient_monitor mon(
        std::make_unique<hpc::sim_backend>(*model_, uarch::trace_gen_config{},
                                           hpc::noise_model{}, /*seed=*/5),
        hpc::resilience_config::naive());
    auto tpl = core::collect_template(mon, dcfg, train, /*per_class=*/6,
                                      /*seed=*/7, threads);
    auto det = core::detector::fit(tpl, dcfg, threads);
    auto verdicts = det.classify_batch(mon, eval_inputs, threads);

    if (!base_tpl) {
      // The self-labelled dataset guarantees a non-vacuous comparison.
      std::size_t total_rows = 0;
      for (std::size_t cls = 0; cls < tpl.num_classes(); ++cls) {
        total_rows += tpl.rows(cls);
      }
      ASSERT_GT(total_rows, 0u);
      base_tpl = std::move(tpl);
      base_det.emplace(std::move(det));
      base_verdicts = std::move(verdicts);
      continue;
    }
    ASSERT_EQ(tpl.num_classes(), base_tpl->num_classes());
    for (std::size_t cls = 0; cls < tpl.num_classes(); ++cls) {
      for (std::size_t e = 0; e < tpl.num_events(); ++e) {
        EXPECT_EQ(tpl.column(cls, e), base_tpl->column(cls, e))
            << "class " << cls << " event " << e;
      }
    }
    for (std::size_t cls = 0; cls < det.num_classes(); ++cls) {
      for (std::size_t e = 0; e < dcfg.events.size(); ++e) {
        const auto& m1 = base_det->model_for(cls, e);
        const auto& mN = det.model_for(cls, e);
        ASSERT_EQ(m1.has_value(), mN.has_value());
        if (!m1) continue;
        EXPECT_EQ(m1->threshold, mN->threshold);
        EXPECT_EQ(m1->nll_mean, mN->nll_mean);
        EXPECT_EQ(m1->nll_stddev, mN->nll_stddev);
        EXPECT_EQ(m1->template_size, mN->template_size);
      }
    }
    ASSERT_EQ(verdicts.size(), base_verdicts.size());
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].predicted, base_verdicts[i].predicted);
      EXPECT_EQ(verdicts[i].nll, base_verdicts[i].nll);
      EXPECT_EQ(verdicts[i].flagged, base_verdicts[i].flagged);
      EXPECT_EQ(verdicts[i].adversarial_any, base_verdicts[i].adversarial_any);
      EXPECT_EQ(verdicts[i].modeled, base_verdicts[i].modeled);
    }
  }
}

}  // namespace
}  // namespace advh
