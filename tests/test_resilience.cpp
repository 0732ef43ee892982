// Resilient-measurement stack tests: retry policy, deterministic fault
// injection, robust aggregation, graceful degradation, and the detector's
// degraded-input handling. The fault storms here run at fixed seeds, so
// every assertion is on deterministic behaviour — including the bitwise
// thread-invariance checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "core/detector.hpp"
#include "hpc/drift_backend.hpp"
#include "hpc/fault_backend.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"

namespace advh::hpc {
namespace {

using core::detector;
using core::detector_config;
using core::benign_template;

// ---------------------------------------------------------------- retry --

TEST(RetryPolicy, DelayIsCappedExponential) {
  retry_policy p;
  p.base_delay = std::chrono::milliseconds(2);
  p.max_delay = std::chrono::milliseconds(10);
  p.multiplier = 2.0;
  EXPECT_EQ(p.delay(0), std::chrono::milliseconds(2));
  EXPECT_EQ(p.delay(1), std::chrono::milliseconds(4));
  EXPECT_EQ(p.delay(2), std::chrono::milliseconds(8));
  EXPECT_EQ(p.delay(3), std::chrono::milliseconds(10));  // capped
  EXPECT_EQ(p.delay(20), std::chrono::milliseconds(10));
}

TEST(RetryPolicy, DegenerateParametersStayNonNegative) {
  retry_policy p;
  p.base_delay = std::chrono::milliseconds(0);
  EXPECT_EQ(p.delay(5), std::chrono::milliseconds(0));
  p.base_delay = std::chrono::milliseconds(3);
  p.multiplier = 0.0;  // treated as "no growth"
  EXPECT_EQ(p.delay(4), std::chrono::milliseconds(3));
}

TEST(RetryPolicy, RunWithRetryReportsAttemptsUsed) {
  retry_policy p;
  p.max_attempts = 3;
  p.base_delay = std::chrono::milliseconds(0);
  std::size_t calls = 0;
  const auto succeed_third = [&](std::size_t) { return ++calls == 3; };
  EXPECT_EQ(run_with_retry(p, succeed_third), 3u);
  calls = 0;
  const auto never = [&](std::size_t) {
    ++calls;
    return false;
  };
  EXPECT_EQ(run_with_retry(p, never), 0u);  // 0 = budget exhausted
  EXPECT_EQ(calls, 3u);
}

// ------------------------------------------------------------- fixtures --

std::unique_ptr<nn::model> make_test_model() {
  return nn::make_model(nn::architecture::case_study_cnn, shape{1, 16, 16}, 4,
                        1);
}

tensor test_input(double scale = 1.0) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x.data()[i] =
        static_cast<float>(scale * (0.1 + 0.01 * static_cast<double>(i % 7)));
  }
  return x;
}

std::vector<tensor> test_batch(std::size_t n) {
  std::vector<tensor> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(test_input(0.5 + 0.1 * static_cast<double>(i)));
  }
  return out;
}

/// sim -> fault -> resilient stack over a shared model; `fault_out`
/// receives a borrowed pointer to the fault layer when non-null.
monitor_ptr make_stack(nn::model& m, const fault_config& fc,
                       const resilience_config& rc = resilience_config{},
                       fault_backend** fault_out = nullptr) {
  auto sim = std::make_unique<sim_backend>(m);
  auto faulty = std::make_unique<fault_backend>(std::move(sim), fc);
  if (fault_out != nullptr) *fault_out = faulty.get();
  return std::make_unique<resilient_monitor>(std::move(faulty), rc);
}

fault_config transient_faults(double rate, std::uint64_t seed = 13) {
  fault_config fc;
  fc.read_failure_rate = rate;
  fc.spike_rate = rate / 2.0;
  fc.stuck_rate = rate / 4.0;
  fc.seed = seed;
  return fc;
}

// -------------------------------------------------------- fault backend --

TEST(FaultBackend, RequiresRawReaderInner) {
  // A resilient_monitor is not a raw_reader, so it cannot sit under the
  // fault layer; the constructor's parameter type rejects it.
  static_assert(std::is_constructible_v<fault_backend,
                                        std::unique_ptr<sim_backend>,
                                        fault_config>);
  static_assert(!std::is_constructible_v<fault_backend,
                                         std::unique_ptr<resilient_monitor>,
                                         fault_config>);
}

TEST(FaultBackend, FaultPatternIsPureFunctionOfSeedAndStream) {
  auto model = make_test_model();
  const fault_config fc = transient_faults(0.2);
  fault_backend a(std::make_unique<sim_backend>(*model), fc);
  fault_backend b(std::make_unique<sim_backend>(*model), fc);

  const tensor x = test_input();
  const auto ba = a.open(x)->read(core_events(), 10, 7);
  const auto bb = b.open(x)->read(core_events(), 10, 7);
  EXPECT_EQ(ba.values, bb.values);
  EXPECT_EQ(ba.status, bb.status);
  // ...and some faults actually happened at this rate/seed.
  const std::size_t failures = static_cast<std::size_t>(
      std::count(ba.status.begin(), ba.status.end(),
                 reading_block::read_status::transient_failure));
  EXPECT_GT(failures, 0u);

  // A different stream index produces a different fault pattern.
  const auto bc = a.open(x)->read(core_events(), 10, 8);
  EXPECT_NE(ba.status, bc.status);
}

TEST(FaultBackend, PermanentLossIsMonotoneInStream) {
  auto model = make_test_model();
  fault_config fc;
  fc.permanent_loss_rate = 0.01;
  fc.seed = 21;
  fault_backend mon(std::make_unique<sim_backend>(*model), fc);

  const tensor x = test_input();
  const auto events = core_events();
  for (std::size_t idx = 0; idx < events.size(); ++idx) {
    const std::uint64_t onset = mon.loss_onset(events[idx]);
    if (onset == 0 || onset > 1u << 14) continue;
    const auto sample = mon.open(x);
    const auto before = sample->read(events, 2, onset - 1);
    const auto after = sample->read(events, 2, onset);
    EXPECT_NE(before.status_at(0, idx), reading_block::read_status::event_lost);
    EXPECT_EQ(after.status_at(0, idx), reading_block::read_status::event_lost);
  }
  // rate 1 kills every event from stream 0.
  fc.permanent_loss_rate = 1.0;
  fault_backend dead(std::make_unique<sim_backend>(*model), fc);
  for (hpc_event e : all_events()) EXPECT_EQ(dead.loss_onset(e), 0u);
  // rate 0 never kills anything.
  fc.permanent_loss_rate = 0.0;
  fault_backend alive(std::make_unique<sim_backend>(*model), fc);
  for (hpc_event e : all_events()) EXPECT_GT(alive.loss_onset(e), 1u << 30);
}

// --------------------------------------------------- resilient recovery --

TEST(ResilientMonitor, RecoversTransientFailuresWithinRetryBudget) {
  auto model = make_test_model();
  auto mon = make_stack(*model, transient_faults(0.1));

  const auto batch = test_batch(32);
  const auto ms = mon->measure_batch(batch, core_events(), 10, 1);
  std::size_t fully_recovered = 0;
  for (const auto& m : ms) {
    for (std::size_t e = 0; e < core_events().size(); ++e) {
      EXPECT_TRUE(m.q.event_available(e));
      EXPECT_TRUE(std::isfinite(m.mean_counts[e]));
      EXPECT_GT(m.mean_counts[e], 0.0);
    }
    EXPECT_EQ(m.q.repetitions, 10u);
    if (m.q.failed_repetitions == 0) ++fully_recovered;
  }
  // At a 10% transient rate the 4-attempt budget refills essentially every
  // repetition (deterministic at this seed; the bench sweeps this).
  EXPECT_GE(static_cast<double>(fully_recovered) / ms.size(), 0.99);
}

TEST(ResilientMonitor, RobustAggregationRejectsSpikes) {
  auto model = make_test_model();
  const tensor x = test_input();

  // Fault-free reference measurement.
  resilient_monitor clean(std::make_unique<sim_backend>(*model),
                          resilience_config::naive());
  const auto ref = clean.measure(x, core_events(), 10);

  fault_config fc;
  fc.spike_rate = 0.15;
  fc.spike_magnitude = 8.0;
  fc.seed = 13;

  // Naive path: naive aggregation over the fault layer trusts spikes.
  resilient_monitor naive(
      std::make_unique<fault_backend>(std::make_unique<sim_backend>(*model),
                                      fc),
      resilience_config::naive());
  const auto raw = naive.measure(x, core_events(), 10);

  auto robust = make_stack(*model, fc);
  const auto rm = robust->measure(x, core_events(), 10);

  double worst_naive = 0.0, worst_robust = 0.0;
  std::uint32_t rejected = rm.q.outliers_rejected;
  for (std::size_t e = 0; e < core_events().size(); ++e) {
    const double denom = std::max(1.0, std::abs(ref.mean_counts[e]));
    worst_naive = std::max(
        worst_naive, std::abs(raw.mean_counts[e] - ref.mean_counts[e]) / denom);
    worst_robust = std::max(
        worst_robust, std::abs(rm.mean_counts[e] - ref.mean_counts[e]) / denom);
  }
  EXPECT_GT(worst_naive, 0.2);     // spikes drag the naive mean hard
  EXPECT_LT(worst_robust, 0.02);   // MAD trimming holds the robust mean
  EXPECT_GT(rejected, 0u);         // and the trim is surfaced in quality
}

TEST(ResilientMonitor, SerialAndBatchAgreeBitwise) {
  auto model = make_test_model();
  const fault_config fc = transient_faults(0.15);
  auto serial = make_stack(*model, fc);
  auto batched = make_stack(*model, fc);

  const auto batch = test_batch(12);
  std::vector<measurement> one_by_one;
  for (const auto& x : batch) {
    one_by_one.push_back(serial->measure(x, core_events(), 10));
  }
  const auto ms = batched->measure_batch(batch, core_events(), 10, 1);
  ASSERT_EQ(ms.size(), one_by_one.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(ms[i].mean_counts, one_by_one[i].mean_counts);
    EXPECT_EQ(ms[i].stddev_counts, one_by_one[i].stddev_counts);
    EXPECT_EQ(ms[i].predicted, one_by_one[i].predicted);
    EXPECT_EQ(ms[i].q.available, one_by_one[i].q.available);
    EXPECT_EQ(ms[i].q.retries, one_by_one[i].q.retries);
    EXPECT_EQ(ms[i].q.failed_repetitions, one_by_one[i].q.failed_repetitions);
  }
}

TEST(ResilientMonitor, FaultStormBitwiseIdenticalAcrossThreadCounts) {
  auto model = make_test_model();
  fault_config fc = transient_faults(0.2);
  fc.permanent_loss_rate = 0.001;
  auto t1 = make_stack(*model, fc);
  auto t4 = make_stack(*model, fc);

  const auto batch = test_batch(24);
  const auto m1 = t1->measure_batch(batch, core_events(), 10, 1);
  const auto m4 = t4->measure_batch(batch, core_events(), 10, 4);
  ASSERT_EQ(m1.size(), m4.size());
  for (std::size_t i = 0; i < m1.size(); ++i) {
    EXPECT_EQ(m1[i].mean_counts, m4[i].mean_counts);
    EXPECT_EQ(m1[i].stddev_counts, m4[i].stddev_counts);
    EXPECT_EQ(m1[i].predicted, m4[i].predicted);
    EXPECT_EQ(m1[i].q.available, m4[i].q.available);
    EXPECT_EQ(m1[i].q.retries, m4[i].q.retries);
    EXPECT_EQ(m1[i].q.outliers_rejected, m4[i].q.outliers_rejected);
    EXPECT_EQ(m1[i].q.failed_repetitions, m4[i].q.failed_repetitions);
  }
}

TEST(ResilientMonitor, RetryBudgetValidatedAgainstStride) {
  auto model = make_test_model();
  resilience_config rc;
  rc.retry.max_attempts = resilient_monitor::attempt_stride + 1;
  EXPECT_THROW(
      resilient_monitor(std::make_unique<sim_backend>(*model), rc),
      invariant_error);
}

/// Reader wrapper that counts the samples opened and the rounds read.
class counting_reader final : public raw_reader {
 public:
  explicit counting_reader(std::unique_ptr<raw_reader> inner)
      : inner_(std::move(inner)) {}

  std::string backend_name() const override { return inner_->backend_name(); }

  std::unique_ptr<raw_sample> open(const tensor& x) override {
    ++opens;
    return std::make_unique<transformed_sample>(
        inner_->open(x),
        [this](reading_block&, std::span<const hpc_event>, std::uint64_t) {
          ++reads;
        });
  }

  std::atomic<std::size_t> opens{0};
  std::atomic<std::size_t> reads{0};

 private:
  std::unique_ptr<raw_reader> inner_;
};

TEST(ResilientMonitor, OneOpenPerSample) {
  auto model = make_test_model();
  auto counting = std::make_unique<counting_reader>(
      std::make_unique<fault_backend>(std::make_unique<sim_backend>(*model),
                                      transient_faults(0.1)));
  const counting_reader& counts = *counting;
  resilient_monitor mon(std::move(counting));

  // Retry rounds re-read the sample the measurement opened: one open per
  // measured input, however many rounds it took.
  const auto batch = test_batch(6);
  for (std::size_t i = 0; i < 3; ++i) {
    (void)mon.measure(batch[i], core_events(), 10);
  }
  (void)mon.measure_batch(std::span<const tensor>(batch).subspan(3, 3),
                          core_events(), 10, 3);
  EXPECT_EQ(counts.opens.load(), 6u);
  EXPECT_GT(counts.reads.load(), 6u);

  // A sample's rounds equal, bit for bit, rounds read from a fresh sample
  // each: the simulator's reads depend on the input and the stream alone.
  sim_backend sim(*model);
  const tensor x = test_input();
  const auto sample = sim.open(x);
  constexpr std::uint64_t k = 5;
  for (std::uint64_t stream = 8 * k; stream < 8 * k + 3; ++stream) {
    const auto shared = sample->read(core_events(), 10, stream);
    const auto fresh = sim.open(x)->read(core_events(), 10, stream);
    EXPECT_EQ(shared.predicted, fresh.predicted);
    EXPECT_EQ(shared.status, fresh.status);
    ASSERT_EQ(shared.values.size(), fresh.values.size());
    for (std::size_t i = 0; i < shared.values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.values[i]),
                std::bit_cast<std::uint64_t>(fresh.values[i]));
    }
  }
}

// ------------------------------------------------------ golden streams --

/// FNV-1a over one stack's measurements: 3 serial measures, then a
/// 3-thread batch. Integers and double bit patterns are fed byte by byte,
/// least significant first, so the digest is host-independent.
std::string measurement_digest(hpc_monitor& mon,
                               std::span<const tensor> inputs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto feed = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  const auto events = core_events();
  std::vector<measurement> ms;
  for (std::size_t i = 0; i < 3; ++i) {
    ms.push_back(mon.measure(inputs[i], events, 5));
  }
  for (auto& m : mon.measure_batch(inputs.subspan(3, 3), events, 5, 3)) {
    ms.push_back(std::move(m));
  }
  for (const auto& m : ms) {
    feed(m.predicted);
    for (std::size_t e = 0; e < events.size(); ++e) {
      feed(std::bit_cast<std::uint64_t>(m.mean_counts[e]));
      feed(std::bit_cast<std::uint64_t>(m.stddev_counts[e]));
      feed(m.q.event_available(e) ? 1 : 0);
    }
    feed(m.q.retries);
    feed(m.q.outliers_rejected);
    feed(m.q.failed_repetitions);
  }
  char hex[19];
  std::snprintf(hex, sizeof hex, "0x%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

TEST(Measurement, GoldenAcrossStacks) {
  // Pins the stream numbering of every monitor stack bit for bit: sample k
  // reads stream k without retries, and stream k * attempt_stride + a on
  // attempt a with them.
  auto model = make_test_model();
  const auto inputs = test_batch(6);
  const fault_config fc = transient_faults(0.1);
  fault_config lossy = fc;
  lossy.permanent_loss_rate = 0.02;
  drift_profile step;
  step.magnitude = 1.5;
  step.onset_stream = 3;

  monitor_ptr plain = std::make_unique<resilient_monitor>(
      std::make_unique<sim_backend>(*model), resilience_config::naive());
  monitor_ptr naive_faulty = std::make_unique<resilient_monitor>(
      std::make_unique<fault_backend>(std::make_unique<sim_backend>(*model),
                                      fc),
      resilience_config::naive());
  monitor_ptr resilient = make_stack(*model, lossy);
  monitor_ptr drifted = std::make_unique<resilient_monitor>(
      std::make_unique<fault_backend>(
          std::make_unique<drift_backend>(
              std::make_unique<sim_backend>(*model), step),
          fc));

  EXPECT_EQ(measurement_digest(*plain, inputs), "0x47d4764e35b5dc43");
  EXPECT_EQ(measurement_digest(*naive_faulty, inputs), "0xc1f6d5ef60e52d42");
  EXPECT_EQ(measurement_digest(*resilient, inputs), "0x28fbf6157396a77c");
  EXPECT_EQ(measurement_digest(*drifted, inputs), "0x0a2b96d4c7573ed8");
}

// ------------------------------------------------- graceful degradation --

/// Reader wrapper that permanently kills a fixed set of event
/// indices — a controlled stand-in for a PMU losing counters mid-session.
class event_killer final : public raw_reader {
 public:
  event_killer(std::unique_ptr<raw_reader> inner,
               std::vector<std::size_t> dead_indices)
      : inner_(std::move(inner)), dead_(std::move(dead_indices)) {}

  std::string backend_name() const override {
    return "killer(" + inner_->backend_name() + ")";
  }

  std::unique_ptr<raw_sample> open(const tensor& x) override {
    return std::make_unique<transformed_sample>(
        inner_->open(x), [this](reading_block& block,
                                std::span<const hpc_event>, std::uint64_t) {
          for (std::size_t r = 0; r < block.repetitions; ++r) {
            for (std::size_t dead : dead_) {
              if (dead < block.num_events) {
                block.status[r * block.num_events + dead] =
                    reading_block::read_status::event_lost;
              }
            }
          }
        });
  }

 private:
  std::unique_ptr<raw_reader> inner_;
  std::vector<std::size_t> dead_;
};

/// Detector whose per-class models are fitted from fault-free sim
/// measurements of the test inputs, so degraded classifications land in
/// modelled classes.
detector fit_sim_detector(nn::model& m, const detector_config& cfg) {
  resilient_monitor clean(std::make_unique<sim_backend>(m),
                          resilience_config::naive());
  benign_template tpl(4, cfg.events.size());
  rng gen(5);
  for (int i = 0; i < 40; ++i) {
    tensor x = test_input(0.5 + 0.02 * gen.uniform());
    const auto meas = clean.measure(x, cfg.events, cfg.repeats);
    tpl.add_row(meas.predicted, meas.mean_counts);
  }
  return detector::fit(tpl, cfg);
}

detector_config sim_detector_config() {
  detector_config cfg;
  cfg.events = core_events();
  cfg.repeats = 10;
  cfg.k_max = 2;
  return cfg;
}

TEST(DegradedDetection, LostEventMasksRoundTripThroughClassifyBatch) {
  auto model = make_test_model();
  const auto cfg = sim_detector_config();
  const auto det = fit_sim_detector(*model, cfg);

  auto killer = std::make_unique<event_killer>(
      std::make_unique<sim_backend>(*model), std::vector<std::size_t>{2});
  resilient_monitor mon(std::move(killer));

  const auto batch = test_batch(8);
  const auto verdicts = det.classify_batch(mon, batch, 2);
  ASSERT_EQ(verdicts.size(), batch.size());
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.degraded);       // event 2 was unavailable
    EXPECT_FALSE(v.abstained);     // 4 of 5 events still scored
    EXPECT_TRUE(v.modeled);
    // The lost event can contribute no evidence.
    EXPECT_EQ(v.nll[2], 0.0);
    EXPECT_FALSE(v.flagged[2]);
  }
  // The monitor's session-level report names exactly the dead event.
  const auto lost = mon.lost_events();
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], cfg.events[2]);
  EXPECT_EQ(mon.surviving(cfg.events).size(), cfg.events.size() - 1);
}

TEST(DegradedDetection, AbstainFiresAtConfiguredSurvivorThreshold) {
  auto model = make_test_model();
  auto cfg = sim_detector_config();
  cfg.min_events_for_verdict = 5;  // need every event
  cfg.flag_on_abstain = true;
  const auto det = fit_sim_detector(*model, cfg);

  auto killer = std::make_unique<event_killer>(
      std::make_unique<sim_backend>(*model), std::vector<std::size_t>{0, 4});
  resilient_monitor mon(std::move(killer));

  const auto v = det.classify(mon, test_input());
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.abstained);
  EXPECT_TRUE(v.adversarial_any);  // fail-closed abstain policy

  // Same mask, fail-open policy: abstains but passes the input.
  auto open_cfg = cfg;
  open_cfg.flag_on_abstain = false;
  const auto open_det = fit_sim_detector(*model, open_cfg);
  auto killer2 = std::make_unique<event_killer>(
      std::make_unique<sim_backend>(*model), std::vector<std::size_t>{0, 4});
  resilient_monitor mon2(std::move(killer2));
  const auto v2 = open_det.classify(mon2, test_input());
  EXPECT_TRUE(v2.abstained);
  EXPECT_FALSE(v2.adversarial_any);
}

TEST(DegradedDetection, AllEventsLostNeverCrashes) {
  auto model = make_test_model();
  const auto cfg = sim_detector_config();
  const auto det = fit_sim_detector(*model, cfg);

  fault_config fc;
  fc.permanent_loss_rate = 1.0;  // every event dead from stream 0
  auto mon = make_stack(*model, fc);

  const auto verdicts = det.classify_batch(*mon, test_batch(6), 2);
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.degraded);
    EXPECT_TRUE(v.abstained);
    EXPECT_TRUE(v.adversarial_any);  // default policy fails closed
  }
}

TEST(DegradedDetection, ScoreMaskRenormalisesFusion) {
  auto model = make_test_model();
  const auto cfg = sim_detector_config();
  const auto det = fit_sim_detector(*model, cfg);

  resilient_monitor clean(std::make_unique<sim_backend>(*model),
                          resilience_config::naive());
  const auto m = clean.measure(test_input(), cfg.events, cfg.repeats);

  // Unmasked score: all events contribute.
  const auto full = det.score(m.predicted, m.mean_counts);
  EXPECT_FALSE(full.degraded);

  // Mask off one event: the verdict fuses over the survivors only.
  std::vector<std::uint8_t> mask(cfg.events.size(), 1);
  mask[1] = 0;
  const auto partial = det.score(m.predicted, m.mean_counts, mask);
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.nll[1], 0.0);
  for (std::size_t e = 0; e < cfg.events.size(); ++e) {
    if (e == 1 || !full.modeled) continue;
    EXPECT_EQ(partial.nll[e], full.nll[e]);
  }
  // Mask width is validated.
  EXPECT_THROW(det.score(m.predicted, m.mean_counts,
                         std::vector<std::uint8_t>{1, 0}),
               invariant_error);
}

}  // namespace
}  // namespace advh::hpc
