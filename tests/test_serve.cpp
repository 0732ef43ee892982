// Serving-layer tests: injectable clocks, the bounded priority queue,
// decaying latency estimation, circuit-breaker transitions, admission
// control, the degradation ladder (engage + hysteresis release), graceful
// drain, deadline-budgeted measurement, cancellation-aware retry, strict
// env knobs, and the bitwise thread-invariance of a whole simulated
// overload run. Everything virtual-clock-driven here is deterministic.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/retry.hpp"
#include "hpc/fault_backend.hpp"
#include "hpc/resilient_monitor.hpp"
#include "hpc/sim_backend.hpp"
#include "nn/models/models.hpp"
#include "serve/service.hpp"
#include "track/tracker.hpp"

namespace advh::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

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

core::detector_config test_detector_config() {
  core::detector_config cfg;
  const auto events = hpc::core_events();
  cfg.events = {events[0], events[1]};
  cfg.repeats = 10;
  return cfg;
}

/// Detector fitted from the same simulated monitor the service will
/// measure through, so benign traffic scores benign.
core::detector fit_test_detector(hpc::hpc_monitor& monitor,
                                 const core::detector_config& cfg) {
  core::benign_template tpl(4, cfg.events.size());
  for (std::size_t i = 0; i < 32; ++i) {
    const tensor x = test_input(0.4 + 0.05 * static_cast<double>(i % 12));
    const auto m = monitor.measure(x, cfg.events, cfg.repeats);
    tpl.add_row(m.predicted, m.mean_counts);
  }
  return core::detector::fit(tpl, cfg, 1);
}

/// Everything one serve test needs, wired over a simulated backend.
struct serve_rig {
  std::unique_ptr<nn::model> model;
  std::unique_ptr<hpc::hpc_monitor> monitor;
  core::detector det;
  virtual_clock clock;
  std::unique_ptr<detection_service> service;

  explicit serve_rig(serve_config cfg = serve_config{},
                     core::detector_config dcfg = test_detector_config())
      : model(make_test_model()),
        monitor(std::make_unique<hpc::resilient_monitor>(
            std::make_unique<hpc::sim_backend>(*model),
            hpc::resilience_config::naive())),
        det(fit_test_detector(*monitor, dcfg)) {
    service = std::make_unique<detection_service>(det, *monitor, clock, cfg);
  }
};

/// Reader wrapper whose backend can be switched dead/alive, for breaker
/// tests. Dead = every open throws.
class switchable_reader final : public hpc::raw_reader {
 public:
  explicit switchable_reader(std::unique_ptr<hpc::raw_reader> inner)
      : inner_(std::move(inner)) {}

  std::string backend_name() const override { return "switchable"; }
  void set_dead(bool dead) { dead_ = dead; }

  std::unique_ptr<hpc::raw_sample> open(const tensor& x) override {
    if (dead_) throw backend_unavailable("measurement backend down");
    return inner_->open(x);
  }

 private:
  std::unique_ptr<hpc::raw_reader> inner_;
  std::atomic<bool> dead_{false};
};

// ---------------------------------------------------------------- clock --

TEST(VirtualClock, AdvancesMonotonically) {
  virtual_clock c;
  EXPECT_EQ(c.now().count(), 0);
  c.advance(milliseconds(5));
  EXPECT_EQ(c.now(), clock_duration(milliseconds(5)));
  c.advance(clock_duration(-10));  // ignored: time never rewinds
  EXPECT_EQ(c.now(), clock_duration(milliseconds(5)));
  c.advance_to(clock_duration(milliseconds(3)));  // in the past: no-op
  EXPECT_EQ(c.now(), clock_duration(milliseconds(5)));
  c.advance_to(clock_duration(milliseconds(9)));
  EXPECT_EQ(c.now(), clock_duration(milliseconds(9)));
}

TEST(SteadyClockFace, MovesForward) {
  steady_clock_face c;
  const auto a = c.now();
  std::this_thread::sleep_for(milliseconds(2));
  EXPECT_GT(c.now(), a);
}

// -------------------------------------------------------------- latency --

TEST(DecayingMean, AdoptsFirstSampleThenDecays) {
  decaying_mean m(0.5, 0.0);
  m.observe(100.0);  // unseeded tracker adopts the first sample outright
  EXPECT_DOUBLE_EQ(m.value(), 100.0);
  m.observe(200.0);
  EXPECT_DOUBLE_EQ(m.value(), 150.0);
  EXPECT_EQ(m.samples(), 2u);
}

// Regression: the old clamp admitted the closed endpoints. alpha == 0
// multiplied every observation by zero — the estimate stayed frozen at its
// seed forever, so admission control never learned the real service cost.
TEST(DecayingMean, AlphaZeroStillLearns) {
  decaying_mean m(0.0, 100.0);
  for (int i = 0; i < 200; ++i) m.observe(0.0);
  EXPECT_LT(m.value(), 90.0) << "alpha=0 froze the estimate at its seed";
}

// Regression: alpha == 1 kept only the last sample — no smoothing at all,
// so one outlier measurement rewrote the whole estimate.
TEST(DecayingMean, AlphaOneStillSmooths) {
  decaying_mean m(1.0, 0.0);
  m.observe(100.0);  // adopted (unseeded)
  m.observe(0.0);    // an outlier must not erase all history
  EXPECT_GT(m.value(), 0.0);
}

TEST(DecayingMean, NanAlphaFallsBackToDefault) {
  decaying_mean m(std::nan(""), 0.0);
  m.observe(100.0);
  m.observe(0.0);
  EXPECT_DOUBLE_EQ(m.value(), 80.0);  // the documented default alpha 0.2
}

TEST(LatencyTracker, EstimateScalesWithUnits) {
  latency_tracker t(0.2, microseconds(100), microseconds(200));
  const auto small = t.estimate(1, 1);
  const auto big = t.estimate(10, 2);
  EXPECT_EQ(small, clock_duration(microseconds(300)));
  EXPECT_EQ(big, clock_duration(microseconds(200) + 20 * microseconds(100)));
  // Feed faster-than-seeded observations: the estimate converges down.
  for (int i = 0; i < 50; ++i) t.observe(microseconds(400), 10, 2);
  EXPECT_LT(t.estimate(10, 2), big);
}

// ---------------------------------------------------------------- queue --

request make_request(std::uint64_t id, priority p) {
  request r;
  r.id = id;
  r.input = test_input();
  r.prio = p;
  return r;
}

TEST(RequestQueue, PriorityOrderWithFifoInsideClass) {
  request_queue q(8);
  auto b1 = make_request(1, priority::batch);
  auto i1 = make_request(2, priority::interactive);
  auto b2 = make_request(3, priority::batch);
  auto c1 = make_request(4, priority::canary);
  auto i2 = make_request(5, priority::interactive);
  ASSERT_TRUE(q.push(b1) == push_result::accepted);
  ASSERT_TRUE(q.push(i1) == push_result::accepted);
  ASSERT_TRUE(q.push(b2) == push_result::accepted);
  ASSERT_TRUE(q.push(c1) == push_result::accepted);
  ASSERT_TRUE(q.push(i2) == push_result::accepted);
  std::vector<std::uint64_t> order;
  while (auto r = q.try_pop()) order.push_back(r->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 2, 5, 1, 3}));
}

TEST(RequestQueue, BoundRejectsTrafficButNeverCanaries) {
  request_queue q(2);
  auto a = make_request(1, priority::interactive);
  auto b = make_request(2, priority::batch);
  auto c = make_request(3, priority::interactive);
  ASSERT_TRUE(q.push(a) == push_result::accepted);
  ASSERT_TRUE(q.push(b) == push_result::accepted);
  EXPECT_FALSE(q.push(c) == push_result::accepted);  // full for traffic...
  EXPECT_EQ(c.id, 3u);  // ...and the rejected request is untouched
  auto canary = make_request(4, priority::canary);
  // ...but canaries bypass the bound.
  EXPECT_TRUE(q.push(canary) == push_result::accepted);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.total_depth(), 3u);
  EXPECT_EQ(q.depth(priority::canary), 1u);
}

// Audit regression: the exact-full boundary. Capacity counts interactive
// and batch together; at exactly `capacity` queued the next push of either
// lane is rejected, and popping one slot reopens exactly one.
TEST(RequestQueue, ExactFullBoundaryAcrossLanes) {
  request_queue q(2);
  auto i1 = make_request(1, priority::interactive);
  auto b1 = make_request(2, priority::batch);
  EXPECT_EQ(q.push(i1), push_result::accepted);
  EXPECT_EQ(q.push(b1), push_result::accepted);
  // Exactly full: both bounded lanes reject, per-lane accounting cannot
  // sneak a third request in through the other lane.
  auto i2 = make_request(3, priority::interactive);
  auto b2 = make_request(4, priority::batch);
  EXPECT_EQ(q.push(i2), push_result::rejected_full);
  EXPECT_EQ(q.push(b2), push_result::rejected_full);
  ASSERT_TRUE(q.try_pop().has_value());
  EXPECT_EQ(q.push(i2), push_result::accepted);  // one slot, one admit
  auto b3 = make_request(5, priority::batch);
  EXPECT_EQ(q.push(b3), push_result::rejected_full);
  EXPECT_EQ(q.accepted(), 3u);
  EXPECT_EQ(q.rejected_full(), 3u);
}

// Audit regression: a push racing a drain. The old queue accepted pushes
// after close(), stranding admitted requests in a queue whose blocked
// consumers had already woken and left.
TEST(RequestQueue, ClosedQueueRejectsEveryPush) {
  request_queue q(4);
  auto before = make_request(1, priority::interactive);
  ASSERT_EQ(q.push(before), push_result::accepted);
  q.close();
  auto late = make_request(2, priority::interactive);
  auto canary = make_request(3, priority::canary);
  EXPECT_EQ(q.push(late), push_result::rejected_closed);
  EXPECT_EQ(q.push(canary), push_result::rejected_closed);  // canaries too
  EXPECT_EQ(q.rejected_closed(), 2u);
  // Already-queued work stays poppable for the drain's flush.
  auto r = q.try_pop();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 1u);
}

// The queue's counters are updated under the same lock as the decision,
// so accepted + rejected_full + rejected_closed == pushes, always.
TEST(RequestQueue, CounterIdentityUnderChurn) {
  request_queue q(3);
  std::uint64_t pushes = 0;
  for (int round = 0; round < 40; ++round) {
    auto r = make_request(static_cast<std::uint64_t>(round),
                          round % 3 == 0 ? priority::batch
                                         : priority::interactive);
    (void)q.push(r);
    ++pushes;
    if (round % 4 == 0) (void)q.try_pop();
    if (round == 30) q.close();
  }
  EXPECT_EQ(q.accepted() + q.rejected_full() + q.rejected_closed(), pushes);
  EXPECT_GT(q.rejected_full(), 0u);
  EXPECT_GT(q.rejected_closed(), 0u);
}

TEST(RequestQueue, CloseWakesBlockedPop) {
  request_queue q(4);
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    (void)q.pop_wait(std::chrono::seconds(30));
    woke.store(true);
  });
  std::this_thread::sleep_for(milliseconds(10));
  q.close();
  waiter.join();
  EXPECT_TRUE(woke.load());
}

// -------------------------------------------------------------- breaker --

TEST(CircuitBreaker, FullTransitionCycle) {
  virtual_clock clock;
  breaker_config cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown = milliseconds(100);
  cfg.half_open_probes = 2;
  circuit_breaker b(clock, cfg);

  EXPECT_EQ(b.state(), breaker_state::closed);
  for (int i = 0; i < 3; ++i) {
    breaker_epoch e = 0;
    EXPECT_TRUE(b.allow(&e));
    b.record_failure(e);
  }
  EXPECT_EQ(b.state(), breaker_state::open);
  EXPECT_EQ(b.trips(), 1u);
  EXPECT_FALSE(b.allow());  // open: shed instantly

  clock.advance(milliseconds(99));
  EXPECT_FALSE(b.allow());  // cooldown not yet elapsed
  clock.advance(milliseconds(1));
  breaker_epoch p1 = 0;
  breaker_epoch p2 = 0;
  EXPECT_TRUE(b.allow(&p1));  // -> half-open, probe 1
  EXPECT_EQ(b.state(), breaker_state::half_open);
  EXPECT_TRUE(b.allow(&p2));  // probe 2
  EXPECT_EQ(p1, p2);          // same half-open window
  EXPECT_FALSE(b.allow());    // probe budget exhausted
  b.record_success(p1);
  b.record_success(p2);  // enough consecutive successes close the breaker
  EXPECT_EQ(b.state(), breaker_state::closed);

  // A failure during half-open re-opens immediately and restarts cooldown.
  for (int i = 0; i < 3; ++i) {
    breaker_epoch e = 0;
    ASSERT_TRUE(b.allow(&e));
    b.record_failure(e);
  }
  clock.advance(milliseconds(100));
  breaker_epoch e = 0;
  EXPECT_TRUE(b.allow(&e));
  b.record_failure(e);
  EXPECT_EQ(b.state(), breaker_state::open);
  EXPECT_EQ(b.trips(), 3u);
}

TEST(CircuitBreaker, ReleaseReturnsProbeSlot) {
  virtual_clock clock;
  breaker_config cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown = milliseconds(10);
  cfg.half_open_probes = 1;
  circuit_breaker b(clock, cfg);
  breaker_epoch e = 0;
  EXPECT_TRUE(b.allow(&e));
  b.record_failure(e);
  clock.advance(milliseconds(10));
  EXPECT_TRUE(b.allow(&e));  // the single half-open probe
  EXPECT_FALSE(b.allow());   // no slot left
  b.release(e);              // the probe was shed before it ran
  EXPECT_TRUE(b.allow(&e));  // the slot is usable again
}

TEST(CircuitBreaker, StaleReportFromEarlierWindowIsDropped) {
  // Regression: a probe admitted in one half-open window reports after
  // that window already failed. Without generation stamps its stale
  // success/release would leak into the NEXT window — closing the breaker
  // on evidence from a window that already transitioned away (a
  // double-transition).
  virtual_clock clock;
  breaker_config cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown = milliseconds(10);
  cfg.half_open_probes = 1;
  circuit_breaker b(clock, cfg);

  breaker_epoch first = 0;
  ASSERT_TRUE(b.allow(&first));
  b.record_failure(first);  // trip open
  clock.advance(milliseconds(10));

  breaker_epoch probe1 = 0;
  ASSERT_TRUE(b.allow(&probe1));  // half-open window 1
  breaker_epoch probe1b = 0;
  EXPECT_FALSE(b.allow(&probe1b));  // budget exhausted
  b.record_failure(probe1);         // window 1 fails -> open again
  EXPECT_EQ(b.state(), breaker_state::open);
  clock.advance(milliseconds(10));

  breaker_epoch probe2 = 0;
  ASSERT_TRUE(b.allow(&probe2));  // half-open window 2
  EXPECT_NE(probe1, probe2);

  // The stale window-1 stamps must be inert in window 2.
  b.record_success(probe1);  // would close the breaker if counted
  EXPECT_EQ(b.state(), breaker_state::half_open);
  b.release(probe1);  // would free window 2's only probe slot if counted
  EXPECT_FALSE(b.allow());

  // The current window still works normally.
  b.record_success(probe2);
  EXPECT_EQ(b.state(), breaker_state::closed);
}

// ---------------------------------------------------- cancellable retry --

TEST(CancelToken, CutsBackoffShort) {
  retry_policy p;
  p.max_attempts = 10;
  p.base_delay = milliseconds(200);
  p.max_delay = milliseconds(200);
  cancel_token token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    token.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto never = [](std::size_t) { return false; };
  EXPECT_EQ(run_with_retry(p, never, &token), 0u);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  canceller.join();
  // Without cancellation this would sleep ~9 * 200ms.
  EXPECT_LT(elapsed, milliseconds(1000));
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelToken, PreCancelledStillPermitsOneAttempt) {
  retry_policy p;
  p.max_attempts = 5;
  p.base_delay = milliseconds(0);
  cancel_token token;
  token.cancel();
  std::size_t calls = 0;
  const auto count = [&](std::size_t) {
    ++calls;
    return false;
  };
  EXPECT_EQ(run_with_retry(p, count, &token), 0u);
  EXPECT_EQ(calls, 1u);  // first try runs; retries are cancelled

  calls = 0;
  const auto succeed = [&](std::size_t) {
    ++calls;
    return true;
  };
  EXPECT_EQ(run_with_retry(p, succeed, &token), 1u);
  EXPECT_EQ(calls, 1u);
}

// ----------------------------------------------------- measure budgets --

TEST(MeasureBudget, ZeroRoundsSkipsRetries) {
  auto model = make_test_model();
  hpc::fault_config fc;
  fc.read_failure_rate = 0.4;
  fc.seed = 21;
  hpc::resilience_config rc;
  rc.retry.base_delay = milliseconds(0);
  hpc::resilient_monitor monitor(
      std::make_unique<hpc::fault_backend>(
          std::make_unique<hpc::sim_backend>(*model), fc),
      rc);
  const auto events = hpc::core_events();
  const tensor x = test_input();

  hpc::measure_budget first_read_only;
  first_read_only.max_retry_rounds = 0;
  const auto tight = monitor.measure_batch(std::span<const tensor>(&x, 1),
                                           events, 10, 1, first_read_only)[0];
  EXPECT_EQ(tight.q.retries, 0u);
  EXPECT_GT(tight.q.failed_repetitions, 0u);  // faults stayed unrepaired

  const auto relaxed = monitor.measure(x, events, 10);
  EXPECT_GT(relaxed.q.retries, 0u);
  EXPECT_LT(relaxed.q.failed_repetitions, tight.q.failed_repetitions);
}

TEST(MeasureBudget, BudgetedBatchIsThreadInvariant) {
  auto model = make_test_model();
  const auto events = hpc::core_events();
  std::vector<tensor> inputs;
  for (std::size_t i = 0; i < 6; ++i) {
    inputs.push_back(test_input(0.5 + 0.1 * static_cast<double>(i)));
  }
  hpc::measure_budget budget;
  budget.max_retry_rounds = 1;
  budget.allow_backoff = false;

  const auto run = [&](std::size_t threads) {
    hpc::fault_config fc;
    fc.read_failure_rate = 0.3;
    fc.seed = 77;
    hpc::resilience_config rc;
    rc.retry.base_delay = milliseconds(0);
    hpc::resilient_monitor monitor(
        std::make_unique<hpc::fault_backend>(
            std::make_unique<hpc::sim_backend>(*model), fc),
        rc);
    return monitor.measure_batch(inputs, events, 10, threads, budget);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].predicted, parallel[i].predicted);
    EXPECT_EQ(serial[i].mean_counts, parallel[i].mean_counts);  // bitwise
    EXPECT_EQ(serial[i].q.retries, parallel[i].q.retries);
    EXPECT_EQ(serial[i].q.failed_repetitions,
              parallel[i].q.failed_repetitions);
  }
}

TEST(MeasureBudget, CancelledTokenStopsRetries) {
  auto model = make_test_model();
  hpc::fault_config fc;
  fc.read_failure_rate = 0.4;
  fc.seed = 21;
  hpc::resilience_config rc;
  rc.retry.base_delay = milliseconds(0);
  hpc::resilient_monitor monitor(
      std::make_unique<hpc::fault_backend>(
          std::make_unique<hpc::sim_backend>(*model), fc),
      rc);
  cancel_token token;
  token.cancel();
  hpc::measure_budget budget;
  budget.cancel = &token;
  const tensor x = test_input();
  const auto m = monitor.measure_batch(std::span<const tensor>(&x, 1),
                                       hpc::core_events(), 10, 1, budget)[0];
  EXPECT_EQ(m.q.retries, 0u);  // drain mode: first-read evidence only
}

// ------------------------------------------------------------ admission --

TEST(DetectionService, RejectsInfeasibleDeadline) {
  serve_config cfg;
  cfg.queue_capacity = 8;
  serve_rig rig(cfg);
  // Seeded estimate: 200us fixed + 10 repeats x 2 events x 100us = 2.2ms;
  // margin 2 makes anything under ~4.4ms infeasible.
  const auto tight =
      rig.service->submit(test_input(), priority::interactive,
                          clock_duration(milliseconds(1)));
  EXPECT_EQ(tight.status, admit_status::rejected_deadline);
  const auto roomy =
      rig.service->submit(test_input(), priority::interactive,
                          clock_duration(milliseconds(100)));
  EXPECT_TRUE(roomy.admitted());
  const auto s = rig.service->stats();
  EXPECT_EQ(s.rejected_deadline, 1u);
  EXPECT_EQ(s.admitted, 1u);
}

TEST(DetectionService, RejectsWhenQueueFull) {
  serve_config cfg;
  cfg.queue_capacity = 2;
  serve_rig rig(cfg);
  EXPECT_TRUE(rig.service
                  ->submit(test_input(), priority::interactive, no_deadline)
                  .admitted());
  EXPECT_TRUE(rig.service->submit(test_input(), priority::batch, no_deadline)
                  .admitted());
  EXPECT_EQ(rig.service->submit(test_input(), priority::batch, no_deadline)
                .status,
            admit_status::rejected_queue_full);
  // Canaries bypass the capacity bound entirely.
  EXPECT_TRUE(rig.service->submit(test_input(), priority::canary).admitted());
}

TEST(DetectionService, BatchAdmissionProjectsInteractivePressure) {
  serve_config cfg;
  cfg.queue_capacity = 64;
  serve_rig rig(cfg);
  // Seeded estimate: 2.2ms per request. Admit interactive every 1ms — a
  // sustained stream faster than the service rate — so the decaying
  // inter-admission gap learns the pressure.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rig.service
                    ->submit(test_input(), priority::interactive, no_deadline)
                    .admitted());
    rig.clock.advance(milliseconds(1));
  }
  // 100ms would satisfy backlog + margin (8 x 2.2ms x 2 = ~35ms), but the
  // projected interactive work overtaking the batch request during those
  // 100ms (one 2.2ms request per 1ms gap) makes the deadline infeasible.
  EXPECT_EQ(rig.service
                ->submit(test_input(), priority::batch,
                         clock_duration(milliseconds(100)))
                .status,
            admit_status::rejected_deadline);
  // Once the interactive stream goes quiet, the effective gap widens with
  // the silence and batch becomes admissible again.
  rig.service->flush();
  rig.clock.advance(milliseconds(500));
  EXPECT_TRUE(rig.service
                  ->submit(test_input(), priority::batch,
                           clock_duration(milliseconds(100)))
                  .admitted());
}

TEST(DetectionService, BatchBackpressureKeepsQueueShallow) {
  serve_config cfg;
  cfg.queue_capacity = 8;
  cfg.batch_admit_occupancy = 0.5;  // batch admitted into <= 4 of 8 slots
  serve_rig rig(cfg);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(rig.service->submit(test_input(), priority::batch, no_deadline)
                    .admitted());
  }
  EXPECT_EQ(rig.service->submit(test_input(), priority::batch, no_deadline)
                .status,
            admit_status::rejected_backpressure);
  // Only batch feels backpressure: interactive still fills to capacity.
  EXPECT_TRUE(rig.service
                  ->submit(test_input(), priority::interactive, no_deadline)
                  .admitted());
  const auto s = rig.service->stats();
  EXPECT_EQ(s.rejected_backpressure, 1u);
  EXPECT_EQ(s.admitted, 5u);
}

// ----------------------------------------------------- degradation ladder --

TEST(DetectionService, DefaultLadderMatchesPaperRepeats) {
  serve_rig rig;
  const auto& ladder = rig.service->ladder();
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_EQ(ladder[0].repeats, 10u);
  EXPECT_EQ(ladder[1].repeats, 5u);
  EXPECT_EQ(ladder[2].repeats, 3u);
  EXPECT_EQ(ladder[3].repeats, 1u);
  EXPECT_TRUE(ladder[3].shed_events);
  EXPECT_FALSE(ladder[0].shed_events);
}

TEST(DetectionService, LadderDescendsUnderLoadAndRecovers) {
  serve_config cfg;
  cfg.queue_capacity = 20;
  cfg.batch_size = 2;
  serve_rig rig(cfg);
  // Saturate to occupancy 0.9: the deepest rung engages.
  for (std::size_t i = 0; i < 18; ++i) {
    ASSERT_TRUE(
        rig.service->submit(test_input(), priority::batch, no_deadline)
            .admitted());
  }
  auto first = rig.service->service_batch();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(rig.service->rung(), 3u);
  for (const auto& r : first) {
    EXPECT_EQ(r.outcome, response::kind::served);
    EXPECT_EQ(r.repeats_used, 1u);  // R shed 10 -> 1 at the deepest rung
    EXPECT_TRUE(r.events_shed);
    EXPECT_TRUE(r.v.degraded);  // reduced evidence is never silent
    EXPECT_EQ(r.rung, 3u);
  }
  // Keep servicing: occupancy falls, the ladder releases with hysteresis,
  // and the final requests run at full fidelity again.
  const auto rest = rig.service->flush();
  ASSERT_EQ(rest.size(), 16u);
  EXPECT_EQ(rest.back().repeats_used, 10u);
  EXPECT_EQ(rest.back().rung, 0u);
  EXPECT_FALSE(rest.back().events_shed);
  EXPECT_EQ(rig.service->rung(), 0u);
  const auto s = rig.service->stats();
  EXPECT_EQ(s.max_rung_engaged, 3u);
  EXPECT_EQ(s.served, 18u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_GT(s.repeats_shed, 0u);
  EXPECT_GT(s.events_shed_requests, 0u);
}

TEST(DetectionService, HysteresisHoldsRungNearThreshold) {
  serve_config cfg;
  cfg.queue_capacity = 10;
  cfg.batch_size = 1;
  serve_rig rig(cfg);
  for (std::size_t i = 0; i < 5; ++i) {  // occupancy 0.5: rung 1 engages
    ASSERT_TRUE(
        rig.service->submit(test_input(), priority::batch, no_deadline)
            .admitted());
  }
  (void)rig.service->service_batch();
  EXPECT_EQ(rig.service->rung(), 1u);
  // Occupancy 0.4 is inside the hysteresis band (release below 0.35):
  // the rung holds rather than flapping.
  (void)rig.service->service_batch();
  EXPECT_EQ(rig.service->rung(), 1u);
  // 0.3 clears the band: release back to rung 0.
  (void)rig.service->service_batch();
  EXPECT_EQ(rig.service->rung(), 0u);
}

TEST(DetectionService, CanariesNeverShedUnderSaturation) {
  serve_config cfg;
  cfg.queue_capacity = 10;
  cfg.batch_size = 4;
  serve_rig rig(cfg);
  for (std::size_t i = 0; i < 9; ++i) {  // occupancy 0.9: deepest rung
    ASSERT_TRUE(
        rig.service->submit(test_input(), priority::batch, no_deadline)
            .admitted());
  }
  ASSERT_TRUE(rig.service->submit(test_input(), priority::canary).admitted());
  const auto responses = rig.service->flush();
  ASSERT_EQ(responses.size(), 10u);
  // The canary is served first (priority) and at full fidelity even
  // though every batch request around it is maximally degraded.
  const auto& canary = responses.front();
  EXPECT_EQ(canary.prio, priority::canary);
  EXPECT_EQ(canary.outcome, response::kind::served);
  EXPECT_EQ(canary.repeats_used, 10u);
  EXPECT_FALSE(canary.events_shed);
  EXPECT_FALSE(canary.v.degraded);
  const auto s = rig.service->stats();
  EXPECT_EQ(s.canary_submitted, 1u);
  EXPECT_EQ(s.canary_served, 1u);
  EXPECT_EQ(s.canary_shed, 0u);
}

// ----------------------------------------------------------------- drain --

TEST(DetectionService, DrainStopsAdmissionButFlushesAdmittedWork) {
  serve_config cfg;
  cfg.queue_capacity = 8;
  serve_rig rig(cfg);
  ASSERT_TRUE(rig.service
                  ->submit(test_input(), priority::interactive, no_deadline)
                  .admitted());
  ASSERT_TRUE(rig.service->submit(test_input(), priority::canary).admitted());
  rig.service->drain();
  EXPECT_TRUE(rig.service->draining());
  EXPECT_EQ(rig.service->submit(test_input(), priority::interactive).status,
            admit_status::rejected_draining);
  EXPECT_EQ(rig.service->submit(test_input(), priority::canary).status,
            admit_status::rejected_draining);
  const auto responses = rig.service->flush();
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    EXPECT_EQ(r.outcome, response::kind::served);
  }
  const auto s = rig.service->stats();
  EXPECT_EQ(s.rejected_draining, 2u);
  EXPECT_EQ(s.canary_shed, 0u);  // shutdown rejections are not shedding
  EXPECT_EQ(rig.service->queue_depth(), 0u);
}

// --------------------------------------------------- breaker integration --

TEST(DetectionService, DeadBackendTripsBreakerAndRecovers) {
  auto model = make_test_model();
  auto reader = std::make_unique<switchable_reader>(
      std::make_unique<hpc::sim_backend>(*model));
  switchable_reader& backend = *reader;
  hpc::resilient_monitor monitor(std::move(reader),
                                 hpc::resilience_config::naive());
  const auto dcfg = test_detector_config();
  core::detector det = fit_test_detector(monitor, dcfg);
  virtual_clock clock;
  serve_config cfg;
  cfg.queue_capacity = 16;
  cfg.batch_size = 4;
  cfg.breaker.failure_threshold = 4;
  cfg.breaker.cooldown = milliseconds(50);
  cfg.breaker.half_open_probes = 2;
  detection_service service(det, monitor, clock, cfg);

  backend.set_dead(true);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.submit(test_input(), priority::batch, no_deadline)
                    .admitted());
  }
  const auto failed = service.service_batch();
  ASSERT_EQ(failed.size(), 4u);
  for (const auto& r : failed) {
    EXPECT_EQ(r.outcome, response::kind::failed_backend);
  }
  EXPECT_EQ(service.breaker(), breaker_state::open);
  EXPECT_EQ(service.submit(test_input(), priority::batch, no_deadline).status,
            admit_status::rejected_breaker);

  // After the cooldown the breaker admits a bounded probe set; a healed
  // backend closes it again and traffic flows.
  backend.set_dead(false);
  clock.advance(milliseconds(50));
  ASSERT_TRUE(service.submit(test_input(), priority::batch, no_deadline)
                  .admitted());
  ASSERT_TRUE(service.submit(test_input(), priority::batch, no_deadline)
                  .admitted());
  EXPECT_EQ(service.submit(test_input(), priority::batch, no_deadline).status,
            admit_status::rejected_breaker);  // probe budget exhausted
  const auto probes = service.flush();
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_EQ(probes[0].outcome, response::kind::served);
  EXPECT_EQ(service.breaker(), breaker_state::closed);
  EXPECT_EQ(service.stats().breaker_trips, 1u);
}

// ----------------------------------------------------------- env knobs --

TEST(ServeConfigEnv, AppliesValidOverrides) {
  ::setenv("ADVH_QUEUE_DEPTH", "128", 1);
  ::setenv("ADVH_DEADLINE_MS", "2.5", 1);
  const auto cfg = serve_config_from_env();
  ::unsetenv("ADVH_QUEUE_DEPTH");
  ::unsetenv("ADVH_DEADLINE_MS");
  EXPECT_EQ(cfg.queue_capacity, 128u);
  EXPECT_EQ(cfg.default_deadline,
            std::chrono::duration_cast<clock_duration>(microseconds(2500)));
}

TEST(ServeConfigEnv, MalformedKnobsThrow) {
  const auto expect_throws = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    EXPECT_THROW((void)serve_config_from_env(), std::invalid_argument)
        << name << "=" << value;
    ::unsetenv(name);
  };
  expect_throws("ADVH_QUEUE_DEPTH", "abc");
  expect_throws("ADVH_QUEUE_DEPTH", "0");
  expect_throws("ADVH_QUEUE_DEPTH", "-4");
  expect_throws("ADVH_QUEUE_DEPTH", "12.5");  // not an integer
  expect_throws("ADVH_QUEUE_DEPTH", "16x");
  expect_throws("ADVH_QUEUE_DEPTH", "");
  expect_throws("ADVH_DEADLINE_MS", "fast");
  expect_throws("ADVH_DEADLINE_MS", "0");
  expect_throws("ADVH_DEADLINE_MS", "-1.5");
  expect_throws("ADVH_DEADLINE_MS", "10ms");
}

TEST(ServeConfigEnv, UnsetKnobsKeepDefaults) {
  ::unsetenv("ADVH_QUEUE_DEPTH");
  ::unsetenv("ADVH_DEADLINE_MS");
  serve_config base;
  base.queue_capacity = 7;
  const auto cfg = serve_config_from_env(base);
  EXPECT_EQ(cfg.queue_capacity, 7u);
  EXPECT_EQ(cfg.default_deadline, base.default_deadline);
}

// ---------------------------------------------------------- determinism --

/// One scripted overload epoch against a fresh rig; returns every
/// response plus final stats for bitwise comparison.
std::pair<std::vector<response>, serve_stats> scripted_run(
    std::size_t threads) {
  serve_config cfg;
  cfg.queue_capacity = 12;
  cfg.batch_size = 3;
  cfg.threads = threads;
  serve_rig rig(cfg);
  std::vector<response> all;
  std::uint64_t tick = 0;
  for (std::size_t step = 0; step < 12; ++step) {
    for (std::size_t k = 0; k < 3; ++k) {
      const priority p = (tick % 5 == 0) ? priority::canary
                         : (tick % 3 == 0) ? priority::batch
                                           : priority::interactive;
      const auto deadline = (tick % 4 == 0)
                                ? clock_duration(milliseconds(30))
                                : clock_duration(milliseconds(200));
      (void)rig.service->submit(
          test_input(0.4 + 0.02 * static_cast<double>(tick % 9)), p,
          p == priority::canary ? std::optional<clock_duration>{} : deadline);
      ++tick;
    }
    auto batch = rig.service->service_batch();
    all.insert(all.end(), batch.begin(), batch.end());
    rig.clock.advance(milliseconds(1));
  }
  rig.service->drain();
  auto rest = rig.service->flush();
  all.insert(all.end(), rest.begin(), rest.end());
  return {std::move(all), rig.service->stats()};
}

void expect_identical(const std::vector<response>& a,
                      const std::vector<response>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].prio, b[i].prio);
    EXPECT_EQ(a[i].completed.count(), b[i].completed.count());
    EXPECT_EQ(a[i].repeats_used, b[i].repeats_used);
    EXPECT_EQ(a[i].rung, b[i].rung);
    EXPECT_EQ(a[i].events_shed, b[i].events_shed);
    EXPECT_EQ(a[i].deadline_missed, b[i].deadline_missed);
    EXPECT_EQ(a[i].v.adversarial_any, b[i].v.adversarial_any);
    EXPECT_EQ(a[i].v.nll, b[i].v.nll);  // bitwise
  }
}

TEST(DetectionService, SimulatedRunIsBitwiseThreadInvariant) {
  const auto serial = scripted_run(1);
  const auto parallel = scripted_run(4);
  expect_identical(serial.first, parallel.first);
  EXPECT_EQ(serial.second.submitted, parallel.second.submitted);
  EXPECT_EQ(serial.second.admitted, parallel.second.admitted);
  EXPECT_EQ(serial.second.served, parallel.second.served);
  EXPECT_EQ(serial.second.shed_deadline, parallel.second.shed_deadline);
  EXPECT_EQ(serial.second.deadline_misses, parallel.second.deadline_misses);
  EXPECT_EQ(serial.second.rejected_deadline,
            parallel.second.rejected_deadline);
  EXPECT_EQ(serial.second.max_rung_engaged, parallel.second.max_rung_engaged);
  EXPECT_EQ(serial.second.canary_shed, 0u);

  // And the whole run replays bit for bit at the same thread count.
  const auto replay = scripted_run(4);
  expect_identical(parallel.first, replay.first);
}

// ----------------------------------------------- stateful query tracking --

track::track_config fast_track_config() {
  track::track_config cfg;
  cfg.fp.window = 8;
  cfg.elevate_hits = 3.0;
  cfg.ban_hits = 6.0;
  return cfg;
}

/// Inputs whose quantized bin pattern is independent per variant —
/// test_input's scaled ramp collapses into one quantization bin at small
/// scales, which would make every honest query fingerprint-collide with
/// the previous one and get the honest client banned.
tensor varied_input(std::uint64_t variant) {
  tensor x(shape{1, 1, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    std::uint64_t h = (i + 1) * 0x9e3779b97f4a7c15ULL +
                      (variant + 1) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 29;
    x.data()[i] = 0.05f + 0.1f * static_cast<float>(h % 23);
  }
  return x;
}

TEST(TrackedService, CampaignClientEscalatesThenGetsBanned) {
  serve_config cfg;
  cfg.default_deadline = std::chrono::seconds(10);
  serve_rig rig(cfg);
  track::query_tracker tracker(rig.clock, fast_track_config());
  rig.service->attach_tracker(tracker);

  const std::uint64_t attacker = 42;
  const std::uint64_t honest = 7;
  std::vector<response> responses;
  std::uint64_t attacker_rejections = 0;
  for (int round = 0; round < 12; ++round) {
    // The attacker replays one probe; the honest client sends fresh work.
    const auto a = rig.service->submit(test_input(0.6), priority::interactive,
                                       std::nullopt, attacker);
    if (a.status == admit_status::rejected_banned) ++attacker_rejections;
    const auto h =
        rig.service->submit(varied_input(static_cast<std::uint64_t>(round)),
                            priority::interactive, std::nullopt, honest);
    EXPECT_TRUE(h.admitted()) << "honest client harmed in round " << round;
    auto batch = rig.service->service_batch();
    responses.insert(responses.end(), batch.begin(), batch.end());
  }
  rig.service->drain();
  auto rest = rig.service->flush();
  responses.insert(responses.end(), rest.begin(), rest.end());

  EXPECT_EQ(tracker.level(attacker), track::escalation::banned);
  EXPECT_EQ(tracker.level(honest), track::escalation::none);
  EXPECT_GT(attacker_rejections, 0u);

  const auto s = rig.service->stats();
  EXPECT_EQ(s.rejected_banned, attacker_rejections);
  EXPECT_GT(s.escalated_admitted, 0u);
  EXPECT_GT(s.escalated_served, 0u);
  // Escalated requests were served at full fidelity (rung 0, full R).
  const auto full_r = static_cast<std::uint32_t>(rig.det.config().repeats);
  std::uint64_t escalated_seen = 0;
  for (const response& r : responses) {
    if (!r.escalated) continue;
    ++escalated_seen;
    EXPECT_EQ(r.client, attacker);
    if (r.outcome == response::kind::served) {
      EXPECT_EQ(r.rung, 0u);
      EXPECT_EQ(r.repeats_used, full_r);
    }
  }
  EXPECT_EQ(escalated_seen, s.escalated_admitted);
  // Terminal accounting still closes with the tracker in the loop.
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_breaker +
                             s.rejected_draining + s.rejected_backpressure +
                             s.rejected_banned);
  EXPECT_EQ(s.admitted, s.served + s.shed_deadline + s.failed_backend);
}

TEST(TrackedService, BanDecisionsAreThreadInvariant) {
  // The same interleaved traffic script at 1 and 4 measurement threads
  // must produce identical ban decisions and admission statuses: tracker
  // state advances in admission order under the scheduler lock, not in
  // measurement order.
  const auto run = [](std::size_t threads) {
    serve_config cfg;
    cfg.threads = threads;
    cfg.default_deadline = std::chrono::seconds(10);
    serve_rig rig(cfg);
    track::query_tracker tracker(rig.clock, fast_track_config());
    rig.service->attach_tracker(tracker);
    std::vector<int> statuses;
    for (int round = 0; round < 10; ++round) {
      for (std::uint64_t c = 1; c <= 4; ++c) {
        const bool attacker = c == 2;
        const tensor x =
            attacker ? test_input(0.7)
                     : varied_input(static_cast<std::uint64_t>(4 * round + c));
        const auto res = rig.service->submit(x, priority::interactive,
                                             std::nullopt, c);
        statuses.push_back(static_cast<int>(res.status));
      }
      (void)rig.service->service_batch();
    }
    rig.service->drain();
    (void)rig.service->flush();
    const auto ts = tracker.stats();
    statuses.push_back(static_cast<int>(ts.bans));
    statuses.push_back(static_cast<int>(ts.elevations));
    return statuses;
  };
  EXPECT_EQ(run(1), run(4));
}

// -------------------------------------------------------- TSan saturation --

TEST(DetectionService, ConcurrentSubmitAndServiceStaysConsistent) {
  auto model = make_test_model();
  hpc::resilient_monitor monitor(std::make_unique<hpc::sim_backend>(*model),
                                 hpc::resilience_config::naive());
  const auto dcfg = test_detector_config();
  core::detector det = fit_test_detector(monitor, dcfg);
  steady_clock_face clock;
  serve_config cfg;
  cfg.queue_capacity = 16;
  cfg.batch_size = 4;
  cfg.default_deadline = std::chrono::seconds(30);
  detection_service service(det, monitor, clock, cfg);

  constexpr std::size_t kSubmitters = 3;
  constexpr std::size_t kPerThread = 20;
  std::atomic<bool> stop{false};
  std::mutex responses_mutex;
  std::vector<response> responses;

  std::vector<std::thread> servicers;
  for (std::size_t s = 0; s < 2; ++s) {
    servicers.emplace_back([&] {
      while (!stop.load()) {
        auto batch = service.service_batch();
        std::lock_guard<std::mutex> lock(responses_mutex);
        responses.insert(responses.end(), batch.begin(), batch.end());
      }
    });
  }
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const priority p = (i % 7 == 0) ? priority::canary
                           : (i % 2 == 0) ? priority::interactive
                                          : priority::batch;
        (void)service.submit(
            test_input(0.4 + 0.01 * static_cast<double>(t * kPerThread + i)),
            p);
      }
    });
  }
  for (auto& t : submitters) t.join();
  service.drain();
  {
    auto rest = service.flush();
    std::lock_guard<std::mutex> lock(responses_mutex);
    responses.insert(responses.end(), rest.begin(), rest.end());
  }
  stop.store(true);
  for (auto& t : servicers) t.join();

  const auto s = service.stats();
  EXPECT_EQ(s.submitted, kSubmitters * kPerThread);
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full +
                             s.rejected_deadline + s.rejected_breaker +
                             s.rejected_draining + s.rejected_backpressure +
                             s.rejected_banned);
  // Every admitted request reached exactly one terminal outcome.
  EXPECT_EQ(s.admitted, s.served + s.shed_deadline + s.failed_backend);
  EXPECT_EQ(responses.size(), s.admitted);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(s.canary_shed, 0u);
}

}  // namespace
}  // namespace advh::serve
