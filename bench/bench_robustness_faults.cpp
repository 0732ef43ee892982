// Measurement-resilience sweep: detection quality as a function of the
// injected counter-fault rate, comparing the resilient measurement stack
// (retry/backoff + median/MAD aggregation + graceful degradation) against
// the naive path that feeds faulted readings straight to the detector.
//
// Per fault rate the bench reports measurement recovery (fraction of
// samples whose requested repetitions were all refilled), retry/outlier
// counts, abstain/degraded rates, and fused detection accuracy over a
// balanced clean + adversarial pool. Two self-checks gate the exit code:
//   * determinism — the 10% fault-rate storm must produce bitwise
//     identical verdicts and measurements at 1 and 4 worker threads;
//   * resilience — at a 10% transient rate, recovery must reach 99% and
//     accuracy must stay within 2 points of the fault-free baseline.
//
// Writes bench_results/BENCH_robustness_faults.{csv,json}.
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "bench/bench_common.hpp"
#include "hpc/fault_backend.hpp"
#include "hpc/resilient_monitor.hpp"

using namespace advh;

namespace {

constexpr double kAcceptRate = 0.10;      // the gated sweep point
constexpr double kMinRecovery = 0.99;
constexpr double kMaxAccuracyDrop = 2.0;  // percentage points

/// Same rate split the ADVH_FAULT_RATE chaos knob uses (hpc/factory).
hpc::fault_config faults_for(double rate) {
  hpc::fault_config fc;
  fc.read_failure_rate = rate;
  fc.spike_rate = rate / 2.0;
  fc.stuck_rate = rate / 4.0;
  fc.hang_rate = rate / 50.0;
  fc.hang_ms = 1;
  fc.seed = 13;
  return fc;
}

/// sim -> fault -> resilient stack with fixed seeds everywhere.
hpc::monitor_ptr resilient_stack(nn::model& m, double rate) {
  return std::make_unique<hpc::resilient_monitor>(
      std::make_unique<hpc::fault_backend>(bench::make_reader(m),
                                           faults_for(rate)));
}

/// sim -> fault stack: faulted readings aggregated naively.
hpc::monitor_ptr naive_stack(nn::model& m, double rate) {
  return std::make_unique<hpc::resilient_monitor>(
      std::make_unique<hpc::fault_backend>(bench::make_reader(m),
                                           faults_for(rate)),
      hpc::resilience_config::naive());
}

struct eval_outcome {
  std::vector<hpc::measurement> measurements;
  std::vector<core::verdict> verdicts;
  core::detection_confusion fused;
  std::size_t abstained = 0;
  std::size_t degraded = 0;
};

/// Measures and scores clean + adversarial pools through `monitor`,
/// accumulating one outcome over both (sample streams run clean-then-adv,
/// so the fault pattern is a pure function of the pool layout).
eval_outcome evaluate(const core::detector& det, hpc::hpc_monitor& monitor,
                      std::span<const tensor> clean,
                      std::span<const tensor> adv, std::size_t threads) {
  eval_outcome out;
  const auto run = [&](std::span<const tensor> inputs, bool is_adversarial) {
    const auto ms = monitor.measure_batch(inputs, det.config().events,
                                          det.config().repeats, threads);
    for (const auto& m : ms) {
      auto v = det.score(m.predicted, m.mean_counts, m.q.available);
      out.fused.push(is_adversarial, v.adversarial_any);
      if (v.abstained) ++out.abstained;
      if (v.degraded) ++out.degraded;
      out.measurements.push_back(m);
      out.verdicts.push_back(std::move(v));
    }
  };
  run(clean, false);
  run(adv, true);
  return out;
}

/// Fraction of measurements whose requested repetitions were all refilled
/// for every surviving event (the bench's "measurement recovery").
double recovery_fraction(const eval_outcome& out) {
  if (out.measurements.empty()) return 0.0;
  std::size_t recovered = 0;
  for (const auto& m : out.measurements) {
    if (m.q.failed_repetitions == 0 && !m.q.degraded()) ++recovered;
  }
  return static_cast<double>(recovered) /
         static_cast<double>(out.measurements.size());
}

bool same_measurements(const std::vector<hpc::measurement>& a,
                       const std::vector<hpc::measurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].mean_counts != b[i].mean_counts ||
        a[i].stddev_counts != b[i].stddev_counts ||
        a[i].predicted != b[i].predicted ||
        a[i].q.available != b[i].q.available ||
        a[i].q.retries != b[i].q.retries ||
        a[i].q.outliers_rejected != b[i].q.outliers_rejected ||
        a[i].q.failed_repetitions != b[i].q.failed_repetitions) {
      return false;
    }
  }
  return true;
}

bool same_verdicts(const std::vector<core::verdict>& a,
                   const std::vector<core::verdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].predicted != b[i].predicted || a[i].nll != b[i].nll ||
        a[i].adversarial_any != b[i].adversarial_any ||
        a[i].degraded != b[i].degraded || a[i].abstained != b[i].abstained) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto threads_opt = bench::parse_threads(
      argc, argv, "bench_robustness_faults",
      "detection quality vs injected counter-fault rate (resilient vs naive "
      "measurement stack)");
  if (!threads_opt) return 0;
  const std::size_t threads = *threads_opt;

  auto rt = bench::prepare(data::scenario_id::s1);

  core::detector_config dcfg;
  dcfg.events = hpc::core_events();
  dcfg.repeats = 10;

  // Detector fitted on the fault-free path: deployments calibrate on a
  // healthy PMU; faults arrive later, at classification time.
  auto fit_monitor = bench::make_monitor(*rt.net);
  const auto det =
      bench::fit_detector(*fit_monitor, dcfg, rt.train, bench::scaled(30));

  // Balanced eval pool: clean images of every class + untargeted FGSM AEs.
  std::vector<tensor> clean;
  for (std::size_t cls = 0; cls < rt.test.num_classes; ++cls) {
    auto v = bench::clean_of_class(*rt.net, rt.test, cls, bench::scaled(8));
    for (auto& x : v) clean.push_back(std::move(x));
  }
  auto pool = bench::attack_pool(rt, bench::scaled(40));
  auto adv = bench::collect_adversarial(*rt.net, pool,
                                        attack::attack_kind::fgsm,
                                        attack::attack_goal::untargeted, 0.1f,
                                        0, clean.size());
  std::cout << "S1 untargeted FGSM eps=0.1: " << adv.inputs.size()
            << " AEs over " << adv.attempted << " attempts; clean pool "
            << clean.size() << "\n\n";

  const std::vector<double> rates{0.0, 0.02, 0.05, 0.10, 0.20};

  text_table table(
      "Measurement resilience: fault-rate sweep (scenario S1, fused verdict)");
  table.set_header({"fault rate", "resilient acc %", "naive acc %",
                    "recovery %", "abstain %", "degraded %", "retries",
                    "outliers"});

  double baseline_acc = 0.0;
  double accept_acc = 0.0;
  double accept_recovery = 0.0;
  std::ostringstream rows_json;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double rate = rates[i];

    auto resilient = resilient_stack(*rt.net, rate);
    const auto res = evaluate(det, *resilient, clean, adv.inputs, threads);

    auto naive = naive_stack(*rt.net, rate);
    const auto nav = evaluate(det, *naive, clean, adv.inputs, threads);

    const double n_total = static_cast<double>(res.verdicts.size());
    const double res_acc = 100.0 * res.fused.accuracy();
    const double nav_acc = 100.0 * nav.fused.accuracy();
    const double recovery = recovery_fraction(res);
    const double abstain_rate =
        100.0 * static_cast<double>(res.abstained) / n_total;
    const double degraded_rate =
        100.0 * static_cast<double>(res.degraded) / n_total;
    std::size_t retries = 0, outliers = 0;
    for (const auto& m : res.measurements) {
      retries += m.q.retries;
      outliers += m.q.outliers_rejected;
    }

    if (rate == 0.0) baseline_acc = res_acc;
    if (rate == kAcceptRate) {
      accept_acc = res_acc;
      accept_recovery = recovery;
    }

    table.add_row({text_table::num(rate, 2), text_table::num(res_acc, 2),
                   text_table::num(nav_acc, 2),
                   text_table::num(100.0 * recovery, 2),
                   text_table::num(abstain_rate, 2),
                   text_table::num(degraded_rate, 2), std::to_string(retries),
                   std::to_string(outliers)});
    rows_json << (i == 0 ? "" : ",") << "\n    {\"fault_rate\": " << rate
              << ", \"resilient_accuracy\": " << res_acc
              << ", \"naive_accuracy\": " << nav_acc
              << ", \"recovery\": " << recovery
              << ", \"abstain_rate\": " << abstain_rate
              << ", \"degraded_rate\": " << degraded_rate
              << ", \"retries\": " << retries
              << ", \"outliers_rejected\": " << outliers << "}";
  }

  // Self-check 1: the acceptance-rate fault storm replays bit for bit at
  // any thread count (fresh stacks so stream state is identical).
  auto t1 = resilient_stack(*rt.net, kAcceptRate);
  auto t4 = resilient_stack(*rt.net, kAcceptRate);
  const auto run1 = evaluate(det, *t1, clean, adv.inputs, 1);
  const auto run4 = evaluate(det, *t4, clean, adv.inputs, 4);
  const bool deterministic = same_measurements(run1.measurements,
                                               run4.measurements) &&
                             same_verdicts(run1.verdicts, run4.verdicts);

  // Self-check 2: recovery and accuracy at the acceptance rate.
  const double acc_drop = baseline_acc - accept_acc;
  const bool recovered = accept_recovery >= kMinRecovery;
  const bool accurate = std::abs(acc_drop) <= kMaxAccuracyDrop;

  std::ostringstream json;
  json << "{\n  \"bench\": \"robustness_faults\",\n  \"scenario\": \"S1\",\n"
       << "  \"repeats\": " << dcfg.repeats << ",\n  \"clean_inputs\": "
       << clean.size() << ",\n  \"adversarial_inputs\": " << adv.inputs.size()
       << ",\n  \"threads\": " << threads << ",\n  \"rates\": ["
       << rows_json.str() << "\n  ],\n  \"checks\": {\n"
       << "    \"deterministic_1_vs_4_threads\": "
       << (deterministic ? "true" : "false") << ",\n"
       << "    \"recovery_at_10pct\": " << accept_recovery << ",\n"
       << "    \"accuracy_drop_at_10pct\": " << acc_drop << ",\n"
       << "    \"recovery_ok\": " << (recovered ? "true" : "false") << ",\n"
       << "    \"accuracy_ok\": " << (accurate ? "true" : "false") << "\n"
       << "  }\n}\n";
  write_file("bench_results/BENCH_robustness_faults.json", json.str());

  bench::emit(table, "robustness_faults");
  std::cout << "\nchecks @ fault rate " << kAcceptRate << ": recovery "
            << text_table::num(100.0 * accept_recovery, 2) << "% ("
            << (recovered ? "ok" : "FAIL") << "), accuracy drop "
            << text_table::num(acc_drop, 2) << " pts ("
            << (accurate ? "ok" : "FAIL") << "), 1-vs-4-thread storms "
            << (deterministic ? "identical" : "DIFFER") << "\n";

  if (!deterministic || !recovered || !accurate) {
    std::cerr << "FAIL: resilience acceptance checks failed\n";
    return 1;
  }
  return 0;
}
