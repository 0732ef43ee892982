// Drift-recovery sweep: the drift-aware operation loop (canary probes ->
// sequential drift detection -> quarantine -> rolling recalibration)
// exercised against injected baseline drift of varying magnitude and
// shape, optionally composed with counter faults.
//
// Per configuration the bench runs the full deployment loop over a
// balanced clean + adversarial pool and reports, per phase: fused
// accuracy, silent benign false positives during the quarantine window
// (clean inputs flagged *without* an abstention — the failure mode the
// quarantine exists to prevent), abstentions, and recalibration counts.
// Four self-checks gate the exit code:
//   * no-drift control — a drift-free run must trigger zero
//     recalibrations (no false canary alarms);
//   * attack control — an attack-only victim stream (canaries stable)
//     must trigger zero recalibrations: victim-side anomalies are
//     telemetry, never a reason to rewrite the baseline;
//   * fail-closed window — under the 2x cache-miss step, the silent
//     benign false-positive rate between drift onset and recalibration
//     (clean inputs flagged without an abstention) must not exceed the
//     no-drift run's rate on the same epochs: the drift-induced FPR spike
//     is absorbed by quarantine/abstention, never silent;
//   * recovery — post-recalibration accuracy must come back to within
//     2 points of the no-drift baseline;
// plus a determinism check: the whole loop (measure -> drift -> refit),
// serialised as an ADET v4 checkpoint, must be bitwise identical when run
// with 1 and with 4 measurement threads.
//
// Writes bench_results/BENCH_drift_recovery.{csv,json}.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/bench_common.hpp"
#include "core/detector_io.hpp"
#include "hpc/drift_backend.hpp"
#include "hpc/fault_backend.hpp"
#include "hpc/resilient_monitor.hpp"

using namespace advh;

namespace {

constexpr double kMaxAccuracyDrop = 2.0;     // percentage points
/// The detector has a baseline clean FPR even without drift; the fail-
/// closed gate bounds the *excess* silent-FP rate during the quarantine
/// window over the no-drift run's rate on the same epochs. A drift-induced
/// FPR spike leaking through unabstained would blow far past this.
constexpr double kMaxSilentFpExcess = 2.0;   // percentage points
constexpr std::size_t kWarmupEpochs = 2;

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

/// sim [-> drift] [-> fault] -> resilient stack with fixed seeds. Drift
/// sits closest to the hardware: faults corrupt an already-drifted
/// baseline, the order deployments experience.
hpc::monitor_ptr make_stack(nn::model& m,
                            const std::optional<hpc::drift_profile>& drift,
                            double fault_rate) {
  std::unique_ptr<hpc::raw_reader> stack = bench::make_reader(m);
  if (drift.has_value()) {
    stack = std::make_unique<hpc::drift_backend>(std::move(stack), *drift);
  }
  if (fault_rate > 0.0) {
    stack = std::make_unique<hpc::fault_backend>(std::move(stack),
                                                 faults_for(fault_rate));
  }
  return std::make_unique<hpc::resilient_monitor>(std::move(stack));
}

struct epoch_stats {
  core::detection_confusion fused;
  std::size_t silent_fp = 0;   ///< clean flagged without abstention
  std::size_t abstained = 0;
  std::size_t quarantined_at_eval = 0;
  std::uint64_t recalibrations_before = 0;  ///< cumulative, at epoch start
};

struct run_result {
  std::vector<epoch_stats> epochs;
  core::detection_confusion overall;
  std::uint64_t recalibrations = 0;
  std::size_t canaries_rejected = 0;
  /// Serialised ADET v4 checkpoint of the final controller state (the
  /// determinism check compares these byte-for-byte across thread counts).
  std::string checkpoint_bytes;
};

/// Runs the deployment loop: per epoch, probe the canaries, score the
/// clean and adversarial pools through the controller, then recalibrate
/// any quarantined class whose reservoir has filled. Epoch order puts
/// recalibration last so the quarantine window is observable in the same
/// epoch the canaries alarmed.
run_result run_loop(const core::detector& det, const core::drift_policy& policy,
                    hpc::hpc_monitor& monitor, const core::canary_set& canaries,
                    std::span<const tensor> clean, std::span<const tensor> adv,
                    std::size_t epochs, std::size_t threads) {
  core::drift_controller ctl(det, policy);
  run_result out;
  const auto& cfg = ctl.det().config();
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    epoch_stats st;
    st.recalibrations_before = ctl.state().recalibrations;
    core::probe_canaries(ctl, monitor, canaries, threads);
    st.quarantined_at_eval = ctl.report().quarantined_cells;

    const auto eval = [&](std::span<const tensor> inputs, bool adversarial) {
      const auto ms =
          monitor.measure_batch(inputs, cfg.events, cfg.repeats, threads);
      for (const auto& m : ms) {
        const auto v = ctl.score_victim(m);
        st.fused.push(adversarial, v.adversarial_any);
        out.overall.push(adversarial, v.adversarial_any);
        if (v.abstained) ++st.abstained;
        if (!adversarial && v.adversarial_any && !v.abstained) ++st.silent_fp;
      }
    };
    eval(clean, false);
    eval(adv, true);

    if (ctl.recalibration_due()) ctl.recalibrate(threads);
    out.epochs.push_back(std::move(st));
  }
  out.recalibrations = ctl.state().recalibrations;
  out.canaries_rejected =
      static_cast<std::size_t>(ctl.state().canaries_rejected);

  const std::string tmp =
      (std::filesystem::temp_directory_path() /
       ("advh_bench_drift_ckpt." + std::to_string(::getpid()) + ".adet"))
          .string();
  core::save_checkpoint(ctl, tmp);
  std::ifstream is(tmp, std::ios::binary);
  out.checkpoint_bytes.assign(std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>());
  std::remove(tmp.c_str());
  return out;
}

/// Accuracy (percent) over the epochs [from, to).
double phase_accuracy(const run_result& r, std::size_t from, std::size_t to) {
  core::detection_confusion c;
  for (std::size_t e = from; e < to && e < r.epochs.size(); ++e) {
    c.merge(r.epochs[e].fused);
  }
  return c.total() == 0 ? 0.0 : 100.0 * c.accuracy();
}

/// Epochs whose quarantine was active at eval time (the fail-closed
/// window of a drifted run).
std::vector<std::size_t> window_epochs(const run_result& r) {
  std::vector<std::size_t> w;
  for (std::size_t e = 0; e < r.epochs.size(); ++e) {
    if (r.epochs[e].quarantined_at_eval > 0) w.push_back(e);
  }
  return w;
}

/// Silent benign false positives summed over the given epochs.
std::size_t silent_fp_over(const run_result& r,
                           std::span<const std::size_t> epochs) {
  std::size_t n = 0;
  for (const std::size_t e : epochs) {
    if (e < r.epochs.size()) n += r.epochs[e].silent_fp;
  }
  return n;
}

/// First epoch that starts with every recalibration already applied and
/// no quarantine active at eval (epochs.size() when never recovered).
std::size_t recovery_epoch(const run_result& r) {
  for (std::size_t e = 0; e < r.epochs.size(); ++e) {
    if (r.epochs[e].recalibrations_before > 0 &&
        r.epochs[e].quarantined_at_eval == 0) {
      return e;
    }
  }
  return r.epochs.size();
}

}  // namespace

int main(int argc, char** argv) {
  const auto threads_opt = bench::parse_threads(
      argc, argv, "bench_drift_recovery",
      "drift-aware detection loop under injected baseline drift: quarantine, "
      "canary-gated recalibration, and recovery accuracy");
  if (!threads_opt) return 0;
  const std::size_t threads = *threads_opt;

  auto rt = bench::prepare(data::scenario_id::s1);

  core::detector_config dcfg;
  dcfg.events = hpc::core_events();
  dcfg.repeats = 10;

  // The injected drift models co-tenant cache pressure: it inflates the
  // cache events of the detector's set while instructions/branches stay
  // calibrated, so quarantine masks exactly the drifted cells and verdicts
  // continue on the healthy ones (degraded, fail-closed).
  const std::vector<hpc::hpc_event> drifted_events = {
      hpc::hpc_event::cache_references, hpc::hpc_event::cache_misses};

  // Calibrate on the clean baseline; drift arrives after deployment.
  auto fit_monitor = bench::make_monitor(*rt.net);
  const auto det =
      bench::fit_detector(*fit_monitor, dcfg, rt.train, bench::scaled(30));

  const auto canaries =
      core::pick_canaries(*rt.net, rt.test, bench::scaled(8), 11);

  std::vector<tensor> clean;
  for (std::size_t cls = 0; cls < rt.test.num_classes; ++cls) {
    auto v = bench::clean_of_class(*rt.net, rt.test, cls, bench::scaled(5));
    for (auto& x : v) clean.push_back(std::move(x));
  }
  auto pool = bench::attack_pool(rt, bench::scaled(40));
  auto adv = bench::collect_adversarial(*rt.net, pool,
                                        attack::attack_kind::fgsm,
                                        attack::attack_goal::untargeted, 0.1f,
                                        0, clean.size());
  std::cout << "S1 untargeted FGSM eps=0.1: " << adv.inputs.size()
            << " AEs over " << adv.attempted << " attempts; clean pool "
            << clean.size() << "; canaries " << canaries.inputs.size()
            << "\n\n";

  const std::size_t epochs = 6;
  const std::size_t per_epoch =
      canaries.inputs.size() + clean.size() + adv.inputs.size();
  const std::uint64_t onset = kWarmupEpochs * per_epoch *
                              hpc::resilient_monitor::attempt_stride;
  core::drift_policy policy;

  const auto profile_for = [&](hpc::drift_profile::shape_kind shape,
                               double magnitude, std::uint64_t ramp) {
    hpc::drift_profile p;
    p.shape = shape;
    p.magnitude = magnitude;
    p.onset_stream = onset;
    p.ramp_streams = ramp;
    p.events = drifted_events;
    return p;
  };

  struct config {
    std::string label;
    std::optional<hpc::drift_profile> drift;
    double fault_rate = 0.0;
    bool adversarial_only = false;
  };
  std::vector<config> configs;
  configs.push_back({"no-drift", std::nullopt, 0.0, false});
  configs.push_back({"attack-only", std::nullopt, 0.0, true});
  for (const double mag : {1.5, 2.0, 3.0}) {
    configs.push_back(
        {"step x" + text_table::num(mag, 1),
         profile_for(hpc::drift_profile::shape_kind::step, mag, 0), 0.0,
         false});
  }
  configs.push_back(
      {"ramp x2.0",
       profile_for(hpc::drift_profile::shape_kind::ramp, 2.0,
                   per_epoch * hpc::resilient_monitor::attempt_stride),
       0.0, false});
  configs.push_back(
      {"step x2.0 + faults 5%",
       profile_for(hpc::drift_profile::shape_kind::step, 2.0, 0), 0.05,
       false});

  text_table table(
      "Drift recovery: baseline-drift sweep (scenario S1, fused verdict)");
  table.set_header({"config", "overall acc %", "pre-drift acc %",
                    "post-recal acc %", "window silent FP", "abstained",
                    "recals", "recovered @ epoch"});

  double baseline_acc = 0.0;
  run_result baseline_run;  // the no-drift control
  run_result gate_run;      // the gated step x2.0 run
  bool controls_ok = true;
  std::ostringstream rows_json;

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = configs[i];
    auto monitor = make_stack(*rt.net, c.drift, c.fault_rate);
    const std::span<const tensor> clean_span =
        c.adversarial_only ? std::span<const tensor>{} : clean;
    const auto r = run_loop(det, policy, *monitor, canaries, clean_span,
                            adv.inputs, epochs, threads);

    const double overall_acc = 100.0 * r.overall.accuracy();
    const double pre_acc = phase_accuracy(r, 0, kWarmupEpochs);
    const std::size_t recovered = recovery_epoch(r);
    const double post_acc = phase_accuracy(r, recovered, epochs);
    const auto win = window_epochs(r);
    const std::size_t silent = silent_fp_over(r, win);
    std::size_t abstained = 0;
    for (const auto& st : r.epochs) abstained += st.abstained;

    if (c.label == "no-drift") {
      baseline_acc = overall_acc;
      baseline_run = r;
      if (r.recalibrations != 0) controls_ok = false;
    }
    if (c.label == "attack-only" && r.recalibrations != 0) controls_ok = false;
    if (c.label == "step x2.0") gate_run = r;

    const bool drifted = c.drift.has_value();
    table.add_row(
        {c.label, text_table::num(overall_acc, 2), text_table::num(pre_acc, 2),
         drifted && recovered < epochs ? text_table::num(post_acc, 2) : "-",
         std::to_string(silent), std::to_string(abstained),
         std::to_string(r.recalibrations),
         drifted ? (recovered < epochs ? std::to_string(recovered) : "never")
                 : "-"});
    rows_json << (i == 0 ? "" : ",") << "\n    {\"config\": \"" << c.label
              << "\", \"overall_accuracy\": " << overall_acc
              << ", \"pre_drift_accuracy\": " << pre_acc
              << ", \"post_recal_accuracy\": " << post_acc
              << ", \"window_silent_fp\": " << silent
              << ", \"abstained\": " << abstained
              << ", \"recalibrations\": " << r.recalibrations
              << ", \"recovery_epoch\": " << recovered << "}";
  }

  // Gates on the canonical 2x cache-miss step.
  const std::size_t gate_recovered = recovery_epoch(gate_run);
  const double gate_post_acc = phase_accuracy(gate_run, gate_recovered, epochs);
  const auto gate_window = window_epochs(gate_run);
  const double window_clean =
      static_cast<double>(gate_window.size() * clean.size());
  const double excess_fp_pts =
      window_clean == 0.0
          ? 0.0
          : 100.0 *
                (static_cast<double>(silent_fp_over(gate_run, gate_window)) -
                 static_cast<double>(
                     silent_fp_over(baseline_run, gate_window))) /
                window_clean;
  const bool fail_closed =
      !gate_window.empty() && excess_fp_pts <= kMaxSilentFpExcess;
  const bool recovered_ok = gate_recovered < epochs &&
                            gate_run.recalibrations > 0 &&
                            baseline_acc - gate_post_acc <= kMaxAccuracyDrop;

  // Determinism: the whole loop must serialise to identical checkpoint
  // bytes at 1 and 4 measurement threads (fresh stacks, fresh controller).
  const auto det_profile =
      profile_for(hpc::drift_profile::shape_kind::step, 2.0, 0);
  auto m1 = make_stack(*rt.net, det_profile, 0.0);
  auto m4 = make_stack(*rt.net, det_profile, 0.0);
  const auto r1 =
      run_loop(det, policy, *m1, canaries, clean, adv.inputs, epochs, 1);
  const auto r4 =
      run_loop(det, policy, *m4, canaries, clean, adv.inputs, epochs, 4);
  const bool deterministic = !r1.checkpoint_bytes.empty() &&
                             r1.checkpoint_bytes == r4.checkpoint_bytes;

  std::ostringstream json;
  json << "{\n  \"bench\": \"drift_recovery\",\n  \"scenario\": \"S1\",\n"
       << "  \"repeats\": " << dcfg.repeats << ",\n  \"clean_inputs\": "
       << clean.size() << ",\n  \"adversarial_inputs\": " << adv.inputs.size()
       << ",\n  \"canaries\": " << canaries.inputs.size()
       << ",\n  \"epochs\": " << epochs << ",\n  \"drift_onset_epoch\": "
       << kWarmupEpochs << ",\n  \"threads\": " << threads
       << ",\n  \"configs\": [" << rows_json.str() << "\n  ],\n"
       << "  \"checks\": {\n"
       << "    \"no_drift_and_attack_only_zero_recals\": "
       << (controls_ok ? "true" : "false") << ",\n"
       << "    \"fail_closed_quarantine_window\": "
       << (fail_closed ? "true" : "false") << ",\n"
       << "    \"window_excess_silent_fp_points\": " << excess_fp_pts
       << ",\n"
       << "    \"post_recal_accuracy\": " << gate_post_acc << ",\n"
       << "    \"baseline_accuracy\": " << baseline_acc << ",\n"
       << "    \"recovered_ok\": " << (recovered_ok ? "true" : "false")
       << ",\n"
       << "    \"deterministic_1_vs_4_threads\": "
       << (deterministic ? "true" : "false") << "\n  }\n}\n";
  write_file("bench_results/BENCH_drift_recovery.json", json.str());

  bench::emit(table, "drift_recovery");
  std::cout << "\nchecks @ step x2.0: controls "
            << (controls_ok ? "ok" : "FAIL") << ", fail-closed window "
            << (fail_closed ? "ok" : "FAIL") << " (excess silent FP "
            << text_table::num(excess_fp_pts, 2) << " pts), post-recal accuracy "
            << text_table::num(gate_post_acc, 2) << "% vs baseline "
            << text_table::num(baseline_acc, 2) << "% ("
            << (recovered_ok ? "ok" : "FAIL") << "), 1-vs-4-thread loop "
            << (deterministic ? "identical" : "DIFFERS") << "\n";

  if (!controls_ok || !fail_closed || !recovered_ok || !deterministic) {
    std::cerr << "FAIL: drift-recovery acceptance checks failed\n";
    return 1;
  }
  return 0;
}
