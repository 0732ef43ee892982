// Drift-aware detector operation: online baseline-drift monitoring,
// canary probing, and rolling recalibration.
//
// The detector's GMM templates are fitted offline against a fixed
// microarchitectural baseline. In a long-running deployment that baseline
// drifts — DVFS, co-tenant pressure, kernel updates — until every benign
// input looks anomalous (or every adversarial one looks benign). The
// machinery here closes the loop:
//
//   * Per-(class, event) sequential drift detectors run over the online
//     NLL stream: a two-sided tabular CUSUM and a two-sided Page–Hinkley
//     test over standardised NLL residuals, plus a windowed one-sample
//     Kolmogorov–Smirnov check of recent NLLs against the template's
//     stored NLL distribution. Each carries warn and alarm thresholds.
//
//   * Canary probes disambiguate drift from attack: the deployment
//     periodically re-measures a small pinned set of known-benign
//     calibration inputs. Baseline drift moves canary NLLs and victim
//     NLLs together; an attack wave moves only the victim stream. Only
//     canary-stream alarms ever trigger recalibration.
//
//   * Rolling recalibration: when a (class, event) cell alarms on canary
//     evidence it is quarantined — masked out of scoring exactly like an
//     unavailable counter, so verdicts fall back to the fail-closed
//     degraded/abstain policy — and once enough post-alarm canary
//     measurements accumulate in the class's bounded reservoir, the cell's
//     GMM is refitted through the threaded detector::fit path.
//
// Poisoning threat model: the reservoir is the only data that can rewrite
// the detector's notion of "benign", so only canary measurements ever
// enter it — never user traffic — and a canary whose prediction disagrees
// with its pinned label (or whose measurement is degraded) is rejected
// outright. An attacker who controls queries can therefore trip victim
// alarms (telemetry) but cannot steer a refit.
//
// Determinism: the controller is sequential state driven by measurement
// values; measurements are thread-invariant (hpc measurement engine) and
// refits go through detector::fit (bitwise identical at any thread
// count), so the whole monitor -> drift -> recalibrate loop replays
// bit-for-bit at any `threads` value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/detector.hpp"

namespace advh::core {

/// Thresholds and budgets for the drift layer. All sequential statistics
/// operate on standardised residuals z = (nll - nll_mean) / nll_stddev of
/// the scoring cell, so thresholds are in template-NLL sigma units.
struct drift_policy {
  /// |z| is clamped here before entering any sequential statistic. The
  /// clamp is deliberately tight: NLL grows quadratically in the tail, so
  /// one noisy probe of a legitimate outlier input can spike to z ~ 1e2
  /// and a loose clamp would let a single spike carry a CUSUM most of the
  /// way to alarm. At 8, one spike contributes at most (8 - slack) while
  /// sustained drift — every sample pinned at the clamp — still crosses
  /// the alarm in a handful of samples.
  double z_clamp = 8.0;
  /// CUSUM slack k: persistent residual bias up to this many sigmas per
  /// sample is absorbed. Deliberately generous: a pinned canary set
  /// re-samples the same inputs, whose NLLs sit at a fixed offset from
  /// the template-wide mean, and that offset must not integrate into an
  /// alarm. A genuine baseline step produces clamped residuals (~z_clamp
  /// per sample), so real drift still alarms within a sample or two.
  double cusum_slack = 2.0;
  double cusum_warn = 10.0;
  double cusum_alarm = 20.0;
  /// Page–Hinkley tolerance delta and thresholds. PH references its own
  /// running mean, so it tolerates canary-set bias natively; the alarm
  /// sits above the excursion a high-amplitude (but stationary) canary
  /// cycle can produce, and far below the ~z_clamp-per-sample excursion
  /// of a real baseline step.
  double ph_delta = 0.05;
  double ph_warn = 15.0;
  double ph_alarm = 30.0;
  /// Windowed one-sample KS test: D statistic of the last ks_window NLLs
  /// against N(nll_mean, nll_stddev). Needs at least ks_min_samples
  /// observations before it votes. The alarm bar is high for the same
  /// reason as the CUSUM slack: a biased-but-stationary canary window
  /// yields moderate D, while NLLs under real drift sit so deep in the
  /// reference tail that D approaches 1.
  std::size_t ks_window = 32;
  std::size_t ks_min_samples = 16;
  double ks_warn = 0.5;
  double ks_alarm = 0.9;
  /// A cell's first burn_in observations only estimate the stream's own
  /// mean residual (drift_cell::ref_offset); CUSUM and Page–Hinkley then
  /// accumulate residuals relative to that offset, so a canary set whose
  /// pinned inputs sit at a fixed distance from the template-wide mean
  /// starts from a centred baseline instead of integrating the distance.
  /// 0 disables the correction (residuals centred on the template mean).
  std::size_t burn_in = 8;
  /// Per-class canary reservoir bound (rows of event means).
  std::size_t reservoir_capacity = 64;
  /// Post-alarm canary rows required before a quarantined class refits
  /// (>= 2: detector::fit skips classes with fewer template rows).
  std::size_t min_refit_rows = 8;
};

enum class drift_status : std::uint8_t { stable = 0, warn = 1, alarm = 2 };

/// Serialisable state of one (class, event) drift cell. Pure data — the
/// warn/alarm decision is derived on demand by cell_status, so persisting
/// and restoring a cell is bit-exact.
struct drift_cell {
  /// Mean clamped residual over the burn-in prefix (see
  /// drift_policy::burn_in); subtracted from every later residual.
  double ref_offset = 0.0;
  // Two-sided tabular CUSUM over clamped, offset-centred z.
  double cusum_pos = 0.0;
  double cusum_neg = 0.0;
  // Two-sided Page–Hinkley: running mean of z, cumulative sums and their
  // extrema for the upward and downward tests.
  double ph_mean = 0.0;
  double ph_up = 0.0;
  double ph_up_min = 0.0;
  double ph_down = 0.0;
  double ph_down_max = 0.0;
  std::uint64_t samples = 0;
  /// Most recent NLLs, oldest first (bounded by drift_policy::ks_window).
  std::vector<double> window;
  /// 1 while the cell is quarantined (canary alarm, refit pending).
  std::uint8_t quarantined = 0;
};

/// Advances one cell with an observed NLL against its template reference
/// distribution (nll_mean / nll_stddev from the cell's event_model).
void cell_observe(drift_cell& cell, const drift_policy& policy, double nll,
                  double nll_mean, double nll_stddev);

/// Worst verdict of the cell's sequential detectors (CUSUM and
/// Page–Hinkley) under `policy`. The windowed KS vote needs the cell's
/// reference distribution, so the controller folds it in separately.
drift_status cell_status(const drift_cell& cell, const drift_policy& policy);

/// One-sample Kolmogorov–Smirnov D statistic of `sample` against
/// N(mean, stddev). Exposed for tests; requires a non-empty sample.
double ks_statistic(std::span<const double> sample, double mean,
                    double stddev);

/// The controller's full serialisable state (ADET v4 drift section).
struct drift_state {
  drift_policy policy;
  /// Canary- and victim-stream cells, indexed [class][event].
  std::vector<std::vector<drift_cell>> canary;
  std::vector<std::vector<drift_cell>> victim;
  /// Per-class bounded FIFO of accepted canary measurement rows (event
  /// means in config event order). Only canary traffic ever lands here.
  std::vector<std::vector<std::vector<double>>> reservoir;
  std::uint64_t canaries_accepted = 0;
  std::uint64_t canaries_rejected = 0;
  std::uint64_t victims_scored = 0;
  std::uint64_t quarantined_verdicts = 0;
  std::uint64_t recalibrations = 0;
};

/// Aggregated view for dashboards and the examples' incident reports.
struct drift_report {
  std::size_t cells = 0;  ///< modelled (class, event) cells
  std::size_t canary_warn = 0;
  std::size_t canary_alarm = 0;
  std::size_t victim_warn = 0;
  std::size_t victim_alarm = 0;
  std::size_t quarantined_cells = 0;
  std::uint64_t canaries_accepted = 0;
  std::uint64_t canaries_rejected = 0;
  std::uint64_t victims_scored = 0;
  std::uint64_t quarantined_verdicts = 0;
  std::uint64_t recalibrations = 0;
  /// Some canary cell is in alarm: the baseline itself has moved.
  bool drift_suspected = false;
  /// Some victim cell is in alarm while its canary cell is stable: the
  /// victim NLL stream moved on its own — an attack wave, not drift.
  bool attack_suspected = false;
};

/// Owns a detector plus the drift state and runs the feedback loop. All
/// mutating calls are sequential (one controller per deployment loop);
/// the parallelism lives below, in measurement and refit.
class drift_controller {
 public:
  /// Fresh controller around a fitted detector.
  drift_controller(detector det, drift_policy policy = drift_policy{});

  /// Resumes from a persisted checkpoint (see core/detector_io). The
  /// state's grids must match the detector's class/event dimensions.
  drift_controller(detector det, drift_state state);

  const detector& det() const noexcept { return det_; }
  const drift_policy& policy() const noexcept { return state_.policy; }
  const drift_state& state() const noexcept { return state_; }

  /// Feeds one canary measurement with its pinned ground-truth label.
  /// Returns false — and records a rejection — when the measurement is
  /// untrustworthy: prediction disagrees with the label, or the
  /// measurement is degraded. Accepted rows update the canary drift cells
  /// and enter the class reservoir; a cell crossing its alarm threshold
  /// is quarantined and the class reservoir restarts so only post-alarm
  /// (new-baseline) rows feed the eventual refit.
  bool observe_canary(const hpc::measurement& m, std::size_t label);

  /// Scores one user-traffic measurement. Quarantined cells of the
  /// predicted class are masked out exactly like unavailable counters, so
  /// the verdict follows the fail-closed degraded/abstain policy while a
  /// refit is pending. Victim drift cells update from the scored NLLs —
  /// telemetry only, never recalibration. User traffic never touches the
  /// reservoir.
  verdict score_victim(const hpc::measurement& m);

  /// True when some quarantined class has accumulated enough post-alarm
  /// canary rows to refit.
  bool recalibration_due() const;

  /// Refits every quarantined class whose reservoir holds at least
  /// min_refit_rows rows: the class's quarantined cells get fresh GMMs +
  /// thresholds fitted (via detector::fit, bitwise thread-invariant) from
  /// the reservoir, their drift cells reset against the new reference,
  /// and the quarantine lifts. Returns the classes refitted.
  std::vector<std::size_t> recalibrate(std::size_t threads = 0);

  drift_report report() const;

 private:
  void validate_state_shape() const;
  /// Quarantined classes whose reservoir holds at least min_refit_rows
  /// rows, ascending.
  std::vector<std::size_t> due_classes() const;

  detector det_;
  drift_state state_;
};

}  // namespace advh::core
