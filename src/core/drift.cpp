#include "core/drift.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace advh::core {

namespace {

/// Guards the standardisation against degenerate (constant-NLL) template
/// cells; residuals are then measured in absolute NLL units.
constexpr double kMinSigma = 1e-12;

/// Standard normal CDF.
double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

drift_status status_of(double stat, double warn, double alarm) {
  if (stat >= alarm) return drift_status::alarm;
  if (stat >= warn) return drift_status::warn;
  return drift_status::stable;
}

drift_status worst(drift_status a, drift_status b) {
  return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b) ? a : b;
}

void check_policy(const drift_policy& p) {
  ADVH_CHECK_MSG(p.z_clamp > 0.0, "z_clamp must be positive");
  ADVH_CHECK_MSG(p.cusum_slack >= 0.0, "cusum_slack must be non-negative");
  ADVH_CHECK_MSG(p.cusum_warn > 0.0 && p.cusum_alarm >= p.cusum_warn,
                 "cusum thresholds must satisfy 0 < warn <= alarm");
  ADVH_CHECK_MSG(p.ph_delta >= 0.0, "ph_delta must be non-negative");
  ADVH_CHECK_MSG(p.ph_warn > 0.0 && p.ph_alarm >= p.ph_warn,
                 "Page-Hinkley thresholds must satisfy 0 < warn <= alarm");
  ADVH_CHECK_MSG(p.ks_window >= 2 && p.ks_min_samples >= 2 &&
                     p.ks_min_samples <= p.ks_window,
                 "KS window must hold >= 2 samples and cover ks_min_samples");
  ADVH_CHECK_MSG(p.ks_warn > 0.0 && p.ks_warn <= p.ks_alarm &&
                     p.ks_alarm <= 1.0,
                 "KS thresholds must satisfy 0 < warn <= alarm <= 1");
  ADVH_CHECK_MSG(p.min_refit_rows >= 2,
                 "min_refit_rows must be >= 2 (a GMM needs two rows)");
  ADVH_CHECK_MSG(p.reservoir_capacity >= p.min_refit_rows,
                 "reservoir_capacity must hold at least min_refit_rows rows");
}

}  // namespace

double ks_statistic(std::span<const double> sample, double mean,
                    double stddev) {
  ADVH_CHECK_MSG(!sample.empty(), "KS statistic needs a non-empty sample");
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const double sigma = std::max(stddev, kMinSigma);
  const double n = static_cast<double>(sorted.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const double f = normal_cdf((sorted[i] - mean) / sigma);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(f - lo, hi - f));
  }
  return d;
}

void cell_observe(drift_cell& cell, const drift_policy& policy, double nll,
                  double nll_mean, double nll_stddev) {
  const double sigma = std::max(nll_stddev, kMinSigma);
  const double z =
      std::clamp((nll - nll_mean) / sigma, -policy.z_clamp, policy.z_clamp);

  cell.samples += 1;
  if (cell.samples <= policy.burn_in) {
    // Burn-in: learn the stream's own centre instead of accumulating
    // evidence; a pinned canary set's fixed offset from the template-wide
    // mean must not read as drift.
    cell.ref_offset += (z - cell.ref_offset) / static_cast<double>(cell.samples);
  } else {
    const double zc = z - cell.ref_offset;
    cell.cusum_pos = std::max(0.0, cell.cusum_pos + zc - policy.cusum_slack);
    cell.cusum_neg = std::max(0.0, cell.cusum_neg - zc - policy.cusum_slack);

    const double n = static_cast<double>(cell.samples - policy.burn_in);
    cell.ph_mean += (zc - cell.ph_mean) / n;
    cell.ph_up += zc - cell.ph_mean - policy.ph_delta;
    cell.ph_up_min = std::min(cell.ph_up_min, cell.ph_up);
    cell.ph_down += zc - cell.ph_mean + policy.ph_delta;
    cell.ph_down_max = std::max(cell.ph_down_max, cell.ph_down);
  }

  cell.window.push_back(nll);
  if (cell.window.size() > policy.ks_window) {
    cell.window.erase(cell.window.begin());
  }
}

drift_status cell_status(const drift_cell& cell, const drift_policy& policy) {
  const double cusum = std::max(cell.cusum_pos, cell.cusum_neg);
  drift_status s = status_of(cusum, policy.cusum_warn, policy.cusum_alarm);

  const double ph = std::max(cell.ph_up - cell.ph_up_min,
                             cell.ph_down_max - cell.ph_down);
  s = worst(s, status_of(ph, policy.ph_warn, policy.ph_alarm));
  return s;
}

namespace {

/// Full three-detector verdict for a cell whose reference distribution is
/// known (the controller always has it via the event model).
drift_status cell_status_with_reference(const drift_cell& cell,
                                        const drift_policy& policy,
                                        double nll_mean, double nll_stddev) {
  drift_status s = cell_status(cell, policy);
  if (cell.window.size() >= policy.ks_min_samples) {
    const double d = ks_statistic(cell.window, nll_mean, nll_stddev);
    s = worst(s, status_of(d, policy.ks_warn, policy.ks_alarm));
  }
  return s;
}

}  // namespace

drift_controller::drift_controller(detector det, drift_policy policy)
    : det_(std::move(det)) {
  check_policy(policy);
  state_.policy = policy;
  const std::size_t classes = det_.num_classes();
  const std::size_t events = det_.config().events.size();
  state_.canary.assign(classes, std::vector<drift_cell>(events));
  state_.victim.assign(classes, std::vector<drift_cell>(events));
  state_.reservoir.assign(classes, {});
}

drift_controller::drift_controller(detector det, drift_state state)
    : det_(std::move(det)), state_(std::move(state)) {
  check_policy(state_.policy);
  validate_state_shape();
}

void drift_controller::validate_state_shape() const {
  const std::size_t classes = det_.num_classes();
  const std::size_t events = det_.config().events.size();
  ADVH_CHECK_MSG(state_.canary.size() == classes &&
                     state_.victim.size() == classes &&
                     state_.reservoir.size() == classes,
                 "drift state class dimension mismatch");
  for (std::size_t cls = 0; cls < classes; ++cls) {
    ADVH_CHECK_MSG(state_.canary[cls].size() == events &&
                       state_.victim[cls].size() == events,
                   "drift state event dimension mismatch");
    for (const auto& row : state_.reservoir[cls]) {
      ADVH_CHECK_MSG(row.size() == events,
                     "reservoir row width must equal event count");
    }
  }
}

bool drift_controller::observe_canary(const hpc::measurement& m,
                                      std::size_t label) {
  ADVH_CHECK(label < det_.num_classes());
  ADVH_CHECK_MSG(m.mean_counts.size() == det_.config().events.size(),
                 "measurement width must equal event count");
  // Poisoning guard: the reservoir rewrites the detector's notion of
  // benign, so only a canary that still behaves like its pinned label —
  // correct prediction, fully trusted measurement — may contribute.
  if (m.predicted != label || m.q.degraded()) {
    state_.canaries_rejected += 1;
    return false;
  }

  const std::size_t events = det_.config().events.size();
  auto& cells = state_.canary[label];
  bool class_was_quarantined = false;
  for (const drift_cell& c : cells) {
    class_was_quarantined = class_was_quarantined || c.quarantined != 0;
  }

  for (std::size_t e = 0; e < events; ++e) {
    const auto& em = det_.model_for(label, e);
    if (!em.has_value()) continue;
    drift_cell& cell = cells[e];
    cell_observe(cell, state_.policy, em->model.nll(m.mean_counts[e]),
                 em->nll_mean, em->nll_stddev);
    if (cell.quarantined == 0 &&
        cell_status_with_reference(cell, state_.policy, em->nll_mean,
                                   em->nll_stddev) == drift_status::alarm) {
      cell.quarantined = 1;
      if (!class_was_quarantined) {
        // First alarm of this episode: the rows gathered so far describe
        // the *old* baseline — restart the reservoir so the refit sees
        // only post-alarm (new-baseline) canaries.
        state_.reservoir[label].clear();
        class_was_quarantined = true;
      }
    }
  }

  auto& pool = state_.reservoir[label];
  pool.push_back(m.mean_counts);
  if (pool.size() > state_.policy.reservoir_capacity) {
    pool.erase(pool.begin());
  }
  state_.canaries_accepted += 1;
  return true;
}

verdict drift_controller::score_victim(const hpc::measurement& m) {
  ADVH_CHECK(m.predicted < det_.num_classes());
  ADVH_CHECK_MSG(m.mean_counts.size() == det_.config().events.size(),
                 "measurement width must equal event count");
  const std::size_t events = det_.config().events.size();

  // Quarantined cells are masked exactly like unavailable counters, so
  // the verdict inherits the fail-closed degraded/abstain policy from the
  // resilience layer while the refit is pending.
  std::vector<std::uint8_t> mask(events, 1);
  for (std::size_t e = 0; e < events; ++e) {
    if (!m.q.event_available(e)) mask[e] = 0;
  }
  bool quarantine_masked = false;
  for (std::size_t e = 0; e < events; ++e) {
    if (state_.canary[m.predicted][e].quarantined != 0 && mask[e] != 0) {
      mask[e] = 0;
      quarantine_masked = true;
    }
  }

  verdict v = det_.score(m.predicted, m.mean_counts, mask);

  // Victim-stream telemetry: the attack-vs-drift disambiguation needs the
  // victim NLL stream tracked with the same machinery. Never feeds the
  // reservoir and never triggers recalibration.
  for (std::size_t e = 0; e < events; ++e) {
    if (mask[e] == 0) continue;
    const auto& em = det_.model_for(m.predicted, e);
    if (!em.has_value()) continue;
    cell_observe(state_.victim[m.predicted][e], state_.policy, v.nll[e],
                 em->nll_mean, em->nll_stddev);
  }

  state_.victims_scored += 1;
  if (quarantine_masked) state_.quarantined_verdicts += 1;
  return v;
}

std::vector<std::size_t> drift_controller::due_classes() const {
  std::vector<std::size_t> due;
  for (std::size_t cls = 0; cls < det_.num_classes(); ++cls) {
    bool quarantined = false;
    for (const drift_cell& c : state_.canary[cls]) {
      quarantined = quarantined || c.quarantined != 0;
    }
    if (quarantined &&
        state_.reservoir[cls].size() >= state_.policy.min_refit_rows) {
      due.push_back(cls);
    }
  }
  return due;
}

bool drift_controller::recalibration_due() const {
  return !due_classes().empty();
}

std::vector<std::size_t> drift_controller::recalibrate(std::size_t threads) {
  std::vector<std::size_t> due = due_classes();
  if (due.empty()) return due;

  const std::size_t events = det_.config().events.size();
  benign_template tpl(det_.num_classes(), events);
  for (const std::size_t cls : due) {
    for (const auto& row : state_.reservoir[cls]) tpl.add_row(cls, row);
  }
  // The refit rides the same threaded fit path as the offline phase, so
  // the recalibrated bank is bitwise identical at any thread count — but
  // with k_max forced to 1: the reservoir holds repeated probes of a few
  // pinned inputs, and a multi-component fit would place a tight mode on
  // each probe input and assign every other benign input an enormous
  // NLL. A pooled single Gaussian spans the canaries' cross-input spread
  // instead.
  detector_config refit_cfg = det_.config();
  refit_cfg.k_max = 1;
  const detector refit = detector::fit(tpl, refit_cfg, threads);

  std::vector<std::vector<std::optional<event_model>>> grid(
      det_.num_classes(), std::vector<std::optional<event_model>>(events));
  for (std::size_t cls = 0; cls < det_.num_classes(); ++cls) {
    for (std::size_t e = 0; e < events; ++e) {
      grid[cls][e] = det_.model_for(cls, e);
    }
  }
  for (const std::size_t cls : due) {
    for (std::size_t e = 0; e < events; ++e) {
      drift_cell& cell = state_.canary[cls][e];
      if (cell.quarantined == 0) continue;
      const auto& fresh = refit.model_for(cls, e);
      ADVH_CHECK_MSG(fresh.has_value(),
                     "refit produced no model for a quarantined cell");
      grid[cls][e] = fresh;
      // The reference distribution changed: both streams restart against
      // the new baseline.
      cell = drift_cell{};
      state_.victim[cls][e] = drift_cell{};
    }
  }
  det_ = detector::from_parts(det_.config(), std::move(grid));
  state_.recalibrations += due.size();
  return due;
}

drift_report drift_controller::report() const {
  drift_report r;
  r.canaries_accepted = state_.canaries_accepted;
  r.canaries_rejected = state_.canaries_rejected;
  r.victims_scored = state_.victims_scored;
  r.quarantined_verdicts = state_.quarantined_verdicts;
  r.recalibrations = state_.recalibrations;

  for (std::size_t cls = 0; cls < det_.num_classes(); ++cls) {
    for (std::size_t e = 0; e < det_.config().events.size(); ++e) {
      const auto& em = det_.model_for(cls, e);
      if (!em.has_value()) continue;
      r.cells += 1;
      const drift_status canary = cell_status_with_reference(
          state_.canary[cls][e], state_.policy, em->nll_mean, em->nll_stddev);
      const drift_status victim = cell_status_with_reference(
          state_.victim[cls][e], state_.policy, em->nll_mean, em->nll_stddev);
      if (canary == drift_status::warn) r.canary_warn += 1;
      if (canary == drift_status::alarm) r.canary_alarm += 1;
      if (victim == drift_status::warn) r.victim_warn += 1;
      if (victim == drift_status::alarm) r.victim_alarm += 1;
      const bool quarantined = state_.canary[cls][e].quarantined != 0;
      if (quarantined) r.quarantined_cells += 1;
      if (canary == drift_status::alarm || quarantined) {
        r.drift_suspected = true;
      }
      if (victim == drift_status::alarm && canary != drift_status::alarm &&
          !quarantined) {
        r.attack_suspected = true;
      }
    }
  }
  return r;
}

}  // namespace advh::core
