// AdvHunter detector (Sections 5.2–5.4 of the paper).
//
// Offline: per output category c and HPC event n, the defender measures M
// clean validation inputs (R-repeat means), fits a univariate GMM with BIC
// order selection, and derives the three-sigma NLL threshold
// Delta_c^n = mu_L + 3 sigma_L over the template's NLL distribution L_c^n.
//
// Online: an unknown input is measured the same way; its NLL under the
// GMM of its *predicted* class is compared against Delta: above the
// threshold => flagged adversarial for that event.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gmm/gmm.hpp"
#include "hpc/monitor.hpp"

namespace advh::core {

struct detector_config {
  std::vector<hpc::hpc_event> events;  ///< the N monitored events
  std::size_t repeats = 10;            ///< the paper's R
  std::size_t k_max = 4;               ///< BIC scan upper bound
  double sigma_multiplier = 3.0;       ///< three-sigma rule
  /// Verdict policy for predictions landing in a class without a fitted
  /// model (no template data): flag as adversarial (true, fail-closed) or
  /// pass as benign (false). An unmodelled class means the defender never
  /// observed that behaviour — the paper's threat model treats unknown
  /// behaviour as suspect, so fail-closed is the default.
  bool flag_unmodeled = true;
  /// Degraded-input policy: measurements may arrive with some configured
  /// events unavailable (lost counters, exhausted retries — see
  /// hpc::measurement::quality). Scoring proceeds over the surviving
  /// modelled subset; when fewer than this many modelled events survive,
  /// the detector abstains from an evidence-based call and the verdict
  /// follows flag_on_abstain.
  std::size_t min_events_for_verdict = 1;
  /// Verdict when the detector abstains: adversarial (true, fail-closed,
  /// mirroring flag_unmodeled) or benign (false).
  bool flag_on_abstain = true;
  gmm::em_config em{};
};

/// The offline dataset D_c: for each class, for each event, the M
/// per-image mean counts (one column of the paper's D_c matrix).
class benign_template {
 public:
  benign_template(std::size_t num_classes, std::size_t num_events);

  void add_row(std::size_t cls, std::span<const double> event_means);

  std::size_t num_classes() const noexcept { return classes_; }
  std::size_t num_events() const noexcept { return events_; }
  std::size_t rows(std::size_t cls) const;
  /// Column n of D_c.
  const std::vector<double>& column(std::size_t cls, std::size_t event) const;

  /// Per-class sample count the collector aimed for (0 when the template
  /// was assembled by hand). Lets benches report partial templates.
  std::size_t requested_per_class() const noexcept { return requested_; }
  void set_requested_per_class(std::size_t n) noexcept { requested_ = n; }
  /// Classes whose accepted row count fell short of the request.
  std::vector<std::size_t> underfilled_classes() const;

 private:
  std::size_t classes_;
  std::size_t events_;
  std::size_t requested_ = 0;
  // data_[cls][event] = vector of M mean counts
  std::vector<std::vector<std::vector<double>>> data_;
};

/// Per-(class, event) anomaly model: fitted GMM + threshold.
struct event_model {
  gmm::gmm1d model;
  double threshold = 0.0;
  double nll_mean = 0.0;
  double nll_stddev = 0.0;
  std::size_t template_size = 0;
};

/// Verdict for one unknown input.
struct verdict {
  std::size_t predicted = 0;
  std::vector<double> nll;        ///< per event
  std::vector<bool> flagged;      ///< per event: nll > threshold
  /// Overall call when fusing all events (any event flags => adversarial;
  /// an unmodelled prediction follows detector_config::flag_unmodeled).
  bool adversarial_any = false;
  /// False when the predicted class had no fitted models, in which case
  /// nll/flagged carry no information and adversarial_any is pure policy.
  bool modeled = true;
  /// True when at least one configured event was unavailable in the
  /// measurement: the verdict was scored over a strict subset of the
  /// configured events.
  bool degraded = false;
  /// True when fewer than detector_config::min_events_for_verdict
  /// modelled events were available; adversarial_any is then the
  /// flag_on_abstain policy, not measured evidence.
  bool abstained = false;
};

class detector {
 public:
  /// Fits all GMMs and thresholds from an offline template. Classes with
  /// fewer than 2 template rows get no model; how their predictions are
  /// judged is governed by detector_config::flag_unmodeled. Each
  /// (class, event) cell fits independently with its own seeded EM state,
  /// so the result is bitwise identical at any `threads` value
  /// (advh::resolve_threads semantics: 0 = ADVH_THREADS / hardware).
  static detector fit(const benign_template& tpl, const detector_config& cfg,
                      std::size_t threads = 0);

  /// Reassembles a detector from persisted parts (see core/detector_io).
  /// models[cls][event] must be num_classes x cfg.events.size().
  static detector from_parts(
      detector_config cfg,
      std::vector<std::vector<std::optional<event_model>>> models);

  /// Scores a pre-collected measurement (mean counts in config event
  /// order) under the predicted class's models. `available` is the
  /// per-event availability mask from hpc::measurement::quality (empty =
  /// every event available): unavailable events are skipped, so the
  /// any-event fusion — and with it the effective decision threshold —
  /// renormalises to the surviving (class, event) cells; too few
  /// survivors triggers the abstain policy (see detector_config).
  verdict score(std::size_t predicted_class,
                std::span<const double> mean_counts,
                std::span<const std::uint8_t> available = {}) const;

  /// Measures an unknown input through `monitor` and scores it, honouring
  /// the measurement's event-availability mask.
  verdict classify(hpc::hpc_monitor& monitor, const tensor& x) const;

  /// Measures and scores a batch through hpc_monitor::measure_batch;
  /// out[i] corresponds to inputs[i] and is bitwise identical to serial
  /// `classify` calls in the same order.
  std::vector<verdict> classify_batch(hpc::hpc_monitor& monitor,
                                      std::span<const tensor> inputs,
                                      std::size_t threads = 0) const;

  const detector_config& config() const noexcept { return cfg_; }
  std::size_t num_classes() const noexcept { return models_.size(); }

  /// Fitted model for (class, event index), if that class had enough
  /// template data.
  const std::optional<event_model>& model_for(std::size_t cls,
                                              std::size_t event_idx) const;

 private:
  detector() = default;

  detector_config cfg_;
  // models_[cls][event]
  std::vector<std::vector<std::optional<event_model>>> models_;
};

}  // namespace advh::core
