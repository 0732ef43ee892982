#include "core/detector.hpp"

#include "analysis/policy_pass.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace advh::core {

benign_template::benign_template(std::size_t num_classes,
                                 std::size_t num_events)
    : classes_(num_classes), events_(num_events) {
  ADVH_CHECK(num_classes > 0 && num_events > 0);
  data_.assign(classes_, std::vector<std::vector<double>>(events_));
}

void benign_template::add_row(std::size_t cls,
                              std::span<const double> event_means) {
  ADVH_CHECK(cls < classes_);
  ADVH_CHECK_MSG(event_means.size() == events_,
                 "row width must equal event count");
  for (std::size_t e = 0; e < events_; ++e) {
    data_[cls][e].push_back(event_means[e]);
  }
}

std::size_t benign_template::rows(std::size_t cls) const {
  ADVH_CHECK(cls < classes_);
  return data_[cls].empty() ? 0 : data_[cls][0].size();
}

const std::vector<double>& benign_template::column(std::size_t cls,
                                                   std::size_t event) const {
  ADVH_CHECK(cls < classes_ && event < events_);
  return data_[cls][event];
}

std::vector<std::size_t> benign_template::underfilled_classes() const {
  std::vector<std::size_t> out;
  if (requested_ == 0) return out;
  for (std::size_t cls = 0; cls < classes_; ++cls) {
    if (rows(cls) < requested_) out.push_back(cls);
  }
  return out;
}

detector detector::fit(const benign_template& tpl, const detector_config& cfg,
                       std::size_t threads) {
  ADVH_CHECK_MSG(cfg.events.size() == tpl.num_events(),
                 "config/template event count mismatch");
  // Policy gate: an internally inconsistent config (zero repeats, abstain
  // floor above the event count, non-positive sigma rule) is rejected
  // before any template is fitted under it, with the same ADVH-Exxx codes
  // advh_check reports.
  {
    analysis::check_report report;
    report.target = "detector config";
    analysis::check_detector_policy(cfg, report);
    if (report.has_errors()) throw analysis::check_error(std::move(report));
  }

  detector d;
  d.cfg_ = cfg;
  d.models_.assign(tpl.num_classes(),
                   std::vector<std::optional<event_model>>(tpl.num_events()));

  // Flatten the (class, event) grid into independent fit jobs. Every job
  // seeds its own EM state from cfg.em and writes a distinct cell, so the
  // bank can fit in parallel without changing a single bit of the result.
  struct fit_job {
    std::size_t cls;
    std::size_t event;
  };
  std::vector<fit_job> jobs;
  jobs.reserve(tpl.num_classes() * tpl.num_events());
  for (std::size_t cls = 0; cls < tpl.num_classes(); ++cls) {
    if (tpl.rows(cls) < 2) continue;  // not enough data to model this class
    for (std::size_t e = 0; e < tpl.num_events(); ++e) {
      jobs.push_back({cls, e});
    }
  }

  parallel::parallel_for(
      jobs.size(), threads, [&](std::size_t j, std::size_t /*worker*/) {
        const auto [cls, e] = jobs[j];
        const std::vector<double>& col = tpl.column(cls, e);
        event_model em;
        em.model = gmm::gmm1d::fit_best_bic(col, cfg.k_max, cfg.em);
        em.template_size = col.size();

        // NLL distribution L_c^n over the template, then the 3-sigma rule.
        std::vector<double> nll;
        nll.reserve(col.size());
        for (double v : col) nll.push_back(em.model.nll(v));
        em.nll_mean = stats::mean(nll);
        em.nll_stddev = stats::stddev(nll);
        em.threshold = em.nll_mean + cfg.sigma_multiplier * em.nll_stddev;
        d.models_[cls][e] = std::move(em);
      });
  return d;
}

detector detector::from_parts(
    detector_config cfg,
    std::vector<std::vector<std::optional<event_model>>> models) {
  for (const auto& row : models) {
    ADVH_CHECK_MSG(row.size() == cfg.events.size(),
                   "model grid width must equal event count");
  }
  detector d;
  d.cfg_ = std::move(cfg);
  d.models_ = std::move(models);
  return d;
}

verdict detector::score(std::size_t predicted_class,
                        std::span<const double> mean_counts,
                        std::span<const std::uint8_t> available) const {
  ADVH_CHECK(predicted_class < models_.size());
  ADVH_CHECK_MSG(mean_counts.size() == cfg_.events.size(),
                 "measurement width must equal event count");
  ADVH_CHECK_MSG(available.empty() || available.size() == cfg_.events.size(),
                 "availability mask width must equal event count");

  const auto is_available = [&](std::size_t e) {
    return available.empty() || available[e] != 0;
  };

  verdict v;
  v.predicted = predicted_class;
  v.nll.resize(cfg_.events.size(), 0.0);
  v.flagged.resize(cfg_.events.size(), false);
  v.modeled = false;
  std::size_t scored = 0;
  for (std::size_t e = 0; e < cfg_.events.size(); ++e) {
    const auto& em = models_[predicted_class][e];
    if (!is_available(e)) {
      // Unavailable measurement: no evidence either way for this event.
      v.degraded = true;
      continue;
    }
    if (!em.has_value()) continue;
    v.modeled = true;
    ++scored;
    v.nll[e] = em->model.nll(mean_counts[e]);
    v.flagged[e] = v.nll[e] > em->threshold;
    v.adversarial_any = v.adversarial_any || v.flagged[e];
  }
  // A class model fitted for an unavailable event still counts as
  // "modelled": abstention — not the unmodelled-class policy — is the
  // right response to losing its measurement.
  if (!v.modeled) {
    for (std::size_t e = 0; e < cfg_.events.size() && !v.modeled; ++e) {
      v.modeled = models_[predicted_class][e].has_value();
    }
  }
  if (!v.modeled) {
    // No reference behaviour for this class: the verdict is policy, not
    // evidence. Fail closed unless the deployment opted out.
    v.adversarial_any = cfg_.flag_unmodeled;
  } else if (scored < cfg_.min_events_for_verdict) {
    // Too few surviving modelled events for an evidence-based call.
    v.abstained = true;
    v.adversarial_any = cfg_.flag_on_abstain;
  }
  return v;
}

verdict detector::classify(hpc::hpc_monitor& monitor, const tensor& x) const {
  const auto m = monitor.measure(x, cfg_.events, cfg_.repeats);
  return score(m.predicted, m.mean_counts, m.q.available);
}

std::vector<verdict> detector::classify_batch(hpc::hpc_monitor& monitor,
                                              std::span<const tensor> inputs,
                                              std::size_t threads) const {
  const auto ms =
      monitor.measure_batch(inputs, cfg_.events, cfg_.repeats, threads);
  std::vector<verdict> out;
  out.reserve(ms.size());
  for (const auto& m : ms) {
    out.push_back(score(m.predicted, m.mean_counts, m.q.available));
  }
  return out;
}

const std::optional<event_model>& detector::model_for(
    std::size_t cls, std::size_t event_idx) const {
  ADVH_CHECK(cls < models_.size());
  ADVH_CHECK(event_idx < cfg_.events.size());
  return models_[cls][event_idx];
}

}  // namespace advh::core
