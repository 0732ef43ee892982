#include "analysis/envelope_pass.hpp"

#include <cmath>
#include <string>

#include "hpc/events.hpp"

namespace advh::analysis {

namespace {

const uarch::count_interval& interval_for(const uarch::static_envelope& env,
                                          hpc::hpc_event e) {
  switch (e) {
    case hpc::hpc_event::instructions:
      return env.instructions;
    case hpc::hpc_event::branches:
      return env.branches;
    case hpc::hpc_event::branch_misses:
      return env.branch_misses;
    case hpc::hpc_event::cache_references:
      return env.cache_references;
    case hpc::hpc_event::cache_misses:
      return env.cache_misses;
    case hpc::hpc_event::l1d_load_misses:
      return env.l1d_load_misses;
    case hpc::hpc_event::l1i_load_misses:
      return env.l1i_load_misses;
    case hpc::hpc_event::llc_load_misses:
      return env.llc_load_misses;
    case hpc::hpc_event::llc_store_misses:
      return env.llc_store_misses;
  }
  return env.instructions;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

uarch::static_envelope model_envelope(nn::model& m,
                                      const envelope_options& opts) {
  const shape& chw = m.input_shape();
  std::size_t predicted = 0;
  const nn::inference_trace trace =
      m.trace_inference(tensor::zeros(shape{1, chw[0], chw[1], chw[2]}),
                        predicted);
  return uarch::analyze_abstract_trace(trace, opts.cost_model);
}

void check_envelope(nn::model& m, const core::detector& det,
                    const envelope_options& opts, check_report& out) {
  const uarch::static_envelope env = model_envelope(m, opts);
  const auto& events = det.config().events;

  for (std::size_t cls = 0; cls < det.num_classes(); ++cls) {
    for (std::size_t e = 0; e < events.size(); ++e) {
      const auto& em = det.model_for(cls, e);
      if (!em.has_value()) continue;
      const uarch::count_interval& iv = interval_for(env, events[e]);
      const std::string where =
          "(class " + std::to_string(cls) + ", event " +
          hpc::to_string(events[e]) + ")";

      const auto comps = em->model.components();
      for (std::size_t k = 0; k < comps.size(); ++k) {
        const auto& c = comps[k];
        if (c.weight < opts.min_component_weight) continue;
        const double sd = std::sqrt(c.variance);
        // The component's mass interval: if even its nearest edge cannot
        // reach the widened envelope, the mass is infeasible.
        const double mass_lo = c.mean - opts.sigma_span * sd;
        const double mass_hi = c.mean + opts.sigma_span * sd;
        const bool feasible =
            iv.contains(mass_lo, opts.rel_margin, opts.abs_margin) ||
            iv.contains(mass_hi, opts.rel_margin, opts.abs_margin) ||
            (mass_lo < iv.lo && mass_hi > iv.hi);
        if (feasible) continue;
        out.add(severity::error, 301, where,
                "component " + std::to_string(k) + " (weight " +
                    fmt(c.weight) + ") concentrates its mass in [" +
                    fmt(mass_lo) + ", " + fmt(mass_hi) +
                    "], outside the statically feasible envelope [" +
                    fmt(iv.lo) + ", " + fmt(iv.hi) +
                    "]: template is miscalibrated, drifted or tampered, "
                    "or was fitted under a different uarch cost model");
      }
    }
  }
}

}  // namespace advh::analysis
