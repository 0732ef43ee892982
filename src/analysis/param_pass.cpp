// Pass 2: parameter audit.
//
// Collects parameters leaf-by-leaf (every learnable tensor lives on a
// leaf) and cross-checks them against the model-level aggregation
// (model::params()) and the serialization surface (collect_state). A
// parameter that a composite block forgets to forward is invisible to the
// optimizer and silently never trained — exactly the kind of defect that
// corrupts the benign HPC templates without ever crashing.
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "analysis/passes.hpp"

namespace advh::analysis::detail {

namespace {

std::size_t non_finite_count(const tensor& t) {
  std::size_t n = 0;
  for (float v : t.data()) n += std::isfinite(v) ? 0 : 1;
  return n;
}

bool all_zero(const tensor& t) {
  for (float v : t.data()) {
    if (v != 0.0f) return false;
  }
  return true;
}

/// Weight-like parameters are He/ones-initialised, so an all-zero value
/// means construction was bypassed; biases/betas legitimately start at 0.
bool weight_like(const nn::parameter& p) {
  return p.name.ends_with(".weight") || p.name.ends_with(".gamma");
}

}  // namespace

void run_param_pass(nn::model& m, const std::vector<walk_entry>& graph,
                    check_report& report) {
  // Model-level aggregation: duplicates here mean a layer (or a composite
  // forwarding twice) registered the same parameter more than once.
  std::unordered_map<const nn::parameter*, std::size_t> registered;
  for (const nn::parameter* p : m.params()) ++registered[p];
  for (const auto& [p, count] : registered) {
    if (count > 1) {
      add_graph_finding(report, severity::error, 112, "duplicate-param",
                        no_layer_index, p->name,
                        "parameter registered " + std::to_string(count) +
                            " times in model::params(); its gradient would "
                            "be applied that many times per step");
    }
  }

  std::vector<tensor*> state;
  m.net().collect_state(state);
  const std::unordered_set<const tensor*> state_set(state.begin(),
                                                    state.end());

  for (const walk_entry& e : graph) {
    if (!e.leaf) continue;
    std::vector<nn::parameter*> local;
    // collect_params is logically const but predates const-correct
    // traversal; the audit only reads.
    const_cast<nn::layer*>(e.node)->collect_params(local);

    if (local.empty() && e.node->trace_info().records_active_inputs) {
      add_graph_finding(report, severity::error, 113, "unregistered-params",
                        e.top_index, e.node->name(),
                        "parametric layer (" + to_string(e.node->kind()) +
                            ") exposes no parameters; it can never be "
                            "trained or serialized");
      continue;
    }

    for (const nn::parameter* p : local) {
      const std::size_t bad = non_finite_count(p->value);
      if (bad > 0) {
        add_graph_finding(report, severity::error, 110, "non-finite-param",
                          e.top_index, e.node->name(),
                          p->name + ": " + std::to_string(bad) + "/" +
                              std::to_string(p->value.numel()) +
                              " values are NaN/Inf");
      } else if (weight_like(*p) && p->value.numel() > 0 &&
                 all_zero(p->value)) {
        add_graph_finding(report, severity::error, 111, "uninitialized-param",
                          e.top_index, e.node->name(),
                          p->name + ": weight tensor is entirely zero "
                                    "(initialisation bypassed?)");
      }
      if (registered.find(p) == registered.end()) {
        add_graph_finding(report, severity::error, 114, "param-invisible",
                          e.top_index, e.node->name(),
                          p->name + " is not reported by model::params(); "
                                    "a composite block fails to forward "
                                    "collect_params");
      }
      if (state_set.find(&p->value) == state_set.end()) {
        add_graph_finding(report, severity::error, 115, "param-not-serialized",
                          e.top_index, e.node->name(),
                          p->name + " is missing from collect_state(); "
                                    "model save/load would silently drop it");
      }
    }
  }
}

}  // namespace advh::analysis::detail
