#include "analysis/verifier.hpp"

#include "analysis/passes.hpp"
#include "common/logging.hpp"

namespace advh::analysis {

namespace detail {

void add_graph_finding(check_report& out, severity sev, int number,
                       const char* name, std::size_t layer_index,
                       const std::string& path, const std::string& text) {
  std::string where;
  if (layer_index != no_layer_index) {
    where = "layer " + std::to_string(layer_index);
  }
  if (!path.empty()) {
    where += where.empty() ? "(" + path + ")" : " (" + path + ")";
  }
  out.add(sev, number, std::move(where), std::string(name) + ": " + text);
}

}  // namespace detail

void verify_model(nn::model& m, check_report& out,
                  const verify_options& opts) {
  const walk_result walked = walk_graph_checked(m.net());
  const std::vector<walk_entry>& graph = walked.entries;
  for (const walk_anomaly& a : walked.anomalies) {
    if (a.k == walk_anomaly::kind::cycle) {
      detail::add_graph_finding(out, severity::error, 140, "graph-cycle",
                                a.top_index, a.node_name,
                                "layer is reachable from itself; the graph "
                                "walk refused to recurse into it");
    } else {
      detail::add_graph_finding(out, severity::error, 141, "layer-aliased",
                                a.top_index, a.node_name,
                                "layer object is registered under more than "
                                "one parent; its computation would be "
                                "double-counted");
    }
  }

  if (opts.check_shapes) detail::run_shape_pass(m, out);
  if (opts.check_params) detail::run_param_pass(m, graph, out);
  if (opts.check_trace) detail::run_trace_pass(graph, out);
  if (opts.check_structure) detail::run_structure_pass(m, graph, out);
}

void ensure_verified(nn::model& m, const std::string& context,
                     const verify_options& opts) {
  check_report report;
  report.target = m.name();
  verify_model(m, report, opts);
  if (report.has_errors()) throw check_error(std::move(report), context);
  if (report.warning_count() > 0) {
    log::warn(context, ": model ", m.name(), " verified with ",
              report.warning_count(), " warning(s)\n", report.to_text());
  }
}

}  // namespace advh::analysis
