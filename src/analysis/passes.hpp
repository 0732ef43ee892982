// Internal pass interface of the static verifier. Each pass appends
// ADVH-x1xx findings to the shared report; passes are independent so one
// failing pass never masks another's findings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/check.hpp"
#include "analysis/walk.hpp"
#include "nn/model.hpp"

namespace advh::analysis::detail {

/// Sentinel for findings not attached to a top-level layer.
inline constexpr std::size_t no_layer_index = static_cast<std::size_t>(-1);

/// Records a model-graph finding. `where` reads "layer N (path)" (either
/// part omitted when absent) and the message "<name>: <text>", where
/// `name` is the defect class's kebab-case name, e.g. "shape-mismatch".
void add_graph_finding(check_report& out, severity sev, int number,
                       const char* name, std::size_t layer_index,
                       const std::string& path, const std::string& text);

void run_shape_pass(nn::model& m, check_report& report);
void run_param_pass(nn::model& m, const std::vector<walk_entry>& graph,
                    check_report& report);
void run_trace_pass(const std::vector<walk_entry>& graph,
                    check_report& report);
void run_structure_pass(nn::model& m, const std::vector<walk_entry>& graph,
                        check_report& report);

}  // namespace advh::analysis::detail
