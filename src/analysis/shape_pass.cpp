// Pass 1: symbolic shape propagation.
//
// Folds a batch-of-one activation shape through the top-level layer list.
// Composite blocks propagate through their children internally, so a
// mismatch deep inside a residual/dense block still surfaces with the
// nested layer's own name in the message while the finding anchors to
// the top-level index. Propagation stops at the first failure (everything
// downstream of an undefined shape is undefined), but the other passes
// still run.
#include "analysis/passes.hpp"

namespace advh::analysis::detail {

void run_shape_pass(nn::model& m, check_report& report) {
  const shape& chw = m.input_shape();
  shape cur{1, chw[0], chw[1], chw[2]};
  const nn::sequential& root = m.net();
  for (std::size_t i = 0; i < root.size(); ++i) {
    const nn::layer& l = root.at(i);
    try {
      cur = l.infer_output_shape(cur);
    } catch (const unsupported_error& e) {
      add_graph_finding(report, severity::error, 101, "no-shape-inference", i,
                        l.name(), e.what());
      return;
    } catch (const shape_error& e) {
      add_graph_finding(report, severity::error, 102, "shape-mismatch", i,
                        l.name(), e.what());
      return;
    }
  }
  if (cur.rank() != 2 || cur[0] != 1 || cur[1] != m.num_classes()) {
    const std::size_t last = root.size() == 0 ? no_layer_index : root.size() - 1;
    add_graph_finding(report, severity::error, 103, "output-head-mismatch",
                      last, root.size() == 0 ? m.name() : root.at(last).name(),
                      "final output is " + cur.to_string() +
                          " but the detector expects (1, " +
                          std::to_string(m.num_classes()) + ") logits");
  }
}

}  // namespace advh::analysis::detail
