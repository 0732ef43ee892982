// Pass 3: trace-coverage analysis.
//
// AdvHunter's detection signal is the inference data flow: the uarch
// simulator replays exactly what trace_inference records. A layer that
// computes but appends no trace entry leaves a hole in the address stream
// — the GMM templates are then fit on a footprint that does not match the
// real inference, which silently skews every FPR/TPR number downstream.
// Hence every layer must *declare* its trace contribution, and parametric
// / activation layers must declare the data-dependent sets the trace
// generator gathers on.
#include "analysis/passes.hpp"

namespace advh::analysis::detail {

void run_trace_pass(const std::vector<walk_entry>& graph,
                    check_report& report) {
  for (const walk_entry& e : graph) {
    const nn::trace_contract c = e.node->trace_info();
    // Pure containers aggregate their children's contracts; an empty
    // container is reported by the structure pass as a dead layer, and a
    // non-empty one inherits coverage from the children checked below.
    if (!e.leaf) continue;
    if (!c.emits_entry) {
      add_graph_finding(report, severity::error, 120, "missing-trace-contract",
                        e.top_index, e.node->name(),
                        "layer (" + to_string(e.node->kind()) +
                            ") declares no trace contribution; its data "
                            "flow would be invisible to the HPC simulator");
      continue;
    }
    switch (e.node->kind()) {
      case nn::layer_kind::conv2d:
      case nn::layer_kind::depthwise_conv2d:
      case nn::layer_kind::linear:
        if (!c.records_active_inputs) {
          add_graph_finding(report, severity::error, 121,
                            "incomplete-trace-contract", e.top_index,
                            e.node->name(),
                            "parametric layer does not record its "
                            "active-input gather set; the weight-panel "
                            "access pattern cannot be replayed");
        }
        break;
      case nn::layer_kind::relu:
        if (!c.records_active_outputs) {
          add_graph_finding(report, severity::error, 121,
                            "incomplete-trace-contract", e.top_index,
                            e.node->name(),
                            "activation layer does not record its firing "
                            "set; activation sparsity — the detection "
                            "signal itself — would be unobservable");
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace advh::analysis::detail
