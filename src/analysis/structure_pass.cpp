// Pass 4: structural contracts.
//
// Catches graphs that execute fine but are statically wrong for the
// detection pipeline: dead layers (no computation, no trace), an
// activation clamping the logit head, and batch-norm hyper-parameters
// outside the range where the normalised statistics — and therefore the
// activation sparsity the detector fingerprints — stay meaningful.
#include <cmath>

#include "analysis/passes.hpp"
#include "nn/batchnorm.hpp"

namespace advh::analysis::detail {

namespace {

/// Scans a container's direct children for back-to-back ReLUs: the second
/// re-rectifies an already non-negative tensor, contributing nothing but a
/// duplicated trace entry.
void scan_container(const nn::sequential& container, std::size_t top_index,
                    bool container_is_root, check_report& report) {
  for (std::size_t i = 0; i + 1 < container.size(); ++i) {
    if (container.at(i).kind() == nn::layer_kind::relu &&
        container.at(i + 1).kind() == nn::layer_kind::relu) {
      add_graph_finding(report, severity::warning, 130, "dead-layer",
                        container_is_root ? i + 1 : top_index,
                        container.at(i + 1).name(),
                        "ReLU directly after ReLU is a no-op that only "
                        "duplicates trace entries");
    }
  }
}

}  // namespace

void run_structure_pass(nn::model& m, const std::vector<walk_entry>& graph,
                        check_report& report) {
  const nn::sequential& root = m.net();

  if (root.size() == 0) {
    add_graph_finding(report, severity::error, 130, "dead-layer",
                      no_layer_index, m.name(), "model graph is empty");
  }
  scan_container(root, 0, /*container_is_root=*/true, report);

  for (const walk_entry& e : graph) {
    // Empty containers: emit no trace, compute nothing, but still occupy a
    // slot in the graph — a refactoring leftover.
    if (const auto* seq = dynamic_cast<const nn::sequential*>(e.node)) {
      if (seq->size() == 0) {
        add_graph_finding(report, severity::error, 130, "dead-layer",
                          e.top_index, seq->name(),
                          "sequential container holds no layers; it "
                          "contributes no computation and emits no trace");
      } else if (e.depth > 0) {
        scan_container(*seq, e.top_index, /*container_is_root=*/false,
                       report);
      }
    }

    if (const auto* bn = dynamic_cast<const nn::batchnorm2d*>(e.node)) {
      const float eps = bn->epsilon();
      const float mom = bn->momentum();
      if (!(std::isfinite(eps) && eps > 0.0f)) {
        add_graph_finding(report, severity::error, 132, "batchnorm-epsilon",
                          e.top_index, bn->name(),
                          "epsilon " + std::to_string(eps) +
                              " must be a positive finite value; "
                              "normalisation would divide by ~0 on a "
                              "collapsed channel");
      } else if (eps > 1e-2f) {
        add_graph_finding(report, severity::warning, 132, "batchnorm-epsilon",
                          e.top_index, bn->name(),
                          "epsilon " + std::to_string(eps) +
                              " is large enough to visibly bias normalised "
                              "activations (contract: 0 < eps <= 1e-2)");
      }
      if (!(std::isfinite(mom) && mom > 0.0f && mom < 1.0f)) {
        add_graph_finding(report, severity::error, 133, "batchnorm-momentum",
                          e.top_index, bn->name(),
                          "running-stat momentum " + std::to_string(mom) +
                              " must lie in (0, 1); running statistics "
                              "would never converge or never update");
      }
    }
  }

  // Degenerate flatten: propagate top-level shapes (best effort — the
  // shape pass already reported hard failures).
  {
    const shape& chw = m.input_shape();
    shape cur{1, chw[0], chw[1], chw[2]};
    for (std::size_t i = 0; i < root.size(); ++i) {
      if (root.at(i).kind() == nn::layer_kind::flatten && cur.rank() == 2) {
        add_graph_finding(report, severity::warning, 130, "dead-layer", i,
                          root.at(i).name(),
                          "flatten of an already-flat (rank-2) tensor is "
                          "an identity");
      }
      try {
        cur = root.at(i).infer_output_shape(cur);
      } catch (const advh::error&) {
        break;
      }
    }
  }

  if (root.size() > 0) {
    const nn::layer& last = root.at(root.size() - 1);
    if (last.kind() == nn::layer_kind::relu) {
      add_graph_finding(report, severity::error, 131, "trailing-activation",
                        root.size() - 1, last.name(),
                        "activation after the logit head clamps logit "
                        "signs; predictions and trace statistics become "
                        "degenerate");
    } else if (last.kind() == nn::layer_kind::dropout) {
      add_graph_finding(report, severity::warning, 131, "trailing-activation",
                        root.size() - 1, last.name(),
                        "dropout after the logit head rescales logits in "
                        "training mode for no benefit");
    }
  }
}

}  // namespace advh::analysis::detail
