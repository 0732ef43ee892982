// Diagnostic vocabulary of the model-graph static verifier.
//
// Each diagnostic pins one defect class to one layer (by top-level index
// and dotted path) so a broken graph is actionable before a single
// inference runs. Errors mean the inference data flow — and therefore the
// HPC footprint the detector fingerprints — cannot be trusted; warnings
// flag smells that degrade the signal without corrupting it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace advh::analysis {

enum class severity { warning, error };

enum class diag_code {
  // Shape propagation.
  no_shape_inference,   ///< layer declares no static shape inference
  shape_mismatch,       ///< layer geometry rejects its incoming shape
  output_head_mismatch, ///< final output is not (1, num_classes) logits
  // Parameter audit.
  non_finite_param,     ///< NaN/Inf parameter values
  uninitialized_param,  ///< all-zero weight/gamma tensor
  duplicate_param,      ///< parameter registered more than once
  unregistered_params,  ///< parametric layer exposes no parameters
  param_invisible,      ///< leaf parameter missing from model::params()
  param_not_serialized, ///< parameter value absent from collect_state()
  // Trace coverage.
  missing_trace_contract,    ///< layer declares no trace contribution
  incomplete_trace_contract, ///< contract lacks active-input/output sets
  // Structural contracts.
  dead_layer,           ///< layer provably contributes no computation
  trailing_activation,  ///< activation/dropout after the logit head
  batchnorm_epsilon,    ///< epsilon outside its numeric contract
  batchnorm_momentum,   ///< running-stat momentum outside (0, 1)
  // Graph well-formedness (malformed for_each_child wiring).
  graph_cycle,          ///< a layer is its own (transitive) child
  layer_aliased,        ///< one layer object reachable via two parents
};

/// Stable kebab-case identifier, e.g. "shape-mismatch" (used in JSON).
const char* to_string(diag_code code);
const char* to_string(severity sev);

/// Sentinel for diagnostics not attached to a top-level layer.
inline constexpr std::size_t no_layer_index = static_cast<std::size_t>(-1);

struct diagnostic {
  severity sev = severity::error;
  diag_code code = diag_code::shape_mismatch;
  /// Index into the model's top-level layer list (no_layer_index when the
  /// defect is model-wide).
  std::size_t layer_index = no_layer_index;
  /// Dotted instance path of the offending layer, e.g. "block2.main.bn1".
  std::string layer_path;
  std::string message;
};

/// Outcome of one verification run over one model graph.
struct verification_report {
  std::string model_name;
  std::string input_shape;
  std::size_t num_classes = 0;
  std::size_t layers_checked = 0;
  std::vector<diagnostic> diags;

  std::size_t error_count() const noexcept;
  std::size_t warning_count() const noexcept;
  bool has_errors() const noexcept { return error_count() > 0; }

  void add(severity sev, diag_code code, std::size_t layer_index,
           std::string layer_path, std::string message);

  /// Human-readable multi-line rendering (one line per diagnostic).
  std::string to_text() const;
  /// Machine-readable rendering for tooling.
  std::string to_json() const;
};

/// Thrown by verification choke points (model load, pipeline setup) when a
/// graph fails verification; carries the full report.
class verification_error : public advh::error {
 public:
  /// `context` names the verification site (state-file path, scenario
  /// label) and is prepended to the message when non-empty.
  explicit verification_error(verification_report report,
                              const std::string& context = "");

  const verification_report& report() const noexcept { return report_; }

 private:
  verification_report report_;
};

}  // namespace advh::analysis
