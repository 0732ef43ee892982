// Model-graph static verifier.
//
// Verifies a constructed advh::nn::model *without executing it*. Four
// passes:
//   1. shape      — symbolic shape propagation through the whole layer
//                   graph (conv/pool arithmetic, flatten/linear width,
//                   batch-norm channel agreement, logit-head width);
//   2. params     — parameter audit: NaN/Inf values, all-zero weights,
//                   duplicate registration, parameters invisible to
//                   model::params() or missing from serialized state;
//   3. trace      — trace-coverage analysis: every layer must declare its
//                   trace-event contribution so trace_inference provably
//                   observes the full data flow the HPC simulator
//                   fingerprints;
//   4. structure  — dead/degenerate layers, activation after the logit
//                   head, batch-norm epsilon/momentum range contracts.
//
// Findings carry the ADVH-x1xx codes of analysis/check. Choke points
// (nn::load_state, core::prepare_scenario) call ensure_verified and refuse
// to proceed on errors; the advh_check tool prints the same findings.
#pragma once

#include "analysis/check.hpp"
#include "nn/model.hpp"

namespace advh::analysis {

struct verify_options {
  bool check_shapes = true;
  bool check_params = true;
  bool check_trace = true;
  bool check_structure = true;
};

/// Runs all enabled passes, appending their findings to `out`. Never
/// throws on graph defects — they land in the report.
void verify_model(nn::model& m, check_report& out,
                  const verify_options& opts = {});

/// Verifies and throws check_error when the report carries errors.
/// `context` names the caller in the message (e.g. the state-file path).
void ensure_verified(nn::model& m, const std::string& context,
                     const verify_options& opts = {});

}  // namespace advh::analysis
