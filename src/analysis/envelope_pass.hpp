// HPC envelope pass: abstract-interpretation cross-check of fitted
// templates (advh_check codes 3xx).
//
// The trace of one forward of a zero input, fed through the uarch static
// cost model (uarch/static_model) with its active sets ignored, yields, per
// event, a feasibility interval covering every count the simulator can
// produce for *any* input of the configured shape: every field the static
// model reads is fixed by the graph and the input shape. A fitted GMM
// component whose mass (mean ± sigma_span standard deviations) lies
// entirely outside that interval — widened by margins absorbing
// measurement noise — describes behaviour the model cannot exhibit: a
// miscalibrated, drifted or tampered template, caught offline with zero
// measurements.
#pragma once

#include "analysis/check.hpp"
#include "core/detector.hpp"
#include "nn/model.hpp"
#include "uarch/static_model.hpp"

namespace advh::analysis {

struct envelope_options {
  /// Cost model the templates were fitted under; must match the
  /// measurement backend's trace_gen_config or the pass will flag honest
  /// templates (which is exactly the mismatched-cost-model defect).
  uarch::trace_gen_config cost_model{};
  /// Relative envelope widening (absorbs multiplicative measurement noise
  /// and repeat-mean spread).
  double rel_margin = 0.10;
  /// Absolute widening (absorbs the additive background-noise floor of
  /// events whose raw counts are small).
  double abs_margin = 65536.0;
  /// Components below this mixture weight are ignored (numerical dust
  /// from EM, not evidence of tampering).
  double min_component_weight = 0.01;
  /// Half-width, in component standard deviations, of the mass interval
  /// compared against the envelope.
  double sigma_span = 3.0;
};

/// Derives the static envelope of `m` under `opts.cost_model`. Exposed
/// separately so tests and tools can inspect the intervals directly.
uarch::static_envelope model_envelope(nn::model& m,
                                      const envelope_options& opts = {});

/// Cross-checks every fitted (class, event) cell of `det` against the
/// static envelope of `m`; findings append to `out`. The detector's
/// event list selects which envelope interval each cell compares against.
void check_envelope(nn::model& m, const core::detector& det,
                    const envelope_options& opts, check_report& out);

}  // namespace advh::analysis
