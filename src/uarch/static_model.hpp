// Static (abstract-interpretation) counterpart of the trace replayer.
//
// trace_gen.cpp replays one *concrete* inference trace — with its
// data-dependent active sets — through the cache and branch models.
// This header derives, from shapes and parameter footprints alone, a
// sound interval envelope for every event the replay can produce:
// the active-input count of each parametric layer is abstracted to
// [0, in_numel] and every derived count is tracked as [lo, hi].
//
// Soundness argument per counter (cold caches, default no prefetcher):
//   instructions    entry_shape_work plus a linear term in the active
//                   counts — a single point at the default
//                   insn_per_active of 0.
//   branches        entry_shape_work's back-edge chunks + extra_branches
//                   are pure shape arithmetic — a single point.
//   branch_misses   at most every predicted back-edge; at least none.
//   cache_*         upper bound: every access misses at every level.
//                   lower bound: compulsory misses of the access set that
//                   happens regardless of sparsity (buffer sweeps + code
//                   footprint) — each distinct line misses a cold cache
//                   at least once.
// An enabled L1-D prefetcher can satisfy data lines before their demand
// access, so data-side lower bounds collapse to the instruction footprint.
//
// The analysis envelope pass (src/analysis/envelope_pass) feeds fitted
// GMM templates through these intervals to catch miscalibrated, drifted
// or tampered detector artifacts offline, with zero measurements.
#pragma once

#include <algorithm>

#include "nn/trace.hpp"
#include "uarch/trace_gen.hpp"

namespace advh::uarch {

/// Closed interval of feasible values for one event counter.
struct count_interval {
  double lo = 0.0;
  double hi = 0.0;

  /// True when `v` lies inside the interval widened by
  /// max(rel_margin * hi, abs_margin) on both sides.
  bool contains(double v, double rel_margin = 0.0,
                double abs_margin = 0.0) const noexcept {
    const double slack = std::max(rel_margin * hi, abs_margin);
    return v >= lo - slack && v <= hi + slack;
  }
};

/// Per-event feasibility envelope of one inference of a fixed model under
/// a fixed trace_gen_config. Field order mirrors uarch_counts.
struct static_envelope {
  count_interval instructions;
  count_interval branches;
  count_interval branch_misses;
  count_interval cache_references;
  count_interval cache_misses;
  count_interval l1d_load_misses;
  count_interval l1i_load_misses;
  count_interval llc_load_misses;
  count_interval llc_store_misses;
};

/// Abstractly interprets an inference trace, reading each entry's geometry
/// and ignoring its active sets. The instruction and branch side is the
/// replay's own entry_shape_work; the cache side is bounded.
static_envelope analyze_abstract_trace(const nn::inference_trace& trace,
                                       const trace_gen_config& cfg = {});

}  // namespace advh::uarch
