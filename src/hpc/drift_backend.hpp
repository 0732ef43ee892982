// Deterministic baseline-drift injecting reader wrapper.
//
// The fault_backend models *transient* counter failures; this wrapper
// models the other long-horizon hazard: slow environmental drift of the
// microarchitectural baseline itself. DVFS transitions, co-tenant cache
// pressure, and kernel updates all shift the benign cache-miss
// distribution, so a detector calibrated at deployment time gradually
// disagrees with the machine it is running on.
//
// The injected drift multiplies the affected events' readings by a factor
// that is a pure function of the raw stream index — a step (factor jumps
// from 1 to `magnitude` at `onset_stream`) or a linear ramp (factor climbs
// from 1 to `magnitude` across `ramp_streams` stream units after onset).
// Because the factor depends only on the stream index, a drift episode
// replays bit-for-bit at any thread count and composes cleanly with
// fault_backend (faults on top of a drifted baseline) and
// resilient_monitor (retries of sample k stay inside sample k's stream
// region, so a retry sees the same drift factor as the original read).
#pragma once

#include <vector>

#include "hpc/monitor.hpp"

namespace advh::hpc {

struct drift_profile {
  enum class shape_kind : std::uint8_t { step, ramp };
  shape_kind shape = shape_kind::step;
  /// Steady-state multiplier applied to affected events (> 0; 2.0 models
  /// the "co-tenant doubles the cache-miss baseline" scenario).
  double magnitude = 2.0;
  /// Raw stream index at which the drift begins.
  std::uint64_t onset_stream = 0;
  /// Ramp length in stream units (ignored for step). The factor reaches
  /// `magnitude` at onset_stream + ramp_streams.
  std::uint64_t ramp_streams = 0;
  /// Events the drift applies to; empty = every requested event.
  std::vector<hpc_event> events;
};

class drift_backend final : public raw_reader {
 public:
  /// Takes ownership of `inner`. `profile.magnitude` must be positive.
  drift_backend(std::unique_ptr<raw_reader> inner, drift_profile profile);

  std::string backend_name() const override {
    return "drift(" + inner_->backend_name() + ")";
  }

  /// The drift multiplier in effect at `stream` (1.0 before onset).
  double factor_at(std::uint64_t stream) const noexcept;

  /// Opens `x` on the inner reader; each read of the sample returns the
  /// inner readings with the drift factor applied, deterministic in
  /// `stream`.
  std::unique_ptr<raw_sample> open(const tensor& x) override;

  const drift_profile& profile() const noexcept { return profile_; }

 private:
  bool affects(hpc_event e) const noexcept;
  /// Scales one inner block's affected readings by factor_at(stream).
  void apply(reading_block& block, std::span<const hpc_event> events,
             std::uint64_t stream) const;

  std::unique_ptr<raw_reader> inner_;
  drift_profile profile_;
};

}  // namespace advh::hpc
