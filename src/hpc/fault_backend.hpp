// Deterministic fault-injecting reader wrapper.
//
// Wraps any raw_reader and corrupts its repetition readings with
// the failure modes real counters exhibit in deployment: transient read
// failures, co-tenant value spikes, stuck-at (stale) reads, hung reads
// that the caller's watchdog times out, and per-event permanent loss
// (an event vanishing mid-session, e.g. the PMU being claimed by another
// agent). Every fault decision is a pure function of (fault seed, stream
// index) via rng::stream, so a fault storm replays bit-for-bit at any
// thread count — which is what makes the resilience tests and the
// robustness bench reproducible.
//
// Under a resilient_monitor with resilience_config::naive() it shows what
// unprotected measurement feeds the detector (failed repetitions dropped,
// spikes trusted); the default resilience config is the protected path.
#pragma once

#include <array>
#include <cstdint>

#include "hpc/monitor.hpp"

namespace advh::hpc {

struct fault_config {
  /// Per-repetition, per-event probability of a transient read failure.
  double read_failure_rate = 0.0;
  /// Per-repetition, per-event probability of a co-tenant value spike.
  double spike_rate = 0.0;
  /// Multiplier applied to a spiked reading.
  double spike_magnitude = 8.0;
  /// Per-repetition, per-event probability the read returns the previous
  /// repetition's (stale) value instead of a fresh one.
  double stuck_rate = 0.0;
  /// Per-read-call probability the whole read hangs; the injected stall
  /// lasts hang_ms and every repetition in the block then fails as timed
  /// out.
  double hang_rate = 0.0;
  std::uint32_t hang_ms = 1;
  /// Per-stream-unit hazard of each event dying permanently: event e is
  /// lost for every stream index >= a geometric draw with this success
  /// probability (0 disables loss). Loss is monotone in the stream index,
  /// so it is reorder- and thread-count-invariant.
  double permanent_loss_rate = 0.0;
  /// Seed of the fault stream (independent of the measurement noise seed).
  std::uint64_t seed = 13;
};

class fault_backend final : public raw_reader {
 public:
  /// Takes ownership of `inner`.
  fault_backend(std::unique_ptr<raw_reader> inner, fault_config cfg);

  std::string backend_name() const override {
    return "faulty(" + inner_->backend_name() + ")";
  }

  /// Opens `x` on the inner reader; each read of the sample returns the
  /// inner readings with faults injected, deterministic in `stream`.
  std::unique_ptr<raw_sample> open(const tensor& x) override;

  /// Stream index from which `e` is permanently lost (max uint64 = never).
  std::uint64_t loss_onset(hpc_event e) const noexcept;

  const fault_config& config() const noexcept { return cfg_; }

 private:
  /// Applies the faults keyed on `stream` to one inner block.
  void inject(reading_block& block, std::span<const hpc_event> events,
              std::uint64_t stream) const;

  std::unique_ptr<raw_reader> inner_;
  fault_config cfg_;
  std::array<std::uint64_t, hpc_event_count> loss_onset_{};
};

}  // namespace advh::hpc
