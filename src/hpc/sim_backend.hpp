// Simulator-backed HPC reader.
//
// Substitutes for perf on machines (or containers) where perf_event_open
// is unavailable: the inference runs for real, its data-flow trace is
// replayed through the microarchitecture simulator, and the resulting true
// counts are observed R times through the measurement-noise model — the
// same protocol the paper uses on real counters. The inference and the
// replay run once per opened sample, whatever R is and however many
// rounds the monitor reads: every round observes the same true counts.
//
// Determinism contract: the noise of a read depends only on (seed,
// stream) — never on which thread read it or how many were in flight —
// so the monitor's stream numbering alone fixes every measurement.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "hpc/monitor.hpp"
#include "hpc/noise.hpp"
#include "nn/model.hpp"
#include "uarch/trace_gen.hpp"

namespace advh::hpc {

class sim_backend final : public raw_reader {
 public:
  /// The reader borrows the model; callers keep it alive.
  explicit sim_backend(nn::model& m, const uarch::trace_gen_config& cfg = {},
                       noise_model noise = noise_model{},
                       std::uint64_t seed = 99);

  std::string backend_name() const override { return "simulator"; }

  /// Deterministic (noise-free) event profile of one input.
  uarch::uarch_counts profile(const tensor& x, std::size_t& predicted) const;

  /// Profiles `x` and returns a sample whose reads draw noise on those
  /// counts. Safe to call from multiple threads concurrently: the shared
  /// model's traced forward is read-only, and each call replays through a
  /// trace generator no other call holds meanwhile.
  std::unique_ptr<raw_sample> open(const tensor& x) override;

 private:
  class sample;

  nn::model& model_;
  uarch::trace_gen_config cfg_;
  noise_model noise_;
  std::uint64_t seed_;
  // Idle trace generators. A replay takes one (or makes one when none is
  // idle) and puts it back, so generators keep their shape-only state
  // across calls; run() is exact whatever a generator replayed before.
  mutable std::mutex idle_mutex_;
  mutable std::vector<std::unique_ptr<uarch::trace_generator>> idle_;
};

}  // namespace advh::hpc
