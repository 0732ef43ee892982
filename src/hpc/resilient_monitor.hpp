// The measurement monitor.
//
// Turns a best-effort raw_reader into a measurement contract the detector
// can trust. It is the one place that numbers sample streams, batches
// over threads, retries and aggregates:
//   * per-repetition retry — failed readings are re-read with capped
//     exponential backoff (common/retry) until the R requested
//     repetitions are filled or the attempt budget runs out; every round
//     reads the one sample the reader opened for the measurement (the
//     simulator traces and replays the input once per sample);
//   * robust aggregation — the surviving repetitions are trimmed by
//     median/MAD outlier rejection before the mean/stddev the detector
//     consumes are computed, so co-tenant spikes cannot drag the paper's
//     E-bar statistic;
//   * graceful degradation — an event reported permanently lost is
//     dropped from the active set and the measurement's quality mask
//     records the surviving subset instead of the run failing.
// Naive aggregation — the paper's plain average, and what an unprotected
// deployment feeds the detector — is the setting resilience_config::naive():
// one attempt and no trimming, so failed repetitions are dropped and
// everything else is trusted.
//
// Determinism contract: every stochastic decision for sample k (noise,
// faults, retries) is keyed on stream indices derived from k alone —
// attempt a of sample k reads at stream k * attempt_stride + a when
// retries are configured, and at stream k when they are not — so serial
// measures, 1-thread batches, and N-thread batches are bitwise identical,
// fault storms included.
#pragma once

#include <mutex>
#include <set>

#include "common/retry.hpp"
#include "hpc/monitor.hpp"

namespace advh::hpc {

struct resilience_config {
  /// Per-sample retry budget for refilling failed repetitions.
  retry_policy retry{};
  /// Reject repetitions farther than this many (MAD-estimated) standard
  /// deviations from the per-event median. <= 0 disables rejection.
  double mad_multiplier = 3.5;
  /// An event whose surviving repetitions fall below this count is
  /// reported unavailable for the sample (quality.available = 0).
  std::size_t min_repetitions = 1;

  /// One attempt per sample and no trimming: the plain average.
  static resilience_config naive() {
    resilience_config cfg;
    cfg.retry.max_attempts = 1;
    cfg.mad_multiplier = 0.0;
    return cfg;
  }
};

class resilient_monitor final : public hpc_monitor {
 public:
  /// With retries configured, attempts are encoded into the reader's
  /// stream index; the policy's max_attempts must not exceed this stride.
  static constexpr std::uint64_t attempt_stride = 8;

  /// Takes ownership of `reader`.
  explicit resilient_monitor(std::unique_ptr<raw_reader> reader,
                             resilience_config cfg = resilience_config{});

  /// The reader's name, wrapped in "resilient(...)" when retries are
  /// configured.
  std::string backend_name() const override;

  /// Events observed permanently lost so far (sorted). A lost event stays
  /// in measurement vectors — with quality.available = 0 — so event
  /// indices keep lining up with the detector configuration.
  std::vector<hpc_event> lost_events() const;

  /// The subset of `requested` not yet observed permanently lost.
  std::vector<hpc_event> surviving(std::span<const hpc_event> requested) const;

  const resilience_config& config() const noexcept { return cfg_; }

 protected:
  measurement do_measure(const tensor& x, std::span<const hpc_event> events,
                         std::size_t repeats) override;

  /// Parallel over samples; bitwise identical at any thread count. The
  /// budget caps retry rounds, suppresses backoff sleeps, and honours
  /// cancellation (see measure_budget); it only truncates the retry
  /// schedule — stream indices stay keyed on (sample, attempt) — so any
  /// fixed budget is bitwise thread-invariant.
  std::vector<measurement> do_measure_batch_budgeted(
      std::span<const tensor> inputs, std::span<const hpc_event> events,
      std::size_t repeats, std::size_t threads,
      const measure_budget& budget) override;

 private:
  measurement measure_sample(const tensor& x, std::span<const hpc_event> events,
                             std::size_t repeats, std::uint64_t sample_index,
                             const measure_budget& budget) const;

  std::unique_ptr<raw_reader> reader_;
  resilience_config cfg_;
  std::uint64_t next_sample_ = 0;
  /// Permanently-lost events seen so far — reporting only; measurement
  /// content for sample k depends on k alone, never on this set.
  mutable std::mutex lost_mutex_;
  mutable std::set<hpc_event> lost_;
};

}  // namespace advh::hpc
