#include "hpc/fault_backend.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace advh::hpc {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// Salt for the per-event loss-onset streams, far away from the sample
/// stream indices the measurement path uses.
constexpr std::uint64_t kLossSalt = 0xADF0'0000'0000'0000ULL;

/// Geometric draw: number of stream units survived before an event with
/// per-unit hazard `rate` dies.
std::uint64_t draw_loss_onset(std::uint64_t seed, std::size_t event_index,
                              double rate) {
  if (rate <= 0.0) return kNever;
  if (rate >= 1.0) return 0;
  rng gen = rng::stream(seed, kLossSalt + event_index);
  const double u = gen.uniform();
  const double onset = std::log(1.0 - u) / std::log(1.0 - rate);
  if (!(onset < 1e18)) return kNever;
  return static_cast<std::uint64_t>(onset);
}

}  // namespace

fault_backend::fault_backend(std::unique_ptr<raw_reader> inner,
                             fault_config cfg)
    : inner_(std::move(inner)), cfg_(cfg) {
  ADVH_CHECK(inner_ != nullptr);
  for (std::size_t i = 0; i < hpc_event_count; ++i) {
    loss_onset_[i] = draw_loss_onset(cfg_.seed, i, cfg_.permanent_loss_rate);
  }
}

std::uint64_t fault_backend::loss_onset(hpc_event e) const noexcept {
  return loss_onset_[static_cast<std::size_t>(e)];
}

std::unique_ptr<raw_sample> fault_backend::open(const tensor& x) {
  return std::make_unique<transformed_sample>(
      inner_->open(x), [this](reading_block& block,
                              std::span<const hpc_event> events,
                              std::uint64_t stream) {
        inject(block, events, stream);
      });
}

void fault_backend::inject(reading_block& block,
                           std::span<const hpc_event> events,
                           std::uint64_t stream) const {
  rng faults = rng::stream(cfg_.seed, stream);

  // A hung read stalls the caller and then every repetition in the block
  // reports as timed out. The stall length does not influence any value.
  if (faults.bernoulli(cfg_.hang_rate)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(cfg_.hang_ms));
    for (auto& s : block.status) {
      if (s == reading_block::read_status::ok) {
        s = reading_block::read_status::transient_failure;
      }
    }
    return;
  }

  const std::size_t n_events = events.size();
  std::vector<double> last_good(n_events,
                                std::numeric_limits<double>::quiet_NaN());
  for (std::size_t r = 0; r < block.repetitions; ++r) {
    for (std::size_t e = 0; e < n_events; ++e) {
      // Fixed draw count per cell keeps the fault pattern a pure function
      // of (seed, stream), independent of earlier outcomes.
      const bool fail = faults.bernoulli(cfg_.read_failure_rate);
      const bool spike = faults.bernoulli(cfg_.spike_rate);
      const bool stuck = faults.bernoulli(cfg_.stuck_rate);

      const std::size_t idx = r * n_events + e;
      if (stream >= loss_onset(events[e])) {
        block.status[idx] = reading_block::read_status::event_lost;
        continue;
      }
      if (block.status[idx] != reading_block::read_status::ok) continue;
      if (fail) {
        block.status[idx] = reading_block::read_status::transient_failure;
        continue;
      }
      if (stuck && !std::isnan(last_good[e])) {
        block.values[idx] = last_good[e];
      } else if (spike) {
        block.values[idx] *= cfg_.spike_magnitude;
      }
      last_good[e] = block.values[idx];
    }
  }
}

}  // namespace advh::hpc
