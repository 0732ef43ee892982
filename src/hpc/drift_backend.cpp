#include "hpc/drift_backend.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace advh::hpc {

drift_backend::drift_backend(std::unique_ptr<raw_reader> inner,
                             drift_profile profile)
    : inner_(std::move(inner)), profile_(std::move(profile)) {
  ADVH_CHECK(inner_ != nullptr);
  ADVH_CHECK_MSG(profile_.magnitude > 0.0,
                 "drift magnitude must be positive");
}

double drift_backend::factor_at(std::uint64_t stream) const noexcept {
  if (stream < profile_.onset_stream) return 1.0;
  if (profile_.shape == drift_profile::shape_kind::step ||
      profile_.ramp_streams == 0) {
    return profile_.magnitude;
  }
  const std::uint64_t into = stream - profile_.onset_stream;
  if (into >= profile_.ramp_streams) return profile_.magnitude;
  const double t = static_cast<double>(into) /
                   static_cast<double>(profile_.ramp_streams);
  return 1.0 + t * (profile_.magnitude - 1.0);
}

bool drift_backend::affects(hpc_event e) const noexcept {
  if (profile_.events.empty()) return true;
  return std::find(profile_.events.begin(), profile_.events.end(), e) !=
         profile_.events.end();
}

std::unique_ptr<raw_sample> drift_backend::open(const tensor& x) {
  return std::make_unique<transformed_sample>(
      inner_->open(x), [this](reading_block& block,
                              std::span<const hpc_event> events,
                              std::uint64_t stream) {
        apply(block, events, stream);
      });
}

void drift_backend::apply(reading_block& block,
                          std::span<const hpc_event> events,
                          std::uint64_t stream) const {
  const double factor = factor_at(stream);
  if (factor == 1.0) return;
  for (std::size_t r = 0; r < block.repetitions; ++r) {
    for (std::size_t e = 0; e < block.num_events; ++e) {
      const std::size_t idx = r * block.num_events + e;
      if (block.status[idx] != reading_block::read_status::ok) continue;
      if (!affects(events[e])) continue;
      block.values[idx] *= factor;
    }
  }
}

}  // namespace advh::hpc
