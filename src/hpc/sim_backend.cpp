#include "hpc/sim_backend.hpp"

#include "common/error.hpp"

namespace advh::hpc {

sim_backend::sim_backend(nn::model& m, const uarch::trace_gen_config& cfg,
                         noise_model noise, std::uint64_t seed)
    : model_(m), cfg_(cfg), noise_(std::move(noise)), seed_(seed) {}

uarch::uarch_counts sim_backend::profile(const tensor& x,
                                         std::size_t& predicted) const {
  const nn::inference_trace trace = model_.trace_inference(x, predicted);
  std::unique_ptr<uarch::trace_generator> gen;
  {
    const std::lock_guard lock(idle_mutex_);
    if (!idle_.empty()) {
      gen = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  if (!gen) gen = std::make_unique<uarch::trace_generator>(cfg_);
  const uarch::uarch_counts counts = gen->run(trace);
  const std::lock_guard lock(idle_mutex_);
  idle_.push_back(std::move(gen));
  return counts;
}

reading_block sim_backend::read_repetitions(const tensor& x,
                                            std::span<const hpc_event> events,
                                            std::size_t repeats,
                                            std::uint64_t stream) {
  ADVH_CHECK(repeats > 0);
  reading_block block;
  block.repetitions = repeats;
  block.num_events = events.size();
  block.values.assign(repeats * events.size(), 0.0);
  block.status.assign(repeats * events.size(), reading_block::read_status::ok);

  const uarch::uarch_counts true_counts = profile(x, block.predicted);

  // Event-outer, repetition-inner draws, keyed purely by (seed, stream).
  rng noise_rng = rng::stream(seed_, stream);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto truth = static_cast<double>(extract(true_counts, events[e]));
    for (std::size_t r = 0; r < repeats; ++r) {
      block.values[r * events.size() + e] =
          noise_.sample(events[e], truth, noise_rng);
    }
  }
  return block;
}

}  // namespace advh::hpc
